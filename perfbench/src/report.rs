//! The run's output: named metrics with units, host metadata, and the
//! final one-line JSON result.

use iis_obs::{Json, ToJson as _};
use std::path::Path;

/// Named metrics with their units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|&(n, v, u)| {
                    let value = if v.is_finite() { v } else { 0.0 };
                    let m = Json::obj([("value", Json::Num(value)), ("unit", Json::Str(u.into()))]);
                    (n.to_string(), m)
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric, for people reading stderr.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<36} {v:>14.4} {u}\n"))
            .collect()
    }
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

/// The commit of a git checkout in `root`, read from `.git` directly so a
/// checkout that is not a repository reads `unknown`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(c) = std::fs::read_to_string(git.join(reference)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host metadata every report carries.
pub fn host(root: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, m)| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| first_line(&k))
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
        .unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_json(),
        ),
        ("cpu_model", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(rustc)),
        ("git_commit", Json::Str(git_commit(root))),
    ])
}

/// The host's CPU time so far as `(busy, steal)` clock ticks, from the
/// aggregate line of `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal …
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    let busy = at(0) + at(1) + at(2) + at(5) + at(6);
    (busy, at(7))
}

/// Host CPU use between two [`cpu_ticks`] readings over `seconds` of wall
/// time: busy and stolen cores, on average. Steal is time the hypervisor
/// ran something else while this machine wanted the CPU.
pub fn cpu_use(before: (u64, u64), after: (u64, u64), seconds: f64) -> Json {
    // USER_HZ is 100 on every Linux ABI
    let cores =
        |a: u64, b: u64| Json::Num((b.saturating_sub(a)) as f64 / 100.0 / seconds.max(1e-9));
    Json::obj([
        ("busy_cores", cores(before.0, after.0)),
        ("steal_cores", cores(before.1, after.1)),
    ])
}

/// The share of the CPU time the host asked for between two
/// [`cpu_ticks`] readings that the hypervisor granted (see
/// [`crate::drive::grant`]).
pub fn grant(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0) as f64;
    crate::drive::grant(busy, after.1.saturating_sub(before.1) as f64)
}

/// The load generator's shape, for the report.
pub fn generator(clients: usize) -> Json {
    Json::obj([
        ("loop", Json::Str("closed".into())),
        ("threads", clients.to_json()),
        ("connections", clients.to_json()),
    ])
}

/// A finished run.
pub struct RunResult {
    /// Every answer was right and every shape guard held.
    pub correct: bool,
    /// Questions asked in the measured phases.
    pub attempted: u64,
    /// Questions answered wrongly, refused, or lost.
    pub failed: u64,
    /// The metrics the mode prints.
    pub metrics: Metrics,
    /// The full report.
    pub report: Json,
}

impl RunResult {
    /// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
        .to_string()
    }
}
