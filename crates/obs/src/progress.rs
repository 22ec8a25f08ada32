//! The live progress registry (the CLI's `--progress` line and the
//! `/progress` endpoint).
//!
//! A single process-global set of atomics tracks per-phase totals: the
//! solve round in flight, rounds decided, nodes expanded, the node budget
//! left in the current round, constraint-cache hit rate, and fuzz
//! cases/failures. Every update records unconditionally: nothing here runs
//! per search node, since a search adds its node count in batches
//! ([`add_nodes`]).
//!
//! [`snapshot`] copies the registry and derives a sliding-window
//! throughput estimate (nodes + fuzz cases per second over the last ten
//! seconds) and an ETA for whichever of the two remaining-work quantities
//! is live. [`render_line`] formats a snapshot as the one-line stderr
//! report; [`ProgressSnapshot::to_json`] is the `/progress` wire format,
//! with keys in sorted order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::json::{Json, ToJson};
use crate::report::group_digits;

static NODES: AtomicU64 = AtomicU64::new(0);
static ROUND: AtomicU64 = AtomicU64::new(0);
static ROUNDS_DONE: AtomicU64 = AtomicU64::new(0);
static ROUND_BUDGET: AtomicU64 = AtomicU64::new(0);
static NODES_AT_ROUND_START: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static FUZZ_TOTAL: AtomicU64 = AtomicU64::new(0);
static FUZZ_DONE: AtomicU64 = AtomicU64::new(0);
static FUZZ_FAILURES: AtomicU64 = AtomicU64::new(0);

fn task_label() -> &'static Mutex<String> {
    static LABEL: OnceLock<Mutex<String>> = OnceLock::new();
    LABEL.get_or_init(|| Mutex::new(String::new()))
}

/// The sliding window of `(when, nodes + fuzz cases)` observations used
/// for the rate estimate; fed by [`snapshot`].
fn window() -> &'static Mutex<VecDeque<(Instant, u64)>> {
    static WINDOW: OnceLock<Mutex<VecDeque<(Instant, u64)>>> = OnceLock::new();
    WINDOW.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Names the work in flight (shown first in the progress line).
pub fn set_task(label: &str) {
    let mut g = task_label().lock().unwrap_or_else(PoisonError::into_inner);
    g.clear();
    g.push_str(label);
}

/// A search expanded `n` more nodes.
pub fn add_nodes(n: u64) {
    NODES.fetch_add(n, Ordering::Relaxed);
}

/// A solve round `b` with node budget `budget` is starting.
pub fn solve_round_started(task: &str, b: u64, budget: u64) {
    set_task(task);
    ROUND.store(b, Ordering::Relaxed);
    ROUND_BUDGET.store(budget, Ordering::Relaxed);
    NODES_AT_ROUND_START.store(NODES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The round in flight reached a verdict.
pub fn solve_round_finished() {
    ROUNDS_DONE.fetch_add(1, Ordering::Relaxed);
}

/// `n` constraint-table lookups resolved (`hit` iff compiled tables were
/// reused).
pub fn cache_lookups(hit: bool, n: u64) {
    let cell = if hit { &CACHE_HITS } else { &CACHE_MISSES };
    cell.fetch_add(n, Ordering::Relaxed);
}

/// A fuzz sweep of `total` cases is starting.
pub fn fuzz_started(task: &str, total: u64) {
    set_task(task);
    FUZZ_TOTAL.store(total, Ordering::Relaxed);
    FUZZ_DONE.store(0, Ordering::Relaxed);
    FUZZ_FAILURES.store(0, Ordering::Relaxed);
}

/// One fuzz case finished.
pub fn fuzz_case_done() {
    FUZZ_DONE.fetch_add(1, Ordering::Relaxed);
}

/// `n` oracle failures were recorded.
pub fn fuzz_failures_add(n: u64) {
    FUZZ_FAILURES.fetch_add(n, Ordering::Relaxed);
}

/// Zeroes the whole registry (a new CLI invocation starts clean).
pub fn reset() {
    for cell in [
        &NODES,
        &ROUND,
        &ROUNDS_DONE,
        &ROUND_BUDGET,
        &NODES_AT_ROUND_START,
        &CACHE_HITS,
        &CACHE_MISSES,
        &FUZZ_TOTAL,
        &FUZZ_DONE,
        &FUZZ_FAILURES,
    ] {
        cell.store(0, Ordering::Relaxed);
    }
    set_task("");
    window()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// A point-in-time copy of the registry plus derived rate/ETA.
#[derive(Clone, Debug)]
pub struct ProgressSnapshot {
    /// Node budget left in the round in flight.
    pub budget_remaining: u64,
    /// Constraint-cache hit rate in `[0, 1]` (0 before any lookup).
    pub cache_hit_rate: f64,
    /// Estimated seconds to finish the round budget or fuzz sweep
    /// (`None` when no rate or no bounded work is live).
    pub eta_secs: Option<f64>,
    /// Fuzz cases finished.
    pub fuzz_cases: u64,
    /// Fuzz cases planned (0 outside a fuzz sweep).
    pub fuzz_cases_total: u64,
    /// Fuzz oracle failures so far.
    pub fuzz_failures: u64,
    /// Search nodes expanded since the registry was reset.
    pub nodes: u64,
    /// Sliding-window throughput (nodes + fuzz cases per second).
    pub per_sec: f64,
    /// The solve round (`b`) in flight.
    pub round: u64,
    /// Rounds decided so far.
    pub rounds_done: u64,
    /// The task label.
    pub task: String,
}

impl ToJson for ProgressSnapshot {
    /// Keys are emitted in sorted order — the committed `/progress`
    /// schema (see `tests/golden/progress_keys.txt`).
    fn to_json(&self) -> Json {
        Json::obj([
            ("budget_remaining", Json::Num(self.budget_remaining as f64)),
            ("cache_hit_rate", Json::Num(self.cache_hit_rate)),
            ("eta_secs", self.eta_secs.map_or(Json::Null, Json::Num)),
            ("fuzz_cases", Json::Num(self.fuzz_cases as f64)),
            ("fuzz_cases_total", Json::Num(self.fuzz_cases_total as f64)),
            ("fuzz_failures", Json::Num(self.fuzz_failures as f64)),
            ("nodes", Json::Num(self.nodes as f64)),
            ("per_sec", Json::Num(self.per_sec)),
            ("round", Json::Num(self.round as f64)),
            ("rounds_done", Json::Num(self.rounds_done as f64)),
            ("task", Json::Str(self.task.clone())),
        ])
    }
}

/// How far back the rate window looks.
const WINDOW_SPAN: Duration = Duration::from_secs(10);

/// Copies the registry and updates the sliding-window rate estimate.
pub fn snapshot() -> ProgressSnapshot {
    let nodes = NODES.load(Ordering::Relaxed);
    let fuzz_done = FUZZ_DONE.load(Ordering::Relaxed);
    let fuzz_total = FUZZ_TOTAL.load(Ordering::Relaxed);
    let budget = ROUND_BUDGET.load(Ordering::Relaxed);
    let round_nodes = nodes.saturating_sub(NODES_AT_ROUND_START.load(Ordering::Relaxed));
    let budget_remaining = budget.saturating_sub(round_nodes);
    let hits = CACHE_HITS.load(Ordering::Relaxed);
    let lookups = hits + CACHE_MISSES.load(Ordering::Relaxed);
    let cache_hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    // advance the rate window
    let now = Instant::now();
    let done = nodes + fuzz_done;
    let per_sec = {
        let mut w = window().lock().unwrap_or_else(PoisonError::into_inner);
        while let Some(&(t, _)) = w.front() {
            if now.duration_since(t) > WINDOW_SPAN && w.len() > 1 {
                w.pop_front();
            } else {
                break;
            }
        }
        let rate = match w.front() {
            Some(&(t0, d0)) if now > t0 && done >= d0 => {
                (done - d0) as f64 / now.duration_since(t0).as_secs_f64()
            }
            _ => 0.0,
        };
        w.push_back((now, done));
        rate
    };
    let remaining = if fuzz_total > 0 {
        fuzz_total.saturating_sub(fuzz_done)
    } else if budget > 0 && budget != u64::MAX {
        budget_remaining
    } else {
        0
    };
    let eta_secs = (per_sec > 0.0 && remaining > 0).then(|| remaining as f64 / per_sec);
    ProgressSnapshot {
        budget_remaining,
        cache_hit_rate,
        eta_secs,
        fuzz_cases: fuzz_done,
        fuzz_cases_total: fuzz_total,
        fuzz_failures: FUZZ_FAILURES.load(Ordering::Relaxed),
        nodes,
        per_sec,
        round: ROUND.load(Ordering::Relaxed),
        rounds_done: ROUNDS_DONE.load(Ordering::Relaxed),
        task: task_label()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone(),
    }
}

/// Formats a snapshot as the one-line stderr report.
pub fn render_line(snap: &ProgressSnapshot) -> String {
    let mut out = String::from("progress:");
    if !snap.task.is_empty() {
        out.push(' ');
        out.push_str(&snap.task);
    }
    if snap.fuzz_cases_total > 0 {
        out.push_str(&format!(
            " cases {}/{} failures {}",
            group_digits(snap.fuzz_cases),
            group_digits(snap.fuzz_cases_total),
            snap.fuzz_failures
        ));
    } else {
        out.push_str(&format!(
            " b={} done={} nodes={}",
            snap.round,
            snap.rounds_done,
            group_digits(snap.nodes)
        ));
        out.push_str(&format!(
            " budget_left={}",
            group_digits(snap.budget_remaining)
        ));
    }
    out.push_str(&format!(" rate={}/s", group_digits(snap.per_sec as u64)));
    if let Some(eta) = snap.eta_secs {
        out.push_str(&format!(" eta={}s", eta.ceil() as u64));
    }
    out
}

/// A background thread printing [`render_line`] to stderr periodically;
/// stops (and joins) on drop.
pub struct Ticker {
    stop: std::sync::Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Ticker {
    /// Starts a ticker emitting one progress line per `interval`.
    pub fn start(interval: Duration) -> Ticker {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            // sleep in short slices so drop() never waits a full interval
            let slice = Duration::from_millis(25).min(interval);
            let mut slept = Duration::ZERO;
            while slept < interval {
                if stop2.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(slice);
                slept += slice;
            }
            eprintln!("{}", render_line(&snapshot()));
        });
        Ticker {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    // The registry is process-global, so all stateful assertions live in
    // this single test (obs unit tests run concurrently, but only this
    // one touches the progress registry).
    #[test]
    fn registry_snapshot_and_rendering() {
        reset();
        solve_round_started("kset:2:2", 2, 1000);
        add_nodes(40);
        cache_lookups(true, 2);
        cache_lookups(false, 1);
        let snap = snapshot();
        assert_eq!(snap.task, "kset:2:2");
        assert_eq!(snap.round, 2);
        assert_eq!(snap.nodes, 40);
        assert_eq!(snap.budget_remaining, 960);
        assert!((snap.cache_hit_rate - 2.0 / 3.0).abs() < 1e-9);
        solve_round_finished();
        assert_eq!(snapshot().rounds_done, 1);

        // rate window: a second snapshot after more work sees a positive
        // rate and an ETA for the remaining budget
        add_nodes(100);
        std::thread::sleep(Duration::from_millis(20));
        let snap = snapshot();
        assert!(snap.per_sec > 0.0, "rate should be positive: {snap:?}");
        assert!(snap.eta_secs.is_some());

        let line = render_line(&snap);
        assert!(line.contains("kset:2:2"), "{line}");
        assert!(line.contains("b=2"), "{line}");
        assert!(line.contains("budget_left="), "{line}");
        assert!(line.contains("rate="), "{line}");

        // fuzz phase takes over the line and the ETA target
        fuzz_started("fuzz iis", 200);
        for _ in 0..50 {
            fuzz_case_done();
        }
        fuzz_failures_add(2);
        let snap = snapshot();
        assert_eq!((snap.fuzz_cases, snap.fuzz_cases_total), (50, 200));
        assert_eq!(snap.fuzz_failures, 2);
        let line = render_line(&snap);
        assert!(line.contains("cases 50/200"), "{line}");
        assert!(line.contains("failures 2"), "{line}");

        // the JSON wire format has sorted keys (the committed schema)
        let json = snapshot().to_json();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "progress JSON keys must be sorted");
        let golden = include_str!("../tests/golden/progress_keys.txt");
        let golden_keys: Vec<&str> = golden.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(keys, golden_keys, "committed /progress schema drifted");
        reset();
    }

    #[test]
    fn ticker_starts_and_stops_cleanly() {
        let t = Ticker::start(Duration::from_secs(3600));
        drop(t); // must not hang waiting for the interval
    }
}
