//! `bench_delta <baseline.json> <current.json>` — compare two
//! `BENCH_*.json` files produced by the in-tree harness and print the
//! per-case `solve.nodes` rate (nodes/sec) delta, the speed metric the
//! perf trajectory tracks (CI runs this against the committed baseline).
//!
//! For `warm/` cases (the `e6_serve` record-replay path, which has no
//! search nodes to rate) the gate is wall-clock instead: a warm case whose
//! `mean_ns` regresses more than [`WARM_REGRESSION_LIMIT`] over the
//! baseline fails the run — the revalidation fast path is a load-bearing
//! latency claim, not just a nice-to-have.
//!
//! Both files' `available_parallelism` header values are printed, and the
//! comparison is labelled **cross-host** when they differ or the baseline
//! predates the field: the rates then compare different machines, not
//! different code. The label is a report only; no gate depends on it.
//!
//! Exits non-zero if either file is missing or malformed, so CI fails loud
//! instead of silently skipping the comparison; a missing *case* in either
//! file is only reported, because case sets legitimately evolve.

use iis_obs::Json;
use std::process::ExitCode;

/// Maximum tolerated `mean_ns` growth on a `warm/` case before the delta
/// gate fails (1.15 = +15%, enough headroom for runner noise at the quick
/// sample sizes CI uses).
const WARM_REGRESSION_LIMIT: f64 = 1.15;

/// A parsed report: the host's `available_parallelism` (absent from reports
/// written before the harness recorded it) and every case as
/// `(id, solve.nodes rate, mean_ns)`; the rate is absent for cases that
/// attribute no search nodes (e.g. warm replays).
struct Report {
    parallelism: Option<f64>,
    cases: Vec<(String, Option<f64>, f64)>,
}

fn read(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let cases = json
        .get("cases")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `cases` array"))?;
    let mut out = Vec::new();
    for case in cases {
        let id = case
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: case without `id`"))?;
        let mean_ns = case
            .get("mean_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: case {id} without `mean_ns`"))?;
        let rate = case
            .get("rates_per_sec")
            .and_then(|r| r.get("solve.nodes"))
            .and_then(Json::as_f64);
        out.push((id.to_string(), rate, mean_ns));
    }
    Ok(Report {
        parallelism: json.get("available_parallelism").and_then(Json::as_f64),
        cases: out,
    })
}

fn run(baseline_path: &str, current_path: &str) -> Result<(), String> {
    let Report {
        parallelism: base_host,
        cases: baseline,
    } = read(baseline_path)?;
    let Report {
        parallelism: host,
        cases: current,
    } = read(current_path)?;
    let shown = |p: Option<f64>| p.map_or("unrecorded".to_string(), |n| format!("{n}"));
    println!(
        "available_parallelism: baseline {}, current {}",
        shown(base_host),
        shown(host)
    );
    let cross_host = base_host.is_none() || base_host != host;
    let mut regressions = Vec::new();
    println!(
        "deltas vs baseline ({baseline_path}){}:",
        if cross_host { ", cross-host" } else { "" }
    );
    for (id, rate, mean_ns) in &current {
        let Some((_, base_rate, base_mean)) = baseline.iter().find(|(b, _, _)| b == id) else {
            println!("  {id}: no baseline");
            continue;
        };
        match (rate, base_rate) {
            (Some(now), Some(before)) if *before > 0.0 => {
                println!(
                    "  {id}: {now:.0} nodes/sec vs {before:.0} ({:+.1}%, {:.2}x)",
                    (now / before - 1.0) * 100.0,
                    now / before
                );
            }
            _ => {
                let ratio = mean_ns / base_mean;
                println!(
                    "  {id}: {mean_ns:.0} ns vs {base_mean:.0} ({:+.1}%, {:.2}x)",
                    (ratio - 1.0) * 100.0,
                    ratio
                );
                if id.contains("/warm/") && ratio > WARM_REGRESSION_LIMIT {
                    regressions.push(format!(
                        "{id}: mean_ns {mean_ns:.0} vs {base_mean:.0} \
                         ({:.2}x > {WARM_REGRESSION_LIMIT}x limit)",
                        ratio
                    ));
                }
            }
        }
    }
    for (id, _, _) in &baseline {
        if !current.iter().any(|(c, _, _)| c == id) {
            println!("  {id}: in baseline only");
        }
    }
    if !regressions.is_empty() {
        return Err(format!(
            "warm-case regression(s) beyond {WARM_REGRESSION_LIMIT}x:\n  {}",
            regressions.join("\n  ")
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline, current] = args.as_slice() else {
        eprintln!("usage: bench_delta <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    };
    match run(baseline, current) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_delta: {e}");
            ExitCode::FAILURE
        }
    }
}
