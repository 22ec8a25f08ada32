//! A zero-dependency benchmark harness with obs counter attribution.
//!
//! Usage mirrors the usual group/case shape:
//!
//! ```no_run
//! use iis_bench::harness::Bench;
//!
//! let mut b = Bench::from_env("example");
//! let mut g = b.group("adds");
//! g.bench_function("u64", || {
//!     std::hint::black_box(2u64 + 2);
//! });
//! drop(g);
//! b.finish();
//! ```
//!
//! Each case runs a calibration pass, picks a batch size so one sample
//! takes ≳1 ms, then times `samples` batches. The global `iis-obs` counter
//! registry is snapshotted around the timed section, so the report carries
//! counters-per-iteration and counters-per-second alongside wall-clock.
//! The report header records the host's `available_parallelism`, so a
//! comparison can tell runs from different hosts apart.

use iis_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One measured case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// `group/id` label.
    pub id: String,
    /// Total timed iterations across all samples.
    pub iters: u64,
    /// Mean wall-clock per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Median of the per-sample means, in nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time, in nanoseconds.
    pub min_ns: f64,
    /// Counter deltas attributed to the timed section, per iteration.
    pub counters_per_iter: BTreeMap<String, f64>,
    /// Counter deltas divided by timed wall-clock: work done per second.
    pub rates_per_sec: BTreeMap<String, f64>,
}

/// A named collection of cases, finalized into `BENCH_<name>.json`.
pub struct Bench {
    name: String,
    samples: usize,
    cases: Vec<CaseReport>,
}

impl Bench {
    /// Creates a harness named `name`, reading `--quick` from the process
    /// arguments (fewer samples), and enables the obs recorder so counter
    /// deltas are attributable.
    pub fn from_env(name: &str) -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        iis_obs::set_enabled(true);
        Bench {
            name: name.to_string(),
            samples: if quick { 3 } else { 10 },
            cases: Vec::new(),
        }
    }

    /// Opens a benchmark group; cases register as `group/id`.
    pub fn group(&mut self, group: &str) -> Group<'_> {
        Group {
            bench: self,
            group: group.to_string(),
            samples: None,
        }
    }

    /// Writes `BENCH_<name>.json` at the workspace root and prints a
    /// one-line-per-case summary to stderr.
    pub fn finish(self) {
        eprintln!("\n[{}] {} cases:", self.name, self.cases.len());
        for c in &self.cases {
            let mut rates = String::new();
            for (k, v) in &c.rates_per_sec {
                rates.push_str(&format!("  {k}={:.3e}/s", v));
            }
            eprintln!(
                "  {:<44} median {:>12}  (x{}){rates}",
                c.id,
                fmt_ns(c.median_ns),
                c.iters
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.name));
        let json = self.to_json();
        if let Err(e) = std::fs::write(&path, json.to_string_pretty()) {
            eprintln!("  (could not write {}: {e})", path.display());
        } else {
            eprintln!("  report: {}", path.display());
        }
    }

    fn to_json(&self) -> Json {
        let cases: Vec<Json> = self
            .cases
            .iter()
            .map(|c| {
                let nums = |m: &BTreeMap<String, f64>| {
                    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
                };
                Json::Obj(vec![
                    ("id".into(), Json::Str(c.id.clone())),
                    ("iters".into(), Json::Num(c.iters as f64)),
                    ("mean_ns".into(), Json::Num(c.mean_ns)),
                    ("median_ns".into(), Json::Num(c.median_ns)),
                    ("min_ns".into(), Json::Num(c.min_ns)),
                    ("counters_per_iter".into(), nums(&c.counters_per_iter)),
                    ("rates_per_sec".into(), nums(&c.rates_per_sec)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("bench".into(), Json::Str(self.name.clone())),
            (
                "available_parallelism".into(),
                Json::Num(available_parallelism() as f64),
            ),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("cases".into(), Json::Arr(cases)),
        ])
    }
}

/// A group of cases sharing a label prefix and sample count.
pub struct Group<'a> {
    bench: &'a mut Bench,
    group: String,
    samples: Option<usize>,
}

impl Group<'_> {
    /// Overrides the number of samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n.max(2));
        self
    }

    /// Times `f`, attributing obs counter deltas to the timed section.
    pub fn bench_function(&mut self, id: &str, mut f: impl FnMut()) {
        self.run(id, |reps| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_nanos() as u64
        });
    }

    /// Times `f(setup())`, excluding `setup` from the measurement.
    pub fn bench_batched<T>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> T,
        mut f: impl FnMut(T),
    ) {
        self.run(id, |reps| {
            let inputs: Vec<T> = (0..reps).map(|_| setup()).collect();
            let start = Instant::now();
            for x in inputs {
                f(x);
            }
            start.elapsed().as_nanos() as u64
        });
    }

    /// Shared driver: `sample(reps)` returns the wall-clock nanoseconds of
    /// `reps` back-to-back iterations.
    fn run(&mut self, id: &str, mut sample: impl FnMut(u64) -> u64) {
        let samples = self.samples.unwrap_or(self.bench.samples);
        // calibration: batch sub-millisecond operations so one sample is
        // long enough for the clock to resolve
        let calib_ns = sample(1).max(1);
        let reps = (1_000_000 / calib_ns).clamp(1, 100_000);
        let before = iis_obs::snapshot();
        let t0 = Instant::now();
        let mut per_iter: Vec<f64> = (0..samples)
            .map(|_| sample(reps) as f64 / reps as f64)
            .collect();
        let timed_ns = t0.elapsed().as_nanos().max(1) as f64;
        let delta = iis_obs::snapshot().delta_since(&before);
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let iters = reps * samples as u64;
        let mut counters_per_iter = BTreeMap::new();
        let mut rates_per_sec = BTreeMap::new();
        for (k, v) in &delta.counters {
            if *v > 0 {
                counters_per_iter.insert(k.clone(), *v as f64 / iters as f64);
                rates_per_sec.insert(k.clone(), *v as f64 / (timed_ns / 1e9));
            }
        }
        self.bench.cases.push(CaseReport {
            id: format!("{}/{id}", self.group),
            iters,
            mean_ns: per_iter.iter().sum::<f64>() / samples as f64,
            median_ns: per_iter[samples / 2],
            min_ns: per_iter[0],
            counters_per_iter,
            rates_per_sec,
        });
    }
}

/// The host's `std::thread::available_parallelism` (1 if unknown).
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_attributes_counters() {
        let mut b = Bench {
            name: "selftest".into(),
            samples: 3,
            cases: Vec::new(),
        };
        iis_obs::set_enabled(true);
        let mut g = b.group("g");
        g.bench_function("count", || {
            iis_obs::metrics::add("bench.selftest_units", 2);
        });
        drop(g);
        let c = &b.cases[0];
        assert_eq!(c.id, "g/count");
        assert!(c.iters >= 3);
        assert!(c.mean_ns > 0.0 && c.min_ns <= c.median_ns);
        let per_iter = c.counters_per_iter["bench.selftest_units"];
        assert!((per_iter - 2.0).abs() < 1e-9, "{per_iter}");
        assert!(c.rates_per_sec["bench.selftest_units"] > 0.0);
        // report JSON parses back
        let text = b.to_json().to_string_pretty();
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.get("bench").and_then(Json::as_str), Some("selftest"));
        assert_eq!(
            j.get("available_parallelism").and_then(Json::as_f64),
            Some(available_parallelism() as f64)
        );
    }

    #[test]
    fn batched_excludes_setup() {
        let mut b = Bench {
            name: "selftest2".into(),
            samples: 2,
            cases: Vec::new(),
        };
        let mut g = b.group("g");
        g.sample_size(2).bench_batched(
            "consume",
            || vec![1u8; 16],
            |v| {
                std::hint::black_box(v.len());
            },
        );
        drop(g);
        assert_eq!(b.cases.len(), 1);
    }
}
