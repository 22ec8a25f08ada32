//! The fuzz driver: picks an adversary for the requested layer, runs the
//! sweep, applies the oracle battery, shrinks failures, and emits
//! replayable JSON reports.
//!
//! The driver is strictly sequential and every case is derived from
//! `(seed, case_index)` alone, so a verdict is independent of the thread
//! it runs on and of the sweep's length — replaying one index reproduces
//! the identical schedule, fault plan, and verdict.
//!
//! Counters: `fuzz.cases`, `fuzz.crashes_injected`, `fuzz.oracle_failures`
//! and `fuzz.shrink_steps`.

use crate::adversary::{
    Adversary, ExhaustiveIis, RandomAtomic, RandomBg, RandomEmulation, RandomIis,
};
use crate::atomic::{atomic_candidates, run_atomic_case, AtomicCase};
use crate::bg::{bg_candidates, run_bg_case, BgCase};
use crate::emulation::{emulation_candidates, run_emulation_case, EmulationCase};
use crate::gateway::{gateway_candidates, gateway_case_at, run_gateway_case, GatewayCase};
use crate::iis::{iis_candidates, run_iis_case, IisCase, IisTrace, TaskContext};
use crate::oracle::OracleFailure;
use crate::shrink::shrink_case;
use crate::store::{run_store_case, store_candidates, store_case_at, StoreCase};
use iis_core::solvability::{solve_up_to, WitnessIndex};
use iis_obs::{Json, ToJson};
use iis_tasks::Task;
use std::sync::Arc;

/// Which runtime layer a sweep drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `iis_sched::IisRunner` — raw iterated immediate snapshots.
    Iis,
    /// `iis_sched::AtomicRunner` — single-writer atomic snapshots.
    Atomic,
    /// `iis_core::emulation` — Figure 2 snapshot emulation on IIS.
    Emulation,
    /// `iis_core::bg` — the BG simulation with safe agreement.
    Bg,
    /// `iis_store::Store` over a fault-injecting I/O backend — durability
    /// and recovery invariants instead of schedule axioms.
    Store,
    /// `iis_cluster::Gateway` over a fault-injecting transport — routing
    /// soundness (never a wrong answer, only late or `503`) instead of
    /// schedule axioms.
    Gateway,
}

impl Layer {
    /// Parses a CLI layer name.
    pub fn parse(s: &str) -> Option<Layer> {
        match s {
            "iis" => Some(Layer::Iis),
            "atomic" => Some(Layer::Atomic),
            "emulation" => Some(Layer::Emulation),
            "bg" => Some(Layer::Bg),
            "store" => Some(Layer::Store),
            "gateway" => Some(Layer::Gateway),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Iis => "iis",
            Layer::Atomic => "atomic",
            Layer::Emulation => "emulation",
            Layer::Bg => "bg",
            Layer::Store => "store",
            Layer::Gateway => "gateway",
        }
    }
}

/// Sweep parameters. `n` and `rounds` size the cases; on the BG layer `n`
/// is both the simulated-process and simulator count and `rounds` the
/// simulated round count.
pub struct FuzzConfig<'a> {
    /// The layer to drive.
    pub layer: Layer,
    /// Sweep seed — with a case index, the full replay coordinate.
    pub seed: u64,
    /// Cases to run (ignored by exhaustive sweeps, which run the space).
    pub cases: usize,
    /// Processes per case.
    pub n: usize,
    /// Rounds (IIS layers) or snapshots-per-process (atomic/emulation/BG).
    pub rounds: usize,
    /// Crash budget per case.
    pub max_crashes: usize,
    /// Shrink failing cases to minimal counterexamples.
    pub shrink: bool,
    /// Enumerate the whole space instead of sampling (IIS layer, small
    /// `n`/`rounds` only).
    pub exhaustive: bool,
    /// Check task validity against this solvable task (IIS layer only).
    pub task: Option<&'a Task>,
    /// Test-only trace mutation, applied before the oracles (IIS layer
    /// only) — lets the suite prove the oracles catch injected faults.
    pub mutate: Option<&'a dyn Fn(&mut IisTrace)>,
}

impl<'a> FuzzConfig<'a> {
    /// A small random sweep on `layer` with one crash per case.
    pub fn new(layer: Layer) -> Self {
        FuzzConfig {
            layer,
            seed: 0,
            cases: 100,
            n: 3,
            rounds: 2,
            max_crashes: 1,
            shrink: false,
            exhaustive: false,
            task: None,
            mutate: None,
        }
    }
}

/// One failing case, with its replay coordinate and JSON report.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// The failing index — replay with the sweep seed.
    pub case_index: usize,
    /// The oracle verdicts.
    pub failures: Vec<OracleFailure>,
    /// Candidate executions spent shrinking (0 when shrinking is off).
    pub shrink_steps: usize,
    /// The replayable report: layer, seed, index, case, failures, and the
    /// shrunken case when available.
    pub report: Json,
}

/// The sweep outcome.
#[derive(Clone, Debug, Default)]
pub struct FuzzOutcome {
    /// Cases executed.
    pub cases: usize,
    /// Failing cases, in discovery order.
    pub failures: Vec<CaseFailure>,
}

impl FuzzOutcome {
    /// `true` iff every case passed every oracle.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn report_json<C: ToJson>(
    layer: Layer,
    seed: u64,
    index: usize,
    case: &C,
    failures: &[OracleFailure],
    shrunk: Option<&C>,
) -> Json {
    Json::obj([
        ("layer", Json::Str(layer.name().to_string())),
        ("seed", Json::Num(seed as f64)),
        ("case_index", Json::Num(index as f64)),
        ("case", case.to_json()),
        (
            "failures",
            Json::Arr(failures.iter().map(ToJson::to_json).collect()),
        ),
        ("shrunk", shrunk.map_or(Json::Null, ToJson::to_json)),
    ])
}

/// Generic sweep loop shared by all four layers.
#[allow(clippy::too_many_arguments)]
fn drive<C: Clone + ToJson>(
    layer: Layer,
    seed: u64,
    total: usize,
    case_at: impl Fn(usize) -> C,
    crashes_of: impl Fn(&C) -> usize,
    run: impl Fn(&C) -> Vec<OracleFailure>,
    candidates: impl Fn(&C) -> Vec<C>,
    shrink: bool,
) -> FuzzOutcome {
    let mut outcome = FuzzOutcome::default();
    iis_obs::progress::fuzz_started(&format!("fuzz {}", layer.name()), total as u64);
    for index in 0..total {
        let case = case_at(index);
        iis_obs::metrics::add("fuzz.cases", 1);
        iis_obs::metrics::add("fuzz.crashes_injected", crashes_of(&case) as u64);
        let failures = run(&case);
        outcome.cases += 1;
        iis_obs::progress::fuzz_case_done();
        if failures.is_empty() {
            continue;
        }
        iis_obs::metrics::add("fuzz.oracle_failures", failures.len() as u64);
        iis_obs::progress::fuzz_failures_add(failures.len() as u64);
        let (shrunk, shrink_steps) = if shrink {
            let (min, steps) = shrink_case(case.clone(), &candidates, |c| !run(c).is_empty());
            (Some(min), steps)
        } else {
            (None, 0)
        };
        let report = report_json(layer, seed, index, &case, &failures, shrunk.as_ref());
        outcome.failures.push(CaseFailure {
            case_index: index,
            failures,
            shrink_steps,
            report,
        });
    }
    outcome
}

/// Runs the sweep described by `cfg`.
///
/// # Panics
///
/// Panics if `cfg.task` is set but the task is not solvable within
/// `cfg.rounds` rounds (the wait-freedom oracle needs a round bound to
/// hold the run against) or its input facets do not cover `n` colors.
pub fn fuzz(cfg: &FuzzConfig<'_>) -> FuzzOutcome {
    match cfg.layer {
        Layer::Iis => {
            let witness = cfg.task.map(|task| {
                let report = solve_up_to(task, cfg.rounds);
                let map = report
                    .witness()
                    .unwrap_or_else(|| {
                        panic!("--task must be solvable within {} rounds", cfg.rounds)
                    })
                    .clone();
                (task, Arc::new(WitnessIndex::new(map)))
            });
            let run = |case: &IisCase| {
                let ctx = witness.as_ref().map(|(task, map)| {
                    TaskContext::for_case(task, map, case)
                        .expect("task input facets must cover all colors")
                });
                run_iis_case(case, ctx.as_ref(), cfg.mutate)
            };
            if cfg.exhaustive {
                let adv = ExhaustiveIis::new(cfg.n, cfg.rounds);
                let total = adv.len().expect("exhaustive spaces are finite");
                drive(
                    cfg.layer,
                    cfg.seed,
                    total,
                    |i| adv.case(i),
                    |c| c.plan.crashes(),
                    run,
                    iis_candidates,
                    cfg.shrink,
                )
            } else {
                let adv = RandomIis {
                    n: cfg.n,
                    b: cfg.rounds,
                    max_crashes: cfg.max_crashes,
                    seed: cfg.seed,
                };
                drive(
                    cfg.layer,
                    cfg.seed,
                    cfg.cases,
                    |i| adv.case(i),
                    |c| c.plan.crashes(),
                    run,
                    iis_candidates,
                    cfg.shrink,
                )
            }
        }
        Layer::Atomic => {
            let adv = RandomAtomic {
                n: cfg.n,
                k: cfg.rounds.max(1),
                max_crashes: cfg.max_crashes,
                seed: cfg.seed,
            };
            drive(
                cfg.layer,
                cfg.seed,
                cfg.cases,
                |i| adv.case(i),
                |c: &AtomicCase| c.plan.crashes(),
                run_atomic_case,
                atomic_candidates,
                cfg.shrink,
            )
        }
        Layer::Emulation => {
            let adv = RandomEmulation {
                n: cfg.n,
                k: cfg.rounds.max(1),
                b: 4 * cfg.rounds.max(1),
                max_crashes: cfg.max_crashes,
                seed: cfg.seed,
            };
            drive(
                cfg.layer,
                cfg.seed,
                cfg.cases,
                |i| adv.case(i),
                |c: &EmulationCase| c.iis.plan.crashes(),
                run_emulation_case,
                emulation_candidates,
                cfg.shrink,
            )
        }
        Layer::Bg => {
            let adv = RandomBg {
                n_sim: cfg.n,
                k: cfg.rounds.max(1),
                m: cfg.n,
                max_crashes: cfg.max_crashes,
                seed: cfg.seed,
            };
            drive(
                cfg.layer,
                cfg.seed,
                cfg.cases,
                |i| adv.case(i),
                |c: &BgCase| c.plan.crashes(),
                run_bg_case,
                bg_candidates,
                cfg.shrink,
            )
        }
        Layer::Store => {
            let seed = cfg.seed;
            drive(
                cfg.layer,
                cfg.seed,
                cfg.cases,
                |i| store_case_at(seed, i),
                |c: &StoreCase| usize::from(c.crash_at.is_some()),
                run_store_case,
                store_candidates,
                cfg.shrink,
            )
        }
        Layer::Gateway => {
            let seed = cfg.seed;
            drive(
                cfg.layer,
                cfg.seed,
                cfg.cases,
                |i| gateway_case_at(seed, i),
                |c: &GatewayCase| usize::from(c.fault_denom > 0),
                run_gateway_case,
                gateway_candidates,
                cfg.shrink,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweeps_pass_on_every_layer() {
        for layer in [
            Layer::Iis,
            Layer::Atomic,
            Layer::Emulation,
            Layer::Bg,
            Layer::Store,
            Layer::Gateway,
        ] {
            let mut cfg = FuzzConfig::new(layer);
            cfg.cases = 25;
            cfg.seed = 7;
            cfg.max_crashes = 2;
            let out = fuzz(&cfg);
            assert!(out.ok(), "{}: {:?}", layer.name(), out.failures);
            assert_eq!(out.cases, 25);
        }
    }

    #[test]
    fn layer_names_round_trip() {
        for layer in [
            Layer::Iis,
            Layer::Atomic,
            Layer::Emulation,
            Layer::Bg,
            Layer::Store,
            Layer::Gateway,
        ] {
            assert_eq!(Layer::parse(layer.name()), Some(layer));
        }
        assert_eq!(Layer::parse("nope"), None);
    }
}
