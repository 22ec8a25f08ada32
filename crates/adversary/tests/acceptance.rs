//! The ISSUE acceptance criteria for the adversary harness:
//!
//! 1. the exhaustive sweep (n = 3, b ≤ 2 — every ordered partition per
//!    round × every crash assignment) passes all oracles on the IIS layer;
//! 2. a deliberately mutated IS memory (test-only fault dropping
//!    self-inclusion) is caught by the fuzzer and shrunk to a ≤ 2-round
//!    counterexample;
//! 3. the same `(seed, case_index)` reproduces the identical schedule,
//!    fault plan, and verdict on any thread.

use iis_adversary::{fuzz, run_iis_case, Adversary, FuzzConfig, IisTrace, Layer, RandomIis};
use iis_obs::{Json, ToJson};
use iis_tasks::library::one_shot_immediate_snapshot_task;

#[test]
fn exhaustive_sweep_passes_all_oracles() {
    // the whole space: 13 partitions of 3 pids per round, every fault
    // assignment (alive / clean@r / inside@r per pid)
    for (b, expect) in [(1usize, 13 * 27), (2, 169 * 125)] {
        let mut cfg = FuzzConfig::new(Layer::Iis);
        cfg.n = 3;
        cfg.rounds = b;
        cfg.exhaustive = true;
        let out = fuzz(&cfg);
        assert_eq!(out.cases, expect, "b = {b} space size");
        assert!(
            out.ok(),
            "b = {b}: {} oracle failures, first: {}",
            out.failures.len(),
            out.failures[0]
                .failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

#[test]
fn exhaustive_sweep_passes_task_oracles_too() {
    // with a task attached the sweep additionally replays every case with
    // DecisionProtocol machines: wait-freedom (every survivor outputs
    // within the witness's round bound) and task validity (outputs allowed
    // by Δ of the participating set)
    let task = one_shot_immediate_snapshot_task(2);
    let mut cfg = FuzzConfig::new(Layer::Iis);
    cfg.n = 3;
    cfg.rounds = 1;
    cfg.exhaustive = true;
    cfg.task = Some(&task);
    let out = fuzz(&cfg);
    assert_eq!(out.cases, 13 * 27);
    assert!(out.ok(), "first failure: {:?}", out.failures.first());
}

/// The injected fault: drop self-inclusion in P0's earliest recorded view.
fn drop_self_inclusion(trace: &mut IisTrace) {
    for rt in &mut trace.rounds {
        if let Some(view) = &mut rt.views[0] {
            view.retain(|(q, _)| *q != 0);
            return;
        }
    }
}

#[test]
fn mutated_self_inclusion_is_caught_and_shrunk() {
    let mut cfg = FuzzConfig::new(Layer::Iis);
    cfg.n = 3;
    cfg.rounds = 3;
    cfg.cases = 30;
    cfg.seed = 99;
    cfg.max_crashes = 2;
    cfg.shrink = true;
    cfg.mutate = Some(&drop_self_inclusion);
    let out = fuzz(&cfg);
    assert!(!out.ok(), "the mutation must be caught");
    for failure in &out.failures {
        assert!(
            failure
                .failures
                .iter()
                .any(|f| f.to_string().contains("misses its own input")),
            "expected a self-inclusion verdict, got {:?}",
            failure.failures
        );
        assert!(failure.shrink_steps > 0, "shrinking must have run");
        // the report carries the shrunken replayable case; its schedule
        // must be a ≤ 2-round counterexample (1 round suffices here)
        let shrunk = failure.report.field("shrunk").expect("shrunk case");
        let rounds = shrunk
            .get("schedule")
            .and_then(Json::as_array)
            .expect("schedule array");
        assert!(
            rounds.len() <= 2,
            "case {} shrunk to {} rounds: {}",
            failure.case_index,
            rounds.len(),
            shrunk.to_string_pretty()
        );
        // and the shrunken plan has no crashes left — they are irrelevant
        // to the injected fault
        let plan = shrunk.get("plan").and_then(Json::as_array).unwrap();
        assert!(plan.is_empty(), "irrelevant crashes must be shrunk away");
    }
}

#[test]
fn seed_and_index_replay_identically_across_threads() {
    let make = || RandomIis {
        n: 3,
        b: 2,
        max_crashes: 2,
        seed: 2024,
    };
    let here: Vec<String> = (0..40)
        .map(|i| {
            let case = make().case(i);
            let verdict = run_iis_case(&case, None, None);
            format!("{} {:?}", case.to_json().to_string_pretty(), verdict)
        })
        .collect();
    // the same coordinates, evaluated on a different thread and in reverse
    // order, give byte-identical cases and verdicts
    let there: Vec<String> = std::thread::spawn(move || {
        let mut v: Vec<(usize, String)> = (0..40)
            .rev()
            .map(|i| {
                let case = make().case(i);
                let verdict = run_iis_case(&case, None, None);
                (
                    i,
                    format!("{} {:?}", case.to_json().to_string_pretty(), verdict),
                )
            })
            .collect();
        v.sort_by_key(|(i, _)| *i);
        v.into_iter().map(|(_, s)| s).collect()
    })
    .join()
    .expect("worker thread");
    assert_eq!(here, there);
    // and the full driver is deterministic end to end: one seed, run
    // twice, reports the same failures byte for byte
    let sweep = || {
        let mut cfg = FuzzConfig::new(Layer::Iis);
        cfg.seed = 2024;
        cfg.cases = 40;
        cfg.max_crashes = 2;
        cfg.shrink = true;
        cfg.mutate = Some(&drop_self_inclusion);
        fuzz(&cfg)
            .failures
            .iter()
            .map(|f| f.report.to_string_pretty())
            .collect::<Vec<_>>()
    };
    assert_eq!(sweep(), sweep());
}
