//! The compiled kernel against its reference oracles: for every task in
//! the library and every round count we can afford, the kernel's verdict
//! must be the reference oracles' (`iis_core::reference`) and, when a
//! witness exists, the *identical* witness the reference MAC search
//! returns. Sweep records, cached replays and profiled runs must not
//! change a byte of it.

use iis_core::reference;
use iis_core::{
    solvability::validate_decision_map, solve_at_opts, solve_up_to_opts, BoundedOutcome,
    DecisionMap, SolveOptions,
};
use iis_tasks::library::{
    approximate_agreement, chromatic_simplex_agreement, consensus, k_set_consensus,
    one_shot_immediate_snapshot_task, renaming, trivial,
};
use iis_tasks::Task;
use iis_topology::sds_iterated;
use iis_topology::SimplicialMap;

/// The library sweep: `(task, max b we can afford exhaustively)`.
fn library() -> Vec<(Task, usize)> {
    vec![
        (trivial(2), 1),
        (consensus(1, &[0, 1]), 2),
        (consensus(2, &[0, 1]), 1),
        (k_set_consensus(2, 2), 1),
        (k_set_consensus(2, 3), 1),
        (k_set_consensus(1, 1), 2),
        (renaming(1, 3), 1),
        (approximate_agreement(1, 3), 2),
        (approximate_agreement(1, 9), 2),
        (one_shot_immediate_snapshot_task(1), 1),
        (one_shot_immediate_snapshot_task(2), 1),
        (
            chromatic_simplex_agreement(&iis_topology::sds_iterated(
                &iis_topology::Complex::standard_simplex(1),
                2,
            )),
            2,
        ),
    ]
}

fn witnesses_identical(a: &DecisionMap, b: &DecisionMap) -> bool {
    a.rounds() == b.rounds() && a.map().pairs() == b.map().pairs()
}

/// The compiled kernel vs the reference engine's two sequential oracles,
/// over the full task library: the kernel's witness must be
/// *bit-identical* to the reference MAC search's, and its verdict must
/// equal the plain backtracker's, which shares no propagation code with
/// either MAC search.
#[test]
fn compiled_kernel_matches_reference_engine_across_library() {
    for (task, max_b) in library() {
        for b in 0..=max_b {
            let mac = reference::solve_mac(&task, b, u64::MAX).expect("unbounded");
            let plain = reference::solve_plain(&task, b, u64::MAX).expect("unbounded");
            assert_eq!(
                mac.is_some(),
                plain.is_some(),
                "{} b={b}: the oracles disagree",
                task.name()
            );
            if let Some(p) = &plain {
                validate_decision_map(&task, &sds_iterated(task.input(), b), p).unwrap();
            }
            let compiled = solve_at_opts(&task, b, &SolveOptions::new());
            match (&mac, &compiled) {
                (Some(r), BoundedOutcome::Solvable(c)) => {
                    assert_eq!(
                        r.pairs(),
                        c.map().pairs(),
                        "{} b={b}: kernel witness differs",
                        task.name()
                    );
                    validate_decision_map(&task, &sds_iterated(task.input(), c.rounds()), c.map())
                        .unwrap();
                }
                (None, BoundedOutcome::Unsolvable) => {}
                (r, c) => panic!(
                    "{} b={b}: reference {:?} vs compiled {c:?}",
                    task.name(),
                    r.as_ref().map(SimplicialMap::pairs)
                ),
            }
        }
    }
}

/// A sweep's record is the same bytes every time it is solved, and a
/// witness's tower is exactly the reference `SDS^b(I)` with its labels
/// forgotten.
#[test]
fn sweep_records_repeat_and_witness_towers_are_the_reference() {
    use iis_core::cache::report_to_json;

    for (task, max_b) in library() {
        let first = solve_up_to_opts(&task, max_b, &SolveOptions::new());
        if let Some(w) = first.witness() {
            let reference = sds_iterated(task.input(), w.rounds());
            assert_eq!(w.tower().agrees_with(&reference), Ok(()));
        }
        let again = solve_up_to_opts(&task, max_b, &SolveOptions::new());
        assert_eq!(
            report_to_json(&again).to_string(),
            report_to_json(&first).to_string(),
            "{}",
            task.name()
        );
    }
}

/// Span profiling is a pure observer: with profiling enabled the search
/// returns the bit-identical witness. (The matching exact node-count claim
/// lives in `profiling_accounting.rs`, which owns its process so counter
/// deltas cannot race concurrent tests.)
#[test]
fn profiling_does_not_perturb_witnesses() {
    let task = approximate_agreement(1, 9);
    iis_obs::profile::set_enabled(false);
    let off = solve_at_opts(&task, 2, &SolveOptions::new());
    iis_obs::profile::set_enabled(true);
    let on = solve_at_opts(&task, 2, &SolveOptions::new());
    iis_obs::profile::set_enabled(false);
    match (&off, &on) {
        (BoundedOutcome::Solvable(a), BoundedOutcome::Solvable(b)) => {
            assert!(witnesses_identical(a, b), "profiling changed the witness");
            validate_decision_map(&task, &sds_iterated(task.input(), b.rounds()), b.map()).unwrap();
        }
        (a, b) => panic!("profiling off {a:?} vs on {b:?}"),
    }
}

/// The arena revalidation path is invisible in the record bytes: replaying
/// a cached sweep — which rebuilds `SDS^b(I)` as a flat arena and
/// revalidates the stored map against CSR carrier slices — must serialize
/// to exactly the bytes the cold solve produced (the warm `iis serve`
/// path).
#[test]
fn warm_cache_replay_is_bit_identical() {
    use iis_core::cache::{report_to_json, solve_up_to_cached};
    use std::collections::HashMap;

    for (task, bs) in [
        (approximate_agreement(1, 9), 2usize),
        (consensus(1, &[0, 1]), 2),
        (k_set_consensus(2, 2), 1),
    ] {
        let opts = SolveOptions::new();
        let mut cache = HashMap::new();
        let cold = solve_up_to_cached(&task, bs, &opts, &mut cache);
        assert!(!cold.hit);
        let cold_bytes = report_to_json(&cold.report).to_string();
        let warm = solve_up_to_cached(&task, bs, &opts, &mut cache);
        assert!(warm.hit, "{}: expected a hit", task.name());
        assert_eq!(
            report_to_json(&warm.report).to_string(),
            cold_bytes,
            "{}: warm replay differs",
            task.name()
        );
        if let Some(w) = warm.report.witness() {
            validate_decision_map(&task, &sds_iterated(task.input(), w.rounds()), w.map()).unwrap();
        }
    }
}

#[test]
fn witness_survives_validation_on_deeper_rounds() {
    // a solvable instance whose witness lives at b = 2
    let task = approximate_agreement(1, 9);
    let out = solve_at_opts(&task, 2, &SolveOptions::new());
    let BoundedOutcome::Solvable(w) = out else {
        panic!("grid-9 ε-agreement is solvable at b = 2");
    };
    validate_decision_map(&task, &sds_iterated(task.input(), w.rounds()), w.map()).unwrap();
}
