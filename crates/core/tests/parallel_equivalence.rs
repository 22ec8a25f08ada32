//! Sequential vs parallel search equivalence, and the kernel against its
//! reference oracles: for every task in the library, every round count we
//! can afford, and a sweep of thread counts, the parallel search must
//! return the same `BoundedOutcome` variant as the sequential one — and
//! when a witness exists, the *identical* witness (DESIGN.md §7: subtrees
//! are ordered in the sequential depth-first order and only subtrees after
//! the winner are cancelled, so the lowest-indexed solution is the
//! sequential solution) — and that witness must be the reference MAC
//! oracle's (`iis_core::reference`).

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

#[test]
fn parallel_agrees_with_sequential_across_library() {
    for (task, max_b) in library() {
        for b in 0..=max_b {
            let seq = solve_at_opts(&task, b, &SolveOptions::new());
            for jobs in [2usize, 3, 4, 8] {
                let par = solve_at_opts(&task, b, &SolveOptions::new().jobs(jobs));
                match (&seq, &par) {
                    (BoundedOutcome::Solvable(s), BoundedOutcome::Solvable(p)) => {
                        assert!(
                            witnesses_identical(s, p),
                            "{} b={b} jobs={jobs}: witness differs",
                            task.name()
                        );
                        validate_decision_map(
                            &task,
                            &sds_iterated(task.input(), p.rounds()),
                            p.map(),
                        )
                        .unwrap();
                    }
                    (BoundedOutcome::Unsolvable, BoundedOutcome::Unsolvable) => {}
                    (s, p) => panic!(
                        "{} b={b} jobs={jobs}: sequential {s:?} vs parallel {p:?}",
                        task.name()
                    ),
                }
            }
        }
    }
}

/// The compiled kernel vs the reference engine's two sequential oracles,
/// over the full task library at jobs 1/2/4/8: the kernel's witness must
/// be *bit-identical* to the reference MAC search's, and its verdict must
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
            for jobs in [1usize, 2, 4, 8] {
                let compiled = solve_at_opts(&task, b, &SolveOptions::new().jobs(jobs));
                match (&mac, &compiled) {
                    (Some(r), BoundedOutcome::Solvable(c)) => {
                        assert_eq!(
                            r.pairs(),
                            c.map().pairs(),
                            "{} b={b} jobs={jobs}: kernel witness differs",
                            task.name()
                        );
                        validate_decision_map(
                            &task,
                            &sds_iterated(task.input(), c.rounds()),
                            c.map(),
                        )
                        .unwrap();
                    }
                    (None, BoundedOutcome::Unsolvable) => {}
                    (r, c) => panic!(
                        "{} b={b} jobs={jobs}: reference {:?} vs compiled {c:?}",
                        task.name(),
                        r.as_ref().map(SimplicialMap::pairs)
                    ),
                }
            }
        }
    }
}

/// The sweep records are byte-identical at every thread count, and a
/// witness's tower is exactly the reference `SDS^b(I)` with its labels
/// forgotten.
#[test]
fn sweep_records_are_identical_across_jobs() {
    use iis_core::cache::report_to_json;

    for (task, max_b) in library() {
        let baseline = solve_up_to_opts(&task, max_b, &SolveOptions::new());
        let bytes = report_to_json(&baseline).to_string();
        if let Some(w) = baseline.witness() {
            let reference = sds_iterated(task.input(), w.rounds());
            assert_eq!(w.tower().agrees_with(&reference), Ok(()));
        }
        for jobs in [2usize, 4] {
            let opts = SolveOptions::new().jobs(jobs);
            assert_eq!(
                report_to_json(&solve_up_to_opts(&task, max_b, &opts)).to_string(),
                bytes,
                "{} jobs={jobs}",
                task.name()
            );
        }
    }
}

/// `jobs` far beyond any core count — even one whose split target, four
/// subtrees per job, overflows `usize` — is only a thread-count request:
/// the search returns the sequential witness.
#[test]
fn huge_jobs_returns_the_sequential_witness() {
    let task = approximate_agreement(1, 3);
    let BoundedOutcome::Solvable(seq) = solve_at_opts(&task, 1, &SolveOptions::new()) else {
        panic!("ε-agreement is solvable at b = 1");
    };
    let BoundedOutcome::Solvable(huge) =
        solve_at_opts(&task, 1, &SolveOptions::new().jobs(1 << 62))
    else {
        panic!("jobs must not change the verdict");
    };
    assert!(witnesses_identical(&seq, &huge));
}

#[test]
fn parallel_exhaustion_is_sound() {
    // under a budget too small to decide, every thread count must report
    // Exhausted (never a fabricated verdict)
    let task = k_set_consensus(2, 2);
    for jobs in [1usize, 2, 4] {
        let out = solve_at_opts(&task, 1, &SolveOptions::new().budget(5).jobs(jobs));
        assert!(
            matches!(out, BoundedOutcome::Exhausted),
            "jobs={jobs} must exhaust"
        );
    }
}

/// Span profiling is a pure observer (ISSUE 6): with profiling enabled the
/// search returns bit-identical witnesses at jobs 1/2/4/8. (The matching
/// exact node-count claim lives in `profiling_accounting.rs`, which owns
/// its process so counter deltas cannot race concurrent tests.)
#[test]
fn profiling_does_not_perturb_witnesses() {
    let task = approximate_agreement(1, 9);
    for jobs in [1usize, 2, 4, 8] {
        iis_obs::profile::set_enabled(false);
        let off = solve_at_opts(&task, 2, &SolveOptions::new().jobs(jobs));
        iis_obs::profile::set_enabled(true);
        let on = solve_at_opts(&task, 2, &SolveOptions::new().jobs(jobs));
        iis_obs::profile::set_enabled(false);
        match (&off, &on) {
            (BoundedOutcome::Solvable(a), BoundedOutcome::Solvable(b)) => {
                assert!(
                    witnesses_identical(a, b),
                    "jobs={jobs}: profiling changed the witness"
                );
                validate_decision_map(&task, &sds_iterated(task.input(), b.rounds()), b.map())
                    .unwrap();
            }
            (a, b) => panic!("jobs={jobs}: profiling off {a:?} vs on {b:?}"),
        }
    }
}

/// The arena revalidation path is invisible in the record bytes (ISSUE 8):
/// replaying a cached sweep — which rebuilds `SDS^b(I)` as a flat arena and
/// revalidates the stored map against CSR carrier slices — must serialize to
/// exactly the bytes the cold solve produced, at every thread count. This
/// extends the jobs bit-identity claims above to the warm `iis serve` path.
#[test]
fn warm_cache_replay_is_bit_identical_across_jobs() {
    use iis_core::cache::{report_to_json, solve_up_to_cached};
    use std::collections::HashMap;

    for (task, bs) in [
        (approximate_agreement(1, 9), 2usize),
        (consensus(1, &[0, 1]), 2),
        (k_set_consensus(2, 2), 1),
    ] {
        let cold_bytes = {
            let mut cache = HashMap::new();
            let cold = solve_up_to_cached(&task, bs, &SolveOptions::new(), &mut cache);
            assert!(!cold.hit);
            report_to_json(&cold.report).to_string()
        };
        for jobs in [1usize, 2, 4, 8] {
            let opts = SolveOptions::new().jobs(jobs);
            let mut cache = HashMap::new();
            let fresh = solve_up_to_cached(&task, bs, &opts, &mut cache);
            assert!(!fresh.hit);
            assert_eq!(
                report_to_json(&fresh.report).to_string(),
                cold_bytes,
                "{} jobs={jobs}: cold record differs",
                task.name()
            );
            let warm = solve_up_to_cached(&task, bs, &opts, &mut cache);
            assert!(warm.hit, "{} jobs={jobs}: expected a hit", task.name());
            assert_eq!(
                report_to_json(&warm.report).to_string(),
                cold_bytes,
                "{} jobs={jobs}: warm replay differs",
                task.name()
            );
            if let Some(w) = warm.report.witness() {
                validate_decision_map(&task, &sds_iterated(task.input(), w.rounds()), w.map())
                    .unwrap();
            }
        }
    }
}

#[test]
fn parallel_witness_survives_validation_on_deeper_rounds() {
    // a solvable instance whose witness lives at b = 2, found in parallel
    let task = approximate_agreement(1, 9);
    let out = solve_at_opts(&task, 2, &SolveOptions::new().jobs(4));
    let BoundedOutcome::Solvable(w) = out else {
        panic!("grid-9 ε-agreement is solvable at b = 2");
    };
    validate_decision_map(&task, &sds_iterated(task.input(), w.rounds()), w.map()).unwrap();
}
