//! Span profiling must be a pure observer (ISSUE 6 tentpole): enabling it
//! changes neither the witness nor the exact `solve.nodes` count at any
//! thread count, and the samples it collects fold into a span tree at
//! least two levels deep (round → compile/search/split, and under a
//! parallel round, round → subtree → search).
//!
//! Lives in its own integration-test binary (and as a single test) so the
//! exact node-count deltas read from the process-global metric registry
//! see no concurrent unrelated searches.

use iis_core::{solve_at_opts, BoundedOutcome, DecisionMap, SolveOptions};
use iis_tasks::library::{approximate_agreement, k_set_consensus};

fn nodes_of(run: impl FnOnce()) -> u64 {
    let before = iis_obs::snapshot();
    run();
    iis_obs::snapshot()
        .delta_since(&before)
        .counters
        .get("solve.nodes")
        .copied()
        .unwrap_or(0)
}

fn witnesses_identical(a: &DecisionMap, b: &DecisionMap) -> bool {
    a.rounds() == b.rounds() && a.map().pairs() == b.map().pairs()
}

#[test]
fn profiling_is_invisible_to_the_search() {
    iis_obs::set_enabled(true);
    for jobs in [1usize, 2, 4, 8] {
        // a solvable instance whose witness lives at b = 2: profiling
        // off vs on must agree on the witness and the node count
        let task = approximate_agreement(1, 9);
        let opts = SolveOptions::new().jobs(jobs);
        iis_obs::profile::set_enabled(false);
        let mut witness_off = None;
        let nodes_off = nodes_of(|| {
            witness_off = match solve_at_opts(&task, 2, &opts) {
                BoundedOutcome::Solvable(w) => Some(w),
                other => panic!("jobs={jobs}: expected Solvable, got {other:?}"),
            };
        });
        iis_obs::profile::reset();
        iis_obs::profile::set_enabled(true);
        let mut witness_on = None;
        let nodes_on = nodes_of(|| {
            witness_on = match solve_at_opts(&task, 2, &opts) {
                BoundedOutcome::Solvable(w) => Some(w),
                other => panic!("jobs={jobs}: expected Solvable, got {other:?}"),
            };
        });
        iis_obs::profile::set_enabled(false);
        assert_eq!(
            nodes_off, nodes_on,
            "jobs={jobs}: profiling must not change node accounting"
        );
        assert!(
            witnesses_identical(&witness_off.unwrap(), &witness_on.unwrap()),
            "jobs={jobs}: profiling must not change the witness"
        );

        // the samples collected above fold into a span tree at least
        // two levels deep, rooted at a round frame
        let collapsed = iis_obs::profile::to_collapsed();
        let folded = iis_obs::profile::parse_collapsed(&collapsed).unwrap();
        assert!(
            folded.iter().any(|(stack, _)| stack.len() >= 2),
            "jobs={jobs}: expected nested spans in:\n{collapsed}"
        );
        assert!(
            folded
                .iter()
                .any(|(stack, _)| stack[0].starts_with("round:")),
            "jobs={jobs}: expected round roots in:\n{collapsed}"
        );
        if jobs > 1 {
            assert!(
                folded
                    .iter()
                    .any(|(stack, _)| stack.iter().any(|f| f.starts_with("subtree:"))),
                "jobs={jobs}: expected subtree frames in:\n{collapsed}"
            );
        }

        // an unsolvable instance: the refutation node count is equally
        // undisturbed
        let task = k_set_consensus(2, 2);
        iis_obs::profile::set_enabled(false);
        let refute_off = nodes_of(|| {
            assert!(matches!(
                solve_at_opts(&task, 1, &opts),
                BoundedOutcome::Unsolvable
            ));
        });
        iis_obs::profile::set_enabled(true);
        let refute_on = nodes_of(|| {
            assert!(matches!(
                solve_at_opts(&task, 1, &opts),
                BoundedOutcome::Unsolvable
            ));
        });
        iis_obs::profile::set_enabled(false);
        assert_eq!(
            refute_off, refute_on,
            "jobs={jobs}: profiling must not change refutation accounting"
        );
    }
}
