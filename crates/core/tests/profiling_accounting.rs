//! Span profiling must be a pure observer: enabling it changes neither
//! the witness nor the exact `solve.nodes` count, and the samples it
//! collects fold into a span tree of two levels, round → compile | search.
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
    // a solvable instance whose witness lives at b = 2: profiling off vs
    // on must agree on the witness and the node count
    let task = approximate_agreement(1, 9);
    let opts = SolveOptions::new();
    iis_obs::profile::set_enabled(false);
    let mut witness_off = None;
    let nodes_off = nodes_of(|| {
        witness_off = match solve_at_opts(&task, 2, &opts) {
            BoundedOutcome::Solvable(w) => Some(w),
            other => panic!("expected Solvable, got {other:?}"),
        };
    });
    iis_obs::profile::reset();
    iis_obs::profile::set_enabled(true);
    let mut witness_on = None;
    let nodes_on = nodes_of(|| {
        witness_on = match solve_at_opts(&task, 2, &opts) {
            BoundedOutcome::Solvable(w) => Some(w),
            other => panic!("expected Solvable, got {other:?}"),
        };
    });
    iis_obs::profile::set_enabled(false);
    assert_eq!(
        nodes_off, nodes_on,
        "profiling must not change node accounting"
    );
    assert!(
        witnesses_identical(&witness_off.unwrap(), &witness_on.unwrap()),
        "profiling must not change the witness"
    );

    // the samples collected above fold into a round frame with its
    // compile and search phases under it, and the round's sample carries
    // every node the search charged
    let collapsed = iis_obs::profile::to_collapsed();
    let folded = iis_obs::profile::parse_collapsed(&collapsed).unwrap();
    let mut stacks: Vec<String> = folded.iter().map(|(stack, _)| stack.join(";")).collect();
    stacks.sort();
    assert_eq!(
        stacks,
        ["round:2", "round:2;compile", "round:2;search"],
        "{collapsed}"
    );
    assert_eq!(iis_obs::profile::fold()["round:2"].1, nodes_on);

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
        "profiling must not change refutation accounting"
    );
}
