//! Budget accounting for `BoundedOutcome::Exhausted`: when the search runs
//! out of budget, the number of nodes charged to the `solve.nodes` counter
//! must equal the budget consumed — exactly, sequentially and in parallel.
//! Sequentially the compiled kernel also charges the *same* node count as
//! the reference MAC oracle (`iis_core::reference`) on the same instance.
//!
//! Lives in its own integration-test binary (and as a single test) so the
//! process-global metric registry sees no concurrent unrelated searches.

use iis_core::reference;
use iis_core::{solve_at_opts, BoundedOutcome, SolveOptions};
use iis_tasks::library::{
    approximate_agreement, consensus, k_set_consensus, one_shot_immediate_snapshot_task,
};

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

#[test]
fn exhausted_search_charges_exactly_the_budget() {
    iis_obs::set_enabled(true);

    // three-process ε-agreement (grid 3) at b = 2: solvable, and root
    // propagation leaves it undecided, so with an unbounded budget the
    // search charges more nodes than the budget below allows — the bounded
    // run stops because of the budget, not the search space
    let task = approximate_agreement(2, 3);
    const BUDGET: u64 = 100;
    let unbounded = nodes_of(|| {
        assert!(matches!(
            solve_at_opts(&task, 2, &SolveOptions::new()),
            BoundedOutcome::Solvable(_)
        ));
    });
    assert!(unbounded > BUDGET, "{unbounded} nodes");
    let charged = nodes_of(|| {
        let outcome = solve_at_opts(&task, 2, &SolveOptions::new().budget(BUDGET));
        assert!(matches!(outcome, BoundedOutcome::Exhausted));
    });
    assert_eq!(charged, BUDGET, "nodes charged must equal budget consumed");
    assert_eq!(
        iis_obs::snapshot()
            .gauges
            .get("solve.budget_remaining")
            .copied(),
        Some(0),
        "an exhausted search leaves no budget"
    );

    // a *parallel* exhausted search keeps the invariant too: the budget is
    // one shared atomic pool, a node is charged iff a decrement succeeds,
    // and cancelled workers stop charging — so the sum over all workers is
    // still exactly the budget, with no over- or under-count
    for jobs in [2usize, 4, 8] {
        const PAR_BUDGET: u64 = 17;
        // (3,2)-set consensus at b = 1: the Sperner obstruction is global,
        // so the search needs well over 17 nodes to refute
        let charged = nodes_of(|| {
            let outcome = solve_at_opts(
                &k_set_consensus(2, 2),
                1,
                &SolveOptions::new().budget(PAR_BUDGET).jobs(jobs),
            );
            assert!(
                matches!(outcome, BoundedOutcome::Exhausted),
                "17 nodes cannot refute (3,2)-set consensus at b = 1 (jobs {jobs})"
            );
        });
        assert_eq!(
            charged, PAR_BUDGET,
            "parallel nodes charged must equal budget consumed (jobs {jobs})"
        );
        assert_eq!(
            iis_obs::snapshot()
                .gauges
                .get("solve.budget_remaining")
                .copied(),
            Some(0)
        );
    }

    // differential accounting: with unbounded budget, the compiled kernel
    // and the reference MAC oracle explore the same tree in the same
    // order, so their sequential `solve.nodes` counts are equal, not
    // merely both valid
    for (task, b) in [
        (k_set_consensus(2, 2), 1usize),
        (consensus(1, &[0, 1]), 2),
        (approximate_agreement(1, 9), 1),
        (one_shot_immediate_snapshot_task(2), 1),
    ] {
        let kernel = nodes_of(|| {
            solve_at_opts(&task, b, &SolveOptions::new());
        });
        let oracle = nodes_of(|| {
            reference::solve_mac(&task, b, u64::MAX).expect("unbounded");
        });
        // (MAC may refute at the root with zero charged nodes — equality
        // is still the claim under test)
        assert_eq!(
            kernel,
            oracle,
            "{} b={b}: kernel and oracle disagree on node accounting",
            task.name()
        );
    }
}
