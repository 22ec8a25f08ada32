//! `SolveOptions::timeout`: wall-clock graceful degradation. A zero
//! deadline halts the search promptly with the inconclusive `TimedOut`
//! outcome; a generous deadline changes nothing; one deadline bounds a
//! whole sweep, not each round.

use iis_core::cache::KeyedTask;
use iis_core::solvability::{
    solve_at_opts, solve_up_to_opts, BoundedOutcome, SolveOptions, Solver,
};
use iis_tasks::library::{approximate_agreement, consensus};
use std::time::Duration;

#[test]
fn zero_timeout_times_out_at_any_jobs() {
    // root propagation does not decide grid-9 ε-agreement at b = 2, so
    // the search reaches its first node charge, which polls the clock
    let task = approximate_agreement(1, 9);
    for jobs in [1usize, 4] {
        let opts = SolveOptions::new().jobs(jobs).timeout(Duration::ZERO);
        let out = solve_at_opts(&task, 2, &opts);
        assert!(
            matches!(out, BoundedOutcome::TimedOut),
            "jobs={jobs}: expected TimedOut, got {out:?}"
        );
    }
}

#[test]
fn generous_timeout_preserves_the_verdict() {
    // an hour of budget never fires mid-test, so verdicts must be exactly
    // the untimed ones — TimedOut is only ever a truthful "clock elapsed"
    let hour = Duration::from_secs(3600);
    let solvable = approximate_agreement(1, 3);
    let out = solve_at_opts(&solvable, 1, &SolveOptions::new().timeout(hour));
    assert!(matches!(out, BoundedOutcome::Solvable(_)));
    let unsolvable = consensus(2, &[0, 1]);
    let out = solve_at_opts(&unsolvable, 1, &SolveOptions::new().timeout(hour));
    assert!(matches!(out, BoundedOutcome::Unsolvable));
}

#[test]
fn timed_out_sweep_stops_without_recording_a_verdict() {
    // the sweep must not misreport a timed-out round as unsolvable: grid-9
    // ε-agreement is refuted at b = 0 and b = 1 without a search node, then
    // b = 2 reaches the clock and times out, so the report holds exactly
    // those two verdicts and no witness
    let task = approximate_agreement(1, 9);
    let opts = SolveOptions::new().timeout(Duration::ZERO);
    let report = solve_up_to_opts(&task, 3, &opts);
    assert_eq!(report.results(), &[(0, false), (1, false)]);
    assert!(report.witness().is_none());
}

#[test]
fn one_deadline_bounds_the_whole_sweep() {
    // the deadline passes before the sweep's first search node: rounds 0
    // and 1 are refuted without polling the clock, and round 2, whose
    // search alone takes far less than the timeout, stops at its first
    // poll instead of getting a fresh timeout of its own
    let task = KeyedTask::new(approximate_agreement(1, 9));
    let mut solver = Solver::new(
        &task,
        SolveOptions::new().timeout(Duration::from_millis(50)),
    );
    std::thread::sleep(Duration::from_millis(100));
    assert!(matches!(solver.step(), BoundedOutcome::Unsolvable));
    assert!(matches!(solver.step(), BoundedOutcome::Unsolvable));
    let out = solver.step();
    assert!(matches!(out, BoundedOutcome::TimedOut), "{out:?}");
}

#[test]
fn a_long_root_propagation_stops_at_the_deadline() {
    // root propagation alone refutes grid-9 ε-agreement among 3 at b = 2,
    // with no search node; past the deadline it stops inconclusive
    let task = approximate_agreement(2, 9);
    let exact = solve_at_opts(&task, 2, &SolveOptions::new());
    assert!(matches!(exact, BoundedOutcome::Unsolvable), "{exact:?}");
    let out = solve_at_opts(&task, 2, &SolveOptions::new().timeout(Duration::ZERO));
    assert!(matches!(out, BoundedOutcome::TimedOut), "{out:?}");
}
