//! The distance pass against the search it short-cuts.
//!
//! A round sweep ([`iis_core::Solver`]) answers every round the task's
//! distance pass refutes without building a tower; the single-round
//! searches (`solve_at_opts`) stay pure search and are the oracle here.
//! Over the task library and seeded random small chromatic tasks:
//!
//! - soundness: wherever the bounded search decides a round the pass
//!   refutes, it finds no witness;
//! - byte identity: every sweep the pure search decides exactly has the
//!   same record bytes from the solver;
//! - exactness on one-dimensional inputs: on every two-process library
//!   task the edge test's first passing round is the first round the
//!   search finds a witness at.

mod support;

use iis_core::distance::Distances;
use iis_core::solvability::tower_facets;
use iis_core::{solve_at, solve_at_opts, BoundedOutcome, SolveOptions};
use iis_obs::Rng;
use iis_tasks::library::parse_spec;
use iis_tasks::Task;
use iis_topology::Complex;
use std::time::Duration;
use support::{assert_same_bytes, library_specs, random_task};

/// The largest tower a soundness round builds: past it a short search
/// decides nothing anyway, and the tower alone costs seconds in a debug
/// build.
const SOUNDNESS_FACETS: u64 = 5000;

/// Searches each round `b ≤ 3` the pass refutes, on a small tower, and
/// fails on a witness. Returns how many of them the search refuted
/// exactly (the rest it left undecided).
fn confirm_refutations(task: &Task, what: &str) -> usize {
    let distances = Distances::of(task);
    let opts = SolveOptions::new()
        .budget(2000)
        .timeout(Duration::from_millis(500));
    let mut confirmed = 0;
    for b in (0..=3).filter(|&b| tower_facets(task.input(), b) <= SOUNDNESS_FACETS) {
        let Some(refutation) = distances.refuting(b) else {
            continue;
        };
        match solve_at_opts(task, b, &opts) {
            BoundedOutcome::Solvable(_) => panic!(
                "{what}: solvable at b = {b}, yet {}",
                refutation.describe(task)
            ),
            BoundedOutcome::Unsolvable => confirmed += 1,
            _ => {}
        }
    }
    confirmed
}

#[test]
fn library_refutations_are_confirmed_by_search() {
    let mut confirmed = 0;
    for spec in library_specs() {
        let task = parse_spec(&spec).unwrap();
        confirmed += confirm_refutations(&task, &spec);
    }
    // consensus and ε-agreement are refuted at several rounds each
    assert!(confirmed >= 45, "only {confirmed} refutations confirmed");
}

/// The sweeps of `certificate_differential`'s corpus, and a few more
/// whose rounds the pass refutes.
const CORPUS: [(&str, usize); 16] = [
    ("consensus:1", 2),
    ("consensus:2", 1),
    ("kset:1:1", 2),
    ("kset:2:2", 1),
    ("eps:1:3", 2),
    ("eps:1:9", 2),
    ("eps:1:27", 3),
    ("eps:1:64", 3),
    ("oneshot:1", 1),
    ("oneshot:2", 1),
    ("eps:2:2", 2),
    ("eps:2:3", 2),
    ("eps:2:4", 2),
    ("eps:2:5", 2),
    ("eps:3:2", 1),
    ("eps:0:5", 1),
];

#[test]
fn decided_sweeps_have_the_pure_search_bytes() {
    for (spec, max_rounds) in CORPUS {
        let task = parse_spec(spec).unwrap();
        let what = format!("{spec}@{max_rounds}");
        assert!(assert_same_bytes(&task, max_rounds, &what), "{what}");
    }
}

#[test]
fn random_tasks_refuted_by_distance_only_when_unsolvable_and_byte_identical() {
    let mut rng = Rng::seed_from_u64(0xd157_a2ce);
    let (mut refuted, mut confirmed, mut decided) = (0, 0, 0);
    for index in 0..120 {
        let task = random_task(&mut rng, index);
        let what = format!("random task {index}");
        refuted += usize::from(Distances::of(&task).refuting(0).is_some());
        confirmed += confirm_refutations(&task, &what);
        let max_rounds = if task.input().facets().any(|f| f.len() > 2) {
            2
        } else {
            3
        };
        decided += usize::from(assert_same_bytes(&task, max_rounds, &what));
    }
    // the corpus exercises both the pass and the search
    assert!(refuted >= 50, "only {refuted} tasks refuted at b = 0");
    assert!(confirmed >= 200, "only {confirmed} refutations confirmed");
    assert!(decided >= 100, "only {decided} decided");
}

/// Every two-process library family, at the sizes whose first solvable
/// round (if any) is at most 4.
const TWO_PROCESS: [&str; 15] = [
    "trivial:1",
    "consensus:1",
    "kset:1:1",
    "kset:1:2",
    "renaming:1:2",
    "renaming:1:3",
    "oneshot:1",
    "eps:1:1",
    "eps:1:2",
    "eps:1:3",
    "eps:1:4",
    "eps:1:9",
    "eps:1:10",
    "eps:1:27",
    "eps:1:64",
];

/// The first round `b ≤ 4` the pure search finds a witness at.
fn first_solvable(task: &Task) -> Option<usize> {
    (0..=4).find(|&b| solve_at(task, b).is_some())
}

#[test]
fn on_two_process_tasks_the_edge_test_is_exact() {
    for spec in TWO_PROCESS {
        let task = parse_spec(spec).unwrap();
        assert_eq!(
            Distances::of(&task).first_round(),
            first_solvable(&task),
            "{spec}"
        );
    }
    // chromatic simplex agreement over SDS²(s¹), solvable at b = 2
    let sub = iis_topology::sds_iterated(&Complex::standard_simplex(1), 2);
    let csass = iis_tasks::library::chromatic_simplex_agreement(&sub);
    assert_eq!(Distances::of(&csass).first_round(), Some(2));
    assert_eq!(first_solvable(&csass), Some(2));
}
