//! The Sperner certificate against the search it short-cuts.
//!
//! A round sweep ([`iis_core::Solver`]) answers every round past `b = 0`
//! from a certificate when one exists, without building a tower; the
//! single-round searches (`solve_at_opts`) stay pure search and are the
//! oracle here. Over the task library, the `parallel_equivalence` and
//! `compiled_check_differential` corpora and seeded random small
//! chromatic tasks:
//!
//! - soundness: every certificate found passes the certificate checker,
//!   and the search finds no witness at any `b ≤ 3` it decides;
//! - byte identity: every sweep the pure search decides exactly has the
//!   same record bytes from the solver;
//! - the work bound: no certificate search on a library spec takes over
//!   1 ms (asserted in release builds).

mod support;

use iis_core::certificate::find_certificate;
use iis_core::solvability::tower_facets;
use iis_core::{solve_at_opts, BoundedOutcome, SolveOptions};
use iis_obs::Rng;
use iis_tasks::library::parse_spec;
use iis_tasks::Task;
use iis_topology::Complex;
use std::time::{Duration, Instant};
use support::{assert_same_bytes, library_specs, random_task};

/// Whether the search refutes `spec` at every `b`: consensus among two
/// or more, and `(n+1, k)`-set consensus with `k ≤ n`. The others are
/// solvable at some `b`.
fn impossible(spec: &str) -> bool {
    let parts: Vec<usize> = spec
        .split(':')
        .skip(1)
        .map(|p| p.parse().unwrap())
        .collect();
    match spec.split(':').next().unwrap() {
        "consensus" => parts[0] >= 1,
        "kset" => parts[1] <= parts[0],
        _ => false,
    }
}

/// The largest tower a soundness round builds: past it a short search
/// decides nothing anyway, and the tower alone costs seconds in a debug
/// build (and up to 220 MB near the facet cap).
const SOUNDNESS_FACETS: u64 = 5000;

/// Fails if the search finds a witness at some `b ≤ 3`. A certified
/// task has none, so each round gets a short search on a small tower:
/// what it decides is exact, and the rest decides nothing.
fn assert_no_witness(task: &Task, what: &str) {
    let opts = SolveOptions::new()
        .budget(500)
        .timeout(Duration::from_millis(100));
    for b in (0..=3).filter(|&b| tower_facets(task.input(), b) <= SOUNDNESS_FACETS) {
        if let BoundedOutcome::Solvable(_) = solve_at_opts(task, b, &opts) {
            panic!("{what}: certified, yet solvable at b = {b}");
        }
    }
}

/// Each library task is built once (a debug build spends most of this
/// test building them), then searched for a certificate three times.
#[test]
fn library_certificates_are_sound_exactly_the_impossible_tasks_and_cheap() {
    for spec in library_specs() {
        let task = parse_spec(&spec).unwrap();
        let fastest = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(find_certificate(&task));
                t0.elapsed()
            })
            .min()
            .unwrap();
        if !cfg!(debug_assertions) {
            assert!(fastest < Duration::from_millis(1), "{spec}: {fastest:?}");
        }
        let cert = find_certificate(&task);
        assert_eq!(cert.is_some(), impossible(&spec), "{spec}");
        if let Some(cert) = cert {
            assert_eq!(cert.check(&task), Ok(()), "{spec}");
            assert_no_witness(&task, &spec);
        }
    }
}

/// The `parallel_equivalence` library sweep and the
/// `compiled_check_differential` cases, with their round bounds.
const CORPUS: [(&str, usize); 20] = [
    ("trivial:1", 1),
    ("trivial:2", 1),
    ("consensus:1", 2),
    ("consensus:2", 1),
    ("kset:1:1", 2),
    ("kset:2:1", 1),
    ("kset:2:2", 1),
    ("kset:2:3", 1),
    ("renaming:1:3", 1),
    ("renaming:2:5", 1),
    ("eps:1:3", 2),
    ("eps:1:9", 2),
    ("eps:1:27", 3),
    ("oneshot:1", 1),
    ("oneshot:2", 1),
    ("consensus:1", 3),
    ("eps:1:64", 3),
    ("eps:2:2", 2),
    ("eps:2:3", 2),
    ("kset:2:2", 2),
];

#[test]
fn decided_sweeps_have_the_pure_search_bytes() {
    for (spec, max_rounds) in CORPUS {
        let task = parse_spec(spec).unwrap();
        let what = format!("{spec}@{max_rounds}");
        let decided = assert_same_bytes(&task, max_rounds, &what);
        // the corpus is small enough for the bounded search, except where
        // the search cannot refute within its budget: kset:2:2 at b = 2
        assert_eq!(decided, (spec, max_rounds) != ("kset:2:2", 2), "{what}");
    }
    // chromatic simplex agreement over SDS²(s¹), solvable at b = 2
    let sub = iis_topology::sds_iterated(&Complex::standard_simplex(1), 2);
    let csass = iis_tasks::library::chromatic_simplex_agreement(&sub);
    assert!(find_certificate(&csass).is_none());
    assert!(assert_same_bytes(&csass, 2, "csass"));
}

#[test]
fn random_tasks_certified_only_when_refuted_and_byte_identical() {
    let mut rng = Rng::seed_from_u64(0x5e_5e27);
    let (mut certified, mut decided) = (0, 0);
    for index in 0..120 {
        let task = random_task(&mut rng, index);
        let what = format!("random task {index}");
        if let Some(cert) = find_certificate(&task) {
            certified += 1;
            assert_eq!(cert.check(&task), Ok(()), "{what}");
            assert_no_witness(&task, &what);
        }
        let max_rounds = if task.input().facets().any(|f| f.len() > 2) {
            2
        } else {
            3
        };
        decided += usize::from(assert_same_bytes(&task, max_rounds, &what));
    }
    // the corpus exercises both paths
    assert!(certified >= 20, "only {certified} certified");
    assert!(decided >= 100, "only {decided} decided");
}
