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
//!   same record bytes from the solver, at `jobs` 1 and 2;
//! - the work bound: no certificate search on a library spec takes over
//!   1 ms (asserted in release builds).

use iis_core::cache::report_to_json;
use iis_core::certificate::find_certificate;
use iis_core::solvability::tower_facets;
use iis_core::{solve_at_opts, solve_up_to_opts, BoundedOutcome, SolveOptions};
use iis_obs::{Json, Rng, ToJson};
use iis_tasks::library::{parse_spec, task_from_spec};
use iis_tasks::Task;
use iis_topology::{Color, Complex, Label, Simplex};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Library specs within `parse_spec`'s bounds: every family at every
/// size a test build affords, and each family's largest admitted task
/// the search bound must hold on.
fn library_specs() -> Vec<String> {
    let mut specs: Vec<String> = Vec::new();
    specs.extend((0..=8).map(|n| format!("trivial:{n}")));
    specs.extend((0..=7).map(|n| format!("consensus:{n}")));
    for n in 0..=6 {
        for k in 1..=7 - n {
            specs.push(format!("kset:{n}:{k}"));
        }
    }
    specs.extend((0..=4).map(|n| format!("oneshot:{n}")));
    for spec in [
        "renaming:0:1",
        "renaming:1:2",
        "renaming:1:3",
        "renaming:2:3",
        "renaming:2:5",
        "renaming:3:4",
        "renaming:4:9",
        "renaming:1:353",
        "eps:0:5",
        "eps:1:1",
        "eps:1:2",
        "eps:1:3",
        "eps:1:9",
        "eps:1:27",
        "eps:1:64",
        "eps:1:15625",
        "eps:2:1",
        "eps:2:2",
        "eps:2:3",
        "eps:2:1953",
        "eps:3:2",
        "eps:3:244",
        "eps:4:2",
        "eps:5:2",
    ] {
        specs.push(spec.to_string());
    }
    specs
}

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

/// A search bounded in nodes and time: its `Solvable` and `Unsolvable`
/// are exact, and anything else decides nothing.
fn bounded() -> SolveOptions {
    SolveOptions::new()
        .budget(4000)
        .timeout(Duration::from_secs(2))
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

/// The record the pure search gives a sweep to `max_rounds`, when every
/// round it asks is decided: the bytes [`report_to_json`] writes.
fn pure_record(task: &Task, max_rounds: usize, opts: &SolveOptions) -> Option<String> {
    let mut results = Vec::new();
    let mut witness = Json::Null;
    for b in 0..=max_rounds {
        match solve_at_opts(task, b, opts) {
            BoundedOutcome::Solvable(w) => {
                results.push((b, true));
                witness = Json::obj([("b", w.rounds().to_json()), ("map", w.map().to_json())]);
                break;
            }
            BoundedOutcome::Unsolvable => results.push((b, false)),
            _ => return None,
        }
    }
    let record = Json::obj([
        ("results", results.to_json()),
        ("task", task.name().to_json()),
        ("witness", witness),
    ]);
    Some(record.to_string())
}

/// Compares the solver's record with the pure search's at `jobs` 1 and
/// 2; `true` iff the pure search decided the sweep.
fn assert_same_bytes(task: &Task, max_rounds: usize, what: &str) -> bool {
    let Some(pure) = pure_record(task, max_rounds, &bounded()) else {
        return false;
    };
    for jobs in [1, 2] {
        let report = solve_up_to_opts(task, max_rounds, &bounded().jobs(jobs));
        assert_eq!(
            report_to_json(&report).to_string(),
            pure,
            "{what} up to b = {max_rounds}, jobs {jobs}"
        );
    }
    true
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

/// A seeded small chromatic task: a standard simplex of dimension 1 or 2
/// (inputs are process ids) or the binary-input edge complex, with each
/// input simplex allowed a random subset of the output tuples over its
/// colors — values among its own inputs (validity) or among all of them.
fn random_task(rng: &mut Rng, index: usize) -> Task {
    let (input, values): (Complex, Vec<u64>) = match rng.random_range(0..3u32) {
        0 => (Complex::standard_simplex(1), vec![0, 1]),
        1 => (Complex::standard_simplex(2), vec![0, 1, 2]),
        _ => (
            iis_tasks::library::consensus(1, &[0, 1]).input().clone(),
            vec![0, 1],
        ),
    };
    let validity = rng.random_bool(0.7);
    let keep = rng.random_range(3..10u32) as f64 / 10.0;
    let mut allowed: BTreeMap<Simplex, Vec<Vec<(Color, Label)>>> = BTreeMap::new();
    for si in input.simplices() {
        let pool: Vec<u64> = if validity {
            let mut own: Vec<u64> = si
                .iter()
                .map(|v| input.label(v).as_scalar().unwrap())
                .collect();
            own.sort_unstable();
            own.dedup();
            own
        } else {
            values.clone()
        };
        let colors: Vec<Color> = si.iter().map(|v| input.color(v)).collect();
        let mut tuples = Vec::new();
        let mut choice = vec![0usize; colors.len()];
        loop {
            if rng.random_bool(keep) {
                tuples.push(
                    colors
                        .iter()
                        .zip(&choice)
                        .map(|(&c, &i)| (c, Label::scalar(pool[i])))
                        .collect(),
                );
            }
            let Some(i) = (0..choice.len()).find(|&i| choice[i] + 1 < pool.len()) else {
                break;
            };
            choice[i] += 1;
            choice[..i].iter_mut().for_each(|x| *x = 0);
        }
        if tuples.is_empty() {
            let pick = |rng: &mut Rng| Label::scalar(*rng.choose(&pool).unwrap());
            tuples.push(colors.iter().map(|&c| (c, pick(rng))).collect());
        }
        allowed.insert(si, tuples);
    }
    task_from_spec(format!("random-{index}"), input, |_, si| {
        allowed[si].clone()
    })
    .expect("a chromatic task")
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
