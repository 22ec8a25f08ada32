//! What the differential suites of the round sweep's short-cuts share:
//! the task library, a bounded pure search and its record, and seeded
//! random small chromatic tasks.

// each test binary uses its own part of this module
#![allow(dead_code)]

use iis_core::cache::report_to_json;
use iis_core::{solve_at_opts, solve_up_to_opts, BoundedOutcome, SolveOptions};
use iis_obs::{Json, Rng, ToJson};
use iis_tasks::library::task_from_spec;
use iis_tasks::Task;
use iis_topology::{Color, Complex, Label, Simplex};
use std::collections::BTreeMap;
use std::time::Duration;

/// Library specs within `parse_spec`'s bounds: every family at every
/// size a test build affords, and each family's largest admitted task
/// the search bound must hold on.
pub fn library_specs() -> Vec<String> {
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

/// A search bounded in nodes and time: its `Solvable` and `Unsolvable`
/// are exact, and anything else decides nothing.
pub fn bounded() -> SolveOptions {
    SolveOptions::new()
        .budget(4000)
        .timeout(Duration::from_secs(2))
}

/// The record the pure search gives a sweep to `max_rounds`, when every
/// round it asks is decided: the bytes [`report_to_json`] writes.
pub fn pure_record(task: &Task, max_rounds: usize, opts: &SolveOptions) -> Option<String> {
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

/// Compares the solver's record with the pure search's; `true` iff the
/// pure search decided the sweep.
pub fn assert_same_bytes(task: &Task, max_rounds: usize, what: &str) -> bool {
    let Some(pure) = pure_record(task, max_rounds, &bounded()) else {
        return false;
    };
    let report = solve_up_to_opts(task, max_rounds, &bounded());
    assert_eq!(
        report_to_json(&report).to_string(),
        pure,
        "{what} up to b = {max_rounds}"
    );
    true
}

/// A seeded small chromatic task: a standard simplex of dimension 1 or 2
/// (inputs are process ids) or the binary-input edge complex, with each
/// input simplex allowed a random subset of the output tuples over its
/// colors — values among its own inputs (validity) or among all of them.
pub fn random_task(rng: &mut Rng, index: usize) -> Task {
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
