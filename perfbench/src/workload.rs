//! The three workloads as fixed multisets of question shapes.
//!
//! A run's total work is fixed by the workload alone. The seed only
//! orders the draws and mints the task names of cold questions, so two
//! seeds ask exactly the same questions with exactly the same
//! multiplicities, in different orders.

use iis_obs::Rng;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop clients, single warm questions, Zipf over the warm set.
    WarmZipf,
    /// One closed-loop client, warm questions in batches of [`BATCH`].
    WarmBatch,
    /// One closed-loop client, every question a never-asked key.
    ColdUnique,
}

/// Questions per `warm_batch` request.
pub const BATCH: usize = 32;

/// Zipf draws in one pass of a warm workload. A pass is the unit of a
/// timed run: runs measure whole passes, so every run asks every warm key
/// with its exact Zipf multiplicity a whole number of times.
pub const WARM_PASS: usize = 1024;

/// Copies of each cold shape in one pass.
pub const COLD_COPIES: usize = 2;

/// Fixed seed of the rank-to-key permutation: the Zipf rank of every warm
/// key is part of the workload, not of the run's seed.
const RANK_SEED: u64 = 0x005e_ed0f_2a4c;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmZipf,
        Workload::WarmBatch,
        Workload::ColdUnique,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmZipf => "warm_zipf",
            Workload::WarmBatch => "warm_batch",
            Workload::ColdUnique => "cold_unique",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads, each with one keep-alive connection.
    pub fn clients(self) -> usize {
        match self {
            Workload::WarmZipf => 2,
            Workload::WarmBatch | Workload::ColdUnique => 1,
        }
    }

    /// Nominal seconds one pass takes on the reference host (2 vCPUs; see
    /// `README.md`). A run asks a fixed number of whole passes derived
    /// from `--seconds` with it, so every run of a workload does the same
    /// work however fast the host is at the moment.
    fn pass_seconds(self) -> f64 {
        match self {
            Workload::WarmZipf => 2.0,
            Workload::WarmBatch => 1.7,
            Workload::ColdUnique => 0.05,
        }
    }

    /// Whole passes a phase of nominally `seconds` asks (at least one).
    pub fn passes(self, seconds: f64) -> u64 {
        ((seconds / self.pass_seconds()).round() as u64).max(1)
    }

    /// Whether the shards start on a pre-filled store.
    pub fn warm(self) -> bool {
        self != Workload::ColdUnique
    }
}

/// A question shape: a library spec asked at a round bound.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Shape {
    /// The `iis_tasks::library::parse_spec` specifier.
    pub spec: String,
    /// The question's `max_rounds`.
    pub max_rounds: usize,
}

impl Shape {
    fn new(spec: impl Into<String>, max_rounds: usize) -> Shape {
        Shape {
            spec: spec.into(),
            max_rounds,
        }
    }
}

/// The warm key set in Zipf rank order (index 0 is rank 1).
///
/// Every key is solvable with a witness. The set spans 150 distinct
/// tasks, more than twice the 64-entry tower memo of `iis_core::cache`, so
/// each of the two shards (which split the keys by rendezvous hashing)
/// still sees more distinct towers than its memo holds and the Zipf tail
/// rebuilds towers. The single-process `eps:0:k` tasks pad the distinct
/// count cheaply; the two-process `eps:1:k` and `renaming` families carry
/// the cost.
pub fn warm_keys() -> Vec<Shape> {
    let mut keys = Vec::new();
    let mut both = |spec: String, lo: usize| {
        keys.push(Shape::new(spec.clone(), lo));
        keys.push(Shape::new(spec, lo + 1));
    };
    for k in 1..=81 {
        both(format!("eps:1:{k}"), 4);
    }
    for m in 3..=14 {
        both(format!("renaming:1:{m}"), 1);
    }
    for m in 4..=8 {
        both(format!("renaming:2:{m}"), 1);
    }
    for n in 0..=5 {
        both(format!("trivial:{n}"), 1);
    }
    for n in 0..=2 {
        both(format!("oneshot:{n}"), 1);
    }
    both("kset:1:2".to_string(), 1);
    both("kset:2:3".to_string(), 1);
    both("eps:2:2".to_string(), 1);
    for k in 2..=41 {
        keys.push(Shape::new(format!("eps:0:{k}"), 1));
    }
    Rng::seed_from_u64(RANK_SEED).shuffle(&mut keys);
    keys
}

/// How many times rank `r` (1-based) is drawn in one pass: Zipf(s = 1)
/// scaled to [`WARM_PASS`] draws, at least once so every key is asked.
fn zipf_count(r: usize, n: usize) -> usize {
    let h: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
    ((WARM_PASS as f64 / (r as f64 * h)).round() as usize).max(1)
}

/// One pass of warm draws as indices into [`warm_keys`]: the fixed Zipf
/// multiset, ordered by `seed`.
pub fn warm_pass(n_keys: usize, seed: u64) -> Vec<usize> {
    let mut draws: Vec<usize> = (0..n_keys)
        .flat_map(|i| std::iter::repeat_n(i, zipf_count(i + 1, n_keys)))
        .collect();
    Rng::seed_from_u64(seed).shuffle(&mut draws);
    draws
}

/// The cold shapes: library questions of about 0.4–2 ms of search each,
/// refuted and solvable alike.
pub fn cold_shapes() -> Vec<Shape> {
    vec![
        Shape::new("consensus:1", 2),
        Shape::new("consensus:1", 3),
        Shape::new("kset:2:2", 1),
        Shape::new("consensus:2", 1),
        Shape::new("eps:1:64", 3),
        Shape::new("eps:1:9", 2),
        Shape::new("eps:1:27", 3),
        Shape::new("oneshot:2", 1),
        Shape::new("eps:2:2", 2),
    ]
}

/// One pass of cold questions as indices into [`cold_shapes`]:
/// [`COLD_COPIES`] of each shape, ordered by `seed`.
pub fn cold_pass(n_shapes: usize, seed: u64) -> Vec<usize> {
    let mut draws: Vec<usize> = (0..n_shapes)
        .flat_map(|i| std::iter::repeat_n(i, COLD_COPIES))
        .collect();
    Rng::seed_from_u64(seed).shuffle(&mut draws);
    draws
}

/// The unique task name of a cold question: distinct for every
/// `(seed, sequence number)`, so no two questions of one run, and no two
/// runs with different seeds, share a cache key.
pub fn cold_name(seed: u64, seq: u64) -> String {
    format!("cold-{seed:x}-{seq}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn multiset(draws: &[usize]) -> BTreeMap<usize, usize> {
        let mut m = BTreeMap::new();
        for &d in draws {
            *m.entry(d).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn warm_keys_are_distinct_and_fixed() {
        let keys = warm_keys();
        assert_eq!(keys, warm_keys());
        let set: BTreeSet<&Shape> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        let tasks: BTreeSet<&str> = keys.iter().map(|k| k.spec.as_str()).collect();
        assert!(tasks.len() > 2 * 64, "{} distinct tasks", tasks.len());
    }

    #[test]
    fn two_seeds_draw_the_same_warm_multiset_in_another_order() {
        let n = warm_keys().len();
        let (a, b) = (warm_pass(n, 1), warm_pass(n, 2));
        assert_eq!(multiset(&a), multiset(&b));
        assert_ne!(a, b);
        assert_eq!(multiset(&a).len(), n, "every key is drawn");
        assert!(a.len() >= WARM_PASS);
    }

    #[test]
    fn two_seeds_draw_the_same_cold_multiset_with_disjoint_names() {
        let n = cold_shapes().len();
        let (a, b) = (cold_pass(n, 1), cold_pass(n, 2));
        assert_eq!(multiset(&a), multiset(&b));
        assert_ne!(a, b);
        assert!(multiset(&a).values().all(|&c| c == COLD_COPIES));
        let names = |seed| -> BTreeSet<String> { (0..1000).map(|s| cold_name(seed, s)).collect() };
        assert_eq!(names(1).len(), 1000);
        assert!(names(1).is_disjoint(&names(2)));
    }

    #[test]
    fn zipf_head_outweighs_tail() {
        let n = warm_keys().len();
        assert!(zipf_count(1, n) > 100 * zipf_count(n, n) / 2);
        assert_eq!(zipf_count(n, n), 1);
    }
}
