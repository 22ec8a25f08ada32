//! Content-addressed caching of solvability results.
//!
//! Proposition 3.1 makes bounded wait-free solvability a **pure function**
//! of the task `T = (Iⁿ, Oⁿ, Δ)` and the round bound `b`: a decision map
//! `δ : SDS^b(I) → O` either exists or it does not, and Lemma 3.3 pins the
//! protocol complex the search runs on to the iterated standard chromatic
//! subdivision — a canonical object with a deterministic construction.
//! Because this repository's searches are additionally *engine-, strategy-,
//! and thread-count-independent* (DESIGN.md §7/§8: the parallel split only
//! cancels subtrees the sequential order would never have preferred), the
//! entire `(report, witness)` answer is content-addressable: two requests
//! for the same `(task, max_rounds)` pair must receive bit-identical
//! answers, no matter who computed them, when, or with how many threads.
//!
//! This module provides the key derivation ([`cache_key`]), the canonical
//! record encoding ([`report_to_json`] / [`report_from_json`]), and the
//! cache-aware sweep entry point ([`solve_up_to_cached`]) used by
//! `iis solve --store` and the `iis serve` solve service. The persistent
//! backing store lives in `iis-store`; any [`SolveCache`] implementor works
//! (a plain `HashMap` gives a process-local memo).
//!
//! # What is cacheable
//!
//! Only **decided** sweeps are stored: a witness was found, or every round
//! `0..=max_rounds` was exactly refuted. A sweep cut short by a node budget
//! or a wall-clock timeout decides nothing (`Exhausted`/`TimedOut` are
//! inconclusive verdicts) and is never persisted — a cache must not launder
//! "we gave up" into "unsolvable".
//!
//! # Integrity
//!
//! Records store only the data that cannot be recomputed cheaply: the
//! per-round verdict vector and the witness's round count and vertex map.
//! The subdivision the witness lives on is **rebuilt from the task** (as a
//! flat arena, memoized process-wide — Lemma 3.3 makes `SDS^b(I)` a pure
//! function of `(I, b)`) and the map is re-validated against Proposition
//! 3.1's three conditions, so a corrupted or adversarial store entry is
//! detected and treated as a miss rather than trusted.
//!
//! # Interning
//!
//! A library spec (`"eps:1:9"`) determines its task, and the task
//! determines the round-independent part of its key ([`key_prefix`]), so
//! [`intern_spec`] builds both once per process and shares them: a
//! repeated question rebuilds neither the task nor its canonical JSON.
//! The interner, the tower memo and the gateway's prefix memo are all
//! bounded by one [`Lru`]. None of this weakens integrity: every warm hit
//! still revalidates the stored witness; interning only skips rebuilding
//! a task that is already known.

use crate::solvability::{
    solve_up_to_opts, validate_decision_map_arena, DecisionMap, SolvabilityReport, SolveOptions,
};
use iis_obs::json::FromJson;
use iis_obs::{Json, ToJson};
use iis_tasks::library::parse_spec;
use iis_tasks::Task;
use iis_topology::arena::{arena_sds_tower, ArenaSds};
use iis_topology::SimplicialMap;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Version tag mixed into every [`cache_key`]. Bump it whenever the record
/// encoding or the canonical task serialization changes shape — old store
/// segments then age out as misses instead of deserializing garbage.
pub const CACHE_SCHEMA: &str = "iis-solve-v1";

/// The FNV-1a offset basis: the hash state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues 64-bit FNV-1a from `state` over `bytes`.
fn fnv1a64_from(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// 64-bit FNV-1a over `bytes` — the workspace's content-address hash.
///
/// # Examples
///
/// ```
/// use iis_core::cache::fnv1a64;
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// The FNV-1a state after `CACHE_SCHEMA \0 <canonical> \0` — everything
/// in a [`cache_key`] preimage but the round bound.
fn prefix_of_canonical(canonical: &str) -> u64 {
    let h = fnv1a64_from(FNV_OFFSET, CACHE_SCHEMA.as_bytes());
    let h = fnv1a64_from(h, &[0]);
    let h = fnv1a64_from(h, canonical.as_bytes());
    fnv1a64_from(h, &[0])
}

/// The round-independent part of `task`'s content address: finishing it
/// with [`finish_key`] gives [`cache_key`]. Memoizes the task's canonical
/// JSON (see [`Task::canonical_json`]).
pub fn key_prefix(task: &Task) -> u64 {
    prefix_of_canonical(task.canonical_json())
}

/// Finishes a [`key_prefix`] into the content address for `max_rounds`:
/// FNV-1a continued over the decimal digits of the round bound.
pub fn finish_key(key_prefix: u64, max_rounds: usize) -> u64 {
    fnv1a64_from(key_prefix, max_rounds.to_string().as_bytes())
}

/// The content address of a `(task, max_rounds)` solvability question.
///
/// The preimage is `CACHE_SCHEMA \0 <canonical task JSON> \0 <max_rounds>`.
/// The task's JSON form is canonical (BTreeMap-ordered `Δ`, construction-
/// ordered vertices), so structurally equal tasks collide on purpose — a
/// task loaded from a file and the same task rebuilt from a library spec
/// address the same record. Search options (budget, jobs, kernel, strategy)
/// are deliberately **not** part of the key: they never change a decided
/// verdict or witness, only the time to find it.
pub fn cache_key(task: &Task, max_rounds: usize) -> u64 {
    finish_key(key_prefix(task), max_rounds)
}

/// A bounded map that evicts its least-recently-used entry, behind a
/// poison-safe lock — the one eviction policy behind every process-wide
/// memo of pure functions (the tower memo, the spec interner, the
/// gateway's prefix memo).
///
/// Entries carry the logical clock tick of their last use; eviction is an
/// O(n) min-tick scan on insert at capacity. That keeps the lock section
/// trivial with no linked-list bookkeeping, and at the small caps these
/// memos run at the scan costs less than the work a miss redoes. A panic
/// while the lock is held cannot wedge the memo: its entries are finished
/// values of pure functions, so the guard is recovered from the poison.
pub struct Lru<K, V> {
    cap: usize,
    inner: Mutex<LruInner<K, V>>,
}

struct LruInner<K, V> {
    entries: HashMap<K, (V, u64)>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty map holding at most `cap` entries (at least one).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap: cap.max(1),
            inner: Mutex::new(LruInner {
                entries: HashMap::new(),
                tick: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruInner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value under `key`, marking it most recently used.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let (value, used) = inner.entries.get_mut(key)?;
        *used = tick;
        Some(value.clone())
    }

    /// Stores `value` under `key` as the most recently used entry; a value
    /// already present wins (racing builders of a pure function built the
    /// same thing). Returns `true` iff the least-recently-used entry was
    /// evicted to make room.
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut inner = self.lock();
        let mut evicted = false;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.cap {
            let coldest = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(coldest) = coldest {
                inner.entries.remove(&coldest);
                evicted = true;
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.entry(key).or_insert((value, tick)).1 = tick;
        evicted
    }

    /// The number of entries held.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` iff the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff `key` is held (without touching its recency).
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lock().entries.contains_key(key)
    }
}

/// Entries each process-wide memo of this module holds before the
/// least-recently-used one is evicted: the tower memo and the spec
/// interner. The towers and tasks a serve process answers repeatedly fit
/// easily; a workload cycling through more sheds the coldest entry per
/// insert instead of cliff-dropping the whole memo.
pub const TOWER_CACHE_CAP: usize = 64;

/// A task together with the round-independent part of its content
/// address ([`key_prefix`]) — what a question needs to be keyed and
/// answered, computed once.
#[derive(Debug)]
pub struct KeyedTask {
    task: Task,
    key_prefix: u64,
}

impl KeyedTask {
    /// Keys `task`. The canonical JSON is rendered once for the prefix and
    /// dropped, not memoized in the task: an interned task never keeps
    /// its (up to tens of KB) preimage.
    pub fn new(task: Task) -> KeyedTask {
        let key_prefix = prefix_of_canonical(&task.to_json().to_string());
        KeyedTask { task, key_prefix }
    }

    /// The task.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The task's [`key_prefix`].
    pub fn key_prefix(&self) -> u64 {
        self.key_prefix
    }

    /// The content address of the question `(task, max_rounds)`: equal to
    /// [`cache_key`] bit for bit.
    pub fn key(&self, max_rounds: usize) -> u64 {
        finish_key(self.key_prefix, max_rounds)
    }
}

fn spec_interner() -> &'static Lru<String, Arc<KeyedTask>> {
    static SPECS: OnceLock<Lru<String, Arc<KeyedTask>>> = OnceLock::new();
    SPECS.get_or_init(|| Lru::new(TOWER_CACHE_CAP))
}

/// The task a library spec names (see [`parse_spec`]), keyed, built once
/// per process and shared.
///
/// A library spec determines its task, so interning it changes no
/// observable byte — it only deletes the task build and the canonical
/// serialization from every repeated question. Hits and builds are
/// counted in `cache.spec_hits` / `cache.spec_builds`; the interner holds
/// [`TOWER_CACHE_CAP`] specs. Only library specs resolve here: a question
/// arriving over the network can never make the process read a file.
///
/// # Errors
///
/// Returns [`parse_spec`]'s message for anything that is not a library
/// spec (unknown family, bad number, an `@file`).
pub fn intern_spec(spec: &str) -> Result<Arc<KeyedTask>, String> {
    let specs = spec_interner();
    if let Some(keyed) = specs.get(spec) {
        iis_obs::metrics::add("cache.spec_hits", 1);
        return Ok(keyed);
    }
    let keyed = Arc::new(KeyedTask::new(parse_spec(spec)?));
    iis_obs::metrics::add("cache.spec_builds", 1);
    specs.insert(spec.to_string(), Arc::clone(&keyed));
    Ok(keyed)
}

/// Where a question's task comes from.
pub enum QuestionTask<'a> {
    /// A library spec (`"spec": "eps:1:9"`), still to be resolved.
    Spec(&'a str),
    /// An inline task (`"task": {…}`), already decoded.
    Inline(Box<Task>),
}

/// Reads the task half of a solve question body `{"spec": … | "task": …}`
/// — the one parser both the shard and the gateway use, so both answer a
/// malformed question with the same message.
///
/// # Errors
///
/// Returns a message when the question names no task, both forms, a
/// non-string spec, or an undecodable inline task.
pub fn question_task(q: &Json) -> Result<QuestionTask<'_>, String> {
    match (q.get("spec"), q.get("task")) {
        (Some(s), None) => Ok(QuestionTask::Spec(
            s.as_str().ok_or("\"spec\" must be a string")?,
        )),
        (None, Some(t)) => Task::from_json(t)
            .map(|task| QuestionTask::Inline(Box::new(task)))
            .map_err(|e| format!("bad \"task\": {e}")),
        (Some(_), Some(_)) => Err("give \"spec\" or \"task\", not both".to_string()),
        (None, None) => Err("body needs a \"spec\" or a \"task\"".to_string()),
    }
}

/// Reads a question's `"max_rounds"` (default 2).
///
/// # Errors
///
/// Returns a message when the field is present but not a number.
pub fn question_rounds(q: &Json) -> Result<usize, String> {
    match q.get("max_rounds") {
        None | Some(Json::Null) => Ok(2),
        Some(j) => Ok(j.as_f64().ok_or("\"max_rounds\" must be a number")? as usize),
    }
}

fn tower_memo() -> &'static Lru<(u64, usize), Arc<ArenaSds>> {
    static TOWERS: OnceLock<Lru<(u64, usize), Arc<ArenaSds>>> = OnceLock::new();
    TOWERS.get_or_init(|| Lru::new(TOWER_CACHE_CAP))
}

/// `SDS^b(I)` for `task` as a flat arena, memoized process-wide with LRU
/// eviction under the task's [`key_prefix`].
///
/// Lemma 3.3 makes the tower a pure function of `(I, b)`, and the arena
/// construction is deterministic, so sharing one instance across requests
/// changes no observable bytes — it only deletes the rebuild from every
/// warm reply after the first. Keyed by the task's content address (tasks
/// sharing an input complex but differing in `Δ` rebuild redundantly;
/// the cap bounds that waste). Evictions are counted in
/// `cache.tower_evictions`.
fn rebuilt_tower(task: &Task, key_prefix: u64, b: usize) -> Arc<ArenaSds> {
    let towers = tower_memo();
    if let Some(tower) = towers.get(&(key_prefix, b)) {
        iis_obs::metrics::add("cache.tower_hits", 1);
        return tower;
    }
    let tower = Arc::new(arena_sds_tower(task.input(), b));
    iis_obs::metrics::add("cache.tower_builds", 1);
    if towers.insert((key_prefix, b), Arc::clone(&tower)) {
        iis_obs::metrics::add("cache.tower_evictions", 1);
    }
    tower
}

/// A key-value cache of serialized solvability records.
///
/// Implementors must be **first-write-wins**: once a key holds a value,
/// later `put`s for the same key are ignored. Combined with the canonical
/// record encoding this guarantees every hit for a key returns the same
/// bytes forever — the bit-identity the solve service advertises.
pub trait SolveCache {
    /// The record stored under `key`, if any.
    fn get(&mut self, key: u64) -> Option<String>;
    /// Stores `value` under `key` unless the key is already present.
    fn put(&mut self, key: u64, value: &str);
    /// Syncs any buffered writes to durable storage. Drain paths call this
    /// before shutdown; the default is a no-op for in-memory caches.
    fn flush(&mut self) {}
}

/// A process-local memo — the cache used when no `--store DIR` is given.
impl SolveCache for HashMap<u64, String> {
    fn get(&mut self, key: u64) -> Option<String> {
        HashMap::get(self, &key).cloned()
    }

    fn put(&mut self, key: u64, value: &str) {
        self.entry(key).or_insert_with(|| value.to_string());
    }
}

/// The outcome of a cache-aware sweep: the report plus where it came from.
pub struct CachedSolve {
    /// The sweep result (identical whether computed or replayed).
    pub report: SolvabilityReport,
    /// `true` iff the report was served from the cache.
    pub hit: bool,
    /// The content address the question was filed under.
    pub key: u64,
}

/// Canonical record encoding of a report:
/// `{"results": [[b, ok], …], "task": name, "witness": null | {"b": b,
/// "map": [[v, w], …]}}` with `Json::obj` insertion order fixed here and
/// the map in sorted source order — serializing the same report always
/// yields the same bytes.
pub fn report_to_json(report: &SolvabilityReport) -> Json {
    let witness = match report.witness() {
        Some(w) => Json::obj([("b", w.rounds().to_json()), ("map", w.map().to_json())]),
        None => Json::Null,
    };
    Json::obj([
        ("results", report.results().to_vec().to_json()),
        ("task", report.task_name().to_json()),
        ("witness", witness),
    ])
}

/// A decoded record whose witness (if any) passed revalidation.
struct Record {
    results: Vec<(usize, bool)>,
    name: String,
    witness: Option<(usize, Arc<ArenaSds>, SimplicialMap)>,
}

/// Decodes a [`report_to_json`] record and revalidates its witness on the
/// memoized arena tower under `key_prefix` (which must be `task`'s).
fn decode_record(task: &Task, key_prefix: u64, v: &Json) -> Result<Record, String> {
    let results = Vec::<(usize, bool)>::from_json(v.field("results").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let name = String::from_json(v.field("task").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let witness = match v.field("witness").map_err(|e| e.to_string())? {
        Json::Null => None,
        w => {
            let b = usize::from_json(w.field("b").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let map = SimplicialMap::from_json(w.field("map").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let _timer = iis_obs::span::span("cache.revalidate_ns");
            let tower = rebuilt_tower(task, key_prefix, b);
            validate_decision_map_arena(task, &tower, &map)
                .map_err(|e| format!("stored witness invalid: {e}"))?;
            if results.last() != Some(&(b, true)) {
                return Err("witness round disagrees with verdict vector".to_string());
            }
            Some((b, tower, map))
        }
    };
    if witness.is_none() && results.iter().any(|(_, ok)| *ok) {
        return Err("solvable verdict without a witness".to_string());
    }
    Ok(Record {
        results,
        name,
        witness,
    })
}

fn decode_report(task: &Task, key_prefix: u64, v: &Json) -> Result<SolvabilityReport, String> {
    let rec = decode_record(task, key_prefix, v)?;
    let witness = rec
        .witness
        .map(|(b, tower, map)| DecisionMap::from_arena(b, tower, map));
    Ok(SolvabilityReport::from_parts(
        rec.name,
        rec.results,
        witness,
    ))
}

/// Decodes and **re-validates** a record produced by [`report_to_json`].
///
/// The witness's subdivision is rebuilt from `task` (Lemma 3.3: `SDS^b(I)`
/// is canonical) in flat arena form — `iis_topology::arena` — and the
/// stored vertex map must pass
/// [`validate_decision_map_arena`] on it: the same Proposition 3.1
/// conditions as the reference validator (simpliciality, color
/// preservation, `δ(s) ∈ Δ(carrier(s))` for every simplex), checked
/// against CSR facet slices instead of a materialized `BTreeSet` face
/// poset. Only the arena is memoized; the returned witness's
/// [`DecisionMap`] converts it to the reference `Subdivision`
/// (bit-identically) on its first `subdivision()` call, so a caller that
/// only reads the verdict or the map never pays for the conversion. The
/// rebuild+revalidate is timed into the `cache.revalidate_ns` histogram —
/// the dominant cost of a warm `iis serve` reply.
///
/// # Errors
///
/// Returns a description of the first structural or semantic defect; the
/// caller should treat any error as a cache miss.
pub fn report_from_json(task: &Task, v: &Json) -> Result<SolvabilityReport, String> {
    decode_report(task, key_prefix(task), v)
}

/// Checks a stored record exactly as [`report_from_json`] does — the same
/// decoding and the same [`validate_decision_map_arena`] revalidation —
/// without assembling a report: the warm path of a service that replays
/// the stored bytes instead of re-rendering a decoded report.
///
/// # Errors
///
/// As [`report_from_json`].
pub fn validate_record(keyed: &KeyedTask, v: &Json) -> Result<(), String> {
    decode_record(&keyed.task, keyed.key_prefix, v).map(|_| ())
}

/// `true` iff the sweep reached a verdict that may be persisted: a witness,
/// or an exact refutation of every round `0..=max_rounds`.
fn decided(report: &SolvabilityReport, max_rounds: usize) -> bool {
    report.witness().is_some() || report.results().len() == max_rounds + 1
}

/// [`crate::solvability::solve_up_to`] through a cache: answer from `cache`
/// when the `(task, max_rounds)` record exists and validates, otherwise run
/// the sweep with `opts` and persist the result if it decided.
///
/// The counters `solve.cache_store_hits` / `solve.cache_store_misses`
/// account every call.
///
/// # Examples
///
/// ```
/// use iis_core::cache::solve_up_to_cached;
/// use iis_core::solvability::SolveOptions;
/// use iis_tasks::library::approximate_agreement;
/// use std::collections::HashMap;
///
/// let task = approximate_agreement(1, 3);
/// let mut cache = HashMap::new();
/// let cold = solve_up_to_cached(&task, 2, &SolveOptions::new(), &mut cache);
/// let warm = solve_up_to_cached(&task, 2, &SolveOptions::new(), &mut cache);
/// assert!(!cold.hit && warm.hit);
/// assert_eq!(
///     cold.report.first_solvable(),
///     warm.report.first_solvable()
/// );
/// ```
pub fn solve_up_to_cached(
    task: &Task,
    max_rounds: usize,
    opts: &SolveOptions,
    cache: &mut dyn SolveCache,
) -> CachedSolve {
    solve_cached(task, key_prefix(task), max_rounds, opts, cache)
}

/// [`solve_up_to_cached`] for an already-keyed task (an interned spec or
/// a keyed inline task): the same sweep, with no re-serialization of the
/// task to find its key.
pub fn solve_keyed(
    keyed: &KeyedTask,
    max_rounds: usize,
    opts: &SolveOptions,
    cache: &mut dyn SolveCache,
) -> CachedSolve {
    solve_cached(&keyed.task, keyed.key_prefix, max_rounds, opts, cache)
}

fn solve_cached(
    task: &Task,
    key_prefix: u64,
    max_rounds: usize,
    opts: &SolveOptions,
    cache: &mut dyn SolveCache,
) -> CachedSolve {
    let key = finish_key(key_prefix, max_rounds);
    if let Some(text) = cache.get(key) {
        match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| decode_report(task, key_prefix, &v))
        {
            Ok(report) => {
                iis_obs::metrics::add("solve.cache_store_hits", 1);
                return CachedSolve {
                    report,
                    hit: true,
                    key,
                };
            }
            Err(e) => {
                // a bad record is a miss, not a crash — recompute and let
                // first-write-wins keep the (bad) bytes from being replaced
                // silently; the trace records what happened
                iis_obs::trace::event(
                    "cache.invalid_record",
                    task.name(),
                    &[("error", Json::Str(e))],
                );
            }
        }
    }
    iis_obs::metrics::add("solve.cache_store_misses", 1);
    let report = solve_up_to_opts(task, max_rounds, opts);
    if decided(&report, max_rounds) {
        cache.put(key, &report_to_json(&report).to_string());
    }
    CachedSolve {
        report,
        hit: false,
        key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_tasks::library::{approximate_agreement, consensus, trivial};

    #[test]
    fn key_is_stable_and_option_independent() {
        let t = approximate_agreement(1, 3);
        assert_eq!(cache_key(&t, 2), cache_key(&t, 2));
        assert_ne!(cache_key(&t, 1), cache_key(&t, 2));
        assert_ne!(cache_key(&t, 2), cache_key(&consensus(1, &[0, 1]), 2));
        // a task round-tripped through JSON addresses the same record
        let back: iis_tasks::Task = Json::parse_as(&t.to_json().to_string()).unwrap();
        assert_eq!(cache_key(&t, 2), cache_key(&back, 2));
    }

    #[test]
    fn warm_record_is_bit_identical_across_thread_counts() {
        // the satellite acceptance: a cache hit replays the exact bytes a
        // fresh solve at any job count would have produced
        let t = approximate_agreement(1, 3);
        let mut cold_cache = HashMap::new();
        let cold = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cold_cache);
        let cold_bytes = report_to_json(&cold.report).to_string();
        for jobs in [1usize, 4] {
            let mut cache = HashMap::new();
            let fresh = solve_up_to_cached(&t, 2, &SolveOptions::new().jobs(jobs), &mut cache);
            assert!(!fresh.hit);
            assert_eq!(
                report_to_json(&fresh.report).to_string(),
                cold_bytes,
                "jobs={jobs} must produce the canonical record"
            );
            let warm = solve_up_to_cached(&t, 2, &SolveOptions::new().jobs(jobs), &mut cache);
            assert!(warm.hit);
            assert_eq!(report_to_json(&warm.report).to_string(), cold_bytes);
        }
    }

    #[test]
    fn refutations_are_cached_too() {
        let t = consensus(1, &[0, 1]);
        let mut cache = HashMap::new();
        let cold = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(!cold.hit && cold.report.first_solvable().is_none());
        let warm = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(warm.hit);
        assert_eq!(warm.report.results(), cold.report.results());
    }

    #[test]
    fn inconclusive_sweeps_are_not_cached() {
        // a zero node budget exhausts immediately (the one-shot IS task
        // needs actual search nodes, unlike propagation-refuted consensus)
        // — nothing may be stored
        let t = iis_tasks::library::one_shot_immediate_snapshot_task(1);
        let mut cache = HashMap::new();
        let out = solve_up_to_cached(&t, 2, &SolveOptions::new().budget(0), &mut cache);
        assert!(!out.hit);
        assert!(cache.is_empty(), "exhausted sweeps must not be persisted");
    }

    #[test]
    fn corrupt_records_fall_back_to_a_fresh_solve() {
        let t = trivial(1);
        let key = cache_key(&t, 1);
        let mut cache = HashMap::new();
        // structural garbage
        SolveCache::put(&mut cache, key, "{\"nope\": 1}");
        let out = solve_up_to_cached(&t, 1, &SolveOptions::new(), &mut cache);
        assert!(!out.hit, "garbage record must be a miss");
        assert_eq!(out.report.first_solvable(), Some(0));
        // semantic garbage: a witness whose map is not color preserving
        let mut cache = HashMap::new();
        SolveCache::put(
            &mut cache,
            key,
            "{\"results\": [[0, true]], \"task\": \"trivial\", \
             \"witness\": {\"b\": 0, \"map\": [[0, 1], [1, 0]]}}",
        );
        let out = solve_up_to_cached(&t, 1, &SolveOptions::new(), &mut cache);
        assert!(!out.hit, "invalid witness must be a miss");
    }

    #[test]
    fn tower_memo_evicts_lru_instead_of_clearing() {
        // cycle more distinct (task, b) keys than the cap: the memo must
        // stay bounded and keep the recently-used entries, evicting only
        // the coldest. b=0 towers are cheap, so the pressure is realistic.
        let tasks: Vec<_> = (2..2 + TOWER_CACHE_CAP as u64 + 8)
            .map(|k| approximate_agreement(1, k))
            .collect();
        let hot = trivial(1);
        for t in &tasks {
            rebuilt_tower(&hot, key_prefix(&hot), 0); // keep one entry hot throughout
            rebuilt_tower(t, key_prefix(t), 0);
        }
        let memo = tower_memo();
        assert!(
            memo.len() <= TOWER_CACHE_CAP,
            "memo exceeded its cap: {}",
            memo.len()
        );
        assert!(
            memo.contains_key(&(key_prefix(&hot), 0usize)),
            "the constantly-reused entry must survive eviction pressure"
        );
    }

    #[test]
    fn spec_interner_evicts_lru_instead_of_clearing() {
        // the same pressure on the interner: more distinct specs than the
        // cap, one spec asked between every two others
        let hot = "trivial:1";
        for k in 2..2 + TOWER_CACHE_CAP + 8 {
            intern_spec(hot).unwrap();
            intern_spec(&format!("eps:1:{k}")).unwrap();
        }
        let specs = spec_interner();
        assert!(
            specs.len() <= TOWER_CACHE_CAP,
            "interner exceeded its cap: {}",
            specs.len()
        );
        assert!(
            specs.contains_key(hot),
            "the constantly-reused spec must survive eviction pressure"
        );
    }

    #[test]
    fn lru_keeps_recency_and_first_write() {
        let lru: Lru<u32, u32> = Lru::new(2);
        assert!(lru.is_empty());
        assert!(!lru.insert(1, 10));
        assert!(!lru.insert(2, 20));
        assert_eq!(lru.get(&1), Some(10)); // 2 is now the coldest
        assert!(lru.insert(3, 30), "a full map evicts on a new key");
        assert_eq!(
            (lru.get(&2), lru.get(&1), lru.get(&3)),
            (None, Some(10), Some(30))
        );
        assert!(!lru.insert(1, 99), "an existing key evicts nothing");
        assert_eq!(lru.get(&1), Some(10), "the first value wins");
        assert_eq!(lru.len(), 2);
    }

    /// Every library family, over a few sizes each.
    const SPECS: [&str; 12] = [
        "trivial:1",
        "trivial:2",
        "consensus:1",
        "consensus:2",
        "kset:2:1",
        "kset:2:2",
        "renaming:1:3",
        "renaming:2:5",
        "eps:1:3",
        "eps:1:81",
        "oneshot:1",
        "oneshot:2",
    ];

    #[test]
    fn interned_keys_equal_cache_key_bit_for_bit() {
        for spec in SPECS {
            let keyed = intern_spec(spec).unwrap();
            let task = parse_spec(spec).unwrap();
            assert_eq!(keyed.key_prefix(), key_prefix(&task), "{spec}");
            for b in 0..=6 {
                assert_eq!(keyed.key(b), cache_key(&task, b), "{spec} b={b}");
            }
            // a second lookup is the same shared entry
            assert!(Arc::ptr_eq(&keyed, &intern_spec(spec).unwrap()));
        }
    }

    #[test]
    fn cache_key_is_fnv_over_the_documented_preimage() {
        // stored records and rendezvous routing are keyed by this exact
        // preimage; the incremental prefix must not move a key
        let task = approximate_agreement(1, 3);
        for b in [0usize, 2, 10] {
            let preimage = format!("{CACHE_SCHEMA}\0{}\0{b}", task.canonical_json());
            assert_eq!(cache_key(&task, b), fnv1a64(preimage.as_bytes()));
        }
    }

    #[test]
    fn network_specs_never_read_files() {
        let err = intern_spec("@/etc/hostname").unwrap_err();
        assert_eq!(err, "unknown task spec: @/etc/hostname");
    }

    #[test]
    fn warm_revalidation_survives_a_poisoned_memo() {
        let t = approximate_agreement(1, 5);
        let mut cache = HashMap::new();
        let cold = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(!cold.hit);
        // a thread panics while holding each memo's lock
        let poisoned = std::thread::spawn(|| {
            let _towers = tower_memo().lock();
            let _specs = spec_interner().lock();
            panic!("poison the memos");
        })
        .join();
        assert!(poisoned.is_err());
        assert!(tower_memo().inner.is_poisoned());
        let warm = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(warm.hit, "a poisoned memo must not fail revalidation");
        let keyed = intern_spec("eps:1:5").unwrap();
        let text = SolveCache::get(&mut cache, keyed.key(2)).unwrap();
        validate_record(&keyed, &Json::parse(&text).unwrap()).unwrap();
    }

    #[test]
    fn validate_record_agrees_with_report_from_json() {
        let t = approximate_agreement(1, 3);
        let keyed = KeyedTask::new(t.clone());
        let good = report_to_json(&solve_up_to_opts(&t, 2, &SolveOptions::new()));
        assert!(validate_record(&keyed, &good).is_ok());
        assert!(report_from_json(&t, &good).is_ok());
        let bad = Json::parse(
            "{\"results\": [[0, true]], \"task\": \"x\", \
             \"witness\": {\"b\": 0, \"map\": [[0, 1], [1, 0]]}}",
        )
        .unwrap();
        assert_eq!(
            validate_record(&keyed, &bad).unwrap_err(),
            report_from_json(&t, &bad).unwrap_err()
        );
    }

    #[test]
    fn records_rerender_byte_for_byte_in_every_family() {
        // the shard splices stored records verbatim; that is the old
        // parse-then-render reply only if rendering a parsed record gives
        // back its exact bytes — checked for each library family, b ≤ 3
        for spec in [
            "trivial:1",
            "trivial:2",
            "consensus:1",
            "kset:1:2",
            "renaming:1:3",
            "eps:1:9",
            "oneshot:1",
            "oneshot:2",
        ] {
            let task = iis_tasks::library::parse_spec(spec).unwrap();
            for b in 0..=3 {
                let report = solve_up_to_opts(&task, b, &SolveOptions::new());
                let record = report_to_json(&report).to_string();
                assert_eq!(
                    Json::parse(&record).unwrap().to_string(),
                    record,
                    "{spec} b={b}"
                );
            }
        }
    }

    #[test]
    fn record_roundtrip_preserves_the_witness() {
        let t = approximate_agreement(1, 3);
        let report = solve_up_to_opts(&t, 2, &SolveOptions::new());
        let json = report_to_json(&report);
        let back = report_from_json(&t, &json).unwrap();
        assert_eq!(back.first_solvable(), report.first_solvable());
        let (w, wb) = (report.witness().unwrap(), back.witness().unwrap());
        assert_eq!(w.rounds(), wb.rounds());
        assert_eq!(w.map().pairs(), wb.map().pairs());
        // the replayed witness converts its arena tower on demand into the
        // subdivision the search ran on
        let (c, cb) = (w.subdivision().complex(), wb.subdivision().complex());
        assert_eq!(c.num_vertices(), cb.num_vertices());
        assert_eq!(c.num_facets(), cb.num_facets());
        crate::solvability::validate_decision_map(&t, wb.subdivision(), wb.map()).unwrap();
    }
}
