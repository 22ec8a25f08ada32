//! Content-addressed caching of solvability results.
//!
//! Proposition 3.1 makes bounded wait-free solvability a **pure function**
//! of the task `T = (Iⁿ, Oⁿ, Δ)` and the round bound `b`: a decision map
//! `δ : SDS^b(I) → O` either exists or it does not, and Lemma 3.3 pins the
//! protocol complex the search runs on to the iterated standard chromatic
//! subdivision — a canonical object with a deterministic construction.
//! Because this repository's search is additionally one deterministic
//! search per round, run on the thread that asks (DESIGN.md §7), the
//! entire `(report, witness)` answer is content-addressable: two requests
//! for the same `(task, max_rounds)` pair must receive bit-identical
//! answers, no matter who computed them or when.
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
//! `0..=max_rounds` was exactly refuted. A sweep cut short by a node
//! budget, a wall-clock timeout or the tower cap decides nothing
//! (`Exhausted`/`TimedOut`/`TooLarge` are inconclusive verdicts, and the
//! report names the one that stopped it) and is never persisted — a cache
//! must not launder "we gave up" into "unsolvable".
//!
//! # Integrity
//!
//! Records store only the data that cannot be recomputed cheaply: the
//! per-round verdict vector and the witness's round count and vertex map.
//! The subdivision the witness lives on is **rebuilt from the task's
//! input** and the map is re-validated against Proposition 3.1's
//! conditions, so a corrupted or adversarial store entry is detected and
//! treated as a miss rather than trusted. The rebuild goes through the
//! one gate to a level a search goes through (`skeleton`), so a witness
//! claimed on a level past [`TOWER_FACET_CAP`] is refused before anything
//! is built, and a level is memoized only once a witness on it passed.
//!
//! A stored record is read once, in one pass over its bytes
//! ([`validate_record`]), and only in the canonical encoding its one
//! writer produces (`report_to_json(..).to_string()`): no whitespace,
//! shortest integers, the verdict vector `[[0,false],…]` without gaps,
//! and the witness map as one `[v,w]` pair per vertex of `SDS^b(I)` in id
//! order, decoded straight into the dense image table the check walks.
//! So a service that replays the stored bytes serves exactly the bytes it
//! checked: a record with a stray or duplicate pair, a gap, or added
//! whitespace is a miss, never served verbatim. The record must also
//! answer the question asked — a witness at `b ≤ max_rounds`, or exactly
//! `max_rounds + 1` refuted rounds — so a record filed under another
//! bound's key is a miss too.
//!
//! The rebuild is shared. Lemma 3.3 makes `SDS^b(I)` a pure function of
//! `(I, b)`, and the label-free arena reads only `I`'s shape — its colors
//! in id order and its facets in order — so the tower and its compiled
//! constraint skeleton (one constraint per simplex, classed by
//! `(carrier, colors)`) are memoized once per `(shape, b)` ([`shape_key`])
//! for every task over inputs of that shape, and the solver's round sweep
//! takes its levels from the same memo. All 81 `eps:1:k` tasks, for
//! instance, share one skeleton per `b`. A task contributes only its `Δ`
//! tables, one per class, which an interned task ([`KeyedTask`]) keeps for
//! life; checking a stored witness is then one table probe per simplex
//! (DESIGN.md, "Why checking the compiled constraints is Proposition
//! 3.1's check").
//!
//! # Interning
//!
//! A library spec (`"eps:1:9"`) determines its task, and the task
//! determines the round-independent part of its key ([`key_prefix`]), so
//! [`intern_spec`] builds both once per process and shares them: a
//! repeated question rebuilds neither the task, nor its canonical JSON,
//! nor its `Δ` tables. The interner, the skeleton memo and the gateway's
//! prefix memo are all bounded by one [`Lru`], each with its own cap:
//! skeletons are keyed by input shape and tasks by spec, so a shard's
//! working set holds far more tasks ([`SPEC_INTERN_CAP`]) than towers
//! ([`TOWER_CACHE_CAP`]). Evictions are counted (`cache.spec_evictions`,
//! `cache.tower_evictions`), so thrash shows on `/metrics`. None of this
//! weakens integrity: interning only skips rebuilding a task that is
//! already known. A service's [`AnswerMemo`] skips more — the store read
//! and the witness check of a record it already checked for the very same
//! task and bound — so every record a service serves was revalidated in
//! that process against the asking task, once.

use crate::csp::{ConstraintCache, Skeleton};
use crate::distance::Distances;
use crate::solvability::{
    check_image, check_simplices, stopped_at, tower_facets, BoundedOutcome, DecisionMap,
    SolvabilityReport, SolveOptions, Solver, TOWER_FACET_CAP,
};
use iis_obs::json::{self, kept, JsonError, Token};
use iis_obs::metrics::{Gauge, StaticCounter, StaticHistogram};
use iis_obs::{Json, ToJson};
use iis_tasks::library::parse_spec;
use iis_tasks::Task;
use iis_topology::arena::arena_sds_tower;
use iis_topology::template::WIDTH_LIMIT;
use iis_topology::{Complex, Simplex, SimplicialMap, VertexId};
use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::time::Instant;

/// Version tag mixed into every [`cache_key`]. Bump it whenever the record
/// encoding or the canonical task serialization changes shape — old store
/// segments then age out as misses instead of deserializing garbage.
pub const CACHE_SCHEMA: &str = "iis-solve-v1";

/// The FNV-1a offset basis: the hash state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues 64-bit FNV-1a from `state` over `bytes`: a hash fed in
/// pieces equals [`fnv1a64`] over their concatenation.
pub fn fnv1a64_from(mut state: u64, bytes: &[u8]) -> u64 {
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
/// address the same record. Search options (budget, timeout) are
/// deliberately **not** part of the key: they never change a decided
/// verdict or witness, only whether the sweep decides.
pub fn cache_key(task: &Task, max_rounds: usize) -> u64 {
    finish_key(key_prefix(task), max_rounds)
}

/// A bounded map that evicts its least-recently-used entries, behind a
/// poison-safe lock — the one eviction policy behind every memo of pure
/// results (the skeleton memo, the spec interner, the gateway's prefix
/// memo, a service's verified answers).
///
/// Every entry carries a weight, and the map holds at most `cap` in total
/// weight: [`Lru::insert`] weighs an entry 1, so `cap` counts entries,
/// and [`Lru::insert_weighted`] lets a memo of variable-size values bound
/// its bytes. A recency index (logical clock tick of last use → key)
/// finds the coldest entry in O(log n), so a byte-bounded memo of
/// thousands of entries evicts as cheaply as a small one. A panic while
/// the lock is held cannot wedge the memo: its entries are finished
/// values, so the guard is recovered from the poison.
pub struct Lru<K, V> {
    cap: usize,
    inner: Mutex<LruInner<K, V>>,
}

struct LruInner<K, V> {
    /// key → (value, weight, tick of last use)
    entries: HashMap<K, (V, usize, u64)>,
    /// tick of last use → key, coldest first
    recency: BTreeMap<u64, K>,
    weight: usize,
    tick: u64,
}

impl<K: Eq + Hash, V> LruInner<K, V> {
    /// The entry under `key`, moved to the newest tick.
    fn touch<Q>(&mut self, key: &Q) -> Option<&mut (V, usize, u64)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.entries.get_mut(key)?;
        self.tick += 1;
        if let Some(key) = self.recency.remove(&entry.2) {
            self.recency.insert(self.tick, key);
        }
        entry.2 = self.tick;
        Some(entry)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty map holding at most `cap` in total weight (at least one).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap: cap.max(1),
            inner: Mutex::new(LruInner {
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                weight: 0,
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
        self.lock().touch(key).map(|(value, _, _)| value.clone())
    }

    /// Stores `value` under `key`, of weight 1, as the most recently used
    /// entry; a value already present wins (racing builders of a pure
    /// function built the same thing). Returns `true` iff an entry was
    /// evicted to make room.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.insert_weighted(key, value, 1) > 0
    }

    /// Stores `value` under `key` with `weight`, as [`Lru::insert`] does,
    /// evicting the least recently used entries until the total weight
    /// fits the cap. A value heavier than the whole cap is not held.
    /// Returns how many entries were evicted.
    pub fn insert_weighted(&self, key: K, value: V, weight: usize) -> usize {
        if weight > self.cap {
            return 0;
        }
        let mut inner = self.lock();
        if inner.touch(&key).is_some() {
            return 0;
        }
        let mut evicted = 0;
        while inner.weight + weight > self.cap {
            let Some((_, coldest)) = inner.recency.pop_first() else {
                break;
            };
            if let Some((_, w, _)) = inner.entries.remove(&coldest) {
                inner.weight -= w;
                evicted += 1;
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.recency.insert(tick, key.clone());
        inner.entries.insert(key, (value, weight, tick));
        inner.weight += weight;
        evicted
    }

    /// Drops the entry under `key`, if any.
    pub fn remove<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.lock();
        if let Some((_, w, used)) = inner.entries.remove(key) {
            inner.recency.remove(&used);
            inner.weight -= w;
        }
    }

    /// The number of entries held.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` iff the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The total weight of the entries held (at most the cap).
    pub fn weight(&self) -> usize {
        self.lock().weight
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

/// Entries the skeleton memo holds before the least-recently-used one is
/// evicted. Skeletons are keyed by input shape, so the towers a serve
/// process answers repeatedly fit easily; a workload cycling through more
/// sheds the coldest entry per insert instead of cliff-dropping the memo.
pub const TOWER_CACHE_CAP: usize = 64;

/// Bytes a service's [`AnswerMemo`] holds — record text plus a fixed
/// per-entry overhead — before the least recently used record is evicted. `perfbench`'s 260 warm records total
/// 354 KB (the largest 2 971 B), so one shard holds its whole share of
/// them many times over, and the memo adds at most this much to a
/// shard's footprint however many keys it is asked.
pub const ANSWER_MEMO_BYTES: usize = 4 << 20;

/// The largest record an [`AnswerMemo`] holds: a sixteenth of its budget,
/// so one huge witness cannot flush the many small ones a warm shard
/// serves. A larger record is revalidated on every ask, as it was before
/// the memo.
pub const ANSWER_MEMO_RECORD_CAP: usize = ANSWER_MEMO_BYTES / 16;

/// What one [`AnswerMemo`] entry costs beyond its record text, counted
/// against [`ANSWER_MEMO_BYTES`]: its map and recency slots, the record's
/// allocation header, and the task allocation (about 400 B) its `Weak`
/// keeps after the task itself is dropped. Counting it bounds the entry
/// count too, however small the records.
const ANSWER_ENTRY_OVERHEAD: usize = 512;

/// Entries the spec interner holds before the least-recently-used task is
/// evicted. Tasks are keyed by spec, not shape, so a shard's working set
/// is its share of the distinct tasks asked, far more than its towers.
/// An interned task with its `Δ` tables compiled holds tens of KiB:
/// counted by allocation over `perfbench`'s 150 warm tasks, 22 KiB on
/// average and 57 KiB at most (`eps:1:81`). So the cap bounds the
/// interner near 15 MiB at worst, and one shard can keep all 150 with
/// its replica down. Evictions are counted in `cache.spec_evictions`.
pub const SPEC_INTERN_CAP: usize = 256;

/// A task together with the round-independent part of its content
/// address ([`key_prefix`]), its input's [`shape_key`], its compiled `Δ`
/// tables and its distance pass — what a question needs to be keyed and
/// answered, computed once, and the one value a search ([`Solver`]) or a
/// stored-witness check takes. The prefix is rendered on the first
/// [`KeyedTask::key_prefix`] or [`KeyedTask::key`] call, unless the task
/// arrived as canonical text; the tables are compiled lazily, one per
/// `(carrier, colors)` class a skeleton asks for, and shared by the
/// task's searches and its stored-witness checks; the distance pass runs
/// on the first sweep step that asks for it.
#[derive(Debug)]
pub struct KeyedTask {
    task: Task,
    key_prefix: OnceLock<u64>,
    shape: u64,
    /// Filled only with this task's tables, behind a poison-safe lock
    /// ([`KeyedTask::tables`]).
    tables: Mutex<ConstraintCache>,
    distances: OnceLock<Distances>,
    /// Whether [`intern_spec`] holds this task: only an interned task's
    /// answers are kept in an [`AnswerMemo`].
    interned: bool,
}

impl KeyedTask {
    /// Keys `task`. The canonical JSON is written once, when the key is
    /// first asked for, and dropped, not memoized in the task: an
    /// interned task never keeps its (up to tens of KB) preimage, and a
    /// task whose key is never read never renders it.
    pub fn new(task: Task) -> KeyedTask {
        KeyedTask {
            key_prefix: OnceLock::new(),
            shape: shape_key(task.input()),
            task,
            tables: Mutex::default(),
            distances: OnceLock::new(),
            interned: false,
        }
    }

    /// Keys `task` by `canonical`, its canonical JSON, which the caller
    /// holds already (an inline task that arrived canonical,
    /// [`Task::read_json`]).
    fn keyed(task: Task, canonical: &str) -> KeyedTask {
        debug_assert_eq!(
            canonical,
            {
                let mut rendered = String::new();
                task.write_canonical(&mut rendered);
                rendered
            },
            "a span read as canonical renders the same"
        );
        let keyed = KeyedTask::new(task);
        let _ = keyed.key_prefix.set(prefix_of_canonical(canonical));
        keyed
    }

    /// The task.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The task's [`key_prefix`], rendered on the first call.
    pub fn key_prefix(&self) -> u64 {
        *self.key_prefix.get_or_init(|| {
            let mut rendered = String::new();
            self.task.write_canonical(&mut rendered);
            prefix_of_canonical(&rendered)
        })
    }

    /// The content address of the question `(task, max_rounds)`: equal to
    /// [`cache_key`] bit for bit.
    pub fn key(&self, max_rounds: usize) -> u64 {
        finish_key(self.key_prefix(), max_rounds)
    }

    /// The task's compiled `Δ` tables, for one compile or one class
    /// resolve. A panic while the lock is held cannot wedge them: every
    /// entry is a finished table, so the guard is recovered.
    pub(crate) fn tables(&self) -> MutexGuard<'_, ConstraintCache> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The task's distance pass ([`Distances::of`]), run on the first
    /// call and kept.
    pub fn distances(&self) -> &Distances {
        self.distances.get_or_init(|| Distances::of(&self.task))
    }
}

fn spec_interner() -> &'static Lru<String, Arc<KeyedTask>> {
    static SPECS: OnceLock<Lru<String, Arc<KeyedTask>>> = OnceLock::new();
    SPECS.get_or_init(|| Lru::new(SPEC_INTERN_CAP))
}

/// The task a library spec names (see [`parse_spec`]), keyed, built once
/// per process and shared.
///
/// A library spec determines its task, so interning it changes no
/// observable byte — it only deletes the task build and the canonical
/// serialization from every repeated question. Hits, builds and
/// evictions are counted in `cache.spec_hits` / `cache.spec_builds` /
/// `cache.spec_evictions`; the interner holds [`SPEC_INTERN_CAP`] specs.
/// Only library specs resolve here: a question
/// arriving over the network can never make the process read a file.
///
/// # Errors
///
/// Returns [`parse_spec`]'s message for anything that is not a library
/// spec (unknown family, bad number, an `@file`).
pub fn intern_spec(spec: &str) -> Result<Arc<KeyedTask>, String> {
    static SPEC_HITS: StaticCounter = StaticCounter::new("cache.spec_hits");
    let specs = spec_interner();
    if let Some(keyed) = specs.get(spec) {
        SPEC_HITS.incr();
        return Ok(keyed);
    }
    let keyed = Arc::new(KeyedTask {
        interned: true,
        ..KeyedTask::new(parse_spec(spec)?)
    });
    static SPEC_BUILDS: StaticCounter = StaticCounter::new("cache.spec_builds");
    static SPEC_EVICTIONS: StaticCounter = StaticCounter::new("cache.spec_evictions");
    SPEC_BUILDS.incr();
    if specs.insert(spec.to_string(), Arc::clone(&keyed)) {
        SPEC_EVICTIONS.incr();
    }
    Ok(keyed)
}

/// Where a question's task comes from.
pub enum QuestionTask<'a> {
    /// A library spec (`"spec": "eps:1:9"`), still to be resolved.
    Spec(Cow<'a, str>),
    /// An inline task (`"task": {…}`), already decoded and keyed.
    Inline(Box<KeyedTask>),
}

/// A solve question whose every member passed its check: the task it
/// names, resolved to a `T` by the caller, and its options.
pub struct Question<T> {
    /// What the question's task resolved to.
    pub task: T,
    /// `"max_rounds"` (default 2, at most [`MAX_QUESTION_ROUNDS`]).
    pub max_rounds: usize,
    /// `"budget"` (default 1 000 000 nodes).
    pub budget: u64,
    /// `"wait"` (default `true`).
    pub wait: bool,
}

/// The largest `"max_rounds"` a question may ask: past it the tower is
/// astronomically large for every task worth asking about.
pub const MAX_QUESTION_ROUNDS: usize = 6;

/// A member read as `null`, a value, or a refused value (`Err`): `None`
/// until the member is first seen, and a repeat is not read.
type Read<T> = Option<Result<Option<T>, ()>>;

/// One question body `{"spec": … | "task": …, "max_rounds": B, "budget":
/// N, "wait": W}` as read from its text, in one pass: each
/// member the first time it appears (as [`Json::get`] finds it), checked
/// and kept with its own refusal; unknown members skipped. An inline task
/// is decoded and keyed as it is read ([`Task::read_json`]), and when its
/// text is already canonical that span is its key preimage.
///
/// [`QuestionText::resolve`] then ranks the refusals in the one order the
/// shard and the gateway share, so both answer a malformed question with
/// the same message.
#[derive(Default)]
pub struct QuestionText<'a> {
    spec: Option<Result<Cow<'a, str>, ()>>,
    /// Read only while no spec has been seen: with both members present
    /// the question is refused whatever the task holds.
    task: Option<Result<Box<KeyedTask>, String>>,
    max_rounds: Read<u64>,
    budget: Read<u64>,
    wait: Read<bool>,
}

impl<'a> QuestionText<'a> {
    /// Reads one question value at `r`; a value that is not an object is
    /// a question naming no task. Fails only on a syntax error.
    fn read(r: &mut json::Reader<'a>) -> Result<QuestionText<'a>, JsonError> {
        let mut q = QuestionText::default();
        if r.peek()? == Token::Object {
            r.object(|r, key| q.member(r, &key))?;
        } else {
            r.skip()?;
        }
        Ok(q)
    }

    /// Reads the value of member `key` at `r` into its slot.
    fn member(&mut self, r: &mut json::Reader<'a>, key: &str) -> Result<(), JsonError> {
        match key {
            "spec" if self.spec.is_none() => {
                self.spec = Some(if r.peek()? == Token::String {
                    Ok(r.string()?)
                } else {
                    r.skip()?;
                    Err(())
                });
            }
            "task" if self.task.is_none() => {
                self.task = Some(if self.spec.is_some() {
                    r.skip()?;
                    Err(String::new())
                } else {
                    read_inline_task(r)?
                });
            }
            "max_rounds" if self.max_rounds.is_none() => self.max_rounds = Some(read_count(r)?),
            "budget" if self.budget.is_none() => self.budget = Some(read_count(r)?),
            "wait" if self.wait.is_none() => {
                self.wait = Some(match r.peek()? {
                    Token::Null => r.null().map(|()| Ok(None))?,
                    Token::Bool => Ok(Some(r.bool()?)),
                    _ => r.skip().map(|()| Err(()))?,
                });
            }
            _ => r.skip()?,
        }
        Ok(())
    }

    /// Checks the question in the one order of refusals — its task
    /// (none, both forms, a non-string spec, a malformed inline task),
    /// then `task` resolving it (a spec the library does not know), then
    /// `max_rounds`, `budget`, `wait`, and finally a round bound
    /// past [`MAX_QUESTION_ROUNDS`] — and returns the first refusal.
    ///
    /// # Errors
    ///
    /// The first refusal, as its message.
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_core::cache::{read_question, QuestionTask};
    /// let q = read_question(r#"{"budget": -5, "wait": 1, "spec": "eps:1:3"}"#).unwrap();
    /// let spec = |t: QuestionTask<'_>| match t {
    ///     QuestionTask::Spec(s) => Ok(s.into_owned()),
    ///     QuestionTask::Inline(_) => Err("inline".to_string()),
    /// };
    /// let refusal = Err("\"budget\" must be a non-negative integer".to_string());
    /// assert_eq!(q.resolve(spec).map(|q| q.task), refusal);
    /// // a member the reader does not know is skipped
    /// let q = read_question(r#"{"spec": "eps:1:3", "budget": 5.0, "jobs": -1}"#).unwrap();
    /// let q = q.resolve(spec).unwrap();
    /// assert_eq!((q.task.as_str(), q.budget, q.max_rounds, q.wait), ("eps:1:3", 5, 2, true));
    /// ```
    pub fn resolve<T>(
        self,
        task: impl FnOnce(QuestionTask<'a>) -> Result<T, String>,
    ) -> Result<Question<T>, String> {
        let source = match (self.spec, self.task) {
            (Some(Ok(spec)), None) => QuestionTask::Spec(spec),
            (Some(Err(())), None) => return Err("\"spec\" must be a string".to_string()),
            (None, Some(inline)) => QuestionTask::Inline(inline?),
            (Some(_), Some(_)) => return Err("give \"spec\" or \"task\", not both".to_string()),
            (None, None) => return Err("body needs a \"spec\" or a \"task\"".to_string()),
        };
        let task = task(source)?;
        let count = |got: Read<u64>, name: &str, default: u64| match got {
            None | Some(Ok(None)) => Ok(default),
            Some(Ok(Some(n))) => Ok(n),
            Some(Err(())) => Err(format!("\"{name}\" must be a non-negative integer")),
        };
        let max_rounds = count(self.max_rounds, "max_rounds", 2)?;
        let max_rounds = usize::try_from(max_rounds).unwrap_or(usize::MAX);
        let budget = count(self.budget, "budget", 1_000_000)?;
        let wait = match self.wait {
            None | Some(Ok(None)) => true,
            Some(Ok(Some(wait))) => wait,
            Some(Err(())) => return Err("\"wait\" must be a boolean".to_string()),
        };
        if max_rounds > MAX_QUESTION_ROUNDS {
            return Err(format!(
                "max_rounds > {MAX_QUESTION_ROUNDS} would build an astronomically large complex"
            ));
        }
        Ok(Question {
            task,
            max_rounds,
            budget,
            wait,
        })
    }
}

/// A count member: `null`, or a number that is a whole value `≥ 0` (`1.0`
/// and `1e0` included; past `u64::MAX` it saturates).
fn read_count(r: &mut json::Reader<'_>) -> Result<Result<Option<u64>, ()>, JsonError> {
    Ok(match r.peek()? {
        Token::Null => r.null().map(|()| Ok(None))?,
        Token::Number => {
            let x = r.number()?;
            if x >= 0.0 && x.fract() == 0.0 {
                Ok(Some(x as u64))
            } else {
                Err(())
            }
        }
        _ => r.skip().map(|()| Err(()))?,
    })
}

/// An inline `"task"` member, decoded and keyed — by its own span when
/// the text is canonical. No task wider than [`WIDTH_LIMIT`] processes
/// gets past it; a spec resolves through [`parse_spec`], whose family
/// bounds stay narrower.
fn read_inline_task(r: &mut json::Reader<'_>) -> Result<Result<Box<KeyedTask>, String>, JsonError> {
    r.peek()?;
    let start = r.pos();
    let (task, canonical) = match kept(Task::read_json(r))? {
        Ok(read) => read,
        Err(e) => return Ok(Err(format!("bad \"task\": {e}"))),
    };
    let width = task.input().facets().map(Simplex::len).max().unwrap_or(0);
    if width > WIDTH_LIMIT {
        return Ok(Err(format!(
            "bad \"task\": an input facet of {width} processes exceeds the limit of {WIDTH_LIMIT}"
        )));
    }
    Ok(Ok(Box::new(if canonical {
        KeyedTask::keyed(task, &r.text()[start..r.pos()])
    } else {
        KeyedTask::new(task)
    })))
}

/// A `POST /solve` body: one question, or the batch form
/// `{"questions": [q, …]}` with each question's text and reading.
pub enum SolveBody<'a> {
    /// A single question.
    One(QuestionText<'a>),
    /// A batch: each element's text (forwarded verbatim by the gateway)
    /// and its reading.
    Batch(Batch<'a>),
}

/// The questions of a batch body: each element's text and its reading.
pub type Batch<'a> = Vec<(&'a str, QuestionText<'a>)>;

/// Most questions a shard accepts in one batch body. Past this the
/// request is malformed rather than shed: a well-behaved client splits its
/// sweep, as the gateway splits a shard's share of a batch.
pub const MAX_BATCH: usize = 256;

fn bad_body(e: JsonError) -> String {
    format!("bad JSON body: {e}")
}

/// Reads a `POST /solve` body in one pass — the one reader the shard and
/// the gateway share. A body is the batch form when its (first)
/// `"questions"` member is present; the members before it were read as a
/// single question's, and are dropped.
///
/// # Errors
///
/// `bad JSON body: …` for text that is not JSON, else `"questions" must
/// be an array`.
pub fn read_solve_body(text: &str) -> Result<SolveBody<'_>, String> {
    let mut r = json::Reader::new(text);
    let mut one = QuestionText::default();
    let mut batch = None;
    read_body(&mut r, &mut one, &mut batch)
        .and_then(|()| r.finish())
        .map_err(bad_body)?;
    match batch {
        None => Ok(SolveBody::One(one)),
        Some(Some(items)) => Ok(SolveBody::Batch(items)),
        Some(None) => Err("\"questions\" must be an array".to_string()),
    }
}

/// The members of a body; `batch` is the `"questions"` array (`None`
/// inside when it is not an array).
fn read_body<'a>(
    r: &mut json::Reader<'a>,
    one: &mut QuestionText<'a>,
    batch: &mut Option<Option<Batch<'a>>>,
) -> Result<(), JsonError> {
    if r.peek()? != Token::Object {
        return r.skip();
    }
    r.object(|r, key| {
        if batch.is_some() {
            return r.skip();
        }
        if key != "questions" {
            return one.member(r, &key);
        }
        if r.peek()? != Token::Array {
            *batch = Some(None);
            return r.skip();
        }
        let mut items = Vec::new();
        r.array(|r| {
            let start = r.pos();
            let q = QuestionText::read(r)?;
            items.push((&r.text()[start..r.pos()], q));
            Ok(())
        })?;
        *batch = Some(Some(items));
        Ok(())
    })
}

/// Reads `text` as one question body (a `"questions"` member is just an
/// unknown member here), in one pass.
///
/// # Errors
///
/// `bad JSON body: …` for text that is not JSON.
pub fn read_question(text: &str) -> Result<QuestionText<'_>, String> {
    json::read_all(text, QuestionText::read).map_err(bad_body)
}

/// The shape of an input complex as a 64-bit key: FNV-1a over its vertex
/// count, its vertex colors in id order, and its facets in sorted order
/// (each as its size and its vertex ids) — exactly what
/// [`arena_sds_tower`] reads, and nothing it does not (labels).
///
/// Lemma 3.3 makes `SDS^b(I)` a function of `I` alone, and the label-free
/// arena makes it a function of this shape alone, so `(shape, b)` keys
/// the skeleton memo: tasks over inputs of equal shape and different
/// labels share one tower. A memo hit is confirmed against the input's
/// actual shape, so a hash collision costs a rebuild, never a wrong tower.
///
/// # Examples
///
/// ```
/// use iis_core::cache::shape_key;
/// use iis_tasks::library::approximate_agreement;
/// // ε-agreement inputs differ in their labels (the grid), not in shape
/// assert_eq!(
///     shape_key(approximate_agreement(1, 3).input()),
///     shape_key(approximate_agreement(1, 9).input())
/// );
/// ```
pub fn shape_key(input: &Complex) -> u64 {
    let word = |h: u64, x: u32| fnv1a64_from(h, &x.to_le_bytes());
    let mut h = word(FNV_OFFSET, input.num_vertices() as u32);
    for v in input.vertex_ids() {
        h = word(h, input.color(v).0);
    }
    for f in input.facets() {
        h = word(h, f.len() as u32);
        for v in f.iter() {
            h = word(h, v.0);
        }
    }
    h
}

fn skeleton_memo() -> &'static Lru<(u64, usize), Arc<Skeleton>> {
    static SKELETONS: OnceLock<Lru<(u64, usize), Arc<Skeleton>>> = OnceLock::new();
    SKELETONS.get_or_init(|| Lru::new(TOWER_CACHE_CAP))
}

/// The constraint skeleton of `SDS^b(I)` for `q`'s input `I`: the one
/// gate to a level, which alone decides whether a level may be built.
///
/// - A level past [`TOWER_FACET_CAP`] facets ([`tower_facets`]) is
///   refused, [`BoundedOutcome::TooLarge`], before any lookup or build.
/// - A memo entry under `(shape, b)` of `q`'s shape is a hit, counted in
///   `cache.tower_hits`; an entry of another shape (a hash collision) is
///   not.
/// - On a miss the level is climbed to — from `below`, a lower level of
///   the same input, else from the highest level of the same shape below
///   `b` the memo holds, else from the input — and counted once in
///   `cache.tower_builds`. The tower builds and the skeleton's
///   classification poll `deadline`, giving up
///   ([`BoundedOutcome::TimedOut`]) once it passes.
///
/// Nothing is memoized here: [`keep_skeleton`] is the one insert. The
/// tower and its skeleton are a pure function of the shape and `b`, and
/// both are built deterministically, so sharing one instance across tasks
/// and requests changes no observable byte. The memo holds only levels
/// some witness lives on: those a stored witness passed its check on and
/// those the solver finds a witness on ([`crate::solvability`]); a
/// refuted or undecided round's level, and a refused witness's, is
/// dropped.
pub(crate) fn skeleton(
    q: &KeyedTask,
    b: usize,
    below: Option<&Skeleton>,
    deadline: Option<Instant>,
) -> Result<Arc<Skeleton>, BoundedOutcome> {
    static TOWER_HITS: StaticCounter = StaticCounter::new("cache.tower_hits");
    static TOWER_BUILDS: StaticCounter = StaticCounter::new("cache.tower_builds");
    let input = q.task.input();
    let facets = tower_facets(input, b);
    if facets > TOWER_FACET_CAP {
        return Err(BoundedOutcome::TooLarge { facets });
    }
    let memo = skeleton_memo();
    let ours = |skel: &Arc<Skeleton>| skel.tower().base().same_shape(input);
    if let Some(skel) = memo.get(&(q.shape, b)).filter(ours) {
        TOWER_HITS.incr();
        return Ok(skel);
    }
    let mut tower = match below {
        Some(below) => Arc::clone(below.tower()),
        None => (0..b)
            .rev()
            .find_map(|level| memo.get(&(q.shape, level)).filter(ours))
            .map_or_else(
                || Arc::new(arena_sds_tower(input, 0)),
                |skel| Arc::clone(skel.tower()),
            ),
    };
    while tower.rounds() < b {
        let next = tower.next_until(deadline);
        tower = Arc::new(next.ok_or(BoundedOutcome::TimedOut)?);
    }
    debug_assert_eq!(tower.rounds(), b);
    TOWER_BUILDS.incr();
    let skel = Skeleton::until(tower, deadline).ok_or(BoundedOutcome::TimedOut)?;
    Ok(Arc::new(skel))
}

/// Memoizes `skel` as the skeleton of its level of `q`'s input shape,
/// evicting the least recently used entry at [`TOWER_CACHE_CAP`]
/// (counted in `cache.tower_evictions`); an entry already there is kept.
pub(crate) fn keep_skeleton(q: &KeyedTask, skel: &Arc<Skeleton>) {
    static TOWER_EVICTIONS: StaticCounter = StaticCounter::new("cache.tower_evictions");
    let key = (q.shape, skel.tower().rounds());
    if skeleton_memo().insert(key, Arc::clone(skel)) {
        TOWER_EVICTIONS.incr();
    }
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
/// yields the same bytes. A store holds the compact rendering
/// (`.to_string()`), the only form [`validate_record`] accepts.
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

/// A checked witness: the skeleton it was checked on, and its dense image
/// table.
type Witness = (Arc<Skeleton>, Vec<VertexId>);

/// A stored record that passed [`read_record`]: what it says, with its
/// witness (if any) checked.
struct CheckedRecord<'a> {
    name: Cow<'a, str>,
    /// The length of the verdict vector `[[0, false], …]`.
    rounds: usize,
    /// Whether the last verdict is `true`; then `witness` holds it.
    solvable: bool,
    witness: Option<Witness>,
}

impl CheckedRecord<'_> {
    fn into_report(self) -> SolvabilityReport {
        let last = self.rounds - 1;
        let results = (0..self.rounds)
            .map(|b| (b, self.solvable && b == last))
            .collect();
        let witness = self.witness.map(|(skel, image)| {
            let map = SimplicialMap::from_pairs((0u32..).map(VertexId).zip(image.iter().copied()));
            DecisionMap::new(Arc::clone(skel.tower()), map)
        });
        SolvabilityReport::from_parts(self.name.into_owned(), results, witness)
    }
}

/// The refusal of a record that is not in its writer's form.
fn not_canonical(expected: &str) -> JsonError {
    JsonError::new(format!("record not canonical: expected {expected}"))
}

/// Reads a stored record in one pass over its bytes with the JSON
/// [`Reader`](json::Reader), accepting only the canonical text
/// `report_to_json(..).to_string()` writes, and checks it as the answer to
/// `(task, max_rounds)` — any bound when `max_rounds` is `None`:
///
/// - the text is regular ([`json::Reader::irregular`] stays 0: no
///   whitespace, shortest integers, strings escaped as the writer escapes
///   them), and the members `results`, `task`, `witness` (and `b`, `map`
///   inside a witness) come once each, in that order;
/// - the verdict vector is `[[0,false],…,[b,true]]` with `b ≤ max_rounds`
///   and a witness at `b`, or `max_rounds + 1` false verdicts and none;
/// - `SDS^b(I)` is at most [`TOWER_FACET_CAP`] facets, or the record is
///   refused before anything is built;
/// - the witness map is `[[0,w0],[1,w1],…]`, one pair per vertex of
///   `SDS^b(I)` in id order, decoded straight into the dense image table;
///   each image passes [`check_image`] as it is read, and the table then
///   passes [`check_simplices`] on the level's skeleton
///   ([`skeleton`]), with `q`'s own `Δ` tables.
///
/// The level's build, its classification and the tables' compile poll
/// `deadline`; a check it cuts short refuses the record, so the caller
/// takes it as a miss. The witness half is timed into the
/// `cache.revalidate_ns` histogram.
fn read_record<'a>(
    q: &KeyedTask,
    text: &'a str,
    max_rounds: Option<usize>,
    deadline: Option<Instant>,
) -> Result<CheckedRecord<'a>, String> {
    let mut r = json::Reader::new(text);
    let mut members = 0;
    let (mut verdicts, mut name, mut witness) = (None, None, None);
    let read = r
        .object(|r, key| {
            members += 1;
            match (members, key.as_ref(), verdicts) {
                (1, "results", _) => verdicts = Some(read_verdicts(r, max_rounds)?),
                (2, "task", _) => name = Some(r.string()?),
                (3, "witness", Some((rounds, solvable))) => {
                    witness = Some(read_witness(r, q, rounds, solvable, deadline)?);
                }
                _ => return Err(not_canonical("the members `results`, `task`, `witness`")),
            }
            Ok(())
        })
        .and_then(|()| r.finish())
        .and_then(|()| match r.irregular() {
            0 => Ok(()),
            _ => Err(not_canonical(
                "no whitespace, shortest integers, canonical escapes",
            )),
        });
    if let Err(e) = read {
        return Err(if e.is_syntax() {
            format!("record not canonical: {}", e.message())
        } else {
            e.message().to_string()
        });
    }
    match (verdicts, name, witness) {
        (Some((rounds, solvable)), Some(name), Some(witness)) => Ok(CheckedRecord {
            name,
            rounds,
            solvable,
            witness,
        }),
        _ => Err(
            "record not canonical: expected the members `results`, `task`, `witness`".to_string(),
        ),
    }
}

/// The verdict vector `[[0,false],…]` as `(its length, whether the last
/// round is solvable)`, refused unless it answers `max_rounds`.
fn read_verdicts(
    r: &mut json::Reader<'_>,
    max_rounds: Option<usize>,
) -> Result<(usize, bool), JsonError> {
    let (mut rounds, mut solvable) = (0, false);
    r.array(|r| {
        // the sweep stops at its first solvable round
        if solvable {
            return Err(not_canonical("no verdict past the solvable round"));
        }
        let (b, ok) = r.pair(|r| r.uint::<usize>(), json::Reader::bool)?;
        if b != rounds {
            return Err(not_canonical(&format!("the verdict for round {rounds}")));
        }
        rounds += 1;
        solvable = ok;
        Ok(())
    })?;
    match max_rounds {
        _ if rounds == 0 => Err(not_canonical("the verdict for round 0")),
        Some(m) if solvable && rounds > m + 1 => Err(JsonError::new(format!(
            "witness round {} exceeds max_rounds {m}",
            rounds - 1
        ))),
        Some(m) if !solvable && rounds != m + 1 => Err(JsonError::new(format!(
            "{rounds} refuted rounds do not answer max_rounds {m}"
        ))),
        _ => Ok((rounds, solvable)),
    }
}

/// The witness member: `null`, or `{"b":b,"map":[…]}` at the verdict
/// vector's solvable round, with its map checked.
fn read_witness(
    r: &mut json::Reader<'_>,
    q: &KeyedTask,
    rounds: usize,
    solvable: bool,
    deadline: Option<Instant>,
) -> Result<Option<Witness>, JsonError> {
    if r.peek()? == Token::Null {
        r.null()?;
        if solvable {
            return Err(JsonError::new("solvable verdict without a witness"));
        }
        return Ok(None);
    }
    let mut members = 0;
    let (mut b, mut checked) = (None, None);
    r.object(|r, key| {
        members += 1;
        match (members, key.as_ref(), b) {
            (1, "b", _) => {
                let round = r.uint::<usize>()?;
                if !solvable || round != rounds - 1 {
                    return Err(JsonError::new(
                        "witness round disagrees with verdict vector",
                    ));
                }
                b = Some(round);
            }
            (2, "map", Some(b)) => checked = Some(read_map(r, q, b, deadline)?),
            _ => return Err(not_canonical("the members `b`, `map`")),
        }
        Ok(())
    })?;
    checked
        .map(Some)
        .ok_or_else(|| not_canonical("the member `map`"))
}

/// The witness map `[[0,w0],[1,w1],…]` on `SDS^b(I)`, decoded into the
/// dense image table and checked as it is read, until `deadline`; the
/// level is memoized only once the witness passes.
fn read_map(
    r: &mut json::Reader<'_>,
    q: &KeyedTask,
    b: usize,
    deadline: Option<Instant>,
) -> Result<Witness, JsonError> {
    static REVALIDATE_NS: StaticHistogram = StaticHistogram::new("cache.revalidate_ns");
    let _timer = iis_obs::span::span_on(&REVALIDATE_NS);
    let invalid = |e: String| JsonError::new(format!("stored witness invalid: {e}"));
    let timed_out = || {
        JsonError::new(format!(
            "deadline exceeded: witness check stopped at b = {b}"
        ))
    };
    let skel = match skeleton(q, b, None, deadline) {
        Ok(skel) => skel,
        Err(stop) => {
            // the object reader takes a refused member as read only once
            // its value is consumed
            r.skip()?;
            return Err(match stop {
                BoundedOutcome::TimedOut => timed_out(),
                _ => JsonError::new(stopped_at(b, &stop)),
            });
        }
    };
    let n = skel.tower().complex().num_vertices();
    let mut image = Vec::with_capacity(n);
    r.uint_pairs(|source: u32, w: u32| {
        let v = VertexId(image.len() as u32);
        if source != v.0 || image.len() == n {
            return Err(not_canonical(&format!("the pair of vertex {v}")));
        }
        let w = VertexId(w);
        check_image(&skel, q.task.output(), v, w).map_err(invalid)?;
        image.push(w);
        Ok(())
    })?;
    if image.len() < n {
        return Err(invalid(format!("vertex {} unmapped", image.len())));
    }
    let level = skel.resolve(q, deadline).map_err(|_| timed_out())?;
    check_simplices(&skel, level.classes(), &image).map_err(invalid)?;
    keep_skeleton(q, &skel);
    Ok((skel, image))
}

/// Reads and **re-validates** a record produced by [`report_to_json`],
/// answering any round bound: the tree is rendered compactly and read as
/// [`validate_record`] reads stored text, so a tree that is not a
/// canonical record is refused.
///
/// The witness's subdivision `SDS^b(I)` is taken from the process-wide
/// skeleton memo under `task`'s input shape (built on a miss, unless it
/// is past [`TOWER_FACET_CAP`] — Lemma 3.3: `SDS^b(I)` is canonical), and
/// the stored vertex map must pass the same
/// Proposition 3.1 conditions as the reference
/// [`validate_decision_map`](crate::solvability::validate_decision_map)
/// (simpliciality, color preservation, `δ(s) ∈ Δ(carrier(s))` for every
/// simplex), checked as one `Δ`-table probe per simplex of the skeleton. A
/// bare task compiles its `Δ` tables for this call; an interned one
/// ([`validate_record`]) keeps them. The returned witness's
/// [`DecisionMap`] lives on the skeleton's label-free tower — the same
/// instance the check read, and vertex for vertex the reference
/// `SDS^b(I)` over `task`'s own labels.
///
/// # Errors
///
/// Returns a description of the first structural or semantic defect; the
/// caller should treat any error as a cache miss.
pub fn report_from_json(task: &Task, v: &Json) -> Result<SolvabilityReport, String> {
    let text = v.to_string();
    read_record(&KeyedTask::new(task.clone()), &text, None, None).map(CheckedRecord::into_report)
}

/// Checks stored record text as the answer to `(keyed, max_rounds)` — the
/// warm path of a service that replays the stored bytes. One pass over
/// the bytes, no JSON tree: the record must be exactly the canonical text
/// `report_to_json(..).to_string()` writes (so the bytes served are the
/// bytes checked), its verdict vector must answer `max_rounds`, and its
/// witness must pass [`report_from_json`]'s revalidation, with the keyed
/// task's own `Δ` tables, compiled on its first check or search and kept.
/// The check gives up at `deadline` (the asking job's), refusing the
/// record: a witness on a level that takes seconds to build cannot hold a
/// job past its deadline.
///
/// # Errors
///
/// Returns a description of the first defect; the caller should treat
/// any error as a cache miss.
///
/// # Examples
///
/// ```
/// use iis_core::cache::{intern_spec, report_to_json, validate_record};
/// use iis_core::solvability::solve_up_to;
///
/// let keyed = intern_spec("eps:1:3").unwrap();
/// let text = report_to_json(&solve_up_to(keyed.task(), 2)).to_string();
/// assert_eq!(validate_record(&keyed, 2, &text, None), Ok(()));
/// // a stored answer to b ≤ 2 (solvable at b = 1) does not answer b ≤ 0
/// assert!(validate_record(&keyed, 0, &text, None).is_err());
/// // and only the canonical bytes are a record
/// assert!(validate_record(&keyed, 2, &text.replacen(',', ", ", 1), None).is_err());
/// ```
pub fn validate_record(
    keyed: &KeyedTask,
    max_rounds: usize,
    text: &str,
    deadline: Option<Instant>,
) -> Result<(), String> {
    read_record(keyed, text, Some(max_rounds), deadline).map(|_| ())
}

/// A record an [`AnswerMemo`] holds: stored text this process read from
/// its store and checked with [`validate_record`] for one task and bound.
#[derive(Clone)]
struct Verified {
    record: Arc<str>,
    max_rounds: usize,
    /// The interned task the record was checked against. The `Weak` keeps
    /// that task's allocation (not the task) alive while the entry lives,
    /// so no other task can be allocated at its address: comparing
    /// addresses is comparing tasks.
    task: Weak<KeyedTask>,
}

/// A service's memo of verified answers: cache key → record text that
/// this process read from its own store and checked with
/// [`validate_record`] against the asking task, so a re-ask of that task
/// at that bound is one map lookup, with no store read and no witness
/// check.
///
/// Proposition 3.1 makes the answer a pure function of `(task, b)`, and
/// the store is first-write-wins, so the bytes a key's record was checked
/// to be cannot change under it: a second check of them could only repeat
/// the first one's verdict. The memo keeps that soundness by four rules
/// (DESIGN.md §13, "Why a memo of verified bytes is sound"):
///
/// - **Owned by the service**, beside its store handle — never a
///   process-wide static — so two services on two stores never share an
///   answer, and a memo hit still means the service's own store handed
///   over these bytes.
/// - **Filled only from the store**: [`AnswerMemo::answer`] holds only
///   what it read from the store and validated, never the solver's own
///   rendering, so a put that lost the first-write race is never served.
/// - **Keyed by the checking task**: an entry is a hit only for the same
///   `max_rounds` and the very same interned [`KeyedTask`] (by address)
///   it was checked against. FNV-1a is not collision-resistant, so
///   another task whose key collides falls through to revalidation.
///   Inline tasks (`{"task": …}`) never hit and are never held: each is
///   keyed afresh per question, so its entry could never be found again
///   — and neither is a spec's task re-interned after an eviction,
///   whose first ask revalidates and replaces the entry.
/// - **Bounded by bytes**: the records held, each with a fixed
///   per-entry overhead, total at most [`ANSWER_MEMO_BYTES`], least
///   recently used evicted first, and a record past
///   [`ANSWER_MEMO_RECORD_CAP`] is not held.
///
/// Hits and evictions are counted in `cache.answer_hits` and
/// `cache.answer_evictions`; the gauge `cache.answer_bytes` follows the
/// bytes held, overhead included (a process serves one store, so one
/// memo).
pub struct AnswerMemo {
    answers: Lru<u64, Verified>,
    record_cap: usize,
    bytes: Gauge,
}

impl Default for AnswerMemo {
    /// An empty memo of [`ANSWER_MEMO_BYTES`]; registers its gauge.
    fn default() -> AnswerMemo {
        AnswerMemo::with_budget(ANSWER_MEMO_BYTES, ANSWER_MEMO_RECORD_CAP)
    }
}

impl AnswerMemo {
    fn with_budget(budget: usize, record_cap: usize) -> AnswerMemo {
        AnswerMemo {
            answers: Lru::new(budget),
            record_cap,
            bytes: Gauge::handle("cache.answer_bytes"),
        }
    }

    /// The verified record answering `(keyed, max_rounds)`: from the memo
    /// when this very task was checked at this bound, else read from
    /// `cache`, checked with [`validate_record`] until `deadline`, and
    /// (for an interned task) held. `None` when the store holds no record
    /// that checks in time; an invalid one is traced as
    /// `cache.invalid_record`.
    pub fn answer(
        &self,
        keyed: &Arc<KeyedTask>,
        max_rounds: usize,
        cache: &mut dyn SolveCache,
        deadline: Option<Instant>,
    ) -> Option<Arc<str>> {
        static ANSWER_HITS: StaticCounter = StaticCounter::new("cache.answer_hits");
        static ANSWER_EVICTIONS: StaticCounter = StaticCounter::new("cache.answer_evictions");
        let key = keyed.key(max_rounds);
        let held = self.answers.get(&key);
        if let Some(held) = &held {
            if held.max_rounds == max_rounds && held.task.as_ptr() == Arc::as_ptr(keyed) {
                ANSWER_HITS.incr();
                return Some(Arc::clone(&held.record));
            }
        }
        let text = cache.get(key)?;
        if let Err(e) = validate_record(keyed, max_rounds, &text, deadline) {
            invalid_record(&keyed.task, e);
            return None;
        }
        let record: Arc<str> = text.into();
        if keyed.interned && record.len() <= self.record_cap {
            if held.is_some() {
                // checked for another task, or for this spec before it
                // was re-interned: this check supersedes it
                self.answers.remove(&key);
            }
            let verified = Verified {
                record: Arc::clone(&record),
                max_rounds,
                task: Arc::downgrade(keyed),
            };
            let weight = record.len() + ANSWER_ENTRY_OVERHEAD;
            let evicted = self.answers.insert_weighted(key, verified, weight);
            ANSWER_EVICTIONS.add(evicted as u64);
            self.bytes.set(self.answers.weight() as i64);
        }
        Some(record)
    }
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
    solve_cached(&KeyedTask::new(task.clone()), max_rounds, opts, cache)
}

/// What a service's sweep settled on.
pub enum Answered {
    /// A decided answer's canonical record text; `hit` iff it was the
    /// stored record rather than a fresh solve.
    Record {
        /// The record text.
        text: Arc<str>,
        /// Whether it came from the store (through the memo).
        hit: bool,
    },
    /// The sweep stopped undecided; nothing was stored. The report names
    /// the limit that stopped it ([`SolvabilityReport::stopped`]): the node
    /// budget, the deadline, or a tower past the cap.
    Undecided(SolvabilityReport),
}

/// [`solve_up_to_cached`] for a service that replays stored bytes, on an
/// already-keyed task (an interned spec or a keyed inline task): the
/// record answering `(keyed, max_rounds)` from [`AnswerMemo::answer`] —
/// the one lookup a service's admission and its workers share — else
/// the sweep, compiled against the task's own `Δ` tables with no
/// re-serialization of the task to find its key, whose decided result is
/// persisted and rendered once. The check and the sweep share one
/// deadline, `opts`'s timeout from the call. The counters
/// `solve.cache_store_hits` / `solve.cache_store_misses` account every
/// call.
pub fn answer_keyed(
    keyed: &Arc<KeyedTask>,
    max_rounds: usize,
    opts: &SolveOptions,
    cache: &mut dyn SolveCache,
    memo: &AnswerMemo,
) -> Answered {
    let deadline = opts.deadline();
    if let Some(text) = memo.answer(keyed, max_rounds, cache, deadline) {
        STORE_HITS.incr();
        return Answered::Record { text, hit: true };
    }
    match sweep(keyed, max_rounds, opts, deadline, cache) {
        (_, Some(text)) => Answered::Record {
            text: text.into(),
            hit: false,
        },
        (report, None) => Answered::Undecided(report),
    }
}

static STORE_HITS: StaticCounter = StaticCounter::new("solve.cache_store_hits");

/// A stored record that failed its check is a miss, not a crash: the
/// caller recomputes, first-write-wins keeps the bad bytes from being
/// replaced silently, and the trace records what happened.
fn invalid_record(task: &Task, error: String) {
    iis_obs::trace::event(
        "cache.invalid_record",
        task.name(),
        &[("error", Json::Str(error))],
    );
}

fn solve_cached(
    q: &KeyedTask,
    max_rounds: usize,
    opts: &SolveOptions,
    cache: &mut dyn SolveCache,
) -> CachedSolve {
    let key = q.key(max_rounds);
    let deadline = opts.deadline();
    if let Some(text) = cache.get(key) {
        match read_record(q, &text, Some(max_rounds), deadline) {
            Ok(record) => {
                STORE_HITS.incr();
                return CachedSolve {
                    report: record.into_report(),
                    hit: true,
                    key,
                };
            }
            Err(e) => invalid_record(&q.task, e),
        }
    }
    CachedSolve {
        report: sweep(q, max_rounds, opts, deadline, cache).0,
        hit: false,
        key,
    }
}

/// The sweep of a question the cache did not answer (counted in
/// `solve.cache_store_misses`), until `deadline`, with a decided result
/// persisted under the question's key: the report, and the record text
/// stored when it decided.
fn sweep(
    q: &KeyedTask,
    max_rounds: usize,
    opts: &SolveOptions,
    deadline: Option<Instant>,
    cache: &mut dyn SolveCache,
) -> (SolvabilityReport, Option<String>) {
    static STORE_MISSES: StaticCounter = StaticCounter::new("solve.cache_store_misses");
    STORE_MISSES.incr();
    let report = Solver::until(q, *opts, deadline).sweep(max_rounds);
    // only a decided sweep (a witness, or every round refuted) is stored
    let decided = report.stopped().is_none();
    let record = decided.then(|| report_to_json(&report).to_string());
    if let Some(text) = &record {
        cache.put(q.key(max_rounds), text);
    }
    (report, record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvability::solve_up_to_opts;
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
    fn warm_record_is_bit_identical_to_a_fresh_solve() {
        // a cache hit replays the exact bytes a fresh solve produces
        let t = approximate_agreement(1, 3);
        let mut cold_cache = HashMap::new();
        let cold = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cold_cache);
        let cold_bytes = report_to_json(&cold.report).to_string();
        let mut cache = HashMap::new();
        let fresh = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(!fresh.hit);
        assert_eq!(report_to_json(&fresh.report).to_string(), cold_bytes);
        let warm = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(warm.hit);
        assert_eq!(report_to_json(&warm.report).to_string(), cold_bytes);
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

    /// A one-color input of `k` isolated vertices: `k` distinct shapes
    /// for `k` distinct values, each with a trivially cheap tower.
    fn isolated_points(k: u64) -> Complex {
        let mut c = Complex::new();
        for i in 0..k {
            let v = c.ensure_vertex(iis_topology::Color(0), iis_topology::Label::scalar(i));
            c.add_facet([v]);
        }
        c
    }

    /// The identity task on [`isolated_points`]`(k)`, keyed.
    fn points_task(k: u64) -> KeyedTask {
        let input = isolated_points(k);
        let mut b = iis_tasks::TaskBuilder::new("points", input.clone(), input.clone());
        for v in input.vertex_ids() {
            b.allow(Simplex::new([v]), Simplex::new([v]));
        }
        KeyedTask::new(b.build().unwrap())
    }

    /// The skeleton a stored witness on `SDS^b(I)` is checked against,
    /// looked up or built, then kept as a witness that passed keeps it.
    fn skeleton_of(q: &KeyedTask, b: usize) -> Arc<Skeleton> {
        let skel = skeleton(q, b, None, None).expect("under the cap, no deadline");
        keep_skeleton(q, &skel);
        skel
    }

    #[test]
    fn tower_memo_evicts_lru_instead_of_clearing() {
        // cycle more distinct (shape, b) keys than the cap: the memo must
        // stay bounded and keep the recently-used entries, evicting only
        // the coldest. b=0 towers are cheap, so the pressure is realistic.
        let tasks: Vec<KeyedTask> = (1..=TOWER_CACHE_CAP as u64 + 8).map(points_task).collect();
        let hot = KeyedTask::new(trivial(1));
        for q in &tasks {
            skeleton_of(&hot, 0); // keep one entry hot throughout
            skeleton_of(q, 0);
        }
        let memo = skeleton_memo();
        assert!(
            memo.len() <= TOWER_CACHE_CAP,
            "memo exceeded its cap: {}",
            memo.len()
        );
        assert!(
            memo.contains_key(&(hot.shape, 0usize)),
            "the constantly-reused entry must survive eviction pressure"
        );
    }

    #[test]
    fn shapes_ignore_labels_but_not_colors() {
        let specs = ["eps:1:3", "eps:1:9", "eps:1:27"];
        let tasks: Vec<Task> = specs.iter().map(|s| parse_spec(s).unwrap()).collect();
        let shape = shape_key(tasks[0].input());
        for t in &tasks {
            assert_eq!(shape_key(t.input()), shape, "{}", t.name());
        }
        assert!(
            !tasks[0].input().same_labeled(tasks[1].input()),
            "the shared shape must carry different labels"
        );
        // the same input with its two colors swapped: same labels and
        // facets, another shape
        let input = tasks[0].input();
        let mut swapped = Complex::new();
        let ids: Vec<_> = input
            .vertex_ids()
            .map(|v| {
                let c = iis_topology::Color(1 - input.color(v).0);
                swapped.ensure_vertex(c, input.label(v).clone())
            })
            .collect();
        for f in input.facets() {
            swapped.add_facet(f.iter().map(|v| ids[v.index()]));
        }
        assert_ne!(shape_key(&swapped), shape);
        // and a different vertex count
        assert_ne!(
            shape_key(&isolated_points(2)),
            shape_key(&isolated_points(3))
        );
    }

    #[test]
    fn equal_shapes_share_one_skeleton_and_answer_as_if_unshared() {
        let tasks: Vec<Task> = ["eps:1:3", "eps:1:9", "eps:1:27"]
            .iter()
            .map(|s| parse_spec(s).unwrap())
            .collect();
        let keyed: Vec<KeyedTask> = tasks.iter().cloned().map(KeyedTask::new).collect();
        for b in 0..=2 {
            let first = skeleton_of(&keyed[0], b);
            for q in &keyed[1..] {
                assert!(
                    Arc::ptr_eq(&first, &skeleton_of(q, b)),
                    "{} b={b}",
                    q.task().name()
                );
            }
        }
        for t in &tasks {
            // the reference engine grows its own labelled tower and never
            // touches the memo: its verdicts and witness are the unshared
            // answer
            let report = solve_up_to_opts(t, 3, &SolveOptions::new());
            for &(b, ok) in report.results() {
                let unshared = crate::reference::solve_mac(t, b, u64::MAX).unwrap();
                assert_eq!(unshared.is_some(), ok, "{} b={b}", t.name());
            }
            let w = report.witness().expect("ε-agreement is solvable");
            let unshared = crate::reference::solve_mac(t, w.rounds(), u64::MAX);
            assert_eq!(
                w.map().pairs(),
                unshared.unwrap().unwrap().pairs(),
                "{}",
                t.name()
            );
            let own = iis_topology::sds_iterated(t.input(), w.rounds());
            assert_eq!(w.tower().agrees_with(&own), Ok(()), "{}", t.name());
            // the keyed sweep, on the task's own tables, writes the same
            // record
            let text = report_to_json(&report).to_string();
            let keyed = Arc::new(KeyedTask::new(t.clone()));
            let opts = SolveOptions::new();
            let memo = AnswerMemo::default();
            match answer_keyed(&keyed, 3, &opts, &mut HashMap::new(), &memo) {
                Answered::Record {
                    text: keyed_text,
                    hit,
                } => {
                    assert_eq!((&*keyed_text, hit), (text.as_str(), false));
                }
                Answered::Undecided(_) => panic!("{} is decided", t.name()),
            }
            // a stored record replays onto the shared skeleton, which is
            // the task's own `SDS^b(I)` with labels forgotten
            let back = report_from_json(t, &Json::parse(&text).unwrap()).unwrap();
            let w = back.witness().unwrap();
            let own = iis_topology::sds_iterated(t.input(), w.rounds());
            assert_eq!(w.tower().agrees_with(&own), Ok(()));
        }
    }

    #[test]
    fn spec_interner_evicts_lru_instead_of_clearing() {
        // the same pressure on the interner: more distinct specs than the
        // cap, one spec asked between every two others
        let hot = "trivial:1";
        for k in 2..2 + SPEC_INTERN_CAP + 8 {
            intern_spec(hot).unwrap();
            intern_spec(&format!("eps:0:{k}")).unwrap();
        }
        let specs = spec_interner();
        assert!(
            specs.len() <= SPEC_INTERN_CAP,
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

    #[test]
    fn a_weighted_lru_evicts_coldest_first_within_its_cap() {
        let lru: Lru<u32, u32> = Lru::new(10);
        assert_eq!(lru.insert_weighted(1, 10, 4), 0);
        assert_eq!(lru.insert_weighted(2, 20, 4), 0);
        assert_eq!(lru.get(&1), Some(10)); // 2 is now the coldest
        assert_eq!(lru.insert_weighted(3, 30, 5), 1, "2 makes room");
        assert_eq!((lru.get(&2), lru.weight()), (None, 9));
        assert_eq!(lru.insert_weighted(4, 40, 10), 2, "both others go");
        assert_eq!((lru.len(), lru.weight()), (1, 10));
        assert_eq!(lru.insert_weighted(5, 50, 11), 0, "heavier than the cap");
        assert!(!lru.contains_key(&5) && lru.contains_key(&4));
        lru.remove(&4);
        assert_eq!((lru.len(), lru.weight()), (0, 0));
        // recency survives many touches: the index keeps one tick per key
        for k in 0..5 {
            lru.insert_weighted(k, k, 2);
        }
        for _ in 0..100 {
            lru.get(&0);
        }
        assert_eq!(lru.insert_weighted(9, 9, 2), 1);
        assert!(lru.contains_key(&0) && !lru.contains_key(&1));
    }

    /// A store holding `spec`'s record at bound `b`, and its text.
    fn stored(spec: &str, b: usize) -> (Arc<KeyedTask>, HashMap<u64, String>, String) {
        let keyed = intern_spec(spec).unwrap();
        let mut store = HashMap::new();
        solve_up_to_cached(keyed.task(), b, &SolveOptions::new(), &mut store);
        let text = store[&keyed.key(b)].clone();
        (keyed, store, text)
    }

    #[test]
    fn a_verified_answer_is_served_only_to_its_task_and_bound() {
        let (keyed, mut store, text) = stored("eps:1:3", 2);
        let memo = AnswerMemo::default();
        let empty = || HashMap::<u64, String>::new();
        assert_eq!(
            memo.answer(&keyed, 2, &mut store, None).as_deref(),
            Some(&*text)
        );
        // a hit needs no store
        assert_eq!(
            memo.answer(&keyed, 2, &mut empty(), None).as_deref(),
            Some(&*text)
        );
        // another bound of the same task misses, even under a forged key
        assert_eq!(memo.answer(&keyed, 3, &mut empty(), None), None);
        assert_eq!(memo.answer(&keyed, 1, &mut empty(), None), None);
        let forged = Verified {
            record: text.as_str().into(),
            max_rounds: 2,
            task: Arc::downgrade(&keyed),
        };
        memo.answers.insert_weighted(keyed.key(3), forged, 1);
        assert_eq!(memo.answer(&keyed, 3, &mut empty(), None), None);
        // another task whose key collides is not served the record
        let other = Arc::new(KeyedTask {
            key_prefix: OnceLock::from(keyed.key_prefix()),
            interned: true,
            ..KeyedTask::new(consensus(1, &[0, 1]))
        });
        assert_eq!(other.key(2), keyed.key(2));
        assert_eq!(memo.answer(&other, 2, &mut empty(), None), None);
        // and the record does not check for it: revalidation refuses it
        assert_eq!(memo.answer(&other, 2, &mut store, None), None);
        assert_eq!(
            memo.answer(&keyed, 2, &mut empty(), None).as_deref(),
            Some(&*text)
        );
        // an inline task (keyed per question) is answered, never held
        let inline = Arc::new(KeyedTask::new(keyed.task().clone()));
        assert_eq!(
            memo.answer(&inline, 2, &mut store, None).as_deref(),
            Some(&*text)
        );
        assert_eq!(memo.answer(&inline, 2, &mut empty(), None), None);
    }

    #[test]
    fn a_verified_answer_memo_holds_at_most_its_budget() {
        let records: Vec<_> = (2..12).map(|k| stored(&format!("eps:0:{k}"), 1)).collect();
        let longest = records.iter().map(|(_, _, t)| t.len()).max().unwrap();
        let budget = 3 * (longest + ANSWER_ENTRY_OVERHEAD);
        let memo = AnswerMemo::with_budget(budget, longest);
        for (keyed, store, text) in &records {
            let answer = memo.answer(keyed, 1, &mut store.clone(), None);
            assert_eq!(answer.as_deref(), Some(text.as_str()));
            assert!(memo.answers.weight() <= budget);
            assert!(
                memo.answers.contains_key(&keyed.key(1)),
                "the newest is held"
            );
        }
        assert!(memo.answers.len() < records.len(), "nothing was evicted");
        // a record past the record cap is answered and never held
        let (big, mut store, text) = stored("eps:1:3", 2);
        assert!(text.len() > longest);
        assert_eq!(
            memo.answer(&big, 2, &mut store, None).as_deref(),
            Some(&*text)
        );
        assert!(!memo.answers.contains_key(&big.key(2)));
        assert!(memo.answers.weight() <= budget);
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
    fn keys_built_either_way_equal_cache_key_and_render_only_when_asked() {
        for spec in SPECS.iter().chain(&["eps:2:2", "eps:3:2", "kset:4:3"]) {
            let task = parse_spec(spec).unwrap();
            let fresh = KeyedTask::new(task.clone());
            assert!(fresh.key_prefix.get().is_none(), "{spec}: rendered unasked");
            // an inline task read as canonical text is keyed by its span
            let body = format!(r#"{{"task": {}}}"#, task.canonical_json());
            let read = read_question(&body)
                .unwrap()
                .resolve(|source| match source {
                    QuestionTask::Inline(keyed) => Ok(keyed),
                    QuestionTask::Spec(_) => Err("an inline task".to_string()),
                })
                .unwrap()
                .task;
            assert!(read.key_prefix.get().is_some(), "{spec}: span not kept");
            for b in 0..=6 {
                assert_eq!(fresh.key(b), cache_key(&task, b), "{spec} b={b}");
                assert_eq!(read.key(b), cache_key(&task, b), "{spec} b={b}");
            }
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
        // a thread panics while holding each memo's lock, and an interned
        // task's table lock
        let keyed = intern_spec("eps:1:5").unwrap();
        let held = Arc::clone(&keyed);
        let poisoned = std::thread::spawn(move || {
            let _towers = skeleton_memo().lock();
            let _specs = spec_interner().lock();
            let _tables = held.tables.lock();
            panic!("poison the memos");
        })
        .join();
        assert!(poisoned.is_err());
        assert!(skeleton_memo().inner.is_poisoned());
        let warm = solve_up_to_cached(&t, 2, &SolveOptions::new(), &mut cache);
        assert!(warm.hit, "a poisoned memo must not fail revalidation");
        let text = SolveCache::get(&mut cache, keyed.key(2)).unwrap();
        validate_record(&keyed, 2, &text, None).unwrap();
    }

    #[test]
    fn validate_record_agrees_with_report_from_json() {
        let t = approximate_agreement(1, 3);
        let keyed = KeyedTask::new(t.clone());
        let good = report_to_json(&solve_up_to_opts(&t, 2, &SolveOptions::new()));
        assert!(validate_record(&keyed, 2, &good.to_string(), None).is_ok());
        assert!(report_from_json(&t, &good).is_ok());
        let bad = "{\"results\":[[0,true]],\"task\":\"x\",\
                   \"witness\":{\"b\":0,\"map\":[[0,1],[1,0]]}}";
        assert_eq!(
            validate_record(&keyed, 2, bad, None).unwrap_err(),
            report_from_json(&t, &Json::parse(bad).unwrap()).unwrap_err()
        );
    }

    /// The `eps:1:3` answer to `max_rounds = 2` (solvable at b = 1), its
    /// keyed task, and its canonical record text.
    fn eps_1_3_record() -> (Task, KeyedTask, String) {
        let t = approximate_agreement(1, 3);
        let text = report_to_json(&solve_up_to_opts(&t, 2, &SolveOptions::new())).to_string();
        assert!(
            text.starts_with("{\"results\":[[0,false],[1,true]],"),
            "{text}"
        );
        (t.clone(), KeyedTask::new(t), text)
    }

    /// Files `text` under `(t, max_rounds)` and asks that question: a
    /// record that does not answer it must be a miss, answered fresh,
    /// with the bad bytes kept (first write wins).
    fn assert_refused(t: &Task, max_rounds: usize, text: &str) {
        let mut cache = HashMap::new();
        SolveCache::put(&mut cache, cache_key(t, max_rounds), text);
        let out = solve_up_to_cached(t, max_rounds, &SolveOptions::new(), &mut cache);
        assert!(
            !out.hit,
            "served a record that does not answer b ≤ {max_rounds}: {text}"
        );
        let fresh = solve_up_to_opts(t, max_rounds, &SolveOptions::new());
        assert_eq!(
            report_to_json(&out.report).to_string(),
            report_to_json(&fresh).to_string()
        );
        assert_eq!(
            SolveCache::get(&mut cache, cache_key(t, max_rounds)).as_deref(),
            Some(text)
        );
    }

    #[test]
    fn a_record_must_answer_the_round_bound_asked() {
        let (t, keyed, text) = eps_1_3_record();
        // solvable at b = 1 answers every bound from 1 up
        for b in 1..=3 {
            assert_eq!(validate_record(&keyed, b, &text, None), Ok(()), "b={b}");
        }
        assert_refused(&t, 0, &text);
        // a refutation answers exactly its own bound
        let c = consensus(1, &[0, 1]);
        let refuted = report_to_json(&solve_up_to_opts(&c, 2, &SolveOptions::new())).to_string();
        let keyed = KeyedTask::new(c.clone());
        assert_eq!(validate_record(&keyed, 2, &refuted, None), Ok(()));
        assert!(validate_record(&keyed, 1, &refuted, None).is_err());
        assert_refused(&c, 1, &refuted);
        assert_refused(&c, 3, &refuted);
    }

    #[test]
    fn a_gapped_verdict_vector_is_refused() {
        let (t, _, text) = eps_1_3_record();
        let gapped = text.replacen("[[0,false],[1,true]]", "[[1,true]]", 1);
        assert_refused(&t, 2, &gapped);
    }

    #[test]
    fn a_stray_map_pair_is_refused() {
        let (t, _, text) = eps_1_3_record();
        let stray = text.replacen("]]}}", "],[99999,0]]}}", 1);
        assert_ne!(stray, text);
        assert_refused(&t, 2, &stray);
    }

    #[test]
    fn a_duplicate_map_source_is_refused() {
        // a map keyed by source would keep the last pair and accept this
        let (t, _, text) = eps_1_3_record();
        let duplicate = text.replacen("\"map\":[", "\"map\":[[1,0],", 1);
        assert_ne!(duplicate, text);
        assert_refused(&t, 2, &duplicate);
    }

    #[test]
    fn a_record_with_added_whitespace_is_refused() {
        // the shard serves stored bytes verbatim, so only the canonical
        // bytes may be served
        let (t, _, text) = eps_1_3_record();
        let spaced = text.replacen(",", ", ", 1);
        assert_eq!(Json::parse(&spaced).unwrap().to_string(), text);
        assert_refused(&t, 2, &spaced);
    }

    #[test]
    fn escaped_task_names_are_read_canonically() {
        let (t, keyed, text) = eps_1_3_record();
        let named = |name: &str| {
            let mut lit = String::new();
            iis_obs::json::write_string(&mut lit, name);
            text.replacen(&format!("\"{}\"", t.name()), &lit, 1)
        };
        for name in ["with \"quotes\" and \\", "tab\tand\u{1}", "ε-agreement"] {
            let rec = named(name);
            assert_eq!(validate_record(&keyed, 2, &rec, None), Ok(()), "{rec}");
            let back = report_from_json(&t, &Json::parse(&rec).unwrap()).unwrap();
            assert_eq!(back.task_name(), name);
        }
        // the same names, escaped otherwise, and a raw control byte
        for rec in [
            named("a/b").replace('/', "\\/"),
            named("é").replace('é', "\\u00e9"),
            named("\u{1f}").replace("\\u001f", "\\u001F"),
            named("\n").replace("\\n", "\\u000a"),
            named("\t").replace("\\t", "\t"),
        ] {
            assert!(validate_record(&keyed, 2, &rec, None).is_err(), "{rec}");
        }
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
        // the replayed witness lives on the tower the search ran on
        let (c, cb) = (w.tower().complex(), wb.tower().complex());
        assert_eq!(c.num_vertices(), cb.num_vertices());
        assert_eq!(c.num_facets(), cb.num_facets());
        let sub = iis_topology::sds_iterated(t.input(), wb.rounds());
        crate::solvability::validate_decision_map(&t, &sub, wb.map()).unwrap();
    }

    /// The record reader this crate used before records were read by
    /// `json::Reader`: a hand-written lexer over the canonical bytes, kept
    /// as the oracle of the record differential below.
    mod lexer_oracle {
        use super::super::{skeleton, KeyedTask};
        use crate::solvability::{check_image, check_simplices};
        use iis_obs::Json;
        use iis_topology::VertexId;

        struct Lexer<'a> {
            text: &'a str,
            at: usize,
        }

        impl Lexer<'_> {
            fn fail<T>(&self, expected: &str) -> Result<T, String> {
                Err(format!("at byte {}: expected {expected}", self.at))
            }

            fn eat(&mut self, lit: &str) -> bool {
                let hit = self.text.as_bytes()[self.at..].starts_with(lit.as_bytes());
                if hit {
                    self.at += lit.len();
                }
                hit
            }

            fn lit(&mut self, lit: &str) -> Result<(), String> {
                if self.eat(lit) {
                    Ok(())
                } else {
                    self.fail(lit)
                }
            }

            fn uint(&mut self) -> Result<usize, String> {
                let bytes = &self.text.as_bytes()[self.at..];
                let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
                if digits == 0 || (digits > 1 && bytes[0] == b'0') {
                    return self.fail("an integer");
                }
                let mut n: usize = 0;
                for &d in &bytes[..digits] {
                    n = match n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add((d - b'0') as usize))
                    {
                        Some(n) => n,
                        None => return self.fail("a smaller integer"),
                    };
                }
                self.at += digits;
                Ok(n)
            }

            fn bool(&mut self) -> Result<bool, String> {
                if self.eat("true") {
                    Ok(true)
                } else if self.eat("false") {
                    Ok(false)
                } else {
                    self.fail("`true` or `false`")
                }
            }

            fn string(&mut self) -> Result<(), String> {
                let rest = &self.text[self.at..];
                let Some(body) = rest.strip_prefix('"') else {
                    return self.fail("a string");
                };
                let mut escaped = false;
                let end = body.bytes().position(|b| {
                    let close = b == b'"' && !escaped;
                    escaped = b == b'\\' && !escaped;
                    close
                });
                let Some(end) = end else {
                    return self.fail("a closing `\"`");
                };
                let raw = &body[..end];
                let literal = &rest[..end + 2];
                if raw.bytes().any(|b| b == b'\\' || b < 0x20) {
                    let canonical = Json::parse(literal)
                        .ok()
                        .and_then(|j| j.as_str().map(str::to_string))
                        .is_some_and(|s| {
                            let mut again = String::new();
                            iis_obs::json::write_string(&mut again, &s);
                            again == literal
                        });
                    if !canonical {
                        return self.fail("a canonically escaped string");
                    }
                }
                self.at += literal.len();
                Ok(())
            }
        }

        /// Whether the lexer accepts `text` as the answer to
        /// `(q, max_rounds)`.
        pub(super) fn accepts(q: &KeyedTask, text: &str, max_rounds: usize) -> Result<(), String> {
            let mut r = Lexer { text, at: 0 };
            r.lit("{\"results\":[")?;
            let mut rounds = 0;
            let solvable = loop {
                r.lit("[")?;
                if r.uint()? != rounds {
                    return r.fail("the next round");
                }
                r.lit(",")?;
                let ok = r.bool()?;
                r.lit("]")?;
                rounds += 1;
                if ok {
                    r.lit("]")?;
                    break true;
                }
                if r.eat("]") {
                    break false;
                }
                r.lit(",")?;
            };
            if (solvable && rounds > max_rounds + 1) || (!solvable && rounds != max_rounds + 1) {
                return Err("does not answer max_rounds".to_string());
            }
            r.lit(",\"task\":")?;
            r.string()?;
            r.lit(",\"witness\":")?;
            if r.eat("null") {
                if solvable {
                    return Err("solvable verdict without a witness".to_string());
                }
            } else {
                r.lit("{\"b\":")?;
                let b = r.uint()?;
                if !solvable || b != rounds - 1 {
                    return Err("witness round disagrees".to_string());
                }
                r.lit(",\"map\":[")?;
                let skel = skeleton(q, b, None, None).unwrap();
                let n = skel.tower().complex().num_vertices();
                let mut image = Vec::with_capacity(n);
                for v in (0..n as u32).map(VertexId) {
                    if v.0 > 0 && !r.eat(",") {
                        return Err(format!("vertex {v} unmapped"));
                    }
                    r.lit("[")?;
                    if r.uint()? != v.index() {
                        return r.fail("the pair of the next vertex");
                    }
                    r.lit(",")?;
                    let w = r.uint()?;
                    r.lit("]")?;
                    let w = VertexId(u32::try_from(w).unwrap_or(u32::MAX));
                    check_image(&skel, q.task().output(), v, w)?;
                    image.push(w);
                }
                r.lit("]}")?;
                let level = skel.resolve(q, None).expect("no deadline");
                check_simplices(&skel, level.classes(), &image)?;
            }
            r.lit("}")?;
            if r.at != text.len() {
                return r.fail("the end of the record");
            }
            Ok(())
        }
    }

    /// `text` with one edit of the kinds a non-canonical or corrupt record
    /// shows: whitespace, a number rewritten (leading zero, `1.0`, `1e0`,
    /// `-0`), a member duplicated or two swapped, a verdict or map pair
    /// dropped, duplicated or added, a verdict flipped, an escape spelled
    /// otherwise, or a random byte cut, dropped or inserted.
    fn mutate_record(rng: &mut iis_obs::Rng, text: &str) -> String {
        const ESCAPES: [(&str, &str); 6] = [
            ("\\\"", "\\u0022"),
            ("\\n", "\\u000a"),
            ("\\n", "\\u000A"),
            ("\\u001f", "\\u001F"),
            ("ε", "\\u03b5"),
            ("/", "\\/"),
        ];
        let bytes = text.as_bytes();
        let numbers: Vec<(usize, usize)> = {
            let mut spans = Vec::new();
            let mut i = 0;
            while i < bytes.len() {
                if bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric()) {
                    let end = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                    spans.push((i, end));
                    i = end;
                } else {
                    i += 1;
                }
            }
            spans
        };
        // a random char boundary
        let at = rng.random_range(0..bytes.len() + 1);
        let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap();
        let splice = |start: usize, end: usize, with: &str| {
            format!("{}{with}{}", &text[..start], &text[end..])
        };
        match rng.random_range(0u32..9) {
            0 => {
                let ws = *rng.choose(&[" ", "\n", "\t", "\r\n  "]).unwrap();
                splice(at, at, ws)
            }
            1 if !numbers.is_empty() => {
                let &(start, end) = rng.choose(&numbers).unwrap();
                let n = &text[start..end];
                let with = match rng.random_range(0u32..5) {
                    0 => format!("0{n}"),
                    1 => format!("{n}.0"),
                    2 => format!("{n}e0"),
                    3 => format!("-{n}"),
                    _ => format!("{n}E+0"),
                };
                splice(start, end, &with)
            }
            2 => {
                // a member appended again, or the first two swapped
                let member = *rng
                    .choose(&[",\"task\":\"x\"", ",\"witness\":null", ",\"results\":[]"])
                    .unwrap();
                let task_at = text.find(",\"task\":");
                let witness_at = text.find(",\"witness\":");
                match (task_at, witness_at) {
                    (Some(task_at), Some(witness_at))
                        if rng.random_bool(0.5) && task_at < witness_at =>
                    {
                        format!(
                            "{{{},{}{}",
                            &text[task_at + 1..witness_at],
                            &text[1..task_at],
                            &text[witness_at..]
                        )
                    }
                    _ if text.ends_with('}') => splice(text.len() - 1, text.len() - 1, member),
                    _ => splice(at, at, member),
                }
            }
            3 => {
                // a pair dropped, duplicated, or a stray one added
                let pairs: Vec<usize> = text.match_indices("],[").map(|(i, _)| i + 2).collect();
                let Some(&start) = rng.choose(&pairs) else {
                    return text.replacen("[[0,", "[[0,0],[0,", 1);
                };
                let Some(len) = text[start..].find(']') else {
                    return text.to_string();
                };
                let end = start + len + 1;
                let pair = text[start..end].to_string();
                match rng.random_range(0u32..3) {
                    0 => splice(start - 1, end, ""),
                    1 => splice(start, start, &format!("{pair},")),
                    _ => splice(end, end, ",[99999,0]"),
                }
            }
            4 if rng.random_bool(0.5) => {
                // a verdict flipped
                let verdicts: Vec<usize> = text
                    .match_indices(",false]")
                    .chain(text.match_indices(",true]"))
                    .map(|(i, _)| i + 1)
                    .collect();
                let Some(&at) = rng.choose(&verdicts) else {
                    return text.to_string();
                };
                if text[at..].starts_with("true") {
                    splice(at, at + 4, "false")
                } else {
                    splice(at, at + 5, "true")
                }
            }
            4 => {
                // the name's escapes spelled otherwise
                let (from, to) = *rng.choose(&ESCAPES).unwrap();
                text.replacen(from, to, 1)
            }
            5 => text[..at].to_string(),
            6 if at < bytes.len() && bytes[at].is_ascii() => splice(at, at + 1, ""),
            _ => {
                let b = *rng.choose(b"{}[]:,\"\\ -.e0u1tfn").unwrap() as char;
                splice(at, at, &b.to_string())
            }
        }
    }

    #[test]
    fn the_reader_accepts_exactly_the_records_the_lexer_accepted() {
        let mut rng = iis_obs::Rng::seed_from_u64(0x5eed_0028);
        let mut accepted = 0;
        for (spec, b) in [
            ("eps:1:3", 2),
            ("consensus:1", 2),
            ("trivial:2", 1),
            ("renaming:1:3", 1),
            ("oneshot:1", 1),
        ] {
            let task = parse_spec(spec).unwrap();
            let keyed = KeyedTask::new(task.clone());
            let record =
                report_to_json(&solve_up_to_opts(&task, b, &SolveOptions::new())).to_string();
            let mut corpus = vec![record.clone()];
            // names that need escapes, written canonically
            for name in ["with \"quotes\"\n", "ctl\u{1f}ε", "a/b"] {
                let mut lit = String::new();
                iis_obs::json::write_string(&mut lit, name);
                corpus.push(record.replacen(&format!("\"{}\"", task.name()), &lit, 1));
            }
            for i in 0..400 {
                let base = corpus[i % 4].clone();
                let mut text = mutate_record(&mut rng, &base);
                if rng.random_bool(0.2) {
                    text = mutate_record(&mut rng, &text);
                }
                corpus.push(text);
            }
            for text in &corpus {
                for max_rounds in [b, b + 1] {
                    let lexer = lexer_oracle::accepts(&keyed, text, max_rounds);
                    let reader = validate_record(&keyed, max_rounds, text, None);
                    assert_eq!(
                        reader.is_ok(),
                        lexer.is_ok(),
                        "{spec} b ≤ {max_rounds}: reader {reader:?}, lexer {lexer:?} on {text}"
                    );
                    accepted += usize::from(reader.is_ok());
                }
            }
        }
        // the corpus holds accepted records, not only refusals
        assert!(accepted >= 10, "{accepted}");
    }
}
