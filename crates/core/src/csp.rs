//! The compiled CSP kernel for the Proposition 3.1 search — the one
//! search every solve path runs.
//!
//! [`crate::solvability`] decides wait-free solvability by searching for a
//! color-preserving simplicial map `δ : SDS^b(I) → O` with
//! `δ(s) ∈ Δ(carrier(s))` — a finite CSP. This module compiles that CSP
//! into flat, cache-friendly arrays and searches it with maintained arc
//! consistency (MAC), once, on the thread that asks, without allocating on
//! the hot path:
//!
//! - **Per-color candidate tables** (`OutputEncoder`): the output
//!   vertices of each color, sorted ascending, give every variable a
//!   fixed-width `u64` bitword domain whose bit order *is* the reference
//!   engine's sorted `VertexId` order.
//! - **Flat tuple arena + support lists** (`CompiledTable`): each
//!   allowed-tuple table is one sorted `Vec<VertexId>` with stride =
//!   arity (the membership table a stored witness is checked against by
//!   binary search), the same tuples as bit indices, plus a CSR of
//!   per-`(pos, value)` support lists (tuple indices) and AC-3rm-style
//!   last-support residues, so a support check scans only the tuples that
//!   can match instead of the whole table, and domain membership is a
//!   single bit test instead of a linear probe.
//! - **Trail-based undo** (`SearchState`): `propagate`/`backtrack`
//!   mutate one domain state in place, recording overwritten words on a
//!   trail and rewinding to a mark on backtrack.
//! - **A shared constraint skeleton** (`Skeleton`): the task-independent
//!   half of a round's CSP — the label-free [`ArenaSds`] tower, one
//!   constraint per simplex in the reference tower's simplex order
//!   ([`ArenaSds::for_each_simplex`]) stored CSR, and each constraint's
//!   `(carrier, colors)` class. By Lemma 3.3 it depends only on the
//!   input's shape and `b`, so `iis_core::cache` memoizes it once per
//!   `(shape, b)` for every task, search and stored-witness check alike;
//!   a task contributes only its `Δ` tables (kept by its
//!   `iis_core::cache::KeyedTask`, one per class), resolved once per class
//!   instead of once per simplex.
//!
//! **Determinism.** The kernel preserves the MAC search of the reference
//! engine ([`crate::reference`], a sequential test oracle that clones
//! `Vec<VertexId>` domains at every node): its variable order (lowest
//! index among smallest domains > 1), value order (ascending `VertexId`,
//! which equals ascending bit index within a color universe), propagation
//! queue discipline (LIFO with an in-queue flag, revisions in position
//! order), and node-charging points (one charge per node `backtrack`
//! enters). Residues are a pure cache: they change which support is *found
//! first*, never whether one exists. Verdicts, witnesses, and `solve.nodes`
//! accounting are therefore bit-identical to the oracle's — enforced by
//! the differential suites in `crates/core/tests/`. A round's search is
//! never split across threads (DESIGN.md §7).

use crate::cache::KeyedTask;
use iis_obs::metrics::StaticCounter;
use iis_tasks::Task;
use iis_topology::arena::ArenaSds;
use iis_topology::{Color, Complex, SimplicialMap, VertexId};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-color output-candidate tables: for each color of the output complex,
/// its vertices in ascending `VertexId` order. A variable's domain is a
/// bitset over its color's universe, `words` `u64`s wide for every color.
pub(crate) struct OutputEncoder {
    /// Sorted distinct colors of the output complex's vertices.
    colors: Vec<Color>,
    /// Per dense color index: output vertices of that color, ascending.
    universes: Vec<Vec<VertexId>>,
    /// Per output vertex id: (dense color index, bit index).
    slot: Vec<(u32, u32)>,
    /// Uniform domain width: `ceil(max universe size / 64)`, at least 1.
    words: usize,
}

impl OutputEncoder {
    fn new(output: &Complex) -> Self {
        let mut colors: Vec<Color> = output.vertex_ids().map(|v| output.color(v)).collect();
        colors.sort_unstable();
        colors.dedup();
        let mut universes: Vec<Vec<VertexId>> = vec![Vec::new(); colors.len()];
        let mut slot = vec![(0u32, 0u32); output.num_vertices()];
        for v in output.vertex_ids() {
            let ci = colors
                .binary_search(&output.color(v))
                .expect("color collected above");
            slot[v.index()] = (ci as u32, universes[ci].len() as u32);
            universes[ci].push(v);
        }
        let max = universes.iter().map(Vec::len).max().unwrap_or(0);
        OutputEncoder {
            colors,
            universes,
            slot,
            words: max.div_ceil(64).max(1),
        }
    }

    /// The bit index of output vertex `w` within its color's universe.
    fn bit_of(&self, w: VertexId) -> u32 {
        self.slot[w.index()].1
    }

    /// Writes `colors`' dense indices into `dense`: `false` when a color
    /// has no output vertex, which then admits no tuple at all.
    fn dense_colors(&self, colors: &[Color], dense: &mut Vec<u32>) -> bool {
        dense.clear();
        for col in colors {
            match self.colors.binary_search(col) {
                Ok(ci) => dense.push(ci as u32),
                Err(_) => return false,
            }
        }
        true
    }

    /// The bits a bit index takes: enough for every universe, at least 1.
    fn bit_width(&self) -> usize {
        (usize::BITS - (self.val_stride() - 1).leading_zeros()).max(1) as usize
    }

    /// Largest universe size across colors (the per-position value stride
    /// of every [`CompiledTable`]).
    fn val_stride(&self) -> usize {
        self.universes
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(1)
    }
}

/// One allowed-tuple table compiled to flat arrays: the `Δ` table of one
/// `(carrier, colors)` class. The kernel compiles one per class of a
/// level ([`Skeleton::resolve`]); the reference engine
/// ([`crate::reference`]) compiles the same tables one class at a time
/// ([`PlainTables`]).
pub(crate) struct CompiledTable {
    /// The sorted, deduplicated allowed tuples of output vertices, in
    /// variable order, concatenated with stride `arity`. The reference
    /// engine scans its chunks; a stored witness is checked by binary
    /// search ([`CompiledTable::contains`]). This is all a check-only task
    /// keeps.
    pub(crate) allowed: Vec<VertexId>,
    /// Number of positions (= the constraint's simplex size).
    arity: usize,
}

/// The distinct `arity`-wide chunks of `raw` in ascending lexicographic
/// order, concatenated into a vector of exactly that length; `order` is
/// scratch.
fn sorted_chunks(raw: &[VertexId], arity: usize, order: &mut Vec<u32>) -> Vec<VertexId> {
    let chunk = |i: u32| &raw[i as usize * arity..(i as usize + 1) * arity];
    order.clear();
    order.extend(0..(raw.len() / arity) as u32);
    order.sort_unstable_by(|&a, &b| chunk(a).cmp(chunk(b)));
    order.dedup_by(|a, b| chunk(*a) == chunk(*b));
    let mut out = Vec::with_capacity(order.len() * arity);
    for &i in order.iter() {
        out.extend_from_slice(chunk(i));
    }
    out
}

/// A level's tables as the compiled kernel reads them
/// ([`LevelTables::support`]): every class's tuples as per-color bit
/// indices plus its per-`(pos, value)` support lists, all in one array,
/// and per class where its part lies.
pub(crate) struct LevelSupport {
    words: Vec<u32>,
    tables: Vec<SupportTable>,
}

/// Where one class's table lies in its level's [`LevelSupport`] words:
/// the tuples as per-color bit indices (stride `arity`) from `at`, the
/// CSR offsets over `(pos, value)` slots from `off_at`, and the tuple
/// indices supporting each slot, ascending, from `sup_at`.
pub(crate) struct SupportTable {
    at: usize,
    /// Number of positions (= the constraint's simplex size).
    arity: usize,
    /// Per-position value range of the support CSR.
    val_stride: usize,
    off_at: usize,
    sup_at: usize,
}

/// The buffers a task's tables are compiled through, kept across
/// compiles so a table allocates only what it keeps.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The restricted tuples before sorting.
    raw: Vec<VertexId>,
    /// The sort order of `raw`'s chunks.
    order: Vec<u32>,
    /// The restricted tuples as packed bit-index keys.
    keys: Vec<u64>,
    /// A class's colors as the encoder's dense color indices.
    colors: Vec<u32>,
    /// A class's colors' positions in its carrier's [`Rows`].
    positions: Vec<u32>,
}

/// A bit index a [`DeltaRows`] row holds for a color its simplex has no
/// vertex of.
const NO_BIT: u32 = u32::MAX;

/// `Δ(carrier)` of each carrier of a level as rows, each computed the
/// first time a resolve meets its carrier: per `Δ` simplex, in `Δ`'s
/// order, the bit index of its vertex of each of the carrier's colors
/// (ascending), or [`NO_BIT`]. A `Δ(carrier)` simplex has the carrier's
/// colors (`TaskBuilder::build` checks it), so a row is as wide as its
/// carrier and the rows hold no more words than `Δ` holds vertices. Every
/// class over a carrier reads its tuples from these rows, so `Δ` is
/// looked up and its simplices scanned once per carrier, not once per
/// class.
#[derive(Default)]
struct DeltaRows {
    /// Each met carrier's colors, ascending.
    colors: Vec<Color>,
    bits: Vec<u32>,
    /// Per carrier index, once met: its first color, and its bits' span.
    at: Vec<Option<(usize, std::ops::Range<usize>)>>,
}

/// One carrier's [`DeltaRows`].
struct Rows<'a> {
    /// The carrier's colors, ascending: a row's positions.
    colors: &'a [Color],
    /// The rows, `colors.len()` bit indices each.
    bits: &'a [u32],
}

impl DeltaRows {
    /// Forgets every carrier and makes room for `carriers` of them.
    fn reset(&mut self, carriers: usize) {
        self.colors.clear();
        self.bits.clear();
        self.at.clear();
        self.at.resize(carriers, None);
    }

    /// The rows of `carrier`, the carrier of index `at`.
    fn of(
        &mut self,
        task: &Task,
        enc: &OutputEncoder,
        carrier: &[VertexId],
        at: usize,
    ) -> Rows<'_> {
        let width = carrier.len();
        if self.at[at].is_none() {
            let colors_at = self.colors.len();
            self.colors
                .extend(carrier.iter().map(|&v| task.input().color(v)));
            let colors = &mut self.colors[colors_at..];
            colors.sort_unstable();
            let bits_at = self.bits.len();
            for so in task.delta(carrier) {
                let row = self.bits.len();
                self.bits.resize(row + width, NO_BIT);
                for w in so.iter() {
                    if let Ok(pos) = colors.binary_search(&task.output().color(w)) {
                        self.bits[row + pos] = enc.bit_of(w);
                    }
                }
            }
            self.at[at] = Some((colors_at, bits_at..self.bits.len()));
        }
        let (colors_at, bits) = self.at[at].clone().expect("met above");
        Rows {
            colors: &self.colors[colors_at..colors_at + width],
            bits: &self.bits[bits],
        }
    }
}

impl CompiledTable {
    /// The table of a simplex whose carrier has the given sorted base
    /// vertex ids and whose vertices have the given colors: each
    /// `Δ(carrier)` simplex restricted to those colors, in variable order,
    /// then sorted and deduplicated as arity-wide chunks. Output colors are
    /// read from `enc`'s per-vertex slots.
    fn compile(
        task: &Task,
        enc: &OutputEncoder,
        carrier: &[VertexId],
        colors: &[Color],
        scratch: &mut Scratch,
    ) -> Self {
        let arity = colors.len();
        let Scratch {
            raw,
            order,
            colors: dense,
            ..
        } = scratch;
        raw.clear();
        if enc.dense_colors(colors, dense) {
            for so in task.delta(carrier) {
                let start = raw.len();
                for &ci in dense.iter() {
                    match so.iter().find(|&w| enc.slot[w.index()].0 == ci) {
                        Some(w) => raw.push(w),
                        None => {
                            raw.truncate(start);
                            break;
                        }
                    }
                }
            }
        }
        CompiledTable {
            allowed: sorted_chunks(raw, arity, order),
            arity,
        }
    }

    /// [`CompiledTable::compile`]'s table, read from the `Δ` rows of the
    /// carrier ([`DeltaRows`]) and sorted as packed keys: a tuple's bit
    /// indices, the first position highest, [`OutputEncoder::bit_width`]
    /// bits each, which must fit a `u64`. Every position holds one color
    /// and bit order is vertex order within a color, so key order is the
    /// chunks' order.
    fn packed(
        rows: Rows<'_>,
        enc: &OutputEncoder,
        colors: &[Color],
        scratch: &mut Scratch,
    ) -> Self {
        let (arity, bits) = (colors.len(), enc.bit_width());
        debug_assert!(arity * bits <= 64);
        let Scratch {
            keys,
            colors: dense,
            positions,
            ..
        } = scratch;
        keys.clear();
        // a color the carrier lacks, or no output vertex has, admits no
        // tuple
        positions.clear();
        positions.extend(
            colors
                .iter()
                .map_while(|c| rows.colors.binary_search(c).ok().map(|p| p as u32)),
        );
        if positions.len() == arity && enc.dense_colors(colors, dense) {
            for row in rows.bits.chunks_exact(rows.colors.len()) {
                let mut key = 0u64;
                let mut whole = true;
                for &p in positions.iter() {
                    let bit = row[p as usize];
                    whole &= bit != NO_BIT;
                    key = key << bits | u64::from(bit);
                }
                if whole {
                    keys.push(key);
                }
            }
            keys.sort_unstable();
            keys.dedup();
        }
        let mask = (1u64 << bits) - 1;
        let mut allowed = Vec::with_capacity(keys.len() * arity);
        for &key in keys.iter() {
            allowed.extend(dense.iter().enumerate().map(|(i, &ci)| {
                let bit = (key >> ((arity - 1 - i) * bits)) & mask;
                enc.universes[ci as usize][bit as usize]
            }));
        }
        CompiledTable { allowed, arity }
    }

    /// The allowed tuples, one `arity`-wide chunk each, ascending.
    pub(crate) fn tuples(&self) -> std::slice::ChunksExact<'_, VertexId> {
        self.allowed.chunks_exact(self.arity)
    }

    /// `true` iff the table allows no tuple at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.allowed.is_empty()
    }

    /// `true` iff `tuple` is an allowed tuple — one binary search over the
    /// sorted chunks.
    pub(crate) fn contains(&self, tuple: &[VertexId]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        let (mut lo, mut hi) = (0, self.allowed.len() / self.arity);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let at = &self.allowed[mid * self.arity..(mid + 1) * self.arity];
            match at.cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

impl LevelSupport {
    /// The kernel's view of `classes` under `enc` (the task's encoder),
    /// every class's part laid out in one array allocated once.
    fn new(classes: &[CompiledTable], enc: &OutputEncoder) -> LevelSupport {
        let val_stride = enc.val_stride();
        let mut len = 0;
        let tables: Vec<SupportTable> = classes
            .iter()
            .map(|t| {
                let (at, n) = (len, t.allowed.len());
                let (off_at, sup_at) = (at + n, at + n + t.arity * val_stride + 1);
                len = sup_at + n;
                SupportTable {
                    at,
                    arity: t.arity,
                    val_stride,
                    off_at,
                    sup_at,
                }
            })
            .collect();
        let mut words = vec![0u32; len];
        for (t, s) in classes.iter().zip(&tables) {
            s.fill(&mut words, &t.allowed, enc);
        }
        LevelSupport { words, tables }
    }
}

impl SupportTable {
    /// Writes this table's part of `words` for its tuples `allowed`.
    fn fill(&self, words: &mut [u32], allowed: &[VertexId], enc: &OutputEncoder) {
        let n = allowed.len();
        let (tuples, rest) = words[self.at..self.sup_at + n].split_at_mut(n);
        let (off, supports) = rest.split_at_mut(self.sup_at - self.off_at);
        for (bit, &w) in tuples.iter_mut().zip(allowed) {
            *bit = enc.bit_of(w);
        }
        let (arity, val_stride) = (self.arity, self.val_stride);
        let slot = |i: usize| (i % arity) * val_stride + tuples[i] as usize;
        // each slot's count, summed to its end, then filled back to front
        // with descending tuple indices: the offsets end at each slot's
        // start and every list ascends
        for i in 0..n {
            off[slot(i)] += 1;
        }
        let mut sum = 0;
        for end in off.iter_mut() {
            sum += *end;
            *end = sum;
        }
        for i in (0..n).rev() {
            let end = &mut off[slot(i)];
            *end -= 1;
            supports[*end as usize] = (i / arity) as u32;
        }
    }

    /// The tuples as per-color bit indices, stride `arity`, in `words`.
    #[cfg(test)]
    fn tuples<'w>(&self, words: &'w [u32]) -> &'w [u32] {
        &words[self.at..self.off_at]
    }

    /// The tuple indices whose value at `pos` is `val`, in `words`.
    fn supports_of<'w>(&self, words: &'w [u32], pos: usize, val: u32) -> &'w [u32] {
        let s = self.off_at + pos * self.val_stride + val as usize;
        let (lo, hi) = (words[s] as usize, words[s + 1] as usize);
        &words[self.sup_at + lo..self.sup_at + hi]
    }
}

/// A task's compiled `Δ` tables for the classes of one level `SDS^b(I)`,
/// in the skeleton's class order, and the task's output encoder they
/// were compiled under.
pub(crate) struct LevelTables {
    classes: Vec<CompiledTable>,
    encoder: Arc<OutputEncoder>,
    /// The kernel's view of the tables, built by the first search that
    /// compiles against them: a level only checked against keeps only
    /// the flat tables.
    support: OnceLock<LevelSupport>,
}

impl LevelTables {
    /// The table of every class, in class order.
    pub(crate) fn classes(&self) -> &[CompiledTable] {
        &self.classes
    }

    /// The kernel's view of the tables, built on first use and kept.
    fn support(&self) -> &LevelSupport {
        self.support
            .get_or_init(|| LevelSupport::new(&self.classes, &self.encoder))
    }
}

/// A task's compiled tables, one [`LevelTables`] per level resolved: a
/// [`KeyedTask`] owns one for life, behind a lock, so one cache serves a
/// task's whole round sweep and every check of its stored witnesses
/// (`solve.constraint_cache_hits` counts the classes a resolve finds
/// already compiled).
///
/// A level is keyed by its round count alone: every skeleton of a task's
/// level is built from the one input shape, deterministically, so its
/// classes come in one order. A level is compiled whole, in place: no
/// per-class key, lookup or handle.
#[derive(Default)]
pub(crate) struct ConstraintCache {
    /// Per round count `b`: the level's tables once resolved.
    levels: Vec<Option<Arc<LevelTables>>>,
    encoder: Option<Arc<OutputEncoder>>,
    rows: DeltaRows,
    scratch: Scratch,
}

impl ConstraintCache {
    /// The per-color candidate tables of `task`'s output complex, built
    /// once per cache (a [`KeyedTask`]'s cache only ever sees its task).
    fn encoder(&mut self, task: &Task) -> &Arc<OutputEncoder> {
        self.encoder
            .get_or_insert_with(|| Arc::new(OutputEncoder::new(task.output())))
    }
}

impl std::fmt::Debug for ConstraintCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConstraintCache")
            .field("levels", &self.levels.iter().flatten().count())
            .finish()
    }
}

/// A task's tables compiled one `(carrier, colors)` class at a time and
/// kept by [`class_key`], each sorted as chunks: how the reference engine
/// compiles, so its tables check the kernel's packed sort.
pub(crate) struct PlainTables {
    tables: HashMap<Box<[u32]>, Arc<CompiledTable>>,
    encoder: OutputEncoder,
    key: Vec<u32>,
    /// The carrier as vertex ids, the `Δ` lookup key.
    ids: Vec<VertexId>,
    scratch: Scratch,
}

impl PlainTables {
    /// An empty cache for `task`'s tables.
    pub(crate) fn new(task: &Task) -> PlainTables {
        PlainTables {
            tables: HashMap::new(),
            encoder: OutputEncoder::new(task.output()),
            key: Vec::new(),
            ids: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// The compiled table for a simplex whose carrier has the given sorted
    /// base vertex ids and whose vertices have the given colors.
    pub(crate) fn table(
        &mut self,
        task: &Task,
        carrier: &[u32],
        colors: &[Color],
    ) -> Arc<CompiledTable> {
        class_key(&mut self.key, carrier, colors);
        if let Some(hit) = self.tables.get(self.key.as_slice()) {
            return Arc::clone(hit);
        }
        self.ids.clear();
        self.ids.extend(carrier.iter().map(|&u| VertexId(u)));
        let table = Arc::new(CompiledTable::compile(
            task,
            &self.encoder,
            &self.ids,
            colors,
            &mut self.scratch,
        ));
        self.tables
            .insert(self.key.as_slice().into(), Arc::clone(&table));
        table
    }
}

/// Writes the key of a `(carrier, colors)` class into `key`: the flat
/// word list `[carrier len, carrier ids…, colors…]`.
fn class_key(key: &mut Vec<u32>, carrier: &[u32], colors: &[Color]) {
    key.clear();
    key.push(carrier.len() as u32);
    key.extend_from_slice(carrier);
    key.extend(colors.iter().map(|c| c.0));
}

/// The task-independent half of the Proposition 3.1 CSP for one
/// `SDS^b(I)`: the tower itself, one constraint per simplex in the order
/// [`ArenaSds::for_each_simplex`] visits them (= the reference tower's
/// `Complex::for_each_simplex` order), and each constraint's class — its
/// `(carrier ids, colors)` pair, the only thing its `Δ` table depends on.
///
/// Lemma 3.3 makes all of it a function of the input's shape and `b`
/// alone, so one skeleton serves every task over inputs of that shape:
/// the search compiles from it and a stored witness is checked against
/// it, each only resolving one `Δ` table per class.
pub(crate) struct Skeleton {
    /// Shared with the witnesses found on, or checked against, this level.
    tower: Arc<ArenaSds>,
    /// CSR offsets of the constraint vertex lists (length `len + 1`).
    coff: Vec<u32>,
    /// Concatenated constraint vertex lists, sorted within each.
    cvar: Vec<u32>,
    /// Per constraint: its index into `classes`.
    class: Vec<u32>,
    /// Distinct classes, in first-use order.
    classes: Vec<Class>,
    /// Distinct carriers (sorted base vertex ids), in first-use order.
    carriers: Vec<Box<[VertexId]>>,
}

/// A constraint class: its carrier (an index into the skeleton's
/// carriers) and its vertices' colors in vertex order — the key of its
/// `Δ` table.
type Class = (u32, Box<[Color]>);

impl std::fmt::Debug for Skeleton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Skeleton")
            .field("rounds", &self.tower.rounds())
            .field("constraints", &self.len())
            .field("classes", &self.classes.len())
            .finish()
    }
}

impl Skeleton {
    /// Enumerates `tower`'s simplices once and classifies each.
    pub(crate) fn new(tower: impl Into<Arc<ArenaSds>>) -> Skeleton {
        Skeleton::until(tower.into(), None).expect("no deadline")
    }

    /// [`Skeleton::new`] under a deadline, polled once per
    /// [`SIMPLICES_PER_POLL`] simplices past the first: `None` once it
    /// has passed.
    pub(crate) fn until(tower: Arc<ArenaSds>, deadline: Option<Instant>) -> Option<Skeleton> {
        let mut coff = vec![0u32];
        let mut cvar: Vec<u32> = Vec::new();
        let mut class: Vec<u32> = Vec::new();
        let mut classes: Vec<Class> = Vec::new();
        let mut carriers: Vec<Box<[VertexId]>> = Vec::new();
        // class ids by `class_key`, looked up through a reused buffer, and
        // carrier ids, looked up once per class
        let mut ids: HashMap<Box<[u32]>, u32> = HashMap::new();
        let mut carrier_ids: HashMap<Box<[u32]>, u32> = HashMap::new();
        let mut key: Vec<u32> = Vec::new();
        let mut colors: Vec<Color> = Vec::new();
        let c = tower.complex();
        let stopped = tower.for_each_simplex(|s, carrier| {
            if class.len() % SIMPLICES_PER_POLL == SIMPLICES_PER_POLL - 1 && passed(deadline) {
                return ControlFlow::Break(());
            }
            colors.clear();
            colors.extend(s.iter().map(|&v| c.color(v)));
            class_key(&mut key, carrier, &colors);
            let id = match ids.get(key.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = classes.len() as u32;
                    let at = match carrier_ids.get(carrier) {
                        Some(&at) => at,
                        None => {
                            carriers.push(carrier.iter().map(|&u| VertexId(u)).collect());
                            carrier_ids.insert(carrier.into(), carriers.len() as u32 - 1);
                            carriers.len() as u32 - 1
                        }
                    };
                    classes.push((at, colors.as_slice().into()));
                    ids.insert(key.as_slice().into(), id);
                    id
                }
            };
            cvar.extend_from_slice(s);
            coff.push(cvar.len() as u32);
            class.push(id);
            ControlFlow::Continue(())
        });
        stopped.is_continue().then_some(Skeleton {
            tower,
            coff,
            cvar,
            class,
            classes,
            carriers,
        })
    }

    /// The tower `SDS^b(I)` the constraints live on.
    pub(crate) fn tower(&self) -> &Arc<ArenaSds> {
        &self.tower
    }

    /// The number of constraints (= distinct simplices).
    pub(crate) fn len(&self) -> usize {
        self.class.len()
    }

    /// The vertex ids of constraint `ci`, ascending.
    pub(crate) fn verts(&self, ci: usize) -> &[u32] {
        &self.cvar[self.coff[ci] as usize..self.coff[ci + 1] as usize]
    }

    /// The class index of constraint `ci`.
    pub(crate) fn class(&self, ci: usize) -> usize {
        self.class[ci] as usize
    }

    /// The carrier (sorted base vertex ids) of class `k`.
    pub(crate) fn carrier(&self, k: usize) -> &[VertexId] {
        &self.carriers[self.classes[k].0 as usize]
    }

    /// `q`'s compiled table of every class, in class order: its tables
    /// of this level when it holds them, else compiled now and kept. With
    /// a `deadline`, the clock is read once per [`CLASSES_PER_POLL`]
    /// classes past the first, and a passed deadline stops the compile
    /// ([`Halt::Timeout`]) and keeps nothing.
    pub(crate) fn resolve(
        &self,
        q: &KeyedTask,
        deadline: Option<Instant>,
    ) -> Result<Arc<LevelTables>, Halt> {
        static HITS: StaticCounter = StaticCounter::new("solve.constraint_cache_hits");
        let b = self.tower.rounds();
        let mut cache = q.tables();
        let n = self.classes.len() as u64;
        if let Some(Some(level)) = cache.levels.get(b) {
            debug_assert_eq!(level.classes.len(), self.classes.len());
            HITS.add(n);
            iis_obs::progress::cache_lookups(true, n);
            return Ok(Arc::clone(level));
        }
        let encoder = Arc::clone(cache.encoder(q.task()));
        let ConstraintCache { rows, scratch, .. } = &mut *cache;
        rows.reset(self.carriers.len());
        let mut classes = Vec::with_capacity(self.classes.len());
        for (k, (at, colors)) in self.classes.iter().enumerate() {
            if k % CLASSES_PER_POLL == CLASSES_PER_POLL - 1 && passed(deadline) {
                return Err(Halt::Timeout);
            }
            let carrier = &self.carriers[*at as usize];
            classes.push(if colors.len() * encoder.bit_width() <= 64 {
                let rows = rows.of(q.task(), &encoder, carrier, *at as usize);
                CompiledTable::packed(rows, &encoder, colors, scratch)
            } else {
                CompiledTable::compile(q.task(), &encoder, carrier, colors, scratch)
            });
        }
        iis_obs::progress::cache_lookups(false, n);
        let level = Arc::new(LevelTables {
            classes,
            encoder,
            support: OnceLock::new(),
        });
        if cache.levels.len() <= b {
            cache.levels.resize(b + 1, None);
        }
        cache.levels[b] = Some(Arc::clone(&level));
        Ok(level)
    }

    /// For each vertex, the constraints containing it, in constraint order
    /// (as the reference engine pushes them), as CSR `(offsets, entries)`.
    /// Built per search and dropped with it, so a memoized skeleton keeps
    /// only what a witness check reads.
    fn containing(&self) -> (Vec<u32>, Vec<u32>) {
        let nv = self.tower.complex().num_vertices();
        let mut off = vec![0u32; nv + 1];
        for &v in &self.cvar {
            off[v as usize + 1] += 1;
        }
        for i in 0..nv {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        let mut cont = vec![0u32; self.cvar.len()];
        for ci in 0..self.len() {
            for &v in self.verts(ci) {
                cont[cursor[v as usize] as usize] = ci as u32;
                cursor[v as usize] += 1;
            }
        }
        (off, cont)
    }
}

/// Simplices [`Skeleton::until`] classifies between two deadline polls:
/// a few milliseconds of work.
const SIMPLICES_PER_POLL: usize = 4096;

/// Classes [`Skeleton::resolve`] resolves between two deadline polls: on
/// a cold task's first round each class compiles its `Δ` table, up to
/// about half a millisecond.
const CLASSES_PER_POLL: usize = 64;

/// Whether `deadline` has passed: one clock read, none without a deadline.
fn passed(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Why a search stopped before reaching a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Halt {
    /// The node budget ran out.
    Budget,
    /// The wall-clock deadline passed.
    Timeout,
}

/// The search counters a [`Tally`] publishes to, in its `publish` order.
static SOLVE_COUNTERS: [StaticCounter; 4] = [
    StaticCounter::new("solve.nodes"),
    StaticCounter::new("solve.propagations"),
    StaticCounter::new("solve.prunes"),
    StaticCounter::new("solve.backtracks"),
];
/// Registers the search counters at zero (see
/// [`crate::solvability::register_counters`]).
pub(crate) fn register_counters() {
    for counter in &SOLVE_COUNTERS {
        counter.register();
    }
}

/// Nodes between two publishes of a [`Tally`], so `--progress` and
/// `/progress` stay live within a long search.
const PUBLISH_EVERY: u64 = 4096;

/// One search state's counts in plain integers. `nodes`, `propagations`,
/// `prunes` and `backtracks` are added to the shared `solve.*` counters
/// (and `nodes` to progress's) every [`PUBLISH_EVERY`] nodes and when the
/// tally drops, which covers every exit of a search: a verdict, each
/// [`Halt`], and unwinding. Each count is published exactly
/// once, so `solve.nodes` equals the budget consumed once a search returns.
#[derive(Default)]
pub(crate) struct Tally {
    /// Every node charged through this state, published or not: the
    /// budget consumed, and what a profile sample attributes to the
    /// state's span.
    spent: u64,
    nodes: u64,
    pub(crate) propagations: u64,
    pub(crate) prunes: u64,
    pub(crate) backtracks: u64,
}

impl Tally {
    /// Counts one charged node.
    pub(crate) fn node(&mut self) {
        self.spent += 1;
        self.nodes += 1;
        if self.nodes == PUBLISH_EVERY {
            self.publish();
        }
    }

    /// Adds the unpublished counts to the shared counters and zeroes them.
    fn publish(&mut self) {
        let counts = [
            &mut self.nodes,
            &mut self.propagations,
            &mut self.prunes,
            &mut self.backtracks,
        ]
        .map(std::mem::take);
        iis_obs::progress::add_nodes(counts[0]);
        for (counter, n) in SOLVE_COUNTERS.iter().zip(counts) {
            counter.add(n);
        }
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.publish();
    }
}

/// `Some(now)` iff span profiling is on — the pattern every sampled phase
/// uses so that a disabled profiler never reads the clock.
pub(crate) fn profile_now() -> Option<Instant> {
    iis_obs::profile::enabled().then(Instant::now)
}

/// The compiled CSP: a [`Skeleton`]'s constraints over bitword domains,
/// each reading its class's compiled table.
pub(crate) struct BitsetCsp<'s> {
    num_vars: usize,
    /// Domain width per variable, in `u64` words.
    words: usize,
    /// The skeleton's constraint vertex lists (CSR via `coff`), borrowed
    /// directly so the inner loop does not chase the skeleton.
    cvar: &'s [u32],
    coff: &'s [u32],
    /// The level's tables, every class's part in one array.
    support_words: &'s [u32],
    /// Per constraint: where its class's table lies in `support_words`.
    tables: Vec<&'s SupportTable>,
    /// Per variable: the constraints containing it (CSR via `cont_off`).
    cont_off: Vec<u32>,
    cont: Vec<u32>,
    /// Per-position value range of every table (residue slots per
    /// constraint position).
    val_stride: usize,
    /// Per variable: dense color index into the encoder's universes.
    var_color: Vec<u32>,
    encoder: &'s OutputEncoder,
}

/// An open node of [`BitsetCsp::backtrack`]'s descent: the variable it
/// branches on, its candidate values (from `cands[cbase]` up to the next
/// open node's) with `next` the first untried one, and the trail length
/// to undo to between values.
struct Frame {
    vi: usize,
    cbase: usize,
    next: usize,
    mark: usize,
}

/// One search's mutable state: the domain bitwords, the undo trail, the
/// residue cache, reusable scratch buffers, the node budget and the
/// [`Tally`] — everything the inner loop touches, allocated once per
/// search.
pub(crate) struct SearchState {
    /// `num_vars * words` domain bitwords.
    dom: Vec<u64>,
    /// `(word index, overwritten value)` pairs; rewound to a mark on undo.
    trail: Vec<(u32, u64)>,
    /// One past the last supporting tuple index per `(constraint, pos,
    /// value)`, or `0`. A cache in the AC-3rm style: never trailed, because
    /// a stale residue only costs a rescan, never a wrong answer. Zero
    /// means empty so that a large state is allocated zeroed, not filled:
    /// its pages are mapped as propagation first touches them, which polls
    /// the deadline, instead of all up front, which cannot.
    residues: Vec<u32>,
    /// Propagation queue scratch (LIFO, like the reference engine).
    queue: Vec<u32>,
    in_queue: Vec<bool>,
    /// Stack-disciplined candidate-value scratch for `backtrack`.
    cands: Vec<u32>,
    /// The most nodes the search may charge.
    budget: u64,
    tally: Tally,
}

impl SearchState {
    /// Charges one node to the tally, or reports why the search must
    /// stop. The deadline is polled on every 64th charge from the first (a
    /// clock read costs far more than the budget compare). The tally
    /// counts the node iff it is charged, so `solve.nodes` equals the
    /// budget consumed.
    fn charge(&mut self, deadline: Option<Instant>) -> Result<(), Halt> {
        if self.tally.spent.is_multiple_of(64) && passed(deadline) {
            return Err(Halt::Timeout);
        }
        if self.tally.spent == self.budget {
            return Err(Halt::Budget);
        }
        self.tally.node();
        Ok(())
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (idx, old) = self.trail.pop().expect("len checked");
            self.dom[idx as usize] = old;
        }
    }
}

impl BitsetCsp<'_> {
    /// A fresh search state over the given domain words, allowed
    /// `budget` nodes.
    fn new_state(&self, dom: Vec<u64>, budget: u64) -> SearchState {
        debug_assert_eq!(dom.len(), self.num_vars * self.words);
        SearchState {
            dom,
            trail: Vec::new(),
            residues: vec![0; self.cvar.len() * self.val_stride],
            queue: Vec::new(),
            in_queue: vec![false; self.num_constraints()],
            cands: Vec::new(),
            budget,
            tally: Tally::default(),
        }
    }

    /// The number of constraints.
    pub(crate) fn num_constraints(&self) -> usize {
        self.tables.len()
    }

    /// The variable indices of constraint `ci`.
    pub(crate) fn verts(&self, ci: usize) -> &[u32] {
        &self.cvar[self.coff[ci] as usize..self.coff[ci + 1] as usize]
    }

    /// The kernel's view of constraint `ci`'s table.
    fn support(&self, ci: usize) -> &SupportTable {
        self.tables[ci]
    }

    /// The constraints containing variable `vi`.
    fn containing(&self, vi: usize) -> &[u32] {
        &self.cont[self.cont_off[vi] as usize..self.cont_off[vi + 1] as usize]
    }

    fn dom_len(&self, dom: &[u64], vi: usize) -> u32 {
        dom[vi * self.words..(vi + 1) * self.words]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Appends the set bits of `vi`'s domain (ascending — i.e. ascending
    /// `VertexId` within the color universe) to `out`.
    fn push_values(&self, dom: &[u64], vi: usize, out: &mut Vec<u32>) {
        for wi in 0..self.words {
            let mut bits = dom[vi * self.words + wi];
            while bits != 0 {
                out.push((wi * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Restricts `vi`'s domain to the singleton `{val}`, recording the
    /// overwritten words on the trail.
    fn assign(&self, st: &mut SearchState, vi: usize, val: u32) {
        for wi in 0..self.words {
            let idx = vi * self.words + wi;
            let target = if wi == (val as usize) / 64 {
                1u64 << (val % 64)
            } else {
                0
            };
            if st.dom[idx] != target {
                st.trail.push((idx as u32, st.dom[idx]));
                st.dom[idx] = target;
            }
        }
    }

    /// `true` iff tuple `ti` of constraint `ci` lies inside the current
    /// domains at every position except `skip`.
    fn tuple_alive(&self, dom: &[u64], ci: usize, ti: u32, skip: usize) -> bool {
        let t = self.support(ci);
        let base = t.at + ti as usize * t.arity;
        let verts = self.verts(ci);
        for (j, &vj) in verts.iter().enumerate() {
            if j == skip {
                continue;
            }
            let val = self.support_words[base + j] as usize;
            if dom[vj as usize * self.words + val / 64] & (1u64 << (val % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// `true` iff some allowed tuple of constraint `ci` has `val` at `pos`
    /// and every other position inside its variable's current domain.
    /// Checks the cached residue first, then scans the `(pos, val)` support
    /// list — never the whole table.
    fn supported(
        &self,
        dom: &[u64],
        residues: &mut [u32],
        ci: usize,
        pos: usize,
        val: u32,
    ) -> bool {
        let t = self.support(ci);
        let slot = (self.coff[ci] as usize + pos) * self.val_stride + val as usize;
        let r = residues[slot];
        if r != 0 && self.tuple_alive(dom, ci, r - 1, pos) {
            return true;
        }
        for &ti in t.supports_of(self.support_words, pos, val) {
            if self.tuple_alive(dom, ci, ti, pos) {
                residues[slot] = ti + 1;
                return true;
            }
        }
        false
    }

    /// Generalized arc consistency to a fixpoint, in place, trail-recorded.
    /// Returns `false` on a domain wipeout. Mirrors the reference engine's
    /// queue discipline exactly (LIFO, in-queue dedup, revisions in
    /// position order), so it reaches the same fixpoint with the same
    /// counter increments. With a `deadline`, the clock is polled on every
    /// 1024th revision, so a long root propagation stops at the deadline
    /// too ([`Halt::Timeout`]).
    fn propagate(
        &self,
        st: &mut SearchState,
        seed: Option<usize>,
        deadline: Option<Instant>,
    ) -> Result<bool, Halt> {
        let nc = self.num_constraints();
        st.queue.clear();
        st.in_queue.iter_mut().for_each(|b| *b = false);
        match seed {
            Some(v) => st.queue.extend_from_slice(self.containing(v)),
            None => st.queue.extend(0..nc as u32),
        }
        for &i in &st.queue {
            st.in_queue[i as usize] = true;
        }
        while let Some(ci) = st.queue.pop() {
            let ci = ci as usize;
            st.in_queue[ci] = false;
            st.tally.propagations += 1;
            if st.tally.propagations.is_multiple_of(1024) && passed(deadline) {
                return Err(Halt::Timeout);
            }
            for pos in 0..self.support(ci).arity {
                let v = self.verts(ci)[pos] as usize;
                let vbase = v * self.words;
                let mut before = 0u32;
                let mut after = 0u32;
                for wi in 0..self.words {
                    let old = st.dom[vbase + wi];
                    before += old.count_ones();
                    let mut kept = old;
                    let mut bits = old;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        let val = (wi * 64) as u32 + b;
                        if !self.supported(&st.dom, &mut st.residues, ci, pos, val) {
                            kept &= !(1u64 << b);
                        }
                    }
                    if kept != old {
                        st.trail.push(((vbase + wi) as u32, old));
                        st.dom[vbase + wi] = kept;
                    }
                    after += kept.count_ones();
                }
                if after == 0 {
                    st.tally.prunes += before as u64;
                    return Ok(false);
                }
                if after < before {
                    st.tally.prunes += (before - after) as u64;
                    for &cj in self.containing(v) {
                        if !st.in_queue[cj as usize] {
                            st.in_queue[cj as usize] = true;
                            st.queue.push(cj);
                        }
                    }
                }
            }
        }
        Ok(true)
    }

    /// Decodes a fully-singleton state into the assignment vector.
    fn extract(&self, st: &SearchState) -> Vec<VertexId> {
        let mut scratch = Vec::with_capacity(1);
        (0..self.num_vars)
            .map(|vi| {
                scratch.clear();
                self.push_values(&st.dom, vi, &mut scratch);
                debug_assert_eq!(scratch.len(), 1, "extract requires singleton domains");
                self.decode(vi, scratch[0])
            })
            .collect()
    }

    /// The output vertex for value `val` of variable `vi`.
    fn decode(&self, vi: usize, val: u32) -> VertexId {
        self.encoder.universes[self.var_color[vi] as usize][val as usize]
    }

    /// The branching variable: the lowest index among the smallest
    /// domains of size > 1; `None` when every domain is a singleton.
    fn pick(&self, dom: &[u64]) -> Option<usize> {
        let mut pick = None;
        let mut best = u32::MAX;
        for vi in 0..self.num_vars {
            let len = self.dom_len(dom, vi);
            if len > 1 && len < best {
                best = len;
                pick = Some(vi);
            }
        }
        pick
    }

    /// Complete backtracking with propagation (MAC), trail-undo instead of
    /// domain cloning. Same variable pick (lowest index among smallest
    /// domains > 1), same value order, same charging points as the
    /// reference engine's MAC search.
    ///
    /// The descent is a loop over an explicit stack of [`Frame`]s, one per
    /// open node, so a search as deep as the tower has vertices runs in
    /// any thread's stack.
    fn backtrack(
        &self,
        st: &mut SearchState,
        deadline: Option<Instant>,
    ) -> Result<Option<Vec<VertexId>>, Halt> {
        let mut frames: Vec<Frame> = Vec::new();
        loop {
            // enter a node: charge it, then branch on its variable
            st.charge(deadline)?;
            let Some(vi) = self.pick(&st.dom) else {
                // all singleton: done
                return Ok(Some(self.extract(st)));
            };
            let cbase = st.cands.len();
            {
                // split the borrow: push_values reads dom, writes cands
                let (dom, cands) = (&st.dom, &mut st.cands);
                self.push_values(dom, vi, cands);
            }
            frames.push(Frame {
                vi,
                cbase,
                next: cbase,
                mark: st.trail.len(),
            });
            // find the next value that propagates, closing exhausted nodes
            loop {
                let Some(f) = frames.last_mut() else {
                    return Ok(None);
                };
                if f.next == st.cands.len() {
                    // every value failed: the node is refuted
                    st.cands.truncate(f.cbase);
                    frames.pop();
                    st.tally.backtracks += 1;
                    if let Some(parent) = frames.last() {
                        st.undo_to(parent.mark);
                    }
                    continue;
                }
                let (vi, val, mark) = (f.vi, st.cands[f.next], f.mark);
                f.next += 1;
                self.assign(st, vi, val);
                if self.propagate(st, Some(vi), deadline)? {
                    break;
                }
                st.undo_to(mark);
            }
        }
    }
}

/// Compiles the CSP on `skel` (= `SDS^b(I)`) into the flat kernel
/// representation, plus the initial domain words from the unary
/// constraints: the skeleton's constraints, one per simplex in the
/// reference tower's simplex order, so constraint indices (and with them
/// the propagation order and every counter) match the reference engine's
/// ([`crate::reference`]). Each constraint reads its class's table in
/// `level` (the task's tables of this level, [`Skeleton::resolve`]).
/// `None` means a constraint admits no tuple or a domain starts empty —
/// provably unsolvable, exactly as in the reference compile.
pub(crate) fn compile<'s>(
    skel: &'s Skeleton,
    level: &'s LevelTables,
) -> Option<(BitsetCsp<'s>, Vec<u64>)> {
    // registered at compile, so a scrape lists them before any publish
    SOLVE_COUNTERS.iter().for_each(StaticCounter::register);
    let c = skel.tower().complex();
    let nv = c.num_vertices();
    let classes = level.classes();
    if classes.iter().any(CompiledTable::is_empty) {
        return None;
    }
    let encoder = &*level.encoder;
    let support = level.support();
    let words = encoder.words;
    let (cont_off, cont) = skel.containing();
    // initial domains from the unary (vertex) constraints
    let mut dom = vec![0u64; nv * words];
    for ci in 0..skel.len() {
        if let &[v] = skel.verts(ci) {
            for t in classes[skel.class(ci)].tuples() {
                let bit = encoder.bit_of(t[0]) as usize;
                dom[v as usize * words + bit / 64] |= 1u64 << (bit % 64);
            }
        }
    }
    if (0..nv).any(|vi| dom[vi * words..(vi + 1) * words].iter().all(|&w| w == 0)) {
        return None;
    }
    let var_color: Vec<u32> = (0..nv)
        .map(|vi| {
            let col = c.color(vi as u32);
            encoder
                .colors
                .binary_search(&col)
                .expect("non-empty domain implies the color exists in the output")
                as u32
        })
        .collect();
    let csp = BitsetCsp {
        num_vars: nv,
        words,
        cvar: &skel.cvar,
        coff: &skel.coff,
        support_words: &support.words,
        tables: (0..skel.len())
            .map(|ci| &support.tables[skel.class(ci)])
            .collect(),
        cont_off,
        cont,
        val_stride: encoder.val_stride(),
        var_color,
        encoder,
    };
    Some((csp, dom))
}

/// The search entry: compile, propagate the root, then run MAC on the
/// calling thread, charging at most `max_nodes` nodes until `deadline`.
/// Returns the outcome and the nodes charged.
pub(crate) fn search_map(
    q: &KeyedTask,
    skel: &Skeleton,
    max_nodes: u64,
    deadline: Option<Instant>,
    round: iis_obs::profile::SpanId,
) -> (Result<Option<SimplicialMap>, Halt>, u64) {
    let compile_t0 = profile_now();
    let level = match skel.resolve(q, deadline) {
        Ok(level) => level,
        Err(halt) => return (Err(halt), 0),
    };
    let compiled = compile(skel, &level);
    if let Some(t0) = compile_t0 {
        iis_obs::profile::sample_under(round, "compile", 2, 0, t0.elapsed().as_nanos() as u64);
    }
    let Some((csp, root)) = compiled else {
        return (Ok(None), 0);
    };
    let mut st = csp.new_state(root, max_nodes);
    let found = match csp.propagate(&mut st, None, deadline) {
        Ok(true) => {
            let t0 = profile_now();
            let found = csp.backtrack(&mut st, deadline);
            // one sampled `search` leaf under the round, recorded even when
            // the search halts mid-tree, so truncated rounds still show up
            // in the flamegraph
            if let Some(t0) = t0 {
                iis_obs::profile::sample_under(
                    round,
                    "search",
                    2,
                    st.tally.spent,
                    t0.elapsed().as_nanos() as u64,
                );
            }
            found
        }
        Ok(false) => Ok(None),
        Err(halt) => Err(halt),
    };
    let map = found.map(|a| {
        a.map(|a| {
            SimplicialMap::from_pairs(
                a.into_iter()
                    .enumerate()
                    .map(|(i, w)| (VertexId(i as u32), w)),
            )
        })
    });
    (map, st.tally.spent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iis_tasks::library::k_set_consensus;
    use iis_topology::arena::arena_sds_tower;
    use iis_topology::Simplex;

    /// Output vertices of colors no `Δ` simplex has change no table and
    /// widen no `Δ` row: a row is as wide as its carrier.
    #[test]
    fn unused_output_colors_widen_no_row() {
        let base = iis_tasks::library::approximate_agreement(1, 3);
        let mut output = base.output().clone();
        for c in 2..2_000 {
            output.ensure_vertex(Color(c), iis_topology::Label::scalar(7));
        }
        let mut b = iis_tasks::TaskBuilder::new("wide", base.input().clone(), output);
        for (si, outs) in base.delta_entries() {
            for so in outs {
                b.allow(si.clone(), so.clone());
            }
        }
        let (plain, wide) = (KeyedTask::new(base), KeyedTask::new(b.build().unwrap()));
        let skel = Skeleton::new(arena_sds_tower(plain.task().input(), 2));
        let (want, got) = (
            skel.resolve(&plain, None).unwrap(),
            skel.resolve(&wide, None).unwrap(),
        );
        for (w, g) in want.classes().iter().zip(got.classes()) {
            assert_eq!(w.allowed, g.allowed);
        }
        let delta_vertices: usize = wide
            .task()
            .delta_entries()
            .flat_map(|(_, outs)| outs.iter().map(Simplex::len))
            .sum();
        assert!(wide.tables().rows.bits.len() <= delta_vertices);
    }

    /// The support CSR must index exactly the tuples a linear scan finds.
    #[test]
    fn support_lists_match_linear_scan() {
        let q = KeyedTask::new(k_set_consensus(2, 2));
        let skel = Skeleton::new(arena_sds_tower(q.task().input(), 1));
        let level = skel.resolve(&q, None).unwrap();
        let (csp, _) = compile(&skel, &level).expect("compiles");
        for ci in 0..csp.num_constraints() {
            let (t, words) = (csp.support(ci), csp.support_words);
            let table = &level.classes()[skel.class(ci)];
            assert_eq!(t.tuples(words).len(), table.allowed.len());
            for pos in 0..t.arity {
                for val in 0..t.val_stride as u32 {
                    let listed: Vec<u32> = t.supports_of(words, pos, val).to_vec();
                    let scanned: Vec<u32> = (0..table.tuples().len() as u32)
                        .filter(|&ti| t.tuples(words)[ti as usize * t.arity + pos] == val)
                        .collect();
                    assert_eq!(listed, scanned);
                }
            }
        }
    }

    /// Binary-search membership must agree with a scan of the chunks, on
    /// every allowed tuple and on tuples one value away from one.
    #[test]
    fn contains_matches_a_chunk_scan() {
        let q = KeyedTask::new(k_set_consensus(2, 2));
        let skel = Skeleton::new(arena_sds_tower(q.task().input(), 1));
        let outs = q.task().output().num_vertices() as u32;
        for t in skel.resolve(&q, None).unwrap().classes() {
            assert!(!t.is_empty());
            let sorted: Vec<&[VertexId]> = t.tuples().collect();
            assert!(sorted.windows(2).all(|p| p[0] < p[1]), "sorted, distinct");
            for tuple in t.tuples() {
                assert!(t.contains(tuple));
                for pos in 0..t.arity {
                    for w in 0..outs {
                        let mut probe = tuple.to_vec();
                        probe[pos] = VertexId(w);
                        assert_eq!(t.contains(&probe), t.tuples().any(|x| x == &probe[..]));
                    }
                }
            }
        }
    }

    /// The index sort agrees with a plain sort of the chunks.
    #[test]
    fn sorted_chunks_is_a_sorted_dedup() {
        let mut rng = iis_obs::Rng::seed_from_u64(7);
        for arity in 1..=6 {
            for _ in 0..20 {
                let n = rng.random_range(0..40usize);
                let raw: Vec<VertexId> = (0..n * arity)
                    .map(|_| VertexId(rng.random_range(0..4u32)))
                    .collect();
                let mut want: Vec<Vec<VertexId>> =
                    raw.chunks_exact(arity).map(<[VertexId]>::to_vec).collect();
                want.sort();
                want.dedup();
                let got = sorted_chunks(&raw, arity, &mut Vec::new());
                assert_eq!(got, want.concat(), "arity {arity}");
            }
        }
    }

    /// A skeleton lists every simplex once, in the arena's simplex order,
    /// with the carrier and colors its class names.
    #[test]
    fn skeleton_classes_follow_the_simplex_walk() {
        let task = k_set_consensus(2, 2);
        let tower = arena_sds_tower(task.input(), 1);
        let mut walk: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        let _ = tower.for_each_simplex(|s, carrier| {
            walk.push((s.to_vec(), carrier.to_vec()));
            ControlFlow::<()>::Continue(())
        });
        let skel = Skeleton::new(tower);
        assert_eq!(skel.len(), walk.len());
        for (ci, (s, carrier)) in walk.iter().enumerate() {
            assert_eq!(skel.verts(ci), &s[..]);
            let (_, colors) = &skel.classes[skel.class(ci)];
            let ids: Vec<VertexId> = carrier.iter().map(|&u| VertexId(u)).collect();
            assert_eq!(skel.carrier(skel.class(ci)), &ids[..]);
            let want: Vec<Color> = s.iter().map(|&v| skel.tower().complex().color(v)).collect();
            assert_eq!(&colors[..], &want[..]);
        }
        assert!(skel.classes.len() < skel.len(), "classes are shared");
        assert!(
            skel.carriers.len() < skel.classes.len(),
            "carriers are shared"
        );
        let distinct: std::collections::BTreeSet<&[VertexId]> =
            skel.carriers.iter().map(|c| &c[..]).collect();
        assert_eq!(distinct.len(), skel.carriers.len(), "carriers are distinct");
    }

    /// A passed deadline stops a skeleton build at its first poll, and a
    /// compile at its first, while work too small to reach a poll is done
    /// exactly as without a deadline.
    #[test]
    fn a_passed_deadline_stops_classification_and_compile_at_their_first_poll() {
        let past = Some(Instant::now());
        let keyed = |spec| KeyedTask::new(iis_tasks::library::parse_spec(spec).unwrap());
        let q = keyed("eps:3:3");
        // SDS^0 of eps:3:3's input: 80 simplices, each its own class
        let small = Arc::new(arena_sds_tower(q.task().input(), 0));
        let skel = Skeleton::until(Arc::clone(&small), past).expect("no poll reached");
        assert_eq!((skel.len(), skel.classes.len()), (80, 80));
        assert_eq!(skel.resolve(&q, past).err(), Some(Halt::Timeout));
        let level = skel.resolve(&keyed("eps:3:3"), None).unwrap();
        assert!(compile(&skel, &level).is_some());
        // SDS^1 has more than 4096 simplices
        let large = Arc::new(small.next());
        assert!(Skeleton::until(Arc::clone(&large), past).is_none());
        let later = Some(Instant::now() + std::time::Duration::from_secs(3600));
        let built = Skeleton::until(Arc::clone(&large), later).unwrap();
        assert!(built.len() > SIMPLICES_PER_POLL);
        assert_eq!(built.cvar, Skeleton::new(large).cvar);
        // eps:1:3's classes are too few to reach a poll
        let q = keyed("eps:1:3");
        let skel = Skeleton::new(arena_sds_tower(q.task().input(), 1));
        assert!(skel.classes.len() < CLASSES_PER_POLL);
        assert!(skel.resolve(&q, past).is_ok());
    }

    /// Trail undo must restore the exact pre-assignment domain words.
    #[test]
    fn trail_undo_restores_domains() {
        let q = KeyedTask::new(k_set_consensus(2, 2));
        let skel = Skeleton::new(arena_sds_tower(q.task().input(), 1));
        let level = skel.resolve(&q, None).unwrap();
        let (csp, root) = compile(&skel, &level).expect("compiles");
        let mut st = csp.new_state(root, u64::MAX);
        assert_eq!(csp.propagate(&mut st, None, None), Ok(true));
        let snapshot = st.dom.clone();
        // branch on the first undecided variable, then rewind
        let vi = (0..csp.num_vars)
            .find(|&vi| csp.dom_len(&st.dom, vi) > 1)
            .expect("(3,2)-set consensus at b=1 is not decided by propagation alone");
        let mut vals = Vec::new();
        csp.push_values(&st.dom, vi, &mut vals);
        for &val in &vals {
            let mark = st.trail.len();
            csp.assign(&mut st, vi, val);
            csp.propagate(&mut st, Some(vi), None).unwrap();
            st.undo_to(mark);
            assert_eq!(st.dom, snapshot, "undo must restore the domain state");
        }
    }

    /// The bit order of a domain equals the reference engine's sorted
    /// `VertexId` value order.
    #[test]
    fn bit_order_is_vertex_id_order() {
        let task = k_set_consensus(2, 3);
        let enc = OutputEncoder::new(task.output());
        for universe in &enc.universes {
            let mut sorted = universe.clone();
            sorted.sort();
            assert_eq!(*universe, sorted);
        }
        for v in task.output().vertex_ids() {
            let (ci, bit) = enc.slot[v.index()];
            assert_eq!(enc.universes[ci as usize][bit as usize], v);
        }
    }
}
