//! Chromatic simplicial complexes.

use crate::{Color, Label, Simplex, VertexId};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::hash::BuildHasher;

/// A vertex → facet incidence index: answers "is `s` a face of some
/// facet?" by checking only the facets through `s`'s rarest vertex, where
/// [`Complex::contains_simplex`] scans them all. Built by
/// [`Complex::facet_index`]; [`Complex::add_facets`] builds one over the
/// facets it has kept before each shorter size of candidates.
pub struct FacetIndex<'a> {
    facets: Vec<&'a Simplex>,
    /// CSR offsets per vertex index into `through` (length `n + 1`).
    off: Vec<u32>,
    /// Per vertex index, the positions in `facets` of the facets through
    /// it, ascending.
    through: Vec<u32>,
}

impl<'a> FacetIndex<'a> {
    /// The index of `facets`, whose vertex ids are below `n`.
    fn of(facets: Vec<&'a Simplex>, n: usize) -> FacetIndex<'a> {
        // each vertex's count, summed to its end, then filled back to
        // front: the offsets end at each vertex's start, every list ascends
        let mut off = vec![0u32; n + 1];
        for v in facets.iter().flat_map(|f| f.iter()) {
            off[v.index()] += 1;
        }
        let mut sum = 0;
        for end in &mut off {
            sum += *end;
            *end = sum;
        }
        let mut through = vec![0u32; off[n] as usize];
        for (at, f) in facets.iter().enumerate().rev() {
            for v in f.iter() {
                off[v.index()] -= 1;
                through[off[v.index()] as usize] = at as u32;
            }
        }
        FacetIndex {
            facets,
            off,
            through,
        }
    }

    fn incident(&self, v: VertexId) -> &[u32] {
        match (self.off.get(v.index()), self.off.get(v.index() + 1)) {
            (Some(&lo), Some(&hi)) => &self.through[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// `true` iff `s` is a face of an indexed facet (the empty simplex
    /// always is) — the same answer as [`Complex::contains_simplex`].
    pub fn contains_simplex(&self, s: &Simplex) -> bool {
        match s.iter().min_by_key(|&v| self.incident(v).len()) {
            None => true,
            Some(rarest) => self
                .incident(rarest)
                .iter()
                .any(|&f| s.is_face_of(self.facets[f as usize])),
        }
    }
}

/// The `(color, label) → id` index of a vertex table: open addressing
/// over vertex ids, each slot holding its vertex's hash beside its id and
/// compared against the table itself, so a lookup borrows the label, an
/// insert clones nothing, and growing re-places ids by their kept hashes.
/// Each label is hashed once (keyed, as `HashMap` hashes it), by its bytes
/// alone: the vertices of one label, whatever their colors, share a probe
/// run, so an insert finds a label it can share.
#[derive(Clone, Default)]
struct VertexIndex {
    hasher: RandomState,
    /// `(id, hash)` per slot, id [`VertexIndex::EMPTY`] for none: empty,
    /// or a power of two more than twice the vertex count long.
    slots: Vec<(u32, u32)>,
}

/// Where a probe of a [`VertexIndex`] ended.
struct Probe {
    /// The slot holding the vertex, or the empty one it would take.
    slot: usize,
    /// A vertex of the same label and another color, met on the way.
    same_label: Option<u32>,
}

impl VertexIndex {
    const EMPTY: u32 = u32::MAX;

    /// An index of `vertices`, whose pairs are distinct.
    fn of(vertices: &[(Color, Label)]) -> VertexIndex {
        let mut index = VertexIndex::default();
        index.reserve(vertices.len());
        for (id, (color, label)) in vertices.iter().enumerate() {
            let hash = index.hash(label.bytes());
            let probe = index.find(vertices, hash, *color, label.bytes());
            index.slots[probe.slot] = (id as u32, hash);
        }
        index
    }

    fn hash(&self, bytes: &[u8]) -> u32 {
        self.hasher.hash_one(bytes) as u32
    }

    /// Probes for `(color, bytes)`, whose hash is `hash`. A slot must be
    /// free.
    fn find(&self, vertices: &[(Color, Label)], hash: u32, color: Color, bytes: &[u8]) -> Probe {
        let mask = self.slots.len() - 1;
        let mut probe = Probe {
            slot: hash as usize & mask,
            same_label: None,
        };
        loop {
            let (id, h) = self.slots[probe.slot];
            if id == Self::EMPTY {
                return probe;
            }
            if h == hash {
                let (c, l) = &vertices[id as usize];
                if l.bytes() == bytes {
                    if *c == color {
                        return probe;
                    }
                    probe.same_label = Some(id);
                }
            }
            probe.slot = (probe.slot + 1) & mask;
        }
    }

    /// The id of `(color, label)` among `vertices`.
    fn get(&self, vertices: &[(Color, Label)], color: Color, label: &Label) -> Option<VertexId> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = self.hash(label.bytes());
        let (id, _) = self.slots[self.find(vertices, hash, color, label.bytes()).slot];
        (id != Self::EMPTY).then_some(VertexId(id))
    }

    /// Makes room for `count` vertices, re-placing the indexed ones by
    /// their kept hashes when the table grows.
    fn reserve(&mut self, count: usize) {
        if count * 2 < self.slots.len() {
            return;
        }
        let len = (count * 2 + 1).next_power_of_two().max(8);
        let old = std::mem::replace(&mut self.slots, vec![(Self::EMPTY, 0); len]);
        let mask = len - 1;
        for (id, hash) in old.into_iter().filter(|&(id, _)| id != Self::EMPTY) {
            let mut at = hash as usize & mask;
            while self.slots[at].0 != Self::EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = (id, hash);
        }
    }
}

/// A finite simplicial complex whose vertices carry a [`Color`] and a
/// [`Label`].
///
/// The complex is stored as its set of *facets* (inclusion-maximal
/// simplices); every face of a facet is implicitly a simplex of the complex
/// (§2: "a set of simplices closed under intersection and containment").
///
/// Vertices are deduplicated by `(color, label)`: adding the same pair twice
/// yields the same [`VertexId`]. This makes complexes built by independent
/// constructions directly comparable via [`Complex::same_labeled`]. Labels
/// themselves are interned byte strings ([`Label`] wraps an `Arc<[u8]>`),
/// so cloning a complex or a label — as the reference tower
/// ([`crate::sds_reference_iterated`]) and the labelling pass of
/// [`crate::sds_iterated`] do — shares label storage instead of copying
/// it.
///
/// # Examples
///
/// ```
/// use iis_topology::{Complex, Color, Label};
/// let mut c = Complex::new();
/// let a = c.ensure_vertex(Color(0), Label::scalar(0));
/// let b = c.ensure_vertex(Color(1), Label::scalar(1));
/// c.add_facet([a, b]);
/// assert_eq!(c.dim(), 1);
/// assert!(c.is_chromatic());
/// ```
#[derive(Clone, Default)]
pub struct Complex {
    vertices: Vec<(Color, Label)>,
    index: VertexIndex,
    facets: BTreeSet<Simplex>,
}

impl Complex {
    /// Creates an empty complex.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the standard colored `n`-simplex `sⁿ`: vertices
    /// `(Color(i), Label::scalar(i))` for `i = 0..=n`, with one facet
    /// containing them all. This is the canonical input complex where each
    /// process's input is its own id (§3.6).
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_topology::Complex;
    /// let s2 = Complex::standard_simplex(2);
    /// assert_eq!(s2.dim(), 2);
    /// assert_eq!(s2.num_vertices(), 3);
    /// ```
    pub fn standard_simplex(n: usize) -> Self {
        let mut c = Complex::new();
        let vs: Vec<VertexId> = (0..=n)
            .map(|i| c.ensure_vertex(Color(i as u32), Label::scalar(i as u64)))
            .collect();
        c.add_facet(vs);
        c
    }

    /// Returns the id for the vertex `(color, label)`, inserting it if new.
    ///
    /// A vertex inserted but never covered by a facet is a 0-dimensional
    /// facet once added via [`Complex::add_facet`]; bare vertices not in any
    /// facet are allowed and simply not part of any simplex.
    pub fn ensure_vertex(&mut self, color: Color, label: Label) -> VertexId {
        match self.probe(color, label.bytes()) {
            Ok(known) => known,
            Err((probe, hash)) => self.insert(probe.slot, hash, color, label),
        }
    }

    /// [`Complex::ensure_vertex`] of the label whose canonical encoding is
    /// `bytes`: a new vertex shares the label of a vertex of another color
    /// when there is one, and allocates it only when there is none.
    pub(crate) fn ensure_vertex_bytes(&mut self, color: Color, bytes: &[u8]) -> VertexId {
        match self.probe(color, bytes) {
            Ok(known) => known,
            Err((probe, hash)) => {
                let label = match probe.same_label {
                    Some(id) => self.vertices[id as usize].1.clone(),
                    None => Label::from_bytes(bytes),
                };
                self.insert(probe.slot, hash, color, label)
            }
        }
    }

    /// The id of `(color, bytes)`, or, with room made for one more
    /// vertex, where it would go and its hash: one hash of the label,
    /// found or inserted.
    fn probe(&mut self, color: Color, bytes: &[u8]) -> Result<VertexId, (Probe, u32)> {
        self.index.reserve(self.vertices.len() + 1);
        let hash = self.index.hash(bytes);
        let probe = self.index.find(&self.vertices, hash, color, bytes);
        match self.index.slots[probe.slot] {
            (VertexIndex::EMPTY, _) => Err((probe, hash)),
            (known, _) => Ok(VertexId(known)),
        }
    }

    /// Adds the vertex `(color, label)` at the index slot its probe found.
    fn insert(&mut self, slot: usize, hash: u32, color: Color, label: Label) -> VertexId {
        let id = self.vertices.len() as u32;
        self.index.slots[slot] = (id, hash);
        self.vertices.push((color, label));
        VertexId(id)
    }

    /// Looks up a vertex id by `(color, label)` without inserting.
    ///
    /// The lookup borrows the label: no clone, no composite key — safe to
    /// call on a per-decision hot path.
    pub fn vertex_id(&self, color: Color, label: &Label) -> Option<VertexId> {
        self.index.get(&self.vertices, color, label)
    }

    /// The color of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this complex.
    pub fn color(&self, v: VertexId) -> Color {
        self.vertices[v.index()].0
    }

    /// The label of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this complex.
    pub fn label(&self, v: VertexId) -> &Label {
        &self.vertices[v.index()].1
    }

    /// Number of vertices ever inserted.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Iterates over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Adds a simplex to the complex, maintaining the facet antichain: the
    /// new simplex is dropped if it is already a face of an existing facet,
    /// and existing facets that are faces of it are removed.
    ///
    /// Returns the simplex that was (logically) added.
    ///
    /// # Panics
    ///
    /// Panics if any vertex id is out of range.
    pub fn add_facet<I: IntoIterator<Item = VertexId>>(&mut self, vertices: I) -> Simplex {
        let s = Simplex::new(vertices);
        for v in s.iter() {
            assert!(v.index() < self.vertices.len(), "vertex {v} not in complex");
        }
        if s.is_empty() {
            return s;
        }
        if self.facets.iter().any(|f| s.is_face_of(f)) {
            return s;
        }
        self.facets.retain(|f| !f.is_face_of(&s));
        self.facets.insert(s.clone());
        s
    }

    /// Adds many simplices at once. The facet set ends up exactly as
    /// folding [`Complex::add_facet`] over `simplices` would leave it — the
    /// inclusion-maximal members of the existing facets and the new
    /// (non-empty) simplices — but is computed in bulk: candidates are
    /// ordered largest first (a list already in that order, as a pure
    /// complex's sorted facets are, is not sorted again), the largest are
    /// all kept, and each shorter one is kept unless a kept facet contains
    /// it, found through a [`FacetIndex`] rather than a scan of every
    /// facet.
    ///
    /// # Panics
    ///
    /// Panics if any vertex id is out of range.
    pub fn add_facets<I: IntoIterator<Item = Simplex>>(&mut self, simplices: I) {
        let n = self.vertices.len();
        let mut candidates: Vec<Simplex> = simplices
            .into_iter()
            .filter(|s| {
                for v in s.iter() {
                    assert!(v.index() < n, "vertex {v} not in complex");
                }
                !s.is_empty()
            })
            .collect();
        candidates.extend(std::mem::take(&mut self.facets));
        // a simplex can only be a face of one at least as large, and an
        // equally large one only if equal — which dedup removes
        let order = |a: &Simplex, b: &Simplex| b.len().cmp(&a.len()).then_with(|| a.cmp(b));
        if !candidates.windows(2).all(|w| order(&w[0], &w[1]).is_lt()) {
            candidates.sort_unstable_by(order);
            candidates.dedup();
        }
        let mut keep = vec![true; candidates.len()];
        let mut start = 0;
        while let Some(first) = candidates.get(start) {
            let end = start + candidates[start..].partition_point(|s| s.len() == first.len());
            if start > 0 {
                let kept = candidates[..start]
                    .iter()
                    .zip(&keep)
                    .filter_map(|(s, &maximal)| maximal.then_some(s))
                    .collect();
                let index = FacetIndex::of(kept, n);
                for (s, maximal) in candidates[start..end].iter().zip(&mut keep[start..end]) {
                    *maximal = !index.contains_simplex(s);
                }
            }
            start = end;
        }
        self.facets = candidates
            .into_iter()
            .zip(keep)
            .filter_map(|(s, maximal)| maximal.then_some(s))
            .collect();
    }

    /// A vertex → facet incidence index over the current facets, for many
    /// [`FacetIndex::contains_simplex`] queries in a row.
    pub fn facet_index(&self) -> FacetIndex<'_> {
        FacetIndex::of(self.facets.iter().collect(), self.vertices.len())
    }

    /// A complex from its vertex table, in id order, and its facets,
    /// without the dedup of [`Complex::ensure_vertex`] or the antichain
    /// scan of [`Complex::add_facet`] (quadratic in the facet count): the
    /// caller guarantees distinct `(color, label)` pairs and pairwise
    /// incomparable facets, as the arena tower does structurally.
    pub(crate) fn from_parts_unchecked(
        vertices: Vec<(Color, Label)>,
        facets: impl IntoIterator<Item = Simplex>,
    ) -> Complex {
        let index = VertexIndex::of(&vertices);
        debug_assert!(vertices
            .iter()
            .enumerate()
            .all(|(i, (c, l))| index.get(&vertices, *c, l) == Some(VertexId(i as u32))));
        let facets: BTreeSet<Simplex> = facets.into_iter().collect();
        debug_assert!(facets
            .iter()
            .all(|s| !s.is_empty() && s.iter().all(|v| v.index() < vertices.len())));
        Complex {
            vertices,
            index,
            facets,
        }
    }

    /// The facets (inclusion-maximal simplices), in sorted order.
    pub fn facets(&self) -> impl Iterator<Item = &Simplex> + '_ {
        self.facets.iter()
    }

    /// Number of facets.
    pub fn num_facets(&self) -> usize {
        self.facets.len()
    }

    /// `true` iff `s` is a simplex of the complex (a face of some facet).
    pub fn contains_simplex(&self, s: &Simplex) -> bool {
        if s.is_empty() {
            return true;
        }
        self.facets.iter().any(|f| s.is_face_of(f))
    }

    /// The dimension of the complex: the largest facet dimension, or −1 if
    /// the complex has no facets.
    pub fn dim(&self) -> isize {
        self.facets.iter().map(|f| f.dim()).max().unwrap_or(-1)
    }

    /// `true` iff every facet has the same dimension (§2: *pure*).
    pub fn is_pure(&self) -> bool {
        let mut dims = self.facets.iter().map(|f| f.dim());
        match dims.next() {
            None => true,
            Some(d) => dims.all(|e| e == d),
        }
    }

    /// `true` iff every facet has pairwise-distinct vertex colors, i.e. the
    /// coloring is a dimension-preserving simplicial map onto a simplex (§2).
    pub fn is_chromatic(&self) -> bool {
        self.facets.iter().all(|f| {
            let c = |i: usize| self.color(f.vertices()[i]);
            (0..f.len()).all(|i| (i + 1..f.len()).all(|j| c(i) != c(j)))
        })
    }

    /// The set of colors appearing on vertices of facets.
    pub fn colors(&self) -> BTreeSet<Color> {
        self.facets
            .iter()
            .flat_map(|f| f.iter())
            .map(|v| self.color(v))
            .collect()
    }

    /// All distinct simplices of every dimension (the downward closure of the
    /// facets). Can be exponentially larger than the facet set.
    ///
    /// This **materializes** the full face poset as a `BTreeSet` — up to
    /// `2^(dim+1) − 1` simplices per facet. Kept as the compatibility API;
    /// traversals that only need to *visit* each simplex should prefer
    /// [`Complex::for_each_simplex`], which streams the same simplices in
    /// the same order with memory proportional to the facet count.
    pub fn simplices(&self) -> BTreeSet<Simplex> {
        let mut out = BTreeSet::new();
        self.for_each_simplex(|s| {
            out.insert(s.clone());
        });
        out
    }

    /// Visits every distinct simplex of the complex (the downward closure
    /// of the facets) in sorted order — the exact order
    /// [`Complex::simplices`] iterates in — without materializing the face
    /// poset.
    ///
    /// Faces of each facet are generated lazily in lexicographic order and
    /// merged across facets through a min-heap keyed on the current face,
    /// deduplicating on the fly (equal faces from different facets surface
    /// adjacently in the merged stream). Memory is `O(#facets · dim)`
    /// instead of `O(#simplices)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_topology::Complex;
    /// let s2 = Complex::standard_simplex(2);
    /// let mut streamed = Vec::new();
    /// s2.for_each_simplex(|s| streamed.push(s.clone()));
    /// let materialized: Vec<_> = s2.simplices().into_iter().collect();
    /// assert_eq!(streamed, materialized); // same simplices, same order
    /// ```
    pub fn for_each_simplex<F: FnMut(&Simplex)>(&self, mut f: F) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // One lazy stream of faces per facet, in lexicographic order of the
        // sorted vertex vector: the lex successor of the index subset
        // `[i₀ < … < i_k]` of `0..n` is `[i₀ … i_k, i_k+1]` when the last
        // index can still grow the prefix, else `[i₀ … i_{k-1}+1]`.
        struct Stream<'a> {
            verts: &'a [VertexId],
            idx: Vec<usize>,
        }
        impl Stream<'_> {
            fn current(&self) -> Simplex {
                Simplex::new(self.idx.iter().map(|&i| self.verts[i]))
            }
            /// Advances to the lex-next face; `false` when exhausted.
            fn advance(&mut self) -> bool {
                let n = self.verts.len();
                match self.idx.last() {
                    Some(&last) if last + 1 < n => self.idx.push(last + 1),
                    _ => {
                        self.idx.pop();
                        match self.idx.last_mut() {
                            Some(l) => *l += 1,
                            None => return false,
                        }
                    }
                }
                true
            }
        }

        let mut streams: Vec<Stream<'_>> = self
            .facets
            .iter()
            .filter(|fct| !fct.is_empty())
            .map(|fct| Stream {
                verts: fct.vertices(),
                idx: vec![0],
            })
            .collect();
        let mut heap: BinaryHeap<Reverse<(Simplex, usize)>> = streams
            .iter()
            .enumerate()
            .map(|(i, st)| Reverse((st.current(), i)))
            .collect();
        let mut last: Option<Simplex> = None;
        while let Some(Reverse((s, i))) = heap.pop() {
            if streams[i].advance() {
                heap.push(Reverse((streams[i].current(), i)));
            }
            if last.as_ref() != Some(&s) {
                f(&s);
                last = Some(s);
            }
        }
    }

    /// All distinct simplices of dimension exactly `k`.
    pub fn simplices_of_dim(&self, k: usize) -> BTreeSet<Simplex> {
        let mut out = BTreeSet::new();
        for f in &self.facets {
            if f.dim() >= k as isize {
                for face in f.faces_of_dim(k) {
                    out.insert(face);
                }
            }
        }
        out
    }

    /// Total number of non-empty simplices.
    pub fn num_simplices(&self) -> usize {
        let mut n = 0;
        self.for_each_simplex(|_| n += 1);
        n
    }

    /// Euler characteristic `Σ (−1)^k · #k-simplices`.
    pub fn euler_characteristic(&self) -> i64 {
        let mut chi = 0i64;
        self.for_each_simplex(|s| {
            if s.dim() % 2 == 0 {
                chi += 1;
            } else {
                chi -= 1;
            }
        });
        chi
    }

    /// The facets that contain simplex `s`.
    pub fn facets_containing<'a>(&'a self, s: &'a Simplex) -> impl Iterator<Item = &'a Simplex> {
        self.facets.iter().filter(move |f| s.is_face_of(f))
    }

    /// The (closed) *star* of `s`: the subcomplex generated by all facets
    /// containing `s`.
    pub fn star(&self, s: &Simplex) -> Complex {
        let gens: Vec<Simplex> = self.facets_containing(s).cloned().collect();
        self.subcomplex_from(gens)
    }

    /// The *link* of `s`: simplices `t` disjoint from `s` with `t ∪ s` in the
    /// complex (§2). Returned as a complex over the same vertex labels.
    pub fn link(&self, s: &Simplex) -> Complex {
        let gens: Vec<Simplex> = self
            .facets_containing(s)
            .map(|f| f.difference(s))
            .filter(|t| !t.is_empty())
            .collect();
        self.subcomplex_from(gens)
    }

    /// The boundary complex of a pure complex: the codimension-1 faces that
    /// lie in exactly one facet. For a subdivided `n`-simplex this is an
    /// `(n−1)`-sphere (§2).
    ///
    /// # Panics
    ///
    /// Panics if the complex is not pure.
    pub fn boundary(&self) -> Complex {
        assert!(self.is_pure(), "boundary requires a pure complex");
        let mut count: BTreeMap<Simplex, usize> = BTreeMap::new();
        for f in &self.facets {
            for face in f.facets() {
                *count.entry(face).or_insert(0) += 1;
            }
        }
        let gens: Vec<Simplex> = count
            .into_iter()
            .filter(|(_, c)| *c == 1)
            .map(|(s, _)| s)
            .collect();
        self.subcomplex_from(gens)
    }

    /// The `k`-skeleton: all simplices of dimension ≤ `k` as a complex.
    pub fn skeleton(&self, k: usize) -> Complex {
        let mut gens: BTreeSet<Simplex> = BTreeSet::new();
        for f in &self.facets {
            if f.dim() <= k as isize {
                gens.insert(f.clone());
            } else {
                for face in f.faces_of_dim(k) {
                    gens.insert(face);
                }
            }
        }
        self.subcomplex_from(gens)
    }

    /// The subcomplex induced by a set of colors: all simplices whose vertex
    /// colors are a subset of `colors`.
    ///
    /// Note: for a subdivision this is **larger** than the paper's face
    /// `A(s^q)` — interior simplices whose colors happen to lie in the set
    /// are included too. The §2 face (carrier ⊆ `s^q`) is
    /// [`Subdivision::face`](crate::Subdivision::face).
    pub fn color_face(&self, colors: &BTreeSet<Color>) -> Complex {
        let mut gens: Vec<Simplex> = Vec::new();
        for f in &self.facets {
            let kept = Simplex::new(f.iter().filter(|&v| colors.contains(&self.color(v))));
            if !kept.is_empty() {
                // `kept` is a face of `f`, hence a simplex of the complex.
                gens.push(kept);
            }
        }
        self.subcomplex_from(gens)
    }

    /// Builds a standalone complex from a family of simplices of `self`
    /// (which become facet generators), carrying over `(color, label)` pairs.
    /// Vertex ids are remapped; use labels to correlate.
    pub fn subcomplex_from<I: IntoIterator<Item = Simplex>>(&self, simplices: I) -> Complex {
        let mut out = Complex::new();
        for s in simplices {
            let vs: Vec<VertexId> = s
                .iter()
                .map(|v| out.ensure_vertex(self.color(v), self.label(v).clone()))
                .collect();
            out.add_facet(vs);
        }
        out
    }

    /// The *join* `A * B` of two complexes: vertices are the disjoint union
    /// (labels tagged left/right to avoid collisions), and every union of a
    /// simplex of `A` with a simplex of `B` is a simplex.
    ///
    /// Classical facts exercised in the tests: `S⁰ * S⁰` is a circle,
    /// `point * C` is the cone over `C` (contractible), and joins add
    /// homological dimensions.
    ///
    /// Colors are kept as-is, so the join of complexes over disjoint color
    /// sets is chromatic if both sides are.
    pub fn join(&self, other: &Complex) -> Complex {
        let mut out = Complex::new();
        let tag = |side: u64, l: &Label| Label::pair(&Label::scalar(side), l);
        let left: Vec<VertexId> = self
            .vertex_ids()
            .map(|v| out.ensure_vertex(self.color(v), tag(0, self.label(v))))
            .collect();
        let right: Vec<VertexId> = other
            .vertex_ids()
            .map(|v| out.ensure_vertex(other.color(v), tag(1, other.label(v))))
            .collect();
        for fa in self.facets() {
            for fb in other.facets() {
                let vs: Vec<VertexId> = fa
                    .iter()
                    .map(|v| left[v.index()])
                    .chain(fb.iter().map(|v| right[v.index()]))
                    .collect();
                out.add_facet(vs);
            }
        }
        // if either side has no facets, keep the other side's facets
        if self.num_facets() == 0 {
            for fb in other.facets() {
                let vs: Vec<VertexId> = fb.iter().map(|v| right[v.index()]).collect();
                out.add_facet(vs);
            }
        }
        if other.num_facets() == 0 {
            for fa in self.facets() {
                let vs: Vec<VertexId> = fa.iter().map(|v| left[v.index()]).collect();
                out.add_facet(vs);
            }
        }
        out
    }

    /// The *cone* over this complex: the join with a single new vertex
    /// `(apex_color, apex_label)`. Always contractible.
    pub fn cone(&self, apex_color: Color, apex_label: Label) -> Complex {
        let mut apex = Complex::new();
        let v = apex.ensure_vertex(apex_color, apex_label);
        apex.add_facet([v]);
        apex.join(self)
    }

    /// Number of connected components of the complex (isolated inserted
    /// vertices that belong to no facet are ignored).
    #[allow(clippy::needless_range_loop)]
    pub fn connected_components(&self) -> usize {
        let n = self.vertices.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut used = vec![false; n];
        for f in &self.facets {
            let mut it = f.iter();
            if let Some(first) = it.next() {
                used[first.index()] = true;
                for v in it {
                    used[v.index()] = true;
                    let (a, b) = (
                        find(&mut parent, first.index()),
                        find(&mut parent, v.index()),
                    );
                    parent[a] = b;
                }
            }
        }
        let mut roots = HashSet::new();
        for x in 0..n {
            if used[x] {
                roots.insert(find(&mut parent, x));
            }
        }
        roots.len()
    }

    /// `true` iff the two complexes have the same vertex `(color, label)`
    /// pairs and the same facets under the induced identification.
    ///
    /// This is equality of *labeled* complexes, the right notion when both
    /// sides were built with canonical labels (e.g. protocol complexes from
    /// execution enumeration vs. the combinatorial subdivision).
    pub fn same_labeled(&self, other: &Complex) -> bool {
        if self.vertices.len() != other.vertices.len() || self.facets.len() != other.facets.len() {
            return false;
        }
        let mut map: Vec<Option<VertexId>> = vec![None; self.vertices.len()];
        for (v, (c, l)) in self.vertices.iter().enumerate() {
            match other.vertex_id(*c, l) {
                Some(w) => map[v] = Some(w),
                None => return false,
            }
        }
        for f in &self.facets {
            let translated = Simplex::new(f.iter().map(|v| map[v.index()].unwrap()));
            if !other.facets.contains(&translated) {
                return false;
            }
        }
        true
    }

    /// Per-dimension simplex counts, the *f-vector* `(f₀, f₁, …)`.
    pub fn f_vector(&self) -> Vec<usize> {
        let d = self.dim();
        if d < 0 {
            return Vec::new();
        }
        (0..=d as usize)
            .map(|k| self.simplices_of_dim(k).len())
            .collect()
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Complex")
            .field("vertices", &self.vertices.len())
            .field("facets", &self.facets.len())
            .field("dim", &self.dim())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_label_read_for_many_colors_is_held_once() {
        let mut c = Complex::new();
        let mut ids = Vec::new();
        // labels shared by up to four colors, inserted interleaved so the
        // index grows through their probe runs
        for round in 0..4u32 {
            for value in 0..50u64 {
                let bytes = Label::scalar(value).bytes().to_vec();
                ids.push(((round, value), c.ensure_vertex_bytes(Color(round), &bytes)));
            }
        }
        assert_eq!(c.num_vertices(), 200);
        for &((color, value), id) in &ids {
            let label = Label::scalar(value);
            assert_eq!(c.vertex_id(Color(color), &label), Some(id));
            assert_eq!(
                c.ensure_vertex(Color(color), label.clone()),
                id,
                "found, not added"
            );
            assert_eq!(c.ensure_vertex_bytes(Color(color), label.bytes()), id);
            // one allocation per label, whatever its colors
            let first = c.vertex_id(Color(0), &label).unwrap();
            assert_eq!(
                c.label(id).bytes().as_ptr(),
                c.label(first).bytes().as_ptr()
            );
        }
        assert_eq!(c.num_vertices(), 200);
        assert_eq!(c.vertex_id(Color(4), &Label::scalar(0)), None);
        assert_eq!(c.vertex_id(Color(0), &Label::scalar(50)), None);
    }

    #[test]
    fn bulk_insertion_equals_folding_add_facet() {
        let mut rng = iis_obs::Rng::seed_from_u64(0xface_0075);
        for case in 0..400 {
            let n = rng.random_range(1usize..9);
            let mut base = Complex::new();
            for i in 0..n {
                base.ensure_vertex(Color((i % 3) as u32), Label::scalar(i as u64));
            }
            let random_simplex = |rng: &mut iis_obs::Rng| {
                let len = rng.random_range(0usize..n.min(5) + 1);
                Simplex::new((0..len).map(|_| VertexId(rng.random_range(0..n as u32))))
            };
            // a few facets already present, then a batch with duplicates,
            // nested faces, supersets of existing facets and empties
            let mut folded = base.clone();
            for _ in 0..rng.random_range(0usize..4) {
                folded.add_facet(random_simplex(&mut rng).iter());
            }
            let mut bulk = folded.clone();
            let mut batch: Vec<Simplex> = (0..rng.random_range(0usize..30))
                .map(|_| random_simplex(&mut rng))
                .collect();
            // every third batch arrives in the order `add_facets` sorts to
            // (largest first, then increasing), as a read complex's facets do
            if case % 3 == 0 {
                batch.retain(|s| !s.is_empty());
                batch.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
                batch.dedup();
            }
            for s in &batch {
                folded.add_facet(s.iter());
            }
            bulk.add_facets(batch.clone());
            let facets = |c: &Complex| c.facets().cloned().collect::<Vec<_>>();
            assert_eq!(facets(&bulk), facets(&folded), "case {case}: {batch:?}");
            // the incidence index answers membership like the facet scan
            let index = bulk.facet_index();
            for _ in 0..20 {
                let s = random_simplex(&mut rng);
                assert_eq!(
                    index.contains_simplex(&s),
                    bulk.contains_simplex(&s),
                    "{s:?}"
                );
            }
            let stranger = Simplex::new([VertexId(n as u32)]);
            assert!(!index.contains_simplex(&stranger));
            assert!(index.contains_simplex(&Simplex::empty()));
        }
    }

    fn triangle() -> Complex {
        Complex::standard_simplex(2)
    }

    /// Two triangles glued along an edge.
    fn butterfly() -> Complex {
        let mut c = Complex::new();
        let a = c.ensure_vertex(Color(0), Label::scalar(0));
        let b = c.ensure_vertex(Color(1), Label::scalar(1));
        let x = c.ensure_vertex(Color(2), Label::scalar(2));
        let y = c.ensure_vertex(Color(2), Label::scalar(3));
        c.add_facet([a, b, x]);
        c.add_facet([a, b, y]);
        c
    }

    #[test]
    fn standard_simplex_basics() {
        let s = triangle();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.num_facets(), 1);
        assert!(s.is_pure());
        assert!(s.is_chromatic());
        assert_eq!(s.num_simplices(), 7);
        assert_eq!(s.euler_characteristic(), 1);
        assert_eq!(s.f_vector(), vec![3, 3, 1]);
    }

    #[test]
    fn ensure_vertex_dedups() {
        let mut c = Complex::new();
        let a = c.ensure_vertex(Color(0), Label::scalar(7));
        let b = c.ensure_vertex(Color(0), Label::scalar(7));
        assert_eq!(a, b);
        let d = c.ensure_vertex(Color(1), Label::scalar(7));
        assert_ne!(a, d);
        assert_eq!(c.vertex_id(Color(0), &Label::scalar(7)), Some(a));
        assert_eq!(c.vertex_id(Color(9), &Label::scalar(7)), None);
    }

    #[test]
    fn facet_antichain_maintained() {
        let mut c = Complex::new();
        let a = c.ensure_vertex(Color(0), Label::scalar(0));
        let b = c.ensure_vertex(Color(1), Label::scalar(1));
        let x = c.ensure_vertex(Color(2), Label::scalar(2));
        c.add_facet([a, b]);
        assert_eq!(c.num_facets(), 1);
        c.add_facet([a, b, x]);
        assert_eq!(c.num_facets(), 1); // edge absorbed into triangle
        c.add_facet([a, x]);
        assert_eq!(c.num_facets(), 1); // already a face
    }

    #[test]
    fn contains_simplex_closure() {
        let s = triangle();
        let ids: Vec<VertexId> = s.vertex_ids().collect();
        assert!(s.contains_simplex(&Simplex::new([ids[0], ids[2]])));
        assert!(s.contains_simplex(&Simplex::empty()));
        let mut c = s.clone();
        let lone = c.ensure_vertex(Color(3), Label::scalar(9));
        assert!(!c.contains_simplex(&Simplex::new([lone])));
    }

    #[test]
    fn butterfly_structure() {
        let c = butterfly();
        assert_eq!(c.num_facets(), 2);
        assert!(c.is_pure());
        assert!(c.is_chromatic());
        assert_eq!(c.connected_components(), 1);
        // star/link of the shared edge
        let a = c.vertex_id(Color(0), &Label::scalar(0)).unwrap();
        let b = c.vertex_id(Color(1), &Label::scalar(1)).unwrap();
        let edge = Simplex::new([a, b]);
        assert_eq!(c.star(&edge).num_facets(), 2);
        let link = c.link(&edge);
        assert_eq!(link.num_vertices(), 2);
        assert_eq!(link.dim(), 0);
        assert_eq!(link.connected_components(), 2);
    }

    #[test]
    fn non_chromatic_detected() {
        let mut c = Complex::new();
        let a = c.ensure_vertex(Color(0), Label::scalar(0));
        let b = c.ensure_vertex(Color(0), Label::scalar(1));
        c.add_facet([a, b]);
        assert!(!c.is_chromatic());
    }

    #[test]
    fn boundary_of_triangle_is_cycle() {
        let s = triangle();
        let b = s.boundary();
        assert_eq!(b.dim(), 1);
        assert_eq!(b.num_facets(), 3);
        assert_eq!(b.euler_characteristic(), 0); // a circle
        assert_eq!(b.connected_components(), 1);
    }

    #[test]
    fn boundary_of_butterfly() {
        // shared edge is interior (in 2 facets); the other 4 edges are boundary
        let b = butterfly().boundary();
        assert_eq!(b.num_facets(), 4);
    }

    #[test]
    fn skeleton_dims() {
        let s = triangle();
        let sk1 = s.skeleton(1);
        assert_eq!(sk1.dim(), 1);
        assert_eq!(sk1.num_facets(), 3);
        let sk0 = s.skeleton(0);
        assert_eq!(sk0.dim(), 0);
        assert_eq!(sk0.num_facets(), 3);
    }

    #[test]
    fn color_face_extracts_subdivided_face() {
        let c = butterfly();
        let mut colors = BTreeSet::new();
        colors.insert(Color(0));
        colors.insert(Color(2));
        let face = c.color_face(&colors);
        // vertices a, x, y; edges (a,x), (a,y)
        assert_eq!(face.num_vertices(), 3);
        assert_eq!(face.num_facets(), 2);
        assert_eq!(face.dim(), 1);
    }

    #[test]
    fn same_labeled_detects_equality_and_difference() {
        let a = butterfly();
        let b = butterfly();
        assert!(a.same_labeled(&b));
        let mut c = butterfly();
        let extra = c.ensure_vertex(Color(3), Label::scalar(4));
        c.add_facet([extra]);
        assert!(!a.same_labeled(&c));
        // build in a different insertion order
        let mut d = Complex::new();
        let y = d.ensure_vertex(Color(2), Label::scalar(3));
        let x = d.ensure_vertex(Color(2), Label::scalar(2));
        let b2 = d.ensure_vertex(Color(1), Label::scalar(1));
        let a2 = d.ensure_vertex(Color(0), Label::scalar(0));
        d.add_facet([a2, b2, y]);
        d.add_facet([a2, b2, x]);
        assert!(a.same_labeled(&d));
    }

    #[test]
    fn for_each_simplex_streams_sorted_dedup() {
        // shared faces between facets must be visited exactly once, in the
        // same (sorted) order `simplices()` iterates in
        for c in [
            triangle(),
            butterfly(),
            crate::sds_iterated(&Complex::standard_simplex(2), 1)
                .complex()
                .clone(),
        ] {
            let mut streamed = Vec::new();
            c.for_each_simplex(|s| streamed.push(s.clone()));
            // reference: materialize the face poset the pedestrian way
            let mut poset = BTreeSet::new();
            for f in c.facets() {
                poset.extend(f.faces());
            }
            let materialized: Vec<Simplex> = poset.into_iter().collect();
            assert_eq!(streamed, materialized);
            let mut sorted = streamed.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(streamed, sorted, "stream must be sorted and deduped");
        }
        // empty complex: no visits
        let mut n = 0;
        Complex::new().for_each_simplex(|_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn components_of_disjoint_edges() {
        let mut c = Complex::new();
        let a = c.ensure_vertex(Color(0), Label::scalar(0));
        let b = c.ensure_vertex(Color(1), Label::scalar(1));
        let x = c.ensure_vertex(Color(0), Label::scalar(2));
        let y = c.ensure_vertex(Color(1), Label::scalar(3));
        c.add_facet([a, b]);
        c.add_facet([x, y]);
        assert_eq!(c.connected_components(), 2);
    }

    #[test]
    fn not_pure_detected() {
        let mut c = butterfly();
        let z = c.ensure_vertex(Color(3), Label::scalar(5));
        let a = c.vertex_id(Color(0), &Label::scalar(0)).unwrap();
        c.add_facet([a, z]);
        assert!(!c.is_pure());
    }

    fn two_points(color_a: u32, color_b: u32, tag: u64) -> Complex {
        let mut c = Complex::new();
        let a = c.ensure_vertex(Color(color_a), Label::scalar(tag));
        let b = c.ensure_vertex(Color(color_b), Label::scalar(tag + 1));
        c.add_facet([a]);
        c.add_facet([b]);
        c
    }

    #[test]
    fn join_of_two_zero_spheres_is_a_circle() {
        // S⁰ * S⁰ = S¹: 4 vertices, 4 edges, χ = 0
        let circle = two_points(0, 0, 0).join(&two_points(1, 1, 10));
        assert_eq!(circle.num_vertices(), 4);
        assert_eq!(circle.num_facets(), 4);
        assert_eq!(circle.dim(), 1);
        assert_eq!(circle.euler_characteristic(), 0);
        assert_eq!(circle.connected_components(), 1);
        assert!(circle.is_chromatic());
    }

    #[test]
    fn join_with_point_is_cone() {
        let circle = Complex::standard_simplex(2).boundary();
        let cone = circle.cone(Color(3), Label::scalar(99));
        assert_eq!(cone.dim(), 2);
        assert_eq!(cone.euler_characteristic(), 1, "cones are contractible");
        assert_eq!(cone.num_facets(), 3);
    }

    #[test]
    fn join_of_edge_and_point_is_triangle() {
        let edge = Complex::standard_simplex(1);
        let t = edge.cone(Color(2), Label::scalar(2));
        assert_eq!(t.num_facets(), 1);
        assert_eq!(t.dim(), 2);
        assert!(t.is_chromatic());
    }

    #[test]
    fn join_with_empty_keeps_facets() {
        let edge = Complex::standard_simplex(1);
        let j = edge.join(&Complex::new());
        assert_eq!(j.num_facets(), 1);
        assert_eq!(j.dim(), 1);
        let j2 = Complex::new().join(&edge);
        assert_eq!(j2.num_facets(), 1);
    }

    #[test]
    fn star_of_vertex() {
        let c = butterfly();
        let x = c.vertex_id(Color(2), &Label::scalar(2)).unwrap();
        let star = c.star(&Simplex::new([x]));
        assert_eq!(star.num_facets(), 1);
        assert_eq!(star.num_vertices(), 3);
    }
}
