//! Flat integer-id arena form of the `SDS^b` tower.
//!
//! This is the one construction of `SDS^b`: every tower in the crate is
//! grown here. [`crate::Complex`] is the labelled representation: vertices
//! carry nested view [`crate::Label`]s, are found through a `Color → Label
//! → VertexId` hash index, and facets live in a `BTreeSet<Simplex>`. That
//! is the right shape for callers that need labels (Theorem 5.1 targets,
//! `bsd`, `iis sds`), and [`crate::sds_iterated`] produces it by labelling
//! an arena tower; but the hot paths — rebuilding `SDS^b(I)` to revalidate
//! a stored witness, and compiling the decision-map CSP for the search —
//! only need integer ids and contiguous slices. This module provides that
//! form:
//!
//! - [`ArenaComplex`] stores per-vertex colors and the facets as sorted
//!   `u32` slices in one CSR (compressed sparse row) arena, with no labels;
//! - [`ArenaSds`] is the iterated-subdivision tower built level by level
//!   with carriers composed straight down to the base, stored CSR.
//!
//! A vertex of `SDS^{b+1}` is a process together with the level-`b`
//! vertices it saw, so the arena names it by `(color, sorted ids of the
//! level-b vertices in its view)` instead of by its nested view label.
//! The two names pick out the same vertices (DESIGN.md, "Why ids name the
//! same vertices as labels"), and ids are assigned in first-encounter order
//! over the previous level's lexicographic facet order, exactly as
//! [`crate::sds_iterated`] assigns them — by construction, since it labels
//! this tower. Both are **id-compatible** with the ordered-partition walk
//! [`crate::sds_reference_iterated`]: vertex `i` of [`ArenaSds::complex`]
//! is vertex `i` of the reference complex, with the same color and base
//! carrier, and the facet sets agree ([`ArenaSds::agrees_with`], enforced
//! by tests here and the differential suites in `iis-core`). This is what
//! lets `iis_core::cache` validate a stored witness against the arena, and
//! the search return a witness on it, and still hand back exactly the
//! answer the reference tower gives.
//!
//! The tower keeps no labels at all, not even the base's: its base is the
//! label-free [`ArenaComplex`] of the input, so `SDS^b` depends only on the
//! input's *shape* — its colors in id order and its facets in sorted order
//! ([`ArenaComplex::same_shape`]). Inputs of equal shape and different
//! labels share one tower.
//!
//! The names are also what a protocol needs: a process whose level-`b`
//! state is vertex `x` writes `x`, reads the ids its round saw, and its
//! level-`b+1` state is the vertex of that name. [`ArenaSds::next_with`]
//! hands every vertex's name to the caller as it is made, and every level
//! records each vertex's own-color predecessor — the forget map
//! `SDS^{b+1} → SDS^b` ([`ArenaSds::forget`]).

use crate::template;
use crate::{Color, Complex, Subdivision};
use iis_obs::metrics::{StaticCounter, StaticHistogram};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// A chromatic complex as per-vertex colors plus CSR facet storage.
///
/// Vertex ids are dense and assigned in insertion order; facets are sorted
/// `u32` slices appended to one flat arena. Unlike [`Complex`], facet
/// insertion does **not** maintain an antichain — the subdivision builder
/// guarantees it structurally, and [`ArenaComplex::from_complex`] starts
/// from one.
#[derive(Debug, Clone)]
pub struct ArenaComplex {
    /// Per-vertex color, indexed by vertex id.
    colors: Vec<Color>,
    /// CSR facet offsets (length `num_facets + 1`).
    facet_offsets: Vec<u32>,
    /// Concatenated facet vertex ids, sorted within each facet.
    facet_verts: Vec<u32>,
}

impl ArenaComplex {
    fn with_capacity(vertices: usize, facets: usize, facet_verts: usize) -> Self {
        let mut facet_offsets = Vec::with_capacity(facets + 1);
        facet_offsets.push(0);
        ArenaComplex {
            colors: Vec::with_capacity(vertices),
            facet_offsets,
            facet_verts: Vec::with_capacity(facet_verts),
        }
    }

    /// The arena form of `c`: vertices in id order, facets in the
    /// reference complex's sorted order. Vertex ids coincide with `c`'s.
    pub fn from_complex(c: &Complex) -> Self {
        let mut a = ArenaComplex::with_capacity(c.num_vertices(), c.num_facets(), 0);
        a.colors.extend(c.vertex_ids().map(|v| c.color(v)));
        for f in c.facets() {
            a.facet_verts.extend(f.iter().map(|v| v.0));
            a.facet_offsets.push(a.facet_verts.len() as u32);
        }
        a
    }

    /// Appends a facet given as strictly increasing vertex ids.
    fn push_facet_sorted(&mut self, verts: &[u32]) {
        debug_assert!(!verts.is_empty(), "facets are non-empty");
        debug_assert!(
            verts.windows(2).all(|w| w[0] < w[1]),
            "facet must be strictly increasing"
        );
        debug_assert!(verts.iter().all(|&v| (v as usize) < self.colors.len()));
        self.facet_verts.extend_from_slice(verts);
        self.facet_offsets.push(self.facet_verts.len() as u32);
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.colors.len()
    }

    /// Number of facets.
    pub fn num_facets(&self) -> usize {
        self.facet_offsets.len() - 1
    }

    /// The vertices of facet `i`, sorted ascending.
    pub fn facet(&self, i: usize) -> &[u32] {
        let (lo, hi) = (self.facet_offsets[i], self.facet_offsets[i + 1]);
        &self.facet_verts[lo as usize..hi as usize]
    }

    /// The color of vertex `v`.
    pub fn color(&self, v: u32) -> Color {
        self.colors[v as usize]
    }

    /// `true` iff `c` has this complex's shape: the same vertex colors in
    /// id order and the same facets in sorted order — everything
    /// [`arena_sds_tower`] reads of its base. Labels are not compared.
    pub fn same_shape(&self, c: &Complex) -> bool {
        self.num_vertices() == c.num_vertices()
            && self.num_facets() == c.num_facets()
            && c.vertex_ids().all(|v| self.color(v.0) == c.color(v))
            && c.facets()
                .enumerate()
                .all(|(i, f)| self.facet(i).iter().copied().eq(f.iter().map(|v| v.0)))
    }
}

/// The `b`-fold iterated standard chromatic subdivision of a base complex
/// in arena form, with per-vertex carriers (sorted base vertex ids) stored
/// CSR. Built by [`arena_sds_tower`] or, one level at a time, by
/// [`ArenaSds::next`].
#[derive(Debug)]
pub struct ArenaSds {
    /// The base complex `C` without labels, shared by every level.
    base: Arc<ArenaComplex>,
    /// `SDS^b(C)`; `None` at level 0, where it is the base.
    complex: Option<ArenaComplex>,
    /// Permutation of facet indices putting facets in lexicographic
    /// (= reference `BTreeSet<Simplex>`) order.
    facet_order: Vec<u32>,
    /// CSR carrier offsets (length `num_vertices + 1`).
    carrier_offsets: Vec<u32>,
    /// Concatenated carriers: sorted base vertex ids per arena vertex.
    carrier_verts: Vec<u32>,
    /// Per vertex: its own-color vertex of the previous level (empty at
    /// level 0).
    forget: Vec<u32>,
    rounds: usize,
}

impl ArenaSds {
    /// The base complex `C`, label-free.
    pub fn base(&self) -> &ArenaComplex {
        &self.base
    }

    /// The subdivided complex `SDS^b(C)` in arena form.
    pub fn complex(&self) -> &ArenaComplex {
        self.complex.as_ref().unwrap_or(&self.base)
    }

    /// The number of subdivision rounds `b`.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The carrier of vertex `v`: sorted base vertex ids.
    pub fn carrier(&self, v: u32) -> &[u32] {
        let (lo, hi) = (
            self.carrier_offsets[v as usize],
            self.carrier_offsets[v as usize + 1],
        );
        &self.carrier_verts[lo as usize..hi as usize]
    }

    /// The forget map `SDS^b → SDS^{b-1}`: vertex `v`'s own-color vertex in
    /// its view, i.e. the state of `v`'s process one round earlier — on
    /// the reference tower, the vertex reached by peeling the process's
    /// own entry out of `v`'s view label.
    ///
    /// # Panics
    ///
    /// Panics on the base level (`b = 0`), which has no predecessor.
    pub fn forget(&self, v: u32) -> u32 {
        self.forget[v as usize]
    }

    /// `SDS^0(C) = C`: the level-0 tower over this tower's base.
    pub fn level_zero(&self) -> ArenaSds {
        level_zero(Arc::clone(&self.base))
    }

    /// Facet indices in lexicographic order — the order
    /// [`Complex::facets`] would yield them.
    pub fn facet_order(&self) -> &[u32] {
        &self.facet_order
    }

    /// `SDS^{b+1}(C)` from this `SDS^b(C)`: one more subdivision level,
    /// carriers composed to the base (Lemma 3.3).
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_topology::arena::arena_sds_tower;
    /// use iis_topology::Complex;
    /// let base = Complex::standard_simplex(1);
    /// let two = arena_sds_tower(&base, 1).next();
    /// assert_eq!(two.rounds(), 2);
    /// assert!(two.agrees_with(&iis_topology::sds_reference_iterated(&base, 2)).is_ok());
    /// ```
    pub fn next(&self) -> ArenaSds {
        self.next_with(|_, _| {})
    }

    /// [`ArenaSds::next`] under a deadline, polled once per 64 facets of
    /// this level: `None` once the deadline has passed. A level of at most
    /// 64 facets is built whatever the clock says.
    pub fn next_until(&self, deadline: Option<Instant>) -> Option<ArenaSds> {
        arena_sds_level(self, deadline, |_, _, _| {})
    }

    /// [`ArenaSds::next`], calling `named(name, id)` once per vertex of the
    /// new level as it is made: `name` is `[color, sorted ids of the
    /// level-b vertices in its view…]` and `id` its vertex id. A protocol
    /// keeps these names to look up its next state.
    ///
    /// # Examples
    ///
    /// ```
    /// use iis_topology::arena::arena_sds_tower;
    /// use iis_topology::Complex;
    /// let edge = arena_sds_tower(&Complex::standard_simplex(1), 0);
    /// let mut names = Vec::new();
    /// let one = edge.next_with(|name, id| names.push((name.to_vec(), id)));
    /// assert_eq!(names.len(), one.complex().num_vertices());
    /// // process 0 alone saw its corner; seeing both corners, it is
    /// // another vertex — and one round earlier, both were that corner
    /// let id = |name: &[u32]| names.iter().find(|(n, _)| n == name).unwrap().1;
    /// let (solo, both) = (id(&[0, 0]), id(&[0, 0, 1]));
    /// assert_ne!(solo, both);
    /// assert_eq!((one.forget(solo), one.forget(both)), (0, 0));
    /// ```
    pub fn next_with<F: FnMut(&[u32], u32)>(&self, mut named: F) -> ArenaSds {
        arena_sds_level(self, None, |name, _, id| named(name, id)).expect("no deadline")
    }

    /// Visits every distinct simplex of the subdivided complex, as its
    /// sorted vertex ids together with its carrier (sorted base vertex
    /// ids, the union of its vertices' carriers), in the order
    /// [`Complex::for_each_simplex`] visits them on the reference tower.
    ///
    /// Each facet's faces are enumerated by bitmask, then sorted and
    /// deduplicated as fixed-width keys: ids shifted up by one and
    /// zero-padded, so a proper prefix sorts first — the lexicographic
    /// order of [`crate::Simplex`]. The keys are first counted out by
    /// their lowest vertex, and each vertex's run is sorted as the walk
    /// reaches it. The walk stops at the first simplex `f` breaks at, and
    /// returns what it broke with.
    pub fn for_each_simplex<B, F>(&self, mut f: F) -> ControlFlow<B>
    where
        F: FnMut(&[u32], &[u32]) -> ControlFlow<B>,
    {
        let c = self.complex();
        let width = (0..c.num_facets())
            .map(|i| c.facet(i).len())
            .max()
            .unwrap_or(0);
        if width == 0 {
            return ControlFlow::Continue(());
        }
        assert!(
            width <= template::WIDTH_LIMIT,
            "template width {width} out of range (faces are enumerated by u16 masks)"
        );
        let mut keys: Vec<u32> = Vec::new();
        for i in 0..c.num_facets() {
            let fv = c.facet(i);
            for mask in 1..(1u32 << fv.len()) {
                let start = keys.len();
                keys.extend(set_bits(mask as u16).map(|k| fv[k] + 1));
                keys.resize(start + width, 0);
            }
        }
        let key = |i: u32| &keys[i as usize * width..(i as usize + 1) * width];
        // keys by their first id (the lowest vertex, shifted), counted
        // out into one run per vertex: the runs in order, each sorted, are
        // the keys sorted, and a run is sorted only when the walk reaches
        // it, so `f` sees the first simplices, and may stop the walk,
        // before the bulk of the sort
        let mut runs = vec![0u32; c.num_vertices() + 2];
        for k in keys.chunks_exact(width) {
            runs[k[0] as usize + 1] += 1;
        }
        for v in 1..runs.len() {
            runs[v] += runs[v - 1];
        }
        let mut order = vec![0u32; keys.len() / width];
        let mut cursor = runs.clone();
        for (i, k) in keys.chunks_exact(width).enumerate() {
            let at = &mut cursor[k[0] as usize];
            order[*at as usize] = i as u32;
            *at += 1;
        }
        let mut verts: Vec<u32> = Vec::with_capacity(width);
        let mut carrier: Vec<u32> = Vec::new();
        for run in runs.windows(2) {
            let run = &mut order[run[0] as usize..run[1] as usize];
            run.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
            for (j, &i) in run.iter().enumerate() {
                if j > 0 && key(run[j - 1]) == key(i) {
                    continue;
                }
                verts.clear();
                verts.extend(key(i).iter().take_while(|&&v| v != 0).map(|&v| v - 1));
                carrier.clear();
                for &v in &verts {
                    carrier.extend_from_slice(self.carrier(v));
                }
                carrier.sort_unstable();
                carrier.dedup();
                f(&verts, &carrier)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Checks that this tower is the reference tower `sub` with its labels
    /// forgotten: a base of the same shape, the same vertex colors in the same id
    /// order, the same per-vertex carriers, and the same facets, with
    /// [`ArenaSds::facet_order`] reproducing `sub`'s sorted facet order.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement.
    pub fn agrees_with(&self, sub: &Subdivision) -> Result<(), String> {
        let (ac, rc) = (self.complex(), sub.complex());
        if !self.base.same_shape(sub.base()) {
            return Err("base complexes of different shapes".to_string());
        }
        if ac.num_vertices() != rc.num_vertices() {
            return Err(format!(
                "{} vertices vs {} in the reference",
                ac.num_vertices(),
                rc.num_vertices()
            ));
        }
        for v in rc.vertex_ids() {
            if ac.color(v.0) != rc.color(v) {
                return Err(format!("color of vertex {v}"));
            }
            if !self
                .carrier(v.0)
                .iter()
                .copied()
                .eq(sub.carrier_of_vertex(v).iter().map(|u| u.0))
            {
                return Err(format!("carrier of vertex {v}"));
            }
        }
        if ac.num_facets() != rc.num_facets() || self.facet_order.len() != ac.num_facets() {
            return Err(format!(
                "{} facets vs {} in the reference",
                ac.num_facets(),
                rc.num_facets()
            ));
        }
        for (k, (&i, f)) in self.facet_order.iter().zip(rc.facets()).enumerate() {
            if !ac
                .facet(i as usize)
                .iter()
                .copied()
                .eq(f.iter().map(|v| v.0))
            {
                return Err(format!("facet {k} in sorted order"));
            }
        }
        Ok(())
    }
}

/// Builds `SDS^b(base)` in arena form, composing carriers down to `base`
/// at every level (Lemma 3.3) — [`crate::sds_iterated`] without its
/// labelling pass, used by the witness revalidation path in
/// `iis-core::cache`.
///
/// # Panics
///
/// Panics if `base` is not chromatic.
///
/// # Examples
///
/// ```
/// use iis_topology::arena::arena_sds_tower;
/// use iis_topology::{sds_reference_iterated, Complex};
/// let base = Complex::standard_simplex(1);
/// let arena = arena_sds_tower(&base, 2);
/// assert_eq!(arena.complex().num_facets(), 9);
/// assert!(arena.agrees_with(&sds_reference_iterated(&base, 2)).is_ok());
/// ```
pub fn arena_sds_tower(base: &Complex, b: usize) -> ArenaSds {
    assert!(base.is_chromatic(), "SDS requires a chromatic base complex");
    let zero = level_zero(Arc::new(ArenaComplex::from_complex(base)));
    (0..b).fold(zero, |tower, _| tower.next())
}

/// `SDS^0(C) = C` with identity carriers; [`ArenaComplex::from_complex`]
/// walks facets in `BTreeSet` order, so the CSR is already lexicographic.
pub(crate) fn level_zero(base: Arc<ArenaComplex>) -> ArenaSds {
    let nv = base.num_vertices() as u32;
    ArenaSds {
        facet_order: (0..base.num_facets() as u32).collect(),
        carrier_offsets: (0..=nv).collect(),
        carrier_verts: (0..nv).collect(),
        forget: Vec::new(),
        complex: None,
        base,
        rounds: 0,
    }
}

/// One subdivision level: `SDS^{b+1}(C)` from `SDS^b(C)`, carriers
/// composed to the base.
///
/// A new vertex is named by its color and its *view*, the sorted ids of
/// the previous-level vertices it saw; the first time a name is met it
/// gets the next id, and `named(name, view, id)` hears of it. Views are
/// numbered in first-encounter order too, and a view's first vertex is
/// made when the view is first met, so `view` runs through `0, 1, 2, …`
/// without gaps. Facets are subdivided in lexicographic order — the order
/// [`crate::sds_reference`] walks the `BTreeSet` — which pins ids to the
/// reference path's. This is the only code that instantiates a
/// [`template::SdsTemplate`]. With a `deadline`, the clock is read before
/// every [`FACETS_PER_POLL`]-th facet past the first, and a passed
/// deadline abandons the level (`None`).
///
/// It is also the one place a level is recorded, whoever asked for it: a
/// finished level adds one `sds.builds`, its facets and vertices to
/// `sds.facets` and `sds.vertices`, one `sds.arena_build_ns` sample and,
/// while tracing, one `sds.level` event. An abandoned level records
/// nothing.
pub(crate) fn arena_sds_level<F: FnMut(&[u32], u32, u32)>(
    prev: &ArenaSds,
    deadline: Option<Instant>,
    mut named: F,
) -> Option<ArenaSds> {
    static BUILD_NS: StaticHistogram = StaticHistogram::new("sds.arena_build_ns");
    let timer = iis_obs::span::span_on(&BUILD_NS);
    let pc = prev.complex();
    // The templates by width, fetched from the process-wide cache once per
    // level; every later facet of a cached width is one more template hit.
    // They fix the new level's facet count, so its CSR is sized exactly,
    // and bound its vertex and view counts (exact for one facet).
    let mut templates: [Option<Arc<template::SdsTemplate>>; template::WIDTH_LIMIT + 1] =
        Default::default();
    let mut reused = 0u64;
    let (mut facets, mut facet_verts, mut vertex_bound, mut view_bound) = (0, 0, 0, 0);
    // level-one carriers are the views: Σ |S| over the template's vertices
    let mut carrier_bound = 0;
    for &fi in &prev.facet_order {
        let n = pc.facet(fi as usize).len();
        let tpl = match templates.get(n) {
            Some(Some(t)) => {
                reused += u64::from(n <= template::MAX_TEMPLATE_WIDTH);
                t
            }
            // `template` rejects a width past the limit before it is used
            // as an index
            _ => {
                let t = template::template(n);
                templates[n].insert(t)
            }
        };
        facets += tpl.num_facets();
        facet_verts += tpl.facet_tuples().len();
        vertex_bound += tpl.num_vertices();
        view_bound += (1 << n) - 1;
        carrier_bound += tpl.num_vertices() * (n + 1) / 2;
    }
    let mut next = ArenaComplex::with_capacity(vertex_bound, facets, facet_verts);
    let mut carrier_offsets: Vec<u32> = Vec::with_capacity(vertex_bound + 1);
    carrier_offsets.push(0);
    let mut carrier_verts: Vec<u32> = Vec::with_capacity(carrier_bound);
    let mut forget: Vec<u32> = Vec::with_capacity(vertex_bound);
    // `view → view number`; view `k`'s vertices, one per member in id
    // order, are `slots[starts[k]..]`, `u32::MAX` until made. Only a view
    // met for the first time allocates its key.
    let mut views: HashMap<Box<[u32]>, u32> = HashMap::new();
    let mut starts: Vec<u32> = Vec::with_capacity(view_bound);
    let mut slots: Vec<u32> = Vec::with_capacity(vertex_bound);
    // Scratch, reused across facets.
    let mut view_of_mask: Vec<u32> = Vec::new();
    let mut name = [0u32; template::WIDTH_LIMIT + 1];
    let mut concrete: Vec<u32> = Vec::new();
    let mut tuple_ids = [0u32; template::WIDTH_LIMIT];
    // a view of the whole facet occurs in no other facet (facets are
    // maximal), and no view is shared when there is one facet: only views
    // that may recur are kept
    let kept = |mask: u16, full: u16| mask != full && pc.num_facets() > 1;
    for (i, &fi) in prev.facet_order.iter().enumerate() {
        if i > 0 && i % FACETS_PER_POLL == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            // the timer holds no resources: forgetting it drops its sample
            std::mem::forget(timer);
            return None;
        }
        let fv = pc.facet(fi as usize);
        let n = fv.len();
        let tpl = templates[n].as_ref().expect("fetched above");
        let full = ((1u32 << n) - 1) as u16;
        view_of_mask.clear();
        view_of_mask.resize(1 << n, u32::MAX);
        concrete.clear();
        for &(pos, mask) in tpl.vertices() {
            name[0] = pc.color(fv[pos as usize]).0;
            for (j, k) in set_bits(mask).enumerate() {
                name[1 + j] = fv[k];
            }
            let name = &name[..=mask.count_ones() as usize];
            let view = &name[1..];
            if view_of_mask[mask as usize] == u32::MAX {
                let known = kept(mask, full).then(|| views.get(view).copied());
                view_of_mask[mask as usize] = known.flatten().unwrap_or_else(|| {
                    let k = starts.len() as u32;
                    if kept(mask, full) {
                        views.insert(view.into(), k);
                    }
                    starts.push(slots.len() as u32);
                    slots.resize(slots.len() + view.len(), u32::MAX);
                    k
                });
            }
            let k = view_of_mask[mask as usize];
            let slot = (starts[k as usize] + (mask & ((1 << pos) - 1)).count_ones()) as usize;
            if slots[slot] == u32::MAX {
                let id = next.colors.len() as u32;
                slots[slot] = id;
                named(name, k, id);
                next.colors.push(Color(name[0]));
                forget.push(fv[pos as usize]);
                // the carrier: the union of the view's carriers — at level
                // one, where each carrier is its vertex, the view itself
                let start = carrier_verts.len();
                for &u in &name[1..] {
                    carrier_verts.extend_from_slice(prev.carrier(u));
                }
                if prev.rounds > 0 {
                    carrier_verts[start..].sort_unstable();
                    let mut end = start;
                    for i in start..carrier_verts.len() {
                        if i == start || carrier_verts[i] != carrier_verts[end - 1] {
                            carrier_verts[end] = carrier_verts[i];
                            end += 1;
                        }
                    }
                    carrier_verts.truncate(end);
                }
                carrier_offsets.push(carrier_verts.len() as u32);
            }
            concrete.push(slots[slot]);
        }
        for tuple in tpl.facet_tuples().chunks(n) {
            let ids = &mut tuple_ids[..n];
            for (id, &ti) in ids.iter_mut().zip(tuple) {
                *id = concrete[ti as usize];
            }
            ids.sort_unstable();
            next.push_facet_sorted(ids);
        }
    }
    if reused > 0 {
        template::TEMPLATE_HITS.add(reused);
    }
    // shared views leave the bound unused
    next.colors.shrink_to_fit();
    for v in [&mut forget, &mut carrier_offsets, &mut carrier_verts] {
        v.shrink_to_fit();
    }
    let order = lex_order(&next);
    let level = ArenaSds {
        base: Arc::clone(&prev.base),
        complex: Some(next),
        facet_order: order,
        carrier_offsets,
        carrier_verts,
        forget,
        rounds: prev.rounds + 1,
    };
    record(&level);
    Some(level)
}

/// Counts one finished level in `sds.builds`, `sds.facets` and
/// `sds.vertices`, and traces it as an `sds.level` event.
fn record(level: &ArenaSds) {
    static BUILDS: StaticCounter = StaticCounter::new("sds.builds");
    static FACETS: StaticCounter = StaticCounter::new("sds.facets");
    static VERTICES: StaticCounter = StaticCounter::new("sds.vertices");
    let c = level.complex();
    BUILDS.incr();
    FACETS.add(c.num_facets() as u64);
    VERTICES.add(c.num_vertices() as u64);
    if iis_obs::trace::active() {
        iis_obs::trace::event(
            "sds.level",
            "sds.level",
            &[
                ("level", iis_obs::Json::Num(level.rounds as f64)),
                ("facets", iis_obs::Json::Num(c.num_facets() as f64)),
                ("vertices", iis_obs::Json::Num(c.num_vertices() as f64)),
            ],
        );
    }
}

/// Facets of a level subdivided between two deadline polls of
/// [`ArenaSds::next_until`]: about half a millisecond of work for facets
/// of width 4.
const FACETS_PER_POLL: usize = 64;

/// The facet indices of `c` in lexicographic order of their vertex lists:
/// bucketed by first vertex (a counting sort), then each bucket sorted —
/// 5–10% of a whole `SDS(s³)` or `SDS(s⁴)` step less than one slice sort.
fn lex_order(c: &ArenaComplex) -> Vec<u32> {
    let first = |i: usize| c.facet(i)[0] as usize;
    let mut ends = vec![0u32; c.num_vertices() + 1];
    for i in 0..c.num_facets() {
        ends[first(i) + 1] += 1;
    }
    for v in 1..ends.len() {
        ends[v] += ends[v - 1];
    }
    let mut order = vec![0u32; c.num_facets()];
    for i in 0..c.num_facets() {
        let slot = &mut ends[first(i)];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    // `ends[v]` is now the end of vertex `v`'s bucket
    let mut start = 0;
    for &end in &ends[..c.num_vertices()] {
        order[start..end as usize]
            .sort_unstable_by(|&a, &b| c.facet(a as usize).cmp(c.facet(b as usize)));
        start = end as usize;
    }
    order
}

/// Ascending set-bit indices of `mask`.
fn set_bits(mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn({
        let mut bits = mask;
        move || {
            if bits == 0 {
                return None;
            }
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(k)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sds_reference_iterated as oracle, Color, Label};

    /// A passed deadline abandons a level at its first poll; a level of
    /// at most 64 facets is built as untimed, and a deadline still ahead
    /// changes nothing.
    #[test]
    fn a_passed_deadline_abandons_a_level_at_its_first_poll() {
        let past = Some(Instant::now());
        let s2 = Complex::standard_simplex(2);
        // SDS^1(s²) has 13 facets: too few to reach a poll
        let one = arena_sds_tower(&s2, 1);
        let two = one.next_until(past).expect("13 facets reach no poll");
        assert!(two.agrees_with(&oracle(&s2, 2)).is_ok());
        // SDS^2(s²) has 169
        assert!(two.next_until(past).is_none());
        let later = Some(Instant::now() + std::time::Duration::from_secs(3600));
        let three = two.next_until(later).unwrap();
        assert!(three.agrees_with(&oracle(&s2, 3)).is_ok());
    }

    fn butterfly() -> Complex {
        let mut base = Complex::new();
        let a = base.ensure_vertex(Color(0), Label::scalar(0));
        let b = base.ensure_vertex(Color(1), Label::scalar(1));
        let x = base.ensure_vertex(Color(2), Label::scalar(2));
        let y = base.ensure_vertex(Color(2), Label::scalar(3));
        base.add_facet([a, b, x]);
        base.add_facet([a, b, y]);
        base
    }

    /// A mixed-width, non-pure base: a triangle with a dangling edge.
    fn kite() -> Complex {
        let mut base = Complex::new();
        let a = base.ensure_vertex(Color(0), Label::scalar(0));
        let b = base.ensure_vertex(Color(1), Label::scalar(1));
        let c = base.ensure_vertex(Color(2), Label::scalar(2));
        let d = base.ensure_vertex(Color(0), Label::scalar(3));
        base.add_facet([a, b, c]);
        base.add_facet([c, d]);
        base
    }

    #[test]
    fn from_complex_is_id_compatible() {
        let c = crate::sds(&Complex::standard_simplex(2));
        let a = ArenaComplex::from_complex(c.complex());
        assert_eq!(a.num_vertices(), c.complex().num_vertices());
        assert_eq!(a.num_facets(), c.complex().num_facets());
        for v in c.complex().vertex_ids() {
            assert_eq!(a.color(v.0), c.complex().color(v));
        }
        for (i, f) in c.complex().facets().enumerate() {
            let ids: Vec<u32> = f.iter().map(|v| v.0).collect();
            assert_eq!(a.facet(i), &ids[..]);
        }
    }

    #[test]
    fn tower_matches_reference_exactly() {
        for (base, b) in [
            (Complex::standard_simplex(1), 3usize),
            (Complex::standard_simplex(2), 2),
            (butterfly(), 3),
            (kite(), 2),
        ] {
            let arena = arena_sds_tower(&base, b);
            let reference = oracle(&base, b);
            assert_eq!(arena.agrees_with(&reference), Ok(()), "b = {b}");
            // and the comparison itself is not vacuous
            assert_eq!(
                arena.complex().num_vertices(),
                reference.complex().num_vertices()
            );
            assert!(arena.complex().num_facets() > 0);
        }
    }

    #[test]
    fn stepping_equals_building_at_once() {
        for base in [Complex::standard_simplex(2), butterfly(), kite()] {
            let mut stepped = arena_sds_tower(&base, 0);
            for b in 1..=2 {
                stepped = stepped.next();
                assert_eq!(stepped.rounds(), b);
                assert_eq!(stepped.agrees_with(&oracle(&base, b)), Ok(()));
            }
        }
    }

    #[test]
    fn agreement_notices_a_difference() {
        let base = Complex::standard_simplex(1);
        let arena = arena_sds_tower(&base, 2);
        assert!(arena.agrees_with(&oracle(&base, 1)).is_err());
        assert!(arena
            .agrees_with(&oracle(&Complex::standard_simplex(2), 2))
            .is_err());
    }

    #[test]
    fn simplices_stream_in_reference_order_with_carriers() {
        for (base, b) in [
            (Complex::standard_simplex(2), 1usize),
            (butterfly(), 1),
            (kite(), 2),
        ] {
            let arena = arena_sds_tower(&base, b);
            let reference = oracle(&base, b);
            let mut want: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            reference.complex().for_each_simplex(|s| {
                let carrier = reference.carrier_of_simplex(s);
                want.push((
                    s.iter().map(|v| v.0).collect(),
                    carrier.iter().map(|v| v.0).collect(),
                ));
            });
            let mut got: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            let _ = arena.for_each_simplex(|s, carrier| {
                got.push((s.to_vec(), carrier.to_vec()));
                ControlFlow::<()>::Continue(())
            });
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_rounds_is_identity() {
        let base = Complex::standard_simplex(2);
        let arena = arena_sds_tower(&base, 0);
        assert_eq!(arena.rounds(), 0);
        assert_eq!(arena.complex().num_vertices(), 3);
        for v in 0..3u32 {
            assert_eq!(arena.carrier(v), &[v]);
        }
        assert_eq!(
            arena.agrees_with(&crate::Subdivision::identity(base.clone())),
            Ok(())
        );
        assert_eq!(arena.level_zero().agrees_with(&oracle(&base, 0)), Ok(()));
    }

    /// The arena forget map is the reference one: each vertex's own-color
    /// predecessor is the vertex [`crate::sds::sds_forget_map`] reaches by
    /// peeling the process's own entry out of the view label.
    #[test]
    fn forget_map_equals_the_label_peeling_one() {
        for (base, max_b) in [
            (Complex::standard_simplex(1), 3usize),
            (Complex::standard_simplex(2), 2),
            (butterfly(), 2),
            (kite(), 2),
        ] {
            let mut tower = arena_sds_tower(&base, 0);
            for b in 1..=max_b {
                tower = tower.next();
                let (finer, _, map) = crate::sds::sds_forget_map(&base, b - 1);
                assert_eq!(
                    finer.complex().num_vertices(),
                    tower.complex().num_vertices()
                );
                for v in finer.complex().vertex_ids() {
                    assert_eq!(tower.forget(v.0), map.image(v).unwrap().0, "b = {b}, {v}");
                }
            }
        }
    }

    /// `next_with` names every new vertex exactly once, by its color and
    /// the sorted previous-level ids in its view, and stepping with names
    /// builds the same level as stepping without.
    #[test]
    fn names_cover_every_vertex_and_agree_with_labels() {
        for (base, max_b) in [(Complex::standard_simplex(2), 2usize), (kite(), 2)] {
            let mut tower = arena_sds_tower(&base, 0);
            for b in 1..=max_b {
                let mut names: HashMap<Vec<u32>, u32> = HashMap::new();
                let next = tower.next_with(|name, id| {
                    assert!(names.insert(name.to_vec(), id).is_none(), "{name:?} twice");
                });
                assert_eq!(next.agrees_with(&oracle(&base, b)), Ok(()));
                assert_eq!(names.len(), next.complex().num_vertices());
                // the reference label of each vertex is the view of the
                // previous level's labels its name lists
                let (finer, coarser) = (oracle(&base, b), oracle(&base, b - 1));
                for (name, &id) in &names {
                    let (c, r) = (finer.complex(), coarser.complex());
                    let v = crate::VertexId(id);
                    assert_eq!(c.color(v).0, name[0]);
                    let view = Label::view(
                        name[1..]
                            .iter()
                            .map(|&u| (r.color(crate::VertexId(u)), r.label(crate::VertexId(u)))),
                    );
                    assert_eq!(c.label(v), &view, "b = {b}, {name:?}");
                }
                tower = next;
            }
        }
    }

    #[test]
    fn shape_ignores_labels_but_not_colors() {
        let base = butterfly();
        let arena = ArenaComplex::from_complex(&base);
        assert!(arena.same_shape(&base));
        // the same facets over other labels: the same shape, the same tower
        let mut relabelled = Complex::new();
        let ids: Vec<_> = base
            .vertex_ids()
            .map(|v| relabelled.ensure_vertex(base.color(v), Label::scalar(10 + v.0 as u64)))
            .collect();
        for f in base.facets() {
            relabelled.add_facet(f.iter().map(|v| ids[v.index()]));
        }
        assert!(arena.same_shape(&relabelled));
        let tower = arena_sds_tower(&base, 1);
        assert_eq!(tower.agrees_with(&oracle(&relabelled, 1)), Ok(()));
        // swapping two colors changes the shape
        let mut recolored = Complex::new();
        let ids: Vec<_> = base
            .vertex_ids()
            .map(|v| {
                let c = match base.color(v).0 {
                    0 => Color(1),
                    1 => Color(0),
                    c => Color(c),
                };
                recolored.ensure_vertex(c, base.label(v).clone())
            })
            .collect();
        for f in base.facets() {
            recolored.add_facet(f.iter().map(|v| ids[v.index()]));
        }
        assert!(!arena.same_shape(&recolored));
        assert!(!arena.same_shape(&kite()));
    }
}
