//! The standard chromatic subdivision `SDS` (Lemmas 3.2 and 3.3).
//!
//! The one-shot immediate snapshot complex over a colored simplex *is* the
//! standard chromatic subdivision (Lemma 3.2): vertices are pairs `(i, Sᵢ)`
//! with `i ∈ Sᵢ`, and maximal simplices correspond to *ordered set
//! partitions* (the concurrency-class schedules of the immediate snapshot
//! model). This module gives `SDS(C)` and `SDS^b(C)` their view labels:
//! [`sds_iterated`] is the one construction of the tower, the arena's
//! ([`crate::arena`]), plus a labelling pass. The ordered-partition walk
//! [`sds_reference`] (iterated: [`sds_reference_iterated`]) builds the same
//! complexes independently and is kept as their oracle; `iis-core` also
//! rebuilds them by exhaustive execution enumeration and checks they
//! coincide.

use crate::arena::{self, ArenaComplex};
use crate::template::WIDTH_LIMIT;
use crate::{Color, Complex, Label, Simplex, Subdivision, VertexId};
use iis_obs::metrics::StaticHistogram;
use std::sync::Arc;

/// Enumerates all *ordered set partitions* of `items` — every way to split
/// the items into a sequence of non-empty blocks.
///
/// The number of ordered partitions of an `n`-element set is the ordered
/// Bell (Fubini) number: 1, 1, 3, 13, 75, 541, … These are exactly the
/// executions of the one-shot immediate snapshot model (§3.4): each block is
/// a maximal concurrency class of simultaneous `WriteRead`s.
///
/// # Examples
///
/// ```
/// use iis_topology::ordered_partitions;
/// assert_eq!(ordered_partitions(&[0, 1]).len(), 3);
/// assert_eq!(ordered_partitions(&[0, 1, 2]).len(), 13);
/// ```
pub fn ordered_partitions<T: Clone>(items: &[T]) -> Vec<Vec<Vec<T>>> {
    let n = items.len();
    if n == 0 {
        return vec![Vec::new()];
    }
    assert!(
        n <= 16,
        "ordered partitions of >16 items are astronomically many"
    );
    let mut out = Vec::new();
    for_each_ordered_partition(n as u32, &mut |blocks: &[u32]| {
        // Items are cloned exactly once per emitted partition, at the leaf;
        // the walk itself touches only position bitmasks.
        let partition = blocks
            .iter()
            .map(|&b| {
                let mut block = Vec::with_capacity(b.count_ones() as usize);
                let mut bits = b;
                while bits != 0 {
                    block.push(items[bits.trailing_zeros() as usize].clone());
                    bits &= bits - 1;
                }
                block
            })
            .collect();
        out.push(partition);
    });
    out
}

/// Visits every ordered set partition of the positions `{0, …, n−1}` as a
/// sequence of non-empty position bitmasks, without allocating per
/// partition.
///
/// The enumeration order is exactly [`ordered_partitions`]'s: the first
/// block ranges over the non-empty subsets of the remaining positions in
/// submask-counter order (bit `j` of the counter selecting the `j`-th
/// smallest remaining position), then recursively for the rest. Both the
/// reference subdivision builder and the [`crate::template`] builder walk
/// partitions through this function, which is what makes their vertex
/// insertion orders — and hence all downstream `VertexId`s, witnesses, and
/// node counts — coincide.
///
/// Within a visited slice, block bitmasks are disjoint, non-empty, and
/// union to `2^n − 1`. The slice is only valid for the duration of the
/// callback.
///
/// # Panics
///
/// Panics if `n > 16`.
///
/// # Examples
///
/// ```
/// use iis_topology::{for_each_ordered_partition, ordered_bell};
/// let mut count = 0u64;
/// for_each_ordered_partition(4, &mut |_blocks| count += 1);
/// assert_eq!(count, ordered_bell(4)); // 75
/// ```
#[inline]
pub fn for_each_ordered_partition(n: u32, visit: &mut impl FnMut(&[u32])) {
    assert!(
        n <= 16,
        "ordered partitions of >16 items are astronomically many"
    );
    if n == 0 {
        visit(&[]);
        return;
    }
    let full: u32 = (1u32 << n) - 1;
    let mut blocks: Vec<u32> = Vec::with_capacity(n as usize);
    // One frame per open block choice: (remaining positions, next submask
    // counter over the remaining positions' bits).
    let mut stack: Vec<(u32, u32)> = Vec::with_capacity(n as usize);
    stack.push((full, 1));
    while let Some(frame) = stack.last_mut() {
        let (rem, k) = *frame;
        if k >= 1u32 << rem.count_ones() {
            stack.pop();
            if !stack.is_empty() {
                blocks.pop();
            }
            continue;
        }
        frame.1 = k + 1;
        let block = deposit(k, rem);
        let rest = rem & !block;
        blocks.push(block);
        if rest == 0 {
            visit(&blocks);
            blocks.pop();
        } else {
            stack.push((rest, 1));
        }
    }
}

/// Scatters the low bits of `select` onto the set bits of `onto`, lowest
/// first (a portable PDEP): bit `j` of `select` lands on the `j`-th smallest
/// set bit of `onto`.
#[inline]
fn deposit(mut select: u32, mut onto: u32) -> u32 {
    let mut out = 0u32;
    while select != 0 {
        let low = onto & onto.wrapping_neg();
        if select & 1 != 0 {
            out |= low;
        }
        select >>= 1;
        onto &= onto - 1;
    }
    out
}

/// The ordered Bell (Fubini) number `a(n)`: the number of ordered set
/// partitions of an `n`-element set, i.e. the number of maximal simplices of
/// `SDS(s^{n-1})`.
///
/// Exact up to [`WIDTH_LIMIT`] (`a(16)` ≈ 5.3·10¹⁵), and saturated to
/// `u64::MAX` past it: no wider simplex has a subdivision this crate
/// builds, so a count past the limit only needs to be past every cap.
///
/// # Examples
///
/// ```
/// use iis_topology::ordered_bell;
/// assert_eq!(ordered_bell(3), 13);
/// assert_eq!(ordered_bell(16), 5_315_654_681_981_355);
/// assert_eq!(ordered_bell(17), u64::MAX);
/// ```
pub fn ordered_bell(n: usize) -> u64 {
    // a(n) = sum_{k=1..n} C(n,k) a(n-k), a(0)=1
    if n > WIDTH_LIMIT {
        return u64::MAX;
    }
    let mut a = vec![0u64; n + 1];
    a[0] = 1;
    for m in 1..=n {
        let mut sum = 0u64;
        let mut binom = 1u64; // C(m,1) initialised below
        for k in 1..=m {
            binom = if k == 1 {
                m as u64
            } else {
                binom * (m as u64 - k as u64 + 1) / k as u64
            };
            sum += binom * a[m - k];
        }
        a[m] = sum;
    }
    a[n]
}

/// Constructs the standard chromatic subdivision `SDS(C)` of a chromatic
/// complex, with carriers (Lemma 3.2 / §3.6): [`sds_iterated`] at `b = 1`.
///
/// For every facet `f` of `C` and every ordered partition `(B₁, …, B_m)` of
/// `f`'s vertices, the subdivision has a facet with one vertex per base
/// vertex `v ∈ B_j`, whose *view* is `S_v = B₁ ∪ … ∪ B_j` and whose label
/// is `Label::view` of the `(color, label)` pairs of `S_v`. Shared faces of
/// facets glue automatically because views over a face depend only on that
/// face's vertices (the observation after Lemma 3.3).
///
/// # Panics
///
/// Panics if `C` is not chromatic.
///
/// # Examples
///
/// ```
/// use iis_topology::{Complex, sds};
/// let sub = sds(&Complex::standard_simplex(2));
/// assert_eq!(sub.complex().num_facets(), 13);
/// assert_eq!(sub.complex().num_vertices(), 3 + 6 + 3); // (i,S) with i∈S
/// sub.validate().unwrap();
/// ```
pub fn sds(base: &Complex) -> Subdivision {
    sds_iterated(base, 1)
}

/// Constructs the `b`-fold iterated standard chromatic subdivision
/// `SDS^b(C)` with carriers composed down to the original base (Lemma 3.3).
///
/// The tower is the arena tower ([`crate::arena`]) plus a labelling pass:
/// each level is grown by the arena's one-level step (the one behind
/// [`crate::arena::ArenaSds::next_with`]), which names every new vertex by
/// its color and the ids of the previous-level vertices it saw, and the
/// vertex is labelled `Label::view` of those vertices' `(color, label)`
/// pairs. Vertex ids, facets and carriers are the arena's, so the
/// labelled and label-free towers agree by construction; the
/// ordered-partition walk [`sds_reference_iterated`] is their oracle.
/// The whole tower is one `sds.build_ns` sample; the level step records
/// each level it builds (`sds.builds`, `sds.level`, …).
///
/// `b = 0` yields the identity subdivision.
///
/// # Panics
///
/// Panics if `C` is not chromatic.
///
/// # Examples
///
/// ```
/// use iis_topology::{Complex, sds_iterated};
/// let sub = sds_iterated(&Complex::standard_simplex(1), 2);
/// // SDS(s¹) has 3 edges; subdividing each again gives 9.
/// assert_eq!(sub.complex().num_facets(), 9);
/// ```
pub fn sds_iterated(base: &Complex, b: usize) -> Subdivision {
    assert!(base.is_chromatic(), "SDS requires a chromatic base complex");
    static BUILD_NS: StaticHistogram = StaticHistogram::new("sds.build_ns");
    if b == 0 {
        return Subdivision::identity(base.clone());
    }
    let _timer = iis_obs::span::span_on(&BUILD_NS);
    let mut tower = arena::level_zero(Arc::new(ArenaComplex::from_complex(base)));
    // the labelled vertices of the level last built, in id order
    let mut vertices: Vec<(Color, Label)> = Vec::new();
    for level in 1..=b {
        let mut next_vertices = Vec::new();
        // one label per view, shared by the processes that saw it
        let mut view_labels: Vec<Label> = Vec::new();
        let (mut seen, mut buf) = (Vec::new(), Vec::new());
        let next = arena::arena_sds_level(&tower, None, |name, view, _| {
            if view as usize == view_labels.len() {
                seen.clear();
                seen.extend(name[1..].iter().map(|&u| match level {
                    1 => (base.color(VertexId(u)), base.label(VertexId(u))),
                    _ => {
                        let (color, label) = &vertices[u as usize];
                        (*color, label)
                    }
                }));
                view_labels.push(Label::view_of(&mut seen, &mut buf));
            }
            next_vertices.push((Color(name[0]), view_labels[view as usize].clone()));
        })
        .expect("no deadline");
        (tower, vertices) = (next, next_vertices);
    }
    let c = tower.complex();
    let ids = |vs: &[u32]| Simplex::from_sorted(vs.iter().map(|&v| VertexId(v)).collect());
    let facets = tower
        .facet_order()
        .iter()
        .map(|&f| ids(c.facet(f as usize)));
    let sub = Complex::from_parts_unchecked(vertices, facets);
    let carriers = (0..c.num_vertices() as u32)
        .map(|v| ids(tower.carrier(v)))
        .collect();
    Subdivision::from_parts(base.clone(), sub, carriers)
}

/// Constructs `SDS(C)` by the direct per-facet ordered-partition walk: the
/// oracle for [`sds`], sharing no tower or template code with it.
///
/// Produces a byte-identical result to [`sds`]: same vertex ids in the same
/// insertion order, same facet set, same carriers (enforced by this module's
/// tests and the cross-crate differential suites). An oracle, it records
/// no metric.
///
/// # Panics
///
/// Panics if `C` is not chromatic.
pub fn sds_reference(base: &Complex) -> Subdivision {
    assert!(base.is_chromatic(), "SDS requires a chromatic base complex");
    let mut sub = Complex::new();
    let mut carriers: Vec<Simplex> = Vec::new();
    for f in base.facets() {
        let verts: Vec<_> = f.iter().collect();
        for partition in ordered_partitions(&verts) {
            let mut seen: Vec<VertexId> = Vec::new();
            let mut facet = Vec::with_capacity(verts.len());
            for block in &partition {
                seen.extend(block.iter().copied());
                let view = Label::view(seen.iter().map(|&u| (base.color(u), base.label(u))));
                let carrier = Simplex::new(seen.iter().copied());
                for &v in block {
                    let before = sub.num_vertices();
                    let id = sub.ensure_vertex(base.color(v), view.clone());
                    if sub.num_vertices() > before {
                        carriers.push(carrier.clone());
                    }
                    facet.push(id);
                }
            }
            sub.add_facet(facet);
        }
    }
    Subdivision::from_parts(base.clone(), sub, carriers)
}

/// `SDS^b(C)` by `b` rounds of [`sds_reference`], each level's carriers
/// composed down to `C` ([`Subdivision::compose`]): the oracle for
/// [`sds_iterated`] and the arena tower, and the tower the reference
/// search engine in `iis-core` searches.
///
/// # Panics
///
/// Panics if `C` is not chromatic.
///
/// # Examples
///
/// ```
/// use iis_topology::{sds_iterated, sds_reference_iterated, Complex};
/// let base = Complex::standard_simplex(1);
/// let slow = sds_reference_iterated(&base, 2);
/// assert_eq!(slow.complex().num_facets(), 9);
/// assert!(slow.complex().same_labeled(sds_iterated(&base, 2).complex()));
/// ```
pub fn sds_reference_iterated(base: &Complex, b: usize) -> Subdivision {
    assert!(base.is_chromatic(), "SDS requires a chromatic base complex");
    let mut acc = Subdivision::identity(base.clone());
    for _ in 0..b {
        acc = acc.compose(&sds_reference(acc.complex()));
    }
    acc
}

/// The canonical "forget the last round" map `SDS^{b+1}(C) → SDS^b(C)` on
/// the reference tower, read off the labels: each vertex (a `b+1`-round
/// full-information state) maps to its own `b`-round state, recovered by
/// peeling the process's own entry out of the nested view label. Returns
/// `(finer, coarser, map)`.
///
/// The test oracle for [`crate::arena::ArenaSds::forget`], which records
/// the same map as the tower is built.
#[cfg(test)]
pub(crate) fn sds_forget_map(
    base: &Complex,
    b: usize,
) -> (Subdivision, Subdivision, crate::SimplicialMap) {
    let coarser = sds_reference_iterated(base, b);
    let finer = sds_reference_iterated(base, b + 1);
    let map = crate::SimplicialMap::from_fn(finer.complex(), |v| {
        let color = finer.complex().color(v);
        let entries = finer
            .complex()
            .label(v)
            .as_view()
            .expect("b ≥ 0 means labels are views");
        let peeled = entries
            .into_iter()
            .find(|(c, _)| *c == color)
            .expect("self-inclusion")
            .1;
        coarser
            .complex()
            .vertex_id(color, &peeled)
            .expect("peeled state is a b-round state")
    });
    (finer, coarser, map)
}

/// A chromatic subdivision of the standard edge `s¹` as an alternately
/// colored path of odd length `length` — the general 1-dimensional
/// chromatic subdivision (every chromatic subdivided edge has this form).
///
/// Vertex at position `k` has color `k mod 2` and label `Label::scalar(k)`;
/// position 0 is the color-0 corner, position `length` the color-1 corner.
/// Useful as a *non-standard* target for Theorem 5.1 witnesses: mapping
/// `SDS^b(s¹)` onto a path of length `L` requires `3^b ≥ L`.
///
/// # Panics
///
/// Panics if `length` is even (the far corner would have color 0).
pub fn path_subdivision(length: usize) -> Subdivision {
    assert!(length % 2 == 1, "a chromatic path has odd length");
    let base = Complex::standard_simplex(1);
    let corners: Vec<crate::VertexId> = base.vertex_ids().collect();
    let mut sub = Complex::new();
    let mut carriers = Vec::new();
    let mut prev = None;
    for k in 0..=length {
        let color = crate::Color((k % 2) as u32);
        let id = sub.ensure_vertex(color, Label::scalar(k as u64));
        carriers.push(if k == 0 {
            Simplex::new([corners[0]])
        } else if k == length {
            Simplex::new([corners[1]])
        } else {
            Simplex::new(corners.iter().copied())
        });
        if let Some(p) = prev {
            sub.add_facet([p, id]);
        }
        prev = Some(id);
    }
    Subdivision::from_parts(base, sub, carriers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ordered_partition_counts_are_fubini() {
        for n in 0..=5 {
            let items: Vec<u32> = (0..n as u32).collect();
            assert_eq!(
                ordered_partitions(&items).len() as u64,
                ordered_bell(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn ordered_bell_values() {
        assert_eq!(
            (0..=6).map(ordered_bell).collect::<Vec<_>>(),
            vec![1, 1, 3, 13, 75, 541, 4683]
        );
    }

    #[test]
    fn partition_enumeration_order_is_pinned() {
        // The exact order of the pre-rewrite recursive enumerator (first
        // block = submask counter over remaining items, then recurse).
        // Stored witnesses and node counts depend on this order through
        // vertex insertion — do not change it.
        let expected: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![0], vec![1], vec![2]],
            vec![vec![0], vec![2], vec![1]],
            vec![vec![0], vec![1, 2]],
            vec![vec![1], vec![0], vec![2]],
            vec![vec![1], vec![2], vec![0]],
            vec![vec![1], vec![0, 2]],
            vec![vec![0, 1], vec![2]],
            vec![vec![2], vec![0], vec![1]],
            vec![vec![2], vec![1], vec![0]],
            vec![vec![2], vec![0, 1]],
            vec![vec![0, 2], vec![1]],
            vec![vec![1, 2], vec![0]],
            vec![vec![0, 1, 2]],
        ];
        assert_eq!(ordered_partitions(&[0u32, 1, 2]), expected);
    }

    #[test]
    fn walker_blocks_partition_the_positions() {
        for n in 0..=5u32 {
            let mut count = 0u64;
            for_each_ordered_partition(n, &mut |blocks| {
                count += 1;
                let mut seen = 0u32;
                for &b in blocks {
                    assert!(b != 0, "empty block");
                    assert_eq!(seen & b, 0, "overlapping blocks");
                    seen |= b;
                }
                assert_eq!(seen, (1u32 << n) - 1, "blocks must cover 0..n");
            });
            assert_eq!(count, ordered_bell(n as usize), "n={n}");
        }
    }

    /// Two triangles sharing an edge.
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

    #[test]
    fn sds_is_identical_to_reference() {
        // Not just same_labeled: the labelled arena level must agree with
        // the partition walk on vertex ids *in insertion order*, facets,
        // and carriers — that is what keeps witnesses and node accounting
        // bit-identical across the two paths.
        // facets of mixed widths: a tetrahedron and a disjoint edge
        let mut mixed = Complex::new();
        let wide: Vec<_> = (0..4)
            .map(|i| mixed.ensure_vertex(Color(i), Label::scalar(i as u64)))
            .collect();
        let p = mixed.ensure_vertex(Color(0), Label::scalar(10));
        let q = mixed.ensure_vertex(Color(1), Label::scalar(11));
        mixed.add_facet(wide);
        mixed.add_facet([p, q]);
        let bases = [
            Complex::standard_simplex(0),
            Complex::standard_simplex(1),
            Complex::standard_simplex(2),
            Complex::standard_simplex(3),
            butterfly(),
            mixed,
        ];
        for base in &bases {
            let fast = sds(base);
            let slow = sds_reference(base);
            let (fc, sc) = (fast.complex(), slow.complex());
            assert_eq!(fc.num_vertices(), sc.num_vertices());
            for v in fc.vertex_ids() {
                assert_eq!(fc.color(v), sc.color(v));
                assert_eq!(fc.label(v), sc.label(v));
                assert_eq!(fast.carrier_of_vertex(v), slow.carrier_of_vertex(v));
            }
            let ff: Vec<_> = fc.facets().cloned().collect();
            let sf: Vec<_> = sc.facets().cloned().collect();
            assert_eq!(ff, sf);
            fast.validate().unwrap();
        }
    }

    #[test]
    fn sds_iterated_is_identical_to_reference() {
        let base = Complex::standard_simplex(2);
        let slow = sds_reference_iterated(&base, 2);
        let fast = sds_iterated(&base, 2);
        assert_eq!(fast.complex().num_vertices(), slow.complex().num_vertices());
        for v in fast.complex().vertex_ids() {
            assert_eq!(fast.complex().label(v), slow.complex().label(v));
            assert_eq!(fast.carrier_of_vertex(v), slow.carrier_of_vertex(v));
        }
        assert!(fast.complex().same_labeled(slow.complex()));
        fast.validate().unwrap();
    }

    #[test]
    fn partitions_are_distinct_and_partition() {
        let items = [0u32, 1, 2];
        let ps = ordered_partitions(&items);
        let set: BTreeSet<_> = ps.iter().cloned().collect();
        assert_eq!(set.len(), ps.len(), "no duplicate partitions");
        for p in &ps {
            let mut all: Vec<u32> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2]);
            assert!(p.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn sds_edge() {
        // SDS(s¹): 3 edges, 4 vertices; chromatic, pure, valid.
        let sub = sds(&Complex::standard_simplex(1));
        let c = sub.complex();
        assert_eq!(c.num_facets(), 3);
        assert_eq!(c.num_vertices(), 4);
        assert!(c.is_pure());
        assert!(c.is_chromatic());
        sub.validate().unwrap();
    }

    #[test]
    fn sds_triangle_counts() {
        let sub = sds(&Complex::standard_simplex(2));
        let c = sub.complex();
        assert_eq!(c.num_facets(), 13);
        // vertices (i,S): 3 singletons + 3·2 pairs + 3 full = 13... careful:
        // pairs: S of size 2 → 2 choices of i per S, 3 S's = 6; full S → 3.
        assert_eq!(c.num_vertices(), 3 + 6 + 3);
        assert!(c.is_pure());
        assert!(c.is_chromatic());
        sub.validate().unwrap();
        // Euler characteristic of a disk = 1
        assert_eq!(c.euler_characteristic(), 1);
    }

    #[test]
    fn sds_tetrahedron_counts() {
        let sub = sds(&Complex::standard_simplex(3));
        let c = sub.complex();
        assert_eq!(c.num_facets() as u64, ordered_bell(4)); // 75
                                                            // vertices (i,S): sum over |S|=k of k·C(4,k) = 1·4+2·6+3·4+4·1 = 32
        assert_eq!(c.num_vertices(), 32);
        assert!(c.is_chromatic());
        sub.validate().unwrap();
        assert_eq!(c.euler_characteristic(), 1);
    }

    #[test]
    fn sds_boundary_is_sds_of_boundary() {
        // The boundary of SDS(s²) is the subdivision of the boundary of s²:
        // each of the 3 edges subdivided into 3, so 9 boundary edges.
        let sub = sds(&Complex::standard_simplex(2));
        let b = sub.complex().boundary();
        assert_eq!(b.num_facets(), 9);
        assert_eq!(b.euler_characteristic(), 0);
    }

    #[test]
    fn sds_carrier_of_corner_is_corner() {
        let base = Complex::standard_simplex(2);
        let sub = sds(&base);
        for u in base.vertex_ids() {
            let view = Label::view([(base.color(u), base.label(u))]);
            let v = sub
                .complex()
                .vertex_id(base.color(u), &view)
                .expect("corner exists");
            assert_eq!(sub.carrier_of_vertex(v), &Simplex::new([u]));
        }
    }

    #[test]
    fn sds_glues_shared_faces() {
        // two triangles sharing an edge; SDS must agree on the edge
        let sub = sds(&butterfly());
        sub.validate().unwrap();
        assert_eq!(sub.complex().num_facets(), 26);
        // vertices: 13 per triangle, minus the 4 shared on the common edge
        assert_eq!(sub.complex().num_vertices(), 12 + 12 - 4);
        assert_eq!(sub.complex().connected_components(), 1);
    }

    #[test]
    fn sds_iterated_counts() {
        let sub = sds_iterated(&Complex::standard_simplex(1), 3);
        assert_eq!(sub.complex().num_facets(), 27);
        sub.validate().unwrap();
        let sub2 = sds_iterated(&Complex::standard_simplex(2), 2);
        assert_eq!(sub2.complex().num_facets(), 13 * 13);
        sub2.validate().unwrap();
    }

    #[test]
    fn sds_iterated_zero_is_identity() {
        let base = Complex::standard_simplex(2);
        let sub = sds_iterated(&base, 0);
        assert!(sub.complex().same_labeled(&base));
    }

    #[test]
    fn sds_is_dimension_preserving() {
        let base = Complex::standard_simplex(2);
        let sub = sds(&base);
        assert_eq!(sub.complex().dim(), base.dim());
        assert!(sub.complex().is_pure());
    }

    #[test]
    fn forget_map_is_simplicial_and_carrier_shrinking() {
        for (n, b) in [(1usize, 0usize), (1, 1), (2, 0), (2, 1)] {
            let base = Complex::standard_simplex(n);
            let (finer, coarser, map) = sds_forget_map(&base, b);
            map.verify_simplicial(finer.complex(), coarser.complex())
                .unwrap();
            map.verify_color_preserving(finer.complex(), coarser.complex())
                .unwrap();
            map.verify_carrier_shrinking(&finer, &coarser).unwrap();
        }
    }

    #[test]
    fn forget_maps_compose_along_the_tower() {
        // forgetting twice from SDS² lands on the base corners' structure
        let base = Complex::standard_simplex(1);
        let (fine2, mid, f2) = sds_forget_map(&base, 1); // SDS² → SDS¹
        let (mid2, coarse, f1) = sds_forget_map(&base, 0); // SDS¹ → SDS⁰ = base
        assert!(mid.complex().same_labeled(mid2.complex()));
        assert!(coarse.complex().same_labeled(&base));
        // translate f2's images from `mid` ids into `mid2` ids, then apply f1
        for v in fine2.complex().vertex_ids() {
            let w_mid = f2.image(v).unwrap();
            let w_mid2 = mid2
                .complex()
                .vertex_id(mid.complex().color(w_mid), mid.complex().label(w_mid))
                .unwrap();
            let w_base = f1.image(w_mid2).unwrap();
            // the final image must be the corner of v's own color
            assert_eq!(coarse.complex().color(w_base), fine2.complex().color(v));
        }
    }

    #[test]
    fn forget_map_collapses_counts() {
        let base = Complex::standard_simplex(1);
        let (finer, coarser, map) = sds_forget_map(&base, 1);
        assert_eq!(finer.complex().num_facets(), 9);
        assert_eq!(coarser.complex().num_facets(), 3);
        // every coarser vertex is hit (the map is surjective on vertices)
        let hit: std::collections::BTreeSet<_> = finer
            .complex()
            .vertex_ids()
            .map(|v| map.image(v).unwrap())
            .collect();
        assert_eq!(hit.len(), coarser.complex().num_vertices());
    }

    #[test]
    fn path_subdivision_is_valid() {
        for length in [1usize, 3, 5, 9] {
            let sub = path_subdivision(length);
            sub.validate().unwrap();
            assert_eq!(sub.complex().num_facets(), length.max(1));
            assert!(sub.complex().is_chromatic());
        }
    }

    #[test]
    fn path_of_length_three_is_sds_shape() {
        // length 3 has the same shape as SDS(s¹) (labels differ)
        let p = path_subdivision(3);
        let s = sds(&Complex::standard_simplex(1));
        assert!(crate::iso::are_chromatic_isomorphic(
            p.complex(),
            s.complex()
        ));
    }

    #[test]
    #[should_panic(expected = "odd length")]
    fn even_path_rejected() {
        path_subdivision(4);
    }

    #[test]
    fn immediacy_encoded_in_views() {
        // In every facet of SDS(s^n): if val_i ∈ S_j then S_i ⊆ S_j.
        let base = Complex::standard_simplex(2);
        let sub = sds(&base);
        let c = sub.complex();
        for f in c.facets() {
            let views: Vec<(Color, Vec<(Color, Label)>)> = f
                .iter()
                .map(|v| (c.color(v), c.label(v).as_view().unwrap()))
                .collect();
            for (ci, si) in &views {
                for (_cj, sj) in &views {
                    let j_contains_i = sj.iter().any(|(cc, _)| cc == ci);
                    if j_contains_i {
                        for entry in si {
                            assert!(
                                sj.contains(entry),
                                "immediacy violated: {ci:?} visible but view not contained"
                            );
                        }
                    }
                }
            }
        }
    }
}
