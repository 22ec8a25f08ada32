//! Per-dimension subdivision templates (the Lemma 3.2 object, computed once).
//!
//! The standard chromatic subdivision of a `k`-simplex is a *fixed*
//! combinatorial object: its vertices are pairs `(i, Sᵢ)` of an abstract
//! position `i ∈ {0..k}` and a view `Sᵢ ∋ i`, and its facets are the
//! ordered set partitions of `{0..k}` (Kozlov's witness-structure view of
//! `SDS`, see PAPERS.md). Nothing about it depends on the concrete facet
//! being subdivided — only the *names* of its vertices do. So instead of
//! re-enumerating ordered partitions (an ordered Bell number of them) for
//! every facet of every round, the arena tower ([`crate::arena`], and
//! through it [`crate::sds_iterated`]) computes the template once per
//! dimension, caches it process-wide, and instantiates it per facet by
//! substituting concrete vertex ids into the abstract positions — a
//! memcpy-shaped walk over flat `u32` arrays. The arena's one-level step
//! is the only code that instantiates a template.
//!
//! Counters: `sds.template_builds` counts template constructions (at most
//! one per cached width per process), `sds.template_hits` counts
//! instantiations served from the cache.

use iis_obs::metrics::StaticCounter;
use std::sync::{Arc, OnceLock};

static TEMPLATE_BUILDS: StaticCounter = StaticCounter::new("sds.template_builds");
/// Template fetches served from the cache, and facets instantiated from a
/// template already in hand.
pub(crate) static TEMPLATE_HITS: StaticCounter = StaticCounter::new("sds.template_hits");

/// Largest facet width [`template`] caches. `SDS` of an 8-vertex facet
/// already has 545 835 facets; anything wider is computationally out of
/// reach anyway, and its template is built uncached.
pub const MAX_TEMPLATE_WIDTH: usize = 8;

/// Widest facet a template can be built for, and the widest facet any
/// arena tower walks: view masks are `u16`, and the ordered-partition
/// walk caps at 16 positions.
pub const WIDTH_LIMIT: usize = 16;

/// The standard chromatic subdivision of the abstract `(n−1)`-simplex with
/// positions `0..n`, flattened to integer arrays.
///
/// Template vertices are `(position, view-mask)` pairs in **first-encounter
/// order** of the ordered-partition walk — instantiating the template
/// therefore assigns concrete [`crate::VertexId`]s in exactly the order
/// the reference builder [`crate::sds_reference`] would, which is what
/// keeps witnesses and node accounting bit-identical to the reference's.
#[derive(Debug)]
pub struct SdsTemplate {
    /// Number of abstract positions (`dimension + 1`).
    n: usize,
    /// Distinct `(position, view mask)` pairs in first-encounter order.
    verts: Vec<(u8, u16)>,
    /// `position * 2^n + mask → template vertex index` (dense, `u32::MAX`
    /// for the `i ∉ S` slots that never occur).
    index: Vec<u32>,
    /// Flattened facets, stride [`SdsTemplate::width`]: one entry per
    /// ordered partition, each a tuple of template vertex indices in the
    /// reference builder's block order.
    facets: Vec<u32>,
}

impl SdsTemplate {
    /// Number of abstract positions (facet width; the dimension is `n − 1`).
    pub fn width(&self) -> usize {
        self.n
    }

    /// The template vertices `(position, view mask)` in instantiation order.
    pub fn vertices(&self) -> &[(u8, u16)] {
        &self.verts
    }

    /// Number of template vertices, `Σ_{∅≠S⊆{0..n−1}} |S|`.
    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    /// Number of template facets (the ordered Bell number of `n`).
    pub fn num_facets(&self) -> usize {
        // `n ≥ 1` by construction (`build` rejects width 0).
        self.facets.len() / self.n
    }

    /// The facets as flat tuples of template vertex indices, stride
    /// [`SdsTemplate::width`], in the reference builder's partition order.
    pub fn facet_tuples(&self) -> &[u32] {
        &self.facets
    }

    /// The template vertex index of `(pos, mask)`.
    ///
    /// # Panics
    ///
    /// Panics if `pos ∉ mask` (no such subdivision vertex exists).
    pub fn vertex_index(&self, pos: usize, mask: u16) -> usize {
        let i = self.index[(pos << self.n) | mask as usize];
        assert!(i != u32::MAX, "no template vertex ({pos}, {mask:#b})");
        i as usize
    }

    /// Builds the template for `n` positions by walking every ordered
    /// partition in the reference builder's enumeration order.
    fn build(n: usize) -> SdsTemplate {
        assert!(
            (1..=WIDTH_LIMIT).contains(&n),
            "template width {n} out of range (partition walk caps at {WIDTH_LIMIT})"
        );
        TEMPLATE_BUILDS.incr();
        let slots = n << n;
        let mut verts: Vec<(u8, u16)> = Vec::new();
        let mut index = vec![u32::MAX; slots];
        let mut facets: Vec<u32> = Vec::new();
        let mut tuple: Vec<u32> = Vec::with_capacity(n);
        crate::sds::for_each_ordered_partition(n as u32, &mut |blocks| {
            tuple.clear();
            let mut seen: u16 = 0;
            for &block in blocks {
                seen |= block as u16;
                let mut bits = block;
                while bits != 0 {
                    let pos = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = (pos << n) | seen as usize;
                    if index[slot] == u32::MAX {
                        index[slot] = verts.len() as u32;
                        verts.push((pos as u8, seen));
                    }
                    tuple.push(index[slot]);
                }
            }
            facets.extend_from_slice(&tuple);
        });
        SdsTemplate {
            n,
            verts,
            index,
            facets,
        }
    }
}

/// The subdivision template for facets of `n` vertices: built on first use
/// and shared process-wide afterwards when `n ≤ MAX_TEMPLATE_WIDTH`, built
/// uncached when wider, so the arena tower is total up to the partition
/// walk's limit without pinning enormous templates in the cache.
///
/// # Panics
///
/// Panics if `n` is `0` or exceeds 16, the partition-walk limit.
///
/// # Examples
///
/// ```
/// use iis_topology::template::template;
/// let t = template(3); // SDS(s²)
/// assert_eq!(t.num_facets(), 13); // ordered Bell a(3)
/// assert_eq!(t.num_vertices(), 12); // Σ |S| over ∅ ≠ S ⊆ {0,1,2}
/// ```
pub fn template(n: usize) -> Arc<SdsTemplate> {
    /// The process-wide cache, one slot per width.
    static CACHE: [OnceLock<Arc<SdsTemplate>>; MAX_TEMPLATE_WIDTH + 1] =
        [const { OnceLock::new() }; MAX_TEMPLATE_WIDTH + 1];
    let Some(slot) = CACHE.get(n) else {
        return Arc::new(SdsTemplate::build(n));
    };
    if let Some(t) = slot.get() {
        TEMPLATE_HITS.incr();
        return Arc::clone(t);
    }
    Arc::clone(slot.get_or_init(|| Arc::new(SdsTemplate::build(n))))
}

/// Pre-builds the templates for every width up to `max_width` (clamped to
/// [`MAX_TEMPLATE_WIDTH`]) — `iis serve` calls this at startup so the first
/// request never pays the one-time template construction.
pub fn prewarm(max_width: usize) {
    for n in 1..=max_width.min(MAX_TEMPLATE_WIDTH) {
        let _ = template(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordered_bell;

    #[test]
    fn template_counts_match_closed_forms() {
        for n in 1..=5usize {
            let t = template(n);
            assert_eq!(t.num_facets() as u64, ordered_bell(n), "facets n={n}");
            // vertices (i, S): Σ_{k=1..n} k·C(n,k) = n·2^(n−1)
            assert_eq!(t.num_vertices(), n * (1 << (n - 1)), "vertices n={n}");
            assert_eq!(t.width(), n);
        }
    }

    #[test]
    fn template_facets_are_ordered_partitions() {
        let t = template(3);
        for tuple in t.facet_tuples().chunks(3) {
            // positions within a facet are a permutation of 0..3 and view
            // masks grow monotonically along the tuple (blocks accumulate)
            let mut seen_pos = 0u16;
            let mut prev_mask = 0u16;
            for &ti in tuple {
                let (pos, mask) = t.vertices()[ti as usize];
                assert_eq!(seen_pos & (1 << pos), 0, "position repeated");
                seen_pos |= 1 << pos;
                assert!(mask & (1 << pos) != 0, "self-inclusion");
                assert!(mask & prev_mask == prev_mask, "views must be nested");
                prev_mask = prev_mask.max(mask);
            }
            assert_eq!(seen_pos, 0b111);
        }
    }

    #[test]
    fn vertex_index_roundtrip() {
        let t = template(2);
        for (i, &(pos, mask)) in t.vertices().iter().enumerate() {
            assert_eq!(t.vertex_index(pos as usize, mask), i);
        }
    }

    #[test]
    #[should_panic(expected = "no template vertex")]
    fn vertex_index_rejects_non_vertices() {
        template(2).vertex_index(0, 0b10); // 0 ∉ {1}
    }

    #[test]
    fn prewarm_populates_cache() {
        iis_obs::metrics::set_enabled(true);
        prewarm(4);
        let before = iis_obs::metrics::snapshot();
        for n in 1..=4 {
            let _ = template(n);
        }
        let after = iis_obs::metrics::snapshot();
        let hits = after.delta_since(&before);
        assert!(hits.counters.get("sds.template_hits").copied().unwrap_or(0) >= 4);
    }
}
