//! Property tests for the template-instantiated subdivision path.
//!
//! The subdivision template (`iis_topology::template`) is sound only if
//! the arena tower that instantiates it per facet — and `sds`/
//! `sds_iterated`, which label that tower — reproduce the reference
//! ordered-partition walk *exactly*: same vertices in the same insertion
//! order, same facet set, and above all the same carrier map handed to
//! `Subdivision::from_parts`. These tests drive both constructions over
//! randomly generated chromatic complexes and demand bit-level agreement,
//! not just isomorphism.

use iis_obs::rng::Rng;
use iis_topology::arena::arena_sds_tower;
use iis_topology::{
    sds, sds_iterated, sds_reference, sds_reference_iterated, Color, Complex, Label, Subdivision,
};

/// A random chromatic complex: up to `max_colors` process colors, a few
/// vertices per color, and random rainbow facets (distinct colors within a
/// facet, as `sds` requires).
fn random_chromatic_complex(rng: &mut Rng, max_colors: usize, max_facets: usize) -> Complex {
    let colors = rng.random_range(1..max_colors + 1);
    let per_color = 2usize;
    let mut c = Complex::new();
    let facets = rng.random_range(1..max_facets + 1);
    for _ in 0..facets {
        // pick one of two candidate vertices for each color in a random
        // non-empty color subset; `ensure_vertex` dedups across facets, so
        // every vertex of the complex ends up in at least one facet
        let width = rng.random_range(1..colors + 1);
        let mut order: Vec<usize> = (0..colors).collect();
        rng.shuffle(&mut order);
        let facet: Vec<_> = order[..width]
            .iter()
            .map(|&col| {
                let k = rng.random_range(0..per_color);
                c.ensure_vertex(
                    Color(col as u32),
                    Label::scalar((col * per_color + k) as u64),
                )
            })
            .collect();
        c.add_facet(facet);
    }
    c
}

/// The two builders must agree on every observable of
/// `Subdivision::from_parts`: vertex table (order included), facets, and
/// the carrier of every vertex.
fn assert_identical(fast: &Subdivision, slow: &Subdivision) {
    let (fc, sc) = (fast.complex(), slow.complex());
    assert_eq!(fc.num_vertices(), sc.num_vertices(), "vertex count");
    for v in fc.vertex_ids() {
        assert_eq!(fc.color(v), sc.color(v), "color of {v}");
        assert_eq!(fc.label(v), sc.label(v), "label of {v}");
        assert_eq!(
            fast.carrier_of_vertex(v),
            slow.carrier_of_vertex(v),
            "carrier of {v}"
        );
    }
    let ff: Vec<_> = fc.facets().cloned().collect();
    let sf: Vec<_> = sc.facets().cloned().collect();
    assert_eq!(ff, sf, "facet sets");
    assert!(fc.same_labeled(sc));
}

#[test]
fn instantiation_preserves_carriers_on_random_complexes() {
    let mut rng = Rng::seed_from_u64(0x5d5_0001);
    for case in 0..40 {
        let base = random_chromatic_complex(&mut rng, 4, 4);
        let fast = sds(&base);
        let slow = sds_reference(&base);
        assert_identical(&fast, &slow);
        fast.validate()
            .unwrap_or_else(|e| panic!("case {case}: invalid subdivision: {e}"));
    }
}

#[test]
fn iterated_instantiation_matches_reference_tower() {
    let mut rng = Rng::seed_from_u64(0x5d5_0002);
    for _ in 0..10 {
        let base = random_chromatic_complex(&mut rng, 3, 3);
        let b = rng.random_range(1..3usize);
        let fast = sds_iterated(&base, b);
        let slow = sds_reference_iterated(&base, b);
        assert_identical(&fast, &slow);
    }
}

#[test]
fn arena_tower_matches_reference_on_random_complexes() {
    let mut rng = Rng::seed_from_u64(0x5d5_0003);
    for _ in 0..10 {
        let base = random_chromatic_complex(&mut rng, 3, 3);
        let b = rng.random_range(0..3usize);
        let arena = arena_sds_tower(&base, b);
        let reference = sds_reference_iterated(&base, b);
        // colors, carriers, facets and facet order, read off the arena
        // itself (it keeps no labels to compare)
        assert_eq!(arena.agrees_with(&reference), Ok(()));
    }
}
