//! Algebraic laws of subdivisions and their composition.

use iis_topology::{bsd::bsd, path_subdivision, sds, sds_iterated, Complex, Simplex, Subdivision};

#[test]
fn identity_is_left_unit_of_compose() {
    let base = Complex::standard_simplex(2);
    let id = Subdivision::identity(base.clone());
    let s = sds(&base);
    let composed = id.compose(&s);
    assert!(composed.base().same_labeled(&base));
    assert!(composed.complex().same_labeled(s.complex()));
    for v in composed.complex().vertex_ids() {
        assert_eq!(composed.carrier_of_vertex(v), s.carrier_of_vertex(v));
    }
}

#[test]
fn identity_is_right_unit_of_compose() {
    let base = Complex::standard_simplex(2);
    let s = sds(&base);
    let id_on_top = Subdivision::identity(s.complex().clone());
    let composed = s.compose(&id_on_top);
    assert!(composed.complex().same_labeled(s.complex()));
    for v in composed.complex().vertex_ids() {
        let w = s
            .complex()
            .vertex_id(composed.complex().color(v), composed.complex().label(v))
            .unwrap();
        assert_eq!(composed.carrier_of_vertex(v), s.carrier_of_vertex(w));
    }
}

#[test]
fn compose_is_associative_on_towers() {
    // (sds ∘ sds) ∘ sds == sds ∘ (sds ∘ sds) on an edge, by carrier equality
    let base = Complex::standard_simplex(1);
    let s1 = sds(&base);
    let s2 = sds(s1.complex());
    let s3 = sds(s2.complex());
    let left = s1.compose(&s2).compose(&s3);
    let right = s1.compose(&s2.compose(&s3));
    assert!(left.complex().same_labeled(right.complex()));
    for v in left.complex().vertex_ids() {
        let w = right
            .complex()
            .vertex_id(left.complex().color(v), left.complex().label(v))
            .unwrap();
        assert_eq!(left.carrier_of_vertex(v), right.carrier_of_vertex(w));
    }
}

#[test]
fn iterated_equals_manual_tower() {
    let base = Complex::standard_simplex(2);
    let auto = sds_iterated(&base, 2);
    let s1 = sds(&base);
    let s2 = sds(s1.complex());
    let manual = s1.compose(&s2);
    assert!(auto.complex().same_labeled(manual.complex()));
}

#[test]
fn carriers_are_monotone_under_faces() {
    // carrier(face) ⊆ carrier(simplex)
    let sub = sds_iterated(&Complex::standard_simplex(2), 2);
    for f in sub.complex().facets() {
        let big = sub.carrier_of_simplex(f);
        for face in f.faces() {
            let small = sub.carrier_of_simplex(&face);
            assert!(small.is_face_of(&big));
        }
    }
}

#[test]
fn sds_of_bsd_composes_and_validates() {
    let base = Complex::standard_simplex(2);
    let b = bsd(&base);
    // Bsd(s²) is chromatic (colored by dimension), so SDS applies on top
    let s = sds(b.complex());
    let composed = b.compose(&s);
    composed.validate_plain().unwrap();
    assert_eq!(composed.complex().num_facets(), 6 * 13);
}

#[test]
fn path_subdivisions_nest_by_refinement_maps() {
    // SDS^2(s¹) (9 edges) maps onto the 5-path and onto the 3-path; both
    // witness maps can be found and are carrier-shrinking — transitivity of
    // "is refined by" through the solvability engine is exercised in
    // iis-core; here we check the path subdivisions themselves are valid
    // subdivisions of a common base and share corners.
    let p3 = path_subdivision(3);
    let p5 = path_subdivision(5);
    assert!(p3.base().same_labeled(p5.base()));
    for p in [&p3, &p5] {
        p.validate().unwrap();
        // exactly two corners
        let corners = p
            .complex()
            .vertex_ids()
            .filter(|&v| p.carrier_of_vertex(v).len() == 1)
            .count();
        assert_eq!(corners, 2);
    }
}

#[test]
fn boundary_commutes_with_subdivision_counts() {
    // |boundary(SDS(sⁿ))| = (n+1) · |SDS(s^{n−1}) facets|
    for n in [2usize, 3] {
        let sub = sds(&Complex::standard_simplex(n));
        let boundary_facets = sub.complex().boundary().num_facets();
        let face_facets = sds(&Complex::standard_simplex(n - 1))
            .complex()
            .num_facets();
        assert_eq!(boundary_facets, (n + 1) * face_facets);
    }
}

#[test]
fn faces_of_sds_are_sds_of_faces() {
    // the §2 face A(s^q) (carrier ⊆ s^q) of SDS(s²) on the {0,1} edge is
    // exactly SDS(s¹)
    let base = Complex::standard_simplex(2);
    let sub = sds(&base);
    let ids: Vec<_> = base.vertex_ids().collect();
    let edge = Simplex::new([ids[0], ids[1]]);
    let face = sub.face(&edge);
    let expected = sds(&Complex::standard_simplex(1));
    assert!(face.same_labeled(expected.complex()));
    // by contrast, the color-induced subcomplex is strictly larger: it also
    // contains interior {0,1}-colored simplices
    let mut colors = std::collections::BTreeSet::new();
    colors.insert(iis_topology::Color(0));
    colors.insert(iis_topology::Color(1));
    let color_face = sub.complex().color_face(&colors);
    assert!(color_face.num_facets() > face.num_facets());
}

#[test]
fn carrier_of_full_facet_is_base_facet() {
    let base = Complex::standard_simplex(2);
    let sub = sds_iterated(&base, 2);
    let base_facet = Simplex::new(base.vertex_ids());
    for f in sub.complex().facets() {
        assert_eq!(sub.carrier_of_simplex(f), base_facet);
    }
}
