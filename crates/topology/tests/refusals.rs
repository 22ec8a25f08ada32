//! Inputs the tower builders refuse, and the messages they refuse them
//! with: every builder, the oracle included, at every round count.

use iis_topology::arena::arena_sds_tower;
use iis_topology::{sds_iterated, sds_reference_iterated, Color, Complex, Label};

/// Two vertices of one color in one facet.
fn non_chromatic_edge() -> Complex {
    let mut base = Complex::new();
    let a = base.ensure_vertex(Color(0), Label::scalar(0));
    let b = base.ensure_vertex(Color(0), Label::scalar(1));
    base.add_facet([a, b]);
    base
}

#[test]
#[should_panic(expected = "chromatic base")]
fn the_oracle_refuses_a_non_chromatic_base_at_zero_rounds() {
    sds_reference_iterated(&non_chromatic_edge(), 0);
}

#[test]
#[should_panic(expected = "chromatic base")]
fn the_labelled_tower_refuses_a_non_chromatic_base_at_zero_rounds() {
    sds_iterated(&non_chromatic_edge(), 0);
}

/// One facet of `n` colors.
fn simplex_of_width(n: u32) -> Complex {
    let mut base = Complex::new();
    let ids: Vec<_> = (0..n)
        .map(|i| base.ensure_vertex(Color(i), Label::scalar(u64::from(i))))
        .collect();
    base.add_facet(ids);
    base
}

#[test]
#[should_panic(expected = "template width 17 out of range")]
fn a_facet_past_the_width_limit_is_refused_by_name() {
    arena_sds_tower(&simplex_of_width(17), 1);
}

#[test]
#[should_panic(expected = "template width 17 out of range")]
fn the_simplex_walk_refuses_a_facet_past_the_width_limit() {
    // at zero rounds the tower is the base, so only the walk can refuse
    let _ = arena_sds_tower(&simplex_of_width(17), 0)
        .for_each_simplex(|_, _| std::ops::ControlFlow::<()>::Continue(()));
}
