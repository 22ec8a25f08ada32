//! Template-instantiated subdivision vs the reference builder, over the
//! whole task library: for every input complex in the library and every
//! round count `b ≤ 3` we can afford, the labelled tower (`sds_iterated`,
//! the arena tower that instantiates the per-dimension `SdsTemplate`, plus
//! a labelling pass) must be `same_labeled`-equal — in fact bit-identical
//! including carriers — to `sds_reference_iterated`, the ordered-partition
//! walk kept as the differential oracle, and the label-free arena tower
//! must agree with it in colors, carriers, facets and facet order.

use iis_tasks::library::{
    approximate_agreement, chromatic_simplex_agreement, consensus, k_set_consensus,
    one_shot_immediate_snapshot_task, renaming, trivial,
};
use iis_tasks::Task;
use iis_topology::arena::arena_sds_tower;
use iis_topology::{sds_iterated, sds_reference_iterated, Subdivision};

/// Every library input complex, via its task constructor.
fn library() -> Vec<Task> {
    vec![
        trivial(2),
        consensus(1, &[0, 1]),
        consensus(2, &[0, 1]),
        k_set_consensus(2, 2),
        k_set_consensus(2, 3),
        k_set_consensus(1, 1),
        renaming(1, 3),
        approximate_agreement(1, 3),
        approximate_agreement(1, 9),
        one_shot_immediate_snapshot_task(1),
        one_shot_immediate_snapshot_task(2),
        chromatic_simplex_agreement(&sds_iterated(
            &iis_topology::Complex::standard_simplex(1),
            2,
        )),
    ]
}

/// The reference builder is quadratic in the facet count (its `add_facet`
/// antichain scan), so deep towers over wide inputs are capped here. Every
/// task still gets at least `b = 1` and the small inputs reach `b = 3`.
const MAX_REFERENCE_FACETS: usize = 2500;

fn assert_towers_identical(task: &Task, b: usize, fast: &Subdivision, slow: &Subdivision) {
    let (fc, sc) = (fast.complex(), slow.complex());
    assert!(
        fc.same_labeled(sc),
        "{} b={b}: template tower not same_labeled to reference",
        task.name()
    );
    // ...and beyond the satellite claim, bit-identical: ids, carriers, facets
    assert_eq!(fc.num_vertices(), sc.num_vertices());
    for v in fc.vertex_ids() {
        assert_eq!(fc.color(v), sc.color(v), "{} b={b}: color {v}", task.name());
        assert_eq!(fc.label(v), sc.label(v), "{} b={b}: label {v}", task.name());
        assert_eq!(
            fast.carrier_of_vertex(v),
            slow.carrier_of_vertex(v),
            "{} b={b}: carrier {v}",
            task.name()
        );
    }
    assert!(fc.facets().eq(sc.facets()), "{} b={b}: facets", task.name());
}

#[test]
fn template_tower_matches_reference_across_library() {
    for task in library() {
        let input = task.input();
        let mut slow = Subdivision::identity(input.clone());
        for b in 1..=3usize {
            if slow.complex().num_facets() > MAX_REFERENCE_FACETS {
                break;
            }
            slow = sds_reference_iterated(input, b);
            let fast = sds_iterated(input, b);
            assert_towers_identical(&task, b, &fast, &slow);
            // the label-free arena keeps no labels to compare; its colors,
            // carriers, facets and facet order must match the reference's
            let arena = arena_sds_tower(input, b);
            assert_eq!(arena.agrees_with(&slow), Ok(()), "{} b={b}", task.name());
        }
    }
}
