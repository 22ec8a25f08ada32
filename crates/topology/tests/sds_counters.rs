//! The `sds.*` counters a labelled build adds: one build per level, and
//! each level's facet and vertex counts. `iis solve --stats` and the e4
//! rates read these, so they are pinned here, in their own test binary
//! (the metric registry is process-global).

use iis_obs::metrics;
use iis_topology::{sds_iterated, Complex};

#[test]
fn sds_iterated_counts_each_level() {
    metrics::set_enabled(true);
    let before = metrics::snapshot();
    let sub = sds_iterated(&Complex::standard_simplex(2), 2);
    let delta = metrics::snapshot().delta_since(&before);
    let counter = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("sds.builds"), 2);
    assert_eq!(counter("sds.facets"), 13 + 169);
    assert_eq!(counter("sds.vertices"), 12 + 99);
    assert_eq!(sub.complex().num_facets(), 169);
}
