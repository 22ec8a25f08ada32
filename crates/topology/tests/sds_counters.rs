//! The `sds.*` counters a labelled build adds: one build per level, and
//! each level's facet and vertex counts. `iis solve --stats` and the e4
//! rates read these, so they are pinned here, in their own test binary
//! (the metric registry is process-global).

use iis_obs::metrics;
use iis_topology::arena::arena_sds_tower;
use iis_topology::{sds_iterated, Complex};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Held by each test while it reads the registry: the tests of one binary
/// run as threads, and each counts only its own builds.
static REGISTRY: Mutex<()> = Mutex::new(());

#[test]
fn sds_iterated_counts_each_level() {
    let _serial = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
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

/// Every arena entry point records each level it builds once, in
/// `sds.builds` and as one `sds.arena_build_ns` sample, and a level its
/// deadline abandons records nothing.
#[test]
fn every_arena_entry_point_records_each_level_once() {
    let _serial = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    metrics::set_enabled(true);
    // (builds, facets, build-time samples) added by `build`
    let recorded = |build: &dyn Fn()| {
        let before = metrics::snapshot();
        build();
        let after = metrics::snapshot();
        let delta = after.delta_since(&before);
        let counter = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
        let samples = |s: &metrics::Snapshot| {
            s.histograms
                .get("sds.arena_build_ns")
                .map_or(0, |h| h.count)
        };
        (
            counter("sds.builds"),
            counter("sds.facets"),
            samples(&after) - samples(&before),
        )
    };
    let s2 = Complex::standard_simplex(2);
    assert_eq!(
        recorded(&|| drop(arena_sds_tower(&s2, 2))),
        (2, 13 + 169, 2)
    );
    let zero = arena_sds_tower(&s2, 0);
    assert_eq!(recorded(&|| drop(zero.next())), (1, 13, 1));
    assert_eq!(recorded(&|| drop(zero.next_with(|_, _| {}))), (1, 13, 1));
    let later = Some(Instant::now() + Duration::from_secs(3600));
    assert_eq!(recorded(&|| drop(zero.next_until(later))), (1, 13, 1));
    // SDS^2(s²) has 169 facets, so a passed deadline stops it at its
    // first poll
    let two = arena_sds_tower(&s2, 2);
    let past = Some(Instant::now());
    assert_eq!(
        recorded(&|| assert!(two.next_until(past).is_none())),
        (0, 0, 0)
    );
}
