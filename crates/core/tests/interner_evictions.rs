//! Interner thrash is visible: every task the spec interner evicts to
//! make room is counted in `cache.spec_evictions`, as the skeleton memo
//! counts its own in `cache.tower_evictions`. Its own test binary, since
//! the interner and the metric registry are process-global.

use iis_core::cache::{intern_spec, SPEC_INTERN_CAP};
use iis_obs::metrics;

fn evictions() -> u64 {
    metrics::snapshot()
        .counters
        .get("cache.spec_evictions")
        .copied()
        .unwrap_or(0)
}

#[test]
fn spec_evictions_count_each_task_the_interner_sheds() {
    metrics::set_enabled(true);
    // one-process ε-agreement: a distinct, cheap task per grid size
    let spec = |k: usize| format!("eps:0:{}", k + 2);
    for k in 0..SPEC_INTERN_CAP {
        intern_spec(&spec(k)).unwrap();
    }
    assert_eq!(evictions(), 0, "a full interner has evicted nothing");
    // a repeated spec is a hit and evicts nothing
    intern_spec(&spec(0)).unwrap();
    assert_eq!(evictions(), 0);
    for k in SPEC_INTERN_CAP..SPEC_INTERN_CAP + 3 {
        intern_spec(&spec(k)).unwrap();
    }
    assert_eq!(evictions(), 3, "one eviction per new spec past the cap");
    metrics::set_enabled(false);
}
