//! Component-level timing of the warm `iis serve` reply path: store open,
//! content-address derivation (from scratch and through the spec
//! interner), record fetch, the one-pass record check on the stored text
//! (`validate_record`, what a warm shard runs on a memo miss, for
//! `eps:1:9` and `eps:2:3` at b ≤ 2), the tree-based
//! `report_from_json` for comparison, and the full cached solve.
//!
//! Not a calibrated benchmark — a quick probe for attributing the warm
//! latency budget when tuning `iis_core::cache`. Run with
//! `cargo run --release -p iis-bench --example profile_warm`.

use iis_core::cache::{
    cache_key, intern_spec, report_from_json, solve_up_to_cached, validate_record, SolveCache,
};
use iis_core::solvability::SolveOptions;
use iis_obs::Json;
use iis_store::Store;
use iis_tasks::library::approximate_agreement;
use std::collections::HashMap;
use std::time::Instant;

fn time<T>(label: &str, reps: u32, mut f: impl FnMut() -> T) {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    println!(
        "{label:<18} {:>8.1} us",
        t0.elapsed().as_micros() as f64 / reps as f64
    );
}

fn main() {
    let task = approximate_agreement(1, 9);
    let dir = std::env::temp_dir().join(format!("iis_profile_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = Store::open(&dir).expect("open store");
        let out = solve_up_to_cached(&task, 2, &SolveOptions::new(), &mut store);
        assert!(!out.hit, "first sweep must be cold");
    }
    iis_topology::template::prewarm(5);
    let n = 200;

    time("store_open", n, || Store::open(&dir).expect("reopen").len());
    time("cache_key", n, || cache_key(&task, 2));
    time("interned_key", n, || {
        intern_spec("eps:1:9").expect("spec").key(2)
    });
    let key = cache_key(&task, 2);
    time("open+get", n, || {
        let mut s = Store::open(&dir).expect("reopen");
        SolveCache::get(&mut s, key)
    });
    let mut store = Store::open(&dir).expect("reopen");
    let text: String = SolveCache::get(&mut store, key).expect("record present");
    time("json_parse", n, || Json::parse(&text).expect("parse"));
    let v = Json::parse(&text).expect("parse");
    time("report_from_json", n, || {
        report_from_json(&task, &v).expect("valid record")
    });
    let keyed = intern_spec("eps:1:9").expect("spec");
    time("validate_record", n, || {
        validate_record(&keyed, 2, &text).expect("valid record")
    });
    // a three-process witness: its map has ~10× the pairs of eps:1:9's
    let wide = intern_spec("eps:2:3").expect("spec");
    let mut wide_store = HashMap::new();
    solve_up_to_cached(wide.task(), 2, &SolveOptions::new(), &mut wide_store);
    let wide_text = SolveCache::get(&mut wide_store, wide.key(2)).expect("record present");
    time("validate_eps_2_3", n, || {
        validate_record(&wide, 2, &wide_text).expect("valid record")
    });
    time("arena_tower", n, || {
        iis_topology::arena::arena_sds_tower(task.input(), 2)
    });
    time("full_warm", n, || {
        let mut s = Store::open(&dir).expect("reopen");
        solve_up_to_cached(&task, 2, &SolveOptions::new(), &mut s).hit
    });
    let _ = std::fs::remove_dir_all(&dir);
}
