//! One gate to a level: a stored-witness check reaches `SDS^b(I)` through
//! the same accessor as a search, so it is refused past the facet cap
//! before anything is built, memoizes a level only once its witness
//! passed, climbs from the highest level of the same shape the memo
//! holds, and gives up at its deadline.
//!
//! Lives in its own integration-test binary because the metric registry
//! and the skeleton memo are process-global; each case takes a lock so
//! their counter deltas do not mix, and uses shapes no other case builds.

use iis_core::cache::{intern_spec, validate_record, AnswerMemo, KeyedTask};
use iis_core::reference;
use iis_obs::{metrics, Json, ToJson};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Runs `f` alone and returns its deltas of the counters `names`.
fn deltas<const N: usize>(names: [&str; N], f: impl FnOnce()) -> [u64; N] {
    static SERIAL: Mutex<()> = Mutex::new(());
    let _alone = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    metrics::set_enabled(true);
    let counter = |name: &str| metrics::snapshot().counters.get(name).copied().unwrap_or(0);
    let before = names.map(counter);
    f();
    let after = names.map(counter);
    std::array::from_fn(|i| after[i] - before[i])
}

/// The record of a sweep up to `b` whose round `b` is its first solvable
/// one, with the reference engine's witness: written without building an
/// arena level or touching the skeleton memo.
fn record(spec: &str, b: usize) -> (KeyedTask, String) {
    let task = iis_tasks::library::parse_spec(spec).unwrap();
    let map = reference::solve_mac(&task, b, u64::MAX).unwrap().unwrap();
    let results: Vec<(usize, bool)> = (0..=b).map(|r| (r, r == b)).collect();
    let text = Json::obj([
        ("results", results.to_json()),
        ("task", task.name().to_json()),
        (
            "witness",
            Json::obj([("b", b.to_json()), ("map", map.to_json())]),
        ),
    ])
    .to_string();
    (KeyedTask::new(task), text)
}

/// A record claiming an `eps:5:2` witness at `b = 1`, whose level has
/// 299 712 facets, is refused before anything is built.
#[test]
fn a_witness_past_the_cap_is_refused_before_anything_is_built() {
    let keyed = intern_spec("eps:5:2").unwrap();
    let planted = r#"{"results":[[0,false],[1,true]],"task":"eps","witness":{"b":1,"map":[]}}"#;
    let names = [
        "sds.builds",
        "sds.facets",
        "cache.tower_builds",
        "cache.tower_hits",
    ];
    for _ in 0..2 {
        let built = deltas(names, || {
            assert_eq!(
                validate_record(&keyed, 1, planted, None),
                Err(
                    "SDS^1(I) would have 299712 facets, past the cap of 100000; \
                     nothing was built"
                        .to_string()
                )
            );
        });
        assert_eq!(built, [0; 4]);
    }
}

/// A record whose level is under the cap but whose map is bogus builds
/// its levels, is refused, and leaves no level in the memo: checked
/// again, it builds them again.
#[test]
fn a_refused_witness_leaves_no_level_behind() {
    let keyed = intern_spec("trivial:2").unwrap();
    let bogus =
        r#"{"results":[[0,false],[1,false],[2,true]],"task":"trivial","witness":{"b":2,"map":[]}}"#;
    for _ in 0..2 {
        let built = deltas(
            ["sds.builds", "cache.tower_builds", "cache.tower_hits"],
            || {
                assert_eq!(
                    validate_record(&keyed, 2, bogus, None),
                    Err("stored witness invalid: vertex 0 unmapped".to_string())
                );
            },
        );
        assert_eq!(built, [2, 1, 0]);
    }
}

/// A witness check climbs from the highest level of its shape the memo
/// holds: after an `eps:1:3` witness at `b = 1` kept its level, an
/// `eps:1:9` witness at `b = 2` (the same input shape) builds one level.
#[test]
fn a_witness_check_climbs_from_the_memo() {
    let (three, text3) = record("eps:1:3", 1);
    let (nine, text9) = record("eps:1:9", 2);
    let names = ["sds.builds", "cache.tower_builds", "cache.tower_hits"];
    let built = deltas(names, || validate_record(&three, 1, &text3, None).unwrap());
    assert_eq!(built, [1, 1, 0]);
    let built = deltas(names, || validate_record(&nine, 2, &text9, None).unwrap());
    assert_eq!(built, [1, 1, 0]);
    // both levels are now memoized: re-checks build nothing
    let built = deltas(names, || validate_record(&nine, 2, &text9, None).unwrap());
    assert_eq!(built, [0, 0, 1]);
    let built = deltas(names, || validate_record(&three, 1, &text3, None).unwrap());
    assert_eq!(built, [0, 0, 1]);
}

/// A witness check keeps its job's deadline: a record claiming a
/// `trivial:6` witness at `b = 1`, whose level of 47 293 facets of width 7
/// takes seconds to classify, is refused once the deadline passes — by
/// [`validate_record`] and by a service's [`AnswerMemo`] alike, which
/// then answers nothing — and no level is kept.
#[test]
fn a_witness_check_stops_at_its_deadline() {
    let keyed = intern_spec("trivial:6").unwrap();
    let planted = r#"{"results":[[0,false],[1,true]],"task":"trivial","witness":{"b":1,"map":[]}}"#;
    let mut store: HashMap<u64, String> = HashMap::new();
    store.insert(keyed.key(1), planted.to_string());
    let names = ["cache.tower_builds", "cache.tower_hits"];
    for _ in 0..2 {
        let built = deltas(names, || {
            let t0 = Instant::now();
            let deadline = Some(t0 + Duration::from_millis(200));
            assert_eq!(
                validate_record(&keyed, 1, planted, deadline),
                Err("deadline exceeded: witness check stopped at b = 1".to_string())
            );
            let memo = AnswerMemo::default();
            let deadline = Some(Instant::now() + Duration::from_millis(200));
            assert_eq!(memo.answer(&keyed, 1, &mut store, deadline), None);
            // both checks stop in the level's classification, polled past
            // its face enumeration (about 0.4 s in release, seconds in a
            // debug build); a finished check takes seconds in release
            if !cfg!(debug_assertions) {
                assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
            }
        });
        // each check builds the level, and neither keeps it
        assert_eq!(built, [2, 0]);
    }
}
