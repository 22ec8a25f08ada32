//! A level of the tower is recorded where it is built, whoever builds it:
//! a stored witness checked on a shape the process has no level of
//! builds, counts and traces each level once, and a level taken from the
//! skeleton memo is neither counted nor traced.
//!
//! Lives in its own integration-test binary (and as a single test)
//! because the metric registry, the trace sink and the skeleton memo are
//! process-global.

use iis_core::cache::{report_to_json, validate_record, KeyedTask};
use iis_core::{reference, solve_up_to};
use iis_obs::{metrics, Json, ToJson};
use iis_tasks::library::parse_spec;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// A trace writer whose bytes the test reads back.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Shared {
    /// The `sds.level` events traced so far, as their `level` fields.
    fn levels(&self) -> Vec<u64> {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(|line| Json::parse(line).unwrap())
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some("sds.level"))
            .map(|e| e.get("level").and_then(Json::as_u64).unwrap())
            .collect()
    }
}

/// The record of a sweep up to `b` whose round `b` is its first solvable
/// one, with the reference engine's witness: written without building
/// an arena level or touching the skeleton memo.
fn record(spec: &str, b: usize) -> (KeyedTask, String) {
    let task = parse_spec(spec).unwrap();
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

#[test]
fn each_level_built_is_recorded_once_and_a_memo_hit_not_at_all() {
    metrics::set_enabled(true);
    let sink = Shared::default();
    let _guard = iis_obs::trace::guard_writer(Box::new(sink.clone()));
    let counter = |name: &str| metrics::snapshot().counters.get(name).copied().unwrap_or(0);
    let recorded = |f: &dyn Fn()| {
        let (builds, hits, traced) = (
            counter("sds.builds"),
            counter("cache.tower_hits"),
            sink.levels().len(),
        );
        f();
        (
            counter("sds.builds") - builds,
            counter("cache.tower_hits") - hits,
            sink.levels()[traced..].to_vec(),
        )
    };
    // eps:1:9 needs two rounds; nothing in this process built its shape
    let (nine, text) = record("eps:1:9", 2);
    let check = || validate_record(&nine, 2, &text, None).unwrap();
    assert_eq!(recorded(&check), (2, 0, vec![1, 2]));
    // the witness level is memoized: a second check builds nothing
    assert_eq!(recorded(&check), (0, 1, vec![]));
    // eps:1:3 has the same shape and needs one round: its check builds
    // level 1, which the memo did not hold, and keeps it
    let (three, text3) = record("eps:1:3", 1);
    let check3 = || validate_record(&three, 1, &text3, None).unwrap();
    assert_eq!(recorded(&check3), (1, 0, vec![1]));
    // a sweep whose distance pass refutes rounds 0 and 1 takes level 2
    // from the memo and traces no level, and its record is the one
    // checked above
    let sweep = || {
        let report = solve_up_to(nine.task(), 2);
        assert_eq!(report_to_json(&report).to_string(), text);
    };
    assert_eq!(recorded(&sweep), (0, 1, vec![]));
}
