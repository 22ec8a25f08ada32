//! Every round a sweep reaches leaves one `solve.round` trace record, a
//! round the distance pass refutes and a round past the facet cap
//! included: the first names the outcome `distance` and no node searched,
//! the second the outcome `too_large` and the tower's facet count in place
//! of a node count. Each record's outcome names what decided the round,
//! as the report's `deciders()` does, and each is one round done in
//! `/progress`.
//!
//! Lives in its own integration-test binary (and as a single test)
//! because the trace sink and the progress registry are process-global.

use iis_core::{solve_up_to, BoundedOutcome};
use iis_obs::Json;
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

#[test]
fn a_capped_round_is_traced_with_its_facet_count() {
    iis_obs::progress::reset();
    // eps:5:2 is refuted at b = 0 by its distances (two corners 2 apart,
    // more than 2^0); SDS^1 of its 64 input facets of width 6 has
    // 64 · 4683 facets, past the cap
    let task = iis_tasks::library::parse_spec("eps:5:2").unwrap();
    let sink = Shared::default();
    let report = {
        let _guard = iis_obs::trace::guard_writer(Box::new(sink.clone()));
        solve_up_to(&task, 1)
    };
    assert!(matches!(
        report.stopped(),
        Some(BoundedOutcome::TooLarge { facets: 299_712 })
    ));
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let rounds: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .filter(|event| event.get("kind").and_then(Json::as_str) == Some("solve.round"))
        .collect();
    let field = |event: &Json, name: &str| event.get(name).map(Json::to_string);
    let seen: Vec<[Option<String>; 4]> = rounds
        .iter()
        .map(|e| ["b", "outcome", "nodes", "facets"].map(|name| field(e, name)))
        .collect();
    let some = |s: &str| Some(s.to_string());
    assert_eq!(
        seen,
        [
            [some("0"), some("\"distance\""), some("0"), None],
            [some("1"), some("\"too_large\""), None, some("299712")],
        ],
        "{text}"
    );
    let mut traced = rounds.len();
    // one sweep per decider chain: search then certificate, distance then
    // search, distance then certificate
    for (spec, max_rounds, outcomes) in [
        ("kset:2:2", 1, &["unsolvable", "certified"][..]),
        ("eps:1:9", 3, &["distance", "distance", "solvable"]),
        (
            "consensus:1",
            3,
            &["distance", "certified", "certified", "certified"],
        ),
    ] {
        let task = iis_tasks::library::parse_spec(spec).unwrap();
        let sink = Shared::default();
        let report = {
            let _guard = iis_obs::trace::guard_writer(Box::new(sink.clone()));
            solve_up_to(&task, max_rounds)
        };
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let seen: Vec<String> = text
            .lines()
            .map(|line| Json::parse(line).unwrap())
            .filter(|event| event.get("kind").and_then(Json::as_str) == Some("solve.round"))
            .map(|event| {
                event
                    .get("outcome")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(seen, outcomes, "{spec}: {text}");
        let named: Vec<&str> = seen
            .iter()
            .map(|outcome| match outcome.as_str() {
                "certified" => "certificate",
                "distance" => "distance",
                _ => "search",
            })
            .collect();
        let deciders: Vec<&str> = report.deciders().iter().map(|d| d.name()).collect();
        assert_eq!(deciders, named, "{spec}");
        assert_eq!(report.deciders().len(), report.results().len(), "{spec}");
        traced += seen.len();
    }
    assert_eq!(iis_obs::progress::snapshot().rounds_done, traced as u64);
}
