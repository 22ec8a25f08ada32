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
use iis_tasks::{Task, TaskBuilder};
use iis_topology::{Complex, Label, Simplex, VertexId};
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// The disjoint union of `parts`: their inputs side by side, their
/// outputs side by side, each `Δ` on its own part. Every vertex label is
/// tagged with its part, so no vertex of one part is one of another.
fn disjoint_union(name: &str, parts: &[Task]) -> Task {
    let (mut input, mut output) = (Complex::new(), Complex::new());
    let mut delta = Vec::new();
    for (tag, part) in parts.iter().enumerate() {
        let tag = Label::scalar(tag as u64);
        let copy = |from: &Complex, into: &mut Complex| -> Vec<VertexId> {
            let ids: Vec<VertexId> = from
                .vertex_ids()
                .map(|v| into.ensure_vertex(from.color(v), Label::pair(&tag, from.label(v))))
                .collect();
            for f in from.facets() {
                into.add_facet(f.iter().map(|v| ids[v.index()]));
            }
            ids
        };
        let ins = copy(part.input(), &mut input);
        let outs = copy(part.output(), &mut output);
        for (si, allowed) in part.delta_entries() {
            let si = Simplex::new(si.iter().map(|v| ins[v.index()]));
            for so in allowed {
                delta.push((si.clone(), Simplex::new(so.iter().map(|w| outs[w.index()]))));
            }
        }
    }
    let mut b = TaskBuilder::new(name, input, output);
    for (si, so) in delta {
        b.allow(si, so);
    }
    b.build().expect("a disjoint union of tasks is a task")
}

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
    let spec = |spec: &str| iis_tasks::library::parse_spec(spec).unwrap();
    // The distance pass is asked first. Beside kset:2:2, eps:1:3's input
    // edge has its corners 3 apart: past 3^0, so the pass refutes b = 0,
    // and within 3^b from b = 1 on, where kset:2:2's certificate settles
    // every round. Consensus's corners are not joined in Δ at all: the
    // pass refutes every round, before any certificate is looked for.
    let both = disjoint_union("kset:2:2+eps:1:3", &[spec("kset:2:2"), spec("eps:1:3")]);
    // one sweep per decider chain: search then certificate, distance then
    // search, distance then certificate, distance throughout
    for (task, max_rounds, outcomes) in [
        (spec("kset:2:2"), 1, &["unsolvable", "certified"][..]),
        (spec("eps:1:9"), 3, &["distance", "distance", "solvable"]),
        (both, 2, &["distance", "certified", "certified"]),
        (
            spec("consensus:1"),
            3,
            &["distance", "distance", "distance", "distance"],
        ),
    ] {
        let spec = task.name().to_string();
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
