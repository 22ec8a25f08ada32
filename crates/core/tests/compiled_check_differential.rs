//! The compiled witness check against Proposition 3.1's reference check.
//!
//! A stored witness is revalidated by reading the record text straight
//! into a dense image table and probing each simplex's image tuple in its
//! `(carrier, colors)` class's compiled `Δ` table
//! (`iis_core::cache::validate_record`, `report_from_json`). Over every
//! library family at small `b`, the record of the real witness (or, for a
//! task with none, of a map that satisfies every vertex's own constraint)
//! and of hundreds of seeded one- and two-vertex mutations of it must get
//! the same verdict from the compiled check as from the reference
//! `validate_decision_map` on the labelled `sds_iterated` tower. Seeded
//! single-byte edits of canonical records are accepted only when a
//! JSON-tree decoder with the reference check would accept them too, and
//! only when the edit is itself a canonical rendering.

use iis_core::cache::{report_from_json, validate_record, KeyedTask};
use iis_core::solvability::{solve_up_to_opts, validate_decision_map, SolveOptions};
use iis_obs::json::FromJson;
use iis_obs::{Json, Rng, ToJson};
use iis_tasks::library::parse_spec;
use iis_tasks::Task;
use iis_topology::{sds_iterated, Simplex, SimplicialMap, Subdivision, VertexId};

/// Mutations per `(task, b)` case.
const MUTATIONS: usize = 240;

/// Every library family, at sizes whose towers stay small.
const CASES: [(&str, usize); 14] = [
    ("trivial:1", 1),
    ("trivial:2", 1),
    ("consensus:1", 2),
    ("consensus:2", 1),
    ("kset:2:1", 1),
    ("kset:2:2", 1),
    ("kset:2:3", 1),
    ("renaming:1:3", 1),
    ("renaming:2:5", 1),
    ("eps:1:3", 1),
    ("eps:1:9", 2),
    ("eps:1:27", 3),
    ("oneshot:1", 1),
    ("oneshot:2", 1),
];

/// The record text a store holds claiming `map` decides `task` at `b`.
fn record(task: &Task, b: usize, map: &SimplicialMap) -> String {
    let results: Vec<(usize, bool)> = (0..=b).map(|r| (r, r == b)).collect();
    Json::obj([
        ("results", results.to_json()),
        ("task", task.name().to_json()),
        (
            "witness",
            Json::obj([("b", b.to_json()), ("map", map.to_json())]),
        ),
    ])
    .to_string()
}

/// The real witness at `b` if the task has one there; otherwise a map
/// sending each vertex to the first output vertex its own carrier allows —
/// every unary constraint holds, so the check has to look at edges and up.
fn start_map(task: &Task, sub: &Subdivision, b: usize) -> SimplicialMap {
    let report = solve_up_to_opts(task, b, &SolveOptions::new());
    if let Some(w) = report.witness().filter(|w| w.rounds() == b) {
        return w.map().clone();
    }
    let c = sub.complex();
    SimplicialMap::from_fn(c, |v| {
        let carrier = sub.carrier_of_simplex(&Simplex::new([v]));
        task.output()
            .vertex_ids()
            .find(|&w| {
                task.output().color(w) == c.color(v) && task.allows(&carrier, &Simplex::new([w]))
            })
            .expect("every vertex has an allowed image")
    })
}

#[test]
fn compiled_check_equals_the_prop_3_1_check() {
    let mut rng = Rng::seed_from_u64(0x3_1c0de);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for (spec, b) in CASES {
        let task = parse_spec(spec).unwrap();
        let keyed = KeyedTask::new(task.clone());
        let sub = sds_iterated(task.input(), b);
        let out = task.output();
        let start = start_map(&task, &sub, b);
        let sources: Vec<VertexId> = sub.complex().vertex_ids().collect();
        for m in 0..=MUTATIONS {
            let mut map = start.clone();
            // mutation 0 is the unmutated start map
            let moved = if m == 0 { 0 } else { 1 + m % 2 };
            for _ in 0..moved {
                let v = *rng.choose(&sources).unwrap();
                // mostly a same-colored image (the interesting case); now
                // and then any output vertex, which must fail on color
                let candidates: Vec<VertexId> = out
                    .vertex_ids()
                    .filter(|&w| rng.random_bool(0.1) || out.color(w) == sub.complex().color(v))
                    .collect();
                if let Some(&w) = rng.choose(&candidates) {
                    map.insert(v, w);
                }
            }
            let want = validate_decision_map(&task, &sub, &map).is_ok();
            let rec = record(&task, b, &map);
            let got = validate_record(&keyed, b, &rec, None);
            assert_eq!(
                got.is_ok(),
                want,
                "{spec} b={b} mutation {m}: compiled {got:?}, reference accepts: {want}"
            );
            let replay = report_from_json(&task, &Json::parse(&rec).unwrap()).map(|_| ());
            assert_eq!(replay, got, "{spec} b={b} mutation {m}");
            if want {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // both verdicts occur often, so neither an always-accepting nor an
    // always-rejecting check could pass
    assert!(
        accepted > 300 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn rejections_name_the_simplex_and_its_carrier() {
    let task = parse_spec("eps:1:9").unwrap();
    let keyed = KeyedTask::new(task.clone());
    let b = 2;
    let sub = sds_iterated(task.input(), b);
    let mut map = start_map(&task, &sub, b);
    // send one end of the grid's first edge to the far end of its range
    let v = sub.complex().vertex_ids().next().unwrap();
    let far = task
        .output()
        .vertex_ids()
        .filter(|&w| task.output().color(w) == sub.complex().color(v))
        .last()
        .unwrap();
    let near = map.image(v).unwrap();
    map.insert(v, if far == near { VertexId(0) } else { far });
    assert!(validate_decision_map(&task, &sub, &map).is_err());
    let err = validate_record(&keyed, b, &record(&task, b, &map), None).unwrap_err();
    assert!(err.starts_with("stored witness invalid: "), "{err}");
    assert!(
        err.contains("simplex ⟨") && err.contains("(carrier ⟨") && err.contains("∉ Δ(carrier)"),
        "{err}"
    );
}

/// A JSON-tree decoder of a record with the reference check: parse the
/// text, read the verdicts and the witness map by source, and accept iff
/// the verdicts end in the witness's round and the map passes
/// `validate_decision_map` on the labelled tower. It is lenient where the
/// one-pass reader is strict — whitespace, pair order, stray pairs, gaps —
/// so every record the reader accepts must pass it.
fn tree_decoder_accepts(task: &Task, text: &str) -> bool {
    let decode = || -> Option<bool> {
        let v = Json::parse(text).ok()?;
        let results = Vec::<(usize, bool)>::from_json(v.get("results")?).ok()?;
        String::from_json(v.get("task")?).ok()?;
        match v.get("witness")? {
            Json::Null => Some(!results.iter().any(|(_, ok)| *ok)),
            w => {
                let b = usize::from_json(w.get("b")?).ok()?;
                let map = SimplicialMap::from_json(w.get("map")?).ok()?;
                let sub = sds_iterated(task.input(), b.min(3));
                Some(
                    b <= 3
                        && results.last() == Some(&(b, true))
                        && validate_decision_map(task, &sub, &map).is_ok(),
                )
            }
        }
    };
    decode() == Some(true)
}

#[test]
fn single_byte_edits_are_accepted_only_when_canonical_and_valid() {
    const EDITS: usize = 600;
    // the bytes a record is made of, and some it is not
    let alphabet = b"0123456789,[]{}\":. tfalseruniwbmapk-\\";
    let mut rng = Rng::seed_from_u64(0xb17e_ed17);
    let (mut accepted, mut refused) = (0usize, 0usize);
    for spec in [
        "eps:1:3",
        "consensus:1",
        "kset:2:3",
        "oneshot:1",
        "renaming:1:3",
    ] {
        let task = parse_spec(spec).unwrap();
        let keyed = KeyedTask::new(task.clone());
        let b = 2;
        let report = solve_up_to_opts(&task, b, &SolveOptions::new());
        let text = iis_core::cache::report_to_json(&report).to_string();
        assert_eq!(validate_record(&keyed, b, &text, None), Ok(()), "{spec}");
        for e in 0..EDITS {
            let mut bytes = text.clone().into_bytes();
            let at = rng.random_range(0..bytes.len());
            let with = alphabet[rng.random_range(0..alphabet.len())];
            match e % 3 {
                0 => bytes[at] = with,
                1 => bytes.insert(at, with),
                _ => {
                    bytes.remove(at);
                }
            }
            let Ok(edit) = String::from_utf8(bytes) else {
                continue;
            };
            if edit == text {
                continue;
            }
            if validate_record(&keyed, b, &edit, None).is_ok() {
                assert!(tree_decoder_accepts(&task, &edit), "{spec}: {edit}");
                assert_eq!(
                    Json::parse(&edit).unwrap().to_string(),
                    edit,
                    "{spec}: accepted bytes that do not re-render as themselves"
                );
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    }
    // edits inside the task name, or to another image the check allows,
    // are accepted; most edits break the grammar
    assert!(
        accepted > 100 && refused > 4 * accepted,
        "{accepted} accepted, {refused} refused"
    );
}
