//! The text readers against the tree path they replaced.
//!
//! A question used to be read by parsing its body into a `Json` tree and
//! converting the tree (`Task::from_json` over `Complex::from_json`, and
//! the `&Json` question readers). Now one pass over the text reads it
//! (`Task::read_json`, `iis_core::cache::read_solve_body`). This file
//! keeps the tree path as the oracle, and over a corpus — every library
//! family at its largest accepted spec, the committed inline-task fixture,
//! the question bodies the serve and gateway tests send, and seeded
//! mutations of all of them — requires the same `Task` (same canonical
//! JSON, same key) or the same error text from both, and a canonical span
//! reported exactly when the span is `write_canonical`'s output.

use iis_core::cache::{
    key_prefix, read_question, read_solve_body, QuestionTask, QuestionText, SolveBody,
};
use iis_obs::json::{read_all, FromJson, Json, JsonError};
use iis_obs::{Rng, ToJson};
use iis_tasks::library::parse_spec;
use iis_tasks::{Task, TaskBuilder};
use iis_topology::template::WIDTH_LIMIT;
use iis_topology::{Color, Complex, Label, Simplex};

/// The tree decoder of a complex the reader replaced.
fn oracle_complex(v: &Json) -> Result<Complex, JsonError> {
    let vertices = Vec::<(Color, Label)>::from_json(v.field("vertices")?)?;
    let facets = Vec::<Simplex>::from_json(v.field("facets")?)?;
    let mut c = Complex::new();
    for (color, label) in vertices {
        c.ensure_vertex(color, label);
    }
    let n = c.num_vertices() as u32;
    if facets.iter().any(|f| f.iter().any(|v| v.0 >= n)) {
        return Err(JsonError::new("facet references unknown vertex"));
    }
    c.add_facets(facets);
    Ok(c)
}

/// The tree decoder of a task the reader replaced.
fn oracle_task(v: &Json) -> Result<Task, JsonError> {
    let name = String::from_json(v.field("name")?)?;
    let input = oracle_complex(v.field("input")?)?;
    let output = oracle_complex(v.field("output")?)?;
    let delta = Vec::<(Simplex, Vec<Simplex>)>::from_json(v.field("delta")?)?;
    let mut b = TaskBuilder::new(name, input, output);
    for (si, outs) in delta {
        for so in outs {
            b.allow(si.clone(), so);
        }
    }
    b.build().map_err(|e| JsonError::new(e.to_string()))
}

/// A question's reading: its task (`spec …` or `task <key prefix>`) and
/// options.
type Reading = Result<(String, usize, u64, bool), String>;

/// The `&Json` question reader the text reader replaced, with the
/// shard's order of refusals; a spec is not resolved.
fn oracle_question(q: &Json) -> Reading {
    let task = match (q.get("spec"), q.get("task")) {
        (Some(s), None) => format!("spec {}", s.as_str().ok_or("\"spec\" must be a string")?),
        (None, Some(t)) => {
            let task = oracle_task(t).map_err(|e| format!("bad \"task\": {e}"))?;
            let width = task.input().facets().map(Simplex::len).max().unwrap_or(0);
            if width > WIDTH_LIMIT {
                return Err(format!(
                    "bad \"task\": an input facet of {width} processes exceeds the limit of {WIDTH_LIMIT}"
                ));
            }
            format!("task {:016x}", key_prefix(&task))
        }
        (Some(_), Some(_)) => return Err("give \"spec\" or \"task\", not both".to_string()),
        (None, None) => return Err("body needs a \"spec\" or a \"task\"".to_string()),
    };
    let count = |name: &str, default: u64| match q.get(name) {
        None | Some(Json::Null) => Ok(default),
        Some(j) => j
            .as_f64()
            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as u64)
            .ok_or_else(|| format!("\"{name}\" must be a non-negative integer")),
    };
    let max_rounds = usize::try_from(count("max_rounds", 2)?).unwrap_or(usize::MAX);
    let budget = count("budget", 1_000_000)?;
    let wait = match q.get("wait") {
        None | Some(Json::Null) => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("\"wait\" must be a boolean".to_string()),
    };
    if max_rounds > 6 {
        return Err("max_rounds > 6 would build an astronomically large complex".to_string());
    }
    Ok((task, max_rounds, budget, wait))
}

fn resolved(q: QuestionText<'_>) -> Reading {
    q.resolve(|task| {
        Ok(match task {
            QuestionTask::Spec(s) => format!("spec {s}"),
            QuestionTask::Inline(keyed) => format!("task {:016x}", keyed.key_prefix()),
        })
    })
    .map(|q| (q.task, q.max_rounds, q.budget, q.wait))
}

/// A body's reading: batch or not, and each question's reading.
type BodyReading = Result<(bool, Vec<Reading>), String>;

fn oracle_body(body: &str) -> BodyReading {
    let v = Json::parse(body).map_err(|e| format!("bad JSON body: {e}"))?;
    match v.get("questions") {
        Some(Json::Arr(questions)) => Ok((true, questions.iter().map(oracle_question).collect())),
        Some(_) => Err("\"questions\" must be an array".to_string()),
        None => Ok((false, vec![oracle_question(&v)])),
    }
}

fn read_body(body: &str) -> BodyReading {
    match read_solve_body(body)? {
        SolveBody::One(q) => Ok((false, vec![resolved(q)])),
        SolveBody::Batch(questions) => {
            let tree = Json::parse(body).unwrap();
            let Some(Json::Arr(items)) = tree.get("questions") else {
                panic!("a batch without a questions array: {body}");
            };
            assert_eq!(items.len(), questions.len(), "{body}");
            for ((text, _), item) in questions.iter().zip(items) {
                // each question's text is exactly its item
                assert_eq!(&Json::parse(text).unwrap(), item, "{body}");
            }
            Ok((
                true,
                questions.into_iter().map(|(_, q)| resolved(q)).collect(),
            ))
        }
    }
}

/// The task read from `text`, whether it was read as canonical, and the
/// span it was read from — a syntax error anywhere winning, as parsing
/// first would have it.
fn read_task(text: &str) -> Result<(Task, bool, &str), String> {
    let (task, canonical, span) = read_all(text, |r| {
        let start = r.peek().map_or(0, |_| r.pos());
        let (task, canonical) = Task::read_json(r)?;
        Ok((task, canonical, start..r.pos()))
    })
    .map_err(|e| e.to_string())?;
    Ok((task, canonical, &text[span]))
}

/// Checks one task text; returns whether it decoded.
fn check_task(text: &str) -> bool {
    let tree = Json::parse(text);
    let oracle = tree
        .clone()
        .map_err(|e| e.to_string())
        .and_then(|v| oracle_task(&v).map_err(|e| e.to_string()));
    let read = read_task(text);
    match (&oracle, &read) {
        (Ok(want), Ok((got, canonical, span))) => {
            assert_eq!(want.canonical_json(), got.canonical_json(), "{text}");
            assert_eq!(key_prefix(want), key_prefix(got), "{text}");
            assert_eq!(
                *canonical,
                *span == got.canonical_json(),
                "span reused iff it is the canonical text: {text}"
            );
        }
        (Err(want), Err(got)) => assert_eq!(want, got, "{text}"),
        _ => panic!(
            "tree and text disagree on {text}: {:?} vs {:?}",
            oracle.as_ref().map(|t| t.canonical_json()),
            read.as_ref().map(|t| t.0.canonical_json())
        ),
    }
    // the tree adapter is the text reader too
    if let Ok(v) = tree {
        let adapted = Task::from_json(&v).map_err(|e| e.to_string());
        let adapted = adapted.as_ref().map(|t| t.canonical_json());
        assert_eq!(
            adapted,
            oracle.as_ref().map(|t| t.canonical_json()),
            "{text}"
        );
    }
    oracle.is_ok()
}

/// Checks one question body, read as a `POST /solve` body and as a single
/// question.
fn check_body(body: &str) {
    assert_eq!(read_body(body), oracle_body(body), "{body}");
    let single = Json::parse(body)
        .map_err(|e| format!("bad JSON body: {e}"))
        .and_then(|v| oracle_question(&v));
    let read = read_question(body).and_then(resolved);
    assert_eq!(read, single, "{body}");
}

/// A random JSON value of the kinds a malformed task holds.
fn junk(rng: &mut Rng) -> Json {
    match rng.random_range(0u32..9) {
        0 => Json::Null,
        1 => Json::Bool(true),
        2 => Json::Num(-1.0),
        3 => Json::Num(1.5),
        4 => Json::Num(300.0),
        5 => Json::Num(4_294_967_296.0),
        6 => Json::Str("x".to_string()),
        7 => Json::Arr(vec![Json::Num(0.0)]),
        _ => Json::Obj(Vec::new()),
    }
}

/// The `at`-th node of `v` in preorder.
fn node(v: &mut Json, mut at: usize) -> &mut Json {
    fn walk<'v>(v: &'v mut Json, at: &mut usize) -> Option<&'v mut Json> {
        if *at == 0 {
            return Some(v);
        }
        *at -= 1;
        match v {
            Json::Arr(items) => items.iter_mut().find_map(|item| walk(item, at)),
            Json::Obj(members) => members.iter_mut().find_map(|(_, v)| walk(v, at)),
            _ => None,
        }
    }
    walk(v, &mut at).expect("node index within size")
}

/// The preorder indices of the nodes of `v` that `keep` picks.
fn nodes_where(v: &Json, keep: fn(&Json) -> bool) -> Vec<usize> {
    fn walk(v: &Json, keep: fn(&Json) -> bool, next: &mut usize, out: &mut Vec<usize>) {
        if keep(v) {
            out.push(*next);
        }
        *next += 1;
        match v {
            Json::Arr(items) => items.iter().for_each(|item| walk(item, keep, next, out)),
            Json::Obj(members) => members.iter().for_each(|(_, v)| walk(v, keep, next, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(v, keep, &mut 0, &mut out);
    out
}

/// `v` with one seeded structural edit: members reordered or repeated,
/// a simplex's ids unsorted, an item repeated (a duplicate vertex, facet
/// or `Δ` entry), or a node replaced by junk.
fn mutate_tree(rng: &mut Rng, v: &Json) -> Json {
    let mut v = v.clone();
    let op = rng.random_range(0u32..9);
    let kind: fn(&Json) -> bool = match op {
        0..=2 => |v| matches!(v, Json::Obj(m) if !m.is_empty()),
        3..=6 => |v| matches!(v, Json::Arr(items) if !items.is_empty()),
        _ => |_| true,
    };
    let Some(&at) = rng.choose(&nodes_where(&v, kind)) else {
        return v;
    };
    match (op, node(&mut v, at)) {
        (0 | 1, Json::Obj(members)) => rng.shuffle(members),
        (2, Json::Obj(members)) => {
            let i = rng.random_range(0..members.len());
            let mut copy = members[i].clone();
            if rng.random_bool(0.5) {
                copy.1 = junk(rng);
            }
            let to = rng.random_range(0..members.len() + 1);
            members.insert(to, copy);
        }
        (3 | 4, Json::Arr(items)) => {
            if rng.random_bool(0.5) {
                items.reverse();
            } else {
                rng.shuffle(items);
            }
        }
        (5 | 6, Json::Arr(items)) => {
            let i = rng.random_range(0..items.len());
            let copy = items[i].clone();
            items.insert(rng.random_range(0..items.len() + 1), copy);
        }
        (_, target) => *target = junk(rng),
    }
    v
}

/// `text` with one seeded lexical edit: whitespace between tokens, an
/// integer written as `N.0`, `Ne0` or with a leading zero, or an escaped
/// name.
fn mutate_text(rng: &mut Rng, text: &str) -> String {
    let bytes = text.as_bytes();
    let spots: Vec<usize> = (0..bytes.len())
        .filter(|&i| matches!(bytes[i], b',' | b':' | b'[' | b'{' | b']' | b'}'))
        .collect();
    match rng.random_range(0u32..3) {
        0 if !spots.is_empty() => {
            let mut out = text.to_string();
            for _ in 0..rng.random_range(1usize..4) {
                let at = *rng.choose(&spots).unwrap();
                let ws = *rng.choose(&[" ", "\n", "\t ", "\r\n  "]).unwrap();
                if at < out.len() && out.is_char_boundary(at + 1) {
                    out.insert_str(at + 1, ws);
                }
            }
            out
        }
        1 => {
            // the first integer after a random byte
            let from = rng.random_range(0..bytes.len().max(1));
            let Some(start) = (from..bytes.len()).find(|&i| {
                bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric())
            }) else {
                return text.to_string();
            };
            let end = (start..bytes.len())
                .find(|&i| !bytes[i].is_ascii_digit())
                .unwrap_or(bytes.len());
            let form = *rng.choose(&[".0", "e0", "E+0", ".5"]).unwrap();
            if rng.random_bool(0.25) {
                format!("{}0{}", &text[..start], &text[start..])
            } else {
                format!("{}{form}{}", &text[..end], &text[end..])
            }
        }
        _ => {
            let escaped = *rng
                .choose(&[r#""cold""#, r#""c\/x""#, r#""tab\there""#, r#""é\b""#])
                .unwrap();
            match text.find("\"name\":") {
                Some(at) => {
                    let value = at + "\"name\":".len();
                    let close = text[value + 1..].find('"').map(|i| value + 2 + i);
                    match close {
                        Some(close) => format!("{}{escaped}{}", &text[..value], &text[close..]),
                        None => text.to_string(),
                    }
                }
                None => text.to_string(),
            }
        }
    }
}

/// The largest spec each library family accepts, on each of its axes.
const LARGEST_SPECS: [&str; 10] = [
    "trivial:14",
    "consensus:7",
    "kset:6:1",
    "kset:4:3",
    "renaming:5:7",
    "renaming:4:9",
    "eps:1:15625",
    "eps:2:1953",
    "eps:5:3",
    "oneshot:4",
];

/// Small tasks, mutated many times each.
const SMALL_SPECS: [&str; 7] = [
    "trivial:1",
    "consensus:1",
    "kset:2:2",
    "renaming:1:3",
    "eps:1:3",
    "eps:0:4",
    "oneshot:1",
];

/// The question bodies the serve and gateway tests send.
const TEST_BODIES: [&str; 32] = [
    "not json",
    "{}",
    "[]",
    "7",
    r#"{"nope": 1}"#,
    r#"{"questions": 3}"#,
    r#"{"questions": []}"#,
    r#"{"questions": [{"spec": "trivial:1", "max_rounds": 1}]}"#,
    r#"{"questions": [{"spec": "eps:1:3", "max_rounds": 2}, {"spec": "nope:9"}, 5]}"#,
    r#"{"spec": "@/etc/hostname"}"#,
    r#"{"spec": "consensus:12", "wait": false}"#,
    r#"{"spec": "consensus:2", "max_rounds": 1, "wait": false}"#,
    r#"{"spec": "eps:1:10000000", "wait": false}"#,
    r#"{"spec": "eps:1:3", "max_rounds": 0}"#,
    r#"{"spec": "eps:1:3", "max_rounds": 1, "jobs": 4611686018427387904}"#,
    r#"{"spec": "eps:1:3", "max_rounds": 2, "wait": false}"#,
    r#"{"spec": "eps:1:3", "max_rounds": 99}"#,
    r#"{"spec": "eps:1:3", "task": {}}"#,
    r#"{"task": {}, "spec": "eps:1:3"}"#,
    r#"{"spec": "eps:1:3", "wait": "yes"}"#,
    r#"{"spec": "eps:1:3"}"#,
    r#"{"spec": 3}"#,
    r#"{"spec": "trivial:1", "kernel": "reference"}"#,
    r#"{"spec": "trivial:1", "max_rounds": -1}"#,
    r#"{"spec": "trivial:1", "max_rounds": 2.5}"#,
    r#"{"spec": "trivial:1", "max_rounds": "2"}"#,
    r#"{"spec": "trivial:1", "budget": -5}"#,
    r#"{"spec": "trivial:1", "budget": 0.5}"#,
    r#"{"spec": "trivial:1", "jobs": true, "budget": 1e0}"#,
    r#"{"spec": "trivial:1", "budget": 2.0, "wait": null, "max_rounds": null}"#,
    r#"{"spec": "kset:2:2", "max_rounds": 2, "budget": 50}"#,
    r#"{"questions": [{"spec": "trivial:1"}], "questions": 3, "spec": "x"}"#,
];

const FIXTURE: &str = include_str!("../../cli/tests/golden/inline_task_eps_1_3.json");
const FIXTURE_REORDERED: &str =
    include_str!("../../cli/tests/golden/inline_task_eps_1_3.reordered.json");

fn inline_body(task: &str, rest: &str) -> String {
    format!(r#"{{"task": {task}{rest}}}"#)
}

#[test]
fn largest_library_tasks_read_alike_and_canonical() {
    let mut rng = Rng::seed_from_u64(0x5eed_7a5c);
    for spec in LARGEST_SPECS {
        let task = parse_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let text = task.canonical_json();
        let (read, canonical, _) = read_task(text).unwrap();
        assert!(canonical, "{spec} arrives canonical");
        assert_eq!(read.canonical_json(), text, "{spec}");
        assert!(check_task(text));
        let pretty = task.to_json().to_string_pretty();
        let (spaced, canonical, _) = read_task(&pretty).unwrap();
        assert!(!canonical, "{spec}: a pretty rendering is not canonical");
        assert_eq!(spaced.canonical_json(), text, "{spec}");
        check_body(&inline_body(text, r#", "max_rounds": 1"#));
        // one edit and one cut: these texts run to megabytes
        check_task(&mutate_text(&mut rng, text));
        check_task(&text[..rng.random_range(0..text.len())]);
    }
}

#[test]
fn the_fixture_and_its_reordered_copy_key_alike() {
    let fixture = FIXTURE.trim_end();
    let (task, canonical, _) = read_task(fixture).unwrap();
    assert!(canonical, "the fixture is canonical");
    assert_eq!(fixture, parse_spec("eps:1:3").unwrap().canonical_json());
    let (reordered, canonical, _) = read_task(FIXTURE_REORDERED).unwrap();
    assert!(!canonical, "the reordered copy is not");
    assert_eq!(key_prefix(&reordered), key_prefix(&task));
    for text in [fixture, FIXTURE_REORDERED] {
        check_task(text);
        check_body(&inline_body(text, r#", "max_rounds": 1"#));
    }
}

#[test]
fn truncation_at_every_byte_reads_alike() {
    let fixture = FIXTURE.trim_end();
    let body = inline_body(fixture, r#", "max_rounds": 1, "wait": false"#);
    for at in 0..fixture.len() {
        check_task(&fixture[..at]);
    }
    for at in 0..=body.len() {
        check_body(&body[..at]);
    }
    for body in TEST_BODIES {
        for at in 0..=body.len() {
            if body.is_char_boundary(at) {
                check_body(&body[..at]);
            }
        }
    }
}

#[test]
fn seeded_mutations_read_alike() {
    let mut rng = Rng::seed_from_u64(0x5eed_d1ff);
    let mut decoded = 0;
    let mut total = 0;
    let mut texts: Vec<String> = SMALL_SPECS
        .iter()
        .map(|s| parse_spec(s).unwrap().canonical_json().to_string())
        .collect();
    texts.push(FIXTURE.trim_end().to_string());
    texts.push(FIXTURE_REORDERED.to_string());
    for text in &texts {
        let tree = Json::parse(text).unwrap();
        for _ in 0..200 {
            let mut mutated = tree.clone();
            for _ in 0..rng.random_range(1usize..3) {
                mutated = mutate_tree(&mut rng, &mutated);
            }
            let rendered = if rng.random_bool(0.5) {
                mutated.to_string()
            } else {
                mutated.to_string_pretty()
            };
            let edited = if rng.random_bool(0.4) {
                mutate_text(&mut rng, &rendered)
            } else {
                rendered
            };
            total += 1;
            if check_task(&edited) {
                decoded += 1;
            }
            if rng.random_bool(0.2) {
                let rest = *rng
                    .choose(&[
                        r#", "max_rounds": 1"#,
                        r#", "max_rounds": 1.0, "budget": 7"#,
                        r#", "spec": "eps:1:3""#,
                        r#", "task": 5, "jobs": -1"#,
                        r#", "wait": 1"#,
                        "",
                    ])
                    .unwrap();
                check_body(&inline_body(&edited, rest));
            }
        }
    }
    // the corpus exercises both sides: decodable variants and refusals
    assert!(
        decoded > total / 10 && decoded < total * 9 / 10,
        "{decoded}/{total}"
    );
}

#[test]
fn question_bodies_read_alike() {
    let mut rng = Rng::seed_from_u64(0x5eed_b0d7);
    let fixture = FIXTURE.trim_end();
    let mut bodies: Vec<String> = TEST_BODIES.iter().map(|b| b.to_string()).collect();
    bodies.push(inline_body(fixture, r#", "max_rounds": 1"#));
    bodies.push(inline_body(FIXTURE_REORDERED, r#", "max_rounds": 2"#));
    let wide = {
        let simplex = Complex::standard_simplex(WIDTH_LIMIT);
        let full = Simplex::new(simplex.vertex_ids());
        let mut b = TaskBuilder::new("wide", simplex.clone(), simplex);
        b.allow(full.clone(), full);
        b.build().unwrap()
    };
    bodies.push(inline_body(wide.canonical_json(), r#", "max_rounds": 0"#));
    for body in bodies.clone() {
        check_body(&body);
        let Ok(tree) = Json::parse(&body) else {
            continue;
        };
        for _ in 0..40 {
            let mutated = mutate_tree(&mut rng, &tree);
            check_body(&mutated.to_string());
            check_body(&mutate_text(&mut rng, &mutated.to_string_pretty()));
        }
    }
    // batches of all of them, with members around the array
    for _ in 0..40 {
        let picked: Vec<&str> = (0..rng.random_range(0usize..6))
            .map(|_| rng.choose(&bodies).unwrap().as_str())
            .filter(|b| Json::parse(b).is_ok())
            .collect();
        let around = *rng
            .choose(&["", r#""spec": "eps:1:3", "#, r#""task": {"name": 1}, "#])
            .unwrap();
        let batch = format!(
            r#"{{{around}"questions": [{}], "max_rounds": 1}}"#,
            picked.join(", ")
        );
        check_body(&batch);
        check_body(&batch.replace(", ", ",\n "));
    }
    // spec questions agree with the key a task's JSON gives
    let by_spec = read_question(r#"{"spec": "eps:1:3", "max_rounds": 1}"#).unwrap();
    assert_eq!(resolved(by_spec).unwrap().0, "spec eps:1:3");
    let inline_text = inline_body(fixture, "");
    let inline = read_question(&inline_text).unwrap();
    let prefix = key_prefix(&parse_spec("eps:1:3").unwrap());
    assert_eq!(resolved(inline).unwrap().0, format!("task {prefix:016x}"));
}

/// The spans of the integers of `text` that are array items, each with
/// the span of the array holding it.
fn array_items(text: &str) -> Vec<((usize, usize), (usize, usize))> {
    let bytes = text.as_bytes();
    let mut opens: Vec<usize> = Vec::new();
    let mut items = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => opens.push(i),
            b']' => {
                opens.pop();
            }
            b'0'..=b'9' if i > 0 && matches!(bytes[i - 1], b'[' | b',') => {
                let end = (i..bytes.len())
                    .find(|&j| !bytes[j].is_ascii_digit())
                    .unwrap_or(bytes.len());
                let close = (end..bytes.len()).find(|&j| bytes[j] == b']');
                if let (Some(&open), Some(b']' | b','), Some(close)) =
                    (opens.last(), bytes.get(end), close)
                {
                    items.push(((i, end), (open, close + 1)));
                }
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    items
}

/// `text` with one seeded edit aimed at the compact reading of integer
/// arrays (simplices and labels): a number written another way (leading
/// zero, `-0`, `1e0`, `1.0`, 16 digits) or out of its range (an id past
/// `u32`, a label byte past `u8`), whitespace inside the array, the array
/// emptied, its ids unsorted or repeated, a face of a facet listed as a
/// facet too, the text cut, or the array nested to the depth limit.
fn mutate_compact(rng: &mut Rng, text: &str) -> String {
    let items = array_items(text);
    let Some(&((start, end), (open, close))) = rng.choose(&items) else {
        return text.to_string();
    };
    let n = &text[start..end];
    let array = &text[open..close];
    let splice =
        |at: (usize, usize), with: &str| format!("{}{with}{}", &text[..at.0], &text[at.1..]);
    match rng.random_range(0u32..14) {
        0 => splice((start, end), &format!("0{n}")),
        1 => splice((start, end), "-0"),
        2 => splice((start, end), &format!("{n}e0")),
        3 => splice((start, end), &format!("{n}.0")),
        4 => splice((start, end), "1000000000000000"),
        5 => splice((start, end), "4294967296"),
        6 => splice((start, end), "256"),
        7 => splice((start, end), &format!(" {n}\n")),
        8 => splice((open, close), "[]"),
        9 => {
            // the array's items reversed: unsorted ids, a reordered label
            let mut ids: Vec<&str> = array[1..array.len() - 1].split(',').collect();
            ids.reverse();
            splice((open, close), &format!("[{}]", ids.join(",")))
        }
        10 => splice((start, end), &format!("{n},{n}")),
        11 => {
            // a face of some facet listed among the facets: not an antichain
            match text.find("\"facets\":[") {
                Some(at) => {
                    let at = at + "\"facets\":[".len();
                    format!("{}[{n}],{}", &text[..at], &text[at..])
                }
                None => text.to_string(),
            }
        }
        12 => text[..rng.random_range(0..text.len())].to_string(),
        _ => {
            // the depth limit (128 containers) falls inside the array
            let depth = rng.random_range(118usize..132);
            splice(
                (open, close),
                &format!("{}{array}{}", "[".repeat(depth), "]".repeat(depth)),
            )
        }
    }
}

#[test]
fn compact_array_edits_read_alike() {
    let mut rng = Rng::seed_from_u64(0x5eed_a7a7);
    let mut texts: Vec<String> = SMALL_SPECS
        .iter()
        .chain(&["eps:1:64", "eps:2:2", "kset:3:3"])
        .map(|s| parse_spec(s).unwrap().canonical_json().to_string())
        .collect();
    texts.push(FIXTURE.trim_end().to_string());
    let (mut decoded, mut total) = (0, 0);
    for text in &texts {
        for _ in 0..150 {
            let mut edited = mutate_compact(&mut rng, text);
            if rng.random_bool(0.3) {
                edited = mutate_compact(&mut rng, &edited);
            }
            total += 1;
            if check_task(&edited) {
                decoded += 1;
            }
            if rng.random_bool(0.2) {
                check_body(&inline_body(&edited, r#", "max_rounds": 1"#));
            }
        }
    }
    // the edits reach both sides: decodable variants and refusals
    assert!(
        decoded > total / 10 && decoded < total * 9 / 10,
        "{decoded}/{total}"
    );
}
