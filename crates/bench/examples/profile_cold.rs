//! Component-level timing of a cold `iis serve` question, the sibling of
//! `profile_warm`: for each of perfbench's nine cold shapes, asked inline
//! under a fresh task name as perfbench asks them, the body size and the
//! median time of
//!
//! - `read`: reading the question once — body, task decode and key — as
//!   each hop does it (the gateway and the shard both pay it);
//! - `search`: the round sweep;
//! - `distance`: the distance pass alone (part of `search`: its first
//!   step runs it);
//! - `cert`: the Sperner certificate search alone (part of `search` once
//!   round 0 is refuted), and whether it found one (`certified`);
//! - `encode`: rendering the canonical record;
//! - `put`: appending the record to a store;
//! - `compile`: the compile alone (the class tables and the kernel's
//!   arrays) of the last round the sweep searched — its solvable round
//!   when it has one — read from that round's `compile` profile span over
//!   sweeps of fresh [`KeyedTask`]s; `-` when no round is searched;
//! - `rounds`: the sweep split by round, each [`Solver::step`] timed on
//!   its own with a fresh [`KeyedTask`], as `b:decider:µs`, the decider
//!   named by the sweep's report — `d` for a round the distance pass
//!   refuted (round 0's time includes the pass), `c` for one the
//!   certificate refuted (its first includes the certificate search; the
//!   distance pass is asked first), `s` for one the search decided.
//!
//! Not a calibrated benchmark — a quick probe for attributing the cold
//! latency budget. Run with
//! `cargo run --release -p iis-bench --example profile_cold`.

use iis_core::cache::{read_solve_body, report_to_json, KeyedTask, QuestionTask, SolveBody};
use iis_core::certificate::find_certificate;
use iis_core::distance::Distances;
use iis_core::solvability::{solve_up_to_opts, SolveOptions, Solver};
use iis_obs::{Json, ToJson};
use iis_store::Store;
use iis_tasks::library::parse_spec;
use std::time::Instant;

/// The nine cold shapes of perfbench's `cold_unique` workload.
const SHAPES: [(&str, usize); 9] = [
    ("consensus:1", 2),
    ("consensus:1", 3),
    ("kset:2:2", 1),
    ("consensus:2", 1),
    ("eps:1:64", 3),
    ("eps:1:9", 2),
    ("eps:1:27", 3),
    ("oneshot:2", 1),
    ("eps:2:2", 2),
];

/// Repetitions per shape and stage.
const REPS: usize = 200;

/// The median of `REPS` timings of `f`, in microseconds.
fn median_us<T>(mut f: impl FnMut(usize) -> T) -> f64 {
    let mut us: Vec<f64> = (0..REPS)
        .map(|i| {
            let t0 = Instant::now();
            std::hint::black_box(f(i));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[REPS / 2]
}

/// A cold question body: the shape's task under `name`, as perfbench
/// renders it.
fn body(spec: &str, max_rounds: usize, name: &str) -> String {
    let mut task = parse_spec(spec).expect("library spec").to_json();
    if let Json::Obj(fields) = &mut task {
        fields[0] = ("name".to_string(), Json::Str(name.to_string()));
    }
    Json::obj([("task", task), ("max_rounds", max_rounds.to_json())]).to_string()
}

/// One hop's reading of a question: the keyed task and its bound.
fn read_hop(body: &str) -> (KeyedTask, usize) {
    let Ok(SolveBody::One(q)) = read_solve_body(body) else {
        panic!("a single question");
    };
    let q = q
        .resolve(|task| match task {
            QuestionTask::Inline(keyed) => Ok(*keyed),
            QuestionTask::Spec(_) => Err("an inline task".to_string()),
        })
        .expect("a valid question");
    (q.task, q.max_rounds)
}

/// The median time of each round of a sweep of `task` to `max_rounds`,
/// each [`Solver::step`] timed alone on a fresh [`KeyedTask`], as
/// `b:decider:µs` entries: the decider's initial, as one sweep's report
/// names it (`SolvabilityReport::deciders`).
fn round_split(task: &iis_tasks::Task, max_rounds: usize, opts: &SolveOptions) -> String {
    let report = solve_up_to_opts(task, max_rounds, opts);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); report.deciders().len()];
    for _ in 0..REPS {
        let keyed = KeyedTask::new(task.clone());
        let mut solver = Solver::new(&keyed, *opts);
        for us in &mut times {
            let t0 = Instant::now();
            let _outcome = solver.step();
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let entries: Vec<String> = times
        .iter_mut()
        .zip(report.deciders())
        .enumerate()
        .map(|(b, (us, decider))| {
            us.sort_by(f64::total_cmp);
            let initial = &decider.name()[..1];
            format!("{b}:{initial}:{:.1}", us[us.len() / 2])
        })
        .collect();
    entries.join(" ")
}

/// The median compile time, in microseconds, of the last round a sweep
/// of `task` to `max_rounds` searches, over sweeps of fresh
/// [`KeyedTask`]s (each [`solve_up_to_opts`] keys the task anew): the
/// `round:b;compile` profile span of the largest `b`.
fn compile_us(task: &iis_tasks::Task, max_rounds: usize, opts: &SolveOptions) -> Option<f64> {
    let mut us: Vec<f64> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        iis_obs::profile::reset();
        iis_obs::profile::set_enabled(true);
        solve_up_to_opts(task, max_rounds, opts);
        iis_obs::profile::set_enabled(false);
        let last = iis_obs::profile::fold()
            .into_iter()
            .filter_map(|(path, (ns, _))| {
                let b = path.strip_prefix("round:")?.strip_suffix(";compile")?;
                Some((b.parse::<usize>().ok()?, ns))
            })
            .max();
        us.extend(last.map(|(_, ns)| ns as f64 / 1e3));
    }
    us.sort_by(f64::total_cmp);
    (!us.is_empty()).then(|| us[us.len() / 2])
}

fn main() {
    iis_topology::template::prewarm(5);
    let dir = std::env::temp_dir().join(format!("iis_profile_cold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir).expect("open store");
    let opts = SolveOptions::new().budget(1_000_000);
    println!(
        "{:<16} {:>7} {:>9} {:>9} {:>10} {:>11} {:>9} {:>9} {:>9} {:>9}  rounds (b:decider:us)",
        "shape",
        "bytes",
        "read_us",
        "search_us",
        "compile_us",
        "distance_us",
        "cert_us",
        "certified",
        "encode_us",
        "put_us"
    );
    let (mut read_sum, mut search_sum, mut rest_sum) = (0.0, 0.0, 0.0);
    for (n, &(spec, b)) in SHAPES.iter().enumerate() {
        let bodies: Vec<String> = (0..REPS)
            .map(|i| body(spec, b, &format!("cold-{n}-{i}")))
            .collect();
        let read = median_us(|i| read_hop(&bodies[i]));
        let (keyed, max_rounds) = read_hop(&bodies[0]);
        let search = median_us(|_| solve_up_to_opts(keyed.task(), max_rounds, &opts));
        let distance = median_us(|_| Distances::of(keyed.task()));
        let cert = median_us(|_| find_certificate(keyed.task()));
        let certified = find_certificate(keyed.task()).is_some();
        let report = solve_up_to_opts(keyed.task(), max_rounds, &opts);
        let encode = median_us(|_| report_to_json(&report).to_string());
        let record = report_to_json(&report).to_string();
        let keys: Vec<u64> = bodies
            .iter()
            .map(|body| read_hop(body).0.key(max_rounds))
            .collect();
        let put = median_us(|i| store.put(keys[i], &record).expect("put"));
        let rounds = round_split(keyed.task(), max_rounds, &opts);
        let compile = compile_us(keyed.task(), max_rounds, &opts)
            .map_or_else(|| "-".to_string(), |us| format!("{us:.1}"));
        println!(
            "{:<16} {:>7} {:>9.1} {:>9.1} {:>10} {:>11.1} {:>9.1} {:>9} {:>9.1} {:>9.1}  {rounds}",
            format!("{spec}@{b}"),
            bodies[0].len(),
            read,
            search,
            compile,
            distance,
            cert,
            if certified { "yes" } else { "no" },
            encode,
            put
        );
        read_sum += read;
        search_sum += search;
        rest_sum += search + encode + put;
    }
    let shapes = SHAPES.len() as f64;
    println!(
        "mean: read {:.1} us per hop, search {:.1} us (sum {:.1}), search+encode+put {:.1} us",
        read_sum / shapes,
        search_sum / shapes,
        search_sum,
        rest_sum / shapes
    );
    let _ = std::fs::remove_dir_all(&dir);
}
