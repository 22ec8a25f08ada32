//! The traced run: the per-layer metrics.
//!
//! The end-to-end metrics come from the untraced run; this run sends the
//! same question stream again and times each layer from outside, around
//! the calls each module exposes:
//!
//! - **Gateway.** An in-process `iis_cluster::Gateway` routes the stream
//!   to the real shard processes through [`SpanTransport`], a
//!   span-recording wrapper around `HttpTransport`. Each client request is
//!   one `gateway.solve` span; each upstream call is a `transport.post`
//!   child span. The stream runs once without spans and once with them;
//!   the throughput difference is `trace.overhead_pct`.
//! - **Shards.** Shard-internal layers are timed by replaying the stream's
//!   questions through the public calls a shard makes, in the same order:
//!   warm `parse_spec` → `cache_key` → `Store::get` → `Json::parse` →
//!   `report_from_json` → render; cold `Task::from_json` → `cache_key` →
//!   `Store::get` → `solve_up_to_opts` → `report_to_json` → `Store::put`
//!   → render.
//! - **Counters** (tower and template memo hits, search nodes, cache hits)
//!   are deltas of the shards' own `/metrics` over the traced phase.
//!
//! Spans stay in memory and are written as JSONL when the run ends. The
//! share of the traced latency no span accounts for is reported as
//! `trace.unaccounted_us` / `trace.unaccounted_pct`, not hidden.

use crate::drive::{drive, median, Plan, Reply};
use crate::fleet::{delta, fresh_dir, parse_scrape, prefill, Fleet, Scrape};
use crate::oracle::{serve_options, Oracle};
use crate::report::{self, Metrics, RunResult};
use crate::workload::Workload;
use iis_cluster::{
    merge_prometheus, Gateway, GatewayConfig, HttpTransport, Transport, TransportError,
    TransportResponse,
};
use iis_core::cache::{cache_key, report_from_json, report_to_json};
use iis_core::solvability::solve_up_to_opts;
use iis_obs::json::FromJson as _;
use iis_obs::metrics::Counter;
use iis_obs::{Json, ToJson as _};
use iis_store::Store;
use iis_tasks::library::parse_spec;
use iis_tasks::Task;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client requests whose JSON texts are kept for the parse/render replay.
const CAPTURED_REQUESTS: u64 = 256;

/// `Store::open` repetitions behind `store.open_ms`.
const STORE_OPENS: usize = 5;

/// `/healthz` round trips behind `obs.http.rtt_us`.
const RTT_SAMPLES: usize = 400;

/// The deadline `iis gateway` gives its transport by default.
const TRANSPORT_DEADLINE: Duration = Duration::from_secs(10);

/// One recorded span.
struct Span {
    id: u64,
    name: &'static str,
    /// The client request (sequence number) the span belongs to.
    request: u64,
    parent: Option<u64>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// An upstream call's texts, kept for the JSON replay.
struct Capture {
    body: String,
    reply: String,
}

/// The in-memory span sink.
struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    captures: Mutex<Vec<Capture>>,
    /// Requests below this sequence number have their texts captured.
    capture_below: AtomicU64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            captures: Mutex::new(Vec::new()),
            capture_below: AtomicU64::new(0),
        }
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Runs `f` under a span named `name` for `request`.
    fn time<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Span {
            id: self.id(),
            name,
            request,
            parent: None,
            start,
            end,
        });
        out
    }
}

thread_local! {
    /// `(request, span id)` of the gateway call running on this thread.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// The single client's current `(request, span id)`, for the gateway's
/// batch helper threads, which carry no thread-local context.
static ACTIVE: Mutex<Option<(u64, u64)>> = Mutex::new(None);

/// `HttpTransport` with a `transport.post` span around every upstream
/// call, parented to the gateway call that made it.
struct SpanTransport {
    inner: HttpTransport,
    rec: Arc<Recorder>,
}

impl Transport for SpanTransport {
    fn get(&self, shard: &str, path: &str) -> Result<TransportResponse, TransportError> {
        self.inner.get(shard, path)
    }

    fn post(
        &self,
        shard: &str,
        path: &str,
        body: &str,
    ) -> Result<TransportResponse, TransportError> {
        let ctx = CURRENT
            .get()
            .or_else(|| *ACTIVE.lock().expect("context lock poisoned"));
        let start = self.rec.now();
        let reply = self.inner.post(shard, path, body);
        let end = self.rec.now();
        let (request, parent) = ctx.unzip();
        let request = request.unwrap_or(u64::MAX);
        self.rec.push(Span {
            id: self.rec.id(),
            name: "transport.post",
            request,
            parent,
            start,
            end,
        });
        if let Ok(r) = &reply {
            if request < self.rec.capture_below.load(Ordering::Relaxed) {
                self.rec
                    .captures
                    .lock()
                    .expect("capture sink poisoned")
                    .push(Capture {
                        body: body.to_string(),
                        reply: r.body.clone(),
                    });
            }
        }
        reply
    }
}

/// `POST /solve` as `iis gateway` handles it: a `{"questions": […]}`
/// body scatter-gathers, anything else relays as one question.
fn gateway_reply(gateway: &Gateway, body: &str) -> (u16, String) {
    if let Ok(v) = Json::parse(body) {
        if let Some(Json::Arr(questions)) = v.get("questions") {
            return (200, gateway.solve_batch(questions));
        }
    }
    gateway.solve_one(body)
}

fn new_gateway(transport: Arc<dyn Transport>, backends: Vec<String>) -> Gateway {
    // the `iis gateway` defaults
    let g = Gateway::new(
        transport,
        GatewayConfig {
            backends,
            replicas: 2,
            workers: 4,
        },
    );
    g.probe();
    g
}

/// Every shard's `/metrics`, summed.
fn scrape_shards(transport: &dyn Transport, backends: &[String]) -> Result<Scrape, String> {
    let mut texts = Vec::new();
    for b in backends {
        let r = transport.get(b, "/metrics")?;
        if r.status != 200 {
            return Err(format!("scrape {b}: status {}", r.status));
        }
        texts.push(r.body);
    }
    Ok(parse_scrape(&merge_prometheus(&texts)))
}

/// Microseconds `f` takes.
fn micros(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-layer call timings from the shard replay, in microseconds.
#[derive(Default)]
struct Replay {
    calls: BTreeMap<&'static str, Vec<f64>>,
    questions: u64,
}

impl Replay {
    fn median(&self, layer: &str) -> f64 {
        self.calls.get(layer).map_or(0.0, |v| median(v))
    }

    fn per_question(&self, layer: &str) -> f64 {
        let total: f64 = self.calls.get(layer).map_or(0.0, |v| v.iter().sum());
        total / self.questions.max(1) as f64
    }
}

/// Times `f` as one call of `layer` and records its span.
fn timed<T>(
    replay: &mut Replay,
    rec: &Recorder,
    layer: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = rec.time(layer, request, f);
    replay
        .calls
        .entry(layer)
        .or_default()
        .push(start.elapsed().as_secs_f64() * 1e6);
    out
}

/// Replays `passes` whole passes of `plan` from `first` through the
/// shard-side calls.
fn replay_shard(
    plan: &Plan<'_>,
    first: u64,
    passes: u64,
    store: &mut Store,
    rec: &Recorder,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let oracle = plan.oracle();
    let tower_builds = Counter::handle("cache.tower_builds");
    for seq in first..first + passes * plan.pass_len() {
        if plan.workload() == Workload::ColdUnique {
            let (i, name) = plan.cold_question(seq);
            let shape = &oracle.cold[i];
            let v = Json::parse(&plan.body(seq)).map_err(|e| e.to_string())?;
            let task_json = v.get("task").ok_or("cold body without a task")?;
            let task = timed(&mut r, rec, "tasks.build", seq, || {
                Task::from_json(task_json)
            })
            .map_err(|e| e.to_string())?;
            let b = shape.shape.max_rounds;
            let key = timed(&mut r, rec, "core.cache.key", seq, || cache_key(&task, b));
            // the shard looks the key up at admission and again in the sweep
            for _ in 0..2 {
                let got = timed(&mut r, rec, "store.get", seq, || store.get(key));
                if !matches!(got, Ok(None)) {
                    return Err("a cold key was already stored".to_string());
                }
            }
            let report = timed(&mut r, rec, "core.solvability.solve", seq, || {
                solve_up_to_opts(&task, b, &serve_options())
            });
            let (result, text) = timed(&mut r, rec, "core.cache.encode", seq, || {
                let j = report_to_json(&report);
                let t = j.to_string();
                (j, t)
            });
            timed(&mut r, rec, "store.put", seq, || store.put(key, &text))
                .map_err(|e| e.to_string())?;
            let reply = timed(&mut r, rec, "obs.json.render", seq, || {
                Json::obj([
                    ("cached", Json::Bool(false)),
                    ("job", Json::Num(1.0)),
                    ("key", Json::Str(format!("{key:016x}"))),
                    ("result", result),
                ])
                .to_string()
            });
            if !shape.accepts(&name, &reply) {
                return Err(format!("replayed cold answer for {name} is wrong"));
            }
            r.questions += 1;
        } else {
            for &d in plan.warm_draws(seq) {
                let k = &oracle.warm[d];
                let task = timed(&mut r, rec, "tasks.build", seq, || {
                    parse_spec(&k.shape.spec)
                })?;
                let key = timed(&mut r, rec, "core.cache.key", seq, || {
                    cache_key(&task, k.shape.max_rounds)
                });
                let text = timed(&mut r, rec, "store.get", seq, || store.get(key))
                    .map_err(|e| e.to_string())?
                    .ok_or("a warm key is missing from the store")?;
                let json = timed(&mut r, rec, "obs.json.parse", seq, || Json::parse(&text))
                    .map_err(|e| e.to_string())?;
                let builds = tower_builds.get();
                timed(&mut r, rec, "core.cache.revalidate", seq, || {
                    report_from_json(&task, &json)
                })?;
                if tower_builds.get() > builds {
                    // the memo missed: time the rebuild on its own as well
                    let wb = json
                        .get("witness")
                        .and_then(|w| w.get("b"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as usize;
                    timed(&mut r, rec, "topology.tower_build", seq, || {
                        iis_topology::arena::arena_sds_tower(task.input(), wb)
                    });
                }
                let reply = timed(&mut r, rec, "obs.json.render", seq, || {
                    Json::obj([
                        ("cached", Json::Bool(true)),
                        ("key", Json::Str(format!("{key:016x}"))),
                        ("result", json),
                    ])
                    .to_string()
                });
                if reply != k.reply {
                    return Err(format!("replayed warm answer for {:?} is wrong", k.shape));
                }
                if plan.workload() == Workload::WarmBatch {
                    // the batch envelope re-reads each single answer
                    timed(&mut r, rec, "obs.json.parse", seq, || Json::parse(&reply))
                        .map_err(|e| e.to_string())?;
                }
                r.questions += 1;
            }
        }
    }
    Ok(r)
}

/// JSON parse and render time per question over the texts the fleet
/// handled for the captured requests, counted as often as the code paths
/// handle them: the gateway parses a single-question body twice (route,
/// then key) and a batch body once; a shard parses a single-question body
/// twice and a batch body once; the gateway parses every upstream reply
/// once and renders its own reply once; a batch shard renders its
/// envelope and the gateway renders each upstream batch body.
fn json_replay(
    clients: &[(u64, String, String)],
    posts: &[Capture],
    plan: &Plan<'_>,
) -> (f64, f64) {
    let parse = |text: &str| micros(|| drop(std::hint::black_box(Json::parse(text))));
    let render = |text: &str| match Json::parse(text) {
        Ok(v) => micros(|| drop(std::hint::black_box(v.to_string()))),
        Err(_) => 0.0,
    };
    let batch = plan.workload() == Workload::WarmBatch;
    let (mut p, mut r, mut questions) = (0.0, 0.0, 0u64);
    for (seq, body, reply) in clients {
        questions += plan.questions(*seq) as u64;
        p += parse(body) * if batch { 1.0 } else { 2.0 };
        r += render(reply);
    }
    for c in posts {
        let batch_post = c.body.contains("\"questions\"");
        p += parse(&c.body) * if batch_post { 1.0 } else { 2.0 };
        p += parse(&c.reply);
        if batch_post {
            r += render(&c.reply) + render(&c.body);
        }
    }
    let q = questions.max(1) as f64;
    (p / q, r / q)
}

/// Self time of each gateway span: its duration minus the part of it
/// that its `transport.post` children cover.
fn gateway_self_us(spans: &[Span]) -> f64 {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "transport.post") {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "gateway.solve")
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort();
            let (mut covered, mut reach) = (Duration::ZERO, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start - covered).as_secs_f64() * 1e6
        })
        .sum()
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
    );
    for s in spans {
        let line = Json::obj([
            ("span", s.id.to_json()),
            ("name", Json::Str(s.name.to_string())),
            ("request", s.request.to_json()),
            ("parent", s.parent.map_or(Json::Null, |p| p.to_json())),
            ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
            ("end_us", Json::Num(s.end.as_secs_f64() * 1e6)),
        ]);
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// The traced run: per-layer metrics for `workload` under `seed`.
///
/// # Errors
///
/// Fleet, store or oracle failures.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    oracle: &Oracle,
    root: &Path,
) -> Result<RunResult, String> {
    let stores: Vec<PathBuf> = (0..2).map(|i| work.join(format!("shard-{i}"))).collect();
    let replay_dir = work.join("replay");
    if workload.warm() {
        prefill(&[stores.clone(), vec![replay_dir.clone()]].concat(), oracle)?;
    } else {
        for dir in stores.iter().chain([&replay_dir]) {
            fresh_dir(dir)?;
        }
    }
    // the in-process gateway's own counters (http client reuse) must record
    iis_obs::set_enabled(true);
    let fleet = Fleet::launch(&stores, false)?;
    let backends = fleet.backends();
    let rec = Arc::new(Recorder::new());
    let phases = (|| {
        let plain: Arc<HttpTransport> = Arc::new(HttpTransport::new(TRANSPORT_DEADLINE));
        let traced = Arc::new(SpanTransport {
            inner: HttpTransport::new(TRANSPORT_DEADLINE),
            rec: Arc::clone(&rec),
        });
        let g_plain = new_gateway(plain.clone(), backends.clone());
        let g_traced = new_gateway(traced, backends.clone());
        let plan = Plan::new(workload, oracle, seed);
        let clients = workload.clients();
        let send_plain =
            |_: usize, _: u64, body: &str| -> Reply { Ok(gateway_reply(&g_plain, body)) };
        let captured: Mutex<Vec<(u64, String, String)>> = Mutex::new(Vec::new());
        let send_traced = |_: usize, seq: u64, body: &str| -> Reply {
            let span = rec.id();
            CURRENT.set(Some((seq, span)));
            if clients == 1 {
                *ACTIVE.lock().expect("context lock poisoned") = Some((seq, span));
            }
            let start = rec.now();
            let (status, reply) = gateway_reply(&g_traced, body);
            let end = rec.now();
            CURRENT.set(None);
            rec.push(Span {
                id: span,
                name: "gateway.solve",
                request: seq,
                parent: None,
                start,
                end,
            });
            if seq < rec.capture_below.load(Ordering::Relaxed) {
                let mut c = captured.lock().expect("capture sink poisoned");
                c.push((seq, body.to_string(), reply.clone()));
            }
            Ok((status, reply))
        };
        let third = workload.passes(seconds / 3.0);
        let warm = drive(
            &Plan::warmup(workload, oracle, seed),
            clients,
            0,
            1,
            send_plain,
        );
        let first = plan.next_pass(warm.next_seq);
        let untraced = drive(&plan, clients, first, third, send_plain);
        // prime the traced gateway's connection pool; its spans are dropped
        let primed = drive(
            &Plan::warmup(workload, oracle, seed),
            clients,
            untraced.next_seq,
            1,
            send_traced,
        );
        let first = plan.next_pass(primed.next_seq);
        rec.capture_below
            .store(first + CAPTURED_REQUESTS, Ordering::Relaxed);
        rec.spans.lock().expect("span sink poisoned").clear();
        let before = scrape_shards(plain.as_ref(), &backends)?;
        let local_before = iis_obs::snapshot();
        let traced_out = drive(&plan, clients, first, third, send_traced);
        let local_after = iis_obs::snapshot();
        let after = scrape_shards(plain.as_ref(), &backends)?;
        let rtt: Vec<f64> = (0..RTT_SAMPLES)
            .map(|i| micros(|| drop(plain.get(&backends[i % backends.len()], "/healthz"))))
            .collect();
        let captured = captured.into_inner().expect("capture sink poisoned");
        Ok::<_, String>((
            plan,
            warm,
            untraced,
            traced_out,
            before,
            after,
            local_before,
            local_after,
            rtt,
            captured,
        ))
    })();
    fleet.stop();
    let (plan, warm, untraced, traced_out, before, after, local_before, local_after, rtt, captured) =
        phases?;

    // shard-side replay on a store of the workload's own shape
    let mut open_ms = Vec::new();
    for _ in 0..STORE_OPENS {
        let t = Instant::now();
        drop(Store::open(&replay_dir).map_err(|e| format!("open replay store: {e}"))?);
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut store = Store::open(&replay_dir).map_err(|e| format!("open replay store: {e}"))?;
    let replay_first = plan.next_pass(traced_out.next_seq);
    let replay = replay_shard(
        &plan,
        replay_first,
        workload.passes(seconds / 3.0),
        &mut store,
        &rec,
    )?;

    let spans = std::mem::take(&mut *rec.spans.lock().expect("span sink poisoned"));
    let posts: Vec<Capture> =
        std::mem::take(&mut *rec.captures.lock().expect("capture sink poisoned"));
    let (parse_q, render_q) = json_replay(&captured, &posts, &plan);

    let q = traced_out.questions.max(1) as f64;
    let d = |name: &str| delta(&before, &after, name);
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let local = |name: &str| {
        let get = |s: &iis_obs::Snapshot| s.counters.get(name).copied().unwrap_or(0) as f64;
        get(&local_after) - get(&local_before)
    };
    let gw_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "gateway.solve").collect();
    let post_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "transport.post")
        .map(Span::us)
        .collect();
    let rtt_us = median(&rtt);
    let upstream_per_q = post_us.len() as f64 / q;
    let e2e_per_q = gw_spans.iter().map(|s| s.us()).sum::<f64>() / q;
    let shard_layers_per_q: f64 = [
        "tasks.build",
        "core.cache.key",
        "store.get",
        "obs.json.parse",
        "core.cache.revalidate",
        "core.solvability.solve",
        "core.cache.encode",
        "store.put",
        "obs.json.render",
    ]
    .iter()
    .map(|l| replay.per_question(l))
    .sum();
    let unaccounted_us =
        post_us.iter().sum::<f64>() / q - rtt_us * upstream_per_q - shard_layers_per_q;
    let untraced_qps = untraced.questions as f64 / untraced.elapsed_s;
    let traced_qps = traced_out.questions as f64 / traced_out.elapsed_s;

    let mut m = Metrics::default();
    m.put("obs.http.rtt_us", rtt_us, "us");
    m.put(
        "obs.http.reuse_ratio",
        ratio(
            local("http.client_reused"),
            local("http.client_requests") - local("http.client_reused"),
        ),
        "ratio",
    );
    m.put("cluster.gateway.self_us", gateway_self_us(&spans) / q, "us");
    m.put("cluster.gateway.upstream_per_q", upstream_per_q, "count");
    m.put("cli.serve.service_us", median(&post_us) - rtt_us, "us");
    m.put(
        "cli.serve.hit_ratio",
        d("serve_cache_hits_total") / q,
        "ratio",
    );
    m.put("tasks.build_us", replay.median("tasks.build"), "us");
    m.put("core.cache.key_us", replay.median("core.cache.key"), "us");
    m.put(
        "core.cache.revalidate_us",
        replay.median("core.cache.revalidate"),
        "us",
    );
    m.put(
        "core.cache.tower_hit_ratio",
        ratio(d("cache_tower_hits_total"), d("cache_tower_builds_total")),
        "ratio",
    );
    m.put(
        "topology.tower_build_us",
        replay.median("topology.tower_build"),
        "us",
    );
    m.put(
        "topology.template_hit_ratio",
        ratio(d("sds_template_hits_total"), d("sds_template_builds_total")),
        "ratio",
    );
    m.put(
        "core.solvability.solve_ms",
        replay.median("core.solvability.solve") / 1e3,
        "ms",
    );
    m.put(
        "core.solvability.nodes_per_q",
        d("solve_nodes_total") / q,
        "count",
    );
    m.put(
        "core.solvability.propagations_per_q",
        d("solve_propagations_total") / q,
        "count",
    );
    m.put(
        "core.cache.encode_us",
        replay.median("core.cache.encode"),
        "us",
    );
    m.put("store.get_us", replay.median("store.get"), "us");
    m.put("store.put_us", replay.median("store.put"), "us");
    m.put("store.open_ms", median(&open_ms), "ms");
    m.put(
        "obs.json.parse_us",
        parse_q + replay.per_question("obs.json.parse"),
        "us",
    );
    m.put(
        "obs.json.render_us",
        render_q + replay.per_question("obs.json.render"),
        "us",
    );
    m.put(
        "trace.overhead_pct",
        (untraced_qps - traced_qps) / untraced_qps * 100.0,
        "%",
    );
    m.put("trace.unaccounted_us", unaccounted_us, "us");
    m.put(
        "trace.unaccounted_pct",
        unaccounted_us / e2e_per_q * 100.0,
        "%",
    );

    let trace_path = root
        .join(".perfbench")
        .join(format!("trace-{}-{seed}.jsonl", workload.name()));
    write_spans(&trace_path, &spans)?;

    let self_per_q: Vec<(String, Json)> = replay
        .calls
        .keys()
        .map(|l| (l.to_string(), Json::Num(replay.per_question(l))))
        .collect();
    let attempted = untraced.questions + traced_out.questions;
    let failed = warm.failed + untraced.failed + traced_out.failed;
    let report = Json::obj([
        ("workload", Json::Str(workload.name().to_string())),
        ("seed", seed.to_json()),
        ("mode", Json::Str("traced".into())),
        ("host", report::host(root)),
        ("generator", report::generator(workload.clients())),
        ("traced_questions", traced_out.questions.to_json()),
        ("untraced_qps", Json::Num(untraced_qps)),
        ("traced_qps", Json::Num(traced_qps)),
        ("traced_us_per_q", Json::Num(e2e_per_q)),
        ("replayed_questions", replay.questions.to_json()),
        ("shard_self_us_per_q", Json::Obj(self_per_q)),
        ("spans", spans.len().to_json()),
        ("trace_file", Json::Str(trace_path.display().to_string())),
        (
            "first_failure",
            warm.first_failure
                .or(untraced.first_failure)
                .or(traced_out.first_failure)
                .map_or(Json::Null, Json::Str),
        ),
    ]);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        report,
    })
}
