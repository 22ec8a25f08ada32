//! The gateway core: rendezvous routing of solve questions over a shard
//! fleet, batch scatter-gather, failover, and metrics aggregation.
//!
//! **Why sharding is sound at all.** Bounded solvability is a pure
//! function of `(task, max_rounds)` (Prop 3.1), and every shard's store is
//! content-addressed and first-write-wins over the same canonical record
//! encoding. So *any* replica may answer *any* question correctly; routing
//! only decides which shard's cache gets warm. A retried or failed-over
//! question returns byte-identical bytes wherever it lands — which is what
//! makes aggressive failover safe.
//!
//! **Routing.** Each question routes by its *task*: the round-independent
//! prefix of its cache key ([`question_route`], `KeyedTask::key_prefix`),
//! so every bound `b` of one task — spec or inline form — lands on one
//! replica set, and a shard interns, compiles and revalidates only its
//! own tasks. The task's replica set is the top `R` shards by rendezvous
//! (highest random weight) hashing. HRW gives minimal disruption: adding
//! or removing a shard only moves the tasks that shard owns, with no ring
//! to rebalance. Within the replica set, attempts go Ready shards first,
//! read-only (quarantine-degraded) shards next, Down shards as a last
//! resort.
//!
//! **Batching.** A batch of questions is grouped by primary shard and
//! fanned out on a bounded worker pool, one upstream `POST /solve`
//! `{"questions": […]}` call per group — so a 100-question sweep costs a
//! handful of round trips, not 100. Answers return as one array in
//! question order; per-question failures fail over individually without
//! disturbing the rest of the batch.
//!
//! **Bytes, not trees.** Answers travel as the text the shard wrote. The
//! gateway reads each *question* once, straight from its text, with the
//! shard's own reader (`iis_core::cache::read_solve_body`: it must read
//! the task to route it), but never an answer: a single reply is relayed
//! verbatim after a validity scan, a shard's batch envelope is cut into
//! `(status, body)` spans in one pass of [`iis_obs::json::Reader`], and
//! the client's envelope is spliced around those bodies by
//! [`splice_envelope`].
//! Upstream batch bodies are spliced from the question texts as the
//! client sent them.
//!
//! **Whose answer a status is.** A transport error or a 5xx is a shard
//! fault: the shard is marked and the question fails over. A 4xx —
//! including `422`, an inconclusive sweep (budget exhausted, or a tower
//! past the cap) — is the question's own answer, which every replica
//! would give alike: it is relayed as-is after one upstream call. So is a
//! `504`: the shard's deadline ran out on the search, and the question
//! is as heavy on every replica, so a failover would only spend a second
//! deadline and strike a healthy shard.

use crate::health::{HealthRegistry, ShardHealth};
use crate::transport::Transport;
use iis_core::cache::{
    finish_key, fnv1a64, read_question, read_solve_body, KeyedTask, Lru, QuestionTask,
    QuestionText, SolveBody, MAX_BATCH,
};
use iis_obs::json;
use iis_obs::{Json, ToJson as _};
use iis_tasks::library::parse_spec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Gateway configuration.
pub struct GatewayConfig {
    /// Backend shard addresses (`host:port`), the routing universe.
    pub backends: Vec<String>,
    /// Replica-set size per task (clamped to the backend count).
    pub replicas: usize,
    /// Worker threads for batch fan-out.
    pub workers: usize,
}

/// The gateway: routing + health + scatter-gather over a [`Transport`].
pub struct Gateway {
    transport: Arc<dyn Transport>,
    health: HealthRegistry,
    backends: Vec<String>,
    /// Per-shard rendezvous salt (FNV of the address), fixed at startup.
    salts: Vec<u64>,
    replicas: usize,
    workers: usize,
}

/// Whether an upstream status is a fault of the shard, which fails over:
/// a 5xx other than the deadline's `504`. Every other status answers the
/// question.
fn shard_fault(status: u16) -> bool {
    status >= 500 && status != 504
}

/// SplitMix64 finalizer: the rendezvous weight of (route, salt).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One answer as carried in a batch envelope: the per-question status plus
/// the single-question response body.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Per-question numeric status.
    pub status: u16,
    /// The single-question response body (today's `POST /solve` schema).
    pub body: Json,
}

impl Answer {
    /// Renders the batch-envelope element `{"status": N, "body": …}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("status", Json::Num(f64::from(self.status))),
            ("body", self.body.clone()),
        ])
    }
}

/// Renders a batch envelope `{"answers": […]}` from per-question answers:
/// [`splice_envelope`] over each body's compact rendering.
pub fn batch_envelope(answers: &[Answer]) -> String {
    let bodies: Vec<String> = answers.iter().map(|a| a.body.to_string()).collect();
    splice_envelope(
        answers
            .iter()
            .zip(&bodies)
            .map(|(a, body)| (a.status, body.as_str())),
    )
}

/// Writes the batch envelope `{"answers":[{"status":N,"body":…},…]}`
/// around answer bodies that are already compact JSON text — the one
/// envelope writer, used by the shards, the gateway and [`batch_envelope`].
/// Each body is copied verbatim, so the output equals rendering the same
/// envelope as a `Json` tree whenever every body is compact JSON.
pub fn splice_envelope<'a>(answers: impl IntoIterator<Item = (u16, &'a str)>) -> String {
    let mut out = String::from("{\"answers\":[");
    for (i, (status, body)) in answers.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"status\":{status},\"body\":");
        out.push_str(body);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// One answer as the gateway carries it: the status plus the body as
/// compact JSON text, never re-parsed on its way to the client.
#[derive(Clone)]
struct Reply {
    status: u16,
    body: String,
}

impl Reply {
    fn error(status: u16, msg: &str) -> Reply {
        Reply {
            status,
            body: error_body(msg),
        }
    }
}

/// `{"error": msg}`, compact.
fn error_body(msg: &str) -> String {
    Json::obj([("error", Json::Str(msg.to_string()))]).to_string()
}

/// An upstream reply body as an answer body: verbatim when it is JSON (a
/// validity scan, no tree), otherwise wrapped as a JSON string.
fn relay_body(text: String) -> String {
    if json::validate(&text).is_ok() {
        text
    } else {
        Json::Str(text).to_string()
    }
}

/// Library specs whose key prefix the gateway remembers. An entry is the
/// spec string and 64 bits, so the cap can sit far above the shards'
/// task interner and still cost only tens of KB.
const SPEC_PREFIX_CAP: usize = 1024;

/// `gateway.requests`: one per question, single or batched.
static GATEWAY_REQUESTS: iis_obs::metrics::StaticCounter =
    iis_obs::metrics::StaticCounter::new("gateway.requests");

/// `gateway.batch_requests`: one per batch-form request.
static GATEWAY_BATCH_REQUESTS: iis_obs::metrics::StaticCounter =
    iis_obs::metrics::StaticCounter::new("gateway.batch_requests");

/// `gateway.fanout`: the upstream calls a batch is scattered into — one
/// per shard, or more when a shard's share is past [`MAX_BATCH`].
static GATEWAY_FANOUT: iis_obs::metrics::StaticCounter =
    iis_obs::metrics::StaticCounter::new("gateway.fanout");

fn spec_prefixes() -> &'static Lru<String, u64> {
    static PREFIXES: OnceLock<Lru<String, u64>> = OnceLock::new();
    PREFIXES.get_or_init(|| Lru::new(SPEC_PREFIX_CAP))
}

/// The key prefix of a library spec, memoized: the task is built once to
/// find it and then dropped — routing needs 64 bits, not the task.
fn spec_prefix(spec: &str) -> Result<u64, String> {
    let prefixes = spec_prefixes();
    if let Some(prefix) = prefixes.get(spec) {
        return Ok(prefix);
    }
    let prefix = KeyedTask::new(parse_spec(spec)?).key_prefix();
    prefixes.insert(spec.to_string(), prefix);
    Ok(prefix)
}

/// The routing-relevant reading of one question: its task's key prefix
/// and its round bound. Everything else is forwarded verbatim.
///
/// The question is checked whole, in the shard's order of refusals
/// (`iis_core::cache::QuestionText::resolve`), and a spec resolves only
/// as a library spec, so a question the gateway refuses gets the message
/// the shard would have given, with no round trip.
fn question_parts(q: QuestionText<'_>) -> Result<(u64, usize), String> {
    q.resolve(|task| match task {
        QuestionTask::Spec(s) => spec_prefix(&s),
        QuestionTask::Inline(keyed) => {
            let prefix = keyed.key_prefix();
            // the task is read only to be keyed: freed once answered
            iis_obs::http::drop_after_reply(keyed);
            Ok(prefix)
        }
    })
    .map(|q| (q.task, q.max_rounds))
}

/// A question's content address: the shard's cache key for `(task,
/// max_rounds)`, computed gateway-side from the question's text.
///
/// # Errors
///
/// Returns the shard's refusal of a malformed question.
pub fn question_key(text: &str) -> Result<u64, String> {
    question_parts(read_question(text)?).map(|(prefix, b)| finish_key(prefix, b))
}

/// A question's routing value: its task's key prefix, the same for every
/// `max_rounds`. Every bound of a task therefore goes to one replica set.
/// The rest of the question is still checked, so a malformed one is
/// refused here with the shard's message and no round trip.
///
/// # Errors
///
/// As [`question_key`].
pub fn question_route(text: &str) -> Result<u64, String> {
    question_parts(read_question(text)?).map(|(prefix, _)| prefix)
}

impl Gateway {
    /// A gateway over `transport` for `cfg.backends`.
    pub fn new(transport: Arc<dyn Transport>, cfg: GatewayConfig) -> Gateway {
        // register the gateway counters at zero so a scrape before first
        // traffic still shows the full family
        for name in [
            "gateway.requests",
            "gateway.batch_requests",
            "gateway.fanout",
            "gateway.retries",
            "gateway.failovers",
            "gateway.shard_down",
            "gateway.unroutable",
        ] {
            iis_obs::metrics::Counter::handle(name);
        }
        let salts = cfg.backends.iter().map(|a| fnv1a64(a.as_bytes())).collect();
        Gateway {
            health: HealthRegistry::new(&cfg.backends),
            salts,
            replicas: cfg.replicas.clamp(1, cfg.backends.len().max(1)),
            workers: cfg.workers.max(1),
            backends: cfg.backends,
            transport,
        }
    }

    /// The backend addresses, in configuration order.
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// The health registry (the prober thread and tests drive it).
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// One `/readyz` probing pass over every shard.
    pub fn probe(&self) {
        self.health.probe_all(self.transport.as_ref());
    }

    /// The replica set of a routing value ([`question_route`]) in attempt
    /// order: top-`R` shards by rendezvous weight, then Ready before
    /// read-only before Down (stable, so the HRW order breaks ties).
    pub fn replicas_for(&self, route: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.backends.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(mix(route ^ self.salts[i])));
        order.truncate(self.replicas);
        order.sort_by_key(|&i| self.health.health_of(i).rank());
        order
    }

    /// The routing value's *owner* (rendezvous winner, health ignored) —
    /// used for the `/cluster` ownership report, not for routing.
    fn owner_of(&self, route: u64) -> Option<usize> {
        (0..self.backends.len()).max_by_key(|&i| mix(route ^ self.salts[i]))
    }

    /// Answers one question by trying its replicas in order. 4xx and
    /// `504` answers relay as-is (they answer the question — no replica
    /// will disagree); transport errors and other 5xx answers fail over to
    /// the next replica.
    fn solve_via_replicas(&self, body: &str, replicas: &[usize], skip: Option<usize>) -> Reply {
        let mut attempts = 0u32;
        for &idx in replicas {
            if Some(idx) == skip {
                continue;
            }
            if attempts > 0 {
                iis_obs::metrics::add("gateway.retries", 1);
            }
            attempts += 1;
            match self.transport.post(&self.backends[idx], "/solve", body) {
                Ok(r) if !shard_fault(r.status) => {
                    self.health.report_success(idx);
                    if attempts > 1 || skip.is_some() {
                        iis_obs::metrics::add("gateway.failovers", 1);
                    }
                    return Reply {
                        status: r.status,
                        body: relay_body(r.body),
                    };
                }
                Ok(_) | Err(_) => self.health.report_failure(idx),
            }
        }
        Reply::error(503, "no replica answered")
    }

    /// `POST /solve` as `iis gateway` serves it: a `{"questions": […]}`
    /// body scatter-gathers (the envelope status is always `200`),
    /// anything else relays as one question. The body is read once,
    /// straight from its text (`iis_core::cache::read_solve_body`), and
    /// every question travels upstream as the text the client sent.
    pub fn solve(&self, body: &str) -> (u16, String) {
        match read_solve_body(body) {
            Ok(SolveBody::One(q)) => self.relay(body, q),
            Ok(SolveBody::Batch(questions)) => {
                let questions = questions
                    .into_iter()
                    .map(|(text, q)| (text, question_parts(q).map(|(route, _)| route)))
                    .collect();
                (200, self.scatter_gather(questions))
            }
            Err(e) => {
                GATEWAY_REQUESTS.incr();
                (400, error_body(&e))
            }
        }
    }

    /// `POST /solve` with a single-question object body: route and relay,
    /// preserving the backend's schema byte-for-byte.
    pub fn solve_one(&self, body: &str) -> (u16, String) {
        match read_question(body) {
            Ok(q) => self.relay(body, q),
            Err(e) => {
                GATEWAY_REQUESTS.incr();
                (400, error_body(&e))
            }
        }
    }

    /// Routes and relays the question `body`, read as `q`.
    fn relay(&self, body: &str, q: QuestionText<'_>) -> (u16, String) {
        GATEWAY_REQUESTS.incr();
        let route = match question_parts(q) {
            Ok((route, _)) => route,
            Err(e) => return (400, error_body(&e)),
        };
        let replicas = self.replicas_for(route);
        if replicas.is_empty() {
            iis_obs::metrics::add("gateway.unroutable", 1);
            return (503, error_body("no backends configured"));
        }
        let reply = self.solve_via_replicas(body, &replicas, None);
        (reply.status, reply.body)
    }

    /// The batch form on already-parsed questions: each is rendered once
    /// to the text its upstream call carries, and read from that text.
    /// [`Gateway::solve`] takes the client's own question texts instead.
    pub fn solve_batch(&self, questions: &[Json]) -> String {
        let texts: Vec<String> = questions.iter().map(Json::to_string).collect();
        let questions = texts
            .iter()
            .map(|t| (t.as_str(), question_route(t)))
            .collect();
        self.scatter_gather(questions)
    }

    /// Scatters `(question text, routing value)` pairs by primary shard,
    /// coalesces same-shard questions into one upstream batch call, and
    /// gathers one ordered answer envelope.
    fn scatter_gather(&self, questions: Vec<(&str, Result<u64, String>)>) -> String {
        GATEWAY_BATCH_REQUESTS.incr();
        GATEWAY_REQUESTS.add(questions.len() as u64);
        let mut answers: Vec<Option<Reply>> = vec![None; questions.len()];
        // route every question; invalid ones answer 400 without a trip
        let mut routed: Vec<(usize, &str, Vec<usize>)> = Vec::new();
        for (i, (text, route)) in questions.into_iter().enumerate() {
            match route {
                Ok(route) => {
                    let replicas = self.replicas_for(route);
                    if replicas.is_empty() {
                        iis_obs::metrics::add("gateway.unroutable", 1);
                        answers[i] = Some(Reply::error(503, "no backends configured"));
                    } else {
                        routed.push((i, text, replicas));
                    }
                }
                Err(e) => answers[i] = Some(Reply::error(400, &e)),
            }
        }
        // group by primary shard, each group cut at the shard's batch cap
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, (_, _, replicas)) in routed.iter().enumerate() {
            groups.entry(replicas[0]).or_default().push(pos);
        }
        let groups: Vec<(usize, &[usize])> = groups
            .iter()
            .flat_map(|(&shard, members)| members.chunks(MAX_BATCH).map(move |c| (shard, c)))
            .collect();
        GATEWAY_FANOUT.add(groups.len() as u64);
        let answers = Mutex::new(answers);
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            let Some((shard, members)) = groups.get(g) else {
                return;
            };
            let got = self.dispatch_group(&routed, *shard, members);
            let mut slots = answers.lock().unwrap_or_else(PoisonError::into_inner);
            for (pos, answer) in members.iter().zip(got) {
                slots[routed[*pos].0] = Some(answer);
            }
        };
        // the calling thread is worker zero — a small batch (or workers=1)
        // dispatches inline with no thread spawned at all, so batching is
        // never slower than the sequential loop it replaces
        let helpers = self.workers.min(groups.len()).saturating_sub(1);
        if helpers == 0 {
            drain();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(drain);
                }
                drain();
            });
        }
        let answers: Vec<Reply> = answers
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|a| a.unwrap_or_else(|| Reply::error(500, "answer lost")))
            .collect();
        splice_envelope(answers.iter().map(|a| (a.status, a.body.as_str())))
    }

    /// Sends one group's questions to its primary shard (one coalesced
    /// batch call when the group has more than one question), failing over
    /// per question on shard or per-question failure.
    fn dispatch_group(
        &self,
        routed: &[(usize, &str, Vec<usize>)],
        shard: usize,
        members: &[usize],
    ) -> Vec<Reply> {
        let failover = |pos: usize| {
            let (_, question, replicas) = &routed[pos];
            self.solve_via_replicas(question, replicas, Some(shard))
        };
        if members.len() == 1 {
            let (_, question, replicas) = &routed[members[0]];
            return vec![self.solve_via_replicas(question, replicas, None)];
        }
        let texts: Vec<&str> = members.iter().map(|&p| routed[p].1).collect();
        let body = format!("{{\"questions\":[{}]}}", texts.join(","));
        let upstream = match self.transport.post(&self.backends[shard], "/solve", &body) {
            Ok(r) if r.status == 200 => parse_batch_answers(&r.body, members.len()),
            // a 4xx or 504 envelope answers the request, not a fault of
            // the shard: every member answers with it, and nothing fails
            // over
            Ok(r) if r.status >= 400 && !shard_fault(r.status) => {
                self.health.report_success(shard);
                let reply = Reply {
                    status: r.status,
                    body: relay_body(r.body),
                };
                return vec![reply; members.len()];
            }
            Ok(_) | Err(_) => None,
        };
        match upstream {
            Some(got) => {
                self.health.report_success(shard);
                // a per-question shard fault inside a healthy envelope
                // fails over individually (e.g. that one question hit a
                // full queue)
                got.into_iter()
                    .enumerate()
                    .map(|(j, a)| {
                        if shard_fault(a.status) {
                            failover(members[j])
                        } else {
                            a
                        }
                    })
                    .collect()
            }
            None => {
                // the shard (or its envelope) failed wholesale: mark it
                // and re-route every member individually
                self.health.report_failure(shard);
                members.iter().map(|&p| failover(p)).collect()
            }
        }
    }

    /// `GET /cluster`: per-shard health, failure streaks, and the share of
    /// the routing space (task prefixes) each shard owns under rendezvous
    /// hashing (sampled at 256 points).
    pub fn cluster_json(&self) -> String {
        const SAMPLES: u64 = 256;
        let mut owned = vec![0u64; self.backends.len()];
        for s in 0..SAMPLES {
            if let Some(w) = self.owner_of(mix(s)) {
                owned[w] += 1;
            }
        }
        let shards: Vec<Json> = self
            .health
            .snapshot()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("addr", Json::Str(s.addr.clone())),
                    ("health", Json::Str(s.health.name().to_string())),
                    ("consecutive_failures", s.consecutive_failures.to_json()),
                    ("ownership", Json::Num(owned[i] as f64 / SAMPLES as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("shards", Json::Arr(shards)),
            ("replicas", self.replicas.to_json()),
        ])
        .to_string_pretty()
    }

    /// `GET /metrics`: the gateway's own counters plus the *sum* of every
    /// reachable shard's Prometheus text, family by family — one scrape
    /// shows cluster-wide totals.
    pub fn metrics_text(&self) -> String {
        let mut texts = vec![iis_obs::http::prometheus_text(&iis_obs::metrics::snapshot())];
        for s in self.health.snapshot() {
            if s.health == ShardHealth::Down {
                continue;
            }
            if let Ok(r) = self.transport.get(&s.addr, "/metrics") {
                if r.status == 200 {
                    texts.push(r.body);
                }
            }
        }
        merge_prometheus(&texts)
    }
}

/// Splits a backend batch envelope `{"answers":[{"status":N,"body":…},…]}`
/// into per-question `(status, body text)` replies in one pass with the
/// JSON reader; `None` when the body is not a well-formed envelope of
/// exactly `expect` answers (a truncated or garbled reply must trigger
/// failover, never a misaligned answer array). The first `answers`,
/// `status` and `body` members count. Each body is the shard's text, cut
/// out rather than re-rendered.
fn parse_batch_answers(body: &str, expect: usize) -> Option<Vec<Reply>> {
    let mut answers = None;
    let mut r = json::Reader::new(body);
    r.object(|r, key| {
        if key != "answers" || answers.is_some() {
            return r.skip();
        }
        let mut replies = Vec::with_capacity(expect);
        r.array_or("expected array", |r| {
            let (mut status, mut text) = (None, None);
            r.object(|r, field| {
                match field.as_ref() {
                    "status" if status.is_none() => status = Some(r.uint::<u16>()?),
                    "body" if text.is_none() => {
                        let start = r.pos();
                        r.skip()?;
                        text = Some(&body[start..r.pos()]);
                    }
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            let (Some(status), Some(text)) = (status, text) else {
                return Err(json::JsonError::new("expected `status` and `body`"));
            };
            replies.push(Reply {
                status,
                body: text.to_string(),
            });
            Ok(())
        })?;
        answers = Some(replies);
        Ok(())
    })
    .and_then(|()| r.finish())
    .ok()?;
    answers.filter(|a| a.len() == expect)
}

/// Merges Prometheus text expositions by summing series with identical
/// names (labels included). `# TYPE` lines are kept once per family;
/// families and series render in sorted order. Histogram families merge
/// soundly because every series (`_bucket{le}`, `_sum`, `_count`) is
/// itself a sum.
pub fn merge_prometheus(texts: &[String]) -> String {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut series: BTreeMap<String, f64> = BTreeMap::new();
    for text in texts {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((family, ty)) = rest.rsplit_once(' ') {
                    types
                        .entry(family.to_string())
                        .or_insert_with(|| ty.to_string());
                }
                continue;
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(v) = value.parse::<f64>() else {
                continue;
            };
            *series.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, v) in &series {
        let family = name.split('{').next().unwrap_or(name);
        // a series family may carry suffixes (_bucket/_sum/_count map to
        // the histogram family); emit the TYPE line when we enter it
        let base = family
            .strip_suffix("_bucket")
            .or_else(|| family.strip_suffix("_sum"))
            .or_else(|| family.strip_suffix("_count"))
            .filter(|b| types.contains_key(*b))
            .unwrap_or(family);
        if base != last_family {
            if let Some(ty) = types.get(base) {
                out.push_str(&format!("# TYPE {base} {ty}\n"));
            }
            last_family = base.to_string();
        }
        if v.fract() == 0.0 && v.abs() < 9e15 {
            out.push_str(&format!("{name} {}\n", *v as i64));
        } else {
            out.push_str(&format!("{name} {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportResponse;
    use iis_core::cache::{cache_key, key_prefix};

    #[test]
    fn rendezvous_is_stable_and_balanced() {
        let cfg = GatewayConfig {
            backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
            replicas: 2,
            workers: 2,
        };
        let gw = Gateway::new(Arc::new(NullTransport), cfg);
        let mut counts = [0usize; 3];
        for k in 0..600u64 {
            let r = gw.replicas_for(mix(k));
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1]);
            counts[r[0]] += 1;
            // same key, same replica set — routing is a pure function
            assert_eq!(r, gw.replicas_for(mix(k)));
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (100..300).contains(&c),
                "shard {i} owns {c}/600 keys — rendezvous should balance"
            );
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let three = Gateway::new(
            Arc::new(NullTransport),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 1,
                workers: 1,
            },
        );
        let two = Gateway::new(
            Arc::new(NullTransport),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into()],
                replicas: 1,
                workers: 1,
            },
        );
        for k in 0..400u64 {
            let key = mix(k);
            let before = three.replicas_for(key)[0];
            let after = two.replicas_for(key)[0];
            if before != 2 {
                // keys not owned by the removed shard must not move:
                // the minimal-disruption property of rendezvous hashing
                assert_eq!(before, after, "key {key:x} moved needlessly");
            }
        }
    }

    #[test]
    fn unhealthy_replicas_sort_to_the_back() {
        let gw = Gateway::new(
            Arc::new(NullTransport),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 3,
                workers: 1,
            },
        );
        let key = 0xfeed_beef;
        let healthy = gw.replicas_for(key);
        gw.health().report_failure(healthy[0]);
        let rerouted = gw.replicas_for(key);
        assert_eq!(
            rerouted.last(),
            Some(&healthy[0]),
            "a Down shard must be the last resort"
        );
        // the surviving order still follows HRW
        assert_eq!(
            rerouted[..2],
            healthy
                .iter()
                .copied()
                .filter(|&i| i != healthy[0])
                .collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn question_key_matches_serve_semantics() {
        use iis_tasks::library::approximate_agreement;
        let by_spec = question_key(r#"{"spec": "eps:1:3", "max_rounds": 2}"#).unwrap();
        assert_eq!(by_spec, cache_key(&approximate_agreement(1, 3), 2));
        // max_rounds defaults to 2, like the solve service
        let defaulted = question_key(r#"{"spec": "eps:1:3"}"#).unwrap();
        assert_eq!(by_spec, defaulted);
        // inline task bodies route identically to their spec form
        let inline = Json::obj([
            ("task", approximate_agreement(1, 3).to_json()),
            ("max_rounds", Json::Num(2.0)),
        ]);
        assert_eq!(question_key(&inline.to_string()).unwrap(), by_spec);
        assert!(question_key("{}").is_err());
        assert!(question_key(r#"{"spec": "nope:1"}"#).is_err());
        // an `@file` spec is not a library spec at the gateway either
        assert_eq!(
            question_key(r#"{"spec": "@/etc/hostname"}"#).unwrap_err(),
            "unknown task spec: @/etc/hostname"
        );
    }

    #[test]
    fn spec_and_inline_forms_share_a_key_in_every_family() {
        for spec in [
            "trivial:2",
            "consensus:1",
            "kset:2:2",
            "renaming:2:5",
            "eps:1:81",
            "oneshot:2",
        ] {
            let task = parse_spec(spec).unwrap();
            for b in 0..=6usize {
                let rounds = Json::Num(b as f64);
                let by_spec = Json::obj([
                    ("spec", Json::Str(spec.into())),
                    ("max_rounds", rounds.clone()),
                ]);
                let inline = Json::obj([("task", task.to_json()), ("max_rounds", rounds)]);
                let key = question_key(&by_spec.to_string()).unwrap();
                assert_eq!(key, cache_key(&task, b), "{spec} b={b}");
                assert_eq!(
                    question_key(&inline.to_string()).unwrap(),
                    key,
                    "{spec} b={b}"
                );
            }
        }
    }

    /// One question of every library family at bound `b`, in spec form
    /// and in inline form.
    fn family_questions(b: usize) -> Vec<(Json, Json)> {
        [
            "trivial:2",
            "consensus:1",
            "kset:2:2",
            "renaming:2:5",
            "eps:1:81",
            "oneshot:2",
        ]
        .iter()
        .map(|spec| {
            let rounds = Json::Num(b as f64);
            let by_spec = Json::obj([
                ("spec", Json::Str(spec.to_string())),
                ("max_rounds", rounds.clone()),
            ]);
            let task = parse_spec(spec).unwrap().to_json();
            (by_spec, Json::obj([("task", task), ("max_rounds", rounds)]))
        })
        .collect()
    }

    #[test]
    fn task_bounds_share_a_replica_set() {
        let gw = Gateway::new(
            Arc::new(NullTransport),
            GatewayConfig {
                backends: (0..5).map(|i| format!("s{i}:1")).collect(),
                replicas: 2,
                workers: 1,
            },
        );
        let at_zero: Vec<Vec<usize>> = family_questions(0)
            .iter()
            .map(|(q, _)| gw.replicas_for(question_route(&q.to_string()).unwrap()))
            .collect();
        for b in 0..=6usize {
            for ((by_spec, inline), set) in family_questions(b).iter().zip(&at_zero) {
                let route = question_route(&by_spec.to_string()).unwrap();
                assert_eq!(
                    question_route(&inline.to_string()).unwrap(),
                    route,
                    "{by_spec}"
                );
                // the route is the task's key prefix: the bound is not in it
                let spec = by_spec.get("spec").and_then(Json::as_str).unwrap();
                assert_eq!(route, key_prefix(&parse_spec(spec).unwrap()), "{spec}");
                assert_eq!(&gw.replicas_for(route), set, "{spec} b={b}");
                // while the content address still tells the bounds apart
                assert_eq!(
                    question_key(&by_spec.to_string()).unwrap(),
                    finish_key(route, b),
                    "{spec} b={b}"
                );
            }
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_tasks() {
        let gateway = |n: usize| {
            Gateway::new(
                Arc::new(NullTransport),
                GatewayConfig {
                    backends: ["a:1", "b:1", "c:1"][..n]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    replicas: 1,
                    workers: 1,
                },
            )
        };
        let (three, two) = (gateway(3), gateway(2));
        let mut moved = 0;
        for k in 1..=40 {
            let spec = format!("eps:1:{k}");
            let owners = |gw: &Gateway| -> Vec<usize> {
                (0..=4)
                    .map(|b| {
                        let q = Json::obj([
                            ("spec", Json::Str(spec.clone())),
                            ("max_rounds", Json::Num(f64::from(b))),
                        ]);
                        gw.replicas_for(question_route(&q.to_string()).unwrap())[0]
                    })
                    .collect()
            };
            let (before, after) = (owners(&three), owners(&two));
            // every bound of a task has one owner, in either fleet
            assert!(before.iter().all(|&o| o == before[0]), "{spec}: {before:?}");
            assert!(after.iter().all(|&o| o == after[0]), "{spec}: {after:?}");
            if before[0] == 2 {
                moved += 1;
            } else {
                // tasks the removed shard did not own stay where they were
                assert_eq!(before, after, "{spec} moved needlessly");
            }
        }
        assert!(moved > 0, "the removed shard owned no task at all");
    }

    #[test]
    fn prefix_memo_evicts_lru_instead_of_clearing() {
        // more distinct specs than the cap, one hot spec asked between
        // every two others: bounded, and the hot entry survives. Leading
        // zeros make distinct spec strings that all name the tiny trivial:1.
        let hot = "consensus:1";
        for k in 0..SPEC_PREFIX_CAP + 16 {
            spec_prefix(hot).unwrap();
            spec_prefix(&format!("trivial:{}1", "0".repeat(k))).unwrap();
        }
        let memo = spec_prefixes();
        assert!(
            memo.len() <= SPEC_PREFIX_CAP,
            "prefix memo exceeded its cap: {}",
            memo.len()
        );
        assert!(
            memo.contains_key(hot),
            "the constantly-reused spec must survive eviction pressure"
        );
        assert_eq!(
            spec_prefix(hot).unwrap(),
            key_prefix(&parse_spec(hot).unwrap())
        );
    }

    #[test]
    fn merge_prometheus_sums_families() {
        let a = "# TYPE serve_requests_total counter\nserve_requests_total 3\n\
                 # TYPE x_ns histogram\nx_ns_bucket{le=\"1\"} 2\nx_ns_bucket{le=\"+Inf\"} 4\n\
                 x_ns_sum 9\nx_ns_count 4\n"
            .to_string();
        let b = "# TYPE serve_requests_total counter\nserve_requests_total 5\n\
                 # TYPE x_ns histogram\nx_ns_bucket{le=\"1\"} 1\nx_ns_bucket{le=\"+Inf\"} 1\n\
                 x_ns_sum 2\nx_ns_count 1\n"
            .to_string();
        let merged = merge_prometheus(&[a, b]);
        assert!(merged.contains("serve_requests_total 8\n"), "{merged}");
        assert!(merged.contains("x_ns_bucket{le=\"1\"} 3\n"), "{merged}");
        assert!(merged.contains("x_ns_bucket{le=\"+Inf\"} 5\n"), "{merged}");
        assert!(merged.contains("x_ns_sum 11\n"), "{merged}");
        assert!(merged.contains("x_ns_count 5\n"), "{merged}");
        // exactly one TYPE line per family
        assert_eq!(
            merged.matches("# TYPE x_ns histogram").count(),
            1,
            "{merged}"
        );
    }

    /// A transport that never answers — for routing-only tests.
    struct NullTransport;

    impl Transport for NullTransport {
        fn get(&self, _: &str, _: &str) -> Result<TransportResponse, String> {
            Err("null".into())
        }
        fn post(&self, _: &str, _: &str, _: &str) -> Result<TransportResponse, String> {
            Err("null".into())
        }
    }

    /// An in-memory "cluster" answering the solve-service protocol with
    /// pure, deterministic answers, optionally dropping whole shards.
    struct FakeCluster {
        dead: Vec<String>,
    }

    fn canned_answer(q: &Json) -> Json {
        let key = question_key(&q.to_string()).unwrap();
        Json::obj([
            ("cached", Json::Bool(false)),
            ("key", Json::Str(format!("{key:016x}"))),
            (
                "result",
                Json::obj([("verdict", Json::Bool(key.is_multiple_of(2)))]),
            ),
        ])
    }

    impl Transport for FakeCluster {
        fn get(&self, shard: &str, path: &str) -> Result<TransportResponse, String> {
            if self.dead.iter().any(|d| d == shard) {
                return Err("connection refused".into());
            }
            match path {
                "/readyz" => Ok(TransportResponse {
                    status: 200,
                    body: "{\"ready\": true}".into(),
                }),
                _ => Ok(TransportResponse {
                    status: 404,
                    body: "not found".into(),
                }),
            }
        }

        fn post(&self, shard: &str, _path: &str, body: &str) -> Result<TransportResponse, String> {
            if self.dead.iter().any(|d| d == shard) {
                return Err("connection refused".into());
            }
            let v = Json::parse(body).map_err(|e| e.to_string())?;
            let body = match v.get("questions") {
                Some(Json::Arr(qs)) => {
                    let answers: Vec<Json> = qs
                        .iter()
                        .map(|q| {
                            Json::obj([("status", Json::Num(200.0)), ("body", canned_answer(q))])
                        })
                        .collect();
                    Json::obj([("answers", Json::Arr(answers))]).to_string()
                }
                _ => canned_answer(&v).to_string(),
            };
            Ok(TransportResponse { status: 200, body })
        }
    }

    fn questions(n: usize) -> Vec<Json> {
        let specs = [
            "trivial:1",
            "trivial:2",
            "eps:1:3",
            "eps:1:5",
            "consensus:1",
            "kset:2:2",
        ];
        (0..n)
            .map(|i| {
                Json::obj([
                    ("spec", Json::Str(specs[i % specs.len()].to_string())),
                    ("max_rounds", Json::Num(((i % 2) + 1) as f64)),
                ])
            })
            .collect()
    }

    #[test]
    fn batch_scatter_gather_preserves_order_and_answers() {
        let gw = Gateway::new(
            Arc::new(FakeCluster { dead: vec![] }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 2,
                workers: 3,
            },
        );
        let qs = questions(6);
        let out = gw.solve_batch(&qs);
        let v = Json::parse(&out).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("{out}");
        };
        assert_eq!(answers.len(), 6);
        for (q, a) in qs.iter().zip(answers) {
            assert_eq!(a.get("status"), Some(&Json::Num(200.0)), "{a:?}");
            let key = question_key(&q.to_string()).unwrap();
            assert_eq!(
                a.get("body").unwrap().get("key").unwrap().as_str(),
                Some(format!("{key:016x}").as_str()),
                "answer out of order"
            );
        }
    }

    #[test]
    fn dead_primary_fails_over_with_identical_answers() {
        let qs = questions(6);
        let healthy = Gateway::new(
            Arc::new(FakeCluster { dead: vec![] }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 2,
                workers: 2,
            },
        );
        let degraded = Gateway::new(
            Arc::new(FakeCluster {
                dead: vec!["b:1".into()],
            }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 2,
                workers: 2,
            },
        );
        let before = Json::parse(&healthy.solve_batch(&qs)).unwrap();
        let after = Json::parse(&degraded.solve_batch(&qs)).unwrap();
        let (Some(Json::Arr(b)), Some(Json::Arr(a))) =
            (before.get("answers"), after.get("answers"))
        else {
            panic!();
        };
        for (x, y) in b.iter().zip(a) {
            assert_eq!(x.get("status"), Some(&Json::Num(200.0)));
            assert_eq!(y.get("status"), Some(&Json::Num(200.0)), "{y:?}");
            // purity: the failed-over answer is byte-identical
            assert_eq!(
                x.get("body").unwrap().to_string(),
                y.get("body").unwrap().to_string()
            );
        }
        // the dead shard was noticed
        assert!(degraded
            .health()
            .snapshot()
            .iter()
            .any(|s| s.health == ShardHealth::Down));
    }

    #[test]
    fn every_shard_dead_answers_503_per_question() {
        let gw = Gateway::new(
            Arc::new(FakeCluster {
                dead: vec!["a:1".into(), "b:1".into()],
            }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into()],
                replicas: 2,
                workers: 2,
            },
        );
        let qs = questions(3);
        let v = Json::parse(&gw.solve_batch(&qs)).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!();
        };
        assert_eq!(answers.len(), 3);
        for a in answers {
            assert_eq!(a.get("status"), Some(&Json::Num(503.0)), "{a:?}");
        }
    }

    #[test]
    fn spliced_envelopes_equal_the_parse_render_construction() {
        let gw = Gateway::new(
            Arc::new(FakeCluster { dead: vec![] }),
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into(), "c:1".into()],
                replicas: 2,
                workers: 2,
            },
        );
        let qs = questions(9);
        // the client's own spacing; the gateway splits, never re-renders
        let texts: Vec<String> = qs.iter().map(Json::to_string_pretty).collect();
        let body = format!("{{ \"questions\" : [ {} ] }}", texts.join(" ,\n"));
        let (status, envelope) = gw.solve(&body);
        assert_eq!(status, 200);
        let old = Json::obj([(
            "answers",
            Json::Arr(
                qs.iter()
                    .map(|q| Json::obj([("status", Json::Num(200.0)), ("body", canned_answer(q))]))
                    .collect(),
            ),
        )])
        .to_string();
        assert_eq!(envelope, old);
        // the pre-parsed entry point builds the same bytes
        assert_eq!(gw.solve_batch(&qs), old);
        // a single question relays the shard's bytes
        assert_eq!(
            gw.solve(&texts[0]),
            (200, canned_answer(&qs[0]).to_string())
        );
        // batch_envelope keeps its bytes: the tree rendering, element by element
        let answers = [
            Answer {
                status: 200,
                body: canned_answer(&qs[1]),
            },
            Answer {
                status: 503,
                body: Json::Str("no \"replica\"\n".into()),
            },
        ];
        let tree = Json::obj([(
            "answers",
            Json::Arr(answers.iter().map(Answer::to_json).collect()),
        )]);
        assert_eq!(batch_envelope(&answers), tree.to_string());
        assert_eq!(batch_envelope(&[]), "{\"answers\":[]}");
        assert_eq!(
            gw.solve(r#"{"questions": 3}"#),
            (
                400,
                r#"{"error":"\"questions\" must be an array"}"#.to_string()
            )
        );
    }

    #[test]
    fn batch_answer_split_keeps_its_strictness() {
        let good = r#"{"answers":[{"status":200,"body":{"a":[1,2]}},{"body":"x","status":503.0}]}"#;
        let got = parse_batch_answers(good, 2).unwrap();
        assert_eq!(
            (got[0].status, got[0].body.as_str()),
            (200, r#"{"a":[1,2]}"#)
        );
        assert_eq!((got[1].status, got[1].body.as_str()), (503, r#""x""#));
        for bad in [
            // wrong count, truncation, missing members, wrong types
            r#"{"answers":[{"status":200,"body":{}}]}"#,
            &good[..good.len() - 1],
            r#"{"answers":[{"status":200,"body":1},{"status":200}]}"#,
            r#"{"answers":[{"status":"200","body":1},{"status":200,"body":2}]}"#,
            r#"{"answers":[{"status":200,"body":1},[200,2]]}"#,
            r#"{"answers":{"status":200}}"#,
            r#"{"other":[]}"#,
            "[]",
            "not json",
            // garbled: trailing bytes, a broken item, statuses no shard
            // writes
            &format!("{good}x"),
            &format!("{good}{good}"),
            r#"{"answers":[{"status":200,"body":1}},{"status":200,"body":2}]}"#,
            r#"{"answers":[{"status":200,"body":1},{"status":200,"body":}]}"#,
            r#"{"answers":[{"status":200,"body":1},{"status":70000,"body":2}]}"#,
            r#"{"answers":[{"status":200,"body":1},{"status":-1,"body":2}]}"#,
            r#"{"answers":[{"status":200,"body":1},{"status":1.5,"body":2}]}"#,
            r#"{"answers":[{"status":200,"body":1},{"status":null,"body":2}]}"#,
            // wrong counts, the first `answers` member counting
            r#"{"answers":[]}"#,
            r#"{"answers":[{"status":200,"body":1},{"status":200,"body":2},{"status":200,"body":3}]}"#,
            r#"{"answers":[{"status":200,"body":1}],"answers":[{"status":200,"body":1},{"status":200,"body":2}]}"#,
        ] {
            assert!(parse_batch_answers(bad, 2).is_none(), "accepted {bad}");
        }
        // every truncation of a good envelope
        for end in 0..good.len() {
            assert!(
                parse_batch_answers(&good[..end], 2).is_none(),
                "accepted {}",
                &good[..end]
            );
        }
        // later duplicates are read past: the first member counts
        let doubled = good.replacen(r#""status":200,"#, r#""status":200,"status":"x","#, 1);
        let got = parse_batch_answers(&doubled, 2).unwrap();
        assert_eq!(
            (got[0].status, got[0].body.as_str()),
            (200, r#"{"a":[1,2]}"#)
        );
    }

    #[test]
    fn malformed_questions_answer_400_without_a_round_trip() {
        let gw = Gateway::new(
            Arc::new(FakeCluster { dead: vec![] }),
            GatewayConfig {
                backends: vec!["a:1".into()],
                replicas: 1,
                workers: 1,
            },
        );
        let qs = vec![
            Json::parse(r#"{"spec": "trivial:1"}"#).unwrap(),
            Json::parse(r#"{"nope": 1}"#).unwrap(),
        ];
        let v = Json::parse(&gw.solve_batch(&qs)).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!();
        };
        assert_eq!(answers[0].get("status"), Some(&Json::Num(200.0)));
        assert_eq!(answers[1].get("status"), Some(&Json::Num(400.0)));
    }
}
