//! The `iis serve` solve service: HTTP in front of the solver and the
//! persistent witness store.
//!
//! The transport is `iis_obs::http` (this module only supplies a
//! [`Handler`]); the cache logic is `iis_core::cache`; the persistence is
//! `iis_store::Store`. What lives here is the **service glue**: request
//! parsing, the job registry, request coalescing, and a bounded pool of
//! solve workers so concurrent requests make progress without unbounded
//! thread spawns. At most `--workers` jobs run at once, whichever thread
//! runs them.
//!
//! Routes:
//!
//! - `POST /solve` — body `{"spec": "consensus:2" | "task": {…},
//!   "max_rounds": B, "budget": N, "jobs": J, "wait": true}` (everything
//!   but the task optional; a spec is a library spec — `@file` specs are
//!   for the CLI only). The search is always the compiled kernel's MAC
//!   search; there is no engine or strategy field (a `"kernel"` member is
//!   ignored), and the reference engine is a test oracle no request can
//!   reach. `"jobs"` is clamped to the host's available parallelism: it
//!   never changes an answer, only how many threads one question may
//!   spawn. Answers from the store when the record exists
//!   (`"cached": true`, counted by `serve.cache_hits`); otherwise runs the
//!   sweep — on the thread that read the question, when nothing is queued
//!   and a worker's slot is free (no queue hop, no hand-off), else on the
//!   worker pool. With `"wait": false` replies `202 Accepted` with a job
//!   id instead of blocking (such a job always goes to the pool). A second
//!   request for a key already being solved joins the in-flight job
//!   (`serve.coalesced`) rather than solving twice.
//! - `POST /solve` with `{"questions": [q, …]}` — the **batch** form
//!   (`serve.batch_requests`): every element is a single-question body as
//!   above. All questions are admitted up front, each queued for the
//!   worker pool (so the pool runs them in parallel and duplicate keys
//!   coalesce), then answered in
//!   order as `{"answers": [{"status": N, "body": {…}}, …]}` where each
//!   `body` is exactly the single-question response. The envelope is
//!   `200` even when individual questions fail — per-question statuses
//!   live inside, so one bad question cannot mask five good answers.
//!   This is the route the gateway coalesces same-shard questions onto.
//! - `GET /jobs/<id>` — job status plus the result record when done.
//! - `GET /jobs` — the jobs the registry holds: every queued or running
//!   job, and the newest settled ones. At most [`SETTLED_JOBS_CAP`]
//!   settled jobs are kept (each holds its record text); past that the
//!   oldest settled job no request still waits on is dropped, and its
//!   `/jobs/<id>` answers `404`.
//! - `GET /healthz` — liveness: `200` while the process answers at all.
//! - `GET /readyz` — readiness: `200` only with live workers, a writable
//!   store, and no shutdown in progress; otherwise `503` with the reasons
//!   (a quarantine-degraded store reports `"degraded": "read-only"` but
//!   keeps `/solve` answering — results are recomputed, not stored).
//! - `POST /shutdown` — stop accepting, drain, exit `iis serve`.
//! - the built-ins `GET /metrics`, `/progress`, `/snapshot` stay live.
//!
//! **Overload and deadlines.** Admission is bounded: at most `--queue N`
//! jobs wait for a worker; past that, `POST /solve` answers `503` with a
//! `Retry-After` header (`serve.rejected`). Every job has one deadline,
//! fixed at its admission `--timeout-secs T` (default 8) later, shared by
//! a batch's jobs: the sweep abandons the job there, marked `timed_out`
//! and answered with a structured `504` (`serve.timeouts`). Any request
//! waiting on a job still queued or running at that deadline gets the
//! same `504` with the job's status; the job stays pollable.
//!
//! **Drain.** `POST /shutdown` stops admission (new solves get `503`),
//! lets in-flight and queued jobs finish until the last job's deadline
//! plus a second, fails whatever is still queued then, flushes the store,
//! and only then tears the transport down — so an accepted `wait: true`
//! request is answered, not reset.
//!
//! Identical questions get bit-identical answers: records are canonical
//! (see `iis_core::cache`), the store is first-write-wins, and cached
//! replies replay the stored bytes — across restarts too, when `--store`
//! points at the same directory. A reply *splices* the record text into
//! its envelope ([`ObjectWriter`], `iis_cluster::splice_envelope`) rather
//! than re-rendering a parsed tree. A hit is read once, straight into the
//! witness check, and only a record in exactly the canonical encoding
//! that answers the question's round bound is a hit
//! (`iis_core::cache::validate_record`), so the bytes sent are the bytes
//! checked. The service then keeps the checked bytes in its memo of
//! verified answers (`iis_core::cache::AnswerMemo`, `cache.answer_hits`):
//! a re-ask of the same spec at the same bound is one lookup, with no
//! store read and no second check of bytes already checked.

use crate::{err, flag_value, only_flags, CliError};
use iis_cluster::splice_envelope;
use iis_core::cache::{
    answer_keyed, intern_spec, read_solve_body, AnswerMemo, Answered, KeyedTask, QuestionTask,
    QuestionText, SolveBody, SolveCache, MAX_BATCH,
};
use iis_core::parallel::panic_message;
use iis_core::solvability::{BoundedOutcome, SolveOptions};
use iis_obs::http::{serve_with, Handler, Request, Response};
use iis_obs::json::ObjectWriter;
use iis_obs::metrics::StaticCounter;
use iis_obs::{Json, ToJson as _};
use iis_store::Store;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// One accepted solve question and its lifecycle.
struct Job {
    spec: Arc<str>,
    /// The question's task until a thread claims it to solve; a settled
    /// job keeps only its record text.
    task: Option<Arc<KeyedTask>>,
    key: u64,
    max_rounds: usize,
    opts: SolveOptions,
    /// The job's one deadline, fixed at admission: its sweep, every
    /// request waiting on it and the drain read this instant.
    deadline: Instant,
    status: Status,
}

/// A job claimed to run: what its solve needs, taken out of the registry.
struct Claim {
    id: u64,
    task: Arc<KeyedTask>,
    key: u64,
    max_rounds: usize,
    opts: SolveOptions,
    deadline: Instant,
    /// The asking thread runs the job itself, and holds one of its holds.
    by_asker: bool,
}

/// What `GET /jobs` shows of one job, copied out of the registry.
struct JobView {
    id: u64,
    spec: Arc<str>,
    max_rounds: usize,
    status: Status,
}

impl JobView {
    fn of(id: u64, job: &Job) -> JobView {
        JobView {
            id,
            spec: Arc::clone(&job.spec),
            max_rounds: job.max_rounds,
            status: job.status.clone(),
        }
    }

    /// The job's `GET /jobs` entry, with a settled record spliced in.
    fn render(&self) -> String {
        let w = ObjectWriter::new()
            .field("job", &Json::Num(self.id as f64))
            .field("spec", &Json::Str(self.spec.to_string()))
            .field("max_rounds", &self.max_rounds.to_json())
            .field("status", &Json::Str(self.status.name().to_string()));
        match &self.status {
            Status::Done { result, cached } => w
                .field("cached", &Json::Bool(*cached))
                .raw("result", result),
            Status::Failed(e) | Status::Inconclusive(e) | Status::TimedOut(e) => {
                w.field("error", &Json::Str(e.clone()))
            }
            _ => w,
        }
        .finish()
    }
}

/// Job lifecycle states.
#[derive(Clone)]
enum Status {
    Queued,
    Running,
    /// `result` is the canonical record text; `cached` is whether the
    /// worker found it already stored (e.g. written by a coalesced sibling).
    Done {
        result: Arc<str>,
        cached: bool,
    },
    /// The solve panicked: a fault of the shard (`500`).
    Failed(String),
    /// The sweep stopped undecided — the node budget ran out, or the next
    /// round's tower is past the cap — so nothing was stored. An answer to
    /// the question (`422`), not a fault of the shard.
    Inconclusive(String),
    /// The sweep gave up at the job's deadline — distinct from `Failed`
    /// so waiters can answer `504` rather than `500`.
    TimedOut(String),
}

impl Status {
    fn name(&self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Done { .. } => "done",
            Status::Failed(_) => "failed",
            Status::Inconclusive(_) => "inconclusive",
            Status::TimedOut(_) => "timed_out",
        }
    }
}

/// Most settled jobs the registry keeps, so a long-running shard's
/// registry (and a `GET /jobs` listing) stays bounded.
/// A full batch of `wait: false` questions fits.
const SETTLED_JOBS_CAP: usize = MAX_BATCH;

/// Registry + queue, under one lock; `changed` signals any transition.
struct State {
    jobs: BTreeMap<u64, Job>,
    /// Settled job ids, oldest first: the order they are dropped in.
    settled: VecDeque<u64>,
    /// Job id → requests admitted onto it and not yet answered; a held
    /// job is never dropped.
    holds: HashMap<u64, usize>,
    /// Jobs settled `Done`, dropped ones included.
    completed: usize,
    queue: VecDeque<u64>,
    /// cache key → id of the queued/running job answering it.
    inflight: HashMap<u64, u64>,
    next_id: u64,
    active: i64,
    shutdown: bool,
}

impl State {
    /// Marks job `id` running and takes its task out to solve; the job
    /// counts in `active` until it settles.
    fn claim(&mut self, id: u64, by_asker: bool) -> Claim {
        let job = self.jobs.get_mut(&id).expect("a claimed job exists");
        job.status = Status::Running;
        let claim = Claim {
            id,
            task: job.task.take().expect("an unclaimed job holds its task"),
            key: job.key,
            max_rounds: job.max_rounds,
            opts: job.opts,
            deadline: job.deadline,
            by_asker,
        };
        self.active += 1;
        iis_obs::metrics::gauge_set("serve.jobs_active", self.active);
        claim
    }

    /// Settles job `id` with `status` (its task is dropped, its record
    /// kept) and trims the settled jobs to the cap.
    fn settle(&mut self, id: u64, status: Status) {
        if let Some(job) = self.jobs.get_mut(&id) {
            self.completed += usize::from(matches!(status, Status::Done { .. }));
            job.task = None;
            job.status = status;
            self.settled.push_back(id);
            self.trim();
        }
    }

    /// A request admitted onto job `id` has its answer.
    fn release(&mut self, id: u64) {
        if let Some(n) = self.holds.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                self.holds.remove(&id);
            }
        }
        self.trim();
    }

    /// Drops the oldest settled jobs no request holds until at most
    /// [`SETTLED_JOBS_CAP`] settled jobs remain.
    fn trim(&mut self) {
        while self.settled.len() > SETTLED_JOBS_CAP {
            let Some(at) = self
                .settled
                .iter()
                .position(|id| !self.holds.contains_key(id))
            else {
                return;
            };
            if let Some(id) = self.settled.remove(at) {
                self.jobs.remove(&id);
            }
        }
    }
}

/// The solve service shared by the HTTP handler and the worker pool.
pub(crate) struct SolveService {
    state: Mutex<State>,
    changed: Condvar,
    store: Mutex<Box<dyn SolveCache + Send>>,
    /// The records this service read from `store` and verified, so a
    /// re-ask is one lookup (see [`AnswerMemo`]).
    answers: AnswerMemo,
    stop_workers: AtomicBool,
    /// Most jobs allowed to *wait* for a worker; past this, `POST /solve`
    /// answers `503` + `Retry-After` instead of queueing unboundedly.
    max_queue: usize,
    /// How long after its admission a job's deadline falls (a batch's:
    /// after the batch's).
    timeout: Duration,
    /// The store's sticky read-only flag (`None` for the in-memory map,
    /// which cannot degrade) — drives `/readyz`.
    degraded: Option<Arc<AtomicBool>>,
    /// Live solve workers; a panicked worker decrements on unwind, so
    /// `/readyz` notices a dead pool. At most this many jobs run at once.
    workers_alive: Arc<AtomicUsize>,
}

/// Panic-safe worker liveness: decrements on drop, unwind included.
struct AliveGuard(Arc<AtomicUsize>);

impl AliveGuard {
    fn enroll(counter: &Arc<AtomicUsize>) -> AliveGuard {
        counter.fetch_add(1, Ordering::AcqRel);
        AliveGuard(Arc::clone(counter))
    }
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Locks a `SolveService` store only for the duration of each `get`/`put`,
/// so two workers can solve *different* keys concurrently (the same key is
/// never solved twice — coalescing guarantees that).
struct SharedCache<'a>(&'a Mutex<Box<dyn SolveCache + Send>>);

impl SolveCache for SharedCache<'_> {
    fn get(&mut self, key: u64) -> Option<String> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
    }

    fn put(&mut self, key: u64, value: &str) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .put(key, value);
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The parsed body of a `POST /solve`.
struct SolveRequest {
    spec: String,
    task: Arc<KeyedTask>,
    max_rounds: usize,
    opts: SolveOptions,
    wait: bool,
}

/// Resolves one read question (a single-question body, or one element of
/// a batch's `"questions"`) into a request.
///
/// A spec resolves only as a library spec, through the process-wide
/// interner (`iis_core::cache::intern_spec`): a network question can never
/// make the shard read a file, and a repeated spec rebuilds neither its
/// task nor its key.
fn solve_request(q: QuestionText<'_>) -> Result<SolveRequest, String> {
    let q = q.resolve(|task| match task {
        QuestionTask::Spec(s) => Ok((s.to_string(), intern_spec(&s)?)),
        QuestionTask::Inline(keyed) => {
            Ok((format!("@inline:{}", keyed.task().name()), Arc::new(*keyed)))
        }
    })?;
    let (spec, task) = q.task;
    let jobs = usize::try_from(q.jobs).unwrap_or(usize::MAX);
    Ok(SolveRequest {
        spec,
        task,
        max_rounds: q.max_rounds,
        opts: SolveOptions::new()
            .budget(q.budget)
            .jobs(jobs.min(host_parallelism())),
        wait: q.wait,
    })
}

/// `std::thread::available_parallelism`, read once per process: the most
/// search threads one question may ask for.
fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn key_hex(key: u64) -> Json {
    Json::Str(format!("{key:016x}"))
}

/// The reply for a settled record: `{["coalesced":true,]"cached":…,
/// ["job":id,]"key":"<hex>","result":<record>}` with the stored record
/// text spliced in verbatim.
fn record_reply(coalesced: bool, cached: bool, job: Option<u64>, key: u64, record: &str) -> String {
    let mut w = ObjectWriter::with_capacity(record.len() + 64);
    if coalesced {
        w = w.field("coalesced", &Json::Bool(true));
    }
    w = w.field("cached", &Json::Bool(cached));
    if let Some(id) = job {
        w = w.field("job", &Json::Num(id as f64));
    }
    w.field("key", &key_hex(key)).raw("result", record).finish()
}

/// The outcome of admitting one question (without blocking on it).
enum Admission {
    /// Answered on the spot: cache hit or a drain 503.
    Ready(Response),
    /// Queued or coalesced; settle it with [`SolveService::respond`].
    Pending { id: u64, key: u64, coalesced: bool },
    /// Claimed for the asking thread to run ([`SolveService::run_job`]),
    /// then settle as `Pending`.
    Run(Claim),
    /// The queue is full: shed with [`SolveService::queue_full`], unless a
    /// batch waits for its own jobs to make room.
    Full,
}

/// One batch-envelope element's body: the response a question would have
/// gotten standalone. Every JSON response here is a compact rendering, so
/// it is spliced as is; any other body travels as a JSON string.
fn answer_body(resp: Response) -> String {
    if resp.content_type == "application/json" {
        resp.body
    } else {
        Json::Str(resp.body).to_string()
    }
}

impl SolveService {
    fn new(
        store: Box<dyn SolveCache + Send>,
        max_queue: usize,
        timeout: Duration,
        degraded: Option<Arc<AtomicBool>>,
    ) -> SolveService {
        // register at zero so the serve counters scrape before first use
        for name in [
            "serve.cache_hits",
            "serve.rejected",
            "serve.timeouts",
            "serve.batch_requests",
            "cache.spec_hits",
            "cache.spec_builds",
            "cache.spec_evictions",
            "cache.answer_hits",
            "cache.answer_evictions",
        ] {
            iis_obs::metrics::Counter::handle(name);
        }
        iis_core::solvability::register_counters();
        SolveService {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                settled: VecDeque::new(),
                holds: HashMap::new(),
                completed: 0,
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                next_id: 1,
                active: 0,
                shutdown: false,
            }),
            changed: Condvar::new(),
            store: Mutex::new(store),
            answers: AnswerMemo::default(),
            stop_workers: AtomicBool::new(false),
            max_queue,
            timeout,
            degraded,
            workers_alive: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The worker-pool loop: pop a queued job while fewer jobs run than
    /// there are live workers, and run it. Exits once `stop_workers` is
    /// raised — the drain phase in [`cmd_serve`] empties the queue *before*
    /// raising it, so a late stop abandons the backlog (which is then
    /// failed) rather than stretching the drain deadline.
    fn worker_loop(&self) {
        let _alive = AliveGuard::enroll(&self.workers_alive);
        loop {
            let claim = {
                let mut st = lock(&self.state);
                loop {
                    if self.stop_workers.load(Ordering::Acquire) {
                        return;
                    }
                    if st.active < self.live_workers() {
                        if let Some(id) = st.queue.pop_front() {
                            // the queue shrank: a batch may wait for room
                            self.changed.notify_all();
                            break st.claim(id, false);
                        }
                    }
                    st = self
                        .changed
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.run_job(claim);
        }
    }

    /// How many jobs may run at once: the live pool workers.
    fn live_workers(&self) -> i64 {
        i64::try_from(self.workers_alive.load(Ordering::Acquire)).unwrap_or(i64::MAX)
    }

    /// Runs a claimed job — on a pool worker, or on the thread that read
    /// its question — and settles it: solve through the store, classify
    /// the outcome, publish it under the state lock. The sweep gets the
    /// time left until the job's deadline.
    fn run_job(&self, job: Claim) {
        let left = job.deadline.saturating_duration_since(Instant::now());
        let opts = job.opts.timeout(left);
        // a panicking solve fails its job, not the thread running it: every
        // lock it may hold recovers from poisoning, and the job still
        // settles and gives back its slot
        let solved = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let store = &mut SharedCache(&self.store);
            match answer_keyed(&job.task, job.max_rounds, &opts, store, &self.answers) {
                Answered::Record { text, hit } => Status::Done {
                    result: text,
                    cached: hit,
                },
                // an undecided sweep stored nothing, and names the limit
                // that stopped it
                Answered::Undecided(report) => {
                    let why = report.stop_reason().unwrap_or_default();
                    match report.stopped() {
                        Some(BoundedOutcome::TimedOut) => {
                            iis_obs::metrics::add("serve.timeouts", 1);
                            Status::TimedOut(format!("{why} after {:?}", self.timeout))
                        }
                        Some(BoundedOutcome::Exhausted) => {
                            Status::Inconclusive(format!("inconclusive: {why} (raise \"budget\")"))
                        }
                        _ => Status::Inconclusive(format!("inconclusive: {why}")),
                    }
                }
            }
        }));
        let status = solved.unwrap_or_else(|panic| {
            Status::Failed(format!("solve panicked: {}", panic_message(&*panic)))
        });
        let mut st = lock(&self.state);
        st.inflight.remove(&job.key);
        st.settle(job.id, status);
        st.active -= 1;
        iis_obs::metrics::gauge_set("serve.jobs_active", st.active);
        // a job its asker ran wakes only who may wait on it: a request
        // coalesced onto it, a worker that may now pop, the drain
        let coalesced = st.holds.get(&job.id).is_some_and(|&n| n > 1);
        if !job.by_asker || coalesced || !st.queue.is_empty() || st.shutdown {
            self.changed.notify_all();
        }
    }

    /// Blocks until job `id` settles, then renders its response. A job
    /// still queued or running at its deadline — shared by every request
    /// waiting on it — gets a structured `504`; the job itself keeps its
    /// worker and stays pollable at `/jobs/<id>`.
    fn wait_for(&self, id: u64, key: u64, coalesced: bool) -> Response {
        let mut st = lock(&self.state);
        loop {
            let Some(job) = st.jobs.get(&id) else {
                return Response::bad_request("job vanished");
            };
            match &job.status {
                Status::Done { result, cached } => {
                    let (result, cached) = (Arc::clone(result), *cached);
                    drop(st);
                    return Response::json(record_reply(coalesced, cached, Some(id), key, &result));
                }
                Status::Failed(e) => return Self::unanswered(500, id, key, e),
                Status::Inconclusive(e) => return Self::unanswered(422, id, key, e),
                Status::TimedOut(e) => {
                    return Self::gateway_timeout(id, key, e.clone(), "timed_out");
                }
                status => {
                    let Some(left) = job.deadline.checked_duration_since(Instant::now()) else {
                        iis_obs::metrics::add("serve.timeouts", 1);
                        let detail = format!(
                            "deadline exceeded after {:?}; poll /jobs/{id}",
                            self.timeout
                        );
                        return Self::gateway_timeout(id, key, detail, status.name());
                    };
                    st = self
                        .changed
                        .wait_timeout(st, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// `{"error", "job", "key"}` under `status`: a job that settled
    /// without a record.
    fn unanswered(status: u16, id: u64, key: u64, error: &str) -> Response {
        Response::json_status(
            status,
            Json::obj([
                ("error", Json::Str(error.to_string())),
                ("job", Json::Num(id as f64)),
                ("key", key_hex(key)),
            ])
            .to_string(),
        )
    }

    fn gateway_timeout(id: u64, key: u64, error: String, status: &str) -> Response {
        Response::json_status(
            504,
            Json::obj([
                ("error", Json::Str(error)),
                ("job", Json::Num(id as f64)),
                ("key", key_hex(key)),
                ("status", Json::Str(status.to_string())),
            ])
            .to_string(),
        )
    }

    /// The fast path: a record this service verified, or one the store
    /// holds that revalidates before `deadline` (the question's job's, had
    /// it missed); the reply carries its stored bytes.
    fn answer_cached(&self, req: &SolveRequest, deadline: Instant) -> Option<Response> {
        let store = &mut SharedCache(&self.store);
        let text = self
            .answers
            .answer(&req.task, req.max_rounds, store, Some(deadline))?;
        static CACHE_HITS: StaticCounter = StaticCounter::new("serve.cache_hits");
        CACHE_HITS.incr();
        let key = req.task.key(req.max_rounds);
        Some(Response::json(record_reply(false, true, None, key, &text)))
    }

    /// Admits one question [`SolveService::answer_cached`] did not answer:
    /// joins an in-flight job, or makes a new one with `deadline`. A new
    /// job is claimed for the asker to run when it may (`run_here`: a
    /// waited single question), nothing is queued and a live worker's slot
    /// is free; otherwise it is enqueued for the pool. Never blocks — the
    /// batch route admits *everything* before waiting on *anything*, so a
    /// batch keeps the whole worker pool busy.
    fn admit(&self, req: &SolveRequest, run_here: bool, deadline: Instant) -> Admission {
        let key = req.task.key(req.max_rounds);
        // coalesce onto an in-flight job for the same key, or enqueue
        let mut st = lock(&self.state);
        if st.shutdown {
            return Admission::Ready(Response::json_status(
                503,
                Json::obj([("error", Json::Str("shutting down".to_string()))]).to_string(),
            ));
        }
        if let Some(&id) = st.inflight.get(&key) {
            iis_obs::metrics::add("serve.coalesced", 1);
            *st.holds.entry(id).or_default() += 1;
            return Admission::Pending {
                id,
                key,
                coalesced: true,
            };
        }
        let run_here = run_here && st.queue.is_empty() && st.active < self.live_workers();
        if !run_here && st.queue.len() >= self.max_queue {
            return Admission::Full;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            Job {
                spec: req.spec.as_str().into(),
                task: Some(Arc::clone(&req.task)),
                key,
                max_rounds: req.max_rounds,
                opts: req.opts,
                deadline,
                status: Status::Queued,
            },
        );
        st.inflight.insert(key, id);
        st.holds.insert(id, 1);
        if run_here {
            return Admission::Run(st.claim(id, true));
        }
        st.queue.push_back(id);
        self.changed.notify_all();
        Admission::Pending {
            id,
            key,
            coalesced: false,
        }
    }

    /// The shed-load answer to a question that found the queue full:
    /// admission is bounded instead of queueing unboundedly, and the
    /// client is told when to come back.
    fn queue_full(&self) -> Response {
        iis_obs::metrics::add("serve.rejected", 1);
        Response::json_status(
            503,
            Json::obj([
                ("error", Json::Str("queue full".to_string())),
                ("queue", self.max_queue.to_json()),
            ])
            .to_string(),
        )
        .with_header("Retry-After", "1")
    }

    /// Answers or admits one question of a batch. A full queue that holds
    /// a job of `mine` (the jobs this batch was admitted onto) drains on
    /// its own, so the batch waits for room, until its `deadline`, instead
    /// of shedding its own tail. A queue full of other requests' jobs
    /// sheds as for a single question.
    fn admit_in_batch(&self, req: &SolveRequest, mine: &[u64], deadline: Instant) -> Admission {
        loop {
            if let Some(resp) = self.answer_cached(req, deadline) {
                return Admission::Ready(resp);
            }
            match self.admit(req, false, deadline) {
                Admission::Full if self.wait_for_room(mine, deadline) => {}
                other => return other,
            }
        }
    }

    /// Waits until the queue may have room, if it holds a job of `mine`.
    /// `false` means shed instead: none of `mine` is queued, or the
    /// batch's `deadline` passed.
    fn wait_for_room(&self, mine: &[u64], deadline: Instant) -> bool {
        let st = lock(&self.state);
        if st.queue.len() < self.max_queue {
            return true;
        }
        if !st.queue.iter().any(|id| mine.contains(id)) {
            return false;
        }
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return false;
        };
        drop(self.changed.wait_timeout(st, left));
        true
    }

    /// Settles an admitted question into its response: block on the job
    /// (`wait: true`, the default) or acknowledge with a `202`. Either way
    /// the request's hold on the job ends here.
    fn respond(&self, wait: bool, id: u64, key: u64, coalesced: bool) -> Response {
        if wait {
            let resp = self.wait_for(id, key, coalesced);
            lock(&self.state).release(id);
            return resp;
        }
        let mut st = lock(&self.state);
        let status = st.jobs.get(&id).map_or("queued", |j| j.status.name());
        st.release(id);
        let mut fields = vec![
            ("job", Json::Num(id as f64)),
            ("status", Json::Str(status.to_string())),
            ("key", key_hex(key)),
        ];
        if coalesced {
            fields.insert(0, ("coalesced", Json::Bool(true)));
        }
        Response::json_status(202, Json::obj(fields).to_string())
    }

    /// `POST /solve`: the batch form when the body carries `"questions"`,
    /// the single-question form otherwise. The body is read once, straight
    /// from its text (`iis_core::cache::read_solve_body`).
    fn handle_solve(&self, body: &str) -> Response {
        let question = match read_solve_body(body) {
            Ok(SolveBody::One(q)) => q,
            Ok(SolveBody::Batch(questions)) => return self.handle_batch(questions),
            Err(e) => return Response::bad_request(&e),
        };
        match solve_request(question) {
            Err(e) => Response::bad_request(&e),
            Ok(req) => self.solve_one(&req),
        }
    }

    /// Answers one question. A waited cold question whose job this thread
    /// may run ([`SolveService::admit`]) is solved right here: no queue
    /// hop and no hand-off to a pool worker.
    fn solve_one(&self, req: &SolveRequest) -> Response {
        let deadline = Instant::now() + self.timeout;
        if let Some(resp) = self.answer_cached(req, deadline) {
            return resp;
        }
        match self.admit(req, req.wait, deadline) {
            Admission::Ready(resp) => resp,
            Admission::Full => self.queue_full(),
            Admission::Pending { id, key, coalesced } => self.respond(req.wait, id, key, coalesced),
            Admission::Run(job) => {
                let (id, key) = (job.id, job.key);
                self.run_job(job);
                self.respond(true, id, key, false)
            }
        }
    }

    /// The batch form: admit every question first (pass 1), so the worker
    /// pool solves them in parallel and duplicate keys coalesce, then
    /// settle them in order (pass 2). One answer per question, in the
    /// question's position; the envelope itself is always `200`. The
    /// batch's jobs share one deadline, and a batch larger than the free
    /// queue waits for them to make room ([`SolveService::admit_in_batch`]).
    fn handle_batch(&self, questions: Vec<(&str, QuestionText<'_>)>) -> Response {
        if questions.len() > MAX_BATCH {
            return Response::bad_request(&format!(
                "batch of {} questions exceeds the {MAX_BATCH}-question cap",
                questions.len()
            ));
        }
        static BATCH_REQUESTS: StaticCounter = StaticCounter::new("serve.batch_requests");
        BATCH_REQUESTS.incr();
        let deadline = Instant::now() + self.timeout;
        let mut mine: Vec<u64> = Vec::new();
        let admitted: Vec<(bool, Admission)> = questions
            .into_iter()
            .map(|(_, q)| match solve_request(q) {
                Ok(req) => {
                    let admission = self.admit_in_batch(&req, &mine, deadline);
                    if let Admission::Pending { id, .. } = admission {
                        mine.push(id);
                    }
                    (req.wait, admission)
                }
                Err(e) => (true, Admission::Ready(Response::bad_request(&e))),
            })
            .collect();
        let answers: Vec<(u16, String)> = admitted
            .into_iter()
            .map(|(wait, adm)| {
                let resp = match adm {
                    Admission::Ready(resp) => resp,
                    Admission::Full => self.queue_full(),
                    Admission::Pending { id, key, coalesced } => {
                        self.respond(wait, id, key, coalesced)
                    }
                    Admission::Run(_) => unreachable!("a batch question is never run by its asker"),
                };
                (resp.status, answer_body(resp))
            })
            .collect();
        Response::json(splice_envelope(
            answers
                .iter()
                .map(|(status, body)| (*status, body.as_str())),
        ))
    }

    /// `GET /jobs` and `GET /jobs/<id>`. The jobs listed are copied out
    /// under the state lock (a settled record is shared, not copied) and
    /// rendered after it is released, so a long listing never holds up
    /// admission or the workers.
    fn handle_jobs(&self, path: &str) -> Response {
        if path == "/jobs" {
            let listed: Vec<JobView> = lock(&self.state)
                .jobs
                .iter()
                .map(|(&id, job)| JobView::of(id, job))
                .collect();
            let jobs: Vec<String> = listed.iter().map(JobView::render).collect();
            return Response::json(format!("{{\"jobs\":[{}]}}", jobs.join(",")));
        }
        let id = path.strip_prefix("/jobs/").and_then(|s| s.parse().ok());
        let view = id.and_then(|id: u64| {
            let st = lock(&self.state);
            st.jobs.get(&id).map(|job| JobView::of(id, job))
        });
        match view {
            Some(view) => Response::json(view.render()),
            None => Response::not_found(),
        }
    }

    fn request_shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.changed.notify_all();
    }

    /// `GET /readyz`: `200` only when the service can actually take work —
    /// live workers, a writable store, no drain in progress. The body says
    /// why not, so a load balancer's probe log is diagnosable.
    fn handle_ready(&self) -> Response {
        let workers = self.workers_alive.load(Ordering::Acquire);
        let degraded = self
            .degraded
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Acquire));
        let (draining, queued) = {
            let st = lock(&self.state);
            (st.shutdown, st.queue.len())
        };
        let ready = workers > 0 && !degraded && !draining;
        let mut fields = vec![
            ("ready", Json::Bool(ready)),
            ("workers", workers.to_json()),
            ("queued", queued.to_json()),
        ];
        if degraded {
            fields.push(("degraded", Json::Str("read-only".to_string())));
        }
        if draining {
            fields.push(("draining", Json::Bool(true)));
        }
        let body = Json::obj(fields).to_string();
        if ready {
            Response::json(body)
        } else {
            Response::json_status(503, body)
        }
    }

    fn handle(&self, req: &Request) -> Option<Response> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/solve") => Some(match req.body_utf8() {
                Some(body) => self.handle_solve(body),
                None => Response::bad_request("body must be UTF-8"),
            }),
            ("POST", "/shutdown") => {
                self.request_shutdown();
                Some(Response::json("{\"ok\": true}".to_string()))
            }
            ("GET", "/healthz") => Some(Response::json("{\"ok\": true}".to_string())),
            ("GET", "/readyz") => Some(self.handle_ready()),
            ("GET", p) if p == "/jobs" || p.starts_with("/jobs/") => Some(self.handle_jobs(p)),
            // wrong method on a route this service does own: 405 + Allow
            (_, "/solve") | (_, "/shutdown") => Some(Response::method_not_allowed("POST")),
            (_, "/healthz") | (_, "/readyz") => Some(Response::method_not_allowed("GET")),
            (_, p) if p == "/jobs" || p.starts_with("/jobs/") => {
                Some(Response::method_not_allowed("GET"))
            }
            _ => None,
        }
    }
}

/// A job's deadline by default: with [`OVERRUN_GRACE`], short of the
/// gateway's default wait on a shard, so a shard answers `504` itself.
pub(crate) const DEFAULT_TIMEOUT_SECS: u64 = 8;

/// How long past its deadline a job may still be settling; the drain
/// waits this long past the last job's deadline.
const OVERRUN_GRACE: Duration = Duration::from_secs(1);

/// The flags `iis serve` takes, each with a value.
const SERVE_FLAGS: [&str; 5] = [
    "--addr",
    "--store",
    "--workers",
    "--queue",
    "--timeout-secs",
];

/// `iis serve [--addr A] [--store DIR] [--workers N] [--queue N]
/// [--timeout-secs T]` — see [`crate::USAGE`].
///
/// Binds `--addr` (default `127.0.0.1:0`; the bound address is printed to
/// stderr as `serving on http://…`), serves until `POST /shutdown`, then
/// drains gracefully (admission stops, in-flight and queued jobs get until
/// the last job's deadline plus a second to finish, the store is
/// flushed, the transport goes down last) and reports a one-line summary.
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments (naming any flag not listed
/// above), an unbindable address, or an unopenable store directory.
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    only_flags("serve", args, &SERVE_FLAGS)?;
    let addr = flag_value(args, "--addr")?
        .unwrap_or("127.0.0.1:0")
        .to_string();
    let workers: usize = flag_value(args, "--workers")?
        .unwrap_or("2")
        .parse()
        .map_err(|_| err("bad --workers"))?;
    if workers == 0 || workers > 64 {
        return Err(err("need 1 ≤ --workers ≤ 64"));
    }
    let max_queue: usize = flag_value(args, "--queue")?
        .unwrap_or("64")
        .parse()
        .map_err(|_| err("bad --queue"))?;
    if max_queue == 0 || max_queue > 4096 {
        return Err(err("need 1 ≤ --queue ≤ 4096"));
    }
    let timeout = flag_value(args, "--timeout-secs")?
        .map_or(Ok(DEFAULT_TIMEOUT_SECS), str::parse)
        .ok()
        .filter(|t| (1..=3600).contains(t))
        .ok_or_else(|| err("need 1 ≤ --timeout-secs ≤ 3600"))?;
    let store_dir = flag_value(args, "--store")?.map(String::from);
    // a service is always observable: /metrics must carry the serve.*
    // counters and gauge without requiring a global --stats/--serve flag
    iis_obs::set_enabled(true);
    iis_obs::metrics::gauge_set("serve.jobs_active", 0);
    let mut degraded = None;
    let store: Box<dyn SolveCache + Send> = match &store_dir {
        Some(dir) => {
            let store =
                Store::open(dir).map_err(|e| err(format!("cannot open store {dir}: {e}")))?;
            let rec = store.recovery();
            if rec.torn_bytes > 0 {
                eprintln!(
                    "store {dir}: recovered {} records, truncated {} torn bytes",
                    rec.records, rec.torn_bytes
                );
            }
            if rec.quarantined_segments > 0 {
                eprintln!(
                    "store {dir}: {} corrupt segments quarantined ({} checksum failures, \
                     {} records recovered) — serving read-only; /readyz reports degraded",
                    rec.quarantined_segments, rec.checksum_failures, rec.recovered_records
                );
            }
            degraded = Some(store.degraded_flag());
            Box::new(store)
        }
        None => Box::new(HashMap::new()),
    };
    // Pay the one-time subdivision-template construction now, not inside
    // the first request (library tasks top out at 3 processes; prewarming a
    // few widths beyond that is microseconds).
    iis_topology::template::prewarm(5);
    let timeout = Duration::from_secs(timeout);
    let service = Arc::new(SolveService::new(store, max_queue, timeout, degraded));
    let mut pool = Vec::new();
    for _ in 0..workers {
        let svc = Arc::clone(&service);
        pool.push(std::thread::spawn(move || svc.worker_loop()));
    }
    let handler: Arc<Handler> = {
        let svc = Arc::clone(&service);
        Arc::new(move |req: &Request| svc.handle(req))
    };
    let server = serve_with(&addr, handler).map_err(|e| err(format!("cannot bind {addr}: {e}")))?;
    eprintln!("serving on http://{}", server.addr());
    // park until POST /shutdown
    {
        let mut st = lock(&service.state);
        while !st.shutdown {
            st = service
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    // Graceful drain. Admission already answers 503 (handle_solve checks
    // `shutdown`); give in-flight and queued jobs until the last deadline
    // (plus grace) to settle while the transport stays up, so accepted
    // `wait: true` requests are answered rather than reset.
    {
        let mut st = lock(&service.state);
        let last = st.jobs.values().map(|job| job.deadline).max();
        let drain_by = last.unwrap_or_else(Instant::now) + OVERRUN_GRACE;
        while !st.queue.is_empty() || st.active > 0 {
            let Some(left) = drain_by.checked_duration_since(Instant::now()) else {
                break;
            };
            st = service
                .changed
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
    // Stop the pool (a worker mid-solve finishes its current job), fail
    // whatever is still queued past the drain so its waiters unblock,
    // let a job its asker runs finish as a worker's would, flush the
    // store, and only then tear the transport down.
    service.stop_workers.store(true, Ordering::Release);
    service.changed.notify_all();
    for t in pool {
        let _ = t.join();
    }
    {
        let mut st = lock(&service.state);
        let abandoned: Vec<u64> = st.queue.drain(..).collect();
        for id in abandoned {
            let why = "server shut down before the job could run".to_string();
            st.settle(id, Status::Failed(why));
        }
        st.inflight.clear();
        service.changed.notify_all();
        while st.active > 0 {
            st = service
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    lock(&service.store).flush();
    server.shutdown();
    let st = lock(&service.state);
    Ok(format!(
        "serve: {} jobs accepted, {} completed, store = {}\n",
        st.next_id - 1,
        st.completed,
        store_dir.as_deref().unwrap_or("(in-memory)")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    /// Runs `iis serve` on a background thread, returns (addr, join).
    fn start(
        extra: &[&str],
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<Result<String, CliError>>,
    ) {
        // capture the bound address via a pre-bound port-0 listener trick:
        // bind a throwaway listener, free its port, reuse the address.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let mut args: Vec<String> = vec!["--addr".into(), addr.to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let handle = std::thread::spawn(move || cmd_serve(&args));
        // wait for the listener to come up
        for _ in 0..200 {
            if TcpStream::connect(addr).is_ok() {
                return (addr, handle);
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("serve did not come up on {addr}");
    }

    fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (String, Json) {
        let (head, body) = request_text(addr, method, path, body);
        (head, Json::parse(&body).unwrap_or(Json::Null))
    }

    /// [`request`] with the reply body as sent.
    fn request_text(
        addr: std::net::SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn shutdown(
        addr: std::net::SocketAddr,
        handle: std::thread::JoinHandle<Result<String, CliError>>,
    ) -> String {
        let (head, _) = request(addr, "POST", "/shutdown", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        handle.join().unwrap().unwrap()
    }

    /// One question body read and resolved as `POST /solve` does.
    fn request_of(body: &str) -> Result<SolveRequest, String> {
        solve_request(iis_core::cache::read_question(body)?)
    }

    /// The inline-task question the CI smokes send: the committed fixture
    /// is `eps:1:3` as JSON, and asking it inline files it under the
    /// spec's key.
    #[test]
    fn inline_task_fixture_is_the_library_task() {
        use iis_obs::ToJson;
        let text = include_str!("../tests/golden/inline_task_eps_1_3.json").trim_end();
        let task = iis_tasks::library::parse_spec("eps:1:3").unwrap();
        assert_eq!(text, task.to_json().to_string());
        let body = format!(r#"{{"task": {text}, "max_rounds": 1}}"#);
        let req = request_of(&body).unwrap();
        assert_eq!(req.task.key(1), intern_spec("eps:1:3").unwrap().key(1));
    }

    #[test]
    fn kernel_is_not_a_request_field() {
        // once a 400 ("bad --kernel"), and `reference` once switched the
        // engine; the service now never reads the member
        let plain = request_of(r#"{"spec": "trivial:1"}"#);
        for kernel in ["reference", "turbo"] {
            let body = format!(r#"{{"spec": "trivial:1", "kernel": "{kernel}"}}"#);
            let req = request_of(&body).unwrap();
            assert_eq!(
                format!("{:?}", req.opts),
                format!("{:?}", plain.as_ref().unwrap().opts)
            );
        }
    }

    /// `jobs` far past the core count (here 2^62, four times which
    /// overflows `usize`) is clamped to the host's parallelism and changes
    /// no byte of the answer.
    #[test]
    fn huge_jobs_is_clamped_and_answers_the_same_bytes() {
        let body = r#"{"spec": "eps:1:3", "max_rounds": 1, "jobs": 4611686018427387904}"#;
        let req = request_of(body).unwrap();
        let clamped = SolveOptions::new()
            .budget(1_000_000)
            .jobs(host_parallelism());
        assert_eq!(format!("{:?}", req.opts), format!("{clamped:?}"));
        let (addr, handle) = start(&[]);
        let (head, huge) = request(addr, "POST", "/solve", body);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        shutdown(addr, handle);
        let (addr, handle) = start(&[]);
        let (head, plain) = request(
            addr,
            "POST",
            "/solve",
            r#"{"spec": "eps:1:3", "max_rounds": 1}"#,
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        shutdown(addr, handle);
        assert_eq!(huge.get("cached"), Some(&Json::Bool(false)), "{huge:?}");
        assert_eq!(
            huge.get("result").unwrap().to_string(),
            plain.get("result").unwrap().to_string()
        );
    }

    #[test]
    fn solve_twice_second_is_a_cache_hit_with_identical_witness() {
        let (addr, handle) = start(&[]);
        let body = r#"{"spec": "eps:1:3", "max_rounds": 2}"#;
        let (head, first) = request(addr, "POST", "/solve", body);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)), "{first:?}");
        let (head, second) = request(addr, "POST", "/solve", body);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)), "{second:?}");
        // the replayed record is bit-identical, witness included
        assert_eq!(
            first.get("result").unwrap().to_string(),
            second.get("result").unwrap().to_string()
        );
        assert!(first
            .get("result")
            .unwrap()
            .get("witness")
            .is_some_and(|w| *w != Json::Null));
        let summary = shutdown(addr, handle);
        assert!(summary.contains("1 jobs accepted"), "{summary}");
    }

    #[test]
    fn async_jobs_and_coalescing() {
        let (addr, handle) = start(&["--workers", "1"]);
        // park the single worker on a slow-ish solve, then coalesce onto it
        // (ε-agreement on a grid of 2 among 4: its distances refute b = 0,
        // and b = 1 takes a search for the witness)
        let body = r#"{"spec": "eps:3:2", "max_rounds": 1, "wait": false}"#;
        let (head, first) = request(addr, "POST", "/solve", body);
        assert!(head.starts_with("HTTP/1.1 202"), "{head}");
        let id = first.get("job").unwrap().as_f64().unwrap() as u64;
        let (_, again) = request(addr, "POST", "/solve", body);
        // either it coalesced onto the in-flight job, or the job already
        // finished and the store answered
        let coalesced = again.get("coalesced") == Some(&Json::Bool(true));
        let cached = again.get("cached") == Some(&Json::Bool(true));
        assert!(coalesced || cached, "{again:?}");
        if coalesced {
            assert_eq!(again.get("job").unwrap().as_f64().unwrap() as u64, id);
        }
        // poll the job to completion
        let mut done = false;
        for _ in 0..600 {
            let (_, job) = request(addr, "GET", &format!("/jobs/{id}"), "");
            match job.get("status").and_then(|s| s.as_str()) {
                Some("done") => {
                    // no decision map at b = 0, one at b = 1
                    let result = job.get("result").unwrap();
                    assert_eq!(
                        result.get("results").unwrap().to_string(),
                        "[[0,false],[1,true]]"
                    );
                    assert!(result.get("witness").is_some_and(|w| *w != Json::Null));
                    done = true;
                    break;
                }
                Some("queued") | Some("running") => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                other => panic!("unexpected status {other:?}: {job:?}"),
            }
        }
        assert!(done, "job never finished");
        let (_, list) = request(addr, "GET", "/jobs", "");
        assert!(matches!(list.get("jobs"), Some(Json::Arr(v)) if !v.is_empty()));
        shutdown(addr, handle);
    }

    #[test]
    fn store_survives_a_restart_with_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("iis_serve_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let body = r#"{"spec": "eps:1:3", "max_rounds": 2}"#;

        let (addr, handle) = start(&["--store", &dir_s]);
        let (_, first) = request(addr, "POST", "/solve", body);
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)), "{first:?}");
        shutdown(addr, handle);

        // a fresh process (same store dir) answers from disk
        let (addr, handle) = start(&["--store", &dir_s]);
        let (_, second) = request(addr, "POST", "/solve", body);
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)), "{second:?}");
        assert_eq!(
            first.get("result").unwrap().to_string(),
            second.get("result").unwrap().to_string(),
            "restart must replay bit-identical bytes"
        );
        let summary = shutdown(addr, handle);
        assert!(summary.contains("0 jobs accepted"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record that answers another round bound is a miss: the
    /// `(eps:1:3, 2)` record (solvable at b = 1) filed under the key of
    /// `(eps:1:3, 0)` must not answer "within 0 rounds".
    #[test]
    fn a_record_filed_under_another_bound_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("iis_serve_bound_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let keyed = intern_spec("eps:1:3").unwrap();
        let wrong =
            iis_core::cache::report_to_json(&iis_core::solvability::solve_up_to(keyed.task(), 2))
                .to_string();
        {
            let mut store = Store::open(&dir).unwrap();
            assert!(store.put(keyed.key(0), &wrong).unwrap());
            store.flush().unwrap();
        }
        let (addr, handle) = start(&["--store", dir.to_str().unwrap()]);
        let (head, reply) = request(
            addr,
            "POST",
            "/solve",
            r#"{"spec": "eps:1:3", "max_rounds": 0}"#,
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        shutdown(addr, handle);
        assert_eq!(reply.get("cached"), Some(&Json::Bool(false)), "{reply:?}");
        let result = reply.get("result").unwrap();
        assert_eq!(result.get("results").unwrap().to_string(), "[[0,false]]");
        assert_eq!(result.get("witness"), Some(&Json::Null));
        // first write wins: the bad bytes stay, and stay a miss
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.get(keyed.key(0)).unwrap(), Some(wrong));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_requests_are_400s() {
        let (addr, handle) = start(&[]);
        for body in [
            "not json",
            "{}",
            r#"{"spec": "nope:9"}"#,
            r#"{"spec": "eps:1:3", "task": {}}"#,
            r#"{"spec": "eps:1:3", "wait": "yes"}"#,
            r#"{"spec": "eps:1:3", "max_rounds": 99}"#,
        ] {
            let (head, _) = request(addr, "POST", "/solve", body);
            assert!(head.starts_with("HTTP/1.1 400"), "{body}: {head}");
        }
        // unknown job
        let (head, _) = request(addr, "GET", "/jobs/999", "");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        // built-ins still answer
        let (head, _) = request(addr, "GET", "/metrics", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        shutdown(addr, handle);
    }

    #[test]
    fn inline_task_bodies_are_accepted() {
        let (addr, handle) = start(&[]);
        let task = iis_tasks::library::trivial(1);
        let body =
            Json::obj([("task", task.to_json()), ("max_rounds", Json::Num(1.0))]).to_string();
        let (head, reply) = request(addr, "POST", "/solve", &body);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let results = reply.get("result").unwrap().get("results").unwrap();
        assert_eq!(results.to_string(), "[[0,true]]");
        // the same task by spec hits the same record: content addressing
        let (_, by_spec) = request(
            addr,
            "POST",
            "/solve",
            r#"{"spec": "trivial:1", "max_rounds": 1}"#,
        );
        assert_eq!(
            by_spec.get("cached"),
            Some(&Json::Bool(true)),
            "{by_spec:?}"
        );
        assert_eq!(reply.get("key"), by_spec.get("key"));
        shutdown(addr, handle);
    }

    #[test]
    fn batch_solve_answers_in_order_with_per_question_statuses() {
        let (addr, handle) = start(&["--workers", "2"]);
        let body = r#"{"questions": [
            {"spec": "eps:1:3", "max_rounds": 2},
            {"spec": "trivial:1", "max_rounds": 1},
            {"spec": "nope:9"},
            {"spec": "eps:1:3", "max_rounds": 2}
        ]}"#;
        let (head, reply) = request(addr, "POST", "/solve", body);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let Some(Json::Arr(answers)) = reply.get("answers") else {
            panic!("{reply:?}");
        };
        assert_eq!(answers.len(), 4);
        let status = |i: usize| answers[i].get("status").unwrap().as_f64().unwrap() as u16;
        assert_eq!(
            (status(0), status(1), status(2), status(3)),
            (200, 200, 400, 200)
        );
        assert!(
            answers[2]
                .get("body")
                .unwrap()
                .to_string()
                .contains("error"),
            "{:?}",
            answers[2]
        );
        // questions 0 and 3 share a key: one solved, the other coalesced
        // onto it (or answered from the store) — byte-identical either way
        let result = |i: usize| {
            answers[i]
                .get("body")
                .unwrap()
                .get("result")
                .unwrap()
                .to_string()
        };
        assert_eq!(result(0), result(3));
        // a second batch replays everything from the store
        let (_, again) = request(addr, "POST", "/solve", body);
        let Some(Json::Arr(again)) = again.get("answers") else {
            panic!();
        };
        assert_eq!(
            again[0].get("body").unwrap().get("cached"),
            Some(&Json::Bool(true)),
            "{:?}",
            again[0]
        );
        assert_eq!(
            result(0),
            again[0]
                .get("body")
                .unwrap()
                .get("result")
                .unwrap()
                .to_string()
        );
        shutdown(addr, handle);
    }

    #[test]
    fn batch_response_schema_matches_golden() {
        let (addr, handle) = start(&[]);
        let (_, reply) = request(
            addr,
            "POST",
            "/solve",
            r#"{"questions": [{"spec": "trivial:1", "max_rounds": 1}]}"#,
        );
        // the batch schema is a wire contract (the gateway re-parses it):
        // envelope keys, then element keys, then a fresh-solve body's keys,
        // in writing order, against the committed golden file
        let keys_of = |j: &Json| -> Vec<String> {
            match j {
                Json::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect(),
                other => panic!("expected an object, got {other:?}"),
            }
        };
        let Some(Json::Arr(answers)) = reply.get("answers") else {
            panic!("{reply:?}");
        };
        let mut observed = keys_of(&reply);
        observed.extend(keys_of(&answers[0]));
        observed.extend(keys_of(answers[0].get("body").unwrap()));
        let golden: Vec<&str> = include_str!("../tests/golden/batch_keys.txt")
            .lines()
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(observed, golden, "committed batch schema drifted");
        shutdown(addr, handle);
    }

    #[test]
    fn oversized_batch_body_is_rejected_from_its_declared_length() {
        let (addr, handle) = start(&[]);
        // declare a body over the 1 MiB default max_body but send none:
        // the server must answer from the header alone
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            2 * 1024 * 1024
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("body exceeds maximum size"), "{text}");
        shutdown(addr, handle);
    }

    #[test]
    fn batch_cap_and_empty_batch() {
        let svc = stalled_service(4096, Duration::from_secs(60));
        let r = svc.handle_solve(r#"{"questions": []}"#);
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"answers\":[]}");
        let r = svc.handle_solve(r#"{"questions": 3}"#);
        assert_eq!(r.status, 400);
        let many: Vec<String> = (0..=MAX_BATCH)
            .map(|_| r#"{"spec": "trivial:1", "wait": false}"#.to_string())
            .collect();
        let r = svc.handle_solve(&format!("{{\"questions\": [{}]}}", many.join(",")));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("cap"), "{}", r.body);
        // non-waiting questions come back as 202 elements in the envelope
        let r = svc.handle_solve(
            r#"{"questions": [{"spec": "trivial:1", "wait": false},
                              {"spec": "trivial:1", "wait": false}]}"#,
        );
        assert_eq!(r.status, 200);
        let v = Json::parse(&r.body).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("{}", r.body);
        };
        assert_eq!(answers[0].get("status"), Some(&Json::Num(202.0)));
        // the duplicate key coalesced at admission, not a second job
        assert_eq!(
            answers[1].get("body").unwrap().get("coalesced"),
            Some(&Json::Bool(true)),
            "{:?}",
            answers[1]
        );
    }

    #[test]
    fn file_specs_are_refused_alike_by_shard_and_gateway() {
        // a readable, valid task file: `iis solve @file` loads it, but a
        // network question naming it must not make the shard read it
        let dir = std::env::temp_dir().join(format!("iis_serve_at_spec_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("task.json");
        std::fs::write(&path, iis_tasks::library::trivial(1).to_json().to_string()).unwrap();
        let spec = format!("@{}", path.display());
        assert!(
            crate::parse_task(&spec).is_ok(),
            "the CLI still reads files"
        );
        let body = Json::obj([("spec", Json::Str(spec.clone()))]).to_string();
        let shard = stalled_service(4, Duration::from_secs(60)).handle_solve(&body);
        assert_eq!(shard.status, 400);
        let gateway = iis_cluster::Gateway::new(
            Arc::new(iis_cluster::HttpTransport::new(Duration::from_secs(1))),
            iis_cluster::GatewayConfig {
                backends: Vec::new(),
                replicas: 1,
                workers: 1,
            },
        );
        let (status, gateway_body) = gateway.solve_one(&body);
        assert_eq!(status, 400);
        assert_eq!(shard.body, gateway_body, "same refusal at both hops");
        let error = Json::parse(&shard.body).unwrap();
        assert_eq!(
            error.get("error").and_then(Json::as_str),
            Some(format!("unknown task spec: {spec}").as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn numeric_fields_are_refused_alike_by_shard_and_gateway() {
        let gateway = iis_cluster::Gateway::new(
            Arc::new(iis_cluster::HttpTransport::new(Duration::from_secs(1))),
            iis_cluster::GatewayConfig {
                backends: Vec::new(),
                replicas: 1,
                workers: 1,
            },
        );
        let shard = stalled_service(4, Duration::from_secs(60));
        for (field, bad) in [
            ("max_rounds", "-1"),
            ("max_rounds", "2.5"),
            ("max_rounds", "\"2\""),
            ("budget", "-5"),
            ("budget", "0.5"),
            ("jobs", "-1"),
            ("jobs", "true"),
        ] {
            let body = format!(r#"{{"spec": "trivial:1", "{field}": {bad}}}"#);
            let refusal = Json::obj([(
                "error",
                Json::Str(format!("\"{field}\" must be a non-negative integer")),
            )])
            .to_string();
            let reply = shard.handle_solve(&body);
            assert_eq!((reply.status, &reply.body), (400, &refusal), "{body}");
            let in_batch = shard.handle_solve(&format!(r#"{{"questions": [{body}]}}"#));
            assert_eq!(
                in_batch.body,
                format!(r#"{{"answers":[{{"status":400,"body":{refusal}}}]}}"#)
            );
            // the gateway reads the question with the shard's reader and
            // refuses it the same way, without a round trip
            assert_eq!(gateway.solve_one(&body), (400, refusal), "{body}");
        }
        // integral floats and zero are still integers
        for good in ["0", "2.0", "1e0"] {
            let body = format!(r#"{{"spec": "trivial:1", "budget": {good}, "wait": false}}"#);
            assert_eq!(shard.handle_solve(&body).status, 202, "{body}");
        }
    }

    /// A task whose input is one facet of `n` processes, deciding its own
    /// inputs: small to send, whatever its width. `Δ` holds the facet and
    /// each vertex and edge of it, so its distances refute no round and a
    /// sweep of it goes on to the tower.
    fn identity_task_of_width(n: usize) -> iis_tasks::Task {
        let simplex = iis_topology::Complex::standard_simplex(n - 1);
        let full = iis_topology::Simplex::new(simplex.vertex_ids());
        let mut b = iis_tasks::TaskBuilder::new("wide", simplex.clone(), simplex);
        for face in (1..=2).flat_map(|k| full.faces_of_dim(k - 1)) {
            b.allow(face.clone(), face);
        }
        b.allow(full.clone(), full);
        b.build().unwrap()
    }

    #[test]
    fn over_bound_questions_are_refused_fast_alike_by_shard_and_gateway() {
        // one spec past each family's build-cost bound (`oneshot:6` would
        // take minutes to build inside the handler), the 17-process
        // trivial task at b = 0 and b = 1, and an inline task of 17
        // processes: each is refused before anything is built or queued
        // (`wait: false`, so an admitted question could not block here)
        let gateway = iis_cluster::Gateway::new(
            Arc::new(iis_cluster::HttpTransport::new(Duration::from_secs(1))),
            iis_cluster::GatewayConfig {
                backends: Vec::new(),
                replicas: 1,
                workers: 1,
            },
        );
        let shard = stalled_service(4, Duration::from_secs(60));
        let wide = identity_task_of_width(17).to_json().to_string();
        for (body, bound) in [
            (
                r#"{"spec": "trivial:16", "max_rounds": 0, "wait": false}"#.to_string(),
                "N ≤ 14",
            ),
            (
                r#"{"spec": "trivial:16", "max_rounds": 1, "wait": false}"#.to_string(),
                "N ≤ 14",
            ),
            (
                r#"{"spec": "consensus:12", "wait": false}"#.to_string(),
                "N ≤ 7",
            ),
            (
                r#"{"spec": "kset:8:2", "wait": false}"#.to_string(),
                "N + K ≤ 7",
            ),
            (
                r#"{"spec": "renaming:5:9", "wait": false}"#.to_string(),
                "N < M",
            ),
            (
                r#"{"spec": "eps:1:10000000", "wait": false}"#.to_string(),
                "GRID·8^(N+1)",
            ),
            (
                r#"{"spec": "oneshot:6", "wait": false}"#.to_string(),
                "N ≤ 4",
            ),
            (
                format!(r#"{{"task": {wide}, "max_rounds": 0, "wait": false}}"#),
                "limit of 16",
            ),
        ] {
            let started = std::time::Instant::now();
            let reply = shard.handle_solve(&body);
            let (status, gateway_body) = gateway.solve_one(&body);
            assert!(started.elapsed() < Duration::from_secs(5), "{body}");
            assert_eq!((reply.status, status), (400, 400), "{body}");
            assert_eq!(reply.body, gateway_body, "same refusal at both hops");
            let error = Json::parse(&reply.body).unwrap();
            let message = error.get("error").and_then(Json::as_str).unwrap();
            assert!(message.contains(bound), "{body}: {message}");
        }
        assert!(lock(&shard.state).jobs.is_empty(), "nothing was queued");
    }

    /// A task with a Sperner certificate answers every round exactly —
    /// sweeps the search could not finish in its budget, or whose towers
    /// are past the facet cap — with the all-false record an exact search
    /// gives. The record is stored: a re-ask is a hit with the same bytes.
    #[test]
    fn certified_refutations_answer_exactly_and_are_stored() {
        let (addr, handle) = start(&[]);
        for (spec, max_rounds, name) in [
            ("kset:2:2", 2, "(3,2)-set-consensus"),
            ("kset:3:3", 1, "(4,3)-set-consensus"),
            ("kset:4:3", 1, "(5,3)-set-consensus"),
            ("consensus:2", 4, "consensus"),
            ("consensus:2", 6, "consensus"),
        ] {
            let body = format!(r#"{{"spec": "{spec}", "max_rounds": {max_rounds}}}"#);
            let results: Vec<String> = (0..=max_rounds).map(|b| format!("[{b},false]")).collect();
            let record = format!(
                r#"{{"results":[{}],"task":"{name}","witness":null}}"#,
                results.join(",")
            );
            let (head, first) = request(addr, "POST", "/solve", &body);
            assert!(head.starts_with("HTTP/1.1 200"), "{spec}: {head}");
            assert_eq!(first.get("cached"), Some(&Json::Bool(false)), "{spec}");
            assert_eq!(first.get("result").unwrap().to_string(), record, "{spec}");
            let (head, again) = request(addr, "POST", "/solve", &body);
            assert!(head.starts_with("HTTP/1.1 200"), "{spec}: {head}");
            assert_eq!(again.get("cached"), Some(&Json::Bool(true)), "{spec}");
            assert_eq!(again.get("result").unwrap().to_string(), record, "{spec}");
        }
        shutdown(addr, handle);
    }

    #[test]
    fn a_panicking_solve_fails_its_job_and_keeps_the_worker() {
        // a 17-process task reaches the worker only past the question
        // reader; its solve panics at b = 0 and at b = 1
        let svc = Arc::new(stalled_service(8, Duration::from_secs(30)));
        let worker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.worker_loop())
        };
        let task = Arc::new(KeyedTask::new(identity_task_of_width(17)));
        for max_rounds in [0, 1] {
            let key = task.key(max_rounds);
            let id = {
                let mut st = lock(&svc.state);
                let id = st.next_id;
                st.next_id += 1;
                st.jobs.insert(
                    id,
                    Job {
                        spec: "wide".into(),
                        task: Some(Arc::clone(&task)),
                        key,
                        max_rounds,
                        opts: SolveOptions::new(),
                        deadline: Instant::now() + Duration::from_secs(30),
                        status: Status::Queued,
                    },
                );
                st.inflight.insert(key, id);
                st.queue.push_back(id);
                svc.changed.notify_all();
                id
            };
            let reply = svc.respond(true, id, key, false);
            assert_eq!(reply.status, 500, "b = {max_rounds}: {}", reply.body);
            assert!(reply.body.contains("solve panicked"), "{}", reply.body);
            assert!(!lock(&svc.state).inflight.contains_key(&key));
        }
        assert_eq!(svc.workers_alive.load(Ordering::Acquire), 1);
        // and the worker still answers the next question
        let r = svc.handle_solve(r#"{"spec": "eps:1:3", "max_rounds": 1}"#);
        assert_eq!(r.status, 200, "{}", r.body);
        svc.stop_workers.store(true, Ordering::Release);
        svc.changed.notify_all();
        worker.join().unwrap();
    }

    /// The asking thread runs a waited cold question when a worker's slot
    /// is free; a solve that panics there fails its job (`500`), gives back
    /// its slot and its in-flight key, and the thread answers on.
    #[test]
    fn a_panicking_solve_on_the_askers_thread_fails_its_job_not_the_handler() {
        // one live worker's slot and no worker thread: a job that queued
        // instead of running here would never be answered
        let svc = stalled_service(8, Duration::from_secs(30));
        let _slot = AliveGuard::enroll(&svc.workers_alive);
        // past the question reader's width check, as in the pool's test
        let task = Arc::new(KeyedTask::new(identity_task_of_width(17)));
        for max_rounds in [0, 1] {
            let req = SolveRequest {
                spec: "wide".to_string(),
                task: Arc::clone(&task),
                max_rounds,
                opts: SolveOptions::new(),
                wait: true,
            };
            let reply = svc.solve_one(&req);
            assert_eq!(reply.status, 500, "b = {max_rounds}: {}", reply.body);
            assert!(reply.body.contains("solve panicked"), "{}", reply.body);
            let st = lock(&svc.state);
            assert_eq!((st.active, st.queue.len()), (0, 0));
            assert!(!st.inflight.contains_key(&task.key(max_rounds)));
        }
        let r = svc.handle_solve(r#"{"spec": "eps:1:3", "max_rounds": 1}"#);
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.starts_with(r#"{"cached":false,"#), "{}", r.body);
    }

    /// With `--workers 1`, a cold question its asker runs takes the one
    /// solve slot: a second question sent meanwhile queues until it
    /// settles, so `/jobs` never lists two running jobs, and both answer
    /// their canonical records.
    #[test]
    fn workers_bound_the_solves_askers_run() {
        // eps:4:2's search at b = 1 (its distances refute b = 0) runs past
        // the default deadline in a debug build
        let (addr, handle) = start(&["--workers", "1", "--timeout-secs", "60"]);
        // intern the slow task first, so its ask goes straight to its solve
        let (head, _) = request(
            addr,
            "POST",
            "/solve",
            r#"{"spec": "eps:4:2", "max_rounds": 0}"#,
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let statuses = || -> Vec<String> {
            let (_, list) = request(addr, "GET", "/jobs", "");
            let jobs = list.get("jobs").and_then(Json::as_array).unwrap();
            jobs.iter()
                .filter_map(|job| job.get("status").and_then(Json::as_str))
                .map(String::from)
                .collect()
        };
        let running = |statuses: &[String]| statuses.iter().filter(|s| *s == "running").count();
        let ask = |spec: &str| {
            let body = format!(r#"{{"spec": "{spec}", "max_rounds": 2}}"#);
            std::thread::spawn(move || request_text(addr, "POST", "/solve", &body))
        };
        let slow = ask("eps:4:2");
        // the second question is sent once the first holds the slot
        while running(&statuses()) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let fast = ask("eps:1:3");
        let (mut most_running, mut saw_queued) = (1, false);
        while !(slow.is_finished() && fast.is_finished()) {
            let now = statuses();
            most_running = most_running.max(running(&now));
            saw_queued |= now.iter().any(|s| s == "queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(most_running, 1, "one worker, one running solve");
        assert!(saw_queued, "the second question waited for the slot");
        let asks = [("eps:4:2", slow), ("eps:1:3", fast)];
        for (spec, ask) in asks {
            let (head, reply) = ask.join().unwrap();
            assert!(head.starts_with("HTTP/1.1 200"), "{spec}: {head}");
            let keyed = intern_spec(spec).unwrap();
            let mut store = HashMap::new();
            iis_core::cache::solve_up_to_cached(keyed.task(), 2, &SolveOptions::new(), &mut store);
            assert_eq!(result_of(&reply), store[&keyed.key(2)], "{spec}");
        }
        shutdown(addr, handle);
    }

    #[test]
    fn a_batch_larger_than_the_queue_answers_every_question() {
        // one worker and two queue slots: the batch waits for its own
        // jobs to drain instead of shedding its tail with 503s
        let svc = Arc::new(stalled_service(2, Duration::from_secs(60)));
        let worker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.worker_loop())
        };
        let questions: Vec<String> = (2..10)
            .map(|k| format!(r#"{{"spec": "eps:0:{k}", "max_rounds": 1}}"#))
            .collect();
        let reply = svc.handle_solve(&format!(r#"{{"questions": [{}]}}"#, questions.join(",")));
        let v = Json::parse(&reply.body).unwrap();
        let statuses: Vec<f64> = v
            .get("answers")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|a| a.get("status").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(statuses, [200.0; 8], "{}", reply.body);
        svc.stop_workers.store(true, Ordering::Release);
        svc.changed.notify_all();
        worker.join().unwrap();
    }

    #[test]
    fn cmd_serve_flag_errors() {
        assert!(cmd_serve(&["--workers".into(), "0".into()]).is_err());
        assert!(cmd_serve(&["--workers".into(), "nope".into()]).is_err());
        assert!(cmd_serve(&["--addr".into(), "256.0.0.1:99999".into()]).is_err());
        assert!(cmd_serve(&["--queue".into(), "0".into()]).is_err());
        assert!(cmd_serve(&["--queue".into(), "nope".into()]).is_err());
        assert!(cmd_serve(&["--timeout-secs".into(), "nope".into()]).is_err());
        assert!(cmd_serve(&["--drain-secs".into(), "nope".into()]).is_err());
        assert!(cmd_serve(&["--timeout-secs".into(), "0".into()]).is_err());
        assert!(cmd_serve(&["--timeout-secs".into(), "3601".into()]).is_err());
        // a flag the service does not take is named, before anything is
        // bound: the drain has no knob of its own, and a typo is no default
        for (args, named) in [
            (&["--drain-secs", "30"][..], "--drain-secs"),
            (&["--worker", "4"], "--worker"),
            (&["--addr=127.0.0.1:0", "--timeout=5"], "--timeout=5"),
            (&["--queue", "8", "stray"], "stray"),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let e = cmd_serve(&args).unwrap_err();
            assert_eq!(e.to_string(), format!("serve does not take {named}"));
        }
    }

    /// A shard gives up on a job, and answers its own `504`, before the
    /// gateway in front of it gives up on the shard: the default deadline
    /// plus the overrun grace is short of the gateway's default wait, so a
    /// heavy question is never counted as a shard fault and failed over.
    #[test]
    fn the_default_deadline_answers_before_the_gateway_gives_up() {
        let settled_by = Duration::from_secs(DEFAULT_TIMEOUT_SECS) + OVERRUN_GRACE;
        let gateway_waits = Duration::from_secs(crate::gateway::UPSTREAM_TIMEOUT_SECS);
        assert!(
            settled_by < gateway_waits,
            "{settled_by:?} vs {gateway_waits:?}"
        );
    }

    /// A request coalesced onto a job waits until the job's deadline, not
    /// for a deadline of its own: past it, the answer is an immediate `504`.
    #[test]
    fn a_coalesced_waiter_shares_the_jobs_deadline() {
        let svc = stalled_service(8, Duration::from_millis(200));
        let r = svc.handle_solve(r#"{"spec": "trivial:1", "wait": false}"#);
        assert_eq!(r.status, 202, "{}", r.body);
        std::thread::sleep(Duration::from_millis(250));
        let start = Instant::now();
        let r = svc.handle_solve(r#"{"spec": "trivial:1"}"#);
        let waited = start.elapsed();
        assert_eq!(r.status, 504, "{}", r.body);
        assert!(r
            .body
            .starts_with(r#"{"error":"deadline exceeded after 200ms; poll /jobs/1","#));
        assert!(waited < Duration::from_millis(150), "{waited:?}");
    }

    /// Every job a batch makes has the batch's one deadline, so a batch of
    /// stalled questions answers all its `504`s within one deadline, not
    /// one after another.
    #[test]
    fn a_batchs_jobs_share_one_deadline() {
        let svc = stalled_service(8, Duration::from_millis(300));
        let questions = ["trivial:1", "trivial:2", "eps:1:3"]
            .map(|spec| format!(r#"{{"spec": "{spec}", "max_rounds": 1}}"#));
        let start = Instant::now();
        let reply = svc.handle_solve(&format!(r#"{{"questions": [{}]}}"#, questions.join(",")));
        let waited = start.elapsed();
        let v = Json::parse(&reply.body).unwrap();
        let answers = v.get("answers").and_then(Json::as_array).unwrap();
        for a in answers {
            assert_eq!(
                a.get("status").and_then(Json::as_u64),
                Some(504),
                "{}",
                reply.body
            );
        }
        assert!(waited >= Duration::from_millis(300), "{waited:?}");
        assert!(waited < Duration::from_millis(600), "{waited:?}");
        let st = lock(&svc.state);
        let deadlines: Vec<Instant> = st.jobs.values().map(|job| job.deadline).collect();
        assert_eq!(deadlines.len(), 3);
        assert!(deadlines.iter().all(|&d| d == deadlines[0]));
    }

    /// A service with no worker pool: jobs queue forever, which makes
    /// admission and deadline behavior deterministic to test.
    fn stalled_service(max_queue: usize, timeout: Duration) -> SolveService {
        SolveService::new(Box::new(HashMap::new()), max_queue, timeout, None)
    }

    /// The reply as the shard rendered it before splicing: parse every
    /// spliced piece back into a tree and render the whole thing.
    fn rerendered(reply: &str) -> String {
        Json::parse(reply).unwrap().to_string()
    }

    #[test]
    fn spliced_replies_equal_the_parse_render_construction() {
        let specs = ["eps:1:3", "trivial:1", "consensus:1", "oneshot:1"];
        let mut store = HashMap::new();
        let mut records = Vec::new();
        for spec in specs {
            let keyed = intern_spec(spec).unwrap();
            iis_core::cache::solve_up_to_cached(keyed.task(), 2, &SolveOptions::new(), &mut store);
            let key = keyed.key(2);
            records.push((key, store.get(&key).cloned().unwrap()));
        }
        let svc = SolveService::new(Box::new(store), 8, Duration::from_secs(60), None);
        for (spec, (key, record)) in specs.iter().zip(&records) {
            let reply = svc.handle_solve(&format!(r#"{{"spec": "{spec}", "max_rounds": 2}}"#));
            assert_eq!(reply.status, 200);
            let old = Json::obj([
                ("cached", Json::Bool(true)),
                ("key", key_hex(*key)),
                ("result", Json::parse(record).unwrap()),
            ])
            .to_string();
            assert_eq!(reply.body, old, "{spec}");
        }
        // a batch mixing hits, a refusal and a queued question
        let batch = r#"{"questions": [
            {"spec": "eps:1:3", "max_rounds": 2},
            {"spec": "nope:1"},
            {"spec": "oneshot:1", "max_rounds": 2},
            {"spec": "trivial:2", "wait": false},
            {"spec": "eps:1:3", "max_rounds": 2}
        ]}"#;
        let reply = svc.handle_solve(batch);
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, rerendered(&reply.body));
        let v = Json::parse(&reply.body).unwrap();
        let statuses: Vec<u64> = v
            .get("answers")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|a| a.get("status").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(statuses, [200, 400, 200, 202, 200]);
        let element = |i: usize| v.get("answers").unwrap().as_array().unwrap()[i].clone();
        assert_eq!(
            element(0).get("body").unwrap().to_string(),
            svc.handle_solve(r#"{"spec": "eps:1:3", "max_rounds": 2}"#)
                .body
        );
    }

    #[test]
    fn settled_jobs_keep_their_bytes_and_drop_their_task() {
        let svc = Arc::new(stalled_service(8, Duration::from_secs(60)));
        let worker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.worker_loop())
        };
        let solved = svc.handle_solve(r#"{"spec": "eps:1:3", "max_rounds": 2}"#);
        assert_eq!(solved.status, 200);
        let record = Json::parse(&solved.body)
            .unwrap()
            .get("result")
            .unwrap()
            .clone();
        // the reply the waiter got, as the tree construction rendered it
        let key = intern_spec("eps:1:3").unwrap().key(2);
        let old_reply = Json::obj([
            ("cached", Json::Bool(false)),
            ("job", Json::Num(1.0)),
            ("key", key_hex(key)),
            ("result", record.clone()),
        ])
        .to_string();
        assert_eq!(solved.body, old_reply);
        let old_job = Json::obj([
            ("job", Json::Num(1.0)),
            ("spec", Json::Str("eps:1:3".into())),
            ("max_rounds", Json::Num(2.0)),
            ("status", Json::Str("done".into())),
            ("cached", Json::Bool(false)),
            ("result", record),
        ]);
        let one = svc.handle_jobs("/jobs/1");
        assert_eq!(one.body, old_job.to_string());
        let all = svc.handle_jobs("/jobs");
        assert_eq!(
            all.body,
            Json::obj([("jobs", Json::Arr(vec![old_job]))]).to_string()
        );
        // the settled job holds its record text, not its task
        assert!(lock(&svc.state).jobs[&1].task.is_none());
        svc.stop_workers.store(true, Ordering::Release);
        svc.changed.notify_all();
        worker.join().unwrap();
        // an empty registry lists no jobs
        let r = stalled_service(8, Duration::from_secs(60)).handle_jobs("/jobs");
        assert_eq!(r.body, "{\"jobs\":[]}");
    }

    #[test]
    fn jobs_listed_outside_the_lock_keep_their_bytes() {
        let svc = stalled_service(8, Duration::from_secs(60));
        for spec in ["eps:1:3", "trivial:1", "oneshot:1"] {
            let body = format!(r#"{{"spec": "{spec}", "max_rounds": 1, "wait": false}}"#);
            assert_eq!(svc.handle_solve(&body).status, 202);
        }
        let record = r#"{"results":[[0,true]],"task":"t","witness":null}"#;
        {
            let mut st = lock(&svc.state);
            let done = Status::Done {
                result: record.into(),
                cached: true,
            };
            st.settle(1, done);
            st.settle(3, Status::Inconclusive("inconclusive: \"why\"".into()));
        }
        let job = |id: f64, spec: &str, status: &str, tail: Vec<(&'static str, Json)>| {
            let mut fields = vec![
                ("job", Json::Num(id)),
                ("spec", Json::Str(spec.into())),
                ("max_rounds", Json::Num(1.0)),
                ("status", Json::Str(status.into())),
            ];
            fields.extend(tail);
            Json::obj(fields)
        };
        let listed = Json::obj([(
            "jobs",
            Json::Arr(vec![
                job(
                    1.0,
                    "eps:1:3",
                    "done",
                    vec![
                        ("cached", Json::Bool(true)),
                        ("result", Json::parse(record).unwrap()),
                    ],
                ),
                job(2.0, "trivial:1", "queued", vec![]),
                job(
                    3.0,
                    "oneshot:1",
                    "inconclusive",
                    vec![("error", Json::Str("inconclusive: \"why\"".into()))],
                ),
            ]),
        )]);
        assert_eq!(svc.handle_jobs("/jobs").body, listed.to_string());
        let one = svc.handle_jobs("/jobs/1").body;
        assert_eq!(
            one,
            listed.get("jobs").unwrap().as_array().unwrap()[0].to_string()
        );
    }

    /// The record a `POST /solve` reply carries.
    fn result_of(reply: &str) -> &str {
        let spliced = reply.split_once("\"result\":").unwrap().1;
        spliced.strip_suffix('}').unwrap()
    }

    #[test]
    fn a_verified_record_is_served_after_its_segment_is_corrupted() {
        let dir = std::env::temp_dir().join(format!("iis_serve_memo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let keyed = intern_spec("eps:1:3").unwrap();
        {
            let mut store = Store::open(&dir).unwrap();
            iis_core::cache::solve_up_to_cached(keyed.task(), 2, &SolveOptions::new(), &mut store);
            store.flush().unwrap();
        }
        let svc = Arc::new(SolveService::new(
            Box::new(Store::open(&dir).unwrap()),
            8,
            Duration::from_secs(60),
            None,
        ));
        let worker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.worker_loop())
        };
        let body = r#"{"spec": "eps:1:3", "max_rounds": 2}"#;
        let first = svc.handle_solve(body);
        assert_eq!(first.status, 200);
        assert!(
            first.body.starts_with(r#"{"cached":true,"#),
            "{}",
            first.body
        );
        // corrupt the record on disk, keeping every offset
        let seg = dir.join("seg-00000.jsonl");
        let text = std::fs::read_to_string(&seg).unwrap();
        let corrupt = text.replacen("[[0,", "[[7,", 1);
        assert_ne!(corrupt, text);
        std::fs::write(&seg, corrupt).unwrap();
        // the re-ask answers the bytes this service verified
        let again = svc.handle_solve(body);
        assert_eq!((again.status, &again.body), (200, &first.body));
        // while the store itself no longer hands them over
        assert_eq!(lock(&svc.store).get(keyed.key(2)), None);
        svc.stop_workers.store(true, Ordering::Release);
        svc.changed.notify_all();
        worker.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_service_on_a_fresh_store_solves_and_persists() {
        let keyed = intern_spec("eps:1:3").unwrap();
        let mut filled = HashMap::new();
        iis_core::cache::solve_up_to_cached(keyed.task(), 2, &SolveOptions::new(), &mut filled);
        let warm = SolveService::new(Box::new(filled), 8, Duration::from_secs(60), None);
        let body = r#"{"spec": "eps:1:3", "max_rounds": 2}"#;
        let hit = warm.handle_solve(body);
        assert_eq!(warm.handle_solve(body).body, hit.body, "a memo hit");
        assert!(hit.body.starts_with(r#"{"cached":true,"#), "{}", hit.body);
        // another service on another store shares nothing with the first
        let fresh = Arc::new(stalled_service(8, Duration::from_secs(60)));
        let worker = {
            let svc = Arc::clone(&fresh);
            std::thread::spawn(move || svc.worker_loop())
        };
        let cold = fresh.handle_solve(body);
        assert_eq!(cold.status, 200);
        assert!(
            cold.body.starts_with(r#"{"cached":false,"#),
            "{}",
            cold.body
        );
        assert_eq!(result_of(&cold.body), result_of(&hit.body));
        let stored = lock(&fresh.store).get(keyed.key(2));
        assert_eq!(stored.as_deref(), Some(result_of(&hit.body)));
        let rehit = fresh.handle_solve(body);
        assert!(
            rehit.body.starts_with(r#"{"cached":true,"#),
            "{}",
            rehit.body
        );
        fresh.stop_workers.store(true, Ordering::Release);
        fresh.changed.notify_all();
        worker.join().unwrap();
    }

    #[test]
    fn settled_jobs_are_capped_oldest_first_and_held_ones_kept() {
        let svc = Arc::new(stalled_service(8, Duration::from_secs(60)));
        let worker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.worker_loop())
        };
        let mut questions = (2..=81).flat_map(|k| {
            (0..=3).map(move |b| format!(r#"{{"spec": "eps:0:{k}", "max_rounds": {b}}}"#))
        });
        // the first job is admitted and held: its answer not yet given
        let first = questions.next().unwrap();
        let req = request_of(&first).unwrap();
        let Admission::Pending { id: held, key, .. } =
            svc.admit(&req, false, Instant::now() + Duration::from_secs(60))
        else {
            panic!("{first} was not queued");
        };
        // settle more distinct questions than the cap
        let solve = |q: &str| {
            let r = svc.handle_solve(q);
            assert_eq!(r.status, 200, "{q}: {}", r.body);
            Json::parse(&r.body)
                .unwrap()
                .get("job")
                .and_then(Json::as_u64)
                .unwrap()
        };
        for q in questions.by_ref().take(SETTLED_JOBS_CAP + 10) {
            solve(&q);
        }
        {
            let st = lock(&svc.state);
            assert_eq!(st.jobs.len(), SETTLED_JOBS_CAP);
            assert!(st.jobs.contains_key(&held), "a held job was dropped");
            assert!(
                !st.jobs.contains_key(&(held + 1)),
                "the oldest unheld job was kept"
            );
        }
        // once answered, the held job is the oldest and goes next
        assert_eq!(svc.respond(true, held, key, false).status, 200);
        let last = solve(&questions.next().unwrap());
        assert_eq!(lock(&svc.state).jobs.len(), SETTLED_JOBS_CAP);
        assert_eq!(svc.handle_jobs(&format!("/jobs/{held}")).status, 404);
        // the newest jobs still answer, and /jobs lists the cap
        for id in last + 1 - SETTLED_JOBS_CAP as u64..=last {
            assert_eq!(
                svc.handle_jobs(&format!("/jobs/{id}")).status,
                200,
                "job {id}"
            );
        }
        let all = Json::parse(&svc.handle_jobs("/jobs").body).unwrap();
        let listed = all.get("jobs").and_then(Json::as_array).unwrap().len();
        assert_eq!(listed, SETTLED_JOBS_CAP);
        svc.stop_workers.store(true, Ordering::Release);
        svc.changed.notify_all();
        worker.join().unwrap();
    }

    #[test]
    fn full_queue_answers_503_with_retry_after() {
        let svc = stalled_service(1, Duration::from_secs(60));
        // first job occupies the whole queue (no worker ever pops it)
        let r = svc.handle_solve(r#"{"spec": "trivial:1", "wait": false}"#);
        assert_eq!(r.status, 202);
        // a different key is shed with 503 + Retry-After
        let r = svc.handle_solve(r#"{"spec": "trivial:2", "wait": false}"#);
        assert_eq!(r.status, 503);
        assert!(r.headers.iter().any(|(n, _)| *n == "Retry-After"), "{r:?}");
        assert!(r.body.contains("queue full"), "{}", r.body);
        // the same key coalesces instead of being rejected
        let r = svc.handle_solve(r#"{"spec": "trivial:1", "wait": false}"#);
        assert_eq!(r.status, 202);
        assert!(r.body.contains("coalesced"), "{}", r.body);
    }

    #[test]
    fn waited_solve_times_out_with_a_structured_504() {
        let svc = stalled_service(8, Duration::from_millis(80));
        let start = Instant::now();
        let r = svc.handle_solve(r#"{"spec": "trivial:1", "max_rounds": 1}"#);
        assert_eq!(r.status, 504);
        assert!(start.elapsed() >= Duration::from_millis(80));
        let v = Json::parse(&r.body).unwrap();
        assert!(matches!(v.get("error"), Some(Json::Str(_))), "{}", r.body);
        // the job is still pollable after the waiter gave up
        let id = v.get("job").unwrap().as_f64().unwrap() as u64;
        let r = svc.handle_jobs(&format!("/jobs/{id}"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("queued"), "{}", r.body);
    }

    #[test]
    fn draining_service_rejects_new_solves() {
        let svc = stalled_service(8, Duration::from_secs(60));
        svc.request_shutdown();
        let r = svc.handle_solve(r#"{"spec": "trivial:1"}"#);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("shutting down"), "{}", r.body);
        // and /readyz reports the drain
        let r = svc.handle_ready();
        assert_eq!(r.status, 503);
        let v = Json::parse(&r.body).unwrap();
        assert_eq!(v.get("draining"), Some(&Json::Bool(true)), "{}", r.body);
    }

    #[test]
    fn service_routes_reject_wrong_methods_with_allow() {
        let svc = stalled_service(8, Duration::from_secs(60));
        for (method, path, allow) in [
            ("GET", "/solve", "POST"),
            ("GET", "/shutdown", "POST"),
            ("DELETE", "/jobs/1", "GET"),
            ("POST", "/healthz", "GET"),
            ("POST", "/readyz", "GET"),
        ] {
            let req = Request {
                method: method.to_string(),
                path: path.to_string(),
                body: Vec::new(),
            };
            let r = svc.handle(&req).expect("service owns the route");
            assert_eq!(r.status, 405, "{method} {path}");
            assert_eq!(
                r.headers.iter().find(|(n, _)| *n == "Allow"),
                Some(&("Allow", allow.to_string())),
                "{method} {path}"
            );
        }
    }

    #[test]
    fn health_and_readiness_over_http() {
        let (addr, handle) = start(&["--workers", "1"]);
        let (head, body) = request(addr, "GET", "/healthz", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        let (head, body) = request(addr, "GET", "/readyz", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.get("ready"), Some(&Json::Bool(true)), "{body:?}");
        assert_eq!(body.get("workers"), Some(&Json::Num(1.0)), "{body:?}");
        shutdown(addr, handle);
    }

    #[test]
    fn shutdown_drains_accepted_jobs_before_exiting() {
        let (addr, handle) = start(&["--workers", "1"]);
        // accept a job, then immediately ask for shutdown: the drain phase
        // must let it finish (and be recorded) before the process exits
        let (head, _) = request(
            addr,
            "POST",
            "/solve",
            r#"{"spec": "eps:1:3", "max_rounds": 2, "wait": false}"#,
        );
        assert!(head.starts_with("HTTP/1.1 202"), "{head}");
        let summary = shutdown(addr, handle);
        assert!(
            summary.contains("1 jobs accepted, 1 completed"),
            "{summary}"
        );
    }

    #[test]
    fn degraded_store_reports_on_readyz_but_solves_cold() {
        let dir = std::env::temp_dir().join(format!("iis_serve_degraded_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();

        // fill the store, then corrupt the segment in place
        {
            let mut store = Store::open(&dir).unwrap();
            store.put(0x42, "poisoned-record").unwrap();
            store.flush().unwrap();
        }
        let seg = dir.join("seg-00000.jsonl");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();

        let (addr, handle) = start(&["--store", &dir_s]);
        // readiness reports the quarantine-degraded, read-only store
        let (head, body) = request(addr, "GET", "/readyz", "");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(body.get("ready"), Some(&Json::Bool(false)), "{body:?}");
        assert_eq!(
            body.get("degraded").and_then(|d| d.as_str()),
            Some("read-only"),
            "{body:?}"
        );
        // liveness is unaffected
        let (head, _) = request(addr, "GET", "/healthz", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        // and /solve still answers correctly — cold-solved, nothing cached
        let (head, reply) = request(
            addr,
            "POST",
            "/solve",
            r#"{"spec": "eps:1:3", "max_rounds": 2}"#,
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(reply.get("cached"), Some(&Json::Bool(false)), "{reply:?}");
        assert!(reply
            .get("result")
            .unwrap()
            .get("witness")
            .is_some_and(|w| *w != Json::Null));
        // nothing was stored, so the memo of verified records (filled
        // only from the store) holds nothing: the re-ask is solved again
        let (_, again) = request(
            addr,
            "POST",
            "/solve",
            r#"{"spec": "eps:1:3", "max_rounds": 2}"#,
        );
        assert_eq!(again.get("cached"), Some(&Json::Bool(false)), "{again:?}");
        assert_eq!(again.get("result"), reply.get("result"));
        shutdown(addr, handle);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
