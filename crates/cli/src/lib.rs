//! Implementation of the `iis` command-line tool.
//!
//! Every subcommand is a pure function from parsed arguments to an output
//! string, so the whole surface is unit-testable; `main.rs` only does I/O.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use iis_adversary::{fuzz, FuzzConfig, Layer};
use iis_core::bg::BgSimulation;
use iis_core::certificate::{find_certificate, Certificate};
use iis_core::distance::Distances;
use iis_core::protocol_complex::{check_lemma_3_2, check_lemma_3_3};
use iis_core::solvability::{solve_up_to_opts, BoundedOutcome, SolvabilityReport, SolveOptions};
use iis_core::EmulatorMachine;
use iis_obs::ToJson as _;
use iis_sched::{AtomicMachine, IisRunner, IisSchedule};
use iis_tasks::library;
use iis_tasks::Task;
use iis_topology::embedding::{embed_sds_tower, to_svg};
use iis_topology::homology::Homology;
use iis_topology::homology_z::IntegerHomology;
use iis_topology::manifold::pseudomanifold_report;
use iis_topology::{sds, sds_iterated, Complex, Subdivision};
use std::fmt::Write as _;

/// A CLI usage or execution error, formatted for the terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

pub(crate) fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

mod serve;
pub use serve::cmd_serve;

mod gateway;
pub use gateway::cmd_gateway;

/// Top-level usage text.
pub const USAGE: &str = "\
iis — wait-free computability toolbox (Borowsky–Gafni PODC'97)

USAGE:
  iis sds <n> <b> [--json] [--svg FILE]   build SDS^b(s^n); print stats
  iis homology <n> <b>                    Z2 Betti numbers of SDS^b(s^n)
  iis check-lemmas <n> <b>                verify Lemmas 3.2/3.3 by enumeration
  iis solve <TASK> [--max-rounds B] [--budget NODES] [--jobs N]
            [--timeout-secs T] [--store DIR]
                                          decide wait-free solvability
                                          (--budget is per round,
                                          --timeout-secs bounds the whole
                                          sweep; the sweep stops at its first
                                          undecided round: inconclusive, not
                                          unsolvable, and never stored;
                                          --store answers from / fills a
                                          persistent witness cache)
  iis serve [--addr A] [--store DIR] [--workers N] [--queue N]
            [--timeout-secs T]
                                          HTTP solve service: POST /solve,
                                          GET /jobs[/<id>], GET /healthz,
                                          GET /readyz, POST /shutdown,
                                          plus /metrics /progress /snapshot
                                          (default --addr 127.0.0.1:0; the
                                          bound address goes to stderr;
                                          --queue bounds admission ⇒ 503;
                                          every job has one deadline, T
                                          (default 8) seconds after its
                                          admission ⇒ 504; the shutdown
                                          drain waits until the last job's
                                          deadline plus one second)
  iis gateway --backends A,B[,…] [--replicas R] [--addr A] [--workers N]
              [--probe-ms MS] [--timeout-secs T]
                                          front a fleet of iis serve shards:
                                          rendezvous-routed POST /solve
                                          (single or {\"questions\": […]}
                                          batch), failover to replicas,
                                          GET /cluster, aggregated
                                          GET /metrics, POST /shutdown
                                          (T, default 10, is the wait on a
                                          shard before failing over)
  iis store repair <DIR>                  re-encode surviving records from
                                          a store's quarantined segments
                                          into a fresh segment and lift the
                                          read-only degradation
  iis emulate <n> <k> [--adversary A] [--seed S]
                                          emulate the k-shot protocol on IIS
  iis bg <n_sim> <k> <m> [--crash SIM@STEP]
                                          run the BG simulation
  iis fuzz --layer iis|atomic|emulation|bg|store|gateway [--task SPEC] [--seed S]
           [--cases N] [--crashes K] [--n N] [--rounds B] [--shrink]
           [--exhaustive]                 adversarial sweep with fault
                                          injection; replay a failure from
                                          its (seed, case_index) report

TASK:
  trivial:N | consensus:N | kset:N:K | renaming:N:M | eps:N:GRID | oneshot:N
  (N = index, i.e. N+1 processes) or @FILE.json (a serialized task)

ADVERSARY: lockstep | sequential | rotating | laggard | random (default)

GLOBAL FLAGS (any command):
  --stats            append a table of counters/histograms for this run
  --trace FILE       write JSON-lines trace events to FILE (stream ends
                     with a {\"kind\":\"close\"} record, even on panic)
  --profile FILE     write a collapsed-stack span profile to FILE
                     (round;subtree;phase NS — speedscope/inferno input)
  --progress         print a live progress line to stderr once per second
  --serve ADDR       serve GET /metrics (Prometheus text), /progress and
                     /snapshot (JSON) on ADDR while the command runs
                     (e.g. --serve 127.0.0.1:0; the bound address is
                     printed to stderr)
";

/// Parses a task specifier (see [`USAGE`]).
///
/// # Errors
///
/// Returns a [`CliError`] describing the malformed specifier.
pub fn parse_task(spec: &str) -> Result<Task, CliError> {
    if let Some(path) = spec.strip_prefix('@') {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        return iis_obs::json::read_all(&text, Task::read_json)
            .map(|(task, _)| task)
            .map_err(|e| err(format!("bad task file: {e}")));
    }
    library::parse_spec(spec).map_err(err)
}

fn parse_dims(args: &[String]) -> Result<(usize, usize), CliError> {
    let n: usize = args
        .first()
        .ok_or_else(|| err("missing <n>"))?
        .parse()
        .map_err(|_| err("bad <n>"))?;
    let b: usize = args
        .get(1)
        .ok_or_else(|| err("missing <b>"))?
        .parse()
        .map_err(|_| err("bad <b>"))?;
    if n > 3 || b > 3 || (n >= 2 && b >= 3) || (n == 3 && b >= 2) {
        return Err(err("keep n ≤ 3, b ≤ 3 and n·b small — counts explode"));
    }
    Ok((n, b))
}

/// Looks up `--flag VALUE` or `--flag=VALUE` in `args`.
///
/// # Errors
///
/// Returns a [`CliError`] if the flag appears as the last argument with no
/// value following it.
pub(crate) fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.as_str())),
                None => Err(err(format!("{flag} requires a value"))),
            };
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// Refuses the first argument in `args` that is not one of the valued
/// `flags` (`--flag VALUE` or `--flag=VALUE`), naming it and `cmd`.
///
/// # Errors
///
/// Returns `<cmd> does not take <arg>` for an argument not in `flags`.
pub(crate) fn only_flags(cmd: &str, args: &[String], flags: &[&str]) -> Result<(), CliError> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        let flag = a.split_once('=').map_or(a.as_str(), |(f, _)| f);
        if !flags.contains(&flag) {
            return Err(err(format!("{cmd} does not take {a}")));
        }
        // `--flag VALUE`: the value is the next argument
        if flag == a {
            rest.next();
        }
    }
    Ok(())
}

/// `iis sds <n> <b> [--json] [--svg FILE]`
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments or I/O failure.
pub fn cmd_sds(args: &[String]) -> Result<String, CliError> {
    let (n, b) = parse_dims(args)?;
    let base = Complex::standard_simplex(n);
    let acc = sds_iterated(&base, b);
    acc.validate().map_err(|e| err(e.to_string()))?;
    if args.iter().any(|a| a == "--json") {
        return Ok(acc.to_json().to_string_pretty());
    }
    let mut out = String::new();
    let c = acc.complex();
    let _ = writeln!(out, "SDS^{b}(s^{n})");
    let _ = writeln!(out, "  facets:   {}", c.num_facets());
    let _ = writeln!(out, "  vertices: {}", c.num_vertices());
    let _ = writeln!(out, "  f-vector: {:?}", c.f_vector());
    let _ = writeln!(
        out,
        "  chromatic: {} · pure: {}",
        c.is_chromatic(),
        c.is_pure()
    );
    let report = pseudomanifold_report(c);
    let _ = writeln!(
        out,
        "  pseudomanifold with boundary: {} ({} boundary / {} interior ridges)",
        report.is_pseudomanifold(),
        report.boundary_ridges,
        report.interior_ridges
    );
    if let Some(path) = flag_value(args, "--svg")? {
        if n != 2 {
            return Err(err("--svg needs n = 2"));
        }
        // one subdivision per round, each of the previous round's complex
        let mut levels: Vec<Subdivision> = Vec::new();
        for _ in 0..b {
            let inner = levels.last().map_or(&base, |l| l.complex());
            levels.push(sds(inner));
        }
        let emb = embed_sds_tower(&base, &levels);
        std::fs::write(path, to_svg(&acc, &emb, 600.0))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "  svg written to {path}");
    }
    Ok(out)
}

/// `iis homology <n> <b>`
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments.
pub fn cmd_homology(args: &[String]) -> Result<String, CliError> {
    let (n, b) = parse_dims(args)?;
    let acc = sds_iterated(&Complex::standard_simplex(n), b);
    let h = Homology::of(acc.complex());
    let hz = IntegerHomology::of(acc.complex());
    let hb = Homology::of(&acc.complex().boundary());
    Ok(format!(
        "SDS^{b}(s^{n}): Z2 Betti {:?} (hole-free: {})\n\
         integral:   Betti {:?} (torsion-free: {})\n\
         boundary:   Z2 Betti {:?}\n",
        h.betti_numbers(),
        h.is_hole_free_up_to(n),
        hz.betti_numbers(),
        hz.is_torsion_free(),
        hb.betti_numbers()
    ))
}

/// `iis check-lemmas <n> <b>`
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments.
pub fn cmd_check_lemmas(args: &[String]) -> Result<String, CliError> {
    let (n, b) = parse_dims(args)?;
    let base = Complex::standard_simplex(n);
    let mut out = String::new();
    let (e32, _) = check_lemma_3_2(&base);
    let _ = writeln!(
        out,
        "Lemma 3.2 ✓ one-shot IS complex = SDS(s^{n}) ({} facets)",
        e32.complex().num_facets()
    );
    if b >= 1 {
        let (e33, _) = check_lemma_3_3(&base, b);
        let _ = writeln!(
            out,
            "Lemma 3.3 ✓ {b}-shot complex = SDS^{b}(s^{n}) ({} facets)",
            e33.complex().num_facets()
        );
    }
    Ok(out)
}

/// The valued flags `iis solve` takes.
const SOLVE_FLAGS: [&str; 5] = [
    "--max-rounds",
    "--budget",
    "--jobs",
    "--timeout-secs",
    "--store",
];

/// `iis solve <TASK> [--max-rounds B] [--budget NODES] [--jobs N]
/// [--timeout-secs T] [--store DIR]`
///
/// The round sweep is incremental (`SDS^{b+1}` extends `SDS^b`) and
/// `--jobs N` spreads each round's search over `N` worker threads without
/// changing any verdict or witness. `--budget` bounds each round,
/// `--timeout-secs T` the whole sweep; the sweep stops at its first
/// undecided round and reports it as **inconclusive**, never as
/// unsolvable. `--store DIR` adds one line, and stores decided sweeps.
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments, naming any flag not listed
/// above.
pub fn cmd_solve(args: &[String]) -> Result<String, CliError> {
    iis_core::solvability::register_counters();
    let spec = args.first().ok_or_else(|| err("missing <TASK>"))?;
    only_flags("solve", &args[1..], &SOLVE_FLAGS)?;
    let task = parse_task(spec)?;
    let max_rounds: usize = flag_value(args, "--max-rounds")?
        .unwrap_or("2")
        .parse()
        .map_err(|_| err("bad --max-rounds"))?;
    let budget: u64 = flag_value(args, "--budget")?
        .unwrap_or("1000000")
        .parse()
        .map_err(|_| err("bad --budget"))?;
    let jobs: usize = flag_value(args, "--jobs")?
        .unwrap_or("1")
        .parse()
        .map_err(|_| err("bad --jobs"))?;
    let timeout_secs: Option<u64> = match flag_value(args, "--timeout-secs")? {
        Some(t) => Some(t.parse().map_err(|_| err("bad --timeout-secs"))?),
        None => None,
    };
    let mut opts = SolveOptions::new().budget(budget).jobs(jobs);
    if let Some(t) = timeout_secs {
        opts = opts.timeout(std::time::Duration::from_secs(t));
    }
    // with a store, answer from it when the (task, max_rounds) record
    // exists, and persist a decided sweep
    let (report, store_line) = match flag_value(args, "--store")? {
        None => (solve_up_to_opts(&task, max_rounds, &opts), None),
        Some(dir) => {
            let mut store = iis_store::Store::open(dir)
                .map_err(|e| err(format!("cannot open store {dir}: {e}")))?;
            let cached = iis_core::cache::solve_up_to_cached(&task, max_rounds, &opts, &mut store);
            let part = match (cached.hit, cached.report.stopped()) {
                (true, _) => "hit",
                (false, None) => "miss — computed and saved",
                (false, Some(_)) => "miss — undecided, nothing stored",
            };
            let (key, len) = (cached.key, store.len());
            let line = format!("store: {part} (key {key:016x}, {len} records in {dir})\n");
            (cached.report, Some(line))
        }
    };
    let mut out = format!("task: {task}\n");
    render_report(&mut out, &task, &report, budget, timeout_secs);
    out.extend(store_line);
    Ok(out)
}

/// Writes `report`'s verdicts, its distance refutation, its Sperner
/// certificate and how the sweep ended, alike whether it ran here or was
/// read from a store. Both explanations come from the task: its distance
/// pass, and, for a refutation of rounds `0..=M`, `M ≥ 1`, the sweep's own
/// bounded [`find_certificate`].
fn render_report(
    out: &mut String,
    task: &Task,
    report: &SolvabilityReport,
    budget: u64,
    timeout_secs: Option<u64>,
) {
    for &(b, ok) in report.results() {
        let _ = match report.witness().filter(|_| ok) {
            Some(m) => writeln!(
                out,
                "b = {b}: SOLVABLE — decision map on {} vertices",
                m.map().len()
            ),
            None => writeln!(out, "b = {b}: no decision map (exact)"),
        };
    }
    let refuted = report.witness().is_none() && report.stopped().is_none();
    // the distance pass meets round 0, so it refuted rounds iff it has a face
    if let Some(refutation) = Distances::of(task).worst() {
        let _ = writeln!(out, "{}", refutation.describe(task));
    }
    if refuted && report.results().len() > 1 {
        if let Some(cert) = find_certificate(task) {
            let _ = writeln!(out, "{}", certificate_line(task, &cert));
        }
    }
    let b = report.results().len();
    let _ = match report.stopped() {
        None if refuted => writeln!(out, "no decision map found up to b = {}", b - 1),
        None => Ok(()),
        Some(BoundedOutcome::Exhausted) => writeln!(
            out,
            "b = {b}: undecided within {budget} nodes — inconclusive (raise --budget)"
        ),
        Some(BoundedOutcome::TimedOut) => writeln!(
            out,
            "b = {b}: TIMED OUT after {}s — inconclusive (not unsolvable); \
             partial stats are in --stats",
            timeout_secs.unwrap_or(0)
        ),
        Some(_) => writeln!(
            out,
            "b = {b}: {} — inconclusive",
            report.stop_reason().unwrap_or_default()
        ),
    };
}

/// The line `iis solve` names a refuting certificate with.
fn certificate_line(task: &iis_tasks::Task, cert: &Certificate) -> String {
    let (sigma, lambda) = cert.describe(task);
    format!("Sperner certificate (no decision map at any b): σ = {sigma}, λ = {lambda}")
}

/// The k-shot census machine used by `iis emulate`.
struct Census {
    pid: usize,
    k: usize,
    done: usize,
}

impl AtomicMachine for Census {
    type Value = (usize, usize);
    type Output = usize;
    fn next_write(&mut self) -> (usize, usize) {
        (self.pid, self.done + 1)
    }
    fn on_snapshot(&mut self, snap: &[Option<(usize, usize)>]) -> Option<usize> {
        self.done += 1;
        if self.done == self.k {
            Some(snap.iter().flatten().count())
        } else {
            None
        }
    }
}

/// `iis emulate <n> <k> [--adversary A] [--seed S]`
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments or if the schedule generator is
/// unknown.
pub fn cmd_emulate(args: &[String]) -> Result<String, CliError> {
    let n: usize = args
        .first()
        .ok_or_else(|| err("missing <n>"))?
        .parse()
        .map_err(|_| err("bad <n>"))?;
    let k: usize = args
        .get(1)
        .ok_or_else(|| err("missing <k>"))?
        .parse()
        .map_err(|_| err("bad <k>"))?;
    if n == 0 || n > 8 || k == 0 || k > 64 {
        return Err(err("need 1 ≤ n ≤ 8, 1 ≤ k ≤ 64"));
    }
    let adversary = flag_value(args, "--adversary")?.unwrap_or("random");
    let seed: u64 = flag_value(args, "--seed")?
        .unwrap_or("42")
        .parse()
        .map_err(|_| err("bad --seed"))?;
    let budget = 64 * n * k + 64;
    let schedule = match adversary {
        "lockstep" => IisSchedule::lockstep(n, budget),
        "sequential" => IisSchedule::sequential(n, budget),
        "rotating" => IisSchedule::rotating_leader(n, budget),
        "laggard" => IisSchedule::laggard(n, budget),
        "random" => {
            let mut rng = iis_obs::Rng::seed_from_u64(seed);
            IisSchedule::random(n, budget, &mut rng)
        }
        other => return Err(err(format!("unknown adversary: {other}"))),
    };
    let machines: Vec<EmulatorMachine<Census>> = (0..n)
        .map(|pid| EmulatorMachine::new(pid, n, Census { pid, k, done: 0 }))
        .collect();
    let mut runner = IisRunner::new(machines);
    let rounds = runner.run(schedule);
    if !runner.is_quiescent() {
        return Err(err("emulation did not finish within the schedule budget"));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "emulated {k}-shot atomic snapshot protocol, {n} processes, adversary = {adversary}"
    );
    let _ = writeln!(out, "completed in {rounds} IIS memories");
    for p in 0..n {
        let _ = writeln!(
            out,
            "  P{p} saw {} processes",
            runner.output(p).expect("quiescent")
        );
    }
    Ok(out)
}

/// `iis bg <n_sim> <k> <m> [--crash SIM@STEP]`
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments.
pub fn cmd_bg(args: &[String]) -> Result<String, CliError> {
    let get = |i: usize, name: &str| -> Result<usize, CliError> {
        args.get(i)
            .ok_or_else(|| err(format!("missing <{name}>")))?
            .parse()
            .map_err(|_| err(format!("bad <{name}>")))
    };
    let (n_sim, k, m) = (get(0, "n_sim")?, get(1, "k")?, get(2, "m")?);
    if n_sim == 0 || n_sim > 8 || k == 0 || k > 8 || m == 0 || m > 8 {
        return Err(err("need 1 ≤ n_sim, k, m ≤ 8"));
    }
    let crash: Option<(usize, u64)> = match flag_value(args, "--crash")? {
        None => None,
        Some(spec) => {
            let (s, at) = spec
                .split_once('@')
                .ok_or_else(|| err("--crash wants SIM@STEP"))?;
            Some((
                s.parse().map_err(|_| err("bad simulator id"))?,
                at.parse().map_err(|_| err("bad step"))?,
            ))
        }
    };
    let mut bg = BgSimulation::new(n_sim, k, m);
    let mut i = 0u64;
    while !bg.all_done() && i < 1_000_000 {
        if let Some((s, at)) = crash {
            if i == at {
                bg.crash(s);
            }
        }
        bg.step((i % m as u64) as usize);
        i += 1;
        if let Some((_, at)) = crash {
            // after a crash the blocked process may never finish; stop once
            // everyone else has decided
            if i > at && bg.decisions().iter().filter(|d| d.is_some()).count() >= n_sim - 1 {
                break;
            }
        }
    }
    let st = bg.stats();
    let done = bg.decisions().iter().filter(|d| d.is_some()).count();
    Ok(format!(
        "BG simulation: {n_sim} simulated × {k}-shot on {m} simulators\n\
         decided: {done}/{n_sim} · steps: {} · proposals: {} · backoffs: {} · blocked: {}\n",
        st.steps,
        st.proposals,
        st.backoffs,
        bg.blocked_processes()
    ))
}

/// `iis fuzz --layer L [--task SPEC] [--seed S] [--cases N] [--crashes K]
/// [--n N] [--rounds B] [--shrink] [--exhaustive]`
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments, an unsolvable `--task`, or —
/// the point of the exercise — any oracle failure, with the replayable
/// JSON report(s) in the message.
pub fn cmd_fuzz(args: &[String]) -> Result<String, CliError> {
    let layer = match flag_value(args, "--layer")? {
        Some(l) => Layer::parse(l).ok_or_else(|| {
            err(format!(
                "bad --layer: {l} (iis|atomic|emulation|bg|store|gateway)"
            ))
        })?,
        None => {
            return Err(err(
                "fuzz requires --layer iis|atomic|emulation|bg|store|gateway",
            ))
        }
    };
    let num = |flag: &str, default: usize| -> Result<usize, CliError> {
        match flag_value(args, flag)? {
            Some(v) => v.parse().map_err(|_| err(format!("bad {flag}: {v}"))),
            None => Ok(default),
        }
    };
    let mut cfg = FuzzConfig::new(layer);
    cfg.seed = match flag_value(args, "--seed")? {
        Some(v) => v.parse().map_err(|_| err(format!("bad --seed: {v}")))?,
        None => 0,
    };
    cfg.cases = num("--cases", 100)?;
    cfg.max_crashes = num("--crashes", 1)?;
    cfg.n = num("--n", 3)?;
    cfg.rounds = num("--rounds", 2)?;
    cfg.shrink = args.iter().any(|a| a == "--shrink");
    cfg.exhaustive = args.iter().any(|a| a == "--exhaustive");
    if cfg.n == 0 || cfg.n > 6 {
        return Err(err("need 1 ≤ --n ≤ 6"));
    }
    if cfg.exhaustive && (layer != Layer::Iis || cfg.n > 3 || cfg.rounds > 2) {
        return Err(err("--exhaustive needs --layer iis with n ≤ 3, rounds ≤ 2"));
    }
    let task = match flag_value(args, "--task")? {
        Some(spec) => {
            if layer != Layer::Iis {
                return Err(err("--task applies to --layer iis only"));
            }
            let task = parse_task(spec)?;
            let n = task.input().colors().len();
            if iis_core::solvability::solve_up_to(&task, cfg.rounds)
                .witness()
                .is_none()
            {
                return Err(err(format!(
                    "--task {spec} is not solvable within {} rounds — the \
                     wait-freedom oracle needs a witness round bound \
                     (raise --rounds)",
                    cfg.rounds
                )));
            }
            cfg.n = n;
            Some(task)
        }
        None => None,
    };
    cfg.task = task.as_ref();
    let out = fuzz(&cfg);
    let crashes = cfg.max_crashes;
    let mode = if cfg.exhaustive {
        "exhaustive".to_string()
    } else {
        format!("seed {}", cfg.seed)
    };
    if out.ok() {
        return Ok(format!(
            "fuzz --layer {}: {} cases ({mode}, ≤ {crashes} crashes/case) — \
             all oracles passed\n",
            layer.name(),
            out.cases,
        ));
    }
    let mut msg = format!(
        "fuzz --layer {}: {}/{} cases FAILED an oracle ({mode})\n",
        layer.name(),
        out.failures.len(),
        out.cases,
    );
    for failure in out.failures.iter().take(3) {
        let _ = writeln!(
            msg,
            "case {}: {}",
            failure.case_index,
            failure
                .failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
        let _ = writeln!(msg, "{}", failure.report.to_string_pretty());
    }
    if out.failures.len() > 3 {
        let _ = writeln!(msg, "… and {} more failing cases", out.failures.len() - 3);
    }
    Err(err(msg))
}

/// `iis store repair <DIR>` — see [`USAGE`].
///
/// Opens the store at `DIR` (running normal recovery, which may quarantine
/// further corruption it finds), re-encodes every surviving quarantined
/// record into a fresh checksummed segment, deletes the quarantined files,
/// and lifts the sticky read-only degradation — so the next `iis serve
/// --store DIR` comes up writable with zero record loss.
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments or if the store cannot be
/// opened or rewritten.
pub fn cmd_store(args: &[String]) -> Result<String, CliError> {
    match args.split_first() {
        Some((op, rest)) if op == "repair" => {
            let [dir] = rest else {
                return Err(err("usage: iis store repair <DIR>"));
            };
            let mut store = iis_store::Store::open(dir)
                .map_err(|e| err(format!("cannot open store {dir}: {e}")))?;
            let was_degraded = store.degraded();
            let rec = store.recovery();
            let stats = store
                .repair()
                .map_err(|e| err(format!("repair failed: {e}")))?;
            if !was_degraded && stats == iis_store::RepairStats::default() {
                return Ok(format!(
                    "store {dir}: healthy ({} records), nothing to repair\n",
                    store.len()
                ));
            }
            Ok(format!(
                "store {dir}: re-encoded {} records out of {} quarantined files \
                 ({} checksum failures dropped), {} records total, writable again\n",
                stats.repaired_records,
                stats.removed_files,
                rec.checksum_failures,
                store.len()
            ))
        }
        Some((op, _)) => Err(err(format!("unknown store operation: {op} (try: repair)"))),
        None => Err(err("usage: iis store repair <DIR>")),
    }
}

/// Global observability flags, accepted anywhere on the command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct ObsFlags {
    stats: bool,
    trace: Option<String>,
    profile: Option<String>,
    progress: bool,
    serve: Option<String>,
}

/// Removes the global observability flags (`--stats`, `--trace FILE`,
/// `--profile FILE`, `--progress`, `--serve ADDR`; valued flags also in
/// `--flag=VALUE` form) from `args`.
fn strip_obs_flags(args: &[String]) -> Result<(ObsFlags, Vec<String>), CliError> {
    let mut flags = ObsFlags::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut valued = |slot: &mut Option<String>, name: &str| -> Result<bool, CliError> {
            if a == name {
                match it.next() {
                    Some(v) => *slot = Some(v.clone()),
                    None => return Err(err(format!("{name} requires a value"))),
                }
                return Ok(true);
            }
            if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
                *slot = Some(v.to_string());
                return Ok(true);
            }
            Ok(false)
        };
        if a == "--stats" {
            flags.stats = true;
        } else if a == "--progress" {
            flags.progress = true;
        } else if valued(&mut flags.trace, "--trace")?
            || valued(&mut flags.profile, "--profile")?
            || valued(&mut flags.serve, "--serve")?
        {
            // consumed
        } else {
            rest.push(a.clone());
        }
    }
    Ok((flags, rest))
}

/// Dispatches a full argument vector (without the binary name).
///
/// The global flags `--stats` (append a counter/histogram summary table)
/// and `--trace FILE` (write JSON-lines trace events to `FILE`) may appear
/// anywhere and apply to every subcommand.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands or any command failure.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let (obs, args) = strip_obs_flags(args)?;
    // Held across the command (and any unwind) so the trace stream always
    // ends with its close record — see `iis_obs::trace::TraceGuard`.
    let _trace_guard = match &obs.trace {
        Some(path) => Some(
            iis_obs::trace::guard_file(std::path::Path::new(path))
                .map_err(|e| err(format!("cannot open trace file {path}: {e}")))?,
        ),
        None => None,
    };
    if obs.stats || obs.trace.is_some() || obs.serve.is_some() {
        iis_obs::set_enabled(true);
    }
    if obs.profile.is_some() {
        iis_obs::profile::reset();
        iis_obs::profile::set_enabled(true);
    }
    if obs.progress || obs.serve.is_some() {
        iis_obs::progress::reset();
    }
    let _ticker = obs
        .progress
        .then(|| iis_obs::progress::Ticker::start(std::time::Duration::from_secs(1)));
    let server = match &obs.serve {
        Some(addr) => {
            let server =
                iis_obs::http::serve(addr).map_err(|e| err(format!("cannot bind {addr}: {e}")))?;
            eprintln!("serving on http://{}", server.addr());
            Some(server)
        }
        None => None,
    };
    let before = iis_obs::snapshot();
    let (cmd, rest) = args.split_first().ok_or_else(|| err(USAGE))?;
    let result = match cmd.as_str() {
        "sds" => cmd_sds(rest),
        "homology" => cmd_homology(rest),
        "check-lemmas" => cmd_check_lemmas(rest),
        "solve" => cmd_solve(rest),
        "serve" => cmd_serve(rest),
        "gateway" => cmd_gateway(rest),
        "store" => cmd_store(rest),
        "emulate" => cmd_emulate(rest),
        "bg" => cmd_bg(rest),
        "fuzz" => cmd_fuzz(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command: {other}\n\n{USAGE}"))),
    };
    if let Some(path) = &obs.profile {
        let collapsed = iis_obs::profile::to_collapsed();
        iis_obs::profile::set_enabled(false);
        if let Err(e) = std::fs::write(path, collapsed) {
            if result.is_ok() {
                return Err(err(format!("cannot write profile {path}: {e}")));
            }
        }
    }
    if let Some(server) = server {
        server.shutdown();
    }
    match result {
        Ok(mut out) => {
            if obs.stats {
                let delta = iis_obs::snapshot().delta_since(&before);
                let table = iis_obs::report::render_table(&delta);
                if !table.is_empty() {
                    out.push_str(&table);
                }
            }
            Ok(out)
        }
        e => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn sds_stats() {
        let out = cmd_sds(&argv("2 1")).unwrap();
        assert!(out.contains("facets:   13"));
        assert!(out.contains("pseudomanifold with boundary: true"));
    }

    #[test]
    fn sds_json_parses_back() {
        let out = cmd_sds(&argv("1 2 --json")).unwrap();
        let sub: iis_topology::Subdivision = iis_obs::Json::parse_as(&out).unwrap();
        assert_eq!(sub.complex().num_facets(), 9);
    }

    #[test]
    fn sds_svg_writes_file() {
        let path = std::env::temp_dir().join("iis_cli_test.svg");
        let mut args = argv("2 1 --svg");
        args.push(path.to_str().unwrap().to_string());
        let out = cmd_sds(&args).unwrap();
        assert!(out.contains("svg written"));
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dims_guard() {
        assert!(cmd_sds(&argv("3 3")).is_err());
        assert!(cmd_sds(&argv("2")).is_err());
        assert!(cmd_sds(&argv("x 1")).is_err());
    }

    #[test]
    fn homology_output() {
        let out = cmd_homology(&argv("2 1")).unwrap();
        assert!(out.contains("hole-free: true"));
        assert!(out.contains("torsion-free: true"));
        assert!(out.contains("[1, 1]"));
    }

    #[test]
    fn check_lemmas_output() {
        let out = cmd_check_lemmas(&argv("2 1")).unwrap();
        assert!(out.contains("Lemma 3.2 ✓"));
        assert!(out.contains("Lemma 3.3 ✓"));
    }

    #[test]
    fn solve_consensus_refuted() {
        let out = cmd_solve(&argv("consensus:1 --max-rounds 2")).unwrap();
        assert!(out.contains("b = 2: no decision map (exact)"));
        assert!(out.contains("no decision map found"));
    }

    #[test]
    fn solve_eps_solvable() {
        let out = cmd_solve(&argv("eps:1:3")).unwrap();
        assert!(out.contains("b = 1: SOLVABLE"));
    }

    #[test]
    fn solve_jobs_flag_does_not_change_output() {
        let seq = cmd_solve(&argv("consensus:1 --max-rounds 2")).unwrap();
        for jobs in ["2", "4"] {
            let par =
                cmd_solve(&argv(&format!("consensus:1 --max-rounds 2 --jobs {jobs}"))).unwrap();
            assert_eq!(seq, par, "--jobs {jobs} must not change verdicts");
        }
        let par = cmd_solve(&argv("eps:1:3 --jobs=3")).unwrap();
        assert!(par.contains("b = 1: SOLVABLE"));
        assert!(cmd_solve(&argv("consensus:1 --jobs nope")).is_err());
    }

    #[test]
    fn solve_rejects_unknown_flags() {
        for bad in [
            "consensus:1 --max-round 1",
            "consensus:1 --kernel reference",
            "consensus:1 --kernel=reference",
            "consensus:1 --bogus",
        ] {
            let e = cmd_solve(&argv(bad)).unwrap_err();
            let flag = bad.split(' ').nth(1).unwrap();
            assert!(e.0.contains(flag), "{bad}: {e}");
        }
        // a flag's value is not mistaken for a flag
        assert!(cmd_solve(&argv("consensus:1 --max-rounds 1 --jobs 2")).is_ok());
    }

    #[test]
    fn solve_timeout_flag() {
        // a generous timeout changes nothing
        let plain = cmd_solve(&argv("consensus:1 --max-rounds 2")).unwrap();
        let timed = cmd_solve(&argv("consensus:1 --max-rounds 2 --timeout-secs 3600")).unwrap();
        assert_eq!(plain, timed, "an unfired timeout must not change verdicts");
        // a zero timeout on a search that charges nodes reports inconclusive
        let out = cmd_solve(&argv("oneshot:1 --timeout-secs 0")).unwrap();
        assert!(out.contains("TIMED OUT"), "got: {out}");
        assert!(out.contains("inconclusive"), "got: {out}");
        assert!(!out.contains("no decision map found"), "got: {out}");
        assert!(cmd_solve(&argv("consensus:1 --timeout-secs nope")).is_err());
    }

    #[test]
    fn solve_store_flag_cold_then_warm() {
        let dir = std::env::temp_dir().join(format!("iis_cli_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = argv("eps:1:3 --max-rounds 2 --store");
        args.push(dir.to_str().unwrap().to_string());
        let cold = cmd_solve(&args).unwrap();
        assert!(cold.contains("b = 1: SOLVABLE"), "{cold}");
        assert!(cold.contains("store: miss — computed and saved"), "{cold}");
        let warm = cmd_solve(&args).unwrap();
        assert!(warm.contains("b = 1: SOLVABLE"), "{warm}");
        assert!(warm.contains("store: hit"), "{warm}");
        // verdict lines agree between the computed and replayed runs
        assert_eq!(
            cold.lines().take(3).collect::<Vec<_>>(),
            warm.lines().take(3).collect::<Vec<_>>()
        );
        // refutations are cached too
        let mut args = argv("consensus:1 --max-rounds 2 --store");
        args.push(dir.to_str().unwrap().to_string());
        let cold = cmd_solve(&args).unwrap();
        assert!(cold.contains("no decision map found up to b = 2"), "{cold}");
        let warm = cmd_solve(&args).unwrap();
        assert!(warm.contains("store: hit"), "{warm}");
        assert!(cmd_solve(&argv("eps:1:3 --store /dev/null/nope")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each question, cold, prints the same verdict and reason lines with
    /// a store and without one; the store holds a record exactly when the
    /// sweep decided, and a decided one replays warm with the same lines
    /// (a certified refutation names its certificate again). `no decision
    /// map found up to b = M` follows only exact rounds `0..=M`.
    #[test]
    fn solve_answers_alike_with_and_without_a_store() {
        let dir = std::env::temp_dir().join(format!("iis_cli_alike_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (i, (question, decided)) in [
            ("eps:1:3 --max-rounds 2", true),
            ("consensus:1 --max-rounds 2", true),
            ("consensus:2 --max-rounds 6", true),
            ("eps:2:4 --max-rounds 3 --budget 1", false),
            ("oneshot:1 --timeout-secs 0", false),
            // too large at b = 2
            ("eps:4:3 --max-rounds 2", false),
            // explained by the certificate alone, and by distances alone
            ("kset:3:3 --max-rounds 1", true),
            ("eps:1:64 --max-rounds 3", true),
        ]
        .into_iter()
        .enumerate()
        {
            let plain = cmd_solve(&argv(question)).unwrap();
            let store = dir.join(i.to_string());
            let mut args = argv(question);
            args.extend(["--store".to_string(), store.to_str().unwrap().to_string()]);
            let cold = cmd_solve(&args).unwrap();
            let (lines, store_line) = cold.trim_end().rsplit_once('\n').unwrap();
            assert_eq!(format!("{lines}\n"), plain, "{question}");
            let records = iis_store::Store::open(&store).unwrap().len();
            assert_eq!(records, usize::from(decided), "{question}: {store_line}");
            if decided {
                assert!(store_line.starts_with("store: miss — computed and saved"));
                let warm = cmd_solve(&args).unwrap();
                let (warm_lines, warm_store) = warm.trim_end().rsplit_once('\n').unwrap();
                assert_eq!(warm_lines, lines, "{question}");
                assert!(warm_store.starts_with("store: hit"), "{warm}");
            } else {
                assert!(
                    store_line.starts_with("store: miss — undecided, nothing stored"),
                    "{store_line}"
                );
                assert!(lines.lines().last().unwrap().contains("— inconclusive"));
                assert!(!plain.contains("no decision map found"), "{plain}");
            }
            if let Some(m) = plain.split("no decision map found up to b = ").nth(1) {
                let m: usize = m.trim_end().parse().unwrap();
                for b in 0..=m {
                    let exact = format!("b = {b}: no decision map (exact)");
                    assert!(plain.lines().any(|l| l == exact), "{question}: {plain}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solve_task_from_file() {
        let path = std::env::temp_dir().join("iis_cli_task.json");
        let task = iis_tasks::library::trivial(1);
        std::fs::write(&path, task.to_json().to_string()).unwrap();
        let out = cmd_solve(&[format!("@{}", path.display())]).unwrap();
        assert!(out.contains("b = 0: SOLVABLE"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_repair_round_trip() {
        let dir = std::env::temp_dir().join(format!("iis_cli_repair_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        // healthy store: nothing to repair
        {
            let mut store = iis_store::Store::open(&dir).unwrap();
            store.put(1, "alpha").unwrap();
            store.put(2, "beta").unwrap();
        }
        let out = cmd_store(&["repair".into(), dir_s.clone()]).unwrap();
        assert!(out.contains("nothing to repair"), "{out}");
        // corrupt the segment mid-file → quarantine on open → repair
        let seg = dir.join("seg-00000.jsonl");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();
        let out = dispatch(&["store".into(), "repair".into(), dir_s.clone()]).unwrap();
        assert!(out.contains("writable again"), "{out}");
        // the repaired store reopens healthy and writable
        let mut store = iis_store::Store::open(&dir).unwrap();
        assert!(!store.degraded());
        assert_eq!(store.recovery().quarantined_segments, 0);
        assert!(store.put(3, "gamma").unwrap());
        // flag errors
        assert!(cmd_store(&[]).is_err());
        assert!(cmd_store(&["defrag".into()]).is_err());
        assert!(cmd_store(&["repair".into()]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_task_errors() {
        assert!(parse_task("nope").is_err());
        assert!(parse_task("kset:x:1").is_err());
        assert!(parse_task("@/definitely/missing.json").is_err());
    }

    #[test]
    fn fuzz_sweeps_every_layer() {
        for layer in ["iis", "atomic", "emulation", "bg", "store", "gateway"] {
            let out = cmd_fuzz(&argv(&format!(
                "--layer {layer} --cases 10 --seed 7 --crashes 2 --shrink"
            )))
            .unwrap_or_else(|e| panic!("{layer}: {e}"));
            assert!(out.contains("all oracles passed"), "{layer}: {out}");
            assert!(out.contains("10 cases"), "{layer}: {out}");
        }
    }

    #[test]
    fn fuzz_exhaustive_and_task_modes() {
        let out = cmd_fuzz(&argv("--layer iis --rounds 1 --exhaustive")).unwrap();
        assert!(out.contains("351 cases"), "{out}");
        assert!(out.contains("exhaustive"), "{out}");
        let out = cmd_fuzz(&argv(
            "--layer iis --task oneshot:2 --rounds 1 --cases 15 --crashes 2",
        ))
        .unwrap();
        assert!(out.contains("all oracles passed"), "{out}");
    }

    #[test]
    fn fuzz_flag_errors() {
        assert!(cmd_fuzz(&argv("--cases 5")).is_err());
        assert!(cmd_fuzz(&argv("--layer warp")).is_err());
        assert!(cmd_fuzz(&argv("--layer bg --task oneshot:2")).is_err());
        assert!(cmd_fuzz(&argv("--layer atomic --exhaustive")).is_err());
        assert!(cmd_fuzz(&argv("--layer iis --seed nope")).is_err());
        // an unsolvable task cannot anchor the wait-freedom oracle
        assert!(cmd_fuzz(&argv("--layer iis --task consensus:2 --rounds 1")).is_err());
    }

    #[test]
    fn fuzz_stats_expose_counters() {
        let out = dispatch(&argv("fuzz --layer iis --cases 5 --crashes 1 --stats")).unwrap();
        assert!(out.contains("fuzz.cases"), "{out}");
    }

    #[test]
    fn emulate_all_adversaries() {
        for adv in ["lockstep", "sequential", "rotating", "laggard", "random"] {
            let out = cmd_emulate(&argv(&format!("3 2 --adversary {adv}"))).unwrap();
            assert!(out.contains("completed in"), "{adv}: {out}");
        }
        assert!(cmd_emulate(&argv("3 2 --adversary bogus")).is_err());
        assert!(cmd_emulate(&argv("0 2")).is_err());
    }

    #[test]
    fn bg_runs_and_crashes() {
        let out = cmd_bg(&argv("3 1 2")).unwrap();
        assert!(out.contains("decided: 3/3"));
        let out = cmd_bg(&argv("3 1 2 --crash 0@1")).unwrap();
        assert!(out.contains("decided:"));
        assert!(cmd_bg(&argv("3 1")).is_err());
        assert!(cmd_bg(&argv("3 1 2 --crash zz")).is_err());
    }

    #[test]
    fn flag_value_accepts_equals_form() {
        let args = argv("solve consensus:1 --max-rounds=3");
        assert_eq!(flag_value(&args, "--max-rounds").unwrap(), Some("3"));
        assert_eq!(flag_value(&args, "--budget").unwrap(), None);
    }

    #[test]
    fn flag_value_rejects_trailing_flag() {
        let args = argv("solve consensus:1 --max-rounds");
        let e = flag_value(&args, "--max-rounds").unwrap_err();
        assert!(e.0.contains("--max-rounds requires a value"), "{e}");
        assert!(cmd_solve(&argv("consensus:1 --budget")).is_err());
    }

    #[test]
    fn stats_flag_appends_table() {
        let out = dispatch(&argv("solve eps:2:4 --max-rounds 2 --budget 1 --stats")).unwrap();
        assert!(out.contains("stats"), "{out}");
        // eps:2:4's distances refute b ≤ 1, and b = 2 is searched until
        // its budget runs out; no test of this binary finds a witness on
        // that level, and an undecided level is never memoized, so its
        // tower is built here whatever the other tests solved
        assert!(out.contains("solve.distance_refuted"), "{out}");
        assert!(out.contains("solve.propagations"), "{out}");
        assert!(out.contains("solve.prunes"), "{out}");
        assert!(out.contains("sds.facets"), "{out}");
        // a certified refutation says so, in the solve output and the stats
        let out = dispatch(&argv("solve kset:2:1 --stats")).unwrap();
        assert!(out.contains("Sperner certificate"), "{out}");
        assert!(out.contains("solve.certified"), "{out}");
    }

    #[test]
    fn trace_flag_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join("iis_cli_trace.jsonl");
        let out = dispatch(&[
            "solve".into(),
            "eps:1:3".into(),
            format!("--trace={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("SOLVABLE"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.trim().is_empty(), "trace file must not be empty");
        for line in text.lines() {
            let j = iis_obs::Json::parse(line).unwrap();
            assert!(j.get("ts_us").is_some());
            assert!(j.get("kind").is_some());
            assert!(j.get("name").is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strip_obs_flags_extracts_globals() {
        let (f, rest) = strip_obs_flags(&argv("sds 2 1 --stats --trace t.jsonl")).unwrap();
        assert!(f.stats);
        assert_eq!(f.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(rest, argv("sds 2 1"));
        assert!(strip_obs_flags(&argv("sds --trace")).is_err());
        let (f, rest) = strip_obs_flags(&argv(
            "solve eps:1:3 --profile p.txt --progress --serve=127.0.0.1:0",
        ))
        .unwrap();
        assert_eq!(f.profile.as_deref(), Some("p.txt"));
        assert!(f.progress);
        assert_eq!(f.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(rest, argv("solve eps:1:3"));
        assert!(strip_obs_flags(&argv("solve --profile")).is_err());
        assert!(strip_obs_flags(&argv("solve --serve")).is_err());
    }

    #[test]
    fn profile_flag_writes_a_parseable_span_tree() {
        let path = std::env::temp_dir().join("iis_cli_profile.folded");
        let out = dispatch(&[
            "solve".into(),
            "eps:1:3".into(),
            "--jobs".into(),
            "2".into(),
            format!("--profile={}", path.display()),
        ])
        .unwrap();
        assert!(out.contains("SOLVABLE"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let folded = iis_obs::profile::parse_collapsed(&text).unwrap();
        assert!(!folded.is_empty(), "profile must contain samples:\n{text}");
        // the span tree is at least two levels deep: a round frame with a
        // search/compile/split phase nested under it
        assert!(
            folded.iter().any(|(stack, _)| stack.len() >= 2),
            "expected a nested frame in:\n{text}"
        );
        assert!(
            folded
                .iter()
                .any(|(stack, _)| stack[0].starts_with("round:")),
            "expected a round root frame in:\n{text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_flag_runs_the_command_with_a_live_endpoint() {
        // 127.0.0.1:0 picks a free port; the server is torn down before
        // dispatch returns, so the command output is unaffected
        let out = dispatch(&argv("solve eps:1:3 --serve 127.0.0.1:0")).unwrap();
        assert!(out.contains("SOLVABLE"), "{out}");
    }

    #[test]
    fn progress_flag_is_accepted() {
        let out = dispatch(&argv("solve eps:1:3 --progress")).unwrap();
        assert!(out.contains("SOLVABLE"), "{out}");
    }

    #[test]
    fn dispatch_routes() {
        assert!(dispatch(&argv("help")).unwrap().contains("USAGE"));
        assert!(dispatch(&argv("nonsense")).is_err());
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&argv("homology 1 1")).is_ok());
    }
}
