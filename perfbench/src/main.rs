//! `perfbench` — the solve service's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload warm_zipf|warm_batch|cold_unique --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it launches a real fleet (two `iis serve` shards behind
//! `iis gateway`, each its own process), drives the workload closed-loop
//! through the gateway for the whole passes `S` seconds nominally take,
//! checks every answer against the in-process oracle and the workload's
//! shape guards, and prints the end-to-end metrics. With `--trace 1` it
//! runs the same question stream through an in-process gateway with a
//! span-recording transport and replays the shards' layers in-process,
//! printing the per-layer metrics. See `README.md` beside this file.
//!
//! The last stdout line is always the JSON result; the line before it is
//! the full report (host metadata, sample counts, guards).

mod drive;
mod fleet;
mod oracle;
mod report;
mod traced;
mod workload;

use drive::{drive, quantile, Plan};
use fleet::{delta, fresh_dir, prefill, scrape, Fleet, GATEWAY_ROLE, SERVE_ROLE};
use iis_obs::http::Client;
use iis_obs::{Json, ToJson as _};
use oracle::Oracle;
use report::{Metrics, RunResult};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::Workload;

/// Fleet launches per run; `setup_s` is their median.
const SETUPS: usize = 31;

/// The question whose correct answer ends a set-up: a warm key, so warm
/// stores answer it from the record and empty stores solve it.
const PROBE: &str = "trivial:1";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    let seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err("--seconds must be within 0..=3600".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Whether `reply` carries the canonical record of the set-up probe.
fn probe_ok(oracle: &Oracle, status: u16, reply: &str) -> bool {
    let record = oracle
        .warm
        .iter()
        .find(|k| k.shape.spec == PROBE && k.shape.max_rounds == 1)
        .map_or("", |k| k.record.as_str());
    status == 200 && reply.ends_with(&format!("\"result\":{record}}}"))
}

/// Launches the fleet and returns it with its set-up time: from the
/// first process spawn until the gateway, with every shard Ready, returns
/// the probe's correct answer.
fn timed_setup(stores: &[PathBuf], oracle: &Oracle) -> Result<(Fleet, f64), String> {
    let start = Instant::now();
    let fleet = Fleet::launch(stores, true)?;
    let client = Client::new();
    let gw = fleet.gateway().to_string();
    let ready = || -> bool {
        client.get(&gw, "/cluster").is_ok_and(|r| {
            let text = String::from_utf8_lossy(&r.body);
            r.status == 200 && text.matches("\"ready\"").count() == stores.len()
        })
    };
    let body = format!("{{\"spec\":\"{PROBE}\",\"max_rounds\":1}}");
    loop {
        if ready() {
            if let Ok(r) = client.post_json(&gw, "/solve", &body) {
                if probe_ok(oracle, r.status, &String::from_utf8_lossy(&r.body)) {
                    return Ok((fleet, start.elapsed().as_secs_f64()));
                }
            }
        }
        if start.elapsed() > Duration::from_secs(60) {
            fleet.stop();
            return Err("the fleet never answered the set-up probe".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// A closed-loop sender over one keep-alive connection per client.
fn http_sender<'c>(
    clients: &'c [Client],
    addr: &'c str,
) -> impl Fn(usize, u64, &str) -> drive::Reply + Sync + 'c {
    move |c, _, body| {
        clients[c]
            .post_json(addr, "/solve", body)
            .map(|r| (r.status, String::from_utf8_lossy(&r.body).into_owned()))
            .map_err(|e| e.to_string())
    }
}

/// The untraced, end-to-end run.
fn timed_run(args: &Args, work: &Path, oracle: &Oracle, root: &Path) -> Result<RunResult, String> {
    let w = args.workload;
    let stores: Vec<PathBuf> = (0..2).map(|i| work.join(format!("shard-{i}"))).collect();
    if w.warm() {
        prefill(&stores, oracle)?;
    }
    let mut setups = Vec::new();
    let mut fleet = None;
    let setup_ticks = report::cpu_ticks();
    for i in 0..SETUPS {
        if !w.warm() {
            for dir in &stores {
                fresh_dir(dir)?;
            }
        }
        let (f, s) = timed_setup(&stores, oracle)?;
        setups.push(s);
        if i + 1 < SETUPS {
            f.stop();
        } else {
            fleet = Some(f);
        }
    }
    let setup_grant = report::grant(setup_ticks, report::cpu_ticks());
    let fleet = fleet.expect("at least one set-up");
    let gw = fleet.gateway().to_string();
    let plan = Plan::new(w, oracle, args.seed);
    // the clients (and their keep-alive connections) close before the
    // fleet is asked to stop
    let result = {
        let clients: Vec<Client> = (0..w.clients()).map(|_| Client::new()).collect();
        let send = http_sender(&clients, &gw);
        let scraper = Client::new();
        // untimed warm-up: fills the tower memos and the connection pools
        let warmup = drive(
            &Plan::warmup(w, oracle, args.seed),
            w.clients(),
            0,
            1,
            &send,
        );
        scrape(&scraper, &gw).and_then(|before| {
            let first = plan.next_pass(warmup.next_seq);
            let (ticks, fleet_ticks) = (report::cpu_ticks(), fleet.cpu_ticks());
            let timed = drive(&plan, w.clients(), first, w.passes(args.seconds), &send);
            let host_cpu = report::cpu_use(ticks, report::cpu_ticks(), timed.elapsed_s);
            // USER_HZ is 100: one tick is 10 ms
            let fleet_cpu_us = fleet.cpu_ticks().saturating_sub(fleet_ticks) as f64 * 1e4;
            let after = scrape(&scraper, &gw)?;
            Ok((
                warmup,
                timed,
                host_cpu,
                fleet_cpu_us,
                before,
                after,
                fleet.peak_rss_mib(),
            ))
        })
    };
    fleet.stop();
    let (warmup, timed, host_cpu, fleet_cpu_us, before, after, rss) = result?;

    let q = timed.questions as f64;
    let d = |name: &str| delta(&before, &after, name);
    let shape_ok = if w.warm() {
        d("serve_cache_hits_total") == q && d("solve_cache_store_misses_total") == 0.0
    } else {
        d("serve_cache_hits_total") == 0.0 && d("store_puts_total") == q
    };
    let correct = shape_ok && timed.failed == 0 && warmup.failed == 0;

    // wall-clock figures on the CPU time the hypervisor granted (see
    // `Outcome::granted`); the raw ones go in the report
    let granted = timed.granted();
    let lat_ms: Vec<f64> = granted.latencies_us.iter().map(|us| us / 1e3).collect();
    let raw_ms: Vec<f64> = timed.latencies_us.iter().map(|us| us / 1e3).collect();
    let correct_share = 1.0 - timed.failed as f64 / q.max(1.0);
    let mut m = Metrics::default();
    m.put("qps", granted.qps * correct_share, "1/s");
    m.put("p50_ms", quantile(&lat_ms, 0.5), "ms");
    m.put("p90_ms", quantile(&lat_ms, 0.9), "ms");
    m.put("setup_s", drive::median(&setups) * setup_grant, "s");
    m.put("peak_rss_mb", rss.iter().sum(), "MiB");
    m.put("cpu_us_per_q", fleet_cpu_us / q.max(1.0), "us");

    let report = Json::obj([
        ("workload", Json::Str(w.name().to_string())),
        ("seed", args.seed.to_json()),
        ("host", report::host(root)),
        ("generator", report::generator(w.clients())),
        ("timed_s", Json::Num(timed.elapsed_s)),
        ("host_cpu", host_cpu),
        ("pass_s", timed.pass_s.to_json()),
        ("passes", (timed.requests / plan.pass_len()).to_json()),
        ("requests", timed.requests.to_json()),
        ("questions", timed.questions.to_json()),
        (
            "samples",
            Json::obj([
                ("p50_ms", lat_ms.len().to_json()),
                ("p90_ms", lat_ms.len().to_json()),
                ("setup_s", setups.len().to_json()),
            ]),
        ),
        ("p99_ms", Json::Num(quantile(&lat_ms, 0.99))),
        (
            "grant",
            Json::obj([
                ("timed", Json::Num(granted.grant)),
                ("setup", Json::Num(setup_grant)),
            ]),
        ),
        (
            "raw",
            Json::obj([
                ("qps", Json::Num(q * correct_share / timed.elapsed_s)),
                ("p50_ms", Json::Num(quantile(&raw_ms, 0.5))),
                ("p90_ms", Json::Num(quantile(&raw_ms, 0.9))),
                ("setup_s", Json::Num(drive::median(&setups))),
            ]),
        ),
        ("peak_rss_mb_per_process", rss.to_json()),
        ("setup_samples_s", setups.to_json()),
        (
            "first_failure",
            warmup
                .first_failure
                .or(timed.first_failure)
                .map_or(Json::Null, Json::Str),
        ),
        (
            "guards",
            Json::obj([
                ("shape_ok", Json::Bool(shape_ok)),
                ("serve_cache_hits", Json::Num(d("serve_cache_hits_total"))),
                (
                    "solve_cache_store_misses",
                    Json::Num(d("solve_cache_store_misses_total")),
                ),
                ("store_puts", Json::Num(d("store_puts_total"))),
                ("gateway_failovers", Json::Num(d("gateway_failovers_total"))),
                ("serve_rejected", Json::Num(d("serve_rejected_total"))),
                ("serve_timeouts", Json::Num(d("serve_timeouts_total"))),
            ]),
        ),
    ]);
    Ok(RunResult {
        correct,
        attempted: timed.questions,
        failed: timed.failed,
        metrics: m,
        report,
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root.join(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    fresh_dir(&work)?;
    let result = Oracle::build().and_then(|oracle| {
        if args.trace {
            traced::run(
                args.workload,
                args.seed,
                args.seconds,
                &work,
                &oracle,
                &root,
            )
        } else {
            timed_run(args, &work, &oracle, &root)
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // the fleet's child processes: the real service entry points
    let role = argv.first().map(String::as_str);
    if role == Some(SERVE_ROLE) || role == Some(GATEWAY_ROLE) {
        let result = if role == Some(SERVE_ROLE) {
            iis_cli::cmd_serve(&argv[1..])
        } else {
            iis_cli::cmd_gateway(&argv[1..])
        };
        match result {
            Ok(summary) => eprint!("{summary}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(r) => {
            eprint!(
                "{} seed {}:\n{}",
                args.workload.name(),
                args.seed,
                r.metrics.table()
            );
            println!("{}", Json::obj([("report", r.report.clone())]));
            println!("{}", r.result_line());
            if !r.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
