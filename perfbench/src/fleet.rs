//! The fleet under test: two `iis serve` shards and one `iis gateway`,
//! each a child process running the real `cmd_serve` / `cmd_gateway`
//! code, talking HTTP over loopback.

use crate::oracle::Oracle;
use iis_obs::http::Client;
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The hidden subcommand a child process runs `iis serve` under.
pub const SERVE_ROLE: &str = "__serve";
/// The hidden subcommand a child process runs `iis gateway` under.
pub const GATEWAY_ROLE: &str = "__gateway";

/// First shard port tried. Rendezvous routing hashes the backend
/// addresses, so fixed shard addresses give every run the same key-to-shard
/// split; the range sits below Linux's ephemeral ports.
const SHARD_PORT_BASE: u16 = 27411;

/// The gateway's background `/readyz` probe period. Not the 1000 ms
/// default: a shard's keep-alive worker starts its 2 s read deadline when
/// it begins waiting, not at a request's first byte, and a probe that
/// overlaps a request opens a second pooled connection that the next
/// overlapping probe reuses an exact multiple of 1 s later. At 2 s idle
/// the head of a POST can arrive inside the deadline and its body after
/// it, and the shard answers 400. With 1.5 s periods that reuse comes at
/// 1.5 s (inside the deadline) or 3 s (the shard has hung up; the client
/// reconnects). The defect stays in the service; this keeps it from
/// failing benchmark questions at random.
const PROBE_MS: u64 = 1500;

/// One child process of the fleet.
struct Proc {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Proc {
    /// Starts `role` with `args` and waits for the line announcing its
    /// bound address (`… on http://ADDR`). Blocking on that line, not
    /// polling, is what keeps set-up timing free of sleep granularity.
    fn spawn(role: &str, args: &[String]) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(role)
            .args(args)
            // one malloc arena per process: peak RSS then measures the data
            // a process holds, not how many arenas its threads spread over
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {role}: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        loop {
            let mut line = String::new();
            if lines.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.wait();
                return Err(format!("{role} exited before binding: {}", seen.trim()));
            }
            if let Some((_, addr)) = line.trim().split_once(" on http://") {
                let addr = addr.to_string();
                // keep draining so a chatty child never blocks on a full pipe
                let stderr = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut lines, &mut std::io::sink());
                });
                return Ok(Proc {
                    child,
                    addr,
                    stderr: Some(stderr),
                });
            }
            seen.push_str(&line);
        }
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    fn peak_rss_kib(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// `POST /shutdown` on a fresh `Connection: close` socket, then waits
    /// for the process to exit (killing it past a grace period).
    fn stop(mut self) {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = write!(
                s,
                "POST /shutdown HTTP/1.1\r\nHost: fleet\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            );
            let _ = s.read_to_end(&mut Vec::new());
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// A running fleet: shards, and a gateway in front of them unless the
/// traced run drives an in-process gateway instead.
pub struct Fleet {
    shards: Vec<Proc>,
    gateway: Option<Proc>,
}

/// The shard port pair that bound last, so relaunches within a run keep
/// the same addresses (and the same routing).
static PORT_BASE: std::sync::atomic::AtomicU16 = std::sync::atomic::AtomicU16::new(SHARD_PORT_BASE);

impl Fleet {
    /// Launches one shard per store directory, then (with `gateway`) the
    /// gateway over them once every shard has bound.
    ///
    /// # Errors
    ///
    /// A child that fails to start or bind.
    pub fn launch(stores: &[PathBuf], gateway: bool) -> Result<Fleet, String> {
        use std::sync::atomic::Ordering;
        let mut last_err = String::new();
        for _ in 0..8 {
            let base = PORT_BASE.load(Ordering::Relaxed);
            match Fleet::launch_on(stores, gateway, base) {
                Ok(fleet) => return Ok(fleet),
                Err(e) => {
                    // a taken port: move the whole pair along
                    last_err = e;
                    PORT_BASE.store(base + stores.len() as u16, Ordering::Relaxed);
                }
            }
        }
        Err(last_err)
    }

    fn launch_on(stores: &[PathBuf], gateway: bool, base: u16) -> Result<Fleet, String> {
        // start every shard before waiting on any, so they come up together
        let mut pending = Vec::new();
        for (i, dir) in stores.iter().enumerate() {
            let args = vec![
                "--addr".to_string(),
                format!("127.0.0.1:{}", base + i as u16),
                "--store".to_string(),
                dir.display().to_string(),
            ];
            pending.push(std::thread::spawn(move || Proc::spawn(SERVE_ROLE, &args)));
        }
        let mut shards = Vec::new();
        let mut failure = None;
        for p in pending {
            match p.join().map_err(|_| "shard launcher panicked".to_string()) {
                Ok(Ok(proc_)) => shards.push(proc_),
                Ok(Err(e)) | Err(e) => failure = Some(e),
            }
        }
        let mut fleet = Fleet {
            shards,
            gateway: None,
        };
        if let Some(e) = failure {
            fleet.stop();
            return Err(e);
        }
        if gateway {
            let args = vec![
                "--backends".to_string(),
                fleet.backends().join(","),
                "--addr".to_string(),
                "127.0.0.1:0".to_string(),
                "--probe-ms".to_string(),
                PROBE_MS.to_string(),
            ];
            match Proc::spawn(GATEWAY_ROLE, &args) {
                Ok(g) => fleet.gateway = Some(g),
                Err(e) => {
                    fleet.stop();
                    return Err(e);
                }
            }
        }
        Ok(fleet)
    }

    /// The shard addresses, in backend order.
    pub fn backends(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// The gateway address.
    pub fn gateway(&self) -> &str {
        self.gateway.as_ref().map_or("", |g| g.addr.as_str())
    }

    /// CPU time the fleet's processes have used so far (user + system,
    /// from `/proc/<pid>/stat`), in clock ticks. Unlike wall-clock time it
    /// does not grow when the hypervisor steals the CPU.
    pub fn cpu_ticks(&self) -> u64 {
        self.shards
            .iter()
            .chain(self.gateway.as_ref())
            .map(|p| {
                let stat = std::fs::read_to_string(format!("/proc/{}/stat", p.child.id()))
                    .unwrap_or_default();
                // fields after the parenthesised command name; utime and
                // stime are the 14th and 15th fields of the whole line
                let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
                let field = |i: usize| -> u64 {
                    rest.split_whitespace()
                        .nth(i)
                        .and_then(|f| f.parse().ok())
                        .unwrap_or(0)
                };
                field(11) + field(12)
            })
            .sum()
    }

    /// Each fleet process's peak resident memory (`VmHWM`) in MiB: the
    /// shards in backend order, then the gateway.
    pub fn peak_rss_mib(&self) -> Vec<f64> {
        self.shards
            .iter()
            .chain(self.gateway.as_ref())
            .map(|p| p.peak_rss_kib() as f64 / 1024.0)
            .collect()
    }

    /// Stops the gateway first (its pooled shard connections close with
    /// it), then every shard, and waits for each process to exit.
    pub fn stop(mut self) {
        if let Some(g) = self.gateway.take() {
            g.stop();
        }
        for s in self.shards.drain(..) {
            s.stop();
        }
    }
}

/// A scraped Prometheus exposition: series name → value.
pub type Scrape = BTreeMap<String, f64>;

/// `GET /metrics` from `addr`, parsed into series.
///
/// # Errors
///
/// A transport failure or a non-200 reply.
pub fn scrape(client: &Client, addr: &str) -> Result<Scrape, String> {
    let r = client
        .get(addr, "/metrics")
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    if r.status != 200 {
        return Err(format!("scrape {addr}: status {}", r.status));
    }
    Ok(parse_scrape(r.body_utf8().unwrap_or("")))
}

/// Parses Prometheus text into series.
pub fn parse_scrape(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, v) = l.rsplit_once(' ')?;
            Some((name.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// `after[name] − before[name]`, absent series reading as zero.
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Creates `dir` empty, removing whatever was there.
///
/// # Errors
///
/// Filesystem failures.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Fills every store with every warm record, as a fleet that has
/// answered the warm set before would hold them.
///
/// # Errors
///
/// Store I/O failures.
pub fn prefill(stores: &[PathBuf], oracle: &Oracle) -> Result<(), String> {
    for dir in stores {
        fresh_dir(dir)?;
        let mut store = iis_store::Store::open(dir).map_err(|e| format!("open store: {e}"))?;
        for k in &oracle.warm {
            store
                .put(k.key, &k.record)
                .map_err(|e| format!("put: {e}"))?;
        }
        store.flush().map_err(|e| format!("flush: {e}"))?;
    }
    Ok(())
}
