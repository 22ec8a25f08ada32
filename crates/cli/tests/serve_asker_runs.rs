//! A waited cold question at `iis serve` is solved by the thread that read
//! it. These tests run the real binary, one process per test, so the
//! process-wide counters they read from `/metrics` count only their own
//! questions.

use iis_tasks::{Task, TaskBuilder};
use iis_topology::{Color, Complex, Label, Simplex};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// One `iis serve` process on an ephemeral port.
struct Shard {
    child: Child,
    addr: String,
    /// Held open so the shard can still write to it.
    _stderr: BufReader<ChildStderr>,
}

impl Shard {
    fn start(args: &[&str]) -> Shard {
        let mut child = Command::new(env!("CARGO_BIN_EXE_iis-cli"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "serve exited");
            if let Some(addr) = line.trim_end().strip_prefix("serving on http://") {
                break addr.to_string();
            }
        };
        Shard {
            child,
            addr,
            _stderr: stderr,
        }
    }

    /// `(status, body)` of one request on its own connection.
    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).unwrap();
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
        let status = head.split(' ').nth(1).unwrap().parse().unwrap();
        (status, body.to_string())
    }

    fn solve(&self, body: &str) -> (u16, String) {
        self.request("POST", "/solve", body)
    }

    /// The value of the unlabelled sample `name` on `/metrics`.
    fn metric(&self, name: &str) -> u64 {
        let (_, text) = self.request("GET", "/metrics", "");
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("/metrics lacks {name}"))
    }

    fn stop(mut self) {
        assert_eq!(self.request("POST", "/shutdown", "").0, 200);
        assert!(self.child.wait().unwrap().success());
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The record a `POST /solve` reply carries, as sent.
fn result_of(reply: &str) -> &str {
    let spliced = reply.split_once("\"result\":").unwrap().1;
    spliced.strip_suffix('}').unwrap()
}

/// Pigeonhole as a two-process task: `m + 1` pigeons (process 0's inputs)
/// go into `m` holes, and each pair of pigeons meets at an input of
/// process 1 whose output names both pigeons' holes, distinct. No decision
/// map exists even at `b = 0`, and arc consistency does not see it, so
/// the MAC search runs through about `m!` nodes on a tower that is the
/// input complex itself: a heavy question with no heavy tower or compile.
fn pigeonhole(m: u64) -> Task {
    let (mut input, mut output) = (Complex::new(), Complex::new());
    let hole = |output: &mut Complex, h: u64| output.ensure_vertex(Color(0), Label::scalar(h));
    let holes = |output: &mut Complex, x: u64, y: u64| {
        let xy = Label::pair(&Label::scalar(x), &Label::scalar(y));
        output.ensure_vertex(Color(1), xy)
    };
    let mut allowed = Vec::new();
    for i in 0..=m {
        for j in i + 1..=m {
            let pi = input.ensure_vertex(Color(0), Label::scalar(i));
            let pj = input.ensure_vertex(Color(0), Label::scalar(j));
            let ij = Label::pair(&Label::scalar(i), &Label::scalar(j));
            let a = input.ensure_vertex(Color(1), ij);
            let (ei, ej) = (input.add_facet([pi, a]), input.add_facet([pj, a]));
            for x in 0..m {
                let hx = hole(&mut output, x);
                allowed.push((Simplex::new([pi]), Simplex::new([hx])));
                allowed.push((Simplex::new([pj]), Simplex::new([hx])));
                for y in (0..m).filter(|&y| y != x) {
                    let (hy, xy) = (hole(&mut output, y), holes(&mut output, x, y));
                    allowed.push((Simplex::new([a]), Simplex::new([xy])));
                    allowed.push((ei.clone(), output.add_facet([hx, xy])));
                    allowed.push((ej.clone(), output.add_facet([hy, xy])));
                }
            }
        }
    }
    let mut task = TaskBuilder::new("pigeonhole", input, output);
    for (si, so) in allowed {
        task.allow(si, so);
    }
    task.build().unwrap()
}

/// A heavy question its asker runs stops at the one deadline of its whole
/// sweep: a structured `504` within the deadline plus a second, and no
/// job is left running.
#[test]
fn a_heavy_question_answers_504_within_the_deadline_and_frees_its_slot() {
    let shard = Shard::start(&["--timeout-secs", "1"]);
    // about 6.5 s of search on a 2-vCPU VM, past the default node budget
    let task = pigeonhole(9);
    let body = format!(
        r#"{{"task": {}, "max_rounds": 0, "budget": 1000000000000}}"#,
        task.canonical_json()
    );
    let started = Instant::now();
    let (status, reply) = shard.solve(&body);
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{reply}");
    assert!(reply.contains(r#""status":"timed_out""#), "{reply}");
    assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
    assert_eq!(shard.metric("serve_jobs_active"), 0);
    assert_eq!(shard.metric("serve_timeouts_total"), 1);
    shard.stop();
}

/// A waited question whose node budget runs out answers the question: a
/// `422` whose body names the round the sweep stopped at, on a shard with
/// a deadline that did not pass, and no timeout is counted.
#[test]
fn an_exhausted_budget_answers_422_and_counts_no_timeout() {
    let shard = Shard::start(&["--timeout-secs", "60"]);
    let (status, reply) = shard.solve(r#"{"spec": "eps:2:3", "max_rounds": 2, "budget": 50}"#);
    let task = iis_tasks::library::parse_spec("eps:2:3").unwrap();
    let key = iis_core::cache::cache_key(&task, 2);
    assert_eq!(status, 422, "{reply}");
    assert_eq!(
        reply,
        format!(
            r#"{{"error":"inconclusive: search exhausted at b = 2 (raise \"budget\")","job":1,"key":"{key:016x}"}}"#
        )
    );
    assert_eq!(shard.metric("serve_timeouts_total"), 0);
    assert_eq!(shard.metric("serve_jobs_active"), 0);
    shard.stop();
}

/// An identical cold question sent while the first one's asker runs its
/// job joins that job: one sweep, and both replies carry the same record
/// bytes.
#[test]
fn an_identical_question_coalesces_onto_the_job_its_asker_runs() {
    let shard = Shard::start(&[]);
    // refuted at b = 0 after about 0.5 s of search on a 2-vCPU VM
    let body = format!(
        r#"{{"task": {}, "max_rounds": 0, "budget": 1000000000000}}"#,
        pigeonhole(8).canonical_json()
    );
    let replies: Vec<(u16, String)> = std::thread::scope(|s| {
        let first = s.spawn(|| shard.solve(&body));
        // the second is sent once the first one's asker runs its job
        while !shard
            .request("GET", "/jobs", "")
            .1
            .contains(r#""status":"running""#)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let second = s.spawn(|| shard.solve(&body));
        [first, second].map(|ask| ask.join().unwrap()).into()
    });
    for (status, reply) in &replies {
        assert_eq!(*status, 200, "{reply}");
    }
    // a fresh shard: its one store miss is the one sweep
    assert_eq!(shard.metric("solve_cache_store_misses_total"), 1);
    assert!(
        replies[0].1.starts_with(r#"{"cached":false,"job":1,"#),
        "{replies:?}"
    );
    assert!(
        replies[1].1.starts_with(r#"{"coalesced":true,"#),
        "{replies:?}"
    );
    assert_eq!(result_of(&replies[0].1), result_of(&replies[1].1));
    assert_eq!(shard.metric("serve_jobs_active"), 0);
    shard.stop();
}
