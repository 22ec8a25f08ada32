//! What the tests that run the real `iis-cli` binary share: a server
//! process on an ephemeral port, and a heavy question to ask it.

// each test binary uses its own part of this module
#![allow(dead_code)]

use iis_tasks::{Task, TaskBuilder};
use iis_topology::{Color, Complex, Label, Simplex};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};

/// One `iis serve` or `iis gateway` process on an ephemeral port.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Held open so the server can still write to it.
    _stderr: BufReader<ChildStderr>,
}

impl Server {
    /// `iis serve --addr 127.0.0.1:0` with `args`.
    pub fn serve(args: &[&str]) -> Server {
        Server::start("serve", "serving on http://", args)
    }

    /// `iis gateway --addr 127.0.0.1:0` with `args`.
    pub fn gateway(args: &[&str]) -> Server {
        Server::start("gateway", "gateway on http://", args)
    }

    /// Starts `command`, reading its stderr up to the `banner` line that
    /// names the bound address.
    fn start(command: &str, banner: &str, args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_iis-cli"))
            .args([command, "--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert_ne!(stderr.read_line(&mut line).unwrap(), 0, "{command} exited");
            if let Some(addr) = line.trim_end().strip_prefix(banner) {
                break addr.to_string();
            }
        };
        Server {
            child,
            addr,
            _stderr: stderr,
        }
    }

    /// `(status, body)` of one request on its own connection.
    pub fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
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

    pub fn solve(&self, body: &str) -> (u16, String) {
        self.request("POST", "/solve", body)
    }

    /// The value of the unlabelled sample `name` on `/metrics`.
    pub fn metric(&self, name: &str) -> u64 {
        let (_, text) = self.request("GET", "/metrics", "");
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("/metrics lacks {name}"))
    }

    pub fn stop(mut self) {
        assert_eq!(self.request("POST", "/shutdown", "").0, 200);
        assert!(self.child.wait().unwrap().success());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The record a `POST /solve` reply carries, as sent.
pub fn result_of(reply: &str) -> &str {
    let spliced = reply.split_once("\"result\":").unwrap().1;
    spliced.strip_suffix('}').unwrap()
}

/// Pigeonhole as a two-process task: `m + 1` pigeons (process 0's inputs)
/// go into `m` holes, and each pair of pigeons meets at an input of
/// process 1 whose output names both pigeons' holes, distinct. No decision
/// map exists even at `b = 0`, and arc consistency does not see it, so
/// the MAC search runs through about `m!` nodes on a tower that is the
/// input complex itself: a heavy question with no heavy tower or compile.
pub fn pigeonhole(m: u64) -> Task {
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
