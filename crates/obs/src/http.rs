//! A tiny blocking HTTP server, std-only on `std::net::TcpListener` —
//! the scrape endpoint behind the CLI's `--serve ADDR` and the transport
//! under the `iis serve` solve service.
//!
//! Built-in routes (always available):
//!
//! - `GET /metrics` — every counter, gauge and histogram in Prometheus
//!   text exposition format (counters get a `_total` suffix, histograms
//!   emit cumulative `_bucket{le="…"}` series from the log2 buckets);
//! - `GET /progress` — the live [`crate::progress`] snapshot as JSON
//!   (sorted keys, the committed schema);
//! - `GET /snapshot` — the raw metric [`crate::metrics::Snapshot`] as
//!   JSON;
//! - `GET /` — a plain-text index of the routes.
//!
//! Application routes are layered on top through [`serve_with`]: the
//! handler sees every request (method, path, body) first and returns
//! `None` to fall through to the built-ins. This crate sits at the bottom
//! of the workspace dependency graph, so it knows nothing about tasks or
//! solving — the solve service in `iis-cli` plugs in here.
//!
//! Connections are handled by a **bounded worker pool** ([`Options::workers`],
//! default [`DEFAULT_WORKERS`]): the accept loop only enqueues sockets, so
//! a scrape still answers while a long `POST /solve` is being served, and a
//! flood of connections queues instead of spawning unbounded threads.
//! Shutdown is cooperative: [`Server::shutdown`] (or drop) raises a stop
//! flag and unblocks the `accept` loop with a loopback connection, then
//! joins every thread, so a completed solve never leaves a dangling
//! listener.
//!
//! Request reads are hardened: the whole head+body must arrive within
//! [`Options::read_deadline`] of its first byte (anti-slowloris — a
//! stalled client is disconnected, never pinning a worker), an idle
//! connection is closed once it has waited that long for a first byte,
//! bodies are capped at
//! [`Options::max_body`], and protocol violations (missing, malformed or
//! oversized `Content-Length`; a body shorter than declared) are answered
//! with a structured `400` rather than silently dropped. Wrong methods on
//! known routes get `405` with an `Allow` header; unknown routes stay
//! `404`.
//!
//! Connections are **keep-alive** by HTTP/1.1 default: a worker keeps
//! serving requests off one socket until the client sends
//! `Connection: close`, goes idle past the read deadline, or the server
//! starts shutting down. Protocol-violation `400`s always close.
//!
//! The client half lives here too: [`Client`] is a blocking HTTP/1.1
//! client with a per-host idle-connection pool, `Content-Length` framed
//! bodies, and a per-request wall-clock deadline — the transport under
//! `iis gateway`. A request on a pooled connection that turns out to be
//! stale (the server closed it between requests) is retried once on a
//! fresh socket; this is sound here because every service this client
//! talks to is idempotent (the solvability oracle is a pure function of
//! its question).
//!
//! Every request increments the `serve.requests` counter (when metrics are
//! enabled); rejected reads increment `serve.bad_requests`. Client-side
//! traffic is counted by `http.client_requests`, `http.client_reused` and
//! `http.client_retries`.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::json::ToJson;
use crate::metrics::Snapshot;
use crate::{metrics, progress};

/// Default size of the connection-handler pool.
pub const DEFAULT_WORKERS: usize = 4;

/// Longest request head we bother reading before answering.
const MAX_HEAD: usize = 8 * 1024;

/// Default cap on request body size (a serialized task is a few KiB; a
/// megabyte is generous). Override with [`Options::max_body`].
pub const DEFAULT_MAX_BODY: usize = 1024 * 1024;

/// Default wall-clock budget for reading one full request (head + body).
/// A client that trickles bytes slower than this is disconnected, so a
/// slowloris cannot pin a worker. Override with [`Options::read_deadline`].
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(2);

/// A parsed HTTP request, as seen by a [`serve_with`] handler.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string included, undecoded.
    pub path: String,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, if it is valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// A response for a [`serve_with`] handler to return.
#[derive(Clone, Debug)]
pub struct Response {
    /// Numeric status code; the reason phrase comes from
    /// [`reason_phrase`] when the status line is written.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `Retry-After`, `Allow`), emitted after
    /// the standard ones.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Response {
        Response::json_status(200, body)
    }

    /// A JSON response with an explicit status (e.g. `202`).
    pub fn json_status(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response with an explicit status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a response header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// The stock `404 Not Found` response.
    pub fn not_found() -> Response {
        Response::text(404, "not found\n")
    }

    /// The stock `405 Method Not Allowed` response, advertising the methods
    /// the route does accept via the `Allow` header.
    pub fn method_not_allowed(allow: &'static str) -> Response {
        Response::text(405, "method not allowed\n").with_header("Allow", allow)
    }

    /// A `400 Bad Request` JSON error body: `{"error": msg}`.
    pub fn bad_request(msg: &str) -> Response {
        Response::json_status(
            400,
            crate::json::Json::obj([("error", crate::json::Json::Str(msg.to_string()))])
                .to_string(),
        )
    }
}

/// An application route handler: inspect the request, return `Some`
/// response or `None` to fall through to the built-in scrape routes.
pub type Handler = dyn Fn(&Request) -> Option<Response> + Send + Sync;

/// Server construction options for [`serve_opts`].
#[derive(Clone)]
pub struct Options {
    /// Connection-handler threads (min 1; default [`DEFAULT_WORKERS`]).
    pub workers: usize,
    /// Application routes, consulted before the built-ins.
    pub handler: Option<Arc<Handler>>,
    /// Wall-clock budget for reading one request
    /// (default [`DEFAULT_READ_DEADLINE`]); slower clients are dropped.
    pub read_deadline: Duration,
    /// Largest accepted request body in bytes
    /// (default [`DEFAULT_MAX_BODY`]); larger `Content-Length` gets a 400.
    pub max_body: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workers: DEFAULT_WORKERS,
            handler: None,
            read_deadline: DEFAULT_READ_DEADLINE,
            max_body: DEFAULT_MAX_BODY,
        }
    }
}

/// A running server; shuts down on [`Server::shutdown`] or drop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// The accept-to-worker hand-off: a stop-aware blocking queue.
struct ConnQueue {
    conns: Mutex<std::collections::VecDeque<TcpStream>>,
    ready: Condvar,
}

impl ConnQueue {
    fn push(&self, stream: TcpStream) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(stream);
        self.ready.notify_one();
    }

    /// Blocks for the next connection; `None` once stopped and drained.
    fn pop(&self, stop: &AtomicBool) -> Option<TcpStream> {
        let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stream) = conns.pop_front() {
                return Some(stream);
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            conns = self
                .ready
                .wait(conns)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves the
/// built-in scrape routes on a background worker pool.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve(addr: &str) -> std::io::Result<Server> {
    serve_opts(addr, Options::default())
}

/// [`serve`] with an application [`Handler`] layered over the built-ins.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_with(addr: &str, handler: Arc<Handler>) -> std::io::Result<Server> {
    serve_opts(
        addr,
        Options {
            handler: Some(handler),
            ..Options::default()
        },
    )
}

/// [`serve`] with full [`Options`] control.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_opts(addr: &str, opts: Options) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(ConnQueue {
        conns: Mutex::new(std::collections::VecDeque::new()),
        ready: Condvar::new(),
    });
    let mut threads = Vec::new();
    for _ in 0..opts.workers.max(1) {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let handler = opts.handler.clone();
        let read_deadline = opts.read_deadline;
        let max_body = opts.max_body;
        threads.push(std::thread::spawn(move || {
            while let Some(stream) = queue.pop(&stop) {
                handle_connection(stream, handler.as_deref(), read_deadline, max_body, &stop);
            }
        }));
    }
    {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = stream {
                    queue.push(stream);
                }
            }
        }));
    }
    Ok(Server {
        addr,
        stop,
        queue,
        threads,
    })
}

impl Server {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks the listener and workers, and joins every
    /// thread. Queued connections are still answered before the workers
    /// exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // unblock the accept loop; the connection itself is discarded
        let _ = TcpStream::connect(self.addr);
        // unblock every idle worker
        self.queue.ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Why [`read_request`] could not produce a [`Request`].
enum ReadFailure {
    /// The peer vanished, stalled past the deadline, or never sent a
    /// parseable head — close without answering.
    Disconnect,
    /// A protocol violation worth answering (a 400) before closing.
    Reject(Response),
}

/// Reads a chunk within the overall `deadline` measured from `start`;
/// `Ok(0)` means EOF, `Err` means the deadline passed or the socket died.
fn read_chunk(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    start: Instant,
    deadline: Duration,
) -> std::io::Result<usize> {
    let remaining = deadline
        .checked_sub(start.elapsed())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::TimedOut))?;
    let _ = stream.set_read_timeout(Some(remaining));
    stream.read(chunk)
}

/// Reads one request (head + `Content-Length` body) off `stream`.
///
/// Two waits are bounded by `deadline`, each on its own clock: the idle
/// wait for the request's first byte (a keep-alive connection nobody uses
/// is closed), and the request itself, from its first byte to its last —
/// however slowly the peer trickles bytes. Timing the request from its
/// first byte matters on pooled connections: a request that arrives just
/// before the idle limit still gets the whole deadline to finish. Requests
/// that violate the protocol (unparseable or missing `Content-Length` on a
/// method that carries a body, declared length over `max_body`, body
/// shorter than declared) are rejected with a structured `400` instead of
/// being silently dropped.
fn read_request(
    stream: &mut TcpStream,
    deadline: Duration,
    max_body: usize,
) -> Result<(Request, bool), ReadFailure> {
    let mut start = Instant::now();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_HEAD {
            return Err(ReadFailure::Reject(Response::bad_request(
                "request head too large",
            )));
        }
        match read_chunk(stream, &mut chunk, start, deadline) {
            Ok(0) | Err(_) => return Err(ReadFailure::Disconnect),
            Ok(n) => {
                if buf.is_empty() {
                    // the idle wait is over: the request's own clock starts
                    start = Instant::now();
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("").to_ascii_uppercase();
    let header = |name: &str| {
        head.lines().skip(1).find_map(|l| {
            let (n, value) = l.split_once(':')?;
            n.trim()
                .eq_ignore_ascii_case(name)
                .then(|| value.trim().to_string())
        })
    };
    // HTTP/1.1 defaults to keep-alive; an explicit Connection header wins
    let keep_alive = match header("connection").map(|v| v.to_ascii_lowercase()) {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    let declared = header("content-length");
    let content_length = match declared {
        Some(value) => match value.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Err(ReadFailure::Reject(Response::bad_request(
                    "malformed Content-Length",
                )))
            }
        },
        None if matches!(method.as_str(), "POST" | "PUT" | "PATCH") => {
            return Err(ReadFailure::Reject(Response::bad_request(
                "missing Content-Length",
            )))
        }
        None => 0,
    };
    if content_length > max_body {
        return Err(ReadFailure::Reject(Response::bad_request(
            "body exceeds maximum size",
        )));
    }
    // the body lands straight in a buffer of its declared size: one read
    // per socket delivery, no copy through the chunk
    let mut filled = (buf.len() - head_end).min(content_length);
    buf.drain(..head_end);
    buf.resize(content_length, 0);
    while filled < content_length {
        match read_chunk(stream, &mut buf[filled..], start, deadline) {
            Ok(0) | Err(_) => {
                return Err(ReadFailure::Reject(Response::bad_request(
                    "body shorter than Content-Length",
                )))
            }
            Ok(n) => filled += n,
        }
    }
    Ok((
        Request {
            method,
            path,
            body: buf,
        },
        keep_alive,
    ))
}

/// The reason phrase of `status` — the one table every status line the
/// server writes comes from. A code outside it keeps its number and gets
/// an empty phrase (RFC 9110 §15: clients ignore the phrase), so a relayed
/// status is never rewritten.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) {
    let mut reply = String::with_capacity(160 + response.body.len());
    let _ = write!(
        reply,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        reply.push_str(name);
        reply.push_str(": ");
        reply.push_str(value);
        reply.push_str("\r\n");
    }
    reply.push_str("\r\n");
    reply.push_str(&response.body);
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.flush();
}

thread_local! {
    /// What the handlers of this thread's connection asked to keep until
    /// their reply is written ([`drop_after_reply`]); `None` on a thread
    /// that is not answering a connection.
    static AFTER_REPLY: std::cell::RefCell<Option<Vec<Box<dyn std::any::Any>>>> =
        const { std::cell::RefCell::new(None) };
}

/// Drops `value` once the reply to the request this thread is answering
/// has been written, or at once on a thread that answers no request. A
/// handler hands over what its answer was computed from (a question's
/// task, say), so freeing it is not on the reply's path.
pub fn drop_after_reply<T: 'static>(value: T) {
    let rest = AFTER_REPLY.with(|held| match held.borrow_mut().as_mut() {
        Some(held) => {
            held.push(Box::new(value));
            None
        }
        None => Some(value),
    });
    drop(rest);
}

/// Drops what [`drop_after_reply`] held for the reply just written.
fn drop_held() {
    let held = AFTER_REPLY.with(|held| held.borrow_mut().as_mut().map(std::mem::take));
    // dropped outside the borrow: a value's drop may hand over another
    drop(held);
}

fn handle_connection(
    stream: TcpStream,
    handler: Option<&Handler>,
    read_deadline: Duration,
    max_body: usize,
    stop: &AtomicBool,
) {
    AFTER_REPLY.with(|held| *held.borrow_mut() = Some(Vec::new()));
    answer_connection(stream, handler, read_deadline, max_body, stop);
    drop_held();
    AFTER_REPLY.with(|held| *held.borrow_mut() = None);
}

fn answer_connection(
    mut stream: TcpStream,
    handler: Option<&Handler>,
    read_deadline: Duration,
    max_body: usize,
    stop: &AtomicBool,
) {
    loop {
        let (request, client_keep_alive) = match read_request(&mut stream, read_deadline, max_body)
        {
            Ok(pair) => pair,
            Err(ReadFailure::Reject(response)) => {
                metrics::add("serve.bad_requests", 1);
                write_response(&mut stream, &response, false);
                return;
            }
            Err(ReadFailure::Disconnect) => return,
        };
        static REQUESTS: metrics::StaticCounter = metrics::StaticCounter::new("serve.requests");
        REQUESTS.incr();
        // a shutting-down server finishes the in-flight request but
        // declines to hold the connection open past it
        let keep_alive = client_keep_alive && !stop.load(Ordering::Acquire);
        let response = route(&request, handler);
        write_response(&mut stream, &response, keep_alive);
        drop_held();
        if !keep_alive {
            return;
        }
    }
}

/// The built-in routes, all GET-only.
const BUILTIN_ROUTES: [&str; 4] = ["/metrics", "/progress", "/snapshot", "/"];

fn route(request: &Request, handler: Option<&Handler>) -> Response {
    if let Some(handler) = handler {
        if let Some(response) = handler(request) {
            return response;
        }
    }
    if request.method != "GET" {
        // known route, wrong method → 405 with Allow; unknown route → 404
        return if BUILTIN_ROUTES.contains(&request.path.as_str()) {
            Response::method_not_allowed("GET")
        } else {
            Response::not_found()
        };
    }
    match request.path.as_str() {
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: prometheus_text(&metrics::snapshot()),
        },
        "/progress" => Response::json(progress::snapshot().to_json().to_string_pretty()),
        "/snapshot" => Response::json(metrics::snapshot().to_json().to_string_pretty()),
        "/" => Response::text(
            200,
            "iis scrape endpoint\nroutes: /metrics /progress /snapshot\n",
        ),
        _ => Response::not_found(),
    }
}

/// Mangles a dotted metric name into a Prometheus-legal one
/// (`solve.nodes` → `solve_nodes`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

/// Renders `snap` in Prometheus text exposition format (version 0.0.4).
///
/// Counters are suffixed `_total`; histograms emit cumulative
/// `_bucket{le="…"}` series with inclusive upper bounds derived from the
/// log2 buckets (`[2^{i-1}, 2^i)` ⇒ `le="2^i − 1"`), then `_sum` and
/// `_count`. Families appear in sorted-name order.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, &v) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n}_total counter\n{n}_total {v}\n"));
    }
    for (name, &v) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for &(floor, count) in &h.buckets {
            cumulative += count;
            match bucket_le(floor) {
                Some(le) => {
                    out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                None => break, // the top bucket folds into +Inf below
            }
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
    }
    out
}

/// The inclusive upper bound of the log2 bucket whose floor is `floor`
/// (`None` for the top bucket, which only `+Inf` can bound).
fn bucket_le(floor: u64) -> Option<u64> {
    match floor {
        0 => Some(0),
        f if f >= 1 << 63 => None,
        f => Some(2 * f - 1),
    }
}

/// Default TCP connect timeout for [`Client`].
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Default per-request wall-clock deadline for [`Client`] (send the
/// request, receive the full response).
pub const DEFAULT_REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Idle connections kept pooled per backend address.
const MAX_IDLE_PER_HOST: usize = 4;

/// A response as seen by [`Client`]: the numeric status plus the body
/// bytes, exactly as framed by `Content-Length` (or read to EOF when the
/// server did not declare one).
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// The numeric status code (`200`, `503`, …).
    pub status: u16,
    /// The response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8, if it is valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// A blocking HTTP/1.1 client with a per-host keep-alive connection pool
/// and per-request deadlines — the client half of this module, shaped for
/// many small JSON round-trips to a fixed set of backends.
///
/// Bodies are always `Content-Length` framed (no chunked encoding, which
/// the server half never emits). A request on a pooled connection that
/// fails — the server closed it while it sat idle — is retried once on a
/// fresh socket; errors on the fresh socket propagate to the caller.
pub struct Client {
    idle: Mutex<std::collections::HashMap<String, Vec<TcpStream>>>,
    connect_timeout: Duration,
    deadline: Duration,
}

impl Default for Client {
    fn default() -> Self {
        Client::new()
    }
}

impl Client {
    /// A client with the default connect timeout and request deadline.
    pub fn new() -> Client {
        Client {
            idle: Mutex::new(std::collections::HashMap::new()),
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            deadline: DEFAULT_REQUEST_DEADLINE,
        }
    }

    /// Sets the per-request wall-clock deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Client {
        self.deadline = deadline;
        self
    }

    /// `GET {path}` against `addr` (a `host:port` string).
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and deadline expiry.
    pub fn get(&self, addr: &str, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", addr, path, None)
    }

    /// `POST {path}` with a JSON body against `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and deadline expiry.
    pub fn post_json(&self, addr: &str, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", addr, path, Some(body.as_bytes()))
    }

    /// One request/response round trip, reusing a pooled connection to
    /// `addr` when one is available.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and deadline expiry (a stale
    /// pooled connection is retried once on a fresh socket first).
    pub fn request(
        &self,
        method: &str,
        addr: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<ClientResponse> {
        static REQUESTS: metrics::StaticCounter =
            metrics::StaticCounter::new("http.client_requests");
        static REUSED: metrics::StaticCounter = metrics::StaticCounter::new("http.client_reused");
        static RETRIES: metrics::StaticCounter = metrics::StaticCounter::new("http.client_retries");
        REQUESTS.incr();
        if let Some(mut stream) = self.checkout(addr) {
            match self.round_trip(&mut stream, method, addr, path, body) {
                Ok((response, reusable)) => {
                    REUSED.incr();
                    if reusable {
                        self.checkin(addr, stream);
                    }
                    return Ok(response);
                }
                // the pooled socket was stale; fall through to a fresh one
                Err(_) => RETRIES.incr(),
            }
        }
        let mut stream = self.connect(addr)?;
        let (response, reusable) = self.round_trip(&mut stream, method, addr, path, body)?;
        if reusable {
            self.checkin(addr, stream);
        }
        Ok(response)
    }

    /// How many idle connections are pooled for `addr` right now.
    pub fn pooled(&self, addr: &str) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(addr)
            .map_or(0, Vec::len)
    }

    fn connect(&self, addr: &str) -> std::io::Result<TcpStream> {
        use std::net::ToSocketAddrs as _;
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("cannot resolve {addr}"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sock, self.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn checkout(&self, addr: &str) -> Option<TcpStream> {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(addr)?
            .pop()
    }

    fn checkin(&self, addr: &str, stream: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let conns = idle.entry(addr.to_string()).or_default();
        if conns.len() < MAX_IDLE_PER_HOST {
            conns.push(stream);
        }
    }

    fn round_trip(
        &self,
        stream: &mut TcpStream,
        method: &str,
        addr: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<(ClientResponse, bool)> {
        let start = Instant::now();
        // head and body leave in one write: on a `TCP_NODELAY` socket two
        // writes are two segments, and the server may wake for each
        let len = body.map_or(0, <[u8]>::len);
        let mut request = Vec::with_capacity(160 + addr.len() + path.len() + len);
        let _ = write!(
            request,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\n"
        );
        if body.is_some() {
            let _ = write!(
                request,
                "Content-Type: application/json\r\nContent-Length: {len}\r\n"
            );
        } else if matches!(method, "POST" | "PUT" | "PATCH") {
            request.extend_from_slice(b"Content-Length: 0\r\n");
        }
        request.extend_from_slice(b"\r\n");
        request.extend_from_slice(body.unwrap_or_default());
        let _ = stream.set_write_timeout(Some(self.deadline));
        stream.write_all(&request)?;
        stream.flush()?;
        read_client_response(stream, start, self.deadline)
    }
}

/// Reads one response off `stream` within `deadline` (measured from
/// `start`, which covers the request write too). Returns the response and
/// whether the connection may be reused for another request.
fn read_client_response(
    stream: &mut TcpStream,
    start: Instant,
    deadline: Duration,
) -> std::io::Result<(ClientResponse, bool)> {
    use std::io::{Error, ErrorKind};
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_HEAD {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "response head too large",
            ));
        }
        match read_chunk(stream, &mut chunk, start, deadline)? {
            0 => {
                return Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed before the response head",
                ))
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            Error::new(
                ErrorKind::InvalidData,
                format!("bad status line: {status_line}"),
            )
        })?;
    let header = |name: &str| {
        head.lines().skip(1).find_map(|l| {
            let (n, value) = l.split_once(':')?;
            n.trim()
                .eq_ignore_ascii_case(name)
                .then(|| value.trim().to_string())
        })
    };
    let keep_alive = !header("connection")
        .map(|v| v.to_ascii_lowercase())
        .is_some_and(|v| v.contains("close"));
    let mut body = buf[head_end..].to_vec();
    match header("content-length") {
        Some(declared) => {
            let len: usize = declared
                .parse()
                .map_err(|_| Error::new(ErrorKind::InvalidData, "malformed Content-Length"))?;
            while body.len() < len {
                match read_chunk(stream, &mut chunk, start, deadline)? {
                    0 => {
                        return Err(Error::new(
                            ErrorKind::UnexpectedEof,
                            "connection closed mid-body",
                        ))
                    }
                    n => body.extend_from_slice(&chunk[..n]),
                }
            }
            body.truncate(len);
            Ok((ClientResponse { status, body }, keep_alive))
        }
        None => {
            // no declared length: the body runs to EOF; not reusable
            loop {
                match read_chunk(stream, &mut chunk, start, deadline)? {
                    0 => break,
                    n => body.extend_from_slice(&chunk[..n]),
                }
            }
            Ok((ClientResponse { status, body }, false))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::Histogram;
    use std::collections::BTreeMap;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a blank line");
        (head.to_string(), body.to_string())
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a blank line");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn prometheus_rendering() {
        let mut snap = Snapshot::default();
        snap.counters.insert("solve.nodes".to_string(), 1234);
        snap.gauges.insert("solve.budget_remaining".to_string(), -5);
        snap.histograms.insert(
            "solve.search_ns".to_string(),
            Histogram {
                count: 4,
                sum: 70,
                max: 40,
                buckets: vec![(0, 1), (2, 2), (32, 1)],
            },
        );
        let text = prometheus_text(&snap);
        assert!(
            text.contains("# TYPE solve_nodes_total counter\n"),
            "{text}"
        );
        assert!(text.contains("solve_nodes_total 1234\n"), "{text}");
        assert!(text.contains("solve_budget_remaining -5\n"), "{text}");
        assert!(
            text.contains("solve_search_ns_bucket{le=\"0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("solve_search_ns_bucket{le=\"3\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("solve_search_ns_bucket{le=\"63\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("solve_search_ns_bucket{le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("solve_search_ns_sum 70\n"), "{text}");
        assert!(text.contains("solve_search_ns_count 4\n"), "{text}");
        // every non-comment line is `name[{labels}] value`
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').expect("name value");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad metric name: {name}"
            );
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
        }
        // the top log2 bucket has no finite upper bound
        assert_eq!(bucket_le(1 << 63), None);
        assert_eq!(bucket_le(4), Some(7));
    }

    #[test]
    fn server_serves_and_shuts_down() {
        metrics::set_enabled(true);
        metrics::Counter::handle("solve.nodes").add(3);
        metrics::set_enabled(false);
        let server = serve("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("solve_nodes_total"), "{body}");

        let (head, body) = get(addr, "/progress");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let v = Json::parse(&body).unwrap();
        assert!(v.get("nodes").is_some(), "{body}");
        assert!(v.get("task").is_some(), "{body}");

        let (head, body) = get(addr, "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let snap: Snapshot = Json::parse_as(&body).unwrap();
        assert!(snap.counters.contains_key("solve.nodes"), "{body}");

        let (head, body) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("/metrics"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let (head, _) = post(addr, "/metrics", "");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        assert!(head.contains("Allow: GET"), "{head}");

        // wrong method on an unknown route is a 404, not a 405
        let (head, _) = post(addr, "/nope", "");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
        // the port stops answering once shutdown returns
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || TcpStream::connect(addr)
                    .and_then(|mut s| {
                        let mut b = [0u8; 1];
                        s.write_all(b"GET / HTTP/1.1\r\n\r\n")?;
                        let n = s.read(&mut b)?;
                        Ok(n == 0)
                    })
                    .unwrap_or(true),
            "listener must be gone after shutdown"
        );
    }

    #[test]
    fn handler_sees_posts_and_falls_through() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| match req.path.as_str() {
            "/echo" => Some(Response::json(format!(
                "{{\"method\": \"{}\", \"body\": \"{}\"}}",
                req.method,
                req.body_utf8().unwrap_or("")
            ))),
            "/accepted" => Some(Response::json_status(202, "{}")),
            _ => None,
        });
        let server = serve_with("127.0.0.1:0", handler).unwrap();
        let addr = server.addr();

        let (head, body) = post(addr, "/echo", "payload");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("method").unwrap().as_str(), Some("POST"));
        assert_eq!(v.get("body").unwrap().as_str(), Some("payload"));

        let (head, _) = post(addr, "/accepted", "");
        assert!(head.starts_with("HTTP/1.1 202"), "{head}");

        // built-ins still answer under a handler
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("# TYPE") || body.is_empty(), "{body}");

        // and unknown routes still 404
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_are_answered_while_one_blocks() {
        // one request parks inside the handler; a scrape on a second
        // connection must still answer — the point of the worker pool
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| {
            if req.path == "/block" {
                let (lock, cv) = &*gate2;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                return Some(Response::text(200, "unblocked\n"));
            }
            None
        });
        let server = serve_with("127.0.0.1:0", handler).unwrap();
        let addr = server.addr();
        let blocked = std::thread::spawn(move || get(addr, "/block"));
        // the scrape completes while /block is still parked
        let (head, _) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let (head, body) = blocked.join().unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "unblocked\n");
        server.shutdown();
    }

    /// Sends `raw` bytes verbatim and returns the full response text.
    fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    #[test]
    fn protocol_violations_get_structured_400s() {
        let server = serve("127.0.0.1:0").unwrap();
        let addr = server.addr();

        // POST without Content-Length
        let resp = raw_roundtrip(
            addr,
            b"POST /solve HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("missing Content-Length"), "{resp}");

        // unparseable Content-Length
        let resp = raw_roundtrip(
            addr,
            b"POST /solve HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("malformed Content-Length"), "{resp}");

        // body shorter than declared (peer closes early)
        let resp = raw_roundtrip(
            addr,
            b"POST /solve HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("shorter than Content-Length"), "{resp}");

        server.shutdown();
    }

    #[test]
    fn oversized_bodies_are_rejected_up_front() {
        let server = serve_opts(
            "127.0.0.1:0",
            Options {
                max_body: 64,
                ..Options::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        // the declared length alone triggers the reject — no body sent
        let resp = raw_roundtrip(
            addr,
            b"POST /solve HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("exceeds maximum size"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn slow_clients_are_dropped_at_the_read_deadline() {
        let server = serve_opts(
            "127.0.0.1:0",
            Options {
                read_deadline: Duration::from_millis(150),
                ..Options::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        // a slowloris: opens the connection, sends half a head, stalls
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /metrics HTT").unwrap();
        let mut buf = [0u8; 64];
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let n = stream.read(&mut buf).unwrap_or(0);
        // the server hangs up (EOF, no response) within the deadline
        assert_eq!(n, 0, "stalled request must not be answered");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "worker must not stay pinned: {:?}",
            start.elapsed()
        );
        // and the worker is free again for a real request
        let (head, _) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.shutdown();
    }

    #[test]
    fn extra_response_headers_are_emitted() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            (req.path == "/busy")
                .then(|| Response::json_status(503, "{}").with_header("Retry-After", "1"))
        });
        let server = serve_with("127.0.0.1:0", handler).unwrap();
        let addr = server.addr();
        let (head, _) = get(addr, "/busy");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        server.shutdown();
    }

    /// Reads exactly one `Content-Length`-framed response off a raw socket
    /// (leaving the connection open for the next one).
    fn read_one_response(stream: &mut TcpStream) -> (String, String) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 512];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed before the response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (n, v) = l.split_once(':')?;
                n.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())
                    .flatten()
            })
            .expect("response declares Content-Length");
        let mut body = buf[head_end..].to_vec();
        while body.len() < len {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-body");
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        (head, String::from_utf8_lossy(&body).to_string())
    }

    #[test]
    fn request_deadline_starts_at_the_first_byte_not_the_idle_wait() {
        // a pooled connection idles just under the read deadline, then a
        // POST arrives whose body trails its head: the request gets the
        // whole deadline from its first byte, so it must be answered
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            (req.path == "/echo").then(|| Response::json(req.body_utf8().unwrap_or("").to_string()))
        });
        let server = serve_with("127.0.0.1:0", handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        write!(stream, "GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        std::thread::sleep(DEFAULT_READ_DEADLINE - Duration::from_millis(100));
        let body = "{\"late\": true}";
        write!(
            stream,
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        stream.write_all(body.as_bytes()).unwrap();
        let (head, echoed) = read_one_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(echoed, body);
        server.shutdown();
    }

    #[test]
    fn idle_keep_alive_connections_close_at_the_read_deadline() {
        let server = serve_opts(
            "127.0.0.1:0",
            Options {
                read_deadline: Duration::from_millis(150),
                ..Options::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        write!(stream, "GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        // nothing more is sent: the worker hangs up instead of waiting on
        let start = Instant::now();
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn server_keeps_http11_connections_alive_across_requests() {
        let server = serve("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        // three requests down one socket — a 404 in the middle must not
        // poison the connection
        for (path, want) in [("/", "200"), ("/nope", "404"), ("/metrics", "200")] {
            write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let (head, _) = read_one_response(&mut stream);
            assert!(head.starts_with(&format!("HTTP/1.1 {want}")), "{head}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
        }
        // Connection: close is honored
        write!(
            stream,
            "GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "server must close after Connection: close");
        server.shutdown();
    }

    #[test]
    fn values_handed_over_are_dropped_after_their_reply() {
        use std::sync::atomic::AtomicUsize;
        /// Counts its drops.
        struct Held(Arc<AtomicUsize>);
        impl Drop for Held {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        // off a connection thread, a value is dropped at once
        drop_after_reply(Held(Arc::clone(&dropped)));
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
        let counter = Arc::clone(&dropped);
        let handler: Arc<Handler> = Arc::new(move |_: &Request| {
            // what the previous request handed over is gone by now, and
            // what this one hands over outlives the handler
            let before = counter.load(Ordering::SeqCst);
            drop_after_reply(Held(Arc::clone(&counter)));
            let after = counter.load(Ordering::SeqCst);
            Some(Response::json(format!("[{before},{after}]")))
        });
        let server = serve_with("127.0.0.1:0", handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for want in ["[1,1]", "[2,2]", "[3,3]"] {
            write!(stream, "GET /held HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let (_, body) = read_one_response(&mut stream);
            assert_eq!(body, want);
        }
        drop(stream);
        server.shutdown();
        // the last one went with its connection
        assert_eq!(dropped.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn client_reuses_pooled_connections_even_after_a_4xx() {
        let server = serve("127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let client = Client::new();
        assert_eq!(client.pooled(&addr), 0);
        let ok = client.get(&addr, "/metrics").unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(client.pooled(&addr), 1, "keep-alive socket is pooled");
        // a 404 goes back to the pool too: the connection is still healthy
        let missing = client.get(&addr, "/nope").unwrap();
        assert_eq!(missing.status, 404);
        assert_eq!(client.pooled(&addr), 1);
        let again = client.get(&addr, "/").unwrap();
        assert_eq!(again.status, 200);
        assert!(again.body_utf8().unwrap().contains("/metrics"));
        server.shutdown();
    }

    #[test]
    fn client_surfaces_a_backend_closing_mid_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            // declare 100 bytes, send 5, slam the connection shut
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhello");
        });
        let client = Client::new().with_deadline(Duration::from_secs(2));
        let err = client.get(&addr, "/").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(client.pooled(&addr), 0, "a dead socket must not pool");
        t.join().unwrap();
    }

    #[test]
    fn stale_pooled_connection_is_retried_on_a_fresh_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                // advertise keep-alive but close anyway: the client's
                // pooled socket goes stale between requests
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                );
            }
        });
        let client = Client::new().with_deadline(Duration::from_secs(2));
        assert_eq!(client.get(&addr, "/").unwrap().status, 200);
        assert_eq!(client.pooled(&addr), 1);
        let second = client.get(&addr, "/").unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(second.body, b"ok");
        t.join().unwrap();
    }

    #[test]
    fn client_post_round_trips_a_body() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            (req.path == "/echo")
                .then(|| Response::json(format!("{{\"len\": {}}}", req.body.len())))
        });
        let server = serve_with("127.0.0.1:0", handler).unwrap();
        let addr = server.addr().to_string();
        let client = Client::new();
        let resp = client.post_json(&addr, "/echo", "{\"x\": 1}").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_utf8(), Some("{\"len\": 8}"));
        server.shutdown();
    }

    #[test]
    fn bodies_arrive_whole_across_many_reads() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            let sum: u64 = req.body.iter().map(|&b| u64::from(b)).sum();
            let len = req.body.len();
            Some(Response::json(format!(
                "{{\"len\": {len}, \"sum\": {sum}}}"
            )))
        });
        let server = serve_with("127.0.0.1:0", handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // a body of several chunks, its first bytes in the head's segment
        // and the rest trickled in pieces that straddle chunk boundaries;
        // then a small request on the same connection
        for len in [20_000usize, 3] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sum: u64 = body.iter().map(|&b| u64::from(b)).sum();
            let mut wire =
                format!("POST /x HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").into_bytes();
            wire.extend_from_slice(&body);
            for piece in wire.chunks(3_001) {
                stream.write_all(piece).unwrap();
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            let (head, reply) = read_one_response(&mut stream);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(reply, format!("{{\"len\": {len}, \"sum\": {sum}}}"));
        }
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn mangled_names_are_prometheus_legal() {
        let mut snap = Snapshot::default();
        let mut counters = BTreeMap::new();
        counters.insert("Fuzz.oracle-failures".to_string(), 1);
        snap.counters = counters;
        let text = prometheus_text(&snap);
        assert!(text.contains("fuzz_oracle_failures_total 1"), "{text}");
    }
}
