//! The `iis gateway` subcommand: HTTP front door for a fleet of
//! `iis serve` shards.
//!
//! The routing, health, and scatter-gather logic all live in
//! `iis_cluster`; this module is the **process glue**: flag parsing, the
//! HTTP handler, the background `/readyz` prober thread, and the
//! park-until-shutdown lifecycle (mirroring `iis serve`).
//!
//! Routes:
//!
//! - `POST /solve` — single-question or `{"questions": […]}` batch, the
//!   same wire schema the backends speak. Questions are routed by their
//!   task (its key prefix, rendezvous-hashed over the `--backends` list),
//!   so every bound of a task shares one replica set; batches are fanned
//!   out shard-parallel with same-shard questions coalesced into one
//!   upstream batch call, and failed shards are retried on the task's
//!   other replicas.
//! - `GET /cluster` — per-shard health, failure streaks, and task-space
//!   ownership.
//! - `GET /metrics` — the gateway's own counters *plus* every reachable
//!   shard's, summed family-by-family: one scrape, cluster-wide totals.
//! - `GET /healthz` — gateway process liveness.
//! - `GET /readyz` — `200` while at least one shard is not Down.
//! - `POST /shutdown` — stop the prober and exit.

use crate::{err, flag_value, only_flags, CliError};
use iis_cluster::{Gateway, GatewayConfig, HttpTransport, ShardHealth};
use iis_obs::http::{serve_with, Handler, Request, Response};
use iis_obs::{Json, ToJson as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

fn handle(gateway: &Gateway, req: &Request) -> Option<Response> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/solve") => {
            let Some(body) = req.body_utf8() else {
                return Some(Response::bad_request("body must be UTF-8"));
            };
            // batch bodies scatter-gather; everything else relays single,
            // under the shard's own status code
            let (status, body) = gateway.solve(body);
            Some(Response::json_status(status, body))
        }
        ("GET", "/cluster") => Some(Response::json(gateway.cluster_json())),
        ("GET", "/metrics") => Some(Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: gateway.metrics_text(),
        }),
        ("GET", "/healthz") => Some(Response::json("{\"ok\": true}".to_string())),
        ("GET", "/readyz") => {
            let up = gateway
                .health()
                .snapshot()
                .iter()
                .filter(|s| s.health != ShardHealth::Down)
                .count();
            let body = Json::obj([
                ("ready", Json::Bool(up > 0)),
                ("shards_up", up.to_json()),
                ("shards", gateway.backends().len().to_json()),
            ])
            .to_string();
            Some(if up > 0 {
                Response::json(body)
            } else {
                Response::json_status(503, body)
            })
        }
        // /shutdown is handled by the caller (it owns the park latch)
        (_, "/solve") | (_, "/shutdown") => Some(Response::method_not_allowed("POST")),
        (_, "/cluster") | (_, "/healthz") | (_, "/readyz") => {
            Some(Response::method_not_allowed("GET"))
        }
        _ => None,
    }
}

/// How long the gateway waits on a shard by default (`--timeout-secs`)
/// before it counts the call as the shard's fault and fails over.
pub(crate) const UPSTREAM_TIMEOUT_SECS: u64 = 10;

/// The flags `iis gateway` takes, each with a value.
const GATEWAY_FLAGS: [&str; 6] = [
    "--backends",
    "--replicas",
    "--addr",
    "--workers",
    "--probe-ms",
    "--timeout-secs",
];

/// `iis gateway --backends A,B[,…] [--replicas R] [--addr A] [--workers N]
/// [--probe-ms MS] [--timeout-secs T]` — see [`crate::USAGE`].
///
/// Binds `--addr` (default `127.0.0.1:0`, bound address printed to stderr
/// as `gateway on http://…`), probes every backend's `/readyz` once up
/// front and then every `--probe-ms` in the background, and serves until
/// `POST /shutdown`.
///
/// # Errors
///
/// Returns a [`CliError`] on bad arguments, naming any flag not listed
/// above, or an unbindable address.
pub fn cmd_gateway(args: &[String]) -> Result<String, CliError> {
    only_flags("gateway", args, &GATEWAY_FLAGS)?;
    let backends: Vec<String> = flag_value(args, "--backends")?
        .ok_or_else(|| err("--backends A,B[,…] is required"))?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        return Err(err("--backends needs at least one address"));
    }
    let replicas: usize = flag_value(args, "--replicas")?
        .unwrap_or("2")
        .parse()
        .map_err(|_| err("bad --replicas"))?;
    if replicas == 0 || replicas > backends.len() {
        return Err(err(format!(
            "need 1 ≤ --replicas ≤ {} (the backend count)",
            backends.len()
        )));
    }
    let addr = flag_value(args, "--addr")?
        .unwrap_or("127.0.0.1:0")
        .to_string();
    let workers: usize = flag_value(args, "--workers")?
        .unwrap_or("4")
        .parse()
        .map_err(|_| err("bad --workers"))?;
    if workers == 0 || workers > 64 {
        return Err(err("need 1 ≤ --workers ≤ 64"));
    }
    let probe_ms: u64 = flag_value(args, "--probe-ms")?
        .unwrap_or("1000")
        .parse()
        .map_err(|_| err("bad --probe-ms"))?;
    if probe_ms == 0 {
        return Err(err("bad --probe-ms"));
    }
    let deadline: u64 = match flag_value(args, "--timeout-secs")? {
        Some(t) => t.parse().map_err(|_| err("bad --timeout-secs"))?,
        None => UPSTREAM_TIMEOUT_SECS,
    };
    // like iis serve: a gateway is always observable
    iis_obs::set_enabled(true);
    let transport = Arc::new(HttpTransport::new(Duration::from_secs(deadline.max(1))));
    let n_backends = backends.len();
    let gateway = Arc::new(Gateway::new(
        transport,
        GatewayConfig {
            backends,
            replicas,
            workers,
        },
    ));
    // one synchronous probe pass so the first request sees real health,
    // then a background prober with the shutdown latch
    gateway.probe();
    let shutdown = Arc::new((Mutex::new(false), Condvar::new()));
    let prober = {
        let gateway = Arc::clone(&gateway);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let (flag, signal) = &*shutdown;
            let mut stop = flag.lock().unwrap_or_else(PoisonError::into_inner);
            while !*stop {
                let (next, timeout) = signal
                    .wait_timeout(stop, Duration::from_millis(probe_ms))
                    .unwrap_or_else(PoisonError::into_inner);
                stop = next;
                if timeout.timed_out() && !*stop {
                    // probe outside the latch so a slow shard cannot
                    // delay shutdown
                    drop(stop);
                    gateway.probe();
                    stop = flag.lock().unwrap_or_else(PoisonError::into_inner);
                }
            }
        })
    };
    let stopping = Arc::new(AtomicBool::new(false));
    let handler: Arc<Handler> = {
        let gateway = Arc::clone(&gateway);
        let shutdown = Arc::clone(&shutdown);
        let stopping = Arc::clone(&stopping);
        Arc::new(move |req: &Request| {
            if (req.method.as_str(), req.path.as_str()) == ("POST", "/shutdown") {
                stopping.store(true, Ordering::Release);
                let (flag, signal) = &*shutdown;
                *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
                signal.notify_all();
                return Some(Response::json("{\"ok\": true}".to_string()));
            }
            if stopping.load(Ordering::Acquire)
                && (req.method.as_str(), req.path.as_str()) == ("POST", "/solve")
            {
                return Some(Response::json_status(
                    503,
                    "{\"error\": \"shutting down\"}".to_string(),
                ));
            }
            handle(&gateway, req)
        })
    };
    let server = serve_with(&addr, handler).map_err(|e| err(format!("cannot bind {addr}: {e}")))?;
    eprintln!("gateway on http://{}", server.addr());
    {
        let (flag, signal) = &*shutdown;
        let mut stop = flag.lock().unwrap_or_else(PoisonError::into_inner);
        while !*stop {
            stop = signal.wait(stop).unwrap_or_else(PoisonError::into_inner);
        }
    }
    let _ = prober.join();
    server.shutdown();
    let snap = iis_obs::snapshot();
    let requests = snap.counters.get("gateway.requests").copied().unwrap_or(0);
    let failovers = snap.counters.get("gateway.failovers").copied().unwrap_or(0);
    Ok(format!(
        "gateway: {requests} questions routed over {n_backends} shards, {failovers} failovers\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{SocketAddr, TcpStream};

    /// Runs a command on a background thread against a free port, waits
    /// for the listener, returns (addr, join handle).
    fn spawn_http(
        cmd: impl FnOnce(Vec<String>) -> Result<String, CliError> + Send + 'static,
        extra: &[String],
    ) -> (
        SocketAddr,
        std::thread::JoinHandle<Result<String, CliError>>,
    ) {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let mut args: Vec<String> = vec!["--addr".into(), addr.to_string()];
        args.extend_from_slice(extra);
        let handle = std::thread::spawn(move || cmd(args));
        for _ in 0..200 {
            if TcpStream::connect(addr).is_ok() {
                return (addr, handle);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("listener never came up on {addr}");
    }

    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
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

    #[test]
    fn gateway_end_to_end_batch_and_failover() {
        let (shard_a, join_a) = spawn_http(move |a| crate::cmd_serve(&a), &[]);
        let (shard_b, join_b) = spawn_http(move |a| crate::cmd_serve(&a), &[]);
        // a probe interval far past the test: shard death is discovered on
        // the request path, which is exactly the failover being tested
        let extra: Vec<String> = [
            "--backends",
            &format!("{shard_a},{shard_b}"),
            "--replicas",
            "2",
            "--probe-ms",
            "60000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (gw, join_gw) = spawn_http(move |a| cmd_gateway(&a), &extra);

        let specs = [
            "trivial:1",
            "trivial:2",
            "eps:1:3",
            "eps:1:5",
            "oneshot:1",
            "eps:2:2",
        ];
        let questions: Vec<String> = specs
            .iter()
            .map(|s| format!("{{\"spec\": \"{s}\", \"max_rounds\": 2}}"))
            .collect();
        let batch = format!("{{\"questions\": [{}]}}", questions.join(","));
        let (head, body) = http(gw, "POST", "/solve", &batch);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let first = Json::parse(&body).unwrap();
        let Some(Json::Arr(answers)) = first.get("answers") else {
            panic!("{body}");
        };
        assert_eq!(answers.len(), specs.len());
        for a in answers {
            assert_eq!(a.get("status"), Some(&Json::Num(200.0)), "{a:?}");
        }
        // the cluster report sees both shards
        let (head, cluster) = http(gw, "GET", "/cluster", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let cluster = Json::parse(&cluster).unwrap();
        let Some(Json::Arr(shards)) = cluster.get("shards") else {
            panic!("{cluster:?}");
        };
        assert_eq!(shards.len(), 2);

        // kill shard B, choosing it so at least one question's rendezvous
        // primary dies with it (routing is a pure function of the task and
        // the addrs, so a local Gateway over the same addrs predicts the
        // server's)
        let local = Gateway::new(
            std::sync::Arc::new(HttpTransport::new(Duration::from_secs(1))),
            GatewayConfig {
                backends: vec![shard_a.to_string(), shard_b.to_string()],
                replicas: 2,
                workers: 1,
            },
        );
        let primaries: Vec<usize> = questions
            .iter()
            .map(|q| {
                let route = iis_cluster::question_route(q).unwrap();
                local.replicas_for(route)[0]
            })
            .collect();
        let (victim, victim_join, survivor_join) = if primaries.contains(&1) {
            (shard_b, join_b, join_a)
        } else {
            (shard_a, join_a, join_b)
        };
        let (head, _) = http(victim, "POST", "/shutdown", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        victim_join.join().unwrap().unwrap();

        // the same batch must answer in full — late, never wrong: every
        // question that lost its primary fails over to the other replica
        // and returns byte-identical results (purity)
        let (head, body) = http(gw, "POST", "/solve", &batch);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let second = Json::parse(&body).unwrap();
        let (Some(Json::Arr(before)), Some(Json::Arr(after))) =
            (first.get("answers"), second.get("answers"))
        else {
            panic!();
        };
        for (x, y) in before.iter().zip(after) {
            assert_eq!(y.get("status"), Some(&Json::Num(200.0)), "{y:?}");
            assert_eq!(
                x.get("body").unwrap().get("result").unwrap().to_string(),
                y.get("body").unwrap().get("result").unwrap().to_string(),
                "failed-over answer must be byte-identical"
            );
        }
        // the dead shard was noticed and at least one failover happened
        let (_, metrics) = http(gw, "GET", "/metrics", "");
        let series = |name: &str| -> f64 {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
                .unwrap_or(0.0)
        };
        assert!(series("gateway_failovers_total ") >= 1.0, "{metrics}");
        assert!(series("gateway_shard_down_total ") >= 1.0, "{metrics}");
        // aggregation folds the shards' serve.* families into the scrape
        assert!(metrics.contains("serve_requests"), "{metrics}");
        let (_, ready) = http(gw, "GET", "/readyz", "");
        let ready = Json::parse(&ready).unwrap();
        assert_eq!(ready.get("ready"), Some(&Json::Bool(true)), "{ready:?}");

        let (head, _) = http(gw, "POST", "/shutdown", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let summary = join_gw.join().unwrap().unwrap();
        assert!(summary.contains("failovers"), "{summary}");
        let survivor = if victim == shard_a { shard_b } else { shard_a };
        let (head, _) = http(survivor, "POST", "/shutdown", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        survivor_join.join().unwrap().unwrap();
    }

    #[test]
    fn cmd_gateway_flag_errors() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert!(cmd_gateway(&argv("--addr 127.0.0.1:0")).is_err()); // no backends
        assert!(cmd_gateway(&argv("--backends ,")).is_err());
        assert!(cmd_gateway(&argv("--backends a:1 --replicas 0")).is_err());
        assert!(cmd_gateway(&argv("--backends a:1 --replicas 2")).is_err()); // > backends
        assert!(cmd_gateway(&argv("--backends a:1 --workers 0")).is_err());
        assert!(cmd_gateway(&argv("--backends a:1 --probe-ms 0")).is_err());
        assert!(cmd_gateway(&argv("--backends a:1 --timeout-secs x")).is_err());
        assert!(cmd_gateway(&argv("--backends a:1 --addr 256.0.0.1:99999")).is_err());
        // a flag the gateway does not take is named, before anything is bound
        for (args, named) in [
            ("--backends a:1 --worker 4", "--worker"),
            ("--backends=a:1 --drain-secs=5", "--drain-secs=5"),
            ("--backends a:1 --addr 127.0.0.1:0 stray", "stray"),
        ] {
            let e = cmd_gateway(&argv(args)).unwrap_err();
            assert_eq!(e.to_string(), format!("gateway does not take {named}"));
        }
    }

    /// An HTTP transport that keeps every `POST` it carries: the upstream
    /// calls a gateway made and the bodies it was answered with.
    #[derive(Default)]
    struct Recording {
        http: Option<iis_cluster::HttpTransport>,
        posts: Mutex<Vec<(u16, String)>>,
    }

    impl iis_cluster::Transport for Recording {
        fn get(
            &self,
            addr: &str,
            path: &str,
        ) -> Result<iis_cluster::TransportResponse, iis_cluster::TransportError> {
            self.http.as_ref().unwrap().get(addr, path)
        }
        fn post(
            &self,
            addr: &str,
            path: &str,
            body: &str,
        ) -> Result<iis_cluster::TransportResponse, iis_cluster::TransportError> {
            let r = self.http.as_ref().unwrap().post(addr, path, body)?;
            self.posts.lock().unwrap().push((r.status, r.body.clone()));
            Ok(r)
        }
    }

    /// An exhausted budget answers the question (`422`), not a shard
    /// fault: the gateway relays the shard's body after one upstream
    /// call, fails over to no other replica, and both shards stay Ready.
    #[test]
    fn an_inconclusive_answer_relays_without_failover() {
        let (shard_a, join_a) = spawn_http(move |a| crate::cmd_serve(&a), &[]);
        let (shard_b, join_b) = spawn_http(move |a| crate::cmd_serve(&a), &[]);
        let transport = Arc::new(Recording {
            http: Some(HttpTransport::new(Duration::from_secs(30))),
            ..Recording::default()
        });
        let gateway = Gateway::new(
            Arc::clone(&transport) as Arc<dyn iis_cluster::Transport>,
            GatewayConfig {
                backends: vec![shard_a.to_string(), shard_b.to_string()],
                replicas: 2,
                workers: 2,
            },
        );
        let question = r#"{"spec": "eps:2:3", "max_rounds": 2, "budget": 50}"#;
        let (status, body) = gateway.solve(question);
        assert_eq!(status, 422, "{body}");
        assert!(
            body.contains("inconclusive: search exhausted at b = 2"),
            "{body}"
        );
        assert_eq!(*transport.posts.lock().unwrap(), [(422, body)]);
        // the batch form: one upstream batch call, both answers relayed
        transport.posts.lock().unwrap().clear();
        let (status, envelope) =
            gateway.solve(&format!(r#"{{"questions": [{question}, {question}]}}"#));
        assert_eq!(status, 200, "{envelope}");
        let posts = transport.posts.lock().unwrap().clone();
        assert_eq!(posts.len(), 1, "{posts:?}");
        assert_eq!(posts[0], (200, envelope.clone()));
        let answers = Json::parse(&envelope).unwrap();
        let Some(Json::Arr(answers)) = answers.get("answers") else {
            panic!("{envelope}");
        };
        for a in answers {
            assert_eq!(a.get("status"), Some(&Json::Num(422.0)), "{envelope}");
        }
        for shard in gateway.health().snapshot() {
            assert_eq!(shard.health, ShardHealth::Ready, "{}", shard.addr);
        }
        for (addr, join) in [(shard_a, join_a), (shard_b, join_b)] {
            let (head, _) = http(addr, "POST", "/shutdown", "");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            join.join().unwrap().unwrap();
        }
    }

    /// A shard's share of a batch past the shard's cap goes upstream in
    /// chunks of at most [`iis_core::cache::MAX_BATCH`]: every question
    /// answers `200` from its primary, with no failover (one upstream call
    /// per chunk, nothing else), and both shards stay Ready.
    #[test]
    fn a_batch_past_the_shard_cap_is_split_not_failed_over() {
        let (shard_a, join_a) = spawn_http(move |a| crate::cmd_serve(&a), &[]);
        let (shard_b, join_b) = spawn_http(move |a| crate::cmd_serve(&a), &[]);
        let transport = Arc::new(Recording {
            http: Some(HttpTransport::new(Duration::from_secs(30))),
            ..Recording::default()
        });
        let gateway = Gateway::new(
            Arc::clone(&transport) as Arc<dyn iis_cluster::Transport>,
            GatewayConfig {
                backends: vec![shard_a.to_string(), shard_b.to_string()],
                replicas: 2,
                workers: 2,
            },
        );
        let question = r#"{"spec": "trivial:1", "max_rounds": 1}"#;
        let batch = vec![question; 300].join(",");
        let (status, envelope) = gateway.solve(&format!(r#"{{"questions": [{batch}]}}"#));
        assert_eq!(status, 200, "{envelope}");
        let answers = Json::parse(&envelope).unwrap();
        let Some(Json::Arr(answers)) = answers.get("answers") else {
            panic!("{envelope}");
        };
        assert_eq!(answers.len(), 300);
        for a in answers {
            assert_eq!(a.get("status"), Some(&Json::Num(200.0)), "{a:?}");
        }
        // one task, one primary: a chunk of 256 and one of 44, both 200
        let statuses: Vec<u16> = transport
            .posts
            .lock()
            .unwrap()
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(statuses, [200, 200]);
        for shard in gateway.health().snapshot() {
            assert_eq!(shard.health, ShardHealth::Ready, "{}", shard.addr);
        }
        for (addr, join) in [(shard_a, join_a), (shard_b, join_b)] {
            let (head, _) = http(addr, "POST", "/shutdown", "");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            join.join().unwrap().unwrap();
        }
    }

    /// A shard's `400` batch envelope is the request's fault: every member
    /// answers with it, with no failover and no health hit.
    #[test]
    fn a_refused_batch_envelope_relays_to_every_member() {
        let gateway = Gateway::new(
            Arc::new(StubShard {
                status: 400,
                body: r#"{"error":"refused"}"#,
            }),
            GatewayConfig {
                backends: vec!["stub:1".into(), "stub:2".into()],
                replicas: 2,
                workers: 1,
            },
        );
        let question = r#"{"spec": "trivial:1"}"#;
        let (status, envelope) =
            gateway.solve(&format!(r#"{{"questions": [{question}, {question}]}}"#));
        assert_eq!(status, 200, "{envelope}");
        assert_eq!(
            envelope,
            r#"{"answers":[{"status":400,"body":{"error":"refused"}},{"status":400,"body":{"error":"refused"}}]}"#
        );
        for shard in gateway.health().snapshot() {
            assert_eq!(shard.health, ShardHealth::Ready, "{}", shard.addr);
        }
    }

    /// A one-shard transport answering every `POST /solve` with a fixed
    /// status and body.
    struct StubShard {
        status: u16,
        body: &'static str,
    }

    impl iis_cluster::Transport for StubShard {
        fn get(
            &self,
            _: &str,
            _: &str,
        ) -> Result<iis_cluster::TransportResponse, iis_cluster::TransportError> {
            Err("stub".into())
        }
        fn post(
            &self,
            _: &str,
            _: &str,
            _: &str,
        ) -> Result<iis_cluster::TransportResponse, iis_cluster::TransportError> {
            Ok(iis_cluster::TransportResponse {
                status: self.status,
                body: self.body.to_string(),
            })
        }
    }

    #[test]
    fn upstream_statuses_relay_unchanged() {
        for (status, body) in [
            (200, r#"{"cached":true}"#),
            (202, r#"{"job":1}"#),
            (422, r#"{"error":"unprocessable"}"#),
            (429, r#"{"error":"slow down"}"#),
            (499, "not json"),
        ] {
            let gateway = Gateway::new(
                Arc::new(StubShard { status, body }),
                GatewayConfig {
                    backends: vec!["stub:1".into()],
                    replicas: 1,
                    workers: 1,
                },
            );
            let req = Request {
                method: "POST".into(),
                path: "/solve".into(),
                body: br#"{"spec": "trivial:1"}"#.to_vec(),
            };
            let resp = handle(&gateway, &req).expect("the gateway owns /solve");
            assert_eq!(resp.status, status, "{body}");
            // a JSON body relays byte for byte; anything else as a string
            let expected = match iis_obs::json::validate(body) {
                Ok(()) => body.to_string(),
                Err(_) => Json::Str(body.to_string()).to_string(),
            };
            assert_eq!(resp.body, expected);
        }
    }
}
