//! A fleet at default flags gives up on a heavy question inside the shard,
//! before the gateway gives up on the shard: two `iis serve` shards behind
//! `iis gateway --replicas 2`, no `--timeout-secs` anywhere. The shard's
//! own `504` is relayed, no failover happens, both shards stay ready, and
//! neither keeps the job running.

mod support;

use iis_obs::Json;
use std::time::{Duration, Instant};
use support::{pigeonhole, Server};

#[test]
fn a_heavy_question_times_out_in_the_shard_at_default_flags() {
    let shards = [Server::serve(&[]), Server::serve(&[])];
    let backends = format!("{},{}", shards[0].addr, shards[1].addr);
    let gateway = Server::gateway(&["--backends", &backends, "--replicas", "2"]);
    // about a minute of MAC search at b = 0 in a release build, with a
    // node budget that never runs out first
    let heavy = format!(
        r#"{{"task": {}, "max_rounds": 0, "budget": 1000000000000}}"#,
        pigeonhole(10).canonical_json()
    );
    let (heavy_reply, light_reply) = std::thread::scope(|s| {
        let heavy = s.spawn(|| {
            let started = Instant::now();
            let reply = gateway.solve(&heavy);
            (reply, started.elapsed())
        });
        // a light cold question asked while the heavy one runs
        std::thread::sleep(Duration::from_secs(1));
        let light = gateway.solve(r#"{"spec": "eps:1:3", "max_rounds": 1}"#);
        (heavy.join().unwrap(), light)
    });
    let ((status, reply), elapsed) = heavy_reply;
    assert_eq!(status, 504, "{reply}");
    assert!(reply.contains(r#""status":"timed_out""#), "{reply}");
    assert!(elapsed >= Duration::from_secs(8), "{elapsed:?}");
    assert!(elapsed < Duration::from_secs(9), "{elapsed:?}");
    assert_eq!(light_reply.0, 200, "{}", light_reply.1);
    assert_eq!(gateway.metric("gateway_failovers_total"), 0);
    let (_, cluster) = gateway.request("GET", "/cluster", "");
    let health: Vec<Option<String>> = Json::parse(&cluster)
        .unwrap()
        .get("shards")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|shard| shard.get("health").and_then(Json::as_str).map(String::from))
        .collect();
    assert_eq!(
        health,
        [Some("ready".to_string()), Some("ready".to_string())],
        "{cluster}"
    );
    for shard in &shards {
        assert_eq!(shard.metric("serve_jobs_active"), 0);
    }
    gateway.stop();
    for shard in shards {
        shard.stop();
    }
}
