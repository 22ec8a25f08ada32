//! A shard's `504` — its deadline ran out on the search — answers the
//! question the way a `422` does: every replica would run out alike, so
//! the gateway relays it after one upstream call, fails nothing over, and
//! keeps every shard `Ready`. Its own test binary, because it reads the
//! process-wide `gateway.failovers` counter.

use iis_cluster::{
    Gateway, GatewayConfig, ShardHealth, Transport, TransportError, TransportResponse,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The body a shard's waiter gets when the deadline passes.
const TIMED_OUT: &str = r#"{"error":"deadline exceeded after 1s; poll /jobs/1","job":1,"key":"00000000000000ff","status":"running"}"#;

/// Every shard answers every `POST /solve` with `504`, counting the posts.
#[derive(Default)]
struct TimedOutShards {
    posts: AtomicUsize,
}

impl Transport for TimedOutShards {
    fn get(&self, _: &str, _: &str) -> Result<TransportResponse, TransportError> {
        Err("no probes here".into())
    }

    fn post(&self, _: &str, _: &str, _: &str) -> Result<TransportResponse, TransportError> {
        self.posts.fetch_add(1, Ordering::Relaxed);
        Ok(TransportResponse {
            status: 504,
            body: TIMED_OUT.to_string(),
        })
    }
}

fn failovers() -> u64 {
    let counters = iis_obs::metrics::snapshot().counters;
    counters.get("gateway.failovers").copied().unwrap_or(0)
}

#[test]
fn a_shard_deadline_is_relayed_not_failed_over() {
    iis_obs::metrics::set_enabled(true);
    let question = r#"{"spec": "trivial:1", "max_rounds": 1}"#;
    let batch = format!(r#"{{"questions": [{question}, {question}]}}"#);
    let answer = format!(r#"{{"status":504,"body":{TIMED_OUT}}}"#);
    for (body, want) in [
        (question.to_string(), (504, TIMED_OUT.to_string())),
        (
            batch,
            (200, format!(r#"{{"answers":[{answer},{answer}]}}"#)),
        ),
    ] {
        let shards = Arc::new(TimedOutShards::default());
        let gateway = Gateway::new(
            Arc::clone(&shards) as Arc<dyn Transport>,
            GatewayConfig {
                backends: vec!["a:1".into(), "b:1".into()],
                replicas: 2,
                workers: 1,
            },
        );
        let before = failovers();
        assert_eq!(gateway.solve(&body), want, "{body}");
        assert_eq!(shards.posts.load(Ordering::Relaxed), 1, "{body}");
        assert_eq!(failovers(), before, "{body}");
        for shard in gateway.health().snapshot() {
            assert_eq!(shard.health, ShardHealth::Ready, "{body}: {}", shard.addr);
        }
    }
}
