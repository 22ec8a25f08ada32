//! A round whose tower is past the facet cap is answered without building
//! it. The test runs the real binary in a process of its own, so the
//! build counters it reads from `/metrics` count only its own questions.

mod support;

use support::Server;

/// The `(sds.builds, cache.tower_builds)` counts the shard has published.
fn builds(shard: &Server) -> (u64, u64) {
    (
        shard.metric("sds_builds_total"),
        shard.metric("cache_tower_builds_total"),
    )
}

/// The content address of `spec` at `max_rounds`, as a reply names it.
fn key(spec: &str, max_rounds: usize) -> String {
    let task = iis_tasks::library::parse_spec(spec).unwrap();
    format!("{:016x}", iis_core::cache::cache_key(&task, max_rounds))
}

/// `eps:5:2` passes every check of the question reader, but its tower
/// at `b = 1` has 64 · 4683 facets — over 600 MB to build — and neither
/// a certificate nor its distances settle that round. The sweep stops
/// before building it: an inconclusive `422` naming the round, the facet
/// count and the cap, and the shard serves on. `consensus:6`, whose
/// tower at `b = 1` is 20 times larger, is certified instead: an exact
/// `200`. The distances of both refute round 0, so neither ask builds
/// any level, not even round 0's.
#[test]
fn a_tower_past_the_cap_answers_422_without_building() {
    let shard = Server::serve(&[]);
    // a question that builds a level, so the build counters are listed
    let (status, reply) = shard.solve(r#"{"spec": "eps:1:3", "max_rounds": 1}"#);
    assert_eq!(status, 200, "{reply}");
    // the task itself is interned first: the bound is on the tower
    let (status, reply) = shard.solve(r#"{"spec": "eps:5:2", "max_rounds": 0}"#);
    assert_eq!(status, 200, "{reply}");
    let before = builds(&shard);
    let (status, reply) = shard.solve(r#"{"spec": "eps:5:2", "max_rounds": 1}"#);
    assert_eq!(status, 422, "{reply}");
    assert_eq!(
        reply,
        format!(
            r#"{{"error":"inconclusive: SDS^1(I) would have 299712 facets, past the cap of 100000; nothing was built","job":3,"key":"{}"}}"#,
            key("eps:5:2", 1)
        )
    );
    assert_eq!(builds(&shard), before, "a level was built");
    assert_eq!(shard.request("GET", "/readyz", "").0, 200);
    let (status, reply) = shard.solve(r#"{"spec": "consensus:6", "max_rounds": 0}"#);
    assert_eq!(status, 200, "{reply}");
    let before = builds(&shard);
    let (status, reply) = shard.solve(r#"{"spec": "consensus:6", "max_rounds": 1}"#);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(
        reply,
        format!(
            r#"{{"cached":false,"job":5,"key":"{}","result":{{"results":[[0,false],[1,false]],"task":"consensus","witness":null}}}}"#,
            key("consensus:6", 1)
        )
    );
    assert_eq!(builds(&shard), before, "a level was built");
    let (status, reply) = shard.solve(r#"{"spec": "eps:1:3", "max_rounds": 1}"#);
    assert_eq!(status, 200, "{reply}");
    shard.stop();
}
