//! A waited cold question at `iis serve` is solved by the thread that read
//! it. These tests run the real binary, one process per test, so the
//! process-wide counters they read from `/metrics` count only their own
//! questions.

mod support;

use std::time::{Duration, Instant};
use support::{pigeonhole, result_of, Server};

/// A heavy question its asker runs stops at the one deadline of its whole
/// sweep: a structured `504` within the deadline plus a second, and no
/// job is left running.
#[test]
fn a_heavy_question_answers_504_within_the_deadline_and_frees_its_slot() {
    let shard = Server::serve(&["--timeout-secs", "1"]);
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
    let shard = Server::serve(&["--timeout-secs", "60"]);
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
    let shard = Server::serve(&[]);
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
