//! Health-driven routing state: one [`ShardHealth`] per configured shard,
//! fed by a `/readyz` prober and by request-path failures.
//!
//! The lifecycle is deliberately simple and fully deterministic (probing
//! is tick-based, not wall-clock-based, so the fuzz layer can replay it):
//!
//! - **Ready** — routable, preferred.
//! - **ReadOnly** — the shard answered `/readyz` with a read-only
//!   degradation (its store quarantined a segment). It still answers
//!   `/solve` correctly — results are recomputed, not stored — so it is
//!   *demoted to read-preferred*: routed to only after every Ready
//!   replica of the key.
//! - **Down** — connect failures or non-ready probes. Ejected from
//!   routing (used only as a last resort when every replica of a key is
//!   down) and re-probed with exponential backoff, so a dead shard costs
//!   one connect timeout per backoff window, not per request.

use crate::transport::Transport;
use std::sync::{Mutex, PoisonError};

/// Routing-relevant health of one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// `/readyz` answered 200: fully routable.
    Ready,
    /// `/readyz` reported a read-only degradation: route to it only after
    /// the key's Ready replicas.
    ReadOnly,
    /// Unreachable or not ready: ejected, re-probed with backoff.
    Down,
}

impl ShardHealth {
    /// Stable name used in `/cluster` JSON.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Ready => "ready",
            ShardHealth::ReadOnly => "read-only",
            ShardHealth::Down => "down",
        }
    }

    /// Routing preference: lower is tried first.
    pub(crate) fn rank(self) -> u8 {
        match self {
            ShardHealth::Ready => 0,
            ShardHealth::ReadOnly => 1,
            ShardHealth::Down => 2,
        }
    }
}

/// Per-shard prober state.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// The shard's `host:port` address.
    pub addr: String,
    /// Current health.
    pub health: ShardHealth,
    /// Consecutive failed probes/requests; resets on success.
    pub consecutive_failures: u32,
    /// Probe ticks to skip before the next probe of a Down shard.
    backoff_ticks: u32,
}

/// Longest probe backoff, in prober ticks (with a 1 s probe interval this
/// caps the retry period at ~30 s).
const MAX_BACKOFF_TICKS: u32 = 30;

/// The registry shared by the prober thread and every request worker.
pub struct HealthRegistry {
    shards: Mutex<Vec<ShardStatus>>,
}

impl HealthRegistry {
    /// A registry for `addrs`, optimistically all Ready (the first probe
    /// pass corrects this before real traffic in `iis gateway`).
    pub fn new(addrs: &[String]) -> HealthRegistry {
        HealthRegistry {
            shards: Mutex::new(
                addrs
                    .iter()
                    .map(|a| ShardStatus {
                        addr: a.clone(),
                        health: ShardHealth::Ready,
                        consecutive_failures: 0,
                        backoff_ticks: 0,
                    })
                    .collect(),
            ),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<ShardStatus>> {
        self.shards.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current health of shard `idx`.
    pub fn health_of(&self, idx: usize) -> ShardHealth {
        self.lock().get(idx).map_or(ShardHealth::Down, |s| s.health)
    }

    /// A copy of every shard's status, in configuration order.
    pub fn snapshot(&self) -> Vec<ShardStatus> {
        self.lock().clone()
    }

    /// Request-path feedback: a request to shard `idx` failed at the
    /// transport level or with a 5xx other than a deadline's `504`. Marks
    /// it Down immediately — the
    /// prober will bring it back — and counts the *transition* on
    /// `gateway.shard_down`.
    pub fn report_failure(&self, idx: usize) {
        let mut shards = self.lock();
        let Some(s) = shards.get_mut(idx) else { return };
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        if s.health != ShardHealth::Down {
            s.health = ShardHealth::Down;
            iis_obs::metrics::add("gateway.shard_down", 1);
        }
    }

    /// Request-path feedback: shard `idx` answered. A Down shard is not
    /// resurrected here (that is the prober's job — one success on a
    /// last-resort attempt is not readiness), but failure streaks reset.
    pub fn report_success(&self, idx: usize) {
        let mut shards = self.lock();
        if let Some(s) = shards.get_mut(idx) {
            s.consecutive_failures = 0;
        }
    }

    /// One probing pass over every shard: `GET /readyz` through
    /// `transport`, honoring per-shard backoff. Deterministic given the
    /// transport — the prober thread calls this on a timer; tests and the
    /// fuzz layer call it directly.
    pub fn probe_all(&self, transport: &dyn Transport) {
        let due: Vec<(usize, String)> = {
            let mut shards = self.lock();
            shards
                .iter_mut()
                .enumerate()
                .filter_map(|(i, s)| {
                    if s.backoff_ticks > 0 {
                        s.backoff_ticks -= 1;
                        return None;
                    }
                    Some((i, s.addr.clone()))
                })
                .collect()
        };
        for (idx, addr) in due {
            // probe outside the lock: a slow shard must not stall routing
            let outcome = transport.get(&addr, "/readyz");
            let mut shards = self.lock();
            let Some(s) = shards.get_mut(idx) else {
                continue;
            };
            match outcome {
                Ok(r) if r.status == 200 => {
                    s.health = ShardHealth::Ready;
                    s.consecutive_failures = 0;
                    s.backoff_ticks = 0;
                }
                Ok(r) if r.status == 503 && r.body.contains("read-only") => {
                    // quarantined store: correct but not persisting —
                    // keep it routable, read-preferred
                    s.health = ShardHealth::ReadOnly;
                    s.consecutive_failures = 0;
                    s.backoff_ticks = 0;
                }
                Ok(_) | Err(_) => {
                    s.consecutive_failures = s.consecutive_failures.saturating_add(1);
                    if s.health != ShardHealth::Down {
                        s.health = ShardHealth::Down;
                        iis_obs::metrics::add("gateway.shard_down", 1);
                    }
                    s.backoff_ticks = (1u32 << s.consecutive_failures.min(5).saturating_sub(1))
                        .min(MAX_BACKOFF_TICKS);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportResponse;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scripted transport: each shard answers with a fixed outcome.
    struct Scripted {
        by_addr: Vec<(String, Result<TransportResponse, String>)>,
        probes: AtomicUsize,
    }

    impl Transport for Scripted {
        fn get(&self, shard: &str, _path: &str) -> Result<TransportResponse, String> {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.by_addr
                .iter()
                .find(|(a, _)| a == shard)
                .map(|(_, r)| r.clone())
                .unwrap_or_else(|| Err("unknown shard".into()))
        }

        fn post(
            &self,
            _shard: &str,
            _path: &str,
            _body: &str,
        ) -> Result<TransportResponse, String> {
            Err("not a request transport".into())
        }
    }

    fn ok(status: u16, body: &str) -> Result<TransportResponse, String> {
        Ok(TransportResponse {
            status,
            body: body.to_string(),
        })
    }

    #[test]
    fn probe_classifies_ready_readonly_down() {
        let addrs: Vec<String> = vec!["a:1".into(), "b:1".into(), "c:1".into()];
        let t = Scripted {
            by_addr: vec![
                ("a:1".into(), ok(200, "{\"ready\": true}")),
                (
                    "b:1".into(),
                    ok(503, "{\"ready\": false, \"degraded\": \"read-only\"}"),
                ),
                ("c:1".into(), Err("connection refused".into())),
            ],
            probes: AtomicUsize::new(0),
        };
        let reg = HealthRegistry::new(&addrs);
        reg.probe_all(&t);
        assert_eq!(reg.health_of(0), ShardHealth::Ready);
        assert_eq!(reg.health_of(1), ShardHealth::ReadOnly);
        assert_eq!(reg.health_of(2), ShardHealth::Down);
    }

    #[test]
    fn down_shards_are_probed_with_backoff() {
        let addrs: Vec<String> = vec!["a:1".into()];
        let t = Scripted {
            by_addr: vec![("a:1".into(), Err("refused".into()))],
            probes: AtomicUsize::new(0),
        };
        let reg = HealthRegistry::new(&addrs);
        for _ in 0..12 {
            reg.probe_all(&t);
        }
        // without backoff this would be 12 probes; the exponential skip
        // schedule (1, 2, 4, 8, … capped) makes it far fewer
        let probes = t.probes.load(Ordering::Relaxed);
        assert!(
            probes < 8,
            "expected backoff, saw {probes} probes in 12 ticks"
        );
        assert_eq!(reg.health_of(0), ShardHealth::Down);
        let snap = reg.snapshot();
        assert!(snap[0].consecutive_failures >= 2, "{snap:?}");
    }

    #[test]
    fn request_feedback_marks_down_and_success_resets_streaks() {
        let addrs: Vec<String> = vec!["a:1".into(), "b:1".into()];
        let reg = HealthRegistry::new(&addrs);
        reg.report_failure(1);
        assert_eq!(reg.health_of(1), ShardHealth::Down);
        assert_eq!(reg.health_of(0), ShardHealth::Ready);
        // success feedback does not resurrect — only the prober does
        reg.report_success(1);
        assert_eq!(reg.health_of(1), ShardHealth::Down);
        assert_eq!(reg.snapshot()[1].consecutive_failures, 0);
        let t = Scripted {
            by_addr: vec![("a:1".into(), ok(200, "{}")), ("b:1".into(), ok(200, "{}"))],
            probes: AtomicUsize::new(0),
        };
        reg.probe_all(&t);
        assert_eq!(reg.health_of(1), ShardHealth::Ready);
    }
}
