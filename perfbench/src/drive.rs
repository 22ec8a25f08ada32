//! The closed-loop load generator: each client thread sends its next
//! request only after the previous reply has fully arrived, and checks
//! every reply against the oracle.

use crate::oracle::Oracle;
use crate::workload::{cold_name, cold_pass, warm_pass, Workload, BATCH};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A workload's request stream: one pass of requests, repeated. Request
/// `seq` is position `seq % len` of the pass; cold requests also carry
/// `seq` in their task name, so no cold key repeats.
pub struct Plan<'a> {
    workload: Workload,
    oracle: &'a Oracle,
    seed: u64,
    /// One pass: warm-key indices (`warm_zipf`), batch indices
    /// (`warm_batch`) or cold-shape indices (`cold_unique`).
    pass: Vec<usize>,
    /// `warm_batch` only: each batch's draws, body and expected envelope.
    batches: Vec<(Vec<usize>, String, String)>,
}

impl<'a> Plan<'a> {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, oracle: &'a Oracle, seed: u64) -> Plan<'a> {
        let mut batches = Vec::new();
        let pass = match workload {
            Workload::WarmZipf => warm_pass(oracle.warm.len(), seed),
            Workload::WarmBatch => {
                for draws in warm_pass(oracle.warm.len(), seed).chunks(BATCH) {
                    let (body, envelope) = oracle.batch(draws);
                    batches.push((draws.to_vec(), body, envelope));
                }
                (0..batches.len()).collect()
            }
            Workload::ColdUnique => cold_pass(oracle.cold.len(), seed),
        };
        Plan {
            workload,
            oracle,
            seed,
            pass,
            batches,
        }
    }

    /// The untimed warm-up before a timed phase: every warm key once, the
    /// Zipf tail first so the head ends most recently used; for the cold
    /// workload, one pass of its own stream.
    pub fn warmup(workload: Workload, oracle: &'a Oracle, seed: u64) -> Plan<'a> {
        if !workload.warm() {
            return Plan::new(workload, oracle, seed);
        }
        Plan {
            workload: Workload::WarmZipf,
            oracle,
            seed,
            pass: (0..oracle.warm.len()).rev().collect(),
            batches: Vec::new(),
        }
    }

    /// The first request of the pass after request `seq` ends.
    pub fn next_pass(&self, seq: u64) -> u64 {
        seq.div_ceil(self.pass_len()) * self.pass_len()
    }

    /// The workload this plan streams.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The oracle replies are checked against.
    pub fn oracle(&self) -> &Oracle {
        self.oracle
    }

    /// Requests in one pass.
    pub fn pass_len(&self) -> u64 {
        self.pass.len() as u64
    }

    fn slot(&self, seq: u64) -> usize {
        self.pass[(seq % self.pass_len()) as usize]
    }

    /// Questions in request `seq`.
    pub fn questions(&self, seq: u64) -> usize {
        match self.workload {
            Workload::WarmBatch => self.batches[self.slot(seq)].0.len(),
            _ => 1,
        }
    }

    /// The warm-key indices request `seq` asks (empty for cold requests).
    pub fn warm_draws(&self, seq: u64) -> &[usize] {
        let i = self.slot(seq);
        match self.workload {
            Workload::WarmZipf => {
                std::slice::from_ref(&self.pass[(seq % self.pass_len()) as usize])
            }
            Workload::WarmBatch => &self.batches[i].0,
            Workload::ColdUnique => &[],
        }
    }

    /// The cold shape index and task name of request `seq`.
    pub fn cold_question(&self, seq: u64) -> (usize, String) {
        (self.slot(seq), cold_name(self.seed, seq))
    }

    /// The body of request `seq`.
    pub fn body(&self, seq: u64) -> Cow<'_, str> {
        let i = self.slot(seq);
        match self.workload {
            Workload::WarmZipf => Cow::Borrowed(&self.oracle.warm[i].body),
            Workload::WarmBatch => Cow::Borrowed(&self.batches[i].1),
            Workload::ColdUnique => {
                Cow::Owned(self.oracle.cold[i].body(&cold_name(self.seed, seq)))
            }
        }
    }

    /// How many questions of request `seq` the reply answered wrongly.
    pub fn failures(&self, seq: u64, status: u16, reply: &str) -> usize {
        let i = self.slot(seq);
        match self.workload {
            Workload::WarmZipf => usize::from(status != 200 || reply != self.oracle.warm[i].reply),
            Workload::WarmBatch => {
                let (draws, _, envelope) = &self.batches[i];
                if status == 200 && reply == envelope {
                    0
                } else if status != 200 {
                    draws.len()
                } else {
                    self.oracle.batch_failures(draws, reply)
                }
            }
            Workload::ColdUnique => {
                let name = cold_name(self.seed, seq);
                usize::from(status != 200 || !self.oracle.cold[i].accepts(&name, reply))
            }
        }
    }
}

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct Outcome {
    /// Requests sent.
    pub requests: u64,
    /// Questions asked.
    pub questions: u64,
    /// Questions answered wrongly, refused, or lost to transport errors.
    pub failed: u64,
    /// Per-request latency, send to full reply, in microseconds.
    pub latencies_us: Vec<f64>,
    /// Wall-clock time of the phase in seconds.
    pub elapsed_s: f64,
    /// The first sequence number after this phase.
    pub next_seq: u64,
    /// What went wrong with the first failed request, for the report.
    pub first_failure: Option<String>,
    /// Wall-clock seconds of each whole pass, in order.
    pub pass_s: Vec<f64>,
    /// `(seq, seconds since the phase began)` of each completed request,
    /// in the order of `latencies_us`.
    ends: Vec<(u64, f64)>,
    /// `(seconds since the phase began, host busy ticks so far, host
    /// steal ticks so far)`, sampled every [`SAMPLE`] through the phase.
    samples: Vec<(f64, u64, u64)>,
}

/// How often the host's CPU counters are sampled during a phase.
const SAMPLE: Duration = Duration::from_millis(10);

/// One reply as a sender sees it: a status and a body.
pub type Reply = Result<(u16, String), String>;

/// Runs `clients` closed-loop senders over `plan` for `passes` whole
/// passes starting at request `first`, so every phase asks each pass's
/// multiset a whole number of times. `send(client, seq, body)` delivers
/// one request.
pub fn drive<F>(plan: &Plan<'_>, clients: usize, first: u64, passes: u64, send: F) -> Outcome
where
    F: Fn(usize, u64, &str) -> Reply + Sync,
{
    let end = first + passes.max(1) * plan.pass_len();
    let next = Mutex::new(first);
    let start = Instant::now();
    let claim = || -> Option<u64> {
        let mut seq = next
            .lock()
            .expect("claim lock is never held across a panic");
        if *seq >= end {
            return None;
        }
        *seq += 1;
        Some(*seq - 1)
    };
    let done = AtomicBool::new(false);
    let (per_client, samples): (Vec<Outcome>, _) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let stop = done.load(Ordering::Acquire);
                let (busy, steal) = crate::report::cpu_ticks();
                samples.push((start.elapsed().as_secs_f64(), busy, steal));
                if stop {
                    return samples;
                }
                std::thread::sleep(SAMPLE);
            }
        });
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let claim = &claim;
                let send = &send;
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    while let Some(seq) = claim() {
                        let body = plan.body(seq);
                        let t = Instant::now();
                        let reply = send(c, seq, &body);
                        out.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                        out.ends.push((seq, start.elapsed().as_secs_f64()));
                        let n = plan.questions(seq);
                        out.requests += 1;
                        out.questions += n as u64;
                        let failed = match &reply {
                            Ok((status, text)) => plan.failures(seq, *status, text),
                            Err(_) => n,
                        };
                        if failed > 0 && out.first_failure.is_none() {
                            let what = match &reply {
                                Ok((status, text)) => format!("status {status}: {text:.300}"),
                                Err(e) => format!("transport error: {e}"),
                            };
                            out.first_failure = Some(format!("request {seq}: {what}"));
                        }
                        out.failed += failed as u64;
                    }
                    out
                })
            })
            .collect();
        let outs = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        (outs, sampler.join().expect("sampler panicked"))
    });
    let mut total = Outcome {
        elapsed_s: start.elapsed().as_secs_f64(),
        next_seq: end,
        samples,
        ..Outcome::default()
    };
    for o in per_client {
        total.requests += o.requests;
        total.questions += o.questions;
        total.failed += o.failed;
        total.latencies_us.extend(o.latencies_us);
        total.first_failure = total.first_failure.or(o.first_failure);
        total.ends.extend(o.ends);
    }
    // a pass ends when its last request does
    let passes = (total.next_seq - first).div_ceil(plan.pass_len()) as usize;
    let mut pass_end = vec![0.0f64; passes];
    for &(seq, end) in &total.ends {
        let p = ((seq - first) / plan.pass_len()) as usize;
        pass_end[p] = pass_end[p].max(end);
    }
    let mut prev = 0.0;
    for end in pass_end {
        total.pass_s.push(end - prev);
        prev = end;
    }
    total
}

/// Length of the windows over which [`Outcome::granted`] reads the
/// hypervisor's grant.
pub const WINDOW_S: f64 = 0.5;

/// A phase's wall-clock figures on granted CPU time (see
/// [`Outcome::granted`]).
pub struct Granted {
    /// The share of the CPU time the host asked for that the hypervisor
    /// granted, over the whole phase.
    pub grant: f64,
    /// Questions answered per granted second.
    pub qps: f64,
    /// Each request's latency scaled by its window's grant, in µs.
    pub latencies_us: Vec<f64>,
}

impl Outcome {
    /// The host's `(busy, steal)` ticks so far at `t` seconds into the
    /// phase, interpolated between samples.
    fn ticks_at(&self, t: f64) -> (f64, f64) {
        let i = self.samples.partition_point(|&(at, _, _)| at <= t);
        let pair = |&(_, b, s): &(f64, u64, u64)| (b as f64, s as f64);
        match (
            i.checked_sub(1).map(|j| &self.samples[j]),
            self.samples.get(i),
        ) {
            (Some(x @ &(a, _, _)), Some(y @ &(b, _, _))) if b > a => {
                let ((ba, sa), (bb, sb)) = (pair(x), pair(y));
                let f = (t - a) / (b - a);
                (ba + (bb - ba) * f, sa + (sb - sa) * f)
            }
            (Some(x), _) => pair(x),
            (None, Some(y)) => pair(y),
            (None, None) => (0.0, 0.0),
        }
    }

    /// The phase's wall-clock figures as they would read had the
    /// hypervisor granted the host every CPU cycle it asked for.
    ///
    /// On a shared host the hypervisor runs other machines on the host's
    /// CPUs for part of the time the host wants them (steal). Every
    /// wall-clock figure then stretches for reasons outside the program, in
    /// phases that last minutes. Each [`WINDOW_S`] window's wall time is
    /// scaled by its grant, `busy / (busy + steal)` from `/proc/stat`:
    /// questions per second are counted over granted time, and each
    /// latency is scaled by the grant of the window it ended in. Only the
    /// host's counters choose the scale, never the program's own speed,
    /// and with no steal every figure is the raw one.
    pub fn granted(&self) -> Granted {
        let len = WINDOW_S;
        let windows = (self.elapsed_s / len).ceil().max(1.0) as usize;
        let grants: Vec<f64> = (0..windows)
            .map(|w| {
                let (b0, s0) = self.ticks_at(w as f64 * len);
                let (b1, s1) = self.ticks_at(((w + 1) as f64 * len).min(self.elapsed_s));
                grant(b1 - b0, s1 - s0)
            })
            .collect();
        let granted_s: f64 = grants
            .iter()
            .enumerate()
            .map(|(w, g)| g * (((w + 1) as f64 * len).min(self.elapsed_s) - w as f64 * len))
            .sum();
        let window = |t: f64| ((t / len) as usize).min(windows - 1);
        Granted {
            grant: granted_s / self.elapsed_s.max(1e-9),
            qps: self.questions as f64 / granted_s.max(1e-9),
            latencies_us: self
                .ends
                .iter()
                .zip(&self.latencies_us)
                .map(|(&(_, end), &lat)| lat * grants[window(end)])
                .collect(),
        }
    }
}

/// The share of the CPU time a host asked for that the hypervisor
/// granted, from its busy and stolen ticks over some span: `busy / (busy +
/// steal)`, or 1 when it asked for none.
pub fn grant(busy: f64, steal: f64) -> f64 {
    if busy + steal > 0.0 {
        busy / (busy + steal)
    } else {
        1.0
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-second phase of ten one-question requests of 100 ms each,
    /// with the host busy one core throughout and stealing `steal` cores
    /// in the second second.
    fn phase(steal: u64) -> Outcome {
        let samples = (0..=200)
            .map(|i| {
                let t = i as f64 / 100.0;
                let stolen = if i > 100 { (i - 100) * steal } else { 0 };
                (t, i, stolen)
            })
            .collect();
        Outcome {
            requests: 10,
            questions: 10,
            latencies_us: vec![1e5; 10],
            elapsed_s: 2.0,
            ends: (0..10).map(|i| (i, 0.2 * (i + 1) as f64 - 0.01)).collect(),
            samples,
            ..Outcome::default()
        }
    }

    #[test]
    fn no_steal_leaves_the_raw_figures() {
        let g = phase(0).granted();
        assert_eq!(g.grant, 1.0);
        assert!((g.qps - 5.0).abs() < 1e-9);
        assert!(g.latencies_us.iter().all(|&l| (l - 1e5).abs() < 1e-6));
    }

    #[test]
    fn stolen_time_is_taken_out_of_the_windows_it_fell_in() {
        // in the second second the host asked for two cores and got one
        let g = phase(1).granted();
        assert!((g.grant - 0.75).abs() < 1e-9, "{}", g.grant);
        assert!((g.qps - 10.0 / 1.5).abs() < 1e-9, "{}", g.qps);
        let (first, second) = g.latencies_us.split_at(5);
        assert!(first.iter().all(|&l| (l - 1e5).abs() < 1e-6));
        assert!(second.iter().all(|&l| (l - 0.5e5).abs() < 1e-6));
    }

    #[test]
    fn grant_is_one_when_the_host_asked_for_nothing() {
        assert_eq!(grant(0.0, 0.0), 1.0);
        assert_eq!(grant(3.0, 1.0), 0.75);
    }
}
