//! Causal span profiling with collapsed-stack flamegraph export (the
//! CLI's `--profile FILE`).
//!
//! A *span* is a named node in a process-global tree: the solver registers
//! one span per round under the root and its phase leaves (`compile`,
//! `search`) under it. Every thread records `(span, depth, nodes, ns)`
//! samples into one lock-free ring buffer — parallel arrays of `AtomicU64`
//! slots claimed by one atomic increment, so recording a sample is a
//! handful of relaxed atomic operations and never takes a lock.
//!
//! [`fold`] aggregates the samples by root-to-leaf path and
//! [`to_collapsed`] renders them in collapsed-stack format
//! (`round:1;search 12345`, weight = nanoseconds), the input format of
//! `inferno-flamegraph` and speedscope.
//!
//! Profiling is observational only: it is gated on its own flag
//! (independent of [`crate::metrics::enabled`]), and no search decision
//! ever reads profiling state — verdicts, witnesses, and node accounting
//! are bit-identical with profiling on or off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` iff the profiler is currently sampling.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns sampling on or off (off is the default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Samples the ring holds before wrapping (oldest overwritten first).
pub const RING_CAPACITY: usize = 4096;

/// An opaque span identifier; [`SpanId::ROOT`] is every top-level span's
/// parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The root of the span tree (label-less; never sampled directly).
    pub const ROOT: SpanId = SpanId(0);
}

/// The span registry: `spans[id] = (parent id, label)`; index 0 is the
/// root. Registration is cold-path (per round and phase), so a mutex
/// is fine here; the sample hot path never touches it.
fn spans() -> &'static Mutex<Vec<(u32, String)>> {
    static SPANS: OnceLock<Mutex<Vec<(u32, String)>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(vec![(0, String::new())]))
}

/// The sample ring: parallel `AtomicU64` arrays, each slot claimed by
/// one increment of `head`. `meta` packs `span << 16 | depth`.
struct Ring {
    head: AtomicUsize,
    meta: Vec<AtomicU64>,
    nodes: Vec<AtomicU64>,
    ns: Vec<AtomicU64>,
}

impl Ring {
    fn new() -> Ring {
        let zeros = || (0..RING_CAPACITY).map(|_| AtomicU64::new(0)).collect();
        Ring {
            head: AtomicUsize::new(0),
            meta: zeros(),
            nodes: zeros(),
            ns: zeros(),
        }
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(Ring::new)
}

/// Registers a span labelled `label` under `parent` and returns its id.
/// Returns [`SpanId::ROOT`] while the profiler is disabled (registering
/// is then a no-op).
pub fn register(parent: SpanId, label: &str) -> SpanId {
    if !enabled() {
        return SpanId::ROOT;
    }
    let mut g = spans().lock().unwrap_or_else(PoisonError::into_inner);
    // ids are u32 packed into 48 bits of sample meta; the registry is
    // bounded by rounds × phases, far below this
    let id = g.len() as u32;
    g.push((parent.0, label.to_string()));
    SpanId(id)
}

/// Records one `(span, depth, nodes, ns)` sample into the ring. No-op
/// while disabled. Wrapped (overwritten) samples are counted in
/// `profile.wrapped`.
pub fn sample(span: SpanId, depth: u16, nodes: u64, ns: u64) {
    if !enabled() {
        return;
    }
    let ring = ring();
    let i = ring.head.fetch_add(1, Ordering::Relaxed);
    if i >= RING_CAPACITY {
        crate::metrics::add("profile.wrapped", 1);
    }
    let slot = i % RING_CAPACITY;
    ring.meta[slot].store(
        (u64::from(span.0) << 16) | u64::from(depth),
        Ordering::Relaxed,
    );
    ring.nodes[slot].store(nodes, Ordering::Relaxed);
    ring.ns[slot].store(ns, Ordering::Relaxed);
}

/// Registers a child span under `parent` and samples it in one step —
/// the common leaf-phase pattern.
pub fn sample_under(parent: SpanId, label: &str, depth: u16, nodes: u64, ns: u64) {
    if !enabled() {
        return;
    }
    sample(register(parent, label), depth, nodes, ns);
}

/// Clears the ring and the span registry (back to the lone root).
pub fn reset() {
    let mut g = spans().lock().unwrap_or_else(PoisonError::into_inner);
    g.clear();
    g.push((0, String::new()));
    drop(g);
    ring().head.store(0, Ordering::Relaxed);
}

/// Folds all recorded samples by root-to-leaf path: `path → (ns, nodes)`,
/// path frames joined by `;`. Paths sort lexicographically (BTreeMap), so
/// the collapsed output is stable run to run.
pub fn fold() -> BTreeMap<String, (u64, u64)> {
    let g = spans().lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let ring = ring();
    let len = ring.head.load(Ordering::Relaxed).min(RING_CAPACITY);
    for slot in 0..len {
        let meta = ring.meta[slot].load(Ordering::Relaxed);
        let span = (meta >> 16) as usize;
        if span == 0 || span >= g.len() {
            continue; // root or a sample racing a reset
        }
        // walk parent links up to the root to build the path
        let mut frames: Vec<&str> = Vec::new();
        let mut cur = span;
        while cur != 0 {
            let (parent, ref label) = g[cur];
            frames.push(label);
            cur = parent as usize;
        }
        frames.reverse();
        let path = frames.join(";");
        let e = out.entry(path).or_insert((0, 0));
        e.0 += ring.ns[slot].load(Ordering::Relaxed);
        e.1 += ring.nodes[slot].load(Ordering::Relaxed);
    }
    out
}

/// Renders the folded samples in collapsed-stack format, one
/// `frame;frame;frame WEIGHT` line per path (weight = nanoseconds) —
/// loadable by `inferno-flamegraph` and speedscope.
pub fn to_collapsed() -> String {
    let mut out = String::new();
    for (path, (ns, _nodes)) in fold() {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Parses collapsed-stack text back into `(frames, weight)` rows — the
/// inverse of [`to_collapsed`], used by tests and tooling. Lines without
/// a trailing integer weight are rejected.
pub fn parse_collapsed(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let (path, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no weight in line: {line:?}"))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("bad weight in line: {line:?}"))?;
        if path.is_empty() {
            return Err(format!("empty path in line: {line:?}"));
        }
        rows.push((path.split(';').map(str::to_string).collect(), weight));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global, so all stateful assertions live in
    // this single test (obs unit tests run concurrently).
    #[test]
    fn register_sample_fold_roundtrip() {
        set_enabled(true);
        reset();
        let round = register(SpanId::ROOT, "round:1");
        sample(round, 1, 10, 1000);
        sample_under(round, "search", 2, 7, 500);
        sample_under(round, "search", 2, 3, 250);
        let folded = fold();
        assert_eq!(folded["round:1"], (1000, 10));
        assert_eq!(folded["round:1;search"], (750, 10));
        let text = to_collapsed();
        let rows = parse_collapsed(&text).unwrap();
        assert!(rows
            .iter()
            .any(|(frames, w)| frames.len() == 2 && *w == 750));
        // another thread's samples fold into the same tree
        std::thread::spawn(|| sample(SpanId(1), 1, 1, 1))
            .join()
            .unwrap();
        assert_eq!(fold()["round:1"], (1001, 11));
        // disabled: register and sample are no-ops
        set_enabled(false);
        assert_eq!(register(SpanId::ROOT, "ignored"), SpanId::ROOT);
        sample(SpanId(1), 1, 99, 99);
        assert_eq!(fold()["round:1"], (1001, 11));
        // ring wrap keeps only the newest RING_CAPACITY samples
        set_enabled(true);
        reset();
        let s = register(SpanId::ROOT, "wrap");
        for _ in 0..RING_CAPACITY + 5 {
            sample(s, 1, 1, 1);
        }
        assert_eq!(fold()["wrap"], (RING_CAPACITY as u64, RING_CAPACITY as u64));
        set_enabled(false);
        reset();
    }

    #[test]
    fn parse_collapsed_rejects_malformed_lines() {
        assert!(parse_collapsed("a;b 12\nc 3\n").is_ok());
        assert!(parse_collapsed("noweight\n").is_err());
        assert!(parse_collapsed("a;b x\n").is_err());
        assert!(parse_collapsed(" 12\n").is_err());
        assert_eq!(parse_collapsed("").unwrap(), Vec::new());
    }
}
