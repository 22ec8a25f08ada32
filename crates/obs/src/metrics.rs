//! The global metric recorder: counters, gauges, log2 histograms.
//!
//! All state lives in a process-global registry keyed by metric name.
//! Recording is gated on a static `AtomicBool`: with the recorder disabled
//! (the default) every recording call is a single relaxed load and a
//! not-taken branch, so instrumented hot paths cost nothing measurable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::json::{FromJson, Json, JsonError, ToJson};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` iff the recorder is currently collecting.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off (off is the default; when off, recording
/// calls are branch-on-static-bool no-ops).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Number of log2 buckets in a [`Histogram`] (covers the full `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 65;

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCells>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// A handle on a named monotonic counter.
///
/// Cheap to clone; obtain once ([`Counter::handle`]) and increment from the
/// hot path.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// The handle for `name`, registering the counter on first use. A
    /// registered name is found by `&str`; only a new one is allocated.
    pub fn handle(name: &str) -> Counter {
        let mut g = registry()
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let cell = match g.get(name) {
            Some(cell) => Arc::clone(cell),
            None => Arc::clone(
                g.entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            ),
        };
        Counter { cell }
    }

    /// Adds `n` (no-op while the recorder is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while the recorder is disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (reads even while disabled).
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A [`Counter`] handle that can live in a `static`: the per-request
/// counters of the service hot paths, which [`add`] would otherwise look
/// up in the registry (under its lock) on every call.
///
/// The name is registered on the first add while the recorder is enabled —
/// exactly when [`add`] would first register it — so a static handle
/// changes no name or value a snapshot shows.
///
/// # Examples
///
/// ```
/// use iis_obs::metrics::StaticCounter;
/// static REQUESTS: StaticCounter = StaticCounter::new("example.requests");
/// iis_obs::set_enabled(true);
/// REQUESTS.add(2);
/// assert_eq!(iis_obs::metrics::snapshot().counters["example.requests"], 2);
/// ```
pub struct StaticCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl StaticCounter {
    /// A handle on the counter `name`, resolved on first use.
    pub const fn new(name: &'static str) -> StaticCounter {
        StaticCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` (no-op while the recorder is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| Counter::handle(self.name))
                .cell
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while the recorder is disabled).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Registers the name exactly as [`Counter::handle`] would, whether or
    /// not the recorder is enabled, so a scrape lists it (at 0) before the
    /// first add.
    pub fn register(&self) {
        self.cell.get_or_init(|| Counter::handle(self.name));
    }
}

/// One-shot counter add for cold paths (`Counter::handle(name).add(n)`);
/// hot paths hold a [`Counter`] or a [`StaticCounter`].
pub fn add(name: &str, n: u64) {
    if enabled() {
        Counter::handle(name).cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// A handle on a named gauge (a last-write-wins signed value).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// The handle for `name`, registering the gauge on first use.
    pub fn handle(name: &str) -> Gauge {
        let mut g = registry()
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let cell = match g.get(name) {
            Some(cell) => Arc::clone(cell),
            None => Arc::clone(
                g.entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicI64::new(0))),
            ),
        };
        Gauge { cell }
    }

    /// Sets the gauge (no-op while the recorder is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One-shot gauge set for cold paths.
pub fn gauge_set(name: &str, v: i64) {
    if enabled() {
        Gauge::handle(name).cell.store(v, Ordering::Relaxed);
    }
}

struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// The log2 bucket index of `v`: 0 for 0, otherwise `⌊log2 v⌋ + 1`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The lower bound of bucket `i` (inclusive).
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A handle on a named log2-bucketed histogram of `u64` samples
/// (durations in nanoseconds, sizes, latencies, …).
#[derive(Clone)]
pub struct HistogramHandle {
    cells: Arc<HistogramCells>,
}

impl HistogramHandle {
    /// The handle for `name`, registering the histogram on first use.
    pub fn handle(name: &str) -> HistogramHandle {
        let mut g = registry()
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let cells = match g.get(name) {
            Some(cells) => Arc::clone(cells),
            None => Arc::clone(
                g.entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCells::new())),
            ),
        };
        HistogramHandle { cells }
    }

    /// Records one sample (no-op while the recorder is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.cells.record(v);
        }
    }
}

/// A [`HistogramHandle`] that can live in a `static`: the per-request
/// histograms of the service hot paths, which [`record`] would otherwise
/// look up in the registry (under its lock) on every sample. Registered on
/// the first sample while the recorder is enabled, as [`record`] would.
///
/// # Examples
///
/// ```
/// use iis_obs::metrics::StaticHistogram;
/// static LATENCY: StaticHistogram = StaticHistogram::new("example.latency_ns");
/// iis_obs::set_enabled(true);
/// LATENCY.record(300);
/// assert_eq!(iis_obs::metrics::snapshot().histograms["example.latency_ns"].count, 1);
/// ```
pub struct StaticHistogram {
    name: &'static str,
    cell: OnceLock<HistogramHandle>,
}

impl StaticHistogram {
    /// A handle on the histogram `name`, resolved on first use.
    pub const fn new(name: &'static str) -> StaticHistogram {
        StaticHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample (no-op while the recorder is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| HistogramHandle::handle(self.name))
                .cells
                .record(v);
        }
    }
}

/// One-shot histogram record for cold paths.
pub fn record(name: &str, v: u64) {
    if enabled() {
        HistogramHandle::handle(name).cells.record(v);
    }
}

/// An immutable copy of one histogram's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 if empty).
    pub max: u64,
    /// `(bucket_floor, count)` for every non-empty log2 bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl Histogram {
    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl ToJson for Histogram {
    /// Keys in sorted order (`buckets`, `count`, `max`, `sum`) so snapshot
    /// JSON diffs are stable.
    fn to_json(&self) -> Json {
        Json::obj([
            ("buckets", self.buckets.to_json()),
            ("count", self.count.to_json()),
            ("max", self.max.to_json()),
            ("sum", self.sum.to_json()),
        ])
    }
}

impl FromJson for Histogram {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Histogram {
            count: u64::from_json(v.field("count")?)?,
            sum: u64::from_json(v.field("sum")?)?,
            max: u64::from_json(v.field("max")?)?,
            buckets: Vec::from_json(v.field("buckets")?)?,
        })
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// `true` iff no metric has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self.gauges.values().all(|&v| v == 0)
            && self.histograms.values().all(|h| h.count == 0)
    }

    /// Counter deltas `self − earlier` (counters are monotonic; absent
    /// earlier entries count as 0). Gauges and histogram aggregates are
    /// taken from `self`. Used by the bench harness to attribute work to
    /// one measured region.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

impl ToJson for Snapshot {
    /// Keys in sorted order at both levels (`counters`, `gauges`,
    /// `histograms`; metric names are BTreeMap-sorted) — the `/snapshot`
    /// wire format and the basis of the `--stats --json` golden test.
    fn to_json(&self) -> Json {
        Json::obj([
            ("counters", self.counters.to_json()),
            ("gauges", self.gauges.to_json()),
            ("histograms", self.histograms.to_json()),
        ])
    }
}

impl FromJson for Snapshot {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Snapshot {
            counters: BTreeMap::from_json(v.field("counters")?)?,
            gauges: BTreeMap::from_json(v.field("gauges")?)?,
            histograms: BTreeMap::from_json(v.field("histograms")?)?,
        })
    }
}

/// Copies out every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, h)| {
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let c = b.load(Ordering::Relaxed);
                    (c > 0).then(|| (bucket_floor(i), c))
                })
                .collect();
            (
                k.clone(),
                Histogram {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    max: h.max.load(Ordering::Relaxed),
                    buckets,
                },
            )
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zeroes every registered metric (handles stay valid).
pub fn reset() {
    let reg = registry();
    for v in reg
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        v.store(0, Ordering::Relaxed);
    }
    for v in reg
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        v.store(0, Ordering::Relaxed);
    }
    for h in reg
        .histograms
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so each
    // test uses its own metric names and asserts on handles, not snapshots
    // of the whole registry.

    #[test]
    fn disabled_recorder_records_nothing() {
        set_enabled(false);
        let c = Counter::handle("test.disabled.counter");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::handle("test.disabled.gauge");
        g.set(3);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn counters_and_gauges_record_when_enabled() {
        set_enabled(true);
        let c = Counter::handle("test.enabled.counter");
        let before = c.get();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        let g = Gauge::handle("test.enabled.gauge");
        g.set(-7);
        assert_eq!(g.get(), -7);
        set_enabled(false);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(4), 8);
    }

    #[test]
    fn bucket_edges_cover_the_u64_range() {
        // every power of two starts a new bucket whose floor is itself
        for i in 0..64u32 {
            let p = 1u64 << i;
            assert_eq!(bucket_of(p), i as usize + 1, "2^{i}");
            assert_eq!(bucket_floor(i as usize + 1), p, "floor of bucket {}", i + 1);
            if p > 1 {
                assert_eq!(bucket_of(p - 1), i as usize, "2^{i} - 1");
            }
        }
        // extremes: 0 and u64::MAX land in the first and last bucket
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_floor(HISTOGRAM_BUCKETS - 1), 1u64 << 63);
        // bucket_of and bucket_floor are mutually consistent everywhere
        for v in [0u64, 1, 2, 3, 1000, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(bucket_floor(b) <= v, "floor({b}) ≤ {v}");
            if b + 1 < HISTOGRAM_BUCKETS {
                assert!(v < bucket_floor(b + 1), "{v} < floor({})", b + 1);
            }
        }
    }

    #[test]
    fn delta_since_treats_absent_counters_as_zero() {
        let mut earlier = Snapshot::default();
        earlier.counters.insert("test.old".to_string(), 5);
        let mut later = Snapshot::default();
        later.counters.insert("test.old".to_string(), 9);
        later.counters.insert("test.new".to_string(), 3);
        let d = later.delta_since(&earlier);
        assert_eq!(d.counters["test.old"], 4);
        // the counter absent from `earlier` is attributed in full
        assert_eq!(d.counters["test.new"], 3);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        let h = Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: Vec::new(),
        };
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn snapshot_json_roundtrips_with_sorted_keys() {
        let mut snap = Snapshot::default();
        snap.counters.insert("z.last".to_string(), 2);
        snap.counters.insert("a.first".to_string(), 1);
        snap.gauges.insert("g.neg".to_string(), -4);
        snap.histograms.insert(
            "h.t".to_string(),
            Histogram {
                count: 2,
                sum: 6,
                max: 5,
                buckets: vec![(1, 1), (4, 1)],
            },
        );
        let json = snap.to_json();
        // top-level and per-section keys are sorted
        let top: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(top, ["counters", "gauges", "histograms"]);
        let counters: Vec<&str> = json
            .field("counters")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(counters, ["a.first", "z.last"]);
        let back: Snapshot = Json::parse_as(&json.to_string()).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms, snap.histograms);
    }

    #[test]
    fn histogram_aggregates() {
        set_enabled(true);
        let h = HistogramHandle::handle("test.histo");
        for v in [0u64, 1, 1, 5, 100] {
            h.record(v);
        }
        let snap = snapshot();
        let histo = &snap.histograms["test.histo"];
        assert_eq!(histo.count, 5);
        assert_eq!(histo.sum, 107);
        assert_eq!(histo.max, 100);
        assert_eq!(histo.mean(), 21);
        let total: u64 = histo.buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
        set_enabled(false);
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        set_enabled(true);
        let c = Counter::handle("test.delta.counter");
        c.add(10);
        let s1 = snapshot();
        c.add(7);
        let s2 = snapshot();
        let d = s2.delta_since(&s1);
        assert_eq!(d.counters["test.delta.counter"], 7);
        set_enabled(false);
    }

    #[test]
    fn reset_zeroes_existing_handles() {
        set_enabled(true);
        let c = Counter::handle("test.reset.counter");
        c.add(3);
        reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(c.get(), 2);
        set_enabled(false);
    }
}
