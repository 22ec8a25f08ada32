//! RAII span timers.
//!
//! [`span`] returns a guard that, on drop, records the elapsed nanoseconds
//! into the histogram of the same name and — when a trace sink is
//! installed — emits a `span` trace event. When both the recorder and
//! tracing are off, constructing the guard does not even read the clock.
//! [`span_on`] times into a [`StaticHistogram`] instead, for hot paths
//! that should not look the histogram up by name on every drop.

use std::time::Instant;

use crate::json::Json;
use crate::metrics::StaticHistogram;
use crate::{metrics, trace};

/// A timer for one named region; records on drop.
#[must_use = "a span records when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    histogram: Option<&'static StaticHistogram>,
    start: Option<Instant>,
}

/// Starts timing `name` (a histogram name, conventionally `*_ns`).
#[inline]
pub fn span(name: &'static str) -> Span {
    start(name, None)
}

/// [`span`] into `histogram`'s static handle: the same samples and trace
/// events, with no registry lookup on drop.
#[inline]
pub fn span_on(histogram: &'static StaticHistogram) -> Span {
    start(histogram.name(), Some(histogram))
}

#[inline]
fn start(name: &'static str, histogram: Option<&'static StaticHistogram>) -> Span {
    let start = if metrics::enabled() || trace::active() {
        Some(Instant::now())
    } else {
        None
    };
    Span {
        name,
        histogram,
        start,
    }
}

impl Span {
    /// The elapsed nanoseconds so far (`None` while recording is off).
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start.map(|s| s.elapsed().as_nanos() as u64)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            match self.histogram {
                Some(h) => h.record(ns),
                None => metrics::record(self.name, ns),
            }
            trace::event("span", self.name, &[("dur_ns", Json::Num(ns as f64))]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_skips_the_clock() {
        metrics::set_enabled(false);
        let s = span("test.span.disabled_ns");
        assert!(s.elapsed_ns().is_none());
    }

    #[test]
    fn enabled_span_records_into_histogram() {
        metrics::set_enabled(true);
        {
            let _s = span("test.span.enabled_ns");
            std::hint::black_box(0u64);
        }
        let snap = metrics::snapshot();
        let h = &snap.histograms["test.span.enabled_ns"];
        assert!(h.count >= 1);
        metrics::set_enabled(false);
    }

    #[test]
    fn static_span_records_into_its_histogram() {
        static TIMED: StaticHistogram = StaticHistogram::new("test.span.static_ns");
        metrics::set_enabled(true);
        for _ in 0..2 {
            let _s = span_on(&TIMED);
        }
        assert!(metrics::snapshot().histograms["test.span.static_ns"].count >= 1);
        metrics::set_enabled(false);
    }
}
