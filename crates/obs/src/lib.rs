//! `gcsm-obs` — unified observability for the CSM pipeline.
//!
//! Three disconnected islands of instrumentation existed before this crate:
//! `matcher::MatchStats` (per-run enumeration work), `gpusim::Traffic`
//! (memory-system atomics), and the stream session's backpressure counters.
//! This crate gives them one home:
//!
//! * [`metrics::Registry`] — named counters / gauges / log-bucketed
//!   histograms behind relaxed atomics, snapshottable as text or JSON.
//! * [`trace::Tracer`] — RAII spans in a bounded ring, exported as Chrome
//!   trace-event JSON (`chrome://tracing`, Perfetto).
//! * [`clock`] — the process-wide monotonic clock all of it shares.
//!
//! # Zero cost when disabled
//!
//! The process-wide handle ([`global`]) starts disabled. Every
//! instrumentation site goes through [`span`] / [`enabled`], which load one
//! relaxed `AtomicBool` on a `'static` — the entire disabled-path cost is
//! that branch (verified by the overhead test in `tests/`). No allocation,
//! no lock, no clock read happens unless observability was switched on.
//!
//! # Span taxonomy
//!
//! Per batch: `batch` ⊃ { `ingest`, `seal`, `query` (one per registered
//! query) ⊃ { `delta_build` ⊃ { `freq_est`, `data_copy` }, `matching` ⊃
//! { `dm_i`, `merge` } }, `reorganize` }. The GPU kernel emits one `dm_i`
//! per launch, its `count` the launch's (plan × seed) tasks; the CPU
//! reference driver (`match_incremental`) emits one per delta-plan level,
//! with `level = i`. GCSM enumerates its kernel's tasks inside the
//! estimator's host pass, so its `dm_i` nests in `freq_est` (`delta_build`
//! ⊃ { `freq_est` ⊃ { `dm_i` }, `data_copy` }), and its `matching` span
//! holds the charging of the tallied reads and `merge`.
//! Sharded pipelines add a `route` span after `seal` and run each shard's
//! engine spans inside a `shard_match` span. Stream mode adds `window`
//! spans covering each batch's open-to-seal interval. Delta-cache mode
//! nests a `cache_delta` span (resident diff + eviction) inside
//! `delta_build`; overlapped pipelines replace `reorganize` with a
//! `reorg_overlap` span emitted from the worker thread running the
//! deferred merge.

pub mod clock;
pub mod json;
pub mod metrics;
pub mod trace;

pub use clock::{monotonic_micros, monotonic_nanos, Stopwatch};
pub use json::{json_escape, parse, ParseError, Value};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricValue, Registry, Snapshot,
};
pub use trace::{SpanArgs, SpanGuard, SpanRec, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Span categories — the `cat` field in Chrome traces, one per subsystem.
pub mod cat {
    pub const PIPELINE: &str = "pipeline";
    pub const ENGINE: &str = "engine";
    pub const MATCHER: &str = "matcher";
    pub const GRAPH: &str = "graph";
    pub const STREAM: &str = "stream";
}

/// The observability facade: enabled flag + registry + tracer.
pub struct Obs {
    enabled: AtomicBool,
    pub registry: Registry,
    pub tracer: Tracer,
}

impl Obs {
    fn new() -> Self {
        Obs {
            enabled: AtomicBool::new(false),
            registry: Registry::default(),
            tracer: Tracer::default(),
        }
    }

    /// One relaxed load; the only thing disabled hot paths pay.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enable(&self) {
        self.set_enabled(true);
    }

    pub fn disable(&self) {
        self.set_enabled(false);
    }

    /// Open a span if enabled; a no-op guard otherwise.
    #[inline]
    pub fn span(&self, name: &'static str, cat: &'static str) -> SpanGuard<'_> {
        if self.enabled() {
            self.tracer.span(name, cat)
        } else {
            SpanGuard::disabled()
        }
    }

    /// Zero all metrics and drop all retained spans (registrations and the
    /// enabled flag are untouched).
    pub fn reset(&self) {
        self.registry.reset();
        self.tracer.reset();
    }
}

/// The process-wide [`Obs`] handle. Starts disabled; CLIs flip it on when
/// the user passes `--metrics` / `--trace`.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::new)
}

/// `global().enabled()` — the gate instrumentation sites branch on.
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// Open a span on the global handle (no-op guard when disabled).
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard<'static> {
    global().span(name, cat)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share the process-global handle with nothing else in
    // this crate's unit-test binary, but still restore the disabled state
    // so ordering between them can't matter.

    #[test]
    fn global_starts_disabled_and_spans_are_noop() {
        let obs = global();
        let before = obs.tracer.spans().0.len();
        {
            let g = span("batch", cat::PIPELINE);
            assert!(!g.is_enabled() || obs.enabled());
        }
        if !obs.enabled() {
            assert_eq!(obs.tracer.spans().0.len(), before);
        }
    }

    #[test]
    fn enable_records_and_reset_clears() {
        let local = Obs::new();
        assert!(!local.enabled());
        local.enable();
        {
            let mut g = local.span("batch", cat::PIPELINE);
            assert!(g.is_enabled());
            g.set_batch(0);
        }
        local.registry.counter("x").inc();
        assert_eq!(local.tracer.spans().0.len(), 1);
        assert_eq!(local.registry.snapshot().counter("x"), Some(1));
        local.reset();
        assert_eq!(local.tracer.spans().0.len(), 0);
        assert_eq!(local.registry.snapshot().counter("x"), Some(0));
        local.disable();
        assert!(!local.span("batch", cat::PIPELINE).is_enabled());
    }
}
