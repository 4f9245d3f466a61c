//! Span tracer: bounded ring of closed spans, exportable as Chrome
//! trace-event JSON (open in `chrome://tracing` or Perfetto).
//!
//! Spans are RAII guards: [`Tracer::span`] stamps the start, dropping the
//! guard stamps the duration and pushes one fixed-size record into the
//! ring. Everything is allocation-free at record time — names and
//! categories are `&'static str`, args are a small option struct — so the
//! only shared state touched per span is one short mutex critical section
//! at close.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::monotonic_micros;

/// Default ring capacity: enough for ~10k batches of the full phase
/// taxonomy before the ring wraps (oldest spans dropped first).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Optional structured payload attached to a span; shows up under `args`
/// in the Chrome trace. Fixed fields keep recording allocation-free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanArgs {
    /// Batch index the span belongs to.
    pub batch: Option<u64>,
    /// Delta-plan level for the CPU driver's per-level `dm_i` spans.
    pub level: Option<u32>,
    /// Free count: updates ingested, tasks merged, lists rebuilt…
    pub count: Option<u64>,
    /// Shard index for multi-device spans (one lane per shard in the
    /// Chrome trace view).
    pub shard: Option<u32>,
}

/// A closed span as stored in the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub cat: &'static str,
    pub ts_us: u64,
    pub dur_us: u64,
    pub tid: u64,
    pub args: SpanArgs,
}

fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[derive(Default)]
struct Ring {
    buf: Vec<SpanRec>,
    /// Next write position once the ring is full.
    head: usize,
    dropped: u64,
}

/// Bounded span sink. One per [`crate::Obs`]; shared across threads.
pub struct Tracer {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer { ring: Mutex::new(Ring::default()), capacity: capacity.max(1) }
    }

    /// Open a span; the returned guard records it when dropped.
    pub fn span(&self, name: &'static str, cat: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            tracer: Some(self),
            name,
            cat,
            start_us: monotonic_micros(),
            args: SpanArgs::default(),
        }
    }

    /// Record an already-measured span (e.g. a stream window whose open
    /// timestamp predates the sealing thread's involvement).
    pub fn record_closed(
        &self,
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        dur_us: u64,
        args: SpanArgs,
    ) {
        self.push(SpanRec { name, cat, ts_us, dur_us, tid: current_tid(), args });
    }

    // lint:allow(lock-order) -- `ring.buf.push` is `Vec::push` under the ring
    // lock, not a nested lock acquisition; the name-based call graph
    // conflates it with unrelated `push()` fns that do lock.
    fn push(&self, rec: SpanRec) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.buf.len() < self.capacity {
            ring.buf.push(rec);
        } else {
            let head = ring.head;
            ring.buf[head] = rec;
            ring.head = (head + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// All retained spans, oldest first; plus how many were evicted.
    pub fn spans(&self) -> (Vec<SpanRec>, u64) {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        (out, ring.dropped)
    }

    pub fn reset(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.buf.clear();
        ring.head = 0;
        ring.dropped = 0;
    }

    /// Chrome trace-event JSON: complete (`"ph":"X"`) events sorted by
    /// start time, parents before children at equal timestamps.
    pub fn to_chrome_json(&self) -> String {
        let (mut spans, _) = self.spans();
        spans.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then(b.dur_us.cmp(&a.dur_us)));
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                s.name, s.cat, s.ts_us, s.dur_us, s.tid
            ));
            let mut args = Vec::new();
            if let Some(b) = s.args.batch {
                args.push(format!("\"batch\":{b}"));
            }
            if let Some(l) = s.args.level {
                args.push(format!("\"level\":{l}"));
            }
            if let Some(c) = s.args.count {
                args.push(format!("\"count\":{c}"));
            }
            if let Some(sh) = s.args.shard {
                args.push(format!("\"shard\":{sh}"));
            }
            if !args.is_empty() {
                out.push_str(",\"args\":{");
                out.push_str(&args.join(","));
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// RAII handle for an open span. `None` tracer means tracing is disabled
/// and the drop is a no-op — this is the entire cost of a disabled span
/// besides the enabled-flag branch that produced it.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    args: SpanArgs,
}

impl SpanGuard<'_> {
    /// A guard that records nothing; returned when tracing is disabled.
    pub fn disabled() -> SpanGuard<'static> {
        SpanGuard { tracer: None, name: "", cat: "", start_us: 0, args: SpanArgs::default() }
    }

    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn set_batch(&mut self, batch: u64) {
        self.args.batch = Some(batch);
    }

    pub fn set_level(&mut self, level: u32) {
        self.args.level = Some(level);
    }

    pub fn set_count(&mut self, count: u64) {
        self.args.count = Some(count);
    }

    pub fn set_shard(&mut self, shard: u32) {
        self.args.shard = Some(shard);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            let now = monotonic_micros();
            tracer.push(SpanRec {
                name: self.name,
                cat: self.cat,
                ts_us: self.start_us,
                dur_us: now.saturating_sub(self.start_us),
                tid: current_tid(),
                args: self.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_one_span() {
        let t = Tracer::with_capacity(8);
        {
            let mut g = t.span("batch", "pipeline");
            g.set_batch(3);
        }
        let (spans, dropped) = t.spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "batch");
        assert_eq!(spans[0].args.batch, Some(3));
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let t = Tracer::with_capacity(8);
        {
            let mut g = SpanGuard::disabled();
            assert!(!g.is_enabled());
            g.set_count(7);
        }
        assert_eq!(t.spans().0.len(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.record_closed("s", "c", i, 1, SpanArgs::default());
        }
        let (spans, dropped) = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(dropped, 6);
        // Oldest-first: the survivors are the last four records.
        let ts: Vec<u64> = spans.iter().map(|s| s.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn chrome_json_shape() {
        let t = Tracer::with_capacity(8);
        t.record_closed("outer", "pipeline", 10, 20, SpanArgs::default());
        t.record_closed(
            "inner",
            "matcher",
            12,
            5,
            SpanArgs { level: Some(1), ..Default::default() },
        );
        t.record_closed(
            "shard_match",
            "engine",
            13,
            3,
            SpanArgs { shard: Some(2), ..Default::default() },
        );
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"args\":{\"level\":1}"));
        assert!(json.contains("\"args\":{\"shard\":2}"));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        // Sorted by start time: outer (ts 10) precedes inner (ts 12).
        assert!(json.find("outer").unwrap() < json.find("inner").unwrap());
    }

    #[test]
    fn reset_clears_ring() {
        let t = Tracer::with_capacity(4);
        t.record_closed("s", "c", 0, 1, SpanArgs::default());
        t.reset();
        assert_eq!(t.spans().0.len(), 0);
        assert_eq!(t.spans().1, 0);
    }
}
