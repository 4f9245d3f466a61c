//! Optional transfer trace: a bounded ring buffer of recent memory events.
//!
//! Debugging a caching policy means asking "what exactly crossed PCIe for
//! this batch?". When enabled, the device appends one [`TraceEvent`] per
//! transfer into a fixed-capacity ring (old events overwritten), which
//! tests and tools can drain and assert on. Disabled (capacity 0) the cost
//! is a single branch per access: the capacity lives outside the ring's
//! mutex, so [`TraceRing::record`] returns before taking the lock.

use parking_lot::Mutex;

/// One recorded memory event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Bulk DMA transfer of `bytes`.
    Dma { bytes: usize },
    /// Zero-copy read of `bytes` payload.
    ZeroCopy { bytes: usize },
    /// Unified-memory access: `faults` pages missed, `hits` pages resident.
    Unified { faults: u64, hits: u64 },
    /// Device-memory read of `bytes` (cache hit).
    DeviceRead { bytes: usize },
    /// Inter-device peer transfer of `bytes` (sharded replica maintenance).
    Peer { bytes: usize },
}

/// Fixed-capacity ring of events.
pub struct TraceRing {
    /// Immutable after construction; read without locking.
    capacity: usize,
    inner: Mutex<RingInner>,
}

struct RingInner {
    buf: Vec<TraceEvent>,
    head: usize,
    len: usize,
    total: u64,
}

impl TraceRing {
    /// Ring holding the last `capacity` events (0 = tracing disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(capacity),
                head: 0,
                len: 0,
                total: 0,
            }),
        }
    }

    /// True if events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Record an event (no-op when disabled).
    #[inline]
    pub fn record(&self, e: TraceEvent) {
        if !self.enabled() {
            return;
        }
        let cap = self.capacity;
        let mut r = self.inner.lock();
        r.total += 1;
        if r.buf.len() < cap {
            r.buf.push(e);
            r.len += 1;
        } else {
            let head = r.head;
            r.buf[head] = e;
            r.head = (head + 1) % cap;
        }
    }

    /// Drain the buffered events in arrival order and reset the ring.
    pub fn drain(&self) -> Vec<TraceEvent> {
        if !self.enabled() {
            return Vec::new();
        }
        let cap = self.capacity;
        let mut r = self.inner.lock();
        if r.buf.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(r.buf.len());
        let start = if r.buf.len() < cap { 0 } else { r.head };
        for i in 0..r.buf.len() {
            out.push(r.buf[(start + i) % r.buf.len()]);
        }
        r.buf.clear();
        r.head = 0;
        r.len = 0;
        out
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let r = TraceRing::new(0);
        assert!(!r.enabled());
        r.record(TraceEvent::Dma { bytes: 8 });
        assert!(r.drain().is_empty());
        assert_eq!(r.total_recorded(), 0);
    }

    #[test]
    fn fifo_order_within_capacity() {
        let r = TraceRing::new(4);
        for b in 1..=3usize {
            r.record(TraceEvent::ZeroCopy { bytes: b });
        }
        let ev = r.drain();
        assert_eq!(
            ev,
            vec![
                TraceEvent::ZeroCopy { bytes: 1 },
                TraceEvent::ZeroCopy { bytes: 2 },
                TraceEvent::ZeroCopy { bytes: 3 },
            ]
        );
        // Drain resets.
        assert!(r.drain().is_empty());
    }

    #[test]
    fn overflow_keeps_most_recent() {
        let r = TraceRing::new(3);
        for b in 1..=5usize {
            r.record(TraceEvent::DeviceRead { bytes: b });
        }
        let ev = r.drain();
        assert_eq!(ev.len(), 3);
        assert_eq!(
            ev,
            vec![
                TraceEvent::DeviceRead { bytes: 3 },
                TraceEvent::DeviceRead { bytes: 4 },
                TraceEvent::DeviceRead { bytes: 5 },
            ]
        );
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let r = std::sync::Arc::new(TraceRing::new(128));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.record(TraceEvent::Dma { bytes: 1 });
                    }
                });
            }
        });
        assert_eq!(r.total_recorded(), 4000);
        assert_eq!(r.drain().len(), 128);
    }

    #[test]
    fn disabled_ring_stays_empty_under_concurrent_recorders() {
        let r = TraceRing::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    for b in 0..1000usize {
                        r.record(TraceEvent::ZeroCopy { bytes: t * 1000 + b });
                        assert!(!r.enabled());
                    }
                });
            }
        });
        assert_eq!(r.total_recorded(), 0);
        assert!(r.drain().is_empty());
        assert!(r.inner.lock().buf.is_empty());
    }
}
