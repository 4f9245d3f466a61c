//! Open-loop pacing: update `i` is due at `start + i / rate`, fixed up
//! front. A stalled consumer makes the generator late but never moves the
//! schedule, so once the stall clears the backlog is sent back to back and
//! every result is timed from its update's due time.
//!
//! The generator wakes at most once per tick and then sends every item due
//! by the end of it, so an item leaves up to one tick after its due time
//! (counted in its result latency and in the reported lag). Waking once
//! per item, every 0.33 ms at 3000 items/s, preempted the system's worker
//! threads on a 2-core host and added about 10 % to their batch times.

use std::time::{Duration, Instant};

/// A fixed-rate schedule anchored at `start`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: f64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "rate must be positive");
        Self { start, rate_per_s }
    }

    /// When item `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// What the generator observed while sending.
#[derive(Clone, Debug, Default)]
pub struct PaceReport {
    /// Items handed to the sink.
    pub sent: u64,
    /// Items the sink refused (session gone).
    pub refused: u64,
    /// Largest lateness of a send against its due time, seconds.
    pub max_lag_s: f64,
    /// Total seconds spent inside the sink (blocked on backpressure).
    pub sink_s: f64,
}

/// Send `count` items on `schedule`: sleep until the end of the `tick`
/// in which each falls due (never re-anchoring), call `sink(i)`, and
/// record lateness and sink time. `sink` returns `false` when the item was
/// not accepted.
pub fn run(
    schedule: Schedule,
    count: u64,
    tick: Duration,
    mut sink: impl FnMut(u64) -> bool,
) -> PaceReport {
    let mut rep = PaceReport::default();
    let tick_ns = tick.as_nanos().max(1);
    for i in 0..count {
        let due = schedule.due(i);
        let now = Instant::now();
        if due > now {
            let ticks = (due - schedule.start).as_nanos().div_ceil(tick_ns);
            let wake = schedule.start + Duration::from_nanos((ticks * tick_ns) as u64);
            std::thread::sleep(wake - now);
        }
        let sent_at = Instant::now();
        rep.max_lag_s = rep.max_lag_s.max(sent_at.saturating_duration_since(due).as_secs_f64());
        if sink(i) {
            rep.sent += 1;
        } else {
            rep.refused += 1;
        }
        rep.sink_s += sent_at.elapsed().as_secs_f64();
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_consumer_makes_the_generator_late_without_moving_the_schedule() {
        // 200/s: item i is due at 5 ms × i. The sink stalls 60 ms on item 2,
        // so items 3.. are late until the backlog clears around 70 ms.
        let (rate, count, stall) = (200.0, 20u64, Duration::from_millis(60));
        let schedule = Schedule::new(Instant::now(), rate);
        let mut sent_at = Vec::new();
        let rep = run(schedule, count, Duration::from_millis(1), |i| {
            sent_at.push(Instant::now());
            if i == 2 {
                std::thread::sleep(stall);
            }
            true
        });
        assert_eq!((rep.sent, rep.refused), (count, 0));
        // Item 3 was due at 15 ms and waited for the stall to end (~70 ms).
        assert!(rep.max_lag_s >= 0.050, "max lag {} s", rep.max_lag_s);
        assert!(rep.sink_s >= stall.as_secs_f64());
        for (i, &t) in sent_at.iter().enumerate() {
            assert!(t >= schedule.due(i as u64), "item {i} sent before it was due");
        }
        // A re-anchored schedule would send the last item ~60 ms after its
        // original due time; the fixed one sends it on time.
        let last = count - 1;
        let late = sent_at[last as usize].saturating_duration_since(schedule.due(last));
        assert!(late < Duration::from_millis(30), "last item {late:?} late: schedule moved");
    }
}
