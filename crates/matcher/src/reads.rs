//! Per-(vertex, view) read counts of a launch, gathered before the reads
//! can be charged.
//!
//! A traffic-recording source charges each view read as it happens, which
//! needs the device cache to exist already. A host pass that walks the
//! execution tree before the cache is chosen instead counts the reads in a
//! [`ReadTally`] and charges the counts afterwards: the device charge of a
//! read depends only on the vertex, the view and the cache, so `n` reads
//! charged at once cost what `n` reads charged one by one do.
//!
//! A tally is a dense `[old, new]` pair of 16-bit counters per vertex plus
//! the list of vertices it touched, so a read is one increment and draining
//! costs O(touched); a count past 16 bits moves to a spill list. It belongs to one worker at a time: [`ReadTallies`] leases
//! tallies to pool blocks and keeps them across launches, so a warm pool
//! allocates nothing and holds at most one tally per concurrently running
//! block.

use gcsm_graph::VertexId;
use gcsm_pattern::ViewSel;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// One worker's read counts.
#[derive(Debug, Default)]
pub struct ReadTally {
    /// `counts[v] = [old-view reads, new-view reads]`. Narrow, to keep a
    /// tally small; a count that outgrows it moves to `spilled`.
    counts: Vec<[u16; 2]>,
    /// Vertices with a nonzero pair, in first-read order.
    touched: Vec<VertexId>,
    /// Counts moved out of a counter that would have overflowed.
    spilled: Vec<(VertexId, ViewSel, u64)>,
}

impl ReadTally {
    /// Count one read of `(v, sel)`.
    #[inline]
    pub fn record(&mut self, v: VertexId, sel: ViewSel) {
        self.add(v, sel, 1);
    }

    /// Count `n` reads of `(v, sel)`.
    #[inline]
    pub fn add(&mut self, v: VertexId, sel: ViewSel, n: u64) {
        let i = v as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, [0; 2]);
        }
        let Some(pair) = self.counts.get_mut(i) else { return };
        if *pair == [0; 2] {
            if n == 0 {
                return;
            }
            self.touched.push(v);
        }
        let [old, new] = pair;
        let slot = match sel {
            ViewSel::Old => old,
            ViewSel::New => new,
        };
        let total = u64::from(*slot) + n;
        match u16::try_from(total) {
            Ok(total) => *slot = total,
            Err(_) => {
                self.spilled.push((v, sel, total));
                *slot = 0;
            }
        }
    }

    /// True when no read is counted.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty() && self.spilled.is_empty()
    }

    /// Hand every counted `(vertex, view, reads)` to `charge` and reset the
    /// tally (keeping its allocation).
    pub fn drain(&mut self, mut charge: impl FnMut(VertexId, ViewSel, u64)) {
        for &v in &self.touched {
            if let Some(pair) = self.counts.get_mut(v as usize) {
                let [old, new] = std::mem::take(pair);
                if old > 0 {
                    charge(v, ViewSel::Old, old.into());
                }
                if new > 0 {
                    charge(v, ViewSel::New, new.into());
                }
            }
        }
        self.touched.clear();
        for (v, sel, n) in self.spilled.drain(..) {
            charge(v, sel, n);
        }
    }
}

/// A pool of [`ReadTally`]s leased to workers and kept across launches.
#[derive(Debug, Default)]
pub struct ReadTallies {
    free: Mutex<Vec<ReadTally>>,
}

impl ReadTallies {
    /// Lease a tally with counters for vertices `0..vertices`; the lease
    /// returns it to the pool when dropped.
    pub fn lease(&self, vertices: usize) -> TallyLease<'_> {
        let tally = self.free.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let mut tally = tally.unwrap_or_default();
        if tally.counts.len() < vertices {
            tally.counts.resize(vertices, [0; 2]);
        }
        TallyLease { pool: self, tally }
    }

    /// Drain every tally in the pool (see [`ReadTally::drain`]). Reads held
    /// by an outstanding lease are not seen.
    pub fn drain(&mut self, mut charge: impl FnMut(VertexId, ViewSel, u64)) {
        for tally in self.free.get_mut().unwrap_or_else(PoisonError::into_inner) {
            tally.drain(&mut charge);
        }
    }

    /// Drain the pooled tallies one per pool task, on the rayon pool when
    /// `parallel` is set: `per_tally` gets a fresh accumulator from `init`
    /// and the tally to drain, and the accumulators come back in pool
    /// order.
    pub fn drain_each<A: Send>(
        &mut self,
        parallel: bool,
        init: impl Fn() -> A + Sync,
        per_tally: impl Fn(&mut A, &mut ReadTally) + Sync,
    ) -> Vec<A> {
        let tallies = self.free.get_mut().unwrap_or_else(PoisonError::into_inner);
        let run = |tally: &mut ReadTally| {
            let mut acc = init();
            per_tally(&mut acc, tally);
            acc
        };
        if parallel {
            tallies.par_iter_mut().map(run).collect()
        } else {
            tallies.iter_mut().map(run).collect()
        }
    }

    /// Number of tallies the pool holds (none may be on loan).
    pub fn pooled(&mut self) -> usize {
        self.free.get_mut().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// A tally on loan from a [`ReadTallies`] pool.
#[derive(Debug)]
pub struct TallyLease<'a> {
    pool: &'a ReadTallies,
    tally: ReadTally,
}

impl std::ops::Deref for TallyLease<'_> {
    type Target = ReadTally;

    fn deref(&self) -> &ReadTally {
        &self.tally
    }
}

impl std::ops::DerefMut for TallyLease<'_> {
    fn deref_mut(&mut self) -> &mut ReadTally {
        &mut self.tally
    }
}

impl Drop for TallyLease<'_> {
    fn drop(&mut self) {
        let tally = std::mem::take(&mut self.tally);
        self.pool.free.lock().unwrap_or_else(PoisonError::into_inner).push(tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(t: &mut ReadTally) -> Vec<(VertexId, ViewSel, u64)> {
        let mut out = Vec::new();
        t.drain(|v, sel, n| out.push((v, sel, n)));
        out.sort_by_key(|&(v, sel, _)| (v, sel == ViewSel::New));
        out
    }

    #[test]
    fn counts_per_vertex_and_view_then_resets() {
        let mut t = ReadTally::default();
        for (v, sel) in [(3, ViewSel::New), (1, ViewSel::Old), (3, ViewSel::New), (3, ViewSel::Old)]
        {
            t.record(v, sel);
        }
        assert_eq!(
            drained(&mut t),
            [(1, ViewSel::Old, 1), (3, ViewSel::Old, 1), (3, ViewSel::New, 2)]
        );
        assert!(t.is_empty());
        assert!(drained(&mut t).is_empty());
        t.record(1, ViewSel::New);
        assert_eq!(drained(&mut t), [(1, ViewSel::New, 1)]);
    }

    #[test]
    fn overflowing_counter_spills() {
        let mut t = ReadTally::default();
        t.record(0, ViewSel::Old);
        t.counts[0][0] = u16::MAX;
        t.record(0, ViewSel::Old);
        t.record(0, ViewSel::Old);
        t.add(0, ViewSel::New, 5);
        t.add(0, ViewSel::New, u64::from(u32::MAX));
        t.add(1, ViewSel::New, 0);
        let entries = drained(&mut t);
        let sum = |sel| -> u64 { entries.iter().filter(|e| e.1 == sel).map(|e| e.2).sum() };
        assert_eq!(sum(ViewSel::Old), u64::from(u16::MAX) + 2);
        assert_eq!(sum(ViewSel::New), u64::from(u32::MAX) + 5);
        assert!(entries.iter().all(|e| e.0 == 0), "a zero add touched nothing");
        assert!(t.is_empty());
    }

    #[test]
    fn pool_reuses_returned_tallies() {
        let mut pool = ReadTallies::default();
        {
            let (mut a, mut b) = (pool.lease(4), pool.lease(4));
            a.record(2, ViewSel::New);
            b.record(2, ViewSel::New);
        }
        assert_eq!(pool.pooled(), 2);
        drop(pool.lease(4));
        assert_eq!(pool.pooled(), 2);
        let mut total = 0;
        pool.drain(|v, sel, n| {
            assert_eq!((v, sel), (2, ViewSel::New));
            total += n;
        });
        assert_eq!(total, 2);
        pool.drain(|_, _, _| panic!("drained twice"));
    }
}
