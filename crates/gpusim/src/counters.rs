//! Traffic counters shared by all simulated execution units.
//!
//! Every neighbor-list access adds to several counters, from every worker
//! thread at once. One shared atomic per counter would put all workers'
//! `lock xadd`s on the same cache lines; instead [`Traffic`] keeps a fixed
//! array of cache-line-aligned *stripes*, one full counter set each, and a
//! thread adds only to its own stripe. Reads sum the stripes.
//!
//! **Leases.** Stripe ids `0..EXCLUSIVE` are leased, one per thread, from a
//! process-wide pool the first time a thread adds to any `Traffic`. The
//! lease lasts for the thread's lifetime and is released by a thread-local
//! destructor, so a thread that exits frees its id for a new thread. A
//! leaseholder is the only writer of its stripe in every `Traffic`, so its
//! add is a relaxed load plus a relaxed store — no `lock`-prefixed
//! instruction. Threads that find every id leased (more live threads than
//! exclusive stripes), and adds made after a thread's lease was dropped
//! during thread exit, go to the one shared *overflow* stripe, which keeps
//! an atomic `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counter stripes: `EXCLUSIVE` leased ones plus the overflow
/// stripe.
const STRIPES: usize = 32;

/// Stripes handed out as exclusive per-thread leases.
const EXCLUSIVE: usize = STRIPES - 1;

/// The shared stripe of threads without a lease (atomic adds).
const OVERFLOW: usize = EXCLUSIVE;

/// Counters per stripe (the fields of [`TrafficSnapshot`]).
const FIELDS: usize = 15;

/// One thread's counter set, alone on its 128-byte line pair so adds from
/// different threads never share a cache line (15 × 8 B fits in 128 B).
#[derive(Default)]
#[repr(align(128))]
struct Stripe([AtomicU64; FIELDS]);

/// A pool of exclusive stripe ids: bit `i` of `taken` is set while some
/// thread holds id `i`.
struct Leases {
    taken: AtomicU64,
}

impl Leases {
    const fn new() -> Self {
        Self { taken: AtomicU64::new(0) }
    }

    /// Claim the lowest free id, or `None` when all `EXCLUSIVE` are taken.
    /// Acquire pairs with the Release in [`Lease::drop`]: the previous
    /// holder's stores to the stripe happen-before the new holder's loads,
    /// so a reused stripe continues from its exact value.
    fn acquire(&'static self) -> Lease {
        let mut taken = self.taken.load(Ordering::Acquire);
        let id = loop {
            let id = taken.trailing_ones() as usize;
            if id >= EXCLUSIVE {
                break None;
            }
            match self.taken.compare_exchange_weak(
                taken,
                taken | 1 << id,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break Some(id),
                Err(now) => taken = now,
            }
        };
        Lease { pool: self, id }
    }
}

/// One thread's claim on an exclusive stripe id (`None`: use the overflow
/// stripe). Dropping it returns the id to its pool.
struct Lease {
    pool: &'static Leases,
    id: Option<usize>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.pool.taken.fetch_and(!(1 << id), Ordering::Release);
        }
    }
}

/// The process-wide lease pool behind every [`Traffic`].
static LEASES: Leases = Leases::new();

thread_local! {
    static LEASE: Lease = LEASES.acquire();
}

/// Relaxed-ordering accumulators for every cost source in the model,
/// striped per thread. The counters are only aggregates (no inter-counter
/// invariants are read mid-run), so `Relaxed` is sufficient. An add by a
/// thread holding a lease is a plain load and store on its own stripe; a
/// thread without one adds atomically to the overflow stripe.
///
/// [`Traffic::snapshot`] is exact for every add that happens-before it —
/// in particular for all adds made by workers the caller has joined (a
/// scoped-thread or rayon join synchronizes with the workers' completion).
/// [`Traffic::reset`] must likewise not race with adds: a leaseholder's
/// add in flight could store a pre-reset sum back.
#[derive(Default)]
pub struct Traffic {
    stripes: [Stripe; STRIPES],
}

impl std::fmt::Debug for Traffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Traffic").field(&self.snapshot()).finish()
    }
}

impl Traffic {
    #[inline]
    fn add(&self, field: usize, n: u64) {
        // `try_with` fails only while this thread's lease is being torn
        // down (an add from another thread-local destructor).
        match LEASE.try_with(|lease| lease.id) {
            Ok(Some(id)) => {
                if let Some(counter) = self.counter(id, field) {
                    // Relaxed: the leaseholder is this stripe's only
                    // writer, so load + store loses nothing; readers
                    // synchronize through a join.
                    counter
                        .store(counter.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
                }
            }
            _ => {
                if let Some(counter) = self.counter(OVERFLOW, field) {
                    // Relaxed: an aggregate; readers synchronize through a
                    // join.
                    counter.fetch_add(n, Ordering::Relaxed);
                }
            }
        }
    }

    #[inline]
    fn counter(&self, stripe: usize, field: usize) -> Option<&AtomicU64> {
        self.stripes.get(stripe).and_then(|s| s.0.get(field))
    }

    /// Sum of one counter over all stripes.
    fn sum(&self, field: usize) -> u64 {
        // Relaxed: exact for adds that happen-before the call (see above).
        self.stripes.iter().filter_map(|s| s.0.get(field)).map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Zero every counter of every stripe.
    pub fn reset(&self) {
        for counter in self.stripes.iter().flat_map(|s| &s.0) {
            // Relaxed: like the adds, ordered by the caller's joins.
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// Declares the counters: stripe slot, snapshot field, and add method.
macro_rules! traffic_counters {
    ($($slot:literal: $field:ident => $method:ident),* $(,)?) => {
        impl Traffic {
            $(
                #[doc = concat!("Add to `", stringify!($field), "`.")]
                #[inline]
                pub fn $method(&self, n: u64) {
                    self.add($slot, n);
                }
            )*

            /// Capture a plain-value snapshot (the sum over all stripes).
            pub fn snapshot(&self) -> TrafficSnapshot {
                TrafficSnapshot { $($field: self.sum($slot),)* }
            }
        }
    };
}

traffic_counters! {
    0: dma_bytes => add_dma_bytes,
    1: dma_transactions => add_dma_transactions,
    2: dma_saved_bytes => add_dma_saved_bytes,
    3: zerocopy_bytes => add_zerocopy_bytes,
    4: zerocopy_transactions => add_zerocopy_transactions,
    5: um_faults => add_um_faults,
    6: um_hits => add_um_hits,
    7: device_bytes => add_device_bytes,
    8: gpu_ops => add_gpu_ops,
    9: cpu_ops => add_cpu_ops,
    10: kernel_launches => add_kernel_launches,
    11: cache_hits => add_cache_hits,
    12: cache_misses => add_cache_misses,
    13: peer_bytes => add_peer_bytes,
    14: peer_copies => add_peer_copies,
}

/// Plain-value snapshot of [`Traffic`]. Subtraction yields interval traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Bytes moved host→device (or device→host) by DMA.
    pub dma_bytes: u64,
    /// Number of DMA transactions (each pays the setup cost).
    pub dma_transactions: u64,
    /// Bytes a delta transfer plan avoided shipping relative to a full
    /// cache repack (device-resident rows reused in place).
    pub dma_saved_bytes: u64,
    /// Payload bytes read from CPU pinned memory via zero-copy.
    pub zerocopy_bytes: u64,
    /// Zero-copy line transactions (128 B each): actual PCIe traffic.
    pub zerocopy_transactions: u64,
    /// Unified-memory page faults (page cache misses).
    pub um_faults: u64,
    /// Unified-memory page-cache hits.
    pub um_hits: u64,
    /// Bytes read from device global memory (cache hits / VSGM reads).
    pub device_bytes: u64,
    /// Set-intersection element operations executed by the GPU kernel.
    pub gpu_ops: u64,
    /// Set-intersection element operations executed on the CPU baseline.
    pub cpu_ops: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Neighbor-list accesses served from the device-side cache.
    pub cache_hits: u64,
    /// Neighbor-list accesses that fell through to the CPU.
    pub cache_misses: u64,
    /// Bytes shipped over the inter-device link (replica maintenance for
    /// boundary updates in sharded execution).
    pub peer_bytes: u64,
    /// Inter-device transfer transactions (each pays the DMA setup cost).
    pub peer_copies: u64,
}

impl TrafficSnapshot {
    /// Bytes read from CPU memory by the GPU (the quantity the paper labels
    /// on the bars of Fig. 8–10): zero-copy payload + faulted UM pages.
    pub fn cpu_access_bytes(&self, page_size: usize) -> u64 {
        self.zerocopy_bytes + self.um_faults * page_size as u64
    }

    /// `(field, value)` pairs in declaration order, for data-driven export
    /// (e.g. folding interval traffic into an observability registry).
    pub fn named_fields(&self) -> [(&'static str, u64); 15] {
        [
            ("dma_bytes", self.dma_bytes),
            ("dma_transactions", self.dma_transactions),
            ("dma_saved_bytes", self.dma_saved_bytes),
            ("zerocopy_bytes", self.zerocopy_bytes),
            ("zerocopy_transactions", self.zerocopy_transactions),
            ("um_faults", self.um_faults),
            ("um_hits", self.um_hits),
            ("device_bytes", self.device_bytes),
            ("gpu_ops", self.gpu_ops),
            ("cpu_ops", self.cpu_ops),
            ("kernel_launches", self.kernel_launches),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("peer_bytes", self.peer_bytes),
            ("peer_copies", self.peer_copies),
        ]
    }

    /// Cache hit rate over neighbor-list accesses.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::ops::Sub for TrafficSnapshot {
    type Output = TrafficSnapshot;
    fn sub(self, rhs: Self) -> Self {
        Self {
            dma_bytes: self.dma_bytes - rhs.dma_bytes,
            dma_transactions: self.dma_transactions - rhs.dma_transactions,
            dma_saved_bytes: self.dma_saved_bytes - rhs.dma_saved_bytes,
            zerocopy_bytes: self.zerocopy_bytes - rhs.zerocopy_bytes,
            zerocopy_transactions: self.zerocopy_transactions - rhs.zerocopy_transactions,
            um_faults: self.um_faults - rhs.um_faults,
            um_hits: self.um_hits - rhs.um_hits,
            device_bytes: self.device_bytes - rhs.device_bytes,
            gpu_ops: self.gpu_ops - rhs.gpu_ops,
            cpu_ops: self.cpu_ops - rhs.cpu_ops,
            kernel_launches: self.kernel_launches - rhs.kernel_launches,
            cache_hits: self.cache_hits - rhs.cache_hits,
            cache_misses: self.cache_misses - rhs.cache_misses,
            peer_bytes: self.peer_bytes - rhs.peer_bytes,
            peer_copies: self.peer_copies - rhs.peer_copies,
        }
    }
}

impl std::ops::Add for TrafficSnapshot {
    type Output = TrafficSnapshot;
    /// Merge interval traffic from several devices (sharded execution sums
    /// its per-shard snapshots into one merged record).
    fn add(self, rhs: Self) -> Self {
        Self {
            dma_bytes: self.dma_bytes + rhs.dma_bytes,
            dma_transactions: self.dma_transactions + rhs.dma_transactions,
            dma_saved_bytes: self.dma_saved_bytes + rhs.dma_saved_bytes,
            zerocopy_bytes: self.zerocopy_bytes + rhs.zerocopy_bytes,
            zerocopy_transactions: self.zerocopy_transactions + rhs.zerocopy_transactions,
            um_faults: self.um_faults + rhs.um_faults,
            um_hits: self.um_hits + rhs.um_hits,
            device_bytes: self.device_bytes + rhs.device_bytes,
            gpu_ops: self.gpu_ops + rhs.gpu_ops,
            cpu_ops: self.cpu_ops + rhs.cpu_ops,
            kernel_launches: self.kernel_launches + rhs.kernel_launches,
            cache_hits: self.cache_hits + rhs.cache_hits,
            cache_misses: self.cache_misses + rhs.cache_misses,
            peer_bytes: self.peer_bytes + rhs.peer_bytes,
            peer_copies: self.peer_copies + rhs.peer_copies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_snapshot_reset() {
        let t = Traffic::default();
        t.add_zerocopy_bytes(100);
        t.add_zerocopy_transactions(1);
        t.add_gpu_ops(42);
        let s = t.snapshot();
        assert_eq!(s.zerocopy_bytes, 100);
        assert_eq!(s.gpu_ops, 42);
        t.reset();
        assert_eq!(t.snapshot(), TrafficSnapshot::default());
    }

    #[test]
    fn interval_subtraction() {
        let t = Traffic::default();
        t.add_dma_bytes(10);
        let a = t.snapshot();
        t.add_dma_bytes(5);
        t.add_um_faults(2);
        let b = t.snapshot();
        let d = b - a;
        assert_eq!(d.dma_bytes, 5);
        assert_eq!(d.um_faults, 2);
    }

    #[test]
    fn cpu_access_bytes_combines_paths() {
        let s = TrafficSnapshot { zerocopy_bytes: 1000, um_faults: 2, ..Default::default() };
        assert_eq!(s.cpu_access_bytes(4096), 1000 + 8192);
    }

    #[test]
    fn hit_rate() {
        let s = TrafficSnapshot { cache_hits: 3, cache_misses: 1, ..Default::default() };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(TrafficSnapshot::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn named_fields_cover_every_counter() {
        let s = TrafficSnapshot {
            dma_bytes: 1,
            dma_transactions: 2,
            dma_saved_bytes: 3,
            zerocopy_bytes: 4,
            zerocopy_transactions: 5,
            um_faults: 6,
            um_hits: 7,
            device_bytes: 8,
            gpu_ops: 9,
            cpu_ops: 10,
            kernel_launches: 11,
            cache_hits: 12,
            cache_misses: 13,
            peer_bytes: 14,
            peer_copies: 15,
        };
        let fields = s.named_fields();
        let values: Vec<u64> = fields.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=15).collect::<Vec<u64>>());
        let mut names: Vec<&str> = fields.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "field names must be distinct");
    }

    #[test]
    fn snapshot_addition_merges_componentwise() {
        let a = TrafficSnapshot { dma_bytes: 10, peer_bytes: 3, ..Default::default() };
        let b = TrafficSnapshot { dma_bytes: 5, peer_copies: 2, ..Default::default() };
        let s = a + b;
        assert_eq!(s.dma_bytes, 15);
        assert_eq!(s.peer_bytes, 3);
        assert_eq!(s.peer_copies, 2);
        assert_eq!(s - b, a);
    }

    #[test]
    fn parallel_accumulation_is_lossless() {
        let t = std::sync::Arc::new(Traffic::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        t.add_gpu_ops(1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().gpu_ops, 80_000);
    }

    /// Add `k` to every counter through the public API.
    fn add_all(t: &Traffic, k: u64) {
        t.add_dma_bytes(k);
        t.add_dma_transactions(k);
        t.add_dma_saved_bytes(k);
        t.add_zerocopy_bytes(k);
        t.add_zerocopy_transactions(k);
        t.add_um_faults(k);
        t.add_um_hits(k);
        t.add_device_bytes(k);
        t.add_gpu_ops(k);
        t.add_cpu_ops(k);
        t.add_kernel_launches(k);
        t.add_cache_hits(k);
        t.add_cache_misses(k);
        t.add_peer_bytes(k);
        t.add_peer_copies(k);
    }

    #[test]
    fn snapshot_after_join_is_exact_with_more_threads_than_stripes() {
        let threads = 3 * STRIPES + 1;
        let t = Traffic::default();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for i in 0..threads as u64 {
                let (t, start) = (&t, &start);
                s.spawn(move || {
                    start.wait(); // every thread is live, so stripes are shared
                    for _ in 0..2_000 {
                        add_all(t, i + 1);
                    }
                });
            }
        });
        let per_field = 2_000 * (1..=threads as u64).sum::<u64>();
        for (name, v) in t.snapshot().named_fields() {
            assert_eq!(v, per_field, "{name}");
        }
    }

    #[test]
    fn reset_zeroes_every_stripe() {
        let t = Traffic::default();
        std::thread::scope(|s| {
            for _ in 0..2 * STRIPES {
                s.spawn(|| add_all(&t, 7));
            }
        });
        add_all(&t, 1);
        assert_ne!(t.snapshot(), TrafficSnapshot::default());
        t.reset();
        for stripe in &t.stripes {
            assert!(stripe.0.iter().all(|c| c.load(Ordering::Relaxed) == 0));
        }
        assert_eq!(t.snapshot(), TrafficSnapshot::default());
        // Counting resumes from zero on the same stripes.
        add_all(&t, 2);
        assert_eq!(t.snapshot().peer_copies, 2);
    }

    #[test]
    fn stripes_sit_on_separate_cache_lines() {
        assert_eq!(std::mem::align_of::<Stripe>(), 128);
        assert_eq!(std::mem::size_of::<Stripe>(), 128);
        assert_eq!(std::mem::size_of::<Traffic>(), STRIPES * 128);
    }

    /// Lease pool private to `exiting_threads_free_their_leases`, so the
    /// other tests' threads cannot hold its ids.
    static TEST_POOL: Leases = Leases::new();

    thread_local! {
        static TEST_LEASE: Lease = TEST_POOL.acquire();
    }

    /// Run `f(i)` on `n` threads that are all live at once, join each
    /// handle explicitly (so thread-local destructors have run), and return
    /// the results in spawn order.
    fn on_live_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let all_live = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let (f, all_live) = (&f, &all_live);
                    s.spawn(move || {
                        let out = f(i);
                        all_live.wait();
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        })
    }

    #[test]
    fn exiting_threads_free_their_leases() {
        for _generation in 0..3 {
            // More live threads than ids: every id is handed out once, the
            // rest get none.
            let mut ids = on_live_threads(EXCLUSIVE + 4, |_| TEST_LEASE.with(|l| l.id));
            ids.sort_unstable();
            let (none, some) = ids.split_at(4);
            assert!(none.iter().all(Option::is_none));
            assert_eq!(some, (0..EXCLUSIVE).map(Some).collect::<Vec<_>>().as_slice());
            // Every thread exited, so every id is free again.
            assert_eq!(TEST_POOL.taken.load(Ordering::Acquire), 0);
        }
        // One thread at a time: each reuses the id its predecessor freed.
        for _ in 0..2 * EXCLUSIVE {
            let id = std::thread::spawn(|| TEST_LEASE.with(|l| l.id)).join().expect("worker");
            assert_eq!(id, Some(0));
        }
    }

    #[test]
    fn threads_without_a_lease_spill_exactly_to_the_overflow_stripe() {
        let t = Traffic::default();
        let threads = EXCLUSIVE + 9;
        // Each thread takes its lease (or none) before any thread exits, so
        // the leased ids are distinct.
        let took = std::sync::Barrier::new(threads);
        let ids = on_live_threads(threads, |i| {
            t.add_gpu_ops(0);
            took.wait();
            for _ in 0..1_000 {
                add_all(&t, i as u64 + 1);
            }
            LEASE.with(|l| l.id)
        });
        let spilled: Vec<u64> =
            ids.iter().zip(1u64..).filter(|(id, _)| id.is_none()).map(|(_, k)| k).collect();
        assert!(spilled.len() >= threads - EXCLUSIVE, "at most EXCLUSIVE leases exist");
        let field =
            |stripe: usize| t.stripes[stripe].0.each_ref().map(|c| c.load(Ordering::Relaxed));
        assert_eq!(field(OVERFLOW), [1_000 * spilled.iter().sum::<u64>(); FIELDS]);
        for (id, k) in ids.iter().zip(1u64..) {
            if let Some(id) = *id {
                assert_eq!(field(id), [1_000 * k; FIELDS], "stripe {id}");
            }
        }
        let total = 1_000 * (1..=threads as u64).sum::<u64>();
        assert!(t.snapshot().named_fields().iter().all(|&(_, v)| v == total));
    }

    #[test]
    fn generations_of_threads_snapshot_exactly() {
        let t = Traffic::default();
        let mut expect = 0;
        for generation in 1..=3u64 {
            on_live_threads(40, |i| {
                for _ in 0..500 {
                    add_all(&t, generation * (i as u64 + 1));
                }
            });
            expect += 500 * generation * (1..=40).sum::<u64>();
            for (name, v) in t.snapshot().named_fields() {
                assert_eq!(v, expect, "{name} after generation {generation}");
            }
        }
    }

    /// Adds once to its `Traffic` when the thread's locals are torn down,
    /// recording whether the thread's lease was already gone.
    struct AddOnExit(std::cell::Cell<Option<&'static Traffic>>);

    /// Adds made by `AddOnExit` after the lease was dropped.
    static ADDS_WITHOUT_LEASE: AtomicU64 = AtomicU64::new(0);

    impl Drop for AddOnExit {
        fn drop(&mut self) {
            if let Some(t) = self.0.get() {
                if LEASE.try_with(|_| ()).is_err() {
                    ADDS_WITHOUT_LEASE.fetch_add(1, Ordering::Relaxed);
                }
                t.add_gpu_ops(1);
            }
        }
    }

    thread_local! {
        static ON_EXIT: AddOnExit = const { AddOnExit(std::cell::Cell::new(None)) };
    }

    #[test]
    fn adds_during_thread_exit_are_counted() {
        let t: &'static Traffic = Box::leak(Box::default());
        for _ in 0..8 {
            std::thread::spawn(move || {
                // Registered before the lease, so (on platforms that tear
                // thread locals down in reverse order) dropped after it.
                ON_EXIT.with(|e| e.0.set(Some(t)));
                t.add_gpu_ops(1);
            })
            .join()
            .expect("worker panicked");
        }
        assert_eq!(t.snapshot().gpu_ops, 16);
        let overflow = t.stripes[OVERFLOW].0[8].load(Ordering::Relaxed);
        assert!(overflow >= ADDS_WITHOUT_LEASE.load(Ordering::Relaxed));
    }
}
