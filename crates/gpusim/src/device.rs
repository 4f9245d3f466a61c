//! The simulated device: traffic recording plus the kernel executor.

use crate::config::GpuConfig;
use crate::counters::{Traffic, TrafficSnapshot};
use crate::pagecache::PageCache;
use crate::trace::{TraceEvent, TraceRing};
use std::sync::Arc;

/// Which path a neighbor-list access took. The matching engines decide the
/// path (cache lookup result, engine policy); the device records its cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// Served from the DCSR cache in device global memory.
    DeviceCache,
    /// Zero-copy read from CPU pinned memory (128 B lines).
    ZeroCopy,
    /// Unified-memory access (page faults on cache misses).
    UnifiedMemory,
    /// Host-resident access by the CPU baselines (no PCIe traffic; costed
    /// with `cpu_op` compute only).
    HostCpu,
}

/// The simulated GPU. Cheap to clone via `Arc`; all counters are shared.
pub struct Device {
    config: GpuConfig,
    traffic: Arc<Traffic>,
    um_cache: Arc<PageCache>,
    trace: Arc<TraceRing>,
}

impl Device {
    /// New device with the given hardware model (tracing disabled).
    pub fn new(config: GpuConfig) -> Self {
        Self::with_trace(config, 0)
    }

    /// New device recording the last `trace_capacity` memory events (see
    /// [`crate::trace`]).
    pub fn with_trace(config: GpuConfig, trace_capacity: usize) -> Self {
        let pages = config.um_cache_bytes / config.um_page;
        Self {
            config,
            traffic: Arc::new(Traffic::default()),
            um_cache: Arc::new(PageCache::new(pages)),
            trace: Arc::new(TraceRing::new(trace_capacity)),
        }
    }

    /// The transfer trace (empty ring when tracing is disabled).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The hardware model in effect.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Shared traffic counters.
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Snapshot current counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.traffic.snapshot()
    }

    /// Reset counters and the UM page cache.
    pub fn reset(&self) {
        self.traffic.reset();
        self.um_cache.clear();
    }

    // ------------------------------------------------------------------
    // Transfers
    // ------------------------------------------------------------------

    /// One bulk DMA transfer of `bytes` (host→device or back).
    pub fn dma(&self, bytes: usize) {
        self.traffic.add_dma_transactions(1);
        self.traffic.add_dma_bytes(bytes as u64);
        self.trace.record(TraceEvent::Dma { bytes });
    }

    /// One bulk DMA transfer under a delta plan: only `shipped` bytes cross
    /// PCIe, while `saved` bytes of the full repack stayed device resident.
    /// Charged like [`Self::dma`] (one transaction of `shipped` bytes);
    /// `saved` lands in the `dma_saved_bytes` counter for accounting.
    pub fn dma_delta(&self, shipped: usize, saved: usize) {
        self.traffic.add_dma_transactions(1);
        self.traffic.add_dma_bytes(shipped as u64);
        self.traffic.add_dma_saved_bytes(saved as u64);
        self.trace.record(TraceEvent::Dma { bytes: shipped });
    }

    /// One inter-device transfer of `bytes` over the peer link (sharded
    /// execution mirrors boundary updates to the replicating shard's
    /// device). Charged like a DMA transaction but accounted separately so
    /// the sharding layer's communication volume stays visible.
    pub fn peer_copy(&self, bytes: usize) {
        self.traffic.add_peer_copies(1);
        self.traffic.add_peer_bytes(bytes as u64);
        self.trace.record(TraceEvent::Peer { bytes });
    }

    /// Record a neighbor-list read of `bytes` through `path`.
    ///
    /// `addr` is the list's virtual base address in the unified address
    /// space; it is only used for the UM page model. Returns nothing — costs
    /// are derived from the counters afterwards.
    #[inline]
    pub fn read_list(&self, path: AccessPath, addr: u64, bytes: usize) {
        match path {
            AccessPath::DeviceCache => {
                self.traffic.add_device_bytes(bytes as u64);
                self.trace.record(TraceEvent::DeviceRead { bytes });
            }
            AccessPath::ZeroCopy => {
                self.traffic.add_zerocopy_bytes(bytes as u64);
                self.traffic.add_zerocopy_transactions(self.config.zerocopy_transactions(bytes));
                self.trace.record(TraceEvent::ZeroCopy { bytes });
            }
            AccessPath::UnifiedMemory => {
                if bytes == 0 {
                    return;
                }
                let page = self.config.um_page as u64;
                let first = addr / page;
                let last = (addr + bytes as u64 - 1) / page;
                let faults = self.um_cache.access_range(first, last);
                self.traffic.add_um_faults(faults);
                self.traffic.add_um_hits(last - first + 1 - faults);
                self.trace.record(TraceEvent::Unified { faults, hits: last - first + 1 - faults });
            }
            AccessPath::HostCpu => {}
        }
    }

    /// Record `n` cache lookups with the same outcome (for hit-rate
    /// reporting).
    #[inline]
    pub fn record_cache_lookups(&self, hit: bool, n: u64) {
        if hit {
            self.traffic.add_cache_hits(n);
        } else {
            self.traffic.add_cache_misses(n);
        }
    }

    /// Record `n` set-intersection element operations on the GPU.
    #[inline]
    pub fn gpu_ops(&self, n: u64) {
        self.traffic.add_gpu_ops(n);
    }

    /// Record `n` set-intersection element operations on the CPU.
    #[inline]
    pub fn cpu_ops(&self, n: u64) {
        self.traffic.add_cpu_ops(n);
    }

    // ------------------------------------------------------------------
    // Kernel execution
    // ------------------------------------------------------------------

    /// Launch a "kernel": run `f(i)` for every `i in 0..items` on the rayon
    /// pool. Work items map to thread blocks; the pool's threads claim
    /// contiguous blocks of items dynamically, standing in for STMatch's
    /// inter-block stealing. Charges one launch overhead.
    pub fn launch<F>(&self, items: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        use rayon::prelude::*;
        self.traffic.add_kernel_launches(1);
        #[allow(clippy::redundant_closure)] // by-ref: F need not be Send
        (0..items).into_par_iter().for_each(|i| f(i));
    }

    /// Sequential launch (deterministic; used by tests and by runs where
    /// reproducible access ordering matters, e.g. the UM page-cache model).
    pub fn launch_seq<F>(&self, items: usize, mut f: F)
    where
        F: FnMut(usize),
    {
        self.traffic.add_kernel_launches(1);
        for i in 0..items {
            f(i);
        }
    }
}

impl Clone for Device {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            traffic: Arc::clone(&self.traffic),
            um_cache: Arc::clone(&self.um_cache),
            trace: Arc::clone(&self.trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(GpuConfig::default())
    }

    #[test]
    fn dma_counts() {
        let d = dev();
        d.dma(1000);
        d.dma(24);
        let s = d.snapshot();
        assert_eq!(s.dma_transactions, 2);
        assert_eq!(s.dma_bytes, 1024);
    }

    #[test]
    fn zero_copy_line_granularity() {
        let d = dev();
        d.read_list(AccessPath::ZeroCopy, 0, 200);
        let s = d.snapshot();
        assert_eq!(s.zerocopy_bytes, 200);
        assert_eq!(s.zerocopy_transactions, 2); // ceil(200/128)
    }

    #[test]
    fn um_faults_then_hits() {
        let d = dev();
        d.read_list(AccessPath::UnifiedMemory, 0, 8192); // 2 pages, both faults
        d.read_list(AccessPath::UnifiedMemory, 100, 100); // page 0 resident
        let s = d.snapshot();
        assert_eq!(s.um_faults, 2);
        assert_eq!(s.um_hits, 1);
    }

    #[test]
    fn um_zero_bytes_is_free() {
        let d = dev();
        d.read_list(AccessPath::UnifiedMemory, 4096, 0);
        assert_eq!(d.snapshot().um_faults, 0);
    }

    #[test]
    fn device_and_host_paths() {
        let d = dev();
        d.read_list(AccessPath::DeviceCache, 0, 64);
        d.read_list(AccessPath::HostCpu, 0, 64);
        let s = d.snapshot();
        assert_eq!(s.device_bytes, 64);
        assert_eq!(s.zerocopy_bytes, 0);
    }

    #[test]
    fn launch_runs_every_item_in_parallel() {
        let d = dev();
        let hits = std::sync::atomic::AtomicU64::new(0);
        d.launch(1000, |_| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1000);
        assert_eq!(d.snapshot().kernel_launches, 1);
    }

    #[test]
    fn peer_copy_counts_bytes_and_transactions() {
        let d = Device::with_trace(GpuConfig::default(), 8);
        d.peer_copy(512);
        d.peer_copy(64);
        let s = d.snapshot();
        assert_eq!(s.peer_copies, 2);
        assert_eq!(s.peer_bytes, 576);
        assert_eq!(s.dma_bytes, 0, "peer traffic must not pollute DMA");
        assert_eq!(
            d.trace().drain(),
            vec![
                crate::trace::TraceEvent::Peer { bytes: 512 },
                crate::trace::TraceEvent::Peer { bytes: 64 },
            ]
        );
    }

    #[test]
    fn dma_delta_charges_shipped_and_records_saved() {
        let d = Device::with_trace(GpuConfig::default(), 8);
        d.dma_delta(100, 300);
        let s = d.snapshot();
        assert_eq!(s.dma_bytes, 100);
        assert_eq!(s.dma_transactions, 1);
        assert_eq!(s.dma_saved_bytes, 300);
        assert_eq!(d.trace().drain(), vec![crate::trace::TraceEvent::Dma { bytes: 100 }]);
    }

    #[test]
    fn reset_clears_traffic_and_page_cache() {
        let d = dev();
        d.read_list(AccessPath::UnifiedMemory, 0, 10);
        d.reset();
        assert_eq!(d.snapshot(), TrafficSnapshot::default());
        d.read_list(AccessPath::UnifiedMemory, 0, 10);
        assert_eq!(d.snapshot().um_faults, 1); // faulted again: cache was cleared
    }

    #[test]
    fn trace_records_transfers_when_enabled() {
        let d = Device::with_trace(GpuConfig::default(), 8);
        d.dma(100);
        d.read_list(AccessPath::ZeroCopy, 0, 64);
        d.read_list(AccessPath::DeviceCache, 0, 32);
        let ev = d.trace().drain();
        assert_eq!(
            ev,
            vec![
                crate::trace::TraceEvent::Dma { bytes: 100 },
                crate::trace::TraceEvent::ZeroCopy { bytes: 64 },
                crate::trace::TraceEvent::DeviceRead { bytes: 32 },
            ]
        );
    }

    #[test]
    fn clone_shares_counters() {
        let d = dev();
        let d2 = d.clone();
        d2.gpu_ops(5);
        assert_eq!(d.snapshot().gpu_ops, 5);
    }
}
