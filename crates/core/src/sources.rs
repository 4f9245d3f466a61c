//! Traffic-recording neighbor sources — one per GPU access policy.
//!
//! The enumerator is identical for every engine; these sources decide where
//! each neighbor list is read from and charge the simulated device
//! accordingly:
//!
//! * [`ZeroCopySource`] — the ZP baseline: every list is read from CPU
//!   pinned memory in 128 B lines;
//! * [`UnifiedSource`] — the UM baseline: lists live in managed memory,
//!   reads fault 4 KiB pages through the device page cache;
//! * [`CachedSource`] — GCSM (and VSGM/Naive, which differ only in *what*
//!   is cached): look the vertex up in the DCSR; hits read device memory,
//!   misses fall back to zero-copy (Sec. V-C). The device charge is the
//!   kernel's binary search of `rowidx` (`log2(len)` ops); the host reads
//!   the row from [`Dcsr::find`]'s index in one load.

use crate::addr::AddrMap;
use gcsm_cache::Dcsr;
use gcsm_gpusim::{AccessPath, Device, GpuConfig};
use gcsm_graph::{DynamicGraph, Label, NeighborView, VertexId};
use gcsm_matcher::{NeighborSource, ReadTallies};
use gcsm_pattern::ViewSel;

const W: usize = std::mem::size_of::<u32>();

/// Payload bytes of a view read: the old view reads the original prefix,
/// the new view reads the whole raw list (prefix + appended tail).
#[inline]
fn view_bytes(graph: &DynamicGraph, v: VertexId, sel: ViewSel) -> usize {
    match sel {
        ViewSel::Old => graph.old_degree(v) * W,
        ViewSel::New => graph.raw_list(v).0.len() * W,
    }
}

#[inline]
fn dyn_view(graph: &DynamicGraph, v: VertexId, sel: ViewSel) -> NeighborView<'_> {
    match sel {
        ViewSel::Old => graph.old_view(v),
        ViewSel::New => graph.new_view(v),
    }
}

/// ZP: all neighbor lists read over PCIe with zero-copy.
pub struct ZeroCopySource<'a> {
    pub graph: &'a DynamicGraph,
    pub device: &'a Device,
}

impl NeighborSource for ZeroCopySource<'_> {
    #[inline]
    fn view(&self, v: VertexId, sel: ViewSel) -> NeighborView<'_> {
        self.device.read_list(AccessPath::ZeroCopy, 0, view_bytes(self.graph, v, sel));
        dyn_view(self.graph, v, sel)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        self.graph.label(v)
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn max_degree(&self) -> usize {
        self.graph.max_degree_bound()
    }
}

/// UM: neighbor lists live in managed memory; accesses fault pages.
pub struct UnifiedSource<'a> {
    pub graph: &'a DynamicGraph,
    pub device: &'a Device,
    pub addr: &'a AddrMap,
}

impl NeighborSource for UnifiedSource<'_> {
    #[inline]
    fn view(&self, v: VertexId, sel: ViewSel) -> NeighborView<'_> {
        self.device.read_list(
            AccessPath::UnifiedMemory,
            self.addr.addr(v),
            view_bytes(self.graph, v, sel),
        );
        dyn_view(self.graph, v, sel)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        self.graph.label(v)
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn max_degree(&self) -> usize {
        self.graph.max_degree_bound()
    }
}

/// GCSM/VSGM/Naive: DCSR cache in device memory with zero-copy fallback.
pub struct CachedSource<'a> {
    pub graph: &'a DynamicGraph,
    pub device: &'a Device,
    pub dcsr: &'a Dcsr,
}

impl CachedSource<'_> {
    /// The per-read rule of Sec. V-C: charge `reads` reads of `(v, sel)` to
    /// `sink` and return `v`'s cache row. Every read pays the kernel's
    /// `rowidx` binary search (`log2(len)` ops, charged as device compute;
    /// `find` itself is an O(1) host index read with the same result). A
    /// hit reads the row from device memory, a miss falls back to
    /// zero-copy. [`NeighborSource::view`] charges one read through here
    /// and [`Self::charge_tallied`] charges counted reads, so the two paths
    /// cannot drift.
    #[inline]
    fn charge<K: ChargeSink>(
        &self,
        v: VertexId,
        sel: ViewSel,
        reads: u64,
        sink: &mut K,
    ) -> Option<usize> {
        let lookup_ops = (usize::BITS - self.dcsr.len().max(1).leading_zeros()) as u64;
        sink.gpu_ops(lookup_ops * reads);
        let row = self.dcsr.find(v);
        match row {
            Some(row) => {
                let bytes = match sel {
                    ViewSel::Old => {
                        let (prefix, _) = self.dcsr.segments(row);
                        prefix.len() * W
                    }
                    ViewSel::New => self.dcsr.row_bytes(row),
                };
                sink.lists(true, bytes, reads);
            }
            None => sink.lists(false, view_bytes(self.graph, v, sel), reads),
        }
        row
    }

    /// Charge every read counted in `tallies` (which are drained): the
    /// device ends up charged as if each read had gone through
    /// [`NeighborSource::view`]. Without tracing each tally's charges are
    /// summed on the host — one tally per pool task when `parallel` is set
    /// — and added once; with tracing every read is replayed, so each
    /// records its event, grouped per (vertex, view) rather than in read
    /// order.
    pub fn charge_tallied(&self, tallies: &mut ReadTallies, parallel: bool) {
        if self.device.trace().enabled() {
            let mut device = self.device;
            tallies.drain(|v, sel, reads| {
                self.charge(v, sel, reads, &mut device);
            });
            return;
        }
        let config = *self.device.config();
        let sums = tallies.drain_each(
            parallel,
            || Summed::new(config),
            |sum, tally| {
                tally.drain(|v, sel, reads| {
                    self.charge(v, sel, reads, sum);
                });
            },
        );
        for sum in sums {
            sum.post(self.device);
        }
    }
}

/// Receives the charges of [`CachedSource`]'s per-read rule.
trait ChargeSink {
    /// `n` device ops.
    fn gpu_ops(&mut self, n: u64);
    /// `n` cache lookups that each read a `bytes`-byte list: from the
    /// device cache on a hit, over zero-copy on a miss.
    fn lists(&mut self, hit: bool, bytes: usize, n: u64);
}

impl ChargeSink for &Device {
    #[inline]
    fn gpu_ops(&mut self, n: u64) {
        Device::gpu_ops(self, n);
    }

    #[inline]
    fn lists(&mut self, hit: bool, bytes: usize, n: u64) {
        self.record_cache_lookups(hit, n);
        let path = if hit { AccessPath::DeviceCache } else { AccessPath::ZeroCopy };
        for _ in 0..n {
            self.read_list(path, 0, bytes);
        }
    }
}

/// Charges summed on the host, then added to the device once.
struct Summed {
    config: GpuConfig,
    gpu_ops: u64,
    hits: u64,
    misses: u64,
    device_bytes: u64,
    zerocopy_bytes: u64,
    zerocopy_transactions: u64,
}

impl ChargeSink for Summed {
    #[inline]
    fn gpu_ops(&mut self, n: u64) {
        self.gpu_ops += n;
    }

    #[inline]
    fn lists(&mut self, hit: bool, bytes: usize, n: u64) {
        if hit {
            self.hits += n;
            self.device_bytes += bytes as u64 * n;
        } else {
            self.misses += n;
            self.zerocopy_bytes += bytes as u64 * n;
            self.zerocopy_transactions += self.config.zerocopy_transactions(bytes) * n;
        }
    }
}

impl Summed {
    fn new(config: GpuConfig) -> Self {
        let (gpu_ops, hits, misses, device_bytes, zerocopy_bytes, zerocopy_transactions) =
            Default::default();
        Self { config, gpu_ops, hits, misses, device_bytes, zerocopy_bytes, zerocopy_transactions }
    }

    fn post(&self, device: &Device) {
        let traffic = device.traffic();
        traffic.add_gpu_ops(self.gpu_ops);
        traffic.add_cache_hits(self.hits);
        traffic.add_cache_misses(self.misses);
        traffic.add_device_bytes(self.device_bytes);
        traffic.add_zerocopy_bytes(self.zerocopy_bytes);
        traffic.add_zerocopy_transactions(self.zerocopy_transactions);
    }
}

impl NeighborSource for CachedSource<'_> {
    #[inline]
    fn view(&self, v: VertexId, sel: ViewSel) -> NeighborView<'_> {
        let mut device = self.device;
        match self.charge(v, sel, 1, &mut device) {
            Some(row) => self.dcsr.view(row, matches!(sel, ViewSel::Old)),
            None => dyn_view(self.graph, v, sel),
        }
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        self.graph.label(v)
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn max_degree(&self) -> usize {
        self.graph.max_degree_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcsm_gpusim::GpuConfig;
    use gcsm_graph::{CsrGraph, EdgeUpdate};

    fn sealed_graph() -> DynamicGraph {
        let g0 = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let mut g = DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.apply(EdgeUpdate::insert(3, 4));
        g.apply(EdgeUpdate::delete(0, 2));
        g.seal_batch();
        g
    }

    #[test]
    fn zero_copy_source_charges_pcie() {
        let g = sealed_graph();
        let d = Device::new(GpuConfig::default());
        let s = ZeroCopySource { graph: &g, device: &d };
        let view = s.view(2, ViewSel::New);
        assert_eq!(view.to_vec(), vec![1, 3]);
        let t = d.snapshot();
        assert_eq!(t.zerocopy_bytes, 3 * 4); // raw list of 2: [0(ts),1,3]
        assert_eq!(t.zerocopy_transactions, 1);
    }

    #[test]
    fn unified_source_faults_pages() {
        let g = sealed_graph();
        let d = Device::new(GpuConfig::default());
        let addr = AddrMap::build(&g);
        let s = UnifiedSource { graph: &g, device: &d, addr: &addr };
        s.view(0, ViewSel::Old);
        s.view(0, ViewSel::Old); // second access hits the page cache
        let t = d.snapshot();
        assert_eq!(t.um_faults, 1);
        assert_eq!(t.um_hits, 1);
    }

    #[test]
    fn cached_source_hits_device_and_misses_fall_back() {
        let g = sealed_graph();
        let d = Device::new(GpuConfig::default());
        let dcsr = Dcsr::pack(&g, &[2, 3]);
        d.dma(dcsr.bytes());
        let s = CachedSource { graph: &g, device: &d, dcsr: &dcsr };

        let hit = s.view(2, ViewSel::New);
        assert_eq!(hit.to_vec(), vec![1, 3]);
        let miss = s.view(0, ViewSel::New);
        assert_eq!(miss.to_vec(), vec![1]);

        let t = d.snapshot();
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.cache_misses, 1);
        assert!(t.device_bytes > 0);
        assert!(t.zerocopy_bytes > 0);
    }

    #[test]
    fn cached_views_equal_direct_views() {
        let g = sealed_graph();
        let d = Device::new(GpuConfig::default());
        let all: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let dcsr = Dcsr::pack(&g, &all);
        let s = CachedSource { graph: &g, device: &d, dcsr: &dcsr };
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(s.view(v, ViewSel::Old).to_vec(), g.old_view(v).to_vec());
            assert_eq!(s.view(v, ViewSel::New).to_vec(), g.new_view(v).to_vec());
        }
        assert_eq!(d.snapshot().cache_misses, 0);
    }
}
