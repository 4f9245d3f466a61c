//! # gcsm-cache — the DCSR neighbor-list cache (paper Sec. V-B, Fig. 6)
//!
//! Before each GPU matching kernel, GCSM packs the neighbor lists of the
//! selected (high-frequency) vertices into a Doubly Compressed Sparse Row
//! structure and ships it to device memory in **one** DMA transaction:
//!
//! * `rowidx` — the selected vertex ids, sorted, so the kernel can resolve
//!   any vertex with a binary search (the modeled lookup, Sec. V-C);
//! * `colidx` — the raw adjacency entries of the selected vertices,
//!   concatenated. Entries keep the dynamic-graph encoding: tombstoned
//!   (deleted) neighbors carry the mark bit (the paper stores `-v`), and
//!   the neighbors appended by the current batch sit at the end of each
//!   list;
//! * `rowptr` — per selected vertex, **two** offsets into `colidx`: the
//!   start of the original list and the start of the appended tail (`-1`
//!   when the vertex gained no new neighbors). A final entry holds
//!   `colidx.len()`.
//!
//! Because both offsets are explicit, the cached data serves both the old
//! view `N` (original segment, tombstones included) and the new view `N'`
//! (original segment with tombstones skipped + appended tail) without any
//! reformatting — the same trick the CPU-side layout uses.
//!
//! **Host-side row index.** The simulated kernel runs on the host, where a
//! binary search of `rowidx` per neighbor-list access is real work on the
//! hottest path. [`Dcsr::pack`] therefore also builds a dense vertex → row
//! table, and [`Dcsr::find`] is one load from it. The table is a host
//! execution aid, not part of the modeled device image: [`Dcsr::bytes`]
//! (the DMA size) leaves it out, and the cost model still charges the
//! `log2(len)` binary search the GPU kernel performs.

pub mod delta;
pub use delta::{updated_set, DeltaPlan, DeltaPlanner};

use gcsm_graph::{DynamicGraph, NeighborView, VertexId};

/// Sentinel for "no appended neighbors" in the second `rowptr` offset.
pub const NO_TAIL: i64 = -1;

/// The packed cache.
#[derive(Clone, Debug, Default)]
pub struct Dcsr {
    /// Selected vertices, ascending. [`Dcsr::find`] reads an index built
    /// from this by [`Dcsr::pack`], so repack rather than edit it.
    pub rowidx: Vec<VertexId>,
    /// `(orig_start, tail_start_or_-1)` per vertex; one extra terminator
    /// entry `(colidx.len(), -1)`.
    pub rowptr: Vec<(i64, i64)>,
    /// Concatenated raw adjacency entries (dynamic-graph encoding).
    pub colidx: Vec<u32>,
    /// Host-side lookup table: entry `v` holds the row of vertex `v`, or
    /// [`NO_ROW`] when `v` is not cached. Covers `0..=max(rowidx)`.
    index: Vec<u32>,
}

/// Marks an uncached vertex in the host-side row index.
const NO_ROW: u32 = u32::MAX;

impl Dcsr {
    /// Per-row metadata bytes beyond the raw list payload: one `rowidx`
    /// entry plus one `(i64, i64)` `rowptr` pair. Used when budgeting the
    /// device-resident footprint of a selection.
    pub const ROW_META_BYTES: usize =
        std::mem::size_of::<VertexId>() + std::mem::size_of::<(i64, i64)>();

    /// Pack the raw lists of `vertices` (must be sorted ascending, no
    /// duplicates) from the sealed dynamic graph. The three arrays are
    /// sized exactly (the paper: "the sizes of the three arrays are known
    /// before data copying ... a single memory allocation").
    pub fn pack(graph: &DynamicGraph, vertices: &[VertexId]) -> Self {
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]), "rowidx must be sorted unique");
        let total: usize = vertices.iter().map(|&v| graph.raw_list(v).0.len()).sum();
        let mut rowidx = Vec::with_capacity(vertices.len());
        let mut rowptr = Vec::with_capacity(vertices.len() + 1);
        let mut colidx = Vec::with_capacity(total);
        for &v in vertices {
            let (raw, old_len) = graph.raw_list(v);
            let start = colidx.len() as i64;
            let tail_start = if old_len < raw.len() { start + old_len as i64 } else { NO_TAIL };
            rowidx.push(v);
            rowptr.push((start, tail_start));
            colidx.extend_from_slice(raw);
        }
        rowptr.push((colidx.len() as i64, NO_TAIL));
        let mut index = vec![NO_ROW; rowidx.last().map_or(0, |&v| v as usize + 1)];
        for (row, &v) in rowidx.iter().enumerate() {
            if let Some(slot) = index.get_mut(v as usize) {
                *slot = row as u32;
            }
        }
        Self { rowidx, rowptr, colidx, index }
    }

    /// Number of cached vertices.
    pub fn len(&self) -> usize {
        self.rowidx.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.rowidx.is_empty()
    }

    /// Total bytes of the three arrays — the size of the single DMA
    /// transfer that ships the cache. The host-side row index is not part
    /// of the device image and is not counted.
    pub fn bytes(&self) -> usize {
        self.rowidx.len() * std::mem::size_of::<VertexId>()
            + self.rowptr.len() * std::mem::size_of::<(i64, i64)>()
            + self.colidx.len() * std::mem::size_of::<u32>()
    }

    /// The row of `v`, if cached: the per-access lookup of Sec. V-C. The
    /// GPU kernel binary-searches `rowidx` (and the cost model charges
    /// that); on the host this is one read of the index built by
    /// [`Self::pack`], with the same result as
    /// `rowidx.binary_search(&v).ok()`.
    #[inline]
    pub fn find(&self, v: VertexId) -> Option<usize> {
        match self.index.get(v as usize) {
            Some(&row) if row != NO_ROW => Some(row as usize),
            _ => None,
        }
    }

    /// The raw `(prefix, tail)` segments of cached row `row`.
    #[inline]
    pub fn segments(&self, row: usize) -> (&[u32], &[u32]) {
        let (start, tail) = self.rowptr[row];
        let end = self.rowptr[row + 1].0;
        let split = if tail == NO_TAIL { end } else { tail };
        (&self.colidx[start as usize..split as usize], &self.colidx[split as usize..end as usize])
    }

    /// Neighbor view of a cached vertex. `old = true` yields the paper's
    /// `N` (pre-batch), otherwise `N'`.
    #[inline]
    pub fn view(&self, row: usize, old: bool) -> NeighborView<'_> {
        let (prefix, tail) = self.segments(row);
        if old {
            NeighborView::old(prefix)
        } else {
            NeighborView::new_view(prefix, tail)
        }
    }

    /// Bytes of the raw list stored for row `row` (payload read on a cache
    /// hit).
    #[inline]
    pub fn row_bytes(&self, row: usize) -> usize {
        let start = self.rowptr[row].0;
        let end = self.rowptr[row + 1].0;
        (end - start) as usize * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcsm_graph::{CsrGraph, EdgeUpdate};

    /// Rebuild the paper's Fig. 5/6 scenario: after the update, v3 gained a
    /// new neighbor and v4 did not; caching {v3, v4} must produce rowptr
    /// entries (0, tail) and (·, -1).
    #[test]
    fn fig6_layout() {
        // Initial: v3-v1, v4-v5, v4-v6 (shape only; ids matter, topology is
        // illustrative).
        let g0 = CsrGraph::from_edges(7, &[(3, 1), (4, 5), (4, 6)]);
        let mut g = gcsm_graph::DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.apply(EdgeUpdate::insert(3, 2)); // v3 gains neighbor v2
        g.seal_batch();

        let d = Dcsr::pack(&g, &[3, 4]);
        assert_eq!(d.rowidx, vec![3, 4]);
        // v3: original [1] at 0, tail [2] at 1.
        assert_eq!(d.rowptr[0], (0, 1));
        // v4: original [5, 6] at 2, no tail.
        assert_eq!(d.rowptr[1], (2, NO_TAIL));
        // Terminator = colidx length.
        assert_eq!(d.rowptr[2].0, 4);
        assert_eq!(d.colidx, vec![1, 2, 5, 6]);
    }

    #[test]
    fn lookup_hit_and_miss() {
        let g0 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut g = gcsm_graph::DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.seal_batch();
        let d = Dcsr::pack(&g, &[1, 3]);
        assert_eq!(d.find(1), Some(0));
        assert_eq!(d.find(3), Some(1));
        assert_eq!(d.find(0), None);
        assert_eq!(d.find(2), None);
        assert_eq!(d.find(4), None);
    }

    #[test]
    fn views_match_dynamic_graph() {
        let g0 = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)]);
        let mut g = gcsm_graph::DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.apply(EdgeUpdate::insert(0, 5));
        g.apply(EdgeUpdate::delete(0, 2));
        g.apply(EdgeUpdate::insert(2, 4));
        g.seal_batch();

        let cached: Vec<VertexId> = vec![0, 2, 4];
        let d = Dcsr::pack(&g, &cached);
        for &v in &cached {
            let row = d.find(v).unwrap();
            assert_eq!(d.view(row, true).to_vec(), g.old_view(v).to_vec(), "old view v{v}");
            assert_eq!(d.view(row, false).to_vec(), g.new_view(v).to_vec(), "new view v{v}");
        }
    }

    #[test]
    fn bytes_accounting() {
        let g0 = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut g = gcsm_graph::DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.seal_batch();
        let d = Dcsr::pack(&g, &[1, 2]);
        // rowidx: 2×4; rowptr: 3×16; colidx: 4×4.
        assert_eq!(d.bytes(), 8 + 48 + 16);
        assert_eq!(d.row_bytes(0), 8);
    }

    #[test]
    fn empty_cache() {
        let g0 = CsrGraph::from_edges(2, &[(0, 1)]);
        let mut g = gcsm_graph::DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.seal_batch();
        let d = Dcsr::pack(&g, &[]);
        assert!(d.is_empty());
        assert_eq!(d.find(0), None);
        assert_eq!(d.rowptr.len(), 1);
    }

    #[test]
    fn isolated_vertex_cached_as_empty_row() {
        let g0 = CsrGraph::from_edges(3, &[(0, 1)]);
        let mut g = gcsm_graph::DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.seal_batch();
        let d = Dcsr::pack(&g, &[2]);
        let row = d.find(2).unwrap();
        let (p, t) = d.segments(row);
        assert!(p.is_empty() && t.is_empty());
        assert_eq!(d.view(row, false).to_vec(), Vec::<u32>::new());
    }

    /// A sealed random graph on `n` vertices with inserts, deletes and
    /// appended tails in flight.
    fn sealed_random_graph(n: u32, seed: u64) -> DynamicGraph {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let edges: Vec<_> = (0..4 * n)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        let g0 = CsrGraph::from_edges(n as usize, &edges);
        let mut g = gcsm_graph::DynamicGraph::from_csr(&g0);
        let mut batch: Vec<EdgeUpdate> =
            g0.edges().step_by(5).map(|(a, b)| EdgeUpdate::delete(a, b)).collect();
        batch.extend((0..n).map(|_| EdgeUpdate::insert(rng.gen_range(0..n), rng.gen_range(0..n))));
        g.apply_batch(&batch);
        g
    }

    fn assert_find_matches_binary_search(d: &Dcsr, n: u32) {
        for v in 0..n + 2 {
            assert_eq!(d.find(v), d.rowidx.binary_search(&v).ok(), "v{v}");
        }
    }

    #[test]
    fn find_equals_binary_search_on_every_selection() {
        let n = 90;
        let g = sealed_random_graph(n, 3);
        let selections: [Vec<VertexId>; 5] = [
            vec![],
            vec![0],
            vec![n - 1],
            (0..n).filter(|v| v % 7 == 2 || v % 5 == 0).collect(),
            (0..n).collect(),
        ];
        for sel in &selections {
            assert_find_matches_binary_search(&Dcsr::pack(&g, sel), n);
        }
        assert_find_matches_binary_search(&Dcsr::default(), n);
    }

    #[test]
    fn find_equals_binary_search_after_delta_repack() {
        let n = 90;
        let g = sealed_random_graph(n, 4);
        let updated = updated_set(&[EdgeUpdate::insert(1, 2), EdgeUpdate::insert(40, 60)]);
        let mut planner = DeltaPlanner::new();
        for sel in [
            (0..n).step_by(3).collect::<Vec<_>>(),
            (0..n).filter(|v| v % 4 != 1).collect(),
            vec![5, 80],
            vec![],
            (10..n).collect(),
        ] {
            let (d, _) = planner.update(&g, &sel, &updated);
            assert_eq!(d.rowidx, sel);
            assert_find_matches_binary_search(&d, n);
            // A budget that evicts the largest rows shrinks the selection.
            let (d, plan) = planner.update_bounded(&g, &sel, &updated, 200);
            assert!(d.rowidx.iter().all(|v| plan.evicted.binary_search(v).is_err()));
            assert_find_matches_binary_search(&d, n);
        }
    }

    #[test]
    fn bytes_leave_out_the_host_index() {
        let g = sealed_random_graph(500, 5);
        // One high id: the host index spans 500 slots for two rows.
        let d = Dcsr::pack(&g, &[3, 499]);
        let arrays = 2 * std::mem::size_of::<VertexId>()
            + 3 * std::mem::size_of::<(i64, i64)>()
            + d.colidx.len() * std::mem::size_of::<u32>();
        assert_eq!(d.bytes(), arrays);
        // Two one-row packs carry one more terminator `rowptr` pair.
        let split = Dcsr::pack(&g, &[3]).bytes() + Dcsr::pack(&g, &[499]).bytes();
        assert_eq!(d.bytes(), split - std::mem::size_of::<(i64, i64)>());
    }
}
