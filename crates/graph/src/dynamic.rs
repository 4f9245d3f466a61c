//! The CPU-side dynamic graph store (paper Sec. V-A, Fig. 5).
//!
//! Per vertex we keep one growable array of encoded neighbor entries:
//!
//! * arrays are preallocated at **double** the initial degree so insertions
//!   are amortised O(1) (paper Step-1);
//! * new vertices get an array sized to the average degree (Step-2);
//! * deletions are **tombstoned in place** — the paper stores `-v`, we set
//!   the MSB — located by binary search in the sorted prefix (Step-3);
//! * after the batch has been matched, [`DynamicGraph::reorganize`] removes
//!   tombstones and merges the sorted appended tail back into the prefix in
//!   linear time per updated list (Step-4), restoring the fully-sorted
//!   invariant for the next batch.
//!
//! Between [`DynamicGraph::begin_batch`] and [`DynamicGraph::reorganize`]
//! the structure serves both the **old** view `N` (pre-batch) and the **new**
//! view `N'` (post-batch) required by the incremental join of Fig. 2.

use crate::csr::{CsrBuilder, CsrGraph};
use crate::stats::GraphStats;
use crate::types::{
    decode_neighbor, encode_tombstone, is_tombstone, EdgeUpdate, Label, UpdateOp, VertexId,
};
use crate::view::NeighborView;

/// One adjacency array.
#[derive(Clone, Debug, Default)]
struct AdjList {
    /// `[0..old_len)`: sorted original prefix (entries may be tombstoned);
    /// `[old_len..)`: neighbors appended this batch (sorted by `seal_batch`).
    data: Vec<u32>,
    /// Length of the prefix = degree at batch start.
    old_len: usize,
    /// Number of tombstoned entries currently in the prefix.
    dead: usize,
}

/// Merge one raw adjacency array back into a single sorted live run:
/// tombstones in the prefix are dropped and the sorted tail is interleaved
/// (one pass, plus a binary search per tail entry). The merge goes through
/// `scratch` and is copied back, so `data` keeps its allocation (the merged
/// run is never longer). Shared by the serial, parallel, and off-thread
/// reorganization paths so they cannot drift apart.
fn merge_list(data: &mut Vec<u32>, old_len: usize, scratch: &mut Vec<u32>) {
    scratch.clear();
    let (prefix, tail) = data.split_at(old_len);
    fn live(run: &[u32]) -> impl Iterator<Item = u32> + '_ {
        run.iter().copied().filter(|&e| !is_tombstone(e))
    }
    // The tail is short: place each entry by binary search of the prefix
    // (sorted by decoded id) and copy the live run before it.
    let mut rest = prefix;
    for &t in tail {
        let (before, after) = rest.split_at(rest.partition_point(|&e| decode_neighbor(e) < t));
        scratch.extend(live(before));
        scratch.push(t);
        rest = after;
    }
    scratch.extend(live(rest));
    data.clear();
    data.extend_from_slice(scratch);
}

impl AdjList {
    /// True when the list has tombstones or an appended tail to merge.
    fn needs_merge(&self) -> bool {
        self.dead > 0 || self.old_len < self.data.len()
    }

    /// Step-4 for one list: merge it through `scratch` if it needs it.
    /// Returns whether it did.
    fn reorganize(&mut self, scratch: &mut Vec<u32>) -> bool {
        if !self.needs_merge() {
            return false; // resurrections only; already sorted
        }
        merge_list(&mut self.data, self.old_len, scratch);
        self.old_len = self.data.len();
        self.dead = 0;
        debug_assert!(self.is_clean_sorted(), "reorganize left a list unsorted or tombstoned");
        true
    }

    fn live_degree(&self) -> usize {
        self.data.len() - self.dead
    }

    /// Binary search the prefix by decoded id.
    fn find_in_prefix(&self, v: VertexId) -> Result<usize, usize> {
        self.data[..self.old_len].binary_search_by_key(&v, |&e| decode_neighbor(e))
    }

    /// Structural invariant: `dead` counts exactly the tombstones in the
    /// prefix (the tail never holds tombstones). Referenced from
    /// `debug_assert!` sites, so it must exist in release builds too.
    fn tombstones_consistent(&self) -> bool {
        self.data[..self.old_len].iter().filter(|&&e| is_tombstone(e)).count() == self.dead
            && !self.data[self.old_len..].iter().any(|&e| is_tombstone(e))
    }

    /// Post-reorganize invariant: a single strictly sorted live run with no
    /// tombstones and no unsealed tail. Referenced from `debug_assert!`
    /// sites, so it must exist in release builds too.
    fn is_clean_sorted(&self) -> bool {
        self.dead == 0
            && self.old_len == self.data.len()
            && self.data.windows(2).all(|w| w[0] < w[1])
            && !self.data.iter().any(|&e| is_tombstone(e))
    }
}

/// Summary of a sealed batch, handed to the matching stage.
#[derive(Clone, Debug, Default)]
pub struct BatchSummary {
    /// Updates that actually changed the graph, in application order.
    pub applied: Vec<EdgeUpdate>,
    /// Number of requested updates that were no-ops (duplicate insert /
    /// missing delete).
    pub skipped: usize,
}

impl BatchSummary {
    /// `|ΔE|` — the batch size seen by the matcher and the walk estimator.
    pub fn len(&self) -> usize {
        self.applied.len()
    }

    /// True if no update was applied.
    pub fn is_empty(&self) -> bool {
        self.applied.is_empty()
    }
}

/// Phase of the update/match cycle (Fig. 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Lists fully sorted, no tombstones or tails; ready for `begin_batch`.
    Clean,
    /// Accepting `apply` calls.
    Applying,
    /// Batch sealed: tails sorted, views `N`/`N'` live; ready to match and
    /// then `reorganize`.
    Sealed,
    /// Overlap mode: the previous batch is still sealed (its reorganization
    /// runs off-thread) while the next batch's updates are journaled via
    /// [`DynamicGraph::apply`]. Entered by
    /// [`DynamicGraph::begin_staged_batch`]; left by `seal_batch` after
    /// [`DynamicGraph::install_reorg`] has landed.
    Staging,
}

/// Snapshot of the merge work for one sealed batch, detached from the graph
/// so it can be computed on another thread while the graph keeps serving
/// reads (and journaling the next batch). Produced by
/// [`DynamicGraph::take_reorg_task`]; consumed by [`ReorgTask::compute`].
#[derive(Clone, Debug)]
pub struct ReorgTask {
    /// Seal epoch this task was taken at; checked on install so a stale
    /// result can never clobber a newer graph state.
    epoch: u64,
    /// `(vertex, raw list clone, prefix length)` for every touched list that
    /// actually needs merging (has tombstones or an appended tail).
    items: Vec<(VertexId, Vec<u32>, usize)>,
}

impl ReorgTask {
    /// True when no list needs merging (resurrection-only batches): the
    /// caller can install the (empty) result inline instead of spawning.
    pub fn is_trivial(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of lists that will be merged.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no list needs merging.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Run the merges (rayon-parallel across lists, as in
    /// [`DynamicGraph::reorganize_parallel`]). Borrows nothing from the
    /// graph, so it can run on any thread.
    pub fn compute(self) -> ReorgResult {
        use rayon::prelude::*;
        let epoch = self.epoch;
        let merged = self
            .items
            .into_par_iter()
            .map_init(Vec::new, |scratch, (v, mut data, old_len)| {
                merge_list(&mut data, old_len, scratch);
                (v, data)
            })
            .collect();
        ReorgResult { epoch, merged }
    }
}

/// Output of [`ReorgTask::compute`], applied via
/// [`DynamicGraph::install_reorg`].
#[derive(Clone, Debug)]
pub struct ReorgResult {
    epoch: u64,
    merged: Vec<(VertexId, Vec<u32>)>,
}

impl ReorgResult {
    /// Number of lists merged.
    pub fn len(&self) -> usize {
        self.merged.len()
    }

    /// True when no list was merged.
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty()
    }
}

/// The dynamic data graph.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    lists: Vec<AdjList>,
    labels: Vec<Label>,
    /// Monotone upper bound on the max live degree (the walk estimator's `D`
    /// only needs an upper bound; tracking the exact max under deletions
    /// would cost a scan).
    max_degree: usize,
    /// Current number of live undirected edges.
    num_edges: usize,
    /// Average degree of the initial graph, used to size new vertices'
    /// arrays (paper Step-2).
    initial_avg_degree: usize,
    phase: Phase,
    /// Vertices whose lists changed in the current batch (deduplicated at
    /// seal time).
    touched: Vec<VertexId>,
    batch: BatchSummary,
    /// Seal epoch: incremented every `seal_batch`. Guards
    /// [`Self::install_reorg`] against stale results.
    seals: u64,
    /// Updates journaled while in [`Phase::Staging`], replayed at seal.
    staged: Vec<EdgeUpdate>,
    /// Whether the pending reorganization result has been installed for the
    /// current staged batch.
    reorg_installed: bool,
}

impl DynamicGraph {
    /// Seed from an initial snapshot `G_0`. Arrays are preallocated at twice
    /// the initial degree, as in the paper.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut lists = Vec::with_capacity(n);
        for v in 0..n as VertexId {
            let nbrs = g.neighbors(v);
            let mut data = Vec::with_capacity((nbrs.len() * 2).max(4));
            data.extend_from_slice(nbrs);
            lists.push(AdjList { old_len: data.len(), data, dead: 0 });
        }
        let avg = (2 * g.num_edges()).checked_div(n).unwrap_or(4).max(1);
        Self {
            lists,
            labels: g.labels().to_vec(),
            max_degree: g.max_degree(),
            num_edges: g.num_edges(),
            initial_avg_degree: avg,
            phase: Phase::Clean,
            touched: Vec::new(),
            batch: BatchSummary::default(),
            seals: 0,
            staged: Vec::new(),
            reorg_installed: false,
        }
    }

    /// Empty graph with `n` isolated unlabeled vertices.
    pub fn with_vertices(n: usize) -> Self {
        Self::from_csr(&CsrGraph::from_edges(n, &[]))
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.lists.len()
    }

    /// Current number of live undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Upper bound on the maximum degree (the estimator's `D`).
    #[inline]
    pub fn max_degree_bound(&self) -> usize {
        self.max_degree
    }

    /// Vertex label.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// Set a vertex label (labels are static in the paper's model; exposed
    /// for dataset construction).
    pub fn set_label(&mut self, v: VertexId, l: Label) {
        self.labels[v as usize] = l;
    }

    /// Average degree of the initial snapshot.
    #[inline]
    pub fn initial_avg_degree(&self) -> usize {
        self.initial_avg_degree
    }

    // ------------------------------------------------------------------
    // Batch lifecycle
    // ------------------------------------------------------------------

    /// Start accepting a batch of updates (Step-1 of Fig. 3).
    pub fn begin_batch(&mut self) {
        assert_eq!(self.phase, Phase::Clean, "previous batch not reorganized");
        self.phase = Phase::Applying;
        self.touched.clear();
        self.batch = BatchSummary::default();
    }

    /// Start accepting the next batch while the previous one is still sealed
    /// and its reorganization runs off-thread (overlap mode, double-buffered
    /// Fig. 3). Updates are journaled — not applied — until
    /// [`Self::install_reorg`] lands and `seal_batch` replays them, so the
    /// sealed views `N`/`N'` stay readable throughout.
    pub fn begin_staged_batch(&mut self) {
        assert_eq!(self.phase, Phase::Sealed, "staged batch requires a pending sealed batch");
        self.phase = Phase::Staging;
        self.staged.clear();
        self.reorg_installed = false;
        self.batch = BatchSummary::default();
    }

    /// Apply one update. Returns `true` if it changed the graph. Duplicate
    /// insertions and deletions of absent edges are counted as skipped.
    /// Inserting an edge whose endpoints exceed the current vertex count
    /// grows the graph (the paper: "a newly inserted edge may consist of new
    /// vertices"); new vertices get label 0.
    ///
    /// In a staged batch (overlap mode) the update is journaled and the
    /// return value is provisionally `true`; no-op detection happens when the
    /// journal is replayed at seal time and is reflected in the returned
    /// [`BatchSummary`].
    pub fn apply(&mut self, u: EdgeUpdate) -> bool {
        if self.phase == Phase::Staging {
            self.staged.push(u);
            return true;
        }
        assert_eq!(self.phase, Phase::Applying, "apply outside begin_batch");
        if u.src == u.dst {
            self.batch.skipped += 1;
            return false;
        }
        let applied = match u.op {
            UpdateOp::Insert => {
                self.ensure_vertex(u.src.max(u.dst));
                self.insert_half(u.src, u.dst) && {
                    let ok = self.insert_half(u.dst, u.src);
                    debug_assert!(ok, "asymmetric adjacency state");
                    ok
                }
            }
            UpdateOp::Delete => {
                if (u.src as usize) < self.lists.len() && (u.dst as usize) < self.lists.len() {
                    self.delete_half(u.src, u.dst) && {
                        let ok = self.delete_half(u.dst, u.src);
                        debug_assert!(ok, "asymmetric adjacency state");
                        ok
                    }
                } else {
                    false
                }
            }
        };
        if applied {
            match u.op {
                UpdateOp::Insert => {
                    self.num_edges += 1;
                    let d = self.lists[u.src as usize]
                        .live_degree()
                        .max(self.lists[u.dst as usize].live_degree());
                    self.max_degree = self.max_degree.max(d);
                }
                UpdateOp::Delete => self.num_edges -= 1,
            }
            self.touched.push(u.src);
            self.touched.push(u.dst);
            self.batch.applied.push(u);
        } else {
            self.batch.skipped += 1;
        }
        applied
    }

    /// Grow the vertex set so that id `v` exists.
    fn ensure_vertex(&mut self, v: VertexId) {
        let need = v as usize + 1;
        if need > self.lists.len() {
            let cap = self.initial_avg_degree;
            self.lists.resize_with(need, || AdjList {
                data: Vec::with_capacity(cap),
                old_len: 0,
                dead: 0,
            });
            self.labels.resize(need, 0);
        }
    }

    /// Insert `b` into `a`'s list. Returns false if the edge already exists
    /// live. A tombstoned prefix entry is resurrected in place; a tail entry
    /// is a duplicate.
    fn insert_half(&mut self, a: VertexId, b: VertexId) -> bool {
        let list = &mut self.lists[a as usize];
        match list.find_in_prefix(b) {
            Ok(i) => {
                if is_tombstone(list.data[i]) {
                    list.data[i] = b;
                    list.dead -= 1;
                    true
                } else {
                    false
                }
            }
            Err(_) => {
                if list.data[list.old_len..].contains(&b) {
                    false
                } else {
                    list.data.push(b);
                    true
                }
            }
        }
    }

    /// Tombstone `b` in `a`'s prefix, or remove it from the tail if it was
    /// appended earlier in this same batch. Returns false if absent.
    fn delete_half(&mut self, a: VertexId, b: VertexId) -> bool {
        let list = &mut self.lists[a as usize];
        match list.find_in_prefix(b) {
            Ok(i) => {
                if is_tombstone(list.data[i]) {
                    false
                } else {
                    list.data[i] = encode_tombstone(b);
                    list.dead += 1;
                    true
                }
            }
            Err(_) => {
                if let Some(pos) = list.data[list.old_len..].iter().position(|&e| e == b) {
                    let idx = list.old_len + pos;
                    list.data.remove(idx);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Seal the batch: sort every appended tail (so `ΔN` is sorted, enabling
    /// merge intersections — paper Sec. V-C) and deduplicate the touched set.
    /// Returns the batch summary handed to the matcher.
    pub fn seal_batch(&mut self) -> BatchSummary {
        if self.phase == Phase::Staging {
            assert!(
                self.reorg_installed,
                "staged batch sealed before install_reorg landed the pending reorganization"
            );
            self.phase = Phase::Applying;
            self.batch = BatchSummary::default();
            let staged = std::mem::take(&mut self.staged);
            for u in staged {
                self.apply(u);
            }
        }
        assert_eq!(self.phase, Phase::Applying, "seal outside batch");
        self.seals += 1;
        self.touched.sort_unstable();
        self.touched.dedup();
        for &v in &self.touched {
            let list = &mut self.lists[v as usize];
            let old_len = list.old_len;
            list.data[old_len..].sort_unstable();
            debug_assert!(
                list.data[old_len..].windows(2).all(|w| w[0] < w[1]),
                "sealed tail of v{v} not strictly sorted (duplicate append slipped through)"
            );
            debug_assert!(
                list.tombstones_consistent(),
                "tombstone count drifted for v{v} during batch application"
            );
        }
        self.phase = Phase::Sealed;
        self.batch.clone()
    }

    /// The batch currently sealed for matching.
    pub fn sealed_batch(&self) -> &BatchSummary {
        assert_eq!(self.phase, Phase::Sealed, "no sealed batch");
        &self.batch
    }

    /// Vertices whose adjacency lists changed in the sealed batch (sorted).
    pub fn updated_vertices(&self) -> &[VertexId] {
        &self.touched
    }

    /// Step-4: remove tombstones and merge each updated list back into one
    /// sorted run. Linear in the length of each updated list; every merge
    /// reuses one scratch buffer, and each list keeps its (doubled-capacity)
    /// allocation — the paper never shrinks arrays. Returns the number of
    /// lists reorganized.
    pub fn reorganize(&mut self) -> usize {
        assert_eq!(self.phase, Phase::Sealed, "reorganize requires a sealed batch");
        let mut span = gcsm_obs::span("reorganize", gcsm_obs::cat::GRAPH);
        let mut scratch = Vec::new();
        let mut count = 0;
        for &v in &self.touched {
            count += usize::from(self.lists[v as usize].reorganize(&mut scratch));
        }
        self.touched.clear();
        self.phase = Phase::Clean;
        span.set_count(count as u64);
        count
    }

    /// Parallel variant of [`Self::reorganize`]: updated lists are
    /// independent, so the merge runs across the rayon pool (the paper's
    /// platform reorganizes with 32 CPU threads available), one scratch
    /// buffer per pool block. Only the touched lists are visited: they are
    /// moved out, merged, and moved back. Semantically identical to the
    /// serial version.
    pub fn reorganize_parallel(&mut self) -> usize {
        use rayon::prelude::*;
        assert_eq!(self.phase, Phase::Sealed, "reorganize requires a sealed batch");
        let mut span = gcsm_obs::span("reorganize", gcsm_obs::cat::GRAPH);
        let mut work: Vec<(VertexId, AdjList)> = self
            .touched
            .iter()
            .filter_map(|&v| {
                let list = &mut self.lists[v as usize];
                list.needs_merge().then(|| (v, std::mem::take(list)))
            })
            .collect();
        let count = work
            .par_iter_mut()
            .map_init(Vec::new, |scratch, (_, list)| list.reorganize(scratch))
            .filter(|&merged| merged)
            .count();
        for (v, list) in work {
            self.lists[v as usize] = list;
        }
        self.touched.clear();
        self.phase = Phase::Clean;
        span.set_count(count as u64);
        count
    }

    /// Detach the merge work for the sealed batch so it can run off-thread
    /// ([`ReorgTask::compute`]) while the graph keeps serving the sealed
    /// views — and, via [`Self::begin_staged_batch`], journaling the next
    /// batch. Touched lists that need no merge (resurrection-only) are
    /// excluded. The graph stays `Sealed`; apply the result with
    /// [`Self::install_reorg`].
    pub fn take_reorg_task(&self) -> ReorgTask {
        assert_eq!(self.phase, Phase::Sealed, "reorganize requires a sealed batch");
        let items = self
            .touched
            .iter()
            .filter_map(|&v| {
                let list = &self.lists[v as usize];
                list.needs_merge().then(|| (v, list.data.clone(), list.old_len))
            })
            .collect();
        ReorgTask { epoch: self.seals, items }
    }

    /// Install an off-thread reorganization result. Equivalent to having run
    /// [`Self::reorganize`] at [`Self::take_reorg_task`] time: merged lists
    /// replace their raw form, the touched set clears, and the phase
    /// advances (`Sealed` → `Clean`, or marks the pending reorganization
    /// installed when a staged batch is open). Panics if the result's seal
    /// epoch does not match the graph's — a stale result can never clobber
    /// newer state. Returns the number of lists reorganized.
    pub fn install_reorg(&mut self, res: ReorgResult) -> usize {
        match self.phase {
            Phase::Sealed => {}
            Phase::Staging => {
                assert!(!self.reorg_installed, "reorganize result installed twice")
            }
            _ => panic!("install_reorg requires a sealed or staged batch"),
        }
        assert_eq!(res.epoch, self.seals, "stale reorganize result (seal epoch mismatch)");
        let count = res.merged.len();
        for (v, merged) in res.merged {
            let list = &mut self.lists[v as usize];
            list.data.clear();
            list.data.extend_from_slice(&merged);
            list.old_len = list.data.len();
            list.dead = 0;
            debug_assert!(
                list.is_clean_sorted(),
                "install_reorg left v{v} unsorted, duplicated, or tombstoned"
            );
        }
        self.touched.clear();
        if self.phase == Phase::Sealed {
            self.phase = Phase::Clean;
        } else {
            self.reorg_installed = true;
        }
        count
    }

    /// Convenience: run a whole batch in one call (apply → seal). The caller
    /// matches against the sealed state and then calls [`Self::reorganize`].
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> BatchSummary {
        self.begin_batch();
        for &u in updates {
            self.apply(u);
        }
        self.seal_batch()
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// The old view `N(v)`: the list as of the start of the sealed batch.
    #[inline]
    pub fn old_view(&self, v: VertexId) -> NeighborView<'_> {
        let list = &self.lists[v as usize];
        NeighborView::old(&list.data[..list.old_len])
    }

    /// The new view `N'(v)`: the post-batch list.
    #[inline]
    pub fn new_view(&self, v: VertexId) -> NeighborView<'_> {
        let list = &self.lists[v as usize];
        NeighborView::new_view(&list.data[..list.old_len], &list.data[list.old_len..])
    }

    /// Raw encoded entries `[prefix | tail]` plus the prefix length. This is
    /// exactly the byte layout shipped to the GPU cache (DCSR `colidx` keeps
    /// the same encoding, with the second `rowptr` offset marking the tail).
    #[inline]
    pub fn raw_list(&self, v: VertexId) -> (&[u32], usize) {
        let list = &self.lists[v as usize];
        (&list.data, list.old_len)
    }

    /// Degree before the sealed batch.
    #[inline]
    pub fn old_degree(&self, v: VertexId) -> usize {
        self.lists[v as usize].old_len
    }

    /// Degree after the sealed batch (live entries).
    #[inline]
    pub fn new_degree(&self, v: VertexId) -> usize {
        self.lists[v as usize].live_degree()
    }

    /// Bytes occupied by `v`'s raw list — the unit of traffic for the GPU
    /// memory model.
    #[inline]
    pub fn list_bytes(&self, v: VertexId) -> usize {
        self.lists[v as usize].data.len() * std::mem::size_of::<u32>()
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Snapshot of the *current* (post-batch if sealed) graph as a CSR.
    pub fn to_csr(&self) -> CsrGraph {
        let mut b = CsrBuilder::new(self.num_vertices());
        for v in 0..self.num_vertices() as VertexId {
            for w in self.new_view(v).iter_sorted() {
                if v < w {
                    b.add_edge(v, w);
                }
            }
        }
        b.set_labels(self.labels.clone());
        b.build()
    }

    /// Snapshot of the *pre-batch* graph as a CSR (old views).
    pub fn old_to_csr(&self) -> CsrGraph {
        let mut b = CsrBuilder::new(self.num_vertices());
        for v in 0..self.num_vertices() as VertexId {
            for w in self.old_view(v).iter_sorted() {
                if v < w {
                    b.add_edge(v, w);
                }
            }
        }
        b.set_labels(self.labels.clone());
        b.build()
    }

    /// Total heap bytes held by the adjacency arrays, including the
    /// doubled-capacity headroom the paper's allocation strategy keeps
    /// (contrast with [`GraphStats::adjacency_bytes`], which counts used
    /// entries only).
    pub fn allocated_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.data.capacity() * std::mem::size_of::<u32>()).sum::<usize>()
            + self.lists.capacity() * std::mem::size_of::<AdjList>()
            + self.labels.capacity() * std::mem::size_of::<Label>()
    }

    /// Basic statistics in the shape of the paper's Table I.
    pub fn stats(&self) -> GraphStats {
        let mut max_deg = 0usize;
        let mut bytes = 0usize;
        for l in &self.lists {
            max_deg = max_deg.max(l.live_degree());
            bytes += l.data.len() * std::mem::size_of::<u32>();
        }
        GraphStats {
            num_vertices: self.num_vertices(),
            num_edges: self.num_edges,
            max_degree: max_deg,
            adjacency_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1's G_0: kite on 4 vertices; the update batch of the figure adds
    /// (v4, v6)… we use small synthetic variants instead.
    fn seed() -> DynamicGraph {
        DynamicGraph::from_csr(&CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
    }

    #[test]
    fn insert_appends_to_tail_and_views_split() {
        let mut g = seed();
        g.begin_batch();
        assert!(g.apply(EdgeUpdate::insert(3, 4)));
        assert!(g.apply(EdgeUpdate::insert(0, 4)));
        let b = g.seal_batch();
        assert_eq!(b.len(), 2);

        // Old view of 3 excludes the new neighbor 4.
        assert_eq!(g.old_view(3).to_vec(), vec![1, 2]);
        assert_eq!(g.new_view(3).to_vec(), vec![1, 2, 4]);
        // Vertex 4 existed but was isolated.
        assert_eq!(g.old_view(4).to_vec(), Vec::<u32>::new());
        assert_eq!(g.new_view(4).to_vec(), vec![0, 3]);
        assert_eq!(g.num_edges(), 7);

        g.reorganize();
        assert_eq!(g.old_view(3).to_vec(), vec![1, 2, 4]);
    }

    #[test]
    fn delete_tombstones_prefix() {
        let mut g = seed();
        g.begin_batch();
        assert!(g.apply(EdgeUpdate::delete(1, 2)));
        g.seal_batch();
        assert_eq!(g.old_view(1).to_vec(), vec![0, 2, 3]);
        assert_eq!(g.new_view(1).to_vec(), vec![0, 3]);
        assert_eq!(g.new_view(2).to_vec(), vec![0, 3]);
        assert_eq!(g.num_edges(), 4);
        g.reorganize();
        assert_eq!(g.old_view(1).to_vec(), vec![0, 3]);
        assert_eq!(g.old_degree(1), 2);
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let mut g = seed();
        g.begin_batch();
        assert!(!g.apply(EdgeUpdate::insert(0, 1)));
        assert!(!g.apply(EdgeUpdate::delete(0, 3)));
        assert!(!g.apply(EdgeUpdate::insert(2, 2)));
        let b = g.seal_batch();
        assert_eq!(b.len(), 0);
        assert_eq!(b.skipped, 3);
        g.reorganize();
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn insert_then_delete_same_batch_cancels() {
        let mut g = seed();
        g.begin_batch();
        assert!(g.apply(EdgeUpdate::insert(3, 4)));
        assert!(g.apply(EdgeUpdate::delete(3, 4)));
        g.seal_batch();
        assert_eq!(g.new_view(3).to_vec(), vec![1, 2]);
        assert_eq!(g.num_edges(), 5);
        g.reorganize();
        assert_eq!(g.old_view(4).to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn delete_then_reinsert_same_batch_resurrects() {
        let mut g = seed();
        g.begin_batch();
        assert!(g.apply(EdgeUpdate::delete(0, 1)));
        assert!(g.apply(EdgeUpdate::insert(0, 1)));
        g.seal_batch();
        assert_eq!(g.new_view(0).to_vec(), vec![1, 2]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn new_vertices_grow_graph() {
        let mut g = seed();
        g.begin_batch();
        assert!(g.apply(EdgeUpdate::insert(2, 9)));
        g.seal_batch();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.label(9), 0);
        assert_eq!(g.new_view(9).to_vec(), vec![2]);
        g.reorganize();
        assert_eq!(g.old_view(9).to_vec(), vec![2]);
    }

    #[test]
    fn tail_is_sorted_after_seal() {
        let mut g = seed();
        g.begin_batch();
        for w in [9, 7, 5, 8, 6] {
            assert!(g.apply(EdgeUpdate::insert(0, w)));
        }
        g.seal_batch();
        assert_eq!(g.new_view(0).to_vec(), vec![1, 2, 5, 6, 7, 8, 9]);
        let (raw, old_len) = g.raw_list(0);
        assert_eq!(old_len, 2);
        assert!(raw[old_len..].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut g = seed();
        g.begin_batch();
        g.apply(EdgeUpdate::insert(3, 4));
        g.apply(EdgeUpdate::delete(0, 2));
        g.seal_batch();
        let old = g.old_to_csr();
        let new = g.to_csr();
        assert_eq!(old.num_edges(), 5);
        assert_eq!(new.num_edges(), 5); // +1 −1
        assert!(old.has_edge(0, 2) && !new.has_edge(0, 2));
        assert!(!old.has_edge(3, 4) && new.has_edge(3, 4));
        g.reorganize();
        let reorg = g.to_csr();
        assert_eq!(reorg.edges().collect::<Vec<_>>(), new.edges().collect::<Vec<_>>());
    }

    #[test]
    fn updated_vertices_tracked_and_cleared() {
        let mut g = seed();
        g.begin_batch();
        g.apply(EdgeUpdate::insert(3, 4));
        g.apply(EdgeUpdate::delete(1, 2));
        g.seal_batch();
        assert_eq!(g.updated_vertices(), &[1, 2, 3, 4]);
        g.reorganize();
        assert!(g.updated_vertices().is_empty());
    }

    #[test]
    fn allocated_bytes_include_headroom() {
        let g = seed();
        // Doubled preallocation ⇒ capacity ≥ 2× used entries.
        let used: usize = (0..5u32).map(|v| g.list_bytes(v)).sum();
        assert!(g.allocated_bytes() >= 2 * used);
    }

    #[test]
    fn stats_reflect_live_graph() {
        let g = seed();
        let s = g.stats();
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 5);
        assert_eq!(s.max_degree, 3);
    }

    #[test]
    #[should_panic(expected = "previous batch not reorganized")]
    fn begin_twice_panics() {
        let mut g = seed();
        g.begin_batch();
        g.seal_batch();
        g.begin_batch();
    }

    #[test]
    fn parallel_reorganize_equals_serial() {
        let build = || {
            let mut g = seed();
            g.begin_batch();
            g.apply(EdgeUpdate::insert(3, 4));
            g.apply(EdgeUpdate::delete(0, 2));
            g.apply(EdgeUpdate::insert(0, 4));
            g.seal_batch();
            g
        };
        let mut a = build();
        let mut b = build();
        let ca = a.reorganize();
        let cb = b.reorganize_parallel();
        assert_eq!(ca, cb);
        for v in 0..a.num_vertices() as u32 {
            assert_eq!(a.raw_list(v).0, b.raw_list(v).0, "v{v}");
        }
        assert!(b.updated_vertices().is_empty());
    }

    /// Each reorganize path merges in place: a list that still fits its
    /// array keeps the allocation.
    #[test]
    fn reorganized_lists_keep_their_allocation() {
        type Path = fn(&mut DynamicGraph) -> usize;
        let paths: [Path; 3] = [DynamicGraph::reorganize, DynamicGraph::reorganize_parallel, |g| {
            let task = g.take_reorg_task();
            g.install_reorg(task.compute())
        }];
        for path in paths {
            let mut g = seed();
            g.begin_batch();
            g.apply(EdgeUpdate::insert(1, 4));
            g.apply(EdgeUpdate::delete(1, 2));
            g.seal_batch();
            let data = &g.lists[1].data;
            let before = (data.as_ptr(), data.capacity());
            assert_eq!(path(&mut g), 3); // v1, v2 and v4
            let data = &g.lists[1].data;
            assert_eq!((data.as_ptr(), data.capacity()), before);
            assert_eq!(g.raw_list(1), (&[0, 3, 4][..], 3));
        }
    }

    /// Serial, parallel and off-thread reorganize leave identical lists —
    /// the live adjacency sets — over random insert/delete batches.
    #[test]
    fn all_reorganize_paths_agree() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 40u32;
        let pair = |rng: &mut SmallRng| loop {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                return (a, b);
            }
        };
        let edges: Vec<(u32, u32)> = (0..120).map(|_| pair(&mut rng)).collect();
        let base = DynamicGraph::from_csr(&CsrGraph::from_edges(n as usize, &edges));
        // Oracle: the live adjacency sets.
        let mut adj: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); n as usize];
        for &(x, y) in &edges {
            adj[x as usize].insert(y);
            adj[y as usize].insert(x);
        }
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base);
        for _ in 0..8 {
            let batch: Vec<EdgeUpdate> = (0..60)
                .map(|_| {
                    let (x, y) = pair(&mut rng);
                    if rng.gen_bool(0.5) {
                        EdgeUpdate::insert(x, y)
                    } else {
                        EdgeUpdate::delete(x, y)
                    }
                })
                .collect();
            for g in [&mut a, &mut b, &mut c] {
                g.apply_batch(&batch);
            }
            for u in &batch {
                let (x, y) = (u.src as usize, u.dst as usize);
                if u.op == UpdateOp::Insert {
                    adj[x].insert(u.dst);
                    adj[y].insert(u.src);
                } else {
                    adj[x].remove(&u.dst);
                    adj[y].remove(&u.src);
                }
            }
            let ca = a.reorganize();
            let cb = b.reorganize_parallel();
            let task = c.take_reorg_task();
            let cc = c.install_reorg(task.compute());
            assert!(ca > 0);
            assert_eq!((ca, cb), (cc, cc));
            for v in 0..n {
                let want: Vec<u32> = adj[v as usize].iter().copied().collect();
                assert_eq!(a.raw_list(v), (&want[..], want.len()), "v{v}");
                assert_eq!(a.raw_list(v), b.raw_list(v), "v{v}");
                assert_eq!(a.raw_list(v), c.raw_list(v), "v{v}");
            }
        }
    }

    #[test]
    fn take_compute_install_equals_reorganize() {
        let build = || {
            let mut g = seed();
            g.begin_batch();
            g.apply(EdgeUpdate::insert(3, 4));
            g.apply(EdgeUpdate::delete(0, 2));
            g.apply(EdgeUpdate::insert(0, 4));
            g.seal_batch();
            g
        };
        let mut a = build();
        let mut b = build();
        let ca = a.reorganize();
        let task = b.take_reorg_task();
        assert!(!task.is_trivial());
        let cb = b.install_reorg(task.compute());
        assert_eq!(ca, cb);
        for v in 0..a.num_vertices() as u32 {
            assert_eq!(a.raw_list(v).0, b.raw_list(v).0, "v{v}");
        }
        assert!(b.updated_vertices().is_empty());
        // Both back to Clean: a fresh batch starts without panicking.
        b.begin_batch();
        b.seal_batch();
        b.reorganize();
    }

    #[test]
    fn staged_batch_overlaps_reorganize() {
        let mut g = seed();
        g.begin_batch();
        g.apply(EdgeUpdate::insert(3, 4));
        g.apply(EdgeUpdate::delete(0, 1));
        g.seal_batch();

        // Detach batch-1 merge work, then open batch 2 while it is "running".
        let task = g.take_reorg_task();
        g.begin_staged_batch();
        // Journaled updates: one real insert, one duplicate (no-op), one
        // delete of an edge the pending reorganize will have removed.
        g.apply(EdgeUpdate::insert(2, 4));
        g.apply(EdgeUpdate::insert(0, 2)); // duplicate → skipped at replay
        g.apply(EdgeUpdate::delete(0, 1)); // already deleted in batch 1 → skipped
                                           // Sealed views of batch 1 still readable while staged.
        assert_eq!(g.new_view(3).to_vec(), vec![1, 2, 4]);
        assert_eq!(g.old_view(0).to_vec(), vec![1, 2]);

        g.install_reorg(task.compute());
        let b = g.seal_batch();
        assert_eq!(b.len(), 1, "only the real insert applies");
        assert_eq!(b.skipped, 2);
        assert_eq!(g.new_view(2).to_vec(), vec![0, 1, 3, 4]);
        assert_eq!(g.old_view(2).to_vec(), vec![0, 1, 3]);
        g.reorganize();
        assert_eq!(g.old_view(0).to_vec(), vec![2]);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    #[should_panic(expected = "staged batch sealed before install_reorg")]
    fn staged_seal_without_install_panics() {
        let mut g = seed();
        g.begin_batch();
        g.apply(EdgeUpdate::insert(3, 4));
        g.seal_batch();
        g.begin_staged_batch();
        g.seal_batch();
    }

    #[test]
    #[should_panic(expected = "seal epoch mismatch")]
    fn stale_reorg_result_rejected() {
        let mut g = seed();
        g.begin_batch();
        g.apply(EdgeUpdate::insert(3, 4));
        g.seal_batch();
        let stale = g.take_reorg_task().compute();
        g.reorganize();
        g.begin_batch();
        g.apply(EdgeUpdate::insert(0, 4));
        g.seal_batch();
        g.install_reorg(stale);
    }

    #[test]
    fn trivial_reorg_task_for_resurrection_only_batch() {
        let mut g = seed();
        g.begin_batch();
        g.apply(EdgeUpdate::delete(0, 1));
        g.apply(EdgeUpdate::insert(0, 1)); // resurrect in place
        g.seal_batch();
        let task = g.take_reorg_task();
        assert!(task.is_trivial());
        assert_eq!(g.install_reorg(task.compute()), 0);
        assert!(g.updated_vertices().is_empty());
        g.begin_batch(); // phase advanced to Clean
        g.seal_batch();
        g.reorganize();
    }

    #[test]
    fn multi_batch_lifecycle() {
        let mut g = seed();
        for k in 0..10u32 {
            g.begin_batch();
            g.apply(EdgeUpdate::insert(0, 5 + k));
            g.seal_batch();
            g.reorganize();
        }
        assert_eq!(g.new_degree(0), 12);
        let (raw, old_len) = g.raw_list(0);
        assert_eq!(old_len, raw.len());
        assert!(raw.windows(2).all(|w| w[0] < w[1]));
    }
}
