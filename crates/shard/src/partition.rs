//! Edge partitioner: vertex → owning shard, plus per-shard materialisation.
//!
//! All three policies assign *vertices* to shards; an edge belongs to the
//! partition of each endpoint's owner, so an edge whose endpoints live on
//! different shards is **replicated** on both (boundary replication). The
//! replication factor — per-shard edges summed over shards, divided by the
//! graph's edges — is the storage price of keeping every owned vertex's
//! neighbor list complete on its shard.

use crate::ShardId;
use gcsm_graph::{
    splitmix64, CsrBuilder, CsrGraph, DynamicGraph, EdgeUpdate, GraphStats, VertexId,
};

/// How vertices are assigned to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// `owner(v) = hash(v) mod N` — stateless, spreads hubs uniformly.
    HashSrc,
    /// Contiguous vertex-id ranges of equal vertex count.
    Range,
    /// Contiguous vertex-id ranges balanced by *degree mass* (each shard
    /// gets ≈ `2|E|/N` endpoint slots, computed from [`GraphStats`]), so a
    /// skewed graph does not overload the shard holding its hubs.
    DegreeBalanced,
}

impl PartitionPolicy {
    /// CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionPolicy::HashSrc => "hash",
            PartitionPolicy::Range => "range",
            PartitionPolicy::DegreeBalanced => "degree",
        }
    }

    /// Parse a CLI spelling (`hash`, `range`, `degree`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hash" => Some(PartitionPolicy::HashSrc),
            "range" => Some(PartitionPolicy::Range),
            "degree" => Some(PartitionPolicy::DegreeBalanced),
            _ => None,
        }
    }
}

/// A computed vertex-to-shard assignment.
#[derive(Clone, Debug)]
pub struct Partitioning {
    owners: Vec<ShardId>,
    num_shards: usize,
    policy: PartitionPolicy,
}

impl Partitioning {
    /// Partition `graph`'s vertices into `num_shards` shards under `policy`.
    /// `num_shards` is clamped to at least 1.
    pub fn compute(graph: &CsrGraph, policy: PartitionPolicy, num_shards: usize) -> Self {
        let n = graph.num_vertices();
        let shards = num_shards.max(1);
        let owners: Vec<ShardId> = match policy {
            PartitionPolicy::HashSrc => {
                (0..n).map(|v| (splitmix64(v as u64) % shards as u64) as ShardId).collect()
            }
            PartitionPolicy::Range => {
                let per = n.div_ceil(shards).max(1);
                (0..n).map(|v| (v / per).min(shards - 1)).collect()
            }
            PartitionPolicy::DegreeBalanced => {
                // Sweep vertex ids in order, cutting a new shard once the
                // running endpoint mass passes the ideal share. GraphStats
                // supplies the total mass (2|E| endpoint slots).
                let stats = DynamicGraph::from_csr(graph).stats();
                let total = (2 * stats.num_edges).max(1) as f64;
                let target = total / shards as f64;
                let mut owners = vec![0 as ShardId; n];
                let mut shard = 0usize;
                let mut mass = 0f64;
                for (v, owner) in owners.iter_mut().enumerate() {
                    *owner = shard;
                    mass += graph.degree(v as VertexId) as f64;
                    if mass >= target * (shard + 1) as f64 && shard + 1 < shards {
                        shard += 1;
                    }
                }
                owners
            }
        };
        Self { owners, num_shards: shards, policy }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The policy this assignment was built under.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Owning shard of vertex `v`. Vertices beyond the initial graph (ids
    /// introduced by later updates) fall back to the hash policy so every
    /// vertex always has exactly one owner.
    pub fn owner(&self, v: VertexId) -> ShardId {
        self.owners
            .get(v as usize)
            .copied()
            .unwrap_or_else(|| (splitmix64(v as u64) % self.num_shards as u64) as ShardId)
    }

    /// Whether edge `(a, b)` crosses shards (its owners differ).
    pub fn is_cut(&self, a: VertexId, b: VertexId) -> bool {
        self.owner(a) != self.owner(b)
    }

    /// The shard that *counts* an update's delta seeds: the owner of the
    /// canonical lower endpoint. Exactly one shard per update — the dedup
    /// rule that keeps the summed `ΔM` identical to single-device.
    pub fn counting_shard(&self, u: &EdgeUpdate) -> ShardId {
        self.owner(u.canonical().0)
    }

    /// Materialise the per-shard graphs: shard `s` holds every edge with an
    /// endpoint owned by `s` (boundary replication), over the full vertex-id
    /// space so ids stay stable across shards.
    pub fn materialize(&self, graph: &CsrGraph) -> Vec<DynamicGraph> {
        let mut builders: Vec<CsrBuilder> =
            (0..self.num_shards).map(|_| CsrBuilder::new(graph.num_vertices())).collect();
        for (a, b) in graph.edges() {
            let (oa, ob) = (self.owner(a), self.owner(b));
            builders[oa].add_edge(a, b);
            if ob != oa {
                builders[ob].add_edge(a, b);
            }
        }
        builders.into_iter().map(|b| DynamicGraph::from_csr(&b.build())).collect()
    }

    /// Per-shard [`GraphStats`] of the materialised partitions.
    pub fn shard_stats(&self, graph: &CsrGraph) -> Vec<GraphStats> {
        self.materialize(graph).iter().map(DynamicGraph::stats).collect()
    }

    /// `Σ_s |E_s| / |E|` — storage blow-up from boundary replication
    /// (1.0 = no cut edges; 2.0 = every edge cut).
    pub fn replication_factor(&self, graph: &CsrGraph) -> f64 {
        let total = graph.num_edges().max(1);
        let replicated: usize = graph.edges().filter(|&(a, b)| self.is_cut(a, b)).count();
        (total + replicated) as f64 / total as f64
    }

    /// Endpoint-mass per shard (degree sums over owned vertices) — the load
    /// model the degree-balanced policy equalises.
    pub fn degree_loads(&self, graph: &CsrGraph) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_shards];
        for v in 0..graph.num_vertices() {
            loads[self.owner(v as VertexId)] += graph.degree(v as VertexId) as u64;
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> CsrGraph {
        let edges: Vec<(VertexId, VertexId)> = (0..n as VertexId - 1).map(|v| (v, v + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    fn star_graph(leaves: usize) -> CsrGraph {
        let edges: Vec<(VertexId, VertexId)> = (1..=leaves as VertexId).map(|v| (0, v)).collect();
        CsrGraph::from_edges(leaves + 1, &edges)
    }

    #[test]
    fn every_vertex_has_exactly_one_owner() {
        let g = path_graph(100);
        for policy in
            [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced]
        {
            for shards in [1usize, 2, 3, 4] {
                let p = Partitioning::compute(&g, policy, shards);
                for v in 0..100u32 {
                    assert!(p.owner(v) < shards, "{policy:?}/{shards}");
                }
                // Out-of-range vertices (later inserts) still get an owner.
                assert!(p.owner(10_000) < shards);
            }
        }
    }

    #[test]
    fn one_shard_owns_everything_with_no_cuts() {
        let g = path_graph(32);
        for policy in
            [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced]
        {
            let p = Partitioning::compute(&g, policy, 1);
            assert!((p.replication_factor(&g) - 1.0).abs() < 1e-12);
            let parts = p.materialize(&g);
            assert_eq!(parts.len(), 1);
            assert_eq!(parts[0].stats().num_edges, g.num_edges());
        }
    }

    #[test]
    fn materialized_partitions_cover_every_edge() {
        let g = star_graph(20);
        for policy in
            [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced]
        {
            let p = Partitioning::compute(&g, policy, 4);
            let parts = p.materialize(&g);
            // Every original edge appears on the owner of each endpoint.
            for (a, b) in g.edges() {
                let snap_a = parts[p.owner(a)].to_csr();
                let snap_b = parts[p.owner(b)].to_csr();
                assert!(snap_a.has_edge(a, b));
                assert!(snap_b.has_edge(a, b));
            }
            // And shard edge counts sum to |E| + replicated cut edges.
            let total: usize = parts.iter().map(|d| d.stats().num_edges).sum();
            let expect = g.num_edges() + g.edges().filter(|&(a, b)| p.is_cut(a, b)).count();
            assert_eq!(total, expect);
        }
    }

    #[test]
    fn degree_balanced_beats_range_on_skew() {
        // A star plus a long tail: range splits vertices evenly and dumps
        // the hub's whole mass on shard 0; degree-balanced cuts right after
        // the hub.
        let mut edges: Vec<(VertexId, VertexId)> = (1..=64).map(|v| (0, v)).collect();
        edges.extend((65..127).map(|v| (v, v + 1)));
        let g = CsrGraph::from_edges(128, &edges);
        let range = Partitioning::compute(&g, PartitionPolicy::Range, 4);
        let deg = Partitioning::compute(&g, PartitionPolicy::DegreeBalanced, 4);
        let spread = |loads: Vec<u64>| {
            let max = *loads.iter().max().unwrap_or(&0) as f64;
            let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
            max / mean.max(1.0)
        };
        let r = spread(range.degree_loads(&g));
        let d = spread(deg.degree_loads(&g));
        assert!(d < r, "degree-balanced {d:.2} must beat range {r:.2}");
    }

    #[test]
    fn counting_shard_is_deterministic_and_single() {
        let g = path_graph(16);
        let p = Partitioning::compute(&g, PartitionPolicy::HashSrc, 3);
        let u = EdgeUpdate::insert(7, 3);
        let v = EdgeUpdate::delete(3, 7);
        // Same canonical edge → same counting shard regardless of
        // orientation or operation.
        assert_eq!(p.counting_shard(&u), p.counting_shard(&v));
        assert_eq!(p.counting_shard(&u), p.owner(3));
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced]
        {
            assert_eq!(PartitionPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(PartitionPolicy::parse("metis"), None);
    }
}
