//! # gcsm-graph — graph substrate for the GCSM reproduction
//!
//! This crate provides the two graph representations the GCSM system is built
//! on:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row snapshot used for
//!   static (from-scratch) matching and as the initial state of a dynamic
//!   graph.
//! * [`DynamicGraph`] — the CPU-side dynamic graph store of the paper
//!   (Sec. V-A): one growable sorted adjacency array per vertex, insertions
//!   appended at the tail, deletions tombstoned in place (the paper stores
//!   `-v`; we set a tombstone bit), and a post-match *reorganize* step that
//!   removes tombstones and restores the fully-sorted invariant.
//!
//! The dynamic store exposes the two neighbor views the incremental
//! worst-case-optimal join needs (Fig. 2 of the paper):
//!
//! * `N(v)`  — the **old** view: the adjacency list as it was *before* the
//!   current batch (tombstoned entries still count; appended entries do not).
//! * `N'(v)` — the **new** view: the list *after* the batch (tombstones
//!   skipped, appended tail included).
//!
//! Both views are exposed as sorted runs so the matcher can use merge-based
//! set intersection: the old view is one sorted run (tombstone bit is ignored
//! by the comparator), the new view is two sorted runs (original prefix with
//! tombstones skipped + sorted appended tail).
//!
//! ```
//! use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
//!
//! let mut g = DynamicGraph::from_csr(&CsrGraph::from_edges(4, &[(0, 1), (1, 2)]));
//! g.begin_batch();
//! g.apply(EdgeUpdate::insert(2, 3));
//! g.apply(EdgeUpdate::delete(0, 1));
//! g.seal_batch();
//!
//! assert_eq!(g.old_view(2).to_vec(), vec![1]);      // N: pre-batch
//! assert_eq!(g.new_view(2).to_vec(), vec![1, 3]);   // N': post-batch
//! assert_eq!(g.new_view(0).to_vec(), Vec::<u32>::new());
//!
//! g.reorganize();                                   // Step-4: sorted again
//! assert_eq!(g.old_view(2).to_vec(), vec![1, 3]);
//! ```

pub mod admission;
pub mod analytics;
pub mod csr;
pub mod dynamic;
pub mod io;
pub mod stats;
pub mod types;
pub mod view;

pub use admission::{coalesce, Admission, AdmissionStats, CoalesceWindow};
pub use csr::{CsrBuilder, CsrGraph};
pub use dynamic::{BatchSummary, DynamicGraph, ReorgResult, ReorgTask};
pub use stats::GraphStats;
pub use types::{
    decode_neighbor, encode_tombstone, is_tombstone, splitmix64, EdgeUpdate, Label, UpdateOp,
    VertexId, TOMBSTONE_BIT,
};
pub use view::{NeighborRun, NeighborView};
