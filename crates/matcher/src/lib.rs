//! # gcsm-matcher — the worst-case-optimal-join matching engine
//!
//! Executes the nested-loop plans compiled by `gcsm-pattern` (the paper's
//! Fig. 2) against any neighbor-list provider:
//!
//! * [`NeighborSource`] — the provider abstraction. Implementations in this
//!   crate read a CSR snapshot or a sealed [`gcsm_graph::DynamicGraph`];
//!   the `gcsm` core crate adds sources that route accesses through the
//!   simulated GPU (device cache / zero-copy / unified memory) so that the
//!   same enumeration code serves every engine of the evaluation.
//! * [`intersect`] — sorted-set intersection kernels (merge, galloping, and
//!   a blocked/unrolled variant mirroring STMatch's SIMD intersection),
//!   with uniform operation counting for the simulated-time model.
//! * [`enumerate`] — the recursive enumerator.
//! * [`stack`] — the STMatch-style iterative enumerator with an explicit
//!   per-level candidate stack (the shape of the paper's GPU kernel).
//!   Produces bit-identical results to the recursive one.
//! * [`group`] — the seed-group executor the GPU kernel runs: every delta
//!   plan of one oriented seed together, with plans that share their levels
//!   below level 0 sharing each common level-0 candidate's subtree.
//! * [`driver`] — whole-task entry points: static matching over all graph
//!   edges and incremental matching over a batch `ΔE` (running all `m`
//!   delta plans and summing signed counts, Eq. (1)).
//! * [`reads`] — per-(vertex, view) read counts of a launch, for charging
//!   a device cache that is chosen after the reads happened.
//! * [`access`] — per-vertex access-frequency instrumentation: the *oracle*
//!   the paper's Fig. 15 compares the random-walk estimator against.

//! ```
//! use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
//! use gcsm_matcher::{match_incremental, DriverOptions, DynSource};
//! use gcsm_pattern::queries;
//!
//! let g0 = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
//! let mut g = DynamicGraph::from_csr(&g0);
//! let batch = g.apply_batch(&[EdgeUpdate::insert(1, 3), EdgeUpdate::insert(2, 3)]);
//!
//! let src = DynSource::new(&g);
//! let delta = match_incremental(&src, &queries::triangle(), &batch.applied,
//!                               &DriverOptions::default());
//! assert_eq!(delta.matches, 6); // new triangle {1,2,3} × |Aut| = 6
//! ```

pub mod access;
pub mod driver;
pub mod enumerate;
pub mod group;
pub mod intersect;
pub mod limit;
pub mod reads;
pub mod source;
pub mod stack;
pub mod stats;

pub use access::AccessCounter;
pub use driver::{
    collect_incremental, delta_seeds, match_incremental, match_static, DriverOptions,
    EnumeratorKind,
};
pub use enumerate::{gen_candidates, match_from_seed, seed_admissible, Scratch};
pub use group::{run_seed, run_seed_hooked, PlanGroups, SeedScratch};
pub use intersect::{CostCounter, IntersectAlgo};
pub use limit::{match_incremental_limited, LimitedResult};
pub use reads::{ReadTallies, ReadTally, TallyLease};
pub use source::{CsrSource, DynSource, NeighborSource, RecordingSource};
pub use stack::{match_from_seed_stack, NoHook, NodeHook, StackScratch};
pub use stats::MatchStats;
