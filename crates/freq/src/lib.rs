//! # gcsm-freq — random-walk access-frequency estimation (paper Sec. IV)
//!
//! The GPU cache is only as good as the set of vertices chosen for it. The
//! paper estimates the access frequency `C_v` of every vertex — the number
//! of times `v`'s neighbor list would be read during exact incremental
//! matching — by sampling paths of the execution tree:
//!
//! 1. pick a batch seed with probability `1/|ΔE|`;
//! 2. at each level, compute the candidate set `V`, pick one candidate with
//!    probability `1/|V|`, and continue with probability `|V|/D` (`D` = max
//!    degree) — so every child node is reached with probability exactly
//!    `1/D`;
//! 3. estimate `C̃_v = Σ_i |ΔE|·D^{i−1}·c_{v,i}` (Eq. (3)), an unbiased
//!    estimator (Theorem 1 bounds the mis-ranking probability).
//!
//! Two implementations are provided:
//!
//! * [`naive::estimate_naive`] — `M` literal independent walks (the
//!   reference; slow, used by tests and the ablation bench);
//! * [`merged::estimate_merged`] — the paper's Sec. IV-B optimization: all
//!   `M` walks simulated in a *single* traversal by drawing binomial visit
//!   counts per loop iteration, eliminating redundant set operations. It
//!   walks the sorted seeds seed-major, in fixed chunks on the rayon pool,
//!   with one keyed random stream per (plan, seed) and tabulated binomials,
//!   so its estimate is bit-identical for any thread count and batch order.
//!
//! A [`FreqEstimate`] from the merged estimator records the vertices it
//! touched. [`select`] turns an estimate into a cache set under a byte
//! budget from that list alone — when every touched list fits, without
//! ranking — and implements the paper's *Naive* baseline policy
//! (degree-based selection).
//! [`theory`] computes the Theorem-1 bound and the Eq. (5) sample-size rule
//! with its adaptive restart loop.

//! ```
//! use gcsm_freq::{estimate_merged, select_top_frequency, WalkParams};
//! use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
//! use gcsm_matcher::DynSource;
//! use gcsm_pattern::{compile_incremental, queries, PlanOptions};
//!
//! let g0 = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
//! let mut g = DynamicGraph::from_csr(&g0);
//! let batch = g.apply_batch(&[EdgeUpdate::insert(1, 3)]);
//!
//! let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
//! let src = DynSource::new(&g);
//! let est = estimate_merged(&src, &plans, &batch.applied, g.max_degree_bound(),
//!                           &WalkParams { walks: 2048, seed: 1 });
//! // Cache everything the walks touched, budget permitting.
//! let sel = select_top_frequency(&est, 1 << 20, |v| g.list_bytes(v));
//! assert!(!sel.vertices.is_empty());
//! ```

mod binomial;
pub mod estimate;
pub mod fused;
pub mod merged;
pub mod naive;
pub mod select;
pub mod theory;

pub use estimate::{FreqEstimate, WalkParams};
pub use fused::{estimate_and_match, BatchPass, PassOptions};
pub use merged::{estimate_merged, estimate_merged_into};
pub use naive::estimate_naive;
pub use select::{select_by_degree, select_top_frequency, CacheSelection};
pub use theory::{adaptive_walk_target, min_walks, misrank_bound, recommended_walks};
