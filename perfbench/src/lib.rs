//! Wall-clock benchmark of the gcsm pipeline.
//!
//! Three workloads, each generated from a seed and driven through the
//! public `gcsm` API (see `README.md` beside this crate for the rationale
//! and the layer → metric → workload map):
//!
//! * [`skew_q4`](skew) — closed loop, skewed social graph, Q4, one device;
//! * [`serve_window`](serve) — open loop into a standing-query stream
//!   session (triangle, Q1, Q2, Q6);
//! * [`road_sharded`](road) — closed loop, road lattice, Q1, two shards.
//!
//! An untraced run reports the end-to-end metrics; a traced run rebuilds
//! the engine from the layers' public functions, checks that it
//! reproduces the untraced run exactly, and reports per-layer self times
//! and counters. Every run ends with the ledger gate.

pub mod closed;
pub mod composed;
pub mod ledger;
pub mod pacer;
pub mod report;
pub mod road;
pub mod serve;
pub mod skew;
pub mod stats;
pub mod trace;

pub use report::Outcome;

/// Workload names, in catalogue order.
pub const WORKLOADS: [&str; 3] = ["skew_q4", "serve_window", "road_sharded"];

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Off-by-one the first ΔM entered into each ledger (gate self-test).
    pub tamper: ledger::Tamper,
}

/// Input size: the benchmark's own, or the small one the crate's tests
/// run every workload at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Run one workload by name; `None` for an unknown name.
pub fn run(workload: &str, rc: &RunConfig, size: Size) -> Option<Outcome> {
    let full = size == Size::Full;
    Some(match workload {
        "skew_q4" => skew::run(rc, if full { skew::Params::full() } else { skew::Params::tiny() }),
        "serve_window" => {
            serve::run(rc, if full { serve::Params::full() } else { serve::Params::tiny() })
        }
        "road_sharded" => {
            road::run(rc, if full { road::Params::full() } else { road::Params::tiny() })
        }
        _ => return None,
    })
}
