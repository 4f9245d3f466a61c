//! Grid load-balance model.
//!
//! STMatch — the kernel the paper builds on — keeps its thread blocks busy
//! with inter-block **work stealing**; without it, a few seed tasks with
//! huge match trees leave most of the grid idle. This module models both
//! policies over the per-task costs the kernel executor records:
//!
//! * [`Scheduling::Static`] — tasks assigned round-robin in submission
//!   order; the kernel finishes when the most-loaded block finishes;
//! * [`Scheduling::WorkStealing`] — list scheduling (each free block takes
//!   the next task), the classic 2-approximation of optimal makespan and a
//!   faithful stand-in for STMatch's stealing.
//!
//! [`imbalance_factor`] returns `makespan / ideal` (`≥ 1`); engines stretch
//! their kernel time by it, so the ablation bench can quantify what the
//! stealing buys on skewed workloads.

/// Block-scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// Round-robin static assignment (no stealing).
    Static,
    /// Contiguous chunks in submission order: block `b` takes tasks
    /// `[b·⌈n/B⌉, (b+1)·⌈n/B⌉)`. Preserves task locality (neighbouring
    /// seeds share neighbourhoods) at the price of tolerating none of the
    /// skew round-robin at least spreads out.
    Chunked,
    /// Greedy list scheduling (work stealing).
    WorkStealing,
}

impl Scheduling {
    /// CLI spelling of the policy.
    pub fn name(&self) -> &'static str {
        match self {
            Scheduling::Static => "static",
            Scheduling::Chunked => "chunked",
            Scheduling::WorkStealing => "stealing",
        }
    }

    /// Parse a CLI spelling (`static`, `chunked`, `stealing`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" => Some(Scheduling::Static),
            "chunked" => Some(Scheduling::Chunked),
            "stealing" => Some(Scheduling::WorkStealing),
            _ => None,
        }
    }
}

/// Makespan of `task_costs` on `blocks` parallel blocks under `policy`.
pub fn makespan(task_costs: &[u64], blocks: usize, policy: Scheduling) -> u64 {
    if task_costs.is_empty() || blocks == 0 {
        return 0;
    }
    match policy {
        Scheduling::Static => {
            let mut loads = vec![0u64; blocks];
            for (i, &c) in task_costs.iter().enumerate() {
                loads[i % blocks] += c;
            }
            loads.into_iter().max().unwrap_or(0)
        }
        Scheduling::Chunked => {
            let chunk = task_costs.len().div_ceil(blocks);
            task_costs.chunks(chunk).map(|c| c.iter().sum()).max().unwrap_or(0)
        }
        Scheduling::WorkStealing => {
            // List scheduling via a min-heap of block finish times: each
            // task raises the least-loaded block in place (one sift down
            // per task instead of a pop and a push).
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut heap: BinaryHeap<Reverse<u64>> = (0..blocks).map(|_| Reverse(0u64)).collect();
            for &c in task_costs {
                if let Some(mut least) = heap.peek_mut() {
                    least.0 += c;
                }
            }
            heap.into_iter().map(|Reverse(t)| t).max().unwrap_or(0)
        }
    }
}

/// `makespan / ideal` where `ideal = ⌈total / blocks⌉` — the factor by
/// which the grid's finish time exceeds perfect balance. Always ≥ 1.
pub fn imbalance_factor(task_costs: &[u64], blocks: usize, policy: Scheduling) -> f64 {
    let total: u64 = task_costs.iter().sum();
    if total == 0 || blocks == 0 {
        return 1.0;
    }
    let ideal = (total as f64 / blocks as f64).max(1.0);
    (makespan(task_costs, blocks, policy) as f64 / ideal).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tasks_balance_perfectly() {
        let costs = vec![10u64; 64];
        for p in [Scheduling::Static, Scheduling::Chunked, Scheduling::WorkStealing] {
            assert_eq!(makespan(&costs, 8, p), 80);
            assert!((imbalance_factor(&costs, 8, p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn chunked_assigns_contiguous_runs() {
        // 6 tasks on 2 blocks: chunked takes [1,2,3] vs [10,1,1]; round-robin
        // interleaves to [1,3,1] vs [2,10,1].
        let costs = vec![1u64, 2, 3, 10, 1, 1];
        assert_eq!(makespan(&costs, 2, Scheduling::Chunked), 12);
        assert_eq!(makespan(&costs, 2, Scheduling::Static), 13);
        assert_eq!(makespan(&costs, 2, Scheduling::WorkStealing), 12);
        // A front-loaded burst punishes chunked hardest.
        let burst = vec![100u64, 100, 1, 1];
        assert_eq!(makespan(&burst, 2, Scheduling::Chunked), 200);
        assert_eq!(makespan(&burst, 2, Scheduling::Static), 101);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [Scheduling::Static, Scheduling::Chunked, Scheduling::WorkStealing] {
            assert_eq!(Scheduling::parse(p.name()), Some(p));
        }
        assert_eq!(Scheduling::parse("bogus"), None);
    }

    #[test]
    fn skewed_tasks_hurt_static_more() {
        // One giant task among many tiny ones, adversarially placed so
        // round-robin stacks extra work on the giant's block.
        let mut costs = vec![1u64; 64];
        costs[0] = 1000;
        costs[8] = 900; // same block as task 0 under round-robin with 8 blocks
        let s = imbalance_factor(&costs, 8, Scheduling::Static);
        let w = imbalance_factor(&costs, 8, Scheduling::WorkStealing);
        assert!(s > w, "static {s:.2} vs stealing {w:.2}");
        assert!(w <= 4.2, "stealing bounded by the giant task: {w:.2}");
    }

    #[test]
    fn stealing_is_within_2x_of_ideal() {
        // List scheduling's classic bound: makespan ≤ 2·OPT ≤ 2·(ideal + max).
        let costs: Vec<u64> = (1..200).map(|i| (i * 37) % 97 + 1).collect();
        let total: u64 = costs.iter().sum();
        let blocks = 16;
        let ideal = total.div_ceil(blocks as u64);
        let max = *costs.iter().max().unwrap();
        assert!(makespan(&costs, blocks, Scheduling::WorkStealing) <= ideal + max);
    }

    /// The pop-and-push list scheduler `makespan` used before the in-place
    /// `peek_mut` update.
    fn stealing_pop_push(task_costs: &[u64], blocks: usize) -> u64 {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<u64>> = (0..blocks).map(|_| Reverse(0u64)).collect();
        for &c in task_costs {
            let Reverse(t) = heap.pop().unwrap();
            heap.push(Reverse(t + c));
        }
        heap.into_iter().map(|Reverse(t)| t).max().unwrap_or(0)
    }

    #[test]
    fn stealing_matches_pop_push_reference() {
        // splitmix64: random cost vectors with heavy-tailed costs and zeros.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..200 {
            let n = (next() % 600) as usize;
            let blocks = 1 + (next() % 100) as usize;
            let costs: Vec<u64> = (0..n).map(|_| (next() % 1000) >> (next() % 10)).collect();
            assert_eq!(
                makespan(&costs, blocks, Scheduling::WorkStealing),
                stealing_pop_push(&costs, blocks),
                "{n} tasks on {blocks} blocks"
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(makespan(&[], 8, Scheduling::Static), 0);
        assert_eq!(makespan(&[5], 0, Scheduling::WorkStealing), 0);
        assert_eq!(imbalance_factor(&[], 8, Scheduling::Static), 1.0);
        // One task: makespan = task, ideal = total/blocks ⇒ factor = blocks.
        assert!((imbalance_factor(&[100], 4, Scheduling::WorkStealing) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_block_equals_total() {
        let costs = vec![3u64, 7, 11];
        for p in [Scheduling::Static, Scheduling::Chunked, Scheduling::WorkStealing] {
            assert_eq!(makespan(&costs, 1, p), 21);
        }
    }
}
