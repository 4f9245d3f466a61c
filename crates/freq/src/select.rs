//! Cache-set selection under a byte budget.
//!
//! GCSM caches the neighbor lists of the highest-estimated-frequency
//! vertices, filling the GPU buffer greedily ("nodes with the highest
//! estimated frequency are cached in the GPU buffer", Sec. VI-A). The
//! *Naive* baseline uses the same mechanism with node degree as the
//! frequency proxy — the policy the paper shows to be ineffective.
//!
//! [`select_top_frequency`] works from the estimate's touched vertices,
//! never from all of |V|. When their lists fit the budget together — the
//! common case, since walks touch a small neighborhood of the batch — the
//! greedy fill would take every one of them, so they are returned as they
//! are (already sorted by id) and nothing is ranked. Otherwise only the
//! touched vertices are ranked.

use crate::estimate::FreqEstimate;
use gcsm_graph::VertexId;

/// A chosen cache set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSelection {
    /// Selected vertices, sorted by ascending id (the DCSR `rowidx` order).
    pub vertices: Vec<VertexId>,
    /// Total bytes their raw adjacency lists occupy.
    pub bytes: usize,
}

/// Greedily select the top-estimate vertices whose lists fit in
/// `budget_bytes`. `list_bytes(v)` must report the raw adjacency bytes of
/// `v` (prefix + appended tail, as shipped to the GPU). Vertices whose list
/// alone exceeds the remaining budget are skipped (lower-ranked smaller
/// lists may still fit — the greedy knapsack the paper's packing implies).
pub fn select_top_frequency(
    est: &FreqEstimate,
    budget_bytes: usize,
    mut list_bytes: impl FnMut(VertexId) -> usize,
) -> CacheSelection {
    let mut sized: Vec<(VertexId, f64, usize)> =
        est.nonzero().into_iter().map(|(v, f)| (v, f, list_bytes(v))).collect();
    let total: usize = sized.iter().map(|s| s.2).sum();
    if total <= budget_bytes {
        return CacheSelection { vertices: sized.into_iter().map(|s| s.0).collect(), bytes: total };
    }
    sized.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    select_ranked(sized.into_iter().map(|(v, _, sz)| (v, sz)), budget_bytes)
}

/// The Naive baseline: rank by degree instead of estimated frequency.
/// `degrees` yields `(vertex, degree)` for candidate vertices (typically
/// all vertices, or the k-hop neighborhood of the batch).
pub fn select_by_degree(
    mut candidates: Vec<(VertexId, usize)>,
    budget_bytes: usize,
    mut list_bytes: impl FnMut(VertexId) -> usize,
) -> CacheSelection {
    candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    select_ranked(candidates.into_iter().map(|(v, _)| (v, list_bytes(v))), budget_bytes)
}

/// Greedy fill over `(vertex, list bytes)` in rank order.
fn select_ranked(
    ranked: impl Iterator<Item = (VertexId, usize)>,
    budget_bytes: usize,
) -> CacheSelection {
    let mut sel = CacheSelection::default();
    for (v, sz) in ranked {
        if sel.bytes + sz <= budget_bytes {
            sel.vertices.push(v);
            sel.bytes += sz;
        }
    }
    sel.vertices.sort_unstable();
    sel
}

impl CacheSelection {
    /// Coverage of an oracle top set: `|S ∩ T| / |S|` (Sec. VI-D).
    pub fn coverage_of(&self, oracle_top: &[VertexId]) -> f64 {
        if oracle_top.is_empty() {
            return 1.0;
        }
        let hits = oracle_top.iter().filter(|v| self.vertices.binary_search(v).is_ok()).count();
        hits as f64 / oracle_top.len() as f64
    }

    /// Membership test (vertices are sorted).
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est_from(freqs: &[f64]) -> FreqEstimate {
        let mut e = FreqEstimate::new(freqs.len());
        e.freq = freqs.to_vec();
        e
    }

    #[test]
    fn budget_respected_and_sorted() {
        let e = est_from(&[10.0, 50.0, 30.0, 0.0]);
        // Lists: 8 bytes each.
        let sel = select_top_frequency(&e, 16, |_| 8);
        assert_eq!(sel.vertices, vec![1, 2]); // top-2 by estimate, sorted by id
        assert_eq!(sel.bytes, 16);
    }

    #[test]
    fn oversized_lists_are_skipped_not_fatal() {
        let e = est_from(&[10.0, 50.0, 30.0]);
        // Vertex 1 has a giant list; greedy skips it and still packs 2 and 0.
        let sel = select_top_frequency(&e, 20, |v| if v == 1 { 100 } else { 8 });
        assert_eq!(sel.vertices, vec![0, 2]);
    }

    #[test]
    fn zero_estimates_never_selected() {
        let e = est_from(&[0.0, 0.0]);
        let sel = select_top_frequency(&e, 1000, |_| 8);
        assert!(sel.vertices.is_empty());
    }

    #[test]
    fn degree_policy_prefers_hubs() {
        let sel = select_by_degree(vec![(0, 3), (1, 100), (2, 7)], 16, |_| 8);
        assert_eq!(sel.vertices, vec![1, 2]);
    }

    /// The greedy fill over every vertex, ranked by descending estimate
    /// (ties by id) — the reference `select_top_frequency` must equal.
    fn reference(freq: &[f64], sizes: &[usize], budget: usize) -> CacheSelection {
        let mut ranked: Vec<usize> = (0..freq.len()).filter(|&v| freq[v] > 0.0).collect();
        ranked.sort_by(|&a, &b| freq[b].partial_cmp(&freq[a]).unwrap().then(a.cmp(&b)));
        let mut sel = CacheSelection::default();
        for v in ranked {
            if sel.bytes + sizes[v] <= budget {
                sel.vertices.push(v as VertexId);
                sel.bytes += sizes[v];
            }
        }
        sel.vertices.sort_unstable();
        sel
    }

    proptest::proptest! {
        /// Sparse selection (with and without a touched list) equals the
        /// reference greedy, including zero-byte lists and budgets just
        /// below, at and above the total of every touched list.
        #[test]
        fn selection_equals_reference_greedy(
            raw in proptest::collection::vec((0u8..6, 0usize..5), 1..60),
            frac in 0usize..101,
        ) {
            // Estimates from a small set, so ties occur; 0 means untouched.
            let freq: Vec<f64> = raw.iter().map(|&(f, _)| f as f64 * 0.5).collect();
            // Sizes in 8-byte steps, zero-byte lists included.
            let sizes: Vec<usize> = raw.iter().map(|&(_, s)| s * 8).collect();
            let touched: Vec<VertexId> =
                (0..freq.len() as VertexId).filter(|&v| freq[v as usize] > 0.0).collect();
            let total: usize = touched.iter().map(|&v| sizes[v as usize]).sum();
            let dense = est_from(&freq);
            let sparse = FreqEstimate::with_touched(freq.clone(), touched, 0);
            let budgets = [total.saturating_sub(1), total, total + 1, total * frac / 100];
            for budget in budgets {
                let want = reference(&freq, &sizes, budget);
                for est in [&dense, &sparse] {
                    let got = select_top_frequency(est, budget, |v| sizes[v as usize]);
                    proptest::prop_assert_eq!(&got, &want);
                }
            }
        }
    }

    #[test]
    fn coverage_metric() {
        let sel = CacheSelection { vertices: vec![1, 3, 5], bytes: 0 };
        assert!((sel.coverage_of(&[1, 2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(sel.coverage_of(&[]), 1.0);
        assert!(sel.contains(3));
        assert!(!sel.contains(2));
    }
}
