//! Shared estimator types.

use gcsm_graph::VertexId;
use std::borrow::Cow;

/// Walk configuration.
#[derive(Clone, Copy, Debug)]
pub struct WalkParams {
    /// Number of simulated walks `M` **per delta plan**. The paper sets
    /// `M = |ΔE|·D^{n−2}/32^n` (Sec. VI-A); engines compute that via
    /// [`crate::theory::recommended_walks`].
    pub walks: u64,
    /// RNG seed (runs are reproducible given the seed).
    pub seed: u64,
}

impl Default for WalkParams {
    fn default() -> Self {
        Self { walks: 1024, seed: 0x9e3779b97f4a7c15 }
    }
}

/// The estimation result.
///
/// The merged estimator also records which vertices it touched, so ranking,
/// the smallest-estimate check, merging and cache selection cost
/// O(touched) rather than O(|V|). An estimate built with [`Self::new`] (and
/// then written through `freq`, as the naive estimator and tests do) keeps
/// no such list; those operations then scan `freq`.
#[derive(Clone, Debug, Default)]
pub struct FreqEstimate {
    /// Estimated access frequency per vertex (`C̃_v` averaged over walks);
    /// `0.0` for vertices never sampled. Length = number of graph vertices
    /// (the paper's O(|V|) space). Write nonzero entries only into an
    /// estimate built with [`Self::new`]: a touched list does not see them.
    pub freq: Vec<f64>,
    /// Set-intersection element operations spent by the estimator — the
    /// "FE" overhead of the paper's Table II, charged at CPU cost by the
    /// engines.
    pub walk_ops: u64,
    /// Every vertex with a nonzero estimate, ascending, when recorded.
    touched: Option<Vec<VertexId>>,
}

impl FreqEstimate {
    /// An all-zero estimate over `n` vertices without a touched list.
    pub fn new(n: usize) -> Self {
        Self { freq: vec![0.0; n], walk_ops: 0, touched: None }
    }

    /// An estimate whose nonzero entries are exactly `touched` (ascending).
    #[cfg(test)]
    pub(crate) fn with_touched(freq: Vec<f64>, touched: Vec<VertexId>, walk_ops: u64) -> Self {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched list not ascending");
        Self { freq, walk_ops, touched: Some(touched) }
    }

    /// This estimate's allocation as an all-zero estimate over `n` vertices
    /// with an empty touched list: a recorded touched list zeroes just its
    /// slots; otherwise `freq` is refilled (same length) or reallocated.
    pub(crate) fn reset(mut self, n: usize) -> Self {
        let mut touched = match self.touched.take() {
            Some(touched) if self.freq.len() == n => {
                for &v in &touched {
                    if let Some(f) = self.freq.get_mut(v as usize) {
                        *f = 0.0;
                    }
                }
                touched
            }
            _ if self.freq.len() == n => {
                self.freq.fill(0.0);
                Vec::new()
            }
            _ => {
                self.freq = vec![0.0; n];
                Vec::new()
            }
        };
        touched.clear();
        Self { freq: self.freq, walk_ops: 0, touched: Some(touched) }
    }

    /// Fill this all-zero estimate through `f(freq, touched)`, which pushes
    /// every slot it makes nonzero onto `touched` once; the list is then
    /// sorted and kept.
    pub(crate) fn record_touched(&mut self, f: impl FnOnce(&mut [f64], &mut Vec<VertexId>)) {
        let mut touched = self.touched.take().unwrap_or_default();
        f(&mut self.freq, &mut touched);
        touched.sort_unstable();
        self.touched = Some(touched);
    }

    /// Vertices the estimate may be nonzero at, ascending: the recorded
    /// touched list, or a scan of `freq` for an estimate without one.
    pub fn touched(&self) -> Cow<'_, [VertexId]> {
        match &self.touched {
            Some(t) => Cow::Borrowed(t),
            None => Cow::Owned(
                (0..self.freq.len() as VertexId).filter(|&v| self.freq[v as usize] > 0.0).collect(),
            ),
        }
    }

    /// `(vertex, estimate)` for every nonzero estimate, ascending by id.
    pub(crate) fn nonzero(&self) -> Vec<(VertexId, f64)> {
        self.touched()
            .iter()
            .map(|&v| (v, self.freq[v as usize]))
            .filter(|&(_, f)| f > 0.0)
            .collect()
    }

    /// Vertices with nonzero estimates, ranked by descending estimate
    /// (ties by ascending id).
    pub fn ranked(&self) -> Vec<(VertexId, f64)> {
        let mut v = self.nonzero();
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Smallest nonzero estimate (the `C_y` plugged into the Eq. (5)
    /// adaptivity check).
    pub fn min_nonzero(&self) -> Option<f64> {
        self.nonzero().into_iter().map(|(_, f)| f).reduce(f64::min)
    }

    /// Merge another estimate (averaging handled by caller's weights). A
    /// touched list on `self` grows by the vertices `other` adds.
    pub fn add_assign(&mut self, other: &FreqEstimate) {
        assert_eq!(self.freq.len(), other.freq.len());
        let added = other.nonzero();
        for &(v, f) in &added {
            self.freq[v as usize] += f;
        }
        if let Some(mine) = &mut self.touched {
            mine.extend(added.iter().map(|&(v, _)| v));
            mine.sort_unstable();
            mine.dedup();
        }
        self.walk_ops += other.walk_ops;
    }

    /// Scale all estimates by `s` (used when averaging pooled runs).
    pub fn scale(&mut self, s: f64) {
        for f in &mut self.freq {
            *f *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_orders_descending() {
        let mut e = FreqEstimate::new(4);
        e.freq = vec![0.0, 5.0, 2.0, 5.0];
        assert_eq!(e.ranked(), vec![(1, 5.0), (3, 5.0), (2, 2.0)]);
        assert_eq!(e.min_nonzero(), Some(2.0));
    }

    #[test]
    fn empty_estimate() {
        let e = FreqEstimate::new(3);
        assert!(e.ranked().is_empty());
        assert_eq!(e.min_nonzero(), None);
    }

    #[test]
    fn add_and_scale() {
        let mut a = FreqEstimate::new(2);
        a.freq = vec![1.0, 2.0];
        a.walk_ops = 10;
        let mut b = FreqEstimate::new(2);
        b.freq = vec![3.0, 4.0];
        b.walk_ops = 5;
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.freq, vec![2.0, 3.0]);
        assert_eq!(a.walk_ops, 15);
    }
}
