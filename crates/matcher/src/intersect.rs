//! Sorted-set intersection kernels.
//!
//! The inner loop of WCOJ matching intersects a sorted candidate buffer
//! against a neighbor view (one or two sorted runs — see
//! [`gcsm_graph::NeighborView`]). [`filter_in_place`] narrows the buffer
//! inside its own allocation: a write cursor compacts the survivors toward
//! the front, so a join step never allocates. The kernels:
//!
//! * **merge** — classic two-finger scan, `O(|a| + |b|)`. On a single-run
//!   view (old view, tail-less new view, plain list) it is branch-free:
//!   every step writes the candidate at the write cursor unconditionally
//!   and advances the write cursor, the candidate cursor and the list
//!   cursor by comparison results, so a 1:1 intersection pays no
//!   mispredicted branches;
//! * **gallop** — exponential then binary search from the cursor,
//!   `O(|a| log(|b| / |a|))`, the right choice when the candidate buffer is
//!   much smaller than the list;
//! * **blocked** — skip whole 4-entry blocks before stepping, mirroring
//!   STMatch's "unrolled set intersection with SIMD parallelism" (Sec. V-C).
//!
//! On a two-run view (prefix + appended tail) every kernel keeps one seek
//! cursor per run, walking both runs together; the kernels differ only in
//! how a cursor seeks forward.
//!
//! [`IntersectAlgo::Auto`] has three regimes by the list:buffer size ratio:
//! merge while the list is shorter than `MERGE_RATIO·|a|` (4·|a|), gallop
//! above `32·|a|` (the standard crossover), and blocked in between. All
//! kernels return the same result and charge the same *model* cost metric
//! through [`CostCounter`], so engine comparisons never depend on kernel
//! choice — the kernels exist for the wall-clock ablation bench.
//!
//! [`materialize`] decodes the base view of a tree node into the candidate
//! buffer; a tail-less view is a single slice pass (mask the tombstone bit
//! for the old view, drop tombstoned entries for the new view).

use gcsm_graph::{decode_neighbor, is_tombstone, NeighborView, VertexId, TOMBSTONE_BIT};

/// `Auto` merges while `list_len < MERGE_RATIO · cands_len`: below this
/// ratio a full scan of the list (branch-free on a single run) beats
/// skipping through it (measured with `crates/bench/benches/intersect.rs`,
/// DESIGN.md §13.1).
const MERGE_RATIO: usize = 4;

/// `Auto` gallops once `list_len > GALLOP_RATIO · cands_len`.
const GALLOP_RATIO: usize = 32;

/// Intersection kernel selector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntersectAlgo {
    Merge,
    Gallop,
    Blocked,
    /// Size-ratio dispatch between `Merge`, `Blocked` and `Gallop`.
    #[default]
    Auto,
}

/// Accumulates the model cost (element operations) of intersections.
#[derive(Debug, Default)]
pub struct CostCounter {
    pub ops: u64,
}

impl CostCounter {
    #[inline]
    fn charge(&mut self, n: u64) {
        self.ops += n;
    }
}

#[inline]
fn log2_ceil(n: usize) -> u64 {
    (usize::BITS - n.max(1).leading_zeros()) as u64
}

/// Materialize a view into `out` as decoded, sorted vertex ids.
/// Model cost: every raw entry is read once.
pub fn materialize(view: &NeighborView<'_>, out: &mut Vec<VertexId>, cost: &mut CostCounter) {
    out.clear();
    cost.charge(view.raw_len() as u64);
    let data = view.prefix.data;
    match view.tail {
        // Old (or plain) view: a tombstoned entry is still an edge.
        None if !view.prefix.skip_tombstones => {
            out.extend(data.iter().map(|&e| decode_neighbor(e)));
        }
        // Tail-less new view: a live entry has the tombstone bit clear, so
        // it is its own decoded id.
        None => out.extend(data.iter().copied().filter(|&e| !is_tombstone(e))),
        Some(_) => out.extend(view.iter_sorted()),
    }
}

/// Filter the sorted candidate buffer `cands` in place, keeping the
/// elements present in `view`. The buffer keeps its allocation. The model
/// cost is the cheaper of the merge and gallop costs (deterministic:
/// depends only on sizes), regardless of the kernel actually run.
pub fn filter_in_place(
    cands: &mut Vec<VertexId>,
    view: &NeighborView<'_>,
    algo: IntersectAlgo,
    cost: &mut CostCounter,
) {
    let merge_cost = cands.len() as u64 + view.raw_len() as u64;
    let gallop_cost = cands.len() as u64 * (log2_ceil(view.raw_len()) + 1);
    cost.charge(merge_cost.min(gallop_cost));

    let algo = match algo {
        IntersectAlgo::Auto if view.raw_len() < MERGE_RATIO * cands.len() => IntersectAlgo::Merge,
        IntersectAlgo::Auto if GALLOP_RATIO * cands.len() < view.raw_len() => IntersectAlgo::Gallop,
        IntersectAlgo::Auto => IntersectAlgo::Blocked,
        algo => algo,
    };
    match algo {
        IntersectAlgo::Merge if view.tail.is_none() => merge_single_run(cands, view),
        IntersectAlgo::Merge => retain_in_view(cands, view, seek_merge),
        IntersectAlgo::Gallop => retain_in_view(cands, view, seek_gallop),
        IntersectAlgo::Blocked | IntersectAlgo::Auto => retain_in_view(cands, view, seek_blocked),
    }
}

/// Branch-free two-finger filter of `cands` against the single run
/// `view.prefix`. Each step writes the current candidate at the write
/// cursor `k` and advances `k` on a hit, the candidate cursor `i` when the
/// candidate is not above the entry, and the list cursor `j` when the entry
/// is not above the candidate — all by comparison results, never by
/// branching on the data. An entry hits when its raw value (new view: a
/// tombstoned entry carries the mark bit, so it never equals a candidate)
/// or its decoded id (old view, plain list) equals the candidate.
#[inline(always)]
fn merge_single_run(cands: &mut Vec<VertexId>, view: &NeighborView<'_>) {
    let run = view.prefix.data;
    let hit_mask = if view.prefix.skip_tombstones { u32::MAX } else { !TOMBSTONE_BIT };
    let buf = cands.as_mut_slice();
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while let (Some(&c), Some(&e)) = (buf.get(i), run.get(j)) {
        let id = decode_neighbor(e);
        // `k <= i < buf.len()`, so the slot always exists.
        if let Some(slot) = buf.get_mut(k) {
            *slot = c;
        }
        k += usize::from(e & hit_mask == c);
        i += usize::from(c <= id);
        j += usize::from(id <= c);
    }
    cands.truncate(k);
}

/// Compact the candidates present in `view` to the front of `cands` and
/// truncate. `seek(run, pos, c)` returns the first index at or after `pos`
/// whose decoded id is `>= c` (or `run.len()`). Candidates ascend, so each
/// run cursor only moves forward and the write cursor never passes the read
/// cursor. The runs hold disjoint id sets; a candidate is kept if it is a
/// live entry of either.
#[inline(always)]
fn retain_in_view<S>(cands: &mut Vec<VertexId>, view: &NeighborView<'_>, seek: S)
where
    S: Fn(&[u32], usize, VertexId) -> usize,
{
    let prefix = view.prefix;
    let tail = view.tail.unwrap_or_default();
    let (mut pi, mut ti, mut kept) = (0usize, 0usize, 0usize);
    for read in 0..cands.len() {
        let Some(&c) = cands.get(read) else {
            break;
        };
        pi = seek(prefix.data, pi, c);
        ti = seek(tail, ti, c);
        let in_prefix = prefix.data.get(pi).is_some_and(|&e| {
            decode_neighbor(e) == c && !(prefix.skip_tombstones && is_tombstone(e))
        });
        if in_prefix || tail.get(ti) == Some(&c) {
            if let Some(slot) = cands.get_mut(kept) {
                *slot = c;
            }
            kept += 1;
        }
        if pi == prefix.data.len() && ti == tail.len() {
            break; // both runs exhausted: no later candidate can hit
        }
    }
    cands.truncate(kept);
}

/// Merge seek: step one entry at a time.
#[inline]
fn seek_merge(run: &[u32], mut pos: usize, c: VertexId) -> usize {
    while run.get(pos).is_some_and(|&e| decode_neighbor(e) < c) {
        pos += 1;
    }
    pos
}

/// Blocked seek: skip 4-entry blocks whose last entry is still below `c`,
/// then step. The scalar analog of STMatch's warp-parallel unrolled
/// intersection.
#[inline]
fn seek_blocked(run: &[u32], mut pos: usize, c: VertexId) -> usize {
    while run.get(pos + 3).is_some_and(|&e| decode_neighbor(e) < c) {
        pos += 4;
    }
    seek_merge(run, pos, c)
}

/// Galloping seek: probe `pos + 1, 2, 4, …` until an entry reaches `c`,
/// then binary-search the last doubling interval.
#[inline]
fn seek_gallop(run: &[u32], pos: usize, c: VertexId) -> usize {
    let rest = run.get(pos..).unwrap_or_default();
    let mut step = 1usize;
    while rest.get(step).is_some_and(|&e| decode_neighbor(e) < c) {
        step *= 2;
    }
    // `rest[step / 2] < c` (or `step / 2 == 0`), and `rest[step] >= c` or
    // `step` is past the end: the answer lies in `step / 2 ..= step`.
    let lo = step / 2;
    let hi = (step + 1).min(rest.len());
    let within = rest.get(lo..hi).map_or(0, |s| s.partition_point(|&e| decode_neighbor(e) < c));
    pos + lo + within
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcsm_graph::encode_tombstone;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    const ALGOS: [IntersectAlgo; 4] =
        [IntersectAlgo::Merge, IntersectAlgo::Gallop, IntersectAlgo::Blocked, IntersectAlgo::Auto];

    fn view_plain(data: &[u32]) -> NeighborView<'_> {
        NeighborView::plain(data)
    }

    /// Each kernel's result and model cost.
    fn run_all_algos(cands: &[u32], view: &NeighborView<'_>) -> Vec<(Vec<u32>, u64)> {
        ALGOS
            .iter()
            .map(|&a| {
                let mut c = cands.to_vec();
                let mut cost = CostCounter::default();
                filter_in_place(&mut c, view, a, &mut cost);
                (c, cost.ops)
            })
            .collect()
    }

    fn sorted_ids(rng: &mut SmallRng, n: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Split sorted ids into an interleaved prefix/tail pair (disjoint, each
    /// sorted), tombstoning about 30 % of the prefix.
    fn split_view_lists(rng: &mut SmallRng, ids: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let (mut prefix, mut tail) = (Vec::new(), Vec::new());
        for &v in ids {
            if rng.gen_bool(0.3) {
                tail.push(v);
            } else if rng.gen_bool(0.3) {
                prefix.push(encode_tombstone(v));
            } else {
                prefix.push(v);
            }
        }
        (prefix, tail)
    }

    #[test]
    fn all_kernels_agree_on_plain_lists() {
        let data = vec![1u32, 3, 5, 7, 9, 11, 13];
        let cands = vec![0u32, 3, 4, 7, 13, 20];
        for (r, _) in run_all_algos(&cands, &view_plain(&data)) {
            assert_eq!(r, vec![3, 7, 13]);
        }
    }

    #[test]
    fn kernels_respect_tombstones_and_tails() {
        let prefix = vec![1u32, encode_tombstone(3), 5];
        let tail = vec![2u32, 8];
        let view = NeighborView::new_view(&prefix, &tail);
        let cands = vec![1u32, 2, 3, 5, 8];
        for (r, _) in run_all_algos(&cands, &view) {
            assert_eq!(r, vec![1, 2, 5, 8]); // 3 is deleted
        }
    }

    #[test]
    fn old_view_keeps_tombstoned_entries() {
        let prefix = vec![1u32, encode_tombstone(3), 5];
        let view = NeighborView::old(&prefix);
        let cands = vec![3u32];
        for (r, _) in run_all_algos(&cands, &view) {
            assert_eq!(r, vec![3]);
        }
    }

    #[test]
    fn empty_operands() {
        let view = view_plain(&[]);
        let mut cands = vec![1u32, 2];
        let mut cost = CostCounter::default();
        filter_in_place(&mut cands, &view, IntersectAlgo::Auto, &mut cost);
        assert!(cands.is_empty());

        let data = vec![1u32, 2];
        let view = view_plain(&data);
        let mut cands: Vec<u32> = vec![];
        filter_in_place(&mut cands, &view, IntersectAlgo::Auto, &mut cost);
        assert!(cands.is_empty());
    }

    #[test]
    fn materialize_decodes_and_merges() {
        let prefix = vec![2u32, encode_tombstone(4), 9];
        let tail = vec![3u32, 10];
        let view = NeighborView::new_view(&prefix, &tail);
        let mut out = Vec::new();
        let mut cost = CostCounter::default();
        materialize(&view, &mut out, &mut cost);
        assert_eq!(out, vec![2, 3, 9, 10]);
        assert_eq!(cost.ops, 5); // 3 prefix + 2 tail raw entries
    }

    #[test]
    fn materialize_fast_paths_equal_iter_sorted() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut out = vec![7u32; 3]; // stale contents must be cleared
        for _ in 0..200 {
            let n = rng.gen_range(0..80);
            let ids = sorted_ids(&mut rng, n, 200);
            let (prefix, tail) = split_view_lists(&mut rng, &ids);
            for view in [
                NeighborView::old(&prefix),             // mask-decode copy
                NeighborView::new_view(&prefix, &[]),   // tombstone filter
                NeighborView::new_view(&prefix, &tail), // two-run merge
                NeighborView::plain(&ids),
            ] {
                let mut cost = CostCounter::default();
                materialize(&view, &mut out, &mut cost);
                assert_eq!(out, view.iter_sorted().collect::<Vec<_>>());
                assert_eq!(cost.ops, view.raw_len() as u64);
            }
        }
    }

    #[test]
    fn cost_is_min_of_merge_and_gallop() {
        let data: Vec<u32> = (0..1024).collect();
        let view = view_plain(&data);
        let mut cands = vec![512u32];
        let mut cost = CostCounter::default();
        filter_in_place(&mut cands, &view, IntersectAlgo::Auto, &mut cost);
        // gallop cost = 1 * (log2_ceil(1024)+1) = 12; merge cost = 1025.
        assert_eq!(cost.ops, 12);
    }

    #[test]
    fn filter_keeps_the_candidate_allocation() {
        let data: Vec<u32> = (0..400).step_by(3).collect();
        let tail: Vec<u32> = (1..400).step_by(7).filter(|v| v % 3 != 0).collect();
        let view = NeighborView::new_view(&data, &tail);
        for algo in ALGOS {
            let mut cands: Vec<u32> = Vec::with_capacity(512);
            cands.extend(0..300u32);
            let (ptr, cap) = (cands.as_ptr(), cands.capacity());
            filter_in_place(&mut cands, &view, algo, &mut CostCounter::default());
            assert!(!cands.is_empty() && cands.len() < 300, "{algo:?}");
            assert_eq!(cands.as_ptr(), ptr, "{algo:?} reallocated the buffer");
            assert_eq!(cands.capacity(), cap, "{algo:?} changed the capacity");
        }
    }

    #[test]
    fn randomized_kernel_agreement() {
        let mut rng = SmallRng::seed_from_u64(42);
        for round in 0..600 {
            // Candidate:list size ratios from about 1:1 down to about 1:64,
            // so `Auto` exercises both of its kernels.
            let (m, n) = if round % 3 == 0 {
                (rng.gen_range(0..6), rng.gen_range(100..400))
            } else {
                (rng.gen_range(0..60), rng.gen_range(0..60))
            };
            let ids = sorted_ids(&mut rng, n, 500);
            let cands = sorted_ids(&mut rng, m, 500);
            let (prefix, tail) = split_view_lists(&mut rng, &ids);
            for view in [NeighborView::new_view(&prefix, &tail), NeighborView::old(&prefix)] {
                let expect: Vec<u32> =
                    cands.iter().copied().filter(|&c| view.contains(c)).collect();
                let results = run_all_algos(&cands, &view);
                let cost = results.first().map(|(_, c)| *c);
                for (algo, (r, c)) in ALGOS.iter().zip(results) {
                    assert_eq!(r, expect, "{algo:?} round {round}");
                    assert_eq!(Some(c), cost, "{algo:?} charged a different cost");
                }
            }
        }
    }

    #[test]
    fn single_run_views_agree_in_every_auto_regime() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut regimes = [false; 3]; // merge, blocked, gallop
        for round in 0..40 {
            for n in 0..=64usize {
                for ratio in [1, 2, 4, 8, 16] {
                    let m = if round % 4 == 0 { n / ratio } else { n.div_ceil(ratio) };
                    let ids = sorted_ids(&mut rng, n, 3 * n as u32 + 8);
                    let cands = sorted_ids(&mut rng, m, 3 * n as u32 + 8);
                    // ~30 % of the single run tombstoned.
                    let marked: Vec<u32> = ids
                        .iter()
                        .map(|&v| if rng.gen_bool(0.3) { encode_tombstone(v) } else { v })
                        .collect();
                    let (prefix, tail) = split_view_lists(&mut rng, &ids);
                    for view in [
                        NeighborView::plain(&ids),
                        NeighborView::old(&marked),
                        NeighborView::new_view(&marked, &[]), // tombstones skipped
                        NeighborView::new_view(&prefix, &tail),
                    ] {
                        let (len, list) = (cands.len(), view.raw_len());
                        if list < MERGE_RATIO * len {
                            regimes[0] = true;
                        } else if GALLOP_RATIO * len < list {
                            regimes[2] = true;
                        } else {
                            regimes[1] = true;
                        }
                        let expect: Vec<u32> =
                            cands.iter().copied().filter(|&c| view.contains(c)).collect();
                        let mut cost = None;
                        for algo in ALGOS {
                            let mut buf = Vec::with_capacity(len + 3);
                            buf.extend_from_slice(&cands);
                            let (ptr, cap) = (buf.as_ptr(), buf.capacity());
                            let mut c = CostCounter::default();
                            filter_in_place(&mut buf, &view, algo, &mut c);
                            assert_eq!(buf, expect, "{algo:?} n={n} m={len} {view:?}");
                            assert_eq!(*cost.get_or_insert(c.ops), c.ops, "{algo:?} cost");
                            assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap), "{algo:?}");
                        }
                    }
                }
            }
        }
        assert_eq!(regimes, [true; 3], "every Auto regime ran");
    }
}
