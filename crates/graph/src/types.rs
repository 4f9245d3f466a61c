//! Core identifier types and the encoded-neighbor representation.

/// Vertex identifier. The paper's datasets go to 100 M vertices; `u32` covers
/// that while keeping adjacency arrays compact (half the bytes of `u64`,
/// which matters because the simulated PCIe traffic is measured in bytes).
pub type VertexId = u32;

/// Vertex label. The paper's SNAP/LDBC graphs are unlabeled in the evaluation
/// but the problem definition (Sec. II-A) includes a labeling function `L`,
/// so we carry labels end-to-end. Label 0 is the "unlabeled" wildcard-free
/// default.
pub type Label = u16;

/// Tombstone marker bit. The paper marks a deleted neighbor `v` by storing
/// `-v` in the adjacency array; since our ids are unsigned we set the MSB
/// instead. Vertex ids must therefore stay below `2^31`, which is ample for
/// every dataset in the paper.
pub const TOMBSTONE_BIT: u32 = 1 << 31;

/// True if an encoded adjacency entry is a deleted (tombstoned) edge.
#[inline(always)]
pub fn is_tombstone(encoded: u32) -> bool {
    encoded & TOMBSTONE_BIT != 0
}

/// Strip the tombstone bit, yielding the neighbor id (the paper's `|v|`).
#[inline(always)]
pub fn decode_neighbor(encoded: u32) -> VertexId {
    encoded & !TOMBSTONE_BIT
}

/// Mark an id as tombstoned (the paper's `v := -v`).
#[inline(always)]
pub fn encode_tombstone(v: VertexId) -> u32 {
    debug_assert_eq!(v & TOMBSTONE_BIT, 0, "vertex id overflows tombstone bit");
    v | TOMBSTONE_BIT
}

/// splitmix64: a cheap stateless 64-bit mixer. Hash partitioning uses it to
/// place vertices, and the walk estimator keys its per-seed random streams
/// with it.
#[inline]
pub fn splitmix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Whether an edge update inserts or deletes the edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// Edge insertion (`(e, +)` in the paper).
    Insert,
    /// Edge deletion (`(e, -)` in the paper).
    Delete,
}

impl UpdateOp {
    /// +1 for insertions, -1 for deletions: the sign an incremental match
    /// rooted at this delta edge contributes to the result multiset.
    #[inline]
    pub fn sign(self) -> i64 {
        match self {
            UpdateOp::Insert => 1,
            UpdateOp::Delete => -1,
        }
    }
}

/// One element of the update stream `[(e_0, ±), (e_1, ±), ...]`.
///
/// Graphs are undirected: an update touches the adjacency lists of both
/// endpoints. `src < dst` is *not* required; self loops are rejected at
/// application time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeUpdate {
    pub src: VertexId,
    pub dst: VertexId,
    pub op: UpdateOp,
}

impl EdgeUpdate {
    /// Insertion update.
    pub fn insert(src: VertexId, dst: VertexId) -> Self {
        Self { src, dst, op: UpdateOp::Insert }
    }

    /// Deletion update.
    pub fn delete(src: VertexId, dst: VertexId) -> Self {
        Self { src, dst, op: UpdateOp::Delete }
    }

    /// The endpoints in canonical (min, max) order, used for dedup.
    pub fn canonical(&self) -> (VertexId, VertexId) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tombstone_roundtrip() {
        for v in [0u32, 1, 1234, (1 << 31) - 1] {
            let t = encode_tombstone(v);
            assert!(is_tombstone(t));
            assert!(!is_tombstone(v));
            assert_eq!(decode_neighbor(t), v);
            assert_eq!(decode_neighbor(v), v);
        }
    }

    #[test]
    fn update_sign() {
        assert_eq!(UpdateOp::Insert.sign(), 1);
        assert_eq!(UpdateOp::Delete.sign(), -1);
    }

    #[test]
    fn canonical_order() {
        assert_eq!(EdgeUpdate::insert(5, 3).canonical(), (3, 5));
        assert_eq!(EdgeUpdate::delete(3, 5).canonical(), (3, 5));
    }
}
