//! Compressed-sparse-row graph representations.
//!
//! The paper (Section IV-A) represents each of the two search graphs with a
//! pair of arrays: `arclist`, the arcs sorted by tail ID so that the
//! outgoing arcs of a vertex are consecutive in memory, and `first`, indexed
//! by vertex ID, where `first[v]` is the position in `arclist` of the first
//! outgoing arc of `v`. A sentinel at `first[n]` avoids special cases.
//!
//! [`Csr`] is that structure. [`Graph`] pairs a forward [`Csr`] with the
//! reverse ("incoming-arc") view that the PHAST linear sweep scans.

use crate::segment::Segment;
use crate::{Arc, Vertex, Weight};
use serde::{Deserialize, Serialize};

/// An arc of the reverse representation: the **tail** of an original arc
/// `(tail, v)`, stored in the incoming-arc list of `v`.
///
/// Layout-identical to [`Arc`]; a separate type keeps "this field is the
/// tail, not the head" visible in APIs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(C)]
pub struct ReverseArc {
    /// Source (tail) vertex of the original arc.
    pub tail: Vertex,
    /// Non-negative length of the arc.
    pub weight: Weight,
}

impl ReverseArc {
    /// Creates a new reverse arc.
    #[inline]
    pub const fn new(tail: Vertex, weight: Weight) -> Self {
        Self { tail, weight }
    }
}

/// Stable counting sort of `(key, value)` pairs into a CSR: returns
/// (`first` of length `buckets + 1`, values grouped by key in input
/// order). Every CSR of the workspace is sorted by it, so one sort fixes
/// every arc order (and the artifact bytes that record it); side arrays
/// such as shortcut middles ride along in the value.
///
/// # Panics
///
/// Panics if a key is `buckets` or more.
pub fn bucket_by_key<T: Copy>(buckets: usize, pairs: &[(u32, T)]) -> (Vec<u32>, Vec<T>) {
    let mut first = vec![0u32; buckets + 1];
    for &(k, _) in pairs {
        first[k as usize + 1] += 1;
    }
    for i in 1..=buckets {
        first[i] += first[i - 1];
    }
    let mut values: Vec<T> = Vec::with_capacity(pairs.len());
    if let Some(&(_, fill)) = pairs.first() {
        let mut cursor = first.clone();
        values.resize(pairs.len(), fill);
        for &(k, v) in pairs {
            let slot = cursor[k as usize] as usize;
            values[slot] = v;
            cursor[k as usize] += 1;
        }
    }
    (first, values)
}

/// A static directed graph in CSR form: `first[v]..first[v+1]` indexes the
/// slice of `arclist` holding the outgoing arcs of `v`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    first: Segment<u32>,
    arcs: Segment<Arc>,
}

impl Csr {
    /// Builds a CSR directly from its two arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays do not form a valid CSR: `first` must be
    /// monotonically non-decreasing, start at 0, and end with the sentinel
    /// `arcs.len()`; every arc head must be `< n`.
    pub fn from_raw(first: Vec<u32>, arcs: Vec<Arc>) -> Self {
        Self::try_from_raw(first, arcs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::from_raw`]: the same structural checks, but a
    /// malformed pair of arrays (e.g. deserialized from an untrusted or
    /// corrupted artifact) yields an error instead of a panic.
    pub fn try_from_raw(first: Vec<u32>, arcs: Vec<Arc>) -> Result<Self, String> {
        Self::try_from_segments(first.into(), arcs.into())
    }

    /// [`Self::try_from_raw`] over [`Segment`] storage — the constructor
    /// the zero-copy artifact loader uses, running the identical checks
    /// on arrays borrowed straight out of a file mapping.
    pub fn try_from_segments(first: Segment<u32>, arcs: Segment<Arc>) -> Result<Self, String> {
        if first.is_empty() {
            return Err("first[] must contain the sentinel".into());
        }
        if first[0] != 0 {
            return Err("first[0] must be 0".into());
        }
        if *first.last().unwrap() as usize != arcs.len() {
            return Err("first[n] must be the sentinel arcs.len()".into());
        }
        if !first.windows(2).all(|w| w[0] <= w[1]) {
            return Err("first[] must be non-decreasing".into());
        }
        let n = first.len() - 1;
        if !arcs.iter().all(|a| (a.head as usize) < n) {
            return Err("arc head out of range".into());
        }
        Ok(Self { first, arcs })
    }

    /// Builds a CSR from an unsorted list of `(tail, Arc)` pairs with
    /// [`bucket_by_key`]; `n` is the number of vertices.
    pub fn from_arc_list(n: usize, list: Vec<(Vertex, Arc)>) -> Self {
        assert!(list.iter().all(|&(tail, _)| (tail as usize) < n), "arc tail out of range");
        let (first, arcs) = bucket_by_key(n, &list);
        Self::from_raw(first, arcs)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.first.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The outgoing arcs of `v`, consecutive in memory.
    #[inline]
    pub fn out(&self, v: Vertex) -> &[Arc] {
        let lo = self.first[v as usize] as usize;
        let hi = self.first[v as usize + 1] as usize;
        &self.arcs[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        (self.first[v as usize + 1] - self.first[v as usize]) as usize
    }

    /// The `first` index array, including the sentinel at position `n`.
    #[inline]
    pub fn first(&self) -> &[u32] {
        &self.first
    }

    /// The full arc list, sorted by tail.
    #[inline]
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Index range of `v`'s arcs within [`Self::arcs`].
    #[inline]
    pub fn arc_range(&self, v: Vertex) -> std::ops::Range<usize> {
        self.first[v as usize] as usize..self.first[v as usize + 1] as usize
    }

    /// Iterates over all arcs as `(tail, head, weight)` triples.
    pub fn iter_arcs(&self) -> impl Iterator<Item = (Vertex, Vertex, Weight)> + '_ {
        (0..self.num_vertices() as Vertex)
            .flat_map(move |v| self.out(v).iter().map(move |a| (v, a.head, a.weight)))
    }

    /// Builds the reverse CSR: for each vertex, its **incoming** arcs, each
    /// recording the tail of the original arc. Incoming arcs are sorted by
    /// head ID (the CSR order), matching the paper's downward-graph layout.
    pub fn reversed(&self) -> ReverseCsr {
        let list = self.iter_arcs().map(|(tail, head, weight)| (head, ReverseArc::new(tail, weight)));
        ReverseCsr::from_arc_list(self.num_vertices(), list.collect())
    }

    /// Returns the same graph with every arc flipped (`(u,v)` becomes
    /// `(v,u)`), as a forward CSR.
    pub fn transposed(&self) -> Csr {
        let list: Vec<(Vertex, Arc)> = self
            .iter_arcs()
            .map(|(u, v, w)| (v, Arc::new(u, w)))
            .collect();
        Csr::from_arc_list(self.num_vertices(), list)
    }

    /// Total heap bytes used by the two arrays (for the memory columns of
    /// Tables III and VI).
    pub fn memory_bytes(&self) -> usize {
        self.first.len() * std::mem::size_of::<u32>()
            + self.arcs.len() * std::mem::size_of::<Arc>()
    }
}

/// The reverse ("incoming arcs") CSR; structurally identical to [`Csr`] but
/// stores [`ReverseArc`]s so the tail semantics are explicit.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReverseCsr {
    first: Segment<u32>,
    arcs: Segment<ReverseArc>,
}

impl ReverseCsr {
    /// Builds a reverse CSR from an unsorted list of `(head, ReverseArc)`
    /// pairs with [`bucket_by_key`]; `n` is the number of vertices.
    pub fn from_arc_list(n: usize, list: Vec<(Vertex, ReverseArc)>) -> Self {
        assert!(list.iter().all(|&(head, _)| (head as usize) < n), "arc head out of range");
        let (first, arcs) = bucket_by_key(n, &list);
        Self::try_from_raw(first, arcs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a reverse CSR directly from its two arrays, with the same
    /// structural checks as [`Csr::try_from_raw`] (every stored tail must
    /// be `< n`).
    pub fn try_from_raw(first: Vec<u32>, arcs: Vec<ReverseArc>) -> Result<Self, String> {
        Self::try_from_segments(first.into(), arcs.into())
    }

    /// [`Self::try_from_raw`] over [`Segment`] storage, for arrays
    /// borrowed out of a file mapping by the zero-copy artifact loader.
    pub fn try_from_segments(
        first: Segment<u32>,
        arcs: Segment<ReverseArc>,
    ) -> Result<Self, String> {
        if first.is_empty() {
            return Err("first[] must contain the sentinel".into());
        }
        if first[0] != 0 {
            return Err("first[0] must be 0".into());
        }
        if *first.last().unwrap() as usize != arcs.len() {
            return Err("first[n] must be the sentinel arcs.len()".into());
        }
        if !first.windows(2).all(|w| w[0] <= w[1]) {
            return Err("first[] must be non-decreasing".into());
        }
        let n = first.len() - 1;
        if !arcs.iter().all(|a| (a.tail as usize) < n) {
            return Err("arc tail out of range".into());
        }
        Ok(Self { first, arcs })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.first.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The incoming arcs of `v`, consecutive in memory.
    #[inline]
    pub fn incoming(&self, v: Vertex) -> &[ReverseArc] {
        let lo = self.first[v as usize] as usize;
        let hi = self.first[v as usize + 1] as usize;
        &self.arcs[lo..hi]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        (self.first[v as usize + 1] - self.first[v as usize]) as usize
    }

    /// The `first` index array, including the sentinel.
    #[inline]
    pub fn first(&self) -> &[u32] {
        &self.first
    }

    /// The full incoming-arc list, sorted by head.
    #[inline]
    pub fn arcs(&self) -> &[ReverseArc] {
        &self.arcs
    }

    /// Index range of `v`'s incoming arcs within [`Self::arcs`].
    #[inline]
    pub fn arc_range(&self, v: Vertex) -> std::ops::Range<usize> {
        self.first[v as usize] as usize..self.first[v as usize + 1] as usize
    }

    /// Total heap bytes used by the two arrays.
    pub fn memory_bytes(&self) -> usize {
        self.first.len() * std::mem::size_of::<u32>()
            + self.arcs.len() * std::mem::size_of::<ReverseArc>()
    }
}

/// A directed graph with both the forward (outgoing) and reverse (incoming)
/// CSR views, which shortest-path code wants simultaneously.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    forward: Csr,
    reverse: ReverseCsr,
}

impl Graph {
    /// Wraps a forward CSR, deriving the reverse view.
    pub fn from_csr(forward: Csr) -> Self {
        let reverse = forward.reversed();
        Self { forward, reverse }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.forward.num_vertices()
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.forward.num_arcs()
    }

    /// Forward CSR (outgoing arcs).
    #[inline]
    pub fn forward(&self) -> &Csr {
        &self.forward
    }

    /// Reverse CSR (incoming arcs).
    #[inline]
    pub fn reverse(&self) -> &ReverseCsr {
        &self.reverse
    }

    /// Outgoing arcs of `v`.
    #[inline]
    pub fn out(&self, v: Vertex) -> &[Arc] {
        self.forward.out(v)
    }

    /// Incoming arcs of `v`.
    #[inline]
    pub fn incoming(&self, v: Vertex) -> &[ReverseArc] {
        self.reverse.incoming(v)
    }

    /// The graph with all arcs flipped.
    pub fn transposed(&self) -> Graph {
        Graph::from_csr(self.forward.transposed())
    }

    /// Total heap bytes of both views.
    pub fn memory_bytes(&self) -> usize {
        self.forward.memory_bytes() + self.reverse.memory_bytes()
    }

    /// Checks that the two views describe the same arc multiset — the
    /// invariant deserialization could silently break.
    pub fn validate(&self) -> Result<(), String> {
        if self.forward.num_vertices() != self.reverse.num_vertices() {
            return Err("forward/reverse vertex counts differ".into());
        }
        if self.forward.num_arcs() != self.reverse.num_arcs() {
            return Err("forward/reverse arc counts differ".into());
        }
        let mut fwd: Vec<(Vertex, Vertex, Weight)> = self.forward.iter_arcs().collect();
        let mut rev: Vec<(Vertex, Vertex, Weight)> = (0..self.num_vertices() as Vertex)
            .flat_map(|v| {
                self.reverse
                    .incoming(v)
                    .iter()
                    .map(move |a| (a.tail, v, a.weight))
                    .collect::<Vec<_>>()
            })
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        if fwd != rev {
            return Err("forward and reverse views disagree".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1 (2), 0 -> 2 (1), 1 -> 3 (1), 2 -> 3 (5)
        Csr::from_arc_list(
            4,
            vec![
                (0, Arc::new(1, 2)),
                (0, Arc::new(2, 1)),
                (1, Arc::new(3, 1)),
                (2, Arc::new(3, 5)),
            ],
        )
    }

    #[test]
    fn csr_basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.out(1), &[Arc::new(3, 1)]);
        assert_eq!(g.first().len(), 5);
        assert_eq!(*g.first().last().unwrap(), 4);
    }

    #[test]
    fn counting_sort_is_stable() {
        let g = Csr::from_arc_list(
            2,
            vec![
                (0, Arc::new(1, 10)),
                (0, Arc::new(1, 20)),
                (0, Arc::new(1, 30)),
            ],
        );
        assert_eq!(
            g.out(0),
            &[Arc::new(1, 10), Arc::new(1, 20), Arc::new(1, 30)]
        );
    }

    #[test]
    fn reverse_view_matches_forward() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_arcs(), g.num_arcs());
        assert_eq!(r.incoming(0), &[]);
        assert_eq!(
            r.incoming(3),
            &[ReverseArc::new(1, 1), ReverseArc::new(2, 5)]
        );
        assert_eq!(r.incoming(1), &[ReverseArc::new(0, 2)]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let g = diamond();
        assert_eq!(g.transposed().transposed(), g);
    }

    #[test]
    fn iter_arcs_yields_all() {
        let g = diamond();
        let mut arcs: Vec<_> = g.iter_arcs().collect();
        arcs.sort_unstable();
        assert_eq!(arcs, vec![(0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_arc_list(0, vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_arcs(), 0);
    }

    #[test]
    fn single_vertex_no_arcs() {
        let g = Csr::from_arc_list(1, vec![]);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.out(0), &[]);
    }

    #[test]
    #[should_panic(expected = "arc head out of range")]
    fn rejects_out_of_range_head() {
        let _ = Csr::from_arc_list(2, vec![(0, Arc::new(7, 1))]);
    }

    #[test]
    #[should_panic(expected = "arc tail out of range")]
    fn rejects_out_of_range_tail() {
        let _ = Csr::from_arc_list(2, vec![(9, Arc::new(0, 1))]);
    }

    #[test]
    fn graph_pairs_views() {
        let g = Graph::from_csr(diamond());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.out(0).len(), 2);
        assert_eq!(g.incoming(3).len(), 2);
        assert!(g.memory_bytes() > 0);
        g.validate().unwrap();
    }

    #[test]
    fn validate_catches_inconsistent_views() {
        // Deserialize a graph whose reverse view lies about a weight.
        let g = Graph::from_csr(diamond());
        let mut json = serde_json::to_value(&g).unwrap();
        json["reverse"]["arcs"][0]["weight"] = serde_json::json!(9999);
        let tampered: Graph = serde_json::from_value(json).unwrap();
        assert!(tampered.validate().is_err());
    }
}
