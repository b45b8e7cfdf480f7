//! Hand-built hierarchies that shortcut unpacking once broke on, shared by
//! the `Hierarchy` tests of this crate and the `Phast` tests of
//! `phast-core`, which includes this file by path.

use phast_ch::hierarchy::{Hierarchy, NO_MIDDLE};
use phast_graph::{Arc, Csr, Graph, Vertex, Weight};

/// A graph, a hierarchy over it, one of its arcs `(from, to, weight)` and
/// the original-graph path that arc unpacks to (exclusive of `from`).
pub struct Unpack {
    pub graph: Graph,
    pub h: Hierarchy,
    pub arc: (Vertex, Vertex, Weight),
    pub path: Vec<Vertex>,
}

impl Unpack {
    /// Asserts that `path` (exclusive of the arc's tail) is the expected
    /// one and walks arcs of the graph.
    pub fn check(&self, path: &[Vertex]) {
        assert_eq!(path, self.path, "wrong unpacking of {:?}", self.arc);
        let mut at = self.arc.0;
        for &v in path {
            assert!(
                self.graph.out(at).iter().any(|a| a.head == v),
                "no arc {at}->{v}"
            );
            at = v;
        }
    }
}

/// Vertices: middle 0 (rank 0), u = 1 (rank 1), w = 2 (rank 2). Two
/// parallel arcs u -> 0 with weights 2 and 6, one arc 0 -> 2 with weight
/// 4, and the shortcut u -> 2 with weight 10 built from the *heavier*
/// parallel arc (6 + 4). A split that grabs the minimum (from, middle)
/// weight <= total would pick 2, leaving remainder 8, which matches no
/// (0, 2) arc; the complement rule must pick 6.
pub fn parallel_arc_halves() -> Unpack {
    let forward_up = Csr::from_arc_list(3, vec![(0, Arc::new(2, 4)), (1, Arc::new(2, 10))]);
    let backward_up = Csr::from_arc_list(3, vec![(0, Arc::new(1, 2)), (0, Arc::new(1, 6))]);
    let original = vec![
        (1, Arc::new(0, 2)),
        (1, Arc::new(0, 6)),
        (0, Arc::new(2, 4)),
    ];
    Unpack {
        graph: Graph::from_csr(Csr::from_arc_list(3, original)),
        h: Hierarchy {
            rank: vec![0, 1, 2],
            level: vec![0, 1, 2],
            forward_middle: vec![NO_MIDDLE, 0],
            backward_middle: vec![NO_MIDDLE, NO_MIDDLE],
            forward_up,
            backward_up,
            num_shortcuts: 1,
        },
        arc: (1, 2, 10),
        path: vec![0, 2],
    }
}

/// The hierarchy a corridor produces: directed path 0 -> 1 -> ... -> n-1
/// (unit weights, n = 100 000) with interior vertices contracted left to
/// right, each contraction extending one nested shortcut 0 -> i+1 via i.
/// The top arc 0 -> n-1 therefore unpacks through a left-leaning chain of
/// depth ~n, which overflows the call stack if unpacking recurses per
/// half.
pub fn deep_shortcut_chain() -> Unpack {
    let n: usize = 100_000;
    let last = (n - 1) as Vertex;
    let mut fwd = Vec::with_capacity(n - 1);
    let mut fwd_middle = Vec::with_capacity(n - 1);
    // Vertex 0 is contracted second to last; its lone out-arc is the
    // full-length shortcut via n-2.
    fwd.push((0, Arc::new(last, last)));
    fwd_middle.push(last - 1);
    let mut bwd = Vec::with_capacity(n - 2);
    let mut bwd_middle = Vec::with_capacity(n - 2);
    for i in 1..=(n - 2) as Vertex {
        // Interior vertex i: original out-arc i -> i+1, and the incoming
        // (possibly shortcut) arc 0 -> i of weight i at contraction time.
        fwd.push((i, Arc::new(i + 1, 1)));
        fwd_middle.push(NO_MIDDLE);
        bwd.push((i, Arc::new(0, i)));
        bwd_middle.push(if i >= 2 { i - 1 } else { NO_MIDDLE });
    }
    let mut rank: Vec<u32> = (0..n as u32).map(|i| i.wrapping_sub(1)).collect();
    rank[0] = (n - 2) as u32;
    rank[n - 1] = (n - 1) as u32;
    let corridor = (0..last).map(|i| (i, Arc::new(i + 1, 1))).collect();
    Unpack {
        graph: Graph::from_csr(Csr::from_arc_list(n, corridor)),
        h: Hierarchy {
            level: rank.clone(),
            rank,
            forward_middle: fwd_middle,
            backward_middle: bwd_middle,
            forward_up: Csr::from_arc_list(n, fwd),
            backward_up: Csr::from_arc_list(n, bwd),
            num_shortcuts: n - 2,
        },
        arc: (0, last, last),
        path: (1..=last).collect(),
    }
}
