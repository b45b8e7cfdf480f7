//! The preprocessing output: ranks, levels, and the two upward search
//! graphs.

use phast_graph::{Csr, Vertex, Weight};

/// Sentinel "this arc is original, not a shortcut".
pub const NO_MIDDLE: Vertex = Vertex::MAX;

/// A contraction hierarchy over a graph with `n` vertices.
///
/// Both search graphs are stored in **original vertex IDs**; `phast-core`
/// relabels them by level for the cache-friendly sweep.
///
/// * [`Self::forward_up`]: out-arcs `(v, w)` of `A ∪ A+` with
///   `rank(v) < rank(w)` — the graph `G↑` scanned by the forward CH search.
/// * [`Self::backward_up`]: for each `v`, arcs `(v, u)` such that
///   `(u, v) ∈ A ∪ A+` and `rank(u) > rank(v)`. Read as out-arcs this is the
///   backward query search graph; read as *incoming* arcs it is exactly the
///   downward graph `G↓` the PHAST linear sweep relaxes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hierarchy {
    /// `rank[v]`: position of `v` in the contraction order (0 = first
    /// contracted, least important).
    pub rank: Vec<u32>,
    /// `level[v]`: the PHAST level, with Lemma 4.1's guarantee that every
    /// downward arc strictly decreases the level.
    pub level: Vec<u32>,
    /// Upward out-arcs (forward search graph `G↑`).
    pub forward_up: Csr,
    /// Middle vertex per `forward_up` arc ([`NO_MIDDLE`] for original arcs).
    pub forward_middle: Vec<Vertex>,
    /// Upward in-arcs stored as out-arcs of the lower endpoint (backward
    /// search graph, and `G↓` of the sweep).
    pub backward_up: Csr,
    /// Middle vertex per `backward_up` arc.
    pub backward_middle: Vec<Vertex>,
    /// Number of shortcut arcs added (shortcuts counted once per direction
    /// they appear in).
    pub num_shortcuts: usize,
}

impl Hierarchy {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    /// Number of levels (`max level + 1`); 0 for the empty hierarchy.
    pub fn num_levels(&self) -> usize {
        self.level.iter().max().map_or(0, |&m| m as usize + 1)
    }

    /// Figure 1 of the paper: how many vertices sit on each level.
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_levels()];
        for &l in &self.level {
            hist[l as usize] += 1;
        }
        hist
    }

    /// Checks the structural invariants:
    /// ranks are a permutation, both graphs only contain rank-increasing
    /// arcs, and levels strictly decrease along downward arcs (Lemma 4.1).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        for &r in &self.rank {
            let r = r as usize;
            if r >= n || seen[r] {
                return Err("rank is not a permutation".into());
            }
            seen[r] = true;
        }
        for (name, graph) in [
            ("forward_up", &self.forward_up),
            ("backward_up", &self.backward_up),
        ] {
            // Per tail vertex, so its rank and level are read once.
            for (v, span) in graph.first().windows(2).enumerate() {
                let (rank, level) = (self.rank[v], self.level[v]);
                for a in &graph.arcs()[span[0] as usize..span[1] as usize] {
                    let w = a.head as usize;
                    if rank >= self.rank[w] {
                        return Err(format!("{name} arc ({v},{w}) does not go up in rank"));
                    }
                    if level >= self.level[w] {
                        return Err(format!("{name} arc ({v},{w}) does not go up in level"));
                    }
                }
            }
        }
        if self.forward_middle.len() != self.forward_up.num_arcs()
            || self.backward_middle.len() != self.backward_up.num_arcs()
        {
            return Err("middle-vertex arrays out of sync with arc lists".into());
        }
        Ok(())
    }

    /// Total search-graph arcs (paper: "33.8 million arcs each" on Europe).
    pub fn num_search_arcs(&self) -> usize {
        self.forward_up.num_arcs() + self.backward_up.num_arcs()
    }

    /// Heap bytes of the hierarchy (for the memory columns of Table VI).
    pub fn memory_bytes(&self) -> usize {
        self.forward_up.memory_bytes()
            + self.backward_up.memory_bytes()
            + (self.rank.len() + self.level.len()) * 4
            + (self.forward_middle.len() + self.backward_middle.len()) * 4
    }

    /// Expands one arc of the hierarchy into the underlying original-graph
    /// path (exclusive of `from`, inclusive of `to`), unpacking shortcut
    /// middles with an explicit work stack — shortcut chains nest up to
    /// `n` deep on corridor graphs, far past the call-stack budget.
    pub fn unpack_arc(
        &self,
        from: Vertex,
        to: Vertex,
        weight: Weight,
        out: &mut Vec<Vertex>,
    ) {
        let mut work = vec![(from, to, weight)];
        while let Some((f, t, w)) = work.pop() {
            // Find the arc in either search graph to learn its middle vertex.
            match self.find_middle(f, t, w) {
                None => out.push(t),
                Some(m) => {
                    let (w1, w2) = self.split_weights(f, m, t, w);
                    // Right half below the left so the left pops (and thus
                    // emits) first, preserving path order.
                    work.push((m, t, w2));
                    work.push((f, m, w1));
                }
            }
        }
    }

    /// Locates the middle vertex of arc `(from, to)` with weight `weight`,
    /// searching both directions (arcs live wherever their lower endpoint
    /// is). Returns `None` for original arcs.
    fn find_middle(&self, from: Vertex, to: Vertex, weight: Weight) -> Option<Vertex> {
        if self.rank[from as usize] < self.rank[to as usize] {
            // Upward arc: stored at `from` in forward_up.
            let range = self.forward_up.arc_range(from);
            for (i, a) in self.forward_up.out(from).iter().enumerate() {
                if a.head == to && a.weight == weight {
                    let m = self.forward_middle[range.start + i];
                    return (m != NO_MIDDLE).then_some(m);
                }
            }
        } else {
            // Downward arc: stored at `to` in backward_up.
            let range = self.backward_up.arc_range(to);
            for (i, a) in self.backward_up.out(to).iter().enumerate() {
                if a.head == from && a.weight == weight {
                    let m = self.backward_middle[range.start + i];
                    return (m != NO_MIDDLE).then_some(m);
                }
            }
        }
        panic!("arc ({from},{to},{weight}) not found in hierarchy");
    }

    /// Splits a shortcut's weight over its two halves. `middle` was
    /// contracted before both endpoints, so the first half `(from, middle)`
    /// is stored at `middle` in `backward_up` and the second half
    /// `(middle, to)` at `middle` in `forward_up`.
    ///
    /// With parallel arcs, several `(from, middle)` weights can be
    /// `<= total`, and the smallest is not necessarily the half this
    /// shortcut was built from — pairing it blindly leaves a remainder that
    /// matches no `(middle, to)` arc and makes `find_middle` panic. Only a
    /// `w1` whose complement `total - w1` actually exists as a
    /// `(middle, to)` weight is a valid split.
    fn split_weights(
        &self,
        from: Vertex,
        middle: Vertex,
        to: Vertex,
        total: Weight,
    ) -> (Weight, Weight) {
        let w1 = self
            .backward_up
            .out(middle)
            .iter()
            .filter(|a| a.head == from && a.weight <= total)
            .map(|a| a.weight)
            .filter(|&w1| {
                let w2 = total - w1;
                self.forward_up
                    .out(middle)
                    .iter()
                    .any(|a| a.head == to && a.weight == w2)
            })
            .min()
            .expect("no (from,middle)+(middle,to) pair sums to the shortcut weight");
        (w1, total - w1)
    }
}

#[cfg(test)]
mod tests {
    // Construction-dependent tests live in `contract.rs`; here we test the
    // pure accessors on a hand-built hierarchy.
    use super::*;
    use phast_graph::Arc;

    fn tiny() -> Hierarchy {
        // 3 vertices: rank 0,1,2 = vertex 0,1,2; level equal to rank.
        // Upward arcs 0->1 (w 1), 1->2 (w 2); downward arc 2->0 stored at 0.
        let forward_up = Csr::from_arc_list(3, vec![(0, Arc::new(1, 1)), (1, Arc::new(2, 2))]);
        let backward_up = Csr::from_arc_list(3, vec![(0, Arc::new(2, 5))]);
        Hierarchy {
            rank: vec![0, 1, 2],
            level: vec![0, 1, 2],
            forward_middle: vec![NO_MIDDLE; forward_up.num_arcs()],
            backward_middle: vec![NO_MIDDLE; backward_up.num_arcs()],
            forward_up,
            backward_up,
            num_shortcuts: 0,
        }
    }

    #[test]
    fn histogram_counts_levels() {
        let h = tiny();
        assert_eq!(h.level_histogram(), vec![1, 1, 1]);
        assert_eq!(h.num_levels(), 3);
    }

    #[test]
    fn validate_accepts_wellformed() {
        tiny().validate().unwrap();
    }

    #[test]
    fn validate_rejects_rank_violation() {
        let mut h = tiny();
        h.rank = vec![2, 1, 0];
        assert!(h.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_rank_permutation() {
        let mut h = tiny();
        h.rank = vec![0, 0, 2];
        assert!(h.validate().is_err());
    }

    #[test]
    fn search_arc_count() {
        assert_eq!(tiny().num_search_arcs(), 3);
    }

    #[test]
    fn unpack_pairs_parallel_arc_halves_correctly() {
        // Vertices: middle 0 (rank 0), u = 1 (rank 1), w = 2 (rank 2).
        // Two parallel arcs u -> 0 with weights 2 and 6, one arc 0 -> 2 with
        // weight 4, and the shortcut u -> 2 with weight 10 built from the
        // *heavier* parallel arc (6 + 4). A split that grabs the minimum
        // (from, middle) weight <= total would pick 2, leaving remainder 8,
        // which matches no (0, 2) arc; the complement rule must pick 6.
        let forward_up = Csr::from_arc_list(
            3,
            vec![(0, Arc::new(2, 4)), (1, Arc::new(2, 10))],
        );
        let backward_up = Csr::from_arc_list(
            3,
            vec![(0, Arc::new(1, 2)), (0, Arc::new(1, 6))],
        );
        let h = Hierarchy {
            rank: vec![0, 1, 2],
            level: vec![0, 1, 2],
            forward_middle: vec![NO_MIDDLE, 0],
            backward_middle: vec![NO_MIDDLE, NO_MIDDLE],
            forward_up,
            backward_up,
            num_shortcuts: 1,
        };
        h.validate().unwrap();
        let mut path = Vec::new();
        h.unpack_arc(1, 2, 10, &mut path);
        assert_eq!(path, vec![0, 2], "shortcut must unpack via the 6+4 pair");
    }

    #[test]
    fn unpack_survives_deep_shortcut_chains() {
        // The hierarchy a corridor produces: directed path 0 -> 1 -> ... ->
        // n-1 (unit weights) with interior vertices contracted left to
        // right, each contraction extending one nested shortcut 0 -> i+1 via
        // i. The top arc 0 -> n-1 therefore unpacks through a left-leaning
        // chain of depth ~n, which overflowed the call stack when unpacking
        // recursed per half.
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
        let h = Hierarchy {
            level: rank.clone(),
            rank,
            forward_middle: fwd_middle,
            backward_middle: bwd_middle,
            forward_up: Csr::from_arc_list(n, fwd),
            backward_up: Csr::from_arc_list(n, bwd),
            num_shortcuts: n - 2,
        };
        h.validate().unwrap();
        let mut path = Vec::new();
        h.unpack_arc(0, last, last, &mut path);
        let want: Vec<Vertex> = (1..n as Vertex).collect();
        assert_eq!(path, want, "deep chain must unpack to the full corridor");
    }
}
