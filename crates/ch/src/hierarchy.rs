//! The preprocessing output: ranks, levels, and the two upward search
//! graphs.

use crate::unpack::{self, ShortcutArcs};
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
    /// path (exclusive of `from`, inclusive of `to`) with
    /// [`crate::unpack::unpack_arc`].
    ///
    /// # Panics
    ///
    /// Panics if `(from, to, weight)` is not an arc of the hierarchy.
    pub fn unpack_arc(&self, from: Vertex, to: Vertex, weight: Weight, out: &mut Vec<Vertex>) {
        unpack::unpack_arc(self, from, to, weight, out);
    }
}

/// Arcs up are `forward_up`'s; arcs from above are `backward_up`'s.
impl ShortcutArcs for Hierarchy {
    fn arcs_up(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight, Vertex)> + '_ {
        let middles = &self.forward_middle[self.forward_up.arc_range(v)];
        let arcs = self.forward_up.out(v).iter().zip(middles);
        arcs.map(|(a, &m)| (a.head, a.weight, m))
    }

    fn arcs_down(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight, Vertex)> + '_ {
        let middles = &self.backward_middle[self.backward_up.arc_range(v)];
        let arcs = self.backward_up.out(v).iter().zip(middles);
        arcs.map(|(a, &m)| (a.head, a.weight, m))
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
        let f = crate::fixtures::parallel_arc_halves();
        f.h.validate().unwrap();
        let (from, to, weight) = f.arc;
        let mut path = Vec::new();
        f.h.unpack_arc(from, to, weight, &mut path);
        f.check(&path);
    }

    #[test]
    fn unpack_survives_deep_shortcut_chains() {
        let f = crate::fixtures::deep_shortcut_chain();
        f.h.validate().unwrap();
        let (from, to, weight) = f.arc;
        let mut path = Vec::new();
        f.h.unpack_arc(from, to, weight, &mut path);
        f.check(&path);
    }
}
