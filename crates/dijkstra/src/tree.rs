//! Shortest path trees as a first-class object.
//!
//! Applications (Section VII) traverse trees bottom-up (reach) or top-down
//! (betweenness dependency accumulation); this type wraps distance labels
//! and parent pointers with the traversals they need.

use phast_graph::{Csr, Vertex, Weight, INF};

/// A rooted shortest path tree over a graph, given by parent pointers and
/// distance labels.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    /// The root (source) vertex.
    pub root: Vertex,
    /// `dist[v]`: distance from the root, `INF` if unreachable.
    pub dist: Vec<Weight>,
    /// `parent[v]`: predecessor of `v`, [`Self::NO_PARENT`] for the root and
    /// unreachable vertices.
    pub parent: Vec<Vertex>,
}

impl ShortestPathTree {
    /// Sentinel for "no parent".
    pub const NO_PARENT: Vertex = Vertex::MAX;

    /// Builds a tree from raw label arrays.
    pub fn new(root: Vertex, dist: Vec<Weight>, parent: Vec<Vertex>) -> Self {
        assert_eq!(dist.len(), parent.len());
        Self { root, dist, parent }
    }

    /// Number of vertices (graph size, not tree size).
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// True for the degenerate zero-vertex tree.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Number of vertices actually reached.
    pub fn num_reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d < INF).count()
    }

    /// The farthest finite distance (the source's *eccentricity*); `None`
    /// if the tree reaches nothing but the root.
    pub fn eccentricity(&self) -> Option<Weight> {
        self.dist.iter().copied().filter(|&d| d < INF).max()
    }

    /// Verifies this is a valid shortest path tree of `g`:
    /// every tree arc exists and is tight, every graph arc satisfies the
    /// triangle inequality `d(v) <= d(u) + w(u, v)`, and every reached
    /// vertex reaches the root through its parents (tight arcs of weight 0
    /// could otherwise close a cycle that holds up labels too small).
    pub fn validate(&self, g: &Csr) -> Result<(), String> {
        let n = g.num_vertices();
        if self.dist.len() != n {
            return Err(format!("size mismatch: tree {} graph {n}", self.dist.len()));
        }
        if self.dist[self.root as usize] != 0 {
            return Err("root distance must be 0".into());
        }
        for (u, v, w) in g.iter_arcs() {
            let (du, dv) = (self.dist[u as usize], self.dist[v as usize]);
            if du < INF && du + w < dv {
                return Err(format!("arc ({u},{v}) violates triangle inequality"));
            }
        }
        for v in 0..n as Vertex {
            let p = self.parent[v as usize];
            if p == Self::NO_PARENT {
                if v != self.root && self.dist[v as usize] < INF {
                    return Err(format!("reached vertex {v} lacks a parent"));
                }
                continue;
            }
            let tight = g
                .out(p)
                .iter()
                .any(|a| a.head == v && self.dist[p as usize] + a.weight == self.dist[v as usize]);
            if !tight {
                return Err(format!("tree arc ({p},{v}) is absent or not tight"));
            }
        }
        self.check_rooted()
    }

    /// Walks each reached vertex's parents until the root or a vertex
    /// already known to reach it; a walk that meets itself is a cycle.
    /// Every vertex is walked once: O(n).
    fn check_rooted(&self) -> Result<(), String> {
        const UNSEEN: u8 = 0;
        const ON_PATH: u8 = 1;
        const ROOTED: u8 = 2;
        let mut state = vec![UNSEEN; self.len()];
        state[self.root as usize] = ROOTED;
        let mut path = Vec::new();
        for v in 0..self.len() {
            if self.dist[v] >= INF {
                continue;
            }
            let mut u = v;
            while state[u] == UNSEEN {
                state[u] = ON_PATH;
                path.push(u);
                match self.parent[u] {
                    Self::NO_PARENT => return Err(format!("vertex {u} does not reach the root")),
                    p => u = p as usize,
                }
            }
            if state[u] == ON_PATH {
                return Err(format!("the parents of vertex {u} form a cycle"));
            }
            for w in path.drain(..) {
                state[w] = ROOTED;
            }
        }
        Ok(())
    }

    /// Returns the children lists of the tree (index = vertex).
    pub fn children(&self) -> Vec<Vec<Vertex>> {
        let mut kids = vec![Vec::new(); self.len()];
        for v in 0..self.len() as Vertex {
            let p = self.parent[v as usize];
            if p != Self::NO_PARENT {
                kids[p as usize].push(v);
            }
        }
        kids
    }

    /// Vertices in non-decreasing distance order (reached only) — the order
    /// Brandes-style dependency accumulation wants, reversed.
    pub fn by_distance(&self) -> Vec<Vertex> {
        let mut vs: Vec<Vertex> = (0..self.len() as Vertex)
            .filter(|&v| self.dist[v as usize] < INF)
            .collect();
        vs.sort_by_key(|&v| self.dist[v as usize]);
        vs
    }

    /// For every vertex `v`, the *height*: the maximum distance from `v` to
    /// a descendant in the tree (0 for leaves). Computed bottom-up in one
    /// pass over vertices in decreasing distance order. Used by exact reach.
    pub fn heights(&self) -> Vec<Weight> {
        let mut height = vec![0 as Weight; self.len()];
        for &v in self.by_distance().iter().rev() {
            let p = self.parent[v as usize];
            if p != Self::NO_PARENT {
                let up = height[v as usize] + (self.dist[v as usize] - self.dist[p as usize]);
                if up > height[p as usize] {
                    height[p as usize] = up;
                }
            }
        }
        height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_paths;
    use phast_graph::GraphBuilder;

    fn tree_of(g: &phast_graph::Graph, s: Vertex) -> ShortestPathTree {
        let r = shortest_paths(g.forward(), s);
        ShortestPathTree::new(s, r.dist, r.parent)
    }

    fn sample() -> phast_graph::Graph {
        let mut b = GraphBuilder::new(6);
        b.add_arc(0, 1, 2)
            .add_arc(0, 2, 4)
            .add_arc(1, 2, 1)
            .add_arc(1, 3, 7)
            .add_arc(2, 4, 3)
            .add_arc(4, 3, 2)
            .add_arc(3, 5, 1);
        b.build()
    }

    #[test]
    fn validates_its_own_tree() {
        let g = sample();
        let t = tree_of(&g, 0);
        t.validate(g.forward()).unwrap();
        assert_eq!(t.num_reached(), 6);
        assert_eq!(t.eccentricity(), Some(9)); // 0->1->2->4->3->5
    }

    #[test]
    fn rejects_corrupted_tree() {
        let g = sample();
        let mut t = tree_of(&g, 0);
        t.dist[5] += 1;
        assert!(t.validate(g.forward()).is_err());
    }

    #[test]
    fn rejects_fake_parent() {
        let g = sample();
        let mut t = tree_of(&g, 0);
        t.parent[5] = 0; // no arc 0 -> 5
        assert!(t.validate(g.forward()).is_err());
    }

    #[test]
    fn rejects_parents_that_form_a_cycle() {
        // Every label obeys the triangle inequality and both tree arcs are
        // tight, but 1 and 2 hold each other up: the true labels are 5, 5.
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1, 5).add_arc(1, 2, 0).add_arc(2, 1, 0);
        let g = b.build();
        let t = ShortestPathTree::new(0, vec![0, 3, 3], vec![ShortestPathTree::NO_PARENT, 2, 1]);
        assert!(t.validate(g.forward()).is_err());
        tree_of(&g, 0).validate(g.forward()).unwrap();
    }

    #[test]
    fn heights_are_subtree_depths() {
        let g = sample();
        let t = tree_of(&g, 0);
        let h = t.heights();
        // Leaf 5 has height 0; the root sees the whole eccentricity.
        assert_eq!(h[5], 0);
        assert_eq!(h[0], 9);
        // Vertex 4 is at distance 6 and its deepest descendant (5) at 9.
        assert_eq!(h[4], 3);
    }

    #[test]
    fn children_inverts_parents() {
        let g = sample();
        let t = tree_of(&g, 0);
        let kids = t.children();
        for (p, list) in kids.iter().enumerate() {
            for &c in list {
                assert_eq!(t.parent[c as usize], p as Vertex);
            }
        }
        let total: usize = kids.iter().map(Vec::len).sum();
        assert_eq!(total, t.num_reached() - 1);
    }

    #[test]
    fn by_distance_is_sorted() {
        let g = sample();
        let t = tree_of(&g, 0);
        let order = t.by_distance();
        assert!(order.windows(2).all(|w| t.dist[w[0] as usize] <= t.dist[w[1] as usize]));
        assert_eq!(order[0], 0);
    }
}
