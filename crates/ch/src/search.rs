//! The one heap-driven CH search: Dijkstra in an upward graph from one
//! source (Section III). PHAST's phase 1 runs it until the queue is empty,
//! over `G↑` in sweep IDs (`phast-core`) or in original IDs
//! ([`crate::UpwardSearch`]); the point-to-point query
//! ([`crate::ChQuery`]) runs one per side and settles them in turn under
//! its stopping bound.
//!
//! The search visits a few hundred vertices of an `n`-vertex graph, so its
//! state must never cost `O(n)` per query: labels live in an `n`-sized
//! array that is `INF` everywhere outside a search, and the *trail* of
//! touched vertices resets it in `O(|search space|)`. The trail is also
//! what the PHAST engine copies into its label rows — one lane per search.

use phast_graph::{Arc, Csr, Vertex, Weight, INF};
use phast_obs::Counters;
use phast_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

/// Sentinel for "no parent".
pub const NO_PARENT: Vertex = Vertex::MAX;

/// Reusable state of one upward search.
pub struct Search {
    /// Upper bound per vertex; `INF` off the trail, so `INF` doubles as
    /// the "not yet reached" mark.
    label: Vec<Weight>,
    /// Tail of the arc that set each label (valid on the trail); empty
    /// unless the search was built to record parents.
    parent: Vec<Vertex>,
    /// The vertices the current search reached, in discovery order.
    trail: Vec<Vertex>,
    queue: IndexedBinaryHeap,
}

impl Search {
    /// State for searches over `n` vertices; `parents` also allocates the
    /// parent array.
    pub fn new(n: usize, parents: bool) -> Self {
        Self {
            label: vec![INF; n],
            parent: vec![NO_PARENT; if parents { n } else { 0 }],
            trail: Vec::new(),
            queue: IndexedBinaryHeap::new(n),
        }
    }

    /// Forgets the last search and starts one from `s`.
    pub(crate) fn start(&mut self, s: Vertex) {
        for &v in &self.trail {
            self.label[v as usize] = INF;
        }
        self.trail.clear();
        self.queue.clear();
        self.label[s as usize] = 0;
        if let Some(p) = self.parent.get_mut(s as usize) {
            *p = NO_PARENT;
        }
        self.trail.push(s);
        self.queue.insert(s, 0);
    }

    /// The label the next [`Self::pop`] settles at, if any.
    #[inline]
    pub(crate) fn min_key(&self) -> Option<Weight> {
        self.queue.peek_min().map(|(_, key)| key)
    }

    /// Settles the next vertex, returning it with its (final) label.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Vertex, Weight)> {
        self.queue.pop_min()
    }

    /// Relaxes the arcs `out` of the settled vertex `v` (label `dv`).
    #[inline]
    pub(crate) fn relax(&mut self, v: Vertex, dv: Weight, out: &[Arc]) {
        for a in out {
            let w = a.head as usize;
            // `dv < INF` and arc weights are `<= INF`, so the sum cannot
            // wrap; a sum of `INF` or more is never stored.
            let cand = dv + a.weight;
            if cand < self.label[w] {
                if self.label[w] == INF {
                    self.trail.push(a.head);
                    self.queue.insert(a.head, cand);
                } else {
                    self.queue.decrease_key(a.head, cand);
                }
                self.label[w] = cand;
                if let Some(p) = self.parent.get_mut(w) {
                    *p = v;
                }
            }
        }
    }

    /// Searches `up` from `s` until the queue is empty, replacing the
    /// previous search. Every reached vertex's label is an upper bound on
    /// its distance (exact for the topmost ones) and below `INF`.
    pub fn run(&mut self, up: &Csr, s: Vertex, counters: &mut Counters) {
        self.start(s);
        while let Some((v, dv)) = self.pop() {
            let out = up.out(v);
            counters.add_upward_relaxed(out.len() as u64);
            self.relax(v, dv, out);
        }
        // Weights are non-negative: every reached vertex is inserted and
        // settled exactly once.
        counters.add_upward_settled(self.trail.len() as u64);
    }

    /// The vertices the current search reached, source first.
    #[inline]
    pub fn trail(&self) -> &[Vertex] {
        &self.trail
    }

    /// The current search's label of `v` (`INF` if it did not reach `v`).
    #[inline]
    pub fn label(&self, v: Vertex) -> Weight {
        self.label[v as usize]
    }

    /// The current search's parent of a reached vertex ([`NO_PARENT`] at
    /// the source, and everywhere when parents are not recorded).
    #[inline]
    pub fn parent(&self, v: Vertex) -> Vertex {
        self.parent.get(v as usize).copied().unwrap_or(NO_PARENT)
    }
}
