//! Phase 1 of every query: the forward CH search in `G↑` (Section III).
//!
//! The search visits a few hundred vertices of an `n`-vertex graph, so its
//! state must never cost `O(n)` per query: labels live in an `n`-sized
//! array that is `INF` everywhere outside a search, and the *trail* of
//! touched vertices resets it in `O(|search space|)`. The trail is also
//! what the engine copies into its label rows — one lane per search.

use phast_graph::{Csr, Vertex, Weight, INF};
use phast_obs::Counters;
use phast_pq::{DecreaseKeyQueue, IndexedBinaryHeap};

/// Sentinel for "no parent".
pub(crate) const NO_PARENT: Vertex = Vertex::MAX;

/// Reusable state of the upward search, in sweep IDs.
pub(crate) struct UpwardSearch {
    /// Upper bound per vertex; `INF` off the trail, so `INF` doubles as
    /// the "not yet reached" mark.
    label: Vec<Weight>,
    /// Tail of the arc that set each label (valid on the trail); empty
    /// unless the search was built to record parents.
    parent: Vec<Vertex>,
    /// The vertices the last search reached, in discovery order.
    trail: Vec<Vertex>,
    queue: IndexedBinaryHeap,
}

impl UpwardSearch {
    /// State for searches over `n` vertices; `parents` also allocates the
    /// parent array.
    pub(crate) fn new(n: usize, parents: bool) -> Self {
        Self {
            label: vec![INF; n],
            parent: vec![NO_PARENT; if parents { n } else { 0 }],
            trail: Vec::new(),
            queue: IndexedBinaryHeap::new(n),
        }
    }

    /// Searches `up` from `s` until the queue is empty, replacing the
    /// previous search's labels and trail. Every reached vertex's label is
    /// an upper bound on its distance (exact for the topmost ones) and
    /// below `INF`.
    pub(crate) fn run(&mut self, up: &Csr, s: Vertex, counters: &mut Counters) {
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
        while let Some((v, dv)) = self.queue.pop_min() {
            let out = up.out(v);
            counters.add_upward_relaxed(out.len() as u64);
            for a in out {
                let w = a.head as usize;
                // `dv < INF` and arc weights are `<= INF`, so the sum
                // cannot wrap; a sum of `INF` or more is never stored.
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
        // Weights are non-negative: every reached vertex is inserted and
        // settled exactly once.
        counters.add_upward_settled(self.trail.len() as u64);
    }

    /// The vertices the last search reached.
    pub(crate) fn trail(&self) -> &[Vertex] {
        &self.trail
    }

    /// The last search's label of `v` (`INF` if it did not reach `v`).
    #[inline]
    pub(crate) fn label(&self, v: Vertex) -> Weight {
        self.label[v as usize]
    }

    /// The last search's parent of a reached vertex ([`NO_PARENT`] at the
    /// source, and everywhere when parents are not recorded).
    #[inline]
    pub(crate) fn parent(&self, v: Vertex) -> Vertex {
        self.parent.get(v as usize).copied().unwrap_or(NO_PARENT)
    }
}
