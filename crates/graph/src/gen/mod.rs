//! Synthetic instance generators.
//!
//! The paper evaluates on the PTV Europe (18M vertices / 42M arcs) and
//! TIGER/Line USA (24M / 58M) road networks with both travel-time and
//! travel-distance metrics. Those inputs are proprietary / multi-gigabyte,
//! so this module provides substitutes (documented in `DESIGN.md`):
//!
//! * [`road::RoadNetworkConfig`] builds hierarchical, near-planar grid road
//!   networks with multiple speed tiers, which reproduce the structural
//!   properties PHAST exploits (low highway dimension, ~2.3 average degree,
//!   shallow contraction hierarchies with a heavily skewed level
//!   distribution);
//! * [`random::gnm`] builds unstructured random digraphs for correctness
//!   testing (PHAST must stay *correct* on any non-negative-weight digraph,
//!   merely *fast* on road-like ones);
//! * [`adversarial`] decorates any of them with what generators leave out:
//!   zero weights, parallel arcs, self-loops and an unreachable island.

pub mod geometric;
pub mod random;
pub mod road;

pub use geometric::UnitDiskConfig;
pub use road::{Metric, RoadNetwork, RoadNetworkConfig};

use crate::{Arc, Csr, Graph, Vertex, Weight};

/// `base` plus what generated graphs lack: every 5th arc gets weight 0,
/// every 3rd a heavier and every 7th a lighter parallel twin, every 11th a
/// self-loop at its tail, and four more vertices (`n..n + 4`) form a cycle
/// of their own that nothing else reaches. Arc order is `base`'s, each arc
/// followed by its extras. The differential batteries run every engine
/// over it against Dijkstra.
pub fn adversarial(base: &Graph) -> Graph {
    let n = base.num_vertices();
    let mut list: Vec<(Vertex, Arc)> = Vec::new();
    for (i, (u, v, w)) in base.forward().iter_arcs().enumerate() {
        list.push((u, Arc::new(v, if i % 5 == 0 { 0 } else { w })));
        if i % 3 == 0 {
            list.push((u, Arc::new(v, w + 9)));
        }
        if i % 7 == 0 {
            list.push((u, Arc::new(v, w / 2)));
        }
        if i % 11 == 0 {
            list.push((u, Arc::new(u, w / 3)));
        }
    }
    for i in 0..4 {
        let (a, b) = ((n + i) as Vertex, (n + (i + 1) % 4) as Vertex);
        list.push((a, Arc::new(b, 3 * i as Weight)));
    }
    Graph::from_csr(Csr::from_arc_list(n + 4, list))
}
