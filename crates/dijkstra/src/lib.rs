//! Baseline NSSP algorithms: Dijkstra's algorithm (generic over the queue)
//! and breadth-first search.
//!
//! These are the algorithms PHAST is measured against in Tables I, V, VI
//! and VII of the paper. Dijkstra is implemented exactly as Section II-A
//! describes: distance labels `d(v)`, parent pointers `p(v)`, a priority
//! queue of unscanned vertices with finite labels, and scan-by-minimum
//! until the queue empties.

pub mod bfs;
pub mod dijkstra;
pub mod multi;
pub mod tree;

pub use bfs::bfs;
pub use dijkstra::{Dijkstra, DijkstraResult};
pub use multi::many_trees;
pub use tree::ShortestPathTree;
