//! Contraction hierarchies (CH), the preprocessing PHAST builds on.
//!
//! CH (Geisberger et al. \[8\]; Section II-B of the PHAST paper) shortcuts
//! vertices in an importance order: removing a vertex `v` adds an arc
//! `(u, w)` whenever `(u, v)·(v, w)` is the only shortest `u`-`w` path in
//! the current graph. The output is the shortcut set `A+`, a rank per
//! vertex, and — crucial for PHAST — a *level* per vertex such that every
//! downward arc strictly decreases the level (Lemma 4.1).
//!
//! This implementation follows the paper's engineering choices
//! (Section VIII-A):
//!
//! * priority `2·ED(u) + CN(u) + H(u) + 5·L(u)`, with each incident arc's
//!   contribution to `H` bounded by 3;
//! * witness searches bounded to 5 hops while the average degree of the
//!   uncontracted graph is below 5, 10 hops below 10, unlimited beyond;
//! * lazy-update ordering (re-evaluate on pop, reinsert if no longer
//!   minimal);
//! * parallel priority re-evaluation of the contracted vertex's neighbours.
//!
//! On top of the sequential reference ordering, the default contractor
//! batches whole *rounds* of independent low-priority vertices and contracts
//! them in parallel — see [`contract::Contractor`] — with a bit-identical
//! result for any thread count.

// The shared test fixtures name this crate the way `phast-core` does.
#[cfg(test)]
extern crate self as phast_ch;

pub mod contract;
#[cfg(test)]
mod fixtures;
pub mod hierarchy;
pub mod query;
pub mod search;
pub mod unpack;

pub use contract::{contract_graph, resolve_threads, with_threads, ContractionConfig, Contractor};
pub use hierarchy::Hierarchy;
pub use query::{ChQuery, UpwardSearch};
