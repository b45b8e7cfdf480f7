//! Shortcut unpacking (Section VII-A): a shortcut `(u, w)` with middle
//! `v` stands for the two arcs `(u, v)·(v, w)`, so expanding the
//! shortcuts of a `G+` path "in time proportional to the number of arcs on
//! it" recovers the path in `G`.
//!
//! [`Hierarchy`](crate::Hierarchy) (original IDs, ordered by rank) and
//! `phast_core::Phast` (sweep IDs, ordered by sweep position) store the
//! same arcs the same way: each arc once, at its lower endpoint, either
//! among that vertex's arcs up or among its arcs from above. That pair of
//! lists, [`ShortcutArcs`], is all the unpacker reads.

use crate::hierarchy::NO_MIDDLE;
use phast_graph::{Vertex, Weight};

/// The two arc lists a hierarchy keeps at every vertex `v`, each arc as
/// `(other endpoint, weight, middle)` with [`NO_MIDDLE`] for an original
/// arc.
pub trait ShortcutArcs {
    /// The arcs `(v, w)` to the vertices `w` above `v`.
    fn arcs_up(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight, Vertex)> + '_;
    /// The arcs `(u, v)` from the vertices `u` above `v`.
    fn arcs_down(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Weight, Vertex)> + '_;
}

/// Expands the arc `(from, to)` of the given weight into the original-
/// graph path it stands for (exclusive of `from`, inclusive of `to`),
/// appended to `out`. Unpacks with an explicit work stack: shortcut chains
/// nest up to `n` deep on corridor graphs, far past the call-stack budget.
///
/// # Panics
///
/// Panics if `(from, to, weight)` is not an arc of `h`.
pub fn unpack_arc(
    h: &impl ShortcutArcs,
    from: Vertex,
    to: Vertex,
    weight: Weight,
    out: &mut Vec<Vertex>,
) {
    let mut work = vec![(from, to, weight)];
    while let Some((f, t, w)) = work.pop() {
        match middle(h, f, t, w) {
            None => out.push(t),
            Some(m) => {
                let w1 = first_half(h, f, m, t, w);
                // Right half below the left so the left pops (and thus
                // emits) first, preserving path order.
                work.push((m, t, w - w1));
                work.push((f, m, w1));
            }
        }
    }
}

/// The middle vertex of the arc `(from, to, weight)`, `None` for an
/// original arc. The arc sits at its lower endpoint: among `from`'s arcs
/// up if `to` is above `from`, else among `to`'s arcs from above.
fn middle(h: &impl ShortcutArcs, from: Vertex, to: Vertex, weight: Weight) -> Option<Vertex> {
    let up = h.arcs_up(from).find(|&(w, wt, _)| w == to && wt == weight);
    let (_, _, m) = up
        .or_else(|| {
            h.arcs_down(to)
                .find(|&(u, wt, _)| u == from && wt == weight)
        })
        .unwrap_or_else(|| panic!("arc ({from},{to},{weight}) not found in the hierarchy"));
    (m != NO_MIDDLE).then_some(m)
}

/// The weight of the first half `(from, middle)` of a shortcut of weight
/// `total`. `middle` sits below both endpoints, so the half is among
/// `middle`'s arcs from above and the second half `(middle, to)` among its
/// arcs up.
///
/// With parallel arcs, several `(from, middle)` weights can be
/// `<= total`, and the smallest is not necessarily the half this shortcut
/// was built from — pairing it blindly leaves a remainder that matches no
/// `(middle, to)` arc. Only a half whose complement `total - w1` exists
/// as a `(middle, to)` weight is a valid split.
fn first_half(
    h: &impl ShortcutArcs,
    from: Vertex,
    middle: Vertex,
    to: Vertex,
    total: Weight,
) -> Weight {
    h.arcs_down(middle)
        .filter(|&(u, w1, _)| u == from && w1 <= total)
        .map(|(_, w1, _)| w1)
        .filter(|&w1| {
            h.arcs_up(middle)
                .any(|(w, w2, _)| w == to && w2 == total - w1)
        })
        .min()
        .expect("no (from,middle)+(middle,to) pair sums to the shortcut weight")
}
