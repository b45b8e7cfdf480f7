//! The metric-independent topology phase and the customization pass.

use crate::weights::MetricWeights;
use phast_ch::hierarchy::{Hierarchy, NO_MIDDLE};
use phast_graph::csr::bucket_by_key;
use phast_graph::{Arc, Csr, Graph, Vertex, Weight, INF};
use rustc_hash::FxHashMap;
use std::ops::Range;

/// A contraction topology frozen independently of any metric.
///
/// Built once per graph + contraction order by [`FrozenTopology::freeze`]:
/// the *elimination closure* of the base graph under the order (every arc
/// contraction would ever create, with no witness pruning — witnesses
/// depend on weights, and this structure must serve them all), laid out
/// by **middle vertex** for the per-metric pass.
///
/// Closure arcs are numbered in the customized [`Hierarchy`]'s CSR order:
/// the forward-up CSR first (arcs leaving their lower-ranked endpoint,
/// grouped by it), then the backward-up CSR (arcs entering it).
/// So the legs of every lower triangle through `m` are two contiguous id
/// ranges — `m`'s row of each CSR — and all that is stored per triangle
/// is the id of the arc it can shorten.
pub struct FrozenTopology {
    /// Elimination rank per vertex — a fresh fill-reducing order computed
    /// by [`freeze`](FrozenTopology::freeze), *not* the source
    /// hierarchy's contraction rank (that order is tuned for a
    /// witness-pruned shortcut set; replayed without witness pruning its
    /// fill-in explodes superlinearly).
    rank: Vec<u32>,
    /// Elimination level per vertex (recomputed for the closure: adjacency
    /// at contraction time bumps the neighbour above the contracted
    /// vertex, so levels strictly increase along every closure arc).
    level: Vec<u32>,
    /// Vertices in elimination order (the inverse of `rank`).
    order: Vec<Vertex>,
    /// Forward-up CSR offsets: arcs `fwd_first[v]..fwd_first[v + 1]` leave
    /// `v` for a higher-ranked head — the out-legs of middle `v`.
    fwd_first: Vec<u32>,
    /// Backward-up CSR offsets, counted from the last forward arc: arcs
    /// `F + bwd_first[v]..F + bwd_first[v + 1]` enter `v` from a
    /// higher-ranked tail — the in-legs of middle `v`.
    bwd_first: Vec<u32>,
    /// The higher-ranked endpoint of each closure arc.
    upper: Vec<Vertex>,
    /// Per middle in elimination order, per in-leg, per out-leg: the id of
    /// the arc `(u, w)` that `(u, m) + (m, w)` can shorten. A `u == w`
    /// pair holds its own in-leg, which `w1 + w2 < w1` never improves.
    targets: Vec<u32>,
    /// Base-arc CSR offsets per arc (empty range = pure fill-in shortcut).
    orig_first: Vec<u32>,
    /// Base forward-CSR arc indices, grouped by closure arc.
    orig_ids: Vec<u32>,
    /// Base-arc count the metric arity is validated against.
    num_base_arcs: usize,
    /// Closure arcs with no base arc behind them (pure shortcuts).
    num_fill_arcs: usize,
    /// Lower triangles (`targets` entries with `u != w`).
    num_triangles: usize,
}

/// One metric's customized closure weights, ready for
/// [`MetricCustomizer::assemble`](crate::MetricCustomizer::assemble).
pub struct CustomizedMetric {
    /// Customized weight per closure arc ([`INF`] = no finite path).
    weight: Vec<Weight>,
    /// Winning middle vertex per arc ([`NO_MIDDLE`] when a base arc won).
    middle: Vec<Vertex>,
}

impl CustomizedMetric {
    /// Customized weight per closure arc.
    pub fn weights(&self) -> &[Weight] {
        &self.weight
    }

    /// Winning middle vertex per closure arc ([`NO_MIDDLE`] when a base
    /// arc won).
    pub fn middles(&self) -> &[Vertex] {
        &self.middle
    }
}

impl FrozenTopology {
    /// Runs a pure elimination game over `graph`, recording the closure
    /// arcs and, per contracted vertex, the arc each of its `in × out`
    /// neighbour pairs creates or reinforces.
    ///
    /// The elimination order is computed here, greedily by minimum
    /// fill-degree (`|in| × |out|`, the number of pairs a contraction
    /// inspects) with lazily re-validated heap entries. It is *not* the
    /// hierarchy's contraction rank: that order is chosen under witness
    /// pruning, and replaying it without witnesses (which this structure
    /// must, since witnesses depend on the metric) produces superlinear
    /// fill-in — measured >100× more closure arcs than CH shortcuts on
    /// mid-size road grids. A fill-reducing order keeps the closure within
    /// a small factor of the base graph while remaining exact for every
    /// metric; an explicit nested-dissection skeleton (recursive BFS
    /// bisection) was measured *worse* than this greedy order at every
    /// scale tried (20k: 21.7M vs 12.2M triangles; 100k: 293M vs 210M) —
    /// the greedy order already discovers near-optimal grid separators.
    /// `hierarchy.rank` is only validated and used as a deterministic
    /// tie-break among equal-degree vertices.
    ///
    /// Triangle counts still grow as Θ(n^1.5) on grid-like networks under
    /// *any* order — the top separators of a √n-separator family form
    /// cliques along each root path — so the per-metric customization
    /// advantage over witness-pruned recontraction narrows with scale.
    /// A level-parallel pass did not recover it (20k benchmark instance:
    /// 95.9 % of the triangles in level groups too small for a thread
    /// hand-off, 2 threads no faster than 1); the pass is bound by memory
    /// traffic per triangle, which the by-middle layout cuts.
    pub fn freeze(graph: &Graph, hierarchy: &Hierarchy) -> Result<FrozenTopology, String> {
        let n = graph.num_vertices();
        if hierarchy.num_vertices() != n {
            return Err(format!(
                "hierarchy has {} vertices but the graph has {n}",
                hierarchy.num_vertices()
            ));
        }
        {
            let mut seen = vec![false; n];
            for &r in &hierarchy.rank {
                let r = r as usize;
                if r >= n || seen[r] {
                    return Err("hierarchy rank is not a permutation".into());
                }
                seen[r] = true;
            }
        }

        // Dynamic adjacency of the uncontracted graph; entries are
        // (neighbour, closure arc id). Kept exact: a vertex's lists hold
        // only uncontracted neighbours (contraction removes the entries).
        let mut out: Vec<Vec<(Vertex, u32)>> = vec![Vec::new(); n];
        let mut inn: Vec<Vec<(Vertex, u32)>> = vec![Vec::new(); n];
        let mut arc_tail: Vec<Vertex> = Vec::with_capacity(graph.num_arcs());
        let mut arc_head: Vec<Vertex> = Vec::with_capacity(graph.num_arcs());
        let mut arc_ids: FxHashMap<(Vertex, Vertex), u32> = FxHashMap::default();

        // Base arcs seed the closure in canonical order; parallel arcs
        // share one closure arc (which of them is minimal is decided per
        // metric), self-loops never lie on a shortest path and are
        // dropped from the closure (their weight slot simply goes unread).
        let mut base_pairs: Vec<(u32, u32)> = Vec::with_capacity(graph.num_arcs());
        for (i, (u, v, _)) in graph.forward().iter_arcs().enumerate() {
            if u == v {
                continue;
            }
            let id = get_or_add(
                u,
                v,
                &mut arc_ids,
                &mut arc_tail,
                &mut arc_head,
                &mut out,
                &mut inn,
            );
            base_pairs.push((id, i as u32));
        }

        // Greedy min fill-degree elimination with a lazy heap: entries are
        // (|in|·|out|, hierarchy rank, vertex); a popped entry whose score
        // no longer matches the live adjacency is re-pushed with the
        // current score (every adjacency change re-pushes the vertex, so
        // a fresh entry always exists). Ties break on the hierarchy rank,
        // then the vertex id — fully deterministic.
        use std::cmp::Reverse;
        let score =
            |inn: &[Vec<(Vertex, u32)>], out: &[Vec<(Vertex, u32)>], v: usize| -> u64 {
                inn[v].len() as u64 * out[v].len() as u64
            };
        let mut heap: std::collections::BinaryHeap<Reverse<(u64, u32, Vertex)>> = (0..n)
            .map(|v| Reverse((score(&inn, &out, v), hierarchy.rank[v], v as Vertex)))
            .collect();
        let mut contracted = vec![false; n];
        let mut rank = vec![0u32; n];
        let mut order: Vec<Vertex> = Vec::with_capacity(n);
        let mut level = vec![0u32; n];
        let mut targets: Vec<u32> = Vec::new();
        let mut num_triangles = 0usize;
        let mut touched: Vec<Vertex> = Vec::new();
        while let Some(Reverse((s, hr, v))) = heap.pop() {
            if contracted[v as usize] {
                continue;
            }
            let live = score(&inn, &out, v as usize);
            if live != s {
                heap.push(Reverse((live, hr, v)));
                continue;
            }
            contracted[v as usize] = true;
            rank[v as usize] = order.len() as u32;
            order.push(v);
            let in_list = std::mem::take(&mut inn[v as usize]);
            let out_list = std::mem::take(&mut out[v as usize]);
            // Every in-above × out-above pair becomes (or reinforces) a
            // closure arc: the target of the lower triangle through `v`.
            // Both lists are in arc-creation order, which is the order of
            // `v`'s rows in the final numbering.
            for &(u, a1) in &in_list {
                for &(w, _) in &out_list {
                    if u == w {
                        targets.push(a1);
                        continue;
                    }
                    targets.push(get_or_add(
                        u,
                        w,
                        &mut arc_ids,
                        &mut arc_tail,
                        &mut arc_head,
                        &mut out,
                        &mut inn,
                    ));
                    num_triangles += 1;
                }
            }
            // Remove `v` from its neighbours' lists and bump their level
            // above the (now final) level of `v`.
            touched.clear();
            for &(u, _) in &in_list {
                out[u as usize].retain(|&(x, _)| x != v);
                touched.push(u);
            }
            for &(w, _) in &out_list {
                inn[w as usize].retain(|&(x, _)| x != v);
                touched.push(w);
            }
            touched.sort_unstable();
            touched.dedup();
            let bumped = level[v as usize] + 1;
            for &x in &touched {
                if level[x as usize] < bumped {
                    level[x as usize] = bumped;
                }
                // The adjacency of `x` changed (arcs to `v` removed,
                // possibly fill arcs added): refresh its heap entry.
                heap.push(Reverse((
                    score(&inn, &out, x as usize),
                    hierarchy.rank[x as usize],
                    x,
                )));
            }
        }
        debug_assert_eq!(order.len(), n);
        // Freed before the renumbering allocates: 15–85 MiB of the peak.
        drop((out, inn, arc_ids, heap));

        // Renumber the arcs from creation order to the hierarchy's CSR order.
        // The counting sort is stable, so a vertex's row keeps creation
        // order — the order its legs were paired in above.
        let num_arcs = arc_tail.len();
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        for a in 0..num_arcs {
            let (t, h) = (arc_tail[a], arc_head[a]);
            if rank[t as usize] < rank[h as usize] {
                fwd.push((t, (a as u32, h)));
            } else {
                bwd.push((h, (a as u32, t)));
            }
        }
        let (fwd_first, fwd) = bucket_by_key(n, &fwd);
        let (bwd_first, bwd) = bucket_by_key(n, &bwd);
        let mut new_id = vec![0u32; num_arcs];
        let mut upper = Vec::with_capacity(num_arcs);
        for (new, &(old, hi)) in fwd.iter().chain(&bwd).enumerate() {
            new_id[old as usize] = new as u32;
            upper.push(hi);
        }
        for t in &mut targets {
            *t = new_id[*t as usize];
        }
        targets.shrink_to_fit();
        for (id, _) in &mut base_pairs {
            *id = new_id[*id as usize];
        }
        let (orig_first, orig_ids) = bucket_by_key(num_arcs, &base_pairs);

        let arcs_with_base = orig_first.windows(2).filter(|w| w[0] != w[1]).count();
        Ok(FrozenTopology {
            rank,
            level,
            order,
            fwd_first,
            bwd_first,
            upper,
            targets,
            orig_first,
            orig_ids,
            num_base_arcs: graph.num_arcs(),
            num_fill_arcs: num_arcs - arcs_with_base,
            num_triangles,
        })
    }

    /// Closure arcs (base-derived + fill-in shortcuts).
    pub fn num_arcs(&self) -> usize {
        self.upper.len()
    }

    /// Pure fill-in shortcuts (closure arcs with no base arc behind them).
    pub fn num_fill_arcs(&self) -> usize {
        self.num_fill_arcs
    }

    /// Lower triangles recorded over all closure arcs — the work unit of
    /// one customization pass.
    pub fn num_triangles(&self) -> usize {
        self.num_triangles
    }

    /// Base arcs the metric arity is validated against.
    pub fn num_base_arcs(&self) -> usize {
        self.num_base_arcs
    }

    /// Elimination levels.
    pub fn num_levels(&self) -> usize {
        self.level.iter().max().map_or(0, |&m| m as usize + 1)
    }

    /// Heap bytes of the frozen layout.
    pub fn memory_bytes(&self) -> usize {
        let a = [&self.rank, &self.level, &self.order, &self.fwd_first, &self.bwd_first];
        let b = [&self.upper, &self.targets, &self.orig_first, &self.orig_ids];
        4 * a.into_iter().chain(b).map(Vec::len).sum::<usize>()
    }

    /// Forward-up arcs: ids below this are forward, the rest backward.
    fn num_fwd(&self) -> usize {
        self.fwd_first[self.fwd_first.len() - 1] as usize
    }

    /// Id ranges of `m`'s in-legs `(u, m)` and out-legs `(m, w)`.
    fn legs(&self, m: usize) -> (Range<usize>, Range<usize>) {
        let f = self.num_fwd();
        (
            f + self.bwd_first[m] as usize..f + self.bwd_first[m + 1] as usize,
            self.fwd_first[m] as usize..self.fwd_first[m + 1] as usize,
        )
    }

    /// Every closure arc at the minimum of its base-arc weights under
    /// `metric` ([`INF`] for pure shortcuts).
    fn seed(&self, metric: &MetricWeights) -> Vec<Weight> {
        self.orig_first
            .windows(2)
            .map(|r| {
                self.orig_ids[r[0] as usize..r[1] as usize]
                    .iter()
                    .map(|&b| metric.weights[b as usize])
                    .min()
                    .unwrap_or(INF)
            })
            .collect()
    }

    /// The customization pass: seeds every closure arc with the minimum of
    /// its base-arc weights under `metric` (or [`INF`] for pure
    /// shortcuts), then replays the elimination game on weights — for each
    /// vertex `m` in elimination order, every in-leg `(u, m)` and out-leg
    /// `(m, w)` offers `w(u,m) + w(m,w)` to the arc `(u, w)`.
    ///
    /// Exact because every lower triangle of a leg of `m` has a middle
    /// eliminated before `m`, so both legs are final when `m` is reached.
    /// Deterministic: an arc's candidates arrive in ascending middle rank
    /// after its base seed, and ties keep the first minimum. Per triangle
    /// the pass reads one streamed target id and one in-cache leg weight,
    /// and touches one arc weight.
    pub fn customize(&self, metric: &MetricWeights) -> Result<CustomizedMetric, String> {
        metric.validate(self.num_base_arcs)?;
        let mut weight = self.seed(metric);
        let mut middle: Vec<Vertex> = vec![NO_MIDDLE; weight.len()];

        let mut out_w: Vec<Weight> = Vec::new();
        let mut rows = self.targets.as_slice();
        for &m in &self.order {
            let (ins, outs) = self.legs(m as usize);
            // No target of `m` is one of its own out-legs, so the copy
            // stays current while the weights are written.
            out_w.clear();
            out_w.extend_from_slice(&weight[outs]);
            for i in ins {
                let w1 = weight[i];
                let (row, rest) = rows.split_at(out_w.len());
                rows = rest;
                for (&t, &w2) in row.iter().zip(&out_w) {
                    // Both legs are <= INF, so the u32 sum cannot wrap.
                    let cand = (w1 + w2).min(INF);
                    if cand < weight[t as usize] {
                        weight[t as usize] = cand;
                        middle[t as usize] = m;
                    }
                }
            }
        }
        Ok(CustomizedMetric { weight, middle })
    }

    /// The customized closure as a valid [`Hierarchy`], winning middles
    /// included (for path unpacking and the CH point-to-point query).
    pub(crate) fn hierarchy(&self, custom: &CustomizedMetric) -> Result<Hierarchy, String> {
        if custom.weight.len() != self.num_arcs() {
            return Err("customized metric is for a different topology".into());
        }
        // Each closure arc lives at its lower endpoint: tail side in the
        // forward (upward) search graph, head side in the backward one —
        // the exact layout `contract_graph` emits, and the one the arcs
        // are numbered in, so each side is a linear copy.
        let side = |first: &[u32], ids: Range<usize>| {
            let arcs = ids
                .clone()
                .map(|a| Arc::new(self.upper[a], custom.weight[a]))
                .collect();
            (Csr::from_raw(first.to_vec(), arcs), custom.middle[ids].to_vec())
        };
        let f = self.num_fwd();
        let (forward_up, forward_middle) = side(&self.fwd_first, 0..f);
        let (backward_up, backward_middle) = side(&self.bwd_first, f..self.num_arcs());
        let h = Hierarchy {
            rank: self.rank.clone(),
            level: self.level.clone(),
            forward_up,
            forward_middle,
            backward_up,
            backward_middle,
            num_shortcuts: self.num_fill_arcs,
        };
        h.validate()
            .map_err(|e| format!("customized hierarchy failed validation: {e}"))?;
        Ok(h)
    }

    /// The closure with every arc weighted by its own id (and no
    /// middles): assembled into a `Phast`, its arc weights name the
    /// closure arc behind each sweep slot.
    pub(crate) fn id_hierarchy(&self) -> Result<Hierarchy, String> {
        self.hierarchy(&CustomizedMetric {
            weight: (0..self.num_arcs() as u32).collect(),
            middle: vec![NO_MIDDLE; self.num_arcs()],
        })
    }
}

/// Looks up or creates the closure arc `(u, v)`, threading the dynamic
/// adjacency. Free function (not a method) so the borrow splits cleanly
/// inside the contraction loop.
#[allow(clippy::too_many_arguments)]
fn get_or_add(
    u: Vertex,
    v: Vertex,
    arc_ids: &mut FxHashMap<(Vertex, Vertex), u32>,
    arc_tail: &mut Vec<Vertex>,
    arc_head: &mut Vec<Vertex>,
    out: &mut [Vec<(Vertex, u32)>],
    inn: &mut [Vec<(Vertex, u32)>],
) -> u32 {
    *arc_ids.entry((u, v)).or_insert_with(|| {
        let id = arc_tail.len() as u32;
        arc_tail.push(u);
        arc_head.push(v);
        out[u as usize].push((v, id));
        inn[v as usize].push((u, id));
        id
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricCustomizer;
    use phast_ch::{contract_graph, ContractionConfig};
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_graph::MAX_WEIGHT;
    use proptest::prelude::*;

    fn fixture() -> (Graph, Hierarchy) {
        let net = RoadNetworkConfig::new(6, 6, 11, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        (net.graph, h)
    }

    /// The lower-ranked endpoint of every closure arc (the vertex whose
    /// CSR row holds it).
    fn lower_endpoints(f: &FrozenTopology) -> Vec<Vertex> {
        let mut lower = vec![0; f.num_arcs()];
        for m in 0..f.rank.len() {
            let (ins, outs) = f.legs(m);
            ins.chain(outs).for_each(|a| lower[a] = m as Vertex);
        }
        lower
    }

    /// Reference twin of [`FrozenTopology::customize`]: the per-arc gather
    /// relaxation the by-middle loop replaced. Each arc, in order of its
    /// lower endpoint's rank, takes the minimum over its own lower
    /// triangles, listed in middle order.
    fn customize_by_arc(f: &FrozenTopology, metric: &MetricWeights) -> CustomizedMetric {
        let lower = lower_endpoints(f);
        let mut tris: Vec<Vec<(usize, usize)>> = vec![Vec::new(); f.num_arcs()];
        let mut targets = f.targets.iter();
        for &m in &f.order {
            let (ins, outs) = f.legs(m as usize);
            for i in ins {
                for o in outs.clone() {
                    let t = *targets.next().unwrap() as usize;
                    if t != i {
                        tris[t].push((i, o));
                    }
                }
            }
        }
        assert!(targets.next().is_none());
        let mut weight = f.seed(metric);
        let mut middle = vec![NO_MIDDLE; f.num_arcs()];
        let mut ids: Vec<usize> = (0..f.num_arcs()).collect();
        ids.sort_by_key(|&a| f.rank[lower[a] as usize]);
        for a in ids {
            for &(i, o) in &tris[a] {
                let cand = (weight[i] + weight[o]).min(INF);
                if cand < weight[a] {
                    weight[a] = cand;
                    middle[a] = lower[i];
                }
            }
        }
        CustomizedMetric { weight, middle }
    }

    /// `customize` must equal the reference twin, middles included.
    fn assert_matches_twin(f: &FrozenTopology, m: &MetricWeights) -> CustomizedMetric {
        let got = f.customize(m).unwrap();
        let want = customize_by_arc(f, m);
        assert_eq!(got.weight, want.weight, "weights, metric `{}`", m.name);
        assert_eq!(got.middle, want.middle, "middles, metric `{}`", m.name);
        got
    }

    #[test]
    fn freeze_rejects_mismatched_hierarchy() {
        let (g, h) = fixture();
        let other = RoadNetworkConfig::new(3, 3, 1, Metric::TravelTime).build();
        assert!(FrozenTopology::freeze(&other.graph, &h).is_err());
        let mut bad = h.clone();
        bad.rank[0] = bad.rank[1];
        assert!(FrozenTopology::freeze(&g, &bad).is_err());
    }

    #[test]
    fn closure_levels_strictly_increase_along_arcs() {
        let (g, h) = fixture();
        let f = FrozenTopology::freeze(&g, &h).unwrap();
        assert!(f.num_arcs() >= g.num_arcs() - count_self_loops(&g));
        let lower = lower_endpoints(&f);
        for (a, (&lo, &hi)) in lower.iter().zip(&f.upper).enumerate() {
            let (lo, hi) = (lo as usize, hi as usize);
            assert!(f.rank[lo] < f.rank[hi], "closure arc {a} does not go up in rank");
            assert!(
                f.level[lo] < f.level[hi],
                "closure arc {a} does not go up in level"
            );
        }
    }

    fn count_self_loops(g: &Graph) -> usize {
        g.forward().iter_arcs().filter(|&(u, v, _)| u == v).count()
    }

    /// What the by-middle loop relies on: middles come in ascending rank,
    /// each one's legs are exactly its rows of the two CSRs, and the
    /// target of a pair joins the in-leg's tail to the out-leg's head,
    /// both ranked above the middle.
    #[test]
    fn targets_join_the_upper_neighbours_of_each_middle() {
        let (g, h) = fixture();
        let f = FrozenTopology::freeze(&g, &h).unwrap();
        let lower = lower_endpoints(&f);
        let num_fwd = f.num_fwd();
        // (tail, head) of a closure arc.
        let ends = |a: usize| {
            if a < num_fwd {
                (lower[a], f.upper[a])
            } else {
                (f.upper[a], lower[a])
            }
        };
        for (r, &m) in f.order.iter().enumerate() {
            assert_eq!(f.rank[m as usize] as usize, r, "order is not rank's inverse");
        }
        let mut targets = f.targets.iter();
        let mut real = 0;
        for &m in &f.order {
            let (ins, outs) = f.legs(m as usize);
            for i in ins {
                let (u, into) = ends(i);
                assert_eq!(into, m, "in-leg {i} does not enter its middle");
                assert!(f.rank[u as usize] > f.rank[m as usize]);
                for o in outs.clone() {
                    let (from, w) = ends(o);
                    assert_eq!(from, m, "out-leg {o} does not leave its middle");
                    assert!(f.rank[w as usize] > f.rank[m as usize]);
                    let t = *targets.next().expect("one target per pair") as usize;
                    if u == w {
                        assert_eq!(t, i, "a u == w pair must hold its in-leg");
                    } else {
                        assert_eq!(ends(t), (u, w), "target of ({u},{m},{w})");
                        real += 1;
                    }
                }
            }
        }
        assert!(targets.next().is_none(), "targets beyond the last middle");
        assert!(real > 0, "road networks must produce fill-in");
        assert_eq!(f.num_triangles(), real, "num_triangles counts real pairs only");
        assert!(real < f.targets.len(), "two-way roads must produce u == w pairs");
    }

    #[test]
    fn customization_is_deterministic() {
        let (g, h) = fixture();
        let f = FrozenTopology::freeze(&g, &h).unwrap();
        let m = MetricWeights::perturbed(&g, "p", 1, 99);
        let a = f.customize(&m).unwrap();
        let b = f.customize(&m).unwrap();
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.middle, b.middle);
    }

    #[test]
    fn customize_rejects_wrong_arity() {
        let (g, h) = fixture();
        let f = FrozenTopology::freeze(&g, &h).unwrap();
        let m = MetricWeights::new("short", 1, vec![1; 3]).unwrap();
        assert!(f.customize(&m).is_err());
    }

    #[test]
    fn extreme_metrics_match_the_twin_and_clamp() {
        let (g, h) = fixture();
        let f = FrozenTopology::freeze(&g, &h).unwrap();
        let flat = |name: &str, w: Weight| {
            MetricWeights::new(name, 1, vec![w; g.num_arcs()]).unwrap()
        };
        // Every sum of two legs overflows INF: it must clamp, never wrap.
        let c = assert_matches_twin(&f, &flat("max", MAX_WEIGHT));
        assert!(c.weight.iter().all(|&w| (MAX_WEIGHT..=INF).contains(&w)));
        let c = assert_matches_twin(&f, &flat("zero", 0));
        assert!(c.weight.iter().all(|&w| w == 0));
        // Uniform: every tie is live, so the middles pin the tie-break.
        assert_matches_twin(&f, &flat("uniform", 7));
    }

    #[test]
    fn customized_phast_matches_dijkstra_on_gnm() {
        // Unstructured random digraphs: correctness must not depend on
        // road-like structure (the paper's own correctness bar).
        for seed in [1u64, 2, 3] {
            let g = gnm(180, 900, 1000, seed);
            let h = contract_graph(&g, &ContractionConfig::default());
            let c = MetricCustomizer::new(g.clone(), &h).unwrap();
            let m = MetricWeights::perturbed(&g, "p", 1, seed.wrapping_mul(77));
            assert_matches_twin(c.frozen(), &m);
            let (p, _) = c.build(&m).unwrap();
            let g2 = m.reweighted(&g);
            for s in [0u32, 50, 179] {
                assert_eq!(
                    p.engine().distances(s),
                    shortest_paths(g2.forward(), s).dist,
                    "gnm seed {seed}, tree from {s}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(12))]

        /// Random graph, random metric: customized PHAST == Dijkstra.
        #[test]
        fn customized_matches_dijkstra(
            n in 2usize..60,
            extra in 0usize..180,
            seed in 0u64..1_000,
        ) {
            let g = gnm(n, n + extra, 1000, seed);
            let h = contract_graph(&g, &ContractionConfig::default());
            let c = MetricCustomizer::new(g.clone(), &h).unwrap();
            let m = MetricWeights::perturbed(&g, "prop", 1, seed ^ 0xABCD);
            assert_matches_twin(c.frozen(), &m);
            let (p, _) = c.build(&m).unwrap();
            let s = (seed % n as u64) as u32;
            let want = shortest_paths(m.reweighted(&g).forward(), s).dist;
            prop_assert_eq!(p.engine().distances(s), want);
        }
    }
}
