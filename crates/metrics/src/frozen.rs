//! The metric-independent topology phase and the customization pass.

use crate::weights::MetricWeights;
use phast_ch::hierarchy::{Hierarchy, NO_MIDDLE};
use phast_graph::{Arc, Csr, Graph, Vertex, Weight, INF};
use rayon::prelude::*;
use rustc_hash::FxHashMap;

/// Below this many arcs a level group is relaxed sequentially — the
/// stand-in rayon spawns real threads per call, so tiny groups are
/// cheaper inline. Parallel and sequential paths produce identical bits.
const PAR_CUTOFF: usize = 4096;

/// A contraction topology frozen independently of any metric.
///
/// Built once per graph + contraction order by [`FrozenTopology::freeze`]:
/// the *elimination closure* of the base graph under the order (every arc
/// contraction would ever create, with no witness pruning — witnesses
/// depend on weights, and this structure must serve them all), plus
/// everything the per-metric pass needs:
///
/// * per closure arc, the **lower triangles** `(u,m),(m,w)` that can
///   shorten it (`m` contracted before both endpoints);
/// * per closure arc, the **base arcs** it directly represents (a CSR,
///   because parallel base arcs stay distinct: which one is minimal
///   depends on the metric);
/// * a **schedule** grouping arcs by the elimination level of their lower
///   endpoint, in which every triangle reads only finished groups.
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
    /// Closure arc tails, indexed by arc id (creation order).
    arc_tail: Vec<Vertex>,
    /// Closure arc heads, indexed by arc id.
    arc_head: Vec<Vertex>,
    /// Triangle CSR offsets per arc (`tri_first[a]..tri_first[a+1]`).
    tri_first: Vec<u32>,
    /// Lower-triangle first legs: arc id of `(u, m)`.
    tri_lower: Vec<u32>,
    /// Lower-triangle second legs: arc id of `(m, w)`.
    tri_upper: Vec<u32>,
    /// Base-arc CSR offsets per arc (empty range = pure fill-in shortcut).
    orig_first: Vec<u32>,
    /// Base forward-CSR arc indices, grouped by closure arc.
    orig_ids: Vec<u32>,
    /// Arc ids grouped by lower-endpoint level (the processing order).
    sched: Vec<u32>,
    /// Per-level ranges into `sched`, in ascending level order.
    sched_ranges: Vec<std::ops::Range<usize>>,
    /// Base-arc count the metric arity is validated against.
    num_base_arcs: usize,
    /// Closure arcs with no base arc behind them (pure shortcuts).
    num_fill_arcs: usize,
}

/// One metric's customized closure weights, ready to
/// [`apply`](FrozenTopology::apply).
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
}

impl FrozenTopology {
    /// Runs a pure elimination game over `graph`, recording the closure
    /// arcs, their lower triangles, and the level schedule.
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
    /// advantage over witness-pruned recontraction narrows with scale on
    /// a single core (measured ≥10× at 2·10³ vertices, ~7× at 2·10⁴,
    /// ~3.4× at 10⁵); the level-parallel pass recovers the gap on
    /// multicore hardware, where recontraction stays sequential.
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
        let mut next_rank = 0u32;
        let mut level = vec![0u32; n];
        let mut tris: Vec<(u32, u32, u32)> = Vec::new();
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
            rank[v as usize] = next_rank;
            next_rank += 1;
            let in_list = std::mem::take(&mut inn[v as usize]);
            let out_list = std::mem::take(&mut out[v as usize]);
            // Every in-above × out-above pair becomes (or reinforces) a
            // closure arc, with the pair of legs recorded as one of its
            // lower triangles.
            for &(u, a1) in &in_list {
                for &(w, a2) in &out_list {
                    if u == w {
                        continue;
                    }
                    let id = get_or_add(
                        u,
                        w,
                        &mut arc_ids,
                        &mut arc_tail,
                        &mut arc_head,
                        &mut out,
                        &mut inn,
                    );
                    tris.push((id, a1, a2));
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
        debug_assert_eq!(next_rank as usize, n);

        let num_arcs = arc_tail.len();
        let (orig_first, orig_ids) = bucket_by_key(num_arcs, &base_pairs);
        let tri_pairs: Vec<(u32, (u32, u32))> =
            tris.into_iter().map(|(a, l, u)| (a, (l, u))).collect();
        let (tri_first, tri_legs) = bucket_by_key(num_arcs, &tri_pairs);
        let (tri_lower, tri_upper) = tri_legs.into_iter().unzip();

        // The schedule: arcs grouped by the elimination level of their
        // lower endpoint. Each triangle's legs have the contracted middle
        // as *their* lower endpoint, and the middle's level is strictly
        // below the level of both endpoints (they were its neighbours at
        // contraction time) — so a group only ever reads finished groups.
        let lower_level = |a: usize| {
            let (t, h) = (arc_tail[a] as usize, arc_head[a] as usize);
            let low = if rank[t] < rank[h] { t } else { h };
            level[low]
        };
        let sched_pairs: Vec<(u32, u32)> =
            (0..num_arcs).map(|a| (lower_level(a), a as u32)).collect();
        let num_levels = level.iter().max().map_or(0, |&m| m as usize + 1);
        let (group_first, sched) = bucket_by_key(num_levels, &sched_pairs);
        let sched_ranges = group_first
            .windows(2)
            .map(|w| w[0] as usize..w[1] as usize)
            .collect();

        let arcs_with_base = orig_first.windows(2).filter(|w| w[0] != w[1]).count();
        Ok(FrozenTopology {
            rank,
            level,
            arc_tail,
            arc_head,
            tri_first,
            tri_lower,
            tri_upper,
            orig_first,
            orig_ids,
            sched,
            sched_ranges,
            num_base_arcs: graph.num_arcs(),
            num_fill_arcs: num_arcs - arcs_with_base,
        })
    }

    /// Closure arcs (base-derived + fill-in shortcuts).
    pub fn num_arcs(&self) -> usize {
        self.arc_tail.len()
    }

    /// Pure fill-in shortcuts (closure arcs with no base arc behind them).
    pub fn num_fill_arcs(&self) -> usize {
        self.num_fill_arcs
    }

    /// Lower triangles recorded over all closure arcs — the work unit of
    /// one customization pass.
    pub fn num_triangles(&self) -> usize {
        self.tri_lower.len()
    }

    /// Base arcs the metric arity is validated against.
    pub fn num_base_arcs(&self) -> usize {
        self.num_base_arcs
    }

    /// Elimination levels (one customization wave per level).
    pub fn num_levels(&self) -> usize {
        self.sched_ranges.len()
    }

    /// Heap bytes of the frozen layout.
    pub fn memory_bytes(&self) -> usize {
        (self.rank.len() + self.level.len()) * 4
            + (self.arc_tail.len() + self.arc_head.len()) * 4
            + (self.tri_first.len() + self.tri_lower.len() + self.tri_upper.len()) * 4
            + (self.orig_first.len() + self.orig_ids.len()) * 4
            + self.sched.len() * 4
            + self.sched_ranges.len() * std::mem::size_of::<std::ops::Range<usize>>()
    }

    /// The customization pass: seeds every closure arc with the minimum of
    /// its base-arc weights under `metric` (or [`INF`] for pure
    /// shortcuts), then relaxes each level group's arcs over their lower
    /// triangles, in level order, in parallel within a group.
    ///
    /// Deterministic by construction: each arc owns its triangle list,
    /// reads only strictly-lower groups, and ties keep the first minimum
    /// (triangle order is fixed at freeze time).
    pub fn customize(&self, metric: &MetricWeights) -> Result<CustomizedMetric, String> {
        metric.validate(self.num_base_arcs)?;
        let a = self.num_arcs();
        let mut weight: Vec<Weight> = (0..a)
            .map(|i| {
                let r = self.orig_first[i] as usize..self.orig_first[i + 1] as usize;
                self.orig_ids[r]
                    .iter()
                    .map(|&b| metric.weights[b as usize])
                    .min()
                    .unwrap_or(INF)
            })
            .collect();
        let mut middle: Vec<Vertex> = vec![NO_MIDDLE; a];

        let mut updates: Vec<(Weight, Vertex)> = Vec::new();
        for range in &self.sched_ranges {
            let ids = &self.sched[range.clone()];
            let relax = |&aid: &u32| -> (Weight, Vertex) {
                let aid = aid as usize;
                let mut best = weight[aid];
                let mut best_mid = NO_MIDDLE;
                let tr = self.tri_first[aid] as usize..self.tri_first[aid + 1] as usize;
                for t in tr {
                    let lo = self.tri_lower[t] as usize;
                    let hi = self.tri_upper[t] as usize;
                    // Both legs are <= INF, so the u32 sum cannot wrap.
                    let cand = (weight[lo] + weight[hi]).min(INF);
                    if cand < best {
                        best = cand;
                        best_mid = self.arc_head[lo];
                    }
                }
                (best, best_mid)
            };
            if ids.len() >= PAR_CUTOFF {
                updates = ids.par_iter().map(relax).collect();
            } else {
                updates.clear();
                updates.extend(ids.iter().map(relax));
            }
            for (&aid, &(w, m)) in ids.iter().zip(&updates) {
                weight[aid as usize] = w;
                middle[aid as usize] = m;
            }
        }
        Ok(CustomizedMetric { weight, middle })
    }

    /// Materializes a customization as a reweighted base graph plus a
    /// valid [`Hierarchy`] carrying the customized closure — the inputs
    /// `phast_core::PhastBuilder::build_with_hierarchy` assembles sweep
    /// engines from, unchanged.
    pub fn apply(
        &self,
        base: &Graph,
        metric: &MetricWeights,
        custom: &CustomizedMetric,
    ) -> Result<(Graph, Hierarchy), String> {
        metric.validate(self.num_base_arcs)?;
        if base.num_arcs() != self.num_base_arcs {
            return Err(format!(
                "graph has {} arcs but the topology was frozen over {}",
                base.num_arcs(),
                self.num_base_arcs
            ));
        }
        if custom.weight.len() != self.num_arcs() {
            return Err("customized metric is for a different topology".into());
        }
        let n = self.rank.len();

        let reweighted = metric.reweighted(base);

        // Each closure arc lives at its lower endpoint: tail side in the
        // forward (upward) search graph, head side in the backward one —
        // the exact layout `contract_graph` emits.
        let mut fwd: Vec<(Vertex, Arc, Vertex)> = Vec::new();
        let mut bwd: Vec<(Vertex, Arc, Vertex)> = Vec::new();
        for a in 0..self.num_arcs() {
            let (t, h) = (self.arc_tail[a], self.arc_head[a]);
            let arc_w = custom.weight[a];
            let mid = custom.middle[a];
            if self.rank[t as usize] < self.rank[h as usize] {
                fwd.push((t, Arc::new(h, arc_w), mid));
            } else {
                bwd.push((h, Arc::new(t, arc_w), mid));
            }
        }
        let (forward_up, forward_middle) = csr_with_middles(n, fwd);
        let (backward_up, backward_middle) = csr_with_middles(n, bwd);
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
        Ok((reweighted, h))
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

/// Stable counting sort of `(key, value)` pairs into a CSR: returns
/// (`first` of length `buckets + 1`, values grouped by key in input
/// order). The deterministic backbone of the triangle, base-arc and
/// schedule layouts.
fn bucket_by_key<T: Copy>(buckets: usize, pairs: &[(u32, T)]) -> (Vec<u32>, Vec<T>) {
    let mut first = vec![0u32; buckets + 1];
    for &(k, _) in pairs {
        first[k as usize + 1] += 1;
    }
    for i in 1..=buckets {
        first[i] += first[i - 1];
    }
    let mut values: Vec<T> = Vec::with_capacity(pairs.len());
    if let Some(&(_, fill)) = pairs.first() {
        let mut cursor = first.clone();
        values.resize(pairs.len(), fill);
        for &(k, v) in pairs {
            let slot = cursor[k as usize] as usize;
            values[slot] = v;
            cursor[k as usize] += 1;
        }
    }
    (first, values)
}

/// Builds a per-vertex CSR (plus aligned middle array) from unsorted
/// `(tail, arc, middle)` triples with a stable counting sort, mirroring
/// the layout `Csr::from_arc_list` produces.
fn csr_with_middles(
    n: usize,
    list: Vec<(Vertex, Arc, Vertex)>,
) -> (Csr, Vec<Vertex>) {
    let pairs: Vec<(u32, (Arc, Vertex))> =
        list.into_iter().map(|(t, a, m)| (t, (a, m))).collect();
    let (first, values) = bucket_by_key(n, &pairs);
    let (arcs, middles) = values.into_iter().unzip();
    (Csr::from_raw(first, arcs), middles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_ch::{contract_graph, ContractionConfig};
    use phast_core::PhastBuilder;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use proptest::prelude::*;

    fn fixture() -> (Graph, Hierarchy) {
        let net = RoadNetworkConfig::new(6, 6, 11, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        (net.graph, h)
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
        for a in 0..f.num_arcs() {
            let (t, hd) = (f.arc_tail[a] as usize, f.arc_head[a] as usize);
            let (lo, hi) = if f.rank[t] < f.rank[hd] { (t, hd) } else { (hd, t) };
            assert!(
                f.level[lo] < f.level[hi],
                "closure arc {a} does not go up in level"
            );
        }
    }

    fn count_self_loops(g: &Graph) -> usize {
        g.forward().iter_arcs().filter(|&(u, v, _)| u == v).count()
    }

    #[test]
    fn triangles_only_reference_lower_levels() {
        let (g, h) = fixture();
        let f = FrozenTopology::freeze(&g, &h).unwrap();
        let lower_level = |a: usize| {
            let (t, hd) = (f.arc_tail[a] as usize, f.arc_head[a] as usize);
            f.level[if f.rank[t] < f.rank[hd] { t } else { hd }]
        };
        assert!(f.num_triangles() > 0, "road networks must produce fill-in");
        for a in 0..f.num_arcs() {
            let own = lower_level(a);
            for t in f.tri_first[a] as usize..f.tri_first[a + 1] as usize {
                assert!(lower_level(f.tri_lower[t] as usize) < own);
                assert!(lower_level(f.tri_upper[t] as usize) < own);
                // Both legs share the contracted middle vertex.
                assert_eq!(
                    f.arc_head[f.tri_lower[t] as usize],
                    f.arc_tail[f.tri_upper[t] as usize]
                );
            }
        }
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
    fn customized_phast_matches_dijkstra_on_gnm() {
        // Unstructured random digraphs: correctness must not depend on
        // road-like structure (the paper's own correctness bar).
        for seed in [1u64, 2, 3] {
            let g = gnm(180, 900, 1000, seed);
            let h = contract_graph(&g, &ContractionConfig::default());
            let f = FrozenTopology::freeze(&g, &h).unwrap();
            let m = MetricWeights::perturbed(&g, "p", 1, seed.wrapping_mul(77));
            let c = f.customize(&m).unwrap();
            let (g2, h2) = f.apply(&g, &m, &c).unwrap();
            let p = PhastBuilder::new().build_with_hierarchy(&g2, &h2);
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
            let f = FrozenTopology::freeze(&g, &h).unwrap();
            let m = MetricWeights::perturbed(&g, "prop", 1, seed ^ 0xABCD);
            let c = f.customize(&m).unwrap();
            let (g2, h2) = f.apply(&g, &m, &c).unwrap();
            let p = PhastBuilder::new().build_with_hierarchy(&g2, &h2);
            let s = (seed % n as u64) as u32;
            prop_assert_eq!(p.engine().distances(s), shortest_paths(g2.forward(), s).dist);
        }
    }
}
