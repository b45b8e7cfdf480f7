//! CH preprocessing: importance ordering and vertex contraction.
//!
//! Two contractors share the priority function and witness machinery:
//!
//! * [`Contractor::ParallelRounds`] (the default) contracts an independent
//!   set of locally-minimal-priority vertices per round, computing all their
//!   shortcuts in parallel — the scheme of *Doing More for Less — Cache-Aware
//!   Parallel CH Preprocessing* (arXiv:1208.2543) and *Parallel Contraction
//!   Hierarchies Can Be Efficient and Scalable* (arXiv:2412.18008). The
//!   result is bit-identical for any thread count: selection depends only on
//!   deterministic priorities (ties broken by vertex id), each vertex's
//!   shortcuts are computed against the frozen round-start graph, and
//!   contractions are applied sequentially in `(priority, id)` order.
//! * [`Contractor::LazyHeap`] is the classic one-vertex-at-a-time loop with
//!   lazy priority updates, kept for differential testing and as the
//!   reference ordering.
//!
//! Witness searches run on flat timestamped arrays and a reusable bounded
//! heap ([`phast_graph::scratch`]) instead of a hash map per search, so the
//! hottest preprocessing path performs no steady-state allocation.

use crate::hierarchy::{Hierarchy, NO_MIDDLE};
use phast_graph::csr::bucket_by_key;
use phast_graph::scratch::{LocalHeap, TimestampedDist};
use phast_graph::{Arc, Csr, Graph, Vertex, Weight, INF};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which contraction strategy [`contract_graph`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contractor {
    /// Round-based: contract an independent set of local priority minima per
    /// round, shortcuts computed in parallel. Bit-deterministic for any
    /// thread count.
    ParallelRounds,
    /// Classic sequential lazy-heap ordering (one vertex at a time, lazy
    /// priority recomputation on pop).
    LazyHeap,
}

/// Tuning knobs for the contraction. The defaults are the paper's
/// (Section VIII-A).
#[derive(Clone, Debug)]
pub struct ContractionConfig {
    /// `(avg_degree_threshold, hop_limit)` stages: the witness search is
    /// bounded by `hop_limit` while the average degree of the uncontracted
    /// graph is at most the threshold. Beyond the last stage the hop limit
    /// is unbounded.
    pub hop_stages: Vec<(f64, u32)>,
    /// Safety cap on settled vertices per witness search in the unbounded
    /// stage. Capping only ever *adds* shortcuts; correctness is unaffected.
    pub witness_settle_cap: usize,
    /// Coefficient of the edge difference `ED(u)` in the priority.
    pub ed_coef: i64,
    /// Coefficient of the contracted-neighbours count `CN(u)`.
    pub cn_coef: i64,
    /// Coefficient of the shortcut-hops term `H(u)`.
    pub h_coef: i64,
    /// Coefficient of the level term `L(u)`.
    pub level_coef: i64,
    /// Cap on each incident arc's contribution to `H(u)`.
    pub h_arc_cap: u32,
    /// Contraction strategy.
    pub contractor: Contractor,
    /// Worker threads for the parallel phases. `0` means: honour the
    /// `PHAST_THREADS` environment variable if set, else use the ambient
    /// rayon pool. Any positive value builds a dedicated pool of that size
    /// for the duration of the call.
    pub threads: usize,
}

impl Default for ContractionConfig {
    fn default() -> Self {
        Self {
            hop_stages: vec![(5.0, 5), (10.0, 10)],
            witness_settle_cap: 2000,
            ed_coef: 2,
            cn_coef: 1,
            h_coef: 1,
            level_coef: 5,
            h_arc_cap: 3,
            contractor: Contractor::ParallelRounds,
            threads: 0,
        }
    }
}

impl ContractionConfig {
    /// The paper's priority `2·ED + CN + H + 5·L` (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Pure edge-difference ordering — the simplest classic priority. The
    /// paper notes its term "has limited influence on the performance of
    /// PHAST. It works well with any function that produces a good
    /// contraction hierarchy"; this preset is the ablation baseline.
    pub fn edge_difference_only() -> Self {
        Self {
            ed_coef: 1,
            cn_coef: 0,
            h_coef: 0,
            level_coef: 0,
            ..Self::default()
        }
    }

    /// A strongly level-averse ordering: flattens the hierarchy (fewer
    /// levels, which helps the GPU's one-kernel-per-level regime) at the
    /// cost of more shortcuts.
    pub fn flat_levels() -> Self {
        Self {
            level_coef: 20,
            ..Self::default()
        }
    }

    /// The sequential reference contractor (lazy-heap ordering).
    pub fn sequential() -> Self {
        Self {
            contractor: Contractor::LazyHeap,
            ..Self::default()
        }
    }
}

/// Resolves a thread-count knob: a positive value wins; `0` falls back to
/// the `PHAST_THREADS` environment variable (malformed values are warned
/// about and ignored); `0` with no env var means "ambient rayon pool".
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    match std::env::var("PHAST_THREADS") {
        Ok(s) => s.trim().parse().unwrap_or_else(|_| {
            eprintln!("warning: ignoring malformed PHAST_THREADS={s:?}");
            0
        }),
        Err(_) => 0,
    }
}

/// Runs `f` with rayon parallelism capped at `threads` workers (after
/// [`resolve_threads`]); `0` runs on the ambient pool. Used by the
/// contraction entry point and by recontraction/customization callers that
/// expose a `--threads` knob.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let t = resolve_threads(threads);
    if t == 0 {
        f()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("failed to build rayon pool")
            .install(f)
    }
}

/// An arc of the dynamic (partially contracted) graph.
#[derive(Clone, Copy, Debug)]
struct DynArc {
    /// The other endpoint (head for out-arcs, tail for in-arcs).
    other: Vertex,
    weight: Weight,
    /// Number of original arcs this (possibly shortcut) arc represents.
    hops: u32,
    /// Middle vertex if this is a shortcut, [`NO_MIDDLE`] otherwise.
    middle: Vertex,
}

/// A shortcut the contraction of some vertex would require.
#[derive(Clone, Copy, Debug)]
struct Shortcut {
    from: Vertex,
    to: Vertex,
    weight: Weight,
    hops_in: u32,
    hops_out: u32,
}

/// The dynamic graph: adjacency among uncontracted vertices only.
struct DynGraph {
    out: Vec<Vec<DynArc>>,
    inn: Vec<Vec<DynArc>>,
    contracted: Vec<bool>,
    /// Vertices selected for contraction in the current parallel round.
    /// Witness searches treat them like contracted vertices, so every
    /// witness found during a round survives the whole round no matter in
    /// which order the round's contractions are applied. (Witnesses *through*
    /// a selected vertex are missed, which only adds redundant shortcuts —
    /// the safe direction.) Always all-false outside a round.
    round_sel: Vec<bool>,
    remaining_vertices: usize,
    remaining_arcs: usize,
}

impl DynGraph {
    fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        let mut arcs = 0usize;
        for (u, v, w) in g.forward().iter_arcs() {
            if u == v {
                continue; // self-loops never matter for shortest paths
            }
            let a = DynArc {
                other: v,
                weight: w,
                hops: 1,
                middle: NO_MIDDLE,
            };
            out[u as usize].push(a);
            inn[v as usize].push(DynArc { other: u, ..a });
            arcs += 1;
        }
        Self {
            out,
            inn,
            contracted: vec![false; n],
            round_sel: vec![false; n],
            remaining_vertices: n,
            remaining_arcs: arcs,
        }
    }

    fn avg_degree(&self) -> f64 {
        if self.remaining_vertices == 0 {
            0.0
        } else {
            self.remaining_arcs as f64 / self.remaining_vertices as f64
        }
    }

    /// Adds `u -> w` or improves an existing arc if the new one is shorter.
    fn add_or_improve(&mut self, sc: &Shortcut, middle: Vertex) {
        let hops = sc.hops_in + sc.hops_out;
        if let Some(existing) = self.out[sc.from as usize]
            .iter_mut()
            .find(|a| a.other == sc.to)
        {
            if existing.weight <= sc.weight {
                return;
            }
            existing.weight = sc.weight;
            existing.hops = hops;
            existing.middle = middle;
            let back = self.inn[sc.to as usize]
                .iter_mut()
                .find(|a| a.other == sc.from)
                .expect("in/out lists out of sync");
            back.weight = sc.weight;
            back.hops = hops;
            back.middle = middle;
            return;
        }
        self.out[sc.from as usize].push(DynArc {
            other: sc.to,
            weight: sc.weight,
            hops,
            middle,
        });
        self.inn[sc.to as usize].push(DynArc {
            other: sc.from,
            weight: sc.weight,
            hops,
            middle,
        });
        self.remaining_arcs += 1;
    }

    /// Removes `v` from its neighbours' adjacency lists and drops its own.
    /// Returns the (deduplicated) set of former neighbours.
    fn remove_vertex(&mut self, v: Vertex) -> Vec<Vertex> {
        let mut neighbours: Vec<Vertex> = Vec::new();
        let out = std::mem::take(&mut self.out[v as usize]);
        let inn = std::mem::take(&mut self.inn[v as usize]);
        self.remaining_arcs -= out.len() + inn.len();
        for a in &out {
            let list = &mut self.inn[a.other as usize];
            list.retain(|b| b.other != v);
            neighbours.push(a.other);
        }
        for a in &inn {
            let list = &mut self.out[a.other as usize];
            list.retain(|b| b.other != v);
            neighbours.push(a.other);
        }
        self.contracted[v as usize] = true;
        self.remaining_vertices -= 1;
        neighbours.sort_unstable();
        neighbours.dedup();
        neighbours
    }

    /// Bounded witness search: shortest distances from `from` in the current
    /// graph avoiding `excluded` (and any round-selected vertices), not
    /// exceeding `bound`, using at most `hop_limit` arcs per path and
    /// settling at most `settle_cap` vertices. Returns the number of
    /// vertices settled.
    ///
    /// Terminates as soon as the popped distance exceeds `bound` (pops are
    /// monotone in distance, so nothing useful remains) or the settle cap is
    /// reached — it never drains the rest of the heap.
    ///
    /// The result is an *upper bound* on true distances (hop/settle limits
    /// may hide better paths), which is the safe direction: missing a
    /// witness only adds a redundant shortcut.
    fn witness_distances(
        &self,
        scratch: &mut WitnessScratch,
        from: Vertex,
        excluded: Vertex,
        bound: Weight,
        hop_limit: u32,
        settle_cap: usize,
    ) -> usize {
        scratch.searches += 1;
        scratch.dist.begin(self.out.len());
        scratch.heap.clear();
        scratch.dist.set(from, 0);
        scratch.heap.push((0, 0, from));
        let mut settled = 0usize;
        while let Some((d, hops, v)) = scratch.heap.pop() {
            if d > bound {
                break; // monotone pops: every remaining entry exceeds the bound
            }
            if d > scratch.dist.get(v) {
                continue; // stale entry
            }
            settled += 1;
            if hops < hop_limit {
                for a in &self.out[v as usize] {
                    let o = a.other as usize;
                    if a.other == excluded || self.contracted[o] || self.round_sel[o] {
                        continue;
                    }
                    let nd = d + a.weight;
                    if nd <= bound && nd < scratch.dist.get(a.other) {
                        scratch.dist.set(a.other, nd);
                        scratch.heap.push((nd, hops + 1, a.other));
                    }
                }
            }
            if settled >= settle_cap {
                break;
            }
        }
        settled
    }

    /// The shortcuts contracting `v` would require under the given limits.
    fn shortcuts_needed(
        &self,
        scratch: &mut WitnessScratch,
        v: Vertex,
        hop_limit: u32,
        settle_cap: usize,
    ) -> Vec<Shortcut> {
        let mut shortcuts = Vec::new();
        let inn = &self.inn[v as usize];
        let out = &self.out[v as usize];
        if inn.is_empty() || out.is_empty() {
            return shortcuts;
        }
        for ain in inn {
            let u = ain.other;
            debug_assert!(!self.contracted[u as usize]);
            // One search from u covers all targets w. Sums saturate at INF
            // so chains of near-maximal shortcut weights cannot wrap `u32`.
            let bound = out
                .iter()
                .filter(|a| a.other != u)
                .map(|a| (ain.weight + a.weight).min(INF))
                .max();
            let Some(bound) = bound else { continue };
            self.witness_distances(scratch, u, v, bound, hop_limit, settle_cap);
            for aout in out {
                let w = aout.other;
                if w == u {
                    continue;
                }
                // Saturate at INF (an unreachable-grade weight): keeps every
                // hierarchy weight <= INF, the invariant the query engines
                // rely on for wrap-free `u32` additions.
                let via = (ain.weight + aout.weight).min(INF);
                let witness = scratch.dist.get(w);
                if witness > via {
                    shortcuts.push(Shortcut {
                        from: u,
                        to: w,
                        weight: via,
                        hops_in: ain.hops,
                        hops_out: aout.hops,
                    });
                }
            }
        }
        shortcuts
    }
}

/// Heap bound for witness searches. Witness searches are already truncated
/// by hop and settle caps, so pruning heap overflow (deterministically, see
/// [`LocalHeap`]) loses nothing that the caps would have kept.
const WITNESS_HEAP_BOUND: usize = 4096;

/// Reusable scratch space for witness searches: flat timestamped distance
/// labels (`O(1)` reset, no hashing) and a bounded, buffer-reusing heap.
///
/// It also counts its witness searches and adds them to
/// [`phast_obs::prep`] once, when dropped: the parallel workers each own
/// a scratch, so they never contend for the shared atomic per search.
struct WitnessScratch {
    dist: TimestampedDist,
    heap: LocalHeap,
    searches: u64,
}

impl Default for WitnessScratch {
    fn default() -> Self {
        Self {
            dist: TimestampedDist::new(),
            heap: LocalHeap::with_bound(WITNESS_HEAP_BOUND),
            searches: 0,
        }
    }
}

impl Drop for WitnessScratch {
    fn drop(&mut self) {
        phast_obs::prep::add_witness_searches(self.searches);
    }
}

/// Per-vertex bookkeeping for the priority term.
struct OrderState {
    level: Vec<u32>,
    contracted_neighbours: Vec<u32>,
}

fn priority(
    cfg: &ContractionConfig,
    dyng: &DynGraph,
    state: &OrderState,
    scratch: &mut WitnessScratch,
    v: Vertex,
    hop_limit: u32,
) -> i64 {
    let shortcuts = dyng.shortcuts_needed(scratch, v, hop_limit, cfg.witness_settle_cap);
    let removed = dyng.out[v as usize].len() + dyng.inn[v as usize].len();
    let ed = shortcuts.len() as i64 - removed as i64;
    let h: i64 = shortcuts
        .iter()
        .map(|s| (s.hops_in.min(cfg.h_arc_cap) + s.hops_out.min(cfg.h_arc_cap)) as i64)
        .sum();
    cfg.ed_coef * ed
        + cfg.cn_coef * i64::from(state.contracted_neighbours[v as usize])
        + cfg.h_coef * h
        + cfg.level_coef * i64::from(state.level[v as usize])
}

fn hop_limit_for(cfg: &ContractionConfig, avg: f64) -> u32 {
    for &(threshold, limit) in &cfg.hop_stages {
        if avg <= threshold {
            return limit;
        }
    }
    u32::MAX
}

/// Runs the full CH preprocessing on `g`.
pub fn contract_graph(g: &Graph, cfg: &ContractionConfig) -> Hierarchy {
    phast_obs::prep::reset();
    let h = with_threads(cfg.threads, || match cfg.contractor {
        Contractor::ParallelRounds => contract_rounds(g, cfg),
        Contractor::LazyHeap => contract_lazy(g, cfg),
    });
    debug_assert_eq!(h.validate(), Ok(()));
    h
}

/// Round-based parallel contraction.
///
/// Per round: (1) select every uncontracted vertex whose `(priority, id)`
/// key is a strict local minimum over its uncontracted neighbourhood — an
/// independent set, and non-empty because the global minimum always
/// qualifies; (2) compute each selected vertex's shortcuts in parallel
/// against the frozen round-start graph, with all selected vertices banned
/// from witness paths; (3) apply the contractions sequentially in
/// `(priority, id)` order; (4) recompute priorities of touched neighbours in
/// parallel.
///
/// Why the applies commute with the parallel computation: selected vertices
/// are pairwise non-adjacent, so (a) no contraction in the round mutates a
/// still-selected vertex's adjacency (its recorded hierarchy arcs equal the
/// round-start snapshot), (b) shortcut endpoints are neighbours of selected
/// vertices and hence never themselves selected, and (c) banning the whole
/// selected set from witness searches means every witness path found at
/// round start still exists when the later applies happen. Every step is
/// either data-parallel over a deterministically ordered list or sequential,
/// so the hierarchy is bit-identical for any thread count.
fn contract_rounds(g: &Graph, cfg: &ContractionConfig) -> Hierarchy {
    let n = g.num_vertices();
    let mut dyng = DynGraph::new(g);
    let mut state = OrderState {
        level: vec![0; n],
        contracted_neighbours: vec![0; n],
    };

    let mut hop_limit = hop_limit_for(cfg, dyng.avg_degree());
    let mut prio: Vec<i64> = (0..n as Vertex)
        .into_par_iter()
        .map_init(WitnessScratch::default, |scratch, v| {
            priority(cfg, &dyng, &state, scratch, v, hop_limit)
        })
        .collect();

    let mut alive: Vec<Vertex> = (0..n as Vertex).collect();
    let mut fwd_arcs: Vec<(Vertex, (Arc, Vertex))> = Vec::new();
    let mut bwd_arcs: Vec<(Vertex, (Arc, Vertex))> = Vec::new();
    let mut rank = vec![0u32; n];
    let mut next_rank = 0u32;
    let mut num_shortcuts = 0usize;

    while !alive.is_empty() {
        // 1. Independent set of strict local minima by (priority, id).
        // (prio, id) is a total order, so two adjacent vertices can never
        // both be local minima, and the global minimum always is one.
        let is_min: Vec<bool> = alive
            .par_iter()
            .map(|&v| {
                let key = (prio[v as usize], v);
                dyng.out[v as usize]
                    .iter()
                    .chain(dyng.inn[v as usize].iter())
                    .all(|a| (prio[a.other as usize], a.other) > key)
            })
            .collect();
        let mut selected: Vec<Vertex> = alive
            .iter()
            .zip(&is_min)
            .filter_map(|(&v, &keep)| keep.then_some(v))
            .collect();
        debug_assert!(!selected.is_empty());
        selected.sort_unstable_by_key(|&v| (prio[v as usize], v));
        for &v in &selected {
            dyng.round_sel[v as usize] = true;
        }

        // 2. Shortcuts for every selected vertex, in parallel against the
        // frozen round-start graph. `collect` preserves input order.
        let computed: Vec<(Vertex, Vec<Shortcut>)> = selected
            .par_iter()
            .map_init(WitnessScratch::default, |scratch, &v| {
                let scs = dyng.shortcuts_needed(scratch, v, hop_limit, cfg.witness_settle_cap);
                (v, scs)
            })
            .collect();

        // 3. Apply in (priority, id) order — sequential and deterministic.
        let mut dirty: Vec<Vertex> = Vec::new();
        for (v, shortcuts) in computed {
            // Record v's incident arcs in the hierarchy: out-arcs of v go up
            // (forward graph), in-arcs of v come down from above (stored at v
            // in the backward graph). Selected vertices are non-adjacent, so
            // these lists still equal the round-start snapshot.
            for a in &dyng.out[v as usize] {
                fwd_arcs.push((v, (Arc::new(a.other, a.weight), a.middle)));
            }
            for a in &dyng.inn[v as usize] {
                bwd_arcs.push((v, (Arc::new(a.other, a.weight), a.middle)));
            }
            for sc in &shortcuts {
                dyng.add_or_improve(sc, v);
            }
            num_shortcuts += shortcuts.len();
            phast_obs::prep::add_shortcuts_added(shortcuts.len() as u64);

            let neighbours = dyng.remove_vertex(v);
            for &x in &neighbours {
                state.contracted_neighbours[x as usize] += 1;
                let bumped = state.level[v as usize] + 1;
                if state.level[x as usize] < bumped {
                    state.level[x as usize] = bumped;
                }
            }
            dirty.extend(neighbours);
            rank[v as usize] = next_rank;
            next_rank += 1;
            dyng.round_sel[v as usize] = false;
        }

        // 4. Refresh priorities of surviving touched vertices in parallel.
        alive.retain(|&v| !dyng.contracted[v as usize]);
        hop_limit = hop_limit_for(cfg, dyng.avg_degree());
        dirty.sort_unstable();
        dirty.dedup();
        dirty.retain(|&x| !dyng.contracted[x as usize]);
        let updates: Vec<(Vertex, i64)> = dirty
            .par_iter()
            .map_init(WitnessScratch::default, |scratch, &x| {
                (x, priority(cfg, &dyng, &state, scratch, x, hop_limit))
            })
            .collect();
        for (x, p) in updates {
            prio[x as usize] = p;
        }
    }

    build_hierarchy(n, rank, state.level, num_shortcuts, fwd_arcs, bwd_arcs)
}

/// Classic sequential contraction with a lazily-updated priority heap.
fn contract_lazy(g: &Graph, cfg: &ContractionConfig) -> Hierarchy {
    let n = g.num_vertices();
    let mut dyng = DynGraph::new(g);
    let mut state = OrderState {
        level: vec![0; n],
        contracted_neighbours: vec![0; n],
    };

    // Initial priorities, computed in parallel (read-only on the graph).
    let mut hop_limit = hop_limit_for(cfg, dyng.avg_degree());
    let initial: Vec<(i64, Vertex)> = (0..n as Vertex)
        .into_par_iter()
        .map_init(WitnessScratch::default, |scratch, v| {
            (priority(cfg, &dyng, &state, scratch, v, hop_limit), v)
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(i64, Vertex)>> = initial
        .into_iter()
        .map(|(p, v)| Reverse((p, v)))
        .collect();

    // Hierarchy arcs collected as (tail, (arc, middle)) pairs.
    let mut fwd_arcs: Vec<(Vertex, (Arc, Vertex))> = Vec::new();
    let mut bwd_arcs: Vec<(Vertex, (Arc, Vertex))> = Vec::new();
    let mut rank = vec![0u32; n];
    let mut next_rank = 0u32;
    let mut num_shortcuts = 0usize;
    let mut scratch = WitnessScratch::default();

    while let Some(Reverse((prio, v))) = heap.pop() {
        if dyng.contracted[v as usize] {
            continue; // stale entry for an already contracted vertex
        }
        // Lazy update: recompute and reinsert unless still minimal.
        let fresh = priority(cfg, &dyng, &state, &mut scratch, v, hop_limit);
        if fresh > prio {
            if let Some(&Reverse((top, _))) = heap.peek() {
                if fresh > top {
                    heap.push(Reverse((fresh, v)));
                    continue;
                }
            }
        }

        // Contract v. Its remaining neighbours are all uncontracted, hence
        // ranked (and leveled) above v.
        let shortcuts =
            dyng.shortcuts_needed(&mut scratch, v, hop_limit, cfg.witness_settle_cap);
        for sc in &shortcuts {
            dyng.add_or_improve(sc, v);
        }
        num_shortcuts += shortcuts.len();
        phast_obs::prep::add_shortcuts_added(shortcuts.len() as u64);

        // Record v's incident arcs in the hierarchy: out-arcs of v go up
        // (forward graph), in-arcs of v come down from above (stored at v in
        // the backward graph).
        for a in &dyng.out[v as usize] {
            fwd_arcs.push((v, (Arc::new(a.other, a.weight), a.middle)));
        }
        for a in &dyng.inn[v as usize] {
            bwd_arcs.push((v, (Arc::new(a.other, a.weight), a.middle)));
        }

        let neighbours = dyng.remove_vertex(v);
        for &x in &neighbours {
            state.contracted_neighbours[x as usize] += 1;
            let bumped = state.level[v as usize] + 1;
            if state.level[x as usize] < bumped {
                state.level[x as usize] = bumped;
            }
        }
        rank[v as usize] = next_rank;
        next_rank += 1;

        hop_limit = hop_limit_for(cfg, dyng.avg_degree());

        // Re-evaluate the neighbours' priorities in parallel (the paper's
        // intra-contraction parallelism) and push the refreshed entries;
        // stale ones are skimmed off lazily.
        let updates: Vec<(i64, Vertex)> = neighbours
            .par_iter()
            .map_init(WitnessScratch::default, |scratch, &x| {
                (priority(cfg, &dyng, &state, scratch, x, hop_limit), x)
            })
            .collect();
        for (p, x) in updates {
            heap.push(Reverse((p, x)));
        }
    }

    build_hierarchy(n, rank, state.level, num_shortcuts, fwd_arcs, bwd_arcs)
}

/// Sorts the collected `(tail, (arc, middle))` lists into CSR order and
/// assembles the [`Hierarchy`]; middles ride along with their arcs.
fn build_hierarchy(
    n: usize,
    rank: Vec<u32>,
    level: Vec<u32>,
    num_shortcuts: usize,
    fwd_arcs: Vec<(Vertex, (Arc, Vertex))>,
    bwd_arcs: Vec<(Vertex, (Arc, Vertex))>,
) -> Hierarchy {
    let sorted = |list: Vec<(Vertex, (Arc, Vertex))>| {
        let (first, rows) = bucket_by_key(n, &list);
        let (arcs, middles): (Vec<Arc>, Vec<Vertex>) = rows.into_iter().unzip();
        (Csr::from_raw(first, arcs), middles)
    };
    let (forward_up, forward_middle) = sorted(fwd_arcs);
    let (backward_up, backward_middle) = sorted(bwd_arcs);
    Hierarchy {
        rank,
        level,
        forward_up,
        forward_middle,
        backward_up,
        backward_middle,
        num_shortcuts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::random::strongly_connected_gnm;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_graph::{GraphBuilder, INF};
    use proptest::prelude::*;

    /// Reference NSSP in `G+ = (V, A ∪ A+)` restricted to... nothing: a CH
    /// preserves all distances, so Dijkstra over `forward_up ∪ backward_up
    /// reversed` must equal Dijkstra over the original graph.
    fn ch_preserves_distances(g: &Graph, h: &Hierarchy) {
        let n = g.num_vertices();
        // Build G+ (original + shortcut arcs, all directions restored).
        let mut b = GraphBuilder::new(n);
        for (v, w, wt) in h.forward_up.iter_arcs() {
            b.add_arc(v, w, wt);
        }
        for (v, u, wt) in h.backward_up.iter_arcs() {
            b.add_arc(u, v, wt);
        }
        let gplus = b.build();
        for s in 0..n.min(8) as Vertex {
            let want = shortest_paths(g.forward(), s).dist;
            let got = shortest_paths(gplus.forward(), s).dist;
            assert_eq!(got, want, "G+ distances differ from G (source {s})");
        }
    }

    #[test]
    fn witness_search_breaks_on_bound_and_settle_cap() {
        // Directed path 0 -> 1 -> ... -> 9, unit weights.
        let mut b = GraphBuilder::new(10);
        for v in 0..9u32 {
            b.add_arc(v, v + 1, 1);
        }
        let g = b.build();
        let dyng = DynGraph::new(&g);
        let mut scratch = WitnessScratch::default();
        // Bound 3: exactly vertices 0..=3 are within the bound. The old
        // implementation kept popping (and counting) past the bound.
        let settled = dyng.witness_distances(&mut scratch, 0, NO_MIDDLE, 3, u32::MAX, usize::MAX);
        assert_eq!(settled, 4, "must stop at the distance bound");
        assert_eq!(scratch.dist.get(3), 3);
        assert_eq!(scratch.dist.get(4), Weight::MAX, "beyond-bound vertex labeled");
        // Settle cap 2: exactly two vertices settle.
        let settled = dyng.witness_distances(&mut scratch, 0, NO_MIDDLE, INF, u32::MAX, 2);
        assert_eq!(settled, 2, "must stop at the settle cap");
    }

    #[test]
    fn path_graph_contracts_cleanly() {
        let mut b = GraphBuilder::new(5);
        for v in 0..4u32 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let h = contract_graph(&g, &ContractionConfig::default());
        h.validate().unwrap();
        ch_preserves_distances(&g, &h);
        assert_eq!(h.num_vertices(), 5);
    }

    #[test]
    fn clique_needs_no_shortcuts() {
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    b.add_arc(u, v, 1);
                }
            }
        }
        let g = b.build();
        let h = contract_graph(&g, &ContractionConfig::default());
        // Every two-arc path through a contracted vertex has a one-arc
        // witness, so no shortcuts are necessary.
        assert_eq!(h.num_shortcuts, 0);
        ch_preserves_distances(&g, &h);
    }

    #[test]
    fn star_graph_shortcuts_through_center() {
        // Center 0, leaves 1..=4; all paths go through 0. Contracting 0
        // first would add many shortcuts, so the order should contract the
        // leaves first and add none.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..5u32 {
            b.add_edge(0, leaf, leaf);
        }
        let g = b.build();
        let h = contract_graph(&g, &ContractionConfig::default());
        h.validate().unwrap();
        ch_preserves_distances(&g, &h);
        assert_eq!(h.rank[0], 4, "hub should be contracted last");
    }

    #[test]
    fn road_network_hierarchy_is_shallow() {
        let net = RoadNetworkConfig::new(30, 30, 5, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        h.validate().unwrap();
        ch_preserves_distances(&net.graph, &h);
        let n = net.graph.num_vertices();
        assert!(
            h.num_levels() < n / 4,
            "hierarchy depth {} not shallow for n = {n}",
            h.num_levels()
        );
        // Level 0 holds an independent set that is a large fraction of V.
        let hist = h.level_histogram();
        assert!(hist[0] * 4 >= n, "level 0 has only {} of {n}", hist[0]);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        for cfg in [ContractionConfig::default(), ContractionConfig::sequential()] {
            let h0 = contract_graph(&GraphBuilder::new(0).build(), &cfg);
            assert_eq!(h0.num_vertices(), 0);
            assert_eq!(h0.num_levels(), 0);
            let h1 = contract_graph(&GraphBuilder::new(1).build(), &cfg);
            assert_eq!(h1.num_vertices(), 1);
            assert_eq!(h1.level_histogram(), vec![1]);
        }
    }

    #[test]
    fn disconnected_graph() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1).add_edge(2, 3, 1).add_edge(4, 5, 1);
        let g = b.build();
        let h = contract_graph(&g, &ContractionConfig::default());
        h.validate().unwrap();
        ch_preserves_distances(&g, &h);
    }

    #[test]
    fn zero_weight_arcs() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(2, 3, 1);
        let g = b.build();
        let h = contract_graph(&g, &ContractionConfig::default());
        ch_preserves_distances(&g, &h);
    }

    #[test]
    fn priority_presets_all_produce_correct_hierarchies() {
        let net = RoadNetworkConfig::new(14, 14, 77, Metric::TravelTime).build();
        let g = &net.graph;
        for (name, cfg) in [
            ("paper", ContractionConfig::paper()),
            ("edge-difference", ContractionConfig::edge_difference_only()),
            ("flat-levels", ContractionConfig::flat_levels()),
            ("sequential", ContractionConfig::sequential()),
        ] {
            let h = contract_graph(g, &cfg);
            h.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            ch_preserves_distances(g, &h);
        }
    }

    #[test]
    fn level_coefficient_flattens_the_hierarchy() {
        let net = RoadNetworkConfig::new(20, 20, 78, Metric::TravelTime).build();
        let g = &net.graph;
        let eager = contract_graph(g, &ContractionConfig::edge_difference_only());
        let flat = contract_graph(g, &ContractionConfig::flat_levels());
        assert!(
            flat.num_levels() <= eager.num_levels() + 2,
            "level-averse ordering should not deepen: {} vs {}",
            flat.num_levels(),
            eager.num_levels()
        );
    }

    #[test]
    fn parallel_rounds_is_bit_identical_across_thread_counts() {
        let net = RoadNetworkConfig::new(16, 16, 42, Metric::TravelTime).build();
        let base = contract_graph(
            &net.graph,
            &ContractionConfig {
                threads: 1,
                ..ContractionConfig::default()
            },
        );
        for threads in [2usize, 4, 7] {
            let h = contract_graph(
                &net.graph,
                &ContractionConfig {
                    threads,
                    ..ContractionConfig::default()
                },
            );
            assert_eq!(h, base, "hierarchy differs at threads={threads}");
        }
    }

    #[test]
    fn both_contractors_preserve_distances_on_random_graphs() {
        for seed in 0..4u64 {
            let g = strongly_connected_gnm(40, 80, 30, seed);
            let par = contract_graph(&g, &ContractionConfig::default());
            let seq = contract_graph(&g, &ContractionConfig::sequential());
            par.validate().unwrap();
            seq.validate().unwrap();
            ch_preserves_distances(&g, &par);
            ch_preserves_distances(&g, &seq);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_graphs_preserve_distances(
            n in 2usize..30,
            extra in 0usize..80,
            seed in 0u64..1000,
            max_w in 1u32..40,
        ) {
            let g = strongly_connected_gnm(n, extra, max_w, seed);
            let h = contract_graph(&g, &ContractionConfig::default());
            h.validate().unwrap();
            // Spot-check several sources against plain Dijkstra.
            let mut bb = GraphBuilder::new(n);
            for (v, w, wt) in h.forward_up.iter_arcs() { bb.add_arc(v, w, wt); }
            for (v, u, wt) in h.backward_up.iter_arcs() { bb.add_arc(u, v, wt); }
            let gplus = bb.build();
            for s in [0u32, (n as u32 / 2).min(n as u32 - 1)] {
                let want = shortest_paths(g.forward(), s).dist;
                let got = shortest_paths(gplus.forward(), s).dist;
                prop_assert_eq!(&got, &want);
                prop_assert!(got.iter().all(|&d| d < INF));
            }
        }
    }
}
