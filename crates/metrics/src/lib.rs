//! CCH-style metric customization for PHAST: the metric/topology split.
//!
//! PHAST's economics are "preprocess once, sweep millions of times" — but
//! production routing means *traffic*: arc weights change every minute,
//! and a full recontraction (seconds to minutes) is far too slow to chase
//! them. Customizable Contraction Hierarchies (Dibbelt, Strasser, Wagner;
//! arXiv:1402.0402) split preprocessing into
//!
//! 1. a **metric-independent topology phase** that fixes the contraction
//!    order and the shortcut *structure* once, and
//! 2. a fast **customization pass** that re-derives the shortcut
//!    *weights* for each new metric.
//!
//! This crate implements that split alongside the existing `phast-ch`
//! contraction (with its own fill-reducing elimination order — see
//! [`FrozenTopology::freeze`] for why the witness-pruned CH order cannot
//! be reused):
//!
//! * [`FrozenTopology::freeze`] runs a pure *elimination game* (no
//!   witness searches — witnesses are metric-dependent, so a
//!   weight-agnostic topology must keep every fill-in arc) under a
//!   fill-reducing greedy min-degree order computed on the spot, and
//!   records, per contracted vertex `m`, the closure arc `(u, w)` that
//!   each *lower triangle* `(u, m) + (m, w)` can shorten, plus the base
//!   arcs every closure arc directly represents.
//! * [`FrozenTopology::customize`] replays that game on weights: for `m`
//!   in elimination order, `w(u,w) = min(w(u,w), w(u,m) + w(m,w))` over
//!   `m`'s in-legs × out-legs. Both legs were last written by middles
//!   eliminated before `m`, so they are final when `m` is reached; the
//!   pass is one sequential loop and bit-deterministic.
//! * [`MetricCustomizer`] bundles graph + frozen topology into the
//!   one-call `metric in, engines out` handle `phast-serve` hot-swaps on.
//!   The sweep layout (level order, permutation, CSR shapes) does not
//!   depend on the weights, so it is built once, at freeze, into a
//!   template [`Phast`]; [`MetricCustomizer::assemble`] then gathers each
//!   customization into that layout and hands it to [`Phast::from_parts`],
//!   which re-checks every invariant. The sweep/RPHAST kernels run on it
//!   **unchanged** (they neither know nor care that no witness search
//!   ran).
//!
//! Exactness: the elimination closure is a superset of the witness-pruned
//! CH arc set, and basic customization makes every closure arc an upper
//! bound that is *tight* on at least one shortest path, so upward search +
//! downward sweep over the customized hierarchy computes exact distances
//! for the new metric (the standard CCH argument). The differential
//! battery in `tests/metric_battery.rs` pins customized PHAST ==
//! recontracted PHAST == Dijkstra for randomly perturbed metrics.

mod frozen;
mod weights;

pub use frozen::{CustomizedMetric, FrozenTopology};
pub use weights::MetricWeights;

use phast_ch::hierarchy::NO_MIDDLE;
use phast_ch::Hierarchy;
use phast_core::{Direction, Phast, PhastBuilder, PhastParts};
use phast_graph::csr::ReverseArc;
use phast_graph::{Arc, Csr, Graph};

/// A base graph plus its frozen contraction topology: everything needed to
/// turn a [`MetricWeights`] into ready-to-serve engines, repeatedly and
/// fast.
///
/// Freeze once (roughly the cost of a contraction, minus the witness
/// searches), then [`build`](MetricCustomizer::build) per metric — the
/// per-metric cost is the customization pass plus one gather per sweep
/// array, which the `customize_10e6` regress benchmark pins at an order
/// of magnitude below recontraction.
pub struct MetricCustomizer {
    graph: Graph,
    frozen: FrozenTopology,
    /// The forward instance over the frozen closure with every closure arc
    /// weighted by its closure id and every base arc by its base index:
    /// every slot's place in the level order and in the CSRs' stable
    /// counting sorts is weight-independent, so its `up` and `down`
    /// weights are the closure arc per slot, its `orig_incoming` weights
    /// the base arc per slot, and the rest of it is every epoch's layout.
    template: Phast,
}

/// **Fault-injection seam** (tests, chaos gates and CI only): when this
/// environment variable names a metric — either its `name` or
/// `name:version` — [`MetricCustomizer::build`] silently customizes a
/// *corrupted* copy of the weights instead of the declared ones. The
/// result is a perfectly well-formed `(Phast, Hierarchy)` whose answers
/// are wrong for the metric it claims to serve: exactly the
/// "customization pipeline lied" failure the `phast-serve` canary exists
/// to catch, impossible to produce on demand any other way.
pub const CANARY_FAULT_ENV: &str = "PHAST_CANARY_FAULT";

/// Whether the fault seam is armed for this metric.
fn canary_fault_armed(metric: &MetricWeights) -> bool {
    match std::env::var(CANARY_FAULT_ENV) {
        Ok(spec) => {
            spec == metric.name || spec == format!("{}:{}", metric.name, metric.version)
        }
        Err(_) => false,
    }
}

/// The injected corruption: every weight mapped `w -> min(2w+1, cap)`.
/// Still a valid metric (validation passes), but every arc is strictly
/// longer, so any canary tree with at least one reachable arc diverges.
fn corrupted(metric: &MetricWeights) -> MetricWeights {
    MetricWeights {
        name: metric.name.clone(),
        version: metric.version,
        weights: metric
            .weights
            .iter()
            .map(|&w| w.saturating_mul(2).saturating_add(1).min(phast_graph::MAX_WEIGHT))
            .collect(),
    }
}

impl MetricCustomizer {
    /// Freezes `graph`'s contraction topology. `hierarchy` (the output of
    /// `phast_ch::contract_graph`) is validated and its rank used as a
    /// deterministic tie-break, but the elimination order itself is a
    /// fresh fill-reducing one — the witness-pruned CH order explodes
    /// when replayed without witnesses (see [`FrozenTopology::freeze`]).
    pub fn new(graph: Graph, hierarchy: &Hierarchy) -> Result<MetricCustomizer, String> {
        let frozen = FrozenTopology::freeze(&graph, hierarchy)?;
        // The base graph with every arc weighted by its own index.
        let forward = graph.forward();
        let ids = (0..)
            .zip(forward.arcs())
            .map(|(i, a)| Arc::new(a.head, i))
            .collect();
        let base_ids = Graph::from_csr(Csr::from_raw(forward.first().to_vec(), ids));
        let closure_ids = frozen.id_hierarchy()?;
        let template = PhastBuilder::new().build_with_hierarchy(&base_ids, &closure_ids);
        Ok(MetricCustomizer {
            graph,
            frozen,
            template,
        })
    }

    /// The base graph (canonical arc order for [`MetricWeights`]).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The frozen topology.
    pub fn frozen(&self) -> &FrozenTopology {
        &self.frozen
    }

    /// The graph's own weights as a metric (version 0) — the identity
    /// customization, useful as a baseline and in tests.
    pub fn base_metric(&self) -> MetricWeights {
        MetricWeights {
            name: "base".into(),
            version: 0,
            weights: self.graph.forward().arcs().iter().map(|a| a.weight).collect(),
        }
    }

    /// Customizes `metric` and assembles a full PHAST instance (plus the
    /// customized hierarchy, for point-to-point CH queries) over it.
    ///
    /// This is the hot-swap payload: `phast-serve` calls it in the
    /// background and atomically points workers at the result.
    pub fn build(&self, metric: &MetricWeights) -> Result<(Phast, Hierarchy), String> {
        // The fault seam swaps in corrupted weights *silently*: the
        // returned engines are internally consistent and pass every
        // shape check, they just answer a different metric than the one
        // declared — the caller's canary is the only thing that can
        // notice. See [`CANARY_FAULT_ENV`].
        let effective: std::borrow::Cow<'_, MetricWeights> = if canary_fault_armed(metric) {
            eprintln!(
                "phast-metrics: {CANARY_FAULT_ENV} armed for `{}` v{}: \
                 customizing corrupted weights",
                metric.name, metric.version
            );
            std::borrow::Cow::Owned(corrupted(metric))
        } else {
            std::borrow::Cow::Borrowed(metric)
        };
        let custom = self.frozen.customize(&effective)?;
        self.assemble(&effective, &custom)
    }

    /// The engines for a customization of `metric`: the customized
    /// [`Hierarchy`] (two linear side copies), and the sweep instance as
    /// one gather per array into the frozen layout — shortcut middles
    /// mapped through the permutation — checked by [`Phast::from_parts`].
    /// Equal, array for array, to `PhastBuilder::build_with_hierarchy`
    /// over `metric.reweighted(graph)` and that hierarchy.
    pub fn assemble(
        &self,
        metric: &MetricWeights,
        custom: &CustomizedMetric,
    ) -> Result<(Phast, Hierarchy), String> {
        metric.validate(self.frozen.num_base_arcs())?;
        let hierarchy = self.frozen.hierarchy(custom)?;
        let t = &self.template;
        let perm = t.permutation();
        let (weight, middle) = (custom.weights(), custom.middles());
        // A template slot's weight names the closure arc (`up`, `down`) or
        // the base arc (`orig_incoming`) that lands in it.
        let w = |slot: u32| weight[slot as usize];
        let mid = |slot: u32| match middle[slot as usize] {
            NO_MIDDLE => NO_MIDDLE,
            m => perm.map(m),
        };
        let (up, down, orig) = (t.up().arcs(), t.down().arcs(), t.orig_incoming().arcs());
        let up_arcs: Vec<Arc> = up.iter().map(|a| Arc::new(a.head, w(a.weight))).collect();
        let down_arcs: Vec<ReverseArc> = down
            .iter()
            .map(|a| ReverseArc::new(a.tail, w(a.weight)))
            .collect();
        let orig_arcs: Vec<ReverseArc> = orig
            .iter()
            .map(|a| ReverseArc::new(a.tail, metric.weights[a.weight as usize]))
            .collect();
        let phast = Phast::from_parts(PhastParts {
            new_of_old: perm.as_slice().to_vec().into(),
            level_of_sweep: t.levels().to_vec(),
            up_first: t.up().first().to_vec().into(),
            up_arcs: up_arcs.into(),
            up_middle: up.iter().map(|a| mid(a.weight)).collect(),
            down_first: t.down().first().to_vec().into(),
            down_arcs: down_arcs.into(),
            down_middle: down.iter().map(|a| mid(a.weight)).collect(),
            orig_first: t.orig_incoming().first().to_vec().into(),
            orig_arcs: orig_arcs.into(),
            direction: Direction::Forward,
            num_shortcuts: t.num_shortcuts(),
        })?;
        Ok((phast, hierarchy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_ch::{contract_graph, ContractionConfig};
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn customizer_roundtrips_the_base_metric() {
        let net = RoadNetworkConfig::new(6, 6, 17, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        let reference = shortest_paths(net.graph.forward(), 3).dist;
        let cust = MetricCustomizer::new(net.graph, &h).expect("freeze");
        let (p, h2) = cust.build(&cust.base_metric()).expect("customize");
        h2.validate().expect("customized hierarchy validates");
        assert_eq!(p.engine().distances(3), reference);
    }

    #[test]
    fn perturbed_metric_matches_dijkstra() {
        let net = RoadNetworkConfig::new(7, 5, 23, Metric::TravelDistance).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        let cust = MetricCustomizer::new(net.graph, &h).expect("freeze");
        let m = MetricWeights::perturbed(cust.graph(), "rush-hour", 1, 0xfeed);
        let (p, _) = cust.build(&m).expect("customize");
        // Dijkstra runs on the *reweighted* graph — rebuild it here.
        let g2 = m.reweighted(cust.graph());
        for s in [0u32, 9, 20] {
            assert_eq!(
                p.engine().distances(s),
                shortest_paths(g2.forward(), s).dist,
                "tree from {s} differs"
            );
        }
    }

    #[test]
    fn fault_seam_corrupts_only_the_named_metric() {
        let net = RoadNetworkConfig::new(6, 6, 17, Metric::TravelTime).build();
        let h = contract_graph(&net.graph, &ContractionConfig::default());
        let cust = MetricCustomizer::new(net.graph, &h).expect("freeze");
        // Unique name: other tests in this process may also touch the
        // env var, but never with this spec.
        std::env::set_var(CANARY_FAULT_ENV, "seam-target:1");
        let target = MetricWeights::perturbed(cust.graph(), "seam-target", 1, 0xabcd);
        let bystander = MetricWeights::perturbed(cust.graph(), "seam-bystander", 1, 0xabcd);

        // The armed metric builds *successfully* — the corruption is
        // silent — but its answers diverge from the declared weights.
        let (p, h2) = cust.build(&target).expect("corrupted build still succeeds");
        h2.validate().expect("corrupted hierarchy still validates");
        let honest = shortest_paths(target.reweighted(cust.graph()).forward(), 0).dist;
        assert_ne!(
            p.engine().distances(0),
            honest,
            "the seam must make answers wrong for the declared metric"
        );

        // A different name, and a different *version* of the armed name,
        // are untouched.
        let (p, _) = cust.build(&bystander).expect("customize");
        let want = shortest_paths(bystander.reweighted(cust.graph()).forward(), 0).dist;
        assert_eq!(p.engine().distances(0), want);
        let v2 = MetricWeights::perturbed(cust.graph(), "seam-target", 2, 0xabcd);
        let (p, _) = cust.build(&v2).expect("customize");
        let want = shortest_paths(v2.reweighted(cust.graph()).forward(), 0).dist;
        assert_eq!(p.engine().distances(0), want);
        std::env::remove_var(CANARY_FAULT_ENV);
    }
}
