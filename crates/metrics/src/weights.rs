//! Versioned metric artifacts: one `u32` weight per base arc.

use phast_graph::{Arc, Csr, Graph, Weight, MAX_WEIGHT};

/// A named, versioned weight assignment for a base graph.
///
/// Weights are indexed by the graph's **canonical forward-CSR arc order**
/// (the order `Graph::forward().arcs()` iterates) — the same order DIMACS
/// import and JSON artifacts preserve, so a metric produced against a
/// graph file stays valid for every instance preprocessed from it.
///
/// Versions are opaque monotone labels chosen by the producer (a traffic
/// feed's generation counter, a timestamp, ...); `phast-store` persists
/// any number of `(name, version)` metrics alongside one topology
/// artifact, and `phast-serve` reports the epoch it derived from each
/// swap.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricWeights {
    /// Human-readable metric name (e.g. `"travel-time"`, `"rush-hour"`).
    pub name: String,
    /// Producer-chosen version label for this weight generation.
    pub version: u64,
    /// One weight per base arc, in canonical forward-CSR arc order.
    pub weights: Vec<Weight>,
}

impl MetricWeights {
    /// Builds a metric after validating every weight against
    /// [`MAX_WEIGHT`] (the bound the wrap-free sweep kernels assume).
    pub fn new(
        name: impl Into<String>,
        version: u64,
        weights: Vec<Weight>,
    ) -> Result<MetricWeights, String> {
        let m = MetricWeights {
            name: name.into(),
            version,
            weights,
        };
        m.validate_weights()?;
        Ok(m)
    }

    /// Checks that the metric has exactly one in-range weight per base
    /// arc. Every consumer (customization, the store decoder) calls this
    /// before trusting the data.
    pub fn validate(&self, num_base_arcs: usize) -> Result<(), String> {
        if self.weights.len() != num_base_arcs {
            return Err(format!(
                "metric `{}` v{} has {} weights but the graph has {} arcs",
                self.name,
                self.version,
                self.weights.len(),
                num_base_arcs
            ));
        }
        self.validate_weights()
    }

    fn validate_weights(&self) -> Result<(), String> {
        for (i, &w) in self.weights.iter().enumerate() {
            if w > MAX_WEIGHT {
                return Err(format!(
                    "metric `{}` v{}: weight {w} of arc {i} exceeds MAX_WEIGHT ({MAX_WEIGHT})",
                    self.name, self.version
                ));
            }
        }
        Ok(())
    }

    /// `base` with this metric's weights written over its arcs in
    /// canonical order — the graph customization serves and the one a
    /// reference Dijkstra for this metric runs on.
    ///
    /// # Panics
    /// If the metric does not [`validate`](Self::validate) against `base`
    /// (wrong arity, or a weight the wrap-free kernels cannot take).
    pub fn reweighted(&self, base: &Graph) -> Graph {
        if let Err(e) = self.validate(base.num_arcs()) {
            panic!("cannot reweight the graph: {e}");
        }
        let forward = base.forward();
        let arcs = forward
            .arcs()
            .iter()
            .zip(&self.weights)
            .map(|(arc, &w)| Arc::new(arc.head, w))
            .collect();
        Graph::from_csr(Csr::from_raw(forward.first().to_vec(), arcs))
    }

    /// A deterministic random perturbation of `graph`'s own weights: each
    /// arc is scaled by a seed-derived factor in `[0.5, 2.0]`, clamped to
    /// [`MAX_WEIGHT`]. The same `(graph, seed)` always produces the same
    /// metric — the differential tests, the chaos harness and the CI
    /// smoke all lean on that.
    pub fn perturbed(
        graph: &Graph,
        name: impl Into<String>,
        version: u64,
        seed: u64,
    ) -> MetricWeights {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let weights = graph
            .forward()
            .arcs()
            .iter()
            .map(|a| {
                state = splitmix64(state);
                // Percentage factor in 50..=200.
                let pct = 50 + state % 151;
                ((a.weight as u64 * pct / 100).min(MAX_WEIGHT as u64)) as Weight
            })
            .collect();
        MetricWeights {
            name: name.into(),
            version,
            weights,
        }
    }
}

/// SplitMix64 step — a tiny, dependency-free deterministic generator.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn new_rejects_oversized_weights() {
        assert!(MetricWeights::new("m", 1, vec![1, MAX_WEIGHT]).is_ok());
        assert!(MetricWeights::new("m", 1, vec![MAX_WEIGHT + 1]).is_err());
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let m = MetricWeights::new("m", 1, vec![1, 2, 3]).unwrap();
        assert!(m.validate(3).is_ok());
        assert!(m.validate(4).is_err());
    }

    #[test]
    fn reweighted_keeps_the_topology_and_takes_the_weights() {
        let net = RoadNetworkConfig::new(5, 5, 7, Metric::TravelTime).build();
        let m = MetricWeights::perturbed(&net.graph, "p", 1, 42);
        let g2 = m.reweighted(&net.graph);
        assert_eq!(g2.forward().first(), net.graph.forward().first());
        let arcs = |g: &Graph| g.forward().arcs().to_vec();
        let (old, new) = (arcs(&net.graph), arcs(&g2));
        assert!(old.iter().map(|a| a.head).eq(new.iter().map(|a| a.head)));
        assert!(new.iter().map(|a| a.weight).eq(m.weights.iter().copied()));
    }

    #[test]
    #[should_panic(expected = "has 3 weights but the graph has")]
    fn reweighted_rejects_a_metric_of_another_graph() {
        let net = RoadNetworkConfig::new(5, 5, 7, Metric::TravelTime).build();
        let short = MetricWeights::new("short", 1, vec![1, 2, 3]).unwrap();
        short.reweighted(&net.graph);
    }

    #[test]
    fn perturbed_is_deterministic_and_in_range() {
        let net = RoadNetworkConfig::new(5, 5, 7, Metric::TravelTime).build();
        let a = MetricWeights::perturbed(&net.graph, "p", 1, 42);
        let b = MetricWeights::perturbed(&net.graph, "p", 1, 42);
        let c = MetricWeights::perturbed(&net.graph, "p", 1, 43);
        assert_eq!(a, b, "same seed must reproduce the metric");
        assert_ne!(a.weights, c.weights, "different seed must perturb differently");
        assert!(a.validate(net.graph.num_arcs()).is_ok());
    }
}
