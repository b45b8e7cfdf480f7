//! The observability layer end to end: per-query [`QueryStats`], the
//! preprocessing counters, GPU cost-model reports, and the JSON schema.
//!
//! Always-on behaviour (settled counts, phase timers, reports) is asserted
//! unconditionally; hot-path counters are asserted through
//! [`obs::COUNTERS_ENABLED`] so the same tests pin down both build states
//! (`cargo test` and `cargo test --features obs-counters`).
//!
//! [`QueryStats`]: phast::obs::QueryStats

use phast::core::{Phast, RestrictedEngine, TargetSelection};
use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::graph::Graph;
use phast::obs;
use std::sync::OnceLock;

/// One shared network + hierarchy for the whole binary, with the
/// preprocessing counters snapshotted right after the only
/// `Phast::preprocess` call. The `prep` counters are process-global
/// atomics reset by each contraction, so the snapshot must be taken
/// before any other test could preprocess — `OnceLock` serializes that.
fn instance() -> &'static (Graph, Phast, obs::Counters) {
    static INSTANCE: OnceLock<(Graph, Phast, obs::Counters)> = OnceLock::new();
    INSTANCE.get_or_init(|| {
        let net = RoadNetworkConfig::new(15, 15, 321, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let prep = obs::prep::counters();
        (net.graph, p, prep)
    })
}

#[test]
fn query_stats_report_upward_settled() {
    let (_, p, _) = instance();
    let mut e = p.engine();
    e.distances(0);
    assert!(
        e.stats().counters.upward_settled > 0,
        "the always-on settled counter must be maintained"
    );
}

#[test]
fn repeated_identical_queries_yield_identical_counters() {
    let (_, p, _) = instance();
    let mut e = p.engine();
    e.distances(42);
    let first = e.stats().counters;
    for round in 0..3 {
        e.distances(42);
        assert_eq!(e.stats().counters, first, "round {round}");
    }
}

#[test]
fn phase_timers_cover_both_phases() {
    let (_, p, _) = instance();
    let mut e = p.engine();
    e.distances(7);
    let s = e.stats();
    // Zero-duration phases would mean a timer was never stopped; both
    // phases do real work on a 225-vertex grid.
    assert!(s.upward_time > std::time::Duration::ZERO);
    assert!(s.sweep_time > std::time::Duration::ZERO);
}

#[test]
fn gated_counters_follow_the_feature_state() {
    let (_, p, _) = instance();
    let mut e = p.engine();
    e.distances(3);
    let c = e.stats().counters;
    if obs::COUNTERS_ENABLED {
        assert!(c.upward_relaxed > 0);
        assert!(c.levels_swept > 0);
        assert!(c.blocks_executed > 0);
        // The sequential sweep is oblivious: every downward arc exactly once.
        assert_eq!(c.sweep_arcs_relaxed, p.down().num_arcs() as u64);
        assert_eq!(c.levels_swept, p.num_levels() as u64);
        // Every vertex the upward search marks is settled exactly once,
        // and the sweep clears exactly the marked set.
        assert_eq!(c.marks_cleared, c.upward_settled);
    } else {
        assert_eq!(c.upward_relaxed, 0);
        assert_eq!(c.sweep_arcs_relaxed, 0);
        assert_eq!(c.levels_swept, 0);
        assert_eq!(c.blocks_executed, 0);
        assert_eq!(c.marks_cleared, 0);
    }
}

#[test]
fn parallel_sweep_reports_its_blocks() {
    let (_, p, _) = instance();
    let mut e = p.engine();
    e.distances_par(11);
    let c = e.stats().counters;
    assert!(c.upward_settled > 0);
    if obs::COUNTERS_ENABLED {
        assert_eq!(c.sweep_arcs_relaxed, p.down().num_arcs() as u64);
        // Splitting levels into blocks never executes fewer blocks than
        // levels.
        assert!(c.blocks_executed >= c.levels_swept);
    }
}

#[test]
fn multi_tree_stats_aggregate_over_the_batch() {
    let (_, p, _) = instance();
    let mut m = p.multi_engine(4);
    m.run(&[0, 5, 9, 13]);
    let c = m.stats().counters;
    assert!(c.upward_settled > 0, "summed over the k upward searches");
    if obs::COUNTERS_ENABLED {
        // The batched sweep relaxes every downward arc once per tree.
        assert_eq!(c.sweep_arcs_relaxed, p.down().num_arcs() as u64 * 4);
    }
}

#[test]
fn one_to_many_stats_cover_the_restricted_sweep() {
    let (_, p, _) = instance();
    let sel = TargetSelection::new(p, &[3, 10, 77]);
    let mut e = RestrictedEngine::new(p);
    e.distances(&sel, 0);
    let c = e.stats().counters;
    assert!(c.upward_settled > 0);
    if obs::COUNTERS_ENABLED {
        assert!(c.upward_relaxed > 0);
        // The restricted sweep runs the target closure as one flat block.
        assert_eq!(c.blocks_executed, 1);
        assert!(c.sweep_arcs_relaxed <= p.down().num_arcs() as u64);
    }
}

#[test]
fn preprocessing_counters_follow_the_feature_state() {
    let (_, p, prep) = instance();
    if obs::COUNTERS_ENABLED {
        assert!(prep.witness_searches > 0);
        assert_eq!(
            prep.shortcuts_added,
            p.num_shortcuts() as u64,
            "the prep counter and the hierarchy count the same shortcuts"
        );
    } else {
        assert_eq!(prep.witness_searches, 0);
        assert_eq!(prep.shortcuts_added, 0);
    }
}

#[test]
fn gphast_cost_model_exposes_per_level_launches() {
    use phast::gpu::{DeviceProfile, Gphast};
    let (_, p, _) = instance();
    let mut gp = Gphast::new(p, DeviceProfile::gtx_580(), 4).unwrap();
    let stats = gp.run(&[0, 1, 2, 3]);
    let threads = gp.per_level_threads();
    assert_eq!(threads.len(), p.num_levels(), "one sweep kernel per level");
    assert_eq!(
        threads.iter().sum::<usize>(),
        p.num_vertices() * 4,
        "each level kernel launches level_size * k threads"
    );
    assert!(stats.kernel_launches as usize >= p.num_levels());
    let r = stats.report("gphast batch");
    assert!(r.get("kernel_launches").is_some());
    assert!(r.get("lane_efficiency").is_some());
}

#[test]
fn report_serializes_with_the_documented_schema() {
    let (_, p, _) = instance();
    let mut e = p.engine();
    e.distances(7);
    let report = e.stats().report("phast tree query");
    let json = serde_json::to_string(&report).unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v["title"].as_str(), Some("phast tree query"));
    assert_eq!(v["counters_enabled"].as_bool(), Some(obs::COUNTERS_ENABLED));
    let metrics = &v["metrics"];
    assert!(!metrics.is_null(), "metrics is an object");
    assert_eq!(
        metrics["upward_settled"].as_i64(),
        Some(e.stats().counters.upward_settled as i64)
    );
    // Durations serialize as integer nanoseconds.
    assert!(metrics["upward_time"].as_i64().is_some());
    assert!(metrics["sweep_time"].as_i64().is_some());
    if obs::COUNTERS_ENABLED {
        assert!(metrics["sweep_arcs_relaxed"].as_i64().unwrap() > 0);
    } else {
        assert_eq!(metrics["sweep_arcs_relaxed"].as_i64(), Some(0));
    }
}
