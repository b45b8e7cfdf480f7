//! The metric-customization exactness battery (ISSUE acceptance bar):
//! for randomly perturbed metrics, three independently derived engines
//! must agree tree-for-tree —
//!
//! 1. **customized** PHAST: freeze the topology once, run the
//!    `phast-metrics` customization pass for the new metric;
//! 2. **recontracted** PHAST: throw the hierarchy away and contract the
//!    reweighted graph from scratch (the expensive path customization
//!    replaces);
//! 3. **Dijkstra** on the reweighted graph (the ground truth).
//!
//! Any divergence means the frozen closure lost an arc some metric needs
//! — exactly the bug witness pruning would introduce (DESIGN.md §14).

use phast::ch::{contract_graph, ChQuery, ContractionConfig};
use phast::core::PhastBuilder;
use phast::dijkstra::dijkstra::shortest_paths;
use phast::graph::gen::random::gnm;
use phast::graph::gen::{adversarial, Metric, RoadNetworkConfig};
use phast::graph::{INF, MAX_WEIGHT};
use phast::metrics::{MetricCustomizer, MetricWeights};

#[test]
fn customized_equals_recontracted_equals_dijkstra() {
    let net = RoadNetworkConfig::new(14, 14, 77, Metric::TravelTime).build();
    let g = net.graph;
    let n = g.num_vertices() as u32;
    let h = contract_graph(&g, &ContractionConfig::default());
    let customizer = MetricCustomizer::new(g.clone(), &h).expect("freeze");

    // >= 3 independently perturbed metrics, per the acceptance criteria.
    for seed in [11u64, 222, 3333, 44444] {
        let m = MetricWeights::perturbed(&g, "battery", seed, seed ^ 0xD1FF);
        let (customized, _) = customizer.build(&m).expect("customize");

        let g2 = m.reweighted(&g);
        let h2 = contract_graph(&g2, &ContractionConfig::default());
        let recontracted = PhastBuilder::new().build_with_hierarchy(&g2, &h2);

        let mut ce = customized.engine();
        let mut re = recontracted.engine();
        for source in [0u32, n / 3, n / 2, n - 1] {
            let truth = shortest_paths(g2.forward(), source).dist;
            assert_eq!(
                ce.distances(source),
                truth,
                "customized != Dijkstra (metric seed {seed}, source {source})"
            );
            assert_eq!(
                re.distances(source),
                truth,
                "recontracted != Dijkstra (metric seed {seed}, source {source})"
            );
        }
    }
}

#[test]
fn customization_survives_extreme_metrics() {
    // Degenerate-but-legal metrics stress the closure in ways uniform
    // perturbation does not: all-equal weights (every tie possible) and a
    // metric that zeroes a cut of arcs (free travel).
    let net = RoadNetworkConfig::new(9, 9, 5, Metric::TravelDistance).build();
    let g = net.graph;
    let h = contract_graph(&g, &ContractionConfig::default());
    let customizer = MetricCustomizer::new(g.clone(), &h).expect("freeze");
    let num_arcs = g.num_arcs();

    let uniform = MetricWeights::new("uniform", 1, vec![7; num_arcs]).expect("metric");
    let sparse_free = MetricWeights::new(
        "sparse-free",
        2,
        (0..num_arcs).map(|i| if i % 5 == 0 { 0 } else { 1000 }).collect(),
    )
    .expect("metric");

    for m in [uniform, sparse_free] {
        let (p, _) = customizer.build(&m).expect("customize");
        let g2 = m.reweighted(&g);
        let mut e = p.engine();
        for source in [0u32, 40] {
            assert_eq!(
                e.distances(source),
                shortest_paths(g2.forward(), source).dist,
                "metric `{}`, source {source}",
                m.name
            );
        }
    }
}

#[test]
fn customization_is_exact_on_the_adversarial_corpus() {
    // The kernel battery's graph — zero weights, parallel twins,
    // self-loops, an unreachable island — under metrics that clamp, tie
    // and vanish. Trees must equal Dijkstra, and point-to-point paths,
    // unpacked through the customized middles, must walk arcs of the
    // reweighted graph and sum to the Dijkstra distance.
    let net = RoadNetworkConfig::new(12, 12, 31, Metric::TravelTime).build();
    let g = adversarial(&net.graph);
    let n = g.num_vertices() as u32;
    let h = contract_graph(&g, &ContractionConfig::default());
    let customizer = MetricCustomizer::new(g.clone(), &h).expect("freeze");
    let num_arcs = g.num_arcs();
    let metric = |name: &str, weight: &dyn Fn(usize) -> u32| {
        MetricWeights::new(name, 1, (0..num_arcs).map(weight).collect()).expect("metric")
    };
    let metrics = [
        MetricWeights::perturbed(&g, "perturbed", 1, 0xAD7E),
        metric("all-max", &|_| MAX_WEIGHT),
        metric("all-zero", &|_| 0),
        metric("max-or-small", &|i| if i % 2 == 0 { MAX_WEIGHT } else { 1 + i as u32 % 9 }),
    ];
    // The last source and the last two targets are on the island.
    let sources = [0, n / 2, n - 3];
    let targets = [1, n / 3, n - 5, n - 2, n - 1];

    for m in &metrics {
        let (p, ch) = customizer.build(m).expect("customize");
        let g2 = m.reweighted(&g);
        let mut engine = p.engine();
        let mut query = ChQuery::new(&ch);
        for s in sources {
            let truth = shortest_paths(g2.forward(), s).dist;
            assert_eq!(engine.distances(s), truth, "metric `{}`, tree from {s}", m.name);
            for t in targets {
                let tag = format!("metric `{}`, path {s}->{t}", m.name);
                let Some((d, path)) = query.query_path(s, t) else {
                    assert_eq!(truth[t as usize], INF, "{tag}: missing");
                    continue;
                };
                assert_eq!(d, truth[t as usize], "{tag}: distance");
                assert_eq!((path.first(), path.last()), (Some(&s), Some(&t)), "{tag}: ends");
                let sum: u64 = path
                    .windows(2)
                    .map(|hop| {
                        let arcs = g2.forward().out(hop[0]).iter();
                        let w = arcs.filter(|a| a.head == hop[1]).map(|a| a.weight).min();
                        u64::from(w.unwrap_or_else(|| panic!("{tag}: no arc {hop:?}")))
                    })
                    .sum();
                assert_eq!(sum, u64::from(d), "{tag}: unpacked weight");
            }
        }
    }
}

#[test]
fn customized_layout_equals_the_rebuilt_one_array_for_array() {
    // `build` gathers each customization into the sweep layout frozen at
    // `MetricCustomizer::new`. Rebuilding that layout from the reweighted
    // graph and the customized hierarchy must give the same instance,
    // array for array; the hierarchy itself must be the customization in
    // closure order over one metric-independent topology.
    let road = RoadNetworkConfig::new(12, 12, 31, Metric::TravelTime)
        .build()
        .graph;
    let graphs = [
        ("road", road.clone()),
        ("gnm", gnm(300, 1500, 1000, 5)),
        ("adversarial", adversarial(&road)),
    ];
    for (graph, g) in graphs {
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = MetricCustomizer::new(g.clone(), &h).expect("freeze");
        let flat =
            |name: &str, w| MetricWeights::new(name, 1, vec![w; g.num_arcs()]).expect("metric");
        let metrics = [
            MetricWeights::perturbed(&g, "perturbed", 1, 0x5107),
            flat("all-zero", 0),
            flat("uniform", 7),
            flat("all-max", MAX_WEIGHT),
        ];
        let mut topology = None;
        for m in &metrics {
            let tag = format!("{graph}, metric `{}`", m.name);
            let (p, h2) = customizer.build(m).expect("customize");
            let want = PhastBuilder::new().build_with_hierarchy(&m.reweighted(&g), &h2);
            assert_eq!(p.permutation(), want.permutation(), "{tag}: permutation");
            assert_eq!(p.levels(), want.levels(), "{tag}: levels");
            assert_eq!(p.level_ranges(), want.level_ranges(), "{tag}: level ranges");
            assert_eq!(p.up(), want.up(), "{tag}: up");
            assert_eq!(p.up_middles(), want.up_middles(), "{tag}: up middles");
            assert_eq!(p.down(), want.down(), "{tag}: down");
            assert_eq!(p.down_middles(), want.down_middles(), "{tag}: down middles");
            assert_eq!(
                p.orig_incoming(),
                want.orig_incoming(),
                "{tag}: orig_incoming"
            );
            assert_eq!(p.num_shortcuts(), want.num_shortcuts(), "{tag}: shortcuts");

            h2.validate().expect("customized hierarchy validates");
            let custom = customizer.frozen().customize(m).expect("customize");
            let sides = || h2.forward_up.arcs().iter().chain(h2.backward_up.arcs());
            assert!(
                sides()
                    .map(|a| a.weight)
                    .eq(custom.weights().iter().copied()),
                "{tag}: weights"
            );
            let middles = h2.forward_middle.iter().chain(&h2.backward_middle);
            assert!(middles.eq(custom.middles()), "{tag}: hierarchy middles");
            let shape = (
                h2.rank.clone(),
                h2.level.clone(),
                h2.forward_up.first().to_vec(),
                h2.backward_up.first().to_vec(),
                sides().map(|a| a.head).collect::<Vec<_>>(),
            );
            assert_eq!(
                topology.get_or_insert_with(|| shape.clone()),
                &shape,
                "{tag}: topology"
            );
        }
    }
}
