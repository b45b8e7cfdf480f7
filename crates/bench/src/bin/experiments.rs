//! Regenerates every table and figure of the PHAST paper.
//!
//! ```text
//! cargo run --release -p phast-bench --bin experiments -- all
//! cargo run --release -p phast-bench --bin experiments -- tab1 tab3
//! PHAST_SCALE=1000000 cargo run --release -p phast-bench --bin experiments -- tab2
//! ```
//!
//! Options: `--sources N` (trees measured per data point, default 20),
//! `--quick` (tiny instance + few sources, for CI smoke tests),
//! `--stats` (observability report of the setup preprocessing and one
//! sample query). Every time is a mean over individually timed runs
//! (`Samples`) without warm-up.
//! `EXPERIMENTS.md` records the measured-vs-paper comparison.

use phast_bench::report::{fmt_days, fmt_duration, Table};
use phast_bench::{energy, hostinfo, lower_bound, InstanceConfig, Samples};
use phast_core::simd::SimdLevel;
use phast_ch::{contract_graph, ContractionConfig, Hierarchy};
use phast_core::{par_multi_trees, Direction, Phast, PhastBuilder, SweepOrder};
use phast_dijkstra::bfs::bfs;
use phast_dijkstra::dijkstra::Dijkstra;
use phast_gpu::{DeviceProfile, Gphast};
use phast_graph::dfs::dfs_layout;
use phast_graph::gen::Metric;
use phast_graph::reorder::relabel_graph;
use phast_graph::{Graph, Permutation, Vertex};
use phast_pq::{DialQueue, FourHeap, IndexedBinaryHeap, RadixHeap, TwoLevelBuckets};
use std::time::Duration;

struct Opts {
    sources: usize,
    quick: bool,
    stats: bool,
}

fn main() {
    let mut experiments: Vec<String> = Vec::new();
    let mut opts = Opts {
        sources: 20,
        quick: false,
        stats: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sources" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => opts.sources = n,
                _ => {
                    eprintln!("error: --sources needs a positive number");
                    std::process::exit(2);
                }
            },
            "--quick" => opts.quick = true,
            "--stats" => opts.stats = true,
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        eprintln!(
            "usage: experiments [--sources N] [--quick] [--stats] \
             <fig1|tab1|...|tab7|lb|ablations|graphclass|all>..."
        );
        std::process::exit(2);
    }
    if opts.quick {
        opts.sources = opts.sources.min(4);
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "fig1", "tab1", "tab2", "tab3", "tab4", "tab5", "tab5sim", "tab6", "tab7", "lb",
            "ablations", "graphclass",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let ctx = Context::new(&opts);
    if opts.stats {
        obs_report(&ctx);
    }
    for e in &experiments {
        match e.as_str() {
            "fig1" => fig1(&ctx),
            "tab1" => tab1(&ctx, &opts),
            "tab2" => tab2(&ctx, &opts),
            "tab3" => tab3(&ctx, &opts),
            "tab4" => tab4(),
            "tab5" => tab5(&ctx, &opts),
            "tab5sim" => tab5sim(),
            "graphclass" => graphclass(&opts),
            "tab6" => tab6(&ctx, &opts),
            "tab7" => tab7(&opts),
            "lb" => lb(&ctx),
            "ablations" => ablations(&ctx, &opts),
            other => eprintln!("unknown experiment '{other}' (skipped)"),
        }
    }
}

/// `--stats`: observability report of the setup's CH preprocessing plus
/// one sample tree query (see DESIGN.md "Observability").
fn obs_report(ctx: &Context) {
    let c = phast_obs::prep::counters();
    let mut r = phast_obs::Report::new("setup: CH preprocessing");
    r.push_count("shortcuts_added", c.shortcuts_added)
        .push_count("witness_searches", c.witness_searches);
    phast_bench::report::report_to_table(&r).print();
    let mut e = ctx.phast.engine();
    e.distances_sweep(0);
    let qr = e.stats().report("sample tree query (source 0)");
    phast_bench::report::report_to_table(&qr).print();
}

/// Shared state: the default Europe-like instance in DFS layout with its
/// PHAST preprocessing (used by most experiments).
struct Context {
    graph: Graph,
    /// The hierarchy `phast` was assembled from (the order ablation
    /// assembles it again in other orders).
    hierarchy: Hierarchy,
    phast: Phast,
    n: usize,
    name: String,
}

impl Context {
    fn new(opts: &Opts) -> Self {
        let mut cfg = InstanceConfig::default_europe();
        if opts.quick {
            cfg = cfg.with_vertices(10_000);
        }
        let inst = cfg.build();
        eprintln!(
            "[setup] instance {}: {} vertices, {} arcs",
            inst.name,
            inst.network.num_vertices(),
            inst.network.num_arcs()
        );
        // All headline numbers use the DFS layout (Section II-A).
        let graph = relabel_graph(&inst.network.graph, &dfs_layout(&inst.network.graph, 0));
        let ((hierarchy, phast), prep) = phast_bench::time_once(|| {
            let h = contract_graph(&graph, &ContractionConfig::default());
            let p = PhastBuilder::new().build_with_hierarchy(&graph, &h);
            (h, p)
        });
        eprintln!(
            "[setup] CH preprocessing: {} ({} levels, {} shortcuts)",
            fmt_duration(prep),
            phast.num_levels(),
            phast.num_shortcuts()
        );
        let n = graph.num_vertices();
        Self {
            graph,
            hierarchy,
            phast,
            n,
            name: inst.name,
        }
    }

    fn sources(&self, count: usize) -> Vec<Vertex> {
        // Deterministic spread over the vertex range.
        let stride = (self.n / count.max(1)).max(1);
        (0..self.n as Vertex)
            .step_by(stride)
            .take(count)
            .collect()
    }
}

/// Mean milliseconds per call over `runs` calls of `f` (given the call
/// index), each call timed on its own, no warm-up.
fn mean_ms(runs: usize, f: impl FnMut(usize)) -> f64 {
    Samples::collect(0, runs, f).stats().mean_ns as f64 / 1e6
}

/// Figure 1: vertices per level.
fn fig1(ctx: &Context) {
    let hist = ctx.phast.level_histogram();
    let n = ctx.n;
    let mut t = Table::new(
        format!("Figure 1: vertices per level ({})", ctx.name),
        &["level", "vertices", "fraction"],
    );
    for (l, &c) in hist.iter().enumerate().take(15) {
        t.row(&[
            l.to_string(),
            c.to_string(),
            format!("{:.2}%", 100.0 * c as f64 / n as f64),
        ]);
    }
    if hist.len() > 15 {
        let rest: usize = hist[15..].iter().sum();
        t.row(&[
            format!("15..{}", hist.len() - 1),
            rest.to_string(),
            format!("{:.2}%", 100.0 * rest as f64 / n as f64),
        ]);
    }
    t.print();
    let above20: usize = hist.iter().skip(20).sum();
    println!(
        "levels: {}   level-0 share: {:.1}%   vertices above level 20: {}",
        hist.len(),
        100.0 * hist[0] as f64 / n as f64,
        above20
    );
    println!(
        "paper shape: ~140 levels, half of all vertices in level 0, only\n\
         ~30k of 18M above level 20 (scaled-down instances have fewer levels).\n"
    );
}

/// Table I: single-tree performance across layouts and algorithms.
fn tab1(ctx: &Context, opts: &Opts) {
    let base = &ctx.graph; // already DFS layout
    let layouts: Vec<(&str, Permutation)> = vec![
        ("random", Permutation::random(ctx.n, 42)),
        // "input" relative to the DFS base: the generator's row-major grid
        // order, recovered by inverting the DFS layout is not available
        // here, so "input" is the identity on the generated order.
        ("input", Permutation::identity(ctx.n)),
        ("dfs", dfs_layout(base, 0)),
    ];
    let sources = ctx.sources(opts.sources.min(10));
    let mut t = Table::new(
        "Table I: single-tree time per algorithm and layout [ms]",
        &["algorithm", "details", "random", "input", "dfs"],
    );
    let mut rows: Vec<Vec<String>> = vec![
        vec!["Dijkstra".into(), "binary heap".into()],
        vec!["Dijkstra".into(), "Dial".into()],
        vec!["Dijkstra".into(), "smart queue (2-level)".into()],
        vec!["Dijkstra".into(), "radix heap".into()],
        vec!["BFS".into(), "-".into()],
        vec!["PHAST".into(), "original ordering".into()],
        vec!["PHAST".into(), "reordered by level".into()],
        vec!["PHAST".into(), "reordered + degree tiles".into()],
        vec!["PHAST".into(), "reordered + all cores".into()],
    ];
    for (_, perm) in &layouts {
        let g = relabel_graph(base, perm);
        let srcs: Vec<Vertex> = sources.iter().map(|&s| perm.map(s)).collect();
        let fwd = g.forward();

        let mut d_bin = Dijkstra::<IndexedBinaryHeap>::new(fwd);
        rows[0].push(format!(
            "{:.2}",
            mean_ms(srcs.len(), |i| {
                d_bin.run_in_place(srcs[i]);
            })
        ));
        let mut d_dial = Dijkstra::<DialQueue>::new(fwd);
        rows[1].push(format!(
            "{:.2}",
            mean_ms(srcs.len(), |i| {
                d_dial.run_in_place(srcs[i]);
            })
        ));
        let mut d_mlb = Dijkstra::<TwoLevelBuckets>::new(fwd);
        rows[2].push(format!(
            "{:.2}",
            mean_ms(srcs.len(), |i| {
                d_mlb.run_in_place(srcs[i]);
            })
        ));
        let mut d_rad = Dijkstra::<RadixHeap>::new(fwd);
        rows[3].push(format!(
            "{:.2}",
            mean_ms(srcs.len(), |i| {
                d_rad.run_in_place(srcs[i]);
            })
        ));
        rows[4].push(format!(
            "{:.2}",
            mean_ms(srcs.len(), |i| {
                bfs(fwd, srcs[i]);
            })
        ));

        // PHAST variants: preprocessing per layout (the within-level order
        // inherits the layout, which is the effect Table I measures).
        let h = contract_graph(&g, &ContractionConfig::default());
        let build = |order| {
            PhastBuilder::new()
                .order(order)
                .build_with_hierarchy(&g, &h)
        };
        let p_tiled = build(SweepOrder::ByLevelDegreeTiled);
        for (row, p) in [
            (5, &build(SweepOrder::ByRank)),
            (6, &build(SweepOrder::ByLevel)),
            (7, &p_tiled),
        ] {
            let mut e = p.engine();
            rows[row].push(format!(
                "{:.2}",
                mean_ms(srcs.len(), |i| {
                    e.distances_sweep(srcs[i]);
                })
            ));
        }
        let mut e = p_tiled.engine();
        rows[8].push(format!(
            "{:.2}",
            mean_ms(srcs.len(), |i| {
                e.distances_par_sweep(srcs[i]);
            })
        ));
    }
    for r in rows {
        t.row(&r);
    }
    t.print();
    println!(
        "paper shape: layout matters for every algorithm (random >> dfs);\n\
         level reordering gives PHAST its big jump (2.0 s -> 172 ms on Europe);\n\
         PHAST beats Dijkstra in every column.\n"
    );
}

/// Table II: multiple trees per sweep × cores × SSE.
fn tab2(ctx: &Context, opts: &Opts) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let core_counts: Vec<usize> = [1usize, (cores / 2).max(1), cores]
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let header: Vec<String> = std::iter::once("k".to_string())
        .chain(
            core_counts
                .iter()
                .map(|c| format!("{c} core(s) scalar / simd")),
        )
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Table II: time per tree, k sources per sweep [ms]",
        &header_refs,
    );
    for k in [4usize, 8, 16] {
        let batches = (opts.sources / k).max(1);
        let sources = ctx.sources(batches * k);
        let mut row = vec![k.to_string()];
        for &c in &core_counts {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(c)
                .build()
                .expect("thread pool");
            let mut cell = String::new();
            for simd in [SimdLevel::Scalar, phast_core::simd::best_simd_for(k)] {
                let (_, elapsed) = pool.install(|| {
                    phast_bench::time_once(|| {
                        phast_core::par_multi_trees_with(
                            &ctx.phast,
                            k,
                            Some(simd),
                            &sources,
                            |_, _| (),
                        )
                    })
                });
                let per_tree = elapsed.as_secs_f64() * 1e3 / sources.len() as f64;
                if !cell.is_empty() {
                    cell.push_str(" / ");
                }
                cell.push_str(&format!("{per_tree:.2}"));
            }
            row.push(cell);
        }
        t.row(&row);
    }
    t.print();
    println!(
        "paper shape: larger k helps (better locality), SSE gives ~2.6x on\n\
         top, cores scale near-linearly until memory bandwidth saturates.\n\
         (this host has {cores} core(s); scaling columns degenerate when 1.)\n"
    );
}

/// Table III: GPHAST time and device memory vs k.
fn tab3(ctx: &Context, opts: &Opts) {
    let mut t = Table::new(
        "Table III: GPHAST (simulated GTX 580) per-tree time and memory",
        &["trees/sweep", "memory [MB]", "time/tree [ms]"],
    );
    for k in [1usize, 2, 4, 8, 16] {
        let mut gp = match Gphast::new(&ctx.phast, DeviceProfile::gtx_580(), k) {
            Ok(gp) => gp,
            Err(e) => {
                t.row(&[k.to_string(), format!("{e}"), "-".into()]);
                continue;
            }
        };
        let batches = (opts.sources / k).max(1);
        let sources = ctx.sources(batches * k);
        let mut total = Duration::ZERO;
        let mut mem = 0usize;
        for b in 0..batches {
            let stats = gp.run(&sources[b * k..(b + 1) * k]);
            total += stats.batch_time;
            mem = stats.device_memory_bytes;
        }
        let per_tree = total.as_secs_f64() * 1e3 / (batches * k) as f64;
        t.row(&[
            k.to_string(),
            format!("{:.1}", mem as f64 / 1e6),
            format!("{per_tree:.3}"),
        ]);
    }
    t.print();
    println!(
        "paper shape: 5.53 ms at k=1 down to 2.21 ms at k=16 on Europe\n\
         (18M vertices); memory grows by one n-sized label array per tree.\n"
    );
}

/// Table IV: machine specifications.
fn tab4() {
    let h = hostinfo::HostInfo::detect();
    let mut t = Table::new(
        "Table IV: machines (this host + simulated GPUs)",
        &["name", "cores/SMs", "clock", "memory", "bandwidth", "notes"],
    );
    t.row(&[
        h.cpu_model.clone(),
        h.cores.to_string(),
        format!("{:.2} GHz", h.clock_ghz),
        format!("{:.1} GiB", h.ram_gib),
        "-".into(),
        format!("simd: {}", h.simd.join("+")),
    ]);
    for p in [DeviceProfile::gtx_580(), DeviceProfile::gtx_480()] {
        t.row(&[
            p.name.clone(),
            p.num_sms.to_string(),
            format!("{:.0} MHz", p.core_clock_mhz),
            format!("{:.1} GiB", p.memory_bytes as f64 / (1 << 30) as f64),
            format!("{:.1} GB/s", p.mem_bandwidth_gbps),
            "simulated".into(),
        ]);
    }
    t.print();
}

/// Table V: architecture impact — Dijkstra vs PHAST, thread scaling,
/// free vs pinned.
fn tab5(ctx: &Context, opts: &Opts) {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let sources = ctx.sources(opts.sources);
    let fwd = ctx.graph.forward();

    let mut t = Table::new(
        "Table V: Dijkstra vs PHAST on this host [ms/tree]",
        &["config", "Dijkstra", "PHAST", "speedup"],
    );

    // Single thread.
    let mut dij = Dijkstra::<DialQueue>::new(fwd);
    let d1 = mean_ms(sources.len(), |i| {
        dij.run_in_place(sources[i]);
    });
    let mut e = ctx.phast.engine();
    let p1 = mean_ms(sources.len(), |i| {
        e.distances_sweep(sources[i]);
    });
    t.row(&[
        "single thread".into(),
        format!("{d1:.2}"),
        format!("{p1:.2}"),
        format!("{:.1}x", d1 / p1),
    ]);

    // One tree per core, free vs pinned.
    for pinned in [false, true] {
        let pool = make_pool(cores, pinned);
        let dm = pool.install(|| {
            phast_bench::time_once(|| {
                phast_dijkstra::many_trees::<FourHeap, _, _>(fwd, &sources, |_, d, _| d[0])
            })
            .1
        });
        let pm = pool.install(|| {
            phast_bench::time_once(|| {
                phast_core::par_trees(&ctx.phast, &sources, |_, e| e.labels()[0])
            })
            .1
        });
        let dms = dm.as_secs_f64() * 1e3 / sources.len() as f64;
        let pms = pm.as_secs_f64() * 1e3 / sources.len() as f64;
        t.row(&[
            format!(
                "1 tree/core ({})",
                if pinned { "pinned" } else { "free" }
            ),
            format!("{dms:.2}"),
            format!("{pms:.2}"),
            format!("{:.1}x", dms / pms),
        ]);
    }

    // 16 trees per core per sweep.
    let k = 16;
    let batches = (sources.len() / k).max(1);
    let srcs = ctx.sources(batches * k);
    for pinned in [false, true] {
        let pool = make_pool(cores, pinned);
        let pm = pool.install(|| {
            phast_bench::time_once(|| {
                par_multi_trees(&ctx.phast, k, &srcs, |_, _| ());
            })
            .1
        });
        let pms = pm.as_secs_f64() * 1e3 / srcs.len() as f64;
        t.row(&[
            format!(
                "16 trees/core ({})",
                if pinned { "pinned" } else { "free" }
            ),
            "-".into(),
            format!("{pms:.2}"),
            String::new(),
        ]);
    }
    t.print();
    println!(
        "paper shape: PHAST ~19-21x Dijkstra single-threaded on every\n\
         machine; pinning matters on NUMA systems (this host has {cores}\n\
         core(s), so scaling rows degenerate on single-core machines).\n"
    );
}

/// The paper's scope caveat (Sections I-III): "PHAST only works well on
/// certain classes of graphs, namely those with low highway dimension.
/// Fortunately, however, road networks are among them." Contrast a road
/// network with a random digraph of similar size: contraction degenerates
/// (many shortcuts, deep or dense hierarchies, large upward searches) and
/// the PHAST advantage collapses.
fn graphclass(opts: &Opts) {
    use phast_ch::UpwardSearch;
    // Random-graph contraction is drastically superquadratic (that is the
    // point of this experiment), so the instance stays small.
    let n = if opts.quick { 800 } else { 2_000 };
    let road = InstanceConfig::default_europe().with_vertices(n).build();
    let road_g = road.network.graph.clone();
    let (disk_g, _) = phast_graph::gen::UnitDiskConfig::new(n, 7).build();
    let rand_g = phast_graph::gen::random::gnm_scc(n, n * 3, 1000, 7);
    let mut t = Table::new(
        "Graph class: road network vs random digraph (similar size)",
        &[
            "graph",
            "n",
            "m",
            "prep [s]",
            "shortcuts",
            "levels",
            "avg up-search",
            "Dijkstra [ms]",
            "PHAST [ms]",
        ],
    );
    for (name, g) in [("road", &road_g), ("unit disk", &disk_g), ("random", &rand_g)] {
        let (p, prep) = phast_bench::time_once(|| Phast::preprocess(g));
        let h = phast_ch::contract_graph(g, &phast_ch::ContractionConfig::default());
        let mut up = UpwardSearch::new(&h);
        let nn = g.num_vertices();
        let sources: Vec<Vertex> = (0..nn as Vertex).step_by((nn / 8).max(1)).collect();
        let avg_up: usize = sources.iter().map(|&s| up.run(s).len()).sum::<usize>()
            / sources.len();
        let mut dij = Dijkstra::<DialQueue>::new(g.forward());
        let d = mean_ms(sources.len(), |i| {
            dij.run_in_place(sources[i]);
        });
        let mut e = p.engine();
        let ph = mean_ms(sources.len(), |i| {
            e.distances_sweep(sources[i]);
        });
        t.row(&[
            name.into(),
            nn.to_string(),
            g.num_arcs().to_string(),
            format!("{:.2}", prep.as_secs_f64()),
            p.num_shortcuts().to_string(),
            p.num_levels().to_string(),
            avg_up.to_string(),
            format!("{d:.2}"),
            format!("{ph:.2}"),
        ]);
    }
    t.print();
    println!(
        "paper shape: on low-highway-dimension graphs contraction stays
         sparse and upward searches tiny; on random graphs shortcuts and
         search spaces blow up and the PHAST advantage collapses.
"
    );
}

/// Table V regenerated across the paper's five machines via the analytic
/// model of `phast-machine` (see DESIGN.md's substitution table — the
/// machines themselves are not available, so this is model output
/// calibrated on M1-4's published anchors, at the paper's 18M-vertex
/// Europe workload).
fn tab5sim() {
    use phast_machine::{predict_dijkstra, predict_phast, MachineProfile, Placement, WorkloadSize};
    let w = WorkloadSize::europe();
    let mut t = Table::new(
        "Table V (simulated machines, paper-scale Europe) [ms/tree]",
        &[
            "machine",
            "Dijkstra 1t",
            "PHAST 1t",
            "ratio",
            "PHAST 1/core free",
            "PHAST 1/core pinned",
            "PHAST 16/core pinned",
            "energy 16/core [J/tree]",
        ],
    );
    for m in MachineProfile::all() {
        let d1 = predict_dijkstra(&m, &w, 1, Placement::Pinned).per_tree;
        let p1 = predict_phast(&m, &w, 1, 1, Placement::Pinned).per_tree;
        let pfree = predict_phast(&m, &w, m.cores, 1, Placement::Free).per_tree;
        let ppin = predict_phast(&m, &w, m.cores, 1, Placement::Pinned).per_tree;
        let p16 = predict_phast(&m, &w, m.cores, 16, Placement::Pinned).per_tree;
        t.row(&[
            format!("{} ({} cores, {} nodes)", m.name, m.cores, m.numa_nodes),
            format!("{:.0}", d1.as_secs_f64() * 1e3),
            format!("{:.0}", p1.as_secs_f64() * 1e3),
            format!("{:.1}x", d1.as_secs_f64() / p1.as_secs_f64()),
            format!("{:.1}", pfree.as_secs_f64() * 1e3),
            format!("{:.1}", ppin.as_secs_f64() * 1e3),
            format!("{:.2}", p16.as_secs_f64() * 1e3),
            if m.system_watts > 0.0 {
                format!("{:.2}", m.system_watts * p16.as_secs_f64())
            } else {
                "-".into()
            },
        ]);
    }
    t.print();
    println!(
        "model calibrated on M1-4's published 172 ms / 2810 ms / 37.1 ms
         anchors; paper shape: PHAST ~19x Dijkstra single-threaded on every
         machine, pinning decisive on many-node machines (M4-12), all-cores
         k=16 reaching single-digit ms on the big servers.
"
    );
}

fn make_pool(threads: usize, pinned: bool) -> rayon::ThreadPool {
    let mut b = rayon::ThreadPoolBuilder::new().num_threads(threads);
    if pinned {
        b = b.start_handler(pin_current_thread);
    }
    b.build().expect("thread pool")
}

/// Best-effort thread pinning via sched_setaffinity.
fn pin_current_thread(idx: usize) {
    #[cfg(target_os = "linux")]
    // SAFETY: zeroed cpu_set_t is a valid empty set; CPU_SET/sched_setaffinity
    // are called with a properly sized set for this thread only.
    unsafe {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(idx % cores, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = idx;
}

/// Table VI: Dijkstra vs PHAST vs GPHAST — time, energy, APSP projection.
fn tab6(ctx: &Context, opts: &Opts) {
    let n = ctx.n as u64;
    let sources = ctx.sources(opts.sources);
    let fwd = ctx.graph.forward();
    let mut t = Table::new(
        "Table VI: per-tree and all-pairs (n trees) projections",
        &[
            "algorithm",
            "device",
            "mem [GB]",
            "time/tree [ms]",
            "energy/tree [J]",
            "n trees [d:hh:mm]",
            "n trees [MJ]",
        ],
    );
    let mut push = |name: &str, device: &str, mem_gb: f64, per_tree: Duration, watts: f64| {
        let all = per_tree * n as u32;
        t.row(&[
            name.into(),
            device.into(),
            format!("{mem_gb:.2}"),
            format!("{:.2}", per_tree.as_secs_f64() * 1e3),
            format!("{:.1}", watts * per_tree.as_secs_f64()),
            fmt_days(all),
            format!("{:.1}", watts * all.as_secs_f64() / 1e6),
        ]);
    };

    // Dijkstra, all cores, one tree per core.
    let host_w = energy::host_model().watts;
    let (_, dt) = phast_bench::time_once(|| {
        phast_dijkstra::many_trees::<FourHeap, _, _>(fwd, &sources, |_, d, _| d[0])
    });
    push(
        "Dijkstra",
        "host CPU",
        (ctx.graph.memory_bytes() + 8 * ctx.n) as f64 / 1e9,
        dt / sources.len() as u32,
        host_w,
    );

    // PHAST, all cores, 16 per sweep.
    let k = 16;
    let batches = (sources.len() / k).max(1);
    let srcs = ctx.sources(batches * k);
    let (_, pt) = phast_bench::time_once(|| {
        par_multi_trees(&ctx.phast, k, &srcs, |_, _| ());
    });
    push(
        "PHAST",
        "host CPU",
        (ctx.phast.memory_bytes() + 4 * ctx.n * k) as f64 / 1e9,
        pt / srcs.len() as u32,
        host_w,
    );

    // GPHAST on both simulated cards.
    for (profile, is580) in [(DeviceProfile::gtx_580(), true), (DeviceProfile::gtx_480(), false)] {
        let name = profile.name.clone();
        let watts = energy::gpu_model(is580).watts;
        if let Ok(mut gp) = Gphast::new(&ctx.phast, profile, k) {
            let mut total = Duration::ZERO;
            for b in 0..batches {
                total += gp.run(&srcs[b * k..(b + 1) * k]).batch_time;
            }
            push(
                "GPHAST",
                &name,
                gp.device().allocated_bytes() as f64 / 1e9,
                total / srcs.len() as u32,
                watts,
            );
        }
    }
    // The paper's two-card projection ("with two cards, GPHAST would be
    // twice as fast"): two simulated GTX 580s, sources dealt round-robin.
    if let Ok(mut bank) = phast_gpu::MultiGpu::new(&ctx.phast, DeviceProfile::gtx_580(), 2, k) {
        // Twice the sources so both cards get full rounds.
        let srcs2 = ctx.sources(2 * batches * k);
        let stats = bank.run(&srcs2);
        push(
            "GPHAST 2x",
            "2x GTX 580 (simulated)",
            2.0 * (ctx.phast.down().memory_bytes() + ctx.n * (4 * k + 5)) as f64 / 1e9,
            stats.time_per_tree,
            energy::gpu_model(true).watts + 110.0, // second card under load
        );
    }
    t.print();
    println!(
        "paper shape: GPHAST fastest and most energy-efficient per tree;\n\
         PHAST on a big server approaches GPHAST's time but at ~3x the\n\
         energy; Dijkstra is orders of magnitude behind on both; a second\n\
         card halves the per-tree time (perfect scaling, Section VIII-F).\n\
         (energy uses the paper's published watt figures as a model.)\n"
    );
}

/// Table VII: other inputs — Europe/USA × travel time/distance.
fn tab7(opts: &Opts) {
    let mut t = Table::new(
        "Table VII: per-tree times on other inputs [ms]",
        &[
            "instance", "n", "m", "levels", "Dijkstra", "PHAST", "GPHAST(580)",
        ],
    );
    let base = if opts.quick { 6_000 } else { 60_000 };
    let configs = [
        InstanceConfig::default_europe().with_vertices(base),
        InstanceConfig::default_europe()
            .with_vertices(base)
            .with_metric(Metric::TravelDistance),
        InstanceConfig::default_usa().with_vertices(base * 4 / 3),
        InstanceConfig::default_usa()
            .with_vertices(base * 4 / 3)
            .with_metric(Metric::TravelDistance),
    ];
    for cfg in configs {
        let inst = cfg.build();
        let g = relabel_graph(&inst.network.graph, &dfs_layout(&inst.network.graph, 0));
        let p = Phast::preprocess(&g);
        let n = g.num_vertices();
        let sources: Vec<Vertex> = (0..n as Vertex)
            .step_by((n / opts.sources.clamp(1, 8)).max(1))
            .take(opts.sources.min(8))
            .collect();
        let mut dij = Dijkstra::<DialQueue>::new(g.forward());
        let d = mean_ms(sources.len(), |i| {
            dij.run_in_place(sources[i]);
        });
        let mut e = p.engine();
        let ph = mean_ms(sources.len(), |i| {
            e.distances_sweep(sources[i]);
        });
        let gp_ms = match Gphast::new(&p, DeviceProfile::gtx_580(), 1) {
            Ok(mut gp) => {
                let mut total = Duration::ZERO;
                for &s in &sources {
                    total += gp.run(&[s]).batch_time;
                }
                format!(
                    "{:.3}",
                    total.as_secs_f64() * 1e3 / sources.len() as f64
                )
            }
            Err(_) => "-".into(),
        };
        t.row(&[
            inst.name.clone(),
            n.to_string(),
            g.num_arcs().to_string(),
            p.num_levels().to_string(),
            format!("{d:.2}"),
            format!("{ph:.2}"),
            gp_ms,
        ]);
    }
    t.print();
    println!(
        "paper shape: distance metric gives deeper hierarchies (410 vs 140\n\
         levels on Europe) and slower absolute times; USA is larger and\n\
         slower than Europe; the ranking Dijkstra > PHAST > GPHAST holds\n\
         everywhere.\n"
    );
}

/// Section VIII-B's lower-bound test.
fn lb(ctx: &Context) {
    let mut dist = vec![0u32; ctx.n];
    let lbr = lower_bound::measure(&ctx.phast, &mut dist);
    let mut e = ctx.phast.engine();
    let srcs = ctx.sources(5);
    let ph = mean_ms(srcs.len(), |i| {
        e.distances_sweep(srcs[i]);
    });
    let mut t = Table::new(
        "Lower bound (Section VIII-B)",
        &["measurement", "time [ms]", "vs PHAST"],
    );
    t.row(&[
        "sequential array scan".into(),
        format!("{:.2}", lbr.sequential_scan.as_secs_f64() * 1e3),
        format!("{:.2}x", ph / (lbr.sequential_scan.as_secs_f64() * 1e3)),
    ]);
    t.row(&[
        "graph traversal (sum of arc lengths)".into(),
        format!("{:.2}", lbr.traversal_sum.as_secs_f64() * 1e3),
        format!("{:.2}x", ph / (lbr.traversal_sum.as_secs_f64() * 1e3)),
    ]);
    t.row(&["PHAST sweep".into(), format!("{ph:.2}"), "1.00x".into()]);
    t.print();
    println!(
        "effective scan bandwidth: {:.1} GB/s\n\
         paper shape: PHAST is ~2.6x the pure scan and within ~12% of the\n\
         traversal bound — the d(u) gather is nearly free after reordering.\n",
        lbr.bandwidth_gbps()
    );
}

/// The order ablation: the level order at tile ∈ {1 (the paper's), 64,
/// 256, 1024, 4096, whole level (§VI's rejected order)} × CPU sweep time
/// at k = 1 and k = 16 × the simulated GPU's lane efficiency, DRAM
/// transactions and time, beside how often the trip count of the arc loop
/// changes from one row to the next. CPU cells are medians over rounds of
/// per-round medians, the tiles taking turns within a round, so that a
/// slow stretch of the host falls on every row alike.
fn order_ablation(ctx: &Context, opts: &Opts, sources: &[Vertex]) {
    const K: usize = 16;
    let tiles = [1, 64, 256, 1024, 4096, usize::MAX];
    let instances: Vec<Phast> = tiles
        .iter()
        .map(|&t| Phast::with_degree_tile(&ctx.graph, &ctx.hierarchy, Direction::Forward, t))
        .collect();
    let (rounds, sweeps, batches) = if opts.quick { (3, 10, 3) } else { (9, 40, 8) };
    let batch: Vec<Vertex> = ctx.sources(K);
    let mut singles: Vec<_> = instances.iter().map(Phast::engine).collect();
    let mut multis: Vec<_> = instances.iter().map(|p| p.multi_engine(K)).collect();
    let mut ns_1 = vec![Vec::new(); tiles.len()];
    let mut ns_16 = vec![Vec::new(); tiles.len()];
    for _ in 0..rounds {
        for i in 0..tiles.len() {
            let e = &mut singles[i];
            let one = Samples::collect(2, sweeps, |j| {
                e.distances_sweep(sources[j % sources.len()]);
            });
            ns_1[i].push(one.stats().median_ns);
            let m = &mut multis[i];
            let many = Samples::collect(1, batches, |_| m.run(&batch));
            ns_16[i].push(many.stats().median_ns);
        }
    }
    let median_ms = |ns: &mut Vec<u64>| {
        ns.sort_unstable();
        ns[ns.len() / 2] as f64 / 1e6
    };
    let mut t = Table::new(
        format!("Ablation: degree tiles within levels ({rounds} alternating rounds)"),
        &[
            "tile",
            "trip-count changes / 1024 rows",
            "k=1 [ms]",
            "k=16 [ms/tree]",
            "GPHAST lane efficiency",
            "GPHAST DRAM txns",
            "GPHAST k=1 [ms]",
        ],
    );
    for (i, &tile) in tiles.iter().enumerate() {
        let name = match tile {
            1 => "1 (by level, paper)".to_string(),
            usize::MAX => "level (§VI, rejected)".to_string(),
            _ if instances[i].permutation() == ctx.phast.permutation() => {
                format!("{tile} (default)")
            }
            _ => tile.to_string(),
        };
        let [lanes, dram, gpu_ms] = Gphast::new(&instances[i], DeviceProfile::gtx_580(), 1)
            .map(|mut gp| gp.run(&[sources[0]]))
            .map_or(["-".to_string(), "-".into(), "-".into()], |s| {
                [
                    format!("{:.3}", s.lane_efficiency),
                    s.dram_transactions.to_string(),
                    format!("{:.3}", s.time_per_tree.as_secs_f64() * 1e3),
                ]
            });
        // How often the arc loop's trip count differs from the row
        // before: what the CPU's branch predictor sees of the order.
        let first = instances[i].down().first();
        let changes = first
            .windows(3)
            .filter(|w| w[1] - w[0] != w[2] - w[1])
            .count();
        t.row(&[
            name,
            format!("{:.1}", changes as f64 * 1024.0 / ctx.n as f64),
            format!("{:.3}", median_ms(&mut ns_1[i])),
            format!("{:.3}", median_ms(&mut ns_16[i]) / K as f64),
            lanes,
            dram,
            gpu_ms,
        ]);
    }
    t.print();
    println!(
        "paper shape (§VI): sorting whole levels by degree fixes lane divergence\n\
         but costs label locality (more DRAM transactions) — kept out of GPHAST.\n\
         Ours: inside tiles the CPU's arc loop runs one trip count for long\n\
         stretches (k=1 column) and a row stays within one tile of its place.\n"
    );
}

/// Ablations called out in DESIGN.md: sweep order, SIMD level, witness hop
/// limits.
fn ablations(ctx: &Context, opts: &Opts) {
    let sources = ctx.sources(opts.sources.min(8));

    // (a) Sweep order.
    let mut t = Table::new("Ablation: sweep order", &["order", "time/tree [ms]"]);
    let p_rank = PhastBuilder::new()
        .order(SweepOrder::ByRank)
        .build(&ctx.graph);
    let mut e = p_rank.engine();
    let a = mean_ms(sources.len(), |i| {
        e.distances_sweep(sources[i]);
    });
    t.row(&["by rank (basic PHAST)".into(), format!("{a:.2}")]);
    let mut e = ctx.phast.engine();
    let b = mean_ms(sources.len(), |i| {
        e.distances_sweep(sources[i]);
    });
    // The paper's level order is the first row of the tile table, (d).
    t.row(&[
        "by level, degree-tiled (default)".into(),
        format!("{b:.2}"),
    ]);
    t.print();

    // (b) SIMD level at k = 16.
    let k = 16;
    let batches = (opts.sources / k).max(1);
    let srcs = ctx.sources(batches * k);
    let mut t = Table::new("Ablation: sweep kernel at k=16", &["kernel", "time/tree [ms]"]);
    for level in [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2] {
        let mut engine = ctx.phast.multi_engine(k);
        engine.force_simd(level);
        if engine.simd_level() != level {
            continue; // CPU lacks the feature
        }
        let per_batch = mean_ms(batches, |bi| {
            engine.run(&srcs[bi * k..(bi + 1) * k]);
        });
        t.row(&[
            format!("{level:?}"),
            format!("{:.3}", per_batch / k as f64),
        ]);
    }
    t.print();

    // (b2) Combined: k=16 + SIMD + intra-level parallel sweep (the CPU
    // analogue of GPHAST's execution model).
    {
        let mut engine = ctx.phast.multi_engine(k);
        let per_batch = mean_ms(batches, |bi| {
            engine.run_par(&srcs[bi * k..(bi + 1) * k]);
        });
        let mut t = Table::new(
            "Ablation: combined k=16 + SIMD + parallel sweep",
            &["config", "time/tree [ms]"],
        );
        t.row(&[
            "k=16 simd + intra-level blocks".into(),
            format!("{:.3}", per_batch / k as f64),
        ]);
        t.print();
    }

    // (d) Degree tiles within levels: §VI's negative result (whole-level
    // degree sorting removes warp divergence but hurts the locality of
    // the tail-label reads) and the tiled order that keeps the locality,
    // in one table — the table `DEGREE_TILE` was chosen from.
    order_ablation(ctx, opts, &sources);

    // (c) Witness hop limits: preprocessing cost vs hierarchy quality.
    // Run on a capped instance: over-restricted witness searches densify
    // the graph superlinearly (the "aggressive" row cost ~10 minutes at
    // 250k vertices), and the effect is equally visible at 50k.
    let abl_graph = if ctx.n > 60_000 {
        let inst = InstanceConfig::default_europe().with_vertices(50_000).build();
        relabel_graph(&inst.network.graph, &dfs_layout(&inst.network.graph, 0))
    } else {
        ctx.graph.clone()
    };
    let abl_n = abl_graph.num_vertices();
    let abl_sources: Vec<Vertex> = (0..abl_n as Vertex)
        .step_by((abl_n / sources.len().max(1)).max(1))
        .take(sources.len())
        .collect();
    let mut t = Table::new(
        format!("Ablation: witness-search hop limits ({abl_n} vertices)"),
        &["stages", "prep [s]", "shortcuts", "levels", "sweep [ms]"],
    );
    for (name, stages) in [
        ("paper (5@5, 10@10)", vec![(5.0, 5), (10.0, 10)]),
        ("aggressive (3@10)", vec![(f64::INFINITY, 3)]),
        ("exact (no limits)", vec![]),
    ] {
        let cfg = phast_ch::ContractionConfig {
            hop_stages: stages,
            ..Default::default()
        };
        let (p, prep) = phast_bench::time_once(|| {
            PhastBuilder::new().ch_config(cfg).build(&abl_graph)
        });
        let mut e = p.engine();
        let sw = mean_ms(abl_sources.len(), |i| {
            e.distances_sweep(abl_sources[i]);
        });
        t.row(&[
            name.into(),
            format!("{:.2}", prep.as_secs_f64()),
            p.num_shortcuts().to_string(),
            p.num_levels().to_string(),
            format!("{sw:.2}"),
        ]);
    }
    t.print();
}
