//! `loadgen` — closed-loop load and chaos driver for the `phast-serve`
//! batching query service.
//!
//! ```text
//! loadgen [--scenario batching|compare|panic|chaos|poison-metric|kill-backend]
//!         [--vertices 2000] [--seed 7] [--clients 16] [--requests 200]
//!         [--duration-ms 0] [--smoke] [--json]
//!         [the serve flags: --k, --window-ms, --workers, --queue, --max-conns, ...]
//! ```
//!
//! A run is one row of [`SCENARIOS`], played by [`run_cell`]: a tier (an
//! in-process [`Server`], or a `phast-router` over two `phast_cli serve`
//! child replicas), closed-loop clients checking every reply against a
//! Dijkstra [`Oracle`], the row's [`Actor`]s and timeline of [`Step`]s, one
//! health probe, one report (a table, or one obs-schema object with
//! `--json`) and the row's [`Check`]s on it. `compare` runs a `k = 1` cell
//! beside the configured one and reports the time-per-tree speedup.
//!
//! `--smoke` is the CI length: 2 s, or 1.5 s for the rows built on
//! [`STORM`]. Without it those run 4 s and the others send `--requests` per
//! client; `--duration-ms` overrides both.

use phast_bench::cli::{parse_num, serve_config_from_flags, Flags, SERVE_FLAGS};
use phast_dijkstra::dijkstra::shortest_paths;
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_graph::Graph;
use phast_metrics::{MetricCustomizer, MetricWeights};
use phast_obs::{MetricValue, Report};
use phast_router::{HealthState, Router, RouterConfig};
use phast_serve::{Client, ClientConfig, ErrorKind, MetricWatcher, ServeConfig, Server, Service};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use Actor::{Burst, Disconnect, Garbage, Oversize, Slowloris, Swap};
use Bound::{AtLeast, AtMost, AtMostKey, Exactly};

fn main() {
    if let Err(e) = run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        eprintln!("error: {e}");
        exit(1);
    }
}

struct Scenario {
    name: &'static str,
    tier: Tier,
    /// Runs of the tier — a report label and the `k` if not the
    /// configured one — reported side by side when there are two.
    cells: &'static [(&'static str, Option<usize>)],
    mode: Mode,
    max_clients: usize,
    /// Run length under `--smoke`, and without it (`None`: each client
    /// sends `--requests`).
    smoke_ms: u64,
    full_ms: Option<u64>,
    /// Serve flags this scenario defaults differently; the command line
    /// still wins.
    serve_flags: &'static [(&'static str, &'static str)],
    actors: &'static [Actor],
    timeline: &'static [Step],
    checks: &'static [Check],
}

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    /// An in-process `Server` over the generated graph.
    Local,
    /// A `Router` over two `phast_cli serve` child processes.
    Replicated,
}

/// A thread beside the clients, until the run stops.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Actor {
    Slowloris,
    Disconnect,
    Garbage,
    Oversize,
    Burst,
    /// Publishes the precustomized variants in turn via `swap_epoch`.
    Swap,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// Let the load run for `1/n` of the run length.
    Slice(u32),
    /// Request the poisoned source; records `poisoned_replies_internal`.
    Inject,
    /// Drop honest metric `i` (epoch `i + 2`) into the watched file.
    Publish(usize),
    PublishPoison,
    /// Record the serving epoch under this report key.
    RecordEpoch(&'static str),
    /// SIGKILL replica 0.
    Kill,
    /// Restart replica 0 on its old port.
    Respawn,
    /// Wait, at most 15 s, until the serving epoch reaches this,
    UntilEpoch(u64),
    /// the canary has failed this often,
    UntilCanaryFailures(u64),
    /// or replica 0 is in this router health state.
    UntilVictim(HealthState),
}

/// One check: the sum of the report counts under `.0` against `.1`.
struct Check(&'static [&'static str], Bound);

#[derive(Clone, Copy)]
enum Bound {
    AtLeast(u64),
    AtMost(u64),
    Exactly(u64),
    /// At most the report count under this key.
    AtMostKey(&'static str),
}

/// The in-process server under the configured load.
const LOAD: Scenario = Scenario {
    name: "",
    tier: Tier::Local,
    cells: &[("cell", None)],
    mode: Mode::Mixed,
    max_clients: usize::MAX,
    smoke_ms: 2000,
    full_ms: None,
    serve_flags: &[],
    actors: &[],
    timeline: &[],
    checks: &[],
};

/// A few well-behaved clients for a fixed length beside the disruption.
const STORM: Scenario = Scenario {
    max_clients: 4,
    smoke_ms: 1500,
    full_ms: Some(4000),
    ..LOAD
};

static SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "batching",
        checks: &[
            Check(&["requests_ok"], AtLeast(1)),
            Check(&["requests_err"], AtMost(0)),
            Check(&["replies_diverged"], AtMost(0)),
            Check(&["multi_batches"], AtLeast(1)),
        ],
        ..LOAD
    },
    Scenario {
        name: "compare",
        cells: &[("batched", None), ("scalar", Some(1))],
        // A full sweep per request but a constant-size reply, so the
        // difference is the engine, not the encoding of n distances.
        mode: Mode::Many,
        checks: &[
            Check(&["batched.requests_err"], AtMost(0)),
            Check(&["batched.replies_diverged"], AtMost(0)),
            // The same as a mean occupancy above 1: some batch held two.
            Check(&["batched.multi_batches"], AtLeast(1)),
            Check(&["scalar.requests_err"], AtMost(0)),
            Check(&["scalar.replies_diverged"], AtMost(0)),
        ],
        ..LOAD
    },
    Scenario {
        name: "panic",
        timeline: &[Step::Slice(10), Step::Inject],
        checks: &[
            Check(&["requests_ok"], AtLeast(1)),
            // Requests batched with the poisoned one are quarantined too.
            Check(&["requests_err"], AtMostKey("quarantined_requests")),
            Check(&["replies_diverged"], AtMost(0)),
            Check(&["poisoned_replies_internal"], AtLeast(1)),
            Check(&["worker_restarts"], AtLeast(1)),
        ],
        ..LOAD
    },
    Scenario {
        name: "chaos",
        // Limits within reach of a short run: a sub-second I/O timeout so
        // slowloris reaping is observable, a small line cap so the
        // oversize actor is cheap, and a shallow queue and shed depth so
        // burst storms actually shed.
        serve_flags: &[
            ("--io-timeout-ms", "400"),
            ("--max-line-bytes", "4096"),
            ("--queue", "64"),
            ("--shed-queue-depth", "8"),
            ("--max-conns", "64"),
        ],
        actors: &[
            Slowloris, Slowloris, Disconnect, Garbage, Oversize, Burst, Swap,
        ],
        checks: &[
            Check(&["requests_ok"], AtLeast(1)),
            Check(&["requests_err"], AtMost(0)),
            Check(&["replies_diverged"], AtMost(0)),
            Check(&["peak_live_connections"], AtMostKey("max_conns")),
            Check(&["timed_out_connections"], AtLeast(1)),
            Check(&["rejected_invalid"], AtLeast(1)),
            Check(&["shed_overload", "rejected_queue_full"], AtLeast(1)),
            Check(&["metric_swaps"], AtLeast(1)),
        ],
        ..STORM
    },
    Scenario {
        name: "poison-metric",
        timeline: &[
            Step::Slice(5),
            Step::Publish(0),
            Step::UntilEpoch(2),
            Step::Slice(5),
            Step::PublishPoison,
            Step::UntilCanaryFailures(1),
            Step::RecordEpoch("epoch_after_poison"),
            Step::Slice(5),
            Step::Publish(1),
            Step::UntilEpoch(3),
            Step::Slice(5),
        ],
        checks: &[
            Check(&["requests_ok"], AtLeast(1)),
            Check(&["requests_err"], AtMost(0)),
            Check(&["replies_diverged"], AtMost(0)),
            Check(&["canary_failures"], AtLeast(1)),
            Check(&["quarantined_metrics"], AtLeast(1)),
            Check(&["epoch_after_poison"], Exactly(2)),
            Check(&["metric_swaps"], Exactly(2)),
            Check(&["final_epoch"], Exactly(3)),
        ],
        ..STORM
    },
    Scenario {
        name: "kill-backend",
        tier: Tier::Replicated,
        timeline: &[
            Step::Slice(4),
            Step::Kill,
            Step::UntilVictim(HealthState::Ejected),
            Step::Respawn,
            Step::UntilVictim(HealthState::Healthy),
            Step::Slice(2),
        ],
        checks: &[
            Check(&["requests_ok"], AtLeast(1)),
            Check(&["requests_err"], AtMost(0)),
            Check(&["replies_diverged"], AtMost(0)),
            Check(&["router_failovers"], AtLeast(1)),
            Check(&["router_ejections"], AtLeast(1)),
            Check(&["router_recoveries"], AtLeast(1)),
        ],
        ..STORM
    },
];

/// The deadline every client request carries.
const DEADLINE_MS: Option<u64> = Some(3_000);

impl Scenario {
    /// Evaluates every row against `r`; the error names each that failed.
    fn check(&self, r: &Report) -> Result<(), String> {
        let count = |key: &str| match r.get(key) {
            Some(MetricValue::Count(c)) => Ok(*c),
            _ => Err(format!("the report has no count `{key}`")),
        };
        let mut failed = Vec::new();
        for Check(keys, bound) in self.checks {
            let sum = keys.iter().map(|k| count(k)).sum::<Result<u64, String>>()?;
            let (held, want) = match *bound {
                AtLeast(b) => (sum >= b, format!(">= {b}")),
                AtMost(b) => (sum <= b, format!("<= {b}")),
                Exactly(b) => (sum == b, format!("== {b}")),
                AtMostKey(key) => {
                    let b = count(key)?;
                    (sum <= b, format!("<= {key} = {b}"))
                }
            };
            if !held {
                failed.push(format!("{} = {sum}, want {want}", keys.join(" + ")));
            }
        }
        if failed.is_empty() {
            Ok(())
        } else {
            Err(failed.join("; "))
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Mixed,
    Tree,
    Many,
    P2p,
}

impl Mode {
    fn pick(self, rng: &mut ChaCha8Rng) -> Mode {
        match self {
            Mode::Mixed if rng.random_bool(0.4) => Mode::Tree,
            Mode::Mixed if rng.random_bool(0.66) => Mode::Many,
            Mode::Mixed => Mode::P2p,
            op => op,
        }
    }
}

/// The client side of a run.
#[derive(Clone, Copy)]
struct Load {
    clients: usize,
    requests: u64,
    duration: Option<Duration>,
    mode: Mode,
    seed: u64,
}

fn run(args: &[String]) -> Result<(), String> {
    let mut spec_flags: Vec<(&str, bool)> = vec![
        ("--scenario", true),
        ("--vertices", true),
        ("--seed", true),
        ("--clients", true),
        ("--requests", true),
        ("--duration-ms", true),
        ("--smoke", false),
        ("--json", false),
    ];
    spec_flags.extend_from_slice(&SERVE_FLAGS);
    let name = Flags::parse(args, &spec_flags)?
        .get("--scenario")
        .unwrap_or("batching");
    let sc = SCENARIOS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown --scenario `{name}` (one of: {})", names.join(", "))
    })?;
    // The scenario's serve-flag defaults go after the command line, whose
    // flags, found first, win.
    let defaults = sc.serve_flags.iter().flat_map(|&(flag, v)| [flag, v]);
    let args: Vec<String> = args
        .iter()
        .cloned()
        .chain(defaults.map(String::from))
        .collect();
    let f = Flags::parse(&args, &spec_flags)?;
    let vertices: usize = parse_num(f.get("--vertices").unwrap_or("2000"), "--vertices")?;
    let seed: u64 = parse_num(f.get("--seed").unwrap_or("7"), "--seed")?;
    let clients: usize = parse_num(f.get("--clients").unwrap_or("16"), "--clients")?;
    let requests: u64 = parse_num(f.get("--requests").unwrap_or("200"), "--requests")?;
    let duration_ms: u64 = parse_num(f.get("--duration-ms").unwrap_or("0"), "--duration-ms")?;
    let mut cfg = serve_config_from_flags(&f)?;
    if clients == 0 {
        return Err("--clients must be positive".into());
    }
    let load = Load {
        clients: clients.min(sc.max_clients),
        requests,
        duration: match (duration_ms, f.has("--smoke")) {
            (0, true) => Some(sc.smoke_ms),
            (0, false) => sc.full_ms,
            (ms, _) => Some(ms),
        }
        .map(Duration::from_millis),
        mode: sc.mode,
        seed,
    };

    eprintln!("generating {vertices}-vertex synthetic road network (seed {seed})...");
    let graph = RoadNetworkConfig::europe_like(vertices, seed, Metric::TravelTime)
        .build()
        .graph;
    let n = graph.num_vertices();
    if n < 2 {
        return Err(format!("--scenario {} needs at least 2 vertices", sc.name));
    }
    if sc.timeline.contains(&Step::Inject) {
        // The oracle never draws the highest id as a source, so only the
        // injected request trips the fault.
        cfg.panic_on_source = Some((n - 1) as u32);
    }
    let setup = Setup::new(sc, graph, seed)?;
    let mut report = Report::new(format!("loadgen {}", sc.name));
    let mut per_tree = Vec::new();
    for &(label, k) in sc.cells {
        // Side by side, every cell runs on one worker, so the difference
        // between them is batching, not threads.
        let cell = ServeConfig {
            max_k: k.unwrap_or(cfg.max_k),
            workers: if sc.cells.len() > 1 { 1 } else { cfg.workers },
            ..cfg.clone()
        };
        let (r, t) = run_cell(sc, &cell, &setup, &load)?;
        if sc.cells.len() == 1 {
            report = r;
        } else {
            report.merge_prefixed(label, &r);
        }
        per_tree.push(t.as_secs_f64());
    }
    if let [batched, scalar] = per_tree[..] {
        let speedup = if batched > 0.0 { scalar / batched } else { 0.0 };
        report.push_ratio("speedup_time_per_tree", speedup);
    }
    if f.has("--json") {
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        phast_bench::report::report_to_table(&report).print();
    }
    sc.check(&report)
        .map_err(|e| format!("{} check failed: {e}", sc.name))?;
    eprintln!("{} ok: all {} checks held", sc.name, sc.checks.len());
    Ok(())
}

/// Dijkstra trees from a few sources, one table per metric epoch.
/// `tables[0]` is the base metric (epoch 1); epoch `e >= 2` was customized
/// from `metrics[(e - 2) % metrics.len()]` — the order the swap actor
/// cycles through and the rollout publishes in. Every table covers the
/// same sources in the same order, so a client picks the source first and
/// the table after the reply.
struct Oracle {
    sources: Vec<u32>,
    tables: Vec<Vec<Vec<u32>>>,
    metrics: Vec<MetricWeights>,
}

impl Oracle {
    fn new(graph: &Graph, metrics: Vec<MetricWeights>, seed: u64) -> Oracle {
        let n = graph.num_vertices() as u32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00C0_FFEE);
        // The highest id is never a source: the `panic` scenario poisons it.
        let sources: Vec<u32> = (0..8).map(|_| rng.random_range(0..n - 1)).collect();
        let table = |g: &Graph| -> Vec<Vec<u32>> {
            let tree = |&s: &u32| shortest_paths(g.forward(), s).dist;
            sources.iter().map(tree).collect()
        };
        let mut tables = vec![table(graph)];
        tables.extend(metrics.iter().map(|m| table(&m.reweighted(graph))));
        Oracle {
            sources,
            tables,
            metrics,
        }
    }

    fn for_epoch(&self, epoch: u64) -> &[Vec<u32>] {
        if epoch <= 1 || self.metrics.is_empty() {
            &self.tables[0]
        } else {
            &self.tables[1 + (epoch as usize - 2) % self.metrics.len()]
        }
    }

    fn num_vertices(&self) -> u32 {
        self.tables[0][0].len() as u32
    }
}

/// A metric customized into servable engines.
type Customized = (Arc<phast_core::Phast>, Arc<phast_ch::Hierarchy>);

struct Setup {
    graph: Graph,
    oracle: Arc<Oracle>,
    /// The swap actor's variants, customized up front: the storm should
    /// measure swaps, not customization.
    swapped: Vec<Customized>,
    poison: Option<MetricWeights>,
    /// The customizer a rollout's watcher runs.
    watch: Option<Arc<MetricCustomizer>>,
}

impl Setup {
    fn new(sc: &Scenario, graph: Graph, seed: u64) -> Result<Setup, String> {
        let swaps = sc.actors.contains(&Swap);
        let rollout = sc.timeline.contains(&Step::PublishPoison);
        let perturbed = |name: &str, v, s| MetricWeights::perturbed(&graph, name, v, s);
        let metrics: Vec<MetricWeights> = if swaps {
            (0..3u64)
                .map(|k| perturbed("chaos", k + 1, seed ^ (0x51AB << 8) ^ k))
                .collect()
        } else if rollout {
            vec![
                perturbed("honest", 1, seed ^ 0xA1),
                perturbed("honest", 2, seed ^ 0xA2),
            ]
        } else {
            Vec::new()
        };
        if rollout {
            // Armed before the customizer (and its rayon pool) exists, for
            // the rest of the process. On disk the poison is as honest as
            // the others; only the canary can notice.
            std::env::set_var(phast_metrics::CANARY_FAULT_ENV, "poison");
        }
        let mut customizer = None;
        if swaps || rollout {
            eprintln!("freezing the customization topology...");
            let h = phast_ch::contract_graph(&graph, &phast_ch::ContractionConfig::default());
            customizer = Some(Arc::new(
                MetricCustomizer::new(graph.clone(), &h)
                    .map_err(|e| format!("freezing the topology: {e}"))?,
            ));
        }
        let mut swapped = Vec::new();
        if let (true, Some(c)) = (swaps, &customizer) {
            for m in &metrics {
                let (p, h) = c
                    .build(m)
                    .map_err(|e| format!("customizing `{}`: {e}", m.name))?;
                swapped.push((Arc::new(p), Arc::new(h)));
            }
        }
        let poison = rollout.then(|| perturbed("poison", 1, seed ^ 0xBAD));
        Ok(Setup {
            oracle: Arc::new(Oracle::new(&graph, metrics, seed)),
            graph,
            swapped,
            poison,
            watch: customizer.filter(|_| rollout),
        })
    }
}

/// Stands up the tier, drives it with the clients and actors while the
/// timeline plays, and reports what both sides saw, with the mean wall
/// time per exact reply: under closed-loop clients the service's inverse
/// throughput, the paper's trees-per-second lever seen from outside.
fn run_cell(
    sc: &Scenario,
    cfg: &ServeConfig,
    setup: &Setup,
    load: &Load,
) -> Result<(Report, Duration), String> {
    let mut live = Live::stand_up(sc, cfg, setup)?;
    live.report.push_count("clients", load.clients as u64);
    if sc.tier == Tier::Local {
        live.report
            .push_count("k", cfg.max_k as u64)
            .push_time("batch_window", cfg.window)
            .push_count("workers", cfg.workers as u64);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let mut clients = Vec::new();
    for c in 0..load.clients as u64 {
        let oracle = Arc::clone(&setup.oracle);
        let (addr, stop, load) = (live.addr.clone(), Arc::clone(&stop), *load);
        clients.push(spawn_named(format!("loadgen-client-{c}"), move || {
            client_loop(&addr, &oracle, &load, c, &stop)
        })?);
    }
    let mut actors = Vec::new();
    for (i, &actor) in sc.actors.iter().enumerate() {
        let (addr, stop) = (live.addr.clone(), Arc::clone(&stop));
        let n = setup.oracle.num_vertices();
        let seed = load.seed.wrapping_add(0xBAD + i as u64);
        // Slowloris dribbles slower than the I/O timeout, so every
        // connection gets reaped.
        let gap = cfg.io_timeout + Duration::from_millis(300);
        let cap = cfg.max_line_bytes;
        let service = match &live.tier {
            Running::Local { service, .. } => Some(Arc::clone(service)),
            Running::Replicated { .. } => None,
        };
        let variants = setup.swapped.clone();
        actors.push(spawn_named(
            format!("chaos-{actor:?}-{i}"),
            move || match actor {
                Slowloris => chaos_slowloris(&addr, gap, &stop),
                Disconnect => chaos_disconnect(&addr, &stop),
                Garbage => chaos_garbage(&addr, seed, &stop),
                Oversize => chaos_oversize(&addr, cap, &stop),
                Burst => chaos_burst(&addr, n, seed, &stop),
                Swap => chaos_swap(&service.expect("in-process"), &variants, &stop),
            },
        )?);
    }

    let played = live.play(sc.timeline, load.duration.unwrap_or_default(), setup);
    // Without a run length each client stops after its `--requests`.
    if let Some(d) = load.duration {
        if played.is_ok() {
            live.pause(d.saturating_sub(start.elapsed()));
        }
        stop.store(true, Ordering::SeqCst);
    }
    let mut tally = Tally::default();
    for h in clients {
        tally.merge(h.join().map_err(|_| "client thread panicked".to_string())?);
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::SeqCst);
    for h in actors {
        h.join().map_err(|_| "actor thread panicked".to_string())?;
    }
    played?;
    let per_tree = tally.fill_report(&mut live.report, elapsed);
    probe(&live.addr, &setup.oracle)?;
    Ok((live.finish(), per_tree))
}

/// The tier under test, standing, and its cell's report.
struct Live {
    addr: String,
    /// Most live connections seen while the timeline played.
    peak_live: usize,
    tier: Running,
    report: Report,
}

/// Fields drop in order: the front before what it serves, the replicas and
/// the watcher before their files.
enum Running {
    Local {
        service: Arc<Service>,
        server: Server,
        watch: Option<(MetricWatcher, TempPath)>,
    },
    Replicated {
        router: Router,
        replicas: [ServeChild; 2],
        artifact: TempPath,
    },
}

impl Live {
    fn stand_up(sc: &Scenario, cfg: &ServeConfig, setup: &Setup) -> Result<Live, String> {
        let graph = &setup.graph;
        let running = match sc.tier {
            Tier::Local => {
                let service = Service::for_graph(graph, cfg.clone());
                let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
                    .map_err(|e| format!("cannot bind loopback: {e}"))?;
                let watch = setup.watch.as_ref().map(|customizer| {
                    let path = TempPath::new("poison", "json");
                    let every = Duration::from_millis(25);
                    let (service, customizer) = (Arc::clone(&service), Arc::clone(customizer));
                    let watcher = MetricWatcher::spawn(service, customizer, path.0.clone(), every);
                    (watcher, path)
                });
                Running::Local {
                    service,
                    server,
                    watch,
                }
            }
            Tier::Replicated => {
                // Preprocess once; both replicas serve the same artifact, so
                // a (re)start is an mmap load, not a recontraction.
                let artifact = TempPath::new("chaos", "phast");
                let h = phast_ch::contract_graph(graph, &phast_ch::ContractionConfig::default());
                let p = phast_core::PhastBuilder::new().build_with_hierarchy(graph, &h);
                phast_store::write_instance(&artifact.0, &p, Some(&h))
                    .map_err(|e| format!("cannot write the replica artifact: {e}"))?;
                let any = SocketAddr::from(([127, 0, 0, 1], 0));
                let replicas = [
                    spawn_serve_child(&artifact.0, any)?,
                    spawn_serve_child(&artifact.0, any)?,
                ];
                let router = Router::spawn(
                    RouterConfig {
                        backends: replicas.iter().map(|r| r.addr).collect(),
                        probe_interval: Duration::from_millis(50),
                        eject_after: 2,
                        halfopen_after: Duration::from_millis(200),
                        connect_timeout: Duration::from_secs(1),
                        io_timeout: Duration::from_secs(5),
                        max_failovers: 4,
                        default_budget: Duration::from_secs(4),
                        ..RouterConfig::default()
                    },
                    "127.0.0.1:0",
                )
                .map_err(|e| format!("cannot bind the router: {e}"))?;
                Running::Replicated {
                    router,
                    replicas,
                    artifact,
                }
            }
        };
        let addr = match &running {
            Running::Local { server, .. } => server.local_addr(),
            Running::Replicated { router, .. } => router.local_addr(),
        };
        Ok(Live {
            addr: addr.to_string(),
            peak_live: 0,
            tier: running,
            report: Report::new(format!("loadgen {}", sc.name)),
        })
    }

    /// Lets the load run for `d`, sampling live connections every 10 ms.
    fn pause(&mut self, d: Duration) {
        let (peak, tier) = (&mut self.peak_live, &self.tier);
        ticks(d, || {
            *peak = (*peak).max(match tier {
                Running::Local { server, .. } => server.live_connections(),
                Running::Replicated { router, .. } => router.live_connections(),
            });
            true
        });
    }

    fn play(&mut self, steps: &[Step], run: Duration, setup: &Setup) -> Result<(), String> {
        for &step in steps {
            match (step, &mut self.tier) {
                (Step::Slice(n), _) => self.pause(run / n),
                (Step::UntilEpoch(_) | Step::UntilCanaryFailures(_) | Step::UntilVictim(_), _) => {
                    let give_up = Instant::now() + Duration::from_secs(15);
                    while !self.holds(step) {
                        if Instant::now() >= give_up {
                            return Err(format!("timed out after 15 s waiting for {step:?}"));
                        }
                        self.pause(Duration::from_millis(10));
                    }
                }
                (Step::Inject, Running::Local { service, .. }) => {
                    let bad = service.config().panic_on_source.expect("a poisoned source");
                    let client = Client::connect(&self.addr);
                    let reply = client.map(|mut c| c.tree(bad, None).map(|_| "an answer"));
                    let internal = matches!(&reply, Ok(Err(e)) if e.kind == ErrorKind::Internal);
                    if !internal {
                        eprintln!("the poisoned request did not come back internal: {reply:?}");
                    }
                    let key = "poisoned_replies_internal";
                    self.report.push_count(key, u64::from(internal));
                }
                (Step::Publish(_) | Step::PublishPoison, Running::Local { watch, .. }) => {
                    let m = match step {
                        Step::Publish(i) => &setup.oracle.metrics[i],
                        _ => setup.poison.as_ref().expect("a rollout has a poison"),
                    };
                    let (_, path) = watch.as_ref().expect("a rollout watches a file");
                    write_metric_file(&path.0, m)?;
                }
                (Step::RecordEpoch(key), Running::Local { service, .. }) => {
                    self.report.push_count(key, service.epoch_id());
                }
                (Step::Kill, Running::Replicated { replicas, .. }) => {
                    eprintln!("SIGKILL {}", replicas[0].addr);
                    replicas[0].kill();
                }
                (
                    Step::Respawn,
                    Running::Replicated {
                        replicas, artifact, ..
                    },
                ) => {
                    replicas[0] = respawn_serve_child(&artifact.0, replicas[0].addr)?;
                    eprintln!("{} restarted", replicas[0].addr);
                }
                (step, _) => panic!("step {step:?} does not apply to this tier"),
            }
        }
        Ok(())
    }

    fn holds(&self, until: Step) -> bool {
        match (until, &self.tier) {
            (Step::UntilEpoch(e), Running::Local { service, .. }) => service.epoch_id() >= e,
            (Step::UntilCanaryFailures(n), Running::Local { service, .. }) => {
                service.stats().canary_failures() >= n
            }
            (Step::UntilVictim(state), Running::Replicated { router, .. }) => {
                router.pool().backends()[0].state() == state
            }
            (until, _) => panic!("{until:?} does not apply to this tier"),
        }
    }

    /// Shuts the tier down and returns the report with its counters.
    fn finish(mut self) -> Report {
        let r = &mut self.report;
        r.push_count("peak_live_connections", self.peak_live as u64);
        match self.tier {
            Running::Local {
                service,
                server,
                watch,
            } => {
                // The watcher stops, and its file goes, first.
                drop(watch);
                server.shutdown();
                let stats = service.stats();
                r.push_count("max_conns", service.config().max_conns as u64);
                stats.fill_report(r);
                r.push_ratio("mean_batch_occupancy", stats.mean_batch_occupancy())
                    .push_count("final_epoch", service.epoch_id());
            }
            Running::Replicated { router, .. } => {
                r.push_count("max_conns", router.config().max_conns as u64);
                router.stats().fill_report(r);
                router.shutdown();
            }
        }
        self.report
    }
}

/// The one post-run health probe: a fresh connection through the tier
/// still gets an exact tree, for whatever epoch is serving by now.
fn probe(addr: &str, oracle: &Oracle) -> Result<(), String> {
    let mut probe = Client::connect(addr).map_err(|e| format!("post-run connect failed: {e}"))?;
    let got = probe
        .tree(oracle.sources[0], None)
        .map_err(|e| format!("post-run tree failed: {:?}: {}", e.kind, e.message))?;
    if got != oracle.for_epoch(probe.last_epoch().unwrap_or(1))[0] {
        return Err("post-run answers diverged from the reference".into());
    }
    Ok(())
}

#[derive(Default)]
struct Tally {
    /// Replies equal to the oracle's.
    ok: u64,
    /// Typed errors and transport failures left after the retries.
    err: u64,
    diverged: u64,
    /// Latencies of the exact replies, in nanoseconds.
    latencies: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.err += other.err;
        self.diverged += other.diverged;
        self.latencies.extend(other.latencies);
    }

    /// Appends the tally to `r` and returns the mean wall time per exact
    /// reply.
    fn fill_report(mut self, r: &mut Report, elapsed: Duration) -> Duration {
        self.latencies.sort_unstable();
        let per_tree = match self.ok {
            0 => Duration::ZERO,
            ok => Duration::from_nanos((elapsed.as_nanos() / ok as u128) as u64),
        };
        let pct = |p: f64| match self.latencies.len() {
            0 => Duration::ZERO,
            len => Duration::from_nanos(self.latencies[(p * (len - 1) as f64).round() as usize]),
        };
        r.push_count("requests_ok", self.ok)
            .push_count("requests_err", self.err)
            .push_count("replies_diverged", self.diverged)
            .push_time("elapsed", elapsed)
            .push_ratio("throughput_rps", self.ok as f64 / elapsed.as_secs_f64())
            .push_time("time_per_tree", per_tree)
            .push_time("latency_p50", pct(0.5))
            .push_time("latency_p90", pct(0.9))
            .push_time("latency_p99", pct(0.99));
        per_tree
    }
}

/// One closed-loop client: exactly one request in flight, a retrying
/// transport, and every reply checked against the oracle table of the
/// metric epoch stamped on it — a reply answered on a freshly swapped
/// metric must match that metric's Dijkstra, one admitted before the swap
/// its admission epoch's. The first failures go to stderr.
fn client_loop(addr: &str, oracle: &Oracle, load: &Load, c: u64, stop: &AtomicBool) -> Tally {
    let mut rng = ChaCha8Rng::seed_from_u64(load.seed.wrapping_add(c).wrapping_mul(0x9e37_79b9));
    let mut tally = Tally::default();
    let mut client = match Client::connect_with(addr, ClientConfig::retrying(8)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client connect failed: {e}");
            tally.err = 1;
            return tally;
        }
    };
    let n = oracle.num_vertices();
    let requests = if load.duration.is_some() {
        u64::MAX
    } else {
        load.requests
    };
    for turn in 0..requests {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let si = rng.random_range(0..oracle.sources.len());
        let source = oracle.sources[si];
        let op = load.mode.pick(&mut rng);
        let targets: Vec<u32> = match op {
            Mode::Many => (0..1 + rng.random_range(0..8))
                .map(|_| rng.random_range(0..n))
                .collect(),
            Mode::P2p => vec![rng.random_range(0..n)],
            _ => Vec::new(),
        };
        let started = Instant::now();
        let reply = match op {
            Mode::Many => client.many(source, &targets, DEADLINE_MS),
            Mode::P2p => client.p2p(source, targets[0], DEADLINE_MS).map(|d| vec![d]),
            _ => client.tree(source, DEADLINE_MS),
        };
        let latency = started.elapsed().as_nanos() as u64;
        // The retries are spent on a dead transport: the tier is gone, and
        // so is this client.
        let dead = matches!(&reply, Err(e) if e.kind == ErrorKind::Transport);
        let failure = match reply {
            Ok(got) => {
                let want = &oracle.for_epoch(client.last_epoch().unwrap_or(1))[si];
                let exact = match op {
                    Mode::Tree => got == *want,
                    _ => got.iter().eq(targets.iter().map(|&t| &want[t as usize])),
                };
                if exact {
                    tally.ok += 1;
                    tally.latencies.push(latency);
                    continue;
                }
                tally.diverged += 1;
                format!(
                    "diverged from the epoch {:?} reference",
                    client.last_epoch()
                )
            }
            Err(e) => {
                tally.err += 1;
                format!("{e:?}")
            }
        };
        if tally.err + tally.diverged <= 2 {
            eprintln!("request {turn} ({op:?} from {source}): {failure}");
        }
        if dead {
            break;
        }
    }
    tally
}

fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<JoinHandle<T>, String> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .map_err(|e| format!("cannot spawn a loadgen thread: {e}"))
}

/// Calls `tick` every 10 ms for `total`; false as soon as `tick` is.
fn ticks(total: Duration, mut tick: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + total;
    loop {
        if !tick() {
            return false;
        }
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}

/// Sleeps `total` in short slices so actors notice `stop` promptly; false
/// once `stop` is set.
fn nap(stop: &AtomicBool, total: Duration) -> bool {
    ticks(total, || !stop.load(Ordering::SeqCst))
}

/// Runs `hit` on a fresh connection every `gap` until `stop`.
fn hammer(addr: &str, stop: &AtomicBool, gap: Duration, mut hit: impl FnMut(TcpStream)) {
    loop {
        if let Ok(s) = TcpStream::connect(addr) {
            hit(s);
        }
        if !nap(stop, gap) {
            return;
        }
    }
}

/// Cycles the precomputed customizations through `swap_epoch` every
/// ~300 ms, so in-flight requests straddle metric boundaries.
fn chaos_swap(service: &Service, variants: &[Customized], stop: &AtomicBool) {
    for (p, h) in variants.iter().cycle() {
        if !nap(stop, Duration::from_millis(300)) {
            return;
        }
        if let Err(e) = service.swap_epoch(Arc::clone(p), Some(Arc::clone(h))) {
            // Shutdown raced the last swap; anything else is a bug the
            // exactness checks would mask.
            eprintln!("chaos swap: swap rejected: {e:?}");
            return;
        }
    }
}

/// Dribbles bytes slower than the server's I/O timeout; every connection
/// should get reaped (`timed_out_connections`).
fn chaos_slowloris(addr: &str, gap: Duration, stop: &AtomicBool) {
    let line = b"{\"op\":\"tree\",\"source\":0}\n";
    hammer(addr, stop, Duration::from_millis(50), |mut s| {
        let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
        for &b in line.iter().cycle() {
            // A failed write means the server reaped us — reconnect.
            if s.write_all(&[b]).is_err() || !nap(stop, gap) {
                return;
            }
        }
    });
}

/// Connects, writes part or all of a request, and vanishes mid-flight:
/// half a line; a full request, gone before the (large) reply is read; a
/// full request, gone after half the reply.
fn chaos_disconnect(addr: &str, stop: &AtomicBool) {
    let lines: [&[u8]; 3] = [
        b"{\"op\":\"tree\",\"sou",
        b"{\"op\":\"tree\",\"source\":1}\n",
        b"{\"op\":\"p2p\",\"source\":1,\"target\":0}\n",
    ];
    let mut phase = 0;
    hammer(addr, stop, Duration::from_millis(15), |mut s| {
        let _ = s.write_all(lines[phase % 3]);
        if phase % 3 == 2 {
            let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
            let _ = s.read(&mut [0u8; 8]);
        }
        phase += 1;
    });
}

/// Floods newline-terminated byte soup; every line must come back as a
/// typed `malformed` reply (`rejected_invalid`), never a crash.
fn chaos_garbage(addr: &str, seed: u64, stop: &AtomicBool) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    hammer(addr, stop, Duration::from_millis(20), |mut s| {
        let _ = s.set_read_timeout(Some(Duration::from_millis(100)));
        let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
        for _ in 0..8 {
            let len = 16 + rng.random_range(0..240) as usize;
            let mut line: Vec<u8> = (0..len)
                .map(|_| match rng.random_range(1..256) as u8 {
                    b'\n' => b'x',
                    b => b,
                })
                .collect();
            line.push(b'\n');
            if s.write_all(&line).is_err() {
                return;
            }
            let _ = s.read(&mut [0u8; 512]);
        }
    });
}

/// Sends request lines far beyond `--max-line-bytes`; the server must
/// reply `malformed` and close without buffering the flood.
fn chaos_oversize(addr: &str, cap: usize, stop: &AtomicBool) {
    let blob = vec![b'a'; cap * 2];
    hammer(addr, stop, Duration::from_millis(30), |mut s| {
        let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = s.write_all(&blob);
        let _ = s.write_all(b"\n");
        let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = s.read(&mut [0u8; 512]);
    });
}

/// Fires waves of concurrent connections that together push queue depth
/// past the shed threshold; sheds come back as typed `overloaded`
/// replies, not hangs.
fn chaos_burst(addr: &str, n: u32, seed: u64, stop: &AtomicBool) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    loop {
        let mut wave = Vec::new();
        for _ in 0..16 {
            let addr = addr.to_string();
            let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
            wave.extend(spawn_named("chaos-burst-conn".into(), move || {
                burst_conn(&addr, src, dst)
            }));
        }
        for h in wave {
            let _ = h.join();
        }
        if !nap(stop, Duration::from_millis(100)) {
            return;
        }
    }
}

/// One burst connection: pipelines a handful of p2p requests at once,
/// then drains whatever replies (answers or typed sheds) come back.
fn burst_conn(addr: &str, src: u32, dst: u32) {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return;
    };
    let _ = s.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
    let line = format!("{{\"op\":\"p2p\",\"source\":{src},\"target\":{dst}}}\n");
    if s.write_all(line.repeat(10).as_bytes()).is_err() {
        return;
    }
    let mut buf = [0u8; 4096];
    let mut newlines = 0;
    while newlines < 10 {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => newlines += buf[..k].iter().filter(|&&b| b == b'\n').count(),
        }
    }
}

/// A path in the temp dir, deleted when the guard drops: a run's replica
/// artifact and watched metric file go on every exit path, early `?`
/// returns included.
struct TempPath(PathBuf);

impl TempPath {
    fn new(stem: &str, ext: &str) -> TempPath {
        let path = std::env::temp_dir().join(format!("phast-{stem}-{}.{ext}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempPath(path)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Atomically replaces `path` with `m` serialized as JSON (sibling temp
/// file + rename), so the watcher never observes a torn write.
fn write_metric_file(path: &Path, m: &MetricWeights) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let body = serde_json::to_string(m).map_err(|e| format!("serializing metric: {e}"))?;
    std::fs::write(&tmp, body).map_err(|e| format!("writing `{}`: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("publishing `{}`: {e}", path.display()))
}

/// One `phast_cli serve` replica child process and the address it bound.
/// Dropping it SIGKILLs and reaps the child, so no replica outlives the
/// harness on any exit path.
struct ServeChild {
    child: std::process::Child,
    addr: SocketAddr,
}

impl ServeChild {
    /// SIGKILL — no graceful drain, exactly the failure the router must
    /// absorb.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns one `phast_cli serve` replica — the binary next to this one —
/// on `addr` (port 0 for any) and waits for its `listening on ...` banner
/// to learn the bound address. A child that exits first (e.g. the port is
/// still held) is reported.
fn spawn_serve_child(inst: &Path, addr: SocketAddr) -> Result<ServeChild, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("phast_cli");
    let child = std::process::Command::new(&bin)
        .arg("serve")
        .arg("--instance")
        .arg(inst)
        .args(["--addr", &addr.to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    // Guarded from here on: every early return below kills and reaps it.
    let mut replica = ServeChild { child, addr };
    let stderr = replica.child.stderr.take().expect("stderr was piped");
    let mut reader = std::io::BufReader::new(stderr);
    let mut log = String::new();
    loop {
        let mut line = String::new();
        if matches!(reader.read_line(&mut line), Ok(0) | Err(_)) {
            return Err(format!("replica exited before listening:\n{log}"));
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            replica.addr = rest
                .parse()
                .map_err(|e| format!("unparseable listen banner `{rest}`: {e}"))?;
            // Keep draining stderr so the child can never block on a full
            // pipe.
            std::thread::spawn(move || std::io::copy(&mut reader, &mut std::io::sink()));
            return Ok(replica);
        }
        log.push_str(&line);
    }
}

/// Restarts a killed replica on its old (fixed) port. The port may linger
/// briefly (straggling sockets), so bind failures retry on a short loop.
fn respawn_serve_child(inst: &Path, addr: SocketAddr) -> Result<ServeChild, String> {
    let mut last = String::new();
    for _ in 0..40 {
        match spawn_serve_child(inst, addr) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    Err(format!("could not restart replica on {addr}: {last}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn report(counts: &BTreeMap<&str, u64>) -> Report {
        let mut r = Report::new("t");
        for (&key, &n) in counts {
            r.push_count(key, n);
        }
        r
    }

    /// The mutation check that the table is read: for every scenario, a
    /// report meeting all rows passes, and moving any one row's first key
    /// past its bound — or dropping it — fails naming that key.
    #[test]
    fn every_check_row_is_read() {
        for sc in &SCENARIOS {
            // Each row's first key at its bound, every other key at 0.
            let mut counts = BTreeMap::new();
            for Check(keys, bound) in sc.checks {
                let (at, other) = match *bound {
                    AtLeast(b) | AtMost(b) | Exactly(b) => (b, None),
                    AtMostKey(key) => (0, Some(key)),
                };
                counts.entry(keys[0]).or_insert(at);
                for key in keys[1..].iter().chain(&other) {
                    counts.entry(*key).or_insert(0);
                }
            }
            assert_eq!(sc.check(&report(&counts)), Ok(()), "{}", sc.name);
            for Check(keys, bound) in sc.checks {
                let mut moved = counts.clone();
                let broken = match *bound {
                    AtLeast(b) => b - 1,
                    AtMost(b) | Exactly(b) => b + 1,
                    AtMostKey(key) => counts[key] + 1,
                };
                moved.insert(keys[0], broken);
                let mut dropped = counts.clone();
                dropped.remove(keys[0]);
                for broken in [moved, dropped] {
                    let err = sc.check(&report(&broken)).expect_err(keys[0]);
                    assert!(err.contains(keys[0]), "{}: `{err}`", sc.name);
                }
            }
        }
    }

    #[test]
    fn temp_path_is_deleted_on_an_early_return() {
        fn write_then_fail(seen: &mut PathBuf) -> Result<(), String> {
            let tmp = TempPath::new("guard-test", "json");
            std::fs::write(&tmp.0, b"{}").map_err(|e| e.to_string())?;
            seen.clone_from(&tmp.0);
            assert!(seen.exists());
            let _: u32 = parse_num("not a number", "--n")?;
            Ok(())
        }
        let mut seen = PathBuf::new();
        assert!(write_then_fail(&mut seen).is_err());
        assert!(!seen.as_os_str().is_empty());
        assert!(!seen.exists(), "{} outlived its guard", seen.display());
    }
}
