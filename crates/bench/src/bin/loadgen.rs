//! `loadgen` — closed-loop load generator for the `phast-serve` batching
//! query service.
//!
//! ```text
//! loadgen [--vertices 2000] [--seed 7] [--clients 16] [--k 16]
//!         [--window-ms 2] [--workers 2] [--queue 1024] [--requests 200]
//!         [--max-conns 256] [--io-timeout-ms 10000] [--max-line-bytes 262144]
//!         [--shed-queue-depth 768] [--shed-wait-ms N]
//!         [--duration-ms 0] [--mode mixed|tree|many|p2p] [--addr HOST:PORT]
//!         [--chaos] [--chaos-modes slowloris,disconnect,garbage,oversize,burst,swap]
//!         [--chaos-modes kill-backend] [--chaos-modes poison-metric]
//!         [--compare] [--smoke] [--inject-panic] [--json]
//! ```
//!
//! By default it self-hosts: it generates a synthetic road network, starts
//! a loopback server with the given scheduler configuration, drives it
//! with `--clients` closed-loop connections (each connection keeps exactly
//! one request in flight), and reports throughput, latency percentiles and
//! the server's batching counters for that `(clients, k, window)` cell.
//! With `--addr` it drives an external server instead and reports the
//! client-side numbers only.
//!
//! `--compare` runs the configured cell and a `k = 1` cell (both with one
//! worker, so the difference is batching, not thread parallelism) on the
//! same graph and emits one obs-schema JSON object with the time-per-tree
//! of each cell and the speedup ratio — the acceptance check that batching
//! actually pays.
//!
//! `--smoke` is the CI entry point: a short self-hosted run (2 s unless
//! `--duration-ms` says otherwise) that exits non-zero unless at least one
//! batch served two or more requests.
//!
//! `--inject-panic` is the supervision soak: mid-run, a dedicated
//! connection sends a request for a poisoned source the scheduler is
//! configured to panic on (via `ServeConfig::panic_on_source`), while the
//! regular clients steer clear of it. The run exits non-zero unless the
//! poisoned request came back as a typed `internal` error, the service
//! kept answering afterwards, and the server counted `worker_restarts >=
//! 1` — the end-to-end proof that a worker panic costs one batch, not the
//! service.
//!
//! `--chaos` is the fault-injection harness: alongside a handful of
//! well-behaved clients it runs hostile actors against the self-hosted
//! server — slowloris writers that dribble bytes slower than the I/O
//! timeout, mid-request disconnectors, garbage-byte flooders, oversized
//! request lines, burst storms that saturate the admission queue — and a
//! `swap` actor that hot-swaps the serving metric mid-storm (precomputed
//! perturbed customizations published through `Service::swap_epoch` every
//! ~300 ms). The run exits non-zero unless every well-behaved request
//! inside its deadline succeeded with distances matching the scalar
//! Dijkstra reference *for the metric epoch the reply was answered
//! under* (the reply's `epoch` stamp picks the reference table), the
//! hostile traffic registered in the hardening counters
//! (`timed_out_connections`, `rejected_invalid`, `shed_overload`,
//! `metric_swaps`), and live connections stayed bounded by `--max-conns`
//! throughout. All modes run by default; `--chaos-modes slowloris,burst`
//! picks a subset. `--chaos --smoke` is the short CI variant.
//!
//! `--chaos-modes kill-backend` is the replicated-tier chaos gate and
//! replaces the in-process server with real processes: the graph is
//! preprocessed once into a temp `.phast` artifact, two `phast_cli serve`
//! replicas are spawned as child processes, and an in-process
//! `phast-router` failover front spreads the well-behaved clients across
//! them. Mid-burst, one replica is SIGKILLed and later restarted on the
//! same port. The run exits non-zero unless every well-behaved reply
//! stayed exact against the Dijkstra reference, `router_failovers >= 1`
//! (a request in flight on the dying replica was re-answered elsewhere),
//! the kill registered as an ejection, and the restarted replica
//! rejoined rotation through the half-open door (`router_recoveries >=
//! 1`).
//!
//! `--chaos-modes poison-metric` is the guarded-rollout chaos gate: a
//! metric watcher polls a weights file behind the live server while the
//! well-behaved clients burst against it. Two honest metrics are dropped
//! mid-burst and must publish; between them a *poisoned* metric — honest
//! on disk, corrupted inside the customizer by the armed
//! `PHAST_CANARY_FAULT` seam — is dropped and must be canary-rejected
//! with the serving epoch untouched. The run exits non-zero unless 100%
//! of well-behaved replies stayed exact against their admission-epoch
//! reference, the poisoned metric never answered a single query, and
//! `canary_failures`/`quarantined_metrics` registered in the stats.

use phast_bench::cli::{parse_num, serve_config_from_flags, Flags, SERVE_FLAGS};
use phast_dijkstra::dijkstra::shortest_paths;
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_graph::Graph;
use phast_obs::Report;
use phast_serve::{
    Client, ClientConfig, ErrorKind, MetricWatcher, ServeConfig, Server, Service, WatchConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    if let Err(e) = run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        eprintln!("error: {e}");
        exit(1);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Mixed,
    Tree,
    Many,
    P2p,
}

/// What one cell run produced, client side and (self-hosted) server side.
struct CellOutcome {
    ok: u64,
    errors: u64,
    elapsed: Duration,
    /// Sorted request latencies in nanoseconds.
    latencies: Vec<u64>,
    served: u64,
    batches: u64,
    multi_batches: u64,
    occupancy: f64,
    worker_restarts: u64,
    quarantined: u64,
}

impl CellOutcome {
    fn percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((p / 100.0) * (self.latencies.len() - 1) as f64).round() as usize;
        Duration::from_nanos(self.latencies[idx])
    }

    /// Mean wall time per answered request — with closed-loop clients this
    /// is the service's inverse throughput, the paper's trees-per-second
    /// lever seen from outside.
    fn time_per_tree(&self) -> Duration {
        if self.ok == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.elapsed.as_nanos() / self.ok as u128) as u64)
        }
    }

    fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ok as f64 / self.elapsed.as_secs_f64()
        }
    }

    fn fill_report(&self, r: &mut Report, suffix: &str) {
        r.push_count(format!("requests_ok{suffix}"), self.ok)
            .push_count(format!("requests_err{suffix}"), self.errors)
            .push_time(format!("elapsed{suffix}"), self.elapsed)
            .push_ratio(format!("throughput_rps{suffix}"), self.throughput())
            .push_time(format!("time_per_tree{suffix}"), self.time_per_tree())
            .push_time(format!("latency_p50{suffix}"), self.percentile(50.0))
            .push_time(format!("latency_p90{suffix}"), self.percentile(90.0))
            .push_time(format!("latency_p99{suffix}"), self.percentile(99.0))
            .push_count(format!("served{suffix}"), self.served)
            .push_count(format!("batches{suffix}"), self.batches)
            .push_count(format!("multi_batches{suffix}"), self.multi_batches)
            .push_ratio(format!("mean_batch_occupancy{suffix}"), self.occupancy)
            .push_count(format!("worker_restarts{suffix}"), self.worker_restarts)
            .push_count(format!("quarantined_requests{suffix}"), self.quarantined);
    }
}

struct LoadSpec {
    clients: usize,
    requests: u64,
    duration: Option<Duration>,
    mode: Mode,
    seed: u64,
}

fn run(args: &[String]) -> Result<(), String> {
    let mut spec_flags: Vec<(&str, bool)> = vec![
        ("--vertices", true),
        ("--seed", true),
        ("--clients", true),
        ("--requests", true),
        ("--duration-ms", true),
        ("--mode", true),
        ("--addr", true),
        ("--chaos", false),
        ("--chaos-modes", true),
        ("--compare", false),
        ("--smoke", false),
        ("--inject-panic", false),
        ("--json", false),
    ];
    spec_flags.extend_from_slice(&SERVE_FLAGS);
    let f = Flags::parse(args, &spec_flags)?;
    let vertices: usize = parse_num(f.get("--vertices").unwrap_or("2000"), "--vertices")?;
    let seed: u64 = parse_num(f.get("--seed").unwrap_or("7"), "--seed")?;
    let clients: usize = parse_num(f.get("--clients").unwrap_or("16"), "--clients")?;
    let requests: u64 = parse_num(f.get("--requests").unwrap_or("200"), "--requests")?;
    let duration_ms: u64 = parse_num(f.get("--duration-ms").unwrap_or("0"), "--duration-ms")?;
    // `--compare` defaults to one-to-many requests: they cost a full tree
    // sweep server-side but have constant-size replies, so the measured
    // difference is the engine, not JSON encoding of n distances.
    let default_mode = if f.has("--compare") { "many" } else { "mixed" };
    let mode = match f.get("--mode").unwrap_or(default_mode) {
        "mixed" => Mode::Mixed,
        "tree" => Mode::Tree,
        "many" => Mode::Many,
        "p2p" => Mode::P2p,
        other => return Err(format!("unknown --mode `{other}` (mixed|tree|many|p2p)")),
    };
    let mut cfg = serve_config_from_flags(&f)?;
    if clients == 0 {
        return Err("--clients must be positive".into());
    }
    let json = f.has("--json");
    let smoke = f.has("--smoke");
    let compare = f.has("--compare");
    let inject = f.has("--inject-panic");
    let chaos = f.has("--chaos");
    let chaos_modes = match f.get("--chaos-modes") {
        Some(list) => {
            if !chaos {
                return Err("--chaos-modes needs --chaos".into());
            }
            ChaosModes::parse(list)?
        }
        None => ChaosModes::all(),
    };

    if f.has("--addr") && (smoke || compare || inject || chaos) {
        return Err(
            "--smoke/--compare/--inject-panic/--chaos self-host a server; drop --addr".into(),
        );
    }
    if inject && compare {
        return Err("--inject-panic perturbs timings; drop --compare".into());
    }
    if chaos && (compare || inject) {
        return Err("--chaos is its own run; drop --compare/--inject-panic".into());
    }

    if chaos {
        // Chaos wants the limits within reach of a short run: a sub-second
        // I/O timeout so slowloris reaping is observable, a small line cap
        // so the oversize actor is cheap, and a shallow queue/shed depth so
        // burst storms actually shed. Explicit flags still win.
        if f.get("--io-timeout-ms").is_none() {
            cfg.io_timeout = Duration::from_millis(400);
        }
        if f.get("--max-line-bytes").is_none() {
            cfg.max_line_bytes = 4096;
        }
        if f.get("--queue").is_none() {
            cfg.queue_capacity = 64;
        }
        if f.get("--shed-queue-depth").is_none() {
            cfg.shed_queue_depth = 8.min(cfg.queue_capacity);
        }
        if f.get("--max-conns").is_none() {
            cfg.max_conns = 64;
        }
    }

    let spec = LoadSpec {
        clients,
        requests,
        duration: match (duration_ms, smoke) {
            (0, true) => Some(Duration::from_millis(2000)),
            (0, false) => None,
            (ms, _) => Some(Duration::from_millis(ms)),
        },
        mode,
        seed,
    };

    if let Some(addr) = f.get("--addr") {
        // External server: client-side numbers only.
        let probe = Client::connect(addr).map_err(|e| format!("cannot connect `{addr}`: {e}"))?;
        drop(probe);
        let outcome = drive(addr, vertices, &spec, "external")?;
        return emit_single(&outcome, &cfg, &spec, json);
    }

    eprintln!("generating {vertices}-vertex synthetic road network (seed {seed})...");
    let net = RoadNetworkConfig::europe_like(vertices, seed, Metric::TravelTime).build();

    if chaos {
        let duration = Duration::from_millis(match (duration_ms, smoke) {
            (0, true) => 1500,
            (0, false) => 4000,
            (ms, _) => ms,
        });
        let wb_clients = spec.clients.min(4);
        if chaos_modes.poison_metric {
            if chaos_modes.any_in_process() || chaos_modes.kill_backend {
                return Err(
                    "poison-metric owns the watcher choreography; \
                     use --chaos-modes poison-metric alone"
                        .into(),
                );
            }
            return run_chaos_poison_metric(&net.graph, cfg, seed, duration, wb_clients, json);
        }
        if chaos_modes.kill_backend {
            if chaos_modes.any_in_process() {
                return Err(
                    "kill-backend replaces the in-process server with child replicas; \
                     use --chaos-modes kill-backend alone"
                        .into(),
                );
            }
            return run_chaos_killbackend(&net.graph, seed, duration, wb_clients, json);
        }
        return run_chaos(&net.graph, cfg, seed, duration, wb_clients, chaos_modes, json);
    }

    if inject {
        // Poison the highest-ID vertex; regular clients draw sources and
        // targets from 0..n-1, so only the injector connection trips it.
        let n = net.num_vertices();
        if n < 2 {
            return Err("--inject-panic needs at least 2 vertices".into());
        }
        cfg.panic_on_source = Some((n - 1) as u32);
    }

    if compare {
        let mut cfg_batched = cfg.clone();
        cfg_batched.workers = 1;
        let cfg_scalar = ServeConfig {
            max_k: 1,
            workers: 1,
            ..cfg.clone()
        };
        let batched = run_cell(&net.graph, cfg_batched.clone(), &spec, "batched")?;
        let scalar = run_cell(&net.graph, cfg_scalar, &spec, "scalar")?;
        let speedup = if batched.time_per_tree().is_zero() {
            0.0
        } else {
            scalar.time_per_tree().as_secs_f64() / batched.time_per_tree().as_secs_f64()
        };
        let mut r = Report::new("loadgen compare");
        r.push_count("vertices", net.num_vertices() as u64)
            .push_count("clients", spec.clients as u64)
            .push_count("k_batched", cfg_batched.max_k as u64)
            .push_time("batch_window", cfg_batched.window)
            .push_ratio("speedup_time_per_tree", speedup);
        batched.fill_report(&mut r, "_batched");
        scalar.fill_report(&mut r, "_scalar");
        // The acceptance comparison is always machine-readable.
        println!("{}", serde_json::to_string(&r).map_err(|e| e.to_string())?);
        eprintln!(
            "time/tree: batched(k={}) {:.2?} vs scalar(k=1) {:.2?} -> speedup {speedup:.2}x \
             (occupancy {:.2})",
            cfg_batched.max_k,
            batched.time_per_tree(),
            scalar.time_per_tree(),
            batched.occupancy,
        );
        if batched.occupancy <= 1.0 {
            return Err(format!(
                "mean batch occupancy {:.2} did not exceed 1 — batching never engaged",
                batched.occupancy
            ));
        }
        return Ok(());
    }

    let outcome = run_cell(&net.graph, cfg.clone(), &spec, "cell")?;
    if smoke && outcome.multi_batches == 0 {
        emit_single(&outcome, &cfg, &spec, json)?;
        return Err(format!(
            "smoke check failed: no batch served >= 2 requests ({} batches, occupancy {:.2})",
            outcome.batches, outcome.occupancy
        ));
    }
    emit_single(&outcome, &cfg, &spec, json)?;
    if smoke {
        eprintln!(
            "smoke ok: {} multi-request batches, occupancy {:.2}",
            outcome.multi_batches, outcome.occupancy
        );
    }
    Ok(())
}

fn emit_single(
    outcome: &CellOutcome,
    cfg: &ServeConfig,
    spec: &LoadSpec,
    json: bool,
) -> Result<(), String> {
    let mut r = Report::new("loadgen");
    r.push_count("clients", spec.clients as u64)
        .push_count("k", cfg.max_k as u64)
        .push_time("batch_window", cfg.window)
        .push_count("workers", cfg.workers as u64);
    outcome.fill_report(&mut r, "");
    if json {
        println!("{}", serde_json::to_string(&r).map_err(|e| e.to_string())?);
    } else {
        phast_bench::report::report_to_table(&r).print();
    }
    Ok(())
}

/// Starts a loopback server with `cfg`, drives it with `spec`, gracefully
/// shuts it down, and returns client- plus server-side numbers.
fn run_cell(
    graph: &Graph,
    cfg: ServeConfig,
    spec: &LoadSpec,
    label: &str,
) -> Result<CellOutcome, String> {
    let poison = cfg.panic_on_source;
    let service = Service::for_graph(graph, cfg);
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = server.local_addr().to_string();
    // Regular traffic stays below the poisoned vertex (if any), so only
    // the dedicated injector connection can trip the fault.
    let drive_n = graph.num_vertices() - usize::from(poison.is_some());
    let injector = poison.map(|bad| {
        let addr = addr.clone();
        std::thread::Builder::new()
            .name("loadgen-injector".into())
            .spawn(move || inject_poison(&addr, bad))
            .expect("cannot spawn injector thread")
    });
    let mut outcome = drive(&addr, drive_n, spec, label)?;
    if let Some(h) = injector {
        h.join().map_err(|_| "injector thread panicked".to_string())??;
        // The panic must have cost one batch, not the service: a fresh
        // connection after the fault still gets exact answers.
        let mut probe = Client::connect(&addr)
            .map_err(|e| format!("post-panic connect failed: {e}"))?;
        probe
            .tree(0, None)
            .map_err(|e| format!("service stopped answering after the panic: {e}"))?;
    }
    server.shutdown();
    let stats = service.stats();
    outcome.served = stats.served();
    outcome.batches = stats.batches();
    outcome.multi_batches = stats.multi_batches();
    outcome.occupancy = stats.mean_batch_occupancy();
    outcome.worker_restarts = stats.worker_restarts();
    outcome.quarantined = stats.quarantined_requests();
    if poison.is_some() {
        if outcome.worker_restarts == 0 {
            return Err("injected panic did not register: worker_restarts == 0".into());
        }
        eprintln!(
            "[{label}] soak ok: {} worker restart(s), {} quarantined request(s), \
             service answered afterwards",
            outcome.worker_restarts, outcome.quarantined
        );
    }
    Ok(outcome)
}

/// Sends the poisoned request and insists on the typed quarantine reply.
fn inject_poison(addr: &str, bad: u32) -> Result<(), String> {
    // Let the regular clients get going first so the panic lands mid-run.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = Client::connect(addr).map_err(|e| format!("injector connect: {e}"))?;
    match client.tree(bad, None) {
        Ok(_) => Err("poisoned request returned an answer instead of a typed error".into()),
        Err(e) if e.kind == ErrorKind::Internal => Ok(()),
        Err(e) => Err(format!(
            "poisoned request got error kind {:?} instead of internal: {}",
            e.kind, e.message
        )),
    }
}

/// Runs the closed-loop clients against `addr` and merges their latencies.
fn drive(
    addr: &str,
    num_vertices: usize,
    spec: &LoadSpec,
    label: &str,
) -> Result<CellOutcome, String> {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..spec.clients {
        let addr = addr.to_string();
        let stop = Arc::clone(&stop);
        let mode = spec.mode;
        let requests = if spec.duration.is_some() {
            u64::MAX
        } else {
            spec.requests
        };
        let seed = spec.seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9);
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-client-{c}"))
                .spawn(move || client_loop(&addr, num_vertices, mode, seed, requests, &stop))
                .map_err(|e| format!("cannot spawn client thread: {e}"))?,
        );
    }
    if let Some(d) = spec.duration {
        std::thread::sleep(d);
        stop.store(true, Ordering::SeqCst);
    }
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        let (lat, errs) = h.join().map_err(|_| "client thread panicked".to_string())?;
        latencies.extend(lat);
        errors += errs;
    }
    let elapsed = start.elapsed();
    eprintln!(
        "[{label}] {} ok / {errors} errors in {elapsed:.2?}",
        latencies.len()
    );
    latencies.sort_unstable();
    Ok(CellOutcome {
        ok: latencies.len() as u64,
        errors,
        elapsed,
        latencies,
        served: 0,
        batches: 0,
        multi_batches: 0,
        occupancy: 0.0,
        worker_restarts: 0,
        quarantined: 0,
    })
}

/// One closed-loop client: exactly one request in flight at a time.
fn client_loop(
    addr: &str,
    num_vertices: usize,
    mode: Mode,
    seed: u64,
    requests: u64,
    stop: &AtomicBool,
) -> (Vec<u64>, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let Ok(mut client) = Client::connect(addr) else {
        return (Vec::new(), 1);
    };
    let n = num_vertices as u32;
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    for _ in 0..requests {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let source = rng.random_range(0..n);
        let op = match mode {
            Mode::Tree => 0,
            Mode::Many => 1,
            Mode::P2p => 2,
            Mode::Mixed => {
                if rng.random_bool(0.4) {
                    0
                } else if rng.random_bool(0.66) {
                    1
                } else {
                    2
                }
            }
        };
        let t = Instant::now();
        let result = match op {
            0 => client.tree(source, None).map(|_| ()),
            1 => {
                let targets: Vec<u32> =
                    (0..1 + rng.random_range(0..8)).map(|_| rng.random_range(0..n)).collect();
                client.many(source, &targets, None).map(|_| ())
            }
            _ => client.p2p(source, rng.random_range(0..n), None).map(|_| ()),
        };
        match result {
            Ok(()) => latencies.push(t.elapsed().as_nanos() as u64),
            Err(e) => {
                errors += 1;
                // A transport failure (server gone) ends this client.
                if e.kind == ErrorKind::Transport {
                    break;
                }
            }
        }
    }
    (latencies, errors)
}

// ---------------------------------------------------------------------------
// Chaos harness
// ---------------------------------------------------------------------------

/// Which hostile actors `--chaos` runs.
#[derive(Clone, Copy, Default)]
struct ChaosModes {
    slowloris: bool,
    disconnect: bool,
    garbage: bool,
    oversize: bool,
    burst: bool,
    swap: bool,
    /// The replicated-tier harness (child `phast_cli serve` processes +
    /// an in-process router). Its own run, never part of `all`.
    kill_backend: bool,
    /// The guarded-rollout harness: arms the `phast-metrics` fault seam
    /// and pushes a poisoned metric through a live watcher mid-burst.
    /// Its own run (it owns the watcher choreography), never part of
    /// `all`.
    poison_metric: bool,
}

impl ChaosModes {
    fn all() -> ChaosModes {
        ChaosModes {
            slowloris: true,
            disconnect: true,
            garbage: true,
            oversize: true,
            burst: true,
            swap: true,
            kill_backend: false,
            poison_metric: false,
        }
    }

    fn any_in_process(&self) -> bool {
        self.slowloris || self.disconnect || self.garbage || self.oversize || self.burst || self.swap
    }

    fn parse(list: &str) -> Result<ChaosModes, String> {
        let mut m = ChaosModes::default();
        for word in list.split(',').map(str::trim).filter(|w| !w.is_empty()) {
            match word {
                "all" => m = ChaosModes::all(),
                "slowloris" => m.slowloris = true,
                "disconnect" => m.disconnect = true,
                "garbage" => m.garbage = true,
                "oversize" => m.oversize = true,
                "burst" => m.burst = true,
                "swap" => m.swap = true,
                "kill-backend" => m.kill_backend = true,
                "poison-metric" => m.poison_metric = true,
                other => {
                    return Err(format!(
                        "unknown chaos mode `{other}` \
                         (slowloris|disconnect|garbage|oversize|burst|swap|kill-backend|\
                         poison-metric|all)"
                    ))
                }
            }
        }
        if !(m.any_in_process() || m.kill_backend || m.poison_metric) {
            return Err("--chaos-modes named no modes".into());
        }
        Ok(m)
    }

    fn names(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.slowloris {
            v.push("slowloris");
        }
        if self.disconnect {
            v.push("disconnect");
        }
        if self.garbage {
            v.push("garbage");
        }
        if self.oversize {
            v.push("oversize");
        }
        if self.burst {
            v.push("burst");
        }
        if self.swap {
            v.push("swap");
        }
        if self.kill_backend {
            v.push("kill-backend");
        }
        if self.poison_metric {
            v.push("poison-metric");
        }
        v
    }
}

/// A scalar-Dijkstra tree the well-behaved clients check answers against.
struct RefTree {
    source: u32,
    dist: Vec<u32>,
}

/// Reference tables per metric epoch. `sets[0]` is the base metric
/// (epoch 1); `sets[1..]` are the perturbed variants the swap actor
/// cycles through, so epoch `e >= 2` was customized from variant
/// `(e - 2) % (sets.len() - 1)`. Every set covers the same sources in
/// the same order, so a client can pick the source first and resolve the
/// expected distances from the reply's epoch stamp afterwards.
struct RefSets {
    sets: Vec<Vec<RefTree>>,
}

impl RefSets {
    fn for_epoch(&self, epoch: u64) -> &[RefTree] {
        if epoch <= 1 || self.sets.len() == 1 {
            &self.sets[0]
        } else {
            &self.sets[1 + (epoch as usize - 2) % (self.sets.len() - 1)]
        }
    }
}

/// What one well-behaved client saw during the storm.
struct WbOutcome {
    ok: u64,
    failed: u64,
    samples: Vec<String>,
}

/// Sleeps in short slices so actors notice `stop` promptly; returns false
/// once `stop` is set.
fn nap(stop: &AtomicBool, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}

fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>, String> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .map_err(|e| format!("cannot spawn chaos thread: {e}"))
}

/// Runs the fault-injection harness: hostile actors and well-behaved
/// clients share one self-hosted server; the run fails unless the
/// well-behaved traffic stayed exact and the hardening counters prove the
/// hostile traffic was absorbed.
fn run_chaos(
    graph: &Graph,
    cfg: ServeConfig,
    seed: u64,
    duration: Duration,
    wb_clients: usize,
    modes: ChaosModes,
    json: bool,
) -> Result<(), String> {
    let n = graph.num_vertices() as u32;
    if n < 2 {
        return Err("--chaos needs at least 2 vertices".into());
    }
    let max_conns = cfg.max_conns;
    let io_timeout = cfg.io_timeout;
    let max_line_bytes = cfg.max_line_bytes;
    eprintln!(
        "chaos: {duration:?} run, modes [{}], max-conns {max_conns}, io-timeout {io_timeout:?}, \
         max-line-bytes {max_line_bytes}, shed-depth {}",
        modes.names().join(","),
        cfg.shed_queue_depth
    );

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let sources: Vec<u32> = (0..8).map(|_| rng.random_range(0..n)).collect();
    let ref_set = |g: &Graph| -> Vec<RefTree> {
        sources
            .iter()
            .map(|&source| RefTree {
                source,
                dist: shortest_paths(g.forward(), source).dist,
            })
            .collect()
    };
    let mut refs = RefSets {
        sets: vec![ref_set(graph)],
    };

    // The swap actor's ammunition: K perturbed metrics, customized up
    // front (the storm should measure swap latency, not customization),
    // each with its own independent Dijkstra reference table.
    let mut variants: Vec<(Arc<phast_core::Phast>, Arc<phast_ch::Hierarchy>)> = Vec::new();
    if modes.swap {
        let h = phast_ch::contract_graph(graph, &phast_ch::ContractionConfig::default());
        let customizer = phast_metrics::MetricCustomizer::new(graph.clone(), &h)
            .map_err(|e| format!("freezing the topology for the swap actor: {e}"))?;
        for k in 0..3u64 {
            let m = phast_metrics::MetricWeights::perturbed(
                graph,
                "chaos",
                k + 1,
                seed ^ (0x51AB << 8) ^ k,
            );
            let (p, ch) = customizer
                .build(&m)
                .map_err(|e| format!("customizing swap variant {k}: {e}"))?;
            refs.sets.push(ref_set(&m.reweighted(graph)));
            variants.push((Arc::new(p), Arc::new(ch)));
        }
    }
    let refs = Arc::new(refs);

    let service = Service::for_graph(graph, cfg);
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let mut hostile = Vec::new();
    if modes.slowloris {
        // Dribble slower than the server's I/O timeout so every
        // connection gets reaped.
        let gap = io_timeout + Duration::from_millis(300);
        for i in 0..2 {
            let (addr, stop) = (addr.clone(), Arc::clone(&stop));
            hostile.push(spawn_named(format!("chaos-slowloris-{i}"), move || {
                chaos_slowloris(&addr, gap, &stop)
            })?);
        }
    }
    if modes.disconnect {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        hostile.push(spawn_named("chaos-disconnect".into(), move || {
            chaos_disconnect(&addr, &stop)
        })?);
    }
    if modes.garbage {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        let s = seed.wrapping_add(0xBAD);
        hostile.push(spawn_named("chaos-garbage".into(), move || {
            chaos_garbage(&addr, s, &stop)
        })?);
    }
    if modes.oversize {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        hostile.push(spawn_named("chaos-oversize".into(), move || {
            chaos_oversize(&addr, max_line_bytes, &stop)
        })?);
    }
    if modes.burst {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        let s = seed.wrapping_add(0xB00);
        hostile.push(spawn_named("chaos-burst".into(), move || {
            chaos_burst(&addr, n, s, &stop)
        })?);
    }
    if modes.swap {
        // Not hostile traffic, but the same lifecycle: cycle the
        // precomputed customizations through `swap_epoch` mid-storm, so
        // in-flight well-behaved requests straddle metric boundaries.
        let (service, stop) = (Arc::clone(&service), Arc::clone(&stop));
        let variants = std::mem::take(&mut variants);
        hostile.push(spawn_named("chaos-swap".into(), move || {
            let mut k = 0usize;
            while nap(&stop, Duration::from_millis(300)) {
                let (p, h) = &variants[k % variants.len()];
                if let Err(e) = service.swap_epoch(Arc::clone(p), Some(Arc::clone(h))) {
                    // Shutdown raced the last swap; anything else is a bug
                    // the exactness check below would mask.
                    eprintln!("chaos-swap: swap rejected: {e:?}");
                    return;
                }
                k += 1;
            }
        })?);
    }

    let mut wb = Vec::new();
    for c in 0..wb_clients.max(1) {
        let addr = addr.clone();
        let refs = Arc::clone(&refs);
        let stop = Arc::clone(&stop);
        let s = seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9);
        wb.push(spawn_named(format!("chaos-wb-{c}"), move || {
            chaos_wb_client(&addr, &refs, s, &stop)
        })?);
    }

    // The main thread doubles as the bounded-resources monitor: live
    // connections must never exceed the configured cap.
    let start = Instant::now();
    let mut peak_live = 0usize;
    while start.elapsed() < duration {
        peak_live = peak_live.max(server.live_connections());
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);

    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut samples = Vec::new();
    for h in wb {
        let o = h
            .join()
            .map_err(|_| "well-behaved client panicked".to_string())?;
        ok += o.ok;
        failed += o.failed;
        samples.extend(o.samples);
    }
    for h in hostile {
        let _ = h.join();
    }

    // The service must still be healthy after the storm: a fresh client
    // gets exact answers (for whatever metric epoch is serving by now).
    let mut probe =
        Client::connect(&addr).map_err(|e| format!("post-chaos connect failed: {e}"))?;
    let got = probe
        .tree(refs.sets[0][0].source, None)
        .map_err(|e| format!("post-chaos tree failed: {:?}: {}", e.kind, e.message))?;
    if got != refs.for_epoch(probe.last_epoch().unwrap_or(1))[0].dist {
        return Err("post-chaos answers diverged from the reference".into());
    }
    drop(probe);

    server.shutdown();
    let stats = service.stats();

    let mut r = Report::new("loadgen chaos");
    r.push_count("wb_ok", ok)
        .push_count("wb_failed", failed)
        .push_count("peak_live_connections", peak_live as u64)
        .push_count("max_conns", max_conns as u64)
        .push_count("served", stats.served())
        .push_count("batches", stats.batches())
        .push_count("timed_out_connections", stats.timed_out_connections())
        .push_count("rejected_invalid", stats.rejected_invalid())
        .push_count("shed_overload", stats.shed_overload())
        .push_count("rejected_queue_full", stats.rejected_queue_full())
        .push_count("refused_busy", stats.refused_busy())
        .push_count("accept_errors", stats.accept_errors())
        .push_count("deadline_misses", stats.deadline_misses())
        .push_count("metric_swaps", stats.metric_swaps())
        .push_count("queries_on_stale_metric", stats.queries_on_stale_metric());
    if json {
        println!("{}", serde_json::to_string(&r).map_err(|e| e.to_string())?);
    } else {
        phast_bench::report::report_to_table(&r).print();
    }

    let mut problems = Vec::new();
    if ok == 0 {
        problems.push("no well-behaved request completed".to_string());
    }
    if failed > 0 {
        problems.push(format!(
            "{failed} well-behaved request(s) failed or diverged, e.g. {}",
            samples.first().map(String::as_str).unwrap_or("<no sample>")
        ));
    }
    if peak_live > max_conns {
        problems.push(format!(
            "live connections peaked at {peak_live} > --max-conns {max_conns}"
        ));
    }
    if modes.slowloris && stats.timed_out_connections() == 0 {
        problems.push("slowloris ran but timed_out_connections == 0".to_string());
    }
    if (modes.garbage || modes.oversize) && stats.rejected_invalid() == 0 {
        problems.push("garbage/oversize ran but rejected_invalid == 0".to_string());
    }
    if modes.burst && stats.shed_overload() + stats.rejected_queue_full() == 0 {
        problems
            .push("burst ran but nothing was shed (shed_overload + queue_full == 0)".to_string());
    }
    if modes.swap && stats.metric_swaps() == 0 {
        problems.push("swap actor ran but metric_swaps == 0".to_string());
    }
    if !problems.is_empty() {
        return Err(format!("chaos check failed: {}", problems.join("; ")));
    }
    eprintln!(
        "chaos ok: {ok} well-behaved requests all exact; {} connection(s) reaped, \
         {} invalid line(s) rejected, {} request(s) shed, {} metric swap(s), \
         peak {peak_live}/{max_conns} conns",
        stats.timed_out_connections(),
        stats.rejected_invalid(),
        stats.shed_overload() + stats.rejected_queue_full(),
        stats.metric_swaps(),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Poison-metric chaos: the guarded rollout behind a live server
// ---------------------------------------------------------------------------

/// Atomically replaces `path` with `m` serialized as JSON (sibling temp
/// file + rename), so the watcher never observes a torn write.
fn write_metric_file(
    path: &std::path::Path,
    m: &phast_metrics::MetricWeights,
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let body = serde_json::to_string(m).map_err(|e| format!("serializing metric: {e}"))?;
    std::fs::write(&tmp, body).map_err(|e| format!("writing `{}`: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("publishing `{}`: {e}", path.display()))
}

/// The guarded-rollout chaos gate (`--chaos-modes poison-metric`): a
/// metric watcher runs behind the live self-hosted server while
/// well-behaved clients burst against it. Two honest metrics are dropped
/// mid-burst and must publish (epochs 2 and 3); between them a *poisoned*
/// metric — honest on disk, corrupted inside the customizer by the armed
/// [`phast_metrics::CANARY_FAULT_ENV`] seam — is dropped and must be
/// canary-rejected without the epoch moving. The run fails unless every
/// well-behaved reply stayed exact against its admission-epoch reference,
/// the poisoned metric never answered a single query, and the
/// canary/quarantine counters registered.
fn run_chaos_poison_metric(
    graph: &Graph,
    cfg: ServeConfig,
    seed: u64,
    duration: Duration,
    wb_clients: usize,
    json: bool,
) -> Result<(), String> {
    let n = graph.num_vertices() as u32;
    if n < 2 {
        return Err("poison-metric chaos needs at least 2 vertices".into());
    }
    // Arm the fault seam before the customizer (and its rayon pool)
    // exists: from here on, any metric named `poison` is silently
    // corrupted inside `MetricCustomizer::build`.
    std::env::set_var(phast_metrics::CANARY_FAULT_ENV, "poison");

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let sources: Vec<u32> = (0..8).map(|_| rng.random_range(0..n)).collect();
    let ref_set = |g: &Graph| -> Vec<RefTree> {
        sources
            .iter()
            .map(|&source| RefTree {
                source,
                dist: shortest_paths(g.forward(), source).dist,
            })
            .collect()
    };

    eprintln!("poison-metric: freezing the customization topology...");
    let h = phast_ch::contract_graph(graph, &phast_ch::ContractionConfig::default());
    let customizer = Arc::new(
        phast_metrics::MetricCustomizer::new(graph.clone(), &h)
            .map_err(|e| format!("freezing the topology: {e}"))?,
    );

    // The poisoned file is indistinguishable from an honest one on disk —
    // same schema, valid weights; only the armed seam (keyed on the
    // metric *name*) corrupts it, and only the canary can notice.
    let honest1 = phast_metrics::MetricWeights::perturbed(graph, "honest", 1, seed ^ 0xA1);
    let honest2 = phast_metrics::MetricWeights::perturbed(graph, "honest", 2, seed ^ 0xA2);
    let poison = phast_metrics::MetricWeights::perturbed(graph, "poison", 1, seed ^ 0xBAD);

    // Epoch → reference mapping: epoch 1 = base, 2 = honest v1,
    // 3 = honest v2. Valid precisely because the poisoned metric must
    // never publish — if it ever does, its replies get checked against
    // the honest table for that epoch and fail loudly.
    let refs = Arc::new(RefSets {
        sets: vec![
            ref_set(graph),
            ref_set(&honest1.reweighted(graph)),
            ref_set(&honest2.reweighted(graph)),
        ],
    });

    let service = Service::for_graph(graph, cfg);
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = server.local_addr().to_string();

    let metric_path =
        std::env::temp_dir().join(format!("phast-poison-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&metric_path);
    let mut watcher = MetricWatcher::spawn_with(
        Arc::clone(&service),
        Arc::clone(&customizer),
        metric_path.clone(),
        Duration::from_millis(25),
        WatchConfig::default(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut wb = Vec::new();
    for c in 0..wb_clients.max(1) {
        let addr = addr.clone();
        let refs = Arc::clone(&refs);
        let stop = Arc::clone(&stop);
        let s = seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9);
        wb.push(spawn_named(format!("chaos-wb-{c}"), move || {
            chaos_wb_client(&addr, &refs, s, &stop)
        })?);
    }

    // Choreography: a slice of burst on each epoch, with the poisoned
    // drop sandwiched between the two honest ones.
    let slice = duration / 5;
    let grace = Duration::from_secs(10);
    std::thread::sleep(slice);
    write_metric_file(&metric_path, &honest1)?;
    wait_for("honest v1 to publish (epoch 2)", grace, || {
        service.epoch_id() >= 2
    })?;

    std::thread::sleep(slice);
    write_metric_file(&metric_path, &poison)?;
    wait_for("the canary to reject the poisoned metric", grace, || {
        service.stats().canary_failures() >= 1
    })?;
    if service.epoch_id() != 2 {
        return Err(format!(
            "the poisoned metric moved the epoch to {} — it was served live",
            service.epoch_id()
        ));
    }

    std::thread::sleep(slice);
    write_metric_file(&metric_path, &honest2)?;
    wait_for("honest v2 to publish (epoch 3)", grace, || {
        service.epoch_id() >= 3
    })?;

    std::thread::sleep(slice);
    stop.store(true, Ordering::SeqCst);
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut samples = Vec::new();
    for h in wb {
        let o = h
            .join()
            .map_err(|_| "well-behaved client panicked".to_string())?;
        ok += o.ok;
        failed += o.failed;
        samples.extend(o.samples);
    }
    watcher.shutdown();

    // Post-storm health probe, exact for whatever epoch is serving.
    let mut probe =
        Client::connect(&addr).map_err(|e| format!("post-chaos connect failed: {e}"))?;
    let got = probe
        .tree(refs.sets[0][0].source, None)
        .map_err(|e| format!("post-chaos tree failed: {:?}: {}", e.kind, e.message))?;
    if got != refs.for_epoch(probe.last_epoch().unwrap_or(1))[0].dist {
        return Err("post-chaos answers diverged from the reference".into());
    }
    drop(probe);

    server.shutdown();
    let stats = service.stats();
    let final_epoch = service.epoch_id();
    std::env::remove_var(phast_metrics::CANARY_FAULT_ENV);
    let _ = std::fs::remove_file(&metric_path);

    let mut r = Report::new("loadgen chaos poison-metric");
    r.push_count("wb_ok", ok)
        .push_count("wb_failed", failed)
        .push_count("served", stats.served())
        .push_count("metric_swaps", stats.metric_swaps())
        .push_count("canary_failures", stats.canary_failures())
        .push_count("quarantined_metrics", stats.quarantined_metrics())
        .push_count("epoch_rollbacks", stats.epoch_rollbacks())
        .push_count("guard_trips", stats.guard_trips())
        .push_count("watch_errors", stats.watch_errors())
        .push_count("queries_on_stale_metric", stats.queries_on_stale_metric())
        .push_count("final_epoch", final_epoch);
    if json {
        println!("{}", serde_json::to_string(&r).map_err(|e| e.to_string())?);
    } else {
        phast_bench::report::report_to_table(&r).print();
    }

    let mut problems = Vec::new();
    if ok == 0 {
        problems.push("no well-behaved request completed".to_string());
    }
    if failed > 0 {
        problems.push(format!(
            "{failed} well-behaved request(s) failed or diverged, e.g. {}",
            samples.first().map(String::as_str).unwrap_or("<no sample>")
        ));
    }
    if stats.canary_failures() == 0 {
        problems.push("the poisoned metric was never canary-rejected".to_string());
    }
    if stats.quarantined_metrics() == 0 {
        problems.push("nothing was quarantined (quarantined_metrics == 0)".to_string());
    }
    if stats.canary_failures() + stats.epoch_rollbacks() == 0 {
        problems.push("canary_failures + epoch_rollbacks == 0".to_string());
    }
    if stats.metric_swaps() != 2 {
        problems.push(format!(
            "expected exactly the 2 honest publishes, saw metric_swaps == {}",
            stats.metric_swaps()
        ));
    }
    if final_epoch != 3 {
        problems.push(format!(
            "final epoch is {final_epoch}, expected 3 — a poisoned or duplicate publish \
             slipped through"
        ));
    }
    if !problems.is_empty() {
        return Err(format!("poison-metric check failed: {}", problems.join("; ")));
    }
    eprintln!(
        "poison-metric ok: {ok} well-behaved requests all exact across epochs 1→3; \
         poisoned metric canary-rejected ({} canary failure(s), {} quarantined), \
         epoch never touched it",
        stats.canary_failures(),
        stats.quarantined_metrics(),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Kill-backend chaos: replicated serve tier behind the failover router
// ---------------------------------------------------------------------------

/// One `phast_cli serve` replica child process and the address it bound.
/// Dropping it SIGKILLs and reaps the child, so no replica outlives the
/// harness on any exit path.
struct ServeChild {
    child: std::process::Child,
    addr: std::net::SocketAddr,
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
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Resolves a sibling binary of the running `loadgen` executable.
fn sibling_binary(name: &str) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "loadgen binary has no parent directory".to_string())?;
    let p = dir.join(name);
    if !p.exists() {
        return Err(format!(
            "`{}` not found next to loadgen; build the workspace binaries first",
            p.display()
        ));
    }
    Ok(p)
}

/// Spawns one serve replica on `addr` (may be `127.0.0.1:0`) and waits
/// for its `listening on ...` banner to learn the bound address. A child
/// that exits first (e.g. the port is still held) is reaped and reported.
fn spawn_serve_child(
    bin: &std::path::Path,
    inst: &std::path::Path,
    addr: &str,
) -> Result<ServeChild, String> {
    use std::io::BufRead;
    let mut child = std::process::Command::new(bin)
        .arg("serve")
        .arg("--instance")
        .arg(inst)
        .arg("--addr")
        .arg(addr)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn `{}`: {e}", bin.display()))?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let mut reader = std::io::BufReader::new(stderr);
    let mut log = String::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("replica exited before listening; its output:\n{log}"));
            }
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix("listening on ") {
                    let bound = rest
                        .parse()
                        .map_err(|e| format!("unparseable listen banner `{rest}`: {e}"))?;
                    // Keep draining stderr so the child can never block
                    // on a full pipe.
                    std::thread::spawn(move || {
                        let _ = std::io::copy(&mut reader, &mut std::io::sink());
                    });
                    return Ok(ServeChild { child, addr: bound });
                }
                log.push_str(&line);
            }
        }
    }
}

/// Restarts a killed replica on its old (fixed) port. The port may linger
/// briefly (straggling sockets), so bind failures retry on a short loop.
fn respawn_serve_child(
    bin: &std::path::Path,
    inst: &std::path::Path,
    addr: std::net::SocketAddr,
) -> Result<ServeChild, String> {
    let mut last = String::new();
    for _ in 0..40 {
        match spawn_serve_child(bin, inst, &addr.to_string()) {
            Ok(c) => return Ok(c),
            Err(e) => {
                last = e;
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    }
    Err(format!("could not restart replica on {addr}: {last}"))
}

/// Polls `cond` until it holds or `timeout` elapses.
fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) -> Result<(), String> {
    let t0 = Instant::now();
    while !cond() {
        if t0.elapsed() >= timeout {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// The replicated-tier chaos gate (`--chaos-modes kill-backend`): two
/// real serve replicas behind the failover router, one SIGKILLed and
/// restarted mid-burst. Every well-behaved reply must stay exact, the
/// kill must cost the clients nothing (failover), and the restarted
/// replica must rejoin rotation.
fn run_chaos_killbackend(
    graph: &Graph,
    seed: u64,
    duration: Duration,
    wb_clients: usize,
    json: bool,
) -> Result<(), String> {
    let n = graph.num_vertices() as u32;
    if n < 2 {
        return Err("kill-backend chaos needs at least 2 vertices".into());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let sources: Vec<u32> = (0..8).map(|_| rng.random_range(0..n)).collect();
    let refs = Arc::new(RefSets {
        sets: vec![sources
            .iter()
            .map(|&source| RefTree {
                source,
                dist: shortest_paths(graph.forward(), source).dist,
            })
            .collect()],
    });

    // Preprocess once; both replicas serve the same artifact, so child
    // startup is an (mmap) load, not a recontraction.
    let bin = sibling_binary("phast_cli")?;
    let inst = std::env::temp_dir().join(format!("phast-chaos-{}.phast", std::process::id()));
    let h = phast_ch::contract_graph(graph, &phast_ch::ContractionConfig::default());
    let p = phast_core::PhastBuilder::new().build_with_hierarchy(graph, &h);
    phast_store::write_instance(&inst, &p, Some(&h))
        .map_err(|e| format!("cannot write replica artifact `{}`: {e}", inst.display()))?;
    let result = run_chaos_killbackend_inner(&bin, &inst, &refs, duration, wb_clients, json, seed);
    let _ = std::fs::remove_file(&inst);
    result
}

fn run_chaos_killbackend_inner(
    bin: &std::path::Path,
    inst: &std::path::Path,
    refs: &Arc<RefSets>,
    duration: Duration,
    wb_clients: usize,
    json: bool,
    seed: u64,
) -> Result<(), String> {
    use phast_router::HealthState;
    let mut victim = spawn_serve_child(bin, inst, "127.0.0.1:0")?;
    let survivor = spawn_serve_child(bin, inst, "127.0.0.1:0")?;
    let router = phast_router::Router::spawn(
        phast_router::RouterConfig {
            backends: vec![victim.addr, survivor.addr],
            probe_interval: Duration::from_millis(50),
            eject_after: 2,
            halfopen_after: Duration::from_millis(200),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            max_failovers: 4,
            default_budget: Duration::from_secs(4),
            ..phast_router::RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .map_err(|e| format!("cannot bind the router: {e}"))?;
    let addr = router.local_addr().to_string();
    eprintln!(
        "chaos kill-backend: replicas {} (victim) and {} behind router {addr}; {duration:?} storm",
        victim.addr, survivor.addr
    );

    let stop = Arc::new(AtomicBool::new(false));
    let mut wb = Vec::new();
    for c in 0..wb_clients.max(1) {
        let addr = addr.clone();
        let refs = Arc::clone(refs);
        let stop = Arc::clone(&stop);
        let s = seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9);
        wb.push(spawn_named(format!("chaos-wb-{c}"), move || {
            chaos_wb_client(&addr, &refs, s, &stop)
        })?);
    }

    // Let the storm ramp, then SIGKILL the victim mid-burst.
    std::thread::sleep((duration / 4).max(Duration::from_millis(300)));
    eprintln!("chaos kill-backend: SIGKILL {}", victim.addr);
    let victim_addr = victim.addr;
    victim.kill();
    wait_for("ejection of the killed replica", Duration::from_secs(10), || {
        router.pool().backends()[0].state() == HealthState::Ejected
    })?;
    eprintln!("chaos kill-backend: {} ejected; restarting it", victim_addr);
    let victim = respawn_serve_child(bin, inst, victim_addr)?;
    wait_for("half-open recovery of the restart", Duration::from_secs(15), || {
        router.pool().backends()[0].state() == HealthState::Healthy
    })?;
    eprintln!("chaos kill-backend: {} back in rotation", victim.addr);

    // Keep the storm going on the recovered pair before calling it.
    std::thread::sleep((duration / 2).max(Duration::from_millis(500)));
    stop.store(true, Ordering::SeqCst);
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut samples = Vec::new();
    for handle in wb {
        let o = handle
            .join()
            .map_err(|_| "well-behaved client panicked".to_string())?;
        ok += o.ok;
        failed += o.failed;
        samples.extend(o.samples);
    }

    // The tier must still be healthy end to end: a fresh client through
    // the router gets an exact tree.
    let mut probe =
        Client::connect(&addr).map_err(|e| format!("post-chaos connect failed: {e}"))?;
    let got = probe
        .tree(refs.sets[0][0].source, None)
        .map_err(|e| format!("post-chaos tree failed: {:?}: {}", e.kind, e.message))?;
    if got != refs.sets[0][0].dist {
        return Err("post-chaos answers diverged from the reference".into());
    }
    drop(probe);

    let stats = Arc::clone(router.stats());
    router.shutdown();

    let mut r = Report::new("loadgen chaos kill-backend");
    r.push_count("wb_ok", ok).push_count("wb_failed", failed);
    stats.fill_report(&mut r);
    if json {
        println!("{}", serde_json::to_string(&r).map_err(|e| e.to_string())?);
    } else {
        phast_bench::report::report_to_table(&r).print();
    }

    let mut problems = Vec::new();
    if ok == 0 {
        problems.push("no well-behaved request completed".to_string());
    }
    if failed > 0 {
        problems.push(format!(
            "{failed} well-behaved request(s) failed or diverged, e.g. {}",
            samples.first().map(String::as_str).unwrap_or("<no sample>")
        ));
    }
    if stats.failovers() == 0 {
        problems.push("the kill forced no failover (router_failovers == 0)".to_string());
    }
    if stats.ejections() == 0 {
        problems.push("the kill registered no ejection (router_ejections == 0)".to_string());
    }
    if stats.recoveries() == 0 {
        problems.push("the restart never rejoined rotation (router_recoveries == 0)".to_string());
    }
    if !problems.is_empty() {
        return Err(format!("kill-backend chaos check failed: {}", problems.join("; ")));
    }
    eprintln!(
        "kill-backend chaos ok: {ok} well-behaved requests all exact through a SIGKILL; \
         {} failover(s), {} ejection(s), {} recovery(e|ies), {} pooled conn(s) drained",
        stats.failovers(),
        stats.ejections(),
        stats.recoveries(),
        stats.drained_conns(),
    );
    Ok(())
}

/// One well-behaved client under chaos: retrying transport, in-deadline
/// requests, every answer differentially checked against the reference
/// *for the metric epoch stamped on the reply* — a reply computed on a
/// freshly swapped metric must match that metric's Dijkstra oracle, and
/// one admitted before a swap must match its admission epoch's.
fn chaos_wb_client(addr: &str, refs: &RefSets, seed: u64, stop: &AtomicBool) -> WbOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = WbOutcome {
        ok: 0,
        failed: 0,
        samples: Vec::new(),
    };
    let mut client = match Client::connect_with(addr, ClientConfig::retrying(8)) {
        Ok(c) => c,
        Err(e) => {
            out.failed = 1;
            out.samples.push(format!("connect failed: {e}"));
            return out;
        }
    };
    let deadline = Some(3_000);
    let num_vertices = refs.sets[0][0].dist.len() as u32;
    let mut turn = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let si = rng.random_range(0..refs.sets[0].len() as u32) as usize;
        let source = refs.sets[0][si].source;
        // The reference table is picked *after* the reply: the `epoch`
        // stamp says which metric the server answered under.
        let verdict: Result<(), String> = match turn % 3 {
            0 => match client.tree(source, deadline) {
                Ok(d) => {
                    let r = &refs.for_epoch(client.last_epoch().unwrap_or(1))[si];
                    if d == r.dist {
                        Ok(())
                    } else {
                        Err("tree distances diverged from the epoch reference".into())
                    }
                }
                Err(e) => Err(format!("tree failed: {:?}: {}", e.kind, e.message)),
            },
            1 => {
                let targets: Vec<u32> =
                    (0..4).map(|_| rng.random_range(0..num_vertices)).collect();
                match client.many(source, &targets, deadline) {
                    Ok(d) => {
                        let r = &refs.for_epoch(client.last_epoch().unwrap_or(1))[si];
                        let want: Vec<u32> =
                            targets.iter().map(|&t| r.dist[t as usize]).collect();
                        if d == want {
                            Ok(())
                        } else {
                            Err("many distances diverged from the epoch reference".into())
                        }
                    }
                    Err(e) => Err(format!("many failed: {:?}: {}", e.kind, e.message)),
                }
            }
            _ => {
                let t = rng.random_range(0..num_vertices);
                match client.p2p(source, t, deadline) {
                    Ok(d) => {
                        let r = &refs.for_epoch(client.last_epoch().unwrap_or(1))[si];
                        if d == r.dist[t as usize] {
                            Ok(())
                        } else {
                            Err("p2p distance diverged from the epoch reference".into())
                        }
                    }
                    Err(e) => Err(format!("p2p failed: {:?}: {}", e.kind, e.message)),
                }
            }
        };
        match verdict {
            Ok(()) => out.ok += 1,
            Err(msg) => {
                out.failed += 1;
                if out.samples.len() < 8 {
                    out.samples.push(format!(
                        "request {turn} (source {source}, epoch {:?}): {msg}",
                        client.last_epoch()
                    ));
                }
            }
        }
        turn += 1;
    }
    out
}

/// Dribbles bytes slower than the server's I/O timeout; every connection
/// should get reaped (`timed_out_connections`).
fn chaos_slowloris(addr: &str, gap: Duration, stop: &AtomicBool) {
    let line = b"{\"op\":\"tree\",\"source\":0}\n";
    while !stop.load(Ordering::SeqCst) {
        let Ok(mut s) = TcpStream::connect(addr) else {
            if !nap(stop, Duration::from_millis(50)) {
                return;
            }
            continue;
        };
        let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
        for &b in line.iter().cycle() {
            // A failed write means the server reaped us — reconnect.
            if s.write_all(&[b]).is_err() {
                break;
            }
            if !nap(stop, gap) {
                return;
            }
        }
    }
}

/// Connects, writes part or all of a request, and vanishes mid-flight.
fn chaos_disconnect(addr: &str, stop: &AtomicBool) {
    let mut phase = 0u32;
    while !stop.load(Ordering::SeqCst) {
        if let Ok(mut s) = TcpStream::connect(addr) {
            match phase % 3 {
                0 => {
                    // Half a request line, then gone.
                    let _ = s.write_all(b"{\"op\":\"tree\",\"sou");
                }
                1 => {
                    // Full request, gone before the (large) reply is read.
                    let _ = s.write_all(b"{\"op\":\"tree\",\"source\":1}\n");
                }
                _ => {
                    // Full request, half the reply read, then gone.
                    let _ = s.write_all(b"{\"op\":\"p2p\",\"source\":1,\"target\":0}\n");
                    let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
                    let mut buf = [0u8; 8];
                    let _ = s.read(&mut buf);
                }
            }
        }
        phase = phase.wrapping_add(1);
        if !nap(stop, Duration::from_millis(15)) {
            return;
        }
    }
}

/// Floods newline-terminated byte soup; every line must come back as a
/// typed `malformed` reply (`rejected_invalid`), never a crash.
fn chaos_garbage(addr: &str, seed: u64, stop: &AtomicBool) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    while !stop.load(Ordering::SeqCst) {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_millis(100)));
            let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
            for _ in 0..8 {
                let len = 16 + rng.random_range(0..240) as usize;
                let mut line: Vec<u8> = (0..len)
                    .map(|_| {
                        let b = rng.random_range(1..256) as u8;
                        if b == b'\n' {
                            b'x'
                        } else {
                            b
                        }
                    })
                    .collect();
                line.push(b'\n');
                if s.write_all(&line).is_err() {
                    break;
                }
                let mut buf = [0u8; 512];
                let _ = s.read(&mut buf);
            }
        }
        if !nap(stop, Duration::from_millis(20)) {
            return;
        }
    }
}

/// Sends request lines far beyond `--max-line-bytes`; the server must
/// reply `malformed` and close without buffering the flood.
fn chaos_oversize(addr: &str, cap: usize, stop: &AtomicBool) {
    let blob = vec![b'a'; cap * 2];
    while !stop.load(Ordering::SeqCst) {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = s.write_all(&blob);
            let _ = s.write_all(b"\n");
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let mut buf = [0u8; 512];
            let _ = s.read(&mut buf);
        }
        if !nap(stop, Duration::from_millis(30)) {
            return;
        }
    }
}

/// Fires waves of concurrent connections that together push queue depth
/// past the shed threshold; sheds come back as typed `overloaded`
/// replies, not hangs.
fn chaos_burst(addr: &str, n: u32, seed: u64, stop: &AtomicBool) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    while !stop.load(Ordering::SeqCst) {
        let mut wave = Vec::new();
        for _ in 0..16 {
            let addr = addr.to_string();
            let src = rng.random_range(0..n);
            let dst = rng.random_range(0..n);
            if let Ok(h) = std::thread::Builder::new()
                .name("chaos-burst-conn".into())
                .spawn(move || burst_conn(&addr, src, dst))
            {
                wave.push(h);
            }
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
    let mut batch = String::new();
    for _ in 0..10 {
        batch.push_str(&format!("{{\"op\":\"p2p\",\"source\":{src},\"target\":{dst}}}\n"));
    }
    if s.write_all(batch.as_bytes()).is_err() {
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
