//! `phast-cli` — command-line front end for the library.
//!
//! ```text
//! phast-cli generate  --vertices 100000 --metric time --seed 7 -o net.gr --coords net.co
//! phast-cli stats     net.gr
//! phast-cli preprocess net.gr --out inst.phast [--reverse] [--threads N]
//!                     [--stats[=json]]
//! phast-cli tree      inst.phast --source 0 [--top 5] [--stats[=json]]
//! phast-cli dump      inst.phast
//! phast-cli query     net.gr --from 0 --to 999 [--path]
//! phast-cli matrix    inst.phast --sources 0,5,9 --targets 3,7
//!                     [--k 16] [--out dist.tsv] [--stats[=json]]
//! phast-cli customize net.gr --out custom.phast
//!                     (--metric weights.json | --perturb SEED)
//!                     [--name NAME] [--version V] [--emit-metric w.json]
//!                     [--threads N]
//! phast-cli serve     net.gr [--instance inst.phast] [--addr 127.0.0.1:7878]
//!                     [--k 16] [--window-ms 2] [--workers 2] [--queue 1024]
//!                     [--shed-queue-depth 768] [--shed-wait-ms N]
//!                     [--max-conns 256] [--io-timeout-ms 10000]
//!                     [--max-line-bytes 262144] [--epoch-history 4]
//!                     [--watch-metric weights.json]
//!                     [--canary-queries 8] [--guard-window-ms 0]
//!                     [--duration-ms 0] [--stats[=json]]
//! phast-cli route     --backends HOST:PORT[,HOST:PORT...]
//!                     [--addr 127.0.0.1:7800] [--probe-interval-ms 100]
//!                     [--eject-after 3] [--halfopen-after-ms 500]
//!                     [--max-failovers 3] [--default-budget-ms 5000]
//!                     [--connect-timeout-ms 2000] [--io-timeout-ms 10000]
//!                     [--max-conns 256] [--max-line-bytes 1048576]
//!                     [--duration-ms 0] [--stats[=json]]
//! phast-cli bench     [--out target/BENCH_phast.json] [--baseline BENCH_old.json]
//!                     [--samples 7] [--warmup 2] [--k 16]
//!                     [--threshold-pct 10] [--mad-k 4]
//! ```
//!
//! Graphs use the 9th DIMACS Implementation Challenge `.gr`/`.co` formats,
//! so real road networks work directly.
//!
//! Preprocessed artifacts have one format, whatever the output path is
//! called: the crash-safe versioned binary store of `phast-store`
//! (DESIGN.md §10) — checksummed, with the contraction hierarchy bundled
//! so `serve --instance` skips recontraction *and* keeps its
//! point-to-point fast path. `tree`, `matrix` and `serve --instance` load
//! it through the store's one decoder; anything else is the typed "not a
//! .phast artifact" error. `dump` is how a human reads one: the format
//! version, the CRC-32 kernel this CPU runs (`pclmulqdq` or `table`), a
//! row per section (tag, name, payload offset, bytes, offset mod 64, CRC
//! verdict) from the decoder's own section walk, then what the instance,
//! the bundled hierarchy and each `METRIC` section hold.
//!
//! `matrix` computes a many-to-many distance table with RPHAST
//! (DESIGN.md §13): one target selection built over the comma-separated
//! `--targets` list, then one restricted k-lane sweep per `--k` sources.
//! Rows print to stdout as tab-separated values (or to `--out`), one row
//! per source, `INF` for unreachable targets.
//!
//! `customize` runs the CCH-style customization pass of `phast-metrics`
//! (DESIGN.md §14): contract once, freeze the metric-independent
//! topology, then derive a ready-to-serve instance for a new set of arc
//! weights — either a `MetricWeights` JSON document (`--metric`) or a
//! deterministically perturbed copy of the graph's own weights
//! (`--perturb SEED`, for smoke tests). The output `.phast` artifact
//! bundles the customized hierarchy *and* the metric itself (a `METRIC`
//! section), so `serve --instance` picks the new weights up directly.
//! `--emit-metric` additionally writes the metric as JSON — the document
//! `serve --watch-metric` consumes.
//!
//! `route` starts the failover front of `phast-router`: one port
//! spreading the serve line protocol across comma-separated replica
//! addresses, with health-check ejection, half-open recovery, pooled
//! connection draining, and deadline-bounded failover of retryable
//! failures (DESIGN.md §15). `--duration-ms` works as in `serve`, and
//! `--stats` prints the `router_*` counter report on exit.
//!
//! `serve` starts the batching query service of `phast-serve` (see
//! `DESIGN.md` §9 for the line protocol); `--duration-ms 0` (the default)
//! serves until killed, a positive value serves that long, then drains and
//! prints the service report. With `--watch-metric <path>` the server
//! also watches a weights JSON file and hot-swaps the serving metric
//! whenever the file holds a new `(name, version)` — queries keep flowing
//! on the old metric until the new epoch is published (DESIGN.md §14).
//! The watcher needs the base graph, so `--watch-metric` requires the
//! graph positional even when serving from `--instance`. Every swap runs
//! the guarded rollout pipeline (DESIGN.md §16): `--canary-queries`
//! sampled trees are checked bit-exactly against reference Dijkstra
//! before publication (0 disables the canary), and a positive
//! `--guard-window-ms` monitors service health after each publish,
//! auto-rolling-back onto the `--epoch-history` ring when it trips.
//!
//! `bench` runs the deterministic perf-regression suite over every hot
//! path (scalar Dijkstra, single-tree sweep, k-tree SIMD sweeps, the
//! parallel sweep, the GPHAST simulator, and the serve batch path) at
//! `PHAST_SCALE` vertices and writes a versioned artifact to `--out`, by
//! default `target/BENCH_phast.json` (the repository root's
//! `BENCH_phast.json` is the committed trajectory, not a scratch file).
//! With `--baseline` it compares against a previous artifact using
//! noise-aware thresholds and exits non-zero on any regression — see
//! `DESIGN.md` §12 for the schema and the comparison policy.
//!
//! `--stats` prints the observability report of the command (a table, or
//! one JSON object with `--stats=json`; see `DESIGN.md` "Observability").
//! The report includes phase times and every counter of the engine.
//!
//! Every failure — a missing or unreadable file, a malformed graph, an
//! unknown flag, an out-of-range vertex — prints `error: ...` to stderr
//! and exits non-zero; the CLI never panics on bad input.

use phast_bench::cli::{
    check_vertex, create_file, load_graph, load_instance, parse_num, parse_threads,
    serve_config_from_flags, Flags, SERVE_FLAGS,
};
use phast_core::{Direction, PhastBuilder};
use phast_graph::dimacs;
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_graph::INF;
use phast_serve::{Server, Service};
use std::io::{BufWriter, Write};
use std::process::exit;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("preprocess") => cmd_preprocess(&args[1..]),
        Some("tree") => cmd_tree(&args[1..]),
        Some("dump") => cmd_dump(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("matrix") => cmd_matrix(&args[1..]),
        Some("customize") => cmd_customize(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => {
            eprintln!(
                "usage: phast-cli <generate|stats|preprocess|tree|dump|query|matrix|customize|serve|route|bench> [options]\n\
                 see the module docs (or the README) for the option lists"
            );
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The `--stats` switch: `None` = off, `Some(false)` = table,
/// `Some(true)` = JSON (`--stats=json`).
fn stats_mode(f: &Flags) -> Option<bool> {
    if f.has("--stats=json") {
        Some(true)
    } else if f.has("--stats") {
        Some(false)
    } else {
        None
    }
}

/// The two spellings of the stats switch, for command flag tables.
const STATS_FLAGS: [(&str, bool); 2] = [("--stats", false), ("--stats=json", false)];

fn emit_report(report: &phast_obs::Report, json: bool) -> CliResult {
    if json {
        println!("{}", serde_json::to_string(report)?);
    } else {
        phast_bench::report::report_to_table(report).print();
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> CliResult {
    let f = Flags::parse(
        args,
        &[
            ("--vertices", true),
            ("--metric", true),
            ("--seed", true),
            ("-o", true),
            ("--coords", true),
            ("--usa", false),
        ],
    )?;
    let n: usize = parse_num(f.require("--vertices")?, "--vertices")?;
    let metric = match f.get("--metric").unwrap_or("time") {
        "time" => Metric::TravelTime,
        "dist" | "distance" => Metric::TravelDistance,
        other => return Err(format!("unknown metric '{other}'").into()),
    };
    let seed: u64 = parse_num(f.get("--seed").unwrap_or("42"), "--seed")?;
    let out = f.require("-o")?;
    let cfg = if f.has("--usa") {
        RoadNetworkConfig::usa_like(n, seed, metric)
    } else {
        RoadNetworkConfig::europe_like(n, seed, metric)
    };
    let net = cfg.build();
    dimacs::write_gr(BufWriter::new(create_file(out)?), &net.graph)?;
    eprintln!(
        "wrote {out}: {} vertices, {} arcs",
        net.num_vertices(),
        net.num_arcs()
    );
    if let Some(co) = f.get("--coords") {
        dimacs::write_co(BufWriter::new(create_file(co)?), &net.coords)?;
        eprintln!("wrote {co}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let f = Flags::parse(args, &[])?;
    let path = f.positional("graph file")?;
    let g = load_graph(path)?;
    let m = phast_graph::metrics::graph_metrics(&g);
    let scc = phast_graph::components::is_strongly_connected(&g);
    println!("graph        : {path}");
    println!("vertices     : {}", m.n);
    println!("arcs         : {} (avg degree {:.2})", m.m, m.avg_degree);
    println!("max degree   : {}", m.max_degree);
    println!("out-degrees  : {:?} (last bucket = 8+)", m.degree_histogram);
    println!(
        "weights      : {}..{} (mean {:.1})",
        m.min_weight, m.max_weight, m.mean_weight
    );
    println!(
        "arc span     : median |head-tail| = {} (layout locality)",
        m.median_arc_span
    );
    println!("hop diameter : >= {}", m.hop_diameter_lower_bound);
    println!("strongly connected: {scc}");
    Ok(())
}

fn cmd_preprocess(args: &[String]) -> CliResult {
    let mut spec = vec![
        ("-o", true),
        ("--out", true),
        ("--reverse", false),
        ("--threads", true),
    ];
    spec.extend(STATS_FLAGS);
    let f = Flags::parse(args, &spec)?;
    let path = f.positional("graph file")?;
    let out = f
        .get("--out")
        .or_else(|| f.get("-o"))
        .ok_or("missing required flag --out (or -o)")?;
    let g = load_graph(path)?;
    let dir = if f.has("--reverse") {
        Direction::Reverse
    } else {
        Direction::Forward
    };
    let ch_cfg = phast_ch::ContractionConfig {
        threads: parse_threads(&f)?,
        ..phast_ch::ContractionConfig::default()
    };
    let t = std::time::Instant::now();
    let h = phast_ch::contract_graph(&g, &ch_cfg);
    let p = PhastBuilder::new().direction(dir).build_with_hierarchy(&g, &h);
    let elapsed = t.elapsed();
    eprintln!(
        "preprocessed in {elapsed:.2?}: {} levels, {} shortcuts",
        p.num_levels(),
        p.num_shortcuts()
    );
    if let Some(json) = stats_mode(&f) {
        let c = phast_obs::prep::counters();
        let mut r = phast_obs::Report::new("phast preprocess");
        r.push_count("vertices", p.num_vertices() as u64)
            .push_count("levels", p.num_levels() as u64)
            .push_count("shortcuts", p.num_shortcuts() as u64)
            .push_count("shortcuts_added", c.shortcuts_added)
            .push_count("witness_searches", c.witness_searches)
            .push_time("preprocess_time", elapsed);
        emit_report(&r, json)?;
    }
    phast_store::write_instance(std::path::Path::new(out), &p, Some(&h))
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!("wrote {out} (binary store, hierarchy bundled)");
    Ok(())
}

fn cmd_tree(args: &[String]) -> CliResult {
    let mut spec = vec![("--source", true), ("--top", true), ("--out", true)];
    spec.extend(STATS_FLAGS);
    let f = Flags::parse(args, &spec)?;
    let path = f.positional("artifact file")?;
    let source: u32 = parse_num(f.require("--source")?, "--source")?;
    let (p, _) = load_instance(path)?;
    check_vertex(source, p.num_vertices(), "--source")?;
    let mut engine = p.engine();
    let t = std::time::Instant::now();
    let dist = engine.distances(source);
    eprintln!("tree from {source} in {:.2?}", t.elapsed());
    let reached = dist.iter().filter(|&&d| d < INF).count();
    let ecc = dist.iter().filter(|&&d| d < INF).max().copied().unwrap_or(0);
    println!("reached {reached} of {} vertices; eccentricity {ecc}", dist.len());
    if let Some(json) = stats_mode(&f) {
        emit_report(&engine.stats().report("phast tree query"), json)?;
    }
    if let Some(top) = f.get("--top") {
        let top: usize = parse_num(top, "--top")?;
        let mut far: Vec<(u32, u32)> = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d < INF)
            .map(|(v, &d)| (d, v as u32))
            .collect();
        far.sort_unstable_by(|a, b| b.cmp(a));
        for &(d, v) in far.iter().take(top) {
            println!("  vertex {v}: distance {d}");
        }
    }
    if let Some(out) = f.get("--out") {
        let mut w = BufWriter::new(create_file(out)?);
        for (v, d) in dist.iter().enumerate() {
            writeln!(w, "{v} {d}")?;
        }
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// Prints what an artifact holds. The section table comes first and from
/// the frame walk alone, so a file the decoder then refuses still shows
/// which section is the damaged one.
fn cmd_dump(args: &[String]) -> CliResult {
    let f = Flags::parse(args, &[])?;
    let path = f.positional("artifact file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let cannot_load = |e| format!("cannot load artifact `{path}`: {e}");
    let sections = phast_store::codec::sections(&bytes).map_err(cannot_load)?;
    println!("artifact     : {path} ({} bytes)", bytes.len());
    println!("format       : PHASTBIN version {}", phast_store::FORMAT_VERSION);
    println!("crc32        : {}", phast_store::crc::kernel());
    println!("{:<4} {:<15} {:>10} {:>10} {:>3}  crc", "tag", "section", "offset", "bytes", "%64");
    for section in sections {
        let s = section.map_err(cannot_load)?;
        println!(
            "0x{:02X} {:<15} {:>10} {:>10} {:>3}  {}",
            s.tag,
            phast_store::codec::section_name(s.tag).unwrap_or("?"),
            s.offset,
            s.payload.len(),
            s.offset % 64,
            if s.crc_ok { "ok" } else { "BAD" }
        );
    }
    let loaded = phast_store::decode_instance(&bytes, None).map_err(cannot_load)?;
    let p = &loaded.phast;
    println!("vertices     : {}", p.num_vertices());
    println!(
        "arcs         : {} up, {} down, {} original",
        p.up().num_arcs(),
        p.down().num_arcs(),
        p.orig_incoming().num_arcs()
    );
    println!("levels       : {}", p.num_levels());
    println!("shortcuts    : {}", p.num_shortcuts());
    println!(
        "hierarchy    : {}",
        if loaded.hierarchy.is_some() { "bundled" } else { "absent" }
    );
    for m in &loaded.metrics {
        println!("metric       : `{}` v{}, {} weights", m.name, m.version, m.weights.len());
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> CliResult {
    let f = Flags::parse(
        args,
        &[("--from", true), ("--to", true), ("--path", false)],
    )?;
    let path = f.positional("graph file")?;
    let s: u32 = parse_num(f.require("--from")?, "--from")?;
    let t: u32 = parse_num(f.require("--to")?, "--to")?;
    let g = load_graph(path)?;
    check_vertex(s, g.num_vertices(), "--from")?;
    check_vertex(t, g.num_vertices(), "--to")?;
    let start = std::time::Instant::now();
    let h = phast_ch::contract_graph(&g, &phast_ch::ContractionConfig::default());
    eprintln!("CH preprocessing in {:.2?}", start.elapsed());
    let mut q = phast_ch::ChQuery::new(&h).stall_on_demand(true);
    let start = std::time::Instant::now();
    if f.has("--path") {
        match q.query_path(s, t) {
            Some((d, path)) => {
                println!("distance {s} -> {t}: {d} ({} segments)", path.len() - 1);
                println!("{path:?}");
            }
            None => println!("{t} unreachable from {s}"),
        }
    } else {
        match q.query(s, t) {
            Some(d) => println!("distance {s} -> {t}: {d}"),
            None => println!("{t} unreachable from {s}"),
        }
    }
    eprintln!("query in {:.2?}", start.elapsed());
    Ok(())
}

fn cmd_matrix(args: &[String]) -> CliResult {
    let mut spec = vec![
        ("--sources", true),
        ("--targets", true),
        ("--k", true),
        ("--out", true),
    ];
    spec.extend(STATS_FLAGS);
    let f = Flags::parse(args, &spec)?;
    let path = f.positional("artifact file")?;
    let parse_list = |raw: &str, what: &str| -> Result<Vec<u32>, String> {
        let list: Vec<u32> = raw
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| parse_num(s, what))
            .collect::<Result<_, _>>()?;
        if list.is_empty() {
            return Err(format!("{what} needs at least one vertex id"));
        }
        Ok(list)
    };
    let sources = parse_list(f.require("--sources")?, "--sources")?;
    let targets = parse_list(f.require("--targets")?, "--targets")?;
    let k: usize = parse_num(f.get("--k").unwrap_or("16"), "--k")?;
    if k == 0 || k > phast_core::simd::MAX_K {
        return Err(format!("--k must be in 1..={} (got {k})", phast_core::simd::MAX_K).into());
    }
    let (p, _) = load_instance(path)?;
    for &s in &sources {
        check_vertex(s, p.num_vertices(), "--sources")?;
    }
    for &t in &targets {
        check_vertex(t, p.num_vertices(), "--targets")?;
    }

    let t0 = std::time::Instant::now();
    let mut builder = phast_core::SelectionBuilder::new(&p);
    let sel = builder.build(&targets);
    let build = t0.elapsed();
    let mut engine = p.multi_engine(k);
    let t1 = std::time::Instant::now();
    let rows = engine.matrix(&sel, &sources);
    eprintln!(
        "selection of {} vertices ({} targets) in {build:.2?}; \
         {}x{} matrix in {:.2?} ({} restricted sweeps, {:?} kernel)",
        sel.len(),
        targets.len(),
        sources.len(),
        targets.len(),
        t1.elapsed(),
        engine.chunks_for(sources.len()),
        engine.simd_level(),
    );
    let mut w: Box<dyn Write> = match f.get("--out") {
        Some(out) => Box::new(BufWriter::new(create_file(out)?)),
        None => Box::new(std::io::stdout().lock()),
    };
    for (row, &s) in rows.iter().zip(&sources) {
        write!(w, "{s}")?;
        for &d in row {
            if d >= INF {
                write!(w, "\tINF")?;
            } else {
                write!(w, "\t{d}")?;
            }
        }
        writeln!(w)?;
    }
    w.flush()?;
    if let Some(out) = f.get("--out") {
        eprintln!("wrote {out}");
    }
    if let Some(json) = stats_mode(&f) {
        emit_report(&engine.stats().report("phast matrix query"), json)?;
    }
    Ok(())
}

fn cmd_route(args: &[String]) -> CliResult {
    let mut spec = vec![
        ("--backends", true),
        ("--addr", true),
        ("--probe-interval-ms", true),
        ("--eject-after", true),
        ("--halfopen-after-ms", true),
        ("--max-failovers", true),
        ("--default-budget-ms", true),
        ("--connect-timeout-ms", true),
        ("--io-timeout-ms", true),
        ("--max-conns", true),
        ("--max-line-bytes", true),
        ("--duration-ms", true),
    ];
    spec.extend(STATS_FLAGS);
    let f = Flags::parse(args, &spec)?;
    let addr = f.get("--addr").unwrap_or("127.0.0.1:7800");
    let backends: Vec<std::net::SocketAddr> = f
        .require("--backends")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|e| format!("bad backend address `{s}`: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if backends.is_empty() {
        return Err("--backends needs at least one HOST:PORT".into());
    }
    let d = phast_router::RouterConfig::default();
    let ms = |flag: &str, dft: Duration| -> Result<Duration, String> {
        Ok(match f.get(flag) {
            Some(v) => Duration::from_millis(parse_num(v, flag)?),
            None => dft,
        })
    };
    let cfg = phast_router::RouterConfig {
        backends,
        probe_interval: ms("--probe-interval-ms", d.probe_interval)?,
        eject_after: match f.get("--eject-after") {
            Some(v) => parse_num(v, "--eject-after")?,
            None => d.eject_after,
        },
        halfopen_after: ms("--halfopen-after-ms", d.halfopen_after)?,
        connect_timeout: ms("--connect-timeout-ms", d.connect_timeout)?,
        io_timeout: ms("--io-timeout-ms", d.io_timeout)?,
        max_failovers: match f.get("--max-failovers") {
            Some(v) => parse_num(v, "--max-failovers")?,
            None => d.max_failovers,
        },
        default_budget: ms("--default-budget-ms", d.default_budget)?,
        max_conns: match f.get("--max-conns") {
            Some(v) => parse_num(v, "--max-conns")?,
            None => d.max_conns,
        },
        max_line_bytes: match f.get("--max-line-bytes") {
            Some(v) => parse_num(v, "--max-line-bytes")?,
            None => d.max_line_bytes,
        },
    };
    if cfg.eject_after == 0 {
        return Err("--eject-after must be positive".into());
    }
    if cfg.max_conns == 0 {
        return Err("--max-conns must be positive".into());
    }
    if cfg.max_line_bytes < 64 {
        return Err("--max-line-bytes must be at least 64 (a minimal request line)".into());
    }
    let duration_ms: u64 = parse_num(f.get("--duration-ms").unwrap_or("0"), "--duration-ms")?;
    eprintln!(
        "routing across {} backend(s): eject-after={} probe-interval={:?} \
         halfopen-after={:?} max-failovers={} default-budget={:?}",
        cfg.backends.len(),
        cfg.eject_after,
        cfg.probe_interval,
        cfg.halfopen_after,
        cfg.max_failovers,
        cfg.default_budget,
    );
    let router = phast_router::Router::spawn(cfg, addr)
        .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    eprintln!("listening on {}", router.local_addr());
    if duration_ms == 0 {
        // Route until the process is killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    let report = router.stats().report("phast-router");
    router.shutdown();
    match stats_mode(&f) {
        Some(json) => emit_report(&report, json)?,
        None => emit_report(&report, false)?,
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> CliResult {
    let f = Flags::parse(
        args,
        &[
            ("--out", true),
            ("--baseline", true),
            ("--samples", true),
            ("--warmup", true),
            ("--k", true),
            ("--threshold-pct", true),
            ("--mad-k", true),
        ],
    )?;
    let cfg = phast_bench::regress::SuiteConfig {
        scale: phast_bench::workload::scale_from_env(50_000),
        warmup: parse_num(f.get("--warmup").unwrap_or("2"), "--warmup")?,
        runs: parse_num(f.get("--samples").unwrap_or("7"), "--samples")?,
        k: parse_num(f.get("--k").unwrap_or("16"), "--k")?,
    };
    let out = f.get("--out").unwrap_or("target/BENCH_phast.json");
    eprintln!(
        "bench suite: {} vertices (PHAST_SCALE), k={}, {} warmup + {} samples per benchmark",
        cfg.scale, cfg.k, cfg.warmup, cfg.runs
    );
    let t = std::time::Instant::now();
    let artifact = phast_bench::regress::run_suite(&cfg)?;
    eprintln!("suite finished in {:.2?}", t.elapsed());
    artifact.table().print();
    phast_bench::regress::write_artifact(std::path::Path::new(out), &artifact)?;
    eprintln!("wrote {out}");
    if let Some(base_path) = f.get("--baseline") {
        let baseline = phast_bench::regress::load_artifact(std::path::Path::new(base_path))?;
        let ccfg = phast_bench::regress::CompareConfig {
            threshold_pct: parse_num(f.get("--threshold-pct").unwrap_or("10"), "--threshold-pct")?,
            mad_k: parse_num(f.get("--mad-k").unwrap_or("4"), "--mad-k")?,
        };
        let cmp = phast_bench::regress::compare(&baseline, &artifact, &ccfg);
        cmp.table().print();
        if cmp.host_mismatch {
            eprintln!(
                "warning: baseline was recorded on a different host; \
                 the noise thresholds were calibrated for same-machine runs"
            );
        }
        let failures = cmp.failures();
        if !failures.is_empty() {
            for msg in &failures {
                eprintln!("regression: {msg}");
            }
            return Err(format!(
                "{} regression(s) against baseline `{base_path}`",
                failures.len()
            )
            .into());
        }
        eprintln!(
            "no regressions against `{base_path}` (allowance: max({}%, {}x MAD) per benchmark)",
            ccfg.threshold_pct, ccfg.mad_k
        );
    }
    Ok(())
}

fn cmd_customize(args: &[String]) -> CliResult {
    let f = Flags::parse(
        args,
        &[
            ("--out", true),
            ("--metric", true),
            ("--perturb", true),
            ("--name", true),
            ("--version", true),
            ("--emit-metric", true),
            ("--threads", true),
        ],
    )?;
    let path = f.positional("graph file")?;
    let out = f.require("--out")?;
    let g = load_graph(path)?;
    let threads = parse_threads(&f)?;

    let ch_cfg = phast_ch::ContractionConfig {
        threads,
        ..phast_ch::ContractionConfig::default()
    };
    let t = std::time::Instant::now();
    let h = phast_ch::contract_graph(&g, &ch_cfg);
    let contract = t.elapsed();
    let t = std::time::Instant::now();
    let customizer = phast_metrics::MetricCustomizer::new(g, &h)?;
    eprintln!(
        "contracted in {contract:.2?}, froze topology in {:.2?} \
         ({} closure arcs, {} triangles, {} levels)",
        t.elapsed(),
        customizer.frozen().num_arcs(),
        customizer.frozen().num_triangles(),
        customizer.frozen().num_levels(),
    );

    let metric = match (f.get("--metric"), f.get("--perturb")) {
        (Some(_), Some(_)) => {
            return Err("--metric and --perturb are mutually exclusive".into())
        }
        (Some(mp), None) => {
            let bytes = std::fs::read_to_string(mp)
                .map_err(|e| format!("cannot read metric `{mp}`: {e}"))?;
            let m: phast_metrics::MetricWeights = serde_json::from_str(&bytes)
                .map_err(|e| format!("`{mp}` is not a metric-weights JSON document: {e:?}"))?;
            m
        }
        (None, Some(seed)) => {
            let seed: u64 = parse_num(seed, "--perturb")?;
            let name = f.get("--name").unwrap_or("perturbed");
            let version: u64 = parse_num(f.get("--version").unwrap_or("1"), "--version")?;
            phast_metrics::MetricWeights::perturbed(customizer.graph(), name, version, seed)
        }
        (None, None) => {
            return Err("customize needs --metric <weights.json> or --perturb <seed>".into())
        }
    };

    let t = std::time::Instant::now();
    let (p, ch) = customizer.build(&metric)?;
    eprintln!(
        "customized metric `{}` v{} in {:.2?} (vs {contract:.2?} recontraction)",
        metric.name,
        metric.version,
        t.elapsed(),
    );
    let artifact = phast_store::encode_instance(&p, Some(&ch), std::slice::from_ref(&metric));
    phast_store::write_atomic(std::path::Path::new(out), &artifact)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!("wrote {out} (customized instance, hierarchy + metric bundled)");
    if let Some(mp) = f.get("--emit-metric") {
        let mut w = BufWriter::new(create_file(mp)?);
        w.write_all(serde_json::to_string(&metric)?.as_bytes())?;
        w.flush()?;
        eprintln!("wrote {mp} (metric weights JSON)");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut spec = vec![
        ("--instance", true),
        ("--addr", true),
        ("--duration-ms", true),
        ("--watch-metric", true),
        ("--watch-interval-ms", true),
        ("--canary-queries", true),
        ("--guard-window-ms", true),
    ];
    spec.extend(SERVE_FLAGS);
    spec.extend(STATS_FLAGS);
    let f = Flags::parse(args, &spec)?;
    let addr = f.get("--addr").unwrap_or("127.0.0.1:7878");
    let cfg = serve_config_from_flags(&f)?;
    let duration_ms: u64 = parse_num(f.get("--duration-ms").unwrap_or("0"), "--duration-ms")?;
    let watch = f.get("--watch-metric");
    let watch_interval: u64 =
        parse_num(f.get("--watch-interval-ms").unwrap_or("500"), "--watch-interval-ms")?;
    let wcfg_default = phast_serve::WatchConfig::default();
    let watch_cfg = phast_serve::WatchConfig {
        canary_queries: match f.get("--canary-queries") {
            Some(v) => parse_num(v, "--canary-queries")?,
            None => wcfg_default.canary_queries,
        },
        guard_window: Duration::from_millis(parse_num(
            f.get("--guard-window-ms").unwrap_or("0"),
            "--guard-window-ms",
        )?),
        ..wcfg_default
    };
    let t = std::time::Instant::now();
    let (service, customizer) = if let Some(inst) = f.get("--instance") {
        // A preprocessed artifact skips recontraction entirely; a binary
        // `.phast` bundle also restores the hierarchy, keeping the
        // point-to-point CH rung of the degradation ladder.
        let (p, h) = load_instance(inst)?;
        let n = p.num_vertices();
        let with_ch = h.is_some();
        let h = h.map(std::sync::Arc::new);
        let service = Service::new(std::sync::Arc::new(p), h.clone(), cfg.clone());
        eprintln!(
            "loaded instance `{inst}` ({n} vertices, hierarchy {}) in {:.2?}",
            if with_ch { "bundled" } else { "absent" },
            t.elapsed(),
        );
        // The customizer needs the base graph (the instance is permuted
        // and weight-baked), so --watch-metric keeps the graph positional
        // mandatory even in instance mode.
        let customizer = if watch.is_some() {
            let gpath = f.positional("graph file (--watch-metric needs the base graph)")?;
            let g = load_graph(gpath)?;
            let c = match &h {
                Some(h) => phast_metrics::MetricCustomizer::new(g, h)?,
                None => {
                    let h2 =
                        phast_ch::contract_graph(&g, &phast_ch::ContractionConfig::default());
                    phast_metrics::MetricCustomizer::new(g, &h2)?
                }
            };
            Some(std::sync::Arc::new(c))
        } else {
            None
        };
        (service, customizer)
    } else {
        let path = f.positional("graph file")?;
        let g = load_graph(path)?;
        let n = g.num_vertices();
        let built = if watch.is_some() {
            // Contract here so the hierarchy can seed the customizer too.
            let h = phast_ch::contract_graph(&g, &phast_ch::ContractionConfig::default());
            let p = PhastBuilder::new().build_with_hierarchy(&g, &h);
            let h = std::sync::Arc::new(h);
            let service =
                Service::new(std::sync::Arc::new(p), Some(std::sync::Arc::clone(&h)), cfg.clone());
            let customizer = phast_metrics::MetricCustomizer::new(g, &h)?;
            (service, Some(std::sync::Arc::new(customizer)))
        } else {
            (Service::for_graph(&g, cfg.clone()), None)
        };
        eprintln!("preprocessed {n} vertices in {:.2?}", t.elapsed());
        built
    };
    let mut watcher = match (watch, customizer) {
        (Some(path), Some(customizer)) => {
            eprintln!(
                "watching `{path}` for metric updates (poll every {watch_interval}ms, \
                 canary {} queries, guard window {:?})",
                watch_cfg.canary_queries, watch_cfg.guard_window
            );
            Some(phast_serve::MetricWatcher::spawn_with(
                std::sync::Arc::clone(&service),
                customizer,
                std::path::PathBuf::from(path),
                Duration::from_millis(watch_interval),
                watch_cfg,
            ))
        }
        _ => None,
    };
    eprintln!(
        "serving with k={} window={:?} workers={} queue={} shed-depth={} \
         max-conns={} io-timeout={:?} max-line-bytes={}",
        cfg.max_k,
        cfg.window,
        cfg.workers,
        cfg.queue_capacity,
        cfg.shed_queue_depth,
        cfg.max_conns,
        cfg.io_timeout,
        cfg.max_line_bytes
    );
    let server = Server::spawn(std::sync::Arc::clone(&service), addr)
        .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    eprintln!("listening on {}", server.local_addr());
    if duration_ms == 0 {
        // Serve until the process is killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    if let Some(w) = watcher.as_mut() {
        w.shutdown();
    }
    server.shutdown();
    let report = service.stats().report("phast-serve");
    match stats_mode(&f) {
        Some(json) => emit_report(&report, json)?,
        None => emit_report(&report, false)?,
    }
    Ok(())
}
