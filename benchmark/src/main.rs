//! The repo's end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! phast-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! phast-benchmark suite --out FILE [--seed N] [--seconds S] [--repeat R] [--smoke]
//! phast-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! phast-benchmark selfcheck [--seed N] [--seconds S] [--repeat R] [--smoke]
//! ```
//!
//! A run prints a table of every metric to stderr and, as the last line
//! of stdout, one JSON object `{correct, attempted, failed, metrics}`.
//! It exits 0 when every answer was verified, 1 when any was wrong or
//! failed, 2 when it could not run.

mod compare;
mod host;
mod instance;
mod loadgen;
mod oracle;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::rebuild::Rebuild;
use workloads::serve::Serve;
use workloads::trees_batch::TreesBatch;
use workloads::{floats, Kind, Params, Workload, WINDOWS};

/// Segments (set-up, warm-up, measurement) per untraced run.
const SETUP_REPS: usize = 3;

/// Command-line options of a run.
struct Options {
    params: Params,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

/// What a run hands back to `main`.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    /// Everything else the result file records.
    extra: Vec<(String, Value)>,
}

fn instance_info(inst: &instance::Instance) -> Value {
    Value::Object(vec![
        (
            "vertices".into(),
            Value::Int(inst.graph.num_vertices() as i64),
        ),
        ("arcs".into(), Value::Int(inst.graph.num_arcs() as i64)),
        ("graph_seed".into(), Value::Int(instance::GRAPH_SEED as i64)),
        (
            "source_pool".into(),
            Value::Int(inst.oracle.sources.len() as i64),
        ),
        (
            "target_pool".into(),
            Value::Int(inst.oracle.targets.len() as i64),
        ),
    ])
}

/// Wakes the cores before a timed set-up. `--smoke` runs are for CI, not
/// for numbers, and skip it.
fn wake_cores(o: &Options) {
    if !o.params.smoke {
        host::wake_cores();
    }
}

/// End-to-end run, tracing off: [`SETUP_REPS`] segments, each waking the
/// cores (untimed, see [`host::wake_cores`]), then a set-up from scratch,
/// a warm-up and [`WINDOWS`] windows of measurement, the
/// segments' windows adding up to `--seconds`. Every metric is the median
/// over the samples of all segments, so that each of them is sampled over
/// the whole wall time of the run: this host's speed moves by ±15 % for
/// seconds at a time, and a metric sampled in one stretch takes that on.
fn measured<W: Workload>(o: &Options) -> Result<Outcome, String> {
    let (mut setup_s, mut preprocess_s, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50_ms, mut p95_ms, mut throughput) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = Vec::new();
    let (mut looped_preprocess_s, mut looped_load_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let (mut details, mut counts, mut info) = (Vec::new(), Vec::new(), Value::Null);
    for _ in 0..SETUP_REPS {
        // Each segment's own peak: without the reset the process-wide
        // watermark reports the worst of the three stacked on each other.
        host::reset_peak_rss();
        wake_cores(o);
        let start = Instant::now();
        let mut workload = W::setup(&o.params)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let times = &workload.instance().times;
        preprocess_s.push(times.preprocess().as_secs_f64());
        load_ms.extend(times.loads.iter().map(|d| d.as_secs_f64() * 1e3));
        let m = workload.measure(&o.params, o.seconds / SETUP_REPS as f64, None)?;
        info = instance_info(workload.instance());
        peak_rss_mb.push(host::peak_rss_mb());
        workload.teardown();
        attempted += m.attempted;
        failed += m.failed;
        p50_ms.extend(m.p50_ms);
        p95_ms.extend(m.p95_ms);
        throughput.extend(m.throughput);
        looped_preprocess_s.extend(m.preprocess_s);
        looped_load_ms.extend(m.load_ms);
        details.push(m.detail);
        counts = m.counts;
    }
    // A workload that rebuilds in its loop reports those rebuilds.
    if !looped_preprocess_s.is_empty() {
        (preprocess_s, load_ms) = (looped_preprocess_s, looped_load_ms);
    }
    let samples = Value::Object(vec![
        ("setup_s".into(), floats(&setup_s)),
        ("preprocess_s".into(), floats(&preprocess_s)),
        ("load_ms".into(), floats(&load_ms)),
        ("peak_rss_mb".into(), floats(&peak_rss_mb)),
        ("p50_ms".into(), floats(&p50_ms)),
        ("p95_ms".into(), floats(&p95_ms)),
        ("throughput".into(), floats(&throughput)),
    ]);
    let metrics = vec![
        ("setup_s".into(), stats::median(&mut setup_s)),
        ("peak_rss_mb".into(), stats::median(&mut peak_rss_mb)),
        ("preprocess_s".into(), stats::median(&mut preprocess_s)),
        ("load_ms".into(), stats::median(&mut load_ms)),
        ("p50_ms".into(), stats::median(&mut p50_ms)),
        ("p95_ms".into(), stats::median(&mut p95_ms)),
        ("throughput".into(), stats::median(&mut throughput)),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        extra: vec![
            ("instance".into(), info),
            ("samples".into(), samples),
            ("segments".into(), Value::Array(details)),
            ("counts".into(), counts_value(&counts)),
        ],
    })
}

fn counts_value(counts: &[(String, f64)]) -> Value {
    Value::Object(
        counts
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect(),
    )
}

/// Per-layer run: one set-up, then half of `--seconds` untraced and half
/// traced over the same loop (the spans go to
/// `benchmark/out/trace-<workload>.json`), then the layer probes. The
/// probes come last because they take longer than the server lets the
/// workload's idle connections live.
fn traced<W: Workload>(o: &Options) -> Result<Outcome, String> {
    wake_cores(o);
    let mut workload = W::setup(&o.params)?;
    let reference = workload.measure(&o.params, o.seconds / 2.0, None)?;
    let mut tracer = trace::Tracer::new(Instant::now());
    let replay = workload.measure(&o.params, o.seconds / 2.0, Some(&mut tracer))?;
    let mut layers = probes::run(workload.instance(), &o.params)?;
    let info = instance_info(workload.instance());
    workload.teardown();

    let root = o.params.kind.root_span();
    let residual = trace::residual_share(&tracer.spans, root)
        .ok_or_else(|| format!("the traced replay recorded no `{root}` span"))?;
    layers.push(("trace.residual_share".into(), residual));
    layers.push((
        "trace.overhead_share".into(),
        (replay.p50() - reference.p50()) / reference.p50(),
    ));
    let mut counts = replay.counts.clone();
    counts.push(("p50_ms.untraced".into(), reference.p50()));
    counts.push(("p50_ms.traced".into(), replay.p50()));
    let path = PathBuf::from(format!(
        "{}/trace-{}.json",
        instance::OUT_DIR,
        o.params.kind.name()
    ));
    let file = trace::to_json(o.params.kind.name(), o.params.seed, &tracer.spans, &counts);
    std::fs::write(&path, file.to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tracer.spans.len(), path.display());

    let metrics = spec::PER_LAYER
        .iter()
        .map(|(name, _)| {
            layers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(n, v)| (n.clone(), *v))
                .ok_or_else(|| format!("no probe produced the layer metric {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        attempted: reference.attempted + replay.attempted,
        failed: reference.failed + replay.failed,
        metrics,
        extra: vec![
            ("instance".into(), info),
            ("windows".into(), replay.detail),
            ("counts".into(), counts_value(&counts)),
            (
                "trace_file".into(),
                Value::String(path.display().to_string()),
            ),
        ],
    })
}

fn metrics_value(metrics: &[(String, f64)]) -> Result<Value, String> {
    metrics
        .iter()
        .map(|(name, value)| {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            let unit =
                spec::unit_of(name).ok_or_else(|| format!("metric {name} is not in the spec"))?;
            Ok((
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Value::Object)
}

/// Runs one workload and prints its result. `Ok(true)` if every answer
/// was verified.
fn run(o: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let outcome = match (o.params.kind, o.trace) {
        (Kind::TreesBatch, false) => measured::<TreesBatch>(o),
        (Kind::TreesBatch, true) => traced::<TreesBatch>(o),
        (Kind::ServeTree | Kind::ServeMixed, false) => measured::<Serve>(o),
        (Kind::ServeTree | Kind::ServeMixed, true) => traced::<Serve>(o),
        (Kind::Rebuild, false) => measured::<Rebuild>(o),
        (Kind::Rebuild, true) => traced::<Rebuild>(o),
    }?;
    if outcome.attempted == 0 {
        return Err("nothing was attempted".into());
    }
    let correct = outcome.failed == 0;
    let metrics = metrics_value(&outcome.metrics)?;
    eprintln!(
        "{} seed {} — {} attempted, {} failed, {:.1} s wall",
        o.params.kind.name(),
        o.params.seed,
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64()
    );
    for (name, value) in &outcome.metrics {
        eprintln!(
            "  {name:<32} {value:>16.4} {}",
            spec::unit_of(name).unwrap_or("")
        );
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(outcome.attempted as i64)),
        ("failed".into(), Value::Int(outcome.failed as i64)),
        ("metrics".into(), metrics.clone()),
    ]);
    if let Some(path) = &o.out {
        let mut fields = vec![
            (
                "workload".into(),
                Value::String(o.params.kind.name().into()),
            ),
            ("seed".into(), Value::Int(o.params.seed as i64)),
            ("seconds".into(), Value::Float(o.seconds)),
            ("trace".into(), Value::Bool(o.trace)),
            ("smoke".into(), Value::Bool(o.params.smoke)),
            (
                "segments_per_run".into(),
                Value::Int(if o.trace { 1 } else { SETUP_REPS as i64 }),
            ),
            ("windows_per_segment".into(), Value::Int(WINDOWS as i64)),
            ("host".into(), host::fingerprint()),
            ("git_commit".into(), Value::String(host::git_commit())),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Int(outcome.attempted as i64)),
            ("failed".into(), Value::Int(outcome.failed as i64)),
            ("metrics".into(), metrics),
        ];
        fields.extend(outcome.extra);
        std::fs::write(path, Value::Object(fields).to_string())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(correct)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e:?}", path.display()))
}

/// A result file holds an array of runs; a single run's `--out` file is
/// accepted as an array of one.
fn read_results(path: &Path) -> Result<Value, String> {
    Ok(match read_json(path)? {
        list @ Value::Array(_) => list,
        one => Value::Array(vec![one]),
    })
}

/// `compare A B`: `Ok(true)` if no metric got worse.
fn compare_files(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let bounds = compare::bounds_from_spec(&read_json(spec)?)?;
    let rows = compare::compare(&read_results(a)?, &read_results(b)?, &bounds)?;
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

/// Runs every workload `repeat` times untraced and once traced, each in
/// a child process (so each has its own peak RSS), and writes the results
/// as one file.
fn suite(seed: u64, seconds: f64, repeat: usize, smoke: bool, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    std::fs::create_dir_all(instance::OUT_DIR)
        .map_err(|e| format!("creating {}: {e}", instance::OUT_DIR))?;
    let mut results = Vec::new();
    for kind in Kind::ALL {
        for run in 0..=repeat {
            let out = instance::scratch_path("run", "json");
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([
                "--workload",
                kind.name(),
                "--trace",
                if run == repeat { "1" } else { "0" },
            ])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .arg("--out")
            .arg(&out)
            .stdout(std::process::Stdio::null());
            if smoke {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("running {}: {e}", kind.name()))?;
            if !status.success() {
                return Err(format!("the {} run failed ({status})", kind.name()));
            }
            results.push(read_json(&out)?);
            let _ = std::fs::remove_file(&out);
        }
    }
    std::fs::write(path, Value::Array(results).to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `selfcheck`: the same code measured twice must agree with itself, at
/// `seed` and once more at `seed + 1`.
fn selfcheck(
    seed: u64,
    seconds: f64,
    repeat: usize,
    smoke: bool,
    spec: &Path,
) -> Result<bool, String> {
    let bounds = compare::bounds_from_spec(&read_json(spec)?)?;
    let mut agree = true;
    for seed in [seed, seed + 1] {
        let files = ["a", "b"].map(|side| {
            PathBuf::from(format!(
                "{}/selfcheck-seed{seed}-{side}.json",
                instance::OUT_DIR
            ))
        });
        for file in &files {
            suite(seed, seconds, repeat, smoke, file)?;
        }
        let rows = compare::compare(
            &read_results(&files[0])?,
            &read_results(&files[1])?,
            &bounds,
        )?;
        println!(
            "seed {seed}: {} vs {}",
            files[0].display(),
            files[1].display()
        );
        print!("{}", compare::render(&rows));
        // The two sides are the same code: a difference beyond the bound
        // in either direction, or a spread beyond it, is disagreement.
        agree &= rows.iter().all(|r| r.verdict == compare::Verdict::Same);
    }
    println!(
        "selfcheck: {}",
        if agree {
            "the runs agree within every bound"
        } else {
            "DISAGREEMENT"
        }
    );
    Ok(agree)
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) if i + 1 < self.0.len() => {
                let v = self.0.remove(i + 1);
                self.0.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{name} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {name}")))
            .transpose()
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.0),
        }
    }
}

fn dispatch() -> Result<bool, String> {
    let mut args = Args(std::env::args().skip(1).collect());
    let spec = PathBuf::from(
        args.value("--spec")?
            .unwrap_or_else(|| "BENCHMARK.json".into()),
    );
    match args.0.first().map(String::as_str) {
        Some("compare") => {
            let rest = args.done()?;
            match &rest[1..] {
                [a, b] => compare_files(Path::new(a), Path::new(b), &spec),
                _ => Err("usage: compare A.json B.json [--spec BENCHMARK.json]".into()),
            }
        }
        Some(sub @ ("suite" | "selfcheck")) => {
            let selfcheck_asked = sub == "selfcheck";
            let seed = args.parsed("--seed")?.unwrap_or(1);
            let smoke = args.flag("--smoke");
            let seconds = args
                .parsed("--seconds")?
                .unwrap_or(if smoke { 5.0 } else { 12.0 });
            let repeat = args.parsed("--repeat")?.unwrap_or(3);
            let out = args.value("--out")?;
            args.done()?;
            match (selfcheck_asked, out) {
                (true, _) => selfcheck(seed, seconds, repeat, smoke, &spec),
                (false, Some(out)) => {
                    suite(seed, seconds, repeat, smoke, Path::new(&out)).map(|()| true)
                }
                (false, None) => Err(
                    "usage: suite --out FILE [--seed N] [--seconds S] [--repeat R] [--smoke]"
                        .into(),
                ),
            }
        }
        _ => {
            let name = args.value("--workload")?.ok_or("missing --workload")?;
            let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let smoke = args.flag("--smoke");
            let options = Options {
                params: Params {
                    kind,
                    seed: args.parsed("--seed")?.unwrap_or(1),
                    smoke,
                },
                seconds: args
                    .parsed("--seconds")?
                    .unwrap_or(if smoke { 5.0 } else { 12.0 }),
                trace: args.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
                out: args.value("--out")?.map(PathBuf::from),
            };
            if let [stray, ..] = args.done()?.as_slice() {
                return Err(format!("unexpected argument {stray}"));
            }
            if options.seconds.is_nan() || options.seconds <= 0.0 {
                return Err("--seconds must be positive".into());
            }
            // The benchmark drives the system only through its public
            // functions and default configurations; the one thing it pins
            // is that nothing inherited from the environment changes the
            // thread counts it reports.
            std::env::remove_var("PHAST_THREADS");
            run(&options)
        }
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
