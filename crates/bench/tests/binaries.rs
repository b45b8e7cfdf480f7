//! Smoke tests for the two binaries: the experiment harness and the CLI.
//! These run the real executables end-to-end on tiny inputs, so the
//! shipped entry points can never silently rot.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (String, String, bool) {
    run_env(bin, args, &[])
}

fn run_env(bin: &str, args: &[&str], env: &[(&str, &str)]) -> (String, String, bool) {
    let mut cmd = Command::new(bin);
    cmd.args(args).env("PHAST_SCALE", "2000"); // keep the harness's instance tiny
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary should execute");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn experiments_quick_fig1_and_lb() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    let (stdout, stderr, ok) = run(bin, &["--quick", "fig1", "lb", "tab5sim"]);
    assert!(ok, "experiments failed: {stderr}");
    assert!(stdout.contains("Figure 1"), "missing Figure 1: {stdout}");
    assert!(stdout.contains("Lower bound"), "missing lower bound");
    assert!(stdout.contains("M4-12"), "missing simulated machine rows");
}

#[test]
fn experiments_rejects_unknown_experiment_gracefully() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    let (_, stderr, ok) = run(bin, &["--quick", "nonsense"]);
    assert!(ok, "unknown experiments are skipped, not fatal");
    assert!(stderr.contains("unknown experiment"));
}

#[test]
fn cli_full_pipeline() {
    let bin = env!("CARGO_BIN_EXE_phast_cli");
    let dir = std::env::temp_dir().join(format!("phast-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gr = dir.join("g.gr");
    let gr = gr.to_str().unwrap();
    let art = dir.join("g.phast");
    let art = art.to_str().unwrap();

    let (_, stderr, ok) = run(
        bin,
        &["generate", "--vertices", "2000", "--seed", "5", "-o", gr],
    );
    assert!(ok, "generate failed: {stderr}");

    let (stdout, _, ok) = run(bin, &["stats", gr]);
    assert!(ok);
    assert!(stdout.contains("strongly connected: true"), "{stdout}");

    let (_, stderr, ok) = run(bin, &["preprocess", gr, "-o", art]);
    assert!(ok, "preprocess failed: {stderr}");

    let (stdout, _, ok) = run(bin, &["tree", art, "--source", "0", "--top", "2"]);
    assert!(ok);
    assert!(stdout.contains("eccentricity"), "{stdout}");

    let (stdout, _, ok) = run(bin, &["query", gr, "--from", "0", "--to", "100"]);
    assert!(ok);
    assert!(stdout.contains("distance 0 -> 100:"), "{stdout}");

    // The RPHAST many-to-many table: one row per source, tab-separated,
    // first column the source id, and the s==t diagonal cell is 0.
    let (stdout, stderr, ok) = run(
        bin,
        &["matrix", art, "--sources", "0,7,19", "--targets", "19,3", "--k", "4"],
    );
    assert!(ok, "matrix failed: {stderr}");
    assert!(stderr.contains("selection of"), "{stderr}");
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 3, "{stdout}");
    assert!(rows[0].starts_with("0\t"), "{stdout}");
    let last = rows[2].split('\t').collect::<Vec<_>>();
    assert_eq!(last[0], "19");
    assert_eq!(last[1], "0", "19 -> 19 must be 0: {stdout}");

    // Out-of-range ids are clean errors naming the flag.
    let (_, stderr, ok) = run(
        bin,
        &["matrix", art, "--sources", "0", "--targets", "999999"],
    );
    assert!(!ok);
    assert!(stderr.contains("--targets") && stderr.contains("out of range"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The artifact pipeline: `preprocess --out` writes the checksummed store
/// (with the hierarchy bundled), `tree` loads it, `serve --instance`
/// starts without recontracting, and `dump` shows what a `customize`
/// output holds. A corrupted store, a version-skewed one and a file that
/// is no artifact must each be a clean error, not a panic.
#[test]
fn cli_binary_store_pipeline() {
    let bin = env!("CARGO_BIN_EXE_phast_cli");
    let dir = std::env::temp_dir().join(format!("phast-cli-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gr = dir.join("g.gr");
    let gr = gr.to_str().unwrap();
    let art = dir.join("g.phast");
    let art_str = art.to_str().unwrap();

    let (_, stderr, ok) = run(
        bin,
        &["generate", "--vertices", "2000", "--seed", "7", "-o", gr],
    );
    assert!(ok, "generate failed: {stderr}");

    let (_, stderr, ok) = run(bin, &["preprocess", gr, "--out", art_str]);
    assert!(ok, "preprocess failed: {stderr}");
    let bytes = std::fs::read(&art).unwrap();
    assert_eq!(&bytes[..8], b"PHASTBIN", "binary store magic");

    let (stdout, stderr, ok) = run(bin, &["tree", art_str, "--source", "0", "--top", "2"]);
    assert!(ok, "tree on binary store failed: {stderr}");
    assert!(stdout.contains("eccentricity"), "{stdout}");

    let (_, stderr, ok) = run(
        bin,
        &[
            "serve", "--instance", art_str, "--addr", "127.0.0.1:0",
            "--duration-ms", "200",
        ],
    );
    assert!(ok, "serve --instance failed: {stderr}");
    assert!(
        stderr.contains("hierarchy bundled"),
        "serve should reuse the stored hierarchy: {stderr}"
    );
    assert!(stderr.contains("listening on"), "{stderr}");

    // `dump` on a customized artifact: every section row from the
    // decoder's own walk (the down arcs on a cache line, CRC ok), the
    // instance's counts, the bundled hierarchy and the METRIC section.
    let custom = dir.join("rush.phast");
    let custom = custom.to_str().unwrap();
    let (_, stderr, ok) = run(
        bin,
        &["customize", gr, "--perturb", "42", "--name", "rush", "--version", "2", "--out", custom],
    );
    assert!(ok, "customize failed: {stderr}");
    let (stdout, stderr, ok) = run(bin, &["dump", custom]);
    assert!(ok, "dump failed: {stderr}");
    assert!(stdout.contains("PHASTBIN version 3"), "{stdout}");
    // Which CRC-32 kernel the load ran, by the store's own detection.
    let kernel = phast_store::crc::kernel();
    assert!(["pclmulqdq", "table"].contains(&kernel), "{kernel}");
    assert!(
        stdout.contains(&format!("\ncrc32        : {kernel}\n")),
        "{stdout}"
    );
    let down_arcs = stdout
        .lines()
        .find(|l| l.starts_with("0x08 down arcs"))
        .unwrap_or_else(|| panic!("no down-arcs row: {stdout}"));
    assert_eq!(
        down_arcs.split_whitespace().rev().take(2).collect::<Vec<_>>(),
        ["ok", "0"],
        "down arcs must sit at offset % 64 == 0 with a good CRC: {down_arcs}"
    );
    assert!(!stdout.contains("BAD"), "{stdout}");
    let graph = std::fs::read_to_string(gr).unwrap();
    let problem: Vec<&str> = graph
        .lines()
        .find(|l| l.starts_with("p sp "))
        .expect("DIMACS problem line")
        .split_whitespace()
        .collect();
    let (n, m) = (problem[2], problem[3]);
    assert!(stdout.contains(&format!("vertices     : {n}\n")), "{stdout}");
    assert!(stdout.contains(&format!("{m} original\n")), "{stdout}");
    assert!(stdout.contains("hierarchy    : bundled"), "{stdout}");
    assert!(
        stdout.contains(&format!("metric       : `rush` v2, {m} weights")),
        "{stdout}"
    );

    // Flip one payload byte: load must fail with a checksum error, and
    // `dump` must still name the section that took the hit.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let bad = dir.join("bad.phast");
    std::fs::write(&bad, &corrupt).unwrap();
    let (_, stderr, ok) = run(bin, &["tree", bad.to_str().unwrap(), "--source", "0"]);
    assert!(!ok, "corrupt store must be rejected");
    assert!(!stderr.contains("panicked"), "panic on corrupt store: {stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    let (stdout, stderr, ok) = run(bin, &["dump", bad.to_str().unwrap()]);
    assert!(!ok, "dump of a corrupt store must fail");
    assert_eq!(stdout.matches("BAD").count(), 1, "{stdout}");
    assert!(stderr.contains("failed its CRC32 check"), "{stderr}");

    // A file that is no artifact — JSON, say — is the typed bad-magic
    // error through every consumer.
    let json = dir.join("g.json");
    let json = json.to_str().unwrap();
    std::fs::write(json, format!("{{\"up\": [{}]}}", "0,".repeat(40))).unwrap();
    for args in [vec!["tree", json, "--source", "0"], vec!["dump", json]] {
        let (_, stderr, ok) = run(bin, &args);
        assert!(!ok, "a non-store file must be rejected ({args:?})");
        assert!(stderr.contains("error:") && stderr.contains("not a .phast artifact"), "{stderr}");
    }

    // A file written by a newer build (version field bumped, everything
    // else intact) must surface the typed version-skew message through
    // both artifact consumers — never a panic or a Debug dump.
    let mut newer = bytes.clone();
    let future = u32::from_le_bytes(newer[8..12].try_into().unwrap()) + 1;
    newer[8..12].copy_from_slice(&future.to_le_bytes());
    let skew = dir.join("newer.phast");
    let skew_str = skew.to_str().unwrap();
    std::fs::write(&skew, &newer).unwrap();
    for args in [
        vec!["tree", skew_str, "--source", "0"],
        vec!["serve", "--instance", skew_str, "--addr", "127.0.0.1:0", "--duration-ms", "100"],
    ] {
        let (_, stderr, ok) = run(bin, &args);
        assert!(!ok, "version-skewed store must be rejected ({args:?})");
        assert!(!stderr.contains("panicked"), "panic on version skew: {stderr}");
        assert!(
            stderr.contains("unsupported format version") && stderr.contains("error:"),
            "expected the typed version-skew error, got: {stderr}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_missing_arguments() {
    let bin = env!("CARGO_BIN_EXE_phast_cli");
    let out = Command::new(bin)
        .args(["tree"])
        .output()
        .expect("binary should execute");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

/// Every bad-input path must print `error: ...` (with enough context to
/// act on) and exit non-zero — never panic. A panic would put
/// `RUST_BACKTRACE` chatter on stderr instead of a message.
#[test]
fn cli_error_paths_fail_cleanly() {
    let bin = env!("CARGO_BIN_EXE_phast_cli");
    let dir = std::env::temp_dir().join(format!("phast-cli-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.gr");
    std::fs::write(&garbage, "p sp 5 5\nthis is not a dimacs arc line\n").unwrap();
    let garbage = garbage.to_str().unwrap();
    let gr = dir.join("ok.gr");
    let gr = gr.to_str().unwrap();
    let (_, stderr, ok) = run(
        bin,
        &["generate", "--vertices", "500", "--seed", "5", "-o", gr],
    );
    assert!(ok, "generate failed: {stderr}");

    // (args, fragments the error message must contain)
    let cases: Vec<(Vec<&str>, Vec<&str>)> = vec![
        // missing file, path in the message
        (vec!["stats", "/nonexistent/x.gr"], vec!["error:", "/nonexistent/x.gr"]),
        // unreadable DIMACS content, path in the message
        (vec!["stats", garbage], vec!["error:", "cannot parse", garbage]),
        // unknown flag is rejected, not ignored
        (
            vec!["query", gr, "--from", "0", "--to", "1", "--paht"],
            vec!["error:", "--paht", "--path"],
        ),
        // non-numeric flag value names the flag
        (
            vec!["query", gr, "--from", "zero", "--to", "1"],
            vec!["error:", "--from", "zero"],
        ),
        // out-of-range vertex names the flag and the bound
        (
            vec!["query", gr, "--from", "0", "--to", "999999"],
            vec!["error:", "--to", "out of range"],
        ),
        // bad serve configuration
        (vec!["serve", gr, "--k", "0"], vec!["error:", "--k"]),
        // unknown subcommand prints usage
        (vec!["frobnicate"], vec!["usage:"]),
    ];
    for (args, fragments) in cases {
        let (_, stderr, ok) = run(bin, &args);
        assert!(!ok, "`{args:?}` should fail");
        assert!(
            !stderr.contains("panicked"),
            "`{args:?}` panicked: {stderr}"
        );
        for frag in fragments {
            assert!(
                stderr.contains(frag),
                "`{args:?}` stderr missing `{frag}`: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The perf-regression workflow end-to-end through the real binary:
/// `bench` emits a schema-versioned artifact covering all six engines
/// with full sample sets; a self-compare against that artifact passes;
/// and an injected slowdown (`PHAST_BENCH_SLOWDOWN`) flips the exit code
/// to failure, proving the CI gate can actually fire.
#[test]
fn cli_bench_artifact_baseline_and_injected_regression() {
    let bin = env!("CARGO_BIN_EXE_phast_cli");
    let dir = std::env::temp_dir().join(format!("phast-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("BENCH_base.json");
    let base_str = base.to_str().unwrap();
    let cur = dir.join("BENCH_cur.json");
    let cur_str = cur.to_str().unwrap();

    // 1. Emit the artifact and check the schema essentials.
    let (stdout, stderr, ok) = run(
        bin,
        &["bench", "--samples", "5", "--warmup", "1", "--k", "8", "--out", base_str],
    );
    assert!(ok, "bench failed: {stderr}");
    assert!(stdout.contains("dijkstra_scalar"), "{stdout}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&base).unwrap()).unwrap();
    assert_eq!(v["schema_version"], 1);
    assert_eq!(v["scale"], 2000);
    let benches = v["benchmarks"].as_array().unwrap();
    assert!(benches.len() >= 6, "only {} benchmarks", benches.len());
    let names: Vec<&str> = benches
        .iter()
        .map(|b| b["name"].as_str().unwrap())
        .collect();
    for expect in [
        "dijkstra_scalar",
        "phast_single_tree",
        "phast_k8_scalar",
        "phast_par_k8",
        "gphast_k8",
        "serve_batch_k8",
        "rphast_select_r100",
        "rphast_sweep_r10",
        "rphast_sweep_r100",
        "rphast_sweep_r1000",
    ] {
        assert!(names.contains(&expect), "missing `{expect}` in {names:?}");
    }
    // The RPHAST acceptance claim: at |T| <= n/100 the restricted sweep
    // beats the full single-tree sweep (that is the point of building a
    // selection at all). Medians at this scale separate by a wide margin,
    // so this is not a flaky timing assertion.
    let median = |name: &str| {
        benches
            .iter()
            .find(|b| b["name"] == name)
            .unwrap_or_else(|| panic!("missing {name}"))["stats"]["median_ns"]
            .as_i64()
            .unwrap()
    };
    assert!(
        median("rphast_sweep_r100") < median("phast_single_tree"),
        "restricted sweep at |T|=n/100 ({}) not faster than full sweep ({})",
        median("rphast_sweep_r100"),
        median("phast_single_tree"),
    );
    assert!(
        median("rphast_sweep_r1000") < median("phast_single_tree"),
        "restricted sweep at |T|=n/1000 not faster than full sweep"
    );
    for b in benches {
        assert!(
            b["samples_ns"].as_array().unwrap().len() >= 5,
            "too few samples for {}",
            b["name"]
        );
        assert!(b["stats"]["median_ns"].as_i64().unwrap() > 0);
    }
    assert!(v["host"]["cores"].as_i64().unwrap() >= 1);
    assert!(!v["obs"]["metrics"].is_null(), "missing merged obs report");

    // 2. A fresh run compared against that baseline passes (generous
    //    threshold: the point is the plumbing, not the machine's jitter).
    let (stdout, stderr, ok) = run(
        bin,
        &[
            "bench", "--samples", "5", "--warmup", "1", "--k", "8", "--out", cur_str,
            "--baseline", base_str, "--threshold-pct", "400", "--mad-k", "40",
        ],
    );
    assert!(ok, "self-compare regressed: {stderr}\n{stdout}");
    assert!(stderr.contains("no regressions"), "{stderr}");

    // 3. The same compare with an injected 20x slowdown must fail and
    //    name the slowed benchmark.
    let (stdout, stderr, ok) = run_env(
        bin,
        &[
            "bench", "--samples", "5", "--warmup", "1", "--k", "8", "--out", cur_str,
            "--baseline", base_str, "--threshold-pct", "400", "--mad-k", "40",
        ],
        &[("PHAST_BENCH_SLOWDOWN", "phast_single_tree:20")],
    );
    assert!(!ok, "injected regression escaped the gate: {stdout}");
    assert!(
        stderr.contains("phast_single_tree") && stderr.contains("regress"),
        "{stderr}"
    );

    // 4. The gate also fires on a restricted benchmark: an injected
    //    slowdown on `rphast_sweep_r100` must fail the compare and name it.
    let (stdout, stderr, ok) = run_env(
        bin,
        &[
            "bench", "--samples", "5", "--warmup", "1", "--k", "8", "--out", cur_str,
            "--baseline", base_str, "--threshold-pct", "400", "--mad-k", "40",
        ],
        &[("PHAST_BENCH_SLOWDOWN", "rphast_sweep_r100:20")],
    );
    assert!(!ok, "injected restricted regression escaped the gate: {stdout}");
    assert!(
        stderr.contains("rphast_sweep_r100") && stderr.contains("regress"),
        "{stderr}"
    );

    // 5. A malformed knob fails fast instead of silently measuring nothing.
    let (_, stderr, ok) = run_env(
        bin,
        &["bench", "--samples", "5", "--warmup", "1", "--k", "8", "--out", cur_str],
        &[("PHAST_BENCH_SLOWDOWN", "nonsense")],
    );
    assert!(!ok);
    assert!(stderr.contains("PHAST_BENCH_SLOWDOWN"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A `loadgen` run with `--json`: the stderr, the report's metrics, and
/// whether it passed.
fn loadgen_json(args: &[&str]) -> (String, serde_json::Value, bool) {
    let (stdout, stderr, ok) = run(env!("CARGO_BIN_EXE_loadgen"), args);
    let line = stdout.lines().last().unwrap_or_default();
    let v: serde_json::Value = serde_json::from_str(line)
        .unwrap_or_else(|e| panic!("no JSON report ({e}): {stdout}\n{stderr}"));
    (stderr, v["metrics"].clone(), ok)
}

/// `loadgen --scenario batching` is the acceptance check that batching
/// engages under concurrent load: it self-hosts a loopback server, drives
/// it with closed-loop clients whose every reply is checked against
/// Dijkstra, and fails unless some batch served >= 2 requests.
#[test]
fn loadgen_smoke_batches_under_concurrency() {
    let (stderr, m, ok) = loadgen_json(&[
        "--scenario", "batching", "--vertices", "800", "--clients", "8", "--k", "8",
        "--duration-ms", "700", "--smoke", "--json",
    ]);
    assert!(ok, "loadgen batching failed: {stderr}");
    assert!(m["multi_batches"].as_i64().unwrap() >= 1, "{m:?}");
    assert!(m["requests_ok"].as_i64().unwrap() >= 1, "{m:?}");
    assert_eq!(m["replies_diverged"], 0, "{m:?}");
    assert!(stderr.contains("batching ok"), "{stderr}");
}

/// `loadgen --scenario panic` is the supervision soak: a poisoned request
/// is fired mid-run at a live, concurrently-loaded service. The run fails
/// unless the worker restart registered, the poisoned request came back as
/// a typed `internal` error, and every other answer stayed exact.
#[test]
fn loadgen_inject_panic_soak() {
    let (stderr, m, ok) = loadgen_json(&[
        "--scenario", "panic", "--vertices", "800", "--clients", "4", "--k", "8",
        "--duration-ms", "700", "--json",
    ]);
    assert!(ok, "loadgen panic soak failed: {stderr}");
    assert!(stderr.contains("panic ok"), "{stderr}");
    assert!(m["worker_restarts"].as_i64().unwrap() >= 1, "{m:?}");
    assert!(m["quarantined_requests"].as_i64().unwrap() >= 1, "{m:?}");
    assert_eq!(m["poisoned_replies_internal"], 1, "{m:?}");
    assert_eq!(m["replies_diverged"], 0, "{m:?}");
}

/// Bad `loadgen` input is an `error:` line and a non-zero exit, never a
/// panic: an unknown scenario lists the valid names, and the flags the
/// scenarios replaced are unknown flags.
#[test]
fn loadgen_rejects_unknown_scenarios_and_retired_flags() {
    let bin = env!("CARGO_BIN_EXE_loadgen");
    let (_, stderr, ok) = run(bin, &["--scenario", "nope"]);
    assert!(!ok, "an unknown scenario must fail");
    assert!(stderr.contains("error:") && stderr.contains("`nope`"), "{stderr}");
    for name in ["batching", "compare", "panic", "chaos", "poison-metric", "kill-backend"] {
        assert!(stderr.contains(name), "`{name}` missing from: {stderr}");
    }
    for retired in ["--chaos", "--compare", "--inject-panic", "--addr"] {
        let (_, stderr, ok) = run(bin, &[retired]);
        assert!(!ok, "{retired} must be rejected");
        assert!(!stderr.contains("panicked"), "{retired} panicked: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown flag `{retired}`")),
            "{stderr}"
        );
    }
}
