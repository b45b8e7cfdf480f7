#!/usr/bin/env bash
# Offline CI gate: everything runs against the vendored stand-in crates
# (see vendor/README.md) — no network, no registry.
#
#   tools/ci.sh               # build + tests + clippy
#   tools/ci.sh quick         # skip the release build (debug tests + clippy)
#   tools/ci.sh GATE          # only that gate (also spelled --GATE):
#     bench-smoke      the perf-regression smoke gate
#     matrix-smoke     the RPHAST matrix gate (release)
#     rollout-smoke    the metric customization + guarded rollout gate
#     router-chaos     the replicated-tier kill-a-backend gate
#     edge-smoke       the TCP edge gate: one front, both tiers, chaos
#     store-smoke      the artifact store gate (release)
#     contract-smoke   the parallel-contraction gate
#     wire-smoke       the reply codec: battery, unit tests, benchmark smoke
#     kernel-smoke     the sweep-kernel gate (release)
#     asan             the AddressSanitizer gate (nightly)
#   tools/ci.sh help          # this header
#
# Mirrors the checks the repo treats as tier-1: a release build, the full
# test suite and a warning-free clippy pass over all targets. There is one
# build — the observability counters are always on — so each of those
# runs once, as does every other flow: every `loadgen --scenario` in
# exactly one place (batching and panic in the main run, chaos in
# edge-smoke, poison-metric in rollout-smoke, kill-backend in
# router-chaos), three `phast_cli bench` suite runs (all in bench-smoke),
# and no release test target twice except where a gate reruns a module by
# name so that the filter must match.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

step() { printf '\n== %s ==\n' "$*"; }

# `cargo test` with a test-name filter, which alone passes silently when
# the filter matches nothing (a renamed module, a moved test): fails unless
# at least one test ran and passed.
filtered_tests() {
    local out
    if ! out="$(cargo test "$@" 2>&1)"; then
        printf '%s\n' "$out" >&2
        exit 1
    fi
    printf '%s\n' "$out"
    if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
        echo "error: no test matched: cargo test $*" >&2
        exit 1
    fi
}

# The perf-regression smoke: a reduced-size suite run of `phast_cli
# bench` must emit a valid BENCH artifact, a live re-run compared against
# it must pass (generous threshold — the gate tests the plumbing, not
# this machine's jitter), and an injected 10x slowdown against the same
# baseline must flip the exit code. If the injected regression escapes,
# the perf gate is decorative and CI fails loudly. The artifact must also
# carry both contraction entries (DESIGN.md §17), keeping the
# parallel-vs-sequential trend on the perf trajectory.
bench_smoke() {
    step "perf-regression smoke (phast_cli bench)"
    local dir name
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    PHAST_SCALE=2000 cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        bench --samples 5 --warmup 1 --k 8 --out "$dir/BENCH_base.json"
    for name in contract_10e5 contract_par_10e5; do
        if ! grep -q "\"$name\"" "$dir/BENCH_base.json"; then
            echo "error: bench artifact is missing the $name entry" >&2
            exit 1
        fi
    done
    step "bench self-compare must pass"
    PHAST_SCALE=2000 cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        bench --samples 5 --warmup 1 --k 8 --out "$dir/BENCH_cur.json" \
        --baseline "$dir/BENCH_base.json" --threshold-pct 400 --mad-k 40
    step "bench injected regression must fail"
    if PHAST_SCALE=2000 PHAST_BENCH_SLOWDOWN='phast_single_tree:10' \
        cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        bench --samples 5 --warmup 1 --k 8 --out "$dir/BENCH_slow.json" \
        --baseline "$dir/BENCH_base.json" --threshold-pct 400 --mad-k 40 \
        >/dev/null 2>&1; then
        echo "error: injected slowdown escaped the perf gate" >&2
        exit 1
    fi
    echo "bench smoke ok"
}

# The RPHAST matrix gate, in release mode: the serve `matrix` protocol
# differential tests (typed malformed/over-cap replies, deadline expiry,
# matrix rows vs per-source trees on one socket) plus the restricted-sweep
# differential battery (RPHAST == full sweep == Dijkstra proptests and the
# in-crate selection/engine proptests).
matrix_smoke() {
    step "RPHAST matrix gate (serve differential + restricted proptests, release)"
    cargo test -q --release --test serve_matrix --test rphast_battery
    filtered_tests -q --release -p phast-core --lib rphast::
    echo "matrix smoke ok"
}

# The metric rollout gate (DESIGN.md §14, §16): in release, the exactness
# battery (customized == recontracted == Dijkstra on >= 3 perturbed
# metrics), the live hot-swap differentials and the canary/guard/rollback
# tests; then the CLI flow once — customize a perturbed metric into a
# servable artifact, serve the base graph with --watch-metric and require
# the watcher to publish the dropped-in weights, then the same serve with
# PHAST_CANARY_FAULT armed, which must canary-reject them (publishing is a
# CI failure) — and the poison-metric scenario: a poisoned drop between two
# honest ones behind the live TCP server, every reply checked against its
# epoch's Dijkstra reference.
rollout_smoke() {
    step "metric rollout gate (battery, hot-swap, canary/guard, release)"
    cargo test -q --release --test metric_battery --test serve_metric_swap
    cargo test -q --release -p phast-serve -p phast-metrics
    step "cli customize -> serve --watch-metric, honest and with the fault armed"
    local dir out
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        generate --vertices 2000 --metric time --seed 7 -o "$dir/net.gr"
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        customize "$dir/net.gr" --perturb 42 --name rush --version 2 \
        --out "$dir/rush.phast" --emit-metric "$dir/rush.json"
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        tree "$dir/rush.phast" --source 0 --top 3 >/dev/null
    watch_serve() {
        cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
            serve "$dir/net.gr" --addr 127.0.0.1:0 --duration-ms 2500 \
            --watch-metric "$dir/rush.json" --watch-interval-ms 100 2>&1
    }
    out="$(watch_serve)"
    if ! grep -q 'metric watcher: published `rush` v2' <<<"$out"; then
        echo "error: --watch-metric never published the dropped-in metric" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    out="$(PHAST_CANARY_FAULT=rush watch_serve)"
    if grep -q 'metric watcher: published `rush`' <<<"$out" \
        || ! grep -q 'metric watcher: canary rejected `rush` v2' <<<"$out"; then
        echo "error: the armed fault was not canary-rejected (or was published)" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    step "poison-metric scenario (live TCP, epoch-checked replies)"
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin loadgen -- \
        --scenario poison-metric --vertices 1200 --smoke
    echo "rollout smoke ok"
}

# The replicated-tier chaos gate (DESIGN.md §15): the kill-backend
# scenario — two real `phast_cli serve` replicas behind the `phast-router`
# failover front, driven by clients that check every reply against
# Dijkstra while one replica is SIGKILLed and later restarted on its old
# port. Fails unless every reply stayed exact, the kill forced at least one
# failover and an ejection, and the restart rejoined rotation through the
# half-open door. The router's own tests run in edge-smoke.
router_chaos() {
    step "replicated-tier kill-backend scenario"
    # The replicas run the `phast_cli` beside `loadgen`; `cargo run` skips it.
    cargo build -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin loadgen -- \
        --scenario kill-backend --vertices 1200 --smoke
    echo "router chaos ok"
}

# The TCP edge gate (DESIGN.md §11): the one hardened front and the one
# outbound line connection, in release. The umbrella robustness battery
# drives every edge case (cap, timeout, oversize, malformed, forced close,
# freed port, empty lines, relayed ids) through a `Server` and through a
# `Router` in front of one; the router's own tests cover failover over
# pooled `LineConn`s and the dropped-router leak; phast-serve's `conn::`
# unit tests cover `LineConn` (one write, poisoning, buffer reuse) and the
# front behind a fake service. Then the chaos scenario: slowloris writers,
# mid-request disconnects, garbage floods, oversized lines, burst storms
# and live metric swaps against a server, beside clients that check every
# reply against the Dijkstra reference of its epoch; fails unless every
# reply stayed exact, each abuse registered in its hardening counter and
# live connections stayed under --max-conns.
edge_smoke() {
    step "TCP edge gate (both fronts + router + conn unit tests, release)"
    cargo test -q --release --test serve_robustness
    cargo test -q --release -p phast-router
    filtered_tests -q --release -p phast-serve --lib conn::
    step "chaos scenario (hostile actors + metric swaps, epoch-checked replies)"
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin loadgen -- \
        --scenario chaos --vertices 1200 --smoke
    echo "edge smoke ok"
}

# The artifact store gate (DESIGN.md §10), in release: the crate's three
# test targets — the mapping's unit tests, the fault-injection battery
# (every bit flip, every truncation, framing faults under valid CRCs,
# racing writers) and the source parity battery (mapped, heap and
# misaligned bytes through the one decoder) — one per run, so that each
# must match, and the CRC-32 module's own tests once more by name (the
# fold kernel pinned to the byte table). Then the CLI flow: a preprocessed
# artifact must load zero-copy and answer, `dump` must show the down arcs
# (section 0x08) on a cache-line boundary with a good CRC, the artifact's
# whole-file CRC must equal the one gzip computes over the same bytes,
# and an artifact whose version field says 2 or 255 must die with the
# typed error, not a panic.
store_smoke() {
    step "artifact store gate (unit + fault injection + source parity, release)"
    local target
    for target in --lib "--test fault_injection" "--test mmap_parity"; do
        # shellcheck disable=SC2086
        filtered_tests -q --release -p phast-store $target
    done
    step "CRC-32 kernels: dispatched == byte table, combine, fold constants (release)"
    filtered_tests -q --release -p phast-store --lib crc::
    step "cli preprocess -> zero-copy tree load -> dump"
    local dir out version
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' RETURN
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        generate --vertices 2000 --metric time --seed 7 -o "$dir/net.gr"
    cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        preprocess "$dir/net.gr" --out "$dir/inst.phast"
    out="$(cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        tree "$dir/inst.phast" --source 0 --top 3 2>&1)"
    if ! grep -q 'zero-copy (mmap)' <<<"$out"; then
        echo "error: a fresh artifact did not take the zero-copy path" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    out="$(cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
        dump "$dir/inst.phast")"
    if ! grep -Eq '^0x08 down arcs .* 0 +ok$' <<<"$out"; then
        echo "error: dump does not show the down arcs at offset % 64 == 0, CRC ok" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    step "whole-file CRC == gzip's trailer CRC (an outside CRC-32)"
    # gzip's 8-byte trailer starts with the CRC-32 (IEEE) of its input,
    # little-endian like the artifact's last four bytes.
    trailer_crc() { gzip -c | tail -c 8 | head -c 4 | od -An -tx1; }
    if [[ "$(printf 123456789 | trailer_crc)" != "$(printf '\x26\x39\xf4\xcb' | od -An -tx1)" ]]; then
        echo "error: gzip does not compute the IEEE CRC-32 here" >&2
        exit 1
    fi
    local want got
    want="$(head -c -4 "$dir/inst.phast" | trailer_crc)"
    got="$(tail -c 4 "$dir/inst.phast" | od -An -tx1)"
    if [[ "$want" != "$got" ]]; then
        echo "error: the artifact's file CRC is$got, gzip computes$want" >&2
        exit 1
    fi
    step "version-skewed artifacts must fail typed"
    for version in '\x02' '\xff'; do
        cp "$dir/inst.phast" "$dir/skew.phast"
        # shellcheck disable=SC2059
        printf "$version" | dd of="$dir/skew.phast" bs=1 seek=8 count=1 \
            conv=notrunc status=none
        if out="$(cargo run -q ${PROFILE_FLAG} -p phast-bench --bin phast_cli -- \
            tree "$dir/skew.phast" --source 0 2>&1)"; then
            echo "error: a version-skewed artifact was accepted" >&2
            exit 1
        fi
        if ! grep -q 'unsupported format version' <<<"$out" \
            || grep -q 'panicked' <<<"$out"; then
            echo "error: version skew must be a typed error, got: $out" >&2
            exit 1
        fi
    done
    echo "store smoke ok"
}

# The parallel-contraction gate (DESIGN.md §17): the differential battery
# (parallel == sequential == Dijkstra, bit-identical hierarchies across
# thread counts) in release at two *ambient* thread counts — PHAST_THREADS
# reaches the contractor through the `threads: 0` resolution path, so this
# also proves the env knob is live. (bench-smoke checks that both
# contraction entries land in the BENCH artifact.)
contract_smoke() {
    step "parallel contraction gate (differential battery, release)"
    PHAST_THREADS=1 cargo test -q --release --test contract_battery
    PHAST_THREADS=4 cargo test -q --release --test contract_battery
    echo "contract smoke ok"
}

# The reply-codec gate (DESIGN.md §9): the streaming encoder and the
# single-pass scanner against the test-only `Value` oracle, in release
# (byte-identical lines; same verdict on every truncation, byte flip and
# spelling; packed `tree` labels in every padding class), the codec's own
# unit tests by name, and the router's proof that its validate-only pass
# still reads the whole line (a ~500 KB reply with a corrupt tail is a
# transport fault, answered once by the healthy replica). Then the
# benchmark package, which times this codec end to end: its own tests
# (BENCHMARK.json and the program in step) and its smoke suite — every
# workload once at n = 5 000 with every answer verified, ~1 min.
wire_smoke() {
    step "reply codec gate (differential battery + corrupt-tail failover, release)"
    cargo test -q --release --test wire_codec
    filtered_tests -q --release -p phast-serve --lib protocol::
    filtered_tests -q --release -p phast-router --test failover corrupt_tail
    step "benchmark package: tests + smoke suite"
    # `--locked`: a dependency edge that would rewrite benchmark/Cargo.lock
    # fails here instead of silently on the next benchmark run.
    cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
    cargo run -q --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
        suite --smoke --repeat 1 --out benchmark/out/smoke.json
    echo "wire smoke ok"
}

# The sweep-kernel gate (DESIGN.md §4): the kernels against the scalar
# reference at every width and level the CPU has — the raw-kernel tests in
# `phast-core` (clamp, stale rows, sub-ranges, parents at k = 1), the
# tests of the one engine and of its faces beside them (`multi_tree`,
# `rphast`, `parallel` for the level-block loop, `sweep` and `tree` for the
# k = 1 faces), the tests of the order the rows come in (`lib.rs`'s own
# `tests` module: the filter `tests::` matches every module's tests, the
# skip leaves the ones whose path starts with it), and the public-API
# battery — in release, because the optimised instantiations are what
# ships and debug builds keep the accumulators on the stack. One module
# per run, so that each filter must match.
kernel_smoke() {
    step "sweep kernel gate (raw kernels + engine + battery, release)"
    local module
    cargo test -q --release --test kernel_battery
    for module in simd multi_tree rphast parallel sweep tree; do
        filtered_tests -q --release -p phast-core --lib "$module::"
    done
    filtered_tests -q --release -p phast-core --lib tests:: -- --skip ::tests::
    echo "kernel smoke ok"
}

# The AddressSanitizer gate (ROADMAP item 8): the crates that hold the
# `unsafe` — the store's mmap borrows and codec (every `phast-store` test
# target), the sweep kernels (`phast-core`'s lib tests) and the kernel
# battery over the adversarial corpus — built with the installed nightly
# and `-Zsanitizer=address`. The explicit `--target` keeps the sanitizer
# flags off build scripts and proc macros; the gate has its own target
# dir, so it never invalidates the stable builds.
asan() {
    step "AddressSanitizer gate (phast-store, phast-core lib, kernel battery; nightly)"
    local target
    for target in "-p phast-store" "-p phast-core --lib" "--test kernel_battery"; do
        # shellcheck disable=SC2086
        RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
            cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu $target
    done
    echo "asan ok"
}

# The gates that also run alone, in the order the full run takes them.
GATES=(bench-smoke matrix-smoke rollout-smoke router-chaos edge-smoke
    store-smoke contract-smoke wire-smoke kernel-smoke asan)

PROFILE_FLAG=""
case "${1:-}" in
    "" | quick) ;;
    help | --help | -h)
        sed -n '2,/^$/s/^# \{0,1\}//p' "$0"
        exit 0
        ;;
    *)
        gate="${1#--}"
        if [[ " ${GATES[*]} " != *" $gate "* ]]; then
            echo "error: unknown gate '$1' (one of: quick ${GATES[*]})" >&2
            exit 2
        fi
        "${gate//-/_}"
        step "ci green ($gate only)"
        exit 0
        ;;
esac
if [[ "${1:-}" != "quick" ]]; then
    step "release build"
    cargo build --release --workspace --locked
    PROFILE_FLAG="--release"
fi

step "tests"
cargo test -q --workspace

# A ~2 s loopback run of the batching scenario: 16 closed-loop clients
# against the batching scheduler, every reply checked against Dijkstra;
# fails unless at least one sweep served >= 2 requests (mean batch
# occupancy > 1), i.e. batching actually engages.
step "batching scenario"
cargo run -q ${PROFILE_FLAG} -p phast-bench --bin loadgen -- \
    --scenario batching --vertices 1200 --clients 16 --k 16 --smoke

# The supervision soak: a poisoned request panics a worker mid-run under
# concurrent load; the run fails unless the worker restart registered,
# the poisoned request came back as a typed error, and every other reply
# stayed exact.
step "panic scenario (supervision soak)"
cargo run -q ${PROFILE_FLAG} -p phast-bench --bin loadgen -- \
    --scenario panic --vertices 1200 --clients 8 --k 8 --duration-ms 1500

for gate in "${GATES[@]}"; do
    "${gate//-/_}"
done

step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "ci green"
