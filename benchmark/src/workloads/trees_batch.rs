//! `trees_batch`: the paper's numbers, in process. Half of each window
//! sweeps single trees on one thread (Table I), the other half sweeps
//! k = 16 trees at once on every core with the best SIMD kernel (Table V).
//! `core` does all the work; no queue, no wire, no store, no customizer.
//!
//! The all-core phase is built like `par_multi_trees` — one
//! `MultiTreeEngine` per thread, 16 sources per run — but with the clock
//! around `run` alone, so that checking all 16 trees against the oracle
//! stays outside the timed region.

use super::{counts, floats, plan, Measured, Params, Workload, WINDOWS};
use crate::instance::Instance;
use crate::oracle::Rng;
use crate::stats::{median, percentile_of};
use crate::trace::{span_id, Tracer, ROOT};
use phast_graph::Vertex;
use serde::Value;
use std::time::{Duration, Instant};

/// Trees per batched sweep.
pub const K: usize = 16;

/// The workload's state: just the instance.
pub struct TreesBatch {
    inst: Instance,
    threads: usize,
}

/// One phase's raw results.
#[derive(Default)]
struct Phase {
    run_ms: Vec<f64>,
    trees: u64,
    failed: u64,
}

impl TreesBatch {
    /// Single trees on this thread for `len`; every tree verified.
    fn single(
        &self,
        cursor: &mut usize,
        len: Duration,
        mut tracer: Option<&mut Tracer>,
        request: &mut u64,
    ) -> Phase {
        let (phast, oracle) = (&self.inst.phast, &self.inst.oracle);
        let n = phast.num_vertices() as Vertex;
        let mut engine = phast.engine();
        let mut out = Phase::default();
        let until = Instant::now() + len;
        while Instant::now() < until {
            let si = *cursor % oracle.sources.len();
            *cursor += 1;
            let start = Instant::now();
            engine.distances_sweep(oracle.sources[si]);
            let swept = Instant::now();
            let ok = oracle.tree_ok(si, (0..n).map(|v| engine.dist_of(v)));
            let end = Instant::now();
            let took = swept - start;
            out.run_ms.push(took.as_secs_f64() * 1e3);
            out.trees += 1;
            out.failed += u64::from(!ok);
            if let Some(t) = tracer.as_deref_mut() {
                let (r, root) = (*request, span_id(*request, 1));
                t.record(root, ROOT, r, "tree", start, end);
                t.record(span_id(r, 2), root, r, "core.distances_sweep", start, swept);
                t.record(span_id(r, 3), root, r, "oracle.verify", swept, end);
                *request += 1;
            }
        }
        out
    }

    /// k = 16 sweeps on every core for `len`; every lane verified. Also
    /// returns the all-core rate in trees/s: the sum over threads of 16
    /// trees per median run time (the median, so that a burst of
    /// interference from outside the process does not set the rate).
    fn batch(
        &self,
        cursor: &mut usize,
        len: Duration,
        tracer: Option<&mut Tracer>,
        request: &mut u64,
    ) -> (Phase, f64) {
        let (phast, oracle) = (&self.inst.phast, &self.inst.oracle);
        let n = phast.num_vertices() as Vertex;
        let pool = oracle.sources.len();
        let until = Instant::now() + len;
        let first = *cursor;
        *cursor += K * self.threads;
        let first_request = *request;
        let forks: Vec<Option<Tracer>> = (0..self.threads)
            .map(|_| tracer.as_deref().map(Tracer::fork))
            .collect();
        let parts: Vec<(Phase, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = forks
                .into_iter()
                .enumerate()
                .map(|(thread, mut fork)| {
                    let threads = self.threads;
                    scope.spawn(move || {
                        let mut engine = phast.multi_engine(K);
                        let mut out = Phase::default();
                        let mut round = 0usize;
                        while Instant::now() < until {
                            let base = first + (round * threads + thread) * K;
                            let lanes: Vec<usize> = (0..K).map(|i| (base + i) % pool).collect();
                            let sources: Vec<Vertex> =
                                lanes.iter().map(|&si| oracle.sources[si]).collect();
                            let start = Instant::now();
                            engine.run(&sources);
                            let swept = Instant::now();
                            for (lane, &si) in lanes.iter().enumerate() {
                                let ok =
                                    oracle.tree_ok(si, (0..n).map(|v| engine.dist_of(lane, v)));
                                out.failed += u64::from(!ok);
                            }
                            let end = Instant::now();
                            let took = swept - start;
                            out.run_ms.push(took.as_secs_f64() * 1e3);
                            out.trees += K as u64;
                            if let Some(t) = fork.as_mut() {
                                let r = first_request + (round * threads + thread) as u64;
                                let root = span_id(r, 1);
                                t.record(root, ROOT, r, "batch", start, end);
                                t.record(span_id(r, 2), root, r, "core.multi_run", start, swept);
                                t.record(span_id(r, 3), root, r, "oracle.verify", swept, end);
                            }
                            round += 1;
                        }
                        (out, fork, round)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep thread panicked"))
                .map(|(phase, fork, round)| {
                    *request = (*request).max(first_request + (round * self.threads) as u64);
                    (phase, fork)
                })
                .collect()
        });
        let mut out = Phase::default();
        let mut rate = 0.0;
        let mut tracer = tracer;
        for (part, fork) in parts {
            if !part.run_ms.is_empty() {
                rate += K as f64 * 1e3 / percentile_of(&mut part.run_ms.clone(), 0.50);
            }
            out.run_ms.extend(part.run_ms);
            out.trees += part.trees;
            out.failed += part.failed;
            if let (Some(t), Some(f)) = (tracer.as_deref_mut(), fork) {
                t.absorb(f);
            }
        }
        (out, rate)
    }
}

impl Workload for TreesBatch {
    fn setup(p: &Params) -> Result<Self, String> {
        let threads = crate::host::nproc();
        let inst = Instance::build(p.kind.vertices(p.smoke), p.seed, threads)?;
        Ok(TreesBatch { inst, threads })
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }

    fn measure(
        &mut self,
        p: &Params,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Measured, String> {
        let (warm, windows) = plan(seconds);
        let half = windows.len / 2;
        let mut cursor = Rng::new(p.seed, 3).below(self.inst.oracle.sources.len());
        let mut request = 0u64;
        self.single(&mut cursor, warm / 2, None, &mut request);
        self.batch(&mut cursor, warm / 2, None, &mut request);
        let (mut p50s, mut p95s, mut rates, mut batch_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut singles, mut batches) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0u64, 0u64);
        for _ in 0..WINDOWS {
            let mut one = self.single(&mut cursor, half, tracer.as_deref_mut(), &mut request);
            let (mut many, rate) =
                self.batch(&mut cursor, half, tracer.as_deref_mut(), &mut request);
            if one.run_ms.is_empty() || many.run_ms.is_empty() {
                return Err("a window is too short for one sweep".into());
            }
            attempted += one.trees + many.trees;
            failed += one.failed + many.failed;
            singles.push(one.run_ms.len());
            batches.push(many.run_ms.len());
            p50s.push(percentile_of(&mut one.run_ms, 0.50));
            p95s.push(percentile_of(&mut one.run_ms, 0.95));
            rates.push(rate);
            batch_ms.push(percentile_of(&mut many.run_ms, 0.50) / K as f64);
        }
        let detail = Value::Object(vec![
            ("window_s".into(), Value::Float(windows.len.as_secs_f64())),
            ("threads".into(), Value::Int(self.threads as i64)),
            ("single_sweeps_per_window".into(), counts(singles)),
            ("k16_runs_per_window".into(), counts(batches)),
            ("single_tree_p50_ms".into(), floats(&p50s)),
            ("single_tree_p95_ms".into(), floats(&p95s)),
            ("k16_trees_per_s".into(), floats(&rates)),
            ("k16_ms_per_tree_per_core".into(), floats(&batch_ms)),
        ]);
        Ok(Measured {
            attempted,
            failed,
            p50_ms: p50s,
            p95_ms: p95s,
            throughput: rates,
            preprocess_s: Vec::new(),
            load_ms: Vec::new(),
            counts: vec![("core.batch_tree_ms".into(), median(&mut batch_ms))],
            detail,
        })
    }

    fn teardown(self) {}
}
