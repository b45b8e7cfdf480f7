//! `rebuild`: the operator path beside live reads. Each window rebuilds
//! the instance once (`contract_graph` → `build_with_hierarchy` →
//! `write_instance` → `load_instance_mmap` → first verified tree) and then
//! rolls out perturbed metrics until the window ends: write a
//! `MetricWeights` JSON → `poll_metric_file` (customize + canary +
//! publish) → first verified reply stamped with the new epoch. One
//! closed-loop `p2p` connection reads throughout, and every one of its
//! replies is checked against the oracle of the epoch it is stamped with.
//! `ch`, `metrics` and `store` do the work here; `core` sweeps almost none.

use super::{counts, floats, summarize, Measured, Params, Workload, WINDOWS};
use crate::instance::{load_verified, preprocess, scratch_path, Instance, SetupTimes};
use crate::loadgen::{Issuer, Req, Sample};
use crate::oracle::{Oracle, Rng};
use crate::stats::{median_of_windows, percentile_of, Windows};
use crate::trace::{span_id, Tracer, ROOT};
use phast_graph::Graph;
use phast_metrics::{MetricCustomizer, MetricWeights};
use phast_serve::{
    poll_metric_file, Client, ServeConfig, Server, Service, WatchConfig, WatchReport, WatchState,
};
use serde::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool sources the per-metric oracles cover (a prefix of the pool).
pub const METRIC_SOURCES: usize = 16;
/// Pool targets the per-metric oracles cover (a prefix of the pool).
pub const METRIC_TARGETS: usize = 64;

/// `graph` with `metric`'s weights in canonical arc order: what the
/// reference Dijkstra of that metric runs on.
pub fn reweighted(graph: &Graph, metric: &MetricWeights) -> Graph {
    let forward = graph.forward();
    let arcs = forward
        .arcs()
        .iter()
        .zip(&metric.weights)
        .map(|(a, &w)| phast_graph::Arc::new(a.head, w))
        .collect();
    Graph::from_csr(phast_graph::Csr::from_raw(forward.first().to_vec(), arcs))
}

/// The oracle of one metric over the pool prefixes.
pub fn metric_oracle(graph: &Graph, base: &Oracle, metric: Option<&MetricWeights>) -> Oracle {
    let sources = base.sources[..METRIC_SOURCES.min(base.sources.len())].to_vec();
    let targets = base.targets[..METRIC_TARGETS.min(base.targets.len())].to_vec();
    let threads = crate::host::nproc();
    match metric {
        Some(m) => Oracle::build(reweighted(graph, m).forward(), sources, targets, threads).0,
        None => Oracle::build(graph.forward(), sources, targets, threads).0,
    }
}

/// Writes `metric` where the watcher looks, atomically (temp + rename).
pub fn write_weights(path: &Path, metric: &MetricWeights) -> Result<(), String> {
    let json = serde_json::to_string(metric).map_err(|e| format!("encoding weights: {e:?}"))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Reference answers by the epoch id replies are stamped with.
type Epochs = Arc<Mutex<HashMap<u64, Arc<Oracle>>>>;

/// A service with a customizer beside it, an operator and a reader.
pub struct Rebuild {
    inst: Instance,
    customizer: MetricCustomizer,
    /// How long `MetricCustomizer::new` (the topology freeze) took.
    freeze: Duration,
    service: Arc<Service>,
    server: Option<Server>,
    operator: Client,
    reader: Option<Client>,
    weights: PathBuf,
    state: WatchState,
    version: u64,
    epochs: Epochs,
}

/// One rollout's outcome.
struct Rollout {
    end: Instant,
    ms: f64,
    ok: bool,
}

impl Rebuild {
    /// Weights file written → first verified reply on the new epoch.
    fn rollout(
        &mut self,
        rng: &mut Rng,
        tracer: Option<&mut Tracer>,
        request: u64,
    ) -> Result<Rollout, String> {
        self.version += 1;
        let metric = MetricWeights::perturbed(&self.inst.graph, "bench", self.version, rng.next());
        let oracle = Arc::new(metric_oracle(
            &self.inst.graph,
            &self.inst.oracle,
            Some(&metric),
        ));
        // Only the operator publishes, so the next epoch id is known; the
        // reader must find its oracle the moment the epoch is live.
        let expected = self.service.epoch_id() + 1;
        self.epochs
            .lock()
            .expect("epoch table poisoned")
            .insert(expected, Arc::clone(&oracle));

        let start = Instant::now();
        write_weights(&self.weights, &metric)?;
        let written = Instant::now();
        let report = poll_metric_file(
            &self.service,
            &self.customizer,
            &self.weights,
            &WatchConfig::default(),
            &mut self.state,
        );
        let published = Instant::now();
        let swapped = matches!(report, WatchReport::Swapped { epoch, .. } if epoch == expected);
        let req = Req::P2p {
            s: rng.below(oracle.sources.len()),
            t: rng.below(oracle.targets.len()),
        };
        let answer = self.operator.issue(&req, &oracle, None);
        let end = Instant::now();
        let ok = swapped
            && self.operator.last_epoch() == Some(expected)
            && answer.is_ok_and(|a| req.verify(&oracle, &a));
        if !swapped {
            eprintln!("rollout of v{} was not published: {report:?}", self.version);
        }
        if let Some(t) = tracer {
            let root = span_id(request, 1);
            t.record(root, ROOT, request, "rollout", start, end);
            t.record(
                span_id(request, 2),
                root,
                request,
                "metric.write_file",
                start,
                written,
            );
            t.record(
                span_id(request, 3),
                root,
                request,
                "serve.poll_publish",
                written,
                published,
            );
            t.record(
                span_id(request, 4),
                root,
                request,
                "client.first_reply",
                published,
                end,
            );
        }
        Ok(Rollout {
            end,
            ms: (end - start).as_secs_f64() * 1e3,
            ok,
        })
    }

    /// Graph → artifact → first verified tree, as a replica start would.
    fn rebuild(&self, tracer: Option<&mut Tracer>, request: u64) -> Result<SetupTimes, String> {
        let artifact = scratch_path("rebuild", "phast");
        let mut times = SetupTimes::default();
        let start = Instant::now();
        let result = preprocess(&self.inst.graph, &artifact, &mut times)
            .and_then(|_| load_verified(&artifact, &self.inst.oracle, &mut times));
        let end = Instant::now();
        let _ = std::fs::remove_file(&artifact);
        result?;
        if let Some(t) = tracer {
            // The steps run back to back, so their spans follow from the
            // step timings; the loads (all of them) end the rebuild.
            let root = span_id(request, 1);
            let loading: Duration = times.loads.iter().sum();
            let steps = [
                ("ch.contract", start, times.contract),
                ("core.build", start + times.contract, times.build),
                (
                    "store.write",
                    start + times.contract + times.build,
                    times.write,
                ),
                ("store.load_first_tree", end - loading, loading),
            ];
            t.record(root, ROOT, request, "rebuild", start, end);
            for (slot, (name, from, took)) in steps.into_iter().enumerate() {
                t.record(
                    span_id(request, slot as u64 + 2),
                    root,
                    request,
                    name,
                    from,
                    from + took,
                );
            }
        }
        Ok(times)
    }
}

/// The reader: closed-loop `p2p` until `stop`, each reply checked against
/// the oracle of its epoch stamp.
fn read_loop(reader: &mut Client, epochs: &Epochs, seed: u64, stop: &AtomicBool) -> Vec<Sample> {
    let mut rng = Rng::new(seed, 5);
    let mut samples = Vec::new();
    let any = Arc::clone(
        epochs
            .lock()
            .expect("epoch table poisoned")
            .values()
            .next()
            .expect("epoch 1 is registered"),
    );
    while !stop.load(Ordering::Relaxed) {
        let req = Req::P2p {
            s: rng.below(any.sources.len()),
            t: rng.below(any.targets.len()),
        };
        let sent = Instant::now();
        let answer = reader.issue(&req, &any, None);
        let end = Instant::now();
        let epoch = reader.last_epoch();
        let oracle = epoch.and_then(|e| {
            epochs
                .lock()
                .expect("epoch table poisoned")
                .get(&e)
                .cloned()
        });
        let ok = match (answer, oracle) {
            (Ok(a), Some(o)) => req.verify(&o, &a),
            _ => false,
        };
        samples.push(Sample {
            end,
            ms: (end - sent).as_secs_f64() * 1e3,
            late_ms: 0.0,
            ok,
        });
    }
    samples
}

impl Workload for Rebuild {
    fn setup(p: &Params) -> Result<Self, String> {
        let inst = Instance::build(p.kind.vertices(p.smoke), p.seed, crate::host::nproc())?;
        let start = Instant::now();
        let customizer = MetricCustomizer::new(inst.graph.clone(), &inst.hierarchy)?;
        let freeze = start.elapsed();
        let service = Service::new(
            Arc::clone(&inst.phast),
            Some(Arc::clone(&inst.hierarchy)),
            ServeConfig::default(),
        );
        let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("starting the server: {e}"))?;
        let connect = || {
            Client::connect(server.local_addr()).map_err(|e| format!("connecting a client: {e}"))
        };
        let (operator, reader) = (connect()?, connect()?);
        let base = Arc::new(metric_oracle(&inst.graph, &inst.oracle, None));
        let epochs = Arc::new(Mutex::new(HashMap::from([(service.epoch_id(), base)])));
        Ok(Rebuild {
            inst,
            customizer,
            freeze,
            service,
            server: Some(server),
            operator,
            reader: Some(reader),
            weights: scratch_path("weights", "json"),
            state: WatchState::default(),
            version: 0,
            epochs,
        })
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
        let mut rng = Rng::new(p.seed, 4);
        let stop = AtomicBool::new(false);
        let epochs = Arc::clone(&self.epochs);
        // The reader is lent to its thread for the length of the measurement.
        let mut reader = self
            .reader
            .take()
            .expect("the reader is back after every measurement");

        let (reads, operated) = std::thread::scope(|scope| {
            let reading = scope.spawn(|| read_loop(&mut reader, &epochs, p.seed, &stop));
            let operated = (|| {
                let mut request = 0u64;
                // Warm-up: one rollout, so the first measured one does not
                // pay for first-use allocations.
                self.rollout(&mut rng, None, request)?;
                let windows = Windows::new(
                    Instant::now(),
                    Duration::from_secs_f64(seconds / WINDOWS as f64),
                    WINDOWS,
                );
                let (mut rebuilds, mut rollouts) = (Vec::new(), Vec::new());
                for w in 0..WINDOWS {
                    request += 1;
                    rebuilds.push(self.rebuild(tracer.as_deref_mut(), request)?);
                    let window_end = windows.start_of(w + 1);
                    loop {
                        request += 1;
                        rollouts.push(self.rollout(&mut rng, tracer.as_deref_mut(), request)?);
                        if Instant::now() >= window_end {
                            break;
                        }
                    }
                }
                Ok::<_, String>((windows, rebuilds, rollouts))
            })();
            stop.store(true, Ordering::Relaxed);
            (reading.join().expect("reader thread panicked"), operated)
        });
        self.reader = Some(reader);
        let (windows, rebuilds, rollouts) = operated?;

        let per_window = windows.bucket(rollouts.iter().map(|r| (r.end, r.ms)));
        let (_, p50s) = median_of_windows(&per_window, |w| percentile_of(w, 0.50))
            .ok_or("no rollout finished")?;
        let (_, p95s) = median_of_windows(&per_window, |w| percentile_of(w, 0.95))
            .ok_or("no rollout finished")?;
        // Rollouts per second of rollout time (the operator also spends
        // window time on rebuilds and on building oracles).
        let (_, rates) = median_of_windows(&per_window, |w| {
            w.len() as f64 / (w.iter().sum::<f64>() / 1e3)
        })
        .ok_or("no rollout finished")?;
        let preprocess_s: Vec<f64> = rebuilds
            .iter()
            .map(|t| t.preprocess().as_secs_f64())
            .collect();
        let load_ms: Vec<f64> = rebuilds
            .iter()
            .flat_map(|t| t.loads.iter().map(|d| d.as_secs_f64() * 1e3))
            .collect();
        let reader = summarize(&reads, &windows, None)?;
        let measured_rollouts: Vec<&Rollout> = rollouts
            .iter()
            .filter(|r| windows.index_of(r.end).is_some())
            .collect();
        let detail = Value::Object(vec![
            ("window_s".into(), Value::Float(windows.len.as_secs_f64())),
            (
                "rollouts_per_window".into(),
                counts(per_window.iter().map(Vec::len)),
            ),
            ("rollout_p50_ms".into(), floats(&p50s)),
            ("rollout_p95_ms".into(), floats(&p95s)),
            ("rollouts_per_s".into(), floats(&rates)),
            ("preprocess_s".into(), floats(&preprocess_s)),
            ("load_ms".into(), floats(&load_ms)),
            ("reader".into(), reader.detail),
        ]);
        Ok(Measured {
            attempted: measured_rollouts.len() as u64 + rebuilds.len() as u64 + reader.attempted,
            failed: measured_rollouts.iter().filter(|r| !r.ok).count() as u64 + reader.failed,
            p50_ms: p50s,
            p95_ms: p95s,
            throughput: rates,
            preprocess_s,
            load_ms,
            counts: vec![
                ("reader.p50_ms".into(), reader.p50_ms),
                ("reader.p95_ms".into(), reader.p95_ms),
                ("reader.rps".into(), reader.throughput),
                (
                    "metrics.epochs_published".into(),
                    (self.service.epoch_id() - 1) as f64,
                ),
                ("metrics.freeze_s".into(), self.freeze.as_secs_f64()),
            ],
            detail,
        })
    }

    fn teardown(mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        self.service.shutdown();
        let _ = std::fs::remove_file(&self.weights);
        let _ = std::fs::remove_file(self.weights.with_extension("tmp"));
    }
}
