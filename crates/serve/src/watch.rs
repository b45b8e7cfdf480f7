//! Background metric customization: watch a weights file, customize,
//! canary, swap — and roll back — without ever taking the service down.
//!
//! The serving loop in [`crate::scheduler`] answers queries on immutable
//! [`MetricEpoch`](crate::MetricEpoch) snapshots. This module produces
//! those snapshots from the outside world: a [`MetricWatcher`] polls a
//! JSON weights file (the [`MetricWeights`] serde schema), and when the
//! file changes it runs the `phast-metrics` customization pass — tens of
//! milliseconds of CPU, on the watcher thread, with the canary's reference
//! trees on a scoped thread beside it — and publishes the result through
//! [`Service::swap_epoch`], a microsecond pointer store. Queries
//! admitted before the publication finish on the old metric; queries
//! admitted after it run on the new one; none are ever answered on a mix.
//!
//! Publication is *guarded* (DESIGN.md §16). A candidate metric walks a
//! state machine — candidate → canary → published → guarded →
//! settled / rolled-back — and can be stopped at two gates:
//!
//! * **Canary** ([`WatchConfig::canary_queries`]): before the swap, N
//!   deterministic sampled trees on the candidate `(Phast, Hierarchy)`
//!   are compared bit-exactly against reference Dijkstra on the same
//!   [`MetricWeights`] over the base graph (computed while the candidate
//!   is customized: it depends on the metric alone). A mismatch means the
//!   customization pipeline lied — the candidate is rejected with
//!   [`WatchReport::CanaryFailed`], the `(name, version)` is quarantined
//!   (never retried), and no live query ever ran on it.
//! * **Guard window** ([`WatchConfig::guard_window`]): for a configurable
//!   window after each publish, [`check_guard`] watches service health
//!   deltas (worker restarts, quarantined requests, the service-time EWMA
//!   from the overload tracker). A trip rolls the service back to the
//!   predecessor epoch via [`Service::rollback_epoch`] and quarantines
//!   the metric.
//!
//! A malformed or half-written file is rejected by validation
//! (`MetricWeights::validate` checks arity and the weight cap) and simply
//! skipped — the previous epoch keeps serving, and the error is reported
//! through the [`WatchReport`] the poll returns (the poll bumps the
//! service's `watch_errors` counter, so a persistently broken weights
//! feed shows up in `--stats` output — it must be *countable*, or it
//! looks identical to a quiet one — and the spawned thread also warns on
//! stderr). Rejections are deduplicated by content
//! hash: a persistently-bad file costs one customization attempt and one
//! stderr line, not one per poll ([`WatchReport::StillRejected`] covers
//! the quiet repeats). Mid-write reads are tolerated by requiring
//! `(len, mtime)` stability across the read. Version deduplication is by
//! `(name, version)`: rewriting the file with the same metric identity
//! does not trigger a re-customize.

use crate::scheduler::Service;
use phast_ch::Hierarchy;
use phast_core::Phast;
use phast_dijkstra::dijkstra::shortest_paths;
use phast_graph::Weight;
use phast_metrics::{MetricCustomizer, MetricWeights};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the watcher guards each publication. The default canaries every
/// candidate with 8 sampled trees and keeps the post-swap guard window
/// off; both gates are per-deployment knobs (`serve --canary-queries /
/// --guard-window-ms`).
#[derive(Clone, Debug)]
pub struct WatchConfig {
    /// Deterministic sampled tree queries compared bit-exactly against
    /// reference Dijkstra before a candidate is published. `0` disables
    /// the canary (publish on validation alone, the pre-guard behavior).
    pub canary_queries: usize,
    /// How long after each publish [`check_guard`] monitors service
    /// health before declaring the epoch settled. `Duration::ZERO`
    /// disables the guard window (and with it automatic rollback).
    pub guard_window: Duration,
    /// The service-time EWMA may grow to this multiple of its
    /// at-publish baseline before the latency signal trips.
    pub guard_latency_factor: f64,
    /// Latency floor below which the guard never trips: tiny absolute
    /// EWMAs (microseconds on a warm cache) can jump many x without
    /// meaning anything is wrong.
    pub guard_latency_floor: Duration,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            canary_queries: 8,
            guard_window: Duration::ZERO,
            guard_latency_factor: 8.0,
            guard_latency_floor: Duration::from_millis(50),
        }
    }
}

/// What one poll of the weights file concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WatchReport {
    /// The file is absent, mid-write, or unchanged since the last
    /// applied metric.
    Unchanged,
    /// A new metric passed the canary and was published as this epoch id.
    Swapped {
        /// Epoch id returned by [`Service::swap_epoch`].
        epoch: u64,
        /// `name` of the applied metric.
        name: String,
        /// `version` of the applied metric.
        version: u64,
    },
    /// The file exists but could not be applied; the message says why.
    /// The previously published epoch keeps serving.
    Rejected(String),
    /// The file still holds byte-identical content to an already-reported
    /// rejection: no re-customize, no counter, no log line.
    StillRejected,
    /// The candidate customized cleanly but its canary queries diverged
    /// from the reference Dijkstra. The metric is quarantined and was
    /// never published — no live query ran on it.
    CanaryFailed {
        /// `name` of the rejected metric.
        name: String,
        /// `version` of the rejected metric.
        version: u64,
        /// First divergence found, for the log line.
        detail: String,
    },
    /// The post-swap guard tripped: the service was rolled back to the
    /// predecessor epoch and the metric quarantined.
    RolledBack {
        /// The epoch the guarded metric had been published as.
        from_epoch: u64,
        /// The fresh epoch id the predecessor came back under.
        to_epoch: u64,
        /// `name` of the quarantined metric.
        name: String,
        /// `version` of the quarantined metric.
        version: u64,
        /// Which health signal tripped.
        why: String,
    },
}

/// An armed post-swap guard: the health baselines captured at publish
/// time, compared against live counters until the window elapses.
struct GuardWindow {
    name: String,
    version: u64,
    epoch: u64,
    deadline: Instant,
    base_restarts: u64,
    base_quarantined: u64,
    base_service_ewma: Duration,
}

/// Poll-once state: the identity of the last metric actually applied
/// (so rewrites of the same metric don't re-customize), the quarantine
/// set, the rejection dedupe hash, and the armed guard window if any.
#[derive(Default)]
pub struct WatchState {
    applied: Option<(String, u64)>,
    /// What `applied` held before the current publish — restored on a
    /// guard rollback so the watcher's idea of "current" follows the
    /// service's.
    prev_applied: Option<(String, u64)>,
    /// `(name, version)` pairs that failed the canary or tripped the
    /// guard. Quarantine is permanent for the watcher's lifetime: a
    /// metric that was proven wrong once is never retried.
    quarantined: HashSet<(String, u64)>,
    /// Content hash of the most recent rejected file bytes; a poll that
    /// reads the same bytes again reports [`WatchReport::StillRejected`]
    /// without spending a customization pass.
    last_rejected: Option<u64>,
    guard: Option<GuardWindow>,
}

impl WatchState {
    /// Whether this `(name, version)` has been quarantined.
    pub fn is_quarantined(&self, name: &str, version: u64) -> bool {
        self.quarantined
            .contains(&(name.to_string(), version))
    }

    /// Whether a post-swap guard window is currently armed.
    pub fn guard_active(&self) -> bool {
        self.guard.is_some()
    }
}

/// The canary's sources: `n_queries` spread evenly and deterministically
/// over `0..n` (duplicates on tiny graphs are merely redundant), and none
/// on an instance without vertices.
fn canary_sources(n: usize, n_queries: usize) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    (0..n_queries).map(|i| (i * n / n_queries) as u32).collect()
}

/// One reference tree per canary source: reference Dijkstra over the base
/// graph reweighted with the declared metric. It depends on the metric
/// alone, never on the customizer's output.
type CanaryReference = Vec<(u32, Vec<Weight>)>;

/// Customizes `metric` and, on a scoped thread beside it, computes the
/// canary's reference trees. The reference is `None` exactly when no
/// thread ran: the canary is off, the instance has no vertices, or the
/// metric fails validation (`build` rejects it, and `reweighted` would
/// panic on it).
fn build_beside_reference(
    customizer: &MetricCustomizer,
    metric: &MetricWeights,
    n_queries: usize,
) -> (Result<(Phast, Hierarchy), String>, Option<CanaryReference>) {
    let graph = customizer.graph();
    let sources = match metric.validate(graph.num_arcs()) {
        Ok(()) => canary_sources(graph.num_vertices(), n_queries),
        Err(_) => Vec::new(),
    };
    if sources.is_empty() {
        return (customizer.build(metric), None);
    }
    std::thread::scope(|scope| {
        let reference = scope.spawn(|| {
            let g = metric.reweighted(graph);
            sources
                .iter()
                .map(|&s| (s, shortest_paths(g.forward(), s).dist))
                .collect()
        });
        let built = customizer.build(metric);
        let reference = reference.join().expect("canary reference thread panicked");
        (built, Some(reference))
    })
}

/// The canary's comparison: each reference source answered as a full tree
/// on the candidate instance, compared bit-exactly. Returns the first
/// divergence.
fn canary_check(candidate: &Phast, reference: &CanaryReference) -> Result<(), String> {
    let mut engine = candidate.engine();
    for (source, want) in reference {
        let got = engine.distances(*source);
        if got != *want {
            let v = (0..got.len()).find(|&v| got[v] != want[v]).unwrap_or(0);
            return Err(format!(
                "canary query diverged from reference Dijkstra: \
                 source {source}, vertex {v}: candidate {} != reference {}",
                got[v], want[v]
            ));
        }
    }
    Ok(())
}

/// A poll that ends in a rejection, counted where it is decided — so the
/// spawned thread, the CLI, the benchmark and embedders that poll directly
/// all register it (`watch_errors`).
fn rejected(service: &Service, why: String) -> WatchReport {
    service.stats().add_watch_errors(1);
    WatchReport::Rejected(why)
}

/// Stable identity of the file's content for rejection deduplication.
fn content_hash(bytes: &str) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// The `(len, mtime)` signature used for the torn-read stability check.
fn file_signature(path: &Path) -> Option<(u64, Option<std::time::SystemTime>)> {
    std::fs::metadata(path)
        .ok()
        .map(|m| (m.len(), m.modified().ok()))
}

/// Reads, validates, customizes, canaries and publishes the metric in
/// `path` if it differs from the last applied one. This is the
/// synchronous core of the watcher — the spawned thread calls it in a
/// loop, tests and the CLI can call it directly for deterministic
/// behavior. Every counter (rejections, canary failures, quarantines) is
/// bumped here (not in the thread), so direct callers register them too.
pub fn poll_metric_file(
    service: &Service,
    customizer: &MetricCustomizer,
    path: &Path,
    cfg: &WatchConfig,
    state: &mut WatchState,
) -> WatchReport {
    // Torn-read hardening: only trust bytes whose (len, mtime) signature
    // held still across the read. A writer caught mid-write makes this
    // poll a no-op; the next poll sees the settled file.
    let sig_before = file_signature(path);
    let bytes = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return WatchReport::Unchanged,
        Err(e) => return rejected(service, format!("reading {}: {e}", path.display())),
    };
    if file_signature(path) != sig_before {
        return WatchReport::Unchanged;
    }
    let hash = content_hash(&bytes);
    if state.last_rejected == Some(hash) {
        return WatchReport::StillRejected;
    }
    let metric: MetricWeights = match serde_json::from_str(&bytes) {
        Ok(m) => m,
        Err(e) => {
            state.last_rejected = Some(hash);
            let why = format!("{} is not a metric-weights JSON document: {e:?}", path.display());
            return rejected(service, why);
        }
    };
    let identity = (metric.name.clone(), metric.version);
    if state.applied.as_ref() == Some(&identity) {
        return WatchReport::Unchanged;
    }
    if state.quarantined.contains(&identity) {
        state.last_rejected = Some(hash);
        let why = format!(
            "metric `{}` v{} is quarantined after an earlier canary failure \
             or guard rollback; refusing to retry it",
            identity.0, identity.1
        );
        return rejected(service, why);
    }
    // Customize off the serving path (this thread, the canary's reference
    // beside it), then publish. Any failure — wrong arity, weight over the
    // cap, hierarchy or instance validation — leaves the current epoch
    // serving.
    let (built, reference) = build_beside_reference(customizer, &metric, cfg.canary_queries);
    let (phast, hierarchy) = match built {
        Ok(built) => built,
        Err(e) => {
            state.last_rejected = Some(hash);
            return rejected(service, format!("customizing {}: {e}", path.display()));
        }
    };
    if let Some(reference) = reference {
        if let Err(detail) = canary_check(&phast, &reference) {
            state.quarantined.insert(identity.clone());
            state.last_rejected = Some(hash);
            service.stats().add_watch_errors(1);
            service.stats().add_canary_failures(1);
            service.stats().add_quarantined_metrics(1);
            return WatchReport::CanaryFailed {
                name: identity.0,
                version: identity.1,
                detail,
            };
        }
    }
    match service.swap_epoch(Arc::new(phast), Some(Arc::new(hierarchy))) {
        Ok(epoch) => {
            state.last_rejected = None;
            state.prev_applied = state.applied.take();
            state.applied = Some(identity.clone());
            state.guard = if cfg.guard_window.is_zero() {
                None
            } else {
                let stats = service.stats();
                Some(GuardWindow {
                    name: identity.0.clone(),
                    version: identity.1,
                    epoch,
                    deadline: Instant::now() + cfg.guard_window,
                    base_restarts: stats.worker_restarts(),
                    base_quarantined: stats.quarantined_requests(),
                    base_service_ewma: service.load().ewma_service(),
                })
            };
            WatchReport::Swapped {
                epoch,
                name: identity.0,
                version: identity.1,
            }
        }
        Err(e) => rejected(service, format!("publishing epoch: {e}")),
    }
}

/// Evaluates the armed guard window, if any, against live service
/// health. Called by the watcher thread on every sleep slice (so a sick
/// swap is rolled back within ~50 ms, not one poll interval later);
/// tests and embedders can call it directly.
///
/// Trips on any of: a worker restart since publish, a quarantined
/// request since publish, or the service-time EWMA exceeding
/// `max(guard_latency_floor, baseline x guard_latency_factor)`. A trip
/// rolls back via [`Service::rollback_epoch`] and quarantines the
/// metric. An elapsed window settles the epoch; a newer epoch published
/// behind the watcher's back abandons the stale guard.
pub fn check_guard(service: &Service, cfg: &WatchConfig, state: &mut WatchState) -> WatchReport {
    let Some(guard) = state.guard.as_ref() else {
        return WatchReport::Unchanged;
    };
    if service.epoch_id() != guard.epoch {
        // Someone else (another watcher, an embedder) already moved the
        // service off the guarded epoch; this guard has nothing left to
        // protect.
        state.guard = None;
        return WatchReport::Unchanged;
    }
    let stats = service.stats();
    let restarts = stats.worker_restarts();
    let quarantined = stats.quarantined_requests();
    let ewma = service.load().ewma_service();
    let latency_limit = guard
        .base_service_ewma
        .mul_f64(cfg.guard_latency_factor)
        .max(cfg.guard_latency_floor);
    let tripped = if restarts > guard.base_restarts {
        Some(format!(
            "worker restarts rose {} -> {restarts} inside the guard window",
            guard.base_restarts
        ))
    } else if quarantined > guard.base_quarantined {
        Some(format!(
            "quarantined requests rose {} -> {quarantined} inside the guard window",
            guard.base_quarantined
        ))
    } else if ewma > latency_limit {
        Some(format!(
            "service-time EWMA {:?} exceeded the guard limit {:?} (baseline {:?})",
            ewma, latency_limit, guard.base_service_ewma
        ))
    } else {
        None
    };
    let Some(why) = tripped else {
        if Instant::now() >= guard.deadline {
            // Window elapsed with healthy signals: the epoch settles.
            state.guard = None;
        }
        return WatchReport::Unchanged;
    };
    let guard = state.guard.take().expect("guard checked above");
    state
        .quarantined
        .insert((guard.name.clone(), guard.version));
    stats.add_guard_trips(1);
    stats.add_quarantined_metrics(1);
    match service.rollback_epoch() {
        Ok(to_epoch) => {
            state.applied = state.prev_applied.take();
            WatchReport::RolledBack {
                from_epoch: guard.epoch,
                to_epoch,
                name: guard.name,
                version: guard.version,
                why,
            }
        }
        Err(e) => rejected(
            service,
            format!(
                "guard tripped ({why}) but rollback failed: {e}; \
                 metric `{}` v{} stays quarantined",
                guard.name, guard.version
            ),
        ),
    }
}

/// A background thread polling one weights file and hot-swapping the
/// service's metric — through the canary and guard gates — whenever the
/// file holds a new `(name, version)`.
pub struct MetricWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricWatcher {
    /// Starts watching `path` with the default [`WatchConfig`] (canary
    /// on, guard window off), polling every `interval`. The customizer
    /// must have been frozen from the same topology the service answers
    /// on (a mismatched swap is rejected per poll, not fatal).
    pub fn spawn(
        service: Arc<Service>,
        customizer: Arc<MetricCustomizer>,
        path: PathBuf,
        interval: Duration,
    ) -> MetricWatcher {
        MetricWatcher::spawn_with(service, customizer, path, interval, WatchConfig::default())
    }

    /// [`MetricWatcher::spawn`] with an explicit guard configuration.
    pub fn spawn_with(
        service: Arc<Service>,
        customizer: Arc<MetricCustomizer>,
        path: PathBuf,
        interval: Duration,
        cfg: WatchConfig,
    ) -> MetricWatcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("phast-metric-watcher".into())
            .spawn(move || {
                let mut state = WatchState::default();
                while !stop_flag.load(Ordering::Relaxed) {
                    let report = poll_metric_file(&service, &customizer, &path, &cfg, &mut state);
                    log_report(&report);
                    // Sleep in small slices so shutdown is prompt even
                    // with a long poll interval — and so the guard
                    // window is evaluated promptly, not once per poll.
                    let mut left = interval;
                    loop {
                        let report = check_guard(&service, &cfg, &mut state);
                        log_report(&report);
                        if left.is_zero() || stop_flag.load(Ordering::Relaxed) {
                            break;
                        }
                        let nap = left.min(Duration::from_millis(50));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                }
            })
            .expect("spawn metric watcher");
        MetricWatcher {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the watcher and joins its thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The watcher thread's stderr policy for one report; every counter was
/// bumped at the decision site. Rejections are warned once per distinct
/// content (the dedupe happens in [`poll_metric_file`], which returns the
/// quiet [`WatchReport::StillRejected`] for repeats).
fn log_report(report: &WatchReport) {
    match report {
        WatchReport::Swapped {
            epoch,
            name,
            version,
        } => {
            eprintln!("metric watcher: published `{name}` v{version} as epoch {epoch}");
        }
        WatchReport::Rejected(why) => {
            // Transient read errors (a half-written file, a slow
            // writer) self-heal on the next poll, so this is a warning,
            // not a shutdown.
            eprintln!("metric watcher: warning: {why} (keeping current epoch)");
        }
        WatchReport::CanaryFailed {
            name,
            version,
            detail,
        } => {
            eprintln!(
                "metric watcher: canary rejected `{name}` v{version}: {detail} \
                 (metric quarantined, current epoch keeps serving)"
            );
        }
        WatchReport::RolledBack {
            from_epoch,
            to_epoch,
            name,
            version,
            why,
        } => {
            eprintln!(
                "metric watcher: guard tripped on `{name}` v{version} ({why}); \
                 rolled back epoch {from_epoch} -> {to_epoch} and quarantined the metric"
            );
        }
        WatchReport::Unchanged | WatchReport::StillRejected => {}
    }
}

impl Drop for MetricWatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServeConfig;
    use phast_ch::{contract_graph, ContractionConfig};
    use phast_core::HeteroQuery;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("phast-watch-{}-{name}.json", std::process::id()));
        p
    }

    fn tree(svc: &Service, source: u32) -> Vec<phast_graph::Weight> {
        match svc.call(HeteroQuery::Tree { source }, None).unwrap() {
            phast_core::HeteroAnswer::Tree(d) => d,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn poll_applies_new_metrics_and_skips_bad_or_stale_files() {
        let net = RoadNetworkConfig::new(8, 8, 4, Metric::TravelTime).build();
        let g = net.graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = MetricCustomizer::new(g.clone(), &h).unwrap();
        let svc = Service::for_graph(
            &g,
            ServeConfig {
                window: Duration::from_millis(0),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let cfg = WatchConfig::default();
        let path = temp_path("poll");
        let mut state = WatchState::default();
        // No file yet: nothing to do.
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            poll_metric_file(&svc, &customizer, &path, &cfg, &mut state),
            WatchReport::Unchanged
        );
        // A valid perturbed metric swaps to epoch 2 and changes answers.
        let before = tree(&svc, 5);
        let metric = MetricWeights::perturbed(&g, "rush-hour", 1, 42);
        std::fs::write(&path, serde_json::to_string(&metric).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Swapped { epoch: 2, .. } => {}
            other => panic!("expected swap to epoch 2, got {other:?}"),
        }
        let after = tree(&svc, 5);
        assert_ne!(before, after, "a perturbed metric must change some tree");
        // Rewriting the same (name, version) is a no-op.
        std::fs::write(&path, serde_json::to_string(&metric).unwrap()).unwrap();
        assert_eq!(
            poll_metric_file(&svc, &customizer, &path, &cfg, &mut state),
            WatchReport::Unchanged
        );
        // Garbage is rejected once, then deduped by content hash: the
        // retry-storm of one customization attempt per poll is gone.
        // A poll that rejects counts itself — no watcher thread involved —
        // and the quiet repeat does not count again.
        assert_eq!(svc.stats().watch_errors(), 0);
        std::fs::write(&path, "{not json").unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Rejected(_) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(svc.stats().watch_errors(), 1, "a directly polled bad file must count");
        assert_eq!(
            poll_metric_file(&svc, &customizer, &path, &cfg, &mut state),
            WatchReport::StillRejected
        );
        assert_eq!(svc.stats().watch_errors(), 1, "the repeat must stay quiet");
        assert_eq!(svc.epoch_id(), 2);
        // A wrong-arity metric is rejected by validation, not applied —
        // and the dedupe resets because the content changed.
        let bad = MetricWeights {
            name: "bad".into(),
            version: 9,
            weights: vec![1, 2, 3],
        };
        std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Rejected(why) => assert!(why.contains("customizing"), "{why}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(
            poll_metric_file(&svc, &customizer, &path, &cfg, &mut state),
            WatchReport::StillRejected
        );
        assert_eq!(svc.stats().watch_errors(), 2, "new bad content counts once more");
        assert_eq!(svc.epoch_id(), 2);
        // A good metric after the bad spell publishes and clears the
        // rejection dedupe.
        let metric2 = MetricWeights::perturbed(&g, "rush-hour", 2, 43);
        std::fs::write(&path, serde_json::to_string(&metric2).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Swapped { epoch: 3, .. } => {}
            other => panic!("expected swap to epoch 3, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        svc.shutdown();
    }

    #[test]
    fn canary_rejects_a_corrupted_customization_before_publish() {
        let net = RoadNetworkConfig::new(8, 8, 4, Metric::TravelTime).build();
        let g = net.graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = MetricCustomizer::new(g.clone(), &h).unwrap();
        let svc = Service::for_graph(
            &g,
            ServeConfig {
                window: Duration::from_millis(0),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let cfg = WatchConfig::default();
        let path = temp_path("canary");
        let mut state = WatchState::default();
        let baseline = tree(&svc, 3);

        // Arm the metrics-crate fault seam for this metric name only:
        // customization silently builds engines for corrupted weights.
        std::env::set_var(phast_metrics::CANARY_FAULT_ENV, "canary-poison");
        let poisoned = MetricWeights::perturbed(&g, "canary-poison", 1, 7);
        std::fs::write(&path, serde_json::to_string(&poisoned).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::CanaryFailed { name, version: 1, detail } => {
                assert_eq!(name, "canary-poison");
                assert!(detail.contains("diverged"), "{detail}");
            }
            other => panic!("expected canary failure, got {other:?}"),
        }
        // Never published: the epoch and every answer are untouched.
        assert_eq!(svc.epoch_id(), 1);
        assert_eq!(tree(&svc, 3), baseline);
        assert_eq!(svc.stats().canary_failures(), 1);
        assert_eq!(svc.stats().quarantined_metrics(), 1);
        assert_eq!(svc.stats().watch_errors(), 1, "a canary failure is a rejected poll");
        assert!(state.is_quarantined("canary-poison", 1));

        // The unchanged file goes quiet (content dedupe), and even a
        // *rewritten* file with the same identity is refused without
        // another customization pass: quarantine is permanent.
        assert_eq!(
            poll_metric_file(&svc, &customizer, &path, &cfg, &mut state),
            WatchReport::StillRejected
        );
        let mut doc = serde_json::to_value(&poisoned).unwrap();
        doc["weights"][0] = serde_json::json!(17);
        std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Rejected(why) => assert!(why.contains("quarantined"), "{why}"),
            other => panic!("expected quarantine rejection, got {other:?}"),
        }
        assert_eq!(svc.stats().canary_failures(), 1, "one attempt, not one per poll");

        // A clean metric under a different name sails through the canary.
        std::env::remove_var(phast_metrics::CANARY_FAULT_ENV);
        let honest = MetricWeights::perturbed(&g, "honest", 1, 42);
        std::fs::write(&path, serde_json::to_string(&honest).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Swapped { epoch: 2, .. } => {}
            other => panic!("expected swap to epoch 2, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        svc.shutdown();
    }

    #[test]
    fn invalid_metrics_are_typed_rejections_and_spawn_no_reference() {
        let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
        let g = net.graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = MetricCustomizer::new(g.clone(), &h).unwrap();
        let svc = Service::for_graph(
            &g,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let cfg = WatchConfig::default();
        let path = temp_path("invalid");
        let mut state = WatchState::default();
        let mut over_cap = MetricWeights::perturbed(&g, "over-cap", 1, 3);
        over_cap.weights[4] = phast_graph::MAX_WEIGHT + 1;
        let wrong_arity = MetricWeights {
            name: "short".into(),
            version: 1,
            weights: vec![1; 5],
        };
        for (metric, why) in [
            (over_cap, "exceeds MAX_WEIGHT"),
            (wrong_arity, "weights but the graph has"),
        ] {
            // `reweighted` panics on these metrics: no reference thread may
            // run for them, and a panic in one would surface here.
            let (built, reference) =
                build_beside_reference(&customizer, &metric, cfg.canary_queries);
            assert!(built.is_err_and(|e| e.contains(why)), "`{}`", metric.name);
            assert!(
                reference.is_none(),
                "`{}` spawned a reference thread",
                metric.name
            );
            std::fs::write(&path, serde_json::to_string(&metric).unwrap()).unwrap();
            match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
                WatchReport::Rejected(e) => {
                    assert!(e.contains("customizing") && e.contains(why), "{e}")
                }
                other => panic!("expected a typed rejection, got {other:?}"),
            }
        }
        assert_eq!(svc.epoch_id(), 1);
        assert_eq!(svc.stats().watch_errors(), 2);
        assert_eq!(svc.stats().canary_failures(), 0);
        let _ = std::fs::remove_file(&path);
        svc.shutdown();
    }

    #[test]
    fn the_reference_runs_only_when_the_canary_checks_a_source() {
        let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
        let g = net.graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = MetricCustomizer::new(g.clone(), &h).unwrap();
        let metric = MetricWeights::perturbed(&g, "reference", 1, 4);
        let (built, reference) = build_beside_reference(&customizer, &metric, 0);
        assert!(built.is_ok());
        assert!(
            reference.is_none(),
            "canary_queries = 0 must spawn no thread"
        );
        let (built, reference) = build_beside_reference(&customizer, &metric, 8);
        let reference = reference.expect("a valid metric with 8 canary queries");
        let sources: Vec<u32> = reference.iter().map(|(s, _)| *s).collect();
        assert_eq!(sources, canary_sources(g.num_vertices(), 8));
        assert_eq!(canary_check(&built.unwrap().0, &reference), Ok(()));
        assert_eq!(canary_sources(0, 8), Vec::<u32>::new());
        assert_eq!(canary_sources(1, 8), vec![0; 8]);
    }

    #[test]
    fn instances_of_one_and_zero_vertices_publish_a_metric() {
        for n in [1, 0] {
            let mut b = phast_graph::GraphBuilder::new(n);
            if n == 1 {
                b = b.keep_self_loops(true);
                b.add_arc(0, 0, 3);
            }
            let g = b.build();
            let h = contract_graph(&g, &ContractionConfig::default());
            let customizer = MetricCustomizer::new(g.clone(), &h).unwrap();
            let svc = Service::for_graph(
                &g,
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
            );
            let path = temp_path(&format!("tiny-{n}"));
            let metric = MetricWeights::new("tiny", 1, vec![5; g.num_arcs()]).unwrap();
            std::fs::write(&path, serde_json::to_string(&metric).unwrap()).unwrap();
            let mut state = WatchState::default();
            match poll_metric_file(
                &svc,
                &customizer,
                &path,
                &WatchConfig::default(),
                &mut state,
            ) {
                WatchReport::Swapped { epoch: 2, .. } => {}
                other => panic!("{n} vertices: expected a swap to epoch 2, got {other:?}"),
            }
            if n == 1 {
                assert_eq!(tree(&svc, 0), vec![0]);
            }
            let _ = std::fs::remove_file(&path);
            svc.shutdown();
        }
    }

    #[test]
    fn guard_trip_rolls_back_and_quarantines_deterministically() {
        let net = RoadNetworkConfig::new(8, 8, 4, Metric::TravelTime).build();
        let g = net.graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = MetricCustomizer::new(g.clone(), &h).unwrap();
        let svc = Service::for_graph(
            &g,
            ServeConfig {
                window: Duration::from_millis(0),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let cfg = WatchConfig {
            guard_window: Duration::from_secs(3600),
            ..WatchConfig::default()
        };
        let path = temp_path("guard");
        let mut state = WatchState::default();
        let baseline = tree(&svc, 5);

        // Swapped: the publish arms a guard window.
        let metric = MetricWeights::perturbed(&g, "guarded", 1, 99);
        std::fs::write(&path, serde_json::to_string(&metric).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Swapped { epoch: 2, .. } => {}
            other => panic!("expected swap to epoch 2, got {other:?}"),
        }
        assert!(state.guard_active());
        assert_ne!(tree(&svc, 5), baseline);

        // Healthy signals: the guard holds but does not trip.
        assert_eq!(check_guard(&svc, &cfg, &mut state), WatchReport::Unchanged);
        assert!(state.guard_active());

        // Guard-trip: a worker restart lands inside the window. The
        // service rolls back to the predecessor epoch and the metric is
        // quarantined.
        svc.stats().add_worker_restarts(1);
        match check_guard(&svc, &cfg, &mut state) {
            WatchReport::RolledBack {
                from_epoch: 2,
                to_epoch: 3,
                name,
                version: 1,
                why,
            } => {
                assert_eq!(name, "guarded");
                assert!(why.contains("worker restarts"), "{why}");
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert!(!state.guard_active());
        assert_eq!(svc.epoch_id(), 3);
        assert_eq!(svc.current_epoch().rolled_back_from, Some(2));
        assert_eq!(
            tree(&svc, 5),
            baseline,
            "rolled-back service answers on the predecessor metric"
        );
        assert_eq!(svc.stats().guard_trips(), 1);
        assert_eq!(svc.stats().epoch_rollbacks(), 1);
        assert_eq!(svc.stats().quarantined_metrics(), 1);

        // The quarantined metric still sits in the watched file; it is
        // refused without a re-customize and never re-published.
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Rejected(why) => assert!(why.contains("quarantined"), "{why}"),
            other => panic!("expected quarantine rejection, got {other:?}"),
        }
        assert_eq!(
            poll_metric_file(&svc, &customizer, &path, &cfg, &mut state),
            WatchReport::StillRejected
        );
        assert_eq!(svc.epoch_id(), 3);

        // With no guard armed, check_guard is a no-op.
        assert_eq!(check_guard(&svc, &cfg, &mut state), WatchReport::Unchanged);
        let _ = std::fs::remove_file(&path);
        svc.shutdown();
    }

    #[test]
    fn an_elapsed_window_settles_and_an_external_swap_abandons_the_guard() {
        let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
        let g = net.graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = MetricCustomizer::new(g.clone(), &h).unwrap();
        let svc = Service::for_graph(
            &g,
            ServeConfig {
                window: Duration::from_millis(0),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let cfg = WatchConfig {
            guard_window: Duration::from_millis(1),
            ..WatchConfig::default()
        };
        let path = temp_path("settle");
        let mut state = WatchState::default();
        let metric = MetricWeights::perturbed(&g, "settler", 1, 5);
        std::fs::write(&path, serde_json::to_string(&metric).unwrap()).unwrap();
        match poll_metric_file(&svc, &customizer, &path, &cfg, &mut state) {
            WatchReport::Swapped { .. } => {}
            other => panic!("expected swap, got {other:?}"),
        }
        assert!(state.guard_active());
        std::thread::sleep(Duration::from_millis(5));
        // Window elapsed with healthy signals: settled, no rollback.
        assert_eq!(check_guard(&svc, &cfg, &mut state), WatchReport::Unchanged);
        assert!(!state.guard_active());
        assert_eq!(svc.stats().guard_trips(), 0);
        assert_eq!(svc.epoch_id(), 2);

        // Re-arm by swapping again, then move the epoch externally: the
        // stale guard is abandoned, not tripped.
        let metric2 = MetricWeights::perturbed(&g, "settler", 2, 6);
        std::fs::write(&path, serde_json::to_string(&metric2).unwrap()).unwrap();
        let cfg_long = WatchConfig {
            guard_window: Duration::from_secs(3600),
            ..WatchConfig::default()
        };
        match poll_metric_file(&svc, &customizer, &path, &cfg_long, &mut state) {
            WatchReport::Swapped { epoch: 3, .. } => {}
            other => panic!("expected swap to epoch 3, got {other:?}"),
        }
        assert!(state.guard_active());
        let (p2, h2) = customizer
            .build(&MetricWeights::perturbed(&g, "external", 1, 8))
            .unwrap();
        svc.swap_epoch(Arc::new(p2), Some(Arc::new(h2))).unwrap();
        svc.stats().add_worker_restarts(1); // would trip, were the guard live
        assert_eq!(check_guard(&svc, &cfg_long, &mut state), WatchReport::Unchanged);
        assert!(!state.guard_active());
        assert_eq!(svc.stats().guard_trips(), 0);
        let _ = std::fs::remove_file(&path);
        svc.shutdown();
    }

    #[test]
    fn spawned_watcher_picks_up_a_dropped_file() {
        let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
        let g = net.graph;
        let h = contract_graph(&g, &ContractionConfig::default());
        let customizer = Arc::new(MetricCustomizer::new(g.clone(), &h).unwrap());
        let svc = Service::for_graph(&g, ServeConfig::default());
        let path = temp_path("spawned");
        let _ = std::fs::remove_file(&path);
        let mut watcher = MetricWatcher::spawn(
            Arc::clone(&svc),
            customizer,
            path.clone(),
            Duration::from_millis(10),
        );
        let metric = MetricWeights::perturbed(&g, "live", 7, 9);
        std::fs::write(&path, serde_json::to_string(&metric).unwrap()).unwrap();
        let t0 = std::time::Instant::now();
        while svc.epoch_id() < 2 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.epoch_id(), 2, "watcher must publish the new metric");
        assert_eq!(svc.stats().metric_swaps(), 1);
        // A garbage rewrite is rejected but *counted*: transient weights-
        // file errors must be visible in stats, not only on stderr.
        assert_eq!(svc.stats().watch_errors(), 0);
        std::fs::write(&path, "{not json").unwrap();
        let t0 = std::time::Instant::now();
        while svc.stats().watch_errors() == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            svc.stats().watch_errors() >= 1,
            "rejected polls must bump watch_errors"
        );
        assert_eq!(svc.epoch_id(), 2, "rejected file must not change the epoch");
        // The content dedupe rate-limits the storm: the bad file keeps
        // sitting there through many poll intervals, yet the error count
        // stays at one.
        let errors = svc.stats().watch_errors();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            svc.stats().watch_errors(),
            errors,
            "an unchanged bad file must not re-count on every poll"
        );
        watcher.shutdown();
        let _ = std::fs::remove_file(&path);
        svc.shutdown();
    }
}
