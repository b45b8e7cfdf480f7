//! Service-level counters, aggregated on top of the per-batch
//! [`QueryStats`] the engines already produce.
//!
//! The counters are one [`counter_table!`](phast_obs::counter_table) —
//! lock-free atomics, each with its getter, its `add_*` and its line of
//! the report — plus the engine aggregate (a mutex-guarded [`QueryStats`]
//! sum, touched once per *batch*, not per request).
//! [`ServiceStats::report`] exports everything through the `phast-obs`
//! [`Report`] JSON schema, so service metrics line up with the engine
//! metrics the rest of the workspace emits.

use phast_obs::{QueryStats, Report};
use std::sync::Mutex;

phast_obs::counter_table! {
    /// Counters of one [`Service`](crate::Service) instance.
    pub struct ServiceStats {
        /// Requests admitted into the queue.
        admitted: add_admitted => "requests_admitted",
        /// Requests answered successfully.
        served: add_served => "requests_served",
        /// Requests answered with a typed error (any kind).
        failed: add_failed => "requests_failed",
        /// Requests rejected because the admission queue was full.
        rejected_queue_full: add_rejected_queue_full => "rejected_queue_full",
        /// Requests shed before admission because the queue depth (or queue
        /// latency) crossed the overload threshold; each got a typed
        /// `overloaded` reply with a `retry_after_ms` hint.
        shed_overload: add_shed_overload => "shed_overload",
        /// Connections refused with a typed `busy` reply because the
        /// concurrent-connection cap was reached.
        refused_busy: add_refused_busy => "refused_busy",
        /// Connections reaped because a socket read or write exceeded the
        /// per-connection I/O timeout (slowloris writers, dead clients).
        timed_out_connections: add_timed_out_connections => "timed_out_connections",
        /// `accept()` failures in the listener loop (e.g. EMFILE); each backs
        /// the accept loop off instead of tight-spinning.
        accept_errors: add_accept_errors => "accept_errors",
        /// Request lines rejected as malformed or bad before admission.
        rejected_invalid: add_rejected_invalid => "rejected_invalid",
        /// Requests whose deadline expired before their batch formed.
        deadline_misses: add_deadline_misses => "deadline_misses",
        /// Batched sweeps executed (occupancy >= 2 lives in `multi_batches`).
        batches: add_batches => "batches",
        /// Real (non-padding) requests summed over all batched sweeps.
        batched_requests: add_batched_requests => "batched_requests",
        /// Batched sweeps that served two or more requests.
        multi_batches: add_multi_batches => "multi_batches",
        /// Padding lanes added to fill short batches to the engine width.
        padded_lanes: add_padded_lanes => "padded_lanes",
        /// Lone requests served by the scalar single-tree engine.
        scalar_fallbacks: add_scalar_fallbacks => "scalar_fallbacks",
        /// Lone point-to-point requests served by the bidirectional CH query.
        p2p_fallbacks: add_p2p_fallbacks => "p2p_fallbacks",
        /// Times a worker's engine state was torn down and rebuilt after a
        /// panic escaped batch execution.
        worker_restarts: add_worker_restarts => "worker_restarts",
        /// Requests that were in a batch whose execution panicked; each got a
        /// typed `internal` error reply instead of a dropped connection.
        quarantined_requests: add_quarantined_requests => "quarantined_requests",
        /// Many-to-many matrix requests served on the restricted rung.
        matrix_requests: add_matrix_requests => "matrix_requests",
        /// Matrix rows (sources) computed over all matrix requests.
        matrix_rows: add_matrix_rows => "matrix_rows",
        /// Restricted `k`-lane sweeps run by matrix requests (sources are
        /// chunked to the engine width; the selection is shared across all
        /// chunks of a request).
        matrix_chunks: add_matrix_chunks => "matrix_chunks",
        /// RPHAST target selections built by matrix requests.
        selection_builds: add_selection_builds => "selection_builds",
        /// Matrix requests that reused a worker's cached selection (same
        /// target list as that worker's previous matrix request).
        selection_cache_hits: add_selection_cache_hits => "selection_cache_hits",
        /// Vertices selected, summed over all selection builds (cache hits
        /// add nothing — no construction work happened).
        selection_vertices: add_selection_vertices => "selection_vertices",
        /// Selections evicted from a worker's bounded LRU cache to make room
        /// for a newer target list.
        selection_cache_evictions: add_selection_cache_evictions => "selection_cache_evictions",
        /// Metric epochs published via [`Service::swap_epoch`](crate::Service::swap_epoch).
        metric_swaps: add_metric_swaps => "metric_swaps",
        /// Microseconds spent publishing metric swaps (admission-side cost
        /// only; workers rebuild engines off the publisher's critical path).
        swap_latency_us: add_swap_latency_us => "swap_latency_us",
        /// Requests executed on an epoch older than the currently published
        /// one — admitted before a swap, honoring their admission snapshot.
        queries_on_stale_metric: add_queries_on_stale_metric => "queries_on_stale_metric",
        /// Polls of the watched weights file that ended in a rejection
        /// (unreadable file, bad JSON, failed customization). The previous
        /// epoch keeps serving; this counter is how operators notice a
        /// persistently broken weights feed that stderr alone would bury.
        watch_errors: add_watch_errors => "watch_errors",
        /// Candidate metrics whose canary queries diverged from the reference
        /// Dijkstra — rejected *before* publication, so no live query ever
        /// ran on them.
        canary_failures: add_canary_failures => "canary_failures",
        /// Distinct `(name, version)` metrics quarantined (canary failure or
        /// guard rollback); a quarantined metric is never retried.
        quarantined_metrics: add_quarantined_metrics => "quarantined_metrics",
        /// Epochs re-published from the rollback history after a bad swap
        /// ([`Service::rollback_epoch`](crate::Service::rollback_epoch)).
        epoch_rollbacks: add_epoch_rollbacks => "epoch_rollbacks",
        /// Post-swap guard windows that tripped on a health regression and
        /// triggered an automatic rollback.
        guard_trips: add_guard_trips => "guard_trips",
        ..
        /// Sum of per-batch engine statistics.
        engine: Mutex<QueryStats>,
    }
}

impl ServiceStats {
    /// Folds one batch's engine statistics into the running aggregate.
    pub fn merge_query(&self, q: &QueryStats) {
        // Poison-tolerant: a worker that panicked *while* holding this
        // lock must not take the whole stats pipeline down with it — the
        // aggregate is monotone counters, so the partial state is usable.
        let mut agg = self
            .engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        agg.counters.merge(&q.counters);
        agg.upward_time += q.upward_time;
        agg.sweep_time += q.sweep_time;
    }

    /// Mean number of real requests per batched sweep (0 when no batch
    /// has run yet). The acceptance gate for "batching actually happens"
    /// is this ratio exceeding 1 under concurrent load.
    pub fn mean_batch_occupancy(&self) -> f64 {
        match self.batches() {
            0 => 0.0,
            b => self.batched_requests() as f64 / b as f64,
        }
    }

    /// Exports every counter (plus the engine aggregate) as a report.
    pub fn report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(title);
        self.fill_report(&mut r);
        r.push_ratio("mean_batch_occupancy", self.mean_batch_occupancy());
        let agg = *self
            .engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        agg.counters.fill_report(&mut r);
        r.push_time("upward_time", agg.upward_time);
        r.push_time("sweep_time", agg.sweep_time);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn occupancy_is_batched_requests_over_batches() {
        let s = ServiceStats::default();
        assert_eq!(s.mean_batch_occupancy(), 0.0);
        s.add_batches(2);
        s.add_batched_requests(7);
        s.add_multi_batches(2);
        assert!((s.mean_batch_occupancy() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn report_carries_service_and_engine_metrics() {
        let s = ServiceStats::default();
        s.add_served(5);
        let mut q = QueryStats::default();
        q.counters.add_upward_settled(11);
        q.upward_time = Duration::from_micros(3);
        s.merge_query(&q);
        s.merge_query(&q);
        let r = s.report("svc");
        assert_eq!(
            r.get("requests_served"),
            Some(&phast_obs::MetricValue::Count(5))
        );
        assert_eq!(
            r.get("upward_settled"),
            Some(&phast_obs::MetricValue::Count(22))
        );
        assert_eq!(
            r.get("upward_time"),
            Some(&phast_obs::MetricValue::Time(Duration::from_micros(6)))
        );
    }
}
