//! `phast-serve` — a batching query service over the PHAST engines.
//!
//! The paper's central throughput lever is *batching*: sweeping `k`
//! sources at once amortizes the `G↓` scan, so time-per-tree drops by
//! roughly 4× at `k = 16` (Table II). Every engine in this workspace is a
//! library call, though — nothing converts concurrent, independent
//! requests into those batched sweeps. This crate is that conversion:
//!
//! * [`scheduler`] — the embeddable service. Incoming requests accumulate
//!   in a bounded admission queue; workers drain them after a configurable
//!   *batch window*, cut short once every front connection is waiting,
//!   into one [`MultiTreeEngine`] per worker, run at 4, 8
//!   or 16 lanes (padding short batches) and at one lane — or replaced by
//!   a bidirectional CH query for a lone point-to-point request — when
//!   the window closes with one request. Many-to-many `matrix` requests run
//!   on their own rung: an RPHAST target selection (cached per worker
//!   across repeated target lists) restricts the sweep to the targets'
//!   downward closure, k sources per sweep (DESIGN.md §13).
//! * [`protocol`] — a line-delimited JSON protocol with typed error
//!   replies (`malformed`, `bad_request`, `queue_full`,
//!   `deadline_exceeded`, `shutdown`, `internal`); a malformed line never
//!   tears down a connection.
//! * [`server`] — the TCP front end of a service, exposed as `phast_cli
//!   serve`: a [`conn::LineFront`] whose lines the scheduler answers.
//! * [`overload`] — pre-admission load shedding: queue-depth and
//!   queue-latency signals shed bursts with typed
//!   `overloaded{retry_after_ms}` replies before deadlines blow.
//! * [`conn`] — the one TCP edge of the tier, std-only
//!   (`std::net::TcpListener`, one thread per connection). Inbound, the
//!   line front that this crate's server and `phast-router` both listen
//!   through, hardened against hostile clients: bounded concurrent
//!   connections (typed `busy` refusal), per-connection I/O timeouts
//!   (slowloris reaping), a hard request-line byte cap, forced
//!   connection close on shutdown and on drop. Outbound, the line
//!   connection that the client, the router's backend pool and its
//!   prober dial through.
//! * [`client`] — a small blocking client used by the `loadgen` bench
//!   binary and the integration tests: a [`conn::LineConn`] plus typed
//!   `transport` errors and bounded retry with exponential backoff +
//!   jitter that honors `retry_after_ms`.
//! * [`stats`] — service-level counters (requests, batches, mean batch
//!   occupancy, rejects, sheds, refusals, timeouts, deadline misses),
//!   one `phast_obs::counter_table!`, plus the aggregated per-batch
//!   [`QueryStats`], exported through the `phast-obs` [`Report`] schema.
//! * [`watch`] — a background metric customizer with a guarded rollout
//!   pipeline: polls a weights file, runs the `phast-metrics`
//!   customization pass off the serving path, canaries the candidate
//!   against reference Dijkstra, and only then publishes through
//!   [`Service::swap_epoch`](scheduler::Service::swap_epoch) — queries
//!   keep flowing on the old metric until the instant the new epoch is
//!   published (zero downtime, `metric_swaps`/`swap_latency_us`
//!   counters). After the publish a configurable guard window watches
//!   service health and auto-rolls-back through
//!   [`Service::rollback_epoch`](scheduler::Service::rollback_epoch)
//!   (`canary_failures`/`quarantined_metrics`/`epoch_rollbacks`/
//!   `guard_trips` counters).
//!
//! ```no_run
//! use phast_serve::{Service, ServeConfig, server::Server};
//! use phast_core::HeteroQuery;
//! use phast_graph::gen::{Metric, RoadNetworkConfig};
//!
//! let net = RoadNetworkConfig::new(20, 20, 1, Metric::TravelTime).build();
//! let service = Service::for_graph(&net.graph, ServeConfig::default());
//! // Embedded use: call the scheduler directly...
//! let dist = service.call(HeteroQuery::Tree { source: 0 }, None).unwrap();
//! // ...or put the TCP front end in front of it.
//! let srv = Server::spawn(service, "127.0.0.1:0").unwrap();
//! println!("listening on {}", srv.local_addr());
//! srv.shutdown();
//! ```
//!
//! [`MultiTreeEngine`]: phast_core::MultiTreeEngine
//! [`QueryStats`]: phast_obs::QueryStats
//! [`Report`]: phast_obs::Report

pub mod client;
pub mod conn;
pub mod overload;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod stats;
pub mod watch;

pub use client::{Client, ClientConfig};
pub use overload::LoadTracker;
pub use protocol::{ErrorKind, Op, Request, ServeError};
pub use scheduler::{BatchRunner, MetricEpoch, ServeConfig, Service, SELECTION_CACHE_CAPACITY};
pub use server::Server;
pub use stats::ServiceStats;
pub use watch::{check_guard, poll_metric_file, MetricWatcher, WatchConfig, WatchReport, WatchState};
