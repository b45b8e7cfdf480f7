//! A failover router in front of replicated `phast-serve` backends.
//!
//! One PHAST replica restarting (crash, deploy, metric re-preprocess)
//! should cost clients nothing but a few milliseconds of failover — not
//! errors, and certainly not wrong trees. This crate is the replication
//! front: a single TCP port speaking the same line-delimited JSON
//! protocol as `phast-serve`, spreading request lines across N backend
//! replicas and standing between clients and replica failure:
//!
//! * **Health checks** ([`backend`]): a prober thread sends each backend
//!   a cheap `{"op":"stats"}` probe on an interval. A backend failing
//!   [`RouterConfig::eject_after`] consecutive checks (or request-path
//!   transports) is *ejected* — no new requests route to it. After
//!   [`RouterConfig::halfopen_after`] it becomes *half-open*: the prober
//!   sends one trial probe, and a success returns it to rotation while a
//!   failure re-ejects it. Clients never probe; they only ever see
//!   healthy replicas.
//! * **Draining**: ejection bumps the backend's generation; pooled
//!   connections from older generations are closed instead of reused
//!   (`router_drained_conns`), so no request is ever written into a
//!   socket whose replica was declared dead.
//! * **Bounded failover** ([`front`]): a transport failure or a
//!   *retryable* typed reply (`overloaded`, `queue_full`, `busy`,
//!   `transport`) is re-dispatched to a different healthy replica, using
//!   the request's own `deadline_ms` as the total budget. Queries are
//!   idempotent reads, so a replayed request is answered exactly once —
//!   the first well-formed answer wins and nothing is duplicated.
//! * **Typed give-up**: when every attempt fails, the client gets the
//!   last typed error (never a silent close), and
//!   `router_retries_exhausted` counts it.
//!
//! * **The backends' own edge**: the client-facing port is a
//!   `phast_serve::conn::LineFront` — the same connection cap, I/O
//!   timeouts, line cap and typed `busy` / `malformed` refusals as a
//!   backend's — and every backend socket is a
//!   `phast_serve::conn::LineConn`.
//!
//! Everything is observable through [`RouterStats`] — the `router_*`
//! counters (failovers, ejections, drained connections, exhausted
//! retries, the edge's refusals and reaped connections, …) exported in
//! the same `phast-obs` report schema as the backends' own stats.

pub mod backend;
pub mod front;
pub mod stats;

pub use backend::{Backend, BackendPool, HealthState};
pub use front::Router;
pub use stats::RouterStats;

use std::net::SocketAddr;
use std::time::Duration;

/// Tuning of one [`Router`]: backend set, health checking, failover.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The backend replicas to spread load over.
    pub backends: Vec<SocketAddr>,
    /// Interval between health-check probes of each backend.
    pub probe_interval: Duration,
    /// Consecutive failed probes (or request-path transport failures)
    /// after which a backend is ejected from rotation.
    pub eject_after: u32,
    /// How long an ejected backend rests before the prober lets one
    /// trial probe through (the half-open recovery door).
    pub halfopen_after: Duration,
    /// TCP connect timeout toward backends.
    pub connect_timeout: Duration,
    /// Read/write timeout per socket operation, both sides.
    pub io_timeout: Duration,
    /// Re-dispatches allowed per request on top of the first attempt
    /// (each to a different replica when one is available).
    pub max_failovers: u32,
    /// Retry budget for a request that carries no `deadline_ms` of its
    /// own. With a deadline, the deadline is the budget.
    pub default_budget: Duration,
    /// Concurrent client connections accepted before `busy` refusals.
    pub max_conns: usize,
    /// Longest accepted request line in bytes.
    pub max_line_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            probe_interval: Duration::from_millis(100),
            eject_after: 3,
            halfopen_after: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            max_failovers: 3,
            default_budget: Duration::from_secs(5),
            max_conns: 256,
            max_line_bytes: 1 << 20,
        }
    }
}
