//! `serve_tree` and `serve_mixed`: the same service and instance, loaded
//! in two ways.
//!
//! * `serve_tree` — closed loop, one `tree` request in flight per
//!   connection, `Client` → `Router` → `Server` on loopback. The reply is a
//!   line of ~6 bytes per vertex, so encode, relay, decode and TCP carry
//!   most of the latency and the sweep little of it.
//! * `serve_mixed` — open loop at a fixed rate straight to the `Server`:
//!   50 % `p2p`, 40 % `many`, 10 % `matrix`. Replies are small, so the
//!   scheduler's batch window, the CH point query and RPHAST selection and
//!   sweeps carry the latency; it is timed from each request's due time.
//!
//! Both run with `ServeConfig::default()` / `RouterConfig::default()`.

use super::{connections, plan, summarize, Kind, Measured, Params, Workload};
use crate::instance::Instance;
use crate::loadgen::{closed_loop, open_loop, Issuer, Req, Sample, TracedClient, TracedServer};
use crate::oracle::{Oracle, Rng};
use crate::stats::Windows;
use crate::trace::Tracer;
use phast_router::{Router, RouterConfig};
use phast_serve::{Client, ServeConfig, Server, Service};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop rate of `serve_mixed` per connection, requests per second.
pub const MIXED_RATE_PER_CONNECTION: f64 = 100.0;

/// `serve_mixed`'s latency limit, from the due time.
pub const MIXED_SLO_MS: f64 = 20.0;

/// A running service with its front ends and connected clients.
pub struct Serve {
    kind: Kind,
    inst: Instance,
    service: Arc<Service>,
    server: Option<Server>,
    router: Option<Router>,
    clients: Vec<Client>,
}

fn io(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

fn route_to(backend: SocketAddr) -> Result<Router, String> {
    let cfg = RouterConfig {
        backends: vec![backend],
        ..RouterConfig::default()
    };
    Router::spawn(cfg, "127.0.0.1:0").map_err(|e| io("starting the router", e))
}

/// Runs one load thread per issuer until the windows end and returns every
/// sample. `period` makes the loop open (connection `j` of `c` is offset
/// by `j / c` of a period so the aggregate schedule is even).
pub fn drive<I: Issuer + Send>(
    issuers: &mut [I],
    oracle: &Oracle,
    seed: u64,
    kind: Kind,
    period: Option<Duration>,
    start: Instant,
    windows: &Windows,
) -> Vec<Sample> {
    let until = windows.end();
    let count = issuers.len() as u32;
    std::thread::scope(|scope| {
        let handles: Vec<_> = issuers
            .iter_mut()
            .enumerate()
            .map(|(j, iss)| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 16 + j as u64);
                    let next = || match kind {
                        Kind::ServeMixed => Req::mixed(&mut rng, oracle),
                        _ => Req::Tree {
                            s: rng.below(oracle.sources.len()),
                        },
                    };
                    match period {
                        Some(p) => {
                            open_loop(iss, oracle, next, start + p * j as u32 / count, p, until)
                        }
                        None => closed_loop(iss, oracle, next, until),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

impl Serve {
    fn period(&self) -> Option<Duration> {
        (self.kind == Kind::ServeMixed)
            .then(|| Duration::from_secs_f64(1.0 / MIXED_RATE_PER_CONNECTION))
    }

    /// The traced twin of the measured path: `TracedClient`s →
    /// (router →) `TracedServer` over the same service.
    fn traced_rig(&self, tracer: &Tracer) -> Result<TracedRig, String> {
        let server = TracedServer::spawn(Arc::clone(&self.service), tracer.fork())
            .map_err(|e| io("starting the traced server", e))?;
        let router = match self.kind {
            Kind::ServeTree => Some(route_to(server.local_addr())?),
            _ => None,
        };
        let front = router
            .as_ref()
            .map_or(server.local_addr(), Router::local_addr);
        let n = connections() as u64;
        let clients = (0..n)
            .map(|j| TracedClient::connect(front, j, n, tracer.fork()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| io("connecting a traced client", e))?;
        Ok(TracedRig {
            server,
            router,
            clients,
        })
    }
}

struct TracedRig {
    server: TracedServer,
    router: Option<Router>,
    clients: Vec<TracedClient>,
}

impl TracedRig {
    /// Closes everything and hands the spans to `tracer`.
    fn finish(self, tracer: &mut Tracer) {
        for c in self.clients {
            tracer.absorb(c.tracer);
        }
        if let Some(r) = self.router {
            r.shutdown();
        }
        tracer.absorb(self.server.shutdown());
    }
}

fn router_counts(router: Option<&Router>) -> Vec<(String, f64)> {
    router.map_or_else(Vec::new, |r| {
        vec![
            ("router.failovers".into(), r.stats().failovers() as f64),
            ("router.ejections".into(), r.stats().ejections() as f64),
        ]
    })
}

impl Workload for Serve {
    fn setup(p: &Params) -> Result<Self, String> {
        let inst = Instance::build(p.kind.vertices(p.smoke), p.seed, crate::host::nproc())?;
        let service = Service::new(
            Arc::clone(&inst.phast),
            Some(Arc::clone(&inst.hierarchy)),
            ServeConfig::default(),
        );
        let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| io("starting the server", e))?;
        let router = match p.kind {
            Kind::ServeTree => Some(route_to(server.local_addr())?),
            _ => None,
        };
        let front = router
            .as_ref()
            .map_or(server.local_addr(), Router::local_addr);
        let mut clients = (0..connections())
            .map(|_| Client::connect(front))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| io("connecting a client", e))?;
        // The path is up when every connection has a verified answer.
        for c in &mut clients {
            let req = Req::P2p { s: 0, t: 0 };
            match c.issue(&req, &inst.oracle, None) {
                Ok(a) if req.verify(&inst.oracle, &a) => {}
                other => return Err(format!("first request through the serving path: {other:?}")),
            }
        }
        Ok(Serve {
            kind: p.kind,
            inst,
            service,
            server: Some(server),
            router,
            clients,
        })
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }

    fn measure(
        &mut self,
        p: &Params,
        seconds: f64,
        tracer: Option<&mut Tracer>,
    ) -> Result<Measured, String> {
        let before = ServiceCounts::read(&self.service);
        let mut rig = tracer.as_deref().map(|t| self.traced_rig(t)).transpose()?;
        let (_, windows) = plan(seconds);
        let (start, period, oracle) = (Instant::now(), self.period(), &self.inst.oracle);
        let samples = match &mut rig {
            Some(rig) => drive(
                &mut rig.clients,
                oracle,
                p.seed,
                self.kind,
                period,
                start,
                &windows,
            ),
            None => drive(
                &mut self.clients,
                oracle,
                p.seed,
                self.kind,
                period,
                start,
                &windows,
            ),
        };
        let s = summarize(&samples, &windows, period.map(|_| MIXED_SLO_MS))?;
        let mut counts = before.delta(&ServiceCounts::read(&self.service));
        counts.push(("client.p99_ms".into(), s.p99_ms));
        counts.push(("loadgen.late_p99_ms".into(), s.late_p99_ms));
        counts.push(("loadgen.slo_share".into(), s.good_share));
        counts.extend(router_counts(
            rig.as_ref()
                .map_or(self.router.as_ref(), |r| r.router.as_ref()),
        ));
        if let (Some(rig), Some(t)) = (rig, tracer) {
            rig.finish(t);
        }
        Ok(Measured {
            attempted: s.attempted,
            failed: s.failed,
            p50_ms: s.p50s,
            p95_ms: s.p95s,
            throughput: s.rates,
            preprocess_s: Vec::new(),
            load_ms: Vec::new(),
            counts,
            detail: s.detail,
        })
    }

    fn teardown(mut self) {
        self.clients.clear();
        if let Some(r) = self.router.take() {
            r.shutdown();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        self.service.shutdown();
    }
}

/// The scheduler counters the layer metrics are derived from, read from
/// the same report the `stats` op serves.
pub struct ServiceCounts(phast_obs::Report);

impl ServiceCounts {
    /// Reads the counters now.
    pub fn read(service: &Service) -> ServiceCounts {
        ServiceCounts(service.stats().report("phast-serve"))
    }

    fn count(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(phast_obs::MetricValue::Count(c)) => *c as f64,
            _ => 0.0,
        }
    }

    /// Layer metrics of what happened between `self` and `after`.
    pub fn delta(&self, after: &ServiceCounts) -> Vec<(String, f64)> {
        let d = |name: &str| after.count(name) - self.count(name);
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let multi = d("multi_batches");
        let executions = multi + d("p2p_fallbacks") + d("scalar_fallbacks") + d("matrix_requests");
        let (builds, hits) = (d("selection_builds"), d("selection_cache_hits"));
        vec![
            (
                "serve.batch_occupancy".into(),
                share(d("batched_requests"), d("batches")),
            ),
            ("serve.multi_batch_share".into(), share(multi, executions)),
            ("serve.shed".into(), d("shed_overload")),
            ("serve.deadline_misses".into(), d("deadline_misses")),
            (
                "serve.selection_cache_hit_share".into(),
                share(hits, hits + builds),
            ),
        ]
    }
}
