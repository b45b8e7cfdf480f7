//! The batching scheduler: a bounded admission queue, a batch window, and
//! a worker pool draining into `k`-trees-per-sweep engines.
//!
//! ## Invariants
//!
//! * **Bounded admission.** [`Service::submit`] never blocks: a full
//!   queue rejects with [`ErrorKind::QueueFull`]; a closed service
//!   rejects with [`ErrorKind::Shutdown`]. Backpressure is the caller's
//!   signal, not a hidden stall.
//! * **Load shedding.** Before the hard capacity backstop, a queue at or
//!   past [`ServeConfig::shed_queue_depth`] (or whose smoothed wait
//!   exceeds [`ServeConfig::shed_wait`]) sheds new submissions with
//!   [`ErrorKind::Overloaded`] and a latency-derived `retry_after_ms`
//!   hint — refusing early beats queuing until deadlines blow (see
//!   [`crate::overload`]).
//! * **Window, then drain.** A worker adopts the queue's head, waits at
//!   most [`ServeConfig::window`] for companions, then drains up to
//!   [`ServeConfig::max_k`] requests as one batch. The window closes early
//!   when the queue reaches the maximum width, or when every live
//!   line-front connection has a request admitted and unanswered: a front
//!   answers a line before it reads the next, so no companion can come
//!   from them until this batch runs (`windows_closed_early`). A service
//!   with no front connection (in-process [`Service::call`] /
//!   [`Service::submit`]) or with an idle one waits out the clock
//!   (`windows_expired`).
//! * **Degradation ladder.** A worker owns one sweep engine of `max_k`
//!   lanes and sets the lane count per batch: a batch of `r` requests
//!   runs at the narrowest configured width `>= r` (by default 4 / 8 /
//!   16, padded with duplicate lanes). A batch of one degrades further: a
//!   lone point-to-point request runs a bidirectional CH query, anything
//!   else the same engine at one lane. Every rung computes exact
//!   distances, so the ladder is invisible in the answers.
//! * **Matrix rung.** A many-to-many `matrix` request is its own batch:
//!   the worker takes it alone (no window wait — the request already
//!   amortizes internally), builds one RPHAST target selection, and runs
//!   every source through `max_k`-lane sweeps of that selection on the
//!   same engine. Each worker keeps a bounded LRU
//!   ([`SELECTION_CACHE_CAPACITY`] entries) of recent selections keyed
//!   by their exact target lists, so matrix requests cycling over a few
//!   hot target fleets skip the build
//!   (`selection_cache_hits`); overflow evicts the least-recently-used
//!   entry (`selection_cache_evictions`), and a quarantined panic clears
//!   the cache with the rest of the engine state.
//! * **Deadlines.** A request carrying a deadline that expires before its
//!   batch forms is answered with [`ErrorKind::DeadlineExceeded`] and
//!   excluded from the batch; once computation starts the answer is
//!   always delivered.
//! * **Metric epochs.** The instance a worker sweeps is not a fixed
//!   field but a [`MetricEpoch`] — an immutable `(id, Phast, Hierarchy)`
//!   snapshot. Every job captures the epoch current at admission and is
//!   executed on exactly that epoch, even if [`Service::swap_epoch`]
//!   publishes a newer one while the job is queued (the
//!   `queries_on_stale_metric` counter makes the overlap observable).
//!   Publishing a swap is a pointer store under the queue lock —
//!   microseconds, measured by `swap_latency_us` — and workers rebuild
//!   their engines against the new snapshot between batches, so queries
//!   keep flowing through a swap with zero downtime and zero wrong
//!   answers.
//! * **Graceful shutdown.** [`Service::shutdown`] stops admissions,
//!   wakes the workers, and joins them only after the queue is drained —
//!   every admitted request receives a reply.
//! * **Supervision.** Batch execution runs under `catch_unwind`. A panic
//!   (engine bug, poisoned input) quarantines the batch — every request
//!   in it receives a typed [`ErrorKind::Internal`] reply instead of a
//!   dropped connection — and the worker discards its possibly-corrupt
//!   engine state and rebuilds it before taking the next batch. The
//!   `worker_restarts` / `quarantined_requests` counters in
//!   [`ServiceStats`] make these events observable.

use crate::overload::LoadTracker;
use crate::protocol::{ErrorKind, ServeError, MAX_MATRIX_CELLS, MAX_MATRIX_SOURCES, MAX_TARGETS};
use crate::stats::ServiceStats;
use phast_ch::{contract_graph, ChQuery, ContractionConfig, Hierarchy};
use phast_core::simd::MAX_K;
use phast_core::{
    run_hetero_batch, HeteroAnswer, HeteroQuery, MultiTreeEngine, Phast, PhastBuilder,
    SelectionBuilder, TargetSelection,
};
use phast_graph::{Graph, Vertex, Weight, INF};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests per batched sweep (`1..=64`); the engine ladder
    /// is every power of two in `{4, 8, 16, ...}` up to this value.
    pub max_k: usize,
    /// The longest a worker holds the first request of a batch open for
    /// companions. Zero batches whatever is already queued. The window
    /// ends sooner once every live front connection is waiting on an
    /// admitted request, since none of them can send a companion.
    pub window: Duration,
    /// Admission queue capacity; submissions beyond it are rejected with
    /// [`ErrorKind::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Queue depth at which submissions are shed with a typed
    /// [`ErrorKind::Overloaded`] reply carrying a `retry_after_ms` hint —
    /// graceful refusal *before* the hard `queue_capacity` backstop.
    /// Set `>= queue_capacity` to disable shedding.
    pub shed_queue_depth: usize,
    /// Optional latency trigger: when the smoothed admission-to-batch
    /// wait exceeds this, submissions are shed even at shallow queue
    /// depths (requests are expensive, not merely numerous). `None`
    /// disables the latency signal.
    pub shed_wait: Option<Duration>,
    /// Maximum concurrent TCP connections the front end admits; one more
    /// is refused with a typed [`ErrorKind::Busy`] reply and closed.
    pub max_conns: usize,
    /// Per-connection socket read/write timeout: a client that stalls a
    /// read or write longer than this is reaped. `Duration::ZERO`
    /// disables the timeouts (not recommended outside tests).
    pub io_timeout: Duration,
    /// Hard cap on one request line's bytes; a longer line is answered
    /// with a typed `malformed` reply and the connection is closed
    /// without buffering the tail.
    pub max_line_bytes: usize,
    /// **Fault-injection hook** (tests and soak runs only): any batch
    /// containing a query with this source panics inside the worker,
    /// exercising the supervision path. `None` — the default, and the
    /// only sensible production value — disables the hook entirely.
    pub panic_on_source: Option<Vertex>,
    /// How many superseded epochs the rollback history retains. Each
    /// retained epoch pins a full `(Phast, Hierarchy)` in memory, so this
    /// is a deliberate space-for-safety trade; `0` disables rollback
    /// entirely ([`Service::rollback_epoch`] then always fails typed).
    pub epoch_history: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_k: 16,
            window: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 2,
            shed_queue_depth: 768,
            shed_wait: None,
            max_conns: 256,
            io_timeout: Duration::from_secs(10),
            max_line_bytes: 256 * 1024,
            panic_on_source: None,
            epoch_history: 4,
        }
    }
}

impl ServeConfig {
    /// The engine widths this configuration batches into: 4 and 8 where
    /// they fit under `max_k`, then `max_k` itself.
    pub fn width_ladder(&self) -> Vec<usize> {
        let mut ladder: Vec<usize> = [4usize, 8, 16]
            .into_iter()
            .filter(|&w| w < self.max_k)
            .collect();
        ladder.push(self.max_k);
        ladder
    }
}

/// How many distinct target selections a worker's LRU cache retains.
/// Small and fixed: one selection is `O(selected vertices)` of memory per
/// worker, so an unbounded cache under adversarial target churn is a slow
/// memory leak. Eight covers the "few hot fleets polled round-robin"
/// pattern that motivated caching in the first place.
pub const SELECTION_CACHE_CAPACITY: usize = 8;

/// One immutable metric snapshot: the preprocessed instance (and the
/// hierarchy powering the point-to-point rung) the service answers
/// queries on. Swapping metrics publishes a new `MetricEpoch`; in-flight
/// jobs keep the `Arc` they captured at admission, so a swap never
/// changes the metric a request is answered under.
pub struct MetricEpoch {
    /// Monotonically increasing epoch number (the first epoch is 1).
    /// Rollbacks also mint a *new* id — epoch ids never move backwards,
    /// so every stale-epoch comparison in the pipeline stays valid.
    pub id: u64,
    /// The preprocessed sweep instance for this metric.
    pub phast: Arc<Phast>,
    /// Optional hierarchy enabling the bidirectional-CH rung.
    pub hierarchy: Option<Arc<Hierarchy>>,
    /// `Some(bad_id)` when this epoch was published by
    /// [`Service::rollback_epoch`] to displace epoch `bad_id`; `None` for
    /// ordinary swaps. Purely observability — execution never branches on
    /// it.
    pub rolled_back_from: Option<u64>,
}

/// A reply to one scheduled job.
type JobReply = Result<HeteroAnswer, ServeError>;

/// What one admitted job asks the worker to compute.
enum WorkItem {
    /// A lane-shaped query riding a heterogeneous batch.
    Query(HeteroQuery),
    /// A many-to-many matrix; runs alone on the restricted-sweep rung.
    Matrix {
        sources: Vec<Vertex>,
        targets: Vec<Vertex>,
    },
}

struct Job {
    work: WorkItem,
    deadline: Option<Instant>,
    admitted_at: Instant,
    /// The metric epoch current at admission; the job executes on exactly
    /// this snapshot regardless of later swaps.
    epoch: Arc<MetricEpoch>,
    reply: mpsc::Sender<JobReply>,
}

struct SchedState {
    queue: VecDeque<Job>,
    open: bool,
    /// The epoch new admissions capture. Swaps replace this `Arc` under
    /// the queue lock so admission and publication are atomic w.r.t.
    /// each other.
    epoch: Arc<MetricEpoch>,
    /// Bounded ring of superseded epochs, most recent at the back. A
    /// swap pushes the displaced epoch here (evicting the oldest past
    /// `cfg.epoch_history`); a rollback pops the back and re-publishes
    /// it. An epoch displaced *by* a rollback is discarded, never
    /// re-enrolled — rolling back twice keeps walking into the past
    /// instead of ping-ponging onto the bad metric.
    history: VecDeque<Arc<MetricEpoch>>,
    /// Live line-front connections (opened, not yet closed).
    front_conns: usize,
    /// Front connections with a request admitted and not yet answered.
    front_waiting: usize,
}

impl SchedState {
    /// Whether every live front connection waits on an admitted request.
    /// A front reads a connection's next line only after answering the
    /// last, so none of them can send a companion: holding a window open
    /// longer gains nothing.
    fn fronts_all_waiting(&self) -> bool {
        self.front_conns > 0 && self.front_waiting >= self.front_conns
    }
}

/// Who submitted a job: an in-process caller, or a line-front connection
/// that sends nothing more until this job is answered.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Caller {
    InProcess,
    Front,
}

struct Shared {
    /// Vertex count, invariant across metric swaps (the topology is
    /// frozen; only weights change), so admission validation never needs
    /// the epoch lock.
    num_vertices: usize,
    cfg: ServeConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    stats: ServiceStats,
    load: LoadTracker,
    /// The id of the most recently published epoch — a lock-free copy of
    /// `SchedState::epoch.id` letting idle workers notice a swap without
    /// reacquiring the queue lock contents, and letting the execution
    /// path count `queries_on_stale_metric`.
    published: AtomicU64,
}

/// The embeddable batching service. Cheap to share (`Arc`); the TCP
/// front end in [`crate::server`] is one possible caller, in-process
/// embedding another.
pub struct Service {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Starts a service over a preprocessed instance. `hierarchy`
    /// (optional) enables the bidirectional-CH rung of the degradation
    /// ladder for lone point-to-point requests.
    pub fn new(
        phast: Arc<Phast>,
        hierarchy: Option<Arc<Hierarchy>>,
        cfg: ServeConfig,
    ) -> Arc<Service> {
        assert!(
            (1..=MAX_K).contains(&cfg.max_k),
            "max_k must be in 1..={MAX_K}"
        );
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.shed_queue_depth > 0, "shed depth must be positive");
        assert!(cfg.max_conns > 0, "need room for at least one connection");
        assert!(cfg.max_line_bytes > 0, "line cap must be positive");
        let num_vertices = phast.num_vertices();
        let epoch = Arc::new(MetricEpoch {
            id: 1,
            phast,
            hierarchy,
            rolled_back_from: None,
        });
        let shared = Arc::new(Shared {
            num_vertices,
            cfg,
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                open: true,
                epoch,
                history: VecDeque::new(),
                front_conns: 0,
                front_waiting: 0,
            }),
            cv: Condvar::new(),
            stats: ServiceStats::default(),
            load: LoadTracker::default(),
            published: AtomicU64::new(1),
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phast-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Arc::new(Service {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Convenience constructor: contracts `g`, builds the sweep instance,
    /// and keeps the hierarchy for the point-to-point fallback.
    pub fn for_graph(g: &Graph, cfg: ServeConfig) -> Arc<Service> {
        let h = contract_graph(g, &ContractionConfig::default());
        let p = PhastBuilder::new().build_with_hierarchy(g, &h);
        Service::new(Arc::new(p), Some(Arc::new(h)), cfg)
    }

    /// The instance the *current* epoch answers queries on. A metric swap
    /// replaces the epoch, so callers wanting a stable snapshot should
    /// hold the [`MetricEpoch`] from [`Service::current_epoch`] instead.
    pub fn phast(&self) -> Arc<Phast> {
        Arc::clone(&self.current_epoch().phast)
    }

    /// The currently published metric epoch. The returned `Arc` is a
    /// stable snapshot: it stays valid (and exact for its weights) even
    /// if a newer epoch is published afterwards.
    pub fn current_epoch(&self) -> Arc<MetricEpoch> {
        Arc::clone(&self.shared.state.lock().unwrap().epoch)
    }

    /// The id of the most recently published epoch (the first is 1).
    pub fn epoch_id(&self) -> u64 {
        self.shared.published.load(Ordering::SeqCst)
    }

    /// Publishes a new metric epoch and returns its id. Requests admitted
    /// before the swap complete on the epoch they captured; requests
    /// admitted after it run on the new one — the boundary is the queue
    /// lock, so there is no window where a request runs on a mix.
    ///
    /// The new instance must describe the same vertex set (a metric swap
    /// changes weights, never topology); anything else is rejected with a
    /// typed [`ErrorKind::BadRequest`] and leaves the current epoch
    /// untouched.
    pub fn swap_epoch(
        &self,
        phast: Arc<Phast>,
        hierarchy: Option<Arc<Hierarchy>>,
    ) -> Result<u64, ServeError> {
        let start = Instant::now();
        if phast.num_vertices() != self.shared.num_vertices {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                format!(
                    "metric swap changes the vertex count ({} -> {}); \
                     swaps may change weights, never topology",
                    self.shared.num_vertices,
                    phast.num_vertices()
                ),
            ));
        }
        let id = {
            let mut g = self.shared.state.lock().unwrap();
            if !g.open {
                return Err(ServeError::new(
                    ErrorKind::Shutdown,
                    "service is shutting down",
                ));
            }
            let id = g.epoch.id + 1;
            let displaced = std::mem::replace(
                &mut g.epoch,
                Arc::new(MetricEpoch {
                    id,
                    phast,
                    hierarchy,
                    rolled_back_from: None,
                }),
            );
            if self.shared.cfg.epoch_history > 0 {
                g.history.push_back(displaced);
                while g.history.len() > self.shared.cfg.epoch_history {
                    g.history.pop_front();
                }
            }
            self.shared.published.store(id, Ordering::SeqCst);
            id
        };
        // Wake idle workers so they rebuild onto the new epoch now, not
        // on the first post-swap request's critical path.
        self.shared.cv.notify_all();
        self.shared.stats.add_metric_swaps(1);
        self.shared
            .stats
            .add_swap_latency_us(start.elapsed().as_micros() as u64);
        Ok(id)
    }

    /// Atomically re-publishes the most recent predecessor epoch from the
    /// rollback history and returns the *new* epoch id.
    ///
    /// The predecessor's instance comes back under a fresh, strictly
    /// larger id (stamped with [`MetricEpoch::rolled_back_from`]), so
    /// epoch ids stay monotone and replies admitted after the rollback
    /// are visibly stamped with the rollback epoch. The displaced (bad)
    /// epoch is discarded rather than re-enrolled in the history:
    /// consecutive rollbacks walk further into the past.
    ///
    /// Fails typed with [`ErrorKind::BadRequest`] when the history is
    /// empty (nothing was ever swapped, every predecessor was already
    /// consumed, or `epoch_history` is 0) and with
    /// [`ErrorKind::Shutdown`] once the service is closing. Either way
    /// the current epoch keeps serving untouched.
    pub fn rollback_epoch(&self) -> Result<u64, ServeError> {
        let start = Instant::now();
        let id = {
            let mut g = self.shared.state.lock().unwrap();
            if !g.open {
                return Err(ServeError::new(
                    ErrorKind::Shutdown,
                    "service is shutting down",
                ));
            }
            let Some(prev) = g.history.pop_back() else {
                return Err(ServeError::new(
                    ErrorKind::BadRequest,
                    "no predecessor epoch in the rollback history",
                ));
            };
            let id = g.epoch.id + 1;
            g.epoch = Arc::new(MetricEpoch {
                id,
                phast: Arc::clone(&prev.phast),
                hierarchy: prev.hierarchy.clone(),
                rolled_back_from: Some(g.epoch.id),
            });
            self.shared.published.store(id, Ordering::SeqCst);
            id
        };
        self.shared.cv.notify_all();
        self.shared.stats.add_epoch_rollbacks(1);
        self.shared
            .stats
            .add_swap_latency_us(start.elapsed().as_micros() as u64);
        Ok(id)
    }

    /// How many predecessor epochs the rollback history currently holds.
    pub fn epoch_history_len(&self) -> usize {
        self.shared.state.lock().unwrap().history.len()
    }

    /// The service-level counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.shared.stats
    }

    /// The latency tracker feeding the overload policy.
    pub fn load(&self) -> &LoadTracker {
        &self.shared.load
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Submits a query without blocking. Returns the receiver the reply
    /// will arrive on, or a typed rejection ([`ErrorKind::Overloaded`],
    /// [`ErrorKind::QueueFull`], [`ErrorKind::Shutdown`],
    /// [`ErrorKind::BadRequest`]).
    pub fn submit(
        &self,
        query: HeteroQuery,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<JobReply>, ServeError> {
        self.validate(&query)?;
        let work = WorkItem::Query(query);
        Ok(self.submit_work(work, deadline, Caller::InProcess)?.0)
    }

    /// Submits a many-to-many matrix request without blocking. Targets
    /// must be duplicate-free and in range (rejected with a typed
    /// [`ErrorKind::Malformed`] — a sloppy target list is a client bug
    /// the engine layer must never paper over); sources are subject to
    /// the same range check and caps as every other query shape.
    pub fn submit_matrix(
        &self,
        sources: Vec<Vertex>,
        targets: Vec<Vertex>,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<JobReply>, ServeError> {
        self.validate_matrix(&sources, &targets)?;
        let work = WorkItem::Matrix { sources, targets };
        Ok(self.submit_work(work, deadline, Caller::InProcess)?.0)
    }

    /// Submits work, returning the reply receiver and the id of the epoch
    /// the job was admitted under (and will therefore execute on). A front
    /// caller counts as waiting from admission until
    /// [`Self::await_reply`].
    fn submit_work(
        &self,
        work: WorkItem,
        deadline: Option<Duration>,
        caller: Caller,
    ) -> Result<(mpsc::Receiver<JobReply>, u64), ServeError> {
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let epoch_id;
        {
            let cfg = &self.shared.cfg;
            let mut g = self.shared.state.lock().unwrap();
            if !g.open {
                return Err(ServeError::new(
                    ErrorKind::Shutdown,
                    "service is shutting down",
                ));
            }
            if g.queue.len() >= cfg.queue_capacity {
                self.shared.stats.add_rejected_queue_full(1);
                return Err(ServeError::new(
                    ErrorKind::QueueFull,
                    format!("admission queue at capacity {}", cfg.queue_capacity),
                ));
            }
            // Load shedding happens *before* admission: a shed request
            // never consumed a queue slot, and its retry hint reflects
            // the drain time of what is already queued.
            if let Some(retry_after_ms) = self.shared.load.should_shed(
                g.queue.len(),
                cfg.shed_queue_depth,
                cfg.shed_wait,
            ) {
                self.shared.stats.add_shed_overload(1);
                return Err(ServeError::overloaded(
                    retry_after_ms,
                    format!(
                        "service overloaded ({} queued); retry in ~{retry_after_ms}ms",
                        g.queue.len()
                    ),
                ));
            }
            let job = Job {
                work,
                deadline: deadline.map(|d| now + d),
                admitted_at: now,
                epoch: Arc::clone(&g.epoch),
                reply: tx,
            };
            epoch_id = g.epoch.id;
            g.queue.push_back(job);
            if caller == Caller::Front {
                g.front_waiting += 1;
            }
        }
        self.shared.stats.add_admitted(1);
        self.shared.cv.notify_all();
        Ok((rx, epoch_id))
    }

    /// Submits and blocks until the reply arrives. The optional deadline
    /// is measured from now (admission).
    pub fn call(
        &self,
        query: HeteroQuery,
        deadline: Option<Duration>,
    ) -> Result<HeteroAnswer, ServeError> {
        self.call_with_epoch(query, deadline).map(|(a, _)| a)
    }

    /// Like [`Service::call`], additionally returning the id of the
    /// metric epoch the request was admitted under — the epoch its answer
    /// is exact for.
    pub fn call_with_epoch(
        &self,
        query: HeteroQuery,
        deadline: Option<Duration>,
    ) -> Result<(HeteroAnswer, u64), ServeError> {
        self.call_as(Caller::InProcess, query, deadline)
    }

    /// [`Service::call_with_epoch`] submitted on behalf of `caller`.
    pub(crate) fn call_as(
        &self,
        caller: Caller,
        query: HeteroQuery,
        deadline: Option<Duration>,
    ) -> Result<(HeteroAnswer, u64), ServeError> {
        self.validate(&query)?;
        let (rx, epoch_id) = self.submit_work(WorkItem::Query(query), deadline, caller)?;
        self.await_reply(&rx, caller).map(|a| (a, epoch_id))
    }

    /// Blocks until `rx` delivers the reply; a front caller stops
    /// counting as waiting.
    fn await_reply(&self, rx: &mpsc::Receiver<JobReply>, caller: Caller) -> JobReply {
        let reply = rx.recv().unwrap_or_else(|_| {
            Err(ServeError::new(
                ErrorKind::Internal,
                "worker dropped the request",
            ))
        });
        if caller == Caller::Front {
            self.shared.state.lock().unwrap().front_waiting -= 1;
        }
        reply
    }

    /// A line-front connection opened: from now on a window that waits
    /// for companions waits for it too.
    pub(crate) fn front_opened(&self) {
        self.shared.state.lock().unwrap().front_conns += 1;
    }

    /// A line-front connection closed: the connections left may all be
    /// waiting, so a worker holding a window open re-checks.
    pub(crate) fn front_closed(&self) {
        self.shared.state.lock().unwrap().front_conns -= 1;
        self.shared.cv.notify_all();
    }

    /// Submits a matrix request and blocks until the rows arrive (one row
    /// per source, one column per target).
    pub fn matrix(
        &self,
        sources: Vec<Vertex>,
        targets: Vec<Vertex>,
        deadline: Option<Duration>,
    ) -> Result<Vec<Vec<Weight>>, ServeError> {
        self.matrix_with_epoch(sources, targets, deadline)
            .map(|(rows, _)| rows)
    }

    /// Like [`Service::matrix`], additionally returning the id of the
    /// metric epoch the request was admitted under.
    pub fn matrix_with_epoch(
        &self,
        sources: Vec<Vertex>,
        targets: Vec<Vertex>,
        deadline: Option<Duration>,
    ) -> Result<(Vec<Vec<Weight>>, u64), ServeError> {
        self.matrix_as(Caller::InProcess, sources, targets, deadline)
    }

    /// [`Service::matrix_with_epoch`] submitted on behalf of `caller`.
    pub(crate) fn matrix_as(
        &self,
        caller: Caller,
        sources: Vec<Vertex>,
        targets: Vec<Vertex>,
        deadline: Option<Duration>,
    ) -> Result<(Vec<Vec<Weight>>, u64), ServeError> {
        self.validate_matrix(&sources, &targets)?;
        let work = WorkItem::Matrix { sources, targets };
        let (rx, epoch_id) = self.submit_work(work, deadline, caller)?;
        match self.await_reply(&rx, caller)? {
            HeteroAnswer::Matrix(rows) => Ok((rows, epoch_id)),
            _ => Err(ServeError::new(
                ErrorKind::Internal,
                "matrix job answered with a non-matrix shape",
            )),
        }
    }

    fn validate(&self, query: &HeteroQuery) -> Result<(), ServeError> {
        let n = self.shared.num_vertices as u64;
        let check = |v: u32, what: &str| -> Result<(), ServeError> {
            if u64::from(v) >= n {
                self.shared.stats.add_rejected_invalid(1);
                Err(ServeError::new(
                    ErrorKind::BadRequest,
                    format!("{what} {v} out of range (graph has {n} vertices)"),
                ))
            } else {
                Ok(())
            }
        };
        match query {
            HeteroQuery::Tree { source } => check(*source, "source"),
            HeteroQuery::Many { source, targets } => {
                check(*source, "source")?;
                targets.iter().try_for_each(|&t| check(t, "target"))
            }
            HeteroQuery::Point { source, target } => {
                check(*source, "source")?;
                check(*target, "target")
            }
        }
    }

    /// The single source of truth for matrix-request validation, shared
    /// by the wire path and in-process embedders. Sources violations are
    /// [`ErrorKind::BadRequest`] like every other query shape; target
    /// violations (duplicates, out-of-range ids) are
    /// [`ErrorKind::Malformed`] — the target list keys the per-worker
    /// selection cache, so a sloppy list is a malformed request the
    /// engine layer must never silently dedup or panic over.
    fn validate_matrix(&self, sources: &[Vertex], targets: &[Vertex]) -> Result<(), ServeError> {
        let n = self.shared.num_vertices as u64;
        let reject = |kind: ErrorKind, msg: String| -> ServeError {
            self.shared.stats.add_rejected_invalid(1);
            ServeError::new(kind, msg)
        };
        if sources.is_empty() || sources.len() > MAX_MATRIX_SOURCES {
            return Err(reject(
                ErrorKind::BadRequest,
                format!("`sources` must hold 1..={MAX_MATRIX_SOURCES} entries"),
            ));
        }
        if targets.is_empty() || targets.len() > MAX_TARGETS {
            return Err(reject(
                ErrorKind::BadRequest,
                format!("`targets` must hold 1..={MAX_TARGETS} entries"),
            ));
        }
        if sources.len() * targets.len() > MAX_MATRIX_CELLS {
            return Err(reject(
                ErrorKind::BadRequest,
                format!(
                    "matrix of {}x{} exceeds the {MAX_MATRIX_CELLS}-cell cap",
                    sources.len(),
                    targets.len()
                ),
            ));
        }
        for &s in sources {
            if u64::from(s) >= n {
                return Err(reject(
                    ErrorKind::BadRequest,
                    format!("source {s} out of range (graph has {n} vertices)"),
                ));
            }
        }
        let mut seen = HashSet::with_capacity(targets.len());
        for &t in targets {
            if u64::from(t) >= n {
                return Err(reject(
                    ErrorKind::Malformed,
                    format!("matrix target {t} out of range (graph has {n} vertices)"),
                ));
            }
            if !seen.insert(t) {
                return Err(reject(
                    ErrorKind::Malformed,
                    format!("matrix target {t} appears more than once"),
                ));
            }
        }
        Ok(())
    }

    /// A synchronous handle on the worker batch-execution path — the
    /// benchable hook. The runner owns the same engine state a worker
    /// builds and [`BatchRunner::run`] drives the exact `execute_batch`
    /// code (ladder selection, padding, stats merge) without the queue,
    /// window, or reply channels, so a perf harness can measure the
    /// service's compute path deterministically.
    ///
    /// The caller owns the epoch snapshot the runner's engines borrow —
    /// typically `let epoch = svc.current_epoch();` immediately before.
    pub fn batch_runner<'e>(&'e self, epoch: &'e MetricEpoch) -> BatchRunner<'e> {
        BatchRunner {
            shared: &self.shared,
            engines: WorkerEngines::build(epoch, &self.shared.cfg),
        }
    }

    /// Stops admitting requests, drains every queued job, and joins the
    /// workers. Idempotent; concurrent submissions observe
    /// [`ErrorKind::Shutdown`].
    pub fn shutdown(&self) {
        {
            let mut g = self.shared.state.lock().unwrap();
            g.open = false;
        }
        self.shared.cv.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-worker compute state, built against one [`MetricEpoch`]
/// snapshot. Everything in here may be left half-updated by a panic, so
/// the supervision path throws the whole bundle away and rebuilds it from
/// the immutable epoch; a metric swap retires it the same way (between
/// batches, never mid-batch).
struct WorkerEngines<'p> {
    /// The one sweep engine, `max_k` lanes of capacity: every rung — a
    /// lone tree at one lane, a batch at its ladder width, a matrix at
    /// `max_k` restricted lanes — sets the lane count it runs at.
    engine: MultiTreeEngine<'p>,
    ch_query: Option<ChQuery<'p>>,
    /// RPHAST state for the matrix rung: a reusable selection builder and
    /// a bounded LRU of recent selections keyed by their exact target
    /// lists (most recent first; at most [`SELECTION_CACHE_CAPACITY`]
    /// entries).
    sel_builder: SelectionBuilder<'p>,
    selections: VecDeque<(Vec<Vertex>, TargetSelection<'p>)>,
}

impl<'p> WorkerEngines<'p> {
    fn build(epoch: &'p MetricEpoch, cfg: &ServeConfig) -> Self {
        let phast: &Phast = &epoch.phast;
        WorkerEngines {
            engine: phast.multi_engine(cfg.max_k),
            ch_query: epoch.hierarchy.as_deref().map(ChQuery::new),
            sel_builder: SelectionBuilder::new(phast),
            selections: VecDeque::new(),
        }
    }
}

/// Borrowed worker engines executing batches synchronously through the
/// scheduler's own batch path (see [`Service::batch_runner`]). Queries
/// must already be in range — the runner sits *below* admission
/// validation, exactly like a worker.
pub struct BatchRunner<'s> {
    shared: &'s Shared,
    engines: WorkerEngines<'s>,
}

impl BatchRunner<'_> {
    /// Executes one batch; element `i` answers `queries[i]`. Batches
    /// larger than the configured `max_k` panic (a worker never forms
    /// one), as does an out-of-range vertex — callers wanting typed
    /// errors go through [`Service::submit`].
    pub fn run(&mut self, queries: &[HeteroQuery]) -> Vec<HeteroAnswer> {
        assert!(
            queries.len() <= self.shared.cfg.max_k,
            "batch of {} exceeds max_k {}",
            queries.len(),
            self.shared.cfg.max_k
        );
        execute_batch(self.shared, queries, &mut self.engines)
    }

    /// Executes one matrix request through the real matrix rung —
    /// selection build (or cache hit), restricted sweeps, stats merge —
    /// without the queue or reply channels. Inputs must already be valid
    /// (in-range, duplicate-free targets), exactly like [`Self::run`].
    pub fn run_matrix(&mut self, sources: &[Vertex], targets: &[Vertex]) -> Vec<Vec<Weight>> {
        match execute_matrix(self.shared, sources, targets, &mut self.engines) {
            HeteroAnswer::Matrix(rows) => rows,
            other => unreachable!("matrix rung answered {other:?}"),
        }
    }
}

/// One worker: its [`WorkerEngines`], looping over window-formed batches
/// until shutdown empties the queue.
///
/// The loop is its own supervisor: batch execution runs under
/// `catch_unwind`, with the reply senders held *outside* the unwind
/// boundary, so a panicking engine can never strand a request. After a
/// panic the worker answers the quarantined batch with typed errors,
/// rebuilds its engines from the immutable instance, and keeps draining —
/// the thread itself never dies, so no capacity is silently lost.
fn worker_loop(shared: &Shared) {
    let mut current: Arc<MetricEpoch> = Arc::clone(&shared.state.lock().unwrap().epoch);
    loop {
        // The engines borrow `epoch` (a stack-owned `Arc` keeping the
        // snapshot alive), so both live exactly one `drain_on_epoch`
        // round; switching epochs or quarantining a panic drops them
        // together and loops back here to rebuild.
        let epoch = Arc::clone(&current);
        let mut engines = WorkerEngines::build(&epoch, &shared.cfg);
        match drain_on_epoch(shared, &epoch, &mut engines) {
            DrainExit::Shutdown => return,
            DrainExit::Switch(next) => current = next,
            DrainExit::Rebuild => {}
        }
    }
}

/// Why [`drain_on_epoch`] handed control back to [`worker_loop`].
enum DrainExit {
    /// The service closed and the queue is drained.
    Shutdown,
    /// The next job (or the published epoch, while idle) belongs to a
    /// different metric epoch; rebuild the engines against it.
    Switch(Arc<MetricEpoch>),
    /// A panic quarantined the engines; rebuild on the same epoch.
    Rebuild,
}

/// Drains batches admitted under `epoch` until the service shuts down,
/// the epoch is superseded, or a panic requires an engine rebuild. Every
/// batch formed here is epoch-homogeneous: a swap mid-queue splits the
/// batch at the boundary, so no sweep ever mixes metrics.
fn drain_on_epoch(
    shared: &Shared,
    epoch: &MetricEpoch,
    engines: &mut WorkerEngines<'_>,
) -> DrainExit {
    let cfg = &shared.cfg;
    loop {
        let batch = {
            let mut g = shared.state.lock().unwrap();
            loop {
                if let Some(head) = g.queue.front() {
                    if head.epoch.id != epoch.id {
                        return DrainExit::Switch(Arc::clone(&head.epoch));
                    }
                    break;
                }
                if !g.open {
                    return DrainExit::Shutdown; // closed and drained
                }
                // Idle and a newer epoch is published: rebuild now, off
                // any request's critical path, and release the old
                // snapshot's memory.
                if shared.published.load(Ordering::SeqCst) != epoch.id {
                    return DrainExit::Switch(Arc::clone(&g.epoch));
                }
                g = shared.cv.wait(g).unwrap();
            }
            // A matrix job at the head runs alone on its own rung — it
            // already amortizes one selection over many sources, so there
            // is nothing for a window to gather.
            let head_is_matrix = matches!(
                g.queue.front().map(|j| &j.work),
                Some(WorkItem::Matrix { .. })
            );
            if head_is_matrix {
                vec![g.queue.pop_front().expect("head observed above")]
            } else {
                // Hold the window open for companions; leave early when
                // the batch is full, the service is draining for
                // shutdown, or no front connection can send a companion.
                // `ended` is the counter of the rule that closed the
                // window, bumped only if this worker drains a batch.
                let window_end = Instant::now() + cfg.window;
                let mut ended: Option<fn(&ServiceStats, u64)> = None;
                while g.queue.len() < cfg.max_k && g.open {
                    if g.fronts_all_waiting() {
                        ended = Some(ServiceStats::add_windows_closed_early);
                        break;
                    }
                    let now = Instant::now();
                    if now >= window_end {
                        ended = Some(ServiceStats::add_windows_expired);
                        break;
                    }
                    let (guard, _) = shared.cv.wait_timeout(g, window_end - now).unwrap();
                    g = guard;
                }
                // Drain only the leading lane-shaped jobs *of this
                // epoch*: a matrix job or an epoch boundary mid-queue
                // ends the batch. The window wait released the lock, so
                // other workers may have stolen everything (take = 0 →
                // loop back around) or left a matrix job / foreign-epoch
                // job at the head (same).
                let take = g
                    .queue
                    .iter()
                    .take(cfg.max_k)
                    .take_while(|j| {
                        matches!(j.work, WorkItem::Query(_)) && j.epoch.id == epoch.id
                    })
                    .count();
                if let Some(count) = ended.filter(|_| take > 0) {
                    count(&shared.stats, 1);
                }
                g.queue.drain(..take).collect::<Vec<Job>>()
            }
        };
        let live = expire_deadlines(shared, batch);
        if live.is_empty() {
            continue;
        }
        if epoch.id < shared.published.load(Ordering::SeqCst) {
            // These requests were admitted before a swap and are being
            // honored on their admission snapshot — by design, but worth
            // counting.
            shared
                .stats
                .add_queries_on_stale_metric(live.len() as u64);
        }
        let work: Vec<&WorkItem> = live.iter().map(|j| &j.work).collect();
        // The unwind closure borrows only the engines and the work
        // items; the `Job`s (and with them the reply channels) stay out
        // here so the quarantine path below can still answer them.
        let exec_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_work(shared, &work, engines)
        }));
        shared.load.observe_batch(exec_start.elapsed(), live.len());
        let stats = &shared.stats;
        match outcome {
            Ok(answers) => {
                stats.add_served(live.len() as u64);
                for (job, answer) in live.into_iter().zip(answers) {
                    let _ = job.reply.send(Ok(answer));
                }
            }
            Err(_) => {
                stats.add_worker_restarts(1);
                stats.add_quarantined_requests(live.len() as u64);
                stats.add_failed(live.len() as u64);
                for job in live {
                    let _ = job.reply.send(Err(ServeError::new(
                        ErrorKind::Internal,
                        "worker panicked while executing this batch; request quarantined",
                    )));
                }
                return DrainExit::Rebuild;
            }
        }
    }
}

/// Answers every job whose deadline already expired with a typed error
/// and returns the still-live remainder.
fn expire_deadlines(shared: &Shared, batch: Vec<Job>) -> Vec<Job> {
    let stats = &shared.stats;
    let now = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        shared
            .load
            .observe_wait(now.saturating_duration_since(job.admitted_at));
        if job.deadline.is_some_and(|d| d <= now) {
            stats.add_deadline_misses(1);
            stats.add_failed(1);
            let _ = job.reply.send(Err(ServeError::new(
                ErrorKind::DeadlineExceeded,
                "deadline expired before the batch formed",
            )));
        } else {
            live.push(job);
        }
    }
    live
}

/// Dispatches one formed batch: a lone matrix job takes the restricted
/// rung, anything else is a lane-shaped batch. Batch formation guarantees
/// the two never mix.
fn execute_work(
    shared: &Shared,
    work: &[&WorkItem],
    engines: &mut WorkerEngines<'_>,
) -> Vec<HeteroAnswer> {
    if let [WorkItem::Matrix { sources, targets }] = work {
        return vec![execute_matrix(shared, sources, targets, engines)];
    }
    let queries: Vec<HeteroQuery> = work
        .iter()
        .map(|w| match w {
            WorkItem::Query(q) => q.clone(),
            WorkItem::Matrix { .. } => unreachable!("matrix jobs are batched alone"),
        })
        .collect();
    execute_batch(shared, &queries, engines)
}

/// Runs one matrix request on the restricted rung: reuse (or build) the
/// worker's cached selection for this exact target list, then chunk the
/// sources through `max_k`-lane restricted sweeps. May panic, like
/// [`execute_batch`]; the selection cache lives in [`WorkerEngines`], so
/// quarantine rebuilds discard it along with everything else.
fn execute_matrix(
    shared: &Shared,
    sources: &[Vertex],
    targets: &[Vertex],
    engines: &mut WorkerEngines<'_>,
) -> HeteroAnswer {
    let stats = &shared.stats;
    if let Some(bad) = shared.cfg.panic_on_source {
        if sources.contains(&bad) {
            panic!("injected fault: matrix contains poisoned source {bad}");
        }
    }
    match engines
        .selections
        .iter()
        .position(|(key, _)| key == targets)
    {
        Some(i) => {
            stats.add_selection_cache_hits(1);
            if i != 0 {
                let hit = engines.selections.remove(i).expect("index found above");
                engines.selections.push_front(hit);
            }
        }
        None => {
            let sel = engines.sel_builder.build(targets);
            stats.add_selection_builds(1);
            stats.add_selection_vertices(sel.len() as u64);
            engines.selections.push_front((targets.to_vec(), sel));
            if engines.selections.len() > SELECTION_CACHE_CAPACITY {
                engines.selections.pop_back();
                stats.add_selection_cache_evictions(1);
            }
        }
    }
    let WorkerEngines {
        engine, selections, ..
    } = engines;
    let (_, sel) = selections.front().expect("selection installed above");
    engine.set_k(engine.capacity());
    let rows = engine.matrix(sel, sources);
    stats.merge_query(engine.stats());
    stats.add_matrix_requests(1);
    stats.add_matrix_rows(sources.len() as u64);
    stats.add_matrix_chunks(engine.chunks_for(sources.len()) as u64);
    HeteroAnswer::Matrix(rows)
}

/// Computes the answers for one batch; element `i` answers `queries[i]`.
/// May panic (that is the point of the supervision around it); must not
/// touch any reply channel.
fn execute_batch(
    shared: &Shared,
    queries: &[HeteroQuery],
    engines: &mut WorkerEngines<'_>,
) -> Vec<HeteroAnswer> {
    let stats = &shared.stats;
    if let Some(bad) = shared.cfg.panic_on_source {
        if queries.iter().any(|q| q.source() == bad) {
            panic!("injected fault: batch contains poisoned source {bad}");
        }
    }
    match queries {
        [] => Vec::new(),
        [query] => {
            let answer = match (query, engines.ch_query.as_mut()) {
                (&HeteroQuery::Point { source, target }, Some(q)) => {
                    stats.add_p2p_fallbacks(1);
                    HeteroAnswer::Point(q.query(source, target).unwrap_or(INF))
                }
                _ => {
                    stats.add_scalar_fallbacks(1);
                    let engine = &mut engines.engine;
                    engine.set_k(1);
                    engine.run(&[query.source()]);
                    stats.merge_query(engine.stats());
                    let dist = engine.tree_distances(0);
                    match query {
                        HeteroQuery::Tree { .. } => HeteroAnswer::Tree(dist),
                        HeteroQuery::Many { targets, .. } => HeteroAnswer::Many(
                            targets.iter().map(|&t| dist[t as usize]).collect(),
                        ),
                        HeteroQuery::Point { target, .. } => {
                            HeteroAnswer::Point(dist[*target as usize])
                        }
                    }
                }
            };
            vec![answer]
        }
        _ => {
            let r = queries.len();
            let ladder = shared.cfg.width_ladder();
            let width = *ladder.iter().find(|&&w| w >= r).expect("ends at max_k");
            let engine = &mut engines.engine;
            engine.set_k(width);
            let answers = run_hetero_batch(engine, queries);
            stats.merge_query(engine.stats());
            stats.add_batches(1);
            stats.add_batched_requests(r as u64);
            stats.add_multi_batches(1);
            stats.add_padded_lanes((width - r) as u64);
            answers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    fn small_service(cfg: ServeConfig) -> (Graph, Arc<Service>) {
        let net = RoadNetworkConfig::new(10, 10, 5, Metric::TravelTime).build();
        let svc = Service::for_graph(&net.graph, cfg);
        (net.graph, svc)
    }

    #[test]
    fn width_ladder_tracks_max_k() {
        let cfg = |max_k| ServeConfig {
            max_k,
            ..ServeConfig::default()
        };
        assert_eq!(cfg(16).width_ladder(), vec![4, 8, 16]);
        assert_eq!(cfg(8).width_ladder(), vec![4, 8]);
        assert_eq!(cfg(6).width_ladder(), vec![4, 6]);
        assert_eq!(cfg(1).width_ladder(), vec![1]);
        assert_eq!(cfg(64).width_ladder(), vec![4, 8, 16, 64]);
    }

    #[test]
    fn single_calls_answer_exactly() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            ..ServeConfig::default()
        });
        let want = shortest_paths(g.forward(), 3).dist;
        let got = svc.call(HeteroQuery::Tree { source: 3 }, None).unwrap();
        assert_eq!(got, HeteroAnswer::Tree(want.clone()));
        let got = svc
            .call(
                HeteroQuery::Many {
                    source: 3,
                    targets: vec![0, 9],
                },
                None,
            )
            .unwrap();
        assert_eq!(got, HeteroAnswer::Many(vec![want[0], want[9]]));
        let got = svc
            .call(HeteroQuery::Point { source: 3, target: 7 }, None)
            .unwrap();
        assert_eq!(got, HeteroAnswer::Point(want[7]));
        assert_eq!(svc.stats().served(), 3);
    }

    #[test]
    fn concurrent_calls_form_multi_occupancy_batches() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(40),
            workers: 1,
            ..ServeConfig::default()
        });
        let n = g.num_vertices() as u32;
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    svc.call(HeteroQuery::Tree { source: i % n }, None).unwrap()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let want = shortest_paths(g.forward(), i as u32 % n).dist;
            assert_eq!(h.join().unwrap(), HeteroAnswer::Tree(want), "request {i}");
        }
        assert!(
            svc.stats().multi_batches() >= 1,
            "8 concurrent requests inside a 40ms window must share a sweep"
        );
        assert!(svc.stats().mean_batch_occupancy() > 1.0);
    }

    #[test]
    fn queue_full_rejects_instead_of_blocking() {
        let (_, svc) = small_service(ServeConfig {
            window: Duration::from_millis(300),
            queue_capacity: 2,
            workers: 1,
            ..ServeConfig::default()
        });
        // The worker adopts the queue head and holds the window open, so
        // back-to-back submissions keep the queue at capacity.
        let _rx1 = svc.submit(HeteroQuery::Tree { source: 0 }, None).unwrap();
        let _rx2 = svc.submit(HeteroQuery::Tree { source: 1 }, None).unwrap();
        let err = svc
            .submit(HeteroQuery::Tree { source: 2 }, None)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::QueueFull);
        assert_eq!(svc.stats().rejected_queue_full(), 1);
    }

    #[test]
    fn overload_sheds_before_the_queue_full_backstop() {
        let (_, svc) = small_service(ServeConfig {
            window: Duration::from_millis(300),
            queue_capacity: 8,
            shed_queue_depth: 2,
            workers: 1,
            ..ServeConfig::default()
        });
        // The worker holds the window open, so submissions accumulate.
        let _rx1 = svc.submit(HeteroQuery::Tree { source: 0 }, None).unwrap();
        let _rx2 = svc.submit(HeteroQuery::Tree { source: 1 }, None).unwrap();
        // Depth 2 >= shed threshold 2: shed with a retry hint, while the
        // queue itself (capacity 8) still has room.
        let err = svc
            .submit(HeteroQuery::Tree { source: 2 }, None)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Overloaded);
        assert!(err.retry_after_ms.is_some_and(|ms| ms > 0), "{err:?}");
        assert_eq!(svc.stats().shed_overload(), 1);
        assert_eq!(svc.stats().rejected_queue_full(), 0);
    }

    #[test]
    fn zero_deadline_misses_with_typed_error() {
        let (_, svc) = small_service(ServeConfig {
            window: Duration::from_millis(10),
            ..ServeConfig::default()
        });
        let err = svc
            .call(HeteroQuery::Tree { source: 0 }, Some(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        assert_eq!(svc.stats().deadline_misses(), 1);
        // The service keeps serving afterwards.
        svc.call(HeteroQuery::Tree { source: 0 }, None).unwrap();
    }

    #[test]
    fn out_of_range_vertices_are_bad_requests() {
        let (_, svc) = small_service(ServeConfig::default());
        let err = svc
            .call(HeteroQuery::Tree { source: 1_000_000 }, None)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        let err = svc
            .call(
                HeteroQuery::Many {
                    source: 0,
                    targets: vec![0, 1_000_000],
                },
                None,
            )
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn shutdown_drains_admitted_requests_then_rejects() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(50),
            workers: 1,
            ..ServeConfig::default()
        });
        let rx = svc.submit(HeteroQuery::Tree { source: 4 }, None).unwrap();
        svc.shutdown();
        // The queued request was drained, not dropped.
        let want = shortest_paths(g.forward(), 4).dist;
        assert_eq!(rx.recv().unwrap().unwrap(), HeteroAnswer::Tree(want));
        // New work is rejected with the typed shutdown error.
        let err = svc
            .call(HeteroQuery::Tree { source: 0 }, None)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Shutdown);
    }

    #[test]
    fn panicked_batch_is_quarantined_and_the_worker_recovers() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            workers: 1,
            panic_on_source: Some(7),
            ..ServeConfig::default()
        });
        // The poisoned request gets a typed Internal error, not a hang or
        // a dropped channel.
        let err = svc
            .call(HeteroQuery::Tree { source: 7 }, None)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert_eq!(svc.stats().worker_restarts(), 1);
        assert_eq!(svc.stats().quarantined_requests(), 1);
        // The sole worker survived the panic and still answers exactly.
        let want = shortest_paths(g.forward(), 3).dist;
        let got = svc.call(HeteroQuery::Tree { source: 3 }, None).unwrap();
        assert_eq!(got, HeteroAnswer::Tree(want));
        let r = svc.stats().report("t");
        assert_eq!(
            r.get("worker_restarts"),
            Some(&phast_obs::MetricValue::Count(1)),
            "restart counter surfaces through the obs report"
        );
    }

    #[test]
    fn repeated_panics_do_not_wedge_the_service() {
        let (_, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            workers: 2,
            panic_on_source: Some(0),
            ..ServeConfig::default()
        });
        for _ in 0..5 {
            let err = svc.call(HeteroQuery::Tree { source: 0 }, None).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Internal);
        }
        assert_eq!(svc.stats().worker_restarts(), 5);
        assert_eq!(svc.stats().quarantined_requests(), 5);
        svc.call(HeteroQuery::Tree { source: 1 }, None).unwrap();
        svc.shutdown();
    }

    #[test]
    fn batch_runner_matches_dijkstra_and_counts_batches() {
        let (g, svc) = small_service(ServeConfig::default());
        let n = g.num_vertices() as u32;
        let epoch = svc.current_epoch();
        let mut runner = svc.batch_runner(&epoch);
        let queries: Vec<HeteroQuery> =
            (0..6u32).map(|i| HeteroQuery::Tree { source: i % n }).collect();
        let answers = runner.run(&queries);
        assert_eq!(answers.len(), queries.len());
        for (i, a) in answers.iter().enumerate() {
            let want = shortest_paths(g.forward(), i as u32 % n).dist;
            assert_eq!(*a, HeteroAnswer::Tree(want), "query {i}");
        }
        // The runner went through the real batch path: the multi-tree
        // ladder engaged and the batch counters registered.
        assert_eq!(svc.stats().multi_batches(), 1);
        assert!(svc.stats().mean_batch_occupancy() > 1.0);
        // A lone query takes the scalar rung, exactly like a worker.
        let lone = runner.run(&[HeteroQuery::Tree { source: 2 }]);
        assert_eq!(
            lone,
            vec![HeteroAnswer::Tree(shortest_paths(g.forward(), 2).dist)]
        );
        assert_eq!(
            svc.stats().report("t").get("scalar_fallbacks"),
            Some(&phast_obs::MetricValue::Count(1))
        );
    }

    #[test]
    #[should_panic(expected = "exceeds max_k")]
    fn batch_runner_rejects_oversized_batches() {
        let (_, svc) = small_service(ServeConfig {
            max_k: 4,
            ..ServeConfig::default()
        });
        let queries: Vec<HeteroQuery> =
            (0..5u32).map(|source| HeteroQuery::Tree { source }).collect();
        let epoch = svc.current_epoch();
        svc.batch_runner(&epoch).run(&queries);
    }

    #[test]
    fn matrix_calls_answer_exactly_and_count_the_rung() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            max_k: 4,
            ..ServeConfig::default()
        });
        let n = g.num_vertices() as u32;
        let sources: Vec<u32> = vec![0, 7, n - 1, 3, 11, 5];
        let targets: Vec<u32> = vec![2, n / 2, n - 3];
        let rows = svc.matrix(sources.clone(), targets.clone(), None).unwrap();
        assert_eq!(rows.len(), sources.len());
        for (r, &s) in sources.iter().enumerate() {
            let want = shortest_paths(g.forward(), s).dist;
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(rows[r][i], want[t as usize], "{s} -> {t}");
            }
        }
        assert_eq!(svc.stats().matrix_requests(), 1);
        assert_eq!(svc.stats().matrix_rows(), sources.len() as u64);
        // 6 sources over k=4 lanes: two restricted sweeps.
        assert_eq!(svc.stats().matrix_chunks(), 2);
        assert_eq!(svc.stats().selection_builds(), 1);
        assert!(svc.stats().selection_vertices() >= targets.len() as u64);
    }

    #[test]
    fn repeated_matrix_targets_hit_the_selection_cache() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            workers: 1, // one worker → one cache → deterministic hits
            ..ServeConfig::default()
        });
        let targets: Vec<u32> = vec![1, 9, 33];
        for s in [0u32, 5, 12] {
            let rows = svc.matrix(vec![s], targets.clone(), None).unwrap();
            let want = shortest_paths(g.forward(), s).dist;
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(rows[0][i], want[t as usize]);
            }
        }
        assert_eq!(svc.stats().selection_builds(), 1);
        assert_eq!(svc.stats().selection_cache_hits(), 2);
        // A different target list rebuilds.
        svc.matrix(vec![0], vec![4, 8], None).unwrap();
        assert_eq!(svc.stats().selection_builds(), 2);
    }

    #[test]
    fn matrix_validation_rejects_duplicates_and_bad_ids_typed() {
        let (_, svc) = small_service(ServeConfig::default());
        // Duplicate target → malformed (never silently deduped).
        let err = svc.matrix(vec![0], vec![3, 5, 3], None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
        assert!(err.message.contains("more than once"), "{}", err.message);
        // Out-of-range target → malformed.
        let err = svc.matrix(vec![0], vec![1_000_000], None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
        // Out-of-range source → bad_request, like every other shape.
        let err = svc.matrix(vec![1_000_000], vec![3], None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        // Empty axes → bad_request.
        let err = svc.matrix(vec![], vec![3], None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        let err = svc.matrix(vec![0], vec![], None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert_eq!(svc.stats().rejected_invalid(), 5);
        // The service still answers after all the rejections.
        svc.matrix(vec![0], vec![3], None).unwrap();
    }

    #[test]
    fn poisoned_matrix_is_quarantined_and_cache_survives_rebuild() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            workers: 1,
            panic_on_source: Some(7),
            ..ServeConfig::default()
        });
        let targets = vec![1u32, 9];
        svc.matrix(vec![0], targets.clone(), None).unwrap();
        assert_eq!(svc.stats().selection_builds(), 1);
        // A poisoned matrix panics the worker: typed Internal reply,
        // quarantine counters, engine (and selection cache) rebuilt.
        let err = svc.matrix(vec![3, 7], targets.clone(), None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert_eq!(svc.stats().worker_restarts(), 1);
        assert_eq!(svc.stats().quarantined_requests(), 1);
        // The rebuilt worker lost its cache — same targets build again —
        // and still answers exactly.
        let rows = svc.matrix(vec![3], targets.clone(), None).unwrap();
        let want = shortest_paths(g.forward(), 3).dist;
        assert_eq!(rows[0], vec![want[1], want[9]]);
        assert_eq!(svc.stats().selection_builds(), 2);
    }

    #[test]
    fn batch_runner_matrix_matches_the_service_path() {
        let (g, svc) = small_service(ServeConfig::default());
        let epoch = svc.current_epoch();
        let mut runner = svc.batch_runner(&epoch);
        let sources = vec![0u32, 13, 44];
        let targets = vec![2u32, 6];
        let rows = runner.run_matrix(&sources, &targets);
        for (r, &s) in sources.iter().enumerate() {
            let want = shortest_paths(g.forward(), s).dist;
            assert_eq!(rows[r], vec![want[2], want[6]], "source {s}");
        }
        assert_eq!(svc.stats().matrix_requests(), 1);
    }

    #[test]
    fn lone_p2p_uses_the_ch_rung_and_matches() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            ..ServeConfig::default()
        });
        let want = shortest_paths(g.forward(), 2).dist;
        let got = svc
            .call(HeteroQuery::Point { source: 2, target: 11 }, None)
            .unwrap();
        assert_eq!(got, HeteroAnswer::Point(want[11]));
        assert_eq!(
            svc.stats().report("t").get("p2p_fallbacks"),
            Some(&phast_obs::MetricValue::Count(1)),
            "a lone point-to-point request takes the bidirectional-CH rung"
        );
    }

    /// Rebuilds `g` with every weight scaled by `factor` and preprocesses
    /// it — the "new metric" of the swap tests.
    fn scaled_instance(g: &Graph, factor: u32) -> (Graph, Arc<Phast>, Arc<Hierarchy>) {
        let arcs = g
            .forward()
            .arcs()
            .iter()
            .map(|a| phast_graph::Arc::new(a.head, a.weight * factor))
            .collect();
        let g2 = Graph::from_csr(phast_graph::Csr::from_raw(
            g.forward().first().to_vec(),
            arcs,
        ));
        let h = contract_graph(&g2, &ContractionConfig::default());
        let p = PhastBuilder::new().build_with_hierarchy(&g2, &h);
        (g2, Arc::new(p), Arc::new(h))
    }

    #[test]
    fn swap_epoch_serves_the_new_metric_exactly() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            workers: 1,
            ..ServeConfig::default()
        });
        let (answer, epoch) = svc.call_with_epoch(HeteroQuery::Tree { source: 3 }, None).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(answer, HeteroAnswer::Tree(shortest_paths(g.forward(), 3).dist));
        let (g2, p2, h2) = scaled_instance(&g, 3);
        assert_eq!(svc.swap_epoch(p2, Some(h2)).unwrap(), 2);
        assert_eq!(svc.epoch_id(), 2);
        assert_eq!(svc.stats().metric_swaps(), 1);
        // Tree, matrix and the CH point-to-point rung all answer on the
        // new metric.
        let (answer, epoch) = svc.call_with_epoch(HeteroQuery::Tree { source: 3 }, None).unwrap();
        assert_eq!(epoch, 2);
        let want = shortest_paths(g2.forward(), 3).dist;
        assert_eq!(answer, HeteroAnswer::Tree(want.clone()));
        let (rows, epoch) = svc.matrix_with_epoch(vec![3], vec![0, 9], None).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(rows[0], vec![want[0], want[9]]);
        let got = svc
            .call(HeteroQuery::Point { source: 3, target: 9 }, None)
            .unwrap();
        assert_eq!(got, HeteroAnswer::Point(want[9]));
    }

    #[test]
    fn swap_epoch_rejects_a_topology_change() {
        let (_, svc) = small_service(ServeConfig::default());
        let other = RoadNetworkConfig::new(4, 4, 2, Metric::TravelTime).build();
        let h = contract_graph(&other.graph, &ContractionConfig::default());
        let p = PhastBuilder::new().build_with_hierarchy(&other.graph, &h);
        let err = svc.swap_epoch(Arc::new(p), None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert_eq!(svc.epoch_id(), 1, "a rejected swap publishes nothing");
        assert_eq!(svc.stats().metric_swaps(), 0);
    }

    #[test]
    fn jobs_admitted_before_a_swap_execute_on_their_admission_epoch() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(400),
            workers: 1,
            ..ServeConfig::default()
        });
        // The worker adopts this job and holds the window open, so the
        // swap below is published while the job is still pending.
        let rx = svc.submit(HeteroQuery::Tree { source: 5 }, None).unwrap();
        let (g2, p2, h2) = scaled_instance(&g, 2);
        svc.swap_epoch(p2, Some(h2)).unwrap();
        let got = rx.recv().unwrap().unwrap();
        assert_eq!(
            got,
            HeteroAnswer::Tree(shortest_paths(g.forward(), 5).dist),
            "a pre-swap job must be answered on the metric it was admitted under"
        );
        assert!(
            svc.stats().queries_on_stale_metric() >= 1,
            "executing past a published swap is counted"
        );
        // And the next request runs on the new epoch.
        let (answer, epoch) = svc.call_with_epoch(HeteroQuery::Tree { source: 5 }, None).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(answer, HeteroAnswer::Tree(shortest_paths(g2.forward(), 5).dist));
    }

    #[test]
    fn epoch_history_is_a_bounded_ring_and_rollbacks_walk_back() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            workers: 1,
            epoch_history: 2,
            ..ServeConfig::default()
        });
        for factor in [2u32, 3, 4] {
            let (_, p, h) = scaled_instance(&g, factor);
            svc.swap_epoch(p, Some(h)).unwrap();
        }
        // Three swaps through a capacity-2 ring: the base epoch was
        // evicted; only the ×2 and ×3 instances remain restorable.
        assert_eq!(svc.epoch_id(), 4);
        assert_eq!(svc.epoch_history_len(), 2);

        // First rollback displaces the ×4 epoch and re-publishes ×3
        // under a fresh, larger id stamped with the displaced id.
        assert_eq!(svc.rollback_epoch().unwrap(), 5);
        let cur = svc.current_epoch();
        assert_eq!(cur.rolled_back_from, Some(4));
        let (g3, _, _) = scaled_instance(&g, 3);
        let (answer, epoch) = svc.call_with_epoch(HeteroQuery::Tree { source: 7 }, None).unwrap();
        assert_eq!(epoch, 5);
        assert_eq!(answer, HeteroAnswer::Tree(shortest_paths(g3.forward(), 7).dist));

        // The displaced ×4 epoch was discarded, not re-enrolled: a second
        // rollback keeps walking back, onto ×2.
        assert_eq!(svc.rollback_epoch().unwrap(), 6);
        let (g2, _, _) = scaled_instance(&g, 2);
        let (answer, epoch) = svc.call_with_epoch(HeteroQuery::Tree { source: 7 }, None).unwrap();
        assert_eq!(epoch, 6);
        assert_eq!(answer, HeteroAnswer::Tree(shortest_paths(g2.forward(), 7).dist));
        assert_eq!(svc.stats().epoch_rollbacks(), 2);

        // History exhausted → typed failure, current epoch untouched.
        let err = svc.rollback_epoch().unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert_eq!(svc.epoch_id(), 6);
        assert_eq!(svc.stats().epoch_rollbacks(), 2);
    }

    #[test]
    fn rollback_without_history_is_a_typed_error() {
        // Fresh service: nothing was ever swapped.
        let (g, svc) = small_service(ServeConfig::default());
        let err = svc.rollback_epoch().unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(
            err.message.contains("no predecessor epoch"),
            "{}",
            err.message
        );
        assert_eq!(svc.epoch_id(), 1);
        assert_eq!(svc.stats().epoch_rollbacks(), 0);

        // `epoch_history: 0` disables the ring entirely: even after a
        // swap there is nothing to roll back to.
        let (_, svc) = small_service(ServeConfig {
            epoch_history: 0,
            ..ServeConfig::default()
        });
        let (_, p, h) = scaled_instance(&g, 2);
        svc.swap_epoch(p, Some(h)).unwrap();
        assert_eq!(svc.epoch_history_len(), 0);
        let err = svc.rollback_epoch().unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert_eq!(svc.epoch_id(), 2);
    }

    #[test]
    fn selection_cache_is_a_bounded_lru() {
        let (g, svc) = small_service(ServeConfig {
            window: Duration::from_millis(0),
            workers: 1, // one worker → one cache → deterministic counters
            ..ServeConfig::default()
        });
        let list = |i: usize| vec![i as u32, i as u32 + 20];
        for i in 0..SELECTION_CACHE_CAPACITY {
            svc.matrix(vec![0], list(i), None).unwrap();
        }
        assert_eq!(svc.stats().selection_builds(), SELECTION_CACHE_CAPACITY as u64);
        assert_eq!(svc.stats().selection_cache_evictions(), 0);
        // Touch the oldest entry: a hit, and it moves to the MRU slot.
        svc.matrix(vec![1], list(0), None).unwrap();
        assert_eq!(svc.stats().selection_cache_hits(), 1);
        // One more distinct list overflows the cache and evicts the LRU
        // entry (list 1, not the just-touched list 0).
        svc.matrix(vec![0], list(SELECTION_CACHE_CAPACITY), None).unwrap();
        assert_eq!(svc.stats().selection_cache_evictions(), 1);
        svc.matrix(vec![2], list(1), None).unwrap(); // evicted → rebuilds
        assert_eq!(
            svc.stats().selection_builds(),
            SELECTION_CACHE_CAPACITY as u64 + 2
        );
        let rows = svc.matrix(vec![3], list(0), None).unwrap(); // retained → hit
        assert_eq!(svc.stats().selection_cache_hits(), 2);
        let want = shortest_paths(g.forward(), 3).dist;
        assert_eq!(rows[0], vec![want[0], want[20]]);
    }
}
