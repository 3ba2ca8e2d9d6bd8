//! The serving loop: a batcher thread coalescing queued frames and a
//! supervised pool of worker threads, each owning one tuned [`Engine`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use ts_core::{CompileError, DeltaConfig, Engine, MapUpdate, SparseTensor};
use ts_obs::{
    Alert, HealthSnapshot, MapUpdateKind, MigrationKind, ObsEvent, RecordedEvent, RejectReason,
    ServeReport, ShedReason,
};

use crate::batch::{merge_frames, sort_by_coord, split_output, validate_frame, FrameError};
use crate::mapcache::MapCache;
use crate::metrics::{Metrics, ServerLoad};
use crate::supervisor::{spawn_supervisor, SupervisorCtx};
use crate::ServeConfig;

/// A served inference result.
#[derive(Debug, Clone)]
pub struct Response {
    /// Output features for the submitted frame, rows in canonical
    /// (coordinate-key) order, with the frame's original batch index
    /// restored.
    pub output: SparseTensor,
    /// Stream the request belonged to.
    pub stream: u64,
    /// Number of frames in the batch this frame executed in.
    pub batch_size: usize,
    /// Wall time from submission to execution start.
    pub queue_wait: Duration,
    /// Wall time from submission to response.
    pub latency: Duration,
    /// Simulated GPU time of the whole batch, in microseconds.
    pub sim_us: f64,
    /// Whether the response was produced after the request's deadline
    /// (late responses are still delivered, but counted as SLO misses).
    pub missed_deadline: bool,
    /// Whether the serving engine is running in degraded mode — some
    /// slots of its schedule failed validation and run the safe
    /// fallback dataflow instead (see [`ts_core::Engine::new`]). The
    /// output is still correct; only the tuned performance is lost.
    pub degraded: bool,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// Load shed at submission: the in-flight queue was full.
    QueueFull {
        /// The configured admission bound.
        capacity: usize,
    },
    /// The deadline passed before execution started; the frame was
    /// dropped unexecuted.
    DeadlineExpired {
        /// How far past the deadline the server was when it shed the
        /// request.
        missed_by: Duration,
    },
    /// The frame failed shape validation (empty, multi-batch, or wrong
    /// channel width).
    BadFrame(FrameError),
    /// The frame validated but failed to compile (e.g. duplicate
    /// coordinates).
    CompileFailed(CompileError),
    /// The worker executing the request died (or was declared stuck)
    /// and the request exhausted its re-enqueue budget
    /// ([`crate::ServeConfig::max_requeues`]).
    WorkerCrashed {
        /// How many times the request was handed to a worker before
        /// the server gave up on it.
        attempts: u32,
    },
    /// The server is (or finished) shutting down.
    ShuttingDown,
}

impl Rejected {
    /// Whether resubmitting the same request can succeed. Transient
    /// server-side conditions ([`Rejected::QueueFull`],
    /// [`Rejected::WorkerCrashed`]) are retryable; rejections caused by
    /// the request itself (bad frame, failed compile, expired deadline)
    /// and server shutdown are not.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            Rejected::QueueFull { .. } | Rejected::WorkerCrashed { .. }
        )
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} requests in flight)")
            }
            Rejected::DeadlineExpired { missed_by } => {
                write!(f, "deadline expired {missed_by:?} before execution")
            }
            Rejected::BadFrame(e) => write!(f, "bad frame: {e}"),
            Rejected::CompileFailed(e) => write!(f, "frame failed to compile: {e}"),
            Rejected::WorkerCrashed { attempts } => {
                write!(
                    f,
                    "worker crashed executing the request ({attempts} attempts)"
                )
            }
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Waits for the response to one submitted frame.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<Result<Response, Rejected>>,
}

impl ResponseHandle {
    /// Blocks until the request is served, rejected, or the server
    /// dies (reported as [`Rejected::ShuttingDown`]).
    pub fn wait(self) -> Result<Response, Rejected> {
        self.rx.recv().unwrap_or(Err(Rejected::ShuttingDown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Response, Rejected>> {
        self.rx.try_recv().ok()
    }
}

/// One queued request. Cloneable because crash recovery re-enqueues a
/// clone of the in-flight batch while the original (owned by a possibly
/// still-running worker) may race it; the shared `done` latch
/// guarantees exactly one of the twins answers the caller.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub(crate) stream: u64,
    /// Request sequence number; names the `req-N` trace lane.
    req: u64,
    /// Pre-allocated id of the request's root trace span, when the
    /// server was built with a tracer installed.
    trace_root: Option<u64>,
    frame: SparseTensor,
    submitted: Instant,
    deadline: Option<Instant>,
    /// How many workers this request has been handed to (0 on first
    /// dispatch; incremented by each crash recovery).
    pub(crate) attempts: u32,
    /// Exactly-once completion latch, shared between the original job
    /// and any recovery clones. The first finisher — reply AND metrics
    /// — wins; everyone else silently drops the job.
    pub(crate) done: Arc<AtomicBool>,
    reply: Sender<Result<Response, Rejected>>,
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }

    /// Claims the exclusive right to answer this request. Exactly one
    /// caller (across all clones) ever sees `true`; that caller must
    /// record the outcome in metrics and send the reply.
    pub(crate) fn claim(&self) -> bool {
        !self.done.swap(true, Ordering::SeqCst)
    }

    /// Sends a rejection. Callers must have [`Job::claim`]ed first.
    pub(crate) fn send_err(self, why: Rejected) {
        let _ = self.reply.send(Err(why));
    }

    fn reject(self, why: Rejected) {
        if self.claim() {
            self.send_err(why);
        }
    }
}

/// A unit of work handed to the worker pool. The sequence number is
/// assigned at dispatch from a server-wide counter; fault injection
/// decisions are pure functions of it, and recovery re-enqueues get a
/// fresh number, so a replayed batch is never re-injected with the
/// same fault by construction of an explicit fault list.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    pub(crate) seq: u64,
    pub(crate) jobs: Vec<Job>,
}

/// A multi-stream inference server.
///
/// Owns a batcher thread and `workers` worker threads, each holding a
/// clone of the tuned [`Engine`]. Frames submitted from any thread are
/// coalesced into multi-batch tensors (up to
/// [`ServeConfig::max_batch`] frames or [`ServeConfig::max_wait`])
/// and executed as one inference call; outputs are split back per
/// frame, bit-identical to serial per-frame inference (see
/// [`crate::batch`]).
///
/// # Examples
///
/// ```
/// use ts_core::{Engine, GroupConfigs, NetworkBuilder, SparseTensor};
/// use ts_dataflow::{DataflowConfig, ExecCtx};
/// use ts_gpusim::Device;
/// use ts_kernelmap::Coord;
/// use ts_serve::{ServeConfig, Server};
/// use ts_tensor::{Matrix, Precision};
///
/// let mut b = NetworkBuilder::new("tiny", 2);
/// let _ = b.conv("c", NetworkBuilder::INPUT, 4, 3, 1);
/// let net = b.build();
/// let weights = net.init_weights(0);
/// let engine = Engine::new(
///     net,
///     weights,
///     GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
///     ExecCtx::functional(Device::rtx3090(), Precision::Fp32),
/// );
///
/// let server = Server::new(engine, ServeConfig::default());
/// let frame = SparseTensor::new(vec![Coord::new(0, 1, 2, 3)], Matrix::filled(1, 2, 0.5));
/// let handle = server.submit(0, frame).expect("admitted");
/// let response = handle.wait().expect("served");
/// assert_eq!(response.output.channels(), 4);
/// let report = server.shutdown();
/// assert_eq!(report.completed, 1);
/// ```
#[derive(Debug)]
pub struct Server {
    ingress: Option<Sender<Job>>,
    metrics: Arc<Metrics>,
    capacity: usize,
    default_deadline: Option<Duration>,
    batcher: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    /// Tells the supervisor the drain has started; it closes the work
    /// channel once the backlog is executed and reaps the worker pool.
    stop: Arc<AtomicBool>,
    /// Set by [`Server::halt`]: the batcher sheds its backlog with
    /// typed rejections instead of dispatching it.
    abort: Arc<AtomicBool>,
    /// Tracer captured from the constructing thread; propagated into
    /// the batcher and worker threads so per-request spans from all of
    /// them land in one trace.
    tracer: Option<ts_trace::Tracer>,
    trace_path: Option<PathBuf>,
    next_req: AtomicU64,
}

impl Server {
    /// Starts a server around a tuned engine.
    ///
    /// Worker threads are owned by a supervisor thread that restarts
    /// any worker that dies or exceeds [`ServeConfig::stall_timeout`]
    /// on one batch, re-enqueueing (up to [`ServeConfig::max_requeues`]
    /// times per request) or shedding its in-flight work with typed
    /// outcomes — a worker crash never wedges the server or loses a
    /// caller's [`ResponseHandle`].
    ///
    /// If the engine booted in degraded mode
    /// ([`ts_core::Engine::is_degraded`]), the downgrade
    /// count is recorded in [`ServeReport::schedule_downgrades`] and
    /// every response is flagged [`Response::degraded`].
    ///
    /// If a [`ts_trace::Tracer`] is installed on the calling thread, the
    /// batcher and worker threads join it: every served request becomes
    /// a span tree (`request` → `queue_wait` / `batch_assembly` /
    /// `infer` / `split`) on its own `req-N` lane, and
    /// [`Server::shutdown`] writes the Chrome trace to
    /// [`ServeConfig::trace_path`] if one was configured.
    pub fn new(engine: Engine, cfg: ServeConfig) -> Self {
        let cfg = cfg.normalized();
        let tracer = ts_trace::current();
        let metrics = Arc::new(Metrics::new(tracer.clone(), cfg.obs.as_ref()));
        let stop = Arc::new(AtomicBool::new(false));
        let next_batch = Arc::new(AtomicU64::new(0));
        let (ingress_tx, ingress_rx) = unbounded::<Job>();
        let (work_tx, work_rx) = bounded::<Batch>(cfg.workers);

        let downgrades = engine.downgrades().len() as u64;
        if downgrades > 0 {
            metrics.record(ObsEvent::Downgrade { slots: downgrades });
        }

        // Temporal map reuse never enables on a degraded engine: its
        // schedule already fell back, keep the failure domain simple.
        let reuse = cfg.map_reuse && !engine.is_degraded();
        if cfg.map_reuse && !reuse {
            metrics.record(ObsEvent::MapReuseDisabled);
        }
        let map_cache = Arc::new(MapCache::new(reuse, cfg.map_cache_capacity));

        let abort = Arc::new(AtomicBool::new(false));
        let supervisor = spawn_supervisor(SupervisorCtx {
            engine,
            work_tx: Some(work_tx.clone()),
            work_rx,
            metrics: Arc::clone(&metrics),
            tracer: tracer.clone(),
            stop: Arc::clone(&stop),
            next_batch: Arc::clone(&next_batch),
            map_cache,
            cfg: cfg.clone(),
        });

        let batcher = {
            let metrics = Arc::clone(&metrics);
            let cfg = cfg.clone();
            let tracer = tracer.clone();
            let abort = Arc::clone(&abort);
            std::thread::Builder::new()
                .name("ts-serve-batcher".into())
                .spawn(move || {
                    ts_trace::install_opt(tracer.as_ref());
                    batcher_loop(&ingress_rx, &work_tx, &cfg, &metrics, &next_batch, &abort)
                })
                .expect("spawn batcher thread")
        };

        Self {
            ingress: Some(ingress_tx),
            metrics,
            capacity: cfg.queue_capacity,
            default_deadline: cfg.default_deadline,
            batcher: Some(batcher),
            supervisor: Some(supervisor),
            stop,
            abort,
            tracer,
            trace_path: cfg.trace_path,
            next_req: AtomicU64::new(0),
        }
    }

    /// Submits a frame on `stream` with the configured default
    /// deadline. Returns immediately with a handle, or a typed
    /// rejection if the request was not admitted.
    pub fn submit(&self, stream: u64, frame: SparseTensor) -> Result<ResponseHandle, Rejected> {
        self.submit_with_deadline(stream, frame, self.default_deadline)
    }

    /// [`Server::submit`] with an explicit deadline (measured from
    /// now); `None` never expires.
    pub fn submit_with_deadline(
        &self,
        stream: u64,
        frame: SparseTensor,
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle, Rejected> {
        let ingress = self.ingress.as_ref().ok_or(Rejected::ShuttingDown)?;
        if !self.metrics.try_admit(self.capacity) {
            return Err(Rejected::QueueFull {
                capacity: self.capacity,
            });
        }
        let submitted = Instant::now();
        let (tx, rx) = bounded(1);
        let job = Job {
            stream,
            req: self.next_req.fetch_add(1, Ordering::Relaxed),
            trace_root: if ts_trace::ENABLED {
                self.tracer.as_ref().map(|t| t.alloc_span_id())
            } else {
                None
            },
            frame,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            attempts: 0,
            done: Arc::new(AtomicBool::new(false)),
            reply: tx,
        };
        if ingress.send(job).is_err() {
            self.metrics.release();
            return Err(Rejected::ShuttingDown);
        }
        Ok(ResponseHandle { rx })
    }

    /// Number of requests currently in flight (queued or executing).
    pub fn queue_depth(&self) -> usize {
        self.metrics.depth()
    }

    /// Cheap load snapshot for a fleet router: in-flight depth plus the
    /// deadline SLO counters, without assembling a full report.
    pub fn load(&self) -> ServerLoad {
        self.metrics.load()
    }

    /// Live snapshot of the SLO counters.
    pub fn report(&self) -> ServeReport {
        self.metrics.report()
    }

    /// Rolling-window health exposition ([`HealthSnapshot`]):
    /// windowed completions, miss rate, per-stream p50/p99, reuse rate,
    /// burn rates and active alerts. `None` unless the server was
    /// configured with [`ServeConfig::with_obs`]. Unlike
    /// [`Server::report`] (cumulative since boot), this covers only the
    /// rolling window — the "what is happening right now" view.
    pub fn health_snapshot(&self) -> Option<HealthSnapshot> {
        self.metrics.health()
    }

    /// Every SLO alert transition (trip/clear) recorded so far, in
    /// order; empty without [`ServeConfig::with_obs`].
    pub fn alerts(&self) -> Vec<Alert> {
        self.metrics.alerts()
    }

    /// The flight-recorder ring, oldest first — "what just happened
    /// here"; empty without [`ServeConfig::with_obs`].
    pub fn recent_events(&self) -> Vec<RecordedEvent> {
        self.metrics.recent_events()
    }

    /// Records that `stream`'s fleet home moved to this server, node
    /// `node` of its fleet, so the flight recorder shows where the map
    /// rebuild cost of its next frame comes from.
    pub fn record_migration(&self, stream: u64, node: u64, kind: MigrationKind) {
        self.metrics
            .record(ObsEvent::Migration { stream, node, kind });
    }

    /// Graceful drain: stops admitting, serves everything already
    /// queued, joins all threads, and returns the final report.
    ///
    /// When the server was constructed with a tracer installed and
    /// [`ServeConfig::trace_path`] set, the Chrome trace is written
    /// there and the report's `trace_path` records where.
    pub fn shutdown(mut self) -> ServeReport {
        self.join_threads();
        let mut report = self.metrics.report();
        if ts_trace::ENABLED {
            if let (Some(tracer), Some(path)) = (&self.tracer, &self.trace_path) {
                if tracer.write_chrome_trace(path).is_ok() {
                    report.trace_path = Some(path.display().to_string());
                }
            }
        }
        report
    }

    /// Hard stop — the node-kill half of the fleet lifecycle. Stops
    /// admitting, sheds the batcher's backlog with typed
    /// [`Rejected::ShuttingDown`] rejections (counted as
    /// [`ServeReport::shed_halt`]) instead of executing it, lets
    /// batches already handed to workers finish (their callers hold
    /// handles that must resolve), joins all threads, and returns the
    /// final report. Every admitted request still gets exactly one
    /// answer; unlike [`Server::shutdown`], most get a rejection rather
    /// than an output.
    pub fn halt(self) -> ServeReport {
        self.abort.store(true, Ordering::SeqCst);
        // A halt is the fleet's node kill: dump the flight recorder
        // while the backlog is still visible in the queue depth.
        self.metrics.dump_postmortem("node_halt");
        self.shutdown()
    }

    fn join_threads(&mut self) {
        self.ingress.take(); // closing ingress starts the drain
        if let Some(b) = self.batcher.take() {
            let _ = b.join(); // batcher flushes its backlog, then exits
        }
        // Only now may the supervisor close the work channel: every
        // admitted request is already in it (or answered).
        self.stop.store(true, Ordering::SeqCst);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join(); // supervisor reaps the worker pool
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// A frame that failed validation or compilation.
const BAD_FRAME: ObsEvent = ObsEvent::Rejected {
    reason: RejectReason::BadFrame,
};

/// Rejects every expired job in `pending`, keeping the rest. Jobs whose
/// completion latch was already claimed (a recovery twin answered) are
/// silently dropped.
pub(crate) fn shed_expired(pending: &mut Vec<Job>, metrics: &Metrics) {
    let now = Instant::now();
    let mut kept = Vec::with_capacity(pending.len());
    for job in pending.drain(..) {
        if job.expired(now) {
            if job.claim() {
                metrics.record(ObsEvent::Shed {
                    reason: ShedReason::Deadline,
                    stream: job.stream,
                });
                let missed_by =
                    now.saturating_duration_since(job.deadline.expect("expired has one"));
                job.send_err(Rejected::DeadlineExpired { missed_by });
            }
        } else {
            kept.push(job);
        }
    }
    *pending = kept;
}

/// Forms one batch from `pending` (earliest deadline first; deadline-
/// free jobs last, FIFO among equals) and hands it to the workers.
fn dispatch(
    pending: &mut Vec<Job>,
    work: &Sender<Batch>,
    max_batch: usize,
    next_batch: &AtomicU64,
    metrics: &Metrics,
) {
    if pending.is_empty() {
        return;
    }
    pending.sort_by_key(|j| (j.deadline.is_none(), j.deadline, j.submitted));
    let take = pending.len().min(max_batch);
    let jobs: Vec<Job> = pending.drain(..take).collect();
    let _span = ts_trace::span!(
        ts_trace::Subsystem::Serve,
        "dispatch",
        batch = jobs.len(),
        backlog = pending.len(),
    );
    let batch = Batch {
        seq: next_batch.fetch_add(1, Ordering::SeqCst),
        jobs,
    };
    metrics.record(ObsEvent::Dispatch {
        batch: batch.seq,
        jobs: batch.jobs.len() as u64,
        queue_depth: metrics.depth() as u64,
    });
    if let Err(e) = work.send(batch) {
        for job in e.into_inner().jobs {
            job.reject(Rejected::ShuttingDown);
        }
    }
}

fn batcher_loop(
    rx: &Receiver<Job>,
    work: &Sender<Batch>,
    cfg: &ServeConfig,
    metrics: &Metrics,
    next_batch: &AtomicU64,
    abort: &AtomicBool,
) {
    let mut pending: Vec<Job> = Vec::new();
    loop {
        let timeout = match pending.iter().map(|j| j.submitted).min() {
            None => Duration::from_millis(50),
            Some(oldest) => (oldest + cfg.max_wait).saturating_duration_since(Instant::now()),
        };
        match rx.recv_timeout(timeout) {
            Ok(job) => {
                pending.push(job);
                shed_expired(&mut pending, metrics);
                if pending.len() >= cfg.max_batch {
                    dispatch(&mut pending, work, cfg.max_batch, next_batch, metrics);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                shed_expired(&mut pending, metrics);
                dispatch(&mut pending, work, cfg.max_batch, next_batch, metrics);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Graceful drain: everything admitted before shutdown still runs
    // (unless its deadline passes first). A halted server sheds the
    // backlog instead — typed rejections, never silence.
    shed_expired(&mut pending, metrics);
    if abort.load(Ordering::SeqCst) {
        for job in pending.drain(..) {
            if job.claim() {
                metrics.record(ObsEvent::Shed {
                    reason: ShedReason::Halt,
                    stream: job.stream,
                });
                job.send_err(Rejected::ShuttingDown);
            }
        }
    }
    while !pending.is_empty() {
        dispatch(&mut pending, work, cfg.max_batch, next_batch, metrics);
    }
}

/// Executes the jobs of batch `seq` (the dispatched or requeued
/// sequence number its `Batch` events carry).
pub(crate) fn process_batch(
    engine: &Engine,
    seq: u64,
    mut batch: Vec<Job>,
    metrics: &Metrics,
    cache: &MapCache,
) {
    // Deadlines may have passed while the batch sat in the work queue.
    shed_expired(&mut batch, metrics);

    // One malformed frame must not poison its batchmates: validate
    // shapes up front and reject offenders individually.
    let expected = engine.network().in_channels();
    let mut valid = Vec::with_capacity(batch.len());
    for job in batch {
        match validate_frame(&job.frame, expected) {
            Ok(()) => valid.push(job),
            Err(e) => {
                if job.claim() {
                    metrics.record(BAD_FRAME);
                    job.send_err(Rejected::BadFrame(e));
                }
            }
        }
    }
    if valid.is_empty() {
        return;
    }

    // Temporal map reuse serves frames one inference call each: every
    // stream's kernel map is private to that stream, so frames from
    // different streams cannot share a merged tensor (merging remaps
    // batch indices and unions the coordinate sets).
    if cache.enabled() {
        for job in valid {
            process_streamed(engine, seq, job, metrics, cache);
        }
        return;
    }

    let mut span = ts_trace::span(ts_trace::Subsystem::Serve, "process_batch");
    let exec_start = Instant::now();
    let frames: Vec<&SparseTensor> = valid.iter().map(|j| &j.frame).collect();
    let (merged, slots) = merge_frames(&frames);
    let merged_at = Instant::now();
    match engine.try_infer(&merged) {
        Ok((out, report)) => {
            let inferred_at = Instant::now();
            let size = valid.len();
            let sim_us = report.total_us();
            metrics.record(ObsEvent::Batch {
                batch: seq,
                jobs: size as u64,
                sim_us,
            });
            if span.active() {
                span.arg("batch", size);
                span.arg("sim_us", sim_us);
            }
            let marks = BatchMarks {
                exec_start,
                merged: merged_at,
                inferred: inferred_at,
            };
            let parts = split_output(&out, &slots);
            let degraded = engine.is_degraded();
            for (job, part) in valid.into_iter().zip(parts) {
                complete(job, part, size, &marks, sim_us, degraded, metrics);
            }
        }
        // A frame that passed shape validation can still fail to
        // compile (duplicate coordinates). Isolate the offender by
        // re-running the batch one frame at a time.
        Err(_) if valid.len() > 1 => {
            drop(span);
            for job in valid {
                process_batch(engine, seq, vec![job], metrics, cache);
            }
        }
        Err(e) => {
            let job = valid.into_iter().next().expect("single job");
            if job.claim() {
                metrics.record(BAD_FRAME);
                job.send_err(Rejected::CompileFailed(e));
            }
        }
    }
}

/// Serves one frame through [`Engine::infer_stream`], threading its
/// stream's cached map state through the frame. The state is *taken*
/// from the cache for the duration of the call (so concurrent workers
/// never patch the same state; a racing frame of the same stream just
/// misses and rebuilds) and put back on both success and failure —
/// [`Engine::infer_stream`] validates before mutating, so a rejected
/// frame leaves the state intact.
fn process_streamed(engine: &Engine, seq: u64, job: Job, metrics: &Metrics, cache: &MapCache) {
    let mut span = ts_trace::span(ts_trace::Subsystem::Serve, "process_stream");
    let exec_start = Instant::now();
    let mut state = cache.take(job.stream);
    let hit = state.is_some();
    metrics.record(ObsEvent::MapLookup { hit });
    let taken_at = Instant::now();
    match engine.infer_stream(&mut state, &job.frame, &DeltaConfig::default()) {
        Ok((out, report, outcome)) => {
            let inferred_at = Instant::now();
            let sim_us = report.total_us();
            let patched = matches!(outcome.kind, MapUpdate::Patched);
            metrics.record(ObsEvent::MapUpdate {
                kind: match (hit, patched) {
                    (false, _) => MapUpdateKind::Built,
                    (true, true) => MapUpdateKind::Patched,
                    (true, false) => MapUpdateKind::Rebuilt,
                },
                entered: outcome.entered as u64,
                exited: outcome.exited as u64,
            });
            metrics.record(ObsEvent::Batch {
                batch: seq,
                jobs: 1,
                sim_us,
            });
            if span.active() {
                span.arg("stream", job.stream);
                span.arg("hit", hit);
                span.arg("patched", patched);
                span.arg("churn", outcome.churn as f64);
                span.arg("sim_us", sim_us);
            }
            if let Some(st) = state {
                cache.put(job.stream, st, metrics);
            }
            let marks = BatchMarks {
                exec_start,
                merged: taken_at,
                inferred: inferred_at,
            };
            let degraded = engine.is_degraded();
            complete(
                job,
                sort_by_coord(&out),
                1,
                &marks,
                sim_us,
                degraded,
                metrics,
            );
        }
        Err(e) => {
            if let Some(st) = state {
                cache.put(job.stream, st, metrics);
            }
            if job.claim() {
                metrics.record(BAD_FRAME);
                job.send_err(Rejected::CompileFailed(e));
            }
        }
    }
}

/// Wall-clock markers of one batch execution, shared by every request
/// served in it.
struct BatchMarks {
    exec_start: Instant,
    merged: Instant,
    inferred: Instant,
}

#[allow(clippy::too_many_arguments)]
fn complete(
    job: Job,
    output: SparseTensor,
    batch_size: usize,
    marks: &BatchMarks,
    sim_us: f64,
    degraded: bool,
    metrics: &Metrics,
) {
    // A recovery twin of this job may have finished first (e.g. this
    // worker was declared stuck and its batch re-enqueued); the latch
    // keeps replies and metrics exactly-once.
    if !job.claim() {
        return;
    }
    let now = Instant::now();
    let latency = now.saturating_duration_since(job.submitted);
    let missed = job.expired(now);
    metrics.record(ObsEvent::Completed {
        stream: job.stream,
        latency_us: latency.as_secs_f64() * 1e6,
        missed,
    });
    record_request_spans(&job, marks, batch_size, sim_us, missed, now);
    let _ = job.reply.send(Ok(Response {
        output,
        stream: job.stream,
        batch_size,
        queue_wait: marks.exec_start.saturating_duration_since(job.submitted),
        latency,
        sim_us,
        missed_deadline: missed,
        degraded,
    }));
}

/// Reconstructs the request's span tree on its `req-N` lane: one root
/// `request` span (with the id allocated at submission, so children can
/// be recorded before their parent) over the queue-wait →
/// batch-assembly → infer → split stages. The submission, batching and
/// execution happen on three different threads; explicit timestamps and
/// the pre-allocated root id stitch them into one tree.
fn record_request_spans(
    job: &Job,
    marks: &BatchMarks,
    batch_size: usize,
    sim_us: f64,
    missed: bool,
    now: Instant,
) {
    let (Some(tracer), Some(root)) = (ts_trace::current(), job.trace_root) else {
        return;
    };
    let lane = format!("req-{}", job.req);
    let sub = ts_trace::Subsystem::Serve;
    tracer.record_span_at(
        sub,
        &lane,
        "queue_wait",
        job.submitted,
        marks.exec_start,
        Some(root),
        vec![],
    );
    tracer.record_span_at(
        sub,
        &lane,
        "batch_assembly",
        marks.exec_start,
        marks.merged,
        Some(root),
        vec![],
    );
    tracer.record_span_at(
        sub,
        &lane,
        "infer",
        marks.merged,
        marks.inferred,
        Some(root),
        vec![("sim_us".to_string(), ts_trace::ArgValue::F64(sim_us))],
    );
    tracer.record_span_at(sub, &lane, "split", marks.inferred, now, Some(root), vec![]);
    tracer.record_span_at_id(
        root,
        sub,
        &lane,
        "request",
        job.submitted,
        now,
        None,
        vec![
            ("req".to_string(), ts_trace::ArgValue::U64(job.req)),
            ("stream".to_string(), ts_trace::ArgValue::U64(job.stream)),
            (
                "batch".to_string(),
                ts_trace::ArgValue::U64(batch_size as u64),
            ),
            (
                "missed_deadline".to_string(),
                ts_trace::ArgValue::Bool(missed),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::sort_by_coord;
    use ts_core::{GroupConfigs, NetworkBuilder};
    use ts_dataflow::{DataflowConfig, ExecCtx};
    use ts_gpusim::Device;
    use ts_kernelmap::Coord;
    use ts_obs::{ObsConfig, PostMortem};
    use ts_tensor::{rng_from_seed, uniform_matrix, Matrix, Precision};

    fn engine() -> Engine {
        let mut b = NetworkBuilder::new("serve-test", 4);
        let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
        let _ = b.conv("head", c, 2, 1, 1);
        let net = b.build();
        let weights = net.init_weights(1);
        Engine::new(
            net,
            weights,
            GroupConfigs::uniform(DataflowConfig::implicit_gemm(1)),
            ExecCtx::functional(Device::rtx3090(), Precision::Fp16),
        )
    }

    fn frame(batch: i32, seed: u64) -> SparseTensor {
        let coords: Vec<Coord> = (0..30)
            .map(|i| Coord::new(batch, i % 6 + (seed % 5) as i32, i / 6, i % 2))
            .collect();
        let coords = ts_kernelmap::unique_coords(&coords);
        let n = coords.len();
        SparseTensor::new(
            coords,
            uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
        )
    }

    fn fast_cfg() -> ServeConfig {
        ServeConfig::default()
            .with_max_wait(Duration::from_millis(1))
            .with_queue_capacity(256)
    }

    #[test]
    fn retryability_matches_the_transient_set() {
        use crate::batch::FrameError;
        assert!(Rejected::QueueFull { capacity: 1 }.retryable());
        assert!(Rejected::WorkerCrashed { attempts: 1 }.retryable());
        assert!(!Rejected::ShuttingDown.retryable());
        assert!(!Rejected::BadFrame(FrameError::Empty).retryable());
        assert!(!Rejected::DeadlineExpired {
            missed_by: Duration::ZERO
        }
        .retryable());
    }

    #[test]
    fn serves_one_frame_bit_identical_to_serial() {
        let e = engine();
        let f = frame(3, 7);
        let (serial, _) = e.infer(&f);
        let server = Server::new(e, fast_cfg());
        let resp = server
            .submit(0, f)
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(resp.output, sort_by_coord(&serial));
        assert!(!resp.missed_deadline);
        assert!(resp.sim_us > 0.0);
        let report = server.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.streams.len(), 1);
    }

    #[test]
    fn batched_responses_match_serial_inference() {
        let e = engine();
        let frames: Vec<SparseTensor> = (0..8).map(|i| frame(i, 100 + i as u64)).collect();
        let server = Server::new(e.clone(), fast_cfg().with_max_batch(4).with_workers(2));
        let handles: Vec<_> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| server.submit(i as u64, f.clone()).expect("admitted"))
            .collect();
        for (f, h) in frames.iter().zip(handles) {
            let resp = h.wait().expect("served");
            let (serial, _) = e.infer(f);
            assert_eq!(resp.output, sort_by_coord(&serial));
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 8);
        assert!(!report.batch_sizes.is_empty());
    }

    #[test]
    fn full_queue_sheds_load_with_typed_rejection() {
        // A long batching window keeps the first request in flight
        // while the second arrives.
        let server = Server::new(
            engine(),
            ServeConfig::default()
                .with_max_wait(Duration::from_millis(250))
                .with_max_batch(4)
                .with_queue_capacity(1),
        );
        let h = server.submit(0, frame(0, 1)).expect("first admitted");
        match server.submit(0, frame(0, 2)) {
            Err(Rejected::QueueFull { capacity }) => assert_eq!(capacity, 1),
            other => panic!("expected queue-full rejection, got {other:?}"),
        }
        assert!(h.wait().is_ok(), "admitted request still served");
        let report = server.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejected_queue_full, 1);
    }

    #[test]
    fn expired_deadline_is_shed_unexecuted() {
        let server = Server::new(engine(), fast_cfg());
        let h = server
            .submit_with_deadline(0, frame(0, 1), Some(Duration::ZERO))
            .expect("admitted");
        match h.wait() {
            Err(Rejected::DeadlineExpired { .. }) => {}
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 0);
        assert_eq!(report.shed_deadline, 1);
        assert!(report.deadline_miss_rate() > 0.99);
    }

    #[test]
    fn malformed_frames_are_rejected_individually() {
        let server = Server::new(engine(), fast_cfg());
        let wrong_channels = SparseTensor::new(
            vec![Coord::new(0, 0, 0, 0)],
            uniform_matrix(&mut rng_from_seed(0), 1, 7, -1.0, 1.0),
        );
        let empty = SparseTensor::new(vec![], Matrix::zeros(0, 4));
        let multi = SparseTensor::new(
            vec![Coord::new(0, 0, 0, 0), Coord::new(1, 0, 0, 0)],
            Matrix::zeros(2, 4),
        );
        let r1 = server.submit(0, wrong_channels).expect("admitted").wait();
        let r2 = server.submit(0, empty).expect("admitted").wait();
        let r3 = server.submit(0, multi).expect("admitted").wait();
        assert!(matches!(
            r1,
            Err(Rejected::BadFrame(FrameError::ChannelMismatch {
                expected: 4,
                got: 7
            }))
        ));
        assert!(matches!(r2, Err(Rejected::BadFrame(FrameError::Empty))));
        assert!(matches!(
            r3,
            Err(Rejected::BadFrame(FrameError::MultiBatch { batches: 2 }))
        ));
        let report = server.shutdown();
        assert_eq!(report.rejected_bad_frame, 3);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn duplicate_coords_fail_without_poisoning_batchmates() {
        let e = engine();
        let good_a = frame(0, 21);
        let good_b = frame(1, 22);
        let dup = SparseTensor::new(
            vec![Coord::new(0, 2, 2, 0), Coord::new(0, 2, 2, 0)],
            uniform_matrix(&mut rng_from_seed(3), 2, 4, -1.0, 1.0),
        );
        // A window wide enough that all three land in one batch.
        let server = Server::new(
            e.clone(),
            ServeConfig::default()
                .with_max_wait(Duration::from_millis(100))
                .with_max_batch(4)
                .with_workers(1),
        );
        let ha = server.submit(0, good_a.clone()).expect("admitted");
        let hd = server.submit(1, dup).expect("admitted");
        let hb = server.submit(2, good_b.clone()).expect("admitted");
        let ra = ha.wait().expect("good frame survives bad batchmate");
        assert_eq!(ra.output, sort_by_coord(&e.infer(&good_a).0));
        assert!(matches!(
            hd.wait(),
            Err(Rejected::CompileFailed(
                CompileError::DuplicateCoords { .. }
            ))
        ));
        let rb = hb.wait().expect("good frame survives bad batchmate");
        assert_eq!(rb.output, sort_by_coord(&e.infer(&good_b).0));
        let report = server.shutdown();
        assert_eq!(report.completed, 2);
        assert_eq!(report.rejected_bad_frame, 1);
    }

    #[test]
    fn shutdown_drains_all_admitted_requests() {
        let server = Server::new(
            engine(),
            ServeConfig::default()
                .with_max_wait(Duration::from_millis(200))
                .with_max_batch(4)
                .with_workers(2),
        );
        let handles: Vec<_> = (0..10)
            .map(|i| server.submit(i % 3, frame(0, i)).expect("admitted"))
            .collect();
        // Shut down immediately: nothing has had time to execute, but
        // the drain must still serve every admitted request.
        let report = server.shutdown();
        assert_eq!(report.completed, 10);
        for h in handles {
            assert!(h.wait().is_ok());
        }
    }

    #[test]
    fn halt_sheds_backlog_with_typed_rejections() {
        // A long batching window keeps submissions in the batcher's
        // backlog; halting must answer every one of them — served or
        // typed ShuttingDown, never silence.
        let server = Server::new(
            engine(),
            ServeConfig::default()
                .with_max_wait(Duration::from_millis(500))
                .with_max_batch(16)
                .with_workers(1),
        );
        let handles: Vec<_> = (0..8)
            .map(|i| server.submit(i % 3, frame(0, i)).expect("admitted"))
            .collect();
        let report = server.halt();
        assert_eq!(
            report.completed + report.shed_halt,
            8,
            "every admitted request resolves"
        );
        assert!(report.shed_halt > 0, "backlog was shed, not drained");
        let mut answered = 0;
        for h in handles {
            match h.wait() {
                Ok(_) | Err(Rejected::ShuttingDown) => answered += 1,
                other => panic!("expected served or ShuttingDown, got {other:?}"),
            }
        }
        assert_eq!(answered, 8);
    }

    #[test]
    fn late_completion_counts_as_deadline_miss_but_is_delivered() {
        // Generous deadline that execution will overrun only rarely;
        // instead force a miss deterministically by holding the frame
        // in a long batching window that outlives the deadline...
        // except expiry before execution is a shed. To observe a
        // *delivered* miss we need the deadline to pass mid-execution,
        // which is timing-dependent; accept either outcome but require
        // the SLO accounting to be consistent.
        let server = Server::new(
            engine(),
            ServeConfig::default()
                .with_max_wait(Duration::from_millis(30))
                .with_workers(1),
        );
        let h = server
            .submit_with_deadline(0, frame(0, 5), Some(Duration::from_millis(25)))
            .expect("admitted");
        let outcome = h.wait();
        let report = server.shutdown();
        match outcome {
            Ok(resp) => {
                assert_eq!(report.completed, 1);
                assert_eq!(resp.missed_deadline, report.deadline_misses == 1);
            }
            Err(Rejected::DeadlineExpired { .. }) => {
                assert_eq!(report.shed_deadline, 1);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// The request tree spans three threads: submission happens on the
    /// caller's, batching on the batcher's, execution on a worker's.
    /// The pre-allocated root id must stitch them back into one tree,
    /// and the worker threads must inherit the tracer installed on the
    /// thread that built the server.
    #[test]
    fn request_span_trees_survive_the_thread_hops() {
        if !ts_trace::ENABLED {
            return; // nothing records with tracing compiled out
        }
        let tracer = ts_trace::Tracer::new();
        tracer.install();
        let dir = std::env::temp_dir().join(format!("ts-serve-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("serve-trace.json");
        let server = Server::new(engine(), fast_cfg().with_trace_path(&path));
        let handles: Vec<_> = (0..4)
            .map(|i| server.submit(i, frame(0, 40 + i)).expect("admitted"))
            .collect();
        for h in handles {
            h.wait().expect("served");
        }
        let report = server.shutdown();
        ts_trace::uninstall();

        assert_eq!(report.trace_path, Some(path.display().to_string()));
        let json = std::fs::read_to_string(&path).expect("trace written");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("req-0"));

        let spans = tracer.spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.name == "request").collect();
        assert_eq!(roots.len(), 4, "one root span per served request");
        for root in &roots {
            assert!(root.parent.is_none());
            let children: Vec<&str> = spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .map(|s| s.name.as_str())
                .collect();
            for stage in ["queue_wait", "batch_assembly", "infer", "split"] {
                assert!(children.contains(&stage), "missing {stage} under request");
            }
        }
        // Worker threads inherited the tracer installed here.
        assert!(spans.iter().any(|s| s.name == "process_batch"));
        assert!(tracer.counter("serve.requests.completed") >= 4);
        assert!(tracer.counter("serve.batches.dispatched") >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The map-reuse counters must be visible in the Chrome trace
    /// export, with per-frame patch decisions on `process_stream` spans.
    #[test]
    fn map_reuse_counters_appear_in_chrome_trace() {
        if !ts_trace::ENABLED {
            return; // nothing records with tracing compiled out
        }
        let tracer = ts_trace::Tracer::new();
        tracer.install();
        let dir = std::env::temp_dir().join(format!("ts-serve-mrtrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("stream-trace.json");
        let server = Server::new(
            engine(),
            fast_cfg()
                .with_workers(1)
                .with_map_reuse(true)
                .with_trace_path(&path),
        );
        for k in 0..4 {
            server
                .submit(7, drift_frame(k, 70 + k as u64))
                .expect("admitted")
                .wait()
                .expect("served");
        }
        let report = server.shutdown();
        ts_trace::uninstall();

        assert!(report.map_reuse_rate() > 0.5, "low-churn stream reuses");
        let json = std::fs::read_to_string(&path).expect("trace written");
        for counter in [
            "serve.map_cache.hit",
            "serve.map_cache.miss",
            "serve.map_cache.patched",
            "serve.map_cache.entered",
            "serve.map_cache.exited",
        ] {
            assert!(json.contains(counter), "trace export missing {counter}");
        }
        assert!(json.contains("process_stream"));
        assert_eq!(tracer.counter("serve.map_cache.hit"), 3);
        assert_eq!(tracer.counter("serve.map_cache.patched"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Frame `k` of a drifting stream: a 6×5×2 window of points whose x
    /// range slides by one voxel per frame — ~33% churn, under the
    /// default patch threshold.
    fn drift_frame(k: i32, seed: u64) -> SparseTensor {
        let coords: Vec<Coord> = (k..k + 6)
            .flat_map(|x| (0..5).map(move |y| Coord::new(0, x, y, (x + y) % 2)))
            .collect();
        let n = coords.len();
        SparseTensor::new(
            coords,
            uniform_matrix(&mut rng_from_seed(seed), n, 4, -1.0, 1.0),
        )
    }

    #[test]
    fn map_reuse_serves_bit_identical_outputs_and_counts_patches() {
        let e = engine();
        let server = Server::new(e.clone(), fast_cfg().with_workers(1).with_map_reuse(true));
        // Submit sequentially (wait before the next frame) so each
        // frame finds its predecessor's state in the cache.
        for k in 0..6 {
            let f = drift_frame(k, 300 + k as u64);
            let resp = server
                .submit(42, f.clone())
                .expect("admitted")
                .wait()
                .expect("served");
            let (serial, _) = e.infer(&f);
            assert_eq!(
                resp.output,
                sort_by_coord(&serial),
                "streamed frame {k} must be bit-identical to stateless inference"
            );
            assert_eq!(resp.batch_size, 1, "reuse path serves one frame per call");
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 6);
        assert_eq!(report.map_cache_misses, 1, "only the seeding frame misses");
        assert_eq!(report.map_cache_hits, 5);
        assert_eq!(
            report.map_patched, 5,
            "drift stays under the churn threshold"
        );
        assert_eq!(report.map_rebuilt, 0);
        assert!(report.map_reuse_rate() > 0.8);
    }

    #[test]
    fn map_reuse_off_records_no_map_activity() {
        let server = Server::new(engine(), fast_cfg());
        for k in 0..3 {
            server
                .submit(0, drift_frame(k, 50 + k as u64))
                .expect("admitted")
                .wait()
                .expect("served");
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 3);
        assert_eq!(report.map_cache_hits + report.map_cache_misses, 0);
        assert_eq!(report.map_reuse_rate(), 0.0);
    }

    #[test]
    fn map_cache_evicts_lru_stream_when_over_capacity() {
        let server = Server::new(
            engine(),
            fast_cfg()
                .with_workers(1)
                .with_map_reuse(true)
                .with_map_cache_capacity(1),
        );
        let serve = |stream: u64, k: i32| {
            server
                .submit(stream, drift_frame(k, stream * 100 + k as u64))
                .expect("admitted")
                .wait()
                .expect("served")
        };
        serve(1, 0); // seeds stream 1
        serve(2, 0); // seeds stream 2, evicting stream 1
        serve(1, 1); // stream 1 must reseed: its state was evicted
        let report = server.shutdown();
        assert_eq!(report.map_cache_misses, 3, "every frame missed");
        assert_eq!(report.map_cache_hits, 0);
        assert!(report.map_evicted >= 2);
    }

    #[test]
    fn map_reuse_rejects_bad_frames_without_losing_the_stream_state() {
        let e = engine();
        let server = Server::new(e.clone(), fast_cfg().with_workers(1).with_map_reuse(true));
        server
            .submit(7, drift_frame(0, 1))
            .expect("admitted")
            .wait()
            .expect("served");
        // Duplicate coordinates pass shape validation but fail in
        // infer_stream; the stream's cached state must survive.
        let dup = SparseTensor::new(
            vec![Coord::new(0, 2, 2, 0), Coord::new(0, 2, 2, 0)],
            uniform_matrix(&mut rng_from_seed(3), 2, 4, -1.0, 1.0),
        );
        assert!(matches!(
            server.submit(7, dup).expect("admitted").wait(),
            Err(Rejected::CompileFailed(_))
        ));
        let f = drift_frame(1, 2);
        let resp = server
            .submit(7, f.clone())
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(resp.output, sort_by_coord(&e.infer(&f).0));
        let report = server.shutdown();
        assert_eq!(report.completed, 2);
        assert_eq!(report.rejected_bad_frame, 1);
        // Good frame 0 missed; the bad frame and good frame 1 both hit.
        assert_eq!(report.map_cache_misses, 1);
        assert_eq!(report.map_cache_hits, 2);
        assert_eq!(report.map_patched, 1, "frame 1 patched the surviving state");
    }

    #[test]
    fn obs_health_snapshot_tracks_live_traffic() {
        let server = Server::new(engine(), fast_cfg().with_obs(ObsConfig::default()));
        for i in 0..5 {
            server
                .submit(i % 2, frame(0, i))
                .expect("admitted")
                .wait()
                .expect("served");
        }
        let snap = server.health_snapshot().expect("obs configured");
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.deadline_misses, 0);
        assert!(snap.p99_latency_us > 0.0);
        assert_eq!(snap.streams.len(), 2, "both streams tracked");
        assert!(!snap.page_alert_active && !snap.warning_alert_active);
        assert!(server.alerts().is_empty(), "healthy run trips nothing");
        // The flight recorder saw the dispatches and batch completions.
        let events = server.recent_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.event, ObsEvent::Dispatch { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, ObsEvent::Batch { .. })));
        server.shutdown();
    }

    /// With map reuse a k-frame batch executes as k inference calls;
    /// each call's `Batch` event must carry the sequence number the
    /// batch was dispatched (or requeued) under, so a post-mortem can
    /// join executions to dispatches.
    #[test]
    fn batch_events_name_the_dispatched_batch() {
        let server = Server::new(
            engine(),
            ServeConfig::default()
                .with_max_wait(Duration::from_millis(200))
                .with_max_batch(4)
                .with_workers(1)
                .with_map_reuse(true)
                .with_obs(ObsConfig::default()),
        );
        let frames: Vec<_> = (0..8).map(|k| drift_frame(k, 600 + k as u64)).collect();
        let handles: Vec<_> = frames
            .into_iter()
            .enumerate()
            .map(|(i, f)| server.submit(i as u64 % 3, f).expect("admitted"))
            .collect();
        for h in handles {
            h.wait().expect("served");
        }
        let events = server.recent_events();
        server.shutdown();

        let issued: std::collections::HashSet<u64> = events
            .iter()
            .filter_map(|e| match e.event {
                ObsEvent::Dispatch { batch, .. } | ObsEvent::Requeue { batch, .. } => Some(batch),
                _ => None,
            })
            .collect();
        let executed: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.event {
                ObsEvent::Batch { batch, .. } => Some(batch),
                _ => None,
            })
            .collect();
        assert_eq!(executed.len(), 8, "one inference call per frame");
        assert!(
            executed.iter().all(|b| issued.contains(b)),
            "batch events {executed:?} must name dispatched batches {issued:?}"
        );
        assert!(
            executed.len() > issued.len(),
            "some dispatched batch held several frames"
        );
    }

    #[test]
    fn obs_off_by_default_keeps_health_api_none() {
        let server = Server::new(engine(), fast_cfg());
        server
            .submit(0, frame(0, 1))
            .expect("admitted")
            .wait()
            .expect("served");
        assert!(server.health_snapshot().is_none());
        assert!(server.alerts().is_empty());
        assert!(server.recent_events().is_empty());
        server.shutdown();
    }

    #[test]
    fn halt_dumps_a_node_halt_postmortem() {
        let dir = std::env::temp_dir().join(format!("ts-serve-halt-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::new(
            engine(),
            ServeConfig::default()
                .with_max_wait(Duration::from_millis(500))
                .with_max_batch(16)
                .with_workers(1)
                .with_obs(
                    ObsConfig::default().with_postmortem_dir(dir.to_string_lossy().into_owned()),
                ),
        );
        let handles: Vec<_> = (0..4)
            .map(|i| server.submit(i, frame(0, i)).expect("admitted"))
            .collect();
        server.halt();
        for h in handles {
            let _ = h.wait();
        }
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .expect("dump dir exists")
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("postmortem-node_halt-")
            })
            .collect();
        assert_eq!(dumps.len(), 1, "halt writes exactly one post-mortem");
        let pm =
            PostMortem::from_json(&std::fs::read_to_string(dumps[0].path()).expect("readable"))
                .expect("parses");
        assert_eq!(pm.reason, "node_halt");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_snapshot_is_available_while_running() {
        let server = Server::new(engine(), fast_cfg());
        let h = server.submit(9, frame(0, 2)).expect("admitted");
        h.wait().expect("served");
        let live = server.report();
        assert_eq!(live.completed, 1);
        assert_eq!(live.streams[0].stream, 9);
        assert!(live
            .to_json()
            .expect("serializes")
            .contains("\"completed\""));
        server.shutdown();
    }
}
