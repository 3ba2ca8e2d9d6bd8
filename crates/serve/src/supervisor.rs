//! Worker supervision: owns the worker pool, detects dead or stuck
//! workers, restarts them from fresh [`Engine`] clones, and recovers
//! their in-flight work.
//!
//! The supervisor is a watchdog thread polling the pool every
//! [`crate::ServeConfig::supervisor_poll`]:
//!
//! * **Panics** — a worker whose thread finished with a panic is
//!   reaped, its in-flight batch (a clone parked in [`WorkerShared`]
//!   before execution began) is recovered, and a replacement worker is
//!   spawned into the pool.
//! * **Stalls** — a worker busy on one batch longer than
//!   [`crate::ServeConfig::stall_timeout`] is *retired*: its shared
//!   flag is set so it exits after the current batch, its handle is
//!   detached as a zombie, its in-flight batch is stolen, and a
//!   replacement is spawned. If the zombie eventually finishes its
//!   batch anyway, the per-job completion latch makes the duplicate
//!   results no-ops.
//! * **Recovery** — each job from a recovered batch is re-enqueued
//!   with a fresh batch sequence number (up to
//!   [`crate::ServeConfig::max_requeues`] times per job) or shed with
//!   [`Rejected::WorkerCrashed`]; either way the caller's handle
//!   resolves to a typed outcome, never a hang.
//!
//! Shutdown: once the server sets the stop flag (after the batcher has
//! flushed its backlog into the work channel), the supervisor waits for
//! the channel to empty and the pool to go idle, drops the last work
//! sender so workers exit on disconnect, reaps them, and returns.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use ts_core::Engine;
use ts_obs::{FaultKind, ObsEvent, ShedReason};

use crate::faults::{self, FaultPlan};
use crate::mapcache::MapCache;
use crate::metrics::Metrics;
use crate::server::{process_batch, shed_expired, Batch, Rejected};
use crate::ServeConfig;

/// Everything the supervisor thread needs, moved in at spawn.
pub(crate) struct SupervisorCtx {
    pub engine: Engine,
    /// Dropped (set to `None`) during shutdown once the backlog is
    /// done; the disconnect is what tells workers to exit.
    pub work_tx: Option<Sender<Batch>>,
    pub work_rx: Receiver<Batch>,
    pub metrics: Arc<Metrics>,
    pub tracer: Option<ts_trace::Tracer>,
    pub stop: Arc<AtomicBool>,
    pub next_batch: Arc<AtomicU64>,
    pub map_cache: Arc<MapCache>,
    pub cfg: ServeConfig,
}

/// State a worker shares with the supervisor so its in-flight batch can
/// be recovered after a panic or stall.
struct WorkerShared {
    epoch: Instant,
    /// Clone of the batch currently executing; parked before execution
    /// begins, cleared after. Survives a worker panic for recovery.
    inflight: Mutex<Option<Batch>>,
    /// Microseconds (since `epoch`, saturated to at least 1) at which
    /// the current batch began; 0 while idle.
    busy_since_us: AtomicU64,
    /// Set by the supervisor when the worker is declared stuck; the
    /// worker exits before taking any further batch.
    retired: AtomicBool,
}

impl WorkerShared {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            inflight: Mutex::new(None),
            busy_since_us: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }

    /// The inflight mutex, recovered from poisoning: a panic between
    /// `begin` and `finish` is exactly the case the supervisor must
    /// read the batch back out of.
    fn lock(&self) -> MutexGuard<'_, Option<Batch>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn begin(&self, batch: &Batch) {
        *self.lock() = Some(batch.clone());
        let now = self.epoch.elapsed().as_micros() as u64;
        self.busy_since_us.store(now.max(1), Ordering::SeqCst);
    }

    fn finish(&self) {
        *self.lock() = None;
        self.busy_since_us.store(0, Ordering::SeqCst);
    }

    /// How long the worker has been on its current batch; `None` while
    /// idle.
    fn busy_for(&self) -> Option<Duration> {
        let since = self.busy_since_us.load(Ordering::SeqCst);
        if since == 0 {
            return None;
        }
        let now = self.epoch.elapsed().as_micros() as u64;
        Some(Duration::from_micros(now.saturating_sub(since)))
    }

    /// Takes the in-flight batch for recovery; the owning worker (alive
    /// or dead) can no longer answer for it exclusively — the per-job
    /// latch arbitrates.
    fn steal(&self) -> Option<Batch> {
        self.lock().take()
    }
}

/// One live worker slot in the pool.
struct Slot {
    handle: JoinHandle<()>,
    shared: Arc<WorkerShared>,
}

pub(crate) fn spawn_supervisor(ctx: SupervisorCtx) -> JoinHandle<()> {
    let tracer = ctx.tracer.clone();
    std::thread::Builder::new()
        .name("ts-serve-supervisor".into())
        .spawn(move || {
            ts_trace::install_opt(tracer.as_ref());
            run(ctx)
        })
        .expect("spawn supervisor thread")
}

/// The worker pool and the context it grows from.
struct Pool {
    ctx: SupervisorCtx,
    slots: Vec<Slot>,
    next_id: usize,
}

impl Pool {
    /// Spawns one worker from a fresh engine clone into the pool.
    fn spawn(&mut self) {
        let ctx = &self.ctx;
        let shared = Arc::new(WorkerShared::new(Instant::now()));
        let handle = {
            let shared = Arc::clone(&shared);
            let engine = ctx.engine.clone();
            let rx = ctx.work_rx.clone();
            let metrics = Arc::clone(&ctx.metrics);
            let tracer = ctx.tracer.clone();
            let map_cache = Arc::clone(&ctx.map_cache);
            let plan = ctx.cfg.fault_plan.clone();
            let poll = ctx.cfg.supervisor_poll;
            std::thread::Builder::new()
                .name(format!("ts-serve-worker-{}", self.next_id))
                .spawn(move || {
                    ts_trace::install_opt(tracer.as_ref());
                    worker_loop(
                        &engine,
                        &rx,
                        &metrics,
                        &shared,
                        &map_cache,
                        plan.as_ref(),
                        poll,
                    )
                })
                .expect("spawn worker thread")
        };
        self.slots.push(Slot { handle, shared });
        self.next_id += 1;
    }

    /// Replaces a worker that panicked or was retired as stuck, by the
    /// same steps either way: steal its in-flight batch, record the
    /// fault, dump the post-mortem, drop the map cache, spawn a
    /// replacement while the work channel is open, and re-enqueue or
    /// shed the stolen jobs.
    fn replace(&mut self, worker: &WorkerShared, kind: FaultKind, reason: &str) {
        let inflight = worker.steal();
        let metrics = &self.ctx.metrics;
        metrics.record(ObsEvent::Fault {
            kind,
            batch: inflight.as_ref().map(|b| b.seq),
        });
        // Post-mortem first, recovery second: the dump captures the
        // ring as the worker died, including the crashing batch's
        // dispatch and the fault just recorded.
        metrics.dump_postmortem(reason);
        // A panicked worker may have died with a stream state checked
        // out, and a stuck one may wake later and put back states from
        // before the recovery. Neither can be told apart from the sound
        // states, so start from a clean cache; affected streams reseed
        // on their next frame.
        self.ctx.map_cache.invalidate_all(metrics);
        if self.ctx.work_tx.is_some() {
            // Respawn before re-enqueueing: the send below can block on
            // a full channel and needs a consumer.
            self.spawn();
            self.ctx.metrics.record(ObsEvent::Restart);
        }
        self.ctx.recover(inflight);
    }
}

fn worker_loop(
    engine: &Engine,
    rx: &Receiver<Batch>,
    metrics: &Metrics,
    shared: &WorkerShared,
    map_cache: &MapCache,
    plan: Option<&FaultPlan>,
    poll: Duration,
) {
    loop {
        if shared.retired.load(Ordering::SeqCst) {
            break; // declared stuck; a replacement already owns our work
        }
        match rx.recv_timeout(poll) {
            Ok(batch) => {
                // Park a clone where the supervisor can recover it,
                // *before* any injection site or engine call can die.
                shared.begin(&batch);
                faults::inject(plan, batch.seq, metrics);
                process_batch(engine, batch.seq, batch.jobs, metrics, map_cache);
                shared.finish();
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn run(ctx: SupervisorCtx) {
    let mut pool = Pool {
        ctx,
        slots: Vec::new(),
        next_id: 0,
    };
    for _ in 0..pool.ctx.cfg.workers {
        pool.spawn();
    }
    // Retired-but-possibly-still-running workers. Never joined: one may
    // be asleep inside a stalled batch well past shutdown, and its
    // duplicate completions are already latch-suppressed.
    let mut zombies: Vec<JoinHandle<()>> = Vec::new();

    loop {
        // Reap finished workers; panics get recovery and a restart. A
        // clean exit is the normal end of the drain; no action.
        let mut i = 0;
        while i < pool.slots.len() {
            if !pool.slots[i].handle.is_finished() {
                i += 1;
                continue;
            }
            let slot = pool.slots.remove(i);
            if slot.handle.join().is_err() {
                pool.replace(&slot.shared, FaultKind::WorkerPanic, "worker_panic");
            }
        }

        // Stall detection: retire stuck workers and replace them.
        if let Some(timeout) = pool.ctx.cfg.stall_timeout {
            let mut i = 0;
            while i < pool.slots.len() {
                let busy = pool.slots[i].shared.busy_for();
                if busy.is_none_or(|d| d <= timeout) {
                    i += 1;
                    continue;
                }
                let slot = pool.slots.remove(i);
                slot.shared.retired.store(true, Ordering::SeqCst);
                zombies.push(slot.handle);
                pool.replace(&slot.shared, FaultKind::WorkerStall, "worker_stall");
            }
        }

        if pool.ctx.stop.load(Ordering::SeqCst) {
            match &pool.ctx.work_tx {
                Some(tx) => {
                    // The batcher has exited, so the channel only
                    // shrinks. Empty channel + idle pool means every
                    // admitted request is answered (or its batch is
                    // held by a worker that just dequeued it and will
                    // still run it after the disconnect).
                    let idle = pool.slots.iter().all(|s| s.shared.busy_for().is_none());
                    if tx.is_empty() && idle {
                        pool.ctx.work_tx = None;
                    }
                }
                None if pool.slots.is_empty() => break,
                None => {}
            }
        }
        std::thread::sleep(pool.ctx.cfg.supervisor_poll);
    }
    drop(zombies);
}

impl SupervisorCtx {
    /// Re-enqueues (or sheds) the jobs of a batch recovered from a dead
    /// or stuck worker. Every job still unanswered resolves to either a
    /// fresh dispatch or a typed [`Rejected::WorkerCrashed`].
    fn recover(&self, inflight: Option<Batch>) {
        let Some(batch) = inflight else { return };
        let metrics = &self.metrics;
        let mut retry: Vec<_> = Vec::new();
        for mut job in batch.jobs {
            if job.done.load(Ordering::SeqCst) {
                continue; // already answered (by the worker or a twin)
            }
            if job.attempts >= self.cfg.max_requeues || self.work_tx.is_none() {
                shed_crashed(job, metrics);
            } else {
                job.attempts += 1;
                retry.push(job);
            }
        }
        if retry.is_empty() {
            return;
        }
        // Deadlines may have passed while the batch sat on the dead worker.
        shed_expired(&mut retry, metrics);
        let batch = Batch {
            // Fresh sequence number: an explicit fault plan that killed
            // the original batch does not automatically kill the replay.
            seq: self.next_batch.fetch_add(1, Ordering::SeqCst),
            jobs: retry,
        };
        metrics.record(ObsEvent::Requeue {
            batch: batch.seq,
            jobs: batch.jobs.len() as u64,
        });
        if let Some(tx) = &self.work_tx {
            if let Err(e) = tx.send(batch) {
                for job in e.into_inner().jobs {
                    shed_crashed(job, metrics);
                }
            }
        }
    }
}

fn shed_crashed(job: crate::server::Job, metrics: &Metrics) {
    // This crash counts as an attempt on top of the recorded dispatches.
    let attempts = job.attempts + 1;
    if job.claim() {
        metrics.record(ObsEvent::Shed {
            reason: ShedReason::WorkerCrashed,
            stream: job.stream,
        });
        job.send_err(Rejected::WorkerCrashed { attempts });
    }
}
