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
    pub work_tx: Sender<Batch>,
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

fn spawn_slot(
    id: usize,
    engine: &Engine,
    rx: &Receiver<Batch>,
    metrics: &Arc<Metrics>,
    tracer: &Option<ts_trace::Tracer>,
    map_cache: &Arc<MapCache>,
    cfg: &ServeConfig,
) -> Slot {
    let shared = Arc::new(WorkerShared::new(Instant::now()));
    let handle = {
        let shared = Arc::clone(&shared);
        let engine = engine.clone();
        let rx = rx.clone();
        let metrics = Arc::clone(metrics);
        let tracer = tracer.clone();
        let map_cache = Arc::clone(map_cache);
        let plan = cfg.fault_plan.clone();
        let poll = cfg.supervisor_poll;
        std::thread::Builder::new()
            .name(format!("ts-serve-worker-{id}"))
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
    Slot { handle, shared }
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
    let SupervisorCtx {
        engine,
        work_tx,
        work_rx,
        metrics,
        tracer,
        stop,
        next_batch,
        map_cache,
        cfg,
    } = ctx;
    // Dropped (set to None) during shutdown once the backlog is done;
    // the disconnect is what tells workers to exit.
    let mut work_tx = Some(work_tx);
    let mut slots: Vec<Slot> = (0..cfg.workers)
        .map(|id| spawn_slot(id, &engine, &work_rx, &metrics, &tracer, &map_cache, &cfg))
        .collect();
    let mut next_id = cfg.workers;
    // Retired-but-possibly-still-running workers. Never joined: one may
    // be asleep inside a stalled batch well past shutdown, and its
    // duplicate completions are already latch-suppressed.
    let mut zombies: Vec<JoinHandle<()>> = Vec::new();

    loop {
        // Reap finished workers; panics get recovery and a restart.
        let mut i = 0;
        while i < slots.len() {
            if !slots[i].handle.is_finished() {
                i += 1;
                continue;
            }
            let slot = slots.remove(i);
            if slot.handle.join().is_err() {
                let inflight = slot.shared.steal();
                metrics.record(ObsEvent::Fault {
                    kind: FaultKind::WorkerPanic,
                    batch: inflight.as_ref().map(|b| b.seq),
                });
                // Post-mortem first, recovery second: the dump captures
                // the ring as the worker died, including the crashing
                // batch's dispatch and the fault just recorded.
                if let Some(tel) = metrics.telemetry() {
                    let _ = tel.dump_postmortem("worker_panic", metrics.depth() as u64);
                }
                // The dead worker may have panicked mid-update with a
                // stream state checked out; every surviving cached
                // state is still sound, but the checked-out one is
                // lost and cannot be told apart, so drop them all.
                map_cache.invalidate_all(&metrics);
                if work_tx.is_some() {
                    // Respawn before re-enqueueing: the send below can
                    // block on a full channel and needs a consumer.
                    slots.push(spawn_slot(
                        next_id, &engine, &work_rx, &metrics, &tracer, &map_cache, &cfg,
                    ));
                    next_id += 1;
                    metrics.record(ObsEvent::Restart);
                }
                recover(inflight, work_tx.as_ref(), &next_batch, &metrics, &cfg);
            }
            // A clean exit is the normal end of the drain; no action.
        }

        // Stall detection: steal from stuck workers and replace them.
        if let Some(timeout) = cfg.stall_timeout {
            let mut i = 0;
            while i < slots.len() {
                if slots[i].shared.busy_for().is_none_or(|d| d <= timeout) {
                    i += 1;
                    continue;
                }
                let slot = slots.remove(i);
                slot.shared.retired.store(true, Ordering::SeqCst);
                let inflight = slot.shared.steal();
                metrics.record(ObsEvent::Fault {
                    kind: FaultKind::WorkerStall,
                    batch: inflight.as_ref().map(|b| b.seq),
                });
                if let Some(tel) = metrics.telemetry() {
                    let _ = tel.dump_postmortem("worker_stall", metrics.depth() as u64);
                }
                // A stuck worker is retired, not killed: it may wake
                // later and put back stream states from before the
                // recovery. Reset the cache to a known-clean slate;
                // affected streams just reseed on their next frame.
                map_cache.invalidate_all(&metrics);
                zombies.push(slot.handle);
                if work_tx.is_some() {
                    slots.push(spawn_slot(
                        next_id, &engine, &work_rx, &metrics, &tracer, &map_cache, &cfg,
                    ));
                    next_id += 1;
                    metrics.record(ObsEvent::Restart);
                }
                recover(inflight, work_tx.as_ref(), &next_batch, &metrics, &cfg);
            }
        }

        if stop.load(Ordering::SeqCst) {
            match &work_tx {
                Some(tx) => {
                    // The batcher has exited, so the channel only
                    // shrinks. Empty channel + idle pool means every
                    // admitted request is answered (or its batch is
                    // held by a worker that just dequeued it and will
                    // still run it after the disconnect).
                    let idle = slots.iter().all(|s| s.shared.busy_for().is_none());
                    if tx.is_empty() && idle {
                        work_tx = None;
                    }
                }
                None if slots.is_empty() => break,
                None => {}
            }
        }
        std::thread::sleep(cfg.supervisor_poll);
    }
    drop(zombies);
}

/// Re-enqueues (or sheds) the jobs of a batch recovered from a dead or
/// stuck worker. Every job still unanswered resolves to either a fresh
/// dispatch or a typed [`Rejected::WorkerCrashed`].
fn recover(
    inflight: Option<Batch>,
    work_tx: Option<&Sender<Batch>>,
    next_batch: &AtomicU64,
    metrics: &Metrics,
    cfg: &ServeConfig,
) {
    let Some(batch) = inflight else { return };
    let mut retry: Vec<_> = Vec::new();
    for mut job in batch.jobs {
        if job.done.load(Ordering::SeqCst) {
            continue; // already answered (by the worker or a twin)
        }
        if job.attempts >= cfg.max_requeues || work_tx.is_none() {
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
        // Fresh sequence number: an explicit fault plan that killed the
        // original batch does not automatically kill the replay.
        seq: next_batch.fetch_add(1, Ordering::SeqCst),
        jobs: retry,
    };
    metrics.record(ObsEvent::Requeue {
        batch: batch.seq,
        jobs: batch.jobs.len() as u64,
    });
    if let Some(tx) = work_tx {
        if let Err(e) = tx.send(batch) {
            for job in e.into_inner().jobs {
                shed_crashed(job, metrics);
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
