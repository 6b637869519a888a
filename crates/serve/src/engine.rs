//! The sharded micro-batching inference engine.
//!
//! Connection handlers submit feature vectors into one of N engine
//! *shards*, selected consistently by connection id ([`shard_for`]). Each
//! shard owns a bounded **lock-free MPSC ring** (a Vyukov-style sequenced
//! ring buffer; the same CAS publication idiom as the `obs::registry`
//! handle cache), its own inference thread with a reused
//! [`BatchForwardScratch`], and its own stats block — so shards share no
//! hot cache lines and scale with cores. A `Condvar` is used **only** for
//! sleep/wake parking of an idle shard thread; the request path itself
//! never takes a lock.
//!
//! Per-connection ordering: a connection maps to exactly one shard for its
//! whole lifetime, the ring is FIFO, and the shard thread is the only
//! consumer — so completions for any one connection are delivered in
//! submission order, exactly as in the single-queue engine.
//!
//! Exactness of the request ledger across shutdown: a producer *reserves*
//! a slot with `len.fetch_add(SeqCst)` **before** it checks the shutdown
//! flag, and the consumer exits only when `shutdown && len == 0` (both
//! SeqCst). In the SeqCst total order, a producer that saw `shutdown ==
//! false` has its reservation ordered before the consumer's final `len`
//! read, so the consumer drains that request; otherwise the producer rolls
//! the reservation back and the caller answers the client itself. No
//! accepted request can be lost, which is what keeps
//! `requests == ok + deadline_exceeded + overloaded + bad_dim +
//! draining_rejected` exact per shard and in the global sum.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inspector::{Decision, SchedInspector};
use obs::trace::span_id;
use obs::{Clock, Recorder, SpanKind, SpanRecord, SpanStatus, Telemetry};
use store::SwapCell;
use tinynn::{BatchForwardScratch, Mlp};

use crate::stats::ServerStats;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum requests drained into one inference batch (per shard).
    pub max_batch: usize,
    /// Bounded queue capacity **per shard**; submissions beyond it are
    /// rejected with [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Number of engine shards (inference threads + rings). Connections
    /// are routed by [`shard_for`].
    pub shards: usize,
    /// Generation tag of the initially loaded model. `0` for models that
    /// did not come from a store; [`BatchEngine::swap_model`] only accepts
    /// strictly newer generations.
    pub model_generation: u64,
    /// Flight recorder the shard loops write queue/batch/forward (and
    /// deadline-drop) spans into for traced requests. Disabled by default,
    /// in which case recording is a no-op and the hot path only pays one
    /// branch on the request's trace id.
    pub trace: Recorder,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 16,
            queue_capacity: 4096,
            shards: 1,
            model_generation: 0,
            trace: Recorder::disabled(),
        }
    }
}

/// Consistent connection→shard routing: a connection id maps to one shard
/// for its whole lifetime (pure function of the id), so per-connection
/// FIFO ordering is preserved no matter how many requests it pipelines.
#[inline]
pub fn shard_for(conn_id: u64, shards: usize) -> usize {
    (conn_id % shards.max(1) as u64) as usize
}

/// What the engine eventually reports back for one submitted request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completion {
    /// The model ran; here is its verdict.
    Decision {
        /// The inspector's accept/reject verdict.
        decision: Decision,
        /// Generation of the model that actually ran this request's batch
        /// (the per-batch [`store::SwapCell`] pin), so replies and trace
        /// spans attribute decisions correctly across mid-traffic swaps.
        generation: u64,
    },
    /// The request expired in the queue before its forward pass.
    DeadlineExceeded,
}

/// Why a submission was refused outright (nothing will be sent back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The shard's queue is full; the client should back off for roughly
    /// `retry_after_ms` before retrying.
    Overloaded {
        /// Suggested client backoff, derived from the current backlog and
        /// observed batch service time.
        retry_after_ms: u64,
    },
    /// The engine is draining; no new work is accepted.
    ShuttingDown,
}

struct Pending {
    token: u64,
    features: Vec<f32>,
    /// Trace context (0 = untraced: no spans are recorded).
    trace: u64,
    /// Clock tick (ns) at submission, for e2e latency.
    enqueued_ns: u64,
    /// Clock tick (ns) after which the request is expired, if any.
    deadline_ns: Option<u64>,
    tx: Sender<(u64, Completion)>,
}

/// One slot of the sequenced ring. `seq` is the publication protocol:
/// producers claim a position with a CAS on `head`, write the value, then
/// store `seq = pos + 1` (Release) to publish; the consumer reads the
/// value once `seq == tail + 1` (Acquire) and re-arms the slot with
/// `seq = tail + capacity` for the next lap.
struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Pending>>,
}

/// Vyukov-style bounded ring used MPSC: many producers CAS `head`; the
/// shard thread is the single consumer advancing `tail`. Occupancy is
/// bounded *outside* the ring by the shard's `len` reservation counter
/// (which enforces `queue_capacity` exactly), so a producer that claimed a
/// position only ever waits for a concurrent pop to re-arm its slot —
/// never for queue space.
struct Ring {
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: Box<[Slot]>,
}

// SAFETY: `Pending` values are moved through the `UnsafeCell`s under the
// `seq` publication protocol — exactly one producer writes a claimed slot
// and exactly one consumer reads it after the Release/Acquire handshake.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots,
        }
    }

    /// Multi-producer push. Never fails: the caller's `len` reservation
    /// guarantees a slot is (or is about to be) free, so the only wait is
    /// a bounded spin for a concurrent pop's re-arm store.
    fn push(&self, value: Pending) {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this producer exclusive
                        // ownership of the slot until the seq publication.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // The consumer claimed this slot's previous value but has
                // not re-armed it yet; reservation bounds say it will.
                std::hint::spin_loop();
                pos = self.head.load(Ordering::Relaxed);
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Single-consumer pop (only the shard thread calls this).
    fn pop(&self) -> Option<Pending> {
        let pos = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == pos.wrapping_add(1) {
            self.tail.store(pos + 1, Ordering::Relaxed);
            // SAFETY: seq == pos + 1 means the producer's Release store
            // published this value; we are the only consumer.
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            slot.seq
                .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
            Some(value)
        } else {
            None
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Drop any values still published (e.g. after a panicked shard
        // thread); single-threaded here by &mut.
        while self.pop().is_some() {}
    }
}

/// Idle-parking backstop: even if a wakeup is missed, the shard thread
/// re-polls its ring at this period, bounding added latency.
const PARK_BACKSTOP: Duration = Duration::from_millis(5);

struct Shard {
    ring: Ring,
    /// Reserved-occupancy counter — the exact-capacity gate (see module
    /// docs for the SeqCst shutdown handshake).
    len: AtomicUsize,
    /// True while the shard thread is parked on `cv`.
    sleeping: AtomicBool,
    park: Mutex<()>,
    cv: Condvar,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            ring: Ring::new(capacity),
            len: AtomicUsize::new(0),
            sleeping: AtomicBool::new(false),
            park: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn wake(&self) {
        if self.sleeping.load(Ordering::SeqCst) {
            // Lock/unlock pairs the notify with the consumer's re-check
            // under the same mutex, closing the classic missed-wakeup race.
            drop(self.park.lock().unwrap());
            self.cv.notify_one();
        }
    }
}

struct Shared {
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    cfg: EngineConfig,
    stats: Arc<ServerStats>,
    /// The live model, hot-swappable mid-traffic. Shard threads pin it
    /// for the duration of one forward pass (epoch-based reclamation —
    /// see [`store::SwapCell`]); a publish blocks only until in-flight
    /// batches finish, never dropping or misrouting a request.
    model: SwapCell<Mlp>,
    input_dim: usize,
    /// Serializes writers: [`BatchEngine::swap_model`] may be called from
    /// the registry watcher and an admin path concurrently.
    swap_lock: Mutex<()>,
    /// Deadline time source. Production passes [`obs::SystemClock`];
    /// tests pass an [`obs::VirtualClock`] to drive requests through
    /// expiry — including during the shutdown drain — without sleeping.
    clock: Arc<dyn Clock>,
}

impl Shared {
    fn total_queued(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }
}

/// Handle to the sharded engine. Submissions may come from any thread; one
/// background thread per shard runs the batches on the shared live model.
pub struct BatchEngine {
    shared: Arc<Shared>,
    input_dim: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl BatchEngine {
    /// Spawn one inference thread per shard around a loaded model, which
    /// the shards share through the [`SwapCell`]. Deadlines are interpreted
    /// as ticks of `clock` (production: [`obs::SystemClock`]).
    ///
    /// # Panics
    ///
    /// Panics if `stats` was built for a different shard count than
    /// `cfg.shards` — the per-shard stats blocks must line up.
    pub fn start(
        inspector: SchedInspector,
        cfg: EngineConfig,
        stats: Arc<ServerStats>,
        telemetry: Telemetry,
        clock: Arc<dyn Clock>,
    ) -> Arc<BatchEngine> {
        let shards = cfg.shards.max(1);
        assert_eq!(
            stats.shards.len(),
            shards,
            "ServerStats shard count must match EngineConfig.shards"
        );
        let input_dim = inspector.input_dim();
        let model = inspector.policy.mlp().clone();
        stats.model_generation.set(cfg.model_generation as f64);
        let shared = Arc::new(Shared {
            shards: (0..shards)
                .map(|_| Shard::new(cfg.queue_capacity))
                .collect(),
            shutdown: AtomicBool::new(false),
            model: SwapCell::new(shards, cfg.model_generation, model),
            input_dim,
            swap_lock: Mutex::new(()),
            cfg,
            stats,
            clock,
        });
        let workers = (0..shards)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let telemetry = telemetry.clone();
                std::thread::Builder::new()
                    .name(format!("serve-engine-{i}"))
                    .spawn(move || shard_loop(i, shared, telemetry))
                    .expect("spawn inference thread")
            })
            .collect();
        Arc::new(BatchEngine {
            shared,
            input_dim,
            workers: Mutex::new(workers),
        })
    }

    /// Feature-vector length the loaded model expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of engine shards.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Generation of the model currently serving decisions.
    pub fn model_generation(&self) -> u64 {
        self.shared.model.generation()
    }

    /// Hot-swap the serving model mid-traffic. Validates the network
    /// shape and that `generation` strictly advances, publishes, and blocks
    /// until no in-flight batch can still see the old model. Requests are
    /// never dropped or misrouted across the swap — each batch runs
    /// entirely on one model; the ledger stays exact.
    pub fn swap_model(&self, generation: u64, model: Mlp) -> Result<(), String> {
        if model.input_dim() != self.input_dim {
            self.shared.stats.model_swap_errors.inc();
            return Err(format!(
                "model expects {} inputs, engine serves {}",
                model.input_dim(),
                self.input_dim
            ));
        }
        if model.output_dim() != 2 {
            self.shared.stats.model_swap_errors.inc();
            return Err(format!(
                "binary policy needs 2 logits, network has {}",
                model.output_dim()
            ));
        }
        let _writer = self.shared.swap_lock.lock().unwrap();
        let current = self.shared.model.generation();
        if generation <= current {
            self.shared.stats.model_swap_errors.inc();
            return Err(format!(
                "stale model generation {generation} (serving {current})"
            ));
        }
        self.shared.model.publish(generation, model);
        self.shared.stats.model_generation.set(generation as f64);
        self.shared.stats.model_swaps.inc();
        Ok(())
    }

    /// Enqueue one request from connection `conn` (routed via
    /// [`shard_for`]). `deadline_ns` is a tick of the engine's clock (see
    /// [`obs::clock::deadline_after_ms`]). A nonzero `trace` id makes the
    /// shard loop record queue/batch/forward spans for this request into
    /// the configured flight recorder. On success the engine will later
    /// send `(token, completion)` through `tx`; on failure nothing is sent
    /// and the caller must answer the client itself.
    pub fn submit(
        &self,
        conn: u64,
        token: u64,
        features: Vec<f32>,
        deadline_ns: Option<u64>,
        trace: u64,
        tx: Sender<(u64, Completion)>,
    ) -> Result<(), SubmitError> {
        let idx = shard_for(conn, self.shared.shards.len());
        let shard = &self.shared.shards[idx];
        // Reserve before the shutdown check — the SeqCst handshake that
        // makes the drain exact (module docs).
        let prev = shard.len.fetch_add(1, Ordering::SeqCst);
        if prev >= self.shared.cfg.queue_capacity {
            shard.len.fetch_sub(1, Ordering::SeqCst);
            self.shared.stats.shards[idx].overloaded.inc();
            return Err(SubmitError::Overloaded {
                retry_after_ms: self.retry_hint(prev),
            });
        }
        if self.shared.shutdown.load(Ordering::SeqCst) {
            shard.len.fetch_sub(1, Ordering::SeqCst);
            return Err(SubmitError::ShuttingDown);
        }
        shard.ring.push(Pending {
            token,
            features,
            trace,
            enqueued_ns: self.shared.clock.now_ns(),
            deadline_ns,
            tx,
        });
        let stats = &self.shared.stats;
        stats.shards[idx]
            .queue_depth
            .set(shard.len.load(Ordering::Relaxed) as f64);
        stats.queue_depth.set(self.shared.total_queued() as f64);
        shard.wake();
        Ok(())
    }

    /// Rough time to drain `backlog` requests at the observed batch
    /// service rate, floored at 1ms so clients always pause.
    fn retry_hint(&self, backlog: usize) -> u64 {
        let stats = &self.shared.stats;
        let mean_batch = stats.mean_batch_size().max(1.0);
        let batch_ns = stats.infer_batch.mean_ticks().max(1_000.0);
        let drain_ms = (backlog as f64 / mean_batch) * batch_ns / 1_000_000.0;
        (drain_ms.ceil() as u64).max(1)
    }

    /// Stop accepting work, finish everything queued on every shard, and
    /// join the inference threads. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            let _guard = shard.park.lock().unwrap();
            shard.cv.notify_all();
        }
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for BatchEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("input_dim", &self.input_dim)
            .field("cfg", &self.shared.cfg)
            .finish()
    }
}

/// Per-shard inference loop: drain ≤ `max_batch` requests, expire stale
/// ones, run one fused forward over the survivors, answer in submission
/// order, park when idle. The model is pinned from the shared
/// [`SwapCell`] for exactly one batch at a time, so a hot-swap lands
/// between batches and each batch runs entirely on one generation.
fn shard_loop(idx: usize, shared: Arc<Shared>, telemetry: Telemetry) {
    let shard = &shared.shards[idx];
    let sstats = &shared.stats.shards[idx];
    let input_dim = shared.input_dim;
    let recorder = &shared.cfg.trace;
    let mut fwd = BatchForwardScratch::default();
    let mut batch: Vec<Pending> = Vec::with_capacity(shared.cfg.max_batch);
    let mut expired: Vec<bool> = Vec::with_capacity(shared.cfg.max_batch);
    // Shard-local batch sequence, namespaced by shard in the high bits so
    // batch ids are globally unique without any cross-shard coordination
    // (and never 0 — 0 means "not part of a batch" in span records).
    let mut batch_counter: u64 = 0;

    loop {
        batch.clear();
        while batch.len() < shared.cfg.max_batch {
            if let Some(p) = shard.ring.pop() {
                shard.len.fetch_sub(1, Ordering::SeqCst);
                batch.push(p);
            } else if batch.is_empty() && shard.len.load(Ordering::SeqCst) > 0 {
                // A producer reserved but has not finished its push yet.
                std::hint::spin_loop();
            } else {
                break;
            }
        }

        if batch.is_empty() {
            if shared.shutdown.load(Ordering::SeqCst) && shard.len.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Park until a producer wakes us; the timeout is a liveness
            // backstop against any missed notify.
            shard.sleeping.store(true, Ordering::SeqCst);
            let guard = shard.park.lock().unwrap();
            if shard.len.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst) {
                let _ = shard.cv.wait_timeout(guard, PARK_BACKSTOP).unwrap();
            }
            shard.sleeping.store(false, Ordering::SeqCst);
            continue;
        }

        // Pass 1: expire by deadline, pack the live rows contiguously.
        let started = Instant::now();
        let t_pack = shared.clock.now_ns();
        expired.clear();
        fwd.clear(input_dim);
        let mut traced = false;
        for p in &batch {
            let late = p.deadline_ns.is_some_and(|d| t_pack > d);
            expired.push(late);
            traced |= p.trace != 0;
            if !late {
                fwd.push_row(&p.features);
            }
        }
        let tracing = traced && recorder.is_enabled();
        batch_counter += 1;
        let batch_seq = (idx as u64) << 48 | batch_counter;

        // Pass 2: one fused forward over the whole micro-batch, on a
        // pinned snapshot of the live model. The pin is per-batch: a
        // concurrent publish waits (at most one batch) for this guard to
        // drop, then frees the old model — no locks on this path.
        let model = shared.model.pin(idx);
        let generation = model.generation();
        let t_forward = if tracing { shared.clock.now_ns() } else { 0 };
        let logits: &[f32] = model.forward_batch(&mut fwd);
        let t_done = if tracing { shared.clock.now_ns() } else { 0 };

        // Pass 3: answer in submission order (per-connection FIFO). Error
        // counters are bumped *before* the send so a client that observed
        // the completion also observes the counter; flight-recorder spans
        // are recorded before the send so the reply path can already see
        // the full shard-side chain.
        let mut served = 0usize;
        let stats = &shared.stats;
        for (p, late) in batch.drain(..).zip(expired.drain(..)) {
            if tracing && p.trace != 0 {
                record_shard_spans(
                    recorder, idx, &p, late, t_pack, t_forward, t_done, batch_seq, generation,
                );
            }
            if late {
                stats.deadline_exceeded.inc();
                sstats.deadline_exceeded.inc();
                let _ = p.tx.send((p.token, Completion::DeadlineExceeded));
                continue;
            }
            let decision = Decision::from_logits(logits[served * 2], logits[served * 2 + 1]);
            served += 1;
            let e2e_ticks = shared.clock.now_ns().saturating_sub(p.enqueued_ns);
            stats.e2e.observe_ticks_exemplar(e2e_ticks, p.trace);
            if telemetry.is_enabled() {
                telemetry.observe("serve.e2e_s", e2e_ticks as f64 / 1e9);
            }
            let _ = p.tx.send((
                p.token,
                Completion::Decision {
                    decision,
                    generation,
                },
            ));
        }
        let infer_elapsed = started.elapsed();
        let served = served as u64;
        stats.ok.add(served);
        stats.batches.inc();
        stats.batched_requests.add(served);
        stats
            .infer_batch
            .observe_ticks(infer_elapsed.as_nanos() as u64);
        sstats.ok.add(served);
        sstats.batches.inc();
        sstats.batched_requests.add(served);
        sstats.batch_size.observe_ticks(served);
        sstats
            .queue_depth
            .set(shard.len.load(Ordering::Relaxed) as f64);
        stats.queue_depth.set(shared.total_queued() as f64);
        if telemetry.is_enabled() {
            telemetry.count("serve.batches", 1);
            telemetry.count("serve.requests", served);
            telemetry.observe("serve.batch_infer_s", infer_elapsed.as_secs_f64());
            telemetry.gauge("serve.queue_depth", stats.queue_depth.get());
        }
    }
}

/// Record the shard-side spans for one traced request: always the queue
/// span (submission → batch formation); then either batch + forward spans
/// linked by `batch_seq`, or a terminal `dropped` span for a deadline
/// expiry. Span ids are pure functions of `(trace, kind)`, so the server's
/// request/write spans chain to these without any shared state.
#[allow(clippy::too_many_arguments)]
fn record_shard_spans(
    recorder: &Recorder,
    shard: usize,
    p: &Pending,
    late: bool,
    t_pack: u64,
    t_forward: u64,
    t_done: u64,
    batch_seq: u64,
    generation: u64,
) {
    let trace = p.trace;
    let span = |kind: SpanKind, parent: SpanKind, status, batch_seq, start_ns, end_ns| SpanRecord {
        trace_id: trace,
        span_id: span_id(trace, kind),
        parent_id: span_id(trace, parent),
        kind,
        status,
        shard: shard as u32,
        batch_seq,
        model_generation: generation,
        start_ns,
        end_ns,
    };
    recorder.record(
        shard,
        &span(
            SpanKind::Queue,
            SpanKind::Request,
            SpanStatus::Ok,
            0,
            p.enqueued_ns,
            t_pack,
        ),
    );
    if late {
        recorder.record(
            shard,
            &span(
                SpanKind::Dropped,
                SpanKind::Queue,
                SpanStatus::DeadlineExceeded,
                0,
                t_pack,
                t_pack,
            ),
        );
        return;
    }
    recorder.record(
        shard,
        &span(
            SpanKind::Batch,
            SpanKind::Queue,
            SpanStatus::Ok,
            batch_seq,
            t_pack,
            t_done,
        ),
    );
    recorder.record(
        shard,
        &span(
            SpanKind::Forward,
            SpanKind::Batch,
            SpanStatus::Ok,
            batch_seq,
            t_forward,
            t_done,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcore::PolicyScratch;
    use std::sync::mpsc;

    fn tiny_inspector_seeded(seed: u64) -> SchedInspector {
        use inspector::{FeatureBuilder, FeatureMode, Normalizer};
        use rlcore::BinaryPolicy;
        use simhpc::Metric;
        let fb = FeatureBuilder {
            mode: FeatureMode::Manual,
            metric: Metric::Bsld,
            norm: Normalizer::new(64, 3600.0),
        };
        SchedInspector::new(BinaryPolicy::new(fb.dim(), seed), fb)
    }

    fn tiny_inspector() -> SchedInspector {
        tiny_inspector_seeded(7)
    }

    #[test]
    fn completions_arrive_in_submission_order() {
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 8));
        let engine = BatchEngine::start(
            inspector,
            EngineConfig {
                max_batch: 8,
                queue_capacity: 1024,
                ..EngineConfig::default()
            },
            Arc::clone(&stats),
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        let (tx, rx) = mpsc::channel();
        for token in 0..100u64 {
            let features = vec![(token % 7) as f32 / 7.0; dim];
            engine
                .submit(0, token, features, None, 0, tx.clone())
                .unwrap();
        }
        drop(tx);
        let tokens: Vec<u64> = rx.iter().map(|(t, _)| t).collect();
        assert_eq!(tokens, (0..100).collect::<Vec<_>>());
        // Join the engine before reading counters: it bumps them after
        // sending the completions.
        engine.shutdown();
        assert_eq!(stats.ok.get(), 100);
        assert!(stats.batches.get() >= 100 / 8);
    }

    #[test]
    fn engine_matches_direct_inspector_calls() {
        use rand::{RngExt, SeedableRng, StdRng};
        let inspector = tiny_inspector();
        let reference = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 16));
        let engine = BatchEngine::start(
            inspector,
            EngineConfig::default(),
            stats,
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = PolicyScratch::default();
        let (tx, rx) = mpsc::channel();
        for token in 0..50u64 {
            let features: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let expect = reference.decide(&features, &mut scratch);
            engine
                .submit(0, token, features, None, 0, tx.clone())
                .unwrap();
            match rx.recv().unwrap() {
                (t, Completion::Decision { decision: got, .. }) => {
                    assert_eq!(t, token);
                    assert_eq!(got.reject, expect.reject);
                    assert_eq!(got.p_reject, expect.p_reject);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        engine.shutdown();
    }

    #[test]
    fn sharded_engine_matches_direct_inspector_calls_bit_exactly() {
        // The fused batched forward must not change a single decision bit
        // relative to the scalar path, across every shard.
        use rand::{RngExt, SeedableRng, StdRng};
        let inspector = tiny_inspector();
        let reference = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::sharded(dim, 16, 4));
        let engine = BatchEngine::start(
            inspector,
            EngineConfig {
                shards: 4,
                ..EngineConfig::default()
            },
            Arc::clone(&stats),
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        let mut rng = StdRng::seed_from_u64(23);
        let mut scratch = PolicyScratch::default();
        for conn in 0..8u64 {
            let (tx, rx) = mpsc::channel();
            for token in 0..32u64 {
                let features: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                let expect = reference.decide(&features, &mut scratch);
                engine
                    .submit(conn, token, features, None, 0, tx.clone())
                    .unwrap();
                match rx.recv().unwrap() {
                    (t, Completion::Decision { decision: got, .. }) => {
                        assert_eq!(t, token);
                        assert_eq!(got.reject, expect.reject);
                        assert_eq!(got.p_reject.to_bits(), expect.p_reject.to_bits());
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        engine.shutdown();
        // Work landed on every shard, and shard sums equal the global
        // ledger counters.
        for shard in &stats.shards {
            assert!(shard.ok.get() > 0, "every shard saw traffic");
        }
        let shard_ok: u64 = stats.shards.iter().map(|s| s.ok.get()).sum();
        assert_eq!(shard_ok, stats.ok.get());
        assert_eq!(stats.ok.get(), 8 * 32);
    }

    #[test]
    fn hot_swap_serves_the_new_model_bit_exactly_and_validates_updates() {
        use rand::{RngExt, SeedableRng, StdRng};
        let old = tiny_inspector_seeded(7);
        let next = tiny_inspector_seeded(31);
        let reference = tiny_inspector_seeded(31);
        let dim = old.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 8));
        let engine = BatchEngine::start(
            old,
            EngineConfig::default(),
            Arc::clone(&stats),
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        assert_eq!(engine.model_generation(), 0);

        engine.swap_model(3, next.policy.mlp().clone()).unwrap();
        assert_eq!(engine.model_generation(), 3);
        assert_eq!(stats.model_generation.get(), 3.0);

        // Every post-swap decision matches the new model bit-for-bit.
        let mut rng = StdRng::seed_from_u64(99);
        let mut scratch = PolicyScratch::default();
        let (tx, rx) = mpsc::channel();
        for token in 0..40u64 {
            let features: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let expect = reference.decide(&features, &mut scratch);
            engine
                .submit(0, token, features, None, 0, tx.clone())
                .unwrap();
            match rx.recv().unwrap() {
                (t, Completion::Decision { decision: got, .. }) => {
                    assert_eq!(t, token);
                    assert_eq!(got.p_reject.to_bits(), expect.p_reject.to_bits());
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        // Stale generation, wrong input dim, wrong logit head: all
        // rejected, serving untouched.
        let mut nrng = StdRng::seed_from_u64(1);
        assert!(engine.swap_model(3, next.policy.mlp().clone()).is_err());
        let wrong_in = Mlp::new(
            &[dim + 1, 4, 2],
            tinynn::Activation::Tanh,
            tinynn::Activation::Identity,
            &mut nrng,
        );
        assert!(engine.swap_model(4, wrong_in).is_err());
        let wrong_out = Mlp::new(
            &[dim, 4, 3],
            tinynn::Activation::Tanh,
            tinynn::Activation::Identity,
            &mut nrng,
        );
        assert!(engine.swap_model(4, wrong_out).is_err());
        assert_eq!(engine.model_generation(), 3);
        assert_eq!(stats.model_swaps.get(), 1);
        assert_eq!(stats.model_swap_errors.get(), 3);
        engine.shutdown();
    }

    #[test]
    fn mid_traffic_swaps_never_drop_requests() {
        // Hammer a sharded engine from the main thread while a swapper
        // thread publishes 50 generations: every accepted request must
        // complete exactly once and the ledger must balance — the same
        // invariant the chaos harness asserts end-to-end.
        let dim = tiny_inspector().input_dim();
        let stats = Arc::new(ServerStats::sharded(dim, 8, 2));
        let engine = BatchEngine::start(
            tiny_inspector_seeded(7),
            EngineConfig {
                shards: 2,
                queue_capacity: 4096,
                ..EngineConfig::default()
            },
            Arc::clone(&stats),
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        let swapper = {
            let engine = Arc::clone(&engine);
            let a = tiny_inspector_seeded(31).policy.mlp().clone();
            let b = tiny_inspector_seeded(47).policy.mlp().clone();
            std::thread::spawn(move || {
                for generation in 1..=50u64 {
                    let net = if generation % 2 == 0 { &a } else { &b };
                    engine.swap_model(generation, net.clone()).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        let (tx, rx) = mpsc::channel();
        let mut submitted = 0u64;
        for token in 0..4000u64 {
            if engine
                .submit(token % 8, token, vec![0.25; dim], None, 0, tx.clone())
                .is_ok()
            {
                submitted += 1;
            }
        }
        swapper.join().unwrap();
        engine.shutdown();
        drop(tx);
        assert_eq!(rx.iter().count() as u64, submitted);
        assert_eq!(engine.model_generation(), 50);
        assert_eq!(stats.model_swaps.get(), 50);
        assert_eq!(
            stats.ok.get() + stats.deadline_exceeded.get(),
            submitted,
            "ledger balances across 50 mid-traffic swaps"
        );
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 4));
        let engine = BatchEngine::start(
            inspector,
            EngineConfig {
                max_batch: 4,
                queue_capacity: 2,
                ..EngineConfig::default()
            },
            Arc::clone(&stats),
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        let (tx, rx) = mpsc::channel();
        // Saturate: keep submitting until Overloaded shows up. The engine
        // may drain between submissions, so allow a bounded number of
        // attempts before asserting.
        let mut overloaded = None;
        for token in 0..10_000u64 {
            match engine.submit(0, token, vec![0.0; dim], None, 0, tx.clone()) {
                Ok(()) => {}
                Err(e) => {
                    overloaded = Some(e);
                    break;
                }
            }
        }
        if let Some(SubmitError::Overloaded { retry_after_ms }) = overloaded {
            assert!(retry_after_ms >= 1);
            assert!(stats.shards[0].overloaded.get() >= 1);
        }
        drop(tx);
        let drained = rx.iter().count();
        assert!(drained > 0);
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_yields_deadline_exceeded() {
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 4));
        // Virtual clock: start it past the deadline so expiry is certain,
        // with no sleeps and no reliance on wall-clock granularity.
        let (vc, clock) = obs::VirtualClock::shared();
        vc.advance_ns(10_000_000);
        let engine = BatchEngine::start(
            inspector,
            EngineConfig::default(),
            Arc::clone(&stats),
            Telemetry::disabled(),
            clock,
        );
        let (tx, rx) = mpsc::channel();
        engine.submit(0, 0, vec![0.0; dim], Some(1), 0, tx).unwrap();
        assert_eq!(rx.recv().unwrap(), (0, Completion::DeadlineExceeded));
        assert_eq!(stats.deadline_exceeded.get(), 1);
        engine.shutdown();
        assert_eq!(stats.shards[0].deadline_exceeded.get(), 1);
    }

    #[test]
    fn virtual_clock_drives_deadlines_deterministically() {
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 4));
        let (vc, clock) = obs::VirtualClock::shared();
        let engine = BatchEngine::start(
            inspector,
            EngineConfig::default(),
            Arc::clone(&stats),
            Telemetry::disabled(),
            clock,
        );
        let (tx, rx) = mpsc::channel();
        // Deadline at tick 5ms; clock still at 0 → must succeed.
        engine
            .submit(0, 0, vec![0.2; dim], Some(5_000_000), 0, tx.clone())
            .unwrap();
        assert!(matches!(
            rx.recv().unwrap(),
            (0, Completion::Decision { decision: _, .. })
        ));
        // Advance past the deadline before submitting → must expire.
        vc.advance_ns(6_000_000);
        engine
            .submit(0, 1, vec![0.2; dim], Some(5_000_000), 0, tx)
            .unwrap();
        assert_eq!(rx.recv().unwrap(), (1, Completion::DeadlineExceeded));
        assert_eq!(stats.deadline_exceeded.get(), 1);
        assert_eq!(stats.ok.get(), 1);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drain_still_honours_expired_deadlines() {
        // The drain path must expire requests by the injected clock too:
        // queue work with deadlines, advance time past them, then shut
        // down. Everything queued must complete as DeadlineExceeded, and
        // the request ledger must balance.
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 4));
        let (vc, clock) = obs::VirtualClock::shared();
        // Park the engine thread on a first request so the rest stay
        // queued until shutdown's drain.
        let engine = BatchEngine::start(
            inspector,
            EngineConfig {
                max_batch: 1,
                queue_capacity: 64,
                ..EngineConfig::default()
            },
            Arc::clone(&stats),
            Telemetry::disabled(),
            clock,
        );
        let (tx, rx) = mpsc::channel();
        for token in 0..8u64 {
            engine
                .submit(0, token, vec![0.1; dim], Some(1_000_000), 0, tx.clone())
                .unwrap();
        }
        vc.advance_ns(2_000_000); // all deadlines are now in the past
        engine.shutdown();
        drop(tx);
        let completions: Vec<(u64, Completion)> = rx.iter().collect();
        assert_eq!(completions.len(), 8, "drain must answer everything");
        // At least the tail of the queue expired (the engine may have
        // raced the first few through before the clock advanced).
        assert!(completions
            .iter()
            .any(|(_, c)| *c == Completion::DeadlineExceeded));
        assert_eq!(
            stats.ok.get() + stats.deadline_exceeded.get(),
            8,
            "ledger balances after drain"
        );
    }

    #[test]
    fn shutdown_drains_queued_work_then_rejects() {
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::new(dim, 16));
        let engine = BatchEngine::start(
            inspector,
            EngineConfig::default(),
            Arc::clone(&stats),
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        let (tx, rx) = mpsc::channel();
        for token in 0..32u64 {
            engine
                .submit(0, token, vec![0.5; dim], None, 0, tx.clone())
                .unwrap();
        }
        engine.shutdown();
        assert_eq!(
            engine.submit(0, 99, vec![0.5; dim], None, 0, tx.clone()),
            Err(SubmitError::ShuttingDown)
        );
        drop(tx);
        let completions = rx.iter().count();
        assert_eq!(completions, 32, "shutdown must drain queued requests");
    }

    #[test]
    fn multi_shard_drain_answers_every_connection() {
        // Queue work across all shards, then shut down: every request
        // gets exactly one completion and the per-shard ledgers sum to
        // the global one.
        let inspector = tiny_inspector();
        let dim = inspector.input_dim();
        let stats = Arc::new(ServerStats::sharded(dim, 8, 4));
        let engine = BatchEngine::start(
            inspector,
            EngineConfig {
                max_batch: 8,
                queue_capacity: 256,
                shards: 4,
                ..EngineConfig::default()
            },
            Arc::clone(&stats),
            Telemetry::disabled(),
            obs::SystemClock::shared(),
        );
        let (tx, rx) = mpsc::channel();
        let mut submitted = 0u64;
        for conn in 0..16u64 {
            for token in 0..25u64 {
                if engine
                    .submit(
                        conn,
                        conn * 100 + token,
                        vec![0.3; dim],
                        None,
                        0,
                        tx.clone(),
                    )
                    .is_ok()
                {
                    submitted += 1;
                }
            }
        }
        engine.shutdown();
        drop(tx);
        let completions = rx.iter().count() as u64;
        assert_eq!(completions, submitted, "one completion per submission");
        let shard_ok: u64 = stats.shards.iter().map(|s| s.ok.get()).sum();
        let shard_dl: u64 = stats.shards.iter().map(|s| s.deadline_exceeded.get()).sum();
        assert_eq!(shard_ok, stats.ok.get());
        assert_eq!(shard_dl, stats.deadline_exceeded.get());
        assert_eq!(shard_ok + shard_dl, submitted);
    }

    #[test]
    fn shard_routing_is_consistent_and_total() {
        for shards in 1..=8usize {
            for conn in 0..1000u64 {
                let s = shard_for(conn, shards);
                assert!(s < shards);
                // Pure function: same connection, same shard, every time.
                assert_eq!(s, shard_for(conn, shards));
            }
        }
        // Degenerate shard count still routes.
        assert_eq!(shard_for(42, 0), 0);
    }
}
