//! The training coordinator: shards each epoch's plan across connected
//! rollout workers, reconciles results through an episode ledger, and
//! folds the batch back into the model — synchronously (one central PPO
//! update) or decentralized (DD-PPO parameter averaging).
//!
//! # Determinism contract
//!
//! For a fixed `(seed, shard count)` the final checkpoint is
//! byte-identical across runs, worker schedules, worker deaths, and
//! restarts — because:
//!
//! 1. the epoch plan is drawn by the coordinator's trainer RNG exactly as
//!    the in-process path draws it;
//! 2. every episode is a pure function of `(start, episode seed, policy)`
//!    — re-executing it anywhere yields the same bytes, so the ledger
//!    keeps whichever copy lands first and drops duplicates;
//! 3. the merge folds results in **logical shard order** (sync: episode
//!    index order into one central update; decentralized: shard-ordered
//!    `f64` parameter averaging), never in arrival order.
//!
//! Physical workers are interchangeable executors of logical shards: the
//! shard count is the determinism key, the connection count is not.
//!
//! # Failure semantics
//!
//! A worker that dies (connection reset, process SIGKILL) or stalls past
//! the shard watchdog has its shard reassigned to an idle worker;
//! late-arriving duplicates are dropped by the ledger, so the accounted
//! episode total is exact. An epoch with no progress for
//! [`DistConfig::epoch_timeout`] aborts with [`DistError::Stalled`] —
//! the coordinator never hangs.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use inspector::{Checkpoint, EpisodeSummary, RolloutReport, Trainer, TrainingHistory};
use obs::trace::hex16;
use obs::Telemetry;
use rlcore::{average_ppo, average_stats, MergeShard, PpoTrainer, UpdateStats};
use serve::{AcceptPolicy, DirectAccept, Transport};
use store::RunStore;

use crate::protocol::{
    self, FrameKind, FrameReader, MergeMode, Message, Replica, MAX_FRAME_BYTES, PROTO_VERSION,
};
use crate::DistError;

/// Store key the coordinator (and the CLI's local path) writes the latest
/// checkpoint under after every epoch.
pub const CHECKPOINT_KEY: &str = "checkpoint/latest";

/// Coordinator-side knobs.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Logical shard count — the determinism key (CLI `--dist N`). Any
    /// number of physical workers ≥ 1 can serve these shards.
    pub shards: usize,
    /// Merge discipline.
    pub merge: MergeMode,
    /// Episode frame encoding workers reply with.
    pub frame: FrameKind,
    /// Watchdog: a shard assigned longer than this is speculatively
    /// reassigned to an idle worker, bounding the impact of a stall.
    pub shard_timeout: Duration,
    /// Hard bound: an epoch making no progress for this long aborts with
    /// [`DistError::Stalled`] instead of hanging.
    pub epoch_timeout: Duration,
    /// Scheduler poll tick: the watchdog's cadence, and the read timeout
    /// of a connection whose worker has a shard outstanding.
    pub tick: Duration,
    /// First epoch to run (nonzero after a `--resume`).
    pub start_epoch: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            shards: 1,
            merge: MergeMode::Sync,
            frame: FrameKind::Json,
            shard_timeout: Duration::from_secs(30),
            epoch_timeout: Duration::from_secs(600),
            tick: Duration::from_millis(20),
            start_epoch: 0,
        }
    }
}

/// What a coordinator run did, beyond the training curve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistReport {
    /// The training curve (identical to in-process training in sync mode).
    pub history: TrainingHistory,
    /// Episodes accounted by the ledger — exactly `batch_size` per epoch.
    pub episodes: u64,
    /// Duplicate episode results dropped by the ledger (speculative
    /// re-executions that both completed).
    pub duplicates: u64,
    /// Frames ignored because they referenced an already-finished epoch.
    pub stale: u64,
    /// Shard reassignments (worker death or watchdog).
    pub reassignments: u64,
    /// Workers that died after joining.
    pub worker_deaths: u64,
    /// Distinct workers that ever joined.
    pub workers_joined: u64,
}

enum Event {
    Joined {
        conn: u64,
        input_dim: usize,
        seed: u64,
        world: u64,
        tx: Sender<OutMsg>,
    },
    Episode {
        epoch: usize,
        summary: EpisodeSummary,
    },
    ShardDone {
        conn: u64,
        epoch: usize,
        shard: usize,
        replica: Option<Replica>,
    },
    Dead {
        conn: u64,
    },
}

enum OutMsg {
    /// A frame to write; for a `shard`, the worker owes a `shard_done`.
    Frame(Message),
    Close,
}

/// A bound, not-yet-running coordinator. Binding is split from running so
/// callers can learn the address (`addr`) before starting workers.
pub struct Coordinator {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Coordinator {
    /// Bind the coordinator listener (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port).
    pub fn bind(addr: &str) -> Result<Coordinator, DistError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| DistError::Io(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DistError::Io(e.to_string()))?;
        Ok(Coordinator { listener, addr })
    }

    /// The bound address workers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Run distributed training with the production accept path.
    pub fn run(
        self,
        trainer: &mut Trainer,
        cfg: &DistConfig,
        store: Option<&mut RunStore>,
        telemetry: &Telemetry,
    ) -> Result<DistReport, DistError> {
        self.run_with(trainer, cfg, store, telemetry, DirectAccept)
    }

    /// Run distributed training, admitting worker connections through
    /// `accept` — the chaos seam: a fault-injecting policy (e.g.
    /// `testkit::FaultPlan`) exercises worker kills and stalls against
    /// the real coordinator.
    pub fn run_with<A: AcceptPolicy>(
        self,
        trainer: &mut Trainer,
        cfg: &DistConfig,
        mut store: Option<&mut RunStore>,
        telemetry: &Telemetry,
        accept: A,
    ) -> Result<DistReport, DistError> {
        if cfg.shards == 0 {
            return Err(DistError::Config("shard count must be at least 1".into()));
        }
        if cfg.shards > trainer.config().batch_size {
            // An empty shard would hand a worker a zero-episode batch,
            // which the decentralized local update cannot train on.
            return Err(DistError::Config(format!(
                "shard count {} exceeds batch size {}",
                cfg.shards,
                trainer.config().batch_size
            )));
        }
        let (events_tx, events) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = spawn_acceptor(self.listener, accept, stop.clone(), events_tx, cfg.tick);

        let mut sched = Scheduler {
            cfg,
            events,
            workers: HashMap::new(),
            report: DistReport::default(),
            input_dim: trainer.features().dim(),
            seed: trainer.config().seed,
            world: trainer.world_digest(),
        };
        let epochs = trainer.config().epochs;
        let result = (|| {
            for epoch in cfg.start_epoch..epochs {
                sched.run_epoch(trainer, epoch, telemetry, &mut store)?;
            }
            Ok(())
        })();

        // Orderly shutdown regardless of outcome: tell workers to exit,
        // release their conn threads, and unblock + join the acceptor.
        for w in sched.workers.values() {
            let _ = w.tx.send(OutMsg::Frame(Message::Shutdown));
            let _ = w.tx.send(OutMsg::Close);
        }
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the blocking accept
        let _ = acceptor.join();

        result.map(|()| sched.report)
    }
}

struct WorkerState {
    tx: Sender<OutMsg>,
    busy: Option<usize>,
}

struct ShardState {
    /// Episode indices `lo..hi` of the plan this shard covers.
    range: std::ops::Range<usize>,
    /// Connections currently executing this shard (speculation allowed).
    owners: Vec<u64>,
    /// How many times this shard has been handed out this epoch; any
    /// assignment after the first is a reassignment (worker death or
    /// watchdog expiry).
    assigned: u32,
    /// Watchdog deadline of the most recent assignment.
    deadline: Option<Instant>,
    /// Set once the shard's results are fully accounted.
    done: bool,
}

struct Scheduler<'a> {
    cfg: &'a DistConfig,
    events: Receiver<Event>,
    workers: HashMap<u64, WorkerState>,
    report: DistReport,
    input_dim: usize,
    seed: u64,
    world: u64,
}

impl Scheduler<'_> {
    fn run_epoch(
        &mut self,
        trainer: &mut Trainer,
        epoch: usize,
        telemetry: &Telemetry,
        store: &mut Option<&mut RunStore>,
    ) -> Result<(), DistError> {
        let epoch_span = obs::span!(telemetry, "epoch");
        let plan = trainer.epoch_plan(epoch);
        let n = plan.starts.len();
        let k = self.cfg.shards;
        let checkpoint: Arc<str> = trainer.checkpoint_text(epoch).into();
        let mut shards: Vec<ShardState> = split_ranges(n, k)
            .into_iter()
            .map(|range| ShardState {
                range,
                owners: Vec::new(),
                assigned: 0,
                deadline: None,
                done: false,
            })
            .collect();
        let mut ledger: Vec<Option<EpisodeSummary>> = (0..n).map(|_| None).collect();
        let mut filled = 0usize;
        let mut replicas: Vec<Option<(PpoTrainer, UpdateStats)>> = (0..k).map(|_| None).collect();

        // Workers carried over from the previous epoch are idle now.
        for w in self.workers.values_mut() {
            w.busy = None;
        }

        let cache_before = (
            trainer.baseline_cache().hits(),
            trainer.baseline_cache().base_runs(),
        );
        let rollout_span = obs::span!(telemetry, "rollout");
        let rollout_start = Instant::now();
        let mut last_progress = Instant::now();

        loop {
            // Mark shards whose results are fully in.
            let mut all_done = true;
            for (s, shard) in shards.iter_mut().enumerate() {
                if !shard.done {
                    let episodes_in = shard.range.clone().all(|i| ledger[i].is_some());
                    let replica_in = self.cfg.merge == MergeMode::Sync || replicas[s].is_some();
                    shard.done = episodes_in && replica_in;
                }
                all_done &= shard.done;
            }
            if all_done {
                break;
            }

            // Assignment pass: every shard that is unowned — or past its
            // watchdog deadline — goes to an idle worker.
            let now = Instant::now();
            for (s, shard) in shards.iter_mut().enumerate() {
                if shard.done {
                    continue;
                }
                let expired = shard.deadline.is_some_and(|d| now >= d);
                let unowned = shard.owners.iter().all(|c| !self.workers.contains_key(c));
                if !(unowned || expired) {
                    continue;
                }
                let idle = self
                    .workers
                    .iter()
                    .filter(|(c, w)| w.busy.is_none() && !shard.owners.contains(c))
                    .map(|(c, _)| *c)
                    .min(); // deterministic pick; correctness never depends on it
                let Some(conn) = idle else { continue };
                let assignments: Vec<(usize, usize)> =
                    shard.range.clone().map(|i| (i, plan.starts[i])).collect();
                let assignment = Message::Shard {
                    epoch,
                    shard: s,
                    seed_base: plan.episode_seed_base,
                    merge: self.cfg.merge,
                    frame: self.cfg.frame,
                    assignments,
                    checkpoint: checkpoint.clone(),
                };
                let w = self.workers.get_mut(&conn).expect("picked from workers");
                if w.tx.send(OutMsg::Frame(assignment)).is_err() {
                    // Conn thread already gone; the Dead event will follow.
                    continue;
                }
                w.busy = Some(s);
                if shard.assigned > 0 {
                    self.report.reassignments += 1;
                }
                shard.assigned += 1;
                shard.owners.push(conn);
                shard.deadline = Some(now + self.cfg.shard_timeout);
            }

            // Event pump.
            match self.events.recv_timeout(self.cfg.tick) {
                Ok(Event::Joined {
                    conn,
                    input_dim,
                    seed,
                    world,
                    tx,
                }) => {
                    if (input_dim, seed, world) != (self.input_dim, self.seed, self.world) {
                        let message = format!(
                            "worker world mismatch: input_dim {input_dim} vs {}, \
                             seed {seed} vs {}, world digest {} vs {} (start the \
                             worker with the coordinator's trace/policy/metric/\
                             backfill/len flags)",
                            self.input_dim,
                            self.seed,
                            hex16(world),
                            hex16(self.world)
                        );
                        let _ = tx.send(OutMsg::Frame(Message::Error { message }));
                        let _ = tx.send(OutMsg::Close);
                        continue;
                    }
                    self.report.workers_joined += 1;
                    self.workers.insert(conn, WorkerState { tx, busy: None });
                    last_progress = Instant::now();
                }
                Ok(Event::Episode { epoch: e, summary }) => {
                    if e != epoch {
                        self.report.stale += 1;
                        continue;
                    }
                    let index = summary.index;
                    if index >= n {
                        continue; // hostile index; the frame was well-formed JSON
                    }
                    if ledger[index].is_none() {
                        ledger[index] = Some(summary);
                        filled += 1;
                        self.report.episodes += 1;
                        last_progress = Instant::now();
                    } else {
                        self.report.duplicates += 1;
                    }
                }
                Ok(Event::ShardDone {
                    conn,
                    epoch: e,
                    shard,
                    replica,
                }) => {
                    if let Some(w) = self.workers.get_mut(&conn) {
                        if w.busy == Some(shard) || e != epoch {
                            w.busy = None;
                        }
                    }
                    if e != epoch {
                        self.report.stale += 1;
                        continue;
                    }
                    if shard < k {
                        shards[shard].owners.retain(|c| *c != conn);
                        if let (Some(r), None) = (replica, &replicas[shard]) {
                            replicas[shard] = Some(parse_replica(&r, self.seed)?);
                        }
                        last_progress = Instant::now();
                    }
                }
                Ok(Event::Dead { conn }) => {
                    if self.workers.remove(&conn).is_some() {
                        self.report.worker_deaths += 1;
                    }
                    for shard in &mut shards {
                        shard.owners.retain(|c| *c != conn);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DistError::Io("acceptor channel closed".into()));
                }
            }

            if last_progress.elapsed() > self.cfg.epoch_timeout {
                return Err(DistError::Stalled {
                    epoch,
                    collected: filled,
                    expected: n,
                });
            }
        }

        drop(rollout_span);
        let rollout_secs = rollout_start.elapsed().as_secs_f64();
        debug_assert_eq!(filled, n);
        let summaries: Vec<EpisodeSummary> = ledger
            .into_iter()
            .map(|s| s.expect("ledger complete"))
            .collect();
        let traj_blob = store.as_ref().map(|_| protocol::encode_batch(&summaries));
        let report = RolloutReport {
            rollout_secs,
            baseline_secs: 0.0,
            cache_before,
        };
        let record = match self.cfg.merge {
            MergeMode::Sync => trainer.complete_epoch(epoch, summaries, report, epoch_span),
            MergeMode::Decentralized => {
                let parts: Vec<(PpoTrainer, UpdateStats, f64)> = replicas
                    .into_iter()
                    .zip(&shards)
                    .map(|(r, shard)| {
                        let (ppo, stats) = r.expect("all replicas present");
                        (ppo, stats, shard.range.len() as f64)
                    })
                    .collect();
                let merge_shards: Vec<MergeShard> = parts
                    .iter()
                    .map(|(ppo, _, w)| MergeShard { ppo, weight: *w })
                    .collect();
                let merged = average_ppo(&merge_shards).map_err(DistError::Train)?;
                let stats =
                    average_stats(&parts.iter().map(|(_, s, w)| (*s, *w)).collect::<Vec<_>>());
                trainer
                    .complete_epoch_premerged(epoch, summaries, merged, stats, report, epoch_span)
                    .map_err(|e| DistError::Train(e.to_string()))?
            }
        };
        self.report.history.records.push(record);

        if let Some(st) = store.as_deref_mut() {
            let blob = traj_blob.expect("encoded before completion");
            st.put(
                store::trajectory::epoch_key(epoch),
                store::trajectory::encode_segment(epoch as u64, &blob),
            );
            st.put(CHECKPOINT_KEY, trainer.checkpoint_text(epoch + 1));
            st.commit().map_err(|e| DistError::Store(e.to_string()))?;
        }
        Ok(())
    }
}

/// Parse and validate a decentralized replica shipped in `shard_done`.
fn parse_replica(r: &Replica, seed: u64) -> Result<(PpoTrainer, UpdateStats), DistError> {
    let ck = Checkpoint::from_text(&r.checkpoint)
        .map_err(|e| DistError::Train(format!("replica checkpoint: {e}")))?;
    let ppo = ck.into_ppo(seed).map_err(DistError::Train)?;
    Ok((ppo, r.stats))
}

/// Split `0..n` into `k` contiguous near-equal ranges (first `n % k`
/// ranges get the extra episode). Empty ranges are legal when `k > n`.
fn split_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut lo = 0;
    for s in 0..k {
        let len = base + usize::from(s < rem);
        out.push(lo..lo + len);
        lo += len;
    }
    out
}

fn spawn_acceptor<A: AcceptPolicy>(
    listener: TcpListener,
    mut accept: A,
    stop: Arc<AtomicBool>,
    events: Sender<Event>,
    tick: Duration,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let mut next_conn = 0u64;
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Some(conn_stream) = accept.admit(stream) else {
                continue;
            };
            let conn = next_conn;
            next_conn += 1;
            let (out_tx, out_rx) = mpsc::channel();
            let events = events.clone();
            thread::spawn(move || conn_loop(conn_stream, conn, tick, events, out_rx, out_tx));
        }
    })
}

/// Per-connection thread: writes outgoing frames, reads and parses
/// incoming ones, forwards semantic events to the scheduler. Any
/// protocol violation or transport failure ends the connection with a
/// `Dead` event — a misbehaving worker can never panic or wedge the
/// coordinator.
///
/// The protocol is strictly request/response after `hello`: a worker
/// speaks only to answer a `shard`. So while it owes nothing the thread
/// blocks on its outgoing queue — an assignment, or the final `shutdown`,
/// leaves the moment the scheduler queues it — and it reads (with `tick`
/// as the timeout, checking the queue between polls) only while a
/// `shard_done` is outstanding.
fn conn_loop<T: Transport>(
    mut t: T,
    conn: u64,
    tick: Duration,
    events: Sender<Event>,
    out_rx: Receiver<OutMsg>,
    out_tx: Sender<OutMsg>,
) {
    // The scheduler only needs to know *that* the conn died — it already
    // reassigns the shard either way — so the reason stays local.
    let dead = |events: &Sender<Event>, _reason: String| {
        let _ = events.send(Event::Dead { conn });
    };
    if let Err(e) = t.configure(Some(tick)) {
        dead(&events, e.to_string());
        return;
    }
    // The scheduler went away without a `Close`: the run ended with this
    // worker's `hello` (or its last frame) still unread in the event
    // queue — one that joined as the last rollouts finished. It is told
    // `shutdown` like every worker the scheduler knew, not hung up on.
    let farewell = |t: &mut T| {
        let mut line = String::new();
        protocol::write_message(&Message::Shutdown, &mut line);
        let _ = t.write_all(line.as_bytes());
    };
    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    // `Some` until `hello` hands the sender to the scheduler; from then on
    // the queue disconnects when the scheduler lets go of this worker.
    let mut out_tx = Some(out_tx);
    // `shard` frames written whose `shard_done` has not come back.
    let mut owed = 0usize;
    let mut out = String::new();
    loop {
        loop {
            let next = if out_tx.is_none() && owed == 0 {
                out_rx.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                out_rx.try_recv()
            };
            let msg = match next {
                Ok(OutMsg::Frame(msg)) => msg,
                Ok(OutMsg::Close) => return,
                Err(TryRecvError::Disconnected) => return farewell(&mut t),
                Err(TryRecvError::Empty) => break,
            };
            owed += usize::from(matches!(msg, Message::Shard { .. }));
            out.clear();
            protocol::write_message(&msg, &mut out);
            if let Err(e) = t.write_all(out.as_bytes()) {
                dead(&events, e.to_string());
                return;
            }
        }
        // A timeout comes back here, through the queue above: a peer
        // that goes quiet mid-frame cannot keep this thread from `Close`.
        let msg = match reader.poll_frame(&mut t) {
            Ok(None) => continue,
            Ok(Some(msg)) => msg,
            Err(e) => {
                dead(&events, e.to_string());
                return;
            }
        };
        let event = match (out_tx.take(), msg) {
            (
                Some(tx),
                Message::Hello {
                    proto,
                    input_dim,
                    seed,
                    world,
                },
            ) => {
                if proto != PROTO_VERSION {
                    // `error` has had one grammar since v1, so an older
                    // worker can print why it was turned away.
                    let message = format!(
                        "worker speaks protocol version {proto}, this coordinator {PROTO_VERSION}"
                    );
                    out.clear();
                    protocol::write_message(
                        &Message::Error {
                            message: message.clone(),
                        },
                        &mut out,
                    );
                    let _ = t.write_all(out.as_bytes());
                    dead(&events, message);
                    return;
                }
                Event::Joined {
                    conn,
                    input_dim,
                    seed,
                    world,
                    tx,
                }
            }
            (None, Message::Episode { epoch, summary }) => Event::Episode { epoch, summary },
            (
                None,
                Message::ShardDone {
                    epoch,
                    shard,
                    episodes: _,
                    replica,
                },
            ) => {
                owed = owed.saturating_sub(1);
                Event::ShardDone {
                    conn,
                    epoch,
                    shard,
                    replica,
                }
            }
            (_, Message::Error { message }) => {
                dead(&events, format!("worker error: {message}"));
                return;
            }
            (_, other) => {
                dead(
                    &events,
                    format!("unexpected frame before/after hello: {other:?}"),
                );
                return;
            }
        };
        if events.send(event).is_err() {
            return farewell(&mut t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A worker that has said `hello` and now waits: reads hand out `sent`,
    /// then time out; writes land in `got`.
    struct Waiting {
        sent: Vec<u8>,
        got: Arc<Mutex<Vec<u8>>>,
    }

    impl Transport for Waiting {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.sent.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.sent.len());
            buf[..n].copy_from_slice(&self.sent[..n]);
            self.sent.drain(..n);
            Ok(n)
        }
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.got.lock().unwrap().extend_from_slice(buf);
            Ok(())
        }
        fn configure(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A run can end with a worker's `hello` still unread in the event
    /// queue — the faster the rollouts, the likelier for the last worker
    /// to connect. When the scheduler goes, that worker's thread tells it
    /// `shutdown` and ends. (The parent closed the connection unannounced
    /// and the worker reported `Disconnected`; spine's `train_dist` fails
    /// a run on any worker error.)
    #[test]
    fn a_worker_the_scheduler_never_met_is_still_told_shutdown() {
        let mut hello = String::new();
        protocol::write_message(
            &Message::Hello {
                proto: PROTO_VERSION,
                input_dim: 8,
                seed: 42,
                world: 7,
            },
            &mut hello,
        );
        let got = Arc::new(Mutex::new(Vec::new()));
        let worker = Waiting {
            sent: hello.into_bytes(),
            got: got.clone(),
        };
        let (events_tx, events) = mpsc::channel();
        let (out_tx, out_rx) = mpsc::channel();
        let thread = thread::spawn(move || {
            conn_loop(
                worker,
                0,
                Duration::from_millis(1),
                events_tx,
                out_rx,
                out_tx,
            )
        });
        let joined = events.recv().expect("the hello arrives");
        assert!(matches!(joined, Event::Joined { conn: 0, .. }));
        // The scheduler ends without ever pumping that event.
        drop(joined);
        drop(events);
        thread.join().expect("conn thread ends");
        assert_eq!(
            String::from_utf8(got.lock().unwrap().clone()).unwrap(),
            "{\"verb\":\"shutdown\"}\n"
        );
    }

    #[test]
    fn split_covers_everything_contiguously() {
        for n in [0usize, 1, 5, 6, 7, 100] {
            for k in [1usize, 2, 3, 4, 8] {
                let ranges = split_ranges(n, k);
                assert_eq!(ranges.len(), k);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced split {lens:?}");
            }
        }
    }
}
