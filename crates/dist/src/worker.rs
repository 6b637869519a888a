//! The rollout worker: connects to a coordinator, installs each epoch's
//! checkpoint, rolls out its assigned episodes with the existing
//! allocation-free rollout path, and streams the results back.
//!
//! A worker is **stateless across shards** by construction: every shard
//! frame is followed by the checkpoint to roll out under, so a worker
//! that joins mid-training (or replaces a killed one) produces
//! byte-identical episodes. Workers run as separate processes
//! (`schedinspector dist-worker`) or as in-process threads
//! ([`spawn_local_workers`]) — both speak the same [`Transport`]-level
//! protocol.

use std::net::TcpStream;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use inspector::{Checkpoint, Trainer};
use rlcore::Batch;
use serve::Transport;

use crate::protocol::{
    self, FrameKind, FrameReader, MergeMode, Message, ProtoError, Replica, MAX_FRAME_BYTES,
    PROTO_VERSION,
};
use crate::DistError;

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address to connect to.
    pub connect: String,
    /// Read-timeout tick (poll period while idle).
    pub tick: Duration,
    /// How long to retry the initial connect (the coordinator may still
    /// be binding when a worker process starts).
    pub connect_timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            connect: "127.0.0.1:7700".into(),
            tick: Duration::from_millis(50),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// What a worker did over its session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shards rolled out (including speculative re-executions).
    pub shards: u64,
    /// Episodes streamed back.
    pub episodes: u64,
}

/// Connect to `cfg.connect` (with retry while the coordinator binds) and
/// serve shards until the coordinator sends `shutdown`.
pub fn run_worker(trainer: &mut Trainer, cfg: &WorkerConfig) -> Result<WorkerReport, DistError> {
    let deadline = Instant::now() + cfg.connect_timeout;
    let stream = loop {
        match TcpStream::connect(&cfg.connect) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(DistError::Io(format!("connect {}: {e}", cfg.connect))),
        }
    };
    run_worker_on(trainer, stream, cfg.tick)
}

/// Serve shards over an established transport until `shutdown`. The
/// in-process test path enters here directly.
pub fn run_worker_on<T: Transport>(
    trainer: &mut Trainer,
    mut conn: T,
    tick: Duration,
) -> Result<WorkerReport, DistError> {
    conn.configure(Some(tick))
        .map_err(|e| DistError::Io(e.to_string()))?;
    let mut out = String::new();
    protocol::write_message(
        &Message::Hello {
            proto: PROTO_VERSION,
            input_dim: trainer.features().dim(),
            seed: trainer.config().seed,
            world: trainer.world_digest(),
        },
        &mut out,
    );
    conn.write_all(out.as_bytes())
        .map_err(|e| DistError::Io(e.to_string()))?;

    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    let mut report = WorkerReport::default();
    loop {
        let msg = match reader.poll_frame(&mut conn) {
            Ok(None) => continue,
            Ok(Some(msg)) => msg,
            Err(ProtoError::Closed) => return Err(DistError::Disconnected),
            Err(e) => return Err(DistError::Protocol(e)),
        };
        match msg {
            Message::Shard {
                epoch,
                shard,
                seed_base,
                merge,
                frame,
                assignments,
                checkpoint,
            } => {
                report.episodes += run_shard(
                    trainer,
                    &mut conn,
                    ShardJob {
                        epoch,
                        shard,
                        seed_base,
                        merge,
                        frame,
                        assignments: &assignments,
                        checkpoint: &checkpoint,
                    },
                )?;
                report.shards += 1;
            }
            Message::Shutdown => return Ok(report),
            Message::Error { message } => return Err(DistError::Remote(message)),
            other => {
                return Err(DistError::Protocol(ProtoError::Malformed(format!(
                    "unexpected frame from coordinator: {:?}",
                    frame_name(&other)
                ))))
            }
        }
    }
}

fn frame_name(msg: &Message) -> &'static str {
    match msg {
        Message::Hello { .. } => "hello",
        Message::Shard { .. } => "shard",
        Message::Episode { .. } => "episode",
        Message::ShardDone { .. } => "shard_done",
        Message::Shutdown => "shutdown",
        Message::Error { .. } => "error",
    }
}

struct ShardJob<'a> {
    epoch: usize,
    shard: usize,
    seed_base: u64,
    merge: MergeMode,
    frame: FrameKind,
    assignments: &'a [(usize, usize)],
    checkpoint: &'a str,
}

fn run_shard<T: Transport>(
    trainer: &mut Trainer,
    conn: &mut T,
    job: ShardJob<'_>,
) -> Result<u64, DistError> {
    let ck = Checkpoint::from_text(job.checkpoint).map_err(|e| DistError::Train(e.to_string()))?;
    trainer
        .install_checkpoint(ck)
        .map_err(|e| DistError::Train(e.to_string()))?;
    let policy = trainer.ppo().policy.clone();
    let (summaries, _baseline_nanos) =
        trainer.rollout_assigned(job.seed_base, job.assignments, &policy);

    let mut out = Vec::new();
    for s in &summaries {
        out.clear();
        protocol::write_episode(job.epoch, s, job.frame, &mut out);
        conn.write_all(&out)
            .map_err(|e| DistError::Io(e.to_string()))?;
    }

    let replica = match job.merge {
        MergeMode::Sync => None,
        MergeMode::Decentralized => {
            // Local DD-PPO update over this shard's trajectories, in
            // episode order, starting from the shipped checkpoint — a
            // pure function of (checkpoint, shard plan), so a shard
            // re-executed after a worker death merges identically.
            let batch = Batch {
                trajectories: summaries.iter().map(|s| s.trajectory.clone()).collect(),
            };
            let stats = trainer.ppo_mut().update(&batch);
            Some(Replica {
                checkpoint: trainer.checkpoint_text(job.epoch + 1),
                stats,
            })
        }
    };
    let n = summaries.len() as u64;
    let mut out = String::new();
    protocol::write_message(
        &Message::ShardDone {
            epoch: job.epoch,
            shard: job.shard,
            episodes: n,
            replica,
        },
        &mut out,
    );
    conn.write_all(out.as_bytes())
        .map_err(|e| DistError::Io(e.to_string()))?;
    Ok(n)
}

/// Handles to in-process workers started by [`spawn_local_workers`].
pub struct LocalWorkers {
    handles: Vec<JoinHandle<Result<WorkerReport, DistError>>>,
}

impl LocalWorkers {
    /// Wait for every worker thread; a worker that lost its connection
    /// (e.g. its coordinator-side stream was chaos-killed) reports an
    /// error rather than panicking the test.
    pub fn join(self) -> Vec<Result<WorkerReport, DistError>> {
        self.handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(DistError::Io("worker thread panicked".into())))
            })
            .collect()
    }
}

/// Spawn one in-process worker thread per trainer, all connecting to
/// `addr`. Each thread owns its trainer — the same isolation a worker
/// process has, minus the process boundary.
pub fn spawn_local_workers(addr: std::net::SocketAddr, trainers: Vec<Trainer>) -> LocalWorkers {
    let handles = trainers
        .into_iter()
        .map(|mut trainer| {
            let cfg = WorkerConfig {
                connect: addr.to_string(),
                ..WorkerConfig::default()
            };
            thread::spawn(move || run_worker(&mut trainer, &cfg))
        })
        .collect();
    LocalWorkers { handles }
}
