//! Distributed PPO training for the SchedInspector reproduction.
//!
//! A [`coordinator::Coordinator`] shards each epoch's episode plan across
//! N rollout workers — separate `schedinspector dist-worker` processes or
//! in-process threads ([`spawn_local_workers`]), both behind the same
//! [`serve::Transport`] seam — and merges results either synchronously
//! (one central PPO update, byte-identical to the in-process `Trainer`)
//! or decentralized (DD-PPO-style parameter averaging, deterministic per
//! `(seed, shard count)`).
//!
//! The wire protocol ([`protocol`]) is one JSON header line per frame,
//! with bit-exact float framing, followed by the raw bytes the header
//! announces: checkpoint text, or a compact binary trajectory.
//! Trajectory segments and checkpoints journal through `store` so a
//! killed coordinator resumes byte-identically.

pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use coordinator::{Coordinator, DistConfig, DistReport, CHECKPOINT_KEY};
pub use protocol::{FrameKind, MergeMode, ProtoError};
pub use worker::{
    run_worker, run_worker_on, spawn_local_workers, LocalWorkers, WorkerConfig, WorkerReport,
};

use std::fmt;

/// Everything that can go wrong in a distributed run.
#[derive(Debug)]
pub enum DistError {
    /// Transport-level failure (bind, connect, read, write).
    Io(String),
    /// Wire-protocol violation from the peer.
    Protocol(ProtoError),
    /// Training-layer failure (checkpoint parse, shape mismatch, merge).
    Train(String),
    /// Run-store journaling failure.
    Store(String),
    /// Invalid configuration.
    Config(String),
    /// The coordinator closed the connection without a `shutdown` frame.
    Disconnected,
    /// The peer reported an error frame.
    Remote(String),
    /// An epoch made no progress for the configured timeout.
    Stalled {
        /// Epoch that stalled.
        epoch: usize,
        /// Episodes accounted when the watchdog fired.
        collected: usize,
        /// Episodes the epoch needed.
        expected: usize,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "io error: {e}"),
            DistError::Protocol(e) => write!(f, "protocol error: {e}"),
            DistError::Train(e) => write!(f, "training error: {e}"),
            DistError::Store(e) => write!(f, "store error: {e}"),
            DistError::Config(e) => write!(f, "config error: {e}"),
            DistError::Disconnected => write!(f, "coordinator closed the connection"),
            DistError::Remote(e) => write!(f, "remote error: {e}"),
            DistError::Stalled {
                epoch,
                collected,
                expected,
            } => write!(
                f,
                "epoch {epoch} stalled with {collected}/{expected} episodes accounted"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<ProtoError> for DistError {
    fn from(e: ProtoError) -> Self {
        DistError::Protocol(e)
    }
}
