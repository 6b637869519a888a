//! **serve** — a std-only TCP decision service for trained inspectors.
//!
//! Loads a [`SchedInspector`](inspector::SchedInspector) checkpoint and
//! answers accept/reject queries over line-delimited JSON (the protocol is
//! specified in [`protocol`]). The stack is three layers, each with
//! explicit backpressure:
//!
//! 1. an acceptor thread that gives every admitted connection a thread of
//!    its own, up to a **bounded** number of live connections;
//! 2. a single-threaded **micro-batching** inference engine
//!    ([`engine::BatchEngine`]) that drains up to `max_batch` queued
//!    requests per tick into scratch-buffer forward passes — batching
//!    amortizes queue synchronization, which dominates per-request cost
//!    for an MLP this small;
//! 3. always-on service stats ([`stats::ServerStats`]) exposed via the
//!    `stats` protocol verb, plus optional [`obs`] telemetry sidecars.
//!
//! Shutdown is graceful: a [`server::ShutdownSignal`] stops the acceptor
//! (woken through a loopback "wake pipe" connection), connection threads
//! notice within one read-timeout tick and are joined, and the engine
//! finishes everything already queued before its thread exits.
//!
//! The [`loadgen`] module (and the `loadgen` binary) drives a running
//! server with open-loop arrivals at a target QPS and reports the
//! client-observed throughput and latency.
//!
//! # Quickstart
//!
//! ```no_run
//! use serve::{serve, ServeConfig};
//!
//! let inspector = inspector::model_io::load("model.txt".as_ref()).unwrap();
//! let handle = serve(inspector, ServeConfig::default(), obs::Telemetry::disabled()).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.wait(); // until a client sends {"verb":"shutdown"}
//! ```

pub mod engine;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod transport;

pub use engine::{shard_for, BatchEngine, Completion, EngineConfig, SubmitError};
pub use loadgen::{replay_profile, RunReport};
pub use server::{serve, serve_with, ServeConfig, ServerHandle, ShutdownSignal, TraceConfig};
pub use stats::{ServerStats, ShardStats};
pub use transport::{AcceptPolicy, DirectAccept, Transport};
