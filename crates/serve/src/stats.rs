//! Always-on service counters and latency histograms.
//!
//! Every live request path touches only atomics here, so keeping the stats
//! hot costs a handful of relaxed updates per request — cheap enough to
//! never switch off. The state itself now lives in a shared
//! [`obs::Registry`]: each field is a registry handle, so the `stats`
//! protocol verb and the `/metrics` exposition endpoint snapshot the *same*
//! atomics — there is no second copy to drift. `obs` telemetry (when
//! enabled) additionally streams per-batch events to a sidecar.
//!
//! Latencies are recorded in nanosecond ticks
//! ([`obs::Histogram::observe_ticks`]), which the exposition layer scales
//! to seconds.

use std::collections::BTreeMap;
use std::sync::Arc;

use obs::json::Json;
use obs::{Counter, Gauge, Histogram, Registry};

/// Summary object for a nanosecond-ticks histogram handle: count, mean and
/// key quantiles in microseconds.
fn hist_json(h: &Histogram) -> Json {
    let us = |ticks: u64| Json::Number(ticks as f64 / 1_000.0);
    let mut m = BTreeMap::new();
    m.insert("count".into(), Json::Number(h.count() as f64));
    m.insert("mean_us".into(), Json::Number(h.mean_ticks() / 1_000.0));
    m.insert("p50_us".into(), us(h.quantile_ticks(0.50)));
    m.insert("p95_us".into(), us(h.quantile_ticks(0.95)));
    m.insert("p99_us".into(), us(h.quantile_ticks(0.99)));
    Json::Object(m)
}

/// Per-shard engine counters, registered under `serve.shard{N}.*` so
/// `/metrics` and the `stats` verb show shard balance. Summed across
/// shards these reconcile exactly with the global engine counters — the
/// sharding test suite asserts it.
#[derive(Debug)]
pub struct ShardStats {
    /// Decisions this shard returned.
    pub ok: Counter,
    /// Requests that expired on this shard's queue.
    pub deadline_exceeded: Counter,
    /// Submissions this shard refused with backpressure.
    pub overloaded: Counter,
    /// Inference batches this shard executed.
    pub batches: Counter,
    /// Requests served through this shard's batches.
    pub batched_requests: Counter,
    /// Current queued-request depth on this shard.
    pub queue_depth: Gauge,
    /// Executed batch sizes (a count histogram, not a latency).
    pub batch_size: Histogram,
}

impl ShardStats {
    fn new(r: &Registry, idx: usize) -> ShardStats {
        // Registry handles want `&'static str` names; shard counts are
        // small and fixed for the process lifetime, so a one-time leak per
        // metric name is the simplest correct answer.
        let name = |suffix: &str| -> &'static str {
            Box::leak(format!("serve.shard{idx}.{suffix}").into_boxed_str())
        };
        ShardStats {
            ok: r.counter(name("ok"), "decisions returned by this shard"),
            deadline_exceeded: r.counter(
                name("deadline_exceeded"),
                "requests expired on this shard's queue",
            ),
            overloaded: r.counter(
                name("overloaded"),
                "submissions refused by this shard with backpressure",
            ),
            batches: r.counter(name("batches"), "inference batches executed by this shard"),
            batched_requests: r.counter(
                name("batched_requests"),
                "requests served through this shard's batches",
            ),
            queue_depth: r.gauge(name("queue_depth"), "queued requests on this shard"),
            batch_size: r.histogram(name("batch_size"), "executed batch sizes on this shard"),
        }
    }

    /// Mean executed batch size on this shard (0 when no batch ran yet).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches.get();
        if batches == 0 {
            0.0
        } else {
            self.batched_requests.get() as f64 / batches as f64
        }
    }

    fn to_json(&self) -> Json {
        let n = |c: &Counter| Json::Number(c.get() as f64);
        let mut m = BTreeMap::new();
        m.insert("ok".into(), n(&self.ok));
        m.insert("deadline_exceeded".into(), n(&self.deadline_exceeded));
        m.insert("overloaded".into(), n(&self.overloaded));
        m.insert("batches".into(), n(&self.batches));
        m.insert("batched_requests".into(), n(&self.batched_requests));
        m.insert(
            "mean_batch_size".into(),
            Json::Number(self.mean_batch_size()),
        );
        m.insert("queue_depth".into(), Json::Number(self.queue_depth.get()));
        Json::Object(m)
    }
}

/// Shared, always-on service metrics. One instance per server; every field
/// is a cheaply-cloneable [`obs::Registry`] handle updated with relaxed
/// atomics on the request path and read by both the `stats` verb and the
/// `/metrics` endpoint.
#[derive(Debug)]
pub struct ServerStats {
    /// Feature-vector length the loaded model expects (constant).
    pub input_dim: usize,
    /// Configured micro-batch cap (constant).
    pub max_batch: usize,
    /// Infer requests received (including ones later rejected).
    pub requests: Counter,
    /// Decisions successfully returned.
    pub ok: Counter,
    /// Requests rejected with `overloaded` backpressure (inference queue
    /// full). Together with `ok`, `deadline_exceeded`, `bad_dim` and
    /// `draining_rejected` this partitions `requests` exactly once the
    /// server has drained — the ledger the chaos harness reconciles.
    pub overloaded: Counter,
    /// Connections refused at accept time because `max_conns` were already
    /// being served (these never became requests).
    pub accept_overloaded: Counter,
    /// Requests that missed their deadline while queued.
    pub deadline_exceeded: Counter,
    /// Lines that failed to parse or validate.
    pub malformed: Counter,
    /// Infer requests whose feature vector had the wrong length (also
    /// counted in `malformed`; split out so the request ledger balances).
    pub bad_dim: Counter,
    /// Infer requests refused because the server was draining.
    pub draining_rejected: Counter,
    /// Server threads that exited by panic (incremented at join time;
    /// must stay 0 under any fault sequence).
    pub thread_panics: Counter,
    /// Connections accepted.
    pub connections: Counter,
    /// Inference batches executed.
    pub batches: Counter,
    /// Requests served through batches (sum of batch sizes).
    pub batched_requests: Counter,
    /// Current queued-request depth (gauge, updated by the engine).
    pub queue_depth: Gauge,
    /// Generation of the model currently serving decisions. Advances on
    /// every hot-swap; the chaos harness asserts it moved while the
    /// request ledger stayed exact.
    pub model_generation: Gauge,
    /// Successful model hot-swaps since startup.
    pub model_swaps: Counter,
    /// Model updates that failed validation (dimension mismatch, stale
    /// generation, unreadable/corrupt checkpoint text).
    pub model_swap_errors: Counter,
    /// End-to-end latency in ns ticks: enqueue → decision produced.
    pub e2e: Histogram,
    /// Inference-only latency in ns ticks of each executed batch.
    pub infer_batch: Histogram,
    /// Per-shard engine counters (`serve.shard{N}.*`); their sums
    /// reconcile with the global counters above.
    pub shards: Vec<ShardStats>,
    registry: Arc<Registry>,
}

impl ServerStats {
    /// Fresh stats for a server with the given constants, registered into
    /// a private registry. Use [`ServerStats::with_registry`] to share one
    /// with a `/metrics` endpoint.
    pub fn new(input_dim: usize, max_batch: usize) -> Self {
        Self::sharded(input_dim, max_batch, 1)
    }

    /// Fresh stats with `shards` per-shard blocks, in a private registry.
    pub fn sharded(input_dim: usize, max_batch: usize, shards: usize) -> Self {
        Self::with_registry(Arc::new(Registry::new()), input_dim, max_batch, shards)
    }

    /// Fresh stats registered into `registry` under the `serve.*`
    /// namespace, so an exposition endpoint rendering that registry serves
    /// the exact atomics the request path updates.
    pub fn with_registry(
        registry: Arc<Registry>,
        input_dim: usize,
        max_batch: usize,
        shards: usize,
    ) -> Self {
        let r = &registry;
        ServerStats {
            shards: (0..shards.max(1)).map(|i| ShardStats::new(r, i)).collect(),
            input_dim,
            max_batch,
            requests: r.counter("serve.requests", "infer requests received"),
            ok: r.counter("serve.ok", "decisions successfully returned"),
            overloaded: r.counter("serve.overloaded", "requests rejected with backpressure"),
            accept_overloaded: r.counter(
                "serve.accept_overloaded",
                "connections refused at accept time (connection limit reached)",
            ),
            deadline_exceeded: r.counter(
                "serve.deadline_exceeded",
                "requests that missed their deadline while queued",
            ),
            malformed: r.counter("serve.malformed", "lines that failed to parse or validate"),
            bad_dim: r.counter(
                "serve.bad_dim",
                "infer requests with a wrong-length feature vector",
            ),
            draining_rejected: r.counter(
                "serve.draining_rejected",
                "infer requests refused because the server was draining",
            ),
            thread_panics: r.counter("serve.thread_panics", "server threads that exited by panic"),
            connections: r.counter("serve.connections", "connections accepted"),
            batches: r.counter("serve.batches", "inference batches executed"),
            batched_requests: r.counter(
                "serve.batched_requests",
                "requests served through batches (sum of batch sizes)",
            ),
            queue_depth: r.gauge("serve.queue_depth", "current queued-request depth"),
            model_generation: r.gauge(
                "serve.model.generation",
                "generation of the model currently serving decisions",
            ),
            model_swaps: r.counter("serve.model.swaps", "successful model hot-swaps"),
            model_swap_errors: r.counter(
                "serve.model.swap_errors",
                "model updates that failed validation",
            ),
            e2e: r.histogram(
                "serve.e2e_seconds",
                "end-to-end latency, enqueue to decision",
            ),
            infer_batch: r.histogram(
                "serve.infer_batch_seconds",
                "inference-only latency per executed batch",
            ),
            registry,
        }
    }

    /// The registry backing these stats (share it with a
    /// [`obs::MetricsExporter`] to expose `/metrics`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Sum of every terminal request outcome. After the server drains,
    /// this equals `requests` exactly — every accepted infer request got
    /// exactly one decision or one typed error. The chaos harness asserts
    /// this under arbitrary fault sequences.
    pub fn accounted_requests(&self) -> u64 {
        self.ok.get()
            + self.deadline_exceeded.get()
            + self.overloaded.get()
            + self.bad_dim.get()
            + self.draining_rejected.get()
    }

    /// Mean executed batch size (0 when no batch ran yet).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches.get();
        if batches == 0 {
            0.0
        } else {
            self.batched_requests.get() as f64 / batches as f64
        }
    }

    /// Snapshot the whole stats block as the `stats` verb's payload.
    pub fn to_json(&self) -> Json {
        let n = |c: &Counter| Json::Number(c.get() as f64);
        let mut m = BTreeMap::new();
        m.insert("input_dim".into(), Json::Number(self.input_dim as f64));
        m.insert("max_batch".into(), Json::Number(self.max_batch as f64));
        m.insert("requests".into(), n(&self.requests));
        m.insert("ok".into(), n(&self.ok));
        m.insert("overloaded".into(), n(&self.overloaded));
        m.insert("accept_overloaded".into(), n(&self.accept_overloaded));
        m.insert("deadline_exceeded".into(), n(&self.deadline_exceeded));
        m.insert("malformed".into(), n(&self.malformed));
        m.insert("bad_dim".into(), n(&self.bad_dim));
        m.insert("draining_rejected".into(), n(&self.draining_rejected));
        m.insert("thread_panics".into(), n(&self.thread_panics));
        m.insert("connections".into(), n(&self.connections));
        m.insert("batches".into(), n(&self.batches));
        m.insert("batched_requests".into(), n(&self.batched_requests));
        m.insert(
            "mean_batch_size".into(),
            Json::Number(self.mean_batch_size()),
        );
        m.insert("queue_depth".into(), Json::Number(self.queue_depth.get()));
        m.insert(
            "model_generation".into(),
            Json::Number(self.model_generation.get()),
        );
        m.insert("model_swaps".into(), n(&self.model_swaps));
        m.insert("e2e".into(), hist_json(&self.e2e));
        m.insert("infer_batch".into(), hist_json(&self.infer_batch));
        m.insert(
            "shards".into(),
            Json::Array(self.shards.iter().map(ShardStats::to_json).collect()),
        );
        Json::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_snapshot_is_valid_json_with_all_fields() {
        let s = ServerStats::new(8, 16);
        s.requests.add(3);
        s.e2e.observe_ticks(42_000);
        let mut text = String::new();
        s.to_json().write_json(&mut text);
        let v = obs::json::parse(&text).expect("stats serialize to valid JSON");
        assert_eq!(v.get("input_dim").and_then(Json::as_f64), Some(8.0));
        assert_eq!(v.get("requests").and_then(Json::as_f64), Some(3.0));
        assert!(v.get("e2e").and_then(|e| e.get("count")).is_some());
    }

    #[test]
    fn stats_verb_and_metrics_exposition_read_the_same_atomics() {
        let s = ServerStats::new(4, 8);
        s.requests.add(7);
        s.queue_depth.set(3.0);
        s.e2e.observe_ticks(1_000_000); // 1ms
        let mut metrics = String::new();
        s.registry().render(&mut metrics);
        assert!(metrics.contains("schedinspector_serve_requests_total 7"));
        assert!(metrics.contains("schedinspector_serve_queue_depth 3"));
        assert!(metrics.contains("# TYPE schedinspector_serve_e2e_seconds histogram"));
        // The verb snapshot agrees, because it is the same storage.
        let json = s.to_json();
        assert_eq!(json.get("requests").and_then(Json::as_f64), Some(7.0));
        assert_eq!(json.get("queue_depth").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn log_linear_histogram_takes_nanosecond_ticks() {
        let h = obs::LogLinearHistogram::new();
        h.record(42_000);
        assert_eq!(h.count(), 1);
        assert!(h.mean() > 0.0);
        assert!(h.quantile(0.99) >= 42_000 / 2);
    }
}
