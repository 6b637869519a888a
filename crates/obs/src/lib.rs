//! **obs** — zero-cost-when-disabled training/rollout telemetry.
//!
//! The training stack is instrumented with lightweight *spans* (monotonic
//! wall-time regions such as `rollout` or `ppo_update`), *counters*
//! (rejections, baseline-cache hits), *gauges* (KL, clip fraction,
//! utilization), and *histogram samples* (per-minibatch losses). Every
//! instrumentation point goes through a [`Telemetry`] handle:
//!
//! * a **disabled** handle ([`Telemetry::disabled`]) is a `None` internally —
//!   every call is a branch on an `Option` and nothing else: no clock reads,
//!   no event construction, no allocation;
//! * an **enabled** handle forwards stack-built [`Event`]s to a pluggable
//!   [`Sink`]: [`NullSink`] (discard; measures framework overhead),
//!   [`JsonlSink`] (one JSON object per line, the sidecar format experiment
//!   binaries emit), or [`InMemorySink`] (buffered, with assertion helpers
//!   for tests).
//!
//! Handles are cheaply cloneable (`Arc` internally) and shared freely
//! across rollout worker threads.
//!
//! # Example
//!
//! ```
//! let (telemetry, sink) = obs::Telemetry::in_memory();
//! {
//!     let _span = obs::span!(telemetry, "ppo_update");
//!     telemetry.count("train.rejections", 3);
//!     telemetry.gauge("ppo.kl", 0.012);
//! }
//! telemetry.flush();
//! assert_eq!(sink.counter_total("train.rejections"), 3);
//! assert_eq!(sink.span_durations("ppo_update").len(), 1);
//! sink.check_span_pairing().unwrap();
//! sink.check_monotonic_timestamps().unwrap();
//! ```

pub mod clock;
mod error;
pub mod event;
pub mod exporter;
pub mod expose;
pub mod hist;
pub mod json;
pub mod registry;
pub mod report;
mod sink;
pub mod trace;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use error::ObsError;
pub use event::Event;
pub use exporter::MetricsExporter;
pub use hist::LogLinearHistogram;
pub use registry::{Counter, Gauge, Histogram, Registry, RegistryCounts, RegistrySink, TeeSink};
pub use sink::{InMemorySink, JsonlSink, NullSink, Sink};
pub use trace::{Recorder, SpanKind, SpanRecord, SpanStatus, TraceStats};

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

struct Inner {
    t0: Instant,
    sink: Arc<dyn Sink>,
    /// Whether the sink reads event timestamps ([`Sink::wants_time`],
    /// cached here so the hot path pays a field load, not a dyn call).
    /// When `false`, events carry `t == 0.0` and no clock is read.
    timed: bool,
}

/// A telemetry handle: the single type every instrumented component takes.
///
/// Clone it freely — clones share the sink and the time origin. The
/// default handle is disabled.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A no-op handle: every recording call is a single branch.
    pub const fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle delivering events to `sink`. The handle's clock
    /// starts now: event timestamps are seconds since this call.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        let timed = sink.wants_time();
        Telemetry {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                sink,
                timed,
            })),
        }
    }

    /// An enabled handle writing JSONL to a freshly created file.
    /// Creation failures surface as [`ObsError::Sidecar`] naming the path.
    pub fn jsonl(path: &Path) -> Result<Self, ObsError> {
        Ok(Self::new(Arc::new(JsonlSink::create(path)?)))
    }

    /// An enabled handle that both streams JSONL to `path` *and*
    /// aggregates every event into `registry` live, so the same
    /// instrumentation feeds offline analysis and `/metrics`. Sidecar
    /// write failures are counted on the registry's
    /// `obs.sink.dropped_events` counter.
    pub fn jsonl_with_registry(path: &Path, registry: Arc<Registry>) -> Result<Self, ObsError> {
        let dropped = registry.counter(
            "obs.sink.dropped_events",
            "telemetry events dropped by sidecar write failures",
        );
        let jsonl = JsonlSink::create(path)?.with_dropped_counter(dropped);
        Ok(Self::new(Arc::new(TeeSink::new(vec![
            Arc::new(jsonl),
            Arc::new(RegistrySink::new(registry)),
        ]))))
    }

    /// An enabled handle aggregating into `registry` only (no sidecar).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self::new(Arc::new(RegistrySink::new(registry)))
    }

    /// An enabled handle backed by an [`InMemorySink`]; returns the sink
    /// too so tests can inspect what was recorded.
    pub fn in_memory() -> (Self, Arc<InMemorySink>) {
        let sink = Arc::new(InMemorySink::new());
        (Self::new(sink.clone()), sink)
    }

    /// Whether events are being recorded at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds since the handle was created (0 when disabled).
    #[inline]
    pub fn now(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.t0.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    #[inline]
    fn record(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.sink.record(&event);
        }
    }

    /// Event timestamp: seconds since creation, or `0.0` without touching
    /// the clock when every sink declines timestamps ([`Sink::wants_time`]).
    #[inline]
    fn event_t(&self) -> f64 {
        match &self.inner {
            Some(inner) if inner.timed => inner.t0.elapsed().as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Open a timed span; the span records its duration when dropped.
    /// Prefer the [`span!`] macro, which reads as a statement.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            Some(inner) => {
                let start = Instant::now();
                let t = if inner.timed {
                    start.duration_since(inner.t0).as_secs_f64()
                } else {
                    0.0
                };
                inner.sink.record(&Event::SpanOpen { name, t });
                Span {
                    telemetry: self.clone(),
                    name,
                    start: Some(start),
                }
            }
            None => Span {
                telemetry: Telemetry::disabled(),
                name,
                start: None,
            },
        }
    }

    /// Add `delta` to the counter `name`.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if self.is_enabled() {
            self.record(Event::Counter {
                name,
                t: self.event_t(),
                delta,
            });
        }
    }

    /// Record the current value of the gauge `name`.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if self.is_enabled() {
            self.record(Event::Gauge {
                name,
                t: self.event_t(),
                value,
            });
        }
    }

    /// Record one sample of the distribution `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, value: f64) {
        if self.is_enabled() {
            self.record(Event::Histogram {
                name,
                t: self.event_t(),
                value,
            });
        }
    }

    /// Record a trainer liveness heartbeat: `epoch` just completed at
    /// `eps` episodes per second.
    #[inline]
    pub fn heartbeat(&self, name: &'static str, epoch: u64, eps: f64) {
        if self.is_enabled() {
            self.record(Event::Heartbeat {
                name,
                t: self.event_t(),
                epoch,
                eps,
            });
        }
    }

    /// Record a registry-size snapshot (emitted by the metrics exporter on
    /// each scrape).
    #[inline]
    pub fn registry_snapshot(&self, name: &'static str, counts: RegistryCounts) {
        if self.is_enabled() {
            self.record(Event::RegistrySnapshot {
                name,
                t: self.event_t(),
                counters: counts.counters,
                gauges: counts.gauges,
                histograms: counts.histograms,
            });
        }
    }

    /// Record a tail-sampling promotion: `trace` was kept for `reason`
    /// with `spans` spans collected from the flight recorder.
    #[inline]
    pub fn trace_promoted(&self, name: &'static str, trace: u64, reason: &'static str, spans: u64) {
        if self.is_enabled() {
            self.record(Event::TracePromoted {
                name,
                t: self.event_t(),
                trace,
                reason,
                spans,
            });
        }
    }

    /// Record one promoted flight-recorder span as a sidecar line.
    #[inline]
    pub fn flight_record(&self, rec: &trace::SpanRecord) {
        if self.is_enabled() {
            self.record(Event::FlightRecord {
                t: self.event_t(),
                span: *rec,
            });
        }
    }

    /// Flush the sink's buffered output.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// RAII guard for a timed region; records a `span_close` event (with the
/// region's duration) on drop. Created by [`Telemetry::span`] / [`span!`].
#[must_use = "a span measures the region it is alive for; bind it to a variable"]
pub struct Span {
    telemetry: Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Seconds elapsed since the span opened (0 when telemetry is disabled).
    pub fn elapsed(&self) -> f64 {
        self.start.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur = start.elapsed().as_secs_f64();
            self.telemetry.record(Event::SpanClose {
                name: self.name,
                t: self.telemetry.event_t(),
                dur,
            });
        }
    }
}

/// Open a timed span on a [`Telemetry`] handle:
///
/// ```
/// let telemetry = obs::Telemetry::disabled();
/// let _guard = obs::span!(telemetry, "rollout");
/// ```
///
/// The guard records the span's duration when it goes out of scope.
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:literal) => {
        $telemetry.span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_costs_nothing_visible() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now(), 0.0);
        let span = span!(t, "epoch");
        assert_eq!(span.elapsed(), 0.0);
        drop(span);
        t.count("c", 1);
        t.gauge("g", 1.0);
        t.observe("h", 1.0);
        t.flush();
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn spans_record_open_close_with_nonnegative_duration() {
        let (t, sink) = Telemetry::in_memory();
        {
            let _outer = span!(t, "epoch");
            let _inner = span!(t, "rollout");
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0], Event::SpanOpen { name: "epoch", .. }));
        assert!(matches!(
            events[1],
            Event::SpanOpen {
                name: "rollout",
                ..
            }
        ));
        // Guards drop in reverse declaration order: inner closes first.
        assert!(matches!(
            events[2],
            Event::SpanClose {
                name: "rollout",
                ..
            }
        ));
        assert!(matches!(events[3], Event::SpanClose { name: "epoch", .. }));
        sink.check_span_pairing().expect("paired");
        sink.check_monotonic_timestamps().expect("monotonic");
        for d in sink.span_durations("epoch") {
            assert!(d >= 0.0);
        }
    }

    #[test]
    fn clones_share_the_sink_and_clock() {
        let (t, sink) = Telemetry::in_memory();
        let t2 = t.clone();
        t.count("c", 1);
        t2.count("c", 2);
        assert_eq!(sink.counter_total("c"), 3);
        assert!(t2.is_enabled());
    }

    #[test]
    fn span_elapsed_advances_when_enabled() {
        let (t, _sink) = Telemetry::in_memory();
        let span = t.span("s");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(span.elapsed() > 0.0);
    }

    #[test]
    fn sinks_that_decline_timestamps_see_zero_but_real_durations() {
        struct Untimed(std::sync::Mutex<Vec<(f64, f64)>>);
        impl Sink for Untimed {
            fn record(&self, event: &Event) {
                let dur = match *event {
                    Event::SpanClose { dur, .. } => dur,
                    _ => -1.0,
                };
                self.0.lock().unwrap().push((event.t(), dur));
            }
            fn wants_time(&self) -> bool {
                false
            }
        }
        let sink = Arc::new(Untimed(std::sync::Mutex::new(Vec::new())));
        let t = Telemetry::new(sink.clone());
        t.count("c", 1);
        {
            let _span = span!(t, "s");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = sink.0.lock().unwrap().clone();
        // Timestamps are zeroed (no clock read), but span durations are
        // still measured for aggregation.
        assert!(events.iter().all(|&(t, _)| t == 0.0));
        let (_, dur) = events[events.len() - 1];
        assert!(dur > 0.0);
    }

    #[test]
    fn timed_sinks_still_get_monotonic_timestamps() {
        // InMemorySink keeps the default `wants_time`, so the tee must
        // report timestamps wanted and events must carry real times.
        let mem = Arc::new(InMemorySink::new());
        let tee = TeeSink::new(vec![
            Arc::new(RegistrySink::new(Arc::new(Registry::new()))),
            mem.clone(),
        ]);
        assert!(tee.wants_time());
        let t = Telemetry::new(Arc::new(tee));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.count("c", 1);
        let events = mem.events();
        assert!(events[0].t() > 0.0);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let (t, sink) = Telemetry::in_memory();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.count("n", 1);
                    }
                });
            }
        });
        assert_eq!(sink.counter_total("n"), 400);
    }
}
