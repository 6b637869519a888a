//! Pluggable telemetry sinks: where recorded events go.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;
use crate::registry::Counter;
use crate::ObsError;

/// A destination for telemetry events.
///
/// Sinks receive events by reference from any rollout worker thread, so
/// implementations must be internally synchronized. Recording must not
/// panic; I/O failures are swallowed (telemetry never takes training down).
pub trait Sink: Send + Sync {
    /// Record one event.
    fn record(&self, event: &Event);

    /// Flush buffered output (no-op for in-memory sinks).
    fn flush(&self) {}

    /// Whether this sink reads event timestamps (the `t` field). Sinks
    /// that ignore them — live aggregation, the null sink — return
    /// `false`, and when *every* sink behind a handle declines, the
    /// [`Telemetry`](crate::Telemetry) front end skips the clock read on
    /// each event (tens of nanoseconds on the rollout hot path) and
    /// delivers `t == 0.0`.
    fn wants_time(&self) -> bool {
        true
    }
}

/// Discards every event. An *enabled* handle with a `NullSink` measures the
/// framework's own overhead: event construction and dispatch happen,
/// delivery is free (and, like any sink that declines timestamps, no clock
/// is read).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}

    fn wants_time(&self) -> bool {
        false
    }
}

/// Writes one JSON object per line (JSONL) to a buffered writer.
///
/// The line buffer is reused across events, so steady-state recording does
/// not allocate beyond the writer's own buffering. Lines from concurrent
/// workers are serialized by the internal mutex, never interleaved.
///
/// Recording still never panics or blocks training, but write failures are
/// no longer invisible: every event that could not be written increments a
/// dropped-events [`Counter`], which callers can register into a metrics
/// [`Registry`](crate::registry::Registry) (the CLI exposes it as
/// `obs.sink.dropped_events` on `/metrics`) via
/// [`JsonlSink::with_dropped_counter`].
pub struct JsonlSink {
    out: Mutex<JsonlState>,
    dropped: Counter,
}

struct JsonlState {
    writer: BufWriter<Box<dyn Write + Send>>,
    line: String,
}

impl JsonlSink {
    /// A sink writing to `writer`.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(JsonlState {
                writer: BufWriter::new(writer),
                line: String::with_capacity(128),
            }),
            dropped: Counter::detached(),
        }
    }

    /// A sink writing to a freshly created (truncated) file at `path`.
    /// Creation failures surface as [`ObsError::Sidecar`] naming the path.
    pub fn create(path: &Path) -> Result<Self, ObsError> {
        let file = std::fs::File::create(path).map_err(|source| ObsError::Sidecar {
            path: path.to_path_buf(),
            source,
        })?;
        Ok(Self::new(Box::new(file)))
    }

    /// Count write failures on `counter` (typically a registry handle, so
    /// drops show up on `/metrics`) instead of this sink's private counter.
    pub fn with_dropped_counter(mut self, counter: Counter) -> Self {
        self.dropped = counter;
        self
    }

    /// Number of events dropped because a write (or the sink lock) failed.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.get()
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let Ok(mut state) = self.out.lock() else {
            // Poisoned by a panicking worker: drop the event, but count it.
            self.dropped.inc();
            return;
        };
        let state = &mut *state;
        state.line.clear();
        event.write_json(&mut state.line);
        state.line.push('\n');
        if state.writer.write_all(state.line.as_bytes()).is_err() {
            self.dropped.inc();
        }
    }

    fn flush(&self) {
        if let Ok(mut state) = self.out.lock() {
            let _ = state.writer.flush();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Buffers every event in memory, with assertion helpers for tests.
#[derive(Debug, Default)]
pub struct InMemorySink {
    events: Mutex<Vec<Event>>,
}

impl InMemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of all events recorded so far, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("telemetry sink lock").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().expect("telemetry sink lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all `Counter` deltas recorded under `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .lock()
            .expect("telemetry sink lock")
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name: n, delta, .. } if *n == name => Some(*delta),
                _ => None,
            })
            .sum()
    }

    /// All `Gauge` values recorded under `name`, in record order.
    pub fn gauge_values(&self, name: &str) -> Vec<f64> {
        self.events
            .lock()
            .expect("telemetry sink lock")
            .iter()
            .filter_map(|e| match e {
                Event::Gauge { name: n, value, .. } if *n == name => Some(*value),
                _ => None,
            })
            .collect()
    }

    /// All `SpanClose` durations recorded under `name`, in record order.
    pub fn span_durations(&self, name: &str) -> Vec<f64> {
        self.events
            .lock()
            .expect("telemetry sink lock")
            .iter()
            .filter_map(|e| match e {
                Event::SpanClose { name: n, dur, .. } if *n == name => Some(*dur),
                _ => None,
            })
            .collect()
    }

    /// Check that every span name opens and closes in matched, properly
    /// nested-or-sequential pairs: each `SpanClose` matches the most recent
    /// unclosed `SpanOpen` of the same name. Returns the per-name open/close
    /// counts on success, or a description of the first violation.
    pub fn check_span_pairing(&self) -> Result<BTreeMap<&'static str, usize>, String> {
        let events = self.events.lock().expect("telemetry sink lock");
        let mut open: Vec<&'static str> = Vec::new();
        let mut pairs: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in events.iter() {
            match e {
                Event::SpanOpen { name, .. } => open.push(name),
                Event::SpanClose { name, .. } => match open.pop() {
                    Some(top) if top == *name => *pairs.entry(name).or_insert(0) += 1,
                    Some(top) => {
                        return Err(format!("span_close {name:?} while {top:?} is open"));
                    }
                    None => return Err(format!("span_close {name:?} with no span open")),
                },
                _ => {}
            }
        }
        if let Some(unclosed) = open.first() {
            return Err(format!("span {unclosed:?} never closed"));
        }
        Ok(pairs)
    }

    /// Check timestamps never decrease in record order.
    pub fn check_monotonic_timestamps(&self) -> Result<(), String> {
        let events = self.events.lock().expect("telemetry sink lock");
        let mut last = 0.0f64;
        for (i, e) in events.iter().enumerate() {
            let t = e.t();
            if !t.is_finite() || t + 1e-9 < last {
                return Err(format!(
                    "event {i} ({} {:?}) has timestamp {t} after {last}",
                    e.kind(),
                    e.name()
                ));
            }
            last = last.max(t);
        }
        Ok(())
    }
}

impl Sink for InMemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("telemetry sink lock")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &'static str, t: f64, delta: u64) -> Event {
        Event::Counter { name, t, delta }
    }

    #[test]
    fn in_memory_sink_aggregates() {
        let sink = InMemorySink::new();
        sink.record(&counter("a", 0.0, 2));
        sink.record(&counter("b", 0.1, 5));
        sink.record(&counter("a", 0.2, 3));
        sink.record(&Event::Gauge {
            name: "g",
            t: 0.3,
            value: 0.5,
        });
        assert_eq!(sink.counter_total("a"), 5);
        assert_eq!(sink.counter_total("b"), 5);
        assert_eq!(sink.counter_total("missing"), 0);
        assert_eq!(sink.gauge_values("g"), vec![0.5]);
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn span_pairing_detects_violations() {
        let sink = InMemorySink::new();
        sink.record(&Event::SpanOpen { name: "a", t: 0.0 });
        sink.record(&Event::SpanOpen { name: "b", t: 0.1 });
        sink.record(&Event::SpanClose {
            name: "b",
            t: 0.2,
            dur: 0.1,
        });
        sink.record(&Event::SpanClose {
            name: "a",
            t: 0.3,
            dur: 0.3,
        });
        let pairs = sink.check_span_pairing().expect("properly nested");
        assert_eq!(pairs.get("a"), Some(&1));
        assert_eq!(pairs.get("b"), Some(&1));

        let bad = InMemorySink::new();
        bad.record(&Event::SpanOpen { name: "a", t: 0.0 });
        assert!(bad.check_span_pairing().is_err(), "unclosed span");

        let crossed = InMemorySink::new();
        crossed.record(&Event::SpanOpen { name: "a", t: 0.0 });
        crossed.record(&Event::SpanOpen { name: "b", t: 0.1 });
        crossed.record(&Event::SpanClose {
            name: "a",
            t: 0.2,
            dur: 0.2,
        });
        assert!(crossed.check_span_pairing().is_err(), "crossed spans");
    }

    #[test]
    fn monotonic_check_flags_regressions() {
        let sink = InMemorySink::new();
        sink.record(&counter("a", 0.0, 1));
        sink.record(&counter("a", 1.0, 1));
        assert!(sink.check_monotonic_timestamps().is_ok());
        sink.record(&counter("a", 0.5, 1));
        assert!(sink.check_monotonic_timestamps().is_err());
    }

    #[test]
    fn jsonl_sink_counts_dropped_events_on_write_failure() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _data: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let dropped = Counter::detached();
        // BufWriter only hits the writer once its 8 KiB buffer fills, so
        // record until the failure becomes visible.
        let sink = JsonlSink::new(Box::new(FailingWriter)).with_dropped_counter(dropped.clone());
        for _ in 0..2000 {
            sink.record(&counter("x", 0.0, 1));
        }
        assert!(sink.dropped_events() > 0, "write failures were counted");
        assert_eq!(sink.dropped_events(), dropped.get());
    }

    #[test]
    fn jsonl_create_error_names_the_path() {
        let Err(err) = JsonlSink::create(Path::new("/nonexistent-dir/x.jsonl")) else {
            panic!("create should fail");
        };
        assert!(err.to_string().contains("/nonexistent-dir/x.jsonl"));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(Mutex::new(buf));
        struct SharedWriter(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(SharedWriter(shared.clone())));
        sink.record(&counter("x", 0.0, 1));
        sink.record(&Event::SpanOpen { name: "s", t: 0.1 });
        sink.flush();
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::event::decode(line).expect("valid telemetry line");
        }
    }
}
