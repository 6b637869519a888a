//! The telemetry event model and its JSONL codec.
//!
//! This is the only module that knows the sidecar format: [`Event`] is the
//! one event enum, [`Event::write_json`] the one encoder, [`decode`] the
//! one (total) decoder, and [`read_lines`] the one reader every consumer
//! of a sidecar, trace journal or ring dump goes through.
//!
//! Recording builds `Event<&'static str>` on the stack — names are
//! `&'static str`, so constructing and recording an event never allocates,
//! which is what lets an *enabled* [`Telemetry`](crate::Telemetry) handle
//! with a [`NullSink`](crate::NullSink) stay allocation-free in the
//! simulator's hot loop (and what [`RegistrySink`](crate::RegistrySink)'s
//! pointer-keyed handle cache relies on). Decoding yields `Event<String>`.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::trace::{parse_hex16, SpanKind, SpanRecord, SpanStatus};

/// One telemetry event, generic over its name type `N`: `&'static str`
/// when recording, `String` when decoded from a sidecar. Timestamps `t`
/// are seconds since the owning [`Telemetry`](crate::Telemetry) handle was
/// created (monotonic clock).
#[derive(Debug, Clone, PartialEq)]
pub enum Event<N = &'static str> {
    /// A span (timed region) was entered.
    SpanOpen {
        /// Span name, e.g. `"ppo_update"`.
        name: N,
        /// Seconds since handle creation.
        t: f64,
    },
    /// A span was exited.
    SpanClose {
        /// Span name (matches the corresponding [`Event::SpanOpen`]).
        name: N,
        /// Seconds since handle creation, at close time.
        t: f64,
        /// Span duration in seconds.
        dur: f64,
    },
    /// A monotonically accumulating count (events, rejections, cache hits).
    Counter {
        /// Counter name.
        name: N,
        /// Seconds since handle creation.
        t: f64,
        /// Amount added to the counter.
        delta: u64,
    },
    /// A point-in-time measurement (utilization, KL, hit rate).
    Gauge {
        /// Gauge name.
        name: N,
        /// Seconds since handle creation.
        t: f64,
        /// Observed value (NaN when decoded from a recorded `null`).
        value: f64,
    },
    /// One sample of a distribution (per-minibatch loss, per-point queue
    /// depth). Sinks may aggregate these into histograms.
    Histogram {
        /// Distribution name.
        name: N,
        /// Seconds since handle creation.
        t: f64,
        /// Sampled value (NaN when decoded from a recorded `null`).
        value: f64,
    },
    /// A trainer liveness beacon, emitted once per epoch so dashboards and
    /// `schedinspector report` can track progress without replaying every
    /// counter.
    Heartbeat {
        /// Heartbeat source, e.g. `"train"` or `"selector"`.
        name: N,
        /// Seconds since handle creation.
        t: f64,
        /// Epoch index just completed.
        epoch: u64,
        /// Episodes per second over that epoch.
        eps: f64,
    },
    /// A periodic summary of the live metrics registry, emitted by the
    /// `/metrics` exporter thread on each scrape so sidecars record that
    /// (and how much) the registry was being observed.
    RegistrySnapshot {
        /// Snapshot source, e.g. `"metrics_exporter"`.
        name: N,
        /// Seconds since handle creation.
        t: f64,
        /// Registered counter families at snapshot time.
        counters: u64,
        /// Registered gauge families at snapshot time.
        gauges: u64,
        /// Registered histogram families at snapshot time.
        histograms: u64,
    },
    /// A trace was promoted out of the flight recorder by tail-based
    /// sampling (slow, error, or swap-coincident). The promoted spans
    /// follow as [`Event::FlightRecord`] lines sharing the trace id.
    TracePromoted {
        /// Promotion source, e.g. `"serve.trace"`.
        name: N,
        /// Seconds since handle creation.
        t: f64,
        /// The promoted trace id (never 0; 0 is reserved = unsampled).
        trace: u64,
        /// Why the trace was kept: `"slow"`, `"error"`, or `"swap"`.
        reason: N,
        /// Spans collected from the flight recorder for this trace.
        spans: u64,
    },
    /// One span collected from the flight recorder. Its line's `name` is
    /// the span kind, and ids are encoded as 16-hex-digit strings so 64-bit
    /// values survive JSON readers that store numbers as `f64`.
    FlightRecord {
        /// Seconds since handle creation, at promotion time (0 in trace
        /// journals and ring dumps, which have no telemetry clock).
        t: f64,
        /// The span.
        span: SpanRecord,
    },
}

impl<N: AsRef<str>> Event<N> {
    /// The event's name.
    pub fn name(&self) -> &str {
        match self {
            Event::SpanOpen { name, .. }
            | Event::SpanClose { name, .. }
            | Event::Counter { name, .. }
            | Event::Gauge { name, .. }
            | Event::Histogram { name, .. }
            | Event::Heartbeat { name, .. }
            | Event::RegistrySnapshot { name, .. }
            | Event::TracePromoted { name, .. } => name.as_ref(),
            Event::FlightRecord { span, .. } => span.kind.as_str(),
        }
    }

    /// Seconds since handle creation.
    pub fn t(&self) -> f64 {
        match self {
            Event::SpanOpen { t, .. }
            | Event::SpanClose { t, .. }
            | Event::Counter { t, .. }
            | Event::Gauge { t, .. }
            | Event::Histogram { t, .. }
            | Event::Heartbeat { t, .. }
            | Event::RegistrySnapshot { t, .. }
            | Event::TracePromoted { t, .. }
            | Event::FlightRecord { t, .. } => *t,
        }
    }

    /// The schema's `kind` discriminator, as written to JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanOpen { .. } => "span_open",
            Event::SpanClose { .. } => "span_close",
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Histogram { .. } => "histogram",
            Event::Heartbeat { .. } => "heartbeat",
            Event::RegistrySnapshot { .. } => "registry_snapshot",
            Event::TracePromoted { .. } => "trace_promoted",
            Event::FlightRecord { .. } => "flight_record",
        }
    }
}

impl Event {
    /// Append this event as one JSON object (no trailing newline) to `out`.
    ///
    /// The encoding is the documented sidecar format: every line is an
    /// object with `kind`, `name`, and `t`, then the kind's payload
    /// fields. Only recording-side events encode: their names are static
    /// identifiers (no quotes/backslashes), so no string escaping is
    /// needed.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"kind":"{}","name":"{}","t":{:.9}"#,
            self.kind(),
            self.name(),
            self.t()
        );
        let _ = match self {
            Event::SpanOpen { .. } => Ok(()),
            Event::SpanClose { dur, .. } => write!(out, r#","dur":{dur:.9}"#),
            Event::Counter { delta, .. } => write!(out, r#","delta":{delta}"#),
            Event::Gauge { value, .. } | Event::Histogram { value, .. } => {
                out.push_str(r#","value":"#);
                json::write_f64(out, *value);
                Ok(())
            }
            Event::Heartbeat { epoch, eps, .. } => {
                let _ = write!(out, r#","epoch":{epoch},"eps":"#);
                json::write_f64(out, *eps);
                Ok(())
            }
            Event::RegistrySnapshot {
                counters,
                gauges,
                histograms,
                ..
            } => write!(
                out,
                r#","counters":{counters},"gauges":{gauges},"histograms":{histograms}"#
            ),
            Event::TracePromoted {
                trace,
                reason,
                spans,
                ..
            } => write!(
                out,
                r#","trace":"{trace:016x}","reason":"{reason}","spans":{spans}"#
            ),
            Event::FlightRecord { span: s, .. } => write!(
                out,
                r#","trace":"{:016x}","span":"{:016x}","parent":"{:016x}","status":"{}","shard":{},"batch_seq":{},"generation":{},"start_ns":{},"end_ns":{}"#,
                s.trace_id,
                s.span_id,
                s.parent_id,
                s.status.as_str(),
                s.shard,
                s.batch_seq,
                s.model_generation,
                s.start_ns,
                s.end_ns
            ),
        };
        out.push('}');
    }
}

/// Typed field access for [`decode`]: every failure names the kind and
/// the field.
struct Fields<'a> {
    kind: &'a str,
    v: &'a Json,
}

impl<'a> Fields<'a> {
    fn string(&self, field: &str) -> Result<&'a str, String> {
        self.v
            .get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("kind {:?} requires string field {field:?}", self.kind))
    }

    /// A float payload; the encoder writes non-finite values as `null`,
    /// which decodes to NaN.
    fn float(&self, field: &str) -> Result<f64, String> {
        match self.v.get(field) {
            Some(Json::Number(n)) => Ok(*n),
            Some(Json::Null) => Ok(f64::NAN),
            _ => Err(format!(
                "kind {:?} requires numeric field {field:?}",
                self.kind
            )),
        }
    }

    /// A non-negative integer payload. (JSON numbers parse as `f64`, so
    /// values above 2^53 decode to the nearest representable integer.)
    fn int(&self, field: &str) -> Result<u64, String> {
        match self.v.get(field).and_then(Json::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Ok(n as u64),
            Some(n) => Err(format!(
                "kind {:?} field {field:?} must be a non-negative integer, got {n}",
                self.kind
            )),
            None => Err(format!(
                "kind {:?} requires numeric field {field:?}",
                self.kind
            )),
        }
    }

    /// A 64-bit id as a hex string. Id 0 is reserved (trace 0 =
    /// unsampled, span 0 = no parent), so only `parent` may carry it.
    fn hex(&self, field: &str, zero_allowed: bool) -> Result<u64, String> {
        let raw = self.string(field)?;
        match parse_hex16(raw) {
            None => Err(format!(
                "kind {:?} field {field:?} is not a hex id: {raw:?}",
                self.kind
            )),
            Some(0) if !zero_allowed => Err(format!(
                "kind {:?} field {field:?} is 0 (reserved = unsampled)",
                self.kind
            )),
            Some(id) => Ok(id),
        }
    }
}

/// Decode one sidecar line. Total: any input yields an event or a message
/// naming what is wrong with it — this is the one verdict `report`,
/// `check-telemetry` and `trace` share on what a valid line is.
pub fn decode(line: &str) -> Result<Event<String>, String> {
    let v = json::parse(line)?;
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing string field \"kind\"")?;
    let f = Fields { kind, v: &v };
    let name = f.string("name")?.to_string();
    let t = v
        .get("t")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field \"t\"")?;
    if !t.is_finite() || t < 0.0 {
        return Err(format!("timestamp {t} is not a finite non-negative number"));
    }
    Ok(match kind {
        "span_open" => Event::SpanOpen { name, t },
        "span_close" => Event::SpanClose {
            name,
            t,
            dur: f.float("dur")?,
        },
        "counter" => Event::Counter {
            name,
            t,
            delta: f.int("delta")?,
        },
        "gauge" => Event::Gauge {
            name,
            t,
            value: f.float("value")?,
        },
        "histogram" => Event::Histogram {
            name,
            t,
            value: f.float("value")?,
        },
        "heartbeat" => Event::Heartbeat {
            name,
            t,
            epoch: f.int("epoch")?,
            eps: f.float("eps")?,
        },
        "registry_snapshot" => Event::RegistrySnapshot {
            name,
            t,
            counters: f.int("counters")?,
            gauges: f.int("gauges")?,
            histograms: f.int("histograms")?,
        },
        "trace_promoted" => Event::TracePromoted {
            name,
            t,
            trace: f.hex("trace", false)?,
            reason: f.string("reason")?.to_string(),
            spans: f.int("spans")?,
        },
        "flight_record" => {
            let status = f.string("status")?;
            Event::FlightRecord {
                t,
                span: SpanRecord {
                    trace_id: f.hex("trace", false)?,
                    span_id: f.hex("span", false)?,
                    parent_id: f.hex("parent", true)?,
                    kind: SpanKind::parse(&name).ok_or_else(|| {
                        format!("kind \"flight_record\" field \"name\" is not a span kind: {name:?}")
                    })?,
                    status: SpanStatus::parse(status).ok_or_else(|| {
                        format!("kind \"flight_record\" field \"status\" is not a span status: {status:?}")
                    })?,
                    shard: u32::try_from(f.int("shard")?).map_err(|_| {
                        "kind \"flight_record\" field \"shard\" does not fit 32 bits".to_string()
                    })?,
                    batch_seq: f.int("batch_seq")?,
                    model_generation: f.int("generation")?,
                    start_ns: f.int("start_ns")?,
                    end_ns: f.int("end_ns")?,
                },
            }
        }
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

/// Decode a sidecar's text (a file, a trace-journal value, a ring dump):
/// the events, in order, plus one `"source:line: message"` per line that
/// failed to decode. Blank lines are skipped.
///
/// A crashed or killed run leaves a sidecar whose final line is torn
/// mid-JSON, and a newer writer may emit event kinds this reader does not
/// know; neither makes the rest unreadable. Callers decide what a
/// non-empty malformed list means (`check-telemetry` fails, `report`
/// marks the run DEGRADED, `trace` counts it).
pub fn read_lines(source: &str, text: &str) -> (Vec<Event<String>>, Vec<String>) {
    let mut events = Vec::new();
    let mut malformed = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match decode(line) {
            Ok(event) => events.push(event),
            Err(e) => malformed.push(format!("{source}:{}: {e}", i + 1)),
        }
    }
    (events, malformed)
}

/// [`read_lines`] over the file at `path`. Only an unreadable *file* is an
/// error (`"path: message"`).
pub fn read_file(path: &Path) -> Result<(Vec<Event<String>>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(read_lines(&path.display().to_string(), &text))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORWARD: SpanRecord = SpanRecord {
        trace_id: u64::MAX,
        span_id: 0x1234,
        parent_id: 0,
        kind: SpanKind::Forward,
        status: SpanStatus::Ok,
        shard: 2,
        batch_seq: 9,
        model_generation: 4,
        start_ns: 100,
        end_ns: 250,
    };

    /// One event of every kind (finite payloads only) next to the line the
    /// encoder at commit a61637a wrote for it; the last line came from that
    /// commit's second encoder, the one trace journals and ring dumps used.
    fn golden() -> Vec<(Event, &'static str)> {
        vec![
            (
                Event::SpanOpen {
                    name: "epoch",
                    t: 0.0,
                },
                r#"{"kind":"span_open","name":"epoch","t":0.000000000}"#,
            ),
            (
                Event::SpanClose {
                    name: "ppo_update",
                    t: 2.000000001,
                    dur: 0.123456789,
                },
                r#"{"kind":"span_close","name":"ppo_update","t":2.000000001,"dur":0.123456789}"#,
            ),
            (
                Event::Counter {
                    name: "sim.reject",
                    t: 0.25,
                    delta: u64::MAX,
                },
                r#"{"kind":"counter","name":"sim.reject","t":0.250000000,"delta":18446744073709551615}"#,
            ),
            (
                Event::Gauge {
                    name: "ppo.kl",
                    t: 4.0,
                    value: -0.25,
                },
                r#"{"kind":"gauge","name":"ppo.kl","t":4.000000000,"value":-0.25}"#,
            ),
            (
                Event::Histogram {
                    name: "h",
                    t: 2.5,
                    value: 1e21,
                },
                r#"{"kind":"histogram","name":"h","t":2.500000000,"value":1000000000000000000000}"#,
            ),
            (
                Event::Histogram {
                    name: "h",
                    t: 2.5,
                    value: 1e-7,
                },
                r#"{"kind":"histogram","name":"h","t":2.500000000,"value":0.0000001}"#,
            ),
            (
                Event::Heartbeat {
                    name: "train",
                    t: 1.5,
                    epoch: 9,
                    eps: 250.5,
                },
                r#"{"kind":"heartbeat","name":"train","t":1.500000000,"epoch":9,"eps":250.5}"#,
            ),
            (
                Event::RegistrySnapshot {
                    name: "metrics_exporter",
                    t: 7.0,
                    counters: 4,
                    gauges: 2,
                    histograms: 1,
                },
                r#"{"kind":"registry_snapshot","name":"metrics_exporter","t":7.000000000,"counters":4,"gauges":2,"histograms":1}"#,
            ),
            (
                Event::TracePromoted {
                    name: "serve.trace",
                    t: 0.5,
                    trace: 0xff,
                    reason: "slow",
                    spans: 5,
                },
                r#"{"kind":"trace_promoted","name":"serve.trace","t":0.500000000,"trace":"00000000000000ff","reason":"slow","spans":5}"#,
            ),
            (
                Event::FlightRecord {
                    t: 0.75,
                    span: FORWARD,
                },
                r#"{"kind":"flight_record","name":"forward","t":0.750000000,"trace":"ffffffffffffffff","span":"0000000000001234","parent":"0000000000000000","status":"ok","shard":2,"batch_seq":9,"generation":4,"start_ns":100,"end_ns":250}"#,
            ),
            (
                Event::FlightRecord {
                    t: 0.0,
                    span: SpanRecord {
                        trace_id: 0xabc,
                        span_id: 7,
                        parent_id: 6,
                        kind: SpanKind::Dropped,
                        status: SpanStatus::DeadlineExceeded,
                        shard: u32::MAX,
                        batch_seq: 0,
                        model_generation: 3,
                        start_ns: 19_000,
                        end_ns: u64::MAX,
                    },
                },
                r#"{"kind":"flight_record","name":"dropped","t":0.000000000,"trace":"0000000000000abc","span":"0000000000000007","parent":"0000000000000006","status":"deadline_exceeded","shard":4294967295,"batch_seq":0,"generation":3,"start_ns":19000,"end_ns":18446744073709551615}"#,
            ),
        ]
    }

    fn encode(e: &Event) -> String {
        let mut s = String::new();
        e.write_json(&mut s);
        s
    }

    /// The decoded twin of a recording-side event.
    fn owned(e: &Event) -> Event<String> {
        match *e {
            Event::SpanOpen { name, t } => Event::SpanOpen {
                name: name.into(),
                t,
            },
            Event::SpanClose { name, t, dur } => Event::SpanClose {
                name: name.into(),
                t,
                dur,
            },
            Event::Counter { name, t, delta } => Event::Counter {
                name: name.into(),
                t,
                delta,
            },
            Event::Gauge { name, t, value } => Event::Gauge {
                name: name.into(),
                t,
                value,
            },
            Event::Histogram { name, t, value } => Event::Histogram {
                name: name.into(),
                t,
                value,
            },
            Event::Heartbeat {
                name,
                t,
                epoch,
                eps,
            } => Event::Heartbeat {
                name: name.into(),
                t,
                epoch,
                eps,
            },
            Event::RegistrySnapshot {
                name,
                t,
                counters,
                gauges,
                histograms,
            } => Event::RegistrySnapshot {
                name: name.into(),
                t,
                counters,
                gauges,
                histograms,
            },
            Event::TracePromoted {
                name,
                t,
                trace,
                reason,
                spans,
            } => Event::TracePromoted {
                name: name.into(),
                t,
                trace,
                reason: reason.into(),
                spans,
            },
            Event::FlightRecord { t, span } => Event::FlightRecord { t, span },
        }
    }

    #[test]
    fn golden_lines_are_byte_identical_for_every_kind() {
        let golden = golden();
        for (event, line) in &golden {
            assert_eq!(encode(event), *line);
        }
        let mut kinds: Vec<_> = golden.iter().map(|(e, _)| e.kind()).collect();
        kinds.dedup();
        assert_eq!(
            kinds,
            [
                "span_open",
                "span_close",
                "counter",
                "gauge",
                "histogram",
                "heartbeat",
                "registry_snapshot",
                "trace_promoted",
                "flight_record"
            ]
        );
    }

    #[test]
    fn every_kind_round_trips_through_decode() {
        for (event, line) in golden() {
            let back = decode(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, owned(&event), "{line}");
            assert_eq!(
                (back.kind(), back.name(), back.t()),
                (event.kind(), event.name(), event.t())
            );
        }
        // Every span kind and status survives the trip, whichever parent
        // it hangs off.
        let kinds = [
            SpanKind::Request,
            SpanKind::Queue,
            SpanKind::Batch,
            SpanKind::Forward,
            SpanKind::Write,
            SpanKind::Dropped,
        ];
        let statuses = [
            SpanStatus::Ok,
            SpanStatus::DeadlineExceeded,
            SpanStatus::Overloaded,
            SpanStatus::Draining,
            SpanStatus::BadDim,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let span = SpanRecord {
                kind,
                status: statuses[i % statuses.len()],
                parent_id: i as u64,
                ..FORWARD
            };
            let event = Event::FlightRecord { t: 1.25, span };
            assert_eq!(event.name(), kind.as_str());
            assert_eq!(decode(&encode(&event)), Ok(owned(&event)));
        }
    }

    #[test]
    fn non_finite_payloads_encode_as_null_and_decode_as_nan() {
        let gauge = encode(&Event::Gauge {
            name: "g",
            t: 4.5,
            value: f64::NAN,
        });
        assert_eq!(
            gauge,
            r#"{"kind":"gauge","name":"g","t":4.500000000,"value":null}"#
        );
        assert!(matches!(
            decode(&gauge),
            Ok(Event::Gauge { value, .. }) if value.is_nan()
        ));
        let beat = encode(&Event::Heartbeat {
            name: "train",
            t: 1.5,
            epoch: 9,
            eps: f64::INFINITY,
        });
        assert_eq!(
            beat,
            r#"{"kind":"heartbeat","name":"train","t":1.500000000,"epoch":9,"eps":null}"#
        );
        assert!(matches!(
            decode(&beat),
            Ok(Event::Heartbeat { epoch: 9, eps, .. }) if eps.is_nan()
        ));
    }

    /// `line` with the first occurrence of `from` replaced by `to`.
    fn broken(line: &str, from: &str, to: &str) -> String {
        assert!(line.contains(from), "{from} not in {line}");
        line.replacen(from, to, 1)
    }

    #[test]
    fn decode_rejects_every_broken_field_naming_it() {
        let golden = golden();
        let line = |kind: &str| {
            golden
                .iter()
                .find(|(e, _)| e.kind() == kind)
                .map(|(_, line)| *line)
                .expect("golden covers the kind")
        };
        let flight = line("flight_record");
        let promoted = line("trace_promoted");
        // (line, what the message must name)
        let cases = [
            ("not json".to_string(), "invalid"),
            (r#"["kind","counter"]"#.to_string(), "kind"),
            (r#"{"name":"x","t":0.5}"#.to_string(), "kind"),
            (
                r#"{"kind":"mystery","name":"x","t":0}"#.to_string(),
                "mystery",
            ),
            // A near-miss kind is rejected, not misread as its neighbour.
            (broken(line("counter"), "counter", "count"), "\"count\""),
            (
                broken(line("counter"), r#""name":"sim.reject","#, ""),
                "name",
            ),
            (broken(line("counter"), r#""t":0.250000000,"#, ""), "\"t\""),
            (broken(line("gauge"), "4.000000000", "-1"), "timestamp"),
            (
                broken(line("counter"), r#","delta":18446744073709551615"#, ""),
                "delta",
            ),
            (
                broken(line("counter"), "18446744073709551615", "null"),
                "delta",
            ),
            (
                broken(line("counter"), "18446744073709551615", "1e30"),
                "delta",
            ),
            (
                broken(line("span_close"), r#","dur":0.123456789"#, ""),
                "dur",
            ),
            (broken(line("gauge"), "-0.25", "\"high\""), "value"),
            (broken(line("heartbeat"), r#","eps":250.5"#, ""), "eps"),
            (
                broken(line("heartbeat"), r#""epoch":9"#, r#""epoch":4.5"#),
                "epoch",
            ),
            (
                broken(line("registry_snapshot"), r#","histograms":1"#, ""),
                "histograms",
            ),
            (
                broken(
                    line("registry_snapshot"),
                    r#""counters":4"#,
                    r#""counters":-1"#,
                ),
                "counters",
            ),
            // Trace id 0 is reserved (= unsampled) on both trace kinds.
            (
                broken(promoted, "00000000000000ff", "0000000000000000"),
                "trace",
            ),
            (broken(promoted, "00000000000000ff", "zz"), "trace"),
            (broken(promoted, r#""reason":"slow","#, ""), "reason"),
            (broken(promoted, r#""spans":5"#, r#""spans":0.5"#), "spans"),
            (
                broken(flight, "0000000000001234", "0000000000000000"),
                "span",
            ),
            (
                broken(flight, r#""status":"ok""#, r#""status":"exploded""#),
                "status",
            ),
            (broken(flight, r#""status":"ok","#, ""), "status"),
            (
                broken(flight, r#""shard":2"#, r#""shard":4294967296"#),
                "shard",
            ),
            (
                broken(flight, r#""end_ns":250"#, r#""end_ns":"250""#),
                "end_ns",
            ),
        ];
        for (line, needle) in &cases {
            let err = decode(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// The lines the three former readers split on: each was accepted by
    /// one of `check-telemetry` / `report` / `trace` and rejected by
    /// another. (`tests/cli.rs` drives the binary over the same five.)
    #[test]
    fn lines_the_old_readers_disagreed_on_get_one_verdict() {
        let flight = golden()
            .iter()
            .find(|(e, _)| e.kind() == "flight_record")
            .map(|(_, line)| *line)
            .unwrap();
        let cases = [
            (
                broken(flight, r#""parent":"0000000000000000","#, ""),
                "parent",
            ),
            (broken(flight, r#""shard":2"#, r#""shard":1.5"#), "shard"),
            (broken(flight, r#""shard":2"#, r#""shard":-1"#), "shard"),
            (
                broken(flight, "ffffffffffffffff", "0000000000000000"),
                "trace",
            ),
            (broken(flight, "forward", "teleport"), "name"),
        ];
        for (line, field) in &cases {
            let err = decode(line).expect_err(line);
            assert!(err.contains(&format!("{field:?}")), "{line}: {err}");
        }
    }

    #[test]
    fn read_lines_skips_blanks_and_names_source_and_line() {
        let good = r#"{"kind":"counter","name":"a","t":0.1,"delta":1}"#;
        let text = format!("{good}\n\n  \nBROKEN\n{good}\n{{\"kind\":\"coun");
        let (events, malformed) = read_lines("run.jsonl", &text);
        assert_eq!(events.len(), 2);
        assert_eq!(malformed.len(), 2, "{malformed:?}");
        assert!(malformed[0].starts_with("run.jsonl:4: "), "{malformed:?}");
        assert!(malformed[1].starts_with("run.jsonl:6: "), "{malformed:?}");

        let err = read_file(Path::new("/nonexistent-dir/x.jsonl")).expect_err("unreadable");
        assert!(err.contains("/nonexistent-dir/x.jsonl"), "{err}");
    }
}
