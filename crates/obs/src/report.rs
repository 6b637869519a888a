//! Offline analysis of telemetry JSONL sidecars: the engine behind
//! `schedinspector report`.
//!
//! A multi-hour training run leaves a 100k-line sidecar; this module turns
//! it into the two things the paper's §4 evaluation reasons about:
//!
//! 1. **per-epoch summaries** — episodes, throughput, mean reward,
//!    improvement, KL, rejection ratio, one row per `epoch` span;
//! 2. **span wall-time aggregation** — a flamegraph-style tree of
//!    total/self time per span path, tolerant of unpaired opens/closes
//!    (truncated runs, crashed workers).
//!
//! Sidecars are read through [`crate::event::read_file`]; lines that fail
//! to decode are skipped, counted and named by file and line number. This
//! is a renderer, not a regression gate: performance is compared by `spine
//! compare` (see `crates/spine/README.md`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::event::{self, Event};

/// One node of the aggregated span tree. The same span name reached
/// through different parents aggregates separately (it is a *path* tree).
#[derive(Debug, Default, Clone)]
pub struct SpanNode {
    /// Number of closes recorded at this path.
    pub count: u64,
    /// Total wall seconds across those closes.
    pub total: f64,
    /// Children, by span name.
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    /// Wall time spent at this node minus time attributed to children
    /// (clamped at 0: overlapping/unpaired spans can over-count children).
    pub fn self_time(&self) -> f64 {
        let child_total: f64 = self.children.values().map(|c| c.total).sum();
        (self.total - child_total).max(0.0)
    }

    fn at_path(&mut self, path: &[String]) -> &mut SpanNode {
        let mut node = self;
        for name in path {
            node = node.children.entry(name.clone()).or_default();
        }
        node
    }
}

/// Replay span events into an aggregated path tree.
///
/// Malformed streams are tolerated, not fatal: a close with no matching
/// open is skipped with a warning; closes that skip over still-open inner
/// spans implicitly close them (attributing time up to the closing
/// event); spans still open at end-of-stream are closed at the last
/// event's timestamp, with a warning each.
pub fn aggregate_spans(events: &[Event<String>]) -> (SpanNode, Vec<String>) {
    let mut root = SpanNode::default();
    let mut warnings = Vec::new();
    // Stack of (name, open_t).
    let mut stack: Vec<(String, f64)> = Vec::new();
    let last_t = events.last().map_or(0.0, Event::t);

    let close_top = |root: &mut SpanNode, stack: &mut Vec<(String, f64)>, dur: f64| {
        let path: Vec<String> = stack.iter().map(|(n, _)| n.clone()).collect();
        let node = root.at_path(&path);
        node.count += 1;
        node.total += dur.max(0.0);
        stack.pop();
    };

    for event in events {
        match event {
            Event::SpanOpen { name, t } => stack.push((name.clone(), *t)),
            Event::SpanClose { name, t, dur } => {
                match stack.iter().rposition(|(n, _)| n == name) {
                    None => {
                        warnings.push(format!(
                            "span_close {name:?} at t={t:.3} with no matching open; skipped"
                        ));
                    }
                    Some(pos) => {
                        // Implicitly close anything opened inside the span
                        // being closed (crashed worker, truncated stream).
                        while stack.len() > pos + 1 {
                            let (inner, open_t) = stack.last().cloned().expect("non-empty");
                            warnings.push(format!(
                                "span {inner:?} implicitly closed by span_close {name:?} at t={t:.3}"
                            ));
                            close_top(&mut root, &mut stack, t - open_t);
                        }
                        close_top(&mut root, &mut stack, *dur);
                    }
                }
            }
            _ => {}
        }
    }
    while let Some((name, open_t)) = stack.last().cloned() {
        warnings.push(format!(
            "span {name:?} opened at t={open_t:.3} never closed; closed at end of stream"
        ));
        close_top(&mut root, &mut stack, last_t - open_t);
    }
    (root, warnings)
}

/// One row of the per-epoch summary table.
#[derive(Debug, Clone)]
pub struct EpochSummary {
    /// Epoch index (heartbeat-provided, else sequential).
    pub index: u64,
    /// Epoch duration in seconds (the `epoch` span's `dur`).
    pub dur: f64,
    /// Episodes completed this epoch (`train.episodes` deltas).
    pub episodes: u64,
    /// Episodes per second from the epoch's heartbeat, if any.
    pub eps: Option<f64>,
    /// Last value of each gauge recorded during the epoch.
    pub gauges: BTreeMap<String, f64>,
    /// Sum of each counter recorded during the epoch.
    pub counters: BTreeMap<String, u64>,
}

/// Whole-sidecar analysis result.
#[derive(Debug, Clone)]
pub struct SidecarReport {
    /// Per-epoch rows, in order.
    pub epochs: Vec<EpochSummary>,
    /// Aggregated span path tree.
    pub spans: SpanNode,
    /// Sum of every counter over the whole run.
    pub counter_totals: BTreeMap<String, u64>,
    /// Heartbeat episodes-per-second samples, in order, per source.
    pub heartbeat_eps: BTreeMap<String, Vec<f64>>,
    /// Promoted traces seen in the sidecar, as `(trace_id, reason)` in
    /// order of promotion.
    pub promoted_traces: Vec<(u64, String)>,
    /// Total events analyzed.
    pub events: usize,
    /// Timestamp of the last event (run wall time in seconds).
    pub wall: f64,
    /// Sidecar lines that failed to decode and were skipped (set by
    /// [`analyze_file`]; each also appears in `warnings`). A report
    /// consumer should treat a nonzero count as a degraded — not clean —
    /// run.
    pub malformed_lines: usize,
    /// Non-fatal anomalies (unpaired spans, skipped malformed lines, …).
    pub warnings: Vec<String>,
}

/// Analyze a parsed event stream.
pub fn analyze(events: &[Event<String>]) -> SidecarReport {
    let (spans, mut warnings) = aggregate_spans(events);
    let mut epochs = Vec::new();
    let mut promoted_traces = Vec::new();
    let mut counter_totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut heartbeat_eps: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    // Accumulators for the epoch currently being filled: everything since
    // the last `epoch` span closed.
    let mut cur_gauges: BTreeMap<String, f64> = BTreeMap::new();
    let mut cur_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut cur_eps: Option<f64> = None;
    let mut cur_index: Option<u64> = None;

    for event in events {
        match event {
            Event::Counter { name, delta, .. } => {
                *counter_totals.entry(name.clone()).or_insert(0) += delta;
                *cur_counters.entry(name.clone()).or_insert(0) += delta;
            }
            Event::Gauge { name, value, .. } => {
                cur_gauges.insert(name.clone(), *value);
            }
            Event::Heartbeat {
                name, epoch, eps, ..
            } => {
                heartbeat_eps.entry(name.clone()).or_default().push(*eps);
                cur_eps = Some(*eps);
                cur_index = Some(*epoch);
            }
            Event::TracePromoted { trace, reason, .. } => {
                promoted_traces.push((*trace, reason.clone()));
            }
            Event::SpanClose { name, dur, .. } if name == "epoch" => {
                epochs.push(EpochSummary {
                    index: cur_index.unwrap_or(epochs.len() as u64),
                    dur: *dur,
                    episodes: cur_counters.get("train.episodes").copied().unwrap_or(0),
                    eps: cur_eps.take(),
                    gauges: std::mem::take(&mut cur_gauges),
                    counters: std::mem::take(&mut cur_counters),
                });
                cur_index = None;
            }
            _ => {}
        }
    }

    // A flight recorder that wrapped lost spans: the trace it was sized
    // for is gone. Make that loud, not a silent counter.
    if let Some(&overwrites) = counter_totals.get("obs.trace.ring_overwrites") {
        if overwrites > 0 {
            warnings.push(format!(
                "flight recorder overwrote {overwrites} span record(s); \
                 ring too small for the traced window"
            ));
        }
    }

    SidecarReport {
        epochs,
        spans,
        counter_totals,
        heartbeat_eps,
        promoted_traces,
        events: events.len(),
        wall: events.last().map_or(0.0, Event::t),
        malformed_lines: 0,
        warnings,
    }
}

/// Read and analyze a sidecar file. Lines that fail to decode are
/// skipped, counted in [`SidecarReport::malformed_lines`], and reported as
/// warnings; only an unreadable file is an error.
pub fn analyze_file(path: &Path) -> Result<SidecarReport, String> {
    let (events, malformed) = event::read_file(path)?;
    let mut report = analyze(&events);
    report.malformed_lines = malformed.len();
    // Malformed-line warnings go first: they explain any oddities the
    // span-pairing warnings that follow might show.
    let mut warnings = malformed;
    warnings.append(&mut report.warnings);
    report.warnings = warnings;
    Ok(report)
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "-".to_string(),
    }
}

impl SidecarReport {
    /// Mean heartbeat episodes/s across all sources (None without
    /// heartbeats).
    pub fn mean_heartbeat_eps(&self) -> Option<f64> {
        let all: Vec<f64> = self
            .heartbeat_eps
            .values()
            .flatten()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if all.is_empty() {
            None
        } else {
            Some(all.iter().sum::<f64>() / all.len() as f64)
        }
    }

    /// Render the human-readable report (summary, per-epoch table, span
    /// tree, warnings).
    pub fn render(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{} events over {:.3}s wall; {} epochs",
            self.events,
            self.wall,
            self.epochs.len()
        );
        if self.malformed_lines > 0 {
            let _ = writeln!(
                out,
                "DEGRADED: {} malformed sidecar line(s) skipped",
                self.malformed_lines
            );
        }
        if !self.counter_totals.is_empty() {
            let _ = writeln!(out, "\ncounter totals");
            for (name, total) in &self.counter_totals {
                let _ = writeln!(out, "  {name:<32} {total:>12}");
            }
        }
        // Observability-of-the-observability: sidecar drops and flight
        // recorder health, surfaced whenever the run recorded them.
        let health_names = [
            "obs.sink.dropped_events",
            "obs.trace.recorded",
            "obs.trace.promoted",
            "obs.trace.ring_overwrites",
        ];
        if health_names
            .iter()
            .any(|n| self.counter_totals.contains_key(*n))
            || !self.promoted_traces.is_empty()
        {
            let _ = writeln!(out, "\ntelemetry health");
            for name in health_names {
                if let Some(total) = self.counter_totals.get(name) {
                    let _ = writeln!(out, "  {name:<32} {total:>12}");
                }
            }
            if !self.promoted_traces.is_empty() {
                let _ = writeln!(
                    out,
                    "  promoted traces in sidecar: {}",
                    self.promoted_traces.len()
                );
                for (trace, reason) in self.promoted_traces.iter().take(10) {
                    let _ = writeln!(out, "    trace {trace:016x} ({reason})");
                }
                if self.promoted_traces.len() > 10 {
                    let _ = writeln!(out, "    … {} more", self.promoted_traces.len() - 10);
                }
            }
            let overwrites = self
                .counter_totals
                .get("obs.trace.ring_overwrites")
                .copied()
                .unwrap_or(0);
            if overwrites > 0 {
                let _ = writeln!(
                    out,
                    "  WARNING: flight recorder overwrote {overwrites} span record(s); \
                     traces in the overwritten window are incomplete"
                );
            }
        }
        if !self.epochs.is_empty() {
            let _ = writeln!(
                out,
                "\n{:>5} {:>9} {:>9} {:>10} {:>12} {:>9} {:>8} {:>8}",
                "epoch", "dur_s", "episodes", "eps", "mean_reward", "improve%", "kl", "reject%"
            );
            for e in &self.epochs {
                let _ = writeln!(
                    out,
                    "{:>5} {:>9.3} {:>9} {:>10} {:>12} {:>9} {:>8} {:>8}",
                    e.index,
                    e.dur,
                    e.episodes,
                    fmt_opt(e.eps),
                    fmt_opt(e.gauges.get("epoch.mean_reward").copied()),
                    fmt_opt(e.gauges.get("epoch.improvement_pct").copied()),
                    fmt_opt(e.gauges.get("ppo.kl").copied()),
                    fmt_opt(e.gauges.get("epoch.rejection_ratio").copied()),
                );
            }
        }
        let _ = writeln!(
            out,
            "\nspan wall-time breakdown\n  {:<34} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        fn walk(out: &mut String, name: &str, node: &SpanNode, depth: usize) {
            if depth > 0 {
                let label = format!("{}{}", "  ".repeat(depth - 1), name);
                let _ = writeln!(
                    out,
                    "  {label:<34} {:>8} {:>12.4} {:>12.4}",
                    node.count,
                    node.total,
                    node.self_time()
                );
            }
            for (child_name, child) in &node.children {
                walk(out, child_name, child, depth + 1);
            }
        }
        walk(out, "", &self.spans, 0);
        if !self.warnings.is_empty() {
            let _ = writeln!(out, "\nwarnings ({})", self.warnings.len());
            for w in self.warnings.iter().take(20) {
                let _ = writeln!(out, "  {w}");
            }
            if self.warnings.len() > 20 {
                let _ = writeln!(out, "  … {} more", self.warnings.len() - 20);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(name: &str, t: f64) -> Event<String> {
        Event::SpanOpen {
            name: name.into(),
            t,
        }
    }
    fn close(name: &str, t: f64, dur: f64) -> Event<String> {
        Event::SpanClose {
            name: name.into(),
            t,
            dur,
        }
    }
    fn count(name: &str, t: f64, delta: u64) -> Event<String> {
        Event::Counter {
            name: name.into(),
            t,
            delta,
        }
    }
    fn gauge(name: &str, t: f64, value: f64) -> Event<String> {
        Event::Gauge {
            name: name.into(),
            t,
            value,
        }
    }

    #[test]
    fn nested_spans_aggregate_total_and_self_time() {
        let events = [
            open("epoch", 0.0),
            open("rollout", 0.1),
            close("rollout", 1.1, 1.0),
            open("ppo_update", 1.2),
            close("ppo_update", 1.7, 0.5),
            close("epoch", 2.0, 2.0),
            open("epoch", 2.0),
            open("rollout", 2.1),
            close("rollout", 3.1, 1.0),
            close("epoch", 4.0, 2.0),
        ];
        let (tree, warnings) = aggregate_spans(&events);
        assert!(warnings.is_empty(), "{warnings:?}");
        let epoch = &tree.children["epoch"];
        assert_eq!(epoch.count, 2);
        assert!((epoch.total - 4.0).abs() < 1e-9);
        assert_eq!(epoch.children["rollout"].count, 2);
        assert!((epoch.children["rollout"].total - 2.0).abs() < 1e-9);
        // self = 4.0 - (2.0 rollout + 0.5 ppo) = 1.5
        assert!((epoch.self_time() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn unpaired_spans_warn_but_still_aggregate() {
        // close with no open; open never closed; close skipping an inner.
        let events = [
            close("ghost", 0.5, 0.5),
            open("outer", 1.0),
            open("inner", 1.2),
            close("outer", 2.0, 1.0), // implicitly closes inner
            open("dangling", 2.5),
            count("tick", 3.0, 1), // stream ends at t=3.0
        ];
        let (tree, warnings) = aggregate_spans(&events);
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings[0].contains("ghost"));
        assert!(!tree.children.contains_key("ghost"));
        let outer = &tree.children["outer"];
        assert_eq!(outer.count, 1);
        assert!((outer.children["inner"].total - 0.8).abs() < 1e-9);
        assert!((tree.children["dangling"].total - 0.5).abs() < 1e-9);
    }

    #[test]
    fn epoch_summaries_window_counters_and_gauges() {
        let events = [
            open("epoch", 0.0),
            count("train.episodes", 0.5, 20),
            gauge("epoch.mean_reward", 0.9, 1.25),
            gauge("ppo.kl", 0.95, 0.01),
            Event::Heartbeat {
                name: "train".into(),
                t: 1.0,
                epoch: 0,
                eps: 40.0,
            },
            close("epoch", 1.0, 1.0),
            open("epoch", 1.0),
            count("train.episodes", 1.5, 22),
            gauge("epoch.mean_reward", 1.9, 1.5),
            Event::Heartbeat {
                name: "train".into(),
                t: 2.0,
                epoch: 1,
                eps: 44.0,
            },
            close("epoch", 2.0, 1.0),
        ];
        let report = analyze(&events);
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].episodes, 20);
        assert_eq!(report.epochs[1].episodes, 22);
        assert_eq!(report.epochs[1].index, 1);
        assert_eq!(report.epochs[0].eps, Some(40.0));
        assert_eq!(report.epochs[0].gauges["epoch.mean_reward"], 1.25);
        assert_eq!(report.epochs[1].gauges["epoch.mean_reward"], 1.5);
        assert_eq!(report.counter_totals["train.episodes"], 42);
        assert_eq!(report.mean_heartbeat_eps(), Some(42.0));
        let mut text = String::new();
        report.render(&mut text);
        assert!(text.contains("epoch") && text.contains("1.25"));
    }

    #[test]
    fn trace_events_parse_and_surface_in_telemetry_health() {
        let promoted = event::decode(
            r#"{"kind":"trace_promoted","name":"serve.trace","t":1.0,"trace":"00000000000000ab","reason":"slow","spans":5}"#,
        )
        .unwrap();
        assert_eq!(
            promoted,
            Event::TracePromoted {
                name: "serve.trace".into(),
                t: 1.0,
                trace: 0xab,
                reason: "slow".into(),
                spans: 5
            }
        );
        let record = event::decode(
            r#"{"kind":"flight_record","name":"queue","t":1.1,"trace":"00000000000000ab","span":"0000000000000002","parent":"0000000000000000","status":"ok","shard":0,"batch_seq":1,"generation":1,"start_ns":5,"end_ns":9}"#,
        )
        .unwrap();
        assert!(matches!(
            record,
            Event::FlightRecord { span, .. } if span.trace_id == 0xab
        ));

        let events = [
            promoted,
            record,
            count("obs.trace.recorded", 2.0, 100),
            count("obs.trace.promoted", 2.0, 1),
            count("obs.trace.ring_overwrites", 2.0, 3),
            count("obs.sink.dropped_events", 2.0, 0),
        ];
        let report = analyze(&events);
        assert_eq!(report.promoted_traces, vec![(0xab, "slow".to_string())]);
        assert!(
            report.warnings.iter().any(|w| w.contains("overwrote 3")),
            "{:?}",
            report.warnings
        );
        let mut text = String::new();
        report.render(&mut text);
        assert!(text.contains("telemetry health"), "{text}");
        assert!(text.contains("obs.trace.ring_overwrites"), "{text}");
        assert!(
            text.contains("WARNING: flight recorder overwrote 3"),
            "{text}"
        );
        assert!(text.contains("trace 00000000000000ab (slow)"), "{text}");

        // Zero overwrites: counters surface, but no warning line.
        let clean = analyze(&[count("obs.trace.recorded", 1.0, 10)]);
        assert!(clean.warnings.is_empty());
        let mut text = String::new();
        clean.render(&mut text);
        assert!(text.contains("telemetry health"));
        assert!(!text.contains("WARNING: flight recorder"));
    }

    #[test]
    fn sidecar_file_errors_name_path_and_line() {
        let dir = std::env::temp_dir().join("obs-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"counter\",\"name\":\"a\",\"t\":0.1,\"delta\":1}\nBROKEN LINE\n",
        )
        .unwrap();
        let report = analyze_file(&path).expect("file is readable");
        assert_eq!((report.events, report.malformed_lines), (1, 1));
        assert!(report.warnings[0].contains("bad.jsonl:2:"), "{report:?}");
        let err = analyze_file(&dir.join("absent.jsonl")).expect_err("unreadable file");
        assert!(err.contains("absent.jsonl"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
