//! Telemetry in and out: the sinks `--telemetry`/`--metrics-addr` open for
//! `train` and `serve`, and the `check-telemetry` and `report` commands
//! that read a sidecar back.

use std::path::Path;
use std::sync::Arc;

use schedinspector::prelude::*;

use crate::args::{Args, Command, Group};

/// The two flags [`Sinks`] reads; `train` and `serve` both declare them.
pub const SINK_FLAGS: Group = (
    "sink",
    &[
        "telemetry FILE.jsonl   write a telemetry sidecar",
        "metrics-addr HOST:PORT   live Prometheus /metrics endpoint",
    ],
);

/// What `--telemetry FILE.jsonl` and `--metrics-addr HOST:PORT` open.
pub struct Sinks {
    pub telemetry: Telemetry,
    exporter: Option<obs::MetricsExporter>,
}

impl Sinks {
    /// Open the sidecar. With `mirror`, events also feed that registry, so
    /// a process with no registry of its own (`train`) has something to
    /// expose.
    pub fn open(args: &Args, mirror: Option<&Arc<obs::Registry>>) -> Result<Sinks, Error> {
        let telemetry = match (args.get("telemetry"), mirror) {
            (Some(path), Some(reg)) => {
                Telemetry::jsonl_with_registry(Path::new(path), Arc::clone(reg))?
            }
            (Some(path), None) => Telemetry::jsonl(Path::new(path))?,
            (None, Some(reg)) => Telemetry::with_registry(Arc::clone(reg)),
            (None, None) => Telemetry::disabled(),
        };
        if let Some(path) = args.get("telemetry") {
            println!("telemetry -> {path}");
        }
        let exporter = None;
        Ok(Sinks {
            telemetry,
            exporter,
        })
    }

    /// Serve `registry` on `--metrics-addr`, if the flag was given.
    pub fn expose(&mut self, args: &Args, registry: Arc<obs::Registry>) -> Result<(), Error> {
        if let Some(addr) = args.get("metrics-addr") {
            let exporter = obs::MetricsExporter::bind(addr, registry, self.telemetry.clone())?;
            println!("metrics -> http://{}/metrics", exporter.local_addr());
            self.exporter = Some(exporter);
        }
        Ok(())
    }

    pub fn close(self) {
        self.telemetry.flush();
        if let Some(exporter) = self.exporter {
            exporter.shutdown();
        }
    }
}

/// `obs`'s sidecar readers fail with `"path: why"`.
pub fn unreadable(e: String) -> Error {
    Error::input("cannot read sidecar", e)
}

pub const CHECK_TELEMETRY: Command = Command {
    name: "check-telemetry",
    about: "validate a telemetry sidecar line by line",
    run: check_telemetry,
    shared: &[],
    flags: &["file FILE.jsonl   the sidecar"],
};

fn check_telemetry(args: &Args) -> Result<(), Error> {
    let path = args.required("file")?;
    let (events, mut malformed) = obs::event::read_file(Path::new(path)).map_err(unreadable)?;
    if !malformed.is_empty() {
        let n = malformed.len();
        malformed.push(format!("{path}: {n} invalid telemetry line(s)"));
        return Err(Error::Failed(malformed.join("\n")));
    }
    let mut counts = std::collections::BTreeMap::new();
    for event in &events {
        *counts.entry(event.kind()).or_insert(0usize) += 1;
    }
    println!("{path}: {} valid events", events.len());
    for (kind, n) in counts {
        println!("  {kind:<10} {n}");
    }
    Ok(())
}

pub const REPORT: Command = Command {
    name: "report",
    about: "FILE.jsonl [FILE.jsonl ...]: per-epoch summaries and span wall-time breakdown; \
            exits 1 when a sidecar is DEGRADED by malformed lines",
    run: report,
    shared: &[],
    flags: &["fairness FILE.json   render a fairness report (sidecars optional)"],
};

fn report(args: &Args) -> Result<(), Error> {
    // A fairness artifact (from `scenario replay` or `loadgen
    // --fairness-out`) renders standalone; sidecars remain optional then.
    if let Some(path) = args.get("fairness") {
        let json = obs::json::parse(crate::world::read_text(path)?.trim());
        let fairness = json.and_then(|json| FairnessReport::from_json(&json));
        let fairness = fairness.map_err(|e| Error::input(path, e))?;
        print!("{}", fairness.render());
        if args.positional.is_empty() {
            return Ok(());
        }
    }
    if args.positional.is_empty() {
        let msg = "report: at least one telemetry sidecar (FILE.jsonl) is required";
        return Err(Error::Usage(msg.into()));
    }
    let mut degraded = 0usize;
    for path in &args.positional {
        // A truncated or partially corrupt sidecar (the process died
        // mid-write) still yields a summary, but malformed lines mark the
        // run DEGRADED and fail the exit code below.
        let report = obs::report::analyze_file(Path::new(path)).map_err(unreadable)?;
        degraded += usize::from(report.malformed_lines > 0);
        let mut out = String::new();
        report.render(&mut out);
        print!("{out}");
        println!();
    }
    if degraded > 0 {
        return Err(Error::Failed(format!("{degraded} sidecar(s) DEGRADED")));
    }
    Ok(())
}
