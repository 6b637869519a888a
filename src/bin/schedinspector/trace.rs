//! `trace`: generate an SWF workload trace from the world flags, or — given
//! a positional `DIR|FILE` — reconstruct journaled or dumped request traces.

use std::collections::BTreeMap;
use std::path::Path;

use obs::trace::{hex16, summarize, TraceSummary};
use schedinspector::prelude::*;

use crate::args::{Args, Command};
use crate::telemetry::unreadable;
use crate::world::{self, build_world, open_store, write_flag};

pub const TRACE: Command = Command {
    name: "trace",
    about: "generate an SWF workload trace; or `trace DIR|FILE`: reconstruct journaled or \
            dumped request traces (queue/batch/forward/write critical paths, slowest first)",
    run: trace,
    shared: &[world::FLAGS],
    flags: &["out FILE.swf   write the generated trace"],
};

fn trace(args: &Args) -> Result<(), Error> {
    if let Some(path) = args.positional.first() {
        return inspect(path);
    }
    let (trace, _, _, _) = build_world(args)?;
    println!("{}", trace.stats().table2_row(&trace.name));
    write_flag(args, "out", "wrote", || trace.to_swf().to_swf_string())
}

/// Load every flight-recorder span from a run-store directory (keys under
/// `trace/`) or a JSONL dump/sidecar file, reconstruct each trace's
/// critical path, and pretty-print the breakdown slowest-first.
fn inspect(path: &str) -> Result<(), Error> {
    let (mut events, mut malformed) = (Vec::new(), Vec::new());
    if Path::new(path).is_dir() {
        let store = open_store(path, None)?;
        let keys = store.keys();
        let keys = keys.map_err(|e| Error::input(format!("cannot list store {path}"), e))?;
        for key in keys.iter().filter(|k| k.starts_with("trace/")) {
            let bytes = store.get(key);
            let bytes = bytes.map_err(|e| Error::input(format!("cannot read {key}"), e))?;
            let text = String::from_utf8_lossy(bytes.as_deref().unwrap_or_default());
            let (e, m) = obs::event::read_lines(&format!("{path}/{key}"), &text);
            events.extend(e);
            malformed.extend(m);
        }
    } else {
        (events, malformed) = obs::event::read_file(Path::new(path)).map_err(unreadable)?;
    }
    let malformed = malformed.len();

    let mut by_trace: BTreeMap<u64, Vec<obs::SpanRecord>> = BTreeMap::new();
    // Sidecars interleave other event kinds with flight records.
    for event in events {
        if let obs::Event::FlightRecord { span, .. } = event {
            by_trace.entry(span.trace_id).or_default().push(span);
        }
    }
    if by_trace.is_empty() {
        return Err(Error::Failed(format!(
            "{path}: no flight-record spans found ({malformed} malformed lines)"
        )));
    }
    let mut complete: Vec<TraceSummary> = Vec::new();
    let mut broken: Vec<(u64, String)> = Vec::new();
    for (trace_id, chain) in &by_trace {
        match summarize(chain) {
            Ok(s) => complete.push(s),
            Err(e) => broken.push((*trace_id, e)),
        }
    }
    // Slowest first: the whole point is finding where the tail went.
    complete.sort_by_key(|s| std::cmp::Reverse(s.total_us));
    println!(
        "{}: {} trace(s), {} complete, {} incomplete, {} malformed line(s)",
        path,
        by_trace.len(),
        complete.len(),
        broken.len(),
        malformed
    );
    let mut per_shard: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in &complete {
        let status = format!("{:?}", s.status);
        println!(
            "trace {}  shard {}  gen {}  {:<18} total {:>6}us | queue {:>5}us  \
             batch-wait {:>5}us  forward {:>5}us  write {:>5}us",
            hex16(s.trace_id),
            s.shard,
            s.model_generation,
            status,
            s.total_us,
            s.queue_us,
            s.batch_wait_us,
            s.forward_us,
            s.write_us
        );
        let e = per_shard.entry(s.shard).or_default();
        e.0 += 1;
        e.1 += s.total_us;
    }
    for (shard, (count, total)) in &per_shard {
        println!(
            "shard {shard}: {count} trace(s), mean total {}us",
            total / count.max(&1)
        );
    }
    for (trace_id, why) in &broken {
        println!("trace {}: incomplete: {why}", hex16(*trace_id));
    }
    Ok(())
}
