//! The deployed inspector: `serve` is the TCP decision service, `infer`
//! the same decisions over a file or stdin of feature lines.

use std::io::BufRead;

use schedinspector::prelude::*;

use crate::args::{Args, Command};
use crate::telemetry::{Sinks, SINK_FLAGS};
use crate::world::{load_model, open_store};

pub const SERVE: Command = Command {
    name: "serve",
    about: "TCP decision service (line-delimited JSON; stops on the shutdown verb)",
    run: serve,
    shared: &[SINK_FLAGS],
    flags: &[
        "model FILE   the model to serve (with --model-dir: while the store has none)",
        "model-dir DIR   serve the store's latest model, hot-swap each new generation",
        "addr HOST:PORT   (default 127.0.0.1:7171; port 0 = ephemeral, printed)",
        "batch N   micro-batch ceiling (default 16)",
        "shards N   per-core engine shards (default 1)",
        "queue N   request ring capacity (default 4096)",
        "deadline-ms N   default per-request deadline",
        "trace-ring N   flight-recorder spans per shard (any --trace-* turns it on)",
        "trace-slow-us N   promote slower (and error/swap) traces to the journal",
        "trace-store DIR   the journal of promoted traces",
        "trace-dump FILE   dump the ring here on shutdown",
    ],
};

fn serve(args: &Args) -> Result<(), Error> {
    // `--model-dir DIR` serves the store's latest published generation
    // and keeps watching: each later `publish_model` hot-swaps into the
    // running engine with zero dropped requests. `--model FILE` is the
    // fallback when the store holds no model yet.
    let model_dir = args.get("model-dir");
    let (agent, initial_generation) = match model_dir {
        Some(dir) => {
            let latest = open_store(dir, None)?.latest_model();
            match latest.map_err(|e| Error::input(format!("cannot read store {dir}"), e))? {
                Some((generation, text)) => {
                    let agent = inspector::model_io::from_text(&text).map_err(|e| {
                        Error::input(format!("store {dir} generation {generation}"), e)
                    })?;
                    println!("serving generation {generation} from {dir}");
                    (agent, generation)
                }
                None if args.get("model").is_some() => (load_model(args)?, 0),
                None => {
                    return Err(Error::Usage(format!(
                        "{dir}: no published model (run `train --store {dir}` first, \
                         or pass --model FILE as the initial model)"
                    )))
                }
            }
        }
        None => (load_model(args)?, 0),
    };
    let mut sinks = Sinks::open(args, None)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7171");
    let cfg = ::serve::ServeConfig {
        addr: addr.to_string(),
        max_batch: args.num("batch", 16usize)?,
        shards: args.num("shards", 1usize)?,
        queue_capacity: args.num("queue", 4096usize)?,
        default_deadline_ms: args.opt("deadline-ms")?,
        model_dir: model_dir.map(String::from),
        initial_model_generation: initial_generation,
        trace: trace_config(args)?,
        ..::serve::ServeConfig::default()
    };
    if let Some(t) = &cfg.trace {
        let to = |what: &str, path: &Option<String>| {
            let path = path.as_deref().map(|p| format!(", {what} -> {p}"));
            path.unwrap_or_default()
        };
        let (ring, slow) = (t.ring_capacity, t.slow_us);
        let (journal, dump) = (to("journal", &t.store_dir), to("dump", &t.dump_path));
        println!("tracing: ring {ring} spans/shard, promote > {slow}us{journal}{dump}");
    }
    let handle = ::serve::serve(agent, cfg, sinks.telemetry.clone());
    let handle =
        handle.map_err(|e| Error::io(format!("cannot start server on --addr {addr}"), e))?;
    println!("listening on {}", handle.addr());
    // The server's stats live in its registry; exposing that same registry
    // means `/metrics` and the `stats` verb read the same atomics.
    sinks.expose(args, handle.registry())?;
    handle.wait(); // until a client sends {"verb":"shutdown"}
    sinks.close();
    println!("server stopped");
    Ok(())
}

/// Flight-recorder settings for `serve`: tracing turns on when any
/// `--trace-*` flag is present; unset flags keep the [`::serve::TraceConfig`]
/// defaults.
fn trace_config(args: &Args) -> Result<Option<::serve::TraceConfig>, Error> {
    let enabled = ["trace-ring", "trace-slow-us", "trace-store", "trace-dump"]
        .iter()
        .any(|k| args.get(k).is_some());
    if !enabled {
        return Ok(None);
    }
    let default = ::serve::TraceConfig::default();
    Ok(Some(::serve::TraceConfig {
        ring_capacity: args.num("trace-ring", default.ring_capacity)?,
        slow_us: args.num("trace-slow-us", default.slow_us)?,
        store_dir: args.get("trace-store").map(String::from),
        dump_path: args.get("trace-dump").map(String::from),
    }))
}

pub const INFER: Command = Command {
    name: "infer",
    about: "feature lines in, one decision per line out",
    run: infer,
    shared: &[],
    flags: &[
        "model FILE   the trained model",
        "in FILE.jsonl   feature lines (default: stdin)",
    ],
};

fn infer(args: &Args) -> Result<(), Error> {
    let agent = load_model(args)?;
    let dim = agent.input_dim();
    let input: Box<dyn std::io::Read> = match args.get("in") {
        Some(path) => {
            let file = std::fs::File::open(path);
            Box::new(file.map_err(|e| Error::input(format!("cannot read {path}"), e))?)
        }
        None => Box::new(std::io::stdin()),
    };
    let mut scratch = rlcore::PolicyScratch::default();
    let mut decided = 0usize;
    for (i, line) in std::io::BufReader::new(input).lines().enumerate() {
        let bad = |why: String| Error::Failed(format!("line {}: {why}", i + 1));
        let line = line.map_err(|e| bad(format!("read error: {e}")))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Accept a bare array of numbers or an object with "features".
        let value = obs::json::parse(line).map_err(bad)?;
        let raw = value
            .as_array()
            .or_else(|| value.get("features").and_then(obs::json::Json::as_array))
            .ok_or_else(|| bad("expected an array or {\"features\":[..]}".into()))?;
        let features = raw
            .iter()
            .map(|x| x.as_f64().map(|x| x as f32))
            .collect::<Option<Vec<f32>>>()
            .ok_or_else(|| bad("features must be numbers".into()))?;
        if features.len() != dim {
            let got = features.len();
            return Err(bad(format!("expected {dim} features, got {got}")));
        }
        let d = agent.decide(&features, &mut scratch);
        let verdict = if d.reject { "reject" } else { "accept" };
        println!("{{\"decision\":\"{verdict}\",\"p_reject\":{}}}", d.p_reject);
        decided += 1;
    }
    eprintln!("{decided} decisions");
    Ok(())
}
