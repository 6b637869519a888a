//! `schedinspector` — command-line interface to the reproduction.
//!
//! ```text
//! schedinspector train    --trace SDSC-SP2 --policy SJF --metric bsld \
//!                         --epochs 40 --out model.txt --telemetry run.jsonl
//! schedinspector train    --store run-store --resume   (crash-safe training)
//! schedinspector train    --dist 4 --merge sync        (distributed training)
//! schedinspector dist-worker --connect 127.0.0.1:7700  (external worker)
//! schedinspector store    inspect --dir run-store
//! schedinspector serve    --model-dir run-store --addr 127.0.0.1:7171
//! schedinspector evaluate --model model.txt --trace SDSC-SP2 --policy SJF
//! schedinspector analyze  --model model.txt --trace SDSC-SP2 --policy SJF
//! schedinspector serve    --model model.txt --addr 127.0.0.1:7171
//! schedinspector infer    --model model.txt --in features.jsonl
//! schedinspector trace    --trace Lublin --jobs 5000 --out trace.swf
//! schedinspector scenario compile --spec flash_crowd.toml --seed 7 \
//!                         --out-swf flash.swf --out-profile flash_profile.toml
//! schedinspector scenario replay  --spec flash_crowd.toml --policy SJF \
//!                         --fairness-out fairness.json
//! schedinspector check-telemetry --file run.jsonl
//! ```

use std::path::Path;
use std::process::exit;

use inspector::analysis::{
    collect_decisions, feature_cdf, rejection_fraction, MANUAL_FEATURE_NAMES,
};
use schedinspector::prelude::*;

struct Args {
    map: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut map = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // Bare flags (`--resume`) must not swallow the next
                // option as their value.
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                    _ => String::new(),
                };
                map.push((key.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { map, positional }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--key`'s parsed value, if the flag is present. A value that does
    /// not parse is a usage error, not a silent fallback.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key}: invalid value {v:?}");
                exit(2)
            })
        })
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: schedinspector <train|dist-worker|evaluate|analyze|serve|infer|trace|scenario|store|check-telemetry|report> [options]\n\
         \n\
         common options:\n\
           --trace   SDSC-SP2|CTC-SP2|HPC2N|Lublin   (default SDSC-SP2)\n\
           --trace-file FILE.swf   load an SWF archive instead\n\
           --scenario FILE.toml    compile a scenario spec instead\n\
           --policy  FCFS|LCFS|SJF|SAF|SRF|F1|Slurm  (default SJF)\n\
           --metric  bsld|wait|mbsld                  (default bsld)\n\
           --jobs N       trace size        (default 10000)\n\
           --seed N       RNG seed          (default 1)\n\
           --backfill 1   enable EASY backfilling\n\
         train:    --epochs N --batch N --out FILE --telemetry FILE.jsonl\n\
         \x20          --metrics-addr HOST:PORT   (live /metrics during training)\n\
         \x20          --store DIR    journal epoch checkpoints durably and\n\
         \x20                         publish the final model as a generation\n\
         \x20          --resume       continue a killed run from the store's\n\
         \x20                         last durable checkpoint (byte-identical)\n\
         \x20          --dist N       distributed training across N workers\n\
         \x20                         (byte-identical to in-process training)\n\
         \x20          --merge sync|decentralized   (default sync; decentralized\n\
         \x20                         is the DD-PPO shard-averaged merge)\n\
         \x20          --frame json|binary   episode wire encoding (default json)\n\
         \x20          --dist-listen HOST:PORT   coordinator bind (default\n\
         \x20                         127.0.0.1:0, chosen port printed)\n\
         \x20          --dist-workers inproc|none   (default inproc spawns the N\n\
         \x20                         workers in-process; none waits for external\n\
         \x20                         `dist-worker` processes)\n\
         \x20          --dist-shards N   logical shards, the determinism key\n\
         \x20                         (default N = worker count)\n\
         \x20          --dist-timeout-ms N   shard watchdog before speculative\n\
         \x20                         reassignment (default 30000)\n\
         dist-worker: --connect HOST:PORT   (plus the same trace/policy/seed\n\
         \x20          flags as the coordinator's train invocation: a worker\n\
         \x20          must reconstruct the identical world)\n\
         evaluate: --model FILE --seqs N --len N\n\
         analyze:  --model FILE\n\
         serve:    --model FILE --addr HOST:PORT --workers N --batch N\n\
         \x20          --model-dir DIR  serve the store's latest model and\n\
         \x20                         hot-swap each newly published generation\n\
         \x20          --shards N     (per-core engine shards, default 1)\n\
         \x20          --queue N --deadline-ms N --telemetry FILE.jsonl\n\
         \x20          --metrics-addr HOST:PORT   (Prometheus exposition endpoint)\n\
         \x20          --trace-ring N --trace-slow-us N --trace-store DIR\n\
         \x20          --trace-dump FILE   (per-shard flight recorder: slow/error/\n\
         \x20                         swap traces promote to the journal; the ring\n\
         \x20                         dumps to FILE on shutdown)\n\
         \x20          (TCP decision service; port 0 = ephemeral, printed on stdout)\n\
         infer:    --model FILE [--in FILE.jsonl]   (feature lines -> decisions)\n\
         trace:    --out FILE.swf   (generate an SWF workload trace), or\n\
         \x20          trace DIR|FILE    (reconstruct journaled or dumped request\n\
         \x20                         traces: per-request queue/batch/forward/write\n\
         \x20                         critical paths, slowest first)\n\
         scenario: <validate|compile|replay> --spec FILE.toml --seed N\n\
         \x20          compile: --out-swf FILE.swf --out-profile FILE.toml\n\
         \x20          replay:  --policy P --backfill 1 --fairness-out FILE.json\n\
         \x20          (validate/compile a multi-tenant scenario spec, or replay\n\
         \x20           it through the simulator and print per-tenant fairness)\n\
         store:    <inspect|compact> --dir DIR\n\
         \x20          (inspect: manifest/segments/WAL/models + strict verify;\n\
         \x20           compact: merge segments, retire old model generations)\n\
         check-telemetry: --file FILE.jsonl   (validate a telemetry sidecar)\n\
         report:   FILE.jsonl [FILE.jsonl ...]\n\
         \x20          [--fairness FILE.json]  (render a fairness report)\n\
         \x20          (per-epoch summaries and span wall-time breakdown; exits 1\n\
         \x20           when a sidecar is DEGRADED by malformed lines)"
    );
    exit(2)
}

/// Resolve the unified trace source for the `--trace`/`--trace-file`/
/// `--scenario` flag triple. All commands that consume a trace route
/// through here, so every ingestion path (calibrated synthetic profile,
/// SWF archive, scenario-compiled) is available everywhere.
fn trace_source(args: &Args) -> Box<dyn TraceSource> {
    let seed = args.num("seed", 1u64);
    if let Some(path) = args.get("trace-file") {
        Box::new(SwfFileSource::new(path))
    } else if let Some(path) = args.get("scenario") {
        Box::new(ScenarioSource::new(path, seed))
    } else {
        let name = args.get("trace").unwrap_or("SDSC-SP2");
        Box::new(SyntheticSource::new(
            name,
            args.num("jobs", 10_000usize),
            seed,
        ))
    }
}

fn build_world(args: &Args) -> (JobTrace, inspector::PolicyFactory, SimConfig, Metric) {
    let source = trace_source(args);
    let trace = source.load().unwrap_or_else(|e| {
        eprintln!("cannot load {}: {e}", source.id());
        exit(2)
    });
    let policy = args.get("policy").unwrap_or("SJF");
    let factory = if policy.eq_ignore_ascii_case("slurm") {
        slurm_factory(&trace)
    } else {
        match policy.parse::<PolicyKind>() {
            Ok(kind) => factory_for(kind),
            Err(e) => {
                eprintln!("{e}");
                exit(2)
            }
        }
    };
    let metric: Metric = args
        .get("metric")
        .unwrap_or("bsld")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
    let sim = SimConfig {
        backfill: args.num("backfill", 0u8) != 0,
        ..SimConfig::default()
    };
    (trace, factory, sim, metric)
}

fn cmd_train(args: &Args) {
    let (trace, factory, sim, metric) = build_world(args);
    let (train, test) = trace.split(0.2);
    let config = InspectorConfig {
        metric,
        sim,
        epochs: args.num("epochs", 40usize),
        batch_size: args.num("batch", 64usize),
        seq_len: args.num("len", 128usize),
        seed: args.num("seed", 1u64),
        ..Default::default()
    };
    println!(
        "training on {} ({} jobs), {} epochs x {} trajectories, metric {}",
        train.name,
        train.len(),
        config.epochs,
        config.batch_size,
        metric.name()
    );
    let registry = args
        .get("metrics-addr")
        .map(|_| std::sync::Arc::new(obs::Registry::new()));
    let telemetry = match (args.get("telemetry"), &registry) {
        (Some(path), reg) => {
            let made = match reg {
                Some(reg) => {
                    obs::Telemetry::jsonl_with_registry(Path::new(path), std::sync::Arc::clone(reg))
                }
                None => obs::Telemetry::jsonl(Path::new(path)),
            };
            match made {
                Ok(t) => {
                    println!("telemetry -> {path}");
                    t
                }
                Err(e) => {
                    eprintln!("cannot write telemetry file {path}: {e}");
                    exit(2)
                }
            }
        }
        (None, Some(reg)) => obs::Telemetry::with_registry(std::sync::Arc::clone(reg)),
        (None, None) => obs::Telemetry::disabled(),
    };
    let exporter = registry.clone().map(|reg| {
        let addr = args.get("metrics-addr").unwrap();
        match obs::MetricsExporter::bind(addr, reg, telemetry.clone()) {
            Ok(ex) => {
                println!("metrics -> http://{}/metrics", ex.local_addr());
                ex
            }
            Err(e) => {
                eprintln!("cannot start metrics exporter: {e}");
                exit(2)
            }
        }
    });
    // Distributed mode (`--dist N`): the coordinator runs inside this
    // process, drawing the exact epoch plans the in-process path would,
    // while workers (in-process threads by default, or external
    // `dist-worker` processes) execute the sharded rollouts.
    let dist_workers = args.get("dist").map(|v| match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--dist requires a worker count >= 1, got {v:?}");
            exit(2)
        }
    });
    // In-process workers must reconstruct the identical world.
    let worker_world = dist_workers.map(|_| train.clone());
    let mut trainer = match Trainer::builder(train)
        .factory(factory.clone())
        .config(config)
        .telemetry(telemetry.clone())
        .build()
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            exit(2)
        }
    };
    // With `--store DIR` every epoch checkpoint is journaled through the
    // durable run store, so a killed run (`kill -9`, power loss) resumes
    // byte-identically with `--resume`.
    let mut run_store = args.get("store").map(|dir| {
        match RunStore::open_with(dir, StoreConfig::default(), registry.as_deref()) {
            Ok(s) => {
                println!("store -> {dir}");
                s
            }
            Err(e) => {
                eprintln!("cannot open store {dir}: {e}");
                exit(2)
            }
        }
    });
    let mut start_epoch = 0usize;
    if args.get("resume").is_some() {
        let Some(store) = &run_store else {
            eprintln!("--resume requires --store DIR");
            exit(2)
        };
        match store.get(CHECKPOINT_KEY) {
            Ok(Some(bytes)) => {
                let text = String::from_utf8(bytes).unwrap_or_else(|e| {
                    eprintln!("checkpoint is not UTF-8: {e}");
                    exit(2)
                });
                match trainer.restore(&text) {
                    Ok(done) => {
                        println!("resuming at epoch {done}");
                        start_epoch = done;
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        exit(2)
                    }
                }
            }
            Ok(None) => println!("no checkpoint in the store; starting fresh"),
            Err(e) => {
                eprintln!("cannot read checkpoint: {e}");
                exit(2)
            }
        }
    }
    if let Some(n) = dist_workers {
        run_distributed(
            args,
            &mut trainer,
            worker_world.expect("trace captured for workers"),
            &factory,
            config,
            n,
            start_epoch,
            run_store.as_mut(),
            &telemetry,
        );
    } else {
        for epoch in start_epoch..config.epochs {
            let r = trainer.train_epoch(epoch);
            if let Some(store) = run_store.as_mut() {
                store.put(
                    CHECKPOINT_KEY,
                    trainer.checkpoint_text(epoch + 1).into_bytes(),
                );
                if let Err(e) = store.commit() {
                    eprintln!("cannot journal checkpoint for epoch {epoch}: {e}");
                    exit(1)
                }
            }
            if epoch % 5 == 0 || epoch + 1 == config.epochs {
                println!(
                    "  epoch {:>3}: improvement {:+.3} ({:+.1}%), rejection ratio {:.1}%",
                    epoch,
                    r.improvement,
                    r.improvement_pct * 100.0,
                    r.rejection_ratio * 100.0
                );
            }
        }
    }
    telemetry.flush();
    if let Some(exporter) = exporter {
        exporter.shutdown();
    }
    let agent = trainer.inspector();
    let report = evaluate(&agent, &test, &factory, sim, 20, 256, 7, 0);
    println!(
        "held-out {}: {:.2} -> {:.2} ({:+.1}%)",
        metric.name(),
        report.mean_base(metric),
        report.mean_inspected(metric),
        report.improvement_pct(metric) * 100.0
    );
    if let Some(out) = args.get("out") {
        inspector::model_io::save(&agent, Path::new(out)).expect("write model");
        println!("model written to {out}");
    }
    if let Some(store) = run_store.as_mut() {
        match store.publish_model(&inspector::model_io::to_text(&agent)) {
            Ok(generation) => println!("model published to store as generation {generation}"),
            Err(e) => {
                eprintln!("cannot publish model: {e}");
                exit(1)
            }
        }
    }
}

/// The `train --dist N` path: bind the coordinator, spawn (or wait for)
/// workers, and run the epochs through the sharded scheduler. For a fixed
/// `(seed, --dist-shards)` the final weights are byte-identical to the
/// in-process loop above — the shard plan, not the physical worker set,
/// is the determinism key.
#[allow(clippy::too_many_arguments)] // one-shot plumbing from cmd_train
fn run_distributed(
    args: &Args,
    trainer: &mut Trainer,
    world: JobTrace,
    factory: &inspector::PolicyFactory,
    config: InspectorConfig,
    n: usize,
    start_epoch: usize,
    store: Option<&mut RunStore>,
    telemetry: &Telemetry,
) {
    let merge = match args.get("merge") {
        None => MergeMode::Sync,
        Some(v) => MergeMode::parse(v).unwrap_or_else(|| {
            eprintln!("--merge must be sync or decentralized, got {v:?}");
            exit(2)
        }),
    };
    let frame = match args.get("frame") {
        None => FrameKind::Json,
        Some(v) => FrameKind::parse(v).unwrap_or_else(|| {
            eprintln!("--frame must be json or binary, got {v:?}");
            exit(2)
        }),
    };
    let shards = args.num("dist-shards", n).clamp(1, config.batch_size);
    let cfg = DistConfig {
        shards,
        merge,
        frame,
        shard_timeout: std::time::Duration::from_millis(args.num("dist-timeout-ms", 30_000u64)),
        start_epoch,
        ..DistConfig::default()
    };
    let coordinator = Coordinator::bind(args.get("dist-listen").unwrap_or("127.0.0.1:0"))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        });
    println!(
        "coordinator on {} ({} merge, {} frames, {} shard(s), {} worker(s))",
        coordinator.addr(),
        merge.as_str(),
        frame.as_str(),
        shards,
        n
    );
    let local = match args.get("dist-workers").unwrap_or("inproc") {
        "inproc" => {
            let workers: Vec<Trainer> = (0..n)
                .map(|_| {
                    Trainer::builder(world.clone())
                        .factory(factory.clone())
                        .config(config)
                        .build()
                        .unwrap_or_else(|e| {
                            eprintln!("{e}");
                            exit(2)
                        })
                })
                .collect();
            Some(spawn_local_workers(coordinator.addr(), workers))
        }
        "none" => {
            println!(
                "waiting for external dist-worker process(es) to connect to {}",
                coordinator.addr()
            );
            None
        }
        other => {
            eprintln!("--dist-workers must be inproc or none, got {other:?}");
            exit(2)
        }
    };
    let report = coordinator
        .run(trainer, &cfg, store, telemetry)
        .unwrap_or_else(|e| {
            eprintln!("distributed training failed: {e}");
            exit(1)
        });
    if let Some(handle) = local {
        let _ = handle.join();
    }
    for r in &report.history.records {
        if r.epoch % 5 == 0 || r.epoch + 1 == config.epochs {
            println!(
                "  epoch {:>3}: improvement {:+.3} ({:+.1}%), rejection ratio {:.1}%",
                r.epoch,
                r.improvement,
                r.improvement_pct * 100.0,
                r.rejection_ratio * 100.0
            );
        }
    }
    println!(
        "distributed: {} episode(s), {} duplicate(s) dropped, {} reassignment(s), \
         {} worker death(s), {} worker(s) joined",
        report.episodes,
        report.duplicates,
        report.reassignments,
        report.worker_deaths,
        report.workers_joined
    );
}

/// `dist-worker --connect ADDR` — one external rollout worker process. It
/// must be launched with the same trace/policy/seed/config flags as the
/// coordinator's `train` invocation so both sides reconstruct the
/// identical world; mismatches are rejected at the hello handshake.
fn cmd_dist_worker(args: &Args) {
    let (trace, factory, sim, metric) = build_world(args);
    let (train, _) = trace.split(0.2);
    let config = InspectorConfig {
        metric,
        sim,
        epochs: args.num("epochs", 40usize),
        batch_size: args.num("batch", 64usize),
        seq_len: args.num("len", 128usize),
        seed: args.num("seed", 1u64),
        ..Default::default()
    };
    let mut trainer = match Trainer::builder(train)
        .factory(factory)
        .config(config)
        .build()
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            exit(2)
        }
    };
    let cfg = WorkerConfig {
        connect: args.get("connect").unwrap_or("127.0.0.1:7700").to_string(),
        connect_timeout: std::time::Duration::from_millis(
            args.num("connect-timeout-ms", 10_000u64),
        ),
        ..WorkerConfig::default()
    };
    println!("worker connecting to {}", cfg.connect);
    match run_worker(&mut trainer, &cfg) {
        Ok(report) => println!(
            "worker done: {} shard(s) rolled out, {} episode(s) streamed",
            report.shards, report.episodes
        ),
        Err(e) => {
            eprintln!("worker failed: {e}");
            exit(1)
        }
    }
}

fn load_model(args: &Args) -> SchedInspector {
    let Some(path) = args.get("model") else {
        eprintln!("--model FILE is required");
        exit(2)
    };
    inspector::model_io::load(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot load {path}: {e}");
        exit(2)
    })
}

fn cmd_evaluate(args: &Args) {
    let (trace, factory, sim, metric) = build_world(args);
    let agent = load_model(args);
    let (_, test) = trace.split(0.2);
    let report = evaluate(
        &agent,
        &test,
        &factory,
        sim,
        args.num("seqs", 50usize),
        args.num("len", 256usize),
        args.num("seed", 1u64) ^ 0xE7A1,
        0,
    );
    println!(
        "{} over {} sequences: base {:.3}, inspected {:.3} ({:+.2}%)",
        metric.name(),
        report.cases.len(),
        report.mean_base(metric),
        report.mean_inspected(metric),
        report.improvement_pct(metric) * 100.0
    );
    println!(
        "utilization: {:.2}% -> {:.2}%; rejection ratio {:.1}%",
        report.mean_base_util() * 100.0,
        report.mean_inspected_util() * 100.0,
        report.rejection_ratio() * 100.0
    );
}

fn cmd_analyze(args: &Args) {
    let (trace, factory, sim, _) = build_world(args);
    let agent = load_model(args);
    let simulator = Simulator::new(trace.procs, sim);
    let samples = collect_decisions(&agent, &simulator, &trace.jobs, &factory);
    println!(
        "{} inspections, {:.1}% rejected",
        samples.len(),
        rejection_fraction(&samples) * 100.0
    );
    for (idx, name) in MANUAL_FEATURE_NAMES.iter().enumerate() {
        if idx >= agent.features.dim() {
            break;
        }
        let med = |rej| {
            feature_cdf(&samples, idx, 41, rej)
                .iter()
                .find(|&&(_, y)| y >= 0.5)
                .map(|&(x, _)| x)
                .unwrap_or(1.0)
        };
        println!(
            "  {name:<20} median(all) {:.3}  median(rejected) {:.3}",
            med(false),
            med(true)
        );
    }
}

fn cmd_serve(args: &Args) {
    // `--model-dir DIR` serves the store's latest published generation
    // and keeps watching: each later `publish_model` hot-swaps into the
    // running engine with zero dropped requests. `--model FILE` is the
    // fallback when the store holds no model yet.
    let model_dir = args.get("model-dir");
    let (agent, initial_generation) = match model_dir {
        Some(dir) => {
            let store = RunStore::open(dir).unwrap_or_else(|e| {
                eprintln!("cannot open store {dir}: {e}");
                exit(2)
            });
            match store.latest_model() {
                Ok(Some((generation, text))) => {
                    let agent = inspector::model_io::from_text(&text).unwrap_or_else(|e| {
                        eprintln!("store {dir} generation {generation}: {e}");
                        exit(2)
                    });
                    println!("serving generation {generation} from {dir}");
                    (agent, generation)
                }
                Ok(None) if args.get("model").is_some() => (load_model(args), 0),
                Ok(None) => {
                    eprintln!(
                        "{dir}: no published model (run `train --store {dir}` first, \
                         or pass --model FILE as the initial model)"
                    );
                    exit(2)
                }
                Err(e) => {
                    eprintln!("cannot read store {dir}: {e}");
                    exit(2)
                }
            }
        }
        None => (load_model(args), 0),
    };
    let telemetry = match args.get("telemetry") {
        Some(path) => match obs::Telemetry::jsonl(Path::new(path)) {
            Ok(t) => {
                println!("telemetry -> {path}");
                t
            }
            Err(e) => {
                eprintln!("cannot write telemetry file {path}: {e}");
                exit(2)
            }
        },
        None => obs::Telemetry::disabled(),
    };
    let cfg = serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7171").to_string(),
        workers: args.num("workers", 4usize),
        max_batch: args.num("batch", 16usize),
        shards: args.num("shards", 1usize),
        queue_capacity: args.num("queue", 4096usize),
        default_deadline_ms: args.opt("deadline-ms"),
        model_dir: model_dir.map(String::from),
        initial_model_generation: initial_generation,
        trace: trace_config(args),
        ..serve::ServeConfig::default()
    };
    if let Some(t) = &cfg.trace {
        println!(
            "tracing: ring {} spans/shard, promote > {}us{}{}",
            t.ring_capacity,
            t.slow_us,
            t.store_dir
                .as_deref()
                .map(|d| format!(", journal -> {d}"))
                .unwrap_or_default(),
            t.dump_path
                .as_deref()
                .map(|p| format!(", dump -> {p}"))
                .unwrap_or_default()
        );
    }
    let handle = serve::serve(agent, cfg, telemetry.clone()).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        exit(1)
    });
    println!("listening on {}", handle.addr());
    // The server's stats live in its registry; exposing that same registry
    // means `/metrics` and the `stats` verb read the same atomics.
    let exporter = args.get("metrics-addr").map(|addr| {
        match obs::MetricsExporter::bind(addr, handle.registry(), telemetry.clone()) {
            Ok(ex) => {
                println!("metrics -> http://{}/metrics", ex.local_addr());
                ex
            }
            Err(e) => {
                eprintln!("cannot start metrics exporter: {e}");
                exit(1)
            }
        }
    });
    handle.wait(); // until a client sends {"verb":"shutdown"}
    if let Some(exporter) = exporter {
        exporter.shutdown();
    }
    telemetry.flush();
    println!("server stopped");
}

/// Flight-recorder settings for `serve`: tracing turns on when any
/// `--trace-*` flag is present; unset flags keep the [`serve::TraceConfig`]
/// defaults.
fn trace_config(args: &Args) -> Option<serve::TraceConfig> {
    let enabled = ["trace-ring", "trace-slow-us", "trace-store", "trace-dump"]
        .iter()
        .any(|k| args.get(k).is_some());
    if !enabled {
        return None;
    }
    let default = serve::TraceConfig::default();
    Some(serve::TraceConfig {
        ring_capacity: args.num("trace-ring", default.ring_capacity),
        slow_us: args.num("trace-slow-us", default.slow_us),
        store_dir: args.get("trace-store").map(String::from),
        dump_path: args.get("trace-dump").map(String::from),
    })
}

fn cmd_infer(args: &Args) {
    use std::io::BufRead;
    let agent = load_model(args);
    let dim = agent.input_dim();
    let input: Box<dyn std::io::Read> = match args.get("in") {
        Some(path) => Box::new(std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(2)
        })),
        None => Box::new(std::io::stdin()),
    };
    let mut scratch = rlcore::PolicyScratch::default();
    let mut decided = 0usize;
    for (i, line) in std::io::BufReader::new(input).lines().enumerate() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("read error on line {}: {e}", i + 1);
            exit(1)
        });
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Accept a bare array of numbers or an object with "features".
        let value = obs::json::parse(line).unwrap_or_else(|e| {
            eprintln!("line {}: {e}", i + 1);
            exit(1)
        });
        let raw = value
            .as_array()
            .or_else(|| value.get("features").and_then(obs::json::Json::as_array))
            .unwrap_or_else(|| {
                eprintln!("line {}: expected an array or {{\"features\":[..]}}", i + 1);
                exit(1)
            });
        let features: Vec<f32> = raw
            .iter()
            .map(|x| {
                x.as_f64().unwrap_or_else(|| {
                    eprintln!("line {}: features must be numbers", i + 1);
                    exit(1)
                }) as f32
            })
            .collect();
        if features.len() != dim {
            eprintln!(
                "line {}: expected {dim} features, got {}",
                i + 1,
                features.len()
            );
            exit(1)
        }
        let d = agent.decide(&features, &mut scratch);
        let verdict = if d.reject { "reject" } else { "accept" };
        println!("{{\"decision\":\"{verdict}\",\"p_reject\":{}}}", d.p_reject);
        decided += 1;
    }
    eprintln!("{decided} decisions");
}

fn cmd_trace(args: &Args) {
    // `trace DIR|FILE` (positional argument) reconstructs request traces
    // from a run-store journal or a flight-recorder JSONL dump; the
    // flag-driven form below generates SWF workload traces as before.
    if let Some(path) = args.positional.first() {
        cmd_trace_inspect(path);
        return;
    }
    let (trace, _, _, _) = build_world(args);
    let s = trace.stats();
    println!("{}", s.table2_row(&trace.name));
    if let Some(out) = args.get("out") {
        trace
            .to_swf()
            .write_file(Path::new(out))
            .expect("write SWF");
        println!("wrote {out}");
    }
}

/// Load every flight-recorder span from a run-store directory (keys under
/// `trace/`) or a JSONL dump/sidecar file, reconstruct each trace's
/// critical path, and pretty-print the breakdown slowest-first.
fn cmd_trace_inspect(path: &str) {
    use obs::trace::{hex16, summarize, TraceSummary};
    use std::collections::BTreeMap;

    let (mut events, mut malformed) = (Vec::new(), Vec::new());
    if Path::new(path).is_dir() {
        let store = RunStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open store {path}: {e}");
            exit(2)
        });
        let keys = store.keys().unwrap_or_else(|e| {
            eprintln!("cannot list store {path}: {e}");
            exit(2)
        });
        for key in keys.iter().filter(|k| k.starts_with("trace/")) {
            match store.get(key) {
                Ok(Some(bytes)) => {
                    let (e, m) = obs::event::read_lines(
                        &format!("{path}/{key}"),
                        &String::from_utf8_lossy(&bytes),
                    );
                    events.extend(e);
                    malformed.extend(m);
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("cannot read {key}: {e}");
                    exit(2)
                }
            }
        }
    } else {
        (events, malformed) = obs::event::read_file(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot read {e}");
            exit(2)
        });
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
        eprintln!("{path}: no flight-record spans found ({malformed} malformed lines)");
        exit(1)
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
}

/// `scenario <validate|compile|replay>` — the scenario-engine front end.
///
/// * `validate` parses the spec and prints the population summary;
/// * `compile` deterministically materializes the SWF trace and the typed
///   load profile (byte-identical for equal `(spec, seed)`);
/// * `replay` runs the compiled trace through the simulator under a
///   baseline policy and prints the per-tenant fairness table.
fn cmd_scenario(args: &Args) {
    let Some(sub) = args.positional.first() else {
        eprintln!("scenario: a subcommand (validate|compile|replay) is required");
        exit(2)
    };
    let Some(spec_path) = args.get("spec") else {
        eprintln!("scenario {sub}: --spec FILE.toml is required");
        exit(2)
    };
    let seed = args.num("seed", 1u64);
    let text = std::fs::read_to_string(spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        exit(2)
    });
    let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("{spec_path}: {e}");
        exit(2)
    });
    println!(
        "scenario {:?}: {} procs, {:.1}h horizon, {} tenant(s), {} event(s)",
        spec.name,
        spec.procs,
        spec.horizon_s / 3600.0,
        spec.tenants.len(),
        spec.events.len()
    );
    for t in &spec.tenants {
        println!(
            "  tenant {:<12} {:>9} users, {:.1} jobs/h, {:?} arrivals",
            t.name, t.users, t.rate_per_hour, t.arrival
        );
    }
    if sub == "validate" {
        println!("{spec_path}: ok");
        return;
    }

    let compiled = scenario::compile(&spec, seed).unwrap_or_else(|e| {
        eprintln!("{spec_path}: {e}");
        exit(2)
    });
    println!(
        "compiled (seed {seed}): {} jobs on {} procs",
        compiled.trace.len(),
        compiled.trace.procs
    );
    match sub.as_str() {
        "compile" => {
            if let Some(out) = args.get("out-swf") {
                std::fs::write(out, scenario::swf_text(&compiled)).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(2)
                });
                println!("swf -> {out}");
            }
            if let Some(out) = args.get("out-profile") {
                std::fs::write(out, compiled.profile.to_toml()).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(2)
                });
                println!("profile -> {out}");
            }
        }
        "replay" => {
            let policy = args.get("policy").unwrap_or("SJF");
            let factory = if policy.eq_ignore_ascii_case("slurm") {
                slurm_factory(&compiled.trace)
            } else {
                match policy.parse::<PolicyKind>() {
                    Ok(kind) => factory_for(kind),
                    Err(e) => {
                        eprintln!("{e}");
                        exit(2)
                    }
                }
            };
            let sim = SimConfig {
                backfill: args.num("backfill", 0u8) != 0,
                ..SimConfig::default()
            };
            let mut policy = factory();
            let result = Simulator::new(compiled.trace.procs, sim)
                .run(&compiled.trace.jobs, policy.as_mut());
            let fairness = FairnessReport::from_sim(
                spec.name.clone(),
                &result,
                &compiled.trace.jobs,
                &compiled.tenants,
            );
            print!("{}", fairness.render());
            if let Some(out) = args.get("fairness-out") {
                let mut text = String::new();
                fairness.to_json().write_json(&mut text);
                text.push('\n');
                std::fs::write(out, text).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(2)
                });
                println!("fairness -> {out}");
            }
        }
        other => {
            eprintln!("scenario: unknown subcommand {other:?} (validate|compile|replay)");
            exit(2)
        }
    }
}

/// `store <inspect|compact>` — examine or maintain a durable run store.
///
/// * `inspect` prints the manifest version, live segments, WAL/memtable
///   state, published model generations, and runs a strict integrity
///   check over every on-disk structure;
/// * `compact` merges all live segments into one and retires superseded
///   model generations.
fn cmd_store(args: &Args) {
    let Some(sub) = args.positional.first() else {
        eprintln!("store: a subcommand (inspect|compact) is required");
        exit(2)
    };
    let Some(dir) = args.get("dir") else {
        eprintln!("store {sub}: --dir DIR is required");
        exit(2)
    };
    let mut store = RunStore::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open store {dir}: {e}");
        exit(2)
    });
    match sub.as_str() {
        "inspect" => {
            let status = store.status().unwrap_or_else(|e| {
                eprintln!("{dir}: {e}");
                exit(1)
            });
            println!("store {dir}");
            println!("  manifest version  {}", status.manifest_version);
            println!("  wal durable bytes {}", status.wal_durable_len);
            println!("  memtable entries  {}", status.memtable_entries);
            println!("  live keys         {}", status.live_keys);
            println!("  segments          {}", status.segments.len());
            for (id, records, bytes) in &status.segments {
                println!("    seg {id:>6}: {records} records, {bytes} bytes");
            }
            match status.model_generations.as_slice() {
                [] => println!("  models            none"),
                gens => println!(
                    "  models            {} (latest generation {})",
                    gens.len(),
                    gens.last().unwrap()
                ),
            }
            match store.verify() {
                Ok(records) => println!("  verify            ok ({records} records checked)"),
                Err(e) => {
                    eprintln!("  verify            FAILED: {e}");
                    exit(1)
                }
            }
        }
        "compact" => match store.compact() {
            Ok(retired) => println!("{dir}: compacted, {retired} segment(s) retired"),
            Err(e) => {
                eprintln!("{dir}: compaction failed: {e}");
                exit(1)
            }
        },
        other => {
            eprintln!("store: unknown subcommand {other:?} (inspect|compact)");
            exit(2)
        }
    }
}

fn cmd_check_telemetry(args: &Args) {
    let Some(path) = args.get("file") else {
        eprintln!("--file FILE.jsonl is required");
        exit(2)
    };
    let (events, malformed) = obs::event::read_file(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot read {e}");
        exit(2)
    });
    if !malformed.is_empty() {
        for m in &malformed {
            eprintln!("{m}");
        }
        eprintln!("{path}: {} invalid telemetry line(s)", malformed.len());
        exit(1)
    }
    let mut counts = std::collections::BTreeMap::new();
    for event in &events {
        *counts.entry(event.kind()).or_insert(0usize) += 1;
    }
    println!("{path}: {} valid events", events.len());
    for (kind, n) in counts {
        println!("  {kind:<10} {n}");
    }
}

fn cmd_report(args: &Args) {
    // A fairness artifact (from `scenario replay` or `loadgen
    // --fairness-out`) renders standalone; sidecars remain optional then.
    if let Some(path) = args.get("fairness") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(2)
        });
        let json = obs::json::parse(text.trim()).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(2)
        });
        let fairness = FairnessReport::from_json(&json).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(2)
        });
        print!("{}", fairness.render());
        if args.positional.is_empty() {
            return;
        }
    }
    if args.positional.is_empty() {
        eprintln!("report: at least one telemetry sidecar (FILE.jsonl) is required");
        exit(2)
    }
    let mut degraded = false;
    for path in &args.positional {
        // A truncated or partially corrupt sidecar (the process died
        // mid-write) still yields a summary, but malformed lines mark the
        // run DEGRADED and fail the exit code below.
        let report = obs::report::analyze_file(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        });
        degraded |= report.malformed_lines > 0;
        let mut out = String::new();
        report.render(&mut out);
        print!("{out}");
        println!();
    }
    if degraded {
        exit(1)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = Args::parse(&argv[1..]);
    match cmd.as_str() {
        "train" => cmd_train(&args),
        "dist-worker" => cmd_dist_worker(&args),
        "evaluate" => cmd_evaluate(&args),
        "analyze" => cmd_analyze(&args),
        "serve" => cmd_serve(&args),
        "infer" => cmd_infer(&args),
        "trace" => cmd_trace(&args),
        "scenario" => cmd_scenario(&args),
        "store" => cmd_store(&args),
        "check-telemetry" => cmd_check_telemetry(&args),
        "report" => cmd_report(&args),
        _ => usage(),
    }
}
