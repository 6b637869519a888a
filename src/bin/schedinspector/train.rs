//! The model's life before deployment: `train` it (§4.1; in process, or
//! `--dist` with `dist-worker` processes), `evaluate` it on held-out
//! sequences (§4.2), `analyze` what it learned (§5).

use std::sync::Arc;
use std::time::Duration;

use inspector::analysis::{
    collect_decisions, feature_cdf, rejection_fraction, MANUAL_FEATURE_NAMES,
};
use inspector::{EpochRecord, PolicyFactory};
use schedinspector::prelude::*;

use crate::args::{Args, Command};
use crate::telemetry::{Sinks, SINK_FLAGS};
use crate::world::{self, build_world, inspector_config, load_model, open_store, write_flag};

pub const TRAIN: Command = Command {
    name: "train",
    about: "train an inspector and print its held-out improvement",
    run: train,
    shared: &[world::FLAGS, world::SHAPE_FLAGS, SINK_FLAGS],
    flags: &[
        "out FILE   write the trained model",
        "store DIR   journal every epoch's checkpoint durably, publish the final model",
        "resume  continue a killed run from --store's last checkpoint (byte-identical)",
        "dist N   train across N workers (byte-identical to in-process training)",
        "merge sync|decentralized   (default sync; decentralized = DD-PPO averaging)",
        "frame json|binary   episode wire encoding (default json)",
        "dist-listen HOST:PORT   coordinator bind (default 127.0.0.1:0, port printed)",
        "dist-workers inproc|none   in-process workers (default), or wait for dist-worker",
        "dist-shards N   logical shards, the determinism key (default: --dist's N)",
        "dist-timeout-ms N   shard watchdog before reassignment (default 30000)",
    ],
};

fn build_trainer(
    trace: JobTrace,
    factory: &PolicyFactory,
    config: InspectorConfig,
    telemetry: &Telemetry,
) -> Result<Trainer, Error> {
    let builder = Trainer::builder(trace).factory(factory.clone());
    Ok(builder
        .config(config)
        .telemetry(telemetry.clone())
        .build()?)
}

fn print_epoch(r: &EpochRecord, epochs: usize) {
    if r.epoch.is_multiple_of(5) || r.epoch + 1 == epochs {
        println!(
            "  epoch {:>3}: improvement {:+.3} ({:+.1}%), rejection ratio {:.1}%",
            r.epoch,
            r.improvement,
            r.improvement_pct * 100.0,
            r.rejection_ratio * 100.0
        );
    }
}

fn train(args: &Args) -> Result<(), Error> {
    let (trace, factory, sim, metric) = build_world(args)?;
    let (train, test) = trace.split(0.2);
    let config = inspector_config(args, sim, metric)?;
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
        .map(|_| Arc::new(obs::Registry::new()));
    let mut sinks = Sinks::open(args, registry.as_ref())?;
    if let Some(registry) = &registry {
        sinks.expose(args, Arc::clone(registry))?;
    }
    // Distributed mode (`--dist N`): the coordinator runs inside this
    // process, drawing the exact epoch plans the in-process path would,
    // while workers (in-process threads by default, or external
    // `dist-worker` processes) execute the sharded rollouts.
    let at_least_one = |v: &str| v.parse::<usize>().ok().filter(|n| *n >= 1);
    let dist = args.choice("dist", at_least_one, "a worker count >= 1")?;
    // In-process workers must reconstruct the identical world.
    let dist = dist.map(|workers| (workers, train.clone()));
    let mut trainer = build_trainer(train, &factory, config, &sinks.telemetry)?;
    // With `--store DIR` every epoch checkpoint is journaled through the
    // durable run store, so a killed run (`kill -9`, power loss) resumes
    // byte-identically with `--resume`.
    let store_dir = args.get("store");
    let run_store = store_dir.map(|dir| open_store(dir, registry.as_deref()));
    let mut run_store = run_store.transpose()?;
    if let Some(dir) = store_dir {
        println!("store -> {dir}");
    }
    let mut start_epoch = 0usize;
    if args.get("resume").is_some() {
        let Some(store) = &run_store else {
            return Err(Error::Usage("--resume requires --store DIR".into()));
        };
        let checkpoint = store.get(CHECKPOINT_KEY);
        match checkpoint.map_err(|e| Error::input("cannot read checkpoint", e))? {
            Some(bytes) => {
                let text = String::from_utf8(bytes);
                let text = text.map_err(|e| Error::input("checkpoint is not UTF-8", e))?;
                start_epoch = trainer.restore(&text)?;
                println!("resuming at epoch {start_epoch}");
            }
            None => println!("no checkpoint in the store; starting fresh"),
        }
    }
    if let Some((n, world)) = dist {
        let worker = || build_trainer(world.clone(), &factory, config, &Telemetry::disabled());
        let store = run_store.as_mut();
        let telemetry = &sinks.telemetry;
        run_distributed(
            args,
            &mut trainer,
            n,
            &worker,
            start_epoch,
            store,
            telemetry,
        )?;
    } else {
        for epoch in start_epoch..config.epochs {
            let r = trainer.train_epoch(epoch);
            if let Some(store) = run_store.as_mut() {
                store.put(CHECKPOINT_KEY, trainer.checkpoint_text(epoch + 1));
                store.commit()?;
            }
            print_epoch(&r, config.epochs);
        }
    }
    sinks.close();
    let agent = trainer.inspector();
    let report = evaluate(&agent, &test, &factory, sim, 20, 256, 7, 0);
    println!(
        "held-out {}: {:.2} -> {:.2} ({:+.1}%)",
        metric.name(),
        report.mean_base(metric),
        report.mean_inspected(metric),
        report.improvement_pct(metric) * 100.0
    );
    write_flag(args, "out", "model written to", || {
        inspector::model_io::to_text(&agent)
    })?;
    if let Some(store) = run_store.as_mut() {
        let generation = store.publish_model(&inspector::model_io::to_text(&agent))?;
        println!("model published to store as generation {generation}");
    }
    Ok(())
}

/// The `train --dist N` path: bind the coordinator, spawn (or wait for)
/// the `n` workers, and run the epochs through the sharded scheduler. For a
/// fixed `(seed, --dist-shards)` the final weights are byte-identical to
/// the in-process loop above — the shard plan, not the physical worker
/// set, is the determinism key.
fn run_distributed(
    args: &Args,
    trainer: &mut Trainer,
    n: usize,
    worker: &dyn Fn() -> Result<Trainer, Error>,
    start_epoch: usize,
    store: Option<&mut RunStore>,
    telemetry: &Telemetry,
) -> Result<(), Error> {
    let merge = args.choice("merge", MergeMode::parse, "sync or decentralized")?;
    let frame = args.choice("frame", FrameKind::parse, "json or binary")?;
    let (epochs, batch_size) = (trainer.config().epochs, trainer.config().batch_size);
    let cfg = DistConfig {
        shards: args.num("dist-shards", n)?.clamp(1, batch_size),
        merge: merge.unwrap_or(MergeMode::Sync),
        frame: frame.unwrap_or(FrameKind::Json),
        shard_timeout: Duration::from_millis(args.num("dist-timeout-ms", 30_000u64)?),
        start_epoch,
        ..DistConfig::default()
    };
    let inproc = |v: &str| match v {
        "inproc" => Some(true),
        "none" => Some(false),
        _ => None,
    };
    let inproc = args.choice("dist-workers", inproc, "inproc or none")?;
    let coordinator = Coordinator::bind(args.get("dist-listen").unwrap_or("127.0.0.1:0"))?;
    let addr = coordinator.addr();
    println!(
        "coordinator on {addr} ({} merge, {} frames, {} shard(s), {n} worker(s))",
        cfg.merge.as_str(),
        cfg.frame.as_str(),
        cfg.shards
    );
    let local = if inproc.unwrap_or(true) {
        let workers = (0..n).map(|_| worker()).collect::<Result<_, _>>()?;
        Some(spawn_local_workers(addr, workers))
    } else {
        println!("waiting for external dist-worker process(es) to connect to {addr}");
        None
    };
    let report = coordinator.run(trainer, &cfg, store, telemetry)?;
    if let Some(handle) = local {
        let _ = handle.join();
    }
    for r in &report.history.records {
        print_epoch(r, epochs);
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
    Ok(())
}

pub const DIST_WORKER: Command = Command {
    name: "dist-worker",
    about: "one external rollout worker for `train --dist N --dist-workers none`",
    run: dist_worker,
    shared: &[world::FLAGS, world::SHAPE_FLAGS],
    flags: &[
        "connect HOST:PORT   the coordinator (default 127.0.0.1:7700)",
        "connect-timeout-ms N   how long to retry the first connect (default 10000)",
    ],
};

/// One external rollout worker process. It must be given the world and
/// shape flags of the coordinator's `train` invocation so both sides
/// reconstruct the identical world; the coordinator compares a digest of
/// that world at the `hello` handshake and refuses a worker whose differs.
fn dist_worker(args: &Args) -> Result<(), Error> {
    let (trace, factory, sim, metric) = build_world(args)?;
    let (train, _) = trace.split(0.2);
    let config = inspector_config(args, sim, metric)?;
    let mut trainer = build_trainer(train, &factory, config, &Telemetry::disabled())?;
    let cfg = WorkerConfig {
        connect: args.get("connect").unwrap_or("127.0.0.1:7700").to_string(),
        connect_timeout: Duration::from_millis(args.num("connect-timeout-ms", 10_000u64)?),
        ..WorkerConfig::default()
    };
    println!("worker connecting to {}", cfg.connect);
    let report = run_worker(&mut trainer, &cfg)?;
    let (shards, episodes) = (report.shards, report.episodes);
    println!("worker done: {shards} shard(s) rolled out, {episodes} episode(s) streamed");
    Ok(())
}

pub const EVALUATE: Command = Command {
    name: "evaluate",
    about: "base vs inspected metric on held-out sequences",
    run: evaluate_model,
    shared: &[world::FLAGS],
    flags: &[
        "model FILE   the trained model",
        "seqs N   held-out sequences (default 50)",
        "len N   jobs per sequence (default 256)",
    ],
};

fn evaluate_model(args: &Args) -> Result<(), Error> {
    let (trace, factory, sim, metric) = build_world(args)?;
    let agent = load_model(args)?;
    let (_, test) = trace.split(0.2);
    let (seqs, len) = (args.num("seqs", 50usize)?, args.num("len", 256usize)?);
    let seed = args.num("seed", 1u64)? ^ 0xE7A1;
    let report = evaluate(&agent, &test, &factory, sim, seqs, len, seed, 0);
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
    Ok(())
}

pub const ANALYZE: Command = Command {
    name: "analyze",
    about: "what the model rejects: per-feature medians over every decision",
    run: analyze,
    shared: &[world::FLAGS],
    flags: &["model FILE   the trained model"],
};

fn analyze(args: &Args) -> Result<(), Error> {
    let (trace, factory, sim, _) = build_world(args)?;
    let agent = load_model(args)?;
    let simulator = Simulator::new(trace.procs, sim);
    let samples = collect_decisions(&agent, &simulator, &trace.jobs, &factory);
    let rejected = rejection_fraction(&samples) * 100.0;
    println!("{} inspections, {rejected:.1}% rejected", samples.len());
    for (idx, name) in MANUAL_FEATURE_NAMES.iter().enumerate() {
        if idx >= agent.features.dim() {
            break;
        }
        let med = |rej| {
            let cdf = feature_cdf(&samples, idx, 41, rej);
            cdf.iter()
                .find(|&&(_, y)| y >= 0.5)
                .map_or(1.0, |&(x, _)| x)
        };
        let (all, rejected) = (med(false), med(true));
        println!("  {name:<20} median(all) {all:.3}  median(rejected) {rejected:.3}");
    }
    Ok(())
}
