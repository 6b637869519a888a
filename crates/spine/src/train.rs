//! `train_local` and `train_dist`: the PPO training loop, in process and
//! through the distributed coordinator.
//!
//! A *round* is one epoch of a freshly built trainer — plan, 16 rollouts of
//! 64 jobs, the PPO update — plus the checkpoint text, always from the same
//! initial policy ([`TRAIN_SEED`]); `--seed` picks the trace. Rounds repeat
//! until the run's seconds are spent. Repeating the first epoch keeps the
//! work per round within ±2 % across trace seeds (later epochs diverge by
//! ±30 % because training is chaotic in its inputs), gives a hundred
//! identical repeats to estimate from, and makes every round its own
//! determinism check: all rounds must end in the same checkpoint bytes,
//! and a distributed round in the bytes of the local one.

use std::path::Path;
use std::time::Instant;

use dist::{spawn_local_workers, Coordinator, DistConfig, FrameKind, MergeMode};
use inspector::{InspectorConfig, RolloutReport, Trainer};
use obs::Telemetry;
use policies::PolicyKind;
use store::RunStore;
use workload::JobTrace;

use crate::gen::{self, TRAIN_FILE};
use crate::names::*;
use crate::probes;
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{best, median};
use crate::{peak_rss_mb, RunSpec, Setups};

pub const BATCH: usize = 16;
pub const SEQ_LEN: usize = 64;
/// Seed of the initial policy and of the epoch plan; constant so that the
/// work of a round does not depend on `--seed` beyond the trace.
pub const TRAIN_SEED: u64 = 1;
/// Logical shards and in-process workers of the distributed run.
pub const DIST_SHARDS: usize = 2;
pub const DIST_WORKERS: usize = 2;
/// Untimed local rounds a traced distributed run makes for
/// `dist.epoch_overhead_ms`.
const LOCAL_REFERENCE_ROUNDS: usize = 8;

fn config() -> InspectorConfig {
    InspectorConfig {
        batch_size: BATCH,
        seq_len: SEQ_LEN,
        epochs: 1,
        seed: TRAIN_SEED,
        workers: 1,
        ..InspectorConfig::default()
    }
}

pub(crate) fn build(trace: &JobTrace) -> Trainer {
    Trainer::builder(trace.clone())
        .policy(PolicyKind::Sjf)
        .config(config())
        .build()
        .expect("the benchmark's training configuration is valid")
}

/// One timed round and what it produced.
struct Round {
    secs: f64,
    checkpoint: String,
    steps: u64,
}

fn local_round(trace: &JobTrace) -> Round {
    let mut trainer = build(trace);
    let t = Instant::now();
    let record = trainer.train_epoch(0);
    let checkpoint = trainer.checkpoint_text(1);
    Round {
        secs: t.elapsed().as_secs_f64(),
        checkpoint,
        steps: record.inspections,
    }
}

/// Per-round layer times of the traced rounds, by metric name.
type LayerSamples = std::collections::BTreeMap<&'static str, Vec<f64>>;

fn push(samples: &mut LayerSamples, name: &'static str, ns: u64) {
    samples.entry(name).or_default().push(ns as f64 * 1e-9);
}

/// The same round driven through the public three-phase API that
/// `Trainer::train_epoch` documents as equivalent, with a span per phase.
fn local_round_traced(trace: &JobTrace, spans: &mut Spans, layers: &mut LayerSamples) -> Round {
    let mut trainer = build(trace);
    let round = spans.enter("spine.round");

    let s = spans.enter("core.plan");
    let plan = trainer.epoch_plan(0);
    let assignments: Vec<(usize, usize)> = plan.starts.iter().copied().enumerate().collect();
    let policy = trainer.ppo().policy.clone();
    push(layers, "core.plan_s", spans.exit(s));

    let cache_before = (
        trainer.baseline_cache().hits(),
        trainer.baseline_cache().base_runs(),
    );
    let s = spans.enter("core.rollout");
    let (summaries, baseline_ns) =
        trainer.rollout_assigned(plan.episode_seed_base, &assignments, &policy);
    spans.child("core.baseline", baseline_ns);
    let rollout_ns = spans.exit(s);
    push(layers, "core.rollout_s", rollout_ns);
    push(layers, "core.baseline_s", baseline_ns);
    let steps: u64 = summaries.iter().map(|e| e.trajectory.len() as u64).sum();

    let s = spans.enter("rlcore.update");
    trainer.complete_epoch(
        0,
        summaries,
        RolloutReport {
            rollout_secs: rollout_ns as f64 * 1e-9,
            baseline_secs: baseline_ns as f64 * 1e-9,
            cache_before,
        },
        Telemetry::disabled().span("epoch"),
    );
    push(layers, "rlcore.update_s", spans.exit(s));

    let s = spans.enter("core.checkpoint_text");
    let checkpoint = trainer.checkpoint_text(1);
    push(layers, "core.checkpoint_text_s", spans.exit(s));

    let secs = spans.exit(round) as f64 * 1e-9;
    layers
        .entry("core.baseline_hit_rate")
        .or_default()
        .push(trainer.baseline_cache().hit_rate());
    Round {
        secs,
        checkpoint,
        steps,
    }
}

/// What a distributed round adds to [`Round`].
struct DistRound {
    round: Round,
    rollout_secs: f64,
    update_secs: f64,
    reassignments: u64,
    duplicates: u64,
    wal_bytes: u64,
}

/// One distributed round: a fresh coordinator, two in-process workers and
/// a fresh run store, one epoch, sync merge, binary frames. Building the
/// trainers, binding and opening the store are outside the timed window;
/// worker join happens inside `Coordinator::run` and is part of it.
/// An untraced round records its spans into a recorder nobody reads.
fn dist_round(trace: &JobTrace, store_dir: &Path, spans: &mut Spans) -> Result<DistRound, String> {
    let _ = std::fs::remove_dir_all(store_dir);
    let mut store = RunStore::open(store_dir).map_err(|e| e.to_string())?;
    let mut trainer = build(trace);
    let coordinator = Coordinator::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let workers = spawn_local_workers(
        coordinator.addr(),
        (0..DIST_WORKERS).map(|_| build(trace)).collect(),
    );
    let cfg = DistConfig {
        shards: DIST_SHARDS,
        merge: MergeMode::Sync,
        frame: FrameKind::Binary,
        ..DistConfig::default()
    };
    let round = spans.enter("spine.round");
    let run = spans.enter("dist.run");
    let t = Instant::now();
    let report = coordinator.run(&mut trainer, &cfg, Some(&mut store), &Telemetry::disabled());
    // The coordinator reports these two walls about itself; what is left
    // of its span is codec, journal and hand-off.
    for record in report.iter().flat_map(|r| &r.history.records) {
        spans.child("core.rollout", (record.timing.rollout_secs * 1e9) as u64);
        spans.child("rlcore.update", (record.timing.update_secs * 1e9) as u64);
    }
    spans.exit(run);
    let checkpoint_span = spans.enter("core.checkpoint_text");
    let checkpoint = trainer.checkpoint_text(1);
    spans.exit(checkpoint_span);
    spans.exit(round);
    let secs = t.elapsed().as_secs_f64();
    for w in workers.join() {
        w.map_err(|e| format!("worker: {e}"))?;
    }
    let report = report.map_err(|e| e.to_string())?;
    if report.history.records.len() != 1 {
        return Err(format!(
            "expected one epoch, saw {}",
            report.history.records.len()
        ));
    }
    let record = &report.history.records[0];
    Ok(DistRound {
        round: Round {
            secs,
            checkpoint,
            steps: record.inspections,
        },
        rollout_secs: record.timing.rollout_secs,
        update_secs: record.timing.update_secs,
        reassignments: report.reassignments,
        duplicates: report.duplicates,
        wal_bytes: store.wal_synced_len(),
    })
}

/// Set-up of both train workloads: generate the trace file, read it back,
/// build one trainer.
fn setup(spec: &RunSpec) -> Result<JobTrace, String> {
    spec.prepare_inputs()?;
    let trace = gen::load_trace(&spec.inputs.join(TRAIN_FILE))?;
    drop(build(&trace));
    Ok(trace)
}

/// End-to-end metrics from the untraced rounds. Every round is the same
/// work, so its latency distribution is a point: throughput and the
/// latency of one epoch are the best round read two ways.
fn end_to_end(out: &mut Outcome, round_secs: &[f64]) {
    let round = best(round_secs);
    out.note(format!(
        "episodes/s: best round {:.1}, median round {:.1}",
        BATCH as f64 / round,
        BATCH as f64 / median(round_secs)
    ));
    let rates = round_secs.iter().map(|s| BATCH as f64 / s).collect();
    let micros = round_secs.iter().map(|s| s * 1e6).collect();
    out.set_sampled(WORK_PER_S, BATCH as f64 / round, rates);
    out.set_sampled(LAT_P50_US, round * 1e6, micros);
}

/// Layer metrics both train workloads derive the same way from their
/// traced rounds: per-round medians, the update per step and as a share of
/// the round, the cost of tracing and what no span covers.
fn traced_layers(
    out: &mut Outcome,
    layers: &LayerSamples,
    steps: u64,
    traced_secs: &[f64],
    untraced_secs: &[f64],
    spans: &Spans,
) {
    for (name, samples) in layers {
        out.set(name, median(samples));
    }
    let update = out.metrics.get("rlcore.update_s").copied().unwrap_or(0.0);
    out.set("rlcore.steps", steps as f64);
    out.set("rlcore.update_ns_per_step", update * 1e9 / steps as f64);
    out.set("rlcore.update_share", update / median(traced_secs));
    out.set(
        "spine.trace_overhead",
        best(traced_secs) / best(untraced_secs),
    );
    out.set(
        "spine.unattributed_share",
        spans.unattributed_share("spine.round"),
    );
}

pub fn run_local(spec: &RunSpec, spans: &mut Spans) -> Result<Outcome, String> {
    let (setups, trace) = Setups::before(|| setup(spec))?;
    let mut out = Outcome::default();
    let reference = local_round(&trace); // warm-up, and the bytes every round must repeat

    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    let mut layers = LayerSamples::new();
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed().as_secs_f64() < spec.seconds {
        let traced = spec.traced && rounds % 2 == 1;
        let round = if traced {
            local_round_traced(&trace, spans, &mut layers)
        } else {
            local_round(&trace)
        };
        rounds += 1;
        out.attempted += BATCH as u64;
        if round.checkpoint != reference.checkpoint || round.steps != reference.steps {
            out.failed += BATCH as u64;
        }
        if traced {
            traced_secs.push(round.secs);
        } else {
            untraced_secs.push(round.secs);
        }
    }
    out.note(format!(
        "{rounds} rounds of {BATCH} episodes x {SEQ_LEN} jobs, {} steps each",
        reference.steps
    ));
    end_to_end(&mut out, &untraced_secs);
    out.set(PEAK_RSS_MB, peak_rss_mb());

    if spec.traced {
        traced_layers(
            &mut out,
            &layers,
            reference.steps,
            &traced_secs,
            &untraced_secs,
            spans,
        );
        probes::sequence(&mut out, &trace);
        probes::features(&mut out, &trace);
        probes::nn_train_step(&mut out);
        probes::nn_forward(&mut out);
    }
    drop(trace);
    setups.after(&mut out, || setup(spec))?;
    Ok(out)
}

pub fn run_dist(spec: &RunSpec, spans: &mut Spans) -> Result<Outcome, String> {
    let store_dir = spec.scratch.join("store");
    // The distributed set-up also binds a coordinator, opens a store and
    // builds the workers' trainers.
    let dist_setup = || {
        let trace = setup(spec)?;
        let _ = std::fs::remove_dir_all(&store_dir);
        RunStore::open(&store_dir).map_err(|e| e.to_string())?;
        Coordinator::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        for _ in 0..DIST_WORKERS {
            drop(build(&trace));
        }
        Ok(trace)
    };
    let (setups, trace) = Setups::before(dist_setup)?;
    let mut out = Outcome::default();
    // The in-process trainer is the oracle: same trace, same config.
    let reference = local_round(&trace);
    let mut unread = Spans::new();
    dist_round(&trace, &store_dir, &mut unread)?; // warm-up: threads, sockets, page cache

    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    let mut layers = LayerSamples::new();
    let (mut reassignments, mut duplicates, mut wal_bytes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed().as_secs_f64() < spec.seconds {
        let traced = spec.traced && rounds % 2 == 1;
        let d = dist_round(
            &trace,
            &store_dir,
            if traced { &mut *spans } else { &mut unread },
        )?;
        if traced {
            layers
                .entry("core.rollout_s")
                .or_default()
                .push(d.rollout_secs);
            layers
                .entry("rlcore.update_s")
                .or_default()
                .push(d.update_secs);
        }
        rounds += 1;
        out.attempted += BATCH as u64;
        if d.round.checkpoint != reference.checkpoint || d.round.steps != reference.steps {
            out.failed += BATCH as u64;
        }
        reassignments += d.reassignments;
        duplicates += d.duplicates;
        wal_bytes = d.wal_bytes;
        if traced {
            traced_secs.push(d.round.secs);
        } else {
            untraced_secs.push(d.round.secs);
        }
    }
    out.note(format!(
        "{rounds} rounds of {BATCH} episodes x {SEQ_LEN} jobs through {DIST_WORKERS} workers, {DIST_SHARDS} shards"
    ));
    end_to_end(&mut out, &untraced_secs);
    out.set(PEAK_RSS_MB, peak_rss_mb());

    if spec.traced {
        traced_layers(
            &mut out,
            &layers,
            reference.steps,
            &traced_secs,
            &untraced_secs,
            spans,
        );
        let local: Vec<f64> = (0..LOCAL_REFERENCE_ROUNDS)
            .map(|_| local_round(&trace).secs)
            .collect();
        out.set(
            "dist.epoch_overhead_ms",
            (best(&untraced_secs) - best(&local)) * 1e3,
        );
        out.set("dist.reassignments", reassignments as f64);
        out.set("dist.duplicates", duplicates as f64);
        out.set("store.wal_bytes", wal_bytes as f64);
        probes::sequence(&mut out, &trace);
        probes::dist_codec_and_store(&mut out, &trace, &spec.scratch.join("probe-store"))?;
        probes::nn_train_step(&mut out);
    }
    drop(trace);
    setups.after(&mut out, dist_setup)?;
    Ok(out)
}
