//! Layer probes of the traced pass: tight loops over one public function
//! of one layer, on inputs taken from the run's own data. A probe explains
//! an end-to-end move; it never gates.

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use inspector::Trainer;
use policies::PolicyKind;
use rlcore::BinaryPolicy;
use serve::{BatchEngine, Completion, EngineConfig, ServerStats};
use simhpc::{InspectorHook, Observation, PolicyContext, SimConfig, Simulator};
use store::RunStore;
use tinynn::{BatchForwardScratch, ForwardScratch, Tape};
use workload::{Job, JobTrace};

use crate::gen::{self, ServeInputs};
use crate::report::Outcome;
use crate::serve_load::{features_json, write_request};
use crate::stats::best;
use crate::train::{BATCH, SEQ_LEN};
use crate::POLICY_SEED;

/// Batches a probe times; its result is the best of them.
const BATCHES: usize = 9;

/// Nanoseconds per call of `f`, which is called `iters` times per batch.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    best(&batches)
}

/// `JobTrace::sequence`, the per-episode copy of the training sequence.
pub fn sequence(out: &mut Outcome, trace: &JobTrace) {
    let span = trace.len().saturating_sub(SEQ_LEN).max(1);
    let ns = ns_per_call(2_000, |i| {
        black_box(trace.sequence((i * 37) % span, SEQ_LEN));
    });
    out.set("workload.sequence_ns", ns);
}

/// Clones up to `max` observations from a replay of the trace's first jobs.
struct Observations {
    seen: Vec<Observation>,
    max: usize,
}

impl InspectorHook for Observations {
    fn inspect(&mut self, obs: &Observation) -> bool {
        if self.seen.len() < self.max {
            self.seen.push(obs.clone());
        }
        false
    }
}

/// `FeatureBuilder::build` on observations of real scheduling points.
pub fn features(out: &mut Outcome, trace: &JobTrace) {
    let inspector = gen::frozen_inspector(trace);
    let mut hook = Observations {
        seen: Vec::new(),
        max: 512,
    };
    let jobs = trace.sequence(0, 1_024);
    Simulator::new(trace.procs, SimConfig::with_backfill()).run_inspected(
        &jobs,
        PolicyKind::Sjf.build().as_mut(),
        &mut hook,
    );
    if hook.seen.is_empty() {
        return;
    }
    let mut buf = Vec::new();
    let ns = ns_per_call(hook.seen.len() * 8, |i| {
        inspector
            .features
            .build(&hook.seen[i % hook.seen.len()], &mut buf);
        black_box(&buf);
    });
    out.set("core.features_ns_per_point", ns);
}

/// A feature-like input row; arithmetic, not random, so it needs no seed.
fn row(dim: usize, i: usize) -> Vec<f32> {
    (0..dim)
        .map(|k| ((i * 31 + k * 17) % 97) as f32 / 97.0)
        .collect()
}

fn policy_net() -> (tinynn::Mlp, usize) {
    let policy = BinaryPolicy::new(8, POLICY_SEED);
    let dim = policy.input_dim();
    (policy.mlp().clone(), dim)
}

/// One training step of the policy network: `forward_train` + `backward`.
pub fn nn_train_step(out: &mut Outcome) {
    let (mut net, dim) = policy_net();
    let rows: Vec<Vec<f32>> = (0..64).map(|i| row(dim, i)).collect();
    let mut tape = Tape::default();
    let ns = ns_per_call(4_000, |i| {
        black_box(net.forward_train(&rows[i % rows.len()], &mut tape));
        net.backward(&tape, &[0.25, -0.25]);
    });
    out.set("tinynn.train_step_ns", ns);
}

/// Inference through the policy network, one row at a time and 16 fused.
pub fn nn_forward(out: &mut Outcome) {
    let (net, dim) = policy_net();
    let rows: Vec<Vec<f32>> = (0..64).map(|i| row(dim, i)).collect();
    let mut scratch = ForwardScratch::default();
    let b1 = ns_per_call(20_000, |i| {
        black_box(net.forward_scratch(&rows[i % rows.len()], &mut scratch));
    });
    out.set("tinynn.forward_ns_per_row.b1", b1);
    let mut batch = BatchForwardScratch::default();
    let b16 = ns_per_call(2_000, |i| {
        batch.clear(dim);
        for r in 0..16 {
            batch.push_row(&rows[(i + r) % rows.len()]);
        }
        black_box(net.forward_batch(&mut batch));
    });
    out.set("tinynn.forward_ns_per_row.b16", b16 / 16.0);
}

/// `SchedulingPolicy::select` (SJF) over a shallow and a deep queue.
pub fn policy_select(out: &mut Outcome) {
    for (name, depth) in [
        ("policies.select_ns.q16", 16usize),
        ("policies.select_ns.q4096", 4096),
    ] {
        let jobs: Vec<Job> = (0..depth)
            .map(|i| {
                let estimate = 60.0 + ((i * 7919) % 10_007) as f64;
                Job::new(
                    i as u64 + 1,
                    i as f64,
                    estimate / 2.0,
                    estimate,
                    1 + (i % 8) as u32,
                )
            })
            .collect();
        let queue: Vec<usize> = (0..depth).collect();
        let ctx = PolicyContext {
            now: depth as f64,
            total_procs: 512,
            free_procs: 64,
        };
        let mut policy = PolicyKind::Sjf.build();
        let ns = ns_per_call((1 << 18) / depth, |_| {
            black_box(policy.select(black_box(&queue), &jobs, &ctx));
        });
        out.set(name, ns);
    }
}

/// Scenario compile, SWF write and SWF parse of the replayed trace.
pub fn scenario_and_swf(out: &mut Outcome, seed: u64) -> Result<(), String> {
    let spec = scenario::ScenarioSpec::parse(gen::FLASH_CROWD_TOML).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let compiled = scenario::compile(&spec, seed).map_err(|e| e.to_string())?;
    out.set("scenario.compile_s", t.elapsed().as_secs_f64());
    let jobs = compiled.trace.len().max(1) as f64;
    out.set("scenario.jobs", compiled.trace.len() as f64);
    let t = Instant::now();
    let text = scenario::swf_text(&compiled);
    out.set("swf.write_ns_per_job", t.elapsed().as_nanos() as f64 / jobs);
    let t = Instant::now();
    let parsed = swf::SwfTrace::parse(&text).map_err(|e| e.to_string())?;
    out.set("swf.parse_ns_per_job", t.elapsed().as_nanos() as f64 / jobs);
    black_box(parsed);
    Ok(())
}

/// The distributed trainer's episode codec and the run store's commit, on
/// one real epoch of episodes.
pub fn dist_codec_and_store(out: &mut Outcome, trace: &JobTrace, dir: &Path) -> Result<(), String> {
    let mut trainer: Trainer = crate::train::build(trace);
    let plan = trainer.epoch_plan(0);
    let assignments: Vec<(usize, usize)> = plan.starts.iter().copied().enumerate().collect();
    let policy = trainer.ppo().policy.clone();
    let (summaries, _) = trainer.rollout_assigned(plan.episode_seed_base, &assignments, &policy);
    debug_assert_eq!(summaries.len(), BATCH);

    let frames: Vec<Vec<u8>> = summaries
        .iter()
        .map(|s| dist::protocol::encode_trajectory(&s.trajectory))
        .collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.set(
        "dist.frame_bytes_per_episode",
        bytes as f64 / frames.len() as f64,
    );
    let encode = ns_per_call(summaries.len() * 8, |i| {
        black_box(dist::protocol::encode_trajectory(
            &summaries[i % summaries.len()].trajectory,
        ));
    });
    out.set("dist.encode_ns_per_episode", encode);
    let decode = ns_per_call(frames.len() * 8, |i| {
        black_box(dist::protocol::decode_trajectory(&frames[i % frames.len()]).ok());
    });
    out.set("dist.decode_ns_per_episode", decode);

    // What the coordinator journals per epoch: the trajectory segment and
    // the checkpoint, one commit.
    let _ = std::fs::remove_dir_all(dir);
    let mut store = RunStore::open(dir).map_err(|e| e.to_string())?;
    let blob = dist::protocol::encode_batch(&summaries);
    let checkpoint = trainer.checkpoint_text(0);
    out.set(
        "store.bytes_per_epoch",
        (blob.len() + checkpoint.len()) as f64,
    );
    let mut commits = Vec::new();
    for epoch in 0..BATCHES {
        let t = Instant::now();
        store.put(
            store::trajectory::epoch_key(epoch),
            store::trajectory::encode_segment(epoch as u64, &blob),
        );
        store.put(dist::CHECKPOINT_KEY, checkpoint.clone());
        store.commit().map_err(|e| e.to_string())?;
        commits.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("store.commit_ms", best(&commits));
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// The serve wire codec: parse one infer line, encode one decision line.
pub fn serve_protocol(out: &mut Outcome, inputs: &ServeInputs) {
    let lines: Vec<String> = inputs
        .features
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, f)| {
            let mut line = Vec::new();
            write_request(&mut line, i as u64, &features_json(f), 0);
            String::from_utf8(line).expect("a request line is ASCII")
        })
        .collect();
    let parse = ns_per_call(10_000, |i| {
        black_box(serve::protocol::parse_request(lines[i % lines.len()].trim_end()).ok());
    });
    out.set("serve.parse_ns", parse);
    let mut scratch = rlcore::PolicyScratch::default();
    let decision = inputs.inspector.decide(&inputs.features[0], &mut scratch);
    let mut line = String::new();
    let encode = ns_per_call(20_000, |i| {
        line.clear();
        serve::protocol::write_decision(&mut line, i as u64, decision, 0);
        black_box(&line);
    });
    out.set("serve.encode_ns", encode);
}

/// One request through the inference engine and back, no TCP: submit,
/// wake the shard thread, forward, completion over the channel.
pub fn engine_rtt(out: &mut Outcome, inputs: &ServeInputs) -> Result<(), String> {
    let cfg = EngineConfig::default();
    let stats = Arc::new(ServerStats::new(
        inputs.inspector.input_dim(),
        cfg.max_batch,
    ));
    let engine = BatchEngine::start(
        inputs.inspector.clone(),
        cfg,
        stats,
        obs::Telemetry::disabled(),
        obs::SystemClock::shared(),
    );
    let (tx, rx) = mpsc::channel();
    let mut failed = false;
    let ns = ns_per_call(2_000, |i| {
        let row = inputs.features[i % inputs.features.len()].clone();
        let sent = engine.submit(0, i as u64, row, None, 0, tx.clone()).is_ok();
        // A refused submission sends nothing back; do not wait for it.
        let back = sent && matches!(rx.recv(), Ok((_, Completion::Decision { .. })));
        failed |= !back;
    });
    engine.shutdown();
    if failed {
        return Err("engine probe: a request was refused or lost".into());
    }
    out.set("serve.engine_rtt_us", ns / 1e3);
    Ok(())
}
