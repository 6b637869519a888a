//! PPO training for the learned selector.
//!
//! Mirrors the inspector's training loop: batches of job sequences, sparse
//! terminal percentage reward (here against an SJF reference run of the
//! same sequence), clipped-surrogate policy updates. The categorical
//! distribution ranges over queue slots instead of {accept, reject}, with
//! the kernel network shared across slots.

use obs::Telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rlcore::normalize;
use simhpc::{Metric, SimConfig, Simulator};
use tinynn::loss::{log_softmax, softmax};
use tinynn::{Adam, Mlp, Tape};
use workload::JobTrace;

use crate::features::{SelectorNorm, JOB_FEATURES};
use crate::policy::{SelStep, SelectorNet, SelectorPolicy, TrainedScheduler};

/// One selector training episode: recorded decisions plus terminal reward.
#[derive(Debug, Clone)]
struct SelTrajectory {
    steps: Vec<SelStep>,
    reward: f32,
}

/// Selector training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorConfig {
    /// Metric to optimize (reward is the percentage improvement over SJF).
    pub metric: Metric,
    /// Trajectories per epoch.
    pub batch_size: usize,
    /// Jobs per trajectory.
    pub seq_len: usize,
    /// Training epochs.
    pub epochs: usize,
    /// PPO clip radius.
    pub clip: f32,
    /// Learning rate.
    pub lr: f32,
    /// Policy passes per batch.
    pub train_iters: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            metric: Metric::Bsld,
            batch_size: 32,
            seq_len: 128,
            epochs: 30,
            clip: 0.2,
            lr: 1e-3,
            train_iters: 8,
            seed: 0,
        }
    }
}

/// Per-epoch diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Mean percentage reward vs. the SJF reference (positive = the
    /// learned selector beat SJF on the training batch).
    pub mean_reward: f32,
}

/// Trains a [`TrainedScheduler`] on a trace.
pub struct SelectorTrainer {
    config: SelectorConfig,
    net: SelectorNet,
    value: Mlp,
    pi_opt: Adam,
    vf_opt: Adam,
    trace: JobTrace,
    sim: Simulator,
    rng: StdRng,
    telemetry: Telemetry,
}

/// Value-function input: aggregate queue statistics.
const VALUE_FEATURES: usize = 4;

fn value_input(step: &SelStep) -> [f32; VALUE_FEATURES] {
    // Means over the slot features [wait, est, res] plus queue pressure.
    let n = step.n_slots.max(1);
    let mut sums = [0.0f32; 3];
    for s in 0..step.n_slots {
        for (k, sum) in sums.iter_mut().enumerate() {
            *sum += step.feats[s * JOB_FEATURES + k];
        }
    }
    [
        sums[0] / n as f32,
        sums[1] / n as f32,
        sums[2] / n as f32,
        (step.n_slots as f32 / 32.0).min(1.0),
    ]
}

impl SelectorTrainer {
    /// A trainer over `trace` (use the train split).
    pub fn new(trace: JobTrace, config: SelectorConfig) -> Self {
        let stats = trace.stats();
        let norm = SelectorNorm::new(trace.procs, stats.max_estimate);
        let net = SelectorNet::new(norm, config.seed);
        let mut vrng = StdRng::seed_from_u64(config.seed ^ 0x5E1);
        let value = Mlp::new(
            &[VALUE_FEATURES, 16, 8, 1],
            tinynn::Activation::Tanh,
            tinynn::Activation::Identity,
            &mut vrng,
        );
        let pi_opt = Adam::new(config.lr, net.param_count());
        let vf_opt = Adam::new(config.lr, value.param_count());
        let sim = Simulator::new(trace.procs, SimConfig::default());
        let rng = StdRng::seed_from_u64(config.seed ^ 0x5E1EC7);
        SelectorTrainer {
            config,
            net,
            value,
            pi_opt,
            vf_opt,
            trace,
            sim,
            rng,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; each epoch then emits an `epoch` span, a
    /// `selector.mean_reward` gauge, `selector.episodes` counts, and a
    /// `selector` heartbeat (epoch index + episodes/s).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The current network (e.g. for freezing mid-training).
    pub fn network(&self) -> &SelectorNet {
        &self.net
    }

    /// Freeze the current policy into a deployable scheduler.
    pub fn scheduler(&self) -> TrainedScheduler {
        TrainedScheduler::new(self.net.clone())
    }

    fn rollout(&mut self, epoch: usize) -> Vec<SelTrajectory> {
        let n = self.config.batch_size;
        let max_start = self.trace.len().saturating_sub(self.config.seq_len);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let start = if max_start == 0 {
                0
            } else {
                self.rng.random_range(0..=max_start)
            };
            let jobs = self.trace.sequence(start, self.config.seq_len);
            // Reference: SJF on the identical sequence.
            let ref_metric = self
                .sim
                .run(&jobs, &mut policies::Sjf)
                .metric(self.config.metric);
            let seed = self
                .config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((epoch * n + i) as u64);
            let mut policy = SelectorPolicy::stochastic(&self.net, seed);
            let result = self.sim.run(&jobs, &mut policy);
            let rl_metric = result.metric(self.config.metric);
            let reward = if ref_metric.abs() < 1e-12 {
                0.0
            } else {
                ((ref_metric - rl_metric) / ref_metric) as f32
            };
            out.push(SelTrajectory {
                steps: std::mem::take(&mut policy.steps),
                reward,
            });
        }
        out
    }

    /// One training epoch: rollouts + PPO update.
    pub fn train_epoch(&mut self, epoch: usize) -> SelectorEpoch {
        let epoch_span = obs::span!(self.telemetry, "epoch");
        let trajectories = self.rollout(epoch);
        let n_steps: usize = trajectories.iter().map(|t| t.steps.len()).sum();
        if n_steps == 0 {
            return SelectorEpoch {
                epoch,
                mean_reward: 0.0,
            };
        }

        // Advantages: terminal reward minus the critic baseline, normalized.
        let mut advantages = Vec::with_capacity(n_steps);
        for t in &trajectories {
            for s in &t.steps {
                advantages.push(t.reward - self.value.forward(&value_input(s))[0]);
            }
        }
        normalize(&mut advantages);

        // Policy: PPO clipped surrogate over the categorical-over-slots
        // distribution; gradients flow through the shared kernel net.
        let mut tape = Tape::default();
        for _ in 0..self.config.train_iters {
            self.net.net_mut().zero_grads();
            let mut flat = 0usize;
            for t in &trajectories {
                for s in &t.steps {
                    let a = advantages[flat];
                    flat += 1;
                    let logits: Vec<f32> = (0..s.n_slots)
                        .map(|j| {
                            self.net
                                .net()
                                .forward(&s.feats[j * JOB_FEATURES..(j + 1) * JOB_FEATURES])[0]
                        })
                        .collect();
                    let lp = log_softmax(&logits);
                    let p = softmax(&logits);
                    let ratio = (lp[s.action] - s.logp).exp();
                    let clipped = (a >= 0.0 && ratio > 1.0 + self.config.clip)
                        || (a < 0.0 && ratio < 1.0 - self.config.clip);
                    if clipped {
                        continue;
                    }
                    let d_surr = ratio * a;
                    for (j, &pj) in p.iter().enumerate().take(s.n_slots) {
                        let onehot = if j == s.action { 1.0 } else { 0.0 };
                        let grad = -d_surr * (onehot - pj);
                        if grad == 0.0 {
                            continue;
                        }
                        self.net.net().forward_train(
                            &s.feats[j * JOB_FEATURES..(j + 1) * JOB_FEATURES],
                            &mut tape,
                        );
                        self.net.net_mut().backward(&tape, &[grad]);
                    }
                }
            }
            self.pi_opt.step(self.net.net_mut(), 1.0 / n_steps as f32);
        }

        // Critic regression to the terminal rewards.
        for _ in 0..self.config.train_iters {
            self.value.zero_grads();
            for t in &trajectories {
                for s in &t.steps {
                    let v = self.value.forward_train(&value_input(s), &mut tape)[0];
                    self.value.backward(&tape, &[2.0 * (v - t.reward)]);
                }
            }
            self.vf_opt.step(&mut self.value, 1.0 / n_steps as f32);
        }

        let mean_reward =
            trajectories.iter().map(|t| t.reward).sum::<f32>() / trajectories.len() as f32;
        if self.telemetry.is_enabled() {
            self.telemetry
                .count("selector.episodes", trajectories.len() as u64);
            self.telemetry
                .gauge("selector.mean_reward", mean_reward as f64);
            let epoch_secs = epoch_span.elapsed();
            if epoch_secs > 0.0 {
                self.telemetry.heartbeat(
                    "selector",
                    epoch as u64,
                    trajectories.len() as f64 / epoch_secs,
                );
            }
        }
        SelectorEpoch { epoch, mean_reward }
    }

    /// Train for the configured number of epochs; returns per-epoch mean
    /// rewards (the training curve).
    pub fn train(&mut self) -> Vec<SelectorEpoch> {
        (0..self.config.epochs)
            .map(|e| self.train_epoch(e))
            .collect()
    }

    /// Evaluate the current greedy policy vs. SJF over `n` sequences.
    pub fn evaluate(&self, n: usize, seq_len: usize, seed: u64) -> (f64, f64) {
        let mut sampler = workload::SequenceSampler::new(self.trace.clone(), seq_len, seed);
        let mut rl_sum = 0.0;
        let mut ref_sum = 0.0;
        for _ in 0..n {
            let (_, jobs) = sampler.sample();
            let mut greedy = SelectorPolicy::greedy(&self.net);
            rl_sum += self.sim.run(&jobs, &mut greedy).metric(self.config.metric);
            ref_sum += self
                .sim
                .run(&jobs, &mut policies::Sjf)
                .metric(self.config.metric);
        }
        (rl_sum / n as f64, ref_sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Job;

    fn trace() -> JobTrace {
        let jobs = (0..500u64)
            .map(|i| {
                let (rt, procs) = match i % 4 {
                    0 => (2000.0, 5),
                    1 => (200.0, 1),
                    2 => (900.0, 2),
                    _ => (100.0, 1),
                };
                Job::new(i + 1, i as f64 * 120.0, rt, rt * 1.5, procs)
            })
            .collect();
        JobTrace::new("sel", 8, jobs).unwrap()
    }

    #[test]
    fn epoch_trains_without_nan() {
        let config = SelectorConfig {
            batch_size: 4,
            seq_len: 24,
            epochs: 1,
            ..Default::default()
        };
        let mut t = SelectorTrainer::new(trace(), config);
        let e = t.train_epoch(0);
        assert!(e.mean_reward.is_finite());
        // Network still produces finite logits after the update.
        let (rl, rf) = t.evaluate(3, 24, 9);
        assert!(rl.is_finite() && rf.is_finite());
    }

    #[test]
    fn telemetry_emits_epoch_span_heartbeat_and_gauges() {
        let config = SelectorConfig {
            batch_size: 4,
            seq_len: 24,
            epochs: 1,
            ..Default::default()
        };
        let (telemetry, sink) = obs::Telemetry::in_memory();
        let mut t = SelectorTrainer::new(trace(), config).with_telemetry(telemetry);
        let e = t.train_epoch(0);
        let pairs = sink.check_span_pairing().expect("spans pair");
        assert_eq!(pairs.get("epoch"), Some(&1));
        assert_eq!(sink.counter_total("selector.episodes"), 4);
        assert_eq!(
            sink.gauge_values("selector.mean_reward"),
            vec![e.mean_reward as f64]
        );
        let heartbeats = sink
            .events()
            .into_iter()
            .filter(|ev| {
                matches!(
                    ev,
                    obs::Event::Heartbeat {
                        name: "selector",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(heartbeats, 1);
    }

    #[test]
    fn training_is_deterministic() {
        let config = SelectorConfig {
            batch_size: 4,
            seq_len: 24,
            epochs: 2,
            ..Default::default()
        };
        let run = || {
            let mut t = SelectorTrainer::new(trace(), config);
            t.train().iter().map(|e| e.mean_reward).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn value_input_is_bounded() {
        let step = SelStep {
            feats: vec![0.5; 3 * JOB_FEATURES],
            n_slots: 3,
            action: 1,
            logp: -1.0,
        };
        let v = value_input(&step);
        assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
    }
}
