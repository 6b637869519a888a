//! The PPO training loop (§3, §4.1): sample job sequences, roll out
//! episodes in parallel, compute percentage rewards against the base
//! policy, and update the actor–critic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use obs::Telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rlcore::{
    default_workers, parallel_map, Batch, BinaryPolicy, PpoConfig, PpoTrainer, Trajectory,
    UpdateStats,
};
use simhpc::Simulator;
use workload::JobTrace;

use crate::agent::SchedInspector;
use crate::baseline::BaselineCache;
use crate::config::{ConfigError, InspectorConfig};
use crate::env::{run_episode, EpisodeSpec, PolicyFactory};
use crate::features::{FeatureBuilder, Normalizer};

/// The deterministic sampling decisions of one training epoch: which
/// start offsets the batch draws its job sequences from, and the base
/// seed each episode derives its stochastic-policy stream from.
///
/// A plan is a pure function of `(config.seed, epoch)` given the trainer
/// RNG's position, and every episode is in turn a pure function of
/// `(start offset, episode seed, policy snapshot)` — which is why a
/// distributed coordinator can ship plan fragments to rollout workers,
/// reassign them after a worker dies, or even execute them twice, without
/// changing a single bit of the training result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    /// The epoch this plan samples for.
    pub epoch: usize,
    /// Base of the per-episode seeds (episode `i` uses `base + i`).
    pub episode_seed_base: u64,
    /// Start offset of each episode's job sequence, in episode order.
    pub starts: Vec<usize>,
}

/// Everything the PPO update and epoch diagnostics need from one
/// rolled-out episode — deliberately free of simulator internals so it
/// can cross a process boundary (the distributed trajectory wire format
/// carries exactly these fields).
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeSummary {
    /// Position of this episode in the epoch batch.
    pub index: usize,
    /// The trajectory collected under the inspected policy.
    pub trajectory: Trajectory,
    /// Base-policy metric value for the episode's sequence.
    pub base_metric: f64,
    /// Inspected-run metric value.
    pub inspected_metric: f64,
    /// Scheduling points the inspector was consulted on.
    pub inspections: u64,
    /// Rejections the inspector issued.
    pub rejections: u64,
}

/// Wall-time and cache context the epoch-completion step folds into the
/// [`EpochRecord`] and the telemetry stream. Produced by whoever ran the
/// rollouts — the local parallel path or a distributed coordinator.
#[derive(Debug, Clone, Copy, Default)]
pub struct RolloutReport {
    /// Seconds spent collecting the batch.
    pub rollout_secs: f64,
    /// Seconds spent inside baseline-policy simulations (cache misses).
    pub baseline_secs: f64,
    /// Baseline-cache `(hits, base_runs)` totals when the epoch started.
    pub cache_before: (u64, u64),
}

/// Wall-time breakdown of one epoch. Carried by [`EpochRecord`] for
/// diagnostics but excluded from its `PartialEq`: two runs with identical
/// training results compare equal regardless of how fast they ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochTiming {
    /// Seconds spent rolling out the batch (includes baseline runs).
    pub rollout_secs: f64,
    /// Seconds spent inside baseline-policy simulations (cache misses).
    /// Summed across rollout workers, so it can exceed `rollout_secs`.
    pub baseline_secs: f64,
    /// Seconds spent in the PPO update.
    pub update_secs: f64,
}

/// Per-epoch training diagnostics — the data behind every training-curve
/// figure in the paper (Figs. 4–7, 9, 11, 12).
#[derive(Debug, Clone, Copy)]
pub struct EpochRecord {
    /// Epoch index (one model update each).
    pub epoch: usize,
    /// Mean terminal reward of the batch.
    pub mean_reward: f32,
    /// Mean absolute metric improvement `m_orig − m_inspect` (the y-axis of
    /// Figs. 4, 5, 7).
    pub improvement: f64,
    /// Mean relative improvement `(m_orig − m_inspect) / m_orig` (the
    /// y-axis of Figs. 9, 11, 12).
    pub improvement_pct: f64,
    /// Mean base-policy metric value over the batch.
    pub base_metric: f64,
    /// Mean inspected metric value over the batch.
    pub inspected_metric: f64,
    /// Rejections / inspections over the batch (Fig. 7's orange curves).
    pub rejection_ratio: f64,
    /// Scheduling points inspected over the batch.
    pub inspections: u64,
    /// Rejections issued over the batch.
    pub rejections: u64,
    /// Wall-time breakdown (excluded from equality).
    pub timing: EpochTiming,
    /// PPO update diagnostics.
    pub stats: UpdateStats,
}

/// Equality over training results only — `timing` is machine- and
/// load-dependent, so it must not break the determinism guarantees
/// (fixed seed ⇒ identical [`TrainingHistory`]).
impl PartialEq for EpochRecord {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.mean_reward == other.mean_reward
            && self.improvement == other.improvement
            && self.improvement_pct == other.improvement_pct
            && self.base_metric == other.base_metric
            && self.inspected_metric == other.inspected_metric
            && self.rejection_ratio == other.rejection_ratio
            && self.inspections == other.inspections
            && self.rejections == other.rejections
            && self.stats == other.stats
    }
}

/// The full training curve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    /// One record per epoch.
    pub records: Vec<EpochRecord>,
}

impl TrainingHistory {
    /// Mean absolute improvement over the last `n` epochs (convergence
    /// value reported by the paper's figures).
    pub fn converged_improvement(&self, n: usize) -> f64 {
        let tail = &self.records[self.records.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|r| r.improvement).sum::<f64>() / tail.len() as f64
    }

    /// Mean rejection ratio over the last `n` epochs.
    pub fn converged_rejection_ratio(&self, n: usize) -> f64 {
        let tail = &self.records[self.records.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|r| r.rejection_ratio).sum::<f64>() / tail.len() as f64
    }
}

/// Why a [`TrainerBuilder`] could not produce a [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The configuration failed [`InspectorConfig::validate`].
    Config(ConfigError),
    /// The trace has no jobs — nothing to sample sequences from.
    EmptyTrace {
        /// Name of the offending trace.
        trace: String,
    },
    /// A [`workload::TraceSource`] failed to load
    /// (see [`Trainer::builder_source`]).
    Source {
        /// The source's [`workload::TraceSource::id`].
        id: String,
        /// The rendered [`workload::SourceError`].
        message: String,
    },
    /// A checkpoint could not be restored into this trainer
    /// (see [`Trainer::restore`]).
    Checkpoint(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Config(e) => write!(f, "invalid training config: {e}"),
            TrainError::EmptyTrace { trace } => {
                write!(f, "trace '{trace}' has no jobs to train on")
            }
            TrainError::Source { id, message } => {
                write!(f, "cannot load trace source {id}: {message}")
            }
            TrainError::Checkpoint(msg) => write!(f, "cannot restore checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Config(e) => Some(e),
            TrainError::EmptyTrace { .. }
            | TrainError::Source { .. }
            | TrainError::Checkpoint(_) => None,
        }
    }
}

impl From<ConfigError> for TrainError {
    fn from(e: ConfigError) -> Self {
        TrainError::Config(e)
    }
}

/// Step-by-step construction of a [`Trainer`], created by
/// [`Trainer::builder`]. Validates the configuration and trace in
/// [`build`](TrainerBuilder::build) instead of panicking.
///
/// ```ignore
/// let trainer = Trainer::builder(trace)
///     .policy(PolicyKind::Sjf)
///     .config(InspectorConfig::quick())
///     .telemetry(telemetry)
///     .build()?;
/// ```
pub struct TrainerBuilder {
    trace: JobTrace,
    factory: Option<PolicyFactory>,
    config: InspectorConfig,
    telemetry: Telemetry,
}

impl TrainerBuilder {
    /// Use a stateless Table 3 base policy.
    pub fn policy(mut self, kind: policies::PolicyKind) -> Self {
        self.factory = Some(crate::env::factory_for(kind));
        self
    }

    /// Use the Slurm multifactor base policy, shares derived from the
    /// trace (§4.5).
    pub fn slurm(mut self) -> Self {
        self.factory = Some(crate::env::slurm_factory(&self.trace));
        self
    }

    /// Use a custom base-policy factory (overrides
    /// [`policy`](TrainerBuilder::policy)/[`slurm`](TrainerBuilder::slurm)).
    pub fn factory(mut self, factory: PolicyFactory) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Set the training configuration (default:
    /// [`InspectorConfig::default`]).
    pub fn config(mut self, config: InspectorConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach a telemetry handle; training emits spans, counters, and
    /// gauges through it (default: disabled, zero overhead).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Validate and build the [`Trainer`]. Without an explicit base policy
    /// the paper's FCFS baseline is used.
    pub fn build(self) -> Result<Trainer, TrainError> {
        self.config.validate()?;
        if self.trace.is_empty() {
            return Err(TrainError::EmptyTrace {
                trace: self.trace.name.clone(),
            });
        }
        let factory = self
            .factory
            .unwrap_or_else(|| crate::env::factory_for(policies::PolicyKind::Fcfs));
        Ok(Trainer::assemble(
            self.trace,
            factory,
            self.config,
            self.telemetry,
        ))
    }
}

/// Trains a [`SchedInspector`] for one (base policy, trace, metric) combo.
pub struct Trainer {
    config: InspectorConfig,
    ppo: PpoTrainer,
    features: FeatureBuilder,
    factory: PolicyFactory,
    trace: JobTrace,
    sim: Simulator,
    rng: StdRng,
    baseline: BaselineCache,
    telemetry: Telemetry,
}

impl Trainer {
    /// Start building a trainer over `trace` (typically the train split).
    pub fn builder(trace: JobTrace) -> TrainerBuilder {
        TrainerBuilder {
            trace,
            factory: None,
            config: InspectorConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Start building a trainer over the trace produced by any
    /// [`workload::TraceSource`] (SWF archive, synthetic profile,
    /// scenario-compiled). The source is loaded eagerly so ingestion
    /// failures surface here, not at `build()`.
    pub fn builder_source(
        source: &dyn workload::TraceSource,
    ) -> Result<TrainerBuilder, TrainError> {
        let trace = source.load().map_err(|e| TrainError::Source {
            id: source.id(),
            message: e.to_string(),
        })?;
        Ok(Trainer::builder(trace))
    }

    fn assemble(
        trace: JobTrace,
        factory: PolicyFactory,
        config: InspectorConfig,
        telemetry: Telemetry,
    ) -> Self {
        let stats = trace.stats();
        let norm = Normalizer {
            max_estimate: stats.max_estimate.max(1.0),
            total_procs: trace.procs,
            max_wait: 86_400.0,
            max_interval: config.sim.max_interval,
            max_rejections: config.sim.max_rejections,
        };
        let features = FeatureBuilder {
            mode: config.features,
            metric: config.metric,
            norm,
        };
        let ppo = PpoTrainer::new(features.dim(), PpoConfig::default(), config.seed);
        let sim = Simulator::new(trace.procs, config.sim);
        let rng = StdRng::seed_from_u64(config.seed ^ 0x7261_696E);
        let baseline = if config.baseline_cache {
            BaselineCache::new()
        } else {
            BaselineCache::disabled()
        };
        Trainer {
            config,
            ppo,
            features,
            factory,
            trace,
            sim,
            rng,
            baseline,
            telemetry,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &InspectorConfig {
        &self.config
    }

    /// The feature builder in use.
    pub fn features(&self) -> &FeatureBuilder {
        &self.features
    }

    /// The baseline-run cache (hit/run counters for diagnostics).
    pub fn baseline_cache(&self) -> &BaselineCache {
        &self.baseline
    }

    /// Draw the sampling plan for `epoch`, advancing the trainer RNG by
    /// exactly the draw pattern [`Trainer::restore`] replays (one bounded
    /// draw per episode, none when the trace admits a single offset).
    pub fn epoch_plan(&mut self, epoch: usize) -> EpochPlan {
        let n = self.config.batch_size;
        let max_start = self.trace.len().saturating_sub(self.config.seq_len);
        let starts: Vec<usize> = (0..n)
            .map(|_| {
                if max_start == 0 {
                    0
                } else {
                    self.rng.random_range(0..=max_start)
                }
            })
            .collect();
        EpochPlan {
            epoch,
            episode_seed_base: self
                .config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(epoch as u64),
            starts,
        }
    }

    /// Roll out the assigned `(episode index, start offset)` pairs under
    /// `policy` and summarize each episode. Results come back in
    /// assignment order; each is a pure function of its assignment, the
    /// seed base, and the policy, so any subset of a plan can run
    /// anywhere (another thread, another process, twice) and still
    /// produce identical bytes. Returns the summaries plus nanoseconds
    /// spent in baseline simulations (cache misses).
    pub fn rollout_assigned(
        &self,
        episode_seed_base: u64,
        assignments: &[(usize, usize)],
        policy: &BinaryPolicy,
    ) -> (Vec<EpisodeSummary>, u64) {
        let workers = if self.config.workers == 0 {
            default_workers(assignments.len())
        } else {
            self.config.workers
        };
        let seq_len = self.config.seq_len;
        let (sim, features, factory, trace, config, baseline, telemetry) = (
            &self.sim,
            &self.features,
            &self.factory,
            &self.trace,
            &self.config,
            &self.baseline,
            &self.telemetry,
        );
        let baseline_nanos = AtomicU64::new(0);
        let summaries = parallel_map(assignments.len(), workers, |k| {
            let (index, start) = assignments[k];
            let jobs = trace.sequence(start, seq_len);
            let base = baseline.get_or_run(start, || {
                let t0 = Instant::now();
                let mut p = factory();
                let r = sim.run(&jobs, p.as_mut());
                baseline_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                r
            });
            let e = run_episode(&EpisodeSpec {
                seed: episode_seed_base.wrapping_add(index as u64),
                base: Some(base),
                reward: config.reward,
                metric: config.metric,
                telemetry: telemetry.clone(),
                ..EpisodeSpec::new(sim, &jobs, factory, policy, features)
            });
            let m = config.metric;
            EpisodeSummary {
                index,
                base_metric: e.base.metric(m),
                inspected_metric: e.inspected.metric(m),
                inspections: e.inspected.inspections,
                rejections: e.inspected.rejections,
                trajectory: e.trajectory,
            }
        });
        (summaries, baseline_nanos.load(Ordering::Relaxed))
    }

    /// Run one epoch: collect `batch_size` trajectories in parallel and
    /// update the networks. Equivalent to [`Trainer::epoch_plan`] → local
    /// [`Trainer::rollout_assigned`] → [`Trainer::complete_epoch`]; a
    /// distributed coordinator runs the same three phases with the middle
    /// one sharded across workers, which is why its results are
    /// byte-identical to this in-process path.
    pub fn train_epoch(&mut self, epoch: usize) -> EpochRecord {
        let epoch_span = obs::span!(self.telemetry, "epoch");
        let plan = self.epoch_plan(epoch);
        let assignments: Vec<(usize, usize)> = plan.starts.iter().copied().enumerate().collect();
        let policy = self.ppo.policy.clone();
        let cache_before = (self.baseline.hits(), self.baseline.base_runs());
        let rollout_span = obs::span!(self.telemetry, "rollout");
        let rollout_start = Instant::now();
        let (summaries, baseline_nanos) =
            self.rollout_assigned(plan.episode_seed_base, &assignments, &policy);
        let rollout_secs = rollout_start.elapsed().as_secs_f64();
        drop(rollout_span);
        self.finish_epoch(
            epoch,
            summaries,
            RolloutReport {
                rollout_secs,
                baseline_secs: baseline_nanos as f64 * 1e-9,
                cache_before,
            },
            epoch_span,
            None,
        )
    }

    /// Fold a fully collected batch into the training state: run the
    /// central PPO update, emit the epoch's telemetry, and return its
    /// record. `summaries` must cover the whole plan in episode order —
    /// exactly what a distributed coordinator has after its shard ledger
    /// closes.
    pub fn complete_epoch(
        &mut self,
        epoch: usize,
        summaries: Vec<EpisodeSummary>,
        report: RolloutReport,
        epoch_span: obs::Span,
    ) -> EpochRecord {
        self.finish_epoch(epoch, summaries, report, epoch_span, None)
    }

    /// [`Trainer::complete_epoch`] for the decentralized merge path: the
    /// per-shard PPO updates already happened on the workers, so instead
    /// of running a central update this installs the `merged` replica
    /// average and records the pre-averaged `stats`.
    pub fn complete_epoch_premerged(
        &mut self,
        epoch: usize,
        summaries: Vec<EpisodeSummary>,
        merged: PpoTrainer,
        stats: UpdateStats,
        report: RolloutReport,
        epoch_span: obs::Span,
    ) -> Result<EpochRecord, TrainError> {
        if merged.policy.input_dim() != self.features.dim() {
            return Err(TrainError::Checkpoint(format!(
                "merged policy takes {} features, trainer builds {}",
                merged.policy.input_dim(),
                self.features.dim()
            )));
        }
        Ok(self.finish_epoch(epoch, summaries, report, epoch_span, Some((merged, stats))))
    }

    fn finish_epoch(
        &mut self,
        epoch: usize,
        summaries: Vec<EpisodeSummary>,
        report: RolloutReport,
        epoch_span: obs::Span,
        premerged: Option<(PpoTrainer, UpdateStats)>,
    ) -> EpochRecord {
        let n = summaries.len();
        debug_assert!(summaries.iter().enumerate().all(|(i, s)| s.index == i));
        let base_metric = summaries.iter().map(|s| s.base_metric).sum::<f64>() / n.max(1) as f64;
        let inspected_metric =
            summaries.iter().map(|s| s.inspected_metric).sum::<f64>() / n.max(1) as f64;
        let improvement_pct = summaries
            .iter()
            .map(|s| {
                if s.base_metric.abs() < 1e-12 {
                    0.0
                } else {
                    (s.base_metric - s.inspected_metric) / s.base_metric
                }
            })
            .sum::<f64>()
            / n.max(1) as f64;
        let inspections: u64 = summaries.iter().map(|s| s.inspections).sum();
        let rejections: u64 = summaries.iter().map(|s| s.rejections).sum();

        let batch = Batch {
            trajectories: summaries.into_iter().map(|s| s.trajectory).collect(),
        };
        let mean_reward = batch.mean_reward();
        let update_span = obs::span!(self.telemetry, "ppo_update");
        let update_start = Instant::now();
        let stats = match premerged {
            None => self.ppo.update_traced(&batch, &self.telemetry),
            Some((merged, stats)) => {
                self.ppo = merged;
                stats
            }
        };
        let update_secs = update_start.elapsed().as_secs_f64();
        drop(update_span);

        let rejection_ratio = if inspections == 0 {
            0.0
        } else {
            rejections as f64 / inspections as f64
        };
        if self.telemetry.is_enabled() {
            let (hits0, runs0) = report.cache_before;
            self.telemetry.count("train.episodes", n as u64);
            self.telemetry.count("train.inspections", inspections);
            self.telemetry.count("train.rejections", rejections);
            let (hits, runs) = (self.baseline.hits(), self.baseline.base_runs());
            self.telemetry.count("baseline.hits", hits - hits0);
            self.telemetry.count("baseline.runs", runs - runs0);
            let lookups = self.baseline.lookups();
            if lookups > 0 {
                self.telemetry
                    .gauge("baseline.hit_rate", hits as f64 / lookups as f64);
            }
            self.telemetry
                .gauge("epoch.mean_reward", mean_reward as f64);
            self.telemetry
                .gauge("epoch.improvement_pct", improvement_pct);
            self.telemetry
                .gauge("epoch.rejection_ratio", rejection_ratio);
            if report.rollout_secs > 0.0 {
                self.telemetry.gauge(
                    "rollout.points_per_sec",
                    inspections as f64 / report.rollout_secs,
                );
            }
            let epoch_secs = epoch_span.elapsed();
            if epoch_secs > 0.0 {
                self.telemetry
                    .heartbeat("train", epoch as u64, n as f64 / epoch_secs);
            }
        }

        EpochRecord {
            epoch,
            mean_reward,
            improvement: base_metric - inspected_metric,
            improvement_pct,
            base_metric,
            inspected_metric,
            rejection_ratio,
            inspections,
            rejections,
            timing: EpochTiming {
                rollout_secs: report.rollout_secs,
                baseline_secs: report.baseline_secs,
                update_secs,
            },
            stats,
        }
    }

    /// Train for `config.epochs` epochs, returning the training curve.
    pub fn train(&mut self) -> TrainingHistory {
        let mut history = TrainingHistory::default();
        for epoch in 0..self.config.epochs {
            history.records.push(self.train_epoch(epoch));
        }
        history
    }

    /// Snapshot the complete evolving trainer state after `epochs_done`
    /// fully completed epochs, as exact-roundtrip text (see
    /// [`Checkpoint`](crate::checkpoint::Checkpoint)).
    pub fn checkpoint_text(&self, epochs_done: usize) -> String {
        crate::checkpoint::Checkpoint::from_ppo(&self.ppo, epochs_done, self.config.seed).to_text()
    }

    /// Restore a checkpoint produced by
    /// [`checkpoint_text`](Trainer::checkpoint_text) on an equivalently
    /// built trainer (same trace, config, and base policy). Returns the
    /// epoch index to continue from. After this, training epochs
    /// `epochs_done..` produces results bit-identical to a run that was
    /// never interrupted.
    pub fn restore(&mut self, text: &str) -> Result<usize, TrainError> {
        let ck = crate::checkpoint::Checkpoint::from_text(text)
            .map_err(|e| TrainError::Checkpoint(e.to_string()))?;
        let epochs_done = ck.epochs_done;
        self.install_checkpoint(ck)?;
        // The trainer RNG has no serializable state; replay the exact
        // draw pattern of the completed epochs instead. Each epoch draws
        // `batch_size` start offsets, unless the trace admits only one
        // (max_start == 0), in which case `epoch_plan` draws nothing.
        self.rng = StdRng::seed_from_u64(self.config.seed ^ 0x7261_696E);
        let max_start = self.trace.len().saturating_sub(self.config.seq_len);
        if max_start > 0 {
            for _ in 0..epochs_done {
                for _ in 0..self.config.batch_size {
                    let _ = self.rng.random_range(0..=max_start);
                }
            }
        }
        Ok(epochs_done)
    }

    /// Swap a parsed checkpoint's networks and optimizer state into this
    /// trainer *without* touching the start-offset RNG. [`Trainer::restore`]
    /// is this plus the RNG replay; a distributed worker installing the
    /// coordinator's epoch snapshot uses this alone, because the
    /// coordinator owns the plan.
    pub fn install_checkpoint(
        &mut self,
        ck: crate::checkpoint::Checkpoint,
    ) -> Result<(), TrainError> {
        if ck.policy.input_dim() != self.features.dim() {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint policy takes {} features, trainer builds {}",
                ck.policy.input_dim(),
                self.features.dim()
            )));
        }
        self.ppo = ck
            .into_ppo(self.config.seed)
            .map_err(TrainError::Checkpoint)?;
        Ok(())
    }

    /// The live PPO state (networks + optimizers).
    pub fn ppo(&self) -> &PpoTrainer {
        &self.ppo
    }

    /// Mutable access to the live PPO state — the hook a distributed
    /// worker uses to run its local (decentralized-merge) update.
    pub fn ppo_mut(&mut self) -> &mut PpoTrainer {
        &mut self.ppo
    }

    /// The training trace this trainer samples from.
    pub fn trace(&self) -> &JobTrace {
        &self.trace
    }

    /// Digest of everything an episode is a function of besides `(start,
    /// episode seed, policy snapshot)`: the trace's jobs and machine size,
    /// `seq_len`, metric, reward, feature mode and simulator settings. A
    /// base-policy factory is an opaque closure, so it enters by what it
    /// *does* — the bits of the base run's metric on the first sequence.
    /// Two trainers with equal digests (and seeds) roll out identical
    /// episodes; `dist` compares it at the `hello` handshake.
    pub fn world_digest(&self) -> u64 {
        let c = &self.config;
        let mut h = 0u64;
        let mut fold = |x: u64| h = obs::trace::splitmix64(h ^ x);
        for j in &self.trace.jobs {
            let floats = [j.submit, j.runtime, j.estimate].map(f64::to_bits);
            let ints = [j.id, j.procs.into(), j.user.into(), j.queue.into()];
            floats.into_iter().chain(ints).for_each(&mut fold);
        }
        let jobs = self.trace.sequence(0, c.seq_len);
        let base = self.sim.run(&jobs, (self.factory)().as_mut());
        for x in [
            self.trace.procs.into(),
            c.seq_len as u64,
            c.metric as u64,
            c.reward as u64,
            c.features as u64,
            c.sim.backfill.into(),
            c.sim.max_interval.to_bits(),
            c.sim.max_rejections.into(),
            base.metric(c.metric).to_bits(),
        ] {
            fold(x);
        }
        h
    }

    /// Snapshot the current policy as a deployable inspector.
    pub fn inspector(&self) -> SchedInspector {
        SchedInspector::new(self.ppo.policy.clone(), self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policies::PolicyKind;
    use workload::Job;

    fn tiny_trace() -> JobTrace {
        // A congested 8-proc machine with a mix of long-wide and short jobs:
        // enough structure for the inspector to find rejection opportunities.
        let mut jobs = Vec::new();
        for i in 0..400u64 {
            let (rt, procs) = match i % 5 {
                0 => (2400.0, 6),
                1 => (300.0, 2),
                2 => (600.0, 1),
                3 => (3000.0, 4),
                _ => (120.0, 1),
            };
            jobs.push(Job::new(i + 1, i as f64 * 150.0, rt, rt * 1.5, procs));
        }
        JobTrace::new("tiny", 8, jobs).unwrap()
    }

    #[test]
    fn one_epoch_produces_finite_record() {
        let config = InspectorConfig {
            batch_size: 6,
            seq_len: 24,
            epochs: 1,
            seed: 3,
            workers: 2,
            ..Default::default()
        };
        let mut t = Trainer::builder(tiny_trace())
            .policy(PolicyKind::Sjf)
            .config(config)
            .build()
            .unwrap();
        let rec = t.train_epoch(0);
        assert!(rec.base_metric.is_finite());
        assert!(rec.inspected_metric.is_finite());
        assert!(rec.mean_reward.is_finite());
        assert!((0.0..=1.0).contains(&rec.rejection_ratio));
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed_and_workers() {
        let config = InspectorConfig {
            batch_size: 4,
            seq_len: 16,
            epochs: 2,
            seed: 9,
            workers: 2,
            ..Default::default()
        };
        let run = || {
            let mut t = Trainer::builder(tiny_trace())
                .policy(PolicyKind::Sjf)
                .config(config)
                .build()
                .unwrap();
            t.train()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mk = |workers| InspectorConfig {
            batch_size: 4,
            seq_len: 16,
            epochs: 1,
            seed: 5,
            workers,
            ..Default::default()
        };
        let run = |workers| {
            let mut t = Trainer::builder(tiny_trace())
                .policy(PolicyKind::Sjf)
                .config(mk(workers))
                .build()
                .unwrap();
            t.train_epoch(0)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn cached_and_uncached_training_are_bit_identical() {
        let mk = |baseline_cache| InspectorConfig {
            batch_size: 6,
            seq_len: 16,
            epochs: 3,
            seed: 11,
            workers: 2,
            baseline_cache,
            ..Default::default()
        };
        let run = |baseline_cache| {
            let mut t = Trainer::builder(tiny_trace())
                .policy(PolicyKind::Sjf)
                .config(mk(baseline_cache))
                .build()
                .unwrap();
            (t.train(), t.baseline_cache().base_runs())
        };
        let (cached, cached_runs) = run(true);
        let (uncached, uncached_runs) = run(false);
        assert_eq!(cached, uncached);
        // The bypass path really re-simulated every episode's baseline.
        assert_eq!(uncached_runs, 6 * 3);
        assert!(cached_runs <= uncached_runs);
    }

    #[test]
    fn base_runs_match_distinct_start_offsets() {
        // seq_len == trace length - small max_start forces heavy offset reuse.
        let config = InspectorConfig {
            batch_size: 12,
            seq_len: 395,
            epochs: 2,
            seed: 2,
            workers: 3,
            ..Default::default()
        };
        let mut t = Trainer::builder(tiny_trace())
            .policy(PolicyKind::Sjf)
            .config(config)
            .build()
            .unwrap();
        t.train();
        let cache = t.baseline_cache();
        // max_start = 400 - 395 = 5, so at most 6 distinct offsets exist.
        assert!(cache.base_runs() <= 6, "base runs: {}", cache.base_runs());
        assert_eq!(cache.base_runs() as usize, cache.len());
        assert_eq!(cache.lookups(), 12 * 2);
        assert_eq!(cache.hits(), cache.lookups() - cache.base_runs());
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        let config = InspectorConfig {
            batch_size: 4,
            seq_len: 16,
            epochs: 5,
            seed: 17,
            workers: 2,
            ..Default::default()
        };
        let build = || {
            Trainer::builder(tiny_trace())
                .policy(PolicyKind::Sjf)
                .config(config)
                .build()
                .unwrap()
        };
        // Uninterrupted reference run, checkpointing each epoch.
        let mut reference = build();
        let mut ref_records = Vec::new();
        for epoch in 0..config.epochs {
            ref_records.push(reference.train_epoch(epoch));
        }
        let final_ck = reference.checkpoint_text(config.epochs);

        // Kill after 3 epochs, resume in a fresh trainer from the
        // checkpoint text alone.
        for kill_at in [1usize, 3] {
            let mut first = build();
            for epoch in 0..kill_at {
                first.train_epoch(epoch);
            }
            let ck = first.checkpoint_text(kill_at);
            drop(first);

            let mut resumed = build();
            let next = resumed.restore(&ck).unwrap();
            assert_eq!(next, kill_at);
            for (epoch, want) in ref_records.iter().enumerate().skip(kill_at) {
                let got = resumed.train_epoch(epoch);
                assert_eq!(
                    &got, want,
                    "epoch {epoch} diverged after resume at {kill_at}"
                );
            }
            assert_eq!(
                resumed.checkpoint_text(config.epochs),
                final_ck,
                "final checkpoint must be byte-identical (resume at {kill_at})"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_checkpoints() {
        let config = InspectorConfig {
            batch_size: 4,
            seq_len: 16,
            epochs: 1,
            seed: 23,
            workers: 1,
            ..Default::default()
        };
        let mut t = Trainer::builder(tiny_trace())
            .policy(PolicyKind::Sjf)
            .config(config)
            .build()
            .unwrap();
        assert!(matches!(
            t.restore("not a checkpoint"),
            Err(TrainError::Checkpoint(_))
        ));
        // Seed mismatch.
        let other = InspectorConfig { seed: 24, ..config };
        let wrong_seed = Trainer::builder(tiny_trace())
            .policy(PolicyKind::Sjf)
            .config(other)
            .build()
            .unwrap()
            .checkpoint_text(0);
        let err = t.restore(&wrong_seed).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn inspector_snapshot_matches_feature_dim() {
        let config = InspectorConfig::quick();
        let t = Trainer::builder(tiny_trace())
            .policy(PolicyKind::Sjf)
            .config(config)
            .build()
            .unwrap();
        let insp = t.inspector();
        assert_eq!(insp.policy.input_dim(), t.features().dim());
    }

    #[test]
    fn builder_rejects_invalid_config_and_empty_trace() {
        let bad = InspectorConfig {
            batch_size: 0,
            ..InspectorConfig::quick()
        };
        let err = Trainer::builder(tiny_trace())
            .policy(PolicyKind::Sjf)
            .config(bad)
            .build()
            .err()
            .unwrap();
        assert_eq!(err, TrainError::Config(ConfigError::ZeroBatchSize));
        assert!(err.to_string().contains("batch_size"));

        let empty = JobTrace::new("empty", 8, Vec::new()).unwrap();
        let err = Trainer::builder(empty)
            .policy(PolicyKind::Sjf)
            .config(InspectorConfig::quick())
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, TrainError::EmptyTrace { .. }));
        assert!(err.to_string().contains("empty"));
    }

    /// One training epoch must emit the documented event set, with spans
    /// paired, timestamps monotonic (single worker), and counter totals
    /// reconciling exactly with the returned [`EpochRecord`].
    #[test]
    fn one_epoch_emits_a_reconcilable_event_stream() {
        let config = InspectorConfig {
            batch_size: 5,
            seq_len: 24,
            epochs: 1,
            seed: 13,
            workers: 1, // multi-worker recording may interleave timestamps
            ..Default::default()
        };
        let (telemetry, sink) = obs::Telemetry::in_memory();
        let mut t = Trainer::builder(tiny_trace())
            .policy(PolicyKind::Sjf)
            .config(config)
            .telemetry(telemetry)
            .build()
            .unwrap();
        let rec = t.train_epoch(0);

        let pairs = sink.check_span_pairing().expect("spans must pair");
        assert_eq!(pairs.get("epoch"), Some(&1));
        assert_eq!(pairs.get("rollout"), Some(&1));
        assert_eq!(pairs.get("ppo_update"), Some(&1));
        sink.check_monotonic_timestamps().expect("monotonic");

        assert_eq!(sink.counter_total("train.episodes"), 5);
        assert_eq!(sink.counter_total("train.inspections"), rec.inspections);
        assert_eq!(sink.counter_total("train.rejections"), rec.rejections);
        let decisions = sink.counter_total("sim.accept") + sink.counter_total("sim.reject");
        assert_eq!(decisions, rec.inspections);
        assert_eq!(sink.counter_total("sim.reject"), rec.rejections);
        assert_eq!(
            sink.counter_total("baseline.hits") + sink.counter_total("baseline.runs"),
            t.baseline_cache().lookups()
        );

        assert_eq!(
            sink.gauge_values("epoch.mean_reward"),
            vec![rec.mean_reward as f64]
        );
        assert_eq!(
            sink.gauge_values("epoch.rejection_ratio"),
            vec![rec.rejection_ratio]
        );
        // Exactly one liveness heartbeat per epoch, with a plausible rate.
        let heartbeats: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                obs::Event::Heartbeat {
                    name, epoch, eps, ..
                } => Some((name, epoch, eps)),
                _ => None,
            })
            .collect();
        assert_eq!(heartbeats.len(), 1);
        assert_eq!(heartbeats[0].0, "train");
        assert_eq!(heartbeats[0].1, 0);
        assert!(heartbeats[0].2 > 0.0);

        // The epoch span covers the whole call, so its duration bounds the
        // per-stage wall times recorded in the EpochRecord.
        let epoch_dur = sink.span_durations("epoch")[0];
        assert!(rec.timing.rollout_secs <= epoch_dur);
        assert!(rec.timing.update_secs <= epoch_dur);
        assert!(rec.timing.rollout_secs >= 0.0 && rec.timing.baseline_secs >= 0.0);
    }

    #[test]
    fn telemetry_does_not_change_training_results() {
        let config = InspectorConfig {
            batch_size: 4,
            seq_len: 16,
            epochs: 2,
            seed: 21,
            workers: 2,
            ..Default::default()
        };
        let run = |telemetry| {
            let mut t = Trainer::builder(tiny_trace())
                .policy(PolicyKind::Sjf)
                .config(config)
                .telemetry(telemetry)
                .build()
                .unwrap();
            t.train()
        };
        let silent = run(Telemetry::disabled());
        let (telemetry, _sink) = obs::Telemetry::in_memory();
        let traced = run(telemetry);
        assert_eq!(silent, traced);
    }
}
