//! Training/evaluation drivers shared by the experiments.

use inspector::{
    evaluate, factory_for, slurm_factory, EvalReport, FeatureMode, InspectorConfig, PolicyFactory,
    RewardKind, SchedInspector, Trainer, TrainingHistory,
};
use obs::Telemetry;
use policies::PolicyKind;
use simhpc::{Metric, SimConfig};
use workload::JobTrace;

use crate::load_trace;
use crate::scale::Scale;

/// One (trace, policy, metric, ...) training combination.
#[derive(Debug, Clone, PartialEq)]
pub struct ComboSpec {
    /// Trace name (Table 2).
    pub trace: String,
    /// Base policy; `None` selects the Slurm multifactor policy (§4.5).
    pub policy: Option<PolicyKind>,
    /// Optimized metric.
    pub metric: Metric,
    /// Reward function.
    pub reward: RewardKind,
    /// Feature-building mechanism.
    pub features: FeatureMode,
    /// Simulator settings: EASY backfilling and the two §4.1 inspection
    /// knobs.
    pub sim: SimConfig,
}

impl ComboSpec {
    /// The paper's default combination for a (trace, policy) pair.
    pub fn new(trace: &str, policy: PolicyKind) -> Self {
        ComboSpec {
            trace: trace.into(),
            policy: Some(policy),
            metric: Metric::Bsld,
            reward: RewardKind::Percentage,
            features: FeatureMode::Manual,
            sim: SimConfig::default(),
        }
    }

    /// Human-readable name of the base policy.
    pub fn policy_name(&self) -> &str {
        match self.policy {
            Some(k) => k.name(),
            None => "Slurm",
        }
    }
}

impl std::fmt::Display for ComboSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (policy, metric, reward) = (self.policy_name(), self.metric.name(), self.reward.name());
        let (trace, features) = (&self.trace, self.features);
        write!(
            f,
            "{policy} on {trace}, {metric}, {reward} reward, {features:?} features"
        )?;
        if self.sim != SimConfig::default() {
            write!(f, ", {:?}", self.sim)?;
        }
        Ok(())
    }
}

/// Everything produced by training one combination.
pub struct TrainOutcome {
    /// Per-epoch training curve.
    pub history: TrainingHistory,
    /// The trained inspector.
    pub inspector: SchedInspector,
    /// Base-policy factory used for training (reuse it for evaluation).
    pub factory: PolicyFactory,
    /// Train split (first 20%).
    pub train: JobTrace,
    /// Test split (remaining 80%).
    pub test: JobTrace,
    /// Simulator configuration used.
    pub sim: SimConfig,
}

impl TrainOutcome {
    /// Evaluate the trained inspector on the held-out split at this scale.
    pub fn evaluate(&self, scale: &Scale, seed: u64) -> EvalReport {
        self.evaluate_on(&self.inspector, &self.test, scale, seed)
    }

    /// Evaluate `inspector` on sequences drawn from `test`, under this
    /// combination's base policy and simulator settings — a transferred
    /// model (Table 4) or a load-scaled split.
    pub fn evaluate_on(
        &self,
        inspector: &SchedInspector,
        test: &JobTrace,
        scale: &Scale,
        seed: u64,
    ) -> EvalReport {
        evaluate(
            inspector,
            test,
            &self.factory,
            self.sim,
            scale.eval_seqs,
            scale.eval_len,
            seed,
            0,
        )
    }
}

/// Mean relative improvement over the last five epochs: the convergence
/// value of Figs. 9, 11 and 12, beside `TrainingHistory`'s absolute one.
pub(crate) fn converged_pct(history: &TrainingHistory) -> f64 {
    let recs = &history.records;
    let tail = &recs[recs.len().saturating_sub(5)..];
    tail.iter().map(|r| r.improvement_pct).sum::<f64>() / tail.len().max(1) as f64
}

/// Train one combination at the given scale (the workhorse of Figs. 4–12),
/// streaming training telemetry through `telemetry` — [`Ctx`](crate::Ctx)
/// passes the sidecar handle from [`telemetry_for`](crate::telemetry_for).
pub fn train_combo(
    spec: &ComboSpec,
    scale: &Scale,
    seed: u64,
    telemetry: &Telemetry,
) -> TrainOutcome {
    let trace = load_trace(&spec.trace, scale, seed);
    let (train, test) = trace.split(0.2);
    let factory: PolicyFactory = match spec.policy {
        Some(kind) => factory_for(kind),
        None => slurm_factory(&trace),
    };
    let sim = spec.sim;
    let config = InspectorConfig {
        metric: spec.metric,
        features: spec.features,
        reward: spec.reward,
        sim,
        batch_size: scale.batch,
        seq_len: scale.seq_len,
        epochs: scale.epochs,
        seed,
        workers: 0,
        baseline_cache: true,
    };
    let mut trainer = Trainer::builder(train.clone())
        .factory(factory.clone())
        .config(config)
        .telemetry(telemetry.clone())
        .build()
        .expect("experiment configs are valid");
    let history = trainer.train();
    telemetry.flush();
    TrainOutcome {
        history,
        inspector: trainer.inspector(),
        factory,
        train,
        test,
        sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_combo_trains_and_evaluates() {
        let mut scale = Scale::quick();
        scale.epochs = 2;
        scale.batch = 4;
        scale.trace_jobs = 1_200;
        scale.eval_seqs = 3;
        scale.eval_len = 48;
        let spec = ComboSpec::new("SDSC-SP2", PolicyKind::Sjf);
        let out = train_combo(&spec, &scale, 7, &Telemetry::disabled());
        assert_eq!(out.history.records.len(), 2);
        let rep = out.evaluate(&scale, 1);
        assert_eq!(rep.cases.len(), 3);
        assert!(rep.mean_base(Metric::Bsld).is_finite());
    }

    #[test]
    fn combo_spec_names() {
        let s = ComboSpec::new("Lublin", PolicyKind::F1);
        assert_eq!(s.policy_name(), "F1");
        let slurm = ComboSpec { policy: None, ..s };
        assert_eq!(slurm.policy_name(), "Slurm");
    }
}
