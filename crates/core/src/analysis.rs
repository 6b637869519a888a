//! Analysis of what the inspector learned (§5 / Fig. 13): record every
//! inspection decision with its input features and compare the feature
//! CDFs of rejected samples against all samples.

use rlcore::REJECT;
use simhpc::{InspectorHook, Observation, Simulator};
use workload::Job;

use crate::agent::SchedInspector;
use crate::env::PolicyFactory;

/// One recorded inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSample {
    /// Normalized feature vector observed.
    pub features: Vec<f32>,
    /// Whether the inspector rejected.
    pub rejected: bool,
}

/// Human-readable names of the manual features, in vector order (used to
/// label the Fig. 13 panels).
pub const MANUAL_FEATURE_NAMES: [&str; 8] = [
    "waiting_time",
    "job_execution_time",
    "requested_nodes",
    "rejected_times",
    "queue_delays",
    "free_nodes",
    "runnable",
    "backfillable",
];

/// Recording hook: delegates to the inspector and stores every decision.
struct RecordingHook<'a> {
    agent: &'a SchedInspector,
    buf: Vec<f32>,
    samples: &'a mut Vec<DecisionSample>,
}

impl InspectorHook for RecordingHook<'_> {
    fn inspect(&mut self, obs: &Observation) -> bool {
        self.agent.features.build(obs, &mut self.buf);
        let rejected = self.agent.policy.greedy(&self.buf) == REJECT;
        self.samples.push(DecisionSample {
            features: self.buf.clone(),
            rejected,
        });
        rejected
    }
}

/// Schedule `jobs` with the trained inspector, recording every inspection
/// decision (the paper schedules the whole trace start to finish).
pub fn collect_decisions(
    inspector: &SchedInspector,
    sim: &Simulator,
    jobs: &[Job],
    factory: &PolicyFactory,
) -> Vec<DecisionSample> {
    let mut samples = Vec::new();
    let mut policy = factory();
    let mut hook = RecordingHook {
        agent: inspector,
        buf: Vec::new(),
        samples: &mut samples,
    };
    let _ = sim.run_inspected(jobs, policy.as_mut(), &mut hook);
    samples
}

/// Empirical CDF of feature `idx` evaluated at `points` evenly spaced
/// x-values over `[0, 1]` (features are normalized). When `rejected_only`,
/// only rejected samples contribute (the red curves of Fig. 13).
pub fn feature_cdf(
    samples: &[DecisionSample],
    idx: usize,
    points: usize,
    rejected_only: bool,
) -> Vec<(f32, f32)> {
    let mut values: Vec<f32> = samples
        .iter()
        .filter(|s| !rejected_only || s.rejected)
        .map(|s| s.features[idx])
        .collect();
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    (0..points)
        .map(|i| {
            let x = i as f32 / (points - 1).max(1) as f32;
            if n == 0 {
                return (x, 0.0);
            }
            let count = values.partition_point(|&v| v <= x);
            (x, count as f32 / n as f32)
        })
        .collect()
}

/// Fraction of samples that were rejected (the paper observed ≈30% for
/// [SJF, bsld, SDSC-SP2]).
pub fn rejection_fraction(samples: &[DecisionSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.rejected).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::factory_for;
    use crate::features::{FeatureBuilder, FeatureMode, Normalizer};
    use policies::PolicyKind;
    use rlcore::BinaryPolicy;
    use simhpc::{Metric, SimConfig};

    fn sample(f: f32, rejected: bool) -> DecisionSample {
        DecisionSample {
            features: vec![f],
            rejected,
        }
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let samples: Vec<_> = (0..100)
            .map(|i| sample(i as f32 / 100.0, i % 3 == 0))
            .collect();
        let cdf = feature_cdf(&samples, 0, 21, false);
        assert_eq!(cdf.len(), 21);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejected_cdf_filters() {
        let samples = vec![sample(0.1, true), sample(0.9, false)];
        let all = feature_cdf(&samples, 0, 11, false);
        let rej = feature_cdf(&samples, 0, 11, true);
        // At x = 0.5 all-samples CDF is 0.5 but rejected-only is 1.0.
        assert!((all[5].1 - 0.5).abs() < 1e-6);
        assert!((rej[5].1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_samples_yield_zero_cdf() {
        let cdf = feature_cdf(&[], 0, 5, false);
        assert!(cdf.iter().all(|&(_, y)| y == 0.0));
        assert_eq!(rejection_fraction(&[]), 0.0);
    }

    #[test]
    fn collect_records_every_inspection() {
        let fb = FeatureBuilder {
            mode: FeatureMode::Manual,
            metric: Metric::Bsld,
            norm: Normalizer::new(8, 1000.0),
        };
        let inspector = SchedInspector::new(BinaryPolicy::new(fb.dim(), 1), fb);
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i + 1, i as f64 * 50.0, 100.0, 150.0, 1 + (i % 3) as u32))
            .collect();
        let sim = Simulator::new(8, SimConfig::default());
        let factory = factory_for(PolicyKind::Sjf);
        let samples = collect_decisions(&inspector, &sim, &jobs, &factory);
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| s.features.len() == 8));
        let frac = rejection_fraction(&samples);
        assert!((0.0..=1.0).contains(&frac));
    }
}
