//! Evaluation on held-out job sequences (§4.4: 50 random 256-job sequences
//! from the testing dataset, scheduled by the base policy and its
//! inspector-enabled counterpart).

use rlcore::parallel_map;
use simhpc::{Metric, SimConfig, SimResult, Simulator};
use workload::{JobTrace, SequenceSampler};

use crate::agent::SchedInspector;
use crate::baseline::BaselineCache;
use crate::env::PolicyFactory;

/// One evaluated sequence: base vs. inspected.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCase {
    /// Start index of the sequence in the test trace.
    pub start: usize,
    /// Base-policy result.
    pub base: SimResult,
    /// Inspector-enabled result.
    pub inspected: SimResult,
}

/// Results over all evaluated sequences.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalReport {
    /// Per-sequence outcomes.
    pub cases: Vec<EvalCase>,
}

impl EvalReport {
    /// Mean base-policy value of `metric`.
    pub fn mean_base(&self, metric: Metric) -> f64 {
        mean(self.cases.iter().map(|c| c.base.metric(metric)))
    }

    /// Mean inspected value of `metric`.
    pub fn mean_inspected(&self, metric: Metric) -> f64 {
        mean(self.cases.iter().map(|c| c.inspected.metric(metric)))
    }

    /// Relative improvement of the mean: `(base − inspected) / base`.
    pub fn improvement_pct(&self, metric: Metric) -> f64 {
        let b = self.mean_base(metric);
        if b.abs() < 1e-12 {
            0.0
        } else {
            (b - self.mean_inspected(metric)) / b
        }
    }

    /// Mean system utilization of the base runs.
    pub fn mean_base_util(&self) -> f64 {
        mean(self.cases.iter().map(|c| c.base.util()))
    }

    /// Mean system utilization of the inspected runs.
    pub fn mean_inspected_util(&self) -> f64 {
        mean(self.cases.iter().map(|c| c.inspected.util()))
    }

    /// Per-sequence values of `metric` (base, inspected) — the dots of the
    /// paper's box-and-whisker plots (Figs. 8, 10).
    pub fn series(&self, metric: Metric) -> Vec<(f64, f64)> {
        self.cases
            .iter()
            .map(|c| (c.base.metric(metric), c.inspected.metric(metric)))
            .collect()
    }

    /// Overall rejection ratio across inspected runs.
    pub fn rejection_ratio(&self) -> f64 {
        let (r, i) = self.cases.iter().fold((0u64, 0u64), |(r, i), c| {
            (r + c.inspected.rejections, i + c.inspected.inspections)
        });
        if i == 0 {
            0.0
        } else {
            r as f64 / i as f64
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Evaluate a trained inspector on `n_seqs` random sequences of `seq_len`
/// jobs sampled from `trace` (use the test split).
///
/// Inference is *stochastic with a per-sequence seed* — §4 states that at
/// inference time "SchedInspector acts similarly as it does in the
/// training process", and sampled actions are far more robust than
/// thresholded (greedy) ones, which amplify marginal preferences into
/// rejection cascades. Results are still fully deterministic for a fixed
/// `seed`.
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    inspector: &SchedInspector,
    trace: &JobTrace,
    factory: &PolicyFactory,
    sim_config: SimConfig,
    n_seqs: usize,
    seq_len: usize,
    seed: u64,
    workers: usize,
) -> EvalReport {
    let sim = Simulator::new(trace.procs, sim_config);
    let mut sampler = SequenceSampler::new(trace.clone(), seq_len, seed);
    let sequences = sampler.sample_many(n_seqs);
    let workers = if workers == 0 {
        rlcore::default_workers(n_seqs)
    } else {
        workers
    };
    let baseline = BaselineCache::new();
    let cases = parallel_map(n_seqs, workers, |i| {
        let (start, jobs) = &sequences[i];
        let base = baseline.get_or_run(*start, || {
            let mut p = factory();
            sim.run(jobs, p.as_mut())
        });
        let episode = crate::env::run_episode(&crate::env::EpisodeSpec {
            seed: seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            base: Some(base),
            ..crate::env::EpisodeSpec::new(
                &sim,
                jobs,
                factory,
                &inspector.policy,
                &inspector.features,
            )
        });
        EvalCase {
            start: *start,
            base: (*episode.base).clone(),
            inspected: episode.inspected,
        }
    });
    EvalReport { cases }
}

/// Evaluate the base policy against itself (sanity harness for experiments
/// that need base-only numbers).
pub fn evaluate_base(
    trace: &JobTrace,
    factory: &PolicyFactory,
    sim_config: SimConfig,
    n_seqs: usize,
    seq_len: usize,
    seed: u64,
) -> Vec<SimResult> {
    let sim = Simulator::new(trace.procs, sim_config);
    let mut sampler = SequenceSampler::new(trace.clone(), seq_len, seed);
    sampler
        .sample_many(n_seqs)
        .into_iter()
        .map(|(_, jobs)| {
            let mut p = factory();
            sim.run(&jobs, p.as_mut())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::factory_for;
    use crate::features::{FeatureBuilder, FeatureMode, Normalizer};
    use policies::PolicyKind;
    use rlcore::BinaryPolicy;
    use workload::Job;

    fn trace() -> JobTrace {
        let jobs = (0..300u64)
            .map(|i| {
                Job::new(
                    i + 1,
                    i as f64 * 100.0,
                    200.0 + (i % 7) as f64 * 400.0,
                    400.0 + (i % 7) as f64 * 600.0,
                    1 + (i % 4) as u32,
                )
            })
            .collect();
        JobTrace::new("eval", 8, jobs).unwrap()
    }

    fn inspector() -> SchedInspector {
        let fb = FeatureBuilder {
            mode: FeatureMode::Manual,
            metric: Metric::Bsld,
            norm: Normalizer::new(8, 5000.0),
        };
        SchedInspector::new(BinaryPolicy::new(fb.dim(), 7), fb)
    }

    #[test]
    fn report_has_requested_cases() {
        let rep = evaluate(
            &inspector(),
            &trace(),
            &factory_for(PolicyKind::Sjf),
            SimConfig::default(),
            8,
            32,
            1,
            2,
        );
        assert_eq!(rep.cases.len(), 8);
        assert!(rep.mean_base(Metric::Bsld) >= 1.0);
        assert!(rep.mean_inspected(Metric::Bsld) >= 1.0);
        assert!(rep.mean_base_util() > 0.0 && rep.mean_base_util() <= 1.0);
        assert_eq!(rep.series(Metric::Bsld).len(), 8);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let run = || {
            evaluate(
                &inspector(),
                &trace(),
                &factory_for(PolicyKind::Sjf),
                SimConfig::default(),
                5,
                32,
                42,
                3,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_report_means_are_zero() {
        let rep = EvalReport::default();
        assert_eq!(rep.mean_base(Metric::Bsld), 0.0);
        assert_eq!(rep.improvement_pct(Metric::Bsld), 0.0);
        assert_eq!(rep.rejection_ratio(), 0.0);
    }

    #[test]
    fn evaluate_base_matches_eval_base_side() {
        let factory = factory_for(PolicyKind::Sjf);
        let rep = evaluate(
            &inspector(),
            &trace(),
            &factory,
            SimConfig::default(),
            4,
            32,
            7,
            1,
        );
        let base = evaluate_base(&trace(), &factory, SimConfig::default(), 4, 32, 7);
        for (c, b) in rep.cases.iter().zip(&base) {
            assert_eq!(&c.base, b);
        }
    }
}
