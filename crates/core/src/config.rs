//! Top-level SchedInspector configuration.

use simhpc::{Metric, SimConfig};

use crate::features::FeatureMode;
use crate::reward::RewardKind;

/// Everything that defines a SchedInspector training run.
///
/// Defaults are the paper's (§4.1): percentage reward, manually built
/// features, batches of 100 trajectories of 128 sequential jobs, PPO at
/// lr 1e-3, `MAX_INTERVAL` 600 s, `MAX_REJECTION_TIMES` 72.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InspectorConfig {
    /// The job-execution metric being optimized.
    pub metric: Metric,
    /// Feature-building mechanism (§3.3 / Fig. 5 ablation).
    pub features: FeatureMode,
    /// Reward function (§3.4 / Fig. 6 ablation).
    pub reward: RewardKind,
    /// Simulator settings (backfilling, MAX_INTERVAL, MAX_REJECTION_TIMES).
    pub sim: SimConfig,
    /// Trajectories per model update.
    pub batch_size: usize,
    /// Sequential jobs per training trajectory.
    pub seq_len: usize,
    /// Training epochs (model updates).
    pub epochs: usize,
    /// Base RNG seed (episodes derive sub-seeds deterministically).
    pub seed: u64,
    /// Rollout worker threads (0 = number of cores).
    pub workers: usize,
    /// Memoize base-policy runs by sequence start offset (see
    /// [`BaselineCache`](crate::BaselineCache)). Baseline results are exact
    /// either way — disabling only costs redundant simulation; the switch
    /// exists for equivalence testing and benchmarking.
    pub baseline_cache: bool,
}

impl Default for InspectorConfig {
    fn default() -> Self {
        InspectorConfig {
            metric: Metric::Bsld,
            features: FeatureMode::Manual,
            reward: RewardKind::Percentage,
            sim: SimConfig::default(),
            batch_size: 100,
            seq_len: 128,
            epochs: 50,
            seed: 0,
            workers: 0,
            baseline_cache: true,
        }
    }
}

impl InspectorConfig {
    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        InspectorConfig {
            batch_size: 16,
            seq_len: 48,
            epochs: 8,
            ..Default::default()
        }
    }

    /// Check that the configuration can drive a training run. Called by
    /// [`TrainerBuilder::build`](crate::TrainerBuilder::build).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.seq_len == 0 {
            return Err(ConfigError::ZeroSeqLen);
        }
        // NaN must fail too, hence not a plain `> 0.0` check.
        if self.sim.max_interval.is_nan() || self.sim.max_interval <= 0.0 {
            return Err(ConfigError::NonPositiveMaxInterval {
                value: self.sim.max_interval,
            });
        }
        if self.sim.max_rejections == 0 {
            return Err(ConfigError::ZeroMaxRejections);
        }
        Ok(())
    }
}

/// A training configuration that cannot drive a run, with enough context
/// to state which knob is wrong and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `batch_size` was 0: an epoch would collect no trajectories.
    ZeroBatchSize,
    /// `seq_len` was 0: every episode would be empty.
    ZeroSeqLen,
    /// `sim.max_interval` must be positive or a rejected decision could
    /// never advance simulated time.
    NonPositiveMaxInterval {
        /// The offending value.
        value: f64,
    },
    /// `sim.max_rejections` was 0: no decision would ever be inspected, so
    /// the policy would receive no training signal.
    ZeroMaxRejections,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBatchSize => {
                write!(f, "batch_size is 0: an epoch would collect no trajectories")
            }
            ConfigError::ZeroSeqLen => {
                write!(f, "seq_len is 0: every episode would be empty")
            }
            ConfigError::NonPositiveMaxInterval { value } => {
                write!(
                    f,
                    "sim.max_interval is {value}: rejections could never advance time \
                     (MAX_INTERVAL must be positive)"
                )
            }
            ConfigError::ZeroMaxRejections => {
                write!(
                    f,
                    "sim.max_rejections is 0: no decision would be inspected and the \
                     policy would receive no training signal"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = InspectorConfig::default();
        assert_eq!(c.batch_size, 100);
        assert_eq!(c.seq_len, 128);
        assert_eq!(c.metric, Metric::Bsld);
        assert_eq!(c.reward, RewardKind::Percentage);
        assert_eq!(c.features, FeatureMode::Manual);
        assert_eq!(c.sim.max_interval, 600.0);
        assert_eq!(c.sim.max_rejections, 72);
        assert!(c.baseline_cache);
    }

    #[test]
    fn default_and_quick_configs_validate() {
        assert_eq!(InspectorConfig::default().validate(), Ok(()));
        assert_eq!(InspectorConfig::quick().validate(), Ok(()));
    }

    #[test]
    fn invalid_knobs_produce_typed_errors() {
        let mut c = InspectorConfig::quick();
        c.batch_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBatchSize));

        let mut c = InspectorConfig::quick();
        c.seq_len = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroSeqLen));

        let mut c = InspectorConfig::quick();
        c.sim.max_interval = -1.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NonPositiveMaxInterval { value: -1.0 })
        );
        c.sim.max_interval = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveMaxInterval { .. })
        ));

        let mut c = InspectorConfig::quick();
        c.sim.max_rejections = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxRejections));
    }

    #[test]
    fn config_errors_display_the_offending_value() {
        let e = ConfigError::NonPositiveMaxInterval { value: -2.5 };
        assert!(e.to_string().contains("-2.5"));
        assert!(ConfigError::ZeroBatchSize
            .to_string()
            .contains("batch_size"));
    }
}
