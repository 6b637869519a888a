//! Trajectories with sparse terminal rewards.
//!
//! SchedInspector holds intermediate rewards at 0 and assigns one final
//! reward per scheduled job sequence (§3 "reward calculation"), so a
//! trajectory is a list of (state, action, log-prob) steps plus a single
//! scalar reward.

/// One inspection decision inside a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Feature vector observed at the scheduling point.
    pub state: Vec<f32>,
    /// Action taken: 1 = reject, 0 = accept.
    pub action: u8,
    /// Log-probability of the action under the behavior policy.
    pub logp: f32,
}

/// One episode: all inspection decisions over a job sequence plus the final
/// reward computed after the last job finished.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    /// Steps in decision order.
    pub steps: Vec<Step>,
    /// Terminal reward for the whole sequence.
    pub reward: f32,
}

impl Trajectory {
    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trajectory recorded no decisions.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Fraction of reject actions.
    pub fn rejection_ratio(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().filter(|s| s.action == 1).count() as f64 / self.steps.len() as f64
    }
}

/// A batch of trajectories — the unit of one PPO model update (the paper
/// collects 100 trajectories per epoch, §4.1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    /// Collected trajectories.
    pub trajectories: Vec<Trajectory>,
}

impl Batch {
    /// Total number of steps across all trajectories.
    pub fn total_steps(&self) -> usize {
        self.trajectories.iter().map(Trajectory::len).sum()
    }

    /// Mean terminal reward.
    pub fn mean_reward(&self) -> f32 {
        if self.trajectories.is_empty() {
            return 0.0;
        }
        self.trajectories.iter().map(|t| t.reward).sum::<f32>() / self.trajectories.len() as f32
    }

    /// Overall rejection ratio across the batch.
    pub fn rejection_ratio(&self) -> f64 {
        let total = self.total_steps();
        if total == 0 {
            return 0.0;
        }
        let rejects: usize = self
            .trajectories
            .iter()
            .map(|t| t.steps.iter().filter(|s| s.action == 1).count())
            .sum();
        rejects as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(action: u8) -> Step {
        Step {
            state: vec![0.0],
            action,
            logp: -0.7,
        }
    }

    #[test]
    fn rejection_ratio_counts_rejects() {
        let t = Trajectory {
            steps: vec![step(1), step(0), step(1), step(1)],
            reward: 0.0,
        };
        assert_eq!(t.rejection_ratio(), 0.75);
        assert_eq!(Trajectory::default().rejection_ratio(), 0.0);
    }

    #[test]
    fn batch_aggregates() {
        let b = Batch {
            trajectories: vec![
                Trajectory {
                    steps: vec![step(1), step(0)],
                    reward: 2.0,
                },
                Trajectory {
                    steps: vec![step(0), step(0)],
                    reward: 4.0,
                },
            ],
        };
        assert_eq!(b.total_steps(), 4);
        assert_eq!(b.mean_reward(), 3.0);
        assert_eq!(b.rejection_ratio(), 0.25);
    }
}
