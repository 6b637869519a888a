//! Returns and advantage estimation for sparse terminal rewards.
//!
//! With intermediate rewards fixed at 0 and no discounting, every step's
//! return equals the trajectory's terminal reward; the critic provides the
//! baseline, and advantages are normalized per batch to stabilize PPO.

use tinynn::ForwardScratch;

use crate::trajectory::Batch;
use crate::value::ValueNet;

/// Flattened training arrays computed from a batch.
#[derive(Debug, Clone, Default)]
pub struct Advantages {
    /// Per-step return (the trajectory's terminal reward).
    pub returns: Vec<f32>,
    /// Per-step normalized advantage.
    pub advantages: Vec<f32>,
}

/// Compute returns and normalized advantages for every step in the batch,
/// in trajectory-then-step order (matching a flattened iteration).
pub fn compute(batch: &Batch, critic: &ValueNet) -> Advantages {
    let mut returns = Vec::with_capacity(batch.total_steps());
    let mut advantages = Vec::with_capacity(batch.total_steps());
    let mut scratch = ForwardScratch::default();
    for t in &batch.trajectories {
        for s in &t.steps {
            returns.push(t.reward);
            let value = critic.mlp().forward_scratch(&s.state, &mut scratch)[0];
            advantages.push(t.reward - value);
        }
    }
    normalize(&mut advantages);
    Advantages {
        returns,
        advantages,
    }
}

/// In-place mean/std normalization (no-op on empty or constant input).
pub fn normalize(xs: &mut [f32]) {
    let n = xs.len();
    if n == 0 {
        return;
    }
    let mean = xs.iter().sum::<f32>() / n as f32;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
    let std = var.sqrt();
    if std < 1e-8 {
        for x in xs.iter_mut() {
            *x -= mean;
        }
        return;
    }
    for x in xs.iter_mut() {
        *x = (*x - mean) / std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{Step, Trajectory};

    fn step(v: f32) -> Step {
        Step {
            state: vec![v],
            action: 0,
            logp: -0.7,
        }
    }

    #[test]
    fn returns_equal_terminal_reward() {
        let batch = Batch {
            trajectories: vec![
                Trajectory {
                    steps: vec![step(0.0), step(1.0)],
                    reward: 5.0,
                },
                Trajectory {
                    steps: vec![step(2.0)],
                    reward: -1.0,
                },
            ],
        };
        let critic = ValueNet::new(1, 0);
        let adv = compute(&batch, &critic);
        assert_eq!(adv.returns, vec![5.0, 5.0, -1.0]);
        assert_eq!(adv.advantages.len(), 3);
    }

    #[test]
    fn advantages_are_reward_minus_critic_value_normalized() {
        let batch = Batch {
            trajectories: vec![
                Trajectory {
                    steps: vec![step(0.3), step(-1.0), step(0.8)],
                    reward: 1.5,
                },
                Trajectory {
                    steps: vec![step(2.0)],
                    reward: -0.5,
                },
            ],
        };
        let critic = ValueNet::new(1, 4);
        let mut want: Vec<f32> = batch
            .trajectories
            .iter()
            .flat_map(|t| t.steps.iter().map(|s| t.reward - critic.value(&s.state)))
            .collect();
        normalize(&mut want);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&compute(&batch, &critic).advantages), bits(&want));
    }

    #[test]
    fn normalize_zero_mean_unit_std() {
        let mut xs = vec![1.0f32, 2.0, 3.0, 4.0];
        normalize(&mut xs);
        let mean: f32 = xs.iter().sum::<f32>() / 4.0;
        let var: f32 = xs.iter().map(|x| x * x).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalize_handles_degenerate_inputs() {
        let mut empty: Vec<f32> = vec![];
        normalize(&mut empty);
        let mut constant = vec![3.0f32; 5];
        normalize(&mut constant);
        assert!(constant.iter().all(|&x| x == 0.0));
    }
}
