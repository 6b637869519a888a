//! Proximal Policy Optimization with a clipped surrogate objective
//! (Schulman et al., 2017), the paper's training algorithm (§4.1).

use obs::Telemetry;
use tinynn::loss::{log_softmax, softmax};
use tinynn::{Adam, Tape};

use crate::advantage;
use crate::policy::BinaryPolicy;
use crate::trajectory::Batch;
use crate::value::ValueNet;

/// PPO hyper-parameters. Defaults follow the paper (§4.1: lr 1e-3) and
/// SpinningUp's PPO defaults for the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Clipping radius ε of the surrogate objective.
    pub clip: f32,
    /// Policy learning rate.
    pub pi_lr: f32,
    /// Value-function learning rate.
    pub vf_lr: f32,
    /// Gradient passes over the batch for the policy.
    pub train_pi_iters: usize,
    /// Gradient passes over the batch for the critic.
    pub train_vf_iters: usize,
    /// Early-stop policy passes once approximate KL exceeds 1.5× this.
    pub target_kl: f32,
    /// Entropy bonus coefficient (0 disables).
    pub ent_coef: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            clip: 0.2,
            pi_lr: 1e-3,
            vf_lr: 1e-3,
            train_pi_iters: 10,
            train_vf_iters: 10,
            target_kl: 0.02,
            ent_coef: 0.003,
        }
    }
}

/// Diagnostics from one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UpdateStats {
    /// Final surrogate policy loss.
    pub pi_loss: f32,
    /// Final critic MSE.
    pub vf_loss: f32,
    /// Approximate KL divergence at the last policy pass.
    pub approx_kl: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Fraction of steps whose ratio was clipped at the last policy pass.
    pub clip_frac: f32,
    /// L2 norm of the mean policy gradient at the last policy pass.
    pub grad_norm: f32,
    /// Policy passes actually executed (≤ `train_pi_iters`).
    pub pi_iters: usize,
}

/// Actor–critic PPO trainer owning both networks and their optimizers.
#[derive(Debug, Clone)]
pub struct PpoTrainer {
    /// The policy (actor).
    pub policy: BinaryPolicy,
    /// The critic.
    pub critic: ValueNet,
    config: PpoConfig,
    pi_opt: Adam,
    vf_opt: Adam,
}

impl PpoTrainer {
    /// Create a trainer for `input_dim` features.
    pub fn new(input_dim: usize, config: PpoConfig, seed: u64) -> Self {
        let policy = BinaryPolicy::new(input_dim, seed);
        let critic = ValueNet::new(input_dim, seed.wrapping_add(1));
        let pi_opt = Adam::new(config.pi_lr, policy.param_count());
        let vf_opt = Adam::new(config.vf_lr, critic.param_count());
        PpoTrainer {
            policy,
            critic,
            config,
            pi_opt,
            vf_opt,
        }
    }

    /// Hyper-parameters in use.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// The optimizer states `(policy, critic)` — exposed so trainers can
    /// checkpoint mid-run and resume bit-identically.
    pub fn optimizers(&self) -> (&Adam, &Adam) {
        (&self.pi_opt, &self.vf_opt)
    }

    /// Reassemble a trainer from checkpointed parts. Optimizer moment
    /// vectors must match the corresponding network sizes.
    pub fn from_parts(
        policy: BinaryPolicy,
        critic: ValueNet,
        config: PpoConfig,
        pi_opt: Adam,
        vf_opt: Adam,
    ) -> Result<Self, String> {
        // Adam::step asserts the same invariant; checking here turns a
        // mismatched checkpoint into an error instead of a later panic.
        if pi_opt.param_len() != policy.param_count() {
            return Err(format!(
                "policy optimizer covers {} params, network has {}",
                pi_opt.param_len(),
                policy.param_count()
            ));
        }
        if vf_opt.param_len() != critic.param_count() {
            return Err(format!(
                "critic optimizer covers {} params, network has {}",
                vf_opt.param_len(),
                critic.param_count()
            ));
        }
        Ok(PpoTrainer {
            policy,
            critic,
            config,
            pi_opt,
            vf_opt,
        })
    }

    /// One PPO update from a batch of trajectories.
    pub fn update(&mut self, batch: &Batch) -> UpdateStats {
        self.update_traced(batch, &Telemetry::disabled())
    }

    /// Like [`PpoTrainer::update`], but streaming per-minibatch diagnostics:
    /// one `ppo.minibatch.{kl,pi_loss,clip_frac,grad_norm}` histogram sample
    /// per policy pass and one `ppo.minibatch.vf_loss` sample per critic
    /// pass, plus final `ppo.{kl,entropy,clip_frac,grad_norm}` gauges. The
    /// numerical result is identical to the untraced path.
    pub fn update_traced(&mut self, batch: &Batch, telemetry: &Telemetry) -> UpdateStats {
        let n = batch.total_steps();
        if n == 0 {
            return UpdateStats::default();
        }
        let adv = advantage::compute(batch, &self.critic);
        let mut stats = UpdateStats::default();
        let mut tape = Tape::default();

        // ---- policy (clipped surrogate, early stop on KL) ----
        for iter in 0..self.config.train_pi_iters {
            self.policy.net_mut().zero_grads();
            let mut kl_sum = 0.0f64;
            let mut loss_sum = 0.0f64;
            let mut ent_sum = 0.0f64;
            let mut clipped_count = 0usize;
            let mut flat = 0usize;
            for t in &batch.trajectories {
                for s in &t.steps {
                    let a = adv.advantages[flat];
                    flat += 1;
                    let logits = self.policy.forward_train(&s.state, &mut tape).to_vec();
                    let lp = log_softmax(&logits);
                    let p = softmax(&logits);
                    let logp_new = lp[s.action as usize];
                    let ratio = (logp_new - s.logp).exp();
                    let clipped = (a >= 0.0 && ratio > 1.0 + self.config.clip)
                        || (a < 0.0 && ratio < 1.0 - self.config.clip);
                    clipped_count += clipped as usize;
                    let surr = if clipped {
                        ratio.clamp(1.0 - self.config.clip, 1.0 + self.config.clip) * a
                    } else {
                        ratio * a
                    };
                    loss_sum += -surr as f64;
                    kl_sum += (s.logp - logp_new) as f64;
                    let entropy: f32 = -p
                        .iter()
                        .zip(&lp)
                        .map(|(&pi, &li)| if pi > 0.0 { pi * li } else { 0.0 })
                        .sum::<f32>();
                    ent_sum += entropy as f64;

                    // d(-surr)/dlogits + entropy bonus gradient.
                    let d_surr_d_logp = if clipped { 0.0 } else { ratio * a };
                    let mut grad = [0.0f32; 2];
                    for k in 0..2 {
                        let onehot = if k == s.action as usize { 1.0 } else { 0.0 };
                        // minimize: -(surrogate + c·entropy)
                        grad[k] = -d_surr_d_logp * (onehot - p[k])
                            + self.config.ent_coef * p[k] * (lp[k] + entropy);
                    }
                    self.policy.net_mut().backward(&tape, &grad);
                }
            }
            stats.pi_loss = (loss_sum / n as f64) as f32;
            stats.approx_kl = (kl_sum / n as f64) as f32;
            stats.entropy = (ent_sum / n as f64) as f32;
            stats.clip_frac = clipped_count as f32 / n as f32;
            stats.grad_norm = self.policy.mlp().grad_norm() / n as f32;
            stats.pi_iters = iter + 1;
            if telemetry.is_enabled() {
                telemetry.observe("ppo.minibatch.kl", stats.approx_kl as f64);
                telemetry.observe("ppo.minibatch.pi_loss", stats.pi_loss as f64);
                telemetry.observe("ppo.minibatch.clip_frac", stats.clip_frac as f64);
                telemetry.observe("ppo.minibatch.grad_norm", stats.grad_norm as f64);
            }
            if stats.approx_kl > 1.5 * self.config.target_kl && iter > 0 {
                break;
            }
            self.pi_opt.step(self.policy.net_mut(), 1.0 / n as f32);
        }

        // ---- critic (MSE regression to returns) ----
        for _ in 0..self.config.train_vf_iters {
            self.critic.net_mut().zero_grads();
            let mut vf_sum = 0.0f64;
            let mut flat = 0usize;
            for t in &batch.trajectories {
                for s in &t.steps {
                    let ret = adv.returns[flat];
                    flat += 1;
                    let v = self.critic.forward_train(&s.state, &mut tape)[0];
                    let d = v - ret;
                    vf_sum += (d * d) as f64;
                    self.critic.net_mut().backward(&tape, &[2.0 * d]);
                }
            }
            stats.vf_loss = (vf_sum / n as f64) as f32;
            telemetry.observe("ppo.minibatch.vf_loss", stats.vf_loss as f64);
            self.vf_opt.step(self.critic.net_mut(), 1.0 / n as f32);
        }
        if telemetry.is_enabled() {
            telemetry.gauge("ppo.kl", stats.approx_kl as f64);
            telemetry.gauge("ppo.entropy", stats.entropy as f64);
            telemetry.gauge("ppo.clip_frac", stats.clip_frac as f64);
            telemetry.gauge("ppo.grad_norm", stats.grad_norm as f64);
            telemetry.gauge("ppo.pi_iters", stats.pi_iters as f64);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ACCEPT, REJECT};
    use crate::trajectory::{Step, Trajectory};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A bandit-style check: states with `x > 0` should be rejected
    /// (reward +1), states with `x < 0` accepted (reward +1 for accept).
    /// PPO must learn the mapping from sparse trajectory rewards.
    #[test]
    fn ppo_learns_a_contextual_bandit() {
        let mut trainer = PpoTrainer::new(1, PpoConfig::default(), 7);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            let mut batch = Batch::default();
            for i in 0..32 {
                let x = if i % 2 == 0 { 0.8f32 } else { -0.8 };
                let state = vec![x];
                let (action, logp) = trainer.policy.sample(&state, &mut rng);
                let correct = if x > 0.0 { REJECT } else { ACCEPT };
                let reward = if action == correct { 1.0 } else { -1.0 };
                batch.trajectories.push(Trajectory {
                    steps: vec![Step {
                        state,
                        action,
                        logp,
                    }],
                    reward,
                });
            }
            trainer.update(&batch);
        }
        assert!(
            trainer.policy.prob_reject(&[0.8]) > 0.8,
            "should reject positive states: p = {}",
            trainer.policy.prob_reject(&[0.8])
        );
        assert!(
            trainer.policy.prob_reject(&[-0.8]) < 0.2,
            "should accept negative states: p = {}",
            trainer.policy.prob_reject(&[-0.8])
        );
    }

    #[test]
    fn critic_regresses_to_returns() {
        let mut trainer = PpoTrainer::new(1, PpoConfig::default(), 3);
        // All trajectories from state [0.5] carry reward 2.0.
        let batch = Batch {
            trajectories: (0..16)
                .map(|_| Trajectory {
                    steps: vec![Step {
                        state: vec![0.5],
                        action: 0,
                        logp: -0.69,
                    }],
                    reward: 2.0,
                })
                .collect(),
        };
        for _ in 0..30 {
            trainer.update(&batch);
        }
        let v = trainer.critic.value(&[0.5]);
        assert!((v - 2.0).abs() < 0.3, "critic did not converge: {v}");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut trainer = PpoTrainer::new(2, PpoConfig::default(), 0);
        let before = trainer.policy.clone();
        let stats = trainer.update(&Batch::default());
        assert_eq!(stats.pi_iters, 0);
        assert_eq!(
            trainer.policy.logits(&[0.1, 0.2]),
            before.logits(&[0.1, 0.2])
        );
    }

    #[test]
    fn kl_early_stopping_bounds_iterations() {
        let mut config = PpoConfig {
            target_kl: 1e-9,
            ..Default::default()
        };
        config.pi_lr = 0.1; // big steps force KL past the threshold fast
        let mut trainer = PpoTrainer::new(1, config, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = Batch::default();
        for _ in 0..8 {
            let state = vec![0.3f32];
            let (action, logp) = trainer.policy.sample(&state, &mut rng);
            batch.trajectories.push(Trajectory {
                steps: vec![Step {
                    state,
                    action,
                    logp,
                }],
                reward: 1.0,
            });
        }
        let stats = trainer.update(&batch);
        assert!(
            stats.pi_iters < config.train_pi_iters,
            "early stop expected"
        );
    }
}
