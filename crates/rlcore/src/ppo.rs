//! Proximal Policy Optimization with a clipped surrogate objective
//! (Schulman et al., 2017), the paper's training algorithm (§4.1).

use obs::Telemetry;
use tinynn::loss::{log_softmax2, softmax2};
use tinynn::{Adam, BlockTape, ROW_BLOCK};

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
    ///
    /// The policy's passes run on the calling thread and the critic's on a
    /// scoped thread beside them. The two fits share nothing writable —
    /// each owns its network, optimizer and tape, and both only read the
    /// packed batch and the advantages computed before either starts — so
    /// the result is the sequential one bit for bit, with nothing to merge.
    pub fn update_traced(&mut self, batch: &Batch, telemetry: &Telemetry) -> UpdateStats {
        let n = batch.total_steps();
        if n == 0 {
            return UpdateStats::default();
        }
        let adv = advantage::compute(batch, &self.critic);
        let packed = PackedBatch::new(batch, n, self.policy.input_dim());
        let PpoTrainer {
            policy,
            critic,
            config,
            pi_opt,
            vf_opt,
        } = self;
        let (mut stats, vf_losses) = std::thread::scope(|scope| {
            let critic_fit = scope.spawn(|| {
                fit_critic(
                    critic,
                    vf_opt,
                    config.train_vf_iters,
                    &packed.states,
                    &adv.returns,
                )
            });
            let stats = fit_policy(policy, pi_opt, config, &packed, &adv.advantages, telemetry);
            (stats, critic_fit.join().expect("critic fit panicked"))
        });
        if let Some(&last) = vf_losses.last() {
            stats.vf_loss = last;
        }
        if telemetry.is_enabled() {
            for &vf_loss in &vf_losses {
                telemetry.observe("ppo.minibatch.vf_loss", vf_loss as f64);
            }
            telemetry.gauge("ppo.kl", stats.approx_kl as f64);
            telemetry.gauge("ppo.entropy", stats.entropy as f64);
            telemetry.gauge("ppo.clip_frac", stats.clip_frac as f64);
            telemetry.gauge("ppo.grad_norm", stats.grad_norm as f64);
            telemetry.gauge("ppo.pi_iters", stats.pi_iters as f64);
        }
        stats
    }
}

/// A batch flattened once per update, one row per step in
/// trajectory-then-step order (the order of [`advantage::compute`]).
struct PackedBatch {
    /// State matrix, row-major `[steps × input_dim]`.
    states: Vec<f32>,
    actions: Vec<u8>,
    /// Log-probability of each action under the behavior policy.
    logps: Vec<f32>,
}

impl PackedBatch {
    fn new(batch: &Batch, steps: usize, input_dim: usize) -> Self {
        let mut packed = PackedBatch {
            states: Vec::with_capacity(steps * input_dim),
            actions: Vec::with_capacity(steps),
            logps: Vec::with_capacity(steps),
        };
        for s in batch.trajectories.iter().flat_map(|t| &t.steps) {
            assert_eq!(s.state.len(), input_dim, "state width vs network input");
            packed.states.extend_from_slice(&s.state);
            packed.actions.push(s.action);
            packed.logps.push(s.logp);
        }
        packed
    }
}

/// The policy's passes: clipped surrogate plus entropy bonus, early stop on
/// KL. Blocks of [`ROW_BLOCK`] steps go forward, through the loss gradient
/// and backward in step order, so every sum sees its terms in the order a
/// step-at-a-time loop would feed them.
fn fit_policy(
    policy: &mut BinaryPolicy,
    opt: &mut Adam,
    config: &PpoConfig,
    batch: &PackedBatch,
    advantages: &[f32],
    telemetry: &Telemetry,
) -> UpdateStats {
    let n = advantages.len();
    let dim = policy.input_dim();
    let net = policy.net_mut();
    let mut stats = UpdateStats::default();
    let mut tape = BlockTape::default();
    let mut grads = [0.0f32; 2 * ROW_BLOCK];
    for iter in 0..config.train_pi_iters {
        net.zero_grads();
        let mut kl_sum = 0.0f64;
        let mut loss_sum = 0.0f64;
        let mut ent_sum = 0.0f64;
        let mut clipped_count = 0usize;
        for start in (0..n).step_by(ROW_BLOCK) {
            let end = (start + ROW_BLOCK).min(n);
            let logits = net.forward_train_block(
                &batch.states[start * dim..end * dim],
                end - start,
                &mut tape,
            );
            for (row, (logits, grad)) in logits
                .chunks_exact(2)
                .zip(grads.chunks_exact_mut(2))
                .enumerate()
            {
                let step = start + row;
                let (action, logp_old, a) = (
                    batch.actions[step] as usize,
                    batch.logps[step],
                    advantages[step],
                );
                let lp = log_softmax2(logits[0], logits[1]);
                let p = softmax2(logits[0], logits[1]);
                let logp_new = lp[action];
                let ratio = (logp_new - logp_old).exp();
                let clipped = (a >= 0.0 && ratio > 1.0 + config.clip)
                    || (a < 0.0 && ratio < 1.0 - config.clip);
                clipped_count += clipped as usize;
                let surr = if clipped {
                    ratio.clamp(1.0 - config.clip, 1.0 + config.clip) * a
                } else {
                    ratio * a
                };
                loss_sum += -surr as f64;
                kl_sum += (logp_old - logp_new) as f64;
                let entropy: f32 = -p
                    .iter()
                    .zip(&lp)
                    .map(|(&pi, &li)| if pi > 0.0 { pi * li } else { 0.0 })
                    .sum::<f32>();
                ent_sum += entropy as f64;

                // d(-surr)/dlogits + entropy bonus gradient.
                let d_surr_d_logp = if clipped { 0.0 } else { ratio * a };
                for k in 0..2 {
                    let onehot = if k == action { 1.0 } else { 0.0 };
                    // minimize: -(surrogate + c·entropy)
                    grad[k] = -d_surr_d_logp * (onehot - p[k])
                        + config.ent_coef * p[k] * (lp[k] + entropy);
                }
            }
            net.backward_block(&mut tape, &grads[..2 * (end - start)]);
        }
        stats.pi_loss = (loss_sum / n as f64) as f32;
        stats.approx_kl = (kl_sum / n as f64) as f32;
        stats.entropy = (ent_sum / n as f64) as f32;
        stats.clip_frac = clipped_count as f32 / n as f32;
        stats.grad_norm = net.grad_norm() / n as f32;
        stats.pi_iters = iter + 1;
        if telemetry.is_enabled() {
            telemetry.observe("ppo.minibatch.kl", stats.approx_kl as f64);
            telemetry.observe("ppo.minibatch.pi_loss", stats.pi_loss as f64);
            telemetry.observe("ppo.minibatch.clip_frac", stats.clip_frac as f64);
            telemetry.observe("ppo.minibatch.grad_norm", stats.grad_norm as f64);
        }
        if stats.approx_kl > 1.5 * config.target_kl && iter > 0 {
            break;
        }
        opt.step(net, 1.0 / n as f32);
    }
    stats
}

/// The critic's passes: MSE regression to the returns, blocked like
/// [`fit_policy`]. Returns the loss of every pass, in pass order.
fn fit_critic(
    critic: &mut ValueNet,
    opt: &mut Adam,
    iters: usize,
    states: &[f32],
    returns: &[f32],
) -> Vec<f32> {
    let n = returns.len();
    let dim = critic.mlp().input_dim();
    let net = critic.net_mut();
    let mut losses = Vec::with_capacity(iters);
    let mut tape = BlockTape::default();
    let mut grads = [0.0f32; ROW_BLOCK];
    for _ in 0..iters {
        net.zero_grads();
        let mut vf_sum = 0.0f64;
        for start in (0..n).step_by(ROW_BLOCK) {
            let end = (start + ROW_BLOCK).min(n);
            let values =
                net.forward_train_block(&states[start * dim..end * dim], end - start, &mut tape);
            for ((&v, &ret), grad) in values.iter().zip(&returns[start..end]).zip(&mut grads) {
                let d = v - ret;
                vf_sum += (d * d) as f64;
                *grad = 2.0 * d;
            }
            net.backward_block(&mut tape, &grads[..end - start]);
        }
        losses.push((vf_sum / n as f64) as f32);
        opt.step(net, 1.0 / n as f32);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ACCEPT, REJECT};
    use crate::trajectory::{Step, Trajectory};
    use obs::Event;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use tinynn::loss::{log_softmax, softmax};
    use tinynn::Tape;

    /// The update as it was before the fits were blocked and overlapped:
    /// one thread, one step at a time, all policy passes and then all critic
    /// passes. [`PpoTrainer::update`] must reproduce it bit for bit.
    fn update_reference(trainer: &mut PpoTrainer, batch: &Batch) -> UpdateStats {
        let n = batch.total_steps();
        if n == 0 {
            return UpdateStats::default();
        }
        let config = trainer.config;
        let adv = advantage::compute(batch, &trainer.critic);
        let mut stats = UpdateStats::default();
        let mut tape = Tape::default();

        for iter in 0..config.train_pi_iters {
            trainer.policy.net_mut().zero_grads();
            let mut kl_sum = 0.0f64;
            let mut loss_sum = 0.0f64;
            let mut ent_sum = 0.0f64;
            let mut clipped_count = 0usize;
            let mut flat = 0usize;
            for t in &batch.trajectories {
                for s in &t.steps {
                    let a = adv.advantages[flat];
                    flat += 1;
                    let logits = trainer
                        .policy
                        .mlp()
                        .forward_train(&s.state, &mut tape)
                        .to_vec();
                    let lp = log_softmax(&logits);
                    let p = softmax(&logits);
                    let logp_new = lp[s.action as usize];
                    let ratio = (logp_new - s.logp).exp();
                    let clipped = (a >= 0.0 && ratio > 1.0 + config.clip)
                        || (a < 0.0 && ratio < 1.0 - config.clip);
                    clipped_count += clipped as usize;
                    let surr = if clipped {
                        ratio.clamp(1.0 - config.clip, 1.0 + config.clip) * a
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

                    let d_surr_d_logp = if clipped { 0.0 } else { ratio * a };
                    let mut grad = [0.0f32; 2];
                    for k in 0..2 {
                        let onehot = if k == s.action as usize { 1.0 } else { 0.0 };
                        grad[k] = -d_surr_d_logp * (onehot - p[k])
                            + config.ent_coef * p[k] * (lp[k] + entropy);
                    }
                    trainer.policy.net_mut().backward(&tape, &grad);
                }
            }
            stats.pi_loss = (loss_sum / n as f64) as f32;
            stats.approx_kl = (kl_sum / n as f64) as f32;
            stats.entropy = (ent_sum / n as f64) as f32;
            stats.clip_frac = clipped_count as f32 / n as f32;
            stats.grad_norm = trainer.policy.mlp().grad_norm() / n as f32;
            stats.pi_iters = iter + 1;
            if stats.approx_kl > 1.5 * config.target_kl && iter > 0 {
                break;
            }
            trainer
                .pi_opt
                .step(trainer.policy.net_mut(), 1.0 / n as f32);
        }

        for _ in 0..config.train_vf_iters {
            trainer.critic.net_mut().zero_grads();
            let mut vf_sum = 0.0f64;
            let mut flat = 0usize;
            for t in &batch.trajectories {
                for s in &t.steps {
                    let ret = adv.returns[flat];
                    flat += 1;
                    let v = trainer.critic.mlp().forward_train(&s.state, &mut tape)[0];
                    let d = v - ret;
                    vf_sum += (d * d) as f64;
                    trainer.critic.net_mut().backward(&tape, &[2.0 * d]);
                }
            }
            stats.vf_loss = (vf_sum / n as f64) as f32;
            trainer
                .vf_opt
                .step(trainer.critic.net_mut(), 1.0 / n as f32);
        }
        stats
    }

    /// `steps` decisions sampled from the trainer's current policy, cut
    /// into trajectories of uneven length with random terminal rewards.
    fn sampled_batch(trainer: &PpoTrainer, steps: usize, rng: &mut StdRng) -> Batch {
        let dim = trainer.policy.input_dim();
        let mut batch = Batch::default();
        let mut left = steps;
        while left > 0 {
            let len = rng.random_range(1..=left.min(37));
            left -= len;
            let steps = (0..len)
                .map(|_| {
                    let state: Vec<f32> =
                        (0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
                    let (action, logp) = trainer.policy.sample(&state, rng);
                    Step {
                        state,
                        action,
                        logp,
                    }
                })
                .collect();
            batch.trajectories.push(Trajectory {
                steps,
                reward: rng.random::<f32>() * 4.0 - 2.0,
            });
        }
        batch
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_state(what: &str, got: &PpoTrainer, want: &PpoTrainer) {
        assert_eq!(
            bits(&got.policy.mlp().params()),
            bits(&want.policy.mlp().params()),
            "{what}: policy parameters"
        );
        assert_eq!(
            bits(&got.critic.mlp().params()),
            bits(&want.critic.mlp().params()),
            "{what}: critic parameters"
        );
        for (name, got, want) in [
            ("policy", &got.pi_opt, &want.pi_opt),
            ("critic", &got.vf_opt, &want.vf_opt),
        ] {
            assert_eq!(got.steps(), want.steps(), "{what}: {name} Adam steps");
            let ((gm, gv), (wm, wv)) = (got.moments(), want.moments());
            assert_eq!(bits(gm), bits(wm), "{what}: {name} Adam first moments");
            assert_eq!(bits(gv), bits(wv), "{what}: {name} Adam second moments");
        }
    }

    fn assert_same_stats(what: &str, got: UpdateStats, want: UpdateStats) {
        let floats = |s: UpdateStats| {
            [
                s.pi_loss,
                s.vf_loss,
                s.approx_kl,
                s.entropy,
                s.clip_frac,
                s.grad_norm,
            ]
            .map(f32::to_bits)
        };
        assert_eq!(floats(got), floats(want), "{what}: {got:?} vs {want:?}");
        assert_eq!(got.pi_iters, want.pi_iters, "{what}: policy passes");
    }

    #[test]
    fn update_is_bit_identical_to_the_step_at_a_time_reference() {
        let early_stop = PpoConfig {
            target_kl: 1e-9,
            pi_lr: 0.1,
            ..Default::default()
        };
        for (label, config) in [
            ("default", PpoConfig::default()),
            ("early stop", early_stop),
        ] {
            let mut trainer = PpoTrainer::new(7, config, 21);
            let mut reference = trainer.clone();
            let mut rng = StdRng::seed_from_u64(4);
            let mut fewest_passes = usize::MAX;
            // Several blocks with a ragged tail, nothing, under one block,
            // exactly one block.
            for (round, steps) in [150usize, 0, 5, ROW_BLOCK].into_iter().enumerate() {
                let what = format!("{label}, update {round} ({steps} steps)");
                let batch = sampled_batch(&trainer, steps, &mut rng);
                assert_eq!(batch.total_steps(), steps);
                let got = trainer.update(&batch);
                let want = update_reference(&mut reference, &batch);
                assert_same_stats(&what, got, want);
                assert_same_state(&what, &trainer, &reference);
                if steps > 0 {
                    fewest_passes = fewest_passes.min(got.pi_iters);
                }
            }
            if label == "early stop" {
                assert!(fewest_passes < config.train_pi_iters, "KL stop never hit");
            }
        }
    }

    #[test]
    fn traced_update_emits_policy_then_critic_then_gauges() {
        let config = PpoConfig {
            train_vf_iters: 3,
            ..Default::default()
        };
        let mut trainer = PpoTrainer::new(4, config, 2);
        let mut untraced = trainer.clone();
        let batch = sampled_batch(&trainer, 100, &mut StdRng::seed_from_u64(8));
        let (telemetry, sink) = Telemetry::in_memory();
        let stats = trainer.update_traced(&batch, &telemetry);
        assert_same_stats("traced", stats, untraced.update(&batch));

        let names: Vec<&str> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::Histogram { name, .. } | Event::Gauge { name, .. } => *name,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let mut want = Vec::new();
        for _ in 0..stats.pi_iters {
            want.extend([
                "ppo.minibatch.kl",
                "ppo.minibatch.pi_loss",
                "ppo.minibatch.clip_frac",
                "ppo.minibatch.grad_norm",
            ]);
        }
        want.extend(["ppo.minibatch.vf_loss"; 3]);
        want.extend([
            "ppo.kl",
            "ppo.entropy",
            "ppo.clip_frac",
            "ppo.grad_norm",
            "ppo.pi_iters",
        ]);
        assert_eq!(names, want);
        let last_vf_loss = sink.events().iter().rev().find_map(|e| match e {
            Event::Histogram {
                name: "ppo.minibatch.vf_loss",
                value,
                ..
            } => Some(*value),
            _ => None,
        });
        assert_eq!(last_vf_loss, Some(stats.vf_loss as f64));
    }

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
