//! The stochastic binary policy (accept / reject) over a two-logit MLP.

use rand::{Rng, RngExt, SeedableRng};
use tinynn::loss::{log_softmax, log_softmax2, softmax};
use tinynn::{Activation, ForwardScratch, Mlp};

/// Action index for "accept the scheduling decision".
pub const ACCEPT: u8 = 0;
/// Action index for "reject the scheduling decision".
pub const REJECT: u8 = 1;

/// Reusable buffers for the allocation-free policy queries
/// ([`BinaryPolicy::sample_scratch`] / [`BinaryPolicy::greedy_scratch`]).
/// One per rollout worker; warm after the first query.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    fwd: ForwardScratch,
}

/// Greedy action and its log-probability from raw `[accept, reject]`
/// logits — the exact computation [`BinaryPolicy::greedy_scratch`] performs
/// after its forward pass, exposed so batched inference paths that run the
/// network themselves (e.g. the serving engine's fused forward) produce
/// bit-identical decisions.
#[inline]
pub fn greedy_from_logits(l0: f32, l1: f32) -> (u8, f32) {
    let lp = log_softmax2(l0, l1);
    let action = if lp[REJECT as usize].exp() > 0.5 {
        REJECT
    } else {
        ACCEPT
    };
    (action, lp[action as usize])
}

/// A categorical policy over {accept, reject}, backed by an MLP emitting two
/// logits (the paper's policy network: hidden layers 32/16/8, §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryPolicy {
    net: Mlp,
}

impl BinaryPolicy {
    /// Build the paper's architecture for `input_dim` features.
    pub fn new(input_dim: usize, seed: u64) -> Self {
        Self::with_hidden(input_dim, &[32, 16, 8], seed)
    }

    /// Build with custom hidden layer sizes.
    pub fn with_hidden(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(input_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        BinaryPolicy {
            net: Mlp::new(&sizes, Activation::Tanh, Activation::Identity, &mut rng),
        }
    }

    /// Wrap an existing two-logit network (e.g. a deserialized model).
    pub fn from_mlp(net: Mlp) -> Result<Self, String> {
        if net.output_dim() != 2 {
            return Err(format!(
                "binary policy needs 2 logits, network has {}",
                net.output_dim()
            ));
        }
        Ok(BinaryPolicy { net })
    }

    /// The underlying network (read-only; used by serialization).
    pub fn mlp(&self) -> &Mlp {
        &self.net
    }

    /// Expected feature-vector length.
    pub fn input_dim(&self) -> usize {
        self.net.input_dim()
    }

    /// Total parameters (938 for the paper's 7-feature configuration).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// Raw logits `[accept, reject]`.
    pub fn logits(&self, state: &[f32]) -> Vec<f32> {
        self.net.forward(state)
    }

    /// Probability of rejecting in `state`.
    pub fn prob_reject(&self, state: &[f32]) -> f32 {
        softmax(&self.logits(state))[REJECT as usize]
    }

    /// Sample an action; returns `(action, log-prob)`.
    pub fn sample<R: Rng + ?Sized>(&self, state: &[f32], rng: &mut R) -> (u8, f32) {
        let lp = log_softmax(&self.logits(state));
        let p_reject = lp[REJECT as usize].exp();
        let action = if rng.random::<f32>() < p_reject {
            REJECT
        } else {
            ACCEPT
        };
        (action, lp[action as usize])
    }

    /// Greedy action (used at deployment/inference time).
    pub fn greedy(&self, state: &[f32]) -> u8 {
        if self.prob_reject(state) > 0.5 {
            REJECT
        } else {
            ACCEPT
        }
    }

    /// Log-probability of `action` in `state`.
    pub fn logp(&self, state: &[f32], action: u8) -> f32 {
        log_softmax(&self.logits(state))[action as usize]
    }

    /// Log-probabilities `[accept, reject]` without allocating: one scratch
    /// forward pass plus the stack-only [`log_softmax2`], bit-identical to
    /// the allocating path.
    fn log_probs_scratch(&self, state: &[f32], scratch: &mut PolicyScratch) -> [f32; 2] {
        let logits = self.net.forward_scratch(state, &mut scratch.fwd);
        log_softmax2(logits[0], logits[1])
    }

    /// Allocation-free [`BinaryPolicy::sample`]: same action and log-prob
    /// for the same rng state, no per-call heap traffic.
    pub fn sample_scratch<R: Rng + ?Sized>(
        &self,
        state: &[f32],
        rng: &mut R,
        scratch: &mut PolicyScratch,
    ) -> (u8, f32) {
        let lp = self.log_probs_scratch(state, scratch);
        let p_reject = lp[REJECT as usize].exp();
        let action = if rng.random::<f32>() < p_reject {
            REJECT
        } else {
            ACCEPT
        };
        (action, lp[action as usize])
    }

    /// Allocation-free greedy action plus its log-probability (one forward
    /// pass instead of the two that `greedy` + `logp` would make).
    pub fn greedy_scratch(&self, state: &[f32], scratch: &mut PolicyScratch) -> (u8, f32) {
        let logits = self.net.forward_scratch(state, &mut scratch.fwd);
        greedy_from_logits(logits[0], logits[1])
    }

    /// Mutable access for the PPO updater.
    pub(crate) fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn paper_architecture_parameter_count() {
        let p = BinaryPolicy::new(7, 0);
        assert_eq!(p.param_count(), 938);
        assert_eq!(p.input_dim(), 7);
    }

    #[test]
    fn probabilities_are_valid() {
        let p = BinaryPolicy::new(4, 1);
        let pr = p.prob_reject(&[0.1, 0.2, 0.3, 0.4]);
        assert!((0.0..=1.0).contains(&pr));
    }

    #[test]
    fn sampling_matches_probabilities() {
        let p = BinaryPolicy::new(3, 2);
        let state = [0.5f32, -0.5, 0.1];
        let pr = p.prob_reject(&state) as f64;
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let rejects = (0..n)
            .filter(|_| p.sample(&state, &mut rng).0 == REJECT)
            .count();
        let freq = rejects as f64 / n as f64;
        assert!((freq - pr).abs() < 0.02, "freq {freq} vs prob {pr}");
    }

    #[test]
    fn logp_is_log_of_sample_prob() {
        let p = BinaryPolicy::new(3, 4);
        let state = [0.2f32, 0.0, -0.3];
        let pr = p.prob_reject(&state);
        assert!((p.logp(&state, REJECT).exp() - pr).abs() < 1e-5);
        assert!((p.logp(&state, ACCEPT).exp() - (1.0 - pr)).abs() < 1e-5);
    }

    #[test]
    fn scratch_paths_match_allocating_paths() {
        let p = BinaryPolicy::new(5, 9);
        let mut scratch = PolicyScratch::default();
        for i in 0..20 {
            let t = i as f32 * 0.37;
            let state = [t.sin(), t.cos(), -t.sin() * 0.5, 0.1 * t, -0.8];
            // Same rng stream on both sides -> bit-identical samples.
            let mut rng_a = StdRng::seed_from_u64(i);
            let mut rng_b = StdRng::seed_from_u64(i);
            assert_eq!(
                p.sample(&state, &mut rng_a),
                p.sample_scratch(&state, &mut rng_b, &mut scratch)
            );
            let (greedy, logp) = p.greedy_scratch(&state, &mut scratch);
            assert_eq!(greedy, p.greedy(&state));
            assert_eq!(logp, p.logp(&state, greedy));
        }
    }

    #[test]
    fn greedy_thresholds_at_half() {
        let p = BinaryPolicy::new(2, 5);
        let s = [0.3f32, 0.9];
        let expect = if p.prob_reject(&s) > 0.5 {
            REJECT
        } else {
            ACCEPT
        };
        assert_eq!(p.greedy(&s), expect);
    }
}
