//! Multi-layer perceptrons with a training tape.

use std::cell::RefCell;

use rand::Rng;

use crate::activation::Activation;
use crate::batch::BlockTape;
use crate::layer::Dense;

/// A feed-forward MLP.
///
/// The paper's inspector network is `Mlp::new(&[d, 32, 16, 8, 2], ...)`
/// (§3.1): three hidden layers of 32/16/8 units and a two-logit output —
/// 938 parameters for the 7-feature (no-backfilling) input.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// The layers, in order (read-only; used by serialization).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// The layers, mutably — for the block training kernels.
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Rebuild an MLP from explicit layers, validating that adjacent
    /// dimensions agree.
    pub fn from_layers(layers: Vec<Dense>) -> Result<Mlp, String> {
        if layers.is_empty() {
            return Err("an MLP needs at least one layer".into());
        }
        for w in layers.windows(2) {
            if w[0].fan_out != w[1].fan_in {
                return Err(format!(
                    "layer dimension mismatch: {} out vs {} in",
                    w[0].fan_out, w[1].fan_in
                ));
            }
        }
        Ok(Mlp { layers })
    }
}

/// Cached forward-pass state needed for backprop: the input plus each
/// layer's pre-activations and outputs — the one-row case of a
/// [`BlockTape`]. The cell is there because [`Mlp::backward`] takes the
/// tape by shared reference yet walks its gradient buffers; nothing else
/// borrows through it.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    block: RefCell<BlockTape>,
}

/// Reusable buffers for [`Mlp::forward_scratch`]. After the first pass the
/// buffers hold enough capacity for the widest layer, so repeated inference
/// through the same (or any same-sized) network allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    a: Vec<f32>,
    z: Vec<f32>,
    next: Vec<f32>,
}

impl Mlp {
    /// Build an MLP with the given layer sizes: `sizes[0]` inputs through
    /// `sizes[n-1]` outputs. Hidden layers use `hidden`; the final layer
    /// uses `output` (use [`Activation::Identity`] for logits/values).
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == sizes.len() { output } else { hidden };
                Dense::new(w[0], w[1], act, rng)
            })
            .collect();
        Mlp { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.fan_in)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.fan_out)
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut scratch = ForwardScratch::default();
        self.forward_scratch(x, &mut scratch).to_vec()
    }

    /// Inference forward pass through caller-owned scratch buffers — the
    /// allocation-free path for hot loops (e.g. one policy query per
    /// scheduling point). The returned slice borrows from `scratch` and is
    /// valid until the next call.
    pub fn forward_scratch<'s>(&self, x: &[f32], scratch: &'s mut ForwardScratch) -> &'s [f32] {
        scratch.a.clear();
        scratch.a.extend_from_slice(x);
        for layer in &self.layers {
            layer.forward(&scratch.a, &mut scratch.z, &mut scratch.next);
            std::mem::swap(&mut scratch.a, &mut scratch.next);
        }
        &scratch.a
    }

    /// Forward pass recording everything backprop needs into `tape`.
    pub fn forward_train<'t>(&self, x: &[f32], tape: &'t mut Tape) -> &'t [f32] {
        self.forward_train_block(x, 1, tape.block.get_mut())
    }

    /// Backward pass from `grad_out` (∂L/∂output), accumulating parameter
    /// gradients. Call [`Mlp::zero_grads`] before a new accumulation round.
    pub fn backward(&mut self, tape: &Tape, grad_out: &[f32]) {
        self.backward_block(&mut tape.block.borrow_mut(), grad_out);
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Visit every (parameter, gradient) pair mutably — the optimizer hook.
    pub fn visit_params(&mut self, mut f: impl FnMut(usize, &mut f32, f32)) {
        let mut idx = 0;
        for l in &mut self.layers {
            if l.gw.len() != l.w.len() || l.gb.len() != l.b.len() {
                l.zero_grads();
            }
            for (w, &g) in l.w.iter_mut().zip(&l.gw) {
                f(idx, w, g);
                idx += 1;
            }
            for (b, &g) in l.b.iter_mut().zip(&l.gb) {
                f(idx, b, g);
                idx += 1;
            }
        }
    }

    /// Flatten every parameter into one vector, in [`Mlp::visit_params`]
    /// order (per layer: weights, then biases).
    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Overwrite every parameter from a flat vector laid out like
    /// [`Mlp::params`] — the hook a parameter-averaging merge uses to
    /// install blended weights into a same-shaped network.
    pub fn set_params(&mut self, params: &[f32]) -> Result<(), String> {
        if params.len() != self.param_count() {
            return Err(format!(
                "parameter vector holds {} values, network has {}",
                params.len(),
                self.param_count()
            ));
        }
        let mut idx = 0;
        for l in &mut self.layers {
            for w in l.w.iter_mut() {
                *w = params[idx];
                idx += 1;
            }
            for b in l.b.iter_mut() {
                *b = params[idx];
                idx += 1;
            }
        }
        Ok(())
    }

    /// Global L2 norm of the accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        let mut s = 0.0f32;
        for l in &self.layers {
            s += l.gw.iter().map(|g| g * g).sum::<f32>();
            s += l.gb.iter().map(|g| g * g).sum::<f32>();
        }
        s.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(sizes: &[usize], seed: u64) -> Mlp {
        Mlp::new(
            sizes,
            Activation::Tanh,
            Activation::Identity,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn paper_network_has_938_parameters() {
        // 7 features (no backfilling), hidden 32/16/8, 2 logits — §3.1.
        let net = mlp(&[7, 32, 16, 8, 2], 0);
        assert_eq!(net.param_count(), 938);
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let net = mlp(&[4, 8, 3], 1);
        let x = [0.1, -0.5, 0.9, 0.0];
        let mut tape = Tape::default();
        let out_train = net.forward_train(&x, &mut tape).to_vec();
        let out = net.forward(&x);
        assert_eq!(out, out_train);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn gradcheck_full_network() {
        let mut net = mlp(&[3, 5, 4, 2], 2);
        let x = [0.4f32, -0.2, 0.7];
        // Loss = out[0] - 2*out[1].
        let loss = |n: &Mlp| {
            let o = n.forward(&x);
            o[0] - 2.0 * o[1]
        };
        let mut tape = Tape::default();
        net.zero_grads();
        net.forward_train(&x, &mut tape);
        net.backward(&tape, &[1.0, -2.0]);

        let analytic: Vec<f32> = {
            let mut v = Vec::new();
            net.visit_params(|_, _, g| v.push(g));
            v
        };
        // Finite differences over every parameter.
        let eps = 1e-3;
        let mut idx = 0;
        let snapshot = net.clone();
        let n_params = analytic.len();
        #[allow(clippy::needless_range_loop)]
        for p in 0..n_params {
            let mut plus = snapshot.clone();
            plus.visit_params(|i, w, _| {
                if i == p {
                    *w += eps;
                }
            });
            let mut minus = snapshot.clone();
            minus.visit_params(|i, w, _| {
                if i == p {
                    *w -= eps;
                }
            });
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (num - analytic[p]).abs() < 2e-2,
                "param {p}: numeric {num} vs analytic {}",
                analytic[p]
            );
            idx += 1;
        }
        assert_eq!(idx, n_params);
    }

    #[test]
    fn forward_scratch_matches_forward_across_reuse() {
        let small = mlp(&[4, 8, 3], 1);
        let wide = mlp(&[4, 16, 3], 5);
        let x = [0.1, -0.5, 0.9, 0.0];
        let mut scratch = ForwardScratch::default();
        // Reusing one scratch across different nets and repeated calls must
        // not change results.
        for _ in 0..3 {
            assert_eq!(small.forward_scratch(&x, &mut scratch), small.forward(&x));
            assert_eq!(wide.forward_scratch(&x, &mut scratch), wide.forward(&x));
        }
    }

    #[test]
    fn clone_preserves_outputs() {
        let net = mlp(&[4, 8, 2], 3);
        let copied = net.clone();
        let x = [0.3, 0.1, -0.2, 0.8];
        assert_eq!(net.forward(&x), copied.forward(&x));
    }

    #[test]
    fn grad_norm_positive_after_backward() {
        let mut net = mlp(&[3, 4, 1], 4);
        let mut tape = Tape::default();
        net.zero_grads();
        assert_eq!(net.grad_norm(), 0.0);
        net.forward_train(&[1.0, 1.0, 1.0], &mut tape);
        net.backward(&tape, &[1.0]);
        assert!(net.grad_norm() > 0.0);
    }
}
