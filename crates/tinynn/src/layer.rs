//! Dense (fully connected) layers with manual backprop.

use rand::{Rng, RngExt};

use crate::activation::Activation;

/// A dense layer `a = act(W x + b)` with gradient accumulators.
///
/// Weights are stored row-major: `w[o * fan_in + i]` connects input `i` to
/// output `o`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Input dimension.
    pub fan_in: usize,
    /// Output dimension.
    pub fan_out: usize,
    /// Weights, row-major `[fan_out × fan_in]`.
    pub w: Vec<f32>,
    /// Biases `[fan_out]`.
    pub b: Vec<f32>,
    /// Activation applied to the pre-activation.
    pub act: Activation,
    /// Accumulated weight gradients (same layout as `w`).
    pub gw: Vec<f32>,
    /// Accumulated bias gradients.
    pub gb: Vec<f32>,
}

impl Dense {
    /// Xavier/Glorot-uniform initialized layer.
    pub fn new<R: Rng + ?Sized>(
        fan_in: usize,
        fan_out: usize,
        act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(fan_in > 0 && fan_out > 0);
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let w = (0..fan_in * fan_out)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * limit)
            .collect();
        Dense {
            fan_in,
            fan_out,
            w,
            b: vec![0.0; fan_out],
            act,
            gw: vec![0.0; fan_in * fan_out],
            gb: vec![0.0; fan_out],
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass writing pre-activations into `z` and outputs into `a`.
    ///
    /// Uses the 8-lane [`crate::batch::dot8`] inner product — the same
    /// summation order as the fused batched forward, which keeps
    /// [`crate::Mlp::forward_batch`] bit-exact against this path.
    pub fn forward(&self, x: &[f32], z: &mut Vec<f32>, a: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.fan_in);
        z.clear();
        a.clear();
        for o in 0..self.fan_out {
            let row = &self.w[o * self.fan_in..(o + 1) * self.fan_in];
            let acc = crate::batch::dot8(row, x) + self.b[o];
            z.push(acc);
            a.push(self.act.apply(acc));
        }
    }

    /// Backward pass: given upstream `grad_a` (∂L/∂a), the cached input `x`,
    /// pre-activations `z`, and outputs `a`, accumulate parameter gradients
    /// and write ∂L/∂x into `grad_x`.
    ///
    /// This is the per-sample definition of the gradient arithmetic: the
    /// row-block kernel behind [`crate::Mlp::backward`] and
    /// [`crate::Mlp::backward_block`] adds the same terms into every
    /// accumulator in the same order, and `tests/train_batch_parity.rs`
    /// holds it to these bits.
    pub fn backward(
        &mut self,
        x: &[f32],
        z: &[f32],
        a: &[f32],
        grad_a: &[f32],
        grad_x: &mut Vec<f32>,
    ) {
        debug_assert_eq!(grad_a.len(), self.fan_out);
        grad_x.clear();
        grad_x.resize(self.fan_in, 0.0);
        for o in 0..self.fan_out {
            let dz = grad_a[o] * self.act.derivative(z[o], a[o]);
            self.gb[o] += dz;
            let row_w = &self.w[o * self.fan_in..(o + 1) * self.fan_in];
            let row_g = &mut self.gw[o * self.fan_in..(o + 1) * self.fan_in];
            for i in 0..self.fan_in {
                row_g[i] += dz * x[i];
                grad_x[i] += dz * row_w[i];
            }
        }
    }

    /// Zero the gradient accumulators (allocating them if the layer was
    /// deserialized, since gradients are not persisted).
    pub fn zero_grads(&mut self) {
        self.gw.clear();
        self.gw.resize(self.w.len(), 0.0);
        self.gb.clear();
        self.gb.resize(self.b.len(), 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_computes_affine_map() {
        let mut l = Dense::new(2, 1, Activation::Identity, &mut StdRng::seed_from_u64(0));
        l.w = vec![2.0, -1.0];
        l.b = vec![0.5];
        let (mut z, mut a) = (vec![], vec![]);
        l.forward(&[3.0, 4.0], &mut z, &mut a);
        assert_eq!(a, vec![2.0 * 3.0 - 4.0 + 0.5]);
        assert_eq!(z, a);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = [0.3f32, -0.7, 1.1];
        // Loss = sum of outputs.
        let loss = |l: &Dense| -> f32 {
            let (mut z, mut a) = (vec![], vec![]);
            l.forward(&x, &mut z, &mut a);
            a.iter().sum()
        };
        let (mut z, mut a) = (vec![], vec![]);
        l.forward(&x, &mut z, &mut a);
        let mut gx = vec![];
        l.backward(&x, &z, &a, &[1.0, 1.0], &mut gx);

        let eps = 1e-3;
        for idx in 0..l.w.len() {
            let mut lp = l.clone();
            lp.w[idx] += eps;
            let mut lm = l.clone();
            lm.w[idx] -= eps;
            let num = (loss(&lp) - loss(&lm)) / (2.0 * eps);
            assert!(
                (num - l.gw[idx]).abs() < 1e-2,
                "w[{idx}]: numeric {num} vs analytic {}",
                l.gw[idx]
            );
        }
        for idx in 0..l.b.len() {
            let mut lp = l.clone();
            lp.b[idx] += eps;
            let mut lm = l.clone();
            lm.b[idx] -= eps;
            let num = (loss(&lp) - loss(&lm)) / (2.0 * eps);
            assert!((num - l.gb[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn backward_accumulates() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Dense::new(2, 2, Activation::Identity, &mut rng);
        let x = [1.0f32, 2.0];
        let (mut z, mut a, mut gx) = (vec![], vec![], vec![]);
        l.forward(&x, &mut z, &mut a);
        l.backward(&x, &z, &a, &[1.0, 0.0], &mut gx);
        let once = l.gw.clone();
        l.backward(&x, &z, &a, &[1.0, 0.0], &mut gx);
        for (g2, g1) in l.gw.iter().zip(&once) {
            assert!((g2 - 2.0 * g1).abs() < 1e-6);
        }
        l.zero_grads();
        assert!(l.gw.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_count() {
        let l = Dense::new(7, 32, Activation::Tanh, &mut StdRng::seed_from_u64(0));
        assert_eq!(l.param_count(), 7 * 32 + 32);
    }
}
