//! The Adam optimizer (Kingma & Ba, 2015).

use std::fmt::Write as _;

use crate::mlp::Mlp;
use crate::text::{document, write_floats, Reader, TextError};

/// Adam state for one network.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate (the paper trains with 1e-3, §4.1).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz.
    pub eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Adam with standard betas for a network with `n_params` parameters.
    pub fn new(lr: f32, n_params: usize) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Number of parameters this optimizer's moment vectors cover.
    pub fn param_len(&self) -> usize {
        self.m.len()
    }

    /// The first- and second-moment vectors `(m, v)` — read-only, exposed
    /// so a distributed merge can average optimizer state across replicas.
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// Rebuild optimizer state from explicit parts — the constructor a
    /// parameter-averaging merge uses after blending moment vectors.
    pub fn from_state(
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        m: Vec<f32>,
        v: Vec<f32>,
        t: u64,
    ) -> Result<Self, String> {
        if m.len() != v.len() {
            return Err(format!(
                "moment vectors disagree: m covers {} params, v covers {}",
                m.len(),
                v.len()
            ));
        }
        Ok(Adam {
            lr,
            beta1,
            beta2,
            eps,
            m,
            v,
            t,
        })
    }

    /// Append the full optimizer state (hyperparameters, step count,
    /// moment vectors) as `tinynn-adam v1` lines: a header, `hyper`, `t`,
    /// `m`, `v` — five lines, always. Floats use `{:e}`, which roundtrips
    /// `f32` exactly, so resuming from text is bit-identical.
    pub fn write_text(&self, out: &mut String) {
        out.push_str("tinynn-adam v1\n");
        write_floats(out, "hyper", &[self.lr, self.beta1, self.beta2, self.eps]);
        let _ = writeln!(out, "t {}", self.t);
        write_floats(out, "m", &self.m);
        write_floats(out, "v", &self.v);
    }

    /// Read one optimizer state from `r`, consuming exactly its five
    /// lines. `n_params` must match the network this optimizer will step.
    pub fn read_text(r: &mut Reader<'_>, n_params: usize) -> Result<Self, TextError> {
        r.marker("tinynn-adam v1")?;
        let hyper: Vec<f32> = r.floats("hyper", 4)?;
        let t = r.parse("t")?;
        let m = r.floats("m", n_params)?;
        let v = r.floats("v", n_params)?;
        Ok(Adam {
            lr: hyper[0],
            beta1: hyper[1],
            beta2: hyper[2],
            eps: hyper[3],
            m,
            v,
            t,
        })
    }

    /// Serialize in the same diff-friendly text style as [`Mlp::to_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Parse optimizer state written by [`Adam::to_text`].
    pub fn from_text(text: &str, n_params: usize) -> Result<Self, TextError> {
        document(text, |r| Adam::read_text(r, n_params))
    }

    /// Apply one Adam step using the gradients currently accumulated in the
    /// network, scaled by `grad_scale` (e.g. `1 / batch_size`).
    pub fn step(&mut self, net: &mut Mlp, grad_scale: f32) {
        assert_eq!(
            self.m.len(),
            net.param_count(),
            "optimizer/network size mismatch"
        );
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m, v) = (&mut self.m, &mut self.v);
        net.visit_params(|i, w, g| {
            let g = g * grad_scale;
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let mhat = m[i] / b1t;
            let vhat = v[i] / b2t;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Adam on a regression task must drive the loss down.
    #[test]
    fn adam_fits_xor() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.01, net.param_count());
        let data: [([f32; 2], f32); 4] = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut tape = Tape::default();
        let loss_at = |net: &Mlp| -> f32 {
            data.iter()
                .map(|(x, y)| (net.forward(x)[0] - y).powi(2))
                .sum::<f32>()
                / 4.0
        };
        let initial = loss_at(&net);
        for _ in 0..2000 {
            net.zero_grads();
            for (x, y) in &data {
                let out = net.forward_train(x, &mut tape)[0];
                let grad = 2.0 * (out - y);
                net.backward(&tape, &[grad]);
            }
            opt.step(&mut net, 0.25);
        }
        let fin = loss_at(&net);
        assert!(fin < 0.01, "loss did not converge: {initial} -> {fin}");
        assert_eq!(opt.steps(), 2000);
    }

    #[test]
    fn state_text_roundtrips_bit_identically() {
        // Train a few steps so m/v/t are non-trivial, snapshot, train one
        // more step on both the original and the restored copy: the
        // resulting networks must match bit-for-bit.
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Mlp::new(&[3, 4, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.01, net.param_count());
        let mut tape = Tape::default();
        let step = |net: &mut Mlp, opt: &mut Adam, tape: &mut Tape| {
            net.zero_grads();
            let out = net.forward_train(&[0.3, -0.2, 0.9], tape)[0];
            net.backward(tape, &[2.0 * (out - 0.5)]);
            opt.step(net, 1.0);
        };
        for _ in 0..5 {
            step(&mut net, &mut opt, &mut tape);
        }
        let restored = Adam::from_text(&opt.to_text(), net.param_count()).unwrap();
        assert_eq!(restored, opt);
        let mut net2 = Mlp::from_text(&net.to_text()).unwrap();
        let (mut opt2, mut tape2) = (restored, Tape::default());
        step(&mut net, &mut opt, &mut tape);
        step(&mut net2, &mut opt2, &mut tape2);
        assert_eq!(net.to_text(), net2.to_text(), "divergence after restore");
        assert_eq!(opt.to_text(), opt2.to_text());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(&[2, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.01, 5);
        opt.step(&mut net, 1.0);
    }
}
