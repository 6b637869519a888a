//! Activation functions.

/// Element-wise activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's MLP uses saturating hidden units).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// No non-linearity (output layers / logits).
    Identity,
}

impl Activation {
    /// Apply the activation to a pre-activation value.
    #[inline]
    pub fn apply(&self, z: f32) -> f32 {
        match self {
            Activation::Tanh => z.tanh(),
            Activation::Relu => z.max(0.0),
            Activation::Identity => z,
        }
    }

    /// Derivative w.r.t. the pre-activation `z`, given both `z` and the
    /// already-computed output `a = apply(z)` (lets tanh reuse its output).
    #[inline]
    pub fn derivative(&self, z: f32, a: f32) -> f32 {
        match self {
            Activation::Tanh => 1.0 - a * a,
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_matches_std() {
        let a = Activation::Tanh;
        assert!((a.apply(0.5) - 0.5f32.tanh()).abs() < 1e-7);
        let out = a.apply(0.5);
        assert!((a.derivative(0.5, out) - (1.0 - out * out)).abs() < 1e-7);
    }

    #[test]
    fn relu_clamps_and_gates() {
        let a = Activation::Relu;
        assert_eq!(a.apply(-1.0), 0.0);
        assert_eq!(a.apply(2.0), 2.0);
        assert_eq!(a.derivative(-1.0, 0.0), 0.0);
        assert_eq!(a.derivative(2.0, 2.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [Activation::Tanh, Activation::Relu, Activation::Identity] {
            for &z in &[-1.2f32, -0.3, 0.4, 1.7] {
                let num = (act.apply(z + eps) - act.apply(z - eps)) / (2.0 * eps);
                let ana = act.derivative(z, act.apply(z));
                assert!((num - ana).abs() < 1e-2, "{act:?} at {z}: {num} vs {ana}");
            }
        }
    }
}
