//! The critic: a state-value network with the same architecture as the
//! policy (§3.1: "These two networks use the same architecture and take the
//! same inputs, but output different values").

use rand::SeedableRng;
use tinynn::{Activation, Mlp};

/// State-value estimator `V(s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueNet {
    net: Mlp,
}

impl ValueNet {
    /// Paper architecture (hidden 32/16/8, scalar output).
    pub fn new(input_dim: usize, seed: u64) -> Self {
        Self::with_hidden(input_dim, &[32, 16, 8], seed)
    }

    /// Custom hidden sizes.
    pub fn with_hidden(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(input_dim);
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ValueNet {
            net: Mlp::new(&sizes, Activation::Tanh, Activation::Identity, &mut rng),
        }
    }

    /// Estimated value of `state`.
    pub fn value(&self, state: &[f32]) -> f32 {
        self.net.forward(state)[0]
    }

    /// Total parameters.
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// The underlying network (checkpoint serialization).
    pub fn mlp(&self) -> &Mlp {
        &self.net
    }

    /// Rebuild a critic around an existing network; it must end in a
    /// single output unit.
    pub fn from_mlp(net: Mlp) -> Result<Self, String> {
        match net.layers().last() {
            Some(last) if last.fan_out == 1 => Ok(ValueNet { net }),
            Some(last) => Err(format!(
                "value network must output 1 value, got {}",
                last.fan_out
            )),
            None => Err("value network has no layers".to_string()),
        }
    }

    pub(crate) fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_a_scalar() {
        let v = ValueNet::new(7, 0);
        assert!(v.value(&[0.0; 7]).is_finite());
        // Same trunk as the policy but a 1-unit head: 938 - (8*2+2) + (8+1).
        assert_eq!(v.param_count(), 929);
    }
}
