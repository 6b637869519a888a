//! `tinynn` — a tiny, dependency-light neural-network library.
//!
//! The SchedInspector agent is a 938-parameter MLP (§3.1); the Rust RL
//! ecosystem is thin and `tch-rs` is outside the allowed dependency set, so
//! this crate implements exactly what the reproduction needs from scratch:
//! dense layers with manual backprop, tanh/ReLU activations, softmax
//! helpers, and Adam. Everything is deterministic under a seeded RNG, and
//! trained models are persisted as weights in a plain-text format.
//!
//! ```
//! use tinynn::{Activation, Adam, Mlp, Tape};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // The paper's inspector network: 7 features -> 32/16/8 -> 2 logits.
//! let mut net = Mlp::new(&[7, 32, 16, 8, 2], Activation::Tanh, Activation::Identity, &mut rng);
//! assert_eq!(net.param_count(), 938);
//!
//! let mut tape = Tape::default();
//! net.zero_grads();
//! let logits = net.forward_train(&[0.0; 7], &mut tape).to_vec();
//! net.backward(&tape, &[1.0, -1.0]);
//! let mut opt = Adam::new(1e-3, net.param_count());
//! opt.step(&mut net, 1.0);
//! assert_ne!(net.forward(&[0.0; 7]), logits);
//! ```

mod activation;
mod adam;
mod batch;
mod layer;
pub mod loss;
mod mlp;
pub mod text;

pub use activation::Activation;
pub use adam::Adam;
pub use batch::{dot8, BatchForwardScratch, BlockTape, ROW_BLOCK};
pub use layer::Dense;
pub use mlp::{ForwardScratch, Mlp, Tape};
