//! Mid-training checkpoints: the complete trainer state needed to
//! resume a killed run **bit-identically**.
//!
//! A checkpoint captures everything that evolves across epochs — both
//! networks and both Adam optimizers (moment vectors and step counts) —
//! plus the epoch count and seed. What it deliberately does *not*
//! capture:
//!
//! * the trainer RNG — the rand crate's `StdRng` exposes no state
//!   accessors, but its consumption pattern is exactly `batch_size`
//!   bounded draws per epoch (zero when the trace admits only one start
//!   offset), so [`Trainer::restore`](crate::Trainer::restore)
//!   fast-forwards a fresh seeded RNG by replaying that many draws;
//! * the baseline cache — proven bit-identical on/off by the trainer's
//!   `cached_and_uncached_training_are_bit_identical` test;
//! * the trace, features, and config — rebuilt deterministically from
//!   the same CLI arguments / builder inputs on resume.
//!
//! The text is a `schedinspector-checkpoint v1` document (DESIGN.md §4
//! "Model documents"): this module is its schema over [`tinynn::text`] —
//! `epochs_done`, `seed`, then the four exact-roundtrip nested documents
//! (`policy` and `critic`, a `tinynn-mlp v1` each; `pi_opt` and `vf_opt`,
//! a `tinynn-adam v1` each), each behind its marker and read in place on
//! the same reader.

use std::fmt::Write as _;

use rlcore::{BinaryPolicy, PpoConfig, PpoTrainer, ValueNet};
use tinynn::text::document;
use tinynn::{Adam, Mlp};

use crate::model_io::ModelIoError;

const HEADER: &str = "schedinspector-checkpoint v1";

/// A parsed training checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Fully completed epochs (resume continues at this epoch index).
    pub epochs_done: usize,
    /// Training seed the run was started with (validated on restore).
    pub seed: u64,
    /// The policy network.
    pub policy: BinaryPolicy,
    /// The critic network.
    pub critic: ValueNet,
    /// Policy optimizer state.
    pub pi_opt: Adam,
    /// Critic optimizer state.
    pub vf_opt: Adam,
}

impl Checkpoint {
    /// Snapshot a PPO trainer after `epochs_done` completed epochs.
    pub fn from_ppo(ppo: &PpoTrainer, epochs_done: usize, seed: u64) -> Self {
        let (pi_opt, vf_opt) = ppo.optimizers();
        Checkpoint {
            epochs_done,
            seed,
            policy: ppo.policy.clone(),
            critic: ppo.critic.clone(),
            pi_opt: pi_opt.clone(),
            vf_opt: vf_opt.clone(),
        }
    }

    /// Rebuild the PPO trainer this checkpoint was taken from. `seed` is
    /// the seed of the run installing it: a checkpoint of another run
    /// would continue a different sequence of episodes.
    pub fn into_ppo(self, seed: u64) -> Result<PpoTrainer, String> {
        if self.seed != seed {
            return Err(format!(
                "checkpoint was trained with seed {}, this run has seed {seed}",
                self.seed
            ));
        }
        PpoTrainer::from_parts(
            self.policy,
            self.critic,
            PpoConfig::default(),
            self.pi_opt,
            self.vf_opt,
        )
    }

    /// Serialize. Exact: `from_text(to_text(c))` reproduces every bit,
    /// and equal trainer states produce byte-equal text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "epochs_done {}", self.epochs_done);
        let _ = writeln!(out, "seed {}", self.seed);
        out.push_str("policy\n");
        self.policy.mlp().write_text(&mut out);
        out.push_str("critic\n");
        self.critic.mlp().write_text(&mut out);
        out.push_str("pi_opt\n");
        self.pi_opt.write_text(&mut out);
        out.push_str("vf_opt\n");
        self.vf_opt.write_text(&mut out);
        out
    }

    /// Parse checkpoint text.
    pub fn from_text(text: &str) -> Result<Checkpoint, ModelIoError> {
        document(text, |r| {
            r.marker(HEADER)?;
            let epochs_done = r.parse("epochs_done")?;
            let seed = r.parse("seed")?;
            r.marker("policy")?;
            let policy = BinaryPolicy::from_mlp(Mlp::read_text(r)?).map_err(|e| r.err(e))?;
            r.marker("critic")?;
            let critic = ValueNet::from_mlp(Mlp::read_text(r)?).map_err(|e| r.err(e))?;
            r.marker("pi_opt")?;
            let pi_opt = Adam::read_text(r, policy.param_count())?;
            r.marker("vf_opt")?;
            let vf_opt = Adam::read_text(r, critic.param_count())?;
            Ok(Checkpoint {
                epochs_done,
                seed,
                policy,
                critic,
                pi_opt,
                vf_opt,
            })
        })
        .map_err(ModelIoError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrips_bit_identically() {
        let ppo = PpoTrainer::new(7, PpoConfig::default(), 42);
        let ck = Checkpoint::from_ppo(&ppo, 3, 42);
        let text = ck.to_text();
        let back = Checkpoint::from_text(&text).unwrap();
        assert_eq!(back.epochs_done, 3);
        assert_eq!(back.seed, 42);
        assert_eq!(back.to_text(), text, "re-serialization must be byte-equal");
        assert_eq!(back.policy.mlp().to_text(), ppo.policy.mlp().to_text());
        let (pi, vf) = ppo.optimizers();
        assert_eq!(&back.pi_opt, pi);
        assert_eq!(&back.vf_opt, vf);
    }
}
