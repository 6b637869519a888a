//! The learned selector policy: an RLScheduler-style kernel network.
//!
//! A small MLP scores every waiting job (shared weights across queue
//! slots); a softmax over the scores yields a categorical distribution from
//! which the next job is drawn (training) or arg-maxed (deployment). This
//! is the "disruptive" alternative the SchedInspector paper positions
//! itself against (§6) and names as future work to *combine* with.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simhpc::{PolicyContext, SchedulingPolicy};
use tinynn::loss::log_softmax;
use tinynn::{Activation, Mlp};
use workload::Job;

use crate::features::{SelectorNorm, JOB_FEATURES, MAX_SLOTS};

/// The trainable selector network: per-job features → scalar logit.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectorNet {
    net: Mlp,
    /// Feature normalization.
    pub norm: SelectorNorm,
}

impl SelectorNet {
    /// A fresh kernel network (16/8 hidden units, like the inspector's but
    /// smaller since it scores one job at a time).
    pub fn new(norm: SelectorNorm, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(
            &[JOB_FEATURES, 16, 8, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        SelectorNet { net, norm }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// Logit for one job.
    pub fn logit(&self, job: &Job, ctx: &PolicyContext) -> f32 {
        let mut buf = Vec::with_capacity(JOB_FEATURES);
        self.norm.job_features(job, ctx, &mut buf);
        self.net.forward(&buf)[0]
    }

    /// Logits for the first [`MAX_SLOTS`] queue entries (`queue` holds
    /// indices into `jobs`, as in [`SchedulingPolicy::select`]).
    pub fn logits(&self, queue: &[usize], jobs: &[Job], ctx: &PolicyContext) -> Vec<f32> {
        let n = queue.len().min(MAX_SLOTS);
        let mut buf = Vec::with_capacity(JOB_FEATURES);
        (0..n)
            .map(|i| {
                buf.clear();
                self.norm.job_features(&jobs[queue[i]], ctx, &mut buf);
                self.net.forward(&buf)[0]
            })
            .collect()
    }

    /// Mutable network access for the trainer.
    pub(crate) fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Read-only network access.
    pub fn net(&self) -> &Mlp {
        &self.net
    }
}

/// One recorded selection decision.
#[derive(Debug, Clone, PartialEq)]
pub struct SelStep {
    /// Per-slot feature matrix, row-major `[n_slots × JOB_FEATURES]`.
    pub feats: Vec<f32>,
    /// Number of candidate slots at this decision.
    pub n_slots: usize,
    /// Chosen slot.
    pub action: usize,
    /// Log-probability of the choice under the behavior policy.
    pub logp: f32,
}

/// A live selector driving the simulator, optionally recording decisions.
pub struct SelectorPolicy<'a> {
    net: &'a SelectorNet,
    stochastic: bool,
    rng: StdRng,
    /// Recorded decisions (drained by the trainer after each episode).
    pub steps: Vec<SelStep>,
}

impl<'a> SelectorPolicy<'a> {
    /// A stochastic (training) selector.
    pub fn stochastic(net: &'a SelectorNet, seed: u64) -> Self {
        SelectorPolicy {
            net,
            stochastic: true,
            rng: StdRng::seed_from_u64(seed),
            steps: Vec::new(),
        }
    }

    /// A greedy (deployment) selector.
    pub fn greedy(net: &'a SelectorNet) -> Self {
        SelectorPolicy {
            net,
            stochastic: false,
            rng: StdRng::seed_from_u64(0),
            steps: Vec::new(),
        }
    }
}

impl SchedulingPolicy for SelectorPolicy<'_> {
    fn score(&mut self, job: &Job, ctx: &PolicyContext) -> f64 {
        // Backfill candidate ordering: higher logit = higher priority.
        -self.net.logit(job, ctx) as f64
    }

    fn select(&mut self, queue: &[usize], jobs: &[Job], ctx: &PolicyContext) -> usize {
        let logits = self.net.logits(queue, jobs, ctx);
        let lp = log_softmax(&logits);
        let action = if self.stochastic {
            let u: f32 = self.rng.random();
            let mut acc = 0.0;
            let mut pick = lp.len() - 1;
            for (i, l) in lp.iter().enumerate() {
                acc += l.exp();
                if u < acc {
                    pick = i;
                    break;
                }
            }
            pick
        } else {
            lp.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let n = logits.len();
        let mut feats = Vec::with_capacity(n * JOB_FEATURES);
        for &jidx in queue.iter().take(n) {
            self.net.norm.job_features(&jobs[jidx], ctx, &mut feats);
        }
        self.steps.push(SelStep {
            feats,
            n_slots: n,
            action,
            logp: lp[action],
        });
        action
    }

    fn name(&self) -> &str {
        "RLScheduler"
    }
}

/// A frozen trained selector usable as a *base policy* — including under a
/// SchedInspector, the combination the paper names as future work (§7).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedScheduler {
    net: SelectorNet,
}

impl TrainedScheduler {
    /// Freeze a trained network.
    pub fn new(net: SelectorNet) -> Self {
        TrainedScheduler { net }
    }

    /// The underlying network.
    pub fn net(&self) -> &SelectorNet {
        &self.net
    }
}

impl SchedulingPolicy for TrainedScheduler {
    fn score(&mut self, job: &Job, ctx: &PolicyContext) -> f64 {
        -self.net.logit(job, ctx) as f64
    }

    fn select(&mut self, queue: &[usize], jobs: &[Job], ctx: &PolicyContext) -> usize {
        let logits = self.net.logits(queue, jobs, ctx);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> &str {
        "RLScheduler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SelectorNet, Vec<Job>, Vec<usize>, PolicyContext) {
        let net = SelectorNet::new(SelectorNorm::new(32, 7_200.0), 5);
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                Job::new(
                    i + 1,
                    0.0,
                    100.0 * (i + 1) as f64,
                    200.0 * (i + 1) as f64,
                    1 + i as u32,
                )
            })
            .collect();
        let queue: Vec<usize> = (0..jobs.len()).collect();
        let ctx = PolicyContext {
            now: 500.0,
            total_procs: 32,
            free_procs: 16,
        };
        (net, jobs, queue, ctx)
    }

    #[test]
    fn greedy_picks_argmax_logit() {
        let (net, jobs, queue, ctx) = setup();
        let logits = net.logits(&queue, &jobs, &ctx);
        let best = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let mut p = SelectorPolicy::greedy(&net);
        assert_eq!(p.select(&queue, &jobs, &ctx), best);
        assert_eq!(p.steps.len(), 1);
        assert_eq!(p.steps[0].n_slots, 6);
        assert_eq!(p.steps[0].feats.len(), 6 * JOB_FEATURES);
    }

    #[test]
    fn stochastic_selection_matches_softmax_frequencies() {
        let (net, jobs, queue, ctx) = setup();
        let lp = log_softmax(&net.logits(&queue, &jobs, &ctx));
        let mut p = SelectorPolicy::stochastic(&net, 1);
        let n = 20_000;
        let mut counts = vec![0usize; queue.len()];
        for _ in 0..n {
            counts[p.select(&queue, &jobs, &ctx)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let freq = *c as f64 / n as f64;
            let prob = lp[i].exp() as f64;
            assert!(
                (freq - prob).abs() < 0.02,
                "slot {i}: freq {freq} vs prob {prob}"
            );
        }
    }

    #[test]
    fn queue_longer_than_window_is_cut() {
        let net = SelectorNet::new(SelectorNorm::new(8, 1_000.0), 2);
        let jobs: Vec<Job> = (0..(MAX_SLOTS as u64 + 10))
            .map(|i| Job::new(i + 1, 0.0, 60.0, 60.0, 1))
            .collect();
        let queue: Vec<usize> = (0..jobs.len()).collect();
        let ctx = PolicyContext {
            now: 0.0,
            total_procs: 8,
            free_procs: 8,
        };
        let mut p = SelectorPolicy::greedy(&net);
        let pick = p.select(&queue, &jobs, &ctx);
        assert!(pick < MAX_SLOTS);
        assert_eq!(p.steps[0].n_slots, MAX_SLOTS);
    }

    #[test]
    fn trained_scheduler_is_deterministic_and_matches_greedy() {
        let (net, jobs, queue, ctx) = setup();
        let mut frozen = TrainedScheduler::new(net.clone());
        let mut greedy = SelectorPolicy::greedy(&net);
        assert_eq!(
            frozen.select(&queue, &jobs, &ctx),
            greedy.select(&queue, &jobs, &ctx)
        );
        assert_eq!(
            frozen.select(&queue, &jobs, &ctx),
            frozen.select(&queue, &jobs, &ctx)
        );
    }
}
