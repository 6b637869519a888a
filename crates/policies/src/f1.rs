//! The F1 policy of Carastan-Santos & de Camargo (SC'17) — the paper's
//! state-of-the-art heuristic baseline.

use simhpc::{Best, PolicyContext, SchedulingPolicy};
use workload::Job;

use crate::memo::Memo;

/// F1 — priority `min(log10(est_j) · res_j + 870 · log10(s_j))`.
///
/// A machine-learned non-linear combination of job features fitted to
/// minimize average bounded slowdown (Table 3). `s_j` is the job's submit
/// time *as an absolute archive timestamp*: in the Parallel Workloads
/// Archive logs the fit was made against, submit times are large (~10⁷ s),
/// so `870·log10(s_j)` is a slowly-growing age term, not an FCFS override.
/// Our sequences are rebased to t = 0, so the same epoch offset is added
/// back before the log to preserve the fitted balance between the terms.
///
/// The score depends on the job alone, not on the scheduling point, so
/// `select` computes it once per job and afterwards reads it back.
#[derive(Debug, Clone, Default)]
pub struct F1 {
    /// Per job: its score, keyed by everything [`f1_score`] reads —
    /// estimate and submit time (as bits) and processors.
    memo: Memo<(u64, u64, u32), f64>,
}

/// Absolute-time offset standing in for the archive epoch (≈ 4 months).
pub const F1_EPOCH_OFFSET: f64 = 1.0e7;

#[inline]
fn f1_score(job: &Job) -> f64 {
    let est = job.estimate.max(1.0);
    let submit = (job.submit + F1_EPOCH_OFFSET).max(1.0);
    est.log10() * job.procs as f64 + 870.0 * submit.log10()
}

impl SchedulingPolicy for F1 {
    #[inline]
    fn score(&mut self, job: &Job, _ctx: &PolicyContext) -> f64 {
        f1_score(job)
    }

    fn select(&mut self, queue: &[usize], jobs: &[Job], _ctx: &PolicyContext) -> usize {
        debug_assert!(!queue.is_empty());
        self.memo.fit(jobs.len());
        let mut best = Best::default();
        for (pos, &jidx) in queue.iter().enumerate() {
            let job = &jobs[jidx];
            let inputs = (job.estimate.to_bits(), job.submit.to_bits(), job.procs);
            let score = match self.memo.get(jidx, inputs) {
                Some(score) => score,
                None => {
                    let score = f1_score(job);
                    self.memo.put(jidx, inputs, score);
                    score
                }
            };
            best.offer(pos, score, job.id);
        }
        best.pos().unwrap_or(0)
    }

    fn name(&self) -> &str {
        "F1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PolicyContext {
        PolicyContext {
            now: 0.0,
            total_procs: 128,
            free_procs: 128,
        }
    }

    #[test]
    fn prefers_small_short_jobs_with_equal_submit() {
        let mut p = F1::default();
        let small = Job::new(1, 100.0, 60.0, 60.0, 1);
        let big = Job::new(2, 100.0, 36000.0, 36000.0, 64);
        assert!(p.score(&small, &ctx()) < p.score(&big, &ctx()));
    }

    #[test]
    fn submit_time_dominates_like_weighted_fcfs() {
        // The 870 weight makes submit order dominate for similar jobs.
        let mut p = F1::default();
        let early = Job::new(1, 100.0, 3600.0, 3600.0, 8);
        let late = Job::new(2, 10_000.0, 3600.0, 3600.0, 8);
        assert!(p.score(&early, &ctx()) < p.score(&late, &ctx()));
    }

    #[test]
    fn zero_submit_is_guarded() {
        let mut p = F1::default();
        let j = Job::new(1, 0.0, 60.0, 60.0, 1);
        assert!(p.score(&j, &ctx()).is_finite());
    }
}
