//! Per-job features for the learned selector.

use simhpc::PolicyContext;
use workload::Job;

/// Feature count per queue slot.
pub const JOB_FEATURES: usize = 5;

/// Maximum queue slots the selector can choose among (RLScheduler's
/// `MAX_QUEUE_SIZE` cut-off; jobs beyond the window wait for a later
/// scheduling point).
pub const MAX_SLOTS: usize = 32;

/// Normalization constants for selector features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorNorm {
    /// Cap for waiting times (seconds).
    pub max_wait: f64,
    /// Cap for runtime estimates (seconds).
    pub max_estimate: f64,
    /// Machine processors.
    pub total_procs: u32,
}

impl SelectorNorm {
    /// Defaults for a machine of `total_procs` and the given max estimate.
    pub fn new(total_procs: u32, max_estimate: f64) -> Self {
        SelectorNorm {
            max_wait: 86_400.0,
            max_estimate: max_estimate.max(1.0),
            total_procs,
        }
    }

    /// Write one job's features into `out` (exactly [`JOB_FEATURES`]
    /// values): wait, estimate, resources, whether it fits the free
    /// processors, and the overall cluster availability.
    pub fn job_features(&self, job: &Job, ctx: &PolicyContext, out: &mut Vec<f32>) {
        let wait = ((ctx.now - job.submit) / self.max_wait).clamp(0.0, 1.0) as f32;
        out.push(wait);
        out.push((job.estimate / self.max_estimate).clamp(0.0, 1.0) as f32);
        out.push((job.procs as f64 / self.total_procs as f64).clamp(0.0, 1.0) as f32);
        out.push(if job.procs <= ctx.free_procs {
            1.0
        } else {
            0.0
        });
        out.push((ctx.free_procs as f64 / self.total_procs as f64) as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_have_fixed_width_and_range() {
        let norm = SelectorNorm::new(64, 7_200.0);
        let ctx = PolicyContext {
            now: 1_000.0,
            total_procs: 64,
            free_procs: 32,
        };
        let job = Job::new(1, 400.0, 100.0, 3_600.0, 16);
        let mut out = Vec::new();
        norm.job_features(&job, &ctx, &mut out);
        assert_eq!(out.len(), JOB_FEATURES);
        assert!(out.iter().all(|x| (0.0..=1.0).contains(x)), "{out:?}");
        assert_eq!(out[3], 1.0, "16 procs fit in 32 free");
        assert_eq!(out[4], 0.5);
    }

    #[test]
    fn fits_flag_flips() {
        let norm = SelectorNorm::new(64, 7_200.0);
        let ctx = PolicyContext {
            now: 0.0,
            total_procs: 64,
            free_procs: 8,
        };
        let job = Job::new(1, 0.0, 100.0, 3_600.0, 16);
        let mut out = Vec::new();
        norm.job_features(&job, &ctx, &mut out);
        assert_eq!(out[3], 0.0, "16 procs do not fit in 8 free");
    }
}
