//! The simulation-facing job model.

use swf::SwfRecord;

/// One batch job as seen by the scheduler and the simulator.
///
/// Times are seconds (`f64`) relative to the trace origin. Following the
/// paper (§3.2) the *actual* runtime drives completions while the
/// *estimated* runtime drives scheduling decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Stable job identifier (unique within a trace).
    pub id: u64,
    /// Submission time in seconds.
    pub submit: f64,
    /// Actual execution time `exe_j` in seconds (drives completion).
    pub runtime: f64,
    /// Estimated execution time `est_j` in seconds (drives scheduling).
    pub estimate: f64,
    /// Requested processors `res_j`.
    pub procs: u32,
    /// Submitting user (for the Slurm fairshare factor).
    pub user: u32,
    /// Queue / partition id (for the Slurm partition factor).
    pub queue: u32,
}

impl Job {
    /// Convenience constructor for tests and examples.
    pub fn new(id: u64, submit: f64, runtime: f64, estimate: f64, procs: u32) -> Self {
        Job {
            id,
            submit,
            runtime,
            estimate,
            procs,
            user: 0,
            queue: 0,
        }
    }

    /// Estimated area `est_j * res_j` (the SAF priority key).
    pub fn area(&self) -> f64 {
        self.estimate * self.procs as f64
    }

    /// Convert from an SWF record. Returns `None` for records that cannot be
    /// simulated (no runtime or no processor count).
    pub fn from_swf(rec: &SwfRecord) -> Option<Self> {
        if !rec.is_simulatable() {
            return None;
        }
        let procs = rec.effective_procs();
        let estimate = rec.effective_estimate().max(rec.run_time).max(1);
        Some(Job {
            id: rec.job_id,
            submit: rec.submit_time.max(0) as f64,
            runtime: rec.run_time.max(1) as f64,
            estimate: estimate as f64,
            procs: procs as u32,
            user: rec.user_id.max(0) as u32,
            queue: rec.queue.max(0) as u32,
        })
    }

    /// Convert to an SWF record (fields we do not model are left unknown).
    pub fn to_swf(&self) -> SwfRecord {
        SwfRecord {
            job_id: self.id,
            submit_time: self.submit.round() as i64,
            run_time: self.runtime.round() as i64,
            allocated_procs: self.procs as i64,
            requested_procs: self.procs as i64,
            requested_time: self.estimate.round() as i64,
            user_id: self.user as i64,
            queue: self.queue as i64,
            status: 1,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_is_estimate_times_procs() {
        let j = Job::new(1, 0.0, 100.0, 120.0, 4);
        assert_eq!(j.area(), 480.0);
    }

    #[test]
    fn from_swf_skips_unsimulatable() {
        let bad = SwfRecord {
            run_time: -1,
            ..Default::default()
        };
        assert!(Job::from_swf(&bad).is_none());
    }

    #[test]
    fn from_swf_estimate_at_least_runtime() {
        let rec = SwfRecord {
            job_id: 1,
            submit_time: 5,
            run_time: 100,
            requested_time: 50, // under-estimate in the log
            requested_procs: 2,
            ..Default::default()
        };
        let j = Job::from_swf(&rec).unwrap();
        assert_eq!(j.estimate, 100.0);
        assert_eq!(j.procs, 2);
    }

    #[test]
    fn swf_roundtrip() {
        let j = Job {
            id: 9,
            submit: 10.0,
            runtime: 60.0,
            estimate: 90.0,
            procs: 8,
            user: 3,
            queue: 1,
        };
        let j2 = Job::from_swf(&j.to_swf()).unwrap();
        assert_eq!(j, j2);
    }
}
