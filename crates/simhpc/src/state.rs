//! Scheduling-point observations: what the inspector gets to see.

use workload::Job;

/// A waiting job as visible at a scheduling point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Job id.
    pub id: u64,
    /// How long the job has been waiting (seconds).
    pub wait: f64,
    /// Estimated runtime.
    pub estimate: f64,
    /// Requested processors.
    pub procs: u32,
}

/// Everything the inspector observes about one scheduling decision (§3.3's
/// "Env. State"): the scheduled job, its rejection history, the waiting
/// queue, and the cluster status. Feature vectors are built from this.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Current simulation time.
    pub now: f64,
    /// The job the base policy selected.
    pub job: Job,
    /// Selected job's waiting time so far (`wait_j`).
    pub wait: f64,
    /// How many times this job has already been rejected.
    pub rejections: u32,
    /// The rejection cap (`MAX_REJECTION_TIMES`).
    pub max_rejections: u32,
    /// Free processors.
    pub free_procs: u32,
    /// Total processors.
    pub total_procs: u32,
    /// Whether the selected job can start immediately.
    pub runnable: bool,
    /// Whether backfilling is enabled in this simulation.
    pub backfill_enabled: bool,
    /// Number of waiting jobs that could be backfilled while the selected
    /// job waits (0 when backfilling is disabled or the job is runnable).
    pub backfillable: u32,
    /// The other waiting jobs (selected job excluded).
    pub queue: Vec<QueueEntry>,
}

impl Observation {
    /// Cluster availability `n_free / n_total` in `[0, 1]`.
    pub fn availability(&self) -> f64 {
        self.free_procs as f64 / self.total_procs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_ratio() {
        let obs = Observation {
            now: 0.0,
            job: Job::new(1, 0.0, 10.0, 10.0, 2),
            wait: 0.0,
            rejections: 0,
            max_rejections: 72,
            free_procs: 32,
            total_procs: 128,
            runnable: true,
            backfill_enabled: false,
            backfillable: 0,
            queue: vec![],
        };
        assert_eq!(obs.availability(), 0.25);
    }
}
