//! `simhpc` — an event-driven HPC batch-scheduling simulator.
//!
//! This is the reproduction's equivalent of SchedGym (the RL-compatible
//! simulator from RLScheduler) extended exactly as the SchedInspector paper
//! describes (§3.2): it acknowledges *reject* decisions, tracks per-job
//! rejection counts, supports EASY backfilling, and distinguishes actual
//! runtimes (drive completions) from estimates (drive scheduling).
//!
//! # Example: SJF-style scheduling with a trivial inspector
//!
//! ```
//! use simhpc::{SimConfig, Simulator, SchedulingPolicy, PolicyContext};
//! use workload::Job;
//!
//! struct Sjf;
//! impl SchedulingPolicy for Sjf {
//!     fn score(&mut self, job: &Job, _ctx: &PolicyContext) -> f64 { job.estimate }
//!     fn name(&self) -> &str { "SJF" }
//! }
//!
//! let jobs = vec![
//!     Job::new(1, 0.0, 100.0, 100.0, 2),
//!     Job::new(2, 0.0, 10.0, 10.0, 2),
//! ];
//! let sim = Simulator::new(4, SimConfig::default());
//! let result = sim.run(&jobs, &mut Sjf);
//! assert_eq!(result.outcomes.len(), 2);
//! // Both fit at t=0, so both start immediately.
//! assert_eq!(result.wait(), 0.0);
//! ```

pub mod backfill;
mod cluster;
mod config;
mod metrics;
mod policy;
mod sim;
mod state;

pub use cluster::{Cluster, F64Ord, RunningJob};
pub use config::SimConfig;
pub use metrics::{JobOutcome, Metric, SimResult, BSLD_THRESHOLD};
pub use policy::{Best, InspectorHook, NoInspector, PolicyContext, SchedulingPolicy};
pub use sim::{simulate, simulate_source, Simulator};
pub use state::{Observation, QueueEntry};

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Job;

    /// Minimal SJF for driver tests (the real one lives in `policies`).
    struct Sjf;
    impl SchedulingPolicy for Sjf {
        fn score(&mut self, job: &Job, _ctx: &PolicyContext) -> f64 {
            job.estimate
        }
        fn name(&self) -> &str {
            "SJF"
        }
    }

    /// FCFS for ordering tests.
    struct Fcfs;
    impl SchedulingPolicy for Fcfs {
        fn score(&mut self, job: &Job, _ctx: &PolicyContext) -> f64 {
            job.submit
        }
        fn name(&self) -> &str {
            "FCFS"
        }
    }

    fn sim(procs: u32) -> Simulator {
        Simulator::new(procs, SimConfig::default())
    }

    #[test]
    fn serial_execution_when_cluster_too_small() {
        // Two 4-proc jobs on a 4-proc machine: strictly serial.
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 100.0, 4),
            Job::new(2, 0.0, 100.0, 100.0, 4),
        ];
        let r = sim(4).run(&jobs, &mut Fcfs);
        let o1 = r.outcomes.iter().find(|o| o.id == 1).unwrap();
        let o2 = r.outcomes.iter().find(|o| o.id == 2).unwrap();
        assert_eq!(o1.start, 0.0);
        assert_eq!(o2.start, 100.0);
        assert_eq!(o2.wait(), 100.0);
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        // Both queued jobs are waiting at the same scheduling point; SJF
        // must pick the short one first.
        let jobs = vec![
            Job::new(1, 0.0, 50.0, 50.0, 4),
            Job::new(2, 1.0, 100.0, 100.0, 4),
            Job::new(3, 1.0, 10.0, 10.0, 4),
        ];
        let r = sim(4).run(&jobs, &mut Sjf);
        let start = |id: u64| r.outcomes.iter().find(|o| o.id == id).unwrap().start;
        assert_eq!(start(3), 50.0, "short job selected first");
        assert_eq!(start(2), 60.0);
    }

    #[test]
    fn selected_job_commits_even_when_not_runnable() {
        // The paper's Fig. 1(b) no-inspect semantics: once the base policy
        // selects a job, it holds its place even if a shorter job arrives
        // while it waits for resources.
        let jobs = vec![
            Job::new(1, 0.0, 50.0, 50.0, 4),
            Job::new(2, 1.0, 100.0, 100.0, 4),
            Job::new(3, 2.0, 10.0, 10.0, 4), // arrives after job 2 commits
        ];
        let r = sim(4).run(&jobs, &mut Sjf);
        let start = |id: u64| r.outcomes.iter().find(|o| o.id == id).unwrap().start;
        assert_eq!(start(2), 50.0, "committed job keeps its slot");
        assert_eq!(start(3), 150.0);
    }

    #[test]
    fn arrivals_gate_scheduling() {
        let jobs = vec![Job::new(1, 1000.0, 10.0, 10.0, 1)];
        let r = sim(4).run(&jobs, &mut Fcfs);
        assert_eq!(r.outcomes[0].start, 1000.0);
        assert_eq!(r.outcomes[0].wait(), 0.0);
    }

    #[test]
    fn rejection_delays_job_until_next_arrival() {
        // Inspector rejects job 1 once at t=0; next scheduling point is the
        // arrival of job 2 at t=5, where SJF then prefers job 2.
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 100.0, 4),
            Job::new(2, 5.0, 10.0, 10.0, 4),
        ];
        let mut first = true;
        let mut inspector = |obs: &Observation| {
            let reject = first && obs.job.id == 1;
            first = false;
            reject
        };
        let r = sim(4).run_inspected(&jobs, &mut Sjf, &mut inspector);
        let start = |id: u64| r.outcomes.iter().find(|o| o.id == id).unwrap().start;
        assert_eq!(start(2), 5.0);
        assert_eq!(start(1), 15.0);
        assert_eq!(r.rejections, 1);
        assert!(r.inspections >= 2);
    }

    #[test]
    fn rejection_cap_is_enforced() {
        // An always-reject inspector: every job still completes because the
        // cap cuts inspection off after max_rejections.
        let jobs = vec![
            Job::new(1, 0.0, 10.0, 10.0, 1),
            Job::new(2, 1.0, 10.0, 10.0, 1),
        ];
        let config = SimConfig {
            max_rejections: 3,
            max_interval: 100.0,
            backfill: false,
        };
        let s = Simulator::new(2, config);
        let mut always = |_: &Observation| true;
        let r = s.run_inspected(&jobs, &mut Sjf, &mut always);
        assert_eq!(r.outcomes.len(), 2);
        assert_eq!(r.rejections, 6, "each job rejected exactly the cap");
        // Job 1: rejected at t=0 (next point: arrival t=1), then at 1
        // (next: 1+100), then at 101 → runs at 201.
        let o1 = r.outcomes.iter().find(|o| o.id == 1).unwrap();
        assert_eq!(o1.rejections, 3);
        assert_eq!(o1.start, 201.0);
    }

    #[test]
    fn max_interval_bounds_rejection_idle() {
        let jobs = vec![Job::new(1, 0.0, 10.0, 10.0, 1)];
        let config = SimConfig {
            max_rejections: 1,
            max_interval: 600.0,
            backfill: false,
        };
        let mut once = |_: &Observation| true;
        let r = Simulator::new(2, config).run_inspected(&jobs, &mut Sjf, &mut once);
        assert_eq!(r.outcomes[0].start, 600.0);
    }

    #[test]
    fn no_overallocation_ever() {
        // Dense random-ish workload; checked by reconstructing usage.
        let jobs: Vec<Job> = (0..200)
            .map(|i| {
                let procs = 1 + (i * 7 % 10) as u32;
                Job::new(
                    i as u64 + 1,
                    (i as f64) * 3.0,
                    20.0 + (i % 13) as f64 * 9.0,
                    40.0 + (i % 13) as f64 * 9.0,
                    procs,
                )
            })
            .collect();
        let r = sim(10).run(&jobs, &mut Sjf);
        assert_eq!(r.outcomes.len(), 200);
        // Sweep events: at every start, concurrent usage must fit.
        let mut events: Vec<(f64, i64)> = Vec::new();
        for o in &r.outcomes {
            events.push((o.start, o.procs as i64));
            events.push((o.end, -(o.procs as i64)));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        for (_, delta) in events {
            used += delta;
            assert!(used <= 10, "over-allocation: {used}");
            assert!(used >= 0);
        }
    }

    #[test]
    fn backfill_fills_holes_without_delaying_head() {
        // Machine 10. Job1 takes 8 procs for 100 s. Job2 (9 procs) heads the
        // queue and must wait until t=100. Job3 (2 procs, 50 s) arrives and
        // can backfill into the hole without delaying job 2.
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 100.0, 8),
            Job::new(2, 1.0, 50.0, 50.0, 9),
            Job::new(3, 2.0, 50.0, 50.0, 2),
        ];
        let s = Simulator::new(10, SimConfig::with_backfill());
        let r = s.run(&jobs, &mut Fcfs);
        let find = |id: u64| *r.outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(find(3).start, 2.0, "job 3 backfills immediately");
        assert!(find(3).backfilled);
        assert_eq!(find(2).start, 100.0, "head job not delayed");
        assert!(!find(2).backfilled);
    }

    #[test]
    fn backfill_rejects_delaying_candidates() {
        // Same as above but job 3 is long (200 s): extra at reservation is
        // 10 - 9 = 1 < 2 procs, and 200 s outlives the reservation.
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 100.0, 8),
            Job::new(2, 1.0, 50.0, 50.0, 9),
            Job::new(3, 2.0, 200.0, 200.0, 2),
        ];
        let s = Simulator::new(10, SimConfig::with_backfill());
        let r = s.run(&jobs, &mut Fcfs);
        let find = |id: u64| *r.outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(find(2).start, 100.0);
        assert_eq!(
            find(3).start,
            150.0,
            "job 3 must not backfill; runs after job 2"
        );
        assert!(!find(3).backfilled);
    }

    #[test]
    fn without_backfill_holes_stay_idle() {
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 100.0, 8),
            Job::new(2, 1.0, 50.0, 50.0, 9),
            Job::new(3, 2.0, 50.0, 50.0, 2),
        ];
        let r = sim(10).run(&jobs, &mut Fcfs);
        let find = |id: u64| *r.outcomes.iter().find(|o| o.id == id).unwrap();
        assert_eq!(find(2).start, 100.0);
        assert_eq!(
            find(3).start,
            150.0,
            "no backfilling: job 3 runs after job 2"
        );
    }

    #[test]
    fn observation_reports_queue_and_cluster() {
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 100.0, 3),
            Job::new(2, 0.0, 200.0, 200.0, 2),
            Job::new(3, 0.0, 300.0, 300.0, 1),
        ];
        let mut seen = Vec::new();
        let mut spy = |obs: &Observation| {
            seen.push((obs.job.id, obs.queue.len(), obs.free_procs, obs.runnable));
            false
        };
        sim(4).run_inspected(&jobs, &mut Sjf, &mut spy);
        // First decision: job 1 selected, 2 others waiting, 4 free.
        assert_eq!(seen[0], (1, 2, 4, true));
        // Second decision: job 2 selected, 1 other waiting, 1 free, not runnable.
        assert_eq!(seen[1], (2, 1, 1, false));
    }

    #[test]
    fn empty_sequence_is_fine() {
        let r = sim(4).run(&[], &mut Sjf);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.inspections, 0);
    }

    #[test]
    #[should_panic(expected = "wider than the machine")]
    fn oversized_job_panics() {
        let jobs = vec![Job::new(1, 0.0, 10.0, 10.0, 8)];
        let _ = sim(4).run(&jobs, &mut Sjf);
    }
}
