//! The event-driven scheduling simulator (the paper's "Simulated Env").
//!
//! The driver mirrors SchedGym (RLScheduler) extended with rejection
//! support, as §3.2 describes:
//!
//! 1. arrivals are admitted into the waiting queue;
//! 2. at each scheduling point the base policy selects the top-priority
//!    waiting job;
//! 3. the inspector sees the full scheduling context; on **reject** the job
//!    returns to the queue and time advances to the next scheduling point
//!    (next arrival, next completion, or `now + MAX_INTERVAL`, whichever is
//!    first); a job rejected `MAX_REJECTION_TIMES` times is no longer
//!    inspected;
//! 4. on **accept** the job starts as soon as resources allow; while it
//!    waits, EASY backfilling (when enabled) may start other queued jobs.

use obs::Telemetry;
use workload::Job;

use crate::backfill::{can_backfill, count_backfillable};
use crate::cluster::Cluster;
use crate::config::SimConfig;
use crate::metrics::{JobOutcome, SimResult};
use crate::policy::{Best, InspectorHook, NoInspector, PolicyContext, SchedulingPolicy};
use crate::state::{Observation, QueueEntry};

/// A reusable simulator bound to a machine size and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulator {
    procs: u32,
    config: SimConfig,
}

impl Simulator {
    /// A simulator for a machine with `procs` processors.
    pub fn new(procs: u32, config: SimConfig) -> Self {
        assert!(procs > 0, "cluster needs at least one processor");
        assert!(config.max_interval > 0.0, "MAX_INTERVAL must be positive");
        Simulator { procs, config }
    }

    /// Machine size.
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run a sequence under the base policy alone.
    pub fn run(&self, jobs: &[Job], policy: &mut dyn SchedulingPolicy) -> SimResult {
        self.run_inspected(jobs, policy, &mut NoInspector)
    }

    /// Run a sequence with an inspector scrutinizing every decision.
    pub fn run_inspected(
        &self,
        jobs: &[Job],
        policy: &mut dyn SchedulingPolicy,
        inspector: &mut dyn InspectorHook,
    ) -> SimResult {
        self.run_traced(jobs, policy, inspector, &Telemetry::disabled())
    }

    /// Like [`Simulator::run_inspected`], but streaming per-scheduling-point
    /// telemetry: `sim.accept` / `sim.reject` / `sim.backfill` counters and a
    /// `sim.util` utilization gauge sampled at every inspected decision. With
    /// a disabled handle this *is* `run_inspected` — the hot loop only pays
    /// an `Option` check per scheduling point.
    pub fn run_traced(
        &self,
        jobs: &[Job],
        policy: &mut dyn SchedulingPolicy,
        inspector: &mut dyn InspectorHook,
        telemetry: &Telemetry,
    ) -> SimResult {
        assert!(
            jobs.iter().all(|j| j.procs <= self.procs),
            "sequence contains a job wider than the machine"
        );
        Sim::new(jobs, self.procs, self.config, telemetry).run(policy, inspector)
    }
}

/// Convenience: simulate a sequence on a machine sized to its widest job.
/// Prefer [`Simulator`] where the trace's real machine size is known.
pub fn simulate(jobs: &[Job], policy: &mut dyn SchedulingPolicy, config: &SimConfig) -> SimResult {
    let procs = jobs.iter().map(|j| j.procs).max().unwrap_or(1);
    Simulator::new(procs, *config).run(jobs, policy)
}

/// Simulate a whole trace obtained from any [`workload::TraceSource`]
/// (SWF archive, calibrated synthetic profile, scenario-compiled, ...) on
/// its own machine size. This is the source-based entry point the unified
/// ingestion API routes through; the underlying loop is [`Simulator::run`].
pub fn simulate_source(
    source: &dyn workload::TraceSource,
    policy: &mut dyn SchedulingPolicy,
    config: &SimConfig,
) -> Result<SimResult, workload::SourceError> {
    let trace = source.load()?;
    Ok(Simulator::new(trace.procs, *config).run(&trace.jobs, policy))
}

struct Sim<'a> {
    jobs: &'a [Job],
    config: SimConfig,
    telemetry: &'a Telemetry,
    cluster: Cluster,
    /// Indices (into `jobs`) of waiting jobs.
    queue: Vec<usize>,
    /// Per-job rejection counts.
    rejections: Vec<u32>,
    next_arrival: usize,
    now: f64,
    outcomes: Vec<JobOutcome>,
    inspections: u64,
    total_rejections: u64,
    /// Reusable storage for [`Observation::queue`], reclaimed after every
    /// inspection so the steady-state loop does not allocate.
    obs_scratch: Vec<QueueEntry>,
    /// Reusable storage for [`Cluster::reservation_with`]'s release list.
    res_scratch: Vec<(f64, u32)>,
}

impl<'a> Sim<'a> {
    fn new(jobs: &'a [Job], procs: u32, config: SimConfig, telemetry: &'a Telemetry) -> Self {
        Sim {
            jobs,
            config,
            telemetry,
            cluster: Cluster::new(procs),
            queue: Vec::new(),
            rejections: vec![0; jobs.len()],
            next_arrival: 0,
            now: 0.0,
            outcomes: Vec::with_capacity(jobs.len()),
            inspections: 0,
            total_rejections: 0,
            obs_scratch: Vec::new(),
            res_scratch: Vec::new(),
        }
    }

    fn run(
        mut self,
        policy: &mut dyn SchedulingPolicy,
        inspector: &mut dyn InspectorHook,
    ) -> SimResult {
        loop {
            self.admit_arrivals();
            if self.queue.is_empty() {
                if self.next_arrival < self.jobs.len() {
                    self.now = self.now.max(self.jobs[self.next_arrival].submit);
                    self.cluster.release_up_to(self.now);
                    continue;
                }
                break; // no waiting jobs, no future arrivals: done
            }

            let qpos = self.select(policy);
            let jidx = self.queue[qpos];
            let job = self.jobs[jidx];

            // Jobs over the rejection cap are no longer inspected (§3.2).
            if self.rejections[jidx] < self.config.max_rejections {
                self.inspections += 1;
                let obs = self.observe(jidx);
                let rejected = inspector.inspect(&obs);
                // Reclaim the observation's queue buffer for the next
                // scheduling point.
                self.obs_scratch = obs.queue;
                if self.telemetry.is_enabled() {
                    let total = self.cluster.total_procs();
                    let busy = total - self.cluster.free_procs();
                    self.telemetry.gauge("sim.util", busy as f64 / total as f64);
                    self.telemetry
                        .count(if rejected { "sim.reject" } else { "sim.accept" }, 1);
                }
                if rejected {
                    self.total_rejections += 1;
                    self.rejections[jidx] += 1;
                    self.advance_after_rejection();
                    continue;
                }
            }

            self.queue.swap_remove(qpos);
            self.wait_and_start(job, self.rejections[jidx], policy);
        }
        SimResult {
            outcomes: self.outcomes,
            total_procs: self.cluster.total_procs(),
            inspections: self.inspections,
            rejections: self.total_rejections,
        }
    }

    fn admit_arrivals(&mut self) {
        while self.next_arrival < self.jobs.len() && self.jobs[self.next_arrival].submit <= self.now
        {
            self.queue.push(self.next_arrival);
            self.next_arrival += 1;
        }
    }

    /// Index *within the queue* of the job the policy selects (for
    /// heuristics: lowest score, ties broken by smaller job id).
    ///
    /// A policy returning an out-of-range index is a bug; it fails loudly
    /// in every build profile rather than being clamped to a valid job.
    fn select(&mut self, policy: &mut dyn SchedulingPolicy) -> usize {
        let ctx = PolicyContext {
            now: self.now,
            total_procs: self.cluster.total_procs(),
            free_procs: self.cluster.free_procs(),
        };
        let pos = policy.select(&self.queue, self.jobs, &ctx);
        if pos >= self.queue.len() {
            panic!(
                "policy {:?} selected queue position {pos}, but the queue holds {} jobs",
                policy.name(),
                self.queue.len(),
            );
        }
        pos
    }

    fn observe(&mut self, jidx: usize) -> Observation {
        let job = self.jobs[jidx];
        let runnable = self.cluster.can_run(job.procs);
        let backfillable = if self.config.backfill && !runnable {
            match self
                .cluster
                .reservation_with(job.procs, self.now, &mut self.res_scratch)
            {
                Some((t_res, extra)) => count_backfillable(
                    self.queue
                        .iter()
                        .filter(|&&q| q != jidx)
                        .map(|&q| self.jobs[q]),
                    self.now,
                    &self.cluster,
                    t_res,
                    extra,
                ),
                None => 0,
            }
        } else {
            0
        };
        let mut queue = std::mem::take(&mut self.obs_scratch);
        queue.clear();
        queue.extend(self.queue.iter().filter(|&&q| q != jidx).map(|&q| {
            let j = &self.jobs[q];
            QueueEntry {
                id: j.id,
                wait: self.now - j.submit,
                estimate: j.estimate,
                procs: j.procs,
            }
        }));
        Observation {
            now: self.now,
            job,
            wait: self.now - job.submit,
            rejections: self.rejections[jidx],
            max_rejections: self.config.max_rejections,
            free_procs: self.cluster.free_procs(),
            total_procs: self.cluster.total_procs(),
            runnable,
            backfill_enabled: self.config.backfill,
            backfillable,
            queue,
        }
    }

    /// After a rejection: move to the next scheduling point — the next
    /// arrival, the next completion, or `now + MAX_INTERVAL`, whichever
    /// comes first.
    fn advance_after_rejection(&mut self) {
        let mut t_next = self.now + self.config.max_interval;
        if self.next_arrival < self.jobs.len() {
            t_next = t_next.min(self.jobs[self.next_arrival].submit);
        }
        if let Some(tc) = self.cluster.next_completion() {
            t_next = t_next.min(tc);
        }
        debug_assert!(t_next > self.now, "scheduling point must advance time");
        self.now = t_next;
        self.cluster.release_up_to(self.now);
    }

    /// Commit to `job`: wait (backfilling meanwhile if enabled) until it can
    /// start, then start it.
    fn wait_and_start(&mut self, job: Job, rejections: u32, policy: &mut dyn SchedulingPolicy) {
        while !self.cluster.can_run(job.procs) {
            if self.config.backfill {
                self.backfill_pass(&job, policy);
                if self.cluster.can_run(job.procs) {
                    break;
                }
            }
            // Advance to the next event — a completion or an arrival (new
            // arrivals matter because they may backfill into the hole).
            let tc = self
                .cluster
                .next_completion()
                .expect("job cannot run on an idle cluster: trace validation should prevent this");
            let t_next = match self.jobs.get(self.next_arrival) {
                Some(next) if next.submit < tc => next.submit,
                _ => tc,
            };
            self.now = self.now.max(t_next);
            self.cluster.release_up_to(self.now);
            self.admit_arrivals();
        }
        self.start_job(job, rejections, false, policy);
    }

    /// One EASY pass: start every queued job that cannot delay the
    /// committed job's reservation, in policy-priority order.
    fn backfill_pass(&mut self, committed: &Job, policy: &mut dyn SchedulingPolicy) {
        loop {
            let Some((t_res, extra)) =
                self.cluster
                    .reservation_with(committed.procs, self.now, &mut self.res_scratch)
            else {
                return;
            };
            let ctx = PolicyContext {
                now: self.now,
                total_procs: self.cluster.total_procs(),
                free_procs: self.cluster.free_procs(),
            };
            let mut best = Best::default();
            for (pos, &jidx) in self.queue.iter().enumerate() {
                let j = &self.jobs[jidx];
                if can_backfill(j, self.now, &self.cluster, t_res, extra) {
                    best.offer(pos, policy.score(j, &ctx), j.id);
                }
            }
            let Some(pos) = best.pos() else { return };
            let jidx = self.queue.swap_remove(pos);
            let job = self.jobs[jidx];
            let rejections = self.rejections[jidx];
            self.start_job(job, rejections, true, policy);
        }
    }

    fn start_job(
        &mut self,
        job: Job,
        rejections: u32,
        backfilled: bool,
        policy: &mut dyn SchedulingPolicy,
    ) {
        debug_assert!(self.cluster.can_run(job.procs));
        if backfilled {
            self.telemetry.count("sim.backfill", 1);
        }
        self.cluster
            .start(job.id, job.procs, self.now, job.runtime, job.estimate);
        policy.on_start(&job, self.now);
        self.outcomes.push(JobOutcome {
            id: job.id,
            submit: job.submit,
            start: self.now,
            end: self.now + job.runtime,
            runtime: job.runtime,
            procs: job.procs,
            backfilled,
            rejections,
        });
    }
}
