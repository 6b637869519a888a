//! Slurm multifactor priority plug-in (§4.5).
//!
//! Implements the paper's published priority formula
//!
//! ```text
//! Job_Priority = w_age · age_factor + w_fairshare · fairshare_factor
//!              + w_jattr · job_attribute_factor + w_partition · partition_factor
//! ```
//!
//! with all weights 1000 as in the paper. Factor construction follows §4.5:
//!
//! * `age_factor` — the job's waiting time normalized by 7 days (capped at 1);
//! * `fairshare_factor` — the "normal model" `2^(-usage/share)`, where the
//!   user's *assigned share* is derived from her actual CPU usage across the
//!   whole trace (exactly the paper's derivation) and her *usage* is the CPU
//!   time consumed so far in the simulation;
//! * `job_attribute_factor` — built from the requested execution time
//!   (shorter ⇒ larger factor), normalized by the trace's maximum estimate;
//! * `partition_factor` — each queue's share of total CPU usage across the
//!   trace, used as the queue priority.

use std::collections::HashMap;

use simhpc::{Best, PolicyContext, SchedulingPolicy};
use workload::{Job, JobTrace};

use crate::memo::Memo;

const WEIGHT: f64 = 1000.0;
const AGE_NORM: f64 = 7.0 * 24.0 * 3600.0; // 7 days

/// Slurm-style multifactor priority policy with fairshare accounting.
///
/// Of the four terms only `age` depends on the scheduling point. The
/// job-attribute and partition terms depend on the job alone and the
/// fairshare term on the user's accounting, so `select` keeps them: a
/// per-job memo validated by the job's inputs, and per-user accounting in
/// dense slots with the fairshare term cached until the accounting next
/// changes. `score` and [`SlurmMultifactor::priority`] compute the same
/// terms with the same functions, uncached.
#[derive(Debug, Clone)]
pub struct SlurmMultifactor {
    /// Accounting slot of every user of the trace. All other users share
    /// the last slot, whose share is zero.
    slot_of: HashMap<u32, u32>,
    /// Assigned share per slot (fraction of trace CPU usage).
    share: Vec<f64>,
    /// CPU-seconds consumed per slot in the current simulation.
    usage: Vec<f64>,
    /// Per slot: `WEIGHT · fairshare_factor` and the `generation` it was
    /// computed in.
    fairshare: Vec<(u64, f64)>,
    /// Bumped whenever the accounting changes (`on_start`, `reset_usage`);
    /// starts above every slot's so nothing is cached at first.
    generation: u64,
    /// Queue priority per queue id (fraction of trace CPU usage).
    queue_priority: HashMap<u32, f64>,
    /// Normalizer for the job-attribute factor.
    max_estimate: f64,
    /// Total CPU-seconds consumed in the current simulation.
    total_usage: f64,
    /// Per job: its slot and its two constant terms, keyed by what they
    /// are computed from — user, queue and estimate (as bits).
    memo: Memo<(u32, u32, u64), JobTerms>,
}

/// A job's accounting slot, `WEIGHT · job_attribute_factor` and
/// `WEIGHT · partition_factor`.
type JobTerms = (u32, f64, f64);

impl SlurmMultifactor {
    /// Derive shares and queue priorities from a trace (§4.5: "use a user's
    /// actual CPU usage as her assigned shares" and "count the CPU usages
    /// of each queue across the whole trace").
    pub fn from_trace(trace: &JobTrace) -> Self {
        let mut slot_of: HashMap<u32, u32> = HashMap::new();
        let mut share: Vec<f64> = Vec::new();
        let mut queue: HashMap<u32, f64> = HashMap::new();
        let mut total = 0.0;
        let mut max_estimate: f64 = 1.0;
        for j in &trace.jobs {
            let cpu = j.runtime * j.procs as f64;
            let slot = *slot_of.entry(j.user).or_insert_with(|| {
                share.push(0.0);
                (share.len() - 1) as u32
            });
            share[slot as usize] += cpu;
            *queue.entry(j.queue).or_insert(0.0) += cpu;
            total += cpu;
            max_estimate = max_estimate.max(j.estimate);
        }
        if total > 0.0 {
            for v in &mut share {
                *v /= total;
            }
            for v in queue.values_mut() {
                *v /= total;
            }
        }
        // The slot of users the trace does not know.
        share.push(0.0);
        SlurmMultifactor {
            slot_of,
            usage: vec![0.0; share.len()],
            fairshare: vec![(0, 0.0); share.len()],
            share,
            generation: 1,
            queue_priority: queue,
            max_estimate,
            total_usage: 0.0,
            memo: Memo::default(),
        }
    }

    /// Reset the per-simulation fairshare accounting (call between
    /// independent sequences).
    pub fn reset_usage(&mut self) {
        self.usage.fill(0.0);
        self.total_usage = 0.0;
        self.generation += 1;
    }

    fn slot(&self, user: u32) -> u32 {
        let unknown = (self.share.len() - 1) as u32;
        self.slot_of.get(&user).copied().unwrap_or(unknown)
    }

    fn fairshare_factor(&self, slot: u32) -> f64 {
        let share = self.share[slot as usize];
        if share <= 0.0 {
            // Unknown user: neutral factor.
            return 0.5;
        }
        if self.total_usage <= 0.0 {
            return 1.0;
        }
        let usage = self.usage[slot as usize];
        if usage == 0.0 {
            // Exactly what the damping below gives, without the `powf`:
            // 2^(-0/share) = 2^(-0) = 1. Most users of a window have
            // started nothing yet.
            return 1.0;
        }
        let used = usage / self.total_usage;
        // Slurm's "normal" fairshare damping: 2^(-usage/share).
        2f64.powf(-used / share)
    }

    fn age_term(job: &Job, now: f64) -> f64 {
        WEIGHT * ((now - job.submit) / AGE_NORM).clamp(0.0, 1.0)
    }

    fn fairshare_term(&self, slot: u32) -> f64 {
        WEIGHT * self.fairshare_factor(slot)
    }

    fn job_terms(&self, job: &Job) -> JobTerms {
        let jattr = 1.0 - (job.estimate / self.max_estimate).clamp(0.0, 1.0);
        let partition = self.queue_priority.get(&job.queue).copied().unwrap_or(0.0);
        (self.slot(job.user), WEIGHT * jattr, WEIGHT * partition)
    }

    /// The (positive) multifactor priority of a job; bigger runs first.
    pub fn priority(&self, job: &Job, now: f64) -> f64 {
        let (slot, jattr, partition) = self.job_terms(job);
        Self::age_term(job, now) + self.fairshare_term(slot) + jattr + partition
    }
}

impl SchedulingPolicy for SlurmMultifactor {
    #[inline]
    fn score(&mut self, job: &Job, ctx: &PolicyContext) -> f64 {
        // The simulator selects the minimum score; Slurm runs the highest
        // priority first.
        -self.priority(job, ctx.now)
    }

    fn select(&mut self, queue: &[usize], jobs: &[Job], ctx: &PolicyContext) -> usize {
        debug_assert!(!queue.is_empty());
        self.memo.fit(jobs.len());
        let mut best = Best::default();
        for (pos, &jidx) in queue.iter().enumerate() {
            let job = &jobs[jidx];
            let inputs = (job.user, job.queue, job.estimate.to_bits());
            let (slot, jattr, partition) = match self.memo.get(jidx, inputs) {
                Some(terms) => terms,
                None => {
                    let terms = self.job_terms(job);
                    self.memo.put(jidx, inputs, terms);
                    terms
                }
            };
            let (generation, mut fairshare) = self.fairshare[slot as usize];
            if generation != self.generation {
                fairshare = self.fairshare_term(slot);
                self.fairshare[slot as usize] = (self.generation, fairshare);
            }
            // The terms in `priority`'s order: float addition is not
            // associative and the schedule hangs on the last bit.
            let priority = Self::age_term(job, ctx.now) + fairshare + jattr + partition;
            best.offer(pos, -priority, job.id);
        }
        best.pos().unwrap_or(0)
    }

    fn on_start(&mut self, job: &Job, _now: f64) {
        let cpu = job.runtime * job.procs as f64;
        let slot = self.slot(job.user);
        self.usage[slot as usize] += cpu;
        self.total_usage += cpu;
        self.generation += 1;
    }

    fn name(&self) -> &str {
        "Slurm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> JobTrace {
        let mut jobs = Vec::new();
        // User 0 is a heavy user (share ~0.8), user 1 light (share ~0.2).
        for i in 0..8 {
            jobs.push(Job {
                user: 0,
                queue: 0,
                ..Job::new(i + 1, i as f64, 100.0, 200.0, 4)
            });
        }
        for i in 8..10 {
            jobs.push(Job {
                user: 1,
                queue: 1,
                ..Job::new(i + 1, i as f64, 100.0, 200.0, 4)
            });
        }
        JobTrace::new("t", 16, jobs).unwrap()
    }

    #[test]
    fn shares_sum_to_one() {
        let p = SlurmMultifactor::from_trace(&trace());
        let s: f64 = p.share.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((p.share[p.slot(0) as usize] - 0.8).abs() < 1e-12);
        assert_eq!(
            p.share[p.slot(99) as usize],
            0.0,
            "unknown users share nothing"
        );
        assert!((p.queue_priority[&1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn age_increases_priority() {
        let p = SlurmMultifactor::from_trace(&trace());
        let j = Job::new(1, 0.0, 100.0, 200.0, 4);
        assert!(p.priority(&j, 86_400.0) > p.priority(&j, 0.0));
    }

    #[test]
    fn fairshare_penalizes_over_consumers() {
        let mut p = SlurmMultifactor::from_trace(&trace());
        let heavy = Job {
            user: 0,
            ..Job::new(1, 0.0, 100.0, 200.0, 4)
        };
        let light = Job {
            user: 1,
            ..Job::new(2, 0.0, 100.0, 200.0, 4)
        };
        // User 1 consumes everything so far: her factor drops.
        p.on_start(
            &Job {
                user: 1,
                ..Job::new(3, 0.0, 1000.0, 1000.0, 8)
            },
            0.0,
        );
        assert!(
            p.fairshare_factor(p.slot(1)) < p.fairshare_factor(p.slot(0)),
            "over-consumer must rank below an idle user"
        );
        assert!(p.priority(&heavy, 0.0) > p.priority(&light, 0.0));
    }

    #[test]
    fn shorter_jobs_get_higher_attribute_factor() {
        let p = SlurmMultifactor::from_trace(&trace());
        let short = Job {
            user: 0,
            queue: 0,
            ..Job::new(1, 0.0, 50.0, 60.0, 4)
        };
        let long = Job {
            user: 0,
            queue: 0,
            ..Job::new(2, 0.0, 190.0, 200.0, 4)
        };
        assert!(p.priority(&short, 0.0) > p.priority(&long, 0.0));
    }

    #[test]
    fn reset_usage_clears_accounting() {
        let mut p = SlurmMultifactor::from_trace(&trace());
        p.on_start(&Job::new(1, 0.0, 100.0, 200.0, 4), 0.0);
        assert!(p.total_usage > 0.0);
        p.reset_usage();
        assert_eq!(p.total_usage, 0.0);
        assert!(p.usage.iter().all(|u| *u == 0.0));
    }

    #[test]
    fn select_sees_reset_usage_without_a_start_in_between() {
        let mut p = SlurmMultifactor::from_trace(&trace());
        let of_user = |id, user| Job {
            user,
            ..Job::new(id, 0.0, 100.0, 200.0, 4)
        };
        let jobs = [of_user(2, 0), of_user(1, 1)];
        let ctx = PolicyContext {
            now: 0.0,
            total_procs: 16,
            free_procs: 16,
        };
        p.on_start(&of_user(3, 1), 0.0);
        assert_eq!(p.select(&[0, 1], &jobs, &ctx), 0, "user 1 over-consumed");
        p.reset_usage();
        assert_eq!(p.select(&[0, 1], &jobs, &ctx), 1, "all even: smaller id");
    }

    /// The shortcut in `fairshare_factor`: a user with no usage has factor
    /// exactly 1.0 whatever the total and the share.
    #[test]
    fn zero_usage_damps_to_exactly_one() {
        let grid = [f64::MIN_POSITIVE, 1e-300, 1e-9, 0.2, 1.0, 3.0, 1e9, 1e300];
        for total in grid {
            for share in grid {
                let factor = 2f64.powf(-(0.0 / total) / share);
                assert_eq!(
                    factor.to_bits(),
                    1f64.to_bits(),
                    "total {total} share {share}"
                );
            }
        }
    }

    #[test]
    fn score_is_negated_priority() {
        let mut p = SlurmMultifactor::from_trace(&trace());
        let j = Job::new(1, 0.0, 100.0, 200.0, 4);
        let ctx = PolicyContext {
            now: 500.0,
            total_procs: 16,
            free_procs: 16,
        };
        let pri = p.priority(&j, 500.0);
        assert_eq!(p.score(&j, &ctx), -pri);
    }
}
