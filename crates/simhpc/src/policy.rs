//! Traits the simulator drives: base scheduling policies and inspectors.

use workload::Job;

use crate::state::Observation;

/// Context handed to a policy when scoring a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyContext {
    /// Current simulation time.
    pub now: f64,
    /// Total processors of the cluster.
    pub total_procs: u32,
    /// Currently free processors (lets learned policies reason about
    /// immediate runnability).
    pub free_procs: u32,
}

/// The priority-heuristic rule, spelled once: of the candidates offered,
/// the **lowest score** wins and ties go to the **smaller job id** (the
/// paper's convention). The default [`SchedulingPolicy::select`], the
/// simulator's backfill pass and every `select` override that still picks
/// by score accumulate through this.
///
/// The first candidate offered is always taken; a later one replaces it
/// only by comparing lower, so a NaN score never displaces anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct Best {
    /// `(position, score, id)` of the leading candidate.
    lead: Option<(usize, f64, u64)>,
}

impl Best {
    /// Offer the candidate at `pos` (whatever the caller's positions
    /// index) with its `score` and job `id`.
    #[inline]
    pub fn offer(&mut self, pos: usize, score: f64, id: u64) {
        let better = match self.lead {
            None => true,
            Some((_, s, i)) => score < s || (score == s && id < i),
        };
        if better {
            self.lead = Some((pos, score, id));
        }
    }

    /// Position of the winning candidate; `None` if none was offered.
    #[inline]
    pub fn pos(&self) -> Option<usize> {
        self.lead.map(|(pos, _, _)| pos)
    }
}

/// A base batch-job scheduling policy (Table 3).
///
/// Policies are *priority heuristics*: at each scheduling point the waiting
/// job with the **lowest score** is selected (ties broken by smaller job
/// id, as in the paper's motivating example). Stateful policies (Slurm
/// fairshare) update their accounting through [`SchedulingPolicy::on_start`].
pub trait SchedulingPolicy {
    /// Score a waiting job; lower runs first.
    fn score(&mut self, job: &Job, ctx: &PolicyContext) -> f64;

    /// Select the next job from a non-empty queue, returning its position
    /// *within the queue*.
    ///
    /// The queue is passed as indices into `jobs` (the simulated sequence)
    /// rather than as a materialized `Vec<Job>`, so the simulator's hot
    /// loop never clones the queue. The default is the priority-heuristic
    /// rule: lowest score, ties broken by smaller job id (the paper's
    /// convention). Learned policies that need a *joint* view of the queue
    /// (e.g. an RLScheduler-style softmax selector) override this.
    fn select(&mut self, queue: &[usize], jobs: &[Job], ctx: &PolicyContext) -> usize {
        debug_assert!(!queue.is_empty());
        let mut best = Best::default();
        for (pos, &jidx) in queue.iter().enumerate() {
            let job = &jobs[jidx];
            best.offer(pos, self.score(job, ctx), job.id);
        }
        best.pos().unwrap_or(0)
    }

    /// Notification that a job started executing at `now`.
    fn on_start(&mut self, _job: &Job, _now: f64) {}

    /// Human-readable policy name (e.g. `"SJF"`).
    fn name(&self) -> &str;
}

/// The inspector interface: inspect a scheduling decision and decide
/// whether to reject it (`true` = reject, put the job back).
pub trait InspectorHook {
    /// Inspect one decision.
    fn inspect(&mut self, obs: &Observation) -> bool;
}

/// The trivial inspector: never rejects (plain base-policy scheduling).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInspector;

impl InspectorHook for NoInspector {
    fn inspect(&mut self, _obs: &Observation) -> bool {
        false
    }
}

/// Blanket impl so closures can serve as inspectors in tests and examples.
impl<F: FnMut(&Observation) -> bool> InspectorHook for F {
    fn inspect(&mut self, obs: &Observation) -> bool {
        self(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_lowest_score_then_smaller_id() {
        assert_eq!(Best::default().pos(), None);
        let mut best = Best::default();
        for (pos, (score, id)) in [(5.0, 9), (2.0, 7), (2.0, 3), (2.0, 4), (3.0, 1)]
            .into_iter()
            .enumerate()
        {
            best.offer(pos, score, id);
        }
        assert_eq!(best.pos(), Some(2));
        // An infinite score is still a candidate when it is the only one.
        let mut only = Best::default();
        only.offer(4, f64::INFINITY, u64::MAX);
        assert_eq!(only.pos(), Some(4));
    }

    #[test]
    fn closure_is_an_inspector() {
        let mut count = 0usize;
        let mut hook = |_: &Observation| {
            count += 1;
            false
        };
        let obs = Observation {
            now: 0.0,
            job: Job::new(1, 0.0, 1.0, 1.0, 1),
            wait: 0.0,
            rejections: 0,
            max_rejections: 72,
            free_procs: 1,
            total_procs: 1,
            runnable: true,
            backfill_enabled: false,
            backfillable: 0,
            queue: vec![],
        };
        assert!(!hook.inspect(&obs));
        let _ = hook;
        assert_eq!(count, 1);
    }
}
