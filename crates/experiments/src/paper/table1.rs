//! **Table 1** — the motivating example (§2.1, Fig. 1): scheduling two
//! small job sequences on a 5-node cluster with SJF, with and without a
//! (scripted) inspector that rejects J0's first scheduling decision.
//!
//! Case (b) reproduces the paper's numbers exactly. Case (a) is adapted:
//! the paper's Fig. 1(a) narrative mixes two scheduler semantics (J1 is
//! simultaneously committed at t0 *and* re-prioritized against the
//! later-arriving J2); under the committing semantics the paper's own §3.2
//! prescribes ("the simulator will wait until enough resources are
//! released"), the closest consistent configuration is used and both
//! metric improvements still hold. See EXPERIMENTS.md.

use policies::Sjf;
use simhpc::{InspectorHook, JobOutcome, Observation, SimConfig, SimResult, Simulator};
use workload::Job;

use crate::ctx::{Ctx, Outcome};
use crate::output::f4;

/// The figure's timeline is in minutes.
pub const MIN: f64 = 60.0;

/// Reject the first inspection of job `target`, accept everything else.
struct RejectOnce {
    target: u64,
    done: bool,
}

impl InspectorHook for RejectOnce {
    fn inspect(&mut self, obs: &Observation) -> bool {
        if !self.done && obs.job.id == self.target {
            self.done = true;
            return true;
        }
        false
    }
}

fn job(id: u64, submit_min: f64, exe_min: f64, procs: u32) -> Job {
    Job::new(id, submit_min * MIN, exe_min * MIN, exe_min * MIN, procs)
}

/// Case (a): the selected shortest job can run immediately.
fn case_a() -> Vec<Job> {
    vec![
        job(0, 0.0, 4.0, 2), // Jp — preliminary job, excluded from metrics
        job(1, 0.0, 5.0, 3), // J0
        job(2, 0.0, 5.0, 2), // J1
        job(3, 1.0, 3.0, 2), // J2
    ]
}

/// Case (b): the selected shortest job lacks resources (paper-exact).
fn case_b() -> Vec<Job> {
    vec![
        job(0, 0.0, 3.0, 2), // Jp
        job(1, 0.0, 5.0, 4), // J0
        job(2, 1.0, 3.0, 2), // J1
    ]
}

/// One row of Table 1: the paper's numbers and the schedule this
/// reproduction's simulator produces for the same case.
pub struct Case {
    /// `Case(a)-NoInspect` … `Case(b)-Inspected`.
    pub name: &'static str,
    /// The paper's mean wait, minutes.
    pub paper_wait: f64,
    /// The paper's mean bounded slowdown.
    pub paper_bsld: f64,
    /// The full schedule, preliminary job included.
    pub result: SimResult,
}

impl Case {
    fn new(name: &'static str, paper: (f64, f64), jobs: &[Job], inspect: bool) -> Case {
        let sim = Simulator::new(5, SimConfig::default());
        let result = if inspect {
            let mut hook = RejectOnce {
                target: 1,
                done: false,
            };
            sim.run_inspected(jobs, &mut Sjf, &mut hook)
        } else {
            sim.run(jobs, &mut Sjf)
        };
        Case {
            name,
            paper_wait: paper.0,
            paper_bsld: paper.1,
            result,
        }
    }

    /// Mean of `f` over the sequence excluding the preliminary job Jp
    /// (id 0).
    fn mean(&self, f: fn(&JobOutcome) -> f64) -> f64 {
        let jobs: Vec<_> = self.result.outcomes.iter().filter(|o| o.id != 0).collect();
        jobs.iter().map(|o| f(o)).sum::<f64>() / jobs.len() as f64
    }

    /// Mean wait in minutes.
    pub fn wait(&self) -> f64 {
        self.mean(JobOutcome::wait) / MIN
    }

    /// Mean bounded slowdown.
    pub fn bsld(&self) -> f64 {
        self.mean(JobOutcome::bsld)
    }
}

/// The four rows of Table 1, in the paper's order.
pub fn cases() -> [Case; 4] {
    [
        Case::new("Case(a)-NoInspect", (3.0, 1.77), &case_a(), false),
        Case::new("Case(a)-Inspected", (3.0, 1.53), &case_a(), true),
        Case::new("Case(b)-NoInspect", (5.0, 2.45), &case_b(), false),
        Case::new("Case(b)-Inspected", (2.0, 1.40), &case_b(), true),
    ]
}

pub fn table1_motivating(ctx: &mut Ctx) -> Outcome {
    let cases = cases();
    let rows = cases.iter().map(|c| {
        vec![
            c.name.to_string(),
            c.paper_wait.to_string(),
            f4(c.wait()),
            c.paper_bsld.to_string(),
            f4(c.bsld()),
        ]
    });
    let mut out = Outcome::default();
    let header = "case,wait_paper,wait_ours,bsld_paper,bsld_ours";
    out.csv_table(ctx, "table1_motivating.csv", header, rows.collect());
    let [a0, a1, b0, b1] = &cases;
    let measured = |base: &Case, inspected: &Case| {
        format!(
            "bsld {:.2} -> {:.2}, wait {:.2} -> {:.2}",
            base.bsld(),
            inspected.bsld(),
            base.wait(),
            inspected.wait()
        )
    };
    out.enforce(
        "case (a): rejecting J0's first decision improves bsld",
        measured(a0, a1),
        a1.bsld() < a0.bsld(),
    );
    out.enforce(
        "case (b): rejecting J0's first decision improves bsld and wait",
        measured(b0, b1),
        b1.bsld() < b0.bsld() && b1.wait() < b0.wait(),
    );
    out
}
