//! Job-execution performance metrics (§2.1, §4.4.3, §4.4.4).

/// The "interactive threshold" of the bounded slowdown (10 seconds).
pub const BSLD_THRESHOLD: f64 = 10.0;

/// The job-execution metric a scheduler/inspector optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Average bounded job slowdown (`bsld`).
    Bsld,
    /// Average job waiting time in seconds (`wait`).
    Wait,
    /// Maximal bounded job slowdown of the sequence (`mbsld`).
    MaxBsld,
}

impl Metric {
    /// Short name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Bsld => "bsld",
            Metric::Wait => "wait",
            Metric::MaxBsld => "mbsld",
        }
    }
}

impl std::str::FromStr for Metric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bsld" => Ok(Metric::Bsld),
            "wait" => Ok(Metric::Wait),
            "mbsld" | "maxbsld" => Ok(Metric::MaxBsld),
            other => Err(format!("unknown metric {other:?}")),
        }
    }
}

/// Execution record of one finished job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: u64,
    /// Submission time.
    pub submit: f64,
    /// Start time.
    pub start: f64,
    /// Completion time (start + actual runtime).
    pub end: f64,
    /// Actual runtime.
    pub runtime: f64,
    /// Allocated processors.
    pub procs: u32,
    /// Whether the job was started by backfilling.
    pub backfilled: bool,
    /// How many times the inspector rejected this job.
    pub rejections: u32,
}

impl JobOutcome {
    /// Waiting time `start − submit`.
    pub fn wait(&self) -> f64 {
        self.start - self.submit
    }

    /// Bounded slowdown `max((wait + exe) / max(exe, 10 s), 1)`.
    pub fn bsld(&self) -> f64 {
        ((self.wait() + self.runtime) / self.runtime.max(BSLD_THRESHOLD)).max(1.0)
    }
}

/// Result of simulating one job sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-job outcomes, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Total processors of the simulated cluster.
    pub total_procs: u32,
    /// Number of inspector consultations.
    pub inspections: u64,
    /// Number of rejections issued.
    pub rejections: u64,
}

impl SimResult {
    /// Average waiting time in seconds.
    pub fn wait(&self) -> f64 {
        self.mean(JobOutcome::wait)
    }

    /// Average bounded slowdown.
    pub fn bsld(&self) -> f64 {
        self.mean(JobOutcome::bsld)
    }

    /// Maximal bounded slowdown.
    pub fn mbsld(&self) -> f64 {
        self.outcomes
            .iter()
            .map(JobOutcome::bsld)
            .fold(0.0, f64::max)
    }

    /// Makespan: last completion − first submission.
    pub fn makespan(&self) -> f64 {
        let first = self
            .outcomes
            .iter()
            .map(|o| o.submit)
            .fold(f64::INFINITY, f64::min);
        let last = self.outcomes.iter().map(|o| o.end).fold(0.0, f64::max);
        if self.outcomes.is_empty() {
            0.0
        } else {
            last - first
        }
    }

    /// System utilization: executed proc-seconds over available
    /// proc-seconds across the makespan (§4.4.4).
    pub fn util(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .outcomes
            .iter()
            .map(|o| o.runtime * o.procs as f64)
            .sum();
        busy / (span * self.total_procs as f64)
    }

    /// Fraction of inspections that rejected (the Fig. 7 "Rejection Ratio").
    pub fn rejection_ratio(&self) -> f64 {
        if self.inspections == 0 {
            0.0
        } else {
            self.rejections as f64 / self.inspections as f64
        }
    }

    /// Value of the requested scalar metric.
    pub fn metric(&self, m: Metric) -> f64 {
        match m {
            Metric::Bsld => self.bsld(),
            Metric::Wait => self.wait(),
            Metric::MaxBsld => self.mbsld(),
        }
    }

    fn mean(&self, f: impl Fn(&JobOutcome) -> f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(f).sum::<f64>() / self.outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(submit: f64, start: f64, runtime: f64, procs: u32) -> JobOutcome {
        JobOutcome {
            id: 0,
            submit,
            start,
            end: start + runtime,
            runtime,
            procs,
            backfilled: false,
            rejections: 0,
        }
    }

    #[test]
    fn bsld_is_bounded_below_by_one() {
        let o = outcome(0.0, 0.0, 100.0, 1);
        assert_eq!(o.bsld(), 1.0);
    }

    #[test]
    fn bsld_uses_interactive_threshold() {
        // 2 s job waiting 8 s: (8+2)/max(2,10) = 1.0, not 5.0.
        let o = outcome(0.0, 8.0, 2.0, 1);
        assert_eq!(o.bsld(), 1.0);
        // 2 s job waiting 18 s: (18+2)/10 = 2.0.
        let o = outcome(0.0, 18.0, 2.0, 1);
        assert_eq!(o.bsld(), 2.0);
    }

    #[test]
    fn aggregate_metrics() {
        let r = SimResult {
            outcomes: vec![outcome(0.0, 10.0, 20.0, 2), outcome(5.0, 10.0, 40.0, 4)],
            total_procs: 8,
            inspections: 10,
            rejections: 4,
        };
        assert_eq!(r.wait(), 7.5);
        // bslds: (10+20)/20 = 1.5 and (5+40)/40 = 1.125.
        assert!((r.bsld() - (1.5 + 1.125) / 2.0).abs() < 1e-12);
        assert_eq!(r.mbsld(), 1.5);
        // makespan = 50 - 0; busy = 20*2 + 40*4 = 200; util = 200/400.
        assert_eq!(r.makespan(), 50.0);
        assert!((r.util() - 0.5).abs() < 1e-12);
        assert!((r.rejection_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_zero() {
        let r = SimResult {
            outcomes: vec![],
            total_procs: 4,
            inspections: 0,
            rejections: 0,
        };
        assert_eq!(r.wait(), 0.0);
        assert_eq!(r.util(), 0.0);
        assert_eq!(r.rejection_ratio(), 0.0);
    }

    #[test]
    fn metric_parsing() {
        assert_eq!("bsld".parse::<Metric>().unwrap(), Metric::Bsld);
        assert_eq!("WAIT".parse::<Metric>().unwrap(), Metric::Wait);
        assert_eq!("mbsld".parse::<Metric>().unwrap(), Metric::MaxBsld);
        assert!("xyz".parse::<Metric>().is_err());
    }
}
