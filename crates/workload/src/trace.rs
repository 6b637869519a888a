//! Job traces: ordered job collections bound to a machine size.

use swf::{SwfHeader, SwfRecord, SwfTrace};

use crate::job::Job;
use crate::stats::TraceStats;

/// A job trace: the machine's processor count plus jobs sorted by submit
/// time. This is the unit the simulator, trainer, and evaluator consume.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// Human-readable trace name (e.g. `"SDSC-SP2"`).
    pub name: String,
    /// Total processors of the simulated cluster.
    pub procs: u32,
    /// Jobs sorted by non-decreasing submit time.
    pub jobs: Vec<Job>,
}

impl JobTrace {
    /// Build a trace, sorting jobs by submit time and validating that every
    /// job fits the machine.
    pub fn new(
        name: impl Into<String>,
        procs: u32,
        mut jobs: Vec<Job>,
    ) -> Result<Self, TraceError> {
        if procs == 0 {
            return Err(TraceError::EmptyMachine);
        }
        for j in &jobs {
            if j.procs == 0 || j.procs > procs {
                return Err(TraceError::JobTooLarge {
                    job: j.id,
                    procs: j.procs,
                    machine: procs,
                });
            }
            let positive = |x: f64| x.is_finite() && x > 0.0;
            if !positive(j.runtime) || !positive(j.estimate) {
                return Err(TraceError::NonPositiveTime { job: j.id });
            }
        }
        jobs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.id.cmp(&b.id)));
        Ok(JobTrace {
            name: name.into(),
            procs,
            jobs,
        })
    }

    /// Load from a parsed SWF trace. Oversized and unsimulatable records are
    /// dropped (matching common practice for archive logs, which contain
    /// failed submissions).
    pub fn from_swf(name: impl Into<String>, swf: &SwfTrace) -> Result<Self, TraceError> {
        let procs = swf.machine_procs().ok_or(TraceError::UnknownMachineSize)?;
        let jobs: Vec<Job> = swf
            .records
            .iter()
            .filter_map(Job::from_swf)
            .filter(|j| j.procs <= procs)
            .collect();
        Self::new(name, procs, jobs)
    }

    /// Serialize to an SWF document (with `MaxProcs` header).
    pub fn to_swf(&self) -> SwfTrace {
        let mut header = SwfHeader::default();
        header.absorb_comment(&format!(" Computer: synthetic {}", self.name));
        header.absorb_comment(&format!(" MaxProcs: {}", self.procs));
        header.absorb_comment(&format!(" MaxJobs: {}", self.jobs.len()));
        let records: Vec<SwfRecord> = self.jobs.iter().map(Job::to_swf).collect();
        SwfTrace { header, records }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Summary statistics (the Table 2 columns).
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(self)
    }

    /// Extract `len` consecutive jobs starting at index `start`, with submit
    /// times rebased so the first job arrives at t = 0. This is the paper's
    /// "job sequence" unit (128 jobs for training, 256 for testing).
    pub fn sequence(&self, start: usize, len: usize) -> Vec<Job> {
        let start = start.min(self.jobs.len());
        let end = (start + len).min(self.jobs.len());
        let slice = &self.jobs[start..end];
        let Some(first) = slice.first() else {
            return Vec::new();
        };
        let t0 = first.submit;
        slice
            .iter()
            .map(|j| Job {
                submit: j.submit - t0,
                ..*j
            })
            .collect()
    }

    /// Split into train/test sub-traces: the first `train_frac` of the jobs
    /// train, the rest test (§4.4: first 20% train, remaining 80% test).
    pub fn split(&self, train_frac: f64) -> (JobTrace, JobTrace) {
        let cut = ((self.jobs.len() as f64) * train_frac).round() as usize;
        let cut = cut.min(self.jobs.len());
        let mk = |part: &str, jobs: &[Job]| JobTrace {
            name: format!("{}-{part}", self.name),
            procs: self.procs,
            jobs: jobs.to_vec(),
        };
        (
            mk("train", &self.jobs[..cut]),
            mk("test", &self.jobs[cut..]),
        )
    }
}

/// Errors constructing a [`JobTrace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Machine processor count was zero.
    EmptyMachine,
    /// The SWF header did not declare `MaxProcs`/`MaxNodes`.
    UnknownMachineSize,
    /// A job requests more processors than the machine has.
    JobTooLarge {
        /// Offending job id.
        job: u64,
        /// Processors requested.
        procs: u32,
        /// Machine size.
        machine: u32,
    },
    /// A job has a non-positive runtime or estimate.
    NonPositiveTime {
        /// Offending job id.
        job: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::EmptyMachine => write!(f, "machine has zero processors"),
            TraceError::UnknownMachineSize => write!(f, "SWF header lacks MaxProcs/MaxNodes"),
            TraceError::JobTooLarge {
                job,
                procs,
                machine,
            } => {
                write!(
                    f,
                    "job {job} requests {procs} procs but machine has {machine}"
                )
            }
            TraceError::NonPositiveTime { job } => {
                write!(f, "job {job} has non-positive runtime/estimate")
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs3() -> Vec<Job> {
        vec![
            Job::new(2, 50.0, 10.0, 20.0, 2),
            Job::new(1, 0.0, 10.0, 20.0, 2),
            Job::new(3, 100.0, 10.0, 20.0, 2),
        ]
    }

    #[test]
    fn new_sorts_by_submit() {
        let t = JobTrace::new("t", 4, jobs3()).unwrap();
        let ids: Vec<u64> = t.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_oversized_job() {
        let jobs = vec![Job::new(1, 0.0, 10.0, 10.0, 8)];
        let err = JobTrace::new("t", 4, jobs).unwrap_err();
        assert!(matches!(err, TraceError::JobTooLarge { job: 1, .. }));
    }

    #[test]
    fn rejects_zero_runtime() {
        let jobs = vec![Job::new(1, 0.0, 0.0, 10.0, 1)];
        assert!(matches!(
            JobTrace::new("t", 4, jobs).unwrap_err(),
            TraceError::NonPositiveTime { job: 1 }
        ));
    }

    #[test]
    fn sequence_rebases_submit() {
        let t = JobTrace::new("t", 4, jobs3()).unwrap();
        let seq = t.sequence(1, 2);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].submit, 0.0);
        assert_eq!(seq[1].submit, 50.0);
    }

    #[test]
    fn sequence_clamps_to_len() {
        let t = JobTrace::new("t", 4, jobs3()).unwrap();
        assert_eq!(t.sequence(2, 10).len(), 1);
        assert!(t.sequence(5, 10).is_empty());
    }

    #[test]
    fn split_respects_fraction() {
        let t = JobTrace::new("t", 4, jobs3()).unwrap();
        let (train, test) = t.split(0.34);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 2);
        assert_eq!(train.procs, 4);
        assert!(train.name.ends_with("-train"));
    }

    #[test]
    fn swf_roundtrip_via_trace() {
        let t = JobTrace::new("rt", 16, jobs3()).unwrap();
        let swf = t.to_swf();
        let back = JobTrace::from_swf("rt", &swf).unwrap();
        assert_eq!(t.jobs, back.jobs);
        assert_eq!(t.procs, back.procs);
    }
}
