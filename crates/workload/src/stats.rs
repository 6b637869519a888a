//! Trace summary statistics — the columns of the paper's Table 2.

use crate::trace::JobTrace;

/// Summary statistics of a job trace.
///
/// `cluster_size`, `mean_interval`, `mean_estimate`, and `mean_procs` are
/// exactly the four columns the paper reports in Table 2 to argue trace
/// diversity; the remaining fields support calibration and analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of jobs.
    pub n_jobs: usize,
    /// Machine processors (Table 2 "cluster size").
    pub cluster_size: u32,
    /// Mean inter-arrival interval in seconds (Table 2 "interval").
    pub mean_interval: f64,
    /// Mean estimated runtime in seconds (Table 2 "est_j").
    pub mean_estimate: f64,
    /// Mean requested processors (Table 2 "res_j").
    pub mean_procs: f64,
    /// Mean actual runtime in seconds.
    pub mean_runtime: f64,
    /// Maximum estimated runtime.
    pub max_estimate: f64,
    /// Maximum requested processors.
    pub max_procs: u32,
    /// Trace span (last submit − first submit) in seconds.
    pub span: f64,
    /// Offered load: Σ runtime·procs / (span · cluster).
    pub offered_load: f64,
}

impl TraceStats {
    /// Compute statistics for a trace. An empty trace yields zeros.
    pub fn of(trace: &JobTrace) -> TraceStats {
        let n = trace.jobs.len();
        if n == 0 {
            return TraceStats {
                n_jobs: 0,
                cluster_size: trace.procs,
                mean_interval: 0.0,
                mean_estimate: 0.0,
                mean_procs: 0.0,
                mean_runtime: 0.0,
                max_estimate: 0.0,
                max_procs: 0,
                span: 0.0,
                offered_load: 0.0,
            };
        }
        let first = trace.jobs.first().unwrap().submit;
        let last = trace.jobs.last().unwrap().submit;
        let span = last - first;
        let sum_est: f64 = trace.jobs.iter().map(|j| j.estimate).sum();
        let sum_run: f64 = trace.jobs.iter().map(|j| j.runtime).sum();
        let sum_procs: f64 = trace.jobs.iter().map(|j| j.procs as f64).sum();
        let work: f64 = trace.jobs.iter().map(|j| j.runtime * j.procs as f64).sum();
        TraceStats {
            n_jobs: n,
            cluster_size: trace.procs,
            mean_interval: if n > 1 { span / (n - 1) as f64 } else { 0.0 },
            mean_estimate: sum_est / n as f64,
            mean_procs: sum_procs / n as f64,
            mean_runtime: sum_run / n as f64,
            max_estimate: trace.jobs.iter().map(|j| j.estimate).fold(0.0, f64::max),
            max_procs: trace.jobs.iter().map(|j| j.procs).max().unwrap_or(0),
            span,
            offered_load: if span > 0.0 {
                work / (span * trace.procs as f64)
            } else {
                0.0
            },
        }
    }

    /// Render one Table 2 row: `name  cluster  interval  est  res`.
    pub fn table2_row(&self, name: &str) -> String {
        format!(
            "{name:<10} {:>6} {:>10.0} {:>10.0} {:>7.1}",
            self.cluster_size, self.mean_interval, self.mean_estimate, self.mean_procs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    #[test]
    fn stats_of_simple_trace() {
        let jobs = vec![
            Job::new(1, 0.0, 100.0, 200.0, 2),
            Job::new(2, 100.0, 300.0, 400.0, 4),
            Job::new(3, 200.0, 500.0, 600.0, 6),
        ];
        let t = JobTrace::new("t", 8, jobs).unwrap();
        let s = t.stats();
        assert_eq!(s.n_jobs, 3);
        assert_eq!(s.cluster_size, 8);
        assert_eq!(s.mean_interval, 100.0);
        assert_eq!(s.mean_estimate, 400.0);
        assert_eq!(s.mean_procs, 4.0);
        assert_eq!(s.mean_runtime, 300.0);
        assert_eq!(s.max_procs, 6);
        assert_eq!(s.span, 200.0);
        // work = 100*2 + 300*4 + 500*6 = 4400; span*cluster = 1600.
        assert!((s.offered_load - 4400.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let t = JobTrace::new("e", 8, vec![]).unwrap();
        let s = t.stats();
        assert_eq!(s.n_jobs, 0);
        assert_eq!(s.mean_interval, 0.0);
    }

    #[test]
    fn single_job_has_zero_interval() {
        let t = JobTrace::new("one", 8, vec![Job::new(1, 5.0, 10.0, 10.0, 1)]).unwrap();
        assert_eq!(t.stats().mean_interval, 0.0);
        assert_eq!(t.stats().span, 0.0);
    }
}
