//! Calibration profiles for the four traces evaluated in the paper.
//!
//! The Parallel Workloads Archive files themselves are not redistributable
//! inside this repository, so each trace is replaced by a synthetic
//! generator calibrated to the per-trace statistics the paper publishes in
//! Table 2 (cluster size, mean arrival interval, mean estimated runtime,
//! mean requested processors). See `DESIGN.md` §5 for the substitution
//! rationale.

/// Everything needed to synthesize a Table 2 trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Trace name as used in the paper.
    pub name: &'static str,
    /// Machine processors (Table 2 "cluster size").
    pub procs: u32,
    /// Target mean inter-arrival interval in seconds (Table 2 "interval").
    pub mean_interval: f64,
    /// Target mean estimated runtime in seconds (Table 2 "est_j").
    pub mean_estimate: f64,
    /// Target mean requested processors (Table 2 "res_j").
    pub mean_procs: f64,
    /// Mean actual runtime as a fraction of the mean estimate (archive logs
    /// show heavy over-estimation; not a Table 2 column).
    pub runtime_frac: f64,
    /// Log-scale spread of the runtime log-normal (heavier ⇒ more extreme
    /// short/long mixture).
    pub runtime_sigma: f64,
    /// Exponent correlating runtime with job width (`rt ∝ (res/mean_res)^c`):
    /// wide jobs run long, the structural source of blocking/queueing in
    /// production logs (and in the Lublin model).
    pub size_runtime_corr: f64,
    /// Probability a job is serial (1 processor).
    pub serial_prob: f64,
    /// Probability a parallel job size is snapped to a power of two.
    pub pow2_prob: f64,
    /// Gamma shape of the inter-arrival distribution (1 = exponential;
    /// smaller ⇒ burstier).
    pub arrival_shape: f64,
    /// Probability an arrival event is a *campaign*: one user submitting a
    /// batch of jobs back-to-back (very characteristic of archive logs).
    pub burst_prob: f64,
    /// Mean size of a campaign batch.
    pub burst_mean: f64,
    /// Whether arrivals follow a diurnal cycle.
    pub daily_cycle: bool,
    /// Number of distinct users (Zipf-distributed activity).
    pub n_users: u32,
    /// Zipf exponent of user activity.
    pub user_skew: f64,
    /// Number of scheduling queues (jobs are binned by estimate).
    pub n_queues: u32,
}

/// SDSC-SP2: 128 procs, 1055 s interval, 6687 s est, 11 procs (Table 2).
pub const SDSC_SP2: TraceProfile = TraceProfile {
    name: "SDSC-SP2",
    procs: 128,
    mean_interval: 1055.0,
    mean_estimate: 6687.0,
    mean_procs: 11.0,
    runtime_frac: 0.85,
    runtime_sigma: 1.5,
    size_runtime_corr: 0.5,
    serial_prob: 0.25,
    pow2_prob: 0.65,
    arrival_shape: 0.30,
    burst_prob: 0.02,
    burst_mean: 10.0,
    daily_cycle: true,
    n_users: 96,
    user_skew: 1.1,
    n_queues: 4,
};

/// CTC-SP2: 338 procs, 379 s interval, 11277 s est, 11 procs (Table 2).
pub const CTC_SP2: TraceProfile = TraceProfile {
    name: "CTC-SP2",
    procs: 338,
    mean_interval: 379.0,
    mean_estimate: 11277.0,
    mean_procs: 11.0,
    runtime_frac: 0.60,
    runtime_sigma: 1.2,
    size_runtime_corr: 0.9,
    serial_prob: 0.30,
    pow2_prob: 0.55,
    arrival_shape: 0.15,
    burst_prob: 0.02,
    burst_mean: 12.0,
    daily_cycle: true,
    n_users: 160,
    user_skew: 1.05,
    n_queues: 4,
};

/// HPC2N: 240 procs, 538 s interval, 17024 s est, 6 procs (Table 2).
pub const HPC2N: TraceProfile = TraceProfile {
    name: "HPC2N",
    procs: 240,
    mean_interval: 538.0,
    mean_estimate: 17024.0,
    mean_procs: 6.0,
    runtime_frac: 0.22,
    runtime_sigma: 2.0,
    size_runtime_corr: 0.9,
    serial_prob: 0.45,
    pow2_prob: 0.60,
    arrival_shape: 0.10,
    burst_prob: 0.06,
    burst_mean: 40.0,
    daily_cycle: true,
    n_users: 128,
    user_skew: 1.2,
    n_queues: 3,
};

/// Lublin synthetic target: 256 procs, 771 s interval, 4862 s est, 22 procs
/// (Table 2). The Lublin model generates this one (see [`crate::lublin`]).
pub const LUBLIN_256: TraceProfile = TraceProfile {
    name: "Lublin",
    procs: 256,
    mean_interval: 771.0,
    mean_estimate: 4862.0,
    mean_procs: 22.0,
    runtime_frac: 0.65,
    runtime_sigma: 1.6,
    size_runtime_corr: 0.6,
    serial_prob: 0.244,
    pow2_prob: 0.576,
    arrival_shape: 0.45,
    burst_prob: 0.02,
    burst_mean: 10.0,
    daily_cycle: true,
    n_users: 64,
    user_skew: 1.0,
    n_queues: 3,
};

/// The four paper traces, in Table 2 order (CTC, SDSC, HPC2N, Lublin).
pub const ALL_PROFILES: [&TraceProfile; 4] = [&CTC_SP2, &SDSC_SP2, &HPC2N, &LUBLIN_256];

/// Look a profile up by (case-insensitive) name.
pub fn profile_by_name(name: &str) -> Option<&'static TraceProfile> {
    ALL_PROFILES
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert_eq!(profile_by_name("sdsc-sp2").unwrap().procs, 128);
        assert_eq!(profile_by_name("LUBLIN").unwrap().procs, 256);
        assert!(profile_by_name("nope").is_none());
    }

    #[test]
    fn profiles_match_table2_constants() {
        assert_eq!(CTC_SP2.procs, 338);
        assert_eq!(CTC_SP2.mean_interval, 379.0);
        assert_eq!(SDSC_SP2.mean_estimate, 6687.0);
        assert_eq!(HPC2N.mean_procs, 6.0);
        assert_eq!(LUBLIN_256.mean_interval, 771.0);
    }

    #[test]
    fn probabilities_are_valid() {
        for p in ALL_PROFILES {
            assert!((0.0..=1.0).contains(&p.serial_prob), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.pow2_prob), "{}", p.name);
            assert!(p.runtime_frac > 0.0 && p.runtime_frac <= 1.0, "{}", p.name);
            assert!(p.mean_procs <= p.procs as f64, "{}", p.name);
        }
    }
}
