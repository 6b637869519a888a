//! Feature building (§3.3).
//!
//! The raw scheduling state is summarized into a small, normalized feature
//! vector. Three mechanisms are implemented, matching the paper's Fig. 5
//! ablation:
//!
//! * [`FeatureMode::Manual`] — the paper's hand-built features: scheduled
//!   job attributes (wait, estimate, resources), rejected times, **queue
//!   delays** (the metric-aware aggregate cost of delaying the queue),
//!   cluster availability, runnable, and backfilling contributions;
//! * [`FeatureMode::Compacted`] — only the current job and cluster state
//!   (drops the aggregated queue-delay/backfilling features);
//! * [`FeatureMode::Native`] — the raw environmental state: the scheduled
//!   job plus the first [`NATIVE_QUEUE_SLOTS`] waiting jobs verbatim, the
//!   strategy "expect the network to figure features out itself" used by
//!   RLScheduler-style work.

use simhpc::{Metric, Observation, BSLD_THRESHOLD};

/// Queue slots included in the native (raw-state) representation.
pub const NATIVE_QUEUE_SLOTS: usize = 16;

/// Feature-building mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureMode {
    /// The paper's manually built, metric-aware features.
    Manual,
    /// Current job + cluster state only.
    Compacted,
    /// Raw environmental state.
    Native,
}

impl FeatureMode {
    /// Name as written in model files and result tables.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureMode::Manual => "manual",
            FeatureMode::Compacted => "compacted",
            FeatureMode::Native => "native",
        }
    }
}

impl std::str::FromStr for FeatureMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "manual" => Ok(FeatureMode::Manual),
            "compacted" => Ok(FeatureMode::Compacted),
            "native" => Ok(FeatureMode::Native),
            other => Err(format!("unknown feature mode {other:?}")),
        }
    }
}

/// Normalization constants, derived from the trace being scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalizer {
    /// Cap/normalizer for job estimates (the trace's max estimate).
    pub max_estimate: f64,
    /// Machine processors.
    pub total_procs: u32,
    /// Cap for waiting times (1 day by default).
    pub max_wait: f64,
    /// `MAX_INTERVAL` — the delay unit for the queue-delays feature.
    pub max_interval: f64,
    /// `MAX_REJECTION_TIMES`.
    pub max_rejections: u32,
}

impl Normalizer {
    /// Defaults for a machine of `total_procs`, max estimate `max_estimate`.
    pub fn new(total_procs: u32, max_estimate: f64) -> Self {
        Normalizer {
            max_estimate: max_estimate.max(1.0),
            total_procs: total_procs.max(1),
            max_wait: 86_400.0,
            max_interval: 600.0,
            max_rejections: 72,
        }
    }
}

/// Builds normalized feature vectors from simulator observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureBuilder {
    /// Which mechanism to use.
    pub mode: FeatureMode,
    /// Metric the queue-delays feature is computed against.
    pub metric: Metric,
    /// Normalization constants.
    pub norm: Normalizer,
}

impl FeatureBuilder {
    /// A manual-features builder (the paper default).
    pub fn manual(metric: Metric, norm: Normalizer) -> Self {
        FeatureBuilder {
            mode: FeatureMode::Manual,
            metric,
            norm,
        }
    }

    /// Feature-vector length for this mode.
    pub fn dim(&self) -> usize {
        match self.mode {
            FeatureMode::Manual => 8,
            FeatureMode::Compacted => 5,
            FeatureMode::Native => 6 + 3 * NATIVE_QUEUE_SLOTS,
        }
    }

    /// Build the feature vector for `obs` into `out` (cleared first).
    pub fn build(&self, obs: &Observation, out: &mut Vec<f32>) {
        out.clear();
        let n = &self.norm;
        let wait = (obs.wait / n.max_wait).clamp(0.0, 1.0) as f32;
        let est = (obs.job.estimate / n.max_estimate).clamp(0.0, 1.0) as f32;
        let res = (obs.job.procs as f64 / n.total_procs as f64).clamp(0.0, 1.0) as f32;
        let rejected = obs.rejections as f32 / obs.max_rejections.max(1) as f32;
        let avail = obs.availability() as f32;
        let runnable = if obs.runnable { 1.0f32 } else { 0.0 };
        match self.mode {
            FeatureMode::Manual => {
                out.push(wait);
                out.push(est);
                out.push(res);
                out.push(rejected);
                out.push(self.queue_delays(obs));
                out.push(avail);
                out.push(runnable);
                out.push(backfill_feature(obs));
            }
            FeatureMode::Compacted => {
                out.push(wait);
                out.push(est);
                out.push(res);
                out.push(avail);
                out.push(runnable);
            }
            FeatureMode::Native => {
                out.push(wait);
                out.push(est);
                out.push(res);
                out.push(rejected);
                out.push(avail);
                out.push(runnable);
                for slot in 0..NATIVE_QUEUE_SLOTS {
                    match obs.queue.get(slot) {
                        Some(q) => {
                            out.push((q.wait / n.max_wait).clamp(0.0, 1.0) as f32);
                            out.push((q.estimate / n.max_estimate).clamp(0.0, 1.0) as f32);
                            out.push(
                                (q.procs as f64 / n.total_procs as f64).clamp(0.0, 1.0) as f32,
                            );
                        }
                        None => out.extend_from_slice(&[0.0, 0.0, 0.0]),
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), self.dim());
    }

    /// The queue-delays feature: the aggregate cost, in units of the target
    /// metric, of idling the queue for one `MAX_INTERVAL` (§3.3). A
    /// `x / (x + scale)` squash keeps it in `[0, 1)` while staying
    /// monotone in the true cost.
    pub fn queue_delays(&self, obs: &Observation) -> f32 {
        let dt = self.norm.max_interval;
        let cost: f64 = match self.metric {
            // Δt idle adds ≈ Δt / max(est_j, 10) to each waiting job's bsld.
            Metric::Bsld | Metric::MaxBsld => obs
                .queue
                .iter()
                .map(|q| dt / q.estimate.max(BSLD_THRESHOLD))
                .sum(),
            // Δt idle adds Δt seconds of waiting per queued job; expressed
            // in job-count units so the squash scale is metric-free.
            Metric::Wait => obs.queue.len() as f64,
        };
        let scale = 10.0;
        (cost / (cost + scale)) as f32
    }
}

/// Backfilling contributions: 0 when backfilling is off, else the number of
/// backfillable waiting jobs squashed into `[0, 1)`.
fn backfill_feature(obs: &Observation) -> f32 {
    if !obs.backfill_enabled {
        return 0.0;
    }
    let c = obs.backfillable as f32;
    c / (c + 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simhpc::QueueEntry;
    use workload::Job;

    fn obs() -> Observation {
        Observation {
            now: 1000.0,
            job: Job::new(1, 500.0, 3600.0, 7200.0, 16),
            wait: 500.0,
            rejections: 9,
            max_rejections: 72,
            free_procs: 32,
            total_procs: 128,
            runnable: true,
            backfill_enabled: false,
            backfillable: 0,
            queue: vec![
                QueueEntry {
                    id: 2,
                    wait: 100.0,
                    estimate: 600.0,
                    procs: 4,
                },
                QueueEntry {
                    id: 3,
                    wait: 50.0,
                    estimate: 60.0,
                    procs: 2,
                },
            ],
        }
    }

    fn builder(mode: FeatureMode, metric: Metric) -> FeatureBuilder {
        FeatureBuilder {
            mode,
            metric,
            norm: Normalizer::new(128, 86_400.0),
        }
    }

    #[test]
    fn dims_are_consistent() {
        for mode in [
            FeatureMode::Manual,
            FeatureMode::Compacted,
            FeatureMode::Native,
        ] {
            let b = builder(mode, Metric::Bsld);
            let mut v = Vec::new();
            b.build(&obs(), &mut v);
            assert_eq!(v.len(), b.dim(), "{mode:?}");
            assert!(v.iter().all(|x| (0.0..=1.0).contains(x)), "{mode:?}: {v:?}");
        }
    }

    #[test]
    fn manual_features_encode_job_attributes() {
        let b = builder(FeatureMode::Manual, Metric::Bsld);
        let mut v = Vec::new();
        b.build(&obs(), &mut v);
        assert!((v[0] - (500.0 / 86_400.0) as f32).abs() < 1e-6); // wait
        assert!((v[1] - (7200.0 / 86_400.0) as f32).abs() < 1e-6); // est
        assert!((v[2] - 0.125).abs() < 1e-6); // res = 16/128
        assert!((v[3] - 0.125).abs() < 1e-6); // rejected = 9/72
        assert!((v[5] - 0.25).abs() < 1e-6); // avail = 32/128
        assert_eq!(v[6], 1.0); // runnable
        assert_eq!(v[7], 0.0); // backfilling disabled
    }

    #[test]
    fn queue_delays_depends_on_metric() {
        let b_bsld = builder(FeatureMode::Manual, Metric::Bsld);
        let b_wait = builder(FeatureMode::Manual, Metric::Wait);
        let o = obs();
        // bsld cost: 600/600 + 600/60 = 11; squash 11/21.
        assert!((b_bsld.queue_delays(&o) - 11.0 / 21.0).abs() < 1e-6);
        // wait cost: 2 jobs; squash 2/12.
        assert!((b_wait.queue_delays(&o) - 2.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn queue_delays_monotone_in_queue_size() {
        let b = builder(FeatureMode::Manual, Metric::Bsld);
        let mut o = obs();
        let short = b.queue_delays(&o);
        o.queue.push(QueueEntry {
            id: 4,
            wait: 0.0,
            estimate: 30.0,
            procs: 1,
        });
        assert!(b.queue_delays(&o) > short);
    }

    #[test]
    fn backfill_feature_squashes_count() {
        let mut o = obs();
        o.backfill_enabled = true;
        o.backfillable = 4;
        let b = builder(FeatureMode::Manual, Metric::Bsld);
        let mut v = Vec::new();
        b.build(&o, &mut v);
        assert!((v[7] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn native_mode_pads_missing_queue_slots() {
        let b = builder(FeatureMode::Native, Metric::Bsld);
        let mut v = Vec::new();
        b.build(&obs(), &mut v);
        // Two real queue entries, the rest zero-padded.
        assert_eq!(v.len(), 6 + 3 * NATIVE_QUEUE_SLOTS);
        assert!(v[6] > 0.0);
        assert_eq!(v[6 + 3 * 2], 0.0);
    }

    #[test]
    fn manual_with_7_features_matches_paper_param_count() {
        // Without backfilling the paper's effective input is 7 features;
        // our fixed 8th (backfill) input is 0 — dims stay stable across
        // backfill on/off, which is what deployment needs.
        let b = builder(FeatureMode::Manual, Metric::Bsld);
        assert_eq!(b.dim(), 8);
    }
}
