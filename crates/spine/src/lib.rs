//! `spine` — the repository's one benchmark: train, replay and serve,
//! end to end, with per-layer attribution from a separate traced pass.
//!
//! `README.md` beside this crate explains the workloads, the metrics and
//! how the estimators and bounds were chosen. The harness only calls the
//! product crates' public items; it changes none of them.

pub mod cli;
pub mod gen;
pub mod names;
pub mod probes;
pub mod replay;
pub mod report;
pub mod serve_load;
pub mod span;
pub mod stats;
pub mod train;

use std::path::PathBuf;

/// Seconds one run measures; `BENCHMARK.json` repeats it.
pub const RUN_SECONDS: u64 = 20;

/// Times the set-up is repeated before the timed part of a run, and again
/// after it; `setup_s` is the fastest of them all.
pub const SETUP_REPEATS: usize = 5;

/// Seed of the untrained accept/reject network used wherever a workload
/// needs a frozen inspector (inspected replays, the served model). Chosen
/// because its weights reject roughly 40 % of decisions on the benchmark
/// traces, so inspected runs take both branches; most seeds reject nearly
/// everything or nothing.
pub const POLICY_SEED: u64 = 22;

/// What one `spine bench` invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Directory the inputs are read from.
    pub inputs: PathBuf,
    /// Whether set-up generates the inputs into `inputs` first (`bench`),
    /// or only reads what `spine gen` left there (`run`).
    pub generate: bool,
    /// Directory for what the run itself writes (the run store); created
    /// and removed by the run.
    pub scratch: PathBuf,
    /// Where to write the spans of a traced run, if anywhere.
    pub spans_out: Option<PathBuf>,
    /// Test hook: expect the opposite decision for one served request, so
    /// the run must report a failure.
    pub corrupt_expected: bool,
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process; written into every output
/// so that a small-box number is never read as a scaling result.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl RunSpec {
    /// First step of every set-up: make the input files, unless the run
    /// was given ready ones.
    pub fn prepare_inputs(&self) -> Result<(), String> {
        if self.generate {
            gen::generate(&self.workload, self.seed, self.seconds, &self.inputs)?;
        }
        Ok(())
    }
}

/// Seconds each set-up of a run took. Set-ups are identical work, so the
/// fastest one is the estimate (see [`stats::best`]); half of them run before
/// the timed part and half after it, twenty seconds later, because the
/// stretches in which a shared host runs everything slower are shorter than
/// that more often than not.
pub struct Setups(Vec<f64>);

impl Setups {
    /// Run the set-up [`SETUP_REPEATS`] times, timing each; the last result
    /// is the one the run uses.
    pub fn before<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(Setups, T), String> {
        let mut setups = Setups(Vec::with_capacity(2 * SETUP_REPEATS));
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            last = Some(setups.timed(&mut setup)?);
        }
        Ok((setups, last.expect("SETUP_REPEATS is at least one")))
    }

    /// Run the set-up [`SETUP_REPEATS`] more times once the run has let go of
    /// what the first ones built, and record `setup_s`.
    pub fn after<T>(
        mut self,
        out: &mut report::Outcome,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        for _ in 0..SETUP_REPEATS {
            drop(self.timed(&mut setup)?);
        }
        out.set_sampled(names::SETUP_S, stats::best(&self.0), self.0);
        Ok(())
    }

    fn timed<T>(&mut self, setup: &mut impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let t = std::time::Instant::now();
        let built = setup()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(built)
    }
}
