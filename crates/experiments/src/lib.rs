//! The paper's evaluation as a table of experiments.
//!
//! Every table and figure of §4–§5 is one row of [`EXPERIMENTS`]: a name,
//! a title and a function from the invocation's shared state ([`Ctx`]:
//! scale, seed, results directory, telemetry, the combinations already
//! trained) to an [`Outcome`] — the tables it wrote and, as typed
//! [`Finding`]s, what the paper claimed against what this run measured.
//! `run_all` is the one program: it parses the command line, runs the
//! selected rows in-process through [`run`], and ends with one table.

pub mod ctx;
pub mod harness;
pub mod output;
pub mod paper;
pub mod run;
pub mod scale;

use std::path::Path;

pub use ctx::{Ctx, Finding, Outcome};
pub use harness::{train_combo, ComboSpec, TrainOutcome};
pub use output::{Csv, Table};
pub use paper::{Experiment, EXPERIMENTS};
pub use run::{run, summarize, Report};
pub use scale::{parse, Scale};

use workload::{JobTrace, SyntheticSource, TraceSource};

/// Sidecar telemetry for one `run_all` invocation. Opt-in: when
/// `SCHEDINSPECTOR_TELEMETRY` is set (to anything), training events and one
/// span per experiment stream to `<results>/run_all.telemetry.jsonl` (one
/// JSON object per line); otherwise the handle is disabled and recording
/// costs nothing.
pub fn telemetry_for(results: &Path) -> Result<obs::Telemetry, obs::ObsError> {
    if std::env::var_os("SCHEDINSPECTOR_TELEMETRY").is_none() {
        return Ok(obs::Telemetry::disabled());
    }
    // A directory that cannot be created surfaces as the sidecar's error.
    let _ = std::fs::create_dir_all(results);
    let path = results.join("run_all.telemetry.jsonl");
    let telemetry = obs::Telemetry::jsonl(&path)?;
    println!("telemetry -> {}", path.display());
    Ok(telemetry)
}

/// The four paper traces in Table 2 order.
pub const TRACES: [&str; 4] = ["SDSC-SP2", "CTC-SP2", "Lublin", "HPC2N"];

/// Generate a paper trace at the scale's job count, deterministically from
/// `seed`.
pub fn load_trace(name: &str, scale: &Scale, seed: u64) -> JobTrace {
    trace_source(name, scale, seed)
        .load()
        .unwrap_or_else(|e| panic!("cannot load trace {name:?}: {e}"))
}

/// The [`TraceSource`] behind [`load_trace`]: the named calibrated profile
/// at the scale's job count, salted per trace name so cross-trace
/// experiments never share an RNG stream.
pub fn trace_source(name: &str, scale: &Scale, seed: u64) -> SyntheticSource {
    SyntheticSource::new(name, scale.trace_jobs, seed ^ trace_salt(name))
}

fn trace_salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_load_at_quick_scale() {
        let scale = Scale::quick();
        for name in TRACES {
            let t = load_trace(name, &scale, 1);
            assert_eq!(t.len(), scale.trace_jobs, "{name}");
        }
    }

    #[test]
    fn trace_salts_differ() {
        assert_ne!(trace_salt("SDSC-SP2"), trace_salt("CTC-SP2"));
    }
}
