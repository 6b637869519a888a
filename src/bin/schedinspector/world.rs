//! What several subcommands build from flags, each written once: the
//! trace/policy/simulator world, the training configuration, a loaded
//! model, an opened run store, and a text file written where a flag says.

use std::path::Path;

use schedinspector::prelude::*;

use crate::args::{Args, Group};

/// The flags [`build_world`] reads, declared by every command that calls it.
pub const FLAGS: Group = (
    "world",
    &[
        "trace SDSC-SP2|CTC-SP2|HPC2N|Lublin   (default SDSC-SP2)",
        "trace-file FILE.swf   load an SWF archive instead",
        "scenario FILE.toml   compile a scenario spec instead",
        "policy FCFS|LCFS|SJF|SAF|SRF|F1|Slurm   (default SJF)",
        "metric bsld|wait|mbsld   (default bsld)",
        "jobs N   trace size (default 10000)",
        "seed N   RNG seed (default 1)",
        "backfill 1   enable EASY backfilling",
    ],
);

/// The flags [`inspector_config`] reads (with `--seed`): what `train` and a
/// `dist-worker` must be given alike, beyond the world, to roll out the
/// same episodes.
pub const SHAPE_FLAGS: Group = (
    "shape",
    &[
        "epochs N   training epochs (default 40)",
        "batch N   trajectories per epoch (default 64)",
        "len N   jobs per trajectory (default 128)",
    ],
);

/// The base-policy factory `--policy` names (Slurm derives its fairshare
/// from `trace`).
pub fn policy_factory(args: &Args, trace: &JobTrace) -> Result<inspector::PolicyFactory, Error> {
    let policy = args.get("policy").unwrap_or("SJF");
    if policy.eq_ignore_ascii_case("slurm") {
        return Ok(slurm_factory(trace));
    }
    let kind = policy.parse::<PolicyKind>();
    Ok(factory_for(kind.map_err(|e| Error::Usage(e.to_string()))?))
}

pub fn sim_config(args: &Args) -> Result<SimConfig, Error> {
    Ok(SimConfig {
        backfill: args.num("backfill", 0u8)? != 0,
        ..SimConfig::default()
    })
}

/// Load the trace the `--trace`/`--trace-file`/`--scenario` triple names
/// (every ingestion path — calibrated synthetic profile, SWF archive,
/// scenario-compiled — is available to every command that takes a trace)
/// and build the policy, simulator settings and metric around it.
pub fn build_world(
    args: &Args,
) -> Result<(JobTrace, inspector::PolicyFactory, SimConfig, Metric), Error> {
    let seed = args.num("seed", 1u64)?;
    let source: Box<dyn TraceSource> = if let Some(path) = args.get("trace-file") {
        Box::new(SwfFileSource::new(path))
    } else if let Some(path) = args.get("scenario") {
        Box::new(ScenarioSource::new(path, seed))
    } else {
        let (name, jobs) = (args.get("trace"), args.num("jobs", 10_000usize)?);
        Box::new(SyntheticSource::new(name.unwrap_or("SDSC-SP2"), jobs, seed))
    };
    let trace = source.load();
    let trace = trace.map_err(|e| Error::input(format!("cannot load {}", source.id()), e))?;
    let factory = policy_factory(args, &trace)?;
    let metric = args.get("metric").unwrap_or("bsld").parse::<Metric>();
    let metric = metric.map_err(|e| Error::Usage(e.to_string()))?;
    Ok((trace, factory, sim_config(args)?, metric))
}

/// The training configuration `train` and `dist-worker` must agree on for
/// the determinism contract; both call this and nothing else.
pub fn inspector_config(
    args: &Args,
    sim: SimConfig,
    metric: Metric,
) -> Result<InspectorConfig, Error> {
    Ok(InspectorConfig {
        metric,
        sim,
        epochs: args.num("epochs", 40usize)?,
        batch_size: args.num("batch", 64usize)?,
        seq_len: args.num("len", 128usize)?,
        seed: args.num("seed", 1u64)?,
        ..Default::default()
    })
}

pub fn load_model(args: &Args) -> Result<SchedInspector, Error> {
    let path = args.required("model")?;
    let model = inspector::model_io::load(Path::new(path));
    model.map_err(|e| Error::input(format!("cannot load {path}"), e))
}

pub fn read_text(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::input(format!("cannot read {path}"), e))
}

/// Open (or create) the run store at `dir`; its metrics register on
/// `registry` when there is one.
pub fn open_store(dir: &str, registry: Option<&obs::Registry>) -> Result<RunStore, Error> {
    let store = RunStore::open_with(dir, StoreConfig::default(), registry);
    store.map_err(|e| Error::input(format!("cannot open store {dir}"), e))
}

/// Write `text()` to the path `--flag` gives, if it was given, and say so
/// (`"{said} {path}"`).
pub fn write_flag(
    args: &Args,
    flag: &str,
    said: &str,
    text: impl FnOnce() -> String,
) -> Result<(), Error> {
    if let Some(path) = args.get(flag) {
        let written = std::fs::write(path, text());
        written.map_err(|e| Error::io(format!("cannot write --{flag} {path}"), e))?;
        println!("{said} {path}");
    }
    Ok(())
}
