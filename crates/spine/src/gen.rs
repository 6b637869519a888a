//! The generator half of the generator/evaluator split: `--seed` becomes
//! input *files* through the repository's own seeded generators, and the
//! evaluator (`spine run`) is handed only those files.
//!
//! Files per workload, all under one directory:
//!
//! * `train.swf` — synthetic SDSC-SP2, training split (train_local, train_dist)
//! * `scenario.swf` — the frozen flash-crowd scenario, compiled (eval_replay)
//! * `model.txt`, `features.txt` — the served model and recorded feature
//!   vectors (serve_open, serve_closed)
//! * `arrivals.txt` — Poisson due times in ns (serve_open)

use std::io::Write;
use std::path::Path;

use inspector::{FeatureBuilder, Normalizer, SchedInspector};
use policies::PolicyKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlcore::BinaryPolicy;
use scenario::{ScenarioSpec, TenantRange};
use simhpc::{InspectorHook, Metric, Observation, SimConfig, Simulator};
use workload::distributions::{Exponential, Sample};
use workload::{profiles, synthetic, JobTrace, SwfFileSource, TraceSource};

use crate::names::{EVAL_REPLAY, SERVE_CLOSED, SERVE_OPEN, TRAIN_DIST, TRAIN_LOCAL};
use crate::POLICY_SEED;

/// Frozen copy of `examples/scenarios/flash_crowd.toml`, so that edits
/// under `examples/` cannot move the benchmark.
pub const FLASH_CROWD_TOML: &str = include_str!("../workloads/flash_crowd.toml");

/// Jobs generated for the training trace; the first fifth trains (§4.4).
pub const TRAIN_JOBS: usize = 10_000;
pub const TRAIN_FRAC: f64 = 0.2;

/// Jobs replayed to record the served feature vectors, and how many
/// distinct vectors the load generator cycles through.
pub const FEATURE_TRACE_JOBS: usize = 4_000;
pub const FEATURE_POOL: usize = 4_096;

/// Offered rate of the open-loop workload, requests per second.
pub const OPEN_RATE: f64 = 10_000.0;

pub const TRAIN_FILE: &str = "train.swf";
pub const SCENARIO_FILE: &str = "scenario.swf";
pub const MODEL_FILE: &str = "model.txt";
pub const FEATURES_FILE: &str = "features.txt";
pub const ARRIVALS_FILE: &str = "arrivals.txt";

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// The frozen inspector for a trace: untrained weights from
/// [`POLICY_SEED`], manual features normalized to the trace.
pub fn frozen_inspector(trace: &JobTrace) -> SchedInspector {
    let norm = Normalizer::new(trace.procs, trace.stats().max_estimate);
    let features = FeatureBuilder::manual(Metric::Bsld, norm);
    SchedInspector::new(BinaryPolicy::new(features.dim(), POLICY_SEED), features)
}

/// Write the inputs of `workload` for `seed` into `dir`. `seconds` sizes
/// the open-loop arrival schedule.
pub fn generate(workload: &str, seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    io("create input dir", std::fs::create_dir_all(dir))?;
    match workload {
        TRAIN_LOCAL | TRAIN_DIST => gen_train(seed, dir),
        EVAL_REPLAY => gen_scenario(seed, dir),
        SERVE_OPEN => {
            gen_serve(seed, dir)?;
            gen_arrivals(seed, seconds, dir)
        }
        SERVE_CLOSED => gen_serve(seed, dir),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn gen_train(seed: u64, dir: &Path) -> Result<(), String> {
    let trace = synthetic::generate(&profiles::SDSC_SP2, TRAIN_JOBS, seed);
    let (train, _) = trace.split(TRAIN_FRAC);
    train
        .to_swf()
        .write_file(&dir.join(TRAIN_FILE))
        .map_err(|e| e.to_string())
}

fn gen_scenario(seed: u64, dir: &Path) -> Result<(), String> {
    let spec = ScenarioSpec::parse(FLASH_CROWD_TOML).map_err(|e| e.to_string())?;
    let compiled = scenario::compile(&spec, seed).map_err(|e| e.to_string())?;
    io(
        "write scenario",
        std::fs::write(dir.join(SCENARIO_FILE), scenario::swf_text(&compiled)),
    )
}

/// Records the feature vector of every scheduling point it is shown, then
/// decides as the wrapped inspector would.
struct FeatureRecorder<'a> {
    inspector: &'a SchedInspector,
    buf: Vec<f32>,
    out: Vec<Vec<f32>>,
}

impl InspectorHook for FeatureRecorder<'_> {
    fn inspect(&mut self, obs: &Observation) -> bool {
        self.inspector.features.build(obs, &mut self.buf);
        if self.out.len() < FEATURE_POOL {
            self.out.push(self.buf.clone());
        }
        self.inspector.policy.greedy(&self.buf) == rlcore::REJECT
    }
}

fn gen_serve(seed: u64, dir: &Path) -> Result<(), String> {
    let trace = synthetic::generate(&profiles::SDSC_SP2, FEATURE_TRACE_JOBS, seed);
    let inspector = frozen_inspector(&trace);
    let mut recorder = FeatureRecorder {
        inspector: &inspector,
        buf: Vec::new(),
        out: Vec::new(),
    };
    Simulator::new(trace.procs, SimConfig::default()).run_inspected(
        &trace.jobs,
        PolicyKind::Sjf.build().as_mut(),
        &mut recorder,
    );
    if recorder.out.is_empty() {
        return Err("the recording replay reached no scheduling point".into());
    }
    io(
        "write model",
        std::fs::write(
            dir.join(MODEL_FILE),
            inspector::model_io::to_text(&inspector),
        ),
    )?;
    let mut text = String::new();
    for row in &recorder.out {
        for (i, x) in row.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            // `{}` on f32 prints the shortest text that parses back to the
            // same bits, so the file holds the vectors exactly.
            text.push_str(&x.to_string());
        }
        text.push('\n');
    }
    io(
        "write features",
        std::fs::write(dir.join(FEATURES_FILE), text),
    )
}

fn gen_arrivals(seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    let gap = Exponential::with_mean(1e9 / OPEN_RATE);
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = seconds * 1e9;
    let mut out = std::io::BufWriter::new(io(
        "create arrivals",
        std::fs::File::create(dir.join(ARRIVALS_FILE)),
    )?);
    let mut t = gap.sample(&mut rng);
    while t < horizon {
        io("write arrivals", writeln!(out, "{}", t as u64))?;
        t += gap.sample(&mut rng);
    }
    io("flush arrivals", out.flush())
}

/// A trace read back from SWF text, as the evaluator sees it.
pub fn load_trace(path: &Path) -> Result<JobTrace, String> {
    SwfFileSource::new(path)
        .load()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The compiled scenario read back: the trace plus its tenant ranges.
pub fn load_scenario(path: &Path) -> Result<(JobTrace, Vec<TenantRange>), String> {
    let swf = swf::SwfTrace::read_file(path).map_err(|e| e.to_string())?;
    let trace = JobTrace::from_swf("flash-crowd", &swf)
        .map_err(|e| format!("{}: {e:?}", path.display()))?;
    Ok((trace, scenario::tenant_ranges_from_header(&swf.header)))
}

/// The serve inputs read back.
pub struct ServeInputs {
    pub inspector: SchedInspector,
    pub features: Vec<Vec<f32>>,
    /// Due times in ns from the start of the timed run (open loop only).
    pub arrivals: Vec<u64>,
}

pub fn load_serve(dir: &Path, open: bool) -> Result<ServeInputs, String> {
    let inspector =
        inspector::model_io::load(&dir.join(MODEL_FILE)).map_err(|e| format!("model: {e}"))?;
    let text = io(
        "read features",
        std::fs::read_to_string(dir.join(FEATURES_FILE)),
    )?;
    let mut features = Vec::new();
    for line in text.lines() {
        let row: Result<Vec<f32>, _> = line.split(',').map(str::parse::<f32>).collect();
        let row = row.map_err(|e| format!("features: {e}"))?;
        if row.len() != inspector.input_dim() {
            return Err(format!(
                "features: row of {} values, model takes {}",
                row.len(),
                inspector.input_dim()
            ));
        }
        features.push(row);
    }
    if features.is_empty() {
        return Err("features: no rows".into());
    }
    let mut arrivals = Vec::new();
    if open {
        let text = io(
            "read arrivals",
            std::fs::read_to_string(dir.join(ARRIVALS_FILE)),
        )?;
        for line in text.lines() {
            arrivals.push(line.parse::<u64>().map_err(|e| format!("arrivals: {e}"))?);
        }
        if arrivals.is_empty() || arrivals.windows(2).any(|w| w[0] > w[1]) {
            return Err("arrivals: empty or not sorted".into());
        }
    }
    Ok(ServeInputs {
        inspector,
        features,
        arrivals,
    })
}
