//! `run_all [NAME...] [--quick|--paper] [--epochs N] [--seed N]` — run the
//! named experiments (default: every table and figure of the paper, in
//! paper order) in one process, training each combination once, and end
//! with one table: findings held and not held, wall seconds, trainings run
//! and reused, per experiment.
//!
//! Exit 2: the command line cannot be used. Exit 1: an experiment panicked,
//! could not write a result, or a training-free finding does not hold.
//! `SCHEDINSPECTOR_RESULTS` overrides the `results/` directory;
//! `SCHEDINSPECTOR_TELEMETRY` adds the `run_all.telemetry.jsonl` sidecar.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::{parse, run, summarize, telemetry_for, Ctx};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rows, scale, seed) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let results = std::env::var_os("SCHEDINSPECTOR_RESULTS").unwrap_or_else(|| "results".into());
    let results = PathBuf::from(results);
    let telemetry = match telemetry_for(&results) {
        Ok(telemetry) => telemetry,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} experiment(s) at {scale:?}, seed {seed}, {} core(s); results -> {}",
        rows.len(),
        std::thread::available_parallelism().map_or(1, usize::from),
        results.display()
    );
    let mut ctx = Ctx::new(scale, seed, results, telemetry);
    let reports = run(&mut ctx, &rows);
    if summarize(&reports) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
