//! `spine` — see `crates/spine/README.md`.
//!
//! ```text
//! spine bench --workload W --seed N --seconds S --trace 0|1   one workload, one pass (the driver's entry)
//! spine gen   --seed N --out DIR [--seconds S]                write every workload's input files
//! spine run   --inputs DIR --workload W ...                   like bench, on files `gen` wrote
//! spine all   [--seed N] [--runs R] [--out DIR]               five workloads x two passes, each in a child process
//! spine compare A.json B.json                                 verdict per workload x end-to-end metric
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use obs::json::Json;
use spine::cli::Args;
use spine::names::{
    END_TO_END, EVAL_REPLAY, PER_LAYER, SERVE_CLOSED, SERVE_OPEN, TRAIN_DIST, TRAIN_LOCAL,
    WORKLOADS,
};
use spine::report::{self, Outcome, WorkloadReport};
use spine::span::Spans;
use spine::{gen, replay, serve_load, train, RunSpec, RUN_SECONDS};

/// A per-process directory under the build directory, so that everything
/// the benchmark writes stays inside the checkout and out of git.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("spine-tmp")
        .join(std::process::id().to_string())
}

fn run_workload(spec: &RunSpec, spans: &mut Spans) -> Result<Outcome, String> {
    match spec.workload.as_str() {
        TRAIN_LOCAL => train::run_local(spec, spans),
        TRAIN_DIST => train::run_dist(spec, spans),
        EVAL_REPLAY => replay::run(spec, spans),
        SERVE_OPEN => serve_load::run(spec, true),
        SERVE_CLOSED => serve_load::run(spec, false),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// `bench` and `run`: one workload, one pass. Exit code 0 only when every
/// check passed; the result line is printed either way.
fn bench(args: &Args, generate: bool) -> Result<ExitCode, String> {
    let scratch = scratch_dir();
    let traced = match args.required("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let spec = RunSpec {
        workload: args.required("workload")?.to_string(),
        seed: args.parsed("seed", 1)?,
        seconds: args.parsed("seconds", RUN_SECONDS as f64)?,
        traced,
        inputs: match args.get("inputs") {
            Some(dir) if !generate => PathBuf::from(dir),
            _ if !generate => return Err("run needs --inputs DIR".into()),
            _ => scratch.join("inputs"),
        },
        generate,
        scratch: scratch.clone(),
        spans_out: args.get("spans").map(PathBuf::from),
        corrupt_expected: args.has("corrupt-expected"),
    };
    if !(spec.seconds.is_finite() && spec.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut spans = Spans::new();
    let outcome = run_workload(&spec, &mut spans);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;

    eprintln!(
        "spine {} seed {} seconds {} trace {} cores {}",
        spec.workload,
        spec.seed,
        spec.seconds,
        u8::from(traced),
        spine::cores()
    );
    for line in &outcome.notes {
        eprintln!("  {line}");
    }
    for (name, ok) in &outcome.checks {
        eprintln!("  check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    let shown: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (name, unit) in shown {
        if let Some(v) = outcome.metrics.get(name) {
            eprintln!("  {name} = {v} {unit}");
        }
    }
    if let Some(path) = args.get("detail") {
        std::fs::write(path, outcome.detail_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &spec.spans_out {
        spans
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", outcome.result_line(traced)?);
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "spine: {} of {} operations failed or a check did not hold",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    })
}

fn gen_all(args: &Args) -> Result<ExitCode, String> {
    let out = PathBuf::from(args.required("out")?);
    let seed = args.parsed("seed", 1)?;
    let seconds = args.parsed("seconds", RUN_SECONDS as f64)?;
    for w in &WORKLOADS {
        gen::generate(w.name, seed, seconds, &out)?;
    }
    eprintln!("spine: inputs for seed {seed} written to {}", out.display());
    Ok(ExitCode::SUCCESS)
}

/// Run one pass of one workload in a child process of this binary, so
/// that peak memory and warm-up do not leak between workloads.
fn child_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Result<(Json, Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let stem = format!("{workload}.seed{seed}.trace{}", u8::from(traced));
    let detail = out_dir.join(format!("{stem}.detail.json"));
    let mut cmd = Command::new(exe);
    cmd.arg("bench")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .stdout(Stdio::piped());
    if traced {
        cmd.arg("--spans")
            .arg(out_dir.join(format!("{stem}.spans.jsonl")));
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let result = obs::json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    let detail_text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let detail = obs::json::parse(&detail_text).map_err(|e| format!("{workload} detail: {e}"))?;
    Ok((result, detail, output.status.success()))
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    match result.get("metrics") {
        Some(Json::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("seed", 1)?;
    let runs: usize = args.parsed("runs", 1)?;
    let seconds = args.parsed("seconds", RUN_SECONDS as f64)?;
    let out_dir = PathBuf::from(args.get("out").unwrap_or("target/spine-report"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut reports = Vec::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let mut report = WorkloadReport {
            name: w.name,
            attempted: 0,
            failed: 0,
            correct: true,
            runs: BTreeMap::new(),
            segments: BTreeMap::new(),
            layers: BTreeMap::new(),
        };
        for run in 0..runs.max(1) {
            let (result, detail, ok) =
                child_pass(w.name, seed + run as u64, seconds, false, &out_dir)?;
            report.attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64;
            report.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            report.correct &= ok && result.get("correct") == Some(&Json::Bool(true));
            for (name, value) in metric_values(&result) {
                report.runs.entry(name).or_default().push(value);
            }
            if run == 0 {
                if let Some(Json::Object(samples)) = detail.get("samples") {
                    for (name, xs) in samples {
                        let xs = xs.as_array().unwrap_or(&[]);
                        report
                            .segments
                            .insert(name.clone(), xs.iter().filter_map(Json::as_f64).collect());
                    }
                }
            }
        }
        let (result, _, ok) = child_pass(w.name, seed, seconds, true, &out_dir)?;
        report.correct &= ok && result.get("correct") == Some(&Json::Bool(true));
        report.layers = metric_values(&result);
        all_ok &= report.correct;
        eprintln!(
            "spine all: {} {}",
            w.name,
            if report.correct { "ok" } else { "FAILED" }
        );
        reports.push(report);
    }
    let text = report::all_json(seed, seconds, runs.max(1), &reports);
    let path = out_dir.join("spine.json");
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{text}");
    eprintln!("spine all: report in {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two report files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let result = Args::parse(argv).and_then(|args| match command.as_str() {
        "bench" => bench(&args, true),
        "run" => bench(&args, false),
        "gen" => gen_all(&args),
        "all" => all(&args),
        "compare" => compare(&args),
        other => Err(format!(
            "unknown command {other:?}; expected bench, gen, run, all or compare"
        )),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
