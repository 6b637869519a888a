//! The `spine` binary end to end, at one-second scale.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use obs::json::Json;

fn spine(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spine"))
        .args(args)
        // The binary keeps its scratch files under the target directory.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn spine")
}

fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    obs::json::parse(line).expect("the last line is JSON")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_wrong_expected_decision_fails_the_run() {
    let base = [
        "bench",
        "--workload",
        "serve_closed",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let honest = spine(&base);
    assert!(
        honest.status.success(),
        "{}",
        String::from_utf8_lossy(&honest.stderr)
    );
    let r = result(&honest);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));

    let mut corrupted = base.to_vec();
    corrupted.push("--corrupt-expected");
    let wrong = spine(&corrupted);
    assert_eq!(wrong.status.code(), Some(1));
    let r = result(&wrong);
    assert_eq!(r.get("correct"), Some(&Json::Bool(false)));
    assert!(r.get("failed").and_then(Json::as_f64).unwrap() > 0.0);
    let stderr = String::from_utf8_lossy(&wrong.stderr);
    assert!(
        stderr.contains("differs from the in-process decision"),
        "{stderr}"
    );
}

#[test]
fn gen_is_a_function_of_the_seed_and_run_needs_only_its_files() {
    let (a, b, c) = (fresh_dir("gen-a"), fresh_dir("gen-b"), fresh_dir("gen-c"));
    for (dir, seed) in [(&a, "3"), (&b, "3"), (&c, "4")] {
        let out = spine(&[
            "gen",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut files: Vec<_> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "arrivals.txt",
            "features.txt",
            "model.txt",
            "scenario.swf",
            "train.swf"
        ]
    );
    for f in &files {
        let read = |d: &Path| std::fs::read(d.join(f)).unwrap();
        assert_eq!(read(&a), read(&b), "{f:?}: same seed, same bytes");
        if f != "model.txt" {
            assert_ne!(read(&a), read(&c), "{f:?}: another seed, other inputs");
        }
    }

    let run = spine(&[
        "run",
        "--inputs",
        a.to_str().unwrap(),
        "--workload",
        "train_local",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let r = result(&run);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
    assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 16.0);

    // Without the files there is nothing to run.
    let empty = fresh_dir("gen-empty");
    let missing = spine(&[
        "run",
        "--inputs",
        empty.to_str().unwrap(),
        "--workload",
        "train_local",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(missing.stdout.is_empty());
}

#[test]
fn compare_flags_a_regression_and_passes_an_a_a_pair() {
    let dir = fresh_dir("compare");
    let report = |work: f64| {
        let metric = |median: f64| {
            format!(
                "{{\"median\":{median},\"q1\":{},\"q3\":{}}}",
                median * 0.99,
                median * 1.01
            )
        };
        let workload = format!(
            "{{\"fail_share\":0,\"end_to_end\":{{\"work_per_s\":{},\"lat_p50_us\":{},\"peak_rss_mb\":{},\"setup_s\":{}}}}}",
            metric(work),
            metric(50.0),
            metric(8.0),
            metric(0.1)
        );
        let all: Vec<String> = spine::names::WORKLOADS
            .iter()
            .map(|w| format!("\"{}\":{workload}", w.name))
            .collect();
        format!("{{\"cores\":2,\"workloads\":{{{}}}}}", all.join(","))
    };
    let (a, b, slow) = (
        dir.join("a.json"),
        dir.join("b.json"),
        dir.join("slow.json"),
    );
    std::fs::write(&a, report(100.0)).unwrap();
    std::fs::write(&b, report(97.0)).unwrap();
    std::fs::write(&slow, report(70.0)).unwrap();

    let same = spine(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&same.stdout).to_string();
    assert!(same.status.success(), "{table}");
    assert!(
        !table.contains("regressed") && !table.contains("unresolved"),
        "{table}"
    );
    assert!(table.contains("0.9700"), "ratio with its base: {table}");

    let worse = spine(&["compare", a.to_str().unwrap(), slow.to_str().unwrap()]);
    assert_eq!(worse.status.code(), Some(1));
    let table = String::from_utf8_lossy(&worse.stdout).to_string();
    assert_eq!(table.matches("regressed").count(), 5, "{table}");
}
