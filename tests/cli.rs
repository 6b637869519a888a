//! Drives the `schedinspector` binary itself: `report` is a renderer with
//! no baseline files to find, a DEGRADED sidecar fails its exit code,
//! `check-telemetry`, `report` and `trace` give one verdict on which lines
//! are valid, and a numeric flag that does not parse is a usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run the binary from `dir`, which holds nothing but what the test wrote.
fn run(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schedinspector"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("spawn schedinspector")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("schedinspector-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn report_renders_a_fresh_sidecar_and_fails_a_truncated_one() {
    let dir = scratch_dir("report");
    let train = run(
        &dir,
        "train --trace SDSC-SP2 --policy SJF --jobs 1200 --epochs 2 --batch 4 --len 16 \
         --out model.txt --telemetry run.jsonl",
    );
    assert!(train.status.success(), "train failed: {train:?}");

    let clean = run(&dir, "report run.jsonl");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(clean.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("; 2 epochs"), "{stdout}");
    assert!(stdout.contains("span wall-time breakdown"), "{stdout}");
    assert!(
        stdout.contains("rollout"),
        "span tree lists rollout: {stdout}"
    );
    assert!(!stdout.contains("DEGRADED"), "{stdout}");
    assert!(!stdout.contains("throughput"), "no gate output: {stdout}");

    // Cut the sidecar mid-line, as a process killed mid-write leaves it.
    let text = std::fs::read_to_string(dir.join("run.jsonl")).expect("read sidecar");
    let cut = text.trim_end().len() - 7;
    std::fs::write(dir.join("cut.jsonl"), &text[..cut]).expect("write truncated sidecar");
    let degraded = run(&dir, "report cut.jsonl");
    let stdout = String::from_utf8_lossy(&degraded.stdout);
    assert_eq!(degraded.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("DEGRADED: 1 malformed"), "{stdout}");
    assert!(stdout.contains("span wall-time breakdown"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The `flight_record` lines the three readers used to split on (each was
/// accepted by one of them and rejected by another): all three commands
/// now count the same five malformed lines. `obs::event`'s unit tests
/// assert the per-line messages.
#[test]
fn check_telemetry_report_and_trace_agree_on_malformed_lines() {
    let dir = scratch_dir("verdict");
    let good = r#"{"kind":"flight_record","name":"request","t":0.5,"trace":"00000000000000ab","span":"0000000000000001","parent":"0000000000000000","status":"ok","shard":0,"batch_seq":0,"generation":1,"start_ns":5,"end_ns":9}"#;
    let bad = [
        good.replace(r#""parent":"0000000000000000","#, ""),
        good.replace(r#""shard":0"#, r#""shard":1.5"#),
        good.replace(r#""shard":0"#, r#""shard":-1"#),
        good.replace("00000000000000ab", "0000000000000000"),
        good.replace("request", "teleport"),
    ];
    let mut sidecar =
        format!("{{\"kind\":\"counter\",\"name\":\"a\",\"t\":0.1,\"delta\":1}}\n{good}\n");
    for line in &bad {
        assert_ne!(line, good);
        sidecar.push_str(line);
        sidecar.push('\n');
    }
    std::fs::write(dir.join("bad.jsonl"), sidecar).expect("write sidecar");

    let check = run(&dir, "check-telemetry --file bad.jsonl");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(1), "{stderr}");
    for (line, field) in (3..=7).zip(["parent", "shard", "shard", "trace", "name"]) {
        let named = stderr
            .lines()
            .any(|l| l.starts_with(&format!("bad.jsonl:{line}: ")) && l.contains(field));
        assert!(named, "line {line} ({field}): {stderr}");
    }

    let report = run(&dir, "report bad.jsonl");
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert_eq!(report.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("2 events over"), "{stdout}");
    assert!(stdout.contains("DEGRADED: 5 malformed"), "{stdout}");

    let trace = run(&dir, "trace bad.jsonl");
    let stdout = String::from_utf8_lossy(&trace.stdout);
    assert_eq!(trace.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("1 trace(s)") && stdout.contains(" 5 malformed line(s)"),
        "{stdout}"
    );

    // Without the bad lines all three accept the file.
    std::fs::write(dir.join("good.jsonl"), format!("{good}\n")).expect("write sidecar");
    let check = run(&dir, "check-telemetry --file good.jsonl");
    assert_eq!(check.status.code(), Some(0), "{check:?}");
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(stdout.contains("good.jsonl: 1 valid events"), "{stdout}");
    assert_eq!(run(&dir, "report good.jsonl").status.code(), Some(0));
    let trace = run(&dir, "trace good.jsonl");
    let stdout = String::from_utf8_lossy(&trace.stdout);
    assert!(stdout.contains(" 0 malformed line(s)"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparseable_numeric_flag_is_a_usage_error_naming_the_flag() {
    let dir = scratch_dir("flag");
    let out = run(&dir, "train --epochs x --jobs 1200");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--epochs") && stderr.contains("\"x\""),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
