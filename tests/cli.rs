//! Drives the `schedinspector` binary itself: `report` is a renderer with
//! no baseline files to find, a DEGRADED sidecar fails its exit code, and
//! a numeric flag that does not parse is a usage error.

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
