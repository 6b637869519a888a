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

fn copy_spec(dir: &Path) {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios/steady.toml");
    std::fs::copy(spec, dir.join("steady.toml")).expect("copy scenario spec");
}

/// Files the contract table's rows name: a trained model, a copy of it
/// with one weight on line 12 spoiled, a scenario spec, a feature line of
/// the wrong width, and a regular file where a store directory (or a
/// model, or a JSON report) is expected.
fn contract_fixtures(dir: &Path) {
    let train = run(
        dir,
        "train --jobs 1200 --epochs 1 --batch 4 --len 16 --out model.txt",
    );
    assert!(train.status.success(), "train failed: {train:?}");
    let model = std::fs::read_to_string(dir.join("model.txt")).expect("read model");
    let mut lines: Vec<String> = model.lines().map(String::from).collect();
    assert!(
        lines[11].starts_with("w "),
        "line 12 is the second layer's weights"
    );
    lines[11].push('x');
    std::fs::write(dir.join("badfloat.txt"), lines.join("\n")).expect("write spoiled model");
    copy_spec(dir);
    std::fs::write(dir.join("wrong.jsonl"), "[1,2,3]\n").expect("write feature line");
    std::fs::write(dir.join("afile"), "hi\n").expect("write plain file");
}

/// Every subcommand's failure modes: `(arguments, exit code, what stderr
/// must name)`. Usage errors and unreadable or unparseable inputs exit 2,
/// failures while doing the work exit 1. Recorded against the binary as it
/// was before the CLI was split into modules; the rows after the comment
/// are the verdicts that split added (with
/// `a_worker_from_another_world_is_refused_and_training_completes`).
const CONTRACT: &[(&str, i32, &[&str])] = &[
    ("", 2, &["usage: schedinspector"]),
    ("frobnicate", 2, &["usage: schedinspector"]),
    ("evaluate", 2, &["--model"]),
    ("evaluate --model missing.txt", 2, &["missing.txt"]),
    ("evaluate --model afile", 2, &["afile"]),
    (
        "evaluate --model badfloat.txt",
        2,
        &["badfloat.txt", "line 12:"],
    ),
    ("analyze", 2, &["--model"]),
    ("analyze --model missing.txt", 2, &["missing.txt"]),
    ("serve", 2, &["--model"]),
    ("serve --model missing.txt", 2, &["missing.txt"]),
    ("serve --model-dir afile", 2, &["afile"]),
    (
        "serve --model model.txt --deadline-ms x",
        2,
        &["--deadline-ms", "\"x\""],
    ),
    ("infer", 2, &["--model"]),
    ("infer --model missing.txt", 2, &["missing.txt"]),
    (
        "infer --model model.txt --in missing.jsonl",
        2,
        &["missing.jsonl"],
    ),
    (
        "infer --model model.txt --in wrong.jsonl",
        1,
        &["line 1", "8 features", "got 3"],
    ),
    ("scenario", 2, &["validate|compile|replay"]),
    ("scenario validate", 2, &["--spec"]),
    (
        "scenario validate --spec missing.toml",
        2,
        &["missing.toml"],
    ),
    ("scenario validate --spec afile", 2, &["afile"]),
    (
        "scenario frob --spec steady.toml",
        2,
        &["frob", "validate|compile|replay"],
    ),
    (
        "scenario replay --spec steady.toml --policy NOPE",
        2,
        &["NOPE"],
    ),
    ("store", 2, &["inspect|compact"]),
    ("store inspect", 2, &["--dir"]),
    ("store frob --dir fresh", 2, &["frob", "inspect|compact"]),
    ("store inspect --dir afile", 2, &["afile"]),
    ("check-telemetry", 2, &["--file"]),
    (
        "check-telemetry --file missing.jsonl",
        2,
        &["missing.jsonl"],
    ),
    ("report", 2, &["sidecar"]),
    ("report missing.jsonl", 2, &["missing.jsonl"]),
    ("report --fairness missing.json", 2, &["missing.json"]),
    ("report --fairness afile", 2, &["afile"]),
    ("trace missing.jsonl", 2, &["missing.jsonl"]),
    ("train --jobs 1200 --resume", 2, &["--resume", "--store"]),
    ("train --jobs 1200 --store afile", 2, &["afile"]),
    ("train --jobs 1200 --policy NOPE", 2, &["NOPE"]),
    ("train --jobs 1200 --metric nope", 2, &["nope"]),
    ("train --jobs 1200 --batch 0", 2, &["batch_size"]),
    ("train --trace NOPE", 2, &["NOPE"]),
    ("train --trace-file missing.swf", 2, &["missing.swf"]),
    ("train --scenario missing.toml", 2, &["missing.toml"]),
    (
        "train --jobs 1200 --telemetry no-such-dir/x.jsonl",
        2,
        &["no-such-dir/x.jsonl"],
    ),
    ("train --jobs 1200 --dist 0", 2, &["--dist", "\"0\""]),
    (
        "train --jobs 1200 --dist 2 --merge nope",
        2,
        &["--merge", "nope"],
    ),
    (
        "train --jobs 1200 --dist 2 --frame nope",
        2,
        &["--frame", "nope"],
    ),
    (
        "train --jobs 1200 --dist 2 --dist-workers nope",
        2,
        &["--dist-workers", "nope"],
    ),
    (
        "dist-worker --jobs 1200 --connect 127.0.0.1:1 --connect-timeout-ms 10",
        1,
        &["127.0.0.1:1"],
    ),
    // An unknown flag used to be dropped without a word (this trained the
    // default 40 epochs), and an unwritable --out used to panic after the
    // whole training run.
    ("train --jobs 1200 --epoch 5", 2, &["train", "--epoch"]),
    (
        "serve --model model.txt --shard 2",
        2,
        &["serve", "--shard"],
    ),
    // A removed flag is an unknown flag, not one quietly accepted.
    (
        "serve --model model.txt --workers 4",
        2,
        &["serve", "--workers"],
    ),
    (
        "train --jobs 1200 --epochs 1 --batch 4 --len 16 --out no-such-dir/model.txt",
        1,
        &["--out", "no-such-dir/model.txt"],
    ),
    (
        "trace --jobs 500 --out no-such-dir/t.swf",
        1,
        &["no-such-dir/t.swf"],
    ),
];

#[test]
fn every_failure_mode_keeps_its_exit_code_and_names_what_was_wrong() {
    let dir = scratch_dir("contract");
    contract_fixtures(&dir);
    for (args, code, needles) in CONTRACT {
        let out = run(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "`{args}`: {stderr}");
        for needle in *needles {
            assert!(stderr.contains(needle), "`{args}` names {needle}: {stderr}");
        }
        assert!(!stderr.contains("panicked"), "`{args}`: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte-for-byte stdout of three well-formed invocations, recorded before
/// the split.
#[test]
fn well_formed_invocations_print_exactly_what_they_printed_before() {
    let dir = scratch_dir("golden");
    copy_spec(&dir);
    let golden = [
        (
            "trace --trace Lublin --jobs 500",
            "Lublin        256        771       4869    22.1\n",
        ),
        (
            "scenario validate --spec steady.toml",
            "scenario \"steady\": 256 procs, 12.0h horizon, 2 tenant(s), 0 event(s)\n  \
             tenant batch           100000 users, 400.0 jobs/h, Steady arrivals\n  \
             tenant interactive       2000 users, 120.0 jobs/h, Steady arrivals\n\
             steady.toml: ok\n",
        ),
        (
            "store inspect --dir fresh",
            "store fresh\n  manifest version  0\n  wal durable bytes 0\n  \
             memtable entries  0\n  live keys         0\n  segments          0\n  \
             models            none\n  verify            ok (0 records checked)\n",
        ),
    ];
    for (args, stdout) in golden {
        let out = run(&dir, args);
        assert_eq!(out.status.code(), Some(0), "`{args}`: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), stdout, "`{args}`");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `dist-worker` started with another `--len` rebuilds a different world
/// with the same seed and feature dimension. The coordinator refuses it at
/// the handshake (the worker exits non-zero naming the world), keeps
/// waiting, and finishes on a worker started with its own flags.
#[test]
fn a_worker_from_another_world_is_refused_and_training_completes() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    /// A failed assertion must not leave the coordinator waiting for workers.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
        }
    }

    let dir = scratch_dir("world");
    let world = "--jobs 1200 --epochs 2 --batch 4 --seed 3";
    let coordinator = Command::new(env!("CARGO_BIN_EXE_schedinspector"))
        .args(format!("train {world} --len 16 --dist 1 --dist-workers none").split_whitespace())
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");
    let mut coordinator = KillOnDrop(coordinator);
    let mut stdout = BufReader::new(coordinator.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert_ne!(
            stdout.read_line(&mut line).expect("read stdout"),
            0,
            "no address"
        );
        if let Some(rest) = line.strip_prefix("coordinator on ") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };

    let refused = run(
        &dir,
        &format!("dist-worker {world} --len 17 --connect {addr}"),
    );
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("world"), "{stderr}");

    let joined = run(
        &dir,
        &format!("dist-worker {world} --len 16 --connect {addr}"),
    );
    assert!(joined.status.success(), "{joined:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).expect("read stdout");
    let status = coordinator.0.wait().expect("coordinator exits");
    assert!(status.success(), "{rest}");
    assert!(rest.contains("1 worker(s) joined"), "{rest}");
    std::fs::remove_dir_all(&dir).ok();
}
