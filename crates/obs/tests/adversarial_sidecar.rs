//! Adversarial-sidecar coverage for `obs::event::read_file` and
//! `obs::report`: real runs die mid-write (torn final line), workers crash
//! with spans open (out-of-order closes), and newer writers emit event
//! kinds this analyzer has never seen. The report must degrade to a
//! warned, `DEGRADED`-marked summary — never panic, never throw the whole
//! file away.

use std::path::PathBuf;

use obs::event;
use obs::report;

fn write_sidecar(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obs-adversarial-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sidecar.jsonl");
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn truncated_final_line_degrades_gracefully() {
    // A SIGKILL mid-write leaves the last line torn inside a JSON string.
    let path = write_sidecar(
        "truncated",
        concat!(
            "{\"kind\":\"span_open\",\"name\":\"epoch\",\"t\":0.0}\n",
            "{\"kind\":\"counter\",\"name\":\"train.episodes\",\"t\":0.5,\"delta\":16}\n",
            "{\"kind\":\"span_close\",\"name\":\"epoch\",\"t\":1.0,\"dur\":1.0}\n",
            "{\"kind\":\"counter\",\"name\":\"train.epis",
        ),
    );
    // The reader names the torn line…
    let (events, malformed) = event::read_file(&path).expect("file is readable");
    assert_eq!(events.len(), 3);
    assert_eq!(malformed.len(), 1);
    assert!(malformed[0].contains(":4:"), "{malformed:?}");
    // …and the analysis keeps everything before it.
    let r = report::analyze_file(&path).expect("analysis succeeds");
    assert_eq!(r.malformed_lines, 1);
    assert_eq!(r.events, 3);
    assert_eq!(r.epochs.len(), 1);
    assert_eq!(r.epochs[0].episodes, 16);
    assert_eq!(r.counter_totals["train.episodes"], 16);
    assert!(
        r.warnings.iter().any(|w| w.contains(":4:")),
        "{:?}",
        r.warnings
    );
    let mut text = String::new();
    r.render(&mut text);
    assert!(text.contains("DEGRADED"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn out_of_order_span_close_warns_but_aggregates() {
    // A crashed worker closes `epoch` while `rollout` is still open, then a
    // stray close arrives for a span that was never opened.
    let path = write_sidecar(
        "out-of-order",
        concat!(
            "{\"kind\":\"span_open\",\"name\":\"epoch\",\"t\":0.0}\n",
            "{\"kind\":\"span_open\",\"name\":\"rollout\",\"t\":0.2}\n",
            "{\"kind\":\"span_close\",\"name\":\"epoch\",\"t\":2.0,\"dur\":2.0}\n",
            "{\"kind\":\"span_close\",\"name\":\"ghost\",\"t\":2.5,\"dur\":0.5}\n",
        ),
    );
    let r = report::analyze_file(&path).expect("analysis succeeds");
    assert_eq!(r.malformed_lines, 0);
    // rollout was implicitly closed by the epoch close; ghost was skipped.
    let epoch = &r.spans.children["epoch"];
    assert_eq!(epoch.count, 1);
    assert!((epoch.children["rollout"].total - 1.8).abs() < 1e-9);
    assert!(!r.spans.children.contains_key("ghost"));
    assert!(
        r.warnings.iter().any(|w| w.contains("implicitly closed")),
        "{:?}",
        r.warnings
    );
    assert!(
        r.warnings.iter().any(|w| w.contains("ghost")),
        "{:?}",
        r.warnings
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_event_kinds_are_skipped_with_warnings() {
    let path = write_sidecar(
        "unknown-kind",
        concat!(
            "{\"kind\":\"counter\",\"name\":\"a\",\"t\":0.1,\"delta\":1}\n",
            "{\"kind\":\"quantum_flux\",\"name\":\"b\",\"t\":0.2,\"value\":3.0}\n",
            "{\"kind\":\"counter\",\"name\":\"a\",\"t\":0.3,\"delta\":2}\n",
        ),
    );
    let r = report::analyze_file(&path).expect("analysis succeeds");
    assert_eq!(r.malformed_lines, 1);
    assert_eq!(r.counter_totals["a"], 3);
    assert!(
        r.warnings.iter().any(|w| w.contains("quantum_flux")),
        "{:?}",
        r.warnings
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pure_garbage_sidecar_yields_empty_degraded_report_not_panic() {
    let path = write_sidecar(
        "garbage",
        "\u{0}\u{1}binary junk\nnot json at all\n{\"half\": \n[[[[[[\n",
    );
    let r = report::analyze_file(&path).expect("analysis succeeds");
    assert_eq!(r.events, 0);
    assert_eq!(r.malformed_lines, 4);
    assert!(r.epochs.is_empty());
    let mut text = String::new();
    r.render(&mut text);
    assert!(text.contains("DEGRADED"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn deeply_nested_junk_line_is_rejected_without_stack_overflow() {
    // The depth-capped JSON parser must turn a 100k-deep line into one
    // malformed-line warning, not a recursion-driven abort.
    let mut deep = String::from("{\"kind\":\"counter\",\"name\":\"a\",\"t\":0.1,\"delta\":1}\n");
    deep.push_str(&"[".repeat(100_000));
    deep.push('\n');
    let path = write_sidecar("deep", &deep);
    let r = report::analyze_file(&path).expect("analysis succeeds");
    assert_eq!(r.events, 1);
    assert_eq!(r.malformed_lines, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lenient_and_strict_agree_on_clean_sidecars() {
    let path = write_sidecar(
        "clean",
        concat!(
            "{\"kind\":\"span_open\",\"name\":\"epoch\",\"t\":0.0}\n",
            "{\"kind\":\"heartbeat\",\"name\":\"train\",\"t\":1.0,\"epoch\":0,\"eps\":32.0}\n",
            "{\"kind\":\"span_close\",\"name\":\"epoch\",\"t\":1.0,\"dur\":1.0}\n",
        ),
    );
    // Every line decodes on its own to what the file reader returns: on
    // clean input, skipping bad lines and refusing them are the same.
    let strict: Vec<_> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|line| event::decode(line).expect("clean line decodes"))
        .collect();
    let (events, malformed) = event::read_file(&path).expect("file is readable");
    assert_eq!(strict, events);
    assert!(malformed.is_empty());
    let r = report::analyze_file(&path).unwrap();
    assert_eq!(r.malformed_lines, 0);
    assert_eq!(r.mean_heartbeat_eps(), Some(32.0));
    let _ = std::fs::remove_file(&path);
}
