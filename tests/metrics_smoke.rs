//! Metrics-exposition smoke test: a short training run and a live decision
//! service must both answer `GET /metrics` with well-formed Prometheus text
//! containing at least one counter, gauge, and histogram family, and the
//! sidecar written alongside training must survive the offline report
//! engine (per-epoch summaries, span tree).
//!
//! This is the in-tree version of the CI smoke steps
//! (`--metrics-addr` + `curl /metrics` + `schedinspector report`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use schedinspector::obs;
use schedinspector::obs::json::Json;
use schedinspector::prelude::*;
use schedinspector::rlcore::BinaryPolicy;
use schedinspector::serve::{serve, ServeConfig};

/// One raw HTTP/1.1 scrape of `/metrics`; returns (status line, body).
fn scrape(addr: std::net::SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read full response (server closes)");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Every non-comment exposition line must be `name{labels} value` with a
/// legal metric name and a parsable sample value.
fn assert_well_formed(body: &str) {
    let legal = |s: &str| {
        let mut chars = s.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("sample has a name");
        let value = parts.next().expect("sample has a value");
        assert!(parts.next().is_none(), "extra tokens: {line}");
        let bare = name.split('{').next().unwrap();
        assert!(legal(bare), "illegal metric name in {line:?}");
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN"),
            "unparsable sample value in {line:?}"
        );
    }
}

fn sample_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn training_with_registry_exposes_metrics_and_report_analyzes_the_sidecar() {
    let trace = synthetic::generate(&profiles::SDSC_SP2, 1_200, 17);
    let (train, _) = trace.split(0.2);
    let config = InspectorConfig {
        epochs: 2,
        batch_size: 8,
        seq_len: 32,
        seed: 5,
        workers: 2,
        ..Default::default()
    };

    let path = std::env::temp_dir().join("schedinspector-metrics-smoke.jsonl");
    std::fs::remove_file(&path).ok();
    let registry = Arc::new(obs::Registry::new());
    let telemetry = Telemetry::jsonl_with_registry(&path, Arc::clone(&registry))
        .expect("create sidecar with registry tee");
    let exporter =
        obs::MetricsExporter::bind("127.0.0.1:0", Arc::clone(&registry), telemetry.clone())
            .expect("bind ephemeral metrics port");

    Trainer::builder(train)
        .policy(PolicyKind::Sjf)
        .config(config)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid config")
        .train();
    telemetry.flush();

    let (status, body) = scrape(exporter.local_addr());
    exporter.shutdown();
    assert!(status.contains("200"), "scrape failed: {status}");
    assert_well_formed(&body);

    // At least one family of each kind, fed live by the training telemetry.
    assert!(body.contains("# TYPE schedinspector_train_episodes_total counter"));
    assert!(body.contains("# TYPE schedinspector_train_epoch gauge"));
    assert!(body.contains("# TYPE schedinspector_span_epoch_seconds histogram"));
    assert!(body.contains("schedinspector_span_epoch_seconds_bucket{le=\"+Inf\"} 2"));
    assert_eq!(
        sample_value(&body, "schedinspector_train_episodes_total"),
        Some((config.epochs * config.batch_size) as f64),
        "episodes counter aggregates both epochs"
    );
    // Heartbeats feed the episodes/sec gauge.
    assert!(sample_value(&body, "schedinspector_train_episodes_per_sec").unwrap_or(0.0) > 0.0);

    // The same sidecar drives the offline report engine.
    let report = obs::report::analyze_file(&path).expect("sidecar is readable");
    assert_eq!(report.malformed_lines, 0, "{:?}", report.warnings);
    assert_eq!(report.epochs.len(), config.epochs);
    let eps = report
        .mean_heartbeat_eps()
        .expect("heartbeat throughput measured");
    assert!(eps > 0.0);
    let mut rendered = String::new();
    report.render(&mut rendered);
    assert!(rendered.contains("epoch"), "report renders an epoch table");

    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_metrics_endpoint_reads_the_same_atomics_as_the_stats_verb() {
    let fb = FeatureBuilder {
        mode: FeatureMode::Manual,
        metric: Metric::Bsld,
        norm: Normalizer::new(256, 7_200.0),
    };
    let dim = fb.dim();
    let agent = SchedInspector::new(BinaryPolicy::new(dim, 23), fb);
    let handle = serve(
        agent,
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
        Telemetry::disabled(),
    )
    .expect("bind ephemeral serve port");
    let exporter =
        obs::MetricsExporter::bind("127.0.0.1:0", handle.registry(), Telemetry::disabled())
            .expect("bind ephemeral metrics port");

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let features = vec!["0.5"; dim].join(",");
    for id in 0..3u64 {
        let line = format!("{{\"verb\":\"infer\",\"id\":{id},\"features\":[{features}]}}\n");
        stream.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"id\""), "unexpected reply: {reply}");
    }
    stream.write_all(b"{\"verb\":\"stats\"}\n").unwrap();
    let mut stats_reply = String::new();
    reader.read_line(&mut stats_reply).unwrap();
    let stats = obs::json::parse(stats_reply.trim()).expect("stats reply is JSON");
    let verb_requests = stats
        .get("stats")
        .and_then(|s| s.get("requests"))
        .and_then(Json::as_f64)
        .expect("stats verb reports request count");

    let (status, body) = scrape(exporter.local_addr());
    assert!(status.contains("200"), "scrape failed: {status}");
    assert_well_formed(&body);
    assert!(body.contains("# TYPE schedinspector_serve_requests_total counter"));
    assert!(body.contains("# TYPE schedinspector_serve_queue_depth gauge"));
    assert!(body.contains("# TYPE schedinspector_serve_e2e_seconds histogram"));

    // Same storage: the exposition sample equals the verb's snapshot
    // (no requests were sent between the two reads).
    assert_eq!(
        sample_value(&body, "schedinspector_serve_requests_total"),
        Some(verb_requests)
    );
    assert!(
        sample_value(&body, "schedinspector_serve_e2e_seconds_count").unwrap_or(0.0) >= 3.0,
        "e2e latency histogram observed the infer requests"
    );

    exporter.shutdown();
    handle.shutdown();
}
