//! Serving parity: decisions served over the wire are bit-identical to
//! direct in-process `SchedInspector::decide` calls.
//!
//! This holds because the client prints `f32` features with the shortest
//! round-trippable representation and the server parses them as `f64`
//! before casting back to `f32` — an exact chain — and both sides run the
//! same scratch-buffer forward pass.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use inspector::{FeatureBuilder, FeatureMode, Normalizer, SchedInspector};
use rand::{RngExt, SeedableRng, StdRng};
use rlcore::{BinaryPolicy, PolicyScratch};
use serve::protocol::{parse_response, Response};
use serve::{serve, ServeConfig};
use simhpc::Metric;

fn inspector(seed: u64) -> SchedInspector {
    let fb = FeatureBuilder {
        mode: FeatureMode::Manual,
        metric: Metric::Bsld,
        norm: Normalizer::new(256, 7_200.0),
    };
    SchedInspector::new(BinaryPolicy::new(fb.dim(), seed), fb)
}

#[test]
fn wire_decisions_match_in_process_calls_bit_exactly() {
    let agent = inspector(101);
    let dim = agent.input_dim();
    let handle = serve(
        agent.clone(),
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
        obs::Telemetry::disabled(),
    )
    .expect("bind ephemeral port");

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut scratch = PolicyScratch::default();
    let mut rng = StdRng::seed_from_u64(2024);

    for id in 0..500u64 {
        // Mix of in-range, boundary, and awkwardly-representable floats.
        let features: Vec<f32> = (0..dim)
            .map(|j| match (id as usize + j) % 5 {
                0 => rng.random_range(0.0f32..1.0),
                1 => rng.random_range(-1.0f32..0.0),
                2 => 1.0 / 3.0,
                3 => f32::MIN_POSITIVE,
                _ => (id as f32) / 499.0,
            })
            .collect();
        let expect = agent.decide(&features, &mut scratch);

        let payload = features
            .iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",");
        let line = format!("{{\"verb\":\"infer\",\"id\":{id},\"features\":[{payload}]}}\n");
        stream.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match parse_response(reply.trim()).expect("valid response line") {
            Response::Decision {
                id: got_id,
                reject,
                p_reject,
                ..
            } => {
                assert_eq!(got_id, id);
                assert_eq!(reject, expect.reject, "decision diverged at id {id}");
                assert_eq!(
                    p_reject.to_bits(),
                    expect.p_reject.to_bits(),
                    "p_reject not bit-identical at id {id}: wire {p_reject} vs direct {}",
                    expect.p_reject
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn parity_survives_model_save_load_and_pipelining() {
    // The full deployment chain: save → load (text format) → serve, with
    // pipelined requests so real micro-batches form.
    let agent = inspector(77);
    let dim = agent.input_dim();
    let dir = std::env::temp_dir().join("schedinspector-serve-parity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.txt");
    inspector::model_io::save(&agent, &path).unwrap();
    let loaded = inspector::model_io::load(&path).unwrap();
    assert_eq!(agent, loaded);

    let handle = serve(
        loaded,
        ServeConfig {
            max_batch: 16,
            ..ServeConfig::default()
        },
        obs::Telemetry::disabled(),
    )
    .unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut scratch = PolicyScratch::default();
    let mut rng = StdRng::seed_from_u64(55);

    let n = 256u64;
    let mut batch = String::new();
    let mut expected = Vec::new();
    for id in 0..n {
        let features: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        expected.push(agent.decide(&features, &mut scratch));
        let payload = features
            .iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",");
        batch.push_str(&format!(
            "{{\"verb\":\"infer\",\"id\":{id},\"features\":[{payload}]}}\n"
        ));
    }
    stream.write_all(batch.as_bytes()).unwrap();
    for id in 0..n {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match parse_response(reply.trim()).unwrap() {
            Response::Decision {
                id: got_id,
                reject,
                p_reject,
                ..
            } => {
                assert_eq!(got_id, id, "responses must come back in order");
                let e = &expected[id as usize];
                assert_eq!(reject, e.reject);
                assert_eq!(p_reject.to_bits(), e.p_reject.to_bits());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let stats = handle.stats();
    handle.shutdown(); // join first: the engine bumps counters after sending
    assert!(
        stats.mean_batch_size() > 1.0,
        "pipelined load should form real micro-batches (mean {})",
        stats.mean_batch_size()
    );
    std::fs::remove_file(&path).ok();
}
