//! Sharded-engine integration tests: consistent routing and per-shard
//! metric reconciliation against the global request ledger — all over real
//! TCP connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use inspector::{FeatureBuilder, FeatureMode, Normalizer, SchedInspector};
use obs::json::Json;
use proptest::prelude::*;
use rlcore::BinaryPolicy;
use serve::protocol::{parse_response, Response};
use serve::{serve, shard_for, ServeConfig};
use simhpc::Metric;

fn inspector(seed: u64) -> SchedInspector {
    let fb = FeatureBuilder {
        mode: FeatureMode::Manual,
        metric: Metric::Bsld,
        norm: Normalizer::new(256, 7_200.0),
    };
    SchedInspector::new(BinaryPolicy::new(fb.dim(), seed), fb)
}

fn infer_line(id: u64, features: &[f32]) -> String {
    let payload = features
        .iter()
        .map(|x| format!("{x}"))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"verb\":\"infer\",\"id\":{id},\"features\":[{payload}]}}\n")
}

#[test]
fn shard_sums_reconcile_with_global_ledger_over_tcp() {
    let agent = inspector(31);
    let dim = agent.input_dim();
    let handle = serve(
        agent,
        ServeConfig {
            shards: 4,
            max_batch: 8,
            ..ServeConfig::default()
        },
        obs::Telemetry::disabled(),
    )
    .expect("bind ephemeral port");

    // Several connections (sequential, so the worker pool never blocks on
    // held-open sockets), each pipelining a burst: consecutive connection
    // ids land on different shards and every request must come back in
    // submission order.
    for conn in 0..8u64 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut batch = String::new();
        for id in 0..40u64 {
            let features: Vec<f32> = (0..dim)
                .map(|j| ((conn * 40 + id) as f32 * 0.017 + j as f32 * 0.3).sin())
                .collect();
            batch.push_str(&infer_line(id, &features));
        }
        stream.write_all(batch.as_bytes()).unwrap();
        for want_id in 0..40u64 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            match parse_response(reply.trim()).unwrap() {
                Response::Decision { id, .. } => assert_eq!(id, want_id, "per-conn FIFO"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    let stats = handle.stats();
    let registry = handle.registry();
    handle.shutdown();

    // Global ledger is exact.
    assert_eq!(stats.requests.get(), 8 * 40);
    assert_eq!(stats.accounted_requests(), stats.requests.get());
    // Shard sums equal the global counters.
    let shard_ok: u64 = stats.shards.iter().map(|s| s.ok.get()).sum();
    let shard_dl: u64 = stats.shards.iter().map(|s| s.deadline_exceeded.get()).sum();
    let shard_ov: u64 = stats.shards.iter().map(|s| s.overloaded.get()).sum();
    let shard_batched: u64 = stats.shards.iter().map(|s| s.batched_requests.get()).sum();
    let shard_batches: u64 = stats.shards.iter().map(|s| s.batches.get()).sum();
    assert_eq!(shard_ok, stats.ok.get());
    assert_eq!(shard_dl, stats.deadline_exceeded.get());
    assert_eq!(shard_ov, stats.overloaded.get());
    assert_eq!(shard_batched, stats.batched_requests.get());
    assert_eq!(shard_batches, stats.batches.get());

    // Per-shard families are visible on the /metrics exposition.
    let mut metrics = String::new();
    registry.render(&mut metrics);
    for i in 0..4 {
        assert!(
            metrics.contains(&format!("schedinspector_serve_shard{i}_ok_total")),
            "shard {i} ok family missing from exposition"
        );
        assert!(
            metrics.contains(&format!("schedinspector_serve_shard{i}_queue_depth")),
            "shard {i} queue_depth family missing from exposition"
        );
    }

    // And on the stats verb payload.
    let json = stats.to_json();
    let shards_json = json.get("shards").expect("stats payload lists shards");
    match shards_json {
        Json::Array(items) => assert_eq!(items.len(), 4),
        other => panic!("shards should be an array, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Consistent routing never migrates a connection mid-stream: the
    /// shard is a pure function of the connection id, stable across any
    /// request sequence, in range for every shard count.
    #[test]
    fn routing_is_pure_stable_and_in_range(
        conn in any::<u64>(),
        shards in 1usize..64,
        probes in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let first = shard_for(conn, shards);
        prop_assert!(first < shards);
        // Re-evaluating between arbitrary other routing queries (other
        // connections' traffic) never moves this connection.
        for other in probes {
            let _ = shard_for(other, shards);
            prop_assert_eq!(shard_for(conn, shards), first);
        }
    }

    /// Every shard is reachable: routing partitions the id space onto all
    /// shards (no dead shard, no out-of-range shard).
    #[test]
    fn routing_covers_all_shards(shards in 1usize..32) {
        let mut seen = vec![false; shards];
        for conn in 0..(shards as u64 * 4) {
            seen[shard_for(conn, shards)] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
