//! The local-vs-distributed differential oracle: a distributed run must
//! be indistinguishable — byte-for-byte in the serialized checkpoint,
//! float-for-float in the training curve — from the in-process `Trainer`
//! it decomposes. One worker is the ISSUE's hard requirement; sync-merge
//! multi-shard runs must *also* match exactly, because a synchronous
//! merge is definitionally the same central update over the same batch.
//! Self-determinism at 2/4 workers is property-tested over random seeds.

mod common;

use common::{make_trainer, run_dist, EPOCHS};
use dist::{FrameKind, MergeMode};
use proptest::prelude::*;
use workload::{profiles, synthetic};

/// The four calibrated workload profiles from the paper's evaluation.
const PROFILES: [(&str, &workload::TraceProfile); 4] = [
    ("SDSC-SP2", &profiles::SDSC_SP2),
    ("CTC-SP2", &profiles::CTC_SP2),
    ("HPC2N", &profiles::HPC2N),
    ("Lublin-256", &profiles::LUBLIN_256),
];

/// Run the existing in-process trainer and serialize its final state.
fn run_local(trace: &workload::JobTrace, seed: u64) -> (String, Vec<(f64, f64)>) {
    let mut trainer = make_trainer(trace.clone(), seed);
    let history = trainer.train();
    let curve = history
        .records
        .iter()
        .map(|r| (r.base_metric, r.improvement_pct))
        .collect();
    (trainer.checkpoint_text(EPOCHS), curve)
}

#[test]
fn one_worker_distributed_equals_in_process_trainer_on_all_calibrated_traces() {
    for (name, profile) in PROFILES {
        let trace = synthetic::generate(profile, 72, 7);
        let (local_ckpt, local_curve) = run_local(&trace, 42);
        let (dist_ckpt, dist_curve, report) =
            run_dist(&trace, 42, 1, 1, MergeMode::Sync, FrameKind::Json);
        assert_eq!(
            dist_ckpt, local_ckpt,
            "{name}: 1-worker distributed checkpoint diverged from in-process trainer"
        );
        assert_eq!(dist_curve, local_curve, "{name}: training curves diverged");
        assert_eq!(
            report.episodes,
            (EPOCHS * common::BATCH) as u64,
            "{name}: episode ledger must account every planned episode exactly once"
        );
    }
}

#[test]
fn sync_merge_is_shard_count_invariant_and_equals_local() {
    // Synchronous merge reassembles the full batch before one central
    // update, so the shard count must be unobservable in the weights.
    let trace = synthetic::generate(&profiles::SDSC_SP2, 72, 11);
    let (local_ckpt, local_curve) = run_local(&trace, 17);
    for shards in [2usize, 4] {
        let (dist_ckpt, dist_curve, _) =
            run_dist(&trace, 17, shards, shards, MergeMode::Sync, FrameKind::Json);
        assert_eq!(
            dist_ckpt, local_ckpt,
            "{shards}-shard sync run diverged from in-process trainer"
        );
        assert_eq!(dist_curve, local_curve);
    }
}

#[test]
fn binary_frames_change_the_wire_not_the_bytes() {
    let trace = synthetic::generate(&profiles::HPC2N, 72, 13);
    let (json_ckpt, _, _) = run_dist(&trace, 23, 2, 2, MergeMode::Sync, FrameKind::Json);
    let (bin_ckpt, _, _) = run_dist(&trace, 23, 2, 2, MergeMode::Sync, FrameKind::Binary);
    assert_eq!(
        json_ckpt, bin_ckpt,
        "frame encoding is a transport choice; it must not leak into training"
    );
}

#[test]
fn decentralized_single_shard_equals_sync() {
    // With one shard the decentralized average has one term, so DD-PPO
    // mode must collapse to the synchronous (and hence local) result.
    let trace = synthetic::generate(&profiles::CTC_SP2, 72, 5);
    let (local_ckpt, _) = run_local(&trace, 31);
    let (dd_ckpt, _, _) = run_dist(&trace, 31, 1, 1, MergeMode::Decentralized, FrameKind::Json);
    assert_eq!(dd_ckpt, local_ckpt);
}

proptest! {
    // Each case is four full training runs; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Self-determinism: for a fixed `(seed, shard count)` a distributed
    /// run — sync or decentralized, 2 or 4 workers — reproduces its own
    /// final checkpoint byte-for-byte.
    #[test]
    fn multi_worker_runs_are_self_deterministic(
        seed in 0u64..1 << 48,
        workers in 2usize..=4,
        decentralized in any::<bool>(),
    ) {
        let shards = if workers > common::BATCH { common::BATCH } else { workers };
        let merge = if decentralized {
            MergeMode::Decentralized
        } else {
            MergeMode::Sync
        };
        let trace = synthetic::generate(&profiles::SDSC_SP2, 72, 3);
        let (a, curve_a, _) = run_dist(&trace, seed, workers, shards, merge, FrameKind::Json);
        let (b, curve_b, _) = run_dist(&trace, seed, workers, shards, merge, FrameKind::Json);
        prop_assert_eq!(a, b, "same (seed, shards) must reproduce identical bytes");
        prop_assert_eq!(curve_a, curve_b);
    }
}

/// A worker whose world differs only in `seq_len` — same trace, seed and
/// feature dimension, so the old handshake admitted it and merged episodes
/// over the wrong sequences — is turned away at `hello`, and training
/// completes on the good worker with the in-process bytes.
#[test]
fn worker_with_a_different_seq_len_is_rejected_at_hello() {
    use dist::{run_worker, Coordinator, DistConfig, DistError, WorkerConfig};
    use inspector::{InspectorConfig, Trainer};

    let trace = synthetic::generate(&profiles::SDSC_SP2, 72, 7);
    let (local_ckpt, _) = run_local(&trace, 42);
    let mut coordinator_trainer = make_trainer(trace.clone(), 42);
    let mut good = make_trainer(trace.clone(), 42);
    let mut bad = Trainer::builder(trace)
        .policy(policies::PolicyKind::Sjf)
        .config(InspectorConfig {
            seq_len: common::config(42).seq_len + 1,
            ..common::config(42)
        })
        .build()
        .expect("valid trainer config");
    assert_ne!(bad.world_digest(), good.world_digest());
    assert_eq!(coordinator_trainer.world_digest(), good.world_digest());

    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind ephemeral");
    let cfg = WorkerConfig {
        connect: coordinator.addr().to_string(),
        ..WorkerConfig::default()
    };
    let (bad_cfg, good_cfg) = (cfg.clone(), cfg);
    // The good worker joins only once the bad one has been refused, so
    // every shard the bad one might have been handed is still open.
    let workers = std::thread::spawn(move || {
        let refused = run_worker(&mut bad, &bad_cfg);
        (refused, run_worker(&mut good, &good_cfg))
    });
    let dist_cfg = DistConfig::default();
    let report = coordinator
        .run(
            &mut coordinator_trainer,
            &dist_cfg,
            None,
            &obs::Telemetry::disabled(),
        )
        .expect("training completes on the good worker");
    let (refused, _) = workers.join().expect("worker thread");
    match refused {
        Err(DistError::Remote(message)) => assert!(message.contains("world"), "{message}"),
        other => panic!("mismatched worker must be refused with an error frame: {other:?}"),
    }
    assert_eq!(report.workers_joined, 1, "{report:?}");
    assert_eq!(coordinator_trainer.checkpoint_text(EPOCHS), local_ckpt);
}
