//! Telemetry smoke test: a short training run with a JSONL sidecar must
//! produce a file where every line parses under the documented schema and
//! whose counters reconcile with the returned [`TrainingHistory`].
//!
//! This is the in-tree version of the CI smoke step
//! (`schedinspector train --telemetry out.jsonl` + `check-telemetry`).

use schedinspector::obs;
use schedinspector::prelude::*;

#[test]
fn two_epoch_jsonl_sidecar_parses_and_reconciles_with_history() {
    let trace = synthetic::generate(&profiles::SDSC_SP2, 1_200, 11);
    let (train, _) = trace.split(0.2);
    let config = InspectorConfig {
        epochs: 2,
        batch_size: 8,
        seq_len: 32,
        seed: 3,
        workers: 2,
        ..Default::default()
    };

    let path = std::env::temp_dir().join("schedinspector-telemetry-smoke.jsonl");
    std::fs::remove_file(&path).ok();
    let telemetry = Telemetry::jsonl(&path).expect("create sidecar");
    let history = Trainer::builder(train)
        .policy(PolicyKind::Sjf)
        .config(config)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid config")
        .train();
    telemetry.flush();

    let text = std::fs::read_to_string(&path).expect("read sidecar");
    let mut epoch_closes = 0usize;
    let mut episodes = 0u64;
    let mut inspections = 0u64;
    let mut rejections = 0u64;
    let mut sim_decisions = 0u64;
    let mut mean_rewards = 0usize;
    let mut lines = 0usize;
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let event = obs::event::decode(line)
            .unwrap_or_else(|e| panic!("line {}: invalid telemetry: {e}", i + 1));
        lines += 1;
        let delta = || match event {
            obs::Event::Counter { delta, .. } => delta,
            _ => unreachable!("only counters carry a delta"),
        };
        match (event.kind(), event.name()) {
            ("span_close", "epoch") => epoch_closes += 1,
            ("counter", "train.episodes") => episodes += delta(),
            ("counter", "train.inspections") => inspections += delta(),
            ("counter", "train.rejections") => rejections += delta(),
            ("counter", "sim.accept") | ("counter", "sim.reject") => sim_decisions += delta(),
            ("gauge", "epoch.mean_reward") => mean_rewards += 1,
            _ => {}
        }
    }
    assert!(lines > 0, "sidecar is empty");

    // One epoch span and one mean-reward gauge per training epoch; counter
    // totals must equal what the trainer reported back through the history.
    assert_eq!(history.records.len(), config.epochs);
    assert_eq!(epoch_closes, config.epochs);
    assert_eq!(mean_rewards, config.epochs);
    assert_eq!(episodes, (config.epochs * config.batch_size) as u64);
    let hist_inspections: u64 = history.records.iter().map(|r| r.inspections).sum();
    let hist_rejections: u64 = history.records.iter().map(|r| r.rejections).sum();
    assert_eq!(inspections, hist_inspections);
    assert_eq!(rejections, hist_rejections);
    // Every inspected scheduling point is either accepted or rejected.
    assert_eq!(sim_decisions, hist_inspections);

    std::fs::remove_file(&path).ok();
}
