//! **§4.6** — computational cost: per-decision inference latency (the
//! paper reports 0.7 ms through TensorFlow; the Rust MLP is far cheaper)
//! and wall-clock training cost per epoch (paper: ~35 min total on their
//! setup).

use std::time::{Duration, Instant};

use inspector::{FeatureBuilder, FeatureMode, Normalizer, SchedInspector};
use policies::PolicyKind;
use rlcore::BinaryPolicy;
use simhpc::{Metric, Observation, QueueEntry};
use workload::Job;

use crate::ctx::{Ctx, Outcome};
use crate::harness::ComboSpec;
use crate::scale::Scale;

/// The paper's per-decision inference budget, seconds.
const PAPER_INFERENCE: f64 = 0.0007;

fn observation() -> Observation {
    Observation {
        now: 5_000.0,
        job: Job::new(1, 4_000.0, 3_600.0, 7_200.0, 16),
        wait: 1_000.0,
        rejections: 3,
        max_rejections: 72,
        free_procs: 40,
        total_procs: 128,
        runnable: true,
        backfill_enabled: false,
        backfillable: 0,
        queue: (0..32)
            .map(|i| QueueEntry {
                id: i,
                wait: i as f64 * 60.0,
                estimate: 600.0 + i as f64 * 120.0,
                procs: 1 + (i % 16) as u32,
            })
            .collect(),
    }
}

pub fn cost_inference(ctx: &mut Ctx) -> Outcome {
    // ---- inference latency ----
    let fb = FeatureBuilder {
        mode: FeatureMode::Manual,
        metric: Metric::Bsld,
        norm: Normalizer::new(128, 432_000.0),
    };
    let agent = SchedInspector::new(BinaryPolicy::new(fb.dim(), ctx.seed()), fb);
    let obs = observation();
    // Warm up, then time full inspections (feature build + forward pass)
    // — what each scheduling decision costs — for a second, whatever the
    // build profile makes of one.
    let mut sink = 0u64;
    for _ in 0..1_000 {
        sink += agent.inspect(&obs) as u64;
    }
    let (start, mut n) = (Instant::now(), 0u64);
    while start.elapsed() < Duration::from_secs(1) {
        for _ in 0..1_000 {
            sink += agent.inspect(&obs) as u64;
        }
        n += 1_000;
    }
    let per_decision = start.elapsed().as_secs_f64() / n as f64;
    std::hint::black_box(sink);

    // ---- training cost ----
    // The training is what is being timed, so it is run here whatever the
    // invocation's scale and whatever is already trained.
    let scale = Scale {
        epochs: 3,
        ..Scale::quick()
    };
    let start = Instant::now();
    let trained = ctx.train_unshared(&ComboSpec::new("SDSC-SP2", PolicyKind::Sjf), &scale);
    let per_epoch = start.elapsed().as_secs_f64() / trained.history.records.len() as f64;
    let paper_scale_min =
        per_epoch * 80.0 * (100.0 / scale.batch as f64) * (128.0 / scale.seq_len as f64) / 60.0;

    let mut out = Outcome::default();
    let rows = vec![
        vec![
            "inference per decision".to_string(),
            "0.7 ms".to_string(),
            format!("{:.3} µs", per_decision * 1e6),
        ],
        vec![
            format!("training epoch ({}x{} jobs)", scale.batch, scale.seq_len),
            "-".to_string(),
            format!("{per_epoch:.2} s"),
        ],
        vec![
            "full training (paper setup)".to_string(),
            "~35 min".to_string(),
            format!("~{paper_scale_min:.1} min at paper scale (est.)"),
        ],
    ];
    out.table(ctx, &["quantity", "paper", "ours"], rows, None);
    let measured = format!(
        "{:.3} µs, {}x below",
        per_decision * 1e6,
        (PAPER_INFERENCE / per_decision).round()
    );
    out.enforce(
        "inference costs less than the paper's 0.7 ms per decision, negligible for batch scheduling",
        measured,
        per_decision < PAPER_INFERENCE,
    );
    out
}
