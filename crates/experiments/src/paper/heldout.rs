//! The held-out evaluations: trained inspectors scheduling random
//! sequences from the test split, beside their base policy — **Figure 8**
//! (test performance), **Table 4** (cross-trace generalization),
//! **Figure 10** (metric trade-offs), **Table 5** (utilization) and
//! **Figure 12** (the Slurm multifactor policy).

use inspector::EvalReport;
use policies::PolicyKind;
use simhpc::{Metric, SimConfig};

use crate::ctx::{Ctx, Outcome};
use crate::harness::ComboSpec;
use crate::output::f4;
use crate::paper::curves::{all_positive, curves, sjf_f1_by_trace};
use crate::TRACES;

/// Train (or reuse) `spec` and evaluate it on held-out sequences drawn
/// with `seed ^ salt`.
fn evaluated(ctx: &mut Ctx, spec: &ComboSpec, salt: u64) -> EvalReport {
    ctx.train(spec).evaluate(&ctx.scale(), ctx.seed() ^ salt)
}

/// Utilization lost to the inspector, in points.
fn util_drop(rep: &EvalReport) -> f64 {
    (rep.mean_base_util() - rep.mean_inspected_util()) * 100.0
}

/// The paper's worst utilization cost, in points (Lublin/F1, Table 5).
const WORST_UTIL_DROP: f64 = 4.33;

fn quartiles(mut xs: Vec<f64>) -> String {
    xs.sort_by(|a, b| a.total_cmp(b));
    let q = |f: f64| xs[((xs.len() - 1) as f64 * f).round() as usize];
    format!("{:.1}/{:.1}/{:.1}", q(0.25), q(0.5), q(0.75))
}

pub fn fig8_test_perf(ctx: &mut Ctx) -> Outcome {
    let (mut rows, mut lines, mut gains) = (Vec::new(), Vec::new(), Vec::new());
    for spec in sjf_f1_by_trace() {
        let rep = evaluated(ctx, &spec, 0xF18);
        let (policy, trace) = (spec.policy_name(), &spec.trace);
        let series = rep.series(Metric::Bsld);
        for (i, (base, inspected)) in series.iter().enumerate() {
            lines.push(format!("{policy},{trace},{i},{base:.4},{inspected:.4}"));
        }
        let gain = rep.improvement_pct(Metric::Bsld) * 100.0;
        gains.push(gain);
        rows.push(vec![
            policy.to_string(),
            trace.to_string(),
            format!("{:.1}", rep.mean_base(Metric::Bsld)),
            format!("{:.1}", rep.mean_inspected(Metric::Bsld)),
            format!("{gain:+.1}%"),
            quartiles(series.iter().map(|s| s.0).collect()),
            quartiles(series.iter().map(|s| s.1).collect()),
        ]);
    }
    let mut out = Outcome::default();
    let columns = [
        "policy",
        "trace",
        "base",
        "inspected",
        "improve",
        "base q1/med/q3",
        "insp q1/med/q3",
    ];
    let header = "policy,trace,seq,base_bsld,inspected_bsld";
    out.table(
        ctx,
        &columns,
        rows,
        Some(("fig8_test_perf.csv", header, lines)),
    );
    let (measured, holds) = all_positive(gains.into_iter(), "%");
    out.finding(
        "held-out bsld improves for every combination (paper: 13.6 % on F1/CTC-SP2 to 91.6 % on SJF/Lublin)",
        measured,
        holds,
    );
    out
}

pub fn table4_cross_trace(ctx: &mut Ctx) -> Outcome {
    let (scale, seed) = (ctx.scale(), ctx.seed() ^ 0x7AB4);
    let models = TRACES.map(|trace| ctx.train(&ComboSpec::new(trace, PolicyKind::Sjf)));
    // The transfer model carries SDSC-SP2 normalization; the target
    // trace's machine differs, which is exactly the stress the paper
    // applies. Both inspectors see the same test sequences.
    let transfer = &models[0].inspector;
    let (mut rows, mut beats_base, mut own_best) = (Vec::new(), 0, 0);
    for (trace, target) in TRACES.iter().zip(&models) {
        let own = target.evaluate(&scale, seed);
        let transferred = target
            .evaluate_on(transfer, &target.test, &scale, seed)
            .mean_inspected(Metric::Bsld);
        let (base, own) = (
            own.mean_base(Metric::Bsld),
            own.mean_inspected(Metric::Bsld),
        );
        beats_base += usize::from(transferred < base);
        own_best += usize::from(own <= transferred);
        rows.push(vec![trace.to_string(), f4(base), f4(transferred), f4(own)]);
    }
    let mut out = Outcome::default();
    let header = "trace,base,sdsc_to_y,y_to_y";
    out.csv_table(ctx, "table4_cross_trace.csv", header, rows);
    out.finding(
        "the SDSC-SP2 model outperforms the base scheduler on every trace",
        format!("on {beats_base} of {}", TRACES.len()),
        beats_base == TRACES.len(),
    );
    out.finding(
        "a trace's own model is at least as good as the transferred one",
        format!("on {own_best} of {}", TRACES.len()),
        own_best == TRACES.len(),
    );
    out
}

pub fn fig10_tradeoff(ctx: &mut Ctx) -> Outcome {
    let (mut rows, mut regressed, mut worst) = (Vec::new(), 0, 0.0f64);
    for spec in sjf_f1_by_trace() {
        let rep = evaluated(ctx, &spec, 0xF10);
        let mbsld = (
            rep.mean_base(Metric::MaxBsld),
            rep.mean_inspected(Metric::MaxBsld),
        );
        regressed += usize::from(mbsld.1 > mbsld.0);
        worst = worst.max(util_drop(&rep));
        rows.push(vec![
            spec.policy_name().to_string(),
            spec.trace,
            f4(rep.mean_base(Metric::Bsld)),
            f4(rep.mean_inspected(Metric::Bsld)),
            f4(mbsld.0),
            f4(mbsld.1),
            f4(rep.mean_base_util()),
            f4(rep.mean_inspected_util()),
        ]);
    }
    let mut out = Outcome::default();
    let header = "policy,trace,bsld_base,bsld_insp,mbsld_base,mbsld_insp,util_base,util_insp";
    let combos = rows.len();
    out.csv_table(ctx, "fig10_tradeoff.csv", header, rows);
    out.finding(
        "training on bsld starves no long job: mbsld does not regress",
        format!("mbsld regresses on {regressed} of {combos}"),
        regressed == 0,
    );
    out.finding(
        "utilization drops by less than 1 point typically, 4.33 at worst",
        format!("largest drop {worst:.2} points"),
        worst <= WORST_UTIL_DROP,
    );
    out
}

pub fn table5_utilization(ctx: &mut Ctx) -> Outcome {
    let (mut rows, mut worst) = (Vec::new(), 0.0f64);
    for backfill in [false, true] {
        let sim = SimConfig {
            backfill,
            ..SimConfig::default()
        };
        for trace in TRACES {
            for policy in [PolicyKind::Sjf, PolicyKind::F1] {
                let spec = ComboSpec {
                    sim,
                    ..ComboSpec::new(trace, policy)
                };
                let rep = evaluated(ctx, &spec, 0x7AB5);
                worst = worst.max(util_drop(&rep).abs());
                rows.push(vec![
                    trace.to_string(),
                    policy.name().to_string(),
                    backfill.to_string(),
                    f4(rep.mean_base_util()),
                    f4(rep.mean_inspected_util()),
                ]);
            }
        }
    }
    let mut out = Outcome::default();
    let header = "trace,policy,backfill,util_base,util_inspected";
    out.csv_table(ctx, "table5_utilization.csv", header, rows);
    out.finding(
        "utilization moves by about ±1 point, 4.33 at worst (Lublin/F1)",
        format!("largest |delta| {worst:.2} points"),
        worst <= WORST_UTIL_DROP,
    );
    out
}

pub fn fig12_slurm(ctx: &mut Ctx) -> Outcome {
    // Slurm multifactor (age + fairshare + job attribute + partition, all
    // weights 1000) with backfilling, on the trace that has user/queue
    // information.
    let spec = ComboSpec {
        policy: None,
        sim: SimConfig::with_backfill(),
        ..ComboSpec::new("SDSC-SP2", PolicyKind::Sjf)
    };
    let (mut out, trained) = curves(ctx, "fig12_slurm.csv", &[], None, &[spec]);
    let rep = trained[0]
        .trained
        .evaluate(&ctx.scale(), ctx.seed() ^ 0xF12);
    let row = vec![
        f4(rep.mean_base(Metric::Bsld)),
        f4(rep.mean_inspected(Metric::Bsld)),
        f4(rep.mean_base_util()),
        f4(rep.mean_inspected_util()),
    ];
    let header = "bsld_base,bsld_inspected,util_base,util_inspected";
    out.csv_table(ctx, "fig12_slurm_eval.csv", header, vec![row]);
    let gain = rep.improvement_pct(Metric::Bsld) * 100.0;
    out.finding(
        "the inspector improves Slurm multifactor's bsld (paper: 82.9 -> 62.4, 24.7 %)",
        format!("{gain:+.1}%"),
        gain > 0.0,
    );
    let cost = util_drop(&rep);
    out.finding(
        "at a utilization cost below 1 point (paper: 79.31 % -> 78.82 %, 0.49)",
        format!("{cost:.2} points"),
        cost < 1.0,
    );
    out
}
