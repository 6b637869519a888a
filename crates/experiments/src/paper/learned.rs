//! **Figure 13 / §5** — what SchedInspector learns: train [SJF, bsld,
//! SDSC-SP2], schedule the whole trace with the trained model while
//! recording every inspection, then compare the CDFs of the input features
//! between rejected samples and all samples. The paper collected 24M
//! samples with ≈30% rejected and observed: more rejections for jobs with
//! short waits, long runtimes, high resource demands; and a hard cap on
//! the queue-delays feature.

use inspector::analysis::{
    collect_decisions, feature_cdf, rejection_fraction, MANUAL_FEATURE_NAMES,
};
use policies::PolicyKind;
use simhpc::Simulator;

use crate::ctx::{Ctx, Outcome};
use crate::harness::ComboSpec;

/// CDF points per feature.
const POINTS: usize = 21;

/// Where a CDF crosses one half.
fn median(cdf: &[(f32, f32)]) -> f32 {
    let crossing = cdf.iter().find(|&&(_, y)| y >= 0.5);
    crossing.map_or(1.0, |&(x, _)| x)
}

pub fn fig13_learned(ctx: &mut Ctx) -> Outcome {
    let trained = ctx.train(&ComboSpec::new("SDSC-SP2", PolicyKind::Sjf));

    // Schedule the full trace (train + test) start to finish, as §5 does.
    let mut full = trained.train.jobs.clone();
    full.extend(trained.test.jobs.iter().copied());
    let sim = Simulator::new(trained.train.procs, trained.sim);
    let samples = collect_decisions(&trained.inspector, &sim, &full, &trained.factory);

    // Per feature: the two CDFs point by point, and how far the median of
    // the rejected samples sits from the median of all samples.
    let (mut rows, mut lines, mut shifts) = (Vec::new(), Vec::new(), Vec::new());
    for (idx, name) in MANUAL_FEATURE_NAMES.iter().enumerate() {
        let all = feature_cdf(&samples, idx, POINTS, false);
        let rejected = feature_cdf(&samples, idx, POINTS, true);
        for (i, ((x, a), (_, r))) in all.iter().zip(&rejected).enumerate() {
            lines.push(format!("{name},{i},{x:.3},{a:.4},{r:.4}"));
        }
        let shift = median(&rejected) - median(&all);
        let tendency = match shift {
            s if s < 0.0 => "rejects smaller values",
            s if s > 0.0 => "rejects larger values",
            _ => "no shift",
        };
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", median(&all)),
            format!("{:.3}", median(&rejected)),
            tendency.to_string(),
        ]);
        shifts.push(shift);
    }

    let mut out = Outcome::default();
    let columns = ["feature", "median(all)", "median(rejected)", "tendency"];
    let header = "feature,point,x,cdf_all,cdf_rejected";
    out.table(
        ctx,
        &columns,
        rows,
        Some(("fig13_learned.csv", header, lines)),
    );
    let rejected = rejection_fraction(&samples);
    out.finding(
        "about 30 % of the inspected samples are rejected (counted as holding from 15 % to 45 %)",
        format!("{:.1}% of {} samples", rejected * 100.0, samples.len()),
        (0.15..=0.45).contains(&rejected),
    );
    for (idx, claim, sign) in [
        (0, "rejected jobs have waited less", -1.0),
        (1, "rejected jobs run longer", 1.0),
        (2, "rejected jobs request more resources", 1.0),
    ] {
        let measured = format!(
            "median {} shifts by {:+.3}",
            MANUAL_FEATURE_NAMES[idx], shifts[idx]
        );
        out.finding(claim, measured, shifts[idx] * sign > 0.0);
    }
    out
}
