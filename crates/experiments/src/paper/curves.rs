//! The training-curve figures — **4** (SJF and F1 on the four traces),
//! **5** (feature building), **6** (reward function), **7** (the remaining
//! base policies), **9** (`wait` and `mbsld`), **11** (backfilling on).
//! Each is a list of combinations and the dimensions that tell them
//! apart: [`curves`] trains them, writes one CSV line per epoch and prints
//! one convergence row per combination; the figure then states what the
//! paper read off the curves.

use std::rc::Rc;

use inspector::{FeatureMode, RewardKind};
use policies::PolicyKind;
use simhpc::{Metric, SimConfig};

use crate::ctx::{Ctx, Outcome};
use crate::harness::{converged_pct, ComboSpec, TrainOutcome};
use crate::output::f4;
use crate::TRACES;

/// A dimension of [`ComboSpec`] that a figure varies: it names a CSV
/// column and labels each curve in it.
#[derive(Debug, Clone, Copy)]
pub enum Dim {
    Policy,
    Trace,
    Features,
    Reward,
    Metric,
}

impl Dim {
    fn column(self) -> &'static str {
        match self {
            Dim::Policy => "policy",
            Dim::Trace => "trace",
            Dim::Features => "features",
            Dim::Reward => "reward",
            Dim::Metric => "metric",
        }
    }

    fn label(self, spec: &ComboSpec) -> String {
        match self {
            Dim::Policy => spec.policy_name().to_string(),
            Dim::Trace => spec.trace.clone(),
            Dim::Features => spec.features.name().to_string(),
            Dim::Reward => spec.reward.name().to_string(),
            Dim::Metric => spec.metric.name().to_string(),
        }
    }
}

/// One trained combination of a figure.
pub struct Curve {
    /// Its labels, one per dimension the figure varies.
    pub labels: Vec<String>,
    /// What training it produced.
    pub trained: Rc<TrainOutcome>,
}

impl Curve {
    /// Mean absolute improvement over the last five epochs.
    pub fn converged(&self) -> f64 {
        self.trained.history.converged_improvement(5)
    }

    /// Mean relative improvement over the last five epochs, in percent.
    pub fn converged_pct(&self) -> f64 {
        converged_pct(&self.trained.history) * 100.0
    }

    /// Mean rejection ratio over the last five epochs.
    pub fn rejection(&self) -> f64 {
        self.trained.history.converged_rejection_ratio(5)
    }
}

/// Train every combination and emit the figure: `file` gets the columns
/// `dims…, epoch, improvement, improvement_pct, [base_column,]
/// rejection_ratio` (only Figure 4's CSV carries the base metric, hence
/// the option); the console gets one convergence row per combination.
pub fn curves(
    ctx: &mut Ctx,
    file: &str,
    dims: &[Dim],
    base_column: Option<&str>,
    specs: &[ComboSpec],
) -> (Outcome, Vec<Curve>) {
    let (mut curves, mut rows, mut lines) = (Vec::new(), Vec::new(), Vec::new());
    for spec in specs {
        let curve = Curve {
            labels: dims.iter().map(|d| d.label(spec)).collect(),
            trained: ctx.train(spec),
        };
        let records = &curve.trained.history.records;
        for r in records {
            let mut fields = curve.labels.clone();
            fields.extend([
                r.epoch.to_string(),
                f4(r.improvement),
                f4(r.improvement_pct),
            ]);
            fields.extend(base_column.map(|_| f4(r.base_metric)));
            fields.push(f4(r.rejection_ratio));
            lines.push(fields.join(","));
        }
        let mut row = curve.labels.clone();
        row.extend([
            format!("{:+.2}", records.first().map_or(0.0, |r| r.improvement)),
            format!("{:+.2}", curve.converged()),
            format!("{:+.1}%", curve.converged_pct()),
            format!("{:.1}%", curve.rejection() * 100.0),
        ]);
        rows.push(row);
        curves.push(curve);
    }
    let names: Vec<&str> = dims.iter().map(|d| d.column()).collect();
    let series = ["epoch", "improvement", "improvement_pct"];
    let header = [
        &names,
        &series[..],
        base_column.as_slice(),
        &["rejection_ratio"],
    ]
    .concat();
    let summary = ["first epoch", "converged", "converged %", "rejection ratio"];
    let columns = [&names, &summary[..]].concat();
    let mut out = Outcome::default();
    out.table(ctx, &columns, rows, Some((file, &header.join(","), lines)));
    (out, curves)
}

/// SJF and F1 on each of the four traces: the grid of Figs. 4, 8 and 10.
pub fn sjf_f1_by_trace() -> Vec<ComboSpec> {
    let grid = [PolicyKind::Sjf, PolicyKind::F1]
        .into_iter()
        .flat_map(|policy| TRACES.map(|trace| ComboSpec::new(trace, policy)));
    grid.collect()
}

/// What a finding over a grid of combinations measured and whether it
/// holds: `"k of n positive, smallest x"`, when all of `values` are.
pub fn all_positive(values: impl Iterator<Item = f64>, unit: &str) -> (String, bool) {
    let values: Vec<f64> = values.collect();
    let positive = values.iter().filter(|&&v| v > 0.0).count();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let measured = format!(
        "{positive} of {} positive, smallest {min:+.2}{unit}",
        values.len()
    );
    (measured, positive == values.len())
}

pub fn fig4_training_curves(ctx: &mut Ctx) -> Outcome {
    let (file, dims) = ("fig4_training_curves.csv", [Dim::Policy, Dim::Trace]);
    let (mut out, rows) = curves(ctx, file, &dims, Some("base_bsld"), &sjf_f1_by_trace());
    let (measured, holds) = all_positive(rows.iter().map(Curve::converged), "");
    out.finding(
        "every combination converges above 0: the inspector beats its base policy",
        measured,
        holds,
    );
    out
}

/// The Fig. 5/6/7 setting: one varied dimension on [SJF, SDSC-SP2, bsld].
fn sdsc_sjf() -> ComboSpec {
    ComboSpec::new("SDSC-SP2", PolicyKind::Sjf)
}

/// `"a +x.xx vs b +y.yy"` and whether `a` converged at least as high.
fn at_least(a: &Curve, b: &Curve) -> (String, bool) {
    let (x, y) = (a.converged(), b.converged());
    let measured = format!("{} {x:+.2} vs {} {y:+.2}", a.labels[0], b.labels[0]);
    (measured, x >= y)
}

pub fn fig5_features(ctx: &mut Ctx) -> Outcome {
    let specs = [
        FeatureMode::Manual,
        FeatureMode::Compacted,
        FeatureMode::Native,
    ]
    .map(|features| ComboSpec {
        features,
        ..sdsc_sjf()
    });
    let (mut out, rows) = curves(ctx, "fig5_features.csv", &[Dim::Features], None, &specs);
    let [manual, compacted, native] = &rows[..] else {
        unreachable!("three feature modes")
    };
    let (measured, holds) = at_least(manual, compacted);
    out.finding(
        "manual features converge at least as high as compacted",
        measured,
        holds,
    );
    let (measured, holds) = at_least(manual, native);
    out.finding(
        "manual features converge at least as high as native",
        measured,
        holds,
    );
    out.finding(
        "native features fail to converge to a positive value (they learn to never reject)",
        format!(
            "native {:+.2} at rejection ratio {:.1}%",
            native.converged(),
            native.rejection() * 100.0
        ),
        native.converged() <= 0.0,
    );
    out
}

pub fn fig6_rewards(ctx: &mut Ctx) -> Outcome {
    let specs = [
        RewardKind::Native,
        RewardKind::WinLoss,
        RewardKind::Percentage,
    ]
    .map(|reward| ComboSpec {
        reward,
        ..sdsc_sjf()
    });
    let (mut out, rows) = curves(ctx, "fig6_rewards.csv", &[Dim::Reward], None, &specs);
    let [native, win_loss, percentage] = &rows[..] else {
        unreachable!("three rewards")
    };
    // The y-axis is the absolute bsld difference — exactly what the native
    // reward optimizes — and the percentage reward still wins.
    let (measured, holds) = at_least(percentage, win_loss);
    out.finding(
        "percentage reward converges at least as high as win/loss",
        measured,
        holds,
    );
    let (measured, holds) = at_least(win_loss, native);
    out.finding(
        "win/loss reward converges at least as high as native",
        measured,
        holds,
    );
    out
}

pub fn fig7_policies(ctx: &mut Ctx) -> Outcome {
    let specs = [
        PolicyKind::Fcfs,
        PolicyKind::Lcfs,
        PolicyKind::Srf,
        PolicyKind::Saf,
    ]
    .map(|policy| ComboSpec::new("SDSC-SP2", policy));
    let (mut out, rows) = curves(ctx, "fig7_policies.csv", &[Dim::Policy], None, &specs);
    let (fcfs, others) = (&rows[0], &rows[1..]);
    let others_min = others
        .iter()
        .map(Curve::converged)
        .fold(f64::INFINITY, f64::min);
    // Future arrivals cannot change FCFS's decision, so rejecting buys
    // nothing and the agent should stop doing it.
    let gain = fcfs.converged();
    out.finding(
        "FCFS gains nothing: its converged improvement is the smallest of the four",
        format!("FCFS {gain:+.2}, smallest other {others_min:+.2}"),
        gain <= others_min,
    );
    out.finding(
        "FCFS's rejection ratio decays to ≈5 % (below 10 %)",
        format!("FCFS rejection ratio {:.1}%", fcfs.rejection() * 100.0),
        fcfs.rejection() < 0.10,
    );
    out.finding(
        "LCFS, SRF and SAF converge to positive gains",
        format!("smallest gain {others_min:+.2}"),
        others_min > 0.0,
    );
    out
}

/// The Fig. 9/11 shape: two metrics × {SJF, F1} on SDSC-SP2 under `sim`,
/// and per metric the finding that both policies converge to a positive
/// relative improvement.
fn metric_by_policy(
    ctx: &mut Ctx,
    file: &str,
    metrics: [Metric; 2],
    sim: SimConfig,
    claim: &str,
) -> Outcome {
    let specs = metrics.map(|metric| {
        [PolicyKind::Sjf, PolicyKind::F1].map(|policy| ComboSpec {
            metric,
            sim,
            ..ComboSpec::new("SDSC-SP2", policy)
        })
    });
    let dims = [Dim::Metric, Dim::Policy];
    let (mut out, rows) = curves(ctx, file, &dims, None, specs.as_flattened());
    for pair in rows.chunks(2) {
        let (measured, holds) = all_positive(pair.iter().map(Curve::converged_pct), "%");
        out.finding(&format!("{}: {claim}", pair[0].labels[0]), measured, holds);
    }
    out
}

pub fn fig9_metrics(ctx: &mut Ctx) -> Outcome {
    metric_by_policy(
        ctx,
        "fig9_metrics.csv",
        [Metric::Wait, Metric::MaxBsld],
        SimConfig::default(),
        "SJF and F1 converge stably to an improvement (paper: 25–50 %)",
    )
}

pub fn fig11_backfill(ctx: &mut Ctx) -> Outcome {
    // Backfilling already captures much of the opportunity the inspector
    // exploits, so the gains shrink but stay positive.
    metric_by_policy(
        ctx,
        "fig11_backfill.csv",
        [Metric::Bsld, Metric::Wait],
        SimConfig::with_backfill(),
        "with backfilling on, SJF and F1 still converge to an improvement (paper: ≈10 %)",
    )
}
