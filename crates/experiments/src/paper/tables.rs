//! The two training-free tables about inputs: **Table 2** (the job traces
//! and their key statistics — our traces are synthetic substitutes
//! calibrated to the paper's published values, DESIGN.md §5, and this
//! verifies the calibration) and **Table 3** (the base scheduling policies
//! and their priority functions, plus a run of every policy over the same
//! sequences to show they produce genuinely different schedules).

use policies::PolicyKind;
use simhpc::{Metric, SimConfig, Simulator};
use workload::profiles::profile_by_name;

use crate::ctx::{Ctx, Outcome};
use crate::load_trace;
use crate::output::f4;

pub fn table2_traces(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    // Paper order: CTC-SP2, SDSC-SP2, HPC2N, Lublin.
    for name in ["CTC-SP2", "SDSC-SP2", "HPC2N", "Lublin"] {
        let paper = profile_by_name(name).expect("a Table 2 trace");
        let ours = load_trace(name, &ctx.scale(), ctx.seed()).stats();
        rows.push(vec![
            name.to_string(),
            ours.cluster_size.to_string(),
            format!("{:.1}", ours.mean_interval),
            paper.mean_interval.to_string(),
            format!("{:.1}", ours.mean_estimate),
            paper.mean_estimate.to_string(),
            format!("{:.2}", ours.mean_procs),
            paper.mean_procs.to_string(),
            format!("{:.3}", ours.offered_load),
        ]);
        let off = |ours: f64, paper: f64| (ours - paper).abs() / paper * 100.0;
        let interval = off(ours.mean_interval, paper.mean_interval);
        let estimate = off(ours.mean_estimate, paper.mean_estimate);
        let procs = off(ours.mean_procs, paper.mean_procs);
        out.enforce(
            &format!("{name} matches Table 2: interval within 5 %, estimate 12 %, processors 15 %"),
            format!(
                "off by {interval:.1} % / {estimate:.1} % / {procs:.1} % over {} jobs",
                ours.n_jobs
            ),
            interval < 5.0 && estimate < 12.0 && procs < 15.0,
        );
    }
    let header = "trace,cluster,interval,interval_paper,est,est_paper,res,res_paper,offered_load";
    out.csv_table(ctx, "table2_traces.csv", header, rows);
    out
}

pub fn table3_policies(ctx: &mut Ctx) -> Outcome {
    let (scale, seed) = (ctx.scale(), ctx.seed());
    let mut out = Outcome::default();
    let formulas =
        PolicyKind::ALL.map(|k| vec![k.name().to_string(), k.priority_formula().to_string()]);
    out.table(ctx, &["abbr", "priority"], formulas.into(), None);

    // Exercise each policy on the same sampled SDSC-SP2 sequences.
    let trace = load_trace("SDSC-SP2", &scale, seed);
    let sim = Simulator::new(trace.procs, SimConfig::default());
    let mut sampler = workload::SequenceSampler::new(trace, scale.eval_len, seed ^ 0x7AB3);
    let sequences = sampler.sample_many(scale.eval_seqs);
    println!(
        "\nMean over {} SDSC-SP2 sequences of {} jobs under each policy:",
        sequences.len(),
        scale.eval_len
    );
    let n = sequences.len() as f64;
    let rows = PolicyKind::ALL.map(|kind| {
        let (mut bsld, mut wait, mut mbsld, mut util) = (0.0, 0.0, 0.0, 0.0);
        for (_, jobs) in &sequences {
            let mut p = kind.build();
            let r = sim.run(jobs, p.as_mut());
            bsld += r.metric(Metric::Bsld);
            wait += r.metric(Metric::Wait);
            mbsld += r.metric(Metric::MaxBsld);
            util += r.util();
        }
        vec![
            kind.name().to_string(),
            f4(bsld / n),
            format!("{:.1}", wait / n),
            f4(mbsld / n),
            f4(util / n),
        ]
    });
    let header = "policy,bsld,wait,mbsld,util";
    out.csv_table(ctx, "table3_policies.csv", header, rows.into());
    out
}
