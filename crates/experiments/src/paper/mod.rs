//! The experiments, one row each, in the paper's order.

mod cost;
mod curves;
mod extensions;
mod heldout;
mod learned;
pub mod table1;
mod tables;

use crate::ctx::{Ctx, Outcome};

/// One experiment: a table or figure of the paper's evaluation (or an
/// `ext_*` extension beyond it).
#[derive(Debug)]
pub struct Experiment {
    /// What `run_all NAME` selects; also the stem of the CSV it writes.
    pub name: &'static str,
    /// What it regenerates, in a line.
    pub title: &'static str,
    /// Run it against the invocation's shared state.
    pub run: fn(&mut Ctx) -> Outcome,
}

impl Experiment {
    /// Extensions go beyond the paper's evaluation and run only by name.
    pub fn is_extension(&self) -> bool {
        self.name.starts_with("ext_")
    }
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: [Experiment; 19] = [
    Experiment {
        name: "table1_motivating",
        title: "Table 1: performance metrics of the motivating example (minutes)",
        run: table1::table1_motivating,
    },
    Experiment {
        name: "table2_traces",
        title: "Table 2: job trace statistics",
        run: tables::table2_traces,
    },
    Experiment {
        name: "table3_policies",
        title: "Table 3: base batch job scheduling policies",
        run: tables::table3_policies,
    },
    Experiment {
        name: "fig4_training_curves",
        title: "Figure 4: training curves, SJF and F1 on four traces (bsld improvement per epoch)",
        run: curves::fig4_training_curves,
    },
    Experiment {
        name: "fig5_features",
        title: "Figure 5: feature-building ablation (SJF, SDSC-SP2, bsld)",
        run: curves::fig5_features,
    },
    Experiment {
        name: "fig6_rewards",
        title: "Figure 6: reward-function ablation (SJF, SDSC-SP2, bsld)",
        run: curves::fig6_rewards,
    },
    Experiment {
        name: "fig7_policies",
        title: "Figure 7: training with FCFS/LCFS/SRF/SAF (SDSC-SP2, bsld)",
        run: curves::fig7_policies,
    },
    Experiment {
        name: "fig8_test_perf",
        title: "Figure 8: test performance on held-out sequences (bsld)",
        run: heldout::fig8_test_perf,
    },
    Experiment {
        name: "table4_cross_trace",
        title: "Table 4: cross-trace generalization (SJF, bsld)",
        run: heldout::table4_cross_trace,
    },
    Experiment {
        name: "fig9_metrics",
        title: "Figure 9: training toward wait and mbsld (SDSC-SP2)",
        run: curves::fig9_metrics,
    },
    Experiment {
        name: "fig10_tradeoff",
        title: "Figure 10: bsld-trained inspector evaluated on bsld / mbsld / util",
        run: heldout::fig10_tradeoff,
    },
    Experiment {
        name: "fig11_backfill",
        title: "Figure 11: training with backfilling enabled (SDSC-SP2)",
        run: curves::fig11_backfill,
    },
    Experiment {
        name: "table5_utilization",
        title: "Table 5: system utilization with/without SchedInspector",
        run: heldout::table5_utilization,
    },
    Experiment {
        name: "fig12_slurm",
        title: "Figure 12: SchedInspector working with Slurm multifactor (+backfilling)",
        run: heldout::fig12_slurm,
    },
    Experiment {
        name: "fig13_learned",
        title: "Figure 13: feature CDFs of rejected vs. total samples [SJF, bsld, SDSC-SP2]",
        run: learned::fig13_learned,
    },
    Experiment {
        name: "cost_inference",
        title: "§4.6: computational cost of SchedInspector",
        run: cost::cost_inference,
    },
    Experiment {
        name: "ext_rlscheduler",
        title: "Extension: SchedInspector on top of an RLScheduler-style selector",
        run: extensions::ext_rlscheduler,
    },
    Experiment {
        name: "ext_ablation_knobs",
        title: "Extension: MAX_INTERVAL and MAX_REJECTION_TIMES (SJF, SDSC-SP2, bsld)",
        run: extensions::ext_ablation_knobs,
    },
    Experiment {
        name: "ext_load_sweep",
        title: "Extension: one SDSC-SP2 inspector across offered-load variants",
        run: extensions::ext_load_sweep,
    },
];
