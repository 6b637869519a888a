//! What every experiment runs against ([`Ctx`]) and what it hands back
//! ([`Outcome`]).

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use obs::Telemetry;

use crate::harness::{train_combo, ComboSpec, TrainOutcome};
use crate::output::{print_table, write_csv, Csv, Table};
use crate::scale::Scale;

/// One invocation's shared state: the scale and seed every experiment
/// runs at, where results go, the telemetry handle, and the combinations
/// already trained. Scale and seed are fixed for the life of a `Ctx`, so a
/// [`ComboSpec`] alone identifies a training.
pub struct Ctx {
    scale: Scale,
    seed: u64,
    results: PathBuf,
    telemetry: Telemetry,
    memo: Vec<(ComboSpec, Rc<TrainOutcome>)>,
    trained: usize,
    reused: usize,
}

impl Ctx {
    /// A context with nothing trained yet. CSVs go under `results`.
    pub fn new(scale: Scale, seed: u64, results: PathBuf, telemetry: Telemetry) -> Ctx {
        Ctx {
            scale,
            seed,
            results,
            telemetry,
            memo: Vec::new(),
            trained: 0,
            reused: 0,
        }
    }

    /// The scale every experiment of this invocation runs at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The base seed of this invocation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The telemetry handle (disabled unless the invocation asked for a
    /// sidecar).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Trainings so far: `(run, reused from the memo)`.
    pub fn trainings(&self) -> (usize, usize) {
        (self.trained, self.reused)
    }

    /// The trained combination `spec`, training it only if no earlier
    /// experiment of this invocation already did.
    pub fn train(&mut self, spec: &ComboSpec) -> Rc<TrainOutcome> {
        if let Some((_, out)) = self.memo.iter().find(|(s, _)| s == spec) {
            self.reused += 1;
            return Rc::clone(out);
        }
        let scale = self.scale;
        let out = Rc::new(self.train_unshared(spec, &scale));
        self.memo.push((spec.clone(), Rc::clone(&out)));
        out
    }

    /// Train `spec` at `scale`, neither reading nor feeding the memo: for
    /// an experiment that measures the training itself (§4.6).
    pub fn train_unshared(&mut self, spec: &ComboSpec, scale: &Scale) -> TrainOutcome {
        self.trained += 1;
        let start = Instant::now();
        let out = train_combo(spec, scale, self.seed, &self.telemetry);
        println!(
            "  trained [{spec}] in {:.1} s",
            start.elapsed().as_secs_f64()
        );
        out
    }
}

/// A claim of the paper set against what this run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What the paper says.
    pub claim: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement agrees with the claim.
    pub holds: bool,
    /// Training-free findings hold at every scale and seed, so `run_all`
    /// exits 1 when one does not. Trained findings depend on the scale
    /// (none holds at `--quick`'s six epochs) and are only reported.
    pub enforced: bool,
}

/// What one experiment produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The tables it printed, with the CSVs it wrote.
    pub tables: Vec<Table>,
    /// The paper's claims against this run's measurements.
    pub findings: Vec<Finding>,
    /// Results that could not be written, as `"path: why"`.
    pub lost: Vec<String>,
}

impl Outcome {
    /// A flat table: each row holds the fields of one CSV line, and the
    /// console shows the same fields aligned under the CSV's own column
    /// names — one list of values, two renderings.
    pub fn csv_table(&mut self, ctx: &Ctx, file: &str, header: &str, rows: Vec<Vec<String>>) {
        let lines = rows.iter().map(|r| r.join(",")).collect();
        let columns: Vec<&str> = header.split(',').collect();
        self.table(ctx, &columns, rows, Some((file, header, lines)));
    }

    /// Print `rows` aligned under `columns`. With `csv = (file, header,
    /// lines)` — a series the console only summarizes — also write the
    /// lines to that file under the results directory.
    pub fn table(
        &mut self,
        ctx: &Ctx,
        columns: &[&str],
        rows: Vec<Vec<String>>,
        csv: Option<(&str, &str, Vec<String>)>,
    ) {
        println!();
        print_table(columns, &rows);
        let csv = csv.and_then(|(file, header, lines)| {
            match write_csv(&ctx.results, file, header, &lines) {
                Ok(path) => {
                    println!("\nwrote {}", path.display());
                    let header = header.to_string();
                    Some(Csv { path, header })
                }
                Err(e) => {
                    let path = ctx.results.join(file);
                    self.lost.push(format!("{}: {e}", path.display()));
                    None
                }
            }
        });
        let columns = columns.iter().map(|c| c.to_string()).collect();
        self.tables.push(Table { columns, rows, csv });
    }

    /// Record a trained finding: reported, never enforced.
    pub fn finding(&mut self, claim: &str, measured: String, holds: bool) {
        self.push_finding(claim, measured, holds, false);
    }

    /// Record a training-free finding: `run_all` fails when it does not
    /// hold.
    pub fn enforce(&mut self, claim: &str, measured: String, holds: bool) {
        self.push_finding(claim, measured, holds, true);
    }

    fn push_finding(&mut self, claim: &str, measured: String, holds: bool, enforced: bool) {
        let claim = claim.to_string();
        self.findings.push(Finding {
            claim,
            measured,
            holds,
            enforced,
        });
    }

    /// Whether this outcome must fail the invocation: a result was lost or
    /// an enforced finding does not hold.
    pub fn failed(&self) -> bool {
        !self.lost.is_empty() || self.findings.iter().any(|f| f.enforced && !f.holds)
    }
}
