//! Running rows of the experiment table in-process and summing them up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::ctx::{Ctx, Outcome};
use crate::output::print_table;
use crate::paper::Experiment;

/// How one experiment of an invocation went.
pub struct Report {
    /// The row's name.
    pub name: &'static str,
    /// What it produced, or the message it panicked with.
    pub outcome: Result<Outcome, String>,
    /// Wall seconds it took.
    pub wall: f64,
    /// Combinations it trained.
    pub trained: usize,
    /// Combinations it took from the invocation's memo.
    pub reused: usize,
}

impl Report {
    /// Whether this experiment must fail the invocation: it panicked, lost
    /// a result, or an enforced finding does not hold.
    pub fn failed(&self) -> bool {
        self.outcome.as_ref().map_or(true, Outcome::failed)
    }

    /// How many of its findings `(held, did not hold)`.
    pub fn findings(&self) -> (usize, usize) {
        let findings = self.outcome.as_ref().map_or(&[][..], |o| &o.findings);
        let held = findings.iter().filter(|f| f.holds).count();
        (held, findings.len() - held)
    }

    fn status(&self) -> &'static str {
        match &self.outcome {
            Err(_) => "PANICKED",
            Ok(out) if !out.lost.is_empty() => "LOST RESULTS",
            Ok(out) if out.failed() => "FAILED",
            Ok(_) => "ok",
        }
    }
}

/// Run `rows` in order against `ctx`. A row that panics is reported as
/// such and the rest still run.
pub fn run(ctx: &mut Ctx, rows: &[&Experiment]) -> Vec<Report> {
    let reports = rows.iter().map(|row| {
        println!(
            "\n=== {} {}\n\n{}",
            row.name,
            "=".repeat(60usize.saturating_sub(row.name.len())),
            row.title
        );
        let (trained, reused) = ctx.trainings();
        let start = Instant::now();
        let span = ctx.telemetry().span(row.name);
        let outcome = catch_unwind(AssertUnwindSafe(|| (row.run)(ctx))).map_err(|panic| {
            let text = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied());
            text.unwrap_or("a panic without a message").to_string()
        });
        drop(span);
        ctx.telemetry().flush();
        match &outcome {
            Ok(out) => {
                if !out.findings.is_empty() {
                    println!();
                }
                for f in &out.findings {
                    let verdict = match (f.holds, f.enforced) {
                        (true, _) => "held",
                        (false, false) => "NOT held",
                        (false, true) => "NOT held (enforced)",
                    };
                    println!("[{verdict}] {}\n    measured: {}", f.claim, f.measured);
                }
                for lost in &out.lost {
                    eprintln!("error: cannot write {lost}");
                }
            }
            Err(panic) => eprintln!("error: {} panicked: {panic}", row.name),
        }
        let (trained_now, reused_now) = ctx.trainings();
        Report {
            name: row.name,
            outcome,
            wall: start.elapsed().as_secs_f64(),
            trained: trained_now - trained,
            reused: reused_now - reused,
        }
    });
    reports.collect()
}

/// Print the invocation's closing table — per experiment: status, findings
/// held and not held, wall seconds, combinations trained and reused — and
/// return whether any experiment [failed](Report::failed).
pub fn summarize(reports: &[Report]) -> bool {
    let line = |name: &str, status: String, of: &[Report]| {
        let sum = |f: fn(&Report) -> usize| of.iter().map(f).sum::<usize>();
        vec![
            name.to_string(),
            status,
            sum(|r| r.findings().0).to_string(),
            sum(|r| r.findings().1).to_string(),
            format!("{:.1}", of.iter().map(|r| r.wall).sum::<f64>()),
            sum(|r| r.trained).to_string(),
            sum(|r| r.reused).to_string(),
        ]
    };
    let mut cells: Vec<Vec<String>> = reports
        .iter()
        .map(|r| line(r.name, r.status().to_string(), std::slice::from_ref(r)))
        .collect();
    let failed = reports.iter().filter(|r| r.failed()).count();
    let verdict = match failed {
        0 => "ok".to_string(),
        n => format!("{n} FAILED"),
    };
    cells.push(line("total", verdict, reports));
    println!("\n=== summary {}\n", "=".repeat(53));
    print_table(
        &[
            "experiment",
            "status",
            "held",
            "not held",
            "wall s",
            "trained",
            "reused",
        ],
        &cells,
    );
    failed > 0
}
