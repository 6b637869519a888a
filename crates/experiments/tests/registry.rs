//! The experiment table as a contract: every row runs and reports what it
//! wrote, combinations shared between rows train once, a run that lost
//! results fails, and — in release builds — the first paper directions
//! hold at the default scale.

use std::path::PathBuf;
use std::process::Command;

use experiments::{
    run, train_combo, ComboSpec, Ctx, Experiment, Outcome, Scale, Table, EXPERIMENTS,
};
use obs::Telemetry;
use policies::PolicyKind;

/// 2 epochs × 4 trajectories × 24 jobs on 1 200-job traces: every code
/// path, no learning.
fn micro() -> Scale {
    Scale {
        epochs: 2,
        batch: 4,
        seq_len: 24,
        eval_seqs: 3,
        eval_len: 48,
        trace_jobs: 1_200,
    }
}

/// A results directory of this test's own, removed on drop.
struct TempResults(PathBuf);

impl TempResults {
    fn new(test: &str) -> TempResults {
        let dir =
            std::env::temp_dir().join(format!("si-experiments-{}-{test}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempResults(dir)
    }

    fn ctx(&self, scale: Scale, seed: u64) -> Ctx {
        Ctx::new(scale, seed, self.0.clone(), Telemetry::disabled())
    }
}

impl Drop for TempResults {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn row(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment {name}"))
}

/// Whether the finding of `out` whose claim contains `needle` held.
fn holds(out: &Outcome, needle: &str) -> bool {
    let mut matching = out.findings.iter().filter(|f| f.claim.contains(needle));
    let finding = matching
        .next()
        .unwrap_or_else(|| panic!("no finding about {needle:?}"));
    assert!(matching.next().is_none(), "{needle:?} is ambiguous");
    println!("{}: {}", finding.claim, finding.measured);
    finding.holds
}

#[test]
fn names_are_unique_identifiers_in_paper_order() {
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        assert!(
            !e.name.is_empty()
                && e.name
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
            "{:?}",
            e.name
        );
        assert!(
            EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
            "{} twice",
            e.name
        );
        assert!(!e.title.is_empty(), "{}", e.name);
    }
    // The extensions close the table, so the default set is a prefix.
    let first_ext = EXPERIMENTS.iter().position(|e| e.is_extension()).unwrap();
    assert_eq!(first_ext, 16);
    assert!(EXPERIMENTS[first_ext..].iter().all(|e| e.is_extension()));
}

#[test]
fn every_row_runs_and_reports_what_it_wrote() {
    let results = TempResults::new("every-row");
    let mut ctx = results.ctx(micro(), 7);
    let rows: Vec<&Experiment> = EXPERIMENTS.iter().collect();
    let reports = run(&mut ctx, &rows);
    assert_eq!(reports.len(), EXPERIMENTS.len());
    let mut csvs = Vec::new();
    for report in &reports {
        let out = report
            .outcome
            .as_ref()
            .unwrap_or_else(|panic| panic!("{} panicked: {panic}", report.name));
        assert!(out.lost.is_empty(), "{}: {:?}", report.name, out.lost);
        assert!(!out.tables.is_empty(), "{} returned no table", report.name);
        for Table { columns, rows, csv } in &out.tables {
            assert!(!rows.is_empty(), "{}: an empty table", report.name);
            assert!(rows.iter().all(|r| r.len() == columns.len()));
            let Some(csv) = csv else { continue };
            let text = std::fs::read_to_string(&csv.path).unwrap();
            let mut lines = text.lines();
            assert_eq!(lines.next(), Some(csv.header.as_str()), "{:?}", csv.path);
            assert!(lines.next().is_some(), "{:?} has no data", csv.path);
            let file = csv.path.file_name().unwrap();
            csvs.push(file.to_string_lossy().into_owned());
        }
        // Training-free findings hold at any scale; trained ones are only
        // reported, so nothing at this scale may fail the run.
        for f in out.findings.iter().filter(|f| f.enforced) {
            assert!(f.holds, "{}: {} — {}", report.name, f.claim, f.measured);
        }
        assert!(!report.failed(), "{}", report.name);
    }
    // Every experiment but cost_inference writes `<name>.csv`; Fig. 12
    // writes its evaluation too.
    let mut expected: Vec<String> = EXPERIMENTS
        .iter()
        .filter(|e| e.name != "cost_inference")
        .map(|e| format!("{}.csv", e.name))
        .collect();
    expected.push("fig12_slurm_eval.csv".to_string());
    csvs.sort();
    expected.sort();
    assert_eq!(csvs, expected);
    let report = |name: &str| reports.iter().find(|r| r.name == name).unwrap();
    for name in ["table1_motivating", "table2_traces", "cost_inference"] {
        let enforced = report(name).outcome.as_ref().unwrap().findings.iter();
        assert!(enforced.filter(|f| f.enforced).count() > 0, "{name}");
    }
    // §4.6 times its training, so it ran it although Fig. 4 had trained
    // the same combination; everything else trained each one once.
    let cost = report("cost_inference");
    assert_eq!((cost.trained, cost.reused), (1, 0));
    assert_eq!(ctx.trainings(), (32 + 4, 33 + 2));
}

#[test]
fn rows_sharing_a_combination_train_it_once() {
    let results = TempResults::new("memo");
    let (scale, seed) = (micro(), 11);
    let mut ctx = results.ctx(scale, seed);
    let spec = ComboSpec::new("SDSC-SP2", PolicyKind::Sjf);
    // What §4.6 does to time a training: counted, never shared.
    let unshared = ctx.train_unshared(&spec, &scale);
    assert_eq!(ctx.trainings(), (1, 0));

    // Fig. 6 and Fig. 5 both hold `spec`; Fig. 13 and the load sweep train
    // nothing else.
    let reports = run(
        &mut ctx,
        &[
            "fig6_rewards",
            "fig5_features",
            "fig13_learned",
            "ext_load_sweep",
        ]
        .map(row),
    );
    let counts: Vec<_> = reports.iter().map(|r| (r.trained, r.reused)).collect();
    assert_eq!(counts, [(3, 0), (2, 1), (0, 1), (0, 1)]);

    // Memoised or not, the same combination is the same training.
    let memoised = ctx.train(&spec);
    assert_eq!(ctx.trainings(), (6, 4));
    assert_eq!(memoised.history.records.len(), scale.epochs);
    let fresh = train_combo(&spec, &scale, seed, &Telemetry::disabled());
    assert_eq!(memoised.history, fresh.history);
    assert_eq!(memoised.history, unshared.history);
}

#[test]
fn a_row_that_panics_or_loses_its_csv_fails_and_the_rest_still_run() {
    let results = TempResults::new("lost");
    // The results "directory" is a file: nothing can be written under it.
    std::fs::write(&results.0, "in the way").unwrap();
    let mut ctx = results.ctx(micro(), 1);
    let boom = Experiment {
        name: "boom",
        title: "a row that panics",
        run: |_| panic!("the row's own message"),
    };
    let reports = run(&mut ctx, &[&boom, row("table1_motivating")]);
    assert_eq!(
        reports[0].outcome.as_ref().unwrap_err(),
        "the row's own message"
    );
    assert!(reports[0].failed());
    let table1 = reports[1].outcome.as_ref().unwrap();
    assert!(table1.findings.iter().all(|f| f.holds));
    assert_eq!(table1.tables[0].csv, None);
    assert!(
        table1.lost.len() == 1 && table1.lost[0].contains("table1_motivating.csv"),
        "{:?}",
        table1.lost
    );
    assert!(reports[1].failed());
    std::fs::remove_file(&results.0).unwrap();
}

#[test]
fn run_all_maps_usage_to_2_lost_results_to_1_and_writes_one_sidecar() {
    let run_all = |args: &[&str], results: &std::path::Path, telemetry: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
        cmd.args(args).env("SCHEDINSPECTOR_RESULTS", results);
        cmd.env_remove("SCHEDINSPECTOR_TELEMETRY");
        if telemetry {
            cmd.env("SCHEDINSPECTOR_TELEMETRY", "1");
        }
        let out = cmd.output().unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let results = TempResults::new("binary");

    let (code, _, stderr) = run_all(&["--quik"], &results.0, false);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("\"--quik\"") && stderr.contains("fig8_test_perf"));
    assert!(!results.0.exists(), "a usage error runs nothing");

    let (code, stdout, stderr) = run_all(&["table1_motivating", "--quick"], &results.0, true);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(results.0.join("table1_motivating.csv").is_file());
    assert!(stdout.contains("[held] case (b)"), "{stdout}");
    let sidecar = std::fs::read_to_string(results.0.join("run_all.telemetry.jsonl")).unwrap();
    let (events, errors) = obs::event::read_lines("sidecar", &sidecar);
    assert!(errors.is_empty(), "{errors:?}");
    let closed = events
        .iter()
        .any(|e| matches!(e, obs::Event::SpanClose { name, .. } if name == "table1_motivating"));
    assert!(closed, "one span per experiment: {sidecar}");

    let blocked = TempResults::new("binary-blocked");
    std::fs::write(&blocked.0, "in the way").unwrap();
    let (code, stdout, stderr) = run_all(&["table1_motivating"], &blocked.0, false);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("LOST RESULTS") && stderr.contains("table1_motivating.csv"));
    let (code, _, stderr) = run_all(&["table1_motivating"], &blocked.0, true);
    assert_eq!(code, Some(1), "an unwritable sidecar: {stderr}");
    assert!(stderr.contains("run_all.telemetry.jsonl"), "{stderr}");
    std::fs::remove_file(&blocked.0).unwrap();
}

/// First slice of the paper-fidelity gate: Figs. 5 and 6 at the default
/// scale and seed, under the devstubs `rand` stream the directions were
/// checked with (`cargo --config devstubs/offline.toml test --release -p
/// experiments`; ≈ 90 s on 2 cores). A direction that stops holding is a
/// finding to report, not a bound to loosen.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "five default-scale trainings: release only"
)]
fn fig5_and_fig6_directions_hold_at_the_default_scale() {
    let results = TempResults::new("fidelity");
    let mut ctx = results.ctx(Scale::standard(), 20220627);
    let reports = run(&mut ctx, &["fig5_features", "fig6_rewards"].map(row));
    let [fig5, fig6] = [&reports[0], &reports[1]].map(|r| r.outcome.as_ref().unwrap());
    assert!(holds(
        fig6,
        "percentage reward converges at least as high as win/loss"
    ));
    assert!(holds(
        fig6,
        "win/loss reward converges at least as high as native"
    ));
    assert!(holds(
        fig5,
        "manual features converge at least as high as compacted"
    ));
    assert!(holds(
        fig5,
        "manual features converge at least as high as native"
    ));
    assert_eq!(
        ctx.trainings(),
        (5, 1),
        "the shared combination trains once"
    );
}
