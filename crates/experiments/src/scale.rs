//! Experiment scaling — quick smoke runs, the standard scale, and the full
//! paper scale — and the command line that selects it.

use crate::paper::{Experiment, EXPERIMENTS};

/// How big an experiment run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Training epochs (model updates).
    pub epochs: usize,
    /// Trajectories per epoch.
    pub batch: usize,
    /// Jobs per training trajectory.
    pub seq_len: usize,
    /// Held-out sequences per evaluation.
    pub eval_seqs: usize,
    /// Jobs per evaluation sequence.
    pub eval_len: usize,
    /// Jobs generated per synthetic trace.
    pub trace_jobs: usize,
}

impl Scale {
    /// Smoke-test scale (seconds per experiment).
    pub fn quick() -> Self {
        Scale {
            epochs: 6,
            batch: 16,
            seq_len: 48,
            eval_seqs: 10,
            eval_len: 96,
            trace_jobs: 2_000,
        }
    }

    /// Default scale: paper-shaped but sized to run a full experiment suite
    /// in minutes on a laptop.
    pub fn standard() -> Self {
        Scale {
            epochs: 40,
            batch: 64,
            seq_len: 128,
            eval_seqs: 50,
            eval_len: 256,
            trace_jobs: 10_000,
        }
    }

    /// The paper's §4.1 settings verbatim.
    pub fn paper() -> Self {
        Scale {
            epochs: 80,
            batch: 100,
            seq_len: 128,
            eval_seqs: 50,
            eval_len: 256,
            trace_jobs: 20_000,
        }
    }
}

/// What `run_all` prints, with the valid experiment names, when it rejects
/// its command line.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: run_all [NAME...] [--quick|--paper] [--epochs N] [--seed N]\n\
         no NAME runs the paper's tables and figures; the ext_* rows run by name\n\
         experiments: {}",
        names.join(" ")
    )
}

/// Parse `run_all`'s command line: experiment names and the flags
/// `--quick`, `--paper`, `--epochs N`, `--seed N`. Returns the selected
/// rows in paper order (no name selects every row that is not an
/// extension), the scale and the base seed. An unknown flag or name, both
/// scale flags at once, and a value that is missing or does not parse are
/// usage errors naming the rejected text — never a silent run at the
/// default scale.
pub fn parse(args: &[String]) -> Result<(Vec<&'static Experiment>, Scale, u64), String> {
    parse_args(args).map_err(|rejected| format!("{rejected}\n{}", usage()))
}

fn parse_args(args: &[String]) -> Result<(Vec<&'static Experiment>, Scale, u64), String> {
    let (mut quick, mut paper, mut epochs) = (false, false, None);
    let mut seed = 20220627; // HPDC'22 started June 27, 2022
    let mut names = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut number = || {
            let v = it.next().map(String::as_str).unwrap_or_default();
            let n = v.parse::<u64>();
            n.map_err(|_| format!("{a} must be a number, got {v:?}"))
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--paper" => paper = true,
            "--epochs" => epochs = Some(number()? as usize),
            "--seed" => seed = number()?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name if EXPERIMENTS.iter().any(|e| e.name == name) => names.push(name),
            name => return Err(format!("unknown experiment {name:?}")),
        }
    }
    let mut scale = match (quick, paper) {
        (true, true) => return Err("--quick and --paper are different scales; give one".into()),
        (true, false) => Scale::quick(),
        (false, true) => Scale::paper(),
        (false, false) => Scale::standard(),
    };
    if let Some(epochs) = epochs {
        scale.epochs = epochs;
    }
    let selected = EXPERIMENTS.iter().filter(|e| {
        if names.is_empty() {
            !e.is_extension()
        } else {
            names.contains(&e.name)
        }
    });
    Ok((selected.collect(), scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let s = Scale::standard();
        let p = Scale::paper();
        assert!(q.epochs < s.epochs && s.epochs <= p.epochs);
        assert!(q.trace_jobs < s.trace_jobs);
        assert_eq!(p.batch, 100, "paper batch size");
        assert_eq!(p.seq_len, 128, "paper trajectory length");
        assert_eq!(s.eval_seqs, 50, "paper evaluation count");
        assert_eq!(s.eval_len, 256, "paper evaluation sequence length");
    }

    #[test]
    fn flags_override_the_scale_and_a_bad_value_names_its_flag() {
        let args =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        let names = |rows: &[&Experiment]| -> Vec<&str> { rows.iter().map(|e| e.name).collect() };
        let (rows, scale, seed) = parse(&args("--quick --epochs 4 --seed 9")).unwrap();
        assert_eq!(
            (scale.epochs, scale.batch, seed),
            (4, Scale::quick().batch, 9)
        );
        // No name: the paper's 15 and cost_inference, no extension.
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|e| !e.is_extension()));
        let (_, scale, seed) = parse(&args("")).unwrap();
        assert_eq!((scale, seed), (Scale::standard(), 20220627));
        // Names select rows in paper order wherever the flags stand.
        let (rows, scale, _) =
            parse(&args("ext_load_sweep --epochs 3 fig6_rewards --paper")).unwrap();
        assert_eq!(names(&rows), ["fig6_rewards", "ext_load_sweep"]);
        assert_eq!((scale.epochs, scale.batch), (3, Scale::paper().batch));

        // `4O` used to run the standard 40 epochs without a word.
        let err = parse(&args("--epochs 4O")).unwrap_err();
        assert!(err.contains("--epochs") && err.contains("\"4O\""), "{err}");
        let err = parse(&args("--quick --seed")).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        // So did `--quik`, and `--quick --paper` quietly meant `--paper`.
        for (line, rejected) in [
            ("--quik", "\"--quik\""),
            ("fig6_rewards --help", "\"--help\""),
            ("fig6_reward --quick", "\"fig6_reward\""),
            ("--quick --paper", "--quick and --paper"),
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.contains(rejected), "{line}: {err}");
            assert!(
                err.contains("fig6_rewards") && err.contains("ext_ablation_knobs"),
                "{line}: the error lists the valid names: {err}"
            );
        }
    }
}
