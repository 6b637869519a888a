//! Experiment scaling: quick smoke runs, the standard scale, and the full
//! paper scale.

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

/// Parse standard experiment flags: `--quick`, `--paper`, `--epochs N`,
/// `--seed N`. Returns the scale and the base seed. A value that is missing
/// or does not parse is a usage error (exit 2) naming the flag and the
/// rejected text — never a silent run at the default scale.
pub fn parse_args() -> (Scale, u64) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn parse(args: &[String]) -> Result<(Scale, u64), String> {
    let mut scale = Scale::standard();
    if args.iter().any(|a| a == "--quick") {
        scale = Scale::quick();
    }
    if args.iter().any(|a| a == "--paper") {
        scale = Scale::paper();
    }
    let mut seed = 20220627; // HPDC'22 started June 27, 2022
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut number = || {
            let v = it.next().map(String::as_str).unwrap_or_default();
            let n = v.parse::<u64>();
            n.map_err(|_| format!("{a} must be a number, got {v:?}"))
        };
        match a.as_str() {
            "--epochs" => scale.epochs = number()? as usize,
            "--seed" => seed = number()?,
            _ => {}
        }
    }
    Ok((scale, seed))
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
        let (scale, seed) = parse(&args("--quick --epochs 4 --seed 9")).unwrap();
        assert_eq!(
            (scale.epochs, scale.batch, seed),
            (4, Scale::quick().batch, 9)
        );
        assert_eq!(parse(&args("")).unwrap(), (Scale::standard(), 20220627));
        // `4O` used to run the standard 40 epochs without a word.
        let err = parse(&args("--epochs 4O")).unwrap_err();
        assert!(err.contains("--epochs") && err.contains("\"4O\""), "{err}");
        let err = parse(&args("--quick --seed")).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }
}
