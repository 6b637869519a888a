//! Name-based construction of base policies (for CLIs and experiments).

use simhpc::SchedulingPolicy;

use crate::f1::F1;
use crate::simple::{Fcfs, Lcfs, Saf, Sjf, Srf};

/// The stateless Table 3 policies by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First Come First Served.
    Fcfs,
    /// Last Come First Served.
    Lcfs,
    /// Shortest Job First.
    Sjf,
    /// Smallest estimated Area First.
    Saf,
    /// Smallest estimated Ratio First.
    Srf,
    /// Carastan-Santos & de Camargo's F1.
    F1,
}

impl PolicyKind {
    /// All Table 3 kinds in paper order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Fcfs,
        PolicyKind::Lcfs,
        PolicyKind::Sjf,
        PolicyKind::Saf,
        PolicyKind::Srf,
        PolicyKind::F1,
    ];

    /// Paper abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Lcfs => "LCFS",
            PolicyKind::Sjf => "SJF",
            PolicyKind::Saf => "SAF",
            PolicyKind::Srf => "SRF",
            PolicyKind::F1 => "F1",
        }
    }

    /// The priority heuristic as printed in Table 3.
    pub fn priority_formula(&self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "max(wait_j)",
            PolicyKind::Lcfs => "min(wait_j)",
            PolicyKind::Sjf => "min(est_j)",
            PolicyKind::Saf => "min(est_j * res_j)",
            PolicyKind::Srf => "min(est_j / res_j)",
            PolicyKind::F1 => "min(log10(est_j)*res_j + 870*log10(s_j))",
        }
    }

    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn SchedulingPolicy + Send> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs),
            PolicyKind::Lcfs => Box::new(Lcfs),
            PolicyKind::Sjf => Box::new(Sjf),
            PolicyKind::Saf => Box::new(Saf),
            PolicyKind::Srf => Box::new(Srf),
            PolicyKind::F1 => Box::new(F1::default()),
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                format!("unknown policy {s:?} (expected one of FCFS/LCFS/SJF/SAF/SRF/F1)")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simhpc::PolicyContext;
    use workload::Job;

    #[test]
    fn names_roundtrip() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!("nope".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn built_policies_score() {
        let ctx = PolicyContext {
            now: 10.0,
            total_procs: 64,
            free_procs: 64,
        };
        let j = Job::new(1, 5.0, 100.0, 200.0, 4);
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            assert!(p.score(&j, &ctx).is_finite(), "{}", kind.name());
        }
    }
}
