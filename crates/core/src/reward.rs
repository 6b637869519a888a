//! Reward functions (§3.4).
//!
//! All three reward designs the paper compares are implemented. Rewards are
//! computed once per trajectory from the metric value of the inspected run
//! vs. the metric value of the *same* job sequence scheduled by the base
//! policy alone; all schedulers minimize their metric, so positive reward =
//! the inspector helped.

/// Which reward function to train with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewardKind {
    /// `m_orig − m_inspect` — direct difference ("Native reward"). Suffers
    /// from the huge variance of metrics like bsld across sequences.
    Native,
    /// `sign(m_orig − m_inspect)` — counts wins ("Win/Loss reward"). Bias
    /// free but blind to the size of the gain.
    WinLoss,
    /// `(m_orig − m_inspect) / m_orig` — the paper's contribution
    /// ("Percentage reward"): variance-normalized yet still rewarding
    /// big-gain actions.
    Percentage,
}

impl RewardKind {
    /// Compute the trajectory reward from the base-policy metric value
    /// (`orig`) and the inspected metric value (`inspected`).
    pub fn compute(&self, orig: f64, inspected: f64) -> f32 {
        match self {
            RewardKind::Native => (orig - inspected) as f32,
            RewardKind::WinLoss => {
                if inspected < orig {
                    1.0
                } else if inspected > orig {
                    -1.0
                } else {
                    0.0
                }
            }
            RewardKind::Percentage => {
                if orig.abs() < 1e-12 {
                    // A zero-cost baseline cannot be improved upon; any
                    // degradation is fully penalized.
                    if inspected > 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                } else {
                    ((orig - inspected) / orig) as f32
                }
            }
        }
    }

    /// Name as used in the paper's Fig. 6.
    pub fn name(&self) -> &'static str {
        match self {
            RewardKind::Native => "native",
            RewardKind::WinLoss => "win/loss",
            RewardKind::Percentage => "percentage",
        }
    }
}

impl std::str::FromStr for RewardKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "native" => Ok(RewardKind::Native),
            "winloss" | "win/loss" => Ok(RewardKind::WinLoss),
            "percentage" | "pct" => Ok(RewardKind::Percentage),
            other => Err(format!("unknown reward kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_is_difference() {
        assert_eq!(RewardKind::Native.compute(10.0, 4.0), 6.0);
        assert_eq!(RewardKind::Native.compute(4.0, 10.0), -6.0);
    }

    #[test]
    fn winloss_is_sign() {
        assert_eq!(RewardKind::WinLoss.compute(10.0, 4.0), 1.0);
        assert_eq!(RewardKind::WinLoss.compute(4.0, 10.0), -1.0);
        assert_eq!(RewardKind::WinLoss.compute(5.0, 5.0), 0.0);
    }

    #[test]
    fn percentage_normalizes_variance() {
        // A 50% gain on a huge-bsld sequence equals a 50% gain on a tiny one.
        let big = RewardKind::Percentage.compute(2414.0, 1207.0);
        let small = RewardKind::Percentage.compute(2.0, 1.0);
        assert!((big - 0.5).abs() < 1e-6);
        assert!((small - 0.5).abs() < 1e-6);
    }

    #[test]
    fn percentage_rewards_big_gains_more() {
        let big = RewardKind::Percentage.compute(100.0, 10.0);
        let small = RewardKind::Percentage.compute(100.0, 90.0);
        assert!(big > small);
    }

    #[test]
    fn percentage_zero_baseline_guard() {
        assert_eq!(RewardKind::Percentage.compute(0.0, 0.0), 0.0);
        assert_eq!(RewardKind::Percentage.compute(0.0, 5.0), -1.0);
    }

    #[test]
    fn parsing() {
        assert_eq!(
            "percentage".parse::<RewardKind>().unwrap(),
            RewardKind::Percentage
        );
        assert_eq!(
            "win/loss".parse::<RewardKind>().unwrap(),
            RewardKind::WinLoss
        );
        assert_eq!("NATIVE".parse::<RewardKind>().unwrap(), RewardKind::Native);
        assert!("x".parse::<RewardKind>().is_err());
    }
}
