//! Simulator configuration.

/// Configuration of one simulation run.
///
/// Defaults follow the paper's §4.1: rejected decisions are retried after at
/// most `MAX_INTERVAL = 600 s`, and a job can be rejected at most
/// `MAX_REJECTION_TIMES = 72` times (so a job is delayed at most ~12 h).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Enable EASY backfilling while an accepted job waits for resources.
    pub backfill: bool,
    /// Maximal waiting time (seconds) before the base scheduler retries
    /// after a rejection (`MAX_INTERVAL`).
    pub max_interval: f64,
    /// Maximal number of rejections one job can receive
    /// (`MAX_REJECTION_TIMES`).
    pub max_rejections: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            backfill: false,
            max_interval: 600.0,
            max_rejections: 72,
        }
    }
}

impl SimConfig {
    /// Paper defaults with backfilling enabled (§4.4.5).
    pub fn with_backfill() -> Self {
        SimConfig {
            backfill: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.max_interval, 600.0);
        assert_eq!(c.max_rejections, 72);
        assert!(!c.backfill);
        assert!(SimConfig::with_backfill().backfill);
    }
}
