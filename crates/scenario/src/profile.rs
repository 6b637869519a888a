//! Typed, serializable load profiles for open-loop serve replay.
//!
//! A [`LoadProfile`] replaces the loadgen binary's flag soup (`--qps`,
//! `--secs`, `--conns`, `--seed`, ...) with one value that can be written
//! to disk, compiled from a scenario, and shared between the loadgen
//! library and the CLI. The on-disk form is the same TOML fragment the
//! scenario grammar uses, so one parser serves both.

use obs::trace::splitmix64;

use crate::toml::{escape, Doc, Value};

/// How a tenant shares the replayed request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantShare {
    /// Tenant name (matches the scenario tenant).
    pub name: String,
    /// Fraction of requests attributed to this tenant (shares sum to 1).
    pub weight: f64,
}

/// A typed open-loop load profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Profile name (scenario name when compiled).
    pub name: String,
    /// Mean request rate over the whole run.
    pub qps: f64,
    /// Run duration, seconds.
    pub secs: f64,
    /// Requested client connections (before shard balancing).
    pub conns: u32,
    /// RNG seed for arrival jitter and tenant tagging.
    pub seed: u64,
    /// Per-phase rate multipliers (mean ≈ 1), replayed left to right over
    /// `secs`. Empty means a flat rate.
    pub phases: Vec<f64>,
    /// Tenant mix. Empty means a single anonymous tenant.
    pub tenants: Vec<TenantShare>,
}

impl LoadProfile {
    /// A flat single-tenant profile — the equivalent of the old flag set.
    pub fn steady(name: impl Into<String>, qps: f64, secs: f64, conns: u32, seed: u64) -> Self {
        LoadProfile {
            name: name.into(),
            qps,
            secs,
            conns,
            seed,
            phases: Vec::new(),
            tenants: Vec::new(),
        }
    }

    /// Validate invariants (positive rate/duration, normalized weights).
    pub fn validate(&self) -> Result<(), ProfileError> {
        if !(self.qps > 0.0 && self.qps.is_finite()) {
            return Err(ProfileError::new(format!(
                "qps must be positive, got {}",
                self.qps
            )));
        }
        if !(self.secs > 0.0 && self.secs.is_finite()) {
            return Err(ProfileError::new(format!(
                "secs must be positive, got {}",
                self.secs
            )));
        }
        if self.conns == 0 {
            return Err(ProfileError::new("conns must be at least 1"));
        }
        if self.phases.iter().any(|&p| !p.is_finite() || p < 0.0) {
            return Err(ProfileError::new("phase multipliers must be ≥ 0"));
        }
        if !self.tenants.is_empty() {
            let sum: f64 = self.tenants.iter().map(|t| t.weight).sum();
            let bad_weight = |w: f64| w.is_nan() || w < 0.0;
            if self.tenants.iter().any(|t| bad_weight(t.weight)) || sum.is_nan() || sum <= 0.0 {
                return Err(ProfileError::new(
                    "tenant weights must be ≥ 0 and sum to a positive value",
                ));
            }
        }
        Ok(())
    }

    /// The number of connections to actually open against `shards` engine
    /// shards: `conns` rounded **up** to a multiple of the shard count, so
    /// the `conn_id % shards` pinning gives every shard the same number of
    /// connections and per-shard batch statistics stay comparable even for
    /// uneven tenant mixes.
    pub fn balanced_conns(&self, shards: usize) -> u32 {
        let shards = shards.max(1) as u32;
        let conns = self.conns.max(1);
        conns.div_ceil(shards) * shards
    }

    /// The instantaneous rate multiplier at `frac ∈ [0, 1)` of the run.
    pub fn phase_multiplier(&self, frac: f64) -> f64 {
        if self.phases.is_empty() {
            return 1.0;
        }
        let idx = ((frac.clamp(0.0, 1.0)) * self.phases.len() as f64) as usize;
        self.phases[idx.min(self.phases.len() - 1)]
    }

    /// Deterministically attribute request `request_id` to a tenant index.
    ///
    /// Both the sender (tagging outgoing requests) and the receiver
    /// (attributing latencies) call this with the same ids, so the split
    /// never needs to ride the wire.
    pub fn tenant_for(&self, request_id: u64) -> usize {
        if self.tenants.is_empty() {
            return 0;
        }
        // SplitMix64 of (seed, id) → uniform in [0, 1) → weight CDF.
        let z = splitmix64(request_id.wrapping_add(self.seed));
        let total: f64 = self.tenants.iter().map(|t| t.weight).sum();
        let u = (z >> 11) as f64 / (1u64 << 53) as f64 * total;
        let mut acc = 0.0;
        for (i, t) in self.tenants.iter().enumerate() {
            acc += t.weight;
            if u < acc {
                return i;
            }
        }
        self.tenants.len() - 1
    }

    /// Serialize to the canonical TOML form. The output is byte-stable for
    /// equal profiles (fields in fixed order, `{}` float formatting) so
    /// compiled artifacts can be compared with `cmp`.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("[profile]\n");
        let _ = writeln!(out, "name = {}", escape(&self.name));
        let _ = writeln!(out, "qps = {}", fmt_f64(self.qps));
        let _ = writeln!(out, "secs = {}", fmt_f64(self.secs));
        let _ = writeln!(out, "conns = {}", self.conns);
        let _ = writeln!(out, "seed = {}", self.seed);
        if !self.phases.is_empty() {
            let items: Vec<String> = self.phases.iter().map(|&p| fmt_f64(p)).collect();
            let _ = writeln!(out, "phases = [{}]", items.join(", "));
        }
        for t in &self.tenants {
            out.push_str("\n[[tenant]]\n");
            let _ = writeln!(out, "name = {}", escape(&t.name));
            let _ = writeln!(out, "weight = {}", fmt_f64(t.weight));
        }
        out
    }

    /// Parse the TOML form produced by [`to_toml`](Self::to_toml) (or
    /// written by hand).
    pub fn parse(text: &str) -> Result<Self, ProfileError> {
        let doc = Doc::parse(text).map_err(|e| ProfileError::new(format!("syntax: {e}")))?;
        let p = doc
            .table("profile")
            .ok_or_else(|| ProfileError::new("missing [profile] section"))?;
        for key in p.keys() {
            if !matches!(key, "name" | "qps" | "secs" | "conns" | "seed" | "phases") {
                return Err(ProfileError::new(format!("unknown [profile] key {key:?}")));
            }
        }
        let name = p
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ProfileError::new("missing string key name"))?
            .to_string();
        let need = |key: &str| -> Result<f64, ProfileError> {
            p.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| ProfileError::new(format!("missing numeric key {key}")))
        };
        let qps = need("qps")?;
        let secs = need("secs")?;
        let conns = need("conns")?;
        if conns < 1.0 || conns.fract() != 0.0 || conns > u32::MAX as f64 {
            return Err(ProfileError::new("conns must be a positive integer"));
        }
        let seed = match p.get("seed") {
            None => 0,
            Some(v) => {
                let n = v
                    .as_i64()
                    .ok_or_else(|| ProfileError::new("seed must be an integer"))?;
                if n < 0 {
                    return Err(ProfileError::new("seed must be non-negative"));
                }
                n as u64
            }
        };
        let phases = match p.get("phases") {
            None => Vec::new(),
            Some(Value::Array(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for v in items {
                    out.push(
                        v.as_f64()
                            .ok_or_else(|| ProfileError::new("phases must be numeric"))?,
                    );
                }
                out
            }
            Some(_) => return Err(ProfileError::new("phases must be an array")),
        };
        let mut tenants = Vec::new();
        for t in doc.array("tenant") {
            for key in t.keys() {
                if !matches!(key, "name" | "weight") {
                    return Err(ProfileError::new(format!("unknown [[tenant]] key {key:?}")));
                }
            }
            let name = t
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| ProfileError::new("tenant missing string key name"))?
                .to_string();
            let weight = t
                .get("weight")
                .and_then(Value::as_f64)
                .ok_or_else(|| ProfileError::new("tenant missing numeric key weight"))?;
            tenants.push(TenantShare { name, weight });
        }
        let profile = LoadProfile {
            name,
            qps,
            secs,
            conns: conns as u32,
            seed,
            phases,
            tenants,
        };
        profile.validate()?;
        Ok(profile)
    }
}

/// Format an `f64` with the shortest round-trip representation (Rust's
/// `{}`), which is deterministic across platforms.
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral values readable and make them parse back as TOML
        // floats-or-ints interchangeably.
        format!("{:.1}", v)
    } else {
        format!("{v}")
    }
}

/// A load-profile parse or validation error.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileError {
    /// What is wrong.
    pub message: String,
}

impl ProfileError {
    fn new(message: impl Into<String>) -> Self {
        ProfileError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "load profile: {}", self.message)
    }
}

impl std::error::Error for ProfileError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LoadProfile {
        LoadProfile {
            name: "flash".into(),
            qps: 120.5,
            secs: 4.0,
            conns: 6,
            seed: 99,
            phases: vec![0.5, 1.0, 2.5, 1.0],
            tenants: vec![
                TenantShare {
                    name: "batch".into(),
                    weight: 0.75,
                },
                TenantShare {
                    name: "ui".into(),
                    weight: 0.25,
                },
            ],
        }
    }

    #[test]
    fn toml_roundtrip_is_exact() {
        let p = sample();
        let text = p.to_toml();
        let back = LoadProfile::parse(&text).unwrap();
        assert_eq!(p, back);
        // And re-serialization is byte-identical.
        assert_eq!(text, back.to_toml());
    }

    #[test]
    fn steady_profile_has_flat_phases() {
        let p = LoadProfile::steady("s", 50.0, 2.0, 4, 1);
        assert_eq!(p.phase_multiplier(0.0), 1.0);
        assert_eq!(p.phase_multiplier(0.99), 1.0);
        assert_eq!(p.tenant_for(123), 0);
        p.validate().unwrap();
    }

    #[test]
    fn phase_multiplier_indexes_by_fraction() {
        let p = sample();
        assert_eq!(p.phase_multiplier(0.0), 0.5);
        assert_eq!(p.phase_multiplier(0.6), 2.5);
        assert_eq!(p.phase_multiplier(1.0), 1.0);
        assert_eq!(p.phase_multiplier(-1.0), 0.5);
    }

    #[test]
    fn balanced_conns_rounds_up_to_shard_multiple() {
        let p = sample(); // conns = 6
        assert_eq!(p.balanced_conns(1), 6);
        assert_eq!(p.balanced_conns(2), 6);
        assert_eq!(p.balanced_conns(4), 8);
        assert_eq!(p.balanced_conns(5), 10);
        let one = LoadProfile::steady("s", 1.0, 1.0, 1, 0);
        assert_eq!(one.balanced_conns(3), 3);
    }

    #[test]
    fn tenant_attribution_is_deterministic_and_weighted() {
        let p = sample();
        let n = 40_000u64;
        let mut counts = [0usize; 2];
        for id in 0..n {
            let t = p.tenant_for(id);
            assert_eq!(t, p.tenant_for(id), "deterministic");
            counts[t] += 1;
        }
        let frac = counts[0] as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "batch share {frac}");
    }

    #[test]
    fn parse_rejects_bad_profiles() {
        for text in [
            "",
            "[profile]\nqps = 1.0\nsecs = 1.0\nconns = 1\n",
            "[profile]\nname = \"x\"\nqps = -1.0\nsecs = 1.0\nconns = 1\n",
            "[profile]\nname = \"x\"\nqps = 1.0\nsecs = 1.0\nconns = 0\n",
            "[profile]\nname = \"x\"\nqps = 1.0\nsecs = 1.0\nconns = 1\nbogus = 2\n",
            "[profile]\nname = \"x\"\nqps = 1.0\nsecs = 1.0\nconns = 1\n[[tenant]]\nname = \"t\"\n",
        ] {
            assert!(LoadProfile::parse(text).is_err(), "should reject {text:?}");
        }
    }
}
