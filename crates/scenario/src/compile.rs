//! Deterministic scenario compilation.
//!
//! [`compile`] turns a validated [`ScenarioSpec`] plus a seed into:
//!
//! * a [`workload::JobTrace`] (and its SWF text, via [`swf_text`]) with
//!   per-tenant user-id ranges recorded as SWF header comments, and
//! * a [`LoadProfile`] whose phase histogram mirrors the compiled arrival
//!   process, for open-loop serve replay.
//!
//! Compilation is a **pure function** of `(spec, seed)`: every tenant gets
//! its own RNG stream seeded from `(seed, tenant index)`, arrivals use
//! Lewis thinning against an inhomogeneous rate
//! `λ(t) = rate × diurnal(t) × event_multiplier(t)`, and all containers
//! are `Vec`s, so the same inputs always produce byte-identical artifacts.
//! A property test in `tests/` holds this invariant.

use obs::trace::mix64;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use swf::SwfHeader;
use workload::distributions::{calibrate_mean, Exponential, LogNormal, Sample, Zipf};
use workload::synthetic::{canonical_estimate, daily_cycle_weight};
use workload::{Job, JobTrace, TraceError};

use crate::profile::{LoadProfile, TenantShare};
use crate::spec::{ArrivalKind, ScenarioSpec, TenantSpec};

/// Number of buckets in the compiled [`LoadProfile`] phase histogram.
pub const PROFILE_PHASES: usize = 16;

/// Peak of the shared diurnal weight (`1 + 0.8·cos`), used as the thinning
/// envelope.
const DIURNAL_PEAK: f64 = 1.8;

/// Maximum runtime/estimate, matching the canonical walltime grid.
const MAX_RUNTIME_S: f64 = 432_000.0;

/// A tenant's slice of the global user-id space (`user_lo..user_hi`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRange {
    /// Tenant name.
    pub name: String,
    /// First user id owned by the tenant (inclusive).
    pub user_lo: u32,
    /// One past the last user id owned by the tenant (exclusive).
    pub user_hi: u32,
}

impl TenantRange {
    /// Whether `user` belongs to this tenant.
    pub fn contains(&self, user: u32) -> bool {
        (self.user_lo..self.user_hi).contains(&user)
    }
}

/// The compiled artifacts of one `(spec, seed)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// Seed the scenario was compiled with.
    pub seed: u64,
    /// The synthetic trace (jobs sorted by submit time, ids 1..n).
    pub trace: JobTrace,
    /// Disjoint per-tenant user-id ranges, in spec order.
    pub tenants: Vec<TenantRange>,
    /// Open-loop replay profile mirroring the arrival shape.
    pub profile: LoadProfile,
}

impl Compiled {
    /// Tenant index owning `user`, if any.
    pub fn tenant_of(&self, user: u32) -> Option<usize> {
        self.tenants.iter().position(|t| t.contains(user))
    }
}

/// A compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The generated jobs did not form a valid trace (a bug, surfaced
    /// rather than panicking).
    Trace(TraceError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Trace(e) => write!(f, "compiled trace invalid: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// SplitMix64-style stream split so each tenant (and each sampler within a
/// tenant) gets an independent deterministic seed.
fn mix(seed: u64, salt: u64) -> u64 {
    mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Sample a processor count: serial with `serial_prob`, otherwise
/// log₂-uniform over `[0, hi]` with power-of-two snapping. The same shape
/// as the calibrated synthetic generator, so scenario traces look like
/// archive logs.
fn sample_size<R: Rng + ?Sized>(t: &TenantSpec, hi: f64, procs: u32, rng: &mut R) -> u32 {
    if procs <= 1 || rng.random::<f64>() < t.serial_prob {
        return 1;
    }
    let u: f64 = rng.random::<f64>() * hi;
    let raw = 2f64.powf(u).round().max(2.0);
    let size = if rng.random::<f64>() < t.pow2_prob {
        2f64.powf(u.round())
    } else {
        raw
    };
    (size as u32).clamp(1, procs)
}

/// Calibrate the log₂ cut so the mean sampled size hits the tenant target.
fn calibrate_size_cut(t: &TenantSpec, procs: u32, seed: u64) -> f64 {
    let log2max = (procs as f64).log2();
    if procs <= 1 || log2max <= 0.1 {
        return 0.1;
    }
    calibrate_mean(0.1, log2max, t.mean_procs, 0.01, |hi| {
        let mut rng = StdRng::seed_from_u64(seed);
        const PROBE: usize = 4096;
        (0..PROBE)
            .map(|_| sample_size(t, hi, procs, &mut rng) as f64)
            .sum::<f64>()
            / PROBE as f64
    })
}

/// One tenant's arrival times via Lewis thinning of an inhomogeneous
/// Poisson process, plus bursty submission campaigns.
fn tenant_arrivals(spec: &ScenarioSpec, t: &TenantSpec, rng: &mut StdRng) -> Vec<f64> {
    let base = t.rate_per_hour / 3600.0;
    let diurnal = t.arrival == ArrivalKind::Diurnal;
    let envelope =
        base * if diurnal { DIURNAL_PEAK } else { 1.0 } * spec.max_event_multiplier(&t.name);
    debug_assert!(envelope > 0.0);
    let candidate_gap = Exponential::with_mean(1.0 / envelope);
    let burst_len = Exponential::with_mean(t.burst_mean);

    let mut arrivals = Vec::new();
    let mut now = 0.0_f64;
    loop {
        now += candidate_gap.sample(rng).max(1e-9);
        if now >= spec.horizon_s {
            break;
        }
        let lambda =
            base * if diurnal {
                daily_cycle_weight(now)
            } else {
                1.0
            } * spec.event_multiplier(now, &t.name);
        // Thinning: always draw the acceptance variate so the candidate
        // stream (and thus every downstream sample) is seed-stable.
        let accept = rng.random::<f64>() * envelope < lambda;
        if !accept {
            continue;
        }
        arrivals.push(now);
        if t.arrival == ArrivalKind::Bursty && rng.random::<f64>() < t.burst_prob {
            // A campaign: the same user script firing jobs back to back.
            let extra = 1 + burst_len.sample(rng).round() as usize;
            for k in 1..=extra {
                let s = now + k as f64;
                if s < spec.horizon_s {
                    arrivals.push(s);
                }
            }
        }
    }
    arrivals
}

/// Compile a scenario. Pure in `(spec, seed)`.
pub fn compile(spec: &ScenarioSpec, seed: u64) -> Result<Compiled, CompileError> {
    // Disjoint user-id ranges, in spec order.
    let mut tenants = Vec::with_capacity(spec.tenants.len());
    let mut next_user = 0u64;
    for t in &spec.tenants {
        tenants.push(TenantRange {
            name: t.name.clone(),
            user_lo: next_user as u32,
            user_hi: (next_user + t.users) as u32,
        });
        next_user += t.users;
    }

    // (submit, tenant index, job fields) across all tenants.
    let mut pending: Vec<(f64, usize, Job)> = Vec::new();
    let mut per_tenant_jobs = vec![0u64; spec.tenants.len()];
    for (ti, t) in spec.tenants.iter().enumerate() {
        let tseed = mix(seed, ti as u64 + 1);
        let mut rng = StdRng::seed_from_u64(tseed);
        let arrivals = tenant_arrivals(spec, t, &mut rng);
        per_tenant_jobs[ti] = arrivals.len() as u64;

        let hi = calibrate_size_cut(t, spec.procs, mix(tseed, 0x5157));
        let runtime_dist = LogNormal::with_mean(t.mean_runtime_s, t.runtime_sigma);
        let overest_dist = LogNormal::with_mean((t.overest - 1.0).max(0.01), 0.9);
        let zipf = Zipf::new(t.users as usize, t.user_skew);
        let range = &tenants[ti];

        for submit in arrivals {
            let procs = sample_size(t, hi, spec.procs, &mut rng);
            let runtime = runtime_dist.sample(&mut rng).clamp(10.0, MAX_RUNTIME_S);
            let estimate = canonical_estimate(runtime * (1.0 + overest_dist.sample(&mut rng)));
            let user = range.user_lo + zipf.sample(&mut rng) as u32;
            pending.push((
                submit,
                ti,
                Job {
                    id: 0, // assigned after the global merge sort
                    submit,
                    runtime: runtime.min(estimate),
                    estimate,
                    procs,
                    user,
                    queue: ti as u32,
                },
            ));
        }
    }

    // Merge tenant streams; ids follow global submit order so the SWF file
    // reads like a real chronological log.
    pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let jobs: Vec<Job> = pending
        .iter()
        .enumerate()
        .map(|(i, (_, _, j))| Job {
            id: i as u64 + 1,
            ..*j
        })
        .collect();

    let profile = build_profile(spec, seed, &jobs, &per_tenant_jobs);
    let trace = JobTrace::new(&spec.name, spec.procs, jobs).map_err(CompileError::Trace)?;

    Ok(Compiled {
        seed,
        trace,
        tenants,
        profile,
    })
}

/// Build the replay profile: phase histogram from the compiled arrivals,
/// tenant weights from realized job shares.
fn build_profile(
    spec: &ScenarioSpec,
    seed: u64,
    jobs: &[Job],
    per_tenant_jobs: &[u64],
) -> LoadProfile {
    let mut counts = [0u64; PROFILE_PHASES];
    for j in jobs {
        let idx = ((j.submit / spec.horizon_s) * PROFILE_PHASES as f64) as usize;
        counts[idx.min(PROFILE_PHASES - 1)] += 1;
    }
    let total = jobs.len() as f64;
    let phases: Vec<f64> = if total == 0.0 {
        vec![1.0; PROFILE_PHASES]
    } else {
        counts
            .iter()
            .map(|&c| c as f64 * PROFILE_PHASES as f64 / total)
            .collect()
    };

    let tenant_total: u64 = per_tenant_jobs.iter().sum();
    let tenants: Vec<TenantShare> = spec
        .tenants
        .iter()
        .zip(per_tenant_jobs)
        .map(|(t, &n)| TenantShare {
            name: t.name.clone(),
            weight: if tenant_total == 0 {
                1.0 / spec.tenants.len() as f64
            } else {
                n as f64 / tenant_total as f64
            },
        })
        .collect();

    LoadProfile {
        name: spec.name.clone(),
        qps: spec.replay.qps,
        secs: spec.replay.secs,
        conns: spec.replay.conns,
        seed,
        phases,
        tenants,
    }
}

/// Serialize a compiled scenario to SWF text, with the tenant ranges and
/// the compile seed recorded as header comments so the file is
/// self-describing (`Tenant: <name> <lo> <hi>` round-trips through
/// [`tenant_ranges_from_header`]).
pub fn swf_text(c: &Compiled) -> String {
    let mut swf = c.trace.to_swf();
    swf.header
        .absorb_comment(&format!(" ScenarioSeed: {}", c.seed));
    for t in &c.tenants {
        swf.header
            .absorb_comment(&format!(" Tenant: {} {} {}", t.name, t.user_lo, t.user_hi));
    }
    swf.to_swf_string()
}

/// Recover tenant ranges from the `Tenant:` header comments of a compiled
/// SWF file. Tenant names may contain spaces; the last two tokens are the
/// id range.
pub fn tenant_ranges_from_header(header: &SwfHeader) -> Vec<TenantRange> {
    let mut out = Vec::new();
    for line in &header.raw_lines {
        let Some(rest) = line.trim().strip_prefix("Tenant:") else {
            continue;
        };
        let mut toks: Vec<&str> = rest.split_whitespace().collect();
        if toks.len() < 3 {
            continue;
        }
        let (Ok(hi), Ok(lo)) = (
            toks.pop().unwrap().parse::<u32>(),
            toks.pop().unwrap().parse::<u32>(),
        ) else {
            continue;
        };
        if lo >= hi {
            continue;
        }
        out.push(TenantRange {
            name: toks.join(" "),
            user_lo: lo,
            user_hi: hi,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use swf::SwfTrace;

    const SPEC: &str = r#"
[scenario]
name = "two-tenant"
procs = 128
horizon_hours = 3.0

[[tenant]]
name = "batch"
users = 50
rate_per_hour = 400.0
arrival = "diurnal"
mean_procs = 16.0

[[tenant]]
name = "interactive"
users = 2000
rate_per_hour = 150.0
arrival = "bursty"
mean_runtime_s = 300.0
mean_procs = 2.0

[[event]]
kind = "flash_crowd"
tenant = "interactive"
start_hours = 1.0
duration_hours = 0.25
multiplier = 6.0

[[event]]
kind = "drain"
start_hours = 2.5
duration_hours = 0.5
"#;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::parse(SPEC).unwrap()
    }

    #[test]
    fn compile_is_deterministic() {
        let s = spec();
        let a = compile(&s, 7).unwrap();
        let b = compile(&s, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(swf_text(&a), swf_text(&b));
        assert_eq!(a.profile.to_toml(), b.profile.to_toml());
        let c = compile(&s, 8).unwrap();
        assert_ne!(a.trace.jobs, c.trace.jobs);
    }

    #[test]
    fn job_count_tracks_expected_rate() {
        let s = spec();
        let c = compile(&s, 1).unwrap();
        // Expected ≈ (400 + 150) × 3 plus the flash crowd and bursts, minus
        // the drain; just check the order of magnitude is right.
        let n = c.trace.len() as f64;
        assert!(n > 800.0 && n < 4000.0, "job count {n}");
    }

    #[test]
    fn tenants_get_disjoint_users_and_queue_ids() {
        let s = spec();
        let c = compile(&s, 2).unwrap();
        assert_eq!(c.tenants.len(), 2);
        assert_eq!(c.tenants[0].user_lo, 0);
        assert_eq!(c.tenants[0].user_hi, 50);
        assert_eq!(c.tenants[1].user_lo, 50);
        assert_eq!(c.tenants[1].user_hi, 2050);
        for j in &c.trace.jobs {
            let ti = c.tenant_of(j.user).expect("job user in a tenant range");
            assert_eq!(j.queue, ti as u32, "queue encodes tenant");
        }
        // Both tenants actually submitted.
        assert!(c.trace.jobs.iter().any(|j| j.queue == 0));
        assert!(c.trace.jobs.iter().any(|j| j.queue == 1));
    }

    #[test]
    fn drain_suppresses_all_submissions() {
        let s = spec();
        let c = compile(&s, 3).unwrap();
        let drained = c
            .trace
            .jobs
            .iter()
            .filter(|j| j.submit >= 2.5 * 3600.0 && j.submit < 3.0 * 3600.0)
            // Campaign follow-ups from a burst that started before the
            // drain may land a few seconds inside it.
            .filter(|j| j.submit >= 2.5 * 3600.0 + 60.0)
            .count();
        assert_eq!(drained, 0, "no submissions during the drain window");
    }

    #[test]
    fn flash_crowd_raises_the_target_tenant_rate() {
        let s = spec();
        let c = compile(&s, 4).unwrap();
        let window = |lo: f64, hi: f64| {
            c.trace
                .jobs
                .iter()
                .filter(|j| j.queue == 1 && j.submit >= lo * 3600.0 && j.submit < hi * 3600.0)
                .count() as f64
        };
        let crowd = window(1.0, 1.25) / 0.25;
        let before = window(0.0, 1.0) / 1.0;
        assert!(
            crowd > 3.0 * before,
            "flash crowd rate {crowd}/h vs baseline {before}/h"
        );
    }

    #[test]
    fn swf_text_roundtrips_tenants_and_jobs() {
        let s = spec();
        let c = compile(&s, 5).unwrap();
        let text = swf_text(&c);
        let parsed = SwfTrace::parse(&text).unwrap();
        assert_eq!(parsed.machine_procs(), Some(128));
        let ranges = tenant_ranges_from_header(&parsed.header);
        assert_eq!(ranges, c.tenants);
        let back = JobTrace::from_swf(&s.name, &parsed).unwrap();
        assert_eq!(back.len(), c.trace.len());
        // Writing the parsed trace again is byte-identical (stable text).
        assert_eq!(parsed.to_swf_string(), text);
    }

    #[test]
    fn profile_mirrors_arrival_shape() {
        let s = spec();
        let c = compile(&s, 6).unwrap();
        let p = &c.profile;
        assert_eq!(p.phases.len(), PROFILE_PHASES);
        let mean: f64 = p.phases.iter().sum::<f64>() / PROFILE_PHASES as f64;
        assert!((mean - 1.0).abs() < 1e-9, "phase mean {mean}");
        // The flash-crowd bucket (hour 1.0–1.25 of 3 h → bucket 5) beats
        // the drained tail bucket.
        assert!(p.phases[5] > *p.phases.last().unwrap());
        let wsum: f64 = p.tenants.iter().map(|t| t.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        p.validate().unwrap();
    }

    #[test]
    fn jobs_are_valid_for_the_machine() {
        let s = spec();
        let c = compile(&s, 9).unwrap();
        for j in &c.trace.jobs {
            assert!(j.procs >= 1 && j.procs <= 128);
            assert!(j.runtime >= 10.0 && j.estimate >= j.runtime);
            assert!(j.submit >= 0.0 && j.submit < s.horizon_s);
        }
    }
}
