//! The `select` oracle: a policy that overrides
//! [`SchedulingPolicy::select`] must schedule exactly as the trait's
//! default `select` would from the same policy's `score`.
//!
//! `refsim` ≡ `simhpc` cannot see a wrong `select` — both simulators call
//! the same `policy.select`. Here the *policy* is doubled instead:
//! [`ByScore`] forwards `score`, `on_start` and `name` and inherits the
//! default `select` (the definition: lowest score, ties to the smaller
//! id), and both run through the same simulator. F1 and Slurm keep
//! per-job memos across scheduling points, so besides the usual trace
//! shapes the cases reuse **one policy object over several sequences of
//! the same length** — a memo that outlives its inputs shows up there.

use proptest::prelude::*;
use simhpc::{PolicyContext, SchedulingPolicy, SimConfig, Simulator};
use testkit::{DigestInspector, SplitMix64};
use workload::{profiles, synthetic, Job, JobTrace};

use policies::{SlurmMultifactor, F1};

/// `P` with the trait's default `select`.
struct ByScore<P>(P);

impl<P: SchedulingPolicy> SchedulingPolicy for ByScore<P> {
    fn score(&mut self, job: &Job, ctx: &PolicyContext) -> f64 {
        self.0.score(job, ctx)
    }

    fn on_start(&mut self, job: &Job, now: f64) {
        self.0.on_start(job, now)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

const MAX_REJECTIONS: [u32; 3] = [0, 2, 72];

/// Sequences to run, in order, through one policy object, and the
/// simulator to run them on.
struct Case<'a> {
    what: &'a str,
    procs: u32,
    config: SimConfig,
    inspector_seed: u64,
    sequences: &'a [&'a [Job]],
}

impl Case<'_> {
    /// Run the sequences through one clone of `policy` and through one
    /// `ByScore` clone; `between` is applied to both before every
    /// sequence but the first. Every pair of results must be equal.
    fn assert_agree<P: SchedulingPolicy + Clone>(
        &self,
        policy: &P,
        carry: &str,
        between: impl Fn(&mut P),
    ) {
        let sim = Simulator::new(self.procs, self.config);
        let mut own = policy.clone();
        let mut by_score = ByScore(policy.clone());
        for (k, jobs) in self.sequences.iter().enumerate() {
            if k > 0 {
                between(&mut own);
                between(&mut by_score.0);
            }
            let mut hook = DigestInspector::new(self.inspector_seed);
            let a = sim.run_inspected(jobs, &mut own, &mut hook);
            let mut hook = DigestInspector::new(self.inspector_seed);
            let b = sim.run_inspected(jobs, &mut by_score, &mut hook);
            assert_eq!(
                a,
                b,
                "{}, {carry}: {}'s select diverged from its score on sequence {k} \
                 (backfill {}, max_rejections {})",
                self.what,
                policy.name(),
                self.config.backfill,
                self.config.max_rejections
            );
        }
    }

    /// F1 and Slurm: carried over from one sequence to the next as they
    /// are, and (Slurm) with `reset_usage` in between.
    fn assert_both_agree(&self, slurm: &SlurmMultifactor) {
        self.assert_agree(&F1::default(), "carried over", |_| {});
        self.assert_agree(slurm, "carried over", |_| {});
        self.assert_agree(slurm, "reset_usage between", SlurmMultifactor::reset_usage);
    }
}

/// Users and queues the share trace knows; episodes also draw one of each
/// beyond these.
const KNOWN_USERS: u64 = 4;
const KNOWN_QUEUES: u64 = 2;

/// The trace Slurm's shares are derived from: four users of very
/// different weight on two queues.
fn share_trace() -> JobTrace {
    let jobs = (0..24u64)
        .map(|i| Job {
            user: (i % KNOWN_USERS) as u32,
            queue: (i % KNOWN_QUEUES) as u32,
            ..Job::new(
                i + 1,
                i as f64 * 10.0,
                100.0 * (1 + i % KNOWN_USERS) as f64,
                7_200.0,
                1 + (i % 3) as u32,
            )
        })
        .collect();
    JobTrace::new("shares", 8, jobs).expect("valid share trace")
}

/// A micro-trace built to collide: estimates, widths and submit times
/// come from a handful of values, so scores tie and the id decides, and
/// ids are a permutation, so the smaller id is not the earlier position.
/// Some users and queues are absent from [`share_trace`].
fn micro_trace(rng: &mut SplitMix64, n: usize, procs: u32, zero_runtimes: bool) -> Vec<Job> {
    let mut ids: Vec<u64> = (1..=n as u64).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.range_u64(0, i as u64) as usize);
    }
    let mut submit = 0.0f64;
    ids.into_iter()
        .map(|id| {
            if rng.chance(0.4) {
                submit += (rng.unit() * 4.0).floor() * 60.0;
            }
            let runtime = if zero_runtimes && rng.chance(0.25) {
                0.0
            } else {
                1.0 + (rng.unit() * 500.0).floor()
            };
            let estimate = [60.0, 600.0, 3_600.0, 14_400.0][rng.range_u64(0, 3) as usize];
            let width = [1, 2, procs][rng.range_u64(0, 2) as usize];
            Job {
                user: rng.range_u64(0, KNOWN_USERS) as u32,
                queue: rng.range_u64(0, KNOWN_QUEUES) as u32,
                ..Job::new(id, submit, runtime, estimate, width)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Generated colliding micro-traces: two different sequences of one
    /// length, then the first again, through one policy object.
    #[test]
    fn memoised_select_equals_select_by_score(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let procs = [2u32, 4, 8][rng.range_u64(0, 2) as usize];
        let n = rng.range_u64(1, 40) as usize;
        let max_rejections = MAX_REJECTIONS[rng.range_u64(0, 2) as usize];
        let config = SimConfig {
            backfill: rng.chance(0.5),
            max_interval: [1.0, 5.0, 600.0][rng.range_u64(0, 2) as usize],
            max_rejections,
        };
        // A zero-runtime job completes at the instant it starts, and a
        // rejection at that instant cannot advance time (a debug
        // assertion of the simulator), so they come without rejections.
        let zero_runtimes = max_rejections == 0 && rng.chance(0.5);
        let first = micro_trace(&mut rng, n, procs, zero_runtimes);
        let second = micro_trace(&mut rng, n, procs, zero_runtimes);
        Case {
            what: &format!("case seed {seed}"),
            procs,
            config,
            inspector_seed: rng.next_u64(),
            sequences: &[&first, &second, &first],
        }
        .assert_both_agree(&SlurmMultifactor::from_trace(&share_trace()));
    }
}

fn configs() -> impl Iterator<Item = SimConfig> {
    [false, true].into_iter().flat_map(|backfill| {
        MAX_REJECTIONS
            .into_iter()
            .map(move |max_rejections| SimConfig {
                backfill,
                max_rejections,
                ..SimConfig::default()
            })
    })
}

/// Seeded episodes of the calibrated SDSC-SP2 and HPC2N generators, cut
/// and rebased as training cuts them.
#[test]
fn synthetic_trace_episodes_agree() {
    for (profile, seed) in [(&profiles::SDSC_SP2, 42u64), (&profiles::HPC2N, 7)] {
        let trace = synthetic::generate(profile, 640, seed);
        let slurm = SlurmMultifactor::from_trace(&trace);
        let episodes = [
            trace.sequence(0, 128),
            trace.sequence(128, 128),
            trace.sequence(300, 128),
            trace.sequence(384, 256),
        ];
        let sequences: Vec<&[Job]> = episodes.iter().map(Vec::as_slice).collect();
        for config in configs() {
            Case {
                what: profile.name,
                procs: trace.procs,
                config,
                inspector_seed: seed,
                sequences: &sequences,
            }
            .assert_both_agree(&slurm);
        }
    }
}

/// One window of the flash-crowd scenario `eval_replay` replays, starting
/// where the crowd arrives: queues hundreds deep, hundreds of users.
#[test]
fn flash_crowd_window_agrees() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/flash_crowd.toml"
    );
    let text = std::fs::read_to_string(path).expect("read flash_crowd.toml");
    let spec = scenario::ScenarioSpec::parse(&text).expect("spec parses");
    let trace = scenario::compile(&spec, 1).expect("compiles").trace;
    let slurm = SlurmMultifactor::from_trace(&trace);
    let crowd = trace.jobs.partition_point(|j| j.submit < 9.0 * 3_600.0);
    let windows = [trace.sequence(crowd, 1_000), trace.sequence(0, 1_000)];
    assert_eq!(windows[0].len(), windows[1].len());
    let sequences: Vec<&[Job]> = windows.iter().map(Vec::as_slice).collect();
    for config in configs().filter(|c| c.max_rejections != 2) {
        Case {
            what: "flash crowd",
            procs: trace.procs,
            config,
            inspector_seed: 11,
            sequences: &sequences,
        }
        .assert_both_agree(&slurm);
    }
}

/// Users whose started jobs all had zero runtime keep a usage of exactly
/// 0.0 while the total grows; users the share trace never saw start jobs
/// too.
#[test]
fn zero_usage_and_unknown_users_agree() {
    let jobs: Vec<Job> = (0..60u64)
        .map(|i| {
            let user = (i % (KNOWN_USERS + 2)) as u32;
            let runtime = if user == 0 { 0.0 } else { 40.0 + i as f64 };
            Job {
                user,
                queue: (i % (KNOWN_QUEUES + 1)) as u32,
                ..Job::new(
                    60 - i,
                    (i / 6) as f64 * 30.0,
                    runtime,
                    600.0,
                    1 + (i % 2) as u32,
                )
            }
        })
        .collect();
    for backfill in [false, true] {
        let config = SimConfig {
            backfill,
            max_rejections: 0,
            ..SimConfig::default()
        };
        Case {
            what: "zero usage",
            procs: 4,
            config,
            inspector_seed: 0,
            sequences: &[&jobs, &jobs],
        }
        .assert_both_agree(&SlurmMultifactor::from_trace(&share_trace()));
    }
}
