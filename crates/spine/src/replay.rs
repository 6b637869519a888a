//! `eval_replay`: the compiled flash-crowd trace replayed through the
//! simulator under three base policies, each as base and as inspected,
//! with the per-tenant fairness report.
//!
//! The trace is cut into windows of [`WINDOW`] consecutive jobs and every
//! window is replayed under every configuration: a *unit* is one (window,
//! configuration) replay, a *pass* is all units once. The scenario is
//! overloaded by design, so nearly every job of a window queues and the
//! queues run a thousand deep; the cost of a unit is then set by the window
//! length rather than by which jobs the seed drew, which keeps the work
//! within a few percent across seeds, and a pass covers the whole day
//! including the flash crowd. Passes repeat until the seconds are spent.
//! Repeats of a unit must produce the same result digest.

use std::time::Instant;

use inspector::{PolicyFactory, SchedInspector};
use policies::PolicyKind;
use scenario::{FairnessReport, TenantRange};
use simhpc::{
    InspectorHook, Observation, PolicyContext, SchedulingPolicy, SimConfig, SimResult, Simulator,
};
use workload::{Job, JobTrace};

use crate::gen::{self, SCENARIO_FILE};
use crate::names::*;
use crate::probes;
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{best, median, percentile};
use crate::{peak_rss_mb, RunSpec, Setups};

/// Jobs per replayed window: deep enough that the queue scans dominate as
/// they do on a full trace, short enough that a run fits six passes.
pub const WINDOW: usize = 1_000;

/// Jobs of the trace's start that are also run through the reference
/// simulator.
pub const REFERENCE_PREFIX: usize = 2_000;

/// Passes a run makes at least, so that every unit has a repeat to agree
/// with.
const MIN_PASSES: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Base {
    SjfBackfill,
    F1,
    Slurm,
}

/// The replayed configurations: each base policy bare and inspected.
const CONFIGS: [(Base, bool); 6] = [
    (Base::SjfBackfill, false),
    (Base::SjfBackfill, true),
    (Base::F1, false),
    (Base::F1, true),
    (Base::Slurm, false),
    (Base::Slurm, true),
];

/// Wraps a base policy to clock the simulator from outside: the gap
/// between two `select` calls is one scheduling point as the replay pays
/// for it (select, inspection, backfilling, event handling).
struct Clocked {
    inner: Box<dyn SchedulingPolicy + Send>,
    last: Instant,
    gaps_ns: Vec<u32>,
    /// Traced passes also clock the time inside `select`.
    inside: bool,
    select_ns: u64,
}

impl SchedulingPolicy for Clocked {
    fn score(&mut self, job: &Job, ctx: &PolicyContext) -> f64 {
        self.inner.score(job, ctx)
    }

    fn select(&mut self, queue: &[usize], jobs: &[Job], ctx: &PolicyContext) -> usize {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_nanos();
        self.gaps_ns.push(gap.min(u32::MAX as u128) as u32);
        self.last = now;
        let pos = self.inner.select(queue, jobs, ctx);
        if self.inside {
            self.select_ns += now.elapsed().as_nanos() as u64;
        }
        pos
    }

    fn on_start(&mut self, job: &Job, now: f64) {
        self.inner.on_start(job, now)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The frozen inspector's hook, clocked in traced passes.
struct ClockedHook<'a> {
    inner: inspector::DeployedHook<'a>,
    on: bool,
    ns: u64,
}

impl InspectorHook for ClockedHook<'_> {
    fn inspect(&mut self, obs: &Observation) -> bool {
        if !self.on {
            return self.inner.inspect(obs);
        }
        let t = Instant::now();
        let reject = self.inner.inspect(obs);
        self.ns += t.elapsed().as_nanos() as u64;
        reject
    }
}

/// Order-sensitive digest of everything a replay produced.
pub fn digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for o in &r.outcomes {
        mix(o.id);
        mix(o.submit.to_bits());
        mix(o.start.to_bits());
        mix(o.end.to_bits());
        mix(o.runtime.to_bits());
        mix(o.procs as u64);
        mix(o.backfilled as u64);
        mix(o.rejections as u64);
    }
    mix(r.total_procs as u64);
    mix(r.inspections);
    mix(r.rejections);
    h
}

struct World {
    trace: JobTrace,
    tenants: Vec<TenantRange>,
    windows: Vec<Vec<Job>>,
    inspector: SchedInspector,
    slurm: PolicyFactory,
}

impl World {
    fn load(spec: &RunSpec) -> Result<World, String> {
        spec.prepare_inputs()?;
        let (trace, tenants) = gen::load_scenario(&spec.inputs.join(SCENARIO_FILE))?;
        let windows = (0..trace.len())
            .step_by(WINDOW)
            .map(|start| trace.sequence(start, WINDOW))
            .collect();
        let inspector = gen::frozen_inspector(&trace);
        let slurm = inspector::slurm_factory(&trace);
        Ok(World {
            trace,
            tenants,
            windows,
            inspector,
            slurm,
        })
    }

    fn policy(&self, base: Base) -> Box<dyn SchedulingPolicy + Send> {
        match base {
            Base::SjfBackfill => PolicyKind::Sjf.build(),
            Base::F1 => PolicyKind::F1.build(),
            Base::Slurm => (self.slurm)(),
        }
    }

    fn simulator(&self, base: Base) -> Simulator {
        let config = match base {
            Base::SjfBackfill => SimConfig::with_backfill(),
            Base::F1 | Base::Slurm => SimConfig::default(),
        };
        Simulator::new(self.trace.procs, config)
    }
}

/// What one unit of one pass measured.
struct UnitRun {
    secs: f64,
    digest: u64,
    inspections: u64,
    rejections: u64,
    gaps_ns: Vec<u32>,
}

/// Replay one unit. `traced` turns on the clocks inside `select` and
/// `inspect`; an untraced unit records its spans into a recorder nobody
/// reads.
fn run_unit(
    world: &World,
    window: &[Job],
    (base, inspected): (Base, bool),
    traced: bool,
    spans: &mut Spans,
) -> UnitRun {
    let sim = world.simulator(base);
    let mut hook = ClockedHook {
        inner: world.inspector.hook(),
        on: traced,
        ns: 0,
    };
    let replay = spans.enter("simhpc.replay");
    let t = Instant::now();
    let mut policy = Clocked {
        inner: world.policy(base),
        last: t,
        gaps_ns: Vec::with_capacity(window.len()),
        inside: traced,
        select_ns: 0,
    };
    let result = if inspected {
        sim.run_inspected(window, &mut policy, &mut hook)
    } else {
        sim.run(window, &mut policy)
    };
    spans.child("policies.select", policy.select_ns);
    spans.child("core.inspect", hook.ns);
    spans.exit(replay);
    let fairness = spans.enter("scenario.fairness");
    let report = FairnessReport::from_sim("flash-crowd", &result, window, &world.tenants);
    std::hint::black_box(&report);
    spans.exit(fairness);
    UnitRun {
        secs: t.elapsed().as_secs_f64(),
        digest: digest(&result),
        inspections: result.inspections,
        rejections: result.rejections,
        gaps_ns: policy.gaps_ns,
    }
}

/// The trace's first jobs under SJF + backfill with the frozen inspector
/// must come out of the optimized simulator exactly as they come out of
/// the reference simulator.
fn matches_reference(world: &World) -> bool {
    let window = &world.trace.sequence(0, REFERENCE_PREFIX);
    let config = SimConfig::with_backfill();
    let fast = Simulator::new(world.trace.procs, config).run_inspected(
        window,
        PolicyKind::Sjf.build().as_mut(),
        &mut world.inspector.hook(),
    );
    let reference = testkit::reference_simulate(
        window,
        world.trace.procs,
        &config,
        PolicyKind::Sjf.build().as_mut(),
        &mut world.inspector.hook(),
    );
    fast == reference
}

pub fn run(spec: &RunSpec, spans: &mut Spans) -> Result<Outcome, String> {
    let (setups, world) = Setups::before(|| World::load(spec))?;
    let mut out = Outcome::default();
    let units: Vec<(usize, (Base, bool))> = CONFIGS
        .iter()
        .flat_map(|c| (0..world.windows.len()).map(move |w| (w, *c)))
        .collect();
    let jobs_per_pass: usize = units.iter().map(|(w, _)| world.windows[*w].len()).sum();

    // Warm-up: the first window under every configuration.
    let mut unread = Spans::new();
    for c in CONFIGS {
        run_unit(&world, &world.windows[0], c, false, &mut unread);
    }

    // Per unit: the digest every repeat must reproduce, and its best
    // untraced repeat so far (seconds, scheduling-point gaps).
    let mut digests: Vec<Option<u64>> = vec![None; units.len()];
    let mut best_unit: Vec<Option<(f64, Vec<u32>)>> = vec![None; units.len()];
    let mut rates = Vec::new();
    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    let (mut inspections, mut rejections) = (0u64, 0u64);
    let start = Instant::now();
    let mut passes = 0usize;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < spec.seconds {
        let traced = spec.traced && passes % 2 == 1;
        let round = traced.then(|| spans.enter("spine.round"));
        let mut pass_secs = 0.0;
        (inspections, rejections) = (0, 0);
        for (k, (w, config)) in units.iter().enumerate() {
            let sink = if traced { &mut *spans } else { &mut unread };
            let u = run_unit(&world, &world.windows[*w], *config, traced, sink);
            out.attempted += 1;
            if *digests[k].get_or_insert(u.digest) != u.digest {
                out.failed += 1;
            }
            inspections += u.inspections;
            rejections += u.rejections;
            pass_secs += u.secs;
            if !traced && best_unit[k].as_ref().is_none_or(|(secs, _)| u.secs < *secs) {
                best_unit[k] = Some((u.secs, u.gaps_ns));
            }
        }
        if let Some(id) = round {
            spans.exit(id);
            traced_secs.push(pass_secs);
        } else {
            rates.push(jobs_per_pass as f64 / pass_secs);
            untraced_secs.push(pass_secs);
        }
        passes += 1;
    }

    out.attempted += 1;
    let reference_ok = matches_reference(&world);
    out.failed += u64::from(!reference_ok);
    out.check(
        format!("first {REFERENCE_PREFIX} jobs equal testkit::reference_simulate"),
        reference_ok,
    );

    // A unit's time is its best repeat; the pass time is their sum, and
    // the scheduling-point gaps are those of the best repeats. A stretch
    // of interference hits different units in different passes, so it
    // drops out.
    let best_pass: f64 = best_unit.iter().flatten().map(|(secs, _)| secs).sum();
    let mut gaps: Vec<u64> = best_unit
        .iter()
        .flatten()
        .flat_map(|(_, gaps)| gaps.iter().map(|g| *g as u64))
        .collect();
    gaps.sort_unstable();
    out.note(format!(
        "{passes} passes of {} replays ({} windows of {WINDOW} jobs x {} configurations), {jobs_per_pass} jobs each",
        units.len(),
        world.windows.len(),
        CONFIGS.len()
    ));
    out.note(format!(
        "jobs/s: best repeat of every unit {:.0}, median pass {:.0}; {} scheduling points",
        jobs_per_pass as f64 / best_pass,
        jobs_per_pass as f64 / median(&untraced_secs),
        gaps.len()
    ));
    out.set_sampled(WORK_PER_S, jobs_per_pass as f64 / best_pass, rates);
    out.set(LAT_P50_US, percentile(&gaps, 50.0) as f64 / 1e3);
    out.set(PEAK_RSS_MB, peak_rss_mb());

    if spec.traced {
        let per_pass = |name: &str| spans.total_s(name) / traced_secs.len().max(1) as f64;
        let me = spans.self_ns();
        let replay_self = me.get("simhpc.replay").copied().unwrap_or(0) as f64 * 1e-9
            / traced_secs.len().max(1) as f64;
        out.set("simhpc.replay_s", replay_self);
        out.set("policies.select_s", per_pass("policies.select"));
        out.set("core.inspect_s", per_pass("core.inspect"));
        out.set("scenario.fairness_s", per_pass("scenario.fairness"));
        out.set("simhpc.jobs", jobs_per_pass as f64);
        out.set("simhpc.inspections", inspections as f64);
        out.set("simhpc.rejections", rejections as f64);
        out.set(
            "simhpc.inspections_per_s",
            inspections as f64 / median(&traced_secs),
        );
        out.set("simhpc.point_p90_us", percentile(&gaps, 90.0) as f64 / 1e3);
        out.set(
            "spine.trace_overhead",
            best(&traced_secs) / best(&untraced_secs),
        );
        out.set(
            "spine.unattributed_share",
            spans.unattributed_share("spine.round"),
        );
        probes::scenario_and_swf(&mut out, spec.seed)?;
        probes::policy_select(&mut out);
        probes::features(&mut out, &world.trace);
    }
    drop(world);
    setups.after(&mut out, || World::load(spec))?;
    Ok(out)
}
