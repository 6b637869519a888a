//! The policies that keep state across scheduling points (F1's score
//! memo; Slurm's term memo and per-user accounting slots) size it on the
//! first `select` of a run and never again: four times the jobs means
//! four times the scheduling points, and must not mean more allocations
//! beyond the simulator's own amortized growth.
//!
//! A single `#[test]` lives in this binary so the global allocation counter
//! is never shared between concurrently running tests (the pattern of
//! `simhpc/tests/alloc_steady_state.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use policies::{SlurmMultifactor, F1};
use simhpc::{SchedulingPolicy, SimConfig, Simulator};
use workload::{Job, JobTrace};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// The congested-but-stable workload of the simulator's own check, spread
/// over 40 users and 3 queues: the queue depth settles early, so extra
/// jobs only exercise the steady state.
fn jobs(n: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let (rt, procs) = match i % 4 {
                0 => (900.0, 4),
                1 => (120.0, 1),
                2 => (300.0, 2),
                _ => (600.0, 1),
            };
            Job {
                user: (i % 40) as u32,
                queue: (i % 3) as u32,
                ..Job::new(i + 1, i as f64 * 140.0, rt, rt * 1.5, procs)
            }
        })
        .collect()
}

/// Four times the jobs, started from a fresh clone of `policy` each.
fn assert_steady<P: SchedulingPolicy + Clone>(policy: &P) {
    let small = jobs(500);
    let large = jobs(2_000);
    for config in [SimConfig::default(), SimConfig::with_backfill()] {
        let sim = Simulator::new(8, config);
        let (mut for_small, mut for_large) = (policy.clone(), policy.clone());
        let a_small = count_allocs(|| {
            sim.run(&small, &mut for_small);
        });
        let a_large = count_allocs(|| {
            sim.run(&large, &mut for_large);
        });
        // Allowed on top of identical warm-up: the outcomes vector's
        // amortized doubling, as in the simulator's own check. The
        // policy's vectors are one allocation each at either size.
        let extra = a_large.saturating_sub(a_small);
        assert!(
            extra <= 16,
            "{}, backfill={}: {a_small} allocs for 500 jobs vs {a_large} for 2000 \
             ({extra} extra) — select is allocating per scheduling point",
            policy.name(),
            config.backfill,
        );

        // A second run over the same jobs finds everything sized.
        let again = count_allocs(|| {
            sim.run(&large, &mut for_large);
        });
        assert!(
            again <= a_large,
            "{}, backfill={}: re-running allocated more ({again} > {a_large})",
            policy.name(),
            config.backfill,
        );
    }
}

#[test]
fn stateful_policies_do_not_allocate_per_scheduling_point() {
    assert_steady(&F1::default());
    // Half the users are unknown to the share trace.
    let known: Vec<Job> = jobs(2_000).into_iter().filter(|j| j.user < 20).collect();
    let shares = JobTrace::new("shares", 8, known).expect("valid share trace");
    assert_steady(&SlurmMultifactor::from_trace(&shares));
}
