//! A PPO update allocates a fixed number of buffers — the packed batch, the
//! advantages, two block tapes, the critic thread — however many steps the
//! batch holds: nothing in the per-step or per-pass path touches the heap.
//!
//! A single `#[test]` lives in this binary so the global allocation counter
//! is never shared between concurrently running tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rlcore::{Batch, PpoConfig, PpoTrainer, Step, Trajectory};

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

/// `steps` decisions in trajectories of 50, sampled from the trainer's policy.
fn batch(trainer: &PpoTrainer, steps: usize, rng: &mut StdRng) -> Batch {
    let steps: Vec<Step> = (0..steps)
        .map(|_| {
            let state: Vec<f32> = (0..7).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
            let (action, logp) = trainer.policy.sample(&state, rng);
            Step {
                state,
                action,
                logp,
            }
        })
        .collect();
    Batch {
        trajectories: steps
            .chunks(50)
            .enumerate()
            .map(|(i, steps)| Trajectory {
                steps: steps.to_vec(),
                reward: (i % 5) as f32 - 2.0,
            })
            .collect(),
    }
}

#[test]
fn allocations_per_update_do_not_grow_with_the_batch() {
    let mut trainer = PpoTrainer::new(7, PpoConfig::default(), 3);
    let mut rng = StdRng::seed_from_u64(5);
    // From just over one block to more than sixty.
    let batches = [100usize, 1000, 4000].map(|steps| batch(&trainer, steps, &mut rng));
    // The first update pays for one-time lazy state (thread bookkeeping).
    trainer.update(&batches[0]);

    let counts = batches.each_ref().map(|batch| {
        count_allocs(|| {
            trainer.update(batch);
        })
    });
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations grew with the batch: {counts:?} for 100 / 1000 / 4000 steps"
    );
    // Around fifty today; twenty passes over 100 steps at five to seven
    // allocations per step, as it once was, would be ten thousand.
    assert!(counts[0] < 100, "an update made {} allocations", counts[0]);
}
