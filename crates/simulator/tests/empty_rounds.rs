//! Proof that a scheduling round with nothing live allocates nothing.
//!
//! A `#[global_allocator]` shim counts every `alloc`/`realloc`/
//! `alloc_zeroed`. Two runs differ only in their time cap: one job
//! runs to completion early, and a second job submitted after either
//! cap stays pending, so both runs continue to their cap through
//! rounds with an empty live list. The longer run executes thousands
//! more of those rounds and must touch the allocator exactly as often
//! as the shorter one.
//!
//! The file intentionally holds a single test: the counter is global,
//! and a sibling test running concurrently would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use optimus_cluster::Cluster;
use optimus_core::prelude::*;
use optimus_simulator::{SimConfig, SimEngine, Simulation};
use optimus_workload::{JobId, JobSpec, ModelKind, TrainingMode};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const INTERVAL_S: f64 = 120.0;

/// Heap allocations of one whole run (construction included) capped at
/// `max_time_s`.
fn run_allocations(max_time_s: f64) -> u64 {
    let specs = vec![
        JobSpec::new(
            JobId(0),
            ModelKind::CnnRand,
            TrainingMode::Synchronous,
            0.03,
        )
        .scaled(0.3),
        JobSpec::new(
            JobId(1),
            ModelKind::CnnRand,
            TrainingMode::Synchronous,
            0.03,
        )
        .at(1e9),
    ];
    let cfg = SimConfig {
        interval_s: INTERVAL_S,
        max_time_s,
        // One timeline sample at t = 0: the samples' own buffer growth
        // would otherwise differ with the run length.
        sample_every_s: 1e12,
        engine: SimEngine::Event,
        batched_refit: true,
        delta_rounds: true,
        refit_threads: None,
        ..SimConfig::default()
    };
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs,
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    let report = sim.run();
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(report.jct.len(), 1, "the first job finishes before the cap");
    assert_eq!(report.unfinished_jobs, 1, "the second job never arrives");
    drop(report);
    after - before
}

#[test]
fn rounds_with_nothing_live_allocate_nothing() {
    // The first job finishes within a few thousand seconds; after that
    // every round has an empty live list.
    let short = run_allocations(200.0 * INTERVAL_S);
    let long = run_allocations(5_000.0 * INTERVAL_S);
    assert_eq!(
        short,
        long,
        "4800 extra empty rounds allocated {} times",
        long as i64 - short as i64
    );
}
