//! Proof that a scheduling round with nothing live allocates nothing,
//! and that a busy round's allocator calls do not grow with history.
//!
//! A `#[global_allocator]` shim counts every `alloc`/`realloc`/
//! `alloc_zeroed`. Two runs differ only in their time cap: one job
//! runs to completion early, and a second job submitted after either
//! cap stays pending, so both runs continue to their cap through
//! rounds with an empty live list. The longer run executes thousands
//! more of those rounds and must touch the allocator exactly as often
//! as the shorter one.
//!
//! Busy rounds allocate (views clone speed models, refits collect
//! results), but a fixed number of times: two long jobs run through
//! round 400, and the calls per round over rounds 200–400 may not
//! exceed those over rounds 100–200. A speed refit that materialized
//! its sample history would make the count grow with it.
//!
//! The counter is per thread, because the test harness's own threads
//! allocate concurrently (its bookkeeping for the test thread it just
//! spawned, for instance) at timing-dependent moments. The simulation
//! runs on the test thread — one live job never fans refits out — so
//! every allocation it makes is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use optimus_cluster::Cluster;
use optimus_core::prelude::*;
use optimus_simulator::{SimConfig, Simulation};
use optimus_workload::{JobId, JobSpec, ModelKind, TrainingMode};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread. Const-initialized with no
    /// destructor, so reading it never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
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
        refit_threads: None,
        ..SimConfig::default()
    };
    let before = ALLOC_CALLS.with(Cell::get);
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs,
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    let report = sim.run();
    let after = ALLOC_CALLS.with(Cell::get);
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

/// Heap allocations of a run of two long jobs (one per training mode),
/// capped just past round `rounds`, on one refit thread.
fn busy_run_allocations(rounds: u32) -> u64 {
    let long = |id, model, mode| JobSpec::new(JobId(id), model, mode, 0.001).scaled(5.0);
    let specs = vec![
        long(0, ModelKind::ResNet50, TrainingMode::Synchronous),
        long(1, ModelKind::Seq2Seq, TrainingMode::Asynchronous),
    ];
    let cfg = SimConfig {
        interval_s: BUSY_INTERVAL_S,
        max_time_s: rounds as f64 * BUSY_INTERVAL_S + 1.0,
        sample_every_s: 1e12,
        refit_threads: Some(1),
        ..SimConfig::default()
    };
    let before = ALLOC_CALLS.with(Cell::get);
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs,
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    let report = sim.run();
    let after = ALLOC_CALLS.with(Cell::get);
    assert_eq!(report.unfinished_jobs, 2, "both jobs run past the cap");
    drop(report);
    after - before
}

const BUSY_INTERVAL_S: f64 = 60.0;

#[test]
fn busy_round_allocations_do_not_grow_with_history() {
    let [r100, r200, r400] = [100, 200, 400].map(busy_run_allocations);
    let early = (r200 - r100) as f64 / 100.0;
    let late = (r400 - r200) as f64 / 200.0;
    // One call of slack per round covers amortized `Vec` doubling.
    assert!(
        late <= early + 1.0,
        "allocator calls per busy round grew from {early} (rounds 100-200) to {late} (200-400)"
    );
}
