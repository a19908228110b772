//! Proof that a run holds sample histories only for its live jobs: a
//! finished job retires them (`SimJob::retire`), so the bytes still
//! live when `run` returns grow with the number of jobs, not with how
//! long each job ran.
//!
//! A `#[global_allocator]` shim keeps each thread's live bytes: bytes
//! allocated minus bytes freed (a `realloc` counts the size change).
//! Two properties are checked on the bytes a run leaves live (the
//! `Simulation` and its `SimReport`):
//!
//! - the same jobs run eight times longer, so each records about eight
//!   times the loss samples, and the retained bytes may not grow by
//!   more than `SLACK_BYTES`;
//! - from N to 4N jobs run one after another, the retained bytes may
//!   grow by at most `PER_JOB_BYTES` per added job.
//!
//! Both runs of each pair record more loss samples per job than the
//! estimator's 400-point cap, so the refit scratch, which grows to the
//! longest solver input seen, ends the same size in both.
//!
//! The counter is per thread, because the test harness's own threads
//! allocate concurrently at timing-dependent moments. The simulation
//! runs on the test thread (one refit thread, so refits run inline),
//! so everything it allocates or frees is counted there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use optimus_cluster::Cluster;
use optimus_core::prelude::*;
use optimus_simulator::{SimConfig, Simulation};
use optimus_workload::{JobId, JobSpec, ModelKind, TrainingMode};

struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed.
    /// Const-initialized with no destructor, so reading it never
    /// allocates.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    LIVE_BYTES.with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What a run left behind.
struct Retained {
    /// Bytes live after `run` returned, with the simulation and its
    /// report still held.
    bytes: i64,
    /// Seconds the jobs held tasks, summed: a loss sample arrives every
    /// `loss_sample_every_s` (5 s) of it.
    run_s: f64,
    /// Whether each job started only after the previous one finished.
    one_at_a_time: bool,
}

/// Runs `specs` to completion on one refit thread and measures what
/// stays live.
fn retained(specs: Vec<JobSpec>) -> Retained {
    let jobs = specs.len();
    let cfg = SimConfig {
        // One timeline sample at t = 0, so the timeline does not grow
        // with the run's length.
        sample_every_s: 1e12,
        max_time_s: 1e9,
        refit_threads: Some(1),
        ..SimConfig::default()
    };
    let before = LIVE_BYTES.with(Cell::get);
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs,
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    let report = sim.run();
    let bytes = LIVE_BYTES.with(Cell::get) - before;
    assert_eq!(report.jct.len(), jobs, "every job finishes");
    let done = sim.jobs();
    let retained = Retained {
        bytes,
        run_s: done.iter().map(|j| j.jct.run_s).sum(),
        one_at_a_time: done
            .windows(2)
            .all(|w| w[0].finish_time.is_some_and(|f| f <= w[1].spec.submit_time)),
    };
    drop((report, sim));
    retained
}

/// `n` CNN-rand jobs of dataset scale `scale`, submitted `gap_s` apart.
fn jobs(n: u64, scale: f64, gap_s: f64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                ModelKind::CnnRand,
                TrainingMode::Synchronous,
                0.03,
            )
            .scaled(scale)
            .at(i as f64 * gap_s)
        })
        .collect()
}

/// Allowed growth of the retained bytes when the same jobs run longer.
/// The scheduler's caches are sized by its grants, which differ between
/// the two runs (they moved the total by up to about 900 bytes when
/// this was written); one long job's loss history alone is about
/// 270 KB.
const SLACK_BYTES: i64 = 4096;

/// Allowed growth of the retained bytes per added job: the job's own
/// state and its report rows (about 1.4 KB when this was written). A
/// retained history would add its loss samples (16 bytes each, about
/// 1,100 per job here) and the fit session's copy of the solver points.
const PER_JOB_BYTES: i64 = 4096;

#[test]
fn retained_bytes_do_not_grow_with_history() {
    let short = retained(jobs(4, 2.0, 0.0));
    let long = retained(jobs(4, 16.0, 0.0));
    assert!(
        long.run_s >= 6.0 * short.run_s,
        "the long jobs ran {} s against {} s",
        long.run_s,
        short.run_s
    );
    assert!(
        long.bytes <= short.bytes + SLACK_BYTES,
        "jobs that ran {:.1}x longer left {} B live against {} B",
        long.run_s / short.run_s,
        long.bytes,
        short.bytes
    );
}

#[test]
fn retained_bytes_grow_by_a_constant_per_job() {
    // A job of this scale runs about 5,700 s on the idle testbed.
    let gap_s = 20_000.0;
    let few = retained(jobs(4, 4.0, gap_s));
    let many = retained(jobs(16, 4.0, gap_s));
    assert!(few.one_at_a_time && many.one_at_a_time);
    let per_job = (many.bytes - few.bytes) / 12;
    assert!(
        per_job <= PER_JOB_BYTES,
        "each added job left {per_job} B live ({} B for 4 jobs, {} B for 16)",
        few.bytes,
        many.bytes
    );
}
