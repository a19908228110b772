//! Proof that a warm [`fit_batch`] call performs **zero** heap
//! allocations.
//!
//! A `#[global_allocator]` shim counts every `alloc`/`realloc`/
//! `alloc_zeroed` and forwards to the system allocator. For every batch
//! size from one job to a full lane group, a first refit sizes a
//! persistent [`BatchScratch`], the jobs' [`FitSession`]s and the output
//! vector; the test then asserts that each of the next two refits
//! touches the allocator exactly zero times.
//!
//! Scope: the fitter runs with its default, disabled telemetry handle,
//! as the simulator's untraced runs do, on unchanged histories under an
//! honest stable-prefix claim. A history that grows past every length a
//! session has seen may still grow that session's buffers; that is the
//! reuse contract, not a per-wave cost.
//!
//! The file intentionally holds a single test: the counter is global,
//! and a sibling test running concurrently would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use optimus_fitting::preprocess::LossSample;
use optimus_fitting::{fit_batch, BatchFitJob, BatchScratch, FitSession, LossCurveFitter, LANES};

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

/// Job `i`'s loss history: a planted `1/(β₀k + β₁) + β₂` curve with
/// deterministic ±2 % jitter, `n` samples long.
fn history(i: usize, n: usize) -> Vec<LossSample> {
    let mut state = 0x2545_F491_4F6C_DD1Du64 ^ (i as u64 + 1);
    let beta0 = 0.02 + 0.01 * i as f64;
    (0..n)
        .map(|k| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let jitter = 1.0 + ((state % 1000) as f64 / 1000.0 - 0.5) * 0.04;
            (k as u64, (1.0 / (beta0 * k as f64 + 1.0) + 0.2) * jitter)
        })
        .collect()
}

#[test]
fn warm_fit_batch_makes_no_allocator_calls() {
    let fitter = LossCurveFitter::new();
    // Ragged histories up to the simulator's 400-point cap, so groups
    // of two or more pad their shorter lanes.
    let histories: Vec<Vec<LossSample>> = (0..LANES).map(|i| history(i, 400 - 37 * i)).collect();
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    for jobs in 1..=LANES {
        let raws = &histories[..jobs];
        let mut sessions: Vec<FitSession> = (0..jobs).map(|_| FitSession::new()).collect();
        let mut calls = [0u64; 3];
        for (pass, calls) in calls.iter_mut().enumerate() {
            let mut batch: Vec<BatchFitJob<'_>> = raws
                .iter()
                .zip(sessions.iter_mut())
                .map(|(raw, session)| BatchFitJob {
                    fitter: &fitter,
                    raw,
                    stable_prefix: if pass == 0 { 0 } else { raw.len() },
                    session,
                })
                .collect();
            out.clear();
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            fit_batch(&mut batch, &mut scratch, &mut out);
            *calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
            assert!(out.iter().all(Result::is_ok), "{jobs} jobs, pass {pass}");
        }
        assert_eq!(
            calls[1..],
            [0, 0],
            "warm fit_batch of {jobs} jobs made allocator calls (per pass: {calls:?})"
        );
    }
}
