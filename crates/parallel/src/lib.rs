//! Deterministic order-indexed parallel runners.
//!
//! `run_indexed` fans the experiment sweeps in `optimus-bench` across
//! threads; `run_chunks_mut` fans the batched fitting engine's lane
//! groups. `optimus-bench` depends on `optimus-simulator`, so the
//! runners live here at the bottom of the dependency graph.
//!
//! All runners share one contract: results land **in input order**, so
//! the output is deterministic whenever the worker closure is — thread
//! count and scheduling jitter can change wall-clock, never results.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count for parallel sections: the `OPTIMUS_THREADS`
/// environment variable when set (and ≥ 1), else the machine's
/// available parallelism.
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var("OPTIMUS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Fans `f(i, &cells[i])` across `threads` worker threads and returns
/// the results **in input order** regardless of which worker computed
/// which cell or in what sequence they finished.
///
/// Work distribution is a shared atomic cursor (work-stealing, no
/// barriers): an idle worker immediately claims the next unclaimed
/// cell, so wall-clock is bounded by the slowest single cell plus an
/// even share of the rest — near-linear speedup for grids whose cells
/// dwarf thread-spawn cost (every simulation sweep qualifies). Each
/// result lands in the slot of its input index, which makes the output
/// deterministic whenever `f` itself is (all simulator cells are:
/// seeded RNG, no shared mutable state).
///
/// `threads <= 1` (or trivially small inputs) runs serially on the
/// caller's thread with no synchronization at all.
pub fn run_indexed<T, R, F>(cells: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(cells.len());
    if threads <= 1 {
        return cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let r = f(i, &cells[i]);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("every cell was claimed exactly once")
        })
        .collect()
}

/// In-place, chunk-grouped variant of [`run_indexed`] for
/// batch-of-batches work: the slice is first cut into fixed-size groups
/// of `chunk` items (last group possibly short), and
/// `f(g, &mut worker_state, &mut group)` runs once per group with
/// results returned **in group order**.
///
/// `workers` holds one caller-owned state per worker thread (reusable
/// buffers, typically), so its length is the thread count: each worker
/// hands its own state to every group it claims, and the caller keeps
/// the states warm across calls. At most one worker runs per group;
/// one state (or one group) runs serially on the caller's thread. It
/// must not be empty unless `items` is.
///
/// The grouping is a function of the input order and `chunk` alone —
/// never of the worker count — so a worker processing groups
/// `[0..LANES)`, `[LANES..2·LANES)`, … sees exactly the same group
/// boundaries at any thread count. That is what lets the batched
/// fitting engine keep its lane assignment (and therefore its wave
/// schedule) thread-invariant; the usual determinism contract then makes
/// the *results* thread-invariant whenever `f` is deterministic per
/// group whatever state it is handed.
///
/// Workers claim whole groups through an atomic cursor, so uneven group
/// costs (ragged histories) still balance.
pub fn run_chunks_mut<T, S, R, F>(items: &mut [T], chunk: usize, workers: &mut [S], f: F) -> Vec<R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut S, &mut [T]) -> R + Sync,
{
    let chunk = chunk.max(1);
    let groups: Vec<&mut [T]> = items.chunks_mut(chunk).collect();
    let n = groups.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = workers.len().min(n);
    assert!(
        threads > 0,
        "run_chunks_mut needs at least one worker state"
    );
    if threads == 1 {
        let state = &mut workers[0];
        return groups
            .into_iter()
            .enumerate()
            .map(|(g, group)| f(g, state, group))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cells: Vec<Mutex<Option<&mut [T]>>> =
        groups.into_iter().map(|g| Mutex::new(Some(g))).collect();
    std::thread::scope(|scope| {
        for state in &mut workers[..threads] {
            let (cursor, slots, cells, f) = (&cursor, &slots, &cells, &f);
            scope.spawn(move || loop {
                let g = cursor.fetch_add(1, Ordering::Relaxed);
                if g >= n {
                    break;
                }
                let group = cells[g]
                    .lock()
                    .expect("group cell")
                    .take()
                    .expect("every group claimed exactly once");
                *slots[g].lock().expect("result slot") = Some(f(g, state, group));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("every group was visited exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_input_order() {
        let cells: Vec<usize> = (0..37).collect();
        let serial = run_indexed(&cells, 1, |i, &c| (i, c * 2));
        for threads in [2, 4, 8] {
            let parallel = run_indexed(&cells, threads, |i, &c| (i, c * 2));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn available_threads_is_at_least_one() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn run_chunks_mut_groups_are_thread_invariant() {
        let serial = {
            let mut items: Vec<u32> = (0..29).collect();
            run_chunks_mut(&mut items, 8, &mut [()], |g, _, group| (g, group.to_vec()))
        };
        assert_eq!(serial.len(), 4);
        assert_eq!(serial[3].1.len(), 5); // 29 = 3*8 + 5
        for threads in [2, 4, 8] {
            let mut items: Vec<u32> = (0..29).collect();
            let mut claimed = vec![0usize; threads];
            let parallel = run_chunks_mut(&mut items, 8, &mut claimed, |g, claimed, group| {
                *claimed += 1;
                for v in group.iter_mut() {
                    *v += 1000;
                }
                (g, group.iter().map(|&v| v - 1000).collect::<Vec<u32>>())
            });
            assert_eq!(serial, parallel, "threads={threads}");
            assert!(items.iter().all(|&v| v >= 1000), "threads={threads}");
            // Every group ran with exactly one worker's state, and the
            // states beyond the group count were never handed out.
            assert_eq!(claimed.iter().sum::<usize>(), 4, "threads={threads}");
            assert!(claimed[4.min(threads)..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn run_chunks_mut_handles_empty_input() {
        let mut empty: Vec<u32> = Vec::new();
        let no_workers: &mut [()] = &mut [];
        let r = run_chunks_mut(&mut empty, 8, no_workers, |g, _, _| g);
        assert!(r.is_empty());
    }
}
