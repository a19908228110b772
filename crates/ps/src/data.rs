//! Data serving (§5.1): HDFS-style chunk store and worker assignment.
//!
//! Training data live in an HDFS-like store with a fixed chunk size
//! (128 MB default) and a replication factor (2 default). At job start,
//! chunks are dealt round-robin so every worker holds a near-equal
//! count; when elastic scaling changes the worker count, chunks are
//! reassigned with minimal movement while restoring balance.

use serde::{Deserialize, Serialize};

/// Default HDFS chunk size (bytes).
pub const DEFAULT_CHUNK_BYTES: u64 = 128 * 1024 * 1024;

/// Default replication factor.
pub const DEFAULT_REPLICATION: u32 = 2;

/// A dataset stored as equal-size chunks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkedDataset {
    /// Total dataset size in bytes.
    pub total_bytes: u64,
    /// Chunk size in bytes.
    pub chunk_bytes: u64,
    /// Replication factor (for durability accounting only).
    pub replication: u32,
}

impl ChunkedDataset {
    /// Creates a dataset with the paper's defaults (128 MB chunks,
    /// replication 2).
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes == 0`.
    pub fn new(total_bytes: u64) -> Self {
        assert!(total_bytes > 0, "dataset must be non-empty");
        ChunkedDataset {
            total_bytes,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            replication: DEFAULT_REPLICATION,
        }
    }

    /// Overrides the chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0`.
    pub fn with_chunk_bytes(mut self, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0);
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Number of chunks (last chunk may be partial).
    pub fn num_chunks(&self) -> u64 {
        self.total_bytes.div_ceil(self.chunk_bytes)
    }

    /// Bytes stored including replication.
    pub fn stored_bytes(&self) -> u64 {
        self.total_bytes * self.replication as u64
    }

    /// Chunks that change workers when a balanced assignment over
    /// `from` workers is rebalanced onto `to` — what
    /// [`ChunkAssignment::rebalance`] returns, without holding the
    /// chunk ids. Both [`ChunkAssignment::round_robin`] and every
    /// rebalance leave worker `w` of `n` holding ⌊T/n⌋ + [w < T mod n]
    /// of the T chunks, and a rebalance moves exactly each worker's
    /// surplus over its new target (every chunk of a removed worker).
    ///
    /// # Panics
    ///
    /// Panics if `from == 0` or `to == 0`.
    pub fn rebalance_moves(&self, from: usize, to: usize) -> usize {
        assert!(from > 0 && to > 0, "need at least one worker");
        let total = self.num_chunks();
        let held = |w: usize, n: usize| total / n as u64 + u64::from((w as u64) < total % n as u64);
        (0..from)
            .map(|w| {
                let target = if w < to { held(w, to) } else { 0 };
                held(w, from).saturating_sub(target) as usize
            })
            .sum()
    }
}

/// An assignment of chunk indices to workers. The simulator keeps only
/// the worker count and counts moves with
/// [`ChunkedDataset::rebalance_moves`]; this type, which holds the ids,
/// is that count's oracle (`tests/chunk_rebalance.rs`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkAssignment {
    /// `chunks[w]` = chunk indices held by worker `w`.
    chunks: Vec<Vec<u64>>,
}

impl ChunkAssignment {
    /// Deals all chunks round-robin over `workers` workers (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn round_robin(dataset: &ChunkedDataset, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let mut chunks = vec![Vec::new(); workers];
        for c in 0..dataset.num_chunks() {
            chunks[(c % workers as u64) as usize].push(c);
        }
        ChunkAssignment { chunks }
    }

    /// Number of workers in this assignment.
    pub fn num_workers(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk indices held by worker `w`.
    pub fn worker_chunks(&self, w: usize) -> &[u64] {
        &self.chunks[w]
    }

    /// Per-worker chunk counts.
    pub fn counts(&self) -> Vec<usize> {
        self.chunks.iter().map(|c| c.len()).collect()
    }

    /// Max − min chunks across workers (0 or 1 when balanced).
    pub fn imbalance(&self) -> usize {
        let counts = self.counts();
        let max = counts.iter().cloned().max().unwrap_or(0);
        let min = counts.iter().cloned().min().unwrap_or(0);
        max - min
    }

    /// Rebalances onto `new_workers` workers, moving as few chunks as
    /// possible (§5.1: "when the number of workers changes ... we
    /// reassign the data chunks so that the workload on each worker is
    /// still balanced").
    ///
    /// Returns the number of chunks that changed workers.
    ///
    /// # Panics
    ///
    /// Panics if `new_workers == 0`.
    pub fn rebalance(&mut self, new_workers: usize) -> usize {
        assert!(new_workers > 0, "need at least one worker");
        let total: usize = self.chunks.iter().map(|c| c.len()).sum();
        let base = total / new_workers;
        let extra = total % new_workers; // first `extra` workers get base+1

        let target = |w: usize| base + usize::from(w < extra);

        // Shrink or grow the worker list.
        let mut pool: Vec<u64> = Vec::new();
        if new_workers < self.chunks.len() {
            for removed in self.chunks.drain(new_workers..) {
                pool.extend(removed);
            }
        } else {
            self.chunks.resize(new_workers, Vec::new());
        }

        // Take surplus chunks from over-target workers.
        for (w, held) in self.chunks.iter_mut().enumerate() {
            let t = target(w);
            while held.len() > t {
                pool.push(held.pop().expect("len > t ≥ 0"));
            }
        }
        let moved = pool.len();
        // Deal the pool to under-target workers.
        for (w, held) in self.chunks.iter_mut().enumerate() {
            let t = target(w);
            while held.len() < t {
                held.push(pool.pop().expect("pool holds exactly the deficit"));
            }
        }
        debug_assert!(pool.is_empty());
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(chunks: u64) -> ChunkedDataset {
        ChunkedDataset::new(chunks * DEFAULT_CHUNK_BYTES)
    }

    #[test]
    fn chunk_count_rounds_up() {
        let d = ChunkedDataset::new(DEFAULT_CHUNK_BYTES + 1);
        assert_eq!(d.num_chunks(), 2);
        assert_eq!(dataset(10).num_chunks(), 10);
    }

    #[test]
    fn replication_accounting() {
        let d = dataset(4);
        assert_eq!(d.stored_bytes(), 2 * d.total_bytes);
    }

    #[test]
    fn round_robin_is_balanced() {
        let a = ChunkAssignment::round_robin(&dataset(10), 3);
        assert_eq!(a.counts(), vec![4, 3, 3]);
        assert!(a.imbalance() <= 1);
        // Every chunk appears exactly once.
        let mut all: Vec<u64> = (0..3).flat_map(|w| a.worker_chunks(w).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rebalance_preserves_chunks_and_balance() {
        let d = dataset(20);
        let mut a = ChunkAssignment::round_robin(&d, 4);
        for target in [7usize, 2, 5, 1, 6] {
            a.rebalance(target);
            assert_eq!(a.num_workers(), target);
            assert!(a.imbalance() <= 1, "imbalance after rebalance to {target}");
            let mut all: Vec<u64> = (0..target)
                .flat_map(|w| a.worker_chunks(w).to_vec())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..20).collect::<Vec<_>>(), "chunks conserved");
        }
    }

    #[test]
    fn rebalance_moves_minimum_when_growing() {
        let d = dataset(12);
        let mut a = ChunkAssignment::round_robin(&d, 3); // 4,4,4
        let moved = a.rebalance(4); // target 3,3,3,3 → exactly 3 moves
        assert_eq!(moved, 3);
    }

    #[test]
    fn rebalance_noop_when_already_balanced() {
        let d = dataset(8);
        let mut a = ChunkAssignment::round_robin(&d, 4);
        let moved = a.rebalance(4);
        assert_eq!(moved, 0);
    }

    #[test]
    fn rebalance_moves_counts_without_chunk_ids() {
        let d = dataset(12);
        assert_eq!(d.rebalance_moves(3, 4), 3); // 4,4,4 → 3,3,3,3
        assert_eq!(d.rebalance_moves(4, 4), 0);
        assert_eq!(d.rebalance_moves(1, 5), 12 - 3); // worker 0 keeps 3
        assert_eq!(d.rebalance_moves(5, 1), 12 - 3); // 3,3,2,2,2 → 12
    }

    #[test]
    fn scale_down_collects_orphans() {
        let d = dataset(9);
        let mut a = ChunkAssignment::round_robin(&d, 3); // 3,3,3
        let moved = a.rebalance(2); // 5,4 — the 3 orphans move
        assert!(moved >= 3);
        assert_eq!(a.counts().iter().sum::<usize>(), 9);
    }
}
