//! `ChunkedDataset::rebalance_moves` against its oracle,
//! `ChunkAssignment::rebalance`: the simulator counts the chunks each
//! worker-count change moves without holding any chunk ids, so the
//! count must equal what the assignment that does hold them reports,
//! on every transition of every worker-count sequence.

use optimus_ps::data::{ChunkAssignment, ChunkedDataset};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rebalance_moves_match_the_assignment(
        chunks in 1u64..5_000,
        start in 1usize..64,
        workers in prop::collection::vec(1usize..64, 1..48),
    ) {
        let dataset = ChunkedDataset::new(chunks).with_chunk_bytes(1);
        let mut assignment = ChunkAssignment::round_robin(&dataset, start);
        let mut from = start;
        for to in workers {
            let moved = assignment.rebalance(to);
            prop_assert_eq!(
                dataset.rebalance_moves(from, to),
                moved,
                "{} chunks, {} -> {} workers",
                chunks,
                from,
                to
            );
            from = to;
        }
    }
}
