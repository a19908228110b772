//! Determinism contract of the discrete-event calendar.
//!
//! The event engine's total order over events is `(tick, class, seq)`,
//! where `seq` is assigned at scheduling time. Nothing about the order
//! events were *pushed* into the binary heap may leak into the order
//! they *pop* — otherwise replays (and the cross-engine byte-identity
//! proofs in `equivalence.rs`) would depend on incidental heap layout.
//! The proptests here pin that invariant directly on [`EventQueue`].

use optimus_simulator::{EventQueue, ScheduledEvent, SimEventType};
use proptest::prelude::*;

/// An arbitrary event payload (the calendar orders by class, so cover
/// every class, including the two that share class 3).
fn arb_kind() -> impl Strategy<Value = SimEventType> {
    prop_oneof![
        Just(SimEventType::ServerFailure),
        Just(SimEventType::SchedulingRound),
        Just(SimEventType::TimelineSample),
        Just(SimEventType::ProgressWave),
        (0usize..8, 0.0f64..1e6)
            .prop_map(|(job, finish)| SimEventType::JobCompletion { job, finish }),
    ]
}

/// A batch of events with ticks drawn from a small range so same-tick
/// (and same-class) collisions are common, plus a permutation seed.
fn arb_batch() -> impl Strategy<Value = (Vec<(u64, SimEventType)>, u64)> {
    (
        prop::collection::vec((0u64..16, arb_kind()), 1..64),
        any::<u64>(),
    )
}

/// Keys events by their full identity so two pops can be compared even
/// when payloads collide.
fn drain(q: &mut EventQueue) -> Vec<(u64, u8, u64)> {
    std::iter::from_fn(|| q.pop())
        .map(|e| (e.tick, e.class, e.seq))
        .collect()
}

proptest! {
    /// Pop order is a pure function of the scheduled set: pushing the
    /// same already-keyed events in any permutation drains in the same
    /// `(tick, class, seq)` order.
    #[test]
    fn pop_order_is_invariant_under_insertion_order((batch, perm_seed) in arb_batch()) {
        // Schedule once in program order to assign the canonical seqs.
        let mut canonical = EventQueue::new();
        for &(tick, kind) in &batch {
            canonical.schedule(tick, kind);
        }
        let mut keyed: Vec<ScheduledEvent> = Vec::new();
        {
            // Rebuild the keyed events by re-scheduling: seq ids are
            // deterministic (0, 1, 2, ...), so reconstruct them.
            for (seq, &(tick, kind)) in batch.iter().enumerate() {
                keyed.push(ScheduledEvent {
                    tick,
                    class: kind.class(),
                    seq: seq as u64,
                    kind,
                });
            }
        }
        let expected = drain(&mut canonical);

        // A cheap deterministic shuffle of the keyed events.
        let mut shuffled = keyed.clone();
        let mut state = perm_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }

        let mut permuted = EventQueue::new();
        for ev in shuffled {
            permuted.push(ev);
        }
        prop_assert_eq!(drain(&mut permuted), expected);
    }

    /// Interleaving pops with pushes cannot reorder what remains: any
    /// event popped after another has a key no smaller than it.
    #[test]
    fn pops_are_monotone_under_interleaving(
        (batch, _seed) in arb_batch(),
        pop_every in 1usize..8,
    ) {
        let mut q = EventQueue::new();
        let mut popped: Vec<(u64, u8, u64)> = Vec::new();
        let mut floor = (0u64, 0u8, 0u64);
        for (i, &(tick, kind)) in batch.iter().enumerate() {
            // Late schedules earlier than an already-popped key would
            // break monotonicity legitimately; clamp to the floor tick
            // the way every real component does (events are always
            // armed at or after the current tick).
            q.schedule(tick.max(floor.0), kind);
            if i % pop_every == 0 {
                if let Some(ev) = q.pop() {
                    let key = (ev.tick, ev.class, ev.seq);
                    popped.push(key);
                    floor = (ev.tick, ev.class, ev.seq);
                }
            }
        }
        popped.extend(drain(&mut q));
        for w in popped.windows(2) {
            prop_assert!(
                w[0].0 <= w[1].0,
                "tick order violated: {:?} then {:?}", w[0], w[1]
            );
        }
    }
}
