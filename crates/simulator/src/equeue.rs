//! The discrete-event queue behind [`crate::sim::Simulation::run`].
//!
//! A seeded, deterministic event calendar: a binary min-heap of
//! [`ScheduledEvent`]s keyed by `(tick, class, seq)`. `tick` is the
//! integer simulation tick the event fires at, `class` fixes the
//! within-tick processing order (failures before the scheduling round,
//! the round before the timeline sample, the sample before the
//! job-progress wave — exactly the order the reference tick loop
//! executes those phases inside one tick), and
//! `seq` is a stable sequence id assigned at scheduling time that
//! breaks the remaining ties. The resulting pop order is a total order
//! over scheduled events that does **not** depend on the order they
//! were pushed into the heap — the property the determinism proptest
//! (`event_queue_pop_order_is_insertion_invariant`) pins.
//!
//! Components schedule their own next event instead of being polled
//! every tick: the scheduling round re-arms itself one interval ahead,
//! the timeline sampler one sample period ahead, server failures are
//! armed once at construction from the fault plan, and the progress
//! wave re-arms at the next loss-sample tick while any job is running
//! (or at every tick while a straggler monitor is non-quiescent and
//! must draw per-tick randomness). Every event does work when it
//! fires: arrivals need no event of their own, because every round
//! admits whatever has arrived by then, and the round takes its own
//! flight snapshot. Idle spans therefore cost nothing at all — there
//! is simply no event to pop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a scheduled event does when it fires.
///
/// The within-tick ordering of the variants is given by
/// [`SimEventType::class`]; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEventType {
    /// A configured server crash becomes due (§5.4 failure model).
    ServerFailure,
    /// A §4 scheduling round: admit arrivals, settle audits, refit
    /// estimators, divide the cluster, apply placements, then take the
    /// flight-recorder snapshot.
    SchedulingRound,
    /// A Fig-14 timeline sample (and the `--progress` status line).
    TimelineSample,
    /// A job-progress wave: every unfinished job advances through this
    /// tick in index order — loss-curve samples, straggler dynamics,
    /// convergence checks. Armed at loss-sample ticks while any job
    /// runs, and at every tick while straggler monitors are
    /// non-quiescent.
    ProgressWave,
    /// A job crossed its ground-truth convergence point at an interior
    /// (eventless) tick; this event carries the completion into the
    /// log at its exact timestamp, ahead of any later-tick event.
    JobCompletion {
        /// Index of the finished job in the simulation's job vector.
        job: usize,
        /// Exact (possibly intra-tick) finish instant, seconds.
        finish: f64,
    },
}

impl SimEventType {
    /// Within-tick processing class (lower fires first). Mirrors the
    /// phase order of one reference-loop tick: failures, then the
    /// scheduling round (with its flight snapshot), then the timeline
    /// sample, then job advancement. Completions discovered inside an
    /// event-free span share the advancement class — by construction
    /// no other event exists at their tick.
    pub fn class(&self) -> u8 {
        match self {
            SimEventType::ServerFailure => 0,
            SimEventType::SchedulingRound => 1,
            SimEventType::TimelineSample => 2,
            SimEventType::ProgressWave | SimEventType::JobCompletion { .. } => 3,
        }
    }
}

/// One calendar entry: an event and its total-order key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledEvent {
    /// Simulation tick the event fires at.
    pub tick: u64,
    /// Within-tick class, from [`SimEventType::class`].
    pub class: u8,
    /// Stable sequence id assigned at scheduling time; final tiebreak.
    pub seq: u64,
    /// The event payload.
    pub kind: SimEventType,
}

impl ScheduledEvent {
    fn key(&self) -> (u64, u8, u64) {
        (self.tick, self.class, self.seq)
    }
}

impl Eq for ScheduledEvent {}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest key.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event calendar: a binary heap popping in `(tick,
/// class, seq)` order regardless of insertion order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
    scheduled: u64,
}

impl EventQueue {
    /// An empty calendar.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at `tick`, assigning the next sequence id.
    pub fn schedule(&mut self, tick: u64, kind: SimEventType) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(ScheduledEvent {
            tick,
            class: kind.class(),
            seq,
            kind,
        });
    }

    /// Re-inserts an already-keyed event (deferred processing keeps its
    /// original position in the total order), or injects a hand-keyed
    /// event in tests.
    pub fn push(&mut self, ev: ScheduledEvent) {
        self.next_seq = self.next_seq.max(ev.seq + 1);
        self.scheduled += 1;
        self.heap.push(ev);
    }

    /// Pops the earliest event by `(tick, class, seq)`.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop()
    }

    /// Events currently waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (including re-inserted ones).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_then_class_then_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(10, SimEventType::ProgressWave); // seq 0
        q.schedule(10, SimEventType::ServerFailure); // seq 1, class 0
        q.schedule(5, SimEventType::TimelineSample); // seq 2
        q.schedule(10, SimEventType::SchedulingRound); // seq 3, class 1
        let order: Vec<(u64, u8)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.tick, e.class))
            .collect();
        assert_eq!(order, vec![(5, 2), (10, 0), (10, 1), (10, 3)]);
    }

    #[test]
    fn same_tick_same_class_pops_by_seq() {
        let mut q = EventQueue::new();
        let done = |job| SimEventType::JobCompletion { job, finish: 7.0 };
        q.schedule(7, done(2)); // seq 0
        q.schedule(7, done(0)); // seq 1
        q.schedule(7, done(1)); // seq 2
        let jobs: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                SimEventType::JobCompletion { job, .. } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![2, 0, 1], "seq order, not payload order");
    }

    #[test]
    fn reinserted_event_keeps_its_slot() {
        let mut q = EventQueue::new();
        q.schedule(4, SimEventType::SchedulingRound); // seq 0
        q.schedule(4, SimEventType::TimelineSample); // seq 1
        let first = q.pop().unwrap();
        assert_eq!(first.kind, SimEventType::SchedulingRound);
        // Defer it: push it back unchanged; it must pop again before
        // the sample (class 1 < class 2).
        q.push(first);
        assert_eq!(q.pop().unwrap().kind, SimEventType::SchedulingRound);
        assert_eq!(q.pop().unwrap().kind, SimEventType::TimelineSample);
        // And fresh seq ids continue past the re-inserted one.
        q.schedule(4, SimEventType::ProgressWave);
        assert!(q.pop().unwrap().seq >= 2);
    }
}
