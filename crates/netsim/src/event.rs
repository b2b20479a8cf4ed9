//! The discrete-event queue.
//!
//! Ordered by `(time, key)`; the key makes simultaneous events fire in a
//! deterministic order, which keeps runs bit-exact across executions — the
//! reproducibility property ExCovery requires of a platform (§IV-C1).
//!
//! [`EventQueue::schedule_with_key`] takes the key from the caller. The
//! simulator uses `(origin_node << 48) | origin_seq` keys, which define
//! one *global* total order over events regardless of which shard's queue
//! an event sits in — the property that makes an N-shard run bit-exact
//! with the serial path (see `crate::shard`).
//!
//! Payloads live in a slab and the binary heap holds only 24-byte
//! `(time, key, slot)` keys, so every sift during push/pop moves a
//! small fixed-size entry instead of a full simulator event (a packet,
//! its shared route and hop bookkeeping — roughly a cache line). On the
//! packet hot path this is the difference between the heap being
//! memory-bound and arithmetic-bound.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue<T> {
    /// Min-heap of `(due, key, slot)`; `key` is unique per queue, so
    /// `slot` never participates in an ordering decision.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payload storage indexed by slot; `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// Recycled slot indices.
    free: Vec<u32>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Creates an empty queue with room for `capacity` events, sized so the
    /// steady-state event population of a run never regrows the heap.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    fn store(&mut self, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.slots[slot as usize].is_none(),
                    "free list pointed at an occupied slot"
                );
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event queue slot overflow");
                self.slots.push(Some(payload));
                slot
            }
        }
    }

    /// Schedules `payload` at absolute time `due` under a caller-supplied
    /// ordering key. Keys must be unique among pending events with equal
    /// `due` for the pop order to be well defined.
    #[inline]
    pub fn schedule_with_key(&mut self, due: SimTime, key: u64, payload: T) {
        let slot = self.store(payload);
        self.heap.push(Reverse((due, key, slot)));
        self.debug_check_invariants();
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(due, _, payload)| (due, payload))
    }

    /// Removes and returns the earliest event with its ordering key.
    #[inline]
    pub(crate) fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)> {
        let Reverse((due, key, slot)) = self.heap.pop()?;
        debug_assert!((slot as usize) < self.slots.len(), "slot out of bounds");
        let payload = self.slots[slot as usize]
            .take()
            .expect("heap entry without payload");
        self.free.push(slot);
        self.debug_check_invariants();
        Some((due, key, payload))
    }

    /// Time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((due, _, _))| due)
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Discards all pending events (run clean-up).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }

    /// Releases capacity beyond `capacity` events accumulated by event
    /// storms. Called from `Simulator::reset_for_run` with the construction
    /// capacity, so a single pathological run does not pin its peak
    /// allocation for the rest of a campaign while the next run starts
    /// with the room the first one had.
    pub(crate) fn shrink_to(&mut self, capacity: usize) {
        self.heap.shrink_to(capacity);
        self.slots.shrink_to(capacity);
        self.free.shrink_to(capacity);
    }

    /// Slot-reuse invariant: every slot is either on the heap or on the
    /// free list, never both, never neither.
    #[inline]
    fn debug_check_invariants(&self) {
        debug_assert_eq!(
            self.heap.len() + self.free.len(),
            self.slots.len(),
            "slot leak: heap {} + free {} != slots {}",
            self.heap.len(),
            self.free.len(),
            self.slots.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_with_key(SimTime::from_nanos(30), 1, "c");
        q.schedule_with_key(SimTime::from_nanos(10), 2, "a");
        q.schedule_with_key(SimTime::from_nanos(20), 3, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn caller_keys_override_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule_with_key(t, 9, "last");
        q.schedule_with_key(t, 1, "first");
        q.schedule_with_key(t, 4, "middle");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["first", "middle", "last"]);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_with_key(SimTime::from_nanos(42), 7, ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn clear_discards_everything() {
        let mut q = EventQueue::new();
        q.schedule_with_key(SimTime::from_nanos(1), 4, 1);
        q.schedule_with_key(SimTime::from_nanos(2), 5, 2);
        q.clear();
        q.shrink_to(1);
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn shrinking_keeps_the_construction_capacity() {
        let mut q = EventQueue::with_capacity(16);
        for i in 0..100u64 {
            q.schedule_with_key(SimTime::from_nanos(i), i, i);
        }
        q.clear();
        q.shrink_to(16);
        // The storm's room is released, the construction's kept.
        assert!(q.heap.capacity() >= 16 && q.heap.capacity() < 100);
        assert!(q.slots.capacity() >= 16 && q.slots.capacity() < 100);
        assert_eq!(q.pop_keyed(), None);
        q.schedule_with_key(SimTime::from_nanos(3), 7, 0);
        assert_eq!(q.pop_keyed(), Some((SimTime::from_nanos(3), 7, 0)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_with_key(SimTime::from_nanos(10), 6, "late");
        q.schedule_with_key(SimTime::from_nanos(1), 7, "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule_with_key(SimTime::from_nanos(5), 8, "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            q.schedule_with_key(SimTime::from_nanos(round), round, round);
            assert_eq!(q.pop(), Some((SimTime::from_nanos(round), round)));
        }
        // Steady-state churn reuses the single slot instead of growing.
        assert!(q.slots.len() <= 2, "slab grew to {}", q.slots.len());
    }

    /// Reference model: a `BTreeMap` keyed `(time, key)` pops in exactly
    /// the order the queue promises.
    fn check_against_model(pairs: &[(u64, u64)], pop_every: usize) {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for (i, &(t, k)) in pairs.iter().enumerate() {
            let due = SimTime::from_nanos(t);
            q.schedule_with_key(due, k, i);
            model.insert((due, k), i);
            if pop_every > 0 && i % pop_every == 0 {
                if let Some((due, payload)) = q.pop() {
                    let (&mk, &mv) = model.iter().next().expect("model empty but queue popped");
                    model.remove(&mk);
                    assert_eq!((due, payload), (mk.0, mv));
                    popped.push(payload);
                    expected.push(mv);
                }
            }
        }
        while let Some((due, payload)) = q.pop() {
            let (&mk, &mv) = model.iter().next().expect("model empty but queue popped");
            model.remove(&mk);
            assert_eq!((due, payload), (mk.0, mv));
        }
        assert!(model.is_empty(), "queue drained before the model");
        assert_eq!(popped, expected);
    }

    #[test]
    fn ten_thousand_random_pairs_match_btreemap_model() {
        // Deterministic LCG: 10k (time, key) pairs with heavy time
        // collisions (time % 64) to stress the key tiebreak, unique keys.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut pairs = Vec::with_capacity(10_000);
        for i in 0..10_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pairs.push((state % 64, (state >> 16 << 16) | i));
        }
        check_against_model(&pairs, 3);
    }
}
