//! Cross-shard event mailboxes.
//!
//! Every event that one shard schedules onto a node owned by another shard
//! travels through a per-(source-shard, destination-shard) mailbox instead
//! of touching the foreign event queue directly. Mailboxes are drained at
//! window barriers (parallel execution) or immediately after each event
//! (serial merged execution); either way the carried `(time, key)` pair —
//! the same global ordering key used inside every
//! [`crate::event::EventQueue`] — fully determines where the event sorts,
//! so delivery *batching* never changes delivery *order*.
//!
//! The grid is a flat `shards × shards` matrix of mutex-protected vectors.
//! During a parallel window each cell has exactly one writer (the source
//! shard) and is drained by exactly one reader (the destination shard)
//! strictly after the barrier, so the mutexes are uncontended by
//! construction; they exist to make the sharing safe, not to arbitrate it.

use crate::time::SimTime;
use std::sync::Mutex;

/// One event in flight between shards, carrying its global ordering key.
#[derive(Debug)]
pub(crate) struct Outbound<T> {
    /// Absolute due time in the destination queue.
    pub due: SimTime,
    /// Global `(origin_node << 48) | origin_seq` ordering key.
    pub key: u64,
    /// The simulator event itself.
    pub payload: T,
}

/// A `shards × shards` matrix of cross-shard mailboxes.
#[derive(Debug)]
pub(crate) struct MailboxGrid<T> {
    shards: usize,
    /// Row-major: `cells[src * shards + dst]`.
    cells: Vec<Mutex<Vec<Outbound<T>>>>,
}

impl<T> MailboxGrid<T> {
    /// Creates an empty grid for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            cells: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Enqueues an event from `src` shard for `dst` shard.
    #[inline]
    pub fn push(&self, src: usize, dst: usize, due: SimTime, key: u64, payload: T) {
        self.cells[src * self.shards + dst]
            .lock()
            .expect("mailbox poisoned")
            .push(Outbound { due, key, payload });
    }

    /// Drains every mailbox destined for `dst`, invoking `f` per event, and
    /// returns the largest single-cell depth observed (for the mailbox
    /// depth histogram). Source cells are visited in shard order, but the
    /// caller re-sorts by `(due, key)` inside its event queue, so the visit
    /// order carries no semantic weight.
    pub fn drain_to(&self, dst: usize, mut f: impl FnMut(Outbound<T>)) -> usize {
        let mut max_depth = 0;
        for src in 0..self.shards {
            let mut cell = self.cells[src * self.shards + dst]
                .lock()
                .expect("mailbox poisoned");
            max_depth = max_depth.max(cell.len());
            for out in cell.drain(..) {
                f(out);
            }
        }
        max_depth
    }

    /// Number of events currently in flight between shards (diagnostics).
    pub fn pending(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.lock().expect("mailbox poisoned").len())
            .sum()
    }

    /// True if no event is in flight anywhere.
    pub fn is_empty(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.lock().expect("mailbox poisoned").is_empty())
    }

    /// Drops all in-flight events and releases their storage (run reset).
    pub fn clear(&mut self) {
        for cell in &mut self.cells {
            let v = cell.get_mut().expect("mailbox poisoned");
            v.clear();
            v.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_by_destination() {
        let grid: MailboxGrid<&str> = MailboxGrid::new(3);
        grid.push(0, 2, SimTime::from_nanos(5), 1, "a");
        grid.push(1, 2, SimTime::from_nanos(3), 2, "b");
        grid.push(0, 1, SimTime::from_nanos(1), 3, "c");
        let mut seen = Vec::new();
        let depth = grid.drain_to(2, |o| seen.push((o.due.as_nanos(), o.payload)));
        assert_eq!(depth, 1);
        seen.sort();
        assert_eq!(seen, vec![(3, "b"), (5, "a")]);
        // Cell (0,1) is untouched by draining dst 2.
        assert!(!grid.is_empty());
        grid.drain_to(1, |_| {});
        assert!(grid.is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut grid: MailboxGrid<u32> = MailboxGrid::new(2);
        grid.push(0, 0, SimTime::ZERO, 0, 7);
        grid.push(1, 0, SimTime::ZERO, 1, 8);
        grid.clear();
        assert!(grid.is_empty());
    }
}
