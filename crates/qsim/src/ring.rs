//! [`Ring`]: the bounded event log every observer of a run keeps.
//!
//! The stack's post-hoc views of a run — the protocol trace, the flight
//! recorder, the timeline sampler, the fabric's link busy windows — each
//! keep the newest entries up to a fixed count and must say how many they
//! let go. A ring's storage grows on demand, so one nobody writes to costs
//! no heap.

use std::collections::VecDeque;

/// A bounded FIFO that evicts its oldest entry when full and counts the
/// evictions, so it always holds the tail of what was pushed.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring that holds at most `capacity` entries (at least 1).
    /// Nothing is allocated until the first push.
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        Ring {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append `item`, evicting (and counting) the oldest entry when full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Most entries retained before eviction starts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(r: &Ring<u32>) -> Vec<u32> {
        r.iter().copied().collect()
    }

    #[test]
    fn ring_keeps_the_newest_entries_and_counts_evictions() {
        // Capacity 0 is clamped to 1: the ring always holds the last push.
        let mut one = Ring::with_capacity(0);
        assert_eq!(one.capacity(), 1);
        assert!(one.is_empty());
        one.push(7);
        one.push(8);
        assert_eq!((contents(&one), one.dropped()), (vec![8], 1));

        // Below capacity nothing is evicted and order is push order.
        let mut r = Ring::with_capacity(3);
        for i in 0..3 {
            r.push(i);
        }
        assert_eq!((contents(&r), r.dropped()), (vec![0, 1, 2], 0));
        // Past it, the oldest go first, one per push, each counted.
        for i in 3..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(contents(&r), vec![2, 3, 4]);
    }
}
