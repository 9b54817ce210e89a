//! Event queues for the kernel.
//!
//! Two implementations pop the exact same `(time, seq)` total order:
//!
//! * [`QueueKind::Calendar`] — the production queue: a 256-slot timing
//!   wheel of 1.024 µs buckets sliding with the dispatch cursor, with a
//!   binary heap (min-ordered by `(time, seq)`) holding far-future
//!   overflow. Near-future scheduling — the overwhelmingly common case for
//!   NIC state transitions and process wakes — is an O(1) bucket push;
//!   draining a bucket sorts it once into an ascending stage, and an event
//!   scheduled into the bucket being drained is usually the latest one
//!   there, an O(1) append. Cancellation (watchdog timers that raced their
//!   signal) is a tombstone: the entry is skipped when its bucket drains,
//!   and the live count is adjusted immediately.
//! * [`QueueKind::BTree`] — the original `BTreeMap<(Time, u64), Event>`
//!   queue, kept as the determinism reference: the sim-bench cross-check
//!   and the qsim test suite run identical programs on both queues and
//!   require bit-identical schedule hashes.
//!
//! Keys are unique (`seq` increments on every push), pushes never predate
//! the last popped key (the kernel clamps event times to `now`), and pops
//! are strictly increasing in `(time, seq)` — which is what lets the
//! calendar queue answer [`EventQueue::contains`] with a single comparison
//! against the last popped key.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};

use crate::hash::FastSet;
use crate::kernel::Event;
use crate::time::Time;

/// Which event-queue implementation a [`crate::Simulation`] uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// Timing-wheel calendar queue with a binary-heap overflow (default).
    Calendar,
    /// The reference `BTreeMap` queue (determinism cross-checks).
    BTree,
}

/// Process-global, unlike everything a simulation holds: simulations built
/// on parallel test threads read it, so it stays atomic.
static DEFAULT_KIND: AtomicU8 = AtomicU8::new(0);

/// Set the queue implementation used by subsequently created
/// [`crate::Simulation`]s (process-global; used by benches to cross-check
/// the calendar queue against the reference queue on identical workloads).
pub fn set_default_queue_kind(kind: QueueKind) {
    let v = match kind {
        QueueKind::Calendar => 0,
        QueueKind::BTree => 1,
    };
    DEFAULT_KIND.store(v, Ordering::SeqCst);
}

/// The current process-global default queue kind.
pub fn default_queue_kind() -> QueueKind {
    match DEFAULT_KIND.load(Ordering::SeqCst) {
        1 => QueueKind::BTree,
        _ => QueueKind::Calendar,
    }
}

/// Bucket width: 2^10 ns = 1.024 µs, on the order of one NIC/link hop.
const BUCKET_SHIFT: u32 = 10;
/// Wheel span: 256 buckets ≈ 262 µs of lookahead before overflow.
const NBUCKETS: usize = 256;
const BITMAP_WORDS: usize = NBUCKETS / 64;

struct Entry {
    at: Time,
    seq: u64,
    ev: Event,
}

impl Entry {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Overflow-heap wrapper: max-heap on the *reversed* key = min-heap on
/// `(time, seq)`. Ordering ignores the payload; keys are unique.
struct Overflow(Entry);

impl PartialEq for Overflow {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for Overflow {}
impl PartialOrd for Overflow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Overflow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

pub(crate) struct CalendarQueue {
    /// Entries of the bucket the cursor is on, sorted ascending by key: the
    /// next event pops from the front, and an entry later than every staged
    /// one (the common insert) appends at the back.
    stage: VecDeque<Entry>,
    /// Absolute bucket index (`time >> BUCKET_SHIFT`) the stage was built
    /// from. Slots hold only buckets in `(cur_bucket, cur_bucket+NBUCKETS)`.
    cur_bucket: u64,
    slots: Vec<Vec<Entry>>,
    /// One bit per slot with entries, for O(1) next-bucket scans.
    occupied: [u64; BITMAP_WORDS],
    overflow: BinaryHeap<Overflow>,
    /// Seqs cancelled while still queued; entries are dropped when reached.
    cancelled: FastSet<u64>,
    /// Queued, non-cancelled entries.
    live: usize,
    /// Key of the last event handed out by `pop`.
    last_popped: (Time, u64),
}

impl CalendarQueue {
    fn new() -> CalendarQueue {
        CalendarQueue {
            stage: VecDeque::new(),
            cur_bucket: 0,
            slots: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            overflow: BinaryHeap::new(),
            cancelled: FastSet::default(),
            live: 0,
            last_popped: (Time::ZERO, 0),
        }
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Take the tombstone for `seq`, if it was cancelled.
    #[inline]
    fn take_cancelled(&mut self, seq: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.remove(&seq)
    }

    fn insert(&mut self, at: Time, seq: u64, ev: Event) {
        let bucket = at.as_ns() >> BUCKET_SHIFT;
        let entry = Entry { at, seq, ev };
        if bucket <= self.cur_bucket {
            // At or before the staged bucket (time is still >= the last
            // popped key): merge into the stage at its sorted position.
            let key = entry.key();
            if self.stage.back().is_none_or(|e| e.key() < key) {
                self.stage.push_back(entry);
            } else {
                let idx = self.stage.partition_point(|e| e.key() < key);
                self.stage.insert(idx, entry);
            }
        } else if bucket < self.cur_bucket + NBUCKETS as u64 {
            let slot = (bucket % NBUCKETS as u64) as usize;
            self.slots[slot].push(entry);
            self.set_bit(slot);
        } else {
            self.overflow.push(Overflow(entry));
        }
        self.live += 1;
    }

    /// Drop cancelled entries from the top of the overflow heap.
    fn trim_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let seq = top.0.seq;
            if self.take_cancelled(seq) {
                self.overflow.pop();
            } else {
                break;
            }
        }
    }

    /// Make the front of `stage` the globally next live entry. Returns false
    /// when no live entry remains anywhere.
    fn ensure_stage(&mut self) -> bool {
        loop {
            // Skip tombstones at the stage front.
            while let Some(e) = self.stage.front() {
                let seq = e.seq;
                if self.take_cancelled(seq) {
                    self.stage.pop_front();
                } else {
                    return true;
                }
            }
            if self.live == 0 {
                return false;
            }
            // Advance the cursor to the next populated bucket: the nearer of
            // the next occupied wheel slot (a circular scan from the cursor
            // is absolute order, because the window is exactly one lap) and
            // the overflow head's bucket.
            let next_wheel = self.next_occupied_bucket();
            self.trim_overflow();
            let next_over = self.overflow.peek().map(|o| o.0.at.as_ns() >> BUCKET_SHIFT);
            let target = match (next_wheel, next_over) {
                (Some(w), Some(o)) => w.min(o),
                (Some(w), None) => w,
                (None, Some(o)) => o,
                (None, None) => return false, // only tombstones remained
            };
            self.cur_bucket = target;
            let slot = (target % NBUCKETS as u64) as usize;
            if next_wheel == Some(target) {
                // The stage is empty here: trade its buffer for the slot's
                // (both conversions keep the allocation).
                let spare = Vec::from(std::mem::take(&mut self.stage));
                self.stage = VecDeque::from(std::mem::replace(&mut self.slots[slot], spare));
                self.clear_bit(slot);
            }
            // Pull overflow entries that landed in this same bucket.
            loop {
                self.trim_overflow();
                match self.overflow.peek() {
                    Some(top) if top.0.at.as_ns() >> BUCKET_SHIFT == target => {
                        let Overflow(e) = self.overflow.pop().unwrap();
                        self.stage.push_back(e);
                    }
                    _ => break,
                }
            }
            self.stage
                .make_contiguous()
                .sort_unstable_by_key(Entry::key);
        }
    }

    /// Absolute index of the first occupied wheel bucket after the cursor.
    fn next_occupied_bucket(&self) -> Option<u64> {
        let start = ((self.cur_bucket + 1) % NBUCKETS as u64) as usize;
        let base = self.cur_bucket + 1;
        for i in 0..NBUCKETS {
            let slot = (start + i) % NBUCKETS;
            if self.occupied[slot / 64] & (1u64 << (slot % 64)) != 0 {
                return Some(base + i as u64);
            }
        }
        None
    }

    fn pop(&mut self) -> Option<(Time, u64, Event)> {
        if !self.ensure_stage() {
            return None;
        }
        let e = self.stage.pop_front().unwrap();
        self.live -= 1;
        self.last_popped = e.key();
        Some((e.at, e.seq, e.ev))
    }

    fn peek(&mut self) -> Option<&Entry> {
        if self.ensure_stage() {
            self.stage.front()
        } else {
            None
        }
    }

    fn contains(&self, key: (Time, u64)) -> bool {
        // Valid only for keys that were never cancelled (the kernel's
        // timer-probe contract): pops are strictly increasing, so a key is
        // still queued iff it is beyond the last one handed out.
        key > self.last_popped && (self.cancelled.is_empty() || !self.cancelled.contains(&key.1))
    }

    fn cancel(&mut self, key: (Time, u64)) -> bool {
        if !self.contains(key) {
            return false;
        }
        self.cancelled.insert(key.1);
        self.live -= 1;
        true
    }
}

pub(crate) struct BTreeQueue {
    map: BTreeMap<(Time, u64), Event>,
}

/// The kernel's pending-event set; see the module docs for the two
/// implementations.
pub(crate) enum EventQueue {
    Calendar(CalendarQueue),
    BTree(BTreeQueue),
}

impl EventQueue {
    pub(crate) fn new(kind: QueueKind) -> EventQueue {
        match kind {
            QueueKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            QueueKind::BTree => EventQueue::BTree(BTreeQueue {
                map: BTreeMap::new(),
            }),
        }
    }

    /// Queue `ev` at `(at, seq)`. The kernel guarantees `at` is not before
    /// the last popped time and `seq` is fresh.
    pub(crate) fn insert(&mut self, at: Time, seq: u64, ev: Event) {
        match self {
            EventQueue::Calendar(q) => q.insert(at, seq, ev),
            EventQueue::BTree(q) => {
                q.map.insert((at, seq), ev);
            }
        }
    }

    /// Remove and return the next event in `(time, seq)` order.
    pub(crate) fn pop(&mut self) -> Option<(Time, u64, Event)> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::BTree(q) => {
                let key = *q.map.keys().next()?;
                let ev = q.map.remove(&key).unwrap();
                Some((key.0, key.1, ev))
            }
        }
    }

    /// Key of the next event in `(time, seq)` order, without removing it.
    pub(crate) fn peek(&mut self) -> Option<(Time, u64)> {
        match self {
            EventQueue::Calendar(q) => q.peek().map(Entry::key),
            EventQueue::BTree(q) => q.map.keys().next().copied(),
        }
    }

    /// True when the next event is an [`Event::Call`] stamped exactly `t`
    /// (the same-timestamp batch-drain probe).
    pub(crate) fn next_is_call_at(&mut self, t: Time) -> bool {
        let next = match self {
            EventQueue::Calendar(q) => q.peek().map(|e| (e.at, &e.ev)),
            EventQueue::BTree(q) => q.map.iter().next().map(|(&(at, _), ev)| (at, ev)),
        };
        matches!(next, Some((at, Event::Call(_))) if at == t)
    }

    /// Whether the (never-cancelled) key is still queued.
    pub(crate) fn contains(&self, key: (Time, u64)) -> bool {
        match self {
            EventQueue::Calendar(q) => q.contains(key),
            EventQueue::BTree(q) => q.map.contains_key(&key),
        }
    }

    /// Cancel a queued event (timer races); true if it was still queued.
    pub(crate) fn cancel(&mut self, key: (Time, u64)) -> bool {
        match self {
            EventQueue::Calendar(q) => q.cancel(key),
            EventQueue::BTree(q) => q.map.remove(&key).is_some(),
        }
    }

    /// Number of queued, non-cancelled events.
    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.live,
            EventQueue::BTree(q) => q.map.len(),
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ProcId;
    use crate::rng::Pcg32;

    fn wake(i: u32) -> Event {
        Event::Wake(ProcId(i))
    }

    fn wake_id(ev: &Event) -> u32 {
        match ev {
            Event::Wake(p) => p.0,
            Event::Call(_) => panic!("expected wake"),
        }
    }

    /// Drive both implementations through an identical randomized schedule
    /// of pushes, pops, and cancellations; every pop and every peek must
    /// match exactly.
    #[test]
    fn calendar_matches_btree_pop_order() {
        let mut cal = EventQueue::new(QueueKind::Calendar);
        let mut bt = EventQueue::new(QueueKind::BTree);
        let mut rng = Pcg32::new(0xC0FFEE);
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut pending: Vec<(Time, u64)> = Vec::new();
        for round in 0..20_000u32 {
            let r = rng.next_u32() % 100;
            if r < 55 {
                // Push: deltas spread from same-instant to far past the
                // wheel horizon (256 µs) to exercise the overflow heap.
                let delta = match rng.next_u32() % 5 {
                    0 => 0,
                    1 => (rng.next_u32() % 1_000) as u64,
                    2 => (rng.next_u32() % 100_000) as u64,
                    3 => (rng.next_u32() % 1_000_000) as u64,
                    _ => 300_000 + (rng.next_u32() % 4_000_000) as u64,
                };
                let at = Time::from_ns(now + delta);
                cal.insert(at, seq, wake(round));
                bt.insert(at, seq, wake(round));
                pending.push((at, seq));
                seq += 1;
            } else if r < 85 {
                let a = cal.pop();
                let b = bt.pop();
                match (a, b) {
                    (None, None) => {}
                    (Some((ta, sa, ea)), Some((tb, sb, eb))) => {
                        assert_eq!((ta, sa), (tb, sb), "pop keys diverged");
                        assert_eq!(wake_id(&ea), wake_id(&eb), "payloads diverged");
                        now = ta.as_ns();
                        pending.retain(|k| *k != (ta, sa));
                    }
                    (a, b) => panic!("one queue empty, other not: {a:?} vs {b:?}",),
                }
            } else if !pending.is_empty() {
                let victim = pending.remove((rng.next_u32() as usize) % pending.len());
                assert_eq!(cal.cancel(victim), bt.cancel(victim));
                assert_eq!(cal.len(), bt.len());
            }
            assert_eq!(cal.len(), bt.len(), "live counts diverged");
            // The peek moves the calendar's cursor ahead of the clock, so
            // the next pushes also merge behind a cursor that moved on.
            assert_eq!(cal.peek(), bt.peek(), "peeks diverged");
        }
        // Drain what's left.
        loop {
            let a = cal.pop();
            let b = bt.pop();
            match (a, b) {
                (None, None) => break,
                (Some((ta, sa, _)), Some((tb, sb, _))) => assert_eq!((ta, sa), (tb, sb)),
                (a, b) => panic!("tail divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn contains_tracks_pop_and_cancel() {
        let mut q = EventQueue::new(QueueKind::Calendar);
        q.insert(Time::from_ns(10), 0, wake(0));
        q.insert(Time::from_ns(20), 1, wake(1));
        assert!(q.contains((Time::from_ns(10), 0)));
        assert!(q.contains((Time::from_ns(20), 1)));
        let (t, s, _) = q.pop().unwrap();
        assert_eq!((t, s), (Time::from_ns(10), 0));
        assert!(!q.contains((Time::from_ns(10), 0)));
        assert!(q.cancel((Time::from_ns(20), 1)));
        assert!(!q.cancel((Time::from_ns(20), 1)));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    impl std::fmt::Debug for Event {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Event::Wake(p) => write!(f, "Wake({p})"),
                Event::Call(_) => write!(f, "Call"),
            }
        }
    }
}
