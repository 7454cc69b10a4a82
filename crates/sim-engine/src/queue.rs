//! The event queue at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] is a priority queue of `(Instant, E)` pairs with a strict
//! total order: events at the same instant fire in insertion order
//! (a monotone sequence number breaks ties). This makes simulation runs
//! deterministic — the property everything else in this workspace leans on.
//!
//! Timers that may need to be rearmed (DHCP retransmits, TCP RTO, channel
//! scheduler ticks) are handled by *cancellation tokens*: `push` returns an
//! [`EventId`], and [`EventQueue::cancel`] marks it dead; dead events are
//! skipped on pop. This is O(1) per cancel and avoids the classic
//! decrease-key problem. A timer re-armed on every input (a TCP RTO on
//! every ACK) is instead moved with [`EventQueue::reschedule`], which keeps
//! one queued event per timer rather than one tombstone per re-arm.
//!
//! # Hot-path design: generation-tagged slots
//!
//! Cancellation is tracked by a slot arena, not an ordered tombstone set.
//! Every scheduled event owns a slot (`u32` index into a `Vec`); the slot
//! carries a generation counter and a live flag. An [`EventId`] is the
//! `(slot, generation)` pair, so a stale handle — one whose event already
//! fired, or whose slot was since recycled for a newer event — fails the
//! generation check and cancels nothing. Pop checks one `Vec` element per
//! entry instead of probing a `BTreeSet`, and slots are recycled through a
//! free list, so a steady-state run performs no per-event allocation once
//! the arena has grown to the peak number of outstanding events.
//!
//! # Fixed-period timers: FIFO lanes
//!
//! A periodic timer (a beacon, a 1 Hz upkeep, a schedule slice) re-arms
//! itself a fixed delay after the instant it fires. [`EventQueue::add_lane`]
//! opens a FIFO lane for one such delay: a push at exactly `now + delay`
//! is appended to that lane's `VecDeque` in O(1) instead of being sifted
//! into the heap. Lanes change the cost of a push and a pop, never the
//! order:
//!
//! * `now` never decreases and the sequence number always grows, so
//!   successive pushes at `now + delay` arrive in ascending `(at, seq)`
//!   order, and each lane is sorted by the same key the heap orders by.
//!   The push still checks the lane's tail and falls back to the heap if
//!   appending would break that order.
//! * A pop takes the least `(at, seq)` among the heap's top and the lane
//!   fronts, so the total order is exactly the heap-only order.
//! * Every queued entry's key is at most its slot's current key (a
//!   reschedule later only raises the slot's key). A cancelled lane front
//!   is dropped; a lane front whose event was rescheduled later is
//!   re-seated into the heap at its new key, exactly as a stale heap top
//!   is re-keyed. The least key left is then live and current.
//!
//! A push whose delay is below the smallest lane delay skips the lane
//! search, so the data path (sub-millisecond airtimes) pays one
//! comparison for the lanes.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::VecDeque;

use crate::time::{Duration, Instant};

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// Internally a `(slot, generation)` pair: cancelling a handle whose event
/// already fired (and whose slot may have been recycled) is a harmless
/// no-op because the generation no longer matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Per-slot bookkeeping: the current generation, whether the event
/// occupying the slot is still live (scheduled and not cancelled), the
/// event's current `(at, seq)` key, and the event payload itself. Keeping
/// the payload here — index-addressed by the 24-byte queue entries — means
/// heap sift operations move small fixed-size keys instead of whole events.
///
/// Each slot has at most one queued entry, in the heap or in a lane. Its
/// key equals the slot's key unless the event was rescheduled later since
/// the entry was queued; the entry then surfaces early and is re-seated in
/// the heap at the slot's key.
struct Slot<E> {
    gen: u32,
    live: bool,
    at: Instant,
    seq: u64,
    event: Option<E>,
}

#[derive(Clone, Copy)]
struct Entry {
    at: Instant,
    seq: u64,
    slot: u32,
}

impl Entry {
    fn key(&self) -> (Instant, u64) {
        (self.at, self.seq)
    }
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
// Ordering depends only on (at, seq) — slot assignment never affects the
// pop order, which is what keeps the slot rewrite event-order-neutral.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}

/// A FIFO lane for events pushed exactly `delay` after the queue's now,
/// sorted by `(at, seq)` (see the module docs).
struct Lane {
    delay: Duration,
    entries: VecDeque<Entry>,
}

/// Where the earliest live event's entry waits.
#[derive(Clone, Copy)]
enum Head {
    Heap,
    Lane(usize),
}

/// A deterministic future-event list.
///
/// ```
/// use sim_engine::queue::EventQueue;
/// use sim_engine::time::Instant;
///
/// let mut q = EventQueue::new();
/// q.push(Instant::from_millis(20), "b");
/// q.push(Instant::from_millis(10), "a");
/// let id = q.push(Instant::from_millis(15), "cancelled");
/// q.cancel(id);
/// assert_eq!(q.live_len(), 2);
/// assert_eq!(q.pop(), Some((Instant::from_millis(10), "a")));
/// assert_eq!(q.pop(), Some((Instant::from_millis(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// FIFO lanes, one per registered delay.
    lanes: Vec<Lane>,
    /// The smallest lane delay ([`Duration::MAX`] with no lanes): a push
    /// with a shorter delay goes straight to the heap.
    min_lane_delay: Duration,
    /// Entries (live or cancelled) waiting in lanes.
    laned: usize,
    /// Slot arena; entry `i` holds the event (if any) occupying slot `i`.
    slots: Vec<Slot<E>>,
    /// Recycled slot indices available for the next push.
    free: Vec<u32>,
    /// Number of cancelled entries still physically queued.
    cancelled: usize,
    next_seq: u64,
    /// Time of the most recently popped event; pops are monotone.
    now: Instant,
    popped: u64,
    /// High-water mark of live (non-cancelled) scheduled events.
    peak_live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`Instant::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            min_lane_delay: Duration::MAX,
            laned: 0,
            slots: Vec::new(),
            free: Vec::new(),
            cancelled: 0,
            next_seq: 0,
            now: Instant::ZERO,
            popped: 0,
            peak_live: 0,
        }
    }

    /// Open a FIFO lane for events pushed exactly `delay` after the
    /// queue's now: such a push costs O(1) instead of a heap sift. The
    /// pop order is unchanged (see the module docs). Registering a delay
    /// twice opens one lane.
    pub fn add_lane(&mut self, delay: Duration) {
        if self.lanes.iter().any(|lane| lane.delay == delay) {
            return;
        }
        self.lanes.push(Lane {
            delay,
            entries: VecDeque::new(),
        });
        self.min_lane_delay = self.min_lane_delay.min(delay);
    }

    /// The time of the last popped event — "now" from the perspective of the
    /// code currently handling an event.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Total number of events delivered so far (diagnostics).
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// High-water mark of live scheduled events over the queue's lifetime
    /// (diagnostics; also the steady-state size of the slot arena).
    ///
    /// Cancelled entries still physically queued are **not** counted:
    /// this is the depth campaign progress lines report, and a
    /// timer-heavy run that cancels most of what it schedules would
    /// otherwise look far deeper than it ever was.
    pub fn peak_depth(&self) -> usize {
        self.peak_live
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current queue time: an event
    /// handler may only schedule into the present or future.
    pub fn push(&mut self, at: Instant, event: E) -> EventId {
        assert!(
            at >= self.now,
            "EventQueue::push: scheduling into the past ({at} < now {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.live = true;
                s.at = at;
                s.seq = seq;
                s.event = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    live: true,
                    at,
                    seq,
                    event: Some(event),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        let entry = Entry { at, seq, slot };
        if !self.push_to_lane(entry) {
            self.heap.push(entry);
        }
        let live = self.len() - self.cancelled;
        if live > self.peak_live {
            self.peak_live = live;
        }
        EventId { slot, gen }
    }

    /// Append `entry` to the lane of its delay, if there is one and the
    /// lane stays sorted. Returns whether it was appended.
    fn push_to_lane(&mut self, entry: Entry) -> bool {
        let delay = entry.at.since(self.now);
        if delay < self.min_lane_delay {
            return false;
        }
        let Some(lane) = self.lanes.iter_mut().find(|lane| lane.delay == delay) else {
            return false;
        };
        if lane
            .entries
            .back()
            .is_some_and(|tail| tail.key() > entry.key())
        {
            return false;
        }
        lane.entries.push_back(entry);
        self.laned += 1;
        true
    }

    /// Cancel a previously scheduled event. Idempotent; cancelling an event
    /// that already fired is a harmless no-op (the slot's generation has
    /// moved on, so the stale handle matches nothing). O(1).
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.slots.get_mut(id.slot as usize) {
            if slot.gen == id.gen && slot.live {
                slot.live = false;
                // Drop the payload now; the dead entry is just a key.
                slot.event = None;
                self.cancelled += 1;
            }
        }
    }

    /// Move the live event `id` to fire at `at`, in the same-instant place
    /// a fresh [`EventQueue::push`] would get now (a new sequence number).
    /// Returns the event's handle, which changes when the event moves
    /// earlier; `None`, and nothing moves, if `id` already fired or was
    /// cancelled.
    ///
    /// A move to the same or a later instant is O(1): the queued entry
    /// stays put and is re-seated at the new key when it surfaces. A move
    /// earlier cancels the entry and pushes the payload afresh.
    ///
    /// # Panics
    /// Panics, like `push`, if `at` is earlier than the current queue time.
    pub fn reschedule(&mut self, id: EventId, at: Instant) -> Option<EventId> {
        assert!(
            at >= self.now,
            "EventQueue::reschedule: scheduling into the past ({at} < now {})",
            self.now
        );
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.gen != id.gen || !slot.live {
            return None;
        }
        if at >= slot.at {
            slot.at = at;
            slot.seq = self.next_seq;
            self.next_seq += 1;
            return Some(id);
        }
        let event = slot.event.take()?;
        self.cancel(id);
        Some(self.push(at, event))
    }

    /// Retire `slot` once its entry has left the queue: bump the
    /// generation (invalidating outstanding handles) and recycle the index.
    fn release_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.live = false;
        s.event = None;
        self.free.push(slot);
    }

    /// Pop the earliest live event, advancing the queue clock to its time.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let (head, _) = self.head()?;
        self.take(head)
    }

    /// Remove the entry at `head` and deliver its event.
    fn take(&mut self, head: Head) -> Option<(Instant, E)> {
        let entry = match head {
            Head::Heap => self.heap.pop()?,
            Head::Lane(i) => {
                let entry = self.lanes[i].entries.pop_front()?;
                self.laned -= 1;
                entry
            }
        };
        let event = self.slots[entry.slot as usize].event.take();
        self.release_slot(entry.slot);
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        event.map(|event| (entry.at, event))
    }

    /// Find the earliest live event: where its entry waits, and its time.
    /// The heap's top is settled first. A lane front is looked at only if
    /// its key is below the best so far: every entry's key is at most its
    /// event's, so a lane whose front is later holds nothing earlier. A
    /// looked-at front that is cancelled is dropped, and one that was
    /// rescheduled later is re-seated in the heap; either way the lane's
    /// next front is looked at in turn.
    fn head(&mut self) -> Option<(Head, Instant)> {
        let mut best = self.settle_heap().map(|top| (Head::Heap, top.key()));
        for i in 0..self.lanes.len() {
            while let Some(front) = self.lanes[i].entries.front().copied() {
                if best.is_some_and(|(_, key)| key < front.key()) {
                    break;
                }
                let slot = &self.slots[front.slot as usize];
                if slot.live && slot.seq == front.seq {
                    best = Some((Head::Lane(i), front.key()));
                    break;
                }
                let (live, at, seq) = (slot.live, slot.at, slot.seq);
                self.lanes[i].entries.pop_front();
                self.laned -= 1;
                if !live {
                    self.cancelled -= 1;
                    self.release_slot(front.slot);
                    continue;
                }
                // If it is below the best so far, the re-seated entry is
                // the heap's new top: the old top was settled and is no
                // earlier than the best.
                self.heap.push(Entry { at, seq, ..front });
                match best {
                    Some((_, key)) if key < (at, seq) => {}
                    _ => best = Some((Head::Heap, (at, seq))),
                }
            }
        }
        best.map(|(head, (at, _))| (head, at))
    }

    /// Drop cancelled entries off the heap's top and re-key entries of
    /// events rescheduled later, until the top is live and current.
    fn settle_heap(&mut self) -> Option<Entry> {
        loop {
            let mut top = self.heap.peek_mut()?;
            let slot = &self.slots[top.slot as usize];
            if !slot.live {
                let dead = PeekMut::pop(top);
                self.cancelled -= 1;
                self.release_slot(dead.slot);
            } else if slot.seq != top.seq {
                // Dropping the `PeekMut` sifts the re-keyed entry down.
                top.at = slot.at;
                top.seq = slot.seq;
            } else {
                return Some(*top);
            }
        }
    }

    /// Time of the earliest live event, without popping it. Brings that
    /// event's entry to the front of its heap or lane on the way:
    /// cancelled entries are dropped and entries of events rescheduled
    /// later are re-seated, so repeated calls are cheap; see
    /// [`EventQueue::next_live_time`] for a `&self` variant.
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.head().map(|(_, at)| at)
    }

    /// Time of the earliest live event without mutating the queue.
    ///
    /// O(lanes) when the heap's top and every lane front are live and
    /// current (the common case); falls back to a full scan when a
    /// cancelled or rescheduled entry is at a front. Prefer
    /// [`EventQueue::peek_time`] in loops that also pop — it compacts as
    /// it goes.
    pub fn next_live_time(&self) -> Option<Instant> {
        let current = |e: &Entry| {
            let slot = &self.slots[e.slot as usize];
            slot.live && slot.seq == e.seq
        };
        let fronts = self
            .heap
            .peek()
            .into_iter()
            .chain(self.lanes.iter().filter_map(|lane| lane.entries.front()));
        if fronts.clone().all(current) {
            return fronts.map(Entry::key).min().map(|(at, _)| at);
        }
        self.heap
            .iter()
            .chain(self.lanes.iter().flat_map(|lane| lane.entries.iter()))
            .map(|e| &self.slots[e.slot as usize])
            .filter(|s| s.live)
            .map(|s| s.at)
            .min()
    }

    /// Pop the earliest live event if it fires at or before `deadline`,
    /// advancing the clock; events strictly after `deadline` stay queued.
    pub fn pop_at_or_before(&mut self, deadline: Instant) -> Option<(Instant, E)> {
        let (head, at) = self.head()?;
        if at > deadline {
            return None;
        }
        self.take(head)
    }

    /// Number of scheduled events **including cancelled entries** still
    /// physically queued. This over-counts after cancellations; it exists
    /// because it is free. Use [`EventQueue::live_len`] for the number of
    /// events that will actually fire, or [`EventQueue::has_live_events`]
    /// for an emptiness test.
    pub fn len(&self) -> usize {
        self.heap.len() + self.laned
    }

    /// Number of live (non-cancelled) scheduled events. O(1): maintained by
    /// a cancelled-entry counter, not by scanning tombstones.
    pub fn live_len(&self) -> usize {
        self.len() - self.cancelled
    }

    /// True if no live event remains — the complement of
    /// [`EventQueue::live_len`], O(1) and `&self`.
    ///
    /// This deliberately does **not** mirror [`EventQueue::len`]: a queue
    /// holding only cancelled tombstones is empty for every purpose a
    /// caller can observe (nothing will fire), and an `is_empty()` that
    /// said `false` there was a footgun. For the physical queue size —
    /// tombstones included — compare `len()` to zero explicitly.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// True if at least one non-cancelled event remains.
    pub fn has_live_events(&mut self) -> bool {
        self.peek_time().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Instant::from_millis(30), 3);
        q.push(Instant::from_millis(10), 1);
        q.push(Instant::from_millis(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Instant::from_millis(5);
        for i in 0..10 {
            q.push(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(Instant::from_millis(7), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn pushing_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(Instant::from_millis(10), ());
        q.pop();
        q.push(Instant::from_millis(5), ());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), "a");
        let _b = q.push(Instant::from_millis(2), "b");
        q.cancel(a);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.cancel(a);
        q.push(Instant::from_millis(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuser() {
        // Event `a` fires; its slot is recycled by `b`. Cancelling the stale
        // handle for `a` must not kill `b` — the generation tag prevents the
        // ABA aliasing a bare slot index would suffer.
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        let _b = q.push(Instant::from_millis(2), "b");
        q.cancel(a); // stale: same slot, older generation
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), ());
        q.push(Instant::from_millis(2), ());
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.len(), 2); // cancelled entry still physically queued
        while q.pop().is_some() {}
        assert_eq!(q.live_len(), 0);
    }

    #[test]
    fn is_empty_ignores_tombstones() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(Instant::from_millis(1), ());
        assert!(!q.is_empty());
        q.cancel(a);
        // Only a cancelled tombstone remains: nothing will fire, so the
        // queue is empty even though the heap is physically occupied.
        assert!(q.is_empty());
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), "a");
        q.push(Instant::from_millis(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Instant::from_millis(9)));
        assert!(q.has_live_events());
        q.pop();
        assert!(!q.has_live_events());
    }

    #[test]
    fn next_live_time_is_non_draining() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), "a");
        q.push(Instant::from_millis(9), "b");
        q.cancel(a);
        // &self peek sees through the cancelled top without compacting.
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(9)));
        assert_eq!(q.len(), 2, "non-draining peek must not pop dead entries");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.next_live_time(), None);
    }

    #[test]
    fn delivered_counts_only_live_events() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), ());
        q.push(Instant::from_millis(2), ());
        q.cancel(a);
        while q.pop().is_some() {}
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn peak_depth_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_depth(), 0);
        for i in 0..5 {
            q.push(Instant::from_millis(i), ());
        }
        while q.pop().is_some() {}
        q.push(Instant::from_millis(10), ());
        assert_eq!(q.peak_depth(), 5);
    }

    #[test]
    fn peak_depth_ignores_cancelled_but_queued_entries() {
        // Cancelled events stay physically in the heap until popped past;
        // the reported peak must count live events only, or campaigns that
        // cancel most of their timers would report inflated depths.
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.push(Instant::from_millis(i), ()))
            .collect();
        assert_eq!(q.peak_depth(), 10);
        for id in ids {
            q.cancel(id);
        }
        for i in 10..15 {
            q.push(Instant::from_millis(i), ());
        }
        // The heap now physically holds 15 entries, but only 5 are live.
        assert_eq!(q.peak_depth(), 10, "cancelled entries inflated the peak");
    }

    #[test]
    fn reschedule_later_takes_a_fresh_same_instant_place() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), "a");
        q.push(Instant::from_millis(5), "b");
        // Moved to b's instant, a now queues behind b, as a fresh push would.
        assert_eq!(q.reschedule(a, Instant::from_millis(5)), Some(a));
        q.push(Instant::from_millis(5), "c");
        assert_eq!(q.peek_time(), Some(Instant::from_millis(5)));
        assert_eq!(q.pop(), Some((Instant::from_millis(5), "b")));
        assert_eq!(q.pop(), Some((Instant::from_millis(5), "a")));
        assert_eq!(q.pop(), Some((Instant::from_millis(5), "c")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn reschedule_earlier_moves_ahead() {
        let mut q = EventQueue::new();
        q.push(Instant::from_millis(3), "b");
        let a = q.push(Instant::from_millis(9), "a");
        let moved = q.reschedule(a, Instant::from_millis(2)).expect("live");
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(2)));
        assert_eq!(q.pop(), Some((Instant::from_millis(2), "a")));
        assert_eq!(q.pop(), Some((Instant::from_millis(3), "b")));
        assert!(q.pop().is_none());
        // Both the old and the new handle are spent now.
        assert_eq!(q.reschedule(a, Instant::from_millis(4)), None);
        assert_eq!(q.reschedule(moved, Instant::from_millis(4)), None);
    }

    #[test]
    fn next_live_time_sees_a_rescheduled_top() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(1), "a");
        q.push(Instant::from_millis(6), "b");
        q.reschedule(a, Instant::from_millis(8));
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(6)));
        assert_eq!(q.pop(), Some((Instant::from_millis(6), "b")));
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(8)));
        assert_eq!(q.pop(), Some((Instant::from_millis(8), "a")));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rescheduling_into_past_panics() {
        let mut q = EventQueue::new();
        let a = q.push(Instant::from_millis(20), ());
        q.push(Instant::from_millis(10), ());
        q.pop();
        q.reschedule(a, Instant::from_millis(5));
    }

    #[test]
    fn reschedule_of_fired_or_cancelled_handle_moves_nothing() {
        let mut q = EventQueue::new();
        let fired = q.push(Instant::from_millis(1), "fired");
        let cancelled = q.push(Instant::from_millis(2), "cancelled");
        q.cancel(cancelled);
        assert_eq!(q.pop().unwrap().1, "fired");
        // `fired`'s slot is recycled by `b`; the stale handle must not move it.
        q.push(Instant::from_millis(3), "b");
        assert_eq!(q.reschedule(fired, Instant::from_millis(7)), None);
        assert_eq!(q.reschedule(cancelled, Instant::from_millis(2)), None);
        assert_eq!(q.reschedule(cancelled, Instant::from_millis(9)), None);
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.pop(), Some((Instant::from_millis(3), "b")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn rescheduled_event_counts_once() {
        let mut q = EventQueue::new();
        let mut id = q.push(Instant::from_millis(10), ());
        for t in [20, 30, 15, 40, 12] {
            id = q.reschedule(id, Instant::from_millis(t)).expect("live");
            assert_eq!(q.live_len(), 1);
        }
        assert_eq!(q.peak_depth(), 1);
        assert_eq!(q.pop(), Some((Instant::from_millis(12), ())));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        // Steady-state churn must not grow the arena past the peak number
        // of outstanding events.
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..4 {
                q.push(Instant::from_millis(round * 10 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.slots.len() <= 4,
            "slot arena grew to {} for 4 outstanding events",
            q.slots.len()
        );
    }

    #[test]
    fn lane_and_heap_tie_pops_in_seq_order() {
        let mut q = EventQueue::new();
        q.add_lane(Duration::from_millis(70));
        let t = Instant::from_millis(100);
        q.push(t, "heap-a"); // delay 100: the heap
        q.push(Instant::from_millis(70), "lane-0"); // delay 70: the lane
        assert_eq!((q.heap.len(), q.laned), (1, 1));
        assert_eq!(q.pop(), Some((Instant::from_millis(70), "lane-0")));
        q.push(Instant::from_millis(140), "later"); // the lane
        q.push(t, "heap-b"); // delay 30 from now = 70: the heap
        assert_eq!((q.heap.len(), q.laned), (2, 1));
        assert_eq!(q.pop(), Some((t, "heap-a")));
        q.push(Instant::from_millis(170), "lane-c");
        q.push(Instant::from_millis(140), "heap-d");
        // At 140 the lane's "later" (pushed before "heap-d") goes first.
        assert_eq!(q.pop(), Some((t, "heap-b")));
        assert_eq!(q.pop(), Some((Instant::from_millis(140), "later")));
        assert_eq!(q.pop(), Some((Instant::from_millis(140), "heap-d")));
        assert_eq!(q.pop(), Some((Instant::from_millis(170), "lane-c")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn lane_front_rescheduled_later_is_reseated() {
        let mut q = EventQueue::new();
        q.add_lane(Duration::from_millis(10));
        let a = q.push(Instant::from_millis(10), "a");
        q.push(Instant::from_millis(10), "b");
        q.push(Instant::from_millis(25), "c");
        assert_eq!(q.laned, 2);
        assert_eq!(q.reschedule(a, Instant::from_millis(30)), Some(a));
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(10)));
        assert_eq!(q.pop(), Some((Instant::from_millis(10), "b")));
        assert_eq!((q.heap.len(), q.laned), (2, 0), "a moved to the heap");
        assert_eq!(q.pop(), Some((Instant::from_millis(25), "c")));
        assert_eq!(q.pop(), Some((Instant::from_millis(30), "a")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_lane_front_is_skipped() {
        let mut q = EventQueue::new();
        q.add_lane(Duration::from_millis(10));
        let a = q.push(Instant::from_millis(10), "a");
        q.push(Instant::from_millis(10), "b");
        q.push(Instant::from_millis(12), "c");
        q.cancel(a);
        assert_eq!((q.len(), q.live_len()), (3, 2));
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(10)));
        assert_eq!(q.pop(), Some((Instant::from_millis(10), "b")));
        assert_eq!((q.len(), q.live_len()), (1, 1), "the dead front is gone");
        assert_eq!(q.pop(), Some((Instant::from_millis(12), "c")));
        assert!(q.pop().is_none());
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn lane_entries_count_toward_peak_depth() {
        let mut q = EventQueue::new();
        q.add_lane(Duration::from_millis(5));
        for _ in 0..3 {
            q.push(Instant::from_millis(5), ());
        }
        q.push(Instant::from_millis(9), ());
        assert_eq!((q.len(), q.live_len(), q.peak_depth()), (4, 4, 4));
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }

    #[test]
    fn randomized_ordering_matches_sorted_reference() {
        let mut rng = Rng::new(1234);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time_ms, seq)
        for seq in 0..2_000 {
            let t = rng.range_u64(0, 500);
            q.push(Instant::from_millis(t), seq);
            reference.push((t, seq));
        }
        reference.sort(); // (time, insertion seq) — exactly the queue's order
        for &(t, seq) in &reference {
            let (at, got) = q.pop().unwrap();
            assert_eq!(at, Instant::from_millis(t));
            assert_eq!(got, seq);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn randomized_churn_with_cancels_matches_reference() {
        // Interleaved push/cancel/pop against a sorted reference model,
        // exercising slot recycling under realistic timer-rearm churn.
        let mut rng = Rng::new(0xDE5);
        let mut q = EventQueue::new();
        let mut live: Vec<(u64, u64, EventId)> = Vec::new(); // (ms, payload, id)
        let mut next_payload = 0u64;
        for _ in 0..5_000 {
            match rng.range_u64(0, 3) {
                0 => {
                    let t = q.now().as_micros() / 1000 + rng.range_u64(0, 50);
                    let id = q.push(Instant::from_millis(t), next_payload);
                    live.push((t, next_payload, id));
                    next_payload += 1;
                }
                1 if !live.is_empty() => {
                    let k = rng.range_u64(0, live.len() as u64) as usize;
                    let (_, _, id) = live.swap_remove(k);
                    q.cancel(id);
                }
                _ => {
                    // Reference pop: earliest (time, payload) — payloads are
                    // assigned in push order, so they mirror the seq tiebreak.
                    live.sort_by_key(|&(t, payload, _)| (t, payload));
                    let expect = live.first().copied();
                    match (q.pop(), expect) {
                        (Some((at, got)), Some((t, payload, _))) => {
                            live.remove(0);
                            assert_eq!(at, Instant::from_millis(t));
                            assert_eq!(got, payload);
                        }
                        (None, None) => {}
                        (got, want) => {
                            panic!("queue {got:?} disagrees with reference {want:?}")
                        }
                    }
                }
            }
            assert_eq!(q.live_len(), live.len());
        }
    }
}
