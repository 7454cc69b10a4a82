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
//! # FIFO lanes
//!
//! Many events are pushed in the order they will fire. A periodic timer (a
//! beacon, a 1 Hz upkeep, a schedule slice) re-arms itself a fixed delay
//! after the instant it fires, and a FIFO link's arrivals come in
//! increasing time whatever their delay. Such a source gets a lane: a
//! `VecDeque` of entries whose front alone waits in the heap, tagged with
//! the lane; when the front leaves the heap the lane's next entry takes
//! its place. [`EventQueue::add_lane`] opens a lane for one delay, and a
//! plain push at exactly `now + delay` joins it;
//! [`EventQueue::add_named_lane`] opens one for a source, and
//! [`EventQueue::push_on`] joins it. The heap then holds one entry per
//! lane instead of the lane's whole backlog, and a pop only settles the
//! heap: it scans no lane. Lanes change the cost of a push and a pop,
//! never the order:
//!
//! * An entry joins a lane only if it is not earlier than the lane's tail,
//!   and goes to the heap otherwise, so every lane is sorted by the key the
//!   heap orders by, `(at, seq)`. For a delay lane the append always
//!   holds: `now` never decreases and the sequence number always grows.
//! * A lane's front is its least key, and it is in the heap, so the heap's
//!   top is the least key queued anywhere and a pop takes exactly the
//!   entry the heap-only order would.
//! * Every queued entry's key is at most its slot's current key (a
//!   reschedule later only raises the slot's key). A cancelled front is
//!   dropped, and a front whose event was rescheduled later is re-seated
//!   untagged at its new key, exactly as a stale untagged top is re-keyed;
//!   either way the lane's next entry takes its place. The least key left
//!   is then live and current.
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
/// Each slot has one queued entry, in the heap or in a lane; a lane's
/// front is in both and counts once. Its key equals the slot's key unless
/// the event was rescheduled later since the entry was queued; the entry
/// then surfaces early and is re-seated in the heap at the slot's key.
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
    /// The lane whose front this heap entry is, or [`NO_LANE`].
    lane: u32,
}

/// [`Entry::lane`] of an entry that is no lane's front.
const NO_LANE: u32 = u32::MAX;

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

/// Remove the heap's top and return it. A lane's front leaves its lane
/// too, and the lane's next entry takes its place in the heap: one sift
/// down instead of a pop and a push. `laned` is
/// [`EventQueue`]'s count of lane entries not in the heap.
fn remove_top(
    mut top: PeekMut<'_, Entry>,
    lanes: &mut [VecDeque<Entry>],
    laned: &mut usize,
) -> Entry {
    let entry = *top;
    if entry.lane != NO_LANE {
        let lane = &mut lanes[entry.lane as usize];
        lane.pop_front();
        if let Some(&next) = lane.front() {
            *laned -= 1;
            // Dropping the `PeekMut` sifts the replacement down.
            *top = Entry {
                lane: entry.lane,
                ..next
            };
            return entry;
        }
    }
    PeekMut::pop(top)
}

/// Handle of a FIFO lane (see [`EventQueue::add_named_lane`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneId(u32);

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
    /// FIFO lanes, indexed by [`LaneId`], each sorted by `(at, seq)`; a
    /// lane's front is also in the heap.
    lanes: Vec<VecDeque<Entry>>,
    /// The lane of each delay registered with [`EventQueue::add_lane`].
    delay_lanes: Vec<(Duration, LaneId)>,
    /// The smallest registered delay ([`Duration::MAX`] with none): a push
    /// with a shorter delay goes straight to the heap.
    min_lane_delay: Duration,
    /// Entries (live or cancelled) waiting in lanes and not in the heap.
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
            delay_lanes: Vec::new(),
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
        if self.delay_lanes.iter().any(|&(d, _)| d == delay) {
            return;
        }
        let lane = self.add_named_lane();
        self.delay_lanes.push((delay, lane));
        self.min_lane_delay = self.min_lane_delay.min(delay);
    }

    /// Open a FIFO lane for a source whose events arrive in increasing
    /// time, and return its handle for [`EventQueue::push_on`]. The pop
    /// order is unchanged (see the module docs).
    pub fn add_named_lane(&mut self) -> LaneId {
        self.lanes.push(VecDeque::new());
        LaneId(self.lanes.len() as u32 - 1)
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

    /// Schedule `event` to fire at absolute time `at`. A push exactly a
    /// registered delay after now joins that delay's lane.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current queue time: an event
    /// handler may only schedule into the present or future.
    pub fn push(&mut self, at: Instant, event: E) -> EventId {
        self.push_entry(at, event, None)
    }

    /// [`EventQueue::push`] onto the named lane `lane`: the event fires
    /// exactly when a plain push would have it fire. It joins the lane if
    /// it is not earlier than the lane's last entry, and the heap
    /// otherwise.
    ///
    /// # Panics
    /// As [`EventQueue::push`], and on a `lane` this queue did not open.
    pub fn push_on(&mut self, lane: LaneId, at: Instant, event: E) -> EventId {
        self.push_entry(at, event, Some(lane))
    }

    /// Queue `event` at `at` on `lane`, or, with `None`, on the lane of
    /// its delay if one is registered.
    fn push_entry(&mut self, at: Instant, event: E, lane: Option<LaneId>) -> EventId {
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
        let entry = Entry {
            at,
            seq,
            slot,
            lane: NO_LANE,
        };
        match lane.or_else(|| self.delay_lane(at)) {
            Some(lane) => self.push_to_lane(lane, entry),
            None => self.heap.push(entry),
        }
        let live = self.len() - self.cancelled;
        if live > self.peak_live {
            self.peak_live = live;
        }
        EventId { slot, gen }
    }

    /// The lane registered for a push at `at`, that is for `at - now`.
    fn delay_lane(&self, at: Instant) -> Option<LaneId> {
        let delay = at.since(self.now);
        if delay < self.min_lane_delay {
            return None;
        }
        self.delay_lanes
            .iter()
            .find(|&&(d, _)| d == delay)
            .map(|&(_, lane)| lane)
    }

    /// Append `entry` to lane `id` if the lane stays sorted, and push it
    /// to the heap otherwise. The front of an empty lane also goes into
    /// the heap, tagged with the lane.
    fn push_to_lane(&mut self, id: LaneId, entry: Entry) {
        let lane = &mut self.lanes[id.0 as usize];
        match lane.back() {
            Some(tail) if tail.key() > entry.key() => return self.heap.push(entry),
            Some(_) => self.laned += 1,
            None => self.heap.push(Entry {
                lane: id.0,
                ..entry
            }),
        }
        lane.push_back(entry);
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
        self.settle_heap()?;
        self.take()
    }

    /// Remove the heap's top, which [`EventQueue::settle_heap`] left live
    /// and current, and deliver its event.
    fn take(&mut self) -> Option<(Instant, E)> {
        let top = self.heap.peek_mut()?;
        let entry = remove_top(top, &mut self.lanes, &mut self.laned);
        let event = self.slots[entry.slot as usize].event.take();
        self.release_slot(entry.slot);
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        event.map(|event| (entry.at, event))
    }

    /// Drop cancelled entries off the heap's top and re-key entries of
    /// events rescheduled later, until the top is live and current. A
    /// lane's front that is dropped or re-keyed leaves its lane.
    fn settle_heap(&mut self) -> Option<Entry> {
        loop {
            let mut top = self.heap.peek_mut()?;
            let slot = &self.slots[top.slot as usize];
            let (live, at, seq) = (slot.live, slot.at, slot.seq);
            if live && seq == top.seq {
                return Some(*top);
            }
            if live && top.lane == NO_LANE {
                // Dropping the `PeekMut` sifts the re-keyed entry down.
                top.at = at;
                top.seq = seq;
                continue;
            }
            let stale = remove_top(top, &mut self.lanes, &mut self.laned);
            if live {
                self.heap.push(Entry {
                    at,
                    seq,
                    lane: NO_LANE,
                    ..stale
                });
            } else {
                self.cancelled -= 1;
                self.release_slot(stale.slot);
            }
        }
    }

    /// Time of the earliest live event without mutating the queue.
    ///
    /// O(1) when the heap's top is live and current (the common case);
    /// falls back to a full scan when a cancelled or rescheduled entry is
    /// on top.
    pub fn next_live_time(&self) -> Option<Instant> {
        // Every lane's front is in the heap: an empty heap is an empty queue.
        let top = self.heap.peek()?;
        let slot = &self.slots[top.slot as usize];
        if slot.live && slot.seq == top.seq {
            return Some(top.at);
        }
        self.heap
            .iter()
            .chain(self.lanes.iter().flatten())
            .map(|e| &self.slots[e.slot as usize])
            .filter(|s| s.live)
            .map(|s| s.at)
            .min()
    }

    /// Pop the earliest live event if it fires at or before `deadline`,
    /// advancing the clock; events strictly after `deadline` stay queued.
    pub fn pop_at_or_before(&mut self, deadline: Instant) -> Option<(Instant, E)> {
        if self.settle_heap()?.at > deadline {
            return None;
        }
        self.take()
    }

    /// Number of scheduled events **including cancelled entries** still
    /// physically queued. This over-counts after cancellations; it exists
    /// because it is free. Use [`EventQueue::live_len`] for the number of
    /// events that will actually fire, or [`EventQueue::is_empty`] for an
    /// emptiness test.
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
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(9)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
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
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(5)));
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
        q.push(Instant::from_millis(70), "lane-0"); // delay 70: the lane's front
        assert_eq!((q.heap.len(), q.laned), (2, 0));
        assert_eq!(q.pop(), Some((Instant::from_millis(70), "lane-0")));
        q.push(Instant::from_millis(140), "later"); // the lane
        q.push(t, "heap-b"); // delay 30 from now = 70: the heap
        assert_eq!((q.heap.len(), q.laned), (3, 0));
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
        assert_eq!((q.heap.len(), q.laned), (2, 1), "a is the lane's front");
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
    fn named_lane_holds_one_heap_entry_and_keeps_the_order() {
        let mut q = EventQueue::new();
        let link = q.add_named_lane();
        for ms in [5, 7, 7, 9] {
            q.push_on(link, Instant::from_millis(ms), ms);
        }
        q.push(Instant::from_millis(7), 70); // ties the lane at 7, pushed last
        assert_eq!((q.heap.len(), q.laned, q.live_len()), (2, 3, 5));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [5, 7, 7, 70, 9]);
        assert_eq!((q.heap.len(), q.laned), (0, 0));
        // An emptied lane takes its next push straight into the heap.
        q.push_on(link, Instant::from_millis(12), 12);
        assert_eq!((q.heap.len(), q.laned), (1, 0));
        assert_eq!(q.pop(), Some((Instant::from_millis(12), 12)));
    }

    #[test]
    fn out_of_order_named_push_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        let link = q.add_named_lane();
        q.push_on(link, Instant::from_millis(20), "late");
        q.push_on(link, Instant::from_millis(10), "early");
        assert_eq!((q.heap.len(), q.laned), (2, 0), "early went to the heap");
        assert_eq!(q.pop(), Some((Instant::from_millis(10), "early")));
        assert_eq!(q.pop(), Some((Instant::from_millis(20), "late")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_and_rescheduled_named_fronts_leave_the_lane() {
        let mut q = EventQueue::new();
        let link = q.add_named_lane();
        let a = q.push_on(link, Instant::from_millis(1), "a");
        let b = q.push_on(link, Instant::from_millis(2), "b");
        q.push_on(link, Instant::from_millis(3), "c");
        q.cancel(a);
        assert_eq!(q.reschedule(b, Instant::from_millis(5)), Some(b));
        q.push(Instant::from_millis(4), "d");
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(3)));
        assert_eq!(q.pop(), Some((Instant::from_millis(3), "c")));
        assert_eq!(q.laned, 0, "b was re-seated untagged in the heap");
        assert_eq!(q.pop(), Some((Instant::from_millis(4), "d")));
        assert_eq!(q.pop(), Some((Instant::from_millis(5), "b")));
        assert!(q.pop().is_none());
        assert_eq!((q.delivered(), q.len()), (3, 0));
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
