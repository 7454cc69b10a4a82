//! A minimal driver loop over [`EventQueue`].
//!
//! Concrete simulations (the Spider world, the Monte-Carlo join simulator)
//! define an event enum and implement [`Handler`]; [`run_until`] then pumps
//! events in deterministic order until a deadline or an empty queue.

use crate::queue::EventQueue;
use crate::time::Instant;

/// A simulation component that consumes events and schedules new ones.
pub trait Handler<E> {
    /// Handle `event`, which fired at time `at`. New events are scheduled
    /// through `queue`; `queue.now()` equals `at` for the duration of the
    /// call.
    fn handle(&mut self, at: Instant, event: E, queue: &mut EventQueue<E>);
}

/// Pump events until the queue is empty or the next event is after
/// `deadline`. Events *at* the deadline still fire. Returns the number of
/// events delivered.
pub fn run_until<E, H: Handler<E>>(
    queue: &mut EventQueue<E>,
    handler: &mut H,
    deadline: Instant,
) -> u64 {
    let mut delivered = 0;
    while let Some((at, event)) = queue.pop_at_or_before(deadline) {
        handler.handle(at, event, queue);
        delivered += 1;
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// A handler that re-arms itself `remaining` times at a fixed period.
    struct Ticker {
        period: Duration,
        remaining: u32,
        fired_at: Vec<Instant>,
    }

    impl Handler<()> for Ticker {
        fn handle(&mut self, at: Instant, _event: (), queue: &mut EventQueue<()>) {
            self.fired_at.push(at);
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.push(at + self.period, ());
            }
        }
    }

    #[test]
    fn run_until_respects_deadline_inclusive() {
        let mut q = EventQueue::new();
        q.push(Instant::ZERO, ());
        let mut t = Ticker {
            period: Duration::from_millis(100),
            remaining: 100,
            fired_at: vec![],
        };
        let n = run_until(&mut q, &mut t, Instant::from_millis(300));
        assert_eq!(n, 4); // 0, 100, 200, 300 ms
        assert_eq!(*t.fired_at.last().unwrap(), Instant::from_millis(300));
        assert_eq!(q.next_live_time(), Some(Instant::from_millis(400)));
    }
}
