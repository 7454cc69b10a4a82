//! Std-only scoped worker pool with deterministic per-task RNG forking.
//!
//! The experiment harness fans out over (scenario × seed) grids — the hot
//! path behind every EXPERIMENTS.md figure. This module replaces the old
//! external scoped-thread fan-out with `std::thread::scope` plus a
//! work-stealing-free claim counter, so the workspace needs no external
//! crate for parallelism.
//!
//! Determinism contract: results are a pure function of the task list.
//! Each task is claimed by exactly one worker, computed independently, and
//! written back to its input slot, so [`map`] returns the same `Vec` for 1
//! worker and N workers (verified by tests). For tasks that need
//! randomness, [`fork_seed`] derives a per-task seed from a master seed and
//! the task index — a deterministic function of `(master, index)` only,
//! never of scheduling order or worker count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A shared cooperative-cancellation flag for [`map_cancellable`] batches.
///
/// Cloning is cheap (an `Arc` bump); any clone can cancel the batch from
/// another thread — a signal handler, a watchdog, or a test that wants to
/// interrupt a sweep mid-flight. Cancellation is *cooperative*: tasks that
/// a worker already claimed run to completion, but no further task is
/// claimed once the flag is raised, so a batch stops at the next task
/// boundary rather than mid-simulation.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raise the flag: no new task will be claimed after this returns.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has the flag been raised?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Number of workers [`map`] uses: the machine's available parallelism,
/// or 1 if it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derive the seed for task `index` from a `master` seed.
///
/// A SplitMix64-style mix of the pair: deterministic, independent of
/// worker count, and statistically independent across indices. Use it to
/// give every task in a batch its own [`Rng`](crate::rng::Rng) stream:
///
/// ```
/// use sim_engine::par::{fork_seed, map_with_workers};
/// use sim_engine::rng::Rng;
/// let master = 42;
/// let draws = map_with_workers((0..8).collect::<Vec<u64>>(), 4, |i, _| {
///     Rng::new(fork_seed(master, i as u64)).next_u64()
/// });
/// assert_eq!(draws[0], Rng::new(fork_seed(master, 0)).next_u64());
/// ```
pub fn fork_seed(master: u64, index: u64) -> u64 {
    // Two rounds of SplitMix64 finalization over the combined pair; the
    // golden-ratio stride decorrelates adjacent indices.
    let mut z = master
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f` over every task on [`available_workers`] OS threads, returning
/// results in task order.
///
/// `f` receives `(index, task)`. Panics in `f` propagate to the caller
/// once all workers have stopped.
pub fn map<T, R, F>(tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_with_workers(tasks, available_workers(), f)
}

/// [`map`] with an explicit worker count (1 = fully sequential; useful for
/// determinism tests and debugging).
///
/// # Panics
/// Panics if `workers == 0`, or if `f` panics on any task.
pub fn map_with_workers<T, R, F>(tasks: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_cancellable(tasks, workers, &CancelToken::new(), f)
        .into_iter()
        .enumerate()
        // simlint: allow(panic-path) — documented contract: map_with_workers promises a result per task and propagates worker death as a panic
        .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} produced no result")))
        .collect()
}

/// [`map_with_workers`] with cooperative cancellation.
///
/// Workers claim task indices dynamically from a shared counter (the
/// work-stealing-style scheduling every `map` variant uses), but check
/// `cancel` before every claim: once [`CancelToken::cancel`] is called, no
/// further task starts. Already-running tasks finish and their results are
/// kept, so the returned vector has `Some(result)` for every task that
/// completed and `None` for every task that was never claimed. Without
/// cancellation every slot is `Some`, and results are identical to
/// [`map_with_workers`] at any worker count.
///
/// # Panics
/// Panics if `workers == 0`, or if `f` panics on any task.
pub fn map_cancellable<T, R, F>(
    tasks: Vec<T>,
    workers: usize,
    cancel: &CancelToken,
    f: F,
) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    assert!(
        workers > 0,
        "par::map_cancellable: need at least one worker"
    );
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    // One slot per task. Slot mutexes are uncontended (each slot is touched
    // by exactly one worker); the atomic counter hands out indices.
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let task_slots = &task_slots;
    let result_slots = &result_slots;
    let next_ref = &next;

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(move || loop {
                if cancel.is_cancelled() {
                    break;
                }
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Poison recovery: another worker panicking while holding a
                // slot must not cascade — the caller sees its missing result.
                let Some(task) = task_slots[i]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .take()
                else {
                    // The fetch_add above hands each index to exactly one
                    // worker, so the slot is always full; if that invariant
                    // ever breaks, skip — the caller reports the hole.
                    continue;
                };
                let result = f(i, task);
                *result_slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
            });
        }
    });

    result_slots
        .iter()
        .map(|slot| slot.lock().unwrap_or_else(|p| p.into_inner()).take())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// A deliberately CPU-bound task: many RNG draws from a forked seed.
    fn spin(master: u64, index: usize, draws: u32) -> u64 {
        let mut rng = Rng::new(fork_seed(master, index as u64));
        let mut acc = 0u64;
        for _ in 0..draws {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    }

    #[test]
    fn results_keep_task_order() {
        let out = map_with_workers((0..100u64).collect(), 4, |i, t| {
            assert_eq!(i as u64, t);
            t * 2
        });
        assert_eq!(out, (0..100u64).map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_and_many_workers_agree_on_same_seeds() {
        // The determinism contract: identical output for any worker count.
        let tasks: Vec<usize> = (0..24).collect();
        let sequential = map_with_workers(tasks.clone(), 1, |i, _| spin(20111206, i, 10_000));
        for workers in [2, 3, 8] {
            let parallel =
                map_with_workers(tasks.clone(), workers, |i, _| spin(20111206, i, 10_000));
            assert_eq!(sequential, parallel, "output differs at {workers} workers");
        }
    }

    #[test]
    fn fork_seed_is_deterministic_and_spread_out() {
        assert_eq!(fork_seed(1, 2), fork_seed(1, 2));
        let seeds: std::collections::HashSet<u64> = (0..1_000).map(|i| fork_seed(77, i)).collect();
        assert_eq!(seeds.len(), 1_000, "per-task seeds must not collide");
        // Different masters give different per-task streams.
        assert_ne!(fork_seed(1, 0), fork_seed(2, 0));
    }

    #[test]
    fn empty_and_single_task_batches() {
        let empty: Vec<u64> = map(Vec::<u64>::new(), |_, t| t);
        assert!(empty.is_empty());
        assert_eq!(map_with_workers(vec![41u64], 8, |_, t| t + 1), vec![42]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = map_with_workers(vec![1u64, 2, 3], 64, |_, t| t);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn uncancelled_map_cancellable_matches_map() {
        let tasks: Vec<usize> = (0..16).collect();
        let plain = map_with_workers(tasks.clone(), 4, |i, _| spin(7, i, 1_000));
        let cancellable = map_cancellable(tasks, 4, &CancelToken::new(), |i, _| spin(7, i, 1_000));
        assert_eq!(cancellable, plain.into_iter().map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn pre_cancelled_batch_claims_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = map_cancellable((0..8u64).collect(), 4, &cancel, |_, t| t);
        assert_eq!(out, vec![None; 8]);
    }

    #[test]
    fn mid_batch_cancel_stops_new_claims_but_keeps_finished_results() {
        // Cancel from inside task 3; with one worker the claim order is the
        // task order, so tasks 0..=3 complete and the rest are never run.
        let cancel = CancelToken::new();
        let cancel_inside = cancel.clone();
        let out = map_cancellable((0..10u64).collect(), 1, &cancel, move |i, t| {
            if i == 3 {
                cancel_inside.cancel();
            }
            t * 2
        });
        assert_eq!(
            out,
            vec![
                Some(0),
                Some(2),
                Some(4),
                Some(6),
                None,
                None,
                None,
                None,
                None,
                None
            ]
        );
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn completed_prefix_is_deterministic_for_completed_tasks() {
        // Whatever subset completes under cancellation, each completed
        // task's result must equal the uncancelled run's result.
        let reference = map_with_workers((0..12usize).collect(), 1, |i, _| spin(9, i, 2_000));
        let cancel = CancelToken::new();
        let cancel_inside = cancel.clone();
        let partial = map_cancellable((0..12usize).collect(), 3, &cancel, move |i, _| {
            if i == 5 {
                cancel_inside.cancel();
            }
            spin(9, i, 2_000)
        });
        for (i, slot) in partial.iter().enumerate() {
            if let Some(v) = slot {
                assert_eq!(*v, reference[i], "task {i} diverged under cancellation");
            }
        }
    }

    #[test]
    fn two_workers_run_two_tasks_at_once() {
        // Each task counts itself in and waits, for a bounded time, until
        // the other has arrived too. Two workers that run at once both see
        // two arrivals; a pool that ran its tasks one after another would
        // time the first task out with one. Threads interleave on one core
        // as well, so this needs no second core and races no clock.
        let arrived = Mutex::new(0usize);
        let peer = std::sync::Condvar::new();
        let bound = std::time::Duration::from_secs(10);
        let met = map_with_workers(vec![(); 2], 2, |_, ()| {
            let mut count = arrived.lock().expect("no task panics holding the count");
            *count += 1;
            peer.notify_all();
            let (count, _) = peer
                .wait_timeout_while(count, bound, |count| *count < 2)
                .expect("no task panics holding the count");
            *count == 2
        });
        assert_eq!(met, vec![true, true], "the two tasks never ran at once");
    }
}
