//! A std-only thread pool for deterministic fan-out over a fixed task list.
//!
//! Promoted out of the sweep engine (`lpmem-bench`) so any crate — the
//! sweep, the design-space explorer, the fleet, tests — can fan pure tasks
//! across worker threads without a dependency on the harness crate (or on
//! rayon/crossbeam: the build is hermetic).
//!
//! Every caller hands the pool a fixed `Vec`, so the scheduler is one
//! shared cursor: each worker claims the next unclaimed input index until
//! the cursor passes the end. A slow task holds back only its own worker;
//! the others keep claiming. Results land by input index, so **collection
//! order never depends on scheduling** — every function here returns its
//! output in input order at any worker count, which is the substrate
//! every byte-identical report in the workspace builds on.
//!
//! Three entry points: [`parallel_map`] for stateless tasks,
//! [`parallel_map_with`] for tasks that thread a per-worker state, and
//! [`try_parallel_map_with`], which hands back each task's panic as a
//! [`TaskPanic`] value instead of re-raising it.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A task body that panicked instead of returning a result.
///
/// The pool catches per-task panics with `catch_unwind` so one poisoned
/// task cannot abort a whole campaign. The record carries the input
/// `index` of the task and the rendered panic payload, so reports built
/// from it are byte-identical at any worker count (index order is a
/// property of the input, not of scheduling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input position of the task that panicked.
    pub index: usize,
    /// Rendered panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Applies `f` to every item on `workers` threads, preserving input order
/// in the output. `workers <= 1` runs inline with no threads.
///
/// If any task panics, every remaining task still runs, and then the
/// panic with the lowest input index is re-raised — the same one at any
/// worker count.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, workers, |_: &mut (), item| f(item)).0
}

/// Maps `f` over the items with a **mutable per-worker state** threaded
/// through every call — the shape a sharded memo table needs: each worker
/// accumulates into its own shard with no cross-thread locking, and the
/// caller merges the shards deterministically afterwards.
///
/// Returns `(results, states)`: results in **input order** (independent
/// of scheduling, like [`parallel_map`]) and one state per worker in
/// **worker-index order** — also scheduling-independent, though *which*
/// entries land in which state is not. Any deterministic merge of the
/// states (e.g. folding maps whose values are pure functions of their
/// keys) therefore yields a scheduling-independent aggregate.
///
/// Panic semantics match [`parallel_map`]: every remaining task still
/// runs, then the panic with the lowest input index is re-raised.
pub fn parallel_map_with<T, R, S, F>(items: Vec<T>, workers: usize, f: F) -> (Vec<R>, Vec<S>)
where
    T: Send,
    R: Send,
    S: Default + Send,
    F: Fn(&mut S, T) -> R + Sync,
{
    let (results, states) = try_parallel_map_with(items, workers, f);
    let results = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("task {} panicked: {}", p.index, p.message)))
        .collect();
    (results, states)
}

/// Like [`parallel_map_with`], but surfaces each task's outcome as a
/// value: `Ok(result)` for tasks that returned, `Err(TaskPanic)` for tasks
/// that panicked. A panicking task leaves its worker's state as the task
/// left it and the worker goes on claiming. Results are in input order at
/// any worker count.
pub fn try_parallel_map_with<T, R, S, F>(
    items: Vec<T>,
    workers: usize,
    f: F,
) -> (Vec<Result<R, TaskPanic>>, Vec<S>)
where
    T: Send,
    R: Send,
    S: Default + Send,
    F: Fn(&mut S, T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    let items: Vec<Slot<T>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outcomes: Vec<Slot<Result<R, TaskPanic>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || claim_until_done(&items, &outcomes, &cursor, &f);
    let states = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked outside a task"))
                .collect()
        })
    };
    let outcomes = outcomes
        .into_iter()
        .map(|slot| take(&slot).expect("the cursor hands out every index exactly once"))
        .collect();
    (outcomes, states)
}

/// An input item before its worker claims it, or a task outcome once its
/// worker stores it. Each slot is touched by exactly one worker.
type Slot<X> = Mutex<Option<X>>;

fn take<X>(slot: &Slot<X>) -> Option<X> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
}

/// One worker's loop: claim the next input index from the shared cursor,
/// run its task under `catch_unwind`, store the outcome in that index's
/// slot, and stop once the cursor passes the end. Returns the worker's
/// state.
fn claim_until_done<T, R, S, F>(
    items: &[Slot<T>],
    outcomes: &[Slot<Result<R, TaskPanic>>],
    cursor: &AtomicUsize,
    f: &F,
) -> S
where
    S: Default,
    F: Fn(&mut S, T) -> R,
{
    let mut state = S::default();
    loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = items.get(index) else {
            return state;
        };
        let item = take(slot).expect("the cursor hands out every index exactly once");
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut state, item))).map_err(|payload| {
                TaskPanic {
                    index,
                    message: panic_message(payload),
                }
            });
        *outcomes[index]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_runs_every_item() {
        let items: Vec<u64> = (0..500).collect();
        let calls = AtomicUsize::new(0);
        let out = parallel_map(items.clone(), 8, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * 3 + 1
        });
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_edge_worker_counts() {
        for workers in [0, 1, 2, 64] {
            let out = parallel_map(vec![10u32, 20, 30], workers, |x| x + 1);
            assert_eq!(out, vec![11, 21, 31], "workers={workers}");
        }
        let empty: Vec<u32> = parallel_map(Vec::new(), 4, |x: u32| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn one_slow_task_does_not_hold_back_the_others() {
        // Item 0 waits until every other item has finished, so the second
        // worker must drain the rest meanwhile. The wait is bounded (about
        // 30 s), so a regression fails instead of hanging.
        const N: usize = 64;
        let finished = AtomicUsize::new(0);
        let out = parallel_map((0..N).collect::<Vec<_>>(), 2, |i| {
            if i > 0 {
                finished.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            for _ in 0..30_000 {
                if finished.load(Ordering::SeqCst) == N - 1 {
                    return true;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        });
        assert!(
            out[0],
            "item 0 timed out waiting for the other {} items",
            N - 1
        );
    }

    /// A panic hook that swallows the default stderr backtrace chatter for
    /// the duration of a closure, so panic-isolation tests stay quiet. The
    /// hook is process-global, so concurrent callers are serialized.
    fn with_quiet_panics<R>(body: impl FnOnce() -> R) -> R {
        static HOOK: Mutex<()> = Mutex::new(());
        let _guard = HOOK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = body();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn panicking_task_yields_error_record_not_abort() {
        for workers in [1, 2, 8] {
            let out = with_quiet_panics(|| {
                try_parallel_map_with((0..100u32).collect::<Vec<_>>(), workers, |_: &mut (), x| {
                    if x == 37 {
                        panic!("injected failure on {x}");
                    }
                    x * 2
                })
                .0
            });
            assert_eq!(out.len(), 100, "workers={workers}");
            for (i, slot) in out.iter().enumerate() {
                if i == 37 {
                    assert_eq!(
                        slot,
                        &Err(TaskPanic {
                            index: 37,
                            message: "injected failure on 37".to_owned()
                        }),
                        "workers={workers}"
                    );
                } else {
                    assert_eq!(slot, &Ok(i as u32 * 2), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn parallel_map_propagates_lowest_index_panic() {
        // Two tasks panic; whichever worker hits one first must not decide
        // the propagated message — the lowest input index always wins.
        for workers in [1, 2, 8] {
            let caught = with_quiet_panics(|| {
                std::panic::catch_unwind(|| {
                    parallel_map((0..64u32).collect::<Vec<_>>(), workers, |x| {
                        if x == 11 || x == 52 {
                            panic!("boom {x}");
                        }
                        x
                    })
                })
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("rendered message")
                .clone();
            assert_eq!(msg, "task 11 panicked: boom 11", "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_with_threads_state_and_preserves_order() {
        for workers in [1, 2, 8] {
            let (results, states): (Vec<u64>, Vec<Vec<u64>>) = parallel_map_with(
                (0..300u64).collect::<Vec<_>>(),
                workers,
                |seen: &mut Vec<u64>, x| {
                    seen.push(x);
                    x * 2
                },
            );
            assert_eq!(
                results,
                (0..300u64).map(|x| x * 2).collect::<Vec<_>>(),
                "workers={workers}"
            );
            // The states partition the input: every item lands in exactly
            // one worker's shard.
            let mut all: Vec<u64> = states.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..300u64).collect::<Vec<_>>(), "workers={workers}");
            assert!(states.len() <= workers.max(1), "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_with_propagates_lowest_index_panic() {
        for workers in [1, 2, 8] {
            let caught = with_quiet_panics(|| {
                std::panic::catch_unwind(|| {
                    parallel_map_with::<_, u32, u64, _>(
                        (0..64u32).collect::<Vec<_>>(),
                        workers,
                        |count, x| {
                            *count += 1;
                            if x == 9 || x == 40 {
                                panic!("boom {x}");
                            }
                            x
                        },
                    )
                })
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("rendered message")
                .clone();
            assert_eq!(msg, "task 9 panicked: boom 9", "workers={workers}");
        }
    }

    #[test]
    fn try_parallel_map_with_is_byte_identical_across_worker_counts() {
        let run = |workers| {
            with_quiet_panics(|| {
                try_parallel_map_with((0..200u64).collect::<Vec<_>>(), workers, |_: &mut (), x| {
                    if x % 41 == 0 {
                        panic!("divisible {x}");
                    }
                    x + 7
                })
                .0
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }
}
