//! Scoped worker-pool primitive for batch request execution.
//!
//! The workspace builds offline against the stubs under `vendor/`, so
//! instead of `rayon` this module implements the one primitive
//! [`crate::SedaEngine::execute_batch`] needs — an order-preserving parallel
//! map over a slice with per-worker state — on `std::thread::scope` with an
//! atomic work counter.
//!
//! The map **contains panics**: a panicking closure never unwinds through
//! the pool or kills the process.  Requests are independent, so
//! [`parallel_map_with`] isolates each item, reporting per-item `Result`s
//! and rebuilding the worker's state via `init` after a panic so one
//! poisoned request cannot corrupt its neighbours' scratch.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A contained panic from a worker closure: which item's closure panicked
/// and the panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload (`&str` / `String` payloads verbatim, a placeholder
    /// otherwise).
    pub message: String,
}

/// Renders a `catch_unwind` payload as text.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of worker threads to use for a configured parallelism value:
/// `0` resolves to the machine's available parallelism, anything else is
/// taken literally.
pub(crate) fn effective_parallelism(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        configured
    }
}

/// Applies `f` to every item of `items` using up to `threads` worker threads
/// and returns the results in item order; every worker thread first creates
/// its own state via `init` and threads it through all items it processes.
///
/// This is the primitive behind [`crate::SedaEngine::execute_batch`]: `init`
/// builds one [`crate::SedaReader`] per worker, so concurrent requests reuse
/// per-thread scratch buffers without any shared locking.  With
/// `threads <= 1` (or one item) the map runs inline over a single state.
///
/// Items are isolated from each other's failures: a panicking closure yields
/// `Err(WorkerPanic)` **for that item only**, the worker discards its
/// (possibly corrupted) state and re-`init`s before the next item, and every
/// other item completes normally.
pub(crate) fn parallel_map_with<T, S, C, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    f: F,
) -> Vec<Result<S, WorkerPanic>>
where
    T: Sync,
    S: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, &T) -> S + Sync,
{
    let run_one = |state: &mut Option<C>, index: usize, item: &T| -> Result<S, WorkerPanic> {
        if state.is_none() {
            match catch_unwind(AssertUnwindSafe(&init)) {
                Ok(fresh) => *state = Some(fresh),
                Err(payload) => return Err(WorkerPanic { index, message: panic_message(payload) }),
            }
        }
        let Some(current) = state.as_mut() else {
            return Err(WorkerPanic { index, message: "worker state unavailable".to_string() });
        };
        match catch_unwind(AssertUnwindSafe(|| f(current, item))) {
            Ok(value) => Ok(value),
            Err(payload) => {
                // The closure may have left the state half-updated; drop it
                // and re-init for the next item.
                *state = None;
                Err(WorkerPanic { index, message: panic_message(payload) })
            }
        }
    };

    let threads = threads.min(items.len());
    if threads <= 1 {
        let mut state: Option<C> = None;
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| run_one(&mut state, index, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<S, WorkerPanic>>> =
        std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state: Option<C> = None;
                    let mut local: Vec<(usize, Result<S, WorkerPanic>)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        local.push((index, run_one(&mut state, index, &items[index])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // Workers catch panics per item, so join only fails on a bug in
            // this module; propagating that panic is the right response.
            #[allow(clippy::expect_used)]
            for (index, value) in handle
                .join()
                .expect("invariant: workers catch panics as values, the thread never unwinds")
            {
                slots[index] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("invariant: the atomic counter hands out every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwrap_all<S>(results: Vec<Result<S, WorkerPanic>>) -> Vec<S> {
        results.into_iter().map(|r| r.expect("no panic expected")).collect()
    }

    #[test]
    fn effective_parallelism_resolves_auto() {
        assert!(effective_parallelism(0) >= 1);
        assert_eq!(effective_parallelism(3), 3);
    }

    #[test]
    fn map_with_threads_per_worker_state() {
        let items: Vec<usize> = (0..100).collect();
        // Each worker counts how many items it processed through its own
        // state; results must still be in item order.
        let out = unwrap_all(parallel_map_with(
            &items,
            4,
            || 0usize,
            |seen, &x| {
                *seen += 1;
                (x * 2, *seen)
            },
        ));
        let values: Vec<usize> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert!(out.iter().all(|&(_, seen)| seen >= 1));
    }

    #[test]
    fn map_with_runs_inline_on_one_thread() {
        let items = vec![1, 2, 3];
        let out = unwrap_all(parallel_map_with(
            &items,
            1,
            || 10,
            |acc, &x| {
                *acc += x;
                *acc
            },
        ));
        assert_eq!(out, vec![11, 13, 16], "one state threads through all items in order");
    }

    #[test]
    fn map_with_isolates_panics_and_reinits_worker_state() {
        let items: Vec<usize> = (0..8).collect();
        for threads in [1usize, 3] {
            let out = parallel_map_with(
                &items,
                threads,
                || 0usize,
                |seen, &x| {
                    *seen += 1;
                    if x == 3 {
                        panic!("item 3 is poison");
                    }
                    (x, *seen)
                },
            );
            for (i, result) in out.iter().enumerate() {
                if i == 3 {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(err.index, 3);
                    assert!(err.message.contains("poison"));
                } else {
                    let &(x, _) = result.as_ref().expect("other items must succeed");
                    assert_eq!(x, i);
                }
            }
            // The worker that hit the panic rebuilt its state: on the inline
            // path, the item after the poison starts a fresh count.
            if threads == 1 {
                let (_, seen_after) = *out[4].as_ref().unwrap();
                assert_eq!(seen_after, 1, "state is re-initialised after a panic");
            }
        }
    }
}
