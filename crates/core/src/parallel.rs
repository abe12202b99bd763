//! Scoped worker-pool primitive for batch request execution.
//!
//! The workspace builds offline against the stubs under `vendor/`, so
//! instead of `rayon` this module implements the one primitive
//! [`crate::SedaEngine::execute_batch`] needs — an order-preserving parallel
//! map over a slice with per-worker state — on `std::thread::scope` with an
//! atomic work counter.
//!
//! The map contains no panics of its own: every request it runs crosses the
//! reader's one boundary ([`crate::SedaReader::execute_governed`]), which
//! turns a panic in planning or execution into [`crate::SedaError::Internal`]
//! and heals the reader before the next item.

use std::sync::atomic::{AtomicUsize, Ordering};

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
/// `threads <= 1` (or one item) the map runs inline over a single state.  A
/// panicking `f` unwinds through the scope to the caller.
pub(crate) fn parallel_map_with<T, S, C, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<S>
where
    T: Sync,
    S: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, &T) -> S + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<S>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local: Vec<(usize, S)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        local.push((index, f(&mut state, &items[index])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            let local = handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (index, value) in local {
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
        let out = parallel_map_with(
            &items,
            4,
            || 0usize,
            |seen, &x| {
                *seen += 1;
                (x * 2, *seen)
            },
        );
        let values: Vec<usize> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert!(out.iter().all(|&(_, seen)| seen >= 1));
    }

    #[test]
    fn map_with_runs_inline_on_one_thread() {
        let items = vec![1, 2, 3];
        let out = parallel_map_with(
            &items,
            1,
            || 10,
            |acc, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(out, vec![11, 13, 16], "one state threads through all items in order");
    }
}
