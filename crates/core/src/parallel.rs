//! The engine's only threads, on `std::thread::scope` (the offline stubs
//! under `vendor/` have no `rayon`): [`fork`], which every two-thread build
//! phase uses — the parse, the substrate builds and the post-build audit —
//! and [`parallel_map_with`], [`crate::SedaEngine::execute_batch`]'s pool.
//!
//! Neither contains a panic of its own: a panic on another thread resumes
//! on the calling thread, where the build's `catch_internal` or the
//! reader's one boundary ([`crate::SedaReader::execute_governed`], which
//! also heals the reader before the next item) turns it into
//! [`crate::SedaError::Internal`].

use std::panic::resume_unwind;
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

/// Runs `first` and `second` and returns both results.  At `threads` ≥ 2
/// `second` runs on a scoped second thread while `first` runs on the calling
/// thread; at one, `first` runs and then `second`, inline.  A panic in
/// `second` resumes on the calling thread once `first` has returned.
pub(crate) fn fork<A, B>(
    threads: usize,
    first: impl FnOnce() -> A,
    second: impl FnOnce() -> B + Send,
) -> (A, B)
where
    B: Send,
{
    if threads < 2 {
        let a = first();
        return (a, second());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(second);
        let a = first();
        (a, worker.join().unwrap_or_else(|payload| resume_unwind(payload)))
    })
}

/// The cut of `sources` (name, XML text pairs) that leaves the XML text
/// before and after it closest to equal in bytes (the first such cut): `0`
/// puts every document after it, `sources.len()` every document before it.
pub(crate) fn byte_midpoint(sources: &[(&str, &str)]) -> usize {
    let total: usize = sources.iter().map(|(_, xml)| xml.len()).sum();
    let ends = sources.iter().scan(0, |bytes, (_, xml)| {
        *bytes += xml.len();
        Some(*bytes)
    });
    let before = std::iter::once(0).chain(ends);
    before
        .enumerate()
        .min_by_key(|&(_, bytes)| (2 * bytes).abs_diff(total))
        .map_or(0, |(cut, _)| cut)
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
            let local = handle.join().unwrap_or_else(|payload| resume_unwind(payload));
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
    fn fork_runs_first_then_second_inline_at_one_thread() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let task = |name: &'static str| {
            order.lock().unwrap().push(name);
            std::thread::current().id()
        };
        assert_eq!(fork(1, || task("first"), || task("second")), (caller, caller));
        assert_eq!(order.into_inner().unwrap(), ["first", "second"]);
    }

    #[test]
    fn fork_returns_both_results_at_two_threads() {
        let caller = std::thread::current().id();
        let task = |value: u8| (value, std::thread::current().id());
        let (first, second) = fork(2, || task(1), || task(2));
        assert_eq!(first, (1, caller));
        assert_eq!(second.0, 2);
        assert_ne!(second.1, caller, "the second task ran on a second thread");
    }

    #[test]
    fn a_panic_in_the_second_task_resumes_on_the_caller_with_its_payload() {
        for threads in [1, 2] {
            let unwound = std::panic::catch_unwind(|| {
                fork(threads, || 1, || -> u8 { std::panic::panic_any(String::from("second")) })
            });
            let payload = unwound.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("second"));
        }
    }

    #[test]
    fn the_cut_halves_the_bytes_in_document_order() {
        let text = "x".repeat(100);
        let doc = |len: usize| ("d.xml", &text[..len]);
        assert_eq!(byte_midpoint(&[]), 0);
        // One document: either side is as far from the midpoint; the first
        // cut wins, so the second task parses it.
        assert_eq!(byte_midpoint(&[doc(10)]), 0);
        assert_eq!(byte_midpoint(&[doc(10), doc(10)]), 1);
        // A document holding more than half the bytes stays whole, on the
        // side that leaves the two parts closest.
        assert_eq!(byte_midpoint(&[doc(10), doc(100), doc(10)]), 1);
        assert_eq!(byte_midpoint(&[doc(100), doc(10), doc(10)]), 1);
        assert_eq!(byte_midpoint(&[doc(10), doc(10), doc(100)]), 2);
        assert_eq!(byte_midpoint(&[doc(30), doc(10), doc(10), doc(10)]), 1);
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
