//! Scoped-thread helpers for the parallel model builders.
//!
//! Every `threads` knob in this workspace follows one convention: `0`
//! means "use [`std::thread::available_parallelism`]", any other value is
//! taken literally. [`for_each_chunk`] is the shared work-stealing loop:
//! dynamic chunk scheduling over an index range, with per-worker state so
//! workers never contend on shared output. Because chunk→worker assignment
//! depends on timing, callers must merge worker results in an
//! order-insensitive way (`neighborhood::build_pairwise` has each worker
//! compute whole rows and places them by index).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a `threads` knob: `0` → available parallelism, otherwise the
/// requested count.
pub fn effective_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process `0..n` in `chunk`-sized ranges spread dynamically over
/// `threads` workers. Each worker owns a `W` produced by `init`; all
/// worker states are returned (in worker order, which carries no
/// information — the range→worker assignment is nondeterministic, so the
/// caller's merge must be order-insensitive).
///
/// `threads <= 1` (or `n <= 1`) runs inline on the calling thread with no
/// spawns, so the serial path has zero threading overhead.
pub fn for_each_chunk<W, I, F>(n: usize, threads: usize, chunk: usize, init: I, work: F) -> Vec<W>
where
    W: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, Range<usize>) + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let chunk = chunk.max(1);
    if threads == 1 {
        let mut w = init();
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            work(&mut w, start..end);
            start = end;
        }
        return vec![w];
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut w = init();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        work(&mut w, start..end);
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("model-build worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_available_parallelism() {
        assert_eq!(
            effective_threads(0),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1, 2, 5, 16] {
            for n in [0, 1, 7, 100] {
                let worker_seen = for_each_chunk(n, threads, 3, Vec::new, |seen, range| {
                    seen.extend(range);
                });
                let mut all: Vec<usize> = worker_seen.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, (0..n).collect::<Vec<_>>(), "t={threads} n={n}");
            }
        }
    }

    #[test]
    fn serial_path_runs_inline_in_chunk_order() {
        let out = for_each_chunk(10, 1, 4, Vec::new, |v, range| v.push(range));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = for_each_chunk(2, 8, 1, || 0usize, |count, range| *count += range.len());
        assert_eq!(out.iter().sum::<usize>(), 2);
    }
}
