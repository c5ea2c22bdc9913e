//! Thread plumbing for the compiled merge engine.
//!
//! The paper proves the merge is a least upper bound, so n-ary joins are
//! associative and commutative: the reduction order of `weak_join` is
//! semantically free, and so is *who* computes each piece. The compiled
//! engine ([`crate::merger::PlannedEngine::Compiled`]) exploits that
//! freedom with `std::thread::scope` workers, but every parallel pass is
//! written so the result is **bit-identical at every thread count**,
//! `threads(1)` included:
//!
//! * work is split into *contiguous, deterministic* chunks
//!   (`chunk_ranges`) — never work-stealing, so the assignment of item
//!   to chunk depends only on the input;
//! * workers only ever *produce* (partial dense parts, candidate
//!   fixpoint states, CSR segments); all *merging* of worker output
//!   happens on the calling thread, in chunk order, through the same
//!   dedup/ordering logic the sequential path uses.
//!
//! Thread counts are a cost choice, never a semantics choice — exactly
//! like the engine choice itself.

/// The number of worker threads to actually use for `requested` threads
/// over `items` units of splittable work: at least one, at most one per
/// item.
pub(crate) fn effective_threads(requested: usize, items: usize) -> usize {
    requested.clamp(1, items.max(1))
}

/// [`effective_threads`], additionally requiring at least
/// `min_per_thread` items per worker: spawning a scoped thread costs
/// tens of microseconds, so small work lists run inline no matter the
/// requested budget. Deterministic in its inputs (and thread counts
/// never change results anyway).
pub(crate) fn throttled_threads(requested: usize, items: usize, min_per_thread: usize) -> usize {
    let saturation = items / min_per_thread.max(1);
    effective_threads(requested.min(saturation.max(1)), items)
}

/// The thread count a [`crate::Merger`] resolves when the caller did not
/// fix one: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Splits `0..len` into up to `threads` contiguous near-even ranges (the
/// first `len % threads` ranges are one longer). Deterministic in
/// `(len, threads)`; empty ranges are never produced.
pub(crate) fn chunk_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = effective_threads(threads, len);
    if len == 0 {
        return Vec::new();
    }
    let base = len / threads;
    let extra = len % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Maps `f` over the chunks of `0..len` on up to `threads` scoped
/// workers, returning the per-chunk results **in chunk order**. With one
/// chunk the closure runs inline — no thread is spawned, so the
/// single-thread path has zero scheduling overhead (and borrows no
/// `Send` bound it does not need anyway, since `f` crosses threads only
/// when chunks > 1).
pub(crate) fn map_chunks<R: Send>(
    len: usize,
    threads: usize,
    f: impl Fn(std::ops::Range<usize>) -> R + Sync,
) -> Vec<R> {
    let ranges = chunk_ranges(len, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || f(range)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("compiled engine worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly_without_empties() {
        for len in 0..40 {
            for threads in 1..10 {
                let ranges = chunk_ranges(len, threads);
                let mut next = 0;
                for range in &ranges {
                    assert_eq!(range.start, next);
                    assert!(!range.is_empty());
                    next = range.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn effective_threads_clamps_both_ends() {
        assert_eq!(effective_threads(0, 10), 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(4, 0), 1);
        assert_eq!(effective_threads(2, 100), 2);
    }

    #[test]
    fn map_chunks_is_order_preserving_at_any_thread_count() {
        let len = 23;
        let expected: Vec<usize> = chunk_ranges(len, 1).into_iter().map(|r| r.sum()).collect();
        let expected_sum: usize = expected.iter().sum();
        for threads in [1, 2, 4, 8] {
            let sums = map_chunks(len, threads, |range| range.sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), expected_sum);
            // Chunk results arrive in chunk order: concatenating the
            // chunk ranges re-yields 0..len.
            let ranges = chunk_ranges(len, threads);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
    }
}
