//! Reusable scratch buffers for the id-space engines.
//!
//! The compiled closure and completion engines work almost entirely on
//! fixed-width bitset rows (`Vec<u64>` of `words` length). Allocating
//! those rows per step would make every `Imp`-fixpoint iteration pay for
//! a fresh `reached` row, a fresh `MinS` row and a fresh hash-map key.
//! The pool below recycles rows within and across calls instead (it is
//! thread-local, so every thread that merges — each daemon connection,
//! say — has its own, lock-free), and `StateArena` packs the fixpoint's
//! discovered states into one flat allocation instead of one `Vec` per
//! state.
//!
//! The pool is an optimization, never a semantics change: a row taken
//! from the pool is always zeroed, exactly like a fresh
//! `vec![0u64; words]`. There is no unpooled mode. The bench suite's
//! counting allocator (`crates/bench/src/perf.rs`) records every
//! record's allocations per iteration, and the bench guard fails a
//! change that lets the pooled fixpoint's count grow.

use std::cell::RefCell;

/// Rows kept per thread; beyond this, [`ScratchPool::put`] drops the row
/// instead of growing the cache without bound. Sized for the widest
/// realistic recycle (one raw arrow row per `(class, label)` pair of a
/// large schema, returned when its closure is built): at 8 words a
/// row, the worst-case thread-local footprint is ~0.5 MB.
const MAX_POOLED_ROWS: usize = 8192;

/// A free list of bitset rows. Rows of any historical width live in one
/// list; `take` resizes to the requested width (widths within one merge
/// are nearly always identical, so this is a plain pop in practice).
#[derive(Default)]
pub(crate) struct ScratchPool {
    rows: Vec<Vec<u64>>,
}

impl ScratchPool {
    /// A zeroed row of `words` words — identical to `vec![0u64; words]`
    /// but recycled when the pool has a free row.
    pub(crate) fn take(&mut self, words: usize) -> Vec<u64> {
        match self.rows.pop() {
            Some(mut row) => {
                row.clear();
                row.resize(words, 0);
                row
            }
            None => vec![0u64; words],
        }
    }

    /// Returns a row to the pool for reuse.
    pub(crate) fn put(&mut self, row: Vec<u64>) {
        if self.rows.len() < MAX_POOLED_ROWS {
            self.rows.push(row);
        }
    }
}

thread_local! {
    static POOL: RefCell<ScratchPool> = RefCell::new(ScratchPool::default());
}

/// Runs `f` with this thread's scratch pool.
///
/// Re-entrant use would panic on the `RefCell`; the engines only call
/// this at non-nested points (and the pool is never held across a call
/// into user code).
pub(crate) fn with_pool<R>(f: impl FnOnce(&mut ScratchPool) -> R) -> R {
    POOL.with(|pool| f(&mut pool.borrow_mut()))
}

/// Fixed-width bitset rows packed into one flat allocation — the
/// fixpoint's state store. Row `i` lives at `bits[i*words..][..words]`.
pub(crate) struct StateArena {
    words: usize,
    bits: Vec<u64>,
}

impl StateArena {
    pub(crate) fn new(words: usize) -> Self {
        StateArena {
            words,
            bits: Vec::new(),
        }
    }

    /// Number of rows stored.
    pub(crate) fn len(&self) -> usize {
        self.bits.len().checked_div(self.words).unwrap_or(0)
    }

    /// Appends a row, returning its index.
    pub(crate) fn push(&mut self, row: &[u64]) -> u32 {
        debug_assert_eq!(row.len(), self.words);
        let index = self.len() as u32;
        self.bits.extend_from_slice(row);
        index
    }

    /// The row at `index`.
    pub(crate) fn get(&self, index: u32) -> &[u64] {
        &self.bits[index as usize * self.words..][..self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_rows_come_back_zeroed_and_resized() {
        let mut pool = ScratchPool::default();
        let mut row = pool.take(2);
        assert_eq!(row, vec![0, 0]);
        row[0] = u64::MAX;
        pool.put(row);
        let row = pool.take(3);
        assert_eq!(row, vec![0, 0, 0], "recycled rows are zeroed");
        let row2 = pool.take(1);
        assert_eq!(row2, vec![0]);
    }

    #[test]
    fn arena_stores_and_retrieves_rows() {
        let mut arena = StateArena::new(2);
        assert_eq!(arena.len(), 0);
        let a = arena.push(&[1, 2]);
        let b = arena.push(&[3, 4]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.get(0), &[1, 2]);
        assert_eq!(arena.get(1), &[3, 4]);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn zero_width_arena_is_empty() {
        let mut arena = StateArena::new(0);
        arena.push(&[]);
        assert_eq!(arena.len(), 0, "zero-width rows are indistinguishable");
    }
}
