//! Shared bitset-row primitives and the adaptive row representation.
//!
//! Every id-space engine works on *rows*: sets of [`ClassId`]s encoding
//! "the classes above `p`", "the targets of `p`'s `a`-arrows", or an
//! `Imp`-fixpoint state. Historically each row was a dense `Vec<u64>`
//! bitset and the word-twiddling helpers (`set_bit`, `or_into`,
//! `intersects`, …) were private to [`crate::compile`]; this module is
//! now the single home of those primitives, shared by the closure
//! engine, the join, the fixpoint, the scratch pool and the registry's
//! held joins.
//!
//! On top of the dense primitives it provides `SpecRow`, the
//! **adaptive** row: dense `u64` words below a density/size threshold,
//! sorted `u32` ids above it. A 50 000-class schema costs ~6.1 KB per
//! dense row — ~312 MB per closure matrix — while real taxonomy rows
//! hold a few dozen ancestors; storing those as sorted ids is the
//! difference between "fits in cache" and "fits in nothing". The
//! representation is chosen **per row** by `use_sparse_rep`: sparse
//! exactly when the schema is wide enough (`SPARSE_MIN_WORDS`) *and*
//! the id form is smaller than the word form. Equality of `SpecRow`s
//! is logical (set equality), never representational, so engines remain
//! free to pick either form without perturbing schema equality.
//!
//! [`ClassId`]: crate::compile::ClassId

use std::cell::Cell;

// ---------------------------------------------------------------------------
// Dense-row primitives (the historical free functions, now shared)
// ---------------------------------------------------------------------------

/// Sets bit `i` of a dense row.
#[inline]
pub(crate) fn set_bit(row: &mut [u64], i: u32) {
    row[(i / 64) as usize] |= 1u64 << (i % 64);
}

/// Clears bit `i` of a dense row.
#[inline]
pub(crate) fn clear_bit(row: &mut [u64], i: u32) {
    row[(i / 64) as usize] &= !(1u64 << (i % 64));
}

/// Tests bit `i` of a dense row.
#[inline]
pub(crate) fn get_bit(row: &[u64], i: u32) -> bool {
    row[(i / 64) as usize] >> (i % 64) & 1 == 1
}

/// `dst |= src`, word-wise over the common prefix.
#[inline]
pub(crate) fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// `dst &= src`, word-wise over the common prefix.
#[inline]
pub(crate) fn and_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

/// Whether two dense rows share any set bit.
#[inline]
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Whether a dense row is all zeros.
pub(crate) fn is_zero(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// Number of set bits in a dense row.
pub(crate) fn popcount(row: &[u64]) -> u32 {
    row.iter().map(|w| w.count_ones()).sum()
}

/// FNV-1a over a dense row, word-wise — the dedup key of the fixpoint's
/// state table (full rows are compared on hash collision).
pub(crate) fn hash_row(row: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &word in row {
        hash ^= word;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Iterates the set bit positions of a dense row in ascending order.
pub(crate) fn iter_bits(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
    row.iter().enumerate().flat_map(|(word, &bits)| BitIter {
        bits,
        base: (word * 64) as u32,
    })
}

pub(crate) struct BitIter {
    bits: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.bits == 0 {
            return None;
        }
        let tz = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.base + tz)
    }
}

// ---------------------------------------------------------------------------
// Representation policy
// ---------------------------------------------------------------------------

/// Rows narrower than this many words are always dense: at 64 words
/// (4 096 classes, 512 bytes a row) the dense form is already cheap, and
/// small schemas keep the branch-free hot path they had before adaptive
/// rows existed.
pub(crate) const SPARSE_MIN_WORDS: usize = 64;

thread_local! {
    /// Benchmark escape hatch: forces every row dense so the memory and
    /// speed of the historical all-dense representation can be measured
    /// honestly. `true` (adaptive) by default.
    static SPARSE_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Enables or disables the sparse row representation on the calling
/// thread — **for benchmarking only**. A merge runs entirely on its
/// calling thread, so the setting covers exactly the merges this thread
/// runs. Representation is an encoding choice, never a semantics
/// choice, so results are identical either way; only footprint and
/// speed move.
#[doc(hidden)]
pub fn set_sparse_enabled(enabled: bool) {
    SPARSE_ENABLED.set(enabled);
}

fn sparse_enabled() -> bool {
    SPARSE_ENABLED.get()
}

/// The per-row representation policy: sorted-sparse ids exactly when the
/// row is wide enough to matter and the id form (4 bytes an id) is
/// smaller than the word form (8 bytes a word).
#[inline]
pub(crate) fn use_sparse_rep(count: usize, words: usize) -> bool {
    // Width first: below the floor the thread-local is never read.
    words >= SPARSE_MIN_WORDS && count * 2 < words && sparse_enabled()
}

/// Whether rows of `words` words should *accumulate* sparsely (before
/// their final population is known): schema-level width is the only
/// signal available at that point.
#[inline]
pub(crate) fn accumulate_sparse(words: usize) -> bool {
    words >= SPARSE_MIN_WORDS && sparse_enabled()
}

// ---------------------------------------------------------------------------
// RowRef: one read surface over both representations
// ---------------------------------------------------------------------------

/// A borrowed row in either representation — the argument type of every
/// representation-agnostic consumer (closure, join, fixpoint,
/// `assemble_ids`).
#[derive(Clone, Copy)]
pub(crate) enum RowRef<'a> {
    /// Dense words.
    Dense(&'a [u64]),
    /// Sorted, deduplicated set-bit ids.
    Sparse(&'a [u32]),
}

impl<'a> RowRef<'a> {
    /// Iterates the set ids in ascending order.
    pub(crate) fn iter(self) -> RowIter<'a> {
        match self {
            RowRef::Dense(words) => RowIter::Dense {
                words,
                word: 0,
                bits: words.first().copied().unwrap_or(0),
            },
            RowRef::Sparse(ids) => RowIter::Sparse(ids.iter()),
        }
    }

    /// Tests membership of `i`.
    pub(crate) fn test(self, i: u32) -> bool {
        match self {
            RowRef::Dense(words) => get_bit(words, i),
            RowRef::Sparse(ids) => ids.binary_search(&i).is_ok(),
        }
    }

    /// Number of set ids.
    pub(crate) fn popcount(self) -> u32 {
        match self {
            RowRef::Dense(words) => popcount(words),
            RowRef::Sparse(ids) => ids.len() as u32,
        }
    }

    /// Whether no id is set.
    pub(crate) fn is_empty(self) -> bool {
        match self {
            RowRef::Dense(words) => is_zero(words),
            RowRef::Sparse(ids) => ids.is_empty(),
        }
    }

    /// `dst |= self` into a dense row. Sparse ids beyond `dst`'s width
    /// would be a logic error upstream (rows never outgrow their
    /// schema), mirrored by the dense arm's prefix zip.
    pub(crate) fn or_into_dense(self, dst: &mut [u64]) {
        match self {
            RowRef::Dense(words) => or_into(dst, words),
            RowRef::Sparse(ids) => {
                for &id in ids {
                    set_bit(dst, id);
                }
            }
        }
    }

    /// Whether `self` and a dense row share any id.
    pub(crate) fn intersects_dense(self, other: &[u64]) -> bool {
        match self {
            RowRef::Dense(words) => intersects(words, other),
            RowRef::Sparse(ids) => ids
                .iter()
                .any(|&id| ((id / 64) as usize) < other.len() && get_bit(other, id)),
        }
    }

    /// Whether every set bit of the dense `state` is set in `self` —
    /// `state ⊆ self`.
    pub(crate) fn contains_all_dense(self, state: &[u64]) -> bool {
        match self {
            RowRef::Dense(words) => state.iter().zip(words).all(|(s, r)| s & !r == 0),
            RowRef::Sparse(ids) => iter_bits(state).all(|b| ids.binary_search(&b).is_ok()),
        }
    }
}

/// Iterator over a [`RowRef`]'s ids, ascending.
pub(crate) enum RowIter<'a> {
    Dense {
        words: &'a [u64],
        word: usize,
        bits: u64,
    },
    Sparse(std::slice::Iter<'a, u32>),
}

impl Iterator for RowIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            RowIter::Dense { words, word, bits } => loop {
                if *bits != 0 {
                    let tz = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some((*word * 64) as u32 + tz);
                }
                *word += 1;
                if *word >= words.len() {
                    return None;
                }
                *bits = words[*word];
            },
            RowIter::Sparse(ids) => ids.next().copied(),
        }
    }
}

// ---------------------------------------------------------------------------
// SpecRow: the owned adaptive row
// ---------------------------------------------------------------------------

/// An owned set of class ids in whichever representation
/// [`use_sparse_rep`] picked — the storage cell of closure matrices and
/// raw-arrow accumulation. See the module docs for the policy.
#[derive(Clone, Debug)]
pub(crate) enum SpecRow {
    /// Dense words.
    Dense(Vec<u64>),
    /// Sorted, deduplicated set-bit ids.
    Sparse(Vec<u32>),
}

impl SpecRow {
    /// An empty row for a schema of `words` words, in the accumulation
    /// representation ([`accumulate_sparse`]).
    pub(crate) fn empty(words: usize) -> SpecRow {
        if accumulate_sparse(words) {
            SpecRow::Sparse(Vec::new())
        } else {
            SpecRow::Dense(vec![0u64; words])
        }
    }

    /// Builds a row from a dense scratch row, choosing the final
    /// representation adaptively.
    pub(crate) fn from_dense(row: &[u64], words: usize) -> SpecRow {
        let count = popcount(row) as usize;
        if use_sparse_rep(count, words) {
            SpecRow::Sparse(iter_bits(row).collect())
        } else {
            let mut dense = row.to_vec();
            dense.resize(words, 0);
            SpecRow::Dense(dense)
        }
    }

    /// Builds a row from already-sorted, deduplicated ids.
    pub(crate) fn from_sorted_ids(ids: Vec<u32>, words: usize) -> SpecRow {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        if use_sparse_rep(ids.len(), words) {
            SpecRow::Sparse(ids)
        } else {
            let mut dense = vec![0u64; words];
            for &id in &ids {
                set_bit(&mut dense, id);
            }
            SpecRow::Dense(dense)
        }
    }

    /// The borrowed view.
    #[inline]
    pub(crate) fn as_ref(&self) -> RowRef<'_> {
        match self {
            SpecRow::Dense(words) => RowRef::Dense(words),
            SpecRow::Sparse(ids) => RowRef::Sparse(ids),
        }
    }

    /// Sets id `i`. Sparse rows keep sorted order by insertion; the
    /// engines' construction paths emit ids in ascending order almost
    /// everywhere, so the insert is an append in practice.
    pub(crate) fn set(&mut self, i: u32) {
        match self {
            SpecRow::Dense(words) => set_bit(words, i),
            SpecRow::Sparse(ids) => {
                if let Err(at) = ids.binary_search(&i) {
                    ids.insert(at, i);
                }
            }
        }
    }

    /// `self |= other` (set union), preserving `self`'s representation.
    pub(crate) fn or_row(&mut self, other: RowRef<'_>) {
        match self {
            SpecRow::Dense(words) => other.or_into_dense(words),
            SpecRow::Sparse(ids) => match other {
                RowRef::Sparse(rhs) => {
                    if rhs.is_empty() {
                        return;
                    }
                    let merged = merge_sorted_ids(ids, rhs);
                    *ids = merged;
                }
                RowRef::Dense(words) => {
                    let merged = merge_sorted_iter(ids, iter_bits(words));
                    *ids = merged;
                }
            },
        }
    }

    /// Consumes the row, recycling a dense payload into `pool` (sparse
    /// payloads are ordinary small vectors, not pool material).
    pub(crate) fn recycle(self, pool: &mut crate::scratch::ScratchPool) {
        if let SpecRow::Dense(words) = self {
            pool.put(words);
        }
    }

    pub(crate) fn iter(&self) -> RowIter<'_> {
        self.as_ref().iter()
    }

    pub(crate) fn popcount(&self) -> u32 {
        self.as_ref().popcount()
    }
}

/// Logical (set) equality: representation never influences schema
/// equality, so a sparse row equals the dense row with the same ids.
impl PartialEq for SpecRow {
    fn eq(&self, other: &SpecRow) -> bool {
        match (self, other) {
            (SpecRow::Dense(a), SpecRow::Dense(b)) => {
                let common = a.len().min(b.len());
                a[..common] == b[..common] && is_zero(&a[common..]) && is_zero(&b[common..])
            }
            (SpecRow::Sparse(a), SpecRow::Sparse(b)) => a == b,
            (mixed_a, mixed_b) => mixed_a.iter().eq(mixed_b.iter()),
        }
    }
}

impl Eq for SpecRow {}

fn merge_sorted_ids(a: &[u32], b: &[u32]) -> Vec<u32> {
    merge_sorted_iter(a, b.iter().copied())
}

fn merge_sorted_iter(a: &[u32], b: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut left = a.iter().copied().peekable();
    let mut right = b.peekable();
    loop {
        match (left.peek(), right.peek()) {
            (Some(&l), Some(&r)) => {
                if l < r {
                    out.push(l);
                    left.next();
                } else if r < l {
                    out.push(r);
                    right.next();
                } else {
                    out.push(l);
                    left.next();
                    right.next();
                }
            }
            (Some(&l), None) => {
                out.push(l);
                left.next();
            }
            (None, Some(&r)) => {
                out.push(r);
                right.next();
            }
            (None, None) => break,
        }
    }
    out
}

// ---------------------------------------------------------------------------
// SpecMatrix: one adaptive row per class
// ---------------------------------------------------------------------------

/// A rectangular matrix of [`SpecRow`]s — the storage of the compiled
/// schema's closed `supers`/`subs` relations and of every direct-edge
/// accumulation. Row `i` is the id set of class `i`'s relation partners;
/// each row picks its own representation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SpecMatrix {
    words: usize,
    rows: Vec<SpecRow>,
}

impl SpecMatrix {
    /// `rows` empty rows of `words` words each, in the accumulation
    /// representation.
    pub(crate) fn new(rows: usize, words: usize) -> Self {
        SpecMatrix {
            words,
            rows: (0..rows).map(|_| SpecRow::empty(words)).collect(),
        }
    }

    /// Builds a matrix from finished rows (all of `words` width).
    pub(crate) fn from_rows(rows: Vec<SpecRow>, words: usize) -> Self {
        SpecMatrix { words, rows }
    }

    /// Dense row width in words.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The borrowed view of row `i`.
    #[inline]
    pub(crate) fn row(&self, i: u32) -> RowRef<'_> {
        self.rows[i as usize].as_ref()
    }

    /// The owned row `i`, mutably.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: u32) -> &mut SpecRow {
        &mut self.rows[i as usize]
    }

    /// Sets bit `(i, j)`.
    #[inline]
    pub(crate) fn set(&mut self, i: u32, j: u32) {
        self.rows[i as usize].set(j);
    }

    /// Tests bit `(i, j)`.
    #[inline]
    pub(crate) fn get(&self, i: u32, j: u32) -> bool {
        self.row(i).test(j)
    }

    /// Total set bits across all rows.
    pub(crate) fn count_ones(&self) -> usize {
        self.rows.iter().map(|r| r.popcount() as usize).sum()
    }

    /// Heap bytes of the row payloads — the memory the adaptive
    /// representation exists to shrink; reported by the bench suite.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|row| match row {
                SpecRow::Dense(words) => words.capacity() * 8,
                SpecRow::Sparse(ids) => ids.capacity() * 4,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_primitives_round_trip() {
        let mut row = vec![0u64; 2];
        for i in [0u32, 63, 64, 100] {
            set_bit(&mut row, i);
        }
        assert_eq!(iter_bits(&row).collect::<Vec<_>>(), vec![0, 63, 64, 100]);
        assert!(get_bit(&row, 63) && !get_bit(&row, 62));
        clear_bit(&mut row, 63);
        assert!(!get_bit(&row, 63));
        assert_eq!(popcount(&row), 3);
        assert!(!is_zero(&row));
        assert!(is_zero(&[0, 0]));
    }

    #[test]
    fn or_and_intersects_are_word_wise() {
        let a = vec![0b1010u64, 1];
        let b = vec![0b0110u64, 0];
        let mut dst = a.clone();
        or_into(&mut dst, &b);
        assert_eq!(dst, vec![0b1110, 1]);
        let mut dst = a.clone();
        and_into(&mut dst, &b);
        assert_eq!(dst, vec![0b0010, 0]);
        assert!(intersects(&a, &b));
        assert!(!intersects(&[0b1000], &[0b0111]));
    }

    #[test]
    fn sparse_and_dense_rows_agree() {
        let words = SPARSE_MIN_WORDS + 4;
        let ids: Vec<u32> = vec![3, 64, 65, 1000, (words as u32 * 64) - 1];
        let sparse = SpecRow::Sparse(ids.clone());
        let mut dense_words = vec![0u64; words];
        for &id in &ids {
            set_bit(&mut dense_words, id);
        }
        let dense = SpecRow::Dense(dense_words.clone());

        assert_eq!(sparse, dense, "logical equality crosses representations");
        assert_eq!(
            sparse.iter().collect::<Vec<_>>(),
            dense.iter().collect::<Vec<_>>()
        );
        assert_eq!(sparse.popcount(), dense.popcount());
        for &id in &ids {
            assert!(sparse.as_ref().test(id) && dense.as_ref().test(id));
        }
        assert!(!sparse.as_ref().test(4) && !dense.as_ref().test(4));

        let mut from_sparse = vec![0u64; words];
        sparse.as_ref().or_into_dense(&mut from_sparse);
        assert_eq!(from_sparse, dense_words);

        let mut state = vec![0u64; words];
        set_bit(&mut state, 64);
        set_bit(&mut state, 1000);
        assert!(sparse.as_ref().contains_all_dense(&state));
        assert!(sparse.as_ref().intersects_dense(&state));
        set_bit(&mut state, 5);
        assert!(!sparse.as_ref().contains_all_dense(&state));
    }

    #[test]
    fn representation_policy_is_size_driven() {
        // Narrow rows are always dense.
        assert!(!use_sparse_rep(0, 2));
        assert!(!use_sparse_rep(1, SPARSE_MIN_WORDS - 1));
        // Wide sparse rows go sparse; wide full rows stay dense.
        assert!(use_sparse_rep(3, SPARSE_MIN_WORDS));
        assert!(!use_sparse_rep(SPARSE_MIN_WORDS * 2, SPARSE_MIN_WORDS));
        // from_dense applies the policy.
        let words = SPARSE_MIN_WORDS;
        let mut row = vec![0u64; words];
        set_bit(&mut row, 7);
        assert!(matches!(
            SpecRow::from_dense(&row, words),
            SpecRow::Sparse(_)
        ));
        let full: Vec<u64> = vec![u64::MAX; words];
        assert!(matches!(
            SpecRow::from_dense(&full, words),
            SpecRow::Dense(_)
        ));
    }

    #[test]
    fn spec_row_set_and_or_accumulate() {
        let mut sparse = SpecRow::Sparse(Vec::new());
        for id in [9u32, 3, 9, 77] {
            sparse.set(id);
        }
        assert_eq!(sparse.iter().collect::<Vec<_>>(), vec![3, 9, 77]);

        let mut other = SpecRow::Sparse(vec![1, 9, 100]);
        other.or_row(sparse.as_ref());
        assert_eq!(other.iter().collect::<Vec<_>>(), vec![1, 3, 9, 77, 100]);

        let mut dense = SpecRow::Dense(vec![0u64; 2]);
        dense.set(64);
        dense.or_row(RowRef::Sparse(&[0, 65]));
        assert_eq!(dense.iter().collect::<Vec<_>>(), vec![0, 64, 65]);

        let mut sparse_from_dense = SpecRow::Sparse(vec![2]);
        sparse_from_dense.or_row(dense.as_ref());
        assert_eq!(
            sparse_from_dense.iter().collect::<Vec<_>>(),
            vec![0, 2, 64, 65]
        );
    }

    #[test]
    fn matrix_round_trips_and_ors() {
        let mut m = SpecMatrix::new(3, 2);
        m.set(0, 5);
        m.set(2, 64);
        m.set(2, 3);
        assert!(m.get(0, 5) && m.get(2, 64) && !m.get(1, 0));
        assert_eq!(m.count_ones(), 3);
        assert_eq!(m.row(2).iter().collect::<Vec<_>>(), vec![3, 64]);

        let mut other = SpecMatrix::new(3, 2);
        other.set(0, 6);
        for i in 0..3 {
            other.row_mut(i).or_row(m.row(i));
        }
        assert!(other.get(0, 5) && other.get(0, 6) && other.get(2, 3));
        assert_eq!(m.len(), 3);
        assert_eq!(m.words(), 2);
        assert!(m.heap_bytes() > 0);
    }
}

/// Differential property tests: every [`RowRef`]/[`SpecRow`] operation
/// must agree between the dense and sparse representations on random
/// rows — the ground truth that lets the rest of the crate stay
/// representation-agnostic.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const WORDS: usize = 3;
    const BITS: u32 = (WORDS as u32) * 64;

    fn ids() -> impl Strategy<Value = Vec<u32>> {
        vec(0u32..BITS, 0..40).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    fn to_dense(ids: &[u32]) -> Vec<u64> {
        let mut row = vec![0u64; WORDS];
        for &id in ids {
            set_bit(&mut row, id);
        }
        row
    }

    /// Both representations of one id set.
    fn both(ids: &[u32]) -> (SpecRow, SpecRow) {
        (SpecRow::Dense(to_dense(ids)), SpecRow::Sparse(ids.to_vec()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn readers_agree_across_representations(a in ids(), probe in 0u32..BITS) {
            let (dense, sparse) = both(&a);
            prop_assert_eq!(&dense, &sparse, "logical equality");
            prop_assert_eq!(
                dense.iter().collect::<Vec<_>>(),
                sparse.iter().collect::<Vec<_>>()
            );
            prop_assert_eq!(dense.popcount(), sparse.popcount());
            prop_assert_eq!(dense.as_ref().is_empty(), sparse.as_ref().is_empty());
            prop_assert_eq!(dense.as_ref().test(probe), sparse.as_ref().test(probe));
        }

        #[test]
        fn or_row_agrees_in_all_four_combinations(a in ids(), b in ids()) {
            let (da, sa) = both(&a);
            let (db, sb) = both(&b);
            let mut expected: Vec<u32> = a.clone();
            expected.extend(&b);
            expected.sort_unstable();
            expected.dedup();
            for dst in [&da, &sa] {
                for src in [&db, &sb] {
                    let mut acc = dst.clone();
                    acc.or_row(src.as_ref());
                    prop_assert_eq!(
                        acc.iter().collect::<Vec<_>>(),
                        expected.clone(),
                        "or_row must union regardless of representations"
                    );
                }
            }
        }

        #[test]
        fn set_agrees_across_representations(a in ids(), extra in vec(0u32..BITS, 0..8)) {
            let (mut dense, mut sparse) = both(&a);
            for &id in &extra {
                dense.set(id);
                sparse.set(id);
            }
            prop_assert_eq!(&dense, &sparse);
            prop_assert!(extra.iter().all(|&id| sparse.as_ref().test(id)));
        }

        #[test]
        fn dense_interop_agrees(a in ids(), b in ids()) {
            let (da, sa) = both(&a);
            let dense_b = to_dense(&b);

            let mut from_dense = vec![0u64; WORDS];
            da.as_ref().or_into_dense(&mut from_dense);
            let mut from_sparse = vec![0u64; WORDS];
            sa.as_ref().or_into_dense(&mut from_sparse);
            prop_assert_eq!(&from_dense, &from_sparse);
            prop_assert_eq!(&from_dense, &to_dense(&a));

            prop_assert_eq!(
                da.as_ref().intersects_dense(&dense_b),
                sa.as_ref().intersects_dense(&dense_b)
            );
            prop_assert_eq!(
                da.as_ref().contains_all_dense(&dense_b),
                sa.as_ref().contains_all_dense(&dense_b)
            );
            // Ground truth via the set view.
            let bset: std::collections::BTreeSet<u32> = b.iter().copied().collect();
            let aset: std::collections::BTreeSet<u32> = a.iter().copied().collect();
            prop_assert_eq!(
                da.as_ref().intersects_dense(&dense_b),
                !aset.is_disjoint(&bset)
            );
            prop_assert_eq!(
                da.as_ref().contains_all_dense(&dense_b),
                bset.is_subset(&aset)
            );
        }

        #[test]
        fn from_dense_and_from_sorted_ids_round_trip(a in ids()) {
            let row = to_dense(&a);
            let adaptive = SpecRow::from_dense(&row, WORDS);
            prop_assert_eq!(adaptive.iter().collect::<Vec<_>>(), a.clone());
            let adaptive = SpecRow::from_sorted_ids(a.clone(), WORDS);
            prop_assert_eq!(adaptive.iter().collect::<Vec<_>>(), a);
        }
    }
}
