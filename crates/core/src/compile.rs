//! Compiled schemas: dense ids, bitset closures and CSR arrow adjacency.
//!
//! [`WeakSchema`] stores the closed form symbolically — `BTreeMap`s and
//! `BTreeSet`s keyed by [`Class`] and [`Label`] handles — which is the
//! right *surface* for an API built around the paper's notation, but every
//! hot path (transitive closure, `MinS`/`MaxS` antichains, the W1/W2
//! arrow closure, the `Imp` fixpoint of completion) then pays tree-map
//! traversal and string-comparison costs per step. [`CompiledSchema`] is
//! the dense twin the engine actually computes on:
//!
//! * classes and labels are interned into per-schema symbol tables with
//!   dense `u32` ids ([`ClassId`], [`LabelId`]), assigned in sorted order
//!   so id order agrees with symbol order;
//! * the strict specialization relation is a transitively closed **bit
//!   matrix** (one `Vec<u64>` row per class) stored in both directions
//!   (`supers` and its transpose `subs`), making `p ⇒ q` a bit test and
//!   `MinS`/`MaxS` a word-wise intersection;
//! * arrows are laid out **CSR-style**: per class, a sorted run of
//!   `(label, target-range)` pairs indexing one flat target-id array.
//!
//! The representation is lossless: [`CompiledSchema::decompile`] rebuilds
//! the exact symbolic [`WeakSchema`] (`decompile(compile(g)) == g`,
//! property-tested), so the symbolic types remain the public surface while
//! `close`, `weak_join_all` and completion run in id space. The retained
//! symbolic implementations live in [`crate::reference`] for differential
//! testing and the benchmark trajectory.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::class::Class;
use crate::error::{CycleWitness, SchemaError};
use crate::name::Label;
use crate::order::UpSet;
use crate::row::{
    self, and_into, clear_bit, get_bit, hash_row, is_zero, iter_bits, popcount, set_bit, RowRef,
    SpecMatrix, SpecRow,
};
use crate::scratch::{self, ScratchPool, StateArena};
use crate::weak::{ArrowMap, WeakSchema};

/// A dense class id: an index into the compiled schema's class table.
pub type ClassId = u32;

/// A dense label id: an index into the compiled schema's label table.
pub type LabelId = u32;

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// FNV-1a: symbol interning hashes short strings by the thousand, where
/// SipHash's per-call setup dominates. Not DoS-resistant — fine for maps
/// keyed by a schema's own symbols.
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A `HashMap` with the cheap FNV hasher.
pub(crate) type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<Fnv>>;

/// Symbol → id lookup for a symbol table (ids are table indices).
fn ids_of<T: std::hash::Hash + Eq>(table: &[T]) -> FastMap<&T, u32> {
    table
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect()
}

// ---------------------------------------------------------------------------
// Row primitives
// ---------------------------------------------------------------------------
//
// The bit-twiddling helpers and the adaptive row/matrix types live in
// [`crate::row`] — one shared ops module for every engine. An empty
// accumulation row is pool-backed in dense mode (recycled `Vec<u64>`s)
// and an ordinary small vector in sparse mode.

fn empty_row(words: usize, pool: &mut ScratchPool) -> SpecRow {
    if row::accumulate_sparse(words) {
        SpecRow::Sparse(Vec::new())
    } else {
        SpecRow::Dense(pool.take(words))
    }
}

// ---------------------------------------------------------------------------
// CompiledSchema
// ---------------------------------------------------------------------------

/// A weak schema compiled to dense ids. See the module docs.
///
/// Construct with [`CompiledSchema::compile`]; all queries are in id space
/// (`ClassId`/`LabelId`), with [`CompiledSchema::class`] /
/// [`CompiledSchema::label`] translating back to symbols and
/// [`CompiledSchema::decompile`] rebuilding the symbolic schema wholesale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledSchema {
    /// Id → class, sorted ascending (id order == `Class` order).
    classes: Vec<Class>,
    /// Id → label, sorted ascending.
    labels: Vec<Label>,
    /// Strict transitively closed "above" rows: bit `q` of row `p` ⇔ `p ⇒ q`.
    /// Adaptive per row: dense words or sorted-sparse ids (see
    /// [`crate::row`]).
    supers: SpecMatrix,
    /// The transpose: bit `q` of row `p` ⇔ `q ⇒ p`.
    subs: SpecMatrix,
    /// CSR row index: class `p`'s labelled pairs are
    /// `pair_labels[row_start[p]..row_start[p+1]]`.
    row_start: Vec<u32>,
    /// Label of each (class, label) pair, ascending within a row.
    pair_labels: Vec<LabelId>,
    /// Target range of each pair: `targets[start..end]`, never empty.
    pair_ranges: Vec<(u32, u32)>,
    /// Flat arrow-target array, ascending within each range.
    targets: Vec<ClassId>,
}

impl CompiledSchema {
    /// Compiles a (closed) weak schema into the dense form.
    pub fn compile(schema: &WeakSchema) -> CompiledSchema {
        let classes: Vec<Class> = schema.classes().cloned().collect();
        let labels: Vec<Label> = schema.all_labels().into_iter().collect();
        let n = classes.len();
        let words = n.div_ceil(64);
        let (cid, lid) = (ids_of(&classes), ids_of(&labels));

        // Each class's closed super set arrives sorted (`BTreeSet`
        // iteration order is `Class` order, which is id order), so rows
        // build directly in their final adaptive representation.
        let super_rows: Vec<SpecRow> = classes
            .iter()
            .map(|class| {
                let ids: Vec<u32> = schema
                    .supers
                    .get(class)
                    .map(|sups| sups.iter().map(|sup| cid[sup]).collect())
                    .unwrap_or_default();
                SpecRow::from_sorted_ids(ids, words)
            })
            .collect();
        let supers = SpecMatrix::from_rows(super_rows, words);
        let subs = transpose(&supers, n);

        let mut row_start = Vec::with_capacity(n + 1);
        let mut pair_labels = Vec::new();
        let mut pair_ranges = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        row_start.push(0);
        for class in &classes {
            if let Some(by_label) = schema.arrows.get(class) {
                for (label, tgts) in by_label {
                    let start = targets.len() as u32;
                    targets.extend(tgts.iter().map(|t| cid[t]));
                    pair_labels.push(lid[label]);
                    pair_ranges.push((start, targets.len() as u32));
                }
            }
            row_start.push(pair_labels.len() as u32);
        }

        CompiledSchema {
            classes,
            labels,
            supers,
            subs,
            row_start,
            pair_labels,
            pair_ranges,
            targets,
        }
    }

    /// Rebuilds the symbolic weak schema. Lossless:
    /// `compile(g).decompile() == g` for every closed schema `g`.
    ///
    /// Every map/set is collected from an iterator already in key order
    /// (id order == symbol order), hitting the standard library's sorted
    /// bulk-build path instead of per-element insertions.
    pub fn decompile(&self) -> WeakSchema {
        let classes: BTreeSet<Class> = self.classes.iter().cloned().collect();
        let supers: UpSet<Class> = (0..self.classes.len() as u32)
            .filter(|&p| !self.supers.row(p).is_empty())
            .map(|p| {
                let set: BTreeSet<Class> = self
                    .supers
                    .row(p)
                    .iter()
                    .map(|q| self.classes[q as usize].clone())
                    .collect();
                (self.classes[p as usize].clone(), set)
            })
            .collect();
        let arrows: ArrowMap = (0..self.classes.len() as u32)
            .filter(|&p| !self.labels_of(p).is_empty())
            .map(|p| {
                let by_label: BTreeMap<Label, BTreeSet<Class>> = self
                    .pairs_of(p)
                    .map(|(label, (start, end))| {
                        let set: BTreeSet<Class> = self.targets[start as usize..end as usize]
                            .iter()
                            .map(|&t| self.classes[t as usize].clone())
                            .collect();
                        (self.labels[label as usize].clone(), set)
                    })
                    .collect();
                (self.classes[p as usize].clone(), by_label)
            })
            .collect();
        WeakSchema {
            classes,
            supers,
            arrows,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of distinct labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Number of arrows in the closed relation.
    pub fn num_arrows(&self) -> usize {
        self.targets.len()
    }

    /// Number of strict specialization pairs in the closed relation.
    pub fn num_specializations(&self) -> usize {
        self.supers.count_ones()
    }

    /// Number of distinct `(class, label)` arrow pairs (the CSR pair
    /// count) — the compiled twin of [`WeakSchema::num_arrow_pairs`].
    pub fn num_arrow_pairs(&self) -> usize {
        self.pair_labels.len()
    }

    /// Approximate heap footprint of the specialization matrices and CSR
    /// arrow arrays, in bytes. This is the number the adaptive row
    /// representation exists to shrink — a 100k-class schema is ~2.5 GB
    /// in dense rows (two `100_000²`-bit matrices) but only
    /// `O(spec pairs)` in sparse rows — so the benchmark suite reports it
    /// alongside wall-clock time. Interned name storage is excluded: it
    /// is identical under every representation.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.supers.heap_bytes()
            + self.subs.heap_bytes()
            + self.row_start.len() * size_of::<u32>()
            + self.pair_labels.len() * size_of::<LabelId>()
            + self.pair_ranges.len() * size_of::<(u32, u32)>()
            + self.targets.len() * size_of::<ClassId>()
    }

    /// Whether any class carries an origin set (a pre-existing implicit
    /// or union class from an earlier merge result fed back in).
    pub(crate) fn has_origin_classes(&self) -> bool {
        self.classes.iter().any(|c| c.origin().is_some())
    }

    /// The class behind `id`.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id as usize]
    }

    /// The label behind `id`.
    pub fn label(&self, id: LabelId) -> &Label {
        &self.labels[id as usize]
    }

    /// The id of `class`, if it belongs to the schema.
    pub fn class_id(&self, class: &Class) -> Option<ClassId> {
        self.classes.binary_search(class).ok().map(|i| i as u32)
    }

    /// The id of `label`, if any arrow uses it.
    pub fn label_id(&self, label: &Label) -> Option<LabelId> {
        self.labels.binary_search(label).ok().map(|i| i as u32)
    }

    /// Whether `sub ⇒ sup` holds, including reflexivity.
    pub fn specializes(&self, sub: ClassId, sup: ClassId) -> bool {
        sub == sup || self.supers.get(sub, sup)
    }

    /// Whether `sub ⇒ sup` holds strictly (`sub ≠ sup`).
    pub fn strictly_specializes(&self, sub: ClassId, sup: ClassId) -> bool {
        self.supers.get(sub, sup)
    }

    /// The labels of arrows leaving `src`, ascending.
    pub fn labels_of(&self, src: ClassId) -> &[LabelId] {
        let lo = self.row_start[src as usize] as usize;
        let hi = self.row_start[src as usize + 1] as usize;
        &self.pair_labels[lo..hi]
    }

    /// `R(p, a)` in id space: the targets of `src`'s `label`-arrows,
    /// ascending; empty if there is no such arrow.
    pub fn arrow_targets(&self, src: ClassId, label: LabelId) -> &[ClassId] {
        let lo = self.row_start[src as usize] as usize;
        let hi = self.row_start[src as usize + 1] as usize;
        match self.pair_labels[lo..hi].binary_search(&label) {
            Ok(offset) => {
                let (start, end) = self.pair_ranges[lo + offset];
                &self.targets[start as usize..end as usize]
            }
            Err(_) => &[],
        }
    }

    /// `MinS(X)` in id space: the members of `members` with no other
    /// member strictly below them, ascending and deduplicated.
    pub fn min_s(&self, members: &[ClassId]) -> Vec<ClassId> {
        let state = self.bits_of(members);
        iter_bits(&self.min_s_bits(&state)).collect()
    }

    /// `MaxS(X)` in id space: the dual of [`CompiledSchema::min_s`].
    pub fn max_s(&self, members: &[ClassId]) -> Vec<ClassId> {
        let state = self.bits_of(members);
        let mut out = state.clone();
        for m in iter_bits(&state) {
            if self.supers.row(m).intersects_dense(&state) {
                clear_bit(&mut out, m);
            }
        }
        iter_bits(&out).collect()
    }

    /// Dense row width (in `u64` words) of this schema's id space.
    pub(crate) fn words(&self) -> usize {
        self.supers.words()
    }

    fn bits_of(&self, members: &[ClassId]) -> Vec<u64> {
        let mut bits = vec![0u64; self.words()];
        for &m in members {
            set_bit(&mut bits, m);
        }
        bits
    }

    /// `MinS` over a bitset state: clears every member with another member
    /// strictly below it (a word-wise intersection per member).
    fn min_s_bits(&self, state: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; state.len()];
        self.min_s_bits_into(state, &mut out);
        out
    }

    /// [`CompiledSchema::min_s_bits`] into a caller-provided row — the
    /// allocation-free form the fixpoint runs on.
    fn min_s_bits_into(&self, state: &[u64], out: &mut [u64]) {
        out.copy_from_slice(state);
        for m in iter_bits(state) {
            if self.subs.row(m).intersects_dense(state) {
                clear_bit(out, m);
            }
        }
    }

    fn pairs_of(&self, src: ClassId) -> impl Iterator<Item = (LabelId, (u32, u32))> + '_ {
        let lo = self.row_start[src as usize] as usize;
        let hi = self.row_start[src as usize + 1] as usize;
        self.pair_labels[lo..hi]
            .iter()
            .copied()
            .zip(self.pair_ranges[lo..hi].iter().copied())
    }
}

fn transpose(supers: &SpecMatrix, n: usize) -> SpecMatrix {
    let words = supers.words();
    // Walking rows in ascending `p` appends each `p` to its targets'
    // id lists in sorted order, so every transposed row finalizes
    // without a sort.
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for p in 0..n as u32 {
        for q in supers.row(p).iter() {
            lists[q as usize].push(p);
        }
    }
    SpecMatrix::from_rows(
        lists
            .into_iter()
            .map(|ids| SpecRow::from_sorted_ids(ids, words))
            .collect(),
        words,
    )
}

// ---------------------------------------------------------------------------
// The id-space closure engine
// ---------------------------------------------------------------------------

/// Computes the strict transitive closure of the direct edges in the
/// `direct` bit matrix (self-loops tolerated and dropped), or a cycle
/// witness as an id path.
fn closed_supers(n: usize, direct: &SpecMatrix) -> Result<SpecMatrix, Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }

    let words = n.div_ceil(64);
    let mut color = vec![Color::White; n];
    let mut finish: Vec<u32> = Vec::with_capacity(n);

    for root in 0..n as u32 {
        if color[root as usize] != Color::White {
            continue;
        }
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                color[node as usize] = Color::Black;
                finish.push(node);
                continue;
            }
            match color[node as usize] {
                Color::Black | Color::Gray => continue,
                Color::White => {}
            }
            color[node as usize] = Color::Gray;
            stack.push((node, true));
            for next in direct.row(node).iter() {
                if next == node {
                    continue;
                }
                match color[next as usize] {
                    Color::White => stack.push((next, false)),
                    // `next` is an ancestor on the DFS stack: cycle.
                    Color::Gray => return Err(extract_cycle_ids(direct, next)),
                    Color::Black => {}
                }
            }
        }
    }

    // Finish order lists every reachable node after its descendants, so one
    // pass suffices: row(p) = ⋃ { {q} ∪ row(q) | p → q direct }. The union
    // accumulates in one dense scratch row (a few KB even at 100k
    // classes); each finished row then stores adaptively.
    let mut rows: Vec<SpecRow> = (0..n).map(|_| SpecRow::Sparse(Vec::new())).collect();
    let mut acc = vec![0u64; words];
    for &node in &finish {
        acc.iter_mut().for_each(|w| *w = 0);
        for next in direct.row(node).iter() {
            if next == node {
                continue;
            }
            set_bit(&mut acc, next);
            rows[next as usize].as_ref().or_into_dense(&mut acc);
        }
        rows[node as usize] = SpecRow::from_dense(&acc, words);
    }
    Ok(SpecMatrix::from_rows(rows, words))
}

/// Reconstructs a shortest cycle through `start` (known to lie on one) by
/// BFS over the direct edges; mirrors the symbolic witness extraction so
/// both engines report comparable paths.
fn extract_cycle_ids(direct: &SpecMatrix, start: u32) -> Vec<u32> {
    let n = direct.len();
    let mut pred = vec![u32::MAX; n];
    let mut queue: VecDeque<u32> = VecDeque::new();
    queue.push_back(start);
    while let Some(node) = queue.pop_front() {
        for next in direct.row(node).iter() {
            if next == start {
                let mut rev = vec![start, node];
                let mut current = node;
                while current != start {
                    current = pred[current as usize];
                    rev.push(current);
                }
                rev.reverse();
                return rev;
            }
            if next != node && pred[next as usize] == u32::MAX {
                pred[next as usize] = node;
                queue.push_back(next);
            }
        }
    }
    vec![start, start]
}

/// Raw id-space schema parts: dense symbol tables, direct specialization
/// edges as bit rows, raw arrows as per-class `label ↦ target-bits` maps.
/// The accumulation format of every compiled construction path — bitsets
/// deduplicate union passes for free.
pub(crate) struct RawDense {
    classes: Vec<Class>,
    labels: Vec<Label>,
    direct: SpecMatrix,
    raw_arrows: Vec<BTreeMap<u32, SpecRow>>,
}

impl RawDense {
    fn new(classes: Vec<Class>, labels: Vec<Label>) -> Self {
        let n = classes.len();
        let words = n.div_ceil(64);
        RawDense {
            classes,
            labels,
            direct: SpecMatrix::new(n, words),
            raw_arrows: vec![BTreeMap::new(); n],
        }
    }

    fn words(&self) -> usize {
        self.direct.words()
    }

    /// Walks closed `schemas` into the parts, over these tables' ids
    /// (every symbol of `schemas` must be in them). The inputs are
    /// closed, and a union of closed relations re-closes to the same
    /// result, so feeding the closed pairs as direct edges is exact (and
    /// how Prop. 4.1 computes `S`). The nested maps are walked
    /// structurally — one id lookup per class row, label run and target,
    /// not three per triple — and the union accumulates straight into bit
    /// rows (recycled through the thread's pool), which deduplicate for
    /// free.
    fn intern_all(&mut self, schemas: &[&WeakSchema]) {
        let words = self.words();
        let RawDense {
            classes,
            labels,
            direct,
            raw_arrows,
        } = self;
        let (cid, lid) = (ids_of(classes), ids_of(labels));
        scratch::with_pool(|pool| {
            for schema in schemas {
                for (sub, sups) in &schema.supers {
                    let row = direct.row_mut(cid[sub]);
                    for sup in sups {
                        row.set(cid[sup]);
                    }
                }
                for (src, by_label) in &schema.arrows {
                    let by_label_ids = &mut raw_arrows[cid[src] as usize];
                    for (label, tgts) in by_label {
                        let bits = by_label_ids
                            .entry(lid[label])
                            .or_insert_with(|| empty_row(words, pool));
                        for tgt in tgts {
                            bits.set(cid[tgt]);
                        }
                    }
                }
            }
        });
    }

    /// Adds the closed relations of compiled input `cs` over these
    /// tables' ids, through its old-id → new-id maps `cmap` and `lmap`
    /// (see [`remap`]). The closed rows feed in as direct edges and the
    /// CSR runs become per-label rows. The remap is monotone, so ids
    /// re-enter ascending and an empty sparse row fills append-only; when
    /// the class map is the identity (no other input brings a class
    /// sorting before one of `cs`) a closed row is OR-ed in whole.
    fn transfer(&mut self, cs: &CompiledSchema, cmap: &[u32], lmap: &[u32]) {
        let words = self.words();
        let ids_stable = cmap.iter().enumerate().all(|(i, &m)| i as u32 == m);
        for p in 0..cs.classes.len() as u32 {
            let np = cmap[p as usize];
            let row = self.direct.row_mut(np);
            if ids_stable {
                row.or_row(cs.supers.row(p));
            } else {
                for q in cs.supers.row(p).iter() {
                    row.set(cmap[q as usize]);
                }
            }
            let by_label = &mut self.raw_arrows[np as usize];
            for (label, (start, end)) in cs.pairs_of(p) {
                let bits = by_label
                    .entry(lmap[label as usize])
                    .or_insert_with(|| SpecRow::empty(words));
                for &t in &cs.targets[start as usize..end as usize] {
                    bits.set(cmap[t as usize]);
                }
            }
        }
    }
}

/// Closes [`RawDense`] parts into a [`CompiledSchema`]: transitive closure
/// of the specializations, then the W1/W2 arrow closure straight into the
/// CSR arrays, all on bitsets. The error is a specialization cycle as an
/// id path.
fn compile_dense(parts: RawDense) -> Result<CompiledSchema, CycleIds> {
    let RawDense {
        classes,
        labels,
        direct,
        raw_arrows: raw,
    } = parts;
    let n = classes.len();
    let supers = match closed_supers(n, &direct) {
        Ok(supers) => supers,
        Err(path) => return Err(CycleIds { path, classes }),
    };
    let subs = transpose(&supers, n);
    let Csr {
        row_start,
        pair_labels,
        pair_ranges,
        targets,
    } = arrow_rows(&raw, &supers, labels.len());
    // The raw rows are spent; recycle dense payloads for the next
    // pipeline stage (sparse rows are ordinary small vectors).
    scratch::with_pool(|pool| {
        for mut by_label in raw {
            while let Some((_, row)) = by_label.pop_first() {
                row.recycle(pool);
            }
        }
    });

    Ok(CompiledSchema {
        classes,
        labels,
        supers,
        subs,
        row_start,
        pair_labels,
        pair_ranges,
        targets,
    })
}

/// The closed arrows in the CSR layout [`CompiledSchema`] stores.
struct Csr {
    row_start: Vec<u32>,
    pair_labels: Vec<LabelId>,
    pair_ranges: Vec<(u32, u32)>,
    targets: Vec<ClassId>,
}

/// The W1/W2 arrow closure of every class, in class order. W1 (inherit
/// raw arrows from every strict super) then W2 (close each target set
/// upward); one pass of each suffices, as in the symbolic engine. Two
/// fast paths skip the per-pair scratch work on the common shape: a
/// class with no strict supers inherits nothing (its raw rows are
/// final), and a target set containing no class with supers is already
/// upward closed.
///
/// Inheritance accumulates into a **dense per-label table** (`Option`
/// slots indexed by label id, plus a touched list) rather than a map:
/// a class with `s` strict supers of `k` labels each pays `s·k` array
/// indexings instead of `s·k` tree-map operations — this loop is the
/// single hottest piece of completing an inheritance-heavy schema,
/// where every implicit class inherits every origin's arrows. All
/// scratch rows come from the thread's pool.
fn arrow_rows(raw: &[BTreeMap<u32, SpecRow>], supers: &SpecMatrix, labels_len: usize) -> Csr {
    let n = raw.len();
    let words = supers.words();
    let mut has_supers = vec![0u64; words];
    for p in 0..n as u32 {
        if !supers.row(p).is_empty() {
            set_bit(&mut has_supers, p);
        }
    }
    let mut csr = Csr {
        row_start: Vec::with_capacity(n + 1),
        pair_labels: Vec::new(),
        pair_ranges: Vec::new(),
        targets: Vec::new(),
    };
    csr.row_start.push(0);
    scratch::with_pool(|pool| {
        let mut acc_rows: Vec<Option<Vec<u64>>> = (0..labels_len).map(|_| None).collect();
        let mut touched: Vec<u32> = Vec::new();
        let mut closed_buf = pool.take(words);
        for (p, raw_row) in raw.iter().enumerate() {
            let mut emit = |label: u32, bits: RowRef<'_>, csr: &mut Csr| {
                let start = csr.targets.len() as u32;
                if bits.intersects_dense(&has_supers) {
                    closed_buf.iter_mut().for_each(|w| *w = 0);
                    bits.or_into_dense(&mut closed_buf);
                    for t in bits.iter() {
                        supers.row(t).or_into_dense(&mut closed_buf);
                    }
                    csr.targets.extend(iter_bits(&closed_buf));
                } else {
                    csr.targets.extend(bits.iter());
                }
                csr.pair_labels.push(label);
                csr.pair_ranges.push((start, csr.targets.len() as u32));
            };
            if supers.row(p as u32).is_empty() {
                for (&label, bits) in raw_row {
                    emit(label, bits.as_ref(), &mut csr);
                }
            } else {
                let mut accumulate =
                    |label: u32, bits: RowRef<'_>, touched: &mut Vec<u32>| match &mut acc_rows
                        [label as usize]
                    {
                        Some(row) => bits.or_into_dense(row),
                        slot @ None => {
                            // Pool rows come back zeroed, so OR = copy.
                            let mut row = pool.take(words);
                            bits.or_into_dense(&mut row);
                            *slot = Some(row);
                            touched.push(label);
                        }
                    };
                for (&label, bits) in raw_row {
                    accumulate(label, bits.as_ref(), &mut touched);
                }
                for q in supers.row(p as u32).iter() {
                    for (&label, bits) in &raw[q as usize] {
                        accumulate(label, bits.as_ref(), &mut touched);
                    }
                }
                touched.sort_unstable();
                for &label in &touched {
                    let row = acc_rows[label as usize].take().expect("touched label");
                    emit(label, RowRef::Dense(&row), &mut csr);
                    pool.put(row);
                }
                touched.clear();
            }
            csr.row_start.push(csr.pair_labels.len() as u32);
        }
        pool.put(closed_buf);
    });
    csr
}

/// [`compile_dense`] over edge/triple lists — a test-only convenience for
/// exercising the closure engine on hand-written id-space parts.
///
/// `classes` and `labels` must be sorted and deduplicated (ids are their
/// indices).
#[cfg(test)]
pub(crate) fn compile_from_raw(
    classes: Vec<Class>,
    labels: Vec<Label>,
    spec: &[(u32, u32)],
    arrows: &[(u32, u32, u32)],
) -> Result<CompiledSchema, CycleIds> {
    let mut parts = RawDense::new(classes, labels);
    for &(sub, sup) in spec {
        if sub != sup {
            parts.direct.set(sub, sup);
        }
    }
    let words = parts.words();
    for &(src, label, tgt) in arrows {
        parts.raw_arrows[src as usize]
            .entry(label)
            .or_insert_with(|| SpecRow::empty(words))
            .set(tgt);
    }
    compile_dense(parts)
}

/// A specialization cycle found while closing id-space parts: the id path
/// plus the class table to translate it (handed back so construction paths
/// need not keep a copy of the table for the error case).
#[derive(Debug)]
pub(crate) struct CycleIds {
    path: Vec<u32>,
    classes: Vec<Class>,
}

impl From<CycleIds> for SchemaError {
    fn from(cycle: CycleIds) -> SchemaError {
        SchemaError::SpecializationCycle(CycleWitness {
            path: cycle
                .path
                .into_iter()
                .map(|id| cycle.classes[id as usize].clone())
                .collect(),
        })
    }
}

/// The compiled closure engine behind [`WeakSchema::close`]: interns the
/// raw symbolic parts, closes in id space and decompiles the result.
pub(crate) fn close_ids(
    mut classes: BTreeSet<Class>,
    spec_edges: BTreeMap<Class, BTreeSet<Class>>,
    raw_arrows: Vec<(Class, Label, Class)>,
) -> Result<WeakSchema, SchemaError> {
    // Classes are whatever was declared plus every edge endpoint.
    for (sub, sups) in &spec_edges {
        classes.insert(sub.clone());
        classes.extend(sups.iter().cloned());
    }
    for (src, _, tgt) in &raw_arrows {
        classes.insert(src.clone());
        classes.insert(tgt.clone());
    }
    let labels: BTreeSet<Label> = raw_arrows.iter().map(|(_, l, _)| l.clone()).collect();

    let class_vec: Vec<Class> = classes.into_iter().collect();
    let label_vec: Vec<Label> = labels.into_iter().collect();
    let mut parts = RawDense::new(class_vec, label_vec);
    let words = parts.words();
    let (cid, lid) = (ids_of(&parts.classes), ids_of(&parts.labels));

    for (sub, sups) in &spec_edges {
        let p = cid[sub];
        let row = parts.direct.row_mut(p);
        for sup in sups {
            let q = cid[sup];
            if p != q {
                row.set(q);
            }
        }
    }
    for (src, label, tgt) in &raw_arrows {
        parts.raw_arrows[cid[src] as usize]
            .entry(lid[label])
            .or_insert_with(|| SpecRow::empty(words))
            .set(cid[tgt]);
    }
    drop((cid, lid));

    Ok(compile_dense(parts)?.decompile())
}

/// Merges an already-merged sorted run with another sorted iterator,
/// deduplicating.
fn merge_sorted<'a, T: Ord + ?Sized>(
    merged: &[&'a T],
    next: impl Iterator<Item = &'a T>,
) -> Vec<&'a T> {
    let mut out: Vec<&'a T> = Vec::with_capacity(merged.len());
    let mut left = merged.iter().peekable();
    let mut right = next.peekable();
    loop {
        match (left.peek(), right.peek()) {
            (Some(&&l), Some(&r)) => match l.cmp(r) {
                std::cmp::Ordering::Less => {
                    out.push(l);
                    left.next();
                }
                std::cmp::Ordering::Greater => {
                    out.push(r);
                    right.next();
                }
                std::cmp::Ordering::Equal => {
                    out.push(l);
                    left.next();
                    right.next();
                }
            },
            (Some(&&l), None) => {
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

/// Joins `compiled` and `symbolic` inputs entirely in id space — the join
/// stage of the compiled engine. The symbolic join is never
/// materialized; callers that need it decompile the result.
///
/// The class/label tables are built first (sorted unions of the inputs'
/// already-sorted tables — cheaper than per-insert set building). Each
/// compiled input then transfers its closed rows and CSR arrows through
/// an old-id → new-id remap ([`RawDense::transfer`]), each symbolic input
/// is interned against the tables ([`RawDense::intern_all`]), and one
/// closure pass finishes the job. A compiled input is already a join, so
/// it pays no interning walk: the registry's incremental re-merge passes
/// its held join first (a pure row copy whenever the other inputs bring
/// no symbol sorting before an existing one), and a supergraph compose
/// passes its registries' joins as they are. The inputs enter as closed
/// relations, and a union of closed relations re-closes to the same
/// result, so the split between compiled and symbolic never changes it.
pub(crate) fn join_ids(
    compiled: &[&CompiledSchema],
    symbolic: &[&WeakSchema],
) -> Result<CompiledSchema, SchemaError> {
    let mut classes: Vec<&Class> = Vec::new();
    let mut labels: Vec<&Label> = Vec::new();
    for cs in compiled {
        classes = merge_sorted(&classes, cs.classes.iter());
        labels = merge_sorted(&labels, cs.labels.iter());
    }
    for schema in symbolic {
        classes = merge_sorted(&classes, schema.classes());
    }
    let mut symbolic_labels: BTreeSet<&Label> = BTreeSet::new();
    for schema in symbolic {
        for by_label in schema.arrows.values() {
            symbolic_labels.extend(by_label.keys());
        }
    }
    let labels = merge_sorted(&labels, symbolic_labels.into_iter());

    let maps: Vec<(Vec<u32>, Vec<u32>)> = compiled
        .iter()
        .map(|cs| (remap(&cs.classes, &classes), remap(&cs.labels, &labels)))
        .collect();
    let class_vec: Vec<Class> = classes.into_iter().cloned().collect();
    let label_vec: Vec<Label> = labels.into_iter().cloned().collect();
    let mut parts = RawDense::new(class_vec, label_vec);
    for (cs, (cmap, lmap)) in compiled.iter().zip(&maps) {
        parts.transfer(cs, cmap, lmap);
    }
    parts.intern_all(symbolic);
    Ok(compile_dense(parts)?)
}

/// Old-id → new-id map of a sorted symbol table into a sorted union that
/// contains every one of its symbols, by a linear co-walk.
fn remap<T: Ord>(old: &[T], merged: &[&T]) -> Vec<u32> {
    let mut map = Vec::with_capacity(old.len());
    let mut j = 0usize;
    for symbol in old {
        while merged[j] != symbol {
            j += 1;
        }
        map.push(j as u32);
        j += 1;
    }
    map
}

/// Builds the canonical-class view of a proper schema in id space: for
/// every `(class, label)` arrow pair, the least target — the `t` with
/// every other target equal to `t` or strictly above it. Returns exactly
/// what the symbolic walk in `ProperSchema::try_new` computes (least =
/// unique minimal below-or-equal everything, for finite posets), with
/// the same `NoCanonicalClass` witness when a pair has no least target,
/// but via per-pair bit tests against the closed `supers` rows.
pub(crate) fn canonical_map(
    cs: &CompiledSchema,
) -> Result<BTreeMap<Class, BTreeMap<Label, Class>>, SchemaError> {
    let mut canonical: BTreeMap<Class, BTreeMap<Label, Class>> = BTreeMap::new();
    for p in 0..cs.classes.len() as u32 {
        let mut by_label: BTreeMap<Label, Class> = BTreeMap::new();
        for (label, (start, end)) in cs.pairs_of(p) {
            let targets = &cs.targets[start as usize..end as usize];
            let least = targets
                .iter()
                .copied()
                .find(|&t| targets.iter().all(|&u| u == t || cs.supers.get(t, u)));
            match least {
                Some(t) => {
                    by_label.insert(
                        cs.labels[label as usize].clone(),
                        cs.classes[t as usize].clone(),
                    );
                }
                None => {
                    return Err(SchemaError::NoCanonicalClass {
                        class: cs.classes[p as usize].clone(),
                        label: cs.labels[label as usize].clone(),
                        minimal_targets: cs
                            .min_s(targets)
                            .into_iter()
                            .map(|t| cs.classes[t as usize].clone())
                            .collect(),
                    });
                }
            }
        }
        if !by_label.is_empty() {
            canonical.insert(cs.classes[p as usize].clone(), by_label);
        }
    }
    Ok(canonical)
}

/// Builds the completed schema `(C̄, Ē, S̄)` in id space — the compiled
/// twin of the symbolic `assemble` in [`crate::complete`] (which see for
/// the rule-by-rule commentary). `entries` pairs each `Imp` state (bits
/// over `cs` ids) with the class standing for its meet; the paper's S̄/Ē
/// rules become bit operations over the old rows, the implicit classes
/// get fresh ids appended after the old table, and one `compile_dense`
/// pass closes the extended graph. Returns the completed schema in both
/// forms (the compiled twin feeds the canonical-map construction of
/// `ProperSchema`).
pub(crate) fn assemble_ids(
    cs: &CompiledSchema,
    entries: &[(Vec<u64>, Class)],
) -> Result<(WeakSchema, CompiledSchema), SchemaError> {
    let n = cs.classes.len();
    let old_words = cs.words();

    // Extended class table: implicit classes not already present (i.e. not
    // rediscovered from an earlier merge) get fresh ids after the old ones.
    let mut ext_classes: Vec<Class> = cs.classes.clone();
    let mut new_ids: FastMap<&Class, u32> = FastMap::default();
    let ids: Vec<u32> = entries
        .iter()
        .map(|(_, class)| match cs.class_id(class) {
            Some(id) => id,
            None => *new_ids.entry(class).or_insert_with(|| {
                ext_classes.push(class.clone());
                (ext_classes.len() - 1) as u32
            }),
        })
        .collect();
    let m = ext_classes.len();
    let ext_words = m.div_ceil(64);
    // Whether any entry resolved to a pre-existing class id (< n): only
    // then can setting an implicit-target bit disturb a later subset
    // test, forcing the Ē pass below onto snapshots.
    let any_rediscovered = ids.iter().any(|&id| (id as usize) < n);

    // Entries bucketed by their first (lowest-id) state member: `Y ⊆ R`
    // requires `min(Y) ∈ R`, so scanning R's set bits against these
    // buckets visits each candidate entry exactly once and skips the
    // (overwhelmingly common) entries sharing no member with R at all —
    // the difference between O(pairs × entries) and O(pairs × hits) in
    // the Ē passes.
    let mut first_buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut min_state_size = u32::MAX;
    for (j, (state, _)) in entries.iter().enumerate() {
        if let Some(first) = iter_bits(state).next() {
            first_buckets[first as usize].push(j as u32);
        }
        min_state_size = min_state_size.min(popcount(state));
    }
    let subset = |state: &[u64], reached: &[u64]| -> bool {
        state.iter().zip(reached).all(|(s, r)| s & !r == 0)
    };

    let mut parts = RawDense::new(ext_classes, cs.labels.clone());
    scratch::with_pool(|pool| {
        // The old closed relations feed in as direct edges: re-closing a
        // closed relation is the identity. The seeded rows are empty, so
        // OR-ing the old row in is a copy; CSR targets are ascending, so
        // sparse accumulation stays append-only.
        for p in 0..n as u32 {
            parts.direct.row_mut(p).or_row(cs.supers.row(p));
            for (label, (start, end)) in cs.pairs_of(p) {
                let mut bits = empty_row(ext_words, pool);
                for &t in &cs.targets[start as usize..end as usize] {
                    bits.set(t);
                }
                parts.raw_arrows[p as usize].insert(label, bits);
            }
        }

        // Per entry: `up` = every old class some member specializes (the
        // reflexive upward closure of the state), and the flattened origin
        // names as ids (`None` when a name is not a class of the schema — no
        // rule can then place anything below the implicit class).
        let mut ups = StateArena::new(ext_words);
        let mut flats: Vec<Option<Vec<u32>>> = Vec::with_capacity(entries.len());
        let mut up_buf = pool.take(ext_words);
        for (state, _) in entries {
            up_buf.iter_mut().for_each(|w| *w = 0);
            for q in iter_bits(state) {
                set_bit(&mut up_buf, q);
                cs.supers.row(q).or_into_dense(&mut up_buf[..old_words]);
            }
            ups.push(&up_buf);

            let mut flat: Vec<u32> = Vec::new();
            let mut all_present = true;
            for q in iter_bits(state) {
                let class = cs.class(q);
                if class.origin().is_none() {
                    flat.push(q);
                } else {
                    for name in class.flattened_names() {
                        match cs.class_id(&Class::Named(name)) {
                            Some(id) => flat.push(id),
                            None => all_present = false,
                        }
                    }
                }
            }
            flat.sort_unstable();
            flat.dedup();
            flats.push(all_present.then_some(flat));
        }
        pool.put(up_buf);

        // S̄: X ⇒ p for p ∈ up(X); p ⇒ X when p specializes every flattened
        // origin of X; X ⇒ Y when every flattened origin of Y is in up(X).
        let mut cand = pool.take(ext_words);
        let mut down = pool.take(ext_words);
        for i in 0..entries.len() {
            let xe = ids[i];
            parts
                .direct
                .row_mut(xe)
                .or_row(RowRef::Dense(ups.get(i as u32)));
            if let Some(flat) = &flats[i] {
                down.iter_mut().for_each(|w| *w = 0);
                for (word, slot) in down.iter_mut().enumerate().take(old_words) {
                    let covered = (word + 1) * 64;
                    *slot = if covered <= n {
                        u64::MAX
                    } else {
                        u64::MAX >> (covered - n)
                    };
                }
                for &f in flat {
                    cand.iter_mut().for_each(|w| *w = 0);
                    set_bit(&mut cand, f);
                    cs.subs.row(f).or_into_dense(&mut cand[..old_words]);
                    and_into(&mut down, &cand);
                }
                for p in iter_bits(&down) {
                    parts.direct.set(p, xe);
                }
            }
        }
        pool.put(cand);
        pool.put(down);
        for i in 0..entries.len() {
            let up = ups.get(i as u32);
            for (j, flat) in flats.iter().enumerate() {
                if ids[i] == ids[j] {
                    continue;
                }
                let Some(flat) = flat else { continue };
                if flat.iter().all(|&f| get_bit(up, f)) {
                    parts.direct.set(ids[i], ids[j]);
                }
            }
        }

        // Ē into implicit targets: x --a--> Y whenever Y ⊆ R(x, a).
        // Rows with fewer targets than the smallest entry state cannot
        // contain one; candidate entries come from the first-member
        // buckets of the row's old-id bits. Rediscovered entry ids are
        // the one case where setting a target bit can disturb a later
        // test, so only that (rare, origin-carrying) shape pays for a
        // snapshot.
        let mut snapshot = pool.take(ext_words);
        let mut hits: Vec<u32> = Vec::new();
        for x in 0..n {
            for bits in parts.raw_arrows[x].values_mut() {
                if bits.popcount() < min_state_size {
                    continue;
                }
                hits.clear();
                {
                    let test: RowRef<'_> = if any_rediscovered {
                        snapshot.iter_mut().for_each(|w| *w = 0);
                        bits.as_ref().or_into_dense(&mut snapshot);
                        RowRef::Dense(&snapshot)
                    } else {
                        bits.as_ref()
                    };
                    for b in test.iter() {
                        if (b as usize) >= n {
                            break;
                        }
                        for &j in &first_buckets[b as usize] {
                            if test.contains_all_dense(&entries[j as usize].0) {
                                hits.push(j);
                            }
                        }
                    }
                }
                for &j in &hits {
                    bits.set(ids[j as usize]);
                }
            }
        }
        pool.put(snapshot);

        // Ē out of implicit classes: R̄(X, a) = R(X, a), plus implicit
        // targets contained in it.
        let label_words = cs.labels.len().div_ceil(64);
        let mut label_bits = pool.take(label_words);
        for (i, (state, _)) in entries.iter().enumerate() {
            let xe = ids[i];
            label_bits.iter_mut().for_each(|w| *w = 0);
            for q in iter_bits(state) {
                for &label in cs.labels_of(q) {
                    set_bit(&mut label_bits, label);
                }
            }
            for label in iter_bits(&label_bits) {
                let mut reached = pool.take(ext_words);
                for q in iter_bits(state) {
                    for &t in cs.arrow_targets(q, label) {
                        set_bit(&mut reached, t);
                    }
                }
                if is_zero(&reached) {
                    pool.put(reached);
                    continue;
                }
                let mut full = pool.take(ext_words);
                full.copy_from_slice(&reached);
                if popcount(&reached) >= min_state_size {
                    for b in iter_bits(&reached) {
                        if (b as usize) >= n {
                            break;
                        }
                        for &j in &first_buckets[b as usize] {
                            if subset(&entries[j as usize].0, &reached) {
                                set_bit(&mut full, ids[j as usize]);
                            }
                        }
                    }
                }
                pool.put(reached);
                match parts.raw_arrows[xe as usize].entry(label) {
                    std::collections::btree_map::Entry::Occupied(mut entry) => {
                        entry.get_mut().or_row(RowRef::Dense(&full));
                        pool.put(full);
                    }
                    std::collections::btree_map::Entry::Vacant(entry) => {
                        if row::accumulate_sparse(ext_words) {
                            entry.insert(SpecRow::from_dense(&full, ext_words));
                            pool.put(full);
                        } else {
                            entry.insert(SpecRow::Dense(full));
                        }
                    }
                }
            }
        }
        pool.put(label_bits);
    });

    let compiled = compile_dense(parts)?;
    Ok((compiled.decompile(), compiled))
}

// ---------------------------------------------------------------------------
// The Imp fixpoint in id space
// ---------------------------------------------------------------------------

/// A discovery witness in id space: follow `labels` from `start`.
pub(crate) struct IdWitness {
    pub(crate) start: ClassId,
    pub(crate) labels: Vec<LabelId>,
}

/// A dedup bucket: almost always a single state per hash, so the
/// spill vector (and its allocation) is reserved for actual collisions.
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn contains(&self, arena: &StateArena, row: &[u64]) -> bool {
        match self {
            Bucket::One(index) => arena.get(*index) == row,
            Bucket::Many(indices) => indices.iter().any(|&index| arena.get(index) == row),
        }
    }

    fn push(&mut self, index: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, index]),
            Bucket::Many(indices) => indices.push(index),
        }
    }
}

/// The fixpoint's dedup table: row hash → arena indices with that hash.
/// Full rows are compared on collision, so the table is exact; keying by
/// hash instead of by owned `Vec<u64>` saves one allocation per
/// *candidate* (most candidates are rediscoveries of known states).
struct StateTable {
    arena: StateArena,
    seen: FastMap<u64, Bucket>,
}

impl StateTable {
    fn new(words: usize) -> Self {
        StateTable {
            arena: StateArena::new(words),
            seen: FastMap::default(),
        }
    }

    /// Interns `row`, returning its index if it was new.
    fn insert(&mut self, row: &[u64]) -> Option<u32> {
        match self.seen.entry(hash_row(row)) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                if entry.get().contains(&self.arena, row) {
                    return None;
                }
                let index = self.arena.push(row);
                entry.get_mut().push(index);
                Some(index)
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                let index = self.arena.push(row);
                entry.insert(Bucket::One(index));
                Some(index)
            }
        }
    }
}

/// How one discovered state was first reached: through `label` from
/// either a class (`seed`, `parent` is a [`ClassId`]) or an earlier
/// state (`parent` is a state index). Witness paths materialize by
/// walking these records backwards — storing the chain instead of a
/// cloned label path per state turns witness bookkeeping from
/// O(states × depth) allocations into O(states) plain integers.
struct Step {
    parent: u32,
    label: LabelId,
    seed: bool,
}

/// The `I∞` fixpoint's output: every reachable MinS-canonical state (as
/// a class-id bitset in one flat arena) with its first-discovery step
/// chain, in discovery order.
pub(crate) struct DiscoveredStates {
    arena: StateArena,
    steps: Vec<Step>,
}

impl DiscoveredStates {
    /// Number of discovered states.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// The state bitset at `index` (ascending class-id bits).
    pub(crate) fn bits(&self, index: u32) -> &[u64] {
        self.arena.get(index)
    }

    /// Materializes the first-discovery witness of state `index`.
    pub(crate) fn witness(&self, index: u32) -> IdWitness {
        let mut labels = Vec::new();
        let mut current = index;
        loop {
            let step = &self.steps[current as usize];
            labels.push(step.label);
            if step.seed {
                labels.reverse();
                return IdWitness {
                    start: step.parent,
                    labels,
                };
            }
            current = step.parent;
        }
    }
}

/// Runs the `I∞` fixpoint of §4.2 on the compiled schema: every reachable
/// MinS-canonical state (as a class-id bitset) with its first-discovery
/// witness, in discovery order. Mirrors the symbolic
/// `reference`-module discovery exactly — classes and labels are iterated
/// in sorted (= id) order, so witnesses agree.
///
/// The fixpoint is a FIFO worklist over the state arena itself: state
/// `i` is expanded after every state discovered before it, and each
/// successor is inserted as soon as it is computed. Scratch rows come
/// from the thread's pool; discovered states live in a flat arena.
pub(crate) fn discover_states_ids(cs: &CompiledSchema) -> DiscoveredStates {
    let n = cs.classes.len();
    let words = cs.words();
    if n == 0 || cs.pair_labels.is_empty() {
        return DiscoveredStates {
            arena: StateArena::new(words),
            steps: Vec::new(),
        };
    }
    let label_words = cs.labels.len().div_ceil(64);
    let mut table = StateTable::new(words);
    let mut steps: Vec<Step> = Vec::new();

    scratch::with_pool(|pool| {
        // I₁: R(p, a) for every class and label, canonicalized by MinS,
        // in (class, label) order. Singleton target sets (the common
        // case) are their own MinS.
        for p in 0..n as u32 {
            for (label, (start, end)) in cs.pairs_of(p) {
                let mut reached = pool.take(words);
                for &t in &cs.targets[start as usize..end as usize] {
                    set_bit(&mut reached, t);
                }
                let state = if end - start == 1 {
                    reached
                } else {
                    let mut min = pool.take(words);
                    cs.min_s_bits_into(&reached, &mut min);
                    pool.put(reached);
                    min
                };
                if table.insert(&state).is_some() {
                    steps.push(Step {
                        parent: p,
                        label,
                        seed: true,
                    });
                }
                pool.put(state);
            }
        }

        // Iₙ₊₁ = R(X, a), stepping from canonical states (exact by W1).
        // Singleton states are skipped: stepping from `{q}` through `a`
        // gives `MinS(R(q, a))`, which the I₁ seeding above already
        // inserted — the symbolic engine re-derives (and re-rejects)
        // these, harmlessly. The expanded state is copied out of the
        // arena, which the insertions below may grow.
        let mut state = pool.take(words);
        let mut state_labels = pool.take(label_words);
        let mut index = 0u32;
        while (index as usize) < table.arena.len() {
            if popcount(table.arena.get(index)) >= 2 {
                state.copy_from_slice(table.arena.get(index));
                state_labels.iter_mut().for_each(|w| *w = 0);
                for member in iter_bits(&state) {
                    for &label in cs.labels_of(member) {
                        set_bit(&mut state_labels, label);
                    }
                }
                for label in iter_bits(&state_labels) {
                    let mut reached = pool.take(words);
                    for member in iter_bits(&state) {
                        for &t in cs.arrow_targets(member, label) {
                            set_bit(&mut reached, t);
                        }
                    }
                    if is_zero(&reached) {
                        pool.put(reached);
                        continue;
                    }
                    let mut next = pool.take(words);
                    cs.min_s_bits_into(&reached, &mut next);
                    pool.put(reached);
                    if table.insert(&next).is_some() {
                        steps.push(Step {
                            parent: index,
                            label,
                            seed: false,
                        });
                    }
                    pool.put(next);
                }
            }
            index += 1;
        }
        pool.put(state);
        pool.put(state_labels);
    });

    DiscoveredStates {
        arena: table.arena,
        steps,
    }
}

/// Translates an id-space state bitset back to a symbolic class set.
pub(crate) fn state_classes(cs: &CompiledSchema, bits: &[u64]) -> BTreeSet<Class> {
    iter_bits(bits).map(|id| cs.class(id).clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Class {
        Class::named(s)
    }

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    fn sample() -> WeakSchema {
        WeakSchema::builder()
            .specialize("Guide-dog", "Dog")
            .specialize("Police-dog", "Dog")
            .arrow("Dog", "age", "int")
            .arrow("Dog", "kind", "Breed")
            .arrow("Police-dog", "id-num", "int")
            .arrow("Lives", "occ", "Dog")
            .build()
            .unwrap()
    }

    #[test]
    fn compile_decompile_round_trips() {
        let g = sample();
        let compiled = CompiledSchema::compile(&g);
        assert_eq!(compiled.decompile(), g);
        assert_eq!(compiled.num_classes(), g.num_classes());
        assert_eq!(compiled.num_arrows(), g.num_arrows());
        assert_eq!(compiled.num_specializations(), g.num_specializations());
    }

    #[test]
    fn empty_schema_compiles() {
        let compiled = CompiledSchema::compile(&WeakSchema::empty());
        assert_eq!(compiled.num_classes(), 0);
        assert_eq!(compiled.decompile(), WeakSchema::empty());
    }

    #[test]
    fn id_queries_agree_with_symbolic() {
        let g = sample();
        let cs = CompiledSchema::compile(&g);
        let dog = cs.class_id(&c("Dog")).unwrap();
        let police = cs.class_id(&c("Police-dog")).unwrap();
        let age = cs.label_id(&l("age")).unwrap();
        assert!(cs.specializes(police, dog));
        assert!(cs.strictly_specializes(police, dog));
        assert!(!cs.specializes(dog, police));
        assert!(cs.specializes(dog, dog), "reflexive");
        assert!(!cs.strictly_specializes(dog, dog), "strict");
        // Police-dog inherits Dog's age arrow (W1 closure is compiled in).
        let targets = cs.arrow_targets(police, age);
        assert_eq!(targets.len(), 1);
        assert_eq!(cs.class(targets[0]), &c("int"));
        assert!(cs.class_id(&c("Cat")).is_none());
        assert!(cs.label_id(&l("nope")).is_none());
    }

    #[test]
    fn min_s_and_max_s_in_id_space() {
        let g = WeakSchema::builder()
            .specialize("C", "A")
            .specialize("C", "B")
            .build()
            .unwrap();
        let cs = CompiledSchema::compile(&g);
        let all: Vec<u32> = (0..cs.num_classes() as u32).collect();
        let min: Vec<&Class> = cs.min_s(&all).iter().map(|&i| cs.class(i)).collect();
        assert_eq!(min, vec![&c("C")]);
        let max: Vec<&Class> = cs.max_s(&all).iter().map(|&i| cs.class(i)).collect();
        assert_eq!(max, vec![&c("A"), &c("B")]);
        // Agreement with the symbolic antichains on the same set.
        let sym_min = g.min_s(cs.min_s(&all).iter().map(|&i| cs.class(i)));
        assert_eq!(sym_min.len(), 1);
    }

    #[test]
    fn compile_from_raw_closes_w1_w2() {
        // p' ⇒ p, p --a--> q, q ⇒ q' must close to p' --a--> q'.
        let classes = vec![c("p"), c("p'"), c("q"), c("q'")];
        let labels = vec![l("a")];
        let spec = [(1, 0), (2, 3)];
        let arrows = [(0, 0, 2)];
        let cs = compile_from_raw(classes, labels, &spec, &arrows).unwrap();
        let symbolic = WeakSchema::builder()
            .specialize("p'", "p")
            .specialize("q", "q'")
            .arrow("p", "a", "q")
            .build()
            .unwrap();
        assert_eq!(cs.decompile(), symbolic);
    }

    #[test]
    fn compile_from_raw_reports_cycles() {
        let classes = vec![c("a"), c("b"), c("c")];
        let spec = [(0, 1), (1, 2), (2, 0)];
        let err = compile_from_raw(classes, vec![], &spec, &[]).unwrap_err();
        assert_eq!(err.path.first(), err.path.last());
        assert!(err.path.len() >= 3);
        // The witness follows direct edges.
        for pair in err.path.windows(2) {
            assert!(spec.contains(&(pair[0], pair[1])), "non-edge {pair:?}");
        }
    }

    #[test]
    fn bit_iteration_crosses_word_boundaries() {
        let mut row = vec![0u64; 2];
        for i in [0u32, 63, 64, 100] {
            set_bit(&mut row, i);
        }
        assert_eq!(iter_bits(&row).collect::<Vec<_>>(), vec![0, 63, 64, 100]);
        assert!(get_bit(&row, 63) && !get_bit(&row, 62));
        clear_bit(&mut row, 63);
        assert!(!get_bit(&row, 63));
    }

    #[test]
    fn discovery_matches_symbolic_fixpoint() {
        let g = WeakSchema::builder()
            .arrow("C", "a", "B1")
            .arrow("C", "a", "B2")
            .arrow("B1", "b", "T1")
            .arrow("B2", "b", "T2")
            .build()
            .unwrap();
        let cs = CompiledSchema::compile(&g);
        let states = discover_states_ids(&cs);
        let sets: BTreeSet<BTreeSet<Class>> = (0..states.len() as u32)
            .map(|i| state_classes(&cs, states.bits(i)))
            .collect();
        // {B1,B2} and {T1,T2} plus the singleton seeds.
        assert!(sets.contains(&[c("B1"), c("B2")].into_iter().collect()));
        assert!(sets.contains(&[c("T1"), c("T2")].into_iter().collect()));
    }

    #[test]
    fn large_schema_round_trips_across_word_boundary() {
        // > 64 classes so the bitset rows span multiple words.
        let mut builder = WeakSchema::builder();
        for i in 0..70 {
            builder = builder.class(format!("C{i:03}"));
        }
        for i in 1..70usize {
            builder = builder.specialize(format!("C{:03}", i), format!("C{:03}", i / 2));
        }
        for i in 0..35usize {
            builder = builder.arrow(format!("C{i:03}"), "f", format!("C{:03}", 69 - i));
        }
        let g = builder.build().unwrap();
        let cs = CompiledSchema::compile(&g);
        assert_eq!(cs.decompile(), g);
    }
}
