//! The `bench --json` runner: the machine-readable perf trajectory.
//!
//! This module measures engine variants on the `workload` generators and
//! emits one `BENCH_<n>.json` datapoint per run — `(family, op,
//! n_classes, variant, median_ns, calibration_ns, allocs_per_iter,
//! peak_bytes, throughput)` records plus derived baseline-over-improved
//! speedups (time), allocation ratios and memory ratios — which CI
//! uploads as an artifact on every PR and checks with the `guard`
//! binary against a committed baseline.
//!
//! Every variant of one `(family, op, n_classes)` configuration is
//! measured in one interleaved group and gets exactly one record, so
//! `(family, op, n_classes, variant)` is a unique record key; a variant
//! that appears in a pair is the same measurement as its own record.
//!
//! Variants measured:
//!
//! * `compiled` — the compiled id-space engine, what every production
//!   caller runs. The guard gates these records' time;
//! * `symbolic` — the retained reference engine, paired against
//!   `compiled` for information;
//! * `compiled-dense` — the compiled engine with the adaptive sparse
//!   rows disabled (all-dense bitset matrices, the pre-adaptive
//!   behavior), paired against `compiled` on the `taxonomy` family,
//!   where the memory headline (`mem_ratio`) lives.
//!
//! ## Calibration
//!
//! Every group also runs `calibration_kernel` once per iteration,
//! interleaved with the variants, and every record of the group carries
//! its median as `calibration_ns`. The kernel calls no workspace code,
//! so `median_ns / calibration_ns` cancels the machine's speed at the
//! moment the group ran: a slower machine slows both, a slower engine
//! only the median.
//!
//! The registry, supergraph and durable-publish paths are measured end
//! to end on the real daemon by `perfbench`, not here.
//!
//! JSON schema version 7 added `calibration_ns` and dropped the
//! per-record `phases` map (5–6) and the `compiled-nopool` variant;
//! older versions are described in the README.
//!
//! ## The counting allocator
//!
//! Allocation and byte counts come from a std-only `#[global_allocator]`
//! hook: a transparent wrapper over [`std::alloc::System`] that bumps
//! relaxed atomics per `alloc`/`alloc_zeroed`/`realloc` call — a call
//! counter plus a live-byte gauge with a resettable high-water mark, so
//! each measured iteration can report its peak heap footprint. It is
//! registered for this crate's binaries and tests only (the allocator of
//! a Rust program is chosen by the final binary, so the library crates
//! are unaffected), and the counters cost a few uncontended atomic adds
//! per allocation — identical overhead for every variant, so paired
//! comparisons stay fair.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use schema_merge_core::row::set_sparse_enabled;
use schema_merge_core::{reference, Merger, WeakSchema};
use schema_merge_er::to_core;
use schema_merge_workload::{
    pathological_nfa, random_er_schema, taxonomy_family, wide_family, ErParams, SchemaParams,
    TaxonomyParams,
};

/// The counting global allocator (see the module docs).
#[allow(unsafe_code)]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    fn on_alloc(size: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let now = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    }

    /// Counts allocations and tracks live/peak heap bytes, then defers
    /// to [`System`].
    pub struct CountingAllocator;

    // SAFETY: every method defers verbatim to `System`, which upholds
    // the `GlobalAlloc` contract; the counters have no effect on layout,
    // pointers or aliasing.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            on_alloc(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            on_alloc(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                let grown = (new_size - layout.size()) as u64;
                let now = CURRENT_BYTES.fetch_add(grown, Ordering::Relaxed) + grown;
                PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT_BYTES.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
            }
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Total allocation calls since process start (monotone).
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Heap bytes currently live (allocated and not yet freed).
    pub fn current_bytes() -> u64 {
        CURRENT_BYTES.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live size. Call before
    /// a measured region, then read [`peak_bytes`] after it.
    pub fn reset_peak() {
        PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The high-water mark of live heap bytes since the last
    /// [`reset_peak`] (or process start).
    pub fn peak_bytes() -> u64 {
        PEAK_BYTES.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator;

pub use counting_alloc::{allocations, current_bytes, peak_bytes, reset_peak};

/// The compiled engine measured THROUGH the `Merger` façade — what every
/// production caller (CLI, daemon, registry) actually runs, so any
/// overhead the façade adds (planning, provenance, diagnostics) is part
/// of the measurement rather than hidden behind it.
fn facade_merge<'a>(schemas: impl IntoIterator<Item = &'a WeakSchema>) {
    black_box(
        Merger::new()
            .schemas(schemas)
            .execute()
            .expect("workload merges"),
    );
}

fn facade_join<'a>(schemas: impl IntoIterator<Item = &'a WeakSchema>) -> WeakSchema {
    crate::facade_join(schemas).expect("workload joins")
}

/// The calibration kernel: fixed work that calls no workspace code —
/// a Warshall transitive closure over a 192-node bit matrix, then a
/// 400-entry `BTreeMap<String, u32>` build. It exercises the same kinds
/// of work as the engines (bitset rows, string keys, small allocations),
/// so the machine's speed moves it the way it moves them.
fn calibration_kernel() {
    const NODES: usize = 192;
    const WORDS: usize = NODES / 64;
    let step = black_box(7);
    let mut reach = [[0u64; WORDS]; NODES];
    for (i, row) in reach.iter_mut().enumerate() {
        for j in [(i * step + 1) % NODES, (i * 13 + 5) % NODES] {
            row[j / 64] |= 1 << (j % 64);
        }
    }
    for k in 0..NODES {
        let through = reach[k];
        for row in &mut reach {
            if row[k / 64] >> (k % 64) & 1 == 1 {
                for (word, add) in row.iter_mut().zip(through) {
                    *word |= add;
                }
            }
        }
    }
    let mut names = BTreeMap::new();
    for i in 0..400u32 {
        names.insert(
            format!("class-{}", i.wrapping_mul(2_654_435_761) % 10_007),
            i,
        );
    }
    black_box((reach, names));
}

/// The retained pre-compilation `BTreeMap`/`BTreeSet` path.
pub const VARIANT_SYMBOLIC: &str = "symbolic";
/// The compiled id-space engine.
pub const VARIANT_COMPILED: &str = "compiled";
/// The compiled engine with the adaptive sparse rows disabled — every
/// closure matrix dense, the pre-adaptive memory behavior.
pub const VARIANT_COMPILED_DENSE: &str = "compiled-dense";

/// One measurement: an operation on a workload at a size, on one engine
/// variant.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Workload family: `random`, `pathological`, `er_roundtrip`,
    /// `wide` or `taxonomy`.
    pub family: &'static str,
    /// Operation: `weak_join`, `complete`, `fixpoint` or `merge`.
    pub op: &'static str,
    /// Classes in the (joined) input schema.
    pub n_classes: usize,
    /// Arrows in the (joined) input schema — the throughput element.
    pub n_arrows: usize,
    /// Engine variant measured.
    pub variant: &'static str,
    /// Timed iterations (after one warmup).
    pub iters: usize,
    /// Median wall time of one iteration, nanoseconds.
    pub median_ns: u128,
    /// Median wall time of the calibration kernel over the same
    /// interleaved iterations, nanoseconds — one value per group, shared
    /// by its records.
    pub calibration_ns: u128,
    /// Allocator calls per iteration (mean over the timed iterations).
    pub allocs_per_iter: u64,
    /// Peak live heap bytes reached during one iteration, beyond what
    /// was already live when it started (max over the timed iterations).
    pub peak_bytes: u64,
    /// Arrows processed per second at the median.
    pub throughput: f64,
}

/// A derived baseline-over-improved ratio for one (family, op, size).
#[derive(Debug, Clone)]
pub struct Speedup {
    /// Workload family.
    pub family: &'static str,
    /// Operation.
    pub op: &'static str,
    /// Classes in the input.
    pub n_classes: usize,
    /// Arrows in the input — disambiguates same-class-count
    /// configurations.
    pub n_arrows: usize,
    /// The slower reference variant.
    pub baseline: &'static str,
    /// The engine being claimed faster.
    pub improved: &'static str,
    /// `baseline median / improved median` — > 1 means improved wins.
    pub speedup: f64,
    /// `baseline allocs / improved allocs` — > 1 means improved
    /// allocates less (0 when the baseline made no allocations).
    pub alloc_ratio: f64,
    /// `baseline peak bytes / improved peak bytes` — > 1 means improved
    /// needs less heap (0 when either side's peak rounded to nothing).
    pub mem_ratio: f64,
}

/// A full run of the suite.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// All measurements, one per `(family, op, n_classes, variant)` key.
    pub records: Vec<BenchRecord>,
    /// All derived speedups.
    pub speedups: Vec<Speedup>,
}

impl BenchReport {
    /// The record with this key, if one was measured.
    pub fn record(
        &self,
        family: &str,
        op: &str,
        n_classes: usize,
        variant: &str,
    ) -> Option<&BenchRecord> {
        self.records.iter().find(|r| {
            r.family == family && r.op == op && r.n_classes == n_classes && r.variant == variant
        })
    }
}

/// One variant of a measured group: its name and one iteration of its
/// work.
type Variant<'a> = (&'static str, Box<dyn FnMut() + 'a>);

struct Suite {
    iters: usize,
    report: BenchReport,
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

impl Suite {
    /// Measures every variant of one `(family, op, size)` configuration,
    /// with the calibration kernel interleaved, and derives one speedup
    /// per `(baseline, improved)` pair of variant names. Each variant
    /// yields exactly one record.
    fn measure(
        &mut self,
        family: &'static str,
        op: &'static str,
        joined: &WeakSchema,
        mut variants: Vec<Variant<'_>>,
        pairs: &[(&'static str, &'static str)],
    ) {
        let n_classes = joined.num_classes();
        let n_arrows = joined.num_arrows();
        calibration_kernel(); // warmup
        for (_, run) in &mut variants {
            run(); // warmup
        }
        // Interleaved: one run of every variant and of the calibration
        // kernel per iteration, so clock-speed drift (thermal throttling,
        // noisy neighbors) biases every variant and the calibration
        // equally instead of whichever happened to run last.
        let mut samples: Vec<Vec<u128>> = vec![Vec::with_capacity(self.iters); variants.len()];
        let mut calibration = Vec::with_capacity(self.iters);
        let mut allocs = vec![0u64; variants.len()];
        let mut peaks = vec![0u64; variants.len()];
        for _ in 0..self.iters {
            let start = Instant::now();
            calibration_kernel();
            calibration.push(start.elapsed().as_nanos());
            for (i, (_, run)) in variants.iter_mut().enumerate() {
                let allocs_before = allocations();
                let live_before = current_bytes();
                reset_peak();
                let start = Instant::now();
                run();
                samples[i].push(start.elapsed().as_nanos());
                allocs[i] += allocations() - allocs_before;
                peaks[i] = peaks[i].max(peak_bytes().saturating_sub(live_before));
            }
        }
        let calibration_ns = median(calibration);
        for (((variant, _), samples), (allocs, peak)) in variants
            .iter()
            .zip(samples)
            .zip(allocs.into_iter().zip(peaks))
        {
            assert!(
                self.report.record(family, op, n_classes, variant).is_none(),
                "duplicate bench record key {family}/{op}/{n_classes}/{variant}"
            );
            let median_ns = median(samples);
            self.report.records.push(BenchRecord {
                family,
                op,
                n_classes,
                n_arrows,
                variant,
                iters: self.iters,
                median_ns,
                calibration_ns,
                allocs_per_iter: allocs / self.iters as u64,
                peak_bytes: peak,
                throughput: n_arrows as f64 / (median_ns.max(1) as f64 / 1e9),
            });
        }
        for &(baseline, improved) in pairs {
            let find = |variant| {
                self.report
                    .record(family, op, n_classes, variant)
                    .unwrap_or_else(|| panic!("pair names unmeasured variant {variant}"))
            };
            let (base, imp) = (find(baseline), find(improved));
            let ratio = |b: u64, i: u64| {
                if b == 0 || i == 0 {
                    0.0
                } else {
                    b as f64 / i as f64
                }
            };
            let speedup = Speedup {
                family,
                op,
                n_classes,
                n_arrows,
                baseline,
                improved,
                speedup: base.median_ns as f64 / imp.median_ns.max(1) as f64,
                alloc_ratio: ratio(base.allocs_per_iter, imp.allocs_per_iter),
                mem_ratio: ratio(base.peak_bytes, imp.peak_bytes),
            };
            self.report.speedups.push(speedup);
        }
    }

    /// The completion groups: the compiled engine — and, with
    /// `symbolic`, the reference engine against it — on the whole
    /// `complete` operation, and the compiled engine alone on the
    /// `fixpoint` ([`schema_merge_core::complete::imp_state_count`]).
    /// The fixpoint record is where the scratch pool's "stops allocating
    /// per iteration" shows: its `allocs_per_iter` is a small constant
    /// that the guard holds exactly.
    fn completion(&mut self, family: &'static str, joined: &WeakSchema, symbolic: bool) {
        let mut variants: Vec<Variant<'_>> = Vec::new();
        let mut pairs = Vec::new();
        if symbolic {
            variants.push((
                VARIANT_SYMBOLIC,
                Box::new(|| {
                    black_box(reference::complete_with_report(joined).expect("completes"));
                }),
            ));
            pairs.push((VARIANT_SYMBOLIC, VARIANT_COMPILED));
        }
        variants.push((
            VARIANT_COMPILED,
            Box::new(|| {
                black_box(
                    schema_merge_core::complete::complete_with_report(joined).expect("completes"),
                );
            }),
        ));
        self.measure(family, "complete", joined, variants, &pairs);

        let compiled = schema_merge_core::CompiledSchema::compile(joined);
        self.measure(
            family,
            "fixpoint",
            joined,
            vec![(
                VARIANT_COMPILED,
                Box::new(|| {
                    black_box(schema_merge_core::complete::imp_state_count(&compiled));
                }),
            )],
            &[],
        );
    }

    /// The façade merge — and, with `symbolic`, the reference merge
    /// against it.
    fn merges(&mut self, family: &'static str, refs: &[&WeakSchema], symbolic: bool) {
        let joined = facade_join(refs.iter().copied());
        let mut variants: Vec<Variant<'_>> = Vec::new();
        let mut pairs = Vec::new();
        if symbolic {
            variants.push((
                VARIANT_SYMBOLIC,
                Box::new(|| {
                    black_box(reference::merge(refs.iter().copied()).expect("merges"));
                }),
            ));
            pairs.push((VARIANT_SYMBOLIC, VARIANT_COMPILED));
        }
        variants.push((
            VARIANT_COMPILED,
            Box::new(|| facade_merge(refs.iter().copied())),
        ));
        self.measure(family, "merge", &joined, variants, &pairs);
    }

    fn random_family(&mut self, classes: usize) {
        // Densities follow the paper's "realistic regime": many labels,
        // ~2 arrows per class across the *joined* schema. Denser label
        // reuse turns the Imp fixpoint into a hard NFA determinization —
        // that regime is measured separately by the `pathological`
        // family, not smuggled in here.
        let params = SchemaParams {
            vocabulary: classes,
            classes,
            labels: (classes / 2).max(4),
            arrows: classes / 2,
            specializations: classes / 8,
            seed: 0xB05E + classes as u64,
        };
        let family = schema_merge_workload::schema_family(&params, 4);
        let refs: Vec<&WeakSchema> = family.iter().collect();
        let joined = facade_join(refs.iter().copied());

        self.measure(
            "random",
            "weak_join",
            &joined,
            vec![
                (
                    VARIANT_SYMBOLIC,
                    Box::new(|| {
                        black_box(
                            reference::weak_join_all(refs.iter().copied()).expect("compatible"),
                        );
                    }),
                ),
                (
                    VARIANT_COMPILED,
                    Box::new(|| {
                        black_box(
                            Merger::new()
                                .schemas(refs.iter().copied())
                                .join()
                                .expect("compatible"),
                        );
                    }),
                ),
            ],
            &[(VARIANT_SYMBOLIC, VARIANT_COMPILED)],
        );
        self.completion("random", &joined, true);
        self.merges("random", &refs, true);
    }

    fn pathological(&mut self, n: usize) {
        let schema = pathological_nfa(n);
        self.completion("pathological", &schema, true);
        self.merges("pathological", &[&schema], false);
    }

    fn er_roundtrip(&mut self, entities: usize) {
        let params = ErParams {
            entities,
            domains: entities / 2 + 1,
            attributes: entities * 2,
            relationships: entities / 2,
            isa: entities / 3,
            one_role_percent: 30,
            seed: 17,
        };
        let (core1, _) = to_core(&random_er_schema(&params));
        let (core2, _) = to_core(&random_er_schema(&ErParams { seed: 18, ..params }));
        self.merges("er_roundtrip", &[&core1, &core2], true);
    }

    /// The *wide* workload — the daemon's real traffic shape: many small
    /// member schemas over one shared vocabulary, with occasional
    /// attribute-target disagreements (so completion has genuine
    /// implicit-class work). The merge is dominated by walking all the
    /// members and by the fixpoint.
    fn wide(&mut self, members: usize) {
        let family = wide_family(members, 0x51DE);
        let refs: Vec<&WeakSchema> = family.iter().collect();
        self.merges("wide", &refs, false);
        self.completion("wide", &facade_join(refs.iter().copied()), false);
    }

    /// The taxonomy workload — the 10k-class ontology shape: a
    /// multi-forest class hierarchy *above the sparse-row floor* (4096
    /// classes), merged as a two-member federated family. The pair is
    /// `compiled-dense` vs `compiled` — the adaptive representation's
    /// memory headline. With sparse rows forced off every closure matrix
    /// is O(classes²) bits; the default keeps taxonomy rows (a handful of
    /// ancestors each) at O(populated ids), and `mem_ratio` reports the
    /// peak-heap quotient.
    fn taxonomy_merges(&mut self, classes: usize, forests: usize) {
        let params = TaxonomyParams::dag(classes, forests, 0xC1A55);
        let family = taxonomy_family(&params, 2);
        let refs: Vec<&WeakSchema> = family.iter().collect();
        let joined = facade_join(refs.iter().copied());
        let merge = || facade_merge(refs.iter().copied());
        self.measure(
            "taxonomy",
            "merge",
            &joined,
            vec![
                (
                    VARIANT_COMPILED_DENSE,
                    Box::new(move || {
                        set_sparse_enabled(false);
                        merge();
                        set_sparse_enabled(true);
                    }),
                ),
                (VARIANT_COMPILED, Box::new(merge)),
            ],
            &[(VARIANT_COMPILED_DENSE, VARIANT_COMPILED)],
        );
    }
}

/// Runs the suite. `quick` is the CI profile: fewer iterations and only
/// the sizes the acceptance trajectory tracks (including the 200-class
/// random workload, the 64-member wide workload and the 6000-class
/// taxonomy).
pub fn run_suite(quick: bool) -> BenchReport {
    let mut suite = Suite {
        iters: if quick { 7 } else { 15 },
        report: BenchReport::default(),
    };
    let random_sizes: &[usize] = if quick {
        &[50, 200]
    } else {
        &[50, 100, 200, 400]
    };
    for &classes in random_sizes {
        suite.random_family(classes);
    }
    suite.pathological(if quick { 8 } else { 10 });
    suite.er_roundtrip(32);
    suite.wide(64);
    suite.taxonomy_merges(6_000, 6);
    if !quick {
        suite.taxonomy_merges(12_000, 8);
    }
    suite.report
}

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the report as the `BENCH_<n>.json` document (no external JSON
/// dependency: the structure is flat and the strings are identifiers).
pub fn to_json(report: &BenchReport, pr_index: u32) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"bench_schema_version\": 7,\n  \"pr\": {pr_index},\n"
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in report.records.iter().enumerate() {
        let comma = if i + 1 < report.records.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"op\": \"{}\", \"n_classes\": {}, \"n_arrows\": {}, \
             \"variant\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"calibration_ns\": {}, \
             \"allocs_per_iter\": {}, \"peak_bytes\": {}, \"throughput_arrows_per_s\": {:.1}}}{comma}\n",
            json_escape(r.family),
            json_escape(r.op),
            r.n_classes,
            r.n_arrows,
            json_escape(r.variant),
            r.iters,
            r.median_ns,
            r.calibration_ns,
            r.allocs_per_iter,
            r.peak_bytes,
            r.throughput,
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    for (i, s) in report.speedups.iter().enumerate() {
        let comma = if i + 1 < report.speedups.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"op\": \"{}\", \"n_classes\": {}, \"n_arrows\": {}, \
             \"baseline\": \"{}\", \"improved\": \"{}\", \"speedup\": {:.2}, \
             \"alloc_ratio\": {:.2}, \"mem_ratio\": {:.2}}}{comma}\n",
            json_escape(s.family),
            json_escape(s.op),
            s.n_classes,
            s.n_arrows,
            json_escape(s.baseline),
            json_escape(s.improved),
            s.speedup,
            s.alloc_ratio,
            s.mem_ratio,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the report as a human-readable table: one line per record
/// (its median, its median over the group's calibration, and its
/// allocation counts), then one line per speedup.
pub fn to_table(report: &BenchReport) -> String {
    let mut out = String::from(
        "family        op         classes   arrows  variant            median µs calibrated     allocs   peak KiB\n",
    );
    out.push_str(&"-".repeat(103));
    out.push('\n');
    for r in &report.records {
        out.push_str(&format!(
            "{:<13} {:<9} {:>8} {:>8}  {:<15} {:>12.1} {:>10.2} {:>10} {:>10.1}\n",
            r.family,
            r.op,
            r.n_classes,
            r.n_arrows,
            r.variant,
            r.median_ns as f64 / 1e3,
            r.median_ns as f64 / r.calibration_ns.max(1) as f64,
            r.allocs_per_iter,
            r.peak_bytes as f64 / 1024.0,
        ));
    }
    for s in &report.speedups {
        out.push_str(&format!(
            "{} {} @{}c: {} over {} {:.2}x time, {:.2}x allocs, {:.2}x memory\n",
            s.family,
            s.op,
            s.n_classes,
            s.improved,
            s.baseline,
            s.speedup,
            s.alloc_ratio,
            s.mem_ratio,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peak_lock;

    #[test]
    fn tiny_suite_produces_paired_records_and_valid_json() {
        let _peak = peak_lock();
        let mut suite = Suite {
            iters: 1,
            report: BenchReport::default(),
        };
        suite.random_family(16);
        let report = suite.report;
        assert_eq!(
            report.records.len(),
            7,
            "weak_join 2 + complete 2 + fixpoint 1 + merge 2 variants"
        );
        assert_eq!(report.speedups.len(), 3, "symbolic against compiled");
        assert!(
            report.records.iter().all(|r| r.calibration_ns > 0),
            "every record carries its group's calibration"
        );
        let mut keys: Vec<_> = report
            .records
            .iter()
            .map(|r| (r.family, r.op, r.n_classes, r.variant))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), report.records.len(), "record keys are unique");
        let json = to_json(&report, 2);
        assert!(json.contains("\"bench_schema_version\": 7"));
        assert!(!json.contains("\"threads\""));
        assert!(!json.contains("\"phases\""));
        assert!(json.contains("\"variant\": \"compiled\""));
        assert!(json.contains("\"calibration_ns\":"));
        assert!(json.contains("\"op\": \"weak_join\""));
        assert!(json.contains("\"baseline\": \"symbolic\""));
        assert!(json.contains("\"allocs_per_iter\":"));
        assert!(json.contains("\"peak_bytes\":"));
        assert!(json.contains("\"alloc_ratio\":"));
        assert!(json.contains("\"mem_ratio\":"));
        // Crude structural sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = to_table(&report);
        assert!(table.contains("weak_join"));
    }

    #[test]
    fn allocation_counter_is_live() {
        let _peak = peak_lock();
        let before = allocations();
        black_box(vec![0u8; 4096]);
        assert!(allocations() > before, "the hook counts heap allocations");
    }

    #[test]
    fn peak_tracker_observes_a_transient_allocation() {
        let _peak = peak_lock();
        // Only assert the guaranteed lower bound: while our megabyte is
        // live it is part of the live-byte gauge, and the alloc hook
        // folds the post-alloc gauge into the high-water mark — so the
        // mark must cover at least the megabyte itself.
        reset_peak();
        let buffer = black_box(vec![0u8; 1 << 20]);
        let during = peak_bytes();
        assert!(
            during >= 1 << 20,
            "peak must cover the live megabyte: {during}"
        );
        drop(buffer);
    }

    #[test]
    fn taxonomy_workload_pairs_representations() {
        let _peak = peak_lock();
        let mut suite = Suite {
            iters: 1,
            report: BenchReport::default(),
        };
        // Small forest count keeps this a unit test; the representation
        // pair still runs (below the sparse floor both sides are dense,
        // which must also measure cleanly).
        suite.taxonomy_merges(400, 4);
        let report = suite.report;
        assert_eq!(report.records.len(), 2, "one pair");
        assert_eq!(report.speedups.len(), 1);
        let rep = &report.speedups[0];
        assert_eq!(
            (rep.baseline, rep.improved),
            (VARIANT_COMPILED_DENSE, VARIANT_COMPILED)
        );
        for record in &report.records {
            assert_eq!(record.family, "taxonomy");
            assert!(record.peak_bytes > 0, "a merge allocates a peak");
        }
        assert!(rep.mem_ratio > 0.0);
    }

    #[test]
    fn wide_workload_records_merge_complete_and_fixpoint() {
        let _peak = peak_lock();
        let mut suite = Suite {
            iters: 1,
            report: BenchReport::default(),
        };
        suite.wide(6);
        let report = suite.report;
        let ops: Vec<_> = report.records.iter().map(|r| (r.op, r.variant)).collect();
        assert_eq!(
            ops,
            [
                ("merge", VARIANT_COMPILED),
                ("complete", VARIANT_COMPILED),
                ("fixpoint", VARIANT_COMPILED)
            ]
        );
        assert!(report.speedups.is_empty(), "no reference variant, no pair");
        let fixpoint = &report.records[2];
        assert!(
            fixpoint.allocs_per_iter < 100,
            "the pooled fixpoint allocates a handful of times per run, not per step: {}",
            fixpoint.allocs_per_iter
        );
    }
}
