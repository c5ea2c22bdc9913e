//! The `bench --json` runner: the machine-readable perf trajectory.
//!
//! This module measures engine variants on the `workload` generators and
//! emits one `BENCH_<n>.json` datapoint per run — `(family, op,
//! n_classes, variant, median_ns, allocs_per_iter, throughput)` records
//! plus derived baseline-over-improved speedups (time) and allocation
//! ratios — which CI uploads as an artifact on every PR and guards with
//! the `guard` binary against the committed trajectory.
//!
//! Every variant of one `(family, op, n_classes)` configuration is
//! measured in one interleaved group and gets exactly one record, so
//! `(family, op, n_classes, variant)` is a unique record key; a variant
//! that appears in two pairs (say `compiled`, against both `symbolic`
//! and `compiled-nopool`) is one measurement, not two.
//!
//! Variant pairs tracked:
//!
//! * `symbolic` vs `compiled` — the retained reference engine against
//!   the compiled id-space engine;
//! * `compiled-nopool` vs `compiled` — the compiled engine with the
//!   scratch pool disabled (the pre-pool allocation behavior) against
//!   the pooled engine, making the allocations-per-merge win measurable
//!   rather than inferable;
//! * `compiled-dense` vs `compiled` — the compiled engine with the
//!   adaptive sparse rows disabled (all-dense bitset matrices, the
//!   pre-adaptive behavior) against the default, on the `taxonomy`
//!   family where the memory headline (`mem_ratio`) lives.
//!
//! The registry, supergraph and durable-publish paths are measured end
//! to end on the real daemon by `perfbench`, not here.
//!
//! JSON schema version 6: version 5 without the document's `threads`
//! field, which went with the thread-count variant. Version 5 added a
//! per-record `phases` map — wall time per pipeline stage (span name →
//! nanoseconds, from one extra untimed instrumented run), so a speedup
//! can be attributed to the stage that earned it. Version 4 added `peak_bytes` (per-iteration heap
//! high-water mark) and `mem_ratio` per speedup; version 3 added
//! `allocs_per_iter`/`alloc_ratio`; version 2 had neither; version 1
//! hard coded the symbolic/compiled pair.
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

use std::hint::black_box;
use std::time::Instant;

use schema_merge_core::row::set_sparse_enabled;
use schema_merge_core::{reference, Merger, WeakSchema};
use schema_merge_er::to_core;
use schema_merge_telemetry as telemetry;
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

/// Runs `f` with this thread's scratch pool disabled — the pre-pool
/// allocation behavior.
fn without_pool(f: impl FnOnce()) {
    schema_merge_core::scratch::set_pool_enabled(false);
    f();
    schema_merge_core::scratch::set_pool_enabled(true);
}

/// The retained pre-compilation `BTreeMap`/`BTreeSet` path.
pub const VARIANT_SYMBOLIC: &str = "symbolic";
/// The compiled id-space engine.
pub const VARIANT_COMPILED: &str = "compiled";
/// The compiled path with the scratch pool disabled — the pre-pool
/// allocation behavior, kept measurable for the trajectory.
pub const VARIANT_COMPILED_NOPOOL: &str = "compiled-nopool";
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
    /// Allocator calls per iteration (mean over the timed iterations).
    pub allocs_per_iter: u64,
    /// Peak live heap bytes reached during one iteration, beyond what
    /// was already live when it started (max over the timed iterations).
    pub peak_bytes: u64,
    /// Arrows processed per second at the median.
    pub throughput: f64,
    /// Wall time attributed to each pipeline phase (span name →
    /// nanoseconds), captured from one extra *untimed* instrumented run
    /// of the variant. Nested spans overlap (a `merge` root covers its
    /// `join`/`completion` children; a `commit` covers `plan`/`execute`/
    /// `wal-append`), so entries are a breakdown, not a partition. Empty
    /// when the variant's code path opens no spans (the symbolic
    /// reference engine, bare completion calls).
    pub phases: Vec<(&'static str, u64)>,
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

/// One extra, untimed run of `f` with span capture enabled for this
/// thread only, aggregated by span name — the per-variant `phases`
/// breakdown that attributes a pair's medians to pipeline stages (join,
/// completion, wal-append, …). Capture is thread-scoped and dropped
/// before returning, so it cannot leak instrumentation cost into the
/// timed iterations.
fn capture_phases(f: &mut impl FnMut()) -> Vec<(&'static str, u64)> {
    let _scope = telemetry::thread_span_scope();
    let mark = telemetry::span_mark();
    f();
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for span in telemetry::drain_spans_since(mark) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total = total.saturating_add(span.duration_ns),
            None => totals.push((span.name, span.duration_ns)),
        }
    }
    totals
}

impl Suite {
    /// Measures every variant of one `(family, op, size)` configuration
    /// and derives one speedup per `(baseline, improved)` pair of variant
    /// names. Each variant yields exactly one record.
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
        for (_, run) in &mut variants {
            run(); // warmup
        }
        // Phase attribution runs between warmup and timing: warm caches,
        // and the span scope is closed again before any clock starts.
        let phases: Vec<_> = variants
            .iter_mut()
            .map(|(_, run)| capture_phases(run))
            .collect();
        // Interleaved: one run of every variant per iteration, so
        // clock-speed drift (thermal throttling, noisy neighbors) biases
        // every variant equally instead of whichever happened to run
        // last.
        let mut samples: Vec<Vec<u128>> = vec![Vec::with_capacity(self.iters); variants.len()];
        let mut allocs = vec![0u64; variants.len()];
        let mut peaks = vec![0u64; variants.len()];
        for _ in 0..self.iters {
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
        for (i, ((variant, _), phases)) in variants.iter().zip(phases).enumerate() {
            assert!(
                self.report.record(family, op, n_classes, variant).is_none(),
                "duplicate bench record key {family}/{op}/{n_classes}/{variant}"
            );
            samples[i].sort_unstable();
            let median_ns = samples[i][samples[i].len() / 2];
            self.report.records.push(BenchRecord {
                family,
                op,
                n_classes,
                n_arrows,
                variant,
                iters: self.iters,
                median_ns,
                allocs_per_iter: allocs[i] / self.iters as u64,
                peak_bytes: peaks[i],
                throughput: n_arrows as f64 / (median_ns.max(1) as f64 / 1e9),
                phases,
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

    /// The completion groups: the compiled engine with the scratch pool
    /// disabled (per-step allocation behavior) against the pooled
    /// default — and, with `symbolic`, the reference engine against it —
    /// on the whole `complete` operation and on the `fixpoint` alone
    /// ([`schema_merge_core::complete::imp_state_count`]). The whole-op
    /// ratio is diluted by the symbolic materialization of the result
    /// (BTree nodes the pool cannot recycle); the fixpoint pair is where
    /// the "stops allocating per iteration" claim is measured.
    fn completion(&mut self, family: &'static str, joined: &WeakSchema, symbolic: bool) {
        let complete = || {
            black_box(
                schema_merge_core::complete::complete_with_report(joined).expect("completes"),
            );
        };
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
            VARIANT_COMPILED_NOPOOL,
            Box::new(move || without_pool(complete)),
        ));
        variants.push((VARIANT_COMPILED, Box::new(complete)));
        pairs.push((VARIANT_COMPILED_NOPOOL, VARIANT_COMPILED));
        self.measure(family, "complete", joined, variants, &pairs);

        let compiled = schema_merge_core::CompiledSchema::compile(joined);
        let fixpoint = || {
            black_box(schema_merge_core::complete::imp_state_count(&compiled));
        };
        self.measure(
            family,
            "fixpoint",
            joined,
            vec![
                (
                    VARIANT_COMPILED_NOPOOL,
                    Box::new(move || without_pool(fixpoint)),
                ),
                (VARIANT_COMPILED, Box::new(fixpoint)),
            ],
            &[(VARIANT_COMPILED_NOPOOL, VARIANT_COMPILED)],
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
        "  \"bench_schema_version\": 6,\n  \"pr\": {pr_index},\n"
    ));
    out.push_str("  \"records\": [\n");
    for (i, r) in report.records.iter().enumerate() {
        let comma = if i + 1 < report.records.len() {
            ","
        } else {
            ""
        };
        let phases: Vec<String> = r
            .phases
            .iter()
            .map(|(name, ns)| format!("\"{}\": {ns}", json_escape(name)))
            .collect();
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"op\": \"{}\", \"n_classes\": {}, \"n_arrows\": {}, \
             \"variant\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"allocs_per_iter\": {}, \
             \"peak_bytes\": {}, \"throughput_arrows_per_s\": {:.1}, \
             \"phases\": {{{}}}}}{comma}\n",
            json_escape(r.family),
            json_escape(r.op),
            r.n_classes,
            r.n_arrows,
            json_escape(r.variant),
            r.iters,
            r.median_ns,
            r.allocs_per_iter,
            r.peak_bytes,
            r.throughput,
            phases.join(", "),
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

/// Renders the report as a human-readable table.
pub fn to_table(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<13} {:<9} {:>8} {:>8}  {:>26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8}\n",
        "family",
        "op",
        "classes",
        "arrows",
        "pair",
        "baseline µs",
        "improved µs",
        "speedup",
        "allocs",
        "peak MiB",
        "memory"
    ));
    out.push_str(&"-".repeat(132));
    out.push('\n');
    for s in &report.speedups {
        let record = |variant| {
            report
                .record(s.family, s.op, s.n_classes, variant)
                .expect("every speedup pairs two records")
        };
        let (base, imp) = (record(s.baseline), record(s.improved));
        out.push_str(&format!(
            "{:<13} {:<9} {:>8} {:>8}  {:>26} {:>12.1} {:>12.1} {:>7.2}x {:>7.2}x {:>8.1} {:>7.2}x\n",
            s.family,
            s.op,
            s.n_classes,
            base.n_arrows,
            format!("{}/{}", s.improved, s.baseline),
            base.median_ns as f64 / 1e3,
            imp.median_ns as f64 / 1e3,
            s.speedup,
            s.alloc_ratio,
            imp.peak_bytes as f64 / (1024.0 * 1024.0),
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
            9,
            "weak_join 2 + complete 3 + fixpoint 2 + merge 2 variants"
        );
        assert_eq!(report.speedups.len(), 5);
        let mut keys: Vec<_> = report
            .records
            .iter()
            .map(|r| (r.family, r.op, r.n_classes, r.variant))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), report.records.len(), "record keys are unique");
        let json = to_json(&report, 2);
        assert!(json.contains("\"bench_schema_version\": 6"));
        assert!(!json.contains("\"threads\""));
        assert!(json.contains("\"variant\": \"compiled\""));
        assert!(json.contains("\"variant\": \"compiled-nopool\""));
        assert!(json.contains("\"op\": \"weak_join\""));
        assert!(json.contains("\"baseline\": \"symbolic\""));
        assert!(json.contains("\"allocs_per_iter\":"));
        assert!(json.contains("\"peak_bytes\":"));
        assert!(json.contains("\"alloc_ratio\":"));
        assert!(json.contains("\"mem_ratio\":"));
        // Phase attribution: every façade-merge variant carries a span
        // breakdown with the completion pass in it.
        assert!(json.contains("\"phases\": {"));
        assert!(
            report.records.iter().filter(|r| r.op == "merge").all(|r| r
                .phases
                .iter()
                .any(|(name, _)| *name == "completion")
                || r.variant == VARIANT_SYMBOLIC),
            "façade merges attribute time to the completion pass"
        );
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
    fn pool_pair_records_an_allocation_win() {
        let _peak = peak_lock();
        let mut suite = Suite {
            iters: 2,
            report: BenchReport::default(),
        };
        let family = schema_merge_workload::schema_family(
            &SchemaParams {
                vocabulary: 48,
                classes: 32,
                labels: 8,
                arrows: 32,
                specializations: 8,
                seed: 7,
            },
            3,
        );
        let joined = facade_join(family.iter());
        suite.completion("random", &joined, false);
        let speedup = &suite.report.speedups[0];
        assert_eq!(
            (speedup.baseline, speedup.improved),
            (VARIANT_COMPILED_NOPOOL, VARIANT_COMPILED)
        );
        assert!(
            speedup.alloc_ratio > 1.0,
            "the pool must allocate less than the unpooled baseline: {}",
            speedup.alloc_ratio
        );
    }

    #[test]
    fn wide_workload_records_the_merge_and_pool_pairs() {
        let _peak = peak_lock();
        let mut suite = Suite {
            iters: 1,
            report: BenchReport::default(),
        };
        suite.wide(6);
        let report = suite.report;
        assert_eq!(report.records.len(), 5, "merge + 2 pool pairs");
        let merge = &report.records[0];
        assert_eq!((merge.op, merge.variant), ("merge", VARIANT_COMPILED));
        assert!(report
            .record("wide", "merge", merge.n_classes, VARIANT_COMPILED)
            .is_some());
        assert_eq!(report.speedups.len(), 2);
        for pool in &report.speedups {
            assert_eq!(pool.family, "wide");
            assert_eq!(
                (pool.baseline, pool.improved),
                (VARIANT_COMPILED_NOPOOL, VARIANT_COMPILED)
            );
        }
    }
}
