//! Std-only telemetry primitives for the schema-merge workspace.
//!
//! The merge pipeline (join → closure → Imp fixpoint → assembly), the
//! durable registry and the TCP daemon all need the same two signals:
//!
//! * **latency distributions** — fixed-bucket log2 histograms with
//!   p50/p90/p99 extraction, recordable from any thread ([`Histogram`]);
//! * **structured spans** — a thread-local span stack producing
//!   `(name, parent, start, duration, key=value attrs)` records for
//!   phase-level attribution of a merge or a commit ([`span`],
//!   [`SpanRecord`]).
//!
//! Everything is `std`-only (the workspace builds without network access
//! to crates.io, so this crate matches the vendored-stand-ins policy: no
//! external dependencies at all) and `#![forbid(unsafe_code)]`.
//!
//! ## The disabled path is (near) free
//!
//! Span collection is off by default. [`span`] starts by checking one
//! relaxed atomic plus one thread-local flag; when both are off it
//! returns an inert guard without touching the clock, allocating, or
//! pushing anything — a merge run with tracing disabled does the same
//! work it did before this crate existed. Collection is enabled either
//! process-wide ([`set_spans_enabled`], what `smerge serve --trace-log`
//! uses) or for the current thread only ([`thread_span_scope`], what
//! `Merger::trace(true)` uses so one traced merge does not force
//! tracing onto unrelated threads).
//!
//! Histograms are *always* live: three relaxed atomic adds per sample,
//! the same order of cost as the registry's own event counters.
//!
//! ## Exposition
//!
//! [`HistogramSnapshot::render_prometheus`] and
//! [`render_counter`]/[`render_gauge`] produce Prometheus-style text
//! (the `METRICS` protocol verb). Counters and gauges have no type of
//! their own: each layer keeps its counters as plain atomics and hands
//! one status snapshot (`RegistryStats`, `SupergraphStats`, latency
//! [`HistogramSnapshot`]s included) to the renderer.
//! [`SpanRecord::to_trace_event`] produces Chrome
//! `trace_event`-compatible JSON objects (the daemon's `--trace-log`
//! JSONL sink, loadable in `chrome://tracing` / Perfetto).

#![forbid(unsafe_code)]

mod metrics;
mod span;

pub use metrics::{render_counter, render_gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use span::{
    drain_spans, drain_spans_since, now_ns, set_spans_enabled, span, span_mark, spans_enabled,
    thread_span_scope, Span, SpanRecord, ThreadSpanScope,
};
