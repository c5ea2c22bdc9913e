//! The traced run: the request sequence the daemon served, replayed
//! in-process through the same public calls `serve.rs` makes, in the same
//! order. Each call is wrapped in a benchmark-side span; the program's own
//! spans (`commit`, `plan`, `execute`, `merge`, `join`, `completion`,
//! `wal-append`, `snapshot`, `compose`, `recompose`) nest under them
//! through `telemetry::thread_span_scope`. Spans stay in memory and are
//! reduced to per-request self times when each request ends.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use schema_merge_core::{AnnotatedSchema, KeyAssignment, Merger};
use schema_merge_registry::{MergedView, Registry, RetryPolicy};
use schema_merge_supergraph::Supergraph;
use schema_merge_telemetry::{self as telemetry, span, SpanRecord};
use schema_merge_text::{
    encode_block, parse_document, print_schema, status_line, NamedSchema, Status,
};

use crate::daemon::ScratchDir;
use crate::workload::{Inputs, Request, Verb};

/// The layer metrics each verb's traced time splits into, in call order.
/// Every span of a request lands in exactly one of its verb's layers,
/// except the request's own root, whose self time is left unattributed.
pub fn layers(verb: Verb) -> &'static [&'static str] {
    match verb {
        Verb::Put => &[
            "text.parse_ms",
            "core.payload_join_ms",
            "registry.commit_ms",
            "registry.plan_ms",
            "core.merge_ms",
            "core.join_ms",
            "core.completion_ms",
            "storage.wal_append_ms",
            "storage.snapshot_ms",
        ],
        Verb::Get => &[
            "registry.read_ms.get",
            "serve.render_ms.get",
            "text.print_ms.get",
        ],
        Verb::Merged => &[
            "registry.read_ms.merged",
            "serve.render_ms.merged",
            "text.print_ms.merged",
        ],
        Verb::Compose => &[
            "supergraph.compose_ms",
            "supergraph.recompose_ms",
            "supergraph.merge_ms",
            "serve.render_ms.compose",
        ],
    }
}

/// The layer metric a span's self time counts toward, or `None` for the
/// request root.
fn layer_of(verb: Verb, span_name: &str) -> Option<&'static str> {
    let layer = match (verb, span_name) {
        (_, "request") => return None,
        (Verb::Put, "text.parse") => "text.parse_ms",
        (Verb::Put, "core.payload_join") => "core.payload_join_ms",
        (Verb::Put, "registry.put" | "commit" | "execute") => "registry.commit_ms",
        (Verb::Put, "plan") => "registry.plan_ms",
        (Verb::Put, "join") => "core.join_ms",
        (Verb::Put, "completion") => "core.completion_ms",
        (Verb::Put, "wal-append") => "storage.wal_append_ms",
        (Verb::Put, "snapshot") => "storage.snapshot_ms",
        // The merger's root span and any other pass it runs.
        (Verb::Put, _) => "core.merge_ms",
        (Verb::Get, "registry.read") => "registry.read_ms.get",
        (Verb::Get, "text.print") => "text.print_ms.get",
        (Verb::Get, _) => "serve.render_ms.get",
        (Verb::Merged, "registry.read") => "registry.read_ms.merged",
        (Verb::Merged, "text.print") => "text.print_ms.merged",
        (Verb::Merged, _) => "serve.render_ms.merged",
        (Verb::Compose, "supergraph.compose" | "compose") => "supergraph.compose_ms",
        (Verb::Compose, "recompose") => "supergraph.recompose_ms",
        (Verb::Compose, "serve.render") => "serve.render_ms.compose",
        // The composition merge: `merge`, `join`, `completion`.
        (Verb::Compose, _) => "supergraph.merge_ms",
    };
    Some(layer)
}

/// One replayed timed request.
pub struct Replayed {
    pub verb: Verb,
    /// Wall time of the request on the traced node, in milliseconds.
    pub traced_ms: f64,
    /// Wall time of the same request on the untraced node.
    pub plain_ms: f64,
    /// Self time per layer metric on the traced node, in milliseconds.
    pub layers: HashMap<&'static str, f64>,
    /// Bytes the daemon would write in reply.
    pub response_bytes: usize,
    /// Bytes of the `PUT` payload (0 for other verbs).
    pub payload_bytes: usize,
}

/// The outcome of one replay.
pub struct ReplayRun {
    pub requests: Vec<Replayed>,
    /// Durations of every `snapshot` span, in milliseconds.
    pub snapshots_ms: Vec<f64>,
}

/// The in-process equivalent of one daemon: a durable registry with the
/// daemon's retry policy, attached to a supergraph as `default`.
struct Node {
    registry: Arc<Registry>,
    supergraph: Supergraph,
}

impl Node {
    fn open(dir: PathBuf, preload: &str) -> Node {
        let registry = Arc::new(
            Registry::builder()
                .data_dir(dir)
                .retry_policy(RetryPolicy::new(3))
                .open()
                .expect("a fresh data dir opens"),
        );
        for doc in parse_document(preload).expect("the preload file parses") {
            registry
                .put(doc.name.clone(), doc.schema.schema().clone())
                .expect("the preload publishes");
        }
        let supergraph = Supergraph::new();
        supergraph
            .attach("default", Arc::clone(&registry))
            .expect("a fresh supergraph accepts the default registry");
        Node {
            registry,
            supergraph,
        }
    }

    fn route(&self, name: &str) -> Arc<Registry> {
        match name.split_once('/') {
            None => Arc::clone(&self.registry),
            Some((namespace, _)) => self
                .supergraph
                .registry(namespace)
                .expect("replayed names route to attached registries"),
        }
    }

    /// Serves one request as `serve.rs` does and returns the size of the
    /// reply it would write.
    fn serve(&self, request: &Request, payload: Option<&str>) -> usize {
        let _request = span("request");
        match request {
            Request::Put { member, .. } => {
                let routed = self.route(member);
                let member = member.rsplit('/').next().expect("split yields a part");
                let docs = {
                    let _s = span("text.parse");
                    parse_document(payload.expect("a PUT carries a payload"))
                        .expect("generated payloads parse")
                };
                let joined = {
                    let _s = span("core.payload_join");
                    Merger::new()
                        .schemas(docs.iter().map(|d| d.schema.schema()))
                        .join()
                        .expect("generated payloads merge")
                        .into_weak()
                };
                let outcome = {
                    let _s = span("registry.put");
                    routed
                        .put(member, joined)
                        .expect("generated members publish")
                };
                let line = status_line(
                    Status::Ok,
                    &format!(
                        "hash={:016x} sequence={} generation={} strategy={}",
                        outcome.hash,
                        outcome.sequence,
                        outcome.generation,
                        outcome.strategy.as_str()
                    ),
                );
                line.len() + 1
            }
            Request::Get { member } => {
                let routed = self.route(member);
                let name = member.rsplit('/').next().expect("split yields a part");
                let version = {
                    let _s = span("registry.read");
                    routed.get(name).expect("replayed GETs name live members")
                };
                let (line, doc) = {
                    let _s = span("serve.render");
                    let doc = NamedSchema {
                        name: name.to_string(),
                        schema: AnnotatedSchema::all_required(version.schema.as_ref().clone()),
                        keys: KeyAssignment::new(),
                    };
                    let detail = format!(
                        "hash={:016x} sequence={} generation={}",
                        version.hash, version.sequence, version.generation
                    );
                    (status_line(Status::Data, &detail), doc)
                };
                let block = {
                    let _s = span("text.print");
                    encode_block(&print_schema(&doc))
                };
                line.len() + 1 + black_box(block).len()
            }
            Request::Merged => {
                let view = {
                    let _s = span("registry.read");
                    self.registry.merged()
                };
                let (line, doc) = {
                    let _s = span("serve.render");
                    let doc = NamedSchema {
                        name: "merged".into(),
                        schema: AnnotatedSchema::all_required(view.proper.as_weak().clone()),
                        keys: KeyAssignment::new(),
                    };
                    (status_line(Status::Data, &merged_detail(&view)), doc)
                };
                let block = {
                    let _s = span("text.print");
                    let mut payload = print_schema(&doc);
                    payload.push_str(&format!(
                        "// implicit classes: {}\n",
                        view.report.num_implicit()
                    ));
                    encode_block(&payload)
                };
                line.len() + 1 + black_box(block).len()
            }
            Request::Compose => {
                let outcome = {
                    let _s = span("supergraph.compose");
                    self.supergraph
                        .compose()
                        .expect("generated registries compose")
                };
                let line = {
                    let _s = span("serve.render");
                    let weak = outcome.view.proper().as_weak();
                    let detail = format!(
                        "generation={} strategy={} registries={} classes={} arrows={} hints={}",
                        outcome.generation,
                        outcome.strategy.as_str(),
                        outcome.view.members.len(),
                        weak.num_classes(),
                        weak.num_arrows(),
                        outcome.view.hints().count()
                    );
                    status_line(Status::Ok, &detail)
                };
                line.len() + 1
            }
            Request::Attach { registry } => {
                self.supergraph
                    .attach_new(registry.as_str())
                    .expect("generated registry names attach");
                0
            }
        }
    }
}

fn merged_detail(view: &MergedView) -> String {
    let weak = view.proper.as_weak();
    format!(
        "generation={} hash={:016x} classes={} arrows={}",
        view.generation,
        view.hash(),
        weak.num_classes(),
        weak.num_arrows()
    )
}

/// Self time per layer for one request's spans: each span's duration
/// minus the time its direct children cover.
fn self_times(verb: Verb, spans: &[SpanRecord]) -> HashMap<&'static str, f64> {
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for record in spans {
        if let Some(parent) = record.parent {
            *children_ns.entry(parent).or_default() += record.duration_ns;
        }
    }
    let mut layers: HashMap<&'static str, f64> =
        layers(verb).iter().map(|&layer| (layer, 0.0)).collect();
    for record in spans {
        if let Some(layer) = layer_of(verb, record.name) {
            let own = record
                .duration_ns
                .saturating_sub(children_ns.get(&record.id).copied().unwrap_or(0));
            *layers.entry(layer).or_default() += own as f64 / 1e6;
        }
    }
    layers
}

/// Replays `sequence` (each request flagged timed or not) on two fresh
/// in-process nodes under `dir`, one traced and one not, request by
/// request; which node goes first alternates, so neither is favoured by
/// warm caches. Untimed requests rebuild the daemon's state and are not
/// recorded.
pub fn replay(inputs: &Inputs, dir: PathBuf, sequence: &[(Request, bool)]) -> ReplayRun {
    let scratch = ScratchDir::create(dir).expect("replay data dir");
    let plain = Node::open(scratch.path().join("plain"), &inputs.preload);
    let traced = Node::open(scratch.path().join("traced"), &inputs.preload);
    let mut run = ReplayRun {
        requests: Vec::new(),
        snapshots_ms: Vec::new(),
    };
    for (index, (request, timed)) in sequence.iter().enumerate() {
        let payload = inputs.payload_of(request);
        let payload = payload.as_deref();
        let serve_plain = || {
            let t0 = Instant::now();
            black_box(plain.serve(request, payload));
            t0.elapsed().as_secs_f64() * 1e3
        };
        let serve_traced = || {
            let _scope = telemetry::thread_span_scope();
            let mark = telemetry::span_mark();
            let t0 = Instant::now();
            let response_bytes = traced.serve(request, payload);
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            (elapsed, response_bytes, telemetry::drain_spans_since(mark))
        };
        let (plain_ms, (traced_ms, response_bytes, spans)) = if index % 2 == 0 {
            let plain_ms = serve_plain();
            (plain_ms, serve_traced())
        } else {
            let traced = serve_traced();
            (serve_plain(), traced)
        };
        let Some(verb) = request.verb().filter(|_| *timed) else {
            continue;
        };
        run.snapshots_ms.extend(
            spans
                .iter()
                .filter(|s| s.name == "snapshot")
                .map(|s| s.duration_ns as f64 / 1e6),
        );
        run.requests.push(Replayed {
            verb,
            traced_ms,
            plain_ms,
            layers: self_times(verb, &spans),
            response_bytes,
            payload_bytes: payload.map_or(0, str::len),
        });
    }
    run
}
