//! The four workloads: the documents each one publishes and the request
//! stream each connection sends. Everything derives from the seed, so the
//! same seed yields the same preload file, the same payloads and the same
//! request order per connection.

use std::collections::VecDeque;

use schema_merge_core::{AnnotatedSchema, KeyAssignment, Merger, WeakSchema};
use schema_merge_text::{parse_document, print_schema, NamedSchema};
use schema_merge_workload::{random_schema, taxonomy_family, SchemaParams, TaxonomyParams};

/// Client connections, one per daemon worker (`--threads 2`), which is
/// `nproc` on the reference machine.
pub const CONNECTIONS: usize = 2;
/// Curator views on `taxonomy_publish`.
const TAXONOMY_VIEWS: usize = 2;
/// Members of the default registry on `read_mostly` and `publish_churn`.
const REGISTRY_MEMBERS: usize = 32;
/// Classes in the shared core every registry member carries: half the
/// core of `perf.rs::registry_publish(32, 200)`, which keeps each
/// request's CPU share small next to its transport time (see the README).
const CORE_CLASSES: usize = 100;
/// Registries attached on `federation`.
const FEDERATED_REGISTRIES: usize = 8;
/// Classes of the curated taxonomy: just above the 4,096-class floor
/// where the engine switches to sparse rows.
const TAXONOMY_CLASSES: usize = 4_500;
const TAXONOMY_FORESTS: usize = 4;
const TAXONOMY_SEED: u64 = 0xC1A55;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadMostly,
    PublishChurn,
    Federation,
    TaxonomyPublish,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadMostly,
        Workload::PublishChurn,
        Workload::Federation,
        Workload::TaxonomyPublish,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "read_mostly",
            Workload::PublishChurn => "publish_churn",
            Workload::Federation => "federation",
            Workload::TaxonomyPublish => "taxonomy_publish",
        }
    }

    /// The percentile reported as `<verb>_tail_ms`: the highest of p50,
    /// p60, p65, ... p95 that leaves at least ten samples above it, with
    /// some margin, in a 15-second run at the seed commit. The sample
    /// counts behind each choice are in `perfbench/README.md`.
    pub fn tail_percentile(self, verb: Verb) -> f64 {
        match (self, verb) {
            (Workload::ReadMostly, Verb::Get | Verb::Merged) => 0.95,
            (Workload::ReadMostly, Verb::Put) => 0.8,
            (Workload::ReadMostly, Verb::Compose) => 0.65,
            (Workload::PublishChurn, Verb::Put) => 0.95,
            (Workload::PublishChurn, Verb::Get) => 0.6,
            (Workload::PublishChurn, Verb::Merged) => 0.8,
            (Workload::PublishChurn, Verb::Compose) => 0.75,
            (Workload::Federation, Verb::Put) => 0.95,
            (Workload::Federation, Verb::Get | Verb::Merged) => 0.75,
            (Workload::Federation, Verb::Compose) => 0.9,
            (Workload::TaxonomyPublish, Verb::Put | Verb::Merged) => 0.7,
            (Workload::TaxonomyPublish, Verb::Get) => 0.6,
            (Workload::TaxonomyPublish, Verb::Compose) => 0.5,
        }
    }

    /// One deck of operations for connection `conn`; each connection
    /// deals decks in a shuffled order, so the mix is exact over every
    /// deck.
    fn deck(self, conn: usize) -> Vec<Op> {
        let spec: &[(Op, usize)] = match self {
            Workload::ReadMostly => &[
                (Op::Get, 9),
                (Op::Merged, 8),
                (Op::PutHot, 2),
                (Op::Compose, 1),
            ],
            Workload::PublishChurn => &[
                (Op::PutAny, 15),
                (Op::Merged, 2),
                (Op::Get, 1),
                (Op::Compose, 2),
            ],
            // The first connection composes after each publish, the
            // second only publishes. Symmetric composers would make about
            // half the composes no-ops (each absorbing the other's
            // publish), with the median flipping between the two.
            Workload::Federation => &[(self.federation_op(conn), 8), (Op::Get, 1), (Op::Merged, 1)],
            Workload::TaxonomyPublish => &[(Op::Curate, 4), (Op::Get, 3), (Op::Compose, 2)],
        };
        spec.iter()
            .flat_map(|&(op, count)| std::iter::repeat_n(op, count))
            .collect()
    }

    /// The operation that dominates the workload, used once in warm-up.
    fn main_op(self, conn: usize) -> Op {
        match self {
            Workload::ReadMostly => Op::PutHot,
            Workload::PublishChurn => Op::PutAny,
            Workload::Federation => self.federation_op(conn),
            Workload::TaxonomyPublish => Op::Curate,
        }
    }

    fn federation_op(self, conn: usize) -> Op {
        if conn == 0 {
            Op::Federated
        } else {
            Op::FederatedPut
        }
    }
}

/// The timed protocol verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    Put,
    Get,
    Merged,
    Compose,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::Put, Verb::Get, Verb::Merged, Verb::Compose];

    /// The daemon's `verb=` label in `smerge_request_seconds`.
    pub fn label(self) -> &'static str {
        match self {
            Verb::Put => "put",
            Verb::Get => "get",
            Verb::Merged => "merged",
            Verb::Compose => "compose",
        }
    }
}

/// What a `PUT` carries, in a form small enough to log for every request;
/// [`Inputs::payload`] renders the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// The shared core plus a random delta schema drawn from this seed,
    /// as two schemas in one document.
    Delta(u64),
    /// Curator view `view` plus a one-arrow patch labelled `r<conn>x<rev>`.
    View { view: usize, conn: usize, rev: u64 },
}

#[derive(Debug, Clone)]
pub enum Request {
    Put { member: String, payload: Payload },
    Get { member: String },
    Merged,
    Compose,
    Attach { registry: String },
}

impl Request {
    pub fn verb(&self) -> Option<Verb> {
        match self {
            Request::Put { .. } => Some(Verb::Put),
            Request::Get { .. } => Some(Verb::Get),
            Request::Merged => Some(Verb::Merged),
            Request::Compose => Some(Verb::Compose),
            Request::Attach { .. } => None,
        }
    }

    /// The daemon's metrics label for this request.
    pub fn label(&self) -> &'static str {
        self.verb().map_or("attach", Verb::label)
    }

    pub fn command_line(&self) -> String {
        match self {
            Request::Put { member, .. } => format!("PUT {member}"),
            Request::Get { member } => format!("GET {member}"),
            Request::Merged => "MERGED".to_string(),
            Request::Compose => "COMPOSE".to_string(),
            Request::Attach { registry } => format!("ATTACH {registry}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    Merged,
    Compose,
    /// Republish the hot member `member-0` with fresh content.
    PutHot,
    /// Publish fresh content to a uniformly chosen member.
    PutAny,
    /// `PUT rK/member` with fresh content, then `COMPOSE`; K is `r0` with
    /// probability 3/4, else uniform over the other registries.
    Federated,
    /// The same `PUT rK/member` without the `COMPOSE`.
    FederatedPut,
    /// Republish the next curator view with a small patch, then read
    /// `MERGED`.
    Curate,
}

/// SplitMix64: a tiny, well-mixed generator for request choices.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(a: u64, b: u64) -> u64 {
    SplitMix::new(a ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Prints `schema` as a one-schema DSL document named `name`.
fn doc_text(name: &str, schema: &WeakSchema) -> String {
    print_schema(&NamedSchema {
        name: name.to_string(),
        schema: AnnotatedSchema::all_required(schema.clone()),
        keys: KeyAssignment::new(),
    })
}

/// The member schema a `PUT` of `payload` publishes: the weak join of
/// every schema in the document, exactly as the daemon's `put_member`
/// computes it.
pub fn published_schema(payload: &str) -> WeakSchema {
    let docs = parse_document(payload).expect("generated payloads parse");
    Merger::new()
        .schemas(docs.iter().map(|d| d.schema.schema()))
        .join()
        .expect("generated payloads merge")
        .into_weak()
}

fn join(schemas: &[&WeakSchema]) -> WeakSchema {
    Merger::new()
        .schemas(schemas.iter().copied())
        .join()
        .expect("generated schemas are compatible")
        .into_weak()
}

/// The generated inputs of one workload and seed.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    /// The shared core as a document named `core` (registry workloads).
    core_text: String,
    delta_params: SchemaParams,
    /// The curator views as documents `view-0`, `view-1` (taxonomy).
    views: Vec<String>,
    /// The file `smerge serve` preloads into its default registry.
    pub preload: String,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        // Shapes follow `perf.rs::registry_publish`: an attribute-heavy,
        // label-sparse core plus small per-member deltas over the same
        // vocabulary.
        let core_params = SchemaParams {
            vocabulary: CORE_CLASSES,
            classes: CORE_CLASSES,
            labels: CORE_CLASSES * 8,
            arrows: CORE_CLASSES,
            specializations: CORE_CLASSES / 32,
            seed: mix(seed, 1),
        };
        let delta_params = SchemaParams {
            classes: CORE_CLASSES / 6,
            arrows: CORE_CLASSES / 6,
            specializations: 0,
            ..core_params.clone()
        };
        let mut inputs = Inputs {
            workload,
            seed,
            core_text: String::new(),
            delta_params,
            views: Vec::new(),
            preload: String::new(),
        };
        match workload {
            Workload::ReadMostly | Workload::PublishChurn => {
                let core = random_schema(&core_params);
                inputs.core_text = doc_text("core", &core);
                for i in 0..REGISTRY_MEMBERS {
                    let delta = inputs.delta(inputs.initial_seed(i));
                    inputs
                        .preload
                        .push_str(&doc_text(&format!("member-{i}"), &join(&[&core, &delta])));
                }
            }
            Workload::Federation => {
                let core = random_schema(&core_params);
                inputs.core_text = doc_text("core", &core);
                inputs.preload = inputs.core_text.clone();
            }
            Workload::TaxonomyPublish => {
                // The taxonomy's shape is fixed: its closure size sets the
                // parse and print cost, and a seed-dependent shape would
                // swamp run-to-run spread. The seed picks the patches.
                let params = TaxonomyParams::dag(TAXONOMY_CLASSES, TAXONOMY_FORESTS, TAXONOMY_SEED);
                inputs.views = taxonomy_family(&params, TAXONOMY_VIEWS)
                    .iter()
                    .enumerate()
                    .map(|(i, view)| doc_text(&format!("view-{i}"), view))
                    .collect();
                inputs.preload = inputs.views.concat();
            }
        }
        inputs
    }

    fn initial_seed(&self, member: usize) -> u64 {
        mix(self.seed, 100 + member as u64)
    }

    fn delta(&self, seed: u64) -> WeakSchema {
        random_schema(&SchemaParams {
            seed,
            ..self.delta_params.clone()
        })
    }

    /// The document text a `PUT` sends.
    pub fn payload(&self, payload: Payload) -> String {
        match payload {
            Payload::Delta(seed) => {
                let mut text = self.core_text.clone();
                text.push_str(&doc_text("delta", &self.delta(seed)));
                text
            }
            Payload::View { view, conn, rev } => {
                // One new attribute between two classes of one forest. Its
                // source is among a forest's last classes, which parent
                // (almost) nothing: an arrow is inherited by every
                // subclass, so a source near a root would grow the view
                // by thousands of arrows and make the cost seed-dependent.
                let mut rng = SplitMix::new(mix(self.seed, rev << 1 | conn as u64));
                let per_forest = TAXONOMY_CLASSES / TAXONOMY_FORESTS;
                let forest = rng.below(TAXONOMY_FORESTS);
                let class = |i: usize| format!("T{forest:02}_{i:06}");
                let patch = WeakSchema::builder()
                    .arrow(
                        class(per_forest - 1 - rng.below(64)),
                        format!("r{conn}x{rev}"),
                        class(rng.below(per_forest)),
                    )
                    .build()
                    .expect("a one-arrow patch is a valid schema");
                let mut text = self.views[view].clone();
                text.push_str(&doc_text("patch", &patch));
                text
            }
        }
    }

    /// The payload text `request` carries, if it is a `PUT`.
    pub fn payload_of(&self, request: &Request) -> Option<String> {
        match request {
            Request::Put { payload, .. } => Some(self.payload(*payload)),
            _ => None,
        }
    }

    /// Requests sent once on the first connection before warm-up: the
    /// federation's registries and their first members.
    pub fn setup_requests(&self) -> Vec<Request> {
        if self.workload != Workload::Federation {
            return Vec::new();
        }
        let mut requests = Vec::new();
        for k in 0..FEDERATED_REGISTRIES {
            requests.push(Request::Attach {
                registry: format!("r{k}"),
            });
            requests.push(Request::Put {
                member: format!("r{k}/member"),
                payload: Payload::Delta(self.initial_seed(k)),
            });
        }
        requests.push(Request::Compose);
        requests
    }

    /// One request stream per connection.
    pub fn streams(&self) -> Vec<Stream> {
        (0..CONNECTIONS)
            .map(|conn| Stream {
                workload: self.workload,
                conn,
                rng: SplitMix::new(mix(self.seed, 1_000 + conn as u64)),
                base: mix(self.seed, 2_000 + conn as u64),
                pending: VecDeque::new(),
                fresh: 0,
            })
            .collect()
    }
}

/// The deterministic request sequence of one connection.
pub struct Stream {
    workload: Workload,
    conn: usize,
    rng: SplitMix,
    /// Seed base of this connection's fresh payloads.
    base: u64,
    pending: VecDeque<Request>,
    fresh: u64,
}

impl Stream {
    /// Untimed warm-up: one of each verb, then the workload's main
    /// operation.
    pub fn warmup(&mut self) -> Vec<Request> {
        let mut requests = Vec::new();
        for op in [
            Op::Get,
            Op::Merged,
            Op::Compose,
            self.workload.main_op(self.conn),
        ] {
            self.push_op(op);
            requests.extend(self.pending.drain(..));
        }
        requests
    }

    pub fn next_request(&mut self) -> Request {
        if self.pending.is_empty() {
            let mut deck = self.workload.deck(self.conn);
            // Fisher-Yates.
            for i in (1..deck.len()).rev() {
                deck.swap(i, self.rng.below(i + 1));
            }
            for op in deck {
                self.push_op(op);
            }
        }
        self.pending
            .pop_front()
            .expect("a dealt deck is never empty")
    }

    fn fresh_seed(&mut self) -> u64 {
        self.fresh += 1;
        mix(self.base, self.fresh)
    }

    fn push_op(&mut self, op: Op) {
        let requests: Vec<Request> = match op {
            Op::Get => vec![Request::Get {
                member: self.any_member(),
            }],
            Op::Merged => vec![Request::Merged],
            Op::Compose => vec![Request::Compose],
            Op::PutHot => vec![Request::Put {
                member: "member-0".to_string(),
                payload: Payload::Delta(self.fresh_seed()),
            }],
            Op::PutAny => {
                let member = format!("member-{}", self.rng.below(REGISTRY_MEMBERS));
                vec![Request::Put {
                    member,
                    payload: Payload::Delta(self.fresh_seed()),
                }]
            }
            Op::Federated | Op::FederatedPut => {
                let k = if self.rng.below(4) < 3 {
                    0
                } else {
                    1 + self.rng.below(FEDERATED_REGISTRIES - 1)
                };
                let mut requests = vec![Request::Put {
                    member: format!("r{k}/member"),
                    payload: Payload::Delta(self.fresh_seed()),
                }];
                if op == Op::Federated {
                    requests.push(Request::Compose);
                }
                requests
            }
            Op::Curate => {
                self.fresh += 1;
                // The views take turns, so each publish joins onto the
                // other view's latest version.
                let view = (self.fresh as usize + self.conn) % TAXONOMY_VIEWS;
                vec![
                    Request::Put {
                        member: format!("view-{view}"),
                        payload: Payload::View {
                            view,
                            conn: self.conn,
                            rev: self.fresh,
                        },
                    },
                    Request::Merged,
                ]
            }
        };
        self.pending.extend(requests);
    }

    fn any_member(&mut self) -> String {
        match self.workload {
            Workload::ReadMostly | Workload::PublishChurn => {
                format!("member-{}", self.rng.below(REGISTRY_MEMBERS))
            }
            Workload::Federation => format!("r{}/member", self.rng.below(FEDERATED_REGISTRIES)),
            Workload::TaxonomyPublish => format!("view-{}", self.rng.below(TAXONOMY_VIEWS)),
        }
    }
}
