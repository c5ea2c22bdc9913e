//! `perfbench` — the end-to-end benchmark of the `smerge serve` daemon.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_mostly --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. It builds the repository (`cargo build
//! --release`, into `$CARGO_TARGET_DIR`, default `.bench_build`), boots
//! the real `smerge serve` binary on `--port 0` with a fresh durable data
//! dir, and drives it over two persistent connections in a closed loop
//! for `--seconds`. Then it checks the daemon's outputs against an
//! in-process one-shot merge, its request accounting and, on
//! `publish_churn`, its state after a kill and restart. With `--trace 1`
//! it also replays the same request sequence in-process to split each
//! verb's median into per-layer self times. The last line of stdout is
//! the JSON result; the exit code is nonzero when any check fails.

mod daemon;
mod replay;
mod stats;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use schema_merge_core::{Merger, WeakSchema};
use schema_merge_text::{parse_document, Status};

use daemon::{Conn, Daemon, Reply, ScratchDir};
use stats::{median, quantile, ratio};
use workload::{published_schema, Inputs, Payload, Request, Stream, Verb, Workload, CONNECTIONS};

/// Daemon boots per run; `setup_s` is their median and the last one is
/// measured.
const SETUP_BOOTS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|err| format!("{flag} {value}: {err}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    // `run` owns every guard, so the daemon and the scratch dirs are gone
    // by the time the process exits.
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}

/// Requests the generator sent to one daemon, to check its accounting.
#[derive(Default)]
struct Ledger {
    /// Requests per `smerge_request_seconds` verb label.
    by_label: BTreeMap<&'static str, u64>,
    /// Every command line the daemon parsed, `QUIT` included.
    total: u64,
}

impl Ledger {
    fn note(&mut self, label: &'static str) {
        *self.by_label.entry(label).or_default() += 1;
        self.total += 1;
    }
}

/// The last acknowledged content of each member: generation, content
/// hash and the payload that produced it.
type Acks = HashMap<String, (u64, u64, Payload)>;

fn note_ack(acks: &mut Acks, request: &Request, reply: &Reply) {
    let Request::Put { member, payload } = request else {
        return;
    };
    if let (Some(generation), Some(hash)) = (reply.int_field("generation"), reply.hex_field("hash"))
    {
        let entry = acks
            .entry(member.clone())
            .or_insert((generation, hash, *payload));
        if generation >= entry.0 {
            *entry = (generation, hash, *payload);
        }
    }
}

/// Whether a reply is the success the request expects.
fn check_reply(request: &Request, reply: &Reply) -> Result<(), String> {
    let expected = match request {
        Request::Get { .. } | Request::Merged => Status::Data,
        _ => Status::Ok,
    };
    let has_strategy = reply.field("strategy").is_some();
    if reply.status != expected
        || (matches!(request, Request::Put { .. } | Request::Compose) && !has_strategy)
    {
        return Err(format!(
            "{} -> {} {}",
            request.command_line(),
            reply.status.as_str(),
            reply.detail
        ));
    }
    Ok(())
}

/// One booted daemon with its connections, warmed up.
struct Session {
    daemon: Daemon,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    ledger: Ledger,
    acks: Acks,
    /// Every request sent so far, flagged timed or not, in send order.
    sequence: Vec<(Request, bool)>,
    setup_s: f64,
}

impl Session {
    /// Spawn, preload, setup and warm-up: everything before the first
    /// timed request, which is what `setup_s` measures.
    fn boot(
        binary: &Path,
        data_dir: &Path,
        preload: &Path,
        inputs: &Inputs,
    ) -> Result<Session, String> {
        let started = Instant::now();
        let daemon = Daemon::spawn(binary, data_dir, Some(preload))
            .map_err(|err| format!("starting smerge serve: {err}"))?;
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(daemon.addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|err| format!("connecting: {err}"))?;
        let mut session = Session {
            daemon,
            conns,
            streams: inputs.streams(),
            ledger: Ledger::default(),
            acks: Acks::new(),
            sequence: Vec::new(),
            setup_s: 0.0,
        };
        for request in inputs.setup_requests() {
            session.untimed(0, request, inputs)?;
        }
        for conn in 0..CONNECTIONS {
            for request in session.streams[conn].warmup() {
                session.untimed(conn, request, inputs)?;
            }
        }
        session.setup_s = started.elapsed().as_secs_f64();
        Ok(session)
    }

    fn untimed(&mut self, conn: usize, request: Request, inputs: &Inputs) -> Result<(), String> {
        let payload = inputs.payload_of(&request);
        self.ledger.note(request.label());
        let reply = self.conns[conn]
            .call(&request.command_line(), payload.as_deref())
            .map_err(|err| format!("{}: {err}", request.command_line()))?;
        check_reply(&request, &reply)?;
        note_ack(&mut self.acks, &request, &reply);
        self.sequence.push((request, false));
        Ok(())
    }

    /// An untimed control request outside the replayed sequence.
    fn control(&mut self, line: &str, label: &'static str) -> Result<Reply, String> {
        self.ledger.note(label);
        self.conns[0]
            .call(line, None)
            .map_err(|err| format!("{line}: {err}"))
    }
}

/// One timed request as the client saw it.
struct Sample {
    request: Request,
    start: Duration,
    latency: Duration,
    reply: Result<Reply, String>,
}

/// One connection's closed loop: the next request goes out only after
/// the previous reply is complete.
fn drive(
    conn: &mut Conn,
    stream: &mut Stream,
    inputs: &Inputs,
    origin: Instant,
    deadline: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    while Instant::now() < deadline {
        let request = stream.next_request();
        let payload = inputs.payload_of(&request);
        let bytes = Conn::encode(&request.command_line(), payload.as_deref());
        let started = Instant::now();
        let reply = conn
            .send_encoded(&bytes)
            .and_then(|()| conn.read_reply(false))
            .map_err(|err| err.to_string());
        let latency = started.elapsed();
        let broken = reply.is_err();
        samples.push(Sample {
            request,
            start: started - origin,
            latency,
            reply,
        });
        if broken {
            break;
        }
    }
    samples
}

/// What the timed phase measured.
#[derive(Default)]
struct Timed {
    latencies_ms: BTreeMap<Verb, Vec<f64>>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    cpu_ms: f64,
    /// `strategy=` counts from PUT and COMPOSE replies.
    put_strategies: BTreeMap<String, u64>,
    compose_strategies: BTreeMap<String, u64>,
    /// Whether the first connection, which the checks use, broke.
    first_broken: bool,
}

fn timed_phase(session: &mut Session, inputs: &Inputs, seconds: u64) -> Timed {
    let pid = session.daemon.pid();
    let cpu_before = daemon::cpu_ms(pid).unwrap_or(0.0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(seconds);
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .conns
            .iter_mut()
            .zip(session.streams.iter_mut())
            .map(|(conn, stream)| {
                scope.spawn(move || drive(conn, stream, inputs, origin, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    let mut timed = Timed {
        elapsed_s: origin.elapsed().as_secs_f64(),
        cpu_ms: daemon::cpu_ms(pid).unwrap_or(0.0) - cpu_before,
        first_broken: per_conn[0].last().is_some_and(|s| s.reply.is_err()),
        ..Timed::default()
    };
    let mut samples: Vec<Sample> = per_conn.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.start);
    for sample in samples {
        let verb = sample.request.verb().expect("timed requests have verbs");
        session.ledger.note(sample.request.label());
        timed.attempted += 1;
        let outcome = sample
            .reply
            .and_then(|reply| check_reply(&sample.request, &reply).map(|()| reply));
        match outcome {
            Ok(reply) => {
                note_ack(&mut session.acks, &sample.request, &reply);
                let strategies = match verb {
                    Verb::Put => Some(&mut timed.put_strategies),
                    Verb::Compose => Some(&mut timed.compose_strategies),
                    _ => None,
                };
                if let (Some(counts), Some(strategy)) = (strategies, reply.field("strategy")) {
                    *counts.entry(strategy.to_string()).or_default() += 1;
                }
                timed
                    .latencies_ms
                    .entry(verb)
                    .or_default()
                    .push(sample.latency.as_secs_f64() * 1e3);
            }
            Err(err) => {
                println!("request failed: {err}");
                timed.failed += 1;
            }
        }
        session.sequence.push((sample.request, true));
    }
    timed
}

/// The numbers in the `STATS` block the breakdown uses.
#[derive(Debug, Default, Clone, Copy)]
struct RegistryCounters {
    incremental: f64,
    full: f64,
    retries: f64,
    cache_hits: f64,
    cache_misses: f64,
    requests_served: f64,
    wal_records: f64,
    wal_bytes: f64,
    snapshots: f64,
}

/// The numbers on the line of `block` that starts with `prefix`.
fn numbers_after(block: &str, prefix: &str) -> Vec<f64> {
    block
        .lines()
        .find(|line| line.starts_with(prefix))
        .map(|line| {
            line.split(|c: char| !c.is_ascii_digit())
                .filter(|w| !w.is_empty())
                .filter_map(|w| w.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn parse_stats(reply: &Reply) -> RegistryCounters {
    let block = reply.block.as_deref().unwrap_or("");
    let merges = numbers_after(block, "merges:");
    let cache = numbers_after(block, "join cache:");
    let service = numbers_after(block, "service:");
    let durability = numbers_after(block, "durability:");
    let at = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
    RegistryCounters {
        incremental: at(&merges, 0),
        full: at(&merges, 1),
        retries: at(&merges, 4),
        cache_hits: at(&cache, 1),
        cache_misses: at(&cache, 2),
        requests_served: at(&service, 1),
        wal_records: at(&durability, 0),
        wal_bytes: at(&durability, 1),
        snapshots: at(&durability, 4),
    }
}

/// `smerge_request_seconds_count` per verb label from a `METRICS` block.
fn parse_request_counts(reply: &Reply) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for line in reply.block.as_deref().unwrap_or("").lines() {
        let Some(rest) = line.strip_prefix("smerge_request_seconds_count{verb=\"") else {
            continue;
        };
        if let Some((verb, value)) = rest.split_once("\"} ") {
            if let Ok(value) = value.trim().parse() {
                counts.insert(verb.to_string(), value);
            }
        }
    }
    counts
}

/// `name -> (hash, sequence)` from a `LIST` block.
fn parse_list(reply: &Reply) -> BTreeMap<String, (u64, u64)> {
    let mut members = BTreeMap::new();
    for line in reply.block.as_deref().unwrap_or("").lines() {
        let mut words = line.split_whitespace();
        let (Some(name), Some(hash), Some(version)) = (words.next(), words.next(), words.next())
        else {
            continue;
        };
        let hash = hash
            .strip_prefix("hash=")
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        let version = version.strip_prefix('v').and_then(|v| v.parse().ok());
        if let (Some(hash), Some(version)) = (hash, version) {
            members.insert(name.to_string(), (hash, version));
        }
    }
    members
}

/// The member contents the generator saw acknowledged, starting from the
/// preload: name (`member` or `registry/member`) -> schema. Also checks
/// each acknowledged hash against the content that was sent.
fn acknowledged_members(
    inputs: &Inputs,
    acks: &Acks,
) -> Result<BTreeMap<String, WeakSchema>, String> {
    let mut members: BTreeMap<String, WeakSchema> = parse_document(&inputs.preload)
        .map_err(|err| format!("preload: {err}"))?
        .into_iter()
        .map(|doc| (doc.name, doc.schema.schema().clone()))
        .collect();
    for (member, (_, hash, payload)) in acks {
        let schema = published_schema(&inputs.payload(*payload));
        if schema.content_hash() != *hash {
            return Err(format!(
                "{member}: acknowledged hash {hash:016x} is not the hash of the content sent"
            ));
        }
        members.insert(member.clone(), schema);
    }
    Ok(members)
}

/// The one-shot merge hash of `schemas`.
fn one_shot_hash<'a>(schemas: impl IntoIterator<Item = &'a WeakSchema>) -> Result<u64, String> {
    Merger::new()
        .schemas(schemas)
        .execute()
        .map(|report| report.proper.content_hash())
        .map_err(|err| format!("one-shot merge failed: {err}"))
}

/// End-of-run checks on the measured daemon. Returns the problems found
/// and the numbers scraped from `STATS`/`METRICS`.
struct Checked {
    problems: Vec<String>,
    missing: u64,
    stats: RegistryCounters,
    merged_hash: Option<u64>,
    list: BTreeMap<String, (u64, u64)>,
}

fn check_session(session: &mut Session, inputs: &Inputs) -> Result<Checked, String> {
    // Close the other connections first: each worker records a request's
    // latency before it reads the next line, so once `QUIT` is answered
    // every earlier request on that connection is accounted.
    for conn in session.conns.iter_mut().skip(1) {
        session.ledger.total += 1;
        let _ = conn.call("QUIT", None);
    }
    let mut problems = Vec::new();
    let stats_reply = session.control("STATS", "stats")?;
    let served_expected = session.ledger.total;
    let stats = parse_stats(&stats_reply);
    let metrics_reply = session.control("METRICS", "metrics")?;
    let counts = parse_request_counts(&metrics_reply);

    // Accounting: the daemon must have seen exactly what was sent.
    let mut missing = (served_expected as f64 - stats.requests_served).abs() as u64;
    if missing > 0 {
        problems.push(format!(
            "requests_served {} != {} sent",
            stats.requests_served, served_expected
        ));
    }
    let mut labels: Vec<String> = counts.keys().cloned().collect();
    labels.extend(session.ledger.by_label.keys().map(|l| l.to_string()));
    labels.sort();
    labels.dedup();
    for label in labels {
        let mut sent = session
            .ledger
            .by_label
            .get(label.as_str())
            .copied()
            .unwrap_or(0);
        if label == "metrics" {
            // The METRICS request in flight is recorded after it renders.
            sent -= 1;
        }
        let seen = counts.get(&label).copied().unwrap_or(0);
        if sent != seen {
            missing += sent.abs_diff(seen);
            problems.push(format!(
                "smerge_request_seconds_count{{verb=\"{label}\"}} {seen} != {sent} sent"
            ));
        }
    }

    // Correctness: the served views equal the one-shot merge of exactly
    // the acknowledged member contents.
    let members = acknowledged_members(inputs, &session.acks)?;
    let merged = session.control("MERGED", "merged")?;
    let merged_hash = merged.hex_field("hash");
    let default: Vec<&WeakSchema> = members
        .iter()
        .filter(|(name, _)| !name.contains('/'))
        .map(|(_, schema)| schema)
        .collect();
    let expected = one_shot_hash(default.iter().copied())?;
    if merged_hash != Some(expected) {
        problems.push(format!(
            "MERGED hash {:?} != one-shot merge {expected:016x}",
            merged.field("hash")
        ));
    }
    let list = parse_list(&session.control("LIST", "list")?);
    for (name, schema) in members.iter().filter(|(name, _)| !name.contains('/')) {
        let listed = list.get(name).map(|&(hash, _)| hash);
        if listed != Some(schema.content_hash()) {
            problems.push(format!("LIST {name}: {listed:?} != acknowledged content"));
        }
    }
    if inputs.workload == Workload::Federation {
        let composed = session.control("COMPOSE", "compose")?;
        check_reply(&Request::Compose, &composed)?;
        let supergraph = session.control("SUPERGRAPH", "supergraph")?;
        let expected = one_shot_hash(members.values())?;
        if supergraph.hex_field("hash") != Some(expected) {
            problems.push(format!(
                "SUPERGRAPH hash {:?} != one-shot merge {expected:016x}",
                supergraph.field("hash")
            ));
        }
    }
    Ok(Checked {
        problems,
        missing,
        stats,
        merged_hash,
        list,
    })
}

/// Kills the daemon, restarts it on the same data dir (no preload) and
/// checks that the merged view and every member version survived.
fn check_durability(
    session: Session,
    binary: &Path,
    data_dir: &Path,
    checked: &Checked,
) -> Result<Vec<String>, String> {
    // Dropping the guard SIGKILLs the daemon: the crash a durable
    // registry must survive.
    drop(session.daemon);
    let daemon = Daemon::spawn(binary, data_dir, None)
        .map_err(|err| format!("restarting smerge serve: {err}"))?;
    let mut conn = Conn::connect(daemon.addr).map_err(|err| format!("reconnecting: {err}"))?;
    let mut problems = Vec::new();
    let merged = conn.call("MERGED", None).map_err(|e| e.to_string())?;
    if merged.hex_field("hash") != checked.merged_hash {
        problems.push(format!(
            "after restart MERGED hash {:?} != {:?}",
            merged.field("hash"),
            checked.merged_hash.map(|h| format!("{h:016x}"))
        ));
    }
    let list = parse_list(&conn.call("LIST", None).map_err(|e| e.to_string())?);
    if list != checked.list {
        problems.push(format!(
            "after restart LIST differs: {} members, {} before",
            list.len(),
            checked.list.len()
        ));
    }
    daemon
        .shutdown(vec![conn])
        .map_err(|err| format!("stopping the restarted daemon: {err}"))?;
    Ok(problems)
}

/// Metric name -> (value, unit), in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

fn run(args: &Args) -> Result<bool, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (Cargo.toml and crates/ not found)".into());
    }
    let target_dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    );
    build(&target_dir)?;
    let binary = target_dir
        .join("release/smerge")
        .canonicalize()
        .map_err(|err| format!("smerge binary: {err}"))?;
    let scratch = ScratchDir::create(target_dir.join(format!(
        "perfbench-tmp/{}-{}",
        args.workload.name(),
        std::process::id()
    )))
    .map_err(|err| format!("scratch dir: {err}"))?;
    let inputs = Inputs::new(args.workload, args.seed);
    let preload = scratch.path().join("preload.sm");
    std::fs::write(&preload, &inputs.preload).map_err(|err| format!("preload file: {err}"))?;

    println!("perfbench provenance {}", provenance(args));

    // Boot SETUP_BOOTS times; measure on the last.
    let mut setup_samples = Vec::new();
    let mut session = None;
    for boot in 0..SETUP_BOOTS {
        let dir = scratch.path().join(format!("boot-{boot}"));
        let booted = Session::boot(&binary, &dir, &preload, &inputs)?;
        setup_samples.push(booted.setup_s);
        if boot + 1 < SETUP_BOOTS {
            booted
                .daemon
                .shutdown(booted.conns)
                .map_err(|err| format!("stopping a setup boot: {err}"))?;
            std::fs::remove_dir_all(&dir).map_err(|err| format!("{}: {err}", dir.display()))?;
        } else {
            session = Some(booted);
        }
    }
    let mut session = session.expect("at least one boot");
    let data_dir = scratch.path().join(format!("boot-{}", SETUP_BOOTS - 1));

    let baseline = parse_stats(&session.control("STATS", "stats")?);
    let timed = timed_phase(&mut session, &inputs, args.seconds);
    if timed.first_broken {
        session.conns[0] =
            Conn::connect(session.daemon.addr).map_err(|err| format!("reconnecting: {err}"))?;
    }
    let mut checked = check_session(&mut session, &inputs)?;
    let pid = session.daemon.pid();
    let peak_rss_mb = daemon::peak_rss_mb(pid).unwrap_or(0.0);
    let sequence = std::mem::take(&mut session.sequence);
    if args.workload == Workload::PublishChurn {
        let problems = check_durability(session, &binary, &data_dir, &checked)?;
        checked.problems.extend(problems);
    } else {
        session
            .daemon
            .shutdown(session.conns)
            .map_err(|err| format!("stopping smerge serve: {err}"))?;
    }

    let failed = timed.failed + checked.missing;
    let attempted = timed.attempted.max(1);
    let correct = checked.problems.is_empty();
    report_client(args, &timed, &setup_samples, failed, attempted);
    for problem in &checked.problems {
        println!("check failed: {problem}");
    }
    println!(
        "checks: {} (merged hash, member hashes, accounting{}{})",
        if correct { "passed" } else { "FAILED" },
        if args.workload == Workload::Federation {
            ", supergraph hash"
        } else {
            ""
        },
        if args.workload == Workload::PublishChurn {
            ", restart"
        } else {
            ""
        },
    );

    let metrics = if args.trace {
        let mut m = per_layer(&inputs, &scratch, &sequence, &timed, &baseline, &checked);
        m.push(
            "failed_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        m
    } else {
        end_to_end(args, &timed, &setup_samples, peak_rss_mb)
    };
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    write_result(&target_dir, args, &result);
    println!("{result}");
    Ok(correct)
}

fn build(target_dir: &Path) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .env("CARGO_TARGET_DIR", target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|err| format!("running cargo: {err}"))?;
    if !status.success() {
        return Err(format!("cargo build --release failed ({status})"));
    }
    Ok(())
}

fn report_client(args: &Args, timed: &Timed, setup: &[f64], failed: u64, attempted: u64) {
    println!(
        "workload {} seed {} seconds {}: {} requests in {:.2} s, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        attempted,
        timed.elapsed_s,
        failed
    );
    println!("setup_s per boot: {setup:.4?}");
    println!("verb      n     p50_ms   tail_ms  tail  above_tail  deciles_ms (p10..p90, max)");
    for verb in Verb::ALL {
        let values = timed.latencies_ms.get(&verb).map_or(&[][..], Vec::as_slice);
        let percentile = args.workload.tail_percentile(verb);
        let tail = quantile(values, percentile);
        let mut deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.1}", quantile(values, f64::from(d) / 10.0)))
            .collect();
        deciles.push(format!("{:.1}", quantile(values, 1.0)));
        println!(
            "{:<8}{:>5}{:>10.3}{:>10.3}  {:<4}{:>6}        {}",
            verb.label(),
            values.len(),
            median(values),
            tail,
            format!("p{}", (percentile * 100.0).round()),
            values.iter().filter(|&&v| v > tail).count(),
            deciles.join(" ")
        );
    }
    println!(
        "strategies: put {:?} compose {:?}",
        timed.put_strategies, timed.compose_strategies
    );
}

fn end_to_end(args: &Args, timed: &Timed, setup: &[f64], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let completed: usize = timed.latencies_ms.values().map(Vec::len).sum();
    m.push(
        "throughput_ops_s",
        completed as f64 / timed.elapsed_s,
        "1/s",
    );
    for verb in Verb::ALL {
        let values = timed.latencies_ms.get(&verb).map_or(&[][..], Vec::as_slice);
        m.push(format!("{}_p50_ms", verb.label()), median(values), "ms");
        m.push(
            format!("{}_tail_ms", verb.label()),
            quantile(values, args.workload.tail_percentile(verb)),
            "ms",
        );
    }
    m.push("setup_s", median(setup), "s");
    m.push("daemon_peak_rss_mb", peak_rss_mb, "MiB");
    m
}

fn strategy_ratio(counts: &BTreeMap<String, u64>) -> f64 {
    let get = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    ratio(get("incremental"), get("incremental") + get("full"))
}

fn per_layer(
    inputs: &Inputs,
    scratch: &ScratchDir,
    sequence: &[(Request, bool)],
    timed: &Timed,
    baseline: &RegistryCounters,
    checked: &Checked,
) -> Metrics {
    let traced = replay::replay(inputs, scratch.path().join("replay"), sequence);
    let plain_total: f64 = traced.requests.iter().map(|r| r.plain_ms).sum();
    let traced_total: f64 = traced.requests.iter().map(|r| r.traced_ms).sum();
    let overhead_pct = ratio(traced_total - plain_total, plain_total) * 100.0;

    let mut m = Metrics::default();
    println!(
        "breakdown over {} replayed requests (trace overhead {overhead_pct:.2}%):",
        traced.requests.len()
    );
    for verb in Verb::ALL {
        let label = verb.label();
        let replayed: Vec<&replay::Replayed> =
            traced.requests.iter().filter(|r| r.verb == verb).collect();
        let totals: Vec<f64> = replayed.iter().map(|r| r.traced_ms).collect();
        let client = median(timed.latencies_ms.get(&verb).map_or(&[][..], Vec::as_slice));
        let traced_median = median(&totals);
        let transport = client - traced_median;
        m.push(format!("serve.transport_ms.{label}"), transport, "ms");
        m.push(format!("trace.request_ms.{label}"), traced_median, "ms");
        let mut attributed = 0.0;
        let mut parts = vec![format!("transport {transport:.3}")];
        for &layer in replay::layers(verb) {
            let selfs: Vec<f64> = replayed.iter().map(|r| r.layers[layer]).collect();
            let value = median(&selfs);
            attributed += value;
            parts.push(format!("{layer} {value:.3}"));
            m.push(layer, value, "ms");
        }
        let other = traced_median - attributed;
        parts.push(format!("other {other:.3}"));
        m.push(format!("other_ms.{label}"), other, "ms");
        println!(
            "  {label} p50 {client:.3} ms (n={}) = {}",
            replayed.len(),
            parts.join(" + ")
        );
    }
    let bytes_kb = |verb: Verb, pick: fn(&replay::Replayed) -> usize| {
        let values: Vec<f64> = traced
            .requests
            .iter()
            .filter(|r| r.verb == verb)
            .map(|r| pick(r) as f64 / 1024.0)
            .collect();
        median(&values)
    };
    m.push(
        "text.put_payload_kb",
        bytes_kb(Verb::Put, |r| r.payload_bytes),
        "KiB",
    );
    m.push(
        "text.response_kb.merged",
        bytes_kb(Verb::Merged, |r| r.response_bytes),
        "KiB",
    );
    m.push(
        "storage.snapshot_each_ms",
        median(&traced.snapshots_ms),
        "ms",
    );

    let end = &checked.stats;
    let commits = (end.incremental + end.full) - (baseline.incremental + baseline.full);
    let hits = end.cache_hits - baseline.cache_hits;
    let misses = end.cache_misses - baseline.cache_misses;
    m.push(
        "registry.incremental_ratio",
        strategy_ratio(&timed.put_strategies),
        "ratio",
    );
    m.push(
        "registry.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.push(
        "registry.commit_retry_ratio",
        ratio(end.retries - baseline.retries, commits),
        "ratio",
    );
    m.push(
        "storage.wal_bytes_per_commit",
        ratio(end.wal_bytes, end.wal_records),
        "B",
    );
    m.push(
        "storage.snapshots_per_1k_commits",
        ratio(end.snapshots - baseline.snapshots, commits) * 1000.0,
        "count",
    );
    m.push(
        "supergraph.incremental_ratio",
        strategy_ratio(&timed.compose_strategies),
        "ratio",
    );
    m.push(
        "process.cpu_ms_per_op",
        ratio(timed.cpu_ms, timed.attempted as f64),
        "ms",
    );
    m.push("trace.overhead_pct", overhead_pct, "%");
    m
}

/// Seed, machine and code identity, so results from different machines
/// or seeds are never compared silently.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"kernel\": \"{kernel}\", \"profile\": \"release\", \"commit\": \"{}\", \"source_digest\": \"{:016x}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit().unwrap_or_else(|| "unknown".into()),
        source_digest(),
    )
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run in an export that is not a repository).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the paths and contents of the program's sources: the code
/// identity even where no commit id is available.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "src", "vendor"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Keeps each run's result with its provenance under the target dir.
fn write_result(target_dir: &Path, args: &Args, result: &str) {
    let dir = target_dir.join("perfbench-results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"provenance\": {}, \"result\": {result}}}\n",
        provenance(args)
    );
    if let Err(err) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("perfbench: writing {}: {err}", path.display());
    }
}
