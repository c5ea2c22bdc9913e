//! `smerge serve` — the registry daemon.
//!
//! A `std`-only TCP server: one acceptor thread (the caller), a fixed
//! pool of worker threads draining a shared connection queue, and a
//! [`Registry`] shared by everyone. The wire protocol is the
//! line-oriented command/block format of [`schema_merge_text::protocol`];
//! `smerge client` (see [`crate::client`]) speaks the other side.
//!
//! The daemon announces `listening on 127.0.0.1:<port>` on stdout once
//! the socket is bound — with `--port 0` the kernel picks an ephemeral
//! port and the announcement is how callers (the e2e smoke test, shell
//! scripts) learn it. `SHUTDOWN` from any client stops accepting,
//! drains the worker pool and returns.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use schema_merge_core::Merger;
use schema_merge_registry::{MergedView, Registry, RetryPolicy};
use schema_merge_supergraph::{Supergraph, SupergraphError};
use schema_merge_telemetry::{self as telemetry, render_counter, render_gauge, Histogram};
use schema_merge_text::protocol::{status_line, BlockCollector, Command, Status};
use schema_merge_text::{encode_block, parse_document, print_schema, NamedSchema};

use crate::app::{parse_path_query, CliError};

/// How long a worker waits on an idle connection before dropping it —
/// keeps dead clients from pinning workers forever.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a worker blocks writing a response before giving up on the
/// connection — a stalled client that stops reading mid-MERGED must not
/// pin a worker forever either.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Wall-clock budget for collecting one PUT payload block. The per-line
/// read timeout alone would let a slow-drip client (one line every two
/// minutes) hold a worker indefinitely; the whole block must arrive
/// within this deadline.
const PUT_DEADLINE: Duration = Duration::from_secs(60);

/// The longest request or payload line the daemon reads, in bytes. Real
/// lines are a verb and a member name, or one line of a schema document;
/// a longer one is rejected with `E-LIMIT` before it can grow further.
const MAX_LINE_BYTES: usize = 1 << 20;

/// The largest PUT payload the daemon collects, in bytes — far above a
/// 6,000-class taxonomy view (under 1 MB), so only a runaway or hostile
/// client reaches it.
const MAX_PUT_BYTES: usize = 64 << 20;

/// How long an over-limit connection's unread input is drained before
/// the socket closes, so the client reads the `E-LIMIT` line instead of
/// a connection reset.
const LIMIT_DRAIN: Duration = Duration::from_secs(1);

/// Cadence of the background heal probe while the registry is degraded.
const PROBE_INTERVAL: Duration = Duration::from_millis(200);

/// The namespace the daemon's own registry is attached under. Bare
/// (slash-free) member names route here.
const DEFAULT_REGISTRY: &str = "default";

struct Options {
    port: u16,
    threads: usize,
    merge_threads: Option<usize>,
    data_dir: Option<String>,
    snapshot_every: Option<u64>,
    trace_log: Option<String>,
    preload: Vec<String>,
}

fn parse_options(args: &[&String]) -> Result<Options, CliError> {
    let mut options = Options {
        port: 7411,
        threads: 4,
        merge_threads: None,
        data_dir: None,
        snapshot_every: None,
        trace_log: None,
        preload: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--port" => {
                options.port = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--port requires a port number".into()))?;
            }
            "--threads" => {
                options.threads = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::Usage("--threads requires a positive count".into()))?;
            }
            "--merge-threads" => {
                options.merge_threads = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            CliError::Usage("--merge-threads requires a positive count".into())
                        })?,
                );
            }
            "--data-dir" => {
                options.data_dir = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage("--data-dir requires a path".into()))?
                        .to_string(),
                );
            }
            "--snapshot-every" => {
                options.snapshot_every =
                    Some(iter.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                        CliError::Usage("--snapshot-every requires a record count".into())
                    })?);
            }
            "--trace-log" => {
                options.trace_log = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage("--trace-log requires a path".into()))?
                        .to_string(),
                );
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown serve flag `{other}`")));
            }
            file => options.preload.push(file.to_string()),
        }
    }
    Ok(options)
}

/// Verbs the worker loop times individually. Connection-terminating
/// verbs (`QUIT`, `SHUTDOWN`) are excluded — their latency is the
/// teardown, not the service.
const TIMED_VERBS: [&str; 15] = [
    "put",
    "get",
    "delete",
    "merged",
    "stats",
    "metrics",
    "list",
    "query",
    "snapshot",
    "health",
    "ping",
    "attach",
    "detach",
    "compose",
    "supergraph",
];

/// Per-verb request-latency histograms, recorded by the worker loop
/// around every dispatched command.
struct RequestMetrics {
    verbs: [(&'static str, Histogram); TIMED_VERBS.len()],
}

impl RequestMetrics {
    fn new() -> Self {
        RequestMetrics {
            verbs: TIMED_VERBS.map(|verb| (verb, Histogram::new())),
        }
    }

    fn record(&self, verb: &str, elapsed: Duration) {
        if let Some((_, histogram)) = self.verbs.iter().find(|(name, _)| *name == verb) {
            histogram.record(elapsed);
        }
    }
}

/// The lower-case metrics label for a dispatched command, or `None` for
/// the connection-terminating verbs the loop does not time.
fn verb_label(command: &Command) -> Option<&'static str> {
    Some(match command {
        Command::Put(_) => "put",
        Command::Get(_) => "get",
        Command::Delete(_) => "delete",
        Command::Merged => "merged",
        Command::Stats => "stats",
        Command::Metrics => "metrics",
        Command::List => "list",
        Command::Query(_) => "query",
        Command::Snapshot => "snapshot",
        Command::Health => "health",
        Command::Ping => "ping",
        Command::Attach(_) => "attach",
        Command::Detach(_) => "detach",
        Command::Compose => "compose",
        Command::Supergraph => "supergraph",
        Command::Quit | Command::Shutdown => return None,
    })
}

/// The `--trace-log` sink: one Chrome trace-event JSON object per line
/// (loadable in `chrome://tracing` / Perfetto after wrapping in `[...]`,
/// or parsed as JSONL). Workers drain their thread-local span buffers
/// here after every request, so one mutex'd writer serializes the file
/// without serializing the traced work itself.
struct TraceSink {
    writer: Mutex<BufWriter<File>>,
}

impl TraceSink {
    fn open(path: &str) -> Result<TraceSink, CliError> {
        let file = File::create(path)
            .map_err(|err| CliError::Data(format!("opening trace log {path}: {err}")))?;
        Ok(TraceSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Drains the calling thread's finished spans into the log as
    /// worker `tid`.
    fn drain_thread(&self, tid: u64) {
        let spans = telemetry::drain_spans();
        if spans.is_empty() {
            return;
        }
        let mut writer = self.writer.lock().expect("trace log lock");
        for span in &spans {
            let _ = writeln!(writer, "{}", span.to_trace_event(tid));
        }
        let _ = writer.flush();
    }
}

/// Composes the METRICS exposition text: Prometheus-style counters,
/// gauges and latency summaries for the registry and the request loop.
fn render_metrics(
    registry: &Registry,
    supergraph: &Supergraph,
    requests: &RequestMetrics,
) -> String {
    let stats = registry.stats();
    let mut out = String::new();
    render_gauge(
        &mut out,
        "smerge_uptime_seconds",
        "Seconds since the registry instance was opened",
        i64::try_from(stats.uptime_secs).unwrap_or(i64::MAX),
    );
    render_counter(
        &mut out,
        "smerge_requests_total",
        "Protocol requests served",
        stats.requests_served,
    );
    render_counter(
        &mut out,
        "smerge_registry_generation",
        "Registry generation (successful commits)",
        stats.generation,
    );
    render_gauge(
        &mut out,
        "smerge_registry_members",
        "Current member count",
        i64::try_from(stats.members).unwrap_or(i64::MAX),
    );

    let health = registry.health();
    render_counter(
        &mut out,
        "smerge_storage_retry_total",
        "Commit-path storage retries under the retry policy",
        health.storage_retries,
    );
    render_gauge(
        &mut out,
        "smerge_degraded",
        "1 when the registry is in degraded read-only mode",
        i64::from(health.degraded),
    );
    if let Some(fault) = health.fault_counters {
        render_counter(
            &mut out,
            "smerge_fault_injected_total",
            "Storage faults injected by the live fault schedule",
            fault.injected,
        );
        render_counter(
            &mut out,
            "smerge_fault_torn_appends_total",
            "Injected append faults that left a torn partial frame",
            fault.torn_appends,
        );
    }

    let summary = |out: &mut String, name: &str, help: &str| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
    };
    summary(
        &mut out,
        "smerge_registry_commit_seconds",
        "End-to-end latency of generation-spending commits",
    );
    registry
        .commit_latency()
        .render_prometheus(&mut out, "smerge_registry_commit_seconds", "");
    summary(
        &mut out,
        "smerge_registry_fsync_seconds",
        "Per-commit durability wait (WAL append + fsync)",
    );
    registry
        .fsync_latency()
        .render_prometheus(&mut out, "smerge_registry_fsync_seconds", "");
    summary(
        &mut out,
        "smerge_registry_recovery_seconds",
        "Boot-time recovery latency (one sample per durable open)",
    );
    registry
        .recovery_latency()
        .render_prometheus(&mut out, "smerge_registry_recovery_seconds", "");

    let sg = supergraph.stats();
    render_counter(
        &mut out,
        "smerge_supergraph_generation",
        "Supergraph generation (attach/detach/compose commits)",
        sg.generation,
    );
    render_gauge(
        &mut out,
        "smerge_supergraph_registries",
        "Member registries attached to the supergraph",
        i64::try_from(sg.registries).unwrap_or(i64::MAX),
    );
    render_counter(
        &mut out,
        "smerge_composes_full_total",
        "Supergraph composes that re-joined every registry",
        sg.full_composes,
    );
    render_counter(
        &mut out,
        "smerge_composes_incremental_total",
        "Supergraph composes that completed onto a cached rest-join",
        sg.incremental_composes,
    );
    render_counter(
        &mut out,
        "smerge_composes_noop_total",
        "Supergraph composes that found nothing changed",
        sg.noop_composes,
    );
    summary(
        &mut out,
        "smerge_compose_seconds",
        "End-to-end supergraph compose latency",
    );
    supergraph
        .compose_latency()
        .render_prometheus(&mut out, "smerge_compose_seconds", "");

    summary(
        &mut out,
        "smerge_request_seconds",
        "Request latency by protocol verb",
    );
    for (verb, histogram) in &requests.verbs {
        histogram.snapshot().render_prometheus(
            &mut out,
            "smerge_request_seconds",
            &format!("verb=\"{verb}\""),
        );
    }
    out
}

/// The blocking handoff between the acceptor and the workers.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new() -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, stream: TcpStream) {
        let mut state = self.state.lock().expect("queue lock");
        state.conns.push_back(stream);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Blocks until a connection arrives; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(stream) = state.conns.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }
}

/// Runs the daemon. Returns once a client issues `SHUTDOWN`.
pub fn serve_command(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let mut builder = Registry::builder();
    if let Some(threads) = options.merge_threads {
        builder = builder.merge_threads(threads);
    }
    if let Some(dir) = &options.data_dir {
        // The daemon's durable registry runs with resilience on: flaky
        // fsyncs are retried, and exhaustion degrades to read-only (the
        // background probe below heals it) instead of erroring forever.
        builder = builder.data_dir(dir).retry_policy(RetryPolicy::new(3));
    }
    if let Some(every) = options.snapshot_every {
        builder = builder.snapshot_every(every);
    }
    let registry = Arc::new(
        builder
            .open()
            .map_err(|err| CliError::Data(format!("opening registry: {err}")))?,
    );
    if options.data_dir.is_some() {
        let stats = registry.stats();
        writeln!(
            out,
            "recovered generation {} ({} members) from {}",
            stats.generation,
            stats.members,
            options.data_dir.as_deref().unwrap_or_default()
        )?;
    }

    for path in &options.preload {
        let source = std::fs::read_to_string(path)
            .map_err(|err| CliError::Data(format!("{path}: {err}")))?;
        let docs =
            parse_document(&source).map_err(|err| CliError::Data(format!("{path}: {err}")))?;
        for doc in docs {
            registry
                .put(doc.name.clone(), doc.schema.schema().clone())
                .map_err(|err| CliError::Data(format!("{path}: preload failed: {err}")))?;
        }
    }

    // The federation layer: the daemon's own registry is attached under
    // the reserved `default` namespace, and `ATTACH` grows the
    // supergraph with fresh in-memory member registries at runtime.
    // Bare member names keep routing to the default registry; namespaced
    // `registry/member` names route to attached registries.
    let mut supergraph = Supergraph::new();
    if let Some(threads) = options.merge_threads {
        supergraph = Supergraph::with_threads(threads);
    }
    let supergraph = Arc::new(supergraph);
    supergraph
        .attach(DEFAULT_REGISTRY, Arc::clone(&registry))
        .expect("fresh supergraph accepts the default registry");

    let metrics = Arc::new(RequestMetrics::new());

    let listener = TcpListener::bind(("127.0.0.1", options.port))?;
    let addr = listener.local_addr()?;
    // The announcement line comes first — callers parsing stdout for the
    // ephemeral port (the smoke test, shell scripts) read it as line one.
    writeln!(out, "listening on {addr}")?;
    let trace = match &options.trace_log {
        Some(path) => {
            let sink = Arc::new(TraceSink::open(path)?);
            // Spans everywhere: the workers drain their thread buffers
            // into the sink after every request.
            telemetry::set_spans_enabled(true);
            writeln!(out, "tracing to {path}")?;
            Some(sink)
        }
        None => None,
    };
    out.flush()?;

    let queue = Arc::new(ConnQueue::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    // Background heal probe: while the registry is degraded it
    // re-attempts the store on a short cadence and flips back to
    // writable as soon as the store responds (`Registry::probe_now`).
    let probe = {
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                registry.probe_now();
                std::thread::sleep(PROBE_INTERVAL);
            }
        })
    };
    let workers: Vec<_> = (0..options.threads)
        .map(|tid| {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let supergraph = Arc::clone(&supergraph);
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            let trace = trace.clone();
            std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    // A broken connection only affects that client.
                    let _ = handle_connection(
                        stream,
                        &registry,
                        &supergraph,
                        &shutdown,
                        addr,
                        &metrics,
                        trace.as_deref(),
                        tid as u64,
                    );
                }
            })
        })
        .collect();

    for incoming in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match incoming {
            Ok(stream) => queue.push(stream),
            Err(err) => eprintln!("smerge serve: accept failed: {err}"),
        }
    }

    queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    let _ = probe.join();
    if trace.is_some() {
        telemetry::set_spans_enabled(false);
    }
    writeln!(out, "shutdown complete")?;
    Ok(())
}

/// A wire line longer than [`MAX_LINE_BYTES`].
struct LineTooLong;

/// Reads one line, without its terminator, buffering at most
/// [`MAX_LINE_BYTES`] of it. `None` at end of input.
fn read_line(
    reader: &mut BufReader<TcpStream>,
) -> std::io::Result<Option<Result<String, LineTooLong>>> {
    let mut bytes = Vec::new();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', &mut bytes)? == 0 {
        return Ok(None);
    }
    if bytes.len() > MAX_LINE_BYTES && bytes.last() != Some(&b'\n') {
        return Ok(Some(Err(LineTooLong)));
    }
    let mut buf = String::from_utf8(bytes)
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err))?;
    while buf.ends_with('\n') || buf.ends_with('\r') {
        buf.pop();
    }
    Ok(Some(Ok(buf)))
}

/// Answers an over-limit request with the stable `E-LIMIT` error and
/// ends the connection: the rest of the oversized input is never
/// buffered. The unread input is discarded for at most [`LIMIT_DRAIN`]
/// first, so the client sees the error line rather than a reset.
fn reject_over_limit(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    what: &str,
    cap: usize,
) -> std::io::Result<()> {
    let detail = format!("[E-LIMIT] {what} exceeds {cap} bytes; closing connection");
    writeln!(writer, "{}", status_line(Status::Err, &detail))?;
    writer.flush()?;
    writer.shutdown(Shutdown::Write)?;
    writer.set_read_timeout(Some(LIMIT_DRAIN))?;
    let deadline = Instant::now() + LIMIT_DRAIN;
    let mut discard = [0u8; 8192];
    while Instant::now() < deadline {
        match reader.read(&mut discard) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

/// Resolves a protocol member name to its registry: `registry/member`
/// routes to an attached supergraph registry, bare names to the daemon's
/// default registry.
fn route_member(
    registry: &Arc<Registry>,
    supergraph: &Supergraph,
    name: &str,
) -> Result<(Arc<Registry>, String), String> {
    match name.split_once('/') {
        None => Ok((Arc::clone(registry), name.to_string())),
        Some((namespace, member)) => {
            if namespace.is_empty() || member.is_empty() || member.contains('/') {
                return Err(format!(
                    "invalid member name `{name}`: expected `member` or `registry/member`"
                ));
            }
            match supergraph.registry(namespace) {
                Some(routed) => Ok((routed, member.to_string())),
                None => Err(format!(
                    "[{}] no registry `{namespace}` is attached",
                    SupergraphError::UnknownRegistry(namespace.to_string()).code()
                )),
            }
        }
    }
}

fn supergraph_err(err: &SupergraphError) -> String {
    status_line(Status::Err, &format!("[{}] {err}", err.code()))
}

/// Arms both socket deadlines on an accepted connection: a client that
/// stops sending (read) or stops receiving (write) must not pin a
/// worker forever.
fn configure_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    registry: &Arc<Registry>,
    supergraph: &Supergraph,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    metrics: &RequestMetrics,
    trace: Option<&TraceSink>,
    tid: u64,
) -> std::io::Result<()> {
    configure_stream(&stream)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    while let Some(line) = read_line(&mut reader)? {
        let Ok(line) = line else {
            return reject_over_limit(&mut reader, &mut writer, "request line", MAX_LINE_BYTES);
        };
        if line.trim().is_empty() {
            continue;
        }
        let command = match Command::parse(&line) {
            Ok(command) => command,
            Err(err) => {
                writeln!(writer, "{}", status_line(Status::Err, &err.to_string()))?;
                continue;
            }
        };
        registry.note_request();
        let verb = verb_label(&command);
        let started = Instant::now();
        // With `--trace-log` every request becomes a root span named
        // after its verb; the registry's commit/plan/execute spans nest
        // under it on this worker thread.
        let request_span = verb.map(telemetry::span);
        match command {
            Command::Quit => {
                writeln!(writer, "{}", status_line(Status::Ok, "bye"))?;
                return Ok(());
            }
            Command::Shutdown => {
                writeln!(writer, "{}", status_line(Status::Ok, "shutting down"))?;
                writer.flush()?;
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor with a throwaway connection.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
            Command::Ping => writeln!(writer, "{}", status_line(Status::Ok, "pong"))?,
            Command::Health => {
                let health = registry.health();
                let mut detail = format!(
                    "state={} retries={} degrade_events={} heal_events={}",
                    health.state(),
                    health.storage_retries,
                    health.degrade_events,
                    health.heal_events
                );
                if let Some(fault) = health.fault_counters {
                    detail.push_str(&format!(
                        " faults_injected={} torn_appends={}",
                        fault.injected, fault.torn_appends
                    ));
                }
                if let Some(err) = &health.last_storage_error {
                    // Free-form text goes last so the key=value fields
                    // stay machine-splittable.
                    detail.push_str(&format!(" last_error={err}"));
                }
                writeln!(writer, "{}", status_line(Status::Ok, &detail))?;
            }
            Command::Snapshot => match registry.snapshot() {
                Ok(generation) => writeln!(
                    writer,
                    "{}",
                    status_line(Status::Ok, &format!("generation={generation}"))
                )?,
                Err(err) => writeln!(writer, "{}", status_line(Status::Err, &err.to_string()))?,
            },
            Command::Put(name) => {
                let mut collector = BlockCollector::new();
                let mut complete = false;
                let mut body_bytes = 0usize;
                let block_started = Instant::now();
                while let Some(payload_line) = read_line(&mut reader)? {
                    let Ok(payload_line) = payload_line else {
                        return reject_over_limit(
                            &mut reader,
                            &mut writer,
                            "payload line",
                            MAX_LINE_BYTES,
                        );
                    };
                    body_bytes += payload_line.len() + 1;
                    if body_bytes > MAX_PUT_BYTES {
                        return reject_over_limit(
                            &mut reader,
                            &mut writer,
                            "PUT payload",
                            MAX_PUT_BYTES,
                        );
                    }
                    if collector.push(&payload_line) {
                        complete = true;
                        break;
                    }
                    if block_started.elapsed() > PUT_DEADLINE {
                        // A slow-drip client: each line lands within the
                        // read timeout, but the block as a whole never
                        // finishes. Cut it loose.
                        writeln!(
                            writer,
                            "{}",
                            status_line(Status::Err, "payload deadline exceeded")
                        )?;
                        return Ok(());
                    }
                }
                if !complete {
                    // Connection died mid-block; nothing to answer.
                    return Ok(());
                }
                let response = match route_member(registry, supergraph, &name) {
                    Ok((routed, member)) => put_member(&routed, &member, &collector.finish()),
                    Err(detail) => status_line(Status::Err, &detail),
                };
                writeln!(writer, "{response}")?;
            }
            Command::Get(name) => match route_member(registry, supergraph, &name) {
                Err(detail) => writeln!(writer, "{}", status_line(Status::Err, &detail))?,
                Ok((routed, member)) => match routed.get(&member) {
                    Some(version) => {
                        let doc = NamedSchema {
                            name: member.clone(),
                            schema: schema_merge_core::AnnotatedSchema::all_required(
                                version.schema.as_ref().clone(),
                            ),
                            keys: schema_merge_core::KeyAssignment::new(),
                        };
                        let detail = format!(
                            "hash={:016x} sequence={} generation={}",
                            version.hash, version.sequence, version.generation
                        );
                        writeln!(writer, "{}", status_line(Status::Data, &detail))?;
                        write!(writer, "{}", encode_block(&print_schema(&doc)))?;
                    }
                    None => writeln!(
                        writer,
                        "{}",
                        status_line(Status::Err, &format!("no member named `{name}`"))
                    )?,
                },
            },
            Command::Delete(name) => match route_member(registry, supergraph, &name) {
                Err(detail) => writeln!(writer, "{}", status_line(Status::Err, &detail))?,
                Ok((routed, member)) => match routed.delete(&member) {
                    Ok(outcome) => {
                        let detail = format!(
                            "generation={} remaining={} strategy={}",
                            outcome.generation,
                            outcome.remaining,
                            outcome.strategy.as_str()
                        );
                        writeln!(writer, "{}", status_line(Status::Ok, &detail))?;
                    }
                    Err(err) => writeln!(writer, "{}", status_line(Status::Err, &err.to_string()))?,
                },
            },
            Command::Merged => {
                let view = registry.merged();
                let detail = merged_detail(&view);
                let doc = NamedSchema {
                    name: "merged".into(),
                    schema: schema_merge_core::AnnotatedSchema::all_required(
                        view.proper.as_weak().clone(),
                    ),
                    keys: schema_merge_core::KeyAssignment::new(),
                };
                let mut payload = print_schema(&doc);
                payload.push_str(&format!(
                    "// implicit classes: {}\n",
                    view.report.num_implicit()
                ));
                writeln!(writer, "{}", status_line(Status::Data, &detail))?;
                write!(writer, "{}", encode_block(&payload))?;
            }
            Command::Stats => {
                let stats = registry.stats();
                writeln!(
                    writer,
                    "{}",
                    status_line(Status::Data, &format!("generation={}", stats.generation))
                )?;
                write!(writer, "{}", encode_block(&format!("{stats}\n")))?;
            }
            Command::Metrics => {
                let payload = render_metrics(registry, supergraph, metrics);
                writeln!(
                    writer,
                    "{}",
                    status_line(Status::Data, &format!("bytes={}", payload.len()))
                )?;
                write!(writer, "{}", encode_block(&payload))?;
            }
            Command::List => {
                let members = registry.list();
                let mut payload = String::new();
                for m in &members {
                    payload.push_str(&format!(
                        "{} hash={:016x} v{} classes={} arrows={}\n",
                        m.name, m.hash, m.sequence, m.num_classes, m.num_arrows
                    ));
                }
                writeln!(
                    writer,
                    "{}",
                    status_line(Status::Data, &format!("members={}", members.len()))
                )?;
                write!(writer, "{}", encode_block(&payload))?;
            }
            Command::Attach(name) => match supergraph.attach_new(&name) {
                Ok(_) => {
                    let detail = format!("registry={name} registries={}", supergraph.len());
                    writeln!(writer, "{}", status_line(Status::Ok, &detail))?;
                }
                Err(err) => writeln!(writer, "{}", supergraph_err(&err))?,
            },
            Command::Detach(name) => match supergraph.detach(&name) {
                Ok(_) => {
                    let detail = format!("registry={name} registries={}", supergraph.len());
                    writeln!(writer, "{}", status_line(Status::Ok, &detail))?;
                }
                Err(err) => writeln!(writer, "{}", supergraph_err(&err))?,
            },
            Command::Compose => match supergraph.compose() {
                Ok(outcome) => {
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
                    writeln!(writer, "{}", status_line(Status::Ok, &detail))?;
                }
                Err(err) => writeln!(writer, "{}", supergraph_err(&err))?,
            },
            Command::Supergraph => {
                let view = supergraph.composed();
                let weak = view.proper().as_weak();
                let detail = format!(
                    "generation={} registries={} classes={} arrows={} hints={} hash={:016x}",
                    view.generation,
                    view.members.len(),
                    weak.num_classes(),
                    weak.num_arrows(),
                    view.hints().count(),
                    view.hash()
                );
                let mut payload = String::new();
                for member in &view.members {
                    payload.push_str(&format!(
                        "registry {} generation={} members={}\n",
                        member.registry, member.generation, member.members
                    ));
                }
                for hint in view.hints() {
                    payload.push_str(&format!("hint[{}] {}\n", hint.code, hint.message));
                }
                let doc = NamedSchema {
                    name: "supergraph".into(),
                    schema: schema_merge_core::AnnotatedSchema::all_required(weak.clone()),
                    keys: schema_merge_core::KeyAssignment::new(),
                };
                payload.push_str(&print_schema(&doc));
                payload.push_str(&format!(
                    "// implicit classes: {}\n",
                    view.report.implicit.num_implicit()
                ));
                writeln!(writer, "{}", status_line(Status::Data, &detail))?;
                write!(writer, "{}", encode_block(&payload))?;
            }
            Command::Query(path) => match parse_path_query(&path) {
                Ok(query) => {
                    let classes = registry.query(&query);
                    let rendered: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
                    let detail = format!("{} result(s): {}", rendered.len(), rendered.join(", "));
                    writeln!(writer, "{}", status_line(Status::Ok, detail.trim_end()))?;
                }
                Err(err) => writeln!(writer, "{}", status_line(Status::Err, &err.to_string()))?,
            },
        }
        drop(request_span);
        if let Some(verb) = verb {
            metrics.record(verb, started.elapsed());
        }
        if let Some(trace) = trace {
            trace.drain_thread(tid);
        }
        writer.flush()?;
    }
    Ok(())
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

/// Parses and publishes a `PUT` payload: every schema in the document is
/// weak-joined into the member's single published schema (publishing a
/// document *is* publishing its merge — associativity makes the grouping
/// irrelevant).
fn put_member(registry: &Registry, name: &str, payload: &str) -> String {
    let docs = match parse_document(payload) {
        Ok(docs) => docs,
        Err(err) => return status_line(Status::Err, &format!("parse failed: {err}")),
    };
    if docs.is_empty() {
        return status_line(Status::Err, "payload contains no schemas");
    }
    let joined = match Merger::new()
        .schemas(docs.iter().map(|d| d.schema.schema()))
        .join()
    {
        Ok(joined) => joined.into_weak(),
        Err(err) => {
            return status_line(
                Status::Err,
                &format!("payload does not merge [{}]: {err}", err.code()),
            )
        }
    };
    match registry.put(name, joined) {
        Ok(outcome) => status_line(
            Status::Ok,
            &format!(
                "hash={:016x} sequence={} generation={} strategy={}",
                outcome.hash,
                outcome.sequence,
                outcome.generation,
                outcome.strategy.as_str()
            ),
        ),
        Err(err) => status_line(Status::Err, &err.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Both socket deadlines are armed on every accepted connection —
    /// notably the write timeout, so a client that stops reading
    /// mid-response cannot pin a worker forever.
    #[test]
    fn configure_stream_arms_read_and_write_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert_eq!(accepted.read_timeout().unwrap(), None);
        assert_eq!(accepted.write_timeout().unwrap(), None);
        configure_stream(&accepted).unwrap();
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_TIMEOUT));
        assert_eq!(accepted.write_timeout().unwrap(), Some(WRITE_TIMEOUT));
    }
}
