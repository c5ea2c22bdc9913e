//! `smerge serve` — the registry daemon.
//!
//! A `std`-only TCP server: one acceptor thread (the caller), one thread
//! per accepted connection under a cap of [`MAX_CONNS`] live
//! connections, and a [`Registry`] shared by everyone. An idle client
//! costs a parked thread, never a place in a queue, so it cannot hold up
//! any other client; how many merges run at once is bounded by the
//! registry's and the supergraph's writer lanes, not by the transport.
//! The wire protocol is the line-oriented command/block format of
//! [`schema_merge_text::protocol`]; `smerge client` (see
//! [`crate::client`]) speaks the other side.
//!
//! The daemon announces `listening on 127.0.0.1:<port>` on stdout once
//! the socket is bound — with `--port 0` the kernel picks an ephemeral
//! port and the announcement is how callers (the e2e smoke test, shell
//! scripts) learn it. `SHUTDOWN` from any client stops accepting, lets
//! the requests being served finish, closes the read half of every
//! other connection so idle clients see end of input, and returns once
//! every connection thread has ended.
//!
//! Serving a request has two halves. [`dispatch`] takes the shared
//! [`Daemon`] state and one parsed [`Request`] and returns the
//! [`Response`] — all routing and rendering, no socket I/O. A committed
//! view never changes within its generation, nor a member version once
//! published, so `dispatch` renders each MERGED and GET reply once and
//! keeps its wire bytes in the daemon's [`ReplyCache`]: later readers of
//! the same generation or version are sent those bytes as they are. The
//! transport loop ([`handle_connection`]) owns everything that touches
//! the socket: timeouts, the line and payload caps, the PUT deadline,
//! the request timer and trace drain, and the write of each response —
//! one `write_all` per reply on a `TCP_NODELAY` socket, so no reply
//! waits on Nagle's algorithm for the client's delayed ACK.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use schema_merge_registry::{
    MergedView, Registry, RegistryStats, RetryPolicy, SchemaVersion, VersionMeta,
};
use schema_merge_supergraph::{Supergraph, SupergraphError, SupergraphStats};
use schema_merge_telemetry::{
    self as telemetry, render_counter, render_gauge, Histogram, HistogramSnapshot,
};
use schema_merge_text::protocol::{status_line, BlockCollector, Command, Status};
use schema_merge_text::{frame_block, parse_document, parse_payload, print_weak, write_weak};

use crate::app::{parse_path_query, CliError};

/// How long a connection may sit idle before the daemon drops it —
/// keeps dead clients from holding a place under [`MAX_CONNS`] forever.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// How long writing a response may block before the daemon gives up on
/// the connection — a stalled client that stops reading mid-MERGED must
/// not hold its thread forever either.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Wall-clock budget for collecting one PUT payload block. The per-line
/// read timeout alone would let a slow-drip client (one line every two
/// minutes) hold its share of [`PUT_BUDGET`] indefinitely; the whole
/// block must arrive within this deadline.
const PUT_DEADLINE: Duration = Duration::from_secs(60);

/// The longest request or payload line the daemon reads, in bytes. Real
/// lines are a verb and a member name, or one line of a schema document;
/// a longer one is rejected with `E-LIMIT` before it can grow further.
const MAX_LINE_BYTES: usize = 1 << 20;

/// The largest PUT payload the daemon collects, in bytes — far above a
/// 6,000-class taxonomy view (under 1 MB), so only a runaway or hostile
/// client reaches it.
const MAX_PUT_BYTES: usize = 64 << 20;

/// The most connections the daemon serves at once, one thread each. An
/// accept past the cap is answered with one `E-BUSY` line and closed.
const MAX_CONNS: usize = 256;

/// The most PUT payload bytes the daemon buffers at once, summed over
/// every connection: four whole [`MAX_PUT_BYTES`] payloads. A PUT whose
/// next line would pass it is answered with `E-BUSY` and closed.
const PUT_BUDGET: usize = 4 * MAX_PUT_BYTES;

/// How long an over-limit connection's unread input is drained before
/// the socket closes, so the client reads the `E-LIMIT` line instead of
/// a connection reset.
const LIMIT_DRAIN: Duration = Duration::from_secs(1);

/// Cadence of the background heal probe while the registry is degraded.
const PROBE_INTERVAL: Duration = Duration::from_millis(200);

struct Options {
    port: u16,
    data_dir: Option<String>,
    snapshot_every: Option<u64>,
    trace_log: Option<String>,
    preload: Vec<String>,
}

fn parse_options(args: &[&String]) -> Result<Options, CliError> {
    let mut options = Options {
        port: 7411,
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
                // Still accepted, and ignored: every connection has its
                // own thread.
                iter.next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::Usage("--threads requires a positive count".into()))?;
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

/// Verbs the transport loop times individually. Connection-terminating
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

/// The verbs whose replies [`ReplyCache`] keeps.
const CACHED_VERBS: [&str; 2] = ["get", "merged"];

/// Per-verb request-latency histograms, recorded by the transport loop
/// around every dispatched command, and the reply cache's hits and
/// misses per cached verb, counted by [`dispatch`].
struct RequestMetrics {
    verbs: [(&'static str, Histogram); TIMED_VERBS.len()],
    /// `[hits, misses]` for each of [`CACHED_VERBS`], in order.
    replies: [[AtomicU64; 2]; CACHED_VERBS.len()],
}

impl RequestMetrics {
    fn new() -> Self {
        RequestMetrics {
            verbs: TIMED_VERBS.map(|verb| (verb, Histogram::new())),
            replies: Default::default(),
        }
    }

    fn record(&self, verb: &str, elapsed: Duration) {
        if let Some((_, histogram)) = self.verbs.iter().find(|(name, _)| *name == verb) {
            histogram.record(elapsed);
        }
    }

    /// Counts one reply-cache lookup for `verb`, one of [`CACHED_VERBS`].
    fn count_lookup(&self, verb: &str, hit: bool) {
        if let Some(i) = CACHED_VERBS.iter().position(|name| *name == verb) {
            self.replies[i][usize::from(!hit)].fetch_add(1, Ordering::Relaxed);
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
/// or parsed as JSONL). Connection threads drain their thread-local span
/// buffers here after every request, so one mutex'd writer serializes
/// the file without serializing the traced work itself.
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

    /// Drains the calling thread's finished spans into the log under
    /// `tid`, the id of the connection it serves.
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

/// Composes the METRICS exposition text — Prometheus-style counters,
/// gauges and latency summaries — from one registry snapshot, one
/// supergraph snapshot and the request loop's per-verb latencies.
fn render_metrics(
    stats: &RegistryStats,
    sg: &SupergraphStats,
    requests: &RequestMetrics,
) -> String {
    let summary_header = |out: &mut String, name: &str, help: &str| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
    };
    let summary = |out: &mut String, name: &str, help: &str, latency: &HistogramSnapshot| {
        summary_header(out, name, help);
        latency.render_prometheus(out, name, "");
    };
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
    render_counter(
        &mut out,
        "smerge_storage_retry_total",
        "Commit-path storage retries under the retry policy",
        stats.storage_retries,
    );
    render_gauge(
        &mut out,
        "smerge_degraded",
        "1 when the registry is in degraded read-only mode",
        i64::from(stats.degraded),
    );
    if let Some(fault) = stats.fault_counters {
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
    summary(
        &mut out,
        "smerge_registry_commit_seconds",
        "End-to-end latency of generation-spending commits",
        &stats.commit_latency,
    );
    summary(
        &mut out,
        "smerge_registry_fsync_seconds",
        "Per-commit durability wait (WAL append + fsync)",
        &stats.fsync_latency,
    );
    summary(
        &mut out,
        "smerge_registry_recovery_seconds",
        "Boot-time recovery latency (one sample per durable open)",
        &stats.recovery_latency,
    );

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
        &sg.compose_latency,
    );

    summary_header(
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

    out.push_str(
        "# HELP smerge_reply_cache_total Reply-cache lookups by verb and result\n\
         # TYPE smerge_reply_cache_total counter\n",
    );
    for (verb, counts) in CACHED_VERBS.iter().zip(&requests.replies) {
        for (result, count) in ["hit", "miss"].iter().zip(counts) {
            out.push_str(&format!(
                "smerge_reply_cache_total{{verb=\"{verb}\",result=\"{result}\"}} {}\n",
                count.load(Ordering::Relaxed)
            ));
        }
    }
    out
}

/// The `HEALTH` detail: `key=value` resilience fields, with the
/// free-form last storage error last so the fields stay
/// machine-splittable.
fn render_health(stats: &RegistryStats) -> String {
    let mut detail = format!(
        "state={} retries={} degrade_events={} heal_events={}",
        if stats.degraded { "degraded" } else { "ok" },
        stats.storage_retries,
        stats.degrade_events,
        stats.heal_events
    );
    if let Some(fault) = stats.fault_counters {
        detail.push_str(&format!(
            " faults_injected={} torn_appends={}",
            fault.injected, fault.torn_appends
        ));
    }
    if let Some(err) = &stats.last_storage_error {
        detail.push_str(&format!(" last_error={err}"));
    }
    detail
}

/// The transport's shared state: the live connections, which the cap
/// counts and `SHUTDOWN` closes, and the PUT payload bytes buffered over
/// all of them.
struct Transport {
    max_conns: usize,
    put_budget: usize,
    live: Mutex<HashMap<u64, Arc<TcpStream>>>,
    put_bytes: AtomicUsize,
}

impl Transport {
    fn new(max_conns: usize, put_budget: usize) -> Transport {
        Transport {
            max_conns,
            put_budget,
            live: Mutex::new(HashMap::new()),
            put_bytes: AtomicUsize::new(0),
        }
    }

    /// Registers connection `id`, or `None` when the cap is reached.
    fn admit(&self, id: u64, stream: &Arc<TcpStream>) -> Option<Slot<'_>> {
        let mut live = self.live.lock().expect("connection table lock");
        if live.len() >= self.max_conns {
            return None;
        }
        live.insert(id, Arc::clone(stream));
        Some(Slot {
            transport: self,
            id,
        })
    }

    /// Closes the read half of every live connection: a blocked read
    /// sees end of input, so each thread finishes the request it is
    /// serving, if any, and ends.
    fn close_reads(&self) {
        for stream in self.live.lock().expect("connection table lock").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A live connection's place under the cap; dropping it frees the place.
struct Slot<'a> {
    transport: &'a Transport,
    id: u64,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // A poisoned table only means another connection's thread
        // panicked; every update to it is a single insert or remove.
        let mut live = self
            .transport
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        live.remove(&self.id);
    }
}

/// One PUT payload's bytes, counted against the daemon's PUT budget until
/// the reservation is dropped.
struct Reservation<'a> {
    transport: &'a Transport,
    bytes: usize,
}

impl Reservation<'_> {
    /// Counts `bytes` more, or returns `false`, counting nothing, when
    /// that would pass the budget.
    fn grow(&mut self, bytes: usize) -> bool {
        let budget = self.transport.put_budget;
        let taken = self
            .transport
            .put_bytes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |held| {
                held.checked_add(bytes).filter(|&total| total <= budget)
            })
            .is_ok();
        if taken {
            self.bytes += bytes;
        }
        taken
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.transport
            .put_bytes
            .fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

/// Runs the daemon. Returns once a client issues `SHUTDOWN`.
pub fn serve_command(args: &[&String], out: &mut dyn Write) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let mut builder = Registry::builder();
    if let Some(dir) = &options.data_dir {
        // The daemon's durable registry runs with resilience on: flaky
        // fsyncs are retried, and exhaustion degrades to read-only (the
        // background probe below heals it) instead of erroring forever.
        builder = builder.data_dir(dir).retry_policy(RetryPolicy::new(3));
    }
    if let Some(every) = options.snapshot_every {
        builder = builder.snapshot_every(every);
    }
    let registry = builder
        .open()
        .map_err(|err| CliError::Data(format!("opening registry: {err}")))?;
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
    let daemon = Daemon::new(registry);

    let listener = TcpListener::bind(("127.0.0.1", options.port))?;
    let addr = listener.local_addr()?;
    // The announcement line comes first — callers parsing stdout for the
    // ephemeral port (the smoke test, shell scripts) read it as line one.
    writeln!(out, "listening on {addr}")?;
    let trace = match &options.trace_log {
        Some(path) => {
            let sink = TraceSink::open(path)?;
            // Spans everywhere: connection threads drain their buffers
            // into the sink after every request.
            telemetry::set_spans_enabled(true);
            writeln!(out, "tracing to {path}")?;
            Some(sink)
        }
        None => None,
    };
    out.flush()?;

    let transport = Transport::new(MAX_CONNS, PUT_BUDGET);
    std::thread::scope(|scope| {
        // Background heal probe: while the registry is degraded it
        // re-attempts the store on a short cadence and flips back to
        // writable as soon as the store responds (`Registry::probe_now`).
        scope.spawn(|| {
            while !daemon.shutdown.load(Ordering::SeqCst) {
                daemon.registry.probe_now();
                std::thread::sleep(PROBE_INTERVAL);
            }
        });
        serve_connections(&listener, addr, &daemon, &transport, trace.as_ref());
    });
    if trace.is_some() {
        telemetry::set_spans_enabled(false);
    }
    writeln!(out, "shutdown complete")?;
    Ok(())
}

/// Accepts connections on `listener` (bound to `addr`) until a client
/// sends `SHUTDOWN`, serving each on a thread of its own, and returns
/// once every connection has ended.
fn serve_connections(
    listener: &TcpListener,
    addr: SocketAddr,
    daemon: &Daemon,
    transport: &Transport,
    trace: Option<&TraceSink>,
) {
    std::thread::scope(|scope| {
        for (id, incoming) in (0u64..).zip(listener.incoming()) {
            if daemon.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(stream) => Arc::new(stream),
                Err(err) => {
                    eprintln!("smerge serve: accept failed: {err}");
                    continue;
                }
            };
            let Some(slot) = transport.admit(id, &stream) else {
                let busy = format!(
                    "[E-BUSY] the daemon already serves its limit of {} connections; \
                     closing connection",
                    transport.max_conns
                );
                let _ = write_response(&mut &*stream, &Response::err(&busy));
                continue;
            };
            let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
                let _slot = slot;
                // A broken connection only affects that client.
                let _ = handle_connection(&stream, daemon, transport, addr, trace, id);
            });
            if let Err(err) = spawned {
                eprintln!("smerge serve: no thread for a connection: {err}");
            }
        }
        transport.close_reads();
    });
}

/// A wire line longer than [`MAX_LINE_BYTES`].
struct LineTooLong;

/// Reads one line into `buf`, replacing what it held, and returns the
/// line without its terminator, buffering at most [`MAX_LINE_BYTES`] of
/// it. `None` at end of input. The caller reuses `buf` from line to
/// line, so a line costs no allocation of its own.
fn read_line<'b>(
    reader: &mut BufReader<&TcpStream>,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, LineTooLong>>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        return Ok(Some(Err(LineTooLong)));
    }
    let line = std::str::from_utf8(buf)
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err))?;
    Ok(Some(Ok(line.trim_end_matches(['\n', '\r']))))
}

/// Answers an over-limit request with the stable `code` error (`E-LIMIT`
/// for a cap on one request, `E-BUSY` for the daemon-wide PUT budget)
/// and ends the connection: the rest of the oversized input is never
/// buffered. The unread input is discarded for at most [`LIMIT_DRAIN`]
/// first, so the client sees the error line rather than a reset.
fn reject_over_limit(
    reader: &mut BufReader<&TcpStream>,
    writer: &mut &TcpStream,
    code: &str,
    what: &str,
    cap: usize,
) -> std::io::Result<()> {
    let detail = format!("[{code}] {what} exceeds {cap} bytes; closing connection");
    write_response(writer, &Response::err(&detail))?;
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

/// Arms both socket deadlines on an accepted connection — a client that
/// stops sending (read) or stops receiving (write) must not hold its
/// thread forever — and sets `TCP_NODELAY`: each reply is one complete
/// write, so there is nothing for Nagle's algorithm to coalesce.
fn configure_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(())
}

/// Writes one response — the status line, then its block, if any — with
/// a single `write_all`.
fn write_response<W: Write>(writer: &mut W, response: &Response) -> std::io::Result<()> {
    writer.write_all(response.wire.as_bytes())
}

/// Collects a `PUT` payload block, counting each line against the
/// daemon's PUT budget as it arrives; the body comes back with its
/// reservation. `None` when the connection ends (or is cut loose) before
/// the terminator: there is nothing to dispatch.
fn read_put_body<'t>(
    reader: &mut BufReader<&TcpStream>,
    writer: &mut &TcpStream,
    transport: &'t Transport,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<(String, Reservation<'t>)>> {
    let mut collector = BlockCollector::new();
    let mut reservation = Reservation {
        transport,
        bytes: 0,
    };
    let block_started = Instant::now();
    let (code, what, cap) = loop {
        let Some(payload_line) = read_line(reader, buf)? else {
            // Connection died mid-block; nothing to answer.
            return Ok(None);
        };
        let Ok(payload_line) = payload_line else {
            break ("E-LIMIT", "payload line", MAX_LINE_BYTES);
        };
        let bytes = payload_line.len() + 1;
        if reservation.bytes + bytes > MAX_PUT_BYTES {
            break ("E-LIMIT", "PUT payload", MAX_PUT_BYTES);
        }
        if !reservation.grow(bytes) {
            break (
                "E-BUSY",
                "in-flight PUT payload total",
                transport.put_budget,
            );
        }
        if collector.push(payload_line) {
            return Ok(Some((collector.finish(), reservation)));
        }
        if block_started.elapsed() > PUT_DEADLINE {
            // A slow-drip client: each line lands within the read
            // timeout, but the block as a whole never finishes. Cut it
            // loose.
            write_response(writer, &Response::err("payload deadline exceeded"))?;
            return Ok(None);
        }
    };
    // Give the partial payload back before draining the rest of it.
    drop((collector, reservation));
    reject_over_limit(reader, writer, code, what, cap)?;
    Ok(None)
}

/// The transport loop of connection `id`: reads and parses each request
/// line (and a `PUT`'s payload block), times it, hands it to
/// [`dispatch`] and writes the response.
fn handle_connection(
    stream: &TcpStream,
    daemon: &Daemon,
    transport: &Transport,
    addr: SocketAddr,
    trace: Option<&TraceSink>,
    id: u64,
) -> std::io::Result<()> {
    configure_stream(stream)?;
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut buf = Vec::new();

    while let Some(line) = read_line(&mut reader, &mut buf)? {
        let Ok(line) = line else {
            return reject_over_limit(
                &mut reader,
                &mut writer,
                "E-LIMIT",
                "request line",
                MAX_LINE_BYTES,
            );
        };
        if line.trim().is_empty() {
            continue;
        }
        let command = match Command::parse(line) {
            Ok(command) => command,
            Err(err) => {
                write_response(&mut writer, &Response::err(&err.to_string()))?;
                continue;
            }
        };
        let verb = verb_label(&command);
        let started = Instant::now();
        // With `--trace-log` every request becomes a root span named
        // after its verb; the registry's commit/plan/execute spans nest
        // under it on this connection's thread.
        let request_span = verb.map(telemetry::span);
        let shutdown = command == Command::Shutdown;
        let (body, payload) = match command {
            Command::Put(_) => {
                match read_put_body(&mut reader, &mut writer, transport, &mut buf)? {
                    Some((body, reservation)) => (body, Some(reservation)),
                    None => return Ok(()),
                }
            }
            _ => (String::new(), None),
        };
        let response = dispatch(daemon, Request { command, body });
        // Dispatch consumed the payload: give its bytes back to the budget.
        drop(payload);
        write_response(&mut writer, &response)?;
        if response.close {
            if shutdown {
                // Unblock the acceptor with a throwaway connection.
                let _ = TcpStream::connect(addr);
            }
            return Ok(());
        }
        drop(request_span);
        if let Some(verb) = verb {
            daemon.metrics.record(verb, started.elapsed());
        }
        if let Some(trace) = trace {
            trace.drain_thread(id);
        }
    }
    Ok(())
}

/// The namespace the daemon's own registry is attached under. Bare
/// (slash-free) member names route here; it can be neither attached
/// nor detached over the wire.
const DEFAULT_REGISTRY: &str = "default";

/// Everything a request can reach: the daemon's own registry, the
/// supergraph it is attached to (as [`DEFAULT_REGISTRY`]), the rendered
/// replies, the request metrics and the shutdown flag. One per daemon,
/// shared by every connection.
struct Daemon {
    registry: Arc<Registry>,
    supergraph: Supergraph,
    replies: ReplyCache,
    metrics: RequestMetrics,
    shutdown: AtomicBool,
}

impl Daemon {
    /// Attaches `registry` to a fresh supergraph; `ATTACH` grows it at
    /// runtime with fresh in-memory member registries.
    fn new(registry: Registry) -> Daemon {
        let registry = Arc::new(registry);
        let supergraph = Supergraph::new();
        supergraph
            .attach(DEFAULT_REGISTRY, Arc::clone(&registry))
            .expect("fresh supergraph accepts the default registry");
        Daemon {
            registry,
            supergraph,
            replies: ReplyCache::default(),
            metrics: RequestMetrics::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Resolves a protocol member name to the namespace of its registry,
    /// the registry and the member name within it: `registry/member`
    /// routes to an attached supergraph registry, bare names to the
    /// daemon's own registry, attached as [`DEFAULT_REGISTRY`].
    fn route_member<'n>(
        &self,
        name: &'n str,
    ) -> Result<(&'n str, Arc<Registry>, &'n str), Response> {
        let Some((namespace, member)) = name.split_once('/') else {
            return Ok((DEFAULT_REGISTRY, Arc::clone(&self.registry), name));
        };
        if namespace.is_empty() || member.is_empty() || member.contains('/') {
            return Err(Response::err(&format!(
                "invalid member name `{name}`: expected `member` or `registry/member`"
            )));
        }
        match self.supergraph.registry(namespace) {
            Some(routed) => Ok((namespace, routed, member)),
            None => Err(supergraph_err(&SupergraphError::UnknownRegistry(
                namespace.to_string(),
            ))),
        }
    }

    /// The MERGED reply: the kept bytes when they render the default
    /// registry's current generation, else rendered now and kept.
    fn merged_reply(&self) -> Response {
        let hit = self.replies.merged(self.registry.generation());
        self.metrics.count_lookup("merged", hit.is_some());
        if let Some(reply) = hit {
            return reply;
        }
        let view = self.registry.merged();
        let reply = render_merged(&view);
        self.replies.keep_merged(view.generation, &reply);
        reply
    }

    /// The GET reply for `version` of `member` in the registry attached
    /// as `namespace`: the kept bytes when they render this very
    /// version, else rendered now and kept.
    fn get_reply(&self, namespace: &str, member: &str, version: &SchemaVersion) -> Response {
        let meta = version.meta();
        let hit = self.replies.get(namespace, member, meta);
        self.metrics.count_lookup("get", hit.is_some());
        if let Some(reply) = hit {
            return reply;
        }
        let reply = render_get(member, version);
        self.replies.keep_get(namespace, member, meta, &reply);
        reply
    }
}

/// Renders the MERGED reply for `view`.
fn render_merged(view: &MergedView) -> Response {
    let weak = view.proper.as_weak();
    let arrows = weak.num_arrows();
    let detail = format!(
        "generation={} hash={:016x} classes={} arrows={}",
        view.generation,
        view.hash(),
        weak.num_classes(),
        arrows
    );
    let lines = weak.num_classes() + weak.num_specializations() + arrows;
    Response::data_with(&detail, printed_len_hint(lines), |out| {
        write_weak(out, "merged", weak);
        out.push_str(&format!(
            "// implicit classes: {}\n",
            view.report.num_implicit()
        ));
    })
}

/// Renders the GET reply for `version` of `member`.
fn render_get(member: &str, version: &SchemaVersion) -> Response {
    let schema = &version.schema;
    let lines = schema.num_classes() + schema.num_specializations() + schema.num_arrows();
    Response::data_with(
        &format!(
            "hash={:016x} sequence={} generation={}",
            version.hash, version.sequence, version.generation
        ),
        printed_len_hint(lines),
        |out| write_weak(out, member, schema),
    )
}

/// A reply buffer size for a schema printed in about `lines` lines, so
/// that the printer seldom regrows it.
fn printed_len_hint(lines: usize) -> usize {
    256 + 40 * lines
}

/// Locks `mutex`, recovering the guard if a thread panicked while it held
/// it: every update under the [`ReplyCache`] locks is one insert or
/// remove, so the data is valid at every step.
fn unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The rendered MERGED and GET replies, each with the registry state it
/// renders. A reply is a pure function of that state — a view never
/// changes within its generation, and a member version's `(hash,
/// sequence, generation)` fixes its body — so a reader that finds its
/// state here sends the kept bytes as they are. Entries hold wire bytes
/// only, never an `Arc` into registry state, so a superseded view or
/// body is still freed by the commit that replaced it. Nothing is
/// rendered on the write path: the first reader of a new generation or
/// version renders it.
#[derive(Default)]
struct ReplyCache {
    /// The MERGED reply and the default registry's generation it renders.
    merged: Mutex<Option<(u64, Response)>>,
    /// GET replies by registry namespace, then member name.
    get: Mutex<HashMap<String, HashMap<String, KeptGet>>>,
}

/// A kept GET reply and the member version it renders.
type KeptGet = (VersionMeta, Response);

impl ReplyCache {
    /// The kept MERGED reply, if it renders `generation`.
    fn merged(&self, generation: u64) -> Option<Response> {
        let merged = unpoisoned(&self.merged);
        let (kept, reply) = merged.as_ref()?;
        (*kept == generation).then(|| reply.clone())
    }

    /// Keeps `reply` as the MERGED reply of `generation`, unless a later
    /// generation's reply is kept already.
    fn keep_merged(&self, generation: u64, reply: &Response) {
        let mut merged = unpoisoned(&self.merged);
        if merged.as_ref().is_none_or(|(kept, _)| *kept < generation) {
            *merged = Some((generation, reply.clone()));
        }
    }

    /// The kept GET reply for `member` of registry `namespace`, if it
    /// renders `version`.
    fn get(&self, namespace: &str, member: &str, version: VersionMeta) -> Option<Response> {
        let get = unpoisoned(&self.get);
        let (kept, reply) = get.get(namespace)?.get(member)?;
        (*kept == version).then(|| reply.clone())
    }

    /// Keeps `reply` as the GET reply for `version` of `member` in
    /// registry `namespace`, replacing whatever that member had kept.
    fn keep_get(&self, namespace: &str, member: &str, version: VersionMeta, reply: &Response) {
        unpoisoned(&self.get)
            .entry(namespace.to_string())
            .or_default()
            .insert(member.to_string(), (version, reply.clone()));
    }

    /// Drops the GET reply of `member` in registry `namespace`: the
    /// member was deleted, or a GET found none.
    fn forget_member(&self, namespace: &str, member: &str) {
        if let Some(members) = unpoisoned(&self.get).get_mut(namespace) {
            members.remove(member);
        }
    }

    /// Drops every GET reply of the registry attached as `namespace`: it
    /// was detached.
    fn forget_registry(&self, namespace: &str) {
        unpoisoned(&self.get).remove(namespace);
    }
}

/// One parsed request: the command line, plus the payload block a `PUT`
/// carries (empty for every other verb).
struct Request {
    command: Command,
    body: String,
}

/// One response: its wire bytes — the status line, its newline, and the
/// encoded block a `DATA` status carries — and whether the connection
/// closes after it (`QUIT`, `SHUTDOWN`). The bytes are shared, so a kept
/// reply is sent without a copy.
#[derive(Debug, Clone)]
struct Response {
    wire: Arc<str>,
    close: bool,
}

impl Response {
    fn line(status: Status, detail: &str) -> Response {
        let mut wire = status_line(status, detail);
        wire.push('\n');
        Response {
            wire: wire.into(),
            close: false,
        }
    }

    fn ok(detail: &str) -> Response {
        Response::line(Status::Ok, detail)
    }

    fn err(detail: &str) -> Response {
        Response::line(Status::Err, detail)
    }

    /// A `DATA` status line followed by `payload` as a block.
    fn data(detail: &str, payload: &str) -> Response {
        let capacity = detail.len() + payload.len() + 16;
        Response::data_with(detail, capacity, |out| out.push_str(payload))
    }

    /// A `DATA` status line followed by the block `write` prints, built
    /// in one buffer of `capacity` bytes to start with: a printed payload
    /// is written where it is sent from, not copied there through a
    /// print buffer and an encoded block.
    fn data_with(detail: &str, capacity: usize, write: impl FnOnce(&mut String)) -> Response {
        let mut wire = String::with_capacity(capacity);
        wire.push_str(&status_line(Status::Data, detail));
        wire.push('\n');
        let start = wire.len();
        write(&mut wire);
        frame_block(&mut wire, start);
        Response {
            wire: wire.into(),
            close: false,
        }
    }

    /// This response, ending the connection once written.
    fn closing(self) -> Response {
        Response {
            close: true,
            ..self
        }
    }
}

fn supergraph_err(err: &SupergraphError) -> Response {
    Response::err(&format!("[{}] {err}", err.code()))
}

/// Serves one request: routes it to the daemon's registry or an
/// attached one, runs it, and renders the response, or takes a MERGED or
/// GET reply from the [`ReplyCache`]. No socket I/O — the transport loop
/// reads the request and writes what this returns.
fn dispatch(daemon: &Daemon, request: Request) -> Response {
    let Daemon {
        registry,
        supergraph,
        ..
    } = daemon;
    registry.note_request();
    match request.command {
        Command::Quit => Response::ok("bye").closing(),
        Command::Shutdown => {
            daemon.shutdown.store(true, Ordering::SeqCst);
            Response::ok("shutting down").closing()
        }
        Command::Ping => Response::ok("pong"),
        Command::Health => Response::ok(&render_health(&registry.stats())),
        Command::Snapshot => match registry.snapshot() {
            Ok(generation) => Response::ok(&format!("generation={generation}")),
            Err(err) => Response::err(&err.to_string()),
        },
        Command::Put(name) => match daemon.route_member(&name) {
            Ok((_, routed, member)) => put_member(&routed, member, &request.body),
            Err(response) => response,
        },
        Command::Get(name) => match daemon.route_member(&name) {
            Err(response) => response,
            Ok((namespace, routed, member)) => match routed.get(member) {
                Some(version) => daemon.get_reply(namespace, member, &version),
                None => {
                    daemon.replies.forget_member(namespace, member);
                    Response::err(&format!("no member named `{name}`"))
                }
            },
        },
        Command::Delete(name) => match daemon.route_member(&name) {
            Err(response) => response,
            Ok((namespace, routed, member)) => match routed.delete(member) {
                Ok(outcome) => {
                    daemon.replies.forget_member(namespace, member);
                    Response::ok(&format!(
                        "generation={} remaining={} strategy={}",
                        outcome.generation,
                        outcome.remaining,
                        outcome.strategy.as_str()
                    ))
                }
                Err(err) => Response::err(&err.to_string()),
            },
        },
        Command::Merged => daemon.merged_reply(),
        Command::Stats => {
            let stats = registry.stats();
            Response::data(
                &format!("generation={}", stats.generation),
                &format!("{stats}\n"),
            )
        }
        Command::Metrics => {
            let payload = render_metrics(&registry.stats(), &supergraph.stats(), &daemon.metrics);
            Response::data(&format!("bytes={}", payload.len()), &payload)
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
            Response::data(&format!("members={}", members.len()), &payload)
        }
        Command::Attach(name) | Command::Detach(name) if name == DEFAULT_REGISTRY => {
            Response::err(&format!(
                "[E-SG-RESERVED] registry `{DEFAULT_REGISTRY}` is the daemon's own \
                 registry; it cannot be attached or detached"
            ))
        }
        Command::Attach(name) => match supergraph.attach_new(&name) {
            Ok(_) => Response::ok(&format!("registry={name} registries={}", supergraph.len())),
            Err(err) => supergraph_err(&err),
        },
        Command::Detach(name) => match supergraph.detach(&name) {
            Ok(_) => {
                daemon.replies.forget_registry(&name);
                Response::ok(&format!("registry={name} registries={}", supergraph.len()))
            }
            Err(err) => supergraph_err(&err),
        },
        Command::Compose => match supergraph.compose() {
            Ok(outcome) => {
                let weak = outcome.view.proper().as_weak();
                Response::ok(&format!(
                    "generation={} strategy={} registries={} classes={} arrows={} hints={}",
                    outcome.generation,
                    outcome.strategy.as_str(),
                    outcome.view.members.len(),
                    weak.num_classes(),
                    weak.num_arrows(),
                    outcome.view.hints().count()
                ))
            }
            Err(err) => supergraph_err(&err),
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
            payload.push_str(&print_weak("supergraph", weak));
            payload.push_str(&format!(
                "// implicit classes: {}\n",
                view.implicit().num_implicit()
            ));
            Response::data(&detail, &payload)
        }
        Command::Query(path) => match parse_path_query(&path) {
            Ok(query) => {
                let classes = registry.query(&query);
                let rendered: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
                let detail = format!("{} result(s): {}", rendered.len(), rendered.join(", "));
                Response::ok(detail.trim_end())
            }
            // A usage error displays the whole CLI usage text after its
            // message; the wire reply is the message alone, on one line.
            Err(CliError::Usage(message)) => Response::err(&message),
            Err(err) => Response::err(&err.to_string()),
        },
    }
}

/// Decodes and publishes a `PUT` payload: every schema in the document
/// is weak-joined into the member's single published schema (publishing
/// a document *is* publishing its merge — associativity makes the
/// grouping irrelevant). [`parse_payload`] closes the union of the
/// blocks' declarations once, which is that join (§4.1).
fn put_member(registry: &Registry, name: &str, payload: &str) -> Response {
    let joined = match parse_payload(payload) {
        Ok(joined) => joined,
        Err(err) => return Response::err(&err.to_string()),
    };
    match registry.put(name, joined) {
        Ok(outcome) => Response::ok(&format!(
            "hash={:016x} sequence={} generation={} strategy={}",
            outcome.hash,
            outcome.sequence,
            outcome.generation,
            outcome.strategy.as_str()
        )),
        Err(err) => Response::err(&err.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_merge_core::{Merger, WeakSchema};
    use schema_merge_text::encode_block;

    /// Both socket deadlines are armed on every accepted connection —
    /// notably the write timeout, so a client that stops reading
    /// mid-response cannot hold its thread forever — and `TCP_NODELAY` is
    /// set, so no reply waits on the client's delayed ACK.
    #[test]
    fn configure_stream_arms_read_and_write_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert_eq!(accepted.read_timeout().unwrap(), None);
        assert_eq!(accepted.write_timeout().unwrap(), None);
        assert!(!accepted.nodelay().unwrap());
        configure_stream(&accepted).unwrap();
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_TIMEOUT));
        assert_eq!(accepted.write_timeout().unwrap(), Some(WRITE_TIMEOUT));
        assert!(accepted.nodelay().unwrap());
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A reply is one write: a status line followed by a block in a
    /// separate write is what Nagle's algorithm holds back.
    #[test]
    fn write_response_sends_a_data_reply_in_one_write() {
        let response = Response::data("members=1", "alpha\n.leading dot\n");
        let mut writer = CountingWriter::default();
        write_response(&mut writer, &response).unwrap();
        assert_eq!(writer.writes, 1);
        assert_eq!(
            String::from_utf8(writer.bytes).unwrap(),
            format!("DATA members=1\n{}", encode_block("alpha\n.leading dot\n"))
        );

        let mut writer = CountingWriter::default();
        write_response(&mut writer, &Response::ok("pong")).unwrap();
        assert_eq!(
            (writer.writes, writer.bytes.as_slice()),
            (1, &b"OK pong\n"[..])
        );
    }

    #[test]
    fn parse_options_accepts_threads_and_rejects_merge_threads() {
        let parse = |argv: &[&str]| {
            let owned: Vec<String> = argv.iter().map(|arg| arg.to_string()).collect();
            let refs: Vec<&String> = owned.iter().collect();
            parse_options(&refs)
                .err()
                .map(|err| (err.code(), err.to_string()))
        };
        // Accepted and ignored: every connection has its own thread.
        assert!(parse(&["--threads", "2", "--port", "0"]).is_none());
        let (code, message) = parse(&["--threads", "0"]).expect("a zero count is rejected");
        assert_eq!(code, "E-CLI-USAGE");
        assert!(
            message.contains("--threads requires a positive count"),
            "{message}"
        );
        let (code, message) = parse(&["--merge-threads", "1"]).expect("the flag is gone");
        assert_eq!(code, "E-CLI-USAGE");
        assert!(
            message.contains("unknown serve flag `--merge-threads`"),
            "{message}"
        );
    }

    fn daemon() -> Daemon {
        Daemon::new(Registry::new())
    }

    /// Dispatches one request line, with `body` as a `PUT` payload.
    fn send(daemon: &Daemon, line: &str, body: &str) -> Response {
        let command = Command::parse(line).expect("a valid request line");
        dispatch(
            daemon,
            Request {
                command,
                body: body.to_string(),
            },
        )
    }

    fn status(daemon: &Daemon, line: &str) -> String {
        send(daemon, line, "").status().to_string()
    }

    impl Response {
        /// The status line, without its newline.
        fn status(&self) -> &str {
            self.wire
                .split_once('\n')
                .map_or(&*self.wire, |(status, _)| status)
        }
    }

    fn block(response: &Response) -> &str {
        let (_, block) = response.wire.split_once('\n').expect("a status line");
        assert!(!block.is_empty(), "a DATA block: {response:?}");
        block
    }

    #[test]
    fn dispatch_serves_every_verb_without_a_socket() {
        let daemon = daemon();
        assert_eq!(status(&daemon, "PING"), "OK pong");

        let alpha = send(&daemon, "PUT alpha", "schema alpha { C --a--> B1; }\n");
        assert!(alpha.status().starts_with("OK hash="), "{alpha:?}");
        assert!(alpha.status().ends_with("generation=1 strategy=full"));
        let beta = send(&daemon, "PUT beta", "schema beta { C --a--> B2; }\n");
        assert!(beta.status().ends_with("generation=2 strategy=incremental"));
        let again = send(&daemon, "PUT alpha", "schema alpha { C --a--> B1; }\n");
        assert!(again.status().ends_with("strategy=noop"), "{again:?}");

        let get = send(&daemon, "GET alpha", "");
        assert!(get.status().starts_with("DATA hash="));
        assert!(block(&get).starts_with("schema alpha {"));
        assert!(block(&get).ends_with("}\n.\n"));
        let merged = send(&daemon, "MERGED", "");
        assert!(merged.status().starts_with("DATA generation=2 hash="));
        assert!(block(&merged).contains("{B1,B2}"));
        assert!(block(&merged).contains("// implicit classes: 1\n"));
        let list = send(&daemon, "LIST", "");
        assert_eq!(list.status(), "DATA members=2");
        assert!(block(&list).starts_with("alpha hash="));
        assert_eq!(status(&daemon, "QUERY C.a"), "OK 1 result(s): {B1,B2}");

        let stats = send(&daemon, "STATS", "");
        assert_eq!(stats.status(), "DATA generation=2");
        assert!(block(&stats).contains("requests served"));
        let metrics = send(&daemon, "METRICS", "");
        assert!(metrics.status().starts_with("DATA bytes="));
        assert!(block(&metrics).contains("smerge_registry_generation 2\n"));
        assert!(status(&daemon, "HEALTH").starts_with("OK state=ok retries=0"));
        assert_eq!(
            status(&daemon, "SNAPSHOT"),
            "ERR registry was opened without a data dir or store"
        );

        assert_eq!(
            status(&daemon, "ATTACH sales"),
            "OK registry=sales registries=2"
        );
        let orders = send(
            &daemon,
            "PUT sales/orders",
            "schema orders { Order --item--> C; }\n",
        );
        assert!(orders.status().ends_with("generation=1 strategy=full"));
        let compose = status(&daemon, "COMPOSE");
        assert!(
            compose.starts_with("OK generation=3 strategy=full registries=2"),
            "{compose}"
        );
        let supergraph = send(&daemon, "SUPERGRAPH", "");
        assert!(supergraph
            .status()
            .starts_with("DATA generation=3 registries=2"));
        assert!(block(&supergraph).contains("registry sales generation=1 members=1\n"));
        assert!(block(&supergraph).contains("Order --item--> C;"));
        assert!(status(&daemon, "COMPOSE").contains("strategy=noop"));
        assert_eq!(
            status(&daemon, "DETACH sales"),
            "OK registry=sales registries=1"
        );

        assert_eq!(
            status(&daemon, "DELETE beta"),
            "OK generation=3 remaining=1 strategy=incremental"
        );
        let quit = send(&daemon, "QUIT", "");
        assert_eq!((quit.status(), quit.close), ("OK bye", true));
        assert!(!daemon.shutdown.load(Ordering::SeqCst));
        let shutdown = send(&daemon, "SHUTDOWN", "");
        assert_eq!(
            (shutdown.status(), shutdown.close),
            ("OK shutting down", true)
        );
        assert!(daemon.shutdown.load(Ordering::SeqCst));
        // Every dispatched request was counted, QUIT and SHUTDOWN too.
        assert_eq!(daemon.registry.stats().requests_served, 21);
    }

    #[test]
    fn dispatch_renders_every_error_path() {
        let daemon = daemon();
        send(&daemon, "PUT up", "schema up { A => B; }\n");

        // Unknown registry, unknown member, malformed member name.
        let unknown = "ERR [E-SG-UNKNOWN] no registry `billing` is attached";
        assert_eq!(
            send(&daemon, "PUT billing/x", "schema x {}\n").status(),
            unknown
        );
        assert_eq!(status(&daemon, "GET billing/x"), unknown);
        assert_eq!(status(&daemon, "DELETE billing/x"), unknown);
        assert_eq!(status(&daemon, "GET ghost"), "ERR no member named `ghost`");
        assert_eq!(
            status(&daemon, "DELETE ghost"),
            "ERR no member named `ghost`"
        );
        assert!(status(&daemon, "GET a/b/c").starts_with("ERR invalid member name `a/b/c`"));

        // A bad path query answers on one line: the usage error's message,
        // without the CLI usage text its `Display` appends.
        let bad_path = send(&daemon, "QUERY .a", "");
        assert_eq!(&*bad_path.wire, "ERR bad path `.a`: empty starting class\n");

        // Rejected, unmergeable, unparseable and empty payloads.
        let rejected = send(&daemon, "PUT down", "schema down { B => A; }\n");
        assert!(
            rejected
                .status()
                .starts_with("ERR publishing `down` rejected:"),
            "{rejected:?}"
        );
        let split = send(
            &daemon,
            "PUT split",
            "schema one { X => Y; }\nschema two { Y => X; }\n",
        );
        assert!(
            split
                .status()
                .starts_with("ERR payload does not merge [E-MERGE-INCOMPATIBLE]"),
            "{split:?}"
        );
        let broken = send(&daemon, "PUT broken", "schema broken {{{\n");
        assert!(
            broken.status().starts_with("ERR parse failed:"),
            "{broken:?}"
        );
        assert_eq!(
            send(&daemon, "PUT empty", "").status(),
            "ERR payload contains no schemas"
        );

        // Supergraph errors carry their stable codes.
        assert!(status(&daemon, "DETACH ghost").starts_with("ERR [E-SG-UNKNOWN]"));
        assert!(status(&daemon, "ATTACH sales").starts_with("OK"));
        assert!(status(&daemon, "ATTACH sales").starts_with("ERR [E-SG-DUPLICATE]"));
        assert!(status(&daemon, "ATTACH a/b").starts_with("ERR [E-SG-NAME]"));
        let cycle = send(&daemon, "PUT sales/down", "schema down { B => A; }\n");
        assert!(cycle.status().starts_with("OK"), "{cycle:?}");
        assert!(status(&daemon, "COMPOSE").starts_with("ERR [E-SG-COMPOSE]"));

        // None of it reached the view.
        assert_eq!(daemon.registry.len(), 1);
        assert!(send(&daemon, "MERGED", "")
            .status()
            .starts_with("DATA generation=1 "));
    }

    /// A specialization cycle inside one document of a payload is that
    /// document's parse error, named after its schema, even when the
    /// other documents are valid; nothing is published.
    #[test]
    fn put_reports_a_cycle_inside_one_document_as_its_parse_error() {
        let daemon = daemon();
        let cycle = send(
            &daemon,
            "PUT loop",
            "schema ok { X => Y; }\nschema loop { A => B; B => A; }\n",
        );
        assert_eq!(
            cycle.status(),
            "ERR parse failed: schema loop is invalid: \
             specialization relation is cyclic: A => B => A"
        );
        assert!(daemon.registry.is_empty());
    }

    /// A SUPERGRAPH reply carries every composition hint as a
    /// `hint[CODE] message` line, in the composed view's order.
    #[test]
    fn supergraph_reply_carries_every_composition_hint() {
        let daemon = daemon();
        for name in ["a", "b", "c"] {
            let attach = status(&daemon, &format!("ATTACH {name}"));
            assert!(attach.starts_with("OK"), "{attach}");
        }
        for (member, body) in [
            ("a/shared", "schema shared { C --f--> B1; }\n"),
            ("a/base", "schema base { Animal --alive--> bool; }\n"),
            ("a/y", "schema y { Q --h--> Y1; }\n"),
            ("b/shared", "schema shared { C --f--> B2; }\n"),
            ("b/mid", "schema mid { Dog => Animal; }\n"),
            ("b/y", "schema y { Q --h--> Y2; }\n"),
            ("c/leaf", "schema leaf { Puppy => Dog; }\n"),
            ("c/meet", "schema meet { X --g--> {Y1,Y2}; }\n"),
        ] {
            let put = send(&daemon, &format!("PUT {member}"), body);
            assert!(put.status().starts_with("OK"), "{member}: {put:?}");
        }
        assert!(status(&daemon, "COMPOSE").starts_with("OK"));
        let supergraph = send(&daemon, "SUPERGRAPH", "");
        assert!(supergraph.status().contains(" hints=4 "), "{supergraph:?}");
        let hints: Vec<&str> = block(&supergraph)
            .lines()
            .filter(|line| line.starts_with("hint["))
            .collect();
        assert_eq!(
            hints,
            [
                "hint[H-COMPOSE-COLLISION] member name `shared` is published by 2 registries; \
                 origins are namespaced as `a/shared`, `b/shared`",
                "hint[H-COMPOSE-COLLISION] member name `y` is published by 2 registries; \
                 origins are namespaced as `a/y`, `b/y`",
                "hint[H-COMPOSE-SPAN] implicit class `{B1,B2}` spans registries `a`, `b`",
                "hint[H-COMPOSE-SPECIALIZATION] cross-registry specialization: `Puppy` (`c`) \
                 is placed under `Animal` (`a`, `b`)",
            ]
        );
    }

    /// The daemon's own registry is reserved: detaching it would leave
    /// bare names committing to a registry COMPOSE drops, and attaching
    /// `default` again would split `default/x` from `x`.
    /// On a daemon with only its own registry, the composed view is the
    /// registry's committed view: after every PUT and COMPOSE, SUPERGRAPH
    /// reports the hash MERGED does.
    #[test]
    fn a_lone_registry_composes_to_its_merged_hash() {
        fn hash(response: &Response) -> &str {
            response
                .status()
                .split(' ')
                .find_map(|field| field.strip_prefix("hash="))
                .expect("a hash field")
        }
        let daemon = daemon();
        for (member, body) in [
            ("alpha", "schema alpha { C --a--> B1; }\n"),
            ("beta", "schema beta { C --a--> B2; Guide-dog => Dog; }\n"),
            ("alpha", "schema alpha { C --a--> B3; Dog --age--> int; }\n"),
        ] {
            let put = send(&daemon, &format!("PUT {member}"), body);
            assert!(put.status().starts_with("OK "), "{put:?}");
            let compose = status(&daemon, "COMPOSE");
            assert!(
                compose.contains(" strategy=incremental registries=1 "),
                "{compose}"
            );
            let merged = send(&daemon, "MERGED", "");
            let supergraph = send(&daemon, "SUPERGRAPH", "");
            assert_eq!(hash(&supergraph), hash(&merged), "after PUT {member}");
        }
    }

    #[test]
    fn dispatch_reserves_the_default_registry() {
        let daemon = daemon();
        for line in ["DETACH default", "ATTACH default"] {
            let response = status(&daemon, line);
            assert!(
                response.starts_with("ERR [E-SG-RESERVED] registry `default`"),
                "{line}: {response}"
            );
        }
        let put = send(&daemon, "PUT default/x", "schema x { X --f--> Y; }\n");
        assert!(put.status().starts_with("OK"), "{put:?}");
        assert!(status(&daemon, "GET x").starts_with("DATA"));
        let compose = status(&daemon, "COMPOSE");
        assert!(compose.contains("registries=1 classes=2"), "{compose}");
    }

    /// The reply cache's `[hits, misses]` for `verb`.
    fn lookups(daemon: &Daemon, verb: &str) -> [u64; 2] {
        let i = CACHED_VERBS.iter().position(|name| *name == verb).unwrap();
        daemon.metrics.replies[i]
            .each_ref()
            .map(|n| n.load(Ordering::Relaxed))
    }

    impl ReplyCache {
        /// GET replies kept, over every registry.
        fn get_entries(&self) -> usize {
            unpoisoned(&self.get).values().map(HashMap::len).sum()
        }
    }

    /// `name`'s GET reply rendered afresh from its registry, bypassing
    /// the cache.
    fn rendered_get(daemon: &Daemon, name: &str) -> Response {
        let (_, routed, member) = daemon.route_member(name).expect("a routable name");
        render_get(member, &routed.get(member).expect("a live member"))
    }

    /// MERGED is rendered once per generation: a repeat is the same
    /// bytes, a PUT moves the generation and the hash, and a no-op PUT
    /// moves neither, so the kept reply still serves.
    #[test]
    fn merged_replies_are_rendered_once_per_generation() {
        let daemon = daemon();
        send(&daemon, "PUT alpha", "schema alpha { C --a--> B1; }\n");
        let first = send(&daemon, "MERGED", "");
        let second = send(&daemon, "MERGED", "");
        assert_eq!(first.wire, second.wire);
        assert!(Arc::ptr_eq(&first.wire, &second.wire), "served as kept");
        assert_eq!(lookups(&daemon, "merged"), [1, 1]);
        assert_eq!(first.wire, render_merged(&daemon.registry.merged()).wire);

        send(&daemon, "PUT beta", "schema beta { C --a--> B2; }\n");
        let third = send(&daemon, "MERGED", "");
        assert_eq!(lookups(&daemon, "merged"), [1, 2]);
        let field = |reply: &Response, key: &str| {
            reply
                .status()
                .split(' ')
                .find_map(|word| word.strip_prefix(key))
                .unwrap()
                .to_string()
        };
        assert_eq!(
            (field(&first, "generation="), field(&third, "generation=")),
            ("1".to_string(), "2".to_string())
        );
        assert_ne!(field(&first, "hash="), field(&third, "hash="));
        assert!(block(&third).contains("{B1,B2}"));
        assert_eq!(third.wire, render_merged(&daemon.registry.merged()).wire);

        let noop = send(&daemon, "PUT beta", "schema beta { C --a--> B2; }\n");
        assert!(noop.status().ends_with("strategy=noop"), "{noop:?}");
        let fourth = send(&daemon, "MERGED", "");
        assert!(Arc::ptr_eq(&third.wire, &fourth.wire));
        assert_eq!(lookups(&daemon, "merged"), [2, 2]);
    }

    /// A GET is kept per member version: a republish, a delete and
    /// re-publish of the same content, and a detach and re-attach of
    /// the member's registry are each served as a fresh render would be.
    #[test]
    fn get_replies_follow_every_new_version() {
        let daemon = daemon();
        let v1 = "schema alpha { C --a--> B1; }\n";
        send(&daemon, "PUT alpha", v1);
        let first = send(&daemon, "GET alpha", "");
        assert!(first.status().starts_with("DATA hash="), "{first:?}");
        assert!(Arc::ptr_eq(
            &first.wire,
            &send(&daemon, "GET alpha", "").wire
        ));
        // `default/alpha` names the same member, and shares its entry.
        assert!(Arc::ptr_eq(
            &first.wire,
            &send(&daemon, "GET default/alpha", "").wire
        ));
        assert_eq!(lookups(&daemon, "get"), [2, 1]);

        // Other content, then the first again with no GET between: the
        // kept reply has the current hash, but an older version.
        let v2 = "schema alpha { C --a--> B2; }\n";
        send(&daemon, "PUT alpha", v2);
        send(&daemon, "PUT alpha", v1);
        let back = send(&daemon, "GET alpha", "");
        assert!(
            back.status().ends_with(" sequence=3 generation=3"),
            "{back:?}"
        );
        assert_eq!(block(&back), block(&first));

        send(&daemon, "PUT alpha", v2);
        let republished = send(&daemon, "GET alpha", "");
        assert!(republished.status().ends_with(" sequence=4 generation=4"));
        assert!(block(&republished).contains("C --a--> B2;"));
        assert_eq!(republished.wire, rendered_get(&daemon, "alpha").wire);

        // Delete, then publish the first content again: the same hash
        // and sequence as the first version, at a new generation.
        assert!(status(&daemon, "DELETE alpha").starts_with("OK"));
        assert_eq!(status(&daemon, "GET alpha"), "ERR no member named `alpha`");
        send(&daemon, "PUT alpha", v1);
        let again = send(&daemon, "GET alpha", "");
        assert!(
            again.status().ends_with(" sequence=1 generation=6"),
            "{again:?}"
        );
        assert_eq!(block(&again), block(&first));
        assert_eq!(again.wire, rendered_get(&daemon, "alpha").wire);

        // Detach, re-attach under the same name, and publish there again.
        assert!(status(&daemon, "ATTACH sales").starts_with("OK"));
        let orders = "schema orders { Order --item--> C; }\n";
        send(&daemon, "PUT sales/orders", orders);
        send(
            &daemon,
            "PUT sales/orders",
            "schema orders { Order --qty--> int; }\n",
        );
        let before = send(&daemon, "GET sales/orders", "");
        assert!(before.status().contains(" sequence=2 "), "{before:?}");
        assert!(status(&daemon, "DETACH sales").starts_with("OK"));
        assert!(status(&daemon, "GET sales/orders").starts_with("ERR [E-SG-UNKNOWN]"));
        assert!(status(&daemon, "ATTACH sales").starts_with("OK"));
        send(&daemon, "PUT sales/orders", orders);
        let after = send(&daemon, "GET sales/orders", "");
        assert!(
            after.status().ends_with(" sequence=1 generation=1"),
            "{after:?}"
        );
        assert!(block(&after).contains("Order --item--> C;"));
        assert_eq!(after.wire, rendered_get(&daemon, "sales/orders").wire);
    }

    /// DELETE and DETACH drop the GET replies they make unreachable, so
    /// the cache never holds more entries than there are live members.
    #[test]
    fn get_entries_never_outnumber_live_members() {
        let daemon = daemon();
        assert!(status(&daemon, "ATTACH sales").starts_with("OK"));
        let members = ["a", "b", "sales/x", "sales/y"];
        for name in members {
            let member = name.rsplit('/').next().unwrap();
            send(
                &daemon,
                &format!("PUT {name}"),
                &format!("schema {member} {{ {member} --f--> T; }}\n"),
            );
            send(&daemon, &format!("GET {name}"), "");
        }
        assert_eq!(daemon.replies.get_entries(), 4);
        assert!(status(&daemon, "DELETE a").starts_with("OK"));
        assert_eq!(daemon.replies.get_entries(), 3);
        assert!(status(&daemon, "DELETE sales/x").starts_with("OK"));
        assert_eq!(daemon.replies.get_entries(), 2);
        assert!(status(&daemon, "DETACH sales").starts_with("OK"));
        assert_eq!(daemon.replies.get_entries(), 1);
        assert_eq!(daemon.registry.len(), 1);
        assert!(status(&daemon, "GET a").starts_with("ERR"));
        assert_eq!(daemon.replies.get_entries(), 1);
    }

    /// A reader whose cache lock was poisoned by a panicking thread is
    /// still served.
    #[test]
    fn poisoned_reply_cache_still_serves() {
        let daemon = daemon();
        send(&daemon, "PUT alpha", "schema alpha { C --a--> B1; }\n");
        let merged = send(&daemon, "MERGED", "");
        let get = send(&daemon, "GET alpha", "");
        std::thread::scope(|scope| {
            let merged_lock = scope.spawn(|| {
                let _guard = daemon.replies.merged.lock();
                panic!("poisons the MERGED reply lock");
            });
            assert!(merged_lock.join().is_err());
            let get_lock = scope.spawn(|| {
                let _guard = daemon.replies.get.lock();
                panic!("poisons the GET reply lock");
            });
            assert!(get_lock.join().is_err());
        });
        assert!(daemon.replies.merged.is_poisoned() && daemon.replies.get.is_poisoned());
        assert_eq!(send(&daemon, "MERGED", "").wire, merged.wire);
        assert_eq!(send(&daemon, "GET alpha", "").wire, get.wire);
        send(&daemon, "PUT beta", "schema beta { C --a--> B2; }\n");
        assert!(send(&daemon, "MERGED", "")
            .status()
            .starts_with("DATA generation=2 "));
    }

    /// One thread publishes while two others read MERGED: every reply's
    /// hash is the view hash of the generation it names, so no reader is
    /// ever sent a superseded generation's bytes under a newer header,
    /// or the reverse.
    #[test]
    fn merged_replies_under_concurrent_puts_name_their_own_generation() {
        const PUTS: usize = 24;
        let daemon = daemon();
        let body = |i: usize| format!("schema m{i} {{ C --a--> B{i}; D{i} => D; }}\n");
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        let seen: Vec<(u64, String)> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        start.wait();
                        while !done.load(Ordering::SeqCst) {
                            let reply = send(&daemon, "MERGED", "");
                            let words: Vec<&str> = reply.status().split(' ').collect();
                            let generation = words[1].strip_prefix("generation=").unwrap();
                            let hash = words[2].strip_prefix("hash=").unwrap();
                            seen.push((generation.parse().unwrap(), hash.to_string()));
                        }
                        seen
                    })
                })
                .collect();
            start.wait();
            for i in 0..PUTS {
                let put = send(&daemon, &format!("PUT m{i}"), &body(i));
                assert!(put.status().starts_with("OK"), "{put:?}");
            }
            done.store(true, Ordering::SeqCst);
            readers
                .into_iter()
                .flat_map(|reader| reader.join().unwrap())
                .collect()
        });
        assert!(!seen.is_empty());
        let schemas: Vec<WeakSchema> = (0..PUTS)
            .map(|i| parse_document(&body(i)).unwrap()[0].schema.schema().clone())
            .collect();
        let expected: Vec<String> = (0..=PUTS)
            .map(|g| {
                let view = Merger::new().schemas(&schemas[..g]).execute().unwrap();
                format!("{:016x}", view.proper.content_hash())
            })
            .collect();
        for (generation, hash) in &seen {
            assert_eq!(
                hash, &expected[*generation as usize],
                "generation {generation}"
            );
        }
    }

    /// Two PUTs whose payloads together pass the daemon's PUT budget: the
    /// one whose line would pass it gets `E-BUSY` and is closed, the
    /// other is published, and the budget is whole again afterwards.
    #[test]
    fn concurrent_puts_over_the_payload_budget_get_e_busy() {
        let daemon = daemon();
        let transport = Transport::new(8, 4096);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (BufReader::new(stream.try_clone().unwrap()), stream)
        };
        let reply = |reader: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        // Each payload's comment line takes 3,000 of the 4,096 bytes.
        let padding = format!("// {}\n", "x".repeat(2996));
        std::thread::scope(|scope| {
            scope.spawn(|| serve_connections(&listener, addr, &daemon, &transport, None));

            let (mut first_reader, mut first) = connect();
            first
                .write_all(
                    format!("PUT first\nschema first {{ C --a--> B1; }}\n{padding}").as_bytes(),
                )
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while transport.put_bytes.load(Ordering::SeqCst) < padding.len() {
                assert!(Instant::now() < deadline, "the first payload never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }

            let (mut second_reader, mut second) = connect();
            second
                .write_all(
                    format!("PUT second\nschema second {{ C --a--> B2; }}\n{padding}.\n")
                        .as_bytes(),
                )
                .unwrap();
            let busy = reply(&mut second_reader);
            assert!(busy.starts_with("ERR [E-BUSY] "), "{busy}");
            assert_eq!(reply(&mut second_reader), "", "closed after E-BUSY");

            first.write_all(b".\n").unwrap();
            let ok = reply(&mut first_reader);
            assert!(ok.starts_with("OK hash="), "{ok}");
            assert_eq!(transport.put_bytes.load(Ordering::SeqCst), 0);

            first.write_all(b"SHUTDOWN\n").unwrap();
            assert_eq!(reply(&mut first_reader), "OK shutting down\n");
        });
        assert!(daemon.registry.get("first").is_some());
        assert!(daemon.registry.get("second").is_none());
    }

    /// Every label the transport loop can record under is one
    /// `RequestMetrics` keeps a histogram for — `record` silently drops
    /// any other — and every histogram belongs to some verb.
    #[test]
    fn every_verb_label_is_a_timed_verb() {
        let name = || "x".to_string();
        let commands = [
            Command::Put(name()),
            Command::Get(name()),
            Command::Delete(name()),
            Command::Merged,
            Command::Stats,
            Command::Metrics,
            Command::List,
            Command::Query(name()),
            Command::Attach(name()),
            Command::Detach(name()),
            Command::Compose,
            Command::Supergraph,
            Command::Snapshot,
            Command::Health,
            Command::Ping,
            Command::Shutdown,
            Command::Quit,
        ];
        let labels: Vec<&str> = commands.iter().filter_map(verb_label).collect();
        for label in &labels {
            assert!(TIMED_VERBS.contains(label), "`{label}` is never recorded");
        }
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut timed = TIMED_VERBS.to_vec();
        timed.sort_unstable();
        assert_eq!(sorted, timed);
    }

    /// The value of `name`'s unlabeled sample line in a METRICS block.
    fn sample(metrics: &str, name: &str) -> String {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no `{name}` sample in:\n{metrics}"))
            .to_string()
    }

    /// HEALTH, the STATS `health:` line and METRICS all render from one
    /// `RegistryStats`, so they report the same numbers while the
    /// registry is degraded and again once it heals.
    #[test]
    fn status_verbs_agree_through_degrade_and_heal() {
        use schema_merge_registry::storage::{
            Fault, FaultSchedule, FaultStore, MemoryStore, OpKind,
        };

        let schedule = FaultSchedule::new(3);
        let store = FaultStore::new(
            MemoryStore::new(),
            schedule
                .clone()
                .always_after(OpKind::Append, 0, Fault::Transient),
        );
        let registry = Registry::builder()
            .store(store)
            .retry_policy(
                RetryPolicy::new(1)
                    .initial_backoff(Duration::from_millis(1))
                    .max_backoff(Duration::from_millis(1)),
            )
            .open()
            .unwrap();
        let daemon = Daemon::new(registry);

        // The first append fails, its one retry fails too: degraded.
        let put = send(&daemon, "PUT alpha", "schema alpha { C --a--> B1; }\n");
        assert!(put.status().starts_with("ERR "), "{put:?}");
        let health = status(&daemon, "HEALTH");
        assert!(
            health.starts_with(
                "OK state=degraded retries=1 degrade_events=1 heal_events=0 \
                 faults_injected=2 torn_appends=0 last_error="
            ),
            "{health}"
        );
        let stats = send(&daemon, "STATS", "");
        assert!(
            block(&stats).contains("\nhealth: degraded (read-only), 1 storage retries\n"),
            "{stats:?}"
        );
        let metrics = send(&daemon, "METRICS", "");
        let metrics = block(&metrics);
        assert_eq!(sample(metrics, "smerge_degraded"), "1");
        assert_eq!(sample(metrics, "smerge_storage_retry_total"), "1");
        assert_eq!(sample(metrics, "smerge_fault_injected_total"), "2");
        assert_eq!(sample(metrics, "smerge_fault_torn_appends_total"), "0");

        // The disk comes back; one probe heals, and all three say so.
        schedule.clear();
        assert!(daemon.registry.probe_now());
        let health = status(&daemon, "HEALTH");
        assert!(
            health.starts_with(
                "OK state=ok retries=1 degrade_events=1 heal_events=1 \
                 faults_injected=2 torn_appends=0 last_error="
            ),
            "{health}"
        );
        let stats = send(&daemon, "STATS", "");
        assert!(
            block(&stats).contains("\nhealth: ok, 1 storage retries\n"),
            "{stats:?}"
        );
        let metrics = send(&daemon, "METRICS", "");
        let metrics = block(&metrics);
        assert_eq!(sample(metrics, "smerge_degraded"), "0");
        assert_eq!(sample(metrics, "smerge_storage_retry_total"), "1");
        assert_eq!(sample(metrics, "smerge_fault_injected_total"), "2");
        let put = send(&daemon, "PUT alpha", "schema alpha { C --a--> B1; }\n");
        assert!(put.status().starts_with("OK "), "{put:?}");
    }
}
