//! End-to-end smoke test of the registry daemon: spawns the real
//! `smerge serve` binary on an ephemeral port, drives PUT / MERGED /
//! QUERY / STATS through the real `smerge client` binary, hammers the
//! daemon with ≥4 *simultaneously open* raw connections, and shuts it
//! down cleanly.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Kills the daemon on panic so failed tests don't leak processes.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(preload: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smerge"))
        .args(["serve", "--port", "0", "--threads", "4"])
        .args(preload)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("announcement line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
        .to_string();
    Daemon {
        child,
        stdout: reader,
        addr,
    }
}

/// Runs `smerge client <addr> <args…>`, returning (success, combined output).
fn client(addr: &str, args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_smerge"))
        .arg("client")
        .arg(addr)
        .args(args)
        .output()
        .expect("client runs");
    let mut text = String::from_utf8_lossy(&output.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&output.stderr));
    (output.status.success(), text)
}

fn write_temp(name: &str, contents: &str) -> String {
    let dir = std::env::temp_dir().join("smerge-serve-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

fn wait_for_exit(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return Some(status);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn daemon_serves_puts_merges_queries_and_shuts_down() {
    let f1 = write_temp("one.sm", "schema one { C --a--> B1; }");
    let f2 = write_temp("two.sm", "schema two { C --a--> B2; Guide => C; }");
    let bad = write_temp("bad.sm", "schema broken {{{");

    let mut daemon = spawn_daemon(&[]);
    let addr = daemon.addr.clone();

    // PUT two members through the real client binary.
    let (ok, text) = client(&addr, &["put", "alpha", &f1]);
    assert!(ok, "{text}");
    assert!(
        text.contains("hash=") && text.contains("sequence=1"),
        "{text}"
    );
    let (ok, text) = client(&addr, &["put", "beta", &f2]);
    assert!(ok, "{text}");
    assert!(text.contains("generation=2"), "{text}");

    // Republishing identical content is a no-op.
    let (ok, text) = client(&addr, &["put", "alpha", &f1]);
    assert!(ok, "{text}");
    assert!(text.contains("strategy=noop"), "{text}");

    // An unparseable payload is an ERR → nonzero client exit.
    let (ok, text) = client(&addr, &["put", "gamma", &bad]);
    assert!(!ok, "{text}");
    assert!(text.contains("parse failed"), "{text}");

    // MERGED carries the canonical view with the implicit class.
    let (ok, text) = client(&addr, &["merged"]);
    assert!(ok, "{text}");
    assert!(text.contains("schema merged {"), "{text}");
    assert!(text.contains("{B1,B2}"), "{text}");
    assert!(text.contains("// implicit classes: 1"), "{text}");

    // QUERY answers in schema space: C.a reaches the implicit meet.
    let (ok, text) = client(&addr, &["query", "C.a"]);
    assert!(ok, "{text}");
    assert!(text.contains("{B1,B2}"), "{text}");

    // STATS reflects the commits and the service uptime/request line.
    let (ok, text) = client(&addr, &["stats"]);
    assert!(ok, "{text}");
    assert!(text.contains("generation 2 | members 2"), "{text}");
    assert!(text.contains("merges:"), "{text}");
    assert!(text.contains("requests served"), "{text}");

    // METRICS exposes Prometheus-style text: commit-latency and per-verb
    // request-latency summaries with quantile lines.
    let (ok, text) = client(&addr, &["metrics"]);
    assert!(ok, "{text}");
    assert!(
        text.contains("# TYPE smerge_registry_commit_seconds summary"),
        "{text}"
    );
    assert!(
        text.contains("smerge_registry_commit_seconds{quantile=\"0.5\"}"),
        "{text}"
    );
    assert!(
        text.contains("smerge_registry_commit_seconds{quantile=\"0.99\"}"),
        "{text}"
    );
    assert!(
        text.contains("smerge_registry_commit_seconds_count 2"),
        "{text}"
    );
    assert!(
        text.contains("smerge_request_seconds{verb=\"put\",quantile=\"0.5\"}"),
        "{text}"
    );
    assert!(
        text.contains("smerge_request_seconds{verb=\"stats\",quantile=\"0.99\"}"),
        "{text}"
    );
    assert!(text.contains("smerge_requests_total"), "{text}");
    assert!(text.contains("smerge_uptime_seconds"), "{text}");
    assert!(text.contains("smerge_registry_generation 2"), "{text}");
    assert!(text.contains("smerge_registry_members 2"), "{text}");
    assert!(text.contains("smerge_storage_retry_total 0"), "{text}");
    assert!(text.contains("smerge_degraded 0"), "{text}");

    // HEALTH reports the resilience state: healthy, no retries, no
    // degrade/heal transitions yet.
    let (ok, text) = client(&addr, &["health"]);
    assert!(ok, "{text}");
    assert!(text.contains("state=ok"), "{text}");
    assert!(text.contains("retries=0"), "{text}");
    assert!(
        text.contains("degrade_events=0") && text.contains("heal_events=0"),
        "{text}"
    );

    // GET / LIST / DELETE round out the surface.
    let (ok, text) = client(&addr, &["get", "alpha"]);
    assert!(ok, "{text}");
    assert!(text.contains("schema alpha {"), "{text}");
    let (ok, text) = client(&addr, &["list"]);
    assert!(ok, "{text}");
    assert!(text.contains("alpha") && text.contains("beta"), "{text}");
    let (ok, text) = client(&addr, &["delete", "beta"]);
    assert!(ok, "{text}");
    let (ok, text) = client(&addr, &["query", "C.a"]);
    assert!(ok, "{text}");
    assert!(
        !text.contains("{B1,B2}"),
        "beta's contribution gone: {text}"
    );
    let (ok, _) = client(&addr, &["put", "beta", &f2]);
    assert!(ok);

    // ≥4 connections held open and served simultaneously: every thread
    // must receive its response while all four connections are up.
    let barrier = Arc::new(Barrier::new(4));
    std::thread::scope(|scope| {
        for i in 0..4 {
            let barrier = Arc::clone(&barrier);
            let addr = addr.clone();
            scope.spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connects");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                barrier.wait(); // all four connections open
                writeln!(writer, "PING").unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line.trim(), "OK pong", "connection {i}");
                // Hold the connection open until everyone has been served:
                // four connection threads answering at once prove 4-way
                // concurrency.
                barrier.wait();
                writeln!(writer, "QUIT").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line.trim(), "OK bye", "connection {i}");
            });
        }
    });

    // Concurrent publishes from several client processes converge.
    std::thread::scope(|scope| {
        for i in 0..4 {
            let addr = addr.clone();
            scope.spawn(move || {
                let file = write_temp(
                    &format!("extra-{i}.sm"),
                    &format!("schema extra {{ Extra{i} --f--> T; }}"),
                );
                let (ok, text) = client(&addr, &["put", &format!("extra-{i}"), &file]);
                assert!(ok, "{text}");
            });
        }
    });
    let (ok, text) = client(&addr, &["merged"]);
    assert!(ok, "{text}");
    for i in 0..4 {
        assert!(text.contains(&format!("Extra{i}")), "{text}");
    }

    // Clean shutdown: the client call succeeds, the daemon exits 0 and
    // prints its closing line.
    let (ok, text) = client(&addr, &["shutdown"]);
    assert!(ok, "{text}");
    let status = wait_for_exit(&mut daemon.child, Duration::from_secs(30))
        .expect("daemon exits after SHUTDOWN");
    assert!(status.success(), "daemon exit: {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut daemon.stdout, &mut rest).unwrap();
    assert!(rest.contains("shutdown complete"), "{rest}");
}

#[test]
fn daemon_preloads_members_and_rejects_incompatible_publish() {
    let seed = write_temp(
        "seed.sm",
        "schema pets { Dog --owner--> Person; }\nschema kinds { Guide-dog => Dog; }",
    );
    let hostile = write_temp("hostile.sm", "schema h { Dog => Guide-dog; }");

    let mut daemon = spawn_daemon(&[&seed]);
    let addr = daemon.addr.clone();

    let (ok, text) = client(&addr, &["list"]);
    assert!(ok, "{text}");
    assert!(text.contains("pets") && text.contains("kinds"), "{text}");

    // A publish that would create a specialization cycle is rejected and
    // the view stays intact.
    let (ok, text) = client(&addr, &["put", "rogue", &hostile]);
    assert!(!ok, "{text}");
    assert!(text.contains("rejected"), "{text}");
    let (ok, text) = client(&addr, &["stats"]);
    assert!(ok, "{text}");
    assert!(text.contains("1 rejected"), "{text}");
    let (ok, text) = client(&addr, &["query", "Dog.owner"]);
    assert!(ok, "{text}");
    assert!(text.contains("Person"), "{text}");

    let (ok, _) = client(&addr, &["shutdown"]);
    assert!(ok);
    let status = wait_for_exit(&mut daemon.child, Duration::from_secs(30))
        .expect("daemon exits after SHUTDOWN");
    assert!(status.success());
}

#[test]
fn daemon_trace_log_captures_request_and_commit_spans() {
    let f1 = write_temp("trace-one.sm", "schema one { C --a--> B1; }");
    let trace_path = std::env::temp_dir()
        .join("smerge-serve-smoke")
        .join("trace.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    let trace_arg = trace_path.to_string_lossy().into_owned();

    let mut daemon = spawn_daemon(&["--trace-log", &trace_arg]);
    let addr = daemon.addr.clone();

    let (ok, text) = client(&addr, &["put", "alpha", &f1]);
    assert!(ok, "{text}");
    let (ok, text) = client(&addr, &["merged"]);
    assert!(ok, "{text}");

    let (ok, _) = client(&addr, &["shutdown"]);
    assert!(ok);
    let status = wait_for_exit(&mut daemon.child, Duration::from_secs(30))
        .expect("daemon exits after SHUTDOWN");
    assert!(status.success());

    // One Chrome trace-event JSON line per span: the per-request root
    // spans plus the registry's nested commit phases.
    let log = std::fs::read_to_string(&trace_path).expect("trace log written");
    assert!(!log.trim().is_empty(), "trace log has events");
    for line in log.lines() {
        assert!(line.starts_with("{\"name\":\""), "JSONL line: {line}");
        assert!(line.contains("\"ph\":\"X\""), "complete event: {line}");
    }
    assert!(log.contains("\"name\":\"put\""), "{log}");
    assert!(log.contains("\"name\":\"commit\""), "{log}");
    assert!(log.contains("\"name\":\"plan\""), "{log}");
    assert!(log.contains("\"name\":\"execute\""), "{log}");
    assert!(log.contains("\"name\":\"merged\""), "{log}");
}

#[test]
fn daemon_federates_attach_compose_supergraph_and_detach() {
    let inventory = write_temp(
        "fed-inventory.sm",
        "schema parts { Part --price--> money; }",
    );
    let orders = write_temp("fed-orders.sm", "schema orders { Order --item--> Part; }");

    let mut daemon = spawn_daemon(&[]);
    let addr = daemon.addr.clone();

    // A bare PUT routes to the daemon's default registry, which is
    // attached to the supergraph from the start.
    let (ok, text) = client(&addr, &["put", "parts", &inventory]);
    assert!(ok, "{text}");

    // ATTACH a second registry and publish into it with namespaced
    // `registry/member` routing.
    let (ok, text) = client(&addr, &["attach", "sales"]);
    assert!(ok, "{text}");
    assert!(text.contains("registry=sales registries=2"), "{text}");
    let (ok, text) = client(&addr, &["put", "sales/orders", &orders]);
    assert!(ok, "{text}");
    assert!(text.contains("sequence=1"), "{text}");

    // A PUT naming an unattached registry is a protocol error with the
    // stable supergraph code.
    let (ok, text) = client(&addr, &["put", "billing/invoices", &orders]);
    assert!(!ok, "{text}");
    assert!(text.contains("E-SG-UNKNOWN"), "{text}");
    assert!(text.contains("no registry `billing`"), "{text}");

    // COMPOSE merges both registries' views.
    let (ok, text) = client(&addr, &["compose"]);
    assert!(ok, "{text}");
    assert!(text.contains("strategy=full"), "{text}");
    assert!(text.contains("registries=2 classes=3 arrows=2"), "{text}");

    // SUPERGRAPH dumps the composed view: contributions + schema.
    let (ok, text) = client(&addr, &["supergraph"]);
    assert!(ok, "{text}");
    assert!(
        text.contains("registry default generation=1 members=1"),
        "{text}"
    );
    assert!(
        text.contains("registry sales generation=1 members=1"),
        "{text}"
    );
    assert!(text.contains("Order --item--> Part;"), "{text}");
    assert!(text.contains("Part --price--> money;"), "{text}");

    // Composing again with nothing changed is a noop.
    let (ok, text) = client(&addr, &["compose"]);
    assert!(ok, "{text}");
    assert!(text.contains("strategy=noop"), "{text}");

    // ATTACH of a duplicate name is rejected.
    let (ok, text) = client(&addr, &["attach", "sales"]);
    assert!(!ok, "{text}");
    assert!(text.contains("E-SG-DUPLICATE"), "{text}");

    // The daemon's own registry is reserved: it can be neither detached
    // (bare names would still commit to it, but COMPOSE would drop it)
    // nor attached again (a second registry would shadow it).
    for verb in ["detach", "attach"] {
        let (ok, text) = client(&addr, &[verb, "default"]);
        assert!(!ok, "{verb} default: {text}");
        assert!(text.contains("E-SG-RESERVED"), "{verb} default: {text}");
    }
    let (ok, text) = client(&addr, &["get", "default/parts"]);
    assert!(ok, "default/ still names the daemon's registry: {text}");

    // DETACH drops the registry's contribution from the next compose…
    let (ok, text) = client(&addr, &["detach", "sales"]);
    assert!(ok, "{text}");
    assert!(text.contains("registries=1"), "{text}");
    let (ok, text) = client(&addr, &["compose"]);
    assert!(ok, "{text}");
    assert!(text.contains("classes=2 arrows=1"), "{text}");

    // …and a detached namespace no longer routes.
    let (ok, text) = client(&addr, &["put", "sales/orders", &orders]);
    assert!(!ok, "{text}");
    assert!(text.contains("E-SG-UNKNOWN"), "{text}");
    let (ok, text) = client(&addr, &["detach", "sales"]);
    assert!(!ok, "{text}");
    assert!(text.contains("E-SG-UNKNOWN"), "{text}");

    // The compose latency histogram rides in METRICS.
    let (ok, text) = client(&addr, &["metrics"]);
    assert!(ok, "{text}");
    assert!(text.contains("smerge_compose_seconds"), "{text}");
    assert!(text.contains("smerge_supergraph_registries 1"), "{text}");
    assert!(text.contains("smerge_composes_noop_total 1"), "{text}");

    let (ok, _) = client(&addr, &["shutdown"]);
    assert!(ok);
    let status = wait_for_exit(&mut daemon.child, Duration::from_secs(30))
        .expect("daemon exits after SHUTDOWN");
    assert!(status.success());
}

/// The fixed request script of the wire transcript: one request line
/// each, followed by its payload block for `PUT`.
const WIRE_SCRIPT: &[&str] = &[
    "PING",
    "PUT alpha\nschema alpha { C --a--> B1; Guide-dog => Dog; }\n.",
    "PUT beta\nschema beta { C --a--> B2; Dog --age--> int; }\n.",
    "PUT alpha\nschema alpha { C --a--> B1; Guide-dog => Dog; }\n.",
    "GET alpha",
    "GET missing",
    "GET a/b/c",
    "MERGED",
    "LIST",
    "QUERY C.a",
    "QUERY .a",
    "DELETE beta",
    "DELETE beta",
    "PUT beta\nschema beta { C --a--> B2; Dog --age--> int; }\n.",
    "ATTACH sales",
    "PUT sales/orders\nschema orders { Order --item--> Part; }\n.",
    "GET sales/orders",
    "PUT billing/invoices\nschema invoices { Invoice --of--> Order; }\n.",
    "COMPOSE",
    "SUPERGRAPH",
    "COMPOSE",
    "PUT rogue\nschema rogue { Dog => Guide-dog; }\n.",
    "PUT split\nschema one { A => B; }\nschema two { B => A; }\n.",
    "PUT broken\nschema broken {{{\n.",
    "FROB x",
    "MERGED now",
    "SNAPSHOT",
    "STATS",
    "METRICS",
    "HEALTH",
    "PING",
    "QUIT",
];

/// Replaces every run of ASCII digits with `#`: `STATS`, `METRICS` and
/// `HEALTH` carry times and latencies, so the transcript pins their
/// status line and key set only.
fn mask_numbers(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if c.is_ascii_digit() {
            if !out.ends_with('#') {
                out.push('#');
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Drives [`WIRE_SCRIPT`] over one TCP connection and compares every
/// response, byte for byte, with the checked-in transcript: the proof
/// that the wire protocol did not change.
///
/// Each request is followed by an unknown-verb sentinel line, and the
/// response is everything read before the sentinel's error: a response
/// that breaks the one-line framing is captured whole instead of
/// desynchronizing the rest of the script. Unparseable lines touch no
/// counter, so the sentinels leave `STATS` and `METRICS` unchanged.
#[test]
fn daemon_wire_transcript_matches_the_checked_in_bytes() {
    const SENTINEL: &str = "END";
    let sentinel_reply = format!("ERR unknown command `{SENTINEL}`\n");
    let daemon = spawn_daemon(&[]);
    let stream = TcpStream::connect(&daemon.addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut transcript = String::new();
    for request in WIRE_SCRIPT {
        // QUIT closes the connection: read its reply up to end of input.
        let quit = *request == "QUIT";
        let sentinel = if quit {
            String::new()
        } else {
            format!("{SENTINEL}\n")
        };
        writer
            .write_all(format!("{request}\n{sentinel}").as_bytes())
            .expect("request sent");
        let mut response = String::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("a response line") == 0 {
                assert!(quit, "connection closed after `{request}`");
                break;
            }
            if !quit && line == sentinel_reply {
                break;
            }
            response.push_str(&line);
        }
        let verb = request.split_whitespace().next().unwrap_or_default();
        if matches!(verb, "STATS" | "METRICS" | "HEALTH") {
            response = mask_numbers(&response);
        }
        for line in request.lines() {
            transcript.push_str(&format!("> {line}\n"));
        }
        for line in response.split_inclusive('\n') {
            transcript.push_str(&format!("< {line}"));
        }
    }

    let expected = include_str!("wire_transcript.txt");
    if transcript != expected {
        let actual = std::env::temp_dir()
            .join("smerge-serve-smoke")
            .join("wire_transcript.actual");
        std::fs::create_dir_all(actual.parent().unwrap()).unwrap();
        std::fs::write(&actual, &transcript).unwrap();
        let first = transcript
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| transcript.lines().count().min(expected.lines().count()));
        panic!(
            "wire transcript differs from line {} on; actual written to {}",
            first + 1,
            actual.display()
        );
    }
}

/// Every reply leaves in one write on a `TCP_NODELAY` socket, so a
/// persistent connection pays no per-request floor: a reply split into
/// a status write and a block write used to wait ~40 ms under Nagle's
/// algorithm for the client's delayed ACK, ~8.8 s for these 200 GETs.
#[test]
fn daemon_answers_sequential_gets_on_one_connection_without_a_floor() {
    let doc = write_temp("floor.sm", "schema floor { C --a--> B1; Guide => C; }");
    let daemon = spawn_daemon(&[&doc]);
    let stream = TcpStream::connect(&daemon.addr).expect("connects");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let started = Instant::now();
    for _ in 0..200 {
        writer.write_all(b"GET floor\n").expect("request sent");
        let mut status = String::new();
        reader.read_line(&mut status).expect("a status line");
        assert!(status.starts_with("DATA hash="), "{status}");
        // The block ends at a lone `.` line.
        let mut line = String::new();
        while line != ".\n" {
            line.clear();
            assert!(reader.read_line(&mut line).expect("a block line") > 0);
        }
    }
    // Without the floor this takes well under a second even on a debug
    // build; the bound leaves room for a loaded machine while staying far
    // below the floored figure.
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "200 GETs on one connection took {elapsed:?}"
    );
}

#[test]
fn daemon_rejects_over_long_lines_with_e_limit() {
    // One byte past the daemon's 1 MiB line cap.
    let oversized = "x".repeat((1 << 20) + 1);
    let daemon = spawn_daemon(&[]);

    // An over-long request line, and an over-long line inside a PUT
    // payload: each is answered with the stable E-LIMIT error, then the
    // connection is closed.
    for request in [
        format!("PING {oversized}\n"),
        format!("PUT alpha\nschema alpha {{ {oversized} }}\n.\n"),
    ] {
        let stream = TcpStream::connect(&daemon.addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(request.as_bytes()).expect("request sent");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("an error line");
        assert!(
            line.starts_with("ERR [E-LIMIT]"),
            "over-long line rejected: {line}"
        );
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap_or(0),
            0,
            "connection closed after E-LIMIT: {line}"
        );
    }

    // The daemon is unharmed: a fresh connection is served, and nothing
    // was published.
    let stream = TcpStream::connect(&daemon.addr).expect("connects");
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "PING").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK pong");
    let (ok, text) = client(&daemon.addr, &["get", "alpha"]);
    assert!(!ok, "the rejected PUT published nothing: {text}");
}

/// A raw connection to `addr` whose reads give up after `timeout`.
fn connect(addr: &str, timeout: Duration) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(timeout)).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// Sends `request` on `conn` and reads one status line; `""` once the
/// daemon has closed the connection.
fn ask(conn: &mut (BufReader<TcpStream>, TcpStream), request: &str) -> String {
    conn.1
        .write_all(format!("{request}\n").as_bytes())
        .expect("request sent");
    let mut line = String::new();
    conn.0.read_line(&mut line).expect("a reply in time");
    line
}

/// An idle connection costs the daemon a parked thread, not a place in
/// a queue: with 64 of them open, a PING on a new connection is answered
/// at once.
#[test]
fn daemon_answers_a_ping_while_64_idle_connections_are_open() {
    let daemon = spawn_daemon(&[]);
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&daemon.addr).expect("connects"))
        .collect();
    let started = Instant::now();
    let mut conn = connect(&daemon.addr, Duration::from_secs(3));
    let pong = ask(&mut conn, "PING");
    let elapsed = started.elapsed();
    assert_eq!(pong, "OK pong\n");
    assert!(
        elapsed < Duration::from_millis(100),
        "PING took {elapsed:?} with {} idle connections open",
        idle.len()
    );
}

/// SHUTDOWN closes the read half of every other connection, so an idle
/// client neither keeps the daemon running nor waits out the 120 s read
/// timeout: it reads end of input and the daemon exits at once.
#[test]
fn daemon_shutdown_does_not_wait_for_an_idle_client() {
    let mut daemon = spawn_daemon(&[]);
    let mut idle = connect(&daemon.addr, Duration::from_secs(10));
    assert_eq!(ask(&mut idle, "PING"), "OK pong\n");

    let mut control = connect(&daemon.addr, Duration::from_secs(10));
    assert_eq!(ask(&mut control, "SHUTDOWN"), "OK shutting down\n");
    let status = wait_for_exit(&mut daemon.child, Duration::from_secs(1))
        .expect("daemon exits within 1 s of SHUTDOWN with an idle client");
    assert!(status.success(), "daemon exit: {status:?}");
    let mut line = String::new();
    assert_eq!(idle.0.read_line(&mut line).unwrap_or(0), 0, "{line}");
}

/// The connection past the daemon's cap of 256 is refused with one
/// `E-BUSY` line; the daemon keeps serving the connections it holds, and
/// admits a new one once one of them closes.
#[test]
fn daemon_refuses_the_connection_past_the_cap_with_e_busy() {
    const MAX_CONNS: usize = 256;
    let timeout = Duration::from_secs(10);
    let daemon = spawn_daemon(&[]);
    let mut held: Vec<_> = (0..MAX_CONNS)
        .map(|_| connect(&daemon.addr, timeout))
        .collect();

    let (mut refused, _) = connect(&daemon.addr, timeout);
    let mut line = String::new();
    refused.read_line(&mut line).expect("an E-BUSY line");
    assert!(line.starts_with("ERR [E-BUSY] "), "{line}");
    line.clear();
    assert_eq!(refused.read_line(&mut line).unwrap_or(0), 0, "{line}");

    assert_eq!(ask(&mut held[0], "PING"), "OK pong\n");
    assert_eq!(ask(&mut held[MAX_CONNS - 1], "PING"), "OK pong\n");
    let mut closing = held.pop().expect("a held connection");
    assert_eq!(ask(&mut closing, "QUIT"), "OK bye\n");
    drop(closing);

    // The place frees once the daemon's thread for it has ended.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut conn = connect(&daemon.addr, timeout);
        conn.1.write_all(b"PING\n").expect("request sent");
        let mut reply = String::new();
        let _ = conn.0.read_line(&mut reply);
        if reply == "OK pong\n" {
            break;
        }
        assert!(reply.starts_with("ERR [E-BUSY] "), "{reply}");
        assert!(Instant::now() < deadline, "no place freed after a QUIT");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends one request on an open connection and reads its reply: the
/// status line, plus the unstuffed block after a `DATA` status.
fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &str,
) -> (String, String) {
    writer
        .write_all(format!("{request}\n").as_bytes())
        .expect("request sent");
    let mut status = String::new();
    reader.read_line(&mut status).expect("a status line");
    let mut block = String::new();
    if status.starts_with("DATA") {
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("a block line") > 0);
            if line == ".\n" {
                break;
            }
            block.push_str(line.strip_prefix('.').unwrap_or(&line));
        }
    }
    (status.trim_end().to_string(), block)
}

/// A METRICS exposition, parsed strictly: every sample's value keyed by
/// its series (`name` or `name{labels}`), and every family's type.
struct Exposition {
    samples: BTreeMap<String, f64>,
    types: BTreeMap<String, String>,
}

impl Exposition {
    /// Parses `text`, panicking on any line that is not a `# HELP`, a
    /// `# TYPE`, or a `name[{labels}] value` sample of the family the
    /// latest `# TYPE` declared (a summary's family also owns its
    /// `_sum` and `_count` samples).
    fn parse(text: &str) -> Exposition {
        let is_name = |name: &str| {
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        };
        let mut types = BTreeMap::new();
        let mut samples = BTreeMap::new();
        let mut family: Option<(String, String)> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("`# TYPE name kind`");
                assert!(is_name(name), "{line}");
                assert!(matches!(kind, "counter" | "gauge" | "summary"), "{line}");
                assert!(
                    types.insert(name.to_string(), kind.to_string()).is_none(),
                    "family declared twice: {line}"
                );
                family = Some((name.to_string(), kind.to_string()));
                continue;
            }
            if line.starts_with("# HELP ") {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("not `series value`: {line}"));
            let name = match series.split_once('{') {
                None => series,
                Some((name, labels)) => {
                    let labels = labels
                        .strip_suffix('}')
                        .unwrap_or_else(|| panic!("unclosed labels: {line}"));
                    for pair in labels.split(',') {
                        let (key, quoted) = pair
                            .split_once('=')
                            .unwrap_or_else(|| panic!("not `key=\"value\"`: {line}"));
                        assert!(is_name(key), "{line}");
                        assert!(
                            quoted.len() >= 2 && quoted.starts_with('"') && quoted.ends_with('"'),
                            "{line}"
                        );
                    }
                    name
                }
            };
            assert!(is_name(name), "{line}");
            let (declared, kind) = family
                .as_ref()
                .unwrap_or_else(|| panic!("sample before any `# TYPE`: {line}"));
            let owned = match name.strip_prefix(declared.as_str()) {
                Some("") => true,
                Some("_sum" | "_count") => kind == "summary",
                _ => false,
            };
            assert!(owned, "`{name}` is not under its family's `# TYPE`: {line}");
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("unparseable value: {line}"));
            assert!(
                samples.insert(series.to_string(), value).is_none(),
                "series repeated: {line}"
            );
        }
        Exposition { samples, types }
    }

    /// Whether `series` must never decrease: a counter's sample or a
    /// summary's `_count`.
    fn is_monotone(&self, series: &str) -> bool {
        let name = series.split_once('{').map_or(series, |(name, _)| name);
        let summary_count = name
            .strip_suffix("_count")
            .is_some_and(|family| self.types.get(family).is_some_and(|k| k == "summary"));
        summary_count || self.types.get(name).is_some_and(|k| k == "counter")
    }
}

/// The METRICS exposition parses, its counters and summary counts never
/// decrease between two scrapes, and each per-verb request summary
/// counts exactly the requests of that verb served before the scrape
/// (the scrape itself is still in flight, so it is not yet counted).
#[test]
fn metrics_exposition_parses_and_counts_every_request() {
    let daemon = spawn_daemon(&[]);
    let stream = TcpStream::connect(&daemon.addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut sent: BTreeMap<String, u64> = BTreeMap::new();
    let mut scrape = |requests: &[&str], sent: &mut BTreeMap<String, u64>| {
        for request in requests {
            let (status, _) = roundtrip(&mut reader, &mut writer, request);
            assert!(!status.starts_with("ERR"), "{request}: {status}");
            let verb = request.split_whitespace().next().unwrap().to_lowercase();
            *sent.entry(verb).or_default() += 1;
        }
        let (status, block) = roundtrip(&mut reader, &mut writer, "METRICS");
        assert_eq!(status, format!("DATA bytes={}", block.len()));
        let exposition = Exposition::parse(&block);
        for (series, value) in &exposition.samples {
            if let Some(verb) = series
                .strip_prefix("smerge_request_seconds_count{verb=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
            {
                let expected = sent.get(verb).copied().unwrap_or(0);
                assert_eq!(*value, expected as f64, "{series}");
            }
        }
        // Every request so far was dispatched, this scrape included.
        let served: u64 = sent.values().sum::<u64>() + 1;
        assert_eq!(exposition.samples["smerge_requests_total"], served as f64);
        *sent.entry("metrics".to_string()).or_default() += 1;
        exposition
    };

    let first = scrape(
        &[
            "PING",
            "PING",
            "PUT alpha\nschema alpha { C --a--> B1; }\n.",
            "GET alpha",
            "MERGED",
            "LIST",
            "QUERY C.a",
            "STATS",
            "HEALTH",
            "COMPOSE",
            "SUPERGRAPH",
        ],
        &mut sent,
    );
    let second = scrape(
        &[
            "PUT beta\nschema beta { C --a--> B2; }\n.",
            "GET alpha",
            "MERGED",
            "MERGED",
            "COMPOSE",
            "PING",
        ],
        &mut sent,
    );

    assert_eq!(first.types, second.types, "the family set is fixed");
    let mut monotone = 0;
    for (series, before) in &first.samples {
        let after = second
            .samples
            .get(series)
            .unwrap_or_else(|| panic!("`{series}` vanished between scrapes"));
        if first.is_monotone(series) {
            monotone += 1;
            assert!(after >= before, "`{series}` fell from {before} to {after}");
        }
    }
    assert!(monotone > 20, "only {monotone} monotone series checked");
    assert_eq!(second.samples["smerge_registry_generation"], 2.0);
    // The reply cache: each GET and MERGED is one lookup, a miss for the
    // first reader of a version or generation and a hit after it.
    let lookups = |scrape: &Exposition, verb: &str, result: &str| {
        let series = format!("smerge_reply_cache_total{{verb=\"{verb}\",result=\"{result}\"}}");
        scrape.samples[&series]
    };
    assert_eq!(first.types["smerge_reply_cache_total"], "counter");
    for (scrape, get, merged) in [
        (&first, [0.0, 1.0], [0.0, 1.0]),
        (&second, [1.0, 1.0], [1.0, 2.0]),
    ] {
        assert_eq!(
            [
                lookups(scrape, "get", "hit"),
                lookups(scrape, "get", "miss")
            ],
            get
        );
        assert_eq!(
            [
                lookups(scrape, "merged", "hit"),
                lookups(scrape, "merged", "miss")
            ],
            merged
        );
    }
    assert_eq!(
        second.samples["smerge_request_seconds_count{verb=\"metrics\"}"],
        1.0
    );
}
