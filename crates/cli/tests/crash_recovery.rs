//! Kill-mid-publish-storm crash test: spawns the real daemon with a
//! data dir, hammers it with concurrent publishes, SIGKILLs it with
//! commits in flight, restarts on the same dir, and differentially
//! asserts the recovered registry against a never-crashed in-process
//! reference — every acknowledged commit must survive, and the served
//! merged view must equal the one-shot merge of the recovered members.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use schema_merge_registry::Registry;
use schema_merge_text::{encode_block, parse_document};

struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `smerge serve --data-dir <dir>`, reading stdout lines until
/// the listen announcement (a recovery line precedes it on restart).
fn spawn_daemon(dir: &Path, snapshot_every: &str) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smerge"))
        .args(["serve", "--port", "0", "--threads", "4"])
        .args(["--data-dir", dir.to_str().unwrap()])
        .args(["--snapshot-every", snapshot_every])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).expect("daemon stdout"),
            0,
            "daemon exited before announcing"
        );
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut sink);
    });
    Daemon { child, addr }
}

/// One protocol exchange on an open connection; the schema text is sent
/// as a dot-framed block. Returns the status line.
fn put(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    member: &str,
    payload: &str,
) -> std::io::Result<String> {
    write!(writer, "PUT {member}\n{}", encode_block(payload))?;
    writer.flush()?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(line.trim().to_string())
}

fn command(addr: &str, line: &str) -> (String, String) {
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let status = status.trim().to_string();
    let mut block = String::new();
    if status.starts_with("DATA") {
        loop {
            let mut l = String::new();
            assert_ne!(reader.read_line(&mut l).unwrap(), 0, "mid-block EOF");
            let l = l.trim_end_matches(['\n', '\r']);
            if l == "." {
                break;
            }
            let unstuffed = l.strip_prefix('.').unwrap_or(l);
            block.push_str(unstuffed);
            block.push('\n');
        }
    }
    (status, block)
}

fn schema_text(member: &str, version: usize) -> String {
    format!(
        "schema {member} {{ C{member} --attr{version}--> T{version}; Shared --s{version}--> U; }}"
    )
}

#[test]
fn sigkill_mid_storm_recovers_every_acknowledged_commit() {
    let dir = std::env::temp_dir().join(format!("smerge-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Small snapshot cadence so the storm crosses several compactions —
    // the crash can land before, during or after one.
    let mut daemon = spawn_daemon(&dir, "7");
    let addr = daemon.addr.clone();

    // Phase 1: a fully acknowledged, deterministic history.
    {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for round in 0..3 {
            for member in ["alpha", "beta", "gamma"] {
                let status = put(
                    &mut writer,
                    &mut reader,
                    member,
                    &schema_text(member, round),
                )
                .expect("phase-1 put");
                assert!(status.starts_with("OK"), "{status}");
            }
        }
        writeln!(writer, "DELETE beta").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK"), "{line}");
    }

    // Phase 2: four threads storm distinct members with fresh content
    // per round while the main thread pulls the plug. Acks are counted;
    // errors after the kill are expected and ignored.
    const STORMERS: usize = 4;
    let acked: Vec<AtomicUsize> = (0..STORMERS).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|scope| {
        for (t, acked) in acked.iter().enumerate() {
            let addr = addr.clone();
            scope.spawn(move || {
                let Ok(stream) = TcpStream::connect(&addr) else {
                    return;
                };
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let member = format!("storm-{t}");
                for round in 0..10_000 {
                    match put(
                        &mut writer,
                        &mut reader,
                        &member,
                        &schema_text(&member, round),
                    ) {
                        Ok(status) if status.starts_with("OK") => {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        _ => return, // killed under us
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(300));
        daemon.child.kill().expect("SIGKILL");
        let _ = daemon.child.wait();
    });
    drop(daemon);

    // Restart on the same directory.
    let daemon = spawn_daemon(&dir, "7");
    let addr = daemon.addr.clone();

    // Every acknowledged storm commit survived: content is fresh per
    // round, so the member's recovered sequence counts its commits.
    let (_, list) = command(&addr, "LIST");
    for (t, acked) in acked.iter().enumerate() {
        let acked = acked.load(Ordering::SeqCst);
        let member = format!("storm-{t}");
        let row = list.lines().find(|l| l.starts_with(&format!("{member} ")));
        let sequence = row
            .and_then(|l| l.split_whitespace().find_map(|w| w.strip_prefix('v')))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        assert!(
            sequence >= acked,
            "{member}: {acked} acked commits but recovered sequence {sequence}"
        );
        // And nothing was invented: at most one in-flight commit (fsync'd
        // but killed before its ack was written) beyond the acked count.
        assert!(
            sequence <= acked + 1,
            "{member}: sequence {sequence} vs {acked} acked"
        );
    }
    assert!(!list.contains("beta"), "deleted member resurrected: {list}");

    // Differential view check: feed a never-crashed in-process registry
    // the recovered members' schemas; its merged view must match what
    // the restarted daemon serves, hash for hash.
    let reference = Registry::new();
    for row in list.lines().filter(|l| !l.trim().is_empty()) {
        let member = row.split_whitespace().next().unwrap();
        let (status, body) = command(&addr, &format!("GET {member}"));
        assert!(status.starts_with("DATA"), "{status}");
        let docs = parse_document(&body).expect("served schema parses back");
        for doc in docs {
            reference
                .put(member.to_string(), doc.schema.schema().clone())
                .expect("recovered members merge");
        }
    }
    let (merged_status, merged_body) = command(&addr, "MERGED");
    let view = reference.merged();
    let expected_hash = format!("hash={:016x}", view.hash());
    assert!(
        merged_status.contains(&expected_hash),
        "recovered daemon serves {merged_status}, reference computes {expected_hash}"
    );
    assert!(
        merged_body.contains(&format!(
            "// implicit classes: {}",
            view.report.num_implicit()
        )),
        "{merged_body}"
    );

    // Phase-1 members kept their exact histories (alpha/gamma at v3).
    for member in ["alpha", "gamma"] {
        assert!(
            list.lines()
                .any(|l| l.starts_with(&format!("{member} ")) && l.contains(" v3 ")),
            "{member} history damaged: {list}"
        );
    }

    // The recovered daemon is live: it accepts new commits and shuts
    // down cleanly.
    let (status, _) = command(&addr, "PING");
    assert_eq!(status, "OK pong");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL + fault-on-recovery: the daemon is killed mid-commit, and
/// the surviving directory is then recovered through a fault-injecting
/// store whose recovery-path reads fail transiently a few times. Under
/// a retry policy the recovery must still reproduce every acknowledged
/// commit; without one, the same faults are fatal (the legacy
/// fail-fast contract).
#[test]
fn sigkill_then_recovery_retries_transient_storage_faults() {
    use schema_merge_registry::storage::{Fault, FaultSchedule, FaultStore, LocalStore, OpKind};
    use schema_merge_registry::RetryPolicy;

    let dir = std::env::temp_dir().join(format!("smerge-crash-faulty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Acked history, then a storm thread with the plug pulled under it.
    let mut daemon = spawn_daemon(&dir, "5");
    let addr = daemon.addr.clone();
    {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for round in 0..4 {
            for member in ["alpha", "beta"] {
                let status = put(
                    &mut writer,
                    &mut reader,
                    member,
                    &schema_text(member, round),
                )
                .expect("acked put");
                assert!(status.starts_with("OK"), "{status}");
            }
        }
    }
    let acked = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let Ok(stream) = TcpStream::connect(&addr) else {
                return;
            };
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for round in 0..10_000 {
                match put(
                    &mut writer,
                    &mut reader,
                    "storm",
                    &schema_text("storm", round),
                ) {
                    Ok(status) if status.starts_with("OK") => {
                        acked.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => return,
                }
            }
        });
        std::thread::sleep(Duration::from_millis(150));
        daemon.child.kill().expect("SIGKILL");
        let _ = daemon.child.wait();
    });
    drop(daemon);

    // Recover in-process through a flaky store: the first attempt of
    // every recovery read faults transiently.
    let flaky_schedule = || {
        FaultSchedule::new(7)
            .fail_nth(OpKind::ListSnapshots, 1, Fault::Transient)
            .fail_nth(OpKind::ReadSnapshot, 1, Fault::Transient)
            .fail_nth(OpKind::ReadLog, 1, Fault::Transient)
    };
    let store = FaultStore::new(LocalStore::open(&dir).unwrap(), flaky_schedule());
    let recovered = Registry::builder()
        .store(store)
        .retry_policy(
            RetryPolicy::new(3)
                .initial_backoff(Duration::from_millis(1))
                .max_backoff(Duration::from_millis(4)),
        )
        .open()
        .expect("recovery retries transient read faults");

    // Every acked commit survived the kill and the flaky recovery.
    let acked = acked.load(Ordering::SeqCst);
    let storm_sequence = recovered.history("storm").map(|h| h.len()).unwrap_or(0);
    assert!(
        storm_sequence >= acked,
        "{acked} acked storm commits but recovered {storm_sequence}"
    );
    assert!(storm_sequence <= acked + 1, "{storm_sequence} vs {acked}");
    assert_eq!(recovered.history("alpha").unwrap().len(), 4);
    assert_eq!(recovered.history("beta").unwrap().len(), 4);
    assert!(!recovered.stats().degraded);
    drop(recovered);

    // The same schedule without a retry policy is fatal.
    let store = FaultStore::new(LocalStore::open(&dir).unwrap(), flaky_schedule());
    let err = Registry::builder().store(store).open().unwrap_err();
    assert!(
        matches!(err, schema_merge_registry::RegistryError::Storage(_)),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
