//! Process-level regression tests: `smerge merge` and `smerge stats`
//! must *fail with a nonzero exit code* — never panic, never exit 0 —
//! on unreadable or unparseable input files, and say which file was at
//! fault. Both read their files through the one shared loader, so these
//! cases pin its contract for every file-reading command.

use std::process::Command;

fn run(args: &[&str]) -> (std::process::ExitStatus, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_smerge"))
        .args(args)
        .output()
        .expect("smerge runs");
    let mut text = String::from_utf8_lossy(&output.stderr).into_owned();
    text.push_str(&String::from_utf8_lossy(&output.stdout));
    (output.status, text)
}

fn write_temp(name: &str, contents: &str) -> String {
    let dir = std::env::temp_dir().join("smerge-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

/// The failure contract: exit code 1 (a controlled error, not a 101
/// panic abort), and the offending path named on stderr.
fn assert_controlled_failure(args: &[&str], path: &str) {
    let (status, text) = run(args);
    assert!(!status.success(), "`{args:?}` must fail: {text}");
    assert_eq!(
        status.code(),
        Some(1),
        "controlled exit, not a panic: {text}"
    );
    assert!(
        !text.contains("panicked"),
        "`{args:?}` panicked instead of erroring: {text}"
    );
    assert!(text.contains(path), "error names the file: {text}");
}

#[test]
fn merge_fails_cleanly_on_missing_file() {
    assert_controlled_failure(&["merge", "/nonexistent/xyz.sm"], "/nonexistent/xyz.sm");
}

#[test]
fn merge_fails_cleanly_on_unparseable_file() {
    let bad = write_temp("bad-merge.sm", "schema Broken {{{");
    assert_controlled_failure(&["merge", &bad], &bad);
}

#[test]
fn merge_fails_cleanly_on_directory_input() {
    let dir = std::env::temp_dir().join("smerge-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_string_lossy().into_owned();
    assert_controlled_failure(&["merge", &dir], &dir);
}

#[test]
fn merge_fails_cleanly_on_empty_document() {
    let empty = write_temp("empty-merge.sm", "");
    let (status, text) = run(&["merge", &empty]);
    assert_eq!(status.code(), Some(1), "{text}");
    assert!(text.contains("no schemas"), "{text}");
}

#[test]
fn stats_fails_cleanly_on_missing_file() {
    assert_controlled_failure(&["stats", "/nonexistent/xyz.sm"], "/nonexistent/xyz.sm");
}

#[test]
fn stats_fails_cleanly_on_unparseable_file() {
    let bad = write_temp("bad-stats.sm", "schema Broken { C --a-> }");
    assert_controlled_failure(&["stats", &bad], &bad);
}

#[test]
fn stats_fails_cleanly_on_directory_input() {
    let dir = std::env::temp_dir().join("smerge-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_string_lossy().into_owned();
    assert_controlled_failure(&["stats", &dir], &dir);
}

#[test]
fn good_files_still_exit_zero() {
    let good = write_temp("good.sm", "schema G { Dog --age--> int; }");
    let (status, text) = run(&["stats", &good]);
    assert!(status.success(), "{text}");
    let (status, text) = run(&["merge", &good]);
    assert!(status.success(), "{text}");
}

#[test]
fn one_bad_file_among_good_ones_fails_the_whole_run() {
    let good = write_temp("good2.sm", "schema G { Dog --age--> int; }");
    assert_controlled_failure(
        &["merge", &good, "/nonexistent/other.sm"],
        "/nonexistent/other.sm",
    );
}

#[test]
fn errors_carry_stable_codes_on_stderr() {
    // Every CLI failure names its stable code — scripts match on
    // `error[E-CLI-…]`, and merge failures embed the merge code too.
    let (_, text) = run(&["merge", "/nonexistent/xyz.sm"]);
    assert!(text.contains("error[E-CLI-DATA]"), "{text}");

    let up = write_temp("code-up.sm", "schema A { X => Y; }");
    let down = write_temp("code-down.sm", "schema B { Y => X; }");
    let (status, text) = run(&["merge", &up, &down]);
    assert!(!status.success());
    assert!(text.contains("error[E-CLI-DATA]"), "{text}");
    assert!(text.contains("[E-MERGE-INCOMPATIBLE]"), "{text}");

    let (_, text) = run(&["frobnicate"]);
    assert!(text.contains("error[E-CLI-USAGE]"), "{text}");

    // `bench` is no longer a command: it fails like any unknown one.
    let good = write_temp("code-bench.sm", "schema A { C --a--> B; }");
    let (status, text) = run(&["bench", &good]);
    assert_eq!(status.code(), Some(1), "{text}");
    assert!(
        text.contains("error[E-CLI-USAGE]: unknown command `bench`"),
        "{text}"
    );
    assert!(!text.contains("panicked"), "{text}");
}

/// A flag a command does not know is a usage error that names it, not a
/// missing file: exit 1, `E-CLI-USAGE`, no panic.
#[test]
fn unknown_flags_are_usage_errors() {
    let file = write_temp("flags.sm", "schema A { C --a--> B; }");
    for (args, flag) in [
        (["merge", "--threads", "4", file.as_str()], "--threads"),
        (["compose", "--threads", "2", file.as_str()], "--threads"),
        (["merge", "--bogus", file.as_str(), "--trace"], "--bogus"),
        (["compose", "--bogus", "--format", "json"], "--bogus"),
    ] {
        let (status, text) = run(&args);
        assert_eq!(status.code(), Some(1), "`{args:?}`: {text}");
        assert!(
            text.contains(&format!("error[E-CLI-USAGE]: unknown flag `{flag}`")),
            "`{args:?}`: {text}"
        );
        assert!(!text.contains("panicked"), "`{args:?}`: {text}");
    }
}

/// Client-side failure classification at the process level: a daemon
/// that cannot be reached is `E-CLI-CONNECT` (transient — `--retries`
/// applies), and both spellings exit 1 without panicking.
#[test]
fn client_connect_failures_carry_the_connect_code() {
    // Bind then drop a listener: the port is refusing connections.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };

    let (status, text) = run(&["client", &addr, "ping"]);
    assert_eq!(status.code(), Some(1), "{text}");
    assert!(text.contains("error[E-CLI-CONNECT]"), "{text}");
    assert!(!text.contains("panicked"), "{text}");

    // With retries armed the classification is unchanged — still the
    // transient connect code after the budget runs out.
    let (status, text) = run(&[
        "client",
        &addr,
        "--retries",
        "2",
        "--retry-backoff-ms",
        "1",
        "health",
    ]);
    assert_eq!(status.code(), Some(1), "{text}");
    assert!(text.contains("error[E-CLI-CONNECT]"), "{text}");
}
