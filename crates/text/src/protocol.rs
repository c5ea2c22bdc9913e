//! The `smerge serve` wire protocol: line-oriented commands and
//! dot-framed text blocks.
//!
//! The registry daemon speaks a deliberately small, human-typeable
//! protocol over TCP — every request is one command line, optionally
//! followed by a *block* (for `PUT` payloads), and every response is one
//! status line, optionally followed by a block:
//!
//! ```text
//! C: PUT inventory
//! C: schema inventory { Part --price--> money; }
//! C: .
//! S: OK hash=0f3a90b11c2d4e55 generation=3 members=2
//! C: MERGED
//! S: DATA schema
//! S: schema merged {
//! S:     ...
//! S: .
//! ```
//!
//! A block is a run of lines terminated by a line containing only `.`;
//! payload lines that *start* with a dot are escaped by doubling it
//! (SMTP-style dot stuffing), so arbitrary schema text — including a
//! class named `.` — round-trips. [`encode_block`] and [`BlockCollector`]
//! are the two halves of that framing; both are plain string machines
//! with no I/O, shared by the server, the client and the tests.

use std::fmt;

/// The line that terminates a block.
pub const BLOCK_TERMINATOR: &str = ".";

/// A request from a client, one per line. `PUT` is followed by a
/// dot-framed block carrying the schema document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Publish a schema version under a member name (block payload).
    Put(String),
    /// Fetch the current version of a member, printed canonically.
    Get(String),
    /// Remove a member and its versions from the registry.
    Delete(String),
    /// Fetch the canonical merged view.
    Merged,
    /// Fetch registry statistics.
    Stats,
    /// Fetch the daemon's telemetry as Prometheus-style exposition text
    /// (latency summaries, counters, gauges).
    Metrics,
    /// List members with their current version hashes.
    List,
    /// Evaluate a schema-space path query against the merged view.
    Query(String),
    /// Attach a fresh member registry to the daemon's supergraph under a
    /// namespace. Subsequent `PUT registry/member` lines route to it.
    Attach(String),
    /// Detach a member registry (its members leave the next composition).
    Detach(String),
    /// Compose every attached registry into the supergraph view and
    /// report generation, strategy and hint count.
    Compose,
    /// Fetch the composed supergraph: statistics, per-registry
    /// contributions, hints and the composed schema as a block.
    Supergraph,
    /// Force a snapshot + WAL compaction on a durable registry.
    Snapshot,
    /// Fetch the registry's resilience state: `ok`/`degraded`, retry
    /// counters, the last storage error, fault-injection counters when
    /// injection is live.
    Health,
    /// Liveness probe.
    Ping,
    /// Stop the daemon (after draining in-flight connections).
    Shutdown,
    /// Close this connection.
    Quit,
}

impl Command {
    /// Parses one request line. Member names are single whitespace-free
    /// tokens; `QUERY` takes the rest of the line verbatim (paths contain
    /// no spaces in practice, but `{A,B}` origin syntax is preserved).
    pub fn parse(line: &str) -> Result<Command, ProtocolError> {
        let trimmed = line.trim();
        let (verb, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (trimmed, ""),
        };
        let name_arg = |what: &'static str| -> Result<String, ProtocolError> {
            if rest.is_empty() {
                return Err(ProtocolError::MissingArgument(what));
            }
            if rest.split_whitespace().count() > 1 {
                return Err(ProtocolError::TrailingInput(rest.to_string()));
            }
            Ok(rest.to_string())
        };
        let bare = |command: Command| -> Result<Command, ProtocolError> {
            if rest.is_empty() {
                Ok(command)
            } else {
                Err(ProtocolError::TrailingInput(rest.to_string()))
            }
        };
        match verb.to_ascii_uppercase().as_str() {
            "" => Err(ProtocolError::Empty),
            "PUT" => Ok(Command::Put(name_arg("member name")?)),
            "GET" => Ok(Command::Get(name_arg("member name")?)),
            "DELETE" => Ok(Command::Delete(name_arg("member name")?)),
            "MERGED" => bare(Command::Merged),
            "STATS" => bare(Command::Stats),
            "METRICS" => bare(Command::Metrics),
            "LIST" => bare(Command::List),
            "QUERY" => {
                if rest.is_empty() {
                    Err(ProtocolError::MissingArgument("path"))
                } else {
                    Ok(Command::Query(rest.to_string()))
                }
            }
            "ATTACH" => Ok(Command::Attach(name_arg("registry name")?)),
            "DETACH" => Ok(Command::Detach(name_arg("registry name")?)),
            "COMPOSE" => bare(Command::Compose),
            "SUPERGRAPH" => bare(Command::Supergraph),
            "SNAPSHOT" => bare(Command::Snapshot),
            "HEALTH" => bare(Command::Health),
            "PING" => bare(Command::Ping),
            "SHUTDOWN" => bare(Command::Shutdown),
            "QUIT" => bare(Command::Quit),
            other => Err(ProtocolError::UnknownCommand(other.to_string())),
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Put(name) => write!(f, "PUT {name}"),
            Command::Get(name) => write!(f, "GET {name}"),
            Command::Delete(name) => write!(f, "DELETE {name}"),
            Command::Merged => write!(f, "MERGED"),
            Command::Stats => write!(f, "STATS"),
            Command::Metrics => write!(f, "METRICS"),
            Command::List => write!(f, "LIST"),
            Command::Query(path) => write!(f, "QUERY {path}"),
            Command::Attach(name) => write!(f, "ATTACH {name}"),
            Command::Detach(name) => write!(f, "DETACH {name}"),
            Command::Compose => write!(f, "COMPOSE"),
            Command::Supergraph => write!(f, "SUPERGRAPH"),
            Command::Snapshot => write!(f, "SNAPSHOT"),
            Command::Health => write!(f, "HEALTH"),
            Command::Ping => write!(f, "PING"),
            Command::Shutdown => write!(f, "SHUTDOWN"),
            Command::Quit => write!(f, "QUIT"),
        }
    }
}

/// The first word of every response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; the detail is the rest of the line.
    Ok,
    /// Success; the detail is the rest of the line and a dot-framed
    /// block follows.
    Data,
    /// Failure; the detail is the error message.
    Err,
}

impl Status {
    /// The wire keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Data => "DATA",
            Status::Err => "ERR",
        }
    }
}

/// Splits a response line into its status and detail text.
pub fn parse_status_line(line: &str) -> Result<(Status, &str), ProtocolError> {
    let trimmed = line.trim_end();
    let (word, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((word, rest)) => (word, rest.trim_start()),
        None => (trimmed, ""),
    };
    match word {
        "OK" => Ok((Status::Ok, rest)),
        "DATA" => Ok((Status::Data, rest)),
        "ERR" => Ok((Status::Err, rest)),
        other => Err(ProtocolError::UnknownStatus(other.to_string())),
    }
}

/// Formats a response status line (no trailing newline).
pub fn status_line(status: Status, detail: &str) -> String {
    if detail.is_empty() {
        status.as_str().to_string()
    } else {
        format!("{} {detail}", status.as_str())
    }
}

/// Encodes a payload as a dot-framed block: each line dot-stuffed, then
/// the terminator line. The result always ends with a newline and is
/// ready to write after a `DATA` status line or a `PUT` command line.
pub fn encode_block(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 8);
    encode_block_into(&mut out, payload);
    out
}

/// Appends the [`encode_block`] of `payload` to `out`.
fn encode_block_into(out: &mut String, payload: &str) {
    for line in payload.lines() {
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(BLOCK_TERMINATOR);
    out.push('\n');
}

/// Turns the payload `out` holds from byte `start` on into its
/// [`encode_block`], in place: a reply can print its payload straight
/// into the buffer that carries its status line. Text that is its own
/// encoding — every line ends with a newline, none starts with `.` or
/// ends with a carriage return, as the printer's output does — only
/// gains the terminator line.
pub fn frame_block(out: &mut String, start: usize) {
    let payload = &out[start..];
    let verbatim = (payload.is_empty() || payload.ends_with('\n'))
        && payload
            .split_terminator('\n')
            .all(|line| !line.starts_with('.') && !line.ends_with('\r'));
    if verbatim {
        out.push_str(BLOCK_TERMINATOR);
        out.push('\n');
    } else {
        let payload = out.split_off(start);
        encode_block_into(out, &payload);
    }
}

/// The receiving half of the block framing: feed raw lines (without
/// their newline) until [`BlockCollector::push`] reports the terminator,
/// then take the decoded payload with [`BlockCollector::finish`].
#[derive(Debug, Default)]
pub struct BlockCollector {
    payload: String,
    done: bool,
}

impl BlockCollector {
    /// An empty collector.
    pub fn new() -> Self {
        BlockCollector::default()
    }

    /// Consumes one raw line. Returns `true` once the terminator line
    /// arrives (the terminator itself is not part of the payload).
    /// Further pushes after that are ignored.
    pub fn push(&mut self, line: &str) -> bool {
        if self.done {
            return true;
        }
        if line == BLOCK_TERMINATOR {
            self.done = true;
            return true;
        }
        let unstuffed = line.strip_prefix('.').filter(|_| line.starts_with(".."));
        match unstuffed {
            Some(rest) => self.payload.push_str(rest),
            None => self.payload.push_str(line),
        }
        self.payload.push('\n');
        false
    }

    /// Whether the terminator has been seen.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The decoded payload (every line newline-terminated).
    pub fn finish(self) -> String {
        self.payload
    }
}

/// A malformed request or response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// An empty command line.
    Empty,
    /// An unrecognized command verb.
    UnknownCommand(String),
    /// An unrecognized response status word.
    UnknownStatus(String),
    /// A command missing its required argument.
    MissingArgument(&'static str),
    /// Extra input after a complete command.
    TrailingInput(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty command"),
            ProtocolError::UnknownCommand(verb) => write!(f, "unknown command `{verb}`"),
            ProtocolError::UnknownStatus(word) => write!(f, "unknown response status `{word}`"),
            ProtocolError::MissingArgument(what) => write!(f, "missing {what}"),
            ProtocolError::TrailingInput(rest) => write!(f, "unexpected trailing input `{rest}`"),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_and_round_trip() {
        for (line, expected) in [
            ("PUT inventory", Command::Put("inventory".into())),
            ("get shelf", Command::Get("shelf".into())),
            ("DELETE a-b", Command::Delete("a-b".into())),
            ("MERGED", Command::Merged),
            ("stats", Command::Stats),
            ("METRICS", Command::Metrics),
            ("metrics", Command::Metrics),
            ("LIST", Command::List),
            (
                "QUERY Dog.owner[{A,B}]",
                Command::Query("Dog.owner[{A,B}]".into()),
            ),
            ("ATTACH billing", Command::Attach("billing".into())),
            ("detach billing", Command::Detach("billing".into())),
            ("COMPOSE", Command::Compose),
            ("supergraph", Command::Supergraph),
            ("snapshot", Command::Snapshot),
            ("HEALTH", Command::Health),
            ("health", Command::Health),
            ("PING", Command::Ping),
            ("SHUTDOWN", Command::Shutdown),
            ("QUIT", Command::Quit),
        ] {
            let parsed = Command::parse(line).unwrap();
            assert_eq!(parsed, expected, "{line}");
            // Display emits the canonical form, which re-parses.
            assert_eq!(Command::parse(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn command_errors() {
        assert_eq!(Command::parse("  "), Err(ProtocolError::Empty));
        assert!(matches!(
            Command::parse("FROB x"),
            Err(ProtocolError::UnknownCommand(_))
        ));
        assert_eq!(
            Command::parse("PUT"),
            Err(ProtocolError::MissingArgument("member name"))
        );
        assert!(matches!(
            Command::parse("PUT two words"),
            Err(ProtocolError::TrailingInput(_))
        ));
        assert!(matches!(
            Command::parse("MERGED now"),
            Err(ProtocolError::TrailingInput(_))
        ));
        assert_eq!(
            Command::parse("QUERY"),
            Err(ProtocolError::MissingArgument("path"))
        );
        assert_eq!(
            Command::parse("ATTACH"),
            Err(ProtocolError::MissingArgument("registry name"))
        );
        assert!(matches!(
            Command::parse("COMPOSE now"),
            Err(ProtocolError::TrailingInput(_))
        ));
    }

    #[test]
    fn status_lines_round_trip() {
        assert_eq!(
            parse_status_line("OK hash=1 generation=2").unwrap(),
            (Status::Ok, "hash=1 generation=2")
        );
        assert_eq!(parse_status_line("DATA").unwrap(), (Status::Data, ""));
        assert_eq!(
            parse_status_line("ERR merge failed: cycle").unwrap(),
            (Status::Err, "merge failed: cycle")
        );
        assert!(parse_status_line("NOPE x").is_err());
        assert_eq!(status_line(Status::Ok, ""), "OK");
        assert_eq!(status_line(Status::Err, "bad"), "ERR bad");
    }

    #[test]
    fn block_framing_round_trips() {
        let payload = "schema S {\n    Dog --age--> int;\n}\n";
        let encoded = encode_block(payload);
        assert!(encoded.ends_with(".\n"));
        let mut collector = BlockCollector::new();
        let mut finished = false;
        for line in encoded.lines() {
            finished = collector.push(line);
            if finished {
                break;
            }
        }
        assert!(finished && collector.is_done());
        assert_eq!(collector.finish(), payload);
    }

    #[test]
    fn dot_stuffing_protects_leading_dots() {
        let payload = ".leading\n..double\nplain\n";
        let encoded = encode_block(payload);
        assert!(encoded.starts_with("..leading\n...double\n"));
        let mut collector = BlockCollector::new();
        for line in encoded.lines() {
            if collector.push(line) {
                break;
            }
        }
        assert_eq!(collector.finish(), payload);
    }

    #[test]
    fn framing_in_place_matches_encode_block() {
        for payload in [
            "",
            "schema S {\n    Dog --age--> int;\n}\n",
            "no trailing newline",
            ".leading\n..double\nplain\n",
            "carriage\r\nreturn\n",
            "\n\nblank lines\n",
        ] {
            let mut out = String::from("DATA x=1\n");
            let start = out.len();
            out.push_str(payload);
            frame_block(&mut out, start);
            assert_eq!(
                out,
                format!("DATA x=1\n{}", encode_block(payload)),
                "{payload:?}"
            );
        }
    }

    #[test]
    fn empty_block() {
        assert_eq!(encode_block(""), ".\n");
        let mut collector = BlockCollector::new();
        assert!(collector.push("."));
        assert_eq!(collector.finish(), "");
    }
}
