//! The real `smerge serve` process and the wire client that drives it.
//!
//! Both guards clean up on drop, so every exit path — a failed check, an
//! early `?` or a panic unwinding through `main` — kills the daemon and
//! removes its data directory.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use schema_merge_text::{encode_block, parse_status_line, Status};

/// How long a client waits for any one reply before counting a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A directory removed with everything in it when the guard drops.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(path: PathBuf) -> io::Result<ScratchDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir {
            path: path.canonicalize()?,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running `smerge serve --port 0 --threads 2` child.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    // Held so the daemon never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon on a durable `data_dir` (fsync per commit, the
    /// default snapshot cadence) and waits for its `listening on` line,
    /// which it prints after recovery and preload.
    pub fn spawn(binary: &Path, data_dir: &Path, preload: Option<&Path>) -> io::Result<Daemon> {
        let mut command = Command::new(binary);
        command
            .args(["serve", "--port", "0", "--threads", "2", "--data-dir"])
            .arg(data_dir);
        if let Some(preload) = preload {
            command.arg(preload);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("smerge serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr
                    .parse()
                    .map_err(|err| io::Error::other(format!("bad listen address: {err}")))?;
                return Ok(Daemon {
                    child,
                    addr,
                    _stdout: stdout,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN` on the first of `conns` and waits for the process
    /// to exit. The other connections are closed first: an idle
    /// connection pins its worker, and the daemon drains every worker.
    pub fn shutdown(mut self, mut conns: Vec<Conn>) -> io::Result<()> {
        conns.truncate(1);
        let conn = conns
            .first_mut()
            .ok_or_else(|| io::Error::other("no connection to send SHUTDOWN on"))?;
        conn.send("SHUTDOWN", None)?;
        self.child.wait()?;
        Ok(())
    }
}

/// SIGKILL unless the daemon already exited, then reap.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A reply: its status, the detail text and the decoded block, if any.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: Status,
    pub detail: String,
    pub block: Option<String>,
}

impl Reply {
    /// The value of `key=` in the detail text.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.detail.split_whitespace().find_map(|word| {
            word.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
        })
    }

    pub fn hex_field(&self, key: &str) -> Option<u64> {
        self.field(key)
            .and_then(|v| u64::from_str_radix(v, 16).ok())
    }

    pub fn int_field(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(|v| v.parse().ok())
    }
}

/// One persistent protocol connection. Each request is written with a
/// single `write` after the whole line and payload are encoded, and the
/// client sets `TCP_NODELAY`, so no client-side delay is measured as the
/// daemon's.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    /// Encodes a request: its command line, then the payload block.
    pub fn encode(line: &str, payload: Option<&str>) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(line.len() + 1 + payload.map_or(0, |p| p.len() + 8));
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        if let Some(payload) = payload {
            bytes.extend_from_slice(encode_block(payload).as_bytes());
        }
        bytes
    }

    fn send(&mut self, line: &str, payload: Option<&str>) -> io::Result<()> {
        self.send_encoded(&Conn::encode(line, payload))
    }

    pub fn send_encoded(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one reply: the status line, then through the block
    /// terminator when the status is `DATA`. The block is decoded only
    /// when `keep_block` is set; otherwise its lines are just consumed.
    pub fn read_reply(&mut self, keep_block: bool) -> io::Result<Reply> {
        let line = self.read_line()?;
        let (status, detail) = parse_status_line(&line)
            .map_err(|err| io::Error::other(format!("bad status line `{line}`: {err}")))?;
        let mut reply = Reply {
            status,
            detail: detail.to_string(),
            block: None,
        };
        if status == Status::Data {
            let mut block = String::new();
            loop {
                let line = self.read_line()?;
                if line == "." {
                    break;
                }
                if keep_block {
                    block.push_str(
                        line.strip_prefix('.')
                            .filter(|_| line.starts_with(".."))
                            .unwrap_or(&line),
                    );
                    block.push('\n');
                }
            }
            reply.block = keep_block.then_some(block);
        }
        Ok(reply)
    }

    /// A whole untimed round trip.
    pub fn call(&mut self, line: &str, payload: Option<&str>) -> io::Result<Reply> {
        self.send(line, payload)?;
        self.read_reply(true)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed by the daemon",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// The daemon's CPU time so far (user + system), in milliseconds, from
/// `/proc/<pid>/stat`.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // Linux reports these in USER_HZ ticks, fixed at 100 per second.
    Some((utime + stime) * 10.0)
}

/// The daemon's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
