//! The `tdq serve --listen` child process and an NDJSON client for it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::Verdict;

/// A running server and the address it reported.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `tdq serve --listen` on an ephemeral port (warm-started
    /// from `snapshot` when given) and waits for its ready line. Returns
    /// the server and the time from spawn to ready.
    pub fn start(
        tdq: &Path,
        snapshot: Option<&Path>,
        jobs: usize,
    ) -> Result<(Server, f64), String> {
        let mut cmd = Command::new(tdq);
        cmd.args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
        ]);
        if let Some(s) = snapshot {
            cmd.arg("--cache-load").arg(s);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let t = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tdq.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout missing")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready_s = t.elapsed().as_secs_f64();
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("{\"serving\":\"")
                .and_then(|r| r.strip_suffix("\"}"))
                .map(str::to_owned),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report an address: {line:?}"));
        };
        Ok((
            Server {
                child,
                _stdout: stdout,
                addr,
            },
            ready_s,
        ))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Asks the server to shut down and waits for it to exit (killing it
    /// after a grace period).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call("{\"id\":\"bye\",\"op\":\"shutdown\"}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("server exited with {status} (shutdown: {asked:?})"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("server did not exit after shutdown".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on an error path that skipped `stop`: never leave
        // a server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One NDJSON connection, used in a closed loop: send a line, read the
/// reply, repeat.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns its reply line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(self.buf.trim_end().to_owned()),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

/// The verdicts of a reply, in order (`wp`/`session_ask`: one; `batch`:
/// one per item), or the error message of a failed reply.
pub fn reply_verdicts(reply: &str) -> Result<Vec<Verdict>, String> {
    if !reply.contains("\"ok\":true") {
        return Err(reply.to_owned());
    }
    let mut out = Vec::new();
    for part in reply.split("\"verdict\":\"").skip(1) {
        out.push(match part.split('"').next() {
            Some("implied") => Verdict::Implied,
            Some("refuted") => Verdict::Refuted,
            Some("unknown") => Verdict::Unknown,
            other => return Err(format!("unrecognised verdict {other:?}")),
        });
    }
    Ok(out)
}

/// Pairs expected verdicts with a reply's: an error reply or a missing
/// verdict fails every check.
pub fn checks(expected: &[Verdict], reply: &str) -> Vec<(Verdict, Result<Verdict, String>)> {
    let got = reply_verdicts(reply);
    expected
        .iter()
        .enumerate()
        .map(|(i, &want)| {
            let one = match &got {
                Ok(vs) => vs
                    .get(i)
                    .copied()
                    .ok_or_else(|| "missing verdict".to_owned()),
                Err(e) => Err(e.clone()),
            };
            (want, one)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_read_in_reply_order() {
        let r = "{\"id\":1,\"ok\":true,\"op\":\"batch\",\"results\":[{\"id\":\"a\",\"verdict\":\"refuted\",\"model_rows\":3},{\"id\":\"b\",\"verdict\":\"implied\"}]}";
        assert_eq!(
            reply_verdicts(r),
            Ok(vec![Verdict::Refuted, Verdict::Implied])
        );
        let c = checks(&[Verdict::Refuted, Verdict::Implied, Verdict::Implied], r);
        assert!(c[2].1.is_err(), "a missing verdict is a failure");
    }

    #[test]
    fn error_replies_fail_their_checks() {
        let r = "{\"id\":1,\"ok\":false,\"error\":{\"msg\":\"engine is shut down\"}}";
        assert!(reply_verdicts(r).is_err());
        let c = checks(&[Verdict::Implied], r);
        assert!(c[0].1.is_err());
    }
}
