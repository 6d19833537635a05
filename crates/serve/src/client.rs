//! The thin client: connect, submit, stream events, collect the report.
//!
//! Used by the `mtl_serve` CLI subcommands and by the benchmark
//! binaries' `--serve` transport (`mtl_bench::submit_spec`), which runs
//! a campaign spec on a daemon instead of in-process — gaining the
//! daemon's warm compile cache.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use mtl_sweep::Json;

use crate::protocol;

/// One JSONL connection to a running server.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to a daemon's Unix socket.
    ///
    /// # Errors
    ///
    /// Returns connection errors (daemon not running, bad path).
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    fn send(&mut self, req: &Json) -> Result<(), String> {
        self.writer
            .write_all(format!("{}\n", req.to_compact()).as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => mtl_sweep::json::parse(line.trim_end())
                .map_err(|e| format!("malformed server line: {e}")),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// One request, one response line.
    fn round_trip(&mut self, req: &Json) -> Result<Json, String> {
        self.send(req)?;
        let resp = self.recv()?;
        if resp.get("ok").and_then(Json::as_bool) == Some(false) {
            let msg = resp.get("error").and_then(Json::as_str).unwrap_or("unknown error");
            return Err(msg.to_string());
        }
        Ok(resp)
    }

    /// Handshake; checks the protocol version.
    ///
    /// # Errors
    ///
    /// Protocol-version mismatch or transport errors.
    pub fn hello(&mut self) -> Result<Json, String> {
        let resp = self.round_trip(&protocol::simple_request("hello"))?;
        let proto = resp.get("proto").and_then(Json::as_u64);
        if proto != Some(protocol::PROTO_VERSION) {
            return Err(format!(
                "protocol mismatch: server speaks {proto:?}, client {}",
                protocol::PROTO_VERSION
            ));
        }
        Ok(resp)
    }

    /// The server's `stats` snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors or an `error` response.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.round_trip(&protocol::simple_request("stats"))
    }

    /// Asks the daemon to exit.
    ///
    /// # Errors
    ///
    /// Transport errors or an `error` response.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.round_trip(&protocol::simple_request("shutdown")).map(|_| ())
    }

    /// Submits a campaign spec and blocks until `campaign_done`, calling
    /// `on_event` for every streamed `job_done` line. Returns the final
    /// campaign report (the `BENCH_*.json` document).
    ///
    /// # Errors
    ///
    /// Spec rejections (`error` response), mid-stream disconnects, and
    /// transport errors. A disconnect does *not* cancel the campaign on
    /// the server.
    pub fn submit(&mut self, spec: &Json, mut on_event: impl FnMut(&Json)) -> Result<Json, String> {
        self.send(&protocol::submit_request(spec))?;
        loop {
            let line = self.recv()?;
            match line.get("type").and_then(Json::as_str) {
                Some("event") => on_event(&line),
                Some("campaign_done") => {
                    return line
                        .get("report")
                        .cloned()
                        .ok_or_else(|| "campaign_done without a report".to_string());
                }
                Some("error") => {
                    let msg = line.get("error").and_then(Json::as_str).unwrap_or("unknown");
                    return Err(msg.to_string());
                }
                other => return Err(format!("unexpected line type {other:?} in event stream")),
            }
        }
    }
}
