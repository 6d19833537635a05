//! The mtl-serve JSONL wire protocol (DESIGN.md §10).
//!
//! Every message is one JSON object per line, in both directions.
//! Requests carry an `"op"`; responses carry a `"type"` and an `"ok"`
//! flag. While a submitted campaign runs, the server streams `event`
//! lines on the submitting connection; the terminal line for a
//! submission is `campaign_done`, carrying the full campaign report.
//!
//! The protocol is versioned by [`PROTO_VERSION`], reported in the
//! `hello` response; clients should check it before submitting.

use mtl_sim::ArtifactStats;
use mtl_sweep::{JobOutcome, JobReport, Json};

/// Wire-protocol version, bumped on any incompatible change.
pub const PROTO_VERSION: u64 = 1;

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Handshake: the server answers with its version and worker count.
    Hello,
    /// Submit a campaign (the spec object, see [`crate::registry`]).
    /// The connection then streams events until `campaign_done`.
    Submit(Json),
    /// Snapshot the shared compile-cache counters and scheduler state.
    Stats,
    /// Ask the daemon to exit once the response is written. In-flight
    /// jobs are abandoned (their journals make the loss recoverable).
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message suitable for an `error` response: malformed JSON,
/// a missing `op`, or an unknown `op`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = mtl_sweep::json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request must carry a string \"op\"".to_string())?;
    match op {
        "hello" => Ok(Request::Hello),
        "submit" => {
            let spec = doc
                .get("campaign")
                .cloned()
                .ok_or_else(|| "submit must carry a \"campaign\" spec object".to_string())?;
            Ok(Request::Submit(spec))
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op \"{other}\"")),
    }
}

/// Builds a `submit` request line around a campaign spec.
pub fn submit_request(spec: &Json) -> Json {
    let mut req = Json::obj();
    req.set("op", "submit");
    req.set("campaign", spec.clone());
    req
}

/// Builds a bare request line for ops without a payload.
pub fn simple_request(op: &str) -> Json {
    let mut req = Json::obj();
    req.set("op", op);
    req
}

pub fn hello_response(workers: usize) -> Json {
    let mut doc = Json::obj();
    doc.set("type", "hello");
    doc.set("ok", true);
    doc.set("proto", PROTO_VERSION);
    doc.set("workers", workers);
    doc
}

pub fn error_response(message: &str) -> Json {
    let mut doc = Json::obj();
    doc.set("type", "error");
    doc.set("ok", false);
    doc.set("error", message);
    doc
}

pub fn shutdown_response() -> Json {
    let mut doc = Json::obj();
    doc.set("type", "shutdown");
    doc.set("ok", true);
    doc
}

/// The `stats` response: shared compile-cache counters plus campaign
/// counts. Keys are flat so shell clients can grep `compile_hits=`-style
/// output rendered from them.
pub fn stats_response(artifacts: &ArtifactStats, active: usize, completed: u64) -> Json {
    let mut compile = Json::obj();
    compile.set("tape_hits", artifacts.tape_hits);
    compile.set("tape_misses", artifacts.tape_misses);
    compile.set("shape_rejected", artifacts.shape_rejected);
    compile.set("design_hits", artifacts.design_hits);
    compile.set("evictions", artifacts.evictions);
    compile.set("entries", artifacts.entries);
    let mut doc = Json::obj();
    doc.set("type", "stats");
    doc.set("ok", true);
    doc.set("compile", compile);
    doc.set("active_campaigns", active);
    doc.set("completed_campaigns", completed);
    doc
}

/// One `job_done` progress event. `done`/`total` are the campaign's
/// progress counters *including* this job.
pub fn job_event(campaign: &str, report: &JobReport, done: usize, total: usize) -> Json {
    let mut doc = Json::obj();
    doc.set("type", "event");
    doc.set("event", "job_done");
    doc.set("campaign", campaign);
    doc.set("job", report.name.as_str());
    let (outcome, cached, error) = match &report.outcome {
        JobOutcome::Done { cached, .. } => ("done", *cached, None),
        JobOutcome::Failed { error } => ("failed", false, Some(error.clone())),
        JobOutcome::TimedOut { limit } => {
            ("timed_out", false, Some(format!("exceeded {:.1}s watchdog", limit.as_secs_f64())))
        }
    };
    doc.set("outcome", outcome);
    doc.set("cached", cached);
    doc.set("replayed", report.replayed);
    if let Some(error) = error {
        doc.set("error", error);
    }
    doc.set("wall_secs", report.wall.as_secs_f64());
    doc.set("done", done);
    doc.set("total", total);
    doc
}

/// The terminal line of a submission: the full campaign report (the
/// same JSON `mtl-sweep` writes to `BENCH_*.json`).
pub fn campaign_done(campaign: &str, report: Json) -> Json {
    let mut doc = Json::obj();
    doc.set("type", "campaign_done");
    doc.set("ok", true);
    doc.set("campaign", campaign);
    doc.set("report", report);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_parser() {
        assert!(matches!(parse_request(r#"{"op":"hello"}"#), Ok(Request::Hello)));
        assert!(matches!(parse_request(r#"{"op":"stats"}"#), Ok(Request::Stats)));
        assert!(matches!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown)));
        let mut spec = Json::obj();
        spec.set("name", "a");
        let line = submit_request(&spec).to_compact();
        match parse_request(&line) {
            Ok(Request::Submit(got)) => {
                assert_eq!(got.get("name").and_then(Json::as_str), Some("a"))
            }
            other => panic!("expected Submit, got {other:?}"),
        }
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"frob"}"#).is_err());
        assert!(parse_request(r#"{"noop":1}"#).is_err());
        assert!(parse_request(r#"{"op":"submit"}"#).is_err(), "submit without a campaign");
    }
}
