//! The checked record: how one finished job is written to disk.
//!
//! Both persistent stores — a [`ResultCache`](crate::ResultCache) entry
//! file and a [`Journal`](crate::Journal) line — hold the same object:
//! `fingerprint`, `name`, `metrics`, `timing`, an optional `profile`, and
//! a `check` field, the FNV-1a of the compact rendering of everything
//! before it. The emitter is byte-stable and the parser preserves field
//! order, so the check survives a write → parse → re-render round trip,
//! while any flipped bit in the payload — even one that still parses, in
//! a digit or a key name — changes it. Bad stored bytes must never
//! become silent bad results.

use crate::cache::fnv1a;
use crate::job::JobMetrics;
use crate::json::{self, Json};

/// Encodes one finished job; render with `to_compact` or `to_pretty`.
pub(crate) fn encode(fingerprint: u64, name: &str, metrics: &JobMetrics) -> Json {
    let (det, timing, profile) = metrics.to_json();
    let mut doc = Json::obj();
    doc.set("fingerprint", format!("{fingerprint:016x}"))
        .set("name", name)
        .set("metrics", det)
        .set("timing", timing);
    if let Some(profile) = profile {
        doc.set("profile", profile);
    }
    let check = checksum(&doc);
    doc.set("check", check);
    doc
}

/// Decodes a record, or `None` if the text does not parse, lacks a field,
/// or fails its check.
pub(crate) fn decode(text: &str) -> Option<(u64, JobMetrics)> {
    let doc = json::parse(text).ok()?;
    if doc.get("check")?.as_str()? != checksum(&doc) {
        return None;
    }
    let fingerprint = u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()?;
    let metrics = JobMetrics::from_json(doc.get("metrics"), doc.get("timing"), doc.get("profile"))?;
    Some((fingerprint, metrics))
}

/// FNV-1a over the compact rendering of every field except `check`.
fn checksum(doc: &Json) -> String {
    let fields = doc.as_obj().map(|f| f.iter().filter(|(k, _)| k != "check").cloned().collect());
    format!("{:016x}", fnv1a(&Json::Obj(fields.unwrap_or_default()).to_compact()))
}
