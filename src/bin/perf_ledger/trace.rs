//! Span recording around the calls into each layer.
//!
//! Spans are recorded from this harness only — the crates are driven
//! through their public functions and carry no instrumentation. They are
//! kept in memory and written out once, when the run ends. A layer's
//! *self time* is its spans' duration minus the part their child spans
//! cover. A span's parent is the span enclosing it on the same thread, so
//! a worker thread's spans are roots of their own (the operation id ties
//! them to the repetition that spawned them) and self times over all
//! layers add up to the thread-seconds under the root spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use mtl_sweep::Json;

/// The layers self time is attributed to, in report order. `harness` is
/// this program's own glue (model construction, checks, waiting on
/// worker threads).
pub const LAYERS: [&str; 9] =
    ["core", "sim.build", "sim.run", "translate", "net", "fault", "sweep", "serve", "harness"];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// The window / repetition / submission this span belongs to.
    pub op: u32,
    pub thread: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    t0: Instant,
    enabled: AtomicBool,
    threads: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

struct ThreadState {
    id: Option<u32>,
    op: u32,
    stack: Vec<u32>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> =
        const { RefCell::new(ThreadState { id: None, op: 0, stack: Vec::new() }) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        t0: Instant::now(),
        enabled: AtomicBool::new(false),
        threads: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns recording on or off. Off is the default: an untraced run pays
/// one relaxed load per span site.
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    RECORDER.get().is_some_and(|r| r.enabled.load(Ordering::Relaxed))
}

/// Tags the spans this thread opens from now on with an operation id.
pub fn set_op(op: u32) {
    THREAD.with(|t| t.borrow_mut().op = op);
}

/// An open span; closes when dropped.
pub struct Guard(Option<u32>);

/// Opens a span on the calling thread (a no-op while recording is off).
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
    let rec = recorder();
    let id = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let thread = *t.id.get_or_insert_with(|| rec.threads.fetch_add(1, Ordering::Relaxed));
        let mut spans = rec.spans.lock().unwrap_or_else(|e| e.into_inner());
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent: t.stack.last().copied(),
            op: t.op,
            thread,
            layer,
            name,
            start_ns: rec.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        t.stack.push(id);
        id
    });
    Guard(Some(id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let rec = recorder();
        let end = rec.t0.elapsed().as_nanos() as u64;
        rec.spans.lock().unwrap_or_else(|e| e.into_inner())[id as usize].end_ns = end;
        THREAD.with(|t| {
            let popped = t.borrow_mut().stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order per thread");
        });
    }
}

/// Runs `f` inside a span and returns its result with the wall seconds
/// it took (measured whether or not recording is on).
pub fn timed<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = span(layer, name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `f` with recording off, inside one `untraced_reference` span, so
/// the time is accounted for but nothing inside it is recorded: the same
/// work run plain, whose ratio to the traced work is the tracing overhead.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let _span = span("harness", "untraced_reference");
    let was = enabled();
    set_enabled(false);
    let out = f();
    set_enabled(was);
    out
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    match RECORDER.get() {
        Some(rec) => std::mem::take(&mut *rec.spans.lock().unwrap_or_else(|e| e.into_inner())),
        None => Vec::new(),
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns.saturating_sub(s.start_ns)).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

/// Spans that are not the workload's measured work: correctness checks,
/// one-off probes, reference series, plain
/// repetitions, all set-ups but the one whose result is measured, and
/// waiting on threads whose own spans account for the time.
const OFF_PATH: [&str; 6] =
    ["check", "probes", "handwritten", "untraced_reference", "setup_repeat", "wait"];

/// Which spans [`layer_self_secs`] adds up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every span: the figures add up to the thread-seconds under the
    /// root spans.
    Everything,
    /// The measured work only: spans named in `OFF_PATH`, and everything
    /// under them, are left out (their parents do not absorb the time).
    MeasuredPath,
}

/// Self seconds per layer.
pub fn layer_self_secs(spans: &[Span], scope: Scope) -> BTreeMap<&'static str, f64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let off_path = |span: &Span| {
        let mut at = Some(span);
        while let Some(s) = at {
            if OFF_PATH.contains(&s.name) {
                return true;
            }
            at = s.parent.and_then(|p| index.get(&p)).map(|&p| &spans[p]);
        }
        false
    };
    let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for (span, own) in spans.iter().zip(self_nanos(spans)) {
        if scope == Scope::Everything || !off_path(span) {
            *by_layer.entry(span.layer).or_default() += own as f64 / 1e9;
        }
    }
    by_layer
}

/// Self seconds per span name within one layer (the report's drill-down).
pub fn name_self_secs(spans: &[Span], layer: &str) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_nanos(spans)) {
        if span.layer == layer {
            *by_name.entry(span.name).or_default() += own as f64 / 1e9;
        }
    }
    by_name
}

pub fn to_json(spans: &[Span]) -> Json {
    let items: Vec<Json> = spans
        .iter()
        .map(|s| {
            let mut o = Json::obj();
            o.set("id", s.id)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("op", s.op)
                .set("thread", s.thread)
                .set("layer", s.layer)
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns);
            o
        })
        .collect();
    Json::Arr(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(
        id: u32,
        parent: Option<u32>,
        thread: u32,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span { id, parent, op: 0, thread, layer, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span_at(0, None, 0, "harness", 0, 1_000),
            span_at(1, Some(0), 0, "core", 100, 300),
            span_at(2, Some(0), 0, "sim.build", 300, 900),
            span_at(3, Some(2), 0, "sim.run", 400, 500),
            // A worker thread running in parallel is a root of its own.
            span_at(4, None, 1, "fault", 0, 800),
        ];
        assert_eq!(self_nanos(&spans), vec![200, 200, 500, 100, 800]);
        let layers = layer_self_secs(&spans, Scope::Everything);
        assert!((layers["harness"] - 200e-9).abs() < 1e-15);
        assert!((layers["sim.build"] - 500e-9).abs() < 1e-15);
        assert_eq!(layers["serve"], 0.0);
        let total: f64 = layers.values().sum();
        // Thread 0's root covers 1000 ns and thread 1's 800 ns.
        assert!((total - 1_800e-9).abs() < 1e-15);

        // A check and everything under it is off the measured path.
        let mut spans = spans;
        spans[2].name = "check";
        let on_path = layer_self_secs(&spans, Scope::MeasuredPath);
        assert_eq!(on_path["sim.build"] + on_path["sim.run"], 0.0);
        assert!((on_path["harness"] - 200e-9).abs() < 1e-15, "the parent does not absorb it");
    }
}
