//! What every workload shares: the run context, the metric sink that
//! enforces the declared names, and the fixed-work window loop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use mtl_sweep::Json;

use crate::calibrate::Calibrator;
use crate::host;
use crate::spec::{ledger_bound, Kind, Spec};
use crate::stats::{median, Summary};
use crate::trace;

/// `Full` is the benchmark; `Tiny` shrinks every design and window so the
/// unit tests can pass over all workloads in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Collects one run's metrics and holds them to `BENCHMARK.json`: a name
/// that is not declared, or a declared name the run neither measures nor
/// marks as untouched, makes the run incorrect.
pub struct Metrics {
    kind: Kind,
    spec: Spec,
    values: BTreeMap<String, (Summary, bool)>,
    /// Untraced readings of [`crate::spec::LEDGER_BOUNDS`] names.
    gated: Vec<Reading>,
    errors: Vec<String>,
}

/// One finished metric, in declaration order.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
    /// An exact count: identical between runs of one seed.
    pub exact: bool,
}

impl Metrics {
    pub fn new(spec: &Spec, kind: Kind) -> Metrics {
        Metrics {
            kind,
            spec: spec.clone(),
            values: BTreeMap::new(),
            gated: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, summary: Summary, exact: bool) {
        let here = self.spec.metrics(self.kind).iter().any(|m| m.name == name);
        if here {
            if self.values.insert(name.to_string(), (summary, exact)).is_some() {
                self.errors.push(format!("metric {name} set twice"));
            }
            return;
        }
        // A name declared in the other list belongs to the other run,
        // except that the untraced run keeps the per-layer figures
        // `--compare` holds to a bound.
        match self.spec.decl(name) {
            None => self.errors.push(format!("metric {name} is not declared in BENCHMARK.json")),
            Some(decl) if self.kind == Kind::EndToEnd && ledger_bound(name).is_some() => {
                let unit = decl.unit.clone();
                self.gated.push(Reading { name: name.to_string(), unit, summary, exact });
            }
            Some(_) => {}
        }
    }

    /// The untraced run's readings of the [`crate::spec::LEDGER_BOUNDS`] figures.
    pub fn take_gated(&mut self) -> Vec<Reading> {
        std::mem::take(&mut self.gated)
    }

    /// A timing or rate with its supporting quartiles.
    pub fn set(&mut self, name: &str, summary: Summary) {
        self.put(name, summary, false);
    }

    /// A single derived reading.
    pub fn value(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value), false);
    }

    /// A simulated statistic or structural count.
    pub fn exact(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value), true);
    }

    /// Declares that this workload does no work in the layers whose
    /// metric names start with one of `prefixes`: they read zero.
    pub fn untouched(&mut self, prefixes: &[&str]) {
        let names: Vec<String> = self
            .spec
            .metrics(self.kind)
            .iter()
            .map(|m| m.name.clone())
            .filter(|n| prefixes.iter().any(|p| n.starts_with(p)) && !self.values.contains_key(n))
            .collect();
        for name in names {
            self.values.insert(name, (Summary::single(0.0), false));
        }
    }

    /// The readings in declaration order, or every naming error.
    pub fn finish(&mut self) -> Result<Vec<Reading>, Vec<String>> {
        let mut readings = Vec::new();
        for decl in self.spec.metrics(self.kind) {
            match self.values.remove(&decl.name) {
                Some((summary, exact)) => readings.push(Reading {
                    name: decl.name.clone(),
                    unit: decl.unit.clone(),
                    summary,
                    exact,
                }),
                None => self.errors.push(format!("declared metric {} was not emitted", decl.name)),
            }
        }
        if self.errors.is_empty() {
            Ok(readings)
        } else {
            Err(std::mem::take(&mut self.errors))
        }
    }
}

/// Everything a workload needs for one run.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured windows run in total.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub metrics: Metrics,
    /// Windows, bring-ups, trials, submissions and checks performed.
    pub attempted: u64,
    /// Those whose check failed; each counts as missing every bound.
    pub failed: u64,
    pub notes: Vec<String>,
    calibrator: Calibrator,
    /// Host-speed samples taken between this run's set-ups and windows.
    host_speed: Vec<f64>,
    tmp: PathBuf,
}

static TMP_COUNTER: AtomicU32 = AtomicU32::new(0);

impl Ctx {
    pub fn new(spec: &Spec, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Ctx {
        let kind = if trace { Kind::PerLayer } else { Kind::EndToEnd };
        // Scratch files live under the build directory, which is already
        // ignored. The path is kept relative to the working directory when
        // possible: a unix socket path must fit in about a hundred bytes.
        let base = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()));
        let base = match std::env::current_dir() {
            Ok(cwd) => base.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(base),
            Err(_) => base,
        };
        let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = base.join("perf_ledger_tmp").join(format!("{}_{unique}", std::process::id()));
        Ctx {
            seed,
            seconds,
            trace,
            scale,
            metrics: Metrics::new(spec, kind),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            calibrator: Calibrator::new(1),
            host_speed: Vec::new(),
            tmp,
        }
    }

    /// Calibrates on `threads` threads from now on: a workload that keeps
    /// two cores busy is slowed by a slow spell on either.
    pub fn calibrate_on(&mut self, threads: usize) {
        self.calibrator = Calibrator::new(threads);
    }

    /// Takes one host-speed sample (see [`crate::calibrate`]). Set-ups and
    /// windows are bracketed by samples automatically. Only the untraced
    /// run's timings are normalised, so only it samples.
    pub fn calibrate(&mut self) {
        if !self.trace {
            let speed = self.calibrator.host_speed();
            self.host_speed.push(speed);
        }
    }

    /// Median host speed over this run's samples (1.0 without any).
    pub fn host_speed(&self) -> f64 {
        if self.host_speed.is_empty() {
            1.0
        } else {
            median(&self.host_speed)
        }
    }

    /// This run's private scratch directory (created on first use,
    /// removed when the context is dropped).
    pub fn tmp_dir(&self) -> &Path {
        std::fs::create_dir_all(&self.tmp).expect("scratch directory under the build directory");
        &self.tmp
    }

    /// Records one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("check failed: {what}"));
        }
    }

    /// Repeats set-up `reps` times (once at tiny scale), reports the
    /// median as `setup_s` and returns what the last repetition built.
    /// Each repetition's result is released before the next starts. Only
    /// the last repetition is on the traced run's measured path.
    pub fn set_up<T>(&mut self, reps: usize, mut set_up: impl FnMut(usize) -> T) -> T {
        let reps = if self.scale == Scale::Tiny { 1 } else { reps };
        let mut secs = Vec::new();
        let mut kept = None;
        for rep in 0..reps {
            drop(kept.take());
            self.calibrate();
            let _span = (rep + 1 < reps).then(|| trace::span("harness", "setup_repeat"));
            let t0 = Instant::now();
            kept = Some(set_up(rep));
            secs.push(t0.elapsed().as_secs_f64());
        }
        self.metrics.set("setup_s", Summary::of(&secs));
        kept.expect("at least one set-up")
    }

    /// Fewest windows a run may report a median over. A traced run's
    /// timings only explain the untraced ones, so it gets by with fewer.
    pub fn min_windows(&self) -> usize {
        match (self.scale, self.trace) {
            (Scale::Full, false) => 7,
            (Scale::Full, true) => 3,
            (Scale::Tiny, _) => 1,
        }
    }

    /// Runs equal fixed-work windows until `budget_secs` have passed and
    /// at least [`Ctx::min_windows`] are in; returns what each window
    /// returned. Every window counts as one attempted operation.
    pub fn windows<T>(&mut self, budget_secs: f64, mut window: impl FnMut(usize) -> T) -> Vec<T> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < self.min_windows() || start.elapsed().as_secs_f64() < budget_secs {
            self.calibrate();
            out.push(window(out.len()));
            self.attempted += 1;
        }
        self.calibrate();
        self.record_peak_rss();
        out
    }

    /// Reads the process's peak resident set. Called when the measured
    /// work is done and before the correctness checks and probes build
    /// their reference simulators, so the figure is the workload's own.
    pub fn record_peak_rss(&mut self) {
        self.metrics.value("host.peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0));
    }

    /// Closes the run: a run is correct when no check failed and every
    /// declared metric, and no other, was emitted. The untraced run's
    /// timings are expressed in seconds of an unloaded reference core:
    /// times are multiplied by the run's host speed and rates divided by
    /// it; ratios, sizes and counts are left alone.
    pub fn into_result(mut self, workload: &str) -> RunResult {
        let mut notes = std::mem::take(&mut self.notes);
        let mut gated = self.metrics.take_gated();
        let (mut readings, named) = match self.metrics.finish() {
            Ok(readings) => (readings, true),
            Err(errors) => {
                notes.extend(errors);
                (Vec::new(), false)
            }
        };
        let host_speed = self.host_speed();
        for r in readings.iter_mut().chain(&mut gated).filter(|_| !self.trace) {
            r.summary = match r.unit.as_str() {
                "s" | "ms" => r.summary.map(|time| time * host_speed),
                "1/s" => r.summary.map(|rate| rate / host_speed),
                _ => r.summary,
            };
        }
        RunResult {
            host_speed,
            workload: workload.to_string(),
            correct: self.failed == 0 && named,
            attempted: self.attempted.max(1),
            failed: self.failed,
            readings,
            gated,
            notes,
        }
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    /// Median host speed during an untraced run, whose timings are
    /// already normalised by it; 1.0 for a traced run.
    pub host_speed: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Vec<Reading>,
    /// Untraced readings of per-layer names `--compare` also gates; kept
    /// in the ledger, not in the driver's contract line.
    pub gated: Vec<Reading>,
    pub notes: Vec<String>,
}

impl RunResult {
    /// The driver's contract: one object with exactly these four keys.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for r in &self.readings {
            let mut m = Json::obj();
            m.set("value", r.summary.median).set("unit", r.unit.as_str());
            metrics.set(r.name.as_str(), m);
        }
        let mut o = Json::obj();
        o.set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        o.to_compact()
    }

    /// `workload metric value unit`, one line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for r in self.readings.iter().chain(&self.gated) {
            let v = r.summary.median;
            let spread = if r.summary.n > 1 {
                format!("  (n={} iqr {:.1}%)", r.summary.n, r.summary.spread() * 100.0)
            } else {
                String::new()
            };
            out.push_str(&format!("{} {} {v} {}{spread}\n", self.workload, r.name, r.unit));
        }
        out
    }

    /// The full record the ledger keeps (quartiles, exact flags, notes).
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        let mut exact: Vec<Json> = Vec::new();
        for r in &self.readings {
            metrics.set(r.name.as_str(), r.summary.to_json(&r.unit));
            if r.exact {
                exact.push(Json::Str(r.name.clone()));
            }
        }
        let mut gated = Json::obj();
        for r in &self.gated {
            gated.set(r.name.as_str(), r.summary.to_json(&r.unit));
        }
        let mut o = Json::obj();
        o.set("correct", self.correct)
            .set("host_speed", self.host_speed)
            .set("ops_attempted", self.attempted)
            .set("ops_failed", self.failed)
            .set("metrics", metrics)
            .set("gated", gated)
            .set("exact", Json::Arr(exact))
            .set("notes", self.notes.clone());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_rejects_undeclared_names_and_reports_omitted_ones() {
        let spec = Spec::load();
        let mut m = Metrics::new(&spec, Kind::EndToEnd);
        m.value("setup_s", 1.0);
        m.value("no_such_metric", 1.0);
        // Declared per-layer: belongs to the traced run, silently dropped.
        m.value("core.elaborate_s", 1.0);
        let errors = m.finish().unwrap_err();
        assert!(errors.iter().any(|e| e.contains("no_such_metric")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("work_per_s was not emitted")), "{errors:?}");
        assert!(!errors.iter().any(|e| e.contains("core.elaborate_s")), "{errors:?}");

        let mut m = Metrics::new(&spec, Kind::PerLayer);
        m.exact("core.signals", 7.0);
        m.untouched(&[""]);
        let readings = m.finish().unwrap();
        assert_eq!(readings.len(), spec.per_layer.len());
        let signals = readings.iter().find(|r| r.name == "core.signals").unwrap();
        assert!(signals.exact && signals.summary.median == 7.0, "untouched never overwrites");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let result = RunResult {
            workload: "w".into(),
            host_speed: 1.0,
            correct: true,
            attempted: 3,
            failed: 0,
            readings: vec![Reading {
                name: "setup_s".into(),
                unit: "s".into(),
                summary: Summary::single(0.25),
                exact: false,
            }],
            gated: Vec::new(),
            notes: Vec::new(),
        };
        let line = mtl_sweep::json::parse(&result.contract_line()).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
