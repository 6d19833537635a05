//! `perf_ledger`: the repository's benchmark.
//!
//! Seven named workloads drive the crates through their public functions
//! only and report the two end-to-end metrics (`setup_s`, `work_per_s`)
//! each, untraced; a traced run of the same workload decomposes the
//! composite calls into spans and reports the per-layer metrics. Every name, unit and bound lives in
//! `BENCHMARK.json`. See `README.md` next to this file.
//!
//! ```text
//! perf_ledger --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! perf_ledger [--seed N] [--seconds S] [--sets K] [--out DIR] full sets, one child process per run
//! perf_ledger --compare A.json B.json                         apply the bounds to two ledgers
//! perf_ledger --list                                          declared names, units, bounds
//! ```

mod bringup;
mod build_sweep;
mod calibrate;
mod compare;
mod fault;
mod host;
mod run;
mod serve;
mod spec;
mod stats;
mod steady;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mtl_sweep::Json;

use run::{Ctx, RunResult, Scale};
use spec::Spec;

/// Runs one workload in this process.
fn run_workload(
    spec: &Spec,
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> (RunResult, Vec<trace::Span>) {
    let mut ctx = Ctx::new(spec, seed, seconds, traced, scale);
    trace::drain();
    trace::set_enabled(traced);
    match name {
        "mesh64_rtl_steady" => steady::run(steady::Kind::MeshRtl, &mut ctx),
        "mesh64_cl_steady" => steady::run(steady::Kind::MeshCl, &mut ctx),
        "soc64_rtl_par2" => steady::run(steady::Kind::SocPar2, &mut ctx),
        "build_sweep" => build_sweep::run(&mut ctx),
        "fault_batch_mesh16" => fault::run(fault::Kind::Batch, &mut ctx),
        "fault_scalar_mesh16" => fault::run(fault::Kind::Scalar, &mut ctx),
        "serve_roundtrip" => serve::run(&mut ctx),
        other => panic!("workload {other} is declared in BENCHMARK.json but not implemented"),
    }
    trace::set_enabled(false);
    let spans = trace::drain();
    if traced {
        layer_shares(&mut ctx, &spans);
    }
    (ctx.into_result(name), spans)
}

/// Each layer's share of the self time on the measured path (checks,
/// probes, reference series and waits left out; see `trace::OFF_PATH`),
/// and the traced process's wall time and span count.
fn layer_shares(ctx: &mut Ctx, spans: &[trace::Span]) {
    let by_layer = trace::layer_self_secs(spans, trace::Scope::MeasuredPath);
    let total: f64 = by_layer.values().sum();
    for (layer, secs) in &by_layer {
        let share = if total == 0.0 { 0.0 } else { secs / total * 100.0 };
        ctx.metrics.value(&format!("share.{layer}"), share);
    }
    let wall = spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == "run")
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9);
    ctx.metrics.value("trace.wall_s", wall);
    ctx.metrics.value("trace.spans", spans.len() as f64);
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }
}

/// One workload, one process: the mode the driver and the full-set
/// parent both use. Prints `workload metric value unit` lines and, last,
/// the contract's JSON object.
fn single_run(spec: &Spec, args: &Args, workload: &str) -> Result<(), String> {
    if !spec.workloads.iter().any(|(name, _)| name == workload) {
        return Err(format!("unknown workload {workload}; --list prints the declared ones"));
    }
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(spec.run_seconds as f64);
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be between 0 and 60, got {seconds}"));
    }
    let (result, spans) = run_workload(spec, workload, seed, seconds, traced, Scale::Full);
    for note in &result.notes {
        eprintln!("perf_ledger: {workload}: {note}");
    }
    if let Some(path) = args.value("--record") {
        let mut doc = result.to_json();
        if traced {
            doc.set("layer_self_s", self_time_json(&spans));
        }
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = args.value("--trace-out") {
        std::fs::write(path, trace::to_json(&spans).to_compact())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", result.table());
    println!("{}", result.contract_line());
    Ok(())
}

/// Self seconds per layer and, within each layer, per span name.
fn self_time_json(spans: &[trace::Span]) -> Json {
    let by_layer = trace::layer_self_secs(spans, trace::Scope::Everything);
    let mut doc = Json::obj();
    for (layer, secs) in by_layer {
        let mut names = Json::obj();
        for (name, secs) in trace::name_self_secs(spans, layer) {
            names.set(name, secs);
        }
        let mut o = Json::obj();
        o.set("self_s", secs).set("by_span", names);
        doc.set(layer, o);
    }
    doc
}

/// Runs `perf_ledger --workload …` as a child process (its own peak RSS,
/// its own allocator state, a scrubbed environment) and reads its record.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<(Json, Json), String> {
    let tag = format!("{workload}.{}", if traced { "traced" } else { "untraced" });
    let record = dir.join(format!("{tag}.record.json"));
    let spans = dir.join(format!("{tag}.spans.json"));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--record")
        .arg(&record);
    if traced {
        cmd.arg("--trace-out").arg(&spans);
    }
    let output =
        cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{tag} exited with {}", output.status));
    }
    let read = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = mtl_sweep::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = std::fs::remove_file(path);
        Ok(doc)
    };
    let record = read(&record)?;
    let spans = if traced { read(&spans)? } else { Json::Arr(Vec::new()) };
    Ok((record, spans))
}

/// Full sets: for every workload an untraced and a traced child run.
/// Writes `ledger.json` and `trace.json` and prints the ledger.
fn full_sets(spec: &Spec, args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(spec.run_seconds as f64);
    let sets: usize = args.parsed("--sets")?.unwrap_or(1);
    let out = PathBuf::from(args.value("--out").unwrap_or("target/perf_ledger"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let mut ledger = Json::obj();
    ledger
        .set("benchmark", "perf_ledger")
        .set("claim", Json::Null)
        .set("host", host::stamp(seed, seconds));
    let (mut set_docs, mut trace_docs) = (Vec::new(), Vec::new());
    let mut all_correct = true;
    for set in 0..sets {
        let mut workloads = Json::obj();
        let mut traces = Json::obj();
        for (workload, _) in &spec.workloads {
            let (untraced, _) = child_run(workload, seed, seconds, false, &out)?;
            let (traced, spans) = child_run(workload, seed, seconds, true, &out)?;
            for (label, record) in [("untraced", &untraced), ("traced", &traced)] {
                all_correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
                print_record(workload, label, record);
            }
            let mut entry = Json::obj();
            entry.set("end_to_end", untraced).set("per_layer", traced);
            workloads.set(workload.as_str(), entry);
            traces.set(workload.as_str(), spans);
        }
        let mut doc = Json::obj();
        doc.set("set", set).set("seed", seed).set("workloads", workloads);
        set_docs.push(doc);
        trace_docs.push(traces);
    }
    ledger.set("sets", Json::Arr(set_docs));
    let ledger_path = out.join("ledger.json");
    std::fs::write(&ledger_path, ledger.to_pretty())
        .map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    let trace_path = out.join("trace.json");
    std::fs::write(&trace_path, Json::Arr(trace_docs).to_compact())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("\nwrote {} and {}", ledger_path.display(), trace_path.display());
    if all_correct {
        Ok(())
    } else {
        Err("at least one run failed a correctness check (see ops_failed and notes)".to_string())
    }
}

fn print_record(workload: &str, label: &str, record: &Json) {
    let n = |key: &str| record.get(key).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "\n== {workload} ({label}): ops_attempted {} ops_failed {}",
        n("ops_attempted"),
        n("ops_failed")
    );
    for (name, m) in record.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{workload} {name} {value} {unit}");
    }
    if let Some(layers) = record.get("layer_self_s").and_then(Json::as_obj) {
        let total: f64 = layers.iter().filter_map(|(_, l)| l.get("self_s")?.as_f64()).sum();
        for (layer, l) in layers {
            let secs = l.get("self_s").and_then(Json::as_f64).unwrap_or(0.0);
            if secs > 0.0 {
                println!(
                    "{workload} self_time {layer} {secs:.3} s ({:.1}% of thread-time)",
                    secs / total * 100.0
                );
            }
        }
    }
}

fn main() -> ExitCode {
    host::scrub_env();
    let args = Args(std::env::args().skip(1).collect());
    let spec = Spec::load();
    let outcome = if args.flag("--list") {
        print!("{}", spec.render());
        Ok(())
    } else if args.flag("--compare") {
        compare::main(&spec, &args.0)
    } else if let Some(workload) = args.value("--workload") {
        single_run(&spec, &args, workload)
    } else if args.flag("--workload") {
        Err("--workload needs a name".to_string())
    } else {
        full_sets(&spec, &args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-scale pass over every declared workload, untraced and
    /// traced: checks pass, exactly the declared names come out, and the
    /// exact counts repeat across two runs of one seed. One test, so the
    /// process-wide span recorder is never shared between runs.
    #[test]
    fn every_workload_passes_its_checks_and_repeats_its_exact_counts() {
        let spec = Spec::load();
        let names = |decls: &[spec::MetricDecl]| -> Vec<String> {
            decls.iter().map(|m| m.name.clone()).collect()
        };
        let emitted =
            |r: &RunResult| -> Vec<String> { r.readings.iter().map(|m| m.name.clone()).collect() };
        for (workload, _) in &spec.workloads {
            let (plain, spans) = run_workload(&spec, workload, 11, 0.0, false, Scale::Tiny);
            assert!(plain.correct && plain.failed == 0, "{workload}: {:?}", plain.notes);
            assert!(spans.is_empty(), "{workload}: an untraced run records no spans");
            assert_eq!(emitted(&plain), names(&spec.end_to_end), "{workload}");
            for r in &plain.readings {
                assert!(r.summary.median > 0.0, "{workload}: {} must never be 0", r.name);
            }
            let gated: Vec<&str> = plain.gated.iter().map(|r| r.name.as_str()).collect();
            assert!(gated.iter().all(|n| spec::ledger_bound(n).is_some()), "{workload}: {gated:?}");
            assert!(gated.contains(&"host.peak_rss_mb"), "{workload}: {gated:?}");
            let has_gap = gated.contains(&"net.handwritten_gap");
            assert_eq!(has_gap, workload == "mesh64_rtl_steady", "{workload}: {gated:?}");

            let (first, spans) = run_workload(&spec, workload, 11, 0.0, true, Scale::Tiny);
            let (second, _) = run_workload(&spec, workload, 11, 0.0, true, Scale::Tiny);
            assert!(first.correct && second.correct, "{workload}: {:?}", first.notes);
            assert_eq!(emitted(&first), names(&spec.per_layer), "{workload}");
            let exact = |r: &RunResult| -> Vec<(String, f64)> {
                let exact = r.readings.iter().filter(|m| m.exact);
                exact.map(|m| (m.name.clone(), m.summary.median)).collect()
            };
            assert!(!exact(&first).is_empty(), "{workload}: no exact count emitted");
            assert_eq!(exact(&first), exact(&second), "{workload}: exact counts must repeat");

            let share: f64 = first
                .readings
                .iter()
                .filter(|m| m.name.starts_with("share."))
                .map(|m| m.summary.median)
                .sum();
            assert!((share - 100.0).abs() < 1e-6, "{workload}: layer shares sum to {share}");
            assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0), "{workload}");
        }
    }
}
