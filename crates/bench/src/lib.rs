//! Shared utilities for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see `DESIGN.md` §5 for the index). The figure
//! binaries declare their measurement points as a spec of `mtl-serve`
//! registry job kinds — the only place a measurement is defined — and
//! print their tables from the report [`run_spec`] returns: kernel runs
//! on a tile (`tile_cycles`, `iss_kernel`), mesh latency and throughput
//! windows (`mesh_cycles`), and the rate measurement behind Figures 14
//! to 16 (`mesh_rate`: a cold build with its construction phases timed,
//! then the steady-state rate from [`mtl_sweep::measure_batched`]), so
//! speedup-vs-run-length curves can be reported exactly the way Figure
//! 14 reports them (solid = steady-state rate ratio, dotted = including
//! one-time overheads).
//!
//! Every campaign binary writes a machine-readable `BENCH_<fig>.json`
//! report (schema in `EXPERIMENTS.md`) next to its stdout tables; set
//! `RUSTMTL_BENCH_DIR` to redirect the reports, `RUSTMTL_JOBS` to control
//! sweep parallelism. Rates measured with many concurrent workers contend
//! for cores: for publication-quality absolute rates run with
//! `RUSTMTL_JOBS=1`; relative shapes (speedup curves) are robust because
//! contention cancels in the ratios.

use std::path::PathBuf;

use mtl_core::Component;
use mtl_net::{MeshTrafficHarness, NetLevel, NetStats};
use mtl_sweep::Json;

/// A bin's command line, checked against the arguments it declares.
pub struct Args {
    usage: String,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process's arguments: `flags` are bare switches,
    /// `values` take one operand. An undeclared argument or a missing
    /// operand prints the usage line on stderr and exits 2 — a
    /// misspelt `--smoke` must not run the full campaign.
    pub fn parse(flags: &[&str], values: &[&str]) -> Args {
        Args::from_argv(std::env::args(), flags, values).unwrap_or_else(|e| usage_exit(&e))
    }

    /// [`Args::parse`] over an explicit argument vector (program name
    /// first), returning the usage error instead of exiting.
    fn from_argv(
        mut argv: impl Iterator<Item = String>,
        flags: &[&str],
        values: &[&str],
    ) -> Result<Args, String> {
        let bin = argv.next().unwrap_or_default();
        let bin = bin.rsplit('/').next().unwrap_or_default();
        let flag_usage: String = flags.iter().map(|f| format!(" [{f}]")).collect();
        let value_usage: String = values.iter().map(|v| format!(" [{v} VALUE]")).collect();
        let usage = format!("usage: {bin}{flag_usage}{value_usage}");
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            if flags.contains(&arg.as_str()) {
                given.push((arg, None));
            } else if values.contains(&arg.as_str()) {
                let value = argv.next().filter(|v| !v.starts_with("--"));
                let value = value.ok_or_else(|| format!("{arg} needs a value\n{usage}"))?;
                given.push((arg, Some(value)));
            } else {
                return Err(format!("unknown argument {arg}\n{usage}"));
            }
        }
        Ok(Args { usage, given })
    }

    /// Whether the switch (or option) `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The operand of `--name VALUE`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    /// The operand of `name` parsed as `T`; an unparsable operand
    /// prints the usage line and exits 2 rather than being ignored.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_parsed(name).unwrap_or_else(|e| usage_exit(&e))
    }

    /// [`Args::parsed`], returning the usage error instead of exiting.
    fn try_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse =
            |v: &str| v.parse().map_err(|_| format!("{name} cannot take \"{v}\"\n{}", self.usage));
        self.value(name).map(parse).transpose()
    }
}

fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Where `BENCH_<name>.json` reports go: `RUSTMTL_BENCH_DIR` if set,
/// otherwise the current directory.
pub fn bench_report_path(name: &str) -> PathBuf {
    let dir = std::env::var("RUSTMTL_BENCH_DIR").unwrap_or_default();
    let base = if dir.is_empty() { PathBuf::from(".") } else { PathBuf::from(dir) };
    base.join(format!("BENCH_{name}.json"))
}

/// Writes a report document to [`bench_report_path`] and echoes the
/// location on stdout — for a campaign report (one with a `summary`)
/// plus its failure counts.
pub fn write_bench_json(doc: &Json, name: &str) {
    let path = bench_report_path(name);
    let mut counts = String::new();
    if doc.get("summary").is_some() {
        counts = format!(
            " ({} jobs, {} failed, {} cached, {} workers, {:.1}s wall)",
            summary_count(doc, "jobs"),
            summary_count(doc, "failed"),
            summary_count(doc, "cached"),
            doc.get("workers").and_then(Json::as_u64).unwrap_or(0),
            doc.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    match std::fs::write(&path, doc.to_pretty()) {
        Ok(()) => println!("\nwrote {}{counts}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// One job's entry in a campaign report document.
pub fn report_job<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
    let jobs = report.get("jobs")?.as_arr()?;
    jobs.iter().find(|j| j.get("name").and_then(Json::as_str) == Some(name))
}

/// One deterministic metric of one job in a report document.
pub fn job_metric(report: &Json, name: &str, key: &str) -> Option<u64> {
    report_job(report, name)?.get("metrics")?.get(key)?.as_u64()
}

/// One wall-clock metric of one job in a report document.
pub fn job_timing(report: &Json, name: &str, key: &str) -> Option<f64> {
    report_job(report, name)?.get("timing")?.get(key)?.as_f64()
}

/// A `mesh_cycles` job's measurement window in a report document:
/// `(accepted packets per 1000 cycles per terminal, mean latency in
/// cycles)`, from its deterministic counts and its `nrouters` param.
pub fn mesh_window(report: &Json, name: &str) -> Option<(f64, f64)> {
    let job = report_job(report, name)?;
    let metric = |key: &str| job.get("metrics")?.get(key)?.as_u64();
    let nrouters: u64 = job.get("params")?.get("nrouters")?.as_str()?.parse().ok()?;
    let (cycles, received) = (metric("cycles")?, metric("received")?);
    let stats =
        NetStats { received, total_latency: metric("total_latency")?, ..NetStats::default() };
    let accepted = received as f64 * 1000.0 / (cycles as f64 * nrouters as f64);
    Some((accepted, stats.avg_latency()))
}

/// One counter of a report document's `summary` (`jobs`, `failed` —
/// every job that did not end `done` — `cached`, `replayed`, …).
pub fn summary_count(report: &Json, key: &str) -> u64 {
    report.get("summary").and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap_or(0)
}

/// Submits a campaign spec to the daemon listening on `socket`, echoing
/// each finished job, and returns the report document it streams back.
///
/// # Errors
///
/// Connection and protocol failures, and the daemon's rejection of a
/// malformed spec.
pub fn submit_spec(socket: &str, spec: &Json) -> Result<Json, String> {
    let mut client = mtl_serve::Client::connect(socket.as_ref())
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    client.hello()?;
    println!("(serve mode: campaign submitted to {socket})");
    client.submit(spec, |event| {
        let s = |k: &str| event.get(k).and_then(Json::as_str).unwrap_or("?");
        let n = |k: &str| event.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!("  [{}/{}] {}: {}", n("done"), n("total"), s("job"), s("outcome"));
    })
}

/// Parses a campaign spec written as JSON text: the campaign's own
/// members (`"name":"sec3c"`, …) and one JSON object per job, in the
/// schema of DESIGN.md §10.
///
/// # Panics
///
/// On text that is not JSON, a bug in the calling bin.
pub fn spec_text(campaign: &str, jobs: &[String]) -> Json {
    let text = format!("{{{campaign},\"jobs\":[{}]}}", jobs.join(","));
    mtl_sweep::json::parse(&text).unwrap_or_else(|e| panic!("malformed spec {text}: {e}"))
}

/// Where the resumable campaigns (`fault_sweep`, `soc_sweep`) journal
/// when run in this process and their spec pins no path.
pub const JOURNAL_DIR: &str = "target/sweep-journal";

/// Runs a campaign spec (the `mtl-serve` registry's schema, DESIGN.md
/// §10) and returns its report document. `serve` only chooses where it
/// runs: in this process, or on the daemon at that socket. In process,
/// a campaign journals under `journal_dir` unless the spec pins a path;
/// with neither, it journals nothing, so a rate campaign measures afresh
/// on every run. Either way the same catalog builds the same jobs,
/// `tables` prints from the same document, and the run ends with the
/// replay summary line and `BENCH_<campaign>.json`.
///
/// # Errors
///
/// A spec the catalog rejects, or a [`submit_spec`] failure.
pub fn run_spec(
    spec: &Json,
    serve: Option<&str>,
    journal_dir: Option<&str>,
    tables: impl FnOnce(&Json),
) -> Result<Json, String> {
    let report = match serve {
        Some(socket) => submit_spec(socket, spec)?,
        None => {
            let defaults = mtl_serve::SpecDefaults {
                cache_dir: None,
                journal_dir: journal_dir.map(PathBuf::from),
            };
            let artifacts = std::sync::Arc::new(mtl_sim::ArtifactCache::new());
            mtl_serve::campaign_from_spec(spec, &defaults, &artifacts)?.run().to_json()
        }
    };
    tables(&report);
    let jobs = report.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    let executed =
        jobs.iter().filter(|j| j.get("attempts").and_then(Json::as_u64).unwrap_or(0) > 0).count();
    println!(
        "\n{} replayed from journal, {} cached, {executed} executed, {} timed out",
        summary_count(&report, "replayed"),
        summary_count(&report, "cached"),
        summary_count(&report, "timed_out"),
    );
    let name = report.get("campaign").and_then(Json::as_str).unwrap_or("campaign");
    write_bench_json(&report, name);
    Ok(report)
}

/// Prints a standard header for a figure binary.
pub fn banner(title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_ref}; see DESIGN.md and EXPERIMENTS.md)");
    println!("==============================================================");
}

/// Every example/bench design family at representative parameters — the
/// shared registry behind `lint_designs`, the tape-optimizer snapshot
/// tests, and ad-hoc sweeps. Deterministic: same list, same order, every
/// call.
pub fn design_registry() -> Vec<(String, Box<dyn Component>)> {
    use mtl_accel::{TileConfig, TileHarness, XcelLevel};
    use mtl_check::{RandomRtl, RtlDesc, RtlShape};
    use mtl_proc::{CacheLevel, ProcLevel, ProcMemHarness};
    use mtl_soc::{Soc, SocConfig, SocTraffic};
    use mtl_stdlib::{
        Adder, BypassQueue, Counter, Crossbar, IntPipelinedMultiplier, Mux, MuxReg, NormalQueue,
        RegEn, RegRst, Register, RegisterFile, RoundRobinArbiter,
    };

    let mut designs: Vec<(String, Box<dyn Component>)> = vec![
        ("stdlib/Register_8".into(), Box::new(Register::new(8))),
        ("stdlib/RegEn_8".into(), Box::new(RegEn::new(8))),
        ("stdlib/RegRst_8".into(), Box::new(RegRst::new(8, 0xAB))),
        ("stdlib/Mux_8x4".into(), Box::new(Mux::new(8, 4))),
        ("stdlib/MuxReg_8x4".into(), Box::new(MuxReg::new(8, 4))),
        ("stdlib/Adder_16".into(), Box::new(Adder::new(16))),
        ("stdlib/Counter_8".into(), Box::new(Counter::new(8))),
        ("stdlib/IntPipelinedMultiplier_16x3".into(), Box::new(IntPipelinedMultiplier::new(16, 3))),
        ("stdlib/RoundRobinArbiter_4".into(), Box::new(RoundRobinArbiter::new(4))),
        ("stdlib/Crossbar_8x4".into(), Box::new(Crossbar::new(8, 4))),
        ("stdlib/RegisterFile_16x32".into(), Box::new(RegisterFile::new(16, 32))),
        ("stdlib/NormalQueue_8x4".into(), Box::new(NormalQueue::new(8, 4))),
        ("stdlib/BypassQueue_8".into(), Box::new(BypassQueue::new(8))),
    ];
    for (name, level) in [("fl", NetLevel::Fl), ("cl", NetLevel::Cl), ("rtl", NetLevel::Rtl)] {
        designs.push((
            format!("net/MeshTrafficHarness_16_{name}"),
            Box::new(MeshTrafficHarness::new(level, 16, 150, 42)),
        ));
    }
    for (name, level) in [("fl", ProcLevel::Fl), ("cl", ProcLevel::Cl), ("rtl", ProcLevel::Rtl)] {
        designs.push((
            format!("proc/ProcMemHarness_{name}"),
            Box::new(ProcMemHarness::new(level, 1 << 12, 1, vec![1, 2, 3])),
        ));
    }
    let uniform = |p, c, x| TileConfig { proc: p, cache: c, xcel: x };
    for (name, config) in [
        ("fl", uniform(ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl)),
        ("cl", uniform(ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl)),
        ("rtl", uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl)),
    ] {
        designs.push((
            format!("accel/TileHarness_{name}"),
            Box::new(TileHarness::new(config, 1 << 12, vec![])),
        ));
    }
    // The golden tables over this registry pin these five designs, so they
    // stay in the generator's original small-width family.
    let shape = RtlShape { word_edges: false, ..RtlShape::default() };
    for seed in 1..=5u64 {
        let desc = RtlDesc::generate(seed, shape);
        designs.push((format!("check/RandomRtl_{seed}"), Box::new(RandomRtl::from_desc(desc))));
    }
    // Hierarchical compositions: the 4-tile SoC exercises exact paths
    // through tile → adapter → router boundaries at every level.
    designs.push((
        "soc/Soc_4t_syn_rtl".into(),
        Box::new(Soc::new(SocConfig::synthetic(4, NetLevel::Rtl, SocTraffic::UniformRandom))),
    ));
    for (name, net, p, cc, x) in [
        ("fl", NetLevel::Fl, ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl),
        ("cl", NetLevel::Cl, ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl),
        ("rtl", NetLevel::Rtl, ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl),
    ] {
        let tile = uniform(p, cc, x);
        designs.push((
            format!("soc/Soc_4t_cmp_{name}"),
            Box::new(Soc::new(SocConfig::compute(4, tile, net, SocTraffic::UniformRandom))),
        ));
    }
    designs
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn args(argv: &[&str]) -> Result<Args, String> {
        let argv = std::iter::once("bin").chain(argv.iter().copied()).map(String::from);
        Args::from_argv(argv, &["--smoke"], &["--journal", "--jobs"])
    }

    #[test]
    fn declared_arguments_parse() {
        let a = args(&["--smoke", "--jobs", "3"]).unwrap();
        assert!(a.flag("--smoke") && a.flag("--jobs") && !a.flag("--journal"));
        assert_eq!(a.try_parsed::<usize>("--jobs"), Ok(Some(3)));
        assert_eq!(a.try_parsed::<usize>("--journal"), Ok(None));
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        let usage = "usage: bin [--smoke] [--journal VALUE] [--jobs VALUE]";
        let unknown = args(&["--smoek"]).err().unwrap();
        assert_eq!(unknown, format!("unknown argument --smoek\n{usage}"));
        for missing in [&["--journal"][..], &["--journal", "--smoke"]] {
            assert_eq!(args(missing).err().unwrap(), format!("--journal needs a value\n{usage}"));
        }
        let unparsable = args(&["--jobs", "x"]).unwrap().try_parsed::<usize>("--jobs");
        assert_eq!(unparsable, Err(format!("--jobs cannot take \"x\"\n{usage}")));
    }
}
