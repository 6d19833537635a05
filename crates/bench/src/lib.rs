//! Shared measurement utilities for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see `DESIGN.md` §5 for the index). The figure
//! binaries declare [`mtl_sweep::Campaign`]s of independent measurement
//! [`Job`]s; the shared methodology lives here: build a simulator inside
//! the job, measure its steady-state simulation rate (cycles/second) with
//! [`mtl_sweep::measure_batched`] (warmup excluded from the timed window,
//! batch doubling clamped to the cycle cap), and capture its construction
//! overheads, so speedup-vs-run-length curves can be reported exactly the
//! way Figure 14 reports them (solid = steady-state rate ratio, dotted =
//! including one-time overheads).
//!
//! Every campaign binary writes a machine-readable `BENCH_<fig>.json`
//! report (schema in `EXPERIMENTS.md`) next to its stdout tables; set
//! `RUSTMTL_BENCH_DIR` to redirect the reports, `RUSTMTL_JOBS` to control
//! sweep parallelism. Rates measured with many concurrent workers contend
//! for cores: for publication-quality absolute rates run with
//! `RUSTMTL_JOBS=1`; relative shapes (speedup curves) are robust because
//! contention cancels in the ratios.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mtl_core::Component;
use mtl_net::{MeshTrafficHarness, NetLevel};
use mtl_sim::{Engine, Overheads, Sim, SimConfig, SimProfile};
use mtl_sweep::{measure_batched, Job, JobCtx, JobMetrics, Json};

/// A measured simulation rate plus its construction overheads.
#[derive(Debug, Clone, Copy)]
pub struct RateMeasurement {
    /// Simulated cycles per wall-clock second, steady state.
    pub cycles_per_sec: f64,
    /// One-time construction overheads.
    pub overheads: Overheads,
    /// Cycles actually simulated during measurement.
    pub measured_cycles: u64,
}

impl RateMeasurement {
    /// Wall-clock time to simulate `n` target cycles, excluding
    /// overheads.
    pub fn sim_time(&self, n: u64) -> f64 {
        n as f64 / self.cycles_per_sec
    }

    /// Wall-clock time including one-time overheads.
    pub fn total_time(&self, n: u64) -> f64 {
        self.sim_time(n) + self.overheads.total().as_secs_f64()
    }
}

/// Builds a simulator for `top` and measures its simulation rate.
///
/// Runs a short untimed warmup, restarts the clock, then measures in
/// doubling batches until at least `min_wall` has elapsed or exactly
/// `max_cycles` have been simulated (batches are clamped, never
/// overshooting the cap — short `cap`-bounded RTL measurements execute
/// precisely the budgeted cycles).
pub fn measure_rate(
    top: &dyn Component,
    engine: Engine,
    min_wall: Duration,
    max_cycles: u64,
) -> RateMeasurement {
    measure_rate_bounded(top, engine, min_wall, max_cycles, None)
}

/// [`measure_rate`] with an optional hard deadline (used by campaign jobs
/// to honor their wall-clock budget cooperatively).
pub fn measure_rate_bounded(
    top: &dyn Component,
    engine: Engine,
    min_wall: Duration,
    max_cycles: u64,
    deadline: Option<Instant>,
) -> RateMeasurement {
    measure_rate_instrumented(top, engine, min_wall, max_cycles, deadline, false).0
}

/// [`measure_rate_bounded`] with optional simulation profiling. With
/// `profile` set, the returned [`SimProfile`] covers the whole run
/// (warmup included) — note profiling instrumentation slows the measured
/// rate, so profiled rates are for explanation, not for headline numbers.
pub fn measure_rate_instrumented(
    top: &dyn Component,
    engine: Engine,
    min_wall: Duration,
    max_cycles: u64,
    deadline: Option<Instant>,
    profile: bool,
) -> (RateMeasurement, Option<SimProfile>) {
    let mut sim = Sim::build(top, engine).expect("elaboration failed");
    let overheads = *sim.overheads();
    if profile {
        sim.enable_profiling();
    }
    sim.reset();
    let m = measure_batched(|n| sim.run(n), 16, 64, min_wall, max_cycles, deadline);
    let measurement =
        RateMeasurement { cycles_per_sec: m.rate(), overheads, measured_cycles: m.work };
    (measurement, sim.profile())
}

/// [`measure_rate_bounded`] under an explicit [`SimConfig`] (e.g. the
/// tape optimizer pinned off for A/B comparisons), returning the
/// simulator's tape-optimizer pass report alongside the measurement so
/// callers can record compile-time statistics next to the rate.
pub fn measure_rate_configured(
    top: &dyn Component,
    engine: Engine,
    cfg: &SimConfig,
    min_wall: Duration,
    max_cycles: u64,
    deadline: Option<Instant>,
) -> (RateMeasurement, Option<mtl_sim::OptReport>) {
    let mut sim = Sim::build_with_config(top, engine, cfg).expect("elaboration failed");
    let overheads = *sim.overheads();
    let report = sim.opt_report().cloned();
    sim.reset();
    let m = measure_batched(|n| sim.run(n), 16, 64, min_wall, max_cycles, deadline);
    let measurement =
        RateMeasurement { cycles_per_sec: m.rate(), overheads, measured_cycles: m.work };
    (measurement, report)
}

/// [`measure_rate_configured`] with best-of-`reps` windows: the sim is
/// built once, then `reps` independent measurement windows run back to
/// back and the fastest is reported. Scheduler preemption, frequency
/// ramps, and cache pollution only ever make a window slower, so the max
/// is the lowest-noise estimate of the true steady-state rate; applied
/// identically to both sides of an A/B pair it cancels rather than
/// biases. Used by `opt_speedup`, where single-window run-to-run spread
/// exceeded the effect being measured.
pub fn measure_rate_best_of(
    top: &dyn Component,
    engine: Engine,
    cfg: &SimConfig,
    reps: usize,
    min_wall: Duration,
    max_cycles: u64,
    deadline: Option<Instant>,
) -> (RateMeasurement, Option<mtl_sim::OptReport>) {
    let mut sim = Sim::build_with_config(top, engine, cfg).expect("elaboration failed");
    let overheads = *sim.overheads();
    let report = sim.opt_report().cloned();
    let mut best: Option<RateMeasurement> = None;
    for _ in 0..reps.max(1) {
        // Reset per rep (not once up front) so every window starts from
        // the identical cold settle/dirty-skip state: best-of windows
        // must be identically distributed or rep 0 measures a different
        // quantity than reps 1..N.
        sim.reset();
        let m = measure_batched(|n| sim.run(n), 16, 64, min_wall, max_cycles, deadline);
        let cand = RateMeasurement { cycles_per_sec: m.rate(), overheads, measured_cycles: m.work };
        if best.as_ref().is_none_or(|b| cand.cycles_per_sec > b.cycles_per_sec) {
            best = Some(cand);
        }
    }
    (best.expect("reps >= 1"), report)
}

/// Builds the standard near-saturation mesh harness used by Figures 14-16.
pub fn mesh_harness(
    level: NetLevel,
    nrouters: usize,
    injection_permille: u32,
) -> MeshTrafficHarness {
    MeshTrafficHarness::new(level, nrouters, injection_permille, 0xBEEF)
}

/// Measures the hand-written baseline's simulation rate on the same
/// workload (the paper's hand-coded C++ reference).
pub fn measure_handwritten_rate(
    nrouters: usize,
    injection_permille: u32,
    min_wall: Duration,
    max_cycles: u64,
) -> f64 {
    let mut mesh = mtl_net::HandwrittenMesh::new(nrouters, injection_permille, 0xBEEF);
    measure_batched(|n| mesh.run(n), 16, 1024, min_wall, max_cycles, None).rate()
}

/// Converts a [`RateMeasurement`] into campaign metrics: the simulated
/// cycle count is deterministic; the rate and construction-overhead
/// phases are wall-clock timing.
pub fn rate_metrics(m: &RateMeasurement) -> JobMetrics {
    JobMetrics::new()
        .det("measured_cycles", m.measured_cycles)
        .timing("cycles_per_sec", m.cycles_per_sec)
        .timing("overhead_elab_secs", m.overheads.elab.as_secs_f64())
        .timing("overhead_cgen_secs", m.overheads.cgen.as_secs_f64())
        .timing("overhead_veri_secs", m.overheads.veri.as_secs_f64())
        .timing("overhead_comp_secs", m.overheads.comp.as_secs_f64())
        .timing("overhead_wrap_secs", m.overheads.wrap.as_secs_f64())
        .timing("overhead_total_secs", m.overheads.total().as_secs_f64())
}

/// Reads the overhead phases back out of job metrics produced by
/// [`rate_metrics`] (for tables that report total-time speedups).
pub fn overheads_from_metrics(metrics: &JobMetrics) -> f64 {
    metrics.f64("overhead_total_secs").unwrap_or(0.0)
}

/// Renders a [`SimProfile`] as the `profile` section of a per-job report:
/// summary counters, the `top_n` hottest blocks, histogram summaries, and
/// the `top_n` most active nets. Schema documented in `EXPERIMENTS.md`.
pub fn profile_json(p: &SimProfile, top_n: usize) -> Json {
    let mut j = Json::obj();
    j.set("engine", p.engine.to_string())
        .set("cycles", p.cycles)
        .set("settle_points", p.settles)
        .set("block_executions", p.total_block_runs());
    let hot: Vec<Json> = p
        .hot_blocks(top_n)
        .into_iter()
        .map(|h| {
            let mut o = Json::obj();
            o.set("path", h.path.as_str()).set("runs", h.runs).set("wall_ns", h.nanos);
            o
        })
        .collect();
    j.set("hot_blocks", Json::Arr(hot));
    let hist = |h: &mtl_sim::Hist| {
        let mut o = Json::obj();
        o.set("samples", h.samples()).set("mean", h.mean()).set("max", h.max());
        o
    };
    j.set("fixpoint_iters", hist(&p.fixpoint_iters));
    j.set("queue_depth", hist(&p.queue_depth));
    let nets: Vec<Json> = p
        .active_nets(top_n)
        .into_iter()
        .map(|(path, toggles)| {
            let mut o = Json::obj();
            o.set("path", path.as_str()).set("bit_toggles", toggles);
            o
        })
        .collect();
    j.set("active_nets", Json::Arr(nets));
    j
}

/// A campaign job measuring the simulation rate of a mesh-traffic
/// harness under one engine — the shared measurement point of Figures
/// 14 and 15.
pub fn mesh_rate_job(
    name: impl Into<String>,
    level: NetLevel,
    nrouters: usize,
    injection_permille: u32,
    engine: Engine,
    min_wall: Duration,
    max_cycles: u64,
) -> Job {
    mesh_rate_job_profiled(
        name,
        level,
        nrouters,
        injection_permille,
        engine,
        min_wall,
        max_cycles,
        false,
    )
}

/// [`mesh_rate_job`] with optional profiling: the job metrics gain a
/// `profile` section listing the [`PROFILE_TOP_N`] hottest blocks.
#[allow(clippy::too_many_arguments)]
pub fn mesh_rate_job_profiled(
    name: impl Into<String>,
    level: NetLevel,
    nrouters: usize,
    injection_permille: u32,
    engine: Engine,
    min_wall: Duration,
    max_cycles: u64,
    profile: bool,
) -> Job {
    Job::new(name, move |ctx: &JobCtx| {
        let harness = mesh_harness(level, nrouters, injection_permille);
        let (m, prof) = measure_rate_instrumented(
            &harness,
            engine,
            min_wall,
            max_cycles,
            ctx.deadline(),
            profile,
        );
        let mut metrics = rate_metrics(&m);
        if let Some(p) = prof {
            metrics = metrics.with_profile(profile_json(&p, PROFILE_TOP_N));
        }
        Ok(metrics)
    })
    .param("level", level)
    .param("nrouters", nrouters)
    .param("injection_permille", injection_permille)
    .param("engine", engine)
    .param("min_wall_ms", min_wall.as_millis())
    .param("max_cycles", max_cycles)
    // Rates are wall-clock measurements: caching would freeze them.
    .uncacheable()
}

/// How many hot blocks / active nets a `--profile` report attaches.
pub const PROFILE_TOP_N: usize = 10;

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

/// Writes a campaign report to [`bench_report_path`].
pub fn write_bench_report(report: &mtl_sweep::CampaignReport, name: &str) {
    write_bench_json(&report.to_json(), name);
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

/// Runs a campaign spec (the `mtl-serve` registry's schema, DESIGN.md
/// §10) and returns its report document. `serve` only chooses where it
/// runs: in this process, journalling under `target/sweep-journal/`
/// unless the spec pins a path, or on the daemon at that socket. Either
/// way the same catalog builds the same jobs, `tables` prints from the
/// same document, and the run ends with the replay summary line and
/// `BENCH_<campaign>.json`.
///
/// # Errors
///
/// A spec the catalog rejects, or a [`submit_spec`] failure.
pub fn run_spec(
    spec: &Json,
    serve: Option<&str>,
    tables: impl FnOnce(&Json),
) -> Result<Json, String> {
    let report = match serve {
        Some(socket) => submit_spec(socket, spec)?,
        None => {
            let defaults = mtl_serve::SpecDefaults {
                cache_dir: None,
                journal_dir: Some("target/sweep-journal".into()),
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

/// Formats a duration in seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
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
