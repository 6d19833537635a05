//! Figure 14: speedup of each engine over the interpreted baseline on
//! 64-node FL/CL/RTL mesh simulations near saturation, as a function of
//! simulated target cycles.
//!
//! The solid curves of the paper (overheads excluded) correspond to the
//! steady-state rate ratio; the dotted curves (total time) bend at short
//! runs where one-time construction overheads dominate. Both are derived
//! from measured rates and measured overheads. The hand-written Rust
//! simulator plays the role of the paper's hand-coded C++/Verilator
//! baselines.
//!
//! The 16 measurements (3 levels × 5 engines + the handwritten baseline)
//! run as an `mtl-sweep` campaign and land in `BENCH_fig14.json`. The
//! `specialized-par` series records its worker-thread count (resolved
//! from `MTL_SIM_THREADS` / available parallelism) in its job params.
//! Pass `--profile` to enable simulation profiling in every engine job
//! and attach the hottest blocks to each job's `profile` report section;
//! pass `--smoke` for a fast CI-sized run (same campaign shape, much
//! smaller measurement windows); pass `--dump-passes` to print the tape
//! optimizer's per-pass statistics table for each level's mesh compile
//! before measuring (see DESIGN.md §11).
//!
//! Pass `--serve SOCKET` to delegate the engine measurements to a
//! running `mtl_serve` daemon as `mesh_rate` registry jobs (the
//! handwritten baseline still runs locally — it is a plain Rust loop
//! with nothing to compile). Both modes measure the steady-state rate
//! with `mtl_sweep::measure_batched`; they differ in what the dotted
//! curves charge. The in-process jobs exist to measure construction
//! overheads, so each builds its simulator from scratch (and charges
//! the RTL `veri` translation); the daemon's warm compile cache zeroes
//! those overheads on repeat runs, so the serve-side dotted curves
//! reflect a persistent-session workflow. `--profile` requires
//! in-process simulators and rejects `--serve`.

use std::time::{Duration, Instant};

use mtl_bench::{
    banner, measure_handwritten_rate, measure_rate_instrumented, mesh_harness, profile_json,
    rate_metrics, report_job, submit_spec, write_bench_json, Args, PROFILE_TOP_N,
};
use mtl_net::NetLevel;
use mtl_sim::Engine;
use mtl_sweep::{Campaign, Job, JobMetrics, Json};

const NROUTERS: usize = 64;
const INJECTION: u32 = 300; // near saturation for the 8x8 mesh
const TARGETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
const LEVELS: [NetLevel; 3] = [NetLevel::Fl, NetLevel::Cl, NetLevel::Rtl];

fn job_name(level: NetLevel, engine: Engine) -> String {
    format!("{level}/{engine}")
}

/// Per-engine measurement window — interpreted engines are slow; cap
/// their measurement burden. Shared by the in-process jobs and the
/// `--serve` spec so both modes measure the same way.
fn measurement_window(engine: Engine, smoke: bool) -> (Duration, u64) {
    match (engine, smoke) {
        (Engine::Interpreted, false) => (Duration::from_millis(1500), 20_000),
        (Engine::InterpretedOpt, false) => (Duration::from_millis(1200), 50_000),
        (_, false) => (Duration::from_millis(800), 2_000_000),
        (Engine::Interpreted, true) => (Duration::from_millis(60), 1_000),
        (Engine::InterpretedOpt, true) => (Duration::from_millis(60), 3_000),
        (_, true) => (Duration::from_millis(60), 50_000),
    }
}

fn engine_job(level: NetLevel, engine: Engine, profile: bool, smoke: bool) -> Job {
    let (min_wall, max_cycles) = measurement_window(engine, smoke);
    let mut job = Job::new(job_name(level, engine), move |ctx| {
        let harness = mesh_harness(level, NROUTERS, INJECTION);
        let (mut m, prof) = measure_rate_instrumented(
            &harness,
            engine,
            min_wall,
            max_cycles,
            ctx.deadline(),
            profile,
        );
        // The RTL specialization path includes Verilog translation +
        // re-parse ("veri"); charge it for the specialized engines on
        // RTL models, mirroring SimJIT-RTL's pipeline.
        if level == NetLevel::Rtl && matches!(engine, Engine::Specialized | Engine::SpecializedOpt)
        {
            let t0 = Instant::now();
            let design = mtl_core::elaborate(&*mtl_net::network(level, NROUTERS, 32))
                .map_err(|e| format!("elaboration for veri overhead: {e:?}"))?;
            if let Ok(v) = mtl_translate::translate(&design) {
                let _ = mtl_translate::VerilogLibrary::parse(&v)
                    .map_err(|e| format!("emitted Verilog failed to reparse: {e}"))?;
            }
            m.overheads.veri = t0.elapsed();
        }
        let mut metrics = rate_metrics(&m);
        if let Some(p) = prof {
            metrics = metrics.with_profile(profile_json(&p, PROFILE_TOP_N));
        }
        Ok(metrics)
    })
    .param("level", level)
    .param("engine", engine)
    .param("nrouters", NROUTERS)
    .param("injection_permille", INJECTION)
    .budget(Duration::from_secs(if smoke { 20 } else { 60 }))
    .uncacheable();
    // The parallel engine's rate depends on its worker count; record it
    // so the series is interpretable without knowing the machine.
    if engine == Engine::SpecializedPar {
        job = job.param("threads", mtl_sim::default_threads());
    }
    if profile {
        job = job.expects_profile();
    }
    job
}

/// The handwritten baseline's measurement window.
fn handwritten_window(smoke: bool) -> (Duration, u64) {
    if smoke {
        (Duration::from_millis(60), 200_000)
    } else {
        (Duration::from_millis(500), 20_000_000)
    }
}

fn handwritten_job(smoke: bool) -> Job {
    let (min_wall, max_cycles) = handwritten_window(smoke);
    Job::new("handwritten", move |_ctx| {
        let rate = measure_handwritten_rate(NROUTERS, INJECTION, min_wall, max_cycles);
        Ok(JobMetrics::new().timing("cycles_per_sec", rate))
    })
    .param("nrouters", NROUTERS)
    .param("injection_permille", INJECTION)
    .budget(Duration::from_secs(30))
    .uncacheable()
}

/// Rate + overhead for one engine, reconstructed from the report.
#[derive(Clone, Copy)]
struct Point {
    rate: f64,
    overhead_secs: f64,
    measured_cycles: u64,
}

impl Point {
    /// Reads one engine job out of a campaign report document. The
    /// in-process jobs count `measured_cycles` as a deterministic
    /// metric, the `mesh_rate` kind as timing.
    fn from_json(report: &Json, name: &str) -> Option<Point> {
        let job = report_job(report, name)?;
        let f = |key: &str| job.get("timing")?.get(key)?.as_f64();
        let measured = job.get("metrics").and_then(|m| m.get("measured_cycles")?.as_f64());
        Some(Point {
            rate: f("cycles_per_sec")?,
            overhead_secs: f("overhead_total_secs").unwrap_or(0.0),
            measured_cycles: measured.or(f("measured_cycles")).unwrap_or(0.0) as u64,
        })
    }

    fn sim_time(&self, n: u64) -> f64 {
        n as f64 / self.rate
    }

    fn total_time(&self, n: u64) -> f64 {
        self.sim_time(n) + self.overhead_secs
    }
}

fn print_level(lookup: &dyn Fn(&str) -> Option<Point>, level: NetLevel, handwritten: Option<f64>) {
    println!("\n--- {level} {NROUTERS}-node mesh (injection {INJECTION}/1000) ---");
    let mut points: Vec<(Engine, Option<Point>)> = Vec::new();
    for engine in Engine::ALL {
        let point = lookup(&job_name(level, engine));
        match &point {
            Some(p) => println!(
                "  {engine:18} rate {:>12.0} cyc/s   overheads {:.3}s (measured over {} cycles)",
                p.rate, p.overhead_secs, p.measured_cycles,
            ),
            None => println!("  {engine:18} FAILED (see BENCH_fig14.json)"),
        }
        points.push((engine, point));
    }
    match handwritten {
        Some(rate) => {
            println!("  {:18} rate {rate:>12.0} cyc/s (ELL baseline)", "handwritten")
        }
        None => println!("  {:18} FAILED", "handwritten"),
    }

    let Some(base) = points[0].1 else {
        println!("  (interpreted baseline failed; speedup table skipped)");
        return;
    };
    println!("\n  speedup over interpreted (solid = sim only / dotted = incl. overheads)");
    print!("  {:>10}", "cycles");
    for (engine, _) in &points[1..] {
        print!("  {:>22}", engine.to_string());
    }
    println!("  {:>22}", "handwritten");
    for n in TARGETS {
        print!("  {n:>10}");
        for (_, point) in &points[1..] {
            match point {
                Some(m) => print!(
                    "  {:>11.1} /{:>8.1}",
                    base.sim_time(n) / m.sim_time(n),
                    base.total_time(n) / m.total_time(n)
                ),
                None => print!("  {:>11} /{:>8}", "failed", "-"),
            }
        }
        match handwritten {
            Some(rate) => print!("  {:>11.1} /{:>8}", base.sim_time(n) / (n as f64 / rate), "-"),
            None => print!("  {:>11} /{:>8}", "failed", "-"),
        }
        println!();
    }
    if let (Some(best), Some(hw)) = (points.last().unwrap().1, handwritten) {
        println!("  gap to handwritten baseline at steady state: {:.1}x", hw / best.rate);
    }
}

/// The engine measurements as an `mtl-serve` submission: one
/// `mesh_rate` registry job per (level, engine), with the same
/// measurement windows as the in-process campaign.
fn serve_spec(smoke: bool) -> Json {
    let mut spec = Json::obj();
    spec.set("name", "fig14").set("no_cache", true);
    let mut jobs: Vec<Json> = Vec::new();
    for level in LEVELS {
        for engine in Engine::ALL {
            let (min_wall, max_cycles) = measurement_window(engine, smoke);
            let mut j = Json::obj();
            j.set("kind", "mesh_rate")
                .set("name", job_name(level, engine))
                .set("level", level.to_string())
                .set("nrouters", NROUTERS)
                .set("injection", INJECTION)
                .set("engine", engine.to_string())
                .set("min_wall_ms", min_wall.as_millis() as u64)
                .set("max_cycles", max_cycles)
                .set("budget_ms", if smoke { 20_000u64 } else { 60_000 });
            jobs.push(j);
        }
    }
    spec.set("jobs", jobs);
    spec
}

fn main() {
    let args = Args::parse(&["--profile", "--smoke", "--dump-passes"], &["--serve"]);
    banner("Figure 14: mesh simulator speedup vs target cycles", "Fig. 14");
    let profile = args.flag("--profile");
    if profile {
        println!("(profiling enabled: per-job `profile` sections in the report)");
    }
    let smoke = args.flag("--smoke");
    if smoke {
        println!("(smoke mode: CI-sized measurement windows)");
    }
    if args.flag("--dump-passes") {
        for level in LEVELS {
            let harness = mesh_harness(level, NROUTERS, INJECTION);
            let sim =
                mtl_sim::Sim::build(&harness, Engine::SpecializedOpt).expect("elaboration failed");
            match sim.opt_report() {
                Some(rep) => println!("\n[{level} mesh tape-optimizer passes]\n{}", rep.render()),
                None => println!("\n[{level}] optimizer disabled via MTL_TAPE_OPT; no report"),
            }
        }
    }
    let (report, handwritten) = if let Some(socket) = args.value("--serve") {
        if profile {
            eprintln!("fig14_mesh_speedup: --profile needs in-process simulators; drop --serve");
            std::process::exit(2);
        }
        let report = submit_spec(socket, &serve_spec(smoke)).unwrap_or_else(|e| {
            eprintln!("fig14_mesh_speedup --serve: {e}");
            std::process::exit(1);
        });
        // A plain Rust loop, nothing to compile or share: runs locally.
        let (min_wall, max_cycles) = handwritten_window(smoke);
        (report, Some(measure_handwritten_rate(NROUTERS, INJECTION, min_wall, max_cycles)))
    } else {
        let mut campaign = Campaign::new("fig14");
        for level in LEVELS {
            for engine in Engine::ALL {
                campaign = campaign.job(engine_job(level, engine, profile, smoke));
            }
        }
        let report = campaign.job(handwritten_job(smoke)).run();
        let handwritten = report.metric("handwritten", "cycles_per_sec");
        (report.to_json(), handwritten)
    };
    for level in LEVELS {
        print_level(&|name| Point::from_json(&report, name), level, handwritten);
    }
    write_bench_json(&report, "fig14");
}
