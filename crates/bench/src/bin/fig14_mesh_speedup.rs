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
//! The 13 measurements (3 levels × 4 engines + the handwritten baseline)
//! are `mesh_rate` and `handwritten_rate` jobs of the `mtl-serve` kind
//! catalog (DESIGN.md §10): this binary declares them as a spec, prints
//! its tables from the report `mtl_bench::run_spec` returns, and writes
//! it to `BENCH_fig14.json`. Every engine job builds its simulator cold,
//! so the dotted curves charge the full construction overheads; rates
//! are wall clock, so the campaign neither caches nor journals and every
//! run measures afresh. Pass `--profile` to enable simulation profiling
//! in every engine job and attach the hottest blocks to each job's
//! `profile` report section; pass `--smoke` for a fast CI-sized run
//! (same campaign shape, much smaller measurement windows); pass
//! `--dump-passes` to print the tape optimizer's per-pass statistics
//! table for each level's mesh compile before measuring (see DESIGN.md
//! §11).
//!
//! Pass `--serve SOCKET` to run the same spec on a running `mtl_serve`
//! daemon: the same jobs, measured the same way, on the daemon's
//! workers.

use mtl_bench::{banner, job_timing, run_spec, Args};
use mtl_net::{MeshTrafficHarness, NetLevel};
use mtl_sim::Engine;
use mtl_sweep::Json;

const NROUTERS: usize = 64;
const INJECTION: u32 = 300; // near saturation for the 8x8 mesh
const TARGETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
const LEVELS: [NetLevel; 3] = [NetLevel::Fl, NetLevel::Cl, NetLevel::Rtl];

fn job_name(level: NetLevel, engine: Engine) -> String {
    format!("{level}/{engine}")
}

/// Measurement window `(min_wall_ms, max_cycles)` of one engine, or of
/// the handwritten baseline (`None`) — interpreted engines are slow; cap
/// their measurement burden.
fn measurement_window(engine: Option<Engine>, smoke: bool) -> (u64, u64) {
    match (engine, smoke) {
        (Some(Engine::Interpreted), false) => (1500, 20_000),
        (Some(Engine::InterpretedOpt), false) => (1200, 50_000),
        (Some(_), false) => (800, 2_000_000),
        (None, false) => (500, 20_000_000),
        (Some(Engine::Interpreted), true) => (60, 1_000),
        (Some(Engine::InterpretedOpt), true) => (60, 3_000),
        (Some(_), true) => (60, 50_000),
        (None, true) => (60, 200_000),
    }
}

/// Rate + overhead for one engine, reconstructed from the report.
#[derive(Clone, Copy)]
struct Point {
    rate: f64,
    overhead_secs: f64,
    measured_cycles: u64,
}

impl Point {
    /// Reads one engine job out of a campaign report document.
    fn from_json(report: &Json, name: &str) -> Option<Point> {
        let f = |key: &str| job_timing(report, name, key);
        Some(Point {
            rate: f("cycles_per_sec")?,
            overhead_secs: f("overhead_total_secs").unwrap_or(0.0),
            measured_cycles: f("measured_cycles").unwrap_or(0.0) as u64,
        })
    }

    fn sim_time(&self, n: u64) -> f64 {
        n as f64 / self.rate
    }

    fn total_time(&self, n: u64) -> f64 {
        self.sim_time(n) + self.overhead_secs
    }
}

fn print_level(report: &Json, level: NetLevel, handwritten: Option<f64>) {
    println!("\n--- {level} {NROUTERS}-node mesh (injection {INJECTION}/1000) ---");
    let mut points: Vec<(Engine, Option<Point>)> = Vec::new();
    for engine in Engine::ALL {
        let point = Point::from_json(report, &job_name(level, engine));
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

/// The campaign as a registry spec: one `mesh_rate` job per (level,
/// engine) and one `handwritten_rate` job.
fn spec(smoke: bool, profile: bool) -> Json {
    let job = |kind: &str, name: String, engine: Option<Engine>| {
        let (min_wall_ms, max_cycles) = measurement_window(engine, smoke);
        let mut j = Json::obj();
        j.set("kind", kind)
            .set("name", name)
            .set("nrouters", NROUTERS)
            .set("injection", INJECTION)
            .set("min_wall_ms", min_wall_ms)
            .set("max_cycles", max_cycles)
            .set("budget_ms", if smoke { 20_000u64 } else { 60_000 });
        j
    };
    let mut jobs: Vec<Json> = Vec::new();
    for level in LEVELS {
        for engine in Engine::ALL {
            let mut j = job("mesh_rate", job_name(level, engine), Some(engine));
            j.set("level", level.to_string()).set("engine", engine.to_string());
            if profile {
                j.set("profile", true);
            }
            jobs.push(j);
        }
    }
    jobs.push(job("handwritten_rate", "handwritten".to_string(), None));
    let mut spec = Json::obj();
    spec.set("name", "fig14").set("no_cache", true).set("jobs", jobs);
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
            let harness = MeshTrafficHarness::new(level, NROUTERS, INJECTION, 0xBEEF);
            let sim =
                mtl_sim::Sim::build(&harness, Engine::SpecializedOpt).expect("elaboration failed");
            let rep = sim.opt_report().expect("specialized-opt with the optimizer on");
            println!("\n[{level} mesh tape-optimizer passes]\n{}", rep.render());
        }
    }
    let tables = |report: &Json| {
        let handwritten = job_timing(report, "handwritten", "cycles_per_sec");
        for level in LEVELS {
            print_level(report, level, handwritten);
        }
    };
    if let Err(e) = run_spec(&spec(smoke, profile), args.value("--serve"), None, tables) {
        eprintln!("fig14_mesh_speedup: {e}");
        std::process::exit(1);
    }
}
