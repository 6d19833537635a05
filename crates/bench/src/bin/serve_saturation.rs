//! Saturation study for the `mtl-serve` scheduler: K concurrent
//! campaigns on one shared worker pool, swept over pool sizes.
//!
//! Two series, each on a fresh in-process [`Scheduler`] per pool size:
//!
//! * **scheduler scaling** — K campaigns of fixed-length `sleep_ms`
//!   jobs. Sleeping occupies a worker without contending for a core, so
//!   jobs/sec isolates the *scheduler's* concurrency (lock handoff,
//!   round-robin dispatch, completion bookkeeping) from the machine's
//!   core count and should scale near-linearly in the pool size on any
//!   host.
//! * **compile sharing** — K campaigns of deterministic `mesh_cycles`
//!   jobs over one design point. Every job builds through the shared
//!   [`ArtifactCache`]; at worst the tapes compile once per worker
//!   (first-build races) and every later build hits. The per-config hit
//!   rate lands in the report. Throughput for this series is CPU-bound,
//!   so its scaling is additionally capped by available cores —
//!   single-core CI boxes will show flat walls here while the scheduler
//!   series still scales.
//!
//! `--smoke` shrinks the job matrix for CI; `--jobs N` / `--cycles N` /
//! `--sleep-ms N` override it. Writes `BENCH_serve.json` (see
//! EXPERIMENTS.md).

use std::sync::{mpsc, Arc};
use std::time::Instant;

use mtl_bench::{banner, write_bench_json, Args};
use mtl_serve::{campaign_from_spec, Scheduler, SpecDefaults};
use mtl_sim::ArtifactCache;
use mtl_sweep::Json;

const WORKER_SWEEP: [usize; 3] = [1, 2, 4];
const CAMPAIGNS: usize = 3;

/// The job matrix for one series.
#[derive(Clone, Copy)]
enum Series {
    /// `sleep_ms` jobs of this many milliseconds each.
    Scheduler { sleep_ms: u64 },
    /// `mesh_cycles` jobs of this many cycles over one design point.
    Compile { cycles: u64 },
}

impl Series {
    fn label(&self) -> &'static str {
        match self {
            Series::Scheduler { .. } => "scheduler",
            Series::Compile { .. } => "compile",
        }
    }

    fn job(&self, i: usize) -> Json {
        let mut j = Json::obj();
        match *self {
            Series::Scheduler { sleep_ms } => {
                j.set("kind", "sleep_ms").set("name", format!("job{i}")).set("ms", sleep_ms);
            }
            Series::Compile { cycles } => {
                j.set("kind", "mesh_cycles")
                    .set("name", format!("job{i}"))
                    .set("level", "CL")
                    .set("nrouters", 16u64)
                    .set("cycles", cycles)
                    .set("engine", "specialized-opt");
            }
        }
        j
    }
}

/// One campaign spec: `jobs` identical jobs. `no_cache` keeps the
/// result cache out of the measurement — every job must actually run.
fn campaign_spec(name: &str, series: Series, jobs: usize) -> Json {
    let mut spec = Json::obj();
    spec.set("name", name).set("no_cache", true);
    spec.set("jobs", (0..jobs).map(|i| series.job(i)).collect::<Vec<Json>>());
    spec
}

struct ConfigResult {
    workers: usize,
    jobs_done: u64,
    wall_secs: f64,
    tape_hits: u64,
    tape_misses: u64,
}

impl ConfigResult {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs_done as f64 / self.wall_secs
    }

    fn hit_rate(&self) -> f64 {
        let total = self.tape_hits + self.tape_misses;
        if total == 0 {
            0.0
        } else {
            self.tape_hits as f64 / total as f64
        }
    }
}

/// Runs K concurrent campaigns on a fresh scheduler and waits for all
/// of their `campaign_done` lines.
fn run_config(workers: usize, series: Series, jobs: usize) -> ConfigResult {
    let sched = Scheduler::new(workers, Arc::new(ArtifactCache::new()));
    let defaults = SpecDefaults::default();
    let t0 = Instant::now();
    let mut collectors = Vec::new();
    for k in 0..CAMPAIGNS {
        let name = format!("sat_{}_{workers}w_c{k}", series.label());
        let campaign =
            campaign_from_spec(&campaign_spec(&name, series, jobs), &defaults, sched.artifacts())
                .expect("saturation spec must be valid");
        let (tx, rx) = mpsc::channel::<Json>();
        sched
            .submit(campaign, Box::new(move |event| drop(tx.send(event.clone()))))
            .expect("fresh scheduler must accept the campaign");
        collectors.push(std::thread::spawn(move || -> u64 {
            while let Ok(event) = rx.recv() {
                if event.get("type").and_then(Json::as_str) == Some("campaign_done") {
                    return event
                        .get("report")
                        .and_then(|r| r.get("summary"))
                        .and_then(|s| s.get("done"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                }
            }
            0
        }));
    }
    let jobs_done = collectors.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    let wall_secs = t0.elapsed().as_secs_f64();
    let (stats, _, _) = sched.stats();
    sched.join();
    ConfigResult {
        workers,
        jobs_done,
        wall_secs,
        tape_hits: stats.tape_hits,
        tape_misses: stats.tape_misses,
    }
}

fn run_series(series: Series, jobs: usize) -> Vec<ConfigResult> {
    println!(
        "\n--- {} series: {CAMPAIGNS} concurrent campaigns x {jobs} {} jobs ---",
        series.label(),
        match series {
            Series::Scheduler { sleep_ms } => format!("sleep_ms({sleep_ms})"),
            Series::Compile { cycles } => format!("mesh_cycles({cycles}, shared design point)"),
        }
    );
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>11} {:>15}",
        "workers", "jobs done", "wall s", "jobs/sec", "tape hits", "cache hit rate"
    );
    let mut results = Vec::new();
    for workers in WORKER_SWEEP {
        let r = run_config(workers, series, jobs);
        println!(
            "{:>8} {:>10} {:>10.2} {:>12.1} {:>11} {:>14.0}%",
            r.workers,
            r.jobs_done,
            r.wall_secs,
            r.jobs_per_sec(),
            r.tape_hits,
            r.hit_rate() * 100.0,
        );
        results.push(r);
    }
    let base = results[0].jobs_per_sec();
    if base > 0.0 {
        print!("throughput scaling over 1 worker:");
        for r in &results[1..] {
            print!("  {}w {:.2}x", r.workers, r.jobs_per_sec() / base);
        }
        println!();
    }
    results
}

fn series_json(series: Series, jobs: usize, results: &[ConfigResult]) -> Json {
    let base = results[0].jobs_per_sec();
    let mut doc = Json::obj();
    doc.set("jobs_per_campaign", jobs);
    match series {
        Series::Scheduler { sleep_ms } => drop(doc.set("sleep_ms", sleep_ms)),
        Series::Compile { cycles } => drop(doc.set("cycles_per_job", cycles)),
    }
    let mut configs: Vec<Json> = Vec::new();
    for r in results {
        let mut c = Json::obj();
        c.set("workers", r.workers)
            .set("jobs_done", r.jobs_done)
            .set("wall_secs", r.wall_secs)
            .set("jobs_per_sec", r.jobs_per_sec())
            .set("tape_hits", r.tape_hits)
            .set("tape_misses", r.tape_misses)
            .set("compile_hit_rate", r.hit_rate())
            .set("speedup_vs_1_worker", if base > 0.0 { r.jobs_per_sec() / base } else { 0.0 });
        configs.push(c);
    }
    doc.set("configs", configs);
    doc
}

fn main() {
    banner("mtl-serve saturation: worker scaling + compile-cache sharing", "DESIGN.md \u{a7}10");
    let args = Args::parse(&["--smoke"], &["--jobs", "--cycles", "--sleep-ms"]);
    let smoke = args.flag("--smoke");
    let (mut jobs, mut cycles, mut sleep_ms) =
        if smoke { (6, 2_000, 30) } else { (16, 40_000, 100) };
    if let Some(n) = args.parsed("--jobs") {
        jobs = n;
    }
    if let Some(n) = args.parsed("--cycles") {
        cycles = n;
    }
    if let Some(n) = args.parsed("--sleep-ms") {
        sleep_ms = n;
    }
    if smoke {
        println!("(smoke mode: CI-sized job matrix)");
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("({cores} hardware threads; compile-series scaling is capped by this)");

    let sched_series = Series::Scheduler { sleep_ms };
    let sched_results = run_series(sched_series, jobs);
    let compile_series = Series::Compile { cycles };
    let compile_results = run_series(compile_series, jobs);

    let mut doc = Json::obj();
    doc.set("campaign", "serve_saturation")
        .set("campaigns", CAMPAIGNS)
        .set("hardware_threads", cores)
        .set("scheduler_series", series_json(sched_series, jobs, &sched_results))
        .set("compile_series", series_json(compile_series, jobs, &compile_results));
    write_bench_json(&doc, "serve");
}
