//! Resilience campaign: seeded fault injection over the mesh network and
//! the accelerator tile at FL/CL/RTL.
//!
//! For each design point this sweep draws seeded random fault plans
//! (transient bit-flips plus stuck-at faults on injectable nets), runs
//! each chunk of plans as one lane set of `mtl_fault::run_diffs` (one
//! golden simulation, one faulted simulation per plan), and tallies the
//! outcome taxonomy from `EXPERIMENTS.md`: **masked** (no divergence),
//! **silent** (internal state corrupted, outputs clean — the SDC risk
//! class), and **detected** (a top-level output diverged). Alongside the
//! taxonomy it reports mean first-divergence cycle and mean blast radius
//! (how many distinct nets a fault corrupts).
//!
//! Alongside the scalar series, a **batch series** runs the same
//! taxonomy through the `SpecializedBatch` engine (the same driver's
//! batch lane set): up to 63 fault plans share one simulator, one trial
//! per lane with lane 0 golden. Each batch job re-runs its leading plans
//! as a scalar `specialized-opt` set on the same compile cache and
//! degrades down the
//! engine ladder on any field mismatch, so the throughput claim
//! (`batch_trials_per_sec` / `scalar_trials_per_sec` / `batch_speedup`
//! timing metrics) is backed by an in-campaign agreement check.
//! `--require-batch-speedup X` turns the speedup into a hard exit-code
//! gate for CI.
//!
//! Every taxonomy metric here is deterministic — plans are seeded, traces
//! are engine-independent (`mtl_fault::engine_agreement` is enforced by
//! the test suite) — so unlike the rate-measuring figure binaries these
//! jobs are cacheable and journalable (batch jobs, carrying wall-clock
//! rates, are the exception and stay uncacheable). The campaign exercises the full
//! hardened `mtl-sweep` path: per-job watchdogs, bounded retry, and a
//! checkpoint journal so an interrupted campaign resumes without
//! recomputing finished jobs (`--journal PATH` overrides the location).
//!
//! `--smoke` runs a small FL/CL-only variant (< 2s) used by
//! `scripts/ci/45_fault.sh`, which also kills and resumes it to smoke the
//! checkpoint/resume path. Writes `BENCH_fault.json`
//! (`BENCH_fault_smoke.json` for `--smoke`).
//!
//! This binary only *declares* the campaign: `Spec::to_json` renders it
//! as `fault_chunk` / `fault_batch_chunk` jobs of the `mtl-serve` kind
//! catalog, which owns the job bodies. `--serve SOCKET` runs that same
//! spec on a running `mtl_serve` daemon instead of in this process — a
//! deployment choice (the daemon's compile cache is shared with every
//! other campaign, and its journal directory owns resume), not a
//! different campaign: tables, summary line and `BENCH_*.json` come
//! from the one report document either way.

use mtl_accel::XcelLevel;
use mtl_bench::{banner, job_metric, job_timing, run_spec, Args};
use mtl_net::NetLevel;
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_sim::Engine;
use mtl_sweep::Json;

/// One design under fault injection.
#[derive(Debug, Clone, Copy)]
enum Dut {
    /// Mesh traffic harness at one network level.
    Mesh(NetLevel, usize),
    /// Accelerator tile (uniform level across proc/cache/xcel).
    Tile(ProcLevel, CacheLevel, XcelLevel),
}

impl Dut {
    fn label(&self) -> String {
        match *self {
            Dut::Mesh(level, n) => format!("mesh{n}/{level}"),
            Dut::Tile(p, _, _) => format!("tile/{p}"),
        }
    }
}

/// Mesh injection rate in permille: moderate load, so faults land on
/// busy logic, not idle wires.
const INJECTION: u32 = 200;

struct Spec {
    report_name: &'static str,
    duts: Vec<Dut>,
    /// Independent jobs per design point (journal/resume granularity).
    chunks: u32,
    /// Differential runs per job.
    trials: u64,
    /// Observation window after reset, in cycles.
    cycles: u64,
    /// Faults drawn per plan.
    faults: usize,
    engine: Engine,
    watchdog_ms: u64,
    /// Router count of the batch series' DUT: the fully-IR RTL mesh
    /// (LFSR traffic generators in hardware, no native blocks) — the
    /// only shape the batch engine accepts.
    batch_nrouters: usize,
    /// Independent batch bundles.
    batch_chunks: u32,
    /// Fault plans per bundle (at most 63 — lane 0 is the golden).
    batch_trials: u64,
    /// Leading plans per bundle re-run through the scalar engine: timed
    /// for the speedup metric and cross-checked field for field against
    /// the batch lanes.
    batch_scalar_sample: u64,
}

impl Spec {
    fn full() -> Spec {
        let uniform = |p, c, x| Dut::Tile(p, c, x);
        Spec {
            report_name: "fault",
            duts: vec![
                Dut::Mesh(NetLevel::Fl, 16),
                Dut::Mesh(NetLevel::Cl, 16),
                Dut::Mesh(NetLevel::Rtl, 16),
                uniform(ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl),
                uniform(ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl),
                uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl),
            ],
            chunks: 4,
            trials: 6,
            cycles: 200,
            faults: 2,
            engine: Engine::SpecializedOpt,
            watchdog_ms: 120_000,
            batch_nrouters: 16,
            batch_chunks: 2,
            batch_trials: 63,
            batch_scalar_sample: 4,
        }
    }

    /// The CI smoke variant: two small designs, four jobs total, so the
    /// kill/resume smoke has several journal entries to replay.
    fn smoke() -> Spec {
        Spec {
            report_name: "fault_smoke",
            duts: vec![
                Dut::Mesh(NetLevel::Cl, 16),
                Dut::Tile(ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl),
            ],
            chunks: 2,
            trials: 2,
            cycles: 60,
            faults: 1,
            engine: Engine::Interpreted,
            watchdog_ms: 60_000,
            batch_nrouters: 4,
            batch_chunks: 1,
            batch_trials: 15,
            batch_scalar_sample: 2,
        }
    }

    fn job_names(&self, dut: Dut) -> Vec<String> {
        (0..self.chunks).map(|chunk| format!("{}/chunk{chunk}", dut.label())).collect()
    }

    fn batch_label(&self) -> String {
        format!("mesh{}/rtl-ir", self.batch_nrouters)
    }

    fn batch_job_names(&self) -> Vec<String> {
        (0..self.batch_chunks).map(|chunk| format!("{}/batch{chunk}", self.batch_label())).collect()
    }

    /// The campaign as a registry spec (DESIGN.md §10). The journal is
    /// set only when pinned on the command line; otherwise whoever runs
    /// the spec places it (`target/sweep-journal/` in-process, the
    /// daemon's `--journal-dir` when served — which is what makes
    /// server-side resume work from any client cwd).
    fn to_json(&self, journal: Option<&str>) -> Json {
        let mut spec = Json::obj();
        spec.set("name", self.report_name).set("retries", 1u32);
        if let Some(path) = journal {
            spec.set("journal", path);
        }
        let mut jobs: Vec<Json> = Vec::new();
        let mut push = |kind: &str, names: Vec<String>, point: &dyn Fn(&mut Json)| {
            for (chunk, name) in names.into_iter().enumerate() {
                let mut j = Json::obj();
                j.set("kind", kind).set("name", name);
                point(&mut j);
                j.set("chunk", chunk)
                    .set("cycles", self.cycles)
                    .set("faults", self.faults)
                    .set("watchdog_ms", self.watchdog_ms);
                jobs.push(j);
            }
        };
        for &dut in &self.duts {
            push("fault_chunk", self.job_names(dut), &|j| {
                match dut {
                    Dut::Mesh(level, n) => j
                        .set("dut", "mesh")
                        .set("level", level.to_string())
                        .set("nrouters", n)
                        .set("injection", INJECTION),
                    Dut::Tile(p, c, x) => j
                        .set("dut", "tile")
                        .set("proc", p.to_string())
                        .set("cache", c.to_string())
                        .set("xcel", x.to_string()),
                };
                j.set("trials", self.trials).set("engine", self.engine.to_string());
            });
        }
        push("fault_batch_chunk", self.batch_job_names(), &|j| {
            j.set("nrouters", self.batch_nrouters)
                .set("injection", INJECTION)
                .set("trials", self.batch_trials)
                .set("scalar_sample", self.batch_scalar_sample);
        });
        spec.set("jobs", jobs);
        spec
    }

    fn print_tables(&self, report: &Json) {
        let metric = |name: &str, key: &str| job_metric(report, name, key);
        // A design point's metric summed over the chunks that finished.
        let total = |names: &[String], key: &str| -> u64 {
            names.iter().filter_map(|name| metric(name, key)).sum()
        };
        let failed_note = |names: &[String]| {
            let failed = names.iter().any(|name| metric(name, "masked").is_none());
            if failed {
                "   (some chunks failed)"
            } else {
                ""
            }
        };
        println!(
            "\n--- fault taxonomy: {} trials x {} fault(s) per design point, \
             {}-cycle window, {} engine ---",
            self.trials * u64::from(self.chunks),
            self.faults,
            self.cycles,
            self.engine,
        );
        println!(
            "{:<12} {:>7} {:>7} {:>7} {:>9} {:>14} {:>12}",
            "design", "masked", "silent", "detect", "injected", "mean div cycle", "mean blast"
        );
        for &dut in &self.duts {
            let names = self.job_names(dut);
            let diverged = total(&names, "diverged");
            let mean = |key: &str, width: usize| {
                if diverged > 0 {
                    format!("{:>width$.1}", total(&names, key) as f64 / diverged as f64)
                } else {
                    format!("{:>width$}", "-")
                }
            };
            println!(
                "{:<12} {:>7} {:>7} {:>7} {:>9} {} {}{}",
                dut.label(),
                total(&names, "masked"),
                total(&names, "silent"),
                total(&names, "detected"),
                total(&names, "injected_bits"),
                mean("sum_first_divergence", 14),
                mean("sum_blast_radius", 12),
                failed_note(&names),
            );
        }

        // The batch series: outcome taxonomy plus campaign
        // throughput (trials/sec, batch vs scalar), averaged over the
        // chunks that finished.
        println!(
            "\n--- batch series: {}-lane batch differential, {} chunk(s), \
             scalar baseline specialized-opt ---",
            self.batch_trials + 1,
            self.batch_chunks,
        );
        println!(
            "{:<14} {:>7} {:>7} {:>7} {:>13} {:>13} {:>9}",
            "design", "masked", "silent", "detect", "batch tr/s", "scalar tr/s", "speedup"
        );
        let names = self.batch_job_names();
        let rate = |key: &str| {
            let rates: Vec<f64> =
                names.iter().filter_map(|name| job_timing(report, name, key)).collect();
            rates.iter().sum::<f64>() / rates.len().max(1) as f64
        };
        let (b, s) = (rate("batch_trials_per_sec"), rate("scalar_trials_per_sec"));
        let speedup = if s > 0.0 { format!("{:>8.1}x", b / s) } else { format!("{:>9}", "-") };
        println!(
            "{:<14} {:>7} {:>7} {:>7} {:>13.1} {:>13.1} {speedup}{}",
            self.batch_label(),
            total(&names, "masked"),
            total(&names, "silent"),
            total(&names, "detected"),
            b,
            s,
            failed_note(&names),
        );
    }

    /// The minimum batch-vs-scalar speedup across every batch job, for
    /// the CI gate (`--require-batch-speedup X`). `None` when any batch
    /// job is missing its timing metrics (failed or didn't run).
    fn min_batch_speedup(&self, report: &Json) -> Option<f64> {
        let speedups = self.batch_job_names().into_iter();
        let speedups: Option<Vec<f64>> =
            speedups.map(|name| job_timing(report, &name, "batch_speedup")).collect();
        speedups?.into_iter().reduce(f64::min)
    }
}

fn main() {
    let args = Args::parse(
        &["--smoke"],
        &["--serve", "--journal", "--watchdog-ms", "--require-batch-speedup"],
    );
    let mut spec = if args.flag("--smoke") { Spec::smoke() } else { Spec::full() };
    // Tight watchdogs for the CI hang smoke (scripts/ci/45_fault.sh);
    // production campaigns keep the generous defaults.
    if let Some(ms) = args.parsed("--watchdog-ms") {
        spec.watchdog_ms = ms;
    }
    let required_speedup: Option<f64> = args.parsed("--require-batch-speedup");
    banner("Fault-injection resilience campaign", "EXPERIMENTS.md, fault taxonomy");
    let campaign = spec.to_json(args.value("--journal"));
    let report = run_spec(&campaign, args.value("--serve"), |report| spec.print_tables(report))
        .unwrap_or_else(|e| {
            eprintln!("fault_sweep: {e}");
            std::process::exit(1);
        });
    // CI gate (scripts/ci/25_batch.sh): the batch series must beat
    // the scalar baseline by at least the given factor.
    if let Some(min) = required_speedup {
        match spec.min_batch_speedup(&report) {
            Some(s) if s >= min => println!("batch speedup gate: {s:.1}x >= {min}x"),
            Some(s) => {
                eprintln!("batch speedup gate FAILED: {s:.1}x < {min}x");
                std::process::exit(1);
            }
            None => {
                eprintln!("batch speedup gate FAILED: batch jobs missing timing metrics");
                std::process::exit(1);
            }
        }
    }
}
