//! Figure 15: specialization speedup vs network load.
//!
//! Sweeps the injection rate of 64-node CL and RTL mesh simulations and
//! reports the speedup of each engine over the interpreted baseline.
//! Heavier load means more simulation work per cycle, so a larger
//! fraction of time is spent in specialized code and speedups grow until
//! the network saturates (the paper's Figure 15 shape).
//!
//! The 48 measurement points (2 levels × 6 rates × 4 engines) are
//! independent sims, declared as `mesh_rate` jobs of the `mtl-serve`
//! kind catalog (DESIGN.md §10) and run through `mtl_bench::run_spec`:
//! sharded across worker threads (`RUSTMTL_JOBS`), panic-isolated, and
//! reported to `BENCH_fig15.json` alongside the stdout table. Rates are
//! wall clock, so the campaign neither caches nor journals: every run
//! measures every point. `--smoke` runs a tiny 16-node / 2-engine /
//! 2-rate variant (< 2s) used by `scripts/verify.sh` to exercise the
//! orchestration path.

use mtl_bench::{banner, job_timing, run_spec, Args};
use mtl_net::NetLevel;
use mtl_sim::Engine;
use mtl_sweep::Json;

const RATES: [u32; 6] = [20, 80, 160, 240, 320, 400];
const SMOKE_RATES: [u32; 2] = [100, 300];

struct SweepSpec {
    report_name: &'static str,
    nrouters: usize,
    levels: Vec<NetLevel>,
    rates: Vec<u32>,
    engines: Vec<Engine>,
    /// Scales every min-wall window (1000 = full fidelity).
    wall_permille: u64,
}

impl SweepSpec {
    fn full() -> SweepSpec {
        SweepSpec {
            report_name: "fig15",
            nrouters: 64,
            levels: vec![NetLevel::Cl, NetLevel::Rtl],
            rates: RATES.to_vec(),
            engines: Engine::ALL.to_vec(),
            wall_permille: 1000,
        }
    }

    /// The verify.sh smoke variant: 16-node CL mesh, two engines, two
    /// rates, ~10ms measurement windows.
    fn smoke() -> SweepSpec {
        SweepSpec {
            report_name: "fig15_smoke",
            nrouters: 16,
            levels: vec![NetLevel::Cl],
            rates: SMOKE_RATES.to_vec(),
            engines: vec![Engine::Interpreted, Engine::SpecializedOpt],
            wall_permille: 20,
        }
    }

    fn job_name(level: NetLevel, inj: u32, engine: Engine) -> String {
        format!("{level}/inj{inj:03}/{engine}")
    }

    /// Per-point measurement windows `(min_wall_ms, max_cycles)`:
    /// interpreted engines get longer walls but tight cycle caps;
    /// specialized engines the reverse.
    fn window(&self, level: NetLevel, engine: Engine) -> (u64, u64) {
        let (wall_slow_ms, cap_slow, wall_fast_ms, cap_fast) = match level {
            NetLevel::Rtl => (900, 600, 500, 60_000),
            _ => (700, 8_000, 400, 400_000),
        };
        let (ms, cap) = match engine {
            Engine::Interpreted | Engine::InterpretedOpt => (wall_slow_ms, cap_slow),
            _ => (wall_fast_ms, cap_fast),
        };
        (ms * self.wall_permille / 1000, cap)
    }

    /// The sweep as a registry spec: one `mesh_rate` job per point.
    fn to_json(&self) -> Json {
        let mut jobs: Vec<Json> = Vec::new();
        for &level in &self.levels {
            for &inj in &self.rates {
                for &engine in &self.engines {
                    let (min_wall_ms, max_cycles) = self.window(level, engine);
                    let mut j = Json::obj();
                    j.set("kind", "mesh_rate")
                        .set("name", Self::job_name(level, inj, engine))
                        .set("level", level.to_string())
                        .set("nrouters", self.nrouters)
                        .set("injection", inj)
                        .set("engine", engine.to_string())
                        .set("min_wall_ms", min_wall_ms)
                        .set("max_cycles", max_cycles)
                        // One pathological point must not stall the
                        // sweep: measurement windows are < 1s, so 30s
                        // means something is badly wrong.
                        .set("budget_ms", 30_000u64);
                    jobs.push(j);
                }
            }
        }
        let mut spec = Json::obj();
        spec.set("name", self.report_name).set("no_cache", true).set("jobs", jobs);
        spec
    }

    fn print_tables(&self, report: &Json) {
        let rate = |level, inj, engine| {
            job_timing(report, &Self::job_name(level, inj, engine), "cycles_per_sec")
        };
        let baseline = self.engines[0];
        for &level in &self.levels {
            println!("\n--- {level} {}-node mesh, 100K-cycle workload profile ---", self.nrouters);
            print!("{:>10}", "inj/1000");
            for engine in &self.engines[1..] {
                print!(" {:>16}", engine.to_string());
            }
            println!();
            for &inj in &self.rates {
                let base = rate(level, inj, baseline);
                print!("{inj:>10}");
                for &engine in &self.engines[1..] {
                    match (base, rate(level, inj, engine)) {
                        (Some(b), Some(r)) if b > 0.0 => print!(" {:>15.1}x", r / b),
                        _ => print!(" {:>16}", "failed"),
                    }
                }
                println!();
            }
        }
    }
}

/// Runs the sweep in this process and prints its tables. No journal:
/// a finished run's rates must never stand in for a new measurement.
fn run(spec: &SweepSpec) -> Json {
    run_spec(&spec.to_json(), None, None, |report| spec.print_tables(report)).unwrap_or_else(|e| {
        eprintln!("fig15_injection_sweep: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let smoke = Args::parse(&["--smoke"], &[]).flag("--smoke");
    let spec = if smoke { SweepSpec::smoke() } else { SweepSpec::full() };
    banner("Figure 15: engine speedup vs injection rate", "Fig. 15");
    run(&spec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bench::summary_count;

    /// Rates are wall clock: running the same sweep twice measures every
    /// point twice, and replays nothing from a journal.
    #[test]
    fn every_run_measures_every_point() {
        let dir = std::env::temp_dir().join(format!("fig15-rerun-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("RUSTMTL_BENCH_DIR", &dir);
        let spec = SweepSpec::smoke();
        for pass in 0..2 {
            let report = run(&spec);
            let jobs = report.get("jobs").and_then(Json::as_arr).unwrap();
            assert_eq!(jobs.len(), 4, "pass {pass}");
            assert_eq!(summary_count(&report, "replayed"), 0, "pass {pass}");
            assert_eq!(summary_count(&report, "done"), 4, "pass {pass}");
            let executed =
                jobs.iter().filter(|j| j.get("attempts").and_then(Json::as_u64) == Some(1));
            assert_eq!(executed.count(), 4, "pass {pass}: every job executes");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
