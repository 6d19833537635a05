//! Figure 15: specialization speedup vs network load.
//!
//! Sweeps the injection rate of 64-node CL and RTL mesh simulations and
//! reports the speedup of each engine over the interpreted baseline.
//! Heavier load means more simulation work per cycle, so a larger
//! fraction of time is spent in specialized code and speedups grow until
//! the network saturates (the paper's Figure 15 shape).
//!
//! The 48 measurement points (2 levels × 6 rates × 4 engines) are
//! independent sims, so they run as an `mtl-sweep` campaign: sharded
//! across worker threads (`RUSTMTL_JOBS`), panic-isolated, and reported
//! to `BENCH_fig15.json` alongside the stdout table. `--smoke` runs a
//! tiny 16-node / 2-engine / 2-rate variant (< 2s) used by
//! `scripts/verify.sh` to exercise the orchestration path.

use std::time::Duration;

use mtl_bench::{banner, mesh_rate_job, write_bench_report, Args};
use mtl_net::NetLevel;
use mtl_sim::Engine;
use mtl_sweep::{Campaign, CampaignReport};

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

    /// Per-point measurement windows, matching the original serial
    /// methodology: interpreted engines get longer walls but tight cycle
    /// caps; specialized engines the reverse.
    fn windows(&self, level: NetLevel, engine: Engine) -> (Duration, u64) {
        let (wall_slow_ms, cap_slow, wall_fast_ms, cap_fast) = match level {
            NetLevel::Rtl => (900, 600, 500, 60_000),
            _ => (700, 8_000, 400, 400_000),
        };
        let (ms, cap) = match engine {
            Engine::Interpreted | Engine::InterpretedOpt => (wall_slow_ms, cap_slow),
            _ => (wall_fast_ms, cap_fast),
        };
        (Duration::from_millis(ms * self.wall_permille / 1000), cap)
    }

    fn campaign(&self) -> Campaign {
        let mut campaign = Campaign::new(self.report_name);
        for &level in &self.levels {
            for &inj in &self.rates {
                for &engine in &self.engines {
                    let (min_wall, max_cycles) = self.windows(level, engine);
                    campaign = campaign.job(
                        mesh_rate_job(
                            Self::job_name(level, inj, engine),
                            level,
                            self.nrouters,
                            inj,
                            engine,
                            min_wall,
                            max_cycles,
                        )
                        // One pathological point must not stall the
                        // sweep: measurement windows are < 1s, so 30s
                        // means something is badly wrong.
                        .budget(Duration::from_secs(30)),
                    );
                }
            }
        }
        campaign
    }

    fn print_tables(&self, report: &CampaignReport) {
        let baseline = self.engines[0];
        for &level in &self.levels {
            println!("\n--- {level} {}-node mesh, 100K-cycle workload profile ---", self.nrouters);
            print!("{:>10}", "inj/1000");
            for engine in &self.engines[1..] {
                print!(" {:>16}", engine.to_string());
            }
            println!();
            for &inj in &self.rates {
                let base = report.metric(&Self::job_name(level, inj, baseline), "cycles_per_sec");
                print!("{inj:>10}");
                for &engine in &self.engines[1..] {
                    let rate = report.metric(&Self::job_name(level, inj, engine), "cycles_per_sec");
                    match (base, rate) {
                        (Some(b), Some(r)) if b > 0.0 => {
                            print!(" {:>15.1}x", r / b)
                        }
                        _ => print!(" {:>16}", "failed"),
                    }
                }
                println!();
            }
        }
    }
}

fn main() {
    let smoke = Args::parse(&["--smoke"], &[]).flag("--smoke");
    let spec = if smoke { SweepSpec::smoke() } else { SweepSpec::full() };
    banner("Figure 15: engine speedup vs injection rate", "Fig. 15");
    let report = spec.campaign().run();
    spec.print_tables(&report);
    write_bench_report(&report, spec.report_name);
}
