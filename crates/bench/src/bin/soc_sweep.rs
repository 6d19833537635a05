//! Multi-tile SoC campaign: composed proc+accel tiles on 16/64/256-router
//! meshes, swept over tile count × abstraction level × traffic pattern.
//!
//! Two job families cover the two SoC personalities from `mtl-soc`:
//!
//! * **Synthetic** points elaborate N hardware traffic-generating tiles
//!   (LFSR-seeded, IR-native) on the mesh and run until the bounded
//!   workload drains, reporting drain cycles and the delivery checksum.
//!   Every job self-checks the checksum against the host golden model —
//!   the workload is a pure function of the seed, never of timing — so a
//!   level or engine that perturbs *functionality* (rather than timing)
//!   fails the campaign instead of skewing a number.
//! * **Compute** points elaborate full proc+cache+xcel tiles whose
//!   memory traffic travels as mesh packets through per-tile network
//!   adapters, run the distributed XOR-reduction workload to halt, and
//!   self-check per-tile results against the host model.
//!
//! All jobs are deterministic (seeded designs, engine-independent
//! results — enforced by `tests/engine_equivalence.rs` on the composed
//! design), hence cacheable and journalable through the hardened
//! `mtl-sweep` path (per-job watchdogs, bounded retry, checkpoint
//! journal; `--journal PATH` overrides the location). Writes
//! `BENCH_soc.json` (`BENCH_soc_smoke.json` for `--smoke`).
//!
//! `--smoke` runs the variant used by `scripts/ci/60_soc.sh`: 4-tile
//! points plus one 1 024-tile RTL point, the scale the per-block compile
//! memo is for. After the campaign it brings that point up once more on
//! its own and prints the time: the campaign row is timed beside the other
//! points and replays from the journal on a rerun, this line is neither, so
//! the campaign's bring-up line leaves that point out.
//!
//! `--verify-engines` is the CI engine-agreement gate on the *composed*
//! design: 16-tile SoCs at CL and RTL run under Interpreted,
//! SpecializedOpt, and SpecializedPar@4 and every outcome field
//! (drain cycle, checksum, packet counts) must agree exactly; any
//! disagreement exits nonzero. This is the acceptance bar that engine
//! choice stays a performance knob on hierarchical compositions.
//!
//! This binary only *declares* the campaign: `Spec::to_json` renders it
//! as `soc_cycles` jobs of the `mtl-serve` kind catalog, which owns the
//! job bodies. `--serve SOCKET` runs that same spec on a running
//! `mtl_serve` daemon instead of in this process — a deployment choice
//! (shared compile cache, daemon-owned journal directory), not a
//! different campaign: tables, summary line, `BENCH_*.json` and the exit
//! code come from the one report document either way.

use mtl_accel::{TileConfig, XcelLevel};
use mtl_bench::{banner, job_metric, job_timing, run_spec, summary_count, Args, JOURNAL_DIR};
use mtl_net::NetLevel;
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_sim::{Engine, Sim, SimConfig};
use mtl_soc::{run_soc_traffic_on, Soc, SocConfig, SocTraffic, TrafficOutcome};
use mtl_sweep::Json;

/// One synthetic design point.
#[derive(Debug, Clone, Copy)]
struct SynPoint {
    tiles: usize,
    net: NetLevel,
    pattern: SocTraffic,
    limit: u32,
}

impl SynPoint {
    fn label(&self) -> String {
        format!("soc{}/{}/{}", self.tiles, self.net, self.pattern)
    }

    /// Whether this is the 1 024-tile point whose bring-up is timed alone
    /// after the campaign (see `solo_bring_up`).
    fn timed_alone(&self) -> bool {
        self.tiles == 1024
    }
}

/// One compute design point (uniform tile level, tornado traffic).
#[derive(Debug, Clone, Copy)]
struct CmpPoint {
    tiles: usize,
    tile: TileConfig,
    net: NetLevel,
    accesses: usize,
}

impl CmpPoint {
    fn label(&self) -> String {
        format!("soc{}/{}/cmp", self.tiles, self.net)
    }
}

struct Spec {
    report_name: &'static str,
    syn: Vec<SynPoint>,
    cmp: Vec<CmpPoint>,
    /// Simulation budget per job, in cycles.
    cycles: u64,
    engine: Engine,
    watchdog_ms: u64,
}

/// Uniform tile config at one level.
fn uniform(p: ProcLevel, c: CacheLevel, x: XcelLevel) -> TileConfig {
    TileConfig { proc: p, cache: c, xcel: x }
}

impl Spec {
    /// The full campaign: {4, 16, 64} tiles × {CL, RTL} × three traffic
    /// patterns synthetic, plus compute points at both levels.
    fn full() -> Spec {
        let mut syn = Vec::new();
        for tiles in [4usize, 16, 64] {
            for net in [NetLevel::Cl, NetLevel::Rtl] {
                for pattern in [SocTraffic::UniformRandom, SocTraffic::Hotspot, SocTraffic::Tornado]
                {
                    syn.push(SynPoint { tiles, net, pattern, limit: 32 });
                }
            }
        }
        let cl = uniform(ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl);
        let rtl = uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl);
        let mut cmp = Vec::new();
        for tiles in [4usize, 16] {
            for (tile, net) in [(cl, NetLevel::Cl), (rtl, NetLevel::Rtl)] {
                cmp.push(CmpPoint { tiles, tile, net, accesses: 8 });
            }
        }
        Spec {
            report_name: "soc",
            syn,
            cmp,
            cycles: 60_000,
            engine: Engine::SpecializedOpt,
            watchdog_ms: 180_000,
        }
    }

    /// The CI smoke variant (`scripts/ci/60_soc.sh`): 4-tile points, and
    /// one 32×32 RTL SoC that must build, drain and match the golden
    /// checksum inside the smoke budget.
    fn smoke() -> Spec {
        Spec {
            report_name: "soc_smoke",
            syn: vec![
                SynPoint {
                    tiles: 4,
                    net: NetLevel::Cl,
                    pattern: SocTraffic::UniformRandom,
                    limit: 16,
                },
                SynPoint { tiles: 4, net: NetLevel::Rtl, pattern: SocTraffic::Tornado, limit: 16 },
                SynPoint {
                    tiles: 1024,
                    net: NetLevel::Rtl,
                    pattern: SocTraffic::UniformRandom,
                    limit: 4,
                },
            ],
            cmp: vec![CmpPoint {
                tiles: 4,
                tile: uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl),
                net: NetLevel::Rtl,
                accesses: 4,
            }],
            cycles: 30_000,
            engine: Engine::SpecializedOpt,
            watchdog_ms: 90_000,
        }
    }

    /// The campaign as a registry spec (DESIGN.md §10). The journal is
    /// set only when pinned on the command line; otherwise whoever runs
    /// the spec places it (`target/sweep-journal/` in-process, the
    /// daemon's `--journal-dir` when served).
    fn to_json(&self, journal: Option<&str>) -> Json {
        let mut spec = Json::obj();
        spec.set("name", self.report_name).set("retries", 1u32);
        if let Some(path) = journal {
            spec.set("journal", path);
        }
        let job = |name: String, workload: &str, tiles: usize, net: NetLevel| {
            let mut j = Json::obj();
            j.set("kind", "soc_cycles")
                .set("name", name)
                .set("workload", workload)
                .set("tiles", tiles)
                .set("net", net.to_string())
                .set("cycles", self.cycles)
                .set("engine", self.engine.to_string())
                .set("watchdog_ms", self.watchdog_ms);
            j
        };
        let syn = self.syn.iter().map(|p| {
            let mut j = job(p.label(), "synthetic", p.tiles, p.net);
            j.set("pattern", p.pattern.to_string()).set("limit", p.limit);
            j
        });
        let cmp = self.cmp.iter().map(|p| {
            let mut j = job(p.label(), "compute", p.tiles, p.net);
            j.set("pattern", SocTraffic::Tornado.to_string())
                .set("proc", p.tile.proc.to_string())
                .set("cache", p.tile.cache.to_string())
                .set("xcel", p.tile.xcel.to_string())
                .set("accesses", p.accesses);
            j
        });
        spec.set("jobs", syn.chain(cmp).collect::<Vec<Json>>());
        spec
    }

    fn print_tables(&self, report: &Json) {
        let m = |name: &str, key: &str| job_metric(report, name, key);
        println!(
            "\n--- synthetic traffic: drain-to-golden, {} engine, {}-cycle budget ---",
            self.engine, self.cycles
        );
        println!(
            "{:<24} {:>8} {:>10} {:>9} {:>9} {:>8}",
            "design", "drained", "checksum", "injected", "delivered", "cycles"
        );
        for &p in &self.syn {
            let name = p.label();
            match m(&name, "cycles") {
                Some(cycles) => println!(
                    "{:<24} {:>8} {:>#10x} {:>9} {:>9} {:>8}",
                    name,
                    if m(&name, "drained") == Some(1) { "yes" } else { "NO" },
                    m(&name, "checksum").unwrap_or(0),
                    m(&name, "injected").unwrap_or(0),
                    m(&name, "delivered").unwrap_or(0),
                    cycles,
                ),
                None => println!("{name:<24} (failed)"),
            }
        }
        // Wall clock, so outside the rows `55_serve.sh` compares. The point
        // `solo_bring_up` times alone is left out: one figure per point.
        let built: Vec<String> = self
            .syn
            .iter()
            .filter(|p| !p.timed_alone())
            .filter_map(|p| {
                let secs = job_timing(report, &p.label(), "overhead_total_secs")?;
                Some(format!("{} {secs:.2}", p.label()))
            })
            .collect();
        println!("bring-up seconds (elaborate + compile): {}", built.join(", "));
        println!("\n--- compute tiles: distributed XOR reduction to halt ---");
        println!(
            "{:<24} {:>8} {:>10} {:>9} {:>8}",
            "design", "halted", "result^", "instret", "cycles"
        );
        for &p in &self.cmp {
            let name = p.label();
            match m(&name, "cycles") {
                Some(cycles) => println!(
                    "{:<24} {:>8} {:>#10x} {:>9} {:>8}",
                    name,
                    if m(&name, "halted") == Some(1) { "yes" } else { "NO" },
                    m(&name, "result_xor").unwrap_or(0),
                    m(&name, "instret").unwrap_or(0),
                    cycles,
                ),
                None => println!("{name:<24} (failed)"),
            }
        }
    }
}

/// The bring-up (elaborate + compile, as the campaign rows'
/// `overhead_total_secs`) of the spec's 1 024-tile point, built here with
/// nothing else in flight and never journaled, so every run measures it.
fn solo_bring_up(spec: &Spec) -> Option<(String, f64)> {
    let p = spec.syn.iter().find(|p| p.timed_alone())?;
    let soc = Soc::new(SocConfig::synthetic(p.tiles, p.net, p.pattern).with_limit(p.limit));
    let sim = Sim::build(&soc, spec.engine).expect("the 1 024-tile SoC elaborates");
    Some((p.label(), sim.overheads().total().as_secs_f64()))
}

/// The CI engine-agreement gate: 16-tile SoCs at CL and RTL must produce
/// field-identical outcomes under Interpreted, SpecializedOpt, and
/// SpecializedPar at 4 explicit worker threads. Returns the number of
/// disagreeing configurations.
fn verify_engines() -> u32 {
    let configs: [(Engine, Option<usize>); 3] = [
        (Engine::Interpreted, None),
        (Engine::SpecializedOpt, None),
        (Engine::SpecializedPar, Some(4)),
    ];
    let mut mismatches = 0;
    println!("\n--- engine agreement on the composed 16-tile SoC ---");
    for net in [NetLevel::Cl, NetLevel::Rtl] {
        // Hotspot, not tornado: a fixed permutation with an even packet
        // budget XOR-cancels to a degenerate all-zero checksum; hotspot
        // keeps every field of the gate's comparison non-trivial.
        let soc = Soc::new(SocConfig::synthetic(16, net, SocTraffic::Hotspot).with_limit(16));
        let golden = soc.golden_checksum().expect("synthetic workload");
        let mut outcomes: Vec<(String, TrafficOutcome)> = Vec::new();
        for &(engine, threads) in &configs {
            let cfg = SimConfig { threads, ..Default::default() };
            let sim = Sim::build_with_config(&soc, engine, &cfg).expect("16-tile SoC elaborates");
            let label = match threads {
                Some(t) => format!("{engine}@{t}"),
                None => engine.to_string(),
            };
            outcomes.push((label, run_soc_traffic_on(&soc, sim, 30_000)));
        }
        let (ref_label, reference) = &outcomes[0];
        let agreed = outcomes.iter().all(|(_, o)| {
            (o.cycles, o.drained, o.checksum, o.injected, o.delivered)
                == (
                    reference.cycles,
                    reference.drained,
                    reference.checksum,
                    reference.injected,
                    reference.delivered,
                )
        }) && reference.drained
            && reference.checksum == golden;
        for (label, o) in &outcomes {
            println!(
                "  soc16/{net}: {label:<18} drained={} checksum={:#010x} cycles={}",
                o.drained, o.checksum, o.cycles
            );
        }
        if agreed {
            println!("  soc16/{net}: all engines agree with {ref_label} and host golden");
        } else {
            println!("  soc16/{net}: ENGINE DISAGREEMENT (golden {golden:#010x})");
            mismatches += 1;
        }
    }
    mismatches
}

fn main() {
    let args = Args::parse(&["--smoke", "--verify-engines"], &["--serve", "--journal"]);
    let spec = if args.flag("--smoke") { Spec::smoke() } else { Spec::full() };
    banner("Multi-tile SoC campaign", "DESIGN.md §13, BENCH_soc");
    if args.flag("--verify-engines") {
        let mismatches = verify_engines();
        if mismatches > 0 {
            eprintln!("soc_sweep --verify-engines: {mismatches} configuration(s) disagree");
            std::process::exit(1);
        }
        return;
    }
    let campaign = spec.to_json(args.value("--journal"));
    let failed = run_spec(&campaign, args.value("--serve"), Some(JOURNAL_DIR), |report| {
        spec.print_tables(report)
    })
    .map(|report| summary_count(&report, "failed"))
    .unwrap_or_else(|e| {
        eprintln!("soc_sweep: {e}");
        std::process::exit(1);
    });
    // Any failed job (non-drain, checksum/result mismatch, timeout) is a
    // campaign failure: the jobs are self-checking, so CI can trust the
    // exit code without parsing the report.
    if failed > 0 {
        eprintln!("soc_sweep: {failed} job(s) failed");
        std::process::exit(1);
    }
    if let Some((label, secs)) = solo_bring_up(&spec) {
        println!("bring-up seconds, {label} alone: {secs:.3}");
    }
}
