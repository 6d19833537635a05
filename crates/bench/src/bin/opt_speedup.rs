//! Tape-optimizer A/B benchmark: each tape-compiling engine measured on
//! the Figure 14 RTL mesh workload (64 routers, injection 300/1000) with
//! the optimizer pass pipeline pinned off and pinned on.
//!
//! The paper's SimJIT argument is that compiling models down lets a real
//! compiler optimize them; our tape engines historically executed the
//! bytecode as-written. This benchmark records what the `mtl-sim` pass
//! pipeline (`crates/sim/src/compile/passes.rs`) buys on the flagship
//! RTL workload: steady-state rate with and without the optimizer, the
//! speedup ratio, and the compile-time op/register reductions, all
//! landing in `BENCH_opt.json`. Each measurement is a `mesh_rate` job of
//! the `mtl-serve` kind catalog (DESIGN.md §10) with `tape_opt` pinned;
//! every point runs as several jobs and the table takes the fastest.
//!
//! Usage:
//!   cargo run -p mtl-bench --release --bin opt_speedup [--smoke]
//!
//! `--smoke` shrinks the measurement windows to CI size. In both modes
//! the binary exits non-zero if the optimized `specialized-opt` RTL rate
//! falls below the unoptimized one — the pipeline must never be a
//! pessimization on the headline workload. The per-pass statistics
//! table of the mesh compiles is `fig14_mesh_speedup --dump-passes`.

use std::process::ExitCode;

use mtl_bench::{banner, job_timing, run_spec, Args};
use mtl_net::NetLevel;
use mtl_sim::Engine;
use mtl_sweep::Json;

const NROUTERS: usize = 64;
const INJECTION: u32 = 300; // near saturation for the 8x8 mesh (fig14 config)
const LEVELS: [NetLevel; 2] = [NetLevel::Cl, NetLevel::Rtl];
const ENGINES: [Engine; 2] = [Engine::Specialized, Engine::SpecializedOpt];

fn job_name(level: NetLevel, engine: Engine, opt: bool, rep: usize) -> String {
    format!("{level}/{engine}{}#{rep}", if opt { "+opt" } else { "+noopt" })
}

/// The measurement window `(min_wall_ms, max_cycles)` of one job.
fn window(smoke: bool) -> (u64, u64) {
    if smoke {
        (60, 50_000)
    } else {
        (800, 2_000_000)
    }
}

/// Jobs per point; the fastest is reported. Single windows showed
/// run-to-run spread larger than the optimizer's effect, and noise is
/// strictly one-sided (it only slows a window down), so best-of-N
/// applied to both A/B sides is the unbiased low-variance estimator.
fn reps(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        3
    }
}

/// The A/B matrix as a registry spec: `reps` `mesh_rate` jobs per
/// (level, engine, optimizer setting).
fn spec(smoke: bool) -> Json {
    let (min_wall_ms, max_cycles) = window(smoke);
    let mut jobs: Vec<Json> = Vec::new();
    for level in LEVELS {
        for engine in ENGINES {
            for opt in [false, true] {
                for rep in 0..reps(smoke) {
                    let mut j = Json::obj();
                    j.set("kind", "mesh_rate")
                        .set("name", job_name(level, engine, opt, rep))
                        .set("level", level.to_string())
                        .set("nrouters", NROUTERS)
                        .set("injection", INJECTION)
                        .set("engine", engine.to_string())
                        .set("tape_opt", opt)
                        .set("min_wall_ms", min_wall_ms)
                        .set("max_cycles", max_cycles)
                        .set("budget_ms", if smoke { 30_000u64 } else { 90_000 });
                    jobs.push(j);
                }
            }
        }
    }
    let mut spec = Json::obj();
    spec.set("name", "opt").set("no_cache", true).set("jobs", jobs);
    spec
}

/// The fastest of a point's jobs; `None` if any of them failed.
fn rate(report: &Json, level: NetLevel, engine: Engine, opt: bool, smoke: bool) -> Option<f64> {
    let rates = (0..reps(smoke))
        .map(|rep| job_timing(report, &job_name(level, engine, opt, rep), "cycles_per_sec"));
    rates.collect::<Option<Vec<f64>>>()?.into_iter().reduce(f64::max)
}

fn main() -> ExitCode {
    banner(
        "Tape-optimizer speedup: fig14 mesh workload, optimizer off vs on",
        "Fig. 14 RTL config",
    );
    let args = Args::parse(&["--smoke"], &[]);
    let smoke = args.flag("--smoke");
    if smoke {
        println!("(smoke mode: CI-sized measurement windows)");
    }

    let mut failed = false;
    let report = run_spec(&spec(smoke), None, None, |report| {
        for level in LEVELS {
            println!("\n--- {level} {NROUTERS}-node mesh (injection {INJECTION}/1000) ---");
            println!(
                "  {:18} {:>14} {:>14} {:>9}",
                "engine", "noopt cyc/s", "opt cyc/s", "speedup"
            );
            for engine in ENGINES {
                let off = rate(report, level, engine, false, smoke);
                let on = rate(report, level, engine, true, smoke);
                match (off, on) {
                    (Some(off), Some(on)) => {
                        println!("  {engine:18} {off:>14.0} {on:>14.0} {:>8.2}x", on / off);
                    }
                    _ => {
                        println!("  {engine:18} FAILED (see BENCH_opt.json)");
                        failed = true;
                    }
                }
            }
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("opt_speedup: {e}");
        std::process::exit(1);
    });

    // The gate: the optimizer must not pessimize the headline RTL
    // configuration (the ≥2x target is tracked in BENCH_opt.json; the
    // hard floor here is "never slower").
    let gate_off = rate(&report, NetLevel::Rtl, Engine::SpecializedOpt, false, smoke);
    let gate_on = rate(&report, NetLevel::Rtl, Engine::SpecializedOpt, true, smoke);
    match (gate_off, gate_on) {
        (Some(off), Some(on)) if on >= off => {
            println!(
                "\nopt gate: OK — rtl/specialized-opt {:.0} -> {:.0} cyc/s ({:.2}x)",
                off,
                on,
                on / off
            );
        }
        (Some(off), Some(on)) => {
            eprintln!(
                "\nopt gate: FAIL — optimizer pessimized rtl/specialized-opt: \
                 {off:.0} -> {on:.0} cyc/s ({:.2}x)",
                on / off
            );
            failed = true;
        }
        _ => {
            eprintln!("\nopt gate: FAIL — rtl/specialized-opt measurement missing");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
