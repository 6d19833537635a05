//! Tape-optimizer A/B benchmark: each tape-compiling engine measured on
//! the Figure 14 RTL mesh workload (64 routers, injection 300/1000) with
//! the optimizer pass pipeline pinned off and pinned on.
//!
//! The paper's SimJIT argument is that compiling models down lets a real
//! compiler optimize them; our tape engines historically executed the
//! bytecode as-written. This benchmark records what the `mtl-sim` pass
//! pipeline (`crates/sim/src/passes.rs`) buys on the flagship RTL
//! workload: steady-state rate with and without the optimizer, the
//! speedup ratio, and the compile-time op/register reductions, all
//! landing in `BENCH_opt.json`.
//!
//! Usage:
//!   cargo run -p mtl-bench --release --bin opt_speedup [--smoke] [--dump-passes]
//!
//! `--smoke` shrinks the measurement windows to CI size. In both modes
//! the binary exits non-zero if the optimized `specialized-opt` RTL rate
//! falls below the unoptimized one — the pipeline must never be a
//! pessimization on the headline workload. `--dump-passes` additionally
//! prints the per-pass statistics table for the RTL mesh compile.

use std::process::ExitCode;
use std::time::Duration;

use mtl_bench::{
    banner, measure_rate_best_of, mesh_harness, rate_metrics, write_bench_report, Args,
};
use mtl_net::NetLevel;
use mtl_sim::{Engine, Sim, SimConfig};
use mtl_sweep::{Campaign, CampaignReport};

const NROUTERS: usize = 64;
const INJECTION: u32 = 300; // near saturation for the 8x8 mesh (fig14 config)
const LEVELS: [NetLevel; 2] = [NetLevel::Cl, NetLevel::Rtl];
const ENGINES: [Engine; 3] = [Engine::Specialized, Engine::SpecializedOpt, Engine::SpecializedPar];

fn job_name(level: NetLevel, engine: Engine, opt: bool) -> String {
    format!("{level}/{engine}{}", if opt { "+opt" } else { "+noopt" })
}

fn window(smoke: bool) -> (Duration, u64) {
    if smoke {
        (Duration::from_millis(60), 50_000)
    } else {
        (Duration::from_millis(800), 2_000_000)
    }
}

/// Measurement windows per job; the fastest is reported. Single windows
/// showed run-to-run spread larger than the optimizer's effect, and
/// noise is strictly one-sided (it only slows a window down), so
/// best-of-N applied to both A/B sides is the unbiased low-variance
/// estimator.
fn reps(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        3
    }
}

fn ab_job(level: NetLevel, engine: Engine, opt: bool, smoke: bool) -> mtl_sweep::Job {
    let (min_wall, max_cycles) = window(smoke);
    let n_reps = reps(smoke);
    let mut job = mtl_sweep::Job::new(job_name(level, engine, opt), move |ctx| {
        let harness = mesh_harness(level, NROUTERS, INJECTION);
        let cfg = SimConfig { tape_opt: Some(opt), ..Default::default() };
        let (m, report) = measure_rate_best_of(
            &harness,
            engine,
            &cfg,
            n_reps,
            min_wall,
            max_cycles,
            ctx.deadline(),
        );
        let mut metrics = rate_metrics(&m);
        if let Some(rep) = report {
            metrics = metrics
                .det("tape_ops_before", rep.ops_before)
                .det("tape_ops_after", rep.ops_after)
                .det("tape_regs_before", rep.regs_before)
                .det("tape_regs_after", rep.regs_after)
                .det("opt_rounds", rep.rounds);
        }
        Ok(metrics)
    })
    .param("level", level)
    .param("engine", engine)
    .param("tape_opt", opt)
    .param("nrouters", NROUTERS)
    .param("injection_permille", INJECTION)
    .budget(Duration::from_secs(if smoke { 30 } else { 90 }))
    .uncacheable();
    if engine == Engine::SpecializedPar {
        job = job.param("threads", mtl_sim::default_threads());
    }
    job
}

fn rate(report: &CampaignReport, name: &str) -> Option<f64> {
    report.get(name)?.f64("cycles_per_sec")
}

fn main() -> ExitCode {
    banner(
        "Tape-optimizer speedup: fig14 mesh workload, optimizer off vs on",
        "Fig. 14 RTL config; ROADMAP item 1",
    );
    let args = Args::parse(&["--smoke", "--dump-passes"], &[]);
    let smoke = args.flag("--smoke");
    if smoke {
        println!("(smoke mode: CI-sized measurement windows)");
    }

    if args.flag("--dump-passes") {
        let harness = mesh_harness(NetLevel::Rtl, NROUTERS, INJECTION);
        let sim = Sim::build(&harness, Engine::SpecializedOpt).expect("elaboration failed");
        match sim.opt_report() {
            Some(rep) => println!("\n{}", rep.render()),
            None => println!("\n(optimizer disabled via MTL_TAPE_OPT; no pass report)"),
        }
    }

    let mut campaign = Campaign::new("opt");
    for level in LEVELS {
        for engine in ENGINES {
            for opt in [false, true] {
                campaign = campaign.job(ab_job(level, engine, opt, smoke));
            }
        }
    }
    let report = campaign.run();

    let mut failed = false;
    for level in LEVELS {
        println!("\n--- {level} {NROUTERS}-node mesh (injection {INJECTION}/1000) ---");
        println!("  {:18} {:>14} {:>14} {:>9}", "engine", "noopt cyc/s", "opt cyc/s", "speedup");
        for engine in ENGINES {
            let off = rate(&report, &job_name(level, engine, false));
            let on = rate(&report, &job_name(level, engine, true));
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

    // The gate: the optimizer must not pessimize the headline RTL
    // configuration (the ≥2x target is tracked in BENCH_opt.json; the
    // hard floor here is "never slower").
    let gate_off = rate(&report, &job_name(NetLevel::Rtl, Engine::SpecializedOpt, false));
    let gate_on = rate(&report, &job_name(NetLevel::Rtl, Engine::SpecializedOpt, true));
    write_bench_report(&report, "opt");
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
