//! §III-D: 8×8 mesh latency vs offered load.
//!
//! Regenerates the paper's CL-network estimates: zero-load latency ≈ 13
//! cycles and saturation ≈ 32% injection rate, plus the same curve for
//! the RTL mesh and the FL ("magic crossbar") reference. Every point is
//! a `mesh_cycles` job of the `mtl-serve` kind catalog (DESIGN.md §10):
//! a 500-cycle warm-up, then a fixed window of seeded uniform traffic;
//! a misrouted packet fails the job. The report lands in
//! `BENCH_sec3d.json`.

use mtl_bench::{banner, mesh_window, run_spec, spec_text, Args};
use mtl_net::NetLevel;
use mtl_sweep::Json;

const LEVELS: [NetLevel; 3] = [NetLevel::Fl, NetLevel::Cl, NetLevel::Rtl];
const INJECTIONS: [u32; 12] = [10, 50, 100, 150, 200, 250, 300, 320, 350, 400, 450, 500];
const SEED: u64 = 0xC0FFEE;

fn job(name: &str, level: NetLevel, injection: u32, cycles: u64) -> String {
    format!(
        r#"{{"kind":"mesh_cycles","name":"{name}","level":"{level}","nrouters":64,
            "injection":{injection},"warmup":500,"cycles":{cycles},"seed":{SEED}}}"#
    )
}

fn spec() -> Json {
    let mut jobs = Vec::new();
    for level in LEVELS {
        for inj in INJECTIONS {
            jobs.push(job(&format!("{level}/inj{inj:03}"), level, inj, 2_000));
        }
        // Zero-load latency: the lowest rate over a longer window.
        jobs.push(job(&format!("{level}/zero-load"), level, 10, 4_000));
    }
    spec_text(r#""name":"sec3d""#, &jobs)
}

fn tables(report: &Json) {
    for level in LEVELS {
        println!("\n--- {level} 64-node mesh ---");
        println!("{:>10} {:>12} {:>14}", "inj/1000", "accepted", "avg latency");
        let mut saturation = None;
        for inj in INJECTIONS {
            let Some((accepted, latency)) = mesh_window(report, &format!("{level}/inj{inj:03}"))
            else {
                println!("{inj:>10} {:>12} {:>14}", "failed", "-");
                continue;
            };
            println!("{inj:>10} {accepted:>12.1} {latency:>14.1}");
            if saturation.is_none() && accepted < inj as f64 * 0.95 {
                saturation = Some(inj);
            }
        }
        match mesh_window(report, &format!("{level}/zero-load")) {
            Some((_, latency)) => println!("zero-load latency: {latency:.1} cycles"),
            None => println!("zero-load latency: failed"),
        }
        match saturation {
            Some(s) => println!("saturation onset: ~{s}/1000 injection"),
            None => println!("no saturation observed in sweep (ideal network)"),
        }
    }
    println!("\npaper reference (CL): zero-load 13 cycles, saturation ~32%");
}

fn main() {
    Args::parse(&[], &[]);
    banner("§III-D: 8x8 mesh latency vs injection rate", "§III-D");
    if let Err(e) = run_spec(&spec(), None, None, tables) {
        eprintln!("sec3d_mesh_latency: {e}");
        std::process::exit(1);
    }
}
