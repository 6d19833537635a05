//! §III-D: 8×8 mesh latency vs offered load.
//!
//! Regenerates the paper's CL-network estimates: zero-load latency ≈ 13
//! cycles and saturation ≈ 32% injection rate, plus the same curve for
//! the RTL mesh and the FL ("magic crossbar") reference.

use mtl_bench::{banner, Args};
use mtl_net::{measure_network, NetLevel};
use mtl_sim::Engine;

fn main() {
    Args::parse(&[], &[]);
    banner("§III-D: 8x8 mesh latency vs injection rate", "§III-D");
    for level in [NetLevel::Fl, NetLevel::Cl, NetLevel::Rtl] {
        println!("\n--- {level} 64-node mesh ---");
        println!("{:>10} {:>12} {:>14}", "inj/1000", "accepted", "avg latency");
        let mut saturation = None;
        for inj in [10u32, 50, 100, 150, 200, 250, 300, 320, 350, 400, 450, 500] {
            let m = measure_network(level, 64, inj, 500, 2_000, Engine::SpecializedOpt);
            println!("{:>10} {:>12.1} {:>14.1}", inj, m.accepted_permille, m.avg_latency);
            if saturation.is_none() && (m.accepted_permille) < inj as f64 * 0.95 {
                saturation = Some(inj);
            }
        }
        let zl = measure_network(level, 64, 10, 500, 4_000, Engine::SpecializedOpt);
        println!("zero-load latency: {:.1} cycles", zl.avg_latency);
        match saturation {
            Some(s) => println!("saturation onset: ~{s}/1000 injection"),
            None => println!("no saturation observed in sweep (ideal network)"),
        }
    }
    println!("\npaper reference (CL): zero-load 13 cycles, saturation ~32%");
}
