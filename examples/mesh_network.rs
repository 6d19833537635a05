//! The §III-D case study: an 8×8 mesh on-chip network at three
//! abstraction levels under uniform-random traffic.
//!
//! Prints the latency-vs-load curve for the FL (magic crossbar), CL, and
//! RTL meshes — reproducing the zero-load-latency and saturation
//! estimates of the paper — and shows the engine speedups on the CL mesh.
//!
//! Run with: `cargo run --release --example mesh_network`

use std::time::Instant;

use rustmtl::net::{MeshTrafficHarness, NetLevel};
use rustmtl::sim::{Engine, Sim};

fn main() {
    for level in [NetLevel::Fl, NetLevel::Cl, NetLevel::Rtl] {
        println!("--- {level} 8x8 mesh ---");
        for inj in [10u32, 150, 300, 400] {
            // 300 warm-up cycles, then a 1500-cycle measurement window.
            let harness = MeshTrafficHarness::new(level, 64, inj, 0xC0FFEE);
            let stats = harness.stats();
            let mut sim = Sim::build(&harness, Engine::SpecializedOpt).unwrap();
            sim.reset();
            sim.run(300);
            stats.lock().unwrap().clear();
            sim.run(1500);
            let stats = stats.lock().unwrap();
            println!(
                "  injection {inj:3}/1000: accepted {:6.1}/1000, avg latency {:6.1} cycles",
                stats.received as f64 * 1000.0 / (1500.0 * 64.0),
                stats.avg_latency()
            );
        }
    }

    // Engine comparison on a shorter CL run.
    println!("\n--- engine comparison (16-node CL mesh, 2000 cycles) ---");
    let mut base = None;
    for engine in Engine::ALL {
        let harness = MeshTrafficHarness::new(NetLevel::Cl, 16, 300, 7);
        let mut sim = Sim::build(&harness, engine).unwrap();
        sim.reset();
        let t0 = Instant::now();
        sim.run(2000);
        let dt = t0.elapsed().as_secs_f64();
        let speedup = match base {
            None => {
                base = Some(dt);
                1.0
            }
            Some(b) => b / dt,
        };
        println!("  {engine:18} {:8.1} ms  ({speedup:.1}x)", dt * 1e3);
    }
}
