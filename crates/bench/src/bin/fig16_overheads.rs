//! Figure 16: simulator construction overheads.
//!
//! Reports per-phase construction time — elaboration (elab), tape code
//! generation (cgen), IR optimization (comp), wrapper tables (wrap), and
//! schedule creation (simc) — for 16- and 64-node CL and RTL meshes under
//! the interpreted and fully specialized engines, mirroring the paper's
//! Figure 16 rows. The paper's Verilog translate-and-reparse phase (veri)
//! has no column: the specialized engines compile the elaborated IR, and
//! no build here simulates a re-parsed design.

use mtl_bench::{banner, mesh_harness, secs, Args};
use mtl_net::NetLevel;
use mtl_sim::{Engine, Sim};

fn main() {
    Args::parse(&[], &[]);
    banner("Figure 16: simulator construction overheads (seconds)", "Fig. 16");
    println!(
        "{:<10} {:>6} {:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "nodes", "engine", "elab", "cgen", "comp", "wrap", "simc", "total"
    );
    for level in [NetLevel::Cl, NetLevel::Rtl] {
        for nodes in [16usize, 64] {
            for engine in [Engine::Interpreted, Engine::SpecializedOpt] {
                let sim =
                    Sim::build(&mesh_harness(level, nodes, 300), engine).expect("mesh elaboration");
                let o = *sim.overheads();
                println!(
                    "{:<10} {:>6} {:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    level.to_string(),
                    nodes,
                    engine.to_string(),
                    secs(o.elab),
                    secs(o.cgen),
                    secs(o.comp),
                    secs(o.wrap),
                    secs(o.simc),
                    secs(o.total()),
                );
            }
        }
    }
    println!(
        "\nShape checks: specialized engines pay cgen/comp;\n\
         overheads grow with design size; interpreted engines only pay elab+simc."
    );
}
