//! Figure 16: simulator construction overheads.
//!
//! Reports per-phase construction time — elaboration (elab), tape code
//! generation (cgen), IR optimization (comp), wrapper tables (wrap), and
//! schedule creation (simc) — for 16- and 64-node CL and RTL meshes under
//! the interpreted and fully specialized engines, mirroring the paper's
//! Figure 16 rows. Each build is a `mesh_rate` job of the `mtl-serve`
//! kind catalog (DESIGN.md §10) — the same cold build Figure 14 charges —
//! with a one-cycle measurement window; the phases are its timing
//! metrics, and the report lands in `BENCH_fig16.json`. The paper's
//! Verilog translate-and-reparse phase (veri) has no column: the
//! specialized engines compile the elaborated IR, and no build here
//! simulates a re-parsed design.

use mtl_bench::{banner, job_timing, run_spec, spec_text, Args};
use mtl_net::NetLevel;
use mtl_sim::Engine;
use mtl_sweep::Json;

const LEVELS: [NetLevel; 2] = [NetLevel::Cl, NetLevel::Rtl];
const NODES: [u64; 2] = [16, 64];
const ENGINES: [Engine; 2] = [Engine::Interpreted, Engine::SpecializedOpt];
const PHASES: [&str; 6] = ["elab", "cgen", "comp", "wrap", "simc", "overhead_total"];

fn job_name(level: NetLevel, nodes: u64, engine: Engine) -> String {
    format!("{level}/{nodes}/{engine}")
}

fn spec() -> Json {
    let mut jobs = Vec::new();
    for level in LEVELS {
        for nodes in NODES {
            for engine in ENGINES {
                let name = job_name(level, nodes, engine);
                jobs.push(format!(
                    r#"{{"kind":"mesh_rate","name":"{name}","level":"{level}","nrouters":{nodes},
                        "injection":300,"engine":"{engine}","min_wall_ms":0,"max_cycles":1}}"#
                ));
            }
        }
    }
    spec_text(r#""name":"fig16","no_cache":true"#, &jobs)
}

fn tables(report: &Json) {
    println!(
        "{:<10} {:>6} {:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "model", "nodes", "engine", "elab", "cgen", "comp", "wrap", "simc", "total"
    );
    for level in LEVELS {
        for nodes in NODES {
            for engine in ENGINES {
                let name = job_name(level, nodes, engine);
                let mut row =
                    format!("{:<10} {nodes:>6} {:<16}", level.to_string(), engine.to_string());
                for phase in PHASES {
                    match job_timing(report, &name, &format!("{phase}_secs")) {
                        Some(secs) => row.push_str(&format!(" {secs:>8.3}")),
                        None => row.push_str(&format!(" {:>8}", "failed")),
                    }
                }
                println!("{row}");
            }
        }
    }
    println!(
        "\nShape checks: specialized engines pay cgen/comp;\n\
         overheads grow with design size; interpreted engines only pay elab+simc."
    );
}

fn main() {
    Args::parse(&[], &[]);
    banner("Figure 16: simulator construction overheads (seconds)", "Fig. 16");
    if let Err(e) = run_spec(&spec(), None, None, tables) {
        eprintln!("fig16_overheads: {e}");
        std::process::exit(1);
    }
}
