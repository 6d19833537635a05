//! §III-C: accelerator speedup at the tile level.
//!
//! Runs the matrix-vector kernel in scalar (loop-unrolled) and
//! accelerator-offloaded form on the CL tile (the paper's 2.9x estimate)
//! and the RTL tile (the cycle-count component of the paper's 2.74x net
//! speedup). Each run is a `tile_cycles` job of the `mtl-serve` kind
//! catalog (DESIGN.md §10), which fails unless the tile halts with the
//! host product in memory; the report lands in `BENCH_sec3c.json`.

use mtl_bench::{banner, job_metric, run_spec, spec_text, Args};
use mtl_sweep::Json;

const LEVELS: [&str; 2] = ["CL", "RTL"];
const SIZES: [(u32, u32); 3] = [(8, 16), (16, 32), (32, 64)];
const KERNELS: [&str; 2] = ["scalar", "xcel"];

fn job_name(level: &str, (rows, cols): (u32, u32), kernel: &str) -> String {
    format!("{level}/{rows}x{cols}/{kernel}")
}

/// Both kernels at every size on the uniform CL and RTL tiles.
fn spec() -> Json {
    let mut jobs = Vec::new();
    for level in LEVELS {
        for (rows, cols) in SIZES {
            for kernel in KERNELS {
                let name = job_name(level, (rows, cols), kernel);
                jobs.push(format!(
                    r#"{{"kind":"tile_cycles","name":"{name}","proc":"{level}","cache":"{level}",
                        "xcel":"{level}","kernel":"{kernel}","rows":{rows},"cols":{cols},
                        "max_cycles":50000000}}"#
                ));
            }
        }
    }
    spec_text(r#""name":"sec3c""#, &jobs)
}

fn main() {
    Args::parse(&[], &[]);
    banner("§III-C: dot-product accelerator speedup (simulated cycles)", "§III-C / Fig. 5");
    let tables = |report: &Json| {
        println!(
            "{:<10} {:>10} {:>14} {:>14} {:>10}",
            "tile", "kernel", "scalar cyc", "accel cyc", "speedup"
        );
        for level in LEVELS {
            for size in SIZES {
                let cycles = |kernel| job_metric(report, &job_name(level, size, kernel), "cycles");
                let (rows, cols) = size;
                match (cycles("scalar"), cycles("xcel")) {
                    (Some(scalar), Some(accel)) => println!(
                        "{:<10} {:>7}x{:<3} {:>14} {:>14} {:>9.2}x",
                        level,
                        rows,
                        cols,
                        scalar,
                        accel,
                        scalar as f64 / accel as f64
                    ),
                    _ => println!("{level:<10} {rows:>7}x{cols:<3} {:>14}", "failed"),
                }
            }
        }
        println!(
            "\npaper reference: 2.9x (CL estimate), 2.74x net at RTL after cycle-time overhead"
        );
    };
    if let Err(e) = run_spec(&spec(), None, None, tables) {
        eprintln!("sec3c_accel_speedup: {e}");
        std::process::exit(1);
    }
}
