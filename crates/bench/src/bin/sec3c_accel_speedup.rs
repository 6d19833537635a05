//! §III-C: accelerator speedup at the tile level.
//!
//! Runs the matrix-vector kernel in scalar (loop-unrolled) and
//! accelerator-offloaded form on the CL tile (the paper's 2.9x estimate)
//! and the RTL tile (the cycle-count component of the paper's 2.74x net
//! speedup).

use mtl_accel::{
    mvmult_data, mvmult_scalar_program, mvmult_xcel_program, run_tile, MvMultLayout, TileConfig,
    XcelLevel,
};
use mtl_bench::{banner, Args};
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_sim::Engine;

fn kernel_cycles(config: TileConfig, rows: u32, cols: u32, accel: bool) -> u64 {
    let layout = MvMultLayout::default();
    let (mat, vec) = mvmult_data(rows, cols);
    let program = if accel {
        mvmult_xcel_program(rows, cols, layout)
    } else {
        mvmult_scalar_program(rows, cols, layout)
    };
    run_tile(
        config,
        &program,
        &[(layout.mat_base, &mat), (layout.vec_base, &vec)],
        50_000_000,
        Engine::SpecializedOpt,
    )
    .cycles
}

fn main() {
    Args::parse(&[], &[]);
    banner("§III-C: dot-product accelerator speedup (simulated cycles)", "§III-C / Fig. 5");
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>10}",
        "tile", "kernel", "scalar cyc", "accel cyc", "speedup"
    );
    for (config, label) in [
        (TileConfig { proc: ProcLevel::Cl, cache: CacheLevel::Cl, xcel: XcelLevel::Cl }, "CL"),
        (TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl }, "RTL"),
    ] {
        for (rows, cols) in [(8u32, 16u32), (16, 32), (32, 64)] {
            let scalar = kernel_cycles(config, rows, cols, false);
            let accel = kernel_cycles(config, rows, cols, true);
            println!(
                "{:<10} {:>7}x{:<3} {:>14} {:>14} {:>9.2}x",
                label,
                rows,
                cols,
                scalar,
                accel,
                scalar as f64 / accel as f64
            );
        }
    }
    println!("\npaper reference: 2.9x (CL estimate), 2.74x net at RTL after cycle-time overhead");
}
