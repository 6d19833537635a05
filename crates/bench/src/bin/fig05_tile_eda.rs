//! Figure 5(b): tile area/energy/timing from the analytical EDA model.
//!
//! The paper synthesized, placed, and routed the RTL tile with a Synopsys
//! flow and reported: accelerator ≈ 4% of tile area (0.02 mm²), ≈ 5%
//! cycle-time increase, and a 2.74x net execution-time speedup. This
//! binary regenerates the same three quantities from the analytical EDA
//! model over the elaborated RTL tile (the substitution is documented in
//! DESIGN.md).

use mtl_accel::{
    mvmult_data, mvmult_scalar_program, mvmult_xcel_program, run_tile, MvMultLayout, Tile,
    TileConfig, XcelLevel,
};
use mtl_bench::{banner, Args};
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_sim::Engine;

fn main() {
    Args::parse(&[], &[]);
    banner("Figure 5(b): RTL tile area / timing / net speedup", "Fig. 5(b)");
    let config = TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl };
    // Use the largest supported caches for the area analysis; the paper's
    // tile has multi-KB L1s, so small caches overstate the accelerator's
    // relative area (see EXPERIMENTS.md).
    let design =
        mtl_core::elaborate(&Tile { config, cache_nlines: 128 }).expect("tile elaboration");
    let report = mtl_eda::analyze(&design).expect("EDA analysis");

    println!("total tile area: {:.0} gate equivalents", report.area);
    println!("estimated energy/cycle: {:.0} units", report.energy_per_cycle);
    println!("\narea breakdown by tile component:");
    for (name, area) in &report.area_by_child {
        println!("  {:<10} {:>12.0} GE  ({:>5.1}%)", name, area, 100.0 * area / report.area);
    }
    let accel_frac = report.area_fraction("xcel");
    println!("\naccelerator area fraction: {:.1}% (paper: ~4%)", accel_frac * 100.0);

    let with_accel = report.cycle_time;
    let without_accel =
        mtl_eda::critical_path(&design, Some("xcel")).expect("timing without accel");
    let ct_overhead = (with_accel - without_accel) / without_accel;
    println!(
        "cycle time: {with_accel:.1} gate delays with accel, {without_accel:.1} without \
         -> +{:.1}% (paper: ~5%)",
        ct_overhead * 100.0
    );

    // Net speedup = cycle-count speedup deflated by the cycle-time ratio.
    let layout = MvMultLayout::default();
    let (rows, cols) = (16u32, 32u32);
    let (mat, vec) = mvmult_data(rows, cols);
    let data: Vec<(u32, &[u32])> = vec![(layout.mat_base, &mat), (layout.vec_base, &vec)];
    let scalar = run_tile(
        config,
        &mvmult_scalar_program(rows, cols, layout),
        &data,
        50_000_000,
        Engine::SpecializedOpt,
    )
    .cycles;
    let accel = run_tile(
        config,
        &mvmult_xcel_program(rows, cols, layout),
        &data,
        50_000_000,
        Engine::SpecializedOpt,
    )
    .cycles;
    let cycle_speedup = scalar as f64 / accel as f64;
    let net = cycle_speedup * without_accel / with_accel;
    println!(
        "\nmatrix-vector {rows}x{cols}: scalar {scalar} cycles, accel {accel} cycles \
         -> {cycle_speedup:.2}x in cycles"
    );
    println!("net execution-time speedup after cycle-time overhead: {net:.2}x (paper: 2.74x)");
}
