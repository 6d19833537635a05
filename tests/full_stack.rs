//! Full-stack round trips: the entire RTL tile (processor + caches +
//! accelerator + arbiter) is translated to Verilog-2001, re-parsed, and
//! re-composed with the FL test memory — then it runs the matrix-vector
//! kernel and must produce the golden result. This exercises every layer
//! of the framework in one test: DSEL → elaboration → translation →
//! parsing → mixed-level composition → simulation.

use rustmtl::accel::{
    mvmult_data, mvmult_reference, mvmult_xcel_program, MvMultLayout, Tile, TileConfig, XcelLevel,
};
use rustmtl::core::{elaborate, Component, Ctx, Keyed};
use rustmtl::proc::{CacheLevel, MngrAdapter, ProcLevel, TestMemory};
use rustmtl::sim::{Engine, Sim};
use rustmtl::translate::{translate, VerilogLibrary};

/// Harness that wraps any tile-shaped component with memory + manager.
struct RoundTripHarness<'a> {
    tile: &'a dyn Component,
    mngr: MngrAdapter,
    mem: TestMemory,
}

/// Keyless: it borrows its tile and holds a memory handle.
impl Keyed for RoundTripHarness<'_> {}

impl Component for RoundTripHarness<'_> {
    fn build(&self, c: &mut Ctx) {
        let halted = c.out_port("halted", 1);
        let tile = c.instantiate("tile", self.tile);
        let mem = c.instantiate("mem", &self.mem);
        let mngr = c.instantiate("mngr", &self.mngr);
        c.connect_reqresp(c.parent_reqresp_of(&tile, "imem"), c.child_reqresp_of(&mem, "port0"));
        c.connect_reqresp(c.parent_reqresp_of(&tile, "dmem"), c.child_reqresp_of(&mem, "port1"));
        c.connect_valrdy(c.out_valrdy_of(&mngr, "to_proc"), c.in_valrdy_of(&tile, "mngr2proc"));
        c.connect_valrdy(c.out_valrdy_of(&tile, "proc2mngr"), c.in_valrdy_of(&mngr, "from_proc"));
        c.connect(c.port_of(&tile, "halted"), halted);
    }
}

fn run_kernel_on(tile: &dyn Component) -> Vec<u32> {
    let layout = MvMultLayout::default();
    let (rows, cols) = (3u32, 4u32);
    let (mat, vec) = mvmult_data(rows, cols);
    let program = mvmult_xcel_program(rows, cols, layout);

    let harness = RoundTripHarness {
        tile,
        mngr: MngrAdapter::new(vec![]),
        mem: TestMemory::new(2, 1 << 16, 2),
    };
    let mem = harness.mem.handle();
    {
        let mut m = mem.lock().unwrap();
        m[..program.len()].copy_from_slice(&program);
        let base = (layout.mat_base / 4) as usize;
        m[base..base + mat.len()].copy_from_slice(&mat);
        let base = (layout.vec_base / 4) as usize;
        m[base..base + vec.len()].copy_from_slice(&vec);
    }
    let mut sim = Sim::build(&harness, Engine::SpecializedOpt).unwrap();
    sim.reset();
    let mut cycles = 0u64;
    while sim.peek_port("halted").is_zero() {
        sim.cycle();
        cycles += 1;
        assert!(cycles < 3_000_000, "round-trip tile did not halt");
    }
    let base = (layout.out_base / 4) as usize;
    let m = mem.lock().unwrap();
    m[base..base + rows as usize].to_vec()
}

#[test]
fn rtl_tile_survives_verilog_round_trip_and_computes() {
    let config = TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl };
    let tile = Tile::new(config);

    // Golden: the original tile.
    let golden = run_kernel_on(&tile);
    assert_eq!(golden, mvmult_reference(3, 4));

    // Round trip: tile -> Verilog -> parse -> component -> same kernel.
    let design = elaborate(&tile).expect("tile elaboration");
    let verilog = translate(&design).expect("tile translation");
    assert!(verilog.contains("module Tile ("));
    let lib = VerilogLibrary::parse(&verilog)
        .unwrap_or_else(|e| panic!("tile verilog reparse failed: {e}"));
    let reparsed = lib.top_component();
    let round_trip = run_kernel_on(&reparsed);
    assert_eq!(round_trip, golden, "reconstructed tile computed different results");
}

#[test]
fn rtl_tile_verilog_is_substantial_and_structured() {
    let config = TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl };
    let design = elaborate(&Tile::new(config)).unwrap();
    let verilog = translate(&design).unwrap();
    // Hardware-generation sanity: one module per component key; the two
    // caches are one.
    for module in ["ProcRTL (", "CacheRTL (", "DotProductRTL (", "MemArbiter (", "RegisterFile ("] {
        assert!(verilog.contains(&format!("module {module}")), "missing {module}");
    }
    assert!(verilog.lines().count() > 400, "tile Verilog suspiciously small");
}
