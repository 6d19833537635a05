//! Cache verification: processor + I$/D$ + memory compositions across
//! every (processor level × cache level) pair — the mixed-level
//! simulation matrix that motivates the paper's Figure 13.

use std::sync::{Arc, Mutex};

use mtl_core::{Component, Ctx, Keyed};
use mtl_proc::{
    assemble, proc_component, CacheCL, CacheFL, CacheRTL, Iss, MngrAdapter, ProcLevel, TestMemory,
    PROC_LEVELS,
};
use mtl_sim::{Engine, Sim};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheLevel {
    Fl,
    Cl,
    Rtl,
}

const CACHE_LEVELS: [CacheLevel; 3] = [CacheLevel::Fl, CacheLevel::Cl, CacheLevel::Rtl];

fn cache_component(level: CacheLevel) -> Box<dyn Component> {
    match level {
        CacheLevel::Fl => Box::new(CacheFL),
        CacheLevel::Cl => Box::new(CacheCL::new(16)),
        CacheLevel::Rtl => Box::new(CacheRTL::new(16)),
    }
}

/// Processor + icache + dcache + memory (no accelerator).
struct ProcCacheHarness {
    proc_level: ProcLevel,
    cache_level: CacheLevel,
    mngr: MngrAdapter,
    mem: TestMemory,
}

impl ProcCacheHarness {
    fn new(proc_level: ProcLevel, cache_level: CacheLevel, inputs: Vec<u32>) -> Self {
        Self {
            proc_level,
            cache_level,
            mngr: MngrAdapter::new(inputs),
            mem: TestMemory::new(2, 1 << 16, 2),
        }
    }
}

/// Keyless: its memory and manager adapter hold shared handles.
impl Keyed for ProcCacheHarness {}

impl Component for ProcCacheHarness {
    fn build(&self, c: &mut Ctx) {
        let halted = c.out_port("halted", 1);

        let proc = proc_component(self.proc_level);
        let proc = c.instantiate("proc", &*proc);
        let icache = cache_component(self.cache_level);
        let icache = c.instantiate("icache", &*icache);
        let dcache = cache_component(self.cache_level);
        let dcache = c.instantiate("dcache", &*dcache);
        let mem = c.instantiate("mem", &self.mem);
        let mngr = c.instantiate("mngr", &self.mngr);

        // proc.imem -> icache -> mem.port0
        let imem = c.parent_reqresp_of(&proc, "imem");
        let ic_proc = c.child_reqresp_of(&icache, "proc");
        c.connect_reqresp(imem, ic_proc);
        let ic_mem = c.parent_reqresp_of(&icache, "mem");
        let p0 = c.child_reqresp_of(&mem, "port0");
        c.connect_reqresp(ic_mem, p0);

        // proc.dmem -> dcache -> mem.port1
        let dmem = c.parent_reqresp_of(&proc, "dmem");
        let dc_proc = c.child_reqresp_of(&dcache, "proc");
        c.connect_reqresp(dmem, dc_proc);
        let dc_mem = c.parent_reqresp_of(&dcache, "mem");
        let p1 = c.child_reqresp_of(&mem, "port1");
        c.connect_reqresp(dc_mem, p1);

        // Manager channels.
        let to_proc = c.out_valrdy_of(&mngr, "to_proc");
        c.connect_valrdy(to_proc, c.in_valrdy_of(&proc, "mngr2proc"));
        let p2m = c.out_valrdy_of(&proc, "proc2mngr");
        c.connect_valrdy(p2m, c.in_valrdy_of(&mngr, "from_proc"));

        c.connect(c.port_of(&proc, "halted"), halted);
    }
}

fn run_with_caches(
    proc_level: ProcLevel,
    cache_level: CacheLevel,
    program: &[u32],
    inputs: Vec<u32>,
    max_cycles: u64,
) -> (Vec<u32>, u64) {
    let harness = ProcCacheHarness::new(proc_level, cache_level, inputs);
    let mem = harness.mem.handle();
    let outputs: Arc<Mutex<Vec<u32>>> = harness.mngr.outputs();
    mem.lock().unwrap()[..program.len()].copy_from_slice(program);
    let mut sim = Sim::build(&harness, Engine::SpecializedOpt).unwrap();
    sim.reset();
    let mut cycles = 0;
    while sim.peek_port("halted").is_zero() {
        sim.cycle();
        cycles += 1;
        assert!(
            cycles <= max_cycles,
            "{proc_level}/{cache_level:?} did not halt in {max_cycles} cycles"
        );
    }
    let outs = outputs.lock().unwrap().clone();
    (outs, cycles)
}

fn iss_outputs(program: &[u32], inputs: &[u32]) -> Vec<u32> {
    let mut iss = Iss::new(1 << 16);
    iss.load(0, program);
    iss.mngr2proc.extend(inputs);
    iss.run(1_000_000);
    assert!(iss.halted);
    iss.proc2mngr.clone()
}

/// A loopy program with good spatial locality: sums an array twice (the
/// second pass should hit in the cache).
fn locality_program() -> Vec<u32> {
    assemble(
        "        addi x1, x0, 0x2000
                 addi x2, x0, 16
                 add  x3, x0, x1
                 addi x4, x0, 1
        init:    sw   x4, 0(x3)
                 addi x3, x3, 4
                 addi x4, x4, 1
                 addi x5, x0, 17
                 bne  x4, x5, init
                 addi x6, x0, 0        # sum
                 addi x7, x0, 2        # passes
        pass:    add  x3, x0, x1
                 addi x4, x0, 16
        sum:     lw   x5, 0(x3)
                 add  x6, x6, x5
                 addi x3, x3, 4
                 addi x4, x4, -1
                 bne  x4, x0, sum
                 addi x7, x7, -1
                 bne  x7, x0, pass
                 csrw 0x7C0, x6
                 halt",
    )
    .unwrap()
}

#[test]
fn full_matrix_produces_iss_results() {
    let program = locality_program();
    let expected = iss_outputs(&program, &[]);
    for proc_level in PROC_LEVELS {
        for cache_level in CACHE_LEVELS {
            let (outs, _) = run_with_caches(proc_level, cache_level, &program, vec![], 2_000_000);
            assert_eq!(outs, expected, "{proc_level}/{cache_level:?} diverged");
        }
    }
}

#[test]
fn caches_exploit_locality() {
    // With a real cache (CL), the locality-heavy program should run
    // faster than with the pass-through FL cache in front of a 2-cycle
    // memory... per access the FL cache costs interface latency every
    // time, while the CL cache hits after the first pass.
    let program = locality_program();
    let (_, cl_cycles) =
        run_with_caches(ProcLevel::Cl, CacheLevel::Cl, &program, vec![], 2_000_000);
    let (_, fl_cycles) =
        run_with_caches(ProcLevel::Cl, CacheLevel::Fl, &program, vec![], 2_000_000);
    // The CL cache must provide a measurable benefit on instruction
    // fetches alone (every fetch after the first line hit).
    assert!(cl_cycles < fl_cycles, "cache gave no speedup: CL$ {cl_cycles} vs FL$ {fl_cycles}");
}

#[test]
fn rtl_cache_translates_to_verilog() {
    let design = mtl_core::elaborate(&CacheRTL::new(16)).unwrap();
    let verilog = mtl_translate::translate(&design).unwrap();
    assert!(verilog.contains("module CacheRTL ("));
    let lib = mtl_translate::VerilogLibrary::parse(&verilog).unwrap();
    let mut sim = Sim::build(&lib.top_component(), Engine::SpecializedOpt).unwrap();
    sim.reset();
    sim.run(4);
}

#[test]
fn rtl_proc_translates_to_verilog() {
    let design = mtl_core::elaborate(&mtl_proc::ProcRTL).unwrap();
    let verilog = mtl_translate::translate(&design).unwrap();
    assert!(verilog.contains("module ProcRTL"));
    let lib = mtl_translate::VerilogLibrary::parse(&verilog).unwrap();
    let mut sim = Sim::build(&lib.top_component(), Engine::SpecializedOpt).unwrap();
    sim.reset();
    sim.run(4);
}

#[test]
fn mixed_levels_compose_freely() {
    // FL processor with RTL caches and vice versa — the central
    // mixed-level simulation claim.
    let program = locality_program();
    let expected = iss_outputs(&program, &[]);
    let (outs, _) = run_with_caches(ProcLevel::Fl, CacheLevel::Rtl, &program, vec![], 2_000_000);
    assert_eq!(outs, expected);
    let (outs, _) = run_with_caches(ProcLevel::Rtl, CacheLevel::Cl, &program, vec![], 2_000_000);
    assert_eq!(outs, expected);
}
