//! The accelerator-augmented compute tile (the paper's Figure 5(a)):
//! processor + L1 instruction cache + L1 data cache + dot-product
//! accelerator sharing the D$ port through an arbiter.

use std::sync::{Arc, Mutex};

use mtl_core::{Component, Ctx, Keyed};
use mtl_proc::{
    cache_component, proc_component, CacheLevel, MemHandle, MngrAdapter, ProcLevel, TestMemory,
};
use mtl_sim::{Engine, Sim};

use crate::arbiter::MemArbiter;
use crate::xcel_cl::DotProductCL;
use crate::xcel_fl::DotProductFL;
use crate::xcel_rtl::DotProductRTL;

/// Abstraction level of the accelerator model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XcelLevel {
    /// Functional: word-at-a-time fetch, functional dot product.
    Fl,
    /// Cycle-level: pipelined request issue (the paper's Figure 8).
    Cl,
    /// RTL multicycle datapath + FSM (translatable).
    Rtl,
}

impl std::fmt::Display for XcelLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            XcelLevel::Fl => "FL",
            XcelLevel::Cl => "CL",
            XcelLevel::Rtl => "RTL",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for XcelLevel {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) spelling, ignoring
    /// ASCII case.
    fn from_str(s: &str) -> Result<XcelLevel, String> {
        let all = [XcelLevel::Fl, XcelLevel::Cl, XcelLevel::Rtl];
        let found = all.into_iter().find(|l| l.to_string().eq_ignore_ascii_case(s));
        found.ok_or_else(|| format!("unknown xcel level \"{s}\""))
    }
}

/// All accelerator levels, for matrix sweeps.
pub const XCEL_LEVELS: [XcelLevel; 3] = [XcelLevel::Fl, XcelLevel::Cl, XcelLevel::Rtl];

/// Builds an accelerator of the given level (identical ports).
pub fn xcel_component(level: XcelLevel) -> Box<dyn Component> {
    match level {
        XcelLevel::Fl => Box::new(DotProductFL),
        XcelLevel::Cl => Box::new(DotProductCL),
        XcelLevel::Rtl => Box::new(DotProductRTL),
    }
}

/// One tile configuration: the ⟨P, C, A⟩ tuple of the paper's Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Processor level.
    pub proc: ProcLevel,
    /// Cache level (both I$ and D$).
    pub cache: CacheLevel,
    /// Accelerator level.
    pub xcel: XcelLevel,
}

impl TileConfig {
    /// The paper's level-of-detail score: FL=1, CL=2, RTL=3 per
    /// component, summed.
    pub fn lod(&self) -> u32 {
        let score_p = match self.proc {
            ProcLevel::Fl => 1,
            ProcLevel::Cl => 2,
            ProcLevel::Rtl | ProcLevel::PipeRtl => 3,
        };
        let score_c = match self.cache {
            CacheLevel::Fl => 1,
            CacheLevel::Cl => 2,
            CacheLevel::Rtl => 3,
        };
        let score_a = match self.xcel {
            XcelLevel::Fl => 1,
            XcelLevel::Cl => 2,
            XcelLevel::Rtl => 3,
        };
        score_p + score_c + score_a
    }

    /// All 27 ⟨P, C, A⟩ combinations.
    pub fn all() -> Vec<TileConfig> {
        let mut v = Vec::with_capacity(27);
        for proc in mtl_proc::PROC_LEVELS {
            for cache in mtl_proc::CACHE_LEVELS {
                for xcel in XCEL_LEVELS {
                    v.push(TileConfig { proc, cache, xcel });
                }
            }
        }
        v
    }
}

impl std::fmt::Display for TileConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{},{},{}>", self.proc, self.cache, self.xcel)
    }
}

/// The compute tile: exposed ports are two memory parent bundles
/// (`imem_*`, `dmem_*`), the manager channels, and `halted`/`instret`.
#[derive(Hash)]
pub struct Tile {
    /// The ⟨P, C, A⟩ configuration.
    pub config: TileConfig,
    /// Cache lines per cache.
    pub cache_nlines: u64,
}

impl Tile {
    /// Creates a tile with 32-line caches.
    pub fn new(config: TileConfig) -> Self {
        Self { config, cache_nlines: 32 }
    }
}

impl Component for Tile {
    fn build(&self, c: &mut Ctx) {
        let req_w = mtl_proc::mem_req_layout().width();
        let resp_w = mtl_proc::mem_resp_layout().width();
        let imem_out = c.parent_reqresp("imem", req_w, resp_w);
        let dmem_out = c.parent_reqresp("dmem", req_w, resp_w);
        let p2m = c.out_valrdy("proc2mngr", 32);
        let m2p = c.in_valrdy("mngr2proc", 32);
        let halted = c.out_port("halted", 1);
        let instret = c.out_port("instret", 32);

        let proc = proc_component(self.config.proc);
        let proc = c.instantiate("proc", &*proc);
        let icache = cache_component(self.config.cache, self.cache_nlines);
        let icache = c.instantiate("icache", &*icache);
        let dcache = cache_component(self.config.cache, self.cache_nlines);
        let dcache = c.instantiate("dcache", &*dcache);
        let xcel = xcel_component(self.config.xcel);
        let xcel = c.instantiate("xcel", &*xcel);
        let arb = c.instantiate("arb", &MemArbiter);

        // Instruction path: proc.imem -> icache -> tile.imem.
        c.connect_reqresp(c.parent_reqresp_of(&proc, "imem"), c.child_reqresp_of(&icache, "proc"));
        let ic_mem = c.parent_reqresp_of(&icache, "mem");
        c.connect_valrdy(ic_mem.req, {
            // tile.imem is a parent bundle: req out / resp in. Alias the
            // cache's request straight through to the tile port.
            mtl_core::InValRdy {
                msg: imem_out.req.msg,
                val: imem_out.req.val,
                rdy: imem_out.req.rdy,
            }
        });
        c.connect_valrdy(
            mtl_core::OutValRdy {
                msg: imem_out.resp.msg,
                val: imem_out.resp.val,
                rdy: imem_out.resp.rdy,
            },
            ic_mem.resp,
        );

        // Data path: proc.dmem and xcel.mem arbitrate into the D$.
        c.connect_reqresp(c.parent_reqresp_of(&proc, "dmem"), c.child_reqresp_of(&arb, "p0"));
        c.connect_reqresp(c.parent_reqresp_of(&xcel, "mem"), c.child_reqresp_of(&arb, "p1"));
        c.connect_reqresp(c.parent_reqresp_of(&arb, "out"), c.child_reqresp_of(&dcache, "proc"));
        let dc_mem = c.parent_reqresp_of(&dcache, "mem");
        c.connect_valrdy(
            dc_mem.req,
            mtl_core::InValRdy {
                msg: dmem_out.req.msg,
                val: dmem_out.req.val,
                rdy: dmem_out.req.rdy,
            },
        );
        c.connect_valrdy(
            mtl_core::OutValRdy {
                msg: dmem_out.resp.msg,
                val: dmem_out.resp.val,
                rdy: dmem_out.resp.rdy,
            },
            dc_mem.resp,
        );

        // Coprocessor interface.
        c.connect_reqresp(c.parent_reqresp_of(&proc, "xcel"), c.child_reqresp_of(&xcel, "cpu"));

        // Manager channels and status.
        c.connect_valrdy(
            c.out_valrdy_of(&proc, "proc2mngr"),
            mtl_core::InValRdy { msg: p2m.msg, val: p2m.val, rdy: p2m.rdy },
        );
        c.connect_valrdy(
            mtl_core::OutValRdy { msg: m2p.msg, val: m2p.val, rdy: m2p.rdy },
            c.in_valrdy_of(&proc, "mngr2proc"),
        );
        c.connect(c.port_of(&proc, "halted"), halted);
        c.connect(c.port_of(&proc, "instret"), instret);
    }
}

/// Tile + test memory + manager harness; top ports `halted`/`instret`.
pub struct TileHarness {
    /// The tile configuration.
    pub config: TileConfig,
    /// Cache lines per cache (32 unless the cache-capacity ablation
    /// sets it).
    pub cache_nlines: u64,
    mngr: MngrAdapter,
    mem: TestMemory,
}

impl TileHarness {
    /// Creates a harness with `mem_words` of memory, fixed manager
    /// inputs and the tile's 32-line caches.
    pub fn new(config: TileConfig, mem_words: usize, inputs: Vec<u32>) -> Self {
        let cache_nlines = Tile::new(config).cache_nlines;
        let mngr = MngrAdapter::new(inputs);
        Self { config, cache_nlines, mngr, mem: TestMemory::new(2, mem_words, 2) }
    }

    /// Sets the lines per cache.
    pub fn with_cache_nlines(mut self, cache_nlines: u64) -> Self {
        self.cache_nlines = cache_nlines;
        self
    }

    /// Backdoor handle to main memory.
    pub fn mem_handle(&self) -> MemHandle {
        self.mem.handle()
    }

    /// Writes `words` into main memory at `byte_addr` (before the
    /// simulator is built).
    ///
    /// # Panics
    ///
    /// Panics if the words run past the end of memory.
    pub fn load(&self, byte_addr: u32, words: &[u32]) {
        let base = (byte_addr / 4) as usize;
        self.mem.handle().lock().unwrap()[base..base + words.len()].copy_from_slice(words);
    }

    /// Handle to collected `proc2mngr` values.
    pub fn outputs(&self) -> Arc<Mutex<Vec<u32>>> {
        self.mngr.outputs()
    }
}

/// Keyless: its memory and manager adapter hold shared handles.
impl Keyed for TileHarness {}

impl Component for TileHarness {
    fn build(&self, c: &mut Ctx) {
        let halted = c.out_port("halted", 1);
        let instret = c.out_port("instret", 32);
        let tile =
            c.instantiate("tile", &Tile { config: self.config, cache_nlines: self.cache_nlines });
        let mem = c.instantiate("mem", &self.mem);
        let mngr = c.instantiate("mngr", &self.mngr);

        c.connect_reqresp(c.parent_reqresp_of(&tile, "imem"), c.child_reqresp_of(&mem, "port0"));
        c.connect_reqresp(c.parent_reqresp_of(&tile, "dmem"), c.child_reqresp_of(&mem, "port1"));
        c.connect_valrdy(c.out_valrdy_of(&mngr, "to_proc"), c.in_valrdy_of(&tile, "mngr2proc"));
        c.connect_valrdy(c.out_valrdy_of(&tile, "proc2mngr"), c.in_valrdy_of(&mngr, "from_proc"));
        c.connect(c.port_of(&tile, "halted"), halted);
        c.connect(c.port_of(&tile, "instret"), instret);
    }
}

/// Result of running a workload on a tile.
#[derive(Debug, Clone)]
pub struct TileRunResult {
    /// Values written to `proc2mngr`.
    pub outputs: Vec<u32>,
    /// Simulated cycles until halt.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Final memory contents.
    pub mem: Vec<u32>,
}

/// Runs a program on a tile configuration to completion.
///
/// `data` is a list of `(byte_addr, words)` regions loaded before reset.
///
/// # Panics
///
/// Panics if the tile does not halt within `max_cycles`.
pub fn run_tile(
    config: TileConfig,
    program: &[u32],
    data: &[(u32, &[u32])],
    max_cycles: u64,
    engine: Engine,
) -> TileRunResult {
    let harness = TileHarness::new(config, 1 << 16, vec![]);
    harness.load(0, program);
    for &(addr, words) in data {
        harness.load(addr, words);
    }
    let mem = harness.mem_handle();
    let outputs = harness.outputs();
    let mut sim = Sim::build(&harness, engine).expect("tile elaboration");
    sim.reset();
    let mut cycles = 0;
    while sim.peek_port("halted").is_zero() {
        sim.cycle();
        cycles += 1;
        assert!(cycles <= max_cycles, "{config} tile did not halt in {max_cycles} cycles");
    }
    let instret = sim.peek_port("instret").as_u64();
    let outs = outputs.lock().unwrap().clone();
    let mem_final = mem.lock().unwrap().clone();
    TileRunResult { outputs: outs, cycles, instret, mem: mem_final }
}
