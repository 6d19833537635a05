//! Processor-plus-memory test harness, reusable across FL/CL/RTL
//! processors — the paper's test-bench-reuse pattern applied to the
//! processor case study.

use std::sync::{Arc, Mutex};

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, Keyed};
use mtl_sim::{Engine, Sim};

use crate::proc_cl::ProcCL;
use crate::proc_fl::ProcFL;
use crate::proc_pipe::ProcPipeRTL;
use crate::proc_rtl::ProcRTL;
use crate::test_memory::{MemHandle, TestMemory};

/// Abstraction level of a processor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcLevel {
    /// Unpipelined functional state machine.
    Fl,
    /// Cycle-level pipelined-timing model.
    Cl,
    /// Multicycle RTL state machine.
    Rtl,
    /// 5-stage pipelined RTL core.
    PipeRtl,
}

impl std::fmt::Display for ProcLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProcLevel::Fl => "FL",
            ProcLevel::Cl => "CL",
            ProcLevel::Rtl => "RTL",
            ProcLevel::PipeRtl => "RTL-pipe",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for ProcLevel {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) spelling, ignoring
    /// ASCII case.
    fn from_str(s: &str) -> Result<ProcLevel, String> {
        let all = [ProcLevel::Fl, ProcLevel::Cl, ProcLevel::Rtl, ProcLevel::PipeRtl];
        let found = all.into_iter().find(|l| l.to_string().eq_ignore_ascii_case(s));
        found.ok_or_else(|| format!("unknown proc level \"{s}\""))
    }
}

/// Builds a processor of the given level (identical port interfaces).
pub fn proc_component(level: ProcLevel) -> Box<dyn Component> {
    match level {
        ProcLevel::Fl => Box::new(ProcFL),
        ProcLevel::Cl => Box::new(ProcCL),
        ProcLevel::Rtl => Box::new(ProcRTL),
        ProcLevel::PipeRtl => Box::new(ProcPipeRTL),
    }
}

/// Abstraction level of a cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Pass-through forwarder.
    Fl,
    /// Cycle-level direct-mapped blocking cache.
    Cl,
    /// RTL direct-mapped blocking cache (translatable).
    Rtl,
}

impl std::fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CacheLevel::Fl => "FL",
            CacheLevel::Cl => "CL",
            CacheLevel::Rtl => "RTL",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for CacheLevel {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) spelling, ignoring
    /// ASCII case.
    fn from_str(s: &str) -> Result<CacheLevel, String> {
        let all = [CacheLevel::Fl, CacheLevel::Cl, CacheLevel::Rtl];
        let found = all.into_iter().find(|l| l.to_string().eq_ignore_ascii_case(s));
        found.ok_or_else(|| format!("unknown cache level \"{s}\""))
    }
}

/// All cache levels, for matrix tests.
pub const CACHE_LEVELS: [CacheLevel; 3] = [CacheLevel::Fl, CacheLevel::Cl, CacheLevel::Rtl];

/// Builds a cache of the given level with `nlines` lines (ignored at FL).
pub fn cache_component(level: CacheLevel, nlines: u64) -> Box<dyn Component> {
    match level {
        CacheLevel::Fl => Box::new(crate::cache_fl::CacheFL),
        CacheLevel::Cl => Box::new(crate::cache_cl::CacheCL::new(nlines as usize)),
        CacheLevel::Rtl => Box::new(crate::cache_rtl::CacheRTL::new(nlines)),
    }
}

/// An FL component feeding fixed values into the processor's `mngr2proc`
/// channel and collecting `proc2mngr` outputs.
pub struct MngrAdapter {
    inputs: Vec<u32>,
    outputs: Arc<Mutex<Vec<u32>>>,
}

impl MngrAdapter {
    /// Creates an adapter that supplies `inputs` in order.
    pub fn new(inputs: Vec<u32>) -> Self {
        Self { inputs, outputs: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Shared handle to the collected `proc2mngr` values.
    pub fn outputs(&self) -> Arc<Mutex<Vec<u32>>> {
        self.outputs.clone()
    }
}

/// Keyless: it collects outputs in a shared buffer.
impl Keyed for MngrAdapter {}

impl Component for MngrAdapter {
    fn build(&self, c: &mut Ctx) {
        // `to_proc` drives the processor's mngr2proc input; `from_proc`
        // consumes its proc2mngr output.
        let to_proc = c.out_valrdy("to_proc", 32);
        let from_proc = c.in_valrdy("from_proc", 32);
        let reset = c.reset();
        let inputs = self.inputs.clone();
        let outputs = self.outputs.clone();
        let mut idx = 0usize;
        let reads = [to_proc.val, to_proc.rdy, from_proc.msg, from_proc.val, from_proc.rdy, reset];
        let writes = [to_proc.msg, to_proc.val, from_proc.rdy];
        c.tick_fl("mngr_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                idx = 0;
                outputs.lock().unwrap().clear();
                s.write_next(to_proc.val.id(), Bits::from_bool(false));
                s.write_next(from_proc.rdy.id(), Bits::from_bool(false));
                return;
            }
            if s.read(to_proc.val.id()).reduce_or() && s.read(to_proc.rdy.id()).reduce_or() {
                idx += 1;
            }
            if idx < inputs.len() {
                s.write_next(to_proc.msg.id(), Bits::new(32, inputs[idx] as u128));
                s.write_next(to_proc.val.id(), Bits::from_bool(true));
            } else {
                s.write_next(to_proc.val.id(), Bits::from_bool(false));
            }
            if s.read(from_proc.val.id()).reduce_or() && s.read(from_proc.rdy.id()).reduce_or() {
                outputs.lock().unwrap().push(s.read(from_proc.msg.id()).as_u64() as u32);
            }
            s.write_next(from_proc.rdy.id(), Bits::from_bool(true));
        });
    }
}

/// Processor + test memory harness (no caches, no accelerator).
///
/// Top ports: `halted` (1 bit) and `instret` (32 bits).
pub struct ProcMemHarness {
    level: ProcLevel,
    mngr: MngrAdapter,
    mem: TestMemory,
}

impl ProcMemHarness {
    /// Creates a harness around a processor of the given level.
    pub fn new(level: ProcLevel, mem_words: usize, mem_latency: u64, inputs: Vec<u32>) -> Self {
        Self {
            level,
            mngr: MngrAdapter::new(inputs),
            mem: TestMemory::new(2, mem_words, mem_latency),
        }
    }

    /// Backdoor handle to main memory (program loading, result checks).
    pub fn mem_handle(&self) -> MemHandle {
        self.mem.handle()
    }

    /// Handle to collected `proc2mngr` outputs.
    pub fn outputs(&self) -> Arc<Mutex<Vec<u32>>> {
        self.mngr.outputs()
    }
}

/// Keyless: its memory and manager adapter hold shared handles.
impl Keyed for ProcMemHarness {}

impl Component for ProcMemHarness {
    fn build(&self, c: &mut Ctx) {
        let halted = c.out_port("halted", 1);
        let instret = c.out_port("instret", 32);

        let proc = proc_component(self.level);
        let proc = c.instantiate("proc", &*proc);
        let mem = c.instantiate("mem", &self.mem);
        let mngr = c.instantiate("mngr", &self.mngr);

        // imem -> memory port 0, dmem -> memory port 1.
        let imem = c.parent_reqresp_of(&proc, "imem");
        let p0 = c.child_reqresp_of(&mem, "port0");
        c.connect_reqresp(imem, p0);
        let dmem = c.parent_reqresp_of(&proc, "dmem");
        let p1 = c.child_reqresp_of(&mem, "port1");
        c.connect_reqresp(dmem, p1);

        // Manager channels.
        let to_proc = c.out_valrdy_of(&mngr, "to_proc");
        let m2p = c.in_valrdy_of(&proc, "mngr2proc");
        c.connect_valrdy(to_proc, m2p);
        let p2m = c.out_valrdy_of(&proc, "proc2mngr");
        let from_proc = c.in_valrdy_of(&mngr, "from_proc");
        c.connect_valrdy(p2m, from_proc);

        // The accelerator port dangles (no coprocessor in this harness).
        c.connect(c.port_of(&proc, "halted"), halted);
        c.connect(c.port_of(&proc, "instret"), instret);
    }
}

/// Result of running a program on a processor harness.
#[derive(Debug, Clone)]
pub struct ProcRunResult {
    /// Values written to `proc2mngr`, in order.
    pub outputs: Vec<u32>,
    /// Simulated cycles until halt.
    pub cycles: u64,
    /// Retired instructions reported by the processor.
    pub instret: u64,
}

/// Assembles nothing — runs a pre-assembled program to completion on the
/// chosen processor level and engine.
///
/// # Panics
///
/// Panics if the processor does not halt within `max_cycles`.
pub fn run_proc_program(
    level: ProcLevel,
    program: &[u32],
    inputs: Vec<u32>,
    max_cycles: u64,
    engine: Engine,
) -> ProcRunResult {
    let harness = ProcMemHarness::new(level, 1 << 16, 1, inputs);
    let mem = harness.mem_handle();
    let outputs = harness.outputs();
    {
        let mut m = mem.lock().unwrap();
        m[..program.len()].copy_from_slice(program);
    }
    let mut sim = Sim::build(&harness, engine).expect("harness elaboration");
    sim.reset();
    let mut cycles = 0;
    while sim.peek_port("halted").is_zero() {
        sim.cycle();
        cycles += 1;
        assert!(cycles <= max_cycles, "{level} processor did not halt in {max_cycles} cycles");
    }
    let instret = sim.peek_port("instret").as_u64();
    let outs = outputs.lock().unwrap().clone();
    ProcRunResult { outputs: outs, cycles, instret }
}

/// The three canonical abstraction levels used by the paper's 27-config
/// matrix (the pipelined RTL core is an additional implementation at the
/// RTL level).
pub const PROC_LEVELS: [ProcLevel; 3] = [ProcLevel::Fl, ProcLevel::Cl, ProcLevel::Rtl];

/// Every processor implementation, including both RTL cores.
pub const ALL_PROC_IMPLS: [ProcLevel; 4] =
    [ProcLevel::Fl, ProcLevel::Cl, ProcLevel::Rtl, ProcLevel::PipeRtl];
