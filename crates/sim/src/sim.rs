//! The [`Sim`] simulation tool: the engine-independent API, the logical
//! profiler and the fault-injection protocol, over an [`EngineImpl`]
//! backend (one of the six engines of [`Engine`]).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::{BlockKind, Component, Design, ElabError, MemId, NativeFn, SignalId, SignalKind};

use crate::artifact::{ArtifactCache, Layer, Staged};
use crate::batch::LaneEngine;
use crate::compile::passes::OptReport;
use crate::interp::{DenseSens, DenseStore, HashSens, HashStore, InterpEngine};
use crate::overheads::Overheads;
use crate::profile::{EngineStats, SimProfile};
use crate::tape::mask_of;
use crate::tape_engine::TapeEngine;

/// Simulation engine selection; see `DESIGN.md` for the mapping onto the
/// paper's CPython / PyPy / SimJIT / SimJIT+PyPy regimes. Those four are
/// [`Engine::ALL`]; `SpecializedBatch` runs `SpecializedOpt`'s plans over
/// trial lanes, sized by [`SimConfig`], and `SpecializedPar` is another
/// name for `SpecializedOpt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Event-driven tree-walking simulator with hash-map value storage and
    /// hash-map sensitivity lookup (the CPython analog).
    Interpreted,
    /// Same event-driven tree-walking architecture with dense pre-resolved
    /// storage and sensitivity (the PyPy analog).
    InterpretedOpt,
    /// IR blocks compiled to linear tapes over packed `u128` slots, still
    /// dispatched through the event queue (the SimJIT analog).
    Specialized,
    /// Tapes plus a fully static levelized schedule — no event queue at all
    /// (the SimJIT+PyPy analog).
    SpecializedOpt,
    /// Builds exactly the [`Engine::SpecializedOpt`] engine: the same
    /// plans on the calling thread, whatever [`SimConfig::threads`] says.
    /// It once dealt each gang's lane blocks to a pool of worker threads,
    /// but on a two-core host the two barriers a gang paid made it slower
    /// than one thread, and campaigns already run one simulator per core.
    /// Its name is kept only for the callers that still spell it (the
    /// benchmark harness, journals and result-cache entries that recorded
    /// `specialized-par`); it goes once nothing names it (ROADMAP item 2).
    SpecializedPar,
    /// Batch engine: up to 64 independent trial *lanes* in one simulator,
    /// each a packed state run by the `SpecializedOpt` executor over the
    /// one plan stage all lanes share. A lane runs only while it differs
    /// from lane 0: until something treats it differently it follows lane
    /// 0 and costs nothing, and once it equals lane 0 again in full
    /// ([`Sim::divergence_masks`] checks) it follows again. Lane-exact
    /// with `SpecializedOpt` per lane (the differential suites assert it).
    /// Per-lane stimulus and faults go through [`Sim::poke_lane`] /
    /// [`Sim::inject_lane`]; divergence from lane 0 (the golden lane) is read
    /// with [`Sim::divergence_masks`]. Native blocks are not supported
    /// (a native closure is one stateful instance, not 64).
    SpecializedBatch,
}

impl Engine {
    /// The paper's four engines (CPython, PyPy, SimJIT and SimJIT+PyPy
    /// analogs), in increasing order of specialization: the set every
    /// figure and engine-generic test iterates. [`Engine::SpecializedPar`]
    /// is left out because it is [`Engine::SpecializedOpt`];
    /// [`Engine::SpecializedBatch`] because it is lane-parallel and opt-in
    /// (no native-block support).
    pub const ALL: [Engine; 4] =
        [Engine::Interpreted, Engine::InterpretedOpt, Engine::Specialized, Engine::SpecializedOpt];
}

/// The one engine name table, read by both [`Display`](std::fmt::Display)
/// and [`FromStr`](std::str::FromStr).
const ENGINE_NAMES: [(Engine, &str); 6] = [
    (Engine::Interpreted, "interpreted"),
    (Engine::InterpretedOpt, "interpreted-opt"),
    (Engine::Specialized, "specialized"),
    (Engine::SpecializedOpt, "specialized-opt"),
    (Engine::SpecializedPar, "specialized-par"),
    (Engine::SpecializedBatch, "specialized-batch"),
];

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (_, name) = ENGINE_NAMES.iter().find(|(e, _)| e == self).expect("every engine named");
        write!(f, "{name}")
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    /// Parses the exact [`Display`](std::fmt::Display) spelling.
    fn from_str(s: &str) -> Result<Engine, String> {
        let found = ENGINE_NAMES.iter().find(|(_, name)| *name == s);
        found.map(|&(e, _)| e).ok_or_else(|| format!("unknown engine \"{s}\""))
    }
}

/// Construction-time simulator configuration. Every setting that changes
/// what a simulator computes or how it runs is a field here, visible at
/// the call site; the simulator reads no environment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Read by no engine: every simulator runs on the calling thread.
    /// It once sized [`Engine::SpecializedPar`]'s worker pool and is kept
    /// only so that the callers that still set it compile; it goes with
    /// that engine's name (ROADMAP item 2).
    pub threads: Option<usize>,
    /// Whether the tape engines run the optimizer pass pipeline
    /// ([`crate::passes`]) over compiled tapes; on by default. The
    /// interpreters compile no tapes and ignore it.
    pub tape_opt: bool,
    /// Lane count for [`Engine::SpecializedBatch`], clamped to `1..=64`.
    /// `None` means 64 lanes. Only lane 0 and the lanes that currently
    /// differ from it hold a packed state and run (the others follow lane
    /// 0), so memory and time grow with the lanes a run makes differ, not
    /// with this count. Other engines ignore it.
    pub lanes: Option<u32>,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig { threads: None, tape_opt: true, lanes: None }
    }
}

impl SimConfig {
    /// Resolves [`SimConfig::lanes`] to the lane count (1..=64).
    pub fn batch_lanes(&self) -> u32 {
        self.lanes.map_or(crate::batch::LANES, |n| n.clamp(1, crate::batch::LANES))
    }
}

pub(crate) trait EngineImpl {
    fn poke(&mut self, slot: u32, v: Bits);
    fn peek(&self, slot: u32) -> Bits;
    fn eval(&mut self);
    fn cycle(&mut self);
    fn cycles(&self) -> u64;
    fn peek_mem(&self, mem: usize, addr: u64) -> Bits;
    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits);
    fn set_activity(&mut self, on: bool);
    fn activity(&self) -> &[u64];
    fn set_profiling(&mut self, on: bool);
    fn stats(&self) -> Option<&EngineStats>;
    // Fault-injection primitives (see `Sim::inject`). These let the
    // wrapper drive a cycle manually — settle, clock edge, re-settle —
    // with identical sequencing on every engine, which is what makes
    // faulty traces byte-identical across backends. The lane-addressed
    // ones name one lane (always 0 on the scalar engines), except
    // `settle`, which takes a lane set: one call per step lets the batch
    // engine keep a lane that follows lane 0 following it whenever both
    // are in the set (see `crate::batch`). Which lanes a step visits is
    // the wrapper's decision.
    /// Runs the sequential blocks and commits register/memory shadow
    /// state (the clock-edge half of `cycle()`) on every lane, without
    /// settling combinational logic and without advancing the cycle
    /// counter.
    fn edge(&mut self);
    /// Executes one block serially on one lane through the engine's
    /// native write path. Used by the wrapper's forced settle, which runs
    /// the blocks of a forced net's fan-out cone this way.
    fn exec_block(&mut self, lane: u32, b: u32);
    /// Overwrites a net's settled value on one lane without waking
    /// readers or marking schedules dirty. With `also_next`, the shadow
    /// (`next`) copy is overwritten too, so a forced register value
    /// survives the commit unless a sequential block reassigns it (SEU
    /// semantics: hold paths keep the flipped bit, update paths
    /// overwrite it).
    fn force(&mut self, lane: u32, slot: u32, v: Bits, also_next: bool);
    /// Settles the lanes of the mask `lanes` (a scalar engine's one lane
    /// is bit 0; an empty mask settles nothing): with `full`,
    /// unconditionally re-evaluates every combinational block (washing out
    /// any forced values whose faults expired, or settling after an edge);
    /// otherwise as `eval` does.
    fn settle(&mut self, lanes: u64, full: bool);
    /// Advances the cycle counter (split out of `cycle()` so the
    /// wrapper's faulted path can bump it after the post-edge settle,
    /// matching the counter's position in the normal path).
    fn bump_cycles(&mut self);
    /// Per-pass tape-optimizer statistics from construction, if this
    /// engine compiled tapes with the optimizer enabled. Interpreters
    /// (no tapes) and optimizer-off builds return `None`.
    fn opt_report(&self) -> Option<&OptReport> {
        None
    }
    // Lane (batch-engine) primitives. Scalar engines keep the defaults:
    // a single lane aliasing the ordinary poke/peek path.
    /// Trial lanes this backend simulates (1 for scalar engines).
    fn lane_count(&self) -> u32 {
        1
    }
    /// Drives a net on one lane only (other lanes keep their values).
    fn poke_lane(&mut self, lane: u32, slot: u32, v: Bits) {
        assert_eq!(lane, 0, "scalar engine has a single lane");
        self.poke(slot, v);
    }
    /// Reads a net's value on one lane.
    fn peek_lane(&self, lane: u32, slot: u32) -> Bits {
        assert_eq!(lane, 0, "scalar engine has a single lane");
        self.peek(slot)
    }
    /// Fills `out` (one entry per net slot) with one lane's net values.
    fn net_values(&self, lane: u32, out: &mut [u128]) {
        for (slot, v) in out.iter_mut().enumerate() {
            *v = self.peek_lane(lane, slot as u32).as_u128();
        }
    }
    /// The levelized combinational block order, if the backend holds one
    /// (the wrapper's forced settle walks fan-out cones in its order).
    fn comb_order(&self) -> Option<&[u32]> {
        None
    }
    /// Fills `out` with one mask per net: bit `L` set iff lane `L`'s
    /// value of that net differs from lane 0's. Returns true iff any mask
    /// is non-zero; false (leaving `out` untouched) on engines without
    /// lanes. `&mut`: the batch engine lets a lane found equal to lane 0
    /// in full follow it again.
    fn divergence_masks(&mut self, _out: &mut Vec<u64>) -> bool {
        false
    }
    /// Lanes the backend runs an engine for (the batch engine runs lane 0
    /// and every lane that does not follow it).
    #[cfg(test)]
    fn running_lanes(&self) -> u32 {
        self.lane_count()
    }
}

/// The lanes of a lane mask, lowest first.
pub(crate) fn each_lane(mut lanes: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let lane = (lanes != 0).then(|| lanes.trailing_zeros());
        lanes &= lanes.wrapping_sub(1);
        lane
    })
}

/// The disturbance a scheduled [`Injection`] applies to its target net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectKind {
    /// Transient single-event upset: XOR the mask into the settled value.
    /// On a register net the flipped bits persist across the clock edge
    /// unless the register captures a new value that cycle.
    Flip,
    /// Stuck-at-0: masked bits forced low for the fault's duration.
    StuckAt0,
    /// Stuck-at-1: masked bits forced high for the fault's duration.
    StuckAt1,
}

impl std::fmt::Display for InjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InjectKind::Flip => "flip",
            InjectKind::StuckAt0 => "stuck-at-0",
            InjectKind::StuckAt1 => "stuck-at-1",
        };
        write!(f, "{s}")
    }
}

/// One scheduled fault on a net, installed with [`Sim::inject`].
///
/// The fault is applied as a post-settle/pre-edge hook: on each cycle in
/// `[cycle, cycle + duration)` the simulator settles combinational logic,
/// applies the disturbance, re-settles in a fixed levelized order while
/// holding the disturbed value forced, and only then clocks the edge — so
/// sequential state captures the faulty values. Stuck-at faults are also
/// held through the post-edge settle; transient flips are not (their
/// effect persists only through whatever state latched them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Any signal on the target net (internal signals allowed).
    pub sig: SignalId,
    /// Bits of the net to disturb; must be non-zero and within the net's
    /// width.
    pub mask: u128,
    /// Disturbance kind.
    pub kind: InjectKind,
    /// First cycle (as counted by [`Sim::cycle_count`]) the fault is
    /// active.
    pub cycle: u64,
    /// Number of consecutive cycles the fault is active (≥ 1; transient
    /// flips are conventionally 1).
    pub duration: u64,
}

/// An installed fault: the [`Injection`] resolved to a net slot.
#[derive(Clone, Copy)]
struct FaultState {
    slot: u32,
    width: u32,
    is_reg: bool,
    mask: u128,
    kind: InjectKind,
    cycle: u64,
    duration: u64,
}

impl FaultState {
    /// Whether the fault disturbs the pre-edge settle of `cycle`.
    fn active_pre(&self, cycle: u64) -> bool {
        cycle >= self.cycle && cycle - self.cycle < self.duration
    }

    /// Whether the fault is still forced after the edge of `cycle`
    /// (stuck-at faults only; a flip is a one-shot disturbance whose
    /// persistence comes from state that latched it).
    fn active_post(&self, cycle: u64) -> bool {
        self.kind != InjectKind::Flip && self.active_pre(cycle)
    }

    /// The forced value given a freshly driven clean value `v`.
    fn apply(&self, v: u128, width_mask: u128) -> u128 {
        let forced = match self.kind {
            InjectKind::Flip => v ^ self.mask,
            InjectKind::StuckAt0 => v & !self.mask,
            InjectKind::StuckAt1 => v | self.mask,
        };
        forced & width_mask
    }
}

/// Logical profiling state kept in the `Sim` wrapper (engine-independent
/// by construction: it is computed from settled-value snapshots, never
/// from what the backend happened to execute).
struct ProfileState {
    /// Settled net values as of the last observation, indexed by net.
    snapshot: Vec<Bits>,
    /// Scratch: which nets changed at the current settle point.
    changed: Vec<bool>,
    /// For each combinational block, the net slots whose settled-value
    /// change counts as an execution: its reads (minus nets it writes
    /// itself, mirroring the engines' sensitivity lists) plus its writes
    /// (covering re-evaluation triggered through memories).
    comb_triggers: Vec<(u32, Vec<u32>)>,
    /// Sequential block indices (run once per clock edge, every engine).
    seq_blocks: Vec<u32>,
    /// Logical execution count per block.
    block_runs: Vec<u64>,
    /// Settle points observed (`eval()` + `cycle()` calls).
    settles: u64,
}

/// The forced settle's schedule and fan-out cones, built on the first
/// `inject`. Blocks are named by their position in `sched`, so a cone in
/// ascending order is a walk in schedule order.
struct Cones {
    /// Levelized combinational order (the backend's, or the design's).
    sched: Vec<u32>,
    /// Per net, the schedule positions of the comb blocks reading it:
    /// `readers[reader_start[n]..reader_start[n + 1]]`.
    reader_start: Vec<u32>,
    readers: Vec<u32>,
    /// The cone of each net a fault was installed on.
    cones: HashMap<u32, Cone>,
}

/// What a force on one net can reach within a settle.
struct Cone {
    /// Schedule positions, ascending: the net's comb readers and comb
    /// driver, closed under "reads a net a cone block writes".
    blocks: Vec<u32>,
    /// The nets the cone's blocks write, ascending.
    writes: Vec<u32>,
}

impl Cones {
    fn new(design: &Design, sched: Vec<u32>) -> Cones {
        let nets = design.nets().len();
        // Each block's reads as net slots, in schedule order. A net read
        // through two aliases lists its reader twice, which the closure
        // in `install` absorbs.
        let reads = || {
            let blocks = sched.iter().map(|&b| &design.blocks()[b as usize].reads);
            blocks.enumerate().flat_map(|(pos, reads)| {
                reads.iter().map(move |&s| (pos as u32, design.net_of(s).index()))
            })
        };
        let mut reader_start = vec![0u32; nets + 1];
        for (_, n) in reads() {
            reader_start[n + 1] += 1;
        }
        for n in 0..nets {
            reader_start[n + 1] += reader_start[n];
        }
        let mut fill = reader_start.clone();
        let mut readers = vec![0u32; reader_start[nets] as usize];
        for (pos, n) in reads() {
            readers[fill[n] as usize] = pos;
            fill[n] += 1;
        }
        Cones { sched, reader_start, readers, cones: HashMap::new() }
    }

    fn readers(&self, net: u32) -> &[u32] {
        let (lo, hi) = (self.reader_start[net as usize], self.reader_start[net as usize + 1]);
        &self.readers[lo as usize..hi as usize]
    }

    /// The cone of a force on `net`, computed once per net.
    fn install(&mut self, design: &Design, net: u32) {
        if self.cones.contains_key(&net) {
            return;
        }
        let mut inside = vec![false; self.sched.len()];
        let driver = design.nets()[net as usize]
            .driver
            .filter(|d| design.blocks()[d.index()].kind == BlockKind::Comb)
            .and_then(|d| self.sched.iter().position(|&b| b as usize == d.index()));
        let mut stack: Vec<u32> = self.readers(net).to_vec();
        stack.extend(driver.map(|pos| pos as u32));
        let (mut blocks, mut writes) = (Vec::new(), Vec::new());
        while let Some(pos) = stack.pop() {
            if std::mem::replace(&mut inside[pos as usize], true) {
                continue;
            }
            blocks.push(pos);
            for &w in &design.blocks()[self.sched[pos as usize] as usize].writes {
                let w = design.net_of(w).index() as u32;
                writes.push(w);
                stack.extend(self.readers(w).iter().filter(|&&r| !inside[r as usize]));
            }
        }
        blocks.sort_unstable();
        writes.sort_unstable();
        writes.dedup();
        self.cones.insert(net, Cone { blocks, writes });
    }

    /// The union of the cones of `nets` (each installed) as `(blocks,
    /// writes)`, both ascending.
    fn merged(&self, nets: impl Iterator<Item = u32>) -> (Vec<u32>, Vec<u32>) {
        let (mut blocks, mut writes) = (Vec::new(), Vec::new());
        for n in nets {
            let cone = &self.cones[&n];
            blocks.extend_from_slice(&cone.blocks);
            writes.extend_from_slice(&cone.writes);
        }
        for v in [&mut blocks, &mut writes] {
            v.sort_unstable();
            v.dedup();
        }
        (blocks, writes)
    }
}

/// A constructed simulator for an elaborated design.
///
/// `Sim` is the analog of PyMTL's `SimulationTool`: it consumes a
/// [`Design`] and provides `poke`/`peek`/`cycle` test-bench operations. The
/// engine choice trades construction overhead for simulation speed; all
/// engines produce identical cycle-by-cycle behavior (a property the test
/// suite checks on random designs).
///
/// # Examples
///
/// ```
/// use mtl_core::{elaborate, Component, Ctx};
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// #[derive(Hash)]
/// struct Register { nbits: u32 }
/// impl Component for Register {
///     fn build(&self, c: &mut Ctx) {
///         let in_ = c.in_port("in_", self.nbits);
///         let out = c.out_port("out", self.nbits);
///         c.seq("seq_logic", |b| b.assign(out, in_));
///     }
/// }
///
/// let mut sim = Sim::build(&Register { nbits: 8 }, Engine::SpecializedOpt).unwrap();
/// sim.poke_port("in_", b(8, 42));
/// sim.cycle();
/// assert_eq!(sim.peek_port("out"), b(8, 42));
/// ```
pub struct Sim {
    design: Arc<Design>,
    engine: Engine,
    overheads: Overheads,
    backend: Box<dyn EngineImpl>,
    profile: Option<ProfileState>,
    /// Installed faults as `(lane, fault)` pairs (empty in the common
    /// case: the fast paths in `cycle`/`run` are untouched unless
    /// `inject` was called). The lane is always 0 on the scalar engines.
    faults: Vec<(u32, FaultState)>,
    /// The forced settle's schedule and cone tables; built on the first
    /// `inject`.
    cones: Option<Cones>,
    /// Whether `forced_settle` runs the whole-schedule walk it replaced,
    /// the oracle its cone walk is held to.
    #[cfg(test)]
    walk_oracle: bool,
    /// Lanes on which a forced (stuck-at) settle ran after the edge: once
    /// no fault holds such a lane any more, its next settle must be a full
    /// pass to wash the forces out.
    fault_cleanup: u64,
    /// Per lane: bits disturbed so far (one count per masked bit per
    /// faulted cycle) and cycles on which at least one of the lane's
    /// faults was active.
    fault_totals: Vec<(u64, u64)>,
}

impl Sim {
    /// Elaborates a component and constructs a simulator, recording the
    /// elaboration time in [`Sim::overheads`].
    ///
    /// # Errors
    ///
    /// Returns any [`ElabError`] from elaboration.
    pub fn build(top: &dyn Component, engine: Engine) -> Result<Sim, ElabError> {
        Sim::build_with_config(top, engine, &SimConfig::default())
    }

    /// Constructs a simulator from an already-elaborated design.
    ///
    /// Construction phases (code generation, optimization, wrapper tables,
    /// schedule creation) are timed into [`Sim::overheads`].
    pub fn new(design: Design, engine: Engine) -> Sim {
        Sim::with_config(design, engine, &SimConfig::default())
    }

    /// [`Sim::new`] with explicit configuration: the tape-optimizer switch
    /// and the `SpecializedBatch` lane count (see [`SimConfig`]).
    pub fn with_config(design: Design, engine: Engine, cfg: &SimConfig) -> Sim {
        Sim::assemble(Arc::new(design), engine, cfg, None, Overheads::default())
    }

    /// Constructs the engine backend: resolve the artifact stage the
    /// engine executes — through the shared [`ArtifactCache`] if there is
    /// one, where reused stages skip their `comp`/`cgen`/plan-fusion
    /// phases — and hand it to the engine's constructor. The
    /// interpreters walk the IR and need no artifact.
    fn make_backend(
        design: &Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        engine: Engine,
        cfg: &SimConfig,
        shared: Option<(&ArtifactCache, u64)>,
        o: &mut Overheads,
    ) -> Box<dyn EngineImpl> {
        let mut staged = |need| crate::compile::staged(design, cfg.tape_opt, need, shared, o);
        let design = design.clone();
        match engine {
            Engine::Interpreted => {
                Box::new(InterpEngine::<HashStore, HashSens>::new(design, natives, true, o))
            }
            Engine::InterpretedOpt => {
                Box::new(InterpEngine::<DenseStore, DenseSens>::new(design, natives, false, o))
            }
            Engine::Specialized => {
                let s = staged(Layer::Blocks);
                Box::new(TapeEngine::new(design, natives, true, &s, o))
            }
            Engine::SpecializedOpt | Engine::SpecializedPar => {
                let s = staged(Layer::Plans);
                Box::new(TapeEngine::new(design, natives, false, &s, o))
            }
            Engine::SpecializedBatch => {
                assert!(
                    natives.iter().all(Option::is_none),
                    "Engine::SpecializedBatch does not support native blocks: a native \
                     closure is one stateful instance, not 64 lanes. Use an IR-level \
                     (RTL) model or a scalar engine."
                );
                let s = staged(Layer::Plans);
                Box::new(LaneEngine::new(design, &s, cfg.batch_lanes(), o))
            }
        }
    }

    fn assemble(
        design: Arc<Design>,
        engine: Engine,
        cfg: &SimConfig,
        shared: Option<(&ArtifactCache, u64)>,
        mut overheads: Overheads,
    ) -> Sim {
        // Take ownership of native closures so the Design can be shared.
        // A cache-served design was drained by its first simulator; only
        // native-free designs are cached, so this returns the correct
        // all-`None` vector for it.
        let natives: Vec<Option<NativeFn>> = design.take_natives();
        let mut backend = Sim::make_backend(&design, natives, engine, cfg, shared, &mut overheads);
        // Ties are connections, not blocks: each tied net takes its value
        // once, here, and nothing writes it after.
        for &(net, value) in design.ties() {
            backend.poke(net.index() as u32, value);
        }
        let fault_totals = vec![(0, 0); backend.lane_count() as usize];
        Sim {
            design,
            engine,
            overheads,
            backend,
            profile: None,
            faults: Vec::new(),
            cones: None,
            #[cfg(test)]
            walk_oracle: false,
            fault_cleanup: 0,
            fault_totals,
        }
    }

    /// [`Sim::build_with_config`] backed by a shared [`ArtifactCache`]:
    /// the elaborated design (when native-free) and the tape engines'
    /// compile output are reused across simulator instances under `key`.
    ///
    /// `key` must uniquely identify the *design produced by `top`* —
    /// derive it from the same parameters that configure the component
    /// (e.g. with `mtl-sweep`'s FNV hasher). It should *not* include
    /// run-varying inputs like stimulus seeds or cycle counts, or nothing
    /// will ever be shared. A wrong key is caught by a structural shape
    /// check and degrades to a fresh compile.
    ///
    /// Reused phases report zero time in [`Sim::overheads`] (`comp`,
    /// `cgen`, and the fused-plan share of `simc` on a tape hit; `elab`
    /// additionally on a design hit) — the honest cost of a cache hit.
    ///
    /// # Errors
    ///
    /// Returns any [`ElabError`] from elaboration.
    pub fn build_shared(
        top: &dyn Component,
        engine: Engine,
        cfg: &SimConfig,
        cache: &ArtifactCache,
        key: u64,
    ) -> Result<Sim, ElabError> {
        let t0 = Instant::now();
        let staged = cache.get_or_build(key, Layer::Design, None, |_| {
            let design = mtl_core::elaborate(top)?;
            Ok(Staged { design: Some(Arc::new(design)), ..Staged::default() })
        })?;
        let design = staged.design.expect("get_or_build returns the requested layer");
        let overheads = Overheads { elab: t0.elapsed(), ..Default::default() };
        Ok(Sim::assemble(design, engine, cfg, Some((cache, key)), overheads))
    }

    /// [`Sim::build`] with explicit configuration (see [`SimConfig`]).
    ///
    /// # Errors
    ///
    /// Returns any [`ElabError`] from elaboration.
    pub fn build_with_config(
        top: &dyn Component,
        engine: Engine,
        cfg: &SimConfig,
    ) -> Result<Sim, ElabError> {
        let t0 = Instant::now();
        let design = mtl_core::elaborate(top)?;
        let elab = t0.elapsed();
        let mut sim = Sim::with_config(design, engine, cfg);
        sim.overheads.elab = elab;
        Ok(sim)
    }

    /// The engine this simulator runs on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Per-phase construction overheads (the paper's Fig. 16 columns).
    pub fn overheads(&self) -> &Overheads {
        &self.overheads
    }

    /// Per-pass tape-optimizer statistics from construction (the
    /// `--dump-passes` payload). `None` for the interpreters (no tapes)
    /// and for optimizer-off builds.
    pub fn opt_report(&self) -> Option<&OptReport> {
        self.backend.opt_report()
    }

    /// Drives a top-level input port.
    ///
    /// # Panics
    ///
    /// Panics if `sig` is not an input port of the top-level module.
    pub fn poke(&mut self, sig: SignalId, v: Bits) {
        let info = self.design.signal(sig);
        assert!(
            info.kind == SignalKind::InPort && info.module == self.design.top(),
            "poke target `{}` is not a top-level input port",
            self.design.signal_path(sig)
        );
        assert_eq!(info.width, v.width(), "poke width mismatch on `{}`", info.name);
        self.backend.poke(self.design.net_of(sig).index() as u32, v);
    }

    /// Reads the current value of any signal.
    pub fn peek(&self, sig: SignalId) -> Bits {
        self.backend.peek(self.design.net_of(sig).index() as u32)
    }

    /// Drives a top-level input port by name.
    pub fn poke_port(&mut self, name: &str, v: Bits) {
        let sig = self.design.top_port(name);
        self.poke(sig, v);
    }

    /// Reads a top-level port by name.
    pub fn peek_port(&self, name: &str) -> Bits {
        self.peek(self.design.top_port(name))
    }

    /// Propagates combinational logic to a fixed point without advancing
    /// the clock. With a fault currently active, the settle holds the
    /// disturbed values forced, so peeks observe the faulty network.
    pub fn eval(&mut self) {
        if self.faults.is_empty() && self.fault_cleanup == 0 {
            self.backend.eval();
        } else {
            let pre = self.active_faults(self.backend.cycles(), false);
            self.settle_unforced(self.lanes_of(&pre));
            self.forced_settle(&pre);
        }
        self.observe_settle(false);
    }

    /// Advances one clock cycle: settle combinational logic, run sequential
    /// blocks, commit register and memory state, and re-settle. Cycles on
    /// which an installed fault is active take the injection path (see
    /// [`Sim::inject`]); all other cycles are unaffected.
    pub fn cycle(&mut self) {
        if self.faults.is_empty() && self.fault_cleanup == 0 {
            self.backend.cycle();
        } else {
            let now = self.backend.cycles();
            let pre = self.active_faults(now, false);
            if !pre.is_empty() {
                self.faulted_cycle(now, &pre);
            } else {
                self.backend.settle(std::mem::take(&mut self.fault_cleanup), true);
                self.backend.cycle();
            }
        }
        self.observe_settle(true);
    }

    /// Advances `n` clock cycles.
    pub fn run(&mut self, n: u64) {
        if self.profile.is_some() || !self.faults.is_empty() || self.fault_cleanup != 0 {
            for _ in 0..n {
                self.cycle();
            }
        } else {
            for _ in 0..n {
                self.backend.cycle();
            }
        }
    }

    /// Asserts reset for two cycles, then deasserts it and re-settles, so
    /// state observed before the next `cycle()` already reflects
    /// deasserted reset.
    pub fn reset(&mut self) {
        let reset = self.design.reset();
        let slot = self.design.net_of(reset).index() as u32;
        self.backend.poke(slot, Bits::from_bool(true));
        self.cycle();
        self.cycle();
        self.backend.poke(slot, Bits::from_bool(false));
        self.eval();
    }

    /// The number of clock edges simulated so far.
    pub fn cycle_count(&self) -> u64 {
        self.backend.cycles()
    }

    /// Installs a scheduled fault (transient bit-flip or stuck-at) on a
    /// net — on every lane of a batch simulator. Multiple faults may be
    /// installed, including on the same net; they compound in
    /// installation order.
    ///
    /// Injection is a post-settle/pre-edge hook: on each active cycle the
    /// wrapper applies the disturbance and re-settles combinational logic
    /// with the disturbed value held forced — to the state one pass over
    /// the design's levelized block order would reach, computed as one
    /// ordinary settle plus a walk of the forced nets' fan-out cone — then
    /// clocks the edge, then re-settles (stuck-at faults stay forced, flips
    /// do not). Because the wrapper drives this one sequence through
    /// engine-agnostic, lane-addressed primitives in one fixed order, all
    /// six engines — and every lane of the batch engine — produce
    /// byte-identical faulty traces for the same faults, a property
    /// `mtl-check` asserts differentially.
    ///
    /// # Panics
    ///
    /// Panics if the mask is zero or exceeds the net width, if the
    /// duration is zero, or if the target net is an undriven non-register
    /// net (e.g. a top-level input: nothing would restore it after the
    /// fault expires — drive stimulus through `poke` instead).
    pub fn inject(&mut self, inj: Injection) {
        let fault = self.resolve_fault(inj);
        for lane in 0..self.backend.lane_count() {
            self.install(lane, fault);
        }
    }

    fn install(&mut self, lane: u32, fault: FaultState) {
        let design = &self.design;
        let backend = &self.backend;
        let cones = self.cones.get_or_insert_with(|| {
            let sched = match backend.comb_order() {
                Some(order) => order.to_vec(),
                None => crate::compile::comb_order(design),
            };
            Cones::new(design, sched)
        });
        cones.install(design, fault.slot);
        self.faults.push((lane, fault));
    }

    /// Validates an [`Injection`] and resolves it to a [`FaultState`].
    fn resolve_fault(&self, inj: Injection) -> FaultState {
        let design = &self.design;
        let net = design.net_of(inj.sig);
        let slot = net.index() as u32;
        let info = &design.nets()[net.index()];
        let path = || design.signal_path(inj.sig);
        assert!(inj.mask != 0, "injection on `{}` has an empty mask", path());
        assert!(
            inj.mask & !mask_of(info.width) == 0,
            "injection mask {:#x} exceeds the {}-bit width of `{}`",
            inj.mask,
            info.width,
            path()
        );
        assert!(inj.duration >= 1, "injection on `{}` has zero duration", path());
        assert!(
            info.is_register
                || design
                    .blocks()
                    .iter()
                    .any(|b| b.writes.iter().any(|&w| design.net_of(w) == net)),
            "injection target `{}` is an undriven non-register net; \
             poke stimulus instead of injecting faults on inputs",
            path()
        );
        FaultState {
            slot,
            width: info.width,
            is_reg: info.is_register,
            mask: inj.mask,
            kind: inj.kind,
            cycle: inj.cycle,
            duration: inj.duration,
        }
    }

    /// Total disturbed bits so far (one per masked bit per faulted
    /// cycle). On the batch engine this reports lane 0 (the conventional
    /// golden/reference lane); use [`Sim::lane_fault_totals`] for other
    /// lanes.
    pub fn injected_bits(&self) -> u64 {
        self.fault_totals[0].0
    }

    /// Cycles simulated so far on which at least one fault was active
    /// (lane 0 on the batch engine).
    pub fn faulted_cycle_count(&self) -> u64 {
        self.fault_totals[0].1
    }

    /// Trial lanes: 1 on the scalar engines, the configured lane count
    /// (up to 64) on [`Engine::SpecializedBatch`].
    pub fn lane_count(&self) -> u32 {
        self.backend.lane_count()
    }

    /// Drives a top-level input port on one lane only (batch engine).
    /// Lane 0 of a batch simulator with no other per-lane state is
    /// bit-exact with a scalar engine receiving the same pokes.
    ///
    /// # Panics
    ///
    /// Panics like [`Sim::poke`], or if `lane` is out of range.
    pub fn poke_lane(&mut self, lane: u32, sig: SignalId, v: Bits) {
        let info = self.design.signal(sig);
        assert!(
            info.kind == SignalKind::InPort && info.module == self.design.top(),
            "poke target `{}` is not a top-level input port",
            self.design.signal_path(sig)
        );
        assert_eq!(info.width, v.width(), "poke width mismatch on `{}`", info.name);
        assert!(lane < self.backend.lane_count(), "lane {lane} out of range");
        self.backend.poke_lane(lane, self.design.net_of(sig).index() as u32, v);
    }

    /// Reads the current value of any signal on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn peek_lane(&self, lane: u32, sig: SignalId) -> Bits {
        assert!(lane < self.backend.lane_count(), "lane {lane} out of range");
        self.backend.peek_lane(lane, self.design.net_of(sig).index() as u32)
    }

    /// Every net's current value on one lane, indexed by
    /// [`NetId::index`](mtl_core::NetId::index): `out[n]` is what
    /// [`Sim::peek_lane`] reads on any signal of net `n`, as a `u128`.
    /// `out` is resized to the net count, so one buffer serves a whole
    /// run — one bulk read per cycle instead of a `peek` per net.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn net_values(&self, lane: u32, out: &mut Vec<u128>) {
        assert!(lane < self.backend.lane_count(), "lane {lane} out of range");
        out.resize(self.design.nets().len(), 0);
        self.backend.net_values(lane, out);
    }

    /// Installs a scheduled fault on one lane only (lane 0 is the only
    /// lane of a scalar engine, where this equals [`Sim::inject`]). The
    /// wrapper runs the same forced-settle protocol for every `(lane,
    /// fault)` pair, so each faulted lane's trace is byte-identical to a
    /// scalar engine running that lane's fault set alone — the property
    /// the fault differential suite asserts.
    ///
    /// # Panics
    ///
    /// Panics like [`Sim::inject`], or if `lane` is out of range.
    pub fn inject_lane(&mut self, lane: u32, inj: Injection) {
        assert!(lane < self.backend.lane_count(), "lane {lane} out of range");
        let fault = self.resolve_fault(inj);
        self.install(lane, fault);
    }

    /// Fills `out` with one mask per net (indexed by
    /// [`NetId::index`](mtl_core::NetId::index)): bit `L` is set iff
    /// lane `L`'s settled value of that net differs from lane 0's, the
    /// golden lane. Returns `true` iff any lane diverged anywhere, `false`
    /// (leaving `out` untouched) on scalar engines. This is the batch
    /// campaign's divergence detector: one compare of every lane's settled
    /// words with lane 0's classifies all lanes at once, with no per-net
    /// peek. It takes `&mut self` because it is also where a lane that has
    /// become equal to lane 0 in full goes back to following it (see
    /// [`Engine::SpecializedBatch`]).
    pub fn divergence_masks(&mut self, out: &mut Vec<u64>) -> bool {
        self.backend.divergence_masks(out)
    }

    /// Lanes the backend runs an engine for (see
    /// [`EngineImpl::running_lanes`]).
    #[cfg(test)]
    pub(crate) fn running_lanes(&self) -> u32 {
        self.backend.running_lanes()
    }

    /// `(injected_bits, faulted_cycles)` accumulated on one lane (lane 0
    /// of a scalar engine is the whole simulator).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_fault_totals(&self, lane: u32) -> (u64, u64) {
        self.fault_totals[lane as usize]
    }

    /// Indices of faults active at `now` (post-edge window if `post`).
    fn active_faults(&self, now: u64, post: bool) -> Vec<usize> {
        self.faults
            .iter()
            .enumerate()
            .filter(|(_, (_, f))| if post { f.active_post(now) } else { f.active_pre(now) })
            .map(|(i, _)| i)
            .collect()
    }

    /// Every lane of the simulator, as a lane mask.
    fn all_lanes(&self) -> u64 {
        u64::MAX >> (64 - self.backend.lane_count())
    }

    /// The lanes the faults `active` (indices into `faults`) sit on.
    fn lanes_of(&self, active: &[usize]) -> u64 {
        active.iter().fold(0, |lanes, &fi| lanes | 1 << self.faults[fi].0)
    }

    /// The ordinary settle of every lane outside `forced`: a full pass on a
    /// lane a forced settle left stale (which washes the forces out), `eval`
    /// on the others.
    fn settle_unforced(&mut self, forced: u64) {
        let unforced = self.all_lanes() & !forced;
        self.backend.settle(unforced & self.fault_cleanup, true);
        self.backend.settle(unforced & !self.fault_cleanup, false);
        self.fault_cleanup &= forced;
    }

    /// Settles combinational logic with the given faults held forced, on
    /// the lanes they sit on and no other. The result is that of one pass
    /// over the levelized schedule, block by block, that re-applies each
    /// force whenever a driver overwrote it with a fresh clean value. A
    /// full levelized pass makes every combinational net a pure function of
    /// sequential state, inputs, and forces — all identical across engines
    /// — so the post-settle state is engine-independent no matter what
    /// (engine-specific) unsettled state it started from.
    ///
    /// Only the blocks a force can reach need that walk: the cone of the
    /// forced nets (see [`Cone`]). Per lane, after the initial forces, the
    /// words the cone writes are saved, an ordinary full settle runs (the
    /// fused plan on the static engines), the saved words are put back, and
    /// the cone's blocks run in schedule order with the re-force rule. A
    /// block outside every cone reads nothing a cone block writes, so the
    /// settle gives it the walk's value; putting the saved words back hands
    /// each cone block the outputs the walk would find, a path that assigns
    /// nothing included. A native block in a cone runs twice, as an
    /// event-driven settle may run it twice.
    fn forced_settle(&mut self, active: &[usize]) {
        let lanes = self.lanes_of(active);
        if lanes == 0 {
            return;
        }
        #[cfg(test)]
        if self.walk_oracle {
            return self.forced_settle_walk(active);
        }
        let mut forced = self.force_initial(active);
        let cones = self.cones.as_ref().expect("a fault was installed");
        let len = cones.sched.len() as u32;
        let mut walks = Vec::new();
        for lane in each_lane(lanes) {
            let mine = self.faults_on(lane, active);
            let (cone, writes) = cones.merged(mine.iter().map(|&k| self.faults[active[k]].1.slot));
            let blocks: Vec<(u32, u32)> =
                cone.into_iter().map(|pos| (pos, cones.sched[pos as usize])).collect();
            let saved: Vec<(u32, Bits)> =
                writes.iter().map(|&slot| (slot, self.backend.peek_lane(lane, slot))).collect();
            walks.push((lane, mine, blocks, saved));
        }
        self.backend.settle(lanes, true);
        for (lane, mine, blocks, saved) in walks {
            for (slot, v) in saved {
                if self.backend.peek_lane(lane, slot) != v {
                    self.backend.force(lane, slot, v, false);
                }
            }
            // The walk checks the forces after every block, `next..pos`
            // being the checks since the last cone block ran. Only a cone
            // block writes a forced net, yet a check after another block
            // can still re-force: faults that compound on one net disturb
            // each other's value. Once a check re-forces nothing, none does
            // until the next cone block runs.
            let (mut next, mut quiet) = (0, false);
            for block in blocks.into_iter().map(Some).chain([None]) {
                let pos = block.map_or(len, |(pos, _)| pos);
                for _ in next..pos {
                    if quiet {
                        break;
                    }
                    quiet = !self.reforce(lane, active, &mine, &mut forced);
                }
                let Some((_, b)) = block else { break };
                self.backend.exec_block(lane, b);
                (next, quiet) = (pos, false);
            }
        }
    }

    /// The indices `k` of the faults `active[k]` that sit on `lane`.
    fn faults_on(&self, lane: u32, active: &[usize]) -> Vec<usize> {
        (0..active.len()).filter(|&k| self.faults[active[k]].0 == lane).collect()
    }

    /// The initial forces of a forced settle, in installation order (so
    /// faults on one net compound); returns each fault's forced value.
    fn force_initial(&mut self, active: &[usize]) -> Vec<u128> {
        let mut forced = Vec::with_capacity(active.len());
        for &fi in active {
            let (lane, f) = self.faults[fi];
            let v = self.backend.peek_lane(lane, f.slot).as_u128();
            let t = f.apply(v, mask_of(f.width));
            self.backend.force(lane, f.slot, Bits::new(f.width, t), f.is_reg);
            forced.push(t);
        }
        forced
    }

    /// After a block ran on `lane`: re-forces each fault `active[k]`, for
    /// `k` in `mine`, whose net no longer holds its forced value. Returns
    /// whether any was.
    fn reforce(
        &mut self,
        lane: u32,
        active: &[usize],
        mine: &[usize],
        forced: &mut [u128],
    ) -> bool {
        let mut any = false;
        for &k in mine {
            let f = self.faults[active[k]].1;
            let v = self.backend.peek_lane(lane, f.slot).as_u128();
            if v != forced[k] {
                // The net's driver ran and wrote a fresh clean value:
                // recompute the disturbance from it and re-force (a plain
                // re-XOR would double-apply a flip).
                let t = f.apply(v, mask_of(f.width));
                self.backend.force(lane, f.slot, Bits::new(f.width, t), f.is_reg);
                forced[k] = t;
                any = true;
            }
        }
        any
    }

    /// The forced settle as one walk over the whole schedule per lane, the
    /// oracle [`Sim::forced_settle`] must reproduce word for word.
    #[cfg(test)]
    fn forced_settle_walk(&mut self, active: &[usize]) {
        let mut forced = self.force_initial(active);
        let sched = std::mem::take(&mut self.cones.as_mut().expect("a fault was installed").sched);
        for lane in each_lane(self.lanes_of(active)) {
            let mine = self.faults_on(lane, active);
            for &b in &sched {
                self.backend.exec_block(lane, b);
                self.reforce(lane, active, &mine, &mut forced);
            }
        }
        self.cones.as_mut().expect("a fault was installed").sched = sched;
    }

    /// One clock cycle with the faults `pre` active. The lanes they sit on
    /// take the forced settle, every other lane its ordinary one; then the
    /// clock edge; then a post-edge settle, forced again on the lanes a
    /// stuck-at fault still holds and a full clean pass on the rest.
    fn faulted_cycle(&mut self, now: u64, pre: &[usize]) {
        self.settle_unforced(self.lanes_of(pre));
        self.forced_settle(pre);
        let mut lanes_hit = 0u64;
        for &fi in pre {
            let (lane, f) = self.faults[fi];
            let totals = &mut self.fault_totals[lane as usize];
            totals.0 += f.mask.count_ones() as u64;
            totals.1 += u64::from(lanes_hit & (1 << lane) == 0);
            lanes_hit |= 1 << lane;
        }
        self.backend.edge();
        let post = self.active_faults(now, true);
        let held = self.lanes_of(&post);
        // On the lanes no fault holds, the faults latched whatever state
        // captured them; wash all forced combinational values back to
        // clean ones. This must be a full pass on every engine: an
        // event-driven settle would only re-run blocks downstream of
        // changed registers, leaving stale faulty values elsewhere.
        self.backend.settle(self.all_lanes() & !held, true);
        self.forced_settle(&post);
        self.fault_cleanup = held;
        self.backend.bump_cycles();
    }

    /// Reads a word from a design memory (test backdoor).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn peek_mem(&self, mem: MemId, addr: u64) -> Bits {
        let info = self.design.mem(mem);
        assert!(
            addr < info.words,
            "peek_mem address {addr} out of range for `{}` ({} words)",
            info.name,
            info.words
        );
        self.backend.peek_mem(mem.index(), addr)
    }

    /// Writes a word to a design memory (test backdoor, e.g. program
    /// loading).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory or `v` has the wrong width.
    pub fn poke_mem(&mut self, mem: MemId, addr: u64, v: Bits) {
        let info = self.design.mem(mem);
        assert_eq!(info.width, v.width(), "poke_mem width mismatch on `{}`", info.name);
        assert!(
            addr < info.words,
            "poke_mem address {addr} out of range for `{}` ({} words)",
            info.name,
            info.words
        );
        self.backend.poke_mem(mem.index(), addr, v);
    }

    /// Enables per-net activity (register bit-toggle) counting.
    ///
    /// Counting adds a small per-cycle cost, so it is off by default;
    /// enable it before the measurement window, then read
    /// [`Sim::net_activity`].
    pub fn enable_activity(&mut self) {
        self.backend.set_activity(true);
    }

    /// Per-net bit-toggle counts accumulated since
    /// [`enable_activity`](Sim::enable_activity), indexed by
    /// [`NetId::index`](mtl_core::NetId::index). Only register nets
    /// toggle (combinational nets follow them).
    pub fn net_activity(&self) -> &[u64] {
        self.backend.activity()
    }

    /// Toggle count of the net a signal belongs to.
    pub fn activity_of(&self, sig: SignalId) -> u64 {
        let a = self.backend.activity();
        a.get(self.design.net_of(sig).index()).copied().unwrap_or(0)
    }

    /// Produces a one-line textual trace of the given signals — the
    /// analog of PyMTL's line tracing, handy for pipeline debugging.
    ///
    /// Each entry is rendered as `name=hexvalue`; collect one line per
    /// cycle for a scrolling pipeline diagram.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # use mtl_sim::Sim;
    /// # fn demo(mut sim: Sim) {
    /// let pc = sim.design().top_port("instret");
    /// for _ in 0..10 {
    ///     sim.cycle();
    ///     println!("{}", sim.line_trace(&[("instret", pc)]));
    /// }
    /// # }
    /// ```
    pub fn line_trace(&self, signals: &[(&str, SignalId)]) -> String {
        let mut parts = Vec::with_capacity(signals.len() + 1);
        parts.push(format!("cyc {:>6}:", self.cycle_count()));
        for (name, sig) in signals {
            parts.push(format!("{name}={:x}", self.peek(*sig)));
        }
        parts.join(" ")
    }

    /// Finds a signal by hierarchical path suffix (e.g. `proc.pc`),
    /// for observing internal state in tests and line traces.
    ///
    /// The suffix must align with a path-component boundary: `pc` matches
    /// `top.proc.pc` but not `top.proc.xpc`.
    ///
    /// # Panics
    ///
    /// Panics if no signal path ends with `suffix`, or if the suffix is
    /// ambiguous (matches signals on different nets — aliases of one net
    /// are the same state and resolve to the first match).
    pub fn find_signal(&self, suffix: &str) -> SignalId {
        let matches: Vec<SignalId> = (0..self.design.signals().len())
            .map(SignalId::from_index)
            .filter(|&s| self.design.has_path_suffix(s, suffix))
            .collect();
        match matches.as_slice() {
            [] => panic!("no signal path ending in component suffix `{suffix}`"),
            [one] => *one,
            many => {
                let net0 = self.design.net_of(many[0]);
                if many.iter().all(|&s| self.design.net_of(s) == net0) {
                    many[0]
                } else {
                    let paths: Vec<String> =
                        many.iter().map(|&s| self.design.signal_path(s)).collect();
                    panic!(
                        "signal suffix `{suffix}` is ambiguous across nets; candidates: {}",
                        paths.join(", ")
                    );
                }
            }
        }
    }

    /// Finds a memory by leaf name anywhere in the design.
    ///
    /// # Panics
    ///
    /// Panics if no memory has that name.
    pub fn find_mem(&self, name: &str) -> MemId {
        for (i, m) in self.design.mems().iter().enumerate() {
            if m.name == name {
                return MemId::from_index(i);
            }
        }
        panic!("no memory named `{name}` in design");
    }

    /// Enables profiling: logical block-execution counting in the wrapper,
    /// physical timing/queue instrumentation in the backend, and per-net
    /// activity counters (see [`SimProfile`] for the metric split).
    ///
    /// Profiling adds per-settle overhead proportional to the design size,
    /// so it is off by default; enable it before the window of interest
    /// and read the result with [`Sim::profile`]. Idempotent.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_some() {
            return;
        }
        self.backend.set_activity(true);
        self.backend.set_profiling(true);
        let design = &self.design;
        let nets = design.nets().len();
        let snapshot: Vec<Bits> = (0..nets).map(|s| self.backend.peek(s as u32)).collect();
        let mut comb_triggers = Vec::new();
        let mut seq_blocks = Vec::new();
        for (i, b) in design.blocks().iter().enumerate() {
            match b.kind {
                BlockKind::Comb => {
                    let mut slots = crate::compile::comb_sensitivity(design, i as u32);
                    slots.extend(b.writes.iter().map(|&w| design.net_of(w).index() as u32));
                    slots.sort_unstable();
                    slots.dedup();
                    comb_triggers.push((i as u32, slots));
                }
                BlockKind::Seq => seq_blocks.push(i as u32),
            }
        }
        self.profile = Some(ProfileState {
            snapshot,
            changed: vec![false; nets],
            comb_triggers,
            seq_blocks,
            block_runs: vec![0; design.blocks().len()],
            settles: 0,
        });
    }

    /// Whether [`Sim::enable_profiling`] has been called.
    pub fn profiling_enabled(&self) -> bool {
        self.profile.is_some()
    }

    /// The profile collected so far, or `None` if profiling was never
    /// enabled. May be called repeatedly; each call snapshots the current
    /// counters.
    pub fn profile(&self) -> Option<SimProfile> {
        let p = self.profile.as_ref()?;
        let stats = self.backend.stats().expect("backend profiling enabled with wrapper");
        let design = &self.design;
        let block_paths = (0..design.blocks().len())
            .map(|i| design.block_path(mtl_core::BlockId::from_index(i)))
            .collect();
        let net_paths = design
            .nets()
            .iter()
            .map(|n| {
                n.signals
                    .first()
                    .map(|&s| design.signal_path(s))
                    .unwrap_or_else(|| "<unconnected>".to_string())
            })
            .collect();
        let mut net_activity = self.backend.activity().to_vec();
        net_activity.resize(design.nets().len(), 0);
        Some(SimProfile {
            engine: self.engine,
            cycles: self.backend.cycles(),
            settles: p.settles,
            injections: self.injected_bits(),
            faulted_cycles: self.faulted_cycle_count(),
            block_runs: p.block_runs.clone(),
            block_nanos: stats.block_nanos.clone(),
            block_paths,
            engine_settles: stats.settles,
            fixpoint_iters: stats.fixpoint.clone(),
            queue_depth: stats.queue_depth.clone(),
            partition_nanos: Vec::new(),
            gang_plan: self.backend.opt_report().and_then(OptReport::gang_line),
            net_activity,
            net_paths,
        })
    }

    /// Logical profiling hook: called after every settle point (`eval()`
    /// or `cycle()`). Diffs settled net values against the last snapshot
    /// and charges an execution to each block whose trigger set changed;
    /// sequential blocks are charged once per clock edge. Because this is
    /// a pure function of the value trace, the counts are identical on
    /// every engine.
    fn observe_settle(&mut self, clocked: bool) {
        let Some(p) = self.profile.as_mut() else { return };
        p.settles += 1;
        let mut any = false;
        for (slot, prev) in p.snapshot.iter_mut().enumerate() {
            let now = self.backend.peek(slot as u32);
            let changed = now != *prev;
            p.changed[slot] = changed;
            if changed {
                *prev = now;
                any = true;
            }
        }
        if any {
            for (b, slots) in &p.comb_triggers {
                if slots.iter().any(|&s| p.changed[s as usize]) {
                    p.block_runs[*b as usize] += 1;
                }
            }
        }
        if clocked {
            for &b in &p.seq_blocks {
                p.block_runs[b as usize] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests;
