//! The tape-VM backends: [`Engine::Specialized`] (per-block tapes behind
//! an event queue) and [`Engine::SpecializedOpt`] (fused plans, fully
//! static schedule; [`Engine::SpecializedPar`] builds this same engine).
//! Both execute the artifact [`crate::compile`] builds against a
//! [`PackedState`] the engine owns, on the calling thread; this module
//! only adds the dispatch strategy — what runs when — and what a changed
//! value notifies: the event engine wakes the slot's readers, the static
//! one marks its schedule dirty.
//!
//! [`Engine::Specialized`]: crate::Engine::Specialized
//! [`Engine::SpecializedOpt`]: crate::Engine::SpecializedOpt
//! [`Engine::SpecializedPar`]: crate::Engine::SpecializedPar

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::{BlockBody, Design, NativeFn};

use crate::artifact::Staged;
use crate::compile::passes::OptReport;
use crate::compile::{comb_sensitivity, BlockTapes, Chunk, Gang, LANES};
use crate::overheads::Overheads;
use crate::profile::EngineStats;
use crate::sim::EngineImpl;
use crate::state::PackedState;
use crate::tape::{broadcast_prelude, exec_prelude, lane_regs, Tape};

/// The tape-VM backend; `event_mode` selects between the engines of the
/// module docs.
pub(crate) struct TapeEngine {
    design: Arc<Design>,
    state: PackedState,
    /// Deferred memory stores, applied at the edge.
    pending: Vec<(u32, u64, u128)>,
    /// The block stage: the distinct block bodies the gang chunks of the
    /// plans execute — `Arc` so a persistent server can share one compile
    /// across many engine instances ([`crate::ArtifactCache`]).
    blocks: Arc<BlockTapes>,
    /// Per-block tapes for running blocks one at a time: built from
    /// `blocks` when first needed (the event engine's first settle, a
    /// static engine's first profiled pass or single-block run) and shared
    /// with every engine holding the same artifact.
    singles: Arc<OnceLock<Vec<Tape>>>,
    natives: Vec<Option<NativeFn>>,
    seq_order: Vec<u32>,
    /// Levelized combinational order (also the unfused schedule profiling
    /// runs so per-block time stays attributable).
    comb_order: Vec<u32>,
    /// Fused static schedules (opt mode only); shared like `blocks`.
    comb_plan: Arc<Vec<Chunk>>,
    seq_plan: Arc<Vec<Chunk>>,
    /// Persistent register buffers, one per plan chunk (empty for native
    /// chunks; a gang's holds [`LANES`] words per register, see
    /// [`lane_regs`]). Each holds its tape's const prelude, installed once
    /// at build, so `run_plan` executes only the tape body per cycle.
    /// Engine-local (the shared `Arc` plans carry no state).
    comb_bank: Vec<Vec<u128>>,
    seq_bank: Vec<Vec<u128>>,
    regs: Vec<u128>,
    event_mode: bool,
    events: Events,
    changed: Vec<u32>,
    cycles: u64,
    dirty: bool,
    prof: Option<EngineStats>,
    /// Per-pass optimizer statistics (compile-time only; `None` when the
    /// optimizer is off).
    opt_report: Option<OptReport>,
}

/// The event engine's queue of combinational blocks to re-run, and who
/// reads what. Empty in static mode, where nothing reads it.
#[derive(Default)]
struct Events {
    sens: Vec<Vec<u32>>,
    mem_sens: Vec<Vec<u32>>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
}

impl Events {
    fn wake(&mut self, b: u32) {
        if !self.in_queue[b as usize] {
            self.in_queue[b as usize] = true;
            self.queue.push_back(b);
        }
    }

    fn wake_readers(&mut self, slot: u32) {
        for i in 0..self.sens[slot as usize].len() {
            self.wake(self.sens[slot as usize][i]);
        }
    }

    fn wake_mem_readers(&mut self, mem: usize) {
        for i in 0..self.mem_sens[mem].len() {
            self.wake(self.mem_sens[mem][i]);
        }
    }
}

/// A register bank for `gang`, its body's const prelude installed: one bank
/// serves all the gang's lane blocks, in turn. A register is
/// [`LANES`] words of the body's class, so a `u64`-class body's bank is
/// half the size of a `u128`-class one's.
pub(crate) fn gang_bank(gang: &Gang, bodies: &[Tape]) -> Vec<u128> {
    let body = &bodies[gang.body as usize];
    let (nregs, pre) = (body.nregs as usize, body.prelude as usize);
    match &body.narrow {
        Some(ops) => {
            let mut regs = vec![0u128; nregs * LANES / 2];
            broadcast_prelude(&ops[..pre], lane_regs::<LANES>(&mut regs));
            regs
        }
        None => {
            let mut regs = vec![0u128; nregs * LANES];
            broadcast_prelude::<_, LANES>(&body.ops[..pre], regs.as_chunks_mut().0);
            regs
        }
    }
}

impl TapeEngine {
    /// Allocates the per-instance state (packed nets, sensitivity lists,
    /// event queue, register banks) around the compiled artifact: the
    /// block stage in event mode, the block and plan stages in static
    /// mode.
    pub(crate) fn new(
        design: Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        event_mode: bool,
        staged: &Staged,
        o: &mut Overheads,
    ) -> Self {
        let blocks = staged.blocks.as_ref().expect("resolved to the block stage");
        let layout = &blocks.layout;
        let (comb_plan, seq_plan, opt_report) = if event_mode {
            (Arc::default(), Arc::default(), blocks.report.clone())
        } else {
            let plans = staged.plans.as_ref().expect("resolved to the plan stage");
            (plans.comb.clone(), plans.seq.clone(), plans.report.clone())
        };
        let bodies = &blocks.bodies;
        let regs_len = bodies.iter().map(|t| t.nregs as usize).max().unwrap_or(0);

        // Phase: wrap (packed state).
        let t0 = Instant::now();
        let state = PackedState::new(layout, design.mems().iter().map(|m| m.words));
        o.wrap += t0.elapsed();

        // Phase: simc (event structures + register banks).
        let t0 = Instant::now();
        let comb_order = layout.comb_order.clone();
        let mut events = Events::default();
        if event_mode {
            events.sens = vec![Vec::new(); state.nslots()];
            events.mem_sens = vec![Vec::new(); design.mems().len()];
            events.in_queue = vec![false; design.blocks().len()];
            for &b in &comb_order {
                for slot in comb_sensitivity(&design, b) {
                    events.sens[slot as usize].push(b);
                }
                for &m in &design.blocks()[b as usize].mem_reads {
                    events.mem_sens[m.index()].push(b);
                }
                events.wake(b);
            }
        }
        let mk_bank = |plan: &[Chunk]| -> Vec<Vec<u128>> {
            plan.iter()
                .map(|c| match c {
                    Chunk::Fused(t) => {
                        let mut regs = vec![0u128; t.nregs as usize];
                        exec_prelude(t, &mut regs);
                        regs
                    }
                    Chunk::Gang(g) => gang_bank(g, bodies),
                    Chunk::Native(_) => Vec::new(),
                })
                .collect()
        };
        let comb_bank = mk_bank(&comb_plan);
        let seq_bank = mk_bank(&seq_plan);
        o.simc += t0.elapsed();

        Self {
            design,
            state,
            pending: Vec::new(),
            blocks: Arc::clone(blocks),
            singles: Arc::clone(&staged.singles),
            natives,
            seq_order: layout.seq_order.clone(),
            comb_order,
            comb_plan,
            seq_plan,
            comb_bank,
            seq_bank,
            regs: vec![0u128; regs_len],
            event_mode,
            events,
            changed: Vec::new(),
            cycles: 0,
            dirty: true,
            prof: None,
            opt_report,
        }
    }

    /// The packed state, for the batch engine's lane compares.
    pub(crate) fn state(&self) -> &PackedState {
        &self.state
    }

    /// A second engine over the same artifact in the same state: `cur`,
    /// `next`, memories, register banks, scratch registers, queued stores,
    /// cycle count and dirty flag are copied; profiling and toggle counting
    /// start off. This is how a batch lane stops following lane 0, so only
    /// the engines a lane can be are forkable: static and native-free.
    pub(crate) fn fork(&self) -> TapeEngine {
        assert!(
            !self.event_mode && self.natives.iter().all(Option::is_none),
            "only a static, native-free tape engine forks"
        );
        TapeEngine {
            design: Arc::clone(&self.design),
            state: self.state.fork(),
            pending: self.pending.clone(),
            blocks: Arc::clone(&self.blocks),
            singles: Arc::clone(&self.singles),
            natives: self.natives.iter().map(|_| None).collect(),
            seq_order: self.seq_order.clone(),
            comb_order: self.comb_order.clone(),
            comb_plan: Arc::clone(&self.comb_plan),
            seq_plan: Arc::clone(&self.seq_plan),
            comb_bank: self.comb_bank.clone(),
            seq_bank: self.seq_bank.clone(),
            regs: self.regs.clone(),
            event_mode: false,
            events: Events::default(),
            changed: Vec::new(),
            cycles: self.cycles,
            dirty: self.dirty,
            prof: None,
            opt_report: None,
        }
    }

    /// Whether `other`, an engine over the same artifact, is in the same
    /// state: every packed word, the queued stores, the cycle count, the
    /// dirty flag, and each register buffer some run may read before
    /// writing — a plan chunk's bank unless its tape is
    /// [`Tape::defs_first`], the scratch registers unless every block tape
    /// is. Two engines that agree here compute the same from here on.
    pub(crate) fn same_as(&self, other: &TapeEngine) -> bool {
        let live = |chunk: &Chunk| match chunk {
            Chunk::Fused(tape) => !tape.defs_first,
            Chunk::Gang(gang) => !self.blocks.bodies[gang.body as usize].defs_first,
            Chunk::Native(_) => false,
        };
        let banks_agree = |plan: &[Chunk], mine: &[Vec<u128>], theirs: &[Vec<u128>]| {
            plan.iter().zip(mine).zip(theirs).all(|((chunk, a), b)| !live(chunk) || a == b)
        };
        // A block's tape has its body's registers.
        let scratch_live = self.blocks.bodies.iter().any(|t| !t.defs_first);
        self.cycles == other.cycles
            && self.dirty == other.dirty
            && self.pending == other.pending
            && self.state.same_as(&other.state)
            && banks_agree(&self.comb_plan, &self.comb_bank, &other.comb_bank)
            && banks_agree(&self.seq_plan, &self.seq_bank, &other.seq_bank)
            && (!scratch_live || self.regs == other.regs)
    }

    /// Runs one block from scratch registers. When `TRACK`, the readers of
    /// every slot it changed are woken.
    fn run_block<const TRACK: bool>(&mut self, b: u32) {
        let tapes = self.singles.get_or_init(|| self.blocks.tapes(&*self.design));
        let mut state = self.state.exclusive();
        match self.design.blocks()[b as usize].body {
            BlockBody::Ir(_) => state.exec::<TRACK>(
                &tapes[b as usize],
                0,
                &mut self.regs,
                &mut self.pending,
                &mut self.changed,
            ),
            BlockBody::Native(..) => {
                let f = self.natives[b as usize].as_mut().expect("native block has its closure");
                state.call_native(&self.design, f, &mut self.changed, self.cycles);
            }
        }
        if TRACK {
            for slot in self.changed.drain(..) {
                self.events.wake_readers(slot);
            }
        } else {
            self.changed.clear();
        }
    }

    fn propagate_event(&mut self) {
        if self.prof.is_none() {
            while let Some(b) = self.events.queue.pop_front() {
                self.events.in_queue[b as usize] = false;
                self.run_block::<true>(b);
            }
            return;
        }
        let mut pops = 0u64;
        while let Some(b) = self.events.queue.pop_front() {
            self.events.in_queue[b as usize] = false;
            let depth = self.events.queue.len() as u64;
            let t0 = Instant::now();
            self.run_block::<true>(b);
            let dt = t0.elapsed().as_nanos() as u64;
            let p = self.prof.as_mut().expect("profiling enabled");
            p.queue_depth.record(depth);
            p.block_nanos[b as usize] += dt;
            pops += 1;
        }
        let p = self.prof.as_mut().expect("profiling enabled");
        p.settles += 1;
        p.fixpoint.record(pops);
    }

    fn run_block_timed<const TRACK: bool>(&mut self, b: u32) {
        let t0 = Instant::now();
        self.run_block::<TRACK>(b);
        let dt = t0.elapsed().as_nanos() as u64;
        if let Some(p) = self.prof.as_mut() {
            p.block_nanos[b as usize] += dt;
        }
    }

    fn full_comb_pass(&mut self) {
        if self.prof.is_none() {
            self.run_plan(true);
        } else {
            // Profiled static pass: run the same levelized order the fused
            // plan encodes, but block-by-block, so wall time is
            // attributable per block.
            let order = std::mem::take(&mut self.comb_order);
            for &b in &order {
                self.run_block_timed::<false>(b);
            }
            self.comb_order = order;
            let p = self.prof.as_mut().expect("profiling enabled");
            p.settles += 1;
            p.fixpoint.record(self.comb_order.len() as u64);
        }
        self.dirty = false;
    }

    /// Runs the static comb or seq schedule. Each tape chunk owns a
    /// persistent buffer holding its const prelude, so only the body
    /// executes here.
    fn run_plan(&mut self, comb: bool) {
        let (plan, bank) = if comb {
            (&self.comb_plan, &mut self.comb_bank)
        } else {
            (&self.seq_plan, &mut self.seq_bank)
        };
        let mut state = self.state.exclusive();
        for (chunk, regs) in plan.iter().zip(bank) {
            match chunk {
                Chunk::Fused(tape) => state.exec::<false>(
                    tape,
                    tape.prelude as usize,
                    regs,
                    &mut self.pending,
                    &mut self.changed,
                ),
                Chunk::Gang(gang) => {
                    let body = &self.blocks.bodies[gang.body as usize];
                    state.exec_lanes(body, gang, regs, &mut self.pending);
                }
                Chunk::Native(b) => {
                    let f =
                        self.natives[*b as usize].as_mut().expect("native block has its closure");
                    state.call_native(&self.design, f, &mut self.changed, self.cycles);
                    self.changed.clear();
                }
            }
        }
    }

    fn run_seq_blocks(&mut self) {
        if self.event_mode {
            let order = std::mem::take(&mut self.seq_order);
            if self.prof.is_some() {
                for &b in &order {
                    self.run_block_timed::<true>(b);
                }
            } else {
                for &b in &order {
                    // Track combinational-style writes from native
                    // sequential blocks so misuse behaves identically
                    // across engines.
                    self.run_block::<true>(b);
                }
            }
            self.seq_order = order;
        } else if self.prof.is_none() {
            self.run_plan(false);
        } else {
            let order = std::mem::take(&mut self.seq_order);
            for &b in &order {
                self.run_block_timed::<false>(b);
            }
            self.seq_order = order;
        }
    }
}

impl EngineImpl for TapeEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.opt_report.as_ref()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        if self.state.exclusive().poke(slot, v) {
            if self.event_mode {
                self.events.wake_readers(slot);
            } else {
                self.dirty = true;
            }
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        self.state.peek(slot)
    }

    fn net_values(&self, _lane: u32, out: &mut [u128]) {
        self.state.cur_values(out);
    }

    fn comb_order(&self) -> Option<&[u32]> {
        Some(&self.comb_order)
    }

    fn eval(&mut self) {
        if self.event_mode {
            self.propagate_event();
        } else if self.dirty {
            self.full_comb_pass();
        }
    }

    fn cycle(&mut self) {
        self.eval();
        self.edge();
        if self.event_mode {
            self.propagate_event();
        } else {
            self.full_comb_pass();
        }
        self.cycles += 1;
    }

    fn edge(&mut self) {
        self.run_seq_blocks();
        let mut state = self.state.exclusive();
        if self.event_mode {
            state.commit(|slot| self.events.wake_readers(slot));
            state.drain(&mut self.pending, |mem| self.events.wake_mem_readers(mem));
        } else {
            // The static schedule re-runs in full after every edge.
            state.commit(|_| {});
            state.drain(&mut self.pending, |_| {});
        }
    }

    fn exec_block(&mut self, _lane: u32, b: u32) {
        if self.event_mode {
            self.run_block::<true>(b);
        } else {
            self.run_block::<false>(b);
        }
    }

    fn force(&mut self, _lane: u32, slot: u32, v: Bits, also_next: bool) {
        self.state.exclusive().force(slot, v, also_next);
    }

    fn settle(&mut self, lanes: u64, full: bool) {
        if lanes & 1 == 0 {
            return;
        }
        if !full {
            self.eval();
        } else if self.event_mode {
            for &b in &self.comb_order {
                self.events.wake(b);
            }
            self.propagate_event();
        } else {
            self.full_comb_pass();
        }
    }

    fn bump_cycles(&mut self) {
        self.cycles += 1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        self.state.peek_mem(mem, addr)
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.state.exclusive().poke_mem(mem, addr, v);
        if self.event_mode {
            self.events.wake_mem_readers(mem);
        } else {
            self.dirty = true;
        }
    }

    fn set_activity(&mut self, on: bool) {
        self.state.set_activity(on);
    }

    fn activity(&self) -> &[u64] {
        self.state.activity()
    }

    fn set_profiling(&mut self, on: bool) {
        if on && self.prof.is_none() {
            // Built here, not inside the first timed block.
            self.singles.get_or_init(|| self.blocks.tapes(&*self.design));
            self.prof = Some(EngineStats::new(self.design.blocks().len()));
        } else if !on {
            self.prof = None;
        }
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.prof.as_ref()
    }
}
