//! The tape-VM backends: [`Engine::Specialized`] (per-block tapes behind
//! an event queue) and [`Engine::SpecializedOpt`] (fused plans, fully
//! static schedule). Both execute the artifact [`crate::compile`] builds;
//! this module only adds per-instance state and the dispatch strategy.
//!
//! [`Engine::Specialized`]: crate::Engine::Specialized
//! [`Engine::SpecializedOpt`]: crate::Engine::SpecializedOpt

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::{BlockBody, Design, NativeFn, SignalId, SignalView};

use crate::artifact::Staged;
use crate::compile::passes::OptReport;
use crate::compile::{comb_sensitivity, Chunk};
use crate::overheads::Overheads;
use crate::profile::EngineStats;
use crate::sim::EngineImpl;
use crate::tape::{exec_tape, exec_tape_body, mask_of, Tape};

/// The tape-VM backend; `event_mode` selects between the two engines of
/// the module docs.
pub(crate) struct TapeEngine {
    design: Arc<Design>,
    cur: Vec<u128>,
    next: Vec<u128>,
    widths: Vec<u32>,
    mems: Vec<Vec<u128>>,
    mem_widths: Vec<u32>,
    pending: Vec<(u32, u64, u128)>,
    /// Compiled per-block tapes — `Arc` so a persistent server can share
    /// one compile across many engine instances ([`crate::ArtifactCache`]).
    tapes: Arc<Vec<Tape>>,
    natives: Vec<Option<NativeFn>>,
    seq_order: Vec<u32>,
    /// Levelized combinational order (also the unfused schedule profiling
    /// runs so per-block time stays attributable).
    comb_order: Vec<u32>,
    /// Fused static schedules (opt mode only); shared like `tapes`.
    comb_plan: Arc<Vec<Chunk>>,
    seq_plan: Arc<Vec<Chunk>>,
    /// Persistent register buffers, one per fused plan chunk (empty for
    /// native chunks). Each holds its tape's const prelude, installed
    /// once at build, so `run_plan` executes only the tape body per
    /// cycle. Engine-local (the shared `Arc` plans carry no state).
    comb_bank: Vec<Vec<u128>>,
    seq_bank: Vec<Vec<u128>>,
    reg_slots: Vec<u32>,
    regs: Vec<u128>,
    event_mode: bool,
    sens: Vec<Vec<u32>>,
    mem_sens: Vec<Vec<u32>>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    changed: Vec<u32>,
    cycles: u64,
    dirty: bool,
    track_activity: bool,
    activity: Vec<u64>,
    prof: Option<EngineStats>,
    /// Per-pass optimizer statistics (compile-time only; `None` when the
    /// optimizer is off).
    opt_report: Option<OptReport>,
}

/// The [`SignalView`] native blocks see over packed tape-engine state.
pub(crate) struct PackedView<'a> {
    pub(crate) design: &'a Design,
    pub(crate) cur: &'a mut [u128],
    pub(crate) next: &'a mut [u128],
    pub(crate) widths: &'a [u32],
    pub(crate) changed: &'a mut Vec<u32>,
    pub(crate) cycles: u64,
}

impl SignalView for PackedView<'_> {
    fn read(&self, sig: SignalId) -> Bits {
        let slot = self.design.net_of(sig).index();
        Bits::new(self.widths[slot], self.cur[slot])
    }

    fn write(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index();
        debug_assert_eq!(self.widths[slot], value.width());
        let v = value.as_u128();
        if self.cur[slot] != v {
            self.cur[slot] = v;
            self.changed.push(slot as u32);
        }
    }

    fn write_next(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index();
        debug_assert_eq!(self.widths[slot], value.width());
        self.next[slot] = value.as_u128();
    }

    fn cycle(&self) -> u64 {
        self.cycles
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
        let tapes = blocks.tapes.clone();
        let regs_len = tapes.iter().map(|t| t.nregs as usize).max().unwrap_or(0);

        // Phase: wrap (packed state).
        let t0 = Instant::now();
        let widths = layout.widths.clone();
        let cur = vec![0u128; widths.len()];
        let next = vec![0u128; widths.len()];
        let mems: Vec<Vec<u128>> =
            design.mems().iter().map(|m| vec![0u128; m.words as usize]).collect();
        o.wrap += t0.elapsed();

        // Phase: simc (event structures + register banks).
        let t0 = Instant::now();
        let comb_order = layout.comb_order.clone();
        let mut sens = vec![Vec::new(); widths.len()];
        let mut mem_sens = vec![Vec::new(); design.mems().len()];
        let mut queue = VecDeque::new();
        let mut in_queue = vec![false; design.blocks().len()];
        for &b in &comb_order {
            for slot in comb_sensitivity(&design, b) {
                sens[slot as usize].push(b);
            }
            for &m in &design.blocks()[b as usize].mem_reads {
                mem_sens[m.index()].push(b);
            }
            queue.push_back(b);
            in_queue[b as usize] = true;
        }
        let mk_bank = |plan: &[Chunk]| -> Vec<Vec<u128>> {
            plan.iter()
                .map(|c| match c {
                    Chunk::Fused(t) => {
                        let mut regs = vec![0u128; t.nregs as usize];
                        crate::tape::exec_prelude(t, &mut regs);
                        regs
                    }
                    Chunk::Native(_) => Vec::new(),
                })
                .collect()
        };
        let comb_bank = mk_bank(&comb_plan);
        let seq_bank = mk_bank(&seq_plan);
        o.simc += t0.elapsed();

        Self {
            design,
            cur,
            next,
            widths,
            mems,
            mem_widths: layout.mem_widths.clone(),
            pending: Vec::new(),
            tapes,
            natives,
            seq_order: layout.seq_order.clone(),
            comb_order,
            comb_plan,
            seq_plan,
            comb_bank,
            seq_bank,
            reg_slots: layout.reg_slots.clone(),
            regs: vec![0u128; regs_len],
            event_mode,
            sens,
            mem_sens,
            queue,
            in_queue,
            changed: Vec::new(),
            cycles: 0,
            dirty: true,
            track_activity: false,
            activity: Vec::new(),
            prof: None,
            opt_report,
        }
    }

    fn run_block<const TRACK: bool>(&mut self, b: u32) {
        let design = self.design.clone();
        match &design.blocks()[b as usize].body {
            BlockBody::Ir(_) => {
                exec_tape::<TRACK>(
                    &self.tapes[b as usize],
                    &mut self.regs,
                    &mut self.cur,
                    &mut self.next,
                    &self.mems,
                    &mut self.pending,
                    &mut self.changed,
                );
            }
            BlockBody::Native(..) => {
                let mut f = self.natives[b as usize].take().expect("native fn in use");
                {
                    let mut view = PackedView {
                        design: &design,
                        cur: &mut self.cur,
                        next: &mut self.next,
                        widths: &self.widths,
                        changed: &mut self.changed,
                        cycles: self.cycles,
                    };
                    f(&mut view);
                }
                self.natives[b as usize] = Some(f);
                if !TRACK {
                    self.changed.clear();
                }
            }
        }
        if TRACK {
            let changed = std::mem::take(&mut self.changed);
            for &slot in &changed {
                self.wake_readers(slot);
            }
            let mut changed = changed;
            changed.clear();
            self.changed = changed;
        }
    }

    fn wake_readers(&mut self, slot: u32) {
        for i in 0..self.sens[slot as usize].len() {
            let rb = self.sens[slot as usize][i];
            if !self.in_queue[rb as usize] {
                self.in_queue[rb as usize] = true;
                self.queue.push_back(rb);
            }
        }
    }

    fn propagate_event(&mut self) {
        if self.prof.is_none() {
            while let Some(b) = self.queue.pop_front() {
                self.in_queue[b as usize] = false;
                self.run_block::<true>(b);
            }
            return;
        }
        let mut pops = 0u64;
        while let Some(b) = self.queue.pop_front() {
            self.in_queue[b as usize] = false;
            let depth = self.queue.len() as u64;
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
        if self.prof.is_some() {
            // Profiled static pass: run the same levelized order the fused
            // plan encodes, but block-by-block, so wall time is
            // attributable per block.
            let order = std::mem::take(&mut self.comb_order);
            for &b in &order {
                self.run_block_timed::<false>(b);
            }
            let pass_blocks = order.len() as u64;
            self.comb_order = order;
            let p = self.prof.as_mut().expect("profiling enabled");
            p.settles += 1;
            p.fixpoint.record(pass_blocks);
        } else {
            let plan = Arc::clone(&self.comb_plan);
            self.run_plan(&plan, true);
        }
        self.dirty = false;
    }

    fn run_plan(&mut self, plan: &[Chunk], comb: bool) {
        for (k, chunk) in plan.iter().enumerate() {
            match chunk {
                Chunk::Fused(tape) => {
                    // Each fused chunk owns a persistent buffer holding
                    // its const prelude, so only the body executes here.
                    let bank = if comb { &mut self.comb_bank } else { &mut self.seq_bank };
                    exec_tape_body::<false>(
                        tape,
                        &mut bank[k],
                        &mut self.cur,
                        &mut self.next,
                        &self.mems,
                        &mut self.pending,
                        &mut self.changed,
                    )
                }
                Chunk::Native(b) => self.run_native(*b),
            }
        }
    }

    fn run_native(&mut self, b: u32) {
        let design = self.design.clone();
        let mut f = self.natives[b as usize].take().expect("native fn in use");
        {
            let mut view = PackedView {
                design: &design,
                cur: &mut self.cur,
                next: &mut self.next,
                widths: &self.widths,
                changed: &mut self.changed,
                cycles: self.cycles,
            };
            f(&mut view);
        }
        self.natives[b as usize] = Some(f);
        self.changed.clear();
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
        } else if self.prof.is_some() {
            let order = std::mem::take(&mut self.seq_order);
            for &b in &order {
                self.run_block_timed::<false>(b);
            }
            self.seq_order = order;
        } else {
            let plan = Arc::clone(&self.seq_plan);
            self.run_plan(&plan, false);
        }
    }
}

impl EngineImpl for TapeEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.opt_report.as_ref()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        let val = v.as_u128();
        if self.cur[slot as usize] != val {
            self.cur[slot as usize] = val;
            self.next[slot as usize] = val;
            if self.event_mode {
                self.wake_readers(slot);
            } else {
                self.dirty = true;
            }
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        Bits::new(self.widths[slot as usize], self.cur[slot as usize])
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
        if self.event_mode {
            let regs = std::mem::take(&mut self.reg_slots);
            for &slot in &regs {
                let s = slot as usize;
                if self.cur[s] != self.next[s] {
                    if self.track_activity {
                        self.activity[s] += (self.cur[s] ^ self.next[s]).count_ones() as u64;
                    }
                    self.cur[s] = self.next[s];
                    self.wake_readers(slot);
                }
            }
            self.reg_slots = regs;
        } else if self.track_activity {
            for &slot in &self.reg_slots {
                let s = slot as usize;
                self.activity[s] += (self.cur[s] ^ self.next[s]).count_ones() as u64;
                self.cur[s] = self.next[s];
            }
        } else {
            for &slot in &self.reg_slots {
                self.cur[slot as usize] = self.next[slot as usize];
            }
        }
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            let mut touched: Vec<u32> = Vec::new();
            for (mem, addr, v) in pending {
                self.mems[mem as usize][addr as usize] = v;
                if self.event_mode && !touched.contains(&mem) {
                    touched.push(mem);
                }
            }
            for m in touched {
                for i in 0..self.mem_sens[m as usize].len() {
                    let rb = self.mem_sens[m as usize][i];
                    if !self.in_queue[rb as usize] {
                        self.in_queue[rb as usize] = true;
                        self.queue.push_back(rb);
                    }
                }
            }
        }
    }

    fn exec_block(&mut self, b: u32) {
        if self.event_mode {
            self.run_block::<true>(b);
        } else {
            self.run_block::<false>(b);
        }
    }

    fn force(&mut self, _lane: u32, slot: u32, v: Bits, also_next: bool) {
        let s = slot as usize;
        self.cur[s] = v.as_u128();
        if also_next {
            self.next[s] = v.as_u128();
        }
    }

    fn settle_full(&mut self) {
        if self.event_mode {
            let order = std::mem::take(&mut self.comb_order);
            for &b in &order {
                if !self.in_queue[b as usize] {
                    self.in_queue[b as usize] = true;
                    self.queue.push_back(b);
                }
            }
            self.comb_order = order;
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
        Bits::new(self.mem_widths[mem], self.mems[mem][addr as usize])
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.mems[mem][addr as usize] = v.as_u128() & mask_of(self.mem_widths[mem]);
        if self.event_mode {
            for i in 0..self.mem_sens[mem].len() {
                let rb = self.mem_sens[mem][i];
                if !self.in_queue[rb as usize] {
                    self.in_queue[rb as usize] = true;
                    self.queue.push_back(rb);
                }
            }
        } else {
            self.dirty = true;
        }
    }

    fn set_activity(&mut self, on: bool) {
        self.track_activity = on;
        if on && self.activity.is_empty() {
            self.activity = vec![0; self.widths.len()];
        }
    }

    fn activity(&self) -> &[u64] {
        &self.activity
    }

    fn set_profiling(&mut self, on: bool) {
        if on && self.prof.is_none() {
            self.prof = Some(EngineStats::new(self.design.blocks().len()));
        } else if !on {
            self.prof = None;
        }
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.prof.as_ref()
    }
}
