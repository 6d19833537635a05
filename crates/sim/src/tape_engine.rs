//! The tape-VM backends: [`Engine::Specialized`] (per-block tapes behind
//! an event queue), [`Engine::SpecializedOpt`] (fused plans, fully static
//! schedule) and [`Engine::SpecializedPar`] (the same plans, each gang's
//! lane blocks dealt to a [`Pool`]). All execute the artifact
//! [`crate::compile`] builds against a [`PackedState`]; this module only
//! adds the dispatch strategy — who runs when — and what a changed value
//! notifies: the event engine wakes the slot's readers, the static one
//! marks its schedule dirty.
//!
//! [`Engine::Specialized`]: crate::Engine::Specialized
//! [`Engine::SpecializedOpt`]: crate::Engine::SpecializedOpt
//! [`Engine::SpecializedPar`]: crate::Engine::SpecializedPar

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::{BlockBody, Design, NativeFn};

use crate::artifact::Staged;
use crate::compile::passes::OptReport;
use crate::compile::{comb_sensitivity, BlockTapes, Chunk, Gang, LANES};
use crate::overheads::Overheads;
use crate::par::{deal, Pool};
use crate::profile::EngineStats;
use crate::sim::EngineImpl;
use crate::state::{Access, PackedState};
use crate::tape::{broadcast_prelude, exec_prelude, lane_regs, Tape};

/// The tape-VM backend; `event_mode` and `pool` select between the engines
/// of the module docs.
pub(crate) struct TapeEngine {
    design: Arc<Design>,
    state: Home,
    /// The worker pool the gangs of the plans are dealt to, and what its
    /// workers share; `None` unless the engine was asked for two or more
    /// threads *and* a gang has two or more lane blocks to deal — a
    /// simulator without one spawns no thread.
    pool: Option<(Pool, Arc<Dealt>)>,
    /// Deferred memory stores of everything the control thread runs.
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

/// Where the packed state lives: in the engine, or shared with the
/// workers of its pool.
enum Home {
    Own(PackedState),
    Pooled(Arc<PackedState>),
}

impl Deref for Home {
    type Target = PackedState;

    fn deref(&self) -> &PackedState {
        match self {
            Home::Own(state) => state,
            Home::Pooled(state) => state,
        }
    }
}

impl Home {
    /// The control thread's handle on the state.
    fn access(&mut self) -> Access<'_> {
        match self {
            Home::Own(state) => state.exclusive(),
            // SAFETY: the only other handles are the workers' (`Dealt::job`),
            // and those live inside `Pool::run`. Outside it the workers are
            // parked at the barrier and this is the only live handle; inside
            // it the control thread uses this handle for its own share of
            // the gang's lane blocks only, under the guard the workers'
            // handles name.
            Home::Pooled(state) => unsafe { state.shared() },
        }
    }
}

/// What the workers of a pool share with the control thread.
struct Dealt {
    state: Arc<PackedState>,
    bodies: Arc<Vec<Tape>>,
    /// The seq plan and the comb plan, indexed by `comb as usize`.
    plans: [Arc<Vec<Chunk>>; 2],
    /// What each worker leaves for the control thread to collect (entry 0,
    /// the control thread's own, stays empty). A worker locks its entry
    /// for its share of a gang; the control thread locks them between
    /// gangs.
    left: Vec<Mutex<Left>>,
}

#[derive(Default)]
struct Left {
    /// The memory stores the worker's lanes queued.
    stores: Vec<(u32, u64, u128)>,
    /// Wall time of the worker's shares in the profiled pass at hand.
    busy_nanos: u64,
}

/// The command that deals gang `chunk` of the comb or seq plan.
fn command(comb: bool, chunk: usize, timed: bool) -> usize {
    chunk << 2 | usize::from(timed) << 1 | usize::from(comb)
}

impl Dealt {
    /// Worker `w` of `n`'s job: its share of the lane blocks of the gang a
    /// [`command`] names, on register banks of its own.
    fn job(self: Arc<Dealt>, w: usize, n: usize) -> impl FnMut(usize) + Send + 'static {
        let gang_banks = |plan: &Arc<Vec<Chunk>>| -> Vec<Vec<u128>> {
            let bank = |c: &Chunk| match c {
                Chunk::Gang(g) => gang_bank(g, &self.bodies),
                _ => Vec::new(),
            };
            plan.iter().map(bank).collect()
        };
        let mut banks = [gang_banks(&self.plans[0]), gang_banks(&self.plans[1])];
        move |cmd| {
            let (comb, timed, chunk) = (cmd & 1, cmd & 2 != 0, cmd >> 2);
            let Chunk::Gang(gang) = &self.plans[comb][chunk] else {
                unreachable!("only gangs are dealt")
            };
            let t0 = timed.then(Instant::now);
            let mut left = self.left[w].lock().expect("no share panics holding its entry");
            // SAFETY: this handle lives for worker `w`'s share of one gang,
            // inside `Pool::run`. The plan stage kept the gang only because
            // `compile::lanes_independent` proved that no lane of it reads or
            // writes a slot, or writes a memory, that another lane writes,
            // and the deal gives every lane block to one worker; memories
            // are only read (stores are queued). The barriers of `Pool::run`
            // keep the gang apart from all the control thread does alone.
            let mut state = unsafe { self.state.shared() };
            let share = deal(gang.blocks.len() / LANES, w, n);
            let body = &self.bodies[gang.body as usize];
            state.exec_lanes(body, gang, share, &mut banks[comb][chunk], &mut left.stores);
            if let Some(t0) = t0 {
                left.busy_nanos += t0.elapsed().as_nanos() as u64;
            }
        }
    }
}

/// A register bank for `gang`, its body's const prelude installed: one bank
/// serves all the lane blocks a thread runs, in turn. A register is
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

/// Adds `dt` to the `nanos` of `members` in proportion to their tape
/// lengths — in equal parts to the members of a gang, which share a body.
fn credit(nanos: &mut [u64], blocks: &BlockTapes, members: &[u32], dt: u64) {
    let len = |b: u32| {
        blocks.bodies.get(blocks.body_of[b as usize] as usize).map_or(0, |t| t.ops.len() as u64)
    };
    let total = members.iter().map(|&b| len(b)).sum::<u64>().max(1);
    for &b in members {
        nanos[b as usize] += dt * len(b) / total;
    }
}

impl TapeEngine {
    /// Allocates the per-instance state (packed nets, sensitivity lists,
    /// event queue, register banks) around the compiled artifact: the
    /// block stage in event mode, the block and plan stages in static
    /// mode — where `threads` of two or more also ask for a worker pool,
    /// spawned only if the plans have lane blocks to deal.
    pub(crate) fn new(
        design: Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        event_mode: bool,
        threads: usize,
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

        // Phase: simc (event structures + register banks + worker pool).
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
        // A worker beyond the widest gang's lane blocks would never be
        // dealt one.
        let lane_blocks = |c: &Chunk| match c {
            Chunk::Gang(g) => g.blocks.len() / LANES,
            _ => 0,
        };
        let widest = comb_plan.iter().chain(seq_plan.iter()).map(lane_blocks).max().unwrap_or(0);
        let workers = threads.min(widest);
        let (state, pool) = if workers >= 2 {
            let state = Arc::new(state);
            let dealt = Arc::new(Dealt {
                state: Arc::clone(&state),
                bodies: Arc::clone(bodies),
                plans: [Arc::clone(&seq_plan), Arc::clone(&comb_plan)],
                left: (0..workers).map(|_| Mutex::default()).collect(),
            });
            let pool = Pool::new(workers, |w| Arc::clone(&dealt).job(w, workers));
            (Home::Pooled(state), Some((pool, dealt)))
        } else {
            (Home::Own(state), None)
        };
        o.simc += t0.elapsed();

        Self {
            design,
            state,
            pool,
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
    /// the engines a lane can be are forkable: static, pool-less and
    /// native-free.
    pub(crate) fn fork(&self) -> TapeEngine {
        assert!(
            !self.event_mode && self.pool.is_none() && self.natives.iter().all(Option::is_none),
            "only a static, pool-less, native-free tape engine forks"
        );
        TapeEngine {
            design: Arc::clone(&self.design),
            state: Home::Own(self.state.fork()),
            pool: None,
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
        let mut state = self.state.access();
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
        match (&self.prof, &self.pool) {
            (None, _) => self.run_plan::<false>(true),
            (Some(_), Some(_)) => self.run_plan::<true>(true),
            (Some(_), None) => {
                // Profiled static pass: run the same levelized order the
                // fused plan encodes, but block-by-block, so wall time is
                // attributable per block.
                let order = std::mem::take(&mut self.comb_order);
                for &b in &order {
                    self.run_block_timed::<false>(b);
                }
                self.comb_order = order;
            }
        }
        if let Some(p) = self.prof.as_mut() {
            p.settles += 1;
            p.fixpoint.record(self.comb_order.len() as u64);
        }
        self.dirty = false;
    }

    /// Runs the static comb or seq schedule. Each tape chunk owns a
    /// persistent buffer holding its const prelude, so only the body
    /// executes here. A gang of two or more lane blocks is dealt to the
    /// pool, if there is one: the control thread runs worker 0's share.
    ///
    /// `TIMED` is the profiled pass of a pooled engine: the same plan on
    /// the same threads, every chunk timed. A native block's time is its
    /// own, a gang's is credited to its members, and a fused tape — which
    /// no longer knows its blocks — adds to a sum that is credited to the
    /// blocks of the schedule no gang runs.
    fn run_plan<const TIMED: bool>(&mut self, comb: bool) {
        let (plan, bank) = if comb {
            (&self.comb_plan, &mut self.comb_bank)
        } else {
            (&self.seq_plan, &mut self.seq_bank)
        };
        let mut state = self.state.access();
        let (mut own_nanos, mut fused_nanos) = (0u64, 0u64);
        for (i, (chunk, regs)) in plan.iter().zip(bank).enumerate() {
            let t0 = TIMED.then(Instant::now);
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
                    let nb = gang.blocks.len() / LANES;
                    let mut own = |n: usize| {
                        let t0 = TIMED.then(Instant::now);
                        state.exec_lanes(body, gang, deal(nb, 0, n), regs, &mut self.pending);
                        own_nanos += t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                    };
                    match &self.pool {
                        Some((pool, _)) if nb >= 2 => {
                            pool.run(command(comb, i, TIMED), || own(pool.workers()))
                        }
                        _ => own(1),
                    }
                }
                Chunk::Native(b) => {
                    let f =
                        self.natives[*b as usize].as_mut().expect("native block has its closure");
                    state.call_native(&self.design, f, &mut self.changed, self.cycles);
                    self.changed.clear();
                }
            }
            if let (Some(t0), Some(p)) = (t0, self.prof.as_mut()) {
                let dt = t0.elapsed().as_nanos() as u64;
                match chunk {
                    Chunk::Fused(_) => fused_nanos += dt,
                    Chunk::Gang(gang) => credit(&mut p.block_nanos, &self.blocks, &gang.blocks, dt),
                    Chunk::Native(b) => p.block_nanos[*b as usize] += dt,
                }
            }
        }
        if let (true, Some(p), Some((_, dealt))) = (TIMED, self.prof.as_mut(), &self.pool) {
            let mut ganged = vec![false; self.design.blocks().len()];
            for chunk in plan.iter() {
                if let Chunk::Gang(gang) = chunk {
                    gang.blocks.iter().for_each(|&b| ganged[b as usize] = true);
                }
            }
            let order = if comb { &self.comb_order } else { &self.seq_order };
            let residual: Vec<u32> =
                order.iter().copied().filter(|&b| !ganged[b as usize]).collect();
            credit(&mut p.block_nanos, &self.blocks, &residual, fused_nanos);
            p.partition_nanos[0] += own_nanos;
            for (busy, left) in p.partition_nanos.iter_mut().zip(&dealt.left) {
                let mut left = left.lock().expect("no share panics holding its entry");
                *busy += std::mem::take(&mut left.busy_nanos);
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
            self.run_plan::<false>(false);
        } else if self.pool.is_some() {
            self.run_plan::<true>(false);
        } else {
            let order = std::mem::take(&mut self.seq_order);
            for &b in &order {
                self.run_block_timed::<false>(b);
            }
            self.seq_order = order;
        }
    }

    /// Moves the stores the workers queued behind the control thread's
    /// own. A memory has one writer block, hence one lane, hence one
    /// worker's queue, so per-memory order is kept.
    fn gather(&mut self) {
        if let Some((_, dealt)) = &self.pool {
            for left in &dealt.left {
                let mut left = left.lock().expect("no share panics holding its entry");
                self.pending.append(&mut left.stores);
            }
        }
    }
}

impl EngineImpl for TapeEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.opt_report.as_ref()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        if self.state.access().poke(slot, v) {
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
        self.gather();
        let mut state = self.state.access();
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
            // What this queues is younger than what a worker queued for
            // the same block as a lane.
            self.gather();
            self.run_block::<false>(b);
        }
    }

    fn force(&mut self, _lane: u32, slot: u32, v: Bits, also_next: bool) {
        self.state.access().force(slot, v, also_next);
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
        self.state.access().poke_mem(mem, addr, v);
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
            let mut stats = EngineStats::new(self.design.blocks().len());
            let workers = self.pool.as_ref().map_or(0, |(pool, _)| pool.workers());
            stats.partition_nanos = vec![0; workers];
            self.prof = Some(stats);
        } else if !on {
            self.prof = None;
        }
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.prof.as_ref()
    }
}
