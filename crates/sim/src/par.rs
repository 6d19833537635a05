//! The parallel partitioned tape engine ([`Engine::SpecializedPar`]).
//!
//! The fully specialized engine compiles the design into fused tapes run
//! on one thread. This module partitions that work and executes it on a
//! pool of persistent worker threads, one barrier-delimited **step** at a
//! time:
//!
//! * The levelized combinational schedule is cut into *runs* of IR blocks
//!   (native blocks stay serial points between runs). Inside a run every
//!   block has a dependency *level*; the run is cut into **stages** of
//!   contiguous levels ([`plan_run`]), and a stage's **units** are the
//!   connected components of the writer→reader graph restricted to the
//!   stage. An edge that crosses stages is ordered by the barrier between
//!   their steps, so it joins nothing: val/rdy handshakes tie every router
//!   of a mesh into one whole-run component, but cut once in the middle
//!   the same run is hundreds of independent units. With one worker the
//!   plan is one stage whose units are the whole-run components.
//! * One rule shards every step ([`cut`]): order the items by the lowest
//!   net slot they write — elaboration order is hierarchy order — and cut
//!   that sequence into contiguous pieces of near-equal cost, one per
//!   worker. Comb units, sequential blocks and the registers of the commit
//!   are all cut this way, so one router's logic, state and memories live
//!   on one worker and stay in its cache.
//! * Sequential blocks write only shadow `next` state and deferred
//!   memory-write queues, so a run of them is one stage; each worker's
//!   piece is fused into a single unit.
//! * Cross-partition register nets need no locks: the `cur`/`next` pair
//!   *is* the double buffer. The **commit** is a parallel step of its own:
//!   each worker copies `next → cur` for its contiguous range of register
//!   slots and drains its own memory-write queue (a memory has one writer
//!   block, hence one queue, so per-memory order is kept).
//! * Comb units carry a dirty flag: a unit whose inputs (register slots,
//!   memories, poked ports, outputs of earlier stages) did not change
//!   since it last ran is skipped. Re-running an update block with
//!   unchanged inputs writes the same values (the same idempotence the
//!   event-driven engines rely on), so skipping is exact. Tapes do not
//!   track changes, so a unit that runs marks every later-stage unit that
//!   reads a slot it writes — conservative, and exact for the same reason.
//!
//! Every schedule decision is static, and every shard's write set is
//! disjoint from every other shard's read and write sets in the same step
//! (checked at construction), so results are deterministic and cycle-exact
//! with [`Engine::SpecializedOpt`] regardless of thread count or timing.
//! That check and the barrier are this module's half of the sharing
//! protocol of [`crate::state`], which owns the state and every operation
//! on it; what is left here is the partition, the step dispatch and the
//! dirty marks.
//!
//! [`Engine::SpecializedPar`]: crate::Engine::SpecializedPar
//! [`Engine::SpecializedOpt`]: crate::Engine::SpecializedOpt

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::{BlockBody, BlockKind, Design, NativeFn, SignalId};

use crate::artifact::Staged;
use crate::compile::passes::OptReport;
use crate::compile::{fuse_run, ir_runs, levels, run_io, writers, BlockIo, Run, NONE};
use crate::overheads::Overheads;
use crate::profile::{EngineStats, PlanStep};
use crate::sim::EngineImpl;
use crate::state::{Access, PackedState};
use crate::tape::{Effect, Tape};

/// The most workers one simulator runs, whatever `MTL_SIM_THREADS` or
/// [`SimConfig::threads`](crate::SimConfig::threads) ask for. A step has
/// one OS thread per shard, so an unbounded request would spawn a thread
/// per unit of the widest step; 64 is several times any host this
/// partitioner has been measured on. A constant, not a knob.
const MAX_THREADS: usize = 64;

/// Default worker-thread count: `MTL_SIM_THREADS` if set, else available
/// parallelism capped at 8; at least 1 and at most 64.
pub fn default_threads() -> usize {
    resolve_threads(None)
}

/// The one place a worker count is decided: the explicit request
/// ([`SimConfig::threads`](crate::SimConfig::threads)) if there is one,
/// else the environment, else the host — always within
/// `1..=`[`MAX_THREADS`].
pub(crate) fn resolve_threads(requested: Option<usize>) -> usize {
    let from_env = || {
        if let Ok(s) = std::env::var("MTL_SIM_THREADS") {
            match s.trim().parse::<usize>() {
                Ok(n) => return n,
                Err(_) => {
                    // A typo never silently changes semantics: say what was
                    // ignored rather than quietly falling back.
                    eprintln!(
                        "mtl-sim: unrecognized MTL_SIM_THREADS={s} \
                         (expected a positive integer); using default"
                    );
                }
            }
        }
        available_cores().min(8)
    };
    requested.unwrap_or_else(from_env).clamp(1, MAX_THREADS)
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Partitioning (plain data: no `Design`, no tapes)
// ---------------------------------------------------------------------------

/// What one more stage costs, in tape ops: two barrier waits, the step
/// dispatch and the clean-step check — about a microsecond.
const BARRIER_COST: u64 = 400;
/// What one more unit costs, in tape ops: its dirty flag, the call into the
/// executor and its marks. Keeps a level of tiny blocks from being planned
/// as hundreds of free units.
const UNIT_COST: u64 = 12;
/// Bytes per cache line; dirty flags of different workers are kept this far
/// apart.
const LINE: u32 = 64;

/// The one sharding rule: cuts a sequence of costs (items in slot order)
/// into at most `k` contiguous pieces of near-equal cost — an item belongs
/// to the `k`-th of the total its midpoint falls in. Pieces are never
/// empty, so fewer than `k` come back when there are fewer items. Any
/// `k >= 1` is fine: the product is taken in `u128` and saturates, which
/// keeps the piece index non-decreasing (exact while `total < 2^63`).
fn cut(costs: &[u64], k: usize) -> Vec<Range<usize>> {
    let total = costs.iter().sum::<u64>().max(1);
    let mut pieces: Vec<Range<usize>> = Vec::new();
    let (mut before, mut last) = (0u64, u128::MAX);
    for (i, &c) in costs.iter().enumerate() {
        let midpoint = 2 * before as u128 + c as u128;
        let piece = (midpoint.saturating_mul(k as u128) / (2 * total as u128)).min(k as u128 - 1);
        match pieces.last_mut() {
            Some(open) if piece == last => open.end = i + 1,
            _ => pieces.push(i..i + 1),
        }
        (before, last) = (before + c, piece);
    }
    pieces
}

/// One barrier-delimited stage of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stage {
    /// The stage's units in slot order; each unit's run-local block
    /// indices in schedule order.
    units: Vec<Vec<u32>>,
    /// Contiguous pieces of `units`, one per worker that has work.
    shards: Vec<Range<usize>>,
    /// Planned cost: the heaviest shard plus the barrier.
    cost: u64,
}

impl Stage {
    /// Fuses each shard into one unit (for steps without dirty flags,
    /// where nothing is gained by keeping a worker's units apart).
    fn fuse_shards(self) -> Stage {
        let fused = self.shards.iter().map(|shard| {
            let mut blocks = self.units[shard.clone()].concat();
            blocks.sort_unstable();
            blocks
        });
        let units: Vec<Vec<u32>> = fused.collect();
        Stage { shards: (0..units.len()).map(|i| i..i + 1).collect(), units, cost: self.cost }
    }
}

/// Builds the stage holding `members` (run-local block indices, ascending):
/// its units are the connected components of the writer→reader graph
/// restricted to the members, sorted by lowest written slot and cut into
/// `k` shards.
fn build_stage(io: &[BlockIo], writer_of: &[u32], members: &[u32], k: usize) -> Stage {
    fn find(uf: &mut [u32], mut x: u32) -> u32 {
        while uf[x as usize] != x {
            uf[x as usize] = uf[uf[x as usize] as usize];
            x = uf[x as usize];
        }
        x
    }
    let mut uf: Vec<u32> = (0..members.len() as u32).collect();
    for (i, &b) in members.iter().enumerate() {
        for &r in &io[b as usize].reads {
            let w = writer_of[r as usize];
            if w == b {
                continue;
            }
            // `members` is sorted, so the search doubles as the in-stage test.
            if let Ok(j) = members.binary_search(&w) {
                let (ri, rj) = (find(&mut uf, i as u32), find(&mut uf, j as u32));
                uf[ri.max(rj) as usize] = ri.min(rj);
            }
        }
    }
    // (lowest written slot, blocks) per component, in first-block order.
    let mut unit_of_root = vec![NONE; members.len()];
    let mut units: Vec<(u32, Vec<u32>)> = Vec::new();
    for (i, &b) in members.iter().enumerate() {
        let root = find(&mut uf, i as u32) as usize;
        if unit_of_root[root] == NONE {
            unit_of_root[root] = units.len() as u32;
            units.push((NONE, Vec::new()));
        }
        let unit = &mut units[unit_of_root[root] as usize];
        let lowest = io[b as usize].writes.iter().copied().min().unwrap_or(NONE);
        unit.0 = unit.0.min(lowest);
        unit.1.push(b);
    }
    // Stable: units that write nothing keep their schedule order.
    units.sort_by_key(|&(slot, _)| slot);
    let costs: Vec<u64> = units
        .iter()
        .map(|(_, blocks)| UNIT_COST + blocks.iter().map(|&b| io[b as usize].cost).sum::<u64>())
        .collect();
    let shards = cut(&costs, k);
    let heaviest = shards.iter().map(|s| costs[s.clone()].iter().sum::<u64>()).max().unwrap_or(0);
    Stage {
        units: units.into_iter().map(|(_, blocks)| blocks).collect(),
        shards,
        cost: heaviest + BARRIER_COST,
    }
}

/// Plans one run of IR blocks for `k` workers: a sequence of stages of
/// contiguous dependency levels, chosen to minimise the sum of stage costs
/// (heaviest shard + barrier) by greedy merging — start with one stage per
/// level and keep merging the adjacent pair that saves most, until no
/// merge saves anything. Each round re-plans only the merged stage's two
/// neighbours. With one worker every merge saves a barrier, so the result
/// is one stage of whole-run components. Deterministic: ties go to the
/// earlier pair, and nothing depends on hash order.
fn plan_run(io: &[BlockIo], k: usize) -> Vec<Stage> {
    let writer_of = writers(io);
    let level = levels(io, &writer_of);
    let nlevels = level.iter().max().map_or(0, |&l| l as usize + 1);
    let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); nlevels];
    for (b, &l) in level.iter().enumerate() {
        by_level[l as usize].push(b as u32);
    }
    let build = |levels: Range<usize>| {
        let mut members = by_level[levels].concat();
        members.sort_unstable();
        build_stage(io, &writer_of, &members, k)
    };

    // Stage `i` spans levels `bounds[i]..bounds[i + 1]`; `merged[i]` is
    // what stages `i` and `i + 1` would become.
    let mut bounds: Vec<usize> = (0..=nlevels).collect();
    let mut stages: Vec<Stage> = (0..nlevels).map(|l| build(l..l + 1)).collect();
    let mut merged: Vec<Stage> = (1..nlevels).map(|l| build(l - 1..l + 1)).collect();
    loop {
        let saving =
            |i: usize| (stages[i].cost + stages[i + 1].cost).saturating_sub(merged[i].cost);
        let Some(i) = (0..merged.len()).rev().max_by_key(|&i| saving(i)) else { break };
        if saving(i) == 0 {
            break;
        }
        stages[i] = merged.remove(i);
        stages.remove(i + 1);
        bounds.remove(i + 1);
        if i > 0 {
            merged[i - 1] = build(bounds[i - 1]..bounds[i + 1]);
        }
        if i < merged.len() {
            merged[i] = build(bounds[i]..bounds[i + 2]);
        }
    }
    stages
}

// ---------------------------------------------------------------------------
// Shared state and the step protocol
// ---------------------------------------------------------------------------

/// A schedulable unit: one combinational connected component of a stage,
/// or one worker's shard of a sequential run. Blocks are kept in levelized
/// / declaration order; `tape` is their fusion.
struct Unit {
    blocks: Vec<u32>,
    tape: Tape,
    /// Dirty flags of the later-stage units that read a slot this unit
    /// writes, set whenever this unit runs (comb units only).
    marks: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Comb,
    Seq,
    Commit,
}

/// One parallel step: a contiguous range of items per worker — unit ids
/// for a comb or seq step, indices into `reg_slots` for the commit. Index
/// 0 is the control thread's shard.
struct Step {
    kind: StepKind,
    assign: Vec<Range<u32>>,
    /// Per worker, the dirty flag of the first unit of its shard; the rest
    /// follow consecutively (comb steps only).
    flags: Vec<u32>,
}

impl Step {
    /// Worker `w`'s dirty flags.
    fn flag_range(&self, w: usize) -> Range<usize> {
        let first = self.flags[w] as usize;
        first..first + self.assign[w].len()
    }

    /// Hands every item to worker 0 (the ranges are contiguous).
    fn serialize(&mut self) {
        let (first, last) = (self.assign[0].start, self.assign[self.assign.len() - 1].end);
        self.assign.fill(last..last);
        self.assign[0] = first..last;
    }
}

/// A phase program item: dispatch a parallel step, or run a native block
/// serially on the control thread at its exact schedule position.
enum Item {
    Par(u32),
    Native(u32),
}

/// Sentinel command telling workers to exit.
const EXIT: usize = usize::MAX;

/// Sense-reversing hybrid barrier. A waiter spins for about a microsecond
/// (only when more than one core is available), then yields its time slice
/// in a loop — on a CPU it shares with the thread it is waiting for,
/// spinning would only delay that thread — and finally sleeps on a condvar.
/// The mutex holds the number of sleepers, so a release pays for a wake-up
/// call only when somebody sleeps.
struct Barrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    sleepers: Mutex<usize>,
    cv: Condvar,
    spin: u32,
}

/// Yields before a waiter goes to sleep: a few hundred microseconds of an
/// otherwise idle core, about what the spin-only barrier burnt.
const YIELDS: u32 = 1_000;

impl Barrier {
    fn new(n: usize) -> Barrier {
        Barrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: Mutex::new(0),
            cv: Condvar::new(),
            // On a single core spinning only delays the thread that must
            // run next; go straight to yielding. Otherwise keep it short: a
            // yield on an otherwise idle core is only a slower spin, and a
            // fresh worker can share the control thread's CPU for its first
            // half second, where every spin is wasted.
            spin: if available_cores() > 1 { 100 } else { 0 },
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            // Bump the generation under the lock so a waiter cannot
            // re-check and sleep across the bump; whoever sleeps has
            // counted itself in under the same lock.
            let sleepers = {
                let sleepers = self.sleepers.lock().expect("no waiter panics holding the lock");
                self.generation.store(gen.wrapping_add(1), Ordering::Release);
                *sleepers
            };
            if sleepers > 0 {
                self.cv.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != gen;
        for _ in 0..self.spin {
            if released() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if released() {
                return;
            }
            std::thread::yield_now();
        }
        let mut sleepers = self.sleepers.lock().expect("no waiter panics holding the lock");
        *sleepers += 1;
        while !released() {
            sleepers = self.cv.wait(sleepers).expect("no waiter panics holding the lock");
        }
        *sleepers -= 1;
    }
}

/// State and schedule shared between the control thread and workers.
struct Shared {
    /// Shared under the protocol of [`crate::state`]: [`run_step`] takes a
    /// worker's handle for one step, [`Shared::parked`] the control
    /// thread's between steps.
    state: PackedState,
    /// Per-block tapes (empty for native blocks), shared with every other
    /// engine built from the same artifact; the profiled path runs these
    /// so wall time stays attributable per block.
    block_tapes: Arc<Vec<Tape>>,
    units: Vec<Unit>,
    steps: Vec<Step>,
    /// Dirty flags of the comb units reading each net slot (minus the unit
    /// that writes it).
    slot_readers: Vec<Vec<u32>>,
    /// Dirty flags of the comb units reading each memory.
    mem_readers: Vec<Vec<u32>>,
    /// Dirty flag per comb unit, laid out worker by worker with a cache
    /// line between workers (see [`Step::flags`]). Set by whoever changes a
    /// unit's input, cleared by the owning worker when it runs the unit;
    /// the barrier orders the two.
    dirty: Vec<AtomicBool>,
    /// Step index to execute, or [`EXIT`].
    cmd: AtomicUsize,
    barrier: Barrier,
    /// Deferred memory writes, one queue per worker, drained by that
    /// worker in the commit step. A memory has one writer block, hence one
    /// queue, so per-memory write order is preserved.
    pending: Vec<Mutex<Vec<(u32, u64, u128)>>>,
    profiling: AtomicBool,
    /// Per-block wall nanos accumulated by workers while profiling.
    block_nanos: Vec<AtomicU64>,
    /// Per-worker busy wall nanos while profiling (partition timing).
    worker_nanos: Vec<AtomicU64>,
    /// Blocks executed in the current profiled pass.
    pass_blocks: AtomicU64,
    regs_len: usize,
}

impl Shared {
    /// The control thread's handle on the state between steps.
    fn parked(&self) -> Access<'_> {
        // SAFETY: only `ParTapeEngine`'s methods call this, on the control
        // thread and outside `run_parallel_step`: every worker is parked at
        // the barrier, so this is the only live handle.
        unsafe { self.state.shared() }
    }

    fn mark(&self, flags: &[u32]) {
        for &f in flags {
            self.dirty[f as usize].store(true, Ordering::Relaxed);
        }
    }

    /// Marks every comb unit dirty.
    fn mark_all(&self) {
        for step in self.steps.iter().filter(|s| s.kind == StepKind::Comb) {
            for w in 0..step.assign.len() {
                for flag in &self.dirty[step.flag_range(w)] {
                    flag.store(true, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Runs worker `w`'s shard of a step. Called by workers and (for shard 0)
/// by the control thread.
fn run_step(shared: &Shared, step: &Step, w: usize, regs: &mut [u128], changed: &mut Vec<u32>) {
    let profiling = shared.profiling.load(Ordering::Relaxed);
    let t0 = profiling.then(Instant::now);
    let mut pending = shared.pending[w].lock().expect("no step panics holding its queue");
    // SAFETY: this handle lives for worker `w`'s shard of one step, and
    // `step_shards_independent` checked every step at construction: comb
    // and seq shards write disjoint slots that no other shard reads, the
    // commit's ranges tile `reg_slots`, and a memory's stores are all in
    // its one owner's queue. A step that failed the check was serialized
    // onto worker 0. The barrier keeps steps apart.
    let mut state = unsafe { shared.state.shared() };
    match step.kind {
        // The register and memory commit of this worker's range of
        // registers and its own queue; with one worker, all of them.
        StepKind::Commit => {
            let regs = &step.assign[w];
            state.commit(regs.start as usize..regs.end as usize, |slot| {
                shared.mark(&shared.slot_readers[slot as usize])
            });
            state.drain(&mut pending, |mem| shared.mark(&shared.mem_readers[mem]));
        }
        _ => run_units(shared, &mut state, step, w, regs, &mut pending, changed),
    }
    drop(pending);
    if let Some(t0) = t0 {
        shared.worker_nanos[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Worker `w`'s units of a comb or seq step: skips clean comb units, marks
/// the later-stage readers of those that run, and executes the fused unit
/// tape — or, while profiling, the unit's block tapes one timed call each.
fn run_units(
    shared: &Shared,
    state: &mut Access<'_>,
    step: &Step,
    w: usize,
    regs: &mut [u128],
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    let profiling = shared.profiling.load(Ordering::Relaxed);
    for (i, u) in step.assign[w].clone().enumerate() {
        let unit = &shared.units[u as usize];
        if step.kind == StepKind::Comb {
            if !shared.dirty[step.flags[w] as usize + i].swap(false, Ordering::Relaxed) {
                continue;
            }
            shared.mark(&unit.marks);
        }
        if profiling {
            shared.pass_blocks.fetch_add(unit.blocks.len() as u64, Ordering::Relaxed);
            for &b in &unit.blocks {
                let bt = Instant::now();
                let tape = &shared.block_tapes[b as usize];
                state.exec::<false>(tape, 0, regs, pending, changed);
                shared.block_nanos[b as usize]
                    .fetch_add(bt.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        } else {
            state.exec::<false>(&unit.tape, 0, regs, pending, changed);
        }
    }
}

fn worker_loop(shared: Arc<Shared>, w: usize) {
    let mut regs = vec![0u128; shared.regs_len];
    let mut changed = Vec::new();
    loop {
        shared.barrier.wait();
        let cmd = shared.cmd.load(Ordering::Acquire);
        if cmd == EXIT {
            break;
        }
        run_step(&shared, &shared.steps[cmd], w, &mut regs, &mut changed);
        shared.barrier.wait();
    }
}

/// Checks that a step's shards are mutually independent. Comb and seq
/// steps: cur-write sets pairwise disjoint and (for comb) never read by
/// another shard; seq shards must not write `cur` at all; and every memory
/// is written from one worker only, across all steps (`mem_owner`, filled
/// in as steps are checked) — which is what lets each worker drain its own
/// queue in the commit. The commit step: its ranges are consecutive and
/// cover `0..nregs`. All of this is guaranteed by elaboration (single
/// driver per net, one writer block per memory) plus component closure;
/// the check is defense in depth for the unchecked executor.
fn step_shards_independent(
    units: &[Unit],
    step: &Step,
    mem_owner: &mut [Option<u32>],
    nregs: u32,
) -> bool {
    if step.kind == StepKind::Commit {
        let end = step.assign.iter().try_fold(0, |at, r| (r.start == at).then_some(r.end));
        return end == Some(nregs);
    }
    #[derive(Default)]
    struct ShardSets {
        cur_writes: HashSet<u32>,
        reads: HashSet<u32>,
        next_writes: HashSet<u32>,
    }
    let mut shards: Vec<ShardSets> = Vec::new();
    for (w, assign) in step.assign.iter().enumerate() {
        let mut s = ShardSets::default();
        for u in assign.clone() {
            for op in &units[u as usize].tape.ops {
                match op.effect() {
                    Effect::Read { slot } => {
                        s.reads.insert(slot);
                    }
                    // Masked and predicated stores count like full ones:
                    // the guard is about who may touch the slot at all.
                    Effect::Write { slot, next, .. } => {
                        // Comb steps store to `cur` only, seq steps to
                        // `next` only.
                        if next == (step.kind == StepKind::Comb) {
                            return false;
                        }
                        let writes = if next { &mut s.next_writes } else { &mut s.cur_writes };
                        writes.insert(slot);
                    }
                    Effect::MemWrite { mem, .. } => {
                        if *mem_owner[mem as usize].get_or_insert(w as u32) != w as u32 {
                            return false;
                        }
                    }
                    // Memory stores are deferred to the commit, so an
                    // in-step `MemRead` races with nothing.
                    Effect::Pure | Effect::MemRead { .. } | Effect::Jump { .. } => {}
                }
            }
        }
        shards.push(s);
    }
    for i in 0..shards.len() {
        for j in 0..shards.len() {
            if i == j {
                continue;
            }
            if !shards[i].cur_writes.is_disjoint(&shards[j].cur_writes)
                || !shards[i].cur_writes.is_disjoint(&shards[j].reads)
                || !shards[i].next_writes.is_disjoint(&shards[j].next_writes)
            {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

pub(crate) struct ParTapeEngine {
    design: Arc<Design>,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nworkers: usize,
    natives: Vec<Option<NativeFn>>,
    comb_program: Vec<Item>,
    seq_program: Vec<Item>,
    /// The commit step's index in `shared.steps`.
    commit_step: u32,
    /// No native comb blocks: component dirty-skipping is exact. With
    /// native comb blocks a logical component can span runs, where native
    /// reads are not tracked, so every unit is marked dirty each pass.
    pure_comb: bool,
    /// Dirty flag of the comb unit writing each net slot, if any.
    slot_driver: Vec<Option<u32>>,
    /// Dirty flag of the comb unit writing each memory, if any (re-runs
    /// after `poke_mem` so the poked word is restored exactly as a full
    /// pass would).
    mem_writer: Vec<Option<u32>>,
    /// The worker whose queue takes each block's deferred memory writes.
    block_worker: Vec<u32>,
    dirty_global: bool,
    cycles: u64,
    regs: Vec<u128>,
    changed: Vec<u32>,
    prof: Option<EngineStats>,
    /// Per-pass optimizer statistics (compile-time only; `None` when the
    /// optimizer is off).
    opt_report: Option<OptReport>,
}

impl ParTapeEngine {
    /// Partitions the block stage of the compiled artifact over `threads`
    /// workers. The per-block tapes are shared (and cached); the unit
    /// tapes fused from them depend on the worker count and are built —
    /// and validated — per instance.
    pub(crate) fn new(
        design: Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        threads: usize,
        staged: &Staged,
        o: &mut Overheads,
    ) -> Self {
        let blocks = staged.blocks.as_ref().expect("resolved to the block stage");
        let layout = &blocks.layout;
        let block_tapes = blocks.tapes.clone();
        let mut report = blocks.report.clone();

        // Phase: wrap (packed state).
        let t0 = Instant::now();
        let state = PackedState::new(layout, design.mems().iter().map(|m| m.words));
        o.wrap += t0.elapsed();

        // Phase: simc (partitioning + schedule + worker pool).
        let t0 = Instant::now();
        let is_ir = |b: u32| matches!(design.blocks()[b as usize].body, BlockBody::Ir(_));
        let pure_comb = layout.comb_order.iter().all(|&b| is_ir(b));
        let slots_of = |signals: &[SignalId]| -> Vec<u32> {
            signals.iter().map(|&s| design.net_of(s).index() as u32).collect()
        };

        let mut units: Vec<Unit> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut build_program = |order: &[u32], kind: StepKind| -> Vec<Item> {
            let mut program = Vec::new();
            for item in ir_runs(&design, order) {
                let run = match item {
                    Run::Native(native) => {
                        program.push(Item::Native(native));
                        continue;
                    }
                    Run::Ir(run) => run,
                };
                let kind_of = if kind == StepKind::Comb { BlockKind::Comb } else { BlockKind::Seq };
                let io = run_io(&design, &block_tapes, &run, kind_of);
                for stage in plan_run(&io, threads) {
                    // Seq units carry no dirty flag: one per worker.
                    let stage = if kind == StepKind::Comb { stage } else { stage.fuse_shards() };
                    let base = units.len() as u32;
                    for unit in &stage.units {
                        let group: Vec<u32> = unit.iter().map(|&i| run[i as usize]).collect();
                        units.push(Unit {
                            tape: fuse_run(blocks, &group, &mut report, "fused unit tape"),
                            blocks: group,
                            marks: Vec::new(),
                        });
                    }
                    let assign =
                        stage.shards.iter().map(|s| base + s.start as u32..base + s.end as u32);
                    program.push(Item::Par(steps.len() as u32));
                    steps.push(Step { kind, assign: assign.collect(), flags: Vec::new() });
                }
            }
            program
        };
        let comb_program = build_program(&layout.comb_order, StepKind::Comb);
        let seq_program = build_program(&layout.seq_order, StepKind::Seq);

        // The useful worker count is bounded by the widest step; the
        // commit is cut for the workers that exist.
        let nworkers = steps.iter().map(|s| s.assign.len()).max().unwrap_or(1);
        let commit_step = steps.len() as u32;
        let commit = cut(&vec![1; state.nregs()], nworkers);
        steps.push(Step {
            kind: StepKind::Commit,
            assign: commit.iter().map(|r| r.start as u32..r.end as u32).collect(),
            flags: Vec::new(),
        });
        for step in &mut steps {
            let end = step.assign.last().map_or(0, |r| r.end);
            step.assign.resize(nworkers, end..end);
        }
        let mut mem_owner = vec![None; design.mems().len()];
        let nregs = state.nregs() as u32;
        if !steps.iter().all(|s| step_shards_independent(&units, s, &mut mem_owner, nregs)) {
            // Should be unreachable (invariants above); degrade to serial
            // execution rather than risk a data race.
            debug_assert!(false, "partition validation failed");
            steps.iter_mut().for_each(Step::serialize);
        }

        // Dirty flags, worker by worker, and who runs what.
        let nblocks = design.blocks().len();
        let mut block_worker = vec![0u32; nblocks];
        let mut flag_of = vec![NONE; units.len()];
        let mut step_of = vec![0usize; units.len()];
        let mut nflags = 0u32;
        for w in 0..nworkers {
            for (si, step) in steps.iter_mut().enumerate() {
                if step.kind == StepKind::Commit {
                    continue;
                }
                if step.kind == StepKind::Comb {
                    step.flags.push(nflags);
                }
                for u in step.assign[w].clone() {
                    for &b in &units[u as usize].blocks {
                        block_worker[b as usize] = w as u32;
                    }
                    if step.kind == StepKind::Comb {
                        (flag_of[u as usize], step_of[u as usize]) = (nflags, si);
                        nflags += 1;
                    }
                }
            }
            nflags += LINE;
        }

        // Dirty-marking maps over comb units (as unit ids first).
        let nslots = state.nslots();
        let comb_units = || (0..units.len()).filter(|&u| flag_of[u] != NONE);
        let mut slot_readers: Vec<Vec<u32>> = vec![Vec::new(); nslots];
        let mut slot_driver: Vec<Option<u32>> = vec![None; nslots];
        let mut mem_readers: Vec<Vec<u32>> = vec![Vec::new(); design.mems().len()];
        let mut mem_writer: Vec<Option<u32>> = vec![None; design.mems().len()];
        for u in comb_units() {
            for &b in &units[u].blocks {
                for slot in slots_of(&design.blocks()[b as usize].writes) {
                    slot_driver[slot as usize] = Some(u as u32);
                }
            }
        }
        for u in comb_units() {
            for &b in &units[u].blocks {
                let info = &design.blocks()[b as usize];
                for slot in slots_of(&info.reads) {
                    let readers = &mut slot_readers[slot as usize];
                    if slot_driver[slot as usize] != Some(u as u32)
                        && !readers.contains(&(u as u32))
                    {
                        readers.push(u as u32);
                    }
                }
                for &m in &info.mem_reads {
                    if !mem_readers[m.index()].contains(&(u as u32)) {
                        mem_readers[m.index()].push(u as u32);
                    }
                }
                for &m in &info.mem_writes {
                    mem_writer[m.index()] = Some(u as u32);
                }
            }
        }
        // Tapes do not track changes: a unit that runs marks every unit of
        // a later step that reads a slot it writes.
        for u in comb_units() {
            let mut marks: Vec<u32> = Vec::new();
            for &b in &units[u].blocks {
                for slot in slots_of(&design.blocks()[b as usize].writes) {
                    let later = slot_readers[slot as usize]
                        .iter()
                        .filter(|&&r| step_of[r as usize] > step_of[u]);
                    marks.extend(later.map(|&r| flag_of[r as usize]));
                }
            }
            marks.sort_unstable();
            marks.dedup();
            units[u].marks = marks;
        }
        let flag = |u: u32| flag_of[u as usize];
        let to_flags = |lists: Vec<Vec<u32>>| -> Vec<Vec<u32>> {
            lists.into_iter().map(|l| l.into_iter().map(flag).collect()).collect()
        };
        let slot_readers = to_flags(slot_readers);
        let mem_readers = to_flags(mem_readers);
        let slot_driver = slot_driver.into_iter().map(|u| u.map(flag)).collect();
        let mem_writer = mem_writer.into_iter().map(|u| u.map(flag)).collect();

        let regs_len = block_tapes
            .iter()
            .map(|t| t.nregs as usize)
            .chain(units.iter().map(|u| u.tape.nregs as usize))
            .max()
            .unwrap_or(0);
        let shared = Arc::new(Shared {
            state,
            block_tapes,
            units,
            steps,
            slot_readers,
            mem_readers,
            dirty: (0..nflags).map(|_| AtomicBool::new(true)).collect(),
            cmd: AtomicUsize::new(EXIT),
            barrier: Barrier::new(nworkers),
            pending: (0..nworkers).map(|_| Mutex::new(Vec::new())).collect(),
            profiling: AtomicBool::new(false),
            block_nanos: (0..nblocks).map(|_| AtomicU64::new(0)).collect(),
            worker_nanos: (0..nworkers).map(|_| AtomicU64::new(0)).collect(),
            pass_blocks: AtomicU64::new(0),
            regs_len,
        });
        let mut handles = Vec::new();
        for w in 1..nworkers {
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mtl-sim-{w}"))
                    .spawn(move || worker_loop(sh, w))
                    .expect("spawn simulation worker"),
            );
        }
        o.simc += t0.elapsed();

        Self {
            design,
            shared,
            handles,
            nworkers,
            natives,
            comb_program,
            seq_program,
            commit_step,
            pure_comb,
            slot_driver,
            mem_writer,
            block_worker,
            dirty_global: true,
            cycles: 0,
            regs: vec![0u128; regs_len],
            changed: Vec::new(),
            prof: None,
            opt_report: report,
        }
    }

    /// The static plan, for the profile: per step its kind, unit count and
    /// the fused tape ops (registers, for the commit) given to each worker.
    fn plan(&self) -> Vec<PlanStep> {
        let plan_step = |step: &Step| {
            let units = &self.shared.units;
            let load = |r: &Range<u32>| match step.kind {
                StepKind::Commit => r.len() as u64,
                _ => r.clone().map(|u| units[u as usize].tape.ops.len() as u64).sum(),
            };
            PlanStep {
                kind: match step.kind {
                    StepKind::Comb => "comb",
                    StepKind::Seq => "seq",
                    StepKind::Commit => "commit",
                },
                units: step.assign.iter().map(|r| r.len()).sum(),
                loads: step.assign.iter().map(load).collect(),
            }
        };
        self.shared.steps.iter().map(plan_step).collect()
    }

    fn run_parallel_step(&mut self, sidx: u32) {
        let sh = Arc::clone(&self.shared);
        let step = &sh.steps[sidx as usize];
        if step.kind == StepKind::Comb {
            let dirty = |w| sh.dirty[step.flag_range(w)].iter().any(|f| f.load(Ordering::Relaxed));
            if !(0..self.nworkers).any(dirty) {
                return;
            }
        }
        if self.handles.is_empty() {
            run_step(&sh, step, 0, &mut self.regs, &mut self.changed);
            return;
        }
        sh.cmd.store(sidx as usize, Ordering::Release);
        sh.barrier.wait();
        run_step(&sh, step, 0, &mut self.regs, &mut self.changed);
        sh.barrier.wait();
    }

    fn run_native(&mut self, b: u32) {
        let t0 = self.prof.is_some().then(Instant::now);
        let f = self.natives[b as usize].as_mut().expect("native block has its closure");
        self.shared.parked().call_native(&self.design, f, &mut self.changed, self.cycles);
        // Wake combinational readers of whatever the native wrote (this
        // covers sequential natives misusing combinational-style writes;
        // the static engine's unconditional trailing pass absorbs those,
        // the partitioned engine re-runs just the readers).
        for slot in self.changed.drain(..) {
            self.shared.mark(&self.shared.slot_readers[slot as usize]);
        }
        if let Some(t0) = t0 {
            let dt = t0.elapsed().as_nanos() as u64;
            self.shared.pass_blocks.fetch_add(1, Ordering::Relaxed);
            if let Some(p) = self.prof.as_mut() {
                p.block_nanos[b as usize] += dt;
            }
        }
    }

    fn fold_profile(&mut self) {
        let Some(p) = self.prof.as_mut() else { return };
        for (b, a) in self.shared.block_nanos.iter().enumerate() {
            let v = a.swap(0, Ordering::Relaxed);
            if v > 0 {
                p.block_nanos[b] += v;
            }
        }
        for (w, a) in self.shared.worker_nanos.iter().enumerate() {
            let v = a.swap(0, Ordering::Relaxed);
            if v > 0 {
                p.partition_nanos[w] += v;
            }
        }
    }

    fn run_program(&mut self, program: &[Item]) {
        for item in program {
            match item {
                Item::Par(s) => self.run_parallel_step(*s),
                Item::Native(b) => self.run_native(*b),
            }
        }
    }

    fn comb_phase(&mut self) {
        if !self.pure_comb {
            self.shared.mark_all();
        }
        let profiling = self.prof.is_some();
        if profiling {
            self.shared.pass_blocks.store(0, Ordering::Relaxed);
        }
        let program = std::mem::take(&mut self.comb_program);
        self.run_program(&program);
        self.comb_program = program;
        if profiling {
            let blocks = self.shared.pass_blocks.swap(0, Ordering::Relaxed);
            self.fold_profile();
            let p = self.prof.as_mut().expect("profiling enabled");
            p.settles += 1;
            p.fixpoint.record(blocks);
        }
        self.dirty_global = false;
    }

    fn seq_phase(&mut self) {
        let program = std::mem::take(&mut self.seq_program);
        self.run_program(&program);
        self.seq_program = program;
    }

    fn commit(&mut self) {
        self.run_parallel_step(self.commit_step);
        if self.prof.is_some() {
            self.fold_profile();
        }
    }
}

impl EngineImpl for ParTapeEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.opt_report.as_ref()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        let sh = &self.shared;
        if sh.parked().poke(slot, v) {
            self.dirty_global = true;
            sh.mark(&sh.slot_readers[slot as usize]);
            // Re-run the driving unit too, so a poked driven net is
            // recomputed from its inputs exactly as a full pass would.
            sh.mark(self.slot_driver[slot as usize].as_slice());
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        self.shared.state.peek(slot)
    }

    fn eval(&mut self) {
        if self.dirty_global {
            self.comb_phase();
        }
    }

    fn cycle(&mut self) {
        self.eval();
        self.edge();
        self.comb_phase();
        self.cycles += 1;
    }

    fn edge(&mut self) {
        self.seq_phase();
        self.commit();
    }

    fn exec_block(&mut self, b: u32) {
        if matches!(self.design.blocks()[b as usize].body, BlockBody::Ir(_)) {
            let sh = &self.shared;
            // Deferred memory writes go to the queue of the block's
            // worker, so one memory's writes stay in one queue.
            let queue = &sh.pending[self.block_worker[b as usize] as usize];
            let mut pending = queue.lock().expect("no step panics holding its queue");
            let tape = &sh.block_tapes[b as usize];
            sh.parked().exec::<false>(tape, 0, &mut self.regs, &mut pending, &mut self.changed);
        } else {
            self.run_native(b);
        }
    }

    fn force(&mut self, _lane: u32, slot: u32, v: Bits, also_next: bool) {
        self.shared.parked().force(slot, v, also_next);
    }

    fn settle_full(&mut self) {
        self.shared.mark_all();
        self.comb_phase();
    }

    fn bump_cycles(&mut self) {
        self.cycles += 1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        self.shared.state.peek_mem(mem, addr)
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        let sh = &self.shared;
        sh.parked().poke_mem(mem, addr, v);
        self.dirty_global = true;
        sh.mark(&sh.mem_readers[mem]);
        // The writer re-pends its own write so the next commit restores
        // the memory exactly as the static engine's full pass would.
        sh.mark(self.mem_writer[mem].as_slice());
    }

    fn set_activity(&mut self, on: bool) {
        self.shared.state.set_activity(on);
    }

    fn activity(&self) -> &[u64] {
        self.shared.state.activity()
    }

    fn set_profiling(&mut self, on: bool) {
        if on && self.prof.is_none() {
            let mut stats = EngineStats::new(self.design.blocks().len());
            stats.partition_nanos = vec![0; self.nworkers];
            stats.partition_plan = self.plan();
            self.prof = Some(stats);
            for a in &self.shared.block_nanos {
                a.store(0, Ordering::Relaxed);
            }
            for a in &self.shared.worker_nanos {
                a.store(0, Ordering::Relaxed);
            }
            self.shared.pass_blocks.store(0, Ordering::Relaxed);
        } else if !on {
            self.prof = None;
        }
        self.shared.profiling.store(self.prof.is_some(), Ordering::Relaxed);
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.prof.as_ref()
    }
}

impl Drop for ParTapeEngine {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shared.cmd.store(EXIT, Ordering::Release);
            self.shared.barrier.wait();
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Op;

    fn unit(ops: Vec<Op>) -> Unit {
        Unit {
            blocks: Vec::new(),
            tape: Tape { ops, nregs: 3, ..Tape::default() },
            marks: Vec::new(),
        }
    }

    /// Runs the partition guard over a step of one unit per shard.
    fn independent(kind: StepKind, shards: Vec<Vec<Op>>) -> bool {
        let assign = (0..shards.len() as u32).map(|u| u..u + 1).collect();
        let units: Vec<Unit> = shards.into_iter().map(unit).collect();
        let step = Step { kind, assign, flags: Vec::new() };
        step_shards_independent(&units, &step, &mut [None; 2], 0)
    }

    /// The predicated stores if-conversion produces are stores: the guard
    /// `run_step`'s shared-state accesses rely on must see them.
    #[test]
    fn partition_guard_sees_predicated_stores() {
        use StepKind::{Comb, Seq};
        let read = |slot| Op::Read { dst: 0, slot };
        let write_if = |slot| Op::WriteIf { slot, cond: 0, src: 1, neg: false };
        let next_if = |slot| Op::WriteNextIf { slot, cond: 0, src: 1, neg: true };
        let mem_if = |mem| Op::MemWriteIf { mem, addr: 0, data: 1, cond: 2, words: 4, neg: false };

        assert!(!independent(Seq, vec![vec![next_if(3)], vec![next_if(3)]]), "shared next slot");
        assert!(!independent(Comb, vec![vec![write_if(3)], vec![read(3)]]), "cross-shard read");
        assert!(!independent(Seq, vec![vec![mem_if(0)], vec![mem_if(0)]]), "shared memory");
        assert!(!independent(Comb, vec![vec![next_if(3)], vec![]]), "next store in a comb step");

        assert!(independent(Seq, vec![vec![next_if(3), mem_if(0)], vec![next_if(4), mem_if(1)]]));
        assert!(independent(Comb, vec![vec![read(5), write_if(3)], vec![read(5), write_if(4)]]));
    }

    /// A memory belongs to one worker across *all* steps — each worker
    /// drains only its own queue in the commit — and the commit's ranges
    /// must tile `reg_slots`.
    #[test]
    fn partition_guard_keeps_one_owner_per_memory_and_tiles_the_commit() {
        let mem = |mem| vec![Op::MemWrite { mem, addr: 0, data: 1, words: 4 }];
        let units = vec![unit(mem(0)), unit(mem(1)), unit(mem(0))];
        let step = |kind, assign: Vec<Range<u32>>| Step { kind, assign, flags: Vec::new() };
        let mut owner = [None; 2];
        let first = step(StepKind::Seq, vec![0..1, 1..2]);
        assert!(step_shards_independent(&units, &first, &mut owner, 0));
        assert_eq!(owner, [Some(0), Some(1)]);
        let moved = step(StepKind::Comb, vec![1..1, 2..3]);
        assert!(!step_shards_independent(&units, &moved, &mut owner, 0), "memory 0 changed hands");

        let commit = |assign| step(StepKind::Commit, assign);
        assert!(step_shards_independent(&units, &commit(vec![0..3, 3..7]), &mut owner, 7));
        assert!(!step_shards_independent(&units, &commit(vec![0..3, 4..7]), &mut owner, 7), "gap");
        assert!(
            !step_shards_independent(&units, &commit(vec![0..4, 3..7]), &mut owner, 7),
            "overlap"
        );
        assert!(
            !step_shards_independent(&units, &commit(vec![0..3, 3..6]), &mut owner, 7),
            "short"
        );
        let mut serial = commit(vec![0..3, 3..7]);
        serial.serialize();
        assert_eq!(serial.assign, vec![0..7, 7..7]);
        assert!(step_shards_independent(&units, &serial, &mut owner, 7));
    }

    /// 4 threads × 20 000 generations on however many cores the host has:
    /// nobody leaves a generation before everybody entered it, and nobody
    /// sleeps through a release.
    #[test]
    fn barrier_holds_every_generation_on_any_core_count() {
        const THREADS: usize = 4;
        const GENERATIONS: usize = 20_000;
        let barrier = Barrier::new(THREADS);
        let (arrived, early) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for generation in 1..=GENERATIONS {
                        arrived.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Counted, not asserted: a panic here would leave
                        // the other threads waiting for this one forever.
                        let all = arrived.load(Ordering::Relaxed) == generation * THREADS;
                        early.fetch_add(usize::from(!all), Ordering::Relaxed);
                        // Nobody starts the next generation's count before
                        // everybody has checked this one.
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(early.into_inner(), 0, "a thread left a generation before all had entered");
        assert_eq!(arrived.into_inner(), GENERATIONS * THREADS);
        assert_eq!(*barrier.sleepers.lock().unwrap(), 0);
    }

    /// `n` nodes in a ring, three blocks each, coupled the way val/rdy
    /// handshakes couple routers: a queue block drives `val` to its own
    /// switch and `rdy` to its neighbour's; the switch feeds an output
    /// block. Slots of node `i` are `8i..8i+8` (0 reg, 1 val, 2 rdy, 3
    /// grant, 4 out).
    fn ring(n: u32, cost: u64) -> Vec<BlockIo> {
        let block = |reads: Vec<u32>, writes: Vec<u32>| BlockIo { reads, writes, cost };
        let mut io = Vec::new();
        for i in 0..n {
            io.push(block(vec![8 * i], vec![8 * i + 1, 8 * i + 2]));
        }
        for i in 0..n {
            io.push(block(vec![8 * i + 1, 8 * ((i + 1) % n) + 2], vec![8 * i + 3]));
        }
        for i in 0..n {
            io.push(block(vec![8 * i + 3], vec![8 * i + 4]));
        }
        io
    }

    /// Connected components of the whole run, by flooding: the reference
    /// the one-worker plan must equal.
    fn whole_run_components(io: &[BlockIo]) -> Vec<Vec<u32>> {
        let touches = |a: &BlockIo, b: &BlockIo| a.writes.iter().any(|w| b.reads.contains(w));
        let mut component = vec![NONE; io.len()];
        let mut out: Vec<Vec<u32>> = Vec::new();
        for start in 0..io.len() {
            if component[start] != NONE {
                continue;
            }
            component[start] = out.len() as u32;
            let mut members = vec![start as u32];
            let mut at = 0;
            while at < members.len() {
                let a = members[at] as usize;
                for b in 0..io.len() {
                    let joined = touches(&io[a], &io[b]) || touches(&io[b], &io[a]);
                    if component[b] == NONE && joined {
                        component[b] = out.len() as u32;
                        members.push(b as u32);
                    }
                }
                at += 1;
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// The plan's stages as guard inputs: a `Read` per read slot and a
    /// `Write` per written slot of every block.
    fn as_steps(io: &[BlockIo], plan: &[Stage]) -> (Vec<Unit>, Vec<Step>) {
        let (mut units, mut steps) = (Vec::new(), Vec::new());
        for stage in plan {
            let base = units.len() as u32;
            for blocks in &stage.units {
                let io = blocks.iter().map(|&b| &io[b as usize]);
                let ops = io.flat_map(|b| {
                    let reads = b.reads.iter().map(|&slot| Op::Read { dst: 0, slot });
                    reads.chain(b.writes.iter().map(|&slot| Op::Write { slot, src: 0 }))
                });
                units.push(unit(ops.collect()));
            }
            let assign = stage.shards.iter().map(|s| base + s.start as u32..base + s.end as u32);
            steps.push(Step { kind: StepKind::Comb, assign: assign.collect(), flags: Vec::new() });
        }
        (units, steps)
    }

    #[test]
    fn handshake_ring_is_cut_into_stages_that_parallelise() {
        const N: u32 = 16;
        let io = ring(N, 200);
        assert_eq!(whole_run_components(&io).len(), 1, "the handshakes join every node");
        let plan = plan_run(&io, 2);
        assert!(plan.len() > 1, "one stage would be one unit: {plan:?}");
        assert!(plan.iter().any(|s| s.units.len() >= N as usize), "no stage has a unit per node");
        let mut planned: Vec<u32> = plan.iter().flat_map(|s| s.units.concat()).collect();
        planned.sort_unstable();
        assert_eq!(planned, (0..3 * N).collect::<Vec<_>>(), "every block is planned exactly once");
        for stage in &plan {
            let load = |shard: &Range<usize>| -> u64 {
                stage.units[shard.clone()].concat().iter().map(|&b| io[b as usize].cost).sum()
            };
            let loads: Vec<u64> = stage.shards.iter().map(load).collect();
            let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
            assert!(loads.len() == 2 && max * 10 <= min * 11, "shard loads {loads:?}");
            // Slot order: a worker's units are neighbours in the hierarchy.
            let lowest = |unit: &Vec<u32>| {
                unit.iter().flat_map(|&b| &io[b as usize].writes).copied().min().unwrap()
            };
            assert!(stage.units.windows(2).all(|u| lowest(&u[0]) < lowest(&u[1])));
            assert!(
                stage.units.iter().all(|u| u.windows(2).all(|b| b[0] < b[1])),
                "schedule order"
            );
        }
        assert_eq!(plan, plan_run(&io, 2), "the same input plans the same way");
    }

    #[test]
    fn one_worker_plans_one_stage_of_whole_run_components() {
        // Two rings side by side: two whole-run components.
        let mut io = ring(5, 40);
        let offset = |slots: &[u32]| slots.iter().map(|s| s + 1000).collect();
        let second = ring(4, 40);
        io.extend(second.iter().map(|b| BlockIo {
            reads: offset(&b.reads),
            writes: offset(&b.writes),
            cost: b.cost,
        }));
        // The planner wants schedule order to be topological; levels first
        // keeps it so. Blocks are tagged with their position to follow them.
        let mut order: Vec<usize> = (0..io.len()).collect();
        order.sort_by_key(|&b| if b < 15 { b / 5 } else { (b - 15) / 4 });
        let io: Vec<BlockIo> = order.iter().map(|&b| io[b].clone()).collect();

        let plan = plan_run(&io, 1);
        assert_eq!(plan.len(), 1, "one worker never pays for a barrier");
        assert_eq!(plan[0].shards, vec![0..2]);
        assert_eq!(plan[0].units, whole_run_components(&io));
    }

    #[test]
    fn every_planned_stage_passes_the_guard_and_a_misplaced_reader_fails_it() {
        let io = ring(12, 150);
        for k in [1, 2, 3, 4] {
            let plan = plan_run(&io, k);
            let (units, steps) = as_steps(&io, &plan);
            for step in &steps {
                assert!(step.assign.len() <= k);
                assert!(step_shards_independent(&units, step, &mut [], 0), "k={k}");
            }
        }
        // A cross-stage edge: the barrier orders it. Put its reader into
        // the writer's step as a shard of its own — without merging the two
        // units — and the guard must refuse.
        let plan = plan_run(&io, 2);
        let (units, steps) = as_steps(&io, &plan);
        let writer = steps[0].assign[0].start;
        let written: Vec<u32> =
            plan[0].units[0].iter().flat_map(|&b| io[b as usize].writes.clone()).collect();
        let reader = (steps[1].assign[0].start..steps[1].assign.last().unwrap().end)
            .find(|&u| {
                let stage_unit = &plan[1].units[(u - steps[1].assign[0].start) as usize];
                stage_unit.iter().any(|&b| io[b as usize].reads.iter().any(|r| written.contains(r)))
            })
            .expect("stage 1 reads what stage 0 writes");
        let misplaced = Step {
            kind: StepKind::Comb,
            assign: vec![writer..writer + 1, reader..reader + 1],
            flags: Vec::new(),
        };
        assert!(!step_shards_independent(&units, &misplaced, &mut [], 0));
    }

    #[test]
    fn the_cut_tiles_its_input_in_balanced_contiguous_pieces() {
        // The commit: `reg_slots` positions at cost 1 each.
        // `usize::MAX` workers: no thread count overflows the arithmetic.
        for (n, k) in [(2688, 2), (2688, 3), (7, 4), (3, 4), (1, 2), (0, 2), (7, usize::MAX)] {
            let pieces = cut(&vec![1; n], k);
            assert!(pieces.len() <= k && pieces.len() == k.min(n), "{n} over {k}: {pieces:?}");
            let mut at = 0;
            for piece in &pieces {
                assert!(piece.start == at && piece.end > at, "{n} over {k}: {pieces:?}");
                at = piece.end;
            }
            assert_eq!(at, n, "every register is committed by exactly one worker");
            let sizes = pieces.iter().map(|p| p.len());
            assert!(sizes.clone().max().unwrap_or(0) - sizes.min().unwrap_or(0) <= 1);
        }
        // Uneven costs: one heavy item does not drag its neighbours along.
        assert_eq!(cut(&[31_146, 384], 2), vec![0..1, 1..2]);
        assert_eq!(cut(&[10, 10, 10, 900, 10, 10], 2), vec![0..3, 3..6]);
    }
}
