//! The parallel partitioned tape engine ([`Engine::SpecializedPar`]).
//!
//! The fully specialized engine compiles the design into fused tapes run
//! on one thread. This module partitions that work and executes it on a
//! pool of persistent worker threads:
//!
//! * The levelized combinational schedule is cut into *runs* of IR blocks
//!   (native blocks stay serial points between runs). Each run is split
//!   into **connected components** of the comb writer→reader graph — for
//!   a mesh, one component per router sub-block. Components are closed
//!   under combinational dataflow, so within a run no component reads a
//!   net another component writes; they can execute in any order, on any
//!   thread, in a single pass.
//! * Components are merged into at most `N_threads` balanced shards by
//!   longest-processing-time (LPT) scheduling on tape length.
//! * Sequential blocks write only shadow `next` state and deferred
//!   memory-write queues, so a run of them is embarrassingly parallel;
//!   each run is LPT-sharded by tape length as well.
//! * Cross-partition register nets need no locks: the `cur`/`next` pair
//!   *is* the double buffer, and the control thread commits `next → cur`
//!   between phases while the workers are parked at the barrier.
//! * Components carry a dirty flag: a component whose inputs (register
//!   slots, memories, poked ports) did not change since it last ran is
//!   skipped. Re-running an update block with unchanged inputs writes the
//!   same values (the same idempotence the event-driven engines rely on),
//!   so skipping is exact.
//!
//! Every schedule decision is static and every shard's write set is
//! disjoint from every other shard's read and write sets (checked at
//! construction), so results are deterministic and cycle-exact with
//! [`Engine::SpecializedOpt`] regardless of thread timing.
//!
//! [`Engine::SpecializedPar`]: crate::Engine::SpecializedPar
//! [`Engine::SpecializedOpt`]: crate::Engine::SpecializedOpt

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::{BlockBody, Design, NativeFn};

use crate::artifact::Staged;
use crate::compile::passes::OptReport;
use crate::compile::{fuse_run, ir_runs, Run};
use crate::overheads::Overheads;
use crate::profile::EngineStats;
use crate::sim::EngineImpl;
use crate::tape::{exec_tape_ptr, mask_of, Effect, Tape, TapeMems};
use crate::tape_engine::PackedView;

/// Default worker-thread count: `MTL_SIM_THREADS` if set (clamped to at
/// least 1), else available parallelism capped at 8.
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var("MTL_SIM_THREADS") {
        match s.trim().parse::<usize>() {
            Ok(n) => return n.max(1),
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
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One packed net slot shared across worker threads.
///
/// Safety protocol: during a parallel step each slot is written by at
/// most one thread (shard write sets are disjoint — validated at
/// construction) and never read by a thread other than its writer in the
/// same step; between steps only the control thread touches state while
/// workers are parked at the barrier.
#[repr(transparent)]
struct Slot(UnsafeCell<u128>);

unsafe impl Sync for Slot {}

fn new_slots(n: usize) -> Vec<Slot> {
    (0..n).map(|_| Slot(UnsafeCell::new(0))).collect()
}

impl TapeMems for [Vec<Slot>] {
    #[inline(always)]
    unsafe fn read(&self, mem: usize, addr: usize) -> u128 {
        unsafe { *self.get_unchecked(mem).get_unchecked(addr).0.get() }
    }
}

/// A schedulable unit: either one combinational connected component or
/// one shard of a sequential run. Blocks are kept in levelized /
/// declaration order; `tape` is their fusion.
struct Unit {
    blocks: Vec<u32>,
    tape: Tape,
    comb: bool,
}

/// One parallel step: a per-worker assignment of unit ids.
struct Step {
    /// All units of this step, in schedule order (used for the clean-step
    /// dispatch check and the serial fallback).
    units: Vec<u32>,
    /// Unit ids per worker; index 0 is the control thread's shard.
    assign: Vec<Vec<u32>>,
    comb: bool,
}

/// A phase program item: dispatch a parallel step, or run a native block
/// serially on the control thread at its exact schedule position.
enum Item {
    Par(u32),
    Native(u32),
}

/// Sentinel command telling workers to exit.
const EXIT: usize = usize::MAX;

/// Sense-reversing hybrid barrier: spins briefly (only when more than one
/// core is available), then sleeps on a condvar.
struct Barrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    spin: u32,
}

impl Barrier {
    fn new(n: usize) -> Barrier {
        Barrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            // On a single core spinning only delays the thread that must
            // run next; go straight to sleep.
            spin: if available_cores() > 1 { 20_000 } else { 0 },
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            // Bump the generation under the lock so a waiter cannot
            // re-check and sleep across the bump, then wake everyone.
            let guard = self.lock.lock().unwrap();
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
            drop(guard);
            self.cv.notify_all();
            return;
        }
        for _ in 0..self.spin {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap();
        while self.generation.load(Ordering::Acquire) == gen {
            guard = self.cv.wait(guard).unwrap();
        }
    }
}

/// State and schedule shared between the control thread and workers.
struct Shared {
    cur: Vec<Slot>,
    next: Vec<Slot>,
    mems: Vec<Vec<Slot>>,
    /// Per-block tapes (empty for native blocks), shared with every other
    /// engine built from the same artifact; the profiled path runs these
    /// so wall time stays attributable per block.
    block_tapes: Arc<Vec<Tape>>,
    units: Vec<Unit>,
    steps: Vec<Step>,
    /// Dirty flag per unit (meaningful for comb units only). Written by
    /// the control thread between steps and by the owning worker during
    /// a step; the barrier orders the two.
    dirty: Vec<AtomicBool>,
    /// Step index to execute, or [`EXIT`].
    cmd: AtomicUsize,
    barrier: Barrier,
    /// Deferred memory writes, one queue per worker. Each memory has a
    /// single writer block, hence a single queue, so draining in worker
    /// order preserves per-memory write order.
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
    fn cur_ptr(&self) -> *mut u128 {
        // `Slot` is `repr(transparent)` over `UnsafeCell<u128>`, whose
        // layout is that of `u128`, so the element stride matches.
        UnsafeCell::raw_get(self.cur.as_ptr() as *const UnsafeCell<u128>)
    }

    fn next_ptr(&self) -> *mut u128 {
        UnsafeCell::raw_get(self.next.as_ptr() as *const UnsafeCell<u128>)
    }

    /// # Safety
    ///
    /// Callers must hold exclusive access to the simulation state (the
    /// control thread with all workers parked at the barrier).
    #[allow(clippy::mut_from_ref)]
    unsafe fn cur_mut(&self) -> &mut [u128] {
        unsafe { std::slice::from_raw_parts_mut(self.cur_ptr(), self.cur.len()) }
    }

    /// # Safety
    ///
    /// Same contract as [`Shared::cur_mut`].
    #[allow(clippy::mut_from_ref)]
    unsafe fn next_mut(&self) -> &mut [u128] {
        unsafe { std::slice::from_raw_parts_mut(self.next_ptr(), self.next.len()) }
    }

    /// # Safety
    ///
    /// Same contract as [`Shared::cur_mut`].
    #[allow(clippy::mut_from_ref)]
    unsafe fn mem_mut(&self, mem: usize) -> &mut [u128] {
        let col = &self.mems[mem];
        let ptr = UnsafeCell::raw_get(col.as_ptr() as *const UnsafeCell<u128>);
        unsafe { std::slice::from_raw_parts_mut(ptr, col.len()) }
    }
}

/// Executes one unit tape against the shared state.
///
/// # Safety
///
/// The disjointness contract of [`exec_tape_ptr`] must hold: this
/// thread's step assignment must be the only one touching the slots this
/// tape writes (validated at construction).
unsafe fn exec_unit_tape(
    tape: &Tape,
    regs: &mut Vec<u128>,
    shared: &Shared,
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    if regs.len() < tape.nregs as usize {
        regs.resize(tape.nregs as usize, 0);
    }
    unsafe {
        exec_tape_ptr::<false, _>(
            tape,
            regs,
            shared.cur_ptr(),
            shared.next_ptr(),
            shared.mems.as_slice(),
            pending,
            changed,
        )
    }
}

/// Runs worker `w`'s shard of a step. Called by workers and (for shard 0
/// and the serial fallback) by the control thread.
fn run_step(shared: &Shared, step: &Step, w: usize, regs: &mut Vec<u128>, changed: &mut Vec<u32>) {
    let profiling = shared.profiling.load(Ordering::Relaxed);
    let t0 = profiling.then(Instant::now);
    let mut pending = shared.pending[w].lock().unwrap();
    for &u in &step.assign[w] {
        let unit = &shared.units[u as usize];
        if unit.comb && !shared.dirty[u as usize].swap(false, Ordering::Relaxed) {
            continue;
        }
        if profiling {
            shared.pass_blocks.fetch_add(unit.blocks.len() as u64, Ordering::Relaxed);
            for &b in &unit.blocks {
                let bt = Instant::now();
                // SAFETY: shard write sets are pairwise disjoint and not
                // read cross-shard within a step (validated).
                unsafe {
                    exec_unit_tape(
                        &shared.block_tapes[b as usize],
                        regs,
                        shared,
                        &mut pending,
                        changed,
                    )
                };
                shared.block_nanos[b as usize]
                    .fetch_add(bt.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        } else {
            // SAFETY: as above.
            unsafe { exec_unit_tape(&unit.tape, regs, shared, &mut pending, changed) };
        }
    }
    drop(pending);
    if let Some(t0) = t0 {
        shared.worker_nanos[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
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

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// Longest-processing-time assignment of `costs.len()` local items onto
/// `nworkers` shards; returns per-shard local indices in ascending
/// (schedule) order. Deterministic: ties break on the lower index.
fn lpt_assign(costs: &[u64], nworkers: usize) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = (0..costs.len() as u32).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i as usize]), i));
    let mut loads = vec![0u64; nworkers];
    let mut assign: Vec<Vec<u32>> = vec![Vec::new(); nworkers];
    for i in order {
        let mut w = 0;
        for j in 1..loads.len() {
            if loads[j] < loads[w] {
                w = j;
            }
        }
        loads[w] += costs[i as usize].max(1);
        assign[w].push(i);
    }
    for shard in &mut assign {
        shard.sort_unstable();
    }
    assign
}

/// Connected components of the comb writer→reader graph restricted to
/// one run of IR blocks. Returns groups of run-local indices, each in
/// levelized order.
fn comb_components(design: &Design, run: &[u32]) -> Vec<Vec<u32>> {
    let mut writer_of: HashMap<u32, usize> = HashMap::new();
    for (i, &b) in run.iter().enumerate() {
        for &w in &design.blocks()[b as usize].writes {
            writer_of.insert(design.net_of(w).index() as u32, i);
        }
    }
    let mut uf: Vec<usize> = (0..run.len()).collect();
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    for (i, &b) in run.iter().enumerate() {
        for &r in &design.blocks()[b as usize].reads {
            if let Some(&j) = writer_of.get(&(design.net_of(r).index() as u32)) {
                let (ri, rj) = (find(&mut uf, i), find(&mut uf, j));
                uf[ri] = rj;
            }
        }
    }
    let mut groups: HashMap<usize, Vec<u32>> = HashMap::new();
    let mut roots_in_order: Vec<usize> = Vec::new();
    for (i, &b) in run.iter().enumerate() {
        let root = find(&mut uf, i);
        let entry = groups.entry(root).or_default();
        if entry.is_empty() {
            roots_in_order.push(root);
        }
        entry.push(b);
    }
    roots_in_order.into_iter().map(|r| groups.remove(&r).unwrap()).collect()
}

/// Checks that a step's shards are mutually independent: cur-write sets
/// pairwise disjoint and (for comb) never read by another shard; seq
/// shards must not write `cur` at all, and their memory-write targets
/// must be pairwise disjoint. All of this is guaranteed by elaboration
/// (single driver per net, one writer block per memory) plus component
/// closure; the check is defense in depth for the unsafe executor.
fn step_shards_independent(units: &[Unit], step: &Step) -> bool {
    use std::collections::HashSet;
    struct ShardSets {
        cur_writes: HashSet<u32>,
        reads: HashSet<u32>,
        next_writes: HashSet<u32>,
        mem_writes: HashSet<u32>,
    }
    let mut shards: Vec<ShardSets> = Vec::new();
    for assign in &step.assign {
        let mut s = ShardSets {
            cur_writes: HashSet::new(),
            reads: HashSet::new(),
            next_writes: HashSet::new(),
            mem_writes: HashSet::new(),
        };
        for &u in assign {
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
                        if next == step.comb {
                            return false;
                        }
                        let writes = if next { &mut s.next_writes } else { &mut s.cur_writes };
                        writes.insert(slot);
                    }
                    Effect::MemWrite { mem, .. } => {
                        s.mem_writes.insert(mem);
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
                || !shards[i].mem_writes.is_disjoint(&shards[j].mem_writes)
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
    widths: Vec<u32>,
    mem_widths: Vec<u32>,
    natives: Vec<Option<NativeFn>>,
    comb_program: Vec<Item>,
    seq_program: Vec<Item>,
    /// No native comb blocks: component dirty-skipping is exact. With
    /// native comb blocks a logical component can span runs, where tape
    /// writes are not tracked, so every unit is marked dirty each pass.
    pure_comb: bool,
    reg_slots: Vec<u32>,
    /// Comb units reading each net slot (minus the unit that writes it).
    slot_readers: Vec<Vec<u32>>,
    /// The comb unit writing each net slot, if any.
    slot_driver: Vec<Option<u32>>,
    /// Comb units reading each memory.
    mem_readers: Vec<Vec<u32>>,
    /// The comb unit writing each memory, if any (re-runs after
    /// `poke_mem` so the poked word is restored exactly as a full pass
    /// would).
    mem_writer: Vec<Option<u32>>,
    comb_units: Vec<u32>,
    dirty_global: bool,
    cycles: u64,
    regs: Vec<u128>,
    changed: Vec<u32>,
    track_activity: bool,
    activity: Vec<u64>,
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
        let widths = layout.widths.clone();
        let cur = new_slots(widths.len());
        let next = new_slots(widths.len());
        let mems: Vec<Vec<Slot>> =
            design.mems().iter().map(|m| new_slots(m.words as usize)).collect();
        o.wrap += t0.elapsed();

        // Phase: simc (partitioning + schedule + worker pool).
        let t0 = Instant::now();
        let is_ir = |b: u32| matches!(design.blocks()[b as usize].body, BlockBody::Ir(_));
        let pure_comb = layout.comb_order.iter().all(|&b| is_ir(b));
        let comb_items = ir_runs(&design, &layout.comb_order);
        let seq_items = ir_runs(&design, &layout.seq_order);

        // The useful worker count is bounded by the widest run.
        let width_cap = comb_items
            .iter()
            .filter_map(Run::ir)
            .map(|run| comb_components(&design, run).len())
            .chain(seq_items.iter().filter_map(Run::ir).map(|run| run.len()))
            .max()
            .unwrap_or(0);
        let nworkers = threads.max(1).min(width_cap.max(1));

        let mut units: Vec<Unit> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let tape_cost = |blocks: &[u32]| -> u64 {
            blocks.iter().map(|&b| block_tapes[b as usize].ops.len() as u64).sum()
        };
        let mut build_program = |items: Vec<Run>, comb: bool| -> Vec<Item> {
            let mut program = Vec::new();
            for item in items {
                match item {
                    Run::Native(native) => program.push(Item::Native(native)),
                    Run::Ir(run) => {
                        let base = units.len() as u32;
                        let groups: Vec<Vec<u32>> = if comb {
                            comb_components(&design, &run)
                        } else {
                            // Sequential blocks are mutually independent
                            // (shadow-state writers, one writer block per
                            // memory): shard at block granularity.
                            let costs: Vec<u64> = run.iter().map(|&b| tape_cost(&[b])).collect();
                            lpt_assign(&costs, nworkers)
                                .into_iter()
                                .map(|shard| shard.into_iter().map(|i| run[i as usize]).collect())
                                .filter(|g: &Vec<u32>| !g.is_empty())
                                .collect()
                        };
                        for group in &groups {
                            units.push(Unit {
                                tape: fuse_run(blocks, group, &mut report, "fused unit tape"),
                                blocks: group.clone(),
                                comb,
                            });
                        }
                        let unit_ids: Vec<u32> = (base..units.len() as u32).collect();
                        let assign: Vec<Vec<u32>> = if comb {
                            let costs: Vec<u64> = groups.iter().map(|g| tape_cost(g)).collect();
                            lpt_assign(&costs, nworkers)
                                .into_iter()
                                .map(|shard| shard.into_iter().map(|i| base + i).collect())
                                .collect()
                        } else {
                            let mut a: Vec<Vec<u32>> = vec![Vec::new(); nworkers];
                            for (w, &u) in unit_ids.iter().enumerate() {
                                a[w % nworkers].push(u);
                            }
                            a
                        };
                        let mut step = Step { units: unit_ids, assign, comb };
                        if !step_shards_independent(&units, &step) {
                            // Should be unreachable (invariants above);
                            // degrade to serial execution of this step
                            // rather than risk a data race.
                            debug_assert!(false, "partition validation failed");
                            step.assign = vec![Vec::new(); nworkers];
                            step.assign[0] = step.units.clone();
                        }
                        program.push(Item::Par(steps.len() as u32));
                        steps.push(step);
                    }
                }
            }
            program
        };
        let comb_program = build_program(comb_items, true);
        let seq_program = build_program(seq_items, false);

        // Dirty-marking maps over comb units.
        let nslots = widths.len();
        let mut slot_readers: Vec<Vec<u32>> = vec![Vec::new(); nslots];
        let mut slot_driver: Vec<Option<u32>> = vec![None; nslots];
        let mut mem_readers: Vec<Vec<u32>> = vec![Vec::new(); design.mems().len()];
        let mut mem_writer: Vec<Option<u32>> = vec![None; design.mems().len()];
        let mut comb_units: Vec<u32> = Vec::new();
        for (u, unit) in units.iter().enumerate() {
            if !unit.comb {
                continue;
            }
            comb_units.push(u as u32);
            let mut own: Vec<u32> = Vec::new();
            for &b in &unit.blocks {
                for &w in &design.blocks()[b as usize].writes {
                    let slot = design.net_of(w).index();
                    own.push(slot as u32);
                    slot_driver[slot] = Some(u as u32);
                }
            }
            for &b in &unit.blocks {
                let info = &design.blocks()[b as usize];
                for &r in &info.reads {
                    let slot = design.net_of(r).index();
                    if !own.contains(&(slot as u32)) && !slot_readers[slot].contains(&(u as u32)) {
                        slot_readers[slot].push(u as u32);
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

        let regs_len = block_tapes
            .iter()
            .map(|t| t.nregs as usize)
            .chain(units.iter().map(|u| u.tape.nregs as usize))
            .max()
            .unwrap_or(0);
        let ndirty = units.len();
        let nblocks = design.blocks().len();
        let shared = Arc::new(Shared {
            cur,
            next,
            mems,
            block_tapes,
            units,
            steps,
            dirty: (0..ndirty).map(|_| AtomicBool::new(true)).collect(),
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
            widths,
            mem_widths: layout.mem_widths.clone(),
            natives,
            comb_program,
            seq_program,
            pure_comb,
            reg_slots: layout.reg_slots.clone(),
            slot_readers,
            slot_driver,
            mem_readers,
            mem_writer,
            comb_units,
            dirty_global: true,
            cycles: 0,
            regs: vec![0u128; regs_len],
            changed: Vec::new(),
            track_activity: false,
            activity: Vec::new(),
            prof: None,
            opt_report: report,
        }
    }

    fn mark_unit(&self, u: u32) {
        self.shared.dirty[u as usize].store(true, Ordering::Relaxed);
    }

    fn run_parallel_step(&mut self, sidx: u32) {
        let sh = Arc::clone(&self.shared);
        let step = &sh.steps[sidx as usize];
        if step.comb && !step.units.iter().any(|&u| sh.dirty[u as usize].load(Ordering::Relaxed)) {
            return;
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
        let design = Arc::clone(&self.design);
        let mut f = self.natives[b as usize].take().expect("native fn in use");
        self.changed.clear();
        {
            let sh = &self.shared;
            // SAFETY: natives run on the control thread with all workers
            // parked at the barrier.
            let cur = unsafe { sh.cur_mut() };
            let next = unsafe { sh.next_mut() };
            let mut view = PackedView {
                design: &design,
                cur,
                next,
                widths: &self.widths,
                changed: &mut self.changed,
                cycles: self.cycles,
            };
            f(&mut view);
        }
        self.natives[b as usize] = Some(f);
        // Wake combinational readers of whatever the native wrote (this
        // covers sequential natives misusing combinational-style writes;
        // the static engine's unconditional trailing pass absorbs those,
        // the partitioned engine re-runs just the readers).
        for i in 0..self.changed.len() {
            let slot = self.changed[i] as usize;
            for j in 0..self.slot_readers[slot].len() {
                self.mark_unit(self.slot_readers[slot][j]);
            }
        }
        self.changed.clear();
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

    fn comb_phase(&mut self) {
        if !self.pure_comb {
            for i in 0..self.comb_units.len() {
                self.mark_unit(self.comb_units[i]);
            }
        }
        let profiling = self.prof.is_some();
        if profiling {
            self.shared.pass_blocks.store(0, Ordering::Relaxed);
        }
        let program = std::mem::take(&mut self.comb_program);
        for item in &program {
            match item {
                Item::Par(s) => self.run_parallel_step(*s),
                Item::Native(b) => self.run_native(*b),
            }
        }
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
        for item in &program {
            match item {
                Item::Par(s) => self.run_parallel_step(*s),
                Item::Native(b) => self.run_native(*b),
            }
        }
        self.seq_program = program;
        if self.prof.is_some() {
            self.fold_profile();
        }
    }

    fn commit(&mut self) {
        let sh = Arc::clone(&self.shared);
        // SAFETY: workers are parked at the barrier between steps.
        let cur = unsafe { sh.cur_mut() };
        let next = unsafe { sh.next_mut() };
        for &slot in &self.reg_slots {
            let s = slot as usize;
            let (c, n) = (cur[s], next[s]);
            if self.track_activity {
                self.activity[s] += (c ^ n).count_ones() as u64;
            }
            if c != n {
                cur[s] = n;
                for i in 0..self.slot_readers[s].len() {
                    self.mark_unit(self.slot_readers[s][i]);
                }
            }
        }
        let mut touched: Vec<u32> = Vec::new();
        for queue in &sh.pending {
            let mut pending = queue.lock().unwrap();
            for (mem, addr, v) in pending.drain(..) {
                // SAFETY: as above.
                unsafe { sh.mem_mut(mem as usize)[addr as usize] = v };
                if !touched.contains(&mem) {
                    touched.push(mem);
                }
            }
        }
        for m in touched {
            for i in 0..self.mem_readers[m as usize].len() {
                self.mark_unit(self.mem_readers[m as usize][i]);
            }
        }
    }
}

impl EngineImpl for ParTapeEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.opt_report.as_ref()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        let s = slot as usize;
        let val = v.as_u128();
        let sh = Arc::clone(&self.shared);
        // SAFETY: workers are parked at the barrier between steps.
        let cur = unsafe { sh.cur_mut() };
        let next = unsafe { sh.next_mut() };
        if cur[s] != val {
            cur[s] = val;
            next[s] = val;
            self.dirty_global = true;
            for i in 0..self.slot_readers[s].len() {
                self.mark_unit(self.slot_readers[s][i]);
            }
            // Re-run the driving unit too, so a poked driven net is
            // recomputed from its inputs exactly as a full pass would.
            if let Some(u) = self.slot_driver[s] {
                self.mark_unit(u);
            }
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        // SAFETY: reads are only racy during a parallel step; peeks
        // happen between steps.
        let v = unsafe { *self.shared.cur_ptr().add(slot as usize) };
        Bits::new(self.widths[slot as usize], v)
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
            let sh = Arc::clone(&self.shared);
            let mut pending = sh.pending[0].lock().unwrap();
            // SAFETY: workers are parked at the barrier; the control
            // thread has exclusive access to the shared state.
            unsafe {
                exec_unit_tape(
                    &sh.block_tapes[b as usize],
                    &mut self.regs,
                    &sh,
                    &mut pending,
                    &mut self.changed,
                )
            };
        } else {
            self.run_native(b);
        }
    }

    fn force(&mut self, _lane: u32, slot: u32, v: Bits, also_next: bool) {
        let s = slot as usize;
        let sh = Arc::clone(&self.shared);
        // SAFETY: workers are parked at the barrier between steps.
        unsafe {
            sh.cur_mut()[s] = v.as_u128();
            if also_next {
                sh.next_mut()[s] = v.as_u128();
            }
        }
    }

    fn settle_full(&mut self) {
        for i in 0..self.comb_units.len() {
            self.mark_unit(self.comb_units[i]);
        }
        self.comb_phase();
    }

    fn bump_cycles(&mut self) {
        self.cycles += 1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        // SAFETY: between steps (see `peek`).
        let v = unsafe { self.shared.mem_mut(mem)[addr as usize] };
        Bits::new(self.mem_widths[mem], v)
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        let sh = Arc::clone(&self.shared);
        // SAFETY: between steps (see `poke`).
        unsafe { sh.mem_mut(mem)[addr as usize] = v.as_u128() & mask_of(self.mem_widths[mem]) };
        self.dirty_global = true;
        for i in 0..self.mem_readers[mem].len() {
            self.mark_unit(self.mem_readers[mem][i]);
        }
        // The writer re-pends its own write so the next commit restores
        // the memory exactly as the static engine's full pass would.
        if let Some(u) = self.mem_writer[mem] {
            self.mark_unit(u);
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
            let mut stats = EngineStats::new(self.design.blocks().len());
            stats.partition_nanos = vec![0; self.nworkers];
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

    /// Runs the partition guard over a two-shard step, one unit per shard.
    fn independent(comb: bool, shards: [Vec<Op>; 2]) -> bool {
        let units: Vec<Unit> = shards
            .into_iter()
            .map(|ops| Unit {
                blocks: Vec::new(),
                tape: Tape { ops, nregs: 3, ..Tape::default() },
                comb,
            })
            .collect();
        let step = Step { units: vec![0, 1], assign: vec![vec![0], vec![1]], comb };
        step_shards_independent(&units, &step)
    }

    /// The predicated stores if-conversion produces are stores: the guard
    /// `run_step`'s shared-state `unsafe` relies on must see them.
    #[test]
    fn partition_guard_sees_predicated_stores() {
        let read = |slot| Op::Read { dst: 0, slot };
        let write_if = |slot| Op::WriteIf { slot, cond: 0, src: 1, neg: false };
        let next_if = |slot| Op::WriteNextIf { slot, cond: 0, src: 1, neg: true };
        let mem_if = |mem| Op::MemWriteIf { mem, addr: 0, data: 1, cond: 2, words: 4, neg: false };

        assert!(!independent(false, [vec![next_if(3)], vec![next_if(3)]]), "shared next slot");
        assert!(!independent(true, [vec![write_if(3)], vec![read(3)]]), "cross-shard read");
        assert!(!independent(false, [vec![mem_if(0)], vec![mem_if(0)]]), "shared memory");
        assert!(!independent(true, [vec![next_if(3)], vec![]]), "next store in a comb step");

        assert!(independent(false, [vec![next_if(3), mem_if(0)], vec![next_if(4), mem_if(1)]]));
        assert!(independent(true, [vec![read(5), write_if(3)], vec![read(5), write_if(4)]]));
    }
}
