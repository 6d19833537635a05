//! The compile pipeline: `Design` → per-block tapes → fused plans, one
//! staged artifact built here and nowhere else.
//!
//! Every tape engine is an execution strategy over (a prefix of) the same
//! stages:
//!
//! | stage | type | built from | consumers |
//! |---|---|---|---|
//! | blocks | [`BlockTapes`] | the design: per block *shape* (`Design::shapes`), its first instance folded → codegen → optimize → narrow (registers and word class) → validate once, its parameters left unknown, then per block a copy relocated onto its operand lists with its parameter values written in, validated; plus the [`Layout`] tables | `Specialized`, every later stage |
//! | plans | [`Plans`] | blocks: levelized schedule cut into IR runs at native boundaries; per dependency level of a run, [`LANES`] or more instances of one jump-free `u64`-class body become a [`Gang`] (the body once, instances as lanes), everything else is fused and re-optimized between gangs | `SpecializedOpt`, `SpecializedPar`, every lane of `SpecializedBatch` |
//!
//! [`staged`] resolves the stage an engine needs — through the shared
//! [`ArtifactCache`] when there is one, reusing whatever lower stages the
//! cache already holds — and the engine constructors only allocate
//! per-instance state around it. The code generator and the range check
//! every unchecked executor relies on (`codegen`), and the optimizer
//! driver ([`passes`]), are reachable only from this module.

mod codegen;
pub mod passes;

use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtl_bits::Bits;
use mtl_core::{BlockBody, BlockId, BlockKind, Design, SignalId};

use crate::artifact::{ArtifactCache, Guard, Layer, Staged};
use crate::overheads::Overheads;
use crate::tape::{Effect, Op, Param, Reg, Tape};
use codegen::{compile_block, fold_stmts, fuse, narrow, validate, VTape};
use passes::{optimize, OptReport, Refusal};

/// Levelized combinational block order.
pub(crate) fn comb_order(design: &Design) -> Vec<u32> {
    let order = design.comb_schedule().expect("design validated at elaboration");
    order.iter().map(|b| b.index() as u32).collect()
}

/// Sequential blocks in declaration order.
pub(crate) fn seq_order(design: &Design) -> Vec<u32> {
    design.seq_blocks().iter().map(|b| b.index() as u32).collect()
}

/// Net slots holding register state (committed `next → cur` at the edge).
pub(crate) fn reg_slots(design: &Design) -> Vec<u32> {
    let regs = design.nets().iter().enumerate().filter(|(_, n)| n.is_register);
    regs.map(|(i, _)| i as u32).collect()
}

/// The net slots whose change must re-run combinational block `b`: its
/// reads minus the nets it writes itself (statement order inside the
/// block resolves those, exactly as in the static schedule), deduplicated
/// in first-read order.
pub(crate) fn comb_sensitivity(design: &Design, b: u32) -> Vec<u32> {
    let info = &design.blocks()[b as usize];
    let own: Vec<u32> = info.writes.iter().map(|&w| design.net_of(w).index() as u32).collect();
    let mut slots = Vec::new();
    for &r in &info.reads {
        let slot = design.net_of(r).index() as u32;
        if !slots.contains(&slot) && !own.contains(&slot) {
            slots.push(slot);
        }
    }
    slots
}

/// The design-derived tables every tape engine indexes by: net and memory
/// widths (also the optimizer's known-bits facts), the two schedules and
/// the register slots.
pub(crate) struct Layout {
    pub(crate) widths: Vec<u32>,
    pub(crate) mem_widths: Vec<u32>,
    pub(crate) comb_order: Vec<u32>,
    pub(crate) seq_order: Vec<u32>,
    pub(crate) reg_slots: Vec<u32>,
}

#[cfg(test)]
impl Layout {
    /// A layout on plain data, with empty schedules.
    pub(crate) fn plain(widths: &[u32], mem_widths: &[u32], reg_slots: &[u32]) -> Layout {
        Layout {
            widths: widths.to_vec(),
            mem_widths: mem_widths.to_vec(),
            comb_order: Vec::new(),
            seq_order: Vec::new(),
            reg_slots: reg_slots.to_vec(),
        }
    }
}

/// One item of a levelized schedule cut at native boundaries: a run of
/// consecutive IR blocks, or a native block that stays a serial point.
enum Run {
    Ir(Vec<u32>),
    Native(u32),
}

/// Splits a schedule into [`Run`]s.
fn ir_runs(design: &Design, order: &[u32]) -> Vec<Run> {
    let mut runs = Vec::new();
    for &b in order {
        match (&design.blocks()[b as usize].body, runs.last_mut()) {
            (BlockBody::Ir(_), Some(Run::Ir(run))) => run.push(b),
            (BlockBody::Ir(_), _) => runs.push(Run::Ir(vec![b])),
            (BlockBody::Native(..), _) => runs.push(Run::Native(b)),
        }
    }
    runs
}

/// "No such block / body / writer" in the `u32` index tables below.
const NONE: u32 = u32::MAX;

/// What the planner knows about one block of a run: the net slots it reads
/// and writes. Blocks are given in schedule order, which is topological: a
/// slot's writer precedes its readers.
struct BlockIo {
    reads: Vec<u32>,
    writes: Vec<u32>,
}

/// The blocks of `run` as the planner sees them. Sequential blocks read
/// `cur` and write `next`, so no block of a seq run feeds another: they
/// are given no reads.
fn run_io(design: &Design, run: &[u32], kind: BlockKind) -> Vec<BlockIo> {
    let slots_of = |signals: &[SignalId]| -> Vec<u32> {
        signals.iter().map(|&s| design.net_of(s).index() as u32).collect()
    };
    let io = run.iter().map(|&b| {
        let info = &design.blocks()[b as usize];
        let reads = if kind == BlockKind::Comb { &info.reads[..] } else { &[] };
        BlockIo { reads: slots_of(reads), writes: slots_of(&info.writes) }
    });
    io.collect()
}

/// The run-local index of the block writing each slot the run names
/// ([`NONE`]: written outside the run, or not at all).
fn writers(io: &[BlockIo]) -> Vec<u32> {
    let slots = io.iter().flat_map(|b| b.reads.iter().chain(&b.writes));
    let mut writer_of = vec![NONE; slots.max().map_or(0, |&s| s as usize + 1)];
    for (b, block) in io.iter().enumerate() {
        for &w in &block.writes {
            writer_of[w as usize] = b as u32;
        }
    }
    writer_of
}

/// The dependency level of each block of a run: the longest writer→reader
/// path that reaches it from the run's inputs (`writer_of` from
/// [`writers`]). Blocks of one level neither feed nor follow one another,
/// which is what lets [`fuse_plans`] run them as lanes of one [`Gang`].
fn levels(io: &[BlockIo], writer_of: &[u32]) -> Vec<u32> {
    let mut level = vec![0u32; io.len()];
    for (b, block) in io.iter().enumerate() {
        for &r in &block.reads {
            let w = writer_of[r as usize];
            if w != NONE && (w as usize) < b {
                level[b] = level[b].max(level[w as usize] + 1);
            }
        }
    }
    level
}

/// Stage 1: one validated tape per design block (empty for native
/// blocks). Pure data, shared by every tape engine.
pub(crate) struct BlockTapes {
    pub(crate) layout: Layout,
    pub(crate) tapes: Arc<Vec<Tape>>,
    /// The canonical tape of each block shape, indexed by shape id (the
    /// design's shapes are in order of first occurrence): slots and
    /// memories numbered locally, parameters unknown to the optimizer
    /// ([`Tape::params`]), optimized, narrowed and validated against the
    /// body's own tables. `tapes[b]` is `bodies[body_of[b]]` relocated
    /// through `back[b]`, with block `b`'s parameter values in their
    /// `Const`s.
    pub(crate) bodies: Arc<Vec<Tape>>,
    /// Per block, its body: its shape id ([`NONE`] for a native block).
    pub(crate) body_of: Vec<u32>,
    /// Per block, the global slot (`[0]`) and memory (`[1]`) each local
    /// index of its body stands for — its operand lists — indexed like
    /// [`Table`](crate::tape::Table).
    pub(crate) back: Vec<[Vec<u32>; 2]>,
    /// Per-pass statistics of the per-block optimizer runs; `None` when
    /// the optimizer is off. Later stages extend a copy.
    pub(crate) report: Option<OptReport>,
}

#[cfg(test)]
impl BlockTapes {
    /// Hand-built tapes with no body bookkeeping: enough for
    /// [`fuse_run`].
    pub(crate) fn plain(layout: Layout, tapes: Arc<Vec<Tape>>) -> BlockTapes {
        BlockTapes {
            layout,
            tapes,
            bodies: Arc::default(),
            body_of: Vec::new(),
            back: Vec::new(),
            report: None,
        }
    }
}

/// How many instances of a body execute per dispatched op: the lane width
/// of a [`Gang`]. A constant, not a knob — once a dispatch is shared by
/// this many instances it is no longer the bound: 8 and 16 lanes measure
/// the same, 32 no better, and at 64 the register bank leaves the L1 cache
/// (EXPERIMENTS.md, "Execute a body once").
pub(crate) const LANES: usize = 16;

/// Instances of one block body executed as lanes: the body's canonical
/// tape runs once per *lane block* of [`LANES`] members, on registers that
/// hold one value per lane, and reaches each member's state through the
/// tables.
pub(crate) struct Gang {
    /// The shared body, an index into [`BlockTapes::bodies`].
    pub(crate) body: u32,
    /// The member blocks in schedule order, a multiple of [`LANES`] of
    /// them: members `k * LANES..(k + 1) * LANES` are lane block `k`.
    pub(crate) blocks: Vec<u32>,
    /// `[(lane_block * nlocal + local) * LANES + lane]`: the global slot
    /// behind the body's local slot `local` in that member.
    pub(crate) slots: Vec<u32>,
    /// The same for memories.
    pub(crate) mems: Vec<u32>,
    /// `[(lane_block * nparams + k) * LANES + lane]`: that member's value
    /// of the body's parameter `k` (`Tape::params[k]`).
    pub(crate) params: Vec<u64>,
}

/// One lane block of a [`Gang`]: its rows of the gang's tables.
pub(crate) struct LaneBlock<'a> {
    pub(crate) slots: &'a [u32],
    pub(crate) mems: &'a [u32],
    pub(crate) params: &'a [u64],
}

impl Gang {
    /// Per lane block, its rows of `slots`, `mems` and `params`.
    pub(crate) fn lane_blocks(&self) -> impl Iterator<Item = LaneBlock<'_>> {
        let n = self.blocks.len() / LANES;
        let (slots, mems, params) =
            (self.slots.len() / n, self.mems.len() / n, self.params.len() / n);
        (0..n).map(move |k| LaneBlock {
            slots: &self.slots[k * slots..][..slots],
            mems: &self.mems[k * mems..][..mems],
            params: &self.params[k * params..][..params],
        })
    }
}

/// One step of a fused static schedule: a fused run of tape blocks, a
/// gang of instances of one body, or a native block call.
pub(crate) enum Chunk {
    Fused(Tape),
    /// Boxed so that a schedule of native calls — a CL model's — streams
    /// chunks no larger than it did before gangs existed.
    Gang(Box<Gang>),
    Native(u32),
}

/// Stage 2: the fully static schedules of `SpecializedOpt`,
/// `SpecializedPar` and every lane of `SpecializedBatch`.
pub(crate) struct Plans {
    pub(crate) comb: Arc<Vec<Chunk>>,
    pub(crate) seq: Arc<Vec<Chunk>>,
    /// The block-stage report plus the fused tapes' optimizer runs.
    pub(crate) report: Option<OptReport>,
}

/// Resolves the artifact up to stage `need` for `design`: one counted
/// lookup in the shared cache (if any), a build of exactly the missing
/// stages, and a store of what was built. Reused stages charge no time
/// to `o`.
pub(crate) fn staged(
    design: &Design,
    opt: bool,
    need: Layer,
    shared: Option<(&ArtifactCache, u64)>,
    o: &mut Overheads,
) -> Staged {
    let mut build = |have: Staged| Ok::<_, Infallible>(extend(design, opt, need, have, o));
    let built = match shared {
        Some((cache, key)) => cache.get_or_build(key, need, Some(Guard::of(design, opt)), build),
        None => build(Staged::default()),
    };
    built.unwrap_or_else(|never| match never {})
}

/// Builds the stages of `have` that `need` requires and `have` lacks.
fn extend(design: &Design, opt: bool, need: Layer, mut have: Staged, o: &mut Overheads) -> Staged {
    let blocks =
        have.blocks.get_or_insert_with(|| Arc::new(compile_blocks(design, opt, o))).clone();
    if need == Layer::Plans && have.plans.is_none() {
        have.plans = Some(Arc::new(fuse_plans(design, &blocks, o)));
    }
    have
}

fn compile_blocks(design: &Design, opt: bool, o: &mut Overheads) -> BlockTapes {
    // Phase: simc (schedules).
    let t0 = Instant::now();
    let layout = Layout {
        widths: design.nets().iter().map(|n| n.width).collect(),
        mem_widths: design.mems().iter().map(|m| m.width).collect(),
        comb_order: comb_order(design),
        seq_order: seq_order(design),
        reg_slots: reg_slots(design),
    };
    o.simc += t0.elapsed();

    // Phases: comp (IR optimization — constant folding, per shape) and
    // cgen (tape code generation + optimizer pipeline; the register budget
    // applies to the *narrowed* result, i.e. post-reallocation when the
    // optimizer is on).
    let t0 = Instant::now();
    let mut fold = Duration::ZERO;
    let blocks = block_tapes(design, layout, opt, &mut fold);
    o.comp += fold;
    o.cgen += t0.elapsed().saturating_sub(fold);
    blocks
}

/// One tape per block of `design`, each block shape (`Design::shapes`)
/// compiled once: its first instance is folded (charging `fold`),
/// code-generated with its parameters (`Design::shape_params`) as values
/// nothing may fold, renumbered onto its operand lists' local indices and
/// `finish`ed against the widths they stand for; every instance gets that
/// body relocated onto its own operands, its own parameter values written
/// in, and validated against the design, and the report counts the body's
/// optimizer run once per instance. For a shape without parameters the
/// tapes and the counts are exactly those of compiling every block on its
/// own, because a shape fixes everything else the compiler reads of a
/// block and the optimizer touches a state operand only by equality and
/// as an index into the width tables; with parameters, each tape computes
/// what its block's own compilation computes, from the same state.
fn block_tapes(design: &Design, layout: Layout, opt: bool, fold: &mut Duration) -> BlockTapes {
    let global = [&layout.widths[..], &layout.mem_widths[..]];
    // Per shape, its body's optimizer report and how many blocks share it.
    let mut shapes: Vec<(Option<OptReport>, u64)> = Vec::with_capacity(design.shapes().len());
    let mut bodies: Vec<Tape> = Vec::with_capacity(design.shapes().len());
    // Per shape, the `Const`s of its body's parameters: `(op, value index)`.
    let mut sites: Vec<Vec<(usize, u32)>> = Vec::with_capacity(design.shapes().len());
    let mut body_of = Vec::with_capacity(design.blocks().len());
    let mut backs = Vec::with_capacity(design.blocks().len());
    // Per table, the local index of each global one the shape at hand
    // names ([`NONE`] outside its first instance).
    let mut local = global.map(|t| vec![NONE; t.len()]);
    let tapes = design.blocks().iter().enumerate().map(|(i, b)| {
        let block = BlockId::from_index(i);
        let back = design.block_operands(block).map(<[u32]>::to_vec);
        let (Some(shape), BlockBody::Ir(body)) = (design.block_shape(block), &b.body) else {
            body_of.push(NONE);
            backs.push(back);
            return Tape::default();
        };
        if shape.index() == bodies.len() {
            let t0 = Instant::now();
            let (folded, params) = fold_stmts(body.stmts(), design.shape_params(shape));
            *fold += t0.elapsed();
            let mut vt = compile_block(design, body.ids(), &folded, b.kind, &params);
            for (local, back) in local.iter_mut().zip(&back) {
                back.iter().enumerate().for_each(|(l, &g)| local[g as usize] = l as u32);
            }
            // The shape walk names state in emission order, so the local
            // indices first occur as 0, 1, 2, … (the canonical numbering
            // of a body), which debug builds check.
            let mut named = [0; 2];
            for op in &mut vt.ops {
                *op = op.map_state(&mut |t, g| {
                    let (l, n) = (local[t as usize][g as usize], &mut named[t as usize]);
                    debug_assert!(l <= *n, "shape operands out of emission order");
                    *n += u32::from(l == *n);
                    l
                });
            }
            debug_assert_eq!(named.map(|n| n as usize), back.each_ref().map(Vec::len));
            for (local, back) in local.iter_mut().zip(&back) {
                back.iter().for_each(|&g| local[g as usize] = NONE);
            }
            let [slots, mems] =
                [0, 1].map(|t| back[t].iter().map(|&g| global[t][g as usize]).collect::<Vec<_>>());
            let mut report = opt.then(OptReport::new);
            let body = finish(vt, &slots, &mems, &mut report, || {
                let kind = match b.kind {
                    BlockKind::Comb => "comb",
                    BlockKind::Seq => "seq",
                };
                format!("{kind} block `{}`", design.block_path(block))
            });
            sites.push(param_sites(&body));
            bodies.push(body);
            shapes.push((report, 0));
        }
        shapes[shape.index()].1 += 1;
        let values = design.block_params(block);
        let mut tape = instance(&bodies[shape.index()], &sites[shape.index()], &back, values);
        validate(&mut tape, global[0].len(), global[1].len());
        body_of.push(shape.index() as u32);
        backs.push(back);
        tape
    });
    let tapes = Arc::new(tapes.collect());
    let report = opt.then(|| {
        let mut report = OptReport { bodies: shapes.len() as u64, ..OptReport::new() };
        for (body, n) in shapes.iter().filter_map(|(r, n)| Some((r.as_ref()?, *n))) {
            report.absorb(body, n);
        }
        report
    });
    BlockTapes { layout, tapes, bodies: Arc::new(bodies), body_of, back: backs, report }
}

/// `ops` with every local state operand replaced by the global index
/// `back` holds for it.
fn relocate<W: Copy>(ops: &[Op<Reg, W>], back: &[Vec<u32>; 2]) -> Vec<Op<Reg, W>> {
    ops.iter().map(|op| op.map_state(&mut |t, l| back[t as usize][l as usize])).collect()
}

/// Where a body loads its parameters: per parameter, the position of the
/// one `Const` that defines its register (`validate` checked there is
/// one) and the index of the block value it stands for.
fn param_sites(body: &Tape) -> Vec<(usize, u32)> {
    let site = |p: &Param| {
        let at =
            body.ops.iter().position(|op| matches!(op, Op::Const { dst, .. } if *dst == p.reg));
        (at.expect("validated: a parameter's `Const`"), p.index)
    };
    body.params.iter().map(site).collect()
}

/// A block's tape: `body` relocated through `back`, with the block's
/// parameter values (`Design::block_params`) written into the `Const`s at
/// the body's parameter `sites`.
fn instance(body: &Tape, sites: &[(usize, u32)], back: &[Vec<u32>; 2], values: &[Bits]) -> Tape {
    let Tape { ops, nregs, prelude, narrow, .. } = body;
    let mut tape = Tape {
        ops: relocate(ops, back),
        nregs: *nregs,
        prelude: *prelude,
        narrow: narrow.as_ref().map(|ops| relocate(ops, back)),
        ..Tape::default()
    };
    for &(at, index) in sites {
        let value = values[index as usize].as_u128();
        let Op::Const { val, .. } = &mut tape.ops[at] else { unreachable!("a site is a Const") };
        *val = value;
        if let Some(Op::Const { val, .. }) = tape.narrow.as_mut().map(|ops| &mut ops[at]) {
            // A narrow body's parameters are at most 64 bits wide.
            *val = u64::try_from(value).expect("a u64-class parameter");
        }
    }
    tape
}

/// The back half of every tape's compilation: optimize (when `report` is
/// `Some`), narrow to physical registers and a word class, and range-check
/// — once, so the executors' unchecked accesses are sound. `context` names
/// the tape if it exceeds the register budget.
fn finish(
    mut vt: VTape,
    widths: &[u32],
    mem_widths: &[u32],
    report: &mut Option<OptReport>,
    context: impl Fn() -> String,
) -> Tape {
    if let Some(rep) = report.as_mut() {
        optimize(&mut vt, widths, mem_widths, rep);
    }
    let mut tape = narrow(&vt, widths, mem_widths, context);
    validate(&mut tape, widths.len(), mem_widths.len());
    if let (Some(rep), Some(ops)) = (report.as_mut(), &tape.narrow) {
        rep.narrow_tapes += 1;
        rep.narrow_ops += ops.len() as u64;
    }
    tape
}

/// Fuses the tapes of `run` into one validated tape. With the optimizer
/// on (`report` is `Some`) the fused tape is re-optimized, which picks up
/// the cross-block wins (CSE/forwarding across block boundaries) the
/// per-block pipeline cannot see. `label` names the tape if it exceeds
/// the register budget.
pub(crate) fn fuse_run(
    blocks: &BlockTapes,
    run: &[u32],
    report: &mut Option<OptReport>,
    label: &str,
) -> Tape {
    let parts: Vec<&Tape> = run.iter().map(|&b| &blocks.tapes[b as usize]).collect();
    let layout = &blocks.layout;
    finish(fuse(&parts), &layout.widths, &layout.mem_widths, report, || label.to_string())
}

/// Builds the static schedules of the plan stage (charged to simc: it
/// is schedule construction): native blocks stay serial points, and every
/// run of IR blocks between them is planned by [`plan_run`].
fn fuse_plans(design: &Design, blocks: &BlockTapes, o: &mut Overheads) -> Plans {
    let t0 = Instant::now();
    let mut report = blocks.report.clone();
    let mut plan = |order: &[u32], kind: BlockKind, label: &str| -> Arc<Vec<Chunk>> {
        let mut chunks = Vec::new();
        for run in ir_runs(design, order) {
            match run {
                Run::Ir(run) => {
                    let io = run_io(design, &run, kind);
                    plan_run(blocks, &run, &io, &mut report, label, &mut chunks);
                }
                Run::Native(b) => chunks.push(Chunk::Native(b)),
            }
        }
        Arc::new(chunks)
    };
    let comb = plan(&blocks.layout.comb_order, BlockKind::Comb, "fused comb schedule");
    let seq = plan(&blocks.layout.seq_order, BlockKind::Seq, "fused seq schedule");
    o.simc += t0.elapsed();
    Plans { comb, seq, report }
}

/// Plans one run of IR blocks (`io` describes them, in `run`'s order),
/// appending its chunks. The run is walked by dependency level
/// ([`levels`]); within a level the blocks are grouped by body, groups in
/// order of first occurrence. A group the admission rule takes
/// ([`admit`]) becomes a [`Chunk::Gang`]; the tail it leaves and every
/// other block are *residual*: they collect, level by level, in an open run
/// that the next gang closes and [`fuse_run`] fuses, in schedule order. A
/// level's residual joins the open run after the level's gangs — blocks of
/// one level are independent, so either side is right, and this side closes
/// the open run once per level. When a gang runs, every block of a lower
/// level has been emitted, so every chunk sees its inputs settled; and a
/// run that forms no gang is one whole-run `fuse_run`, the plan it always
/// was.
fn plan_run(
    blocks: &BlockTapes,
    run: &[u32],
    io: &[BlockIo],
    report: &mut Option<OptReport>,
    label: &str,
    chunks: &mut Vec<Chunk>,
) {
    let level = levels(io, &writers(io));
    // Blocks are run-local indices from here on: ascending is schedule order.
    let mut by_level = vec![Vec::new(); level.iter().max().map_or(0, |&l| l as usize + 1)];
    for (i, &l) in level.iter().enumerate() {
        by_level[l as usize].push(i as u32);
    }
    let ids = |members: &[u32]| -> Vec<u32> { members.iter().map(|&i| run[i as usize]).collect() };
    // Block-stage ops a cycle executes for `members` (preludes run once).
    let executed = |members: &[u32]| -> u64 {
        let tapes = members.iter().map(|&i| &blocks.tapes[run[i as usize] as usize]);
        tapes.map(|t| t.ops.len() as u64 - t.prelude as u64).sum()
    };
    let body_of = |i: u32| blocks.body_of[run[i as usize] as usize];
    // The residual blocks since the last gang.
    let mut open: Vec<u32> = Vec::new();
    let close = |open: &mut Vec<u32>, report: &mut Option<OptReport>, chunks: &mut Vec<Chunk>| {
        if !open.is_empty() {
            open.sort_unstable();
            chunks.push(Chunk::Fused(fuse_run(blocks, &ids(open), report, label)));
            open.clear();
        }
    };
    // Per body, its group in the level at hand.
    let mut group_of = vec![NONE; blocks.bodies.len()];
    for members in by_level {
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for i in members {
            let group = &mut group_of[body_of(i) as usize];
            if *group == NONE {
                *group = groups.len() as u32;
                groups.push(Vec::new());
            }
            groups[*group as usize].push(i);
        }
        let mut residual: Vec<u32> = Vec::new();
        for group in groups {
            let body = body_of(group[0]);
            group_of[body as usize] = NONE;
            let mut refuse = |why: Refusal, members: &[u32], report: &mut Option<OptReport>| {
                if let Some(rep) = report {
                    rep.refused[why as usize].1 += executed(members);
                }
                residual.extend(members);
            };
            let (lanes, tail) = match admit(&blocks.bodies[body as usize], group.len()) {
                Ok(taken) => group.split_at(taken),
                Err(why) => {
                    refuse(why, &group, report);
                    continue;
                }
            };
            refuse(Refusal::Tail, tail, report);
            let gang = gang_of(blocks, body, ids(lanes));
            if !lanes_independent(blocks, &gang) {
                // Unreachable by the invariants the guard names; degrade
                // to the fused path rather than run lanes that may alias.
                debug_assert!(false, "gang validation failed");
                refuse(Refusal::Guard, lanes, report);
                continue;
            }
            if let Some(rep) = report {
                rep.gangs += 1;
                rep.gang_lanes += lanes.len() as u64;
                rep.gang_ops += executed(lanes);
            }
            close(&mut open, report, chunks);
            chunks.push(Chunk::Gang(Box::new(gang)));
        }
        open.append(&mut residual);
    }
    close(&mut open, report, chunks);
}

/// The admission rule: of `n` same-level instances of `body`, how many run
/// as a gang — whole lane blocks, if the lane executor can run the body at
/// all (`u64` registers, no control flow) — or why none does. Decided by
/// what the plan stage observes in its input, nothing else.
fn admit(body: &Tape, n: usize) -> Result<usize, Refusal> {
    if n < LANES {
        Err(Refusal::Few)
    } else if body.has_jumps() {
        Err(Refusal::Jumps)
    } else if body.narrow.is_none() {
        Err(Refusal::Wide)
    } else {
        Ok(n - n % LANES)
    }
}

/// The gang of `members` (instances of `body`, a multiple of [`LANES`]),
/// its tables laid out from the members' `back` tables and, for the
/// parameters, from the `Const`s of the members' own tapes.
fn gang_of(blocks: &BlockTapes, body: u32, members: Vec<u32>) -> Gang {
    let table = |t: usize| {
        let nlocal = blocks.back[members[0] as usize][t].len();
        lane_rows(&members, nlocal, |b, local| blocks.back[b as usize][t][local])
    };
    let sites = param_sites(&blocks.bodies[body as usize]);
    let params =
        lane_rows(&members, sites.len(), |b, k| match blocks.tapes[b as usize].ops[sites[k].0] {
            Op::Const { val, .. } => val as u64,
            _ => unreachable!("an instance has its body's `Const`s"),
        });
    Gang { body, slots: table(0), mems: table(1), params, blocks: members }
}

/// `entry(member, local)` for every member and local index, laid out like
/// a [`Gang`]'s tables: `[(lane_block * nlocal + local) * LANES + lane]`.
fn lane_rows<T>(members: &[u32], nlocal: usize, entry: impl Fn(u32, usize) -> T) -> Vec<T> {
    let mut rows = Vec::with_capacity(members.len() * nlocal);
    for lane_block in members.chunks_exact(LANES) {
        for local in 0..nlocal {
            rows.extend(lane_block.iter().map(|&b| entry(b, local)));
        }
    }
    rows
}

/// Checks that a gang's lanes are independent and its tables true, from
/// the members' own tapes — each `validate`d against the design. Strict
/// elaboration gives every net one writer block and the level rule puts a
/// reader after its writer, so this holds by construction; it is
/// re-checked because the lane executor interleaves the members op by op,
/// and because a pooled engine runs the lane blocks of a gang on different
/// threads ([`crate::state`]'s sharing protocol rests on the last point):
///
/// * the body is one the lane executor runs (`u64` class, no jumps), the
///   members fill whole lane blocks, and every member *is* that body;
/// * every table entry is in range and is exactly the slot or memory the
///   member's relocated tape names at that op, so the lanes touch the
///   state `validate` saw and nothing else;
/// * every parameter is loaded in the body's prelude — which the lane
///   executor skips, installing the table's values instead — and each
///   member's value in the table is the one its relocated tape loads;
/// * no lane reads or writes a slot, and none writes a memory, that
///   another lane writes.
fn lanes_independent(blocks: &BlockTapes, gang: &Gang) -> bool {
    let (nslots, nmems) = (blocks.layout.widths.len(), blocks.layout.mem_widths.len());
    let n = gang.blocks.len();
    let Some(body) = blocks.bodies.get(gang.body as usize) else { return false };
    let runnable = body.narrow.is_some() && !body.has_jumps();
    let in_range = gang.slots.iter().all(|&s| (s as usize) < nslots)
        && gang.mems.iter().all(|&m| (m as usize) < nmems);
    if !(runnable && in_range && n > 0 && n.is_multiple_of(LANES)) {
        return false;
    }
    // `table`'s entry for index `local` of member `i`.
    fn entry<T: Copy>(table: &[T], n: usize, i: usize, local: u32) -> Option<T> {
        let nlocal = table.len() / n;
        let row = (i / LANES * nlocal + local as usize) * LANES;
        ((local as usize) < nlocal).then(|| table[row + i % LANES])
    }
    let sites = param_sites(body);
    let preluded = sites.iter().all(|&(at, _)| at < body.prelude as usize);
    if !(preluded && gang.params.len() == n * sites.len()) {
        return false;
    }
    // The member storing to each `cur` slot (`2 * slot`), `next` slot
    // (`2 * slot + 1`) and memory.
    let mut slot_writer = vec![NONE; 2 * nslots];
    let mut mem_writer = vec![NONE; nmems];
    for (i, &b) in gang.blocks.iter().enumerate() {
        let tape = match blocks.tapes.get(b as usize) {
            Some(tape) if blocks.body_of.get(b as usize) == Some(&gang.body) => tape,
            _ => return false,
        };
        if tape.ops.len() != body.ops.len() {
            return false;
        }
        for (op, local) in tape.ops.iter().zip(&body.ops) {
            let (named, writer) = match op.effect() {
                Effect::Pure | Effect::Jump { .. } => continue,
                Effect::Read { slot } => (slot, None),
                Effect::Write { slot, next, .. } => {
                    (slot, Some(&mut slot_writer[2 * slot as usize + next as usize]))
                }
                Effect::MemRead { mem, .. } => (mem, None),
                Effect::MemWrite { mem, .. } => (mem, Some(&mut mem_writer[mem as usize])),
            };
            let tabled = match local.effect() {
                Effect::Read { slot } | Effect::Write { slot, .. } => {
                    entry(&gang.slots, n, i, slot)
                }
                Effect::MemRead { mem, .. } | Effect::MemWrite { mem, .. } => {
                    entry(&gang.mems, n, i, mem)
                }
                Effect::Pure | Effect::Jump { .. } => None,
            };
            if tabled != Some(named) {
                return false;
            }
            if let Some(writer) = writer {
                if *writer != NONE && *writer != i as u32 {
                    return false;
                }
                *writer = i as u32;
            }
        }
        for (k, (&(at, _), p)) in sites.iter().zip(&body.params).enumerate() {
            let tabled = entry(&gang.params, n, i, k as u32).map(u128::from);
            match tape.ops[at] {
                Op::Const { dst, val } if dst == p.reg && Some(val) == tabled => {}
                _ => return false,
            }
        }
    }
    gang.blocks.iter().enumerate().all(|(i, &b)| {
        blocks.tapes[b as usize].ops.iter().all(|op| match op.effect() {
            Effect::Read { slot } => [NONE, i as u32].contains(&slot_writer[2 * slot as usize]),
            _ => true,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b as bits;
    use mtl_core::{elaborate, Component, Ctx, Expr, SignalRef};

    /// The compile path before the memo — every block `finish`ed on its
    /// own against the design's tables, every literal a constant — kept
    /// as the oracle [`block_tapes`] must reproduce.
    fn direct_block_tapes(
        design: &Design,
        widths: &[u32],
        mem_widths: &[u32],
        opt: bool,
    ) -> (Vec<Tape>, Option<OptReport>) {
        let mut report = opt.then(OptReport::new);
        let tapes = design.blocks().iter().map(|b| match &b.body {
            BlockBody::Ir(body) => {
                let folded = fold_stmts(body.stmts(), &[]).0;
                let vt = compile_block(design, body.ids(), &folded, b.kind, &[]);
                finish(vt, widths, mem_widths, &mut report, || "oracle".into())
            }
            BlockBody::Native(..) => Tape::default(),
        });
        (tapes.collect(), report)
    }

    /// Compiles `top`'s blocks through the memo and through the oracle,
    /// optimizer off and on, and asserts that every tape is its body
    /// relocated through its `back` tables with its parameter values
    /// written in, and that it agrees with the oracle's: field for field
    /// for a shape without parameters (and then the whole report agrees
    /// too, if no shape has any), and for a parameterised shape in what it
    /// does — equal writes from equal random states. Returns the tapes with
    /// the number of distinct bodies.
    fn memo_equals_direct(top: &dyn Component) -> (Vec<Tape>, u64) {
        let design = elaborate(top).expect("test design elaborates");
        let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
        let mem_widths: Vec<u32> = design.mems().iter().map(|m| m.width).collect();
        let fields = |t: &Tape| (t.ops.clone(), t.nregs, t.prelude, t.narrow.clone(), t.defs_first);
        let parameterised = |i: usize| {
            let shape = design.block_shape(BlockId::from_index(i));
            shape.is_some_and(|s| design.shapes()[s.index()].params > 0)
        };
        let mut last = None;
        for opt in [false, true] {
            let (want, want_rep) = direct_block_tapes(&design, &widths, &mem_widths, opt);
            let layout = Layout::plain(&widths, &mem_widths, &[]);
            let got = block_tapes(&design, layout, opt, &mut Duration::default());
            assert_eq!(got.tapes.len(), want.len());
            for (i, (g, w)) in got.tapes.iter().zip(&want).enumerate() {
                if parameterised(i) {
                    same_writes(g, w, &design, &format!("opt={opt}: tape of block {i}"));
                } else {
                    assert_eq!(fields(g), fields(w), "opt={opt}: tape of block {i}");
                }
                assert!(g.params.is_empty(), "opt={opt}: block {i} runs its own values");
                let body = &got.bodies[got.body_of[i] as usize];
                let values = design.block_params(BlockId::from_index(i));
                let relocated = instance(body, &param_sites(body), &got.back[i], values);
                assert_eq!(g.ops, relocated.ops, "opt={opt}: body of {i}");
            }
            // A body is compiled — folded, code-generated, finished — for
            // a shape's first instance and never again.
            let bodies = got.bodies.len() as u64;
            assert_eq!(bodies, design.shapes().len() as u64, "opt={opt}: one body per shape");
            let shape_of = |i| design.block_shape(BlockId::from_index(i)).map(|s| s.index() as u32);
            assert!((0..want.len()).all(|i| shape_of(i).unwrap_or(NONE) == got.body_of[i]));
            assert_eq!(got.report.as_ref().map_or(bodies, |r| r.bodies), bodies);
            if !(0..want.len()).any(parameterised) {
                assert_eq!(got.report, want_rep.map(|r| OptReport { bodies, ..r }), "opt={opt}");
            }
            last = Some((got.tapes.to_vec(), bodies));
        }
        last.expect("two rounds")
    }

    /// Runs tapes `a` and `b` from the same random states of `design` —
    /// every net's `cur` and `next`, every memory word — and asserts that
    /// they leave the same state behind and queue the same memory writes.
    fn same_writes(a: &Tape, b: &Tape, design: &Design, what: &str) {
        use crate::state::PackedState;
        use crate::tape::{mask_of, rnd128};

        let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
        let mems: Vec<(u32, u64)> = design.mems().iter().map(|m| (m.width, m.words)).collect();
        let mut seed = 0x5eed;
        for _ in 0..64 {
            let mut random = |w: u32| rnd128(&mut seed) & mask_of(w);
            let cur: Vec<u128> = widths.iter().map(|&w| random(w)).collect();
            let next: Vec<u128> = widths.iter().map(|&w| random(w)).collect();
            let words: Vec<Vec<u128>> =
                mems.iter().map(|&(w, n)| (0..n).map(|_| random(w)).collect()).collect();
            let run = |t: &Tape| {
                let mut state = PackedState::from_widths(&widths, &mems, &[]);
                state.fill(&cur, &next);
                let mut st = state.exclusive();
                for (m, words) in words.iter().enumerate() {
                    for (addr, &v) in words.iter().enumerate() {
                        st.poke_mem(m, addr as u64, mtl_bits::Bits::new(mems[m].0, v));
                    }
                }
                let (mut regs, mut pending) = (vec![0; t.nregs as usize], Vec::new());
                st.exec::<false>(t, 0, &mut regs, &mut pending, &mut Vec::new());
                (state.dump(), pending)
            };
            assert_eq!(run(a), run(b), "{what}");
        }
    }

    /// A component with every kind of state operand: slot reads, full and
    /// field writes, a memory read and a memory write, under control flow;
    /// and a literal `k` in the field write.
    struct Cell {
        width: u32,
        k: u128,
    }

    impl Component for Cell {
        fn name(&self) -> String {
            format!("Cell_{}_{}", self.width, self.k)
        }

        fn build(&self, c: &mut Ctx) {
            let w = self.width;
            let a = c.in_port("a", w);
            let sel = c.in_port("sel", 2);
            let q = c.out_port("q", w);
            let acc = c.wire("acc", w);
            let m = c.mem("m", 4, w);
            c.comb("calc", |b| {
                b.assign(q, acc ^ m.read(sel));
                b.if_(sel.bit(0), |b| b.assign_slice(q, 0, 4, a.slice(0, 4) + Expr::k(4, self.k)));
            });
            c.seq("step", |b| {
                b.switch(sel, |sw| {
                    sw.case(bits(2, 0), |b| b.assign(acc, a + acc));
                    sw.case(bits(2, 1), |b| b.mem_write(m, sel, a));
                    sw.default(|b| b.assign(acc, a));
                });
            });
        }
    }

    /// A chain of `Cell`s per width, `k = 3` in each, or `i % 16` in the
    /// `i`th where the spec says the literal varies.
    struct Chain(Vec<(u32, usize, bool)>);

    impl Component for Chain {
        fn name(&self) -> String {
            "Chain".into()
        }

        fn build(&self, c: &mut Ctx) {
            let sel = c.in_port("sel", 2);
            for &(w, n, varies) in &self.0 {
                let mut prev = c.in_port(&format!("a{w}"), w);
                for i in 0..n {
                    let k = if varies { i as u128 % 16 } else { 3 };
                    let cell = c.instantiate(&format!("cell{w}_{i}"), &Cell { width: w, k });
                    c.connect(prev, c.port_of(&cell, "a"));
                    c.connect(sel, c.port_of(&cell, "sel"));
                    prev = c.port_of(&cell, "q");
                }
                let out = c.out_port(&format!("q{w}"), w);
                c.connect(prev, out);
            }
        }
    }

    /// Ten instances of one component compile as one body per block, and
    /// the relocated tapes and the report are those of compiling each
    /// instance directly — in both word classes. Instances that differ in
    /// a literal compile as the same bodies, and each tape does what its
    /// instance's own compilation does.
    #[test]
    fn memoised_tapes_and_report_equal_directly_compiled_ones() {
        for varies in [false, true] {
            let (tapes, bodies) =
                memo_equals_direct(&Chain(vec![(8, 10, varies), (72, 9, varies)]));
            assert_eq!(tapes.len(), 2 * 19);
            assert_eq!(bodies, 4, "calc and step, narrow and wide");
            let narrow = tapes.iter().filter(|t| t.narrow.is_some()).count();
            assert_eq!(narrow, 2 * 10, "the 72-bit cells run the wide class");
        }
    }

    /// The register argument `fuse` and the batch lanes' rejoin rest on is
    /// a property of the compiler, and `validate` checks it: every tape
    /// the stages hand out — block tapes, bodies, fused and gang chunks —
    /// is `defs_first` exactly when it is jump-free, optimizer on or off.
    #[test]
    fn every_jump_free_tape_defines_its_registers_before_use() {
        let chain =
            elaborate(&Chain(vec![(8, 10, true), (72, 9, false)])).expect("test design elaborates");
        let sum = elaborate(&Sum).expect("test design elaborates");
        let mut seen = [0; 2];
        for (design, opt) in [(&chain, false), (&chain, true), (&sum, false), (&sum, true)] {
            let staged = staged(design, opt, Layer::Plans, None, &mut Overheads::default());
            let (blocks, plans) = (staged.blocks.unwrap(), staged.plans.unwrap());
            let chunks = plans.comb.iter().chain(plans.seq.iter());
            let chunk_tapes = chunks.filter_map(|c| match c {
                Chunk::Fused(t) => Some(t),
                Chunk::Gang(g) => Some(&blocks.bodies[g.body as usize]),
                Chunk::Native(_) => None,
            });
            let tapes: Vec<&Tape> =
                blocks.tapes.iter().chain(blocks.bodies.iter()).chain(chunk_tapes).collect();
            for t in tapes {
                assert_eq!(t.defs_first, !t.has_jumps(), "opt={opt}: {:?}", t.ops);
                seen[usize::from(t.defs_first)] += 1;
            }
        }
        assert!(seen[0] > 0 && seen[1] > 0, "both kinds of tape occur: {seen:?}");
    }

    /// `q = a + b` and a pass-through, whose raw ops carry no width.
    struct Sum;

    impl Component for Sum {
        fn name(&self) -> String {
            "Sum".into()
        }

        fn build(&self, c: &mut Ctx) {
            let (a, b) = (c.in_port("a", 8), c.in_port("b", 8));
            let q = c.out_port("q", 8);
            c.comb("calc", |blk| blk.assign(q, a + b));
        }
    }

    struct Pass(u32);

    impl Component for Pass {
        fn name(&self) -> String {
            format!("Pass_{}", self.0)
        }

        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", self.0);
            let q = c.out_port("q", self.0);
            c.comb("calc", |b| b.assign(q, a));
        }
    }

    /// `q = zext(m[a], 32)`: `Zext` emits no op, so the memory's width
    /// shows in no operand, its depth only in `words`.
    struct Rom {
        words: u64,
        width: u32,
    }

    impl Component for Rom {
        fn name(&self) -> String {
            format!("Rom_{}x{}", self.words, self.width)
        }

        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 3);
            let q = c.out_port("q", 32);
            let m = c.mem("m", self.words, self.width);
            c.comb("calc", |b| b.assign(q, m.read(a).zext(32)));
        }
    }

    /// Wires each child's input ports, in declaration order, to the top
    /// inputs named.
    struct Wired(Vec<(Box<dyn Component>, Vec<&'static str>)>);

    impl Component for Wired {
        fn name(&self) -> String {
            "Wired".into()
        }

        fn build(&self, c: &mut Ctx) {
            let mut tops: Vec<(&str, SignalRef)> = Vec::new();
            for (i, (child, inputs)) in self.0.iter().enumerate() {
                let inst = c.instantiate(&format!("u{i}"), child.as_ref());
                for (&top, port) in inputs.iter().zip(["a", "b"]) {
                    let port = c.port_of(&inst, port);
                    let known = tops.iter().find(|(name, _)| *name == top).map(|&(_, s)| s);
                    let src = known.unwrap_or_else(|| {
                        let s = c.in_port(top, port.width());
                        tops.push((top, s));
                        s
                    });
                    c.connect(src, port);
                }
                let q = c.port_of(&inst, "q");
                let out = c.out_port(&format!("q{i}"), q.width());
                c.connect(q, out);
            }
        }
    }

    /// Everything `finish` reads is in the key: a slot's width (here also
    /// its word class), which operands alias one net, and a memory's width
    /// and depth each make a distinct body — while a different wiring of
    /// the same shape does not.
    #[test]
    fn the_body_key_discriminates_widths_aliasing_and_memories() {
        let sum = || Box::new(Sum) as Box<dyn Component>;
        let (tapes, bodies) = memo_equals_direct(&Wired(vec![
            (sum(), vec!["x", "x"]),
            (sum(), vec!["x", "y"]),
            (sum(), vec!["y", "x"]),
        ]));
        assert_eq!(bodies, 2, "two reads of one net are not two reads of two nets");
        assert_ne!(tapes[1].ops, tapes[2].ops, "one body, relocated onto swapped nets");

        let (tapes, bodies) = memo_equals_direct(&Wired(vec![
            (Box::new(Pass(8)), vec!["x"]),
            (Box::new(Pass(72)), vec!["w"]),
            (Box::new(Pass(8)), vec!["y"]),
        ]));
        assert_eq!(bodies, 2, "same raw ops over an 8-bit and a 72-bit slot");
        let classes: Vec<bool> = tapes.iter().map(|t| t.narrow.is_some()).collect();
        assert_eq!(classes, [true, false, true]);

        let rom = |words, width| Box::new(Rom { words, width }) as Box<dyn Component>;
        let (_, bodies) = memo_equals_direct(&Wired(vec![
            (rom(4, 8), vec!["at"]),
            (rom(4, 16), vec!["at"]),
            (rom(8, 8), vec!["at"]),
            (rom(4, 8), vec!["at"]),
        ]));
        assert_eq!(bodies, 3, "memory width and depth each split the body");
    }

    /// `q = a + k` for a constant expression `k`.
    struct AddK(Expr);

    impl Component for AddK {
        fn name(&self) -> String {
            format!("AddK_{:?}", self.0)
        }

        fn build(&self, c: &mut Ctx) {
            let (a, q) = (c.in_port("a", 8), c.out_port("q", 8));
            c.comb("calc", |b| b.assign(q, a + self.0.clone()));
        }
    }

    /// Shapes are keyed on the IR as written, before constant folding:
    /// `a + (1 + 1)` and `a + 2` fold to one tape but are two shapes, so
    /// two bodies, each compiled once though either would serve both. The
    /// tapes are still those of compiling each block directly.
    #[test]
    fn a_folded_constant_splits_the_shape_not_the_tape() {
        let add = |k| Box::new(AddK(k)) as Box<dyn Component>;
        let top = Wired(vec![
            (add(Expr::k(8, 1) + Expr::k(8, 1)), vec!["x"]),
            (add(Expr::k(8, 2)), vec!["x"]),
        ]);
        let (tapes, bodies) = memo_equals_direct(&top);
        assert_eq!(bodies, 2, "one shape per spelling of the constant");
        let design = elaborate(&top).expect("test design elaborates");
        let blocks = compile_blocks(&design, true, &mut Overheads::default());
        assert_eq!(blocks.bodies[0].ops, blocks.bodies[1].ops, "one folded body, twice");
        assert_eq!(tapes[0].ops[..2], tapes[1].ops[..2], "the same read of `x`");
    }

    /// A jump-free component with every unpredicated kind of state
    /// operand, so its two blocks are gang material with the optimizer on
    /// and off; its literal `k` is a parameter where taps differ in it.
    struct Tap(u128);

    impl Component for Tap {
        fn name(&self) -> String {
            format!("Tap_{}", self.0)
        }

        fn build(&self, c: &mut Ctx) {
            let (a, sel) = (c.in_port("a", 8), c.in_port("sel", 2));
            let q = c.out_port("q", 8);
            let acc = c.wire("acc", 8);
            let m = c.mem("m", 4, 8);
            c.comb("calc", |b| {
                b.assign(q, acc ^ m.read(sel));
                b.assign_slice(q, 0, 4, a.slice(0, 4) + Expr::k(4, self.0));
            });
            c.seq("step", |b| {
                b.assign(acc, a + acc);
                b.mem_write(m, sel, a);
            });
        }
    }

    /// `n` taps side by side between two single blocks: `bump` feeds every
    /// tap's `sel`, `fold` reads every tap's `q`, so the comb run has three
    /// levels with all `calc` blocks on the middle one. Every tap has its
    /// own `a` input: the lanes compute different values — and, where the
    /// row says so, its own literal (`i % 16` for tap `i`; 3 otherwise).
    struct Row(usize, bool);

    impl Component for Row {
        fn name(&self) -> String {
            "Row".into()
        }

        fn build(&self, c: &mut Ctx) {
            let sel = c.in_port("sel", 2);
            let bumped = c.wire("bumped", 2);
            c.comb("bump", |b| b.assign(bumped, sel + Expr::k(2, 1)));
            let mut folded = Expr::k(8, 0);
            for i in 0..self.0 {
                let k = if self.1 { i as u128 % 16 } else { 3 };
                let tap = c.instantiate(&format!("tap{i}"), &Tap(k));
                let a = c.in_port(&format!("a{i}"), 8);
                c.connect(a, c.port_of(&tap, "a"));
                c.connect(bumped, c.port_of(&tap, "sel"));
                folded = folded ^ c.port_of(&tap, "q").ex();
            }
            let out = c.out_port("out", 8);
            c.comb("fold", |b| b.assign(out, folded));
        }
    }

    /// The plan stage before gangs — every IR run one [`fuse_run`] — kept
    /// as the oracle the gang plans must equal in effect.
    fn all_fused_plans(design: &Design, blocks: &BlockTapes) -> Plans {
        let mut report = blocks.report.clone();
        let mut plan = |order: &[u32]| -> Arc<Vec<Chunk>> {
            let chunks = ir_runs(design, order).into_iter().map(|run| match run {
                Run::Ir(run) => Chunk::Fused(fuse_run(blocks, &run, &mut report, "oracle")),
                Run::Native(b) => Chunk::Native(b),
            });
            Arc::new(chunks.collect())
        };
        let (comb, seq) = (plan(&blocks.layout.comb_order), plan(&blocks.layout.seq_order));
        Plans { comb, seq, report }
    }

    /// The shape of a plan: `G<members>` per gang, `F<blocks' worth>` is
    /// not recoverable from a fused tape, so `F` per fused tape.
    fn shape(plan: &[Chunk]) -> String {
        let name = |c: &Chunk| match c {
            Chunk::Fused(_) => "F".to_string(),
            Chunk::Gang(g) => format!("G{}", g.blocks.len()),
            Chunk::Native(_) => "N".to_string(),
        };
        plan.iter().map(name).collect::<Vec<_>>().join(" ")
    }

    /// Below the lane width no gang forms and the plan is the all-fused
    /// one, tape for tape; at the width each body is one lane block; above
    /// it the remainder joins the residual, which keeps schedule order
    /// around the gang. Whatever the shape, the gang plan computes what the
    /// all-fused plan computes: every net and every memory word, every
    /// cycle, under stimulus that differs per lane — optimizer off and on,
    /// and with a literal that differs per lane, a parameter each lane
    /// block loads its own values of.
    #[test]
    fn gang_plans_form_by_the_admission_rule_and_equal_the_all_fused_plans() {
        use crate::sim::EngineImpl;
        use crate::tape::rnd128;
        use crate::tape_engine::TapeEngine;

        let fields = |t: &Tape| (t.ops.clone(), t.nregs, t.prelude, t.narrow.clone(), t.defs_first);
        for (n, comb, seq, tail) in [
            (15, "F", "F", false),
            (16, "F G16 F", "G16", false),
            (17, "F G16 F", "G16 F", true),
            (40, "F G32 F", "G32 F", true),
        ] {
            for (opt, varies) in [(false, false), (true, false), (false, true), (true, true)] {
                let design = Arc::new(elaborate(&Row(n, varies)).expect("row elaborates"));
                let o = &mut Overheads::default();
                let blocks = Arc::new(compile_blocks(&design, opt, o));
                let gangs = fuse_plans(&design, &blocks, o);
                let fused = all_fused_plans(&design, &blocks);
                let at = format!("{n} taps, opt={opt}, varies={varies}");
                let calc = (0..design.blocks().len())
                    .find(|&b| design.block_path(BlockId::from_index(b)).ends_with("tap0.calc"))
                    .map(|b| &blocks.bodies[blocks.body_of[b] as usize])
                    .expect("tap 0 has a `calc` block");
                assert_eq!(calc.params.len(), usize::from(varies), "{at}: `calc` of tap 0");
                assert_eq!(
                    (shape(&gangs.comb), shape(&gangs.seq)),
                    (comb.into(), seq.into()),
                    "{at}"
                );
                if let Some(rep) = &gangs.report {
                    let lanes = (n - n % LANES) as u64;
                    let counts = (rep.gangs, rep.gang_lanes);
                    assert_eq!(counts, if n < LANES { (0, 0) } else { (2, 2 * lanes) }, "{at}");
                    let why =
                        |reason| rep.refused.iter().find(|r| r.0 == reason).expect("seeded").1;
                    assert_eq!(why("tail") > 0, tail, "{at}: {:?}", rep.gang_line());
                    assert!(why("few") > 0, "{at}: `bump` and `fold` are single");
                    assert_eq!(why("jumps") + why("wide") + why("guard"), 0, "{at}");
                }
                if n < LANES {
                    for (g, f) in gangs
                        .comb
                        .iter()
                        .chain(&*gangs.seq)
                        .zip(fused.comb.iter().chain(&*fused.seq))
                    {
                        match (g, f) {
                            (Chunk::Fused(g), Chunk::Fused(f)) => {
                                assert_eq!(fields(g), fields(f), "{at}")
                            }
                            _ => panic!("{at}: not a fused plan"),
                        }
                    }
                }

                let mut engines = [gangs, fused].map(|plans| {
                    let staged = Staged {
                        design: None,
                        blocks: Some(blocks.clone()),
                        plans: Some(Arc::new(plans)),
                    };
                    let natives = design.blocks().iter().map(|_| None).collect();
                    TapeEngine::new(design.clone(), natives, false, 1, &staged, o)
                });
                let slot = |port: &str| design.net_of(design.top_port(port)).index() as u32;
                let mut seed = n as u64;
                for cycle in 0..60 {
                    let sel = mtl_bits::Bits::new(2, rnd128(&mut seed));
                    let a: Vec<_> =
                        (0..n).map(|_| mtl_bits::Bits::new(8, rnd128(&mut seed))).collect();
                    for e in &mut engines {
                        e.poke(slot("sel"), sel);
                        a.iter().enumerate().for_each(|(i, &v)| e.poke(slot(&format!("a{i}")), v));
                        e.cycle();
                    }
                    let [got, want] = &engines;
                    for s in 0..design.nets().len() as u32 {
                        assert_eq!(got.peek(s), want.peek(s), "{at}: net {s} at cycle {cycle}");
                    }
                    for (m, mem) in design.mems().iter().enumerate() {
                        for addr in 0..mem.words {
                            assert_eq!(
                                got.peek_mem(m, addr),
                                want.peek_mem(m, addr),
                                "{at}: memory {m}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A hand-built block stage: 16 instances of the body `r1 = k (a
    /// parameter, the prelude); r0 = cur[s0]; cur[s1] = r0; m0[r0 % 4] <=
    /// r1` (body 0), instance `i` wired to slots `2i`, `2i + 1` and memory
    /// `i` unless `rewire` says otherwise, and its `k` is `i`; body 1 is a
    /// stranger.
    fn sixteen(rewire: impl FnOnce(&mut Vec<[Vec<u32>; 2]>)) -> BlockTapes {
        let ops = vec![
            Op::Const { dst: 1, val: 0 },
            Op::Read { dst: 0, slot: 0 },
            Op::Write { slot: 1, src: 0 },
            Op::MemWrite { mem: 0, addr: 0, data: 1, words: 4 },
        ];
        let tape = |ops: Vec<Op>| {
            let narrow = ops.iter().map(|op| op.to_word()).collect::<Option<Vec<_>>>();
            Tape { ops, nregs: 2, narrow, ..Tape::default() }
        };
        let params = vec![Param { index: 0, reg: 1, width: 8 }];
        let body = Tape { prelude: 1, params, ..tape(ops) };
        let mut back = (0..16).map(|i| [vec![2 * i, 2 * i + 1], vec![i]]).collect();
        rewire(&mut back);
        let sites = param_sites(&body);
        let instance = |(i, back)| instance(&body, &sites, back, &[Bits::new(8, i as u128)]);
        let tapes = back.iter().enumerate().map(instance).collect();
        BlockTapes {
            layout: Layout::plain(&[8; 32], &[8; 16], &[]),
            tapes: Arc::new(tapes),
            bodies: Arc::new(vec![body, tape(vec![Op::Const { dst: 0, val: 1 }])]),
            body_of: vec![0; 16],
            back,
            report: None,
        }
    }

    /// The guard behind the lane executor, on plain data: a gang laid out
    /// from independent instances passes; lanes that alias — a slot or a
    /// memory written by two, a slot one writes and another reads — a table
    /// entry out of range or not the one the member's tape names, a
    /// parameter value not the one the member's tape loads, a parameter
    /// table of the wrong size or a parameter loaded outside the prelude,
    /// a member of another body, a partial lane block and a body the lane
    /// executor cannot run are each refused.
    #[test]
    fn the_guard_refuses_aliasing_lanes_false_tables_and_foreign_members() {
        let members = || (0..16).collect::<Vec<u32>>();
        let blocks = sixteen(|_| {});
        let sound = || gang_of(&blocks, 0, members());
        assert!(lanes_independent(&blocks, &sound()));

        type Rewire = fn(&mut Vec<[Vec<u32>; 2]>);
        let aliasing: [(&str, Rewire); 3] = [
            ("two lanes write slot 1", |back| back[1][0][1] = 1),
            ("lane 1 reads the slot lane 0 writes", |back| back[1][0][0] = 1),
            ("two lanes write memory 0", |back| back[1][1][0] = 0),
        ];
        for (what, rewire) in aliasing {
            let blocks = sixteen(rewire);
            assert!(!lanes_independent(&blocks, &gang_of(&blocks, 0, members())), "{what}");
        }

        let mut gang = sound();
        gang.slots[5] = 32;
        assert!(!lanes_independent(&blocks, &gang), "slot entry out of range");
        gang.slots[5] = 31;
        assert!(!lanes_independent(&blocks, &gang), "slot entry the member's tape does not name");
        let mut gang = sound();
        gang.mems[2] = 16;
        assert!(!lanes_independent(&blocks, &gang), "memory entry out of range");
        assert_eq!(sound().params, (0..16).collect::<Vec<u64>>(), "lane `i` loads `k = i`");
        let mut gang = sound();
        gang.params[5] = 4;
        assert!(!lanes_independent(&blocks, &gang), "parameter value the member does not load");
        gang.params.pop();
        assert!(!lanes_independent(&blocks, &gang), "parameter table of 15 values");
        let mut unloaded = sixteen(|_| {});
        let mut bodies = unloaded.bodies.to_vec();
        bodies[0].prelude = 0;
        unloaded.bodies = Arc::new(bodies);
        assert!(!lanes_independent(&unloaded, &gang_of(&unloaded, 0, members())), "k in the body");

        let mut foreign = sixteen(|_| {});
        foreign.body_of[3] = 1;
        assert!(!lanes_independent(&foreign, &gang_of(&foreign, 0, members())), "foreign member");
        let mut gang = sound();
        gang.blocks[3] = 16;
        assert!(!lanes_independent(&blocks, &gang), "member that is no block");
        assert!(!lanes_independent(&blocks, &gang_of(&blocks, 0, (0..15).collect())), "15 members");
        assert!(!lanes_independent(&blocks, &Gang { body: 2, ..sound() }), "body that is none");

        let mut unrunnable = sixteen(|_| {});
        let mut bodies = unrunnable.bodies.to_vec();
        bodies[0].narrow = None;
        unrunnable.bodies = Arc::new(bodies);
        assert!(!lanes_independent(&unrunnable, &gang_of(&unrunnable, 0, members())), "wide body");
        assert_eq!(admit(&unrunnable.bodies[0], 16), Err(Refusal::Wide));
        let jumpy = Tape { ops: vec![Op::Jmp { target: 1 }], ..Tape::default() };
        assert_eq!(admit(&jumpy, 16), Err(Refusal::Jumps));
        assert_eq!(admit(&jumpy, 15), Err(Refusal::Few));
        assert_eq!(admit(&blocks.bodies[0], 47), Ok(32));
    }

    /// A body over the register budget still panics naming a block of the
    /// design: the first instance to present it.
    #[test]
    fn an_over_budget_body_names_its_block() {
        struct Flat;
        impl Component for Flat {
            fn name(&self) -> String {
                "Flat".into()
            }
            fn build(&self, c: &mut Ctx) {
                let (a, q) = (c.in_port("a", 8), c.out_port("q", 8));
                // Three registers a statement, and no optimizer to free them.
                c.comb("wide", |b| (0..22_000).for_each(|_| b.assign(q, a + a)));
            }
        }
        let design = elaborate(&Flat).expect("flat design elaborates");
        let err = std::panic::catch_unwind(|| {
            compile_blocks(&design, false, &mut Overheads::default());
        })
        .expect_err("66 000 registers exceed the budget");
        let msg = err.downcast_ref::<String>().expect("panic payload is a string");
        assert!(msg.contains("register budget"), "message: {msg}");
        assert!(msg.contains("comb block `top.wide`"), "message: {msg}");
    }
}
