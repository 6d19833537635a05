//! The compile pipeline: `Design` → one tape per block body → fused
//! plans, one staged artifact built here and nowhere else.
//!
//! Every tape engine is an execution strategy over (a prefix of) the same
//! stages:
//!
//! | stage | type | built from | consumers |
//! |---|---|---|---|
//! | blocks | [`BlockTapes`] | the design: per block *shape* (`Design::shapes`), its first instance folded → codegen → optimize → narrow (registers and word class) → validate once, its parameters left unknown; plus the [`Layout`] tables. No per-block copy: an instance is its body plus its operand lists and parameter values, which the design already stores (`Design::block_operands`, `Design::block_params`) | every later stage, every tape engine |
//! | plans | [`Plans`] | blocks + the design's operand lists and values: levelized schedule cut into IR runs at native boundaries; per dependency level of a run, [`LANES`] or more instances of one jump-free body (either word class) become a [`Gang`] (the body once, instances as table rows), everything else is relocated straight into one fused tape per stretch between gangs and re-optimized — once per distinct run ([`RunMemo`]) | `SpecializedOpt`, `SpecializedPar`, every lane of `SpecializedBatch` |
//!
//! A block's own tape — its body relocated onto its operand lists with its
//! parameter values written in, validated ([`BlockTapes::tapes`]) — exists
//! only for an engine that runs blocks one at a time: the event-mode
//! `Specialized` engine, and a static engine that is profiled or asked to
//! run a single block. It builds them all on first use, into the
//! artifact's shared slot for them ([`Staged::singles`]).
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
use mtl_core::hash::FastMap;
use mtl_core::{BlockBody, BlockId, BlockKind, Design, SignalId};

use crate::artifact::{ArtifactCache, Guard, Layer, Staged};
use crate::overheads::Overheads;
use crate::tape::{Effect, Op, Param, Table, Tape, VReg};
use codegen::{compile_block, fold_stmts, narrow, validate, VTape};
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

    /// `tape` fused on its own and finished against this layout, optimizer
    /// off: the crate's way to classify and `validate` a hand-built tape.
    pub(crate) fn finish_alone(&self, tape: &Tape) -> Tape {
        let vt = codegen::fuse(&[tape]);
        finish(vt, &self.widths, &self.mem_widths, &mut None, || "sample tape".into())
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

/// A design's block instances as the plan stage reads them: per block, its
/// operand lists and its values at its shape's parameters. Everything else
/// an instance is, its body already says.
pub(crate) trait Instances {
    /// [`Design::block_operands`], by block index.
    fn operands(&self, b: u32) -> [&[u32]; 2];
    /// [`Design::block_params`], by block index.
    fn values(&self, b: u32) -> &[Bits];
}

impl Instances for Design {
    fn operands(&self, b: u32) -> [&[u32]; 2] {
        self.block_operands(BlockId::from_index(b as usize))
    }

    fn values(&self, b: u32) -> &[Bits] {
        self.block_params(BlockId::from_index(b as usize))
    }
}

/// Stage 1: one validated tape per block *shape*, shared by every tape
/// engine. Pure data: a block's own tape is its body relocated onto its
/// operand lists ([`BlockTapes::tapes`]), built only for an engine that
/// runs blocks one at a time.
pub(crate) struct BlockTapes {
    pub(crate) layout: Layout,
    /// The canonical tape of each block shape, indexed by shape id (the
    /// design's shapes are in order of first occurrence): slots and
    /// memories numbered locally, parameters unknown to the optimizer
    /// ([`Tape::params`]), optimized, narrowed and validated against the
    /// body's own tables.
    pub(crate) bodies: Arc<Vec<Tape>>,
    /// Per body, where it loads its parameters ([`param_sites`]).
    pub(crate) sites: Vec<Vec<(usize, u32)>>,
    /// Per block, its body: its shape id ([`NONE`] for a native block).
    pub(crate) body_of: Vec<u32>,
    /// Per-pass statistics of the per-body optimizer runs, each counted
    /// once per instance; `None` when the optimizer is off. Later stages
    /// extend a copy.
    pub(crate) report: Option<OptReport>,
}

impl BlockTapes {
    /// Every block's own tape, in block order (empty for a native block):
    /// its body relocated onto the block's operand lists, the block's
    /// parameter values written into the body's parameter `Const`s,
    /// validated against the design's tables. For an engine that runs
    /// blocks one at a time; the plan stage reads operand lists and values
    /// directly.
    pub(crate) fn tapes(&self, design: &impl Instances) -> Vec<Tape> {
        let tape = |b: u32| {
            if self.body_of[b as usize] == NONE {
                return Tape::default();
            }
            let (ops, body) = self.instance(design, b);
            let word = |op: &Op| op.to_word().expect("a u64-class body's instance is u64-class");
            let narrow = body.narrow.as_ref().map(|_| ops.iter().map(word).collect());
            let (nregs, prelude) = (body.nregs, body.prelude);
            let mut tape = Tape { ops, nregs, prelude, narrow, ..Tape::default() };
            validate(&mut tape, self.layout.widths.len(), self.layout.mem_widths.len());
            tape
        };
        (0..self.body_of.len() as u32).map(tape).collect()
    }

    /// IR block `b`'s body, and the body's ops relocated onto the block's
    /// operand lists with the block's values in the parameter `Const`s.
    fn instance(&self, design: &impl Instances, b: u32) -> (Vec<Op>, &Tape) {
        let body = self.body_of[b as usize] as usize;
        let [slots, mems] = design.operands(b);
        let relocate = |op: &Op| op.map_state(&mut |t, l| [slots, mems][t as usize][l as usize]);
        let mut ops: Vec<Op> = self.bodies[body].ops.iter().map(relocate).collect();
        for &(at, index) in &self.sites[body] {
            let Op::Const { val, .. } = &mut ops[at] else { unreachable!("a site is a Const") };
            *val = design.values(b)[index as usize].as_u128();
        }
        (ops, &self.bodies[body])
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
    /// of the body's parameter `k` (`Tape::params[k]`), at full width: a
    /// `u128`-class body's parameter may be wider than 64 bits.
    pub(crate) params: Vec<u128>,
}

/// One lane block of a [`Gang`]: its rows of the gang's tables.
pub(crate) struct LaneBlock<'a> {
    pub(crate) slots: &'a [u32],
    pub(crate) mems: &'a [u32],
    pub(crate) params: &'a [u128],
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

/// Stage 2: the fully static schedules of `SpecializedOpt` (which
/// `SpecializedPar` builds too) and every lane of `SpecializedBatch`.
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
    let blocks = block_stage(design, layout, opt, &mut fold);
    o.comp += fold;
    o.cgen += t0.elapsed().saturating_sub(fold);
    blocks
}

/// The block stage of `design`: each block shape (`Design::shapes`)
/// compiled once — its first instance folded (charging `fold`),
/// code-generated with its parameters (`Design::shape_params`) as values
/// nothing may fold, renumbered onto its operand lists' local indices and
/// `finish`ed against the widths they stand for — and the report counting
/// each body's optimizer run once per instance. For a shape without
/// parameters an instance's tape ([`BlockTapes::tapes`]) and the counts are
/// exactly those of compiling every block on its own, because a shape fixes
/// everything else the compiler reads of a block and the optimizer touches
/// a state operand only by equality and as an index into the width tables;
/// with parameters, each tape computes what its block's own compilation
/// computes, from the same state.
fn block_stage(design: &Design, layout: Layout, opt: bool, fold: &mut Duration) -> BlockTapes {
    let global = [&layout.widths[..], &layout.mem_widths[..]];
    // Per shape, its body's optimizer report and how many blocks share it.
    let mut shapes: Vec<(Option<OptReport>, u64)> = Vec::with_capacity(design.shapes().len());
    let mut bodies: Vec<Tape> = Vec::with_capacity(design.shapes().len());
    let mut sites = Vec::with_capacity(design.shapes().len());
    let mut body_of = Vec::with_capacity(design.blocks().len());
    // Per table, the local index of each global one the shape at hand
    // names ([`NONE`] outside its first instance).
    let mut local = global.map(|t| vec![NONE; t.len()]);
    for (i, b) in design.blocks().iter().enumerate() {
        let block = BlockId::from_index(i);
        let (Some(shape), BlockBody::Ir(body)) = (design.block_shape(block), &b.body) else {
            body_of.push(NONE);
            continue;
        };
        if shape.index() == bodies.len() {
            let back = design.block_operands(block);
            let t0 = Instant::now();
            let (folded, params) = fold_stmts(body.stmts(), design.shape_params(shape));
            *fold += t0.elapsed();
            let mut vt = compile_block(design, body.ids(), &folded, b.kind, &params);
            for (local, back) in local.iter_mut().zip(back) {
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
            debug_assert_eq!(named.map(|n| n as usize), back.map(<[u32]>::len));
            for (local, back) in local.iter_mut().zip(back) {
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
        body_of.push(shape.index() as u32);
    }
    let report = opt.then(|| {
        let mut report = OptReport { bodies: shapes.len() as u64, ..OptReport::new() };
        for (body, n) in shapes.iter().filter_map(|(r, n)| Some((r.as_ref()?, *n))) {
            report.absorb(body, n);
        }
        report
    });
    BlockTapes { layout, bodies: Arc::new(bodies), sites, body_of, report }
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

/// Fuses the blocks of `run` into one validated tape: each block's body,
/// relocated onto its operand lists with its parameter values written in,
/// goes straight into one linear program in virtual-register form (jump
/// targets rebased; registers are reused across blocks because every
/// jump-free body defines its registers before use, which `validate`
/// records as [`Tape::defs_first`]). With the optimizer on (`report` is
/// `Some`) the fused tape is re-optimized, which picks up the cross-block
/// wins (CSE/forwarding across block boundaries) the per-body pipeline
/// cannot see. This is how the fully specialized engine eliminates
/// per-block dispatch — the analog of SimJIT compiling the whole model into
/// one C++ translation unit. `label` names the tape if it exceeds the
/// register budget.
fn fuse_run(
    design: &impl Instances,
    blocks: &BlockTapes,
    run: &[u32],
    report: &mut Option<OptReport>,
    label: &str,
) -> Tape {
    let mut vt = VTape::default();
    for &b in run {
        let ((ops, body), base) = (blocks.instance(design, b), vt.ops.len() as u32);
        vt.nregs = vt.nregs.max(body.nregs);
        vt.ops.extend(ops.iter().map(|op| {
            let mut op = op.map_regs(&mut |_, r| r as VReg);
            if let Some(target) = op.target_mut() {
                *target += base;
            }
            op
        }));
    }
    let layout = &blocks.layout;
    finish(vt, &layout.widths, &layout.mem_widths, report, || label.to_string())
}

/// The plan stage's memo of fused runs: a run is keyed by, per block, its
/// body, its operand lists renumbered by first occurrence within the run,
/// and its parameter values. Two runs with one key fuse to one tape up to
/// the state it names — the optimizer touches state only by equality and
/// through the width tables, and a body fixes the widths of its operands —
/// so the first run with a key is fused and optimized, and every later one
/// is that tape relocated onto its own first-occurrence lists, its report
/// counted again (as [`block_stage`] counts a body once per instance).
struct RunMemo {
    /// Per key, the first such run's tape with its state numbered by first
    /// occurrence in the run, and its optimizer report.
    runs: FastMap<Vec<u128>, (Tape, Option<OptReport>)>,
    /// Per table, the run-local index of each global one the run at hand
    /// names ([`NONE`] outside it).
    local: [Vec<u32>; 2],
}

impl RunMemo {
    fn new(layout: &Layout) -> RunMemo {
        let local = [layout.widths.len(), layout.mem_widths.len()].map(|n| vec![NONE; n]);
        RunMemo { runs: FastMap::default(), local }
    }

    /// [`fuse_run`] of `run`, through the memo.
    fn fuse(
        &mut self,
        design: &impl Instances,
        blocks: &BlockTapes,
        run: &[u32],
        report: &mut Option<OptReport>,
        label: &str,
    ) -> Tape {
        // The run's global slots and memories in order of first occurrence,
        // and its key.
        let mut firsts: [Vec<u32>; 2] = Default::default();
        let mut key = Vec::new();
        for &b in run {
            let body = blocks.body_of[b as usize];
            key.push(body.into());
            for ((local, firsts), operands) in
                self.local.iter_mut().zip(&mut firsts).zip(design.operands(b))
            {
                for &g in operands {
                    let l = &mut local[g as usize];
                    if *l == NONE {
                        *l = firsts.len() as u32;
                        firsts.push(g);
                    }
                    key.push((*l).into());
                }
            }
            let values = design.values(b);
            let sites = &blocks.sites[body as usize];
            key.extend(sites.iter().map(|&(_, index)| values[index as usize].as_u128()));
        }
        let (nslots, nmems) = (blocks.layout.widths.len(), blocks.layout.mem_widths.len());
        let tape = match self.runs.get(&key) {
            Some((canonical, rep)) => {
                let mut tape = relocate(canonical, |t, l| firsts[t as usize][l as usize]);
                validate(&mut tape, nslots, nmems);
                if let Some(report) = report {
                    report.absorb(rep.as_ref().expect("the optimizer ran on the first run"), 1);
                    report.relocated_runs += 1;
                }
                if cfg!(debug_assertions) {
                    let mut direct_rep = rep.as_ref().map(|_| OptReport::new());
                    let direct = fuse_run(design, blocks, run, &mut direct_rep, label);
                    let fields = |t: &Tape| {
                        (t.ops.clone(), t.nregs, t.prelude, t.narrow.clone(), t.defs_first)
                    };
                    assert_eq!(fields(&tape), fields(&direct), "{label}: relocated run");
                    assert_eq!(&direct_rep, rep, "{label}: relocated run's report");
                }
                tape
            }
            None => {
                let mut rep = report.as_ref().map(|_| OptReport::new());
                let tape = fuse_run(design, blocks, run, &mut rep, label);
                let canonical = relocate(&tape, |t, g| self.local[t as usize][g as usize]);
                if let (Some(report), Some(rep)) = (report.as_mut(), &rep) {
                    report.absorb(rep, 1);
                    report.fused_runs += 1;
                }
                self.runs.insert(key, (canonical, rep));
                tape
            }
        };
        for (local, firsts) in self.local.iter_mut().zip(&firsts) {
            firsts.iter().for_each(|&g| local[g as usize] = NONE);
        }
        tape
    }
}

/// `tape` with every slot and memory index `i` of table `t` replaced by
/// `to(t, i)`, in both word classes.
fn relocate(tape: &Tape, mut to: impl FnMut(Table, u32) -> u32) -> Tape {
    let narrow =
        tape.narrow.as_ref().map(|ops| ops.iter().map(|op| op.map_state(&mut to)).collect());
    Tape {
        ops: tape.ops.iter().map(|op| op.map_state(&mut to)).collect(),
        narrow,
        params: tape.params.clone(),
        ..*tape
    }
}

/// Builds the static schedules of the plan stage (charged to simc: it
/// is schedule construction): native blocks stay serial points, and every
/// run of IR blocks between them is planned by [`plan_run`], its fused
/// chunks made by [`fuse_run`] through the [`RunMemo`].
fn fuse_plans(design: &Design, blocks: &BlockTapes, o: &mut Overheads) -> Plans {
    let t0 = Instant::now();
    let mut report = blocks.report.clone();
    let mut memo = RunMemo::new(&blocks.layout);
    let mut plan = |order: &[u32], kind: BlockKind, label: &str| -> Arc<Vec<Chunk>> {
        let mut chunks = Vec::new();
        for run in ir_runs(design, order) {
            match run {
                Run::Ir(run) => {
                    let io = run_io(design, &run, kind);
                    let mut fuse =
                        |run: &[u32], rep: &mut _| memo.fuse(design, blocks, run, rep, label);
                    plan_run(design, blocks, &run, &io, &mut report, &mut fuse, &mut chunks);
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
/// appending its chunks. The run is walked by dependency level ([`levels`]); within a
/// level the blocks are grouped by body, groups in order of first
/// occurrence. A group the admission rule takes ([`admit`]) becomes a
/// [`Chunk::Gang`]; the tail it leaves and every other block are
/// *residual*: they collect, level by level, in an open run that the next
/// gang closes and `fuse` fuses, in schedule order. A level's residual
/// joins the open run after the level's gangs — blocks of one level are
/// independent, so either side is right, and this side closes the open run
/// once per level. When a gang runs, every block of a lower level has been
/// emitted, so every chunk sees its inputs settled; and a run that forms no
/// gang is one whole-run fused chunk, the plan it always was.
fn plan_run(
    design: &impl Instances,
    blocks: &BlockTapes,
    run: &[u32],
    io: &[BlockIo],
    report: &mut Option<OptReport>,
    fuse: &mut impl FnMut(&[u32], &mut Option<OptReport>) -> Tape,
    chunks: &mut Vec<Chunk>,
) {
    let level = levels(io, &writers(io));
    // Blocks are run-local indices from here on: ascending is schedule order.
    let mut by_level = vec![Vec::new(); level.iter().max().map_or(0, |&l| l as usize + 1)];
    for (i, &l) in level.iter().enumerate() {
        by_level[l as usize].push(i as u32);
    }
    let ids = |members: &[u32]| -> Vec<u32> { members.iter().map(|&i| run[i as usize]).collect() };
    let body_of = |i: u32| blocks.body_of[run[i as usize] as usize];
    // Block-stage ops a cycle executes for `members` (preludes run once).
    let executed = |members: &[u32]| -> u64 {
        let bodies = members.iter().map(|&i| &blocks.bodies[body_of(i) as usize]);
        bodies.map(|t| t.ops.len() as u64 - t.prelude as u64).sum()
    };
    // The residual blocks since the last gang.
    let mut open: Vec<u32> = Vec::new();
    let mut close = |open: &mut Vec<u32>, report: &mut Option<OptReport>, chunks: &mut Vec<_>| {
        if !open.is_empty() {
            open.sort_unstable();
            chunks.push(Chunk::Fused(fuse(&ids(open), report)));
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
            let gang = gang_of(design, blocks, body, ids(lanes));
            if !lanes_independent(design, blocks, &gang) {
                // Unreachable by the invariants the guard names; degrade
                // to the fused path rather than run lanes that may alias.
                debug_assert!(false, "gang validation failed");
                refuse(Refusal::Guard, lanes, report);
                continue;
            }
            if let Some(rep) = report {
                rep.gangs += 1;
                rep.wide_gangs += u64::from(blocks.bodies[body as usize].narrow.is_none());
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
/// all (no control flow; either word class) — or why none does. Decided
/// by what the plan stage observes in its input, nothing else.
fn admit(body: &Tape, n: usize) -> Result<usize, Refusal> {
    if n < LANES {
        Err(Refusal::Few)
    } else if body.has_jumps() {
        Err(Refusal::Jumps)
    } else {
        Ok(n - n % LANES)
    }
}

/// The gang of `members` (instances of `body`, a multiple of [`LANES`]),
/// its tables laid out from the members' operand lists and parameter
/// values.
fn gang_of(design: &impl Instances, blocks: &BlockTapes, body: u32, members: Vec<u32>) -> Gang {
    let rows: Vec<_> = members.iter().map(|&b| (design.operands(b), design.values(b))).collect();
    let table = |t: usize| lane_rows(&rows, rows[0].0[t].len(), |(ops, _), l| ops[t][l]);
    let sites = &blocks.sites[body as usize];
    let params =
        lane_rows(&rows, sites.len(), |(_, values), k| values[sites[k].1 as usize].as_u128());
    Gang { body, slots: table(0), mems: table(1), params, blocks: members }
}

/// `entry(member, local)` for every member and local index, laid out like
/// a [`Gang`]'s tables: `[(lane_block * nlocal + local) * LANES + lane]`.
fn lane_rows<M, T>(members: &[M], nlocal: usize, entry: impl Fn(&M, usize) -> T) -> Vec<T> {
    let mut rows = Vec::with_capacity(members.len() * nlocal);
    for lane_block in members.chunks_exact(LANES) {
        for local in 0..nlocal {
            rows.extend(lane_block.iter().map(|m| entry(m, local)));
        }
    }
    rows
}

/// Checks that a gang's lanes are independent and its tables true, from
/// the members' operand lists and parameter values and the body's own
/// state accesses. Strict elaboration gives every net one writer block and
/// the level rule puts a reader after its writer, so this holds by
/// construction; it is re-checked because the lane executor interleaves
/// the members op by op:
///
/// * the body is one the lane executor runs (no jumps), the members fill
///   whole lane blocks, and every member *is* that body;
/// * every table entry is in range, and each member's rows are exactly its
///   operand lists, so the lanes touch the state the body names through
///   them and nothing else;
/// * every parameter is loaded in the body's prelude — which the lane
///   executor skips, installing the table's values instead — and each
///   member's value in the table is its own;
/// * no lane reads or writes a slot, and none writes a memory, that
///   another lane writes.
fn lanes_independent(design: &impl Instances, blocks: &BlockTapes, gang: &Gang) -> bool {
    let (nslots, nmems) = (blocks.layout.widths.len(), blocks.layout.mem_widths.len());
    let n = gang.blocks.len();
    let Some(body) = blocks.bodies.get(gang.body as usize) else { return false };
    let runnable = !body.has_jumps();
    let in_range = gang.slots.iter().all(|&s| (s as usize) < nslots)
        && gang.mems.iter().all(|&m| (m as usize) < nmems);
    if !(runnable && in_range && n > 0 && n.is_multiple_of(LANES)) {
        return false;
    }
    let sites = &blocks.sites[gang.body as usize];
    let preluded = sites.iter().all(|&(at, _)| at < body.prelude as usize);
    if !(preluded && gang.params.len() == n * sites.len()) {
        return false;
    }
    // `table`'s entry for index `local` of member `i`.
    fn entry<T: Copy>(table: &[T], n: usize, i: usize, local: usize) -> T {
        table[(i / LANES * (table.len() / n) + local) * LANES + i % LANES]
    }
    // The local slots the body reads, and its stores: (table, local index,
    // whether to `next`).
    let (mut reads, mut stores) = (Vec::new(), Vec::new());
    for op in &body.ops {
        match op.effect() {
            Effect::Read { slot } => reads.push(slot as usize),
            Effect::Write { slot, next, .. } => stores.push((0, slot as usize, usize::from(next))),
            Effect::MemWrite { mem, .. } => stores.push((1, mem as usize, 0)),
            Effect::Pure | Effect::Jump { .. } | Effect::MemRead { .. } => {}
        }
    }
    // The member storing to each `cur` slot (`2 * slot`), `next` slot
    // (`2 * slot + 1`) and memory (`2 * nslots + mem`).
    let mut writer = vec![NONE; 2 * nslots + nmems];
    for (i, &b) in gang.blocks.iter().enumerate() {
        if blocks.body_of.get(b as usize) != Some(&gang.body) {
            return false;
        }
        let (operands, values) = (design.operands(b), design.values(b));
        let rows = |t: usize, table: &[u32]| {
            table.len() / n == operands[t].len()
                && operands[t].iter().enumerate().all(|(l, &g)| entry(table, n, i, l) == g)
        };
        let params = sites.iter().enumerate().all(|(k, &(_, index))| {
            values.get(index as usize).map(|v| v.as_u128()) == Some(entry(&gang.params, n, i, k))
        });
        if !(rows(0, &gang.slots) && rows(1, &gang.mems) && params) {
            return false;
        }
        for &(t, local, next) in &stores {
            let g = entry([&gang.slots, &gang.mems][t], n, i, local) as usize;
            let at = &mut writer[if t == 0 { 2 * g + next } else { 2 * nslots + g }];
            if ![NONE, i as u32].contains(at) {
                return false;
            }
            *at = i as u32;
        }
    }
    (0..n).all(|i| {
        let read = |&r: &usize| writer[2 * entry(&gang.slots, n, i, r) as usize];
        reads.iter().map(read).all(|w| [NONE, i as u32].contains(&w))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b as bits;
    use mtl_core::{elaborate, Component, Ctx, Expr, Keyed, SignalRef};

    /// The compile path before the memo — every block `finish`ed on its
    /// own against the design's tables, every literal a constant — kept
    /// as the oracle [`block_stage`]'s per-block tapes must reproduce.
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
    /// optimizer off and on, and asserts that every block's own tape
    /// ([`BlockTapes::tapes`]) agrees with the oracle's: field for field
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
            let got = block_stage(&design, layout, opt, &mut Duration::default());
            let tapes = got.tapes(&design);
            assert_eq!(tapes.len(), want.len());
            for (i, (g, w)) in tapes.iter().zip(&want).enumerate() {
                if parameterised(i) {
                    same_writes(g, w, &design, &format!("opt={opt}: tape of block {i}"));
                } else {
                    assert_eq!(fields(g), fields(w), "opt={opt}: tape of block {i}");
                }
                assert!(g.params.is_empty(), "opt={opt}: block {i} runs its own values");
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
            last = Some((tapes, bodies));
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
    #[derive(Hash)]
    struct Cell {
        width: u32,
        k: u128,
    }

    impl Component for Cell {
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
    #[derive(Hash)]
    struct Chain(Vec<(u32, usize, bool)>);

    impl Component for Chain {
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
            let singles = blocks.tapes(design);
            let tapes: Vec<&Tape> =
                singles.iter().chain(blocks.bodies.iter()).chain(chunk_tapes).collect();
            for t in tapes {
                assert_eq!(t.defs_first, !t.has_jumps(), "opt={opt}: {:?}", t.ops);
                seen[usize::from(t.defs_first)] += 1;
            }
        }
        assert!(seen[0] > 0 && seen[1] > 0, "both kinds of tape occur: {seen:?}");
    }

    /// `q = a + b` and a pass-through, whose raw ops carry no width.
    #[derive(Hash)]
    struct Sum;

    impl Component for Sum {
        fn build(&self, c: &mut Ctx) {
            let (a, b) = (c.in_port("a", 8), c.in_port("b", 8));
            let q = c.out_port("q", 8);
            c.comb("calc", |blk| blk.assign(q, a + b));
        }
    }

    #[derive(Hash)]
    struct Pass(u32);

    impl Component for Pass {
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", self.0);
            let q = c.out_port("q", self.0);
            c.comb("calc", |b| b.assign(q, a));
        }
    }

    /// `q = zext(m[a], 32)`: `Zext` emits no op, so the memory's width
    /// shows in no operand, its depth only in `words`.
    #[derive(Hash)]
    struct Rom {
        words: u64,
        width: u32,
    }

    impl Component for Rom {
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

    impl Keyed for Wired {}
    impl Component for Wired {
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
    #[derive(Hash)]
    struct AddK(Expr);

    impl Component for AddK {
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
    #[derive(Hash)]
    struct Tap(u128);

    impl Component for Tap {
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
    #[derive(Hash)]
    struct Row(usize, bool);

    impl Component for Row {
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
                Run::Ir(run) => Chunk::Fused(fuse_run(design, blocks, &run, &mut report, "oracle")),
                Run::Native(b) => Chunk::Native(b),
            });
            Arc::new(chunks.collect())
        };
        let (comb, seq) = (plan(&blocks.layout.comb_order), plan(&blocks.layout.seq_order));
        Plans { comb, seq, report }
    }

    /// The plan stage before it read operand lists and values directly:
    /// every block's own tape materialised, each fused chunk the fusion of
    /// its blocks' tapes, each gang's tables laid out from the members'
    /// operand lists and its parameters read from the `Const`s of the
    /// members' tapes — kept as the oracle [`fuse_plans`] must equal.
    fn materialised_plans(design: &Design, blocks: &BlockTapes) -> Plans {
        let tapes = blocks.tapes(design);
        let layout = &blocks.layout;
        let mut report = blocks.report.clone();
        let mut plan = |order: &[u32], kind: BlockKind, label: &str| -> Arc<Vec<Chunk>> {
            let mut chunks = Vec::new();
            for run in ir_runs(design, order) {
                match run {
                    Run::Ir(run) => {
                        let io = run_io(design, &run, kind);
                        let mut fuse = |run: &[u32], report: &mut _| {
                            let parts: Vec<&Tape> =
                                run.iter().map(|&b| &tapes[b as usize]).collect();
                            let (widths, mems) = (&layout.widths, &layout.mem_widths);
                            finish(codegen::fuse(&parts), widths, mems, report, || label.into())
                        };
                        plan_run(design, blocks, &run, &io, &mut report, &mut fuse, &mut chunks);
                    }
                    Run::Native(b) => chunks.push(Chunk::Native(b)),
                }
            }
            Arc::new(chunks)
        };
        let comb = plan(&layout.comb_order, BlockKind::Comb, "fused comb schedule");
        let seq = plan(&layout.seq_order, BlockKind::Seq, "fused seq schedule");
        let mut plans = Plans { comb, seq, report };
        let old = |chunk: &Chunk| match chunk {
            Chunk::Fused(tape) => Chunk::Fused(tape.clone()),
            Chunk::Native(b) => Chunk::Native(*b),
            Chunk::Gang(gang) => {
                let members = &gang.blocks;
                let table = |t: usize| {
                    let nlocal = design.operands(members[0])[t].len();
                    lane_rows(members, nlocal, |&b, local| design.operands(b)[t][local])
                };
                let sites = param_sites(&blocks.bodies[gang.body as usize]);
                let params = lane_rows(members, sites.len(), |&b, k| {
                    match tapes[b as usize].ops[sites[k].0] {
                        Op::Const { val, .. } => val,
                        _ => unreachable!("an instance has its body's `Const`s"),
                    }
                });
                let (slots, mems) = (table(0), table(1));
                Chunk::Gang(Box::new(Gang {
                    blocks: members.clone(),
                    slots,
                    mems,
                    params,
                    ..**gang
                }))
            }
        };
        plans.comb = Arc::new(plans.comb.iter().map(old).collect());
        plans.seq = Arc::new(plans.seq.iter().map(old).collect());
        plans
    }

    /// Asserts that `got` and `want` are one plan: fused tapes field for
    /// field, gangs in body, members, tables and parameters, native calls,
    /// and the report.
    fn assert_same_plans(got: &Plans, want: &Plans, what: &str) {
        let fields = |t: &Tape| {
            (t.ops.clone(), t.nregs, t.prelude, t.narrow.clone(), t.defs_first, t.params.clone())
        };
        let gang = |g: &Gang| {
            (g.body, g.blocks.clone(), g.slots.clone(), g.mems.clone(), g.params.clone())
        };
        for (got, want) in [(&got.comb, &want.comb), (&got.seq, &want.seq)] {
            assert_eq!(got.len(), want.len(), "{what}: chunks");
            for (k, chunks) in got.iter().zip(want.iter()).enumerate() {
                let same = match chunks {
                    (Chunk::Fused(a), Chunk::Fused(b)) => fields(a) == fields(b),
                    (Chunk::Gang(a), Chunk::Gang(b)) => gang(a) == gang(b),
                    (Chunk::Native(a), Chunk::Native(b)) => a == b,
                    _ => false,
                };
                assert!(same, "{what}: chunk {k}");
            }
        }
        // The oracles fuse every run afresh: only the memo counts runs.
        let runs = |r: &OptReport| (r.fused_runs, r.relocated_runs);
        let want_report = want.report.clone().map(|r| {
            let (fused_runs, relocated_runs) = got.report.as_ref().map_or((0, 0), runs);
            OptReport { fused_runs, relocated_runs, ..r }
        });
        assert_eq!(got.report, want_report, "{what}: report");
        if let Some(rep) = &got.report {
            let fused = got.comb.iter().chain(got.seq.iter());
            let fused = fused.filter(|c| matches!(c, Chunk::Fused(_))).count() as u64;
            assert_eq!(rep.fused_runs + rep.relocated_runs, fused, "{what}: every run counted");
        }
    }

    /// Every design of the registry and `build_sweep`'s four (seed 4), and
    /// rows of taps with and without a parameter, plan to exactly what the
    /// materialised construction plans, optimizer off and on — the fused
    /// runs the memo relocated (the compute SoC 64's per-tile seq runs)
    /// included.
    #[test]
    fn plans_equal_those_built_from_materialised_tapes() {
        let rows = [(40, false), (40, true)].map(|(n, varies)| {
            (format!("row of {n}, varies={varies}"), Box::new(Row(n, varies)) as Box<dyn Component>)
        });
        let registry = mtl_bench::design_registry().into_iter();
        let designs = registry.chain(mtl_bench::build_sweep_designs(4)).chain(rows);
        let (mut gangs, mut relocated) = (0, 0);
        for (name, top) in designs {
            let design = elaborate(top.as_ref()).expect("registry designs elaborate");
            for opt in [false, true] {
                let o = &mut Overheads::default();
                let blocks = compile_blocks(&design, opt, o);
                let got = fuse_plans(&design, &blocks, o);
                let chunks = got.comb.iter().chain(got.seq.iter());
                gangs +=
                    chunks.filter(|c| matches!(c, Chunk::Gang(g) if !g.params.is_empty())).count();
                let want = materialised_plans(&design, &blocks);
                assert_same_plans(&got, &want, &format!("{name}, opt={opt}"));
                relocated += got.report.map_or(0, |r| r.relocated_runs);
            }
        }
        assert!(gangs > 0, "some gang loads parameters");
        assert!(relocated > 0, "some fused run is a relocated copy");
    }

    /// `q <= q + k`, then a native block: in a row of stages the seq
    /// schedule is one single-block run per stage, cut apart by the native
    /// blocks, and `k` is a parameter where stages differ in it.
    #[derive(Hash)]
    struct Stage(u128);

    impl Component for Stage {
        fn build(&self, c: &mut Ctx) {
            let q = c.out_port("q", 8);
            c.seq("step", |b| b.assign(q, q + Expr::k(8, self.0)));
            c.tick_fl("tick", &[], &[], |_| {});
        }
    }

    #[derive(Hash)]
    struct Stages(Vec<u128>);

    impl Component for Stages {
        fn build(&self, c: &mut Ctx) {
            for (i, &k) in self.0.iter().enumerate() {
                let stage = c.instantiate(&format!("s{i}"), &Stage(k));
                let q = c.out_port(&format!("q{i}"), 8);
                c.connect(c.port_of(&stage, "q"), q);
            }
        }
    }

    /// The run memo's key holds parameter values: of six one-block runs
    /// with `k` = 1, 2, 1, 2, 1, 3, three are optimized and three are
    /// relocated copies, and the plans are exactly the materialised ones.
    #[test]
    fn runs_that_differ_in_a_parameter_value_are_fused_apart() {
        let design = elaborate(&Stages(vec![1, 2, 1, 2, 1, 3])).expect("stages elaborate");
        for opt in [false, true] {
            let o = &mut Overheads::default();
            let blocks = compile_blocks(&design, opt, o);
            assert_eq!(blocks.bodies.len(), 1, "one shape, `k` its parameter");
            let got = fuse_plans(&design, &blocks, o);
            assert_eq!(shape(&got.seq), ["F", "N"].repeat(6).join(" "));
            assert_same_plans(&got, &materialised_plans(&design, &blocks), &format!("opt={opt}"));
            if let Some(rep) = &got.report {
                assert_eq!((rep.fused_runs, rep.relocated_runs), (3, 3), "opt={opt}");
            }
        }
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
                    assert_eq!(why("jumps") + why("guard"), 0, "{at}");
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
                        blocks: Some(blocks.clone()),
                        plans: Some(Arc::new(plans)),
                        ..Staged::default()
                    };
                    let natives = design.blocks().iter().map(|_| None).collect();
                    TapeEngine::new(design.clone(), natives, false, &staged, o)
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

    /// Per block, its operand lists and its parameter values, as plain
    /// data.
    struct Wiring {
        back: Vec<[Vec<u32>; 2]>,
        values: Vec<Vec<Bits>>,
    }

    impl Instances for Wiring {
        fn operands(&self, b: u32) -> [&[u32]; 2] {
            self.back[b as usize].each_ref().map(Vec::as_slice)
        }

        fn values(&self, b: u32) -> &[Bits] {
            &self.values[b as usize]
        }
    }

    /// A hand-built block stage on `width`-bit slots and memories: 16
    /// instances of the body `r1 = k (a parameter, the prelude); r0 =
    /// cur[s0]; cur[s1] = r0; m0[r0 % 4] <= r1` (body 0), instance `i`
    /// wired to slots `2i`, `2i + 1` and memory `i` unless `rewire` says
    /// otherwise, and its `k` is [`k_of`]`(width, i)`; body 1 is a
    /// stranger. Above 64 bits the body is in the `u128` class.
    fn sixteen(width: u32, rewire: impl FnOnce(&mut Vec<[Vec<u32>; 2]>)) -> (BlockTapes, Wiring) {
        let ops = vec![
            Op::Const { dst: 1, val: 0 },
            Op::Read { dst: 0, slot: 0 },
            Op::Write { slot: 1, src: 0 },
            Op::MemWrite { mem: 0, addr: 0, data: 1, words: 4 },
        ];
        let tape = |ops: Vec<Op>| {
            let narrow = ops.iter().map(|op| op.to_word()).collect::<Option<Vec<_>>>();
            let narrow = narrow.filter(|_| width <= 64);
            Tape { ops, nregs: 2, narrow, ..Tape::default() }
        };
        let params = vec![Param { index: 0, reg: 1, width }];
        let body = Tape { prelude: 1, params, ..tape(ops) };
        let mut back = (0..16).map(|i| [vec![2 * i, 2 * i + 1], vec![i]]).collect();
        rewire(&mut back);
        let values = (0..16).map(|i| vec![Bits::new(width, k_of(width, i))]).collect();
        let bodies = vec![body, tape(vec![Op::Const { dst: 0, val: 1 }])];
        let blocks = BlockTapes {
            layout: Layout::plain(&[width; 32], &[width; 16], &[]),
            sites: bodies.iter().map(param_sites).collect(),
            bodies: Arc::new(bodies),
            body_of: vec![0; 16],
            report: None,
        };
        (blocks, Wiring { back, values })
    }

    /// Instance `i`'s `k` in [`sixteen`]: `i`, and `i` again in the top
    /// byte when the slots are wider than 8 bits.
    fn k_of(width: u32, i: u32) -> u128 {
        ((i as u128) << (width - 8)) | i as u128
    }

    /// The guard behind the lane executor, on plain data: a gang laid out
    /// from independent instances passes; lanes that alias — a slot or a
    /// memory written by two, a slot one writes and another reads — a table
    /// entry out of range or not the member's operand, a parameter value
    /// not the member's own, a parameter table of the wrong size or a
    /// parameter loaded outside the prelude, a member of another body, a
    /// partial lane block and a body with control flow are each refused.
    /// A `u128`-class body is admitted and runs, each lane's parameter at
    /// full width.
    #[test]
    fn the_guard_refuses_aliasing_lanes_false_tables_and_foreign_members() {
        let members = || (0..16).collect::<Vec<u32>>();
        let (blocks, wiring) = sixteen(8, |_| {});
        let sound = || gang_of(&wiring, &blocks, 0, members());
        let guard = |blocks: &BlockTapes, gang: &Gang| lanes_independent(&wiring, blocks, gang);
        assert!(guard(&blocks, &sound()));

        type Rewire = fn(&mut Vec<[Vec<u32>; 2]>);
        let aliasing: [(&str, Rewire); 3] = [
            ("two lanes write slot 1", |back| back[1][0][1] = 1),
            ("lane 1 reads the slot lane 0 writes", |back| back[1][0][0] = 1),
            ("two lanes write memory 0", |back| back[1][1][0] = 0),
        ];
        for (what, rewire) in aliasing {
            let (blocks, wiring) = sixteen(8, rewire);
            let gang = gang_of(&wiring, &blocks, 0, members());
            assert!(!lanes_independent(&wiring, &blocks, &gang), "{what}");
        }

        let mut gang = sound();
        gang.slots[5] = 32;
        assert!(!guard(&blocks, &gang), "slot entry out of range");
        gang.slots[5] = 31;
        assert!(!guard(&blocks, &gang), "slot entry that is not the member's operand");
        let mut gang = sound();
        gang.mems[2] = 16;
        assert!(!guard(&blocks, &gang), "memory entry out of range");
        assert_eq!(sound().params, (0..16).collect::<Vec<u128>>(), "lane `i` loads `k = i`");
        let mut gang = sound();
        gang.params[5] = 4;
        assert!(!guard(&blocks, &gang), "parameter value that is not the member's");
        gang.params.pop();
        assert!(!guard(&blocks, &gang), "parameter table of 15 values");
        let (mut unloaded, _) = sixteen(8, |_| {});
        let mut bodies = unloaded.bodies.to_vec();
        bodies[0].prelude = 0;
        unloaded.bodies = Arc::new(bodies);
        assert!(!guard(&unloaded, &sound()), "k in the body");

        let (mut foreign, _) = sixteen(8, |_| {});
        foreign.body_of[3] = 1;
        assert!(!guard(&foreign, &sound()), "foreign member");
        let mut gang = sound();
        gang.blocks[3] = 16;
        assert!(!guard(&blocks, &gang), "member that is no block");
        assert!(!guard(&blocks, &gang_of(&wiring, &blocks, 0, (0..15).collect())), "15 members");
        assert!(!guard(&blocks, &Gang { body: 2, ..sound() }), "body that is none");

        let (mut unrunnable, _) = sixteen(8, |_| {});
        let mut bodies = unrunnable.bodies.to_vec();
        bodies[0].ops.push(Op::Jmp { target: 5 });
        unrunnable.bodies = Arc::new(bodies);
        assert!(!guard(&unrunnable, &sound()), "body with a jump");
        let jumpy = Tape { ops: vec![Op::Jmp { target: 1 }], ..Tape::default() };
        assert_eq!(admit(&jumpy, 16), Err(Refusal::Jumps));
        assert_eq!(admit(&jumpy, 15), Err(Refusal::Few));
        assert_eq!(admit(&blocks.bodies[0], 47), Ok(32));

        // The same body on 100-bit state runs the `u128` class. Each lane
        // copies its own slot and queues its own `k` — above 2^64, so a
        // parameter table that kept only the low word would load a value
        // that is not the member's, and the guard would refuse the gang.
        let (wide, wiring) = sixteen(100, |_| {});
        assert!(wide.bodies[0].narrow.is_none(), "100-bit state is not in the u64 class");
        assert_eq!(admit(&wide.bodies[0], 16), Ok(16));
        let gang = gang_of(&wiring, &wide, 0, members());
        assert!(lanes_independent(&wiring, &wide, &gang), "wide body");
        let mut state = crate::state::PackedState::from_widths(&[100; 32], &[(100, 4); 16], &[]);
        let cur: Vec<u128> = (0..32).map(|s| ((s as u128) << 90) | (3 * s as u128)).collect();
        state.fill(&cur, &cur);
        let (mut bank, mut pending) =
            (crate::tape_engine::gang_bank(&gang, &wide.bodies), Vec::new());
        state.exclusive().exec_lanes(&wide.bodies[0], &gang, &mut bank, &mut pending);
        let got = state.dump().0;
        for i in 0..16 {
            assert_eq!(got[2 * i + 1], cur[2 * i], "lane {i} copies its 100-bit slot");
        }
        let want = (0..16).map(|i| (i, cur[2 * i as usize] as u64 % 4, k_of(100, i)));
        assert_eq!(pending, want.collect::<Vec<_>>(), "each lane stores its own full-width `k`");
    }

    /// A body over the register budget still panics naming a block of the
    /// design: the first instance to present it.
    #[test]
    fn an_over_budget_body_names_its_block() {
        #[derive(Hash)]
        struct Flat;
        impl Component for Flat {
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
