//! The compile pipeline: `Design` → per-block tapes → fused plans → batch
//! planes, one staged artifact built here and nowhere else.
//!
//! Every tape engine is an execution strategy over (a prefix of) the same
//! stages:
//!
//! | stage | type | built from | consumers |
//! |---|---|---|---|
//! | blocks | [`BlockTapes`] | the design: fold → codegen → optimize → narrow (registers and word class) → validate, plus the [`Layout`] tables | `Specialized`, `SpecializedPar`, every later stage |
//! | plans | [`Plans`] | blocks: levelized schedule cut into IR runs at native boundaries, each run fused and re-optimized | `SpecializedOpt`, the batch stage |
//! | batch | [`BatchProgs`](crate::batch::BatchProgs) | plans + blocks lowered to bit-plane programs | `SpecializedBatch` |
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
use std::time::Instant;

use mtl_core::{BlockBody, BlockId, BlockKind, Design};

use crate::artifact::{ArtifactCache, Guard, Layer, Staged};
use crate::overheads::Overheads;
use crate::tape::Tape;
use codegen::{compile_block, fold_stmts, fuse, narrow, validate, VTape};
use passes::{optimize, OptReport};

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
pub(crate) enum Run {
    Ir(Vec<u32>),
    Native(u32),
}

/// Splits a schedule into [`Run`]s.
pub(crate) fn ir_runs(design: &Design, order: &[u32]) -> Vec<Run> {
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

/// Stage 1: one validated tape per design block (empty for native
/// blocks). Pure data, shared by every tape engine.
pub(crate) struct BlockTapes {
    pub(crate) layout: Layout,
    pub(crate) tapes: Arc<Vec<Tape>>,
    /// Per-pass statistics of the per-block optimizer runs; `None` when
    /// the optimizer is off. Later stages extend a copy.
    pub(crate) report: Option<OptReport>,
}

/// One step of a fused static schedule: a fused run of tape blocks or a
/// native block call.
pub(crate) enum Chunk {
    Fused(Tape),
    Native(u32),
}

/// Stage 2: the fully static schedules of `SpecializedOpt`.
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
    if need >= Layer::Plans {
        let plans = have.plans.get_or_insert_with(|| Arc::new(fuse_plans(design, &blocks, o)));
        if need == Layer::Batch && have.batch.is_none() {
            // Lowering is code generation over the already-optimized tapes.
            let t0 = Instant::now();
            have.batch = Some(Arc::new(crate::batch::lower(&blocks, plans)));
            o.cgen += t0.elapsed();
        }
    }
    have
}

fn compile_blocks(design: &Design, opt: bool, o: &mut Overheads) -> BlockTapes {
    // Phase: comp (IR optimization — constant folding).
    let t0 = Instant::now();
    let folded: Vec<Option<Vec<mtl_core::Stmt>>> = design
        .blocks()
        .iter()
        .map(|b| match &b.body {
            BlockBody::Ir(stmts) => Some(fold_stmts(stmts)),
            _ => None,
        })
        .collect();
    o.comp += t0.elapsed();

    let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
    let mem_widths: Vec<u32> = design.mems().iter().map(|m| m.width).collect();
    let mut report = opt.then(OptReport::new);

    // Phase: cgen (tape code generation + optimizer pipeline; the
    // register budget applies to the *narrowed* result, i.e.
    // post-compaction when the optimizer is on).
    let t0 = Instant::now();
    let tapes: Vec<Tape> = design
        .blocks()
        .iter()
        .zip(&folded)
        .enumerate()
        .map(|(i, (b, f))| match f {
            Some(stmts) => {
                let vt = compile_block(design, stmts, b.kind);
                finish(vt, &widths, &mem_widths, &mut report, || {
                    let kind = match b.kind {
                        BlockKind::Comb => "comb",
                        BlockKind::Seq => "seq",
                    };
                    format!("{kind} block `{}`", design.block_path(BlockId::from_index(i)))
                })
            }
            None => Tape::default(),
        })
        .collect();
    o.cgen += t0.elapsed();

    // Phase: simc (schedules).
    let t0 = Instant::now();
    let layout = Layout {
        widths,
        mem_widths,
        comb_order: comb_order(design),
        seq_order: seq_order(design),
        reg_slots: reg_slots(design),
    };
    o.simc += t0.elapsed();
    BlockTapes { layout, tapes: Arc::new(tapes), report }
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
    let tape = narrow(&vt, widths, mem_widths, context);
    validate(&tape, widths.len(), mem_widths.len());
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

/// Fuses consecutive tape blocks into mega-tapes for the fully static
/// schedule (charged to simc: it is schedule construction).
fn fuse_plans(design: &Design, blocks: &BlockTapes, o: &mut Overheads) -> Plans {
    let t0 = Instant::now();
    let mut report = blocks.report.clone();
    let mut plan = |order: &[u32], label: &str| -> Arc<Vec<Chunk>> {
        let chunks = ir_runs(design, order).into_iter().map(|run| match run {
            Run::Ir(run) => Chunk::Fused(fuse_run(blocks, &run, &mut report, label)),
            Run::Native(b) => Chunk::Native(b),
        });
        Arc::new(chunks.collect())
    };
    let comb = plan(&blocks.layout.comb_order, "fused comb schedule");
    let seq = plan(&blocks.layout.seq_order, "fused seq schedule");
    o.simc += t0.elapsed();
    Plans { comb, seq, report }
}
