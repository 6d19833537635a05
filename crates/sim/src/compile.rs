//! The compile pipeline: `Design` → per-block tapes → fused plans → batch
//! planes, one staged artifact built here and nowhere else.
//!
//! Every tape engine is an execution strategy over (a prefix of) the same
//! stages:
//!
//! | stage | type | built from | consumers |
//! |---|---|---|---|
//! | blocks | [`BlockTapes`] | the design: fold → codegen per block, then optimize → narrow (registers and word class) → validate once per distinct [`Body`] and a relocated, validated copy per block; plus the [`Layout`] tables | `Specialized`, `SpecializedPar`, every later stage |
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

use std::collections::hash_map::Entry;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use mtl_core::{BlockBody, BlockId, BlockKind, Design, Stmt};

use crate::artifact::{ArtifactCache, Guard, Layer, Staged};
use crate::overheads::Overheads;
use crate::tape::{Op, Reg, Tape, VReg};
use codegen::{compile_block, fold_stmts, fuse, narrow, validate, VTape};
use passes::{optimize, FastMap, OptReport};

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

/// The constant-folded statements of every IR block (`None` for native
/// ones), by block index.
fn fold_blocks(design: &Design) -> Vec<Option<Vec<Stmt>>> {
    let fold = |b: &mtl_core::BlockInfo| match &b.body {
        BlockBody::Ir(stmts) => Some(fold_stmts(stmts)),
        BlockBody::Native(..) => None,
    };
    design.blocks().iter().map(fold).collect()
}

fn compile_blocks(design: &Design, opt: bool, o: &mut Overheads) -> BlockTapes {
    // Phase: comp (IR optimization — constant folding).
    let t0 = Instant::now();
    let folded = fold_blocks(design);
    o.comp += t0.elapsed();

    let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
    let mem_widths: Vec<u32> = design.mems().iter().map(|m| m.width).collect();

    // Phase: cgen (tape code generation + optimizer pipeline; the
    // register budget applies to the *narrowed* result, i.e.
    // post-compaction when the optimizer is on).
    let t0 = Instant::now();
    let (tapes, report) = block_tapes(design, &folded, &widths, &mem_widths, opt);
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

/// A block's raw tape with its state operands renumbered by first
/// occurrence (slots 0, 1, 2, …; memories likewise), next to the widths
/// those local indices stand for: everything [`finish`] reads. Instances
/// of one component differ only in which nets and memories they are wired
/// to, so they share a `Body` — and a design is mostly instances.
#[derive(PartialEq, Eq, Hash)]
struct Body {
    ops: Vec<Op<VReg>>,
    nregs: u32,
    /// Widths of the local slots (`[0]`) and memories (`[1]`), indexed
    /// like [`Table`](crate::tape::Table).
    widths: [Vec<u32>; 2],
}

/// A [`Body`] compiled against its local tables, its optimizer report,
/// and how many blocks of the design share it.
struct Compiled {
    tape: Tape,
    report: Option<OptReport>,
    instances: u64,
}

/// One tape per block of `design` (`folded` holds the IR blocks'
/// statements), each distinct [`Body`] compiled once: every instance gets
/// the body's tape relocated onto its own slots and memories and validated
/// against the design, and the report counts the body's optimizer run once
/// per instance. The tapes and the counts are exactly those of compiling
/// every block on its own, because the optimizer touches a state operand
/// only by equality and as an index into the width tables.
fn block_tapes(
    design: &Design,
    folded: &[Option<Vec<Stmt>>],
    widths: &[u32],
    mem_widths: &[u32],
    opt: bool,
) -> (Vec<Tape>, Option<OptReport>) {
    let global = [widths, mem_widths];
    let mut memo: FastMap<Body, Compiled> = FastMap::default();
    // Per table, the local index + 1 of each global one the current block
    // has named (0: not yet); cleared after every block.
    let mut local = global.map(|t| vec![0u32; t.len()]);
    let tapes = design.blocks().iter().zip(folded).enumerate().map(|(i, (b, f))| {
        let Some(stmts) = f else { return Tape::default() };
        let mut vt = compile_block(design, stmts, b.kind);
        // Local index → the global index it stands for in this block.
        let mut back: [Vec<u32>; 2] = Default::default();
        for op in &mut vt.ops {
            *op = op.map_state(&mut |t, g| {
                let (local, back) = (&mut local[t as usize][g as usize], &mut back[t as usize]);
                if *local == 0 {
                    back.push(g);
                    *local = back.len() as u32;
                }
                *local - 1
            });
        }
        for (t, back) in back.iter().enumerate() {
            back.iter().for_each(|&g| local[t][g as usize] = 0);
        }
        let body = Body {
            widths: [0, 1].map(|t| back[t].iter().map(|&g| global[t][g as usize]).collect()),
            ops: vt.ops,
            nregs: vt.nregs,
        };
        let compiled = match memo.entry(body) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => {
                let Body { ops, nregs, widths: [slots, mems] } = miss.key();
                let vt = VTape { ops: ops.clone(), nregs: *nregs, ..VTape::default() };
                let mut report = opt.then(OptReport::new);
                let tape = finish(vt, slots, mems, &mut report, || {
                    let kind = match b.kind {
                        BlockKind::Comb => "comb",
                        BlockKind::Seq => "seq",
                    };
                    format!("{kind} block `{}`", design.block_path(BlockId::from_index(i)))
                });
                miss.insert(Compiled { tape, report, instances: 0 })
            }
        };
        compiled.instances += 1;
        let Tape { ops, nregs, prelude, narrow } = &compiled.tape;
        let tape = Tape {
            ops: relocate(ops, &back),
            nregs: *nregs,
            prelude: *prelude,
            narrow: narrow.as_ref().map(|ops| relocate(ops, &back)),
        };
        validate(&tape, widths.len(), mem_widths.len());
        tape
    });
    let tapes = tapes.collect();
    let report = opt.then(|| {
        let mut report = OptReport { bodies: memo.len() as u64, ..OptReport::new() };
        // Sums commute, so the map's order does not show.
        for (body, n) in memo.values().filter_map(|c| Some((c.report.as_ref()?, c.instances))) {
            report.absorb(body, n);
        }
        report
    });
    (tapes, report)
}

/// `ops` with every local state operand replaced by the global index
/// `back` holds for it.
fn relocate<W: Copy>(ops: &[Op<Reg, W>], back: &[Vec<u32>; 2]) -> Vec<Op<Reg, W>> {
    ops.iter().map(|op| op.map_state(&mut |t, l| back[t as usize][l as usize])).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b as bits;
    use mtl_core::{elaborate, Component, Ctx, Expr, SignalRef};

    /// The compile path before the memo — every block `finish`ed on its
    /// own against the design's tables — kept as the oracle
    /// [`block_tapes`] must reproduce.
    fn direct_block_tapes(
        design: &Design,
        folded: &[Option<Vec<Stmt>>],
        widths: &[u32],
        mem_widths: &[u32],
        opt: bool,
    ) -> (Vec<Tape>, Option<OptReport>) {
        let mut report = opt.then(OptReport::new);
        let tapes = design.blocks().iter().zip(folded).map(|(b, f)| match f {
            Some(stmts) => {
                let vt = compile_block(design, stmts, b.kind);
                finish(vt, widths, mem_widths, &mut report, || "oracle".into())
            }
            None => Tape::default(),
        });
        (tapes.collect(), report)
    }

    /// Compiles `top`'s blocks through the memo and through the oracle,
    /// optimizer off and on, asserts that every tape field and the whole
    /// report agree, and returns the tapes with the number of distinct
    /// bodies.
    fn memo_equals_direct(top: &dyn Component) -> (Vec<Tape>, u64) {
        let design = elaborate(top).expect("test design elaborates");
        let folded = fold_blocks(&design);
        let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
        let mem_widths: Vec<u32> = design.mems().iter().map(|m| m.width).collect();
        let fields = |t: &Tape| (t.ops.clone(), t.nregs, t.prelude, t.narrow.clone());
        let mut last = None;
        for opt in [false, true] {
            let (want, want_rep) = direct_block_tapes(&design, &folded, &widths, &mem_widths, opt);
            let (got, got_rep) = block_tapes(&design, &folded, &widths, &mem_widths, opt);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(fields(g), fields(w), "opt={opt}: tape of block {i}");
            }
            let bodies = got_rep.as_ref().map_or(0, |r| r.bodies);
            assert_eq!(got_rep, want_rep.map(|r| OptReport { bodies, ..r }), "opt={opt}");
            last = Some((got, bodies));
        }
        last.expect("two rounds")
    }

    /// A component with every kind of state operand: slot reads, full and
    /// field writes, a memory read and a memory write, under control flow.
    struct Cell {
        width: u32,
    }

    impl Component for Cell {
        fn name(&self) -> String {
            format!("Cell_{}", self.width)
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
                b.if_(sel.bit(0), |b| b.assign_slice(q, 0, 4, a.slice(0, 4) + Expr::k(4, 3)));
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

    /// A chain of `Cell`s per width.
    struct Chain(Vec<(u32, usize)>);

    impl Component for Chain {
        fn name(&self) -> String {
            "Chain".into()
        }

        fn build(&self, c: &mut Ctx) {
            let sel = c.in_port("sel", 2);
            for &(w, n) in &self.0 {
                let mut prev = c.in_port(&format!("a{w}"), w);
                for i in 0..n {
                    let cell = c.instantiate(&format!("cell{w}_{i}"), &Cell { width: w });
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
    /// instance directly — in both word classes.
    #[test]
    fn memoised_tapes_and_report_equal_directly_compiled_ones() {
        let (tapes, bodies) = memo_equals_direct(&Chain(vec![(8, 10), (72, 9)]));
        assert_eq!(tapes.len(), 2 * 19);
        assert_eq!(bodies, 4, "calc and step, narrow and wide");
        let narrow = tapes.iter().filter(|t| t.narrow.is_some()).count();
        assert_eq!(narrow, 2 * 10, "the 72-bit cells run the wide class");
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
