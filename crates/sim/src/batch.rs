//! The bit-sliced batch engine ([`Engine::SpecializedBatch`]): 64 trial
//! lanes per tape pass.
//!
//! [`Engine::SpecializedBatch`]: crate::Engine::SpecializedBatch
//!
//! Fault and fuzz campaigns run the *same* design thousands of times with
//! slightly different stimulus. The scalar engines pay the full cost of
//! every pass per trial; this engine transposes the problem instead: each
//! net bit becomes one `u64` *plane* word whose bit `L` is that net bit's
//! value on trial lane `L`. One pass over the lowered program then
//! advances all 64 lanes at once — a bitwise AND is 64 lane-ANDs, an adder
//! becomes a ripple-carry over planes, and divergence of any lane against
//! a designated golden lane is a single XOR-and-reduce scan over the
//! plane state ([`BatchEngine::divergence_masks`] via `Sim`).
//!
//! The engine lowers the `SpecializedOpt` fused tapes (reusing the whole
//! optimizer pipeline) into plane programs: the same [`Op`]s over [`Opd`]
//! plane ranges instead of scalar registers, jumps included. Lanes that
//! take a jump (a `Switch` arm the optimizer does not if-convert, every
//! branch when the optimizer is off) leave the *active-lane mask* and wait
//! at the target; stores blend under the mask, so each lane sees exactly
//! the ops its scalar run would execute (see [`BatchEngine::exec_planes`]).
//!
//! Faults are not this module's business: the `Sim` wrapper runs its one
//! forced-settle protocol over the lane-addressed primitives below
//! (`peek_lane`, `force`, `exec_block` on the per-block programs), which
//! is why a faulty lane's trace is byte-identical to a scalar engine
//! running the same injection.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::Design;

use crate::artifact::Staged;
use crate::compile::passes::{approx_bits, OptReport};
use crate::compile::{BlockTapes, Chunk, Plans};
use crate::overheads::Overheads;
use crate::profile::EngineStats;
use crate::sim::EngineImpl;
use crate::tape::{mask_of, Effect, Op, Role, Tape};

/// Lane capacity of the plane state: one bit per lane in a `u64` word.
/// Storage is always this wide; [`crate::SimConfig::lanes`] only restricts
/// which lanes count as active trials.
pub const LANES: u32 = 64;

/// A plane-program operand: an arena plane range holding one tape
/// register's value, `w` planes wide. For a source, `w` is the register's
/// *value width* at this op point — a static upper bound on the
/// significant bits of the scalar value (reads past it yield zero planes,
/// which is exactly the scalar zero-extension); for a destination it is
/// the result's value width ([`def_width`]). `Select`'s range base is the
/// exception: its `off` indexes the program's option table, where the
/// `n` option operands sit consecutively.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Opd {
    off: u32,
    w: u32,
}

/// One lowered tape: the tape's ops, index for index (jump targets stay
/// op indices), over arena plane ranges.
#[derive(Debug)]
pub(crate) struct BatchProg {
    ops: Vec<Op<Opd>>,
    /// The operands of every `Select`'s options (see [`Opd`]).
    opts: Vec<Opd>,
    /// Arena planes this program needs.
    arena: u32,
}

/// One step of a lowered plan: a fused chunk's own program, or a design
/// block's program (a gang member) by index into [`BatchProgs::blocks`].
#[derive(Debug)]
pub(crate) enum Step {
    Fused(BatchProg),
    Block(u32),
}

/// The batch stage of the compiled artifact: plane programs for the
/// fused comb/seq plans plus one per design block (the per-block programs
/// serve `exec_block`, i.e. the wrapper's levelized forced-settle fault
/// path, and the gang members of the plans). Pure data, cached via
/// [`crate::ArtifactCache`].
#[derive(Debug)]
pub(crate) struct BatchProgs {
    pub(crate) comb: Vec<Step>,
    pub(crate) seq: Vec<Step>,
    pub(crate) blocks: Vec<BatchProg>,
    /// Max arena planes over all programs (one shared scratch arena).
    pub(crate) arena_planes: u32,
}

impl BatchProgs {
    fn prog<'a>(&'a self, step: &'a Step) -> &'a BatchProg {
        match step {
            Step::Fused(prog) => prog,
            Step::Block(b) => &self.blocks[*b as usize],
        }
    }
}

/// Significant bits of a constant (`0` for zero).
fn bits(v: u128) -> u32 {
    128 - v.leading_zeros()
}

/// The register defined by `op` and its value width, given the current
/// per-register value widths `vw`. `None` for stores and jumps. This is
/// the single source of truth for width tracking: both lowering passes
/// call it, so arena sizing and emitted operand widths cannot drift. The
/// transfer itself is the optimizer's known-bits one, over all-ones masks.
fn def_width(op: &Op, vw: &[u32], widths: &[u32], mem_widths: &[u32]) -> Option<(u16, u32)> {
    let dst = op.def()?;
    Some((dst, bits(approx_bits(op, |r| mask_of(vw[r as usize]), widths, mem_widths))))
}

/// Lowers one scalar tape to a batch program.
///
/// Widths are tracked in textual order, and [`BatchEngine::exec_planes`]
/// runs a pure def for every lane whether or not that lane is on the def's
/// path. Both are right only if each use's latest textual def runs on every
/// path that reaches the use — which codegen's fresh registers and the
/// optimizer's positional `realloc` give, and which the emit pass asserts.
///
/// # Panics
///
/// Panics if a forward jump skips a use's latest textual def and lands at
/// or before the use (a phi-like register).
fn lower_tape(tape: &Tape, widths: &[u32], mem_widths: &[u32]) -> BatchProg {
    let n = tape.nregs as usize;
    // Pass 1: track per-register value widths through the tape; a
    // register's arena range must fit its widest definition (compaction
    // reuses registers across widths).
    let mut vw = vec![0u32; n];
    let mut aw = vec![0u32; n];
    for op in &tape.ops {
        if let Some((dst, w)) = def_width(op, &vw, widths, mem_widths) {
            vw[dst as usize] = w;
            aw[dst as usize] = aw[dst as usize].max(w);
        }
    }
    let mut off = vec![0u32; n];
    let mut total = 0u32;
    for r in 0..n {
        off[r] = total;
        total += aw[r];
    }

    // Pass 2: emit, with source operands at their pre-op widths.
    // `landings` holds the targets of the jumps seen so far that lie ahead;
    // the nearest one when a register is defined is where lanes that
    // skipped the def rejoin, so the def is usable only before it.
    let mut vw = vec![0u32; n];
    let mut usable_before = vec![u32::MAX; n];
    let mut landings = BinaryHeap::new();
    let mut ops = Vec::with_capacity(tape.ops.len());
    let mut opts = Vec::new();
    for (i, op) in tape.ops.iter().enumerate() {
        let i = i as u32;
        while landings.peek().is_some_and(|&Reverse(target)| target <= i) {
            landings.pop();
        }
        let d = def_width(op, &vw, widths, mem_widths);
        let o = |r: u16| {
            assert!(
                i < usable_before[r as usize],
                "op {i} ({op:?}) uses r{r}, whose definition a jump to {} skips",
                usable_before[r as usize]
            );
            Opd { off: off[r as usize], w: vw[r as usize] }
        };
        ops.push(op.map_regs(&mut |role, r| match role {
            Role::Def => Opd { off: off[r as usize], w: d.expect("a def has a width").1 },
            Role::Use => o(r),
            Role::Range(k) => {
                let first = opts.len() as u32;
                opts.extend((0..k).map(|i| o(r + i)));
                Opd { off: first, w: k as u32 }
            }
        }));
        if let Some((dst, w)) = d {
            vw[dst as usize] = w;
            usable_before[dst as usize] = landings.peek().map_or(u32::MAX, |&Reverse(t)| t);
        }
        if let Effect::Jump { target, .. } = op.effect() {
            landings.push(Reverse(target));
        }
    }
    BatchProg { ops, opts, arena: total }
}

/// Reads plane `p` of an operand: zero past the value width (scalar
/// zero-extension; also hides stale planes from a previous wider
/// definition of a reused register).
#[inline(always)]
fn rd(arena: &[u64], o: Opd, p: u32) -> u64 {
    if p < o.w {
        arena[(o.off + p) as usize]
    } else {
        0
    }
}

/// All-ones when bit `p` of `mask` is set, else zero.
#[inline(always)]
fn mb(mask: u128, p: u32) -> u64 {
    0u64.wrapping_sub(((mask >> p) & 1) as u64)
}

/// Lane mask of `value(b) >= k` (unsigned), by an MSB-down constant
/// compare over the operand planes.
fn ge_const(arena: &[u64], b: Opd, k: u128) -> u64 {
    let top = b.w.max(bits(k));
    let mut lt = 0u64;
    let mut eq = !0u64;
    for p in (0..top).rev() {
        let bp = rd(arena, b, p);
        let kp = mb(k, p);
        lt |= eq & !bp & kp;
        eq &= !(bp ^ kp);
    }
    !lt
}

/// Reconstructs one lane's scalar value from `w` planes at `off`.
#[inline]
fn gather(planes: &[u64], off: u32, w: u32, lane: usize) -> u128 {
    let mut v = 0u128;
    for p in 0..w {
        v |= (((planes[(off + p) as usize] >> lane) & 1) as u128) << p;
    }
    v
}

/// Writes one lane's scalar value into `w` planes at `off`.
#[inline]
fn scatter(planes: &mut [u64], off: u32, w: u32, lane: usize, v: u128) {
    let m = 1u64 << lane;
    for p in 0..w {
        let word = &mut planes[(off + p) as usize];
        *word = (*word & !m) | ((((v >> p) & 1) as u64) << lane);
    }
}

/// Writes the 64 per-lane values in `vals` into `w` planes at `dst`
/// (the full transpose, used by the per-lane ops).
fn scatter_all(arena: &mut [u64], dst: u32, w: u32, vals: &[u128; 64]) {
    for p in 0..w {
        let mut word = 0u64;
        for (lane, v) in vals.iter().enumerate() {
            word |= (((v >> p) & 1) as u64) << lane;
        }
        arena[(dst + p) as usize] = word;
    }
}

/// Lane mask of `value(o) != 0`.
#[inline]
fn nonzero(arena: &[u64], o: Opd) -> u64 {
    let mut acc = 0u64;
    for p in 0..o.w {
        acc |= arena[(o.off + p) as usize];
    }
    acc
}

/// Stores `src` to the `(first plane, plane count)` range of `tgt` on the
/// lanes in `take`.
#[inline]
fn blend(tgt: &mut [u64], (net, nw): (u32, u32), arena: &[u64], src: Opd, take: u64) {
    for p in 0..nw {
        let old = tgt[(net + p) as usize];
        tgt[(net + p) as usize] = (rd(arena, src, p) & take) | (old & !take);
    }
}

/// Queues one deferred memory write per lane selected by `take`.
fn push_mem_writes(
    arena: &[u64],
    pending: &mut [Vec<(u32, u64, u128)>],
    take: u64,
    mem: u32,
    addr: Opd,
    data: Opd,
    words: u64,
) {
    if take == 0 {
        return;
    }
    for (lane, pend) in pending.iter_mut().enumerate() {
        if (take >> lane) & 1 != 0 {
            let a = (gather(arena, addr.off, addr.w.min(64), lane) as u64) % words;
            pend.push((mem, a, gather(arena, data.off, data.w, lane)));
        }
    }
}

/// The bit-sliced batch backend; see the module docs.
pub(crate) struct BatchEngine {
    design: Arc<Design>,
    widths: Vec<u32>,
    /// Plane offset of each net in `cur`/`next` (prefix sums of widths).
    net_off: Vec<u32>,
    mem_widths: Vec<u32>,
    /// Packed plane state: one `u64` per net bit, lanes across the word.
    cur: Vec<u64>,
    next: Vec<u64>,
    /// Lane-interleaved memory words: `mems[mem][addr * 64 + lane]`.
    mems: Vec<Vec<u128>>,
    /// Deferred memory writes, per lane (committed at the clock edge).
    pending: Vec<Vec<(u32, u64, u128)>>,
    progs: Arc<BatchProgs>,
    reg_slots: Vec<u32>,
    /// Shared scratch arena for plane programs.
    arena: Vec<u64>,
    sel_scratch: Vec<u64>,
    /// Lanes waiting at each op index of the running program for
    /// execution to reach the jump target they took; all zero between
    /// programs.
    parked: Vec<u64>,
    lanes: u32,
    cycles: u64,
    dirty: bool,
    track_activity: bool,
    activity: Vec<u64>,
    prof: Option<EngineStats>,
    opt_report: Option<OptReport>,
}

/// Plane offset of each net in the packed state (prefix sums of widths)
/// and the total plane count.
fn net_offsets(widths: &[u32]) -> (Vec<u32>, u32) {
    let mut total = 0u32;
    let mut off = Vec::with_capacity(widths.len());
    for w in widths {
        off.push(total);
        total += w;
    }
    (off, total)
}

/// Lowers the fused plans and the per-block tapes to plane programs.
pub(crate) fn lower(blocks: &BlockTapes, plans: &Plans) -> BatchProgs {
    let (widths, mem_widths) = (&blocks.layout.widths, &blocks.layout.mem_widths);
    let blocks: Vec<BatchProg> =
        blocks.tapes.iter().map(|t| lower_tape(t, widths, mem_widths)).collect();
    // Lanes are trials here, so a gang runs as its members' block programs.
    let lower_chunk = |c: &Chunk| match c {
        Chunk::Fused(t) => vec![Step::Fused(lower_tape(t, widths, mem_widths))],
        Chunk::Gang(g) => g.blocks.iter().map(|&b| Step::Block(b)).collect(),
        Chunk::Native(_) => unreachable!("batch engine rejects native blocks"),
    };
    let comb: Vec<Step> = plans.comb.iter().flat_map(lower_chunk).collect();
    let seq: Vec<Step> = plans.seq.iter().flat_map(lower_chunk).collect();
    let mut progs = BatchProgs { comb, seq, blocks, arena_planes: 0 };
    let steps = progs.comb.iter().chain(&progs.seq).map(|step| progs.prog(step));
    progs.arena_planes = steps.chain(&progs.blocks).map(|prog| prog.arena).max().unwrap_or(0);
    progs
}

impl BatchEngine {
    /// Allocates the per-instance plane state around a batch-stage
    /// artifact (no compilation happens here).
    pub(crate) fn new(design: Arc<Design>, staged: &Staged, lanes: u32, o: &mut Overheads) -> Self {
        let layout = &staged.blocks.as_ref().expect("batch stage implies block stage").layout;
        let plans = staged.plans.as_ref().expect("batch stage implies plan stage");
        let progs = staged.batch.clone().expect("resolved to the batch stage");

        // Phase: wrap (plane state allocation).
        let t0 = Instant::now();
        let widths = layout.widths.clone();
        let (net_off, total) = net_offsets(&widths);
        let cur = vec![0u64; total as usize];
        let next = vec![0u64; total as usize];
        let mems: Vec<Vec<u128>> =
            design.mems().iter().map(|m| vec![0u128; m.words as usize * LANES as usize]).collect();
        o.wrap += t0.elapsed();

        let arena = vec![0u64; progs.arena_planes as usize];
        Self {
            design,
            widths,
            net_off,
            mem_widths: layout.mem_widths.clone(),
            cur,
            next,
            mems,
            pending: (0..LANES).map(|_| Vec::new()).collect(),
            progs,
            reg_slots: layout.reg_slots.clone(),
            arena,
            sel_scratch: Vec::new(),
            parked: Vec::new(),
            lanes: lanes.clamp(1, LANES),
            cycles: 0,
            dirty: true,
            track_activity: false,
            activity: Vec::new(),
            prof: None,
            opt_report: plans.report.clone(),
        }
    }

    /// Executes a plane program: each scalar op's plane form, over
    /// operands lowered by [`lower_tape`].
    ///
    /// Control flow is an *active-lane mask*. A jump moves the lanes that
    /// take it from `active` to `parked[target]`, and they rejoin when
    /// execution reaches the target — jumps are strictly forward
    /// (`validate`), so one pass in op order visits every target after
    /// every jump to it. Stores (the only ops with an effect outside the
    /// arena) blend under `active`; pure ops run for all lanes, which is
    /// harmless because no lane reads a register on a path that skipped its
    /// definition ([`lower_tape`] asserts it). A stretch no lane is in is
    /// skipped.
    fn exec_planes(&mut self, prog: &BatchProg) {
        let BatchProg { ops, opts, .. } = prog;
        let Self { arena, cur, next, mems, pending, sel_scratch, parked, net_off, widths, .. } =
            self;
        let (cur, next): (&mut [u64], &mut [u64]) = (cur, next);
        // A store's target planes (first plane, plane count) and buffer.
        let planes_of = |slot: u32| (net_off[slot as usize], widths[slot as usize]);
        let to_next = |op: &Op<Opd>| matches!(op.effect(), Effect::Write { next: true, .. });
        if parked.len() <= ops.len() {
            parked.resize(ops.len() + 1, 0);
        }
        let mut active = !0u64;
        for (pc, op) in ops.iter().enumerate() {
            active |= std::mem::take(&mut parked[pc]);
            if active == 0 {
                continue;
            }
            match *op {
                Op::Const { dst, val } => {
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = mb(val, p);
                    }
                }
                Op::Read { dst, slot } => {
                    let (net, _) = planes_of(slot);
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = cur[(net + p) as usize];
                    }
                }
                Op::Copy { dst, a } => {
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = rd(arena, a, p);
                    }
                }
                Op::Add { dst, a, b, mask } => {
                    let mut c = 0u64;
                    for p in 0..dst.w {
                        let ap = rd(arena, a, p);
                        let bp = rd(arena, b, p);
                        let s = ap ^ bp ^ c;
                        c = (ap & bp) | (c & (ap | bp));
                        arena[(dst.off + p) as usize] = s & mb(mask, p);
                    }
                }
                Op::Sub { dst, a, b, mask } => {
                    // a + !b + 1; inverting the clamped plane read gives the
                    // infinite-width complement for free.
                    let mut c = !0u64;
                    for p in 0..dst.w {
                        let ap = rd(arena, a, p);
                        let bp = !rd(arena, b, p);
                        let s = ap ^ bp ^ c;
                        c = (ap & bp) | (c & (ap | bp));
                        arena[(dst.off + p) as usize] = s & mb(mask, p);
                    }
                }
                Op::And { dst, a, b } => {
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = rd(arena, a, p) & rd(arena, b, p);
                    }
                }
                Op::Or { dst, a, b } => {
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = rd(arena, a, p) | rd(arena, b, p);
                    }
                }
                Op::Xor { dst, a, b } => {
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = rd(arena, a, p) ^ rd(arena, b, p);
                    }
                }
                Op::Not { dst, a, mask } => {
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = !rd(arena, a, p) & mb(mask, p);
                    }
                }
                Op::Neg { dst, a, mask } => {
                    // !a + 1.
                    let mut c = !0u64;
                    for p in 0..dst.w {
                        let av = !rd(arena, a, p);
                        let s = av ^ c;
                        c &= av;
                        arena[(dst.off + p) as usize] = s & mb(mask, p);
                    }
                }
                Op::Shl { dst, a, b, width, mask } => {
                    // Lanes shifting by >= width produce zero (scalar rule);
                    // amounts >= 128 are covered too since width <= 128.
                    let ge = ge_const(arena, b, width as u128);
                    let n = dst.w as usize;
                    let mut buf = [0u64; 128];
                    for p in 0..a.w.min(dst.w) {
                        buf[p as usize] = arena[(a.off + p) as usize];
                    }
                    for k in 0..b.w.min(7) {
                        let sel = rd(arena, b, k);
                        if sel == 0 {
                            continue;
                        }
                        let sh = 1usize << k;
                        for p in (0..n).rev() {
                            let lo = if p >= sh { buf[p - sh] } else { 0 };
                            buf[p] = (buf[p] & !sel) | (lo & sel);
                        }
                    }
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = buf[p as usize] & !ge & mb(mask, p);
                    }
                }
                Op::Shr { dst, a, b, width } => {
                    let ge = ge_const(arena, b, width as u128);
                    let n = dst.w as usize;
                    let mut buf = [0u64; 128];
                    for p in 0..a.w.min(dst.w) {
                        buf[p as usize] = arena[(a.off + p) as usize];
                    }
                    for k in 0..b.w.min(7) {
                        let sel = rd(arena, b, k);
                        if sel == 0 {
                            continue;
                        }
                        let sh = 1usize << k;
                        for p in 0..n {
                            let hi = if p + sh < n { buf[p + sh] } else { 0 };
                            buf[p] = (buf[p] & !sel) | (hi & sel);
                        }
                    }
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = buf[p as usize] & !ge;
                    }
                }
                Op::Eq { dst, a, b } | Op::Ne { dst, a, b } => {
                    let top = a.w.max(b.w);
                    let mut ne = 0u64;
                    for p in 0..top {
                        ne |= rd(arena, a, p) ^ rd(arena, b, p);
                    }
                    arena[dst.off as usize] = if matches!(op, Op::Ne { .. }) { ne } else { !ne };
                }
                // Unsigned compare: an MSB-down borrow scan over the
                // operand planes.
                Op::Lt { dst, a, b } | Op::Ge { dst, a, b } => {
                    let top = a.w.max(b.w);
                    let mut lt = 0u64;
                    let mut eq = !0u64;
                    for p in (0..top).rev() {
                        let ap = rd(arena, a, p);
                        let bp = rd(arena, b, p);
                        lt |= eq & !ap & bp;
                        eq &= !(ap ^ bp);
                    }
                    arena[dst.off as usize] = if matches!(op, Op::Ge { .. }) { !lt } else { lt };
                }
                // Signed compare over `128 - ext` bits: flip the sign plane
                // of both operands, then compare unsigned (the classic
                // bias trick).
                Op::LtS { dst, a, b, ext } | Op::GeS { dst, a, b, ext } => {
                    let sw = 128 - ext;
                    let mut lt = 0u64;
                    let mut eq = !0u64;
                    for p in (0..sw).rev() {
                        let mut ap = rd(arena, a, p);
                        let mut bp = rd(arena, b, p);
                        if p == sw - 1 {
                            ap = !ap;
                            bp = !bp;
                        }
                        lt |= eq & !ap & bp;
                        eq &= !(ap ^ bp);
                    }
                    arena[dst.off as usize] = if matches!(op, Op::GeS { .. }) { !lt } else { lt };
                }
                Op::RedAnd { dst, a, mask } => {
                    let top = a.w.max(bits(mask));
                    let mut acc = !0u64;
                    for p in 0..top {
                        let av = rd(arena, a, p);
                        acc &= av ^ !mb(mask, p);
                    }
                    arena[dst.off as usize] = acc;
                }
                Op::RedOr { dst, a } => {
                    arena[dst.off as usize] = nonzero(arena, a);
                }
                Op::RedXor { dst, a } => {
                    let mut acc = 0u64;
                    for p in 0..a.w {
                        acc ^= arena[(a.off + p) as usize];
                    }
                    arena[dst.off as usize] = acc;
                }
                Op::Slice { dst, a, lo, mask } => {
                    // Ascending is alias-safe for dst == a: reads are at
                    // p + lo >= p, always ahead of the write cursor.
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = rd(arena, a, p + lo) & mb(mask, p);
                    }
                }
                Op::ShlOr { dst, a, b, shift } => {
                    // Descending is alias-safe for dst == a: reads are at
                    // p - shift <= p, always behind the write cursor.
                    for p in (0..dst.w).rev() {
                        let av = if p >= shift { rd(arena, a, p - shift) } else { 0 };
                        arena[(dst.off + p) as usize] = av | rd(arena, b, p);
                    }
                }
                Op::Mux { dst, cond, t, f } => {
                    let cz = nonzero(arena, cond);
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] =
                            (rd(arena, t, p) & cz) | (rd(arena, f, p) & !cz);
                    }
                }
                Op::Mux2 { dst, c1, t1, c2, t2, f } => {
                    let cz1 = nonzero(arena, c1);
                    let cz2 = nonzero(arena, c2);
                    let s2 = !cz1 & cz2;
                    let s3 = !cz1 & !cz2;
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = (rd(arena, t1, p) & cz1)
                            | (rd(arena, t2, p) & s2)
                            | (rd(arena, f, p) & s3);
                    }
                }
                Op::Select { dst, sel, base, n } => {
                    // Per-option lane masks: option i takes lanes where
                    // sel == i; the last option also takes sel >= n-1
                    // (the scalar index clamp).
                    let n = n as usize;
                    let opts = &opts[base.off as usize..][..n];
                    sel_scratch.clear();
                    sel_scratch.resize(n, 0);
                    let mut rest = 0u64;
                    for (i, slot) in sel_scratch.iter_mut().enumerate().take(n - 1) {
                        let ki = i as u128;
                        if bits(ki) > sel.w {
                            continue; // unrepresentable in sel's width: no lanes
                        }
                        let mut m = !0u64;
                        for p in 0..sel.w {
                            m &= rd(arena, sel, p) ^ !mb(ki, p);
                        }
                        *slot = m;
                        rest |= m;
                    }
                    sel_scratch[n - 1] = !rest;
                    for p in 0..dst.w {
                        let mut v = 0u64;
                        for (i, opt) in opts.iter().enumerate() {
                            v |= rd(arena, *opt, p) & sel_scratch[i];
                        }
                        arena[(dst.off + p) as usize] = v;
                    }
                }
                Op::Sext { dst, a, sign_bit, ext_or } => {
                    let s = rd(arena, a, sign_bit.trailing_zeros());
                    for p in 0..dst.w {
                        arena[(dst.off + p) as usize] = rd(arena, a, p) | (s & mb(ext_or, p));
                    }
                }
                // Multiply has no cheap plane form; gather each lane, use
                // the exact scalar formula, scatter back. Rare in RTL
                // datapaths.
                Op::Mul { dst, a, b, mask } => {
                    let mut vals = [0u128; 64];
                    for (lane, v) in vals.iter_mut().enumerate() {
                        let av = gather(arena, a.off, a.w, lane);
                        let bv = gather(arena, b.off, b.w, lane);
                        *v = av.wrapping_mul(bv) & mask;
                    }
                    scatter_all(arena, dst.off, dst.w, &vals);
                }
                // Arithmetic right shift, per lane like `Mul`.
                Op::Sra { dst, a, b, width, mask, ext } => {
                    let mut vals = [0u128; 64];
                    for (lane, v) in vals.iter_mut().enumerate() {
                        let av = gather(arena, a.off, a.w, lane);
                        let bv = gather(arena, b.off, b.w, lane);
                        let amt = bv.min(width as u128) as u32;
                        let x = ((av << ext) as i128) >> ext;
                        *v = ((x >> amt.min(127)) as u128) & mask;
                    }
                    scatter_all(arena, dst.off, dst.w, &vals);
                }
                // Stores: the lanes in `take` get the source planes, the
                // others keep the target planes.
                Op::Write { slot, src } | Op::WriteNext { slot, src } => {
                    let tgt = if to_next(op) { &mut *next } else { &mut *cur };
                    blend(tgt, planes_of(slot), arena, src, active);
                }
                Op::WriteMasked { slot, src, lo, field }
                | Op::WriteNextMasked { slot, src, lo, field } => {
                    let (net, nw) = planes_of(slot);
                    let tgt = if to_next(op) { &mut *next } else { &mut *cur };
                    for p in (0..nw).filter(|p| (field >> p) & 1 != 0) {
                        let v = if p >= lo { rd(arena, src, p - lo) } else { 0 };
                        let old = tgt[(net + p) as usize];
                        tgt[(net + p) as usize] = (v & active) | (old & !active);
                    }
                }
                // Predicated store: of the active lanes, those where the
                // condition (xor `neg`) holds.
                Op::WriteIf { slot, cond, src, neg } | Op::WriteNextIf { slot, cond, src, neg } => {
                    let cz = nonzero(arena, cond);
                    let take = active & if neg { !cz } else { cz };
                    let tgt = if to_next(op) { &mut *next } else { &mut *cur };
                    blend(tgt, planes_of(slot), arena, src, take);
                }
                Op::MemRead { dst, mem, addr, words } => {
                    let m = &mems[mem as usize];
                    let mut vals = [0u128; 64];
                    for (lane, v) in vals.iter_mut().enumerate() {
                        let a = (gather(arena, addr.off, addr.w.min(64), lane) as u64) % words;
                        *v = m[a as usize * LANES as usize + lane];
                    }
                    scatter_all(arena, dst.off, dst.w, &vals);
                }
                Op::MemWrite { mem, addr, data, words } => {
                    push_mem_writes(arena, pending, active, mem, addr, data, words);
                }
                Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                    let cz = nonzero(arena, cond);
                    let take = active & if neg { !cz } else { cz };
                    push_mem_writes(arena, pending, take, mem, addr, data, words);
                }
                Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } => {
                    // The lanes that fall through.
                    let stay = match *op {
                        Op::Jz { cond, .. } => nonzero(arena, cond),
                        Op::JneConst { a, k, .. } => !(0..a.w.max(bits(k)))
                            .fold(0, |ne, p| ne | (rd(arena, a, p) ^ mb(k, p))),
                        _ => 0,
                    };
                    parked[target as usize] |= active & !stay;
                    active &= stay;
                }
            }
        }
        parked[ops.len()] = 0;
    }

    /// One unconditional pass over the fused combinational programs
    /// (the plane analog of the scalar static engine's full pass).
    fn full_pass(&mut self) {
        let progs = self.progs.clone();
        for step in &progs.comb {
            self.exec_planes(progs.prog(step));
        }
        self.dirty = false;
        if let Some(p) = self.prof.as_mut() {
            p.settles += 1;
        }
    }

    fn gather_cur(&self, slot: u32, lane: u32) -> u128 {
        gather(&self.cur, self.net_off[slot as usize], self.widths[slot as usize], lane as usize)
    }
}

impl EngineImpl for BatchEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.opt_report.as_ref()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        // Broadcast: all 64 lanes receive the stimulus. Change detection
        // compares `cur` only and updates both buffers, mirroring the
        // scalar tape engine's poke.
        let val = v.as_u128();
        let s = slot as usize;
        let off = self.net_off[s] as usize;
        let w = self.widths[s];
        let mut changed = false;
        for p in 0..w {
            let want = mb(val, p);
            if self.cur[off + p as usize] != want {
                changed = true;
                break;
            }
        }
        if changed {
            for p in 0..w {
                let want = mb(val, p);
                self.cur[off + p as usize] = want;
                self.next[off + p as usize] = want;
            }
            self.dirty = true;
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        Bits::new(self.widths[slot as usize], self.gather_cur(slot, 0))
    }

    fn eval(&mut self) {
        if self.dirty {
            self.full_pass();
        }
    }

    fn cycle(&mut self) {
        self.eval();
        self.edge();
        self.full_pass();
        self.cycles += 1;
    }

    /// Clock-edge half of a cycle: sequential programs, register plane
    /// commit, per-lane memory commit.
    fn edge(&mut self) {
        let progs = self.progs.clone();
        for step in &progs.seq {
            self.exec_planes(progs.prog(step));
        }
        for i in 0..self.reg_slots.len() {
            let slot = self.reg_slots[i] as usize;
            let off = self.net_off[slot] as usize;
            for p in 0..self.widths[slot] as usize {
                let c = self.cur[off + p];
                let n = self.next[off + p];
                if self.track_activity {
                    // Lane-0 toggles, matching the scalar engines'
                    // activity counter on the golden lane.
                    self.activity[slot] += (c ^ n) & 1;
                }
                self.cur[off + p] = n;
            }
        }
        for lane in 0..LANES as usize {
            if self.pending[lane].is_empty() {
                continue;
            }
            let mut pend = std::mem::take(&mut self.pending[lane]);
            for &(mem, addr, v) in &pend {
                self.mems[mem as usize][addr as usize * LANES as usize + lane] = v;
            }
            pend.clear();
            self.pending[lane] = pend;
        }
    }

    fn exec_block(&mut self, b: u32) {
        let progs = self.progs.clone();
        self.exec_planes(&progs.blocks[b as usize]);
    }

    fn force(&mut self, lane: u32, slot: u32, v: Bits, also_next: bool) {
        let s = slot as usize;
        scatter(&mut self.cur, self.net_off[s], self.widths[s], lane as usize, v.as_u128());
        if also_next {
            scatter(&mut self.next, self.net_off[s], self.widths[s], lane as usize, v.as_u128());
        }
    }

    fn settle_full(&mut self) {
        self.full_pass();
    }

    fn bump_cycles(&mut self) {
        self.cycles += 1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        Bits::new(self.mem_widths[mem], self.mems[mem][addr as usize * LANES as usize])
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        let val = v.as_u128() & mask_of(self.mem_widths[mem]);
        let base = addr as usize * LANES as usize;
        for lane in 0..LANES as usize {
            self.mems[mem][base + lane] = val;
        }
        self.dirty = true;
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

    fn lane_count(&self) -> u32 {
        self.lanes
    }

    fn poke_lane(&mut self, lane: u32, slot: u32, v: Bits) {
        assert!(lane < self.lanes, "lane {lane} out of range ({} lanes)", self.lanes);
        let val = v.as_u128();
        let s = slot as usize;
        let off = self.net_off[s];
        let w = self.widths[s];
        let m = 1u64 << lane;
        let mut changed = false;
        for p in 0..w {
            let bit = (((val >> p) & 1) as u64) << lane;
            if self.cur[(off + p) as usize] & m != bit {
                changed = true;
            }
            self.cur[(off + p) as usize] = (self.cur[(off + p) as usize] & !m) | bit;
            self.next[(off + p) as usize] = (self.next[(off + p) as usize] & !m) | bit;
        }
        if changed {
            self.dirty = true;
        }
    }

    fn peek_lane(&self, lane: u32, slot: u32) -> Bits {
        assert!(lane < self.lanes, "lane {lane} out of range ({} lanes)", self.lanes);
        Bits::new(self.widths[slot as usize], self.gather_cur(slot, lane))
    }

    fn divergence_masks(&self, golden: u32, out: &mut Vec<u64>) -> bool {
        assert!(golden < self.lanes, "golden lane {golden} out of range ({} lanes)", self.lanes);
        let active: u64 = if self.lanes >= LANES { !0 } else { (1u64 << self.lanes) - 1 };
        out.clear();
        out.reserve(self.widths.len());
        let mut any = 0u64;
        for (slot, &w) in self.widths.iter().enumerate() {
            let off = self.net_off[slot] as usize;
            let mut acc = 0u64;
            for p in 0..w as usize {
                let plane = self.cur[off + p];
                let g = 0u64.wrapping_sub((plane >> golden) & 1);
                acc |= plane ^ g;
            }
            let m = acc & active;
            any |= m;
            out.push(m);
        }
        any != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::passes::eval_pure;
    use crate::compile::{fuse_run, Gang, Layout};
    use crate::state::PackedState;
    use crate::tape::{pure, rnd128, Kind, VReg};
    use mtl_core::{elaborate, Component, Ctx};

    /// A design that is nothing but the memory the sample ops address.
    struct OneMem(u32);

    impl Component for OneMem {
        fn name(&self) -> String {
            "OneMem".into()
        }

        fn build(&self, c: &mut Ctx) {
            c.mem("m", 4, self.0);
        }
    }

    /// One lane's state: `cur` and `next` by slot, then the memory words,
    /// then (after a run) the queued memory writes.
    type LaneState = (Vec<u128>, Vec<u128>, Vec<u128>, Vec<(u32, u64, u128)>);

    /// The instruction set has three per-op implementations: `pure` — run
    /// by the scalar executor (instantiated at `u128` and at `u64`), by the
    /// lane executor (`[u64; 16]`, no jumps) and by `eval_pure` (words that
    /// may be unknown) — the width transfer `approx_bits` behind
    /// `def_width`, and the plane loops. For every kind in the table, over
    /// narrow, word-sized and wide values with distinct operands on all 64
    /// lanes, they must agree — with every lane active and under a
    /// divergent lane mask. Beyond 64 bits, where no executor runs lanes
    /// yet, `pure` over `[u128; 4]` must equal four scalar runs.
    ///
    /// The op under test sits between loads of slots 0..=5 into `r0..=r5`
    /// and a store of its result to slot 6; slot 7 is the store target of
    /// [`Kind::sample`]. Block 0 is that tape, block 1 the same behind a
    /// `Jz` to the end on slot 8, which is 0 or 1 per lane: the lanes that
    /// jump must keep their state, the others run the op with part of the
    /// mask off. In the last round slot 8 is zero everywhere, so block 1
    /// is skipped with no lane active.
    /// Up to 64 bits both tapes classify into the `u64` class — except a
    /// `ShlOr` whose result really is wider — which the scalar reference
    /// then runs; the reference is the same tape with its narrow program
    /// removed.
    #[test]
    fn every_kind_agrees_across_scalar_fold_and_planes_under_divergent_lanes() {
        let mut seed = 7u64;
        let mut rnd = move || rnd128(&mut seed);
        for w in [1, 7, 63, 64, 65, 128] {
            let design = Arc::new(elaborate(&OneMem(w)).expect("memory-only design"));
            for &kind in Kind::ALL {
                let mut op = kind.sample(w, 8, &mut rnd);
                let really_wider = matches!(op, Op::ShlOr { shift, .. } if w + shift > 64);
                let narrow = w <= 64 && !really_wider;
                // The result slot shows every bit the word class can hold.
                let mut widths = vec![w; 9];
                widths[6] = if narrow { 64 } else { 128 };
                let tape = |prefix: Vec<Op>, op: &Op| {
                    let mut ops = prefix;
                    ops.extend((0..6).map(|i| Op::Read { dst: i, slot: i as u32 }));
                    ops.extend([op.clone(), Op::Write { slot: 6, src: op.def().unwrap_or(1) }]);
                    Tape { ops, nregs: 8, ..Tape::default() }
                };
                let plain = tape(Vec::new(), &op);
                if let Some(target) = op.target_mut() {
                    *target += 2;
                }
                let guard = vec![Op::Read { dst: 7, slot: 8 }, Op::Jz { cond: 7, target: 10 }];
                let raw = Arc::new(vec![plain, tape(guard, &op)]);

                let layout = || Layout::plain(&widths, &[w], &[]);
                let raw_blocks = BlockTapes::plain(layout(), raw.clone());
                // `fuse_run` is the crate's way to classify and `validate`.
                let tapes: Vec<Tape> =
                    (0..2).map(|b| fuse_run(&raw_blocks, &[b], &mut None, "sample tape")).collect();
                for (t, r) in tapes.iter().zip(raw.iter()) {
                    assert_eq!(t.ops, r.ops, "{kind:?} w={w}: fusing one tape is the identity");
                    assert_eq!(t.narrow.is_some(), narrow, "{kind:?} w={w}: class of {op:?}");
                }
                let tapes = Arc::new(tapes);
                let blocks = BlockTapes::plain(layout(), tapes.clone());
                let none = || Arc::new(Vec::new());
                let plans = Plans { comb: none(), seq: none(), report: None };
                let batch = lower(&blocks, &plans);
                let staged = Staged {
                    design: None,
                    blocks: Some(Arc::new(blocks)),
                    plans: Some(Arc::new(plans)),
                    batch: Some(Arc::new(batch)),
                };
                let mut e =
                    BatchEngine::new(design.clone(), &staged, LANES, &mut Overheads::default());

                for round in 0..4 {
                    let value = |rnd: &mut dyn FnMut() -> u128, width: u32| {
                        let v = match rnd() % 6 {
                            0 => 0,
                            1 => 1,
                            2 => u128::MAX,
                            3 => rnd() % (2 * width as u128 + 2),
                            // Only bits the low machine word cannot see
                            // (a `Select` selector must clamp, not wrap).
                            4 => rnd() << 64,
                            _ => rnd(),
                        };
                        v & mask_of(width)
                    };
                    let before: Vec<LaneState> = (0..LANES)
                        .map(|_| {
                            let mut cur: Vec<u128> =
                                widths.iter().map(|&w| value(&mut rnd, w)).collect();
                            cur[8] = if round == 3 { 0 } else { rnd() % 2 };
                            let next = widths.iter().map(|&w| value(&mut rnd, w)).collect();
                            let mem = (0..4).map(|_| value(&mut rnd, w)).collect();
                            (cur, next, mem, Vec::new())
                        })
                        .collect();

                    let scalar = |tape: &Tape, (cur, next, mem, _): &LaneState| {
                        let mut state = PackedState::from_widths(&widths, &[(w, 4)], &[]);
                        state.fill(cur, next);
                        let mut st = state.exclusive();
                        for (addr, &v) in mem.iter().enumerate() {
                            st.poke_mem(0, addr as u64, Bits::new(w, v));
                        }
                        let mut pending = Vec::new();
                        st.exec::<false>(tape, 0, &mut [0; 8], &mut pending, &mut Vec::new());
                        let (cur, next, _) = state.dump();
                        (cur, next, mem.clone(), pending)
                    };
                    // The lane executor: block 0 as the body of a gang of
                    // the first `L` lane states, instance `i` on slots
                    // `9 i..9 i + 9` and memory `i`. Each lane must end
                    // where the scalar `u64` run of its own state ends,
                    // its queued stores in program order.
                    if narrow && !matches!(op.effect(), Effect::Jump { .. }) {
                        const L: usize = crate::compile::LANES;
                        let gang = Gang {
                            body: 0,
                            blocks: (0..L as u32).collect(),
                            slots: (0..9 * L).map(|i| ((i % L) * 9 + i / L) as u32).collect(),
                            mems: (0..L as u32).collect(),
                        };
                        let mut state =
                            PackedState::from_widths(&widths.repeat(L), &vec![(w, 4); L], &[]);
                        let column = |pick: fn(&LaneState) -> &Vec<u128>| -> Vec<u128> {
                            before[..L].iter().flat_map(|st| pick(st).clone()).collect()
                        };
                        state.fill(&column(|st| &st.0), &column(|st| &st.1));
                        let mut st = state.exclusive();
                        for (lane, (_, _, mem, _)) in before[..L].iter().enumerate() {
                            for (addr, &v) in mem.iter().enumerate() {
                                st.poke_mem(lane, addr as u64, Bits::new(w, v));
                            }
                        }
                        let mut pending = Vec::new();
                        st.exec_lanes(&tapes[0], &gang, 0..1, &mut [[0; L]; 8], &mut pending);
                        let (cur, next, _) = state.dump();
                        for (lane, lane_state) in before[..L].iter().enumerate() {
                            let own = |column: &[u128]| column[9 * lane..][..9].to_vec();
                            let queued = pending.iter().filter(|store| store.0 == lane as u32);
                            let got: LaneState = (
                                own(&cur),
                                own(&next),
                                lane_state.2.clone(),
                                queued.map(|&(_, addr, v)| (0, addr, v)).collect(),
                            );
                            let want = scalar(&tapes[0], lane_state);
                            assert_eq!(got, want, "{kind:?} w={w} lane {lane}: lanes of {op:?}");
                        }
                    }
                    for b in 0..2 {
                        for (lane, (cur, next, mem, _)) in before.iter().enumerate() {
                            for s in 0..9 {
                                let (off, w) = (e.net_off[s], e.widths[s]);
                                scatter(&mut e.cur, off, w, lane, cur[s]);
                                scatter(&mut e.next, off, w, lane, next[s]);
                            }
                            for (addr, &v) in mem.iter().enumerate() {
                                e.mems[0][addr * LANES as usize + lane] = v;
                            }
                        }
                        e.exec_block(b);
                        let mut results = Vec::new();
                        for (lane, st) in before.iter().enumerate() {
                            let slots = |planes: &[u64]| -> Vec<u128> {
                                (0..9)
                                    .map(|s| gather(planes, e.net_off[s], e.widths[s], lane))
                                    .collect()
                            };
                            let got: LaneState = (
                                slots(&e.cur),
                                slots(&e.next),
                                st.2.clone(),
                                std::mem::take(&mut e.pending[lane]),
                            );
                            // The wide executor over the canonical ops
                            // is the reference; the classified tape (the
                            // `u64` instantiation when narrow) must match
                            // it.
                            let want = scalar(&raw[b as usize], st);
                            assert_eq!(got, want, "{kind:?} w={w} block {b} lane {lane}: {op:?}");
                            let classed = scalar(&tapes[b as usize], st);
                            assert_eq!(classed, want, "{kind:?} w={w} block {b}: word class");

                            if b == 1 {
                                continue; // the fold is block 0's question
                            }
                            let folded = eval_pure(&op.map_regs(&mut |_, r| r as VReg), &|r| {
                                Some(st.0.get(r as usize).copied().unwrap_or(0))
                            });
                            match folded {
                                Some(v) => assert_eq!(v, want.0[6], "{kind:?} w={w}: fold"),
                                None => assert!(
                                    op.effect() != Effect::Pure,
                                    "{kind:?}: a pure op the folder skips"
                                ),
                            }
                            results.push(want.0[6]);
                        }
                        // Wide lanes: four lane states as one `[u128; 4]`
                        // register file against their four scalar runs.
                        let wide = if narrow { &[][..] } else { &before[..] };
                        for (quad, want) in wide.chunks_exact(4).zip(results.chunks_exact(4)) {
                            let regs = |r: u16| std::array::from_fn(|l| quad[l].0[r as usize]);
                            if let Some(got) = pure::<_, _, [u128; 4]>(&op, regs) {
                                let want: [u128; 4] = want.try_into().expect("four results");
                                assert_eq!(got, (6, want), "{kind:?} w={w}: u128 lanes of {op:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Plane lowering gives a register one arena range and runs pure defs
    /// for every lane, so a register merged from two arms — legal for the
    /// scalar executor — cannot be lowered: the later arm's def would
    /// overwrite the earlier one's on the lanes that took the earlier arm.
    /// The compiler never emits one (merges go through slots); `lower_tape`
    /// must refuse rather than miscompute.
    #[test]
    #[should_panic(expected = "uses r1, whose definition a jump to 5 skips")]
    fn lowering_rejects_a_register_merged_from_two_arms() {
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Jz { cond: 0, target: 4 },
            Op::Const { dst: 1, val: 1 },
            Op::Jmp { target: 5 },
            Op::Const { dst: 1, val: 2 },
            Op::Write { slot: 1, src: 1 },
        ];
        lower_tape(&Tape { ops, nregs: 2, ..Tape::default() }, &[1, 2], &[]);
    }
}
