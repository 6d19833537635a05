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
//! optimizer pipeline) into [`POp`] plane programs. Tapes that still
//! contain jumps after optimization (if-conversion has a size cap) fall
//! back to a [`BatchProg::PerLane`] program that gathers each lane into
//! scalar state, runs the ordinary tape executor, and scatters the results
//! back — slower, but exactly the scalar semantics, so lane-exactness
//! holds unconditionally.
//!
//! Faults are not this module's business: the `Sim` wrapper runs its one
//! forced-settle protocol over the lane-addressed primitives below
//! (`peek_lane`, `force`, `exec_block` on the per-block programs), which
//! is why a faulty lane's trace is byte-identical to a scalar engine
//! running the same injection.

use std::sync::Arc;
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::Design;

use crate::artifact::Staged;
use crate::compile::passes::OptReport;
use crate::compile::{BlockTapes, Chunk, Plans};
use crate::overheads::Overheads;
use crate::profile::EngineStats;
use crate::sim::EngineImpl;
use crate::tape::{exec_tape_ptr, mask_of, Op, Tape, TapeMems};

/// Lane capacity of the plane state: one bit per lane in a `u64` word.
/// Storage is always this wide; [`crate::SimConfig::lanes`] only restricts
/// which lanes count as active trials.
pub const LANES: u32 = 64;

/// A plane-program operand: an arena plane range holding one tape
/// register's value, `w` planes wide. `w` is the register's *value width*
/// at this op point — a static upper bound on the significant bits of the
/// scalar value (reads past it yield zero planes, which is exactly the
/// scalar zero-extension).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Opd {
    off: u32,
    w: u32,
}

/// One bit-sliced instruction. Register operands are [`Opd`] arena ranges,
/// net operands are plane offsets into the packed `cur`/`next` state.
/// `w` on value ops is the destination width in planes.
#[derive(Debug, Clone)]
pub(crate) enum POp {
    Const {
        dst: u32,
        w: u32,
        val: u128,
    },
    ReadNet {
        dst: u32,
        w: u32,
        net: u32,
    },
    Copy {
        dst: u32,
        w: u32,
        a: Opd,
    },
    Add {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
        mask: u128,
    },
    Sub {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
        mask: u128,
    },
    And {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
    },
    Or {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
    },
    Xor {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
    },
    Not {
        dst: u32,
        w: u32,
        a: Opd,
        mask: u128,
    },
    Neg {
        dst: u32,
        w: u32,
        a: Opd,
        mask: u128,
    },
    Shl {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
        width: u32,
        mask: u128,
    },
    Shr {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
        width: u32,
    },
    /// `Eq` (`neg = false`) and `Ne` (`neg = true`).
    Eq {
        dst: u32,
        a: Opd,
        b: Opd,
        neg: bool,
    },
    /// Unsigned `Lt` (`ge = false`) and `Ge` (`ge = true`): an MSB-down
    /// borrow scan over the operand planes.
    Lt {
        dst: u32,
        a: Opd,
        b: Opd,
        ge: bool,
    },
    /// Signed compare over `sw` bits: flip the sign plane of both
    /// operands, then compare unsigned (the classic bias trick).
    LtS {
        dst: u32,
        a: Opd,
        b: Opd,
        sw: u32,
        ge: bool,
    },
    RedAnd {
        dst: u32,
        a: Opd,
        mask: u128,
    },
    RedOr {
        dst: u32,
        a: Opd,
    },
    RedXor {
        dst: u32,
        a: Opd,
    },
    Slice {
        dst: u32,
        w: u32,
        a: Opd,
        lo: u32,
        mask: u128,
    },
    ShlOr {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
        shift: u32,
    },
    Mux {
        dst: u32,
        w: u32,
        cond: Opd,
        t: Opd,
        f: Opd,
    },
    Mux2 {
        dst: u32,
        w: u32,
        c1: Opd,
        t1: Opd,
        c2: Opd,
        t2: Opd,
        f: Opd,
    },
    Select {
        dst: u32,
        w: u32,
        sel: Opd,
        opts: Box<[Opd]>,
    },
    Sext {
        dst: u32,
        w: u32,
        a: Opd,
        sign_p: u32,
        ext_or: u128,
    },
    /// Multiply has no cheap plane form; gather each lane, use the exact
    /// scalar formula, scatter back. Rare in RTL datapaths.
    MulLane {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
        mask: u128,
    },
    /// Arithmetic right shift, per lane like [`POp::MulLane`].
    SraLane {
        dst: u32,
        w: u32,
        a: Opd,
        b: Opd,
        width: u32,
        mask: u128,
        ext: u32,
    },
    /// Full net store to `cur` (`next = false`) or the shadow buffer.
    Write {
        net: u32,
        nw: u32,
        src: Opd,
        next: bool,
    },
    WriteMasked {
        net: u32,
        nw: u32,
        src: Opd,
        lo: u32,
        field: u128,
        next: bool,
    },
    /// Predicated store: lanes where the condition (xor `neg`) holds take
    /// the source planes, others keep the target planes.
    WriteIf {
        net: u32,
        nw: u32,
        src: Opd,
        cond: Opd,
        neg: bool,
        next: bool,
    },
    MemRead {
        dst: u32,
        w: u32,
        mem: u32,
        addr: Opd,
        words: u64,
    },
    /// Deferred per-lane memory write; `cond` is the `MemWriteIf` guard.
    MemWrite {
        mem: u32,
        addr: Opd,
        data: Opd,
        words: u64,
        cond: Option<(Opd, bool)>,
    },
}

/// One lowered tape: either a straight-line plane program or the scalar
/// per-lane fallback for tapes that still contain jumps.
#[derive(Debug, Clone)]
pub(crate) enum BatchProg {
    Planes {
        ops: Vec<POp>,
        /// Arena planes this program needs.
        arena: u32,
    },
    /// Gather each lane's scalar state, run the ordinary tape executor,
    /// scatter the written slots back. `touched` is every `cur` slot the
    /// tape reads or may write (a skipped predicated write must scatter
    /// the *old* value back), `cur_writes`/`next_writes` are the slots to
    /// scatter after execution.
    PerLane { tape: Tape, touched: Vec<u32>, cur_writes: Vec<u32>, next_writes: Vec<u32> },
}

/// The batch stage of the compiled artifact: plane programs for the
/// fused comb/seq plans plus one per design block (the per-block programs
/// serve `exec_block`, i.e. the wrapper's levelized forced-settle fault
/// path). Pure data, cached via [`crate::ArtifactCache`].
#[derive(Debug)]
pub(crate) struct BatchProgs {
    pub(crate) comb: Vec<BatchProg>,
    pub(crate) seq: Vec<BatchProg>,
    pub(crate) blocks: Vec<BatchProg>,
    /// Max arena planes over all programs (one shared scratch arena).
    pub(crate) arena_planes: u32,
    /// Max tape registers over the per-lane fallback programs.
    pub(crate) max_regs: u32,
}

/// Significant bits of a constant (`0` for zero).
fn bits(v: u128) -> u32 {
    128 - v.leading_zeros()
}

/// The register defined by `op` and its value width, given the current
/// per-register value widths `vw`. `None` for stores and jumps. This is
/// the single source of truth for width tracking: both lowering passes
/// call it, so arena sizing and emitted operand widths cannot drift.
fn def_width(op: &Op, vw: &[u32], widths: &[u32], mem_widths: &[u32]) -> Option<(u16, u32)> {
    let v = |r: u16| vw[r as usize];
    Some(match *op {
        Op::Const { dst, val } => (dst, bits(val)),
        Op::Read { dst, slot } => (dst, widths[slot as usize]),
        Op::Copy { dst, a } => (dst, v(a)),
        Op::Add { dst, mask, .. }
        | Op::Sub { dst, mask, .. }
        | Op::Mul { dst, mask, .. }
        | Op::Not { dst, mask, .. }
        | Op::Neg { dst, mask, .. }
        | Op::Shl { dst, mask, .. }
        | Op::Sra { dst, mask, .. }
        | Op::Slice { dst, mask, .. } => (dst, bits(mask)),
        Op::And { dst, a, b } => (dst, v(a).min(v(b))),
        Op::Or { dst, a, b } | Op::Xor { dst, a, b } => (dst, v(a).max(v(b))),
        Op::Shr { dst, a, .. } => (dst, v(a)),
        Op::Eq { dst, .. }
        | Op::Ne { dst, .. }
        | Op::Lt { dst, .. }
        | Op::Ge { dst, .. }
        | Op::LtS { dst, .. }
        | Op::GeS { dst, .. }
        | Op::RedAnd { dst, .. }
        | Op::RedOr { dst, .. }
        | Op::RedXor { dst, .. } => (dst, 1),
        Op::ShlOr { dst, a, b, shift } => (dst, (v(a) + shift).max(v(b)).min(128)),
        Op::Mux { dst, t, f, .. } => (dst, v(t).max(v(f))),
        Op::Mux2 { dst, t1, t2, f, .. } => (dst, v(t1).max(v(t2)).max(v(f))),
        Op::Select { dst, base, n, .. } => {
            (dst, (0..n).map(|i| vw[base as usize + i as usize]).max().unwrap_or(0))
        }
        Op::Sext { dst, a, ext_or, .. } => (dst, v(a).max(bits(ext_or))),
        Op::MemRead { dst, mem, .. } => (dst, mem_widths[mem as usize]),
        Op::Write { .. }
        | Op::WriteMasked { .. }
        | Op::WriteNext { .. }
        | Op::WriteNextMasked { .. }
        | Op::WriteIf { .. }
        | Op::WriteNextIf { .. }
        | Op::MemWrite { .. }
        | Op::MemWriteIf { .. }
        | Op::Jz { .. }
        | Op::JneConst { .. }
        | Op::Jmp { .. } => return None,
    })
}

/// Lowers one scalar tape to a batch program.
fn lower_tape(tape: &Tape, net_off: &[u32], widths: &[u32], mem_widths: &[u32]) -> BatchProg {
    let jumpy = tape
        .ops
        .iter()
        .any(|op| matches!(op, Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. }));
    if jumpy {
        let mut touched = Vec::new();
        let mut cur_writes = Vec::new();
        let mut next_writes = Vec::new();
        for op in &tape.ops {
            match op {
                Op::Read { slot, .. } => touched.push(*slot),
                Op::Write { slot, .. }
                | Op::WriteMasked { slot, .. }
                | Op::WriteIf { slot, .. } => {
                    touched.push(*slot);
                    cur_writes.push(*slot);
                }
                Op::WriteNext { slot, .. }
                | Op::WriteNextMasked { slot, .. }
                | Op::WriteNextIf { slot, .. } => next_writes.push(*slot),
                _ => {}
            }
        }
        for v in [&mut touched, &mut cur_writes, &mut next_writes] {
            v.sort_unstable();
            v.dedup();
        }
        return BatchProg::PerLane { tape: tape.clone(), touched, cur_writes, next_writes };
    }

    let n = tape.nregs as usize;
    // Pass 1: track per-register value widths through the (straight-line)
    // tape; a register's arena range must fit its widest definition
    // (compaction reuses registers across widths).
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
    let mut vw = vec![0u32; n];
    let mut ops = Vec::with_capacity(tape.ops.len());
    for op in &tape.ops {
        let o = |r: u16| Opd { off: off[r as usize], w: vw[r as usize] };
        let d = def_width(op, &vw, widths, mem_widths);
        let dst = |r: u16| off[r as usize];
        let w = d.map(|(_, w)| w).unwrap_or(0);
        let p = match *op {
            Op::Const { dst: r, val } => Some(POp::Const { dst: dst(r), w, val }),
            Op::Read { dst: r, slot } => {
                Some(POp::ReadNet { dst: dst(r), w, net: net_off[slot as usize] })
            }
            Op::Copy { dst: r, a } => Some(POp::Copy { dst: dst(r), w, a: o(a) }),
            Op::Add { dst: r, a, b, mask } => {
                Some(POp::Add { dst: dst(r), w, a: o(a), b: o(b), mask })
            }
            Op::Sub { dst: r, a, b, mask } => {
                Some(POp::Sub { dst: dst(r), w, a: o(a), b: o(b), mask })
            }
            Op::Mul { dst: r, a, b, mask } => {
                Some(POp::MulLane { dst: dst(r), w, a: o(a), b: o(b), mask })
            }
            Op::And { dst: r, a, b } => Some(POp::And { dst: dst(r), w, a: o(a), b: o(b) }),
            Op::Or { dst: r, a, b } => Some(POp::Or { dst: dst(r), w, a: o(a), b: o(b) }),
            Op::Xor { dst: r, a, b } => Some(POp::Xor { dst: dst(r), w, a: o(a), b: o(b) }),
            Op::Not { dst: r, a, mask } => Some(POp::Not { dst: dst(r), w, a: o(a), mask }),
            Op::Neg { dst: r, a, mask } => Some(POp::Neg { dst: dst(r), w, a: o(a), mask }),
            Op::Shl { dst: r, a, b, width, mask } => {
                Some(POp::Shl { dst: dst(r), w, a: o(a), b: o(b), width, mask })
            }
            Op::Shr { dst: r, a, b, width } => {
                Some(POp::Shr { dst: dst(r), w, a: o(a), b: o(b), width })
            }
            Op::Sra { dst: r, a, b, width, mask, ext } => {
                Some(POp::SraLane { dst: dst(r), w, a: o(a), b: o(b), width, mask, ext })
            }
            Op::Eq { dst: r, a, b } => Some(POp::Eq { dst: dst(r), a: o(a), b: o(b), neg: false }),
            Op::Ne { dst: r, a, b } => Some(POp::Eq { dst: dst(r), a: o(a), b: o(b), neg: true }),
            Op::Lt { dst: r, a, b } => Some(POp::Lt { dst: dst(r), a: o(a), b: o(b), ge: false }),
            Op::Ge { dst: r, a, b } => Some(POp::Lt { dst: dst(r), a: o(a), b: o(b), ge: true }),
            Op::LtS { dst: r, a, b, ext } => {
                Some(POp::LtS { dst: dst(r), a: o(a), b: o(b), sw: 128 - ext, ge: false })
            }
            Op::GeS { dst: r, a, b, ext } => {
                Some(POp::LtS { dst: dst(r), a: o(a), b: o(b), sw: 128 - ext, ge: true })
            }
            Op::RedAnd { dst: r, a, mask } => Some(POp::RedAnd { dst: dst(r), a: o(a), mask }),
            Op::RedOr { dst: r, a } => Some(POp::RedOr { dst: dst(r), a: o(a) }),
            Op::RedXor { dst: r, a } => Some(POp::RedXor { dst: dst(r), a: o(a) }),
            Op::Slice { dst: r, a, lo, mask } => {
                Some(POp::Slice { dst: dst(r), w, a: o(a), lo, mask })
            }
            Op::ShlOr { dst: r, a, b, shift } => {
                Some(POp::ShlOr { dst: dst(r), w, a: o(a), b: o(b), shift })
            }
            Op::Mux { dst: r, cond, t, f } => {
                Some(POp::Mux { dst: dst(r), w, cond: o(cond), t: o(t), f: o(f) })
            }
            Op::Mux2 { dst: r, c1, t1, c2, t2, f } => Some(POp::Mux2 {
                dst: dst(r),
                w,
                c1: o(c1),
                t1: o(t1),
                c2: o(c2),
                t2: o(t2),
                f: o(f),
            }),
            Op::Select { dst: r, sel, base, n } => {
                let opts: Box<[Opd]> = (0..n).map(|i| o(base + i)).collect();
                Some(POp::Select { dst: dst(r), w, sel: o(sel), opts })
            }
            Op::Sext { dst: r, a, sign_bit, ext_or } => Some(POp::Sext {
                dst: dst(r),
                w,
                a: o(a),
                sign_p: sign_bit.trailing_zeros(),
                ext_or,
            }),
            Op::Write { slot, src } => Some(POp::Write {
                net: net_off[slot as usize],
                nw: widths[slot as usize],
                src: o(src),
                next: false,
            }),
            Op::WriteNext { slot, src } => Some(POp::Write {
                net: net_off[slot as usize],
                nw: widths[slot as usize],
                src: o(src),
                next: true,
            }),
            Op::WriteMasked { slot, src, lo, field } => Some(POp::WriteMasked {
                net: net_off[slot as usize],
                nw: widths[slot as usize],
                src: o(src),
                lo,
                field,
                next: false,
            }),
            Op::WriteNextMasked { slot, src, lo, field } => Some(POp::WriteMasked {
                net: net_off[slot as usize],
                nw: widths[slot as usize],
                src: o(src),
                lo,
                field,
                next: true,
            }),
            Op::WriteIf { slot, cond, src, neg } => Some(POp::WriteIf {
                net: net_off[slot as usize],
                nw: widths[slot as usize],
                src: o(src),
                cond: o(cond),
                neg,
                next: false,
            }),
            Op::WriteNextIf { slot, cond, src, neg } => Some(POp::WriteIf {
                net: net_off[slot as usize],
                nw: widths[slot as usize],
                src: o(src),
                cond: o(cond),
                neg,
                next: true,
            }),
            Op::MemRead { dst: r, mem, addr, words } => {
                Some(POp::MemRead { dst: dst(r), w, mem, addr: o(addr), words })
            }
            Op::MemWrite { mem, addr, data, words } => {
                Some(POp::MemWrite { mem, addr: o(addr), data: o(data), words, cond: None })
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => Some(POp::MemWrite {
                mem,
                addr: o(addr),
                data: o(data),
                words,
                cond: Some((o(cond), neg)),
            }),
            Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. } => {
                unreachable!("jump in a tape lowered to planes")
            }
        };
        if let Some(p) = p {
            ops.push(p);
        }
        if let Some((dstr, nw)) = d {
            vw[dstr as usize] = nw;
        }
    }
    BatchProg::Planes { ops, arena: total }
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

/// Executes a straight-line plane program. `pending` is indexed by lane.
fn exec_planes(
    ops: &[POp],
    arena: &mut [u64],
    cur: &mut [u64],
    next: &mut [u64],
    mems: &[Vec<u128>],
    pending: &mut [Vec<(u32, u64, u128)>],
    sel_scratch: &mut Vec<u64>,
) {
    for op in ops {
        match op {
            POp::Const { dst, w, val } => {
                for p in 0..*w {
                    arena[(dst + p) as usize] = mb(*val, p);
                }
            }
            POp::ReadNet { dst, w, net } => {
                for p in 0..*w {
                    arena[(dst + p) as usize] = cur[(net + p) as usize];
                }
            }
            POp::Copy { dst, w, a } => {
                for p in 0..*w {
                    arena[(dst + p) as usize] = rd(arena, *a, p);
                }
            }
            POp::Add { dst, w, a, b, mask } => {
                let mut c = 0u64;
                for p in 0..*w {
                    let ap = rd(arena, *a, p);
                    let bp = rd(arena, *b, p);
                    let s = ap ^ bp ^ c;
                    c = (ap & bp) | (c & (ap | bp));
                    arena[(dst + p) as usize] = s & mb(*mask, p);
                }
            }
            POp::Sub { dst, w, a, b, mask } => {
                // a + !b + 1; inverting the clamped plane read gives the
                // infinite-width complement for free.
                let mut c = !0u64;
                for p in 0..*w {
                    let ap = rd(arena, *a, p);
                    let bp = !rd(arena, *b, p);
                    let s = ap ^ bp ^ c;
                    c = (ap & bp) | (c & (ap | bp));
                    arena[(dst + p) as usize] = s & mb(*mask, p);
                }
            }
            POp::And { dst, w, a, b } => {
                for p in 0..*w {
                    arena[(dst + p) as usize] = rd(arena, *a, p) & rd(arena, *b, p);
                }
            }
            POp::Or { dst, w, a, b } => {
                for p in 0..*w {
                    arena[(dst + p) as usize] = rd(arena, *a, p) | rd(arena, *b, p);
                }
            }
            POp::Xor { dst, w, a, b } => {
                for p in 0..*w {
                    arena[(dst + p) as usize] = rd(arena, *a, p) ^ rd(arena, *b, p);
                }
            }
            POp::Not { dst, w, a, mask } => {
                for p in 0..*w {
                    arena[(dst + p) as usize] = !rd(arena, *a, p) & mb(*mask, p);
                }
            }
            POp::Neg { dst, w, a, mask } => {
                // !a + 1.
                let mut c = !0u64;
                for p in 0..*w {
                    let av = !rd(arena, *a, p);
                    let s = av ^ c;
                    c &= av;
                    arena[(dst + p) as usize] = s & mb(*mask, p);
                }
            }
            POp::Shl { dst, w, a, b, width, mask } => {
                // Lanes shifting by >= width produce zero (scalar rule);
                // amounts >= 128 are covered too since width <= 128.
                let ge = ge_const(arena, *b, *width as u128);
                let n = *w as usize;
                let mut buf = [0u64; 128];
                for p in 0..a.w.min(*w) {
                    buf[p as usize] = arena[(a.off + p) as usize];
                }
                for k in 0..b.w.min(7) {
                    let sel = rd(arena, *b, k);
                    if sel == 0 {
                        continue;
                    }
                    let sh = 1usize << k;
                    for p in (0..n).rev() {
                        let lo = if p >= sh { buf[p - sh] } else { 0 };
                        buf[p] = (buf[p] & !sel) | (lo & sel);
                    }
                }
                for p in 0..*w {
                    arena[(dst + p) as usize] = buf[p as usize] & !ge & mb(*mask, p);
                }
            }
            POp::Shr { dst, w, a, b, width } => {
                let ge = ge_const(arena, *b, *width as u128);
                let n = *w as usize;
                let mut buf = [0u64; 128];
                for p in 0..a.w.min(*w) {
                    buf[p as usize] = arena[(a.off + p) as usize];
                }
                for k in 0..b.w.min(7) {
                    let sel = rd(arena, *b, k);
                    if sel == 0 {
                        continue;
                    }
                    let sh = 1usize << k;
                    for p in 0..n {
                        let hi = if p + sh < n { buf[p + sh] } else { 0 };
                        buf[p] = (buf[p] & !sel) | (hi & sel);
                    }
                }
                for p in 0..*w {
                    arena[(dst + p) as usize] = buf[p as usize] & !ge;
                }
            }
            POp::Eq { dst, a, b, neg } => {
                let top = a.w.max(b.w);
                let mut ne = 0u64;
                for p in 0..top {
                    ne |= rd(arena, *a, p) ^ rd(arena, *b, p);
                }
                arena[*dst as usize] = if *neg { ne } else { !ne };
            }
            POp::Lt { dst, a, b, ge } => {
                let top = a.w.max(b.w);
                let mut lt = 0u64;
                let mut eq = !0u64;
                for p in (0..top).rev() {
                    let ap = rd(arena, *a, p);
                    let bp = rd(arena, *b, p);
                    lt |= eq & !ap & bp;
                    eq &= !(ap ^ bp);
                }
                arena[*dst as usize] = if *ge { !lt } else { lt };
            }
            POp::LtS { dst, a, b, sw, ge } => {
                let mut lt = 0u64;
                let mut eq = !0u64;
                for p in (0..*sw).rev() {
                    let mut ap = rd(arena, *a, p);
                    let mut bp = rd(arena, *b, p);
                    if p == sw - 1 {
                        ap = !ap;
                        bp = !bp;
                    }
                    lt |= eq & !ap & bp;
                    eq &= !(ap ^ bp);
                }
                arena[*dst as usize] = if *ge { !lt } else { lt };
            }
            POp::RedAnd { dst, a, mask } => {
                let top = a.w.max(bits(*mask));
                let mut acc = !0u64;
                for p in 0..top {
                    let av = rd(arena, *a, p);
                    acc &= av ^ !mb(*mask, p);
                }
                arena[*dst as usize] = acc;
            }
            POp::RedOr { dst, a } => {
                arena[*dst as usize] = nonzero(arena, *a);
            }
            POp::RedXor { dst, a } => {
                let mut acc = 0u64;
                for p in 0..a.w {
                    acc ^= arena[(a.off + p) as usize];
                }
                arena[*dst as usize] = acc;
            }
            POp::Slice { dst, w, a, lo, mask } => {
                // Ascending is alias-safe for dst == a: reads are at
                // p + lo >= p, always ahead of the write cursor.
                for p in 0..*w {
                    arena[(dst + p) as usize] = rd(arena, *a, p + lo) & mb(*mask, p);
                }
            }
            POp::ShlOr { dst, w, a, b, shift } => {
                // Descending is alias-safe for dst == a: reads are at
                // p - shift <= p, always behind the write cursor.
                for p in (0..*w).rev() {
                    let av = if p >= *shift { rd(arena, *a, p - shift) } else { 0 };
                    arena[(dst + p) as usize] = av | rd(arena, *b, p);
                }
            }
            POp::Mux { dst, w, cond, t, f } => {
                let cz = nonzero(arena, *cond);
                for p in 0..*w {
                    arena[(dst + p) as usize] = (rd(arena, *t, p) & cz) | (rd(arena, *f, p) & !cz);
                }
            }
            POp::Mux2 { dst, w, c1, t1, c2, t2, f } => {
                let cz1 = nonzero(arena, *c1);
                let cz2 = nonzero(arena, *c2);
                let s2 = !cz1 & cz2;
                let s3 = !cz1 & !cz2;
                for p in 0..*w {
                    arena[(dst + p) as usize] = (rd(arena, *t1, p) & cz1)
                        | (rd(arena, *t2, p) & s2)
                        | (rd(arena, *f, p) & s3);
                }
            }
            POp::Select { dst, w, sel, opts } => {
                // Per-option lane masks: option i takes lanes where
                // sel == i; the last option also takes sel >= n-1
                // (the scalar index clamp).
                let n = opts.len();
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
                        m &= rd(arena, *sel, p) ^ !mb(ki, p);
                    }
                    *slot = m;
                    rest |= m;
                }
                sel_scratch[n - 1] = !rest;
                for p in 0..*w {
                    let mut v = 0u64;
                    for (i, opt) in opts.iter().enumerate() {
                        v |= rd(arena, *opt, p) & sel_scratch[i];
                    }
                    arena[(dst + p) as usize] = v;
                }
            }
            POp::Sext { dst, w, a, sign_p, ext_or } => {
                let s = rd(arena, *a, *sign_p);
                for p in 0..*w {
                    arena[(dst + p) as usize] = rd(arena, *a, p) | (s & mb(*ext_or, p));
                }
            }
            POp::MulLane { dst, w, a, b, mask } => {
                let mut vals = [0u128; 64];
                for (lane, v) in vals.iter_mut().enumerate() {
                    let av = gather(arena, a.off, a.w, lane);
                    let bv = gather(arena, b.off, b.w, lane);
                    *v = av.wrapping_mul(bv) & mask;
                }
                scatter_all(arena, *dst, *w, &vals);
            }
            POp::SraLane { dst, w, a, b, width, mask, ext } => {
                let mut vals = [0u128; 64];
                for (lane, v) in vals.iter_mut().enumerate() {
                    let av = gather(arena, a.off, a.w, lane);
                    let bv = gather(arena, b.off, b.w, lane);
                    let amt = bv.min(*width as u128) as u32;
                    let x = ((av << ext) as i128) >> ext;
                    *v = ((x >> amt.min(127)) as u128) & mask;
                }
                scatter_all(arena, *dst, *w, &vals);
            }
            POp::Write { net, nw, src, next: to_next } => {
                let tgt: &mut [u64] = if *to_next { next } else { cur };
                for p in 0..*nw {
                    tgt[(net + p) as usize] = rd(arena, *src, p);
                }
            }
            POp::WriteMasked { net, nw, src, lo, field, next: to_next } => {
                let tgt: &mut [u64] = if *to_next { next } else { cur };
                for p in 0..*nw {
                    if (field >> p) & 1 != 0 {
                        tgt[(net + p) as usize] =
                            if p >= *lo { rd(arena, *src, p - lo) } else { 0 };
                    }
                }
            }
            POp::WriteIf { net, nw, src, cond, neg, next: to_next } => {
                let cz = nonzero(arena, *cond);
                let take = if *neg { !cz } else { cz };
                let tgt: &mut [u64] = if *to_next { next } else { cur };
                for p in 0..*nw {
                    let old = tgt[(net + p) as usize];
                    tgt[(net + p) as usize] = (rd(arena, *src, p) & take) | (old & !take);
                }
            }
            POp::MemRead { dst, w, mem, addr, words } => {
                let m = &mems[*mem as usize];
                let mut vals = [0u128; 64];
                for (lane, v) in vals.iter_mut().enumerate() {
                    let a = (gather(arena, addr.off, addr.w.min(64), lane) as u64) % words;
                    *v = m[a as usize * LANES as usize + lane];
                }
                scatter_all(arena, *dst, *w, &vals);
            }
            POp::MemWrite { mem, addr, data, words, cond } => {
                let take = match cond {
                    None => !0u64,
                    Some((c, neg)) => {
                        let cz = nonzero(arena, *c);
                        if *neg {
                            !cz
                        } else {
                            cz
                        }
                    }
                };
                if take == 0 {
                    continue;
                }
                for (lane, pend) in pending.iter_mut().enumerate() {
                    if (take >> lane) & 1 != 0 {
                        let a = (gather(arena, addr.off, addr.w.min(64), lane) as u64) % words;
                        let v = gather(arena, data.off, data.w, lane);
                        pend.push((*mem, a, v));
                    }
                }
            }
        }
    }
}

/// [`TapeMems`] view of the lane-interleaved memory storage
/// (`mems[mem][addr * 64 + lane]`) for the per-lane fallback executor.
struct LaneMems<'a> {
    mems: &'a [Vec<u128>],
    lane: usize,
}

impl TapeMems for LaneMems<'_> {
    #[inline(always)]
    unsafe fn read(&self, mem: usize, addr: usize) -> u128 {
        // SAFETY: `addr < words` (validated tape plus the per-op `% words`
        // wrap) and each memory vec holds `words * LANES` entries.
        unsafe { *self.mems.get_unchecked(mem).get_unchecked(addr * LANES as usize + self.lane) }
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
    /// Per-lane fallback scratch (slot-indexed scalar state).
    scratch_cur: Vec<u128>,
    scratch_next: Vec<u128>,
    scratch_regs: Vec<u128>,
    lane_pending: Vec<(u32, u64, u128)>,
    changed_scratch: Vec<u32>,
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
    let (net_off, _) = net_offsets(widths);
    let lower_chunk = |c: &Chunk| match c {
        Chunk::Fused(t) => lower_tape(t, &net_off, widths, mem_widths),
        Chunk::Native(_) => unreachable!("batch engine rejects native blocks"),
    };
    let comb: Vec<BatchProg> = plans.comb.iter().map(lower_chunk).collect();
    let seq: Vec<BatchProg> = plans.seq.iter().map(lower_chunk).collect();
    let blocks: Vec<BatchProg> =
        blocks.tapes.iter().map(|t| lower_tape(t, &net_off, widths, mem_widths)).collect();
    let mut arena_planes = 0u32;
    let mut max_regs = 0u32;
    for prog in comb.iter().chain(&seq).chain(&blocks) {
        match prog {
            BatchProg::Planes { arena, .. } => arena_planes = arena_planes.max(*arena),
            BatchProg::PerLane { tape, .. } => max_regs = max_regs.max(tape.nregs),
        }
    }
    BatchProgs { comb, seq, blocks, arena_planes, max_regs }
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
        let nets = widths.len();
        o.wrap += t0.elapsed();

        let arena = vec![0u64; progs.arena_planes as usize];
        let max_regs = progs.max_regs as usize;
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
            scratch_cur: vec![0u128; nets],
            scratch_next: vec![0u128; nets],
            scratch_regs: vec![0u128; max_regs],
            lane_pending: Vec::new(),
            changed_scratch: Vec::new(),
            lanes: lanes.clamp(1, LANES),
            cycles: 0,
            dirty: true,
            track_activity: false,
            activity: Vec::new(),
            prof: None,
            opt_report: plans.report.clone(),
        }
    }

    fn run_prog(&mut self, prog: &BatchProg) {
        match prog {
            BatchProg::Planes { ops, .. } => exec_planes(
                ops,
                &mut self.arena,
                &mut self.cur,
                &mut self.next,
                &self.mems,
                &mut self.pending,
                &mut self.sel_scratch,
            ),
            BatchProg::PerLane { tape, touched, cur_writes, next_writes } => {
                for lane in 0..LANES as usize {
                    for &s in touched {
                        let s = s as usize;
                        self.scratch_cur[s] =
                            gather(&self.cur, self.net_off[s], self.widths[s], lane);
                    }
                    for &s in next_writes {
                        let s = s as usize;
                        self.scratch_next[s] =
                            gather(&self.next, self.net_off[s], self.widths[s], lane);
                    }
                    self.lane_pending.clear();
                    self.changed_scratch.clear();
                    let cur_ptr = self.scratch_cur.as_mut_ptr();
                    let next_ptr = self.scratch_next.as_mut_ptr();
                    // SAFETY: the scratch buffers cover every net slot a
                    // validated tape can touch; `LaneMems` addressing is
                    // in range (see its `read`).
                    unsafe {
                        exec_tape_ptr::<false, _>(
                            tape,
                            &mut self.scratch_regs,
                            cur_ptr,
                            next_ptr,
                            &LaneMems { mems: &self.mems, lane },
                            &mut self.lane_pending,
                            &mut self.changed_scratch,
                        );
                    }
                    for &s in cur_writes {
                        let s = s as usize;
                        scatter(
                            &mut self.cur,
                            self.net_off[s],
                            self.widths[s],
                            lane,
                            self.scratch_cur[s],
                        );
                    }
                    for &s in next_writes {
                        let s = s as usize;
                        scatter(
                            &mut self.next,
                            self.net_off[s],
                            self.widths[s],
                            lane,
                            self.scratch_next[s],
                        );
                    }
                    self.pending[lane].append(&mut self.lane_pending);
                }
            }
        }
    }

    /// One unconditional pass over the fused combinational programs
    /// (the plane analog of the scalar static engine's full pass).
    fn full_pass(&mut self) {
        let progs = self.progs.clone();
        for prog in &progs.comb {
            self.run_prog(prog);
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
        for prog in &progs.seq {
            self.run_prog(prog);
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
        self.run_prog(&progs.blocks[b as usize]);
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
