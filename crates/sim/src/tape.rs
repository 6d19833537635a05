//! The tape VM: a linear bytecode executed straight-line over packed
//! `u128` slots.
//!
//! This is the heart of the SimJIT substitution (see `DESIGN.md`): where
//! PyMTL's SimJIT generates and compiles C++, RustMTL's specializing
//! engines lower each IR block to a flat three-address tape with
//! pre-resolved net slots, precomputed masks, and constant-folded operands.
//! This module holds the instruction set and the executors;
//! [`crate::compile`] is the only producer of tapes.

/// A physical register index within an executable tape. Kept at 16 bits so
/// every hot [`Op`] variant packs into 32 bytes.
pub(crate) type Reg = u16;

/// A virtual register index used during compilation and optimization.
/// Emission allocates freely in this space; the optimizer's register
/// compaction pass renumbers the live survivors, and `narrow` checks the
/// result against the physical [`Reg`] budget.
pub(crate) type VReg = u32;

/// One tape instruction, generic over the register index type: `Op<Reg>`
/// (the default) is what the executor runs, `Op<VReg>` is what the
/// compiler emits and the optimizer transforms. `mask` fields are
/// precomputed width masks.
#[derive(Debug, Clone)]
pub(crate) enum Op<R = Reg> {
    Const {
        dst: R,
        val: u128,
    },
    Read {
        dst: R,
        slot: u32,
    },
    Copy {
        dst: R,
        a: R,
    },
    Add {
        dst: R,
        a: R,
        b: R,
        mask: u128,
    },
    Sub {
        dst: R,
        a: R,
        b: R,
        mask: u128,
    },
    Mul {
        dst: R,
        a: R,
        b: R,
        mask: u128,
    },
    And {
        dst: R,
        a: R,
        b: R,
    },
    Or {
        dst: R,
        a: R,
        b: R,
    },
    Xor {
        dst: R,
        a: R,
        b: R,
    },
    Not {
        dst: R,
        a: R,
        mask: u128,
    },
    Neg {
        dst: R,
        a: R,
        mask: u128,
    },
    Shl {
        dst: R,
        a: R,
        b: R,
        width: u32,
        mask: u128,
    },
    Shr {
        dst: R,
        a: R,
        b: R,
        width: u32,
    },
    Sra {
        dst: R,
        a: R,
        b: R,
        width: u32,
        mask: u128,
        ext: u32,
    },
    Eq {
        dst: R,
        a: R,
        b: R,
    },
    Ne {
        dst: R,
        a: R,
        b: R,
    },
    Lt {
        dst: R,
        a: R,
        b: R,
    },
    Ge {
        dst: R,
        a: R,
        b: R,
    },
    LtS {
        dst: R,
        a: R,
        b: R,
        ext: u32,
    },
    GeS {
        dst: R,
        a: R,
        b: R,
        ext: u32,
    },
    RedAnd {
        dst: R,
        a: R,
        mask: u128,
    },
    RedOr {
        dst: R,
        a: R,
    },
    RedXor {
        dst: R,
        a: R,
    },
    Slice {
        dst: R,
        a: R,
        lo: u32,
        mask: u128,
    },
    /// `dst = (a << shift) | b` — concatenation folding.
    ShlOr {
        dst: R,
        a: R,
        b: R,
        shift: u32,
    },
    Mux {
        dst: R,
        cond: R,
        t: R,
        f: R,
    },
    /// Two fused muxes: `dst = c1 ? t1 : (c2 ? t2 : f)`. Produced only by
    /// the optimizer's mux-fuse pass from single-use [`Op::Mux`] chains
    /// (the one-hot crossbar idiom), halving dispatches on the hottest
    /// op kind.
    Mux2 {
        dst: R,
        c1: R,
        t1: R,
        c2: R,
        t2: R,
        f: R,
    },
    /// `dst = regs[base + min(sel, n-1)]`; options live in consecutive regs.
    Select {
        dst: R,
        sel: R,
        base: R,
        n: u16,
    },
    Sext {
        dst: R,
        a: R,
        sign_bit: u128,
        ext_or: u128,
    },
    Write {
        slot: u32,
        src: R,
    },
    WriteMasked {
        slot: u32,
        src: R,
        lo: u32,
        field: u128,
    },
    WriteNext {
        slot: u32,
        src: R,
    },
    WriteNextMasked {
        slot: u32,
        src: R,
        lo: u32,
        field: u128,
    },
    /// Predicated full write: stores `src` to `cur[slot]` when
    /// `(cond != 0) != neg`, otherwise leaves the slot untouched. Never
    /// emitted by the compiler — the optimizer's if-conversion lowers a
    /// small `Jz`-guarded `Write` to this (one branchless op instead of
    /// a read-old/mux/write-back triple). Event semantics match the
    /// branchy original exactly: an untaken predicate stores nothing, a
    /// taken one goes through the normal tracked-write path.
    WriteIf {
        slot: u32,
        cond: R,
        src: R,
        neg: bool,
    },
    /// Predicated [`Op::WriteNext`]. Leaving the *shadow* buffer
    /// untouched on the untaken path (rather than writing back a value
    /// reconstructed from `cur`) keeps predication exact under fault
    /// injection, where `force` can desynchronize `cur` from `next`.
    WriteNextIf {
        slot: u32,
        cond: R,
        src: R,
        neg: bool,
    },
    MemRead {
        dst: R,
        mem: u32,
        addr: R,
        words: u64,
    },
    MemWrite {
        mem: u32,
        addr: R,
        data: R,
        words: u64,
    },
    /// Predicated [`Op::MemWrite`]: pushes the deferred write only when
    /// `(cond != 0) != neg`. Optimizer-only, like the other predicated
    /// stores — exact by construction, since an untaken guard enqueues
    /// nothing on the `pending` list.
    MemWriteIf {
        mem: u32,
        addr: R,
        data: R,
        cond: R,
        words: u64,
        neg: bool,
    },
    Jz {
        cond: R,
        target: u32,
    },
    JneConst {
        a: R,
        k: u128,
        target: u32,
    },
    Jmp {
        target: u32,
    },
}

impl<R: Copy> Op<R> {
    /// Rebuilds the op with every register index passed through `f`
    /// (widening, narrowing, and compaction renumbering all route here).
    pub(crate) fn map_regs<S: Copy>(&self, f: &mut impl FnMut(R) -> S) -> Op<S> {
        match *self {
            Op::Const { dst, val } => Op::Const { dst: f(dst), val },
            Op::Read { dst, slot } => Op::Read { dst: f(dst), slot },
            Op::Copy { dst, a } => Op::Copy { dst: f(dst), a: f(a) },
            Op::Add { dst, a, b, mask } => Op::Add { dst: f(dst), a: f(a), b: f(b), mask },
            Op::Sub { dst, a, b, mask } => Op::Sub { dst: f(dst), a: f(a), b: f(b), mask },
            Op::Mul { dst, a, b, mask } => Op::Mul { dst: f(dst), a: f(a), b: f(b), mask },
            Op::And { dst, a, b } => Op::And { dst: f(dst), a: f(a), b: f(b) },
            Op::Or { dst, a, b } => Op::Or { dst: f(dst), a: f(a), b: f(b) },
            Op::Xor { dst, a, b } => Op::Xor { dst: f(dst), a: f(a), b: f(b) },
            Op::Not { dst, a, mask } => Op::Not { dst: f(dst), a: f(a), mask },
            Op::Neg { dst, a, mask } => Op::Neg { dst: f(dst), a: f(a), mask },
            Op::Shl { dst, a, b, width, mask } => {
                Op::Shl { dst: f(dst), a: f(a), b: f(b), width, mask }
            }
            Op::Shr { dst, a, b, width } => Op::Shr { dst: f(dst), a: f(a), b: f(b), width },
            Op::Sra { dst, a, b, width, mask, ext } => {
                Op::Sra { dst: f(dst), a: f(a), b: f(b), width, mask, ext }
            }
            Op::Eq { dst, a, b } => Op::Eq { dst: f(dst), a: f(a), b: f(b) },
            Op::Ne { dst, a, b } => Op::Ne { dst: f(dst), a: f(a), b: f(b) },
            Op::Lt { dst, a, b } => Op::Lt { dst: f(dst), a: f(a), b: f(b) },
            Op::Ge { dst, a, b } => Op::Ge { dst: f(dst), a: f(a), b: f(b) },
            Op::LtS { dst, a, b, ext } => Op::LtS { dst: f(dst), a: f(a), b: f(b), ext },
            Op::GeS { dst, a, b, ext } => Op::GeS { dst: f(dst), a: f(a), b: f(b), ext },
            Op::RedAnd { dst, a, mask } => Op::RedAnd { dst: f(dst), a: f(a), mask },
            Op::RedOr { dst, a } => Op::RedOr { dst: f(dst), a: f(a) },
            Op::RedXor { dst, a } => Op::RedXor { dst: f(dst), a: f(a) },
            Op::Slice { dst, a, lo, mask } => Op::Slice { dst: f(dst), a: f(a), lo, mask },
            Op::ShlOr { dst, a, b, shift } => Op::ShlOr { dst: f(dst), a: f(a), b: f(b), shift },
            Op::Mux { dst, cond, t, f: fr } => {
                Op::Mux { dst: f(dst), cond: f(cond), t: f(t), f: f(fr) }
            }
            Op::Mux2 { dst, c1, t1, c2, t2, f: fr } => {
                Op::Mux2 { dst: f(dst), c1: f(c1), t1: f(t1), c2: f(c2), t2: f(t2), f: f(fr) }
            }
            Op::Select { dst, sel, base, n } => {
                Op::Select { dst: f(dst), sel: f(sel), base: f(base), n }
            }
            Op::Sext { dst, a, sign_bit, ext_or } => {
                Op::Sext { dst: f(dst), a: f(a), sign_bit, ext_or }
            }
            Op::Write { slot, src } => Op::Write { slot, src: f(src) },
            Op::WriteMasked { slot, src, lo, field } => {
                Op::WriteMasked { slot, src: f(src), lo, field }
            }
            Op::WriteNext { slot, src } => Op::WriteNext { slot, src: f(src) },
            Op::WriteNextMasked { slot, src, lo, field } => {
                Op::WriteNextMasked { slot, src: f(src), lo, field }
            }
            Op::WriteIf { slot, cond, src, neg } => {
                Op::WriteIf { slot, cond: f(cond), src: f(src), neg }
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                Op::WriteNextIf { slot, cond: f(cond), src: f(src), neg }
            }
            Op::MemRead { dst, mem, addr, words } => {
                Op::MemRead { dst: f(dst), mem, addr: f(addr), words }
            }
            Op::MemWrite { mem, addr, data, words } => {
                Op::MemWrite { mem, addr: f(addr), data: f(data), words }
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                Op::MemWriteIf { mem, addr: f(addr), data: f(data), cond: f(cond), words, neg }
            }
            Op::Jz { cond, target } => Op::Jz { cond: f(cond), target },
            Op::JneConst { a, k, target } => Op::JneConst { a: f(a), k, target },
            Op::Jmp { target } => Op::Jmp { target },
        }
    }
}

/// A compiled update block in executable (physical-register) form.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    pub ops: Vec<Op>,
    /// Register file size. `u32` (not [`Reg`]) so the full 65536-register
    /// budget is expressible.
    pub nregs: u32,
    /// Length of the cycle-invariant prefix: `ops[..prelude]` are all
    /// `Const` ops into registers no body op ever writes (the optimizer's
    /// const-hoist pass, which only fires on jump-free tapes). An engine
    /// that keeps a persistent register buffer per tape may run the
    /// prelude once ([`exec_prelude`]) and then execute only
    /// `ops[prelude..]` each cycle ([`exec_tape_body`]); executing the
    /// whole tape from op 0 with scratch registers is equally correct.
    pub prelude: u32,
}

pub(crate) fn mask_of(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Executes a tape over the packed state.
///
/// When `TRACK` is true, combinational writes that change a slot's value
/// push the slot index into `changed` (used by the event-driven specialized
/// engine for sensitivity propagation).
///
/// Uses unchecked indexing in the hot loop; every index is range-checked
/// once by `validate` at simulator construction, which makes the
/// unchecked accesses sound.
#[allow(clippy::too_many_arguments)]
/// Read access to memory columns for the tape executor, so the same
/// core runs over plain `Vec<u128>` storage (single-threaded engines)
/// and shared-slot storage (the parallel engine). Mem writes are always
/// deferred through `pending`, so read access is all the executor needs.
pub(crate) trait TapeMems {
    /// # Safety
    ///
    /// `mem`/`addr` must be in range (guaranteed by `validate` plus the
    /// per-op `% words` wrap).
    unsafe fn read(&self, mem: usize, addr: usize) -> u128;
}

impl TapeMems for [Vec<u128>] {
    #[inline(always)]
    unsafe fn read(&self, mem: usize, addr: usize) -> u128 {
        unsafe { *self.get_unchecked(mem).get_unchecked(addr) }
    }
}

/// Runs a tape's const prelude into a persistent register buffer, once
/// per buffer lifetime. Pairs with [`exec_tape_body`].
pub(crate) fn exec_prelude(tape: &Tape, regs: &mut [u128]) {
    for op in &tape.ops[..tape.prelude as usize] {
        match op {
            Op::Const { dst, val } => regs[*dst as usize] = *val,
            _ => unreachable!("validate: prelude ops are Const"),
        }
    }
}

/// Executes only `ops[prelude..]` of a tape whose prelude was installed
/// in `regs` by [`exec_prelude`]. `regs` must persist between calls.
pub(crate) fn exec_tape_body<const TRACK: bool>(
    tape: &Tape,
    regs: &mut [u128],
    cur: &mut [u128],
    next: &mut [u128],
    mems: &[Vec<u128>],
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    // SAFETY: as for [`exec_tape`]; a nonzero prelude start is sound
    // because `validate` rejects preludes on tapes with jumps.
    unsafe {
        exec_tape_ptr_from::<TRACK, _>(
            tape,
            tape.prelude as usize,
            regs,
            cur.as_mut_ptr(),
            next.as_mut_ptr(),
            mems,
            pending,
            changed,
        )
    }
}

/// Executes a tape over exclusive (`&mut`) packed state.
pub(crate) fn exec_tape<const TRACK: bool>(
    tape: &Tape,
    regs: &mut [u128],
    cur: &mut [u128],
    next: &mut [u128],
    mems: &[Vec<u128>],
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    // SAFETY: `cur`/`next` are exclusive borrows covering every slot a
    // validated tape can touch.
    unsafe {
        exec_tape_ptr::<TRACK, _>(
            tape,
            regs,
            cur.as_mut_ptr(),
            next.as_mut_ptr(),
            mems,
            pending,
            changed,
        )
    }
}

/// The tape executor core over raw state pointers.
///
/// # Safety
///
/// Callers must guarantee, for the duration of the call:
/// - `cur` and `next` point to arrays covering every net slot the tape
///   references (ensured by `validate`);
/// - no other thread concurrently writes any slot this tape reads, and
///   no other thread concurrently reads or writes any slot this tape
///   writes (the parallel engine proves this by partition construction;
///   the single-threaded wrapper has exclusive borrows).
pub(crate) unsafe fn exec_tape_ptr<const TRACK: bool, M: TapeMems + ?Sized>(
    tape: &Tape,
    regs: &mut [u128],
    cur: *mut u128,
    next: *mut u128,
    mems: &M,
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    // Executing from op 0 re-runs any prelude into scratch registers;
    // prelude ops are ordinary `Const`s, so this is always correct.
    unsafe { exec_tape_ptr_from::<TRACK, M>(tape, 0, regs, cur, next, mems, pending, changed) }
}

/// [`exec_tape_ptr`] with an explicit start index (`0` or the tape's
/// prelude length).
///
/// # Safety
///
/// As for [`exec_tape_ptr`]; additionally `start` must be `0` or
/// `tape.prelude` on a validated tape (jump-free when `prelude > 0`).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn exec_tape_ptr_from<const TRACK: bool, M: TapeMems + ?Sized>(
    tape: &Tape,
    start: usize,
    regs: &mut [u128],
    cur: *mut u128,
    next: *mut u128,
    mems: &M,
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    macro_rules! r {
        ($i:expr) => {
            unsafe { *regs.get_unchecked(*$i as usize) }
        };
    }
    macro_rules! w {
        ($i:expr, $v:expr) => {{
            // Evaluate the value expression outside the unsafe block so
            // nested register reads keep their own narrow unsafe scope.
            let v = $v;
            unsafe { *regs.get_unchecked_mut(*$i as usize) = v }
        }};
    }
    let ops = &tape.ops;
    let mut pc = start;
    while pc < ops.len() {
        match unsafe { ops.get_unchecked(pc) } {
            Op::Const { dst, val } => w!(dst, *val),
            Op::Read { dst, slot } => {
                w!(dst, unsafe { *cur.add(*slot as usize) })
            }
            Op::Copy { dst, a } => w!(dst, r!(a)),
            Op::Add { dst, a, b, mask } => w!(dst, r!(a).wrapping_add(r!(b)) & mask),
            Op::Sub { dst, a, b, mask } => w!(dst, r!(a).wrapping_sub(r!(b)) & mask),
            Op::Mul { dst, a, b, mask } => w!(dst, r!(a).wrapping_mul(r!(b)) & mask),
            Op::And { dst, a, b } => w!(dst, r!(a) & r!(b)),
            Op::Or { dst, a, b } => w!(dst, r!(a) | r!(b)),
            Op::Xor { dst, a, b } => w!(dst, r!(a) ^ r!(b)),
            Op::Not { dst, a, mask } => w!(dst, !r!(a) & mask),
            Op::Neg { dst, a, mask } => w!(dst, r!(a).wrapping_neg() & mask),
            Op::Shl { dst, a, b, width, mask } => {
                let amt = r!(b);
                w!(dst, if amt >= *width as u128 { 0 } else { (r!(a) << amt) & mask });
            }
            Op::Shr { dst, a, b, width } => {
                let amt = r!(b);
                w!(dst, if amt >= *width as u128 { 0 } else { r!(a) >> amt });
            }
            Op::Sra { dst, a, b, width, mask, ext } => {
                let amt = (r!(b)).min(*width as u128) as u32;
                let v = (r!(a) << ext) as i128 >> ext;
                w!(dst, ((v >> amt.min(127)) as u128) & mask);
            }
            Op::Eq { dst, a, b } => w!(dst, (r!(a) == r!(b)) as u128),
            Op::Ne { dst, a, b } => w!(dst, (r!(a) != r!(b)) as u128),
            Op::Lt { dst, a, b } => w!(dst, (r!(a) < r!(b)) as u128),
            Op::Ge { dst, a, b } => w!(dst, (r!(a) >= r!(b)) as u128),
            Op::LtS { dst, a, b, ext } => {
                w!(dst, (((r!(a) << ext) as i128) < ((r!(b) << ext) as i128)) as u128)
            }
            Op::GeS { dst, a, b, ext } => {
                w!(dst, (((r!(a) << ext) as i128) >= ((r!(b) << ext) as i128)) as u128)
            }
            Op::RedAnd { dst, a, mask } => w!(dst, (r!(a) == *mask) as u128),
            Op::RedOr { dst, a } => w!(dst, (r!(a) != 0) as u128),
            Op::RedXor { dst, a } => w!(dst, (r!(a).count_ones() % 2) as u128),
            Op::Slice { dst, a, lo, mask } => w!(dst, (r!(a) >> lo) & mask),
            Op::ShlOr { dst, a, b, shift } => w!(dst, (r!(a) << shift) | r!(b)),
            Op::Mux { dst, cond, t, f } => {
                w!(dst, if r!(cond) != 0 { r!(t) } else { r!(f) });
            }
            Op::Mux2 { dst, c1, t1, c2, t2, f } => {
                let v = if r!(c1) != 0 {
                    r!(t1)
                } else if r!(c2) != 0 {
                    r!(t2)
                } else {
                    r!(f)
                };
                w!(dst, v);
            }
            Op::Select { dst, sel, base, n } => {
                let idx = (r!(sel) as usize).min(*n as usize - 1);
                let v = unsafe { *regs.get_unchecked(*base as usize + idx) };
                w!(dst, v);
            }
            Op::Sext { dst, a, sign_bit, ext_or } => {
                let v = r!(a);
                w!(dst, if v & sign_bit != 0 { v | ext_or } else { v });
            }
            Op::Write { slot, src } => {
                let s = *slot as usize;
                let v = r!(src);
                let c = unsafe { &mut *cur.add(s) };
                if TRACK {
                    if *c != v {
                        *c = v;
                        changed.push(*slot);
                    }
                } else {
                    *c = v;
                }
            }
            Op::WriteMasked { slot, src, lo, field } => {
                let s = *slot as usize;
                let c = unsafe { &mut *cur.add(s) };
                let v = (*c & !field) | ((r!(src) << lo) & field);
                if TRACK {
                    if *c != v {
                        *c = v;
                        changed.push(*slot);
                    }
                } else {
                    *c = v;
                }
            }
            Op::WriteNext { slot, src } => {
                let v = r!(src);
                unsafe { *next.add(*slot as usize) = v };
            }
            Op::WriteNextMasked { slot, src, lo, field } => {
                let v = r!(src);
                let n = unsafe { &mut *next.add(*slot as usize) };
                *n = (*n & !field) | ((v << lo) & field);
            }
            Op::WriteIf { slot, cond, src, neg } => {
                let take = (r!(cond) != 0) != *neg;
                let s = *slot as usize;
                let c = unsafe { &mut *cur.add(s) };
                // Branchless select: an untaken predicate stores the old
                // value back, which the tracked path below treats as "no
                // change" — bit-for-bit the branchy original.
                let v = if take { r!(src) } else { *c };
                if TRACK {
                    if *c != v {
                        *c = v;
                        changed.push(*slot);
                    }
                } else {
                    *c = v;
                }
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                let take = (r!(cond) != 0) != *neg;
                let n = unsafe { &mut *next.add(*slot as usize) };
                *n = if take { r!(src) } else { *n };
            }
            Op::MemRead { dst, mem, addr, words } => {
                let a = (r!(addr) as u64) % words;
                let v = unsafe { mems.read(*mem as usize, a as usize) };
                w!(dst, v);
            }
            Op::MemWrite { mem, addr, data, words } => {
                let a = (r!(addr) as u64) % words;
                pending.push((*mem, a, r!(data)));
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                if (r!(cond) != 0) != *neg {
                    let a = (r!(addr) as u64) % words;
                    pending.push((*mem, a, r!(data)));
                }
            }
            Op::Jz { cond, target } => {
                if r!(cond) == 0 {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::JneConst { a, k, target } => {
                if r!(a) != *k {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::Jmp { target } => {
                pc = *target as usize;
                continue;
            }
        }
        pc += 1;
    }
}
