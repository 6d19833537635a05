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
/// an [`Op`] is 48 bytes (two `u128` immediates plus operands and tag).
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
///
/// Three facts about the instruction set are declared once, below the
/// enum, and every consumer derives from them: each register operand's
/// [`Role`] ([`Op::map_regs`]), each op's [`Effect`] on simulator state
/// ([`Op::effect`]) and its [`Kind`] (name, commutativity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    /// Rebuilds the op with every register operand passed through `f`
    /// together with its [`Role`]. This is the one per-variant listing of
    /// register operands: renumbering, def/use queries, use rewriting,
    /// range validation, the CSE key and plane lowering all route here.
    #[inline]
    pub(crate) fn map_regs<S>(&self, f: &mut impl FnMut(Role, R) -> S) -> Op<S> {
        macro_rules! d {
            ($r:expr) => {
                f(Role::Def, $r)
            };
        }
        macro_rules! u {
            ($r:expr) => {
                f(Role::Use, $r)
            };
        }
        match *self {
            Op::Const { dst, val } => Op::Const { dst: d!(dst), val },
            Op::Read { dst, slot } => Op::Read { dst: d!(dst), slot },
            Op::Copy { dst, a } => Op::Copy { dst: d!(dst), a: u!(a) },
            Op::Add { dst, a, b, mask } => Op::Add { dst: d!(dst), a: u!(a), b: u!(b), mask },
            Op::Sub { dst, a, b, mask } => Op::Sub { dst: d!(dst), a: u!(a), b: u!(b), mask },
            Op::Mul { dst, a, b, mask } => Op::Mul { dst: d!(dst), a: u!(a), b: u!(b), mask },
            Op::And { dst, a, b } => Op::And { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Or { dst, a, b } => Op::Or { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Xor { dst, a, b } => Op::Xor { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Not { dst, a, mask } => Op::Not { dst: d!(dst), a: u!(a), mask },
            Op::Neg { dst, a, mask } => Op::Neg { dst: d!(dst), a: u!(a), mask },
            Op::Shl { dst, a, b, width, mask } => {
                Op::Shl { dst: d!(dst), a: u!(a), b: u!(b), width, mask }
            }
            Op::Shr { dst, a, b, width } => Op::Shr { dst: d!(dst), a: u!(a), b: u!(b), width },
            Op::Sra { dst, a, b, width, mask, ext } => {
                Op::Sra { dst: d!(dst), a: u!(a), b: u!(b), width, mask, ext }
            }
            Op::Eq { dst, a, b } => Op::Eq { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Ne { dst, a, b } => Op::Ne { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Lt { dst, a, b } => Op::Lt { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Ge { dst, a, b } => Op::Ge { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::LtS { dst, a, b, ext } => Op::LtS { dst: d!(dst), a: u!(a), b: u!(b), ext },
            Op::GeS { dst, a, b, ext } => Op::GeS { dst: d!(dst), a: u!(a), b: u!(b), ext },
            Op::RedAnd { dst, a, mask } => Op::RedAnd { dst: d!(dst), a: u!(a), mask },
            Op::RedOr { dst, a } => Op::RedOr { dst: d!(dst), a: u!(a) },
            Op::RedXor { dst, a } => Op::RedXor { dst: d!(dst), a: u!(a) },
            Op::Slice { dst, a, lo, mask } => Op::Slice { dst: d!(dst), a: u!(a), lo, mask },
            Op::ShlOr { dst, a, b, shift } => Op::ShlOr { dst: d!(dst), a: u!(a), b: u!(b), shift },
            Op::Mux { dst, cond, t, f: fr } => {
                Op::Mux { dst: d!(dst), cond: u!(cond), t: u!(t), f: u!(fr) }
            }
            Op::Mux2 { dst, c1, t1, c2, t2, f: fr } => {
                Op::Mux2 { dst: d!(dst), c1: u!(c1), t1: u!(t1), c2: u!(c2), t2: u!(t2), f: u!(fr) }
            }
            Op::Select { dst, sel, base, n } => {
                Op::Select { dst: d!(dst), sel: u!(sel), base: f(Role::Range(n), base), n }
            }
            Op::Sext { dst, a, sign_bit, ext_or } => {
                Op::Sext { dst: d!(dst), a: u!(a), sign_bit, ext_or }
            }
            Op::Write { slot, src } => Op::Write { slot, src: u!(src) },
            Op::WriteMasked { slot, src, lo, field } => {
                Op::WriteMasked { slot, src: u!(src), lo, field }
            }
            Op::WriteNext { slot, src } => Op::WriteNext { slot, src: u!(src) },
            Op::WriteNextMasked { slot, src, lo, field } => {
                Op::WriteNextMasked { slot, src: u!(src), lo, field }
            }
            Op::WriteIf { slot, cond, src, neg } => {
                Op::WriteIf { slot, cond: u!(cond), src: u!(src), neg }
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                Op::WriteNextIf { slot, cond: u!(cond), src: u!(src), neg }
            }
            Op::MemRead { dst, mem, addr, words } => {
                Op::MemRead { dst: d!(dst), mem, addr: u!(addr), words }
            }
            Op::MemWrite { mem, addr, data, words } => {
                Op::MemWrite { mem, addr: u!(addr), data: u!(data), words }
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                Op::MemWriteIf { mem, addr: u!(addr), data: u!(data), cond: u!(cond), words, neg }
            }
            Op::Jz { cond, target } => Op::Jz { cond: u!(cond), target },
            Op::JneConst { a, k, target } => Op::JneConst { a: u!(a), k, target },
            Op::Jmp { target } => Op::Jmp { target },
        }
    }

    /// Visits every register operand with its [`Role`].
    #[inline]
    pub(crate) fn for_each_reg(&self, mut f: impl FnMut(Role, R)) {
        self.map_regs(&mut |role, r| f(role, r));
    }

    /// The register this op defines. An op without one (a store or a
    /// jump) exists only for its [`Effect`] and must never be removed as
    /// dead.
    #[inline]
    pub(crate) fn def(&self) -> Option<R> {
        let mut def = None;
        self.for_each_reg(|role, r| {
            if role == Role::Def {
                def = Some(r);
            }
        });
        def
    }
}

/// What a register operand is to its op; handed to [`Op::map_regs`]'
/// closure alongside the operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// The destination register.
    Def,
    /// A source register.
    Use,
    /// `Select`'s option-range base: it names `n` consecutive source
    /// registers, so it may only be renumbered together with all of them.
    Range(u16),
}

/// How a store op updates its target slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Store {
    /// Overwrites the whole slot.
    Full,
    /// Read-modify-writes a bit field of the slot.
    Masked,
    /// Overwrites the whole slot or leaves it untouched.
    Predicated,
}

/// What an op does beyond its registers: the one state slot or memory it
/// touches, or where it transfers control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Registers only.
    Pure,
    /// Loads `cur[slot]`.
    Read { slot: u32 },
    /// Stores to `cur[slot]`, or to the shadow `next[slot]` when `next`.
    Write { slot: u32, next: bool, how: Store },
    /// Loads a word of memory `mem` (`words` deep).
    MemRead { mem: u32, words: u64 },
    /// Queues a (possibly predicated) deferred store to memory `mem`.
    MemWrite { mem: u32, words: u64 },
    /// May continue at `target` instead of the next op; always does
    /// unless `cond`.
    Jump { target: u32, cond: bool },
}

impl<R> Op<R> {
    /// The op's [`Effect`]. Deliberately without a wildcard arm: a new
    /// variant must say here what state it touches before `validate`,
    /// the partition guard, the batch scatter sets or the optimizer's
    /// store/jump reasoning can compile.
    #[inline]
    pub(crate) fn effect(&self) -> Effect {
        match *self {
            Op::Const { .. }
            | Op::Copy { .. }
            | Op::Add { .. }
            | Op::Sub { .. }
            | Op::Mul { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::Not { .. }
            | Op::Neg { .. }
            | Op::Shl { .. }
            | Op::Shr { .. }
            | Op::Sra { .. }
            | Op::Eq { .. }
            | Op::Ne { .. }
            | Op::Lt { .. }
            | Op::Ge { .. }
            | Op::LtS { .. }
            | Op::GeS { .. }
            | Op::RedAnd { .. }
            | Op::RedOr { .. }
            | Op::RedXor { .. }
            | Op::Slice { .. }
            | Op::ShlOr { .. }
            | Op::Mux { .. }
            | Op::Mux2 { .. }
            | Op::Select { .. }
            | Op::Sext { .. } => Effect::Pure,
            Op::Read { slot, .. } => Effect::Read { slot },
            Op::Write { slot, .. } => Effect::Write { slot, next: false, how: Store::Full },
            Op::WriteMasked { slot, .. } => Effect::Write { slot, next: false, how: Store::Masked },
            Op::WriteIf { slot, .. } => Effect::Write { slot, next: false, how: Store::Predicated },
            Op::WriteNext { slot, .. } => Effect::Write { slot, next: true, how: Store::Full },
            Op::WriteNextMasked { slot, .. } => {
                Effect::Write { slot, next: true, how: Store::Masked }
            }
            Op::WriteNextIf { slot, .. } => {
                Effect::Write { slot, next: true, how: Store::Predicated }
            }
            Op::MemRead { mem, words, .. } => Effect::MemRead { mem, words },
            Op::MemWrite { mem, words, .. } | Op::MemWriteIf { mem, words, .. } => {
                Effect::MemWrite { mem, words }
            }
            Op::Jz { target, .. } | Op::JneConst { target, .. } => {
                Effect::Jump { target, cond: true }
            }
            Op::Jmp { target } => Effect::Jump { target, cond: false },
        }
    }

    /// The jump target, for rebasing and patching.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } => {
                Some(target)
            }
            _ => None,
        }
    }
}

/// Declares [`Kind`] — an op's variant without its operands — with each
/// kind's stable display name (the `OptReport::mix` / `--dump-passes`
/// histogram bucket) and whether its two sources commute.
macro_rules! kinds {
    ($($variant:ident $name:literal $commutative:literal,)*) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Kind {
            $($variant),*
        }

        impl Kind {
            /// Every kind, in [`Op`] declaration order.
            #[cfg(test)]
            pub(crate) const ALL: &'static [Kind] = &[$(Kind::$variant),*];
            const TABLE: &'static [(&'static str, bool)] = &[$(($name, $commutative)),*];

            pub(crate) fn name(self) -> &'static str {
                Kind::TABLE[self as usize].0
            }

            pub(crate) fn commutative(self) -> bool {
                Kind::TABLE[self as usize].1
            }
        }

        impl<R> Op<R> {
            pub(crate) fn kind(&self) -> Kind {
                match self {
                    $(Op::$variant { .. } => Kind::$variant),*
                }
            }
        }
    };
}

kinds! {
    Const "const" false,
    Read "read" false,
    Copy "copy" false,
    Add "add" true,
    Sub "sub" false,
    Mul "mul" true,
    And "and" true,
    Or "or" true,
    Xor "xor" true,
    Not "not" false,
    Neg "neg" false,
    Shl "shl" false,
    Shr "shr" false,
    Sra "sra" false,
    Eq "eq" true,
    Ne "ne" true,
    Lt "lt" false,
    Ge "ge" false,
    LtS "lt-s" false,
    GeS "ge-s" false,
    RedAnd "red-and" false,
    RedOr "red-or" false,
    RedXor "red-xor" false,
    Slice "slice" false,
    ShlOr "shl-or" false,
    Mux "mux" false,
    Mux2 "mux2" false,
    Select "select" false,
    Sext "sext" false,
    Write "write" false,
    WriteMasked "write-masked" false,
    WriteNext "write-next" false,
    WriteNextMasked "write-next-masked" false,
    WriteIf "write-if" false,
    WriteNextIf "write-next-if" false,
    MemRead "mem-read" false,
    MemWrite "mem-write" false,
    MemWriteIf "mem-write-if" false,
    Jz "jz" false,
    JneConst "jne-const" false,
    Jmp "jmp" false,
}

#[cfg(test)]
impl Kind {
    /// A well-formed op of this kind over `w`-bit values, for the tests
    /// that walk the whole instruction set: sources are `r0..=r4`
    /// (`Select`'s options `r1..=r3`), the destination `r6`; loads read
    /// slot 0 / memory 0 (4 words), stores hit slot 7 / memory 0, jumps go
    /// to `end`. `rnd` supplies the immediates that have a free choice.
    pub(crate) fn sample(self, w: u32, end: u32, rnd: &mut impl FnMut() -> u128) -> Op {
        let (dst, a, b, slot, target) = (6, 0, 1, 7, end);
        let (mem, addr, data, words) = (0, 0, 1, 4);
        let (mask, width, ext) = (mask_of(w), w, 128 - w);
        let lo = (rnd() % w as u128) as u32;
        let field = mask_of(1 + (rnd() % (w - lo) as u128) as u32) << lo;
        let neg = rnd() % 2 == 1;
        match self {
            Kind::Const => Op::Const { dst, val: rnd() & mask },
            Kind::Read => Op::Read { dst, slot: 0 },
            Kind::Copy => Op::Copy { dst, a },
            Kind::Add => Op::Add { dst, a, b, mask },
            Kind::Sub => Op::Sub { dst, a, b, mask },
            Kind::Mul => Op::Mul { dst, a, b, mask },
            Kind::And => Op::And { dst, a, b },
            Kind::Or => Op::Or { dst, a, b },
            Kind::Xor => Op::Xor { dst, a, b },
            Kind::Not => Op::Not { dst, a, mask },
            Kind::Neg => Op::Neg { dst, a, mask },
            Kind::Shl => Op::Shl { dst, a, b, width, mask },
            Kind::Shr => Op::Shr { dst, a, b, width },
            Kind::Sra => Op::Sra { dst, a, b, width, mask, ext },
            Kind::Eq => Op::Eq { dst, a, b },
            Kind::Ne => Op::Ne { dst, a, b },
            Kind::Lt => Op::Lt { dst, a, b },
            Kind::Ge => Op::Ge { dst, a, b },
            Kind::LtS => Op::LtS { dst, a, b, ext },
            Kind::GeS => Op::GeS { dst, a, b, ext },
            Kind::RedAnd => Op::RedAnd { dst, a, mask },
            Kind::RedOr => Op::RedOr { dst, a },
            Kind::RedXor => Op::RedXor { dst, a },
            Kind::Slice => Op::Slice { dst, a, lo, mask: mask_of(w - lo) },
            Kind::ShlOr => Op::ShlOr { dst, a, b, shift: lo },
            Kind::Mux => Op::Mux { dst, cond: 0, t: 1, f: 2 },
            Kind::Mux2 => Op::Mux2 { dst, c1: 0, t1: 1, c2: 2, t2: 3, f: 4 },
            Kind::Select => Op::Select { dst, sel: 0, base: 1, n: 3 },
            Kind::Sext => Op::Sext { dst, a, sign_bit: 1 << (w - 1), ext_or: !mask },
            Kind::Write => Op::Write { slot, src: a },
            Kind::WriteMasked => Op::WriteMasked { slot, src: a, lo, field },
            Kind::WriteNext => Op::WriteNext { slot, src: a },
            Kind::WriteNextMasked => Op::WriteNextMasked { slot, src: a, lo, field },
            Kind::WriteIf => Op::WriteIf { slot, cond: 1, src: a, neg },
            Kind::WriteNextIf => Op::WriteNextIf { slot, cond: 1, src: a, neg },
            Kind::MemRead => Op::MemRead { dst, mem, addr, words },
            Kind::MemWrite => Op::MemWrite { mem, addr, data, words },
            Kind::MemWriteIf => Op::MemWriteIf { mem, addr, data, cond: 2, words, neg },
            Kind::Jz => Op::Jz { cond: 0, target },
            Kind::JneConst => Op::JneConst { a, k: rnd() % 3, target },
            Kind::Jmp => Op::Jmp { target },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layout the executors' dispatch and the plane programs' cache
    /// footprint were measured at; a change here is a performance change.
    #[test]
    fn op_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Op>(), 48);
        assert_eq!(std::mem::size_of::<Op<crate::batch::Opd>>(), 64);
    }
}

/// A compiled update block: `Tape` (physical registers) is what the
/// executors run, `Tape<VReg>` is what the compiler emits and the
/// optimizer transforms.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape<R = Reg> {
    pub ops: Vec<Op<R>>,
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

impl<R> Tape<R> {
    /// Whether the tape has any control flow (a jump-free tape executes
    /// every op, in order, every time).
    pub(crate) fn has_jumps(&self) -> bool {
        self.ops.iter().any(|op| matches!(op.effect(), Effect::Jump { .. }))
    }
}

pub(crate) fn mask_of(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

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
///
/// When `TRACK` is true, combinational writes that change a slot's value
/// push the slot index into `changed` (used by the event-driven specialized
/// engine for sensitivity propagation).
///
/// Uses unchecked indexing in the hot loop; every index is range-checked
/// once by `validate` at simulator construction, which makes the
/// unchecked accesses sound.
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
