//! The tape VM: a linear bytecode executed straight-line over packed
//! state slots.
//!
//! This is the heart of the SimJIT substitution (see `DESIGN.md`): where
//! PyMTL's SimJIT generates and compiles C++, RustMTL's specializing
//! engines lower each IR block to a flat three-address tape with
//! pre-resolved net slots, precomputed masks, and constant-folded operands.
//! This module holds the instruction set and the executor body;
//! [`crate::compile`] is the only producer of tapes, and
//! [`crate::state`] — which owns the packed state a tape runs against —
//! the only caller of the body.
//!
//! State is always `u128` at a 16-byte stride (nets are at most 128
//! bits). What varies is the machine [`Word`] a tape *computes* on: the
//! instruction set is generic over it, and each tape runs the `u64`
//! instantiation (8-byte registers, 24-byte ops) when `compile` proved that
//! all its values fit, the `u128` one (16 and 48 bytes) otherwise.
//!
//! What a register-only op computes is written once, in [`pure`], over a
//! value [`Shape`]: the scalar executor, the lane executor and the
//! optimizer's constant folder all run that one `match`, and keep arms of
//! their own only for the ops that touch state, memory or control flow.

/// A physical register index within an executable tape. Kept at 16 bits so
/// an [`Op`] is 48 bytes (two `u128` immediates plus operands and tag) and
/// its `u64` lowering 24.
pub(crate) type Reg = u16;

/// A virtual register index used during compilation and optimization.
/// Emission allocates freely in this space; the optimizer's `realloc`
/// pass renumbers the live survivors, and `narrow` checks the
/// result against the physical [`Reg`] budget.
pub(crate) type VReg = u32;

/// One tape instruction, generic over the register index type `R` and
/// the machine [`Word`] `W` its immediates are typed as: `Op<Reg>` (the
/// defaults) is the canonical executable form, `Op<VReg>` is what the
/// compiler emits and the optimizer transforms, and `Op<Reg, u64>` is the
/// 64-bit lowering the executor runs when the whole tape provably fits
/// (see [`Tape::narrow`]). `mask` fields are precomputed width masks.
///
/// Three facts about the instruction set are declared once, below the
/// enum, and every consumer derives from them: each operand's place —
/// register operands with their [`Role`], immediates by their `W` type,
/// the slot or memory index with its [`Table`] ([`Op::map`]) — each op's
/// [`Effect`] on simulator state ([`Op::effect`]) and its [`Kind`] (name,
/// commutativity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Op<R = Reg, W = u128> {
    Const {
        dst: R,
        val: W,
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
        mask: W,
    },
    Sub {
        dst: R,
        a: R,
        b: R,
        mask: W,
    },
    Mul {
        dst: R,
        a: R,
        b: R,
        mask: W,
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
        mask: W,
    },
    Neg {
        dst: R,
        a: R,
        mask: W,
    },
    Shl {
        dst: R,
        a: R,
        b: R,
        width: u32,
        mask: W,
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
        mask: W,
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
        mask: W,
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
        mask: W,
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
        sign_bit: W,
        ext_or: W,
    },
    Write {
        slot: u32,
        src: R,
    },
    WriteMasked {
        slot: u32,
        src: R,
        lo: u32,
        field: W,
    },
    WriteNext {
        slot: u32,
        src: R,
    },
    WriteNextMasked {
        slot: u32,
        src: R,
        lo: u32,
        field: W,
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
        k: W,
        target: u32,
    },
    Jmp {
        target: u32,
    },
}

impl<R: Copy, W: Copy> Op<R, W> {
    /// Rebuilds the op with every register operand passed through `f`
    /// together with its [`Role`], every immediate that holds a machine
    /// word through `g`, and the net slot or memory index it names through
    /// `h` together with its [`Table`]. This is the one per-variant listing
    /// of operands: renumbering, def/use queries, use rewriting, range
    /// validation, the CSE key, the 64-bit lowering
    /// ([`Op::to_word`]) and per-instance relocation ([`Op::map_state`])
    /// all route here.
    #[inline]
    pub(crate) fn map<S, V>(
        &self,
        f: &mut impl FnMut(Role, R) -> S,
        g: &mut impl FnMut(W) -> V,
        h: &mut impl FnMut(Table, u32) -> u32,
    ) -> Op<S, V> {
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
        macro_rules! s {
            ($i:expr) => {
                h(Table::Slot, $i)
            };
        }
        macro_rules! m {
            ($i:expr) => {
                h(Table::Mem, $i)
            };
        }
        match *self {
            Op::Const { dst, val } => Op::Const { dst: d!(dst), val: g(val) },
            Op::Read { dst, slot } => Op::Read { dst: d!(dst), slot: s!(slot) },
            Op::Copy { dst, a } => Op::Copy { dst: d!(dst), a: u!(a) },
            Op::Add { dst, a, b, mask } => {
                Op::Add { dst: d!(dst), a: u!(a), b: u!(b), mask: g(mask) }
            }
            Op::Sub { dst, a, b, mask } => {
                Op::Sub { dst: d!(dst), a: u!(a), b: u!(b), mask: g(mask) }
            }
            Op::Mul { dst, a, b, mask } => {
                Op::Mul { dst: d!(dst), a: u!(a), b: u!(b), mask: g(mask) }
            }
            Op::And { dst, a, b } => Op::And { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Or { dst, a, b } => Op::Or { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Xor { dst, a, b } => Op::Xor { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Not { dst, a, mask } => Op::Not { dst: d!(dst), a: u!(a), mask: g(mask) },
            Op::Neg { dst, a, mask } => Op::Neg { dst: d!(dst), a: u!(a), mask: g(mask) },
            Op::Shl { dst, a, b, width, mask } => {
                Op::Shl { dst: d!(dst), a: u!(a), b: u!(b), width, mask: g(mask) }
            }
            Op::Shr { dst, a, b, width } => Op::Shr { dst: d!(dst), a: u!(a), b: u!(b), width },
            Op::Sra { dst, a, b, width, mask, ext } => {
                Op::Sra { dst: d!(dst), a: u!(a), b: u!(b), width, mask: g(mask), ext }
            }
            Op::Eq { dst, a, b } => Op::Eq { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Ne { dst, a, b } => Op::Ne { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Lt { dst, a, b } => Op::Lt { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::Ge { dst, a, b } => Op::Ge { dst: d!(dst), a: u!(a), b: u!(b) },
            Op::LtS { dst, a, b, ext } => Op::LtS { dst: d!(dst), a: u!(a), b: u!(b), ext },
            Op::GeS { dst, a, b, ext } => Op::GeS { dst: d!(dst), a: u!(a), b: u!(b), ext },
            Op::RedAnd { dst, a, mask } => Op::RedAnd { dst: d!(dst), a: u!(a), mask: g(mask) },
            Op::RedOr { dst, a } => Op::RedOr { dst: d!(dst), a: u!(a) },
            Op::RedXor { dst, a } => Op::RedXor { dst: d!(dst), a: u!(a) },
            Op::Slice { dst, a, lo, mask } => {
                Op::Slice { dst: d!(dst), a: u!(a), lo, mask: g(mask) }
            }
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
                Op::Sext { dst: d!(dst), a: u!(a), sign_bit: g(sign_bit), ext_or: g(ext_or) }
            }
            Op::Write { slot, src } => Op::Write { slot: s!(slot), src: u!(src) },
            Op::WriteMasked { slot, src, lo, field } => {
                Op::WriteMasked { slot: s!(slot), src: u!(src), lo, field: g(field) }
            }
            Op::WriteNext { slot, src } => Op::WriteNext { slot: s!(slot), src: u!(src) },
            Op::WriteNextMasked { slot, src, lo, field } => {
                Op::WriteNextMasked { slot: s!(slot), src: u!(src), lo, field: g(field) }
            }
            Op::WriteIf { slot, cond, src, neg } => {
                Op::WriteIf { slot: s!(slot), cond: u!(cond), src: u!(src), neg }
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                Op::WriteNextIf { slot: s!(slot), cond: u!(cond), src: u!(src), neg }
            }
            Op::MemRead { dst, mem, addr, words } => {
                Op::MemRead { dst: d!(dst), mem: m!(mem), addr: u!(addr), words }
            }
            Op::MemWrite { mem, addr, data, words } => {
                Op::MemWrite { mem: m!(mem), addr: u!(addr), data: u!(data), words }
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => Op::MemWriteIf {
                mem: m!(mem),
                addr: u!(addr),
                data: u!(data),
                cond: u!(cond),
                words,
                neg,
            },
            Op::Jz { cond, target } => Op::Jz { cond: u!(cond), target },
            Op::JneConst { a, k, target } => Op::JneConst { a: u!(a), k: g(k), target },
            Op::Jmp { target } => Op::Jmp { target },
        }
    }

    /// [`Op::map`] over the register operands alone.
    #[inline]
    pub(crate) fn map_regs<S>(&self, f: &mut impl FnMut(Role, R) -> S) -> Op<S, W> {
        self.map(f, &mut |w| w, &mut |_, i| i)
    }

    /// [`Op::map`] over the state operand alone: how `compile` renumbers a
    /// block body's slots and memories to instance-independent indices and
    /// relocates the compiled body back onto each instance's.
    #[inline]
    pub(crate) fn map_state(&self, h: &mut impl FnMut(Table, u32) -> u32) -> Op<R, W> {
        self.map(&mut |_, r| r, &mut |w| w, h)
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

/// The machine word a tape executes on: what registers hold and what
/// [`Op`] immediates are typed as. `u128` covers every design (nets are
/// at most 128 bits); `u64` is the class `compile` proves most tapes into,
/// at half the register footprint and half the op size. The executor body
/// is written once against this trait.
pub(crate) trait Word:
    Copy
    + Ord
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
    + std::ops::Shl<u32, Output = Self>
    + std::ops::Shr<u32, Output = Self>
{
    const BITS: u32;
    /// `v as Self`: keeps the low [`Word::BITS`] bits.
    fn from_u128(v: u128) -> Self;
    /// `self as u128`: zero-extends.
    fn to_u128(self) -> u128;
    fn wrapping_add(self, o: Self) -> Self;
    fn wrapping_sub(self, o: Self) -> Self;
    fn wrapping_mul(self, o: Self) -> Self;
    fn wrapping_neg(self) -> Self;
    fn count_ones(self) -> u32;
    /// Arithmetic shift right: the word's top bit is the sign.
    fn sar(self, n: u32) -> Self;
    /// Two's-complement `self < o`.
    fn lt_signed(self, o: Self) -> bool;
}

macro_rules! word {
    ($u:ty, $i:ty) => {
        impl Word for $u {
            const BITS: u32 = <$u>::BITS;
            #[inline(always)]
            fn from_u128(v: u128) -> Self {
                v as $u
            }
            #[inline(always)]
            fn to_u128(self) -> u128 {
                self as u128
            }
            #[inline(always)]
            fn wrapping_add(self, o: Self) -> Self {
                <$u>::wrapping_add(self, o)
            }
            #[inline(always)]
            fn wrapping_sub(self, o: Self) -> Self {
                <$u>::wrapping_sub(self, o)
            }
            #[inline(always)]
            fn wrapping_mul(self, o: Self) -> Self {
                <$u>::wrapping_mul(self, o)
            }
            #[inline(always)]
            fn wrapping_neg(self) -> Self {
                <$u>::wrapping_neg(self)
            }
            #[inline(always)]
            fn count_ones(self) -> u32 {
                <$u>::count_ones(self)
            }
            #[inline(always)]
            fn sar(self, n: u32) -> Self {
                (self as $i >> n) as $u
            }
            #[inline(always)]
            fn lt_signed(self, o: Self) -> bool {
                (self as $i) < (o as $i)
            }
        }
    };
}

word!(u64, i64);
word!(u128, i128);

impl<R: Copy, W: Word> Op<R, W> {
    /// The same op over word `V`, or `None` if it has no equal there: an
    /// immediate that does not survive the conversion, or a sign position
    /// outside the word. Immediates convert with `as`; the sign-extension
    /// counts of `Sra`/`LtS`/`GeS` — distances from the value's sign bit
    /// to the *word's* top bit — are rebased by the difference in word
    /// size. Index-preserving: registers, slots and targets are untouched.
    /// Whether the *values* the op handles fit is the caller's question
    /// (`compile` answers it).
    pub(crate) fn to_word<V: Word>(&self) -> Option<Op<R, V>> {
        let mut exact = true;
        let to_v = &mut |w: W| {
            let v = V::from_u128(w.to_u128());
            exact &= v.to_u128() == w.to_u128();
            v
        };
        let mut op = self.map(&mut |_, r| r, to_v, &mut |_, i| i);
        if let Op::Sra { ext, .. } | Op::LtS { ext, .. } | Op::GeS { ext, .. } = &mut op {
            *ext = ext.checked_add(V::BITS)?.checked_sub(W::BITS)?;
        }
        exact.then_some(op)
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

/// Which state table an op's state operand indexes; handed to
/// [`Op::map_state`]'s closure alongside the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Table {
    /// A net slot of `cur`/`next`.
    Slot,
    /// A memory.
    Mem,
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
    /// the partition guard or the optimizer's
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
    /// Up to 64 bits the op stays within the low machine word (`Sext`
    /// extends to 64 bits, beyond that to 128), so it lowers to `u64`.
    pub(crate) fn sample(self, w: u32, end: u32, rnd: &mut impl FnMut() -> u128) -> Op {
        let (dst, a, b, slot, target) = (6, 0, 1, 7, end);
        let (mem, addr, data, words) = (0, 0, 1, 4);
        let (mask, width, ext) = (mask_of(w), w, 128 - w);
        let word = mask_of(if w <= 64 { 64 } else { 128 });
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
            Kind::Sext => Op::Sext { dst, a, sign_bit: 1 << (w - 1), ext_or: word & !mask },
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

/// 128 random bits (splitmix64, twice) for the tests that draw operands
/// for [`Kind::sample`].
#[cfg(test)]
pub(crate) fn rnd128(seed: &mut u64) -> u128 {
    let mut half = || {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*seed ^ (*seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u128
    };
    half() << 64 | half()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layout the executors' dispatch was measured at; a change here
    /// is a performance change.
    #[test]
    fn op_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Op>(), 48);
        assert_eq!(std::mem::size_of::<Op<Reg, u64>>(), 24);
    }

    /// Relocation must move exactly the state an op touches: for every
    /// kind, in both word classes, [`Op::map_state`] visits the one slot
    /// or memory [`Op::effect`] reports (and nothing for the rest), the
    /// identity leaves the op unchanged, and a new index lands where
    /// `effect` looks for it.
    #[test]
    fn map_state_visits_exactly_the_state_effect_reports() {
        type Seen = Vec<(Table, u32)>;
        fn visit<W: Copy>(op: &Op<Reg, W>, to: Option<u32>) -> (Seen, Op<Reg, W>) {
            let mut seen = Vec::new();
            let moved = op.map_state(&mut |table, i| {
                seen.push((table, i));
                to.unwrap_or(i)
            });
            (seen, moved)
        }
        let state_of = |op: &Op| match op.effect() {
            Effect::Read { slot } | Effect::Write { slot, .. } => vec![(Table::Slot, slot)],
            Effect::MemRead { mem, .. } | Effect::MemWrite { mem, .. } => vec![(Table::Mem, mem)],
            Effect::Pure | Effect::Jump { .. } => vec![],
        };
        let mut seed = 3u64;
        for &kind in Kind::ALL {
            let op = kind.sample(8, 1, &mut || rnd128(&mut seed));
            let low = op.to_word::<u64>().expect("8-bit samples lower");
            let (seen, same) = visit(&op, None);
            assert_eq!(seen, state_of(&op), "{kind:?}");
            assert_eq!(same, op, "{kind:?}: identity");
            assert_eq!(visit(&low, None), (seen.clone(), low.clone()), "{kind:?}: u64 class");
            let (_, moved) = visit(&op, Some(41));
            let want: Vec<_> = seen.iter().map(|&(table, _)| (table, 41)).collect();
            assert_eq!(state_of(&moved), want, "{kind:?}: relocated");
            assert_eq!(
                visit(&low, Some(41)).1.to_word::<u128>(),
                Some(moved),
                "{kind:?}: u64 relocated"
            );
        }
    }

    /// The instruction set has two per-op implementations: `pure` — run by
    /// the scalar executor and by the lane executor (each instantiated at
    /// `u128` and at `u64`; lanes run no jumps) and by `eval_pure` (words
    /// that may be unknown) — and the width transfer `approx_bits` behind
    /// the word classification. For every kind in the table, over narrow,
    /// word-sized and wide values with distinct operands in 64 states,
    /// they must agree: the lane executor runs the 64 states as four lane
    /// blocks of one gang, in whichever class the tape classified into,
    /// and each lane must end where its own scalar run ends.
    ///
    /// The op under test sits between loads of slots 0..=5 into `r0..=r5`
    /// and a store of its result to slot 6; slot 7 is the store target of
    /// [`Kind::sample`]. Block 0 is that tape, block 1 the same behind a
    /// `Jz` to the end on slot 8, which is 0 or 1 per state (0 everywhere
    /// in the last round). Up to 64 bits both tapes classify into the `u64`
    /// class — except a `ShlOr` whose result really is wider — which the
    /// scalar reference then runs; the reference is the same tape with its
    /// narrow program removed.
    #[test]
    fn every_kind_agrees_across_scalar_fold_and_lanes() {
        use std::sync::Arc;

        use mtl_bits::Bits;

        use crate::compile::passes::eval_pure;
        use crate::compile::{Gang, Layout, LANES};
        use crate::state::PackedState;
        use crate::tape_engine::gang_bank;

        /// One state: `cur` and `next` by slot, then the memory words,
        /// then (after a run) the queued memory writes.
        type State = (Vec<u128>, Vec<u128>, Vec<u128>, Vec<(u32, u64, u128)>);

        let mut seed = 7u64;
        let mut rnd = move || rnd128(&mut seed);
        for w in [1, 7, 63, 64, 65, 128] {
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

                let layout = Layout::plain(&widths, &[w], &[]);
                let tapes: Vec<Tape> = raw.iter().map(|t| layout.finish_alone(t)).collect();
                for (t, r) in tapes.iter().zip(raw.iter()) {
                    assert_eq!(t.ops, r.ops, "{kind:?} w={w}: fusing one tape is the identity");
                    assert_eq!(t.narrow.is_some(), narrow, "{kind:?} w={w}: class of {op:?}");
                }

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
                    let before: Vec<State> = (0..64)
                        .map(|_| {
                            let mut cur: Vec<u128> =
                                widths.iter().map(|&w| value(&mut rnd, w)).collect();
                            cur[8] = if round == 3 { 0 } else { rnd() % 2 };
                            let next = widths.iter().map(|&w| value(&mut rnd, w)).collect();
                            let mem = (0..4).map(|_| value(&mut rnd, w)).collect();
                            (cur, next, mem, Vec::new())
                        })
                        .collect();

                    let scalar = |tape: &Tape, (cur, next, mem, _): &State| {
                        let mut state = PackedState::from_widths(&widths, &[(w, 4)], &[]);
                        state.fill(cur, next);
                        for (addr, &v) in mem.iter().enumerate() {
                            state.poke_mem(0, addr as u64, Bits::new(w, v));
                        }
                        let mut pending = Vec::new();
                        state.exec::<false>(tape, 0, &mut [0; 8], &mut pending, &mut Vec::new());
                        let (cur, next, _) = state.dump();
                        (cur, next, mem.clone(), pending)
                    };
                    // The lane executor, in the tape's class: block 0 as
                    // the body of a gang of the 64 states (four lane
                    // blocks), instance `i` on slots `9 i..9 i + 9` and
                    // memory `i`. Each lane must end where the scalar run
                    // of its own state ends, its queued stores in program
                    // order.
                    if !matches!(op.effect(), Effect::Jump { .. }) {
                        let n = before.len();
                        let slot = |i: usize| {
                            let (lane_block, local, lane) =
                                (i / (9 * LANES), i / LANES % 9, i % LANES);
                            ((lane_block * LANES + lane) * 9 + local) as u32
                        };
                        let gang = Gang {
                            body: 0,
                            blocks: (0..n as u32).collect(),
                            slots: (0..9 * n).map(slot).collect(),
                            mems: (0..n as u32).collect(),
                            params: Vec::new(),
                        };
                        let mut state =
                            PackedState::from_widths(&widths.repeat(n), &vec![(w, 4); n], &[]);
                        let column = |pick: fn(&State) -> &Vec<u128>| -> Vec<u128> {
                            before.iter().flat_map(|st| pick(st).clone()).collect()
                        };
                        state.fill(&column(|st| &st.0), &column(|st| &st.1));
                        for (lane, (_, _, mem, _)) in before.iter().enumerate() {
                            for (addr, &v) in mem.iter().enumerate() {
                                state.poke_mem(lane, addr as u64, Bits::new(w, v));
                            }
                        }
                        let (mut bank, mut pending) = (gang_bank(&gang, &tapes), Vec::new());
                        state.exec_lanes(&tapes[0], &gang, &mut bank, &mut pending);
                        let (cur, next, _) = state.dump();
                        for (lane, lane_state) in before.iter().enumerate() {
                            let own = |column: &[u128]| column[9 * lane..][..9].to_vec();
                            let queued = pending.iter().filter(|store| store.0 == lane as u32);
                            let got: State = (
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
                        for st in &before {
                            // The wide executor over the canonical ops is
                            // the reference; the classified tape (the `u64`
                            // instantiation when narrow) must match it.
                            let want = scalar(&raw[b], st);
                            let classed = scalar(&tapes[b], st);
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
                        }
                    }
                }
            }
        }
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
    /// `ops[prelude..]` each cycle; executing the whole tape from op 0
    /// with scratch registers is equally correct.
    pub prelude: u32,
    /// The 64-bit class: `ops` re-typed index for index by
    /// [`Op::to_word`], present iff `compile` proved that every value the
    /// tape computes, loads, stores or compares against fits 64 bits. The
    /// executors run it instead of `ops` — same registers, slots and jump
    /// targets, so `validate`'s range check of `ops` (which also re-checks
    /// this correspondence) covers both. Everything that *reads* a tape
    /// (`validate`, the partition guard, re-optimization)
    /// reads `ops`.
    pub narrow: Option<Vec<Op<Reg, u64>>>,
    /// Whether `validate` proved that no run of the tape reads a register
    /// the run did not write first (see `codegen::defs_before_uses`): a
    /// persistent buffer's registers outside the prelude are then dead
    /// between runs. `false` until validated, and on every tape with jumps.
    pub defs_first: bool,
    /// A block body's parameters (see [`Param`]); empty on every tape an
    /// engine executes as it stands — an instance's tape has its values
    /// in their place.
    pub params: Vec<Param<R>>,
}

/// A parameter of a block body: a literal whose value differs among the
/// instances of its shape (`Design::shape_params`). The body loads it with
/// one `Const` into a register nothing else defines, placeholder value and
/// all; the optimizer neither folds nor merges it, knowing only its width,
/// and pins its register, so that each instance's tape is the body with
/// its own value written into that `Const`, and a gang loads each lane's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Param<R = Reg> {
    /// Which of the block's parameter values (`Design::block_params`) it is.
    pub index: u32,
    /// The register its `Const` defines.
    pub reg: R,
    /// Its width in bits.
    pub width: u32,
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

/// Views a `u128` register buffer as `u64` registers: a narrow tape's
/// `nregs` registers occupy the first half of the bytes the wide class
/// would use, so any buffer sized for the tape serves either class.
#[inline(always)]
pub(crate) fn as_u64s(regs: &mut [u128]) -> &mut [u64] {
    // SAFETY: `u64` has a smaller alignment than `u128` and no invalid bit
    // patterns, the length covers exactly the same bytes, and the
    // exclusive borrow of `regs` is held for the result's lifetime.
    unsafe { std::slice::from_raw_parts_mut(regs.as_mut_ptr().cast::<u64>(), regs.len() * 2) }
}

/// Views a `u128` register buffer as lane registers of `L` `u64` words
/// each (`L / 2` buffer words a register).
#[inline(always)]
pub(crate) fn lane_regs<const L: usize>(regs: &mut [u128]) -> &mut [[u64; L]] {
    as_u64s(regs).as_chunks_mut().0
}

/// Installs a const prelude: `splat` turns an immediate into what one
/// register holds.
fn install<V: Copy, R>(prelude: &[Op<Reg, V>], regs: &mut [R], splat: impl Fn(V) -> R) {
    for op in prelude {
        match op {
            Op::Const { dst, val } => regs[*dst as usize] = splat(*val),
            _ => unreachable!("validate: prelude ops are Const"),
        }
    }
}

/// Runs a tape's const prelude into a persistent register buffer, once
/// per buffer lifetime; executing from `tape.prelude` then skips it.
pub(crate) fn exec_prelude(tape: &Tape, regs: &mut [u128]) {
    let pre = tape.prelude as usize;
    match &tape.narrow {
        Some(ops) => install(&ops[..pre], as_u64s(regs), |v| v),
        None => install(&tape.ops[..pre], regs, |v| v),
    }
}

/// [`exec_prelude`] for a lane register bank of either class: every lane
/// gets the constant.
pub(crate) fn broadcast_prelude<W: Word, const L: usize>(
    prelude: &[Op<Reg, W>],
    regs: &mut [[W; L]],
) {
    install(prelude, regs, |v| [v; L]);
}

/// What a register holds while [`pure`] computes on it: one word (the
/// scalar executor), `L` words (one per lane of [`exec_lanes`]), or a word
/// that may not be known (the constant folder). A shape lifts an operation
/// on words to itself.
pub(crate) trait Shape<W: Word>: Copy {
    fn map1(self, f: impl Fn(W) -> W) -> Self;
    fn map2(self, b: Self, f: impl Fn(W, W) -> W) -> Self;
    fn map3(self, b: Self, c: Self, f: impl Fn(W, W, W) -> W) -> Self;
}

impl<W: Word> Shape<W> for W {
    #[inline(always)]
    fn map1(self, f: impl Fn(W) -> W) -> W {
        f(self)
    }
    #[inline(always)]
    fn map2(self, b: W, f: impl Fn(W, W) -> W) -> W {
        f(self, b)
    }
    #[inline(always)]
    fn map3(self, b: W, c: W, f: impl Fn(W, W, W) -> W) -> W {
        f(self, b, c)
    }
}

/// Lane by lane. Each result is complete before the caller stores it —
/// possibly over a source — so these are fixed-trip-count loops the
/// compiler vectorises without alias checks.
impl<W: Word, const L: usize> Shape<W> for [W; L] {
    #[inline(always)]
    fn map1(self, f: impl Fn(W) -> W) -> Self {
        std::array::from_fn(|l| f(self[l]))
    }
    #[inline(always)]
    fn map2(self, b: Self, f: impl Fn(W, W) -> W) -> Self {
        std::array::from_fn(|l| f(self[l], b[l]))
    }
    #[inline(always)]
    fn map3(self, b: Self, c: Self, f: impl Fn(W, W, W) -> W) -> Self {
        std::array::from_fn(|l| f(self[l], b[l], c[l]))
    }
}

/// Known only when every source is.
impl<W: Word> Shape<W> for Option<W> {
    #[inline(always)]
    fn map1(self, f: impl Fn(W) -> W) -> Self {
        Some(f(self?))
    }
    #[inline(always)]
    fn map2(self, b: Self, f: impl Fn(W, W) -> W) -> Self {
        Some(f(self?, b?))
    }
    #[inline(always)]
    fn map3(self, b: Self, c: Self, f: impl Fn(W, W, W) -> W) -> Self {
        Some(f(self?, b?, c?))
    }
}

/// What every register-only op computes: its destination and the value it
/// puts there, given its sources through `get`. This is the one statement
/// of these kinds' arithmetic — the scalar executor runs it on words, the
/// lane executor on `L` words at once, the constant folder on words that
/// may be unknown. `None` for the ops that are not a function of their
/// source registers alone and so stay with each executor: state, memory
/// and jump ops, `Const` (an immediate to splat) and `Select` (a register
/// read indexed by a value). Deliberately without a wildcard arm, like
/// [`Op::effect`].
#[inline(always)]
pub(crate) fn pure<R: Copy, W: Word, V: Shape<W>>(
    op: &Op<R, W>,
    get: impl Fn(R) -> V,
) -> Option<(R, V)> {
    let zero = W::from_u128(0);
    let flag = |b: bool| W::from_u128(b as u128);
    // A shift amount already known to be below `W::BITS`.
    let small = |v: W| v.to_u128() as u32;
    let mux = |c: W, t: W, f: W| if c != zero { t } else { f };
    // A shift by the value's width or more leaves nothing.
    let over = |n: W, width: u32| n >= W::from_u128(width as u128);
    Some(match *op {
        Op::Copy { dst, a } => (dst, get(a)),
        Op::Add { dst, a, b, mask } => (dst, get(a).map2(get(b), |x, y| x.wrapping_add(y) & mask)),
        Op::Sub { dst, a, b, mask } => (dst, get(a).map2(get(b), |x, y| x.wrapping_sub(y) & mask)),
        Op::Mul { dst, a, b, mask } => (dst, get(a).map2(get(b), |x, y| x.wrapping_mul(y) & mask)),
        Op::And { dst, a, b } => (dst, get(a).map2(get(b), |x, y| x & y)),
        Op::Or { dst, a, b } => (dst, get(a).map2(get(b), |x, y| x | y)),
        Op::Xor { dst, a, b } => (dst, get(a).map2(get(b), |x, y| x ^ y)),
        Op::Not { dst, a, mask } => (dst, get(a).map1(|x| !x & mask)),
        Op::Neg { dst, a, mask } => (dst, get(a).map1(|x| x.wrapping_neg() & mask)),
        Op::Shl { dst, a, b, width, mask } => {
            let f = |x: W, n: W| if over(n, width) { zero } else { (x << small(n)) & mask };
            (dst, get(a).map2(get(b), f))
        }
        Op::Shr { dst, a, b, width } => {
            (dst, get(a).map2(get(b), |x, n| if over(n, width) { zero } else { x >> small(n) }))
        }
        Op::Sra { dst, a, b, width, mask, ext } => {
            let amt = |n: W| small(n.min(W::from_u128(width as u128))).min(W::BITS - 1);
            (dst, get(a).map2(get(b), |x, n| (x << ext).sar(ext).sar(amt(n)) & mask))
        }
        Op::Eq { dst, a, b } => (dst, get(a).map2(get(b), |x, y| flag(x == y))),
        Op::Ne { dst, a, b } => (dst, get(a).map2(get(b), |x, y| flag(x != y))),
        Op::Lt { dst, a, b } => (dst, get(a).map2(get(b), |x, y| flag(x < y))),
        Op::Ge { dst, a, b } => (dst, get(a).map2(get(b), |x, y| flag(x >= y))),
        Op::LtS { dst, a, b, ext } => {
            (dst, get(a).map2(get(b), |x, y| flag((x << ext).lt_signed(y << ext))))
        }
        Op::GeS { dst, a, b, ext } => {
            (dst, get(a).map2(get(b), |x, y| flag(!(x << ext).lt_signed(y << ext))))
        }
        Op::RedAnd { dst, a, mask } => (dst, get(a).map1(|x| flag(x == mask))),
        Op::RedOr { dst, a } => (dst, get(a).map1(|x| flag(x != zero))),
        Op::RedXor { dst, a } => (dst, get(a).map1(|x| flag(x.count_ones() % 2 == 1))),
        Op::Slice { dst, a, lo, mask } => (dst, get(a).map1(|x| (x >> lo) & mask)),
        Op::ShlOr { dst, a, b, shift } => (dst, get(a).map2(get(b), |x, y| (x << shift) | y)),
        Op::Mux { dst, cond, t, f } => (dst, get(cond).map3(get(t), get(f), mux)),
        Op::Mux2 { dst, c1, t1, c2, t2, f } => {
            (dst, get(c1).map3(get(t1), get(c2).map3(get(t2), get(f), mux), mux))
        }
        Op::Sext { dst, a, sign_bit, ext_or } => {
            (dst, get(a).map1(|x| if x & sign_bit != zero { x | ext_or } else { x }))
        }
        Op::Const { .. }
        | Op::Select { .. }
        | Op::Read { .. }
        | Op::Write { .. }
        | Op::WriteMasked { .. }
        | Op::WriteNext { .. }
        | Op::WriteNextMasked { .. }
        | Op::WriteIf { .. }
        | Op::WriteNextIf { .. }
        | Op::MemRead { .. }
        | Op::MemWrite { .. }
        | Op::MemWriteIf { .. }
        | Op::Jz { .. }
        | Op::JneConst { .. }
        | Op::Jmp { .. } => return None,
    })
}

/// The executor body: runs `ops[start..]` on registers of word `W`, over
/// the columns of a [`crate::state::PackedState`] — whose
/// [`exec`](crate::state::PackedState::exec) is the one caller, and picks
/// the class. State stays `u128` at a 16-byte stride whatever the class — a
/// narrow tape loads the low half of a slot and stores it back
/// zero-extended, both exact because every slot it touches is at most 64
/// bits wide. When `TRACK`, a store that changes a `cur` slot's value
/// pushes the slot on `changed` (the event-driven engine's sensitivity
/// propagation).
///
/// Ops and registers are indexed unchecked in the hot loop; every register
/// index is range-checked once by `validate` when the tape is built. State
/// slots and memory words are indexed through the slices, checked.
///
/// # Safety
///
/// `ops` is the program of a validated tape at its class (`tape.ops`, or
/// `tape.narrow`'s content), `regs` holds at least `tape.nregs` words, and
/// `start` is `0` or `tape.prelude` (jump-free when `prelude > 0`).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn exec_tape_from<const TRACK: bool, W: Word>(
    ops: &[Op<Reg, W>],
    start: usize,
    regs: &mut [W],
    cur: &mut [u128],
    next: &mut [u128],
    mems: &[Box<[u128]>],
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    macro_rules! r {
        ($i:expr) => {
            // SAFETY: `validate` bounded every register operand by
            // `tape.nregs`, which `regs` covers.
            unsafe { *regs.get_unchecked(*$i as usize) }
        };
    }
    macro_rules! w {
        ($i:expr, $v:expr) => {{
            // Evaluate the value expression outside the unsafe block so
            // nested register reads keep their own narrow unsafe scope.
            let v = $v;
            // SAFETY: as for `r!`.
            unsafe { *regs.get_unchecked_mut(*$i as usize) = v }
        }};
    }
    // A tracked or plain full store of `v` to `cur[slot]`.
    macro_rules! store {
        ($slot:expr, $c:expr, $v:expr) => {{
            let v: u128 = $v;
            if TRACK {
                if *$c != v {
                    *$c = v;
                    changed.push(*$slot);
                }
            } else {
                *$c = v;
            }
        }};
    }
    let zero = W::from_u128(0);
    // An index already known to be below `W::BITS`.
    let small = |v: W| v.to_u128() as u32;
    let mut pc = start;
    while pc < ops.len() {
        // SAFETY: `pc < ops.len()`.
        match unsafe { ops.get_unchecked(pc) } {
            Op::Const { dst, val } => w!(dst, *val),
            Op::Read { dst, slot } => w!(dst, W::from_u128(cur[*slot as usize])),
            Op::Select { dst, sel, base, n } => {
                // Clamp the whole selector, then index: a selector with
                // only high bits set picks the last option.
                let idx = small(r!(sel).min(W::from_u128(*n as u128 - 1))) as usize;
                // SAFETY: `validate` bounded `base + n` by `tape.nregs`,
                // and `idx < n`.
                let v = unsafe { *regs.get_unchecked(*base as usize + idx) };
                w!(dst, v);
            }
            Op::Write { slot, src } => {
                let c = &mut cur[*slot as usize];
                store!(slot, c, r!(src).to_u128());
            }
            Op::WriteMasked { slot, src, lo, field } => {
                let c = &mut cur[*slot as usize];
                let field = field.to_u128();
                let v = (*c & !field) | ((r!(src) << *lo).to_u128() & field);
                store!(slot, c, v);
            }
            Op::WriteNext { slot, src } => {
                let v = r!(src).to_u128();
                next[*slot as usize] = v;
            }
            Op::WriteNextMasked { slot, src, lo, field } => {
                let v = r!(src);
                let n = &mut next[*slot as usize];
                let field = field.to_u128();
                *n = (*n & !field) | ((v << *lo).to_u128() & field);
            }
            Op::WriteIf { slot, cond, src, neg } => {
                let take = (r!(cond) != zero) != *neg;
                let c = &mut cur[*slot as usize];
                // Branchless select: an untaken predicate stores the old
                // value back, which the tracked path treats as "no
                // change" — bit-for-bit the branchy original.
                let v = if take { r!(src).to_u128() } else { *c };
                store!(slot, c, v);
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                let take = (r!(cond) != zero) != *neg;
                let n = &mut next[*slot as usize];
                *n = if take { r!(src).to_u128() } else { *n };
            }
            Op::MemRead { dst, mem, addr, words } => {
                let a = (r!(addr).to_u128() as u64) % words;
                w!(dst, W::from_u128(mems[*mem as usize][a as usize]));
            }
            Op::MemWrite { mem, addr, data, words } => {
                let a = (r!(addr).to_u128() as u64) % words;
                pending.push((*mem, a, r!(data).to_u128()));
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                if (r!(cond) != zero) != *neg {
                    let a = (r!(addr).to_u128() as u64) % words;
                    pending.push((*mem, a, r!(data).to_u128()));
                }
            }
            Op::Jz { cond, target } => {
                if r!(cond) == zero {
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
            op => match pure(op, |r| r!(&r)) {
                Some((dst, v)) => w!(&dst, v),
                None => unreachable!("every op that is not pure has its arm above"),
            },
        }
        pc += 1;
    }
}

/// The lane executor: runs `ops` — a jump-free program of either word
/// class whose state operands are *local* indices — once for `L`
/// instances at a time. A register holds one word per lane; local slot
/// `s` of lane `l` is the state's slot `slots[s * L + l]`, memories
/// likewise through `mems` (one lane block's rows of a
/// [`Gang`](crate::compile::Gang)'s tables). Lane by lane this computes
/// exactly what [`exec_tape_from`] computes, at the same word, for
/// that instance's relocated tape; across lanes the ops interleave, which
/// is unobservable because the lanes are independent (the plan stage's
/// guard). Stores to memory are queued on `pending` in op order, lanes
/// ascending within an op: per memory, program order.
///
/// Everything here is checked indexing. The pure ops are [`pure`] over
/// `[W; L]`; the state arms walk the table row into the state's columns
/// `cur`, `next` and `memory`, the slices [`exec_tape_from`] gets.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_lanes<W: Word, const L: usize>(
    ops: &[Op<Reg, W>],
    regs: &mut [[W; L]],
    slots: &[u32],
    mems: &[u32],
    cur: &mut [u128],
    next: &mut [u128],
    memory: &[Box<[u128]>],
    pending: &mut Vec<(u32, u64, u128)>,
) {
    let zero = W::from_u128(0);
    // A memory address: the low machine word of the register, as the
    // scalar executor takes it.
    let at = |v: W, words: u64| (v.to_u128() as u64) % words;
    // The `L` state indices behind local index `$i` of `$table`.
    macro_rules! row {
        ($table:ident, $i:expr) => {{
            let row: &[u32; L] =
                $table[*$i as usize * L..][..L].try_into().expect("a row holds L entries");
            row
        }};
    }
    // `$col[slot] = $e` for every lane's slot in column `$col` (`cur` or
    // `next`), with `$old` bound to the word there and `$x` to the lane's
    // value of source register `$r`.
    macro_rules! store {
        ($col:ident, $slot:expr, |$old:ident, $($x:ident = $r:ident),*| $e:expr) => {{
            $(let $x: &[W; L] = &regs[*$r as usize];)*
            let row = row!(slots, $slot);
            for l in 0..L {
                $(let $x = $x[l];)*
                let word = &mut $col[row[l] as usize];
                let $old = *word;
                *word = $e;
            }
        }};
    }
    for op in ops {
        match op {
            Op::Const { dst, val } => regs[*dst as usize] = [*val; L],
            Op::Read { dst, slot } => {
                let row = row!(slots, slot);
                let d = &mut regs[*dst as usize];
                for l in 0..L {
                    d[l] = W::from_u128(cur[row[l] as usize]);
                }
            }
            Op::Select { dst, sel, base, n } => {
                // Clamp the whole selector, then index, as the scalar body
                // does.
                let (sel, last) = (&regs[*sel as usize], W::from_u128(*n as u128 - 1));
                let picked: [W; L] = std::array::from_fn(|l| {
                    regs[*base as usize + sel[l].min(last).to_u128() as usize][l]
                });
                regs[*dst as usize] = picked;
            }
            Op::Write { slot, src } => store!(cur, slot, |_old, v = src| v.to_u128()),
            Op::WriteNext { slot, src } => store!(next, slot, |_old, v = src| v.to_u128()),
            Op::WriteMasked { slot, src, lo, field } => store!(cur, slot, |old, v = src| {
                (old & !field.to_u128()) | ((v << *lo) & *field).to_u128()
            }),
            Op::WriteNextMasked { slot, src, lo, field } => store!(next, slot, |old, v = src| {
                (old & !field.to_u128()) | ((v << *lo) & *field).to_u128()
            }),
            Op::WriteIf { slot, cond, src, neg } => store!(cur, slot, |old, c = cond, v = src| {
                if (c != zero) != *neg {
                    v.to_u128()
                } else {
                    old
                }
            }),
            Op::WriteNextIf { slot, cond, src, neg } => {
                store!(next, slot, |old, c = cond, v = src| {
                    if (c != zero) != *neg {
                        v.to_u128()
                    } else {
                        old
                    }
                })
            }
            Op::MemRead { dst, mem, addr, words } => {
                let row = row!(mems, mem);
                let addr = &regs[*addr as usize];
                let read: [W; L] = std::array::from_fn(|l| {
                    W::from_u128(memory[row[l] as usize][at(addr[l], *words) as usize])
                });
                regs[*dst as usize] = read;
            }
            Op::MemWrite { mem, addr, data, words } => {
                let row = row!(mems, mem);
                let (addr, data) = (&regs[*addr as usize], &regs[*data as usize]);
                pending.extend((0..L).map(|l| (row[l], at(addr[l], *words), data[l].to_u128())));
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                let row = row!(mems, mem);
                let (addr, data) = (&regs[*addr as usize], &regs[*data as usize]);
                let take = (0..L).filter(|&l| (regs[*cond as usize][l] != zero) != *neg);
                pending.extend(take.map(|l| (row[l], at(addr[l], *words), data[l].to_u128())));
            }
            Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. } => {
                unreachable!("a gang's body is jump-free")
            }
            op => match pure(op, |r| regs[r as usize]) {
                Some((dst, v)) => regs[dst as usize] = v,
                None => unreachable!("every op that is not pure has its arm above"),
            },
        }
    }
}
