//! The behavioral expression IR for translatable (RTL) update blocks.
//!
//! PyMTL inspects the Python AST of `@s.combinational` / `@s.tick_rtl`
//! functions; Rust has no runtime reflection, so RustMTL models build this
//! explicit IR instead (via [`BlockBuilder`](crate::BlockBuilder)). The same
//! IR is evaluated by the interpreted simulation engine, compiled to a linear
//! tape by the specializing engine, and translated to Verilog-2001.

use mtl_bits::Bits;

use crate::ids::{MemId, SignalId};

/// Binary operators available in IR expressions.
///
/// Comparison operators produce a 1-bit result; all other operators produce
/// a result of the (common) operand width. Shift amounts are taken from the
/// right operand's value and may have any width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// Equality (1-bit result).
    Eq,
    /// Inequality (1-bit result).
    Ne,
    /// Unsigned less-than (1-bit result).
    Lt,
    /// Unsigned greater-or-equal (1-bit result).
    Ge,
    /// Signed less-than (1-bit result).
    LtS,
    /// Signed greater-or-equal (1-bit result).
    GeS,
}

/// Unary operators available in IR expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
    /// AND-reduction (1-bit result).
    ReduceAnd,
    /// OR-reduction (1-bit result).
    ReduceOr,
    /// XOR-reduction (1-bit result).
    ReduceXor,
}

/// An IR expression tree.
///
/// Expressions are built with [`BlockBuilder`](crate::BlockBuilder) and the
/// operator overloads on [`Expr`]; they are pure and read only signal and
/// memory state.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// Read the current value of a signal.
    Read(SignalId),
    /// A constant.
    Const(Bits),
    /// Bit slice `[lo, hi)` of a sub-expression.
    Slice { expr: Box<Expr>, lo: u32, hi: u32 },
    /// Concatenation; the first element is most significant.
    Concat(Vec<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Two-way multiplexer: `cond ? then_ : else_` (`cond` must be 1 bit).
    Mux { cond: Box<Expr>, then_: Box<Expr>, else_: Box<Expr> },
    /// N-way selection: `options[sel]`. Out-of-range selects yield the last
    /// option (hardware "don't care" made deterministic).
    Select { sel: Box<Expr>, options: Vec<Expr> },
    /// Zero extension to a wider width.
    Zext(Box<Expr>, u32),
    /// Sign extension to a wider width.
    Sext(Box<Expr>, u32),
    /// Truncation to a narrower width.
    Trunc(Box<Expr>, u32),
    /// Asynchronous read of a memory array.
    MemRead { mem: MemId, addr: Box<Expr> },
}

impl Expr {
    /// A constant expression of the given width and value.
    pub fn k(width: u32, value: u128) -> Expr {
        Expr::Const(Bits::new(width, value))
    }

    /// A 1-bit constant expression.
    pub fn bool(v: bool) -> Expr {
        Expr::Const(Bits::from_bool(v))
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// Equality comparison (1-bit result).
    pub fn eq(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Eq, rhs.into())
    }

    /// Inequality comparison (1-bit result).
    pub fn ne(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Ne, rhs.into())
    }

    /// Unsigned less-than (1-bit result).
    pub fn lt(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Lt, rhs.into())
    }

    /// Unsigned greater-or-equal (1-bit result).
    pub fn ge(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Ge, rhs.into())
    }

    /// Unsigned greater-than (1-bit result).
    pub fn gt(self, rhs: impl Into<Expr>) -> Expr {
        rhs.into().bin(BinOp::Lt, self)
    }

    /// Unsigned less-or-equal (1-bit result).
    pub fn le(self, rhs: impl Into<Expr>) -> Expr {
        rhs.into().bin(BinOp::Ge, self)
    }

    /// Signed less-than (1-bit result).
    pub fn lt_s(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::LtS, rhs.into())
    }

    /// Signed greater-or-equal (1-bit result).
    pub fn ge_s(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::GeS, rhs.into())
    }

    /// Logical shift left by a dynamic amount.
    pub fn sll(self, amount: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Shl, amount.into())
    }

    /// Logical shift right by a dynamic amount.
    pub fn srl(self, amount: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Shr, amount.into())
    }

    /// Arithmetic shift right by a dynamic amount.
    pub fn sra(self, amount: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Sra, amount.into())
    }

    /// Bit slice `[lo, hi)`.
    pub fn slice(self, lo: u32, hi: u32) -> Expr {
        Expr::Slice { expr: Box::new(self), lo, hi }
    }

    /// A single bit as a 1-bit expression.
    pub fn bit(self, idx: u32) -> Expr {
        self.slice(idx, idx + 1)
    }

    /// Zero extension.
    pub fn zext(self, width: u32) -> Expr {
        Expr::Zext(Box::new(self), width)
    }

    /// Sign extension.
    pub fn sext(self, width: u32) -> Expr {
        Expr::Sext(Box::new(self), width)
    }

    /// Truncation.
    pub fn trunc(self, width: u32) -> Expr {
        Expr::Trunc(Box::new(self), width)
    }

    /// Ternary mux with `self` as the 1-bit condition.
    pub fn mux(self, then_: impl Into<Expr>, else_: impl Into<Expr>) -> Expr {
        Expr::Mux {
            cond: Box::new(self),
            then_: Box::new(then_.into()),
            else_: Box::new(else_.into()),
        }
    }

    /// N-way selection with `self` as the select.
    pub fn select(self, options: Vec<Expr>) -> Expr {
        Expr::Select { sel: Box::new(self), options }
    }

    /// Concatenation helper; the first element is most significant.
    pub fn concat(parts: Vec<Expr>) -> Expr {
        Expr::Concat(parts)
    }

    /// AND-reduction (1-bit result).
    pub fn reduce_and(self) -> Expr {
        Expr::Unary(UnaryOp::ReduceAnd, Box::new(self))
    }

    /// OR-reduction (1-bit result).
    pub fn reduce_or(self) -> Expr {
        Expr::Unary(UnaryOp::ReduceOr, Box::new(self))
    }

    /// XOR-reduction (1-bit result).
    pub fn reduce_xor(self) -> Expr {
        Expr::Unary(UnaryOp::ReduceXor, Box::new(self))
    }

    /// Logical AND of 1-bit expressions (same as `&` at width 1).
    pub fn and(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::And, rhs.into())
    }

    /// Logical OR of 1-bit expressions (same as `|` at width 1).
    pub fn or(self, rhs: impl Into<Expr>) -> Expr {
        self.bin(BinOp::Or, rhs.into())
    }

    /// Collects the signals read by this expression into `out`.
    pub fn collect_reads(&self, out: &mut Vec<SignalId>) {
        match self {
            Expr::Read(sig) => out.push(*sig),
            Expr::Const(_) => {}
            Expr::Slice { expr, .. } => expr.collect_reads(out),
            Expr::Concat(parts) => {
                for p in parts {
                    p.collect_reads(out);
                }
            }
            Expr::Unary(_, e) => e.collect_reads(out),
            Expr::Binary(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Mux { cond, then_, else_ } => {
                cond.collect_reads(out);
                then_.collect_reads(out);
                else_.collect_reads(out);
            }
            Expr::Select { sel, options } => {
                sel.collect_reads(out);
                for o in options {
                    o.collect_reads(out);
                }
            }
            Expr::Zext(e, _) | Expr::Sext(e, _) | Expr::Trunc(e, _) => e.collect_reads(out),
            Expr::MemRead { addr, .. } => addr.collect_reads(out),
        }
    }

    /// Collects the memories read by this expression into `out`.
    pub fn collect_mem_reads(&self, out: &mut Vec<MemId>) {
        match self {
            Expr::Read(_) | Expr::Const(_) => {}
            Expr::Slice { expr, .. } => expr.collect_mem_reads(out),
            Expr::Concat(parts) => {
                for p in parts {
                    p.collect_mem_reads(out);
                }
            }
            Expr::Unary(_, e) => e.collect_mem_reads(out),
            Expr::Binary(_, a, b) => {
                a.collect_mem_reads(out);
                b.collect_mem_reads(out);
            }
            Expr::Mux { cond, then_, else_ } => {
                cond.collect_mem_reads(out);
                then_.collect_mem_reads(out);
                else_.collect_mem_reads(out);
            }
            Expr::Select { sel, options } => {
                sel.collect_mem_reads(out);
                for o in options {
                    o.collect_mem_reads(out);
                }
            }
            Expr::Zext(e, _) | Expr::Sext(e, _) | Expr::Trunc(e, _) => e.collect_mem_reads(out),
            Expr::MemRead { mem, addr } => {
                out.push(*mem);
                addr.collect_mem_reads(out);
            }
        }
    }

    /// Evaluates this expression with a signal resolver and memory resolver.
    ///
    /// Used by the interpreted engine, the IR type checker's constant
    /// folding, and tests. `read_sig` must return a value of the declared
    /// signal width; `read_mem(mem, addr)` must return the memory word.
    pub fn eval(
        &self,
        read_sig: &mut dyn FnMut(SignalId) -> Bits,
        read_mem: &mut dyn FnMut(MemId, u64) -> Bits,
    ) -> Bits {
        match self {
            Expr::Read(sig) => read_sig(*sig),
            Expr::Const(c) => *c,
            Expr::Slice { expr, lo, hi } => expr.eval(read_sig, read_mem).slice(*lo, *hi),
            Expr::Concat(parts) => {
                let mut it = parts.iter();
                let first = it.next().expect("concat of zero parts").eval(read_sig, read_mem);
                it.fold(first, |acc, p| acc.concat(p.eval(read_sig, read_mem)))
            }
            Expr::Unary(op, e) => {
                let v = e.eval(read_sig, read_mem);
                match op {
                    UnaryOp::Not => !v,
                    UnaryOp::Neg => -v,
                    UnaryOp::ReduceAnd => Bits::from_bool(v.reduce_and()),
                    UnaryOp::ReduceOr => Bits::from_bool(v.reduce_or()),
                    UnaryOp::ReduceXor => Bits::from_bool(v.reduce_xor()),
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval(read_sig, read_mem);
                let y = b.eval(read_sig, read_mem);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => x << shift_amount(y),
                    BinOp::Shr => x >> shift_amount(y),
                    BinOp::Sra => x.shr_signed(shift_amount(y)),
                    BinOp::Eq => Bits::from_bool(x == y),
                    BinOp::Ne => Bits::from_bool(x != y),
                    BinOp::Lt => Bits::from_bool(x < y),
                    BinOp::Ge => Bits::from_bool(x >= y),
                    BinOp::LtS => Bits::from_bool(x.lt_signed(y)),
                    BinOp::GeS => Bits::from_bool(x.ge_signed(y)),
                }
            }
            Expr::Mux { cond, then_, else_ } => {
                if cond.eval(read_sig, read_mem).reduce_or() {
                    then_.eval(read_sig, read_mem)
                } else {
                    else_.eval(read_sig, read_mem)
                }
            }
            Expr::Select { sel, options } => {
                let sel = sel.eval(read_sig, read_mem).as_u128();
                let idx = sel.min(options.len() as u128 - 1) as usize;
                options[idx].eval(read_sig, read_mem)
            }
            Expr::Zext(e, w) => e.eval(read_sig, read_mem).zext(*w),
            Expr::Sext(e, w) => e.eval(read_sig, read_mem).sext(*w),
            Expr::Trunc(e, w) => e.eval(read_sig, read_mem).trunc(*w),
            Expr::MemRead { mem, addr } => {
                let a = addr.eval(read_sig, read_mem).as_u64();
                read_mem(*mem, a)
            }
        }
    }
}

/// Clamp a dynamic shift amount to something sane for `u32` shifting.
pub(crate) fn shift_amount(v: Bits) -> u32 {
    v.as_u128().min(u32::MAX as u128) as u32
}

impl From<Bits> for Expr {
    fn from(v: Bits) -> Expr {
        Expr::Const(v)
    }
}

macro_rules! expr_binop {
    ($trait_:ident, $method:ident, $op:expr) => {
        impl<R: Into<Expr>> std::ops::$trait_<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(rhs.into()))
            }
        }
    };
}

expr_binop!(Add, add, BinOp::Add);
expr_binop!(Sub, sub, BinOp::Sub);
expr_binop!(Mul, mul, BinOp::Mul);
expr_binop!(BitAnd, bitand, BinOp::And);
expr_binop!(BitOr, bitor, BinOp::Or);
expr_binop!(BitXor, bitxor, BinOp::Xor);

impl std::ops::Not for Expr {
    type Output = Expr;
    fn not(self) -> Expr {
        Expr::Unary(UnaryOp::Not, Box::new(self))
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnaryOp::Neg, Box::new(self))
    }
}

/// How far a block's statement ids sit from the ids it means: a stamped
/// block (see [`IrBody`](crate::IrBody)) shares its statements with the
/// first instance of its component, and adds these offsets to every signal
/// and memory id they name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdOffsets {
    /// Added to every signal id.
    pub signals: u32,
    /// Added to every memory id.
    pub mems: u32,
}

impl IdOffsets {
    /// The signal a statement's `sig` means.
    #[inline]
    pub fn signal(self, sig: SignalId) -> SignalId {
        SignalId(sig.0 + self.signals)
    }

    /// The memory a statement's `mem` means.
    #[inline]
    pub fn mem(self, mem: MemId) -> MemId {
        MemId(mem.0 + self.mems)
    }

    pub(crate) fn plus(self, by: IdOffsets) -> IdOffsets {
        IdOffsets { signals: self.signals + by.signals, mems: self.mems + by.mems }
    }
}

impl Expr {
    /// Rewrites every id this expression names to the one it means.
    pub(crate) fn offset_ids(&mut self, by: IdOffsets) {
        match self {
            Expr::Read(sig) => *sig = by.signal(*sig),
            Expr::Const(_) => {}
            Expr::Slice { expr: e, .. }
            | Expr::Unary(_, e)
            | Expr::Zext(e, _)
            | Expr::Sext(e, _)
            | Expr::Trunc(e, _) => e.offset_ids(by),
            Expr::Concat(parts) => parts.iter_mut().for_each(|p| p.offset_ids(by)),
            Expr::Binary(_, a, b) => {
                a.offset_ids(by);
                b.offset_ids(by);
            }
            Expr::Mux { cond, then_, else_ } => {
                cond.offset_ids(by);
                then_.offset_ids(by);
                else_.offset_ids(by);
            }
            Expr::Select { sel, options } => {
                sel.offset_ids(by);
                options.iter_mut().for_each(|o| o.offset_ids(by));
            }
            Expr::MemRead { mem, addr } => {
                *mem = by.mem(*mem);
                addr.offset_ids(by);
            }
        }
    }
}

/// The target of an IR assignment: a signal or a bit slice of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LValue {
    /// The assigned signal.
    pub signal: SignalId,
    /// Low bit of the assigned range (inclusive).
    pub lo: u32,
    /// High bit of the assigned range (exclusive).
    pub hi: u32,
}

impl LValue {
    /// The width of the assigned bit range.
    pub fn width(&self) -> u32 {
        self.hi - self.lo
    }
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Assign an expression to a signal (or slice). In combinational blocks
    /// this writes the signal's value; in sequential blocks it writes the
    /// shadow `next` value committed at the clock edge.
    Assign(LValue, Expr),
    /// Conditional execution.
    If { cond: Expr, then_: Vec<Stmt>, else_: Vec<Stmt> },
    /// Multi-way dispatch on a subject expression. The first matching arm
    /// executes; `default` executes when no arm matches.
    Switch { subject: Expr, arms: Vec<(Bits, Vec<Stmt>)>, default: Vec<Stmt> },
    /// Synchronous memory write (sequential blocks only); committed at the
    /// clock edge.
    MemWrite { mem: MemId, addr: Expr, data: Expr },
}

impl Stmt {
    /// Rewrites every id this statement names to the one it means.
    pub(crate) fn offset_ids(&mut self, by: IdOffsets) {
        match self {
            Stmt::Assign(lv, e) => {
                lv.signal = by.signal(lv.signal);
                e.offset_ids(by);
            }
            Stmt::If { cond, then_, else_ } => {
                cond.offset_ids(by);
                then_.iter_mut().chain(else_).for_each(|s| s.offset_ids(by));
            }
            Stmt::Switch { subject, arms, default } => {
                subject.offset_ids(by);
                let arms = arms.iter_mut().flat_map(|(_, body)| body);
                arms.chain(default).for_each(|s| s.offset_ids(by));
            }
            Stmt::MemWrite { mem, addr, data } => {
                *mem = by.mem(*mem);
                addr.offset_ids(by);
                data.offset_ids(by);
            }
        }
    }

    /// Collects signals read by this statement (conditions and right-hand
    /// sides) into `out`.
    pub fn collect_reads(&self, out: &mut Vec<SignalId>) {
        match self {
            Stmt::Assign(_, e) => e.collect_reads(out),
            Stmt::If { cond, then_, else_ } => {
                cond.collect_reads(out);
                for s in then_.iter().chain(else_) {
                    s.collect_reads(out);
                }
            }
            Stmt::Switch { subject, arms, default } => {
                subject.collect_reads(out);
                for (_, body) in arms {
                    for s in body {
                        s.collect_reads(out);
                    }
                }
                for s in default {
                    s.collect_reads(out);
                }
            }
            Stmt::MemWrite { addr, data, .. } => {
                addr.collect_reads(out);
                data.collect_reads(out);
            }
        }
    }

    /// Collects signals written by this statement into `out`.
    pub fn collect_writes(&self, out: &mut Vec<SignalId>) {
        match self {
            Stmt::Assign(lv, _) => out.push(lv.signal),
            Stmt::If { then_, else_, .. } => {
                for s in then_.iter().chain(else_) {
                    s.collect_writes(out);
                }
            }
            Stmt::Switch { arms, default, .. } => {
                for (_, body) in arms {
                    for s in body {
                        s.collect_writes(out);
                    }
                }
                for s in default {
                    s.collect_writes(out);
                }
            }
            Stmt::MemWrite { .. } => {}
        }
    }

    /// Collects memories read by this statement into `out`.
    pub fn collect_mem_reads(&self, out: &mut Vec<MemId>) {
        match self {
            Stmt::Assign(_, e) => e.collect_mem_reads(out),
            Stmt::If { cond, then_, else_ } => {
                cond.collect_mem_reads(out);
                for s in then_.iter().chain(else_) {
                    s.collect_mem_reads(out);
                }
            }
            Stmt::Switch { subject, arms, default } => {
                subject.collect_mem_reads(out);
                for (_, body) in arms {
                    for s in body {
                        s.collect_mem_reads(out);
                    }
                }
                for s in default {
                    s.collect_mem_reads(out);
                }
            }
            Stmt::MemWrite { addr, data, .. } => {
                addr.collect_mem_reads(out);
                data.collect_mem_reads(out);
            }
        }
    }

    /// Collects memories written by this statement into `out`.
    pub fn collect_mem_writes(&self, out: &mut Vec<MemId>) {
        match self {
            Stmt::Assign(..) => {}
            Stmt::If { then_, else_, .. } => {
                for s in then_.iter().chain(else_) {
                    s.collect_mem_writes(out);
                }
            }
            Stmt::Switch { arms, default, .. } => {
                for (_, body) in arms {
                    for s in body {
                        s.collect_mem_writes(out);
                    }
                }
                for s in default {
                    s.collect_mem_writes(out);
                }
            }
            Stmt::MemWrite { mem, .. } => out.push(*mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_mem(_: MemId, _: u64) -> Bits {
        panic!("no memory in this test")
    }

    fn eval_const(e: &Expr) -> Bits {
        e.clone().eval(&mut |_| panic!("no signals"), &mut no_mem)
    }

    #[test]
    fn arithmetic_expression_evaluates() {
        let e = Expr::k(8, 200) + Expr::k(8, 100);
        assert_eq!(eval_const(&e), Bits::new(8, 44));
    }

    #[test]
    fn comparison_produces_one_bit() {
        let e = Expr::k(8, 3).lt(Expr::k(8, 5));
        assert_eq!(eval_const(&e), Bits::from_bool(true));
        let e = Expr::k(8, 0x80).lt_s(Expr::k(8, 0));
        assert_eq!(eval_const(&e), Bits::from_bool(true));
    }

    #[test]
    fn mux_and_select_evaluate() {
        let m = Expr::bool(true).mux(Expr::k(4, 1), Expr::k(4, 2));
        assert_eq!(eval_const(&m), Bits::new(4, 1));
        let s = Expr::k(2, 2).select(vec![
            Expr::k(4, 10),
            Expr::k(4, 11),
            Expr::k(4, 12),
            Expr::k(4, 13),
        ]);
        assert_eq!(eval_const(&s), Bits::new(4, 12));
        // out-of-range select clamps to the last option
        let s = Expr::k(2, 3).select(vec![Expr::k(4, 10), Expr::k(4, 11)]);
        assert_eq!(eval_const(&s), Bits::new(4, 11));
    }

    #[test]
    fn shifts_and_extensions_evaluate() {
        assert_eq!(eval_const(&Expr::k(8, 0x81).sll(Expr::k(3, 1))), Bits::new(8, 0x02));
        assert_eq!(eval_const(&Expr::k(8, 0x81).srl(Expr::k(3, 1))), Bits::new(8, 0x40));
        assert_eq!(eval_const(&Expr::k(8, 0x81).sra(Expr::k(3, 1))), Bits::new(8, 0xC0));
        assert_eq!(eval_const(&Expr::k(4, 0x9).zext(8)), Bits::new(8, 0x09));
        assert_eq!(eval_const(&Expr::k(4, 0x9).sext(8)), Bits::new(8, 0xF9));
        assert_eq!(eval_const(&Expr::k(8, 0xAB).trunc(4)), Bits::new(4, 0xB));
    }

    #[test]
    fn slice_concat_reductions_evaluate() {
        assert_eq!(eval_const(&Expr::k(8, 0xAB).slice(4, 8)), Bits::new(4, 0xA));
        assert_eq!(eval_const(&Expr::k(8, 0xAB).bit(0)), Bits::from_bool(true));
        let c = Expr::concat(vec![Expr::k(4, 0xA), Expr::k(4, 0xB)]);
        assert_eq!(eval_const(&c), Bits::new(8, 0xAB));
        assert_eq!(eval_const(&Expr::k(3, 0b111).reduce_and()), Bits::from_bool(true));
        assert_eq!(eval_const(&Expr::k(3, 0b110).reduce_xor()), Bits::from_bool(false));
    }

    #[test]
    fn reads_are_collected_through_nesting() {
        let s0 = SignalId::from_index(0);
        let s1 = SignalId::from_index(1);
        let s2 = SignalId::from_index(2);
        let stmt = Stmt::If {
            cond: Expr::Read(s0),
            then_: vec![Stmt::Assign(LValue { signal: s2, lo: 0, hi: 4 }, Expr::Read(s1))],
            else_: vec![],
        };
        let mut reads = Vec::new();
        stmt.collect_reads(&mut reads);
        assert_eq!(reads, vec![s0, s1]);
        let mut writes = Vec::new();
        stmt.collect_writes(&mut writes);
        assert_eq!(writes, vec![s2]);
    }

    #[test]
    fn switch_first_match_wins() {
        let sw = Stmt::Switch {
            subject: Expr::k(2, 1),
            arms: vec![(Bits::new(2, 0), vec![]), (Bits::new(2, 1), vec![])],
            default: vec![],
        };
        // structural test only: reads of the subject are collected
        let mut reads = Vec::new();
        sw.collect_reads(&mut reads);
        assert!(reads.is_empty());
    }
}
