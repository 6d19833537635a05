//! IR → tape code generation: constant folding, the block compiler,
//! tape fusion, narrowing to physical registers (with the 64-bit width
//! classification) and the range check that makes the unchecked executors
//! in [`crate::tape`] sound.
//!
//! Everything here is private to [`crate::compile`], the one module that
//! turns a `Design` into executable tapes.

use mtl_core::ir::{BinOp, Expr, IdOffsets, Stmt, UnaryOp};
use mtl_core::{BlockKind, Design, MemId, SignalId};

use super::passes::def_bits;
use crate::tape::{mask_of, Effect, Op, Param, Reg, Role, Tape, VReg};

/// A compiled update block in virtual-register form: what [`compile_block`]
/// emits and what [`super::passes`] optimizes. Register indices are unbounded
/// here; [`narrow`] enforces the physical budget after reallocation.
pub(super) type VTape = Tape<VReg>;

/// The physical register budget of an executable tape ([`Reg`] is `u16`).
pub(super) const REG_BUDGET: u32 = 1 << 16;

/// Narrows a virtual tape to executable form, enforcing the physical
/// register budget, and classifies it: a tape that provably stays within
/// 64 bits ([`lower`]) also carries its `u64` program, which is what the
/// executors then run. `context` names the tape (hierarchical block path
/// and kind) for the panic message.
///
/// # Panics
///
/// Panics if the tape needs more than [`REG_BUDGET`] registers.
pub(super) fn narrow(
    vt: &VTape,
    widths: &[u32],
    mem_widths: &[u32],
    context: impl Fn() -> String,
) -> Tape {
    assert!(
        vt.nregs <= REG_BUDGET,
        "tape register budget ({REG_BUDGET}) exceeded in {}: {} registers required; \
         split the block into smaller update blocks",
        context(),
        vt.nregs,
    );
    let ops: Vec<Op> = vt.ops.iter().map(|op| op.map_regs(&mut |_, r| r as Reg)).collect();
    let narrow = lower(vt, &ops, widths, mem_widths);
    let params =
        vt.params.iter().map(|p| Param { index: p.index, reg: p.reg as Reg, width: p.width });
    let params = params.collect();
    Tape { ops, nregs: vt.nregs, prelude: vt.prelude, narrow, defs_first: false, params }
}

/// The `u64` program of a tape (`ops` is `vt` over physical registers),
/// or `None` if anything it handles may need more than 64 bits. The rule
/// is per op, so that the `u64` executor computes bit for bit what the
/// `u128` one does:
///
/// - every slot and memory the op touches is at most 64 bits wide (state
///   crosses the boundary by truncation and zero-extension);
/// - every immediate fits `u64` and the sign bit of `Sra`/`LtS`/`GeS`
///   sits inside the low word ([`Op::to_word`] is `None` otherwise);
/// - every immediate shift count stays below 64 — `width` on
///   `Shl`/`Shr`/`Sra` (the executor compares the amount against it, and
///   a `u64` shift by 64..128 is not the `u128` zero; `Zext` emits no op,
///   so a 100-bit shift over a 40-bit value is legal), `lo`/`shift` on
///   slices, field stores and `ShlOr`;
/// - the value it defines may only have its low 64 bits set
///   ([`def_bits`]). This is judged per *definition*, not per register:
///   `realloc` reuses a register for unrelated values, and an 80-bit
///   intermediate between two narrow endpoints must still make the tape
///   wide.
fn lower(vt: &VTape, ops: &[Op], widths: &[u32], mem_widths: &[u32]) -> Option<Vec<Op<Reg, u64>>> {
    let mut low = Vec::with_capacity(ops.len());
    for op in ops {
        let state_fits = match op.effect() {
            Effect::Read { slot } | Effect::Write { slot, .. } => widths[slot as usize] <= 64,
            Effect::MemRead { mem, .. } | Effect::MemWrite { mem, .. } => {
                mem_widths[mem as usize] <= 64
            }
            Effect::Pure | Effect::Jump { .. } => true,
        };
        let counts_fit = match *op {
            Op::Shl { width, .. } | Op::Shr { width, .. } | Op::Sra { width, .. } => width <= 64,
            Op::Slice { lo, .. } | Op::WriteMasked { lo, .. } | Op::WriteNextMasked { lo, .. } => {
                lo < 64
            }
            Op::ShlOr { shift, .. } => shift < 64,
            _ => true,
        };
        if !(state_fits && counts_fit) {
            return None;
        }
        low.push(op.to_word::<u64>()?);
    }
    (def_bits(vt, widths, mem_widths) >> 64 == 0).then_some(low)
}

/// Compiles the statements of one IR block into a virtual-register tape.
///
/// `params` are the positions, among the literals of `stmts` in walk
/// order, of the body's parameters ([`fold_stmts`] returns them): each is
/// loaded by a `Const` of its own, and those `Const`s open the tape — its
/// prelude when the tape is jump-free — so that a gang can load each
/// lane's values in their place. Emission allocates virtual registers
/// without a budget; the physical budget is enforced by [`narrow`] — after
/// optimization and register reallocation when the optimizer is on, on the
/// raw emission otherwise.
pub(super) fn compile_block(
    design: &Design,
    ids: IdOffsets,
    stmts: &[Stmt],
    kind: BlockKind,
    params: &[u32],
) -> VTape {
    let mut c = Compiler {
        design,
        ids,
        ops: Vec::new(),
        next_reg: 0,
        seq: kind == BlockKind::Seq,
        literal: 0,
        params,
        pre: Vec::new(),
        loaded: Vec::new(),
    };
    for s in stmts {
        c.emit_stmt(s);
    }
    debug_assert_eq!(c.loaded.len(), params.len(), "a parameter the walk did not meet");
    let mut vt = VTape { ops: c.pre, nregs: c.next_reg, params: c.loaded, ..VTape::default() };
    let pre = vt.ops.len() as u32;
    vt.ops.extend(c.ops.into_iter().map(|mut op| {
        if let Some(target) = op.target_mut() {
            *target += pre;
        }
        op
    }));
    if !vt.has_jumps() {
        vt.prelude = pre;
    }
    vt
}

/// Validates that every register, slot, memory and jump target in a tape
/// is in range, and every jump forward; called once at construction so the
/// executor can use unchecked reads. Walks the op's declared operand roles
/// and effect, so an op cannot name state this check does not see — in
/// either word class. Records [`defs_before_uses`] as
/// [`Tape::defs_first`].
pub(super) fn validate(tape: &mut Tape, nslots: usize, nmems: usize) {
    let n = tape.nregs as usize;
    let pre = tape.prelude as usize;
    assert!(pre <= tape.ops.len(), "prelude {pre} exceeds tape length {}", tape.ops.len());
    if pre > 0 {
        // Body execution starts at `prelude`, so the tape must be
        // straight-line (no jump may target the prelude) and the prefix
        // must be pure constant loads.
        assert!(
            tape.ops[..pre].iter().all(|op| matches!(op, Op::Const { .. })),
            "prelude contains a non-const op"
        );
        assert!(!tape.has_jumps(), "prelude on a tape with jumps");
    }
    for (i, op) in tape.ops.iter().enumerate() {
        let mut ok = match op.effect() {
            Effect::Pure => true,
            Effect::Read { slot } | Effect::Write { slot, .. } => (slot as usize) < nslots,
            Effect::MemRead { mem, words } | Effect::MemWrite { mem, words } => {
                (mem as usize) < nmems && words >= 1
            }
            // Strictly forward: the scalar executor's termination, the
            // optimizer's positional liveness and the batch engine's
            // one-pass lane mask all rest on it.
            Effect::Jump { target, .. } => i < target as usize && target as usize <= tape.ops.len(),
        };
        op.for_each_reg(|role, r| {
            ok &= match role {
                Role::Def | Role::Use => (r as usize) < n,
                Role::Range(k) => k >= 1 && r as usize + k as usize <= n,
            }
        });
        assert!(ok, "invalid tape op {op:?}");
    }
    // A parameter's register is defined once, by a `Const`: the one op an
    // instance's value is written into.
    for p in &tape.params {
        let mut defs = tape.ops.iter().filter(|op| op.def() == Some(p.reg));
        let once = matches!((defs.next(), defs.next()), (Some(Op::Const { .. }), None));
        assert!(once, "parameter {p:?} is not defined by exactly one `Const`");
    }
    if let Some(narrow) = &tape.narrow {
        // The `u64` executor indexes by the narrow program's operands:
        // they must be exactly the ones just checked.
        assert!(
            narrow.len() == tape.ops.len()
                && narrow.iter().zip(&tape.ops).all(|(n, op)| n.to_word().as_ref() == Some(op)),
            "narrow program is not the image of the tape's ops"
        );
    }
    tape.defs_first = defs_before_uses(tape);
}

/// Whether no run of `tape` reads a register before writing it — run from
/// op 0 on scratch registers, or from `prelude` on a buffer the prelude
/// was installed into: the tape is jump-free, every register a body op
/// reads was written earlier in the body or by the prelude, and no body op
/// writes a prelude register. What a buffer holds outside the prelude's
/// registers is then dead between runs.
fn defs_before_uses(tape: &Tape) -> bool {
    if tape.has_jumps() {
        return false;
    }
    const PRELUDE: u8 = 1;
    const BODY: u8 = 2;
    let pre = tape.prelude as usize;
    let mut written = vec![0u8; tape.nregs as usize];
    for op in &tape.ops[..pre] {
        if let Op::Const { dst, .. } = op {
            written[*dst as usize] = PRELUDE;
        }
    }
    tape.ops[pre..].iter().all(|op| {
        let (mut ok, mut def) = (true, None);
        op.for_each_reg(|role, r| match role {
            Role::Def => def = Some(r as usize),
            Role::Use => ok &= written[r as usize] != 0,
            Role::Range(k) => ok &= written[r as usize..][..k as usize].iter().all(|&w| w != 0),
        });
        if let Some(r) = def {
            ok &= written[r] != PRELUDE;
            written[r] = BODY;
        }
        ok
    })
}

/// Constant-folds a statement list (the "comp" optimization phase, run
/// before [`compile_block`]) whose literals at positions `params` (walk
/// order, ascending: `Design::shape_params`) are parameters — values that
/// are not known, so nothing above them folds. Returns the folded list and
/// the parameters' positions among *its* literals, in the same order.
pub(super) fn fold_stmts(stmts: &[Stmt], params: &[u32]) -> (Vec<Stmt>, Vec<u32>) {
    let mut fold = Fold { params, literal: 0, folded: 0, at: Vec::new() };
    let stmts = stmts.iter().map(|s| fold_stmt(s, &mut fold)).collect();
    (stmts, fold.at)
}

/// Fuses a run of tapes into one linear program in virtual-register form,
/// ready to re-optimize and [`narrow`] (jump targets are rebased; registers
/// can be reused across blocks because every block defines its registers
/// before use — which [`validate`] checks of every jump-free tape and
/// records as [`Tape::defs_first`]). This is how the fully specialized engine eliminates
/// per-block dispatch — the analog of SimJIT compiling the whole model
/// into one C++ translation unit.
pub(super) fn fuse(tapes: &[&Tape]) -> VTape {
    let mut ops = Vec::with_capacity(tapes.iter().map(|t| t.ops.len()).sum());
    let mut nregs = 0u32;
    for t in tapes {
        let base = ops.len() as u32;
        nregs = nregs.max(t.nregs);
        for op in &t.ops {
            let mut op = op.map_regs(&mut |_, r| r as VReg);
            if let Some(target) = op.target_mut() {
                *target += base;
            }
            ops.push(op);
        }
    }
    VTape { ops, nregs, ..VTape::default() }
}

/// The fold of one statement list: which of its literals are parameters,
/// and where they land among the folded list's literals. Literals are
/// counted in the order the shape walk and [`compile_block`] visit them.
struct Fold<'a> {
    params: &'a [u32],
    /// Literals of the input, and of the output, met so far.
    literal: u32,
    folded: u32,
    /// Each parameter's position among the output's literals.
    at: Vec<u32>,
}

/// Constant-folds an expression: subtrees with no signal or memory reads
/// and no parameter are evaluated at compile time (the "comp" optimization
/// phase).
///
/// A single bottom-up pass: each node's constness is derived from its
/// children's, so the whole fold is O(n) in expression size (an earlier
/// version re-walked the entire subtree with `collect_reads` at every
/// recursion level, which was O(n²) on deep expressions).
fn fold_expr(e: &Expr, cx: &mut Fold) -> Expr {
    fold_expr_const(e, cx).0
}

/// Folds one node bottom-up, returning the folded node and whether it is a
/// compile-time constant (no signal or memory reads, and no parameter,
/// anywhere below it).
fn fold_expr_const(e: &Expr, cx: &mut Fold) -> (Expr, bool) {
    let start = cx.folded;
    // Evaluates a folded, all-constant node: its children are already
    // `Expr::Const`, so `eval` touches no signal or memory state. It is
    // one literal of the output, however many of the input's it folds.
    let to_const = |folded: Expr, cx: &mut Fold| {
        cx.folded = start + 1;
        let v = folded.eval(&mut |_| unreachable!(), &mut |_, _| unreachable!());
        (Expr::Const(v), true)
    };
    match e {
        Expr::Const(_) => {
            let param = cx.params.binary_search(&cx.literal).is_ok();
            if param {
                cx.at.push(cx.folded);
            }
            cx.literal += 1;
            cx.folded += 1;
            (e.clone(), !param)
        }
        Expr::Read(_) => (e.clone(), false),
        Expr::Slice { expr, lo, hi } => {
            let (a, k) = fold_expr_const(expr, cx);
            let folded = Expr::Slice { expr: Box::new(a), lo: *lo, hi: *hi };
            if k {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Concat(parts) => {
            let mut all = true;
            let parts: Vec<Expr> = parts
                .iter()
                .map(|p| {
                    let (f, k) = fold_expr_const(p, cx);
                    all &= k;
                    f
                })
                .collect();
            let folded = Expr::Concat(parts);
            if all {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Unary(op, a) => {
            let (a, k) = fold_expr_const(a, cx);
            let folded = Expr::Unary(*op, Box::new(a));
            if k {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Binary(op, a, b) => {
            let (a, ka) = fold_expr_const(a, cx);
            let (b, kb) = fold_expr_const(b, cx);
            let folded = Expr::Binary(*op, Box::new(a), Box::new(b));
            if ka && kb {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Mux { cond, then_, else_ } => {
            let (c, kc) = fold_expr_const(cond, cx);
            let (t, kt) = fold_expr_const(then_, cx);
            let (f, kf) = fold_expr_const(else_, cx);
            let folded = Expr::Mux { cond: Box::new(c), then_: Box::new(t), else_: Box::new(f) };
            if kc && kt && kf {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Select { sel, options } => {
            let (s, mut all) = fold_expr_const(sel, cx);
            let options: Vec<Expr> = options
                .iter()
                .map(|o| {
                    let (f, k) = fold_expr_const(o, cx);
                    all &= k;
                    f
                })
                .collect();
            let folded = Expr::Select { sel: Box::new(s), options };
            if all {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Zext(a, w) => {
            let (a, k) = fold_expr_const(a, cx);
            let folded = Expr::Zext(Box::new(a), *w);
            if k {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Sext(a, w) => {
            let (a, k) = fold_expr_const(a, cx);
            let folded = Expr::Sext(Box::new(a), *w);
            if k {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::Trunc(a, w) => {
            let (a, k) = fold_expr_const(a, cx);
            let folded = Expr::Trunc(Box::new(a), *w);
            if k {
                to_const(folded, cx)
            } else {
                (folded, false)
            }
        }
        Expr::MemRead { mem, addr } => {
            let (a, _) = fold_expr_const(addr, cx);
            (Expr::MemRead { mem: *mem, addr: Box::new(a) }, false)
        }
    }
}

fn fold_stmt(s: &Stmt, cx: &mut Fold) -> Stmt {
    let stmts = |body: &[Stmt], cx: &mut Fold| body.iter().map(|s| fold_stmt(s, cx)).collect();
    match s {
        Stmt::Assign(lv, e) => Stmt::Assign(lv.clone(), fold_expr(e, cx)),
        Stmt::If { cond, then_, else_ } => {
            Stmt::If { cond: fold_expr(cond, cx), then_: stmts(then_, cx), else_: stmts(else_, cx) }
        }
        Stmt::Switch { subject, arms, default } => Stmt::Switch {
            subject: fold_expr(subject, cx),
            arms: arms.iter().map(|(k, body)| (*k, stmts(body, cx))).collect(),
            default: stmts(default, cx),
        },
        Stmt::MemWrite { mem, addr, data } => {
            Stmt::MemWrite { mem: *mem, addr: fold_expr(addr, cx), data: fold_expr(data, cx) }
        }
    }
}

struct Compiler<'a> {
    design: &'a Design,
    /// The block's offsets from the ids its statements name.
    ids: IdOffsets,
    ops: Vec<Op<VReg>>,
    next_reg: VReg,
    seq: bool,
    /// Literals emitted so far, and the positions among them of the
    /// parameters.
    literal: u32,
    params: &'a [u32],
    /// The parameters' `Const`s, which open the tape, and what they load.
    pre: Vec<Op<VReg>>,
    loaded: Vec<Param<VReg>>,
}

impl Compiler<'_> {
    fn alloc(&mut self) -> VReg {
        let r = self.next_reg;
        // Virtual registers are effectively unbounded; the physical
        // budget is enforced later by `narrow` (after reallocation when
        // the optimizer runs), where the block can be named.
        self.next_reg = self.next_reg.checked_add(1).expect("virtual register index overflow");
        r
    }

    fn slot_of(&self, sig: SignalId) -> u32 {
        self.design.net_of(self.ids.signal(sig)).index() as u32
    }

    fn width_of(&self, sig: SignalId) -> u32 {
        self.design.signal(self.ids.signal(sig)).width
    }

    fn mem_index(&self, m: MemId) -> u32 {
        self.ids.mem(m).index() as u32
    }

    fn expr_width(&self, e: &Expr) -> u32 {
        self.design.expr_width(self.ids, e)
    }

    fn emit_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(lv, e) => {
                let src = self.emit_expr(e);
                let slot = self.slot_of(lv.signal);
                let full = lv.lo == 0 && lv.hi == self.width_of(lv.signal);
                match (self.seq, full) {
                    (false, true) => self.ops.push(Op::Write { slot, src }),
                    (true, true) => self.ops.push(Op::WriteNext { slot, src }),
                    (false, false) => self.ops.push(Op::WriteMasked {
                        slot,
                        src,
                        lo: lv.lo,
                        field: mask_of(lv.width()) << lv.lo,
                    }),
                    (true, false) => self.ops.push(Op::WriteNextMasked {
                        slot,
                        src,
                        lo: lv.lo,
                        field: mask_of(lv.width()) << lv.lo,
                    }),
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self.emit_expr(cond);
                let jz_at = self.ops.len();
                self.ops.push(Op::Jz { cond: c, target: 0 });
                for s in then_ {
                    self.emit_stmt(s);
                }
                if else_.is_empty() {
                    let end = self.ops.len() as u32;
                    self.patch(jz_at, end);
                } else {
                    let jmp_at = self.ops.len();
                    self.ops.push(Op::Jmp { target: 0 });
                    let else_start = self.ops.len() as u32;
                    self.patch(jz_at, else_start);
                    for s in else_ {
                        self.emit_stmt(s);
                    }
                    let end = self.ops.len() as u32;
                    self.patch(jmp_at, end);
                }
            }
            Stmt::Switch { subject, arms, default } => {
                let s_reg = self.emit_expr(subject);
                let mut end_jumps = Vec::new();
                for (k, body) in arms {
                    let jne_at = self.ops.len();
                    self.ops.push(Op::JneConst { a: s_reg, k: k.as_u128(), target: 0 });
                    for st in body {
                        self.emit_stmt(st);
                    }
                    end_jumps.push(self.ops.len());
                    self.ops.push(Op::Jmp { target: 0 });
                    let next_arm = self.ops.len() as u32;
                    self.patch(jne_at, next_arm);
                }
                for st in default {
                    self.emit_stmt(st);
                }
                let end = self.ops.len() as u32;
                for j in end_jumps {
                    self.patch(j, end);
                }
            }
            Stmt::MemWrite { mem, addr, data } => {
                let a = self.emit_expr(addr);
                let d = self.emit_expr(data);
                let words = self.design.mem(self.ids.mem(*mem)).words;
                self.ops.push(Op::MemWrite { mem: self.mem_index(*mem), addr: a, data: d, words });
            }
        }
    }

    fn patch(&mut self, at: usize, target: u32) {
        *self.ops[at].target_mut().expect("patching a non-jump op") = target;
    }

    fn emit_expr(&mut self, e: &Expr) -> VReg {
        match e {
            Expr::Read(sig) => {
                let dst = self.alloc();
                self.ops.push(Op::Read { dst, slot: self.slot_of(*sig) });
                dst
            }
            Expr::Const(c) => {
                let dst = self.alloc();
                let op = Op::Const { dst, val: c.as_u128() };
                if self.params.get(self.loaded.len()) == Some(&self.literal) {
                    let index = self.loaded.len() as u32;
                    self.loaded.push(Param { index, reg: dst, width: c.width() });
                    self.pre.push(op);
                } else {
                    self.ops.push(op);
                }
                self.literal += 1;
                dst
            }
            Expr::Slice { expr, lo, hi } => {
                let a = self.emit_expr(expr);
                let dst = self.alloc();
                self.ops.push(Op::Slice { dst, a, lo: *lo, mask: mask_of(hi - lo) });
                dst
            }
            Expr::Concat(parts) => {
                let mut acc = self.emit_expr(&parts[0]);
                for p in &parts[1..] {
                    let b = self.emit_expr(p);
                    let dst = self.alloc();
                    self.ops.push(Op::ShlOr { dst, a: acc, b, shift: self.expr_width(p) });
                    acc = dst;
                }
                acc
            }
            Expr::Unary(op, inner) => {
                let a = self.emit_expr(inner);
                let w = self.expr_width(inner);
                let dst = self.alloc();
                let m = mask_of(w);
                self.ops.push(match op {
                    UnaryOp::Not => Op::Not { dst, a, mask: m },
                    UnaryOp::Neg => Op::Neg { dst, a, mask: m },
                    UnaryOp::ReduceAnd => Op::RedAnd { dst, a, mask: m },
                    UnaryOp::ReduceOr => Op::RedOr { dst, a },
                    UnaryOp::ReduceXor => Op::RedXor { dst, a },
                });
                dst
            }
            Expr::Binary(op, ea, eb) => {
                let a = self.emit_expr(ea);
                let b = self.emit_expr(eb);
                let w = self.expr_width(ea);
                let m = mask_of(w);
                let ext = 128 - w;
                let dst = self.alloc();
                self.ops.push(match op {
                    BinOp::Add => Op::Add { dst, a, b, mask: m },
                    BinOp::Sub => Op::Sub { dst, a, b, mask: m },
                    BinOp::Mul => Op::Mul { dst, a, b, mask: m },
                    BinOp::And => Op::And { dst, a, b },
                    BinOp::Or => Op::Or { dst, a, b },
                    BinOp::Xor => Op::Xor { dst, a, b },
                    BinOp::Shl => Op::Shl { dst, a, b, width: w, mask: m },
                    BinOp::Shr => Op::Shr { dst, a, b, width: w },
                    BinOp::Sra => Op::Sra { dst, a, b, width: w, mask: m, ext },
                    BinOp::Eq => Op::Eq { dst, a, b },
                    BinOp::Ne => Op::Ne { dst, a, b },
                    BinOp::Lt => Op::Lt { dst, a, b },
                    BinOp::Ge => Op::Ge { dst, a, b },
                    BinOp::LtS => Op::LtS { dst, a, b, ext },
                    BinOp::GeS => Op::GeS { dst, a, b, ext },
                });
                dst
            }
            Expr::Mux { cond, then_, else_ } => {
                let c = self.emit_expr(cond);
                let t = self.emit_expr(then_);
                let f = self.emit_expr(else_);
                let dst = self.alloc();
                self.ops.push(Op::Mux { dst, cond: c, t, f });
                dst
            }
            Expr::Select { sel, options } => {
                let s = self.emit_expr(sel);
                let tmp: Vec<VReg> = options.iter().map(|o| self.emit_expr(o)).collect();
                let base = self.next_reg;
                for (i, r) in tmp.iter().enumerate() {
                    let dst = self.alloc();
                    debug_assert_eq!(dst, base + i as VReg);
                    self.ops.push(Op::Copy { dst, a: *r });
                }
                let dst = self.alloc();
                self.ops.push(Op::Select { dst, sel: s, base, n: options.len() as u16 });
                dst
            }
            Expr::Zext(inner, _) => self.emit_expr(inner),
            Expr::Sext(inner, w) => {
                let a = self.emit_expr(inner);
                let iw = self.expr_width(inner);
                let dst = self.alloc();
                self.ops.push(Op::Sext {
                    dst,
                    a,
                    sign_bit: 1u128 << (iw - 1),
                    ext_or: mask_of(*w) & !mask_of(iw),
                });
                dst
            }
            Expr::Trunc(inner, w) => {
                let a = self.emit_expr(inner);
                let dst = self.alloc();
                self.ops.push(Op::Slice { dst, a, lo: 0, mask: mask_of(*w) });
                dst
            }
            Expr::MemRead { mem, addr } => {
                let a = self.emit_expr(addr);
                let dst = self.alloc();
                let words = self.design.mem(self.ids.mem(*mem)).words;
                self.ops.push(Op::MemRead { dst, mem: self.mem_index(*mem), addr: a, words });
                dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::Bits;

    /// The fold of an expression with no parameter.
    fn fold(e: &Expr) -> Expr {
        fold_expr(e, &mut Fold { params: &[], literal: 0, folded: 0, at: Vec::new() })
    }

    /// A parameter is a value the fold does not know: nothing above it
    /// folds, a constant subtree beside it still does, and the parameter's
    /// position among the folded literals is what the fold reports.
    #[test]
    fn a_parameter_stops_the_fold_above_it() {
        let k = |v| Expr::k(8, v);
        // Literals in walk order 0..4; literal 2 is the parameter.
        let e = (k(1) + k(2)) + (k(3) + k(4));
        let mut cx = Fold { params: &[2], literal: 0, folded: 0, at: Vec::new() };
        assert_eq!(fold_expr(&e, &mut cx), k(3) + (k(3) + k(4)));
        assert_eq!((cx.literal, cx.folded, cx.at), (4, 3, vec![1]));
        assert_eq!(fold(&e), k(10), "no parameter: all of it folds");
    }

    #[test]
    fn fold_expr_collapses_constant_subtrees() {
        let e = Expr::k(8, 3) + Expr::k(8, 4);
        assert_eq!(fold(&e), Expr::Const(Bits::new(8, 7)));
        // A read prevents folding at the top but folds the const subtree.
        let sig = SignalId::from_index(0);
        let e = Expr::Read(sig) + (Expr::k(8, 3) + Expr::k(8, 4));
        match fold(&e) {
            Expr::Binary(BinOp::Add, a, b) => {
                assert_eq!(*a, Expr::Read(sig));
                assert_eq!(*b, Expr::Const(Bits::new(8, 7)));
            }
            other => panic!("unexpected fold result: {other:?}"),
        }
    }

    /// Regression for the quadratic fold: the old implementation
    /// re-evaluated the entire constant subtree at every enclosing node,
    /// so a deep chain took O(n^2) work. The single bottom-up pass must
    /// handle a 50k-deep chain in linear time (the bound below is ~1000x
    /// looser than the rewrite needs and far below what O(n^2) allows).
    /// Runs on a dedicated big stack: folding recurses once per level.
    #[test]
    fn fold_expr_deep_constant_chain_is_linear() {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                const DEPTH: u128 = 50_000;
                let mut e = Expr::k(32, 1);
                for _ in 0..DEPTH {
                    e = e + Expr::k(32, 1);
                }
                let start = std::time::Instant::now();
                let folded = fold(&e);
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(20),
                    "deep fold took {:?} — quadratic regression",
                    start.elapsed()
                );
                assert_eq!(folded, Expr::Const(Bits::new(32, DEPTH + 1)));
            })
            .expect("spawn big-stack fold thread")
            .join()
            .expect("deep fold panicked");
    }

    /// The register-budget panic must name the offending block (its
    /// hierarchical path and kind) so an over-budget design is debuggable
    /// without bisecting the elaboration.
    #[test]
    fn register_budget_panic_names_the_block() {
        let vt = VTape { nregs: REG_BUDGET + 123, ..VTape::default() };
        let context = || "top.routers[3].queue (seq)".into();
        let err = std::panic::catch_unwind(|| narrow(&vt, &[], &[], context))
            .expect_err("narrow must panic over budget");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(msg.contains("register budget"), "message: {msg}");
        assert!(msg.contains("top.routers[3].queue (seq)"), "message: {msg}");
        assert!(msg.contains(&(REG_BUDGET + 123).to_string()), "message: {msg}");
    }

    /// Whether a tape over slots of `widths` bits and memories of
    /// `mem_widths` bits classifies into the `u64` word class.
    fn is_narrow(ops: Vec<Op<VReg>>, nregs: u32, widths: &[u32], mem_widths: &[u32]) -> bool {
        let vt = VTape { ops, nregs, ..VTape::default() };
        let mut tape = narrow(&vt, widths, mem_widths, || "class test".into());
        validate(&mut tape, widths.len(), mem_widths.len());
        tape.narrow.is_some()
    }

    /// The word class is a proof obligation per op, not a guess from the
    /// widths at a tape's edges: each of these has only <=64-bit slots at
    /// its endpoints (or a single oversized ingredient) and must still run
    /// the `u128` executor.
    #[test]
    fn wide_values_immediates_and_shift_counts_classify_wide() {
        let read = |dst, slot| Op::Read { dst, slot };
        let write = |slot, src| Op::Write { slot, src };
        let m = mask_of;

        // concat(a:40, b:40)[10..50]: an 80-bit intermediate.
        let concat_slice = vec![
            read(0, 0),
            read(1, 1),
            Op::ShlOr { dst: 2, a: 0, b: 1, shift: 40 },
            Op::Slice { dst: 3, a: 2, lo: 10, mask: m(40) },
            write(2, 3),
        ];
        assert!(!is_narrow(concat_slice, 4, &[40, 40, 40], &[]));

        // A 65-bit slot, immediately truncated.
        let wide_slot =
            vec![read(0, 0), Op::Slice { dst: 1, a: 0, lo: 0, mask: m(8) }, write(1, 1)];
        assert!(!is_narrow(wide_slot.clone(), 2, &[65, 8], &[]));
        assert!(is_narrow(wide_slot, 2, &[64, 8], &[]));

        // A switch arm constant no 64-bit subject can equal.
        let arm = |k| vec![read(0, 0), Op::JneConst { a: 0, k, target: 3 }, write(1, 0)];
        assert!(!is_narrow(arm(1 << 64), 1, &[8, 8], &[]));
        assert!(is_narrow(arm(u64::MAX as u128), 1, &[8, 8], &[]));

        // `zext(x:40, 100) >> n`: `Zext` emits no op, the width stays 100,
        // and a `u64` shift by 64..100 is not zero.
        let shr = |width| {
            vec![read(0, 0), read(1, 1), Op::Shr { dst: 2, a: 0, b: 1, width }, write(2, 2)]
        };
        assert!(!is_narrow(shr(100), 3, &[40, 8, 40], &[]));
        assert!(is_narrow(shr(64), 3, &[40, 8, 40], &[]));

        // A slice whose shift alone leaves the word.
        let slice = |lo| vec![read(0, 0), Op::Slice { dst: 1, a: 0, lo, mask: 1 }, write(1, 1)];
        assert!(!is_narrow(slice(64), 2, &[40, 1], &[]));
        assert!(is_narrow(slice(63), 2, &[40, 1], &[]));

        // Memory words follow the same rule as slots.
        let mem_read = vec![
            read(0, 0),
            Op::MemRead { dst: 1, mem: 0, addr: 0, words: 4 },
            Op::Slice { dst: 2, a: 1, lo: 0, mask: m(52) },
            write(1, 2),
        ];
        assert!(!is_narrow(mem_read.clone(), 3, &[2, 52], &[65]));
        assert!(is_narrow(mem_read, 3, &[2, 52], &[52]));
    }

    /// `realloc` reuses register numbers for unrelated values, so the
    /// bound must be per definition: `r0` holds a full 64-bit value, dies,
    /// and then holds a 20-bit one that is shifted left by 8. A
    /// per-register maximum would call that a 72-bit result.
    #[test]
    fn a_reused_register_is_judged_per_definition() {
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Write { slot: 1, src: 0 },
            Op::Read { dst: 0, slot: 2 },
            Op::Read { dst: 1, slot: 3 },
            Op::ShlOr { dst: 2, a: 0, b: 1, shift: 8 },
            Op::Write { slot: 4, src: 2 },
        ];
        assert!(is_narrow(ops, 3, &[64, 64, 20, 8, 28], &[]));
    }

    /// `defs_first` holds of a jump-free tape whose body reads only what
    /// the run wrote before it, and of nothing else: a read of an unwritten
    /// register, a body store to a prelude register, or a jump clears it.
    #[test]
    fn validate_records_whether_registers_are_defined_before_use() {
        let check = |ops: Vec<Op>, prelude: u32| {
            let mut tape = Tape { ops, nregs: 3, prelude, ..Tape::default() };
            validate(&mut tape, 2, 0);
            tape.defs_first
        };
        let (k0, k1) = (Op::Const { dst: 0, val: 1 }, Op::Const { dst: 1, val: 2 });
        let read = |dst| Op::Read { dst, slot: 0 };
        let write = |src| Op::Write { slot: 1, src };
        assert!(check(vec![read(2), write(2)], 0));
        assert!(check(vec![k0.clone(), read(2), write(0), write(2)], 1), "prelude reads");
        assert!(check(vec![k0.clone(), k1.clone(), write(1)], 1), "a body def, then its use");
        assert!(!check(vec![write(2)], 0), "a register nothing wrote");
        assert!(!check(vec![k0.clone(), write(1), read(1)], 1), "read before its def");
        assert!(!check(vec![k0.clone(), read(0), write(0)], 1), "a body write to the prelude");
        let jumpy = vec![read(2), Op::Jz { cond: 2, target: 3 }, write(2)];
        assert!(!check(jumpy, 0), "a tape with jumps");
    }

    /// `validate` is the one gate between compiled data and the
    /// executors' unchecked indexing: a tape naming a slot, register,
    /// memory or jump target outside its bounds must never reach them.
    /// Walks every kind's declared roles and effect, so the coverage is
    /// total by construction.
    #[test]
    fn validate_rejects_corrupted_tapes() {
        use crate::tape::Kind;
        const NREGS: u32 = 7;
        const NSLOTS: usize = 8;
        let rejects = |op: &Op, nregs, nslots, nmems| {
            let tape = Tape { ops: vec![op.clone()], nregs, ..Tape::default() };
            std::panic::catch_unwind(|| validate(&mut tape.clone(), nslots, nmems)).is_err()
        };
        let mut n = 0u128;
        let mut rnd = || {
            n += 0x9E37_79B9;
            n
        };
        for &kind in Kind::ALL {
            let op = kind.sample(8, 1, &mut rnd);
            assert!(!rejects(&op, NREGS, NSLOTS, 1), "{kind:?}: sample must be valid");
            let mut operands = 0;
            op.for_each_reg(|_, _| operands += 1);
            for nth in 0..operands {
                let mut at = 0;
                let bad = op.map_regs(&mut |role, r| {
                    at += 1;
                    match role {
                        _ if at - 1 != nth => r,
                        Role::Def | Role::Use => NREGS as Reg,
                        Role::Range(k) => NREGS as Reg - k + 1,
                    }
                });
                assert!(rejects(&bad, NREGS, NSLOTS, 1), "{kind:?}: operand {nth} out of range");
            }
            let escaped = match op.effect() {
                Effect::Pure => true,
                Effect::Read { slot } | Effect::Write { slot, .. } => {
                    rejects(&op, NREGS, slot as usize, 1)
                }
                Effect::MemRead { mem, .. } | Effect::MemWrite { mem, .. } => {
                    rejects(&op, NREGS, NSLOTS, mem as usize)
                }
                // Past the end, and back onto itself (the scalar executor
                // would spin).
                Effect::Jump { .. } => [2, 0].into_iter().all(|target| {
                    let mut bad = op.clone();
                    *bad.target_mut().unwrap() = target;
                    rejects(&bad, NREGS, NSLOTS, 1)
                }),
            };
            assert!(escaped, "{kind:?}: out-of-range slot/memory/target accepted");
        }
        // The `u64` executor indexes by the narrow program's own operands:
        // one that is not the tape's image must not pass either.
        let ops = vec![Op::Const { dst: 0, val: 1 }, Op::Write { slot: 0, src: 0 }];
        let image = |ops: &[Op]| ops.iter().map(|op| op.to_word::<u64>()).collect();
        let mut tape = Tape { narrow: image(&ops), ops, nregs: 1, ..Tape::default() };
        validate(&mut tape, 1, 0);
        tape.narrow = image(&[tape.ops[0].clone(), Op::Write { slot: 9, src: 0 }]);
        assert!(
            std::panic::catch_unwind(|| validate(&mut tape.clone(), 1, 0)).is_err(),
            "stray narrow op"
        );
        tape.narrow = image(&tape.ops[..1]);
        assert!(
            std::panic::catch_unwind(|| validate(&mut tape.clone(), 1, 0)).is_err(),
            "short narrow program"
        );
    }
}
