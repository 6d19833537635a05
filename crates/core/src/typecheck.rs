//! Width checking for IR blocks, run during design finalization.

use crate::design::{BlockBody, BlockKind, Design, ElabError};
use crate::ids::{MemId, SignalId};
use crate::ir::{BinOp, Expr, IdOffsets, Stmt};

/// Checks each block shape's first instance. The check reads only what a
/// shape fixes (widths, constants, the block kind), so every instance
/// passes or fails alike, and the first failing block in block order — the
/// one reported — is always the first instance of its shape.
pub(crate) fn check_design(design: &Design) -> Result<(), ElabError> {
    for shape in design.shapes() {
        let block = design.block(shape.first);
        let BlockBody::Ir(body) = &block.body else { continue };
        let ctx = CheckCtx { design, ids: body.ids(), seq: block.kind == BlockKind::Seq };
        for s in body.stmts() {
            ctx.check_stmt(s).map_err(|message| ElabError::TypeError {
                block: design.block_path(shape.first),
                message,
            })?;
        }
    }
    Ok(())
}

struct CheckCtx<'a> {
    design: &'a Design,
    ids: IdOffsets,
    seq: bool,
}

impl CheckCtx<'_> {
    fn sig_width(&self, s: SignalId) -> u32 {
        self.design.signal(self.ids.signal(s)).width
    }

    fn mem_width(&self, m: MemId) -> u32 {
        self.design.mem(self.ids.mem(m)).width
    }

    fn check_stmt(&self, stmt: &Stmt) -> Result<(), String> {
        match stmt {
            Stmt::Assign(lv, e) => {
                let sig_w = self.sig_width(lv.signal);
                if lv.lo >= lv.hi || lv.hi > sig_w {
                    return Err(format!(
                        "assignment slice [{},{}) out of range for signal of width {sig_w}",
                        lv.lo, lv.hi
                    ));
                }
                let ew = self.expr_width(e)?;
                if ew != lv.width() {
                    return Err(format!(
                        "assignment width mismatch: target is {} bits, expression is {ew} bits",
                        lv.width()
                    ));
                }
                Ok(())
            }
            Stmt::If { cond, then_, else_ } => {
                let cw = self.expr_width(cond)?;
                if cw != 1 {
                    return Err(format!("if condition must be 1 bit, got {cw}"));
                }
                for s in then_.iter().chain(else_) {
                    self.check_stmt(s)?;
                }
                Ok(())
            }
            Stmt::Switch { subject, arms, default } => {
                let sw = self.expr_width(subject)?;
                for (k, body) in arms {
                    if k.width() != sw {
                        return Err(format!(
                            "switch arm constant {k} does not match subject width {sw}"
                        ));
                    }
                    for s in body {
                        self.check_stmt(s)?;
                    }
                }
                for s in default {
                    self.check_stmt(s)?;
                }
                Ok(())
            }
            Stmt::MemWrite { mem, addr, data } => {
                if !self.seq {
                    return Err("memory writes are only allowed in sequential blocks".into());
                }
                self.expr_width(addr)?;
                let dw = self.expr_width(data)?;
                let mw = self.mem_width(*mem);
                if dw != mw {
                    return Err(format!(
                        "memory write data is {dw} bits but memory word is {mw} bits"
                    ));
                }
                Ok(())
            }
        }
    }

    fn expr_width(&self, e: &Expr) -> Result<u32, String> {
        match e {
            Expr::Read(s) => Ok(self.sig_width(*s)),
            Expr::Const(c) => Ok(c.width()),
            Expr::Slice { expr, lo, hi } => {
                let w = self.expr_width(expr)?;
                if *lo >= *hi || *hi > w {
                    return Err(format!("slice [{lo},{hi}) out of range for width {w}"));
                }
                Ok(hi - lo)
            }
            Expr::Concat(parts) => {
                if parts.is_empty() {
                    return Err("concat of zero parts".into());
                }
                let mut total = 0;
                for p in parts {
                    total += self.expr_width(p)?;
                }
                if total > 128 {
                    return Err(format!("concat width {total} exceeds 128"));
                }
                Ok(total)
            }
            Expr::Unary(op, inner) => {
                let w = self.expr_width(inner)?;
                use crate::ir::UnaryOp::*;
                Ok(match op {
                    Not | Neg => w,
                    ReduceAnd | ReduceOr | ReduceXor => 1,
                })
            }
            Expr::Binary(op, a, b) => {
                let aw = self.expr_width(a)?;
                let bw = self.expr_width(b)?;
                match op {
                    BinOp::Shl | BinOp::Shr | BinOp::Sra => Ok(aw),
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::LtS | BinOp::GeS => {
                        if aw != bw {
                            Err(format!("comparison width mismatch: {aw} vs {bw}"))
                        } else {
                            Ok(1)
                        }
                    }
                    _ => {
                        if aw != bw {
                            Err(format!("operand width mismatch in {op:?}: {aw} vs {bw}"))
                        } else {
                            Ok(aw)
                        }
                    }
                }
            }
            Expr::Mux { cond, then_, else_ } => {
                let cw = self.expr_width(cond)?;
                if cw != 1 {
                    return Err(format!("mux condition must be 1 bit, got {cw}"));
                }
                let tw = self.expr_width(then_)?;
                let ew = self.expr_width(else_)?;
                if tw != ew {
                    return Err(format!("mux branch width mismatch: {tw} vs {ew}"));
                }
                Ok(tw)
            }
            Expr::Select { sel, options } => {
                if options.is_empty() {
                    return Err("select with zero options".into());
                }
                self.expr_width(sel)?;
                let w0 = self.expr_width(&options[0])?;
                for o in &options[1..] {
                    let w = self.expr_width(o)?;
                    if w != w0 {
                        return Err(format!("select option width mismatch: {w0} vs {w}"));
                    }
                }
                Ok(w0)
            }
            Expr::Zext(inner, w) | Expr::Sext(inner, w) => {
                let iw = self.expr_width(inner)?;
                if *w < iw {
                    return Err(format!("extension target {w} narrower than operand {iw}"));
                }
                if *w > 128 {
                    return Err(format!("extension target {w} exceeds 128"));
                }
                Ok(*w)
            }
            Expr::Trunc(inner, w) => {
                let iw = self.expr_width(inner)?;
                if *w > iw || *w == 0 {
                    return Err(format!("truncation target {w} invalid for operand {iw}"));
                }
                Ok(*w)
            }
            Expr::MemRead { mem, addr } => {
                self.expr_width(addr)?;
                Ok(self.mem_width(*mem))
            }
        }
    }
}
