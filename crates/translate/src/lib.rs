//! Verilog-2001 translation tools for RustMTL.
//!
//! The analog of PyMTL's `TranslationTool` plus the front half of the
//! SimJIT-RTL pipeline:
//!
//! * [`translate`] — emits Verilog-2001 source from a fully-IR (RTL)
//!   elaborated design.
//! * [`VerilogLibrary`] — parses the emitted subset back into components
//!   that can be re-elaborated and simulated, closing the
//!   translate-and-re-parse loop the paper closes with Verilator (and
//!   enabling the `--test-verilog` co-simulation workflow from Figure 4).
//! * [`to_dot`] — renders the elaborated hierarchy/connectivity as
//!   Graphviz DOT (an example of a user-written custom tool).

mod emit;
mod graph;
mod parse;

pub use emit::{translate, TranslateError};
pub use graph::to_dot;
pub use parse::{ParseVerilogError, VerilogComponent, VerilogLibrary};

use mtl_core::{Design, Expr};

/// Computes the width of an IR expression in the context of a design.
///
/// Exposed for tools that need width information during emission.
pub fn emit_width(design: &Design, e: &Expr) -> u32 {
    use mtl_core::ir::{BinOp, UnaryOp};
    match e {
        Expr::Read(s) => design.signal(*s).width,
        Expr::Const(c) => c.width(),
        Expr::Slice { lo, hi, .. } => hi - lo,
        Expr::Concat(parts) => parts.iter().map(|p| emit_width(design, p)).sum(),
        Expr::Unary(op, a) => match op {
            UnaryOp::Not | UnaryOp::Neg => emit_width(design, a),
            _ => 1,
        },
        Expr::Binary(op, a, _) => match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::LtS | BinOp::GeS => 1,
            _ => emit_width(design, a),
        },
        Expr::Mux { then_, .. } => emit_width(design, then_),
        Expr::Select { options, .. } => emit_width(design, &options[0]),
        Expr::Zext(_, w) | Expr::Sext(_, w) | Expr::Trunc(_, w) => *w,
        Expr::MemRead { mem, .. } => design.mem(*mem).width,
    }
}
