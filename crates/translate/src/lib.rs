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
