//! Concurrent-structural modeling core for RustMTL.
//!
//! This crate is the heart of the framework — the analog of PyMTL's model
//! classes and elaborator. It provides:
//!
//! * [`Component`] — the trait every hardware model implements; its
//!   [`build`](Component::build) method declares ports, wires, memories,
//!   submodules, connections, and update blocks through a [`Ctx`].
//! * An expression IR ([`Expr`]/[`Stmt`]) for translatable RTL behavior,
//!   with operator-overloaded construction via [`SignalRef`].
//! * Native update blocks — arbitrary Rust closures with declared
//!   read/write sets — for FL and CL modeling.
//! * [`elaborate`] — turns a component into a [`Design`], the in-memory
//!   representation consumed by every tool (simulators, Verilog
//!   translation, linting, EDA estimation). This model/tool split keeps
//!   hardware description independent of simulator engineering.
//! * Latency-insensitive val/rdy [bundles](InValRdy) and queue
//!   [adapters](InValRdyQueue), plus [`MsgLayout`] bit-struct message
//!   formats.
//!
//! # Examples
//!
//! A parameterizable register (compare the paper's Figure 2):
//!
//! ```
//! use mtl_core::{elaborate, Component, Ctx};
//!
//! #[derive(Hash)]
//! struct Register { nbits: u32 }
//!
//! impl Component for Register {
//!     fn build(&self, c: &mut Ctx) {
//!         let in_ = c.in_port("in_", self.nbits);
//!         let out = c.out_port("out", self.nbits);
//!         c.seq("seq_logic", |b| b.assign(out, in_));
//!     }
//! }
//!
//! let design = elaborate(&Register { nbits: 8 }).unwrap();
//! assert_eq!(design.signals().len(), 3); // reset, in_, out
//! ```

mod adapters;
mod builder;
mod bundle;
mod component;
mod design;
pub mod hash;
mod ids;
pub mod ir;
mod lint;
mod msg;
mod shape;
mod typecheck;
mod view;

pub use adapters::{InValRdyQueue, OutValRdyQueue};
pub use builder::{BlockBuilder, Ctx, Instance, MemRef, SignalRef, SwitchBuilder};
pub use bundle::{ChildReqResp, InValRdy, OutValRdy, ParentReqResp};
pub use component::{elaborate, elaborate_unchecked, Component, Key, Keyed};
pub use design::{
    BlockBody, BlockInfo, BlockKind, Design, ElabError, IrBody, MemInfo, ModuleInfo, NativeFn,
    NativeLevel, NetInfo, SignalInfo, SignalKind,
};
pub use ids::{BlockId, MemId, ModuleId, NetId, ShapeId, SignalId};
pub use ir::{BinOp, Expr, IdOffsets, LValue, Stmt, UnaryOp};
pub use lint::{lint, Diagnostic, LintRule, Severity};
pub use msg::{Field, MsgLayout};
pub use shape::ShapeInfo;
pub use view::SignalView;

// Re-export Bits so model crates only need one import path.
pub use mtl_bits::{b, clog2, Bits};
