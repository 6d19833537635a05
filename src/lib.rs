//! RustMTL: a unified framework for vertically integrated computer
//! architecture research.
//!
//! This is the umbrella crate: it re-exports every subsystem so examples
//! and downstream users need a single dependency. See the README for a
//! guided tour and `DESIGN.md` for the system inventory.
//!
//! * [`core`] — components, signals, IR, elaboration (the modeling DSEL)
//! * [`sim`] — the four simulation engines + VCD
//! * [`translate`] — Verilog-2001 emission, re-parsing, DOT rendering
//! * [`stdlib`] — registers, muxes, queues, arbiters, test harnesses
//! * [`net`] — the mesh network case study (FL/CL/RTL)
//! * [`proc`] — the MtlRisc32 processor case study (ISA/ISS/FL/CL/RTL)
//! * [`accel`] — the dot-product accelerator and the compute tile
//! * [`eda`] — analytical area/energy/timing estimation
//! * [`sweep`] — parallel simulation campaigns (sharded execution,
//!   result caching, JSON reports)
//! * [`check`] — the design linter (the prelude's [`lint`](prelude::lint))
//!   and the engine differential fuzzer
//! * [`fault`] — deterministic fault injection: seeded fault plans,
//!   golden-vs-faulty differential runs, masked/silent/detected
//!   classification
//! * [`serve`] — the persistent campaign server: shared compile cache
//!   and multi-campaign scheduling over a JSONL socket protocol
//! * [`soc`] — multi-tile SoC composition: proc+accel tiles on the mesh
//!   with memory-over-network adapters and IR traffic workloads
//! * [`chaos`] — deterministic infrastructure-fault injection for the
//!   campaign stack: worker crashes/hangs, cache corruption, torn
//!   journals, socket resets, and the engine-degradation ladder they
//!   exercise
//!
//! # Examples
//!
//! ```
//! use rustmtl::prelude::*;
//!
//! #[derive(Hash)]
//! struct Register { nbits: u32 }
//! impl Component for Register {
//!     fn build(&self, c: &mut Ctx) {
//!         let in_ = c.in_port("in_", self.nbits);
//!         let out = c.out_port("out", self.nbits);
//!         c.seq("seq_logic", |b| b.assign(out, in_));
//!     }
//! }
//!
//! let mut sim = Sim::build(&Register { nbits: 8 }, Engine::SpecializedOpt).unwrap();
//! sim.poke_port("in_", b(8, 0x42));
//! sim.cycle();
//! assert_eq!(sim.peek_port("out"), b(8, 0x42));
//! ```

pub use mtl_accel as accel;
pub use mtl_bits as bits;
pub use mtl_chaos as chaos;
pub use mtl_check as check;
pub use mtl_core as core;
pub use mtl_eda as eda;
pub use mtl_fault as fault;
pub use mtl_net as net;
pub use mtl_proc as proc;
pub use mtl_serve as serve;
pub use mtl_sim as sim;
pub use mtl_soc as soc;
pub use mtl_stdlib as stdlib;
pub use mtl_sweep as sweep;
pub use mtl_translate as translate;

/// The most commonly used items, for `use rustmtl::prelude::*`.
pub mod prelude {
    pub use mtl_bits::{b, clog2, Bits};
    pub use mtl_core::{elaborate, lint, Component, Ctx, Expr, MsgLayout, SignalRef};
    pub use mtl_sim::{Engine, Sim, SimProfile, VcdWriter};
    pub use mtl_translate::{translate, VerilogLibrary};
}
