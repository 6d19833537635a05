//! Simulation engines for RustMTL.
//!
//! This crate is the analog of PyMTL's `SimulationTool` plus the paper's
//! SimJIT specializers. A [`Sim`] consumes an elaborated
//! [`Design`](mtl_core::Design) and simulates it under one of six
//! [`Engine`]s; the first four reproduce the paper's performance regimes,
//! the fifth parallelizes the fastest one across threads and the sixth
//! runs it over many trial states at once:
//!
//! | Engine | Paper analog | Architecture |
//! |---|---|---|
//! | [`Engine::Interpreted`] | CPython | event-driven, tree-walking IR, hash-map storage & sensitivity |
//! | [`Engine::InterpretedOpt`] | PyPy | event-driven, tree-walking IR, dense pre-resolved storage |
//! | [`Engine::Specialized`] | SimJIT | IR compiled to a linear tape VM, event-driven dispatch |
//! | [`Engine::SpecializedOpt`] | SimJIT+PyPy | tape VM plus fully static levelized schedule |
//! | [`Engine::SpecializedPar`] | multithreaded codegen (e.g. Verilator `--threads`) | the same static plans, each gang's lane blocks dealt to a pool of worker threads between two barriers; everything else stays on the calling thread |
//! | [`Engine::SpecializedBatch`] | batched campaign simulation (fault/fuzz harnesses running many trials of one design) | up to 64 independent trial lanes in one simulator, each a packed state the static tape engine runs over the one shared plan stage |
//!
//! All engines implement identical simulation semantics; the test suite
//! checks trace equivalence on randomized designs. The four tape engines
//! are execution strategies over one staged compile artifact (per-block
//! tapes → fused plans) built by a single pipeline and shared through the
//! [`ArtifactCache`]; the fault-injection protocol is stated once, in
//! [`Sim`], over lane-addressed engine primitives.
//! Construction overheads are recorded per phase in [`Overheads`] (the
//! paper's Fig. 16).
//!
//! Opt-in profiling ([`Sim::enable_profiling`] → [`SimProfile`]) collects
//! engine-independent logical block-execution counts plus engine-specific
//! physical timing/queue statistics; see the [`profile`]
//! module docs for the metric split.

// Every such block states why it is sound; clippy is run with
// `-D warnings` (`scripts/ci/00_static.sh`), so this is a gate.
#![warn(clippy::undocumented_unsafe_blocks)]

mod artifact;
mod batch;
mod compile;
mod interp;
mod overheads;
mod par;
pub mod profile;
mod sim;
mod state;
mod tape;
mod tape_engine;
mod vcd;

pub use artifact::{ArtifactCache, ArtifactStats};
pub use batch::LANES as BATCH_LANES;
pub use compile::passes;
pub use overheads::Overheads;
pub use par::default_threads;
pub use passes::{OptReport, PassStat};
pub use profile::{Hist, HotBlock, SimProfile};
pub use sim::{Engine, InjectKind, Injection, Sim, SimConfig};
pub use vcd::VcdWriter;
