//! Verification tools for RustMTL: the design linter and the engine
//! differential fuzzer.
//!
//! The paper's model/tool split makes every analysis a consumer of the
//! same elaborated [`Design`](mtl_core::Design) the simulators use; this
//! crate packages the two verification tools that keep the framework
//! honest:
//!
//! * **Linter** — [`lint`] reports structured [`Diagnostic`]s (cycles,
//!   multiple drivers, width mismatches, mixed seq/comb drivers, dead
//!   interface signals) with exact hierarchical signal paths. The analysis
//!   itself lives in `mtl-core`, next to the IR it walks; this crate
//!   re-exports it as the tool-facing API next to [`elaborate_unchecked`], the lenient
//!   elaboration entry point that preserves defective designs for
//!   diagnosis.
//! * **Differential fuzzer** — [`fuzz`] generates seeded [`RandomRtl`]
//!   designs and runs each under the four engines of `Engine::ALL` plus
//!   `SpecializedPar` at 1 and 4 threads, comparing settled values and logical profile counts
//!   cycle-by-cycle; mismatches are shrunk ([`shrink`]) and reported as
//!   ready-to-paste Rust reproducers (written durably with
//!   [`write_repro_atomic`]).
//! * **Fault differential** — [`fault_fuzz`] extends the agreement
//!   property to *faulted* runs: a seeded `mtl_fault::FaultPlan` is drawn
//!   over each random design and every engine must produce the identical
//!   golden-vs-faulty divergence report (first-divergence cycle,
//!   masked/silent/detected classification, blast radius).
//!
//! # Examples
//!
//! Lint a defective design without aborting on it:
//!
//! ```
//! use mtl_check::{elaborate_unchecked, lint, LintRule};
//! use mtl_core::{Component, Ctx};
//!
//! #[derive(Hash)]
//! struct TwoDrivers;
//! impl Component for TwoDrivers {
//!     fn build(&self, c: &mut Ctx) {
//!         let out = c.out_port("out", 8);
//!         let a = c.in_port("a", 8);
//!         c.comb("drv1", |b| b.assign(out, a));
//!         c.comb("drv2", |b| b.assign(out, a));
//!     }
//! }
//!
//! let design = elaborate_unchecked(&TwoDrivers);
//! let diags = lint(&design);
//! assert!(diags.iter().any(|d| d.rule == LintRule::MultiplyDriven));
//! ```
//!
//! Run a short differential fuzz:
//!
//! ```
//! use mtl_check::FuzzConfig;
//!
//! let cfg = FuzzConfig { iters: 2, seed: 7, cycles: 5, ..FuzzConfig::default() };
//! mtl_check::fuzz(&cfg).expect("engines must agree");
//! ```

mod fault_diff;
mod fuzz;
mod repro;
mod rtl;

pub use fault_diff::{fault_fuzz, fault_fuzz_one, FaultFuzzConfig, FaultFuzzSummary};
pub use fuzz::{
    design_seed, engines_under_test, engines_under_test_opt_diff, fuzz, fuzz_one, run_differential,
    run_differential_batch, run_differential_with, shrink, Divergence, DivergenceKind, EngineSel,
    FuzzConfig, FuzzFailure, FuzzSummary,
};
pub use mtl_core::{elaborate_unchecked, lint, Diagnostic, LintRule, Severity};
pub use repro::write_repro_atomic;
pub use rtl::{repro_snippet, RandomRtl, RtlDesc, RtlShape, SigDef};
