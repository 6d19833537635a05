//! The dot-product accelerator case study (the paper's §III-C): FL, CL,
//! and RTL coprocessor models, the 2:1 memory arbiter, and the
//! accelerator-augmented compute tile with its matrix-vector workloads.
//!
//! # Examples
//!
//! Running the accelerated matrix-vector kernel on a full CL tile:
//!
//! ```
//! use mtl_accel::{mvmult_data, mvmult_xcel_program, run_tile, MvMultLayout, TileConfig, XcelLevel};
//! use mtl_proc::{CacheLevel, ProcLevel};
//! use mtl_sim::Engine;
//!
//! let layout = MvMultLayout::default();
//! let (mat, vec) = mvmult_data(4, 4);
//! let program = mvmult_xcel_program(4, 4, layout);
//! let config = TileConfig { proc: ProcLevel::Cl, cache: CacheLevel::Cl, xcel: XcelLevel::Cl };
//! let r = run_tile(
//!     config,
//!     &program,
//!     &[(layout.mat_base, &mat), (layout.vec_base, &vec)],
//!     1_000_000,
//!     Engine::SpecializedOpt,
//! );
//! assert_eq!(r.outputs.len(), 1);
//! ```

mod arbiter;
mod tile;
mod workload;
mod xcel_cl;
mod xcel_fl;
mod xcel_rtl;

pub use arbiter::MemArbiter;
pub use tile::{
    run_tile, xcel_component, Tile, TileConfig, TileHarness, TileRunResult, XcelLevel, XCEL_LEVELS,
};
pub use workload::{
    mvmult_data, mvmult_reference, mvmult_scalar_program, mvmult_xcel_program, MvMultLayout,
};
pub use xcel_cl::DotProductCL;
pub use xcel_fl::DotProductFL;
pub use xcel_rtl::DotProductRTL;
