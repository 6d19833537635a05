//! `mtl-sweep`: the simulation-campaign subsystem.
//!
//! The paper's evaluation is an embarrassingly parallel matrix of
//! *independent* simulations — 27 ⟨P,C,A⟩ tile configurations, four
//! engines, injection-rate sweeps. Each [`Sim`](../mtl_sim) stays
//! single-threaded (matching the paper's CPython/Verilator regimes and
//! DESIGN.md §6); this crate adds the layer above: declare a
//! [`Campaign`] of [`Job`]s and run them across worker threads with
//! result caching, panic isolation, per-job watchdogs ([`JobBudget`]),
//! bounded retry with backoff, checkpoint/resume journalling
//! ([`journal`]), live progress, and a machine-readable JSON report
//! (`BENCH_*.json`).
//!
//! ```
//! use mtl_sweep::{Campaign, Job, JobMetrics};
//!
//! let report = Campaign::new("example")
//!     .workers(2)
//!     .no_cache()
//!     .jobs((0..4).map(|inj| {
//!         Job::new(format!("inj{inj}"), move |ctx| {
//!             // Build the simulator *inside* the job: sims are
//!             // Rc-based and never cross threads.
//!             let simulated_cycles = 100 + inj * 10 + (ctx.seed % 2);
//!             Ok(JobMetrics::new().det("cycles", simulated_cycles))
//!         })
//!         .param("inj", inj)
//!     }))
//!     .run();
//! assert_eq!(report.done_count(), 4);
//! println!("{}", report.json_string());
//! ```
//!
//! The crate is deliberately dependency-free (std only): JSON emission
//! and parsing are in-house ([`json`]), hashing is FNV-1a ([`cache`]),
//! and sharding uses `std::thread::scope` — no `serde`, `rayon`, or
//! `crossbeam` (DESIGN.md §6).

pub mod cache;
pub mod campaign;
pub mod chaos;
pub mod exec;
pub mod job;
pub mod journal;
pub mod json;
pub mod progress;
mod record;
pub mod timing;

pub use cache::{fnv1a, job_fingerprint, CacheStats, Fnv1a, ResultCache};
pub use campaign::{
    canonical_json, Campaign, CampaignExec, CampaignReport, PendingJob, PreparedCampaign,
};
pub use chaos::{ChaosGuard, ChaosPolicy, DEGRADE_PREFIX};
pub use exec::{execute_job, quarantine_dir, RetryPolicy};
pub use job::{EngineFallback, Job, JobBudget, JobCtx, JobMetrics, JobOutcome, JobReport, Metric};
pub use journal::Journal;
pub use json::Json;
pub use timing::{measure_batched, BatchedMeasurement};
