//! `mtl-serve`: the persistent campaign server.
//!
//! A research session re-runs near-identical simulation campaigns all
//! day: fault sweeps over the same six design points, rate curves over
//! the same mesh. Run standalone, every invocation pays full
//! elaboration and tape compilation for every job. This crate keeps a
//! daemon alive between invocations, holding:
//!
//! * a **shared compile cache** ([`mtl_sim::ArtifactCache`]) —
//!   elaborated designs and compiled/fused tapes keyed by design-point
//!   fingerprint, shared across jobs *and* across campaigns;
//! * a **multi-campaign scheduler** ([`Scheduler`]) — one worker pool
//!   draining any number of concurrent campaign submissions
//!   round-robin, with `mtl-sweep`'s full per-job semantics (watchdog,
//!   retry, result cache, crash-safe journal) intact;
//! * a **JSONL protocol** ([`protocol`], DESIGN.md §10) over a Unix
//!   socket or stdio — submissions name job kinds from the
//!   [`registry`] catalog (closures can't cross a socket; the bench
//!   bins run the very same specs in-process), and results stream back
//!   as `job_done` events plus a final report.
//!
//! Kill the daemon mid-campaign and restart it: resubmitting the same
//! campaigns resumes from their journals with zero recompute of
//! finished jobs. The whole stack is std-only, like the rest of the
//! workspace — transport is `std::os::unix::net`, JSON is `mtl-sweep`'s
//! in-house module.
//!
//! ```no_run
//! use mtl_serve::{Client, Server, ServerConfig};
//!
//! let sock = std::path::PathBuf::from("/tmp/mtl-serve.sock");
//! let cfg = ServerConfig { workers: 2, ..Default::default() };
//! let (server, serving) = Server::spawn_unix(cfg, &sock).unwrap();
//! let mut client = Client::connect(&sock).unwrap();
//! client.hello().unwrap();
//! let spec = mtl_sweep::json::parse(
//!     r#"{"name":"demo","no_cache":true,"jobs":[
//!         {"kind":"mesh_cycles","name":"m","level":"CL","nrouters":16,"cycles":100}]}"#,
//! )
//! .unwrap();
//! let report = client.submit(&spec, |_event| {}).unwrap();
//! println!("{}", report.to_pretty());
//! server.stop();
//! serving.join().unwrap();
//! ```

pub mod client;
pub mod protocol;
pub mod registry;
pub mod scheduler;
pub mod server;

pub use client::Client;
pub use protocol::PROTO_VERSION;
pub use registry::{campaign_from_spec, profile_json, SpecDefaults, PROFILE_TOP_N};
pub use scheduler::{EventSink, Scheduler};
pub use server::{Server, ServerConfig};
