//! Tier-1 smoke for the chaos / engine-degradation stack.
//!
//! Drives the real `mtl-serve` registry jobs under an installed
//! [`ChaosPlan`] and checks the robustness contract end to end:
//!
//! 1. **Watchdog + ladder on the batch kind** — a hung
//!    `fault_batch_chunk` attempt is abandoned by the watchdog, retried
//!    one rung down the engine ladder on a scalar engine, completes
//!    with metrics byte-identical to a healthy batch run, quarantines a
//!    compilable reproducer, and journals its result *exactly once*.
//! 2. **Engine config is journal identity** — adding a job that changes
//!    the campaign's engine set invalidates the journal, so previously
//!    journalled jobs re-execute instead of replaying results measured
//!    under a different engine configuration.
//!
//! The full scenario matrix (cache corruption, torn journals, socket
//! resets, ENOSPC) runs in `chaos_sweep --smoke` (scripts/ci/65_chaos.sh).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rustmtl::chaos::ChaosPlan;
use rustmtl::serve::{campaign_from_spec, SpecDefaults};
use rustmtl::sim::ArtifactCache;
use rustmtl::sweep::{json, CampaignReport, Json};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn run(spec: &Json, journal_dir: &Path) -> CampaignReport {
    let defaults = SpecDefaults { cache_dir: None, journal_dir: Some(journal_dir.to_path_buf()) };
    campaign_from_spec(spec, &defaults, &Arc::new(ArtifactCache::new()))
        .expect("spec must be valid")
        .run()
}

/// One laddered batch fault bundle with a short watchdog.
fn batch_spec(campaign: &str) -> Json {
    json::parse(&format!(
        r#"{{"name":"{campaign}","seed":7,"no_cache":true,"jobs":[
            {{"kind":"fault_batch_chunk","name":"{campaign}/batch0","nrouters":4,
              "trials":3,"scalar_sample":1,"cycles":10,"watchdog_ms":700}}
        ]}}"#
    ))
    .unwrap()
}

#[test]
fn hung_batch_job_descends_ladder_and_journals_exactly_once() {
    let dir = scratch_dir("chaos-ladder-smoke");
    std::env::set_var("RUSTMTL_QUARANTINE_DIR", dir.join("quarantine"));

    // Baseline: the healthy batch run, journalled elsewhere.
    let clean = run(&batch_spec("ladder-smoke"), &dir.join("j-clean"));
    assert_eq!(clean.failed_count(), 0);
    assert_eq!(clean.fallback_count(), 0);

    // Chaos: the first (batch-rung) attempt hangs past the watchdog.
    // The retry must descend to the scalar rung, not retry the batch.
    let plan =
        Arc::new(ChaosPlan::new(1).hang_on("ladder-smoke/batch0", Duration::from_millis(2_500), 1));
    let journal_dir = dir.join("j-chaos");
    let report = {
        let _guard = plan.activate();
        run(&batch_spec("ladder-smoke"), &journal_dir)
    };
    assert!(plan.exhausted(), "the injected hang must fire");
    assert_eq!(report.timed_out_count(), 0, "the watchdog kill degrades, it does not fail");
    assert_eq!(report.failed_count(), 0);

    // The degradation is recorded: one descent off the batch rung...
    assert_eq!(report.fallback_count(), 1);
    assert_eq!(report.fallbacks_by_engine(), vec![("specialized-batch".to_string(), 1)]);
    let job = report.get("ladder-smoke/batch0").expect("job report");
    assert_eq!(job.attempts, 2, "one hung batch attempt + one scalar success");
    assert_eq!(job.fallbacks[0].to, "specialized-opt");
    assert!(job.fallbacks[0].error.starts_with("watchdog:"), "{}", job.fallbacks[0].error);

    // ...with a compilable reproducer quarantined on the way down...
    let quarantined = report.quarantined();
    assert_eq!(quarantined.len(), 1);
    let repro = std::fs::read_to_string(quarantined[0]).expect("reproducer on disk");
    assert!(repro.contains("fn main()"), "reproducer must be a standalone program");
    assert!(repro.contains("run_diff"), "reproducer must re-run the differential");
    assert!(repro.contains("Sim::build(&top, Engine::Interpreted)"), "`Sim::build` takes two");
    // It is the example cargo compiles with every test run, with only its
    // job block filled in — so what was quarantined builds.
    let split = |text: &str| {
        let (head, rest) = text.split_once("// >>> job\n").expect("job block opens");
        let (job, tail) = rest.split_once("// <<< job\n").expect("job block closes");
        (format!("{head}{tail}"), job.to_string())
    };
    let (fixed, job) = split(&repro);
    let template = include_str!("../crates/serve/examples/fault_batch_repro.rs");
    assert_eq!(fixed, split(template).0, "only the job block is substituted");
    let filled = "const CHUNK: u64 = 0;\nconst TRIALS: u64 = 3;\nconst SAMPLE: usize = 1;\n\
                  const ROUTERS: usize = 4;\nconst INJECTION: u32 = 200;\n\
                  const FAULTS: usize = 1;\nconst CYCLES: u64 = 10;\n";
    assert!(job.ends_with(filled), "the spec's parameters:\n{job}");
    assert!(job.starts_with("//! failing engine rung 0: specialized-batch\n//! error: watchdog:"));
    assert!(job.contains("\nconst SEED: u64 = 0x"), "the job's derived seed:\n{job}");

    // ...and metrics byte-identical to the healthy batch run (the
    // engine-exactness invariant across ladder rungs).
    assert_eq!(clean.canonical_json_string(), report.canonical_json_string());

    // Exactly-once journalling: one header plus one record, and the
    // chaos-free resume replays it without re-executing anything.
    let journal = journal_dir.join("ladder-smoke.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    assert_eq!(text.lines().count(), 2, "header + exactly one record:\n{text}");
    let resumed = run(&batch_spec("ladder-smoke"), &journal_dir);
    assert_eq!(resumed.replayed_count(), 1);
    assert_eq!(resumed.get("ladder-smoke/batch0").unwrap().attempts, 0, "zero recompute");
    assert_eq!(clean.canonical_json_string(), resumed.canonical_json_string());
}

#[test]
fn changing_the_engine_set_invalidates_the_journal() {
    let dir = scratch_dir("chaos-engine-identity");
    let mesh_only = json::parse(
        r#"{"name":"engine-id","seed":7,"no_cache":true,"jobs":[
            {"kind":"mesh_cycles","name":"engine-id/m0","level":"CL","nrouters":4,
             "cycles":40,"engine":"specialized-opt"}
        ]}"#,
    )
    .unwrap();
    // The same mesh job (identical params, name, and campaign seed —
    // so an identical fingerprint) plus a batch job that widens the
    // campaign's engine set.
    let with_batch = json::parse(
        r#"{"name":"engine-id","seed":7,"no_cache":true,"jobs":[
            {"kind":"mesh_cycles","name":"engine-id/m0","level":"CL","nrouters":4,
             "cycles":40,"engine":"specialized-opt"},
            {"kind":"fault_batch_chunk","name":"engine-id/b0","nrouters":4,
             "trials":3,"scalar_sample":1,"cycles":10}
        ]}"#,
    )
    .unwrap();

    let first = run(&mesh_only, &dir);
    assert_eq!(first.replayed_count(), 0);

    // Same engine config: the journal replays the mesh job.
    let second = run(&mesh_only, &dir);
    assert_eq!(second.replayed_count(), 1);
    assert_eq!(second.get("engine-id/m0").unwrap().attempts, 0);

    // Widened engine set → different journal identity → the journal is
    // started over and the mesh job re-executes despite its unchanged
    // fingerprint: results measured under one engine configuration are
    // never replayed into another.
    let third = run(&with_batch, &dir);
    assert_eq!(third.replayed_count(), 0, "engine-config change must invalidate the journal");
    assert!(third.get("engine-id/m0").unwrap().attempts > 0);
    assert_eq!(third.failed_count(), 0);

    // And the new identity journals normally from there.
    let fourth = run(&with_batch, &dir);
    assert_eq!(fourth.replayed_count(), 2);
}
