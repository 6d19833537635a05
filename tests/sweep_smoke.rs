//! End-to-end smoke tests for `mtl-sweep` campaigns driving real
//! RustMTL simulations (tier-1).
//!
//! Three properties are load-bearing for the campaign subsystem:
//!
//! 1. **Worker-count independence** — a campaign of deterministic sim
//!    jobs produces a byte-identical canonical report whether it runs on
//!    one worker or several. Scheduling is a performance knob, never a
//!    results knob (the same contract the engines make for simulation).
//! 2. **Cache warmth** — rerunning an identical campaign against a warm
//!    cache replays *every* fingerprint without re-simulating, and the
//!    canonical report is unchanged.
//! 3. **Panic isolation** — one exploding job yields a complete,
//!    parseable report with that job marked failed, not a dead campaign.

use rustmtl::net::{MeshTrafficHarness, NetLevel, TrafficPattern};
use rustmtl::sim::{Engine, Sim};
use rustmtl::sweep::json::parse as parse_json;
use rustmtl::sweep::{Campaign, CampaignReport, Job, JobMetrics, Json};

/// A small but real deterministic workload: fixed-seed traffic sims on a
/// 16-node CL mesh (warmup 64, window 256 cycles — well under a second
/// per point even interpreted).
fn mesh_job(pattern: TrafficPattern, offered: u32) -> Job {
    Job::new(format!("{pattern:?}/off{offered:03}"), move |_ctx| {
        let harness =
            MeshTrafficHarness::new(NetLevel::Cl, 16, offered, 0xC0FFEE).with_pattern(pattern);
        let stats = harness.stats();
        let mut sim = Sim::build(&harness, Engine::SpecializedOpt).map_err(|e| format!("{e:?}"))?;
        sim.reset();
        sim.run(64);
        stats.lock().unwrap().clear();
        sim.run(256);
        let m = stats.lock().unwrap();
        Ok(JobMetrics::new()
            .det("injected", m.injected)
            .det("received", m.received)
            .det("avg_latency", m.avg_latency()))
    })
    .param("pattern", format!("{pattern:?}"))
    .param("offered_permille", offered)
}

fn smoke_campaign() -> Campaign {
    let mut campaign = Campaign::new("sweep_smoke").seed(7);
    for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
        for offered in [200u32, 500] {
            campaign = campaign.job(mesh_job(pattern, offered));
        }
    }
    campaign
}

/// A unique scratch directory under the cargo target dir, cleaned first.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn one_worker_and_many_workers_agree_byte_for_byte() {
    let serial = smoke_campaign().no_cache().workers(1).run();
    let sharded = smoke_campaign().no_cache().workers(4).run();
    assert_eq!(serial.done_count(), 4);
    assert_eq!(sharded.done_count(), 4);
    assert_eq!(
        serial.canonical_json_string(),
        sharded.canonical_json_string(),
        "canonical reports must not depend on worker count"
    );
}

#[test]
fn warm_cache_rerun_replays_every_fingerprint() {
    let dir = scratch_dir("sweep-smoke-cache");
    let cold = smoke_campaign().cache_dir(&dir).run();
    assert_eq!(cold.done_count(), 4);
    assert_eq!(cold.cached_count(), 0, "first run must actually execute");

    let warm = smoke_campaign().cache_dir(&dir).run();
    assert_eq!(warm.done_count(), 4);
    assert_eq!(warm.cached_count(), 4, "every job must replay from cache");
    for job in &warm.jobs {
        assert!(job.outcome.is_cached(), "{} missed the warm cache", job.name);
    }
    assert_eq!(
        cold.canonical_json_string(),
        warm.canonical_json_string(),
        "cache replay must reproduce the cold-run results exactly"
    );
}

#[test]
fn a_panicking_job_degrades_to_a_failed_point() {
    fn bomb() -> Job {
        Job::new("bomb", |_ctx| panic!("injected failure")).param("kind", "bomb")
    }
    let report = smoke_campaign().no_cache().job(bomb()).workers(2).run();
    assert_eq!(report.done_count(), 4);
    assert_eq!(report.failed_count(), 1);
    let bomb = report.get("bomb").expect("failed job still reported");
    match &bomb.outcome {
        rustmtl::sweep::JobOutcome::Failed { error } => {
            assert!(error.contains("injected failure"), "panic message preserved: {error}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    // The full JSON report stays complete and parseable.
    let parsed = parse_json(&report.json_string()).expect("report parses");
    let jobs = parsed.get("jobs").and_then(Json::as_arr).expect("jobs array");
    assert_eq!(jobs.len(), 5);
    let summary = parsed.get("summary").expect("summary object");
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(1));
}

#[test]
fn failed_and_uncacheable_jobs_never_enter_the_cache() {
    let dir = scratch_dir("sweep-smoke-nocache-classes");
    fn volatile() -> Job {
        Job::new("volatile", |_ctx| Ok(JobMetrics::new().det("x", 1u64))).uncacheable()
    }
    fn failing() -> Job {
        Job::new("failing", |_ctx| Err("nope".to_string()))
    }
    let first = Campaign::new("classes").cache_dir(&dir).job(volatile()).job(failing()).run();
    assert_eq!(first.done_count(), 1);
    assert_eq!(first.failed_count(), 1);

    let second = Campaign::new("classes").cache_dir(&dir).job(volatile()).job(failing()).run();
    assert_eq!(second.cached_count(), 0, "neither job class may be replayed");
    assert_eq!(second.failed_count(), 1);
}

/// A profiled sim job: the per-job `profile` section appears in the
/// full JSON report but never in the canonical form, so profiling is
/// free to carry wall-clock data without breaking determinism checks.
#[test]
fn profile_sections_reach_the_full_report_but_not_the_canonical_form() {
    use rustmtl::prelude::*;
    use rustmtl::stdlib::Counter;

    fn counter_job(profile: bool) -> Job {
        Job::new("counter", move |_ctx| {
            let mut sim = Sim::build(&Counter::new(8), Engine::SpecializedOpt)
                .map_err(|e| format!("{e:?}"))?;
            if profile {
                sim.enable_profiling();
            }
            sim.reset();
            sim.poke_port("en", b(1, 1));
            sim.poke_port("clear", b(1, 0));
            sim.run(50);
            let mut metrics = JobMetrics::new().det("count", sim.peek_port("count").as_u64());
            if let Some(p) = sim.profile() {
                let mut section = Json::obj();
                section.set("engine", p.engine.to_string());
                section.set("cycles", p.cycles);
                section.set("block_executions", p.total_block_runs());
                metrics = metrics.with_profile(section);
            }
            Ok(metrics)
        })
    }

    let plain = Campaign::new("prof").no_cache().job(counter_job(false)).run();
    let profiled = Campaign::new("prof").no_cache().job(counter_job(true)).run();
    assert_eq!(profiled.done_count(), 1);

    // Full report carries the section with real numbers...
    let parsed = parse_json(&profiled.json_string()).expect("report parses");
    let job = &parsed.get("jobs").and_then(Json::as_arr).expect("jobs")[0];
    let section = job.get("profile").expect("profile section in full report");
    assert!(section.get("block_executions").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(section.get("cycles").and_then(Json::as_u64), Some(52));

    // ...the canonical form never mentions it, and is byte-identical
    // with profiling on or off.
    assert!(!profiled.canonical_json_string().contains("profile"));
    assert_eq!(
        plain.canonical_json_string(),
        profiled.canonical_json_string(),
        "profiling must not perturb the canonical report"
    );

    // An unprofiled job simply has no section.
    let plain_parsed = parse_json(&plain.json_string()).expect("parses");
    let plain_job = &plain_parsed.get("jobs").and_then(Json::as_arr).unwrap()[0];
    assert!(plain_job.get("profile").is_none());
}

/// Profile sections survive a cache round-trip.
#[test]
fn cached_jobs_replay_their_profile_sections() {
    let dir = scratch_dir("sweep-smoke-profile-cache");
    fn job_with_profile() -> Job {
        Job::new("p", |_ctx| {
            let mut section = Json::obj();
            section.set("block_executions", 42u64);
            Ok(JobMetrics::new().det("x", 1u64).with_profile(section))
        })
    }
    let cold = Campaign::new("profcache").cache_dir(&dir).job(job_with_profile()).run();
    assert_eq!(cold.cached_count(), 0);
    let warm = Campaign::new("profcache").cache_dir(&dir).job(job_with_profile()).run();
    assert_eq!(warm.cached_count(), 1);
    let parsed = parse_json(&warm.json_string()).expect("parses");
    let job = &parsed.get("jobs").and_then(Json::as_arr).unwrap()[0];
    let section = job.get("profile").expect("profile replayed from cache");
    assert_eq!(section.get("block_executions").and_then(Json::as_u64), Some(42));
}

/// Regression: a warm cache used to satisfy a `--profile` run with
/// profile-less results stored by an earlier plain run — profiling
/// would silently produce no profiles. A job marked `expects_profile`
/// now treats such entries as misses and re-executes.
#[test]
fn profile_runs_are_not_satisfied_by_profileless_cache_entries() {
    let dir = scratch_dir("sweep-smoke-profile-miss");
    fn point(profiled: bool) -> Job {
        let job = Job::new("point", move |_ctx| {
            let mut metrics = JobMetrics::new().det("x", 1u64);
            if profiled {
                let mut section = Json::obj();
                section.set("block_executions", 7u64);
                metrics = metrics.with_profile(section);
            }
            Ok(metrics)
        });
        if profiled {
            job.expects_profile()
        } else {
            job
        }
    }
    // A cold, unprofiled run seeds the cache with a profile-less entry.
    let plain = Campaign::new("profmiss").cache_dir(&dir).job(point(false)).run();
    assert_eq!(plain.cached_count(), 0);

    // A profiled run against that warm cache: the entry lacks a profile
    // section, so it must miss and the job must actually execute.
    let profiled = Campaign::new("profmiss").cache_dir(&dir).job(point(true)).run();
    assert_eq!(
        profiled.cached_count(),
        0,
        "a profile-less cache entry must not satisfy a job that expects a profile"
    );
    let parsed = parse_json(&profiled.json_string()).expect("parses");
    let job = &parsed.get("jobs").and_then(Json::as_arr).expect("jobs")[0];
    assert!(job.get("profile").is_some(), "the re-run produced a real profile section");

    // The re-run stored a profiled result, so a second profiled run is
    // a clean cache hit — and it still replays the profile.
    let warm = Campaign::new("profmiss").cache_dir(&dir).job(point(true)).run();
    assert_eq!(warm.cached_count(), 1, "profiled entry satisfies a profiled job");
    let parsed = parse_json(&warm.json_string()).expect("parses");
    let job = &parsed.get("jobs").and_then(Json::as_arr).expect("jobs")[0];
    assert!(job.get("profile").is_some(), "profile replayed from the refreshed entry");
}

/// The report schema the docs promise (EXPERIMENTS.md): round-trip the
/// full JSON and spot-check the documented fields.
#[test]
fn report_schema_matches_the_documented_shape() {
    let report: CampaignReport = smoke_campaign().no_cache().workers(2).run();
    let parsed = parse_json(&report.json_string()).expect("well-formed JSON");
    assert_eq!(parsed.get("campaign").and_then(Json::as_str), Some("sweep_smoke"));
    assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(7));
    assert_eq!(parsed.get("workers").and_then(Json::as_u64), Some(2));
    assert!(parsed.get("wall_secs").and_then(Json::as_f64).is_some());
    let jobs = parsed.get("jobs").and_then(Json::as_arr).expect("jobs");
    for job in jobs {
        assert!(job.get("name").and_then(Json::as_str).is_some());
        assert!(job.get("fingerprint").and_then(Json::as_str).is_some());
        assert_eq!(job.get("outcome").and_then(Json::as_str), Some("done"));
        assert!(job.get("metrics").is_some());
        assert!(job.get("params").is_some());
    }
}
