//! End-to-end smoke for the `mtl-serve` campaign server (tier-1).
//!
//! Drives a real in-process [`Server`] over its Unix socket with real
//! [`Client`]s — the same transport, protocol, registry, and scheduler
//! stack the `mtl_serve` daemon runs — and checks the properties the
//! server exists to provide:
//!
//! 1. **Protocol** — hello/stats round-trip; malformed specs are
//!    rejected with `error` responses and the connection stays usable.
//! 2. **Concurrent campaigns, no cross-talk** — two campaigns sharing
//!    one result-cache dir and one journal dir run at the same time,
//!    and each report carries exactly its own jobs and metrics.
//! 3. **Fingerprint isolation** — resubmitting a campaign reuses its
//!    cached results; a differently named campaign with identical jobs
//!    reuses *nothing* (fingerprints include the campaign identity),
//!    while the shared compile cache still serves both.
//! 4. **Restart/resume** — after the server goes away mid-setup and a
//!    fresh one starts on the same directories, both campaigns resume
//!    from their journals with zero recompute of finished jobs; only
//!    never-finished (failed) jobs run again.
//!
//! The process-level variant of (4) — `kill -9` on a live daemon — runs
//! in `scripts/ci/55_serve.sh`.
//!
//! 5. **Disconnect/shutdown grace** — a client that vanishes
//!    mid-campaign orphans it (queued jobs cancelled after the grace
//!    window, in-flight work journalled), and a server shutdown during
//!    an in-flight submit surfaces as a clean protocol error, not a
//!    broken pipe.
//! 6. **One catalog, two transports** — a spec holding every job kind
//!    produces the same canonical report run in this process and
//!    submitted through a socket.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use rustmtl::serve::{campaign_from_spec, protocol, Client, Server, ServerConfig, SpecDefaults};
use rustmtl::sweep::{canonical_json, json, Json};

/// A unique scratch directory under the cargo target dir, cleaned first.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Starts a server on `dir`'s socket/cache/journal paths and returns it
/// with the serving thread (joined after `Server::stop`).
fn start_server(dir: &Path, workers: usize) -> (Server, PathBuf, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig {
        workers,
        cache_dir: Some(dir.join("cache")),
        journal_dir: Some(dir.join("journals")),
        // Short grace so disconnect-cancel tests settle quickly.
        orphan_grace: std::time::Duration::from_millis(200),
    };
    let socket = dir.join("serve.sock");
    let (server, handle) = Server::spawn_unix(cfg, &socket).expect("server binds its socket");
    (server, socket, handle)
}

fn connect(socket: &Path) -> Client {
    let mut client = Client::connect(socket).expect("client connects");
    client.hello().expect("hello succeeds");
    client
}

/// A campaign of `mesh_cycles` jobs plus (optionally) one always-failing
/// job, all over one shared design point.
fn campaign_spec(name: &str, jobs: usize, with_failure: bool) -> Json {
    let mut spec = Json::obj();
    spec.set("name", name);
    let mut arr: Vec<Json> = Vec::new();
    for i in 0..jobs {
        let mut j = Json::obj();
        j.set("kind", "mesh_cycles")
            .set("name", format!("mesh/job{i}"))
            .set("level", "CL")
            .set("nrouters", 4u64)
            .set("cycles", 50 + i as u64)
            .set("engine", "specialized-opt");
        arr.push(j);
    }
    if with_failure {
        let mut j = Json::obj();
        j.set("kind", "fail").set("name", "always-fails");
        arr.push(j);
    }
    spec.set("jobs", arr);
    spec
}

fn summary_count(report: &Json, key: &str) -> u64 {
    report.get("summary").and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn job_names(report: &Json) -> Vec<String> {
    report
        .get("jobs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|j| j.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

#[test]
fn protocol_round_trips_and_rejects_bad_specs() {
    let dir = scratch_dir("serve-protocol");
    let (server, socket, handle) = start_server(&dir, 1);

    let mut client = connect(&socket);
    let stats = client.stats().expect("stats round-trips");
    assert_eq!(stats.get("active_campaigns").and_then(Json::as_u64), Some(0));

    // Malformed specs come back as error responses, not dead sockets.
    for bad in [
        r#"{"jobs":[]}"#,
        r#"{"name":"x","jobs":[{"kind":"warp","name":"j"}]}"#,
        r#"{"name":"a/b","jobs":[{"kind":"sleep_ms","name":"j"}]}"#,
    ] {
        let spec = json::parse(bad).unwrap();
        assert!(client.submit(&spec, |_| {}).is_err(), "spec must be rejected: {bad}");
    }
    // The same connection still works after rejections.
    let report = client
        .submit(&campaign_spec("after-errors", 1, false), |_| {})
        .expect("valid spec after rejections");
    assert_eq!(summary_count(&report, "done"), 1);

    server.stop();
    handle.join().unwrap();
}

#[test]
fn concurrent_campaigns_share_dirs_without_cross_talk() {
    let dir = scratch_dir("serve-concurrent");
    let (server, socket, handle) = start_server(&dir, 2);

    // Two clients submit concurrently; both campaigns share the server's
    // cache dir, journal dir, and compile cache.
    let threads: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|name| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = connect(&socket);
                let mut events = 0usize;
                let report = client
                    .submit(&campaign_spec(name, 4, false), |_| events += 1)
                    .expect("campaign completes");
                (name, events, report)
            })
        })
        .collect();
    for t in threads {
        let (name, events, report) = t.join().expect("client thread");
        assert_eq!(report.get("campaign").and_then(Json::as_str), Some(name));
        assert_eq!(summary_count(&report, "done"), 4, "{name}");
        assert_eq!(summary_count(&report, "failed"), 0, "{name}");
        assert_eq!(events, 4, "{name}: one job_done event per job");
        // No cross-talk: exactly this campaign's jobs, nobody else's.
        let mut names = job_names(&report);
        names.sort();
        assert_eq!(names, (0..4).map(|i| format!("mesh/job{i}")).collect::<Vec<_>>(), "{name}");
    }
    // Both campaigns hammered one design point through one compile
    // cache: at most `workers` compiles can race; the rest must hit.
    let mut client = connect(&socket);
    let stats = client.stats().expect("stats");
    let compile = stats.get("compile").expect("compile section");
    let hits = compile.get("tape_hits").and_then(Json::as_u64).unwrap();
    let misses = compile.get("tape_misses").and_then(Json::as_u64).unwrap();
    assert!(hits >= 6, "8 builds over one design point must mostly hit: {hits} hits");
    assert!(misses <= 2, "at most one racing compile per worker: {misses} misses");
    assert_eq!(stats.get("completed_campaigns").and_then(Json::as_u64), Some(2));

    server.stop();
    handle.join().unwrap();
}

#[test]
fn fingerprints_isolate_campaigns_while_compiles_are_shared() {
    let dir = scratch_dir("serve-fingerprint");
    let (server, socket, handle) = start_server(&dir, 1);

    let mut client = connect(&socket);
    let first = client.submit(&campaign_spec("original", 3, false), |_| {}).unwrap();
    assert_eq!(summary_count(&first, "cached"), 0);

    // Resubmission of the same campaign: every result comes from the
    // shared result-cache dir (same fingerprints).
    let again = client.submit(&campaign_spec("original", 3, false), |_| {}).unwrap();
    assert_eq!(summary_count(&again, "done"), 3);
    assert_eq!(
        summary_count(&again, "cached") + summary_count(&again, "replayed"),
        3,
        "identical resubmission recomputes nothing"
    );

    // Identical jobs under a different campaign name: fingerprints
    // differ, so nothing is reused from the result cache...
    let other = client.submit(&campaign_spec("imposter", 3, false), |_| {}).unwrap();
    assert_eq!(summary_count(&other, "done"), 3);
    assert_eq!(summary_count(&other, "cached"), 0, "results never leak across campaign names");
    // ...but the *compile* cache serves both (keyed by design point).
    let stats = client.stats().unwrap();
    let hits =
        stats.get("compile").and_then(|c| c.get("tape_hits")).and_then(Json::as_u64).unwrap();
    assert!(hits >= 5, "imposter's builds reuse original's tapes: {hits} hits");

    server.stop();
    handle.join().unwrap();
}

/// A campaign of slow `sleep_ms` jobs (so plenty stay queued while the
/// connection dies).
fn slow_spec(name: &str, jobs: usize, ms: u64) -> Json {
    let mut spec = Json::obj();
    spec.set("name", name);
    let arr: Vec<Json> = (0..jobs)
        .map(|i| {
            let mut j = Json::obj();
            j.set("kind", "sleep_ms").set("name", format!("{name}/j{i}")).set("ms", ms);
            j
        })
        .collect();
    spec.set("jobs", arr);
    spec
}

#[test]
fn disconnecting_client_orphans_campaign_and_queued_jobs_are_cancelled() {
    let dir = scratch_dir("serve-disconnect");
    let (server, socket, handle) = start_server(&dir, 1);
    let jobs = 6;

    {
        // A raw connection with no protocol goodbye: submit, read one
        // event to prove the campaign is live, then vanish.
        let mut stream = UnixStream::connect(&socket).expect("raw connect");
        let line = protocol::submit_request(&slow_spec("vanisher", jobs, 150)).to_compact();
        stream.write_all(line.as_bytes()).expect("send submit");
        stream.write_all(b"\n").expect("send newline");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut event = String::new();
        reader.read_line(&mut event).expect("first event");
        assert!(event.contains("event"), "expected a job event, got: {event}");
    }

    // After the grace window the scheduler must cancel the queued
    // remainder and retire the campaign on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while server.scheduler().stats().1 != 0 {
        assert!(std::time::Instant::now() < deadline, "orphaned campaign never drained");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.stop();
    handle.join().unwrap();

    // Completed jobs checkpointed; cancelled ones never journal — the
    // journal is strictly shorter than the campaign.
    let text = std::fs::read_to_string(dir.join("journals").join("vanisher.jsonl"))
        .expect("journal exists");
    let records = text.lines().count().saturating_sub(1);
    assert!(records >= 1, "in-flight work still checkpoints");
    assert!(records < jobs, "queued jobs were cancelled, not executed: {records}/{jobs}");
}

#[test]
fn shutdown_during_in_flight_submit_is_a_clean_protocol_error() {
    let dir = scratch_dir("serve-shutdown-grace");
    let (server, socket, handle) = start_server(&dir, 1);

    let submitter = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = connect(&socket);
            client.submit(&slow_spec("interrupted", 8, 200), |_| {})
        })
    };
    // Let the campaign get going, then stop the server under it.
    std::thread::sleep(std::time::Duration::from_millis(300));
    server.stop();
    let result = submitter.join().expect("submitter thread");
    handle.join().unwrap();

    // The client must see the protocol-level goodbye (with recovery
    // guidance), not a dead socket.
    let err = result.expect_err("shutdown mid-submit must error");
    assert!(err.contains("shutting down"), "unexpected error: {err}");
    assert!(err.contains("resubmit"), "goodbye must point at recovery: {err}");
}

#[test]
fn campaigns_resume_from_journals_after_a_server_restart() {
    let dir = scratch_dir("serve-restart");

    // First server: run two campaigns to completion (each with one
    // always-failing job — failures are never journalled), then stop it
    // without any cleanup, as a crash would.
    let (server, socket, handle) = start_server(&dir, 2);
    let mut client = connect(&socket);
    for name in ["left", "right"] {
        let report = client.submit(&campaign_spec(name, 3, true), |_| {}).unwrap();
        assert_eq!(summary_count(&report, "done"), 3);
        assert_eq!(summary_count(&report, "failed"), 1);
    }
    server.stop();
    handle.join().unwrap();

    // Remove the result cache so only the journals can satisfy jobs:
    // resume must come from the journal replay path specifically.
    let _ = std::fs::remove_dir_all(dir.join("cache"));

    // Second server on the same directories: both campaigns replay every
    // finished job from their journals; only the failed job re-runs.
    let (server, socket, handle) = start_server(&dir, 2);
    let mut client = connect(&socket);
    for name in ["left", "right"] {
        let report = client.submit(&campaign_spec(name, 3, true), |_| {}).unwrap();
        assert_eq!(summary_count(&report, "replayed"), 3, "{name} resumes from its journal");
        assert_eq!(summary_count(&report, "failed"), 1, "{name}'s failure re-runs and re-fails");
        let executed = report
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|j| j.get("attempts").and_then(Json::as_u64).unwrap_or(0) > 0)
            .count();
        assert_eq!(executed, 1, "{name}: zero recompute of finished jobs");
    }

    server.stop();
    handle.join().unwrap();
}

#[test]
fn every_kind_reports_identically_in_process_and_through_a_socket() {
    let spec = json::parse(
        r#"{"name":"catalog","seed":11,"no_cache":true,"jobs":[
            {"kind":"sleep_ms","name":"sleep","ms":1},
            {"kind":"mesh_cycles","name":"cycles","level":"CL","nrouters":4,"cycles":40},
            {"kind":"mesh_cycles","name":"window","level":"CL","nrouters":4,"warmup":20,
             "cycles":40,"pattern":"transpose","nentries":4,"seed":7},
            {"kind":"tile_cycles","name":"tile","proc":"FL","cache":"FL","xcel":"FL",
             "kernel":"scalar","rows":2,"cols":4},
            {"kind":"iss_kernel","name":"iss","kernel":"scalar","rows":2,"cols":4},
            {"kind":"mesh_rate","name":"rate","level":"FL","nrouters":4,"min_wall_ms":1,
             "max_cycles":200},
            {"kind":"mesh_rate","name":"rate-profiled","level":"RTL","nrouters":4,
             "min_wall_ms":1,"max_cycles":200,"tape_opt":false,"profile":true},
            {"kind":"handwritten_rate","name":"handwritten","nrouters":4,"min_wall_ms":1,
             "max_cycles":200},
            {"kind":"fault_chunk","name":"chunk","dut":"mesh-ir","nrouters":4,"trials":2,
             "cycles":30},
            {"kind":"fault_batch_chunk","name":"batch","nrouters":4,"trials":3,
             "scalar_sample":1,"cycles":20},
            {"kind":"soc_cycles","name":"soc-syn","net":"RTL","tiles":4,"limit":8,
             "cycles":5000},
            {"kind":"soc_cycles","name":"soc-cmp","workload":"compute","net":"CL","proc":"CL",
             "cache":"CL","xcel":"CL","accesses":2,"cycles":20000}
        ]}"#,
    )
    .unwrap();
    let artifacts = std::sync::Arc::new(rustmtl::sim::ArtifactCache::new());
    let build = |spec: &Json| campaign_from_spec(spec, &SpecDefaults::default(), &artifacts);

    // The spec covers the whole catalog (`fail` aside), as the
    // unknown-kind error lists it: a new kind must join this test.
    let probe = json::parse(r#"{"name":"probe","jobs":[{"kind":"?","name":"j"}]}"#).unwrap();
    let error = build(&probe).err().expect("unknown kind is rejected");
    let listed = error.split("catalog: ").nth(1).expect("error lists the catalog");
    let mut catalog: Vec<&str> = listed.trim_end_matches(')').split(", ").collect();
    catalog.retain(|&kind| kind != "fail");
    let jobs = spec.get("jobs").and_then(Json::as_arr).unwrap();
    let mut covered: Vec<&str> =
        jobs.iter().filter_map(|j| j.get("kind").and_then(Json::as_str)).collect();
    covered.dedup();
    assert_eq!(covered, catalog);

    let local = build(&spec).expect("spec is valid").run().to_json();
    assert_eq!(summary_count(&local, "done"), jobs.len() as u64, "{}", local.to_pretty());

    let dir = scratch_dir("serve-catalog");
    let (server, socket, handle) = start_server(&dir, 2);
    let served = connect(&socket).submit(&spec, |_| {}).expect("served campaign completes");
    server.stop();
    handle.join().unwrap();

    assert_eq!(canonical_json(&local).to_pretty(), canonical_json(&served).to_pretty());
}
