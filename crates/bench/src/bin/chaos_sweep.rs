//! Chaos campaign: seeded infrastructure-fault injection over the
//! campaign stack, asserting byte-identical recovery.
//!
//! Every scenario runs one registry campaign twice: once clean, once
//! under an installed [`mtl_chaos::ChaosPlan`] (plus, where recovery
//! spans runs, a post-chaos resume). The invariant asserted throughout
//! is the repo's strongest: the *canonical* campaign report of the
//! chaotic run is **byte-identical** to the chaos-free baseline — the
//! infrastructure may crash, hang, corrupt, tear, and disconnect, but
//! it must never change a result, only cost wall-clock time.
//!
//! Scenario × fault-class matrix:
//!
//! * `worker-panic`    — worker threads panic mid-attempt; retry heals.
//! * `worker-hang`     — a worker wedges; the watchdog abandons it and
//!   the retry completes.
//! * `cache-corruption`— stored results are bit-flipped, truncated, and
//!   dropped (ENOSPC); the integrity checksum turns every corruption
//!   into a re-execution on the next run.
//! * `journal-faults`  — appends tear, duplicate, go stale, and hit
//!   ENOSPC; resume replays what survived and recomputes the rest.
//! * `engine-ladder`   — the divergence sentinel trips on a batch
//!   `fault_batch_chunk`; the job descends the engine ladder
//!   (`specialized-batch → specialized-opt`), writes a compilable
//!   quarantine reproducer, and still produces identical metrics.
//! * `artifact-poison` — the shared compile cache is cleared repeatedly
//!   mid-campaign; builds just recompile.
//! * `serve-reset`     — an injected socket reset kills a submit stream
//!   mid-campaign; the resubmission replays the journalled prefix.
//! * `serve-disconnect`— a raw client disconnect orphans its campaign;
//!   queued jobs are cancelled within the grace window.
//! * `serve-shutdown`  — shutdown during an in-flight submit yields a
//!   clean protocol error, not a broken pipe.
//!
//! Writes `BENCH_chaos.json` (see EXPERIMENTS.md): per-scenario
//! recovery overheads, injection counts by fault class, fallback and
//! replay rates. `--smoke` shrinks the matrix for CI
//! (scripts/ci/65_chaos.sh).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtl_bench::{banner, write_bench_json, Args};
use mtl_chaos::ChaosPlan;
use mtl_serve::{campaign_from_spec, Client, Server, ServerConfig, SpecDefaults};
use mtl_sim::ArtifactCache;
use mtl_sweep::{canonical_json, CampaignReport, Json};

const SEED: u64 = 0xC4A0_5EED;

/// One scenario's BENCH row in the making.
struct Row {
    name: &'static str,
    injections: Vec<mtl_chaos::InjectionCount>,
    wall_clean: f64,
    wall_chaos: f64,
    fallbacks: usize,
    replayed: usize,
    detail: Vec<(&'static str, Json)>,
}

impl Row {
    fn new(name: &'static str) -> Row {
        Row {
            name,
            injections: Vec::new(),
            wall_clean: 0.0,
            wall_chaos: 0.0,
            fallbacks: 0,
            replayed: 0,
            detail: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("scenario", self.name)
            .set("wall_clean_secs", self.wall_clean)
            .set("wall_chaos_secs", self.wall_chaos)
            .set("recovery_overhead_secs", (self.wall_chaos - self.wall_clean).max(0.0))
            .set("fallbacks", self.fallbacks as u64)
            .set("replayed", self.replayed as u64);
        let mut inj = Json::obj();
        for c in &self.injections {
            let prev = inj.get(c.kind).and_then(Json::as_u64).unwrap_or(0);
            inj.set(c.kind, prev + u64::from(c.injected));
        }
        doc.set("injections", inj);
        for (k, v) in &self.detail {
            doc.set(*k, v.clone());
        }
        doc
    }
}

/// Scale knobs: `--smoke` is the CI matrix, the default is the full one.
struct Scale {
    mesh_jobs: usize,
    mesh_cycles: u64,
    batch_trials: u64,
    serve_jobs: usize,
}

impl Scale {
    fn new(smoke: bool) -> Scale {
        if smoke {
            Scale { mesh_jobs: 3, mesh_cycles: 60, batch_trials: 3, serve_jobs: 4 }
        } else {
            Scale { mesh_jobs: 6, mesh_cycles: 200, batch_trials: 8, serve_jobs: 8 }
        }
    }
}

fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A campaign of deterministic `mesh_cycles` jobs named `{name}/j{i}`.
fn mesh_spec(
    name: &str,
    jobs: usize,
    cycles: u64,
    retries: u64,
    watchdog_ms: Option<u64>,
    no_cache: bool,
) -> Json {
    let mut spec = Json::obj();
    spec.set("name", name).set("seed", SEED).set("retries", retries);
    if no_cache {
        spec.set("no_cache", true);
    }
    let mut arr: Vec<Json> = Vec::new();
    for i in 0..jobs {
        let mut j = Json::obj();
        j.set("kind", "mesh_cycles")
            .set("name", format!("{name}/j{i}"))
            .set("level", "CL")
            .set("nrouters", 4u64)
            .set("cycles", cycles + i as u64)
            .set("engine", "specialized-opt");
        if let Some(ms) = watchdog_ms {
            j.set("watchdog_ms", ms);
        }
        arr.push(j);
    }
    spec.set("jobs", arr);
    spec
}

/// One batch `fault_batch_chunk` job (the laddered kind).
fn batch_spec(name: &str, trials: u64) -> Json {
    let mut spec = Json::obj();
    spec.set("name", name).set("seed", SEED).set("no_cache", true);
    let mut j = Json::obj();
    j.set("kind", "fault_batch_chunk")
        .set("name", format!("{name}/ladder0"))
        .set("nrouters", 4u64)
        .set("trials", trials)
        .set("scalar_sample", 1u64)
        .set("cycles", 20u64);
    spec.set("jobs", vec![j]);
    spec
}

/// Builds and runs a spec with the given defaults on a fresh
/// [`ArtifactCache`] (or a caller-shared one).
fn run_spec(
    spec: &Json,
    defaults: &SpecDefaults,
    artifacts: &Arc<ArtifactCache>,
) -> CampaignReport {
    campaign_from_spec(spec, defaults, artifacts).expect("chaos_sweep spec must be valid").run()
}

fn defaults(cache: Option<&Path>, journal: Option<&Path>) -> SpecDefaults {
    SpecDefaults {
        cache_dir: cache.map(Path::to_path_buf),
        journal_dir: journal.map(Path::to_path_buf),
    }
}

fn assert_identical(scenario: &str, clean: &CampaignReport, chaos: &CampaignReport) {
    let (a, b) = (clean.canonical_json_string(), chaos.canonical_json_string());
    assert_eq!(a, b, "{scenario}: chaotic canonical report must be byte-identical to clean run");
    println!("  {scenario}: byte-identical ({} canonical bytes)", a.len());
}

fn summary_u64(report: &CampaignReport, key: &str) -> u64 {
    report.to_json().get("summary").and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Direct campaign scenarios
// ---------------------------------------------------------------------

/// Worker panics mid-attempt; in-place retries heal without a ladder.
fn worker_panic(root: &Path, s: &Scale) -> Row {
    let _ = root;
    let mut row = Row::new("worker-panic");
    let d = defaults(None, None);
    let spec = mesh_spec("chaos-panic", s.mesh_jobs, s.mesh_cycles, 2, None, true);

    let t0 = Instant::now();
    let clean = run_spec(&spec, &d, &Arc::new(ArtifactCache::new()));
    row.wall_clean = t0.elapsed().as_secs_f64();

    let plan = Arc::new(ChaosPlan::new(SEED).panic_on("chaos-panic/j1", 2));
    let t1 = Instant::now();
    let chaos = {
        let _guard = plan.activate();
        run_spec(&spec, &d, &Arc::new(ArtifactCache::new()))
    };
    row.wall_chaos = t1.elapsed().as_secs_f64();

    assert_identical(row.name, &clean, &chaos);
    assert!(plan.exhausted(), "both injected panics must fire");
    assert_eq!(chaos.failed_count(), 0, "panics are transient: retries heal");
    let attempts = chaos.get("chaos-panic/j1").expect("job present").attempts;
    assert_eq!(attempts, 3, "two panicked attempts + one success");
    row.injections = plan.counts();
    row.detail.push(("attempts_on_victim", Json::Num(attempts as f64)));
    row
}

/// Worker hangs; the watchdog abandons the attempt and the retry wins.
fn worker_hang(root: &Path, s: &Scale) -> Row {
    let _ = root;
    let mut row = Row::new("worker-hang");
    let d = defaults(None, None);
    let spec = mesh_spec("chaos-hang", s.mesh_jobs, s.mesh_cycles, 1, Some(2_000), true);

    let t0 = Instant::now();
    let clean = run_spec(&spec, &d, &Arc::new(ArtifactCache::new()));
    row.wall_clean = t0.elapsed().as_secs_f64();

    // The hang is finite (the abandoned thread must still exit) but
    // comfortably past the watchdog limit.
    let plan =
        Arc::new(ChaosPlan::new(SEED).hang_on("chaos-hang/j0", Duration::from_millis(4_000), 1));
    let t1 = Instant::now();
    let chaos = {
        let _guard = plan.activate();
        run_spec(&spec, &d, &Arc::new(ArtifactCache::new()))
    };
    row.wall_chaos = t1.elapsed().as_secs_f64();

    assert_identical(row.name, &clean, &chaos);
    assert!(plan.exhausted(), "the injected hang must fire");
    assert_eq!(chaos.timed_out_count(), 0, "the watchdog kill is transient: the retry heals");
    assert_eq!(chaos.get("chaos-hang/j0").expect("job present").attempts, 2);
    row.injections = plan.counts();
    row
}

/// Cache stores are corrupted; the checksum rejects them on load and
/// the affected jobs silently re-execute on the next run.
fn cache_corruption(root: &Path, s: &Scale) -> Row {
    let mut row = Row::new("cache-corruption");
    let spec = mesh_spec("chaos-cache", s.mesh_jobs.max(4), s.mesh_cycles, 0, None, false);

    let base_cache = fresh_dir(root, "cache-base");
    let t0 = Instant::now();
    let clean =
        run_spec(&spec, &defaults(Some(&base_cache), None), &Arc::new(ArtifactCache::new()));
    row.wall_clean = t0.elapsed().as_secs_f64();

    let chaos_cache = fresh_dir(root, "cache-chaos");
    let plan = Arc::new(
        ChaosPlan::new(SEED)
            .cache_flip_on("chaos-cache/j0", 1)
            .cache_truncate_on("chaos-cache/j1", 1)
            .cache_enospc_on("chaos-cache/j2", 1),
    );
    let t1 = Instant::now();
    let chaos = {
        let _guard = plan.activate();
        run_spec(&spec, &defaults(Some(&chaos_cache), None), &Arc::new(ArtifactCache::new()))
    };
    // Recovery run: same (corrupted) cache dir, no chaos. Corrupt
    // entries are discarded and recomputed; the clean one hits.
    let recovered =
        run_spec(&spec, &defaults(Some(&chaos_cache), None), &Arc::new(ArtifactCache::new()));
    row.wall_chaos = t1.elapsed().as_secs_f64();

    assert_identical(row.name, &clean, &chaos);
    assert_identical("cache-corruption (recovery)", &clean, &recovered);
    assert!(plan.exhausted(), "all three cache faults must fire");
    let discarded = summary_u64(&recovered, "cache_corrupt_discarded");
    assert!(discarded >= 2, "flip + truncate must be caught by the checksum: {discarded}");
    let jobs = recovered.jobs.len() as u64;
    assert_eq!(
        summary_u64(&recovered, "cached"),
        jobs - 3,
        "exactly the three sabotaged entries re-execute"
    );
    row.injections = plan.counts();
    row.detail.push(("corrupt_discarded", Json::Num(discarded as f64)));
    row
}

/// Journal appends tear, duplicate, go stale, and hit ENOSPC; the
/// resume replays what survived and recomputes the rest — identically.
fn journal_faults(root: &Path, s: &Scale) -> Row {
    let mut row = Row::new("journal-faults");
    let spec = mesh_spec("chaos-journal", s.mesh_jobs.max(4), s.mesh_cycles, 0, None, true);

    let base_j = fresh_dir(root, "journal-base");
    let t0 = Instant::now();
    let clean = run_spec(&spec, &defaults(None, Some(&base_j)), &Arc::new(ArtifactCache::new()));
    row.wall_clean = t0.elapsed().as_secs_f64();

    let chaos_j = fresh_dir(root, "journal-chaos");
    let plan = Arc::new(
        ChaosPlan::new(SEED)
            .journal_torn_on("chaos-journal/j0", 1)
            .journal_dup_on("chaos-journal/j1", 1)
            .journal_stale_on("chaos-journal/j2", 1)
            .journal_enospc_on("chaos-journal/j3", 1),
    );
    let t1 = Instant::now();
    let chaos = {
        let _guard = plan.activate();
        run_spec(&spec, &defaults(None, Some(&chaos_j)), &Arc::new(ArtifactCache::new()))
    };
    // Resume from the battered journal, chaos-free.
    let resumed = run_spec(&spec, &defaults(None, Some(&chaos_j)), &Arc::new(ArtifactCache::new()));
    row.wall_chaos = t1.elapsed().as_secs_f64();

    assert_identical(row.name, &clean, &chaos);
    assert_identical("journal-faults (resume)", &clean, &resumed);
    assert!(plan.exhausted(), "all four journal faults must fire");
    let replayed = resumed.replayed_count();
    let jobs = resumed.jobs.len();
    // The torn and ENOSPC'd records (and any record welded onto the torn
    // tail) are gone; the duplicated and stale-shadowed ones replay.
    assert!(
        replayed >= 1 && replayed < jobs,
        "resume must replay the surviving records and recompute the lost ones \
         ({replayed}/{jobs} replayed)"
    );
    assert_eq!(resumed.failed_count(), 0);
    row.injections = plan.counts();
    row.replayed = replayed;
    row
}

/// The divergence sentinel trips on a batch job: descend the
/// engine ladder, quarantine a reproducer, produce identical metrics.
fn engine_ladder(root: &Path, s: &Scale) -> Row {
    let _ = root;
    let mut row = Row::new("engine-ladder");
    let d = defaults(None, None);
    let spec = batch_spec("chaos-ladder", s.batch_trials);

    let t0 = Instant::now();
    let clean = run_spec(&spec, &d, &Arc::new(ArtifactCache::new()));
    row.wall_clean = t0.elapsed().as_secs_f64();
    assert_eq!(clean.failed_count(), 0, "the batch job must pass clean");

    let plan = Arc::new(ChaosPlan::new(SEED).sentinel_trip_on("chaos-ladder/ladder0", 1));
    let t1 = Instant::now();
    let chaos = {
        let _guard = plan.activate();
        run_spec(&spec, &d, &Arc::new(ArtifactCache::new()))
    };
    row.wall_chaos = t1.elapsed().as_secs_f64();

    // Engine exactness: the degraded scalar rung recomputes the very
    // same deterministic metrics the batch rung produced.
    assert_identical(row.name, &clean, &chaos);
    assert!(plan.exhausted(), "the sentinel trip must fire");
    assert_eq!(chaos.fallback_count(), 1, "exactly one ladder descent");
    let by_engine = chaos.fallbacks_by_engine();
    assert_eq!(
        by_engine,
        vec![("specialized-batch".to_string(), 1)],
        "the descent leaves the batch rung"
    );
    let quarantined = chaos.quarantined();
    assert_eq!(quarantined.len(), 1, "one auto-written reproducer");
    let repro = std::fs::read_to_string(quarantined[0]).expect("reproducer exists on disk");
    assert!(repro.contains("fn main()"), "the reproducer must be a compilable program");
    row.injections = plan.counts();
    row.fallbacks = chaos.fallback_count();
    row.detail.push(("quarantine", Json::Str(quarantined[0].display().to_string())));
    row
}

/// The shared compile cache is cleared repeatedly mid-campaign —
/// artifact poisoning's recovery path is "just recompile".
fn artifact_poison(root: &Path, s: &Scale) -> Row {
    let _ = root;
    let mut row = Row::new("artifact-poison");
    let d = defaults(None, None);
    let spec = mesh_spec("chaos-artifact", s.mesh_jobs, s.mesh_cycles, 0, None, true);

    let t0 = Instant::now();
    let clean = run_spec(&spec, &d, &Arc::new(ArtifactCache::new()));
    row.wall_clean = t0.elapsed().as_secs_f64();

    let artifacts = Arc::new(ArtifactCache::new());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poisoner = {
        let artifacts = artifacts.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut clears = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                artifacts.clear();
                clears += 1;
                std::thread::sleep(Duration::from_millis(3));
            }
            clears
        })
    };
    let t1 = Instant::now();
    let chaos = run_spec(&spec, &d, &artifacts);
    row.wall_chaos = t1.elapsed().as_secs_f64();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let clears = poisoner.join().expect("poisoner thread");

    assert_identical(row.name, &clean, &chaos);
    assert!(clears >= 1, "the poisoner must have cleared at least once");
    assert_eq!(chaos.failed_count(), 0);
    row.detail.push(("cache_clears", Json::Num(clears as f64)));
    row
}

// ---------------------------------------------------------------------
// Serve scenarios
// ---------------------------------------------------------------------

/// Spins up an in-process server over a Unix socket in `dir`.
fn start_server(dir: &Path, workers: usize) -> (Server, PathBuf, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig {
        workers,
        cache_dir: Some(dir.join("cache")),
        journal_dir: Some(dir.join("journals")),
        orphan_grace: Duration::from_millis(250),
    };
    let socket = dir.join("serve.sock");
    let (server, handle) = Server::spawn_unix(cfg, &socket).expect("server binds its socket");
    (server, socket, handle)
}

fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done()
}

/// An injected socket reset mid-stream: the client errors out, the
/// campaign keeps journalling, and the resubmission replays the prefix
/// and finishes byte-identically to a never-disturbed run.
fn serve_reset(root: &Path, s: &Scale) -> Row {
    let mut row = Row::new("serve-reset");

    // Baseline: the same campaign on a pristine server, no chaos.
    let base_dir = fresh_dir(root, "serve-base");
    let (base_srv, base_sock, base_handle) = start_server(&base_dir, 2);
    let spec = mesh_spec("srv-reset", s.serve_jobs, s.mesh_cycles, 0, None, false);
    let mut client = Client::connect(&base_sock).expect("connect baseline");
    client.hello().expect("hello");
    let t0 = Instant::now();
    let clean = client.submit(&spec, |_| {}).expect("baseline campaign completes");
    row.wall_clean = t0.elapsed().as_secs_f64();
    base_srv.stop();
    base_handle.join().unwrap();

    // Chaos: reset the submit stream before its first event write.
    let dir = fresh_dir(root, "serve-reset");
    let (server, socket, handle) = start_server(&dir, 2);
    let plan = Arc::new(ChaosPlan::new(SEED).stream_reset_on("srv-reset", 1));
    let t1 = Instant::now();
    {
        let _guard = plan.activate();
        let mut client = Client::connect(&socket).expect("connect chaos");
        client.hello().expect("hello");
        let err = client.submit(&spec, |_| {}).expect_err("the injected reset must kill submit");
        println!("  serve-reset: client saw mid-stream disconnect ({err})");
    }
    assert!(plan.exhausted(), "the stream reset must fire");
    // The orphaned campaign drains (finishing or cancelled) without us.
    assert!(
        wait_until(Duration::from_secs(30), || server.scheduler().stats().1 == 0),
        "orphaned campaign must leave the scheduler"
    );
    // Resubmit, chaos-free: journalled prefix replays, the rest runs.
    let mut client = Client::connect(&socket).expect("reconnect");
    client.hello().expect("hello");
    let resumed = client.submit(&spec, |_| {}).expect("resubmission completes");
    row.wall_chaos = t1.elapsed().as_secs_f64();
    server.stop();
    handle.join().unwrap();

    assert_eq!(
        canonical_json(&clean).to_pretty(),
        canonical_json(&resumed).to_pretty(),
        "serve-reset: resumed campaign must be byte-identical to the undisturbed baseline"
    );
    println!("  serve-reset: byte-identical after resubmission");
    let count = |r: &Json, k: &str| {
        r.get("summary").and_then(|s| s.get(k)).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(count(&resumed, "failed"), 0);
    let replayed = count(&resumed, "replayed") + count(&resumed, "cached");
    assert!(replayed >= 1, "at least the pre-reset job must be reused");
    row.injections = plan.counts();
    row.replayed = replayed as usize;
    row
}

/// A raw client disconnect (no protocol goodbye) orphans the campaign:
/// after the grace window the queued jobs are cancelled, so the journal
/// holds strictly fewer records than the campaign has jobs.
fn serve_disconnect(root: &Path, s: &Scale) -> Row {
    let mut row = Row::new("serve-disconnect");
    let dir = fresh_dir(root, "serve-disc");
    let (server, socket, handle) = start_server(&dir, 1);

    // Slow jobs on one worker so plenty are still queued at disconnect.
    let mut spec = Json::obj();
    spec.set("name", "srv-slow").set("seed", SEED);
    let jobs = s.serve_jobs.max(6);
    let arr: Vec<Json> = (0..jobs)
        .map(|i| {
            let mut j = Json::obj();
            j.set("kind", "sleep_ms").set("name", format!("srv-slow/j{i}")).set("ms", 150u64);
            j
        })
        .collect();
    spec.set("jobs", arr);

    let t0 = Instant::now();
    {
        let mut stream = UnixStream::connect(&socket).expect("raw connect");
        let req = mtl_serve::protocol::submit_request(&spec).to_compact();
        stream.write_all(req.as_bytes()).expect("send submit");
        stream.write_all(b"\n").expect("send newline");
        stream.flush().expect("flush");
        // Read one event to prove the campaign is live, then vanish.
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("first event");
        assert!(line.contains("event"), "expected a job event, got: {line}");
        // Dropping both handles closes the socket with no goodbye.
    }
    assert!(
        wait_until(Duration::from_secs(20), || server.scheduler().stats().1 == 0),
        "orphaned campaign must be cancelled within the grace window"
    );
    row.wall_chaos = t0.elapsed().as_secs_f64();
    server.stop();
    handle.join().unwrap();

    let journal = dir.join("journals").join("srv-slow.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let records = text.lines().count().saturating_sub(1); // minus header
    assert!(
        records < jobs,
        "cancelled queue must leave the journal short: {records} records for {jobs} jobs"
    );
    assert!(records >= 1, "the in-flight job still checkpoints");
    println!("  serve-disconnect: {records}/{jobs} journalled, queue cancelled after grace");
    row.detail.push(("journalled", Json::Num(records as f64)));
    row.detail.push(("jobs", Json::Num(jobs as f64)));
    row
}

/// Shutdown during an in-flight submit: the client gets a clean
/// protocol error pointing at the journal, not a broken pipe.
fn serve_shutdown(root: &Path, s: &Scale) -> Row {
    let mut row = Row::new("serve-shutdown");
    let dir = fresh_dir(root, "serve-shut");
    let (server, socket, handle) = start_server(&dir, 1);

    let mut spec = Json::obj();
    spec.set("name", "srv-shut").set("seed", SEED);
    let arr: Vec<Json> = (0..s.serve_jobs.max(6))
        .map(|i| {
            let mut j = Json::obj();
            j.set("kind", "sleep_ms").set("name", format!("srv-shut/j{i}")).set("ms", 200u64);
            j
        })
        .collect();
    spec.set("jobs", arr);

    let t0 = Instant::now();
    let submitter = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            client.hello().expect("hello");
            client.submit(&spec, |_| {})
        })
    };
    // Let the campaign get going, then pull the plug server-side.
    std::thread::sleep(Duration::from_millis(300));
    server.stop();
    let result = submitter.join().expect("submitter thread");
    handle.join().unwrap();
    row.wall_chaos = t0.elapsed().as_secs_f64();

    let err = result.expect_err("shutdown mid-submit must surface as an error");
    assert!(
        err.contains("shutting down"),
        "the error must be the protocol goodbye, not a transport failure: {err}"
    );
    assert!(err.contains("resubmit"), "the goodbye must point at recovery: {err}");
    println!("  serve-shutdown: clean protocol error ({err})");
    row.detail.push(("error", Json::Str(err)));
    row
}

// ---------------------------------------------------------------------

fn main() {
    banner("Chaos campaign: infrastructure-fault injection", "DESIGN.md §14, BENCH_chaos");
    let smoke = Args::parse(&["--smoke"], &[]).flag("--smoke");
    let s = Scale::new(smoke);

    let root = std::env::temp_dir().join(format!("rustmtl_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch root");
    // Quarantined reproducers land in the scratch tree, not the repo.
    std::env::set_var("RUSTMTL_QUARANTINE_DIR", root.join("quarantine"));

    println!("\nmode: {} | scratch: {}\n", if smoke { "smoke" } else { "full" }, root.display());

    let rows = [
        worker_panic(&root, &s),
        worker_hang(&root, &s),
        cache_corruption(&root, &s),
        journal_faults(&root, &s),
        engine_ladder(&root, &s),
        artifact_poison(&root, &s),
        serve_reset(&root, &s),
        serve_disconnect(&root, &s),
        serve_shutdown(&root, &s),
    ];

    // Every fault class the acceptance matrix names must have fired.
    let mut by_kind: Vec<(String, u64)> = Vec::new();
    for row in &rows {
        for c in &row.injections {
            match by_kind.iter_mut().find(|(k, _)| k == c.kind) {
                Some((_, n)) => *n += u64::from(c.injected),
                None => by_kind.push((c.kind.to_string(), u64::from(c.injected))),
            }
        }
    }
    for required in [
        "panic",
        "hang",
        "cache-flip",
        "cache-truncate",
        "cache-enospc",
        "journal-torn",
        "journal-dup",
        "journal-stale",
        "journal-enospc",
        "sentinel-trip",
        "stream-reset",
    ] {
        let fired = by_kind.iter().find(|(k, _)| k == required).map(|(_, n)| *n).unwrap_or(0);
        assert!(fired >= 1, "fault class {required} never fired");
    }
    let total_fallbacks: usize = rows.iter().map(|r| r.fallbacks).sum();
    assert!(total_fallbacks >= 1, "at least one engine-ladder fallback must occur");

    println!("\n--- chaos summary ---");
    println!(
        "{:<18} {:>10} {:>10} {:>9} {:>9}",
        "scenario", "clean(s)", "chaos(s)", "inject", "fallback"
    );
    for row in &rows {
        let inj: u32 = row.injections.iter().map(|c| c.injected).sum();
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>9} {:>9}",
            row.name, row.wall_clean, row.wall_chaos, inj, row.fallbacks
        );
    }
    println!("\ninjections by class:");
    for (kind, n) in &by_kind {
        println!("  {kind}: {n}");
    }
    println!("\nchaos_sweep: all scenarios byte-identical to chaos-free baselines");
    println!("chaos_sweep: fallbacks={total_fallbacks} fault_classes={}", by_kind.len());

    let mut doc = Json::obj();
    doc.set("bench", "chaos")
        .set("smoke", smoke)
        .set("seed", format!("{SEED:016x}"))
        .set("scenarios", rows.iter().map(Row::to_json).collect::<Vec<Json>>());
    let mut inj = Json::obj();
    for (kind, n) in &by_kind {
        inj.set(kind.clone(), *n);
    }
    doc.set("injections_by_class", inj);
    doc.set("fallbacks", total_fallbacks as u64);
    write_bench_json(&doc, "chaos");

    let _ = std::fs::remove_dir_all(&root);
}
