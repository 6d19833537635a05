//! The campaign-spec registry: JSON campaign descriptions → executable
//! [`Campaign`]s.
//!
//! A client cannot ship closures over a socket, so submissions name
//! *job kinds* from a fixed catalog and the server instantiates the
//! closures — the same pattern as a build farm's rule registry. Each
//! sim-building kind derives a **compile key** from the parameters that
//! shape the elaborated design (level, size — never seeds, trial
//! counts, or the campaign name) and builds through the server's shared
//! [`ArtifactCache`], so concurrent campaigns hammering the same design
//! point compile its tapes once.
//!
//! Spec shape (see DESIGN.md §10 for the full schema):
//!
//! ```json
//! {"name": "A", "seed": 7, "retries": 1,
//!  "jobs": [
//!    {"kind": "mesh_cycles", "name": "mesh16/cl", "level": "CL",
//!     "nrouters": 16, "cycles": 200, "engine": "specialized-opt"},
//!    {"kind": "fault_chunk", "name": "mesh16/CL/chunk0", "dut": "mesh",
//!     "level": "CL", "nrouters": 16, "chunk": 0, "trials": 2,
//!     "cycles": 60, "faults": 1}
//!  ]}
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mtl_accel::{TileConfig, TileHarness, XcelLevel};
use mtl_fault::{run_diff_batch_shared, run_diff_shared, DiffConfig, FaultPlan, Outcome, PlanSpec};
use mtl_net::{MeshTrafficHarness, MeshTrafficRtlHarness, NetLevel};
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_sim::{ArtifactCache, Engine, Sim, SimConfig};
use mtl_soc::{run_soc_compute_on, run_soc_traffic_on, Soc, SocConfig, SocTraffic};
use mtl_sweep::{Campaign, Fnv1a, Job, JobMetrics, Json};

/// Server-side fallbacks applied to specs that don't pin their own
/// paths: campaigns cache into `cache_dir` and journal into
/// `journal_dir/<campaign>.jsonl`.
#[derive(Debug, Clone, Default)]
pub struct SpecDefaults {
    pub cache_dir: Option<PathBuf>,
    pub journal_dir: Option<PathBuf>,
}

fn str_field(spec: &Json, key: &str) -> Option<String> {
    spec.get(key).and_then(Json::as_str).map(str::to_string)
}

fn u64_field(spec: &Json, key: &str) -> Option<u64> {
    spec.get(key).and_then(Json::as_u64)
}

pub fn parse_engine(s: &str) -> Result<Engine, String> {
    s.parse()
}

pub fn parse_net_level(s: &str) -> Result<NetLevel, String> {
    match s.to_ascii_uppercase().as_str() {
        "FL" => Ok(NetLevel::Fl),
        "CL" => Ok(NetLevel::Cl),
        "RTL" => Ok(NetLevel::Rtl),
        other => Err(format!("unknown net level \"{other}\"")),
    }
}

pub fn parse_proc_level(s: &str) -> Result<ProcLevel, String> {
    match s.to_ascii_uppercase().as_str() {
        "FL" => Ok(ProcLevel::Fl),
        "CL" => Ok(ProcLevel::Cl),
        "RTL" => Ok(ProcLevel::Rtl),
        "RTL-PIPE" => Ok(ProcLevel::PipeRtl),
        other => Err(format!("unknown proc level \"{other}\"")),
    }
}

pub fn parse_cache_level(s: &str) -> Result<CacheLevel, String> {
    match s.to_ascii_uppercase().as_str() {
        "FL" => Ok(CacheLevel::Fl),
        "CL" => Ok(CacheLevel::Cl),
        "RTL" => Ok(CacheLevel::Rtl),
        other => Err(format!("unknown cache level \"{other}\"")),
    }
}

pub fn parse_xcel_level(s: &str) -> Result<XcelLevel, String> {
    match s.to_ascii_uppercase().as_str() {
        "FL" => Ok(XcelLevel::Fl),
        "CL" => Ok(XcelLevel::Cl),
        "RTL" => Ok(XcelLevel::Rtl),
        other => Err(format!("unknown xcel level \"{other}\"")),
    }
}

/// Builds a runnable [`Campaign`] from a submitted spec.
///
/// The returned campaign is *not yet prepared* — the scheduler calls
/// [`Campaign::prepare`] so journal replay and cache probes happen on
/// its thread, not the connection's.
///
/// # Errors
///
/// Returns a protocol-level message for any malformed or unknown field;
/// nothing is partially registered on error.
pub fn campaign_from_spec(
    spec: &Json,
    defaults: &SpecDefaults,
    artifacts: &Arc<ArtifactCache>,
) -> Result<Campaign, String> {
    let name = str_field(spec, "name").ok_or("campaign spec needs a string \"name\"")?;
    if name.is_empty() || name.contains(['/', '\n']) {
        return Err(format!("campaign name {name:?} must be a non-empty path-safe string"));
    }
    let mut campaign = Campaign::new(&name);
    if let Some(seed) = u64_field(spec, "seed") {
        campaign = campaign.seed(seed);
    }
    if let Some(retries) = u64_field(spec, "retries") {
        campaign = campaign.retry(retries as u32);
    }
    if let Some(ms) = u64_field(spec, "retry_backoff_ms") {
        campaign = campaign.retry_backoff(Duration::from_millis(ms));
    }
    if spec.get("no_cache").and_then(Json::as_bool).unwrap_or(false) {
        campaign = campaign.no_cache();
    } else if let Some(dir) = str_field(spec, "cache_dir")
        .or_else(|| defaults.cache_dir.as_ref().map(|d| d.to_string_lossy().into_owned()))
    {
        campaign = campaign.cache_dir(dir);
    }
    if let Some(path) = str_field(spec, "journal") {
        campaign = campaign.journal(path);
    } else if let Some(dir) = &defaults.journal_dir {
        campaign = campaign.journal(dir.join(format!("{name}.jsonl")));
    }
    let jobs =
        spec.get("jobs").and_then(Json::as_arr).ok_or("campaign spec needs a \"jobs\" array")?;
    if jobs.is_empty() {
        return Err("campaign spec has no jobs".to_string());
    }
    for (i, job_spec) in jobs.iter().enumerate() {
        let job = job_from_spec(job_spec, artifacts)
            .map_err(|e| format!("job {i} of campaign \"{name}\": {e}"))?;
        campaign = campaign.job(job);
    }
    campaign = campaign.engine_config(engine_config_of(jobs));
    Ok(campaign)
}

/// Derives the journal-identity engine string for a spec: the distinct
/// engines its jobs run under (explicit `engine` fields plus each
/// kind's default) and the sim-thread budget. Resuming the same
/// campaign under a different engine or thread count then invalidates
/// the journal instead of silently replaying results measured
/// elsewhere. Deliberately derived from the *spec*, not runtime state,
/// so identical submissions across daemon restarts produce identical
/// strings (the scheduler pins `MTL_SIM_THREADS` at startup).
fn engine_config_of(jobs: &[Json]) -> String {
    let mut engines: Vec<String> = Vec::new();
    for job_spec in jobs {
        let engine = str_field(job_spec, "engine").or_else(|| {
            match str_field(job_spec, "kind").unwrap_or_default().as_str() {
                // Kinds that build simulators default to specialized-opt
                // (see `engine_of`); the batch kind is pinned.
                "mesh_cycles" | "tile_cycles" | "mesh_rate" | "fault_chunk" | "soc_cycles" => {
                    Some("specialized-opt".to_string())
                }
                "fault_batch_chunk" => Some("specialized-batch".to_string()),
                _ => None,
            }
        });
        if let Some(engine) = engine {
            if !engines.contains(&engine) {
                engines.push(engine);
            }
        }
    }
    engines.sort();
    // Snapshot the thread budget once per process: `Campaign::run` pins
    // `MTL_SIM_THREADS` lazily mid-run (to a worker-derived value), so a
    // live read here would make the second spec parse of a process see a
    // different string than the first and spuriously invalidate the
    // journal. The daemon pins the variable in `Scheduler::new`, before
    // any parse, so its snapshot is the pinned value across restarts.
    static THREADS: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let threads = THREADS
        .get_or_init(|| std::env::var("MTL_SIM_THREADS").unwrap_or_else(|_| "auto".to_string()));
    format!("{} threads={threads}", engines.join("+"))
}

/// Instantiates one job from the kind catalog.
fn job_from_spec(spec: &Json, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let kind = str_field(spec, "kind").ok_or("job needs a string \"kind\"")?;
    let name = str_field(spec, "name").ok_or("job needs a string \"name\"")?;
    let mut job = match kind.as_str() {
        "sleep_ms" => sleep_job(&name, spec),
        "fail" => fail_job(&name),
        "mesh_cycles" => mesh_cycles_job(&name, spec, artifacts)?,
        "tile_cycles" => tile_cycles_job(&name, spec, artifacts)?,
        "mesh_rate" => mesh_rate_job(&name, spec, artifacts)?,
        "fault_chunk" => fault_chunk_job(&name, spec, artifacts)?,
        "fault_batch_chunk" => fault_batch_chunk_job(&name, spec, artifacts)?,
        "soc_cycles" => soc_cycles_job(&name, spec, artifacts)?,
        other => return Err(format!("unknown job kind \"{other}\"")),
    };
    if let Some(ms) = u64_field(spec, "watchdog_ms") {
        job = job.watchdog(Duration::from_millis(ms));
    }
    if let Some(ms) = u64_field(spec, "budget_ms") {
        job = job.budget(Duration::from_millis(ms));
    }
    if spec.get("uncacheable").and_then(Json::as_bool).unwrap_or(false) {
        job = job.uncacheable();
    }
    Ok(job)
}

/// Test/bench aid: sleeps, then reports how long it was asked to sleep.
fn sleep_job(name: &str, spec: &Json) -> Job {
    let ms = u64_field(spec, "ms").unwrap_or(10);
    Job::new(name, move |_ctx| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(JobMetrics::new().det("slept_ms", ms))
    })
    .param("kind", "sleep_ms")
    .param("ms", ms)
}

/// Test aid: fails deterministically (exercises partial-resume paths —
/// failures are never journalled, so they re-run after a restart).
fn fail_job(name: &str) -> Job {
    Job::new(name, |_ctx| Err("injected failure (kind=fail)".to_string())).param("kind", "fail")
}

fn engine_of(spec: &Json) -> Result<Engine, String> {
    match str_field(spec, "engine") {
        Some(s) => parse_engine(&s),
        None => Ok(Engine::SpecializedOpt),
    }
}

/// The compile key for a design point: FNV over the parameters that
/// shape the elaborated design. Seeds, cycle counts, and campaign names
/// deliberately excluded — they don't change the compiled tapes, and
/// including them would defeat cross-campaign sharing.
fn compile_key(parts: &[&str]) -> u64 {
    let mut h = Fnv1a::new();
    for p in parts {
        h.write_str(p);
    }
    h.finish()
}

struct MeshParams {
    level: NetLevel,
    nrouters: usize,
    injection: u32,
    key: u64,
}

fn mesh_params(spec: &Json) -> Result<MeshParams, String> {
    let level = parse_net_level(&str_field(spec, "level").ok_or("mesh job needs \"level\"")?)?;
    let nrouters = u64_field(spec, "nrouters").unwrap_or(16) as usize;
    let root = (nrouters as f64).sqrt() as usize;
    if root * root != nrouters || nrouters == 0 {
        return Err(format!("\"nrouters\" must be a positive perfect square, got {nrouters}"));
    }
    let injection = u64_field(spec, "injection").unwrap_or(200) as u32;
    let key =
        compile_key(&["mesh", &level.to_string(), &nrouters.to_string(), &injection.to_string()]);
    Ok(MeshParams { level, nrouters, injection, key })
}

/// Deterministic mesh run: `cycles` cycles of seeded traffic, reporting
/// the delivery statistics. Cacheable and journalable (the same seed
/// reproduces the same traffic on every engine).
fn mesh_cycles_job(name: &str, spec: &Json, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let p = mesh_params(spec)?;
    let cycles = u64_field(spec, "cycles").unwrap_or(200);
    let engine = engine_of(spec)?;
    let artifacts = artifacts.clone();
    let (level, nrouters, injection, key) = (p.level, p.nrouters, p.injection, p.key);
    Ok(Job::new(name, move |ctx| {
        let harness = MeshTrafficHarness::new(level, nrouters, injection, ctx.seed);
        let stats = harness.stats();
        let mut sim = Sim::build_shared(&harness, engine, &SimConfig::default(), &artifacts, key)
            .map_err(|e| format!("elaboration failed: {e:?}"))?;
        sim.reset();
        sim.run(cycles);
        let s = stats.lock().map_err(|_| "stats poisoned".to_string())?;
        Ok(JobMetrics::new()
            .det("cycles", cycles)
            .det("injected", s.injected)
            .det("received", s.received)
            .det("total_latency", s.total_latency)
            .det("max_latency", s.max_latency)
            .det("misrouted", s.misrouted))
    })
    .param("kind", "mesh_cycles")
    .param("level", p.level)
    .param("nrouters", p.nrouters)
    .param("injection", p.injection)
    .param("cycles", cycles)
    .param("engine", engine))
}

struct MeshIrParams {
    nrouters: usize,
    injection: u32,
    key: u64,
}

/// Parameters for the fully-IR mesh ([`MeshTrafficRtlHarness`]): RTL
/// routers with LFSR traffic generators in hardware, no native blocks —
/// the only DUT shape the bit-sliced batch engine accepts. The RTL
/// router grid needs a power-of-two side, so `nrouters` must be a power
/// of four.
fn mesh_ir_params(spec: &Json) -> Result<MeshIrParams, String> {
    let nrouters = u64_field(spec, "nrouters").unwrap_or(16) as usize;
    if nrouters == 0 || !nrouters.is_power_of_two() || !nrouters.trailing_zeros().is_multiple_of(2)
    {
        return Err(format!("\"nrouters\" must be a power of four, got {nrouters}"));
    }
    let injection = u64_field(spec, "injection").unwrap_or(200) as u32;
    let key = compile_key(&["mesh-ir", &nrouters.to_string(), &injection.to_string()]);
    Ok(MeshIrParams { nrouters, injection, key })
}

struct TileParams {
    config: TileConfig,
    key: u64,
}

fn tile_params(spec: &Json) -> Result<TileParams, String> {
    let proc = parse_proc_level(&str_field(spec, "proc").ok_or("tile job needs \"proc\"")?)?;
    let cache = parse_cache_level(&str_field(spec, "cache").ok_or("tile job needs \"cache\"")?)?;
    let xcel = parse_xcel_level(&str_field(spec, "xcel").ok_or("tile job needs \"xcel\"")?)?;
    let config = TileConfig { proc, cache, xcel };
    let key = compile_key(&["tile", &proc.to_string(), &cache.to_string(), &xcel.to_string()]);
    Ok(TileParams { config, key })
}

/// Deterministic tile run: executes until the processor halts (or
/// `max_cycles`), reporting cycles and retired instructions.
fn tile_cycles_job(name: &str, spec: &Json, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let p = tile_params(spec)?;
    let max_cycles = u64_field(spec, "max_cycles").unwrap_or(20_000);
    let engine = engine_of(spec)?;
    let artifacts = artifacts.clone();
    let (config, key) = (p.config, p.key);
    Ok(Job::new(name, move |_ctx| {
        let harness = TileHarness::new(config, 1 << 10, vec![3, 1, 4, 1, 5, 9]);
        let mut sim = Sim::build_shared(&harness, engine, &SimConfig::default(), &artifacts, key)
            .map_err(|e| format!("elaboration failed: {e:?}"))?;
        sim.reset();
        let mut cycles = 0u64;
        while cycles < max_cycles && sim.peek_port("halted").as_u128() == 0 {
            sim.cycle();
            cycles += 1;
        }
        Ok(JobMetrics::new()
            .det("cycles", cycles)
            .det("halted", sim.peek_port("halted").as_u128() as u64)
            .det("instret", sim.peek_port("instret").as_u128() as u64))
    })
    .param("kind", "tile_cycles")
    .param("proc", config.proc)
    .param("cache", config.cache)
    .param("xcel", config.xcel)
    .param("max_cycles", max_cycles)
    .param("engine", engine))
}

/// Timing measurement: simulate for at least `min_wall_ms`, report
/// cycles/second. Uncacheable by construction — wall-clock rates are
/// machine- and load-dependent, so they are timing metrics (excluded
/// from the canonical report) and never reused.
fn mesh_rate_job(name: &str, spec: &Json, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let p = mesh_params(spec)?;
    let min_wall = Duration::from_millis(u64_field(spec, "min_wall_ms").unwrap_or(200));
    let max_cycles = u64_field(spec, "max_cycles").unwrap_or(1_000_000);
    let engine = engine_of(spec)?;
    let artifacts = artifacts.clone();
    let (level, nrouters, injection, key) = (p.level, p.nrouters, p.injection, p.key);
    Ok(Job::new(name, move |ctx| {
        let harness = MeshTrafficHarness::new(level, nrouters, injection, ctx.seed);
        let mut sim = Sim::build_shared(&harness, engine, &SimConfig::default(), &artifacts, key)
            .map_err(|e| format!("elaboration failed: {e:?}"))?;
        sim.reset();
        let t0 = std::time::Instant::now();
        let mut cycles = 0u64;
        let batch = 256u64;
        while t0.elapsed() < min_wall && cycles < max_cycles {
            sim.run(batch);
            cycles += batch;
        }
        let rate = cycles as f64 / t0.elapsed().as_secs_f64();
        Ok(JobMetrics::new()
            .timing("cycles_per_sec", rate)
            .timing("measured_cycles", cycles as f64)
            .timing("overhead_total_secs", sim.overheads().total().as_secs_f64()))
    })
    .uncacheable()
    .param("kind", "mesh_rate")
    .param("level", p.level)
    .param("nrouters", p.nrouters)
    .param("injection", p.injection)
    .param("engine", engine))
}

/// One fault-injection chunk, mirroring `fault_sweep`'s job body and
/// metric keys exactly (so `fault_sweep --serve` prints the same table
/// from server-side results) — but built through [`run_diff_shared`],
/// so every trial of every campaign reuses one compile of the design.
fn fault_chunk_job(name: &str, spec: &Json, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let dut = str_field(spec, "dut").ok_or("fault_chunk needs \"dut\" (mesh|mesh-ir|tile)")?;
    enum Dut {
        Mesh(NetLevel, usize, u32),
        MeshIr(usize, u32),
        Tile(TileConfig),
    }
    let (dut, key) = match dut.as_str() {
        "mesh" => {
            let p = mesh_params(spec)?;
            (Dut::Mesh(p.level, p.nrouters, p.injection), p.key)
        }
        "mesh-ir" => {
            let p = mesh_ir_params(spec)?;
            (Dut::MeshIr(p.nrouters, p.injection), p.key)
        }
        "tile" => {
            let p = tile_params(spec)?;
            (Dut::Tile(p.config), p.key)
        }
        other => return Err(format!("unknown dut \"{other}\" (expected mesh|mesh-ir|tile)")),
    };
    let chunk = u64_field(spec, "chunk").unwrap_or(0) as u32;
    let trials = u64_field(spec, "trials").unwrap_or(2);
    let cycles = u64_field(spec, "cycles").unwrap_or(60);
    let faults = u64_field(spec, "faults").unwrap_or(1) as usize;
    let engine = engine_of(spec)?;
    let artifacts = artifacts.clone();
    let dut_label = match &dut {
        Dut::Mesh(level, n, _) => format!("mesh{n}/{level}"),
        Dut::MeshIr(n, _) => format!("mesh{n}/rtl-ir"),
        Dut::Tile(c) => format!("tile/{}", c.proc),
    };
    let job = Job::new(name, move |ctx| {
        let top: Box<dyn mtl_core::Component> = match &dut {
            Dut::Mesh(level, n, inj) => Box::new(MeshTrafficHarness::new(*level, *n, *inj, 0xBEEF)),
            Dut::MeshIr(n, inj) => Box::new(MeshTrafficRtlHarness::new(*n, *inj, 0xBEEF)),
            Dut::Tile(config) => {
                Box::new(TileHarness::new(*config, 1 << 10, vec![3, 1, 4, 1, 5, 9]))
            }
        };
        // One probe elaboration yields the design plans are drawn
        // against; sharing the cache makes it nearly free after the
        // first trial of the first campaign.
        let probe = Sim::build_shared(
            top.as_ref(),
            Engine::Interpreted,
            &SimConfig::default(),
            &artifacts,
            key,
        )
        .map_err(|e| format!("elaboration failed: {e:?}"))?;
        let window = PlanSpec::new(faults, 2, 1 + cycles.max(1));
        let cfg = DiffConfig::new(engine, cycles);
        let (mut masked, mut silent, mut detected, mut diverged) = (0u64, 0u64, 0u64, 0u64);
        let (mut sum_first_div, mut sum_blast, mut injected_bits) = (0u64, 0u64, 0u64);
        for trial in 0..trials {
            let seed = mix(ctx.seed, (u64::from(chunk) << 32) | trial);
            let plan = FaultPlan::random(seed, probe.design(), &window);
            let report = run_diff_shared(top.as_ref(), &plan, &cfg, &artifacts, key)?;
            match report.outcome {
                Outcome::Masked => masked += 1,
                Outcome::Silent => silent += 1,
                Outcome::Detected => detected += 1,
            }
            if let Some(c) = report.first_divergence {
                diverged += 1;
                sum_first_div += c;
                sum_blast += report.blast_radius.len() as u64;
            }
            injected_bits += report.injected_bits;
        }
        Ok(JobMetrics::new()
            .det("trials", trials)
            .det("masked", masked)
            .det("silent", silent)
            .det("detected", detected)
            .det("diverged", diverged)
            .det("sum_first_divergence", sum_first_div)
            .det("sum_blast_radius", sum_blast)
            .det("injected_bits", injected_bits))
    })
    .param("kind", "fault_chunk")
    .param("dut", dut_label)
    .param("chunk", chunk)
    .param("engine", engine)
    .param("cycles", cycles)
    .param("faults_per_trial", faults);
    Ok(job)
}

/// One bit-sliced fault bundle, mirroring `fault_sweep`'s batch job and
/// metric keys exactly: up to 63 plans share a single
/// `Engine::SpecializedBatch` pass (lane 0 golden, one plan per faulty
/// lane) through [`run_diff_batch_shared`], then the leading
/// `scalar_sample` plans are re-run through scalar [`run_diff_shared`]
/// — both as the throughput baseline and as the **online divergence
/// sentinel**: a field mismatch is reported with the
/// [`DEGRADE_PREFIX`](mtl_sweep::DEGRADE_PREFIX) marker, so the
/// executor retries one rung down the engine ladder
/// (`specialized-batch → specialized-opt → interpreted`) instead of
/// losing the job, quarantining a reproducer on the way. Scalar rungs
/// compute the identical deterministic metrics trial by trial (the
/// engine-exactness invariant), so a degraded campaign's canonical
/// report is byte-identical to a healthy one. Only the fully-IR mesh
/// DUT qualifies; native blocks cannot be bit-sliced. Uncacheable: the
/// speedup metrics are wall-clock rates.
fn fault_batch_chunk_job(
    name: &str,
    spec: &Json,
    artifacts: &Arc<ArtifactCache>,
) -> Result<Job, String> {
    let p = mesh_ir_params(spec)?;
    let chunk = u64_field(spec, "chunk").unwrap_or(0) as u32;
    let trials = u64_field(spec, "trials").unwrap_or(15);
    if trials == 0 || trials > 63 {
        return Err(format!(
            "\"trials\" must be 1..=63 (one lane per plan + golden), got {trials}"
        ));
    }
    let sample = u64_field(spec, "scalar_sample").unwrap_or(2).min(trials);
    let cycles = u64_field(spec, "cycles").unwrap_or(60);
    let faults = u64_field(spec, "faults").unwrap_or(1) as usize;
    let artifacts = artifacts.clone();
    let (nrouters, injection, key) = (p.nrouters, p.injection, p.key);
    let job = Job::new(name, move |ctx| {
        let top = MeshTrafficRtlHarness::new(nrouters, injection, 0xBEEF);
        let probe =
            Sim::build_shared(&top, Engine::Interpreted, &SimConfig::default(), &artifacts, key)
                .map_err(|e| format!("elaboration failed: {e:?}"))?;
        let window = PlanSpec::new(faults, 2, 1 + cycles.max(1));
        let plans: Vec<FaultPlan> = (0..trials)
            .map(|t| {
                let seed = mix(ctx.seed, (u64::from(chunk) << 32) | t);
                FaultPlan::random(seed, probe.design(), &window)
            })
            .collect();
        drop(probe);
        // Ladder rung: `None`/rung 0 is the preferred batch engine;
        // lower rungs re-run every plan through the named scalar engine.
        let scalar_rung = match ctx.engine() {
            None | Some("specialized-batch") => None,
            Some(other) => Some(parse_engine(other)?),
        };
        let (mut masked, mut silent, mut detected, mut diverged) = (0u64, 0u64, 0u64, 0u64);
        let (mut sum_first_div, mut sum_blast, mut injected_bits) = (0u64, 0u64, 0u64);
        let mut tally = |report: &mtl_fault::FaultReport| {
            match report.outcome {
                Outcome::Masked => masked += 1,
                Outcome::Silent => silent += 1,
                Outcome::Detected => detected += 1,
            }
            if let Some(c) = report.first_divergence {
                diverged += 1;
                sum_first_div += c;
                sum_blast += report.blast_radius.len() as u64;
            }
            injected_bits += report.injected_bits;
        };
        let (batch_rate, scalar_rate) = if let Some(engine) = scalar_rung {
            // Degraded rung: scalar differential runs, plan by plan.
            // Outcomes are engine-exact, so the deterministic metrics
            // below match the batch rung's bit for bit.
            let cfg = DiffConfig::new(engine, cycles);
            let t0 = std::time::Instant::now();
            for plan in &plans {
                let report = run_diff_shared(&top, plan, &cfg, &artifacts, key)?;
                tally(&report);
            }
            let rate = trials as f64 / t0.elapsed().as_secs_f64().max(1e-9);
            (rate, rate)
        } else {
            let t0 = std::time::Instant::now();
            let reports = run_diff_batch_shared(&top, &plans, cycles, &artifacts, key)?;
            let batch_secs = t0.elapsed().as_secs_f64().max(1e-9);
            let cfg = DiffConfig::new(Engine::SpecializedOpt, cycles);
            let t1 = std::time::Instant::now();
            for (i, plan) in plans.iter().enumerate() {
                if (i as u64) < sample {
                    let scalar = run_diff_shared(&top, plan, &cfg, &artifacts, key)?;
                    let mut lane = reports[i].clone();
                    // Campaign-mode batch reports carry no trace fingerprint.
                    lane.trace_fingerprint = scalar.trace_fingerprint;
                    if lane != scalar {
                        // The divergence sentinel: a batch-engine bug,
                        // not a bad configuration. The DEGRADE_PREFIX
                        // makes the executor descend the ladder.
                        return Err(format!(
                            "{}batch lane disagrees with scalar run on trial {i}: \
                             batch {lane:?} vs scalar {scalar:?}",
                            mtl_sweep::DEGRADE_PREFIX
                        ));
                    }
                }
                tally(&reports[i]);
            }
            let scalar_secs = t1.elapsed().as_secs_f64().max(1e-9);
            (trials as f64 / batch_secs, sample as f64 / scalar_secs)
        };
        Ok(JobMetrics::new()
            .det("trials", trials)
            .det("masked", masked)
            .det("silent", silent)
            .det("detected", detected)
            .det("diverged", diverged)
            .det("sum_first_divergence", sum_first_div)
            .det("sum_blast_radius", sum_blast)
            .det("injected_bits", injected_bits)
            .det("scalar_sample", sample)
            .timing("batch_trials_per_sec", batch_rate)
            .timing("scalar_trials_per_sec", scalar_rate)
            .timing("batch_speedup", batch_rate / scalar_rate))
    })
    .uncacheable()
    .ladder(["specialized-batch", "specialized-opt", "interpreted"])
    .repro(move |ctx, error| {
        batch_chunk_repro(nrouters, injection, chunk, trials, sample, cycles, faults, ctx, error)
    })
    .param("kind", "fault_batch_chunk")
    .param("dut", format!("mesh{nrouters}/rtl-ir"))
    .param("chunk", chunk)
    .param("engine", Engine::SpecializedBatch)
    .param("cycles", cycles)
    .param("faults_per_trial", faults);
    Ok(job)
}

/// Generates the quarantine reproducer for a degraded
/// `fault_batch_chunk` job: a standalone program that rebuilds the same
/// DUT, derives the same seeded fault plans, and re-runs the
/// batch-vs-scalar comparison that failed — everything an engine
/// maintainer needs to chase the divergence.
#[allow(clippy::too_many_arguments)]
fn batch_chunk_repro(
    nrouters: usize,
    injection: u32,
    chunk: u32,
    trials: u64,
    sample: u64,
    cycles: u64,
    faults: usize,
    ctx: &mtl_sweep::JobCtx,
    error: &str,
) -> String {
    let mut src = String::new();
    src.push_str("//! Auto-written quarantine reproducer (fault_batch_chunk ladder descent).\n");
    src.push_str(&format!(
        "//! failing engine rung {}: {}\n",
        ctx.rung(),
        ctx.engine().unwrap_or("specialized-batch")
    ));
    for line in error.lines().take(4) {
        src.push_str(&format!("//! error: {line}\n"));
    }
    src.push_str("//! Build inside the rustmtl workspace (std-only, no extra deps).\n\n");
    src.push_str("use mtl_fault::{run_diff_batch, run_diff, DiffConfig, FaultPlan, PlanSpec};\n");
    src.push_str("use mtl_net::MeshTrafficRtlHarness;\n");
    src.push_str("use mtl_sim::{Engine, Sim, SimConfig};\n\n");
    src.push_str("fn mix(a: u64, b: u64) -> u64 {\n");
    src.push_str("    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);\n");
    src.push_str("    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);\n");
    src.push_str("    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);\n");
    src.push_str("    z ^ (z >> 31)\n}\n\n");
    src.push_str("fn main() {\n");
    src.push_str(&format!(
        "    let (seed, chunk, trials, sample) = ({:#018x}u64, {chunk}u64, {trials}u64, {sample}u64);\n",
        ctx.seed
    ));
    src.push_str(&format!(
        "    let top = MeshTrafficRtlHarness::new({nrouters}, {injection}, 0xBEEF);\n"
    ));
    src.push_str(
        "    let probe = Sim::build(&top, Engine::Interpreted, &SimConfig::default()).unwrap();\n",
    );
    src.push_str(&format!(
        "    let window = PlanSpec::new({faults}, 2, 1 + {cycles}u64.max(1));\n"
    ));
    src.push_str("    let plans: Vec<FaultPlan> = (0..trials)\n");
    src.push_str("        .map(|t| FaultPlan::random(mix(seed, (chunk << 32) | t), probe.design(), &window))\n");
    src.push_str("        .collect();\n");
    src.push_str("    drop(probe);\n");
    src.push_str(&format!(
        "    let reports = run_diff_batch(&top, &plans, {cycles}).expect(\"batch run\");\n"
    ));
    src.push_str(&format!("    let cfg = DiffConfig::new(Engine::SpecializedOpt, {cycles});\n"));
    src.push_str("    for (i, plan) in plans.iter().enumerate().take(sample as usize) {\n");
    src.push_str("        let scalar = run_diff(&top, plan, &cfg).expect(\"scalar run\");\n");
    src.push_str("        let mut lane = reports[i].clone();\n");
    src.push_str("        lane.trace_fingerprint = scalar.trace_fingerprint;\n");
    src.push_str("        assert_eq!(lane, scalar, \"batch lane {i} diverges from scalar\");\n");
    src.push_str("    }\n");
    src.push_str("    println!(\"no divergence reproduced over {} plans\", sample);\n");
    src.push_str("}\n");
    src
}

/// Multi-tile SoC run, mirroring `soc_sweep`'s job bodies and metric
/// keys exactly (so `soc_sweep --serve` prints the same table from
/// server-side results). Both personalities are self-checking against
/// the host golden model, so the job is deterministic and cacheable;
/// the compile key covers every design-shaping parameter — the seed
/// included, since LFSR seeds and preloaded programs are baked into the
/// elaborated design.
fn soc_cycles_job(name: &str, spec: &Json, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let workload = str_field(spec, "workload").unwrap_or_else(|| "synthetic".to_string());
    let tiles = u64_field(spec, "tiles").unwrap_or(4) as usize;
    if tiles < 4 || !tiles.is_power_of_two() || !tiles.trailing_zeros().is_multiple_of(2) {
        return Err(format!("\"tiles\" must be a power of four >= 4, got {tiles}"));
    }
    let net = parse_net_level(&str_field(spec, "net").ok_or("soc_cycles needs \"net\"")?)?;
    let pattern_s = str_field(spec, "pattern").unwrap_or_else(|| "uniform".to_string());
    let pattern = SocTraffic::parse(&pattern_s)
        .ok_or_else(|| format!("unknown traffic pattern \"{pattern_s}\""))?;
    let seed = u64_field(spec, "seed").unwrap_or(0xC0DE);
    let cycles = u64_field(spec, "cycles").unwrap_or(30_000);
    let engine = engine_of(spec)?;
    let artifacts = artifacts.clone();
    let job = match workload.as_str() {
        "synthetic" => {
            let injection = u64_field(spec, "injection").unwrap_or(300) as u32;
            let limit = u64_field(spec, "limit").unwrap_or(64) as u32;
            if injection == 0 || injection > 1000 {
                return Err(format!("\"injection\" must be 1..=1000 permille, got {injection}"));
            }
            let key = compile_key(&[
                "soc",
                "synthetic",
                &tiles.to_string(),
                &net.to_string(),
                &pattern_s,
                &injection.to_string(),
                &limit.to_string(),
                &seed.to_string(),
            ]);
            Job::new(name, move |_ctx| {
                let soc = Soc::new(
                    SocConfig::synthetic(tiles, net, pattern)
                        .with_injection(injection)
                        .with_limit(limit)
                        .with_seed(seed),
                );
                let sim = Sim::build_shared(&soc, engine, &SimConfig::default(), &artifacts, key)
                    .map_err(|e| format!("elaboration failed: {e:?}"))?;
                let out = run_soc_traffic_on(&soc, sim, cycles);
                let golden = u64::from(soc.golden_checksum().expect("synthetic workload"));
                if out.drained && u64::from(out.checksum) != golden {
                    return Err(format!(
                        "checksum {:#x} disagrees with host golden {golden:#x}",
                        out.checksum
                    ));
                }
                Ok(JobMetrics::new()
                    .det("cycles", out.cycles)
                    .det("drained", u64::from(out.drained))
                    .det("checksum", u64::from(out.checksum))
                    .det("injected", out.injected)
                    .det("delivered", out.delivered))
            })
            .param("injection", injection)
            .param("limit", limit)
        }
        "compute" => {
            let proc = parse_proc_level(&str_field(spec, "proc").unwrap_or_else(|| "RTL".into()))?;
            let cache =
                parse_cache_level(&str_field(spec, "cache").unwrap_or_else(|| "RTL".into()))?;
            let xcel = parse_xcel_level(&str_field(spec, "xcel").unwrap_or_else(|| "RTL".into()))?;
            let accesses = u64_field(spec, "accesses").unwrap_or(8) as usize;
            if accesses == 0 || accesses > 80 {
                return Err(format!("\"accesses\" must be 1..=80, got {accesses}"));
            }
            let config = TileConfig { proc, cache, xcel };
            let key = compile_key(&[
                "soc",
                "compute",
                &tiles.to_string(),
                &net.to_string(),
                &pattern_s,
                &proc.to_string(),
                &cache.to_string(),
                &xcel.to_string(),
                &accesses.to_string(),
                &seed.to_string(),
            ]);
            Job::new(name, move |_ctx| {
                let soc = Soc::new(
                    SocConfig::compute(tiles, config, net, pattern)
                        .with_accesses(accesses)
                        .with_seed(seed),
                );
                let sim = Sim::build_shared(&soc, engine, &SimConfig::default(), &artifacts, key)
                    .map_err(|e| format!("elaboration failed: {e:?}"))?;
                let out = run_soc_compute_on(&soc, sim, cycles);
                if out.halted && out.results != soc.expected_results() {
                    return Err(format!(
                        "results {:x?} disagree with host model {:x?}",
                        out.results,
                        soc.expected_results()
                    ));
                }
                let result_xor = out.results.iter().fold(0u32, |a, &r| a ^ r);
                Ok(JobMetrics::new()
                    .det("cycles", out.cycles)
                    .det("halted", u64::from(out.halted))
                    .det("instret", out.instret)
                    .det("result_xor", u64::from(result_xor)))
            })
            .param("proc", proc)
            .param("cache", cache)
            .param("xcel", xcel)
            .param("accesses", accesses)
        }
        other => return Err(format!("unknown workload \"{other}\" (expected synthetic|compute)")),
    };
    Ok(job
        .param("kind", "soc_cycles")
        .param("workload", workload)
        .param("tiles", tiles)
        .param("net", net)
        .param("pattern", pattern)
        .param("cycles", cycles)
        .param("engine", engine))
}

/// SplitMix64 finalizer — the same per-trial seed derivation as
/// `fault_sweep`, so serve-side fault chunks reproduce the standalone
/// campaign's plans bit for bit.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> Json {
        mtl_sweep::json::parse(text).unwrap()
    }

    #[test]
    fn specs_build_campaigns_and_bad_specs_are_rejected() {
        let artifacts = Arc::new(ArtifactCache::new());
        let defaults = SpecDefaults::default();
        let good = spec(
            r#"{"name":"a","seed":7,"no_cache":true,"jobs":[
                {"kind":"sleep_ms","name":"s1","ms":1},
                {"kind":"mesh_cycles","name":"m1","level":"FL","nrouters":4,"cycles":5},
                {"kind":"fault_chunk","name":"f1","dut":"mesh-ir","nrouters":4,
                 "trials":1,"cycles":5},
                {"kind":"fault_batch_chunk","name":"b1","nrouters":4,"trials":3,
                 "scalar_sample":1,"cycles":5},
                {"kind":"soc_cycles","name":"soc1","net":"RTL","pattern":"tornado",
                 "tiles":4,"limit":4,"cycles":100},
                {"kind":"soc_cycles","name":"soc2","workload":"compute","net":"CL",
                 "proc":"CL","cache":"CL","xcel":"CL","accesses":2,"cycles":100}
            ]}"#,
        );
        assert!(campaign_from_spec(&good, &defaults, &artifacts).is_ok());
        for bad in [
            r#"{"jobs":[]}"#,
            r#"{"name":"a","jobs":[]}"#,
            r#"{"name":"a"}"#,
            r#"{"name":"a/b","jobs":[{"kind":"sleep_ms","name":"s"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"warp","name":"s"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"XL"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"FL","nrouters":7}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":"ufo"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":"mesh-ir","nrouters":8}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_batch_chunk","name":"b","nrouters":4,"trials":64}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","tiles":8}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","pattern":"zipf"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","workload":"mine"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","injection":0}]}"#,
        ] {
            assert!(campaign_from_spec(&spec(bad), &defaults, &artifacts).is_err(), "{bad}");
        }
    }

    #[test]
    fn mesh_cycles_jobs_share_compiles_and_stay_deterministic() {
        let artifacts = Arc::new(ArtifactCache::new());
        let defaults = SpecDefaults::default();
        let make = |name: &str| {
            spec(&format!(
                r#"{{"name":"{name}","no_cache":true,"jobs":[
                    {{"kind":"mesh_cycles","name":"m","level":"CL","nrouters":4,
                      "cycles":40,"engine":"specialized-opt"}}
                ]}}"#
            ))
        };
        let a = campaign_from_spec(&make("a"), &defaults, &artifacts).unwrap().run();
        let b = campaign_from_spec(&make("a"), &defaults, &artifacts).unwrap().run();
        // Same campaign name → same job seed → identical traffic.
        assert_eq!(a.get("m").unwrap().u64("received"), b.get("m").unwrap().u64("received"));
        assert!(a.get("m").unwrap().u64("received").unwrap() > 0, "traffic must flow");
        let stats = artifacts.stats();
        assert_eq!(stats.tape_hits, 1, "second build reuses the first compile: {stats:?}");
    }
}
