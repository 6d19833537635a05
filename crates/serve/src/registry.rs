//! The campaign-spec registry: JSON campaign descriptions → executable
//! [`Campaign`]s.
//!
//! A campaign is described once, as a spec that names *job kinds* from
//! the catalog below, and the catalog instantiates the closures — the
//! same pattern as a build farm's rule registry. Where the spec runs is
//! a transport choice: a bench bin calls [`campaign_from_spec`] in its
//! own process, the daemon calls it on a submission (closures cannot
//! cross a socket, specs can). Each sim-building kind derives a
//! **compile key** from the parameters that shape the elaborated design
//! (level, size — never trial counts, cycle budgets, or the campaign
//! name) and builds through the caller's shared [`ArtifactCache`], so
//! jobs and concurrent campaigns hammering the same design point
//! compile its tapes once.
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

use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtl_accel::{
    mvmult_data, mvmult_reference, mvmult_scalar_program, mvmult_xcel_program, MvMultLayout,
    TileConfig, TileHarness, XcelLevel,
};
use mtl_core::Component;
use mtl_fault::{run_diffs, DiffConfig, FaultPlan, FaultReport, Outcome, PlanSpec};
use mtl_net::{MeshTrafficHarness, MeshTrafficRtlHarness, NetLevel, TrafficPattern};
use mtl_proc::{CacheLevel, Iss, ProcLevel};
use mtl_sim::{ArtifactCache, Engine, Sim, SimConfig, SimProfile, BATCH_LANES};
use mtl_soc::{run_soc_compute_on, run_soc_traffic_on, Soc, SocConfig, SocTraffic};
use mtl_sweep::{measure_batched, Campaign, Fnv1a, Job, JobCtx, JobMetrics, Json};

/// Fallbacks applied to specs that don't pin their own paths: campaigns
/// cache into `cache_dir` and journal into `journal_dir/<campaign>.jsonl`.
#[derive(Debug, Clone, Default)]
pub struct SpecDefaults {
    pub cache_dir: Option<PathBuf>,
    pub journal_dir: Option<PathBuf>,
}

/// One row of the kind catalog.
struct Kind {
    name: &'static str,
    /// The engine a job runs under when its spec names none; `None` for
    /// kinds that build no simulator.
    default_engine: Option<Engine>,
    /// Spec fields accepted beyond [`COMMON_FIELDS`], space-separated.
    fields: &'static str,
    build: fn(Fields, &Arc<ArtifactCache>) -> Result<Job, String>,
}

/// Fields every kind accepts ([`job_from_spec`] reads them).
const COMMON_FIELDS: [&str; 5] = ["kind", "name", "watchdog_ms", "budget_ms", "uncacheable"];

/// Largest `nrouters` / `tiles` a spec may ask for: one submission must
/// not make the daemon elaborate an unbounded design.
const MAX_NODES: usize = 1024;

/// Largest `faults` per plan a fault job may ask for: every armed fault
/// is checked on every cycle of its simulator.
const MAX_FAULTS: usize = 1024;

/// Largest `cycles`, `warmup` or `max_cycles` a job may ask for, so no
/// spec line runs a simulator without end and a fault job's plan window
/// `2..=1 + cycles` cannot overflow.
const MAX_CYCLES: u64 = u32::MAX as u64;

/// Deepest router buffer (`nentries`) a mesh job may ask for.
const MAX_NENTRIES: usize = 64;

const OPT: Option<Engine> = Some(Engine::SpecializedOpt);

/// The catalog: the only place a campaign job body is defined. Bench
/// bins and the daemon both instantiate jobs from here
/// (DESIGN.md §10 lists what each kind measures).
static KINDS: [Kind; 10] = [
    Kind { name: "sleep_ms", default_engine: None, fields: "ms", build: sleep_job },
    Kind { name: "fail", default_engine: None, fields: "", build: fail_job },
    Kind {
        name: "mesh_cycles",
        default_engine: OPT,
        fields: "level nrouters injection cycles engine warmup pattern nentries seed",
        build: mesh_cycles_job,
    },
    Kind {
        name: "tile_cycles",
        default_engine: OPT,
        fields: "proc cache xcel kernel rows cols nlines max_cycles profile engine",
        build: tile_cycles_job,
    },
    Kind {
        name: "iss_kernel",
        default_engine: None,
        fields: "kernel rows cols",
        build: iss_kernel_job,
    },
    Kind {
        name: "mesh_rate",
        default_engine: OPT,
        fields: "level nrouters injection min_wall_ms max_cycles engine tape_opt profile",
        build: engine_rate_job,
    },
    Kind {
        name: "handwritten_rate",
        default_engine: None,
        fields: "nrouters injection min_wall_ms max_cycles",
        build: handwritten_rate_job,
    },
    Kind {
        name: "fault_chunk",
        default_engine: OPT,
        fields: "dut level nrouters injection proc cache xcel chunk trials cycles faults engine",
        build: fault_chunk_job,
    },
    Kind {
        name: "fault_batch_chunk",
        default_engine: Some(Engine::SpecializedBatch),
        fields: "nrouters injection chunk trials scalar_sample cycles faults",
        build: fault_batch_chunk_job,
    },
    Kind {
        name: "soc_cycles",
        default_engine: OPT,
        fields:
            "workload tiles net pattern seed cycles injection limit proc cache xcel accesses engine",
        build: soc_cycles_job,
    },
];

fn kind_of(spec: &Json) -> Result<&'static Kind, String> {
    let kind = str_field(spec, "kind").ok_or("job needs a string \"kind\"")?;
    KINDS.iter().find(|k| k.name == kind).ok_or_else(|| {
        let catalog: Vec<&str> = KINDS.iter().map(|k| k.name).collect();
        format!("unknown job kind \"{kind}\" (catalog: {})", catalog.join(", "))
    })
}

fn str_field<'a>(spec: &'a Json, key: &str) -> Option<&'a str> {
    spec.get(key).and_then(Json::as_str)
}

/// A numeric field, if present, converted with range checking.
fn num_field<T: TryFrom<u64>>(spec: &Json, key: &str) -> Result<Option<T>, String> {
    let Some(value) = spec.get(key) else { return Ok(None) };
    let n = value.as_u64().and_then(|n| T::try_from(n).ok());
    n.map(Some).ok_or_else(|| {
        format!("\"{key}\" must be a non-negative integer in range, got {}", value.to_compact())
    })
}

/// One job spec, read through its kind's row of the catalog.
#[derive(Clone, Copy)]
struct Fields<'a> {
    spec: &'a Json,
    kind: &'static Kind,
    name: &'a str,
}

impl Fields<'_> {
    /// A job of this kind. `kind` leads its params, and with them its
    /// result fingerprint.
    fn job(
        &self,
        run: impl Fn(&JobCtx) -> Result<JobMetrics, String> + Send + Sync + 'static,
    ) -> Job {
        Job::new(self.name, run).param("kind", self.kind.name)
    }

    fn num<T: TryFrom<u64>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(num_field(self.spec, key)?.unwrap_or(default))
    }

    /// A named field (`level`, `pattern`, `engine`, …) parsed by its
    /// type's `FromStr`; `default` when absent.
    fn parsed<T: FromStr<Err = String>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.optional(key)?.unwrap_or(default))
    }

    /// A named field parsed by its type's `FromStr`, if present; a
    /// value that is not a string is an error.
    fn optional<T: FromStr<Err = String>>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(value) = self.spec.get(key) else { return Ok(None) };
        let s = value
            .as_str()
            .ok_or_else(|| format!("\"{key}\" must be a string, got {}", value.to_compact()))?;
        s.parse().map(Some)
    }

    /// A named field parsed by its type's `FromStr`; absent or not a
    /// string is an error.
    fn required<T: FromStr<Err = String>>(&self, key: &str) -> Result<T, String> {
        self.optional(key)?.ok_or_else(|| format!("{} needs \"{key}\"", self.kind.name))
    }

    /// A field naming one of `options`; the first when absent.
    fn choice(&self, key: &str, options: &[&'static str]) -> Result<&'static str, String> {
        let Some(value) = self.spec.get(key) else { return Ok(options[0]) };
        let found = options.iter().find(|&&o| value.as_str() == Some(o)).copied();
        found.ok_or_else(|| {
            format!("\"{key}\" must be {}, got {}", options.join("|"), value.to_compact())
        })
    }

    /// A `true`/`false` field, if present; any other value is an error.
    fn bool(&self, key: &str) -> Result<Option<bool>, String> {
        let Some(value) = self.spec.get(key) else { return Ok(None) };
        let b = value.as_bool().ok_or_else(|| {
            format!("\"{key}\" must be true or false, got {}", value.to_compact())
        })?;
        Ok(Some(b))
    }

    fn engine(&self) -> Result<Engine, String> {
        self.parsed("engine", self.kind.default_engine.expect("kind builds simulators"))
    }

    /// A numeric field that must lie in `range`: design sizes, rates and
    /// fault-job shapes, so no spec line makes a job elaborate, allocate
    /// or run without limit.
    fn bounded<T>(&self, key: &str, default: T, range: RangeInclusive<T>) -> Result<T, String>
    where
        T: TryFrom<u64> + PartialOrd + std::fmt::Display,
    {
        Ok(self.bounded_opt(key, range)?.unwrap_or(default))
    }

    /// [`Fields::bounded`] for a field with no default: `None` when
    /// absent.
    fn bounded_opt<T>(&self, key: &str, range: RangeInclusive<T>) -> Result<Option<T>, String>
    where
        T: TryFrom<u64> + PartialOrd + std::fmt::Display,
    {
        let Some(n) = num_field(self.spec, key)? else { return Ok(None) };
        if !range.contains(&n) {
            return Err(format!("\"{key}\" must be {}..={}, got {n}", range.start(), range.end()));
        }
        Ok(Some(n))
    }
}

/// Adds `key` to a job's params only when its spec gave the field, so a
/// spec that leaves an optional field out keeps the fingerprint it had
/// before the field existed.
fn param_if(job: Job, key: &str, value: Option<impl ToString>) -> Job {
    match value {
        Some(value) => job.param(key, value),
        None => job,
    }
}

/// Builds a runnable [`Campaign`] from a spec.
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
    let mut campaign = Campaign::new(name);
    if let Some(seed) = num_field(spec, "seed")? {
        campaign = campaign.seed(seed);
    }
    if let Some(retries) = num_field(spec, "retries")? {
        campaign = campaign.retry(retries);
    }
    if let Some(ms) = num_field(spec, "retry_backoff_ms")? {
        campaign = campaign.retry_backoff(Duration::from_millis(ms));
    }
    if spec.get("no_cache").and_then(Json::as_bool).unwrap_or(false) {
        campaign = campaign.no_cache();
    } else if let Some(dir) =
        str_field(spec, "cache_dir").map(PathBuf::from).or_else(|| defaults.cache_dir.clone())
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
/// engines its jobs run under (explicit `engine` fields, else each
/// kind's default from the catalog), sorted and joined with `+`.
/// Resuming the same campaign under a different engine then invalidates
/// the journal instead of silently replaying results measured
/// elsewhere. Derived from the *spec* alone, so identical submissions
/// across restarts produce identical strings.
fn engine_config_of(jobs: &[Json]) -> String {
    let mut engines: Vec<String> = jobs
        .iter()
        .filter_map(|job| {
            let default = kind_of(job).ok()?.default_engine?;
            Some(str_field(job, "engine").map_or_else(|| default.to_string(), str::to_string))
        })
        .collect();
    engines.sort();
    engines.dedup();
    engines.join("+")
}

/// Instantiates one job from the kind catalog.
fn job_from_spec(spec: &Json, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let kind = kind_of(spec)?;
    let name = str_field(spec, "name").ok_or("job needs a string \"name\"")?;
    for (key, _) in spec.as_obj().unwrap_or(&[]) {
        let key = key.as_str();
        if !COMMON_FIELDS.contains(&key) && !kind.fields.split_whitespace().any(|f| f == key) {
            return Err(format!(
                "unknown field \"{key}\" for kind {} (accepted: {})",
                kind.name,
                kind.fields.replace(' ', ", ")
            ));
        }
    }
    let mut job = (kind.build)(Fields { spec, kind, name }, artifacts)?;
    if let Some(ms) = num_field(spec, "watchdog_ms")? {
        job = job.watchdog(Duration::from_millis(ms));
    }
    if let Some(ms) = num_field(spec, "budget_ms")? {
        job = job.budget(Duration::from_millis(ms));
    }
    if spec.get("uncacheable").and_then(Json::as_bool).unwrap_or(false) {
        job = job.uncacheable();
    }
    Ok(job)
}

/// Test/bench aid: sleeps, then reports how long it was asked to sleep.
fn sleep_job(f: Fields, _: &Arc<ArtifactCache>) -> Result<Job, String> {
    let ms = f.num("ms", 10u64)?;
    Ok(f.job(move |_ctx| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(JobMetrics::new().det("slept_ms", ms))
    })
    .param("ms", ms))
}

/// Test aid: fails deterministically (exercises partial-resume paths —
/// failures are never journalled, so they re-run after a restart).
fn fail_job(f: Fields, _: &Arc<ArtifactCache>) -> Result<Job, String> {
    Ok(f.job(|_ctx| Err("injected failure (kind=fail)".to_string())))
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

fn build_shared(
    top: &dyn Component,
    engine: Engine,
    artifacts: &ArtifactCache,
    key: u64,
) -> Result<Sim, String> {
    Sim::build_shared(top, engine, &SimConfig::default(), artifacts, key)
        .map_err(|e| format!("elaboration failed: {e:?}"))
}

#[derive(Clone, Copy)]
struct MeshParams {
    level: NetLevel,
    nrouters: usize,
    injection: u32,
    /// Router buffer depth, when the spec sets one (only `mesh_cycles`
    /// accepts the field).
    nentries: Option<usize>,
    key: u64,
}

impl MeshParams {
    fn harness(&self, seed: u64) -> MeshTrafficHarness {
        let harness = MeshTrafficHarness::new(self.level, self.nrouters, self.injection, seed);
        match self.nentries {
            Some(nentries) => harness.with_nentries(nentries),
            None => harness,
        }
    }
}

fn mesh_params(f: Fields) -> Result<MeshParams, String> {
    let level: NetLevel = f.required("level")?;
    let (nrouters, injection) = mesh_size(f)?;
    let nentries = f.bounded_opt("nentries", 1..=MAX_NENTRIES)?;
    let key =
        compile_key(&["mesh", &level.to_string(), &nrouters.to_string(), &injection.to_string()]);
    // A mesh with the default buffers keeps the key it had before the
    // depth became a field.
    let key = nentries.map_or(key, |n| compile_key(&[&key.to_string(), &n.to_string()]));
    Ok(MeshParams { level, nrouters, injection, nentries, key })
}

/// A mesh's `nrouters` (a positive perfect square) and `injection` rate.
fn mesh_size(f: Fields) -> Result<(usize, u32), String> {
    let nrouters = f.bounded("nrouters", 16, 0..=MAX_NODES)?;
    let root = nrouters.isqrt();
    if root * root != nrouters || nrouters == 0 {
        return Err(format!("\"nrouters\" must be a positive perfect square, got {nrouters}"));
    }
    Ok((nrouters, f.bounded("injection", 200, 1..=1000)?))
}

/// Deterministic mesh run: `warmup` cycles whose statistics are
/// discarded, then `cycles` cycles of traffic, reporting the delivery
/// statistics. Traffic follows `pattern` (uniform) and draws from `seed`
/// (the job's campaign-derived seed when absent); `nentries` sets the
/// router buffer depth (2). A misrouted packet fails the job. Cacheable
/// and journalable (the same seed reproduces the same traffic on every
/// engine).
fn mesh_cycles_job(f: Fields, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let p = mesh_params(f)?;
    let warmup = f.bounded_opt("warmup", 0..=MAX_CYCLES)?;
    let cycles = f.bounded("cycles", 200u64, 0..=MAX_CYCLES)?;
    let pattern: Option<TrafficPattern> = f.optional("pattern")?;
    let seed: Option<u64> = num_field(f.spec, "seed")?;
    let engine = f.engine()?;
    let artifacts = artifacts.clone();
    let job = f
        .job(move |ctx| {
            let harness =
                p.harness(seed.unwrap_or(ctx.seed)).with_pattern(pattern.unwrap_or_default());
            let stats = harness.stats();
            let mut sim = build_shared(&harness, engine, &artifacts, p.key)?;
            sim.reset();
            let lock = || stats.lock().map_err(|_| "stats poisoned".to_string());
            if let Some(warmup) = warmup {
                sim.run(warmup);
                lock()?.clear();
            }
            sim.run(cycles);
            let s = lock()?;
            if s.misrouted > 0 {
                return Err(format!("{} packets reached the wrong terminal", s.misrouted));
            }
            Ok(JobMetrics::new()
                .det("cycles", cycles)
                .det("injected", s.injected)
                .det("received", s.received)
                .det("total_latency", s.total_latency)
                .det("max_latency", s.max_latency)
                .det("misrouted", s.misrouted))
        })
        .param("level", p.level)
        .param("nrouters", p.nrouters)
        .param("injection", p.injection)
        .param("cycles", cycles)
        .param("engine", engine);
    let job = param_if(job, "warmup", warmup);
    let job = param_if(job, "pattern", pattern);
    let job = param_if(job, "nentries", p.nentries);
    Ok(param_if(job, "seed", seed))
}

/// Parameters for the fully-IR mesh ([`MeshTrafficRtlHarness`]): RTL
/// routers with LFSR traffic generators in hardware, no native blocks —
/// the only DUT shape the batch engine accepts. The RTL
/// router grid needs a power-of-two side, so `nrouters` must be a power
/// of four. Returns `(nrouters, injection, compile key)`.
fn mesh_ir_params(f: Fields) -> Result<(usize, u32, u64), String> {
    let nrouters = f.bounded("nrouters", 16, 0..=MAX_NODES)?;
    if !nrouters.is_power_of_two() || !nrouters.trailing_zeros().is_multiple_of(2) {
        return Err(format!("\"nrouters\" must be a power of four, got {nrouters}"));
    }
    let injection = f.bounded("injection", 200, 1..=1000)?;
    let key = compile_key(&["mesh-ir", &nrouters.to_string(), &injection.to_string()]);
    Ok((nrouters, injection, key))
}

/// A tile's ⟨P, C, A⟩ and its compile key; `shape` lists whatever else
/// the caller's harness varies.
fn tile_params(f: Fields, shape: &[&str]) -> Result<(TileConfig, u64), String> {
    let config = TileConfig {
        proc: f.required("proc")?,
        cache: f.required("cache")?,
        xcel: f.required("xcel")?,
    };
    let TileConfig { proc, cache, xcel } = config;
    let (proc, cache, xcel) = (proc.to_string(), cache.to_string(), xcel.to_string());
    let key = compile_key(&[&["tile", &proc, &cache, &xcel], shape].concat());
    Ok((config, key))
}

/// The fault campaigns' tile DUT: a few proc2mngr words keep the
/// frontend and cache machinery active through the observation window.
fn tile_harness(config: TileConfig) -> TileHarness {
    TileHarness::new(config, 1 << 10, vec![3, 1, 4, 1, 5, 9])
}

/// Words of memory behind a kernel run: room for the largest kernel's
/// program, matrix, vector and output vector.
const KERNEL_MEM_WORDS: usize = 1 << 16;

/// The matrix-vector kernel of a `tile_cycles` or `iss_kernel` job, at
/// the default [`MvMultLayout`].
#[derive(Clone, Copy)]
struct Kernel {
    /// `xcel` or `scalar`.
    name: &'static str,
    rows: u32,
    cols: u32,
}

impl Kernel {
    /// Reads `kernel` (`scalar` | `xcel`, default `xcel`), `rows` (8) and
    /// `cols` (16). The matrix must fit below `vec_base` and the vector
    /// below `out_base`, and the scalar program's 4× unrolled loop needs
    /// `cols` a multiple of 4.
    fn from_spec(f: Fields) -> Result<Kernel, String> {
        let name = f.choice("kernel", &["xcel", "scalar"])?;
        let layout = MvMultLayout::default();
        let max_words = (layout.vec_base - layout.mat_base) / 4;
        let rows = f.bounded("rows", 8, 1..=max_words)?;
        let cols = f.bounded("cols", 16, 1..=(layout.out_base - layout.vec_base) / 4)?;
        if rows * cols > max_words {
            return Err(format!(
                "\"rows\"·\"cols\" must be at most {max_words}, got {rows}·{cols}"
            ));
        }
        if name == "scalar" && !cols.is_multiple_of(4) {
            return Err(format!("the scalar kernel needs \"cols\" a multiple of 4, got {cols}"));
        }
        Ok(Kernel { name, rows, cols })
    }

    /// The program and its inputs, as `(byte address, words)` regions.
    fn image(&self) -> [(u32, Vec<u32>); 3] {
        let layout = MvMultLayout::default();
        let program = if self.name == "scalar" {
            mvmult_scalar_program(self.rows, self.cols, layout)
        } else {
            mvmult_xcel_program(self.rows, self.cols, layout)
        };
        let (mat, vec) = mvmult_data(self.rows, self.cols);
        [(0, program), (layout.mat_base, mat), (layout.vec_base, vec)]
    }

    /// Checks the output vector a finished run left in `mem` against the
    /// host product.
    fn check(&self, mem: &[u32]) -> Result<(), String> {
        let base = (MvMultLayout::default().out_base / 4) as usize;
        let out = &mem[base..base + self.rows as usize];
        let want = mvmult_reference(self.rows, self.cols);
        if out == want {
            return Ok(());
        }
        Err(format!("output vector {out:x?} disagrees with the host product {want:x?}"))
    }

    fn params(&self, job: Job) -> Job {
        job.param("kernel", self.name).param("rows", self.rows).param("cols", self.cols)
    }
}

/// Deterministic tile run: the `kernel` on the tile with `nlines`-line
/// caches until the processor halts, reporting cycles and retired
/// instructions, and as timing `kernel_secs`, the wall time of build,
/// reset and run (Figure 13's measure). Fails unless the tile halts
/// within `max_cycles` and leaves the host product in memory; `profile`
/// attaches the run's [`SimProfile`].
fn tile_cycles_job(f: Fields, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let nlines = f.bounded("nlines", 32u64, 2..=128)?;
    if !nlines.is_power_of_two() {
        return Err(format!("\"nlines\" must be a power of two, got {nlines}"));
    }
    let (config, key) = tile_params(f, &[&nlines.to_string(), &KERNEL_MEM_WORDS.to_string()])?;
    let kernel = Kernel::from_spec(f)?;
    let max_cycles = f.bounded("max_cycles", 20_000_000, 1..=MAX_CYCLES)?;
    let profile = f.bool("profile")?.unwrap_or(false);
    let engine = f.engine()?;
    let artifacts = artifacts.clone();
    let job = f
        .job(move |_ctx| {
            let image = kernel.image();
            let t0 = Instant::now();
            let harness =
                TileHarness::new(config, KERNEL_MEM_WORDS, vec![]).with_cache_nlines(nlines);
            for (addr, words) in &image {
                harness.load(*addr, words);
            }
            let mut sim = build_shared(&harness, engine, &artifacts, key)?;
            if profile {
                sim.enable_profiling();
            }
            sim.reset();
            let mut cycles = 0u64;
            while sim.peek_port("halted").is_zero() {
                if cycles == max_cycles {
                    return Err(format!("{config} tile did not halt in {max_cycles} cycles"));
                }
                sim.cycle();
                cycles += 1;
            }
            let kernel_secs = t0.elapsed().as_secs_f64();
            kernel.check(&harness.mem_handle().lock().map_err(|_| "memory poisoned")?)?;
            let mut metrics = JobMetrics::new()
                .det("cycles", cycles)
                .det("instret", sim.peek_port("instret").as_u64())
                .timing("kernel_secs", kernel_secs);
            if let Some(prof) = sim.profile() {
                metrics = metrics.with_profile(profile_json(&prof, PROFILE_TOP_N));
            }
            Ok(metrics)
        })
        .param("proc", config.proc)
        .param("cache", config.cache)
        .param("xcel", config.xcel);
    let job = kernel
        .params(job)
        .param("nlines", nlines)
        .param("max_cycles", max_cycles)
        .param("engine", engine);
    Ok(if profile { job.expects_profile() } else { job })
}

/// The pure instruction-set simulator on the same kernel, Figure 13's
/// LOD-1 reference: reports `instret` and, as timing, `kernel_secs`, the
/// best of five 50 ms rounds' mean wall time per run. Fails unless the
/// ISS halts and leaves the host product in memory. Uncacheable: the
/// wall time is the measurement.
fn iss_kernel_job(f: Fields, _: &Arc<ArtifactCache>) -> Result<Job, String> {
    const MAX_STEPS: u64 = 10_000_000;
    let kernel = Kernel::from_spec(f)?;
    let job = f.job(move |_ctx| {
        let mut iss = Iss::new(KERNEL_MEM_WORDS);
        for (addr, words) in &kernel.image() {
            iss.load(*addr, words);
        }
        let mut run = iss.clone();
        run.run(MAX_STEPS);
        if !run.halted {
            return Err(format!("the ISS did not halt in {MAX_STEPS} steps"));
        }
        kernel.check(&run.mem)?;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            let mut reps = 0;
            while t0.elapsed() < Duration::from_millis(50) {
                iss.clone().run(MAX_STEPS);
                reps += 1;
            }
            best = best.min(t0.elapsed().as_secs_f64() / f64::from(reps));
        }
        Ok(JobMetrics::new().det("instret", run.instret).timing("kernel_secs", best))
    });
    Ok(kernel.params(job.uncacheable()))
}

/// The traffic seed of every rate measurement and fault DUT: one
/// workload for the engines and the hand-written baseline alike.
const TRAFFIC_SEED: u64 = 0xBEEF;

/// A rate job's measurement window: `min_wall_ms` of wall clock or
/// `max_cycles` simulated cycles, whichever ends first.
fn rate_window(f: Fields) -> Result<(Duration, u64), String> {
    let min_wall = Duration::from_millis(f.num("min_wall_ms", 200u64)?);
    let max_cycles = f.num("max_cycles", 1_000_000u64)?;
    if max_cycles == 0 {
        return Err("\"max_cycles\" must be positive".to_string());
    }
    Ok((min_wall, max_cycles))
}

/// The repo's rate measurement (Figures 14 and 15, the optimizer A/B):
/// a cold build of the mesh — no shared [`ArtifactCache`], so every
/// transport charges the full construction overhead — then the
/// steady-state rate from [`measure_batched`] (warm-up excluded,
/// doubling clamped to `max_cycles`, the job's `budget_ms` deadline
/// honoured between batches). `tape_opt` pins the tape optimizer off
/// or on; `profile` attaches the run's [`SimProfile`] (which slows the
/// rate it explains). Rates, cycle counts and overheads are timing
/// metrics, never cached; the optimizer's op and register counts are
/// deterministic.
fn engine_rate_job(f: Fields, _: &Arc<ArtifactCache>) -> Result<Job, String> {
    let p = mesh_params(f)?;
    let (min_wall, max_cycles) = rate_window(f)?;
    let engine = f.engine()?;
    let tape_opt = f.bool("tape_opt")?;
    let profile = f.bool("profile")?.unwrap_or(false);
    let cfg = SimConfig { tape_opt: tape_opt.unwrap_or(true), ..SimConfig::default() };
    let job = f
        .job(move |ctx| {
            let harness = p.harness(TRAFFIC_SEED);
            let mut sim = Sim::build_with_config(&harness, engine, &cfg)
                .map_err(|e| format!("elaboration failed: {e:?}"))?;
            if profile {
                sim.enable_profiling();
            }
            sim.reset();
            let m = measure_batched(|n| sim.run(n), 16, 64, min_wall, max_cycles, ctx.deadline());
            let mut metrics = JobMetrics::new();
            if let Some(r) = sim.opt_report() {
                metrics = metrics
                    .det("tape_ops_before", r.ops_before)
                    .det("tape_ops_after", r.ops_after)
                    .det("tape_regs_before", r.regs_before)
                    .det("tape_regs_after", r.regs_after)
                    .det("opt_rounds", r.rounds);
            }
            let o = *sim.overheads();
            metrics = metrics
                .timing("cycles_per_sec", m.rate())
                .timing("measured_cycles", m.work as f64)
                .timing("overhead_total_secs", o.total().as_secs_f64());
            for (phase, secs) in [
                ("elab", o.elab),
                ("cgen", o.cgen),
                ("comp", o.comp),
                ("wrap", o.wrap),
                ("simc", o.simc),
            ] {
                metrics = metrics.timing(format!("{phase}_secs"), secs.as_secs_f64());
            }
            if let Some(prof) = sim.profile() {
                metrics = metrics.with_profile(profile_json(&prof, PROFILE_TOP_N));
            }
            Ok(metrics)
        })
        .uncacheable()
        .param("level", p.level)
        .param("nrouters", p.nrouters)
        .param("injection", p.injection)
        .param("engine", engine);
    let job = param_if(job, "tape_opt", tape_opt);
    Ok(if profile { job.expects_profile() } else { job })
}

/// The hand-written mesh's rate on the same traffic (the paper's
/// hand-coded C++ baseline): a plain Rust loop, nothing to compile.
fn handwritten_rate_job(f: Fields, _: &Arc<ArtifactCache>) -> Result<Job, String> {
    let (nrouters, injection) = mesh_size(f)?;
    let (min_wall, max_cycles) = rate_window(f)?;
    Ok(f.job(move |ctx| {
        let mut mesh = mtl_net::HandwrittenMesh::new(nrouters, injection, TRAFFIC_SEED);
        let m = measure_batched(|n| mesh.run(n), 16, 1024, min_wall, max_cycles, ctx.deadline());
        Ok(JobMetrics::new().timing("cycles_per_sec", m.rate()))
    })
    .uncacheable()
    .param("nrouters", nrouters)
    .param("injection", injection))
}

/// How many hot blocks and active nets a `profile` section lists.
const PROFILE_TOP_N: usize = 10;

/// Renders a [`SimProfile`] as the `profile` section of a per-job report:
/// summary counters, the `top_n` hottest blocks, histogram summaries, and
/// the `top_n` most active nets. Schema documented in `EXPERIMENTS.md`.
fn profile_json(p: &SimProfile, top_n: usize) -> Json {
    let mut j = Json::obj();
    j.set("engine", p.engine.to_string())
        .set("cycles", p.cycles)
        .set("settle_points", p.settles)
        .set("block_executions", p.total_block_runs());
    let hot: Vec<Json> = p
        .hot_blocks(top_n)
        .into_iter()
        .map(|h| {
            let mut o = Json::obj();
            o.set("path", h.path.as_str()).set("runs", h.runs).set("wall_ns", h.nanos);
            o
        })
        .collect();
    j.set("hot_blocks", Json::Arr(hot));
    let hist = |h: &mtl_sim::Hist| {
        let mut o = Json::obj();
        o.set("samples", h.samples()).set("mean", h.mean()).set("max", h.max());
        o
    };
    j.set("fixpoint_iters", hist(&p.fixpoint_iters));
    j.set("queue_depth", hist(&p.queue_depth));
    let nets: Vec<Json> = p
        .active_nets(top_n)
        .into_iter()
        .map(|(path, toggles)| {
            let mut o = Json::obj();
            o.set("path", path.as_str()).set("bit_toggles", toggles);
            o
        })
        .collect();
    j.set("active_nets", Json::Arr(nets));
    j
}

/// Running outcome totals of one fault job — the deterministic metrics
/// both fault kinds report.
#[derive(Default)]
struct Tally {
    masked: u64,
    silent: u64,
    detected: u64,
    /// Trials that diverged at all (silent + detected).
    diverged: u64,
    sum_first_div: u64,
    sum_blast: u64,
    injected_bits: u64,
}

impl Tally {
    fn of(reports: &[FaultReport]) -> Tally {
        let mut t = Tally::default();
        for r in reports {
            match r.outcome {
                Outcome::Masked => t.masked += 1,
                Outcome::Silent => t.silent += 1,
                Outcome::Detected => t.detected += 1,
            }
            if let Some(c) = r.first_divergence {
                t.diverged += 1;
                t.sum_first_div += c;
                t.sum_blast += r.blast_radius.len() as u64;
            }
            t.injected_bits += r.injected_bits;
        }
        t
    }

    fn metrics(&self, trials: u64) -> JobMetrics {
        JobMetrics::new()
            .det("trials", trials)
            .det("masked", self.masked)
            .det("silent", self.silent)
            .det("detected", self.detected)
            .det("diverged", self.diverged)
            .det("sum_first_divergence", self.sum_first_div)
            .det("sum_blast_radius", self.sum_blast)
            .det("injected_bits", self.injected_bits)
    }
}

/// What one fault job injects into: the chunk's shape plus the design
/// point's compile key.
#[derive(Clone, Copy)]
struct FaultChunk {
    chunk: u32,
    trials: u64,
    cycles: u64,
    faults: usize,
    key: u64,
}

impl FaultChunk {
    /// Reads the chunk's shape. A chunk is one lane set — golden plus
    /// one lane per plan — so `trials` is 1..=63.
    fn from_spec(f: Fields, default_trials: u64, key: u64) -> Result<FaultChunk, String> {
        Ok(FaultChunk {
            chunk: f.num("chunk", 0)?,
            trials: f.bounded("trials", default_trials, 1..=u64::from(BATCH_LANES) - 1)?,
            cycles: f.bounded("cycles", 60, 0..=MAX_CYCLES)?,
            faults: f.bounded("faults", 1, 0..=MAX_FAULTS)?,
            key,
        })
    }

    /// The chunk's seeded plans, drawn against one probe simulator
    /// built on `engine` (sharing the cache makes it nearly free after
    /// the design point's first job).
    fn plans(
        &self,
        top: &dyn Component,
        seed: u64,
        engine: Engine,
        artifacts: &ArtifactCache,
    ) -> Result<Vec<FaultPlan>, String> {
        let probe = build_shared(top, engine, artifacts, self.key)?;
        let window = PlanSpec::new(self.faults, 2, 1 + self.cycles.max(1));
        let plan = |t| {
            let seed = mix(seed, (u64::from(self.chunk) << 32) | t);
            FaultPlan::random(seed, probe.design(), &window)
        };
        Ok((0..self.trials).map(plan).collect())
    }

    /// Runs `plans` as one untraced lane set on `engine` ([`run_diffs`]):
    /// one golden run for all of them.
    fn run(
        &self,
        top: &dyn Component,
        plans: &[FaultPlan],
        engine: Engine,
        artifacts: &ArtifactCache,
    ) -> Result<Vec<FaultReport>, String> {
        let cfg = DiffConfig::new(engine, self.cycles);
        run_diffs(top, plans, &cfg, Some((artifacts, self.key)), false)
    }

    fn params(&self, job: Job, dut: String, engine: Engine) -> Job {
        job.param("dut", dut)
            .param("chunk", self.chunk)
            .param("engine", engine)
            .param("cycles", self.cycles)
            .param("faults_per_trial", self.faults)
    }
}

/// One fault-injection chunk: `trials` seeded plans run as one lane set
/// through [`run_diffs`] — one golden run and one faulted run per plan,
/// in lockstep — so the chunk simulates its golden once, and every trial
/// of every campaign reuses one compile of the design.
fn fault_chunk_job(f: Fields, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    #[derive(Clone, Copy)]
    enum Dut {
        Mesh(MeshParams),
        MeshIr(usize, u32),
        Tile(TileConfig),
    }
    if f.spec.get("dut").is_none() {
        return Err("fault_chunk needs \"dut\" (mesh|mesh-ir|tile)".into());
    }
    let (dut, label, key) = match f.choice("dut", &["mesh", "mesh-ir", "tile"])? {
        "mesh" => {
            let p = mesh_params(f)?;
            (Dut::Mesh(p), format!("mesh{}/{}", p.nrouters, p.level), p.key)
        }
        "mesh-ir" => {
            let (n, injection, key) = mesh_ir_params(f)?;
            (Dut::MeshIr(n, injection), format!("mesh{n}/rtl-ir"), key)
        }
        _ => {
            // "tile", the last choice.
            let (config, key) = tile_params(f, &[])?;
            (Dut::Tile(config), format!("tile/{}", config.proc), key)
        }
    };
    let c = FaultChunk::from_spec(f, 2, key)?;
    let engine = f.engine()?;
    let artifacts = artifacts.clone();
    let job = f.job(move |ctx| {
        let top: Box<dyn Component> = match dut {
            Dut::Mesh(p) => Box::new(p.harness(TRAFFIC_SEED)),
            Dut::MeshIr(n, injection) => {
                Box::new(MeshTrafficRtlHarness::new(n, injection, TRAFFIC_SEED))
            }
            Dut::Tile(config) => Box::new(tile_harness(config)),
        };
        let plans = c.plans(top.as_ref(), ctx.seed, Engine::Interpreted, &artifacts)?;
        Ok(Tally::of(&c.run(top.as_ref(), &plans, engine, &artifacts)?).metrics(c.trials))
    });
    Ok(c.params(job, label, engine))
}

/// One batch fault bundle: up to 63 plans run as one [`run_diffs`] lane
/// set per rung of the engine ladder (`specialized-batch →
/// specialized-opt → interpreted`). On the batch rung the plans share a
/// single `Engine::SpecializedBatch` simulator (lane 0 golden, one plan
/// per faulty lane), then the leading `scalar_sample` plans are re-run
/// as one scalar `specialized-opt` set — both as the throughput baseline
/// and as the **online divergence sentinel**: a report mismatch is
/// reported with the [`DEGRADE_PREFIX`](mtl_sweep::DEGRADE_PREFIX)
/// marker, so the executor retries one rung down the ladder instead of
/// losing the job, quarantining a reproducer on the way. Scalar rungs
/// compute the identical deterministic metrics (the engine-exactness
/// invariant), so a degraded campaign's canonical report is
/// byte-identical to a healthy one. Only the fully-IR mesh DUT
/// qualifies; native blocks cannot be batched. Uncacheable: the speedup
/// metrics are wall-clock rates.
fn fault_batch_chunk_job(f: Fields, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let (nrouters, injection, key) = mesh_ir_params(f)?;
    let c = FaultChunk::from_spec(f, 15, key)?;
    let sample = f.num("scalar_sample", 2u64)?.min(c.trials) as usize;
    let artifacts = artifacts.clone();
    let run = move |ctx: &JobCtx| {
        let top = MeshTrafficRtlHarness::new(nrouters, injection, TRAFFIC_SEED);
        // Ladder rung: rung 0 is the preferred batch engine; lower rungs
        // re-run every plan as a scalar set on the named engine.
        let rung = ctx.engine().map_or(Ok(Engine::SpecializedBatch), str::parse)?;
        // The probe is built on the rung's own engine, so the design
        // point's one-time compile is in the shared cache before either
        // timed section: both rates are steady-state (warm-up excluded,
        // like every rate in the repo), whichever job compiles first.
        let plans = c.plans(&top, ctx.seed, rung, &artifacts)?;
        let secs = |t0: std::time::Instant| t0.elapsed().as_secs_f64().max(1e-9);
        let t0 = std::time::Instant::now();
        let reports = c.run(&top, &plans, rung, &artifacts)?;
        let rate = c.trials as f64 / secs(t0);
        let mut scalar_rate = rate;
        if rung == Engine::SpecializedBatch {
            let t1 = std::time::Instant::now();
            let scalar = c.run(&top, &plans[..sample], Engine::SpecializedOpt, &artifacts)?;
            scalar_rate = sample as f64 / secs(t1);
            if let Some(i) = (0..sample).find(|&i| reports[i] != scalar[i]) {
                // The divergence sentinel: a batch-engine bug, not a bad
                // configuration. The DEGRADE_PREFIX makes the executor
                // descend the ladder.
                return Err(format!(
                    "{}batch lane disagrees with scalar run on trial {i}: \
                     batch {:?} vs scalar {:?}",
                    mtl_sweep::DEGRADE_PREFIX,
                    reports[i],
                    scalar[i]
                ));
            }
        }
        Ok(Tally::of(&reports)
            .metrics(c.trials)
            .det("scalar_sample", sample as u64)
            .timing("batch_trials_per_sec", rate)
            .timing("scalar_trials_per_sec", scalar_rate)
            .timing("batch_speedup", rate / scalar_rate))
    };
    let job = f
        .job(run)
        .uncacheable()
        .ladder(["specialized-batch", "specialized-opt", "interpreted"])
        .repro(move |ctx, error| batch_chunk_repro(nrouters, injection, &c, sample, ctx, error));
    Ok(c.params(job, format!("mesh{nrouters}/rtl-ir"), Engine::SpecializedBatch))
}

/// Generates the quarantine reproducer for a degraded
/// `fault_batch_chunk` job: `examples/fault_batch_repro.rs` — a program
/// cargo compiles with every test run — with its job block (failing rung,
/// error, and the constants that pin the DUT and the seeded plans)
/// filled in from the failing attempt.
fn batch_chunk_repro(
    nrouters: usize,
    injection: u32,
    c: &FaultChunk,
    sample: usize,
    ctx: &JobCtx,
    error: &str,
) -> String {
    const TEMPLATE: &str = include_str!("../examples/fault_batch_repro.rs");
    const OPEN: &str = "// >>> job\n";
    const CLOSE: &str = "// <<< job\n";
    let (head, rest) = TEMPLATE.split_once(OPEN).expect("the template opens its job block");
    let (_, tail) = rest.split_once(CLOSE).expect("the template closes its job block");
    let FaultChunk { chunk, trials, cycles, faults, .. } = *c;
    let engine = ctx.engine().unwrap_or("specialized-batch");
    let mut job = format!("//! failing engine rung {}: {engine}\n", ctx.rung());
    for line in error.lines().take(4) {
        job.push_str(&format!("//! error: {line}\n"));
    }
    job.push_str(&format!(
        "const SEED: u64 = {:#018x};\nconst CHUNK: u64 = {chunk};\n\
         const TRIALS: u64 = {trials};\nconst SAMPLE: usize = {sample};\n\
         const ROUTERS: usize = {nrouters};\nconst INJECTION: u32 = {injection};\n\
         const FAULTS: usize = {faults};\nconst CYCLES: u64 = {cycles};\n",
        ctx.seed
    ));
    format!("{head}{OPEN}{job}{CLOSE}{tail}")
}

/// Multi-tile SoC run. Both personalities are self-checking: a workload
/// that does not finish inside `cycles`, or finishes with a result the
/// host golden model disagrees with, fails the job. That makes the job
/// deterministic and cacheable; the compile key covers every
/// design-shaping parameter — the seed included, since LFSR seeds and
/// preloaded programs are baked into the elaborated design.
fn soc_cycles_job(f: Fields, artifacts: &Arc<ArtifactCache>) -> Result<Job, String> {
    let workload = f.choice("workload", &["synthetic", "compute"])?;
    let tiles = f.bounded("tiles", 4, 0..=MAX_NODES)?;
    if tiles < 4 || !tiles.is_power_of_two() || !tiles.trailing_zeros().is_multiple_of(2) {
        return Err(format!("\"tiles\" must be a power of four >= 4, got {tiles}"));
    }
    let net: NetLevel = f.required("net")?;
    let pattern = f.parsed("pattern", SocTraffic::UniformRandom)?;
    let seed = f.num("seed", 0xC0DEu64)?;
    let cycles = f.num("cycles", 30_000u64)?;
    let engine = f.engine()?;
    let artifacts = artifacts.clone();
    let job = match workload {
        "synthetic" => {
            let injection = f.bounded("injection", 300, 1..=1000)?;
            let limit = f.num("limit", 64u32)?;
            let key = compile_key(&[
                "soc",
                "synthetic",
                &tiles.to_string(),
                &net.to_string(),
                &pattern.to_string(),
                &injection.to_string(),
                &limit.to_string(),
                &seed.to_string(),
            ]);
            f.job(move |_ctx| {
                let soc = Soc::new(
                    SocConfig::synthetic(tiles, net, pattern)
                        .with_injection(injection)
                        .with_limit(limit)
                        .with_seed(seed),
                );
                let sim = build_shared(&soc, engine, &artifacts, key)?;
                let overhead = sim.overheads().total().as_secs_f64();
                let out = run_soc_traffic_on(&soc, sim, cycles);
                if !out.drained {
                    return Err(format!("workload failed to drain in {cycles} cycles: {out:?}"));
                }
                let golden = soc.golden_checksum().expect("synthetic workload");
                if out.checksum != golden {
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
                    .det("delivered", out.delivered)
                    .timing("overhead_total_secs", overhead))
            })
            .param("injection", injection)
            .param("limit", limit)
        }
        _ => {
            // "compute", the other choice.
            let config = TileConfig {
                proc: f.parsed("proc", ProcLevel::Rtl)?,
                cache: f.parsed("cache", CacheLevel::Rtl)?,
                xcel: f.parsed("xcel", XcelLevel::Rtl)?,
            };
            let accesses = f.bounded("accesses", 8usize, 1..=80)?;
            let key = compile_key(&[
                "soc",
                "compute",
                &tiles.to_string(),
                &net.to_string(),
                &pattern.to_string(),
                &config.proc.to_string(),
                &config.cache.to_string(),
                &config.xcel.to_string(),
                &accesses.to_string(),
                &seed.to_string(),
            ]);
            f.job(move |_ctx| {
                let soc = Soc::new(
                    SocConfig::compute(tiles, config, net, pattern)
                        .with_accesses(accesses)
                        .with_seed(seed),
                );
                let sim = build_shared(&soc, engine, &artifacts, key)?;
                let out = run_soc_compute_on(&soc, sim, cycles);
                if !out.halted {
                    return Err(format!("tiles failed to halt in {cycles} cycles: {out:?}"));
                }
                if out.results != soc.expected_results() {
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
            .param("proc", config.proc)
            .param("cache", config.cache)
            .param("xcel", config.xcel)
            .param("accesses", accesses)
        }
    };
    Ok(job
        .param("workload", workload)
        .param("tiles", tiles)
        .param("net", net)
        .param("pattern", pattern)
        .param("cycles", cycles)
        .param("engine", engine))
}

/// SplitMix64 finalizer: decorrelates per-trial plan seeds from the job
/// seed and trial index.
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
                {"kind":"mesh_cycles","name":"m2","level":"RTL","nrouters":4,"cycles":5,
                 "warmup":5,"pattern":"tornado","nentries":4,"seed":7},
                {"kind":"tile_cycles","name":"t1","proc":"CL","cache":"RTL","xcel":"FL",
                 "kernel":"scalar","rows":64,"cols":64,"nlines":128,"profile":true},
                {"kind":"iss_kernel","name":"i1","rows":4096,"cols":1},
                {"kind":"mesh_rate","name":"r1","level":"RTL","nrouters":4,"tape_opt":false,
                 "profile":true},
                {"kind":"handwritten_rate","name":"h1","nrouters":4,"max_cycles":100},
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
            // Fault-job shapes that would abort or overflow at run time.
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":"mesh-ir","trials":1000000000000}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":"mesh-ir","trials":64}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":"mesh-ir","trials":0}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":"mesh-ir","faults":1000000000000}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_batch_chunk","name":"b","faults":1000000000000}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":"mesh-ir","cycles":18446744073709551615}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_batch_chunk","name":"b","cycles":18446744073709551615}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","tiles":8}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","pattern":"zipf"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","workload":"mine"}]}"#,
            // A field of the wrong type is an error, never a default.
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","workload":3}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":3}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":3}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":true}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","injection":0}]}"#,
            // Unknown keys, wrapping casts, out-of-range rates and sizes.
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"FL","nrouter":64}]}"#,
            r#"{"name":"a","jobs":[{"kind":"fault_batch_chunk","name":"b","engine":"interpreted"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"FL","injection":4294967496}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"FL","injection":1001}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"FL","cycles":"9"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"FL","nrouters":4096}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_rate","name":"m","level":"FL","max_cycles":0}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_rate","name":"m","level":"FL","tape_opt":1}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_rate","name":"m","level":"FL","profile":"yes"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"handwritten_rate","name":"h","max_cycles":0}]}"#,
            r#"{"name":"a","jobs":[{"kind":"handwritten_rate","name":"h","nrouters":8}]}"#,
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","tiles":4096}]}"#,
            r#"{"name":"a","retries":4294967296,"jobs":[{"kind":"sleep_ms","name":"s"}]}"#,
            // Mesh run shapes: buffer depth, windows, pattern, seed.
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","nentries":0}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","nentries":65}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","warmup":4294967296}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","cycles":4294967296}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","pattern":"zipf"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","pattern":"Tornado"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","pattern":3}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"CL","seed":-1}]}"#,
            r#"{"name":"a","jobs":[{"kind":"mesh_rate","name":"m","level":"CL","nentries":4}]}"#,
            // Kernel runs: cache sizes CacheRTL rejects, kernels that do not
            // fit the layout or the scalar program's unrolling.
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","nlines":3}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","nlines":1}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","nlines":256}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","kernel":"vector"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","kernel":1}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","kernel":"scalar","cols":6}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","rows":65,"cols":64}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","rows":1,"cols":1025}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","rows":0}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","max_cycles":0}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL","xcel":"CL","profile":"yes"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"tile_cycles","name":"t","proc":"CL","cache":"CL"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"iss_kernel","name":"i","kernel":"scalar","cols":2}]}"#,
            r#"{"name":"a","jobs":[{"kind":"iss_kernel","name":"i","rows":4097,"cols":1}]}"#,
            r#"{"name":"a","jobs":[{"kind":"iss_kernel","name":"i","engine":"interpreted"}]}"#,
            r#"{"name":"a","jobs":[{"kind":"sleep_ms","name":"s","watchdog_ms":"3s"}]}"#,
        ] {
            assert!(campaign_from_spec(&spec(bad), &defaults, &artifacts).is_err(), "{bad}");
        }
        let err = |text| campaign_from_spec(&spec(text), &defaults, &artifacts).err().unwrap();
        let unknown_kind = err(r#"{"name":"a","jobs":[{"kind":"warp","name":"s"}]}"#);
        assert!(unknown_kind.contains("catalog: sleep_ms, fail, mesh_cycles"), "{unknown_kind}");
        let unknown_field = err(
            r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":"FL","nrouter":64}]}"#,
        );
        assert!(unknown_field.contains("\"nrouter\""), "{unknown_field}");
        assert!(unknown_field.contains("accepted: level, nrouters, injection"), "{unknown_field}");
        let mistyped = err(r#"{"name":"a","jobs":[{"kind":"mesh_cycles","name":"m","level":3}]}"#);
        assert!(mistyped.contains("\"level\" must be a string, got 3"), "{mistyped}");
        let workload = err(
            r#"{"name":"a","jobs":[{"kind":"soc_cycles","name":"s","net":"RTL","workload":3}]}"#,
        );
        assert!(workload.contains("\"workload\" must be synthetic|compute, got 3"), "{workload}");
        let dut = err(r#"{"name":"a","jobs":[{"kind":"fault_chunk","name":"f","dut":3}]}"#);
        assert!(dut.contains("\"dut\" must be mesh|mesh-ir|tile, got 3"), "{dut}");
    }

    /// A self-checking SoC job that does not finish inside its cycle
    /// budget is a failure, never a `done` row with `drained=0`.
    #[test]
    fn unfinished_soc_jobs_fail() {
        let artifacts = Arc::new(ArtifactCache::new());
        let report = campaign_from_spec(
            &spec(
                r#"{"name":"short","no_cache":true,"jobs":[
                    {"kind":"soc_cycles","name":"syn","net":"RTL","tiles":4,"limit":16,"cycles":8},
                    {"kind":"soc_cycles","name":"cmp","workload":"compute","net":"RTL",
                     "accesses":2,"cycles":8},
                    {"kind":"soc_cycles","name":"ok","net":"RTL","tiles":4,"limit":16,
                     "cycles":20000}
                ]}"#,
            ),
            &SpecDefaults::default(),
            &artifacts,
        )
        .unwrap()
        .run();
        let error = |job: &str| match &report.get(job).unwrap().outcome {
            mtl_sweep::JobOutcome::Failed { error } => error.clone(),
            other => panic!("{job} must fail, got {other:?}"),
        };
        assert!(error("syn").contains("failed to drain"), "{}", error("syn"));
        assert!(error("cmp").contains("failed to halt"), "{}", error("cmp"));
        assert_eq!(report.get("ok").unwrap().u64("drained"), Some(1));
    }

    /// `tile_cycles` reproduces the cycle counts `sec3c_accel_speedup`
    /// and `ablations` printed before they declared specs, and fails a
    /// tile that does not halt inside `max_cycles`.
    #[test]
    fn tile_cycles_pins_the_kernel_cycle_counts() {
        let artifacts = Arc::new(ArtifactCache::new());
        let job = |name: &str, level: &str, kernel: &str, extra: &str| {
            format!(
                r#"{{"kind":"tile_cycles","name":"{name}","proc":"{level}","cache":"{level}",
                    "xcel":"{level}","kernel":"{kernel}","rows":8,"cols":16{extra}}}"#
            )
        };
        let jobs = [
            job("cl/scalar", "CL", "scalar", ""),
            job("cl/xcel", "CL", "xcel", ""),
            job("rtl/scalar", "RTL", "scalar", ""),
            job("rtl/xcel", "RTL", "xcel", ""),
            job("cl/scalar/nlines4", "CL", "scalar", r#","nlines":4"#),
            job("short", "CL", "scalar", r#","max_cycles":100"#),
        ];
        let text = format!(r#"{{"name":"pin","no_cache":true,"jobs":[{}]}}"#, jobs.join(","));
        let report =
            campaign_from_spec(&spec(&text), &SpecDefaults::default(), &artifacts).unwrap().run();
        let cycles = |job: &str| report.get(job).and_then(|j| j.u64("cycles"));
        assert_eq!(cycles("cl/scalar"), Some(1_463));
        assert_eq!(cycles("cl/xcel"), Some(780));
        assert_eq!(cycles("rtl/scalar"), Some(4_280));
        assert_eq!(cycles("rtl/xcel"), Some(1_884));
        assert_eq!(cycles("cl/scalar/nlines4"), Some(3_551));
        match &report.get("short").unwrap().outcome {
            mtl_sweep::JobOutcome::Failed { error } => {
                assert!(error.contains("did not halt in 100 cycles"), "{error}");
            }
            other => panic!("an unfinished kernel must fail, got {other:?}"),
        }
    }

    /// A fault chunk is one lane set: its trials share one golden run, so
    /// a 4-trial job builds a probe, one golden and four faulty
    /// simulators — every build after the probe's elaboration reuses the
    /// cached design.
    #[test]
    fn a_fault_chunk_runs_its_golden_once() {
        let artifacts = Arc::new(ArtifactCache::new());
        let report = campaign_from_spec(
            &spec(
                r#"{"name":"g","no_cache":true,"jobs":[
                    {"kind":"fault_chunk","name":"f","dut":"mesh-ir","nrouters":4,
                     "trials":4,"cycles":10}
                ]}"#,
            ),
            &SpecDefaults::default(),
            &artifacts,
        )
        .unwrap()
        .run();
        assert_eq!(report.get("f").unwrap().u64("trials"), Some(4));
        let stats = artifacts.stats();
        assert_eq!(stats.design_hits, 1 + 4, "one golden, four faulty: {stats:?}");
        assert_eq!(stats.tape_hits + stats.tape_misses, 1 + 4, "{stats:?}");
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
