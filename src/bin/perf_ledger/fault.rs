//! The two fault-campaign workloads on the IR-only 16-router mesh.
//!
//! Both run an `mtl_sweep::Campaign` (two workers, result cache off,
//! checkpoint journal on, a fresh `ArtifactCache` per repetition), so the
//! batch engine or the scalar differential runner, `mtl-fault`, the
//! artifact cache and the sweep bookkeeping all sit on the blocking path.
//! They use the same layers differently — `fault_batch_mesh16` advances 63
//! trials per bit-sliced pass, `fault_scalar_mesh16` pays two builds and
//! an all-net peek per cycle for every trial — so a gain for one that
//! costs the other shows.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mtl_fault::{
    run_diff, run_diff_batch, run_diff_batch_shared, run_diff_shared, DiffConfig, FaultPlan,
    FaultReport, Outcome, PlanSpec,
};
use mtl_net::MeshTrafficRtlHarness;
use mtl_sim::{ArtifactCache, Engine, Sim, SimConfig, BATCH_LANES};
use mtl_sweep::{Campaign, CampaignReport, Job, JobMetrics, Journal, ResultCache};

use crate::bringup::{bring_up, BuildTotals};
use crate::run::{Ctx, Scale};
use crate::stats::{median, Summary};
use crate::trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch,
    Scalar,
}

const INJECTION_PERMILLE: u32 = 200;
/// Campaign workers: the reference container's cores.
const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Params {
    routers: usize,
    /// Observation window of every trial, in cycles.
    cycles: u64,
    faults_per_trial: usize,
    jobs: u32,
    trials_per_job: u64,
    /// Plans cross-checked against the reference runner after the run.
    agree_sample: usize,
}

impl Params {
    fn of(kind: Kind, scale: Scale) -> Params {
        match (kind, scale) {
            (Kind::Batch, Scale::Full) => Params {
                routers: 16,
                cycles: 200,
                faults_per_trial: 2,
                jobs: 4,
                trials_per_job: 63,
                agree_sample: 3,
            },
            (Kind::Scalar, Scale::Full) => Params {
                routers: 16,
                cycles: 200,
                faults_per_trial: 2,
                jobs: 2,
                trials_per_job: 8,
                agree_sample: 2,
            },
            (Kind::Batch, Scale::Tiny) => Params {
                routers: 4,
                cycles: 20,
                faults_per_trial: 1,
                jobs: 2,
                trials_per_job: 5,
                agree_sample: 2,
            },
            (Kind::Scalar, Scale::Tiny) => Params {
                routers: 4,
                cycles: 20,
                faults_per_trial: 1,
                jobs: 2,
                trials_per_job: 2,
                agree_sample: 1,
            },
        }
    }

    fn trials_per_rep(&self) -> u64 {
        u64::from(self.jobs) * self.trials_per_job
    }

    fn plan_spec(&self) -> PlanSpec {
        PlanSpec::new(self.faults_per_trial, 2, 1 + self.cycles)
    }
}

/// SplitMix64 finalizer: per-trial plan seeds from the job seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome counts of a set of trials: exact, so they must repeat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    masked: u64,
    silent: u64,
    detected: u64,
}

impl Tally {
    fn add(&mut self, r: &FaultReport) {
        match r.outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Silent => self.silent += 1,
            Outcome::Detected => self.detected += 1,
        }
    }

    fn of_report(report: &CampaignReport) -> Tally {
        let sum = |key| report.jobs.iter().filter_map(|j| j.u64(key)).sum();
        Tally { masked: sum("masked"), silent: sum("silent"), detected: sum("detected") }
    }
}

/// One campaign job: `trials_per_job` seeded fault plans against the
/// mesh, through the batch engine or scalar `run_diff`. Defined here, not
/// taken from `mtl-serve`'s registry, so the calls into `mtl-sim` and
/// `mtl-fault` sit in spans of their own.
fn job(kind: Kind, p: Params, dut_seed: u64, chunk: u32, cache: Arc<ArtifactCache>) -> Job {
    Job::new(format!("chunk{chunk}"), move |jc| {
        let t_body = Instant::now();
        let _body = trace::span("harness", "job_body");
        let top = MeshTrafficRtlHarness::new(p.routers, INJECTION_PERMILLE, dut_seed);
        let build =
            |engine| Sim::build_shared(&top, engine, &SimConfig::default(), &cache, dut_seed);
        // One probe elaboration yields the design plans are drawn against.
        let probe = trace::timed("sim.build", "probe", || build(Engine::Interpreted))
            .0
            .map_err(|e| format!("elaboration failed: {e:?}"))?;
        let (plans, plan_secs) = trace::timed("fault", "plan", || {
            (0..p.trials_per_job)
                .map(|t| {
                    let seed = mix(jc.seed, (u64::from(chunk) << 32) | t);
                    FaultPlan::random(seed, probe.design(), &p.plan_spec())
                })
                .collect::<Vec<FaultPlan>>()
        });
        drop(probe);
        let (reports, diff_secs) = match kind {
            Kind::Batch => trace::timed("fault", "run_diff_batch", || {
                run_diff_batch_shared(&top, &plans, p.cycles, &cache, dut_seed)
            }),
            Kind::Scalar => trace::timed("fault", "run_diff", || {
                let cfg = DiffConfig::new(Engine::SpecializedOpt, p.cycles);
                plans
                    .iter()
                    .map(|plan| run_diff_shared(&top, plan, &cfg, &cache, dut_seed))
                    .collect()
            }),
        };
        let mut tally = Tally::default();
        for report in &reports? {
            tally.add(report);
        }
        Ok(JobMetrics::new()
            .det("trials", p.trials_per_job)
            .det("masked", tally.masked)
            .det("silent", tally.silent)
            .det("detected", tally.detected)
            .timing("plan_secs", plan_secs)
            .timing("diff_secs", diff_secs)
            .timing("body_secs", t_body.elapsed().as_secs_f64()))
    })
    .param("chunk", chunk)
    .uncacheable()
}

/// What one repetition hands back.
struct Rep {
    secs: f64,
    report: CampaignReport,
    /// Tape hit rate of the repetition's own artifact cache.
    tape_hit_rate: f64,
}

/// What only a decomposed repetition can tell.
struct Decomposed {
    prepare_secs: f64,
    /// Per job: `CampaignExec::run` wall minus the closure's own wall.
    overhead_secs: Vec<f64>,
    report_json_secs: f64,
}

/// Where a repetition's campaign gets its seed and journal from.
#[derive(Clone)]
struct RepEnv {
    seed: u64,
    journal_dir: PathBuf,
}

fn campaign(
    kind: Kind,
    p: Params,
    env: &RepEnv,
    rep: usize,
    cache: &Arc<ArtifactCache>,
) -> Campaign {
    // Same name and seed every repetition (so every repetition draws the
    // same plans), a journal file of its own (so none replays another).
    Campaign::new("perf_ledger_fault")
        .seed(env.seed)
        .workers(WORKERS)
        .no_cache()
        .journal(env.journal_dir.join(format!("rep{rep}.jsonl")))
        .jobs((0..p.jobs).map(|chunk| job(kind, p, env.seed, chunk, cache.clone())))
}

/// One repetition as a user runs it: `Campaign::run`.
fn rep_plain(kind: Kind, p: Params, env: &RepEnv, rep: usize) -> Rep {
    let cache = Arc::new(ArtifactCache::new());
    let t0 = Instant::now();
    let report = campaign(kind, p, env, rep, &cache).run();
    Rep { secs: t0.elapsed().as_secs_f64(), report, tape_hit_rate: cache.stats().hit_rate() }
}

/// The same repetition decomposed into the public constituents of
/// `Campaign::run` — prepare, take_next, `CampaignExec::run`, complete,
/// finish — each in a span, on the same number of worker threads.
fn rep_traced(kind: Kind, p: Params, env: &RepEnv, rep: usize) -> (Rep, Decomposed) {
    let _span = trace::span("harness", "rep");
    let cache = Arc::new(ArtifactCache::new());
    let t0 = Instant::now();
    let campaign = campaign(kind, p, env, rep, &cache);
    let (prepared, prepare_secs) = trace::timed("sweep", "prepare", || campaign.prepare());
    let exec = prepared.exec();
    let state = Mutex::new(prepared);
    let overheads = Mutex::new(Vec::new());
    {
        // The calling thread only waits, as it does inside `Campaign::run`.
        let _wait = trace::span("harness", "wait");
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    trace::set_op(rep as u32);
                    let _worker = trace::span("harness", "worker");
                    loop {
                        let pending = {
                            let _s = trace::span("sweep", "take_next");
                            state.lock().expect("campaign state").take_next()
                        };
                        let Some(pending) = pending else { break };
                        let index = pending.index;
                        let (report, secs) =
                            trace::timed("sweep", "exec_run", || exec.run(pending));
                        let body = report.f64("body_secs").unwrap_or(secs);
                        overheads.lock().expect("overheads").push(secs - body);
                        let _s = trace::span("sweep", "complete");
                        state.lock().expect("campaign state").complete(index, report);
                    }
                });
            }
        });
    }
    let prepared = state.into_inner().expect("campaign state");
    let report = trace::timed("sweep", "finish", || prepared.finish(WORKERS)).0;
    let secs = t0.elapsed().as_secs_f64();
    let (json, report_json_secs) =
        trace::timed("sweep", "report_json", || report.to_json().to_pretty());
    std::hint::black_box(json);
    let overhead_secs = overheads.into_inner().expect("overheads");
    (
        Rep { secs, report, tape_hit_rate: cache.stats().hit_rate() },
        Decomposed { prepare_secs, overhead_secs, report_json_secs },
    )
}

/// Set-up: cold builds of the simulators a trial needs before it can run
/// — one 64-lane batch simulator, or a golden and a faulty scalar one.
fn set_up(kind: Kind, p: Params, seed: u64) {
    let top = MeshTrafficRtlHarness::new(p.routers, INJECTION_PERMILLE, seed);
    match kind {
        Kind::Batch => drop(bring_up(&top, Engine::SpecializedBatch, &SimConfig::default())),
        Kind::Scalar => {
            let golden = bring_up(&top, Engine::SpecializedOpt, &SimConfig::default());
            let faulty = bring_up(&top, Engine::SpecializedOpt, &SimConfig::default());
            drop((golden, faulty));
        }
    }
}

pub fn run(kind: Kind, ctx: &mut Ctx) {
    let p = Params::of(kind, ctx.scale);
    let root = trace::span("harness", "run");
    ctx.calibrate_on(WORKERS);
    let seed = ctx.seed;
    ctx.set_up(11, |_| set_up(kind, p, seed));

    let env = RepEnv { seed: ctx.seed, journal_dir: ctx.tmp_dir().to_path_buf() };
    let mut next_rep = 0;
    let mut rep_index = || {
        next_rep += 1;
        next_rep - 1
    };
    // Every repetition is kept: all must report the same outcome counts.
    let mut reps: Vec<Rep> = Vec::new();
    if ctx.trace {
        // Each round: one repetition decomposed under spans, one plain
        // `Campaign::run` with spans off; their ratio is the overhead.
        let mut plain = Vec::new();
        let rounds = ctx.windows(ctx.seconds, |round| {
            trace::set_op(round as u32);
            let traced = rep_traced(kind, p, &env, rep_index());
            plain.push(trace::untraced(|| rep_plain(kind, p, &env, rep_index())));
            traced
        });
        let (traced, decomposed): (Vec<Rep>, Vec<Decomposed>) = rounds.into_iter().unzip();
        let traced_secs: Vec<f64> = traced.iter().map(|r| r.secs).collect();
        let plain_secs: Vec<f64> = plain.iter().map(|r| r.secs).collect();
        layer_metrics(kind, p, ctx, &traced, &decomposed);
        ctx.metrics.value(
            "trace.overhead_pct",
            (median(&traced_secs) / median(&plain_secs) - 1.0) * 100.0,
        );
        reps.extend(traced);
        reps.extend(plain);
    } else {
        reps = ctx.windows(ctx.seconds, |_| rep_plain(kind, p, &env, rep_index()));
        let secs: Vec<f64> = reps.iter().map(|r| r.secs).collect();
        ctx.metrics.set("work_per_s", Summary::of(&secs).map(|s| p.trials_per_rep() as f64 / s));
    }

    // Every repetition ran the same seeded plans: all jobs done, and the
    // same outcome counts every time.
    let tally = Tally::of_report(&reps[0].report);
    let repeatable = reps.iter().all(|r| {
        r.report.failed_count() == 0
            && r.report.done_count() == p.jobs as usize
            && Tally::of_report(&r.report) == tally
    });
    ctx.check(&format!("all {} repetitions done with tally {tally:?}", reps.len()), repeatable);
    // Windows were counted once each; count their trials instead.
    ctx.attempted += (p.trials_per_rep() - 1) * reps.len() as u64;
    let agree = agreement(kind, p, ctx);
    ctx.metrics.exact("fault.masked", tally.masked as f64);
    ctx.metrics.exact("fault.silent", tally.silent as f64);
    ctx.metrics.exact("fault.detected", tally.detected as f64);
    ctx.metrics.exact("fault.batch_scalar_agree", agree);
    drop(root);
    ctx.metrics.untouched(&[
        "core.lint_s",
        "sim.par.",
        "sim.run.",
        "sim.engine.",
        "sim.peek_ns",
        "sim.poke_ns",
        "sim.batch.",
        "fault.",
        "translate.",
        "net.",
        "soc.",
        "proc.",
        "serve.",
    ]);
}

/// Correctness outside the campaign: the leading plans through the
/// measured runner and through an independent one must agree field for
/// field. The batch engine is checked against scalar `specialized-opt`
/// (batch reports carry no trace fingerprint); the scalar runner against
/// the tree-walking interpreter, fingerprint included. Returns the share
/// that agreed.
fn agreement(kind: Kind, p: Params, ctx: &mut Ctx) -> f64 {
    let _span = trace::span("harness", "check");
    let top = MeshTrafficRtlHarness::new(p.routers, INJECTION_PERMILLE, ctx.seed);
    let design = mtl_core::elaborate(&top).expect("mesh elaborates");
    let plans: Vec<FaultPlan> = (0..p.agree_sample as u64)
        .map(|t| FaultPlan::random(mix(ctx.seed, t), &design, &p.plan_spec()))
        .collect();
    let scalar = |engine, plan| run_diff(&top, plan, &DiffConfig::new(engine, p.cycles));
    let mut agreed = 0;
    match kind {
        Kind::Batch => {
            let lanes = run_diff_batch(&top, &plans, p.cycles).expect("batch run");
            for (plan, mut lane) in plans.iter().zip(lanes) {
                let reference = scalar(Engine::SpecializedOpt, plan).expect("scalar run");
                lane.trace_fingerprint = reference.trace_fingerprint;
                agreed += usize::from(lane == reference);
            }
        }
        Kind::Scalar => {
            for plan in &plans {
                let measured = scalar(Engine::SpecializedOpt, plan).expect("scalar run");
                let reference = scalar(Engine::InterpretedOpt, plan).expect("oracle run");
                agreed += usize::from(measured == reference);
            }
        }
    }
    ctx.check(&format!("{agreed} of {} sampled plans agree", plans.len()), agreed == plans.len());
    agreed as f64 / plans.len() as f64
}

/// Per-layer figures from the traced repetitions plus direct probes of
/// the pieces a repetition cannot separate from outside.
fn layer_metrics(kind: Kind, p: Params, ctx: &mut Ctx, traced: &[Rep], parts: &[Decomposed]) {
    let _span = trace::span("harness", "probes");
    let job_timing = |key: &str| -> Vec<f64> {
        traced.iter().flat_map(|r| &r.report.jobs).filter_map(|j| j.f64(key)).collect()
    };
    let trials = p.trials_per_job as f64;
    let diff_ms = median(&job_timing("diff_secs")) * 1e3;
    let last = traced.last().expect("at least one traced repetition");
    let m = &mut ctx.metrics;
    m.value("fault.plan_us", median(&job_timing("plan_secs")) * 1e6 / trials);
    match kind {
        Kind::Batch => {
            m.value("fault.batch_pass_ms", diff_ms);
            m.value("fault.scalar_trial_ms", 0.0);
        }
        Kind::Scalar => {
            m.value("fault.batch_pass_ms", 0.0);
            m.value("fault.scalar_trial_ms", diff_ms / trials);
        }
    }
    let overheads: Vec<f64> = parts.iter().flat_map(|d| d.overhead_secs.iter().copied()).collect();
    let of = |f: fn(&Decomposed) -> f64| median(&parts.iter().map(f).collect::<Vec<f64>>());
    m.value("sweep.prepare_ms", of(|r| r.prepare_secs) * 1e3);
    m.value("sweep.job_overhead_us", median(&overheads) * 1e6);
    m.value("sweep.report_json_ms", of(|r| r.report_json_secs) * 1e3);
    m.value("sweep.jobs_done", last.report.done_count() as f64);
    m.value("sweep.jobs_failed", last.report.failed_count() as f64);
    let retries: u32 = last.report.jobs.iter().map(|j| j.attempts.saturating_sub(1)).sum();
    m.value("sweep.retries", f64::from(retries));
    m.value("sim.artifact.tape_hit_rate", last.tape_hit_rate);

    // Cold and warm builds through a shared artifact cache.
    let engine = match kind {
        Kind::Batch => Engine::SpecializedBatch,
        Kind::Scalar => Engine::SpecializedOpt,
    };
    let top = MeshTrafficRtlHarness::new(p.routers, INJECTION_PERMILLE, ctx.seed);
    let cache = ArtifactCache::new();
    let build = || {
        Sim::build_shared(&top, engine, &SimConfig::default(), &cache, ctx.seed)
            .expect("mesh elaborates")
    };
    let (_, miss) = trace::timed("sim.build", "artifact_miss", build);
    let (mut sim, hit) = trace::timed("sim.build", "artifact_hit", build);
    ctx.metrics.value("sim.artifact.miss_build_s", miss);
    ctx.metrics.value("sim.artifact.hit_build_s", hit);
    // The measured engine on its own: a cold build without the cache and,
    // for the bit-sliced engine, lane-cycles per second of one fault-free
    // pass over the window.
    let b = bring_up(&top, engine, &SimConfig::default());
    let mut totals = BuildTotals::default();
    totals.add(&b);
    totals.emit(&mut ctx.metrics);
    if kind == Kind::Batch {
        ctx.metrics.value("sim.batch.build_s", b.build_s);
        sim.reset();
        let ((), secs) = trace::timed("sim.run", "batch_pass", || sim.run(p.cycles));
        ctx.metrics
            .value("sim.batch.lane_cycles_per_s", f64::from(BATCH_LANES) * p.cycles as f64 / secs);
    }
    storage_probes(ctx);
}

/// The journal and the result cache on their own, as a campaign uses them.
fn storage_probes(ctx: &mut Ctx) {
    const ENTRIES: u64 = 200;
    let dir = ctx.tmp_dir().join("storage_probe");
    let path = dir.join("probe.jsonl");
    let metrics = JobMetrics::new().det("trials", 63u64).det("masked", 40u64).timing("secs", 0.5);
    let open = || Journal::open(&path, "probe", ctx.seed, "specialized-opt threads=2");
    let (journal, _) = open().expect("journal in the scratch directory");
    let ((), append) = trace::timed("sweep", "journal_append", || {
        (0..ENTRIES).for_each(|i| journal.record(i, "job", &metrics))
    });
    drop(journal);
    let (replayed, replay) =
        trace::timed("sweep", "journal_replay", || open().map_or(0, |(_, replay)| replay.len()));
    let cache = ResultCache::open(&dir.join("cache")).expect("cache in the scratch directory");
    let ((), store) = trace::timed("sweep", "cache_store", || {
        (0..ENTRIES).for_each(|i| cache.store(i, "job", &metrics))
    });
    let (loaded, load) = trace::timed("sweep", "cache_load", || {
        (0..ENTRIES).filter(|&i| cache.load(i).is_some()).count() as u64
    });
    ctx.check(
        &format!("journal replays {replayed} and cache loads {loaded} of {ENTRIES} entries"),
        replayed as u64 == ENTRIES && loaded == ENTRIES,
    );
    let per_entry_us = |secs: f64| secs * 1e6 / ENTRIES as f64;
    ctx.metrics.value("sweep.journal_append_us", per_entry_us(append));
    ctx.metrics.value("sweep.journal_replay_ms", replay * 1e3);
    ctx.metrics.value("sweep.cache_store_us", per_entry_us(store));
    ctx.metrics.value("sweep.cache_load_us", per_entry_us(load));
}
