//! Campaigns: a set of independent jobs, a sharded executor, and the
//! JSON report.
//!
//! The executor honors `RUSTMTL_JOBS` (or the machine's available
//! parallelism) and runs jobs on scoped worker threads pulling from a
//! shared queue. Each job is isolated with `catch_unwind` plus an
//! optional [`JobBudget`](crate::JobBudget): the soft part is a cooperative deadline, the
//! hard part a watchdog that abandons a genuinely hung attempt and
//! records it as `timed_out` — so one pathological configuration
//! degrades to a report entry instead of killing (or hanging) the
//! campaign. Panicking and timed-out jobs can be retried with
//! exponential backoff ([`Campaign::retry`]), and a checkpoint journal
//! ([`Campaign::journal`]) makes interrupted runs resumable with every
//! finished job replayed rather than recomputed. Results land in slots
//! indexed by declaration order, so the report — and its canonical
//! (wall-clock-free) form — is identical for any worker count.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::{job_fingerprint, CacheSetting, CacheStats, Fnv1a, ResultCache};
use crate::exec::{execute_job, RetryPolicy};
use crate::job::{Job, JobOutcome, JobReport};
use crate::journal::Journal;
use crate::json::Json;
use crate::progress::Progress;

/// A simulation campaign: named, seeded, and ready to run.
pub struct Campaign {
    name: String,
    seed: u64,
    jobs: Vec<Job>,
    workers: Option<usize>,
    cache: CacheSetting,
    retries: u32,
    backoff: Duration,
    journal: Option<PathBuf>,
    engine_config: Option<String>,
}

impl Campaign {
    pub fn new(name: impl Into<String>) -> Campaign {
        Campaign {
            name: name.into(),
            seed: 0x5EED_0000_BEEF,
            jobs: Vec::new(),
            workers: None,
            cache: CacheSetting::Default,
            retries: 0,
            backoff: Duration::from_millis(50),
            journal: None,
            engine_config: None,
        }
    }

    /// Sets the campaign seed; per-job seeds are derived from it and the
    /// job name, so renaming the campaign's seed re-randomizes every
    /// point deterministically.
    pub fn seed(mut self, seed: u64) -> Campaign {
        self.seed = seed;
        self
    }

    /// Overrides the worker count (otherwise `RUSTMTL_JOBS`, otherwise
    /// available parallelism).
    pub fn workers(mut self, workers: usize) -> Campaign {
        self.workers = Some(workers.max(1));
        self
    }

    /// Adds one job.
    pub fn job(mut self, job: Job) -> Campaign {
        self.jobs.push(job);
        self
    }

    /// Adds many jobs.
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = Job>) -> Campaign {
        self.jobs.extend(jobs);
        self
    }

    /// Uses an explicit result-cache directory.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.cache = CacheSetting::Dir(dir.into());
        self
    }

    /// Disables the result cache for this run.
    pub fn no_cache(mut self) -> Campaign {
        self.cache = CacheSetting::Disabled;
        self
    }

    /// Allows up to `retries` re-runs of a job whose attempt *panicked*
    /// or was *killed by the watchdog* — the transient failure classes.
    /// Jobs that return `Err` are deterministic failures and are never
    /// retried. Attempts back off exponentially from
    /// [`Campaign::retry_backoff`] (default 50 ms).
    pub fn retry(mut self, retries: u32) -> Campaign {
        self.retries = retries;
        self
    }

    /// Sets the base backoff between retry attempts (doubled per
    /// attempt).
    pub fn retry_backoff(mut self, backoff: Duration) -> Campaign {
        self.backoff = backoff;
        self
    }

    /// Enables the checkpoint journal at `path`: every finished job is
    /// appended as it completes, and a re-run of the same campaign
    /// (same name and seed) against the same path *replays* those
    /// results instead of recomputing them. See [`crate::journal`].
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.journal = Some(path.into());
        self
    }

    /// Declares the engine configuration this campaign's jobs run under
    /// (e.g. `"specialized-batch"`, or several engines joined with `+`).
    /// It becomes part of the checkpoint journal's
    /// identity header: resuming the same campaign under a *different*
    /// engine config starts the journal over instead of replaying
    /// timing metrics measured on another engine.
    pub fn engine_config(mut self, engine: impl Into<String>) -> Campaign {
        self.engine_config = Some(engine.into());
        self
    }

    fn resolve_workers(&self, njobs: usize) -> usize {
        let configured = self.workers.or_else(|| {
            std::env::var("RUSTMTL_JOBS").ok().and_then(|v| v.trim().parse::<usize>().ok())
        });
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        configured.unwrap_or(hw).clamp(1, njobs.max(1))
    }

    /// Resolves this campaign into a [`PreparedCampaign`]: the cache and
    /// journal are opened, journal replays and cache hits pre-fill their
    /// result slots, and every job that still needs execution is queued.
    /// External schedulers (the `mtl-serve` worker pool) drain the queue
    /// with [`PreparedCampaign::take_next`] / [`CampaignExec::run`] /
    /// [`PreparedCampaign::complete`]; [`Campaign::run`] is exactly that
    /// loop on scoped threads.
    ///
    /// # Panics
    ///
    /// Panics if two jobs share a name (names key the report and cache).
    pub fn prepare(self) -> PreparedCampaign {
        let Campaign { name, seed, jobs, .. } = &self;
        {
            let mut names: Vec<&str> = jobs.iter().map(|j| j.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), jobs.len(), "campaign '{name}': job names must be unique");
        }
        let cache = self.cache.resolve().and_then(|dir| ResultCache::open(&dir));
        let engine_config = self.engine_config.clone().unwrap_or_default();
        let (journal, replay) = match &self.journal {
            Some(path) => match Journal::open(path, name, *seed, &engine_config) {
                Some((journal, replay)) => (Some(Arc::new(journal)), replay),
                None => {
                    eprintln!(
                        "mtl-sweep: cannot open journal {} (campaign runs unjournalled)",
                        path.display()
                    );
                    (None, Default::default())
                }
            },
            None => (None, Default::default()),
        };
        let campaign_name = name.clone();
        let campaign_seed = *seed;
        let policy = RetryPolicy { retries: self.retries, backoff: self.backoff };
        let started = Instant::now();
        let total = jobs.len();

        // Declaration-order result slots keep reports deterministic
        // regardless of completion order.
        let mut slots: Vec<Option<JobReport>> = Vec::new();
        slots.resize_with(total, || None);

        let mut pending: VecDeque<PendingJob> = VecDeque::new();
        for (index, job) in self.jobs.into_iter().enumerate() {
            let seed = Fnv1a::new().write_u64(campaign_seed).write_str(job.name()).finish();
            let fingerprint = job_fingerprint(&campaign_name, &job, seed);
            // Journal replay first: results checkpointed by an earlier
            // (interrupted) run of this exact campaign, regardless of
            // cache configuration.
            if let Some(metrics) =
                replay.get(&fingerprint).filter(|m| !job.expects_profile || m.profile().is_some())
            {
                slots[index] = Some(JobReport {
                    name: job.name().to_string(),
                    params: job.params.clone(),
                    seed,
                    fingerprint,
                    outcome: JobOutcome::Done { metrics: metrics.clone(), cached: false },
                    wall: Duration::ZERO,
                    attempts: 0,
                    replayed: true,
                    fallbacks: Vec::new(),
                    quarantine: None,
                });
                continue;
            }
            // Cache probe: hits never hit the worker pool. A job that
            // expects a profile section is only satisfied by a cached
            // result that actually carries one — otherwise a warm cache
            // would silently answer a `--profile` run with profile-less
            // results from an earlier plain run.
            if job.cacheable {
                if let Some(metrics) = cache
                    .as_ref()
                    .and_then(|c| c.load(fingerprint))
                    .filter(|m| !job.expects_profile || m.profile().is_some())
                {
                    if let Some(journal) = &journal {
                        journal.record(fingerprint, job.name(), &metrics);
                    }
                    slots[index] = Some(JobReport {
                        name: job.name().to_string(),
                        params: job.params.clone(),
                        seed,
                        fingerprint,
                        outcome: JobOutcome::Done { metrics, cached: true },
                        wall: Duration::ZERO,
                        attempts: 0,
                        replayed: false,
                        fallbacks: Vec::new(),
                        quarantine: None,
                    });
                    continue;
                }
            }
            pending.push_back(PendingJob { index, seed, fingerprint, job });
        }

        PreparedCampaign {
            name: campaign_name,
            seed: campaign_seed,
            exec: CampaignExec { cache, journal, policy },
            slots,
            pending,
            started,
        }
    }

    /// Runs every job and returns the complete report. Never panics on
    /// job failure; panicking jobs become `failed` report entries and
    /// watchdog-killed jobs `timed_out` entries.
    pub fn run(self) -> CampaignReport {
        let workers = self.resolve_workers(self.jobs.len());
        let prepared = self.prepare();
        let progress = Progress::new(prepared.total());
        for report in prepared.slots.iter().flatten() {
            progress.job_done(&report.name, false, true);
        }
        let exec = prepared.exec();
        let state = Mutex::new(prepared);

        let worker_loop = || loop {
            let Some(pending) = state.lock().unwrap_or_else(|e| e.into_inner()).take_next() else {
                break;
            };
            let index = pending.index;
            let report = exec.run(pending);
            progress.job_done(&report.name, !report.outcome.is_done(), false);
            state.lock().unwrap_or_else(|e| e.into_inner()).complete(index, report);
        };
        if workers <= 1 {
            // Single-thread fallback: run inline, no thread machinery.
            worker_loop();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker_loop);
                }
            });
        }

        state.into_inner().unwrap_or_else(|e| e.into_inner()).finish(workers)
    }
}

/// One queued job of a prepared campaign: its declaration-order slot
/// index, derived per-job seed, and result fingerprint.
#[derive(Debug)]
pub struct PendingJob {
    pub index: usize,
    pub seed: u64,
    pub fingerprint: u64,
    pub job: Job,
}

/// The cloneable execution context of a prepared campaign: result cache,
/// checkpoint journal, and retry policy. Workers clone one of these, run
/// jobs outside any scheduler lock, and hand the reports back via
/// [`PreparedCampaign::complete`].
#[derive(Clone)]
pub struct CampaignExec {
    cache: Option<ResultCache>,
    journal: Option<Arc<Journal>>,
    policy: RetryPolicy,
}

impl CampaignExec {
    /// Executes one pending job with full campaign semantics (watchdog,
    /// retry, result-cache store) and checkpoints `Done` outcomes to the
    /// journal.
    pub fn run(&self, pending: PendingJob) -> JobReport {
        let PendingJob { seed, fingerprint, job, .. } = pending;
        let report = execute_job(job, seed, fingerprint, self.cache.as_ref(), self.policy);
        if let (JobOutcome::Done { metrics, .. }, Some(journal)) = (&report.outcome, &self.journal)
        {
            journal.record(fingerprint, &report.name, metrics);
        }
        report
    }
}

/// A campaign resolved for execution: pre-filled slots (journal replays
/// and cache hits) plus the queue of jobs that still need a worker. See
/// [`Campaign::prepare`].
pub struct PreparedCampaign {
    name: String,
    seed: u64,
    exec: CampaignExec,
    slots: Vec<Option<JobReport>>,
    pending: VecDeque<PendingJob>,
    started: Instant,
}

impl PreparedCampaign {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of jobs (pre-filled plus pending).
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Jobs still waiting for a worker.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Slots already filled (journal replays, cache hits, and completed
    /// executions).
    pub fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True once every slot is filled.
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// A clone of the execution context for worker threads.
    pub fn exec(&self) -> CampaignExec {
        self.exec.clone()
    }

    /// The reports pre-filled by `prepare` (journal replays and cache
    /// hits), so a scheduler can announce them before any worker runs.
    pub fn prefilled(&self) -> impl Iterator<Item = &JobReport> {
        self.slots.iter().flatten()
    }

    /// Pops the next job to execute, in declaration order.
    pub fn take_next(&mut self) -> Option<PendingJob> {
        self.pending.pop_front()
    }

    /// Files a finished job's report into its slot.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or already filled.
    pub fn complete(&mut self, index: usize, report: JobReport) {
        assert!(self.slots[index].is_none(), "slot {index} completed twice");
        self.slots[index] = Some(report);
    }

    /// Assembles the final report. `workers` is recorded verbatim (the
    /// scheduler knows how many threads actually served this campaign).
    ///
    /// # Panics
    ///
    /// Panics if any slot is unfilled (a scheduler bug: every taken job
    /// must be completed).
    pub fn finish(self, workers: usize) -> CampaignReport {
        let cache_stats = self.exec.cache.as_ref().map(|c| c.stats());
        let jobs: Vec<JobReport> =
            self.slots.into_iter().map(|slot| slot.expect("every job slot filled")).collect();
        CampaignReport {
            campaign: self.name,
            seed: self.seed,
            workers,
            wall: self.started.elapsed(),
            jobs,
            cache_stats,
        }
    }
}

/// Everything a finished campaign measured, in declaration order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub campaign: String,
    pub seed: u64,
    pub workers: usize,
    pub wall: Duration,
    pub jobs: Vec<JobReport>,
    /// Result-cache probe counters for this run (`None` when the cache
    /// was disabled or failed to open).
    pub cache_stats: Option<CacheStats>,
}

impl CampaignReport {
    /// Looks a job up by name.
    pub fn get(&self, name: &str) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Shorthand for `get(name)` then metric lookup.
    pub fn metric(&self, job: &str, metric: &str) -> Option<f64> {
        self.get(job).and_then(|j| j.f64(metric))
    }

    pub fn done_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_done()).count()
    }

    /// Jobs that ended in any non-`Done` state (failures and timeouts).
    pub fn failed_count(&self) -> usize {
        self.jobs.len() - self.done_count()
    }

    pub fn cached_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_cached()).count()
    }

    /// Jobs abandoned by the watchdog.
    pub fn timed_out_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_timed_out()).count()
    }

    /// Jobs replayed from the checkpoint journal this run.
    pub fn replayed_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.replayed).count()
    }

    /// Jobs actually executed this run (not cached, not replayed).
    pub fn executed_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.attempts > 0).count()
    }

    /// Total engine-ladder descents across every job this run.
    pub fn fallback_count(&self) -> usize {
        self.jobs.iter().map(|j| j.fallbacks.len()).sum()
    }

    /// Engine-ladder descents grouped by the engine that *failed* (the
    /// `from` rung), sorted by engine name — a silent engine bug shows
    /// up here as a nonzero count for that engine.
    pub fn fallbacks_by_engine(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for fallback in self.jobs.iter().flat_map(|j| &j.fallbacks) {
            match counts.iter_mut().find(|(engine, _)| *engine == fallback.from) {
                Some((_, n)) => *n += 1,
                None => counts.push((fallback.from.clone(), 1)),
            }
        }
        counts.sort();
        counts
    }

    /// Quarantine reproducers written this run, one per degraded job.
    pub fn quarantined(&self) -> Vec<&std::path::Path> {
        self.jobs.iter().filter_map(|j| j.quarantine.as_deref()).collect()
    }

    /// The full report document (the `BENCH_*.json` schema — see
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("campaign", self.campaign.as_str())
            .set("seed", self.seed)
            .set("workers", self.workers)
            .set("wall_secs", self.wall.as_secs_f64());
        let mut summary = Json::obj();
        summary
            .set("jobs", self.jobs.len())
            .set("done", self.done_count())
            .set("failed", self.failed_count())
            .set("timed_out", self.timed_out_count())
            .set("cached", self.cached_count())
            .set("replayed", self.replayed_count());
        // Result-cache probe counters, so shared-cache behavior (e.g.
        // concurrent `mtl-serve` campaigns on one cache dir) is
        // measurable from the report alone. Wall-clock-free but
        // *scheduling-dependent* (a journal replay skips the probe), so
        // like `workers` they stay out of the canonical form.
        if let Some(stats) = &self.cache_stats {
            summary
                .set("cache_hits", stats.hits)
                .set("cache_misses", stats.misses)
                .set("cache_corrupt_discarded", stats.corrupt_discarded);
        }
        // Engine-degradation metadata: scheduling- and failure-dependent
        // (like the cache counters), so full report only, never canonical.
        if self.fallback_count() > 0 {
            summary.set("fallbacks", self.fallback_count());
            let mut by_engine = Json::obj();
            for (engine, n) in self.fallbacks_by_engine() {
                by_engine.set(engine, n);
            }
            summary.set("fallbacks_by_engine", by_engine);
            let quarantined: Vec<Json> =
                self.quarantined().iter().map(|p| Json::Str(p.display().to_string())).collect();
            summary.set("quarantined", Json::Arr(quarantined));
        }
        doc.set("summary", summary);
        let jobs: Vec<Json> = self.jobs.iter().map(job_json).collect();
        doc.set("jobs", Json::Arr(jobs));
        doc
    }

    /// The canonical form: wall-clock-dependent fields (worker count,
    /// wall times, timing metrics, cache flags) stripped. Two runs of the
    /// same campaign — any worker count, warm or cold cache — produce
    /// byte-identical canonical reports; the determinism tests assert
    /// exactly this.
    pub fn to_canonical_json(&self) -> Json {
        canonical_json(&self.to_json())
    }

    /// Pretty-printed [`CampaignReport::to_json`].
    pub fn json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Pretty-printed [`CampaignReport::to_canonical_json`].
    pub fn canonical_json_string(&self) -> String {
        self.to_canonical_json().to_pretty()
    }

    /// Writes the report to `path` (the `BENCH_<fig>.json` convention).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing the file.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path.as_ref(), self.json_string())
    }
}

/// The canonical slice of a report *document* — what
/// [`CampaignReport::to_json`] renders, or the `report` a daemon
/// streams back: campaign identity plus each job's name, params, seed,
/// fingerprint, outcome, deterministic metrics and error. Scheduling-
/// and failure-path metadata (`summary`, attempts, timing, profile,
/// engine fallbacks) is left out, so a degraded or resumed run still
/// matches a clean one.
pub fn canonical_json(report: &Json) -> Json {
    let keep = |from: &Json, keys: &[&str]| {
        let mut out = Json::obj();
        for &key in keys {
            if let Some(value) = from.get(key) {
                out.set(key, value.clone());
            }
        }
        out
    };
    let mut doc = keep(report, &["campaign", "seed"]);
    let jobs = report.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    let job_keys = ["name", "params", "seed", "fingerprint", "outcome", "metrics", "error"];
    doc.set("jobs", jobs.iter().map(|j| keep(j, &job_keys)).collect::<Vec<Json>>());
    doc
}

fn job_json(job: &JobReport) -> Json {
    let mut j = Json::obj();
    j.set("name", job.name.as_str());
    let mut params = Json::obj();
    for (k, v) in &job.params {
        params.set(k.clone(), v.as_str());
    }
    // Per-job seeds use the full 64 bits; hex strings keep them exact
    // (JSON numbers are f64 and truncate past 2^53).
    j.set("params", params)
        .set("seed", format!("{:016x}", job.seed))
        .set("fingerprint", format!("{:016x}", job.fingerprint));
    let attempted = |j: &mut Json| {
        j.set("attempts", job.attempts).set("wall_secs", job.wall.as_secs_f64());
    };
    match &job.outcome {
        JobOutcome::Done { metrics, cached } => {
            j.set("outcome", "done").set("cached", *cached).set("replayed", job.replayed);
            attempted(&mut j);
            let (det, timing, profile) = metrics.to_json();
            j.set("metrics", det).set("timing", timing);
            if let Some(profile) = profile {
                j.set("profile", profile);
            }
        }
        JobOutcome::Failed { error } => {
            j.set("outcome", "failed");
            attempted(&mut j);
            j.set("error", error.as_str());
        }
        JobOutcome::TimedOut { limit } => {
            j.set("outcome", "timed_out");
            attempted(&mut j);
            j.set("error", format!("watchdog: no result within {:.3}s", limit.as_secs_f64()));
        }
    }
    if !job.fallbacks.is_empty() {
        let fallbacks: Vec<Json> = job
            .fallbacks
            .iter()
            .map(|f| {
                let mut o = Json::obj();
                o.set("from", f.from.as_str())
                    .set("to", f.to.as_str())
                    .set("error", f.error.as_str());
                o
            })
            .collect();
        j.set("fallbacks", Json::Arr(fallbacks));
        if let Some(path) = &job.quarantine {
            j.set("quarantine", path.display().to_string());
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobMetrics;

    fn arithmetic_campaign(workers: usize) -> CampaignReport {
        Campaign::new("unit")
            .seed(7)
            .workers(workers)
            .no_cache()
            .jobs((0..13).map(|i| {
                Job::new(format!("point{i:02}"), move |ctx| {
                    Ok(JobMetrics::new()
                        .det("square", (i * i) as u64)
                        .det("seed_lo", ctx.seed & 0xFFFF)
                        .timing("wallish", i as f64 * 0.25))
                })
                .param("i", i)
            }))
            .run()
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let one = arithmetic_campaign(1);
        let four = arithmetic_campaign(4);
        assert_eq!(one.canonical_json_string(), four.canonical_json_string());
        assert_eq!(one.done_count(), 13);
        assert_eq!(four.workers, 4);
        assert_eq!(one.workers, 1);
        assert_eq!(one.metric("point03", "square"), Some(9.0));
    }

    #[test]
    fn panics_degrade_to_failed_entries() {
        let report = Campaign::new("unit-panics")
            .workers(3)
            .no_cache()
            .job(Job::new("fine", |_| Ok(JobMetrics::new().det("v", 1u64))))
            .job(Job::new("boom", |_| -> Result<JobMetrics, String> {
                panic!("deliberate test panic")
            }))
            .job(Job::new("errs", |_| Err("soft failure".to_string())))
            .run();
        assert_eq!(report.done_count(), 1);
        assert_eq!(report.failed_count(), 2);
        let boom = report.get("boom").unwrap();
        match &boom.outcome {
            JobOutcome::Failed { error } => {
                assert!(error.contains("deliberate test panic"), "{error}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
        // The report document is still complete and well-formed.
        let doc = crate::json::parse(&report.json_string()).unwrap();
        assert_eq!(doc.get("summary").unwrap().get("failed").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("jobs").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn budget_overrun_is_reported_failed() {
        let report = Campaign::new("unit-budget")
            .workers(1)
            .no_cache()
            .job(
                Job::new("slow", |_| {
                    std::thread::sleep(Duration::from_millis(30));
                    Ok(JobMetrics::new())
                })
                .budget(Duration::from_millis(5)),
            )
            .run();
        assert_eq!(report.failed_count(), 1);
        let err = match &report.get("slow").unwrap().outcome {
            JobOutcome::Failed { error } => error.clone(),
            other => panic!("expected budget failure, got {other:?}"),
        };
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn cache_round_trip_reuses_every_fingerprint() {
        let dir =
            std::env::temp_dir().join(format!("mtl-sweep-campaign-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            Campaign::new("unit-cache").workers(2).cache_dir(&dir).jobs((0..6).map(|i| {
                Job::new(format!("p{i}"), move |_| Ok(JobMetrics::new().det("v", (i * 10) as u64)))
                    .param("i", i)
            }))
        };
        let cold = build().run();
        assert_eq!(cold.cached_count(), 0);
        assert_eq!(cold.done_count(), 6);
        let warm = build().run();
        assert_eq!(warm.cached_count(), 6, "warm run must reuse every fingerprint");
        assert_eq!(cold.canonical_json_string(), warm.canonical_json_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_counters_surface_in_the_report_summary() {
        let dir =
            std::env::temp_dir().join(format!("mtl-sweep-cache-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            Campaign::new("unit-stats").workers(1).cache_dir(&dir).jobs((0..3).map(|i| {
                Job::new(format!("p{i}"), move |_| Ok(JobMetrics::new().det("v", i))).param("i", i)
            }))
        };
        let cold = build().run();
        let stats = cold.cache_stats.expect("cache enabled");
        assert_eq!((stats.hits, stats.misses, stats.corrupt_discarded), (0, 3, 0));
        let warm = build().run();
        assert_eq!(warm.cache_stats.unwrap().hits, 3);
        let doc = crate::json::parse(&warm.json_string()).unwrap();
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("cache_hits").unwrap().as_u64(), Some(3));
        assert_eq!(summary.get("cache_misses").unwrap().as_u64(), Some(0));
        assert_eq!(summary.get("cache_corrupt_discarded").unwrap().as_u64(), Some(0));
        // With the cache disabled the counters stay out of the summary.
        let off = Campaign::new("unit-stats-off")
            .no_cache()
            .job(Job::new("p", |_| Ok(JobMetrics::new())))
            .run();
        assert!(off.cache_stats.is_none());
        let doc = crate::json::parse(&off.json_string()).unwrap();
        assert!(doc.get("summary").unwrap().get("cache_hits").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The prepare/take_next/complete/finish API an external scheduler
    /// drives must produce the same report `run()` does.
    #[test]
    fn prepared_campaigns_drain_to_the_same_report() {
        let build = || {
            Campaign::new("unit-prepared").seed(3).no_cache().jobs((0..5).map(|i| {
                Job::new(format!("p{i}"), move |_| Ok(JobMetrics::new().det("v", i * i)))
                    .param("i", i)
            }))
        };
        let via_run = build().workers(2).run();
        let mut prepared = build().prepare();
        assert_eq!(prepared.total(), 5);
        assert_eq!(prepared.pending_len(), 5);
        assert_eq!(prepared.filled(), 0);
        let exec = prepared.exec();
        // Drain out of declaration order, as a work-stealing pool would.
        let mut taken = Vec::new();
        while let Some(p) = prepared.take_next() {
            taken.push(p);
        }
        taken.reverse();
        for pending in taken {
            let index = pending.index;
            let report = exec.run(pending);
            prepared.complete(index, report);
        }
        assert!(prepared.is_complete());
        let via_prepare = prepared.finish(2);
        assert_eq!(via_run.canonical_json_string(), via_prepare.canonical_json_string());
    }

    #[test]
    fn uncacheable_jobs_rerun_even_with_warm_cache() {
        let dir =
            std::env::temp_dir().join(format!("mtl-sweep-uncacheable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            Campaign::new("unit-uncacheable")
                .workers(1)
                .cache_dir(&dir)
                .job(Job::new("fresh", |_| Ok(JobMetrics::new().det("v", 1u64))).uncacheable())
        };
        build().run();
        let again = build().run();
        assert_eq!(again.cached_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
