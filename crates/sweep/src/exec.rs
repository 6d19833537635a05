//! The single-job executor: panic isolation, watchdog, retry, caching.
//!
//! Extracted from the campaign runner so other schedulers (notably the
//! `mtl-serve` multi-campaign worker pool) can execute [`Job`]s with
//! exactly the campaign semantics: one attempt runs inline or under the
//! hard watchdog, panics and timeouts are retried with exponential
//! backoff up to [`RetryPolicy::retries`], deterministic `Err` failures
//! never retry, and a finished cacheable result is persisted.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::chaos::{self, DEGRADE_PREFIX};
use crate::job::{EngineFallback, Job, JobBudget, JobCtx, JobFn, JobOutcome, JobReport, ReproFn};

/// How attempts are retried: `retries` re-runs beyond the first attempt,
/// backing off exponentially from `backoff` (doubled per attempt).
///
/// Only *transient* failure classes retry — panics and watchdog
/// timeouts. A job that returns `Err` failed deterministically;
/// re-running a broken configuration cannot fix it, only hide it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    pub retries: u32,
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { retries: 0, backoff: Duration::from_millis(50) }
    }
}

/// One attempt's raw result, before retry policy is applied.
enum Attempt {
    Done(crate::job::JobMetrics),
    /// `Err` from the job closure, or a soft-budget overrun:
    /// deterministic — never retried.
    SoftErr(String),
    /// The closure panicked: transient by assumption — retried.
    Panicked(String),
    /// The watchdog abandoned the attempt after the hard limit.
    TimedOut(Duration),
}

/// Runs the closure once with panic isolation and the fault hooks (the
/// env-var hang hook plus the installed [`chaos`] policy). Runs
/// inline; the caller decides whether to wrap a watchdog around it.
fn run_attempt_inline(run: &JobFn, name: &str, attempt: u32, ctx: &JobCtx) -> Attempt {
    match catch_unwind(AssertUnwindSafe(|| {
        // Fault-injection hook for exercising the watchdog across process
        // boundaries (scripts/ci/45_fault.sh): hang any job whose name
        // matches the pattern. In-process panics come from the chaos
        // policy's `panic_on`.
        if let Ok(pat) = std::env::var("RUSTMTL_SWEEP_INJECT_HANG") {
            if !pat.is_empty() && name.contains(&pat) {
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        // The chaos worker hook runs inside this envelope so an
        // injected panic is caught and an injected hang is watchdogged
        // exactly like the real failures they simulate.
        if let Some(policy) = chaos::active() {
            policy.before_attempt(name, attempt, ctx.rung);
        }
        run(ctx)
    })) {
        Ok(Ok(metrics)) => Attempt::Done(metrics),
        Ok(Err(error)) => Attempt::SoftErr(error),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied())
                .unwrap_or("non-string panic payload");
            Attempt::Panicked(format!("panicked: {msg}"))
        }
    }
}

/// Runs one attempt under the hard watchdog limit: the closure executes
/// on a dedicated thread and the caller waits at most `limit` for its
/// result. A thread cannot be killed, so a hung attempt is *abandoned* —
/// detached and leaked; it keeps no locks the campaign needs, its
/// eventual result (if any) is discarded with the channel, and it dies
/// with the process.
fn run_attempt_watchdog(
    run: &JobFn,
    name: &str,
    attempt: u32,
    ctx: &JobCtx,
    limit: Duration,
) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let run = std::sync::Arc::clone(run);
    let thread_name = name.to_string();
    let ctx = ctx.clone();
    let spawned = std::thread::Builder::new().name(format!("sweep-job-{name}")).spawn(move || {
        let _ = tx.send(run_attempt_inline(&run, &thread_name, attempt, &ctx));
    });
    if spawned.is_err() {
        return Attempt::SoftErr("failed to spawn watchdog job thread".to_string());
    }
    match rx.recv_timeout(limit) {
        Ok(attempt) => attempt,
        Err(_) => Attempt::TimedOut(limit),
    }
}

/// How one attempt's result advances the job.
enum Next {
    Finish(JobOutcome),
    /// Transient failure, same rung: sleep the backoff and re-run.
    RetrySame,
    /// Ladder job, transient or divergence failure with a rung below:
    /// quarantine and retry one engine down (no backoff — the lower
    /// rung is the recovery, not a second chance for the same one).
    Descend(String),
}

/// Executes one job to a final [`JobReport`]: attempts (with watchdog
/// and retry per `policy`), engine-ladder descent for jobs that have
/// one, the soft-budget check, and — for cacheable `Done` outcomes — a
/// store into `cache`. Never panics on job failure.
///
/// Ladder semantics ([`Job::ladder`]): a *transient* failure (panic,
/// watchdog timeout) or a *divergence-sentinel* error
/// ([`DEGRADE_PREFIX`]) at a rung with a rung below it descends one
/// engine instead of consuming the retry budget; the first descent
/// writes a quarantine reproducer. The bottom rung behaves exactly like
/// a ladderless job: transient failures retry per `policy`,
/// deterministic errors fail.
pub fn execute_job(
    job: Job,
    job_seed: u64,
    fingerprint: u64,
    cache: Option<&ResultCache>,
    policy: RetryPolicy,
) -> JobReport {
    let name = job.name().to_string();
    let params = job.params.clone();
    let JobBudget { soft, hard } = job.budget;
    let cacheable = job.cacheable;
    let ladder = job.ladder.clone();
    let repro = job.repro.clone();
    let run = job.run;
    let t0 = Instant::now();
    let mut attempts = 0u32;
    // Transient retries spent on the *current* rung; descending resets
    // it, so every rung gets the full retry budget at the bottom.
    let mut rung_retries = 0u32;
    let mut rung = 0usize;
    let mut fallbacks: Vec<EngineFallback> = Vec::new();
    let mut quarantine: Option<PathBuf> = None;
    let outcome = loop {
        // The soft deadline is per attempt: a retried job gets a fresh
        // cooperative budget, like it gets a fresh watchdog window.
        let ctx = JobCtx {
            seed: job_seed,
            deadline: soft.map(|b| Instant::now() + b),
            rung,
            engine: ladder.get(rung).cloned(),
        };
        let attempt_start = Instant::now();
        attempts += 1;
        let mut attempt = match hard {
            Some(limit) => run_attempt_watchdog(&run, &name, attempts, &ctx, limit),
            None => run_attempt_inline(&run, &name, attempts, &ctx),
        };
        let can_descend = rung + 1 < ladder.len();
        // Chaos-forced sentinel trip: a successful attempt on a
        // degradable rung is declared divergent, exercising the ladder
        // without a genuinely buggy engine (the lower rung recomputes
        // the same deterministic result).
        if can_descend && matches!(attempt, Attempt::Done(_)) {
            if let Some(policy) = chaos::active() {
                if policy.trip_sentinel(&name, rung) {
                    attempt = Attempt::SoftErr(format!(
                        "{DEGRADE_PREFIX}chaos: forced divergence-sentinel trip"
                    ));
                }
            }
        }
        let next = match attempt {
            Attempt::Done(metrics) => {
                let wall = attempt_start.elapsed();
                match soft {
                    Some(b) if wall > b => Next::Finish(JobOutcome::Failed {
                        error: format!("exceeded wall-clock budget of {:.3}s", b.as_secs_f64()),
                    }),
                    _ => Next::Finish(JobOutcome::Done { metrics, cached: false }),
                }
            }
            // A divergence-sentinel error is retryable *one rung down*
            // only: re-running the same engine would reproduce the same
            // divergence, and at the bottom rung there is nothing left
            // to degrade to.
            Attempt::SoftErr(error) if can_descend && error.starts_with(DEGRADE_PREFIX) => {
                Next::Descend(error)
            }
            Attempt::SoftErr(error) => Next::Finish(JobOutcome::Failed { error }),
            Attempt::Panicked(error) if can_descend => Next::Descend(error),
            Attempt::Panicked(error) if rung_retries < policy.retries => {
                rung_retries += 1;
                let _ = error;
                Next::RetrySame
            }
            Attempt::Panicked(error) => Next::Finish(JobOutcome::Failed { error }),
            Attempt::TimedOut(limit) if can_descend => {
                Next::Descend(format!("watchdog: no result within {:.3}s", limit.as_secs_f64()))
            }
            Attempt::TimedOut(_) if rung_retries < policy.retries => {
                rung_retries += 1;
                Next::RetrySame
            }
            Attempt::TimedOut(limit) => Next::Finish(JobOutcome::TimedOut { limit }),
        };
        match next {
            Next::Finish(outcome) => break outcome,
            Next::RetrySame => {
                // Exponential backoff: base * 2^(retry-1), saturating.
                let exp =
                    policy.backoff.saturating_mul(1u32 << (rung_retries.saturating_sub(1)).min(16));
                std::thread::sleep(exp);
            }
            Next::Descend(error) => {
                if quarantine.is_none() {
                    quarantine =
                        write_quarantine(&name, &params, fingerprint, repro.as_ref(), &ctx, &error);
                }
                fallbacks.push(EngineFallback {
                    from: ladder[rung].clone(),
                    to: ladder[rung + 1].clone(),
                    error,
                });
                rung += 1;
                rung_retries = 0;
            }
        }
    };
    if cacheable {
        if let (JobOutcome::Done { metrics, .. }, Some(cache)) = (&outcome, cache) {
            cache.store(fingerprint, &name, metrics);
        }
    }
    JobReport {
        name,
        params,
        seed: job_seed,
        fingerprint,
        outcome,
        wall: t0.elapsed(),
        attempts,
        replayed: false,
        fallbacks,
        quarantine,
    }
}

/// The quarantine directory: `RUSTMTL_QUARANTINE_DIR`, defaulting to
/// `target/quarantine/`.
pub fn quarantine_dir() -> PathBuf {
    match std::env::var("RUSTMTL_QUARANTINE_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/quarantine"),
    }
}

/// Writes the quarantine reproducer for a job's first ladder descent:
/// the job's own generator if it has one, else a generic compilable
/// stub. Atomic temp+rename (the same discipline as the fuzzer's
/// reproducer writer), so a torn write never leaves a half-file a human
/// would debug. Failures are reported but never fail the job — the
/// quarantine file is diagnostics, not a correctness dependency.
fn write_quarantine(
    name: &str,
    params: &[(String, String)],
    fingerprint: u64,
    repro: Option<&ReproFn>,
    ctx: &JobCtx,
    error: &str,
) -> Option<PathBuf> {
    let contents = match repro {
        Some(gen) => gen(ctx, error),
        None => default_repro(name, params, ctx, error),
    };
    let safe: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    let dir = quarantine_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let path = dir.join(format!("{safe}_{fingerprint:016x}.rs"));
    let tmp = dir.join(format!("{safe}_{fingerprint:016x}.{}.tmp", std::process::id()));
    let written = std::fs::write(&tmp, contents).is_ok() && std::fs::rename(&tmp, &path).is_ok();
    if written {
        eprintln!(
            "mtl-sweep: job '{name}' degraded one engine rung; reproducer quarantined at {}",
            path.display()
        );
        Some(path)
    } else {
        let _ = std::fs::remove_file(&tmp);
        eprintln!("mtl-sweep: job '{name}' degraded, but writing {} failed", path.display());
        None
    }
}

/// Generic quarantine stub for jobs without a [`Job::repro`] generator:
/// compilable on its own, carrying everything needed to re-pin the
/// failing configuration by hand.
fn default_repro(name: &str, params: &[(String, String)], ctx: &JobCtx, error: &str) -> String {
    let mut src = String::new();
    src.push_str("//! Auto-written quarantine reproducer (mtl-sweep engine ladder).\n");
    src.push_str(&format!("//! job: {name}\n"));
    for (k, v) in params {
        src.push_str(&format!("//! param {k} = {v}\n"));
    }
    src.push_str(&format!("//! seed: {:#018x}\n", ctx.seed));
    if let Some(engine) = ctx.engine() {
        src.push_str(&format!("//! failing engine rung {}: {engine}\n", ctx.rung));
    }
    for line in error.lines() {
        src.push_str(&format!("//! error: {line}\n"));
    }
    src.push_str("\nfn main() {\n");
    src.push_str(&format!(
        "    // Re-run job {name:?} with seed {:#018x} on the engine above.\n",
        ctx.seed
    ));
    src.push_str(&format!("    println!(\"quarantined job: {name} (see header comments)\");\n"));
    src.push_str("}\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobMetrics;

    #[test]
    fn execute_job_retries_transient_panics_only() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        let flaky = Job::new("flaky", move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            Ok(JobMetrics::new().det("v", 9u64))
        });
        let policy = RetryPolicy { retries: 2, backoff: Duration::from_millis(1) };
        let report = execute_job(flaky, 1, 2, None, policy);
        assert!(report.outcome.is_done());
        assert_eq!(report.attempts, 2);

        let seen = attempts.clone();
        let broken = Job::new("broken", move |_| -> Result<JobMetrics, String> {
            seen.store(100, Ordering::SeqCst);
            Err("deterministic".into())
        });
        let report = execute_job(broken, 1, 3, None, policy);
        assert_eq!(report.attempts, 1, "Err never retries");
        assert!(!report.outcome.is_done());
    }

    /// Serializes tests that set `RUSTMTL_QUARANTINE_DIR` (env vars are
    /// process-global; cargo runs tests on parallel threads).
    static QUARANTINE_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn ladder_descends_on_panic_and_records_fallback() {
        let _env = QUARANTINE_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("mtl-quarantine-{}", std::process::id()));
        std::env::set_var("RUSTMTL_QUARANTINE_DIR", &dir);
        let job = Job::new("laddered", move |ctx| match ctx.engine() {
            Some("specialized-batch") => panic!("batch engine bug"),
            other => Ok(JobMetrics::new().det("v", 7u64).det("engine", other.unwrap_or("?"))),
        })
        .ladder(["specialized-batch", "interpreted"]);
        let policy = RetryPolicy { retries: 0, backoff: Duration::from_millis(1) };
        let report = execute_job(job, 11, 22, None, policy);
        assert!(report.outcome.is_done(), "bottom rung recovers the job");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.fallbacks.len(), 1);
        assert_eq!(report.fallbacks[0].from, "specialized-batch");
        assert_eq!(report.fallbacks[0].to, "interpreted");
        assert!(report.fallbacks[0].error.contains("batch engine bug"));
        let path = report.quarantine.expect("first descent writes a reproducer");
        let src = std::fs::read_to_string(&path).expect("reproducer readable");
        assert!(src.contains("fn main()"), "reproducer is compilable source");
        assert!(src.contains("laddered"));
        std::env::remove_var("RUSTMTL_QUARANTINE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ladder_divergence_sentinel_error_descends_but_bottom_rung_fails() {
        let job = Job::new("diverge-all", move |_| -> Result<JobMetrics, String> {
            Err(format!("{DEGRADE_PREFIX}lane 3 disagrees with scalar"))
        })
        .ladder(["specialized-opt", "interpreted"]);
        let _env = QUARANTINE_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("mtl-quarantine2-{}", std::process::id()));
        std::env::set_var("RUSTMTL_QUARANTINE_DIR", &dir);
        let report = execute_job(job, 1, 2, None, RetryPolicy::default());
        std::env::remove_var("RUSTMTL_QUARANTINE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        // One descent (opt -> interpreted), then the bottom rung's
        // divergence error is a plain deterministic failure.
        assert_eq!(report.fallbacks.len(), 1);
        assert!(matches!(report.outcome, JobOutcome::Failed { .. }));
        assert_eq!(report.attempts, 2);
    }
}
