//! The multi-campaign scheduler: one shared worker pool draining any
//! number of concurrently submitted campaigns.
//!
//! `mtl-sweep` runs one campaign on its own scoped thread pool; a
//! persistent server instead keeps a fixed pool alive and feeds it jobs
//! from every active [`PreparedCampaign`] — so a short smoke campaign
//! submitted while a long sweep runs starts immediately instead of
//! queueing behind it. Jobs execute through [`CampaignExec`], which
//! preserves the full campaign semantics (watchdog, retry, result
//! cache, journal checkpoint); this layer only decides *which* job a
//! free worker takes next (round-robin across campaigns, declaration
//! order within one).
//!
//! Progress is pushed, not polled: each submission registers an event
//! sink that receives `job_done` lines as slots fill and a terminal
//! `campaign_done` carrying the finished report. Sinks are called with
//! the scheduler lock held so one campaign's event stream is ordered —
//! they must not block (the server hands them an unbounded channel).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mtl_sim::{ArtifactCache, ArtifactStats};
use mtl_sweep::{Campaign, CampaignExec, JobOutcome, JobReport, Json, PreparedCampaign};

use crate::protocol;

/// Receives one campaign's event stream. Called with internal locks
/// held: must be cheap and non-blocking.
pub type EventSink = Box<dyn Fn(&Json) + Send + Sync>;

struct ActiveCampaign {
    id: u64,
    name: String,
    prepared: PreparedCampaign,
    exec: CampaignExec,
    sink: Arc<EventSink>,
    /// Set when the submitting client disconnected: after this deadline
    /// the campaign's still-queued jobs are cancelled. In-flight jobs
    /// always finish (and checkpoint), so the grace window bounds wasted
    /// work without tearing down workers mid-job.
    orphaned: Option<Instant>,
}

#[derive(Default)]
struct State {
    active: Vec<ActiveCampaign>,
    next_id: u64,
    completed: u64,
    /// Round-robin cursor so no campaign starves while another has
    /// thousands of pending jobs.
    rr: usize,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    artifacts: Arc<ArtifactCache>,
    shutdown: AtomicBool,
    workers: usize,
}

/// The persistent worker pool plus shared compile cache. Dropping the
/// scheduler (or calling [`Scheduler::shutdown`]) stops the workers
/// after their in-flight jobs finish.
pub struct Scheduler {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `workers` pool threads sharing `artifacts`.
    pub fn new(workers: usize, artifacts: Arc<ArtifactCache>) -> Scheduler {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            artifacts,
            shutdown: AtomicBool::new(false),
            workers,
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { shared, threads }
    }

    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// The shared compile cache (for stats and for tests).
    pub fn artifacts(&self) -> &Arc<ArtifactCache> {
        &self.shared.artifacts
    }

    /// Compile-cache counters plus (active, completed) campaign counts.
    pub fn stats(&self) -> (ArtifactStats, usize, u64) {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        (self.shared.artifacts.stats(), state.active.len(), state.completed)
    }

    /// Prepares and enqueues a campaign; its events flow to `sink`.
    ///
    /// Preparation (journal replay, cache probe) runs on the calling
    /// thread, and the sink sees one `job_done` per pre-filled slot
    /// before this returns. A campaign fully satisfied by replay/cache
    /// completes synchronously — the sink receives `campaign_done` and
    /// no worker is involved.
    ///
    /// # Errors
    ///
    /// Rejects a campaign whose name is already active: two live
    /// campaigns with one name would race for the same journal file.
    pub fn submit(&self, campaign: Campaign, sink: EventSink) -> Result<u64, String> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err("server is shutting down".to_string());
        }
        let prepared = campaign.prepare();
        let sink = Arc::new(sink);
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.active.iter().any(|c| c.name == prepared.name()) {
            return Err(format!("campaign \"{}\" is already running", prepared.name()));
        }
        let id = state.next_id;
        state.next_id += 1;
        let total = prepared.total();
        let mut done = 0;
        for report in prepared.prefilled() {
            done += 1;
            sink(&protocol::job_event(prepared.name(), report, done, total));
        }
        if prepared.is_complete() {
            state.completed += 1;
            let name = prepared.name().to_string();
            let report = prepared.finish(self.shared.workers);
            sink(&protocol::campaign_done(&name, report.to_json()));
            return Ok(id);
        }
        let exec = prepared.exec();
        let name = prepared.name().to_string();
        state.active.push(ActiveCampaign { id, name, prepared, exec, sink, orphaned: None });
        drop(state);
        self.shared.work.notify_all();
        Ok(id)
    }

    /// Marks campaign `id` as orphaned: its submitting client is gone
    /// (disconnect, reset) and nobody will read further events. After
    /// `grace` elapses, a worker cancels every still-queued job of the
    /// campaign (reported `failed` with a `cancelled:` error to the dead
    /// sink, for symmetry) and retires it. Jobs already in flight run to
    /// completion and checkpoint, and `Done` jobs are already
    /// journalled — a resubmission of the same campaign replays them.
    ///
    /// Unknown ids are ignored (the campaign may have finished between
    /// the disconnect and this call).
    pub fn orphan(&self, id: u64, grace: Duration) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(campaign) = state.active.iter_mut().find(|c| c.id == id) {
            if campaign.orphaned.is_none() {
                campaign.orphaned = Some(Instant::now() + grace);
            }
        }
        drop(state);
        // Idle workers re-scan every 100ms anyway; the nudge just makes
        // short grace windows (tests) prompt.
        self.shared.work.notify_all();
    }

    /// Stops accepting work and wakes idle workers; running jobs finish.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
    }

    /// [`Scheduler::shutdown`] plus joining every worker thread.
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Cancels the still-queued jobs of every orphaned campaign whose grace
/// deadline has passed. Queued jobs become `failed` report entries (the
/// events go to the dead sink — harmless, and uniform with normal
/// completion); campaigns with no jobs left in flight retire
/// immediately, the rest retire when their last in-flight job lands.
fn cancel_expired_orphans(shared: &Shared, state: &mut State) {
    let now = Instant::now();
    let mut slot = 0;
    while slot < state.active.len() {
        let campaign = &mut state.active[slot];
        if campaign.orphaned.is_none_or(|deadline| now < deadline) {
            slot += 1;
            continue;
        }
        while let Some(pending) = campaign.prepared.take_next() {
            let report = JobReport {
                name: pending.job.name().to_string(),
                params: pending.job.params().to_vec(),
                seed: pending.seed,
                fingerprint: pending.fingerprint,
                outcome: JobOutcome::Failed { error: "cancelled: client disconnected".to_string() },
                wall: Duration::ZERO,
                attempts: 0,
                replayed: false,
                fallbacks: Vec::new(),
                quarantine: None,
            };
            let done = campaign.prepared.filled() + 1;
            let total = campaign.prepared.total();
            let event = protocol::job_event(&campaign.name, &report, done, total);
            campaign.prepared.complete(pending.index, report);
            (campaign.sink)(&event);
        }
        if campaign.prepared.is_complete() {
            let campaign = state.active.remove(slot);
            state.completed += 1;
            let report = campaign.prepared.finish(shared.workers);
            (campaign.sink)(&protocol::campaign_done(&campaign.name, report.to_json()));
        } else {
            // Jobs still in flight on other workers: the queue is
            // drained, so the campaign retires via the normal
            // completion path when they land.
            slot += 1;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        cancel_expired_orphans(shared, &mut state);
        // Round-robin scan for the next campaign with queued work.
        let n = state.active.len();
        let start = if n == 0 { 0 } else { state.rr % n };
        let slot = (0..n)
            .map(|off| (start + off) % n)
            .find(|&i| state.active[i].prepared.pending_len() > 0);
        let Some(slot) = slot else {
            // Nothing runnable: campaigns may still have jobs in flight
            // on other workers. Sleep until a submit/shutdown wakes us
            // (with a timeout so a lost notification can't hang us).
            let _unused =
                shared.work.wait_timeout(state, Duration::from_millis(100)).map(|(g, _)| g);
            continue;
        };
        state.rr = slot + 1;
        let campaign = &mut state.active[slot];
        let pending = campaign.prepared.take_next().expect("pending_len > 0");
        let (id, exec, sink) = (campaign.id, campaign.exec.clone(), campaign.sink.clone());
        drop(state);

        let index = pending.index;
        let report = exec.run(pending);

        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let slot = state
            .active
            .iter()
            .position(|c| c.id == id)
            .expect("campaign stays active while its jobs are in flight");
        let campaign = &mut state.active[slot];
        let done = campaign.prepared.filled() + 1;
        let total = campaign.prepared.total();
        let event = protocol::job_event(&campaign.name, &report, done, total);
        campaign.prepared.complete(index, report);
        (campaign.sink)(&event);
        if campaign.prepared.is_complete() {
            let campaign = state.active.remove(slot);
            state.completed += 1;
            let report = campaign.prepared.finish(shared.workers);
            (campaign.sink)(&protocol::campaign_done(&campaign.name, report.to_json()));
        }
        drop(state);
        drop(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_sweep::{Job, JobMetrics};
    use std::sync::mpsc;

    fn channel_sink() -> (EventSink, mpsc::Receiver<Json>) {
        let (tx, rx) = mpsc::channel();
        (Box::new(move |j: &Json| drop(tx.send(j.clone()))), rx)
    }

    fn wait_done(rx: &mpsc::Receiver<Json>) -> Json {
        loop {
            let event = rx.recv_timeout(Duration::from_secs(30)).expect("campaign finishes");
            if event.get("type").and_then(Json::as_str) == Some("campaign_done") {
                return event;
            }
        }
    }

    fn sleepy(name: &str, jobs: usize) -> Campaign {
        Campaign::new(name).no_cache().jobs((0..jobs).map(|i| {
            Job::new(format!("j{i}"), |_| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(JobMetrics::new().det("ok", 1u64))
            })
        }))
    }

    #[test]
    fn concurrent_campaigns_interleave_and_both_finish() {
        let sched = Scheduler::new(2, Arc::new(ArtifactCache::new()));
        let (sink_a, rx_a) = channel_sink();
        let (sink_b, rx_b) = channel_sink();
        sched.submit(sleepy("a", 6), sink_a).unwrap();
        sched.submit(sleepy("b", 6), sink_b).unwrap();
        // Same name while active is rejected; finished names are free.
        let (sink_dup, _rx_dup) = channel_sink();
        assert!(sched.submit(sleepy("a", 1), sink_dup).is_err());
        for rx in [&rx_a, &rx_b] {
            let done = wait_done(rx);
            let report = done.get("report").unwrap();
            let summary = report.get("summary").unwrap();
            assert_eq!(summary.get("done").and_then(Json::as_u64), Some(6));
        }
        let (_, active, completed) = sched.stats();
        assert_eq!((active, completed), (0, 2));
        sched.join();
    }

    #[test]
    fn orphaned_campaigns_cancel_queued_jobs_after_grace() {
        let sched = Scheduler::new(1, Arc::new(ArtifactCache::new()));
        let (sink, rx) = channel_sink();
        // One worker, jobs slow enough that most are still queued when
        // the orphan grace expires.
        let campaign = Campaign::new("orphaned").no_cache().jobs((0..8).map(|i| {
            Job::new(format!("j{i}"), |_| {
                std::thread::sleep(Duration::from_millis(40));
                Ok(JobMetrics::new().det("ok", 1u64))
            })
        }));
        let id = sched.submit(campaign, sink).unwrap();
        sched.orphan(id, Duration::from_millis(60));
        let done = wait_done(&rx);
        let summary = done.get("report").unwrap().get("summary").unwrap();
        let done_n = summary.get("done").and_then(Json::as_u64).unwrap();
        let failed_n = summary.get("failed").and_then(Json::as_u64).unwrap();
        assert_eq!(done_n + failed_n, 8);
        assert!(failed_n >= 1, "queued jobs past the grace deadline are cancelled");
        assert!(done_n >= 1, "in-flight/pre-grace jobs still complete");
        let (_, active, completed) = sched.stats();
        assert_eq!((active, completed), (0, 1), "orphaned campaign retires");
        // Unknown ids (already finished) are ignored, not a panic.
        sched.orphan(id + 100, Duration::from_millis(1));
        sched.join();
    }

    #[test]
    fn an_all_prefilled_campaign_completes_synchronously() {
        let dir = std::env::temp_dir().join(format!("serve-sched-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let make = || {
            Campaign::new("sync")
                .cache_dir(&dir)
                .job(Job::new("only", |_| Ok(JobMetrics::new().det("v", 3u64))))
        };
        let sched = Scheduler::new(1, Arc::new(ArtifactCache::new()));
        let (sink, rx) = channel_sink();
        sched.submit(make(), sink).unwrap();
        wait_done(&rx);
        // Warm cache: the resubmission completes inside submit().
        let (sink, rx) = channel_sink();
        sched.submit(make(), sink).unwrap();
        let first = rx.try_recv().expect("prefilled job_done already queued");
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(true));
        let done = rx.try_recv().expect("campaign_done already queued");
        assert_eq!(done.get("type").and_then(Json::as_str), Some("campaign_done"));
        sched.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
