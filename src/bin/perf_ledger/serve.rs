//! `serve_roundtrip`: closed-loop clients against an in-process
//! `mtl-serve` daemon on a real unix socket.
//!
//! Jobs are short and, after the warm-up, every compile is an
//! `ArtifactCache` hit — so the protocol, spec → campaign conversion, the
//! scheduler, the journal and report serialisation dominate and the tape
//! loop does little. Two client connections (the reference container's
//! cores), each submitting its next campaign only when the previous one
//! is done.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtl_net::NetLevel;
use mtl_serve::{campaign_from_spec, Client, Server, ServerConfig, SpecDefaults};
use mtl_sim::ArtifactCache;
use mtl_soc::{Soc, SocConfig, SocTraffic};
use mtl_sweep::Json;

use crate::run::{Ctx, Scale};
use crate::stats::{median, percentile, Summary};
use crate::trace;

/// Client connections and server workers.
const CLIENTS: usize = 2;
/// Jobs in every submitted campaign.
const JOBS: usize = 4;
/// Submissions that fill the server's artifact cache before timing starts.
const WARMUP_SUBMISSIONS: usize = 6;
/// Submissions per fixed-work throughput window (over both clients).
const WINDOW_SUBMISSIONS: usize = 24;
const SOC_SEED: u64 = 0xC0DE;

#[derive(Debug, Clone, Copy)]
struct Params {
    routers: u64,
    cycles: u64,
    soc_limit: u32,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params { routers: 16, cycles: 200, soc_limit: 16 },
            Scale::Tiny => Params { routers: 4, cycles: 20, soc_limit: 4 },
        }
    }

    fn soc(&self) -> Soc {
        Soc::new(
            SocConfig::synthetic(4, NetLevel::Rtl, SocTraffic::UniformRandom)
                .with_limit(self.soc_limit)
                .with_seed(SOC_SEED),
        )
    }
}

/// The one campaign shape every submission uses: a CL and an RTL mesh
/// run, one scalar fault chunk and one 4-tile SoC drain. The campaign
/// seed (hence traffic and fault plans) varies per submission; the name
/// does too, because the daemon journals per campaign name and a repeated
/// name would replay instead of run. `jobs` keeps only the leading jobs.
fn campaign_spec(p: Params, name: &str, seed: u64, jobs: usize) -> Json {
    let mesh = |name: &str, level: &str| {
        let mut j = Json::obj();
        j.set("kind", "mesh_cycles")
            .set("name", name)
            .set("level", level)
            .set("nrouters", p.routers)
            .set("cycles", p.cycles)
            .set("engine", "specialized-opt");
        j
    };
    let mut fault = Json::obj();
    fault
        .set("kind", "fault_chunk")
        .set("name", "fault")
        .set("dut", "mesh-ir")
        .set("nrouters", p.routers)
        .set("trials", 1u64)
        .set("cycles", p.cycles / 2)
        .set("faults", 1u64);
    let mut soc = Json::obj();
    soc.set("kind", "soc_cycles")
        .set("name", "soc")
        .set("net", "RTL")
        .set("tiles", 4u64)
        .set("limit", p.soc_limit)
        .set("seed", SOC_SEED)
        .set("cycles", 20_000u64);
    let mut spec = Json::obj();
    spec.set("name", name).set("seed", seed).set("no_cache", true);
    let all = [mesh("mesh_cl", "CL"), mesh("mesh_rtl", "RTL"), fault, soc];
    spec.set("jobs", all.into_iter().take(jobs).collect::<Vec<Json>>());
    spec
}

/// A daemon serving on a unix socket from a thread of this process.
struct Daemon {
    server: Server,
    socket: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Starts the daemon and returns once a client can say hello.
    fn start(dir: &Path) -> (Daemon, Client) {
        let _span = trace::span("serve", "start");
        std::fs::create_dir_all(dir).expect("daemon directory");
        let server = Server::new(ServerConfig {
            workers: CLIENTS,
            cache_dir: None,
            journal_dir: Some(dir.join("journal")),
            orphan_grace: Duration::from_secs(2),
        });
        let socket = dir.join("s.sock");
        let thread = {
            let (server, socket) = (server.clone(), socket.clone());
            std::thread::spawn(move || server.serve_unix(&socket))
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut client = loop {
            match Client::connect(&socket) {
                Ok(client) => break client,
                Err(e) if Instant::now() > deadline => panic!("daemon never came up: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        client.hello().expect("daemon speaks this protocol version");
        (Daemon { server, socket, thread: Some(thread) }, client)
    }
}

impl Drop for Daemon {
    /// Stops the accept loop and waits for it and its connection
    /// handlers: no thread of the daemon outlives the run.
    fn drop(&mut self) {
        self.server.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What a client learned from one submission.
struct Submission {
    done_secs: f64,
    first_event_secs: f64,
    /// Sum of the jobs' own `wall_secs`, from the report.
    job_wall_secs: f64,
    /// When the campaign was done, since the run's epoch.
    finished_at: f64,
    ok: bool,
    /// Whether this submission ran inside a span.
    spans_on: bool,
    /// `received` of the CL mesh job: an exact count for a given seed.
    mesh_received: u64,
}

/// Submits one campaign and checks its report: every job done, the SoC
/// drained to the host's golden checksum.
fn submit(
    client: &mut Client,
    p: Params,
    name: &str,
    seed: u64,
    golden: u32,
    epoch: Instant,
    spans_on: bool,
) -> Submission {
    let _span = spans_on.then(|| trace::span("serve", "submit"));
    let spec = campaign_spec(p, name, seed, JOBS);
    let t0 = Instant::now();
    let mut first_event = None;
    let report = client.submit(&spec, |_event| {
        first_event.get_or_insert_with(|| t0.elapsed().as_secs_f64());
    });
    let done_secs = t0.elapsed().as_secs_f64();
    let finished_at = epoch.elapsed().as_secs_f64();
    let jobs: &[Json] = match &report {
        Ok(r) => r.get("jobs").and_then(Json::as_arr).unwrap_or(&[]),
        Err(_) => &[],
    };
    let metric = |job: &str, key: &str| {
        jobs.iter()
            .find(|j| j.get("name").and_then(Json::as_str) == Some(job))
            .and_then(|j| j.get("metrics")?.get(key)?.as_u64())
    };
    let all_done = jobs.len() == JOBS
        && jobs.iter().all(|j| j.get("outcome").and_then(Json::as_str) == Some("done"));
    let drained =
        metric("soc", "drained") == Some(1) && metric("soc", "checksum") == Some(u64::from(golden));
    Submission {
        done_secs,
        first_event_secs: first_event.unwrap_or(done_secs),
        job_wall_secs: jobs.iter().filter_map(|j| j.get("wall_secs")?.as_f64()).sum(),
        finished_at,
        spans_on,
        ok: all_done && drained && metric("mesh_rtl", "misrouted") == Some(0),
        mesh_received: metric("mesh_cl", "received").unwrap_or(0),
    }
}

/// Set-up as a user pays it: start the daemon, connect, say hello, and
/// fill its artifact cache. Returns the warm daemon, how long it took to
/// answer its first hello, and whether every warm-up submission was done.
fn set_up(p: Params, dir: &Path, seed: u64, golden: u32) -> (Daemon, f64, bool) {
    let t0 = Instant::now();
    let (daemon, mut client) = Daemon::start(dir);
    let start_secs = t0.elapsed().as_secs_f64();
    let _span = trace::span("serve", "warmup");
    let ok = (0..WARMUP_SUBMISSIONS).all(|i| {
        submit(&mut client, p, &format!("warm{i}"), seed + i as u64, golden, t0, false).ok
    });
    (daemon, start_secs, ok)
}

pub fn run(ctx: &mut Ctx) {
    let p = Params::of(ctx.scale);
    let root = trace::span("harness", "run");
    let golden = p.soc().golden_checksum().expect("synthetic soc");
    let dir = ctx.tmp_dir().to_path_buf();

    ctx.calibrate_on(CLIENTS);
    let seed = ctx.seed;
    let (daemon, start_secs, warm) =
        ctx.set_up(7, |rep| set_up(p, &dir.join(format!("d{rep}")), seed, golden));
    ctx.check("warm-up submissions done", warm);

    // Closed loop: each client submits its next campaign when the last is
    // done, until the time is up and enough windows are in. The clients
    // leave no gap to sample host speed in, so it is sampled around them.
    const SPEED_SAMPLES: usize = 8;
    (0..SPEED_SAMPLES).for_each(|_| ctx.calibrate());
    let epoch = Instant::now();
    let min_each = (ctx.min_windows() * WINDOW_SUBMISSIONS).div_ceil(CLIENTS);
    let (seed, seconds, traced) = (ctx.seed, ctx.seconds, ctx.trace);
    let mut subs: Vec<Submission> = Vec::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let socket = daemon.socket.clone();
                scope.spawn(move || {
                    let _span = trace::span("harness", "client");
                    let mut client = Client::connect(&socket).expect("daemon is up");
                    client.hello().expect("hello");
                    let mut subs = Vec::new();
                    while subs.len() < min_each || epoch.elapsed().as_secs_f64() < seconds {
                        let i = subs.len();
                        trace::set_op((i * CLIENTS + c) as u32);
                        // Spans on every other submission: the plain ones
                        // give the tracing overhead.
                        let spans_on = traced && i % 2 == 0;
                        let _plain = (traced && !spans_on)
                            .then(|| trace::span("harness", "untraced_reference"));
                        // Distinct per client and submission; client 0's
                        // first seed is the run's own.
                        let sub_seed = seed + (i * CLIENTS + c) as u64;
                        subs.push(submit(
                            &mut client,
                            p,
                            &format!("c{c}_{i}"),
                            sub_seed,
                            golden,
                            epoch,
                            spans_on,
                        ));
                    }
                    subs
                })
            })
            .collect();
        let _wait = trace::span("harness", "wait");
        for client in clients {
            subs.extend(client.join().expect("client thread"));
        }
    });
    (0..SPEED_SAMPLES).for_each(|_| ctx.calibrate());
    ctx.record_peak_rss();
    let first_received = subs[0].mesh_received;
    let failed = subs.iter().filter(|s| !s.ok).count() as u64;
    ctx.attempted += subs.len() as u64;
    ctx.failed += failed;
    if failed > 0 {
        ctx.notes.push(format!("{failed} of {} submissions failed their check", subs.len()));
    }

    // Throughput over equal fixed-work windows of completed submissions.
    subs.sort_by(|a, b| a.finished_at.total_cmp(&b.finished_at));
    let window_jobs = (WINDOW_SUBMISSIONS * JOBS) as f64;
    let mut edges = vec![0.0];
    edges.extend(subs.chunks_exact(WINDOW_SUBMISSIONS).map(|w| w[w.len() - 1].finished_at));
    let window_secs: Vec<f64> = edges.windows(2).map(|e| e[1] - e[0]).collect();
    ctx.metrics.set("work_per_s", Summary::of(&window_secs).map(|s| window_jobs / s));
    let done_ms: Vec<f64> = subs.iter().map(|s| s.done_secs * 1e3).collect();
    ctx.metrics.set("serve.submit_done_ms_p50", Summary::of(&done_ms));
    // 95th percentile: with at least 200 samples, ten lie beyond it.
    ctx.metrics.value("serve.submit_done_ms_p95", percentile(&done_ms, 95.0));

    if ctx.trace {
        layer_metrics(p, ctx, &daemon, &subs, start_secs);
        ctx.metrics.exact("net.received", first_received as f64);
        ctx.metrics.value("serve.failed_submits", failed as f64);
    }
    drop(daemon);
    drop(root);
    ctx.metrics.untouched(&[
        "core.",
        "sim.",
        "translate.",
        "net.",
        "soc.",
        "proc.",
        "fault.",
        "sweep.",
    ]);
}

fn layer_metrics(p: Params, ctx: &mut Ctx, daemon: &Daemon, subs: &[Submission], start_secs: f64) {
    let _span = trace::span("harness", "probes");
    let ms = |f: fn(&Submission) -> f64| -> Vec<f64> { subs.iter().map(|s| f(s) * 1e3).collect() };
    let m = &mut ctx.metrics;
    m.value("serve.submit_to_first_event_ms", median(&ms(|s| s.first_event_secs)));
    m.value("serve.job_wall_ms_sum", median(&ms(|s| s.job_wall_secs)));
    m.value("serve.start_ms", start_secs * 1e3);
    let latency = |spans_on: bool| -> f64 {
        median(
            &subs
                .iter()
                .filter(|s| s.spans_on == spans_on)
                .map(|s| s.done_secs)
                .collect::<Vec<_>>(),
        )
    };
    m.value("trace.overhead_pct", (latency(true) / latency(false) - 1.0) * 100.0);

    let mut client = Client::connect(&daemon.socket).expect("daemon is up");
    let hello: Vec<f64> = (0..50)
        .map(|_| trace::timed("serve", "hello", || client.hello().expect("hello")).1 * 1e6)
        .collect();
    m.value("serve.hello_rtt_us", median(&hello));

    // Spec → campaign conversion on its own (what the daemon does per
    // submit before anything is scheduled).
    let artifacts = Arc::new(ArtifactCache::new());
    let spec = campaign_spec(p, "probe", ctx.seed, JOBS);
    let convert: Vec<f64> = (0..50)
        .map(|_| {
            trace::timed("serve", "spec_to_campaign", || {
                campaign_from_spec(&spec, &SpecDefaults::default(), &artifacts).is_ok()
            })
            .1 * 1e6
        })
        .collect();
    m.value("serve.spec_to_campaign_us", median(&convert));

    // Dispatch overhead: the latency of a one-job campaign that its one
    // job's own wall time does not cover.
    let overhead: Vec<f64> = (0..20)
        .map(|i| {
            let spec = campaign_spec(p, &format!("single{i}"), ctx.seed + i, 1);
            let t0 = Instant::now();
            let report = client.submit(&spec, |_| {}).expect("single-job campaign");
            let latency = t0.elapsed().as_secs_f64();
            let job_wall = report
                .get("jobs")
                .and_then(Json::as_arr)
                .and_then(|jobs| jobs.first()?.get("wall_secs")?.as_f64())
                .unwrap_or(0.0);
            (latency - job_wall) * 1e3
        })
        .collect();
    m.value("serve.dispatch_overhead_ms", median(&overhead));

    let stats = client.stats().expect("stats op");
    let compile = |key: &str| stats.get("compile")?.get(key)?.as_f64();
    let hits = compile("tape_hits").unwrap_or(0.0);
    let misses = compile("tape_misses").unwrap_or(0.0);
    m.value("serve.tape_hit_rate", if hits + misses == 0.0 { 0.0 } else { hits / (hits + misses) });
    m.value("serve.design_hits", compile("design_hits").unwrap_or(0.0));
}
