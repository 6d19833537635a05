//! The three steady-state workloads: one simulator built once, then
//! equal fixed-cycle windows of `Sim::run`.
//!
//! * `mesh64_rtl_steady` — the fused-tape hot loop does nearly all the
//!   work, so tape and optimizer changes must show here.
//! * `mesh64_cl_steady` — the same `sim` layer used differently: native
//!   closures and the schedule walk dominate, tapes do almost nothing.
//! * `soc64_rtl_par2` — the only workload with `specialized-par`'s
//!   partitioning, barrier and dirty-skip on the blocking path.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::Component;
use mtl_net::{HandwrittenMesh, MeshTrafficHarness, NetLevel, NetStats};
use mtl_sim::{Engine, Sim, SimConfig};
use mtl_soc::{Soc, SocConfig, SocTraffic};

use crate::bringup::{bring_up, BringUp, BuildTotals};
use crate::run::{Ctx, Scale};
use crate::stats::{median, Summary};
use crate::trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MeshRtl,
    MeshCl,
    SocPar2,
}

/// Near saturation for the 8x8 mesh (fig14's operating point).
const INJECTION_PERMILLE: u32 = 300;
/// Worker threads of the parallel engine: the reference container's cores.
const PAR_THREADS: usize = 2;

struct Params {
    /// Routers or tiles.
    nodes: usize,
    /// Simulated cycles per fixed-work window.
    window: u64,
    /// Cycles run after reset before the first window (part of set-up).
    warmup: u64,
    /// Cycles the oracle engine is compared over.
    check_cycles: u64,
    /// Cycles per window of the reference series (hand-written mesh, or
    /// `specialized-opt` and one-thread `specialized-par` for the SoC).
    reference_window: u64,
    /// Cycles of each slower engine's single window (RTL mesh only).
    ladder_cycles: [u64; 3],
    /// Packets per terminal: large enough never to drain inside a run.
    soc_limit: u32,
}

impl Params {
    fn of(kind: Kind, scale: Scale) -> Params {
        match (kind, scale) {
            (Kind::MeshRtl, Scale::Full) => Params {
                nodes: 64,
                window: 1_500,
                warmup: 200,
                check_cycles: 1_000,
                reference_window: 15_000,
                ladder_cycles: [60, 300, 600],
                soc_limit: 0,
            },
            (Kind::MeshCl, Scale::Full) => Params {
                nodes: 64,
                window: 8_000,
                warmup: 1_000,
                check_cycles: 5_000,
                reference_window: 30_000,
                ladder_cycles: [0; 3],
                soc_limit: 0,
            },
            (Kind::SocPar2, Scale::Full) => Params {
                nodes: 64,
                window: 1_500,
                warmup: 200,
                check_cycles: 2_000,
                reference_window: 1_500,
                ladder_cycles: [0; 3],
                soc_limit: 60_000,
            },
            (Kind::SocPar2, Scale::Tiny) => Params {
                nodes: 4,
                window: 40,
                warmup: 10,
                check_cycles: 60,
                reference_window: 40,
                ladder_cycles: [0; 3],
                soc_limit: 60_000,
            },
            (mesh, Scale::Tiny) => Params {
                nodes: 4,
                window: 40,
                warmup: 10,
                check_cycles: 50,
                reference_window: 200,
                ladder_cycles: if mesh == Kind::MeshRtl { [10, 20, 30] } else { [0; 3] },
                soc_limit: 0,
            },
        }
    }
}

/// The model under simulation, generated from the run's seed.
enum Top {
    Mesh(MeshTrafficHarness),
    Soc(Soc),
}

impl Top {
    fn new(kind: Kind, p: &Params, seed: u64) -> Top {
        let _span = trace::span("harness", "model");
        match kind {
            Kind::MeshRtl => {
                Top::Mesh(MeshTrafficHarness::new(NetLevel::Rtl, p.nodes, INJECTION_PERMILLE, seed))
            }
            Kind::MeshCl => {
                Top::Mesh(MeshTrafficHarness::new(NetLevel::Cl, p.nodes, INJECTION_PERMILLE, seed))
            }
            Kind::SocPar2 => Top::Soc(Soc::new(
                SocConfig::synthetic(p.nodes, NetLevel::Rtl, SocTraffic::UniformRandom)
                    .with_injection(INJECTION_PERMILLE)
                    .with_limit(p.soc_limit)
                    .with_seed(seed),
            )),
        }
    }

    fn component(&self) -> &dyn Component {
        match self {
            Top::Mesh(h) => h,
            Top::Soc(s) => s,
        }
    }

    fn net_stats(&self) -> Option<Arc<Mutex<NetStats>>> {
        match self {
            Top::Mesh(h) => Some(h.stats()),
            Top::Soc(_) => None,
        }
    }
}

fn engine_of(kind: Kind) -> (Engine, SimConfig) {
    match kind {
        Kind::MeshRtl | Kind::MeshCl => (Engine::SpecializedOpt, SimConfig::default()),
        Kind::SocPar2 => {
            (Engine::SpecializedPar, SimConfig { threads: Some(PAR_THREADS), ..Default::default() })
        }
    }
}

/// Set-up as a user pays it: model, elaborate, build, reset, warm-up.
fn set_up(kind: Kind, p: &Params, seed: u64, engine: Engine, cfg: &SimConfig) -> (Top, BringUp) {
    let top = Top::new(kind, p, seed);
    let mut b = bring_up(top.component(), engine, cfg);
    let _span = trace::span("sim.run", "warmup");
    b.sim.run(p.warmup);
    (top, b)
}

/// One fixed-work window; returns its wall seconds.
fn window(sim: &mut Sim, cycles: u64) -> f64 {
    trace::timed("sim.run", "window", || sim.run(cycles)).1
}

/// The simulated statistics a run of `cycles` cycles ends with. For the
/// mesh these are the shared `NetStats`; for the SoC the top-level
/// `injected`/`delivered`/`checksum` ports (in that order).
fn simulated_counts(top: &Top, sim: &mut Sim, cycles: u64) -> [u64; 4] {
    sim.run(cycles);
    match top.net_stats() {
        Some(stats) => {
            let s = stats.lock().expect("stats mutex");
            [s.injected, s.received, s.total_latency, s.misrouted]
        }
        None => {
            let port = |name: &str| sim.peek_port(name).as_u64();
            [port("injected"), port("delivered"), port("checksum"), 0]
        }
    }
}

/// Correctness: the measured engine against an independent oracle on the
/// first `check_cycles` cycles of the same seed, outside every timed
/// window. Returns the measured engine's counts.
fn check(kind: Kind, p: &Params, ctx: &mut Ctx) -> [u64; 4] {
    let _span = trace::span("harness", "check");
    let (engine, cfg) = engine_of(kind);
    // The mesh oracle is the tree-walking interpreter (no tapes at all);
    // the parallel engine's is `specialized-opt`, which it must match
    // cycle for cycle.
    let oracle_engine = match kind {
        Kind::MeshRtl | Kind::MeshCl => Engine::InterpretedOpt,
        Kind::SocPar2 => Engine::SpecializedOpt,
    };
    let measured = {
        let top = Top::new(kind, p, ctx.seed);
        let mut b = bring_up(top.component(), engine, &cfg);
        simulated_counts(&top, &mut b.sim, p.check_cycles)
    };
    let oracle = {
        let top = Top::new(kind, p, ctx.seed);
        let mut b = bring_up(top.component(), oracle_engine, &SimConfig::default());
        simulated_counts(&top, &mut b.sim, p.check_cycles)
    };
    ctx.check(&format!("{engine} equals {oracle_engine}: {measured:?} vs {oracle:?}"), {
        measured == oracle && measured[0] > 0 && measured[3] == 0
    });
    if kind == Kind::SocPar2 {
        // A bounded run on the measured engine must drain to the host's
        // golden checksum.
        let soc = Soc::new(
            SocConfig::synthetic(p.nodes, NetLevel::Rtl, SocTraffic::UniformRandom)
                .with_injection(INJECTION_PERMILLE)
                .with_seed(ctx.seed),
        );
        let sim = Sim::build_with_config(&soc, engine, &cfg).expect("soc elaborates");
        let out = mtl_soc::run_soc_traffic_on(&soc, sim, 20_000);
        ctx.check(
            &format!("bounded soc run drains to the golden checksum: {out:?}"),
            out.drained && Some(out.checksum) == soc.golden_checksum(),
        );
        ctx.metrics.exact("soc.drain_cycles", out.cycles as f64);
    }
    measured
}

pub fn run(kind: Kind, ctx: &mut Ctx) {
    let p = Params::of(kind, ctx.scale);
    let (engine, cfg) = engine_of(kind);
    let root = trace::span("harness", "run");
    if kind == Kind::SocPar2 {
        ctx.calibrate_on(PAR_THREADS);
    }
    let seed = ctx.seed;
    let (_top, mut b) = ctx.set_up(11, |_| set_up(kind, &p, seed, engine, &cfg));
    let mut totals = BuildTotals::default();
    totals.add(&b);

    if ctx.trace {
        traced_windows(kind, &p, ctx, &mut b.sim, &totals);
    } else {
        // The flagship also runs the hand-written mesh, one window after
        // each of its own, so `--compare` can hold the gap to a bound.
        let mut handwritten = (kind == Kind::MeshRtl)
            .then(|| HandwrittenMesh::new(p.nodes, INJECTION_PERMILLE, ctx.seed));
        let mut reference = Vec::new();
        let secs = ctx.windows(ctx.seconds, |_| {
            let secs = window(&mut b.sim, p.window);
            if let Some(hw) = &mut handwritten {
                reference.push(trace::timed("net", "handwritten", || hw.run(p.reference_window)).1);
            }
            secs
        });
        ctx.metrics.set("work_per_s", Summary::of(&secs).map(|s| p.window as f64 / s));
        if handwritten.is_some() {
            ctx.metrics.set("net.handwritten_gap", Summary::of(&gaps(&p, &secs, &reference)));
        }
    }

    // Per-layer readings: the untraced run's sink drops these names.
    let counts = check(kind, &p, ctx);
    drop(root);
    totals.emit(&mut ctx.metrics);
    let m = &mut ctx.metrics;
    match kind {
        Kind::SocPar2 => {
            m.value("sim.par.build_s", b.build_s);
            m.exact("soc.delivered", counts[1] as f64);
            m.untouched(&["net.", "sim.peek_ns", "sim.poke_ns"]);
        }
        Kind::MeshRtl | Kind::MeshCl => {
            m.exact("net.injected", counts[0] as f64);
            m.exact("net.received", counts[1] as f64);
            let latency = if counts[1] == 0 { 0.0 } else { counts[2] as f64 / counts[1] as f64 };
            m.exact("net.avg_latency_cycles", latency);
            m.untouched(&["soc.", "sim.par."]);
        }
    }
    m.untouched(&[
        "core.lint_s",
        "sim.batch.",
        "sim.artifact.",
        "sim.engine.",
        "translate.",
        "proc.",
        "fault.",
        "sweep.",
        "serve.",
    ]);
}

/// Hand-written cycles per second over the simulator's, per interleaved
/// pair of windows: noise common to a pair cancels in its ratio.
fn gaps(p: &Params, secs: &[f64], reference_secs: &[f64]) -> Vec<f64> {
    let pairs = secs.iter().zip(reference_secs);
    pairs.map(|(s, r)| (p.reference_window as f64 / r) / (p.window as f64 / s)).collect()
}

/// The traced run: every round runs one primary window with spans on, one
/// with spans off (their ratio is the tracing overhead) and one window of
/// each reference series, so all series see the same host noise. The
/// probes that follow feed the remaining `sim.*` metrics.
fn traced_windows(kind: Kind, p: &Params, ctx: &mut Ctx, sim: &mut Sim, totals: &BuildTotals) {
    // Reference series: the hand-written mesh (the paper's hand-coded C++
    // baseline) for the meshes; `specialized-opt` and a one-thread
    // `specialized-par` for the SoC.
    let mut handwritten = match kind {
        Kind::SocPar2 => None,
        _ => Some(HandwrittenMesh::new(p.nodes, INJECTION_PERMILLE, ctx.seed)),
    };
    let mut par_refs = match kind {
        Kind::SocPar2 => {
            let one = SimConfig { threads: Some(1), ..Default::default() };
            let opt =
                set_up(kind, p, ctx.seed, Engine::SpecializedOpt, &SimConfig::default()).1.sim;
            let t1 = set_up(kind, p, ctx.seed, Engine::SpecializedPar, &one).1.sim;
            Some((opt, t1))
        }
        _ => None,
    };
    let (mut traced, mut plain, mut reference, mut t1_secs) = (vec![], vec![], vec![], vec![]);
    ctx.windows(ctx.seconds, |round| {
        trace::set_op(round as u32);
        traced.push(window(sim, p.window));
        plain.push(trace::untraced(|| window(sim, p.window)));
        if let Some(hw) = &mut handwritten {
            reference.push(trace::timed("net", "handwritten", || hw.run(p.reference_window)).1);
        }
        if let Some((opt, t1)) = &mut par_refs {
            reference.push(window(opt, p.reference_window));
            t1_secs.push(window(t1, p.reference_window));
        }
    });
    let rate = p.window as f64 / median(&traced);
    let plain_rate = p.window as f64 / median(&plain);
    let reference_rate = p.reference_window as f64 / median(&reference);
    let m = &mut ctx.metrics;
    m.set("sim.run.ns_per_cycle", Summary::of(&traced).map(|s| s * 1e9 / p.window as f64));
    let ops = totals.ops_after();
    m.value("sim.run.ns_per_op", if ops == 0 { 0.0 } else { 1e9 / rate / ops as f64 });
    m.value("trace.overhead_pct", (plain_rate / rate - 1.0) * 100.0);
    match kind {
        Kind::SocPar2 => {
            m.value("sim.par.speedup_vs_opt", rate / reference_rate);
            m.value("sim.par.t1_cycles_per_s", p.reference_window as f64 / median(&t1_secs));
        }
        _ => {
            m.value("net.handwritten_cycles_per_s", reference_rate);
            m.set("net.handwritten_gap", Summary::of(&gaps(p, &traced, &reference)));
        }
    }
    drop(par_refs);
    probes(kind, p, ctx);
}

/// One-off measurements outside the windows: logical block executions,
/// partition balance, port access cost, and the slower engines' rates.
fn probes(kind: Kind, p: &Params, ctx: &mut Ctx) {
    let _span = trace::span("harness", "probes");
    let (engine, cfg) = engine_of(kind);
    let (_top, mut b) = set_up(kind, p, ctx.seed, engine, &cfg);
    b.sim.enable_profiling();
    let t0 = Instant::now();
    b.sim.run(p.check_cycles);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let profile = b.sim.profile().expect("profiling was enabled");
    let m = &mut ctx.metrics;
    m.exact(
        "sim.run.block_execs_per_cycle",
        profile.total_block_runs() as f64 / p.check_cycles as f64,
    );
    if kind == Kind::SocPar2 {
        let busy: Vec<f64> = profile.partition_nanos.iter().map(|&n| n as f64).collect();
        let total: f64 = busy.iter().sum();
        let mean = total / busy.len().max(1) as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        m.value("sim.par.busy_share", total / (wall_ns * PAR_THREADS as f64));
        m.value("sim.par.imbalance", if mean == 0.0 { 0.0 } else { max / mean });
        return;
    }

    // Port access: what `run_diff` pays per net per cycle.
    const ACCESSES: u32 = 20_000;
    let reset = b.sim.design().reset();
    let t0 = Instant::now();
    for _ in 0..ACCESSES {
        std::hint::black_box(b.sim.peek(std::hint::black_box(reset)));
    }
    m.value("sim.peek_ns", t0.elapsed().as_nanos() as f64 / f64::from(ACCESSES));
    let t0 = Instant::now();
    for _ in 0..ACCESSES {
        b.sim.poke(std::hint::black_box(reset), Bits::from_bool(false));
    }
    m.value("sim.poke_ns", t0.elapsed().as_nanos() as f64 / f64::from(ACCESSES));

    if kind == Kind::MeshRtl {
        // fig14's engine ladder below the measured engine, one short
        // window each; these are the oracle engines, off every blocking
        // path, recorded only.
        let ladder = [Engine::Interpreted, Engine::InterpretedOpt, Engine::Specialized];
        for (engine, cycles) in ladder.into_iter().zip(p.ladder_cycles) {
            let (_top, mut b) = set_up(kind, p, ctx.seed, engine, &SimConfig::default());
            let secs = window(&mut b.sim, cycles);
            ctx.metrics.value(&format!("sim.engine.{engine}.cycles_per_s"), cycles as f64 / secs);
        }
    }
}
