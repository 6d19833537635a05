//! `build_sweep`: bring-up of a fixed set of designs, each as elaborate →
//! `Sim::with_config(specialized-opt)` → reset → 100 cycles.
//!
//! Construction-bound by design: code generation and schedule creation
//! take most of every bring-up and steady-state speed is irrelevant, so
//! this is where compile-pipeline and robustness work must show (and
//! where an RTL hot-loop change predicts no change).

use std::time::Instant;

use mtl_accel::{TileConfig, TileHarness, XcelLevel};
use mtl_core::Component;
use mtl_net::{MeshTrafficHarness, NetLevel};
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_sim::{Engine, SimConfig};
use mtl_soc::{Soc, SocConfig, SocTraffic};

use crate::bringup::{bring_up, BringUp, BuildTotals};
use crate::run::{Ctx, Scale};
use crate::stats::{median, Summary};
use crate::trace;

/// Cycles each freshly built simulator runs: enough to touch every block
/// once, too few for steady-state speed to matter.
const SMOKE_CYCLES: u64 = 100;
/// Bring-ups per sweep.
const DESIGNS: usize = 4;
const RTL_TILE: TileConfig =
    TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl };

/// The design set, generated from the run's seed. Four shapes the
/// construction path treats differently: a mesh with native traffic
/// generators around RTL routers, a compute SoC (processors, caches,
/// accelerators: many distinct block bodies), a native-free synthetic
/// SoC, and a single small tile.
fn design_set(scale: Scale, seed: u64) -> [Box<dyn Component>; DESIGNS] {
    let _span = trace::span("harness", "model");
    let (mesh, tiles, synthetic_tiles) = match scale {
        Scale::Full => (64, 64, 256),
        Scale::Tiny => (4, 4, 4),
    };
    [
        Box::new(MeshTrafficHarness::new(NetLevel::Rtl, mesh, 300, seed)),
        Box::new(compute_soc(tiles, seed)),
        Box::new(Soc::new(
            SocConfig::synthetic(synthetic_tiles, NetLevel::Rtl, SocTraffic::UniformRandom)
                .with_seed(seed),
        )),
        Box::new(TileHarness::new(RTL_TILE, 1 << 12, vec![seed as u32, (seed >> 32) as u32])),
    ]
}

fn compute_soc(tiles: usize, seed: u64) -> Soc {
    Soc::new(
        SocConfig::compute(tiles, RTL_TILE, NetLevel::Rtl, SocTraffic::UniformRandom)
            .with_seed(seed),
    )
}

fn bring_up_one(top: &dyn Component) -> BringUp {
    let mut b = bring_up(top, Engine::SpecializedOpt, &SimConfig::default());
    let _span = trace::span("sim.run", "smoke_cycles");
    b.sim.run(SMOKE_CYCLES);
    b
}

/// One sweep over the design set; returns its wall seconds.
fn sweep(scale: Scale, seed: u64) -> f64 {
    let t0 = Instant::now();
    for top in design_set(scale, seed) {
        std::hint::black_box(bring_up_one(top.as_ref()));
    }
    t0.elapsed().as_secs_f64()
}

pub fn run(ctx: &mut Ctx) {
    let root = trace::span("harness", "run");

    // Nothing outlives a bring-up, so set-up is the models plus one
    // discarded sweep: the first pays the process's cold allocator and
    // page faults, which later sweeps do not.
    let (scale, seed) = (ctx.scale, ctx.seed);
    ctx.set_up(3, |_| sweep(scale, seed));
    if ctx.trace {
        let (mut traced, mut plain) = (Vec::new(), Vec::new());
        ctx.windows(ctx.seconds, |round| {
            trace::set_op(round as u32);
            traced.push(sweep(scale, seed));
            plain.push(trace::untraced(|| sweep(scale, seed)));
        });
        ctx.metrics.value("trace.overhead_pct", (median(&traced) / median(&plain) - 1.0) * 100.0);
        layer_metrics(ctx);
    } else {
        let secs = ctx.windows(ctx.seconds, |_| sweep(scale, seed));
        ctx.metrics.set("work_per_s", Summary::of(&secs).map(|s| DESIGNS as f64 / s));
    }

    // Correctness: a compute SoC brought up the same way must run to halt
    // with every tile's result equal to the host model's.
    {
        let _span = trace::span("harness", "check");
        let tiles = if ctx.scale == Scale::Full { 64 } else { 4 };
        let soc = compute_soc(tiles, ctx.seed);
        let b = bring_up(&soc, Engine::SpecializedOpt, &SimConfig::default());
        let out = mtl_soc::run_soc_compute_on(&soc, b.sim, 60_000);
        ctx.check(
            &format!("compute soc halts with the host model's results after {} cycles", out.cycles),
            out.halted && out.results == soc.expected_results(),
        );
        ctx.metrics.exact("proc.instret", out.instret as f64);
        ctx.metrics.exact("proc.halt_cycles", out.cycles as f64);
    }
    drop(root);
    ctx.metrics.untouched(&[
        "sim.run.",
        "sim.par.",
        "sim.batch.",
        "sim.peek_ns",
        "sim.poke_ns",
        "sim.artifact.",
        "sim.engine.",
        "net.",
        "soc.",
        "fault.",
        "sweep.",
        "serve.",
    ]);
}

/// Per-layer construction metrics of one more sweep, plus lint and the
/// Verilog round trip (fig16's `veri` column), both off the bring-up path.
fn layer_metrics(ctx: &mut Ctx) {
    let _span = trace::span("harness", "probes");
    let mut totals = BuildTotals::default();
    let (mut lint_s, mut emit_s, mut parse_s, mut bytes) = (0.0, 0.0, 0.0, 0usize);
    for top in design_set(ctx.scale, ctx.seed) {
        let b = bring_up_one(top.as_ref());
        totals.add(&b);
        let design = b.sim.design();
        lint_s += trace::timed("core", "lint", || mtl_core::lint(design).len()).1;
        // Only native-free designs translate; the others are skipped, as
        // a user's would be.
        let (verilog, secs) =
            trace::timed("translate", "emit", || mtl_translate::translate(design));
        if let Ok(verilog) = verilog {
            emit_s += secs;
            bytes += verilog.len();
            let (parsed, secs) = trace::timed("translate", "parse", || {
                mtl_translate::VerilogLibrary::parse(&verilog).is_ok()
            });
            parse_s += secs;
            ctx.check("emitted Verilog parses back", parsed);
        }
    }
    totals.emit(&mut ctx.metrics);
    let m = &mut ctx.metrics;
    m.value("core.lint_s", lint_s);
    m.value("translate.emit_s", emit_s);
    m.value("translate.parse_s", parse_s);
    m.exact("translate.verilog_bytes", bytes as f64);
}
