//! Deterministic fault injection end-to-end (tier-1).
//!
//! Exercises `mtl-fault` against the real case-study designs — the mesh
//! traffic harness and the accelerator tile — rather than the synthetic
//! components the crate's unit tests use. Three properties are
//! load-bearing:
//!
//! 1. **Engine independence** — a seeded fault plan perturbs every
//!    engine configuration identically: same faulty-trace fingerprint,
//!    same first-divergence cycle, same classification, same blast
//!    radius (`engine_agreement` over the four engines of `Engine::ALL`
//!    plus `SpecializedPar` at 1 and 4 threads).
//! 2. **Seed determinism** — the same seed draws the same plan and
//!    produces the same report, run to run.
//! 3. **Taxonomy coverage** — the masked/silent/detected classes from
//!    `EXPERIMENTS.md` all actually occur on real designs under a
//!    seeded campaign, so the classifier is not degenerate.

use rustmtl::accel::{TileConfig, TileHarness, XcelLevel};
use rustmtl::core::Component;
use rustmtl::fault::{
    engine_agreement, run_diff, DiffConfig, FaultPlan, FaultReport, Outcome, PlanSpec,
};
use rustmtl::net::{MeshTrafficHarness, NetLevel};
use rustmtl::proc::{CacheLevel, ProcLevel};
use rustmtl::sim::{Engine, Sim};

fn mesh() -> MeshTrafficHarness {
    MeshTrafficHarness::new(NetLevel::Cl, 16, 200, 0xBEEF)
}

fn tile() -> TileHarness {
    let config = TileConfig { proc: ProcLevel::Fl, cache: CacheLevel::Fl, xcel: XcelLevel::Fl };
    TileHarness::new(config, 1 << 10, vec![3, 1, 4, 1, 5, 9])
}

/// Draws a seeded plan against `top`'s elaborated design.
fn draw_plan(top: &dyn Component, seed: u64, faults: usize, cycles: u64) -> FaultPlan {
    let probe = Sim::build(top, Engine::Interpreted).expect("design elaborates");
    FaultPlan::random(seed, probe.design(), &PlanSpec::new(faults, 2, 1 + cycles))
}

#[test]
fn mesh_fault_reports_agree_across_all_engine_configs() {
    let top = mesh();
    for seed in [1u64, 2, 3] {
        let plan = draw_plan(&top, seed, 2, 40);
        let report =
            engine_agreement(&top, &plan, 40).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.injected_bits > 0, "seed {seed}: plan must disturb something");
        assert_eq!(report.cycles, 40);
    }
}

#[test]
fn tile_fault_reports_agree_across_all_engine_configs() {
    let top = tile();
    for seed in [4u64, 5] {
        let plan = draw_plan(&top, seed, 2, 40);
        let report =
            engine_agreement(&top, &plan, 40).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.injected_bits > 0, "seed {seed}: plan must disturb something");
    }
}

#[test]
fn same_seed_reproduces_the_same_plan_and_report() {
    let top = mesh();
    let cfg = DiffConfig::new(Engine::SpecializedOpt, 50);
    let (plan_a, plan_b) = (draw_plan(&top, 9, 3, 50), draw_plan(&top, 9, 3, 50));
    assert_eq!(plan_a, plan_b, "plan drawing must be a pure function of (seed, design)");
    let a = run_diff(&top, &plan_a, &cfg).expect("diff runs");
    let b = run_diff(&top, &plan_b, &cfg).expect("diff runs");
    assert_eq!(a, b, "identical plans must produce identical reports");
    // A different seed draws a different plan (with overwhelming
    // probability over this design's thousands of candidate bits).
    assert_ne!(plan_a, draw_plan(&top, 10, 3, 50));
}

/// Seeded campaigns over both designs hit every class of the taxonomy:
/// the classifier distinguishes masked, silent, and detected rather than
/// collapsing everything into one bucket.
#[test]
fn taxonomy_classes_all_occur_on_real_designs() {
    let cfg = DiffConfig::new(Engine::SpecializedOpt, 120);
    let mut seen = std::collections::HashSet::new();
    let tile = tile();
    let mesh = mesh();
    let tops: [&dyn Component; 2] = [&mesh, &tile];
    'outer: for seed in 0..40u64 {
        for top in tops {
            let plan = draw_plan(top, seed, 2, 120);
            // Native FL components debug_assert protocol invariants
            // (e.g. "no enqueue into a full adapter queue") that a fault
            // on a val/rdy net can legitimately violate: such a trial
            // aborts rather than classifies. Campaigns survive these via
            // mtl-sweep's panic isolation; here we just skip the seed.
            let Ok(report) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_diff(top, &plan, &cfg).expect("diff runs")
            })) else {
                continue;
            };
            seen.insert(report.outcome);
            // Classification invariants, whatever the outcome.
            match report.outcome {
                Outcome::Masked => {
                    assert!(report.first_divergence.is_none());
                    assert!(report.blast_radius.is_empty());
                }
                Outcome::Silent => {
                    assert!(report.first_divergence.is_some());
                    assert!(report.detected_at.is_none());
                    assert!(!report.blast_radius.is_empty());
                }
                Outcome::Detected => {
                    let div = report.first_divergence.expect("detected implies divergence");
                    let det = report.detected_at.expect("detected_at set");
                    assert!(det >= div, "detection cannot precede divergence");
                }
            }
            if seen.len() == 3 {
                break 'outer;
            }
        }
    }
    assert_eq!(seen.len(), 3, "expected all of masked/silent/detected, saw {seen:?}");
}

/// A design built of exactly the nets the tape optimizer's
/// const-hoist/fold passes prey on: a wire driven by a literal
/// constant, a register re-loaded from a constant every cycle, and
/// consumers of both. Fault injection must perturb these nets the same
/// way whether or not the optimizer ran — a hoisted or folded constant
/// is still a *net* the wrapper forces and washes.
struct ConstDriven;

impl Component for ConstDriven {
    fn name(&self) -> String {
        "ConstDriven".into()
    }
    fn build(&self, c: &mut rustmtl::core::Ctx) {
        use rustmtl::core::Expr;
        let inp = c.in_port("inp", 8);
        let k = c.wire("k", 8); // const-driven comb net
        let kreg = c.wire("kreg", 8); // register always re-loaded from a const
        let mix = c.wire("mix", 8);
        let out = c.out_port("out", 8);
        c.comb("konst", |b| b.assign(k, Expr::k(8, 0x5A)));
        c.seq("load", |b| b.assign(kreg, Expr::k(8, 0x33)));
        c.comb("mix", |b| b.assign(mix, k ^ inp));
        c.comb("fold", |b| b.assign(out, mix & kreg));
    }
}

/// The const-hoist regression proper: stuck-at and flip faults on
/// const-driven nets produce bit-identical traces on every engine, with
/// the optimizer pass pipeline both enabled and disabled; the forced
/// value is visible mid-window and washes back to the constant after the
/// fault expires.
#[test]
fn const_driven_nets_perturb_all_engine_configs_identically() {
    use rustmtl::bits::Bits;
    use rustmtl::fault::{Fault, FaultKind};
    use rustmtl::sim::SimConfig;

    let plan = FaultPlan::explicit(vec![
        // Stuck-at-0 across three bits of the const wire (0x5A has bits
        // 1, 3, 4, 6 set; knocking out 1 and 6 is observable).
        Fault { target: "k".into(), bit: 1, kind: FaultKind::StuckAt0, cycle: 3, duration: 3 },
        Fault { target: "k".into(), bit: 6, kind: FaultKind::StuckAt0, cycle: 3, duration: 3 },
        // Stuck-at-1 on a cleared bit of the same net, later window.
        Fault { target: "k".into(), bit: 0, kind: FaultKind::StuckAt1, cycle: 8, duration: 2 },
        // Transient flip on the const-loaded register: visible for one
        // cycle, then the constant reload washes it at the next edge.
        Fault { target: "kreg".into(), bit: 5, kind: FaultKind::Flip, cycle: 5, duration: 1 },
    ]);

    let mut traces: Vec<(String, Vec<Vec<rustmtl::bits::Bits>>)> = Vec::new();
    let mut k_trace: Option<Vec<u128>> = None;
    // Every scalar engine, plus a batch simulator configured with a
    // single lane: the wrapper's one fault protocol drives them all.
    let configs =
        Engine::ALL.map(|e| (e, None)).into_iter().chain([(Engine::SpecializedBatch, Some(1))]);
    for opt in [true, false] {
        for (engine, lanes) in configs.clone() {
            let cfg = SimConfig { tape_opt: opt, lanes, ..SimConfig::default() };
            let mut sim = Sim::build_with_config(&ConstDriven, engine, &cfg).expect("elaborates");
            plan.apply(&mut sim).expect("plan resolves");
            sim.reset();
            let k = sim.find_signal("k");
            let nsignals = sim.design().signals().len();
            let mut trace = Vec::new();
            let mut ks = Vec::new();
            for cyc in 0..14u32 {
                sim.poke_port("inp", Bits::new(8, (cyc as u128).wrapping_mul(37) & 0xFF));
                sim.cycle();
                trace.push(
                    (0..nsignals)
                        .map(|i| sim.peek(rustmtl::core::SignalId::from_index(i)))
                        .collect::<Vec<_>>(),
                );
                ks.push(sim.peek(k).as_u128());
            }
            // The fault counters have one home: lane 0 *is* the scalar
            // simulator. Four single-bit faults over 3 + 3 + 2 + 1 cycles
            // disturb 9 bits on the 5 distinct cycles 3, 4, 5, 8 and 9.
            assert_eq!(sim.lane_fault_totals(0), (9, 5), "{engine}/opt={opt}");
            assert_eq!((sim.injected_bits(), sim.faulted_cycle_count()), (9, 5), "{engine}");
            traces.push((format!("{engine}/opt={opt}"), trace));
            k_trace.get_or_insert(ks);
        }
    }
    let (ref_name, reference) = &traces[0];
    for (name, trace) in &traces[1..] {
        assert_eq!(trace, reference, "{name} diverged from {ref_name} on const-driven faults");
    }
    // The fault must actually be observable mid-window and wash back to
    // the constant afterwards (guards against forces silently folded
    // away *and* against forces that never wash).
    let ks = k_trace.expect("at least one config ran");
    assert!(ks.iter().any(|&v| v != 0x5A), "faults on the const wire were never visible: {ks:?}");
    assert_eq!(
        *ks.last().expect("trace non-empty"),
        0x5A,
        "const wire must wash back to its driven constant after the fault window: {ks:?}"
    );
}

/// A bundle of plans through a traced batch `run_diffs` (one batch
/// simulation, one lane per plan) must reproduce the scalar `run_diff`
/// report for every plan *exactly* — outcome, divergence cycles, blast
/// radius, injected bits, and the full faulty-trace fingerprint. The
/// untraced campaign variant matches everywhere except the fingerprint,
/// which it reports as 0 by contract.
#[test]
fn batch_fault_reports_match_scalar_reports() {
    use rustmtl::fault::{run_diff_batch, run_diffs};
    use rustmtl::net::MeshTrafficRtlHarness;

    let top = MeshTrafficRtlHarness::new(16, 200, 0xBEEF);
    let probe = Sim::build(&top, Engine::Interpreted).expect("design elaborates");
    let window = PlanSpec::new(2, 2, 26);
    let plans: Vec<FaultPlan> =
        (0..5).map(|i| FaultPlan::random(0xB00 + i, probe.design(), &window)).collect();
    drop(probe);
    let cycles = 25;

    let batch = DiffConfig::new(Engine::SpecializedBatch, cycles);
    let traced = run_diffs(&top, &plans, &batch, None, true).expect("batch diff runs");
    assert_eq!(traced.len(), plans.len());
    let cfg = DiffConfig::new(Engine::SpecializedOpt, cycles);
    for (i, plan) in plans.iter().enumerate() {
        let scalar = run_diff(&top, plan, &cfg).expect("scalar diff runs");
        assert_eq!(traced[i], scalar, "plan {i}: batch lane != scalar report");
    }

    let untraced = run_diff_batch(&top, &plans, cycles).expect("batch diff runs");
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        assert_eq!(u.trace_fingerprint, 0, "plan {i}: campaign mode must skip fingerprints");
        let mut u = u.clone();
        u.trace_fingerprint = t.trace_fingerprint;
        assert_eq!(&u, t, "plan {i}: untraced batch diverged beyond the fingerprint");
    }
}

/// The batch differential over full bundles: 63 seeded plans on each of
/// four IR mesh configurations (routers / window / faults per plan:
/// 16/200/2, 4/60/3, 16/120/1, 4/200/4), traced batch against scalar
/// `run_diff` field for field — fingerprint included — the untraced
/// batch against the traced one but for its zero fingerprint, and the
/// traced 63-plan scalar set (one golden, 63 faulty simulators) against
/// the traced batch. Most lanes
/// follow the golden lane until their first fault, many rejoin it after a
/// fault washes out, and some are faulted again after rejoining, so this
/// is where a lane that follows, forks or rejoins at the wrong time shows.
#[test]
fn full_batch_bundles_match_scalar_on_four_mesh_configurations() {
    use rustmtl::fault::{run_diff_batch, run_diff_shared, run_diffs};
    use rustmtl::net::MeshTrafficRtlHarness;

    // The scalar runs share one compile per design point.
    let cache = rustmtl::sim::ArtifactCache::new();
    for (routers, cycles, faults) in [(16, 200, 2), (4, 60, 3), (16, 120, 1), (4, 200, 4)] {
        let top = MeshTrafficRtlHarness::new(routers, 200, 0xBEEF);
        let design = rustmtl::core::elaborate(&top).expect("elaborates");
        let window = PlanSpec::new(faults, 2, cycles);
        let seed = (routers as u64) << 32 | cycles << 8 | faults as u64;
        let plans: Vec<FaultPlan> =
            (0..63).map(|i| FaultPlan::random(seed + i, &design, &window)).collect();
        let at = format!("mesh{routers}/{cycles}/{faults}");
        let batch = DiffConfig::new(Engine::SpecializedBatch, cycles);
        let traced = run_diffs(&top, &plans, &batch, None, true).expect("batch diff runs");
        let plain = run_diff_batch(&top, &plans, cycles).expect("batch diff runs");
        let cfg = DiffConfig::new(Engine::SpecializedOpt, cycles);
        let set = run_diffs(&top, &plans, &cfg, Some((&cache, routers as u64)), true)
            .expect("scalar set runs");
        assert_eq!(set, traced, "{at}: traced scalar set != traced batch");
        for (i, plan) in plans.iter().enumerate() {
            let scalar = run_diff_shared(&top, plan, &cfg, &cache, routers as u64)
                .expect("scalar diff runs");
            assert_eq!(traced[i], scalar, "{at} plan {i}: traced batch lane != scalar report");
            let untraced =
                FaultReport { trace_fingerprint: scalar.trace_fingerprint, ..plain[i].clone() };
            assert_eq!(plain[i].trace_fingerprint, 0, "{at} plan {i}: campaign mode fingerprint");
            assert_eq!(untraced, scalar, "{at} plan {i}: batch lane != scalar report");
        }
    }
}

/// A scalar lane set — one golden and N faulty simulators through one
/// `run_diffs` call — reports exactly what N independent `run_diff` runs
/// report, field for field, fingerprint included: on a design with native
/// blocks (the CL mesh) and on the IR mesh, for N = 1, 5 and 63.
#[test]
fn scalar_set_equals_independent_runs() {
    use rustmtl::fault::run_diffs;
    use rustmtl::net::MeshTrafficRtlHarness;

    let ir = MeshTrafficRtlHarness::new(4, 200, 0xBEEF);
    let cl = MeshTrafficHarness::new(NetLevel::Cl, 4, 200, 0xBEEF);
    let cycles = 30;
    let cfg = DiffConfig::new(Engine::SpecializedOpt, cycles);
    for top in [&cl as &dyn Component, &ir] {
        let probe = Sim::build(top, Engine::Interpreted).expect("design elaborates");
        let window = PlanSpec::new(2, 2, cycles);
        let plans: Vec<FaultPlan> =
            (0..63).map(|i| FaultPlan::random(0x5E7 + i, probe.design(), &window)).collect();
        let single: Vec<FaultReport> =
            plans.iter().map(|plan| run_diff(top, plan, &cfg).expect("diff runs")).collect();
        for n in [1, 5, 63] {
            let set = run_diffs(top, &plans[..n], &cfg, None, true).expect("scalar set runs");
            assert_eq!(set, single[..n], "{} N={n}: scalar set != independent runs", top.name());
        }
        assert!(single.iter().any(|r| r.outcome != Outcome::Masked), "{}", top.name());
    }
}

/// The same const-driven design through the full `engine_agreement`
/// harness (fingerprint + classification agreement across every engine
/// configuration) under a seeded plan — the campaign-level view of the
/// const-hoist regression.
#[test]
fn const_driven_design_passes_engine_agreement() {
    let top = ConstDriven;
    for seed in [21u64, 22] {
        let plan = draw_plan(&top, seed, 2, 12);
        let report =
            engine_agreement(&top, &plan, 12).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.injected_bits > 0, "seed {seed}: plan must disturb something");
    }
}

/// One report in one line: every field as is, except the blast radius,
/// which is its length and the FNV-1a hash of its paths joined by `\n`.
fn pin(r: &FaultReport) -> String {
    let mut blast = 0xcbf2_9ce4_8422_2325u64;
    for b in r.blast_radius.join("\n").bytes() {
        blast = (blast ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    format!(
        "{} div={:?} det={:?} blast={}/{blast:#018x} bits={} cycles={} fp={:#018x}",
        r.outcome,
        r.first_divergence,
        r.detected_at,
        r.blast_radius.len(),
        r.injected_bits,
        r.cycles,
        r.trace_fingerprint
    )
}

/// Full `run_diff` reports of seeded plans, pinned as literals: nothing
/// else fixes what `trace_fingerprint` *is* (`engine_agreement` only
/// compares engines that share one fold). The random RTL design has nets
/// of 65, 100 and 128 bits, so values of every fold length up to 16 bytes
/// enter the hash. Each plan runs on a tape engine and on the tree-walking
/// interpreter, which must both give the pinned report.
#[test]
fn pinned_reports_fix_the_trace_fingerprint_definition() {
    use rustmtl::check::RandomRtl;
    use rustmtl::net::MeshTrafficRtlHarness;

    let mesh = MeshTrafficRtlHarness::new(4, 200, 0xBEEF);
    let rtl = RandomRtl::new(10);
    let design = rustmtl::core::elaborate(&rtl).expect("elaborates");
    let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
    assert!([65, 100, 128].iter().all(|w| widths.contains(w)), "wide nets: {widths:?}");
    let cases: [(&dyn Component, u64, usize, &str); 10] = [
        (&mesh, 1, 1, "masked div=None det=None blast=0/0xcbf29ce484222325 bits=4 cycles=30 fp=0xc408dfef1f393667"),
        (&mesh, 2, 3, "silent div=Some(8) det=None blast=1/0x0614890a14b53c0e bits=6 cycles=30 fp=0x193d60f89b42dc23"),
        (&mesh, 3, 1, "detected div=Some(19) det=Some(24) blast=64/0xa59490ea5b5a6469 bits=1 cycles=30 fp=0x7953abed06c3012f"),
        (&mesh, 6, 3, "detected div=Some(14) det=Some(22) blast=29/0xd3f3211bb375942f bits=3 cycles=30 fp=0x9450405331f48824"),
        (&mesh, 8, 1, "detected div=Some(6) det=Some(11) blast=6/0x2c2063f5b4f9cc9c bits=1 cycles=30 fp=0x6b460794a8311ad4"),
        (&rtl, 1, 3, "silent div=Some(24) det=None blast=3/0x5ead537f74579a09 bits=6 cycles=30 fp=0x88b3ae2bc14c4c2b"),
        (&rtl, 2, 3, "detected div=Some(4) det=Some(4) blast=5/0x3f99bd4d83dc5e4a bits=6 cycles=30 fp=0x256e458b228b1269"),
        (&rtl, 3, 1, "masked div=None det=None blast=0/0xcbf29ce484222325 bits=1 cycles=30 fp=0x5236f21cf080c769"),
        (&rtl, 5, 3, "detected div=Some(3) det=Some(3) blast=6/0x65dc049493d7302f bits=5 cycles=30 fp=0x75aa93428b9e6519"),
        (&rtl, 6, 3, "detected div=Some(14) det=Some(29) blast=7/0x975e6aefe2e5a860 bits=3 cycles=30 fp=0x1bf55dd9d9190e99"),
    ];
    for (top, seed, faults, want) in cases {
        let plan = draw_plan(top, seed, faults, 30);
        for engine in [Engine::SpecializedOpt, Engine::Interpreted] {
            let report = run_diff(top, &plan, &DiffConfig::new(engine, 30)).expect("diff runs");
            assert_eq!(pin(&report), want, "{} seed {seed} on {engine}", top.name());
        }
    }
}

/// An empty plan is the degenerate golden-vs-golden diff: always masked,
/// on every design.
#[test]
fn empty_plans_are_always_masked() {
    let cfg = DiffConfig::new(Engine::InterpretedOpt, 30);
    let report = run_diff(&mesh(), &FaultPlan::explicit(vec![]), &cfg).expect("diff runs");
    assert_eq!(report.outcome, Outcome::Masked);
    assert_eq!(report.injected_bits, 0);
}
