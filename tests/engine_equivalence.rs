//! Engine equivalence on randomized RTL designs.
//!
//! Drives the `mtl-check` random design generator ([`RandomRtl`]: random
//! acyclic RTL with random-width signals, random combinational expression
//! DAGs, random registers and memories) with random inputs, and checks
//! that every simulation engine produces bit-identical values on every
//! net, every cycle. This is the load-bearing property behind the
//! framework: engine choice is a performance knob, never a semantics
//! knob. The `fuzz` binary (`crates/bench/src/bin/fuzz.rs`) extends this
//! with shrinking and reproducer emission; these tests pin specific
//! seeds and edge-case designs as regressions.

use rustmtl::check::RandomRtl;
use rustmtl::core::{Component, Ctx, Expr};
use rustmtl::prelude::*;
use rustmtl::sim::{Engine, Sim, SimConfig};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn run_equivalence(seed: u64, cycles: u64) {
    // Elaborate once per engine (native-free designs elaborate
    // identically; separate instances keep ownership simple).
    let mut sims: Vec<Sim> = Engine::ALL
        .iter()
        .map(|&e| Sim::build(&RandomRtl::new(seed), e).expect("random design must elaborate"))
        .collect();
    let nsignals = sims[0].design().signals().len();

    for sim in &mut sims {
        sim.reset();
    }
    let mut rng = Rng(seed ^ 0xABCD);
    for cycle in 0..cycles {
        // Drive identical random inputs.
        for i in 0..3 {
            let name = format!("in{i}");
            let w = {
                let d = sims[0].design();
                d.signal(d.top_port(&name)).width
            };
            let v = Bits::new(w, rng.next() as u128 | ((rng.next() as u128) << 64));
            for sim in &mut sims {
                sim.poke_port(&name, v);
            }
        }
        for sim in &mut sims {
            sim.cycle();
        }
        // Compare every signal across engines.
        for si in 0..nsignals {
            let sig = rustmtl::core::SignalId::from_index(si);
            let reference = sims[0].peek(sig);
            for (ei, sim) in sims.iter().enumerate().skip(1) {
                assert_eq!(
                    sim.peek(sig),
                    reference,
                    "engine {:?} diverged on `{}` at cycle {cycle} (seed {seed})",
                    Engine::ALL[ei],
                    sims[0].design().signal_path(sig)
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_random_designs() {
    for seed in 1..=12 {
        run_equivalence(seed, 40);
    }
}

/// A design that is mostly replication: one random design instantiated 16
/// to 40 times under a shell, every instance with its own stimulus. The
/// static engine executes such instances as the lanes of one pass over
/// their shared block body (a *gang*) — here over whatever op kinds the
/// generator drew, memories included, with whole and partial last lane
/// blocks — and must still match every other engine on every signal and
/// every logical profile counter, every cycle, optimizer on and off.
#[test]
fn engines_agree_on_replicated_random_designs() {
    use rustmtl::check::{engines_under_test_opt_diff, run_differential_with, RtlDesc, RtlShape};

    let sels = engines_under_test_opt_diff();
    for (seed, copies) in [(1, 16), (2, 17), (3, 24), (5, 31), (8, 32), (13, 40)] {
        let desc = RtlDesc { copies, ..RtlDesc::generate(seed, RtlShape::default()) };
        let sim = Sim::build(&RandomRtl::from_desc(desc.clone()), Engine::SpecializedOpt)
            .expect("replicated design elaborates");
        let rep = sim.opt_report().expect("tape engine with the optimizer on");
        assert!(rep.gangs > 0, "seed {seed} x{copies}: no gang formed ({:?})", rep.gang_line());
        assert_eq!(rep.gang_lanes % 16, 0, "seed {seed} x{copies}: gangs hold whole lane blocks");
        let tail: u64 = rep.refused.iter().filter(|r| r.0 == "tail").map(|r| r.1).sum();
        assert_eq!(tail > 0, copies % 16 != 0, "seed {seed} x{copies}: {:?}", rep.gang_line());
        if let Some(divergence) = run_differential_with(&desc, 30, &sels) {
            panic!("seed {seed} x{copies}: {divergence}");
        }
    }
}

/// The instances of one shape per IR block, and the shapes with
/// parameters among them, by the path suffix of their first block.
fn shape_census(design: &rustmtl::core::Design) -> (Vec<usize>, Vec<String>) {
    use rustmtl::core::BlockId;
    let mut instances = vec![0; design.shapes().len()];
    for b in 0..design.blocks().len() {
        if let Some(shape) = design.block_shape(BlockId::from_index(b)) {
            instances[shape.index()] += 1;
        }
    }
    let leaf = |s: &rustmtl::core::ShapeInfo| {
        let path = design.block_path(s.first);
        path.rsplit('.').next().unwrap_or_default().to_string()
    };
    let params = design.shapes().iter().filter(|s| s.params > 0).map(leaf).collect();
    (instances, params)
}

/// The RTL 16-router mesh's route blocks are one shape — each router's
/// coordinates are tied input ports, so no block has a parameter — and so
/// one gang: no block is left to the residual for want of lanes (`few` =
/// 0), and every shape, 16 or a multiple of 16 instances on one level,
/// runs as exactly one gang.
#[test]
fn rtl_mesh16_route_blocks_form_one_gang_and_none_is_few() {
    use rustmtl::net::{MeshTrafficHarness, NetLevel};

    let mesh = MeshTrafficHarness::new(NetLevel::Rtl, 16, 300, 5);
    let sim = Sim::build(&mesh, Engine::SpecializedOpt).expect("mesh elaborates");
    let rep = sim.opt_report().expect("tape engine with the optimizer on");
    let (instances, params) = shape_census(sim.design());
    assert!(params.is_empty(), "no block bakes in a router constant: {params:?}");
    assert!(instances.iter().all(|n| n % 16 == 0), "{instances:?}");
    let few = rep.refused.iter().find(|r| r.0 == "few").expect("seeded").1;
    assert_eq!(few, 0, "{:?}", rep.gang_line());
    let ir_blocks: usize = instances.iter().sum();
    assert_eq!((rep.gangs, rep.gang_lanes), (instances.len() as u64, ir_blocks as u64));
    assert_eq!(rep.bodies, instances.len() as u64);
}

/// A 16-tile synthetic SoC gangs its per-tile bodies: the traffic
/// generators' blocks, whose ids and seeds are tied input ports, run as
/// gangs beside the routers', and the one block left to the residual is
/// the single `totals` tally.
#[test]
fn synthetic_soc16_gangs_its_per_tile_bodies() {
    use rustmtl::net::NetLevel;
    use rustmtl::soc::{Soc, SocConfig, SocTraffic};

    let soc = Soc::new(SocConfig::synthetic(16, NetLevel::Rtl, SocTraffic::UniformRandom));
    let sim = Sim::build(&soc, Engine::SpecializedOpt).expect("SoC elaborates");
    let rep = sim.opt_report().expect("tape engine with the optimizer on");
    let (instances, params) = shape_census(sim.design());
    assert!(params.is_empty(), "coordinates, ids and seeds are tied ports: {params:?}");
    assert_eq!(instances.iter().filter(|&&n| n == 1).count(), 1, "{instances:?}: one `totals`");
    let ir_blocks: usize = instances.iter().sum();
    let counts = (rep.gangs, rep.gang_lanes);
    assert_eq!(counts, (instances.len() as u64 - 1, ir_blocks as u64 - 1), "{:?}", rep.gang_line());
}

/// Regression for the `reset()` staleness bug: combinational logic that
/// reads reset directly must be re-settled after deassertion, so peeks
/// between `reset()` and the next `cycle()` already see reset low.
#[test]
fn reset_resettles_combinational_state_on_every_engine() {
    #[derive(Hash)]
    struct ResetVisible;
    impl Component for ResetVisible {
        fn build(&self, c: &mut Ctx) {
            let reset = c.reset();
            let count = c.wire("count", 8);
            let ready = c.out_port("ready", 1);
            c.seq("step", |b| {
                b.if_else(
                    reset,
                    |b| b.assign(count, Expr::k(8, 0)),
                    |b| b.assign(count, count + Expr::k(8, 1)),
                );
            });
            // Combinational read of reset: stale under the old reset().
            c.comb("gate", |b| b.assign(ready, !reset.ex()));
        }
    }
    for engine in Engine::ALL {
        let mut sim = Sim::build(&ResetVisible, engine).expect("elaborates");
        sim.reset();
        assert_eq!(
            sim.peek_port("ready"),
            b(1, 1),
            "{engine}: comb state must reflect deasserted reset immediately after reset()"
        );
        // reset() must leave the design fully settled: an eval() changes
        // nothing.
        let before: Vec<Bits> = (0..sim.design().signals().len())
            .map(|i| sim.peek(rustmtl::core::SignalId::from_index(i)))
            .collect();
        sim.eval();
        let after: Vec<Bits> = (0..sim.design().signals().len())
            .map(|i| sim.peek(rustmtl::core::SignalId::from_index(i)))
            .collect();
        assert_eq!(before, after, "{engine}: reset() left unsettled combinational state");
    }
}

/// Profiler consistency: logical per-block execution counts are a pure
/// function of the value trace, so identical designs and stimulus must
/// yield identical (and non-zero) counts on every engine — even
/// though the physical work each engine does differs wildly.
#[test]
fn profiler_block_counts_agree_across_engines() {
    for seed in [2u64, 6, 11] {
        let mut sims: Vec<Sim> = Engine::ALL
            .iter()
            .map(|&e| Sim::build(&RandomRtl::new(seed), e).expect("random design must elaborate"))
            .collect();
        for sim in &mut sims {
            sim.enable_profiling();
            sim.reset();
        }
        let mut rng = Rng(seed ^ 0x5EED);
        for _ in 0..25 {
            for i in 0..3 {
                let name = format!("in{i}");
                let w = {
                    let d = sims[0].design();
                    d.signal(d.top_port(&name)).width
                };
                let v = Bits::new(w, rng.next() as u128 | ((rng.next() as u128) << 64));
                for sim in &mut sims {
                    sim.poke_port(&name, v);
                }
            }
            for sim in &mut sims {
                sim.cycle();
            }
        }
        let profiles: Vec<_> =
            sims.iter().map(|s| s.profile().expect("profiling enabled")).collect();
        let reference = &profiles[0];
        assert!(reference.total_block_runs() > 0, "seed {seed}: stimulus must execute some blocks");
        assert!(
            reference.block_runs.iter().any(|&r| r > 0),
            "seed {seed}: per-block counts must be non-zero somewhere"
        );
        for p in &profiles[1..] {
            assert_eq!(
                p.block_runs, reference.block_runs,
                "seed {seed}: {} disagrees with {} on logical block counts",
                p.engine, reference.engine
            );
            assert_eq!(p.cycles, reference.cycles, "seed {seed}");
            assert_eq!(p.settles, reference.settles, "seed {seed}");
            assert_eq!(
                p.net_activity, reference.net_activity,
                "seed {seed}: activity counters diverged on {}",
                p.engine
            );
        }
        // Physical stats sanity: event-driven engines observe a queue,
        // the static engine has none, and every engine spent time.
        for p in &profiles {
            match p.engine {
                Engine::SpecializedOpt | Engine::SpecializedPar => assert_eq!(
                    p.queue_depth.samples(),
                    0,
                    "static-schedule engine has no event queue"
                ),
                _ => assert!(
                    p.queue_depth.samples() > 0,
                    "{}: event engine must record queue pops",
                    p.engine
                ),
            }
            assert!(p.fixpoint_iters.samples() > 0, "{}: settle passes must be recorded", p.engine);
            assert!(
                p.block_nanos.iter().sum::<u64>() > 0,
                "{}: cumulative block time must be non-zero",
                p.engine
            );
            let report = p.report(5);
            assert!(report.contains("hot blocks"), "{}:\n{report}", p.engine);
        }
    }
}

#[test]
fn engines_agree_on_wide_widths() {
    // Seeds chosen to exercise 64-128 bit paths more heavily via the
    // random width draws.
    for seed in 100..=104 {
        run_equivalence(seed, 25);
    }
}

/// Shift and slice edge cases driven from signal values: the shift amount
/// arrives on an input port and routinely meets or exceeds the data
/// width, and the slices sit on the width boundaries. Every engine must
/// agree with the `Bits` reference semantics (shifts saturate to
/// all-zeros / sign fill; slices are `[lo, hi)`).
#[test]
fn shift_and_slice_edges_agree_on_all_engines() {
    const W: u32 = 13;
    #[derive(Hash)]
    struct ShiftEdges;
    impl Component for ShiftEdges {
        fn build(&self, c: &mut Ctx) {
            let data = c.in_port("data", W);
            let amt = c.in_port("amt", 8);
            let sll = c.out_port("sll", W);
            let srl = c.out_port("srl", W);
            let sra = c.out_port("sra", W);
            let top = c.out_port("top", 1);
            let full = c.out_port("full", W);
            let mid = c.out_port("mid", 5);
            c.comb("shifts", |b| {
                b.assign(sll, data.ex().sll(amt.ex()));
                b.assign(srl, data.ex().srl(amt.ex()));
                b.assign(sra, data.ex().sra(amt.ex()));
            });
            c.comb("slices", |b| {
                b.assign(top, data.ex().bit(W - 1));
                b.assign(full, data.ex().slice(0, W));
                b.assign(mid, data.ex().slice(4, 9));
            });
        }
    }
    let mut sims: Vec<Sim> =
        Engine::ALL.iter().map(|&e| Sim::build(&ShiftEdges, e).expect("elaborates")).collect();
    for sim in &mut sims {
        sim.reset();
    }
    // (data, amount): amounts straddle the width boundary, with the MSB
    // both set (sra fills with ones) and clear (sra fills with zeros).
    let stimuli: [(u128, u128); 6] = [
        (0x0234, 0),   // no shift
        (0x1FFF, 12),  // amount = width - 1
        (0x1FFF, 13),  // amount = width exactly
        (0x1000, 14),  // amount > width, MSB set
        (0x0FFF, 200), // amount far beyond width, MSB clear
        (0x1AAA, 255), // max representable amount
    ];
    for &(data, amt) in &stimuli {
        for sim in &mut sims {
            sim.poke_port("data", b(W, data));
            sim.poke_port("amt", b(8, amt));
            sim.eval();
        }
        let d = b(W, data);
        let expect = [
            ("sll", d << amt as u32),
            ("srl", d >> amt as u32),
            ("sra", d.shr_signed(amt as u32)),
            ("top", b(1, (data >> (W - 1)) & 1)),
            ("full", d),
            ("mid", d.slice(4, 9)),
        ];
        for sim in &sims {
            for (port, want) in &expect {
                assert_eq!(
                    sim.peek_port(port),
                    *want,
                    "{}: `{port}` wrong for data={data:#x} amt={amt}",
                    sim.engine()
                );
            }
        }
    }
}

/// A zero-width slice is a structural error, not a silent no-op: it must
/// be rejected at elaboration time on every engine's shared front end.
#[test]
fn zero_width_slice_is_rejected_at_elaboration() {
    #[derive(Hash)]
    struct ZeroSlice;
    impl Component for ZeroSlice {
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let out = c.out_port("out", 8);
            c.comb("bad", |b| b.assign(out, a.ex().slice(3, 3).zext(8)));
        }
    }
    let err =
        rustmtl::core::elaborate(&ZeroSlice).expect_err("zero-width slice must not elaborate");
    let msg = format!("{err}");
    assert!(msg.contains("slice"), "error should name the slice: {msg}");
}

/// Equivalence must also hold under *perturbation*: a seeded fault plan
/// injected into a random RTL design makes every engine configuration
/// (the four engines of `Engine::ALL`, plus `SpecializedPar` at 1 and 4
/// threads) diverge from the golden run *identically* — same faulty-trace
/// fingerprint, same first-divergence cycle, same masked/silent/detected
/// classification, same blast radius. Fault injection stresses the
/// settle machinery differently from clean simulation (forces are
/// re-applied mid-settle), so this is a distinct property from
/// `engines_agree_on_random_designs`, not a corollary.
#[test]
fn engines_diverge_identically_under_fault_plans() {
    use rustmtl::fault::{engine_agreement, FaultPlan, Outcome, PlanSpec};

    let mut non_masked = 0;
    for seed in [1u64, 4, 8, 13] {
        let design = RandomRtl::new(seed);
        let probe = Sim::build(&design, Engine::Interpreted).expect("elaborates");
        let plan = FaultPlan::random(seed ^ 0xFA17, probe.design(), &PlanSpec::new(3, 2, 31));
        drop(probe);
        let report =
            engine_agreement(&design, &plan, 30).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.injected_bits > 0, "seed {seed}: plan must disturb something");
        if report.outcome != Outcome::Masked {
            non_masked += 1;
        }
    }
    // Masking is legitimate per-seed, but if *every* plan were masked the
    // injection hook would effectively be a no-op and this test vacuous.
    assert!(non_masked > 0, "at least one seeded plan must visibly perturb the design");
}

/// Runs `sims` (labelled by `labels`; the first is the reference) in
/// lockstep: the named top-level ports are compared every cycle, every net
/// and every word of every memory every 40th cycle so debug-mode test time
/// stays bounded.
fn assert_lockstep(sims: &mut [Sim], labels: &[String], ports: &[&str], cycles: u64) {
    let nsignals = sims[0].design().signals().len();
    for cycle in 0..cycles {
        for sim in sims.iter_mut() {
            sim.cycle();
        }
        for port in ports {
            let reference = sims[0].peek_port(port);
            for (sim, label) in sims.iter().zip(labels).skip(1) {
                assert_eq!(sim.peek_port(port), reference, "{label}: `{port}` at cycle {cycle}");
            }
        }
        if cycle % 40 == 39 {
            for si in 0..nsignals {
                let sig = rustmtl::core::SignalId::from_index(si);
                let reference = sims[0].peek(sig);
                for (sim, label) in sims.iter().zip(labels).skip(1) {
                    let path = || sims[0].design().signal_path(sig);
                    assert_eq!(sim.peek(sig), reference, "{label}: `{}` at cycle {cycle}", path());
                }
            }
            for (mi, mem) in sims[0].design().mems().iter().enumerate() {
                let id = rustmtl::core::MemId::from_index(mi);
                for addr in 0..mem.words {
                    let reference = sims[0].peek_mem(id, addr);
                    for (sim, label) in sims.iter().zip(labels).skip(1) {
                        let got = sim.peek_mem(id, addr);
                        assert_eq!(got, reference, "{label}: `{}`[{addr}] at {cycle}", mem.name);
                    }
                }
            }
        }
    }
}

/// Builds and resets one simulator per `(engine, threads)` configuration.
fn build_each(top: &dyn Component, configs: &[(Engine, Option<usize>)]) -> (Vec<Sim>, Vec<String>) {
    let build = |&(engine, threads): &(Engine, Option<usize>)| {
        let cfg = SimConfig { threads, ..Default::default() };
        let mut sim = Sim::build_with_config(top, engine, &cfg).expect("design elaborates");
        sim.reset();
        sim
    };
    let label = |&(engine, threads): &(Engine, Option<usize>)| format!("{engine}@{threads:?}");
    (configs.iter().map(build).collect(), configs.iter().map(label).collect())
}

/// Engine equivalence on the *composed* SoC, not just random designs: a
/// 64-tile RTL mesh of traffic-generating tiles is the largest
/// elaboration in the tree (~15k signals, 64 routers), and the
/// acceptance bar for `mtl-soc` is that engine choice stays a pure
/// performance knob on it. Interpreted, SpecializedOpt, and
/// SpecializedPar at explicit 1, 2, 4 and 8 threads must agree on the
/// architectural ports every cycle and on every net and memory word at
/// checkpoints. Its ganged queue bodies hold the `mem-write-if`s whose
/// stores the lane executor queues.
///
/// A second leg runs bursty traffic at a low rate and a small budget —
/// idle gaps, bursts, then a drained and fully idle SoC — with one
/// simulator profiled, which runs its schedule block by block. A third
/// runs the RTL mesh harness, whose native traffic blocks sit between the
/// gangs.
#[test]
fn engines_agree_on_64_tile_soc() {
    use rustmtl::net::{MeshTrafficHarness, NetLevel};
    use rustmtl::soc::{Soc, SocConfig, SocTraffic};
    let ports = ["checksum", "injected", "delivered"];

    let soc = Soc::new(SocConfig::synthetic(64, NetLevel::Rtl, SocTraffic::Tornado).with_limit(4));
    let (mut sims, labels) = build_each(
        &soc,
        &[
            (Engine::Interpreted, None),
            (Engine::SpecializedOpt, None),
            (Engine::SpecializedPar, Some(1)),
            (Engine::SpecializedPar, Some(2)),
            (Engine::SpecializedPar, Some(4)),
            (Engine::SpecializedPar, Some(8)),
        ],
    );
    let nsignals = sims[0].design().signals().len();
    assert!(nsignals > 10_000, "64-tile RTL SoC should be the largest design in the tree");
    assert_lockstep(&mut sims, &labels, &ports, 160);
    // The workload must actually have exercised the mesh by now.
    assert!(sims[0].peek_port("injected").as_u64() > 0, "tornado traffic must inject");

    let bursty = SocConfig::synthetic(64, NetLevel::Rtl, SocTraffic::Bursty);
    let soc = Soc::new(bursty.with_injection(60).with_limit(3));
    let par = |threads| (Engine::SpecializedPar, Some(threads));
    let (mut sims, labels) = build_each(&soc, &[(Engine::SpecializedOpt, None), par(2), par(3)]);
    sims[2].enable_profiling();
    assert_lockstep(&mut sims, &labels, &ports, 320);
    let (injected, delivered) = (sims[0].peek_port("injected"), sims[0].peek_port("delivered"));
    assert_eq!(injected.as_u64(), 64 * 3, "every terminal spent its budget");
    assert_eq!(delivered, injected, "the SoC drained and went idle");
    let profile = sims[2].profile().expect("profiling enabled");
    assert!(profile.block_nanos.iter().sum::<u64>() > 0, "the profiled run times its blocks");

    let harness = || MeshTrafficHarness::new(NetLevel::Rtl, 64, 300, 5);
    let (tops, configs) = ([harness(), harness()], [(Engine::SpecializedOpt, None), par(2)]);
    let mut sims = Vec::new();
    for (top, config) in tops.iter().zip(&configs) {
        sims.extend(build_each(top, &[*config]).0);
    }
    assert_lockstep(&mut sims, &["opt".into(), "par@2".into()], &[], 120);
    let counts = |h: &MeshTrafficHarness| {
        let s = h.stats();
        let s = s.lock().unwrap();
        (s.injected, s.received, s.total_latency, s.misrouted)
    };
    assert_eq!(counts(&tops[1]), counts(&tops[0]), "native blocks saw the same traffic");
    assert!(counts(&tops[0]).1 > 0, "the mesh delivered packets");
}

/// The compute personality (full proc+cache+xcel tiles speaking memory
/// packets over the mesh) run in lockstep across engines, every net
/// compared every cycle until the SoC halts: shared `TestMemory` backing
/// is safe exactly because the engines are cycle-exact — every write
/// lands with identical value and timing. Its routers' 80-bit queue
/// bodies run as `u128`-class gangs on `specialized-opt` and
/// `specialized-par`.
#[test]
fn engines_agree_on_compute_soc() {
    use rustmtl::net::NetLevel;
    use rustmtl::soc::{Soc, SocConfig, SocTraffic};

    let soc = Soc::new(SocConfig::compute(
        4,
        rustmtl::accel::TileConfig {
            proc: rustmtl::proc::ProcLevel::Rtl,
            cache: rustmtl::proc::CacheLevel::Rtl,
            xcel: rustmtl::accel::XcelLevel::Rtl,
        },
        NetLevel::Rtl,
        SocTraffic::UniformRandom,
    ));
    let (mut sims, labels) = build_each(
        &soc,
        &[
            (Engine::Interpreted, None),
            (Engine::SpecializedOpt, None),
            (Engine::SpecializedPar, Some(2)),
        ],
    );
    let rep = sims[1].opt_report().expect("specialized-opt reports its plans");
    assert!(rep.wide_gangs > 0, "a u128-class body gangs: {:?}", rep.gang_line());
    let (mut reference, mut values) = (Vec::new(), Vec::new());
    let mut halted_at = None;
    for cycle in 0..20_000u64 {
        for sim in &mut sims {
            sim.cycle();
        }
        sims[0].net_values(0, &mut reference);
        for (sim, label) in sims.iter().zip(&labels).skip(1) {
            sim.net_values(0, &mut values);
            if let Some(net) = (0..values.len()).find(|&n| values[n] != reference[n]) {
                panic!(
                    "{label} diverged on net {net} at cycle {cycle}: {:#x}, interpreted {:#x}",
                    values[net], reference[net]
                );
            }
        }
        if sims[0].peek_port("halted") == b(1, 1) {
            halted_at = Some(cycle);
            break;
        }
    }
    let halted_at = halted_at.expect("compute SoC must halt on every engine");
    assert!(halted_at > 50, "plausible runtime, got {halted_at} cycles");
    assert_eq!(soc.read_results(), soc.expected_results(), "results must match host model");
}

/// `(narrow tapes, tapes, narrow ops, ops)` of a build's optimizer report.
fn width_classes(top: &dyn Component, engine: Engine) -> (u64, u64, u64, u64) {
    let sim = Sim::build(top, engine).expect("design elaborates");
    let rep = sim.opt_report().expect("tape engine with the optimizer on");
    (rep.narrow_tapes, rep.tapes, rep.narrow_ops, rep.ops_after)
}

/// Which word class a tape runs on is proved per tape from the design,
/// never configured. The RTL mesh and the synthetic SoC have no net wider
/// than 64 bits, so every tape — per block, fused, per partition unit —
/// must run the `u64` class (one that does not is a classification
/// regression and a third of the hot loop's speed). The compute SoC's
/// 68/88-bit memory packets cross its routers, so its fused schedules
/// must stay on `u128`; that they still match the interpreter every cycle
/// is `engines_agree_on_compute_soc`.
#[test]
fn tape_width_classes_follow_the_design() {
    use rustmtl::net::{MeshTrafficHarness, NetLevel};
    use rustmtl::soc::{Soc, SocConfig, SocTraffic};

    let mesh = MeshTrafficHarness::new(NetLevel::Rtl, 64, 300, 1);
    let soc = Soc::new(SocConfig::synthetic(64, NetLevel::Rtl, SocTraffic::Tornado));
    let all_narrow: [(&dyn Component, Engine); 2] =
        [(&mesh, Engine::SpecializedOpt), (&soc, Engine::SpecializedOpt)];
    for (top, engine) in all_narrow {
        let (narrow_tapes, tapes, narrow_ops, ops) = width_classes(top, engine);
        assert!(tapes > 0 && ops > 0, "{engine}: tapes were compiled");
        assert_eq!((narrow_tapes, narrow_ops), (tapes, ops), "{engine}: every tape is narrow");
    }

    let compute = Soc::new(SocConfig::compute(
        4,
        rustmtl::accel::TileConfig {
            proc: rustmtl::proc::ProcLevel::Rtl,
            cache: rustmtl::proc::CacheLevel::Rtl,
            xcel: rustmtl::accel::XcelLevel::Rtl,
        },
        NetLevel::Rtl,
        SocTraffic::UniformRandom,
    ));
    // `Specialized` reports the per-block tapes, `SpecializedOpt` those
    // plus its fused schedules: the difference is the fused tapes.
    let (block_narrow, blocks, ..) = width_classes(&compute, Engine::Specialized);
    let (narrow, tapes, ..) = width_classes(&compute, Engine::SpecializedOpt);
    assert!(block_narrow > 0 && block_narrow < blocks, "compute SoC mixes both classes");
    let (fused, fused_narrow) = (tapes - blocks, narrow - block_narrow);
    assert!(fused > 0 && fused_narrow < fused, "a wide net keeps its fused schedule wide");
}

/// `SpecializedPar` must be cycle-exact with `SpecializedOpt` on every
/// random design of `engines_agree_on_random_designs` at explicit thread
/// counts — one, even (2, 4, 8), odd (3) and absurd (`usize::MAX`), none
/// of which any engine reads — including the logical profile counters and
/// the activity toggles, not just settled values.
#[test]
fn specialized_par_matches_opt_at_explicit_thread_counts() {
    for threads in [1usize, 2, 3, 4, 8, usize::MAX] {
        for seed in 1u64..=12 {
            let mut opt =
                Sim::build(&RandomRtl::new(seed), Engine::SpecializedOpt).expect("elaborates");
            let cfg = SimConfig { threads: Some(threads), ..Default::default() };
            let mut par =
                Sim::build_with_config(&RandomRtl::new(seed), Engine::SpecializedPar, &cfg)
                    .expect("elaborates");
            opt.enable_profiling();
            par.enable_profiling();
            opt.reset();
            par.reset();
            let nsignals = opt.design().signals().len();
            let mut rng = Rng(seed ^ 0xFACE);
            for cycle in 0..40 {
                for i in 0..3 {
                    let name = format!("in{i}");
                    let w = {
                        let d = opt.design();
                        d.signal(d.top_port(&name)).width
                    };
                    let v = Bits::new(w, rng.next() as u128 | ((rng.next() as u128) << 64));
                    opt.poke_port(&name, v);
                    par.poke_port(&name, v);
                }
                opt.cycle();
                par.cycle();
                for si in 0..nsignals {
                    let sig = rustmtl::core::SignalId::from_index(si);
                    assert_eq!(
                        par.peek(sig),
                        opt.peek(sig),
                        "threads={threads} seed={seed}: diverged on `{}` at cycle {cycle}",
                        opt.design().signal_path(sig)
                    );
                }
            }
            let po = opt.profile().expect("profiling enabled");
            let pp = par.profile().expect("profiling enabled");
            assert_eq!(pp.block_runs, po.block_runs, "threads={threads} seed={seed}: block runs");
            assert_eq!(pp.cycles, po.cycles, "threads={threads} seed={seed}: cycles");
            assert_eq!(pp.settles, po.settles, "threads={threads} seed={seed}: settles");
            assert_eq!(
                pp.net_activity, po.net_activity,
                "threads={threads} seed={seed}: activity counters"
            );
            assert!(
                pp.partition_nanos.len() <= threads.min(64),
                "threads={threads}: at most {threads} workers (and never over 64) expected, got {}",
                pp.partition_nanos.len()
            );
        }
    }
}

/// `specialized-par` is `specialized-opt` on the calling thread, whatever
/// `threads` says: at none, one, two, four and eight threads it runs in
/// lockstep with `specialized-opt` on the 64-tile SoC and on the RTL mesh
/// — both have gangs of several lane blocks — and a profiled run reports
/// no per-thread busy time.
#[test]
fn specialized_par_is_specialized_opt_at_every_thread_count() {
    use rustmtl::net::{MeshTrafficRtlHarness, NetLevel};
    use rustmtl::soc::{Soc, SocConfig, SocTraffic};

    let soc = Soc::new(SocConfig::synthetic(64, NetLevel::Rtl, SocTraffic::Tornado).with_limit(4));
    let mesh = MeshTrafficRtlHarness::new(16, 300, 5);
    let tops: [(&dyn Component, &[&str]); 2] =
        [(&soc, &["checksum", "injected", "delivered"]), (&mesh, &["checksum"])];
    let par = |threads| (Engine::SpecializedPar, threads);
    let configs = [
        (Engine::SpecializedOpt, None),
        par(None),
        par(Some(1)),
        par(Some(2)),
        par(Some(4)),
        par(Some(8)),
    ];
    for (top, ports) in tops {
        let (mut sims, labels) = build_each(top, &configs);
        let rep = sims[0].opt_report().expect("specialized-opt reports its plans");
        assert!(rep.gangs > 0, "{}: the plans gang: {:?}", top.name(), rep.gang_line());
        assert_lockstep(&mut sims, &labels, ports, 80);
        for (sim, label) in sims.iter_mut().zip(&labels).skip(1) {
            sim.enable_profiling();
            sim.run(5);
            let profile = sim.profile().expect("profiling enabled");
            assert!(profile.partition_nanos.is_empty(), "{label}: {:?}", profile.partition_nanos);
            assert!(profile.block_nanos.iter().sum::<u64>() > 0, "{label}: blocks are timed");
        }
    }
}
