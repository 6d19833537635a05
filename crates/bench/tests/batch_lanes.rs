//! Lane-correctness guards for [`Engine::SpecializedBatch`].
//!
//! The batch engine holds up to 64 trials in one simulator, each lane its
//! own packed state run by the static tape engine. The contract the rest
//! of the stack builds on — fault campaigns, differential fuzz, divergence
//! detection — is that **every lane is bit-exact with a scalar
//! `SpecializedOpt` simulator receiving that lane's stimulus and faults
//! alone**. These tests pin that contract:
//!
//! * per-lane distinct stimulus across the whole native-free slice of the
//!   benchmark design registry (partial bundles: `lanes < 64`),
//! * full 64-lane bundles on randomized RTL,
//! * the `Switch`-bearing RTL components, whose fused schedules keep jumps
//!   (lanes taking different arms),
//! * unoptimized tapes (`tape_opt: false`),
//! * [`Sim::divergence_masks`] flagging exactly the diverged lanes,
//! * per-lane fault injection versus a scalar faulted run, lane by lane,
//!   with lanes forced, washing and clean on the same cycle;
//! * lanes that follow lane 0 (see `mtl_sim`'s batch module): faults
//!   installed on every lane, lane 0 included, stuck-at lanes with their
//!   cleanup pending under broadcast stimulus, and a plan whose lane
//!   reconverges with lane 0 and is then faulted again — each against
//!   scalar runs, with [`Sim::divergence_masks`] (where a reconverged lane
//!   goes back to following lane 0) called every cycle.

use mtl_accel::DotProductRTL;
use mtl_bench::design_registry;
use mtl_bits::Bits;
use mtl_check::RandomRtl;
use mtl_core::{BlockBody, BlockKind, Component, SignalId, SignalKind};
use mtl_fault::{run_diff, run_diffs, DiffConfig, Fault, FaultKind, FaultPlan, PlanSpec};
use mtl_net::MeshTrafficRtlHarness;
use mtl_proc::{CacheRTL, ProcPipeRTL, ProcRTL};
use mtl_sim::{Engine, InjectKind, Injection, Sim, SimConfig};

/// xorshift64* — deterministic, dependency-free stimulus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bits(&mut self, w: u32) -> Bits {
        Bits::new(w, self.next() as u128 | ((self.next() as u128) << 64))
    }
}

/// Top-level input ports (excluding the implicit reset, which the shared
/// reset protocol already drives identically on every lane).
fn input_ports(sim: &Sim) -> Vec<(SignalId, u32)> {
    let d = sim.design();
    (0..d.signals().len())
        .map(SignalId::from_index)
        .filter(|&s| {
            let info = d.signal(s);
            info.kind == SignalKind::InPort && info.module == d.top() && s != d.reset()
        })
        .map(|s| (s, d.signal(s).width))
        .collect()
}

/// Drives one batch sim and `lanes` scalar sims with per-lane distinct
/// stimulus and asserts every signal on every lane matches its scalar
/// twin, every cycle.
fn assert_lanes_match(name: &str, batch: &mut Sim, scalars: &mut [Sim], cycles: u64, seed: u64) {
    let lanes = scalars.len() as u32;
    assert_eq!(batch.lane_count(), lanes, "{name}: lane count");
    batch.reset();
    for s in scalars.iter_mut() {
        s.reset();
    }
    let inputs = input_ports(batch);
    let nsignals = batch.design().signals().len();
    let mut rng = Rng(seed | 1);
    for cyc in 0..cycles {
        for &(sig, w) in &inputs {
            for lane in 0..lanes {
                let v = rng.bits(w);
                batch.poke_lane(lane, sig, v);
                scalars[lane as usize].poke(sig, v);
            }
        }
        batch.cycle();
        for s in scalars.iter_mut() {
            s.cycle();
        }
        for lane in 0..lanes {
            for si in 0..nsignals {
                let sig = SignalId::from_index(si);
                let b = batch.peek_lane(lane, sig);
                let s = scalars[lane as usize].peek(sig);
                assert_eq!(
                    b,
                    s,
                    "{name}: cycle {cyc} lane {lane} signal `{}` batch={b} scalar={s}",
                    batch.design().signal_path(sig)
                );
            }
        }
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Every native-free design in the benchmark registry, lane-by-lane
/// bit-exact with scalar `SpecializedOpt` under a *partial* bundle
/// (5 lanes — exercises trials % 64 != 0 plumbing on every design).
#[test]
fn batch_lanes_match_scalar_over_registry() {
    const LANES: u32 = 5;
    let mut covered = Vec::new();
    for (name, comp) in design_registry() {
        let design = mtl_core::elaborate(&*comp).expect("registry design elaborates");
        if design.blocks().iter().any(|b| !matches!(b.body, BlockBody::Ir(_))) {
            continue; // native blocks: one closure is one instance, not 64
        }
        drop(design);
        let cfg = SimConfig { lanes: Some(LANES), ..SimConfig::default() };
        let mut batch =
            Sim::build_with_config(&*comp, Engine::SpecializedBatch, &cfg).expect("elaborates");
        let mut scalars: Vec<Sim> = (0..LANES)
            .map(|_| Sim::build(&*comp, Engine::SpecializedOpt).expect("elaborates"))
            .collect();
        assert_lanes_match(&name, &mut batch, &mut scalars, 10, fnv(&name));
        covered.push(name);
    }
    // The registry holds 27 designs; the native-free slice (stdlib RTL +
    // the RTL harnesses + RandomRtl) must not silently shrink.
    assert!(
        covered.len() >= 14,
        "native-free registry coverage shrank to {}: {covered:?}",
        covered.len()
    );
}

/// Full 64-lane bundles on randomized RTL (random widths incl. 1-bit and
/// wider-than-64-bit signals, registers, memories) — one batch pass versus 64
/// scalar simulators.
#[test]
fn batch_full_bundle_matches_scalar_on_fuzz_seeds() {
    for seed in [1u64, 7, 13] {
        let comp = RandomRtl::new(seed);
        let cfg = SimConfig { lanes: Some(64), ..SimConfig::default() };
        let mut batch =
            Sim::build_with_config(&comp, Engine::SpecializedBatch, &cfg).expect("elaborates");
        let mut scalars: Vec<Sim> = (0..64)
            .map(|_| Sim::build(&comp, Engine::SpecializedOpt).expect("elaborates"))
            .collect();
        assert_lanes_match(
            &format!("RandomRtl({seed})"),
            &mut batch,
            &mut scalars,
            12,
            seed ^ 0xBA7C,
        );
    }
}

/// The components whose `Switch` statements survive the optimizer
/// (if-conversion plans only `Jz`), so their fused comb and seq schedules
/// reach the batch engine with jumps: random per-lane stimulus sends the
/// lanes down different arms, and each must still match its scalar twin —
/// on a full bundle and on a partial one.
#[test]
fn switch_bearing_components_match_scalar_under_divergent_lanes() {
    let comps: [(&str, Box<dyn Component>); 4] = [
        ("DotProductRTL", Box::new(DotProductRTL)),
        ("ProcRTL", Box::new(ProcRTL)),
        ("ProcPipeRTL", Box::new(ProcPipeRTL)),
        ("CacheRTL_16", Box::new(CacheRTL::new(16))),
    ];
    for (name, comp) in &comps {
        for lanes in [64u32, 3] {
            let cfg = SimConfig { lanes: Some(lanes), ..SimConfig::default() };
            let mut batch = Sim::build_with_config(&**comp, Engine::SpecializedBatch, &cfg)
                .expect("elaborates");
            let mut scalars: Vec<Sim> = (0..lanes)
                .map(|_| Sim::build(&**comp, Engine::SpecializedOpt).expect("elaborates"))
                .collect();
            assert_lanes_match(
                &format!("{name}/{lanes} lanes"),
                &mut batch,
                &mut scalars,
                24,
                fnv(name),
            );
        }
    }
}

/// The batch lanes run whatever tape the optimizer hands them; with the
/// pass pipeline disabled they must still agree lane-for-lane with an
/// *optimized* scalar engine (optimization is a performance knob, never a
/// semantics knob — same rule as the scalar engines).
#[test]
fn batch_agrees_with_scalar_when_optimizer_disabled() {
    for seed in [2u64, 5] {
        let comp = RandomRtl::new(seed);
        let cfg = SimConfig { lanes: Some(7), tape_opt: false, ..SimConfig::default() };
        let mut batch =
            Sim::build_with_config(&comp, Engine::SpecializedBatch, &cfg).expect("elaborates");
        let mut scalars: Vec<Sim> = (0..7)
            .map(|_| Sim::build(&comp, Engine::SpecializedOpt).expect("elaborates"))
            .collect();
        assert_lanes_match(
            &format!("RandomRtl({seed})/opt-off"),
            &mut batch,
            &mut scalars,
            10,
            seed ^ 0x0FF0,
        );
    }
}

/// `divergence_masks` reports no divergence under broadcast stimulus, and
/// after one lane receives different stimulus it flags *only* that lane
/// (never the golden lane's own bit).
#[test]
fn divergence_masks_flag_only_diverged_lanes() {
    const LANES: u32 = 8;
    const ODD: u32 = 5;
    let comp = RandomRtl::new(3);
    let cfg = SimConfig { lanes: Some(LANES), ..SimConfig::default() };
    let mut sim =
        Sim::build_with_config(&comp, Engine::SpecializedBatch, &cfg).expect("elaborates");
    sim.reset();
    let inputs = input_ports(&sim);
    assert!(!inputs.is_empty(), "RandomRtl(3) must expose input ports");
    let mut rng = Rng(0xD1FF);

    // Broadcast stimulus: all lanes identical, so no net may diverge.
    let mut masks = Vec::new();
    for _ in 0..4 {
        for &(sig, w) in &inputs {
            sim.poke(sig, rng.bits(w));
        }
        sim.cycle();
        assert!(!sim.divergence_masks(&mut masks), "clean broadcast run diverged: {masks:?}");
    }

    // Perturb exactly one lane's stimulus.
    let (sig, w) = inputs[0];
    let base = rng.bits(w);
    let flipped = Bits::new(w, base.as_u128() ^ 1);
    assert_ne!(base, flipped, "1-bit flip must change the driven value");
    for lane in 0..LANES {
        sim.poke_lane(lane, sig, if lane == ODD { flipped } else { base });
    }
    sim.cycle();
    assert!(sim.divergence_masks(&mut masks), "perturbed lane not detected");
    let mut any = 0u64;
    for (net, &m) in masks.iter().enumerate() {
        assert_eq!(m & !(1 << ODD), 0, "net {net}: lanes beyond {ODD} flagged: {m:#x}");
        any |= m;
    }
    assert_eq!(any, 1 << ODD, "divergence must land on lane {ODD}");
}

/// Per-lane fault injection: the faults installed on a batch lane yield a
/// trace byte-identical to a scalar engine running the same faults, and
/// every other lane stays byte-identical to its own scalar twin — fault
/// isolation across the lanes. Two inputs:
///
/// * one lane carrying a random plan, under broadcast stimulus;
/// * the per-lane protocol: lane 1 holds a combinational net that a
///   register reads stuck-at through cycles 4–6, so on cycle 7 it washes
///   its forces out with a full pass while lane 2 — also flipped on cycle
///   5 — takes the forced settle from cycle 7 on, and lanes 0 and 3 stay
///   clean. Every lane gets its own stimulus, so a clean lane is dirty
///   whenever a neighbour takes the forced path; lane 1's stops changing
///   once it is stuck, so only the wash can re-settle it.
#[test]
fn injected_lane_matches_scalar_faulted_run() {
    const LANES: u32 = 4;
    for seed in [4u64, 8] {
        let comp = RandomRtl::new(seed);
        let design = mtl_core::elaborate(&comp).expect("elaborates");
        let plan = FaultPlan::random(seed ^ 0xFA17, &design, &PlanSpec::new(3, 2, 9));
        let planned = plan.to_injections(&design).expect("plan resolves");
        let at = |i: usize, kind, cycle, duration| Injection {
            mask: 1,
            kind,
            cycle,
            duration,
            ..planned[i % planned.len()]
        };
        // A combinational net a register captures: forces left on it
        // reach the state unless the next settle washes them out.
        let latched = design.blocks().iter().filter(|b| b.kind == BlockKind::Seq);
        let latched = latched.flat_map(|b| b.reads.iter().copied()).find(|&sig| {
            let net = design.net_of(sig).index();
            !design.nets()[net].is_register && !design.net_writers()[net].is_empty()
        });
        let latched = latched.expect("a register reads a driven combinational net");
        let width = design.signal(latched).width;
        let mask = u128::MAX >> (128 - width);
        let stuck = Injection { sig: latched, mask, ..at(0, InjectKind::StuckAt1, 4, 3) };
        let offset = vec![
            vec![],
            vec![stuck],
            vec![at(1, InjectKind::Flip, 5, 1), at(2, InjectKind::StuckAt0, 7, 3)],
            vec![],
        ];
        let one_plan = vec![vec![], vec![], planned.clone(), vec![]];
        for (input, (faults, own_stimulus)) in
            [(one_plan, false), (offset, true)].iter().enumerate()
        {
            let cfg = SimConfig { lanes: Some(LANES), ..SimConfig::default() };
            let mut batch =
                Sim::build_with_config(&comp, Engine::SpecializedBatch, &cfg).expect("elaborates");
            let mut twins: Vec<Sim> = (0..LANES)
                .map(|_| Sim::build(&comp, Engine::SpecializedOpt).expect("elaborates"))
                .collect();
            for (lane, (twin, faults)) in twins.iter_mut().zip(faults).enumerate() {
                for &inj in faults {
                    batch.inject_lane(lane as u32, inj);
                    twin.inject(inj);
                }
            }

            batch.reset();
            twins.iter_mut().for_each(Sim::reset);
            let inputs = input_ports(&batch);
            let nsignals = batch.design().signals().len();
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9) | 1);
            for cyc in 0..12 {
                for &(sig, w) in &inputs {
                    let broadcast = rng.bits(w);
                    for (lane, twin) in twins.iter_mut().enumerate() {
                        let v = if *own_stimulus { rng.bits(w) } else { broadcast };
                        // The stuck lane holds its inputs once stuck, so
                        // nothing but the wash re-settles it afterwards.
                        if *own_stimulus && lane == 1 && batch.cycle_count() >= 4 {
                            continue;
                        }
                        batch.poke_lane(lane as u32, sig, v);
                        twin.poke(sig, v);
                    }
                }
                batch.cycle();
                twins.iter_mut().for_each(Sim::cycle);
                for (lane, twin) in twins.iter().enumerate() {
                    for sig in (0..nsignals).map(SignalId::from_index) {
                        assert_eq!(
                            batch.peek_lane(lane as u32, sig),
                            twin.peek(sig),
                            "seed {seed} input {input} cycle {cyc}: lane {lane} != its scalar \
                             twin on `{}`",
                            batch.design().signal_path(sig)
                        );
                    }
                }
            }
            for (lane, (twin, faults)) in twins.iter().zip(faults).enumerate() {
                let totals = batch.lane_fault_totals(lane as u32);
                assert_eq!(totals, twin.lane_fault_totals(0), "seed {seed} input {input}");
                let injected = totals.0 > 0 && totals.1 > 0;
                assert_eq!(injected, !faults.is_empty(), "seed {seed} input {input} lane {lane}");
            }
        }
    }
}

/// Runs `comp` on a batch simulator of `faults.len()` lanes and on one
/// scalar `SpecializedOpt` twin per lane, installing `everywhere` with
/// [`Sim::inject`] (every lane of the batch, every twin) and `faults[l]`
/// on lane `l` alone, then drives broadcast stimulus for `cycles` cycles.
/// Every cycle it calls [`Sim::divergence_masks`] — so a lane that became
/// equal to lane 0 follows it again — and asserts every signal of every
/// lane equals its twin's; at the end, every lane's fault totals.
fn assert_faulted_lanes_match(
    name: &str,
    comp: &dyn Component,
    everywhere: &[Injection],
    faults: &[Vec<Injection>],
    cycles: u64,
    seed: u64,
) {
    let lanes = faults.len() as u32;
    let cfg = SimConfig { lanes: Some(lanes), ..SimConfig::default() };
    let mut batch =
        Sim::build_with_config(comp, Engine::SpecializedBatch, &cfg).expect("elaborates");
    let mut twins: Vec<Sim> =
        (0..lanes).map(|_| Sim::build(comp, Engine::SpecializedOpt).expect("elaborates")).collect();
    for &inj in everywhere {
        batch.inject(inj);
        twins.iter_mut().for_each(|t| t.inject(inj));
    }
    for (lane, (twin, faults)) in twins.iter_mut().zip(faults).enumerate() {
        for &inj in faults {
            batch.inject_lane(lane as u32, inj);
            twin.inject(inj);
        }
    }
    batch.reset();
    twins.iter_mut().for_each(Sim::reset);
    let inputs = input_ports(&batch);
    let nsignals = batch.design().signals().len();
    let mut rng = Rng(seed | 1);
    let mut masks = Vec::new();
    for cyc in 0..cycles {
        for &(sig, w) in &inputs {
            let v = rng.bits(w);
            batch.poke(sig, v);
            twins.iter_mut().for_each(|t| t.poke(sig, v));
        }
        batch.cycle();
        twins.iter_mut().for_each(Sim::cycle);
        batch.divergence_masks(&mut masks);
        for (lane, twin) in twins.iter().enumerate() {
            for sig in (0..nsignals).map(SignalId::from_index) {
                assert_eq!(
                    batch.peek_lane(lane as u32, sig),
                    twin.peek(sig),
                    "{name} cycle {cyc}: lane {lane} != its scalar twin on `{}`",
                    batch.design().signal_path(sig)
                );
            }
        }
    }
    for (lane, twin) in twins.iter().enumerate() {
        let totals = batch.lane_fault_totals(lane as u32);
        assert_eq!(totals, twin.lane_fault_totals(0), "{name}: lane {lane} fault totals");
    }
}

/// [`Sim::inject`] installs a fault on every lane, lane 0 included, so
/// its first write forks every lane that follows lane 0; lane 3 carries
/// one more fault of its own. Every lane matches a scalar run of its
/// faults.
#[test]
fn inject_on_every_lane_matches_scalar() {
    for seed in [4u64, 8] {
        let comp = RandomRtl::new(seed);
        let design = mtl_core::elaborate(&comp).expect("elaborates");
        let plan = FaultPlan::random(seed ^ 0xA11, &design, &PlanSpec::new(3, 3, 10));
        let everywhere = plan.to_injections(&design).expect("plan resolves");
        let own = FaultPlan::random(seed ^ 0x0E3, &design, &PlanSpec::new(1, 6, 8));
        let mut faults = vec![vec![]; 6];
        faults[3] = own.to_injections(&design).expect("plan resolves");
        let name = format!("RandomRtl({seed})");
        assert_faulted_lanes_match(&name, &comp, &everywhere, &faults, 16, seed);
    }
}

/// Stuck-at faults on five of eight lanes, under broadcast stimulus: a
/// stuck lane is settled forced after the edge and owes a full settle
/// once its fault expires, whether it still runs its own engine then or
/// already follows lane 0 again. Each lane matches a scalar run of its
/// faults.
#[test]
fn stuck_at_lanes_with_cleanup_pending_match_scalar() {
    for seed in [3u64, 9] {
        let comp = RandomRtl::new(seed);
        let design = mtl_core::elaborate(&comp).expect("elaborates");
        let spec = PlanSpec::new(6, 3, 12);
        let drawn = FaultPlan::random(seed ^ 0x57C, &design, &spec).to_injections(&design);
        let drawn = drawn.expect("plan resolves");
        let stuck = |i: usize| {
            let kind =
                if i.is_multiple_of(2) { InjectKind::StuckAt0 } else { InjectKind::StuckAt1 };
            Injection { kind, cycle: 3 + 2 * i as u64, duration: 1 + i as u64 % 3, ..drawn[i] }
        };
        let faults: Vec<Vec<Injection>> = (0..8)
            .map(|lane| if (1..=5).contains(&lane) { vec![stuck(lane - 1)] } else { vec![] })
            .collect();
        let name = format!("RandomRtl({seed})");
        assert_faulted_lanes_match(&name, &comp, &[], &faults, 20, seed ^ 0x5EED);
    }
}

/// A comb-net flip at cycle 5, then a stuck-at on the same net at cycle
/// 150, on the IR mesh4, one plan per driven combinational net of the
/// first eight routers' worth: a lane whose flip washes out follows lane 0
/// again until the stuck-at forks it once more. Every lane of the traced
/// batch equals the scalar `run_diff` of its plan, fingerprint included,
/// and at least one flip left no trace before cycle 150 (its lane
/// rejoined).
#[test]
fn a_reconverged_lane_rejoins_and_reforks_like_scalar() {
    let top = MeshTrafficRtlHarness::new(4, 200, 0xBEEF);
    let design = mtl_core::elaborate(&top).expect("elaborates");
    let mut driven = vec![false; design.nets().len()];
    for b in design.blocks() {
        b.writes.iter().for_each(|&w| driven[design.net_of(w).index()] = true);
    }
    let comb = design
        .nets()
        .iter()
        .enumerate()
        .filter(|&(i, n)| driven[i] && !n.is_register && !n.signals.is_empty());
    let fault = |target: &str, kind, cycle, duration| Fault {
        target: target.to_string(),
        bit: 0,
        kind,
        cycle,
        duration,
    };
    let plans: Vec<FaultPlan> = comb
        .step_by(7)
        .take(24)
        .map(|(i, _)| {
            let target = design.net_path(mtl_core::NetId::from_index(i));
            FaultPlan::explicit(vec![
                fault(&target, FaultKind::Flip, 5, 1),
                fault(&target, FaultKind::StuckAt1, 150, 3),
            ])
        })
        .collect();
    assert_eq!(plans.len(), 24, "the mesh4 has enough driven combinational nets");
    let cycles = 200;
    let batch = DiffConfig::new(Engine::SpecializedBatch, cycles);
    let batch = run_diffs(&top, &plans, &batch, None, true).expect("batch diff runs");
    let cfg = DiffConfig::new(Engine::SpecializedOpt, cycles);
    for (i, plan) in plans.iter().enumerate() {
        let scalar = run_diff(&top, plan, &cfg).expect("scalar diff runs");
        assert_eq!(batch[i], scalar, "plan {i} ({}): batch lane != scalar", plan.summary());
    }
    let washed = batch.iter().filter(|r| r.first_divergence.is_none_or(|c| c >= 150)).count();
    assert!(washed > 0, "no flip washed out before the stuck-at");
}
