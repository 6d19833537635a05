//! The forced settle against the whole-schedule walk it replaced: twin
//! simulators, one settling through the fan-out cones and one through the
//! walk, must hold the same words on every lane after every forced settle.

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, Expr, NativeLevel, SignalRef, SignalView};

use crate::tape::mask_of;
use crate::{Engine, InjectKind, Injection, Sim, SimConfig};

/// splitmix64: deterministic draws for designs, plans and stimulus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `e`, `from` bits wide, zero-extended or truncated to `to` bits.
fn fit(e: Expr, from: u32, to: u32) -> Expr {
    match from.cmp(&to) {
        std::cmp::Ordering::Less => e.zext(to),
        std::cmp::Ordering::Greater => e.trunc(to),
        std::cmp::Ordering::Equal => e,
    }
}

fn fit_sig(s: SignalRef, to: u32) -> Expr {
    fit(s.ex(), s.width(), to)
}

/// A random levelized design over inputs `a` (8 bits) and `b` (16):
/// registers `r0..r3`, comb blocks writing one or two wires each from
/// earlier signals (`w0..`), registers that latch a random signal under a
/// random enable, and an `out` port folding every wire. Widths straddle
/// the 64-bit word.
#[derive(Hash)]
struct RandomComb {
    seed: u64,
}

const WIDTHS: [u32; 6] = [1, 5, 16, 64, 65, 100];

impl Component for RandomComb {
    fn build(&self, c: &mut Ctx) {
        let mut rng = Rng(self.seed);
        let mut srcs = vec![c.in_port("a", 8), c.in_port("b", 16)];
        let regs: Vec<SignalRef> =
            (0..4).map(|i| c.wire(&format!("r{i}"), WIDTHS[rng.below(WIDTHS.len())])).collect();
        srcs.extend(&regs);
        let mut wires = Vec::new();
        while wires.len() < 10 {
            let first = wires.len();
            let outs: Vec<SignalRef> = (0..1 + rng.below(2))
                .map(|j| c.wire(&format!("w{}", first + j), WIDTHS[rng.below(WIDTHS.len())]))
                .collect();
            let ins: Vec<SignalRef> = (0..3).map(|_| srcs[rng.below(srcs.len())]).collect();
            let op = rng.below(4);
            c.comb(&format!("c{first}"), |b| {
                for (j, &o) in outs.iter().enumerate() {
                    let (x, y) = (fit_sig(ins[0], o.width()), fit_sig(ins[1 + j], o.width()));
                    b.assign(
                        o,
                        match op {
                            0 => x + y,
                            1 => x ^ y,
                            2 => (x & y) | fit_sig(ins[2], o.width()),
                            _ => ins[2].bit(0).mux(x, y),
                        },
                    );
                }
            });
            srcs.extend(&outs);
            wires.extend(outs);
        }
        c.seq("step", |b| {
            for &r in &regs {
                let (src, en) = (srcs[rng.below(srcs.len())], srcs[rng.below(srcs.len())]);
                b.if_(en.bit(0), |b| b.assign(r, fit_sig(src, r.width())));
            }
        });
        let out = c.out_port("out", 16);
        let fold = wires.iter().fold(Expr::k(16, 0), |acc, &w| acc ^ fit_sig(w, 16));
        c.comb("fold", |b| b.assign(out, fold));
    }
}

/// `y` is assigned on odd `x` only, so it keeps its old value on the other
/// path, and it lies in the cone of a force on `x` or on `r`.
#[derive(Hash)]
struct PartialAssign;

impl Component for PartialAssign {
    fn build(&self, c: &mut Ctx) {
        let (a, b) = (c.in_port("a", 8), c.in_port("b", 16));
        let out = c.out_port("out", 8);
        let (r, x, y) = (c.wire("r", 8), c.wire("x", 8), c.wire("y", 8));
        c.comb("mk_x", |bb| bb.assign(x, r + a));
        c.comb("latchy", |bb| bb.if_(x.bit(0), |bb| bb.assign(y, x ^ b.trunc(8))));
        c.comb("use_y", |bb| bb.assign(out, y + r));
        c.seq("step", |bb| bb.assign(r, out ^ a));
    }
}

/// `v`'s driver reads `u`, so a force on `v` has its driver inside the
/// cone of a force on `u`.
#[derive(Hash)]
struct ChainedForces;

impl Component for ChainedForces {
    fn build(&self, c: &mut Ctx) {
        let (a, b) = (c.in_port("a", 8), c.in_port("b", 16));
        let out = c.out_port("out", 16);
        let (r, u, v) = (c.wire("r", 16), c.wire("u", 16), c.wire("v", 16));
        c.comb("mk_u", |bb| bb.assign(u, r ^ b));
        c.comb("mk_v", |bb| bb.assign(v, u + a.zext(16)));
        c.comb("mk_out", |bb| bb.assign(out, v ^ r));
        c.seq("step", |bb| bb.assign(r, v));
    }
}

/// A cycle-level design whose native comb block `triple` reads `u`, so it
/// lies in the cone of a force on `u` or on `r`.
#[derive(Hash)]
struct NativeInCone;

impl Component for NativeInCone {
    fn build(&self, c: &mut Ctx) {
        let (a, b) = (c.in_port("a", 8), c.in_port("b", 16));
        let out = c.out_port("out", 16);
        let (r, u, n) = (c.wire("r", 16), c.wire("u", 16), c.wire("n", 16));
        c.comb("mk_u", |bb| bb.assign(u, r + b));
        let (ui, ni) = (u.id(), n.id());
        c.comb_native("triple", NativeLevel::Cl, &[u], &[n], move |s: &mut dyn SignalView| {
            let x = s.read(ui).as_u128();
            s.write(ni, Bits::new(16, x * 3));
        });
        c.comb("mk_out", |bb| bb.assign(out, n ^ r));
        c.seq("step", |bb| bb.assign(r, out + a.zext(16)));
    }
}

/// A dense random plan on the nets named `targets`: 3–6 flips and
/// stuck-ats with overlapping windows inside cycles 2–15.
fn random_plan(sim: &Sim, rng: &mut Rng, targets: &[&str]) -> Vec<Injection> {
    let kinds = [InjectKind::Flip, InjectKind::StuckAt0, InjectKind::StuckAt1];
    (0..3 + rng.below(4))
        .map(|_| {
            let sig = sim.find_signal(targets[rng.below(targets.len())]);
            let width = sim.design().signal(sig).width;
            let bits = (u128::from(rng.next()) << 64 | u128::from(rng.next())) & mask_of(width);
            Injection {
                sig,
                mask: bits.max(1),
                kind: kinds[rng.below(3)],
                cycle: 2 + rng.below(10) as u64,
                duration: 1 + rng.below(4) as u64,
            }
        })
        .collect()
}

/// `[cone, oracle]`: two simulators of `top` on `engine`, the second
/// settling forces through the whole-schedule walk.
fn twins(top: &dyn Component, engine: Engine, lanes: u32) -> [Sim; 2] {
    let cfg = SimConfig { lanes: Some(lanes), ..SimConfig::default() };
    [false, true].map(|walk| {
        let mut sim = Sim::build_with_config(top, engine, &cfg).expect("test design elaborates");
        sim.walk_oracle = walk;
        sim
    })
}

/// Every lane's words and fault totals of the twins agree.
fn assert_twins_agree(sims: &[Sim; 2], at: &str) {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for lane in 0..sims[0].lane_count() {
        sims[0].net_values(lane, &mut got);
        sims[1].net_values(lane, &mut want);
        assert_eq!(got, want, "{at}: lane {lane} differs from the walk");
        assert_eq!(sims[0].lane_fault_totals(lane), sims[1].lane_fault_totals(lane), "{at}");
    }
}

/// Installs `plans[lane]` on each lane of both twins, then runs 20 cycles
/// of random broadcast stimulus, comparing the twins after every step that
/// ends in a forced settle: an `eval` on a third of the cycles (the
/// pre-edge settle) and every `cycle` (the post-edge one).
fn lockstep(sims: &mut [Sim; 2], plans: &[Vec<Injection>], rng: &mut Rng, at: &str) {
    for sim in sims.iter_mut() {
        sim.reset();
        for (lane, plan) in plans.iter().enumerate() {
            for &inj in plan {
                sim.inject_lane(lane as u32, inj);
            }
        }
    }
    for step in 0..20 {
        let (a, b, eval) = (rng.next() as u128, rng.next() as u128, rng.below(3) == 0);
        for sim in sims.iter_mut() {
            sim.poke_port("a", Bits::new(8, a));
            sim.poke_port("b", Bits::new(16, b));
            if eval {
                sim.eval();
            }
        }
        assert_twins_agree(sims, &format!("{at}, eval before cycle {step}"));
        sims.iter_mut().for_each(Sim::cycle);
        assert_twins_agree(sims, &format!("{at}, cycle {step}"));
    }
}

/// Random plans on every engine, and on eight batch lanes of which lane 0
/// is faulted on odd seeds only.
fn agree_everywhere(top: &dyn Component, natives: bool, targets: &[&str], seed: u64) {
    let mut rng = Rng(seed);
    for engine in Engine::ALL {
        let mut sims = twins(top, engine, 1);
        let plan = random_plan(&sims[0], &mut rng, targets);
        lockstep(&mut sims, &[plan], &mut rng, &format!("{}: {engine}", top.name()));
    }
    if natives {
        return;
    }
    let mut sims = twins(top, Engine::SpecializedBatch, 8);
    let golden_lane_0 = seed.is_multiple_of(2);
    let plans: Vec<Vec<Injection>> = (0..8)
        .map(|lane| match lane == 0 && golden_lane_0 {
            true => Vec::new(),
            false => random_plan(&sims[0], &mut rng, targets),
        })
        .collect();
    lockstep(&mut sims, &plans, &mut rng, &format!("{}: batch", top.name()));
}

#[test]
fn cone_settle_equals_the_walk_on_random_designs() {
    let wires: Vec<String> = (0..10).map(|i| format!("w{i}")).collect();
    let mut targets = vec!["r0", "r1", "r2", "r3"];
    targets.extend(wires.iter().map(String::as_str));
    for seed in 1..=12 {
        agree_everywhere(&RandomComb { seed }, false, &targets, seed);
    }
}

#[test]
fn cone_settle_equals_the_walk_on_hand_built_cones() {
    for seed in 1..=4 {
        agree_everywhere(&PartialAssign, false, &["x", "r", "y"], seed);
        agree_everywhere(&ChainedForces, false, &["u", "v", "r"], seed);
        agree_everywhere(&NativeInCone, true, &["u", "n", "r"], seed);
    }
    // Faults that compound on one net re-force each other after every
    // block the walk runs, cone or not.
    let mut rng = Rng(5);
    for engine in Engine::ALL.into_iter().chain([Engine::SpecializedBatch]) {
        let mut sims = twins(&ChainedForces, engine, 2);
        let inj = |name, kind, mask, cycle, duration| {
            let sig = sims[0].find_signal(name);
            Injection { sig, mask, kind, cycle, duration }
        };
        let plan = vec![
            inj("u", InjectKind::StuckAt0, 0xf0f0, 3, 5),
            inj("u", InjectKind::Flip, 0x0ff0, 4, 2),
            inj("r", InjectKind::Flip, 0x8001, 4, 3),
            inj("r", InjectKind::StuckAt1, 0x0102, 5, 3),
        ];
        let plans = vec![plan; sims[0].lane_count() as usize];
        lockstep(&mut sims, &plans, &mut rng, &format!("compounding faults: {engine}"));
    }
}
