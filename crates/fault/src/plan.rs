//! Fault plans: what to disturb, where, and when.

use mtl_core::{Design, NetId, SignalId};
use mtl_sim::{InjectKind, Injection, Sim};

/// The disturbance kind of a planned fault (re-exported from `mtl-sim`:
/// the plan vocabulary and the injection hook share one definition).
pub type FaultKind = InjectKind;

/// One planned fault on a named net.
///
/// The target is a hierarchical net path (e.g. `top.mesh.router_0.state`)
/// resolved against the elaborated design at injection time, so plans are
/// portable across instances of the same design and serializable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Hierarchical path of a signal on the target net. A suffix is
    /// accepted if it aligns with a path-component boundary and is
    /// unambiguous (the `Sim::find_signal` rules).
    pub target: String,
    /// Bit position to disturb (single-bit faults; for multi-bit upsets
    /// plan several faults on the same cycle).
    pub bit: u32,
    /// Disturbance kind.
    pub kind: FaultKind,
    /// First active cycle, in [`Sim::cycle_count`] time. `Sim::reset`
    /// consumes cycles 0 and 1, so post-reset plans start at 2.
    pub cycle: u64,
    /// Consecutive active cycles (≥ 1; transient flips use 1).
    pub duration: u64,
}

/// Which nets a random plan may target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Targets {
    /// Sequential state only (register nets) — classic SEU campaigns.
    State,
    /// Register nets plus driven combinational nets (transient glitches
    /// on logic outputs).
    AnyNet,
}

/// Parameters for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Number of faults to draw.
    pub faults: usize,
    /// First cycle of the injection window (inclusive).
    pub first_cycle: u64,
    /// Last cycle of the injection window (inclusive).
    pub last_cycle: u64,
    /// Candidate net filter.
    pub targets: Targets,
}

impl PlanSpec {
    /// A spec drawing `faults` faults uniformly over `[first, last]`
    /// cycles on any injectable net.
    pub fn new(faults: usize, first_cycle: u64, last_cycle: u64) -> PlanSpec {
        assert!(first_cycle <= last_cycle, "empty injection window");
        PlanSpec { faults, first_cycle, last_cycle, targets: Targets::AnyNet }
    }

    /// Restricts candidates to sequential state (register nets).
    pub fn state_only(mut self) -> PlanSpec {
        self.targets = Targets::State;
        self
    }
}

/// A deterministic schedule of faults: either written out explicitly or
/// drawn from a seeded RNG over a design's injectable nets. The same
/// seed and design always produce the same plan, and the same plan
/// produces byte-identical faulty traces on every engine (see
/// [`Sim::inject`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was drawn from (0 for explicit plans; informational).
    pub seed: u64,
    /// The scheduled faults, in application order.
    pub faults: Vec<Fault>,
}

/// SplitMix64: the statelessly-seedable generator used everywhere plans
/// need deterministic randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan from an explicit fault list.
    pub fn explicit(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan { seed: 0, faults }
    }

    /// Draws a plan from a seeded RNG over the design's injectable nets:
    /// register nets and (unless [`Targets::State`]) driven combinational
    /// nets. Undriven non-register nets (top-level inputs, and tied nets,
    /// which no block writes) are never candidates — they are stimulus
    /// and constants, not state. Kinds are drawn 50%
    /// transient flip / 25% stuck-at-0 / 25% stuck-at-1; stuck faults
    /// last 1–4 cycles.
    ///
    /// # Panics
    ///
    /// Panics if the design has no injectable nets for the spec.
    pub fn random(seed: u64, design: &Design, spec: &PlanSpec) -> FaultPlan {
        let mut driven = vec![false; design.nets().len()];
        for block in design.blocks() {
            block.writes.iter().for_each(|&w| driven[design.net_of(w).index()] = true);
        }
        let candidates: Vec<NetId> = design
            .nets()
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                !n.signals.is_empty()
                    && n.width > 0
                    && if n.is_register {
                        true
                    } else {
                        spec.targets == Targets::AnyNet && driven[*i]
                    }
            })
            .map(|(i, _)| NetId::from_index(i))
            .collect();
        assert!(
            !candidates.is_empty(),
            "design has no injectable nets for {:?} targeting",
            spec.targets
        );
        let mut rng = seed;
        let window = spec.last_cycle - spec.first_cycle + 1;
        let faults = (0..spec.faults)
            .map(|_| {
                let net = candidates[(splitmix64(&mut rng) % candidates.len() as u64) as usize];
                let width = design.net(net).width;
                let bit = (splitmix64(&mut rng) % u64::from(width)) as u32;
                let (kind, duration) = match splitmix64(&mut rng) % 4 {
                    0 | 1 => (FaultKind::Flip, 1),
                    2 => (FaultKind::StuckAt0, 1 + splitmix64(&mut rng) % 4),
                    _ => (FaultKind::StuckAt1, 1 + splitmix64(&mut rng) % 4),
                };
                let cycle = spec.first_cycle + splitmix64(&mut rng) % window;
                Fault { target: design.net_path(net), bit, kind, cycle, duration }
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Resolves the plan against a design into slot-level injections.
    ///
    /// # Errors
    ///
    /// Returns a message naming the fault whose target does not resolve
    /// (not found, boundary mismatch, or ambiguous across nets).
    pub fn to_injections(&self, design: &Design) -> Result<Vec<Injection>, String> {
        self.faults
            .iter()
            .map(|f| {
                let sig = resolve_signal(design, &f.target)?;
                let width = design.net(design.net_of(sig)).width;
                if f.bit >= width {
                    return Err(format!(
                        "fault bit {} out of range for {width}-bit net `{}`",
                        f.bit, f.target
                    ));
                }
                Ok(Injection {
                    sig,
                    mask: 1u128 << f.bit,
                    kind: f.kind,
                    cycle: f.cycle,
                    duration: f.duration,
                })
            })
            .collect()
    }

    /// Resolves the plan against the simulator's design and installs
    /// every fault.
    ///
    /// # Errors
    ///
    /// As [`FaultPlan::to_injections`].
    pub fn apply(&self, sim: &mut Sim) -> Result<(), String> {
        for inj in self.to_injections(sim.design())? {
            sim.inject(inj);
        }
        Ok(())
    }

    /// One-line human summary (`3 faults, seed 0xBEEF`).
    pub fn summary(&self) -> String {
        format!("{} fault(s), seed {:#x}", self.faults.len(), self.seed)
    }
}

/// Resolves a hierarchical path (full path or path-boundary suffix) to a
/// signal, erroring on no match or cross-net ambiguity.
fn resolve_signal(design: &Design, target: &str) -> Result<SignalId, String> {
    let matches: Vec<SignalId> = (0..design.signals().len())
        .map(SignalId::from_index)
        .filter(|&s| design.has_path_suffix(s, target))
        .collect();
    match matches.as_slice() {
        [] => Err(format!("fault target `{target}` matches no signal path")),
        [one] => Ok(*one),
        many => {
            let net0 = design.net_of(many[0]);
            if many.iter().all(|&s| design.net_of(s) == net0) {
                Ok(many[0])
            } else {
                let paths: Vec<String> = many.iter().map(|&s| design.signal_path(s)).collect();
                Err(format!(
                    "fault target `{target}` is ambiguous across nets; candidates: {}",
                    paths.join(", ")
                ))
            }
        }
    }
}
