//! Golden-vs-faulty differential runs and outcome classification.

use mtl_core::{Component, Design, NetId, SignalKind};
use mtl_sim::{ArtifactCache, Engine, Sim, SimConfig, BATCH_LANES};

use crate::plan::FaultPlan;

/// How a fault campaign classifies one injected fault's effect, judged
/// over the observation window (see `EXPERIMENTS.md` for the taxonomy):
///
/// * **Masked** — no net ever diverged from the golden run: the fault was
///   logically masked (overwritten, unused, or off the sensitized path).
/// * **Silent** — internal state diverged but no top-level output port
///   ever did: latent corruption the environment cannot observe within
///   the window (the silent-data-corruption risk class).
/// * **Detected** — a top-level output port diverged: the corruption is
///   architecturally visible to the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Masked,
    Silent,
    Detected,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Outcome::Masked => "masked",
            Outcome::Silent => "silent",
            Outcome::Detected => "detected",
        };
        write!(f, "{s}")
    }
}

/// The result of one golden-vs-faulty differential run.
///
/// Derived entirely from the two value traces, so it is engine-independent
/// whenever the traces are — which [`engine_agreement`] asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Classification over the observation window.
    pub outcome: Outcome,
    /// First cycle on which any net diverged from golden.
    pub first_divergence: Option<u64>,
    /// First cycle on which a top-level output port diverged.
    pub detected_at: Option<u64>,
    /// Hierarchical paths of every net that diverged at least once
    /// (sorted, deduplicated): the fault's blast radius.
    pub blast_radius: Vec<String>,
    /// Bits disturbed in the faulty run.
    pub injected_bits: u64,
    /// Cycles observed after reset.
    pub cycles: u64,
    /// Fingerprint of the faulty run's full value trace: the 64-bit FNV-1a
    /// hash over 16 little-endian bytes per probed net value (every net
    /// with a signal but the tied ones), nets in index order, every cycle
    /// of the window.
    /// Equal fingerprints across engines mean byte-identical faulty
    /// traces.
    pub trace_fingerprint: u64,
}

/// Configuration for [`run_diffs`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Engine every lane runs on ([`Engine::SpecializedBatch`]: one lane
    /// simulator for the whole set).
    pub engine: Engine,
    /// Passed on as [`SimConfig::threads`], which no engine reads.
    pub threads: Option<usize>,
    /// Observation window: cycles simulated after `reset()`.
    pub cycles: u64,
}

impl DiffConfig {
    /// A window of `cycles` on the given engine, on one thread.
    pub fn new(engine: Engine, cycles: u64) -> DiffConfig {
        DiffConfig { engine, threads: None, cycles }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=16`.
const FNV_PRIME_POW: [u64; 17] = {
    let mut pow = [1u64; 17];
    let mut k = 1;
    while k < 17 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// One observed net: where its value sits in a [`Sim::net_values`] slice,
/// how many low bytes its width can set, and whether it surfaces at a
/// top-level output port (the detection boundary).
struct Probe {
    net: usize,
    bytes: usize,
    output: bool,
}

/// The nets a differential run observes, in index order: every net with
/// a signal (a net without one is unobservable through `peek`) that is
/// not tied (a tied net holds its constant in every run: no plan targets
/// it and no block writes it).
fn probes(design: &Design) -> Vec<Probe> {
    let nets = design.nets().iter().enumerate().filter(|&(net, n)| {
        !n.signals.is_empty() && design.tie_of(NetId::from_index(net)).is_none()
    });
    nets.map(|(net, n)| Probe {
        net,
        bytes: n.width.div_ceil(8) as usize,
        output: n.signals.iter().any(|&s| {
            let info = design.signal(s);
            info.kind == SignalKind::OutPort && info.module == design.top()
        }),
    })
    .collect()
}

/// Folds one cycle of probed net values into an FNV-1a hash: per net, its
/// 16 little-endian bytes. A value never sets a byte above its width's
/// `probe.bytes`, and folding a zero byte is one multiply by the prime, so
/// the high bytes are folded as one multiply by a power of it.
fn fold_cycle(hash: &mut u64, probes: &[Probe], values: &[u128]) {
    let mut h = *hash;
    for p in probes {
        for &b in &values[p.net].to_le_bytes()[..p.bytes] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h = h.wrapping_mul(FNV_PRIME_POW[16 - p.bytes]);
    }
    *hash = h;
}

/// The simulators one differential run advances in lockstep: lane 0 is
/// the golden run and lane `1 + i` runs plan `i`.
enum Lanes {
    /// One lane simulator ([`Engine::SpecializedBatch`]) carrying every
    /// lane; native-free designs only.
    Batch(Sim),
    /// A golden simulator and one faulty simulator per plan, on any
    /// engine (natives allowed).
    Scalar { golden: Sim, faulty: Vec<Sim> },
}

impl Lanes {
    /// Builds the set for `plans` on `cfg.engine`, installs every plan on
    /// its lane and resets every simulator.
    fn build(
        top: &dyn Component,
        plans: &[FaultPlan],
        cfg: &DiffConfig,
        shared: Option<(&ArtifactCache, u64)>,
    ) -> Result<Lanes, String> {
        let sim_cfg = SimConfig {
            threads: cfg.threads,
            lanes: Some(1 + plans.len() as u32),
            ..Default::default()
        };
        let build = || {
            match shared {
                Some((cache, key)) => Sim::build_shared(top, cfg.engine, &sim_cfg, cache, key),
                None => Sim::build_with_config(top, cfg.engine, &sim_cfg),
            }
            .map_err(|e| format!("elaboration failed: {e:?}"))
        };
        let mut lanes = if cfg.engine == Engine::SpecializedBatch {
            let mut sim = build()?;
            for (i, plan) in plans.iter().enumerate() {
                for inj in plan.to_injections(sim.design())? {
                    sim.inject_lane(1 + i as u32, inj);
                }
            }
            Lanes::Batch(sim)
        } else {
            let golden = build()?;
            let faulty = plans.iter().map(|plan| {
                let mut sim = build()?;
                plan.apply(&mut sim)?;
                Ok(sim)
            });
            Lanes::Scalar { golden, faulty: faulty.collect::<Result<_, String>>()? }
        };
        lanes.sims().for_each(Sim::reset);
        Ok(lanes)
    }

    fn golden(&self) -> &Sim {
        match self {
            Lanes::Batch(sim) | Lanes::Scalar { golden: sim, .. } => sim,
        }
    }

    fn sims(&mut self) -> impl Iterator<Item = &mut Sim> {
        let (first, rest): (&mut Sim, &mut [Sim]) = match self {
            Lanes::Batch(sim) => (sim, &mut []),
            Lanes::Scalar { golden, faulty } => (golden, faulty),
        };
        std::iter::once(first).chain(rest)
    }

    /// Advances every lane one cycle. Returns `false` when no lane differs
    /// from golden; otherwise fills `masks` with one mask per net, bit
    /// `1 + i` set iff plan `i`'s lane differs there. The scalar set reads
    /// each simulator once into `reads` (lane order), compares each faulty
    /// read with golden's as one slice, and walks the nets only for the
    /// reads that differ.
    fn cycle(&mut self, reads: &mut [Vec<u128>], masks: &mut Vec<u64>) -> bool {
        self.sims().for_each(Sim::cycle);
        let (golden, faulty) = match self {
            Lanes::Batch(sim) => return sim.divergence_masks(masks),
            Lanes::Scalar { golden, faulty } => (golden, faulty),
        };
        let (want, gots) = reads.split_first_mut().expect("one read per lane");
        golden.net_values(0, want);
        let mut any = false;
        for (i, (sim, got)) in faulty.iter().zip(gots).enumerate() {
            sim.net_values(0, got);
            if got == want {
                continue;
            }
            if !any {
                masks.clear();
                masks.resize(want.len(), 0);
                any = true;
            }
            for ((m, g), w) in masks.iter_mut().zip(got.iter()).zip(want.iter()) {
                if g != w {
                    *m |= 2 << i;
                }
            }
        }
        any
    }

    /// Plan `i`'s net values this cycle: the scalar set's read, or the
    /// batch lane read into `reads` now.
    fn values<'a>(&self, i: usize, reads: &'a mut [Vec<u128>]) -> &'a [u128] {
        if let Lanes::Batch(sim) = self {
            sim.net_values(1 + i as u32, &mut reads[1 + i]);
        }
        &reads[1 + i]
    }

    fn injected_bits(&self, i: usize) -> u64 {
        match self {
            Lanes::Batch(sim) => sim.lane_fault_totals(1 + i as u32).0,
            Lanes::Scalar { faulty, .. } => faulty[i].injected_bits(),
        }
    }
}

/// Runs a golden simulation of `top` and one faulted simulation per plan
/// in lockstep, and classifies each fault's effect: the one cycle loop
/// every differential run in the workspace goes through.
///
/// `cfg.engine` picks the lane set. [`Engine::SpecializedBatch`] runs one
/// lane simulator — lane 0 golden, lane `1 + i` plan `i` — whose per-cycle
/// [`Sim::divergence_masks`] classify every lane with one compare; the
/// design must be native-free (an opaque closure is one stateful
/// instance, not one per lane), which RTL-level models are. Every other
/// engine runs a golden simulator and one faulty simulator per plan
/// (natives allowed), so the golden trace is simulated once for all of
/// `plans`. Both sets report field for field what a golden-vs-faulty pair
/// reports for each plan alone: `Sim` runs its forced-settle protocol per
/// lane, so every lane's trace is byte-identical to a scalar faulted run.
///
/// Designs drive themselves (the mesh and tile harnesses generate their
/// own traffic), so no stimulus is applied beyond reset. `shared` builds
/// every simulator through an [`ArtifactCache`] under a key that must
/// identify the design `top` elaborates to (not the plans, seed or
/// window), so a campaign hammering one design point compiles it once.
/// With `traced`, every lane's net values are folded into its
/// `trace_fingerprint` each cycle (see [`FaultReport::trace_fingerprint`]);
/// without, the fold is skipped and the fingerprint is 0 — campaign
/// tallies never read it.
///
/// # Errors
///
/// Returns elaboration failures, unresolvable fault targets, and plan
/// sets larger than 63 (chunk the campaign instead).
pub fn run_diffs(
    top: &dyn Component,
    plans: &[FaultPlan],
    cfg: &DiffConfig,
    shared: Option<(&ArtifactCache, u64)>,
    traced: bool,
) -> Result<Vec<FaultReport>, String> {
    let n = plans.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let max = BATCH_LANES as usize - 1;
    if n > max {
        return Err(format!(
            "a differential run takes at most {max} plans (got {n}); chunk the campaign"
        ));
    }
    let mut lanes = Lanes::build(top, plans, cfg, shared)?;
    let probes = probes(lanes.golden().design());
    let mut first_divergence: Vec<Option<u64>> = vec![None; n];
    let mut detected_at: Vec<Option<u64>> = vec![None; n];
    // Per net: lanes that ever diverged from golden (bit `1 + i` = plan i).
    let mut ever: Vec<u64> = vec![0; lanes.golden().design().nets().len()];
    // Untraced runs fold nothing and report 0.
    let mut fingerprints: Vec<u64> = vec![if traced { FNV_OFFSET } else { 0 }; n];
    let mut masks: Vec<u64> = Vec::new();
    let mut reads: Vec<Vec<u128>> = vec![Vec::new(); 1 + n];
    for _ in 0..cfg.cycles {
        // The cycle about to be simulated, in `cycle_count` time (the
        // time base fault plans are scheduled in).
        let cycle = lanes.golden().cycle_count();
        if lanes.cycle(&mut reads, &mut masks) {
            for p in &probes {
                let mut m = masks[p.net] & !1; // golden's own bit is never set
                if m == 0 {
                    continue;
                }
                ever[p.net] |= m;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    first_divergence[lane - 1].get_or_insert(cycle);
                    if p.output {
                        detected_at[lane - 1].get_or_insert(cycle);
                    }
                }
            }
        }
        if traced {
            for (i, fp) in fingerprints.iter_mut().enumerate() {
                fold_cycle(fp, &probes, lanes.values(i, &mut reads));
            }
        }
    }

    let design = lanes.golden().design();
    let reports = (0..n).map(|i| {
        let bit = 2u64 << i;
        let mut blast_radius: Vec<String> = ever
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m & bit != 0)
            .map(|(net, _)| design.net_path(NetId::from_index(net)))
            .collect();
        blast_radius.sort();
        blast_radius.dedup();
        let outcome = if detected_at[i].is_some() {
            Outcome::Detected
        } else if first_divergence[i].is_some() {
            Outcome::Silent
        } else {
            Outcome::Masked
        };
        FaultReport {
            outcome,
            first_divergence: first_divergence[i],
            detected_at: detected_at[i],
            blast_radius,
            injected_bits: lanes.injected_bits(i),
            cycles: cfg.cycles,
            trace_fingerprint: fingerprints[i],
        }
    });
    Ok(reports.collect())
}

/// One plan through [`run_diffs`], traced: a golden and a faulty
/// simulation of `top` in lockstep on `cfg.engine`.
///
/// # Errors
///
/// As [`run_diffs`].
pub fn run_diff(
    top: &dyn Component,
    plan: &FaultPlan,
    cfg: &DiffConfig,
) -> Result<FaultReport, String> {
    Ok(run_diffs(top, std::slice::from_ref(plan), cfg, None, true)?.remove(0))
}

/// [`run_diff`] built through a shared [`ArtifactCache`] under `key`.
///
/// # Errors
///
/// As [`run_diffs`].
pub fn run_diff_shared(
    top: &dyn Component,
    plan: &FaultPlan,
    cfg: &DiffConfig,
    cache: &ArtifactCache,
    key: u64,
) -> Result<FaultReport, String> {
    Ok(run_diffs(top, std::slice::from_ref(plan), cfg, Some((cache, key)), true)?.remove(0))
}

/// Up to 63 plans through [`run_diffs`] on one
/// [`Engine::SpecializedBatch`] simulator, untraced (`trace_fingerprint`
/// is 0).
///
/// # Errors
///
/// As [`run_diffs`].
pub fn run_diff_batch(
    top: &dyn Component,
    plans: &[FaultPlan],
    cycles: u64,
) -> Result<Vec<FaultReport>, String> {
    run_diffs(top, plans, &DiffConfig::new(Engine::SpecializedBatch, cycles), None, false)
}

/// [`run_diff_batch`] built through a shared [`ArtifactCache`] under
/// `key`.
///
/// # Errors
///
/// As [`run_diffs`].
pub fn run_diff_batch_shared(
    top: &dyn Component,
    plans: &[FaultPlan],
    cycles: u64,
    cache: &ArtifactCache,
    key: u64,
) -> Result<Vec<FaultReport>, String> {
    let cfg = DiffConfig::new(Engine::SpecializedBatch, cycles);
    run_diffs(top, plans, &cfg, Some((cache, key)), false)
}

/// The simulator configurations [`engine_agreement`] runs: the four
/// engines of [`Engine::ALL`], plus `SpecializedPar` pinned to 1 and 4
/// threads (it builds `SpecializedOpt` whatever the count).
pub fn agreement_configs(cycles: u64) -> Vec<DiffConfig> {
    let mut cfgs: Vec<DiffConfig> =
        Engine::ALL.iter().map(|&e| DiffConfig::new(e, cycles)).collect();
    cfgs.push(DiffConfig { engine: Engine::SpecializedPar, threads: Some(1), cycles });
    cfgs.push(DiffConfig { engine: Engine::SpecializedPar, threads: Some(4), cycles });
    cfgs
}

/// Runs [`run_diff`] under every configuration of [`agreement_configs`]
/// and asserts they all produced the same report — same faulty-trace
/// fingerprint (byte-identical traces), same first-divergence cycle,
/// same classification, same blast radius.
///
/// # Errors
///
/// Returns the first disagreement, naming both configurations, or any
/// per-run error.
pub fn engine_agreement(
    top: &dyn Component,
    plan: &FaultPlan,
    cycles: u64,
) -> Result<FaultReport, String> {
    let cfgs = agreement_configs(cycles);
    let mut reference: Option<(DiffConfig, FaultReport)> = None;
    for cfg in cfgs {
        let report = run_diff(top, plan, &cfg)
            .map_err(|e| format!("{} (threads {:?}): {e}", cfg.engine, cfg.threads))?;
        match &reference {
            None => reference = Some((cfg, report)),
            Some((ref_cfg, ref_report)) => {
                if *ref_report != report {
                    return Err(format!(
                        "engines disagree on the faulted run ({}): \
                         {} (threads {:?}) reported {:?}, \
                         but {} (threads {:?}) reported {:?}",
                        plan.summary(),
                        ref_cfg.engine,
                        ref_cfg.threads,
                        ref_report,
                        cfg.engine,
                        cfg.threads,
                        report,
                    ));
                }
            }
        }
    }
    Ok(reference.expect("at least one configuration ran").1)
}
