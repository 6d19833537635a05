//! Golden-vs-faulty differential runs and outcome classification.

use mtl_core::{Component, Design, SignalKind};
use mtl_sim::{Engine, Sim, SimConfig};

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
    /// with a signal), nets in index order, every cycle of the window.
    /// Equal fingerprints across engines mean byte-identical faulty
    /// traces.
    pub trace_fingerprint: u64,
}

/// Configuration for [`run_diff`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Engine both runs use.
    pub engine: Engine,
    /// `SpecializedPar` worker count (`None`: engine default).
    pub threads: Option<usize>,
    /// Observation window: cycles simulated after `reset()`.
    pub cycles: u64,
}

impl DiffConfig {
    /// A window of `cycles` on the given engine with default threading.
    pub fn new(engine: Engine, cycles: u64) -> DiffConfig {
        DiffConfig { engine, threads: None, cycles }
    }
}

fn build(
    top: &dyn Component,
    cfg: &DiffConfig,
    shared: Option<(&mtl_sim::ArtifactCache, u64)>,
) -> Result<Sim, String> {
    let sim_cfg = SimConfig { threads: cfg.threads, ..Default::default() };
    match shared {
        Some((cache, key)) => Sim::build_shared(top, cfg.engine, &sim_cfg, cache, key),
        None => Sim::build_with_config(top, cfg.engine, &sim_cfg),
    }
    .map_err(|e| format!("elaboration failed: {e:?}"))
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
/// a signal (a net without one is unobservable through `peek`).
fn probes(design: &Design) -> Vec<Probe> {
    let nets = design.nets().iter().enumerate().filter(|(_, n)| !n.signals.is_empty());
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

/// Runs a golden and a faulted simulation of `top` in lockstep on one
/// engine and classifies the fault's effect.
///
/// Both simulators are reset, the plan is installed on the faulty one,
/// and both advance `cfg.cycles` cycles; designs drive themselves (the
/// mesh and tile harnesses generate their own traffic), so no external
/// stimulus is applied beyond reset. Every cycle reads both simulators'
/// net values once ([`Sim::net_values`]) and compares the two slices; the
/// nets are walked for divergence only on cycles where they differ. The
/// faulty values are folded into `trace_fingerprint` (see
/// [`FaultReport::trace_fingerprint`] for its definition).
///
/// # Errors
///
/// Returns elaboration failures and unresolvable fault targets.
pub fn run_diff(
    top: &dyn Component,
    plan: &FaultPlan,
    cfg: &DiffConfig,
) -> Result<FaultReport, String> {
    run_diff_inner(top, plan, cfg, None)
}

/// [`run_diff`] with both simulators built through a shared
/// [`mtl_sim::ArtifactCache`] under `key`, so a campaign hammering one
/// design point compiles its tapes once instead of twice per trial. The
/// key must identify the design `top` elaborates to (not the plan, seed,
/// or window — those vary per trial and share the same compile).
///
/// # Errors
///
/// Identical to [`run_diff`].
pub fn run_diff_shared(
    top: &dyn Component,
    plan: &FaultPlan,
    cfg: &DiffConfig,
    cache: &mtl_sim::ArtifactCache,
    key: u64,
) -> Result<FaultReport, String> {
    run_diff_inner(top, plan, cfg, Some((cache, key)))
}

fn run_diff_inner(
    top: &dyn Component,
    plan: &FaultPlan,
    cfg: &DiffConfig,
    shared: Option<(&mtl_sim::ArtifactCache, u64)>,
) -> Result<FaultReport, String> {
    let mut golden = build(top, cfg, shared)?;
    let mut faulty = build(top, cfg, shared)?;
    plan.apply(&mut faulty)?;
    golden.reset();
    faulty.reset();

    let probes = probes(golden.design());
    let mut first_divergence = None;
    let mut detected_at = None;
    let mut diverged: Vec<bool> = vec![false; golden.design().nets().len()];
    let mut fingerprint = FNV_OFFSET;
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for _ in 0..cfg.cycles {
        // The cycle about to be simulated, in `cycle_count` time (the
        // time base fault plans are scheduled in).
        let cycle = faulty.cycle_count();
        golden.cycle();
        faulty.cycle();
        golden.net_values(0, &mut want);
        faulty.net_values(0, &mut got);
        fold_cycle(&mut fingerprint, &probes, &got);
        if got == want {
            continue;
        }
        for p in probes.iter().filter(|p| got[p.net] != want[p.net]) {
            first_divergence.get_or_insert(cycle);
            if p.output {
                detected_at.get_or_insert(cycle);
            }
            diverged[p.net] = true;
        }
    }
    let design = golden.design();
    let mut blast_radius: Vec<String> = diverged
        .iter()
        .enumerate()
        .filter(|(_, &d)| d)
        .map(|(i, _)| design.net_path(mtl_core::NetId::from_index(i)))
        .collect();
    blast_radius.sort();
    blast_radius.dedup();
    let outcome = if detected_at.is_some() {
        Outcome::Detected
    } else if first_divergence.is_some() {
        Outcome::Silent
    } else {
        Outcome::Masked
    };
    Ok(FaultReport {
        outcome,
        first_divergence,
        detected_at,
        blast_radius,
        injected_bits: faulty.injected_bits(),
        cycles: cfg.cycles,
        trace_fingerprint: fingerprint,
    })
}

/// Runs up to 63 fault plans against one golden run in a *single* batch
/// simulation ([`Engine::SpecializedBatch`]): lane 0 carries the golden
/// trace, lane `1 + i` carries plan `i`, and one `cycle` advances every
/// trial. Divergence is detected with one compare of every lane's
/// settled words against the golden lane's per cycle
/// ([`Sim::divergence_masks`]) instead of a per-net peek pair per trial,
/// which is where fault campaigns spend their time.
///
/// Reports match [`run_diff`] field for field — the `Sim` wrapper runs
/// its forced-settle protocol per lane, so each lane's
/// trace is byte-identical to a scalar faulted run — **except**
/// `trace_fingerprint`, which is reported as 0: folding every net value
/// per lane would reinstate exactly the per-trial read-and-fold loop the
/// batch exists to avoid. Campaign tallies never read the
/// fingerprint; the test suite uses [`run_diff_batch_traced`] when it
/// wants fingerprint equality too.
///
/// The design must be native-free (an opaque closure is one stateful
/// instance, not one per lane) — RTL-level models qualify.
///
/// # Errors
///
/// Returns elaboration failures, unresolvable fault targets, and plan
/// sets larger than 63 (chunk the campaign instead).
pub fn run_diff_batch(
    top: &dyn Component,
    plans: &[FaultPlan],
    cycles: u64,
) -> Result<Vec<FaultReport>, String> {
    run_diff_batch_inner(top, plans, cycles, None, false)
}

/// [`run_diff_batch`] through a shared [`mtl_sim::ArtifactCache`] under
/// `key` (same contract as [`run_diff_shared`]): a campaign hammering one
/// design point compiles its plans once per design, not once per chunk —
/// and shares that compile with the scalar `specialized-opt` runs of the
/// same design point.
///
/// # Errors
///
/// Identical to [`run_diff_batch`].
pub fn run_diff_batch_shared(
    top: &dyn Component,
    plans: &[FaultPlan],
    cycles: u64,
    cache: &mtl_sim::ArtifactCache,
    key: u64,
) -> Result<Vec<FaultReport>, String> {
    run_diff_batch_inner(top, plans, cycles, Some((cache, key)), false)
}

/// [`run_diff_batch`] with real per-lane trace fingerprints: every lane's
/// net values are read every cycle ([`Sim::net_values`]) and folded
/// exactly as [`run_diff`] folds them, so a lane's report — fingerprint
/// included — must equal the scalar report for that plan alone. This
/// deliberately pays the per-trial read and fold the plain batch avoids;
/// it exists for the batch-vs-scalar differential suite, not for
/// campaigns.
///
/// # Errors
///
/// Identical to [`run_diff_batch`].
pub fn run_diff_batch_traced(
    top: &dyn Component,
    plans: &[FaultPlan],
    cycles: u64,
) -> Result<Vec<FaultReport>, String> {
    run_diff_batch_inner(top, plans, cycles, None, true)
}

fn run_diff_batch_inner(
    top: &dyn Component,
    plans: &[FaultPlan],
    cycles: u64,
    shared: Option<(&mtl_sim::ArtifactCache, u64)>,
    traced: bool,
) -> Result<Vec<FaultReport>, String> {
    if plans.is_empty() {
        return Ok(Vec::new());
    }
    if plans.len() > (mtl_sim::BATCH_LANES - 1) as usize {
        return Err(format!(
            "run_diff_batch takes at most {} plans per bundle (got {}); chunk the campaign",
            mtl_sim::BATCH_LANES - 1,
            plans.len()
        ));
    }
    let lanes = plans.len() as u32 + 1;
    let sim_cfg = SimConfig { lanes: Some(lanes), ..Default::default() };
    let mut sim = match shared {
        Some((cache, key)) => {
            Sim::build_shared(top, Engine::SpecializedBatch, &sim_cfg, cache, key)
        }
        None => Sim::build_with_config(top, Engine::SpecializedBatch, &sim_cfg),
    }
    .map_err(|e| format!("elaboration failed: {e:?}"))?;
    for (i, plan) in plans.iter().enumerate() {
        for inj in plan.to_injections(sim.design())? {
            sim.inject_lane(1 + i as u32, inj);
        }
    }
    sim.reset();

    // Same probe set as `run_diff`, so classifications match exactly.
    let probes = probes(sim.design());
    let nnets = sim.design().nets().len();
    let mut probed = vec![false; nnets];
    probes.iter().for_each(|p| probed[p.net] = true);

    let nlanes = plans.len();
    let mut first_divergence: Vec<Option<u64>> = vec![None; nlanes];
    let mut detected_at: Vec<Option<u64>> = vec![None; nlanes];
    // Per net: lanes that ever diverged from golden (bit `1 + i` = plan i).
    let mut ever: Vec<u64> = vec![0; nnets];
    let mut fingerprints: Vec<u64> = vec![FNV_OFFSET; nlanes];
    let mut masks: Vec<u64> = Vec::new();
    let mut values: Vec<u128> = Vec::new();
    for _ in 0..cycles {
        let cycle = sim.cycle_count();
        sim.cycle();
        if sim.divergence_masks(&mut masks) {
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
                sim.net_values(1 + i as u32, &mut values);
                fold_cycle(fp, &probes, &values);
            }
        }
    }

    let design = sim.design();
    let mut reports = Vec::with_capacity(nlanes);
    for i in 0..nlanes {
        let bit = 1u64 << (1 + i);
        let mut blast_radius: Vec<String> = ever
            .iter()
            .enumerate()
            .filter(|&(n, &m)| m & bit != 0 && probed[n])
            .map(|(n, _)| design.net_path(mtl_core::NetId::from_index(n)))
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
        reports.push(FaultReport {
            outcome,
            first_divergence: first_divergence[i],
            detected_at: detected_at[i],
            blast_radius,
            injected_bits: sim.lane_fault_totals(1 + i as u32).0,
            cycles,
            trace_fingerprint: if traced { fingerprints[i] } else { 0 },
        });
    }
    Ok(reports)
}

/// The simulator configurations [`engine_agreement`] runs: all five
/// engines, with `SpecializedPar` additionally pinned to 1 and 4 worker
/// threads (the partitioned double-buffered paths must agree at every
/// width).
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
