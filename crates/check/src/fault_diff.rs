//! Fault-differential fuzzing: golden-vs-faulted engine agreement.
//!
//! The value-level fuzzer ([`crate::fuzz`]) asserts that all engines agree
//! on *clean* runs. This mode asserts the stronger property the fault
//! subsystem depends on: for a seeded [`FaultPlan`] drawn over a random
//! design, every engine produces a byte-identical *faulty* trace and
//! therefore the identical divergence report (first-divergence cycle,
//! masked/silent/detected classification, blast radius). Each iteration
//! runs `mtl_fault::engine_agreement` — golden vs. faulted side-by-side on
//! the four engines of `Engine::ALL` plus `SpecializedPar` at 1 and 4
//! threads — and tallies the outcome taxonomy.

use std::fmt;

use mtl_fault::{engine_agreement, FaultPlan, Outcome, PlanSpec};
use mtl_sim::{Engine, Sim};

use crate::fuzz::design_seed;
use crate::rtl::{RandomRtl, RtlDesc, RtlShape};

/// Fault-differential fuzzer parameters.
#[derive(Debug, Clone)]
pub struct FaultFuzzConfig {
    /// Number of (design, fault plan) pairs to check.
    pub iters: u64,
    /// Base seed; each iteration derives design and plan seeds from it.
    pub seed: u64,
    /// Observation window per run (cycles after reset).
    pub cycles: u64,
    /// Faults drawn per plan.
    pub faults: usize,
    /// Design shape.
    pub shape: RtlShape,
}

impl Default for FaultFuzzConfig {
    fn default() -> Self {
        FaultFuzzConfig { iters: 25, seed: 7, cycles: 20, faults: 3, shape: RtlShape::default() }
    }
}

/// Outcome tally of a clean fault-differential run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultFuzzSummary {
    /// (design, plan) pairs checked.
    pub iters: u64,
    /// Runs classified [`Outcome::Masked`].
    pub masked: u64,
    /// Runs classified [`Outcome::Silent`].
    pub silent: u64,
    /// Runs classified [`Outcome::Detected`].
    pub detected: u64,
}

impl fmt::Display for FaultFuzzSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faulted designs agreed across engines \
             ({} masked, {} silent, {} detected)",
            self.iters, self.masked, self.silent, self.detected
        )
    }
}

/// Checks one design seed: draws a seeded fault plan over the design and
/// asserts all engine configurations agree on the faulted run.
///
/// # Errors
///
/// Returns the engine-disagreement message (naming both configurations and
/// both reports) or any per-run error. Deterministic in `(seed, cfg)`.
pub fn fault_fuzz_one(seed: u64, cfg: &FaultFuzzConfig) -> Result<Outcome, String> {
    let desc = RtlDesc::generate(seed, cfg.shape);
    let top = RandomRtl::from_desc(desc);
    // Elaborate once on the reference engine to draw the plan; reset
    // consumes cycles 0-1, so the injection window starts at cycle 2.
    let sim = Sim::build(&top, Engine::Interpreted)
        .map_err(|e| format!("design seed {seed:#x}: elaboration failed: {e:?}"))?;
    let spec = PlanSpec::new(cfg.faults, 2, 1 + cfg.cycles.max(1));
    let plan = FaultPlan::random(seed ^ 0xFA17, sim.design(), &spec);
    let report = engine_agreement(&top, &plan, cfg.cycles)
        .map_err(|e| format!("design seed {seed:#x}: {e}"))?;
    Ok(report.outcome)
}

/// Runs the fault-differential campaign described by `cfg`.
///
/// # Errors
///
/// Returns the first disagreement; deterministic given the configuration.
pub fn fault_fuzz(cfg: &FaultFuzzConfig) -> Result<FaultFuzzSummary, String> {
    let mut summary = FaultFuzzSummary { iters: cfg.iters, ..FaultFuzzSummary::default() };
    for iter in 0..cfg.iters {
        let seed = design_seed(cfg.seed, iter);
        match fault_fuzz_one(seed, cfg)? {
            Outcome::Masked => summary.masked += 1,
            Outcome::Silent => summary.silent += 1,
            Outcome::Detected => summary.detected += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_fuzz_is_clean_and_deterministic() {
        let cfg = FaultFuzzConfig { iters: 4, cycles: 12, ..FaultFuzzConfig::default() };
        let a = fault_fuzz(&cfg).expect("engines must agree on faulted runs");
        let b = fault_fuzz(&cfg).expect("engines must agree on faulted runs");
        assert_eq!(a, b, "same config, same tally");
        assert_eq!(a.iters, 4);
        assert_eq!(a.masked + a.silent + a.detected, 4);
    }
}
