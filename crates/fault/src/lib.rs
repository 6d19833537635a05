//! Deterministic fault injection for RustMTL.
//!
//! Resilience studies are a canonical "many tools, one design instance"
//! workload: elaborate a design once, then ask what happens when a bit
//! flips mid-flight. This crate is that tool. A [`FaultPlan`] — written
//! explicitly or drawn from a seeded RNG over a design's injectable nets
//! — schedules transient bit-flips and stuck-at-0/1 faults on named nets
//! and sequential state at chosen cycles. Injection itself lives in
//! `mtl-sim` as a post-settle/pre-edge hook ([`mtl_sim::Sim::inject`])
//! driven through engine-agnostic primitives, so every engine produces
//! byte-identical faulty traces for the same plan.
//!
//! On top of the plan vocabulary this crate provides the differential
//! runner, one driver over two lane sets: [`run_diffs`] simulates one
//! golden run and up to 63 faulted ones in lockstep — lane 0 golden,
//! lane `1 + i` plan `i`, either as one lane simulator
//! (`Engine::SpecializedBatch`) or as a golden and one faulty simulator
//! per plan on any other engine, so a chunk of trials runs its golden
//! once — and reports, per plan, the first-divergence cycle, the blast
//! radius (every net that ever diverged), and a masked / silent /
//! detected classification (see [`Outcome`]). [`run_diff`] is its
//! one-plan call; [`engine_agreement`] repeats that run on every engine
//! (including `SpecializedPar` at 1 and 4 threads) and asserts the
//! reports and trace fingerprints agree.
//!
//! ```
//! use mtl_core::{Component, Ctx, Expr};
//! use mtl_fault::{DiffConfig, Fault, FaultKind, FaultPlan, run_diff};
//! use mtl_sim::Engine;
//!
//! #[derive(Hash)]
//! struct Counter;
//! impl Component for Counter {
//!     fn build(&self, c: &mut Ctx) {
//!         let out = c.out_port("out", 8);
//!         let state = c.wire("state", 8);
//!         c.seq("count", |b| b.assign(state, state.ex() + Expr::k(8, 1)));
//!         c.comb("mirror", |b| b.assign(out, state.ex()));
//!     }
//! }
//!
//! let plan = FaultPlan::explicit(vec![Fault {
//!     target: "state".into(),
//!     bit: 3,
//!     kind: FaultKind::Flip,
//!     cycle: 5,
//!     duration: 1,
//! }]);
//! let report = run_diff(&Counter, &plan, &DiffConfig::new(Engine::SpecializedOpt, 20)).unwrap();
//! assert_eq!(report.first_divergence, Some(5));
//! ```

mod diff;
mod plan;

pub use diff::{
    agreement_configs, engine_agreement, run_diff, run_diff_batch, run_diff_batch_shared,
    run_diff_shared, run_diffs, DiffConfig, FaultReport, Outcome,
};
pub use plan::{Fault, FaultKind, FaultPlan, PlanSpec, Targets};

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b;
    use mtl_core::{Component, Ctx, Expr};
    use mtl_sim::{Engine, InjectKind, Injection, Sim};

    /// An 8-bit counter feeding a comb mirror and a parity bit.
    #[derive(Hash)]
    struct Counter;

    impl Component for Counter {
        fn build(&self, c: &mut Ctx) {
            let out = c.out_port("out", 8);
            let parity = c.out_port("parity", 1);
            let state = c.wire("state", 8);
            c.seq("count", |b| b.assign(state, state.ex() + Expr::k(8, 1)));
            c.comb("mirror", |b| b.assign(out, state.ex()));
            c.comb("par", |b| {
                b.assign(
                    parity,
                    state.bit(0)
                        ^ state.bit(1)
                        ^ state.bit(2)
                        ^ state.bit(3)
                        ^ state.bit(4)
                        ^ state.bit(5)
                        ^ state.bit(6)
                        ^ state.bit(7),
                )
            });
        }
    }

    /// An accumulator whose low nibble is architecturally invisible:
    /// `live` exposes only the high nibble, but the register holds every
    /// bit — a flip in the low nibble persists without ever surfacing.
    #[derive(Hash)]
    struct DeadNibble;

    impl Component for DeadNibble {
        fn build(&self, c: &mut Ctx) {
            let in_ = c.in_port("in_", 8);
            let live = c.out_port("live", 4);
            let state = c.wire("state", 8);
            c.seq("accum", |b| b.assign(state, state.ex() + in_.ex()));
            c.comb("expose", |b| b.assign(live, state.slice(4, 8)));
        }
    }

    #[test]
    fn transient_flip_on_state_diverges_at_injection_cycle() {
        let plan = FaultPlan::explicit(vec![Fault {
            target: "state".into(),
            bit: 0,
            kind: FaultKind::Flip,
            cycle: 5,
            duration: 1,
        }]);
        let report =
            run_diff(&Counter, &plan, &DiffConfig::new(Engine::SpecializedOpt, 20)).unwrap();
        assert_eq!(report.outcome, Outcome::Detected);
        assert_eq!(report.first_divergence, Some(5));
        assert_eq!(report.detected_at, Some(5));
        assert_eq!(report.injected_bits, 1);
        // The flip reaches the mirror, the parity, and the state net.
        assert_eq!(report.blast_radius.len(), 3, "blast: {:?}", report.blast_radius);
    }

    #[test]
    fn flip_on_counter_state_persists_seu_style() {
        // The counter increments its own state: the flipped value is
        // captured and the faulty counter stays offset by 2^bit forever.
        let mut golden = Sim::build(&Counter, Engine::Interpreted).unwrap();
        let mut faulty = Sim::build(&Counter, Engine::Interpreted).unwrap();
        let sig = faulty.find_signal("state");
        faulty.inject(Injection {
            sig,
            mask: 1 << 4,
            kind: InjectKind::Flip,
            cycle: 4,
            duration: 1,
        });
        golden.reset();
        faulty.reset();
        for _ in 0..10 {
            golden.cycle();
            faulty.cycle();
        }
        let g = golden.peek_port("out").as_u128();
        let f = faulty.peek_port("out").as_u128();
        assert_eq!(f, (g + 16) & 0xFF, "flip persists as a +16 offset");
    }

    #[test]
    fn stuck_at_zero_holds_for_duration_then_releases() {
        let plan = FaultPlan::explicit(vec![Fault {
            target: "out".into(),
            bit: 0,
            kind: FaultKind::StuckAt0,
            cycle: 4,
            duration: 3,
        }]);
        let report =
            run_diff(&Counter, &plan, &DiffConfig::new(Engine::InterpretedOpt, 20)).unwrap();
        // `out` mirrors the counter combinationally; sticking its bit 0
        // low diverges on cycles where the clean bit is 1, and releases
        // cleanly afterwards (out itself is recomputed from state).
        assert_eq!(report.outcome, Outcome::Detected);
        assert!(report.first_divergence.is_some());
        assert!(report.blast_radius.contains(&report.blast_radius[0]));
    }

    #[test]
    fn unexposed_nibble_flip_is_silent_and_exposed_flip_is_detected() {
        // Bit 0 feeds nothing visible: the accumulator holds the flip
        // but only `state` itself diverges — never the output.
        let plan = FaultPlan::explicit(vec![Fault {
            target: "state".into(),
            bit: 0,
            kind: FaultKind::Flip,
            cycle: 3,
            duration: 1,
        }]);
        let report =
            run_diff(&DeadNibble, &plan, &DiffConfig::new(Engine::SpecializedOpt, 12)).unwrap();
        assert_eq!(report.outcome, Outcome::Silent, "report: {report:?}");
        // A flip on the exposed nibble is architecturally visible.
        let plan = FaultPlan::explicit(vec![Fault {
            target: "state".into(),
            bit: 6,
            kind: FaultKind::Flip,
            cycle: 3,
            duration: 1,
        }]);
        let report =
            run_diff(&DeadNibble, &plan, &DiffConfig::new(Engine::SpecializedOpt, 12)).unwrap();
        assert_eq!(report.outcome, Outcome::Detected);
    }

    #[test]
    fn empty_plan_is_masked_with_identical_traces() {
        let plan = FaultPlan::explicit(Vec::new());
        let report = run_diff(&Counter, &plan, &DiffConfig::new(Engine::Specialized, 8)).unwrap();
        assert_eq!(report.outcome, Outcome::Masked);
        assert_eq!(report.first_divergence, None);
        assert!(report.blast_radius.is_empty());
        assert_eq!(report.injected_bits, 0);
    }

    #[test]
    fn all_engines_agree_on_fault_reports_and_trace_fingerprints() {
        let plan = FaultPlan::explicit(vec![
            Fault { target: "state".into(), bit: 2, kind: FaultKind::Flip, cycle: 4, duration: 1 },
            Fault {
                target: "out".into(),
                bit: 7,
                kind: FaultKind::StuckAt1,
                cycle: 6,
                duration: 2,
            },
        ]);
        let report = engine_agreement(&Counter, &plan, 16).expect("engines must agree");
        assert_eq!(report.outcome, Outcome::Detected);
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_state_only_targets_registers() {
        let sim = Sim::build(&Counter, Engine::Interpreted).unwrap();
        let spec = PlanSpec::new(8, 2, 30);
        let a = FaultPlan::random(0xBEEF, sim.design(), &spec);
        let b_ = FaultPlan::random(0xBEEF, sim.design(), &spec);
        let c = FaultPlan::random(0xBEF0, sim.design(), &spec);
        assert_eq!(a, b_, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        let state = FaultPlan::random(7, sim.design(), &PlanSpec::new(8, 2, 30).state_only());
        for f in &state.faults {
            assert!(f.target.ends_with("state"), "state-only plan targeted `{}`", f.target);
        }
        // Random plans resolve and run end to end.
        let report = run_diff(&Counter, &a, &DiffConfig::new(Engine::SpecializedOpt, 40)).unwrap();
        assert!(report.cycles == 40);
    }

    #[test]
    fn unresolvable_and_out_of_range_targets_error() {
        let sim = Sim::build(&Counter, Engine::Interpreted).unwrap();
        let bad = FaultPlan::explicit(vec![Fault {
            target: "no_such_net".into(),
            bit: 0,
            kind: FaultKind::Flip,
            cycle: 1,
            duration: 1,
        }]);
        assert!(bad.to_injections(sim.design()).unwrap_err().contains("no_such_net"));
        let oob = FaultPlan::explicit(vec![Fault {
            target: "state".into(),
            bit: 8,
            kind: FaultKind::Flip,
            cycle: 1,
            duration: 1,
        }]);
        assert!(oob.to_injections(sim.design()).unwrap_err().contains("out of range"));
    }

    #[test]
    fn injection_rejects_top_level_inputs() {
        let mut sim = Sim::build(&DeadNibble, Engine::SpecializedOpt).unwrap();
        let sig = sim.find_signal("in_");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.inject(Injection { sig, mask: 1, kind: InjectKind::Flip, cycle: 1, duration: 1 });
        }));
        assert!(err.is_err(), "injecting on an undriven input must panic");
    }

    #[test]
    fn stuck_fault_observable_between_cycles_and_cleans_up() {
        let mut sim = Sim::build(&Counter, Engine::SpecializedOpt).unwrap();
        let sig = sim.find_signal("out");
        sim.inject(Injection {
            sig,
            mask: 0xFF,
            kind: InjectKind::StuckAt1,
            cycle: 3,
            duration: 1,
        });
        sim.reset();
        sim.cycle(); // cycle 2 (clean)
        sim.cycle(); // cycle 3 (stuck-at-1 held through the post-edge settle)
        assert_eq!(sim.peek_port("out"), b(8, 0xFF));
        sim.cycle(); // cycle 4: fault expired, cleanup settle restores
        let clean = sim.peek_port("out").as_u128();
        assert_ne!(clean, 0xFF);
        assert_eq!(sim.injected_bits(), 8);
        assert_eq!(sim.faulted_cycle_count(), 1);
    }
}
