//! mtl-check integration: one minimal offending design per lint rule,
//! lint-cleanliness of the fuzzer's generator, a differential-fuzz smoke
//! run and the shrinker's mechanics.

use rustmtl::check::{
    design_seed, elaborate_unchecked, fuzz, lint, shrink, FuzzConfig, LintRule, RandomRtl, RtlDesc,
    RtlShape, Severity,
};
use rustmtl::core::{Component, Ctx, Expr};
use rustmtl::sim::{Engine, Sim};
use rustmtl::stdlib::MuxReg;

fn rules(diags: &[rustmtl::check::Diagnostic]) -> Vec<LintRule> {
    diags.iter().map(|d| d.rule).collect()
}

/// Two comb blocks reading each other: the linter must print the full
/// cycle, block by block, with the nets carrying each edge.
#[test]
fn lint_flags_comb_cycle_with_full_cycle_path() {
    struct Cyclic;
    impl Component for Cyclic {
        fn name(&self) -> String {
            "Cyclic".into()
        }
        fn build(&self, c: &mut Ctx) {
            let a = c.wire("a", 8);
            let b = c.wire("b", 8);
            let out = c.out_port("out", 8);
            c.comb("fwd", |blk| blk.assign(a, b + Expr::k(8, 1)));
            c.comb("bwd", |blk| blk.assign(b, a + Expr::k(8, 1)));
            c.comb("tap", |blk| blk.assign(out, a.ex()));
        }
    }
    let diags = lint(&elaborate_unchecked(&Cyclic));
    let cycle =
        diags.iter().find(|d| d.rule == LintRule::CombCycle).expect("comb cycle must be reported");
    assert_eq!(cycle.severity, Severity::Error);
    assert!(cycle.blocks.contains(&"top.fwd".to_string()), "{:?}", cycle.blocks);
    assert!(cycle.blocks.contains(&"top.bwd".to_string()), "{:?}", cycle.blocks);
    assert!(cycle.signals.contains(&"top.a".to_string()), "{:?}", cycle.signals);
    assert!(cycle.signals.contains(&"top.b".to_string()), "{:?}", cycle.signals);
    // The rendered cycle closes on its starting block.
    assert!(
        cycle.message.contains("-[top.a]->") && cycle.message.contains("-[top.b]->"),
        "full cycle with edge nets expected: {}",
        cycle.message
    );
    let first = cycle.blocks[0].clone();
    assert!(cycle.message.ends_with(&first), "cycle must close: {}", cycle.message);
}

/// Two comb blocks assigning the same net.
#[test]
fn lint_flags_multiply_driven_net() {
    struct TwoDrivers;
    impl Component for TwoDrivers {
        fn name(&self) -> String {
            "TwoDrivers".into()
        }
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let out = c.out_port("out", 8);
            c.comb("drv1", |b| b.assign(out, a.ex()));
            c.comb("drv2", |b| b.assign(out, !a.ex()));
        }
    }
    let diags = lint(&elaborate_unchecked(&TwoDrivers));
    let d = diags
        .iter()
        .find(|d| d.rule == LintRule::MultiplyDriven)
        .expect("multiply-driven must be reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.signals.contains(&"top.out".to_string()), "{:?}", d.signals);
    assert!(d.blocks.contains(&"top.drv1".to_string()), "{:?}", d.blocks);
    assert!(d.blocks.contains(&"top.drv2".to_string()), "{:?}", d.blocks);
}

/// A block driving a top-level input port conflicts with the implicit
/// external driver.
#[test]
fn lint_flags_block_driving_top_input_as_external_conflict() {
    struct DrivesInput;
    impl Component for DrivesInput {
        fn name(&self) -> String {
            "DrivesInput".into()
        }
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 4);
            let out = c.out_port("out", 4);
            c.comb("bad", |b| b.assign(a, Expr::k(4, 3)));
            c.comb("tap", |b| b.assign(out, a.ex()));
        }
    }
    let diags = lint(&elaborate_unchecked(&DrivesInput));
    let d = diags
        .iter()
        .find(|d| d.rule == LintRule::MultiplyDriven)
        .expect("external conflict must be reported");
    assert!(d.blocks.contains(&"<external>".to_string()), "{:?}", d.blocks);
    assert!(d.blocks.contains(&"top.bad".to_string()), "{:?}", d.blocks);
}

/// A structural connection between signals of different widths.
#[test]
fn lint_flags_width_mismatch_across_connection() {
    struct Mismatched;
    impl Component for Mismatched {
        fn name(&self) -> String {
            "Mismatched".into()
        }
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let out = c.out_port("out", 4);
            c.connect(a, out);
        }
    }
    let diags = lint(&elaborate_unchecked(&Mismatched));
    let d = diags
        .iter()
        .find(|d| d.rule == LintRule::WidthMismatch)
        .expect("width mismatch must be reported");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.signals, vec!["top.a".to_string(), "top.out".to_string()]);
    assert!(d.message.contains("8 bits") && d.message.contains("4 bits"), "{}", d.message);
}

/// A net written by both a sequential and a combinational block.
#[test]
fn lint_flags_mixed_seq_comb_drivers() {
    struct Mixed;
    impl Component for Mixed {
        fn name(&self) -> String {
            "Mixed".into()
        }
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let w = c.wire("w", 8);
            let out = c.out_port("out", 8);
            c.seq("state", |b| b.assign(w, a.ex()));
            c.comb("also", |b| b.assign(w, !a.ex()));
            c.comb("tap", |b| b.assign(out, w.ex()));
        }
    }
    let diags = lint(&elaborate_unchecked(&Mixed));
    let d = diags
        .iter()
        .find(|d| d.rule == LintRule::MixedDrivers)
        .expect("mixed drivers must be reported");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.signals, vec!["top.w".to_string()]);
    assert!(d.message.contains("top.state") && d.message.contains("top.also"), "{}", d.message);
    // The same net is also multiply-driven; both diagnostics fire.
    assert!(rules(&diags).contains(&LintRule::MultiplyDriven));
}

/// A child input port nothing drives, a child output port nothing reads,
/// a wire read but never driven and a wire driven but never read — the
/// four dead-signal warnings, each once, with exact paths.
#[test]
fn lint_flags_undriven_input_and_unread_output() {
    struct Child;
    impl Component for Child {
        fn name(&self) -> String {
            "Child".into()
        }
        fn build(&self, c: &mut Ctx) {
            let in_ = c.in_port("in_", 8);
            let unused = c.out_port("unused", 8);
            c.comb("logic", |b| b.assign(unused, in_.ex()));
        }
    }
    struct Parent;
    impl Component for Parent {
        fn name(&self) -> String {
            "Parent".into()
        }
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 4);
            let out = c.out_port("out", 8);
            let floating = c.wire("floating", 8);
            let unused = c.wire("unused", 4);
            c.instantiate("child", &Child);
            c.comb("copy", |b| b.assign(out, floating));
            c.comb("dead", |b| b.assign(unused, a));
        }
    }
    let diags = lint(&elaborate_unchecked(&Parent));
    let undriven = diags
        .iter()
        .find(|d| d.rule == LintRule::UndrivenInput)
        .expect("undriven input must be reported");
    assert_eq!(undriven.severity, Severity::Warning);
    assert_eq!(undriven.signals, vec!["top.child.in_".to_string()]);
    let unread = diags
        .iter()
        .find(|d| d.rule == LintRule::UnreadOutput)
        .expect("unread output must be reported");
    assert_eq!(unread.severity, Severity::Warning);
    assert_eq!(unread.signals, vec!["top.child.unused".to_string()]);
    let floating = diags
        .iter()
        .find(|d| d.rule == LintRule::UndrivenNet)
        .expect("a wire read but never driven must be reported");
    assert_eq!(floating.severity, Severity::Warning);
    assert_eq!(floating.signals, vec!["top.floating".to_string()]);
    let dead = diags
        .iter()
        .find(|d| d.rule == LintRule::UnreadNet)
        .expect("a wire driven but never read must be reported");
    assert_eq!(dead.severity, Severity::Warning);
    assert_eq!(dead.signals, vec!["top.unused".to_string()]);
    // A net is reported by at most one dead-signal rule.
    for path in ["top.child.in_", "top.child.unused", "top.floating", "top.unused"] {
        let hits = diags.iter().filter(|d| d.signals.iter().any(|s| s == path)).count();
        assert_eq!(hits, 1, "`{path}` in {diags:?}");
    }
    assert_eq!(diags.len(), 4, "{diags:?}");
    // Errors sort before warnings (here: no errors at all).
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    // A fully connected structural design lints clean.
    assert!(lint(&elaborate_unchecked(&MuxReg::default())).is_empty());
}

/// The fuzzer's generator must be lint-clean by construction: no
/// diagnostics of any severity on 100 seeded designs.
#[test]
fn random_rtl_is_lint_clean_on_100_seeds() {
    for seed in 1..=100u64 {
        let design = elaborate_unchecked(&RandomRtl::new(seed));
        let diags = lint(&design);
        assert!(
            diags.is_empty(),
            "seed {seed}: generated design must be lint-clean, got: {:?}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }
}

/// The CI smoke gate: 25 iterations at seed 7, all six engine
/// configurations in agreement.
#[test]
fn fuzz_smoke_25_iters_seed_7() {
    let cfg = FuzzConfig { iters: 25, seed: 7, cycles: 15, ..FuzzConfig::default() };
    let summary = fuzz(&cfg).unwrap_or_else(|f| panic!("engines must agree:\n{f}"));
    assert_eq!(summary.iters, 25);
    assert_eq!(summary.engines, 6);
}

/// Iteration seeds are decorrelated and deterministic.
#[test]
fn design_seed_policy_is_deterministic_and_spread() {
    let a: Vec<u64> = (0..50).map(|i| design_seed(7, i)).collect();
    let b: Vec<u64> = (0..50).map(|i| design_seed(7, i)).collect();
    assert_eq!(a, b);
    let mut uniq = a.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), a.len(), "seed collisions within one campaign");
}

/// Shrinker mechanics, driven by a synthetic predicate instead of a real
/// engine bug: "the divergence reproduces as long as wire w2 still reads
/// input in0". Everything else must be zeroed out and garbage-collected.
#[test]
fn shrink_minimizes_to_the_predicate_core() {
    let desc = RtlDesc::generate(11, RtlShape::default());
    let reads_in0 = |d: &RtlDesc| {
        d.wires.iter().any(|w| {
            if w.name != "w2" {
                return false;
            }
            let mut reads = Vec::new();
            w.expr.collect_reads(&mut reads);
            let in0 = d.inputs.iter().position(|(n, _)| n == "in0");
            in0.is_some_and(|i| reads.iter().any(|r| r.index() == i))
        })
    };
    if !reads_in0(&desc) {
        // Make the predicate hold on the unshrunk design.
        let mut desc = desc;
        let from = desc.inputs[0].1;
        let w2 = desc.wires.iter_mut().find(|w| w.name == "w2").unwrap();
        let in0 = rustmtl::core::Expr::Read(rustmtl::core::SignalId::from_index(0));
        w2.expr = match from.cmp(&w2.width) {
            std::cmp::Ordering::Less => in0.zext(w2.width),
            std::cmp::Ordering::Equal => in0,
            std::cmp::Ordering::Greater => in0.trunc(w2.width),
        };
        run_shrink_assertions(desc, reads_in0);
        return;
    }
    run_shrink_assertions(desc, reads_in0);
}

fn run_shrink_assertions(desc: RtlDesc, pred: impl Fn(&RtlDesc) -> bool) {
    assert!(pred(&desc), "predicate must hold before shrinking");
    let min = shrink(&desc, 500, |d| pred(d));
    assert!(pred(&min), "shrinking must preserve the predicate");
    assert!(min.mem_write.is_none(), "memory write should shrink away");
    assert!(min.regs.is_empty(), "registers should shrink away: {:?}", min.regs);
    assert!(
        min.wires.iter().all(|w| w.name == "w2"),
        "only the predicate core should survive: {:?}",
        min.wires.iter().map(|w| &w.name).collect::<Vec<_>>()
    );
    assert!(min.inputs.len() <= desc.inputs.len());
    // The survivor still elaborates and simulates.
    Sim::build(&RandomRtl::from_desc(min), Engine::Interpreted).expect("minimized design builds");
}
