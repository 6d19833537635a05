//! Property-based Verilog round-trip testing: random expression trees are
//! wrapped in a one-block design, emitted as Verilog, re-parsed, and
//! co-simulated against the original under random stimulus.

use proptest::prelude::*;
use rustmtl::core::{elaborate, Component, Ctx, Expr, SignalRef};
use rustmtl::prelude::*;
use rustmtl::sim::{Engine, Sim};
use rustmtl::translate::{translate, VerilogLibrary};

/// A proptest-generatable expression recipe over three inputs of fixed
/// widths (8, 16, 32).
#[derive(Debug, Clone, Hash)]
enum Recipe {
    Input(u8),
    Const(u64),
    Add(Box<Recipe>, Box<Recipe>),
    Sub(Box<Recipe>, Box<Recipe>),
    Mul(Box<Recipe>, Box<Recipe>),
    And(Box<Recipe>, Box<Recipe>),
    Or(Box<Recipe>, Box<Recipe>),
    Xor(Box<Recipe>, Box<Recipe>),
    Not(Box<Recipe>),
    Mux(Box<Recipe>, Box<Recipe>, Box<Recipe>),
    LtPick(Box<Recipe>, Box<Recipe>),
    SextSlice(Box<Recipe>),
    Shift(Box<Recipe>, u8),
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    let leaf = prop_oneof![(0u8..3).prop_map(Recipe::Input), any::<u64>().prop_map(Recipe::Const),];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::Xor(a.into(), b.into())),
            inner.clone().prop_map(|a| Recipe::Not(a.into())),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Recipe::Mux(
                c.into(),
                t.into(),
                f.into()
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Recipe::LtPick(a.into(), b.into())),
            inner.clone().prop_map(|a| Recipe::SextSlice(a.into())),
            (inner, 0u8..31).prop_map(|(a, s)| Recipe::Shift(a.into(), s)),
        ]
    })
}

fn to_expr(r: &Recipe, inputs: &[SignalRef]) -> Expr {
    let norm = |e: Expr| e; // all expressions normalized to 32 bits
    match r {
        Recipe::Input(i) => {
            let s = inputs[*i as usize % inputs.len()];
            if s.width() < 32 {
                s.ex().zext(32)
            } else {
                s.ex()
            }
        }
        Recipe::Const(v) => Expr::k(32, *v as u128),
        Recipe::Add(a, b) => norm(to_expr(a, inputs) + to_expr(b, inputs)),
        Recipe::Sub(a, b) => norm(to_expr(a, inputs) - to_expr(b, inputs)),
        Recipe::Mul(a, b) => norm(to_expr(a, inputs) * to_expr(b, inputs)),
        Recipe::And(a, b) => norm(to_expr(a, inputs) & to_expr(b, inputs)),
        Recipe::Or(a, b) => norm(to_expr(a, inputs) | to_expr(b, inputs)),
        Recipe::Xor(a, b) => norm(to_expr(a, inputs) ^ to_expr(b, inputs)),
        Recipe::Not(a) => !to_expr(a, inputs),
        Recipe::Mux(c, t, f) => {
            let cond = to_expr(c, inputs).reduce_or();
            cond.mux(to_expr(t, inputs), to_expr(f, inputs))
        }
        Recipe::LtPick(a, b) => {
            let x = to_expr(a, inputs);
            let y = to_expr(b, inputs);
            x.clone().lt_s(y.clone()).mux(x, y)
        }
        Recipe::SextSlice(a) => to_expr(a, inputs).slice(4, 20).sext(32),
        Recipe::Shift(a, s) => to_expr(a, inputs).srl(Expr::k(5, *s as u128)),
    }
}

#[derive(Hash)]
struct OneBlock {
    recipe: Recipe,
    tag: u64,
}

impl Component for OneBlock {
    fn build(&self, c: &mut Ctx) {
        let inputs = vec![c.in_port("i0", 8), c.in_port("i1", 16), c.in_port("i2", 32)];
        let out = c.out_port("out", 32);
        let reg_out = c.out_port("reg_out", 32);
        let e = to_expr(&self.recipe, &inputs);
        c.comb("expr", |b| b.assign(out, e.clone()));
        // Also register the value so the sequential path is exercised.
        c.seq("regd", |b| b.assign(reg_out, out));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_expressions_survive_verilog_round_trip(
        recipe in recipe_strategy(),
        stim in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 8),
        tag in any::<u64>(),
    ) {
        let model = OneBlock { recipe, tag };
        let design = elaborate(&model).expect("elaboration");
        let verilog = translate(&design).expect("translation");
        let lib = VerilogLibrary::parse(&verilog)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{verilog}"));
        let mut a = Sim::new(design, Engine::SpecializedOpt);
        let mut b_ = Sim::build(&lib.top_component(), Engine::SpecializedOpt).unwrap();
        for (x, y, z) in stim {
            for sim in [&mut a, &mut b_] {
                sim.poke_port("i0", b(8, x as u128));
                sim.poke_port("i1", b(16, y as u128));
                sim.poke_port("i2", b(32, z as u128));
                sim.cycle();
            }
            prop_assert_eq!(a.peek_port("out"), b_.peek_port("out"));
            prop_assert_eq!(a.peek_port("reg_out"), b_.peek_port("reg_out"));
        }
    }
}
