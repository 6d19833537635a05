//! Everything a generator's `build` bakes in is part of its name, and what
//! differs per terminal (its seeds and index) is tied by its parent: one
//! design may hold RTL meshes whose generators differ only in their seed,
//! or synthetic SoCs that differ only in their packet budget, and each
//! keeps its own generators' behaviour — stamped, with its own ties, or
//! built, under its own name.

use mtl_core::{Component, Ctx};
use mtl_net::MeshTrafficRtlHarness;
use mtl_sim::{Engine, Sim};
use mtl_soc::{Soc, SocConfig, SocTraffic};

/// Designs side by side, each output port of each forwarded to a top port
/// `{port}{k}`.
struct Pair {
    children: Vec<Box<dyn Component>>,
    ports: &'static [&'static str],
}

impl Component for Pair {
    fn name(&self) -> String {
        let names: Vec<String> = self.children.iter().map(|c| c.name()).collect();
        format!("Pair_{}", names.join("_"))
    }

    fn build(&self, c: &mut Ctx) {
        for (k, child) in self.children.iter().enumerate() {
            let inst = c.instantiate(&format!("u{k}"), child.as_ref());
            for port in self.ports {
                let out = c.port_of(&inst, port);
                let top = c.out_port(&format!("{port}{k}"), out.width());
                c.connect(out, top);
            }
        }
    }
}

/// Per child of `top`, its output ports every 50 cycles over 600 cycles.
fn trace(top: &Pair) -> Vec<Vec<Vec<u128>>> {
    let mut sim = Sim::build(top, Engine::SpecializedOpt).expect("pair elaborates");
    sim.reset();
    let mut out = vec![Vec::new(); top.children.len()];
    for _ in 0..12 {
        sim.run(50);
        for (k, trace) in out.iter_mut().enumerate() {
            let peek = |port: &&str| sim.peek_port(&format!("{port}{k}")).as_u128();
            trace.push(top.ports.iter().map(peek).collect());
        }
    }
    out
}

/// Each child of the pair `make(0)`, `make(1)` simulates cycle-exactly like
/// itself alone, and the two differ (so the check has teeth).
fn each_as_alone(make: impl Fn(usize) -> Box<dyn Component>, ports: &'static [&'static str]) {
    let pair = trace(&Pair { children: vec![make(0), make(1)], ports });
    let alone = |k| trace(&Pair { children: vec![make(k)], ports }).remove(0);
    assert_eq!(pair[0], alone(0), "first child of the pair");
    assert_eq!(pair[1], alone(1), "second child of the pair");
    assert_ne!(pair[0], pair[1], "the children behave differently");
}

#[test]
fn rtl_meshes_differing_only_in_their_generators_seed_keep_their_own_generators() {
    let harness = |k| Box::new(MeshTrafficRtlHarness::new(16, 300, 0xBEEF + k as u64)) as _;
    each_as_alone(harness, &["checksum"]);
    let names = |k| harness(k).name();
    assert_ne!(names(0), names(1), "the seed is in the harness's name");
}

#[test]
fn synthetic_socs_differing_only_in_their_budget_keep_their_own_generators() {
    let soc = |k| {
        let config = SocConfig::synthetic(4, mtl_net::NetLevel::Rtl, SocTraffic::UniformRandom);
        Box::new(Soc::new(config.with_limit(3 + 5 * k as u32))) as _
    };
    each_as_alone(soc, &["checksum", "injected", "delivered"]);
}
