//! A component's identity is its value: its type and every field its
//! `build` reads, through a derived `Hash`. What differs per terminal (a
//! generator's seeds and index) is tied by its parent. So one design may
//! hold RTL meshes whose generators differ only in their seed, synthetic
//! SoCs that differ only in their packet budget, or tiles that differ only
//! in their cache size, and each keeps its own behaviour: stamped, with
//! its own ties, or built under its own key. The Verilog holds one module
//! per key.

use mtl_accel::{TileConfig, TileHarness, XcelLevel};
use mtl_core::{Component, Ctx, Keyed};
use mtl_net::{MeshTrafficRtlHarness, NetLevel};
use mtl_proc::{assemble, CacheLevel, ProcLevel};
use mtl_sim::{Engine, Sim};
use mtl_soc::{Soc, SocConfig, SocTraffic};
use mtl_translate::{translate, VerilogLibrary};

/// Designs side by side, each output port of each forwarded to a top port
/// `{port}{k}`.
struct Pair {
    children: Vec<Box<dyn Component>>,
    ports: &'static [&'static str],
}

impl Keyed for Pair {}

impl Component for Pair {
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
}

/// A synthetic RTL SoC of 4 tiles whose generators stop after `limit`
/// packets each.
fn synthetic_soc(limit: u32) -> Box<dyn Component> {
    let config = SocConfig::synthetic(4, NetLevel::Rtl, SocTraffic::UniformRandom);
    Box::new(Soc::new(config.with_limit(limit)))
}

#[test]
fn synthetic_socs_differing_only_in_their_budget_keep_their_own_generators() {
    each_as_alone(|k| synthetic_soc(3 + 5 * k as u32), &["checksum", "injected", "delivered"]);
}

/// Loads one word of each of 16 cache lines, eight times over: the lines
/// fit a 32-line data cache, and evict each other from an 8-line one.
fn sweep_16_lines() -> Vec<u32> {
    let loads: String = (0..16).map(|i| format!("lw x5, {}(x1)\n", 16 * i)).collect();
    let src = format!(
        "addi x1, x0, 1024\naddi x3, x0, 8\nagain: {loads}addi x3, x3, -1\nbne x3, x0, again\nhalt"
    );
    assemble(&src).expect("the kernel assembles")
}

#[test]
fn rtl_tiles_differing_only_in_their_cache_size_keep_their_own_caches() {
    let program = sweep_16_lines();
    let config = TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl };
    let tile = |k: usize| {
        let harness = TileHarness::new(config, 1 << 10, vec![]).with_cache_nlines([8, 32][k]);
        harness.load(0, &program);
        Box::new(harness) as _
    };
    each_as_alone(tile, &["halted", "instret"]);
}

/// The Verilog module names of a pair of synthetic SoCs with the given
/// budgets, after checking that the Verilog parses back.
fn verilog_modules(limits: [u32; 2]) -> Vec<String> {
    let pair = Pair { children: limits.map(synthetic_soc).into(), ports: &["checksum"] };
    let verilog = translate(&mtl_core::elaborate(&pair).unwrap()).expect("the pair translates");
    VerilogLibrary::parse(&verilog).unwrap_or_else(|e| panic!("the Verilog parses back: {e}"));
    let name = |line: &str| Some(line.strip_prefix("module ")?.split(' ').next()?.to_string());
    verilog.lines().filter_map(name).collect()
}

/// SoCs that differ only in their budget hold two generator modules,
/// numbered in emission order; equal SoCs share one of each keyed
/// component. The SoC (it holds memory handles) and its mesh (it holds a
/// router factory) are keyless: one module per instance.
#[test]
fn the_verilog_holds_one_module_per_key() {
    let modules = verilog_modules([3, 8]);
    let gens: Vec<_> = modules.iter().filter(|m| m.starts_with("SocTrafficGen")).collect();
    assert_eq!(gens, ["SocTrafficGen_1", "SocTrafficGen_2"], "one generator module per budget");
    let keyless = ["MeshNetworkStructural_1", "Soc_1", "MeshNetworkStructural_2", "Soc_2"];
    let [mesh_1, soc_1, mesh_2, soc_2] = keyless;
    let shared = ["NormalQueue", "RoundRobinArbiter", "RouterRTL"];
    let want = [&shared[..], &[mesh_1, "SocTrafficGen", soc_1, mesh_2, soc_2, "Pair"]].concat();
    assert_eq!(verilog_modules([3, 3]), want, "equal SoCs share their keyed modules");
}
