//! Buffer depth is a field of a router's key: one design may hold RTL
//! meshes of different depth, and each keeps its own router module.

use std::sync::{Arc, Mutex};

use mtl_core::{Component, Ctx, Keyed};
use mtl_net::{network, NetLevel, NetStats, TrafficGen};
use mtl_sim::{Engine, Sim};

const NROUTERS: usize = 16;

/// RTL meshes of the given depths side by side, each with its own traffic
/// generators when `stats` holds one counter per mesh.
struct Meshes {
    depths: Vec<usize>,
    stats: Option<Vec<Arc<Mutex<NetStats>>>>,
}

/// Keyless: its generators count into shared records.
impl Keyed for Meshes {}

impl Component for Meshes {
    fn build(&self, c: &mut Ctx) {
        for (k, &depth) in self.depths.iter().enumerate() {
            let net =
                c.instantiate(&format!("net{k}"), &*network(NetLevel::Rtl, NROUTERS, 32, depth));
            let Some(stats) = &self.stats else { continue };
            for i in 0..NROUTERS {
                let gen = TrafficGen::new(i, NROUTERS, 32, 600, 3 + i as u64, stats[k].clone());
                let g = c.instantiate(&format!("gen{k}_{i}"), &gen);
                c.connect_valrdy(
                    c.out_valrdy_of(&g, "out"),
                    c.in_valrdy_of(&net, &format!("in__{i}")),
                );
                c.connect_valrdy(
                    c.out_valrdy_of(&net, &format!("out_{i}")),
                    c.in_valrdy_of(&g, "in_"),
                );
            }
        }
    }
}

/// Per mesh, its delivery counters every 50 cycles over 1 000 cycles.
fn trace(depths: &[usize]) -> Vec<Vec<(u64, u64, u64)>> {
    let stats: Vec<_> = depths.iter().map(|_| Arc::new(Mutex::new(NetStats::default()))).collect();
    let top = Meshes { depths: depths.to_vec(), stats: Some(stats.clone()) };
    let mut sim = Sim::build(&top, Engine::SpecializedOpt).unwrap();
    sim.reset();
    let mut out = vec![Vec::new(); depths.len()];
    for _ in 0..20 {
        sim.run(50);
        for (trace, stats) in out.iter_mut().zip(&stats) {
            let s = stats.lock().unwrap();
            trace.push((s.injected, s.received, s.total_latency));
        }
    }
    out
}

#[test]
fn meshes_of_different_depth_keep_distinct_routers() {
    let design = mtl_core::elaborate(&Meshes { depths: vec![2, 4], stats: None }).unwrap();
    let router = |k: usize| {
        let net = design.module(design.top()).children[k];
        design.module(design.module(net).children[0])
    };
    assert_eq!(
        (router(0).component.as_str(), router(1).component.as_str()),
        ("RouterRTL", "RouterRTL")
    );
    assert_ne!(router(0).key, router(1).key, "the depth is in the router's key");
    let verilog = mtl_translate::translate(&design).unwrap();
    assert!(verilog.contains("module RouterRTL_1 ("), "depth-2 router emitted");
    assert!(verilog.contains("module RouterRTL_2 ("), "depth-4 router emitted");
    // The coordinates are tied ports, so the 16 routers of a mesh are one
    // module per buffer depth.
    assert_eq!(verilog.matches("module RouterRTL_").count(), 2, "one router module per depth");

    // Each mesh of the pair simulates cycle-exactly like itself alone,
    // and the two depths behave differently (so the check has teeth).
    let pair = trace(&[2, 4]);
    let alone = [trace(&[2]).remove(0), trace(&[4]).remove(0)];
    assert_eq!(pair[0], alone[0], "depth-2 mesh in the pair");
    assert_eq!(pair[1], alone[1], "depth-4 mesh in the pair");
    assert_ne!(alone[0], alone[1], "depth changes the traffic");
}
