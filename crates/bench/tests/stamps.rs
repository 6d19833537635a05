//! Ties keep per-instance constants out of component fields, so every
//! RTL router, memory adapter and traffic generator of a design is one
//! key: built at its first instance and stamped at every other.

use mtl_bench::{build_sweep_designs, design_registry};
use mtl_core::{BlockId, Component, Design, ModuleId};
use mtl_net::MeshTrafficRtlHarness;

/// The components whose per-instance constants are tied ports.
const TIED: [&str; 4] = ["RouterRTL", "MemNetAdapter", "SocTrafficGen", "RtlTrafficGen"];

/// Per key of a tied component in `design`, its label, how many instances
/// it has and how many of them its `build` made: the first one's blocks
/// have no source, and every other instance's blocks each name one.
fn built_instances(design: &Design) -> Vec<(String, u32, usize, usize)> {
    let mut seen: Vec<(String, u32, usize, usize)> = Vec::new();
    for (m, info) in design.modules().iter().enumerate() {
        if !TIED.contains(&info.component.as_str()) {
            continue;
        }
        let key = info.key.unwrap_or_else(|| panic!("{} is keyed", info.component));
        let blocks: Vec<BlockId> = (0..design.blocks().len())
            .map(BlockId::from_index)
            .filter(|&b| design.block(b).module == ModuleId::from_index(m))
            .collect();
        assert!(!blocks.is_empty(), "{} has blocks of its own", info.component);
        let stamped = blocks.iter().all(|&b| design.block_source(b).is_some());
        let built = blocks.iter().all(|&b| design.block_source(b).is_none());
        assert!(stamped || built, "{}: an instance is built or stamped whole", info.component);
        match seen.iter_mut().find(|(_, k, ..)| *k == key) {
            Some((_, _, instances, builds)) => {
                *instances += 1;
                *builds += usize::from(built);
            }
            None => seen.push((info.component.clone(), key, 1, usize::from(built))),
        }
    }
    seen
}

/// Every tied component of `top` is one key per kind, with more than one
/// instance, built once.
fn check(name: &str, top: &dyn Component) {
    let design = mtl_core::elaborate(top).unwrap_or_else(|e| panic!("{name}: {e}"));
    let census = built_instances(&design);
    assert!(!census.is_empty(), "{name} holds a tied component");
    for kind in TIED {
        let keys = census.iter().filter(|(c, ..)| c == kind).count();
        assert!(keys <= 1, "{name}: {keys} keys of {kind}, one expected");
    }
    for (component, _, instances, builds) in census {
        assert!(instances > 1, "{name}: {component} has {instances} instance");
        assert_eq!(builds, 1, "{name}: {component} is built once, of {instances} instances");
    }
}

#[test]
fn routers_adapters_and_generators_after_the_first_are_stamps() {
    check("MeshTrafficRtlHarness_16", &MeshTrafficRtlHarness::new(16, 200, 4));
    let registry = design_registry();
    for want in ["net/MeshTrafficHarness_16_rtl", "soc/Soc_4t_syn_rtl", "soc/Soc_4t_cmp_rtl"] {
        let (name, top) = registry.iter().find(|(name, _)| name == want).expect(want);
        check(name, top.as_ref());
    }
}

#[test]
fn build_sweep_builds_each_tied_component_once() {
    for (name, top) in build_sweep_designs(4) {
        if name != "build_sweep/tile" {
            check(&name, top.as_ref());
        }
    }
    // What `shape::assign` walks is what elaboration built: in the
    // synthetic SoC 256, a few dozen blocks of its 11 521.
    let (_, soc) = build_sweep_designs(4).into_iter().nth(2).expect("the synthetic SoC 256");
    let design = mtl_core::elaborate(soc.as_ref()).unwrap();
    let built = (0..design.blocks().len())
        .map(BlockId::from_index)
        .filter(|&b| design.block_shape(b).is_some() && design.block_source(b).is_none())
        .count();
    assert!(built < 50, "{built} IR blocks built, not stamped");
}
