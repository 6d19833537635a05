//! Multi-tile SoC composition: the vertical-integration capstone.
//!
//! `mtl-soc` composes the repo's processor+accelerator tiles
//! (`mtl-accel`), caches and test memories (`mtl-proc`), and mesh
//! networks (`mtl-net`) into one parameterized system — the composition
//! step the source paper argues a unified framework must make routine.
//! A [`SocConfig`] picks the tile count (a power of four: 4, 16, 64,
//! 256 mesh routers), the per-subsystem abstraction levels (tile
//! ⟨P, C, A⟩ tuple and network FL/CL/RTL), and one of two workload
//! personalities:
//!
//! * **Synthetic** ([`SocWorkload::Synthetic`]): every mesh terminal is
//!   an IR-only [`SocTrafficGen`] injecting a bounded, checksum-verified
//!   packet stream (uniform / hotspot / tornado / bursty / trace). The
//!   composed design contains *no native blocks* at CL/RTL network
//!   levels, so it runs on every engine — including 64-lane
//!   `SpecializedBatch` — and is fault-injectable with zero hooks.
//! * **Compute** ([`SocWorkload::Compute`]): every terminal is a full
//!   proc+cache+xcel tile whose data memory is a slice of a global
//!   word-interleaved address space; a per-tile [`MemNetAdapter`] routes
//!   each request to its home tile over the mesh. Tiles run assembled
//!   XOR-reduction programs with host-predictable results.
//!
//! Both personalities expose drain/completion at top-level output ports
//! (`injected`/`delivered`/`checksum`, or `halted`/`instret_total`), so
//! runners never reach into the hierarchy.

pub mod adapter;
pub mod traffic;
pub mod workload;

pub use adapter::MemNetAdapter;
pub use traffic::{golden_checksum, terminal_seed, trace_rom, SocTraffic, SocTrafficGen};
pub use workload::{data_value, ComputeWorkload};

use mtl_accel::{Tile, TileConfig, XcelLevel};
use mtl_core::{Component, Ctx, Keyed};
use mtl_net::{network, NetLevel};
use mtl_proc::{CacheLevel, ProcLevel, TestMemory};
use mtl_sim::{Engine, Sim};

/// The workload personality of a SoC (see the crate docs).
#[derive(Debug, Clone, Copy)]
pub enum SocWorkload {
    /// IR traffic generators on every terminal.
    Synthetic {
        /// Traffic pattern.
        pattern: SocTraffic,
        /// Injection-attempt rate per terminal, in permille.
        injection_permille: u32,
        /// Packets injected per terminal before the workload drains.
        limit: u32,
    },
    /// Full compute tiles over a word-interleaved shared address space.
    Compute {
        /// Home-tile pattern for the shared data words.
        pattern: SocTraffic,
        /// Loads per tile.
        accesses: usize,
    },
}

/// A complete SoC parameterization.
#[derive(Debug, Clone, Copy)]
pub struct SocConfig {
    /// Tile count — a power of four (mesh side is its square root).
    pub tiles: usize,
    /// Per-tile ⟨proc, cache, xcel⟩ abstraction levels (compute only).
    pub tile: TileConfig,
    /// Network abstraction level.
    pub net: NetLevel,
    /// Workload personality.
    pub workload: SocWorkload,
    /// Workload seed.
    pub seed: u64,
}

impl SocConfig {
    /// A synthetic-traffic SoC (300‰ injection, 64 packets/terminal).
    pub fn synthetic(tiles: usize, net: NetLevel, pattern: SocTraffic) -> SocConfig {
        SocConfig {
            tiles,
            tile: TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl },
            net,
            workload: SocWorkload::Synthetic { pattern, injection_permille: 300, limit: 64 },
            seed: 0xC0DE,
        }
    }

    /// A compute SoC (8 pattern-routed loads per tile).
    pub fn compute(
        tiles: usize,
        tile: TileConfig,
        net: NetLevel,
        pattern: SocTraffic,
    ) -> SocConfig {
        SocConfig {
            tiles,
            tile,
            net,
            workload: SocWorkload::Compute { pattern, accesses: 8 },
            seed: 0xC0DE,
        }
    }

    /// Overrides the workload seed.
    pub fn with_seed(mut self, seed: u64) -> SocConfig {
        self.seed = seed;
        self
    }

    /// Overrides the synthetic packet budget per terminal.
    pub fn with_limit(mut self, limit: u32) -> SocConfig {
        if let SocWorkload::Synthetic { limit: l, .. } = &mut self.workload {
            *l = limit;
        }
        self
    }

    /// Overrides the synthetic injection rate (permille).
    pub fn with_injection(mut self, permille: u32) -> SocConfig {
        if let SocWorkload::Synthetic { injection_permille, .. } = &mut self.workload {
            *injection_permille = permille;
        }
        self
    }

    /// Overrides the compute access count per tile.
    pub fn with_accesses(mut self, n: usize) -> SocConfig {
        if let SocWorkload::Compute { accesses, .. } = &mut self.workload {
            *accesses = n;
        }
        self
    }
}

/// An elaboratable SoC. For compute workloads, construction pre-loads
/// programs and data into the per-tile backing stores, so the component
/// is ready to simulate immediately after `Sim::build` + reset.
///
/// One `Soc` owns its memory backing stores: build several `Sim`s from
/// the *same* `Soc` only for sequential or lockstep (cycle-exact
/// comparison) runs; build a fresh `Soc` per independent run.
pub struct Soc {
    /// The parameterization this SoC was built from.
    pub config: SocConfig,
    imems: Vec<TestMemory>,
    dmems: Vec<TestMemory>,
}

impl Soc {
    /// Creates (and for compute workloads, initializes) a SoC.
    pub fn new(config: SocConfig) -> Soc {
        let n = config.tiles;
        let side = (n as f64).sqrt() as usize;
        assert!(side * side == n && side.is_power_of_two(), "tile count must be a power of four");
        let (imems, dmems) = match config.workload {
            SocWorkload::Compute { pattern, accesses } => {
                let wl = ComputeWorkload::new(pattern, accesses, config.seed);
                let imems: Vec<TestMemory> =
                    (0..n).map(|_| TestMemory::new(1, workload::IMEM_WORDS, 1)).collect();
                let dmems: Vec<TestMemory> =
                    (0..n).map(|_| TestMemory::new(2, workload::MEM_WORDS, 1)).collect();
                for (i, imem) in imems.iter().enumerate() {
                    let prog = wl.tile_program(i, n);
                    imem.handle().lock().unwrap()[..prog.len()].copy_from_slice(&prog);
                }
                // Word w of the global space lives on tile w mod n, at
                // local index w (TestMemory wraps addresses mod words).
                for slot in 0..workload::DATA_SLOTS {
                    for d in 0..n as u32 {
                        let w = workload::DATA_BASE_W + slot * n as u32 + d;
                        dmems[d as usize].handle().lock().unwrap()[w as usize] =
                            workload::data_value(w);
                    }
                }
                (imems, dmems)
            }
            SocWorkload::Synthetic { .. } => (Vec::new(), Vec::new()),
        };
        Soc { config, imems, dmems }
    }

    /// The compute workload description, if this is a compute SoC.
    pub fn compute_workload(&self) -> Option<ComputeWorkload> {
        match self.config.workload {
            SocWorkload::Compute { pattern, accesses } => {
                Some(ComputeWorkload::new(pattern, accesses, self.config.seed))
            }
            SocWorkload::Synthetic { .. } => None,
        }
    }

    /// The checksum a drained synthetic run must produce.
    pub fn golden_checksum(&self) -> Option<u32> {
        match self.config.workload {
            SocWorkload::Synthetic { pattern, limit, .. } => {
                Some(traffic::golden_checksum(self.config.tiles, self.config.seed, limit, pattern))
            }
            SocWorkload::Compute { .. } => None,
        }
    }

    /// The value each tile must store to its result word.
    pub fn expected_results(&self) -> Vec<u32> {
        let wl = self.compute_workload().expect("compute workload");
        (0..self.config.tiles).map(|i| wl.expected_result(i, self.config.tiles)).collect()
    }

    /// Reads tile results back through the memory backdoors.
    pub fn read_results(&self) -> Vec<u32> {
        (0..self.config.tiles)
            .map(|i| {
                let w = workload::ComputeWorkload::result_word(i) as usize;
                self.dmems[i].handle().lock().unwrap()[w]
            })
            .collect()
    }
}

/// Keyless: a compute SoC's memories hold shared handles.
impl Keyed for Soc {}

impl Component for Soc {
    fn build(&self, c: &mut Ctx) {
        let n = self.config.tiles;
        match self.config.workload {
            SocWorkload::Synthetic { pattern, injection_permille, limit } => {
                let net = network(self.config.net, n, 32, 2);
                let net_inst = c.instantiate("net", &*net);
                let checksum = c.out_port("checksum", 32);
                let injected = c.out_port("injected", 32);
                let delivered = c.out_port("delivered", 32);
                let (mut sums, mut sents, mut recvs) = (Vec::new(), Vec::new(), Vec::new());
                let gen = SocTrafficGen::new(n, injection_permille, limit, pattern);
                for i in 0..n {
                    let gen_inst = c.instantiate(&format!("gen_{i}"), &gen);
                    for (port, value) in gen.terminal_ties(i, self.config.seed) {
                        c.tie(c.port_of(&gen_inst, &port), value);
                    }
                    c.connect_valrdy(
                        c.out_valrdy_of(&gen_inst, "out"),
                        c.in_valrdy_of(&net_inst, &format!("in__{i}")),
                    );
                    c.connect_valrdy(
                        c.out_valrdy_of(&net_inst, &format!("out_{i}")),
                        c.in_valrdy_of(&gen_inst, "in_"),
                    );
                    sums.push(c.port_of(&gen_inst, "sum"));
                    sents.push(c.port_of(&gen_inst, "sent"));
                    recvs.push(c.port_of(&gen_inst, "recv"));
                }
                c.comb("totals", |b| {
                    // Wrapping-add fold: keeps the checksum sensitive to
                    // the packet→receiver partition (see `golden_checksum`).
                    let fold = sums.iter().map(|s| s.ex()).reduce(|a, b| a + b).expect("tiles");
                    b.assign(checksum, fold);
                    let inj =
                        sents.iter().map(|s| s.ex().zext(32)).reduce(|a, b| a + b).expect("tiles");
                    b.assign(injected, inj);
                    let del =
                        recvs.iter().map(|s| s.ex().zext(32)).reduce(|a, b| a + b).expect("tiles");
                    b.assign(delivered, del);
                });
            }
            SocWorkload::Compute { .. } => {
                let rw = mtl_proc::mem_req_layout().width();
                // The FL network backpressures input `i` on terminal
                // `i`'s *own* output FIFO; a home tile must emit its
                // memory response through the same terminal it receives
                // requests on, so a default-depth FIFO full of requests
                // deadlocks the service loop. Inbound traffic per tile
                // is bounded (n-1 single-outstanding requests plus one
                // response), so a 2n-entry FIFO can never fill.
                let net: Box<dyn Component> = match self.config.net {
                    NetLevel::Fl => Box::new(mtl_net::NetworkFL::new(n, rw, 2 * n)),
                    level => network(level, n, rw, 2),
                };
                let net_inst = c.instantiate("net", &*net);
                let halted = c.out_port("halted", 1);
                let instret_total = c.out_port("instret_total", 32);

                let (mut halteds, mut instrets) = (Vec::new(), Vec::new());
                for i in 0..n {
                    let tile_inst =
                        c.instantiate(&format!("tile_{i}"), &Tile::new(self.config.tile));
                    let imem_inst = c.instantiate(&format!("imem_{i}"), &self.imems[i]);
                    let dmem_inst = c.instantiate(&format!("dmem_{i}"), &self.dmems[i]);
                    let adap_inst = c.instantiate(&format!("adap_{i}"), &MemNetAdapter::new(n));
                    c.tie(c.port_of(&adap_inst, "id"), i as u128);

                    c.connect_reqresp(
                        c.parent_reqresp_of(&tile_inst, "imem"),
                        c.child_reqresp_of(&imem_inst, "port0"),
                    );
                    c.connect_reqresp(
                        c.parent_reqresp_of(&tile_inst, "dmem"),
                        c.child_reqresp_of(&adap_inst, "cpu"),
                    );
                    c.connect_reqresp(
                        c.parent_reqresp_of(&adap_inst, "lmem"),
                        c.child_reqresp_of(&dmem_inst, "port0"),
                    );
                    c.connect_reqresp(
                        c.parent_reqresp_of(&adap_inst, "rmem"),
                        c.child_reqresp_of(&dmem_inst, "port1"),
                    );
                    c.connect_valrdy(
                        c.out_valrdy_of(&adap_inst, "net_out"),
                        c.in_valrdy_of(&net_inst, &format!("in__{i}")),
                    );
                    c.connect_valrdy(
                        c.out_valrdy_of(&net_inst, &format!("out_{i}")),
                        c.in_valrdy_of(&adap_inst, "net_in"),
                    );

                    // Manager channels are tied off: programs talk through
                    // memory, never through mngr2proc/proc2mngr.
                    let m2p = c.in_valrdy_of(&tile_inst, "mngr2proc");
                    c.tie(m2p.msg, 0);
                    c.tie(m2p.val, 0);
                    c.tie(c.out_valrdy_of(&tile_inst, "proc2mngr").rdy, 1);

                    halteds.push(c.port_of(&tile_inst, "halted"));
                    instrets.push(c.port_of(&tile_inst, "instret"));
                }
                c.comb("done", |b| {
                    let all = halteds.iter().map(|h| h.ex()).reduce(|a, b| a & b).expect("tiles");
                    b.assign(halted, all);
                    let ret = instrets.iter().map(|r| r.ex()).reduce(|a, b| a + b).expect("tiles");
                    b.assign(instret_total, ret);
                });
            }
        }
    }
}

/// Outcome of a synthetic traffic run.
#[derive(Debug, Clone, Copy)]
pub struct TrafficOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    /// Whether every injected packet was delivered before the budget ran out.
    pub drained: bool,
    /// Final delivery checksum (compare against [`Soc::golden_checksum`]).
    pub checksum: u32,
    /// Packets accepted for injection, across all terminals.
    pub injected: u64,
    /// Packets delivered, across all terminals.
    pub delivered: u64,
}

/// Runs a synthetic SoC until the workload drains (or `max_cycles`).
pub fn run_soc_traffic(soc: &Soc, engine: Engine, max_cycles: u64) -> TrafficOutcome {
    let sim = Sim::build(soc, engine).expect("soc elaborates");
    run_soc_traffic_on(soc, sim, max_cycles)
}

/// [`run_soc_traffic`] on a caller-built simulator — for shared-cache
/// (`Sim::build_shared`) or custom-config (`Sim::build_with_config`)
/// builds.
pub fn run_soc_traffic_on(soc: &Soc, mut sim: Sim, max_cycles: u64) -> TrafficOutcome {
    let SocWorkload::Synthetic { limit, .. } = soc.config.workload else {
        panic!("run_soc_traffic requires a synthetic workload");
    };
    let target = soc.config.tiles as u64 * u64::from(limit);
    sim.reset();
    let checksum = sim.design().top_port("checksum");
    let injected = sim.design().top_port("injected");
    let delivered = sim.design().top_port("delivered");
    let mut cycles = 0;
    let mut drained = false;
    while cycles < max_cycles {
        sim.run(64);
        cycles += 64;
        if sim.peek(injected).as_u64() == target && sim.peek(delivered).as_u64() == target {
            drained = true;
            break;
        }
    }
    TrafficOutcome {
        cycles,
        drained,
        checksum: sim.peek(checksum).as_u64() as u32,
        injected: sim.peek(injected).as_u64(),
        delivered: sim.peek(delivered).as_u64(),
    }
}

/// Outcome of a compute run.
#[derive(Debug, Clone)]
pub struct ComputeOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    /// Whether every tile halted before the budget ran out.
    pub halted: bool,
    /// Total instructions retired across tiles.
    pub instret: u64,
    /// Per-tile results read back through the memory backdoors.
    pub results: Vec<u32>,
}

/// Runs a compute SoC until all tiles halt (or `max_cycles`).
pub fn run_soc_compute(soc: &Soc, engine: Engine, max_cycles: u64) -> ComputeOutcome {
    let sim = Sim::build(soc, engine).expect("soc elaborates");
    run_soc_compute_on(soc, sim, max_cycles)
}

/// [`run_soc_compute`] on a caller-built simulator.
pub fn run_soc_compute_on(soc: &Soc, mut sim: Sim, max_cycles: u64) -> ComputeOutcome {
    assert!(
        matches!(soc.config.workload, SocWorkload::Compute { .. }),
        "run_soc_compute requires a compute workload"
    );
    sim.reset();
    let halted = sim.design().top_port("halted");
    let instret = sim.design().top_port("instret_total");
    let mut cycles = 0;
    let mut done = false;
    while cycles < max_cycles {
        sim.run(64);
        cycles += 64;
        if sim.peek(halted).as_u64() == 1 {
            done = true;
            break;
        }
    }
    ComputeOutcome {
        cycles,
        halted: done,
        instret: sim.peek(instret).as_u64(),
        results: soc.read_results(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_rtl_soc_drains_to_golden_checksum() {
        let soc = Soc::new(
            SocConfig::synthetic(4, NetLevel::Rtl, SocTraffic::UniformRandom).with_limit(16),
        );
        let out = run_soc_traffic(&soc, Engine::SpecializedOpt, 20_000);
        assert!(out.drained, "workload failed to drain: {out:?}");
        assert_eq!(out.checksum, soc.golden_checksum().unwrap(), "checksum mismatch: {out:?}");
    }

    #[test]
    fn synthetic_soc_is_native_free_at_rtl() {
        let soc = Soc::new(SocConfig::synthetic(4, NetLevel::Rtl, SocTraffic::Hotspot));
        let design = mtl_core::elaborate(&soc).expect("elaborates");
        assert!(
            design.blocks().iter().all(|b| matches!(b.body, mtl_core::BlockBody::Ir(_))),
            "synthetic RTL SoC must contain no native blocks"
        );
    }

    #[test]
    fn compute_soc_produces_expected_results() {
        let tile = TileConfig { proc: ProcLevel::Fl, cache: CacheLevel::Fl, xcel: XcelLevel::Fl };
        let soc = Soc::new(
            SocConfig::compute(4, tile, NetLevel::Fl, SocTraffic::UniformRandom).with_accesses(4),
        );
        let out = run_soc_compute(&soc, Engine::SpecializedOpt, 100_000);
        assert!(out.halted, "tiles failed to halt: {out:?}");
        assert_eq!(out.results, soc.expected_results(), "wrong results: {out:?}");
        assert!(out.instret > 0);
    }
}
