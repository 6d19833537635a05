//! Translate-and-reparse co-simulation: the `--test-verilog` analog.
//!
//! Each test elaborates an RTL component, emits Verilog, re-parses it, and
//! drives both the original and the reconstructed design with identical
//! stimulus, comparing outputs cycle by cycle.

use mtl_bits::{b, Bits};
use mtl_core::{elaborate, Component, Ctx};
use mtl_sim::{Engine, Sim};
use mtl_stdlib::{
    BypassQueue, Counter, IntPipelinedMultiplier, Mux, MuxReg, NormalQueue, Register, RegisterFile,
    RoundRobinArbiter,
};
use mtl_translate::{translate, VerilogLibrary};

/// Simple deterministic PRNG so stimulus is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Drives `dut` and its Verilog round-trip with random pokes on every
/// top-level input, comparing every top-level output each cycle.
fn check_round_trip(dut: &dyn Component, cycles: u64, seed: u64) {
    let design = elaborate(dut).expect("elaboration failed");
    let verilog = translate(&design).expect("translation failed");
    let lib = VerilogLibrary::parse(&verilog)
        .unwrap_or_else(|e| panic!("reparse failed: {e}\n{verilog}"));
    let top = lib.top_component();

    let mut golden = Sim::new(design, Engine::SpecializedOpt);
    let mut redesign = Sim::build(&top, Engine::SpecializedOpt)
        .unwrap_or_else(|e| panic!("re-elaboration failed: {e}"));

    // Identical port interfaces by construction.
    let in_ports: Vec<(String, u32)> = golden
        .design()
        .module(golden.design().top())
        .ports
        .iter()
        .filter(|&&p| golden.design().signal(p).kind == mtl_core::SignalKind::InPort)
        .map(|&p| {
            let s = golden.design().signal(p);
            (s.name.clone(), s.width)
        })
        .collect();
    let out_ports: Vec<String> = golden
        .design()
        .module(golden.design().top())
        .ports
        .iter()
        .filter(|&&p| golden.design().signal(p).kind == mtl_core::SignalKind::OutPort)
        .map(|&p| golden.design().signal(p).name.clone())
        .collect();

    golden.reset();
    redesign.reset();

    let mut rng = Rng(seed);
    for cycle in 0..cycles {
        for (name, width) in &in_ports {
            if name == "reset" {
                continue;
            }
            let v = Bits::new(*width, ((rng.next() as u128) << 64) | rng.next() as u128);
            golden.poke_port(name, v);
            redesign.poke_port(name, v);
        }
        golden.eval();
        redesign.eval();
        for name in &out_ports {
            assert_eq!(
                golden.peek_port(name),
                redesign.peek_port(name),
                "output `{name}` diverged at cycle {cycle} for {}",
                dut.name()
            );
        }
        golden.cycle();
        redesign.cycle();
    }
}

#[test]
fn round_trip_mux() {
    check_round_trip(&Mux::new(8, 4), 200, 1);
}

#[test]
fn round_trip_muxreg() {
    check_round_trip(&MuxReg::new(16, 4), 200, 2);
}

#[test]
fn round_trip_counter() {
    check_round_trip(&Counter::new(6), 300, 3);
}

#[test]
fn round_trip_normal_queue() {
    check_round_trip(&NormalQueue::new(12, 4), 500, 4);
}

#[test]
fn round_trip_bypass_queue() {
    check_round_trip(&BypassQueue::new(9), 500, 5);
}

#[test]
fn round_trip_arbiter() {
    check_round_trip(&RoundRobinArbiter::new(4), 300, 6);
}

#[test]
fn round_trip_register_file() {
    check_round_trip(&RegisterFile::new(16, 16), 500, 7);
}

#[test]
fn round_trip_multiplier() {
    check_round_trip(&IntPipelinedMultiplier::new(24, 3), 200, 8);
}

/// The native-free RTL mesh: 16 routers and 16 generators, each kind one
/// module whose per-instance constants are tied ports.
#[test]
fn round_trip_rtl_mesh16_harness() {
    check_round_trip(&mtl_net::MeshTrafficRtlHarness::new(16, 200, 4), 200, 9);
}

#[test]
fn round_trip_synthetic_soc4() {
    use mtl_soc::{Soc, SocConfig, SocTraffic};
    let config = SocConfig::synthetic(4, mtl_net::NetLevel::Rtl, SocTraffic::Trace);
    check_round_trip(&Soc::new(config.with_limit(16)), 300, 10);
}

#[test]
fn emitted_verilog_mentions_expected_constructs() {
    let design = elaborate(&NormalQueue::new(8, 2)).unwrap();
    let v = translate(&design).unwrap();
    assert!(v.contains("module NormalQueue ("));
    assert!(v.contains("always @(posedge clk)"));
    assert!(v.contains("always @(*)"));
    assert!(v.contains("reg [7:0] storage [0:1];"));
    assert!(v.contains("endmodule"));
}

#[test]
fn verilog_round_trip_under_reset_mid_run() {
    let dut = Counter::new(5);
    let design = elaborate(&dut).unwrap();
    let verilog = translate(&design).unwrap();
    let lib = VerilogLibrary::parse(&verilog).unwrap();
    let mut a = Sim::new(design, Engine::SpecializedOpt);
    let mut b_ = Sim::build(&lib.top_component(), Engine::SpecializedOpt).unwrap();
    for sim in [&mut a, &mut b_] {
        sim.reset();
        sim.poke_port("en", b(1, 1));
        sim.poke_port("clear", b(1, 0));
        sim.run(7);
        sim.reset();
        sim.run(3);
    }
    assert_eq!(a.peek_port("count"), b_.peek_port("count"));
    assert_eq!(a.peek_port("count"), b(5, 3));
}

/// Parses `translate(dut)` with `name` renamed in its declaration `decl`
/// alone, so that every use of it is undeclared; the error's text.
fn parse_with_renamed_declaration(dut: &dyn Component, decl: &str, name: &str) -> String {
    let verilog = translate(&elaborate(dut).unwrap()).unwrap();
    assert_eq!(verilog.matches(decl).count(), 1, "`{decl}` in:\n{verilog}");
    let renamed = verilog.replace(decl, &decl.replace(name, &format!("{name}_renamed")));
    VerilogLibrary::parse(&renamed).expect_err("a use without a declaration").to_string()
}

#[test]
fn undeclared_signal_is_a_parse_error() {
    let err = parse_with_renamed_declaration(&Counter::new(5), "output reg [4:0] count;", "count");
    assert!(err.contains("module `Counter` uses undeclared signal `count`"), "{err}");
}

#[test]
fn undeclared_memory_is_a_parse_error() {
    let queue = NormalQueue::new(8, 2);
    let err = parse_with_renamed_declaration(&queue, "reg [7:0] storage [0:1];", "storage");
    assert!(err.contains("module `NormalQueue` uses undeclared memory `storage`"), "{err}");
}

#[test]
fn untranslatable_designs_are_rejected() {
    let harness = mtl_stdlib::SourceSinkHarness::new(
        Box::new(NormalQueue::new(8, 2)),
        8,
        mtl_stdlib::counting_msgs(8, 4),
    );
    let design = elaborate(&harness).unwrap();
    let err = translate(&design).unwrap_err();
    assert!(err.to_string().contains("native blocks"));
}

/// Registers of the given widths side by side, each on its own ports.
#[derive(Hash)]
struct Registers(Vec<u32>);

impl Component for Registers {
    fn build(&self, c: &mut Ctx) {
        for (i, &nbits) in self.0.iter().enumerate() {
            let r = c.instantiate(&format!("u{i}"), &Register::new(nbits));
            let (in_, out) =
                (c.in_port(&format!("in{i}"), nbits), c.out_port(&format!("out{i}"), nbits));
            c.connect(in_, c.port_of(&r, "in_"));
            c.connect(c.port_of(&r, "out"), out);
        }
    }
}

/// Two keys of one label are two modules, numbered in emission order, and
/// a later instance of the first key instantiates the first module.
#[test]
fn keys_of_one_label_are_numbered_modules() {
    let top = Registers(vec![8, 16, 8]);
    let verilog = translate(&elaborate(&top).unwrap()).unwrap();
    let modules: Vec<_> = verilog.lines().filter(|l| l.starts_with("module ")).collect();
    assert_eq!(modules, ["module Register_1 (", "module Register_2 (", "module Registers ("]);
    for (u, module) in [(0, 1), (1, 2), (2, 1)] {
        assert!(
            verilog.contains(&format!("  Register_{module} u{u} (")),
            "u{u} is Register_{module}"
        );
    }
    check_round_trip(&top, 50, 11);
}
