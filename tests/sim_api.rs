//! Simulation-tool API behavior: VCD output, memory backdoors, poke
//! validation, and overheads accounting.

use rustmtl::core::{Component, Ctx, Expr};
use rustmtl::prelude::*;
use rustmtl::sim::{Engine, Sim, VcdWriter};
use rustmtl::stdlib::{Counter, NormalQueue, Register};

#[test]
fn vcd_contains_header_scopes_and_changes() {
    let mut sim = Sim::build(&Counter::new(4), Engine::SpecializedOpt).unwrap();
    sim.reset();
    sim.poke_port("en", b(1, 1));
    sim.poke_port("clear", b(1, 0));
    let mut buf = Vec::new();
    {
        let mut vcd = VcdWriter::new(&mut buf, &sim).unwrap();
        for _ in 0..5 {
            sim.cycle();
            vcd.sample(&sim).unwrap();
        }
    }
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("$scope module top $end"));
    assert!(text.contains("$var wire 4"));
    assert!(text.contains("$enddefinitions $end"));
    // Five timestamps ('#' may also appear as a VCD identifier code, so
    // count only timestamp lines) and at least one value change.
    let timestamps = text.lines().filter(|l| l.starts_with('#')).count();
    assert_eq!(timestamps, 5);
    assert!(text.contains("b1 ") || text.contains("b01 ") || text.contains("b10 "));
}

#[test]
#[should_panic(expected = "not a top-level input port")]
fn poking_an_output_port_panics() {
    let mut sim = Sim::build(&Register::new(8), Engine::SpecializedOpt).unwrap();
    sim.poke_port("out", b(8, 1));
}

#[test]
#[should_panic(expected = "width mismatch")]
fn poking_with_wrong_width_panics() {
    let mut sim = Sim::build(&Register::new(8), Engine::SpecializedOpt).unwrap();
    sim.poke_port("in_", b(4, 1));
}

#[test]
#[should_panic(expected = "no top-level port")]
fn unknown_port_lists_alternatives() {
    let sim = Sim::build(&Register::new(8), Engine::SpecializedOpt).unwrap();
    let _ = sim.peek_port("nonexistent");
}

#[test]
fn mem_backdoor_round_trips_on_every_engine() {
    for engine in Engine::ALL {
        let mut sim = Sim::build(&NormalQueue::new(8, 4), engine).unwrap();
        let mem = sim.find_mem("storage");
        sim.poke_mem(mem, 2, b(8, 0xAB));
        assert_eq!(sim.peek_mem(mem, 2), b(8, 0xAB), "{engine}");
        assert_eq!(sim.peek_mem(mem, 1), b(8, 0), "{engine}");
    }
}

#[test]
fn overheads_are_recorded_per_phase() {
    let sim = Sim::build(&NormalQueue::new(32, 8), Engine::SpecializedOpt).unwrap();
    let o = sim.overheads();
    // Elaboration and schedule construction always happen; the tape
    // engine must also record cgen (it compiled at least two blocks).
    assert!(o.total().as_nanos() > 0);
    let interp = Sim::build(&NormalQueue::new(32, 8), Engine::Interpreted).unwrap();
    assert_eq!(interp.overheads().cgen.as_nanos(), 0, "interpreted engines never codegen");
}

#[test]
fn eval_settles_combinational_logic_without_clocking() {
    #[derive(Hash)]
    struct TwoStage;
    impl Component for TwoStage {
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let t = c.wire("t", 8);
            let o = c.out_port("o", 8);
            c.comb("s1", |b| b.assign(t, a + Expr::k(8, 1)));
            c.comb("s2", |b| b.assign(o, t.ex().sll(Expr::k(2, 1))));
        }
    }
    for engine in Engine::ALL {
        let mut sim = Sim::build(&TwoStage, engine).unwrap();
        sim.poke_port("a", b(8, 5));
        sim.eval();
        assert_eq!(sim.peek_port("o"), b(8, 12), "{engine}");
        assert_eq!(sim.cycle_count(), 0, "{engine}: eval must not clock");
    }
}

#[test]
fn run_advances_exactly_n_cycles() {
    let mut sim = Sim::build(&Counter::new(8), Engine::SpecializedOpt).unwrap();
    sim.reset();
    sim.poke_port("en", b(1, 1));
    sim.poke_port("clear", b(1, 0));
    let before = sim.cycle_count();
    sim.run(17);
    assert_eq!(sim.cycle_count() - before, 17);
    assert_eq!(sim.peek_port("count"), b(8, 17));
}

#[test]
fn line_trace_renders_named_signals() {
    let mut sim = Sim::build(&Counter::new(8), Engine::SpecializedOpt).unwrap();
    sim.reset();
    sim.poke_port("en", b(1, 1));
    sim.poke_port("clear", b(1, 0));
    sim.run(3);
    let count = sim.design().top_port("count");
    let line = sim.line_trace(&[("count", count)]);
    assert!(line.contains("cyc"), "{line}");
    assert!(line.contains("count=3"), "{line}");
}

#[test]
fn find_signal_locates_internal_state() {
    let sim = Sim::build(&NormalQueue::new(8, 4), Engine::SpecializedOpt).unwrap();
    let cnt = sim.find_signal("top.count");
    assert_eq!(sim.design().signal(cnt).width, 3);
}

#[test]
fn find_signal_matches_only_on_path_component_boundaries() {
    #[derive(Hash)]
    struct SuffixTrap;
    impl Component for SuffixTrap {
        fn build(&self, c: &mut Ctx) {
            let pc = c.out_port("pc", 8);
            let xpc = c.in_port("xpc", 8);
            c.comb("copy", |b| b.assign(pc, xpc));
        }
    }
    let sim = Sim::build(&SuffixTrap, Engine::SpecializedOpt).unwrap();
    // `pc` must find top.pc, never top.xpc (the old ends_with bug).
    let sig = sim.find_signal("pc");
    assert_eq!(sim.design().signal_path(sig), "top.pc");
}

#[test]
#[should_panic(expected = "ambiguous")]
fn find_signal_panics_listing_candidates_on_ambiguity() {
    #[derive(Hash)]
    struct TwoRegs;
    impl Component for TwoRegs {
        fn build(&self, c: &mut Ctx) {
            let i = c.in_port("i", 8);
            let a = c.out_port("a", 8);
            let b_ = c.out_port("b", 8);
            let left = c.instantiate("left", &Register::new(8));
            let right = c.instantiate("right", &Register::new(8));
            c.connect(i, c.port_of(&left, "in_"));
            c.connect(c.port_of(&left, "out"), a);
            c.connect(i, c.port_of(&right, "in_"));
            c.connect(c.port_of(&right, "out"), b_);
        }
    }
    let sim = Sim::build(&TwoRegs, Engine::SpecializedOpt).unwrap();
    // Both registers have an `out` on different nets: must panic.
    let _ = sim.find_signal("out");
}

#[test]
fn find_signal_tolerates_aliases_of_one_net() {
    // A child port connected straight to a parent port puts two signal
    // paths on one net; resolving either is unambiguous state.
    let sim = Sim::build(&Register::new(8), Engine::SpecializedOpt).unwrap();
    let sig = sim.find_signal("out");
    assert_eq!(sim.design().signal(sig).width, 8);
}

#[test]
#[should_panic(expected = "out of range")]
fn peek_mem_out_of_range_panics_with_bounds() {
    let sim = Sim::build(&NormalQueue::new(8, 4), Engine::SpecializedOpt).unwrap();
    let mem = sim.find_mem("storage");
    let _ = sim.peek_mem(mem, 4); // 4-word memory: addresses 0..=3
}

#[test]
#[should_panic(expected = "out of range")]
fn poke_mem_out_of_range_panics_with_bounds() {
    let mut sim = Sim::build(&NormalQueue::new(8, 4), Engine::SpecializedOpt).unwrap();
    let mem = sim.find_mem("storage");
    sim.poke_mem(mem, 100, b(8, 1));
}

#[test]
fn profiling_collects_counts_time_and_a_report() {
    for engine in Engine::ALL {
        let mut sim = Sim::build(&Counter::new(8), engine).unwrap();
        assert!(sim.profile().is_none(), "{engine}: no profile before enabling");
        sim.enable_profiling();
        sim.reset();
        sim.poke_port("en", b(1, 1));
        sim.poke_port("clear", b(1, 0));
        sim.run(32);
        let p = sim.profile().expect("profile collected");
        assert_eq!(p.engine, engine);
        assert_eq!(p.cycles, sim.cycle_count());
        assert!(p.total_block_runs() > 0, "{engine}");
        // The counter's seq block runs once per observed clock edge
        // (reset contributes 2, the run 32).
        let seq_runs: u64 = sim
            .design()
            .blocks()
            .iter()
            .zip(&p.block_runs)
            .filter(|(info, _)| info.kind == rustmtl::core::BlockKind::Seq)
            .map(|(_, &runs)| runs)
            .sum();
        assert_eq!(seq_runs, 34, "{engine}");
        assert!(p.block_nanos.iter().sum::<u64>() > 0, "{engine}: wall time attributed");
        // Activity rollups ride along (count changes every cycle).
        assert!(p.net_activity.iter().sum::<u64>() > 0, "{engine}");
        let report = p.report(5);
        assert!(report.contains("cycles"), "{engine}:\n{report}");
        assert!(report.contains("hot blocks"), "{engine}:\n{report}");
    }
}

#[test]
fn activity_counts_counter_bit_toggles() {
    // An n-bit binary counter running for 2^k cycles toggles bit 0 every
    // cycle, bit 1 every other cycle, ... — total toggles ~ 2N.
    for engine in Engine::ALL {
        let mut sim = Sim::build(&Counter::new(8), engine).unwrap();
        sim.reset();
        sim.poke_port("en", b(1, 1));
        sim.poke_port("clear", b(1, 0));
        sim.enable_activity();
        sim.run(64);
        let count_sig = sim.design().top_port("count");
        let toggles = sim.activity_of(count_sig);
        // 64 increments: bit0=64, bit1=32, bit2=16 ... = 127 toggles.
        assert_eq!(toggles, 127, "{engine}");
    }
}

#[test]
fn dynamic_energy_scales_with_activity() {
    let design1 = rustmtl::core::elaborate(&Counter::new(8)).unwrap();
    let mut idle = Sim::new(design1, Engine::SpecializedOpt);
    idle.reset();
    idle.poke_port("en", b(1, 0));
    idle.poke_port("clear", b(1, 0));
    idle.enable_activity();
    idle.run(64);

    let design2 = rustmtl::core::elaborate(&Counter::new(8)).unwrap();
    let mut busy = Sim::new(design2, Engine::SpecializedOpt);
    busy.reset();
    busy.poke_port("en", b(1, 1));
    busy.poke_port("clear", b(1, 0));
    busy.enable_activity();
    busy.run(64);

    let tech = rustmtl::eda::TechModel::default();
    let e_idle = rustmtl::eda::dynamic_energy(idle.design(), idle.net_activity(), &tech);
    let e_busy = rustmtl::eda::dynamic_energy(busy.design(), busy.net_activity(), &tech);
    assert_eq!(e_idle, 0.0, "a gated counter burns no dynamic energy");
    assert!(e_busy > 0.0);
}

/// `Display` and `FromStr` read one name table: every engine (the
/// opt-in `SpecializedBatch`, absent from `Engine::ALL`, included) parses
/// back from its printed name, and nothing else parses.
#[test]
fn engine_names_round_trip() {
    let engines = [
        Engine::Interpreted,
        Engine::InterpretedOpt,
        Engine::Specialized,
        Engine::SpecializedOpt,
        Engine::SpecializedPar,
        Engine::SpecializedBatch,
    ];
    for engine in engines {
        assert_eq!(engine.to_string().parse::<Engine>(), Ok(engine));
    }
    assert_eq!("Specialized".parse::<Engine>(), Err("unknown engine \"Specialized\"".to_string()));
}

/// The backdoors and the misuse path the tape engines share one
/// implementation of (`mtl-sim`'s `state.rs`) — `poke`, `poke_mem`, the
/// injection `force`, a native's view — each followed by what only the
/// engine does with it: every tape engine must leave every net and memory
/// word as the interpreter does.
#[test]
fn backdoors_and_native_misuse_agree_net_for_net() {
    use rustmtl::sim::{InjectKind, Injection, SimConfig};

    #[derive(Hash)]
    struct Backdoors;
    impl Component for Backdoors {
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let x = c.in_port("x", 8);
            let y = c.out_port("y", 8);
            let r = c.wire("r", 8);
            let q = c.out_port("q", 8);
            let m = c.mem("m", 4, 8);
            let rd = c.out_port("rd", 8);
            let t = c.wire("t", 8);
            let u = c.out_port("u", 8);
            c.comb("read_x", |b| b.assign(y, x + a));
            c.seq("count", |b| b.assign(r, r + a));
            c.comb("tap", |b| b.assign(q, r.ex()));
            // A memory with a writer block, read back combinationally.
            c.seq("store", |b| b.mem_write(m, r.slice(0, 2), r.ex()));
            c.comb("load", |b| b.assign(rd, m.read(a.slice(0, 2))));
            // A sequential native that writes combinational-style — and
            // the same value to the shadow, so the commit sees no change
            // and only the engine's own tracking re-runs `after`.
            c.tick_cl("misuse", &[r], &[t], move |v| {
                let r = v.read(r.id());
                v.write(t.id(), r);
                v.write_next(t.id(), r);
            });
            c.comb("after", |b| b.assign(u, t + Expr::k(8, 1)));
        }
    }

    let configs = [
        (Engine::InterpretedOpt, None),
        (Engine::Specialized, None),
        (Engine::SpecializedOpt, None),
        (Engine::SpecializedPar, Some(1)),
        (Engine::SpecializedPar, Some(2)),
    ];
    let trace = |(engine, threads): (Engine, Option<usize>)| {
        let cfg = SimConfig { threads, ..Default::default() };
        let mut sim = Sim::build_with_config(&Backdoors, engine, &cfg).expect("elaborates");
        sim.reset();
        let mem = sim.find_mem("m");
        let snapshot = |sim: &Sim| -> Vec<Bits> {
            let nets = (0..sim.design().signals().len())
                .map(|s| sim.peek(rustmtl::core::SignalId::from_index(s)));
            nets.chain((0..4).map(|addr| sim.peek_mem(mem, addr))).collect()
        };
        let mut steps = Vec::new();
        // Poke what comb logic reads, then settle without clocking. (A
        // top-level input that a block also drives does not elaborate.)
        sim.poke_port("a", b(8, 3));
        sim.poke_port("x", b(8, 0x55));
        sim.eval();
        steps.push(("poke, eval", snapshot(&sim)));
        // Poke a word of a memory that has a writer block, then clock.
        sim.poke_mem(mem, 2, b(8, 0xEE));
        sim.poke_mem(mem, 3, b(8, 0x77));
        sim.cycle();
        steps.push(("poke_mem, cycle", snapshot(&sim)));
        // Flip register bits for one cycle: forced settle, edge, wash.
        let r = sim.find_signal("r");
        let now = sim.cycle_count();
        sim.inject(Injection {
            sig: r,
            mask: 0x81,
            kind: InjectKind::Flip,
            cycle: now,
            duration: 1,
        });
        sim.cycle();
        steps.push(("inject, cycle", snapshot(&sim)));
        for _ in 0..3 {
            sim.cycle();
            steps.push(("cycle", snapshot(&sim)));
        }
        steps
    };
    let want = trace(configs[0]);
    assert!(want.windows(2).all(|w| w[0].1 != w[1].1), "every step moves something");
    for config in &configs[1..] {
        for (got, want) in trace(*config).iter().zip(&want) {
            assert_eq!(got, want, "{config:?} after `{}`", want.0);
        }
    }
}

/// A child with two tied inputs, an 8-bit `k` and a 100-bit `w`, counting
/// `acc += k` and exposing both.
#[derive(Hash)]
struct TiedLeaf;

impl Component for TiedLeaf {
    fn build(&self, c: &mut Ctx) {
        let (k, w) = (c.in_port("k", 8), c.in_port("w", 100));
        let (acc, wide) = (c.out_port("acc", 8), c.out_port("wide", 100));
        let reset = c.reset();
        c.seq("count", |b| b.assign(acc, reset.mux(Expr::k(8, 0), acc + k)));
        c.comb("pass", |b| b.assign(wide, w));
    }
}

/// Two [`TiedLeaf`]s tied apart, their outputs at the top.
#[derive(Hash)]
struct TiedPair;

const TIES: [(u128, u128); 2] = [(3, 1 << 99 | 0xABC), (200, 7)];

impl Component for TiedPair {
    fn build(&self, c: &mut Ctx) {
        for (i, (k, w)) in TIES.into_iter().enumerate() {
            let leaf = c.instantiate(&format!("leaf{i}"), &TiedLeaf);
            c.tie(c.port_of(&leaf, "k"), k);
            c.tie(c.port_of(&leaf, "w"), w);
            for port in ["acc", "wide"] {
                let out = c.port_of(&leaf, port);
                let top = c.out_port(&format!("{port}{i}"), out.width());
                c.connect(out, top);
            }
        }
    }
}

/// Every engine configuration drives the tied nets from the moment it is
/// built, holds them through `reset`, and computes from them.
#[test]
fn every_engine_holds_tied_values_from_build_through_reset() {
    use rustmtl::sim::SimConfig;
    let configs = Engine::ALL.into_iter().map(|e| (e, SimConfig::default())).chain([
        (Engine::SpecializedPar, SimConfig { threads: Some(2), ..SimConfig::default() }),
        (Engine::SpecializedBatch, SimConfig { lanes: Some(4), ..SimConfig::default() }),
    ]);
    for (engine, cfg) in configs {
        let mut sim = Sim::build_with_config(&TiedPair, engine, &cfg).unwrap();
        let ties = |sim: &Sim| -> Vec<(u128, u128)> {
            let lanes = 0..sim.lane_count();
            let leaf = |i: usize, port: &str| sim.find_signal(&format!("leaf{i}.{port}"));
            lanes
                .flat_map(|lane| {
                    (0..2).map(move |i| {
                        let peek = |port| sim.peek_lane(lane, leaf(i, port)).as_u128();
                        (peek("k"), peek("w"))
                    })
                })
                .collect()
        };
        let want: Vec<_> = (0..sim.lane_count()).flat_map(|_| TIES).collect();
        assert_eq!(ties(&sim), want, "{engine}: right after build");
        sim.reset();
        assert_eq!(ties(&sim), want, "{engine}: after reset");
        sim.run(5);
        assert_eq!(ties(&sim), want, "{engine}: after five cycles");
        assert_eq!(sim.peek_port("acc0").as_u128(), 15, "{engine}");
        assert_eq!(sim.peek_port("acc1").as_u128(), 1000 % 256, "{engine}");
        assert_eq!(sim.peek_port("wide0").as_u128(), TIES[0].1, "{engine}");
    }
}
