//! Network conservation: every injected packet is delivered exactly once
//! (no loss, no duplication), across abstraction levels.

use std::sync::{Arc, Mutex};

use mtl_core::{Component, Ctx, Keyed};
use mtl_net::{network, NetLevel, NetStats, TrafficGen};
use mtl_sim::{Engine, Sim};

struct LimitedHarness {
    level: NetLevel,
    nrouters: usize,
    per_gen: u64,
    stats: Arc<Mutex<NetStats>>,
}

/// Keyless: its generators count into a shared record.
impl Keyed for LimitedHarness {}

impl Component for LimitedHarness {
    fn build(&self, c: &mut Ctx) {
        let net = network(self.level, self.nrouters, 32, 2);
        let net = c.instantiate("net", &*net);
        for i in 0..self.nrouters {
            let gen = TrafficGen::new(i, self.nrouters, 32, 400, 3 + i as u64, self.stats.clone())
                .with_limit(self.per_gen);
            let g = c.instantiate(&format!("gen_{i}"), &gen);
            c.connect_valrdy(c.out_valrdy_of(&g, "out"), c.in_valrdy_of(&net, &format!("in__{i}")));
            c.connect_valrdy(c.out_valrdy_of(&net, &format!("out_{i}")), c.in_valrdy_of(&g, "in_"));
        }
    }
}

fn check_conservation(level: NetLevel, nrouters: usize, per_gen: u64) {
    let stats = Arc::new(Mutex::new(NetStats::default()));
    let h = LimitedHarness { level, nrouters, per_gen, stats: stats.clone() };
    let mut sim = Sim::build(&h, Engine::SpecializedOpt).unwrap();
    sim.reset();
    // Run long enough to inject everything and drain the network.
    let expected = per_gen * nrouters as u64;
    let mut guard = 0;
    loop {
        sim.run(200);
        guard += 1;
        let st = stats.lock().unwrap();
        assert!(st.received <= st.injected, "{level}: duplicated packets");
        assert_eq!(st.misrouted, 0, "{level}: misrouted packets");
        if st.received == expected {
            break;
        }
        assert!(guard < 200, "{level}: only {}/{expected} delivered", st.received);
    }
    // Nothing extra arrives after the drain.
    sim.run(500);
    let st = stats.lock().unwrap();
    assert_eq!(st.injected, expected);
    assert_eq!(st.received, expected, "{level}: delivery count drifted after drain");
}

#[test]
fn fl_network_conserves_packets() {
    check_conservation(NetLevel::Fl, 16, 20);
}

#[test]
fn cl_mesh_conserves_packets() {
    check_conservation(NetLevel::Cl, 16, 20);
}

#[test]
fn rtl_mesh_conserves_packets() {
    check_conservation(NetLevel::Rtl, 16, 15);
}

#[test]
fn full_rtl_mesh_survives_verilog_round_trip() {
    // Translate a complete 16-node RTL mesh to Verilog, reparse it, and
    // drive identical traffic through both: delivery statistics must
    // match exactly (the network is deterministic given the generators).
    let golden_stats = Arc::new(Mutex::new(NetStats::default()));
    let golden = LimitedHarness {
        level: NetLevel::Rtl,
        nrouters: 16,
        per_gen: 10,
        stats: golden_stats.clone(),
    };
    let mut sim = Sim::build(&golden, Engine::SpecializedOpt).unwrap();
    sim.reset();
    sim.run(2_000);

    // Round trip just the network (generators are native FL and stay
    // outside the translated region).
    let design = mtl_core::elaborate(&*network(NetLevel::Rtl, 16, 32, 2)).unwrap();
    let verilog = mtl_translate::translate(&design).unwrap();
    let lib = mtl_translate::VerilogLibrary::parse(&verilog)
        .unwrap_or_else(|e| panic!("mesh verilog reparse failed: {e}"));

    struct RoundTrip<'a> {
        net: mtl_translate::VerilogComponent<'a>,
        stats: Arc<Mutex<NetStats>>,
    }
    impl Keyed for RoundTrip<'_> {}
    impl Component for RoundTrip<'_> {
        fn build(&self, c: &mut Ctx) {
            let net = c.instantiate("net", &self.net);
            for i in 0..16 {
                let gen = TrafficGen::new(i, 16, 32, 400, 3 + i as u64, self.stats.clone())
                    .with_limit(10);
                let g = c.instantiate(&format!("gen_{i}"), &gen);
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
    let rt_stats = Arc::new(Mutex::new(NetStats::default()));
    let rt = RoundTrip { net: lib.top_component(), stats: rt_stats.clone() };
    let mut rt_sim = Sim::build(&rt, Engine::SpecializedOpt).unwrap();
    rt_sim.reset();
    rt_sim.run(2_000);

    let a = golden_stats.lock().unwrap();
    let b = rt_stats.lock().unwrap();
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.received, b.received);
    assert_eq!(a.total_latency, b.total_latency, "latency profile must match cycle-exactly");
}
