//! Register-transfer-level mesh router: XY dimension-ordered routing,
//! round-robin output arbitration, elastic input/output buffering — fully
//! IR-based and therefore Verilog-translatable.

use mtl_core::{Component, Ctx, Expr};
use mtl_stdlib::{NormalQueue, RoundRobinArbiter};

use crate::msg::net_msg_layout;
use crate::{EAST, NORTH, NPORTS, SOUTH, TERM, WEST};

/// A 5-port RTL router for an XY-routed mesh.
///
/// The mesh side length must be a power of two so that destination x/y
/// coordinates are bit slices of the destination field. The router's own
/// coordinates are the `pos_x` and `pos_y` input ports (log2(side) bits
/// each), which the mesh ties per instance (see [`RouterRTL::position`]):
/// every router of a mesh is one component, built once and stamped.
#[derive(Hash)]
pub struct RouterRTL {
    nrouters: usize,
    payload_nbits: u32,
    nentries: u64,
}

impl RouterRTL {
    /// Creates a router of a √nrouters × √nrouters mesh.
    ///
    /// # Panics
    ///
    /// Panics if `nrouters` is not the square of a power of two.
    pub fn new(nrouters: usize, payload_nbits: u32, nentries: u64) -> Self {
        let side = (nrouters as f64).sqrt() as usize;
        assert_eq!(side * side, nrouters, "nrouters must be a perfect square");
        assert!(side.is_power_of_two(), "RTL mesh side must be a power of two");
        Self { nrouters, payload_nbits, nentries }
    }

    /// The values of the `pos_x` and `pos_y` ports of router `id`.
    pub fn position(&self, id: usize) -> [(&'static str, u128); 2] {
        let side = (self.nrouters as f64).sqrt() as usize;
        [("pos_x", (id % side) as u128), ("pos_y", (id / side) as u128)]
    }
}

impl Component for RouterRTL {
    fn build(&self, c: &mut Ctx) {
        let layout = net_msg_layout(self.nrouters, self.payload_nbits);
        let w = layout.width();
        let side = (self.nrouters as f64).sqrt() as usize;
        let log_side = side.trailing_zeros();
        let (dlo, _dhi) = layout.field_range("dest");

        let ins: Vec<_> = (0..NPORTS).map(|p| c.in_valrdy(&format!("in__{p}"), w)).collect();
        let outs: Vec<_> = (0..NPORTS).map(|p| c.out_valrdy(&format!("out_{p}"), w)).collect();

        // Input and output elastic buffers.
        let inq: Vec<_> = (0..NPORTS)
            .map(|p| c.instantiate(&format!("inq_{p}"), &NormalQueue::new(w, self.nentries)))
            .collect();
        let outq: Vec<_> = (0..NPORTS)
            .map(|p| c.instantiate(&format!("outq_{p}"), &NormalQueue::new(w, self.nentries)))
            .collect();
        for p in 0..NPORTS {
            let enq = c.in_valrdy_of(&inq[p], "enq");
            c.connect_valrdy(
                mtl_core::OutValRdy { msg: ins[p].msg, val: ins[p].val, rdy: ins[p].rdy },
                enq,
            );
            let deq = c.out_valrdy_of(&outq[p], "deq");
            c.connect(deq.msg, outs[p].msg);
            c.connect(deq.val, outs[p].val);
            c.connect(deq.rdy, outs[p].rdy);
        }

        // Head-of-line wires from the input queues.
        let hol_msg: Vec<_> = (0..NPORTS).map(|p| c.wire(&format!("hol_msg_{p}"), w)).collect();
        let hol_val: Vec<_> = (0..NPORTS).map(|p| c.wire(&format!("hol_val_{p}"), 1)).collect();
        let hol_rdy: Vec<_> = (0..NPORTS).map(|p| c.wire(&format!("hol_rdy_{p}"), 1)).collect();
        for p in 0..NPORTS {
            let deq = c.out_valrdy_of(&inq[p], "deq");
            c.connect(deq.msg, hol_msg[p]);
            c.connect(deq.val, hol_val[p]);
            c.connect(deq.rdy, hol_rdy[p]);
        }
        // Output queue enqueue wires.
        let oq_msg: Vec<_> = (0..NPORTS).map(|p| c.wire(&format!("oq_msg_{p}"), w)).collect();
        let oq_val: Vec<_> = (0..NPORTS).map(|p| c.wire(&format!("oq_val_{p}"), 1)).collect();
        let oq_rdy: Vec<_> = (0..NPORTS).map(|p| c.wire(&format!("oq_rdy_{p}"), 1)).collect();
        for p in 0..NPORTS {
            let enq = c.in_valrdy_of(&outq[p], "enq");
            c.connect(oq_msg[p], enq.msg);
            c.connect(oq_val[p], enq.val);
            c.connect(oq_rdy[p], enq.rdy);
        }

        // Route computation per input: a 3-bit output-port index.
        let (my_x, my_y) = (c.in_port("pos_x", log_side), c.in_port("pos_y", log_side));
        let routes: Vec<_> = (0..NPORTS).map(|p| c.wire(&format!("route_{p}"), 3)).collect();
        c.comb("route_comb", |b| {
            for p in 0..NPORTS {
                let dest = hol_msg[p].slice(dlo, dlo + 2 * log_side);
                let dest_x = dest.clone().slice(0, log_side);
                let dest_y = dest.slice(log_side, 2 * log_side);
                let dir = |d: usize| Expr::k(3, d as u128);
                let route = dest_x.clone().gt(my_x).mux(
                    dir(EAST),
                    dest_x.lt(my_x).mux(
                        dir(WEST),
                        dest_y
                            .clone()
                            .gt(my_y)
                            .mux(dir(SOUTH), dest_y.lt(my_y).mux(dir(NORTH), dir(TERM))),
                    ),
                );
                b.assign(routes[p], route);
            }
        });

        // Request vectors and arbitration per output.
        let reqs: Vec<_> =
            (0..NPORTS).map(|o| c.wire(&format!("reqs_{o}"), NPORTS as u32)).collect();
        c.comb("req_comb", |b| {
            for o in 0..NPORTS {
                let bits: Vec<Expr> = (0..NPORTS)
                    .rev()
                    .map(|i| {
                        hol_val[i].ex().and(routes[i].eq(Expr::k(3, o as u128))).and(oq_rdy[o])
                    })
                    .collect();
                b.assign(reqs[o], Expr::concat(bits));
            }
        });

        let arbiters: Vec<_> = (0..NPORTS)
            .map(|o| c.instantiate(&format!("arb_{o}"), &RoundRobinArbiter::new(NPORTS)))
            .collect();
        let grants: Vec<_> =
            (0..NPORTS).map(|o| c.wire(&format!("grants_{o}"), NPORTS as u32)).collect();
        for o in 0..NPORTS {
            c.connect(reqs[o], c.port_of(&arbiters[o], "reqs"));
            c.connect(c.port_of(&arbiters[o], "grants"), grants[o]);
        }

        // Crossbar traversal and dequeue enables.
        #[allow(clippy::needless_range_loop)]
        c.comb("xbar_comb", |b| {
            for o in 0..NPORTS {
                // Select the granted input's message (one-hot mux chain).
                let mut msg = hol_msg[0].ex();
                for i in 1..NPORTS {
                    msg = grants[o].bit(i as u32).mux(hol_msg[i].ex(), msg);
                }
                b.assign(oq_msg[o], msg);
                b.assign(oq_val[o], grants[o].ex().reduce_or());
            }
            for i in 0..NPORTS {
                let mut granted = Expr::bool(false);
                for o in 0..NPORTS {
                    granted = granted | grants[o].bit(i as u32);
                }
                b.assign(hol_rdy[i], granted);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::make_net_msg;
    use mtl_bits::{b, Bits};
    use mtl_sim::{Engine, Sim};

    /// A simulator of router `id` of a 4x4 mesh, its coordinates poked
    /// into its (top-level) position ports.
    fn router_at(id: usize) -> Sim {
        let router = RouterRTL::new(16, 8, 2);
        let mut sim = Sim::build(&router, Engine::SpecializedOpt).unwrap();
        for (port, value) in router.position(id) {
            sim.poke_port(port, Bits::new(2, value));
        }
        sim
    }

    #[test]
    fn rtl_router_delivers_and_routes_east_first() {
        let layout = net_msg_layout(16, 8);
        // Router 0 (x=0,y=0) of 4x4: dest 6 (x=2,y=1) must exit EAST.
        let mut sim = router_at(0);
        sim.reset();
        let msg = make_net_msg(&layout, 6, 0, 9, 0x5A);
        sim.poke_port(&format!("in__{TERM}_msg"), msg);
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 1));
        for p in 0..NPORTS {
            sim.poke_port(&format!("out_{p}_rdy"), b(1, 1));
        }
        sim.cycle();
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 0));
        let mut exit = None;
        for _ in 0..8 {
            for p in 0..NPORTS {
                if sim.peek_port(&format!("out_{p}_val")) == b(1, 1) {
                    assert_eq!(sim.peek_port(&format!("out_{p}_msg")), msg);
                    exit = Some(p);
                }
            }
            if exit.is_some() {
                break;
            }
            sim.cycle();
        }
        assert_eq!(exit, Some(EAST));
    }

    #[test]
    fn rtl_router_is_verilog_translatable() {
        let design = mtl_core::elaborate(&RouterRTL::new(16, 8, 2)).unwrap();
        let verilog = mtl_translate::translate(&design).unwrap();
        assert!(verilog.contains("module RouterRTL ("));
        assert!(verilog.contains("input [1:0] pos_x;"), "coordinates are ports");
        // Round-trip: reparse and make sure it still elaborates.
        let lib = mtl_translate::VerilogLibrary::parse(&verilog).unwrap();
        let mut sim = Sim::build(&lib.top_component(), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.run(4);
    }

    #[test]
    fn rtl_router_arbitrates_two_inputs_to_one_output() {
        let layout = net_msg_layout(16, 8);
        // Router 5 (x=1,y=1): packets from WEST and TERM both to dest 6
        // (east neighbor) must both eventually leave EAST.
        let mut sim = router_at(5);
        sim.reset();
        let m1 = make_net_msg(&layout, 6, 4, 1, 0);
        let m2 = make_net_msg(&layout, 6, 5, 2, 0);
        sim.poke_port(&format!("in__{WEST}_msg"), m1);
        sim.poke_port(&format!("in__{WEST}_val"), b(1, 1));
        sim.poke_port(&format!("in__{TERM}_msg"), m2);
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 1));
        for p in 0..NPORTS {
            sim.poke_port(&format!("out_{p}_rdy"), b(1, 1));
        }
        sim.cycle();
        sim.poke_port(&format!("in__{WEST}_val"), b(1, 0));
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 0));
        let mut got = Vec::new();
        for _ in 0..10 {
            if sim.peek_port(&format!("out_{EAST}_val")) == b(1, 1) {
                got.push(
                    layout.unpack(sim.peek_port(&format!("out_{EAST}_msg")), "opaque").as_u64(),
                );
            }
            sim.cycle();
            if got.len() == 2 {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }
}
