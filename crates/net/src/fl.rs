//! Functional-level network model (the paper's Figure 10).
//!
//! Behaviorally an ideal single-cycle crossbar: packets entering any input
//! are appended to the destination's output FIFO the same tick. Resource
//! constraints exist only at the interfaces — multiple packets can enter
//! one queue per cycle, but only one leaves per cycle.

use std::collections::VecDeque;

use mtl_bits::Bits;
use mtl_core::{Component, Ctx};

use crate::msg::net_msg_layout;

/// The FL "magic crossbar" network with `nrouters` terminals.
#[derive(Hash)]
pub struct NetworkFL {
    nrouters: usize,
    payload_nbits: u32,
    nentries: usize,
}

impl NetworkFL {
    /// Creates an FL network.
    ///
    /// # Panics
    ///
    /// Panics if `nrouters` is not a perfect square (matching the paper's
    /// mesh assertion) or `nentries` is zero.
    pub fn new(nrouters: usize, payload_nbits: u32, nentries: usize) -> Self {
        let side = (nrouters as f64).sqrt() as usize;
        assert_eq!(side * side, nrouters, "nrouters must be a perfect square");
        assert!(nentries >= 1, "output fifos need at least one entry");
        Self { nrouters, payload_nbits, nentries }
    }
}

impl Component for NetworkFL {
    fn build(&self, c: &mut Ctx) {
        let layout = net_msg_layout(self.nrouters, self.payload_nbits);
        let w = layout.width();
        let n = self.nrouters;
        let nentries = self.nentries;

        let ins: Vec<_> = (0..n).map(|i| c.in_valrdy(&format!("in__{i}"), w)).collect();
        let outs: Vec<_> = (0..n).map(|i| c.out_valrdy(&format!("out_{i}"), w)).collect();

        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for i in 0..n {
            reads.extend([ins[i].msg, ins[i].val, ins[i].rdy]);
            reads.extend([outs[i].val, outs[i].rdy]);
            writes.push(ins[i].rdy);
            writes.extend([outs[i].msg, outs[i].val]);
        }

        let mut output_fifos: Vec<VecDeque<Bits>> = vec![VecDeque::new(); n];
        let (dlo, dhi) = layout.field_range("dest");
        let ins_c = ins.clone();
        let outs_c = outs.clone();

        c.tick_fl("network_logic", &reads, &writes, move |s| {
            // Dequeue logic: a completed handshake drains one packet.
            for (i, outp) in outs_c.iter().enumerate() {
                let val = s.read(outp.val.id()).reduce_or();
                let rdy = s.read(outp.rdy.id()).reduce_or();
                if val && rdy {
                    output_fifos[i].pop_front();
                }
            }
            // Enqueue logic: accepted packets go straight to their
            // destination FIFO ("magic" single-cycle crossbar).
            for inp in &ins_c {
                let val = s.read(inp.val.id()).reduce_or();
                let rdy = s.read(inp.rdy.id()).reduce_or();
                if val && rdy {
                    let msg = s.read(inp.msg.id());
                    let dest = msg.slice(dlo, dhi).as_usize();
                    output_fifos[dest].push_back(msg);
                }
            }
            // Set output signals for next cycle.
            for i in 0..ins_c.len() {
                let is_full = output_fifos[i].len() >= nentries;
                let is_empty = output_fifos[i].is_empty();
                s.write_next(outs_c[i].val.id(), Bits::from_bool(!is_empty));
                s.write_next(ins_c[i].rdy.id(), Bits::from_bool(!is_full));
                if let Some(&front) = output_fifos[i].front() {
                    s.write_next(outs_c[i].msg.id(), front);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::make_net_msg;
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    #[test]
    fn fl_network_delivers_to_destination() {
        let layout = net_msg_layout(4, 8);
        let mut sim = Sim::build(&NetworkFL::new(4, 8, 4), Engine::SpecializedOpt).unwrap();
        sim.reset();
        let msg = make_net_msg(&layout, 3, 0, 7, 0x42);
        sim.poke_port("in__0_msg", msg);
        sim.poke_port("in__0_val", b(1, 1));
        sim.poke_port("out_3_rdy", b(1, 1));
        // rdy rises one tick after reset.
        sim.cycle();
        assert_eq!(sim.peek_port("in__0_rdy"), b(1, 1));
        sim.cycle();
        sim.poke_port("in__0_val", b(1, 0));
        assert_eq!(sim.peek_port("out_3_val"), b(1, 1));
        assert_eq!(sim.peek_port("out_3_msg"), msg);
        assert_eq!(sim.peek_port("out_0_val"), b(1, 0));
    }

    #[test]
    fn fl_network_one_departure_per_cycle() {
        let layout = net_msg_layout(4, 8);
        let mut sim = Sim::build(&NetworkFL::new(4, 8, 8), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.cycle();
        // Two packets from different inputs to the same destination in the
        // same cycle: both accepted (magic), but they drain one per cycle.
        sim.poke_port("in__0_msg", make_net_msg(&layout, 2, 0, 1, 0xA));
        sim.poke_port("in__0_val", b(1, 1));
        sim.poke_port("in__1_msg", make_net_msg(&layout, 2, 1, 2, 0xB));
        sim.poke_port("in__1_val", b(1, 1));
        sim.poke_port("out_2_rdy", b(1, 1));
        sim.cycle();
        sim.poke_port("in__0_val", b(1, 0));
        sim.poke_port("in__1_val", b(1, 0));
        let mut got = Vec::new();
        for _ in 0..6 {
            if sim.peek_port("out_2_val") == b(1, 1) {
                got.push(layout.unpack(sim.peek_port("out_2_msg"), "opaque").as_u64());
            }
            sim.cycle();
        }
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn fl_network_backpressures_full_fifo() {
        let layout = net_msg_layout(4, 8);
        let mut sim = Sim::build(&NetworkFL::new(4, 8, 1), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.cycle();
        sim.poke_port("in__0_msg", make_net_msg(&layout, 0, 0, 1, 0));
        sim.poke_port("in__0_val", b(1, 1));
        sim.poke_port("out_0_rdy", b(1, 0));
        sim.cycle();
        sim.poke_port("in__0_val", b(1, 0));
        sim.cycle();
        // FIFO for destination 0 has 1 entry and it is full.
        assert_eq!(sim.peek_port("in__0_rdy"), b(1, 0));
    }
}
