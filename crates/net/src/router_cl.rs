//! Cycle-level mesh router: XY dimension-ordered routing with elastic
//! buffering, written as a native CL block (arbitrary Rust, cycle-based).

use std::collections::VecDeque;

use mtl_bits::Bits;
use mtl_core::{Component, Ctx};

use crate::msg::net_msg_layout;
use crate::{xy_route, NPORTS};

/// A 5-port (N/E/S/W/terminal) cycle-level router for an XY-routed mesh.
///
/// Microarchitecture: per-input elastic buffers, round-robin arbitration
/// per output, and per-output staging buffers — one packet per output per
/// cycle, two cycles per hop.
#[derive(Hash)]
pub struct RouterCL {
    id: usize,
    nrouters: usize,
    payload_nbits: u32,
    nentries: usize,
}

impl RouterCL {
    /// Creates router `id` of a √nrouters × √nrouters mesh.
    pub fn new(id: usize, nrouters: usize, payload_nbits: u32, nentries: usize) -> Self {
        assert!(id < nrouters, "router id out of range");
        assert!(nentries >= 1);
        Self { id, nrouters, payload_nbits, nentries }
    }
}

impl Component for RouterCL {
    fn build(&self, c: &mut Ctx) {
        let layout = net_msg_layout(self.nrouters, self.payload_nbits);
        let w = layout.width();
        let side = (self.nrouters as f64).sqrt() as usize;
        let my_id = self.id;
        let nentries = self.nentries;
        let (dlo, dhi) = layout.field_range("dest");

        let ins: Vec<_> = (0..NPORTS).map(|p| c.in_valrdy(&format!("in__{p}"), w)).collect();
        let outs: Vec<_> = (0..NPORTS).map(|p| c.out_valrdy(&format!("out_{p}"), w)).collect();
        let reset = c.reset();

        let mut reads = vec![reset];
        let mut writes = Vec::new();
        for p in 0..NPORTS {
            reads.extend([ins[p].msg, ins[p].val, ins[p].rdy, outs[p].val, outs[p].rdy]);
            writes.extend([ins[p].rdy, outs[p].msg, outs[p].val]);
        }

        let ins_c = ins.clone();
        let outs_c = outs.clone();
        let mut in_q: Vec<VecDeque<Bits>> = vec![VecDeque::new(); NPORTS];
        let mut out_q: Vec<VecDeque<Bits>> = vec![VecDeque::new(); NPORTS];
        let mut rr: Vec<usize> = vec![0; NPORTS];

        c.tick_cl("router_logic", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                for q in in_q.iter_mut().chain(out_q.iter_mut()) {
                    q.clear();
                }
                for p in 0..NPORTS {
                    s.write_next(ins_c[p].rdy.id(), Bits::from_bool(false));
                    s.write_next(outs_c[p].val.id(), Bits::from_bool(false));
                }
                return;
            }
            // 1. Drain departures that completed a handshake this edge.
            for (p, outp) in outs_c.iter().enumerate() {
                let val = s.read(outp.val.id()).reduce_or();
                let rdy = s.read(outp.rdy.id()).reduce_or();
                if val && rdy {
                    out_q[p].pop_front();
                }
            }
            // 2. Switch traversal: per output, round-robin over inputs
            //    whose head-of-line packet routes there. Runs before
            //    arrivals are accepted so a packet spends at least one
            //    cycle in the input buffer (two cycles per hop, matching
            //    the RTL router's pipeline).
            for o in 0..NPORTS {
                if out_q[o].len() >= nentries {
                    continue;
                }
                for k in 0..NPORTS {
                    let i = (rr[o] + k) % NPORTS;
                    let Some(&head) = in_q[i].front() else { continue };
                    let dest = head.slice(dlo, dhi).as_usize();
                    if xy_route(my_id, dest, side) == o {
                        in_q[i].pop_front();
                        out_q[o].push_back(head);
                        rr[o] = (i + 1) % NPORTS;
                        break;
                    }
                }
            }
            // 3. Accept arrivals that completed a handshake this edge
            //    (after switching, so they wait a cycle in the buffer).
            for (p, inp) in ins_c.iter().enumerate() {
                let val = s.read(inp.val.id()).reduce_or();
                let rdy = s.read(inp.rdy.id()).reduce_or();
                if val && rdy {
                    debug_assert!(in_q[p].len() < nentries);
                    in_q[p].push_back(s.read(inp.msg.id()));
                }
            }
            // 4. Publish next-cycle interface state.
            for p in 0..NPORTS {
                s.write_next(ins_c[p].rdy.id(), Bits::from_bool(in_q[p].len() < nentries));
                match out_q[p].front() {
                    Some(&m) => {
                        s.write_next(outs_c[p].msg.id(), m);
                        s.write_next(outs_c[p].val.id(), Bits::from_bool(true));
                    }
                    None => s.write_next(outs_c[p].val.id(), Bits::from_bool(false)),
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::make_net_msg;
    use crate::TERM;
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    #[test]
    fn router_delivers_terminal_packet() {
        // Router 0 of a 2x2 mesh: a packet for router 0 arriving on the
        // terminal port leaves on the terminal port.
        let layout = net_msg_layout(4, 8);
        let mut sim = Sim::build(&RouterCL::new(0, 4, 8, 2), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.cycle();
        let msg = make_net_msg(&layout, 0, 0, 5, 0x11);
        sim.poke_port(&format!("in__{TERM}_msg"), msg);
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 1));
        sim.poke_port(&format!("out_{TERM}_rdy"), b(1, 1));
        sim.cycle();
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 0));
        let mut delivered = false;
        for _ in 0..6 {
            if sim.peek_port(&format!("out_{TERM}_val")) == b(1, 1) {
                assert_eq!(sim.peek_port(&format!("out_{TERM}_msg")), msg);
                delivered = true;
                break;
            }
            sim.cycle();
        }
        assert!(delivered, "packet never exited the terminal port");
    }

    #[test]
    fn router_routes_x_before_y() {
        // Router 0 (x=0,y=0) of 3x3: dest router 5 (x=2,y=1) must exit EAST.
        let layout = net_msg_layout(9, 8);
        let mut sim = Sim::build(&RouterCL::new(0, 9, 8, 2), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.cycle();
        let msg = make_net_msg(&layout, 5, 0, 1, 0);
        sim.poke_port(&format!("in__{TERM}_msg"), msg);
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 1));
        for p in 0..NPORTS {
            sim.poke_port(&format!("out_{p}_rdy"), b(1, 1));
        }
        sim.cycle();
        sim.poke_port(&format!("in__{TERM}_val"), b(1, 0));
        let mut exit = None;
        for _ in 0..6 {
            for p in 0..NPORTS {
                if sim.peek_port(&format!("out_{p}_val")) == b(1, 1) {
                    exit = Some(p);
                }
            }
            if exit.is_some() {
                break;
            }
            sim.cycle();
        }
        assert_eq!(exit, Some(crate::EAST), "XY routing must go east first");
    }
}
