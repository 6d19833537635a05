//! A multi-port FL test memory with configurable latency.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, Keyed};

use crate::mem_msg::{mem_req_layout, mem_resp_layout, MEM_WRITE};

/// Shared backing storage for [`TestMemory`]; a backdoor handle lets test
/// benches load programs and inspect results without simulating traffic.
pub type MemHandle = Arc<Mutex<Vec<u32>>>;

/// A word-addressed FL memory servicing `nports` val/rdy request/response
/// channels with a fixed pipelined latency.
///
/// Port `p`'s bundles are named `port{p}_req_*` (input) and
/// `port{p}_resp_*` (output). One request per port per cycle is accepted;
/// responses return after `latency` cycles, in order.
pub struct TestMemory {
    nports: usize,
    words: usize,
    latency: u64,
    data: MemHandle,
}

impl TestMemory {
    /// Creates a memory with `words` words, `nports` ports, and the given
    /// response latency (cycles, ≥1).
    pub fn new(nports: usize, words: usize, latency: u64) -> Self {
        assert!(nports >= 1 && latency >= 1);
        Self { nports, words, latency, data: Arc::new(Mutex::new(vec![0; words])) }
    }

    /// The backdoor handle to the backing storage.
    pub fn handle(&self) -> MemHandle {
        self.data.clone()
    }
}

/// Keyless: it holds a handle to its contents.
impl Keyed for TestMemory {}

impl Component for TestMemory {
    fn build(&self, c: &mut Ctx) {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let reset = c.reset();
        let data = self.data.clone();
        let latency = self.latency;
        let words = self.words;

        let reqs: Vec<_> =
            (0..self.nports).map(|p| c.in_valrdy(&format!("port{p}_req"), req_l.width())).collect();
        let resps: Vec<_> = (0..self.nports)
            .map(|p| c.out_valrdy(&format!("port{p}_resp"), resp_l.width()))
            .collect();

        let mut reads = vec![reset];
        let mut writes = Vec::new();
        for p in 0..self.nports {
            reads.extend([reqs[p].msg, reqs[p].val, reqs[p].rdy, resps[p].val, resps[p].rdy]);
            writes.extend([reqs[p].rdy, resps[p].msg, resps[p].val]);
        }

        // Per-port in-flight responses: (ready_cycle, message).
        let mut inflight: Vec<VecDeque<(u64, Bits)>> = vec![VecDeque::new(); self.nports];
        let reqs_c = reqs.clone();
        let resps_c = resps.clone();

        c.tick_fl("mem_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                for q in &mut inflight {
                    q.clear();
                }
                for p in 0..reqs_c.len() {
                    s.write_next(reqs_c[p].rdy.id(), Bits::from_bool(false));
                    s.write_next(resps_c[p].val.id(), Bits::from_bool(false));
                }
                return;
            }
            let cyc = s.cycle();
            for p in 0..reqs_c.len() {
                // Drain a delivered response.
                if s.read(resps_c[p].val.id()).reduce_or()
                    && s.read(resps_c[p].rdy.id()).reduce_or()
                {
                    inflight[p].pop_front();
                }
                // Accept a new request.
                if s.read(reqs_c[p].val.id()).reduce_or() && s.read(reqs_c[p].rdy.id()).reduce_or()
                {
                    let req = s.read(reqs_c[p].msg.id());
                    let ty = req_l.unpack(req, "type").as_u64();
                    let opq = req_l.unpack(req, "opaque").as_u64();
                    let addr = req_l.unpack(req, "addr").as_u64() as usize;
                    let widx = (addr / 4) % words;
                    let rdata = if ty == MEM_WRITE {
                        let wdata = req_l.unpack(req, "data").as_u64() as u32;
                        data.lock().unwrap()[widx] = wdata;
                        0
                    } else {
                        data.lock().unwrap()[widx]
                    };
                    let resp = crate::mem_msg::mem_resp(&resp_l, ty, opq, rdata);
                    inflight[p].push_back((cyc + latency, resp));
                }
                // Publish next-cycle state: respond when the head is ripe.
                match inflight[p].front() {
                    Some(&(ready, msg)) if ready <= cyc + 1 => {
                        s.write_next(resps_c[p].msg.id(), msg);
                        s.write_next(resps_c[p].val.id(), Bits::from_bool(true));
                    }
                    _ => s.write_next(resps_c[p].val.id(), Bits::from_bool(false)),
                }
                // Accept while the in-flight window is small.
                s.write_next(reqs_c[p].rdy.id(), Bits::from_bool(inflight[p].len() < 4));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_msg::{mem_read_req, mem_write_req, MEM_READ};
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    #[test]
    fn write_then_read_round_trips() {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let mem = TestMemory::new(1, 256, 2);
        let mut sim = Sim::build(&mem, Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.cycle();
        sim.poke_port("port0_resp_rdy", b(1, 1));

        // Write 99 to word 5.
        sim.poke_port("port0_req_msg", mem_write_req(&req_l, 1, 20, 99));
        sim.poke_port("port0_req_val", b(1, 1));
        sim.cycle();
        sim.poke_port("port0_req_val", b(1, 0));
        for _ in 0..6 {
            if sim.peek_port("port0_resp_val") == b(1, 1) {
                break;
            }
            sim.cycle();
        }
        let resp = sim.peek_port("port0_resp_msg");
        assert_eq!(resp_l.unpack(resp, "type").as_u64(), MEM_WRITE);
        assert_eq!(resp_l.unpack(resp, "opaque").as_u64(), 1);
        sim.cycle();

        // Read it back.
        sim.poke_port("port0_req_msg", mem_read_req(&req_l, 2, 20));
        sim.poke_port("port0_req_val", b(1, 1));
        sim.cycle();
        sim.poke_port("port0_req_val", b(1, 0));
        for _ in 0..6 {
            if sim.peek_port("port0_resp_val") == b(1, 1) {
                break;
            }
            sim.cycle();
        }
        let resp = sim.peek_port("port0_resp_msg");
        assert_eq!(resp_l.unpack(resp, "type").as_u64(), MEM_READ);
        assert_eq!(resp_l.unpack(resp, "opaque").as_u64(), 2);
        assert_eq!(resp_l.unpack(resp, "data").as_u64(), 99);
    }

    #[test]
    fn backdoor_handle_shares_storage() {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let mem = TestMemory::new(1, 64, 1);
        let handle = mem.handle();
        handle.lock().unwrap()[3] = 0xABCD;
        let mut sim = Sim::build(&mem, Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.cycle();
        sim.poke_port("port0_resp_rdy", b(1, 1));
        sim.poke_port("port0_req_msg", mem_read_req(&req_l, 0, 12));
        sim.poke_port("port0_req_val", b(1, 1));
        sim.cycle();
        sim.poke_port("port0_req_val", b(1, 0));
        for _ in 0..5 {
            if sim.peek_port("port0_resp_val") == b(1, 1) {
                break;
            }
            sim.cycle();
        }
        assert_eq!(resp_l.unpack(sim.peek_port("port0_resp_msg"), "data").as_u64(), 0xABCD);
    }

    #[test]
    fn ports_are_independent() {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let mem = TestMemory::new(2, 64, 1);
        let handle = mem.handle();
        handle.lock().unwrap()[1] = 11;
        handle.lock().unwrap()[2] = 22;
        let mut sim = Sim::build(&mem, Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.cycle();
        for p in 0..2 {
            sim.poke_port(&format!("port{p}_resp_rdy"), b(1, 1));
            sim.poke_port(
                &format!("port{p}_req_msg"),
                mem_read_req(&req_l, p as u64, 4 * (p as u32 + 1)),
            );
            sim.poke_port(&format!("port{p}_req_val"), b(1, 1));
        }
        sim.cycle();
        for p in 0..2 {
            sim.poke_port(&format!("port{p}_req_val"), b(1, 0));
        }
        for _ in 0..5 {
            if sim.peek_port("port0_resp_val") == b(1, 1) {
                break;
            }
            sim.cycle();
        }
        assert_eq!(resp_l.unpack(sim.peek_port("port0_resp_msg"), "data").as_u64(), 11);
        assert_eq!(resp_l.unpack(sim.peek_port("port1_resp_msg"), "data").as_u64(), 22);
    }
}
