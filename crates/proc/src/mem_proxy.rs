//! A resumable memory-port proxy: the analog of the paper's
//! `ListMemPortAdapter`.
//!
//! PyMTL uses greenlets to suspend an FL model mid-`numpy.dot` while a
//! memory transaction completes. Rust has no coroutines in stable const
//! positions, so the proxy exposes the same behaviour as a *resumable
//! call*: `read(addr)` returns `None` until the transaction completes, and
//! the FL model simply re-issues the same call on the next tick (an
//! explicit continuation). The proxy guarantees a re-issued call with the
//! same address resumes the in-flight transaction instead of starting a
//! new one.

use mtl_bits::Bits;
use mtl_core::{InValRdyQueue, OutValRdyQueue, ParentReqResp, SignalRef, SignalView};

use crate::mem_msg::{mem_read_req, mem_req_layout, mem_resp_layout, mem_write_req};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProxyState {
    Idle,
    ReadWait(u32),
    WriteWait(u32),
}

/// A proxy that turns a parent req/resp memory bundle into resumable
/// `read`/`write` calls for FL models.
pub struct MemPortProxy {
    req_q: OutValRdyQueue,
    resp_q: InValRdyQueue,
    req_l: mtl_core::MsgLayout,
    resp_l: mtl_core::MsgLayout,
    state: ProxyState,
}

impl MemPortProxy {
    /// Creates a proxy over a parent memory bundle.
    pub fn new(bundle: ParentReqResp) -> Self {
        Self {
            req_q: OutValRdyQueue::new(bundle.req, 2),
            resp_q: InValRdyQueue::new(bundle.resp, 2),
            req_l: mem_req_layout(),
            resp_l: mem_resp_layout(),
            state: ProxyState::Idle,
        }
    }

    /// Call at the top of the owning tick block.
    pub fn xtick(&mut self, s: &mut dyn SignalView) {
        self.req_q.xtick(s);
        self.resp_q.xtick(s);
    }

    /// Call at the bottom of the owning tick block.
    pub fn post(&mut self, s: &mut dyn SignalView) {
        self.req_q.post(s);
        self.resp_q.post(s);
    }

    /// Call on reset ticks instead of `xtick`/`post`.
    pub fn reset(&mut self, s: &mut dyn SignalView) {
        self.state = ProxyState::Idle;
        self.req_q.reset(s);
        self.resp_q.reset(s);
    }

    /// Resumable word read: returns `Some(value)` once the transaction
    /// for `addr` completes; re-issue the identical call each tick until
    /// then.
    ///
    /// # Panics
    ///
    /// Panics if called with a different address (or a `write`) while a
    /// transaction is in flight — the proxy is a single-outstanding
    /// continuation, so the resumed call must match.
    pub fn read(&mut self, addr: u32) -> Option<u32> {
        match self.state {
            ProxyState::Idle => {
                if !self.req_q.is_full() {
                    self.req_q.push(mem_read_req(&self.req_l, 0, addr));
                    self.state = ProxyState::ReadWait(addr);
                }
                None
            }
            ProxyState::ReadWait(pending) => {
                assert_eq!(pending, addr, "resumed read must use the in-flight address");
                if let Some(resp) = self.resp_q.pop() {
                    self.state = ProxyState::Idle;
                    Some(self.resp_l.unpack(resp, "data").as_u64() as u32)
                } else {
                    None
                }
            }
            ProxyState::WriteWait(_) => panic!("read issued while a write is in flight"),
        }
    }

    /// Resumable word write: returns `true` once the write is
    /// acknowledged; re-issue the identical call each tick until then.
    ///
    /// # Panics
    ///
    /// Panics if a different transaction is in flight.
    pub fn write(&mut self, addr: u32, data: u32) -> bool {
        match self.state {
            ProxyState::Idle => {
                if !self.req_q.is_full() {
                    self.req_q.push(mem_write_req(&self.req_l, 0, addr, data));
                    self.state = ProxyState::WriteWait(addr);
                }
                false
            }
            ProxyState::WriteWait(pending) => {
                assert_eq!(pending, addr, "resumed write must use the in-flight address");
                if self.resp_q.pop().is_some() {
                    self.state = ProxyState::Idle;
                    true
                } else {
                    false
                }
            }
            ProxyState::ReadWait(_) => panic!("write issued while a read is in flight"),
        }
    }

    /// Whether a transaction is in flight.
    pub fn busy(&self) -> bool {
        self.state != ProxyState::Idle
    }

    /// Signals read by this proxy (for native block read sets).
    pub fn read_signals(&self) -> Vec<SignalRef> {
        let mut v = self.req_q.read_signals();
        v.extend(self.resp_q.read_signals());
        v
    }

    /// Signals written by this proxy (for native block write sets).
    pub fn write_signals(&self) -> Vec<SignalRef> {
        let mut v = self.req_q.write_signals();
        v.extend(self.resp_q.write_signals());
        v
    }
}

/// Silence an unused-type warning when `Bits` is only used via adapters.
const _: fn(Bits) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_memory::TestMemory;
    use mtl_core::{Component, Ctx, Keyed};
    use mtl_sim::{Engine, Sim};
    use std::sync::{Arc, Mutex};

    /// An FL component that writes then reads back a sequence through the
    /// proxy and records what it saw.
    struct ProxyUser {
        log: Arc<Mutex<Vec<u32>>>,
        mem: TestMemory,
    }

    impl Keyed for ProxyUser {}
    impl Component for ProxyUser {
        fn build(&self, c: &mut Ctx) {
            let done = c.out_port("done", 1);
            let mem = c.instantiate("mem", &self.mem);
            // An internal bus built from wires (not top-level ports).
            let bus = mtl_core::ParentReqResp {
                req: mtl_core::OutValRdy {
                    msg: c.wire("bus_req_msg", mem_req_layout().width()),
                    val: c.wire("bus_req_val", 1),
                    rdy: c.wire("bus_req_rdy", 1),
                },
                resp: mtl_core::InValRdy {
                    msg: c.wire("bus_resp_msg", mem_resp_layout().width()),
                    val: c.wire("bus_resp_val", 1),
                    rdy: c.wire("bus_resp_rdy", 1),
                },
            };
            c.connect_reqresp(bus, c.child_reqresp_of(&mem, "port0"));
            let reset = c.reset();
            let mut proxy = MemPortProxy::new(bus);
            let log = self.log.clone();
            let mut phase = 0usize;
            let mut reads = vec![reset];
            reads.extend(proxy.read_signals());
            let mut writes = vec![done];
            writes.extend(proxy.write_signals());
            c.tick_fl("user", &reads, &writes, move |s| {
                if s.read(reset.id()).reduce_or() {
                    phase = 0;
                    proxy.reset(s);
                    s.write_next(done.id(), Bits::from_bool(false));
                    return;
                }
                proxy.xtick(s);
                // Program: write 3 words, read them back, finish.
                match phase {
                    0..=2 if proxy.write(0x100 + 4 * phase as u32, 10 + phase as u32) => {
                        phase += 1;
                    }
                    3..=5 => {
                        if let Some(v) = proxy.read(0x100 + 4 * (phase as u32 - 3)) {
                            log.lock().unwrap().push(v);
                            phase += 1;
                        }
                    }
                    _ => {}
                }
                s.write_next(done.id(), Bits::from_bool(phase >= 6));
                proxy.post(s);
            });
        }
    }

    #[test]
    fn proxy_writes_then_reads_back() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let user = ProxyUser { log: log.clone(), mem: TestMemory::new(1, 256, 2) };
        let mut sim = Sim::build(&user, Engine::SpecializedOpt).unwrap();
        sim.reset();
        let mut cycles = 0;
        while sim.peek_port("done").is_zero() {
            sim.cycle();
            cycles += 1;
            assert!(cycles < 500, "proxy user never finished");
        }
        assert_eq!(*log.lock().unwrap(), vec![10, 11, 12]);
    }
}
