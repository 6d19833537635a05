//! The cycle-level cache: a direct-mapped, blocking, write-through
//! no-allocate cache with cycle-approximate hit/miss timing, written as a
//! native CL block.

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, InValRdyQueue, OutValRdyQueue};

use crate::mem_msg::{mem_read_req, mem_req_layout, mem_resp, mem_resp_layout, MEM_WRITE};

/// Words per cache line.
pub const WORDS_PER_LINE: usize = 4;

/// A CL direct-mapped blocking cache.
///
/// * Read hit: single-cycle lookup (plus interface latency).
/// * Read miss: refills the whole line from memory word by word, then
///   responds.
/// * Writes: write-through, no-allocate (hit updates the line).
#[derive(Hash)]
pub struct CacheCL {
    nlines: usize,
}

impl CacheCL {
    /// Creates a cache with `nlines` lines of four words.
    ///
    /// # Panics
    ///
    /// Panics unless `nlines` is a power of two ≥ 2.
    pub fn new(nlines: usize) -> Self {
        assert!(nlines.is_power_of_two() && nlines >= 2);
        Self { nlines }
    }
}

impl Component for CacheCL {
    fn build(&self, c: &mut Ctx) {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let proc = c.child_reqresp("proc", req_l.width(), resp_l.width());
        let mem = c.parent_reqresp("mem", req_l.width(), resp_l.width());
        let reset = c.reset();

        let mut preq = InValRdyQueue::new(proc.req, 2);
        let mut presp = OutValRdyQueue::new(proc.resp, 2);
        let mut mreq = OutValRdyQueue::new(mem.req, 2);
        let mut mresp = InValRdyQueue::new(mem.resp, 2);

        let mut reads = vec![reset];
        let mut writes = Vec::new();
        for q in [&presp, &mreq] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }
        for q in [&preq, &mresp] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }

        let nlines = self.nlines;
        let mut tags: Vec<Option<u32>> = vec![None; nlines];
        let mut data: Vec<[u32; WORDS_PER_LINE]> = vec![[0; WORDS_PER_LINE]; nlines];

        #[derive(Clone, Copy, PartialEq)]
        enum S {
            Idle,
            /// Refilling a line; `sent` requests issued, `got` words
            /// received so far.
            Refill {
                line_addr: u32,
                sent: usize,
                got: usize,
            },
            /// Waiting for the write-through ack.
            WriteAck,
        }
        let mut state = S::Idle;
        // The request being serviced.
        let mut cur: Option<Bits> = None;

        c.tick_cl("cache_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                tags.fill(None);
                state = S::Idle;
                cur = None;
                preq.reset(s);
                presp.reset(s);
                mreq.reset(s);
                mresp.reset(s);
                return;
            }
            preq.xtick(s);
            presp.xtick(s);
            mreq.xtick(s);
            mresp.xtick(s);
            {
                let index = |addr: u32| (addr as usize / 4 / WORDS_PER_LINE) % nlines;
                let tag_of = |addr: u32| addr / 4 / WORDS_PER_LINE as u32 / nlines as u32;
                let offset = |addr: u32| (addr as usize / 4) % WORDS_PER_LINE;
                let line_base = |addr: u32| addr & !((WORDS_PER_LINE as u32 * 4) - 1);

                match state {
                    S::Idle => {
                        if !presp.is_full() && !mreq.is_full() {
                            if let Some(req) = preq.pop() {
                                let ty = req_l.unpack(req, "type").as_u64();
                                let addr = req_l.unpack(req, "addr").as_u64() as u32;
                                let opq = req_l.unpack(req, "opaque").as_u64();
                                let idx = index(addr);
                                let hit = tags[idx] == Some(tag_of(addr));
                                if ty == MEM_WRITE {
                                    let wdata = req_l.unpack(req, "data").as_u64() as u32;
                                    if hit {
                                        data[idx][offset(addr)] = wdata;
                                    }
                                    // Write-through to memory; ack later.
                                    mreq.push(req);
                                    let _ = opq;
                                    cur = Some(req);
                                    state = S::WriteAck;
                                } else if hit {
                                    let v = data[idx][offset(addr)];
                                    presp.push(mem_resp(&resp_l, ty, opq, v));
                                } else {
                                    // Read miss: start the refill.
                                    let base = line_base(addr);
                                    mreq.push(mem_read_req(&req_l, 0, base));
                                    cur = Some(req);
                                    state = S::Refill { line_addr: base, sent: 1, got: 0 };
                                }
                            }
                        }
                    }
                    S::Refill { line_addr, mut sent, mut got } => {
                        // Issue the next refill request as space allows.
                        if sent < WORDS_PER_LINE && !mreq.is_full() {
                            mreq.push(mem_read_req(&req_l, 0, line_addr + 4 * sent as u32));
                            sent += 1;
                        }
                        if let Some(resp) = mresp.pop() {
                            let idx = index(line_addr);
                            data[idx][got] = resp_l.unpack(resp, "data").as_u64() as u32;
                            got += 1;
                        }
                        if got == WORDS_PER_LINE {
                            let req = cur.take().expect("refill without request");
                            let addr = req_l.unpack(req, "addr").as_u64() as u32;
                            let opq = req_l.unpack(req, "opaque").as_u64();
                            let idx = index(line_addr);
                            tags[idx] = Some(tag_of(addr));
                            let v = data[idx][offset(addr)];
                            presp.push(mem_resp(&resp_l, 0, opq, v));
                            state = S::Idle;
                        } else {
                            state = S::Refill { line_addr, sent, got };
                        }
                    }
                    S::WriteAck => {
                        if let Some(resp) = mresp.pop() {
                            let req = cur.take().expect("ack without request");
                            let opq = req_l.unpack(req, "opaque").as_u64();
                            let _ = resp;
                            presp.push(mem_resp(&resp_l, MEM_WRITE, opq, 0));
                            state = S::Idle;
                        }
                    }
                }
            }
            preq.post(s);
            presp.post(s);
            mreq.post(s);
            mresp.post(s);
        });
    }
}
