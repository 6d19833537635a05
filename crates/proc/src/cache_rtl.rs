//! The RTL cache: a direct-mapped, blocking, write-through no-allocate
//! cache implemented as an IR finite-state machine with tag and data
//! memories — Verilog-translatable.

use mtl_core::{clog2, Component, Ctx, Expr};

use crate::mem_msg::{mem_req_layout, mem_resp_layout};

const IDLE: u128 = 0;
const TC: u128 = 1;
const RF_REQ: u128 = 2;
const RF_WAIT: u128 = 3;
const WT: u128 = 4;
const WT_ACK: u128 = 5;
const RESP: u128 = 6;

/// An RTL direct-mapped blocking cache with four-word lines.
#[derive(Hash)]
pub struct CacheRTL {
    nlines: u64,
}

impl CacheRTL {
    /// Creates a cache with `nlines` lines (power of two, 2..=128).
    ///
    /// # Panics
    ///
    /// Panics if `nlines` is not a power of two in `2..=128` (the valid
    /// bit vector lives in a single ≤128-bit register).
    pub fn new(nlines: u64) -> Self {
        assert!(nlines.is_power_of_two() && (2..=128).contains(&nlines));
        Self { nlines }
    }
}

impl Component for CacheRTL {
    #[allow(clippy::too_many_lines)]
    fn build(&self, c: &mut Ctx) {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let proc = c.child_reqresp("proc", req_l.width(), resp_l.width());
        let mem = c.parent_reqresp("mem", req_l.width(), resp_l.width());
        let reset = c.reset();

        let nlines = self.nlines;
        let idx_w = clog2(nlines);
        let tag_w = 32 - 4 - idx_w;

        let tag_mem = c.mem("tag_mem", nlines, tag_w);
        let data_mem = c.mem("data_mem", nlines * 4, 32);

        let state = c.wire("state", 3);
        let valid = c.wire("valid", nlines as u32);
        let req_r = c.wire("req_r", req_l.width());
        let cnt = c.wire("cnt", 2);

        // Decode of the latched request.
        let r_type = c.wire("r_type", 2);
        let r_opq = c.wire("r_opq", 2);
        let r_addr = c.wire("r_addr", 32);
        let r_data = c.wire("r_data", 32);
        let r_off = c.wire("r_off", 2);
        let r_idx = c.wire("r_idx", idx_w);
        let r_tag = c.wire("r_tag", tag_w);
        let hit = c.wire("hit", 1);
        let is_write = c.wire("is_write", 1);

        c.comb("decode_comb", |b| {
            b.assign(r_type, req_l.get(req_r.ex(), "type"));
            b.assign(r_opq, req_l.get(req_r.ex(), "opaque"));
            b.assign(r_addr, req_l.get(req_r.ex(), "addr"));
            b.assign(r_data, req_l.get(req_r.ex(), "data"));
            b.assign(r_off, r_addr.slice(2, 4));
            b.assign(r_idx, r_addr.slice(4, 4 + idx_w));
            b.assign(r_tag, r_addr.slice(4 + idx_w, 32));
            let vbit = valid.srl(r_idx.zext(valid.width())).trunc(1);
            b.assign(hit, vbit & tag_mem.read(r_idx).eq(r_tag));
            b.assign(is_write, r_type.eq(Expr::k(2, 1)));
        });

        // Interface outputs.
        let st = |v: u128| Expr::k(3, v);
        c.comb("ifc_comb", |b| {
            b.assign(proc.req.rdy, state.eq(st(IDLE)));

            // Response: for reads, the word comes from the data memory.
            let rd_word = data_mem.read(Expr::concat(vec![r_idx.ex(), r_off.ex()]));
            b.assign(proc.resp.val, state.eq(st(RESP)));
            b.assign(
                proc.resp.msg,
                Expr::concat(vec![r_type.ex(), r_opq.ex(), is_write.mux(Expr::k(32, 0), rd_word)]),
            );

            // Memory requests: refill reads or the write-through.
            let line_base = Expr::concat(vec![r_tag.ex(), r_idx.ex(), Expr::k(4, 0)]);
            let rf_addr = line_base + Expr::concat(vec![Expr::k(28, 0), cnt.ex(), Expr::k(2, 0)]);
            b.assign(mem.req.val, state.eq(st(RF_REQ)) | state.eq(st(WT)));
            b.assign(
                mem.req.msg,
                state.eq(st(WT)).mux(
                    // Forward the original write.
                    req_r.ex(),
                    Expr::concat(vec![Expr::k(2, 0), Expr::k(2, 0), rf_addr, Expr::k(32, 0)]),
                ),
            );
            b.assign(mem.resp.rdy, state.eq(st(RF_WAIT)) | state.eq(st(WT_ACK)));
        });

        // State machine and memories.
        c.seq("fsm_seq", |b| {
            b.if_else(
                reset,
                |b| {
                    b.assign(state, st(IDLE));
                    b.assign(valid, Expr::k(nlines as u32, 0));
                    b.assign(cnt, Expr::k(2, 0));
                },
                |b| {
                    b.switch(state, |sw| {
                        sw.case(mtl_core::Bits::new(3, IDLE), |b| {
                            b.if_(proc.req.val, |b| {
                                b.assign(req_r, proc.req.msg);
                                b.assign(state, st(TC));
                            });
                        });
                        sw.case(mtl_core::Bits::new(3, TC), |b| {
                            b.if_else(
                                is_write,
                                |b| {
                                    // Write-through; update the line on a hit.
                                    b.if_(hit, |b| {
                                        b.mem_write(
                                            data_mem,
                                            Expr::concat(vec![r_idx.ex(), r_off.ex()]),
                                            r_data,
                                        );
                                    });
                                    b.assign(state, st(WT));
                                },
                                |b| {
                                    b.if_else(
                                        hit,
                                        |b| b.assign(state, st(RESP)),
                                        |b| {
                                            b.assign(cnt, Expr::k(2, 0));
                                            b.assign(state, st(RF_REQ));
                                        },
                                    );
                                },
                            );
                        });
                        sw.case(mtl_core::Bits::new(3, RF_REQ), |b| {
                            b.if_(mem.req.rdy, |b| b.assign(state, st(RF_WAIT)));
                        });
                        sw.case(mtl_core::Bits::new(3, RF_WAIT), |b| {
                            b.if_(mem.resp.val, |b| {
                                b.mem_write(
                                    data_mem,
                                    Expr::concat(vec![r_idx.ex(), cnt.ex()]),
                                    resp_l.get(mem.resp.msg.ex(), "data"),
                                );
                                b.if_else(
                                    cnt.eq(Expr::k(2, 3)),
                                    |b| {
                                        // Line complete: install tag + valid.
                                        b.mem_write(tag_mem, r_idx, r_tag);
                                        let one = Expr::k(1, 1).zext(nlines as u32);
                                        b.assign(
                                            valid,
                                            valid.ex() | one.sll(r_idx.zext(valid.width())),
                                        );
                                        b.assign(state, st(RESP));
                                    },
                                    |b| {
                                        b.assign(cnt, cnt + Expr::k(2, 1));
                                        b.assign(state, st(RF_REQ));
                                    },
                                );
                            });
                        });
                        sw.case(mtl_core::Bits::new(3, WT), |b| {
                            b.if_(mem.req.rdy, |b| b.assign(state, st(WT_ACK)));
                        });
                        sw.case(mtl_core::Bits::new(3, WT_ACK), |b| {
                            b.if_(mem.resp.val, |b| b.assign(state, st(RESP)));
                        });
                        sw.case(mtl_core::Bits::new(3, RESP), |b| {
                            b.if_(proc.resp.rdy, |b| b.assign(state, st(IDLE)));
                        });
                        sw.default(|_| {});
                    });
                },
            );
        });
    }
}
