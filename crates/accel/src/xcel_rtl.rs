//! The RTL dot-product accelerator (the paper's Figure 9, folded into a
//! multicycle datapath + control FSM; see `DESIGN.md` for the pipeline
//! substitution note). Fully IR-based and Verilog-translatable.

use mtl_core::{Component, Ctx, Expr};
use mtl_proc::{mem_req_layout, mem_resp_layout, xcel_req_layout, xcel_resp_layout};

const IDLE: u128 = 0;
const REQ0: u128 = 1;
const WAIT0: u128 = 2;
const REQ1: u128 = 3;
const WAIT1: u128 = 4;
const RESP: u128 = 5;

/// The RTL dot-product accelerator (same ports as
/// [`DotProductFL`](crate::DotProductFL)).
#[derive(Hash)]
pub struct DotProductRTL;

impl Component for DotProductRTL {
    fn build(&self, c: &mut Ctx) {
        let xreq_l = xcel_req_layout();
        let xresp_l = xcel_resp_layout();
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let _ = xresp_l;

        let cpu = c.child_reqresp("cpu", xreq_l.width(), xresp_l.width());
        let mem = c.parent_reqresp("mem", req_l.width(), resp_l.width());
        let reset = c.reset();

        let state = c.wire("state", 3);
        let size = c.wire("size", 32);
        let src0 = c.wire("src0", 32);
        let src1 = c.wire("src1", 32);
        let count = c.wire("count", 32);
        let op_a = c.wire("op_a", 32);
        let accum = c.wire("accum", 32);

        let st = |v: u128| Expr::k(3, v);

        c.comb("ifc_comb", |b| {
            b.assign(cpu.req.rdy, state.eq(st(IDLE)));
            b.assign(cpu.resp.val, state.eq(st(RESP)));
            b.assign(cpu.resp.msg, accum.ex());

            let base = state.eq(st(REQ0)).mux(src0.ex(), src1.ex());
            let addr = base + count.sll(Expr::k(2, 2));
            b.assign(mem.req.val, state.eq(st(REQ0)) | state.eq(st(REQ1)));
            b.assign(
                mem.req.msg,
                Expr::concat(vec![Expr::k(2, 0), Expr::k(2, 0), addr, Expr::k(32, 0)]),
            );
            b.assign(mem.resp.rdy, state.eq(st(WAIT0)) | state.eq(st(WAIT1)));
        });

        let ctrl = xreq_l.get(cpu.req.msg.ex(), "ctrl");
        let data = xreq_l.get(cpu.req.msg.ex(), "data");
        let mdata = resp_l.get(mem.resp.msg.ex(), "data");

        c.seq("fsm_seq", |b| {
            b.if_else(
                reset,
                |b| {
                    b.assign(state, st(IDLE));
                    b.assign(accum, Expr::k(32, 0));
                    b.assign(count, Expr::k(32, 0));
                },
                |b| {
                    b.switch(state, |sw| {
                        sw.case(mtl_core::Bits::new(3, IDLE), |b| {
                            b.if_(cpu.req.val, |b| {
                                b.switch(ctrl.clone(), |sw| {
                                    sw.case(mtl_core::Bits::new(2, 1), |b| {
                                        b.assign(size, data.clone())
                                    });
                                    sw.case(mtl_core::Bits::new(2, 2), |b| {
                                        b.assign(src0, data.clone())
                                    });
                                    sw.case(mtl_core::Bits::new(2, 3), |b| {
                                        b.assign(src1, data.clone())
                                    });
                                    sw.default(|b| {
                                        // go: start (or finish immediately
                                        // for a zero-length vector).
                                        b.assign(accum, Expr::k(32, 0));
                                        b.assign(count, Expr::k(32, 0));
                                        b.if_else(
                                            size.eq(Expr::k(32, 0)),
                                            |b| b.assign(state, st(RESP)),
                                            |b| b.assign(state, st(REQ0)),
                                        );
                                    });
                                });
                            });
                        });
                        sw.case(mtl_core::Bits::new(3, REQ0), |b| {
                            b.if_(mem.req.rdy, |b| b.assign(state, st(WAIT0)));
                        });
                        sw.case(mtl_core::Bits::new(3, WAIT0), |b| {
                            b.if_(mem.resp.val, |b| {
                                b.assign(op_a, mdata.clone());
                                b.assign(state, st(REQ1));
                            });
                        });
                        sw.case(mtl_core::Bits::new(3, REQ1), |b| {
                            b.if_(mem.req.rdy, |b| b.assign(state, st(WAIT1)));
                        });
                        sw.case(mtl_core::Bits::new(3, WAIT1), |b| {
                            b.if_(mem.resp.val, |b| {
                                b.assign(accum, accum + (op_a * mdata.clone()));
                                b.assign(count, count + Expr::k(32, 1));
                                b.if_else(
                                    count.eq(size - Expr::k(32, 1)),
                                    |b| b.assign(state, st(RESP)),
                                    |b| b.assign(state, st(REQ0)),
                                );
                            });
                        });
                        sw.case(mtl_core::Bits::new(3, RESP), |b| {
                            b.if_(cpu.resp.rdy, |b| b.assign(state, st(IDLE)));
                        });
                        sw.default(|_| {});
                    });
                },
            );
        });
    }
}
