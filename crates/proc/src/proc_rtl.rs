//! The RTL MtlRisc32 processor: a multicycle state machine built entirely
//! from IR blocks and a register-file component, and therefore
//! Verilog-translatable.
//!
//! The paper's tile uses a 5-stage pipelined PARC core; this repository
//! substitutes a multicycle core at the RTL level (documented in
//! `DESIGN.md`) — it exercises the same composition, translation, and EDA
//! paths, while the CL model covers pipelined timing estimation.

use mtl_core::{Component, Ctx, Expr};
use mtl_stdlib::RegisterFile;

use crate::mem_msg::{mem_req_layout, mem_resp_layout};
use crate::xcel_msg::{xcel_req_layout, xcel_resp_layout};

const F0: u128 = 0; // issue fetch request
const F1: u128 = 1; // wait for instruction
const EX: u128 = 2; // decode + execute (may wait on channels)
const MLD: u128 = 3; // wait for load response
const MST: u128 = 4; // wait for store ack
const HALTED: u128 = 5;

/// The RTL MtlRisc32 processor (same interface as
/// [`ProcFL`](crate::ProcFL)).
#[derive(Hash)]
pub struct ProcRTL;

impl Component for ProcRTL {
    #[allow(clippy::too_many_lines)]
    fn build(&self, c: &mut Ctx) {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let xreq_l = xcel_req_layout();
        let xresp_l = xcel_resp_layout();

        let imem = c.parent_reqresp("imem", req_l.width(), resp_l.width());
        let dmem = c.parent_reqresp("dmem", req_l.width(), resp_l.width());
        let xcel = c.parent_reqresp("xcel", xreq_l.width(), xresp_l.width());
        let p2m = c.out_valrdy("proc2mngr", 32);
        let m2p = c.in_valrdy("mngr2proc", 32);
        let halted = c.out_port("halted", 1);
        let instret = c.out_port("instret", 32);
        let reset = c.reset();

        // Architectural state.
        let state = c.wire("state", 3);
        let pc = c.wire("pc", 32);
        let ir = c.wire("ir", 32);
        let instret_r = c.wire("instret_r", 32);

        let rf = c.instantiate("rf", &RegisterFile::new(32, 32));
        let raddr0 = c.port_of(&rf, "raddr0");
        let raddr1 = c.port_of(&rf, "raddr1");
        let rdata0 = c.port_of(&rf, "rdata0");
        let rdata1 = c.port_of(&rf, "rdata1");
        let rf_wen = c.port_of(&rf, "wen");
        let rf_waddr = c.port_of(&rf, "waddr");
        let rf_wdata = c.port_of(&rf, "wdata");

        // Decode wires.
        let opcode = c.wire("opcode", 6);
        let fld_a = c.wire("fld_a", 5);
        let fld_b = c.wire("fld_b", 5);
        let fld_c = c.wire("fld_c", 5);
        let imm_sx = c.wire("imm_sx", 32);
        let imm_zx = c.wire("imm_zx", 32);
        let csr = c.wire("csr", 16);

        // Class flags.
        let is_alu = c.wire("is_alu", 1);
        let is_rtype = c.wire("is_rtype", 1);
        let is_lw = c.wire("is_lw", 1);
        let is_sw = c.wire("is_sw", 1);
        let is_branch = c.wire("is_branch", 1);
        let is_jal = c.wire("is_jal", 1);
        let is_jalr = c.wire("is_jalr", 1);
        let is_csrr = c.wire("is_csrr", 1);
        let is_csrw = c.wire("is_csrw", 1);
        let is_halt = c.wire("is_halt", 1);
        let csr_p2m = c.wire("csr_p2m", 1);
        let csr_m2p = c.wire("csr_m2p", 1);
        let csr_xcel = c.wire("csr_xcel", 1);
        let csr_xgo = c.wire("csr_xgo", 1);

        let alu_out = c.wire("alu_out", 32);
        let taken = c.wire("taken", 1);
        let in_ex = c.wire("in_ex", 1);
        let commit = c.wire("commit", 1);

        let k6 = |v: u128| Expr::k(6, v);

        c.comb("decode_comb", |b| {
            b.assign(opcode, ir.slice(26, 32));
            b.assign(fld_a, ir.slice(21, 26));
            b.assign(fld_b, ir.slice(16, 21));
            b.assign(fld_c, ir.slice(11, 16));
            b.assign(imm_sx, ir.slice(0, 16).sext(32));
            b.assign(imm_zx, ir.slice(0, 16).zext(32));
            b.assign(csr, ir.slice(0, 16));

            b.assign(is_rtype, opcode.lt(k6(11)));
            b.assign(is_alu, opcode.lt(k6(11)) | (opcode.ge(k6(16)) & opcode.lt(k6(21))));
            b.assign(is_lw, opcode.eq(k6(24)));
            b.assign(is_sw, opcode.eq(k6(25)));
            b.assign(is_branch, opcode.ge(k6(32)) & opcode.lt(k6(36)));
            b.assign(is_jal, opcode.eq(k6(40)));
            b.assign(is_jalr, opcode.eq(k6(41)));
            b.assign(is_csrr, opcode.eq(k6(48)));
            b.assign(is_csrw, opcode.eq(k6(49)));
            b.assign(is_halt, opcode.eq(k6(63)));
            b.assign(csr_p2m, csr.eq(Expr::k(16, 0x7C0)));
            b.assign(csr_m2p, csr.eq(Expr::k(16, 0x7C1)));
            b.assign(csr_xcel, csr.ge(Expr::k(16, 0x7E0)) & csr.lt(Expr::k(16, 0x7E4)));
            b.assign(csr_xgo, csr.eq(Expr::k(16, 0x7E0)));
            b.assign(in_ex, state.eq(Expr::k(3, EX)));
        });

        // Register file read addressing.
        c.comb("rf_read_comb", |b| {
            b.assign(raddr0, is_branch.mux(fld_a, fld_b));
            b.assign(raddr1, is_sw.mux(fld_a.ex(), is_branch.mux(fld_b.ex(), fld_c.ex())));
        });

        // ALU.
        c.comb("alu_comb", |b| {
            let op2 = is_rtype.mux(rdata1.ex(), opcode.eq(k6(16)).mux(imm_sx.ex(), imm_zx.ex()));
            let shamt = op2.clone().trunc(5).zext(32);
            b.switch(opcode, |sw| {
                let arm = |sw: &mut mtl_core::SwitchBuilder, op: u128, e: Expr| {
                    sw.case(mtl_core::Bits::new(6, op), move |b| b.assign(alu_out, e));
                };
                arm(sw, 0, rdata0 + op2.clone());
                arm(sw, 1, rdata0 - op2.clone());
                arm(sw, 2, rdata0 & op2.clone());
                arm(sw, 3, rdata0 | op2.clone());
                arm(sw, 4, rdata0 ^ op2.clone());
                arm(sw, 5, rdata0.lt_s(op2.clone()).zext(32));
                arm(sw, 6, rdata0.lt(op2.clone()).zext(32));
                arm(sw, 7, rdata0.sll(shamt.clone()));
                arm(sw, 8, rdata0.srl(shamt.clone()));
                arm(sw, 9, rdata0.ex().sra(shamt.clone()));
                arm(sw, 10, rdata0 * op2.clone());
                arm(sw, 16, rdata0 + imm_sx.ex());
                arm(sw, 17, rdata0 & imm_zx.ex());
                arm(sw, 18, rdata0 | imm_zx.ex());
                arm(sw, 19, rdata0 ^ imm_zx.ex());
                arm(sw, 20, imm_zx.ex().sll(Expr::k(5, 16)));
                sw.default(|b| b.assign(alu_out, Expr::k(32, 0)));
            });
            b.switch(opcode, |sw| {
                sw.case(mtl_core::Bits::new(6, 32), |b| b.assign(taken, rdata0.eq(rdata1)));
                sw.case(mtl_core::Bits::new(6, 33), |b| b.assign(taken, rdata0.ne(rdata1)));
                sw.case(mtl_core::Bits::new(6, 34), |b| b.assign(taken, rdata0.lt_s(rdata1)));
                sw.case(mtl_core::Bits::new(6, 35), |b| b.assign(taken, !rdata0.lt_s(rdata1)));
                sw.default(|b| b.assign(taken, Expr::bool(false)));
            });
        });

        // Interface outputs.
        c.comb("ifc_comb", |b| {
            // imem request: read at pc.
            b.assign(imem.req.val, state.eq(Expr::k(3, F0)));
            b.assign(
                imem.req.msg,
                Expr::concat(vec![Expr::k(2, 0), Expr::k(2, 0), pc.ex(), Expr::k(32, 0)]),
            );
            b.assign(imem.resp.rdy, state.eq(Expr::k(3, F1)));

            // dmem request in EX for lw/sw.
            let addr = rdata0 + imm_sx.ex();
            b.assign(dmem.req.val, in_ex.ex() & (is_lw.ex() | is_sw.ex()));
            b.assign(
                dmem.req.msg,
                Expr::concat(vec![
                    is_sw.mux(Expr::k(2, 1), Expr::k(2, 0)),
                    Expr::k(2, 0),
                    addr,
                    rdata1.ex(),
                ]),
            );
            b.assign(dmem.resp.rdy, state.eq(Expr::k(3, MLD)) | state.eq(Expr::k(3, MST)));

            // Accelerator interface.
            b.assign(xcel.req.val, in_ex.ex() & is_csrw.ex() & csr_xcel.ex());
            b.assign(xcel.req.msg, Expr::concat(vec![csr.slice(0, 2), rdata0.ex()]));
            b.assign(xcel.resp.rdy, in_ex.ex() & is_csrr.ex() & csr_xgo.ex());

            // Manager channels.
            b.assign(p2m.val, in_ex.ex() & is_csrw.ex() & csr_p2m.ex());
            b.assign(p2m.msg, rdata0.ex());
            b.assign(m2p.rdy, in_ex.ex() & is_csrr.ex() & csr_m2p.ex());

            // Status.
            b.assign(halted, state.eq(Expr::k(3, HALTED)));
            b.assign(instret, instret_r.ex());
        });

        // Register file write port.
        c.comb("rf_write_comb", |b| {
            let ex_alu_wen = in_ex.ex() & is_alu.ex();
            let ex_link_wen = in_ex.ex() & (is_jal.ex() | is_jalr.ex());
            let ex_m2p_wen = in_ex.ex() & is_csrr.ex() & csr_m2p.ex() & m2p.val.ex();
            let ex_xcel_wen = in_ex.ex() & is_csrr.ex() & csr_xgo.ex() & xcel.resp.val.ex();
            let ld_wen = state.eq(Expr::k(3, MLD)) & dmem.resp.val.ex();
            b.assign(
                rf_wen,
                ex_alu_wen.clone()
                    | ex_link_wen.clone()
                    | ex_m2p_wen.clone()
                    | ex_xcel_wen.clone()
                    | ld_wen.clone(),
            );
            b.assign(rf_waddr, fld_a.ex());
            let resp_data = resp_l.get(dmem.resp.msg.ex(), "data");
            let xresp_data = xresp_l.get(xcel.resp.msg.ex(), "data");
            let wdata = ld_wen.mux(
                resp_data,
                ex_link_wen.mux(
                    pc + Expr::k(32, 4),
                    ex_m2p_wen.mux(m2p.msg.ex(), ex_xcel_wen.mux(xresp_data, alu_out.ex())),
                ),
            );
            b.assign(rf_wdata, wdata);

            // Commit (instruction retires this cycle).
            b.assign(
                commit,
                (in_ex.ex()
                    & (is_alu.ex()
                        | is_branch.ex()
                        | is_jal.ex()
                        | is_jalr.ex()
                        | is_halt.ex()
                        | (is_csrw.ex() & csr_p2m.ex() & p2m.rdy.ex())
                        | (is_csrw.ex() & csr_xcel.ex() & xcel.req.rdy.ex())
                        | (is_csrr.ex() & csr_m2p.ex() & m2p.val.ex())
                        | (is_csrr.ex() & csr_xgo.ex() & xcel.resp.val.ex())))
                    | ((state.eq(Expr::k(3, MLD)) | state.eq(Expr::k(3, MST)))
                        & dmem.resp.val.ex()),
            );
        });

        // State machine.
        let pc4 = pc + Expr::k(32, 4);
        let btarget = pc + imm_sx.ex().sll(Expr::k(2, 2));
        c.seq("fsm_seq", |b| {
            b.if_else(
                reset,
                |b| {
                    b.assign(state, Expr::k(3, F0));
                    b.assign(pc, Expr::k(32, 0));
                    b.assign(instret_r, Expr::k(32, 0));
                },
                |b| {
                    b.if_(commit, |b| {
                        b.assign(instret_r, instret_r + Expr::k(32, 1));
                    });
                    b.switch(state, |sw| {
                        sw.case(mtl_core::Bits::new(3, F0), |b| {
                            b.if_(imem.req.rdy, |b| b.assign(state, Expr::k(3, F1)));
                        });
                        sw.case(mtl_core::Bits::new(3, F1), |b| {
                            b.if_(imem.resp.val, |b| {
                                b.assign(ir, resp_l.get(imem.resp.msg.ex(), "data"));
                                b.assign(state, Expr::k(3, EX));
                            });
                        });
                        sw.case(mtl_core::Bits::new(3, EX), |b| {
                            b.if_(is_alu, |b| {
                                b.assign(pc, pc4.clone());
                                b.assign(state, Expr::k(3, F0));
                            });
                            b.if_(is_lw.ex() & dmem.req.rdy.ex(), |b| {
                                b.assign(pc, pc4.clone());
                                b.assign(state, Expr::k(3, MLD));
                            });
                            b.if_(is_sw.ex() & dmem.req.rdy.ex(), |b| {
                                b.assign(pc, pc4.clone());
                                b.assign(state, Expr::k(3, MST));
                            });
                            b.if_(is_branch, |b| {
                                b.assign(pc, taken.mux(btarget.clone(), pc4.clone()));
                                b.assign(state, Expr::k(3, F0));
                            });
                            b.if_(is_jal, |b| {
                                b.assign(pc, btarget.clone());
                                b.assign(state, Expr::k(3, F0));
                            });
                            b.if_(is_jalr, |b| {
                                b.assign(pc, rdata0 + imm_sx.ex());
                                b.assign(state, Expr::k(3, F0));
                            });
                            b.if_(
                                is_csrw.ex()
                                    & ((csr_p2m.ex() & p2m.rdy.ex())
                                        | (csr_xcel.ex() & xcel.req.rdy.ex())),
                                |b| {
                                    b.assign(pc, pc4.clone());
                                    b.assign(state, Expr::k(3, F0));
                                },
                            );
                            b.if_(
                                is_csrr.ex()
                                    & ((csr_m2p.ex() & m2p.val.ex())
                                        | (csr_xgo.ex() & xcel.resp.val.ex())),
                                |b| {
                                    b.assign(pc, pc4.clone());
                                    b.assign(state, Expr::k(3, F0));
                                },
                            );
                            b.if_(is_halt, |b| {
                                b.assign(state, Expr::k(3, HALTED));
                            });
                        });
                        sw.case(mtl_core::Bits::new(3, MLD), |b| {
                            b.if_(dmem.resp.val, |b| b.assign(state, Expr::k(3, F0)));
                        });
                        sw.case(mtl_core::Bits::new(3, MST), |b| {
                            b.if_(dmem.resp.val, |b| b.assign(state, Expr::k(3, F0)));
                        });
                        sw.default(|_| {});
                    });
                },
            );
        });
    }
}
