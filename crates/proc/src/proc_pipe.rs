//! The 5-stage pipelined RTL processor (`ProcPipeRTL`): F/D/X/M/W with
//! scoreboard interlocks, epoch-tagged speculative fetch, and
//! latency-insensitive memory/coprocessor interfaces — the paper's tile
//! core microarchitecture, fully IR-based and Verilog-translatable.
//!
//! Microarchitecture summary:
//!
//! * **F** — one outstanding epoch-tagged fetch (the epoch rides in the
//!   memory request's `opaque` field, so squashed fetches are dropped
//!   when their response returns with a stale tag);
//! * **D** — register read + scoreboard stall against destinations in
//!   X/M/W (stall-based interlock, no bypass network);
//! * **X** — ALU, branch resolution, and redirect (taken branches and
//!   jumps flush F/D and flip the fetch epoch);
//! * **M** — memory and coprocessor/manager channel operations as a
//!   two-state request/response machine;
//! * **W** — register writeback and retirement.

use mtl_core::{Component, Ctx, Expr, SignalRef};
use mtl_stdlib::RegisterFile;

use crate::mem_msg::{mem_req_layout, mem_resp_layout};
use crate::xcel_msg::{xcel_req_layout, xcel_resp_layout};

/// Per-stage instruction decode wires, generated once per pipeline stage
/// by ordinary Rust elaboration code.
struct Decode {
    a: SignalRef,
    b: SignalRef,
    cf: SignalRef,
    imm_sx: SignalRef,
    csr: SignalRef,
    is_alu: SignalRef,
    is_rtype: SignalRef,
    is_lw: SignalRef,
    is_sw: SignalRef,
    is_branch: SignalRef,
    is_jal: SignalRef,
    is_jalr: SignalRef,
    is_csrr: SignalRef,
    is_csrw: SignalRef,
    is_halt: SignalRef,
    csr_p2m: SignalRef,
    csr_m2p: SignalRef,
    csr_xcel: SignalRef,
    csr_xgo: SignalRef,
    has_rd: SignalRef,
    reads_rs1: SignalRef,
    reads_rs2: SignalRef,
    rs1_field: SignalRef,
    rs2_field: SignalRef,
}

fn decode(c: &mut Ctx, prefix: &str, instr: SignalRef) -> Decode {
    let w = |c: &mut Ctx, n: &str, width: u32| c.wire(&format!("{prefix}_{n}"), width);
    let d = Decode {
        a: w(c, "a", 5),
        b: w(c, "b", 5),
        cf: w(c, "c", 5),
        imm_sx: w(c, "imm_sx", 32),
        csr: w(c, "csr", 16),
        is_alu: w(c, "is_alu", 1),
        is_rtype: w(c, "is_rtype", 1),
        is_lw: w(c, "is_lw", 1),
        is_sw: w(c, "is_sw", 1),
        is_branch: w(c, "is_branch", 1),
        is_jal: w(c, "is_jal", 1),
        is_jalr: w(c, "is_jalr", 1),
        is_csrr: w(c, "is_csrr", 1),
        is_csrw: w(c, "is_csrw", 1),
        is_halt: w(c, "is_halt", 1),
        csr_p2m: w(c, "csr_p2m", 1),
        csr_m2p: w(c, "csr_m2p", 1),
        csr_xcel: w(c, "csr_xcel", 1),
        csr_xgo: w(c, "csr_xgo", 1),
        has_rd: w(c, "has_rd", 1),
        reads_rs1: w(c, "reads_rs1", 1),
        reads_rs2: w(c, "reads_rs2", 1),
        rs1_field: w(c, "rs1_field", 5),
        rs2_field: w(c, "rs2_field", 5),
    };
    let k6 = |v: u128| Expr::k(6, v);
    let op = instr.slice(26, 32);
    c.comb(&format!("{prefix}_decode"), |bd| {
        bd.assign(d.a, instr.slice(21, 26));
        bd.assign(d.b, instr.slice(16, 21));
        bd.assign(d.cf, instr.slice(11, 16));
        bd.assign(d.imm_sx, instr.slice(0, 16).sext(32));
        bd.assign(d.csr, instr.slice(0, 16));

        bd.assign(d.is_rtype, op.clone().lt(k6(11)));
        bd.assign(
            d.is_alu,
            op.clone().lt(k6(11)) | (op.clone().ge(k6(16)) & op.clone().lt(k6(21))),
        );
        bd.assign(d.is_lw, op.clone().eq(k6(24)));
        bd.assign(d.is_sw, op.clone().eq(k6(25)));
        bd.assign(d.is_branch, op.clone().ge(k6(32)) & op.clone().lt(k6(36)));
        bd.assign(d.is_jal, op.clone().eq(k6(40)));
        bd.assign(d.is_jalr, op.clone().eq(k6(41)));
        bd.assign(d.is_csrr, op.clone().eq(k6(48)));
        bd.assign(d.is_csrw, op.clone().eq(k6(49)));
        bd.assign(d.is_halt, op.clone().eq(k6(63)));
        bd.assign(d.csr_p2m, d.csr.eq(Expr::k(16, 0x7C0)));
        bd.assign(d.csr_m2p, d.csr.eq(Expr::k(16, 0x7C1)));
        bd.assign(d.csr_xcel, d.csr.ge(Expr::k(16, 0x7E0)) & d.csr.lt(Expr::k(16, 0x7E4)));
        bd.assign(d.csr_xgo, d.csr.eq(Expr::k(16, 0x7E0)));
        bd.assign(
            d.has_rd,
            d.is_alu.ex() | d.is_lw.ex() | d.is_jal.ex() | d.is_jalr.ex() | d.is_csrr.ex(),
        );
        bd.assign(d.reads_rs1, !(d.is_jal.ex() | d.is_halt.ex() | d.is_csrr.ex()));
        bd.assign(d.reads_rs2, d.is_rtype.ex() | d.is_branch.ex() | d.is_sw.ex());
        bd.assign(d.rs1_field, d.is_branch.mux(d.a, d.b));
        bd.assign(d.rs2_field, d.is_sw.mux(d.a.ex(), d.is_branch.mux(d.b.ex(), d.cf.ex())));
    });
    d
}

/// The 5-stage pipelined RTL MtlRisc32 processor (same port interface as
/// [`ProcFL`](crate::ProcFL) / [`ProcRTL`](crate::ProcRTL)).
#[derive(Hash)]
pub struct ProcPipeRTL;

impl Component for ProcPipeRTL {
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

        // --- Architectural + pipeline state --------------------------------
        let pc_f = c.wire("pc_f", 32);
        let epoch = c.wire("epoch", 1);
        let fetch_pending = c.wire("fetch_pending", 1);
        let fetch_pc = c.wire("fetch_pc", 32);
        let halt_seen = c.wire("halt_seen", 1);
        let halted_r = c.wire("halted_r", 1);
        let instret_r = c.wire("instret_r", 32);

        let fd_instr = c.wire("fd_instr", 32);
        let fd_pc = c.wire("fd_pc", 32);
        let fd_valid = c.wire("fd_valid", 1);
        let dx_instr = c.wire("dx_instr", 32);
        let dx_pc = c.wire("dx_pc", 32);
        let dx_rs1 = c.wire("dx_rs1", 32);
        let dx_rs2 = c.wire("dx_rs2", 32);
        let dx_valid = c.wire("dx_valid", 1);
        let xm_instr = c.wire("xm_instr", 32);
        let xm_result = c.wire("xm_result", 32);
        let xm_sdata = c.wire("xm_sdata", 32);
        let xm_valid = c.wire("xm_valid", 1);
        let mw_instr = c.wire("mw_instr", 32);
        let mw_result = c.wire("mw_result", 32);
        let mw_valid = c.wire("mw_valid", 1);
        let m_state = c.wire("m_state", 1);

        // Per-stage decodes (generated logic).
        let fd = decode(c, "fd", fd_instr);
        let dx = decode(c, "dx", dx_instr);
        let xm = decode(c, "xm", xm_instr);
        let mw = decode(c, "mw", mw_instr);

        // --- Register file ---------------------------------------------------
        let rf = c.instantiate("rf", &RegisterFile::new(32, 32));
        let raddr0 = c.port_of(&rf, "raddr0");
        let raddr1 = c.port_of(&rf, "raddr1");
        let rdata0 = c.port_of(&rf, "rdata0");
        let rdata1 = c.port_of(&rf, "rdata1");
        let rf_wen = c.port_of(&rf, "wen");
        let rf_waddr = c.port_of(&rf, "waddr");
        let rf_wdata = c.port_of(&rf, "wdata");

        c.comb("rf_read_comb", |b| {
            b.assign(raddr0, fd.rs1_field.ex());
            b.assign(raddr1, fd.rs2_field.ex());
        });
        c.comb("rf_write_comb", |b| {
            b.assign(rf_wen, mw_valid.ex() & mw.has_rd.ex());
            b.assign(rf_waddr, mw.a.ex());
            b.assign(rf_wdata, mw_result.ex());
        });

        // --- X-stage ALU and branch resolution -------------------------------
        let alu_out = c.wire("alu_out", 32);
        let taken = c.wire("taken", 1);
        let opx = dx_instr.slice(26, 32);
        c.comb("alu_comb", |b| {
            let op2 = dx.is_rtype.mux(
                dx_rs2.ex(),
                opx.clone().eq(Expr::k(6, 16)).mux(dx.imm_sx.ex(), dx_instr.slice(0, 16).zext(32)),
            );
            let shamt = op2.clone().trunc(5).zext(32);
            b.switch(opx.clone(), |sw| {
                let arm = |sw: &mut mtl_core::SwitchBuilder, op: u128, e: Expr| {
                    sw.case(mtl_core::Bits::new(6, op), move |b| b.assign(alu_out, e));
                };
                arm(sw, 0, dx_rs1 + op2.clone());
                arm(sw, 1, dx_rs1 - op2.clone());
                arm(sw, 2, dx_rs1 & op2.clone());
                arm(sw, 3, dx_rs1 | op2.clone());
                arm(sw, 4, dx_rs1 ^ op2.clone());
                arm(sw, 5, dx_rs1.lt_s(op2.clone()).zext(32));
                arm(sw, 6, dx_rs1.lt(op2.clone()).zext(32));
                arm(sw, 7, dx_rs1.sll(shamt.clone()));
                arm(sw, 8, dx_rs1.srl(shamt.clone()));
                arm(sw, 9, dx_rs1.ex().sra(shamt.clone()));
                arm(sw, 10, dx_rs1 * op2.clone());
                arm(sw, 16, dx_rs1 + dx.imm_sx.ex());
                arm(sw, 17, dx_rs1 & dx_instr.slice(0, 16).zext(32));
                arm(sw, 18, dx_rs1 | dx_instr.slice(0, 16).zext(32));
                arm(sw, 19, dx_rs1 ^ dx_instr.slice(0, 16).zext(32));
                arm(sw, 20, dx_instr.slice(0, 16).zext(32).sll(Expr::k(5, 16)));
                arm(sw, 24, dx_rs1 + dx.imm_sx.ex()); // lw address
                arm(sw, 25, dx_rs1 + dx.imm_sx.ex()); // sw address
                sw.default(|b| b.assign(alu_out, Expr::k(32, 0)));
            });
            b.switch(opx, |sw| {
                sw.case(mtl_core::Bits::new(6, 32), |b| b.assign(taken, dx_rs1.eq(dx_rs2)));
                sw.case(mtl_core::Bits::new(6, 33), |b| b.assign(taken, dx_rs1.ne(dx_rs2)));
                sw.case(mtl_core::Bits::new(6, 34), |b| b.assign(taken, dx_rs1.lt_s(dx_rs2)));
                sw.case(mtl_core::Bits::new(6, 35), |b| b.assign(taken, !dx_rs1.lt_s(dx_rs2)));
                sw.default(|b| b.assign(taken, Expr::bool(false)));
            });
        });

        // --- Pipeline control -------------------------------------------------
        let is_mem_m = c.wire("is_mem_m", 1);
        let m_done = c.wire("m_done", 1);
        let xfer_xm_mw = c.wire("xfer_xm_mw", 1);
        let xfer_dx_xm = c.wire("xfer_dx_xm", 1);
        let xfer_fd_dx = c.wire("xfer_fd_dx", 1);
        let hazard = c.wire("hazard", 1);
        let redirect = c.wire("redirect", 1);
        let redirect_target = c.wire("redirect_target", 32);

        c.comb("m_ctrl_comb", |b| {
            b.assign(is_mem_m, xm.is_lw.ex() | xm.is_sw.ex());
            let immediate = xm.is_alu.ex()
                | xm.is_branch.ex()
                | xm.is_jal.ex()
                | xm.is_jalr.ex()
                | xm.is_halt.ex();
            let mem_done = is_mem_m.ex() & m_state.ex() & dmem.resp.val.ex();
            let p2m_done = xm.is_csrw.ex() & xm.csr_p2m.ex() & p2m.rdy.ex();
            let xw_done = xm.is_csrw.ex() & xm.csr_xcel.ex() & xcel.req.rdy.ex();
            let m2p_done = xm.is_csrr.ex() & xm.csr_m2p.ex() & m2p.val.ex();
            let xr_done = xm.is_csrr.ex() & xm.csr_xgo.ex() & xcel.resp.val.ex();
            b.assign(
                m_done,
                xm_valid.ex() & (immediate | mem_done | p2m_done | xw_done | m2p_done | xr_done),
            );
        });

        c.comb("hazard_comb", |b| {
            // A source register in D conflicts with any in-flight
            // destination in X/M/W.
            let busy = |field: SignalRef| -> Expr {
                let nz = field.ne(Expr::k(5, 0));
                let in_x = dx_valid.ex() & dx.has_rd.ex() & field.eq(dx.a);
                let in_m = xm_valid.ex() & xm.has_rd.ex() & field.eq(xm.a);
                let in_w = mw_valid.ex() & mw.has_rd.ex() & field.eq(mw.a);
                nz & (in_x | in_m | in_w)
            };
            b.assign(
                hazard,
                (fd.reads_rs1.ex() & busy(fd.rs1_field)) | (fd.reads_rs2.ex() & busy(fd.rs2_field)),
            );
        });

        c.comb("xfer_comb", |b| {
            b.assign(xfer_xm_mw, m_done);
            let xm_ready = !xm_valid.ex() | m_done.ex();
            b.assign(xfer_dx_xm, dx_valid.ex() & xm_ready);
            let dx_ready = !dx_valid.ex() | xfer_dx_xm.ex();
            b.assign(xfer_fd_dx, fd_valid.ex() & dx_ready & !hazard.ex() & !halt_seen.ex());
            b.assign(
                redirect,
                xfer_dx_xm.ex()
                    & (dx.is_jal.ex() | dx.is_jalr.ex() | (dx.is_branch.ex() & taken.ex())),
            );
            let btarget = dx_pc + dx.imm_sx.ex().sll(Expr::k(2, 2));
            b.assign(redirect_target, dx.is_jalr.mux(dx_rs1 + dx.imm_sx.ex(), btarget));
        });

        // --- Interface outputs -------------------------------------------------
        let resp_stale = c.wire("resp_stale", 1);
        c.comb("ifc_comb", |b| {
            // Instruction fetch with epoch-tagged opaque.
            let fd_free = !fd_valid.ex() | xfer_fd_dx.ex();
            b.assign(
                imem.req.val,
                !fetch_pending.ex() & !halt_seen.ex() & !halted_r.ex() & fd_free.clone(),
            );
            b.assign(
                imem.req.msg,
                Expr::concat(vec![
                    Expr::k(2, 0),
                    Expr::concat(vec![Expr::k(1, 0), epoch.ex()]),
                    pc_f.ex(),
                    Expr::k(32, 0),
                ]),
            );
            b.assign(resp_stale, resp_l.get(imem.resp.msg.ex(), "opaque").trunc(1).ne(epoch.ex()));
            b.assign(imem.resp.rdy, fd_free | resp_stale.ex());

            // Data memory from M.
            b.assign(dmem.req.val, xm_valid.ex() & is_mem_m.ex() & !m_state.ex());
            b.assign(
                dmem.req.msg,
                Expr::concat(vec![
                    xm.is_sw.mux(Expr::k(2, 1), Expr::k(2, 0)),
                    Expr::k(2, 0),
                    xm_result.ex(),
                    xm_sdata.ex(),
                ]),
            );
            b.assign(dmem.resp.rdy, m_state.ex());

            // Coprocessor + manager channels from M.
            b.assign(xcel.req.val, xm_valid.ex() & xm.is_csrw.ex() & xm.csr_xcel.ex());
            b.assign(xcel.req.msg, Expr::concat(vec![xm.csr.slice(0, 2), xm_result.ex()]));
            b.assign(xcel.resp.rdy, xm_valid.ex() & xm.is_csrr.ex() & xm.csr_xgo.ex());
            b.assign(p2m.val, xm_valid.ex() & xm.is_csrw.ex() & xm.csr_p2m.ex());
            b.assign(p2m.msg, xm_result.ex());
            b.assign(m2p.rdy, xm_valid.ex() & xm.is_csrr.ex() & xm.csr_m2p.ex());

            b.assign(halted, halted_r.ex());
            b.assign(instret, instret_r.ex());
        });

        // --- The pipeline's sequential behavior ---------------------------------
        let resp_data = resp_l.get(imem.resp.msg.ex(), "data");
        let dresp_data = resp_l.get(dmem.resp.msg.ex(), "data");
        let xresp_data = xresp_l.get(xcel.resp.msg.ex(), "data");
        c.seq("pipe_seq", |b| {
            b.if_else(
                reset,
                |b| {
                    b.assign(pc_f, Expr::k(32, 0));
                    b.assign(epoch, Expr::k(1, 0));
                    b.assign(fetch_pending, Expr::k(1, 0));
                    b.assign(halt_seen, Expr::k(1, 0));
                    b.assign(halted_r, Expr::k(1, 0));
                    b.assign(fd_valid, Expr::k(1, 0));
                    b.assign(dx_valid, Expr::k(1, 0));
                    b.assign(xm_valid, Expr::k(1, 0));
                    b.assign(mw_valid, Expr::k(1, 0));
                    b.assign(m_state, Expr::k(1, 0));
                    b.assign(instret_r, Expr::k(32, 0));
                },
                |b| {
                    // W: retire.
                    b.if_(mw_valid, |b| {
                        b.assign(instret_r, instret_r + Expr::k(32, 1));
                    });
                    // M -> W.
                    b.assign(mw_valid, xfer_xm_mw.ex());
                    b.if_(xfer_xm_mw, |b| {
                        b.assign(mw_instr, xm_instr.ex());
                        let result = (xm.is_lw.ex() & m_state.ex()).mux(
                            dresp_data.clone(),
                            (xm.is_csrr.ex() & xm.csr_m2p.ex()).mux(
                                m2p.msg.ex(),
                                (xm.is_csrr.ex() & xm.csr_xgo.ex())
                                    .mux(xresp_data.clone(), xm_result.ex()),
                            ),
                        );
                        b.assign(mw_result, result);
                        b.if_(xm.is_halt, |b| b.assign(halted_r, Expr::bool(true)));
                    });
                    // M-stage request/response FSM.
                    b.if_(xm_valid.ex() & is_mem_m.ex(), |b| {
                        b.if_(!m_state.ex() & dmem.req.rdy.ex(), |b| {
                            b.assign(m_state, Expr::k(1, 1));
                        });
                        b.if_(m_state.ex() & dmem.resp.val.ex(), |b| {
                            b.assign(m_state, Expr::k(1, 0));
                        });
                    });
                    // X -> M.
                    b.if_else(
                        xfer_dx_xm,
                        |b| {
                            b.assign(xm_instr, dx_instr.ex());
                            b.assign(xm_valid, Expr::bool(true));
                            let link = dx_pc + Expr::k(32, 4);
                            let result = dx.is_csrw.mux(
                                dx_rs1.ex(),
                                (dx.is_jal.ex() | dx.is_jalr.ex()).mux(link, alu_out.ex()),
                            );
                            b.assign(xm_result, result);
                            b.assign(xm_sdata, dx_rs2.ex());
                        },
                        |b| {
                            b.if_(m_done, |b| b.assign(xm_valid, Expr::bool(false)));
                        },
                    );
                    // D -> X.
                    b.if_else(
                        xfer_fd_dx,
                        |b| {
                            b.assign(dx_instr, fd_instr.ex());
                            b.assign(dx_pc, fd_pc.ex());
                            b.assign(dx_rs1, rdata0.ex());
                            b.assign(dx_rs2, rdata1.ex());
                            b.assign(dx_valid, Expr::bool(true));
                            b.if_(fd.is_halt, |b| b.assign(halt_seen, Expr::bool(true)));
                        },
                        |b| {
                            b.if_(xfer_dx_xm, |b| b.assign(dx_valid, Expr::bool(false)));
                        },
                    );
                    // FD bookkeeping (consume, then maybe refill).
                    b.if_(xfer_fd_dx, |b| b.assign(fd_valid, Expr::bool(false)));
                    // Fetch response.
                    b.if_(imem.resp.val.ex() & imem.resp.rdy.ex(), |b| {
                        b.assign(fetch_pending, Expr::bool(false));
                        b.if_(!resp_stale.ex(), |b| {
                            b.assign(fd_instr, resp_data.clone());
                            b.assign(fd_pc, fetch_pc.ex());
                            b.assign(fd_valid, Expr::bool(true));
                        });
                    });
                    // Fetch request.
                    b.if_(imem.req.val.ex() & imem.req.rdy.ex(), |b| {
                        b.assign(fetch_pending, Expr::bool(true));
                        b.assign(fetch_pc, pc_f.ex());
                        b.assign(pc_f, pc_f + Expr::k(32, 4));
                    });
                    // Redirect overrides everything younger.
                    b.if_(redirect, |b| {
                        b.assign(pc_f, redirect_target.ex());
                        b.assign(epoch, !epoch.ex());
                        b.assign(fd_valid, Expr::bool(false));
                        b.assign(dx_valid, Expr::bool(false));
                    });
                },
            );
        });
    }
}
