//! The cycle-level processor model: pipelined fetch with an epoch-based
//! redirect scheme and single-issue execution, approximating a 5-stage
//! in-order pipeline's timing without modeling individual stages.

use std::collections::VecDeque;

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, InValRdyQueue, OutValRdyQueue};

use crate::isa::{Instr, CSR_MNGR2PROC, CSR_PROC2MNGR, CSR_XCEL_GO};
use crate::mem_msg::{mem_read_req, mem_req_layout, mem_resp_layout, mem_write_req};
use crate::proc_fl::{alu, branch, csr_to_ctrl};
use crate::xcel_msg::{xcel_req, xcel_req_layout, xcel_resp_layout};

const MAX_INFLIGHT_FETCH: usize = 2;

/// The CL MtlRisc32 processor (same interface as
/// [`ProcFL`](crate::ProcFL)).
///
/// Fetch runs ahead speculatively along the fall-through path; taken
/// branches flush in-flight fetches (an epoch counter drops stale
/// responses), which naturally models the branch penalty. Loads block
/// execution until their response returns, stores retire when accepted.
#[derive(Hash)]
pub struct ProcCL;

impl Component for ProcCL {
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

        let mut imem_req = OutValRdyQueue::new(imem.req, 2);
        let mut imem_resp = InValRdyQueue::new(imem.resp, 2);
        let mut dmem_req = OutValRdyQueue::new(dmem.req, 2);
        let mut dmem_resp = InValRdyQueue::new(dmem.resp, 2);
        let mut xcel_req_q = OutValRdyQueue::new(xcel.req, 2);
        let mut xcel_resp_q = InValRdyQueue::new(xcel.resp, 2);
        let mut p2m_q = OutValRdyQueue::new(p2m, 2);
        let mut m2p_q = InValRdyQueue::new(m2p, 2);

        let mut reads = vec![reset];
        let mut writes = vec![halted, instret];
        for q in [&imem_req, &dmem_req, &xcel_req_q, &p2m_q] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }
        for q in [&imem_resp, &dmem_resp, &xcel_resp_q, &m2p_q] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }

        // Architectural and microarchitectural state.
        let mut regs = [0u32; 32];
        let mut fetch_pc = 0u32;
        let mut epoch = 0u8;
        // (pc, epoch) of requests in flight, oldest first.
        let mut pending: VecDeque<(u32, u8)> = VecDeque::new();
        // Fetched instructions ready to execute.
        let mut ibuf: VecDeque<(u32, Instr)> = VecDeque::new();
        #[derive(PartialEq)]
        enum Wait {
            None,
            Load(u8),
            Store,
            Xcel(u8),
        }
        let mut wait = Wait::None;
        let mut retired = 0u32;
        let mut is_halted = false;

        c.tick_cl("proc_cl_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                regs = [0; 32];
                fetch_pc = 0;
                epoch = 0;
                pending.clear();
                ibuf.clear();
                wait = Wait::None;
                retired = 0;
                is_halted = false;
                s.write_next(halted.id(), Bits::from_bool(false));
                s.write_next(instret.id(), Bits::new(32, 0));
                imem_req.reset(s);
                imem_resp.reset(s);
                dmem_req.reset(s);
                dmem_resp.reset(s);
                xcel_req_q.reset(s);
                xcel_resp_q.reset(s);
                p2m_q.reset(s);
                m2p_q.reset(s);
                return;
            }
            imem_req.xtick(s);
            imem_resp.xtick(s);
            dmem_req.xtick(s);
            dmem_resp.xtick(s);
            xcel_req_q.xtick(s);
            xcel_resp_q.xtick(s);
            p2m_q.xtick(s);
            m2p_q.xtick(s);

            {
                let rv = |r: u8, regs: &[u32; 32]| if r == 0 { 0 } else { regs[r as usize] };

                // --- Fetch responses -> instruction buffer --------------
                while let Some(resp) = imem_resp.pop() {
                    let (pc, ep) = pending.pop_front().expect("imem resp without request");
                    if ep == epoch {
                        let word = resp_l.unpack(resp, "data").as_u64() as u32;
                        let instr = Instr::decode(word)
                            .unwrap_or_else(|| panic!("bad instr {word:#010x} @ {pc:#x}"));
                        ibuf.push_back((pc, instr));
                    }
                }

                // --- Complete outstanding long-latency operations -------
                match wait {
                    Wait::Load(rd) => {
                        if let Some(resp) = dmem_resp.pop() {
                            let v = resp_l.unpack(resp, "data").as_u64() as u32;
                            if rd != 0 {
                                regs[rd as usize] = v;
                            }
                            wait = Wait::None;
                            retired += 1;
                        }
                    }
                    Wait::Store => {
                        if dmem_resp.pop().is_some() {
                            wait = Wait::None;
                            retired += 1;
                        }
                    }
                    Wait::Xcel(rd) => {
                        if let Some(resp) = xcel_resp_q.pop() {
                            let v = xresp_l.unpack(resp, "data").as_u64() as u32;
                            if rd != 0 {
                                regs[rd as usize] = v;
                            }
                            wait = Wait::None;
                            retired += 1;
                        }
                    }
                    Wait::None => {}
                }

                // --- Execute at most one instruction per cycle ----------
                if wait == Wait::None && !is_halted {
                    if let Some(&(pc, instr)) = ibuf.front() {
                        use Instr::*;
                        let mut consume = true;
                        let mut redirect: Option<u32> = None;
                        match instr {
                            Add { rd, rs1, rs2 }
                            | Sub { rd, rs1, rs2 }
                            | And { rd, rs1, rs2 }
                            | Or { rd, rs1, rs2 }
                            | Xor { rd, rs1, rs2 }
                            | Slt { rd, rs1, rs2 }
                            | Sltu { rd, rs1, rs2 }
                            | Sll { rd, rs1, rs2 }
                            | Srl { rd, rs1, rs2 }
                            | Sra { rd, rs1, rs2 }
                            | Mul { rd, rs1, rs2 } => {
                                let v = alu(instr, rv(rs1, &regs), rv(rs2, &regs));
                                if rd != 0 {
                                    regs[rd as usize] = v;
                                }
                                retired += 1;
                            }
                            Addi { rd, rs1, .. }
                            | Andi { rd, rs1, .. }
                            | Ori { rd, rs1, .. }
                            | Xori { rd, rs1, .. } => {
                                let v = alu(instr, rv(rs1, &regs), 0);
                                if rd != 0 {
                                    regs[rd as usize] = v;
                                }
                                retired += 1;
                            }
                            Lui { rd, .. } => {
                                let v = alu(instr, 0, 0);
                                if rd != 0 {
                                    regs[rd as usize] = v;
                                }
                                retired += 1;
                            }
                            Lw { rd, rs1, imm } => {
                                if dmem_req.is_full() {
                                    consume = false;
                                } else {
                                    let addr = rv(rs1, &regs).wrapping_add(imm as i32 as u32);
                                    dmem_req.push(mem_read_req(&req_l, 0, addr));
                                    wait = Wait::Load(rd);
                                }
                            }
                            Sw { rs2, rs1, imm } => {
                                if dmem_req.is_full() {
                                    consume = false;
                                } else {
                                    let addr = rv(rs1, &regs).wrapping_add(imm as i32 as u32);
                                    dmem_req.push(mem_write_req(&req_l, 0, addr, rv(rs2, &regs)));
                                    wait = Wait::Store;
                                }
                            }
                            Beq { rs1, rs2, imm } => {
                                if rv(rs1, &regs) == rv(rs2, &regs) {
                                    redirect = Some(branch(pc, imm));
                                }
                                retired += 1;
                            }
                            Bne { rs1, rs2, imm } => {
                                if rv(rs1, &regs) != rv(rs2, &regs) {
                                    redirect = Some(branch(pc, imm));
                                }
                                retired += 1;
                            }
                            Blt { rs1, rs2, imm } => {
                                if (rv(rs1, &regs) as i32) < (rv(rs2, &regs) as i32) {
                                    redirect = Some(branch(pc, imm));
                                }
                                retired += 1;
                            }
                            Bge { rs1, rs2, imm } => {
                                if (rv(rs1, &regs) as i32) >= (rv(rs2, &regs) as i32) {
                                    redirect = Some(branch(pc, imm));
                                }
                                retired += 1;
                            }
                            Jal { rd, imm } => {
                                if rd != 0 {
                                    regs[rd as usize] = pc.wrapping_add(4);
                                }
                                redirect = Some(branch(pc, imm));
                                retired += 1;
                            }
                            Jalr { rd, rs1, imm } => {
                                let t = rv(rs1, &regs).wrapping_add(imm as i32 as u32);
                                if rd != 0 {
                                    regs[rd as usize] = pc.wrapping_add(4);
                                }
                                redirect = Some(t);
                                retired += 1;
                            }
                            Csrr { rd, csr } => match csr {
                                CSR_MNGR2PROC => match m2p_q.pop() {
                                    Some(v) => {
                                        if rd != 0 {
                                            regs[rd as usize] = v.as_u64() as u32;
                                        }
                                        retired += 1;
                                    }
                                    None => consume = false,
                                },
                                CSR_XCEL_GO => {
                                    wait = Wait::Xcel(rd);
                                }
                                other => panic!("csrr from unknown csr {other:#x}"),
                            },
                            Csrw { csr, rs1 } => {
                                let v = rv(rs1, &regs);
                                if csr == CSR_PROC2MNGR {
                                    if p2m_q.is_full() {
                                        consume = false;
                                    } else {
                                        p2m_q.push(Bits::new(32, v as u128));
                                        retired += 1;
                                    }
                                } else if let Some(ctrl) = csr_to_ctrl(csr) {
                                    if xcel_req_q.is_full() {
                                        consume = false;
                                    } else {
                                        xcel_req_q.push(xcel_req(&xreq_l, ctrl, v));
                                        retired += 1;
                                    }
                                } else {
                                    panic!("csrw to unknown csr {csr:#x}");
                                }
                            }
                            Halt => {
                                is_halted = true;
                                retired += 1;
                            }
                        }
                        if consume {
                            ibuf.pop_front();
                        }
                        if let Some(target) = redirect {
                            // Squash everything younger than the branch.
                            epoch = epoch.wrapping_add(1);
                            ibuf.clear();
                            fetch_pc = target;
                        }
                    }
                }

                // --- Issue speculative fetches ---------------------------
                if !is_halted
                    && !imem_req.is_full()
                    && pending.len() < MAX_INFLIGHT_FETCH
                    && ibuf.len() < 2
                {
                    imem_req.push(mem_read_req(&req_l, 0, fetch_pc));
                    pending.push_back((fetch_pc, epoch));
                    fetch_pc = fetch_pc.wrapping_add(4);
                }
            }

            s.write_next(halted.id(), Bits::from_bool(is_halted));
            s.write_next(instret.id(), Bits::new(32, retired as u128));
            imem_req.post(s);
            imem_resp.post(s);
            dmem_req.post(s);
            dmem_resp.post(s);
            xcel_req_q.post(s);
            xcel_resp_q.post(s);
            p2m_q.post(s);
            m2p_q.post(s);
        });
    }
}
