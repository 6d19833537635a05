//! The functional-level processor model: an unpipelined state machine
//! that executes one instruction per memory round trip over the same
//! port-based interfaces as the CL and RTL processors.

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, InValRdyQueue, OutValRdyQueue};

use crate::isa::{
    Instr, CSR_MNGR2PROC, CSR_PROC2MNGR, CSR_XCEL_GO, CSR_XCEL_SIZE, CSR_XCEL_SRC0, CSR_XCEL_SRC1,
};
use crate::mem_msg::{mem_req_layout, mem_resp_layout};
use crate::xcel_msg::{
    xcel_req_layout, xcel_resp_layout, XCEL_GO, XCEL_SIZE, XCEL_SRC0, XCEL_SRC1,
};

/// Pure ALU semantics shared by the FL and CL processor models.
pub(crate) fn alu(instr: Instr, rs1: u32, rs2: u32) -> u32 {
    use Instr::*;
    match instr {
        Add { .. } => rs1.wrapping_add(rs2),
        Sub { .. } => rs1.wrapping_sub(rs2),
        And { .. } => rs1 & rs2,
        Or { .. } => rs1 | rs2,
        Xor { .. } => rs1 ^ rs2,
        Slt { .. } => ((rs1 as i32) < (rs2 as i32)) as u32,
        Sltu { .. } => (rs1 < rs2) as u32,
        Sll { .. } => rs1 << (rs2 & 31),
        Srl { .. } => rs1 >> (rs2 & 31),
        Sra { .. } => ((rs1 as i32) >> (rs2 & 31)) as u32,
        Mul { .. } => rs1.wrapping_mul(rs2),
        Addi { imm, .. } => rs1.wrapping_add(imm as i32 as u32),
        Andi { imm, .. } => rs1 & (imm as u16 as u32),
        Ori { imm, .. } => rs1 | (imm as u16 as u32),
        Xori { imm, .. } => rs1 ^ (imm as u16 as u32),
        Lui { imm, .. } => (imm as u16 as u32) << 16,
        _ => unreachable!("alu called on non-alu instruction"),
    }
}

pub(crate) fn csr_to_ctrl(csr: u16) -> Option<u64> {
    match csr {
        CSR_XCEL_GO => Some(XCEL_GO),
        CSR_XCEL_SIZE => Some(XCEL_SIZE),
        CSR_XCEL_SRC0 => Some(XCEL_SRC0),
        CSR_XCEL_SRC1 => Some(XCEL_SRC1),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum S {
    NeedFetch,
    WaitInstr,
    Exec,
    WaitLoad(u8),
    WaitStore,
    WaitXcel(u8),
    Halted,
}

/// The FL MtlRisc32 processor.
///
/// Ports: `imem_req/resp`, `dmem_req/resp`, `xcel_req/resp` parent
/// bundles; `proc2mngr` out and `mngr2proc` in bundles; a 1-bit `halted`
/// output and a 32-bit `instret` retired-instruction counter.
#[derive(Hash)]
pub struct ProcFL;

impl Component for ProcFL {
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
        let mut xcel_req = OutValRdyQueue::new(xcel.req, 2);
        let mut xcel_resp = InValRdyQueue::new(xcel.resp, 2);
        let mut p2m_q = OutValRdyQueue::new(p2m, 2);
        let mut m2p_q = InValRdyQueue::new(m2p, 2);

        let mut reads = vec![reset];
        let mut writes = vec![halted, instret];
        for q in [&imem_req, &dmem_req, &xcel_req, &p2m_q] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }
        for q in [&imem_resp, &dmem_resp, &xcel_resp, &m2p_q] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }

        let mut regs = [0u32; 32];
        let mut pc = 0u32;
        let mut state = S::NeedFetch;
        let mut cur: Option<Instr> = None;
        let mut retired = 0u32;

        c.tick_fl("proc_fl_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                regs = [0; 32];
                pc = 0;
                state = S::NeedFetch;
                cur = None;
                retired = 0;
                s.write_next(halted.id(), Bits::from_bool(false));
                s.write_next(instret.id(), Bits::new(32, 0));
                imem_req.reset(s);
                imem_resp.reset(s);
                dmem_req.reset(s);
                dmem_resp.reset(s);
                xcel_req.reset(s);
                xcel_resp.reset(s);
                p2m_q.reset(s);
                m2p_q.reset(s);
                return;
            }
            imem_req.xtick(s);
            imem_resp.xtick(s);
            dmem_req.xtick(s);
            dmem_resp.xtick(s);
            xcel_req.xtick(s);
            xcel_resp.xtick(s);
            p2m_q.xtick(s);
            m2p_q.xtick(s);

            {
                let rd_of = |r: u8, regs: &[u32; 32]| if r == 0 { 0 } else { regs[r as usize] };
                match state {
                    S::NeedFetch => {
                        if !imem_req.is_full() {
                            imem_req.push(crate::mem_msg::mem_read_req(&req_l, 0, pc));
                            state = S::WaitInstr;
                        }
                    }
                    S::WaitInstr => {
                        if let Some(resp) = imem_resp.pop() {
                            let word = resp_l.unpack(resp, "data").as_u64() as u32;
                            cur = Some(
                                Instr::decode(word)
                                    .unwrap_or_else(|| panic!("bad instr {word:#010x} @ {pc:#x}")),
                            );
                            state = S::Exec;
                        }
                    }
                    S::Exec => {
                        use Instr::*;
                        let instr = cur.expect("exec without instruction");
                        let mut done = true;
                        let mut next_pc = pc.wrapping_add(4);
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
                                let v = alu(instr, rd_of(rs1, &regs), rd_of(rs2, &regs));
                                if rd != 0 {
                                    regs[rd as usize] = v;
                                }
                            }
                            Addi { rd, rs1, .. }
                            | Andi { rd, rs1, .. }
                            | Ori { rd, rs1, .. }
                            | Xori { rd, rs1, .. } => {
                                let v = alu(instr, rd_of(rs1, &regs), 0);
                                if rd != 0 {
                                    regs[rd as usize] = v;
                                }
                            }
                            Lui { rd, .. } => {
                                let v = alu(instr, 0, 0);
                                if rd != 0 {
                                    regs[rd as usize] = v;
                                }
                            }
                            Lw { rd, rs1, imm } => {
                                if dmem_req.is_full() {
                                    done = false;
                                } else {
                                    let addr = rd_of(rs1, &regs).wrapping_add(imm as i32 as u32);
                                    dmem_req.push(crate::mem_msg::mem_read_req(&req_l, 0, addr));
                                    state = S::WaitLoad(rd);
                                }
                            }
                            Sw { rs2, rs1, imm } => {
                                if dmem_req.is_full() {
                                    done = false;
                                } else {
                                    let addr = rd_of(rs1, &regs).wrapping_add(imm as i32 as u32);
                                    dmem_req.push(crate::mem_msg::mem_write_req(
                                        &req_l,
                                        0,
                                        addr,
                                        rd_of(rs2, &regs),
                                    ));
                                    state = S::WaitStore;
                                }
                            }
                            Beq { rs1, rs2, imm } => {
                                if rd_of(rs1, &regs) == rd_of(rs2, &regs) {
                                    next_pc = branch(pc, imm);
                                }
                            }
                            Bne { rs1, rs2, imm } => {
                                if rd_of(rs1, &regs) != rd_of(rs2, &regs) {
                                    next_pc = branch(pc, imm);
                                }
                            }
                            Blt { rs1, rs2, imm } => {
                                if (rd_of(rs1, &regs) as i32) < (rd_of(rs2, &regs) as i32) {
                                    next_pc = branch(pc, imm);
                                }
                            }
                            Bge { rs1, rs2, imm } => {
                                if (rd_of(rs1, &regs) as i32) >= (rd_of(rs2, &regs) as i32) {
                                    next_pc = branch(pc, imm);
                                }
                            }
                            Jal { rd, imm } => {
                                if rd != 0 {
                                    regs[rd as usize] = pc.wrapping_add(4);
                                }
                                next_pc = branch(pc, imm);
                            }
                            Jalr { rd, rs1, imm } => {
                                next_pc = rd_of(rs1, &regs).wrapping_add(imm as i32 as u32);
                                if rd != 0 {
                                    regs[rd as usize] = pc.wrapping_add(4);
                                }
                            }
                            Csrr { rd, csr } => match csr {
                                CSR_MNGR2PROC => match m2p_q.pop() {
                                    Some(v) => {
                                        if rd != 0 {
                                            regs[rd as usize] = v.as_u64() as u32;
                                        }
                                    }
                                    None => done = false,
                                },
                                CSR_XCEL_GO => {
                                    state = S::WaitXcel(rd);
                                }
                                other => panic!("csrr from unknown csr {other:#x}"),
                            },
                            Csrw { csr, rs1 } => {
                                let v = rd_of(rs1, &regs);
                                if csr == CSR_PROC2MNGR {
                                    if p2m_q.is_full() {
                                        done = false;
                                    } else {
                                        p2m_q.push(Bits::new(32, v as u128));
                                    }
                                } else if let Some(ctrl) = csr_to_ctrl(csr) {
                                    if xcel_req.is_full() {
                                        done = false;
                                    } else {
                                        xcel_req.push(crate::xcel_msg::xcel_req(&xreq_l, ctrl, v));
                                    }
                                } else {
                                    panic!("csrw to unknown csr {csr:#x}");
                                }
                            }
                            Halt => {
                                state = S::Halted;
                                done = false;
                                retired += 1;
                            }
                        }
                        if done {
                            if matches!(state, S::Exec) {
                                state = S::NeedFetch;
                            }
                            pc = next_pc;
                            retired += 1;
                        } else if !matches!(state, S::Exec | S::Halted) {
                            // Memory/xcel wait states commit pc on response.
                            pc = next_pc;
                            retired += 1;
                        }
                    }
                    S::WaitLoad(rd) => {
                        if let Some(resp) = dmem_resp.pop() {
                            let v = resp_l.unpack(resp, "data").as_u64() as u32;
                            if rd != 0 {
                                regs[rd as usize] = v;
                            }
                            state = S::NeedFetch;
                        }
                    }
                    S::WaitStore => {
                        if dmem_resp.pop().is_some() {
                            state = S::NeedFetch;
                        }
                    }
                    S::WaitXcel(rd) => {
                        if let Some(resp) = xcel_resp.pop() {
                            let v = xresp_l.unpack(resp, "data").as_u64() as u32;
                            if rd != 0 {
                                regs[rd as usize] = v;
                            }
                            state = S::NeedFetch;
                        }
                    }
                    S::Halted => {}
                }
            }

            s.write_next(halted.id(), Bits::from_bool(state == S::Halted));
            s.write_next(instret.id(), Bits::new(32, retired as u128));
            imem_req.post(s);
            imem_resp.post(s);
            dmem_req.post(s);
            dmem_resp.post(s);
            xcel_req.post(s);
            xcel_resp.post(s);
            p2m_q.post(s);
            m2p_q.post(s);
        });
    }
}

pub(crate) fn branch(pc: u32, imm: i16) -> u32 {
    pc.wrapping_add((imm as i32 as u32).wrapping_mul(4))
}
