//! The CL dot-product accelerator (the paper's Figure 8).
//!
//! Pre-generates the interleaved address list on `go`, issues memory
//! requests in a pipelined fashion as backpressure allows, collects data,
//! and computes the dot product when everything has arrived — directly
//! mirroring the paper's `DotProductCL` listing.

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, InValRdyQueue, OutValRdyQueue};
use mtl_proc::{
    mem_read_req, mem_req_layout, mem_resp_layout, xcel_req_layout, xcel_resp_layout, XCEL_GO,
    XCEL_SIZE, XCEL_SRC0, XCEL_SRC1,
};

/// The CL dot-product accelerator (same ports as
/// [`DotProductFL`](crate::DotProductFL)).
#[derive(Hash)]
pub struct DotProductCL;

impl Component for DotProductCL {
    fn build(&self, c: &mut Ctx) {
        let xreq_l = xcel_req_layout();
        let xresp_l = xcel_resp_layout();
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();

        let cpu = c.child_reqresp("cpu", xreq_l.width(), xresp_l.width());
        let mem = c.parent_reqresp("mem", req_l.width(), resp_l.width());
        let reset = c.reset();

        let mut cpu_req = InValRdyQueue::new(cpu.req, 2);
        let mut cpu_resp = OutValRdyQueue::new(cpu.resp, 2);
        // Deep request queues keep the (blocking, 1-op-per-cycle) cache
        // busy every cycle — this is the "pipelined memory requests" the
        // paper's Figure 8 relies on for its speedup.
        let mut mem_req = OutValRdyQueue::new(mem.req, 4);
        let mut mem_resp = InValRdyQueue::new(mem.resp, 4);

        let mut reads = vec![reset];
        let mut writes = Vec::new();
        for q in [&cpu_resp, &mem_req] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }
        for q in [&cpu_req, &mem_resp] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }

        let mut go = false;
        let mut size = 0u32;
        let mut src0 = 0u32;
        let mut src1 = 0u32;
        let mut data: Vec<u32> = Vec::new();
        let mut addrs: Vec<u32> = Vec::new();
        let mut next_addr = 0usize;

        c.tick_cl("xcel_cl_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                go = false;
                size = 0;
                src0 = 0;
                src1 = 0;
                data.clear();
                addrs.clear();
                next_addr = 0;
                cpu_req.reset(s);
                cpu_resp.reset(s);
                mem_req.reset(s);
                mem_resp.reset(s);
                return;
            }
            cpu_req.xtick(s);
            cpu_resp.xtick(s);
            mem_req.xtick(s);
            mem_resp.xtick(s);

            if go {
                // Issue pipelined memory requests as backpressure allows.
                while next_addr < addrs.len() && !mem_req.is_full() {
                    mem_req.push(mem_read_req(&req_l, 0, addrs[next_addr]));
                    next_addr += 1;
                }
                while let Some(resp) = mem_resp.pop() {
                    data.push(resp_l.unpack(resp, "data").as_u64() as u32);
                }
                if data.len() == (size as usize) * 2 && !cpu_resp.is_full() {
                    let a: Vec<u32> = data.iter().copied().step_by(2).collect();
                    let b: Vec<u32> = data.iter().copied().skip(1).step_by(2).collect();
                    let result = mtl_proc::dot_product(&a, &b);
                    cpu_resp.push(Bits::new(32, result as u128));
                    go = false;
                }
            } else if !cpu_req.is_empty() && !cpu_resp.is_full() {
                let req = cpu_req.pop().expect("checked non-empty");
                let ctrl = xreq_l.unpack(req, "ctrl").as_u64();
                let d = xreq_l.unpack(req, "data").as_u64() as u32;
                match ctrl {
                    XCEL_SIZE => size = d,
                    XCEL_SRC0 => src0 = d,
                    XCEL_SRC1 => src1 = d,
                    XCEL_GO => {
                        addrs = (0..size).flat_map(|i| [src0 + 4 * i, src1 + 4 * i]).collect();
                        next_addr = 0;
                        data.clear();
                        go = true;
                    }
                    _ => unreachable!("2-bit ctrl"),
                }
            }

            cpu_req.post(s);
            cpu_resp.post(s);
            mem_req.post(s);
            mem_resp.post(s);
        });
    }
}
