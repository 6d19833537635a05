//! The FL dot-product accelerator (the paper's Figure 7).
//!
//! Configuration requests set size and base addresses; `go` triggers the
//! computation. Operands are fetched through a [`MemPortProxy`] — the
//! analog of the paper's `ListMemPortAdapter`, which lets the functional
//! model index "lists" that are actually memory transactions — and the
//! result is computed with the same functional `dot_product` used by the
//! golden ISS (the paper's `numpy.dot` reuse).

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, InValRdyQueue, OutValRdyQueue};
use mtl_proc::{
    mem_req_layout, mem_resp_layout, xcel_req_layout, xcel_resp_layout, MemPortProxy, XCEL_GO,
    XCEL_SIZE, XCEL_SRC0, XCEL_SRC1,
};

/// The FL dot-product accelerator.
///
/// Ports: `cpu_req/resp` child bundle (the CSR coprocessor interface),
/// `mem_req/resp` parent bundle.
#[derive(Hash)]
pub struct DotProductFL;

impl Component for DotProductFL {
    fn build(&self, c: &mut Ctx) {
        let xreq_l = xcel_req_layout();
        let xresp_l = xcel_resp_layout();
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let _ = (&resp_l, &req_l);

        let cpu = c.child_reqresp("cpu", xreq_l.width(), xresp_l.width());
        let mem = c.parent_reqresp("mem", req_l.width(), resp_l.width());
        let reset = c.reset();

        let mut cpu_req = InValRdyQueue::new(cpu.req, 2);
        let mut cpu_resp = OutValRdyQueue::new(cpu.resp, 2);
        let mut proxy = MemPortProxy::new(mem);

        let mut reads = vec![reset];
        let mut writes = Vec::new();
        reads.extend(cpu_req.read_signals());
        reads.extend(cpu_resp.read_signals());
        reads.extend(proxy.read_signals());
        writes.extend(cpu_req.write_signals());
        writes.extend(cpu_resp.write_signals());
        writes.extend(proxy.write_signals());

        let mut size = 0u32;
        let mut src0 = 0u32;
        let mut src1 = 0u32;
        // Gather state while running: element index, which source is
        // being fetched, and the gathered operand vectors.
        let mut running = false;
        let mut index = 0u32;
        let mut phase = 0u8;
        let mut a: Vec<u32> = Vec::new();
        let mut b: Vec<u32> = Vec::new();

        c.tick_fl("xcel_fl_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                size = 0;
                src0 = 0;
                src1 = 0;
                running = false;
                index = 0;
                phase = 0;
                a.clear();
                b.clear();
                cpu_req.reset(s);
                cpu_resp.reset(s);
                proxy.reset(s);
                return;
            }
            cpu_req.xtick(s);
            cpu_resp.xtick(s);
            proxy.xtick(s);

            if running {
                if index < size {
                    // The resumable proxy makes this read look like a
                    // plain list access that occasionally "isn't ready".
                    let (base, dst) = if phase == 0 { (src0, &mut a) } else { (src1, &mut b) };
                    if let Some(v) = proxy.read(base + 4 * index) {
                        dst.push(v);
                        if phase == 1 {
                            index += 1;
                        }
                        phase ^= 1;
                    }
                } else if !cpu_resp.is_full() {
                    let result = mtl_proc::dot_product(&a, &b);
                    cpu_resp.push(Bits::new(32, result as u128));
                    a.clear();
                    b.clear();
                    running = false;
                }
            } else if !cpu_req.is_empty() && !cpu_resp.is_full() {
                let req = cpu_req.pop().expect("checked non-empty");
                let ctrl = xreq_l.unpack(req, "ctrl").as_u64();
                let data = xreq_l.unpack(req, "data").as_u64() as u32;
                match ctrl {
                    XCEL_SIZE => size = data,
                    XCEL_SRC0 => src0 = data,
                    XCEL_SRC1 => src1 = data,
                    XCEL_GO => {
                        running = true;
                        index = 0;
                        phase = 0;
                    }
                    _ => unreachable!("2-bit ctrl"),
                }
            }

            cpu_req.post(s);
            cpu_resp.post(s);
            proxy.post(s);
        });
    }
}
