//! A 2:1 memory-port arbiter: the processor and the accelerator share one
//! L1 data cache port (the paper's Figure 5(a) "Arbitration" block).

use mtl_core::{Component, Ctx, Expr};
use mtl_proc::{mem_req_layout, mem_resp_layout};

/// A combinational 2:1 request arbiter with opaque-tagged response
/// routing. Port 0 (the processor) has priority; responses are routed
/// back by the opaque field. Fully IR-based.
#[derive(Hash)]
pub struct MemArbiter;

impl Component for MemArbiter {
    fn build(&self, c: &mut Ctx) {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let rw = req_l.width();
        let pw = resp_l.width();

        // Two child-side ports, one parent-side port.
        let p0 = c.child_reqresp("p0", rw, pw);
        let p1 = c.child_reqresp("p1", rw, pw);
        let out = c.parent_reqresp("out", rw, pw);

        let (olo, ohi) = req_l.field_range("opaque");

        c.comb("req_comb", |b| {
            let grant0 = p0.req.val.ex();
            // Forward the selected request with the opaque field replaced
            // by the requester id.
            let sel0 =
                p0.req.msg.ex().slice(ohi, rw).concat_with(Expr::k(2, 0), p0.req.msg.slice(0, olo));
            let sel1 =
                p1.req.msg.ex().slice(ohi, rw).concat_with(Expr::k(2, 1), p1.req.msg.slice(0, olo));
            b.assign(out.req.msg, grant0.clone().mux(sel0, sel1));
            b.assign(out.req.val, p0.req.val.ex() | p1.req.val.ex());
            b.assign(p0.req.rdy, out.req.rdy.ex() & grant0.clone());
            b.assign(p1.req.rdy, out.req.rdy.ex() & !grant0 & p1.req.val.ex());
        });

        // Response value routing and ready back-propagation live in
        // separate blocks so the block-level dependency graph stays
        // acyclic when a requester derives its control from resp.val
        // while also driving resp.rdy (the pipelined processor does).
        let (rlo, rhi) = resp_l.field_range("opaque");
        c.comb("resp_route_comb", |b| {
            let for1 = out.resp.msg.slice(rlo, rhi).eq(Expr::k(2, 1));
            b.assign(p0.resp.msg, out.resp.msg.ex());
            b.assign(p1.resp.msg, out.resp.msg.ex());
            b.assign(p0.resp.val, out.resp.val.ex() & !for1.clone());
            b.assign(p1.resp.val, out.resp.val.ex() & for1);
        });
        c.comb("resp_rdy_comb", |b| {
            let for1 = out.resp.msg.slice(rlo, rhi).eq(Expr::k(2, 1));
            b.assign(out.resp.rdy, for1.mux(p1.resp.rdy.ex(), p0.resp.rdy.ex()));
        });
    }
}

/// Helper extension used above: `hi.concat_with(mid, lo)`.
trait ConcatWith {
    fn concat_with(self, mid: Expr, lo: Expr) -> Expr;
}

impl ConcatWith for Expr {
    fn concat_with(self, mid: Expr, lo: Expr) -> Expr {
        Expr::Concat(vec![self, mid, lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b;
    use mtl_proc::{mem_read_req, MEM_READ};
    use mtl_sim::{Engine, Sim};

    #[test]
    fn port0_wins_and_responses_route_by_opaque() {
        let req_l = mem_req_layout();
        let resp_l = mem_resp_layout();
        let mut sim = Sim::build(&MemArbiter, Engine::SpecializedOpt).unwrap();
        sim.reset();

        // Both ports request; out side is ready.
        sim.poke_port("p0_req_msg", mem_read_req(&req_l, 0, 0x100));
        sim.poke_port("p0_req_val", b(1, 1));
        sim.poke_port("p1_req_msg", mem_read_req(&req_l, 0, 0x200));
        sim.poke_port("p1_req_val", b(1, 1));
        sim.poke_port("out_req_rdy", b(1, 1));
        sim.eval();
        assert_eq!(sim.peek_port("p0_req_rdy"), b(1, 1), "port 0 has priority");
        assert_eq!(sim.peek_port("p1_req_rdy"), b(1, 0));
        let fwd = sim.peek_port("out_req_msg");
        assert_eq!(req_l.unpack(fwd, "addr").as_u64(), 0x100);
        assert_eq!(req_l.unpack(fwd, "opaque").as_u64(), 0);

        // Port 0 drops out: port 1 is granted with opaque=1.
        sim.poke_port("p0_req_val", b(1, 0));
        sim.eval();
        assert_eq!(sim.peek_port("p1_req_rdy"), b(1, 1));
        let fwd = sim.peek_port("out_req_msg");
        assert_eq!(req_l.unpack(fwd, "addr").as_u64(), 0x200);
        assert_eq!(req_l.unpack(fwd, "opaque").as_u64(), 1);

        // A response tagged opaque=1 goes to port 1 only.
        let resp = mtl_proc::mem_resp(&resp_l, MEM_READ, 1, 0xAB);
        sim.poke_port("out_resp_msg", resp);
        sim.poke_port("out_resp_val", b(1, 1));
        sim.poke_port("p0_resp_rdy", b(1, 1));
        sim.poke_port("p1_resp_rdy", b(1, 1));
        sim.eval();
        assert_eq!(sim.peek_port("p0_resp_val"), b(1, 0));
        assert_eq!(sim.peek_port("p1_resp_val"), b(1, 1));
        assert_eq!(sim.peek_port("out_resp_rdy"), b(1, 1));
    }

    #[test]
    fn arbiter_is_verilog_translatable() {
        let design = mtl_core::elaborate(&MemArbiter).unwrap();
        let verilog = mtl_translate::translate(&design).unwrap();
        assert!(verilog.contains("module MemArbiter"));
    }
}
