//! The per-tile memory-over-network adapter.
//!
//! [`MemNetAdapter`] sits between a tile's dmem port and the mesh. Each
//! memory request is routed by its *home tile* — bits `[2, 2+log2(n))`
//! of the byte address, i.e. word address modulo tile count — either to
//! the tile's local memory slice (`lmem`) or, packed into a mesh packet,
//! to the home tile's adapter, which services it against its own slice
//! through a second memory port (`rmem`) and sends the response back.
//!
//! Packet format: the mesh payload carries the raw 68-bit mem request
//! (or the 36-bit response, zero-extended); bit 0 of the net `opaque`
//! field distinguishes request (0) from response (1); `src` carries the
//! requester so the home adapter knows where to respond.
//!
//! The adapter is deliberately simple — one outstanding CPU request,
//! *held until its response is delivered* (so responses can never
//! reorder, even under the pipelined CL cache whose line refills issue
//! multiple outstanding reads that straddle home tiles), one remote
//! request under service, single-cycle-buffered net egress with
//! response priority. Total in-flight packets are bounded at two per
//! tile, which keeps the shared req/resp channel deadlock-free in
//! practice while staying fully IR (batchable and fault-injectable with
//! zero hooks).

use mtl_bits::clog2;
use mtl_core::{Component, Ctx, Expr};
use mtl_net::net_msg_layout;
use mtl_proc::{mem_req_layout, mem_resp_layout};

/// Memory-over-network adapter for a tile of an `ntiles` SoC. The tile's
/// index is the `id` input port (log2(ntiles) bits), which the SoC ties
/// per instance: every adapter of a SoC is one component, built once and
/// stamped.
#[derive(Hash)]
pub struct MemNetAdapter {
    ntiles: usize,
}

impl MemNetAdapter {
    /// Creates an adapter; `ntiles` must be a power of two.
    pub fn new(ntiles: usize) -> Self {
        assert!(ntiles.is_power_of_two() && ntiles >= 2);
        Self { ntiles }
    }
}

impl Component for MemNetAdapter {
    fn build(&self, c: &mut Ctx) {
        let req_layout = mem_req_layout();
        let resp_layout = mem_resp_layout();
        let rw = req_layout.width();
        let pw = resp_layout.width();
        let net_layout = net_msg_layout(self.ntiles, rw);
        let w = net_layout.width();
        let (slo, shi) = net_layout.field_range("src");
        let (olo, _ohi) = net_layout.field_range("opaque");
        let (plo, _phi) = net_layout.field_range("payload");
        let (alo, _ahi) = req_layout.field_range("addr");
        let aw = shi - slo;
        let tb = clog2(self.ntiles as u64);
        assert_eq!(aw, tb, "net address width must match the tile-index width");

        let cpu = c.child_reqresp("cpu", rw, pw);
        let lmem = c.parent_reqresp("lmem", rw, pw);
        let rmem = c.parent_reqresp("rmem", rw, pw);
        let net_out = c.out_valrdy("net_out", w);
        let net_in = c.in_valrdy("net_in", w);
        let reset = c.reset();
        let id = c.in_port("id", tb);

        // One buffered CPU request, one buffered outbound request packet,
        // one buffered outbound response packet, one remote service slot.
        let creq_msg = c.wire("creq_msg", rw);
        let creq_val = c.wire("creq_val", 1);
        let req_pend_msg = c.wire("req_pend_msg", w);
        let req_pend_val = c.wire("req_pend_val", 1);
        let resp_pend_msg = c.wire("resp_pend_msg", w);
        let resp_pend_val = c.wire("resp_pend_val", 1);
        let rbusy = c.wire("rbusy", 1);
        let rsrc = c.wire("rsrc", aw);
        // Set once the buffered CPU request has been dispatched (locally
        // or onto the net); both it and `creq_val` clear only when the
        // response reaches the CPU, serializing request/response pairs.
        let disp = c.wire("disp", 1);

        // Request routing. `cpu_req_rdy` is purely registered, so the
        // cache above never sees a combinational path back to itself.
        c.comb("route", |b| {
            let home = creq_msg.ex().slice(alo + 2, alo + 2 + tb);
            let is_local = home.eq(id);
            b.assign(lmem.req.msg, creq_msg);
            b.assign(lmem.req.val, creq_val.ex() & is_local & !disp.ex());
            b.assign(rmem.req.msg, net_in.msg.ex().slice(plo, plo + rw));
            let in_is_resp = net_in.msg.ex().bit(olo);
            b.assign(rmem.req.val, net_in.val.ex() & !in_is_resp & !rbusy.ex());
            b.assign(net_out.msg, resp_pend_val.ex().mux(resp_pend_msg.ex(), req_pend_msg.ex()));
            b.assign(net_out.val, resp_pend_val.ex() | req_pend_val.ex());
            b.assign(cpu.req.rdy, !creq_val.ex());
        });

        // Response mux toward the CPU: network responses win; the local
        // memory holds its response until explicitly drained.
        c.comb("resp_route", |b| {
            let net_resp = net_in.val.ex() & net_in.msg.ex().bit(olo);
            b.assign(cpu.resp.val, net_resp.clone() | lmem.resp.val.ex());
            b.assign(
                cpu.resp.msg,
                net_resp.mux(net_in.msg.ex().slice(plo, plo + pw), lmem.resp.msg.ex()),
            );
        });

        // Ready fan-out, in its own block so the block-level dependency
        // graph stays acyclic (rdy paths never feed the val paths above).
        c.comb("rdys", |b| {
            let net_resp = net_in.val.ex() & net_in.msg.ex().bit(olo);
            b.assign(lmem.resp.rdy, cpu.resp.rdy.ex() & !net_resp);
            b.assign(rmem.resp.rdy, !resp_pend_val.ex() | net_out.rdy.ex());
            let in_is_resp = net_in.msg.ex().bit(olo);
            b.assign(
                net_in.rdy,
                in_is_resp.mux(cpu.resp.rdy.ex(), !rbusy.ex() & rmem.req.rdy.ex()),
            );
        });

        c.seq("state", |b| {
            let home = creq_msg.ex().slice(alo + 2, alo + 2 + tb);
            let is_local = home.clone().eq(id);
            let creq_take = cpu.req.val.ex() & !creq_val.ex();
            let local_done = creq_val.ex() & is_local.clone() & !disp.ex() & lmem.req.rdy.ex();
            // Requests only use the egress buffer while no response
            // occupies it (responses have net_out priority).
            let req_sent = req_pend_val.ex() & net_out.rdy.ex() & !resp_pend_val.ex();
            let req_free = !req_pend_val.ex() | req_sent.clone();
            let remote_done = creq_val.ex() & !is_local & !disp.ex() & req_free;
            // The request slot frees only when its response is handed to
            // the CPU — never at dispatch — so a later request's fast
            // local response can't overtake an earlier remote one.
            let resp_hs = cpu.resp.val.ex() & cpu.resp.rdy.ex();
            b.assign(
                creq_val,
                reset
                    .ex()
                    .mux(Expr::k(1, 0), creq_take.clone() | (creq_val.ex() & !resp_hs.clone())),
            );
            b.assign(
                disp,
                reset
                    .ex()
                    .mux(Expr::k(1, 0), (disp.ex() | local_done | remote_done.clone()) & !resp_hs),
            );
            b.assign(creq_msg, creq_take.mux(cpu.req.msg.ex(), creq_msg.ex()));
            let req_pkt = Expr::concat(vec![
                home,
                id.ex(),
                Expr::k(8, 0), // opaque bit 0 = 0: request
                creq_msg.ex(),
            ]);
            b.assign(
                req_pend_val,
                reset
                    .ex()
                    .mux(Expr::k(1, 0), remote_done.clone() | (req_pend_val.ex() & !req_sent)),
            );
            b.assign(req_pend_msg, remote_done.mux(req_pkt, req_pend_msg.ex()));

            let resp_sent = resp_pend_val.ex() & net_out.rdy.ex();
            let resp_free = !resp_pend_val.ex() | resp_sent.clone();
            let resp_take = rmem.resp.val.ex() & resp_free;
            let resp_pkt = Expr::concat(vec![
                rsrc.ex(),
                id.ex(),
                Expr::k(8, 1), // opaque bit 0 = 1: response
                rmem.resp.msg.ex().zext(rw),
            ]);
            b.assign(
                resp_pend_val,
                reset
                    .ex()
                    .mux(Expr::k(1, 0), resp_take.clone() | (resp_pend_val.ex() & !resp_sent)),
            );
            b.assign(resp_pend_msg, resp_take.clone().mux(resp_pkt, resp_pend_msg.ex()));

            let rmem_issue = rmem.req.val.ex() & rmem.req.rdy.ex();
            b.assign(
                rbusy,
                reset.ex().mux(Expr::k(1, 0), (rbusy.ex() & !resp_take) | rmem_issue.clone()),
            );
            b.assign(rsrc, rmem_issue.mux(net_in.msg.ex().slice(slo, shi), rsrc.ex()));
        });
    }
}
