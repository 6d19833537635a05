//! The functional-level cache: a latency-free forwarder.
//!
//! Functionally a cache is invisible; the FL model simply forwards
//! requests to memory and responses back through queue adapters, adding
//! interface latency but no caching behavior.

use mtl_core::{Component, Ctx, InValRdyQueue, OutValRdyQueue};

use crate::mem_msg::{mem_req_layout, mem_resp_layout};

/// An FL cache: forwards `proc_*` requests to `mem_*` unchanged.
#[derive(Hash)]
pub struct CacheFL;

impl Component for CacheFL {
    fn build(&self, c: &mut Ctx) {
        let req_w = mem_req_layout().width();
        let resp_w = mem_resp_layout().width();
        let proc = c.child_reqresp("proc", req_w, resp_w);
        let mem = c.parent_reqresp("mem", req_w, resp_w);
        let reset = c.reset();

        let mut preq = InValRdyQueue::new(proc.req, 2);
        let mut presp = OutValRdyQueue::new(proc.resp, 2);
        let mut mreq = OutValRdyQueue::new(mem.req, 2);
        let mut mresp = InValRdyQueue::new(mem.resp, 2);

        let mut reads = vec![reset];
        let mut writes = Vec::new();
        for q in [&presp, &mreq] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }
        for q in [&preq, &mresp] {
            reads.extend(q.read_signals());
            writes.extend(q.write_signals());
        }

        c.tick_fl("forward_tick", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                preq.reset(s);
                presp.reset(s);
                mreq.reset(s);
                mresp.reset(s);
                return;
            }
            preq.xtick(s);
            presp.xtick(s);
            mreq.xtick(s);
            mresp.xtick(s);
            if !mreq.is_full() {
                if let Some(req) = preq.pop() {
                    mreq.push(req);
                }
            }
            if !presp.is_full() {
                if let Some(resp) = mresp.pop() {
                    presp.push(resp);
                }
            }
            preq.post(s);
            presp.post(s);
            mreq.post(s);
            mresp.post(s);
        });
    }
}
