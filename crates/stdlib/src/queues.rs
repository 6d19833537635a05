//! Latency-insensitive queues with val/rdy interfaces.

use mtl_core::{clog2, Bits, Component, Ctx, Expr};

/// A FIFO queue with registered output and parameterizable depth.
///
/// The enqueue side is an input val/rdy bundle (`enq_*`), the dequeue side
/// an output val/rdy bundle (`deq_*`). With `nentries >= 2` the queue
/// sustains full throughput; this is the buffering used by the elastic
/// mesh-network routers.
///
/// # Examples
///
/// ```
/// use mtl_stdlib::NormalQueue;
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// let mut sim = Sim::build(&NormalQueue::new(8, 2), Engine::SpecializedOpt).unwrap();
/// sim.reset();
/// sim.poke_port("enq_msg", b(8, 0x7E));
/// sim.poke_port("enq_val", b(1, 1));
/// sim.poke_port("deq_rdy", b(1, 0));
/// assert_eq!(sim.peek_port("enq_rdy"), b(1, 1));
/// sim.cycle();
/// assert_eq!(sim.peek_port("deq_val"), b(1, 1));
/// assert_eq!(sim.peek_port("deq_msg"), b(8, 0x7E));
/// ```
#[derive(Debug, Clone, Copy, Hash)]
pub struct NormalQueue {
    nbits: u32,
    nentries: u64,
}

impl NormalQueue {
    /// Creates a queue for `nbits` messages with `nentries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `nentries` is zero.
    pub fn new(nbits: u32, nentries: u64) -> Self {
        assert!(nentries >= 1, "queue needs at least one entry");
        Self { nbits, nentries }
    }
}

impl Component for NormalQueue {
    fn build(&self, c: &mut Ctx) {
        let enq = c.in_valrdy("enq", self.nbits);
        let deq = c.out_valrdy("deq", self.nbits);

        let n = self.nentries;
        let ptr_w = clog2(n);
        let cnt_w = clog2(n + 1);

        let storage = c.mem("storage", n, self.nbits);
        let enq_ptr = c.wire("enq_ptr", ptr_w);
        let deq_ptr = c.wire("deq_ptr", ptr_w);
        let count = c.wire("count", cnt_w);
        let reset = c.reset();

        let do_enq = c.wire("do_enq", 1);
        let do_deq = c.wire("do_deq", 1);

        // Status and transfer logic are separate blocks so that the
        // block-level dependency graph stays acyclic when a consumer's
        // rdy is combinationally derived from this queue's val.
        c.comb("status_comb", |b| {
            b.assign(enq.rdy, count.lt(Expr::k(cnt_w, n as u128)));
            b.assign(deq.val, count.ne(Expr::k(cnt_w, 0)));
            b.assign(deq.msg, storage.read(deq_ptr));
        });
        c.comb("xfer_comb", |b| {
            b.assign(do_enq, enq.val & enq.rdy);
            b.assign(do_deq, deq.val & deq.rdy);
        });

        let wrap = |ptr: mtl_core::SignalRef| -> Expr {
            ptr.eq(Expr::k(ptr_w, (n - 1) as u128)).mux(Expr::k(ptr_w, 0), ptr + Expr::k(ptr_w, 1))
        };
        let enq_wrap = wrap(enq_ptr);
        let deq_wrap = wrap(deq_ptr);

        c.seq("state_seq", |b| {
            b.if_else(
                reset,
                |b| {
                    b.assign(enq_ptr, Expr::k(ptr_w, 0));
                    b.assign(deq_ptr, Expr::k(ptr_w, 0));
                    b.assign(count, Expr::k(cnt_w, 0));
                },
                |b| {
                    b.if_(do_enq, |b| {
                        b.mem_write(storage, enq_ptr, enq.msg);
                        b.assign(enq_ptr, enq_wrap.clone());
                    });
                    b.if_(do_deq, |b| b.assign(deq_ptr, deq_wrap.clone()));
                    b.if_(do_enq.ex() & !do_deq.ex(), |b| {
                        b.assign(count, count + Expr::k(cnt_w, 1));
                    });
                    b.if_(!do_enq.ex() & do_deq.ex(), |b| {
                        b.assign(count, count - Expr::k(cnt_w, 1));
                    });
                },
            );
        });
    }
}

/// A single-entry bypass queue: an empty queue passes the enqueued message
/// combinationally to the dequeue side in the same cycle.
#[derive(Debug, Clone, Copy, Hash)]
pub struct BypassQueue {
    nbits: u32,
}

impl BypassQueue {
    /// Creates a single-entry bypass queue for `nbits` messages.
    pub fn new(nbits: u32) -> Self {
        Self { nbits }
    }
}

impl Component for BypassQueue {
    fn build(&self, c: &mut Ctx) {
        let enq = c.in_valrdy("enq", self.nbits);
        let deq = c.out_valrdy("deq", self.nbits);

        let full = c.wire("full", 1);
        let buffer = c.wire("buffer", self.nbits);
        let reset = c.reset();

        c.comb("comb_logic", |b| {
            b.assign(enq.rdy, !full.ex());
            b.assign(deq.val, full.ex() | enq.val.ex());
            b.assign(deq.msg, full.mux(buffer, enq.msg));
        });

        c.seq("seq_logic", |b| {
            b.if_else(
                reset,
                |b| b.assign(full, Expr::bool(false)),
                |b| {
                    // Buffer an arriving message that is not bypassed out.
                    b.if_(enq.val.ex() & enq.rdy.ex() & !deq.rdy.ex(), |b| {
                        b.assign(buffer, enq.msg);
                        b.assign(full, Expr::bool(true));
                    });
                    // Drain the buffered message.
                    b.if_(full.ex() & deq.rdy.ex(), |b| {
                        b.assign(full, Expr::bool(false));
                    });
                },
            );
        });
    }
}

/// Builds the message sequence 0..n at a given width — handy for queue and
/// network tests.
pub fn counting_msgs(width: u32, n: u64) -> Vec<Bits> {
    (0..n).map(|i| Bits::new(width, i as u128)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    fn drain(sim: &mut Sim, expect: &[u128], _width: u32) {
        sim.poke_port("deq_rdy", b(1, 1));
        let mut got = Vec::new();
        for _ in 0..(expect.len() * 4 + 8) {
            if sim.peek_port("deq_val") == b(1, 1) {
                got.push(sim.peek_port("deq_msg").as_u128());
            }
            sim.cycle();
            if got.len() == expect.len() {
                break;
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn queue_preserves_fifo_order() {
        for engine in Engine::ALL {
            let mut sim = Sim::build(&NormalQueue::new(8, 4), engine).unwrap();
            sim.reset();
            sim.poke_port("deq_rdy", b(1, 0));
            for v in [3u128, 1, 4, 1] {
                assert_eq!(sim.peek_port("enq_rdy"), b(1, 1), "{engine}");
                sim.poke_port("enq_msg", b(8, v));
                sim.poke_port("enq_val", b(1, 1));
                sim.cycle();
            }
            sim.poke_port("enq_val", b(1, 0));
            assert_eq!(sim.peek_port("enq_rdy"), b(1, 0), "{engine}: queue should be full");
            drain(&mut sim, &[3, 1, 4, 1], 8);
        }
    }

    #[test]
    fn queue_backpressures_when_full() {
        let mut sim = Sim::build(&NormalQueue::new(8, 2), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.poke_port("deq_rdy", b(1, 0));
        sim.poke_port("enq_val", b(1, 1));
        sim.poke_port("enq_msg", b(8, 1));
        sim.cycle();
        sim.poke_port("enq_msg", b(8, 2));
        sim.cycle();
        assert_eq!(sim.peek_port("enq_rdy"), b(1, 0));
        // Freeing one slot restores readiness.
        sim.poke_port("enq_val", b(1, 0));
        sim.poke_port("deq_rdy", b(1, 1));
        sim.cycle();
        assert_eq!(sim.peek_port("enq_rdy"), b(1, 1));
    }

    #[test]
    fn queue_sustains_full_throughput_with_two_entries() {
        let mut sim = Sim::build(&NormalQueue::new(8, 2), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.poke_port("deq_rdy", b(1, 1));
        let mut received = 0u64;
        for i in 0..100u64 {
            assert_eq!(sim.peek_port("enq_rdy"), b(1, 1), "stall at {i}");
            sim.poke_port("enq_val", b(1, 1));
            sim.poke_port("enq_msg", b(8, (i % 256) as u128));
            if sim.peek_port("deq_val") == b(1, 1) {
                received += 1;
            }
            sim.cycle();
        }
        // Steady-state: one message per cycle minus the initial fill bubble.
        assert!(received >= 98, "only {received} messages in 100 cycles");
    }

    #[test]
    fn bypass_queue_passes_through_combinationally() {
        for engine in [Engine::Interpreted, Engine::SpecializedOpt] {
            let mut sim = Sim::build(&BypassQueue::new(8), engine).unwrap();
            sim.reset();
            sim.poke_port("enq_val", b(1, 1));
            sim.poke_port("enq_msg", b(8, 0x33));
            sim.poke_port("deq_rdy", b(1, 1));
            sim.eval();
            assert_eq!(sim.peek_port("deq_val"), b(1, 1), "{engine}");
            assert_eq!(sim.peek_port("deq_msg"), b(8, 0x33), "{engine}");
        }
    }

    #[test]
    fn bypass_queue_buffers_on_stall() {
        let mut sim = Sim::build(&BypassQueue::new(8), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.poke_port("enq_val", b(1, 1));
        sim.poke_port("enq_msg", b(8, 0x44));
        sim.poke_port("deq_rdy", b(1, 0));
        sim.cycle();
        // Message buffered; queue now full.
        sim.poke_port("enq_val", b(1, 0));
        assert_eq!(sim.peek_port("enq_rdy"), b(1, 0));
        assert_eq!(sim.peek_port("deq_val"), b(1, 1));
        assert_eq!(sim.peek_port("deq_msg"), b(8, 0x44));
        sim.poke_port("deq_rdy", b(1, 1));
        sim.cycle();
        assert_eq!(sim.peek_port("deq_val"), b(1, 0));
        assert_eq!(sim.peek_port("enq_rdy"), b(1, 1));
    }

    #[test]
    fn counting_msgs_helper() {
        let msgs = counting_msgs(8, 3);
        assert_eq!(msgs, vec![b(8, 0), b(8, 1), b(8, 2)]);
    }
}
