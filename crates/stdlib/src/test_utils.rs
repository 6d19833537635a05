//! Reusable FL test-bench components: sources, sinks, and harnesses.
//!
//! Because every interface is a latency-insensitive val/rdy bundle, one
//! source/sink test bench drives FL, CL, and RTL variants of a model
//! unchanged — the paper's central test-reuse claim. Sinks support
//! deterministic pseudo-random stalling to shake out flow-control bugs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, Keyed};
use mtl_sim::Sim;

/// Deterministic xorshift64* PRNG used for stall patterns (no external
/// dependencies, reproducible across runs).
#[derive(Debug, Clone)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// True with probability `percent`/100.
    pub(crate) fn chance(&mut self, percent: u8) -> bool {
        (self.next_u64() % 100) < percent as u64
    }
}

/// An FL message source driving an output val/rdy bundle (`out_*`) with a
/// fixed message sequence; `done` rises when every message has been sent.
#[derive(Hash)]
pub struct TestSource {
    width: u32,
    msgs: Vec<Bits>,
    stall_percent: u8,
    seed: u64,
}

impl TestSource {
    /// Creates a source that sends `msgs` back to back.
    ///
    /// # Panics
    ///
    /// Panics if any message width differs from `width`.
    pub fn new(width: u32, msgs: Vec<Bits>) -> Self {
        assert!(msgs.iter().all(|m| m.width() == width), "source message width mismatch");
        Self { width, msgs, stall_percent: 0, seed: 0x5EED }
    }

    /// Adds pseudo-random injection gaps with the given percent
    /// probability per cycle.
    pub fn with_stalls(mut self, percent: u8, seed: u64) -> Self {
        self.stall_percent = percent;
        self.seed = seed;
        self
    }
}

impl Component for TestSource {
    fn build(&self, c: &mut Ctx) {
        let out = c.out_valrdy("out", self.width);
        let done = c.out_port("done", 1);
        let reset = c.reset();
        let msgs = self.msgs.clone();
        let stall = self.stall_percent;
        let mut rng = XorShift::new(self.seed);
        let mut idx = 0usize;
        c.tick_fl("src_tick", &[out.val, out.rdy, reset], &[out.msg, out.val, done], move |s| {
            if s.read(reset.id()).reduce_or() {
                idx = 0;
                s.write_next(out.val.id(), Bits::from_bool(false));
                s.write_next(done.id(), Bits::from_bool(false));
                return;
            }
            let val = s.read(out.val.id()).reduce_or();
            let rdy = s.read(out.rdy.id()).reduce_or();
            if val && rdy {
                idx += 1;
            }
            let stalled = stall > 0 && rng.chance(stall);
            if idx < msgs.len() && !stalled {
                s.write_next(out.msg.id(), msgs[idx]);
                s.write_next(out.val.id(), Bits::from_bool(true));
            } else {
                s.write_next(out.val.id(), Bits::from_bool(false));
            }
            s.write_next(done.id(), Bits::from_bool(idx >= msgs.len()));
        });
    }
}

/// An FL message sink consuming an input val/rdy bundle (`in_*`) and
/// checking received messages against an expected sequence; `done` rises
/// when all have arrived.
///
/// # Panics
///
/// The sink's tick panics (failing the test) if a received message does
/// not match the expected sequence.
pub struct TestSink {
    width: u32,
    expected: Vec<Bits>,
    stall_percent: u8,
    seed: u64,
    received: Arc<AtomicUsize>,
}

impl TestSink {
    /// Creates a sink expecting exactly `expected`, in order.
    pub fn new(width: u32, expected: Vec<Bits>) -> Self {
        assert!(expected.iter().all(|m| m.width() == width), "sink message width mismatch");
        Self {
            width,
            expected,
            stall_percent: 0,
            seed: 0xD00D,
            received: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Adds pseudo-random backpressure with the given percent probability
    /// per cycle.
    pub fn with_stalls(mut self, percent: u8, seed: u64) -> Self {
        self.stall_percent = percent;
        self.seed = seed;
        self
    }

    /// A counter of messages received so far, shared with the elaborated
    /// model (readable after simulation).
    pub fn received_counter(&self) -> Arc<AtomicUsize> {
        self.received.clone()
    }
}

/// Keyless: it counts what it receives in a shared counter.
impl Keyed for TestSink {}

impl Component for TestSink {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_valrdy("in_", self.width);
        let done = c.out_port("done", 1);
        let reset = c.reset();
        let expected = self.expected.clone();
        let stall = self.stall_percent;
        let mut rng = XorShift::new(self.seed);
        let received = self.received.clone();
        c.tick_fl("sink_tick", &[in_.msg, in_.val, in_.rdy, reset], &[in_.rdy, done], move |s| {
            if s.read(reset.id()).reduce_or() {
                received.store(0, Ordering::Relaxed);
                s.write_next(in_.rdy.id(), Bits::from_bool(false));
                s.write_next(done.id(), Bits::from_bool(false));
                return;
            }
            let val = s.read(in_.val.id()).reduce_or();
            let rdy = s.read(in_.rdy.id()).reduce_or();
            let idx = received.load(Ordering::Relaxed);
            if val && rdy {
                let msg = s.read(in_.msg.id());
                assert!(
                    idx < expected.len(),
                    "sink received extra message {msg} after {} expected",
                    expected.len()
                );
                assert_eq!(
                    msg, expected[idx],
                    "sink message {idx} mismatch: got {msg}, expected {}",
                    expected[idx]
                );
                received.store(idx + 1, Ordering::Relaxed);
            }
            let want_more = received.load(Ordering::Relaxed) < expected.len();
            let stall_now = stall > 0 && rng.chance(stall);
            s.write_next(in_.rdy.id(), Bits::from_bool(want_more && !stall_now));
            s.write_next(done.id(), Bits::from_bool(!want_more));
        });
    }
}

/// A source → DUT → sink harness reused across FL/CL/RTL DUT variants.
///
/// The DUT must expose an input val/rdy bundle and an output val/rdy
/// bundle; the bundle base names are configurable (default `enq`/`deq`,
/// matching the queue components).
pub struct SourceSinkHarness {
    /// Device under test.
    pub dut: Box<dyn Component>,
    /// Message width.
    pub width: u32,
    /// Messages to send.
    pub src_msgs: Vec<Bits>,
    /// Messages the sink must receive, in order.
    pub sink_msgs: Vec<Bits>,
    /// Source stall probability (percent).
    pub src_stall: u8,
    /// Sink stall probability (percent).
    pub sink_stall: u8,
    /// DUT input bundle base name.
    pub in_base: String,
    /// DUT output bundle base name.
    pub out_base: String,
}

impl SourceSinkHarness {
    /// Creates a harness sending `msgs` through `dut` and expecting them
    /// in order on the other side.
    pub fn new(dut: Box<dyn Component>, width: u32, msgs: Vec<Bits>) -> Self {
        Self {
            dut,
            width,
            src_msgs: msgs.clone(),
            sink_msgs: msgs,
            src_stall: 0,
            sink_stall: 0,
            in_base: "enq".to_string(),
            out_base: "deq".to_string(),
        }
    }

    /// Sets source/sink stall probabilities (percent).
    pub fn with_stalls(mut self, src: u8, sink: u8) -> Self {
        self.src_stall = src;
        self.sink_stall = sink;
        self
    }

    /// Sets the DUT bundle base names.
    pub fn with_bases(mut self, in_base: &str, out_base: &str) -> Self {
        self.in_base = in_base.to_string();
        self.out_base = out_base.to_string();
        self
    }
}

/// Keyless: it holds its device under test as a `dyn Component`.
impl Keyed for SourceSinkHarness {}

impl Component for SourceSinkHarness {
    fn build(&self, c: &mut Ctx) {
        let done = c.out_port("done", 1);
        let src = c.instantiate(
            "src",
            &TestSource::new(self.width, self.src_msgs.clone()).with_stalls(self.src_stall, 0xABCD),
        );
        let sink = c.instantiate(
            "sink",
            &TestSink::new(self.width, self.sink_msgs.clone()).with_stalls(self.sink_stall, 0x1234),
        );
        let dut = c.instantiate("dut", &*self.dut);

        let src_out = c.out_valrdy_of(&src, "out");
        let dut_in = c.in_valrdy_of(&dut, &self.in_base);
        let dut_out = c.out_valrdy_of(&dut, &self.out_base);
        let sink_in = c.in_valrdy_of(&sink, "in_");
        c.connect_valrdy(src_out, dut_in);
        c.connect_valrdy(dut_out, sink_in);

        let src_done = c.port_of(&src, "done");
        let sink_done = c.port_of(&sink, "done");
        c.comb("done_comb", |b| {
            b.assign(done, src_done.ex() & sink_done.ex());
        });
    }
}

/// Runs `sim` until the 1-bit top-level port `port` rises, up to
/// `max_cycles`.
///
/// Returns the number of cycles taken.
///
/// # Panics
///
/// Panics if the port has not risen after `max_cycles` cycles.
pub fn run_until_done(sim: &mut Sim, port: &str, max_cycles: u64) -> u64 {
    let start = sim.cycle_count();
    loop {
        sim.eval();
        if sim.peek_port(port).reduce_or() {
            return sim.cycle_count() - start;
        }
        assert!(
            sim.cycle_count() - start < max_cycles,
            "`{port}` did not rise within {max_cycles} cycles"
        );
        sim.cycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{counting_msgs, NormalQueue};
    use crate::BypassQueue;
    use mtl_sim::Engine;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn source_to_sink_direct() {
        #[derive(Hash)]
        struct Wire;
        impl Component for Wire {
            fn build(&self, c: &mut Ctx) {
                let enq = c.in_valrdy("enq", 8);
                let deq = c.out_valrdy("deq", 8);
                c.connect(enq.msg, deq.msg);
                c.connect(enq.val, deq.val);
                c.connect(deq.rdy, enq.rdy);
            }
        }
        let h = SourceSinkHarness::new(Box::new(Wire), 8, counting_msgs(8, 20));
        let mut sim = Sim::build(&h, Engine::SpecializedOpt).unwrap();
        sim.reset();
        run_until_done(&mut sim, "done", 200);
    }

    #[test]
    fn harness_drives_queue_with_stalls_on_all_engines() {
        for engine in Engine::ALL {
            let h =
                SourceSinkHarness::new(Box::new(NormalQueue::new(8, 2)), 8, counting_msgs(8, 30))
                    .with_stalls(30, 30);
            let mut sim = Sim::build(&h, engine).unwrap();
            sim.reset();
            run_until_done(&mut sim, "done", 2_000);
        }
    }

    #[test]
    fn harness_drives_bypass_queue() {
        let h = SourceSinkHarness::new(Box::new(BypassQueue::new(8)), 8, counting_msgs(8, 25))
            .with_stalls(50, 50);
        let mut sim = Sim::build(&h, Engine::SpecializedOpt).unwrap();
        sim.reset();
        run_until_done(&mut sim, "done", 2_000);
    }
}
