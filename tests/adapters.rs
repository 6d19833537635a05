//! Unit tests for the val/rdy queue adapters driven through a real
//! simulated design (the adapters' semantics only exist at simulation
//! time).

use std::sync::{Arc, Mutex};

use rustmtl::core::{Bits, Component, Ctx, InValRdyQueue, Keyed, OutValRdyQueue};
use rustmtl::sim::{Engine, Sim};

/// A component that moves messages from its input bundle to its output
/// bundle through the two adapters, recording occupancy history.
struct AdapterPipe {
    capacity: usize,
    history: Arc<Mutex<Vec<(usize, usize)>>>,
}

/// Keyless: it records its transfers in a shared history.
impl Keyed for AdapterPipe {}

impl Component for AdapterPipe {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_valrdy("in_", 8);
        let out = c.out_valrdy("out", 8);
        let reset = c.reset();
        let mut rx = InValRdyQueue::new(in_, self.capacity);
        let mut tx = OutValRdyQueue::new(out, self.capacity);
        let history = self.history.clone();
        let mut reads = vec![reset];
        reads.extend(rx.read_signals());
        reads.extend(tx.read_signals());
        let mut writes = Vec::new();
        writes.extend(rx.write_signals());
        writes.extend(tx.write_signals());
        c.tick_fl("pipe", &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                rx.reset(s);
                tx.reset(s);
                return;
            }
            rx.xtick(s);
            tx.xtick(s);
            while !rx.is_empty() && !tx.is_full() {
                tx.push(rx.pop().expect("non-empty"));
            }
            history.lock().unwrap().push((rx.len(), tx.len()));
            rx.post(s);
            tx.post(s);
        });
    }
}

#[test]
fn adapter_pipe_preserves_order_under_random_stalls() {
    let history = Arc::new(Mutex::new(Vec::new()));
    let pipe = AdapterPipe { capacity: 2, history: history.clone() };
    let mut sim = Sim::build(&pipe, Engine::SpecializedOpt).unwrap();
    sim.reset();

    let msgs: Vec<u64> = (1..=30).collect();
    let mut sent = 0usize;
    let mut got: Vec<u64> = Vec::new();
    let mut lfsr = 0xACE1u32;
    for _ in 0..600 {
        lfsr = lfsr.wrapping_mul(75) % 65537;
        // Source side: offer the next message with random gaps.
        if sent < msgs.len() && !lfsr.is_multiple_of(3) {
            sim.poke_port("in__msg", Bits::new(8, msgs[sent] as u128));
            sim.poke_port("in__val", Bits::from_bool(true));
        } else {
            sim.poke_port("in__val", Bits::from_bool(false));
        }
        // Sink side: random backpressure.
        let rdy = !lfsr.is_multiple_of(5);
        sim.poke_port("out_rdy", Bits::from_bool(rdy));
        sim.eval();
        let in_handshake =
            sim.peek_port("in__val").reduce_or() && sim.peek_port("in__rdy").reduce_or();
        let out_handshake =
            sim.peek_port("out_val").reduce_or() && sim.peek_port("out_rdy").reduce_or();
        if out_handshake {
            got.push(sim.peek_port("out_msg").as_u64());
        }
        sim.cycle();
        if in_handshake {
            sent += 1;
        }
        if got.len() == msgs.len() {
            break;
        }
    }
    assert_eq!(got, msgs, "messages lost, duplicated, or reordered");
    // Occupancy never exceeded the configured capacity.
    assert!(history.lock().unwrap().iter().all(|&(a, b)| a <= 2 && b <= 2));
}

#[test]
fn adapter_capacity_backpressures_the_producer() {
    let pipe = AdapterPipe { capacity: 1, history: Arc::new(Mutex::new(Vec::new())) };
    let mut sim = Sim::build(&pipe, Engine::SpecializedOpt).unwrap();
    sim.reset();
    // Sink never ready: after the internal buffers fill, rdy must drop.
    sim.poke_port("out_rdy", Bits::from_bool(false));
    sim.poke_port("in__val", Bits::from_bool(true));
    sim.poke_port("in__msg", Bits::new(8, 7));
    let mut accepted = 0;
    for _ in 0..20 {
        sim.eval();
        if sim.peek_port("in__rdy").reduce_or() {
            accepted += 1;
        }
        sim.cycle();
    }
    assert!(accepted <= 3, "producer accepted {accepted} messages into a stalled pipe");
    assert!(sim.peek_port("in__rdy").is_zero(), "rdy must stay low once full");
}

#[test]
#[should_panic(expected = "queue capacity")]
fn zero_capacity_adapters_are_rejected() {
    #[derive(Hash)]
    struct Bad;
    impl Component for Bad {
        fn build(&self, c: &mut Ctx) {
            let in_ = c.in_valrdy("in_", 8);
            let _ = InValRdyQueue::new(in_, 0);
        }
    }
    let _ = rustmtl::core::elaborate(&Bad);
}
