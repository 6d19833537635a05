//! Basic RTL building blocks: registers, muxes, and arithmetic units.
//!
//! These mirror the paper's Figure 2 models (`Register`, `Mux`, `MuxReg`)
//! and are fully translatable to Verilog.

use mtl_core::{clog2, Component, Ctx, Expr};

/// A D flip-flop of parameterizable width (the paper's `Register`).
///
/// # Examples
///
/// ```
/// use mtl_stdlib::Register;
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// let mut sim = Sim::build(&Register::new(8), Engine::SpecializedOpt).unwrap();
/// sim.poke_port("in_", b(8, 0x5A));
/// sim.cycle();
/// assert_eq!(sim.peek_port("out"), b(8, 0x5A));
/// ```
#[derive(Debug, Clone, Copy, Hash)]
pub struct Register {
    nbits: u32,
}

impl Register {
    /// Creates a register of `nbits` width.
    pub fn new(nbits: u32) -> Self {
        Self { nbits }
    }
}

impl Component for Register {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_port("in_", self.nbits);
        let out = c.out_port("out", self.nbits);
        c.seq("seq_logic", |b| b.assign(out, in_));
    }
}

/// A register with a write-enable input.
#[derive(Debug, Clone, Copy, Hash)]
pub struct RegEn {
    nbits: u32,
}

impl RegEn {
    /// Creates an enabled register of `nbits` width.
    pub fn new(nbits: u32) -> Self {
        Self { nbits }
    }
}

impl Component for RegEn {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_port("in_", self.nbits);
        let en = c.in_port("en", 1);
        let out = c.out_port("out", self.nbits);
        c.seq("seq_logic", |b| {
            b.if_(en, |b| b.assign(out, in_));
        });
    }
}

/// A register that resets to a configurable value.
#[derive(Debug, Clone, Hash)]
pub struct RegRst {
    nbits: u32,
    reset_value: u128,
}

impl RegRst {
    /// Creates a resettable register of `nbits` width resetting to
    /// `reset_value`.
    pub fn new(nbits: u32, reset_value: u128) -> Self {
        Self { nbits, reset_value }
    }
}

impl Component for RegRst {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_port("in_", self.nbits);
        let out = c.out_port("out", self.nbits);
        let reset = c.reset();
        let rv = Expr::k(self.nbits, self.reset_value);
        c.seq("seq_logic", |b| {
            b.if_else(reset, |b| b.assign(out, rv.clone()), |b| b.assign(out, in_));
        });
    }
}

/// An n-way multiplexer (the paper's `Mux`), parameterizable by bitwidth
/// and number of ports.
///
/// # Examples
///
/// ```
/// use mtl_stdlib::Mux;
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// let mut sim = Sim::build(&Mux::new(8, 4), Engine::SpecializedOpt).unwrap();
/// for i in 0..4u64 {
///     sim.poke_port(&format!("in__{i}"), b(8, 10 + i as u128));
/// }
/// sim.poke_port("sel", b(2, 2));
/// sim.eval();
/// assert_eq!(sim.peek_port("out"), b(8, 12));
/// ```
#[derive(Debug, Clone, Copy, Hash)]
pub struct Mux {
    nbits: u32,
    nports: usize,
}

impl Mux {
    /// Creates a mux with `nports` inputs of `nbits` each.
    ///
    /// # Panics
    ///
    /// Panics if `nports < 2`.
    pub fn new(nbits: u32, nports: usize) -> Self {
        assert!(nports >= 2, "mux needs at least two inputs");
        Self { nbits, nports }
    }
}

impl Component for Mux {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_ports("in_", self.nports, self.nbits);
        let sel = c.in_port("sel", clog2(self.nports as u64));
        let out = c.out_port("out", self.nbits);
        c.comb("comb_logic", |b| {
            b.assign(out, sel.select(in_.iter().map(|s| s.ex()).collect()));
        });
    }
}

/// The paper's `MuxReg`: a mux structurally composed with a register.
#[derive(Debug, Clone, Copy, Hash)]
pub struct MuxReg {
    nbits: u32,
    nports: usize,
}

impl MuxReg {
    /// Creates a `MuxReg` with `nports` inputs of `nbits` each.
    pub fn new(nbits: u32, nports: usize) -> Self {
        Self { nbits, nports }
    }
}

impl Default for MuxReg {
    /// The paper's default parameterization: 8 bits, 4 ports.
    fn default() -> Self {
        Self::new(8, 4)
    }
}

impl Component for MuxReg {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_ports("in_", self.nports, self.nbits);
        let sel = c.in_port("sel", clog2(self.nports as u64));
        let out = c.out_port("out", self.nbits);

        let reg_ = c.instantiate("reg_", &Register::new(self.nbits));
        let mux = c.instantiate("mux", &Mux::new(self.nbits, self.nports));

        c.connect(sel, c.port_of(&mux, "sel"));
        for (i, &p) in in_.iter().enumerate() {
            c.connect(p, c.port_of(&mux, &format!("in__{i}")));
        }
        c.connect(c.port_of(&mux, "out"), c.port_of(&reg_, "in_"));
        c.connect(c.port_of(&reg_, "out"), out);
    }
}

/// A combinational adder with carry-out.
#[derive(Debug, Clone, Copy, Hash)]
pub struct Adder {
    nbits: u32,
}

impl Adder {
    /// Creates an adder of `nbits` width.
    pub fn new(nbits: u32) -> Self {
        Self { nbits }
    }
}

impl Component for Adder {
    fn build(&self, c: &mut Ctx) {
        let a = c.in_port("a", self.nbits);
        let b_in = c.in_port("b", self.nbits);
        let sum = c.out_port("sum", self.nbits);
        let cout = c.out_port("cout", 1);
        let w = self.nbits;
        c.comb("comb_logic", |b| {
            let wide = a.zext(w + 1) + b_in.zext(w + 1);
            b.assign(sum, wide.clone().trunc(w));
            b.assign(cout, wide.bit(w));
        });
    }
}

/// A saturating or wrapping counter with enable and clear.
#[derive(Debug, Clone, Copy, Hash)]
pub struct Counter {
    nbits: u32,
}

impl Counter {
    /// Creates a wrapping up-counter of `nbits` width.
    pub fn new(nbits: u32) -> Self {
        Self { nbits }
    }
}

impl Component for Counter {
    fn build(&self, c: &mut Ctx) {
        let en = c.in_port("en", 1);
        let clear = c.in_port("clear", 1);
        let count = c.out_port("count", self.nbits);
        let reset = c.reset();
        let one = Expr::k(self.nbits, 1);
        let zero = Expr::k(self.nbits, 0);
        c.seq("seq_logic", |b| {
            b.if_else(
                reset.ex().or(clear),
                |b| b.assign(count, zero.clone()),
                |b| {
                    b.if_(en, |b| b.assign(count, count + one.clone()));
                },
            );
        });
    }
}

/// A pipelined integer multiplier (the paper's `IntPipelinedMultiplier`):
/// `product = op_a * op_b` after `nstages` cycles.
#[derive(Debug, Clone, Copy, Hash)]
pub struct IntPipelinedMultiplier {
    nbits: u32,
    nstages: usize,
}

impl IntPipelinedMultiplier {
    /// Creates a multiplier of `nbits` width with `nstages` pipeline
    /// stages.
    ///
    /// # Panics
    ///
    /// Panics if `nstages` is zero.
    pub fn new(nbits: u32, nstages: usize) -> Self {
        assert!(nstages >= 1, "multiplier needs at least one stage");
        Self { nbits, nstages }
    }
}

impl Component for IntPipelinedMultiplier {
    fn build(&self, c: &mut Ctx) {
        let op_a = c.in_port("op_a", self.nbits);
        let op_b = c.in_port("op_b", self.nbits);
        let product = c.out_port("product", self.nbits);

        // The product is computed combinationally into the first stage
        // register and then shifted through the remaining stages, modeling
        // a retimed pipeline with `nstages` cycles of latency.
        let stages = c.wires("stage", self.nstages, self.nbits);
        c.seq("pipe_logic", |b| {
            b.assign(stages[0], op_a * op_b);
            for i in 1..self.nstages {
                b.assign(stages[i], stages[i - 1]);
            }
        });
        c.connect(stages[self.nstages - 1], product);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    #[test]
    fn register_delays_by_one_cycle() {
        for engine in Engine::ALL {
            let mut sim = Sim::build(&Register::new(16), engine).unwrap();
            sim.poke_port("in_", b(16, 0xBEEF));
            assert_eq!(sim.peek_port("out"), b(16, 0), "{engine}");
            sim.cycle();
            assert_eq!(sim.peek_port("out"), b(16, 0xBEEF), "{engine}");
        }
    }

    #[test]
    fn regen_holds_without_enable() {
        for engine in Engine::ALL {
            let mut sim = Sim::build(&RegEn::new(8), engine).unwrap();
            sim.poke_port("in_", b(8, 7));
            sim.poke_port("en", b(1, 1));
            sim.cycle();
            assert_eq!(sim.peek_port("out"), b(8, 7), "{engine}");
            sim.poke_port("in_", b(8, 9));
            sim.poke_port("en", b(1, 0));
            sim.cycle();
            assert_eq!(sim.peek_port("out"), b(8, 7), "{engine}");
        }
    }

    #[test]
    fn regrst_resets_to_value() {
        let mut sim = Sim::build(&RegRst::new(8, 0x42), Engine::SpecializedOpt).unwrap();
        sim.poke_port("in_", b(8, 0x99));
        sim.reset();
        assert_eq!(sim.peek_port("out"), b(8, 0x42));
        sim.cycle();
        assert_eq!(sim.peek_port("out"), b(8, 0x99));
    }

    #[test]
    fn mux_selects_each_input() {
        for engine in [Engine::Interpreted, Engine::SpecializedOpt] {
            let mut sim = Sim::build(&Mux::new(8, 3), engine).unwrap();
            for i in 0..3u64 {
                sim.poke_port(&format!("in__{i}"), b(8, 0x10 + i as u128));
            }
            for i in 0..3u64 {
                sim.poke_port("sel", b(2, i as u128));
                sim.eval();
                assert_eq!(sim.peek_port("out"), b(8, 0x10 + i as u128), "{engine} sel={i}");
            }
        }
    }

    #[test]
    fn muxreg_structural_composition() {
        // The paper's Figure 4 test harness, across all engines.
        for engine in Engine::ALL {
            let mut sim = Sim::build(&MuxReg::new(8, 4), engine).unwrap();
            for i in 0..4u64 {
                sim.poke_port(&format!("in__{i}"), b(8, 0xA0 + i as u128));
            }
            for sel in 0..4u64 {
                sim.poke_port("sel", b(2, sel as u128));
                sim.cycle();
                assert_eq!(sim.peek_port("out"), b(8, 0xA0 + sel as u128), "{engine} sel={sel}");
            }
        }
    }

    #[test]
    fn adder_produces_carry() {
        let mut sim = Sim::build(&Adder::new(8), Engine::SpecializedOpt).unwrap();
        sim.poke_port("a", b(8, 0xF0));
        sim.poke_port("b", b(8, 0x20));
        sim.eval();
        assert_eq!(sim.peek_port("sum"), b(8, 0x10));
        assert_eq!(sim.peek_port("cout"), b(1, 1));
    }

    #[test]
    fn counter_counts_clears_and_resets() {
        let mut sim = Sim::build(&Counter::new(4), Engine::SpecializedOpt).unwrap();
        sim.reset();
        sim.poke_port("en", b(1, 1));
        sim.poke_port("clear", b(1, 0));
        sim.run(5);
        assert_eq!(sim.peek_port("count"), b(4, 5));
        sim.poke_port("clear", b(1, 1));
        sim.cycle();
        assert_eq!(sim.peek_port("count"), b(4, 0));
    }

    #[test]
    fn multiplier_latency_matches_stages() {
        for nstages in [1, 2, 4] {
            let mut sim =
                Sim::build(&IntPipelinedMultiplier::new(32, nstages), Engine::SpecializedOpt)
                    .unwrap();
            sim.poke_port("op_a", b(32, 7));
            sim.poke_port("op_b", b(32, 6));
            for _ in 0..nstages {
                sim.cycle();
            }
            assert_eq!(sim.peek_port("product"), b(32, 42), "nstages={nstages}");
        }
    }
}
