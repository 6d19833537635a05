//! A register file with two combinational read ports and one write port.

use mtl_core::{clog2, Component, Ctx};

/// A `nregs` × `nbits` register file. Register 0 reads as zero (RISC
/// convention), which the processor models rely on.
///
/// Ports: `raddr0`/`rdata0`, `raddr1`/`rdata1`, `wen`/`waddr`/`wdata`.
///
/// # Examples
///
/// ```
/// use mtl_stdlib::RegisterFile;
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// let mut sim = Sim::build(&RegisterFile::new(32, 32), Engine::SpecializedOpt).unwrap();
/// sim.poke_port("wen", b(1, 1));
/// sim.poke_port("waddr", b(5, 3));
/// sim.poke_port("wdata", b(32, 99));
/// sim.cycle();
/// sim.poke_port("raddr0", b(5, 3));
/// sim.eval();
/// assert_eq!(sim.peek_port("rdata0"), b(32, 99));
/// ```
#[derive(Debug, Clone, Copy, Hash)]
pub struct RegisterFile {
    nregs: u64,
    nbits: u32,
}

impl RegisterFile {
    /// Creates a register file with `nregs` registers of `nbits` each.
    ///
    /// # Panics
    ///
    /// Panics if `nregs < 2`.
    pub fn new(nregs: u64, nbits: u32) -> Self {
        assert!(nregs >= 2, "register file needs at least two registers");
        Self { nregs, nbits }
    }
}

impl Component for RegisterFile {
    fn build(&self, c: &mut Ctx) {
        let aw = clog2(self.nregs);
        let raddr0 = c.in_port("raddr0", aw);
        let rdata0 = c.out_port("rdata0", self.nbits);
        let raddr1 = c.in_port("raddr1", aw);
        let rdata1 = c.out_port("rdata1", self.nbits);
        let wen = c.in_port("wen", 1);
        let waddr = c.in_port("waddr", aw);
        let wdata = c.in_port("wdata", self.nbits);

        let regs = c.mem("regs", self.nregs, self.nbits);
        let zero = mtl_core::Expr::k(self.nbits, 0);
        let zaddr = mtl_core::Expr::k(aw, 0);

        c.comb("read_comb", |b| {
            b.assign(rdata0, raddr0.eq(zaddr.clone()).mux(zero.clone(), regs.read(raddr0)));
            b.assign(rdata1, raddr1.eq(zaddr.clone()).mux(zero.clone(), regs.read(raddr1)));
        });

        c.seq("write_seq", |b| {
            b.if_(wen.ex() & waddr.ne(zaddr.clone()), |b| {
                b.mem_write(regs, waddr, wdata);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    #[test]
    fn register_zero_is_hardwired() {
        let mut sim = Sim::build(&RegisterFile::new(32, 32), Engine::SpecializedOpt).unwrap();
        sim.poke_port("wen", b(1, 1));
        sim.poke_port("waddr", b(5, 0));
        sim.poke_port("wdata", b(32, 0xFFFF_FFFF));
        sim.cycle();
        sim.poke_port("raddr0", b(5, 0));
        sim.eval();
        assert_eq!(sim.peek_port("rdata0"), b(32, 0));
    }

    #[test]
    fn two_read_ports_see_committed_writes() {
        for engine in [Engine::Interpreted, Engine::SpecializedOpt] {
            let mut sim = Sim::build(&RegisterFile::new(16, 8), engine).unwrap();
            for r in 1..16u64 {
                sim.poke_port("wen", b(1, 1));
                sim.poke_port("waddr", b(4, r as u128));
                sim.poke_port("wdata", b(8, (r * 3) as u128));
                sim.cycle();
            }
            sim.poke_port("wen", b(1, 0));
            for r in 1..16u64 {
                sim.poke_port("raddr0", b(4, r as u128));
                sim.poke_port("raddr1", b(4, (15 - r + 1) as u128 % 16));
                sim.eval();
                assert_eq!(sim.peek_port("rdata0"), b(8, (r * 3) as u128), "{engine}");
            }
        }
    }

    #[test]
    fn write_visible_next_cycle_not_same_cycle() {
        let mut sim = Sim::build(&RegisterFile::new(8, 8), Engine::SpecializedOpt).unwrap();
        sim.poke_port("raddr0", b(3, 5));
        sim.poke_port("wen", b(1, 1));
        sim.poke_port("waddr", b(3, 5));
        sim.poke_port("wdata", b(8, 77));
        sim.eval();
        assert_eq!(sim.peek_port("rdata0"), b(8, 0), "write must not bypass");
        sim.cycle();
        assert_eq!(sim.peek_port("rdata0"), b(8, 77));
    }
}
