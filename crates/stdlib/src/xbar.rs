//! A combinational crossbar.

use mtl_core::{clog2, Component, Ctx};

/// An n×n combinational crossbar: `out_i = in_[sel_i]`.
///
/// # Examples
///
/// ```
/// use mtl_stdlib::Crossbar;
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// let mut sim = Sim::build(&Crossbar::new(8, 2), Engine::SpecializedOpt).unwrap();
/// sim.poke_port("in__0", b(8, 0x11));
/// sim.poke_port("in__1", b(8, 0x22));
/// sim.poke_port("sel_0", b(1, 1));
/// sim.poke_port("sel_1", b(1, 0));
/// sim.eval();
/// assert_eq!(sim.peek_port("out_0"), b(8, 0x22));
/// assert_eq!(sim.peek_port("out_1"), b(8, 0x11));
/// ```
#[derive(Debug, Clone, Copy, Hash)]
pub struct Crossbar {
    nbits: u32,
    nports: usize,
}

impl Crossbar {
    /// Creates an `nports`×`nports` crossbar of `nbits` messages.
    ///
    /// # Panics
    ///
    /// Panics if `nports < 2`.
    pub fn new(nbits: u32, nports: usize) -> Self {
        assert!(nports >= 2, "crossbar needs at least two ports");
        Self { nbits, nports }
    }
}

impl Component for Crossbar {
    fn build(&self, c: &mut Ctx) {
        let in_ = c.in_ports("in_", self.nports, self.nbits);
        let sel_w = clog2(self.nports as u64);
        let sels: Vec<_> =
            (0..self.nports).map(|i| c.in_port(&format!("sel_{i}"), sel_w)).collect();
        let outs = c.out_ports("out", self.nports, self.nbits);
        c.comb("xbar_comb", |b| {
            for i in 0..self.nports {
                b.assign(outs[i], sels[i].select(in_.iter().map(|s| s.ex()).collect()));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    #[test]
    fn all_permutations_route_correctly() {
        let mut sim = Sim::build(&Crossbar::new(8, 3), Engine::SpecializedOpt).unwrap();
        for i in 0..3u64 {
            sim.poke_port(&format!("in__{i}"), b(8, 0x10 * (i as u128 + 1)));
        }
        for s0 in 0..3u64 {
            for s1 in 0..3u64 {
                for s2 in 0..3u64 {
                    sim.poke_port("sel_0", b(2, s0 as u128));
                    sim.poke_port("sel_1", b(2, s1 as u128));
                    sim.poke_port("sel_2", b(2, s2 as u128));
                    sim.eval();
                    assert_eq!(sim.peek_port("out_0"), b(8, 0x10 * (s0 as u128 + 1)));
                    assert_eq!(sim.peek_port("out_1"), b(8, 0x10 * (s1 as u128 + 1)));
                    assert_eq!(sim.peek_port("out_2"), b(8, 0x10 * (s2 as u128 + 1)));
                }
            }
        }
    }
}
