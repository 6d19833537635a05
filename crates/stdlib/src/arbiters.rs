//! Arbiters for shared-resource arbitration (cache ports, router outputs).

use mtl_core::{clog2, Component, Ctx, Expr};

/// A round-robin arbiter: grants one of `nreqs` requesters per cycle,
/// rotating priority after each grant so every requester is served fairly.
///
/// Ports: `reqs` (nreqs bits in), `grants` (nreqs one-hot bits out).
///
/// # Examples
///
/// ```
/// use mtl_stdlib::RoundRobinArbiter;
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// let mut sim = Sim::build(&RoundRobinArbiter::new(4), Engine::SpecializedOpt).unwrap();
/// sim.reset();
/// sim.poke_port("reqs", b(4, 0b1010));
/// sim.eval();
/// let g = sim.peek_port("grants").as_u64();
/// assert!(g == 0b0010 || g == 0b1000);
/// ```
#[derive(Debug, Clone, Copy, Hash)]
pub struct RoundRobinArbiter {
    nreqs: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter for `nreqs` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `nreqs < 2`.
    pub fn new(nreqs: usize) -> Self {
        assert!(nreqs >= 2, "arbiter needs at least two requesters");
        Self { nreqs }
    }
}

impl Component for RoundRobinArbiter {
    fn build(&self, c: &mut Ctx) {
        let n = self.nreqs;
        let nw = n as u32;
        let reqs = c.in_port("reqs", nw);
        let grants = c.out_port("grants", nw);
        let prio = c.wire("prio", clog2(n as u64));
        let reset = c.reset();
        let pw = prio.width();

        // For each possible priority p, the grant is the first asserted
        // request scanning p, p+1, ..., wrapping around. The per-priority
        // grant expressions are generated with ordinary Rust elaboration
        // and selected by the priority register — the "powerful
        // elaboration" pattern the paper highlights.
        let grant_for = |p: usize| -> Expr {
            let mut e = Expr::k(nw, 0);
            // Build from lowest priority to highest so the highest wins.
            for k in (0..n).rev() {
                let idx = (p + k) % n;
                e = reqs.bit(idx as u32).mux(Expr::k(nw, 1 << idx), e);
            }
            e
        };
        let options: Vec<Expr> = (0..n).map(grant_for).collect();
        c.comb("grant_comb", |b| {
            b.assign(grants, prio.select(options));
        });

        // Rotate priority past the granted requester.
        let mut next_prio = prio.ex();
        for idx in 0..n {
            let succ = Expr::k(pw, ((idx + 1) % n) as u128);
            next_prio = grants.bit(idx as u32).mux(succ, next_prio);
        }
        c.seq("prio_seq", |b| {
            b.if_else(
                reset,
                |b| b.assign(prio, Expr::k(pw, 0)),
                |b| b.assign(prio, next_prio.clone()),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::b;
    use mtl_sim::{Engine, Sim};

    #[test]
    fn grants_are_one_hot_and_subset_of_reqs() {
        let mut sim = Sim::build(&RoundRobinArbiter::new(4), Engine::SpecializedOpt).unwrap();
        sim.reset();
        for reqs in 0u64..16 {
            sim.poke_port("reqs", b(4, reqs as u128));
            sim.eval();
            let g = sim.peek_port("grants").as_u64();
            assert!(g.count_ones() <= 1, "reqs={reqs:04b} grants={g:04b}");
            assert_eq!(g & reqs, g, "grant outside request set");
            if reqs != 0 {
                assert_eq!(g.count_ones(), 1, "no grant despite requests");
            }
            sim.cycle();
        }
    }

    #[test]
    fn rotation_is_fair_under_contention() {
        for engine in [Engine::Interpreted, Engine::SpecializedOpt] {
            let mut sim = Sim::build(&RoundRobinArbiter::new(4), engine).unwrap();
            sim.reset();
            sim.poke_port("reqs", b(4, 0b1111));
            let mut counts = [0u32; 4];
            for _ in 0..40 {
                sim.eval();
                let g = sim.peek_port("grants").as_u64();
                counts[g.trailing_zeros() as usize] += 1;
                sim.cycle();
            }
            assert_eq!(counts, [10, 10, 10, 10], "{engine}: unfair rotation {counts:?}");
        }
    }
}
