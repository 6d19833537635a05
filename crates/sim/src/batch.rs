//! The batch engine ([`Engine::SpecializedBatch`]): one simulator holding
//! up to 64 independent trial states, its *lanes*.
//!
//! [`Engine::SpecializedBatch`]: crate::Engine::SpecializedBatch
//!
//! Fault and fuzz campaigns run the *same* design many times with slightly
//! different stimulus or faults. A lane here is a static [`TapeEngine`]
//! over the plan stage `specialized-opt` resolves — the same fused tapes,
//! gangs and executor, one [`PackedState`](crate::state::PackedState) and
//! register banks per lane — so the engine adds only the addressing:
//! `poke` broadcasts, `poke_lane`/`peek_lane`/`force`/`exec_block` address
//! one lane's state, `settle` a set of lanes, `peek`, `peek_mem`, the
//! activity counters and the profile read lane 0, and divergence from lane
//! 0 is one zip of every lane's `cur` words with lane 0's
//! ([`crate::Sim::divergence_masks`]).
//!
//! **A lane runs only while it differs from lane 0** (the rule of
//! concurrent fault simulation: simulate a faulty machine only where it
//! differs from the good one). Lane 0 always has its engine; any other lane
//! *follows* lane 0 — holds no engine, and its state is lane 0's by
//! construction — until a step would treat it differently:
//!
//! * broadcast steps (`poke`, `poke_mem`, `eval`, `cycle`, `edge`,
//!   `bump_cycles`) run the lanes that have an engine, so a follower
//!   follows for free, and its reads are lane 0's;
//! * a lane-addressed write (`poke_lane`, `force`, `exec_block`) to a
//!   follower first *forks* it, a copy of lane 0's engine
//!   ([`TapeEngine::fork`]); one to lane 0 first forks every follower;
//! * `settle` over a lane set keeps a follower following iff it is in the
//!   set exactly when lane 0 is, and forks it otherwise;
//! * in `divergence_masks`, a lane whose `cur` words all equal lane 0's is
//!   compared with it in full ([`TapeEngine::same_as`]) and, if equal,
//!   drops its engine and follows again. Faults it still has pending do
//!   not matter: their first write forks the lane again, from a state
//!   equal to its own.
//!
//! Faults are not this module's business: the `Sim` wrapper runs its one
//! forced-settle protocol over the lane-addressed primitives below, on the
//! lanes that hold an active fault only, which is why a faulty lane's trace
//! is byte-identical to a scalar engine running the same injection.

use std::sync::Arc;

use mtl_bits::Bits;
use mtl_core::Design;

use crate::artifact::Staged;
use crate::compile::passes::OptReport;
use crate::overheads::Overheads;
use crate::profile::EngineStats;
use crate::sim::{each_lane, EngineImpl};
use crate::tape_engine::TapeEngine;

/// Most lanes one batch simulator holds: a lane set is a `u64` mask
/// ([`crate::Sim::divergence_masks`], the fault protocol's lane sets).
pub const LANES: u32 = 64;

/// The batch backend; see the module docs.
pub(crate) struct LaneEngine {
    /// Per lane, its own static tape engine, or `None` while it follows
    /// lane 0. Lane 0 is always `Some`, and is the one read by the
    /// lane-less accessors.
    lanes: Vec<Option<TapeEngine>>,
    /// Net slots per lane.
    nets: usize,
}

impl LaneEngine {
    /// `lanes` (clamped to `1..=LANES`) zeroed lanes around a plan-stage
    /// artifact (no compilation happens here): lane 0's engine, which
    /// every other lane follows.
    pub(crate) fn new(design: Arc<Design>, staged: &Staged, lanes: u32, o: &mut Overheads) -> Self {
        let nets = design.nets().len();
        let natives = design.blocks().iter().map(|_| None).collect();
        let lead = TapeEngine::new(design, natives, false, staged, o);
        let followers = (1..lanes.clamp(1, LANES)).map(|_| None);
        LaneEngine { lanes: std::iter::once(Some(lead)).chain(followers).collect(), nets }
    }

    fn lead(&self) -> &TapeEngine {
        self.lanes[0].as_ref().expect("lane 0 always has its engine")
    }

    fn lead_mut(&mut self) -> &mut TapeEngine {
        self.lanes[0].as_mut().expect("lane 0 always has its engine")
    }

    /// The engine whose state is `lane`'s: its own, or lane 0's.
    fn lane(&self, lane: u32) -> &TapeEngine {
        self.lanes[lane as usize].as_ref().unwrap_or_else(|| self.lead())
    }

    /// Every engine, for a broadcast step.
    fn running(&mut self) -> impl Iterator<Item = &mut TapeEngine> {
        self.lanes.iter_mut().flatten()
    }

    /// The lanes that follow lane 0, as a lane mask.
    fn followers(&self) -> u64 {
        let lanes = self.lanes.iter().enumerate();
        lanes.filter(|(_, e)| e.is_none()).fold(0, |m, (lane, _)| m | 1 << lane)
    }

    /// Gives each follower in `lanes` an engine of its own, forked from
    /// lane 0's.
    fn fork(&mut self, lanes: u64) {
        for lane in each_lane(lanes & self.followers()) {
            self.lanes[lane as usize] = Some(self.lead().fork());
        }
    }

    /// `lane`'s own engine, for a write to `lane` alone: a follower is
    /// forked first, and a write to lane 0 first forks every follower.
    fn own(&mut self, lane: u32) -> &mut TapeEngine {
        self.fork(if lane == 0 { u64::MAX } else { 1 << lane });
        self.lanes[lane as usize].as_mut().expect("forked")
    }
}

impl EngineImpl for LaneEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.lead().opt_report()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        self.running().for_each(|e| e.poke(slot, v));
    }

    fn peek(&self, slot: u32) -> Bits {
        self.lead().peek(slot)
    }

    fn eval(&mut self) {
        self.running().for_each(TapeEngine::eval);
    }

    fn cycle(&mut self) {
        self.running().for_each(TapeEngine::cycle);
    }

    fn cycles(&self) -> u64 {
        self.lead().cycles()
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        self.lead().peek_mem(mem, addr)
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.running().for_each(|e| e.poke_mem(mem, addr, v));
    }

    fn set_activity(&mut self, on: bool) {
        self.lead_mut().set_activity(on);
    }

    fn activity(&self) -> &[u64] {
        self.lead().activity()
    }

    fn set_profiling(&mut self, on: bool) {
        self.lead_mut().set_profiling(on);
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.lead().stats()
    }

    fn edge(&mut self) {
        self.running().for_each(TapeEngine::edge);
    }

    fn exec_block(&mut self, lane: u32, b: u32) {
        self.own(lane).exec_block(0, b);
    }

    fn force(&mut self, lane: u32, slot: u32, v: Bits, also_next: bool) {
        self.own(lane).force(0, slot, v, also_next);
    }

    fn settle(&mut self, lanes: u64, full: bool) {
        // A follower keeps following iff it is settled exactly when lane 0
        // is; the others leave before lane 0 moves.
        let with_lead = if lanes & 1 != 0 { u64::MAX } else { 0 };
        self.fork(lanes ^ with_lead);
        for lane in each_lane(lanes & !self.followers()) {
            self.lanes[lane as usize].as_mut().expect("not a follower").settle(1, full);
        }
    }

    fn bump_cycles(&mut self) {
        self.running().for_each(TapeEngine::bump_cycles);
    }

    fn lane_count(&self) -> u32 {
        self.lanes.len() as u32
    }

    fn poke_lane(&mut self, lane: u32, slot: u32, v: Bits) {
        self.own(lane).poke(slot, v);
    }

    fn peek_lane(&self, lane: u32, slot: u32) -> Bits {
        self.lane(lane).peek(slot)
    }

    fn net_values(&self, lane: u32, out: &mut [u128]) {
        self.lane(lane).net_values(0, out);
    }

    fn comb_order(&self) -> Option<&[u32]> {
        self.lead().comb_order()
    }

    fn divergence_masks(&mut self, out: &mut Vec<u64>) -> bool {
        out.clear();
        out.resize(self.nets, 0);
        let (lead, rest) = self.lanes.split_first_mut().expect("lane 0 exists");
        let lead = lead.as_ref().expect("lane 0 always has its engine");
        let mut any = false;
        for (lane, slot) in (1..).zip(rest) {
            let Some(e) = slot else { continue };
            if e.state().mark_divergence(lead.state(), lane, out) {
                any = true;
            } else if e.same_as(lead) {
                *slot = None;
            }
        }
        any
    }

    #[cfg(test)]
    fn running_lanes(&self) -> u32 {
        self.lanes.iter().flatten().count() as u32
    }
}

#[cfg(test)]
mod tests {
    use mtl_bits::Bits;
    use mtl_core::{Component, Ctx, Expr};

    use crate::{Engine, InjectKind, Injection, Sim, SimConfig};

    /// `hi = a | 0x80`, latched into `r` every edge; `q = r ^ 1`. A flip
    /// of `hi` reaches `r` for one cycle and is gone after the next edge,
    /// and a stuck-at-1 on its top bit changes nothing.
    #[derive(Hash)]
    struct Latch;

    impl Component for Latch {
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let q = c.out_port("q", 8);
            let (hi, r) = (c.wire("hi", 8), c.wire("r", 8));
            c.comb("set_hi", |b| b.assign(hi, a | Expr::k(8, 0x80)));
            c.seq("latch", |b| b.assign(r, hi));
            c.comb("out", |b| b.assign(q, r ^ Expr::k(8, 1)));
        }
    }

    fn reset(engine: Engine, lanes: u32) -> Sim {
        let cfg = SimConfig { lanes: Some(lanes), ..SimConfig::default() };
        let mut sim = Sim::build_with_config(&Latch, engine, &cfg).expect("elaborates");
        sim.reset();
        sim
    }

    /// Every signal of every lane of `batch`, against `want(lane)`.
    fn assert_lanes(batch: &Sim, want: impl Fn(u32) -> Vec<Bits>, at: &str) {
        let signals = (0..batch.design().signals().len()).map(mtl_core::SignalId::from_index);
        let signals: Vec<_> = signals.collect();
        for lane in 0..batch.lane_count() {
            let got: Vec<Bits> = signals.iter().map(|&s| batch.peek_lane(lane, s)).collect();
            assert_eq!(got, want(lane), "{at}: lane {lane}");
        }
    }

    fn all_signals(sim: &Sim) -> Vec<Bits> {
        (0..sim.design().signals().len())
            .map(|s| sim.peek(mtl_core::SignalId::from_index(s)))
            .collect()
    }

    /// Broadcast stimulus never forks a lane: lane 0 is the only engine
    /// that runs, and every lane reads its values.
    #[test]
    fn a_clean_broadcast_run_executes_lane_0_only() {
        let mut sim = reset(Engine::SpecializedBatch, 8);
        assert_eq!(sim.running_lanes(), 1, "reset runs lane 0 only");
        let a = sim.design().top_port("a");
        let mut masks = Vec::new();
        for v in 0..20u128 {
            sim.poke(a, Bits::new(8, v * 37));
            sim.cycle();
            assert!(!sim.divergence_masks(&mut masks), "cycle {v}: a broadcast run diverged");
            assert_eq!(sim.running_lanes(), 1, "cycle {v}");
            let lane0 = all_signals(&sim);
            assert_lanes(&sim, |_| lane0.clone(), &format!("cycle {v}"));
        }
    }

    /// A lane-addressed poke forks that lane and no other; once its input
    /// is lane 0's again and the difference has left its state, the lane
    /// follows lane 0 again.
    #[test]
    fn poke_lane_detaches_that_lane_alone() {
        let mut sim = reset(Engine::SpecializedBatch, 8);
        let a = sim.design().top_port("a");
        sim.poke(a, Bits::new(8, 5));
        sim.poke_lane(3, a, Bits::new(8, 6));
        assert_eq!(sim.running_lanes(), 2, "lane 3 forked, the other six follow");
        assert_eq!(sim.peek_lane(3, a), Bits::new(8, 6));
        assert_eq!(sim.peek_lane(4, a), Bits::new(8, 5));
        sim.cycle();
        let mut masks = Vec::new();
        assert!(sim.divergence_masks(&mut masks));
        assert!(masks.iter().all(|&m| m & !(1 << 3) == 0), "only lane 3 diverges: {masks:?}");
        assert_eq!(sim.running_lanes(), 2);
        sim.poke(a, Bits::new(8, 6));
        sim.cycle();
        assert!(!sim.divergence_masks(&mut masks), "same input, same state");
        assert_eq!(sim.running_lanes(), 1, "lane 3 follows lane 0 again");
    }

    /// A flip on `hi` at cycle 5 forks lane 2 and washes out after one
    /// cycle, so the lane follows lane 0 again; a stuck-at-1 on `hi`'s top
    /// bit over cycles 9–10 forks it on each of its cycles, changes nothing
    /// and leaves a cleanup pending, whose full settle on cycle 11 forks it
    /// once more. Every lane equals a scalar twin that carries its faults,
    /// every cycle. The stimulus stops changing before the first fault: a
    /// poke that changes a value marks a lane's schedule dirty, a forced
    /// settle leaves the mark, and a lane rejoins only with lane 0's mark
    /// (which would put each rejoin one cycle later).
    #[test]
    fn a_washed_out_flip_rejoins_lane_0_and_later_faults_fork_again() {
        let mut batch = reset(Engine::SpecializedBatch, 4);
        let mut clean = reset(Engine::SpecializedOpt, 1);
        let hi = batch.find_signal("hi");
        let flip = Injection { sig: hi, mask: 1, kind: InjectKind::Flip, cycle: 5, duration: 1 };
        let stuck =
            Injection { sig: hi, mask: 0x80, kind: InjectKind::StuckAt1, cycle: 9, duration: 2 };
        let mut twin = Sim::build(&Latch, Engine::SpecializedOpt).expect("elaborates");
        for inj in [flip, stuck] {
            batch.inject_lane(2, inj);
            twin.inject(inj);
        }
        twin.reset();
        let a = batch.design().top_port("a");
        let mut masks = Vec::new();
        let (mut forked, mut followed) = (Vec::new(), Vec::new());
        for v in 0..12u128 {
            let now = batch.cycle_count();
            for sim in [&mut batch, &mut clean, &mut twin] {
                sim.poke(a, Bits::new(8, v.min(2) * 11));
                sim.cycle();
            }
            forked.push((now, batch.running_lanes()));
            batch.divergence_masks(&mut masks);
            followed.push((now, batch.running_lanes()));
            let (clean, twin) = (all_signals(&clean), all_signals(&twin));
            assert_lanes(&batch, |l| if l == 2 { twin.clone() } else { clean.clone() }, "run");
        }
        let at = |log: &[(u64, u32)], cycle| log.iter().find(|&&(c, _)| c == cycle).unwrap().1;
        assert_eq!(at(&forked, 4), 1);
        assert_eq!((at(&forked, 5), at(&followed, 5)), (2, 2), "the flip reached `r`");
        assert_eq!((at(&forked, 6), at(&followed, 6)), (2, 1), "washed out: rejoined");
        for cycle in [9, 10, 11] {
            assert_eq!(at(&forked, cycle), 2, "cycle {cycle} forks lane 2 again");
            assert_eq!(at(&followed, cycle), 1, "cycle {cycle} changed nothing: rejoined");
        }
        assert_eq!(batch.lane_fault_totals(2), twin.lane_fault_totals(0));
    }
}
