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
//! one lane's state, `peek`, `peek_mem`, the activity counters and the
//! profile read lane 0, and divergence against a golden lane is one zip of
//! every lane's `cur` words with the golden lane's
//! ([`crate::Sim::divergence_masks`]).
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
use crate::sim::EngineImpl;
use crate::tape_engine::TapeEngine;

/// Most lanes one batch simulator holds: a lane set is a `u64` mask
/// ([`crate::Sim::divergence_masks`], the fault protocol's lane sets).
pub const LANES: u32 = 64;

/// The batch backend; see the module docs.
pub(crate) struct LaneEngine {
    /// One static tape engine per lane; lane 0 is the one read by the
    /// lane-less accessors.
    lanes: Vec<TapeEngine>,
    /// Net slots per lane.
    nets: usize,
}

impl LaneEngine {
    /// `lanes` (clamped to `1..=LANES`) zeroed states around a plan-stage
    /// artifact (no compilation happens here).
    pub(crate) fn new(design: Arc<Design>, staged: &Staged, lanes: u32, o: &mut Overheads) -> Self {
        let nets = design.nets().len();
        let lane = |_| {
            let natives = design.blocks().iter().map(|_| None).collect();
            TapeEngine::new(design.clone(), natives, false, 1, staged, o)
        };
        LaneEngine { lanes: (0..lanes.clamp(1, LANES)).map(lane).collect(), nets }
    }
}

impl EngineImpl for LaneEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.lanes[0].opt_report()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        self.lanes.iter_mut().for_each(|e| e.poke(slot, v));
    }

    fn peek(&self, slot: u32) -> Bits {
        self.lanes[0].peek(slot)
    }

    fn eval(&mut self) {
        self.lanes.iter_mut().for_each(TapeEngine::eval);
    }

    fn cycle(&mut self) {
        self.lanes.iter_mut().for_each(TapeEngine::cycle);
    }

    fn cycles(&self) -> u64 {
        self.lanes[0].cycles()
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        self.lanes[0].peek_mem(mem, addr)
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.lanes.iter_mut().for_each(|e| e.poke_mem(mem, addr, v));
    }

    fn set_activity(&mut self, on: bool) {
        self.lanes[0].set_activity(on);
    }

    fn activity(&self) -> &[u64] {
        self.lanes[0].activity()
    }

    fn set_profiling(&mut self, on: bool) {
        self.lanes[0].set_profiling(on);
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.lanes[0].stats()
    }

    fn edge(&mut self) {
        self.lanes.iter_mut().for_each(TapeEngine::edge);
    }

    fn exec_block(&mut self, lane: u32, b: u32) {
        self.lanes[lane as usize].exec_block(0, b);
    }

    fn force(&mut self, lane: u32, slot: u32, v: Bits, also_next: bool) {
        self.lanes[lane as usize].force(0, slot, v, also_next);
    }

    fn settle(&mut self, lane: u32, full: bool) {
        self.lanes[lane as usize].settle(0, full);
    }

    fn bump_cycles(&mut self) {
        self.lanes.iter_mut().for_each(TapeEngine::bump_cycles);
    }

    fn lane_count(&self) -> u32 {
        self.lanes.len() as u32
    }

    fn poke_lane(&mut self, lane: u32, slot: u32, v: Bits) {
        self.lanes[lane as usize].poke(slot, v);
    }

    fn peek_lane(&self, lane: u32, slot: u32) -> Bits {
        self.lanes[lane as usize].peek(slot)
    }

    fn net_values(&self, lane: u32, out: &mut [u128]) {
        self.lanes[lane as usize].net_values(0, out);
    }

    fn comb_order(&self) -> Option<&[u32]> {
        self.lanes[0].comb_order()
    }

    fn divergence_masks(&self, golden: u32, out: &mut Vec<u64>) -> bool {
        out.clear();
        out.resize(self.nets, 0);
        let golden_state = self.lanes[golden as usize].state();
        let mut any = false;
        for (lane, e) in self.lanes.iter().enumerate() {
            if lane != golden as usize {
                any |= e.state().mark_divergence(golden_state, lane as u32, out);
            }
        }
        any
    }
}
