//! Simulator bring-up decomposed into its public constituents —
//! `elaborate`, `Sim::with_config`, `reset` — so each lands in its own
//! span and the per-layer construction metrics come from one place.

use mtl_core::Component;
use mtl_sim::{Engine, OptReport, Overheads, Sim, SimConfig};

use crate::run::Metrics;
use crate::trace;

/// One simulator, ready to run, with what bringing it up cost.
pub struct BringUp {
    pub sim: Sim,
    pub elaborate_s: f64,
    pub build_s: f64,
    pub reset_s: f64,
    /// (signals, nets, blocks) of the elaborated design.
    pub counts: (usize, usize, usize),
}

/// Elaborates `top`, builds a simulator for it and resets it.
pub fn bring_up(top: &dyn Component, engine: Engine, cfg: &SimConfig) -> BringUp {
    let (design, elaborate_s) = trace::timed("core", "elaborate", || {
        mtl_core::elaborate(top).expect("benchmark designs elaborate")
    });
    let counts = (design.signals().len(), design.nets().len(), design.blocks().len());
    let (mut sim, build_s) =
        trace::timed("sim.build", "with_config", || Sim::with_config(design, engine, cfg));
    let ((), reset_s) = trace::timed("sim.build", "reset", || sim.reset());
    BringUp { sim, elaborate_s, build_s, reset_s, counts }
}

/// Construction metrics summed over a set of bring-ups.
#[derive(Default)]
pub struct BuildTotals {
    elaborate_s: f64,
    build_s: f64,
    reset_s: f64,
    overheads: Overheads,
    counts: (usize, usize, usize),
    opt: OptReport,
}

impl BuildTotals {
    pub fn add(&mut self, b: &BringUp) {
        self.elaborate_s += b.elaborate_s;
        self.build_s += b.build_s;
        self.reset_s += b.reset_s;
        let o = b.sim.overheads();
        self.overheads.cgen += o.cgen;
        self.overheads.comp += o.comp;
        self.overheads.wrap += o.wrap;
        self.overheads.simc += o.simc;
        self.counts.0 += b.counts.0;
        self.counts.1 += b.counts.1;
        self.counts.2 += b.counts.2;
        if let Some(r) = b.sim.opt_report() {
            self.opt.ops_before += r.ops_before;
            self.opt.ops_after += r.ops_after;
            self.opt.regs_after += r.regs_after;
            self.opt.rounds += r.rounds;
        }
    }

    /// Ops the tape engines execute after optimization (0 for engines
    /// that compile no tapes).
    pub fn ops_after(&self) -> u64 {
        self.opt.ops_after
    }

    /// Emits `core.*`, `sim.build_s` … `sim.reset_s` and `sim.opt.*`.
    pub fn emit(&self, m: &mut Metrics) {
        m.value("core.elaborate_s", self.elaborate_s);
        m.exact("core.signals", self.counts.0 as f64);
        m.exact("core.nets", self.counts.1 as f64);
        m.exact("core.blocks", self.counts.2 as f64);
        m.value("sim.build_s", self.build_s);
        m.value("sim.cgen_s", self.overheads.cgen.as_secs_f64());
        m.value("sim.comp_s", self.overheads.comp.as_secs_f64());
        m.value("sim.wrap_s", self.overheads.wrap.as_secs_f64());
        m.value("sim.simc_s", self.overheads.simc.as_secs_f64());
        m.value("sim.reset_s", self.reset_s);
        m.exact("sim.opt.ops_before", self.opt.ops_before as f64);
        m.exact("sim.opt.ops_after", self.opt.ops_after as f64);
        m.exact("sim.opt.regs_after", self.opt.regs_after as f64);
        m.exact("sim.opt.rounds", self.opt.rounds as f64);
    }
}
