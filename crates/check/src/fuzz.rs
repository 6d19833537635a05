//! Engine differential fuzzer.
//!
//! A deterministic, seed-driven loop: each iteration derives a design seed
//! (splitmix64 over the base seed and the iteration index), generates a
//! [`RandomRtl`] design, and runs it under **six** simulators — the four
//! engines of [`Engine::ALL`] plus `SpecializedPar` at 1 and 4 worker
//! threads — driving identical random stimulus into every one. After every
//! cycle the settled value of every signal and the logical profile
//! counters (per-block execution counts and per-net activity, which are a
//! pure function of the value trace) are compared against the
//! `Interpreted` reference.
//!
//! On a mismatch the failing descriptor is [`shrink`]-minimized — drop the
//! memory write, zero out register and wire expressions, prune
//! subexpressions, and garbage-collect unreferenced signals, keeping each
//! step only if the divergence still reproduces — and the failure is
//! reported with a ready-to-paste Rust reproducer
//! ([`repro_snippet`](crate::repro_snippet)) plus the seed.

use std::fmt;

use mtl_bits::Bits;
use mtl_core::{BlockId, Expr, NetId};
use mtl_sim::{Engine, Sim, SimConfig};

use crate::rtl::{expr_width, repro_snippet, RandomRtl, Rng, RtlDesc, RtlShape};

/// One engine configuration under test.
#[derive(Debug, Clone)]
pub struct EngineSel {
    /// Display label, e.g. `specialized-par@4`.
    pub label: String,
    /// The engine.
    pub engine: Engine,
    /// Explicit worker-thread count (`SpecializedPar` only).
    pub threads: Option<usize>,
    /// Whether the tape optimizer runs ([`SimConfig::tape_opt`];
    /// tape-free engines ignore it).
    pub tape_opt: bool,
}

/// The six simulator configurations every design runs under: the four
/// engines of [`Engine::ALL`], plus `SpecializedPar` pinned to 1 and 4
/// worker threads.
pub fn engines_under_test() -> Vec<EngineSel> {
    let mut sels: Vec<EngineSel> = Engine::ALL
        .iter()
        .map(|&e| EngineSel { label: e.to_string(), engine: e, threads: None, tape_opt: true })
        .collect();
    for threads in [1usize, 4] {
        sels.push(EngineSel {
            label: format!("{}@{threads}", Engine::SpecializedPar),
            engine: Engine::SpecializedPar,
            threads: Some(threads),
            tape_opt: true,
        });
    }
    sels
}

/// The optimizer-differential configuration set: both interpreters (the
/// `Interpreted` reference compiles no tapes) plus every tape-compiling
/// configuration built twice — optimizer pinned off and pinned on. Any
/// miscompiling pass shows up as a divergence between a `+opt` engine
/// and the reference (or its own `+noopt` twin).
pub fn engines_under_test_opt_diff() -> Vec<EngineSel> {
    let mut sels: Vec<EngineSel> = [Engine::Interpreted, Engine::InterpretedOpt]
        .iter()
        .map(|&e| EngineSel { label: e.to_string(), engine: e, threads: None, tape_opt: true })
        .collect();
    for (engine, threads) in [
        (Engine::Specialized, None),
        (Engine::SpecializedOpt, None),
        (Engine::SpecializedPar, Some(1usize)),
        (Engine::SpecializedPar, Some(4usize)),
    ] {
        for opt in [false, true] {
            let base = match threads {
                Some(t) => format!("{engine}@{t}"),
                None => engine.to_string(),
            };
            sels.push(EngineSel {
                label: format!("{base}{}", if opt { "+opt" } else { "+noopt" }),
                engine,
                threads,
                tape_opt: opt,
            });
        }
    }
    sels
}

/// What diverged between an engine and the `Interpreted` reference.
#[derive(Debug, Clone)]
pub enum DivergenceKind {
    /// A settled signal value differs.
    Value {
        /// Hierarchical signal path.
        signal: String,
        /// Reference (interpreted) value.
        expected: Bits,
        /// The diverging engine's value.
        got: Bits,
    },
    /// A logical per-block execution count differs.
    BlockRuns {
        /// Hierarchical block path.
        block: String,
        /// Reference count.
        expected: u64,
        /// The diverging engine's count.
        got: u64,
    },
    /// A logical per-net activity count differs.
    NetActivity {
        /// Representative net path.
        net: String,
        /// Reference count.
        expected: u64,
        /// The diverging engine's count.
        got: u64,
    },
    /// The design failed strict elaboration (a generator bug, not an
    /// engine bug; never shrunk).
    Elab(String),
}

/// A cross-engine mismatch: which engine, at which cycle, and what.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the diverging engine configuration.
    pub engine: String,
    /// Cycle index (0-based, counted after reset) at which it was seen.
    pub cycle: u64,
    /// The mismatch itself.
    pub kind: DivergenceKind,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DivergenceKind::Value { signal, expected, got } => write!(
                f,
                "engine `{}` diverged on `{signal}` at cycle {}: expected {expected}, got {got}",
                self.engine, self.cycle
            ),
            DivergenceKind::BlockRuns { block, expected, got } => write!(
                f,
                "engine `{}` diverged on block-run count of `{block}` at cycle {}: \
                 expected {expected}, got {got}",
                self.engine, self.cycle
            ),
            DivergenceKind::NetActivity { net, expected, got } => write!(
                f,
                "engine `{}` diverged on net activity of `{net}` at cycle {}: \
                 expected {expected}, got {got}",
                self.engine, self.cycle
            ),
            DivergenceKind::Elab(msg) => {
                write!(f, "engine `{}` failed strict elaboration: {msg}", self.engine)
            }
        }
    }
}

/// Fuzzer parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of designs to generate and check.
    pub iters: u64,
    /// Base seed; each iteration derives its own design seed from it.
    pub seed: u64,
    /// Cycles of random stimulus per design.
    pub cycles: u64,
    /// Design shape.
    pub shape: RtlShape,
    /// Maximum number of candidate re-runs the shrinker may spend.
    pub shrink_budget: u32,
    /// Run the optimizer-differential engine set
    /// ([`engines_under_test_opt_diff`]) instead of the default six.
    pub opt_diff: bool,
    /// Run the batch differential instead
    /// ([`run_differential_batch`]): two `SpecializedBatch` simulators
    /// (optimizer off and on) with this many lanes, each lane driven with
    /// distinct stimulus and compared against its own scalar
    /// `Interpreted` reference. Clamped to `1..=mtl_sim::BATCH_LANES`.
    pub batch_lanes: Option<u32>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 100,
            seed: 7,
            cycles: 25,
            shape: RtlShape::default(),
            shrink_budget: 300,
            opt_diff: false,
            batch_lanes: None,
        }
    }
}

/// A clean fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSummary {
    /// Designs checked.
    pub iters: u64,
    /// Engine configurations each design ran under.
    pub engines: usize,
    /// Stimulus cycles per design.
    pub cycles: u64,
}

/// A reproducible cross-engine mismatch, minimized and rendered.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Iteration index at which the mismatch appeared.
    pub iter: u64,
    /// The design seed (regenerate with `RtlDesc::generate(seed, shape)`).
    pub design_seed: u64,
    /// The divergence on the original design.
    pub divergence: Divergence,
    /// The minimized descriptor.
    pub minimized: RtlDesc,
    /// The divergence on the minimized descriptor.
    pub minimized_divergence: Divergence,
    /// Standalone Rust reproducer for the minimized design.
    pub repro: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential mismatch at iteration {} (design seed {:#x}):",
            self.iter, self.design_seed
        )?;
        writeln!(f, "  original:  {}", self.divergence)?;
        writeln!(f, "  minimized: {}", self.minimized_divergence)?;
        writeln!(
            f,
            "  minimized design: {} inputs, {} wires, {} regs, mem={}, x{} instances",
            self.minimized.inputs.len(),
            self.minimized.wires.len(),
            self.minimized.regs.len(),
            self.minimized.mem_write.is_some(),
            self.minimized.copies
        )?;
        writeln!(f, "--- reproducer ---\n{}", self.repro)
    }
}

/// Derives the design seed for iteration `iter` of a run based at `base`.
///
/// splitmix64 over the base seed and a golden-ratio stride: consecutive
/// iterations get decorrelated seeds, and any failure names a single
/// `design_seed` that regenerates the design with no other state.
pub fn design_seed(base: u64, iter: u64) -> u64 {
    let mut x = base ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The replication factor the fuzzer gives the design of `seed`
/// ([`RtlDesc::copies`]): one design in `one_in` becomes 16 to 40 instances
/// of itself, enough for the static engine to gang every block body the
/// generator can produce, with and without a partial last lane block. A
/// function of the seed alone, so a failure still names one `design_seed`.
fn replication(seed: u64, one_in: u64) -> u32 {
    let draw = design_seed(seed, 0x6A46);
    if draw.is_multiple_of(one_in) {
        16 + (draw >> 8) as u32 % 25
    } else {
        1
    }
}

/// Runs `desc` under all engine configurations for `cycles` cycles of
/// identical random stimulus and returns the first divergence, if any.
///
/// The stimulus rng is seeded with `desc.seed ^ 0xABCD`; each cycle every
/// input is driven with the next 128-bit draw (masked to its width).
pub fn run_differential(desc: &RtlDesc, cycles: u64) -> Option<Divergence> {
    run_differential_with(desc, cycles, &engines_under_test())
}

/// [`run_differential`] over an explicit engine-configuration set (e.g.
/// the optimizer-differential set).
pub fn run_differential_with(
    desc: &RtlDesc,
    cycles: u64,
    sels: &[EngineSel],
) -> Option<Divergence> {
    let mut sims: Vec<Sim> = Vec::with_capacity(sels.len());
    for sel in sels {
        let cfg = SimConfig { threads: sel.threads, tape_opt: sel.tape_opt, lanes: None };
        match Sim::build_with_config(&RandomRtl::from_desc(desc.clone()), sel.engine, &cfg) {
            Ok(sim) => sims.push(sim),
            Err(e) => {
                return Some(Divergence {
                    engine: sel.label.clone(),
                    cycle: 0,
                    kind: DivergenceKind::Elab(e.to_string()),
                })
            }
        }
    }
    for sim in &mut sims {
        sim.enable_profiling();
        sim.reset();
    }

    let nsignals = sims[0].design().signals().len();
    let inputs = desc.top_inputs();
    let mut rng = Rng((desc.seed ^ 0xABCD).max(1));
    for cycle in 0..cycles {
        for (name, w) in &inputs {
            let v = Bits::new(*w, rng.bits128());
            for sim in &mut sims {
                sim.poke_port(name, v);
            }
        }
        for sim in &mut sims {
            sim.cycle();
        }

        // Settled values: every signal, against the interpreted reference.
        for si in 0..nsignals {
            let sig = mtl_core::SignalId::from_index(si);
            let expected = sims[0].peek(sig);
            for (ei, sim) in sims.iter().enumerate().skip(1) {
                let got = sim.peek(sig);
                if got != expected {
                    return Some(Divergence {
                        engine: sels[ei].label.clone(),
                        cycle,
                        kind: DivergenceKind::Value {
                            signal: sim.design().signal_path(sig),
                            expected,
                            got,
                        },
                    });
                }
            }
        }

        // Logical profile counters: pure functions of the value trace, so
        // they must agree cycle-by-cycle as well.
        let reference = sims[0].profile().expect("profiling enabled");
        for (ei, sim) in sims.iter().enumerate().skip(1) {
            let p = sim.profile().expect("profiling enabled");
            for (bi, (&e, &g)) in reference.block_runs.iter().zip(&p.block_runs).enumerate() {
                if e != g {
                    return Some(Divergence {
                        engine: sels[ei].label.clone(),
                        cycle,
                        kind: DivergenceKind::BlockRuns {
                            block: sim.design().block_path(BlockId::from_index(bi)),
                            expected: e,
                            got: g,
                        },
                    });
                }
            }
            for (ni, (&e, &g)) in reference.net_activity.iter().zip(&p.net_activity).enumerate() {
                if e != g {
                    return Some(Divergence {
                        engine: sels[ei].label.clone(),
                        cycle,
                        kind: DivergenceKind::NetActivity {
                            net: sim.design().net_path(NetId::from_index(ni)),
                            expected: e,
                            got: g,
                        },
                    });
                }
            }
        }
    }
    None
}

/// Runs `desc` on two `SpecializedBatch` simulators with `lanes` lanes,
/// the tape optimizer off and on, against `lanes` scalar `Interpreted`
/// references.
///
/// Unlike [`run_differential`], every lane receives *distinct* stimulus
/// (rng stream seeded `desc.seed ^ 0xABCD`, drawn lane-major per input),
/// so lane-addressing bugs — a value reaching the wrong lane's state —
/// can't hide behind broadcast inputs. Both optimizer settings matter:
/// optimized draws if-convert to straight-line tapes, so the unoptimized
/// simulator (every seq block keeps its reset branch) is the one whose
/// lanes take different arms. Every signal of every lane is compared
/// against its reference after every cycle. Profile counters are not
/// compared (the batch engine profiles lane 0 only).
pub fn run_differential_batch(desc: &RtlDesc, cycles: u64, lanes: u32) -> Option<Divergence> {
    let lanes = lanes.clamp(1, mtl_sim::BATCH_LANES);
    let comp = RandomRtl::from_desc(desc.clone());
    let elab_failure = |engine: &str, e: mtl_core::ElabError| {
        Some(Divergence {
            engine: engine.into(),
            cycle: 0,
            kind: DivergenceKind::Elab(e.to_string()),
        })
    };
    let mut batches: Vec<(&str, Sim)> = Vec::with_capacity(2);
    for (label, tape_opt) in [("specialized-batch+noopt", false), ("specialized-batch+opt", true)] {
        let cfg = SimConfig { threads: None, tape_opt, lanes: Some(lanes) };
        match Sim::build_with_config(&comp, Engine::SpecializedBatch, &cfg) {
            Ok(sim) => batches.push((label, sim)),
            Err(e) => return elab_failure(label, e),
        }
    }
    let mut refs: Vec<Sim> = Vec::with_capacity(lanes as usize);
    for _ in 0..lanes {
        match Sim::build(&comp, Engine::Interpreted) {
            Ok(sim) => refs.push(sim),
            Err(e) => return elab_failure("interpreted", e),
        }
    }
    for sim in batches.iter_mut().map(|(_, sim)| sim).chain(&mut refs) {
        sim.reset();
    }

    let inputs = desc.top_inputs();
    let (input_sigs, nsignals) = {
        let design = refs[0].design();
        let sigs: Vec<mtl_core::SignalId> = inputs
            .iter()
            .map(|(name, _)| {
                design
                    .signals()
                    .iter()
                    .enumerate()
                    .find(|(_, s)| s.module == design.top() && s.name == *name)
                    .map(|(i, _)| mtl_core::SignalId::from_index(i))
                    .expect("generated input port exists at top level")
            })
            .collect();
        (sigs, design.signals().len())
    };
    let mut rng = Rng((desc.seed ^ 0xABCD).max(1));
    for cycle in 0..cycles {
        for (k, (name, w)) in inputs.iter().enumerate() {
            for lane in 0..lanes {
                let v = Bits::new(*w, rng.bits128());
                for (_, batch) in &mut batches {
                    batch.poke_lane(lane, input_sigs[k], v);
                }
                refs[lane as usize].poke_port(name, v);
            }
        }
        for sim in batches.iter_mut().map(|(_, sim)| sim).chain(&mut refs) {
            sim.cycle();
        }
        for si in 0..nsignals {
            let sig = mtl_core::SignalId::from_index(si);
            for lane in 0..lanes {
                let expected = refs[lane as usize].peek(sig);
                for (label, batch) in &batches {
                    let got = batch.peek_lane(lane, sig);
                    if got != expected {
                        return Some(Divergence {
                            engine: format!("{label}@lane{lane}"),
                            cycle,
                            kind: DivergenceKind::Value {
                                signal: batch.design().signal_path(sig),
                                expected,
                                got,
                            },
                        });
                    }
                }
            }
        }
    }
    None
}

fn is_zero_const(e: &Expr) -> bool {
    matches!(e, Expr::Const(c) if c.as_u128() == 0)
}

/// Greedily minimizes `desc` while `diverges` keeps returning `true`.
///
/// Passes, each verified by re-running the predicate (costing one unit of
/// `budget` per candidate). First of all, once: un-replicate (`copies`
/// to 1), or failing that down to one lane block's worth of instances —
/// a divergence that survives the first is not about replication at all.
/// Then:
///
/// 1. Drop the memory write path.
/// 2. Zero out each register's next-state expression.
/// 3. Zero out each wire's expression.
/// 4. Garbage-collect: remove zero-driven signals (and inputs) that no
///    remaining expression reads.
/// 5. Prune subexpressions: replace each interior node with a
///    width-matched zero constant.
///
/// Passes 1–4 repeat until a fixpoint, then pass 5 runs, then 4 once more.
pub fn shrink(desc: &RtlDesc, budget: u32, mut diverges: impl FnMut(&RtlDesc) -> bool) -> RtlDesc {
    let mut cur = desc.clone();
    let mut left = budget;

    let check = |cand: &RtlDesc, left: &mut u32, diverges: &mut dyn FnMut(&RtlDesc) -> bool| {
        if *left == 0 {
            return false;
        }
        *left -= 1;
        diverges(cand)
    };

    for copies in [1, 16] {
        if copies < cur.copies {
            let cand = RtlDesc { copies, ..cur.clone() };
            if check(&cand, &mut left, &mut diverges) {
                cur = cand;
            }
        }
    }

    // Coarse passes to fixpoint.
    loop {
        let mut changed = false;

        if cur.mem_write.is_some() {
            let mut cand = cur.clone();
            cand.mem_write = None;
            if check(&cand, &mut left, &mut diverges) {
                cur = cand;
                changed = true;
            }
        }
        for i in 0..cur.regs.len() {
            if is_zero_const(&cur.regs[i].expr) {
                continue;
            }
            let mut cand = cur.clone();
            cand.regs[i].expr = Expr::k(cand.regs[i].width, 0);
            if check(&cand, &mut left, &mut diverges) {
                cur = cand;
                changed = true;
            }
        }
        for i in 0..cur.wires.len() {
            if is_zero_const(&cur.wires[i].expr) {
                continue;
            }
            let mut cand = cur.clone();
            cand.wires[i].expr = Expr::k(cand.wires[i].width, 0);
            if check(&cand, &mut left, &mut diverges) {
                cur = cand;
                changed = true;
            }
        }
        if let Some(cand) = collect_garbage(&cur) {
            if check(&cand, &mut left, &mut diverges) {
                cur = cand;
                changed = true;
            }
        }

        if !changed || left == 0 {
            break;
        }
    }

    // Subexpression pruning.
    let widths = cur.table_widths();
    let ndefs = cur.wires.len() + cur.regs.len();
    for di in 0..ndefs {
        loop {
            if left == 0 {
                break;
            }
            let expr = if di < cur.wires.len() {
                cur.wires[di].expr.clone()
            } else {
                cur.regs[di - cur.wires.len()].expr.clone()
            };
            let mut sites = Vec::new();
            enumerate_prune_sites(&expr, &widths, &mut Vec::new(), &mut sites);
            let mut improved = false;
            for (path, w) in sites {
                let pruned = replace_at(&expr, &path, Expr::k(w, 0));
                let mut cand = cur.clone();
                if di < cand.wires.len() {
                    cand.wires[di].expr = pruned;
                } else {
                    cand.regs[di - cand.wires.len()].expr = pruned;
                }
                if check(&cand, &mut left, &mut diverges) {
                    cur = cand;
                    improved = true;
                    break; // re-enumerate against the smaller expression
                }
            }
            if !improved {
                break;
            }
        }
    }

    if let Some(cand) = collect_garbage(&cur) {
        if check(&cand, &mut left, &mut diverges) {
            cur = cand;
        }
    }
    cur
}

/// Removes table entries no remaining expression reads: zero-driven wires
/// and registers, and unused inputs. Returns `None` if nothing is
/// removable. Table indices in every surviving expression are rewritten.
fn collect_garbage(desc: &RtlDesc) -> Option<RtlDesc> {
    let nin = desc.inputs.len();
    let total = nin + desc.wires.len() + desc.regs.len();

    let mut referenced = vec![false; total];
    let mut reads = Vec::new();
    for d in desc.wires.iter().chain(&desc.regs) {
        d.expr.collect_reads(&mut reads);
    }
    if let Some((a, b)) = &desc.mem_write {
        a.collect_reads(&mut reads);
        b.collect_reads(&mut reads);
    }
    for r in reads {
        referenced[r.index()] = true;
    }

    let mut keep = vec![true; total];
    keep[..nin].copy_from_slice(&referenced[..nin]);
    for (wi, d) in desc.wires.iter().enumerate() {
        keep[nin + wi] = referenced[nin + wi] || !is_zero_const(&d.expr);
    }
    for (ri, d) in desc.regs.iter().enumerate() {
        let i = nin + desc.wires.len() + ri;
        keep[i] = referenced[i] || !is_zero_const(&d.expr);
    }
    if keep.iter().all(|&k| k) {
        return None;
    }

    let mut remap_idx = vec![usize::MAX; total];
    let mut next = 0usize;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            remap_idx[i] = next;
            next += 1;
        }
    }
    let rewrite = |e: &Expr| reindex(e, &remap_idx);

    let inputs =
        desc.inputs.iter().enumerate().filter(|&(i, _)| keep[i]).map(|(_, x)| x.clone()).collect();
    let wires = desc
        .wires
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep[nin + i])
        .map(|(_, d)| SigDefRewrite::apply(d, &rewrite))
        .collect();
    let regs = desc
        .regs
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep[nin + desc.wires.len() + i])
        .map(|(_, d)| SigDefRewrite::apply(d, &rewrite))
        .collect();
    let mem_write = desc.mem_write.as_ref().map(|(a, b)| (rewrite(a), rewrite(b)));

    Some(RtlDesc { seed: desc.seed, inputs, wires, regs, mem_write, copies: desc.copies })
}

struct SigDefRewrite;
impl SigDefRewrite {
    fn apply(d: &crate::rtl::SigDef, rewrite: &impl Fn(&Expr) -> Expr) -> crate::rtl::SigDef {
        crate::rtl::SigDef { name: d.name.clone(), width: d.width, expr: rewrite(&d.expr) }
    }
}

/// Rewrites symbolic `Read` indices through `map` (old index -> new).
fn reindex(e: &Expr, map: &[usize]) -> Expr {
    match e {
        Expr::Read(sig) => {
            let new = map[sig.index()];
            debug_assert_ne!(new, usize::MAX, "reindexing a read of a removed signal");
            Expr::Read(mtl_core::SignalId::from_index(new))
        }
        Expr::Const(c) => Expr::Const(*c),
        Expr::Slice { expr, lo, hi } => {
            Expr::Slice { expr: Box::new(reindex(expr, map)), lo: *lo, hi: *hi }
        }
        Expr::Concat(parts) => Expr::Concat(parts.iter().map(|p| reindex(p, map)).collect()),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(reindex(a, map))),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(reindex(a, map)), Box::new(reindex(b, map)))
        }
        Expr::Mux { cond, then_, else_ } => Expr::Mux {
            cond: Box::new(reindex(cond, map)),
            then_: Box::new(reindex(then_, map)),
            else_: Box::new(reindex(else_, map)),
        },
        Expr::Select { sel, options } => Expr::Select {
            sel: Box::new(reindex(sel, map)),
            options: options.iter().map(|o| reindex(o, map)).collect(),
        },
        Expr::Zext(a, w) => Expr::Zext(Box::new(reindex(a, map)), *w),
        Expr::Sext(a, w) => Expr::Sext(Box::new(reindex(a, map)), *w),
        Expr::Trunc(a, w) => Expr::Trunc(Box::new(reindex(a, map)), *w),
        Expr::MemRead { mem, addr } => {
            Expr::MemRead { mem: *mem, addr: Box::new(reindex(addr, map)) }
        }
    }
}

/// Child sub-expressions of a node, in a fixed order shared with
/// [`replace_at`].
fn children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Read(_) | Expr::Const(_) => Vec::new(),
        Expr::Slice { expr, .. } => vec![expr],
        Expr::Concat(parts) => parts.iter().collect(),
        Expr::Unary(_, a) => vec![a],
        Expr::Binary(_, a, b) => vec![a, b],
        Expr::Mux { cond, then_, else_ } => vec![cond, then_, else_],
        Expr::Select { sel, options } => {
            let mut v: Vec<&Expr> = vec![sel];
            v.extend(options.iter());
            v
        }
        Expr::Zext(a, _) | Expr::Sext(a, _) | Expr::Trunc(a, _) => vec![a],
        Expr::MemRead { addr, .. } => vec![addr],
    }
}

/// Collects `(path, width)` for every non-constant node (paths are child
/// indices from the root; the root itself is included).
fn enumerate_prune_sites(
    e: &Expr,
    widths: &[u32],
    path: &mut Vec<usize>,
    out: &mut Vec<(Vec<usize>, u32)>,
) {
    if !matches!(e, Expr::Const(_)) {
        out.push((path.clone(), expr_width(e, widths)));
    }
    for (i, child) in children(e).into_iter().enumerate() {
        path.push(i);
        enumerate_prune_sites(child, widths, path, out);
        path.pop();
    }
}

/// Returns `e` with the node at `path` replaced by `new`.
fn replace_at(e: &Expr, path: &[usize], new: Expr) -> Expr {
    if path.is_empty() {
        return new;
    }
    let idx = path[0];
    let rest = &path[1..];
    let replace_child = |i: usize, c: &Expr| -> Expr {
        if i == idx {
            replace_at(c, rest, new.clone())
        } else {
            c.clone()
        }
    };
    match e {
        Expr::Read(_) | Expr::Const(_) => e.clone(),
        Expr::Slice { expr, lo, hi } => {
            Expr::Slice { expr: Box::new(replace_child(0, expr)), lo: *lo, hi: *hi }
        }
        Expr::Concat(parts) => {
            Expr::Concat(parts.iter().enumerate().map(|(i, p)| replace_child(i, p)).collect())
        }
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(replace_child(0, a))),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(replace_child(0, a)), Box::new(replace_child(1, b)))
        }
        Expr::Mux { cond, then_, else_ } => Expr::Mux {
            cond: Box::new(replace_child(0, cond)),
            then_: Box::new(replace_child(1, then_)),
            else_: Box::new(replace_child(2, else_)),
        },
        Expr::Select { sel, options } => Expr::Select {
            sel: Box::new(replace_child(0, sel)),
            options: options.iter().enumerate().map(|(i, o)| replace_child(i + 1, o)).collect(),
        },
        Expr::Zext(a, w) => Expr::Zext(Box::new(replace_child(0, a)), *w),
        Expr::Sext(a, w) => Expr::Sext(Box::new(replace_child(0, a)), *w),
        Expr::Trunc(a, w) => Expr::Trunc(Box::new(replace_child(0, a)), *w),
        Expr::MemRead { mem, addr } => {
            Expr::MemRead { mem: *mem, addr: Box::new(replace_child(0, addr)) }
        }
    }
}

/// Checks one design seed; returns the minimized failure if the engines
/// disagree.
pub fn fuzz_one(seed: u64, cfg: &FuzzConfig) -> Option<FuzzFailure> {
    // One design in four is replicated — one in sixteen against the batch
    // differential's 64 interpreted references, each as large as the copy.
    let one_in = if cfg.batch_lanes.is_some() { 16 } else { 4 };
    let desc = RtlDesc { copies: replication(seed, one_in), ..RtlDesc::generate(seed, cfg.shape) };
    let sels = if cfg.opt_diff { engines_under_test_opt_diff() } else { engines_under_test() };
    let cycles = cfg.cycles;
    let rerun = |cand: &RtlDesc| match cfg.batch_lanes {
        Some(lanes) => run_differential_batch(cand, cycles, lanes),
        None => run_differential_with(cand, cycles, &sels),
    };
    let divergence = rerun(&desc)?;

    let (minimized, minimized_divergence) = if matches!(divergence.kind, DivergenceKind::Elab(_)) {
        // A generator bug: the original descriptor *is* the report.
        (desc.clone(), divergence.clone())
    } else {
        let min = shrink(
            &desc,
            cfg.shrink_budget,
            |cand| matches!(rerun(cand), Some(d) if !matches!(d.kind, DivergenceKind::Elab(_))),
        );
        let div = rerun(&min).unwrap_or_else(|| divergence.clone());
        (min, div)
    };

    let note = format!("{minimized_divergence}");
    let repro = repro_snippet(&minimized, &note);
    Some(FuzzFailure {
        iter: 0,
        design_seed: seed,
        divergence,
        minimized,
        minimized_divergence,
        repro,
    })
}

/// Runs the full fuzzing campaign described by `cfg`.
///
/// # Errors
///
/// Returns the first (minimized) [`FuzzFailure`]; deterministic given the
/// configuration.
pub fn fuzz(cfg: &FuzzConfig) -> Result<FuzzSummary, Box<FuzzFailure>> {
    for iter in 0..cfg.iters {
        let seed = design_seed(cfg.seed, iter);
        if let Some(mut failure) = fuzz_one(seed, cfg) {
            failure.iter = iter;
            return Err(Box::new(failure));
        }
    }
    let engines = if cfg.batch_lanes.is_some() {
        3 // specialized-batch, optimizer off and on, vs per-lane interpreted references
    } else if cfg.opt_diff {
        engines_under_test_opt_diff().len()
    } else {
        engines_under_test().len()
    };
    Ok(FuzzSummary { iters: cfg.iters, engines, cycles: cfg.cycles })
}
