//! The tape optimizer: a pass pipeline over virtual-register tapes.
//!
//! The block compiler (`compile_block`) emits straight-line code
//! with one fresh register per IR node — every `Expr::Read` of the same
//! signal re-reads the slot, every mask constant is re-materialized, and
//! whole mux chains are evaluated even when their condition is constant.
//! The pipeline here runs between compilation and narrowing to physical
//! registers (and again over fused tapes, where
//! cross-block redundancy appears), so the `ArtifactCache` fingerprints
//! cover the optimized artifact.
//!
//! The correctness envelope (enforced by `mtl-check`'s differential
//! fuzzer with the optimizer on vs off) is: **every net's settled value
//! after every settle is preserved**. Intra-tape intermediates — registers
//! nobody reads, a store overwritten later in the same straight-line
//! segment — are fair game; writes that survive to the end of a settle are
//! not, because the wrapper peeks and diffs every slot for values,
//! activity, and logical profiles.
//!
//! The pipeline opens with one **rename** pass: fused tapes reuse
//! register numbers across constituent blocks (tape fusion
//! takes the max, not the sum), so block N+1's allocations clobber the
//! value-numbering facts about block N's results. Rename gives every
//! redefinition a fresh virtual register (compiled tapes obey
//! defs-dominate-uses, so a forward scan suffices), which is what lets
//! CSE and store-to-load forwarding work *across* block boundaries in a
//! fused tape.
//!
//! Passes (one round, in order):
//!
//! 1. **fold** — one forward walk of the dataflow facts (exact register
//!    constants and which bits may be one), rewriting each op by what is
//!    known of its operands: pure ops with all-constant operands become
//!    `Op::Const`, using the executor's own arithmetic so folded and live
//!    evaluation agree bit-for-bit; `Mux` under a constant condition,
//!    `Select` under a constant selector, `Mux` with identical arms,
//!    constant-guarded jumps (`Jz`/`JneConst`) and predicated stores
//!    collapse to copies/`Jmp`/plain stores/fallthrough; and masking that
//!    cannot clear anything (`Slice` from 0, `And` with a covering
//!    constant, `Sext` of a value whose sign bit is provably 0, reductions
//!    of 1-bit values, `x op identity`) becomes a `Copy`, provably-zero
//!    results constants.
//! 2. **cse** — value numbering. `Read`s are keyed per slot and
//!    store-version (a later re-read becomes a `Copy`), full writes
//!    forward their source register to later reads of the same slot, and
//!    pure ops are keyed on opcode + versioned operands (commutative ops
//!    canonicalized). `MemRead` is keyed on the memory and versioned
//!    address register — tape `MemWrite`s defer through the pending queue,
//!    so they cannot invalidate an in-tape read. Keys defined at
//!    *dominating* positions (inside no forward-jump span) live in a
//!    global table that survives leaders, so value numbering works across
//!    the whole tape, not just within one straight-line segment.
//! 3. **if-convert** — small `Jz` arms/diamonds whose bodies are pure ops
//!    plus writes become straight-line code: each guarded `Write`,
//!    `WriteNext`, or `MemWrite` turns into one predicated op
//!    (`Op::WriteIf` / `Op::WriteNextIf` / `Op::MemWriteIf`), and
//!    already-predicated writes from inner ifs converted in earlier
//!    rounds conjoin their guards. The predicated ops store nothing on
//!    the untaken path, so event semantics, the shadow `next` buffer,
//!    and the deferred memory queue are preserved exactly — including
//!    under fault injection, where `force` desynchronizes `cur` from
//!    `next`. This removes jump dispatch *and* the join leaders that
//!    force non-dominating dataflow facts to drop.
//! 4. **copy-prop** — uses are rewritten through (versioned) copy chains
//!    so the copies die; `Select`'s implicit consecutive operand range is
//!    never rewritten, only its selector.
//! 5. **jump-thread** — `Jmp`-to-`Jmp` chains are shortcut, jumps to the
//!    next op are dropped, and unreachable ops are removed.
//! 6. **dce** — pure ops whose destination is never used later are
//!    removed (a conservative positional liveness that is sound because
//!    tape jumps only go forward).
//!
//! Rounds repeat until a fixpoint (bounded by `MAX_ROUNDS`); three
//! closing passes then run once. **mux-fuse** pairs single-use `Mux`
//! chains into `Op::Mux2` (the one-hot crossbar idiom). **const-hoist**
//! moves single-def constants into a run-once prelude
//! (`Tape::prelude`) on jump-free tapes, so engines with
//! persistent per-tape register banks stop paying per-cycle dispatches
//! for cycle-invariant values. **realloc** renumbers the registers with
//! a last-use linear scan that reuses dead ones (pinning `Select` ranges,
//! in ascending order so they stay consecutive, prelude destinations and
//! parameters), shrinking the physical register file far below the
//! live-register count, and drops a parameter whose `Const` died. That
//! relieves the `u16` register budget: the budget applies to the
//! *reallocated* tape.
//!
//! All passes are deterministic: hash maps are used for lookup only,
//! never iterated, so the optimized tape is a pure function of its input.

use std::hash::{Hash, Hasher};

use mtl_core::hash::{FastHasher, FastMap};

use super::codegen::VTape;
use crate::tape::{mask_of, pure, Effect, Op, Role, Store, VReg};

/// Fixpoint bound for the pass loop. Most tapes converge in 1–3 rounds;
/// the slowest, a compute SoC tile's fused sequential run, takes 7. The
/// bound guards against a pathological rewrite cycle.
const MAX_ROUNDS: u64 = 8;

/// Per-pass statistics, aggregated over every tape an engine optimizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (stable, used by `--dump-passes` output).
    pub name: &'static str,
    /// Total ops entering the pass, summed over all invocations.
    pub ops_before: u64,
    /// Total ops leaving the pass, summed over all invocations.
    pub ops_after: u64,
    /// Individual rewrites/removals applied (0 means the pass ran but
    /// found nothing).
    pub rewrites: u64,
    /// Registers reclaimed (`realloc` only).
    pub regs_reclaimed: u64,
}

/// Aggregate optimizer report for one engine build: per-pass statistics
/// plus whole-pipeline totals. Rendered by `--dump-passes` on the bench
/// binaries and carried inside cached artifacts so cache hits still
/// surface their compile-time story.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Number of tapes optimized (per-block tapes plus fused plan tapes).
    pub tapes: u64,
    /// Distinct block bodies among the per-block tapes — one per block
    /// shape, so instances that differ only in their wiring and in the
    /// values of their literals (a router's coordinates, a generator's id)
    /// share one: the optimizer ran once per body, its parameters unknown
    /// to it, and every other instance is a relocated copy with its own
    /// values written in, so `bodies` over the block-stage share of
    /// `tapes` is the compile memo's miss rate. Later stages carry the
    /// value unchanged.
    pub bodies: u64,
    /// Fused runs of the plan stage optimized, and runs that reused the
    /// tape of an earlier run with the same key — the same bodies on
    /// operand lists that alias alike, with the same parameter values — by
    /// relocating it onto their own state (zero before the plan stage).
    /// Like `bodies`, these count what the memo compiled; every other
    /// field counts a relocated run as the run it copies, so
    /// `fused_runs` over their sum is the run memo's miss rate.
    pub fused_runs: u64,
    pub relocated_runs: u64,
    /// Total pass rounds executed across all tapes.
    pub rounds: u64,
    /// Tapes whose fixpoint loop stopped at `MAX_ROUNDS` with a pass still
    /// rewriting: optimized less than the pipeline would, had it gone on.
    pub capped: u64,
    /// Ops across all tapes before optimization.
    pub ops_before: u64,
    /// Ops across all tapes after optimization.
    pub ops_after: u64,
    /// Sum of register-file sizes before optimization.
    pub regs_before: u64,
    /// Sum of register-file sizes after reallocation.
    pub regs_after: u64,
    /// Per-pass aggregates, in pipeline order.
    pub passes: Vec<PassStat>,
    /// Surviving-op histogram: (op kind, count) over every optimized
    /// tape's final form, descending by count. What the engines actually
    /// execute — the profile that tells the next pass author where the
    /// remaining time goes.
    pub mix: Vec<(&'static str, u64)>,
    /// How many of `tapes` classified into the 64-bit word class (every
    /// value provably fits `u64`), so the engines run them on `u64`
    /// registers and half-size ops; the rest run the `u128` class.
    pub narrow_tapes: u64,
    /// Ops of `ops_after` that belong to those tapes.
    pub narrow_ops: u64,
    /// Gangs in the static plans: groups of same-level instances of one
    /// block body that execute as lanes of a single pass over the body
    /// (zero before the plan stage).
    pub gangs: u64,
    /// Those of `gangs` whose body runs the `u128` class: a lane register
    /// holds one `u128` word per lane instead of one `u64`.
    pub wide_gangs: u64,
    /// Member blocks over all gangs.
    pub gang_lanes: u64,
    /// The lane-ops a cycle executes: the members' block-stage ops, const
    /// preludes (which run once) left out. Not part of `ops_after`, which
    /// past the block stage counts the fused residual only.
    pub gang_ops: u64,
    /// Block-stage ops (preludes left out) the plans sent to the fused
    /// residual, which re-optimizes them, by the first reason their block
    /// could not join a gang: fewer instances at its level than a lane
    /// block holds (`few`), a body with control flow (`jumps`), the
    /// remainder of a gang's last lane block (`tail`), or the independence
    /// re-check (`guard`, never expected). `jumps` and `tail` size what a
    /// wider admission rule would gain.
    pub refused: [(&'static str, u64); 4],
    /// The wrapping sum, over every optimized tape, of a hash of its ops,
    /// `nregs`, prelude and parameters (state operands numbered by first
    /// occurrence) by the compile path's fixed, unkeyed hasher: a pass
    /// change that keeps every count but changes a tape moves it.
    pub digest: u64,
}

/// Why the plan stage left a block to the fused residual; indexes
/// [`OptReport::refused`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Refusal {
    Few,
    Jumps,
    Tail,
    Guard,
}

const REFUSALS: [&str; 4] = ["few", "jumps", "tail", "guard"];

const PASS_NAMES: [&str; 10] = [
    "rename",
    "fold",
    "cse",
    "if-convert",
    "copy-prop",
    "jump-thread",
    "dce",
    "mux-fuse",
    "const-hoist",
    "realloc",
];
const P_RENAME: usize = 0;
const P_FOLD: usize = 1;
const P_CSE: usize = 2;
const P_IF_CONVERT: usize = 3;
const P_COPY_PROP: usize = 4;
const P_JUMP_THREAD: usize = 5;
const P_DCE: usize = 6;
const P_MUX_FUSE: usize = 7;
const P_HOIST: usize = 8;
const P_REALLOC: usize = 9;

impl OptReport {
    /// An empty report with every pass row pre-seeded in pipeline order.
    pub fn new() -> OptReport {
        OptReport {
            passes: PASS_NAMES
                .iter()
                .map(|&name| PassStat { name, ..PassStat::default() })
                .collect(),
            refused: REFUSALS.map(|why| (why, 0)),
            ..OptReport::default()
        }
    }

    /// Overall op reduction as a fraction of the input (0.0 when empty).
    pub fn reduction(&self) -> f64 {
        if self.ops_before == 0 {
            0.0
        } else {
            1.0 - self.ops_after as f64 / self.ops_before as f64
        }
    }

    /// Renders the `--dump-passes` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tape optimizer: {} tapes ({} bodies, {} fused runs + {} relocated), {} rounds ({} \
             capped), ops {} -> {} ({:.1}% removed), regs {} -> {}\n",
            self.tapes,
            self.bodies,
            self.fused_runs,
            self.relocated_runs,
            self.rounds,
            self.capped,
            self.ops_before,
            self.ops_after,
            self.reduction() * 100.0,
            self.regs_before,
            self.regs_after,
        ));
        out.push_str(&format!(
            "  {:<14} {:>10} {:>10} {:>10} {:>10}\n",
            "pass", "ops-in", "ops-out", "rewrites", "regs-freed"
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "  {:<14} {:>10} {:>10} {:>10} {:>10}\n",
                p.name, p.ops_before, p.ops_after, p.rewrites, p.regs_reclaimed
            ));
        }
        if !self.mix.is_empty() {
            out.push_str("  surviving op mix:");
            for (kind, n) in &self.mix {
                out.push_str(&format!(" {kind}:{n}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  width class: {} of {} tapes narrow ({} of {} ops)\n",
            self.narrow_tapes, self.tapes, self.narrow_ops, self.ops_after
        ));
        if let Some(line) = self.gang_line() {
            out.push_str(&format!("  static plans: {line}\n"));
        }
        out
    }

    /// What the plan stage ganged and what it did not, as one line — `8
    /// gangs (0 wide), 2752 lanes, 60480 lane-ops; residual 0 ops` for the
    /// RTL mesh64, `10 gangs (0 wide), 11520 lanes, 258560 lane-ops;
    /// residual 1536 ops (few 1536)` for the 256-tile synthetic SoC, whose
    /// one `totals` block has no lanes to share; `None` for a report with
    /// no plan stage behind it.
    pub fn gang_line(&self) -> Option<String> {
        let residual: u64 = self.refused.iter().map(|r| r.1).sum();
        if self.gang_ops + residual == 0 {
            return None;
        }
        let why = self.refused.iter().filter(|r| r.1 > 0);
        let why: Vec<String> = why.map(|(reason, ops)| format!("{reason} {ops}")).collect();
        let why = if why.is_empty() { String::new() } else { format!(" ({})", why.join(", ")) };
        Some(format!(
            "{} gangs ({} wide), {} lanes, {} lane-ops; residual {residual} ops{why}",
            self.gangs, self.wide_gangs, self.gang_lanes, self.gang_ops
        ))
    }

    /// Adds `times` copies of `other` — the report of one block body,
    /// for that many instances of it. Every field is a sum (`mix` a
    /// histogram); `bodies` and the run counts are the caller's and stay.
    pub(super) fn absorb(&mut self, other: &OptReport, times: u64) {
        self.tapes += times * other.tapes;
        self.rounds += times * other.rounds;
        self.capped += times * other.capped;
        self.ops_before += times * other.ops_before;
        self.ops_after += times * other.ops_after;
        self.regs_before += times * other.regs_before;
        self.regs_after += times * other.regs_after;
        self.narrow_tapes += times * other.narrow_tapes;
        self.narrow_ops += times * other.narrow_ops;
        self.digest = self.digest.wrapping_add(times.wrapping_mul(other.digest));
        for (p, q) in self.passes.iter_mut().zip(&other.passes) {
            p.ops_before += times * q.ops_before;
            p.ops_after += times * q.ops_after;
            p.rewrites += times * q.rewrites;
            p.regs_reclaimed += times * q.regs_reclaimed;
        }
        self.record_mix(other.mix.iter().map(|&(kind, n)| (kind, times * n)));
    }

    fn record_mix(&mut self, more: impl Iterator<Item = (&'static str, u64)>) {
        let mut counts: FastMap<&'static str, u64> = self.mix.drain(..).collect();
        for (kind, n) in more {
            *counts.entry(kind).or_insert(0) += n;
        }
        let mut mix: Vec<(&'static str, u64)> = counts.into_iter().collect();
        // Descending by count, name-tiebroken: deterministic output.
        mix.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        self.mix = mix;
    }
}

/// Optimizes one virtual-register tape to fixpoint, tallying into `rep`.
///
/// `widths` are net widths indexed by slot and `mem_widths` memory word
/// widths indexed by memory — the only design facts the passes need
/// (known-bits of a fresh `Read`/`MemRead`).
pub(super) fn optimize(vt: &mut VTape, widths: &[u32], mem_widths: &[u32], rep: &mut OptReport) {
    debug_assert_eq!(rep.passes.len(), PASS_NAMES.len(), "report from OptReport::new()");
    rep.tapes += 1;
    rep.ops_before += vt.ops.len() as u64;
    rep.regs_before += vt.nregs as u64;
    // The passes keep no prelude; `hoist_consts` lays out the final one.
    vt.prelude = 0;
    run_pass(rep, P_RENAME, vt, rename);
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = 0;
        changed += run_pass(rep, P_FOLD, vt, |vt| fold(vt, widths, mem_widths));
        changed += run_pass(rep, P_CSE, vt, cse);
        changed += run_pass(rep, P_IF_CONVERT, vt, if_convert);
        changed += run_pass(rep, P_COPY_PROP, vt, copy_prop);
        changed += run_pass(rep, P_JUMP_THREAD, vt, jump_thread);
        changed += run_pass(rep, P_DCE, vt, dce);
        if changed == 0 || rounds == MAX_ROUNDS {
            rep.capped += u64::from(changed > 0);
            break;
        }
    }
    run_pass(rep, P_MUX_FUSE, vt, mux_fuse);
    run_pass(rep, P_HOIST, vt, hoist_consts);
    run_pass(rep, P_REALLOC, vt, realloc);
    rep.rounds += rounds;
    rep.ops_after += vt.ops.len() as u64;
    rep.regs_after += vt.nregs as u64;
    rep.digest = rep.digest.wrapping_add(digest(vt));
    rep.record_mix(vt.ops.iter().map(|op| (op.kind().name(), 1)));
}

/// An optimized tape's hash ([`FastHasher`]: no process-random state, so
/// the same in every run): its ops, `nregs`, `prelude` and `params`,
/// each state operand numbered by its first occurrence in the tape. The
/// passes touch state only by equality, so a block body compiled on its
/// local slots and the same block compiled on the design's global ones
/// hash alike, as their counts already agree.
fn digest(vt: &VTape) -> u64 {
    let mut h = FastHasher::default();
    let mut seen: [FastMap<u32, u32>; 2] = Default::default();
    for op in &vt.ops {
        let op = op.map_state(&mut |table, i| {
            let seen = &mut seen[table as usize];
            let next = seen.len() as u32;
            *seen.entry(i).or_insert(next)
        });
        op.hash(&mut h);
    }
    (vt.nregs, vt.prelude, &vt.params).hash(&mut h);
    h.finish()
}

fn run_pass(
    rep: &mut OptReport,
    idx: usize,
    vt: &mut VTape,
    pass: impl FnOnce(&mut VTape) -> u64,
) -> u64 {
    let before = vt.ops.len() as u64;
    let regs_before = vt.nregs as u64;
    let rewrites = pass(vt);
    let stat = &mut rep.passes[idx];
    stat.ops_before += before;
    stat.ops_after += vt.ops.len() as u64;
    stat.rewrites += rewrites;
    stat.regs_reclaimed += regs_before.saturating_sub(vt.nregs as u64);
    // If-conversion can grow the op count (conjoining nested guards emits
    // predicate math), so the delta must not assume shrinkage.
    rewrites + before.abs_diff(vt.ops.len() as u64)
}

// ---------------------------------------------------------------------------
// Shared analysis helpers
// ---------------------------------------------------------------------------

/// Overwrites the destination register of a defining op (no-op for
/// effect-only ops). Counterpart of [`Op::def`] for the rename pass.
fn set_def(op: &mut Op<VReg>, new: VReg) {
    *op = op.map_regs(&mut |role, r| if role == Role::Def { new } else { r });
}

/// Visits every register an op uses. `Select` implicitly uses the whole
/// consecutive range `base..base+n` in addition to its selector.
fn for_each_use(op: &Op<VReg>, mut f: impl FnMut(VReg)) {
    op.for_each_reg(|role, r| match role {
        Role::Def => {}
        Role::Use => f(r),
        Role::Range(n) => (r..r + n as VReg).for_each(&mut f),
    });
}

/// Rewrites an op's *explicit* register uses through `f`, returning how
/// many actually changed. `Select`'s implicit operand range must stay
/// physically consecutive, so its base is left to the caller.
fn rewrite_uses(op: &mut Op<VReg>, f: &mut impl FnMut(VReg) -> VReg) -> u64 {
    let mut n = 0;
    *op = op.map_regs(&mut |role, r| {
        let nr = if role == Role::Use { f(r) } else { r };
        n += u64::from(nr != r);
        nr
    });
    n
}

/// The op's jump target, if it is a jump.
fn target_of(op: &Op<VReg>) -> Option<u32> {
    match op.effect() {
        Effect::Jump { target, .. } => Some(target),
        _ => None,
    }
}

/// `is_leader[i]`: op `i` is a jump target, i.e. execution can join here
/// from somewhere other than the previous op. Forward-scan dataflow facts
/// must be dropped at leaders (the join's other edge is unknown).
/// Fall-through past a conditional jump keeps its facts: registers do not
/// change by *not* taking a jump.
fn leaders(ops: &[Op<VReg>]) -> Vec<bool> {
    let mut is_leader = vec![false; ops.len() + 1];
    for target in ops.iter().filter_map(target_of) {
        is_leader[target as usize] = true;
    }
    is_leader
}

/// Removes ops flagged in `dead`, remapping every jump target through the
/// surviving-op prefix sums (a target may equal `ops.len()`).
fn sweep(ops: &mut Vec<Op<VReg>>, dead: &[bool]) {
    if !dead.contains(&true) {
        return;
    }
    let mut new_pos = vec![0u32; ops.len() + 1];
    let mut kept = 0u32;
    for i in 0..ops.len() {
        new_pos[i] = kept;
        if !dead[i] {
            kept += 1;
        }
    }
    new_pos[ops.len()] = kept;
    let old = std::mem::take(ops);
    ops.reserve_exact(kept as usize);
    for (i, mut op) in old.into_iter().enumerate() {
        if dead[i] {
            continue;
        }
        if let Some(target) = op.target_mut() {
            *target = new_pos[*target as usize];
        }
        ops.push(op);
    }
}

/// Folds a register-only op over what is known of its operands: [`pure`]
/// where every source is a constant, plus the partial evaluation that is
/// not arithmetic — a known selector picks its operand whatever the others
/// are, a known shift by the value's width or more leaves zero whatever is
/// shifted — and a refusal of the degenerate encodings (a shift distance
/// of 128 or more) that a real execution would trap on. `None` for
/// state-touching ops or when the result is unknown.
pub(crate) fn eval_pure(op: &Op<VReg>, get: &impl Fn(VReg) -> Option<u128>) -> Option<u128> {
    match *op {
        Op::Const { val, .. } => Some(val),
        Op::Mux { cond, t, f, .. } => get(if get(cond)? != 0 { t } else { f }),
        Op::Select { sel, base, n, .. } => get(base + get(sel)?.min(n as u128 - 1) as VReg),
        Op::Shl { b, width, .. } | Op::Shr { b, width, .. } if get(b)? >= width as u128 => Some(0),
        Op::Shl { b, .. } if get(b)? >= 128 => None,
        Op::Slice { lo: 128.., .. } | Op::ShlOr { shift: 128.., .. } => None,
        _ => pure(op, get)?.1,
    }
}

/// All bits at or below the highest possibly-set bit of `m`.
fn below_top(m: u128) -> u128 {
    if m == 0 {
        0
    } else {
        mask_of(128 - m.leading_zeros())
    }
}

/// `dominating[i]`: op `i` executes on *every* path that reaches any
/// later position — it sits inside no forward jump's skippable span
/// (jumps are forward-only, so any edge into a later join passed through
/// it). Dataflow facts established at dominating positions survive
/// leader resets.
fn dominators(ops: &[Op<VReg>]) -> Vec<bool> {
    let mut depth_delta = vec![0i32; ops.len() + 1];
    for (i, op) in ops.iter().enumerate() {
        if let Some(target) = target_of(op) {
            let t = (target as usize).min(ops.len());
            if t > i + 1 {
                depth_delta[i + 1] += 1;
                depth_delta[t] -= 1;
            }
        }
    }
    let mut depth = 0i32;
    let mut dom = vec![false; ops.len()];
    for i in 0..ops.len() {
        depth += depth_delta[i];
        dom[i] = depth == 0;
    }
    dom
}

/// May-be-one bits of an op's result from its operands' may-be-one
/// bits. Any over-approximation is sound; `u128::MAX` is always legal.
fn approx_bits(
    op: &Op<VReg>,
    kb: impl Fn(VReg) -> u128,
    widths: &[u32],
    mem_widths: &[u32],
) -> u128 {
    match *op {
        Op::Const { val, .. } => val,
        Op::Read { slot, .. } => mask_of(widths[slot as usize]),
        Op::MemRead { mem, .. } => mask_of(mem_widths[mem as usize]),
        Op::Copy { a, .. } => kb(a),
        Op::Add { a, b, mask, .. } => {
            // a + b < 2^(top+2) where `top` bounds both operands.
            let m = kb(a) | kb(b);
            if m == 0 {
                0
            } else {
                mask_of((129 - m.leading_zeros()).min(128)) & mask
            }
        }
        Op::Sub { mask, .. } | Op::Mul { mask, .. } | Op::Neg { mask, .. } => mask,
        Op::Not { mask, .. } => mask,
        Op::And { a, b, .. } => kb(a) & kb(b),
        Op::Or { a, b, .. } | Op::Xor { a, b, .. } => kb(a) | kb(b),
        Op::Shl { mask, .. } => mask,
        Op::Shr { a, .. } => below_top(kb(a)),
        Op::Sra { mask, .. } => mask,
        Op::Eq { .. }
        | Op::Ne { .. }
        | Op::Lt { .. }
        | Op::Ge { .. }
        | Op::LtS { .. }
        | Op::GeS { .. }
        | Op::RedAnd { .. }
        | Op::RedOr { .. }
        | Op::RedXor { .. } => 1,
        Op::Slice { a, lo, mask, .. } => {
            if lo >= 128 {
                mask
            } else {
                (kb(a) >> lo) & mask
            }
        }
        Op::ShlOr { a, b, shift, .. } => {
            if shift >= 128 {
                kb(b)
            } else {
                (kb(a) << shift) | kb(b)
            }
        }
        Op::Mux { t, f, .. } => kb(t) | kb(f),
        Op::Mux2 { t1, t2, f, .. } => kb(t1) | kb(t2) | kb(f),
        Op::Select { base, n, .. } => (0..n).fold(0, |acc, i| acc | kb(base + VReg::from(i))),
        Op::Sext { a, sign_bit, ext_or, .. } => {
            let v = kb(a);
            if v & sign_bit != 0 {
                v | ext_or
            } else {
                v
            }
        }
        _ => u128::MAX,
    }
}

/// Forward dataflow facts about each register at the current position:
/// its value when that is a known constant (`kval`), and otherwise which
/// bits may be one (`kb`). Reset at leaders. A parameter's register
/// (`Tape::params`) is never a known constant: its facts are its width.
struct Facts<'a> {
    kval: Vec<Option<u128>>,
    kb: Vec<u128>,
    /// Per register, the width of the parameter it holds (0: none); empty
    /// when the tape has no parameter.
    param_width: Vec<u8>,
    /// Facts are valid when their epoch is current ([`Facts::reset`] is
    /// an O(1) epoch bump) or when `dom` marks them as established at a
    /// dominating position (they survive resets: every edge into a later
    /// leader executed the defining op too).
    epoch: Vec<u32>,
    cur_epoch: u32,
    dom: Vec<bool>,
    widths: &'a [u32],
    mem_widths: &'a [u32],
}

impl<'a> Facts<'a> {
    fn new(vt: &VTape, widths: &'a [u32], mem_widths: &'a [u32]) -> Facts<'a> {
        let nregs = vt.nregs;
        let mut param_width = Vec::new();
        if !vt.params.is_empty() {
            param_width = vec![0; nregs as usize];
            vt.params.iter().for_each(|p| param_width[p.reg as usize] = p.width as u8);
        }
        Facts {
            kval: vec![None; nregs as usize],
            kb: vec![u128::MAX; nregs as usize],
            param_width,
            epoch: vec![0; nregs as usize],
            cur_epoch: 0,
            dom: vec![false; nregs as usize],
            widths,
            mem_widths,
        }
    }

    fn reset(&mut self) {
        self.cur_epoch += 1;
    }

    fn live(&self, r: VReg) -> bool {
        self.dom[r as usize] || self.epoch[r as usize] == self.cur_epoch
    }

    fn val(&self, r: VReg) -> Option<u128> {
        if self.live(r) {
            self.kval[r as usize]
        } else {
            None
        }
    }

    fn bits(&self, r: VReg) -> u128 {
        if self.live(r) {
            self.kb[r as usize]
        } else {
            u128::MAX
        }
    }

    /// Transfers facts across one op (call after inspecting its
    /// operands). `dominating` marks whether the op's position dominates
    /// everything after it (see [`dominators`]).
    fn step(&mut self, op: &Op<VReg>, dominating: bool) {
        let Some(dst) = op.def() else { return };
        let (v, kb) = match self.param_width.get(dst as usize) {
            Some(&width) if width > 0 => (None, mask_of(width.into())),
            _ => {
                let v = eval_pure(op, &|r| self.val(r));
                let kb = match v {
                    Some(x) => x,
                    None => approx_bits(op, |r| self.bits(r), self.widths, self.mem_widths),
                };
                (v, kb)
            }
        };
        self.kval[dst as usize] = v;
        self.kb[dst as usize] = kb;
        self.dom[dst as usize] = dominating;
        self.epoch[dst as usize] = self.cur_epoch;
    }
}

/// The union, over every definition in the tape, of the bits that may be
/// one in the value defined there — an upper bound on how wide a register
/// the tape needs. Per definition, not per register: register numbers are
/// reused across unrelated values.
pub(super) fn def_bits(vt: &VTape, widths: &[u32], mem_widths: &[u32]) -> u128 {
    let is_leader = leaders(&vt.ops);
    let dominating = dominators(&vt.ops);
    let mut facts = Facts::new(vt, widths, mem_widths);
    let mut all = 0;
    for (i, op) in vt.ops.iter().enumerate() {
        if is_leader[i] {
            facts.reset();
        }
        facts.step(op, dominating[i]);
        if let Some(dst) = op.def() {
            all |= facts.kb[dst as usize];
        }
    }
    all
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Gives every register redefinition a fresh virtual register, rewriting
/// uses to the reaching definition.
///
/// Compiled tapes satisfy defs-dominate-uses (every `Expr` node gets a
/// fresh register, arms never export values through registers, and jumps
/// only go forward), so a single forward scan finds each use's unique
/// reaching definition. Per-block tapes are already single-assignment;
/// the payoff is fused tapes, where tape fusion reuses register
/// numbers across blocks and every redefinition would otherwise retire
/// the value-numbering facts CSE needs for cross-block forwarding.
///
/// Registers feeding a `Select` range are renamed as a group (their
/// defining `Copy` ops are adjacent, so fresh numbering keeps the range
/// consecutive); if a tape ever violates that adjacency the pass bails
/// and leaves it untouched.
fn rename(vt: &mut VTape) -> u64 {
    let n = vt.nregs as usize;
    let mut def_count = vec![0u32; n];
    let mut in_range = vec![false; n];
    for op in &vt.ops {
        if let Some(d) = op.def() {
            def_count[d as usize] += 1;
        }
        if let Op::Select { base, n: k, .. } = *op {
            for i in 0..k as VReg {
                in_range[(base + i) as usize] = true;
            }
        }
    }
    // Select-range members rename together even when single-def, so a
    // range that mixes reused and fresh registers stays consecutive.
    let must = |r: usize, def_count: &[u32], in_range: &[bool]| {
        def_count[r] > 1 || (in_range[r] && def_count[r] > 0)
    };
    if !(0..n).any(|r| must(r, &def_count, &in_range)) {
        return 0;
    }
    let mut map: Vec<VReg> = (0..vt.nregs).collect();
    let mut next = vt.nregs;
    let mut rewrites = 0;
    let mut ok = true;
    let mut new_ops = Vec::with_capacity(vt.ops.len());
    for op in &vt.ops {
        let mut new = op.clone();
        rewrite_uses(&mut new, &mut |r| map[r as usize]);
        if let Op::Select { base, n: k, .. } = &mut new {
            let nb = map[*base as usize];
            for i in 1..*k as VReg {
                if map[(*base + i) as usize] != nb + i {
                    ok = false;
                }
            }
            *base = nb;
        }
        if let Some(d) = op.def() {
            if must(d as usize, &def_count, &in_range) {
                map[d as usize] = next;
                set_def(&mut new, next);
                next += 1;
                rewrites += 1;
            } else {
                map[d as usize] = d;
            }
        }
        new_ops.push(new);
    }
    if !ok {
        return 0;
    }
    vt.params.iter_mut().for_each(|p| p.reg = map[p.reg as usize]);
    vt.ops = new_ops;
    vt.nregs = next;
    rewrites
}

/// Rewrites each op by what one forward walk of [`Facts`] knows of its
/// operands, in this order: a pure op whose value is known becomes an
/// `Op::Const`, through the executor's own arithmetic ([`eval_pure`]); a
/// `Mux` or `Select` under a known condition (or a `Mux` with identical
/// arms) becomes a `Copy`, and a jump or predicated store under a known
/// guard becomes a `Jmp` or plain store, or goes; masking that provably
/// clears nothing becomes a `Copy`, and a provably degenerate result a
/// constant (the known-bits rules).
fn fold(vt: &mut VTape, widths: &[u32], mem_widths: &[u32]) -> u64 {
    let is_leader = leaders(&vt.ops);
    let dominating = dominators(&vt.ops);
    let mut facts = Facts::new(vt, widths, mem_widths);
    let mut rewrites = 0;
    let mut dead = vec![false; vt.ops.len()];
    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            facts.reset();
        }
        let kb = |r: VReg| facts.bits(r);
        let kv = |r: VReg| facts.val(r);
        // A jump or store under a guard: `op` when it is known taken,
        // nothing (and the op goes) when known untaken.
        let mut guarded = |taken: Option<bool>, op: Op<VReg>| match taken {
            Some(true) => Some(op),
            Some(false) => {
                dead[i] = true;
                rewrites += 1;
                None
            }
            None => None,
        };
        let constant = op.def().zip(eval_pure(op, &kv));
        let new = match *op {
            Op::Const { .. } => None,
            _ if constant.is_some() => constant.map(|(dst, val)| Op::Const { dst, val }),
            Op::Mux { dst, cond, t, f } => match kv(cond) {
                Some(c) => Some(Op::Copy { dst, a: if c != 0 { t } else { f } }),
                None if t == f => Some(Op::Copy { dst, a: t }),
                None => None,
            },
            Op::Select { dst, sel, base, n } => {
                kv(sel).map(|s| Op::Copy { dst, a: base + s.min(n as u128 - 1) as VReg })
            }
            Op::Jz { cond, target } => guarded(kv(cond).map(|c| c == 0), Op::Jmp { target }),
            Op::JneConst { a, k, target } => guarded(kv(a).map(|v| v != k), Op::Jmp { target }),
            Op::WriteIf { slot, cond, src, neg } => {
                guarded(kv(cond).map(|c| (c != 0) != neg), Op::Write { slot, src })
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                guarded(kv(cond).map(|c| (c != 0) != neg), Op::WriteNext { slot, src })
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                guarded(kv(cond).map(|c| (c != 0) != neg), Op::MemWrite { mem, addr, data, words })
            }
            Op::Sext { dst, a, sign_bit, .. } if kb(a) & sign_bit == 0 => Some(Op::Copy { dst, a }),
            Op::Slice { dst, a, lo: 0, mask } if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
            Op::Slice { dst, a, lo, mask } if lo > 0 && lo < 128 && (kb(a) >> lo) & mask == 0 => {
                Some(Op::Const { dst, val: 0 })
            }
            Op::And { dst, a, b } if kb(a) & kb(b) == 0 => Some(Op::Const { dst, val: 0 }),
            Op::And { dst, a, b } => match (kv(a), kv(b)) {
                (_, Some(m)) if kb(a) & !m == 0 => Some(Op::Copy { dst, a }),
                (Some(m), _) if kb(b) & !m == 0 => Some(Op::Copy { dst, a: b }),
                _ => None,
            },
            Op::Or { dst, a, b } => match (kv(a), kv(b)) {
                (_, Some(0)) => Some(Op::Copy { dst, a }),
                (Some(0), _) => Some(Op::Copy { dst, a: b }),
                (_, Some(m)) if kb(a) & !m == 0 => Some(Op::Const { dst, val: m }),
                (Some(m), _) if kb(b) & !m == 0 => Some(Op::Const { dst, val: m }),
                _ => None,
            },
            Op::Xor { dst, a, b } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Xor { dst, a, b } => match (kv(a), kv(b)) {
                (_, Some(0)) => Some(Op::Copy { dst, a }),
                (Some(0), _) => Some(Op::Copy { dst, a: b }),
                _ => None,
            },
            Op::Add { dst, a, b, mask } => match (kv(a), kv(b)) {
                (_, Some(0)) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                (Some(0), _) if kb(b) & !mask == 0 => Some(Op::Copy { dst, a: b }),
                _ => None,
            },
            Op::Sub { dst, a, b, .. } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Sub { dst, a, b, mask } => match kv(b) {
                Some(0) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                _ => None,
            },
            Op::Mul { dst, a, b, mask } => match (kv(a), kv(b)) {
                (_, Some(1)) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                (Some(1), _) if kb(b) & !mask == 0 => Some(Op::Copy { dst, a: b }),
                (_, Some(0)) | (Some(0), _) => Some(Op::Const { dst, val: 0 }),
                _ => None,
            },
            Op::Shl { dst, a, b, mask, .. } => match kv(b) {
                Some(0) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                _ => None,
            },
            Op::Shr { dst, a, b, .. } => match kv(b) {
                Some(0) => Some(Op::Copy { dst, a }),
                _ => None,
            },
            Op::Eq { dst, a, b } if a == b => Some(Op::Const { dst, val: 1 }),
            Op::Ne { dst, a, b } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Lt { dst, a, b } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Ge { dst, a, b } if a == b => Some(Op::Const { dst, val: 1 }),
            Op::LtS { dst, a, b, .. } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::GeS { dst, a, b, .. } if a == b => Some(Op::Const { dst, val: 1 }),
            Op::RedAnd { dst, a, mask } if kb(a) & mask != mask => Some(Op::Const { dst, val: 0 }),
            Op::RedOr { dst, a } if kb(a) == 0 => Some(Op::Const { dst, val: 0 }),
            Op::RedOr { dst, a } if kb(a) & !1 == 0 => Some(Op::Copy { dst, a }),
            Op::RedXor { dst, a } if kb(a) & !1 == 0 => Some(Op::Copy { dst, a }),
            _ => None,
        };
        if let Some(new) = new {
            *op = new;
            rewrites += 1;
        }
        facts.step(op, dominating[i]);
    }
    sweep(&mut vt.ops, &dead);
    rewrites
}

/// Local value numbering: repeated reads, repeated constants, and repeated
/// pure computations over unchanged operands collapse to copies; full
/// writes forward their source to later reads of the same slot. A
/// parameter's `Const` is no constant: it is never keyed, so it neither
/// merges with another nor stands in for one.
fn cse(vt: &mut VTape) -> u64 {
    /// Value-number key: the op with its registers erased (kind plus
    /// every immediate) and its versioned operands — each use packed as
    /// `register << 32 | definition version`, so a redefinition retires
    /// every key that mentions the old value. A `Read` has no uses; its
    /// slot's store version takes the first place instead. (Packed words
    /// hash in one write: this table is half the optimizer's run time.)
    #[derive(Hash, PartialEq, Eq)]
    struct Key {
        op: Op<()>,
        operands: [u64; 3],
    }

    /// The register a keyed op defines and its key; `None` for the ops
    /// value numbering leaves alone: stores and jumps, `Copy` (copy-prop's
    /// job), `Mux2`, and `Select` (it implicitly uses a register range).
    fn key_of(op: &Op<VReg>, ver: &[u32], slot_ver: &FastMap<u32, u64>) -> Option<(VReg, Key)> {
        if matches!(op, Op::Copy { .. } | Op::Mux2 { .. } | Op::Select { .. }) {
            return None;
        }
        let (mut operands, mut n, mut dst) = ([0; 3], 0, None);
        let erased = op.map_regs(&mut |role, r| match role {
            Role::Use => {
                operands[n] = u64::from(r) << 32 | u64::from(ver[r as usize]);
                n += 1;
            }
            Role::Def => dst = Some(r),
            Role::Range(_) => unreachable!("`Select` is unkeyed"),
        });
        let dst = dst?;
        // Commutative ops canonicalize operand order.
        if op.kind().commutative() && operands[0] > operands[1] {
            operands.swap(0, 1);
        }
        if let Effect::Read { slot } = op.effect() {
            operands[0] = *slot_ver.get(&slot).unwrap_or(&0);
        }
        Some((dst, Key { op: erased, operands }))
    }

    let is_leader = leaders(&vt.ops);
    let dominating = dominators(&vt.ops);
    let nregs = vt.nregs as usize;
    let mut ver = vec![0u32; nregs];
    let mut slot_ver: FastMap<u32, u64> = FastMap::default();
    // Per slot: the register (and its version) a full `Write` last stored.
    let mut last_store: FastMap<u32, (VReg, u32)> = FastMap::default();
    let mut table: FastMap<Key, (VReg, u32)> = FastMap::default();
    // Facts from dominating positions; never cleared. Version pairing
    // still retires entries whose registers are redefined anywhere.
    let mut global: FastMap<Key, (VReg, u32)> = FastMap::default();
    let mut rewrites = 0;
    let mut param = vec![false; if vt.params.is_empty() { 0 } else { nregs }];
    vt.params.iter().for_each(|p| param[p.reg as usize] = true);

    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            table.clear();
            last_store.clear();
        }
        let keyed = match *op {
            Op::Const { dst, .. } if param.get(dst as usize) == Some(&true) => None,
            _ => key_of(op, &ver, &slot_ver),
        };

        // Store-to-load forwarding: a full write's source register still
        // holds the slot's value.
        if let Op::Read { dst, slot } = *op {
            if let Some(&(src, sv)) = last_store.get(&slot) {
                if ver[src as usize] == sv && src != dst {
                    *op = Op::Copy { dst, a: src };
                    rewrites += 1;
                    ver[dst as usize] += 1;
                    continue;
                }
            }
        }

        if let Some((dst, key)) = keyed {
            if let Some(&(prev, pv)) = table.get(&key).or_else(|| global.get(&key)) {
                if ver[prev as usize] == pv && prev != dst {
                    *op = Op::Copy { dst, a: prev };
                    rewrites += 1;
                    ver[dst as usize] += 1;
                    continue;
                }
            }
            ver[dst as usize] += 1;
            if dominating[i] {
                global.insert(key, (dst, ver[dst as usize]));
            } else {
                table.insert(key, (dst, ver[dst as usize]));
            }
            continue;
        }

        // Non-keyed ops: maintain versions and write-tracking.
        if let Some(dst) = op.def() {
            ver[dst as usize] += 1;
        }
        // `next`-buffer stores leave in-tape reads alone, and `MemWrite`
        // defers through `pending`, so it cannot invalidate `MemRead`
        // keys either.
        if let Effect::Write { slot, next: false, .. } = op.effect() {
            *slot_ver.entry(slot).or_insert(0) += 1;
            match *op {
                Op::Write { src, .. } => last_store.insert(slot, (src, ver[src as usize])),
                // A masked or predicated write may or may not store:
                // `Read` keys must retire and no forwarding fact survives.
                _ => last_store.remove(&slot),
            };
        }
    }
    rewrites
}

/// Size cap for one if-conversion: total ops across both arms. Converted
/// arms execute unconditionally, so this bounds the speculation cost on
/// the event engine (where an untaken arm used to be skipped).
const IF_CONVERT_MAX_OPS: usize = 64;
/// Cap on guarded writes per conversion (each becomes a predicated op).
const IF_CONVERT_MAX_WRITES: usize = 16;

/// A convertible `Jz` region: arm ranges in original-index space plus the
/// join point execution resumes at.
struct IfPlan {
    then_r: std::ops::Range<usize>,
    else_r: std::ops::Range<usize>,
    join: usize,
}

/// Checks whether the `Jz` at `i` (jumping to `end`) guards a convertible
/// one-armed region or diamond. `tcount[idx]` counts jumps targeting
/// `idx` in the *original* tape.
fn plan_if(ops: &[Op<VReg>], i: usize, end: usize, tcount: &[u32]) -> Option<IfPlan> {
    if end <= i + 1 || end > ops.len() {
        return None;
    }
    // Shape: the only permitted jump inside `i+1..end` is a trailing
    // `Jmp` (the then-arm's exit of a diamond).
    let mut inner_jmp = None;
    for (idx, op) in ops[i + 1..end].iter().enumerate() {
        let idx = i + 1 + idx;
        match op {
            Op::Jmp { target } if idx == end - 1 && *target as usize >= end => {
                inner_jmp = Some(*target as usize);
            }
            op if target_of(op).is_some() => return None,
            _ => {}
        }
    }
    let (then_r, else_r, join) = match inner_jmp {
        Some(join) => {
            if join > ops.len() {
                return None;
            }
            (i + 1..end - 1, end..join, join)
        }
        None => (i + 1..end, end..end, end),
    };
    // The else arm must itself be jump-free.
    if else_r.clone().any(|idx| target_of(&ops[idx]).is_some()) {
        return None;
    }
    // No external jump may land inside the converted region. The only
    // allowed internal target is `end` in a diamond (our own `Jz`).
    for (idx, &t) in tcount.iter().enumerate().take(join).skip(i + 1) {
        let allowed = if inner_jmp.is_some() && idx == end { 1 } else { 0 };
        if t != allowed {
            return None;
        }
    }
    // Arm bodies: pure defs (always speculatable — `Read`/`MemRead` are
    // total) plus full, deferred-memory, or already-predicated writes
    // (the latter appear when a nested if converted in an earlier
    // round). Masked stores stay branchy: they read-modify-write.
    let mut ops_total = 0usize;
    let mut writes = 0usize;
    for idx in then_r.clone().chain(else_r.clone()) {
        ops_total += 1;
        match ops[idx].effect() {
            Effect::Write { how: Store::Full | Store::Predicated, .. }
            | Effect::MemWrite { .. } => writes += 1,
            Effect::Write { how: Store::Masked, .. } | Effect::Jump { .. } => return None,
            Effect::Pure | Effect::Read { .. } | Effect::MemRead { .. } => {}
        }
    }
    if ops_total > IF_CONVERT_MAX_OPS || writes > IF_CONVERT_MAX_WRITES {
        return None;
    }
    Some(IfPlan { then_r, else_r, join })
}

/// Converts small `Jz` arms and diamonds into straight-line code.
///
/// Pure arm ops are emitted as-is (their results are dead on the
/// untaken path, so speculating them is invisible — `Read`/`MemRead`
/// are total). Each guarded `Write`/`WriteNext` becomes one predicated
/// [`Op::WriteIf`]/[`Op::WriteNextIf`] carrying the guard register and
/// the arm's polarity; the untaken predicate stores nothing, so values,
/// tracked-mode events, and the shadow buffer's fault-injection
/// behaviour are all preserved bit-for-bit. A write that is *already*
/// predicated (a nested if converted in an earlier round) conjoins its
/// own guard with the outer one: both are normalized to 0/1 — `RedOr`
/// for a positive guard, `Eq` against a hoisted zero constant for a
/// negated one — and combined with `And`. Nested ifs thus convert
/// innermost-first, one level per pipeline round.
fn if_convert(vt: &mut VTape) -> u64 {
    let len = vt.ops.len();
    let mut tcount = vec![0u32; len + 1];
    let mut any_jz = false;
    for op in &vt.ops {
        if let Some(target) = target_of(op) {
            tcount[target as usize] += 1;
            any_jz |= matches!(op, Op::Jz { .. });
        }
    }
    if !any_jz {
        return 0;
    }
    let ops = std::mem::take(&mut vt.ops);
    let mut nregs = vt.nregs;
    let mut out: Vec<Op<VReg>> = Vec::with_capacity(len);
    let mut new_pos = vec![0u32; len + 1];
    let mut rewrites = 0;
    let emit_arm = |r: std::ops::Range<usize>,
                    is_then: bool,
                    cond: VReg,
                    out: &mut Vec<Op<VReg>>,
                    new_pos: &mut [u32],
                    nregs: &mut VReg| {
        // Lazily materialized per arm: the arm's own take-condition
        // normalized to 0/1 (`RedOr(cond)` for the then-arm,
        // `Eq(cond, 0)` for the else-arm) and a zero constant.
        let mut arm01: Option<VReg> = None;
        let mut kzero: Option<VReg> = None;
        let alloc = |nregs: &mut VReg| {
            let r = *nregs;
            *nregs += 1;
            r
        };
        let mut zero = |out: &mut Vec<Op<VReg>>, nregs: &mut VReg| {
            *kzero.get_or_insert_with(|| {
                let d = alloc(nregs);
                out.push(Op::Const { dst: d, val: 0 });
                d
            })
        };
        // Conjoins an inner predicated write's own guard with this arm's
        // take-condition; returns the combined positive-polarity guard.
        let mut conjoin =
            |inner: VReg, inner_neg: bool, out: &mut Vec<Op<VReg>>, nregs: &mut VReg| {
                let a01 = match arm01 {
                    Some(r) => r,
                    None => {
                        let d = if is_then {
                            let d = alloc(nregs);
                            out.push(Op::RedOr { dst: d, a: cond });
                            d
                        } else {
                            let z = zero(out, nregs);
                            let d = alloc(nregs);
                            out.push(Op::Eq { dst: d, a: cond, b: z });
                            d
                        };
                        arm01 = Some(d);
                        d
                    }
                };
                let i01 = if inner_neg {
                    let z = zero(out, nregs);
                    let d = alloc(nregs);
                    out.push(Op::Eq { dst: d, a: inner, b: z });
                    d
                } else {
                    let d = alloc(nregs);
                    out.push(Op::RedOr { dst: d, a: inner });
                    d
                };
                let d = alloc(nregs);
                out.push(Op::And { dst: d, a: a01, b: i01 });
                d
            };
        for idx in r {
            new_pos[idx] = out.len() as u32;
            match ops[idx] {
                Op::Write { slot, src } => {
                    out.push(Op::WriteIf { slot, cond, src, neg: !is_then });
                }
                Op::WriteNext { slot, src } => {
                    out.push(Op::WriteNextIf { slot, cond, src, neg: !is_then });
                }
                Op::WriteIf { slot, cond: ic, src, neg } => {
                    let cc = conjoin(ic, neg, out, nregs);
                    out.push(Op::WriteIf { slot, cond: cc, src, neg: false });
                }
                Op::WriteNextIf { slot, cond: ic, src, neg } => {
                    let cc = conjoin(ic, neg, out, nregs);
                    out.push(Op::WriteNextIf { slot, cond: cc, src, neg: false });
                }
                Op::MemWrite { mem, addr, data, words } => {
                    out.push(Op::MemWriteIf { mem, addr, data, cond, words, neg: !is_then });
                }
                Op::MemWriteIf { mem, addr, data, cond: ic, words, neg } => {
                    let cc = conjoin(ic, neg, out, nregs);
                    out.push(Op::MemWriteIf { mem, addr, data, cond: cc, words, neg: false });
                }
                ref op => out.push(op.clone()),
            }
        }
    };
    let mut i = 0;
    while i < len {
        new_pos[i] = out.len() as u32;
        let plan = match ops[i] {
            Op::Jz { cond, target } => {
                plan_if(&ops, i, target as usize, &tcount).map(|p| (cond, p))
            }
            _ => None,
        };
        let Some((cond, plan)) = plan else {
            out.push(ops[i].clone());
            i += 1;
            continue;
        };
        emit_arm(plan.then_r.clone(), true, cond, &mut out, &mut new_pos, &mut nregs);
        if plan.join > plan.then_r.end {
            // Diamond: account for the dropped then-exit `Jmp`.
            new_pos[plan.then_r.end] = out.len() as u32;
        }
        emit_arm(plan.else_r.clone(), false, cond, &mut out, &mut new_pos, &mut nregs);
        i = plan.join;
        rewrites += 1;
    }
    new_pos[len] = out.len() as u32;
    if rewrites == 0 {
        vt.ops = ops;
        return 0;
    }
    for target in out.iter_mut().filter_map(Op::target_mut) {
        *target = new_pos[*target as usize];
    }
    vt.ops = out;
    vt.nregs = nregs;
    rewrites
}

/// Rewrites uses through copy chains so the copies die in DCE.
fn copy_prop(vt: &mut VTape) -> u64 {
    let is_leader = leaders(&vt.ops);
    let nregs = vt.nregs as usize;
    let mut ver = vec![0u32; nregs];
    // `dst` holds the value `src` held at version `src_ver`, as long as
    // the entry's epoch is current: a leader forgets every copy by bumping
    // the epoch (O(1), like `Facts::reset`).
    let mut copy_of: Vec<Option<(VReg, u32, u32)>> = vec![None; nregs];
    let mut epoch = 0u32;
    let mut rewrites = 0;
    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            epoch += 1;
        }
        let resolve = |mut r: VReg, copy_of: &[Option<(VReg, u32, u32)>], ver: &[u32]| {
            while let Some((s, sv, e)) = copy_of[r as usize] {
                if e != epoch || ver[s as usize] != sv || s == r {
                    break;
                }
                r = s;
            }
            r
        };
        rewrites += rewrite_uses(op, &mut |r| resolve(r, &copy_of, &ver));
        if let Some(dst) = op.def() {
            ver[dst as usize] += 1;
            copy_of[dst as usize] = match *op {
                Op::Copy { a, .. } if a != dst => Some((a, ver[a as usize], epoch)),
                _ => None,
            };
        }
    }
    rewrites
}

/// Shortcuts `Jmp` chains, drops jumps to the next op, and removes
/// unreachable ops.
fn jump_thread(vt: &mut VTape) -> u64 {
    let len = vt.ops.len();
    let mut rewrites = 0;
    // Resolve each jump through chains of unconditional `Jmp`s.
    let resolve = |start: u32, ops: &[Op<VReg>]| {
        let mut t = start;
        let mut hops = 0;
        while (t as usize) < ops.len() && hops < 64 {
            match ops[t as usize] {
                Op::Jmp { target } if target != t => t = target,
                _ => break,
            }
            hops += 1;
        }
        t
    };
    for i in 0..len {
        let Some(cur) = target_of(&vt.ops[i]) else { continue };
        let threaded = resolve(cur, &vt.ops);
        if threaded != cur {
            *vt.ops[i].target_mut().expect("a jump") = threaded;
            rewrites += 1;
        }
    }
    let mut dead = vec![false; len];
    // Jumps to the very next op are no-ops.
    for (i, op) in vt.ops.iter().enumerate() {
        if target_of(op) == Some(i as u32 + 1) {
            dead[i] = true;
            rewrites += 1;
        }
    }
    // Reachability from entry (tape jumps only go forward, but a plain
    // worklist costs nothing and assumes nothing).
    let mut reachable = vec![false; len + 1];
    let mut work = vec![0u32];
    while let Some(i) = work.pop() {
        let iu = i as usize;
        if iu >= len || reachable[iu] {
            continue;
        }
        reachable[iu] = true;
        if dead[iu] {
            work.push(i + 1);
            continue;
        }
        match vt.ops[iu].effect() {
            Effect::Jump { target, cond } => {
                work.push(target);
                if cond {
                    work.push(i + 1);
                }
            }
            _ => work.push(i + 1),
        }
    }
    for i in 0..len {
        if !reachable[i] && !dead[i] {
            dead[i] = true;
            rewrites += 1;
        }
    }
    sweep(&mut vt.ops, &dead);
    rewrites
}

/// Removes pure ops whose destination register is never used later.
/// Positional ("used anywhere after") liveness without kills — sound for
/// any forward-jump control flow, and one backward scan handles whole
/// dead chains.
fn dce(vt: &mut VTape) -> u64 {
    let mut used = vec![false; vt.nregs as usize];
    let mut dead = vec![false; vt.ops.len()];
    let mut rewrites = 0;
    for (i, op) in vt.ops.iter().enumerate().rev() {
        // An op without a def is a store or a jump: always kept.
        if op.def().is_none_or(|dst| used[dst as usize]) {
            for_each_use(op, |r| used[r as usize] = true);
        } else {
            dead[i] = true;
            rewrites += 1;
        }
    }
    sweep(&mut vt.ops, &dead);
    rewrites
}

/// Fuses `Mux` chains pairwise into [`Op::Mux2`]: when a mux's false
/// input is produced by another mux whose only consumer it is, the pair
/// becomes one two-level op (`dst = c1 ? t1 : (c2 ? t2 : f)`). This is
/// the one-hot crossbar idiom — a grant vector sliced into bits, each
/// selecting one input with the previous pick threaded through the false
/// leg — where it halves the dispatch count of the hottest op kind.
///
/// Runs once after the fixpoint loop (CSE keys plain `Mux`es; fusing
/// earlier would hide sharing). Only jump-free tapes fuse: the inner
/// mux's operands are re-read at the outer site, which is only sound
/// when both sites provably execute together with single-def registers.
fn mux_fuse(vt: &mut VTape) -> u64 {
    if vt.has_jumps() {
        return 0;
    }
    let n = vt.nregs as usize;
    let mut def_site: Vec<u32> = vec![u32::MAX; n];
    let mut def_count = vec![0u8; n];
    let mut use_count = vec![0u32; n];
    let mut in_range = vec![false; n];
    for (i, op) in vt.ops.iter().enumerate() {
        if let Some(d) = op.def() {
            let c = &mut def_count[d as usize];
            *c = c.saturating_add(1);
            def_site[d as usize] = i as u32;
        }
        for_each_use(op, |r| use_count[r as usize] += 1);
        if let Op::Select { base, n: k, .. } = *op {
            for j in 0..k as VReg {
                in_range[(base + j) as usize] = true;
            }
        }
    }
    // A register's value is position-independent when it has at most one
    // def (defs dominate uses, so the def precedes every read).
    let stable = |r: VReg| def_count[r as usize] <= 1;
    let mut dead = vec![false; vt.ops.len()];
    let mut rewrites = 0u64;
    for i in 0..vt.ops.len() {
        let Op::Mux { dst, cond, t, f } = vt.ops[i] else { continue };
        let fr = f as usize;
        if def_count[fr] != 1 || use_count[fr] != 1 || in_range[fr] {
            continue;
        }
        let site = def_site[fr] as usize;
        if site == i {
            // Non-SSA corner (`rename` bailed): the mux reads its own
            // destination; there is no producer to fuse.
            continue;
        }
        let Op::Mux { cond: ic, t: it, f: inner_f, .. } = vt.ops[site] else {
            continue;
        };
        if !(stable(ic) && stable(it) && stable(inner_f)) {
            continue;
        }
        dead[site] = true;
        vt.ops[i] = Op::Mux2 { dst, c1: cond, t1: t, c2: ic, t2: it, f: inner_f };
        rewrites += 1;
    }
    if rewrites > 0 {
        sweep(&mut vt.ops, &dead);
    }
    rewrites
}

/// Moves every single-def `Const` to the front of a jump-free tape and
/// records the prefix length in [`VTape::prelude`]. The hoisted consts
/// are cycle-invariant, so an engine with a persistent per-tape register
/// buffer installs them once and executes only the body per cycle
/// (`exec_prelude`, then executing from `tape.prelude`), while engines that share one
/// scratch buffer across tapes keep executing from op 0 unchanged.
///
/// Runs once after the fixpoint loop: DCE has already removed unused
/// consts and GVN deduplicated repeats, so what remains is the live
/// constant pool. `realloc` pins the prelude destinations so no body op
/// ever recycles them (the prelude only runs once per buffer lifetime).
fn hoist_consts(vt: &mut VTape) -> u64 {
    if vt.has_jumps() {
        // Moving ops would shift jump targets; fully if-converted tapes
        // (the hot fused schedules) are the payoff anyway.
        return 0;
    }
    // Only single-def consts hoist: a register redefined later would be
    // clobbered after the prelude ran. `rename` makes defs unique, but it
    // can bail on pathological `Select` ranges, so re-check here.
    let mut def_count = vec![0u8; vt.nregs as usize];
    for op in &vt.ops {
        if let Some(d) = op.def() {
            let c = &mut def_count[d as usize];
            *c = c.saturating_add(1);
        }
    }
    let hoistable = |op: &Op<VReg>| match op {
        Op::Const { dst, .. } => def_count[*dst as usize] == 1,
        _ => false,
    };
    let total = vt.ops.iter().filter(|op| hoistable(op)).count();
    if total == 0 {
        return 0;
    }
    let mut pre: Vec<Op<VReg>> = Vec::with_capacity(total);
    let mut body: Vec<Op<VReg>> = Vec::with_capacity(vt.ops.len() - total);
    for op in vt.ops.drain(..) {
        if hoistable(&op) {
            pre.push(op);
        } else {
            body.push(op);
        }
    }
    vt.prelude = pre.len() as u32;
    pre.append(&mut body);
    vt.ops = pre;
    total as u64
}

/// Last-use linear-scan register reallocation: a register whose final
/// textual use has passed is recycled for later definitions.
///
/// Positional liveness is sound because tape jumps only go forward — a
/// value cannot be needed at a position after its last textual use — and
/// registers carry no state between tape executions (fused tapes already
/// share one scratch file across blocks). `Select` ranges are pinned to
/// dedicated ascending indices so they stay consecutive. This is what
/// actually relieves the physical `u16` register budget: `rename` can
/// inflate a fused tape to tens of thousands of live virtual registers,
/// and the scan folds them back down to the peak-liveness width (also
/// shrinking the executor's working set).
fn realloc(vt: &mut VTape) -> u64 {
    let n = vt.nregs as usize;
    if n == 0 {
        return 0;
    }
    let mut last = vec![usize::MAX; n];
    let mut pinned = vec![false; n];
    for (i, op) in vt.ops.iter().enumerate() {
        if let Some(d) = op.def() {
            last[d as usize] = i;
        }
        for_each_use(op, |r| last[r as usize] = i);
        if let Op::Select { base, n: k, .. } = *op {
            for j in 0..k as VReg {
                pinned[(base + j) as usize] = true;
            }
        }
    }
    // A parameter whose `Const` the passes removed as dead is gone.
    vt.params.retain(|p| last[p.reg as usize] != usize::MAX);
    // Prelude constants live for the whole buffer lifetime (they are
    // written once, at init), so their registers must never be recycled
    // by body defs. Pinning gives them stable numbers and keeps them off
    // the free list. A parameter's register is pinned too, wherever its
    // `Const` sits, so that one op defines it.
    for op in &vt.ops[..vt.prelude as usize] {
        if let Some(d) = op.def() {
            pinned[d as usize] = true;
        }
    }
    vt.params.iter().for_each(|p| pinned[p.reg as usize] = true);
    let mut map: Vec<VReg> = vec![VReg::MAX; n];
    let mut next: VReg = 0;
    // Pinned registers first, in ascending order: consecutive originals
    // (every `Select` range) stay consecutive.
    for (r, &p) in pinned.iter().enumerate() {
        if p {
            map[r] = next;
            next += 1;
        }
    }
    let mut free: Vec<VReg> = Vec::new();
    let mut freed = vec![false; n];
    let mut reused = 0u64;
    let mut uses: Vec<VReg> = Vec::new();
    for i in 0..vt.ops.len() {
        let op = &mut vt.ops[i];
        let old_def = op.def();
        uses.clear();
        for_each_use(op, |r| uses.push(r));
        rewrite_uses(op, &mut |r| {
            // Defs dominate uses in compiled tapes; an unseen use keeps a
            // fresh register (preserving its zero-initialized read).
            if map[r as usize] == VReg::MAX {
                map[r as usize] = next;
                next += 1;
            }
            map[r as usize]
        });
        if let Op::Select { base, .. } = op {
            *base = map[*base as usize];
        }
        // Registers whose last textual use is this op die here; their
        // physical register is immediately reusable (the executor reads
        // all operands before writing the destination).
        for &r in &uses {
            let r = r as usize;
            if last[r] == i && !pinned[r] && !freed[r] && map[r] != VReg::MAX {
                freed[r] = true;
                free.push(map[r]);
            }
        }
        if let Some(d) = old_def {
            let d = d as usize;
            if !pinned[d] {
                map[d] = match free.pop() {
                    Some(p) => {
                        reused += 1;
                        p
                    }
                    None => {
                        let p = next;
                        next += 1;
                        p
                    }
                };
            }
            set_def(op, map[d]);
            if last[d] == i && !pinned[d] && !freed[d] {
                // Dead store of a pure op (DCE leftovers): recycle at once.
                freed[d] = true;
                free.push(map[d]);
            }
        }
    }
    vt.params.iter_mut().for_each(|p| p.reg = map[p.reg as usize]);
    vt.nregs = next;
    reused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PackedState;
    use crate::tape::Param;

    fn opt(mut vt: VTape, widths: &[u32]) -> (VTape, OptReport) {
        let mut rep = OptReport::new();
        optimize(&mut vt, widths, &[], &mut rep);
        (vt, rep)
    }

    /// Runs a tape (narrowed) over fresh state and returns `cur`.
    fn run(vt: &VTape, nslots: usize, init: &[(usize, u128)]) -> Vec<u128> {
        // Slot widths unknown here: assume the widest, i.e. the wide class.
        let mut t = crate::compile::codegen::narrow(vt, &vec![128; nslots], &[], || "test".into());
        crate::compile::codegen::validate(&mut t, nslots, 0);
        let mut regs = vec![0u128; t.nregs as usize];
        let mut cur = vec![0u128; nslots];
        for &(s, v) in init {
            cur[s] = v;
        }
        let mut state = PackedState::from_widths(&vec![128; nslots], &[], &[]);
        state.fill(&cur, &vec![0; nslots]);
        state.exec::<false>(&t, 0, &mut regs, &mut Vec::new(), &mut Vec::new());
        state.dump().0
    }

    fn vt(ops: Vec<Op<VReg>>, nregs: u32) -> VTape {
        VTape { ops, nregs, ..VTape::default() }
    }

    #[test]
    fn duplicate_reads_collapse_and_constants_fold() {
        // r0 = read s0; r1 = read s0; r2 = 3; r3 = 4; r4 = r2+r3;
        // r5 = r0 + r1 (== 2*read); write s1 = r4 + r5... exercise cse+fold.
        let m = mask_of(8);
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Read { dst: 1, slot: 0 },
            Op::Const { dst: 2, val: 3 },
            Op::Const { dst: 3, val: 4 },
            Op::Add { dst: 4, a: 2, b: 3, mask: m },
            Op::Add { dst: 5, a: 0, b: 1, mask: m },
            Op::Add { dst: 6, a: 4, b: 5, mask: m },
            Op::Write { slot: 1, src: 6 },
        ];
        let before = run(&vt(ops.clone(), 7), 2, &[(0, 5)]);
        let (o, rep) = opt(vt(ops, 7), &[8, 8]);
        let after = run(&o, 2, &[(0, 5)]);
        assert_eq!(before, after);
        assert_eq!(before[1], (3 + 4 + 5 + 5) & m);
        // One read survives; the const-add folded away.
        let reads = o.ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, 1, "{:?}", o.ops);
        assert!(o.ops.len() <= 5, "{:?}", o.ops);
        assert!(rep.ops_after < rep.ops_before);
        assert!(rep.regs_after < rep.regs_before);
    }

    #[test]
    fn store_to_load_forwarding() {
        // write s1 = r0; r1 = read s1 (forwards to r0); write s2 = r1+1.
        let m = mask_of(8);
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Write { slot: 1, src: 0 },
            Op::Read { dst: 1, slot: 1 },
            Op::Const { dst: 2, val: 1 },
            Op::Add { dst: 3, a: 1, b: 2, mask: m },
            Op::Write { slot: 2, src: 3 },
        ];
        let before = run(&vt(ops.clone(), 4), 3, &[(0, 9)]);
        let (o, _) = opt(vt(ops, 4), &[8, 8, 8]);
        let after = run(&o, 3, &[(0, 9)]);
        assert_eq!(before, after);
        assert_eq!(after[1], 9);
        assert_eq!(after[2], 10);
        // The second read forwarded.
        let reads = o.ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, 1, "{:?}", o.ops);
    }

    #[test]
    fn constant_condition_collapses_jumps_and_muxes() {
        // if (1) s1 = s0 else s1 = 0  — lowered as Jz over a const cond,
        // plus a Mux with const cond.
        let ops = vec![
            Op::Const { dst: 0, val: 1 },
            Op::Jz { cond: 0, target: 4 },
            Op::Read { dst: 1, slot: 0 },
            Op::Write { slot: 1, src: 1 },
            Op::Read { dst: 2, slot: 0 },
            Op::Const { dst: 3, val: 0 },
            Op::Mux { dst: 4, cond: 0, t: 2, f: 3 },
            Op::Write { slot: 2, src: 4 },
        ];
        let before = run(&vt(ops.clone(), 5), 3, &[(0, 7)]);
        let (o, _) = opt(vt(ops, 5), &[8, 8, 8]);
        assert_eq!(before, run(&o, 3, &[(0, 7)]));
        assert!(!o.ops.iter().any(|o| matches!(o, Op::Jz { .. } | Op::Mux { .. })), "{:?}", o.ops);
    }

    #[test]
    fn width_narrowing_removes_covering_masks() {
        // s0 is 4 bits wide: slicing [0,8) of it and sign-handling with a
        // clear sign bit are identities.
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Slice { dst: 1, a: 0, lo: 0, mask: mask_of(8) },
            Op::Sext { dst: 2, a: 1, sign_bit: 1 << 7, ext_or: mask_of(16) & !mask_of(8) },
            Op::Write { slot: 1, src: 2 },
        ];
        let before = run(&vt(ops.clone(), 3), 2, &[(0, 0xF)]);
        let (o, _) = opt(vt(ops, 3), &[4, 16]);
        assert_eq!(before, run(&o, 2, &[(0, 0xF)]));
        assert_eq!(o.ops.len(), 2, "read+write only: {:?}", o.ops);
    }

    #[test]
    fn select_ranges_stay_consecutive_through_compaction() {
        // Leave a gap in the register numbering (dead r1) and check the
        // Select range survives renumbering with executable semantics.
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Const { dst: 1, val: 99 }, // dead
            Op::Read { dst: 2, slot: 1 },
            Op::Const { dst: 3, val: 10 },
            Op::Const { dst: 4, val: 20 },
            Op::Copy { dst: 5, a: 3 },
            Op::Copy { dst: 6, a: 4 },
            Op::Copy { dst: 7, a: 2 },
            Op::Select { dst: 8, sel: 0, base: 5, n: 3 },
            Op::Write { slot: 2, src: 8 },
        ];
        for sel in [0u128, 1, 2, 7] {
            let before = run(&vt(ops.clone(), 9), 3, &[(0, sel), (1, 42)]);
            let (o, _) = opt(vt(ops.clone(), 9), &[4, 8, 8]);
            assert_eq!(before, run(&o, 3, &[(0, sel), (1, 42)]), "sel={sel}");
            assert!(o.nregs < 9, "dead register reclaimed: {:?}", o.ops);
        }
    }

    #[test]
    fn optimizer_is_deterministic() {
        let m = mask_of(8);
        let ops: Vec<Op<VReg>> = (0..40)
            .flat_map(|i| {
                vec![
                    Op::Read { dst: 3 * i, slot: i % 4 },
                    Op::Const { dst: 3 * i + 1, val: (i as u128) & m },
                    Op::Add { dst: 3 * i + 2, a: 3 * i, b: 3 * i + 1, mask: m },
                    Op::Write { slot: 4 + i % 3, src: 3 * i + 2 },
                ]
            })
            .collect();
        let widths = vec![8u32; 7];
        let (a, _) = opt(vt(ops.clone(), 120), &widths);
        let (b, _) = opt(vt(ops, 120), &widths);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_eq!(a.nregs, b.nregs);
    }

    /// A `Jz`-guarded `Write` + `WriteNext` region must convert to
    /// straight-line predicated code, and the predication must read the
    /// *real* shadow buffer: an untaken guard preserves whatever value
    /// `next` already held (which fault injection can desynchronize from
    /// `cur`), not a value reconstructed from `cur`.
    #[test]
    fn if_conversion_predicates_cur_and_next_writes() {
        let m = mask_of(8);
        // if (read s0) { write s1 = 5; write-next s2 = 9 }
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Jz { cond: 0, target: 6 },
            Op::Const { dst: 1, val: 5 & m },
            Op::Write { slot: 1, src: 1 },
            Op::Const { dst: 2, val: 9 & m },
            Op::WriteNext { slot: 2, src: 2 },
        ];
        let (o, rep) = opt(vt(ops, 3), &[1, 8, 8]);
        assert!(rep.passes[P_IF_CONVERT].rewrites > 0, "if-convert did not fire");
        assert!(
            !o.ops
                .iter()
                .any(|op| matches!(op, Op::Jz { .. } | Op::Jmp { .. } | Op::JneConst { .. })),
            "jumps survived if-conversion: {:?}",
            o.ops
        );
        let mut t = crate::compile::codegen::narrow(&o, &[1, 8, 8], &[], || "test tape".into());
        crate::compile::codegen::validate(&mut t, 3, 0);
        for taken in [false, true] {
            let mut regs = vec![0u128; t.nregs as usize];
            let mut state = PackedState::from_widths(&[1, 8, 8], &[], &[]);
            // Pre-set next[2] to a value cur cannot explain: the untaken
            // path must keep it.
            state.fill(&[u128::from(taken), 0, 0], &[0, 0, 7]);
            state.exec::<false>(&t, 0, &mut regs, &mut Vec::new(), &mut Vec::new());
            let (cur, next, _) = state.dump();
            if taken {
                assert_eq!((cur[1], next[2]), (5, 9));
            } else {
                assert_eq!((cur[1], next[2]), (0, 7));
            }
        }
    }

    /// A parameter whose `Const` no op reads dies in DCE, and `realloc`
    /// drops it from `params`; a live one keeps its entry, on the register
    /// its `Const` now defines.
    #[test]
    fn a_dead_parameter_leaves_params() {
        let ops = vec![
            Op::Const { dst: 0, val: 0 },
            Op::Const { dst: 1, val: 0 },
            Op::Read { dst: 2, slot: 0 },
            Op::Add { dst: 3, a: 2, b: 1, mask: mask_of(8) },
            Op::Write { slot: 1, src: 3 },
        ];
        let params =
            vec![Param { index: 0, reg: 0, width: 8 }, Param { index: 1, reg: 1, width: 8 }];
        let (o, _) = opt(VTape { params, ..vt(ops, 4) }, &[8, 8]);
        let [live] = o.params[..] else { panic!("one parameter survives: {:?}", o.params) };
        assert_eq!(live.index, 1);
        assert!(o.ops.contains(&Op::Const { dst: live.reg, val: 0 }), "{:?}", o.ops);
    }

    /// A raw emission that overflows the physical `u16` register budget
    /// must fit after optimization: the chain is fully live (nothing for
    /// DCE), so only `realloc`'s lifetime-based register reuse saves it.
    #[test]
    fn optimizer_relieves_register_budget() {
        let m = mask_of(8);
        let n: VReg = crate::compile::codegen::REG_BUDGET + 4000;
        let mut ops = vec![Op::Read { dst: 0, slot: 0 }];
        for i in 0..n {
            ops.push(Op::Add { dst: i + 1, a: i, b: i, mask: m });
        }
        ops.push(Op::Write { slot: 1, src: n });
        let raw = vt(ops, n + 1);
        assert!(raw.nregs > crate::compile::codegen::REG_BUDGET, "test must start over budget");
        let (o, _) = opt(raw, &[8, 8]);
        assert!(
            o.nregs <= crate::compile::codegen::REG_BUDGET,
            "optimizer failed to relieve the register budget: {} regs",
            o.nregs
        );
        // And the narrowed tape still computes the right value:
        // ((1*2)*2...)*2 over the live chain, mod 256.
        let cur = run(&o, 2, &[(0, 1)]);
        let expect = (0..n).fold(1u128, |v, _| (v << 1) & m);
        assert_eq!(cur[1], expect);
    }
    /// One-hot mux chains fuse pairwise into `Mux2` and keep their
    /// priority semantics (the later mux in the chain wins).
    #[test]
    fn mux_chains_fuse_into_mux2() {
        // sel bits from slots 0..2 pick between inputs in slots 3..5 with
        // slot 3 as the default: the classic crossbar chain.
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Read { dst: 1, slot: 1 },
            Op::Read { dst: 2, slot: 2 },
            Op::Read { dst: 3, slot: 3 },
            Op::Read { dst: 4, slot: 4 },
            Op::Read { dst: 5, slot: 5 },
            Op::Mux { dst: 6, cond: 0, t: 4, f: 3 },
            Op::Mux { dst: 7, cond: 1, t: 5, f: 6 },
            Op::Mux { dst: 8, cond: 2, t: 3, f: 7 },
            Op::Write { slot: 6, src: 8 },
        ];
        let widths = [1, 1, 1, 8, 8, 8, 8];
        let cases: Vec<Vec<(usize, u128)>> = (0u32..8)
            .map(|bits| {
                vec![
                    (0, u128::from(bits & 1)),
                    (1, u128::from((bits >> 1) & 1)),
                    (2, u128::from((bits >> 2) & 1)),
                    (3, 0x11),
                    (4, 0x22),
                    (5, 0x33),
                ]
            })
            .collect();
        let before: Vec<_> = cases.iter().map(|c| run(&vt(ops.clone(), 9), 7, c)).collect();
        let (o, rep) = opt(vt(ops, 9), &widths);
        assert!(rep.passes[P_MUX_FUSE].rewrites > 0, "mux-fuse did not fire: {:?}", o.ops);
        assert!(
            o.ops.iter().any(|op| matches!(op, Op::Mux2 { .. })),
            "no Mux2 in output: {:?}",
            o.ops
        );
        for (c, want) in cases.iter().zip(&before) {
            assert_eq!(&run(&o, 7, c), want);
        }
    }

    /// Constants hoist into a prelude whose registers survive body
    /// execution, so `exec_prelude` + N x the body (`exec` from
    /// `tape.prelude`) over one persistent buffer matches N full executions.
    #[test]
    fn const_hoist_prelude_is_cycle_invariant() {
        let m = mask_of(8);
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Const { dst: 1, val: 7 },
            Op::Add { dst: 2, a: 0, b: 1, mask: m },
            Op::Write { slot: 1, src: 2 },
        ];
        let (o, rep) = opt(vt(ops, 3), &[8, 8]);
        assert!(rep.passes[P_HOIST].rewrites > 0, "hoist did not fire: {:?}", o.ops);
        assert!(o.prelude > 0, "no prelude recorded");
        let mut t = crate::compile::codegen::narrow(&o, &[8, 8], &[], || "test tape".into());
        crate::compile::codegen::validate(&mut t, 2, 0);
        assert!(t.narrow.is_some(), "8-bit tape runs the u64 class, prelude included");
        let mut regs = vec![0u128; t.nregs as usize];
        crate::tape::exec_prelude(&t, &mut regs);
        let mut state = PackedState::from_widths(&[8, 8], &[], &[]);
        for x in [0u128, 5, 200] {
            state.fill(&[x, 0], &[0, 0]);
            let start = t.prelude as usize;
            state.exec::<false>(&t, start, &mut regs, &mut Vec::new(), &mut Vec::new());
            assert_eq!(state.dump().0[1], (x + 7) & m, "body run with x={x}");
        }
    }
}
