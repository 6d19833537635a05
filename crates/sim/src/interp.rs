//! The interpreted (event-driven, tree-walking) simulation backends.
//!
//! Two storage/sensitivity strategies mirror the paper's two interpreter
//! regimes (see `DESIGN.md`):
//!
//! * [`HashStore`] + [`HashSens`] — values live in hash maps and
//!   sensitivity lookups hash on every event, modeling CPython's
//!   dict-based attribute access.
//! * [`DenseStore`] + [`DenseSens`] — pre-resolved dense slot arrays,
//!   modeling PyPy's JIT-optimized access while keeping the same
//!   event-driven tree-walking architecture.
//!
//! Both backends walk the IR tree directly and compile no tapes, so the
//! tape-optimizer pipeline ([`crate::passes`]) does not apply here —
//! which is exactly what makes them the trusted references for the
//! optimizer-differential fuzz axis ([`SimConfig::tape_opt`]).
//!
//! [`SimConfig::tape_opt`]: crate::SimConfig::tape_opt

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mtl_bits::Bits;
use mtl_core::ir::{Expr, IdOffsets, Stmt};
use mtl_core::{BlockBody, BlockKind, Design, NativeFn, SignalId, SignalView};

use crate::compile::{comb_sensitivity, reg_slots};
use crate::overheads::Overheads;
use crate::profile::EngineStats;
use crate::sim::EngineImpl;

/// Value storage for the interpreted backends.
pub(crate) trait Store {
    fn init(design: &Design) -> Self;
    fn get(&self, slot: u32) -> Bits;
    /// Sets a current value; returns whether it changed.
    fn set(&mut self, slot: u32, v: Bits) -> bool;
    fn get_next(&self, slot: u32) -> Bits;
    fn set_next(&mut self, slot: u32, v: Bits);
    /// Commits a register slot; returns whether the current value changed.
    fn commit(&mut self, slot: u32) -> bool;
}

/// String-keyed storage (the CPython analog).
///
/// Every access resolves the signal's hierarchical *name* through a hash
/// map, exactly as CPython resolves `s.out.value` through attribute
/// dictionaries, and values are stored boxed. A slot-to-name table
/// preserves the `Store` interface.
pub(crate) struct HashStore {
    names: Vec<String>,
    cur: HashMap<String, Box<Bits>>,
    next: HashMap<String, Box<Bits>>,
}

impl Store for HashStore {
    fn init(design: &Design) -> Self {
        let mut names = Vec::with_capacity(design.nets().len());
        let mut cur = HashMap::new();
        let mut next = HashMap::new();
        for net in design.nets() {
            let name = design.signal_path(net.signals[0]);
            cur.insert(name.clone(), Box::new(Bits::zero(net.width)));
            next.insert(name.clone(), Box::new(Bits::zero(net.width)));
            names.push(name);
        }
        Self { names, cur, next }
    }

    fn get(&self, slot: u32) -> Bits {
        *self.cur[&self.names[slot as usize]]
    }

    fn set(&mut self, slot: u32, v: Bits) -> bool {
        let e = self.cur.get_mut(&self.names[slot as usize]).expect("unknown signal");
        let changed = **e != v;
        **e = v;
        changed
    }

    fn get_next(&self, slot: u32) -> Bits {
        *self.next[&self.names[slot as usize]]
    }

    fn set_next(&mut self, slot: u32, v: Bits) {
        self.next.insert(self.names[slot as usize].clone(), Box::new(v));
    }

    fn commit(&mut self, slot: u32) -> bool {
        let v = self.get_next(slot);
        self.set(slot, v)
    }
}

/// Dense vector storage (the PyPy analog).
pub(crate) struct DenseStore {
    cur: Vec<Bits>,
    next: Vec<Bits>,
}

impl Store for DenseStore {
    fn init(design: &Design) -> Self {
        let zeros: Vec<Bits> = design.nets().iter().map(|n| Bits::zero(n.width)).collect();
        Self { cur: zeros.clone(), next: zeros }
    }

    fn get(&self, slot: u32) -> Bits {
        self.cur[slot as usize]
    }

    fn set(&mut self, slot: u32, v: Bits) -> bool {
        let e = &mut self.cur[slot as usize];
        let changed = *e != v;
        *e = v;
        changed
    }

    fn get_next(&self, slot: u32) -> Bits {
        self.next[slot as usize]
    }

    fn set_next(&mut self, slot: u32, v: Bits) {
        self.next[slot as usize] = v;
    }

    fn commit(&mut self, slot: u32) -> bool {
        let v = self.next[slot as usize];
        self.set(slot, v)
    }
}

/// Sensitivity map: net slot → combinational blocks to wake.
pub(crate) trait SensMap {
    fn new(nets: usize) -> Self;
    fn insert(&mut self, slot: u32, block: u32);
    fn get(&self, slot: u32) -> &[u32];
}

/// Hash-map sensitivity (CPython analog).
pub(crate) struct HashSens(HashMap<u32, Vec<u32>>);

impl SensMap for HashSens {
    fn new(_nets: usize) -> Self {
        Self(HashMap::new())
    }

    fn insert(&mut self, slot: u32, block: u32) {
        self.0.entry(slot).or_default().push(block);
    }

    fn get(&self, slot: u32) -> &[u32] {
        self.0.get(&slot).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Dense sensitivity arrays (PyPy analog).
pub(crate) struct DenseSens(Vec<Vec<u32>>);

impl SensMap for DenseSens {
    fn new(nets: usize) -> Self {
        Self(vec![Vec::new(); nets])
    }

    fn insert(&mut self, slot: u32, block: u32) {
        self.0[slot as usize].push(block);
    }

    fn get(&self, slot: u32) -> &[u32] {
        &self.0[slot as usize]
    }
}

/// Tree-walk evaluates an expression against a store (reads current
/// values).
pub(crate) fn eval_expr<S: Store>(
    e: &Expr,
    design: &Design,
    ids: IdOffsets,
    store: &S,
    mems: &[Vec<Bits>],
    boxed: bool,
) -> Bits {
    if boxed {
        return *eval_expr_boxed(e, design, ids, store, mems);
    }
    let slot = |sig| design.net_of(ids.signal(sig)).index() as u32;
    e.eval(&mut |sig| store.get(slot(sig)), &mut |mem, addr| {
        let mem = ids.mem(mem);
        let words = design.mem(mem).words;
        mems[mem.index()][(addr % words) as usize]
    })
}

/// Boxed tree-walk evaluation: every intermediate result is a fresh heap
/// allocation, mirroring CPython's object-per-value execution model (a
/// tracing JIT like PyPy eliminates exactly this, which is what
/// [`DenseStore`]'s unboxed path models). This is the honest cost
/// structure behind the paper's CPython baseline.
fn eval_expr_boxed<S: Store>(
    e: &Expr,
    design: &Design,
    ids: IdOffsets,
    store: &S,
    mems: &[Vec<Bits>],
) -> Box<Bits> {
    use mtl_core::ir::{BinOp, UnaryOp};
    match e {
        Expr::Read(sig) => Box::new(store.get(design.net_of(ids.signal(*sig)).index() as u32)),
        Expr::Const(c) => Box::new(*c),
        Expr::Slice { expr, lo, hi } => {
            let v = eval_expr_boxed(expr, design, ids, store, mems);
            Box::new(v.slice(*lo, *hi))
        }
        Expr::Concat(parts) => {
            let mut it = parts.iter();
            let mut acc = eval_expr_boxed(it.next().expect("concat"), design, ids, store, mems);
            for p in it {
                let rhs = eval_expr_boxed(p, design, ids, store, mems);
                acc = Box::new(acc.concat(*rhs));
            }
            acc
        }
        Expr::Unary(op, a) => {
            let v = eval_expr_boxed(a, design, ids, store, mems);
            Box::new(match op {
                UnaryOp::Not => !*v,
                UnaryOp::Neg => -*v,
                UnaryOp::ReduceAnd => Bits::from_bool(v.reduce_and()),
                UnaryOp::ReduceOr => Bits::from_bool(v.reduce_or()),
                UnaryOp::ReduceXor => Bits::from_bool(v.reduce_xor()),
            })
        }
        Expr::Binary(op, a, b) => {
            let x = eval_expr_boxed(a, design, ids, store, mems);
            let y = eval_expr_boxed(b, design, ids, store, mems);
            let amt = |v: &Bits| v.as_u128().min(u32::MAX as u128) as u32;
            Box::new(match op {
                BinOp::Add => *x + *y,
                BinOp::Sub => *x - *y,
                BinOp::Mul => *x * *y,
                BinOp::And => *x & *y,
                BinOp::Or => *x | *y,
                BinOp::Xor => *x ^ *y,
                BinOp::Shl => *x << amt(&y),
                BinOp::Shr => *x >> amt(&y),
                BinOp::Sra => x.shr_signed(amt(&y)),
                BinOp::Eq => Bits::from_bool(*x == *y),
                BinOp::Ne => Bits::from_bool(*x != *y),
                BinOp::Lt => Bits::from_bool(*x < *y),
                BinOp::Ge => Bits::from_bool(*x >= *y),
                BinOp::LtS => Bits::from_bool(x.lt_signed(*y)),
                BinOp::GeS => Bits::from_bool(x.ge_signed(*y)),
            })
        }
        Expr::Mux { cond, then_, else_ } => {
            let c = eval_expr_boxed(cond, design, ids, store, mems);
            if c.reduce_or() {
                eval_expr_boxed(then_, design, ids, store, mems)
            } else {
                eval_expr_boxed(else_, design, ids, store, mems)
            }
        }
        Expr::Select { sel, options } => {
            let s = eval_expr_boxed(sel, design, ids, store, mems);
            let idx = s.as_u128().min(options.len() as u128 - 1) as usize;
            eval_expr_boxed(&options[idx], design, ids, store, mems)
        }
        Expr::Zext(a, w) => {
            let v = eval_expr_boxed(a, design, ids, store, mems);
            Box::new(v.zext(*w))
        }
        Expr::Sext(a, w) => {
            let v = eval_expr_boxed(a, design, ids, store, mems);
            Box::new(v.sext(*w))
        }
        Expr::Trunc(a, w) => {
            let v = eval_expr_boxed(a, design, ids, store, mems);
            Box::new(v.trunc(*w))
        }
        Expr::MemRead { mem, addr } => {
            let a = eval_expr_boxed(addr, design, ids, store, mems);
            let mem = ids.mem(*mem);
            let words = design.mem(mem).words;
            Box::new(mems[mem.index()][(a.as_u64() % words) as usize])
        }
    }
}

/// Tree-walk executes a statement list.
///
/// Combinational blocks (`seq == false`) write current values, collecting
/// changed slots into `changed`; sequential blocks write shadow next values
/// and append memory writes to `pending`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_stmts<S: Store>(
    stmts: &[Stmt],
    design: &Design,
    ids: IdOffsets,
    store: &mut S,
    mems: &[Vec<Bits>],
    pending: &mut Vec<(u32, u64, Bits)>,
    changed: &mut Vec<u32>,
    seq: bool,
    boxed: bool,
) {
    for s in stmts {
        match s {
            Stmt::Assign(lv, e) => {
                let v = eval_expr(e, design, ids, store, mems, boxed);
                let target = ids.signal(lv.signal);
                let slot = design.net_of(target).index() as u32;
                let full_width = design.signal(target).width;
                let full = lv.lo == 0 && lv.hi == full_width;
                if seq {
                    let nv =
                        if full { v } else { store.get_next(slot).with_slice(lv.lo, lv.hi, v) };
                    store.set_next(slot, nv);
                } else {
                    let nv = if full { v } else { store.get(slot).with_slice(lv.lo, lv.hi, v) };
                    if store.set(slot, nv) {
                        changed.push(slot);
                    }
                }
            }
            Stmt::If { cond, then_, else_ } => {
                if eval_expr(cond, design, ids, store, mems, boxed).reduce_or() {
                    exec_stmts(then_, design, ids, store, mems, pending, changed, seq, boxed);
                } else {
                    exec_stmts(else_, design, ids, store, mems, pending, changed, seq, boxed);
                }
            }
            Stmt::Switch { subject, arms, default } => {
                let v = eval_expr(subject, design, ids, store, mems, boxed);
                let mut matched = false;
                for (k, body) in arms {
                    if *k == v {
                        exec_stmts(body, design, ids, store, mems, pending, changed, seq, boxed);
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    exec_stmts(default, design, ids, store, mems, pending, changed, seq, boxed);
                }
            }
            Stmt::MemWrite { mem, addr, data } => {
                let a = eval_expr(addr, design, ids, store, mems, boxed).as_u64();
                let d = eval_expr(data, design, ids, store, mems, boxed);
                let mem = ids.mem(*mem);
                let words = design.mem(mem).words;
                pending.push((mem.index() as u32, a % words, d));
            }
        }
    }
}

/// The event-driven tree-walking backend, generic over its storage and
/// sensitivity strategy.
pub(crate) struct InterpEngine<S: Store, M: SensMap> {
    design: Arc<Design>,
    store: S,
    sens: M,
    mem_sens: Vec<Vec<u32>>,
    mems: Vec<Vec<Bits>>,
    pending: Vec<(u32, u64, Bits)>,
    natives: Vec<Option<NativeFn>>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    reg_slots: Vec<u32>,
    seq_blocks: Vec<u32>,
    changed: Vec<u32>,
    cycles: u64,
    /// Allocate boxed intermediates during evaluation (CPython analog).
    boxed: bool,
    track_activity: bool,
    activity: Vec<u64>,
    prof: Option<EngineStats>,
}

struct StoreView<'a, S: Store> {
    design: &'a Design,
    store: &'a mut S,
    changed: &'a mut Vec<u32>,
    cycles: u64,
}

impl<S: Store> SignalView for StoreView<'_, S> {
    fn read(&self, sig: SignalId) -> Bits {
        self.store.get(self.design.net_of(sig).index() as u32)
    }

    fn write(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index() as u32;
        debug_assert_eq!(self.design.signal(sig).width, value.width());
        if self.store.set(slot, value) {
            self.changed.push(slot);
        }
    }

    fn write_next(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index() as u32;
        debug_assert_eq!(self.design.signal(sig).width, value.width());
        self.store.set_next(slot, value);
    }

    fn cycle(&self) -> u64 {
        self.cycles
    }
}

impl<S: Store, M: SensMap> InterpEngine<S, M> {
    pub(crate) fn new(
        design: Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        boxed: bool,
        o: &mut Overheads,
    ) -> Self {
        let t0 = Instant::now();
        let store = S::init(&design);
        let mut sens = M::new(design.nets().len());
        let mut mem_sens = vec![Vec::new(); design.mems().len()];
        let mut seq_blocks = Vec::new();
        let mut queue = VecDeque::new();
        let mut in_queue = vec![false; design.blocks().len()];
        for (i, b) in design.blocks().iter().enumerate() {
            match b.kind {
                BlockKind::Comb => {
                    for slot in comb_sensitivity(&design, i as u32) {
                        sens.insert(slot, i as u32);
                    }
                    for &m in &b.mem_reads {
                        mem_sens[m.index()].push(i as u32);
                    }
                    queue.push_back(i as u32);
                    in_queue[i] = true;
                }
                BlockKind::Seq => seq_blocks.push(i as u32),
            }
        }
        let reg_slots = reg_slots(&design);
        let mems =
            design.mems().iter().map(|m| vec![Bits::zero(m.width); m.words as usize]).collect();
        o.simc += t0.elapsed();
        Self {
            design,
            store,
            sens,
            mem_sens,
            mems,
            pending: Vec::new(),
            natives,
            queue,
            in_queue,
            reg_slots,
            seq_blocks,
            changed: Vec::new(),
            cycles: 0,
            boxed,
            track_activity: false,
            activity: Vec::new(),
            prof: None,
        }
    }

    fn run_block(&mut self, b: u32) {
        let design = self.design.clone();
        let info = &design.blocks()[b as usize];
        let seq = info.kind == BlockKind::Seq;
        self.changed.clear();
        match &info.body {
            BlockBody::Ir(body) => exec_stmts(
                body.stmts(),
                &design,
                body.ids(),
                &mut self.store,
                &self.mems,
                &mut self.pending,
                &mut self.changed,
                seq,
                self.boxed,
            ),
            BlockBody::Native(..) => {
                let mut f = self.natives[b as usize].take().expect("native fn in use");
                {
                    let mut view = StoreView {
                        design: &design,
                        store: &mut self.store,
                        changed: &mut self.changed,
                        cycles: self.cycles,
                    };
                    f(&mut view);
                }
                self.natives[b as usize] = Some(f);
            }
        }
        let changed = std::mem::take(&mut self.changed);
        for &slot in &changed {
            self.wake_readers(slot);
        }
        self.changed = changed;
    }

    fn wake_readers(&mut self, slot: u32) {
        // The clone of the small reader list models the event objects an
        // interpreted simulator allocates; it is also what the borrow
        // checker requires here.
        let readers: Vec<u32> = self.sens.get(slot).to_vec();
        for rb in readers {
            self.enqueue(rb);
        }
    }

    fn enqueue(&mut self, b: u32) {
        if !self.in_queue[b as usize] {
            self.in_queue[b as usize] = true;
            self.queue.push_back(b);
        }
    }

    fn propagate(&mut self) {
        if self.prof.is_none() {
            while let Some(b) = self.queue.pop_front() {
                self.in_queue[b as usize] = false;
                self.run_block(b);
            }
            return;
        }
        let mut pops = 0u64;
        while let Some(b) = self.queue.pop_front() {
            self.in_queue[b as usize] = false;
            let depth = self.queue.len() as u64;
            let t0 = Instant::now();
            self.run_block(b);
            let dt = t0.elapsed().as_nanos() as u64;
            let p = self.prof.as_mut().expect("profiling enabled");
            p.queue_depth.record(depth);
            p.block_nanos[b as usize] += dt;
            pops += 1;
        }
        let p = self.prof.as_mut().expect("profiling enabled");
        p.settles += 1;
        p.fixpoint.record(pops);
    }

    fn run_block_timed(&mut self, b: u32) {
        let t0 = Instant::now();
        self.run_block(b);
        let dt = t0.elapsed().as_nanos() as u64;
        if let Some(p) = self.prof.as_mut() {
            p.block_nanos[b as usize] += dt;
        }
    }
}

impl<S: Store, M: SensMap> EngineImpl for InterpEngine<S, M> {
    fn poke(&mut self, slot: u32, v: Bits) {
        if self.store.set(slot, v) {
            self.store.set_next(slot, v);
            self.wake_readers(slot);
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        self.store.get(slot)
    }

    fn eval(&mut self) {
        self.propagate();
    }

    fn cycle(&mut self) {
        self.propagate();
        self.edge();
        self.propagate();
        self.cycles += 1;
    }

    fn edge(&mut self) {
        let seq = self.seq_blocks.clone();
        if self.prof.is_some() {
            for b in seq {
                self.run_block_timed(b);
            }
        } else {
            for b in seq {
                self.run_block(b);
            }
        }
        // Commit registers.
        let regs = std::mem::take(&mut self.reg_slots);
        for &slot in &regs {
            if self.track_activity {
                let delta = (self.store.get(slot).as_u128() ^ self.store.get_next(slot).as_u128())
                    .count_ones() as u64;
                self.activity[slot as usize] += delta;
            }
            if self.store.commit(slot) {
                self.wake_readers(slot);
            }
        }
        self.reg_slots = regs;
        // Commit memories.
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            let mut touched: Vec<u32> = Vec::new();
            for (mem, addr, v) in pending {
                self.mems[mem as usize][addr as usize] = v;
                if !touched.contains(&mem) {
                    touched.push(mem);
                }
            }
            for m in touched {
                let readers = self.mem_sens[m as usize].clone();
                for rb in readers {
                    self.enqueue(rb);
                }
            }
        }
    }

    fn exec_block(&mut self, _lane: u32, b: u32) {
        if self.prof.is_some() {
            self.run_block_timed(b);
        } else {
            self.run_block(b);
        }
    }

    fn force(&mut self, _lane: u32, slot: u32, v: Bits, also_next: bool) {
        self.store.set(slot, v);
        if also_next {
            self.store.set_next(slot, v);
        }
    }

    fn settle(&mut self, lanes: u64, full: bool) {
        if lanes & 1 == 0 {
            return;
        }
        if !full {
            return self.propagate();
        }
        let blocks = self.design.clone();
        for (i, b) in blocks.blocks().iter().enumerate() {
            if b.kind == BlockKind::Comb {
                self.enqueue(i as u32);
            }
        }
        self.propagate();
    }

    fn bump_cycles(&mut self) {
        self.cycles += 1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        self.mems[mem][addr as usize]
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.mems[mem][addr as usize] = v;
        let readers = self.mem_sens[mem].clone();
        for rb in readers {
            self.enqueue(rb);
        }
    }

    fn set_activity(&mut self, on: bool) {
        self.track_activity = on;
        if on && self.activity.is_empty() {
            self.activity = vec![0; self.design.nets().len()];
        }
    }

    fn activity(&self) -> &[u64] {
        &self.activity
    }

    fn set_profiling(&mut self, on: bool) {
        if on && self.prof.is_none() {
            self.prof = Some(EngineStats::new(self.design.blocks().len()));
        } else if !on {
            self.prof = None;
        }
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.prof.as_ref()
    }
}
