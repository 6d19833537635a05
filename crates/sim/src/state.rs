//! The packed simulation state the tape engines execute against, and the
//! one set of operations on it.
//!
//! **Format.** Every net is one `u128` slot at a 16-byte stride, twice:
//! `cur` holds the settled value, `next` the shadow a sequential block
//! writes and the clock edge commits. Memories are columns of the same
//! words. Beside them live the tables that give the words meaning — net
//! and memory widths, the register slots — and the per-net toggle
//! counters. Nothing outside this module knows the representation; a
//! change of layout (per-partition banks, `u64` banks for fully narrow
//! designs, base-relative slots) or a checked mode is a change here.
//!
//! **Protocol.** The words are interior-mutable so that the workers a
//! [`crate::par`] pool gives a `specialized-par` simulator can share one
//! state. What keeps that free of data races is stated here once:
//!
//! * *within a gang* — the one step the workers run, each a contiguous
//!   share of the gang's lane blocks — a slot has at most one writer, and
//!   no reader other than its writer: the plan stage's `lanes_independent`
//!   proved exactly that of every lane of the gang, and bounded every
//!   table entry; memories are only read (stores are queued, and drained
//!   by the control thread);
//! * *between gangs* only the control thread touches state — the workers
//!   are parked at the barrier.
//!
//! Every mutation is a safe method of an [`Access`] handle, so the only
//! `unsafe` an engine ever writes is *obtaining* a handle through a shared
//! reference ([`PackedState::shared`]): the caller promises the protocol
//! for the handle's lifetime. [`PackedState::exclusive`] needs no promise —
//! a `&mut` has no other party — and is what the single-threaded engines
//! and the tests use. The readers ([`PackedState::peek`] and friends) take
//! `&self`: an exclusive handle cannot coexist with that borrow, and a
//! shared handle's creator has promised there is no foreign reader.

use std::cell::UnsafeCell;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use mtl_bits::Bits;
use mtl_core::{Design, NativeFn, SignalId, SignalView};

use crate::compile::{Gang, Layout, LANES};
use crate::tape::{
    as_u64s, exec_lanes, exec_tape_ptr_from, lane_regs, mask_of, Op, Reg, Tape, Word,
};

type Cell = UnsafeCell<u128>;

fn cells(n: usize) -> Box<[Cell]> {
    (0..n).map(|_| UnsafeCell::new(0)).collect()
}

/// The first word of a column, as the executor body addresses it.
fn base(column: &[Cell]) -> *mut u128 {
    // `UnsafeCell<u128>` has the layout of `u128`, so the stride matches.
    UnsafeCell::raw_get(column.as_ptr())
}

/// The memory columns, as the executor body reads them.
pub(crate) struct Mems(Vec<Box<[Cell]>>);

impl Mems {
    /// # Safety
    ///
    /// `mem`/`addr` must be in range (`validate` plus the per-op `% words`
    /// wrap), and the caller must hold an [`Access`]: memory stores are
    /// deferred to [`Access::drain`], so an in-step read races with nothing.
    #[inline(always)]
    pub(crate) unsafe fn read(&self, mem: usize, addr: usize) -> u128 {
        // SAFETY: the caller's contract.
        unsafe { *self.0.get_unchecked(mem).get_unchecked(addr).get() }
    }
}

/// See the module docs.
pub(crate) struct PackedState {
    cur: Box<[Cell]>,
    next: Box<[Cell]>,
    mems: Mems,
    widths: Vec<u32>,
    mem_widths: Vec<u32>,
    /// Register slots in ascending order: what [`Access::commit`] copies.
    reg_slots: Vec<u32>,
    /// Count register bit toggles at the commit.
    track_activity: AtomicBool,
    /// Bit-toggle count per net slot, allocated when first asked for. A
    /// slot's counter is written only by whoever commits the slot.
    activity: OnceLock<Box<[UnsafeCell<u64>]>>,
}

// SAFETY: the interior-mutable fields (`cur`, `next`, `mems`, `activity`)
// are only written through an `Access`, whose two sources keep the module
// docs' protocol — `exclusive` by borrowing, `shared` by its caller's
// promise. The tables are immutable after construction; `track_activity`
// is an atomic and `activity`'s allocation a `OnceLock`.
unsafe impl Sync for PackedState {}

impl PackedState {
    /// Zeroed state for `layout`, with one column of `mem_words[m]` words
    /// per memory.
    pub(crate) fn new(layout: &Layout, mem_words: impl Iterator<Item = u64>) -> PackedState {
        PackedState {
            cur: cells(layout.widths.len()),
            next: cells(layout.widths.len()),
            mems: Mems(mem_words.map(|words| cells(words as usize)).collect()),
            widths: layout.widths.clone(),
            mem_widths: layout.mem_widths.clone(),
            reg_slots: layout.reg_slots.clone(),
            track_activity: AtomicBool::new(false),
            activity: OnceLock::new(),
        }
    }

    /// A copy of every word — `cur`, `next` and the memories — over the
    /// same tables, toggle counting off and no counts: the state a batch
    /// lane starts from when it stops following lane 0.
    pub(crate) fn fork(&self) -> PackedState {
        let copy = |column: &[Cell]| column.iter().map(|c| UnsafeCell::new(self.load(c))).collect();
        PackedState {
            cur: copy(&self.cur),
            next: copy(&self.next),
            mems: Mems(self.mems.0.iter().map(|m| copy(m)).collect()),
            widths: self.widths.clone(),
            mem_widths: self.mem_widths.clone(),
            reg_slots: self.reg_slots.clone(),
            track_activity: AtomicBool::new(false),
            activity: OnceLock::new(),
        }
    }

    /// Whether every word of `self` — `cur`, `next` and the memories —
    /// equals `other`'s (two states of one layout).
    pub(crate) fn same_as(&self, other: &PackedState) -> bool {
        let same = |a: &[Cell], b: &[Cell]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| self.load(x) == other.load(y))
        };
        same(&self.cur, &other.cur)
            && same(&self.next, &other.next)
            && self.mems.0.iter().zip(&other.mems.0).all(|(a, b)| same(a, b))
    }

    /// A handle by exclusivity: nobody else can reach the state while it
    /// lives.
    pub(crate) fn exclusive(&mut self) -> Access<'_> {
        Access(self)
    }

    /// A handle through a shared reference.
    ///
    /// # Safety
    ///
    /// For the handle's lifetime the caller keeps the module docs'
    /// protocol: no slot or counter this handle writes is read or written
    /// through any other path, and none it reads is written through one.
    pub(crate) unsafe fn shared(&self) -> Access<'_> {
        Access(self)
    }

    #[inline(always)]
    fn load(&self, cell: &Cell) -> u128 {
        // SAFETY: a writer is an `Access`. An exclusive one cannot coexist
        // with this `&self`; a shared one's creator promised that nothing
        // it writes is read through another path.
        unsafe { *cell.get() }
    }

    pub(crate) fn nslots(&self) -> usize {
        self.widths.len()
    }

    pub(crate) fn peek(&self, slot: u32) -> Bits {
        Bits::new(self.widths[slot as usize], self.load(&self.cur[slot as usize]))
    }

    /// Every slot's settled value, masked to its width, into `out` (one
    /// entry per slot): [`PackedState::peek`] of them all in one pass.
    pub(crate) fn cur_values(&self, out: &mut [u128]) {
        for ((v, cell), &w) in out.iter_mut().zip(&*self.cur).zip(&self.widths) {
            *v = self.load(cell) & mask_of(w);
        }
    }

    /// Sets bit `lane` of `masks[slot]` for every slot whose raw `cur` word
    /// differs from `golden`'s; returns whether any did.
    pub(crate) fn mark_divergence(
        &self,
        golden: &PackedState,
        lane: u32,
        masks: &mut [u64],
    ) -> bool {
        let mut any = false;
        for ((mine, theirs), mask) in self.cur.iter().zip(&*golden.cur).zip(masks) {
            let differs = self.load(mine) != golden.load(theirs);
            *mask |= u64::from(differs) << lane;
            any |= differs;
        }
        any
    }

    pub(crate) fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        Bits::new(self.mem_widths[mem], self.load(&self.mems.0[mem][addr as usize]))
    }

    /// Turns register toggle counting on or off (the counts stay).
    pub(crate) fn set_activity(&self, on: bool) {
        if on {
            self.activity.get_or_init(|| (0..self.nslots()).map(|_| UnsafeCell::new(0)).collect());
        }
        self.track_activity.store(on, Ordering::Relaxed);
    }

    /// Toggle counts by net slot; empty until counting was first turned on.
    pub(crate) fn activity(&self) -> &[u64] {
        let counters = self.activity.get().map_or(&[][..], |a| &a[..]);
        // SAFETY: `UnsafeCell<u64>` has the layout of `u64`, and — as for
        // `load` — nothing writes a counter while this `&self` reads it.
        unsafe { std::slice::from_raw_parts(counters.as_ptr().cast::<u64>(), counters.len()) }
    }
}

/// The right to operate on a [`PackedState`] under its protocol; see the
/// module docs. Mutations take `&mut self`, so a handle is used from one
/// place at a time.
pub(crate) struct Access<'a>(&'a PackedState);

impl Deref for Access<'_> {
    type Target = PackedState;

    fn deref(&self) -> &PackedState {
        self.0
    }
}

impl Access<'_> {
    #[inline(always)]
    fn store(&mut self, cell: &Cell, v: u128) {
        // SAFETY: the handle's protocol — this handle is the cell's one
        // writer, and nothing else reads it meanwhile.
        unsafe { *cell.get() = v }
    }

    /// Executes `tape.ops[start..]` on `regs`, where `start` is 0 (scratch
    /// registers) or `tape.prelude` (registers that persist since
    /// [`crate::tape::exec_prelude`] installed the prelude). Memory stores
    /// are queued on `pending`. When `TRACK`, every `cur` slot whose value
    /// a store changed is pushed on `changed`.
    ///
    /// The tape must have passed `validate` against this state's
    /// dimensions — true of every tape `crate::compile` hands out, which
    /// is what makes the body's unchecked indexing sound.
    pub(crate) fn exec<const TRACK: bool>(
        &mut self,
        tape: &Tape,
        start: usize,
        regs: &mut [u128],
        pending: &mut Vec<(u32, u64, u128)>,
        changed: &mut Vec<u32>,
    ) {
        assert!(regs.len() >= tape.nregs as usize, "register file too small for the tape");
        assert!(start == 0 || start == tape.prelude as usize, "start splits the prelude");
        let (cur, next, mems) = (base(&self.0.cur), base(&self.0.next), &self.0.mems);
        // SAFETY: `validate` bounded every slot, memory and register index
        // and pinned the prelude (jump-free when nonzero), the asserts
        // above cover `regs` and `start`, and the handle's protocol covers
        // every slot the tape touches.
        unsafe {
            match &tape.narrow {
                Some(ops) => exec_tape_ptr_from::<TRACK, u64>(
                    ops,
                    start,
                    as_u64s(regs),
                    cur,
                    next,
                    mems,
                    pending,
                    changed,
                ),
                None => exec_tape_ptr_from::<TRACK, u128>(
                    &tape.ops, start, regs, cur, next, mems, pending, changed,
                ),
            }
        }
    }

    /// Executes a gang's body for its lane blocks `share`; see
    /// [`exec_lanes`]. `bank` is a register bank of the gang's
    /// (`tape_engine::gang_bank`), persistent since
    /// [`crate::tape::broadcast_prelude`] installed the body's prelude,
    /// viewed at the body's word class: `[u64; LANES]` registers for a
    /// `u64`-class body, `[u128; LANES]` for the rest. Each lane block
    /// first loads its members' parameter values over the prelude's.
    /// Memory stores are queued on `pending`.
    ///
    /// Nothing here is unchecked: a table entry out of range panics. What
    /// the plan stage's guard adds is that the entries are the ones the
    /// members' validated tapes name, and that the lanes are independent.
    pub(crate) fn exec_lanes(
        &mut self,
        body: &Tape,
        gang: &Gang,
        share: Range<usize>,
        bank: &mut [u128],
        pending: &mut Vec<(u32, u64, u128)>,
    ) {
        let pre = body.prelude as usize;
        match &body.narrow {
            Some(ops) => self.run_lanes(&ops[pre..], body, gang, share, lane_regs(bank), pending),
            None => {
                let regs = bank.as_chunks_mut().0;
                self.run_lanes(&body.ops[pre..], body, gang, share, regs, pending)
            }
        }
    }

    /// [`Access::exec_lanes`] at word `W`.
    fn run_lanes<W: Word>(
        &mut self,
        ops: &[Op<Reg, W>],
        body: &Tape,
        gang: &Gang,
        share: Range<usize>,
        regs: &mut [[W; LANES]],
        pending: &mut Vec<(u32, u64, u128)>,
    ) {
        for rows in gang.lane_blocks().skip(share.start).take(share.len()) {
            for (p, values) in body.params.iter().zip(rows.params.chunks_exact(LANES)) {
                regs[p.reg as usize] = std::array::from_fn(|l| W::from_u128(values[l]));
            }
            exec_lanes(ops, regs, rows.slots, rows.mems, self, pending);
        }
    }

    /// The word of `slot` in the `cur` column, or the `next` one.
    #[inline(always)]
    pub(crate) fn word(&self, next: bool, slot: u32) -> u128 {
        let column = if next { &self.0.next } else { &self.0.cur };
        self.0.load(&column[slot as usize])
    }

    /// Overwrites [`Access::word`].
    #[inline(always)]
    pub(crate) fn set_word(&mut self, next: bool, slot: u32, v: u128) {
        let state = self.0;
        let column = if next { &state.next } else { &state.cur };
        self.store(&column[slot as usize], v);
    }

    /// Word `addr` of memory `mem`.
    #[inline(always)]
    pub(crate) fn mem_word(&self, mem: u32, addr: u64) -> u128 {
        self.0.load(&self.0.mems.0[mem as usize][addr as usize])
    }

    /// The clock edge: copies every register's `next → cur`, counts the
    /// toggled bits when asked to, and reports each slot whose value
    /// changed to `on_change`. The store is unconditional on purpose: the
    /// static engine passes a no-op `on_change`, and a compare-and-branch
    /// per register that guards nothing but the store mispredicts on busy
    /// designs (≈12 % of `mesh64_cl_steady`; EXPERIMENTS.md, "One state
    /// home").
    pub(crate) fn commit(&mut self, mut on_change: impl FnMut(u32)) {
        let state = self.0;
        let tracked = state.track_activity.load(Ordering::Relaxed);
        let toggles = state.activity.get().filter(|_| tracked);
        for &slot in &state.reg_slots {
            let s = slot as usize;
            let (c, n) = (state.load(&state.cur[s]), state.load(&state.next[s]));
            self.store(&state.cur[s], n);
            if c != n {
                if let Some(toggles) = toggles {
                    // SAFETY: the handle's protocol, as in `store`: the
                    // register's committer is its counter's one writer.
                    unsafe { *toggles[s].get() += (c ^ n).count_ones() as u64 };
                }
                on_change(slot);
            }
        }
    }

    /// Applies the queued memory stores in order and empties the queue,
    /// reporting each run of stores to one memory to `on_mem`.
    pub(crate) fn drain(
        &mut self,
        queue: &mut Vec<(u32, u64, u128)>,
        mut on_mem: impl FnMut(usize),
    ) {
        let state = self.0;
        let mut last = usize::MAX;
        for (mem, addr, v) in queue.drain(..) {
            let mem = mem as usize;
            self.store(&state.mems.0[mem][addr as usize], v);
            if mem != last {
                on_mem(mem);
                last = mem;
            }
        }
    }

    /// Drives a slot (both copies); returns whether its value changed.
    pub(crate) fn poke(&mut self, slot: u32, v: Bits) -> bool {
        let (state, s, v) = (self.0, slot as usize, v.as_u128());
        let changed = state.load(&state.cur[s]) != v;
        if changed {
            self.store(&state.cur[s], v);
            self.store(&state.next[s], v);
        }
        changed
    }

    /// Overwrites a slot's settled value — and with `also_next` its shadow —
    /// telling nobody (fault injection).
    pub(crate) fn force(&mut self, slot: u32, v: Bits, also_next: bool) {
        let (state, s) = (self.0, slot as usize);
        self.store(&state.cur[s], v.as_u128());
        if also_next {
            self.store(&state.next[s], v.as_u128());
        }
    }

    pub(crate) fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        let state = self.0;
        let v = v.as_u128() & mask_of(state.mem_widths[mem]);
        self.store(&state.mems.0[mem][addr as usize], v);
    }

    /// Calls a native block over a [`SignalView`] of the state. Every
    /// combinational-style write that changed a slot is pushed on
    /// `changed`; what that means is the engine's business.
    pub(crate) fn call_native(
        &mut self,
        design: &Design,
        f: &mut NativeFn,
        changed: &mut Vec<u32>,
        cycles: u64,
    ) {
        let state = self.0;
        // SAFETY: the handle's protocol makes this the only live path to
        // the words for as long as `&mut self` is held, which outlives the
        // slices; `UnsafeCell<u128>` has the layout of `u128`.
        let (cur, next) = unsafe {
            (
                std::slice::from_raw_parts_mut(base(&state.cur), state.cur.len()),
                std::slice::from_raw_parts_mut(base(&state.next), state.next.len()),
            )
        };
        f(&mut PackedView { design, cur, next, widths: &state.widths, changed, cycles });
    }
}

/// The [`SignalView`] native blocks see over packed state.
struct PackedView<'a> {
    design: &'a Design,
    cur: &'a mut [u128],
    next: &'a mut [u128],
    widths: &'a [u32],
    changed: &'a mut Vec<u32>,
    cycles: u64,
}

impl SignalView for PackedView<'_> {
    fn read(&self, sig: SignalId) -> Bits {
        let slot = self.design.net_of(sig).index();
        Bits::new(self.widths[slot], self.cur[slot])
    }

    fn write(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index();
        debug_assert_eq!(self.widths[slot], value.width());
        let v = value.as_u128();
        if self.cur[slot] != v {
            self.cur[slot] = v;
            self.changed.push(slot as u32);
        }
    }

    fn write_next(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index();
        debug_assert_eq!(self.widths[slot], value.width());
        self.next[slot] = value.as_u128();
    }

    fn cycle(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
impl PackedState {
    /// State on plain data: a width per slot, `(width, words)` per memory.
    pub(crate) fn from_widths(widths: &[u32], mems: &[(u32, u64)], reg_slots: &[u32]) -> Self {
        let mem_widths: Vec<u32> = mems.iter().map(|m| m.0).collect();
        let layout = Layout::plain(widths, &mem_widths, reg_slots);
        PackedState::new(&layout, mems.iter().map(|m| m.1))
    }

    /// Overwrites the `cur` and `next` columns.
    pub(crate) fn fill(&mut self, cur: &[u128], next: &[u128]) {
        for (column, words) in [(&mut self.cur, cur), (&mut self.next, next)] {
            assert_eq!(column.len(), words.len());
            column.iter_mut().zip(words).for_each(|(cell, &v)| *cell.get_mut() = v);
        }
    }

    /// Every word: the `cur` column, the `next` column, each memory.
    pub(crate) fn dump(&mut self) -> (Vec<u128>, Vec<u128>, Vec<Vec<u128>>) {
        let copy = |column: &mut [Cell]| column.iter_mut().map(|cell| *cell.get_mut()).collect();
        let mems = self.mems.0.iter_mut().map(|m| copy(m)).collect();
        (copy(&mut self.cur), copy(&mut self.next), mems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{rnd128, Kind, Op};

    /// Registers 1, 2, 4, 5 and 7 of eight slots. Slots 0, 1, 3, 4 and 7
    /// have a shadow that differs (in eight bits): three registers change
    /// at the edge, two do not, and the non-registers must not move.
    fn edge_state() -> PackedState {
        let mut state = PackedState::from_widths(&[16; 8], &[], &[1, 2, 4, 5, 7]);
        let cur: Vec<u128> = (0..8).map(|s| 0x1000 + s).collect();
        let differs = |s: usize| [0, 1, 3, 4, 7].contains(&s);
        let next = (0..8).map(|s| if differs(s) { cur[s] ^ 0x0F0F } else { cur[s] });
        state.fill(&cur, &next.collect::<Vec<_>>());
        state.set_activity(true);
        state
    }

    /// The commit moves every register and nothing else, reports exactly
    /// the slots whose value changed and counts their toggled bits.
    #[test]
    fn the_commit_moves_reports_and_counts_the_registers_that_change() {
        let mut state = edge_state();
        let (before, ..) = state.dump();
        let mut reported = Vec::new();
        state.exclusive().commit(|slot| reported.push(slot));
        let toggles = state.activity().to_vec();
        let (cur, next, _) = state.dump();
        for s in 0..8 {
            let is_reg = [1, 2, 4, 5, 7].contains(&s);
            assert_eq!(cur[s], if is_reg { next[s] } else { before[s] }, "slot {s}");
            let changed = is_reg && before[s] != next[s];
            assert_eq!(reported.contains(&(s as u32)), changed, "slot {s} reported");
            assert_eq!(toggles[s], if changed { 8 } else { 0 }, "slot {s} toggles");
        }
        assert_eq!(reported, [1, 4, 7]);
    }

    /// Counting off: the commit still moves values, the counters stand.
    #[test]
    fn toggle_counts_stop_and_stay_when_counting_is_turned_off() {
        let mut state = edge_state();
        assert!(PackedState::from_widths(&[1], &[], &[]).activity().is_empty());
        state.set_activity(false);
        state.exclusive().commit(|_| {});
        assert_eq!(state.activity(), [0; 8]);
        let (cur, next, _) = state.dump();
        assert!([1, 2, 4, 5, 7].iter().all(|&s| cur[s] == next[s]));
    }

    /// A later store to a word wins, memory by memory, and `on_mem` hears
    /// of every memory that was stored to.
    #[test]
    fn drain_applies_stores_in_queue_order() {
        let mut state = PackedState::from_widths(&[], &[(8, 4), (8, 2)], &[]);
        let mut queue = vec![(0, 3, 1), (1, 0, 2), (0, 3, 5), (0, 1, 7), (1, 0, 9), (1, 1, 4)];
        let mut told = Vec::new();
        state.exclusive().drain(&mut queue, |mem| told.push(mem));
        assert!(queue.is_empty());
        assert_eq!(state.dump().2, vec![vec![0, 7, 0, 5], vec![9, 4]]);
        assert_eq!(told, [0, 1, 0, 1], "one call per run of stores to a memory");
        assert_eq!(state.peek_mem(0, 3), Bits::new(8, 5));
    }

    /// The backdoors, once: `poke` drives both copies and says whether the
    /// value moved, `force` tells nobody and leaves the shadow alone unless
    /// asked, `poke_mem` masks to the memory's width.
    #[test]
    fn backdoors_write_what_they_say() {
        let mut state = PackedState::from_widths(&[8, 8], &[(4, 2)], &[1]);
        let mut st = state.exclusive();
        assert!(st.poke(0, Bits::new(8, 0xAB)));
        assert!(!st.poke(0, Bits::new(8, 0xAB)));
        st.force(1, Bits::new(8, 0x11), false);
        assert_eq!((st.peek(0), st.peek(1)), (Bits::new(8, 0xAB), Bits::new(8, 0x11)));
        st.commit(|_| {});
        assert_eq!(st.peek(1), Bits::new(8, 0), "the shadow was not forced");
        st.force(1, Bits::new(8, 0x22), true);
        st.commit(|_| panic!("cur and next agree"));
        st.poke_mem(0, 1, Bits::new(4, 0xF));
        assert_eq!(state.dump(), (vec![0xAB, 0x22], vec![0xAB, 0x22], vec![vec![0, 0xF]]));
    }

    /// Every op kind, on narrow, word-sized and wide values, through a
    /// handle obtained either way: the executor sees the same columns, so
    /// the resulting words and queued stores are the same — and the
    /// tracked run reports exactly the `cur` slots that differ.
    #[test]
    fn exclusive_and_shared_handles_execute_every_kind_alike() {
        let mut seed = 3u64;
        for w in [1, 7, 64, 65, 128] {
            for &kind in Kind::ALL {
                let op = kind.sample(w, 8, &mut || rnd128(&mut seed));
                let mut ops: Vec<Op> =
                    (0..6).map(|i| Op::Read { dst: i, slot: i as u32 }).collect();
                ops.extend([op.clone(), Op::Write { slot: 6, src: op.def().unwrap_or(1) }]);
                // Up to 64 bits the tape runs the `u64` class (unless a
                // `ShlOr` result really is wider); the result slot shows
                // every bit its class can hold.
                let narrow = w <= 64 && !matches!(op, Op::ShlOr { shift, .. } if w + shift > 64);
                let mut widths = vec![w; 8];
                widths[6] = if narrow { 64 } else { 128 };
                let layout = Layout::plain(&widths, &[w], &[]);
                let tape = layout.finish_alone(&Tape { ops, nregs: 8, ..Tape::default() });
                assert_eq!(tape.narrow.is_some(), narrow, "{kind:?} w={w}: class of {op:?}");

                let words = |seed: &mut u64, width: u32| rnd128(seed) & mask_of(width);
                let cur: Vec<u128> = widths.iter().map(|&w| words(&mut seed, w)).collect();
                let next: Vec<u128> = widths.iter().map(|&w| words(&mut seed, w)).collect();
                let mem: Vec<u128> = (0..4).map(|_| words(&mut seed, w)).collect();
                let run = |shared: bool, track: bool| {
                    let mut state = PackedState::from_widths(&widths, &[(w, 4)], &[]);
                    state.fill(&cur, &next);
                    let (mut pending, mut changed) = (Vec::new(), Vec::new());
                    let mut regs = [0u128; 8];
                    // SAFETY: `state` is a local no other handle or thread
                    // can reach.
                    let mut st = if shared { unsafe { state.shared() } } else { state.exclusive() };
                    for (addr, &v) in mem.iter().enumerate() {
                        st.poke_mem(0, addr as u64, Bits::new(w, v));
                    }
                    if track {
                        st.exec::<true>(&tape, 0, &mut regs, &mut pending, &mut changed);
                    } else {
                        st.exec::<false>(&tape, 0, &mut regs, &mut pending, &mut changed);
                    }
                    (state.dump(), pending, changed)
                };
                let want = run(false, false);
                assert_eq!(run(true, false), want, "{kind:?} w={w}: {op:?}");
                assert!(want.2.is_empty(), "{kind:?} w={w}: untracked runs report nothing");
                let (dump, pending, mut changed) = run(true, true);
                assert_eq!((&dump, &pending), (&want.0, &want.1), "{kind:?} w={w}: tracked");
                changed.sort_unstable();
                let moved = (0..8).filter(|&s| dump.0[s] != cur[s]).map(|s| s as u32);
                assert_eq!(changed, moved.collect::<Vec<_>>(), "{kind:?} w={w}: {op:?}");
            }
        }
    }
}
