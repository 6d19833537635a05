//! The packed simulation state the tape engines execute against, and the
//! one set of operations on it.
//!
//! **Format.** Every net is one `u128` slot at a 16-byte stride, twice:
//! `cur` holds the settled value, `next` the shadow a sequential block
//! writes and the clock edge commits. Memories are columns of the same
//! words. The tables that give the words meaning — net and memory widths,
//! the register slots — are the artifact's [`Layout`], shared by every
//! state over it; beside the words live the per-net toggle counters.
//! Nothing outside this module knows the representation; a change of
//! layout (per-partition banks, `u64` banks for fully narrow designs,
//! base-relative slots) is a change here.
//!
//! **One owner, `&mut self`.** The columns are plain owned data. The
//! engine that holds a state is its one owner and runs it on its own
//! thread: every mutation is a `&mut self` method, every reader
//! ([`PackedState::peek`] and friends) a `&self` one, and the borrow
//! checker keeps the two apart. Both executors and a native block's
//! [`SignalView`] get the columns as disjoint `&mut` slices for the span
//! of one call.

use std::sync::Arc;

use mtl_bits::Bits;
use mtl_core::{Design, NativeFn, SignalId, SignalView};

use crate::compile::{Gang, Layout, LANES};
use crate::tape::{as_u64s, exec_lanes, exec_tape_from, lane_regs, mask_of, Op, Reg, Tape, Word};

/// See the module docs.
pub(crate) struct PackedState {
    cur: Box<[u128]>,
    next: Box<[u128]>,
    mems: Vec<Box<[u128]>>,
    /// The widths and the register slots ([`PackedState::commit`] copies
    /// those in ascending order).
    layout: Arc<Layout>,
    /// Count register bit toggles at the commit.
    track_activity: bool,
    /// Bit-toggle count per net slot; empty until counting was first
    /// turned on.
    activity: Vec<u64>,
}

impl PackedState {
    /// Zeroed state for `layout`, with one column of `mem_words[m]` words
    /// per memory.
    pub(crate) fn new(layout: &Arc<Layout>, mem_words: impl Iterator<Item = u64>) -> PackedState {
        let zeros = |n: usize| vec![0; n].into_boxed_slice();
        PackedState {
            cur: zeros(layout.widths.len()),
            next: zeros(layout.widths.len()),
            mems: mem_words.map(|words| zeros(words as usize)).collect(),
            layout: Arc::clone(layout),
            track_activity: false,
            activity: Vec::new(),
        }
    }

    /// A copy of every word — `cur`, `next` and the memories — over the
    /// same layout, toggle counting off and no counts: the state a batch
    /// lane starts from when it stops following lane 0.
    pub(crate) fn fork(&self) -> PackedState {
        PackedState {
            cur: self.cur.clone(),
            next: self.next.clone(),
            mems: self.mems.clone(),
            layout: Arc::clone(&self.layout),
            track_activity: false,
            activity: Vec::new(),
        }
    }

    /// Whether every word of `self` — `cur`, `next` and the memories —
    /// equals `other`'s (two states of one layout).
    pub(crate) fn same_as(&self, other: &PackedState) -> bool {
        self.cur == other.cur && self.next == other.next && self.mems == other.mems
    }

    pub(crate) fn nslots(&self) -> usize {
        self.cur.len()
    }

    pub(crate) fn peek(&self, slot: u32) -> Bits {
        Bits::new(self.layout.widths[slot as usize], self.cur[slot as usize])
    }

    /// Every slot's settled value, masked to its width, into `out` (one
    /// entry per slot): [`PackedState::peek`] of them all in one pass.
    pub(crate) fn cur_values(&self, out: &mut [u128]) {
        for ((v, &c), &w) in out.iter_mut().zip(&*self.cur).zip(&self.layout.widths) {
            *v = c & mask_of(w);
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
            let differs = mine != theirs;
            *mask |= u64::from(differs) << lane;
            any |= differs;
        }
        any
    }

    pub(crate) fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        Bits::new(self.layout.mem_widths[mem], self.mems[mem][addr as usize])
    }

    /// Turns register toggle counting on or off (the counts stay).
    pub(crate) fn set_activity(&mut self, on: bool) {
        if on && self.activity.is_empty() {
            self.activity = vec![0; self.nslots()];
        }
        self.track_activity = on;
    }

    /// Toggle counts by net slot; empty until counting was first turned on.
    pub(crate) fn activity(&self) -> &[u64] {
        &self.activity
    }

    /// Executes `tape.ops[start..]` on `regs`, where `start` is 0 (scratch
    /// registers) or `tape.prelude` (registers that persist since
    /// [`crate::tape::exec_prelude`] installed the prelude). Memory stores
    /// are queued on `pending`. When `TRACK`, every `cur` slot whose value
    /// a store changed is pushed on `changed`.
    ///
    /// The tape must have passed `validate` — true of every tape
    /// `crate::compile` hands out, which is what makes the body's
    /// unchecked register indexing sound. A slot or memory index out of
    /// this state's range panics.
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
        let (cur, next, mems) = (&mut self.cur[..], &mut self.next[..], &self.mems[..]);
        // SAFETY: `validate` bounded every register index and pinned the
        // prelude (jump-free when nonzero), and the asserts above cover
        // `regs` and `start`.
        unsafe {
            match &tape.narrow {
                Some(ops) => exec_tape_from::<TRACK, u64>(
                    ops,
                    start,
                    as_u64s(regs),
                    cur,
                    next,
                    mems,
                    pending,
                    changed,
                ),
                None => exec_tape_from::<TRACK, u128>(
                    &tape.ops, start, regs, cur, next, mems, pending, changed,
                ),
            }
        }
    }

    /// Executes a gang's body for each of its lane blocks in turn; see
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
        bank: &mut [u128],
        pending: &mut Vec<(u32, u64, u128)>,
    ) {
        let pre = body.prelude as usize;
        match &body.narrow {
            Some(ops) => self.run_lanes(&ops[pre..], body, gang, lane_regs(bank), pending),
            None => {
                let regs = bank.as_chunks_mut().0;
                self.run_lanes(&body.ops[pre..], body, gang, regs, pending)
            }
        }
    }

    /// [`PackedState::exec_lanes`] at word `W`.
    fn run_lanes<W: Word>(
        &mut self,
        ops: &[Op<Reg, W>],
        body: &Tape,
        gang: &Gang,
        regs: &mut [[W; LANES]],
        pending: &mut Vec<(u32, u64, u128)>,
    ) {
        for rows in gang.lane_blocks() {
            for (p, values) in body.params.iter().zip(rows.params.chunks_exact(LANES)) {
                regs[p.reg as usize] = std::array::from_fn(|l| W::from_u128(values[l]));
            }
            let (cur, next, memory) = (&mut self.cur[..], &mut self.next[..], &self.mems[..]);
            exec_lanes(ops, regs, rows.slots, rows.mems, cur, next, memory, pending);
        }
    }

    /// The clock edge: copies every register's `next → cur`, counts the
    /// toggled bits when asked to, and reports each slot whose value
    /// changed to `on_change`. The store is unconditional on purpose: the
    /// static engine passes a no-op `on_change`, and a compare-and-branch
    /// per register that guards nothing but the store mispredicts on busy
    /// designs (≈12 % of `mesh64_cl_steady`; EXPERIMENTS.md, "One state
    /// home").
    pub(crate) fn commit(&mut self, mut on_change: impl FnMut(u32)) {
        for &slot in &self.layout.reg_slots {
            let s = slot as usize;
            let (c, n) = (self.cur[s], self.next[s]);
            self.cur[s] = n;
            if c != n {
                if self.track_activity {
                    self.activity[s] += (c ^ n).count_ones() as u64;
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
        let mut last = usize::MAX;
        for (mem, addr, v) in queue.drain(..) {
            let mem = mem as usize;
            self.mems[mem][addr as usize] = v;
            if mem != last {
                on_mem(mem);
                last = mem;
            }
        }
    }

    /// Drives a slot (both copies); returns whether its value changed.
    pub(crate) fn poke(&mut self, slot: u32, v: Bits) -> bool {
        let (s, v) = (slot as usize, v.as_u128());
        let changed = self.cur[s] != v;
        if changed {
            self.cur[s] = v;
            self.next[s] = v;
        }
        changed
    }

    /// Overwrites a slot's settled value — and with `also_next` its shadow —
    /// telling nobody (fault injection).
    pub(crate) fn force(&mut self, slot: u32, v: Bits, also_next: bool) {
        let s = slot as usize;
        self.cur[s] = v.as_u128();
        if also_next {
            self.next[s] = v.as_u128();
        }
    }

    pub(crate) fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.mems[mem][addr as usize] = v.as_u128() & mask_of(self.layout.mem_widths[mem]);
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
        let PackedState { cur, next, layout, .. } = self;
        f(&mut PackedView { design, cur, next, widths: &layout.widths, changed, cycles });
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
        let layout = Arc::new(Layout::plain(widths, &mem_widths, reg_slots));
        PackedState::new(&layout, mems.iter().map(|m| m.1))
    }

    /// Overwrites the `cur` and `next` columns.
    pub(crate) fn fill(&mut self, cur: &[u128], next: &[u128]) {
        self.cur.copy_from_slice(cur);
        self.next.copy_from_slice(next);
    }

    /// Every word: the `cur` column, the `next` column, each memory.
    pub(crate) fn dump(&self) -> (Vec<u128>, Vec<u128>, Vec<Vec<u128>>) {
        let mems = self.mems.iter().map(|m| m.to_vec()).collect();
        (self.cur.to_vec(), self.next.to_vec(), mems)
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
        state.commit(|slot| reported.push(slot));
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
        state.commit(|_| {});
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
        state.drain(&mut queue, |mem| told.push(mem));
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
        assert!(state.poke(0, Bits::new(8, 0xAB)));
        assert!(!state.poke(0, Bits::new(8, 0xAB)));
        state.force(1, Bits::new(8, 0x11), false);
        assert_eq!((state.peek(0), state.peek(1)), (Bits::new(8, 0xAB), Bits::new(8, 0x11)));
        state.commit(|_| {});
        assert_eq!(state.peek(1), Bits::new(8, 0), "the shadow was not forced");
        state.force(1, Bits::new(8, 0x22), true);
        state.commit(|_| panic!("cur and next agree"));
        state.poke_mem(0, 1, Bits::new(4, 0xF));
        assert_eq!(state.dump(), (vec![0xAB, 0x22], vec![0xAB, 0x22], vec![vec![0, 0xF]]));
    }

    /// The rejoin rule the batch engine's divergence masks rest on: a fork
    /// is `same_as` its source; a difference in one `next` word or one
    /// memory word breaks `same_as` but marks no slot; a difference in one
    /// `cur` word marks exactly that slot, at exactly the lane's bit.
    #[test]
    fn forks_compare_every_word_and_mark_only_cur_words() {
        let (cur, next) = ([1, 2, 3, 4], [5, 6, 7, 8]);
        let mut golden = PackedState::from_widths(&[8; 4], &[(8, 2)], &[1, 3]);
        golden.fill(&cur, &next);
        golden.poke_mem(0, 1, Bits::new(8, 9));
        let fork = golden.fork();
        assert!(fork.same_as(&golden) && golden.same_as(&fork), "a fork is its source");
        // Lane 2's bit is already set on slot 0: marking only ORs.
        let marks = |state: &PackedState| {
            let mut masks = [0b100, 0, 0, 0];
            let any = state.mark_divergence(&golden, 5, &mut masks);
            (any, masks)
        };
        assert_eq!(marks(&fork), (false, [0b100, 0, 0, 0]));

        let mut moved_next = golden.fork();
        moved_next.fill(&cur, &[5, 6, 7 ^ 0x10, 8]);
        let mut moved_mem = golden.fork();
        moved_mem.poke_mem(0, 0, Bits::new(8, 3));
        for (what, state) in [("next", &moved_next), ("memory", &moved_mem)] {
            assert!(!state.same_as(&golden), "one {what} word differs");
            assert_eq!(marks(state), (false, [0b100, 0, 0, 0]), "one {what} word marks nothing");
        }

        let mut moved_cur = golden.fork();
        moved_cur.fill(&[1, 2, 3 ^ 0x80, 4], &next);
        assert!(!moved_cur.same_as(&golden), "one cur word differs");
        assert_eq!(marks(&moved_cur), (true, [0b100, 0, 1 << 5, 0]), "slot 2, lane 5");
    }

    /// Every op kind, on narrow, word-sized and wide values, tracked and
    /// untracked: the resulting words and queued stores are the same, the
    /// untracked run reports nothing, and the tracked run reports exactly
    /// the `cur` slots that differ.
    #[test]
    fn tracked_and_untracked_runs_execute_every_kind_alike() {
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
                let run = |track: bool| {
                    let mut state = PackedState::from_widths(&widths, &[(w, 4)], &[]);
                    state.fill(&cur, &next);
                    let (mut pending, mut changed) = (Vec::new(), Vec::new());
                    let mut regs = [0u128; 8];
                    for (addr, &v) in mem.iter().enumerate() {
                        state.poke_mem(0, addr as u64, Bits::new(w, v));
                    }
                    if track {
                        state.exec::<true>(&tape, 0, &mut regs, &mut pending, &mut changed);
                    } else {
                        state.exec::<false>(&tape, 0, &mut regs, &mut pending, &mut changed);
                    }
                    (state.dump(), pending, changed)
                };
                let want = run(false);
                assert!(want.2.is_empty(), "{kind:?} w={w}: untracked runs report nothing");
                let (dump, pending, mut changed) = run(true);
                assert_eq!((&dump, &pending), (&want.0, &want.1), "{kind:?} w={w}: tracked");
                changed.sort_unstable();
                let moved = (0..8).filter(|&s| dump.0[s] != cur[s]).map(|s| s as u32);
                assert_eq!(changed, moved.collect::<Vec<_>>(), "{kind:?} w={w}: {op:?}");
            }
        }
    }
}
