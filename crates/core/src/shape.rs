//! Block shapes: which IR blocks are one body wired to different state
//! and fed different literals (see [`Design::shapes`](crate::Design::shapes)).
//! What differs per block is its *operand lists*: the global net and memory
//! behind each local index of its shape, and its values at the shape's
//! parameters — the literal positions whose value differs among its
//! instances.

use std::ops::Range;

use mtl_bits::Bits;

use crate::design::{BlockBody, BlockInfo, BlockKind, IrBody, MemInfo, NetInfo, SignalInfo};
use crate::hash::FastMap;
use crate::ids::{BlockId, MemId, SignalId};
use crate::ir::{Expr, IdOffsets, Stmt};

/// One shape of IR block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeInfo {
    /// The shape's first block in block order: the instance the type
    /// checker checks and a compiler compiles.
    pub first: BlockId,
    /// How many distinct nets a block of this shape names: the length of
    /// the first of its operand lists.
    pub nets: u32,
    /// How many of its literals are parameters: positions whose value
    /// differs among the shape's instances.
    pub params: u32,
}

/// The shapes of a design's blocks, as [`crate::Design`] stores them.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Shapes {
    /// Shapes in order of first occurrence.
    pub(crate) info: Vec<ShapeInfo>,
    /// Per block, its shape ([`NONE`] for a native block).
    pub(crate) of: Vec<u32>,
    /// Per block `b`, its operands are `operands[at[b]..at[b + 1]]`: the
    /// shape's local nets, then its local memories.
    pub(crate) at: Vec<u32>,
    pub(crate) operands: Vec<u32>,
    /// Per shape `s`, its parameters are `params[param_at[s]..param_at[s +
    /// 1]]`: each one's literal position, the index of its `Expr::Const`
    /// among the block's in walk order.
    pub(crate) param_at: Vec<u32>,
    pub(crate) params: Vec<u32>,
    /// Per block `b`, its values at its shape's parameters are
    /// `values[value_at[b]..value_at[b + 1]]`.
    pub(crate) value_at: Vec<u32>,
    pub(crate) values: Vec<Bits>,
}

/// "No shape" in [`Shapes::of`].
pub(crate) const NONE: u32 = u32::MAX;

/// Assigns every block of a finalized design its shape and operand lists.
///
/// A stamped block (`sources[b]`: the built block it was stamped from;
/// [`NONE`], or no entry, for a block its `build` made) is not walked: its
/// source's walk says what it names — the source's signals shifted by the
/// stamp's id offsets, then through the net table — and its literals are
/// the source's. Only where the stamp's nets alias otherwise (two of the
/// source's distinct nets are one here, or a net is wider) is its IR
/// walked. Debug builds walk every stamp and check that the walk agrees.
pub(crate) fn assign(
    signals: &[SignalInfo],
    nets: &[NetInfo],
    mems: &[MemInfo],
    blocks: &[BlockInfo],
    sources: &[u32],
) -> Shapes {
    let mut walk = Walk {
        signals: signals.iter().map(|s| [s.net.index() as u32, s.width]).collect(),
        net_widths: nets.iter().map(|n| n.width).collect(),
        mems,
        key: Vec::new(),
        local: [vec![0; nets.len()], vec![0; mems.len()]],
        named: Default::default(),
        seen: vec![false; signals.len()],
        sigs: Vec::new(),
        literals: Vec::new(),
        ids: IdOffsets::default(),
    };
    let mut interned: FastMap<Box<[u64]>, u32> = FastMap::default();
    let mut shapes = Shapes {
        of: Vec::with_capacity(blocks.len()),
        at: Vec::with_capacity(blocks.len() + 1),
        ..Shapes::default()
    };
    shapes.at.push(0);
    // Per block, its literals are `literals[lit_at[b]..lit_at[b + 1]]`, and
    // the signals its walk named are `sigs[sig_at[b]..sig_at[b + 1]]`.
    let mut lit_at = Vec::with_capacity(blocks.len() + 1);
    lit_at.push(0);
    let mut sig_at = Vec::with_capacity(blocks.len() + 1);
    sig_at.push(0);
    for (b, block) in blocks.iter().enumerate() {
        let shape = match &block.body {
            BlockBody::Ir(body) => {
                let source = sources.get(b).copied().unwrap_or(NONE);
                // A source is a block its `build` made, naming its own ids,
                // so a stamp's offsets are the shift from its source.
                let stamped = source != NONE && {
                    let s = source as usize;
                    let shape = &shapes.info[shapes.of[s] as usize];
                    let operands =
                        &shapes.operands[shapes.at[s] as usize..shapes.at[s + 1] as usize];
                    let (nets, mems) = operands.split_at(shape.nets as usize);
                    walk.stamp(sig_at[s]..sig_at[s + 1], nets, mems, body.ids())
                };
                let shape = if stamped {
                    let s = source as usize;
                    walk.literals.extend_from_within(lit_at[s] as usize..lit_at[s + 1] as usize);
                    #[cfg(debug_assertions)]
                    walk.check(block.kind, body, lit_at[b] as usize, shapes.of[s], &interned);
                    shapes.of[s]
                } else {
                    walk.block(block.kind, body);
                    let next = shapes.info.len() as u32;
                    match interned.get(&walk.key[..]) {
                        Some(&shape) => shape,
                        None => {
                            interned.insert(walk.key[..].into(), next);
                            let nets = walk.named[0].len() as u32;
                            let first = BlockId::from_index(b);
                            shapes.info.push(ShapeInfo { first, nets, params: 0 });
                            next
                        }
                    }
                };
                for (table, named) in walk.local.iter_mut().zip(&mut walk.named) {
                    named.iter().for_each(|&g| table[g as usize] = 0);
                    shapes.operands.append(named);
                }
                shape
            }
            BlockBody::Native(..) => NONE,
        };
        shapes.of.push(shape);
        shapes.at.push(shapes.operands.len() as u32);
        lit_at.push(walk.literals.len() as u32);
        sig_at.push(walk.sigs.len() as u32);
    }
    parameters(&mut shapes, &walk.literals, &lit_at);
    shapes
}

/// Finds each shape's parameters — the literal positions at which some
/// instance's value differs from the first instance's — and records every
/// block's values there.
fn parameters(shapes: &mut Shapes, literals: &[Bits], lit_at: &[u32]) {
    let lits = |b: usize| &literals[lit_at[b] as usize..lit_at[b + 1] as usize];
    // Per shape, per literal position, whether it varies.
    let mut varies: Vec<Vec<bool>> =
        shapes.info.iter().map(|s| vec![false; lits(s.first.index()).len()]).collect();
    for (b, &shape) in shapes.of.iter().enumerate().filter(|(_, &s)| s != NONE) {
        let first = lits(shapes.info[shape as usize].first.index());
        for ((v, x), y) in varies[shape as usize].iter_mut().zip(lits(b)).zip(first) {
            *v |= x != y;
        }
    }
    shapes.param_at.push(0);
    for (info, varies) in shapes.info.iter_mut().zip(&varies) {
        let at = varies.iter().enumerate().filter(|(_, &v)| v).map(|(pos, _)| pos as u32);
        shapes.params.extend(at);
        info.params = shapes.params.len() as u32 - shapes.param_at.last().expect("seeded");
        shapes.param_at.push(shapes.params.len() as u32);
    }
    shapes.value_at.push(0);
    for (b, &shape) in shapes.of.iter().enumerate() {
        if shape != NONE {
            let s = shape as usize;
            let params =
                &shapes.params[shapes.param_at[s] as usize..shapes.param_at[s + 1] as usize];
            shapes.values.extend(params.iter().map(|&pos| lits(b)[pos as usize]));
        }
        shapes.value_at.push(shapes.values.len() as u32);
    }
}

/// Node tags of the interned key: the low byte of a node's first word.
#[derive(Clone, Copy)]
enum Tag {
    Assign,
    If,
    Switch,
    MemWrite,
    Read,
    Const,
    Slice,
    Concat,
    Unary,
    Binary,
    Mux,
    Select,
    Zext,
    Sext,
    Trunc,
    MemRead,
}

/// The walk over one block at a time: the key it writes and the operands
/// it names.
struct Walk<'a> {
    /// Per signal, its net and width; per net, its width: the two lookups
    /// of every signal occurrence, packed to stay in cache.
    signals: Vec<[u32; 2]>,
    net_widths: Vec<u32>,
    mems: &'a [MemInfo],
    /// The block's key: a prefix-free code of its kind and statements,
    /// one word per node and per list length, plus a node's unbounded
    /// immediates and a `Switch` arm's value. A literal (`Expr::Const`)
    /// is keyed on its width only; its value goes to `literals`.
    key: Vec<u64>,
    /// Per table (nets, memories), the local index + 1 of each global one
    /// the block has named (0: not yet); cleared after every block.
    local: [Vec<u32>; 2],
    /// Per table, the global index behind each local one.
    named: [Vec<u32>; 2],
    /// Per signal, whether the block at hand has named it.
    seen: Vec<bool>,
    /// Every walked block's distinct signals, each with its local net, in
    /// order of first occurrence.
    sigs: Vec<(u32, u32)>,
    /// Every block's literals so far, each block's in walk order.
    literals: Vec<Bits>,
    /// The block's offsets from the ids its statements name.
    ids: IdOffsets,
}

impl Walk<'_> {
    fn block(&mut self, kind: BlockKind, body: &IrBody) {
        self.key.clear();
        self.key.push(kind as u64);
        self.ids = body.ids();
        let start = self.sigs.len();
        self.stmts(body.stmts());
        self.sigs[start..].iter().for_each(|&(sig, _)| self.seen[sig as usize] = false);
    }

    /// Names a stamp's operands from its source's walk: `sigs`, the range
    /// of the source's signals in [`Walk::sigs`], and `nets` and `mems`, the
    /// source's operand lists, all shifted by `by`. Returns whether each
    /// signal lands on the local net it had in the source, of the same
    /// width — then a walk of the stamp would name exactly these operands
    /// and key exactly as the source's did; otherwise it names nothing.
    fn stamp(&mut self, sigs: Range<u32>, nets: &[u32], mems: &[u32], by: IdOffsets) -> bool {
        for k in sigs {
            let (sig, local) = self.sigs[k as usize];
            let [net, _] = self.signals[(sig + by.signals) as usize];
            let width = |net: u32| self.net_widths[net as usize];
            if width(net) != width(nets[local as usize]) || self.name(0, net) != local {
                self.forget();
                return false;
            }
        }
        for &m in mems {
            self.name(1, m + by.mems);
        }
        true
    }

    /// Un-names every operand the block at hand has named.
    fn forget(&mut self) {
        for (table, named) in self.local.iter_mut().zip(&mut self.named) {
            named.drain(..).for_each(|g| table[g as usize] = 0);
        }
    }

    /// Checks a stamp's derived operands, literals (from `lits` on) and
    /// shape against a walk of its IR, which replaces them.
    #[cfg(debug_assertions)]
    fn check(
        &mut self,
        kind: BlockKind,
        body: &IrBody,
        lits: usize,
        shape: u32,
        interned: &FastMap<Box<[u64]>, u32>,
    ) {
        let derived = (self.named.clone(), self.literals.split_off(lits));
        self.forget();
        self.block(kind, body);
        let walked = (&self.named, &self.literals[lits..]);
        assert!(
            walked == (&derived.0, &derived.1[..]),
            "a stamp names what its source's walk says"
        );
        assert_eq!(interned.get(&self.key[..]), Some(&shape), "a stamp has its source's shape");
    }

    /// The local index of global `g` in `table`.
    fn name(&mut self, table: usize, g: u32) -> u32 {
        let local = &mut self.local[table][g as usize];
        if *local == 0 {
            self.named[table].push(g);
            *local = self.named[table].len() as u32;
        }
        *local - 1
    }

    /// A node's first word: its tag and one 32-bit immediate.
    fn node(&mut self, tag: Tag, imm: u32) {
        self.key.push(tag as u64 | u64::from(imm) << 32);
    }

    /// A signal read or written: its local net, its own width and its
    /// net's (both at most 128, so a byte each).
    fn signal(&mut self, sig: SignalId) {
        let sig = self.ids.signal(sig).index();
        let [net, width] = self.signals[sig];
        let local = self.name(0, net);
        if !self.seen[sig] {
            self.seen[sig] = true;
            self.sigs.push((sig as u32, local));
        }
        let widths = u64::from(width) | u64::from(self.net_widths[net as usize]) << 8;
        self.key.push(Tag::Read as u64 | widths << 8 | u64::from(local) << 32);
    }

    fn mem(&mut self, mem: MemId) {
        let mem = self.ids.mem(mem);
        let local = self.name(1, mem.index() as u32);
        let info = &self.mems[mem.index()];
        self.key.extend([u64::from(info.width) | u64::from(local) << 32, info.words]);
    }

    /// A `Switch` arm's value: its width and value, the high word only
    /// when nonzero.
    fn bits(&mut self, v: Bits) {
        let (lo, hi) = (v.as_u128() as u64, (v.as_u128() >> 64) as u64);
        self.key.extend([u64::from(v.width()) | u64::from(hi != 0) << 32, lo]);
        if hi != 0 {
            self.key.push(hi);
        }
    }

    /// Statements and expressions, each node's tag before its operands;
    /// state in the order the tape code generator emits it (an assignment
    /// names its target after its value, a memory access its memory after
    /// its address and data).
    fn stmts(&mut self, stmts: &[Stmt]) {
        self.key.push(stmts.len() as u64);
        for s in stmts {
            match s {
                Stmt::Assign(lv, e) => {
                    self.node(Tag::Assign, lv.lo);
                    self.key.push(lv.hi.into());
                    self.expr(e);
                    self.signal(lv.signal);
                }
                Stmt::If { cond, then_, else_ } => {
                    self.node(Tag::If, 0);
                    self.expr(cond);
                    self.stmts(then_);
                    self.stmts(else_);
                }
                Stmt::Switch { subject, arms, default } => {
                    self.node(Tag::Switch, arms.len() as u32);
                    self.expr(subject);
                    for (k, body) in arms {
                        self.bits(*k);
                        self.stmts(body);
                    }
                    self.stmts(default);
                }
                Stmt::MemWrite { mem, addr, data } => {
                    self.node(Tag::MemWrite, 0);
                    self.expr(addr);
                    self.expr(data);
                    self.mem(*mem);
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Read(sig) => self.signal(*sig),
            Expr::Const(c) => {
                self.node(Tag::Const, c.width());
                self.literals.push(*c);
            }
            Expr::Slice { expr, lo, hi } => {
                self.node(Tag::Slice, *lo);
                self.key.push((*hi).into());
                self.expr(expr);
            }
            Expr::Concat(parts) => {
                self.node(Tag::Concat, parts.len() as u32);
                parts.iter().for_each(|p| self.expr(p));
            }
            Expr::Unary(op, a) => {
                self.node(Tag::Unary, *op as u32);
                self.expr(a);
            }
            Expr::Binary(op, a, b) => {
                self.node(Tag::Binary, *op as u32);
                self.expr(a);
                self.expr(b);
            }
            Expr::Mux { cond, then_, else_ } => {
                self.node(Tag::Mux, 0);
                self.expr(cond);
                self.expr(then_);
                self.expr(else_);
            }
            Expr::Select { sel, options } => {
                self.node(Tag::Select, options.len() as u32);
                self.expr(sel);
                options.iter().for_each(|o| self.expr(o));
            }
            Expr::Zext(a, w) => {
                self.node(Tag::Zext, *w);
                self.expr(a);
            }
            Expr::Sext(a, w) => {
                self.node(Tag::Sext, *w);
                self.expr(a);
            }
            Expr::Trunc(a, w) => {
                self.node(Tag::Trunc, *w);
                self.expr(a);
            }
            Expr::MemRead { mem, addr } => {
                self.node(Tag::MemRead, 0);
                self.expr(addr);
                self.mem(*mem);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{elaborate, elaborate_unchecked, BlockId, Component, Ctx, Design};

    /// `q = a + b; r = m[sel]` in one block, of every parameter a shape
    /// depends on.
    #[derive(Clone, Copy, Hash)]
    struct Cell {
        width: u32,
        words: u64,
        mem_width: u32,
        seq: bool,
    }

    const BASE: Cell = Cell { width: 8, words: 4, mem_width: 8, seq: false };

    impl Component for Cell {
        fn build(&self, c: &mut Ctx) {
            let (a, b) = (c.in_port("a", self.width), c.in_port("b", self.width));
            let sel = c.in_port("sel", 2);
            let q = c.out_port("q", self.width);
            let r = c.out_port("r", self.mem_width);
            let m = c.mem("m", self.words, self.mem_width);
            let body = |blk: &mut crate::BlockBuilder| {
                blk.assign(q, a + b);
                blk.assign(r, m.read(sel));
            };
            if self.seq {
                c.seq("calc", body);
            } else {
                c.comb("calc", body);
            }
        }
    }

    /// Cells side by side, `a` and `b` of each wired to the top inputs
    /// named (one name and width, one net).
    #[derive(Hash)]
    struct Cells(Vec<(Cell, [&'static str; 2])>);

    impl Component for Cells {
        fn build(&self, c: &mut Ctx) {
            let sel = c.in_port("sel", 2);
            let mut inputs = Vec::new();
            for (i, (cell, names)) in self.0.iter().enumerate() {
                let inst = c.instantiate(&format!("u{i}"), cell);
                c.connect(sel, c.port_of(&inst, "sel"));
                for (name, port) in names.iter().zip(["a", "b"]) {
                    let port = c.port_of(&inst, port);
                    let name = format!("{name}{}", port.width());
                    let known = inputs.iter().find(|(n, _)| *n == name).map(|&(_, s)| s);
                    let input = known.unwrap_or_else(|| {
                        let s = c.in_port(&name, port.width());
                        inputs.push((name, s));
                        s
                    });
                    c.connect(input, port);
                }
                for port in ["q", "r"] {
                    let out = c.port_of(&inst, port);
                    let top = c.out_port(&format!("{port}{i}"), out.width());
                    c.connect(out, top);
                }
            }
        }
    }

    /// Each cell's one block's shape index.
    fn shapes(design: &Design) -> Vec<usize> {
        let blocks = (0..design.blocks().len()).map(BlockId::from_index);
        blocks.map(|b| design.block_shape(b).expect("an IR block").index()).collect()
    }

    /// Instances of one component share a shape however they are wired;
    /// a signal width, two operands on one net, a memory's width, a
    /// memory's depth and the block kind each split it.
    #[test]
    fn a_shape_is_a_body_up_to_its_wiring() {
        let top = Cells(vec![
            (BASE, ["x", "y"]),
            (BASE, ["z", "w"]),
            (Cell { width: 16, ..BASE }, ["x", "y"]),
            (BASE, ["x", "x"]),
            (Cell { mem_width: 16, ..BASE }, ["x", "y"]),
            (Cell { words: 8, ..BASE }, ["x", "y"]),
            (Cell { seq: true, ..BASE }, ["x", "y"]),
            (BASE, ["y", "x"]),
        ]);
        let design = elaborate(&top).expect("cells elaborate");
        assert_eq!(shapes(&design), [0, 0, 1, 2, 3, 4, 5, 0]);
        let firsts: Vec<usize> = design.shapes().iter().map(|s| s.first.index()).collect();
        assert_eq!(firsts, [0, 2, 3, 4, 5, 6]);

        // Operands in emission order: `a`, `b`, then `q` (a target after
        // its value), `sel`, then `r`; the memory on its own list.
        for (block, inst) in [(0, "u0"), (7, "u7")] {
            let module = design.module(design.top()).children[block];
            let net = |port| design.net_of(design.find_port(module, port).unwrap()).index() as u32;
            let [nets, mems] = design.block_operands(BlockId::from_index(block));
            assert_eq!(nets, [net("a"), net("b"), net("q"), net("sel"), net("r")], "{inst}");
            assert_eq!(mems.len(), 1, "{inst}");
        }
        let [nets, _] = design.block_operands(BlockId::from_index(3));
        assert_eq!(nets.len(), 4, "`a` and `b` are one operand");
        assert_eq!(design.shapes()[0].nets, 5);
    }

    /// Every block walked: what deriving a stamp from its source must
    /// reproduce.
    fn walked(design: &Design) -> super::Shapes {
        super::assign(&design.signals, &design.nets, &design.mems, &design.blocks, &[])
    }

    /// A stamp's shape, operands and literals come from its source's walk
    /// where its nets alias as the source's do, and from a walk of its own
    /// where they do not: two inputs on one net, or (leniently) a net wider
    /// than the source's. Either way they are what walking every block
    /// finds.
    #[test]
    fn a_stamp_derives_what_a_walk_of_it_finds() {
        let top = Cells(vec![
            (BASE, ["x", "y"]),
            (BASE, ["z", "w"]),
            (BASE, ["x", "x"]),
            (BASE, ["y", "x"]),
        ]);
        let design = elaborate(&top).expect("cells elaborate");
        assert_eq!(shapes(&design), [0, 0, 1, 0]);
        assert_eq!(design.shapes, walked(&design));

        /// `u1`'s input `a` joins a 16-bit net under lenient elaboration.
        #[derive(Hash)]
        struct Widened;
        impl Component for Widened {
            fn build(&self, c: &mut Ctx) {
                let wide = c.in_port("wide", 16);
                for i in 0..3 {
                    let inst = c.instantiate(&format!("u{i}"), &BASE);
                    let q = c.out_port(&format!("q{i}"), 8);
                    c.connect(c.port_of(&inst, "q"), q);
                    if i == 1 {
                        c.connect(wide, c.port_of(&inst, "a"));
                    }
                }
            }
        }
        let design = elaborate_unchecked(&Widened);
        assert_eq!(shapes(&design), [0, 1, 0], "a wider net splits the shape");
        assert_eq!(design.shapes, walked(&design));
    }

    /// `q = (a + k0) ^ k1; r = k2 & a`: three literals, the middle one
    /// `width` bits wide.
    #[derive(Hash)]
    struct Lit {
        k: [u128; 3],
        width: u32,
    }

    impl Component for Lit {
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let (q, r) = (c.out_port("q", 8), c.out_port("r", 8));
            let [k0, k1, k2] = self.k;
            c.comb("calc", |b| {
                let k1 = crate::Expr::k(self.width, k1).trunc(8);
                b.assign(q, (a + crate::Expr::k(8, k0)) ^ k1);
                b.assign(r, crate::Expr::k(8, k2) & a);
            });
        }
    }

    /// Instances that differ only in a literal's value share one shape; the
    /// shape's parameters are exactly the literal positions that vary among
    /// them (in walk order: `k0`, `k1`, `k2`), and each block carries its
    /// own values there. A literal's width is keyed like any other width,
    /// and a shape whose instances agree has no parameter.
    #[test]
    fn instances_differing_in_a_literal_share_a_shape_with_that_literal_a_parameter() {
        #[derive(Hash)]
        struct Lits(Vec<Lit>);
        impl Component for Lits {
            fn build(&self, c: &mut Ctx) {
                let a = c.in_port("a", 8);
                for (i, lit) in self.0.iter().enumerate() {
                    let inst = c.instantiate(&format!("u{i}"), lit);
                    c.connect(a, c.port_of(&inst, "a"));
                    for port in ["q", "r"] {
                        let top = c.out_port(&format!("{port}{i}"), 8);
                        c.connect(c.port_of(&inst, port), top);
                    }
                }
            }
        }
        let lit = |k, width| Lit { k, width };
        let top = Lits(vec![
            lit([1, 7, 3], 16),
            lit([2, 7, 3], 16),
            lit([1, 7, 9], 16),
            lit([5, 6, 5], 12),
            lit([5, 6, 5], 12),
        ]);
        let design = elaborate(&top).expect("literal cells elaborate");
        assert_eq!(shapes(&design), [0, 0, 0, 1, 1], "a literal's width splits the shape");
        let params: Vec<&[u32]> =
            (0..2).map(|s| design.shape_params(crate::ShapeId::from_index(s))).collect();
        assert_eq!(params, [&[0, 2][..], &[]], "k0 and k2 vary in shape 0, nothing in shape 1");
        assert_eq!(design.shapes().iter().map(|s| s.params).collect::<Vec<_>>(), [2, 0]);
        let values = |b: usize| -> Vec<u128> {
            let params = design.block_params(BlockId::from_index(b));
            params.iter().map(|v| v.as_u128()).collect()
        };
        assert_eq!([values(0), values(1), values(2)], [[1, 3], [2, 3], [1, 9]]);
        assert!(values(3).is_empty() && values(4).is_empty());
    }

    /// Lenient elaboration assigns the same shapes, and assigns them to a
    /// design strict elaboration rejects.
    #[test]
    fn lenient_designs_carry_shapes() {
        let top = Cells(vec![(BASE, ["x", "y"]), (Cell { width: 16, ..BASE }, ["x", "y"])]);
        let strict = elaborate(&top).expect("cells elaborate");
        let lenient = elaborate_unchecked(&top);
        assert_eq!(lenient.shapes(), strict.shapes());
        assert_eq!(shapes(&lenient), shapes(&strict));

        #[derive(Hash)]
        struct TwoDrivers;
        impl Component for TwoDrivers {
            fn build(&self, c: &mut Ctx) {
                let (a, q) = (c.in_port("a", 8), c.out_port("q", 8));
                c.comb("one", |b| b.assign(q, a));
                c.comb("two", |b| b.assign(q, a));
            }
        }
        assert!(elaborate(&TwoDrivers).is_err());
        let design = elaborate_unchecked(&TwoDrivers);
        assert_eq!(shapes(&design), [0, 0]);
        assert_eq!(design.block_operands(BlockId::from_index(1))[0].len(), 2);
    }
}
