//! Deterministic random-RTL generation for differential fuzzing.
//!
//! The generator is *descriptor-based*: [`RtlDesc`] stores every generated
//! signal with its driving [`Expr`] over **symbolic** [`SignalId`]s that
//! index the descriptor's flat signal table (inputs, then wires, then
//! registers). [`RandomRtl::build`] remaps those symbolic ids to the real
//! elaborated ids. Keeping the description as plain data is what makes the
//! fuzzer's shrinker possible: it can drop or neutralize table entries and
//! re-build a smaller component, and the minimized descriptor can be
//! pretty-printed back to a standalone Rust reproducer ([`repro_snippet`]).
//!
//! Generated designs are **lint-clean by construction**: every wire and
//! register is driven by exactly one block, a final `fold` block reads
//! every signal into the single `out` port, and all structural widths
//! match (there are no structural connections at all).

use mtl_core::{BinOp, Bits, Component, Ctx, Expr, MemId, MemRef, SignalId, SignalRef, UnaryOp};

/// xorshift64* PRNG: tiny, deterministic, and identical across platforms.
/// The state must be non-zero.
pub(crate) struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn bits128(&mut self) -> u128 {
        self.next() as u128 | ((self.next() as u128) << 64)
    }
}

/// Shape knobs for [`RtlDesc::generate`]: how many of each signal class to
/// generate and how deep the random expression trees grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtlShape {
    /// Number of top-level input ports (`in0..`).
    pub inputs: usize,
    /// Number of combinational wires (`w0..`), not counting `mem_out`.
    pub wires: usize,
    /// Number of registers (`r0..`).
    pub regs: usize,
    /// Maximum random expression depth.
    pub depth: u32,
    /// Draw about a quarter of the signal widths from around the 64-bit
    /// machine word and the 128-bit maximum (63, 64, 65, 100, 128) instead
    /// of the small range. The tape engines run a tape on `u64` registers
    /// when every value provably fits and on `u128` otherwise; with this
    /// on (the default) generated designs keep landing on both sides of
    /// that boundary, and on it. Off reproduces the original small-width
    /// family, which the design registry's golden tables pin.
    pub word_edges: bool,
}

impl Default for RtlShape {
    fn default() -> Self {
        RtlShape { inputs: 3, wires: 10, regs: 5, depth: 2, word_edges: true }
    }
}

/// One generated signal: its leaf name, width, and symbolic driving
/// expression (`Expr::Read` ids index the descriptor's signal table).
#[derive(Debug, Clone, Hash)]
pub struct SigDef {
    /// Leaf name (`w3`, `r1`, `mem_out`).
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// Driving expression over symbolic table indices.
    pub expr: Expr,
}

/// A generated random RTL design as plain data.
///
/// Signal table index space: `inputs` occupy `[0, I)`, `wires` occupy
/// `[I, I + W)` (the memory read port `mem_out` is the last wire), and
/// `regs` occupy `[I + W, I + W + R)`. The design always carries an 8x16
/// memory `m` when `mem_write` is present.
#[derive(Debug, Clone, Hash)]
pub struct RtlDesc {
    /// The seed this descriptor was generated from (kept through shrinking
    /// so the reproducer can name its origin).
    pub seed: u64,
    /// Input ports: `(name, width)`.
    pub inputs: Vec<(String, u32)>,
    /// Combinational wires, each driven by its own comb block.
    pub wires: Vec<SigDef>,
    /// Registers, each driven by its own seq block with a reset-to-zero
    /// clause.
    pub regs: Vec<SigDef>,
    /// Synchronous memory write path: `(addr expr (3b), data expr (16b))`.
    pub mem_write: Option<(Expr, Expr)>,
    /// How many instances of the design the top holds. `1` (what
    /// [`RtlDesc::generate`] draws) is the design itself; above that the
    /// top is a shell that instantiates it as `u0..`, gives every
    /// instance its own input ports (`u0_in0`, …, see
    /// [`RtlDesc::top_inputs`]) and xor-folds the instances' `out`s — a
    /// design that is mostly replication, the way a mesh is mostly
    /// routers, so engines that treat instances of one block body
    /// specially meet arbitrary bodies. Like a router's coordinates, one
    /// literal differs per instance ([`RtlDesc::copy`]), so those bodies
    /// come with a parameter.
    pub copies: u32,
}

pub(crate) const MEM_WORDS: u64 = 8;
pub(crate) const MEM_WIDTH: u32 = 16;
const MEM_ADDR_BITS: u32 = 3;

/// Resize a symbolic read of table entry `idx` (width `from`) to `to` bits.
fn resize(e: Expr, from: u32, to: u32, signed: bool) -> Expr {
    if from == to {
        e
    } else if from < to {
        if signed {
            e.sext(to)
        } else {
            e.zext(to)
        }
    } else {
        e.trunc(to)
    }
}

/// Builds a random expression of `width` bits over the available table
/// entries `avail` (`(table index, width)` pairs).
///
/// The operator mix mirrors the long-standing engine-equivalence
/// generator: arithmetic, bitwise logic, comparisons feeding muxes,
/// concat/truncate reshaping, and shifts whose amounts are driven from
/// live expression values (so amounts routinely meet or exceed the data
/// width, exercising the saturating shift semantics on every engine).
fn random_expr(rng: &mut Rng, avail: &[(usize, u32)], width: u32, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        // Leaf: a resized signal read or a constant.
        if !avail.is_empty() && rng.below(4) != 0 {
            let (idx, w) = avail[rng.below(avail.len() as u64) as usize];
            let signed = rng.below(2) == 1;
            return resize(Expr::Read(SignalId::from_index(idx)), w, width, signed);
        }
        return Expr::k(width, rng.bits128());
    }
    let a = random_expr(rng, avail, width, depth - 1);
    let b = random_expr(rng, avail, width, depth - 1);
    let amt_w = width.min(8);
    match rng.below(13) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a & b,
        4 => a | b,
        5 => a ^ b,
        6 => a.eq(b).mux(
            random_expr(rng, avail, width, depth - 1),
            random_expr(rng, avail, width, depth - 1),
        ),
        7 => a.sll(Expr::k(3, rng.below(8) as u128)),
        8 => {
            if width > 1 {
                let cut = 1 + rng.below(width as u64 - 1) as u32;
                Expr::concat(vec![a.trunc(width - cut), b.trunc(cut)])
            } else {
                !a
            }
        }
        9 => a.sll(b.trunc(amt_w)),
        10 => a.srl(b.trunc(amt_w)),
        11 => a.sra(b.trunc(amt_w)),
        _ => a.clone().lt(b.clone()).mux(Expr::k(width, 1), b),
    }
}

impl RtlDesc {
    /// Instance `i` of a replicated design: the design itself, but with
    /// `i` added to its *copy literal* — the first literal (in walk order)
    /// of the first signal definition, wires before registers, that has
    /// one — within the literal's width. Instance 0 is the design as
    /// drawn; a design without a literal is every instance.
    pub fn copy(&self, i: u32) -> RtlDesc {
        let mut one = RtlDesc { copies: 1, ..self.clone() };
        if let Some(k) =
            one.wires.iter_mut().chain(&mut one.regs).find_map(|d| first_literal(&mut d.expr))
        {
            *k = copy_literal(*k, i);
        }
        one
    }

    /// Generates a descriptor deterministically from `seed` and `shape`.
    pub fn generate(seed: u64, shape: RtlShape) -> RtlDesc {
        let mut rng = Rng(seed.max(1));

        // Draw all widths first so expressions can reference any table
        // entry (in particular, wires may feed registers declared later).
        let mut width = |small: u64| {
            const WORD_EDGES: [u32; 5] = [63, 64, 65, 100, 128];
            if shape.word_edges && rng.below(4) == 0 {
                WORD_EDGES[rng.below(WORD_EDGES.len() as u64) as usize]
            } else {
                1 + rng.below(small) as u32
            }
        };
        let inputs: Vec<(String, u32)> =
            (0..shape.inputs).map(|i| (format!("in{i}"), width(32))).collect();
        let wire_widths: Vec<u32> = (0..shape.wires).map(|_| width(48)).collect();
        let reg_widths: Vec<u32> = (0..shape.regs).map(|_| width(32)).collect();

        let nin = inputs.len();
        let nwires = shape.wires + 1; // + mem_out
        let reg_base = nin + nwires;

        // (table index, width) of everything, for register expressions.
        let mut all: Vec<(usize, u32)> = Vec::new();
        for (i, (_, w)) in inputs.iter().enumerate() {
            all.push((i, *w));
        }
        for (i, &w) in wire_widths.iter().enumerate() {
            all.push((nin + i, w));
        }
        all.push((nin + shape.wires, MEM_WIDTH)); // mem_out
        for (i, &w) in reg_widths.iter().enumerate() {
            all.push((reg_base + i, w));
        }

        // Wires: wire `i` may read inputs, earlier wires, and any register
        // — never later wires, so the comb graph is acyclic by
        // construction (registers break the feedback path).
        let mut wires: Vec<SigDef> = Vec::new();
        for (i, &w) in wire_widths.iter().enumerate() {
            let mut avail: Vec<(usize, u32)> = all[..nin + i].to_vec();
            avail.extend(all[reg_base..].iter().copied());
            let expr = random_expr(&mut rng, &avail, w, shape.depth);
            wires.push(SigDef { name: format!("w{i}"), width: w, expr });
        }

        // The memory read port: an async read at a live address.
        let addr_avail: Vec<(usize, u32)> = all
            .iter()
            .copied()
            .filter(|&(idx, _)| idx != nin + shape.wires) // not mem_out itself
            .collect();
        let (ai, aw) = addr_avail[rng.below(addr_avail.len() as u64) as usize];
        let addr = resize(Expr::Read(SignalId::from_index(ai)), aw, MEM_ADDR_BITS, false);
        wires.push(SigDef {
            name: "mem_out".to_string(),
            width: MEM_WIDTH,
            expr: Expr::MemRead { mem: MemId::from_index(0), addr: Box::new(addr) },
        });

        // Registers: sequential, so they may read anything (including
        // themselves and later registers).
        let mut regs: Vec<SigDef> = Vec::new();
        for (i, &w) in reg_widths.iter().enumerate() {
            let expr = random_expr(&mut rng, &all, w, shape.depth);
            regs.push(SigDef { name: format!("r{i}"), width: w, expr });
        }

        // Memory write path: synchronous write at a live address/data pair.
        let (ai, aw) = all[rng.below(all.len() as u64) as usize];
        let (di, dw) = all[rng.below(all.len() as u64) as usize];
        let waddr = resize(Expr::Read(SignalId::from_index(ai)), aw, MEM_ADDR_BITS, false);
        let wdata = resize(Expr::Read(SignalId::from_index(di)), dw, MEM_WIDTH, false);

        RtlDesc { seed, inputs, wires, regs, mem_write: Some((waddr, wdata)), copies: 1 }
    }

    /// The top-level input ports a testbench drives, `(name, width)`: the
    /// design's own inputs, or every instance's when it is replicated.
    pub fn top_inputs(&self) -> Vec<(String, u32)> {
        if self.copies <= 1 {
            return self.inputs.clone();
        }
        let of = |i: u32| self.inputs.iter().map(move |(name, w)| (format!("u{i}_{name}"), *w));
        (0..self.copies).flat_map(of).collect()
    }

    /// Width of every table entry, in table order.
    pub fn table_widths(&self) -> Vec<u32> {
        self.inputs
            .iter()
            .map(|&(_, w)| w)
            .chain(self.wires.iter().map(|d| d.width))
            .chain(self.regs.iter().map(|d| d.width))
            .collect()
    }

    /// Name of every table entry, in table order.
    pub fn table_names(&self) -> Vec<String> {
        self.inputs
            .iter()
            .map(|(n, _)| n.clone())
            .chain(self.wires.iter().map(|d| d.name.clone()))
            .chain(self.regs.iter().map(|d| d.name.clone()))
            .collect()
    }

    /// Whether the descriptor still references a memory anywhere.
    pub fn uses_mem(&self) -> bool {
        if self.mem_write.is_some() {
            return true;
        }
        let mut mems = Vec::new();
        for d in self.wires.iter().chain(&self.regs) {
            d.expr.collect_mem_reads(&mut mems);
        }
        !mems.is_empty()
    }
}

/// The first literal of `e` in walk order (a node before its operands,
/// operands left to right).
fn first_literal(e: &mut Expr) -> Option<&mut Bits> {
    match e {
        Expr::Read(_) => None,
        Expr::Const(c) => Some(c),
        Expr::Slice { expr: a, .. }
        | Expr::Unary(_, a)
        | Expr::Zext(a, _)
        | Expr::Sext(a, _)
        | Expr::Trunc(a, _)
        | Expr::MemRead { addr: a, .. } => first_literal(a),
        Expr::Concat(parts) => parts.iter_mut().find_map(first_literal),
        Expr::Binary(_, a, b) => first_literal(a).or_else(|| first_literal(b)),
        Expr::Mux { cond, then_, else_ } => {
            first_literal(cond).or_else(|| first_literal(then_)).or_else(|| first_literal(else_))
        }
        Expr::Select { sel, options } => {
            first_literal(sel).or_else(|| options.iter_mut().find_map(first_literal))
        }
    }
}

/// The copy literal of instance `i`, the design's being `k`.
fn copy_literal(k: Bits, i: u32) -> Bits {
    Bits::new(k.width(), k.as_u128().wrapping_add(i.into()))
}

/// The low `width` bits.
fn mask(width: u32) -> u128 {
    u128::MAX >> (128 - width)
}

/// A random but well-formed RTL component, deterministic per seed.
///
/// `RandomRtl::new(seed)` generates the default shape (3 inputs, 10 wires
/// plus a memory read port, 5 registers, an 8x16 memory, and a final
/// xor-fold into a 32-bit `out` port) — the family of designs the
/// engine-equivalence suite uses. `from_desc` builds an
/// arbitrary (e.g. shrunk) descriptor.
#[derive(Hash)]
pub struct RandomRtl {
    desc: RtlDesc,
}

impl RandomRtl {
    /// Generates the default-shape design for `seed`.
    pub fn new(seed: u64) -> RandomRtl {
        RandomRtl { desc: RtlDesc::generate(seed, RtlShape::default()) }
    }

    /// Wraps an explicit descriptor (used by the fuzzer's shrinker).
    pub fn from_desc(desc: RtlDesc) -> RandomRtl {
        RandomRtl { desc }
    }

    /// The underlying descriptor.
    pub fn desc(&self) -> &RtlDesc {
        &self.desc
    }
}

/// Rewrites symbolic table indices in `e` to elaborated signal ids
/// (`table`) and the symbolic memory id to `mem`.
fn remap(e: &Expr, table: &[SignalRef], mem: Option<MemRef>) -> Expr {
    match e {
        Expr::Read(sig) => Expr::Read(table[sig.index()].id()),
        Expr::Const(c) => Expr::Const(*c),
        Expr::Slice { expr, lo, hi } => {
            Expr::Slice { expr: Box::new(remap(expr, table, mem)), lo: *lo, hi: *hi }
        }
        Expr::Concat(parts) => Expr::Concat(parts.iter().map(|p| remap(p, table, mem)).collect()),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(remap(a, table, mem))),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(remap(a, table, mem)), Box::new(remap(b, table, mem)))
        }
        Expr::Mux { cond, then_, else_ } => Expr::Mux {
            cond: Box::new(remap(cond, table, mem)),
            then_: Box::new(remap(then_, table, mem)),
            else_: Box::new(remap(else_, table, mem)),
        },
        Expr::Select { sel, options } => Expr::Select {
            sel: Box::new(remap(sel, table, mem)),
            options: options.iter().map(|o| remap(o, table, mem)).collect(),
        },
        Expr::Zext(a, w) => Expr::Zext(Box::new(remap(a, table, mem)), *w),
        Expr::Sext(a, w) => Expr::Sext(Box::new(remap(a, table, mem)), *w),
        Expr::Trunc(a, w) => Expr::Trunc(Box::new(remap(a, table, mem)), *w),
        Expr::MemRead { addr, .. } => Expr::MemRead {
            mem: mem.expect("descriptor reads a memory it does not declare").id(),
            addr: Box::new(remap(addr, table, mem)),
        },
    }
}

impl Component for RandomRtl {
    fn build(&self, c: &mut Ctx) {
        let d = &self.desc;
        if d.copies > 1 {
            let mut acc = Expr::k(32, 0);
            for i in 0..d.copies {
                let one = RandomRtl { desc: d.copy(i) };
                let inst = c.instantiate(&format!("u{i}"), &one);
                for (name, w) in &d.inputs {
                    let port = c.in_port(&format!("u{i}_{name}"), *w);
                    c.connect(port, c.port_of(&inst, name));
                }
                acc = acc ^ c.port_of(&inst, "out").ex();
            }
            let out = c.out_port("out", 32);
            c.comb("fold", |b| b.assign(out, acc));
            return;
        }
        let reset = c.reset();

        // Declare the whole signal table first so expressions can
        // reference any entry regardless of declaration order.
        let mut table: Vec<SignalRef> = Vec::new();
        for (name, w) in &d.inputs {
            table.push(c.in_port(name, *w));
        }
        let mem = if d.uses_mem() { Some(c.mem("m", MEM_WORDS, MEM_WIDTH)) } else { None };
        for def in d.wires.iter().chain(&d.regs) {
            table.push(c.wire(&def.name, def.width));
        }

        let nin = d.inputs.len();
        for (i, def) in d.wires.iter().enumerate() {
            let target = table[nin + i];
            let expr = remap(&def.expr, &table, mem);
            c.comb(&format!("comb_{}", def.name), |b| b.assign(target, expr));
        }
        for (i, def) in d.regs.iter().enumerate() {
            let target = table[nin + d.wires.len() + i];
            let expr = remap(&def.expr, &table, mem);
            let w = def.width;
            c.seq(&format!("seq_{}", def.name), |b| {
                b.if_else(
                    reset,
                    |b| b.assign(target, Expr::k(w, 0)),
                    |b| b.assign(target, expr.clone()),
                );
            });
        }
        if let Some((addr, data)) = &d.mem_write {
            let addr = remap(addr, &table, mem);
            let data = remap(data, &table, mem);
            c.seq("mem_seq", |b| {
                b.mem_write(mem.expect("mem_write implies a memory"), addr, data);
            });
        }

        // The fold guarantees every signal is read (no unread-output /
        // dead-logic lint) and gives the testbench one observation point.
        let out = c.out_port("out", 32);
        let taps: Vec<Expr> = table
            .iter()
            .map(|s| {
                if s.width() >= 32 {
                    s.ex().trunc(32)
                } else if s.width() < 32 {
                    s.ex().zext(32)
                } else {
                    s.ex()
                }
            })
            .collect();
        c.comb("fold", |b| {
            let mut acc = Expr::k(32, 0);
            for t in taps {
                acc = acc ^ t;
            }
            b.assign(out, acc);
        });
    }
}

/// Width inference for symbolic descriptor expressions, mirroring the IR
/// type checker's result widths. `widths` is the descriptor signal table.
pub(crate) fn expr_width(e: &Expr, widths: &[u32]) -> u32 {
    match e {
        Expr::Read(sig) => widths[sig.index()],
        Expr::Const(c) => c.width(),
        Expr::Slice { lo, hi, .. } => hi - lo,
        Expr::Concat(parts) => parts.iter().map(|p| expr_width(p, widths)).sum(),
        Expr::Unary(op, a) => match op {
            UnaryOp::Not | UnaryOp::Neg => expr_width(a, widths),
            UnaryOp::ReduceAnd | UnaryOp::ReduceOr | UnaryOp::ReduceXor => 1,
        },
        Expr::Binary(op, a, _) => match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::LtS | BinOp::GeS => 1,
            _ => expr_width(a, widths),
        },
        Expr::Mux { then_, .. } => expr_width(then_, widths),
        Expr::Select { options, .. } => expr_width(&options[0], widths),
        Expr::Zext(_, w) | Expr::Sext(_, w) | Expr::Trunc(_, w) => *w,
        Expr::MemRead { .. } => MEM_WIDTH,
    }
}

/// Renders a symbolic descriptor expression as Rust source using the
/// builder API (`names` maps table indices to `SignalRef` variable names).
/// `copy` counts down to the copy literal ([`RtlDesc::copy`]), if it is in
/// `e`: that one renders as the instance's own, `self.0`.
fn expr_rust(e: &Expr, names: &[String], copy: &mut Option<u32>) -> String {
    let mut rust = |e: &Expr| expr_rust(e, names, copy);
    match e {
        Expr::Read(sig) => format!("{}.ex()", names[sig.index()]),
        Expr::Const(c) => match copy {
            Some(0) => {
                *copy = None;
                format!("Expr::k({}, self.0)", c.width())
            }
            _ => {
                *copy = copy.map(|n| n - 1);
                format!("Expr::k({}, {:#x})", c.width(), c.as_u128())
            }
        },
        Expr::Slice { expr, lo, hi } => format!("{}.slice({lo}, {hi})", rust(expr)),
        Expr::Concat(parts) => {
            let inner: Vec<String> = parts.iter().map(&mut rust).collect();
            format!("Expr::concat(vec![{}])", inner.join(", "))
        }
        Expr::Unary(op, a) => {
            let a = rust(a);
            match op {
                UnaryOp::Not => format!("(!{a})"),
                UnaryOp::Neg => format!("(-{a})"),
                UnaryOp::ReduceAnd => format!("{a}.reduce_and()"),
                UnaryOp::ReduceOr => format!("{a}.reduce_or()"),
                UnaryOp::ReduceXor => format!("{a}.reduce_xor()"),
            }
        }
        Expr::Binary(op, a, b) => {
            let (a, b) = (rust(a), rust(b));
            match op {
                BinOp::Add => format!("({a} + {b})"),
                BinOp::Sub => format!("({a} - {b})"),
                BinOp::Mul => format!("({a} * {b})"),
                BinOp::And => format!("({a} & {b})"),
                BinOp::Or => format!("({a} | {b})"),
                BinOp::Xor => format!("({a} ^ {b})"),
                BinOp::Shl => format!("{a}.sll({b})"),
                BinOp::Shr => format!("{a}.srl({b})"),
                BinOp::Sra => format!("{a}.sra({b})"),
                BinOp::Eq => format!("{a}.eq({b})"),
                BinOp::Ne => format!("{a}.ne({b})"),
                BinOp::Lt => format!("{a}.lt({b})"),
                BinOp::Ge => format!("{a}.ge({b})"),
                BinOp::LtS => format!("{a}.lt_s({b})"),
                BinOp::GeS => format!("{a}.ge_s({b})"),
            }
        }
        Expr::Mux { cond, then_, else_ } => {
            format!("{}.mux({}, {})", rust(cond), rust(then_), rust(else_))
        }
        Expr::Select { sel, options } => {
            let sel = rust(sel);
            let inner: Vec<String> = options.iter().map(&mut rust).collect();
            format!("{sel}.select(vec![{}])", inner.join(", "))
        }
        Expr::Zext(a, w) => format!("{}.zext({w})", rust(a)),
        Expr::Sext(a, w) => format!("{}.sext({w})", rust(a)),
        Expr::Trunc(a, w) => format!("{}.trunc({w})", rust(a)),
        Expr::MemRead { addr, .. } => format!("m.read({})", rust(addr)),
    }
}

/// Renders a descriptor as a standalone Rust reproducer: a `Component`
/// impl plus a test that replays the fuzzer's stimulus (each cycle drives
/// every input with the next two draws of `Rng(seed ^ 0xABCD)`, packed
/// `lo | hi << 64`) across all engines. A replicated design's `Repro`
/// takes its copy literal ([`RtlDesc::copy`]) as a field, and the top
/// gives each instance its own.
pub fn repro_snippet(desc: &RtlDesc, note: &str) -> String {
    let names = desc.table_names();
    let defs = || desc.wires.iter().chain(&desc.regs);
    // The definition holding the copy literal, and the literal.
    let copy = defs()
        .enumerate()
        .find_map(|(i, d)| Some((i, *first_literal(&mut d.expr.clone())?)))
        .filter(|_| desc.copies > 1);
    let mut def = 0;
    let mut rust = |e: &Expr| {
        let mut countdown = copy.and_then(|(at, _)| (at == def).then_some(0));
        def += 1;
        expr_rust(e, &names, &mut countdown)
    };
    let mut s = String::new();
    s.push_str(&format!(
        "// Differential-fuzzer reproducer, minimized from RandomRtl_{} .\n// {}\n",
        desc.seed, note
    ));
    s.push_str("use rustmtl::core::{Component, Ctx, Expr};\n\n");
    let field = if copy.is_some() { "(u128)" } else { "" };
    s.push_str(&format!("#[derive(Hash)]\nstruct Repro{field};\n\nimpl Component for Repro {{\n"));
    s.push_str("    fn build(&self, c: &mut Ctx) {\n");
    if !desc.regs.is_empty() {
        s.push_str("        let reset = c.reset();\n");
    }
    for (name, w) in &desc.inputs {
        s.push_str(&format!("        let {name} = c.in_port(\"{name}\", {w});\n"));
    }
    if desc.uses_mem() {
        s.push_str(&format!("        let m = c.mem(\"m\", {MEM_WORDS}, {MEM_WIDTH});\n"));
    }
    for d in desc.wires.iter().chain(&desc.regs) {
        s.push_str(&format!("        let {} = c.wire(\"{}\", {});\n", d.name, d.name, d.width));
    }
    for d in &desc.wires {
        s.push_str(&format!(
            "        c.comb(\"comb_{}\", |b| b.assign({}, {}));\n",
            d.name,
            d.name,
            rust(&d.expr)
        ));
    }
    for d in &desc.regs {
        s.push_str(&format!(
            "        c.seq(\"seq_{}\", |b| {{\n            b.if_else(reset, |b| b.assign({}, \
             Expr::k({}, 0)), |b| b.assign({}, {}));\n        }});\n",
            d.name,
            d.name,
            d.width,
            d.name,
            rust(&d.expr)
        ));
    }
    if let Some((addr, data)) = &desc.mem_write {
        s.push_str(&format!(
            "        c.seq(\"mem_seq\", |b| b.mem_write(m, {}, {}));\n",
            expr_rust(addr, &names, &mut None),
            expr_rust(data, &names, &mut None)
        ));
    }
    s.push_str("        let out = c.out_port(\"out\", 32);\n");
    s.push_str("        c.comb(\"fold\", |b| {\n            let mut acc = Expr::k(32, 0);\n");
    for (i, name) in names.iter().enumerate() {
        let w = desc.table_widths()[i];
        let tap = if w >= 32 {
            format!("{name}.ex().trunc(32)")
        } else if w < 32 {
            format!("{name}.ex().zext(32)")
        } else {
            format!("{name}.ex()")
        };
        s.push_str(&format!("            acc = acc ^ {tap};\n"));
    }
    s.push_str("            b.assign(out, acc);\n        });\n    }\n}\n\n");
    if desc.copies > 1 {
        // Instance `i`'s copy literal: the design's plus `i`, in its width.
        let repro = match copy {
            Some((_, k)) => format!(
                "Repro({:#x}u128.wrapping_add(i as u128) & {:#x})",
                k.as_u128(),
                mask(k.width())
            ),
            None => "Repro".into(),
        };
        s.push_str(&format!(
            "// The design under test: {} instances of `Repro`, each with its own inputs\n\
             // and its own copy literal.\n\
             #[derive(Hash)]\nstruct ReproTop;\n\nimpl Component for ReproTop {{\n    \
             fn build(&self, c: &mut Ctx) {{\n        \
             let mut acc = Expr::k(32, 0);\n        \
             for i in 0..{} {{\n            \
             let inst = c.instantiate(&format!(\"u{{i}}\"), &{repro});\n",
            desc.copies, desc.copies
        ));
        for (name, w) in &desc.inputs {
            s.push_str(&format!(
                "            let port = c.in_port(&format!(\"u{{i}}_{name}\"), {w});\n            \
                 c.connect(port, c.port_of(&inst, \"{name}\"));\n"
            ));
        }
        s.push_str(
            "            acc = acc ^ c.port_of(&inst, \"out\").ex();\n        }\n        \
             let out = c.out_port(\"out\", 32);\n        \
             c.comb(\"fold\", |b| b.assign(out, acc));\n    }\n}\n\n",
        );
    }
    s.push_str(&format!(
        "// Stimulus: seed the xorshift64* rng with {:#x} ^ 0xABCD; each cycle, for\n\
         // each top-level input in declaration order, draw lo and hi u64s and poke\n\
         // Bits::new(width, lo as u128 | (hi as u128) << 64).\n",
        desc.seed
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = RtlDesc::generate(42, RtlShape::default());
        let b = RtlDesc::generate(42, RtlShape::default());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn default_designs_elaborate_strictly() {
        for seed in 1..=20 {
            mtl_core::elaborate(&RandomRtl::new(seed)).expect("generated design must elaborate");
        }
    }

    /// The instances of a replicated design differ in one literal: the
    /// first instance is the design as drawn, instance `i` adds `i` to its
    /// copy literal, so the literal's block is one shape with a parameter;
    /// and the reproducer renders it as the `Repro` field the top sets per
    /// instance.
    #[test]
    fn copies_differ_in_their_copy_literal_and_the_reproducer_renders_it() {
        let desc = RtlDesc { copies: 16, ..RtlDesc::generate(3, RtlShape::default()) };
        let copy_literal = |d: &RtlDesc| {
            let mut d = d.clone();
            d.wires.iter_mut().chain(&mut d.regs).find_map(|d| first_literal(&mut d.expr).copied())
        };
        let k = copy_literal(&desc).expect("seed 3 draws a literal");
        let one = |i| format!("{:?}", desc.copy(i));
        assert_eq!(one(0), format!("{:?}", RtlDesc { copies: 1, ..desc.clone() }));
        let k5 = copy_literal(&desc.copy(5)).expect("the copy keeps its literal");
        assert_eq!(k5, Bits::new(k.width(), k.as_u128() + 5));
        let mut five = desc.copy(5);
        let at = five.wires.iter_mut().chain(&mut five.regs);
        *at.filter_map(|d| first_literal(&mut d.expr)).next().expect("a literal") = k;
        assert_eq!(format!("{five:?}"), one(0), "only the copy literal differs");

        let design = mtl_core::elaborate(&RandomRtl::from_desc(desc.clone())).expect("elaborates");
        assert!(design.shapes().iter().any(|s| s.params > 0), "a parameterised shape");

        let snip = repro_snippet(&desc, "test");
        assert!(snip.contains("struct Repro(u128);"), "{snip}");
        assert_eq!(snip.matches("self.0").count(), 1, "{snip}");
        let each = format!("&Repro({:#x}u128.wrapping_add(i as u128)", k.as_u128());
        assert!(snip.contains(&each), "{snip}");
        let alone = repro_snippet(&RtlDesc { copies: 1, ..desc }, "test");
        assert!(alone.contains("struct Repro;") && !alone.contains("self.0"), "{alone}");
    }

    #[test]
    fn snippet_mentions_every_signal() {
        let desc = RtlDesc::generate(3, RtlShape::default());
        let snip = repro_snippet(&desc, "test");
        for name in desc.table_names() {
            assert!(snip.contains(&name), "snippet must declare `{name}`:\n{snip}");
        }
        assert!(snip.contains("c.mem(\"m\""));
    }
}
