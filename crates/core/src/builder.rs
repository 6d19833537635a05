//! The elaboration-time builder API used inside `Component::build`.
//!
//! [`Ctx`] is the analog of PyMTL's `Model.__init__` environment: it declares
//! ports, wires, memories, submodule instances, connections, and update
//! blocks. Arbitrary Rust can run during `build`, which is the paper's
//! "powerful elaboration" property — loops, parameters, and helper functions
//! all work, and purely structural components remain fully translatable.

use mtl_bits::Bits;

use crate::component::{Component, Key};
use crate::design::{
    BlockBody, BlockInfo, BlockKind, IrBody, MemInfo, ModuleInfo, NativeFn, NativeLevel,
    SignalInfo, SignalKind,
};
use crate::hash::FastMap;
use crate::ids::{MemId, ModuleId, NetId, SignalId};
use crate::ir::{Expr, IdOffsets, LValue, Stmt};
use crate::shape::NONE;
use crate::view::SignalView;

/// A handle to a declared signal, carrying its width for convenient
/// expression building.
///
/// `SignalRef` supports the same operator sugar as [`Expr`], so model code
/// can write `b.assign(out, a + b_in)` directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalRef {
    pub(crate) id: SignalId,
    pub(crate) width: u32,
}

impl SignalRef {
    /// The underlying signal id.
    pub fn id(self) -> SignalId {
        self.id
    }

    /// The declared bit width.
    pub fn width(self) -> u32 {
        self.width
    }

    /// This signal as an IR expression.
    pub fn ex(self) -> Expr {
        Expr::Read(self.id)
    }

    /// Equality comparison (1-bit result).
    pub fn eq(self, rhs: impl Into<Expr>) -> Expr {
        self.ex().eq(rhs)
    }

    /// Inequality comparison (1-bit result).
    pub fn ne(self, rhs: impl Into<Expr>) -> Expr {
        self.ex().ne(rhs)
    }

    /// Unsigned less-than (1-bit result).
    pub fn lt(self, rhs: impl Into<Expr>) -> Expr {
        self.ex().lt(rhs)
    }

    /// Unsigned greater-or-equal (1-bit result).
    pub fn ge(self, rhs: impl Into<Expr>) -> Expr {
        self.ex().ge(rhs)
    }

    /// Signed less-than (1-bit result).
    pub fn lt_s(self, rhs: impl Into<Expr>) -> Expr {
        self.ex().lt_s(rhs)
    }

    /// Bit slice `[lo, hi)`.
    pub fn slice(self, lo: u32, hi: u32) -> Expr {
        self.ex().slice(lo, hi)
    }

    /// A single bit as a 1-bit expression.
    pub fn bit(self, idx: u32) -> Expr {
        self.ex().bit(idx)
    }

    /// Zero extension.
    pub fn zext(self, width: u32) -> Expr {
        self.ex().zext(width)
    }

    /// Sign extension.
    pub fn sext(self, width: u32) -> Expr {
        self.ex().sext(width)
    }

    /// Truncation.
    pub fn trunc(self, width: u32) -> Expr {
        self.ex().trunc(width)
    }

    /// Ternary mux with this 1-bit signal as the condition.
    pub fn mux(self, then_: impl Into<Expr>, else_: impl Into<Expr>) -> Expr {
        self.ex().mux(then_, else_)
    }

    /// N-way selection with this signal as the select.
    pub fn select(self, options: Vec<Expr>) -> Expr {
        self.ex().select(options)
    }

    /// Logical shift left.
    pub fn sll(self, amount: impl Into<Expr>) -> Expr {
        self.ex().sll(amount)
    }

    /// Logical shift right.
    pub fn srl(self, amount: impl Into<Expr>) -> Expr {
        self.ex().srl(amount)
    }
}

impl From<SignalRef> for Expr {
    fn from(s: SignalRef) -> Expr {
        Expr::Read(s.id)
    }
}

macro_rules! sigref_binop {
    ($trait_:ident, $method:ident) => {
        impl<R: Into<Expr>> std::ops::$trait_<R> for SignalRef {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                std::ops::$trait_::$method(self.ex(), rhs)
            }
        }
    };
}

sigref_binop!(Add, add);
sigref_binop!(Sub, sub);
sigref_binop!(Mul, mul);
sigref_binop!(BitAnd, bitand);
sigref_binop!(BitOr, bitor);
sigref_binop!(BitXor, bitxor);

impl std::ops::Not for SignalRef {
    type Output = Expr;
    fn not(self) -> Expr {
        !self.ex()
    }
}

/// A handle to a declared memory array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    pub(crate) id: MemId,
    width: u32,
    words: u64,
}

impl MemRef {
    /// The underlying memory id.
    pub fn id(self) -> MemId {
        self.id
    }

    /// The word width.
    pub fn width(self) -> u32 {
        self.width
    }

    /// The number of words.
    pub fn words(self) -> u64 {
        self.words
    }

    /// An asynchronous read expression `mem[addr]`.
    pub fn read(self, addr: impl Into<Expr>) -> Expr {
        Expr::MemRead { mem: self.id, addr: Box::new(addr.into()) }
    }
}

/// A handle to an instantiated child component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    pub(crate) module: ModuleId,
}

impl Instance {
    /// The child's module id.
    pub fn module(self) -> ModuleId {
        self.module
    }
}

#[derive(Default)]
pub(crate) struct Proto {
    pub modules: Vec<ModuleInfo>,
    pub signals: Vec<SignalInfo>,
    pub blocks: Vec<BlockInfo>,
    /// Native closures parallel to `blocks` (None for IR blocks).
    pub natives: Vec<Option<NativeFn>>,
    /// Per block, the built block it was stamped from, directly or through
    /// a stamp of a stamp (`shape::NONE` for a block its `build` made).
    pub sources: Vec<u32>,
    pub mems: Vec<MemInfo>,
    pub connections: Vec<(SignalId, SignalId)>,
    /// Constant connections: each signal tied and its value.
    pub ties: Vec<(SignalId, u128)>,
    /// Per key instantiated so far, its ordinal ([`ModuleInfo::key`]) and
    /// what its first build appended to each table, if later instances can
    /// be stamped from it.
    pub firsts: FastMap<Key, (u32, Option<Span>)>,
}

/// Where a subtree's build starts and ends in each of the proto's tables:
/// modules, signals, blocks, memories, connections, ties.
#[derive(Clone, Copy)]
pub(crate) struct Span {
    start: [usize; 6],
    end: [usize; 6],
}

impl Proto {
    /// The length of each table, in [`Span`] order.
    fn marks(&self) -> [usize; 6] {
        let Proto { modules, signals, blocks, mems, connections, ties, .. } = self;
        [modules.len(), signals.len(), blocks.len(), mems.len(), connections.len(), ties.len()]
    }

    /// Whether a first build can be stamped: it has no native block, and
    /// every id its blocks, connections and ties name is its own.
    fn stampable(&self, span: Span) -> bool {
        let own = |t: usize, i: usize| (span.start[t]..span.end[t]).contains(&i);
        let own_signals = |ids: &[SignalId]| ids.iter().all(|s| own(1, s.index()));
        let own_mems = |ids: &[MemId]| ids.iter().all(|m| own(3, m.index()));
        let blocks = span.start[2]..span.end[2];
        self.natives[blocks.clone()].iter().all(Option::is_none)
            && self.blocks[blocks].iter().all(|b| {
                own_signals(&b.reads)
                    && own_signals(&b.writes)
                    && own_mems(&b.mem_reads)
                    && own_mems(&b.mem_writes)
            })
            && self.connections[span.start[4]..span.end[4]]
                .iter()
                .all(|&(a, b)| own(1, a.index()) && own(1, b.index()))
            && self.ties[span.start[5]..span.end[5]].iter().all(|&(s, _)| own(1, s.index()))
    }

    /// Appends a copy of the subtree `first` spans, every id shifted by
    /// where the copy starts, its root named `name` under `parent`.
    fn stamp(&mut self, first: Span, name: &str, parent: ModuleId) {
        let at = self.marks();
        let by = |t: usize| (at[t] - first.start[t]) as u32;
        let module = |m: ModuleId| ModuleId(m.0 + by(0));
        let ids = IdOffsets { signals: by(1), mems: by(3) };
        let signals = |v: &[SignalId]| v.iter().map(|&s| ids.signal(s)).collect();
        let mems = |v: &[MemId]| v.iter().map(|&m| ids.mem(m)).collect();
        let root = first.start[0];
        for i in first.start[0]..first.end[0] {
            let m = &self.modules[i];
            let stamped = ModuleInfo {
                name: if i == root { name.to_string() } else { m.name.clone() },
                component: m.component.clone(),
                key: m.key,
                parent: if i == root { Some(parent) } else { m.parent.map(module) },
                children: m.children.iter().map(|&c| module(c)).collect(),
                ports: signals(&m.ports),
            };
            self.modules.push(stamped);
        }
        for i in first.start[1]..first.end[1] {
            let s = &self.signals[i];
            let stamped = SignalInfo { name: s.name.clone(), module: module(s.module), ..*s };
            self.signals.push(stamped);
        }
        for i in first.start[2]..first.end[2] {
            let b = &self.blocks[i];
            let BlockBody::Ir(body) = &b.body else { unreachable!("a stamp has no native") };
            let stamped = BlockInfo {
                name: b.name.clone(),
                module: module(b.module),
                kind: b.kind,
                body: BlockBody::Ir(body.offset(ids)),
                reads: signals(&b.reads),
                writes: signals(&b.writes),
                mem_writes: mems(&b.mem_writes),
                mem_reads: mems(&b.mem_reads),
            };
            self.blocks.push(stamped);
            self.natives.push(None);
            let source = self.sources[i];
            self.sources.push(if source == NONE { i as u32 } else { source });
        }
        for i in first.start[3]..first.end[3] {
            let m = &self.mems[i];
            let stamped = MemInfo { name: m.name.clone(), module: module(m.module), ..*m };
            self.mems.push(stamped);
        }
        for i in first.start[4]..first.end[4] {
            let (a, b) = self.connections[i];
            self.connections.push((ids.signal(a), ids.signal(b)));
        }
        for i in first.start[5]..first.end[5] {
            let (s, value) = self.ties[i];
            self.ties.push((ids.signal(s), value));
        }
    }

    /// Checks a stamp against a build of the same instance (debug builds
    /// only): `at` is where the build starts, and the stamp replaces it.
    ///
    /// # Panics
    ///
    /// Panics naming the component if the two differ: its fields do not
    /// determine what its `build` does.
    fn check_stamp(&mut self, at: [usize; 6], first: Span, name: &str, parent: ModuleId) {
        let built = Proto {
            modules: self.modules.split_off(at[0]),
            signals: self.signals.split_off(at[1]),
            blocks: self.blocks.split_off(at[2]),
            natives: self.natives.split_off(at[2]),
            sources: self.sources.split_off(at[2]),
            mems: self.mems.split_off(at[3]),
            connections: self.connections.split_off(at[4]),
            ties: self.ties.split_off(at[5]),
            firsts: FastMap::default(),
        };
        self.stamp(first, name, parent);
        let table = if built.modules[..] != self.modules[at[0]..] {
            "modules"
        } else if built.signals[..] != self.signals[at[1]..] {
            "signals"
        } else if built.blocks[..] != self.blocks[at[2]..]
            || built.natives.iter().any(Option::is_some)
        {
            "blocks"
        } else if built.mems[..] != self.mems[at[3]..] {
            "memories"
        } else if built.connections[..] != self.connections[at[4]..] {
            "connections"
        } else if built.ties[..] != self.ties[at[5]..] {
            "ties"
        } else {
            return;
        };
        panic!(
            "component `{}` builds differently at instance `{name}` ({table} differ): its fields \
             must determine everything its `build` does",
            self.modules[at[0]].component
        );
    }
}

/// The elaboration context passed to [`Component::build`].
///
/// Each component instance receives a `Ctx` scoped to its own module; ports
/// declared here become part of the module's interface, and
/// [`Ctx::instantiate`] recursively elaborates children.
pub struct Ctx<'a> {
    pub(crate) proto: &'a mut Proto,
    pub(crate) module: ModuleId,
    pub(crate) reset: SignalRef,
}

impl<'a> Ctx<'a> {
    fn declare(&mut self, name: &str, width: u32, kind: SignalKind) -> SignalRef {
        assert!(
            (1..=128).contains(&width),
            "signal `{name}` width must be in 1..=128, got {width}"
        );
        let id = SignalId::from_index(self.proto.signals.len());
        self.proto.signals.push(SignalInfo {
            name: name.to_string(),
            module: self.module,
            width,
            kind,
            net: NetId::from_index(0), // filled during finalization
        });
        if kind != SignalKind::Wire {
            self.proto.modules[self.module.index()].ports.push(id);
        }
        SignalRef { id, width }
    }

    /// Declares an input port.
    pub fn in_port(&mut self, name: &str, width: u32) -> SignalRef {
        self.declare(name, width, SignalKind::InPort)
    }

    /// Declares an output port.
    pub fn out_port(&mut self, name: &str, width: u32) -> SignalRef {
        self.declare(name, width, SignalKind::OutPort)
    }

    /// Declares an internal wire.
    pub fn wire(&mut self, name: &str, width: u32) -> SignalRef {
        self.declare(name, width, SignalKind::Wire)
    }

    /// Declares a list of input ports named `{name}_0 .. {name}_{n-1}`
    /// (the analog of PyMTL's `InPort[nports]`).
    pub fn in_ports(&mut self, name: &str, n: usize, width: u32) -> Vec<SignalRef> {
        (0..n).map(|i| self.in_port(&format!("{name}_{i}"), width)).collect()
    }

    /// Declares a list of output ports named `{name}_0 .. {name}_{n-1}`.
    pub fn out_ports(&mut self, name: &str, n: usize, width: u32) -> Vec<SignalRef> {
        (0..n).map(|i| self.out_port(&format!("{name}_{i}"), width)).collect()
    }

    /// Declares a list of wires named `{name}_0 .. {name}_{n-1}`.
    pub fn wires(&mut self, name: &str, n: usize, width: u32) -> Vec<SignalRef> {
        (0..n).map(|i| self.wire(&format!("{name}_{i}"), width)).collect()
    }

    /// Declares a memory array of `words` words of `width` bits.
    pub fn mem(&mut self, name: &str, words: u64, width: u32) -> MemRef {
        assert!((1..=128).contains(&width), "mem `{name}` width must be in 1..=128");
        assert!(words >= 1, "mem `{name}` must have at least one word");
        let id = MemId::from_index(self.proto.mems.len());
        self.proto.mems.push(MemInfo { name: name.to_string(), module: self.module, words, width });
        MemRef { id, width, words }
    }

    /// The implicit reset signal of this module.
    ///
    /// Every module has a reset input, automatically connected through the
    /// hierarchy; the simulator drives the top-level reset during
    /// `sim.reset()`.
    pub fn reset(&self) -> SignalRef {
        self.reset
    }

    /// Structurally connects two signals so they alias the same net.
    ///
    /// Like PyMTL's `s.connect`, direction checking is a lint concern;
    /// widths must match (checked during finalization).
    pub fn connect(&mut self, a: SignalRef, b: SignalRef) {
        self.proto.connections.push((a.id, b.id));
    }

    /// Ties a signal's net to a constant: PyMTL's `s.connect(port, value)`.
    ///
    /// A tie is a connection, not a block. The design records it as a
    /// (net, value) pair ([`Design::ties`](crate::Design::ties)); every
    /// simulator drives the net to `value` once, when it is built, and
    /// nothing writes it after, so it holds `value` through `reset` and
    /// every cycle, and the compiled artifact does not depend on it. A
    /// parent ties a child's input port to hand that instance a constant
    /// (a router its coordinates), which keeps the constant out of the
    /// child's name and lets every instance after the first be a stamp.
    ///
    /// Strict elaboration rejects a value wider than the signal, a tie on
    /// a net that a block writes or that holds a top-level input port, and
    /// two different ties on one net.
    pub fn tie(&mut self, signal: SignalRef, value: u128) {
        self.proto.ties.push((signal.id, value));
    }

    /// Instantiates a child component, recursively elaborating it.
    ///
    /// The child's reset port is connected automatically. Returns an
    /// [`Instance`] whose ports can be looked up with [`Ctx::port_of`].
    ///
    /// A component [key](crate::Keyed) is built once per elaboration:
    /// when an earlier instance of the same key built no native block and
    /// named nothing outside its own subtree, this instance is a *stamp* of
    /// it — a copy of its tables with every id shifted, sharing its IR
    /// statements (see [`Component`]). Debug builds also run `build` and
    /// check that it agrees with the stamp. A keyless component, and one
    /// holding a keyless component, is built at every instance.
    pub fn instantiate(&mut self, name: &str, component: &dyn Component) -> Instance {
        let at = self.proto.marks();
        let child = ModuleId::from_index(at[0]);
        self.proto.modules[self.module.index()].children.push(child);
        let key = component.key();
        match key.as_ref().and_then(|key| self.proto.firsts.get(key)).copied() {
            Some((key, Some(first))) if cfg!(debug_assertions) => {
                self.build_child(name, Some(key), component);
                self.proto.check_stamp(at, first, name, self.module);
            }
            Some((_, Some(first))) => self.proto.stamp(first, name, self.module),
            Some((key, None)) => self.build_child(name, Some(key), component),
            None => {
                self.build_child(name, None, component);
                let span = Span { start: at, end: self.proto.marks() };
                // A component holding a keyless one is keyless too.
                let below = &self.proto.modules[at[0] + 1..span.end[0]];
                if let Some(key) = key.filter(|_| below.iter().all(|m| m.key.is_some())) {
                    let ordinal = self.proto.firsts.len() as u32;
                    self.proto.modules[at[0]].key = Some(ordinal);
                    let stamp = self.proto.stampable(span).then_some(span);
                    self.proto.firsts.insert(key, (ordinal, stamp));
                }
            }
        }
        // A child's first signal is its reset port.
        let child_reset = SignalId::from_index(at[1]);
        self.proto.connections.push((self.reset.id, child_reset));
        Instance { module: child }
    }

    fn build_child(&mut self, name: &str, key: Option<u32>, component: &dyn Component) {
        let child = ModuleId::from_index(self.proto.modules.len());
        self.proto.modules.push(ModuleInfo {
            name: name.to_string(),
            component: component.name(),
            key,
            parent: Some(self.module),
            children: Vec::new(),
            ports: Vec::new(),
        });
        let mut child_ctx = Ctx {
            proto: self.proto,
            module: child,
            reset: SignalRef { id: SignalId::from_index(0), width: 1 }, // placeholder
        };
        let child_reset = child_ctx.in_port("reset", 1);
        child_ctx.reset = child_reset;
        component.build(&mut child_ctx);
    }

    /// Looks up a port of a child instance by name.
    ///
    /// # Panics
    ///
    /// Panics with the available names if the port does not exist.
    pub fn port_of(&self, inst: &Instance, name: &str) -> SignalRef {
        let module = &self.proto.modules[inst.module.index()];
        for &p in &module.ports {
            let info = &self.proto.signals[p.index()];
            if info.name == name {
                return SignalRef { id: p, width: info.width };
            }
        }
        let avail: Vec<_> =
            module.ports.iter().map(|&p| self.proto.signals[p.index()].name.clone()).collect();
        panic!(
            "no port `{name}` on instance `{}` ({}); available: {avail:?}",
            module.name, module.component
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn add_block(
        &mut self,
        name: &str,
        kind: BlockKind,
        body: BlockBody,
        native: Option<NativeFn>,
        reads: Vec<SignalId>,
        writes: Vec<SignalId>,
        mem_reads: Vec<MemId>,
        mem_writes: Vec<MemId>,
    ) {
        self.proto.blocks.push(BlockInfo {
            name: name.to_string(),
            module: self.module,
            kind,
            body,
            reads,
            writes,
            mem_writes,
            mem_reads,
        });
        self.proto.natives.push(native);
        self.proto.sources.push(NONE);
    }

    /// Defines a combinational IR block (the `@s.combinational` analog).
    ///
    /// The sensitivity list is inferred from the statements, exactly as
    /// PyMTL infers it from the Python AST.
    pub fn comb(&mut self, name: &str, f: impl FnOnce(&mut BlockBuilder)) {
        let mut b = BlockBuilder::new();
        f(&mut b);
        let body = IrBody::new(b.finish());
        let (reads, writes, mem_reads, mem_writes) = analyze(&body);
        self.add_block(
            name,
            BlockKind::Comb,
            BlockBody::Ir(body),
            None,
            reads,
            writes,
            mem_reads,
            mem_writes,
        );
    }

    /// Defines a sequential IR block (the `@s.tick_rtl` analog).
    ///
    /// Assignments write shadow `next` values committed at the clock edge.
    pub fn seq(&mut self, name: &str, f: impl FnOnce(&mut BlockBuilder)) {
        let mut b = BlockBuilder::new();
        f(&mut b);
        let body = IrBody::new(b.finish());
        let (reads, writes, mem_reads, mem_writes) = analyze(&body);
        self.add_block(
            name,
            BlockKind::Seq,
            BlockBody::Ir(body),
            None,
            reads,
            writes,
            mem_reads,
            mem_writes,
        );
    }

    /// Defines a functional-level sequential block (the `@s.tick_fl`
    /// analog): arbitrary Rust run once per clock edge.
    ///
    /// `writes` must list every signal the closure may `write_next`.
    pub fn tick_fl(
        &mut self,
        name: &str,
        reads: &[SignalRef],
        writes: &[SignalRef],
        f: impl FnMut(&mut dyn SignalView) + Send + 'static,
    ) {
        self.native(name, BlockKind::Seq, NativeLevel::Fl, reads, writes, f);
    }

    /// Defines a cycle-level sequential block (the `@s.tick_cl` analog).
    pub fn tick_cl(
        &mut self,
        name: &str,
        reads: &[SignalRef],
        writes: &[SignalRef],
        f: impl FnMut(&mut dyn SignalView) + Send + 'static,
    ) {
        self.native(name, BlockKind::Seq, NativeLevel::Cl, reads, writes, f);
    }

    /// Defines a combinational native block with an explicit sensitivity
    /// list (`reads`) and write set.
    pub fn comb_native(
        &mut self,
        name: &str,
        level: NativeLevel,
        reads: &[SignalRef],
        writes: &[SignalRef],
        f: impl FnMut(&mut dyn SignalView) + Send + 'static,
    ) {
        self.native(name, BlockKind::Comb, level, reads, writes, f);
    }

    fn native(
        &mut self,
        name: &str,
        kind: BlockKind,
        level: NativeLevel,
        reads: &[SignalRef],
        writes: &[SignalRef],
        f: impl FnMut(&mut dyn SignalView) + Send + 'static,
    ) {
        self.add_block(
            name,
            kind,
            BlockBody::Native(level),
            Some(Box::new(f)),
            reads.iter().map(|s| s.id).collect(),
            writes.iter().map(|s| s.id).collect(),
            Vec::new(),
            Vec::new(),
        );
    }
}

/// The signals a block reads and writes and the memories it reads and
/// writes, each sorted and deduplicated.
pub(crate) fn analyze(body: &IrBody) -> (Vec<SignalId>, Vec<SignalId>, Vec<MemId>, Vec<MemId>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut mem_reads = Vec::new();
    let mut mem_writes = Vec::new();
    for s in body.stmts() {
        s.collect_reads(&mut reads);
        s.collect_writes(&mut writes);
        s.collect_mem_reads(&mut mem_reads);
        s.collect_mem_writes(&mut mem_writes);
    }
    let ids = body.ids();
    let signals = |v: Vec<SignalId>| dedup(v.into_iter().map(|s| ids.signal(s)).collect());
    let mems = |v: Vec<MemId>| dedup(v.into_iter().map(|m| ids.mem(m)).collect());
    (signals(reads), signals(writes), mems(mem_reads), mems(mem_writes))
}

fn dedup<T: Ord + Copy>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Builds the statement list of an IR block.
///
/// Obtained from [`Ctx::comb`] / [`Ctx::seq`]; provides structured
/// assignment, conditionals, switches, and memory writes.
pub struct BlockBuilder {
    stmts: Vec<Stmt>,
}

impl BlockBuilder {
    fn new() -> Self {
        Self { stmts: Vec::new() }
    }

    fn finish(self) -> Vec<Stmt> {
        self.stmts
    }

    /// Assigns an expression to a signal.
    pub fn assign(&mut self, target: SignalRef, e: impl Into<Expr>) {
        self.stmts
            .push(Stmt::Assign(LValue { signal: target.id, lo: 0, hi: target.width() }, e.into()));
    }

    /// Assigns an expression to a bit range `[lo, hi)` of a signal.
    pub fn assign_slice(&mut self, target: SignalRef, lo: u32, hi: u32, e: impl Into<Expr>) {
        self.stmts.push(Stmt::Assign(LValue { signal: target.id, lo, hi }, e.into()));
    }

    /// `if cond { ... }`.
    pub fn if_(&mut self, cond: impl Into<Expr>, then_: impl FnOnce(&mut BlockBuilder)) {
        let mut tb = BlockBuilder::new();
        then_(&mut tb);
        self.stmts.push(Stmt::If { cond: cond.into(), then_: tb.finish(), else_: Vec::new() });
    }

    /// `if cond { ... } else { ... }`.
    pub fn if_else(
        &mut self,
        cond: impl Into<Expr>,
        then_: impl FnOnce(&mut BlockBuilder),
        else_: impl FnOnce(&mut BlockBuilder),
    ) {
        let mut tb = BlockBuilder::new();
        then_(&mut tb);
        let mut eb = BlockBuilder::new();
        else_(&mut eb);
        self.stmts.push(Stmt::If { cond: cond.into(), then_: tb.finish(), else_: eb.finish() });
    }

    /// A multi-way switch on a subject expression.
    ///
    /// # Examples
    ///
    /// ```ignore
    /// b.switch(state, |sw| {
    ///     sw.case(0, |b| b.assign(out, Expr::k(8, 1)));
    ///     sw.default(|b| b.assign(out, Expr::k(8, 0)));
    /// });
    /// ```
    pub fn switch(&mut self, subject: impl Into<Expr>, f: impl FnOnce(&mut SwitchBuilder)) {
        let subject = subject.into();
        let mut sw = SwitchBuilder { arms: Vec::new(), default: Vec::new() };
        f(&mut sw);
        self.stmts.push(Stmt::Switch { subject, arms: sw.arms, default: sw.default });
    }

    /// A synchronous memory write (sequential blocks only).
    pub fn mem_write(&mut self, mem: MemRef, addr: impl Into<Expr>, data: impl Into<Expr>) {
        self.stmts.push(Stmt::MemWrite { mem: mem.id, addr: addr.into(), data: data.into() });
    }
}

/// Builds the arms of a switch statement; see [`BlockBuilder::switch`].
pub struct SwitchBuilder {
    arms: Vec<(Bits, Vec<Stmt>)>,
    default: Vec<Stmt>,
}

impl SwitchBuilder {
    /// Adds a case arm matching `value` (the subject's width is applied).
    ///
    /// Width checking of the arm constant against the subject happens
    /// during design finalization.
    pub fn case(&mut self, value: Bits, f: impl FnOnce(&mut BlockBuilder)) {
        let mut b = BlockBuilder::new();
        f(&mut b);
        self.arms.push((value, b.finish()));
    }

    /// Sets the default arm.
    pub fn default(&mut self, f: impl FnOnce(&mut BlockBuilder)) {
        let mut b = BlockBuilder::new();
        f(&mut b);
        self.default = b.finish();
    }
}
