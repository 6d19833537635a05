//! The elaborated design: the in-memory representation consumed by tools.
//!
//! A [`Design`] is the analog of PyMTL's elaborated model instance — a plain
//! data structure describing the module hierarchy, signals, connection nets,
//! memories, and update blocks. Tools (simulators, translators, linters,
//! analyzers) take a `Design` as input; none of them know anything about the
//! user's component types. This is the paper's "model/tool split".

use std::fmt;
use std::sync::Arc;

use mtl_bits::Bits;

use crate::ids::{BlockId, MemId, ModuleId, NetId, ShapeId, SignalId};
use crate::ir::{BinOp, Expr, IdOffsets, Stmt, UnaryOp};
use crate::shape::{ShapeInfo, Shapes};
use crate::view::SignalView;

/// Direction/kind of a signal relative to its owning module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// An input port of its module.
    InPort,
    /// An output port of its module.
    OutPort,
    /// An internal wire.
    Wire,
}

/// Metadata for one signal in the design.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalInfo {
    /// Leaf name within the owning module (e.g. `out`).
    pub name: String,
    /// Owning module.
    pub module: ModuleId,
    /// Bit width.
    pub width: u32,
    /// Port direction or wire.
    pub kind: SignalKind,
    /// The net this signal belongs to (filled during finalization).
    pub net: NetId,
}

/// Metadata for one module instance in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleInfo {
    /// Instance name within the parent (the root is named `top` by default).
    pub name: String,
    /// The component's label ([`Component::name`](crate::Component::name)),
    /// e.g. `Register`: diagnostics, and the stem of its Verilog module name.
    pub component: String,
    /// The component's [key](crate::Keyed), as an ordinal unique to it in
    /// the design; `None` for a keyless component, for one holding a
    /// keyless component, and for the top, which has no other instance.
    /// Two modules with one key were built from equal component values:
    /// the same hardware.
    pub key: Option<u32>,
    /// Parent module, if any.
    pub parent: Option<ModuleId>,
    /// Child module instances.
    pub children: Vec<ModuleId>,
    /// Ports declared by this module, in declaration order.
    pub ports: Vec<SignalId>,
}

/// Metadata for one memory array.
#[derive(Debug, Clone, PartialEq)]
pub struct MemInfo {
    /// Leaf name within the owning module.
    pub name: String,
    /// Owning module.
    pub module: ModuleId,
    /// Number of words.
    pub words: u64,
    /// Width of each word.
    pub width: u32,
}

/// Execution timing of an update block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Combinational: re-evaluated whenever an input net changes; writes
    /// take effect immediately.
    Comb,
    /// Sequential: evaluated once per clock edge; writes go to shadow state
    /// committed after all sequential blocks run.
    Seq,
}

/// Abstraction level of a native block, recorded for introspection and
/// level-of-detail accounting (Fig. 13 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeLevel {
    /// Functional-level block (`@s.tick_fl` analog).
    Fl,
    /// Cycle-level block (`@s.tick_cl` analog).
    Cl,
}

/// A native (arbitrary Rust) update function.
///
/// The closure receives a [`SignalView`] for reading signals and writing
/// values (combinational) or next-values (sequential).
///
/// Native functions are `Send` so an elaborated [`Design`] is a plain
/// data structure that can cross threads (the parallel engine depends on
/// this); captured shared state must use `Arc<Mutex<..>>` rather than
/// `Rc<RefCell<..>>`.
pub type NativeFn = Box<dyn FnMut(&mut dyn SignalView) + Send>;

/// The body of an update block.
///
/// Native closures are stored out-of-band in the [`Design`]'s native
/// table (index-based storage keyed by block index), so block metadata
/// stays plain `Send + Sync` data; see [`Design::take_natives`].
#[derive(PartialEq)]
pub enum BlockBody {
    /// Translatable IR statements (RTL modeling).
    Ir(IrBody),
    /// An opaque Rust closure (FL/CL modeling) with its abstraction level;
    /// the closure itself lives in the design's native table.
    Native(NativeLevel),
}

impl fmt::Debug for BlockBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockBody::Ir(body) => f.debug_tuple("Ir").field(&body.stmts().len()).finish(),
            BlockBody::Native(level) => f.debug_tuple("Native").field(level).finish(),
        }
    }
}

/// The statements of an IR block, shared among the instances of a
/// component.
///
/// Elaboration builds each component key once and *stamps* its later
/// instances (see [`Keyed`](crate::Keyed)): a stamped
/// block holds the first instance's statements, unchanged, and the
/// [`IdOffsets`] that carry the ids they name to its own. A tool reads
/// [`IrBody::stmts`] and maps every `SignalId` and `MemId` it meets
/// through [`IrBody::ids`] (or takes an owned copy with
/// [`IrBody::to_stmts`]).
#[derive(Clone)]
pub struct IrBody {
    stmts: Arc<Vec<Stmt>>,
    ids: IdOffsets,
}

impl IrBody {
    pub(crate) fn new(stmts: Vec<Stmt>) -> Self {
        IrBody { stmts: Arc::new(stmts), ids: IdOffsets::default() }
    }

    /// The statements, naming ids as the component's first instance did.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// The offsets from the ids [`IrBody::stmts`] names to this block's.
    pub fn ids(&self) -> IdOffsets {
        self.ids
    }

    /// An owned copy of the statements, naming this block's own ids.
    pub fn to_stmts(&self) -> Vec<Stmt> {
        let mut stmts = self.stmts.to_vec();
        stmts.iter_mut().for_each(|s| s.offset_ids(self.ids));
        stmts
    }

    /// The statements, for editing: a body shared with other instances is
    /// copied first (with this block's own ids), so they keep theirs.
    pub fn stmts_mut(&mut self) -> &mut Vec<Stmt> {
        if Arc::get_mut(&mut self.stmts).is_none() || self.ids != IdOffsets::default() {
            *self = IrBody::new(self.to_stmts());
        }
        Arc::get_mut(&mut self.stmts).expect("an unshared body")
    }

    /// This body moved `by` further: another stamp of the same statements.
    pub(crate) fn offset(&self, by: IdOffsets) -> Self {
        IrBody { stmts: self.stmts.clone(), ids: self.ids.plus(by) }
    }
}

/// Equal bodies name the same ids in the same statements, shared or not.
impl PartialEq for IrBody {
    fn eq(&self, other: &Self) -> bool {
        let shared = Arc::ptr_eq(&self.stmts, &other.stmts);
        (shared && self.ids == other.ids) || self.to_stmts() == other.to_stmts()
    }
}

/// Slot in the design's native-closure table: present until a simulator
/// claims it via [`Design::take_natives`]. The mutex makes the cell (and
/// thus the whole [`Design`]) `Sync` while staying cheap — it is locked
/// only at claim time, never during simulation.
pub(crate) struct NativeCell(std::sync::Mutex<Option<NativeFn>>);

impl NativeCell {
    pub(crate) fn new(f: Option<NativeFn>) -> Self {
        NativeCell(std::sync::Mutex::new(f))
    }
}

impl fmt::Debug for NativeCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.0.lock() {
            Ok(g) if g.is_some() => "present",
            Ok(_) => "taken",
            Err(_) => "poisoned",
        };
        write!(f, "NativeCell({state})")
    }
}

/// One update block: a unit of concurrent behavior.
#[derive(Debug, PartialEq)]
pub struct BlockInfo {
    /// Block name (unique within its module).
    pub name: String,
    /// Owning module.
    pub module: ModuleId,
    /// Comb or Seq timing.
    pub kind: BlockKind,
    /// The block body.
    pub body: BlockBody,
    /// Signals read by the block (sensitivity inputs for comb blocks).
    pub reads: Vec<SignalId>,
    /// Signals written by the block.
    pub writes: Vec<SignalId>,
    /// Memories written by the block (sequential blocks only).
    pub mem_writes: Vec<MemId>,
    /// Memories read by the block (used for re-evaluation after memory
    /// commits).
    pub mem_reads: Vec<MemId>,
}

/// A connection net: the set of signals aliased together by `connect` calls.
#[derive(Debug, Clone)]
pub struct NetInfo {
    /// Signals in the net.
    pub signals: Vec<SignalId>,
    /// Common width of all signals in the net.
    pub width: u32,
    /// The block driving the net, if any. Nets without a driving block are
    /// driven externally (top-level inputs), tied to a constant
    /// ([`Design::ties`]) or hold their initial value.
    pub driver: Option<BlockId>,
    /// Whether the net holds sequential (register) state.
    pub is_register: bool,
}

/// Error found while finalizing an elaborated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElabError {
    /// Two connected signals have different widths.
    WidthMismatch { a: String, b: String, a_width: u32, b_width: u32 },
    /// A net is written by more than one update block.
    MultipleDrivers { net: String, blocks: Vec<String> },
    /// A net is written by both a combinational and a sequential block.
    MixedDrivers { net: String },
    /// The combinational blocks form a dependency cycle.
    CombCycle { blocks: Vec<String> },
    /// An IR block failed width checking.
    TypeError { block: String, message: String },
    /// A memory is written by more than one block or by a comb block.
    BadMemUse { mem: String, message: String },
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::WidthMismatch { a, b, a_width, b_width } => {
                write!(f, "cannot connect `{a}` (width {a_width}) to `{b}` (width {b_width})")
            }
            ElabError::MultipleDrivers { net, blocks } => {
                write!(f, "net `{net}` is driven by multiple blocks: {}", blocks.join(", "))
            }
            ElabError::MixedDrivers { net } => {
                write!(f, "net `{net}` is written by both combinational and sequential blocks")
            }
            ElabError::CombCycle { blocks } => {
                write!(f, "combinational cycle through blocks: {}", blocks.join(" -> "))
            }
            ElabError::TypeError { block, message } => {
                write!(f, "type error in block `{block}`: {message}")
            }
            ElabError::BadMemUse { mem, message } => {
                write!(f, "invalid use of memory `{mem}`: {message}")
            }
        }
    }
}

impl std::error::Error for ElabError {}

/// An elaborated hardware design.
///
/// Produced by [`elaborate`](crate::elaborate); consumed by every tool.
#[derive(Debug)]
pub struct Design {
    pub(crate) modules: Vec<ModuleInfo>,
    pub(crate) signals: Vec<SignalInfo>,
    pub(crate) blocks: Vec<BlockInfo>,
    pub(crate) mems: Vec<MemInfo>,
    pub(crate) connections: Vec<(SignalId, SignalId)>,
    /// Tied nets and their values, ascending by net, one entry per net.
    pub(crate) ties: Vec<(NetId, Bits)>,
    pub(crate) nets: Vec<NetInfo>,
    /// Native closures indexed by block (None for IR blocks), stored
    /// out-of-band so the rest of the design is plain shareable data.
    pub(crate) natives: Vec<NativeCell>,
    /// The global reset net's representative signal.
    pub(crate) reset: SignalId,
    /// Every IR block's shape and operand lists.
    pub(crate) shapes: Shapes,
    /// Per block, the built block elaboration stamped it from
    /// (`shape::NONE` for a block its `build` made).
    pub(crate) sources: Vec<u32>,
}

/// The combinational dependency graph of a design; see
/// [`Design::comb_graph`].
pub(crate) struct CombGraph {
    /// The nodes: the comb blocks, in block order.
    pub(crate) blocks: Vec<BlockId>,
    /// Per node, the nodes it feeds, in order, each once, with the first
    /// net through which the reader reads it.
    pub(crate) succ: Vec<Vec<(u32, NetId)>>,
}

/// An elaborated design is pure data plus claimable native closures, so
/// it can be shared across threads (`Arc<Design>`); the artifact cache
/// relies on this. Compile-time check.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Design>();
};

impl Design {
    /// The root module of the hierarchy.
    pub fn top(&self) -> ModuleId {
        ModuleId::from_index(0)
    }

    /// Metadata for a module.
    pub fn module(&self, id: ModuleId) -> &ModuleInfo {
        &self.modules[id.index()]
    }

    /// All modules, indexable by [`ModuleId::index`].
    pub fn modules(&self) -> &[ModuleInfo] {
        &self.modules
    }

    /// Metadata for a signal.
    pub fn signal(&self, id: SignalId) -> &SignalInfo {
        &self.signals[id.index()]
    }

    /// All signals, indexable by [`SignalId::index`].
    pub fn signals(&self) -> &[SignalInfo] {
        &self.signals
    }

    /// Metadata for an update block.
    pub fn block(&self, id: BlockId) -> &BlockInfo {
        &self.blocks[id.index()]
    }

    /// All update blocks, indexable by [`BlockId::index`].
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// Edits the blocks in place, then re-derives what finalization
    /// derived from their statements: each IR block's read lists, every
    /// block's shape, the width check and the comb schedule.
    ///
    /// A stamped block shares its statements with its component's other
    /// instances; [`IrBody::stmts_mut`] copies them first, so an edit to
    /// one block leaves its siblings as they were.
    ///
    /// # Errors
    ///
    /// Returns the [`ElabError`] strict elaboration would for the edited
    /// blocks: an IR type error or a combinational cycle.
    ///
    /// # Panics
    ///
    /// Panics if an edit changes a block's kind or module, turns it native
    /// or IR, or changes what it writes: each net's driver was derived
    /// from them.
    pub fn blocks_mut(&mut self, edit: impl FnOnce(&mut [BlockInfo])) -> Result<(), ElabError> {
        let frame = |b: &BlockInfo| {
            let ir = matches!(b.body, BlockBody::Ir(_));
            (b.kind, b.module, ir, b.writes.clone(), b.mem_writes.clone())
        };
        let before: Vec<_> = self.blocks.iter().map(frame).collect();
        edit(&mut self.blocks);
        for (b, before) in self.blocks.iter_mut().zip(before) {
            if let BlockBody::Ir(body) = &b.body {
                let (reads, writes, mem_reads, mem_writes) = crate::builder::analyze(body);
                (b.reads, b.writes, b.mem_reads, b.mem_writes) =
                    (reads, writes, mem_reads, mem_writes);
            }
            assert!(frame(b) == before, "an edit changed what block `{}` drives", b.name);
        }
        // An edit may leave a stamp unlike its source: every block is walked.
        self.shapes =
            crate::shape::assign(&self.signals, &self.nets, &self.mems, &self.blocks, &[]);
        crate::typecheck::check_design(self)?;
        self.comb_schedule().map(drop)
    }

    /// The distinct shapes of the IR blocks, indexable by
    /// [`ShapeId::index`], in order of first occurrence.
    ///
    /// Finalization walks every IR block once, renumbering the nets and
    /// memories it names by first occurrence (in the order the tape code
    /// generator emits them), and interns the rest: the block kind, the
    /// statements with each signal replaced by its local net and its own
    /// width and each literal by its width, each local net's width, and
    /// each local memory's width and depth — everything width checking and
    /// compilation read of a block but its literals' values. Blocks of one
    /// shape are one body wired to different state and fed different
    /// literals: they type-check alike and compile to one tape. A literal
    /// position at which some instance's value differs from the first's is
    /// a *parameter* of the shape ([`Design::shape_params`]; a router's
    /// coordinates, a generator's id and seed), and each block carries its
    /// values there ([`Design::block_params`]); every other literal is the
    /// same in every instance. Shapes are keyed on the IR as written, so
    /// `a + (1 + 1)` and `a + 2` are two.
    pub fn shapes(&self) -> &[ShapeInfo] {
        &self.shapes.info
    }

    /// The shape of a block (`None` for a native block).
    pub fn block_shape(&self, block: BlockId) -> Option<ShapeId> {
        let shape = self.shapes.of[block.index()];
        (shape != crate::shape::NONE).then(|| ShapeId::from_index(shape as usize))
    }

    /// A block's operand lists: the net (`[0]`) and memory (`[1]`) index
    /// behind each local index of its shape, in order of first occurrence.
    /// Empty for a native block.
    pub fn block_operands(&self, block: BlockId) -> [&[u32]; 2] {
        let b = block.index();
        let operands =
            &self.shapes.operands[self.shapes.at[b] as usize..self.shapes.at[b + 1] as usize];
        let nets = self.block_shape(block).map_or(0, |s| self.shapes.info[s.index()].nets);
        let (nets, mems) = operands.split_at(nets as usize);
        [nets, mems]
    }

    /// A shape's parameters, ascending: the position of each among the
    /// block's literals (its `Expr::Const` nodes, numbered in the order
    /// the tape code generator emits them).
    pub fn shape_params(&self, shape: ShapeId) -> &[u32] {
        let at = &self.shapes.param_at[shape.index()..][..2];
        &self.shapes.params[at[0] as usize..at[1] as usize]
    }

    /// A block's values at its shape's parameters, in the order of
    /// [`Design::shape_params`]. Empty for a native block.
    pub fn block_params(&self, block: BlockId) -> &[Bits] {
        let at = &self.shapes.value_at[block.index()..][..2];
        &self.shapes.values[at[0] as usize..at[1] as usize]
    }

    /// Claims ownership of all native closures, indexed by block (None
    /// for IR blocks, and for natives already taken).
    ///
    /// Simulators call this once at construction; the design left behind
    /// is pure data, freely shareable across threads.
    pub fn take_natives(&self) -> Vec<Option<NativeFn>> {
        self.natives
            .iter()
            .map(|cell| cell.0.lock().expect("native cell poisoned").take())
            .collect()
    }

    /// Whether the native closure for a block is still present (i.e. not
    /// yet claimed by a simulator).
    pub fn has_native(&self, block: BlockId) -> bool {
        self.natives
            .get(block.index())
            .map(|cell| cell.0.lock().expect("native cell poisoned").is_some())
            .unwrap_or(false)
    }

    /// Metadata for a memory.
    pub fn mem(&self, id: MemId) -> &MemInfo {
        &self.mems[id.index()]
    }

    /// All memories, indexable by [`MemId::index`].
    pub fn mems(&self) -> &[MemInfo] {
        &self.mems
    }

    /// Metadata for a net.
    pub fn net(&self, id: NetId) -> &NetInfo {
        &self.nets[id.index()]
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[NetInfo] {
        &self.nets
    }

    /// The raw `connect` pairs recorded during elaboration (useful for
    /// structural translation).
    pub fn connections(&self) -> &[(SignalId, SignalId)] {
        &self.connections
    }

    /// The constant connections ([`Ctx::tie`](crate::Ctx::tie)): each tied
    /// net and its value, ascending by net, one entry per net. No block
    /// writes a tied net; a simulator drives it once, when it is built.
    pub fn ties(&self) -> &[(NetId, Bits)] {
        &self.ties
    }

    /// The value a net is tied to, if it is tied.
    pub fn tie_of(&self, net: NetId) -> Option<Bits> {
        let at = self.ties.binary_search_by_key(&net, |&(n, _)| n).ok()?;
        Some(self.ties[at].1)
    }

    /// The block elaboration copied `block` from, if `block` is a stamp:
    /// the built block of its component's first instance (see
    /// [`Ctx::instantiate`](crate::Ctx::instantiate)). `None` for a block
    /// its component's `build` made.
    pub fn block_source(&self, block: BlockId) -> Option<BlockId> {
        let source = *self.sources.get(block.index())?;
        (source != crate::shape::NONE).then(|| BlockId::from_index(source as usize))
    }

    /// The net a signal belongs to.
    pub fn net_of(&self, sig: SignalId) -> NetId {
        self.signals[sig.index()].net
    }

    /// The global reset signal.
    pub fn reset(&self) -> SignalId {
        self.reset
    }

    /// The hierarchical dotted path of a signal, e.g. `top.mux.sel`.
    pub fn signal_path(&self, sig: SignalId) -> String {
        let info = &self.signals[sig.index()];
        format!("{}.{}", self.module_path(info.module), info.name)
    }

    /// Whether a signal's path [`Design::signal_path`] is `suffix` or ends
    /// in `.suffix`: the one rule by which a hierarchical suffix names a
    /// signal (`pc` matches `top.proc.pc`, not `top.proc.xpc`). Walks the
    /// path's bytes from the leaf upward — the signal name, then `.` and
    /// each ancestor module's name — and builds no string.
    pub fn has_path_suffix(&self, sig: SignalId, suffix: &str) -> bool {
        let info = &self.signals[sig.index()];
        let ancestors =
            std::iter::successors(Some(info.module), |m| self.modules[m.index()].parent);
        let mut path =
            info.name.bytes().rev().chain(ancestors.flat_map(|m| {
                [b'.'].into_iter().chain(self.modules[m.index()].name.bytes().rev())
            }));
        suffix.bytes().rev().all(|b| path.next() == Some(b))
            && matches!(path.next(), None | Some(b'.'))
    }

    /// The hierarchical dotted path of a module, e.g. `top.reg_`.
    pub fn module_path(&self, module: ModuleId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(module);
        while let Some(m) = cur {
            let info = &self.modules[m.index()];
            parts.push(info.name.clone());
            cur = info.parent;
        }
        parts.reverse();
        parts.join(".")
    }

    /// Looks up a port of a module by name.
    pub fn find_port(&self, module: ModuleId, name: &str) -> Option<SignalId> {
        self.modules[module.index()]
            .ports
            .iter()
            .copied()
            .find(|&s| self.signals[s.index()].name == name)
    }

    /// Looks up a port of the top-level module by name.
    ///
    /// # Panics
    ///
    /// Panics with the available port names if the port does not exist —
    /// this is a test-bench convenience.
    pub fn top_port(&self, name: &str) -> SignalId {
        self.find_port(self.top(), name).unwrap_or_else(|| {
            let avail: Vec<_> = self.modules[0]
                .ports
                .iter()
                .map(|&s| self.signals[s.index()].name.clone())
                .collect();
            panic!("no top-level port `{name}`; available: {avail:?}")
        })
    }

    /// Computes a topological ordering of the combinational blocks.
    ///
    /// Returns block ids in an order where every block runs after all blocks
    /// that drive its inputs. Used by the specializing engines for
    /// single-pass propagation and by the EDA model for logic-depth
    /// estimation.
    ///
    /// # Errors
    ///
    /// Returns [`ElabError::CombCycle`] if the combinational dependency
    /// graph is cyclic.
    pub fn comb_schedule(&self) -> Result<Vec<BlockId>, ElabError> {
        let CombGraph { blocks, succ } = self.comb_graph();
        let mut indegree = vec![0u32; blocks.len()];
        for &(reader, _) in succ.iter().flatten() {
            indegree[reader as usize] += 1;
        }
        let mut ready: Vec<u32> =
            (0..blocks.len() as u32).filter(|&i| indegree[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(blocks.len());
        let mut done = vec![false; blocks.len()];
        while let Some(i) = ready.pop() {
            order.push(blocks[i as usize]);
            done[i as usize] = true;
            for &(reader, _) in &succ[i as usize] {
                let d = &mut indegree[reader as usize];
                *d -= 1;
                if *d == 0 {
                    ready.push(reader);
                }
            }
        }
        if order.len() != blocks.len() {
            let stuck = blocks.iter().zip(&done).filter(|(_, &done)| !done);
            let blocks = stuck.map(|(&b, _)| self.block_path(b)).collect();
            return Err(ElabError::CombCycle { blocks });
        }
        Ok(order)
    }

    /// The driver→reader graph of the combinational blocks, shared by
    /// [`Design::comb_schedule`] and the linter. A net's driver is its
    /// first comb writer in block order (strict elaboration allows only
    /// one; lenient elaboration keeps the first). Self-edges — a block
    /// reading a net it also writes — are left out: within-block statement
    /// order resolves them as long as models define before use, matching
    /// PyMTL.
    pub(crate) fn comb_graph(&self) -> CombGraph {
        let blocks: Vec<BlockId> = (0..self.blocks.len())
            .map(BlockId::from_index)
            .filter(|b| self.blocks[b.index()].kind == BlockKind::Comb)
            .collect();
        const NONE: u32 = u32::MAX;
        let mut driver = vec![NONE; self.nets.len()];
        for (i, &b) in blocks.iter().enumerate() {
            for &w in &self.blocks[b.index()].writes {
                let d = &mut driver[self.net_of(w).index()];
                if *d == NONE {
                    *d = i as u32;
                }
            }
        }
        let mut succ: Vec<Vec<(u32, NetId)>> = vec![Vec::new(); blocks.len()];
        // Per node, the reader its last edge went to: readers are visited
        // in order, so this keeps each edge once.
        let mut last = vec![NONE; blocks.len()];
        for (i, &b) in blocks.iter().enumerate() {
            for &r in &self.blocks[b.index()].reads {
                let net = self.net_of(r);
                let d = driver[net.index()];
                if d != NONE && d != i as u32 && last[d as usize] != i as u32 {
                    last[d as usize] = i as u32;
                    succ[d as usize].push((i as u32, net));
                }
            }
        }
        CombGraph { blocks, succ }
    }

    /// The hierarchical path of a block, e.g. `top.reg_.seq_logic`.
    pub fn block_path(&self, block: BlockId) -> String {
        let info = &self.blocks[block.index()];
        format!("{}.{}", self.module_path(info.module), info.name)
    }

    /// Sequential block ids in declaration order.
    pub fn seq_blocks(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId::from_index)
            .filter(|b| self.blocks[b.index()].kind == BlockKind::Seq)
            .collect()
    }

    /// A crude level-of-detail score for the design: the paper's Fig. 13
    /// metric generalized to block granularity. IR blocks count as RTL (3),
    /// native CL blocks as 2, native FL blocks as 1; the design score is the
    /// maximum per module summed over direct children of the top module.
    pub fn level_of_detail(&self) -> u32 {
        self.modules[0].children.iter().map(|&child| self.subtree_lod(child)).sum()
    }

    fn subtree_lod(&self, root: ModuleId) -> u32 {
        let mut max = 0;
        let mut stack = vec![root];
        while let Some(m) = stack.pop() {
            for b in &self.blocks {
                if b.module == m {
                    let score = match &b.body {
                        BlockBody::Ir(_) => 3,
                        BlockBody::Native(NativeLevel::Cl) => 2,
                        BlockBody::Native(NativeLevel::Fl) => 1,
                    };
                    max = max.max(score);
                }
            }
            stack.extend(self.modules[m.index()].children.iter().copied());
        }
        max
    }

    /// The width of a well-typed IR expression of a block whose ids sit
    /// `ids` from the ones they mean (see [`IrBody::ids`]).
    pub fn expr_width(&self, ids: IdOffsets, e: &Expr) -> u32 {
        match e {
            Expr::Read(s) => self.signal(ids.signal(*s)).width,
            Expr::Const(c) => c.width(),
            Expr::Slice { lo, hi, .. } => hi - lo,
            Expr::Concat(parts) => parts.iter().map(|p| self.expr_width(ids, p)).sum(),
            Expr::Unary(UnaryOp::Not | UnaryOp::Neg, a) => self.expr_width(ids, a),
            Expr::Unary(..) => 1,
            Expr::Binary(
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::LtS | BinOp::GeS,
                ..,
            ) => 1,
            Expr::Binary(_, a, _) => self.expr_width(ids, a),
            Expr::Mux { then_, .. } => self.expr_width(ids, then_),
            Expr::Select { options, .. } => self.expr_width(ids, &options[0]),
            Expr::Zext(_, w) | Expr::Sext(_, w) | Expr::Trunc(_, w) => *w,
            Expr::MemRead { mem, .. } => self.mem(ids.mem(*mem)).width,
        }
    }

    /// Initial (reset) value for a net: all zeros at the net's width.
    pub fn net_initial(&self, net: NetId) -> Bits {
        Bits::zero(self.nets[net.index()].width)
    }

    /// All blocks that write each net, indexed by net. Unlike
    /// [`NetInfo::driver`] (which records the single legal driver chosen at
    /// elaboration) this reports *every* writer, which is what the linter
    /// needs to diagnose multiply-driven nets on leniently elaborated
    /// designs. Each block appears at most once per net.
    pub fn net_writers(&self) -> Vec<Vec<BlockId>> {
        let mut writers: Vec<Vec<BlockId>> = vec![Vec::new(); self.nets.len()];
        for (bi, block) in self.blocks.iter().enumerate() {
            let bid = BlockId::from_index(bi);
            for &w in &block.writes {
                let net = self.signals[w.index()].net.index();
                if !writers[net].contains(&bid) {
                    writers[net].push(bid);
                }
            }
        }
        writers
    }

    /// All blocks that read each net, indexed by net. Each block appears at
    /// most once per net.
    pub fn net_readers(&self) -> Vec<Vec<BlockId>> {
        let mut readers: Vec<Vec<BlockId>> = vec![Vec::new(); self.nets.len()];
        for (bi, block) in self.blocks.iter().enumerate() {
            let bid = BlockId::from_index(bi);
            for &r in &block.reads {
                let net = self.signals[r.index()].net.index();
                if !readers[net].contains(&bid) {
                    readers[net].push(bid);
                }
            }
        }
        readers
    }

    /// A representative hierarchical path for a net: the path of its first
    /// member signal (members are ordered by declaration).
    pub fn net_path(&self, net: NetId) -> String {
        self.signal_path(self.nets[net.index()].signals[0])
    }

    /// Whether a net contains a top-level port of the given kind. Such nets
    /// are externally driven (`InPort`) or externally observed (`OutPort`).
    pub fn net_has_top_port(&self, net: NetId, kind: SignalKind) -> bool {
        self.nets[net.index()].signals.iter().any(|&s| {
            let info = &self.signals[s.index()];
            info.module == self.top() && info.kind == kind
        })
    }
}
