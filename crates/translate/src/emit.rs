//! Verilog-2001 emission from elaborated RTL designs.
//!
//! The analog of PyMTL's `TranslationTool`: walks an elaborated
//! [`Design`], emits one Verilog module per component key, and renders
//! IR blocks as `always` blocks. Only fully translatable designs (IR
//! blocks and structure, no native FL/CL blocks) can be emitted.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use mtl_core::ir::{BinOp, Expr, IdOffsets, Stmt, UnaryOp};
use mtl_core::{BlockBody, BlockKind, Design, MemId, ModuleId, NetId, SignalId, SignalKind};

/// Error returned when a design cannot be translated to Verilog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The design contains native (FL/CL) blocks, listed by path.
    NativeBlocks(Vec<String>),
    /// A structural invariant needed for emission was violated (two
    /// modules would get one name).
    Structure(String),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::NativeBlocks(blocks) => write!(
                f,
                "design is not translatable: native blocks present: {}",
                blocks.join(", ")
            ),
            TranslateError::Structure(msg) => write!(f, "structural emission error: {msg}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translates an elaborated design to Verilog-2001 source.
///
/// Returns one `module` definition per component key, leaves first, with
/// the top-level module last. A module holding a keyless component (see
/// [`Keyed`](mtl_core::Keyed)), directly or below, is emitted once per
/// instance. Each module is named by its component's label, numbered
/// `_1`, `_2`, ... in emission order when the design holds two of it.
///
/// # Errors
///
/// Returns [`TranslateError::NativeBlocks`] if the design contains FL/CL
/// native blocks, or [`TranslateError::Structure`] if two modules would
/// get one name.
///
/// # Examples
///
/// ```
/// use mtl_stdlib::MuxReg;
/// use mtl_translate::translate;
///
/// let design = mtl_core::elaborate(&MuxReg::default()).unwrap();
/// let verilog = translate(&design).unwrap();
/// assert!(verilog.contains("module MuxReg"));
/// assert!(verilog.contains("always @(posedge clk)"));
/// ```
pub fn translate(design: &Design) -> Result<String, TranslateError> {
    let natives: Vec<String> = design
        .blocks()
        .iter()
        .enumerate()
        .filter(|(_, b)| matches!(b.body, BlockBody::Native(..)))
        .map(|(i, _)| design.block_path(mtl_core::BlockId::from_index(i)))
        .collect();
    if !natives.is_empty() {
        return Err(TranslateError::NativeBlocks(natives));
    }

    // Emit each identity once, children before parents.
    let mut order: Vec<ModuleId> = Vec::new();
    postorder(design, design.top(), &mut order);
    let (stand_ins, names) = module_names(design, &order);
    let mut emitted = HashSet::new();
    let mut out = String::new();
    for m in order.into_iter().filter(|&m| stand_ins[m.index()] == m) {
        let name = &names[m.index()];
        if !emitted.insert(name) {
            return Err(TranslateError::Structure(format!("two modules named `{name}`")));
        }
        emit_module(design, m, &names, &mut out);
    }
    Ok(out)
}

/// Per module, the module whose Verilog stands for it, and its Verilog
/// name, from `order` (children first). The first module of a key stands
/// for every later one; a module without a key stands for itself. The
/// stand-ins of one label are numbered `_1`, `_2`, ... in `order`, if
/// there are two.
fn module_names(design: &Design, order: &[ModuleId]) -> (Vec<ModuleId>, Vec<String>) {
    let n = design.modules().len();
    let (mut stand_ins, mut ordinals) = (vec![design.top(); n], vec![0; n]);
    let (mut firsts, mut per_label) = (HashMap::new(), HashMap::<&str, usize>::new());
    for &m in order {
        let (i, info) = (m.index(), design.module(m));
        let stand_in = info.key.map_or(m, |key| *firsts.entry(key).or_insert(m));
        if stand_in == m {
            *per_label.entry(&info.component).or_default() += 1;
            ordinals[i] = per_label[info.component.as_str()];
        }
        (stand_ins[i], ordinals[i]) = (stand_in, ordinals[stand_in.index()]);
    }
    let names = design.modules().iter().zip(ordinals);
    let names = names.map(|(info, k)| match per_label[info.component.as_str()] {
        1 => info.component.clone(),
        _ => format!("{}_{k}", info.component),
    });
    (stand_ins, names.collect())
}

fn postorder(design: &Design, m: ModuleId, out: &mut Vec<ModuleId>) {
    for &c in &design.module(m).children {
        postorder(design, c, out);
    }
    out.push(m);
}

fn sanitize(name: &str) -> String {
    name.replace('.', "_")
}

/// Per-scope net naming: representative Verilog identifier for each net
/// visible inside module `m`.
struct Scope<'a> {
    design: &'a Design,
    /// net -> representative identifier in this scope
    rep: HashMap<NetId, String>,
    /// fresh wires that must be declared (name, width)
    fresh: Vec<(String, u32)>,
    /// net -> representative is written by an always block (declare reg)
    rep_is_reg: HashMap<NetId, bool>,
    /// (port name, rep name, port_drives_net) alias assigns
    aliases: Vec<(String, String, bool)>,
}

impl<'a> Scope<'a> {
    fn new(design: &'a Design, module: ModuleId) -> Self {
        let mut s = Scope {
            design,
            rep: HashMap::new(),
            fresh: Vec::new(),
            rep_is_reg: HashMap::new(),
            aliases: Vec::new(),
        };

        // Nets written by this module's own blocks.
        let mut block_written: HashSet<NetId> = HashSet::new();
        for b in design.blocks() {
            if b.module == module {
                for &w in &b.writes {
                    block_written.insert(design.net_of(w));
                }
            }
        }

        // Group this module's own signals by net.
        let mut groups: HashMap<NetId, Vec<SignalId>> = HashMap::new();
        let mut group_order: Vec<NetId> = Vec::new();
        for (i, sig) in design.signals().iter().enumerate() {
            if sig.module == module {
                let id = SignalId::from_index(i);
                let net = design.net_of(id);
                let entry = groups.entry(net).or_default();
                if entry.is_empty() {
                    group_order.push(net);
                }
                entry.push(id);
            }
        }

        for net in group_order {
            let members = &groups[&net];
            // The representative carries the value: prefer the local
            // source (an InPort or a block-written signal), else the
            // first member.
            let rep = members
                .iter()
                .copied()
                .find(|&m| {
                    design.signal(m).kind == SignalKind::InPort || block_written.contains(&net)
                })
                .unwrap_or(members[0]);
            // If the net is block-written, the rep must be the signal the
            // always block refers to; any member works since they share a
            // name via `name_of`, but it must be declared `reg`.
            let rep_name = sanitize(&design.signal(rep).name);
            s.rep.insert(net, rep_name.clone());
            s.rep_is_reg.insert(net, block_written.contains(&net));
            for &m in members {
                if m == rep {
                    continue;
                }
                let info = design.signal(m);
                match info.kind {
                    // Extra out ports observe the net.
                    SignalKind::OutPort => {
                        s.aliases.push((sanitize(&info.name), rep_name.clone(), false))
                    }
                    // Extra in ports drive the net (rare; only legal when
                    // the rep is not itself a source).
                    SignalKind::InPort => {
                        s.aliases.push((sanitize(&info.name), rep_name.clone(), true))
                    }
                    // Wires merge into the representative entirely.
                    SignalKind::Wire => {}
                }
            }
        }

        // Child ports with no module-level name get fresh wires.
        for &child in &design.module(module).children {
            for &p in &design.module(child).ports {
                let net = design.net_of(p);
                if let std::collections::hash_map::Entry::Vacant(e) = s.rep.entry(net) {
                    let name = format!("net_{}", net.index());
                    e.insert(name.clone());
                    s.rep_is_reg.insert(net, false);
                    s.fresh.push((name, design.signal(p).width));
                }
            }
        }
        s
    }

    fn name_of(&self, sig: SignalId) -> String {
        let net = self.design.net_of(sig);
        self.rep
            .get(&net)
            .cloned()
            .unwrap_or_else(|| panic!("no scope name for {}", self.design.signal_path(sig)))
    }

    /// Whether a signal is its net's representative in this scope.
    fn is_rep(&self, sig: SignalId) -> bool {
        self.name_of(sig) == sanitize(&self.design.signal(sig).name)
    }

    /// Whether the representative of `sig`'s net is written by an always
    /// block of this module (and must be declared `reg`).
    fn rep_reg(&self, sig: SignalId) -> bool {
        *self.rep_is_reg.get(&self.design.net_of(sig)).unwrap_or(&false)
    }
}

fn width_decl(width: u32) -> String {
    if width == 1 {
        String::new()
    } else {
        format!("[{}:0] ", width - 1)
    }
}

fn emit_module(design: &Design, m: ModuleId, names: &[String], out: &mut String) {
    let info = design.module(m);
    let scope = Scope::new(design, m);

    // Port list: clk plus declared ports (reset is an explicit port).
    let mut port_names = vec!["clk".to_string()];
    for &p in &info.ports {
        port_names.push(sanitize(&design.signal(p).name));
    }
    writeln!(out, "module {} (", names[m.index()]).unwrap();
    writeln!(out, "  {}", port_names.join(", ")).unwrap();
    writeln!(out, ");").unwrap();
    writeln!(out, "  input clk;").unwrap();
    for &p in &info.ports {
        let s = design.signal(p);
        let dir = match s.kind {
            SignalKind::InPort => "input",
            SignalKind::OutPort => "output",
            SignalKind::Wire => unreachable!("wire in port list"),
        };
        // Ports assigned in always blocks must be declared reg.
        let reg = if s.kind == SignalKind::OutPort && scope.is_rep(p) && scope.rep_reg(p) {
            " reg"
        } else {
            ""
        };
        writeln!(out, "  {dir}{reg} {}{};", width_decl(s.width), sanitize(&s.name)).unwrap();
    }

    // Wire declarations (only net representatives; merged aliases vanish).
    for (i, s) in design.signals().iter().enumerate() {
        if s.module == m && s.kind == SignalKind::Wire {
            let sig = SignalId::from_index(i);
            if !scope.is_rep(sig) {
                continue;
            }
            let kind = if scope.rep_reg(sig) { "reg" } else { "wire" };
            writeln!(out, "  {kind} {}{};", width_decl(s.width), sanitize(&s.name)).unwrap();
        }
    }
    for (name, width) in &scope.fresh {
        writeln!(out, "  wire {}{};", width_decl(*width), name).unwrap();
    }

    // Memory declarations.
    for (i, mem) in design.mems().iter().enumerate() {
        if mem.module == m {
            let _ = MemId::from_index(i);
            writeln!(
                out,
                "  reg {}{} [0:{}];",
                width_decl(mem.width),
                sanitize(&mem.name),
                mem.words - 1
            )
            .unwrap();
        }
    }

    // Alias assigns for non-representative ports sharing a net.
    for (port, rep, port_drives) in &scope.aliases {
        if *port_drives {
            writeln!(out, "  assign {rep} = {port};").unwrap();
        } else {
            writeln!(out, "  assign {port} = {rep};").unwrap();
        }
    }

    // Ties, each in the module that names its net highest.
    for &(net, value) in design.ties() {
        if let Some(sig) = tie_site(design, net).filter(|&s| tie_home(design, s) == m) {
            writeln!(out, "  assign {} = {}'h{value:x};", scope.name_of(sig), value.width())
                .unwrap();
        }
    }

    // Child instances.
    for &child in &info.children {
        let cinfo = design.module(child);
        writeln!(out, "  {} {} (", names[child.index()], sanitize(&cinfo.name)).unwrap();
        let mut pins = vec!["    .clk(clk)".to_string()];
        for &p in &cinfo.ports {
            let pname = sanitize(&design.signal(p).name);
            pins.push(format!("    .{pname}({})", scope.name_of(p)));
        }
        writeln!(out, "{}", pins.join(",\n")).unwrap();
        writeln!(out, "  );").unwrap();
    }

    // Behavioral blocks.
    for block in design.blocks() {
        if block.module != m {
            continue;
        }
        let BlockBody::Ir(body) = &block.body else { unreachable!("natives rejected") };
        let ids = body.ids();
        match block.kind {
            BlockKind::Comb => {
                writeln!(out, "  // {}", block.name).unwrap();
                writeln!(out, "  always @(*) begin").unwrap();
                for s in body.stmts() {
                    emit_stmt(design, &scope, ids, s, false, 2, out);
                }
                writeln!(out, "  end").unwrap();
            }
            BlockKind::Seq => {
                writeln!(out, "  // {}", block.name).unwrap();
                writeln!(out, "  always @(posedge clk) begin").unwrap();
                for s in body.stmts() {
                    emit_stmt(design, &scope, ids, s, true, 2, out);
                }
                writeln!(out, "  end").unwrap();
            }
        }
    }

    writeln!(out, "endmodule").unwrap();
    writeln!(out).unwrap();
}

/// The module whose Verilog holds a signal's tie: a child's input port is
/// driven from its parent, anything else from its own module.
fn tie_home(design: &Design, sig: SignalId) -> ModuleId {
    let info = design.signal(sig);
    let parent = design.module(info.module).parent;
    match parent {
        Some(parent) if info.kind == SignalKind::InPort => parent,
        _ => info.module,
    }
}

/// The member of a tied net whose [`tie_home`] is the shallowest module:
/// where the `assign` goes, so every instance of the module that ties it
/// carries it.
fn tie_site(design: &Design, net: NetId) -> Option<SignalId> {
    let depth = |m: ModuleId| std::iter::successors(Some(m), |&m| design.module(m).parent).count();
    let signals = design.net(net).signals.iter().copied();
    signals.min_by_key(|&s| depth(tie_home(design, s)))
}

fn indent(level: usize) -> String {
    "  ".repeat(level + 1)
}

fn emit_stmt(
    design: &Design,
    scope: &Scope<'_>,
    ids: IdOffsets,
    stmt: &Stmt,
    seq: bool,
    level: usize,
    out: &mut String,
) {
    let ind = indent(level);
    let assign_op = if seq { "<=" } else { "=" };
    match stmt {
        Stmt::Assign(lv, e) => {
            let rhs = emit_expr(design, scope, ids, e);
            let name = scope.name_of(ids.signal(lv.signal));
            let w = design.signal(ids.signal(lv.signal)).width;
            if lv.lo == 0 && lv.hi == w {
                writeln!(out, "{ind}{name} {assign_op} {rhs};").unwrap();
            } else if lv.width() == 1 {
                writeln!(out, "{ind}{name}[{}] {assign_op} {rhs};", lv.lo).unwrap();
            } else {
                writeln!(out, "{ind}{name}[{}:{}] {assign_op} {rhs};", lv.hi - 1, lv.lo).unwrap();
            }
        }
        Stmt::If { cond, then_, else_ } => {
            writeln!(out, "{ind}if ({}) begin", emit_expr(design, scope, ids, cond)).unwrap();
            for s in then_ {
                emit_stmt(design, scope, ids, s, seq, level + 1, out);
            }
            if else_.is_empty() {
                writeln!(out, "{ind}end").unwrap();
            } else {
                writeln!(out, "{ind}end else begin").unwrap();
                for s in else_ {
                    emit_stmt(design, scope, ids, s, seq, level + 1, out);
                }
                writeln!(out, "{ind}end").unwrap();
            }
        }
        Stmt::Switch { subject, arms, default } => {
            writeln!(out, "{ind}case ({})", emit_expr(design, scope, ids, subject)).unwrap();
            for (k, body) in arms {
                writeln!(out, "{ind}  {}'h{:x}: begin", k.width(), k).unwrap();
                for s in body {
                    emit_stmt(design, scope, ids, s, seq, level + 2, out);
                }
                writeln!(out, "{ind}  end").unwrap();
            }
            writeln!(out, "{ind}  default: begin").unwrap();
            for s in default {
                emit_stmt(design, scope, ids, s, seq, level + 2, out);
            }
            writeln!(out, "{ind}  end").unwrap();
            writeln!(out, "{ind}endcase").unwrap();
        }
        Stmt::MemWrite { mem, addr, data } => {
            let m = design.mem(ids.mem(*mem));
            writeln!(
                out,
                "{ind}{}[{}] {assign_op} {};",
                sanitize(&m.name),
                emit_expr(design, scope, ids, addr),
                emit_expr(design, scope, ids, data)
            )
            .unwrap();
        }
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Sra => ">>>",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Ge => ">=",
        BinOp::LtS => "<",
        BinOp::GeS => ">=",
    }
}

fn emit_expr(design: &Design, scope: &Scope<'_>, ids: IdOffsets, e: &Expr) -> String {
    match e {
        Expr::Read(sig) => scope.name_of(ids.signal(*sig)),
        Expr::Const(c) => format!("{}'h{:x}", c.width(), c),
        Expr::Slice { expr, lo, hi } => {
            let inner = emit_expr(design, scope, ids, expr);
            if hi - lo == 1 {
                format!("({inner}[{lo}])",)
            } else {
                format!("({inner}[{}:{}])", hi - 1, lo)
            }
        }
        Expr::Concat(parts) => {
            let items: Vec<String> =
                parts.iter().map(|p| emit_expr(design, scope, ids, p)).collect();
            format!("{{{}}}", items.join(", "))
        }
        Expr::Unary(op, a) => {
            let inner = emit_expr(design, scope, ids, a);
            match op {
                UnaryOp::Not => format!("(~{inner})"),
                UnaryOp::Neg => format!("(-{inner})"),
                UnaryOp::ReduceAnd => format!("(&{inner})"),
                UnaryOp::ReduceOr => format!("(|{inner})"),
                UnaryOp::ReduceXor => format!("(^{inner})"),
            }
        }
        Expr::Binary(op, a, b) => {
            let lhs = emit_expr(design, scope, ids, a);
            let rhs = emit_expr(design, scope, ids, b);
            match op {
                BinOp::LtS | BinOp::GeS => {
                    format!("($signed({lhs}) {} $signed({rhs}))", binop_str(*op))
                }
                BinOp::Sra => format!("($signed({lhs}) >>> {rhs})"),
                _ => format!("({lhs} {} {rhs})", binop_str(*op)),
            }
        }
        Expr::Mux { cond, then_, else_ } => format!(
            "({} ? {} : {})",
            emit_expr(design, scope, ids, cond),
            emit_expr(design, scope, ids, then_),
            emit_expr(design, scope, ids, else_)
        ),
        Expr::Select { sel, options } => {
            // Nested ternaries; the last option is the default.
            let sel_s = emit_expr(design, scope, ids, sel);
            let mut s = emit_expr(design, scope, ids, options.last().expect("select options"));
            let sel_w = design.expr_width(ids, sel);
            for (i, o) in options.iter().enumerate().rev().skip(1) {
                s = format!(
                    "(({sel_s} == {sel_w}'h{i:x}) ? {} : {s})",
                    emit_expr(design, scope, ids, o)
                );
            }
            s
        }
        Expr::Zext(a, w) => {
            let iw = design.expr_width(ids, a);
            let pad = w - iw;
            if pad == 0 {
                emit_expr(design, scope, ids, a)
            } else {
                format!("{{{pad}'h0, {}}}", emit_expr(design, scope, ids, a))
            }
        }
        Expr::Sext(a, w) => {
            // Expression-only sign extension: test the sign bit and OR in
            // the extension mask.
            let iw = design.expr_width(ids, a);
            if *w == iw {
                return emit_expr(design, scope, ids, a);
            }
            let inner = emit_expr(design, scope, ids, a);
            let ext: u128 = (mask(*w)) & !mask(iw);
            format!(
                "((|(({inner} >> 8'h{:x}) & {iw}'h1)) ? ({{{}'h0, {inner}}} | {w}'h{ext:x}) : {{{}'h0, {inner}}})",
                iw - 1,
                w - iw,
                w - iw
            )
        }
        Expr::Trunc(a, w) => {
            let inner = emit_expr(design, scope, ids, a);
            if *w == 1 {
                format!("({inner}[0])")
            } else {
                format!("({inner}[{}:0])", w - 1)
            }
        }
        Expr::MemRead { mem, addr } => {
            let m = design.mem(ids.mem(*mem));
            format!("{}[{}]", sanitize(&m.name), emit_expr(design, scope, ids, addr))
        }
    }
}

fn mask(w: u32) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}
