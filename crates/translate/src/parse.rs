//! A parser for the Verilog-2001 subset emitted by [`translate`].
//!
//! This closes the SimJIT-RTL loop the way Verilator does for PyMTL: the
//! emitted Verilog is re-parsed into a [`VerilogLibrary`] whose modules can
//! be re-elaborated as ordinary components and simulated. Round-tripping a
//! design through text and comparing traces is the repository's analog of
//! the paper's `--test-verilog` flow.
//!
//! [`translate`]: crate::translate

use std::collections::{HashMap, HashSet};
use std::fmt;

use mtl_bits::Bits;
use mtl_core::{Component, Ctx, Expr, Key, Keyed, MemRef, SignalRef};

/// Error produced while parsing Verilog source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerilogError {
    message: String,
    line: usize,
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verilog parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseVerilogError {}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    /// A sized literal like `8'hff`.
    Literal(Bits),
    /// A bare decimal integer (indices, ranges).
    Int(u64),
    Punct(&'static str),
    Eof,
}

struct Lexer {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

const PUNCTS: &[&str] = &[
    "<<", ">>>", ">>", "==", "!=", "<=", ">=", "(", ")", "[", "]", "{", "}", ",", ";", ":", "?",
    "=", "<", ">", "+", "-", "*", "&", "|", "^", "~", ".", "@", "#",
];

fn lex(src: &str) -> Result<Lexer, ParseVerilogError> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_digit() {
            // Either a sized literal (starts with width then ') or an int.
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'\'' {
                // Sized literal: width ' base digits
                i += 1; // '
                let base_start = i;
                i += 1; // base char
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let text = &src[start..i];
                let lit: Bits = text.parse().map_err(|e| ParseVerilogError {
                    message: format!("bad literal `{text}`: {e}"),
                    line,
                })?;
                let _ = base_start;
                toks.push((Tok::Literal(lit), line));
            } else {
                let v: u64 = src[start..i].parse().map_err(|_| ParseVerilogError {
                    message: format!("bad integer `{}`", &src[start..i]),
                    line,
                })?;
                toks.push((Tok::Int(v), line));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let start = i;
            i += 1;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || bytes[i] == b'$')
            {
                i += 1;
            }
            toks.push((Tok::Ident(src[start..i].to_string()), line));
            continue;
        }
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                toks.push((Tok::Punct(p), line));
                i += p.len();
                continue 'outer;
            }
        }
        return Err(ParseVerilogError { message: format!("unexpected character `{c}`"), line });
    }
    toks.push((Tok::Eof, line));
    Ok(Lexer { toks, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseVerilogError {
        ParseVerilogError { message: msg.into(), line: self.line() }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseVerilogError> {
        match self.next() {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(self.err(format!("expected `{p}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseVerilogError> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseVerilogError> {
        match self.next() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.next();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_int(&mut self) -> Result<u64, ParseVerilogError> {
        match self.next() {
            Tok::Int(v) => Ok(v),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    In,
    Out,
}

#[derive(Debug, Clone)]
struct PortDecl {
    dir: Dir,
    width: u32,
    name: String,
}

#[derive(Debug, Clone)]
struct NetDecl {
    width: u32,
    name: String,
}

#[derive(Debug, Clone)]
struct MemDecl {
    width: u32,
    words: u64,
    name: String,
}

/// A prefix operator of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VUnOp {
    Not,
    Neg,
    ReduceAnd,
    ReduceOr,
    ReduceXor,
}

/// An infix operator of the subset: the lexer's punctuation, resolved
/// once at parse time, so re-elaboration has no spelling left to reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VBinOp {
    Or,
    Xor,
    And,
    Eq,
    Ne,
    Lt,
    Ge,
    Le,
    Gt,
    Shl,
    Shr,
    Sra,
    Add,
    Sub,
    Mul,
}

#[derive(Debug, Clone)]
enum VExpr {
    Ident(String),
    Lit(Bits),
    Part { base: Box<VExpr>, hi: u64, lo: u64 },
    Index { base: String, index: Box<VExpr> },
    Concat(Vec<VExpr>),
    Unary(VUnOp, Box<VExpr>),
    Binary(VBinOp, Box<VExpr>, Box<VExpr>),
    Ternary(Box<VExpr>, Box<VExpr>, Box<VExpr>),
    Signed(Box<VExpr>),
}

#[derive(Debug, Clone)]
enum VLValue {
    Full(String),
    Part { name: String, hi: u64, lo: u64 },
    MemIndex { name: String, index: VExpr },
}

#[derive(Debug, Clone)]
enum VStmt {
    Assign(VLValue, VExpr),
    If { cond: VExpr, then_: Vec<VStmt>, else_: Vec<VStmt> },
    Case { subject: VExpr, arms: Vec<(Bits, Vec<VStmt>)>, default: Vec<VStmt> },
}

#[derive(Debug, Clone)]
struct AlwaysBlock {
    seq: bool,
    stmts: Vec<VStmt>,
}

#[derive(Debug, Clone)]
struct InstanceDecl {
    module: String,
    name: String,
    /// (port name, connected identifier)
    pins: Vec<(String, String)>,
    /// The source line the instance starts on.
    line: usize,
}

#[derive(Debug, Clone)]
struct ParsedModule {
    name: String,
    ports: Vec<PortDecl>,
    wires: Vec<NetDecl>,
    mems: Vec<MemDecl>,
    assigns: Vec<(VLValue, VExpr)>,
    instances: Vec<InstanceDecl>,
    always: Vec<AlwaysBlock>,
}

/// Visits every identifier the item mentions, with whether it names a
/// memory (an indexed base) rather than a signal.
impl VExpr {
    fn names(&self, f: &mut impl FnMut(&str, bool)) {
        match self {
            VExpr::Ident(name) => f(name, false),
            VExpr::Lit(_) => {}
            VExpr::Index { base, index } => {
                f(base, true);
                index.names(f);
            }
            VExpr::Part { base: a, .. } | VExpr::Unary(_, a) | VExpr::Signed(a) => a.names(f),
            VExpr::Concat(parts) => parts.iter().for_each(|part| part.names(f)),
            VExpr::Binary(_, a, b) => {
                a.names(f);
                b.names(f);
            }
            VExpr::Ternary(c, t, e) => {
                c.names(f);
                t.names(f);
                e.names(f);
            }
        }
    }
}

impl VLValue {
    fn names(&self, f: &mut impl FnMut(&str, bool)) {
        match self {
            VLValue::Full(name) | VLValue::Part { name, .. } => f(name, false),
            VLValue::MemIndex { name, index } => {
                f(name, true);
                index.names(f);
            }
        }
    }
}

fn stmt_names(stmts: &[VStmt], f: &mut impl FnMut(&str, bool)) {
    for stmt in stmts {
        match stmt {
            VStmt::Assign(lv, rhs) => {
                lv.names(f);
                rhs.names(f);
            }
            VStmt::If { cond, then_, else_ } => {
                cond.names(f);
                stmt_names(then_, f);
                stmt_names(else_, f);
            }
            VStmt::Case { subject, arms, default } => {
                subject.names(f);
                arms.iter().for_each(|(_, body)| stmt_names(body, f));
                stmt_names(default, f);
            }
        }
    }
}

/// A parsed collection of Verilog modules that can be re-elaborated as
/// RustMTL components.
#[derive(Debug, Clone)]
pub struct VerilogLibrary {
    modules: HashMap<String, ParsedModule>,
    order: Vec<String>,
}

impl VerilogLibrary {
    /// Parses Verilog source (the subset emitted by
    /// [`translate`](crate::translate)).
    ///
    /// Beyond the syntax, a library that parses holds at least one
    /// module, every name a module mentions is declared in it, every
    /// instance names a module of the library and connects only that
    /// module's ports, and no module contains itself, directly or through
    /// others. Elaboration relies on all four; a source that breaks one
    /// is refused here, at its line.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseVerilogError`] pointing at the offending line.
    pub fn parse(src: &str) -> Result<Self, ParseVerilogError> {
        let mut lx = lex(src)?;
        let mut modules = HashMap::new();
        let mut order = Vec::new();
        while !matches!(lx.peek(), Tok::Eof) {
            let m = parse_module(&mut lx)?;
            order.push(m.name.clone());
            modules.insert(m.name.clone(), m);
        }
        if order.is_empty() {
            return Err(lx.err("no module in source"));
        }
        let lib = Self { modules, order };
        lib.check_instances()?;
        lib.check_acyclic()?;
        Ok(lib)
    }

    /// Every instance names a module of the library and connects only
    /// its ports (`clk` and the implicit `reset` included).
    fn check_instances(&self) -> Result<(), ParseVerilogError> {
        for m in self.order.iter().map(|name| &self.modules[name]) {
            for inst in &m.instances {
                let at = |message| Err(ParseVerilogError { message, line: inst.line });
                let Some(child) = self.modules.get(&inst.module) else {
                    return at(format!(
                        "module `{}` instantiates undeclared module `{}` as `{}`",
                        m.name, inst.module, inst.name
                    ));
                };
                let is_port = |pin: &String| {
                    pin == "clk" || pin == "reset" || child.ports.iter().any(|p| p.name == *pin)
                };
                if let Some((pin, _)) = inst.pins.iter().find(|(pin, _)| !is_port(pin)) {
                    return at(format!(
                        "instance `{}` connects `{pin}`, which is not a port of module `{}`",
                        inst.name, inst.module
                    ));
                }
            }
        }
        Ok(())
    }

    /// No module contains itself: a depth-first walk of the instance
    /// graph, with an explicit stack so a deep hierarchy cannot overflow
    /// the parser's own.
    fn check_acyclic(&self) -> Result<(), ParseVerilogError> {
        let mut done: HashSet<&str> = HashSet::new();
        for root in &self.order {
            // (module, index of its next instance to visit)
            let mut path: Vec<(&str, usize)> = vec![(root.as_str(), 0)];
            while let Some(&mut (name, ref mut next)) = path.last_mut() {
                let Some(inst) = self.modules[name].instances.get(*next) else {
                    done.insert(name);
                    path.pop();
                    continue;
                };
                *next += 1;
                let child = inst.module.as_str();
                if let Some(from) = path.iter().position(|&(m, _)| m == child) {
                    let cycle: Vec<&str> = path[from..].iter().map(|&(m, _)| m).collect();
                    let message = format!(
                        "instance `{}` makes module `{child}` contain itself: {} -> {child}",
                        inst.name,
                        cycle.join(" -> ")
                    );
                    return Err(ParseVerilogError { message, line: inst.line });
                }
                if !done.contains(child) {
                    path.push((child, 0));
                }
            }
        }
        Ok(())
    }

    /// Names of the parsed modules, in source order (top last).
    pub fn module_names(&self) -> &[String] {
        &self.order
    }

    /// Returns a component that elaborates the named module (and its
    /// submodules, resolved within this library).
    ///
    /// # Panics
    ///
    /// Panics if the module does not exist; check
    /// [`module_names`](Self::module_names) first.
    pub fn component<'a>(&'a self, name: &str) -> VerilogComponent<'a> {
        let module = self
            .modules
            .get(name)
            .unwrap_or_else(|| panic!("no module `{name}` in library; have {:?}", self.order));
        VerilogComponent { lib: self, module }
    }

    /// The last module in the file — by emission convention, the top.
    pub fn top_component(&self) -> VerilogComponent<'_> {
        self.component(self.order.last().expect("parse rejects a source without modules"))
    }
}

fn parse_width_spec(lx: &mut Lexer) -> Result<u32, ParseVerilogError> {
    // Optional [msb:0]
    if lx.eat_punct("[") {
        let msb = lx.expect_int()?;
        lx.expect_punct(":")?;
        let lsb = lx.expect_int()?;
        lx.expect_punct("]")?;
        if lsb != 0 {
            return Err(lx.err("only [msb:0] ranges supported"));
        }
        Ok(msb as u32 + 1)
    } else {
        Ok(1)
    }
}

fn parse_module(lx: &mut Lexer) -> Result<ParsedModule, ParseVerilogError> {
    lx.expect_keyword("module")?;
    let name = lx.expect_ident()?;
    lx.expect_punct("(")?;
    // Port name list (names repeated in declarations below).
    while !lx.eat_punct(")") {
        match lx.next() {
            Tok::Ident(_) => {}
            Tok::Punct(",") => {}
            other => return Err(lx.err(format!("unexpected token in port list: {other:?}"))),
        }
    }
    lx.expect_punct(";")?;

    let mut m = ParsedModule {
        name,
        ports: Vec::new(),
        wires: Vec::new(),
        mems: Vec::new(),
        assigns: Vec::new(),
        instances: Vec::new(),
        always: Vec::new(),
    };

    // Every name an item mentions, whether it is used as a memory, and the
    // line the item starts on; resolved once all declarations are in.
    let mut uses: Vec<(String, bool, usize)> = Vec::new();
    loop {
        let line = lx.line();
        let mut used = |name: &str, is_mem: bool| uses.push((name.to_string(), is_mem, line));
        if lx.eat_keyword("endmodule") {
            break;
        }
        if lx.eat_keyword("input") {
            let width = parse_width_spec(lx)?;
            let pname = lx.expect_ident()?;
            lx.expect_punct(";")?;
            if pname != "clk" {
                m.ports.push(PortDecl { dir: Dir::In, width, name: pname });
            }
        } else if lx.eat_keyword("output") {
            let _reg = lx.eat_keyword("reg");
            let width = parse_width_spec(lx)?;
            let pname = lx.expect_ident()?;
            lx.expect_punct(";")?;
            m.ports.push(PortDecl { dir: Dir::Out, width, name: pname });
        } else if lx.eat_keyword("wire") {
            let width = parse_width_spec(lx)?;
            let wname = lx.expect_ident()?;
            lx.expect_punct(";")?;
            m.wires.push(NetDecl { width, name: wname });
        } else if lx.eat_keyword("reg") {
            let width = parse_width_spec(lx)?;
            let rname = lx.expect_ident()?;
            if lx.eat_punct("[") {
                // Memory: reg [w:0] name [0:N];
                let lo = lx.expect_int()?;
                lx.expect_punct(":")?;
                let hi = lx.expect_int()?;
                lx.expect_punct("]")?;
                lx.expect_punct(";")?;
                if lo != 0 {
                    return Err(lx.err("memory ranges must start at 0"));
                }
                m.mems.push(MemDecl { width, words: hi + 1, name: rname });
            } else {
                lx.expect_punct(";")?;
                m.wires.push(NetDecl { width, name: rname });
            }
        } else if lx.eat_keyword("assign") {
            let lv = parse_lvalue(lx)?;
            lx.expect_punct("=")?;
            let rhs = parse_expr(lx)?;
            lx.expect_punct(";")?;
            lv.names(&mut used);
            rhs.names(&mut used);
            m.assigns.push((lv, rhs));
        } else if lx.eat_keyword("always") {
            lx.expect_punct("@")?;
            lx.expect_punct("(")?;
            let seq = if lx.eat_punct("*") {
                false
            } else {
                lx.expect_keyword("posedge")?;
                lx.expect_keyword("clk")?;
                true
            };
            lx.expect_punct(")")?;
            lx.expect_keyword("begin")?;
            let stmts = parse_stmts(lx)?;
            stmt_names(&stmts, &mut used);
            m.always.push(AlwaysBlock { seq, stmts });
        } else {
            // Module instance: MODNAME instname ( .pin(net), ... );
            let line = lx.line();
            let module = lx.expect_ident()?;
            let iname = lx.expect_ident()?;
            lx.expect_punct("(")?;
            let mut pins = Vec::new();
            loop {
                if lx.eat_punct(")") {
                    break;
                }
                lx.eat_punct(",");
                if lx.eat_punct(")") {
                    break;
                }
                lx.expect_punct(".")?;
                let pin = lx.expect_ident()?;
                lx.expect_punct("(")?;
                let net = lx.expect_ident()?;
                lx.expect_punct(")")?;
                if pin != "clk" {
                    used(&net, false);
                }
                pins.push((pin, net));
            }
            lx.expect_punct(";")?;
            m.instances.push(InstanceDecl { module, name: iname, pins, line });
        }
    }

    let signals: HashSet<&str> = std::iter::once("reset")
        .chain(m.ports.iter().map(|p| p.name.as_str()))
        .chain(m.wires.iter().map(|w| w.name.as_str()))
        .collect();
    let mems: HashSet<&str> = m.mems.iter().map(|mem| mem.name.as_str()).collect();
    for (name, is_mem, line) in &uses {
        let (table, what) = if *is_mem { (&mems, "memory") } else { (&signals, "signal") };
        if !table.contains(name.as_str()) {
            let message = format!("module `{}` uses undeclared {what} `{name}`", m.name);
            return Err(ParseVerilogError { message, line: *line });
        }
    }
    Ok(m)
}

fn parse_lvalue(lx: &mut Lexer) -> Result<VLValue, ParseVerilogError> {
    let name = lx.expect_ident()?;
    if lx.eat_punct("[") {
        // Either [int], [int:int], or [expr] (memory write).
        if let Tok::Int(hi) = lx.peek().clone() {
            if matches!(lx.peek2(), Tok::Punct(":") | Tok::Punct("]")) {
                lx.next();
                if lx.eat_punct(":") {
                    let lo = lx.expect_int()?;
                    lx.expect_punct("]")?;
                    return Ok(VLValue::Part { name, hi, lo });
                }
                lx.expect_punct("]")?;
                return Ok(VLValue::Part { name, hi, lo: hi });
            }
        }
        let index = parse_expr(lx)?;
        lx.expect_punct("]")?;
        return Ok(VLValue::MemIndex { name, index });
    }
    Ok(VLValue::Full(name))
}

fn parse_stmts(lx: &mut Lexer) -> Result<Vec<VStmt>, ParseVerilogError> {
    let mut stmts = Vec::new();
    loop {
        if lx.eat_keyword("end") {
            return Ok(stmts);
        }
        stmts.push(parse_stmt(lx)?);
    }
}

fn parse_stmt(lx: &mut Lexer) -> Result<VStmt, ParseVerilogError> {
    if lx.eat_keyword("if") {
        lx.expect_punct("(")?;
        let cond = parse_expr(lx)?;
        lx.expect_punct(")")?;
        lx.expect_keyword("begin")?;
        let then_ = parse_stmts(lx)?;
        let else_ = if lx.eat_keyword("else") {
            lx.expect_keyword("begin")?;
            parse_stmts(lx)?
        } else {
            Vec::new()
        };
        return Ok(VStmt::If { cond, then_, else_ });
    }
    if lx.eat_keyword("case") {
        lx.expect_punct("(")?;
        let subject = parse_expr(lx)?;
        lx.expect_punct(")")?;
        let mut arms = Vec::new();
        let mut default = Vec::new();
        loop {
            if lx.eat_keyword("endcase") {
                break;
            }
            if lx.eat_keyword("default") {
                lx.expect_punct(":")?;
                lx.expect_keyword("begin")?;
                default = parse_stmts(lx)?;
            } else {
                let key = match lx.next() {
                    Tok::Literal(k) => k,
                    other => return Err(lx.err(format!("expected case key, found {other:?}"))),
                };
                lx.expect_punct(":")?;
                lx.expect_keyword("begin")?;
                let body = parse_stmts(lx)?;
                arms.push((key, body));
            }
        }
        return Ok(VStmt::Case { subject, arms, default });
    }
    // Assignment (blocking or non-blocking).
    let lv = parse_lvalue(lx)?;
    if !lx.eat_punct("<=") {
        lx.expect_punct("=")?;
    }
    let rhs = parse_expr(lx)?;
    lx.expect_punct(";")?;
    Ok(VStmt::Assign(lv, rhs))
}

// Expression parsing with precedence climbing.
fn parse_expr(lx: &mut Lexer) -> Result<VExpr, ParseVerilogError> {
    parse_ternary(lx)
}

fn parse_ternary(lx: &mut Lexer) -> Result<VExpr, ParseVerilogError> {
    let cond = parse_binary(lx, 0)?;
    if lx.eat_punct("?") {
        let t = parse_ternary(lx)?;
        lx.expect_punct(":")?;
        let f = parse_ternary(lx)?;
        Ok(VExpr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
    } else {
        Ok(cond)
    }
}

/// Infix operators by precedence, loosest first.
const BIN_LEVELS: &[&[(&str, VBinOp)]] = &[
    &[("|", VBinOp::Or)],
    &[("^", VBinOp::Xor)],
    &[("&", VBinOp::And)],
    &[("==", VBinOp::Eq), ("!=", VBinOp::Ne)],
    &[("<", VBinOp::Lt), (">=", VBinOp::Ge), ("<=", VBinOp::Le), (">", VBinOp::Gt)],
    &[("<<", VBinOp::Shl), (">>", VBinOp::Shr), (">>>", VBinOp::Sra)],
    &[("+", VBinOp::Add), ("-", VBinOp::Sub)],
    &[("*", VBinOp::Mul)],
];

const UNARY_OPS: &[(&str, VUnOp)] = &[
    ("~", VUnOp::Not),
    ("-", VUnOp::Neg),
    ("&", VUnOp::ReduceAnd),
    ("|", VUnOp::ReduceOr),
    ("^", VUnOp::ReduceXor),
];

/// The operator of `ops` spelled by the next token, if any.
fn peek_op<T: Copy>(lx: &Lexer, ops: &[(&str, T)]) -> Option<T> {
    let Tok::Punct(p) = lx.peek() else { return None };
    ops.iter().find(|(spelling, _)| spelling == p).map(|&(_, op)| op)
}

fn parse_binary(lx: &mut Lexer, level: usize) -> Result<VExpr, ParseVerilogError> {
    if level >= BIN_LEVELS.len() {
        return parse_unary(lx);
    }
    let mut lhs = parse_binary(lx, level + 1)?;
    while let Some(op) = peek_op(lx, BIN_LEVELS[level]) {
        lx.next();
        let rhs = parse_binary(lx, level + 1)?;
        lhs = VExpr::Binary(op, Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_unary(lx: &mut Lexer) -> Result<VExpr, ParseVerilogError> {
    match peek_op(lx, UNARY_OPS) {
        Some(op) => {
            lx.next();
            let inner = parse_unary(lx)?;
            Ok(VExpr::Unary(op, Box::new(inner)))
        }
        None => parse_postfix(lx),
    }
}

fn parse_postfix(lx: &mut Lexer) -> Result<VExpr, ParseVerilogError> {
    let mut e = parse_primary(lx)?;
    while lx.eat_punct("[") {
        // Part select on an expression or identifier, or memory index.
        if let Tok::Int(hi) = lx.peek().clone() {
            if matches!(lx.peek2(), Tok::Punct(":") | Tok::Punct("]")) {
                lx.next();
                if lx.eat_punct(":") {
                    let lo = lx.expect_int()?;
                    lx.expect_punct("]")?;
                    e = VExpr::Part { base: Box::new(e), hi, lo };
                } else {
                    lx.expect_punct("]")?;
                    e = VExpr::Part { base: Box::new(e), hi, lo: hi };
                }
                continue;
            }
        }
        let index = parse_expr(lx)?;
        lx.expect_punct("]")?;
        match e {
            VExpr::Ident(name) => e = VExpr::Index { base: name, index: Box::new(index) },
            _ => return Err(lx.err("dynamic index on non-identifier")),
        }
    }
    Ok(e)
}

fn parse_primary(lx: &mut Lexer) -> Result<VExpr, ParseVerilogError> {
    match lx.next() {
        Tok::Punct("(") => {
            let e = parse_expr(lx)?;
            lx.expect_punct(")")?;
            Ok(e)
        }
        Tok::Punct("{") => {
            let mut parts = Vec::new();
            loop {
                parts.push(parse_expr(lx)?);
                if lx.eat_punct("}") {
                    break;
                }
                lx.expect_punct(",")?;
            }
            Ok(VExpr::Concat(parts))
        }
        Tok::Ident(s) if s == "$signed" => {
            lx.expect_punct("(")?;
            let e = parse_expr(lx)?;
            lx.expect_punct(")")?;
            Ok(VExpr::Signed(Box::new(e)))
        }
        Tok::Ident(s) => Ok(VExpr::Ident(s)),
        Tok::Literal(v) => Ok(VExpr::Lit(v)),
        // Bare integers appear as shift amounts; treat as 32-bit constants
        // (shift-amount width is irrelevant to the IR semantics).
        Tok::Int(v) => Ok(VExpr::Lit(Bits::new(32, v as u128))),
        other => Err(lx.err(format!("unexpected token in expression: {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Re-elaboration as a Component
// ---------------------------------------------------------------------------

/// A parsed Verilog module viewed as a RustMTL [`Component`].
///
/// Elaborating this component reconstructs the design (hierarchy, signals,
/// IR blocks) from the Verilog text, enabling translated-and-reparsed
/// co-simulation.
pub struct VerilogComponent<'a> {
    lib: &'a VerilogLibrary,
    module: &'a ParsedModule,
}

struct NameEnv {
    signals: HashMap<String, SignalRef>,
    mems: HashMap<String, MemRef>,
}

/// `parse_module` resolved every name a module mentions against its
/// declarations, which `build` enters here: the lookups cannot miss.
impl NameEnv {
    fn sig(&self, name: &str) -> SignalRef {
        self.signals[name]
    }

    fn mem(&self, name: &str) -> MemRef {
        self.mems[name]
    }
}

/// What a [`VerilogComponent`] builds from: its library and its module's
/// name. The library is borrowed for the whole elaboration, so no other
/// library can sit at its address meanwhile.
#[derive(Hash)]
struct ModuleKey {
    lib: usize,
    module: String,
}

/// Keyed by library and module, so a re-parsed design stamps its repeated
/// modules and re-translates to one Verilog module per parsed one.
impl Keyed for VerilogComponent<'_> {
    fn key(&self) -> Option<Key> {
        let lib = std::ptr::from_ref(self.lib) as usize;
        ModuleKey { lib, module: self.module.name.clone() }.key()
    }
}

impl Component for VerilogComponent<'_> {
    /// The parsed module's name: data, not a parameter list.
    fn name(&self) -> String {
        self.module.name.clone()
    }

    fn build(&self, c: &mut Ctx) {
        let mut env = NameEnv { signals: HashMap::new(), mems: HashMap::new() };
        env.signals.insert("reset".to_string(), c.reset());

        for p in &self.module.ports {
            if p.name == "reset" {
                continue; // implicit, already declared
            }
            let sig = match p.dir {
                Dir::In => c.in_port(&p.name, p.width),
                Dir::Out => c.out_port(&p.name, p.width),
            };
            env.signals.insert(p.name.clone(), sig);
        }
        for w in &self.module.wires {
            let sig = c.wire(&w.name, w.width);
            env.signals.insert(w.name.clone(), sig);
        }
        for mem in &self.module.mems {
            let m = c.mem(&mem.name, mem.words, mem.width);
            env.mems.insert(mem.name.clone(), m);
        }

        for inst in &self.module.instances {
            let child_comp = self.lib.component(&inst.module);
            let child = c.instantiate(&inst.name, &child_comp);
            for (pin, net) in &inst.pins {
                if pin == "clk" {
                    continue;
                }
                if pin == "reset" && net == "reset" {
                    continue; // auto-connected by instantiate
                }
                let child_port = c.port_of(&child, pin);
                let parent_sig = env.sig(net);
                c.connect(parent_sig, child_port);
            }
        }

        for (i, (lv, rhs)) in self.module.assigns.iter().enumerate() {
            let expr = to_expr(rhs, &env);
            let lv = lv.clone();
            let envref = &env;
            c.comb(&format!("assign_{i}"), |b| {
                emit_assign(b, &lv, expr, envref);
            });
        }

        for (i, blk) in self.module.always.iter().enumerate() {
            let stmts = blk.stmts.clone();
            let envref = &env;
            if blk.seq {
                c.seq(&format!("always_seq_{i}"), |b| {
                    for s in &stmts {
                        build_stmt(b, s, envref);
                    }
                });
            } else {
                c.comb(&format!("always_comb_{i}"), |b| {
                    for s in &stmts {
                        build_stmt(b, s, envref);
                    }
                });
            }
        }
    }
}

fn emit_assign(b: &mut mtl_core::BlockBuilder, lv: &VLValue, expr: Expr, env: &NameEnv) {
    match lv {
        VLValue::Full(name) => b.assign(env.sig(name), expr),
        VLValue::Part { name, hi, lo } => {
            b.assign_slice(env.sig(name), *lo as u32, *hi as u32 + 1, expr)
        }
        VLValue::MemIndex { name, index } => {
            let addr = to_expr(index, env);
            b.mem_write(env.mem(name), addr, expr);
        }
    }
}

fn build_stmt(b: &mut mtl_core::BlockBuilder, s: &VStmt, env: &NameEnv) {
    match s {
        VStmt::Assign(lv, rhs) => {
            let expr = to_expr(rhs, env);
            emit_assign(b, lv, expr, env);
        }
        VStmt::If { cond, then_, else_ } => {
            let cexpr = to_bool(to_expr(cond, env));
            if else_.is_empty() {
                b.if_(cexpr, |b| {
                    for s in then_ {
                        build_stmt(b, s, env);
                    }
                });
            } else {
                b.if_else(
                    cexpr,
                    |b| {
                        for s in then_ {
                            build_stmt(b, s, env);
                        }
                    },
                    |b| {
                        for s in else_ {
                            build_stmt(b, s, env);
                        }
                    },
                );
            }
        }
        VStmt::Case { subject, arms, default } => {
            let subj = to_expr(subject, env);
            b.switch(subj, |sw| {
                for (k, body) in arms {
                    sw.case(*k, |b| {
                        for s in body {
                            build_stmt(b, s, env);
                        }
                    });
                }
                sw.default(|b| {
                    for s in default {
                        build_stmt(b, s, env);
                    }
                });
            });
        }
    }
}

/// Conditions in emitted code are always 1-bit expressions already, but be
/// permissive: reduce wider expressions with `|`.
fn to_bool(e: Expr) -> Expr {
    e
}

fn strip_signed(e: &VExpr) -> &VExpr {
    match e {
        VExpr::Signed(inner) => inner,
        other => other,
    }
}

fn to_expr(v: &VExpr, env: &NameEnv) -> Expr {
    match v {
        VExpr::Ident(name) => env.sig(name).ex(),
        VExpr::Lit(b) => Expr::Const(*b),
        VExpr::Part { base, hi, lo } => to_expr(base, env).slice(*lo as u32, *hi as u32 + 1),
        VExpr::Index { base, index } => {
            let addr = to_expr(index, env);
            env.mem(base).read(addr)
        }
        VExpr::Concat(parts) => Expr::Concat(parts.iter().map(|p| to_expr(p, env)).collect()),
        VExpr::Unary(op, a) => {
            let inner = to_expr(a, env);
            match op {
                VUnOp::Not => !inner,
                VUnOp::Neg => -inner,
                VUnOp::ReduceAnd => inner.reduce_and(),
                VUnOp::ReduceOr => inner.reduce_or(),
                VUnOp::ReduceXor => inner.reduce_xor(),
            }
        }
        VExpr::Binary(op, a, b) => {
            let signed = matches!(**a, VExpr::Signed(_)) || matches!(**b, VExpr::Signed(_));
            let lhs = to_expr(strip_signed(a), env);
            let rhs = to_expr(strip_signed(b), env);
            match (op, signed) {
                (VBinOp::Add, _) => lhs + rhs,
                (VBinOp::Sub, _) => lhs - rhs,
                (VBinOp::Mul, _) => lhs * rhs,
                (VBinOp::And, _) => lhs & rhs,
                (VBinOp::Or, _) => lhs | rhs,
                (VBinOp::Xor, _) => lhs ^ rhs,
                (VBinOp::Shl, _) => lhs.sll(rhs),
                (VBinOp::Shr, _) => lhs.srl(rhs),
                (VBinOp::Sra, _) => lhs.sra(rhs),
                (VBinOp::Eq, _) => lhs.eq(rhs),
                (VBinOp::Ne, _) => lhs.ne(rhs),
                (VBinOp::Lt, false) => lhs.lt(rhs),
                (VBinOp::Ge, false) => lhs.ge(rhs),
                (VBinOp::Lt, true) => lhs.lt_s(rhs),
                (VBinOp::Ge, true) => lhs.ge_s(rhs),
                (VBinOp::Le, false) => lhs.le(rhs),
                (VBinOp::Gt, false) => lhs.gt(rhs),
                (VBinOp::Le, true) => rhs.ge_s(lhs),
                (VBinOp::Gt, true) => rhs.lt_s(lhs),
            }
        }
        VExpr::Ternary(c, t, f) => to_expr(c, env).mux(to_expr(t, env), to_expr(f, env)),
        VExpr::Signed(inner) => to_expr(inner, env),
    }
}
