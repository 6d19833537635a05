//! Structural design linter.
//!
//! The paper's model/tool split names linters alongside simulation and
//! translation as first-class consumers of elaborated design instances.
//! [`lint`] inspects a [`Design`] and reports structured [`Diagnostic`]s
//! with exact hierarchical signal paths for eight rules in five categories:
//!
//! * **Combinational cycles** — the full cycle is printed, block by block,
//!   with the net carrying each dependency edge.
//! * **Multiply-driven nets** — more than one writer (including the
//!   implicit `<external>` driver of a top-level input port).
//! * **Width mismatches** across structural connections.
//! * **Dead signals** — an input port nothing drives and an output port
//!   nothing reads; on a net with no input port, a read nothing drives
//!   (`undriven-net`), and on a net with no output port, a write nothing
//!   reads (`unread-net`). A net gets at most one of the last two, and
//!   neither if a port rule reports it.
//! * **Mixed drivers** — a net written by both a sequential and a
//!   combinational block (the "sequential block writes a net also written
//!   combinationally" hazard).
//!
//! Strict [`elaborate`](crate::elaborate) already *rejects* the error-class
//! defects, so the linter is usually fed a design from
//! [`elaborate_unchecked`](crate::elaborate_unchecked), which unions
//! mismatched connections, keeps the first of several drivers, and skips
//! the cycle check — preserving the defect for diagnosis instead of
//! aborting on it.

use std::collections::HashMap;
use std::fmt;

use crate::design::{BlockKind, CombGraph, Design, SignalKind};
use crate::ids::{BlockId, NetId};

/// How serious a [`Diagnostic`] is.
///
/// `Error` diagnostics describe designs that strict elaboration would
/// reject (and that the engines cannot faithfully simulate); `Warning`
/// diagnostics describe legal-but-suspicious structure such as dead
/// interface signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but simulable.
    Warning,
    /// Structurally broken; strict elaboration rejects it.
    Error,
}

/// Which lint rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintRule {
    /// A cycle through combinational blocks.
    CombCycle,
    /// A net with more than one writer.
    MultiplyDriven,
    /// A structural connection between signals of different widths.
    WidthMismatch,
    /// A net written by both sequential and combinational blocks.
    MixedDrivers,
    /// An input port whose net has no writer and no external driver.
    UndrivenInput,
    /// An output port whose net no block (and no external observer) reads.
    UnreadOutput,
    /// A net with no input port that is read but has no writer and no
    /// external driver.
    UndrivenNet,
    /// A net with no output port that is written but that no block (and
    /// no external observer) reads.
    UnreadNet,
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintRule::CombCycle => "comb-cycle",
            LintRule::MultiplyDriven => "multiply-driven",
            LintRule::WidthMismatch => "width-mismatch",
            LintRule::MixedDrivers => "mixed-drivers",
            LintRule::UndrivenInput => "undriven-input",
            LintRule::UnreadOutput => "unread-output",
            LintRule::UndrivenNet => "undriven-net",
            LintRule::UnreadNet => "unread-net",
        };
        f.write_str(s)
    }
}

/// One linter finding: the rule, its severity, the hierarchical paths of
/// the signals and blocks involved, and a rendered message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: LintRule,
    /// Error or warning.
    pub severity: Severity,
    /// Hierarchical paths of the signals involved (e.g. `top.mux.sel`).
    pub signals: Vec<String>,
    /// Hierarchical paths of the blocks involved (`<external>` marks the
    /// implicit driver/observer of a top-level port).
    pub blocks: Vec<String>,
    /// Human-readable description, including the paths.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "[{sev}] {}: {}", self.rule, self.message)
    }
}

/// Lints an elaborated design, returning diagnostics sorted errors-first.
///
/// Runs all rule categories; the order within a severity follows rule
/// category (cycles, multiple drivers, width mismatches, mixed drivers,
/// then the dead-interface warnings) and, within a rule, design order.
pub fn lint(design: &Design) -> Vec<Diagnostic> {
    let writers = design.net_writers();
    let readers = design.net_readers();

    let mut errors = Vec::new();
    let mut warnings = Vec::new();

    comb_cycles(design, &mut errors);
    multiply_driven(design, &writers, &mut errors);
    width_mismatches(design, &mut errors);
    mixed_drivers(design, &writers, &mut errors);
    undriven_inputs(design, &writers, &readers, &mut warnings);
    unread_outputs(design, &writers, &readers, &mut warnings);

    errors.extend(warnings);
    errors
}

/// Detects cycles through combinational blocks with Tarjan's SCC algorithm
/// (iterative) and renders each cycle in full: `blockA -[net]-> blockB ...`.
///
/// Self-edges (a block reading a net it also writes) are excluded, matching
/// [`Design::comb_schedule`], which tolerates them.
fn comb_cycles(design: &Design, out: &mut Vec<Diagnostic>) {
    let CombGraph { blocks: comb, succ } = design.comb_graph();
    // The net carrying the edge `node -> next`.
    let edge_net = |node: usize, next: usize| -> NetId {
        succ[node].iter().find(|&&(r, _)| r as usize == next).expect("cycle edge").1
    };
    let succ: Vec<Vec<usize>> =
        succ.iter().map(|s| s.iter().map(|&(r, _)| r as usize).collect()).collect();

    for scc in tarjan_sccs(&succ) {
        if scc.len() < 2 {
            continue;
        }
        let cycle = extract_cycle(&succ, &scc);
        let mut signals = Vec::new();
        let mut blocks = Vec::new();
        let mut rendered = String::new();
        for (i, &node) in cycle.iter().enumerate() {
            let next = cycle[(i + 1) % cycle.len()];
            let net = edge_net(node, next);
            blocks.push(design.block_path(comb[node]));
            signals.push(design.net_path(net));
            rendered.push_str(&format!(
                "{} -[{}]-> ",
                design.block_path(comb[node]),
                design.net_path(net)
            ));
        }
        rendered.push_str(&design.block_path(comb[cycle[0]]));
        out.push(Diagnostic {
            rule: LintRule::CombCycle,
            severity: Severity::Error,
            signals,
            blocks,
            message: format!("combinational cycle: {rendered}"),
        });
    }
}

/// Iterative Tarjan strongly-connected components; returns SCCs in reverse
/// topological order, nodes in discovery order.
fn tarjan_sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next child position) call stack.
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < succ[v].len() {
                let w = succ[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.reverse();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Finds one concrete cycle through `scc` (which is strongly connected and
/// has >= 2 nodes): the shortest path from a successor of `scc[0]` back to
/// `scc[0]`, restricted to SCC members.
fn extract_cycle(succ: &[Vec<usize>], scc: &[usize]) -> Vec<usize> {
    let start = scc[0];
    let in_scc: Vec<bool> = {
        let mut v = vec![false; succ.len()];
        for &n in scc {
            v[n] = true;
        }
        v
    };
    // BFS from start back to start.
    let mut prev: HashMap<usize, usize> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    for &s in &succ[start] {
        if in_scc[s] && !prev.contains_key(&s) {
            prev.insert(s, start);
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        if v == start {
            break;
        }
        for &w in &succ[v] {
            if in_scc[w] && !prev.contains_key(&w) && w != start {
                prev.insert(w, v);
                queue.push_back(w);
            } else if in_scc[w] && w == start {
                // Reconstruct start -> ... -> v, then close the loop.
                let mut path = vec![v];
                let mut cur = v;
                while cur != start {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
        }
    }
    // Strong connectivity guarantees the loop above returns; this is a
    // defensive fallback for a malformed SCC.
    vec![start]
}

fn multiply_driven(design: &Design, writers: &[Vec<BlockId>], out: &mut Vec<Diagnostic>) {
    for (ni, ws) in writers.iter().enumerate() {
        let net = NetId::from_index(ni);
        let external = design.net_has_top_port(net, SignalKind::InPort);
        let total = ws.len() + usize::from(external && !ws.is_empty());
        if total < 2 {
            continue;
        }
        let mut blocks = Vec::new();
        if external {
            blocks.push("<external>".to_string());
        }
        blocks.extend(ws.iter().map(|&b| design.block_path(b)));
        let signals: Vec<String> =
            design.net(net).signals.iter().map(|&s| design.signal_path(s)).collect();
        out.push(Diagnostic {
            rule: LintRule::MultiplyDriven,
            severity: Severity::Error,
            message: format!(
                "net `{}` has {} drivers: {}",
                design.net_path(net),
                blocks.len(),
                blocks.join(", ")
            ),
            signals,
            blocks,
        });
    }
}

fn width_mismatches(design: &Design, out: &mut Vec<Diagnostic>) {
    for &(a, b) in design.connections() {
        let (wa, wb) = (design.signal(a).width, design.signal(b).width);
        if wa != wb {
            let (pa, pb) = (design.signal_path(a), design.signal_path(b));
            out.push(Diagnostic {
                rule: LintRule::WidthMismatch,
                severity: Severity::Error,
                message: format!("connection `{pa}` ({wa} bits) <-> `{pb}` ({wb} bits)"),
                signals: vec![pa, pb],
                blocks: Vec::new(),
            });
        }
    }
}

fn mixed_drivers(design: &Design, writers: &[Vec<BlockId>], out: &mut Vec<Diagnostic>) {
    for (ni, ws) in writers.iter().enumerate() {
        let seq: Vec<BlockId> =
            ws.iter().copied().filter(|&b| design.block(b).kind == BlockKind::Seq).collect();
        let comb: Vec<BlockId> =
            ws.iter().copied().filter(|&b| design.block(b).kind == BlockKind::Comb).collect();
        if seq.is_empty() || comb.is_empty() {
            continue;
        }
        let net = NetId::from_index(ni);
        out.push(Diagnostic {
            rule: LintRule::MixedDrivers,
            severity: Severity::Error,
            message: format!(
                "net `{}` is written both sequentially (`{}`) and combinationally (`{}`)",
                design.net_path(net),
                design.block_path(seq[0]),
                design.block_path(comb[0]),
            ),
            signals: vec![design.net_path(net)],
            blocks: ws.iter().map(|&b| design.block_path(b)).collect(),
        });
    }
}

/// The hierarchical paths of a net's member signals of `kind`.
fn members(design: &Design, net: NetId, kind: SignalKind) -> Vec<String> {
    let signals = &design.net(net).signals;
    signals
        .iter()
        .filter(|&&s| design.signal(s).kind == kind)
        .map(|&s| design.signal_path(s))
        .collect()
}

fn warning(rule: LintRule, signals: Vec<String>, message: String) -> Diagnostic {
    Diagnostic { rule, severity: Severity::Warning, signals, blocks: Vec::new(), message }
}

fn undriven_inputs(
    design: &Design,
    writers: &[Vec<BlockId>],
    readers: &[Vec<BlockId>],
    out: &mut Vec<Diagnostic>,
) {
    for (ni, ws) in writers.iter().enumerate() {
        let net = NetId::from_index(ni);
        if !ws.is_empty() || design.net_has_top_port(net, SignalKind::InPort) {
            continue;
        }
        let inputs = members(design, net, SignalKind::InPort);
        if !inputs.is_empty() {
            let message =
                format!("input `{}` is never driven (stuck at zero)", inputs.join("`, `"));
            out.push(warning(LintRule::UndrivenInput, inputs, message));
        } else if !readers[ni].is_empty() {
            let path = design.net_path(net);
            let message = format!("net `{path}` is read but never driven (stuck at zero)");
            out.push(warning(LintRule::UndrivenNet, vec![path], message));
        }
    }
}

fn unread_outputs(
    design: &Design,
    writers: &[Vec<BlockId>],
    readers: &[Vec<BlockId>],
    out: &mut Vec<Diagnostic>,
) {
    for (ni, rs) in readers.iter().enumerate() {
        let net = NetId::from_index(ni);
        // A top-level port of either direction means the net is externally
        // observable (or externally driven); not dead.
        if !rs.is_empty()
            || design.net_has_top_port(net, SignalKind::InPort)
            || design.net_has_top_port(net, SignalKind::OutPort)
        {
            continue;
        }
        let outputs = members(design, net, SignalKind::OutPort);
        if !outputs.is_empty() {
            let message = format!("output `{}` is never read (dead logic)", outputs.join("`, `"));
            out.push(warning(LintRule::UnreadOutput, outputs, message));
        } else if !writers[ni].is_empty() {
            let path = design.net_path(net);
            let message = format!("net `{path}` is driven but never read (dead logic)");
            out.push(warning(LintRule::UnreadNet, vec![path], message));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{elaborate_unchecked, Component, Ctx};

    /// `n` has two comb writers, `w1` then `w2`; `r` reads `n` and `w2`
    /// reads what `r` writes. Through the first writer the graph is the
    /// chain `w1 -> r -> w2`; through the last it would be the cycle
    /// `w2 -> r -> w2`.
    struct LateSecondWriter;

    impl Component for LateSecondWriter {
        fn name(&self) -> String {
            "LateSecondWriter".into()
        }

        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let (n, m) = (c.wire("n", 8), c.wire("m", 8));
            c.comb("w1", |b| b.assign(n, a));
            c.comb("r", |b| b.assign(m, n));
            c.comb("w2", |b| b.assign(n, m));
        }
    }

    /// On a lenient design with two comb writers of a net, the schedule
    /// and the linter read one graph: both take the first writer, so the
    /// schedule exists and the linter reports the second driver, not a
    /// cycle.
    #[test]
    fn schedule_and_lint_take_the_first_comb_writer() {
        let design = elaborate_unchecked(&LateSecondWriter);
        let order = design.comb_schedule().expect("acyclic through the first writer");
        let paths: Vec<String> = order.iter().map(|&b| design.block_path(b)).collect();
        assert_eq!(paths, ["top.w1", "top.r", "top.w2"]);
        let rules: Vec<LintRule> = lint(&design).iter().map(|d| d.rule).collect();
        assert!(rules.contains(&LintRule::MultiplyDriven), "{rules:?}");
        assert!(!rules.contains(&LintRule::CombCycle), "{rules:?}");
    }
}
