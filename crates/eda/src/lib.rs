//! Analytical area, energy, and timing estimation for elaborated designs.
//!
//! This crate substitutes for the paper's Synopsys EDA toolflow (see
//! `DESIGN.md`): instead of synthesis and place-and-route, it walks the
//! elaborated IR and charges each operator, register, and memory a
//! gate-equivalent cost from a small technology table. The absolute
//! numbers are arbitrary units; the *relative* claims the paper makes —
//! the accelerator adds ≈4% tile area and ≈5% cycle time — are the
//! quantities this model reproduces (Figure 5(b)).
//!
//! Only fully-IR (RTL) designs can be analyzed; native FL/CL blocks have
//! no hardware realization.

use std::collections::HashMap;

use mtl_core::ir::{BinOp, Expr, IdOffsets, Stmt, UnaryOp};
use mtl_core::{BlockBody, BlockKind, Design, IrBody, ModuleId, NetId};

/// Error returned when a design cannot be analyzed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdaError {
    message: String,
}

impl std::fmt::Display for EdaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for EdaError {}

/// Technology cost table in gate equivalents (GE) and gate delays.
///
/// Derived from standard rules of thumb: a ripple/prefix adder costs a
/// few GE per bit with log-depth delay, a multiplier costs ~w²/2 GE, a
/// flip-flop ~5 GE, SRAM bits ~0.25 GE.
#[derive(Debug, Clone)]
pub struct TechModel {
    /// GE per adder/subtractor bit.
    pub add_per_bit: f64,
    /// GE per multiplier output bit squared factor (cost = factor · w²).
    pub mul_sq_factor: f64,
    /// GE per logic-op bit.
    pub logic_per_bit: f64,
    /// GE per mux bit (2:1).
    pub mux_per_bit: f64,
    /// GE per comparator bit.
    pub cmp_per_bit: f64,
    /// GE per shifter bit (barrel shifter stage cost folded in).
    pub shift_per_bit: f64,
    /// GE per register bit.
    pub reg_per_bit: f64,
    /// GE per memory bit.
    pub mem_per_bit: f64,
    /// Energy units per GE per activity-weighted cycle.
    pub energy_per_ge: f64,
}

impl Default for TechModel {
    fn default() -> Self {
        Self {
            add_per_bit: 6.0,
            mul_sq_factor: 0.6,
            logic_per_bit: 1.0,
            mux_per_bit: 2.0,
            cmp_per_bit: 2.5,
            shift_per_bit: 4.0,
            reg_per_bit: 5.0,
            mem_per_bit: 0.25,
            energy_per_ge: 0.1,
        }
    }
}

/// The analysis result for one design.
#[derive(Debug, Clone)]
pub struct EdaReport {
    /// Total area in gate equivalents.
    pub area: f64,
    /// Estimated critical path in gate delays.
    pub cycle_time: f64,
    /// Estimated dynamic energy per cycle (arbitrary units).
    pub energy_per_cycle: f64,
    /// Area by direct child of the top module (instance name → GE),
    /// including a `<top>` entry for logic in the top module itself.
    pub area_by_child: Vec<(String, f64)>,
}

impl EdaReport {
    /// The fraction of total area attributed to the child instance whose
    /// name contains `needle`.
    pub fn area_fraction(&self, needle: &str) -> f64 {
        let part: f64 =
            self.area_by_child.iter().filter(|(n, _)| n.contains(needle)).map(|(_, a)| a).sum();
        part / self.area
    }
}

/// Analyzes an elaborated design.
///
/// # Errors
///
/// Returns [`EdaError`] if the design contains native (FL/CL) blocks or
/// has a combinational cycle.
pub fn analyze(design: &Design) -> Result<EdaReport, EdaError> {
    analyze_with(design, &TechModel::default())
}

/// [`analyze`] with an explicit technology model.
///
/// # Errors
///
/// Returns [`EdaError`] if the design contains native (FL/CL) blocks or
/// has a combinational cycle.
pub fn analyze_with(design: &Design, tech: &TechModel) -> Result<EdaReport, EdaError> {
    for (i, b) in design.blocks().iter().enumerate() {
        if matches!(b.body, BlockBody::Native(..)) {
            return Err(EdaError {
                message: format!(
                    "design contains native block `{}`; only RTL designs can be analyzed",
                    design.block_path(mtl_core::BlockId::from_index(i))
                ),
            });
        }
    }

    // --- Area ------------------------------------------------------------
    // Logic area per block; register area per register net; memory area.
    let mut block_area = vec![0.0f64; design.blocks().len()];
    for (i, b) in design.blocks().iter().enumerate() {
        let BlockBody::Ir(body) = &b.body else { unreachable!() };
        block_area[i] = ir_area(design, body, tech);
    }
    let mut reg_area_by_module: HashMap<ModuleId, f64> = HashMap::new();
    for (ni, net) in design.nets().iter().enumerate() {
        if net.is_register {
            let _ = NetId::from_index(ni);
            // Attribute the register to the module of the driving block.
            let owner = net.driver.map(|b| design.block(b).module).unwrap_or_else(|| design.top());
            *reg_area_by_module.entry(owner).or_default() += net.width as f64 * tech.reg_per_bit;
        }
    }
    let mut mem_area_by_module: HashMap<ModuleId, f64> = HashMap::new();
    for m in design.mems() {
        *mem_area_by_module.entry(m.module).or_default() +=
            (m.words as f64) * (m.width as f64) * tech.mem_per_bit;
    }

    // Attribute areas to the top module's direct children by walking the
    // hierarchy: every module maps to its ancestor at depth 1.
    let mut owner_child: Vec<Option<ModuleId>> = vec![None; design.modules().len()];
    for (mi, _) in design.modules().iter().enumerate() {
        let mut cur = ModuleId::from_index(mi);
        let mut prev = None;
        while let Some(parent) = design.module(cur).parent {
            prev = Some(cur);
            cur = parent;
        }
        owner_child[mi] = prev; // None for the top module itself
    }
    let mut by_child: HashMap<String, f64> = HashMap::new();
    let add_area = |module: ModuleId, area: f64, by_child: &mut HashMap<String, f64>| {
        let key = match owner_child[module.index()] {
            Some(child) => design.module(child).name.clone(),
            None => "<top>".to_string(),
        };
        *by_child.entry(key).or_default() += area;
    };
    for (i, b) in design.blocks().iter().enumerate() {
        add_area(b.module, block_area[i], &mut by_child);
    }
    for (m, a) in &reg_area_by_module {
        add_area(*m, *a, &mut by_child);
    }
    for (m, a) in &mem_area_by_module {
        add_area(*m, *a, &mut by_child);
    }
    let area: f64 = by_child.values().sum();

    // --- Timing ----------------------------------------------------------
    let cycle_time = critical_path(design, None).map_err(|message| EdaError { message })?;

    // --- Energy ----------------------------------------------------------
    let energy_per_cycle = area * tech.energy_per_ge;

    let mut area_by_child: Vec<(String, f64)> = by_child.into_iter().collect();
    area_by_child.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(EdaReport { area, cycle_time, energy_per_cycle, area_by_child })
}

/// Estimates the critical path (in gate delays) of the combinational
/// network, optionally excluding every block inside the subtree of the
/// top-level child instance named `exclude_child`.
///
/// The exclusion variant answers "what would the cycle time be without
/// the accelerator?" — the paper's ≈5% cycle-time overhead claim.
///
/// # Errors
///
/// Returns a message if the combinational network is cyclic.
pub fn critical_path(design: &Design, exclude_child: Option<&str>) -> Result<f64, String> {
    let excluded_root: Option<ModuleId> = exclude_child.and_then(|name| {
        design
            .module(design.top())
            .children
            .iter()
            .copied()
            .find(|&m| design.module(m).name == name)
    });
    let in_excluded = |mut m: ModuleId| -> bool {
        let Some(root) = excluded_root else { return false };
        loop {
            if m == root {
                return true;
            }
            match design.module(m).parent {
                Some(p) => m = p,
                None => return false,
            }
        }
    };

    let order = design.comb_schedule().map_err(|e| e.to_string())?;
    // Longest-path DP over the block dependency DAG in topological order.
    let mut depth_in: HashMap<usize, f64> = HashMap::new(); // net -> arrival
    let mut worst: f64 = 0.0;
    for b in order {
        let info = design.block(b);
        if matches!(info.kind, BlockKind::Seq) || in_excluded(info.module) {
            continue;
        }
        let BlockBody::Ir(body) = &info.body else { continue };
        let arrival: f64 = info
            .reads
            .iter()
            .map(|&r| depth_in.get(&design.net_of(r).index()).copied().unwrap_or(0.0))
            .fold(0.0, f64::max);
        let local: f64 = body.stmts().iter().map(stmt_depth).fold(0.0, f64::max);
        let out = arrival + local;
        worst = worst.max(out);
        for &w in &info.writes {
            let e = depth_in.entry(design.net_of(w).index()).or_insert(0.0);
            if out > *e {
                *e = out;
            }
        }
    }
    // Sequential blocks terminate paths at register D inputs: their input
    // logic (next-state functions) still contributes combinational depth.
    for (i, info) in design.blocks().iter().enumerate() {
        let _ = i;
        if info.kind != BlockKind::Seq || in_excluded(info.module) {
            continue;
        }
        let BlockBody::Ir(body) = &info.body else { continue };
        let arrival: f64 = info
            .reads
            .iter()
            .map(|&r| depth_in.get(&design.net_of(r).index()).copied().unwrap_or(0.0))
            .fold(0.0, f64::max);
        let local: f64 = body.stmts().iter().map(stmt_depth).fold(0.0, f64::max);
        worst = worst.max(arrival + local);
    }
    // Register setup + clock-to-q margin.
    Ok(worst + 3.0)
}

/// The logic area of one IR block.
fn ir_area(design: &Design, body: &IrBody, tech: &TechModel) -> f64 {
    body.stmts().iter().map(|s| stmt_area(design, body.ids(), s, tech)).sum()
}

fn stmt_area(design: &Design, ids: IdOffsets, s: &Stmt, tech: &TechModel) -> f64 {
    match s {
        Stmt::Assign(_, e) => expr_area(design, ids, e, tech),
        Stmt::If { cond, then_, else_ } => {
            // Condition logic + priority mux per assigned bit (approximate
            // by one mux level over the bodies' area).
            expr_area(design, ids, cond, tech)
                + then_.iter().map(|s| stmt_area(design, ids, s, tech)).sum::<f64>()
                + else_.iter().map(|s| stmt_area(design, ids, s, tech)).sum::<f64>()
                + tech.mux_per_bit * 8.0
        }
        Stmt::Switch { subject, arms, default } => {
            expr_area(design, ids, subject, tech)
                + arms
                    .iter()
                    .flat_map(|(_, body)| body.iter())
                    .map(|s| stmt_area(design, ids, s, tech))
                    .sum::<f64>()
                + default.iter().map(|s| stmt_area(design, ids, s, tech)).sum::<f64>()
                + tech.cmp_per_bit * arms.len() as f64
        }
        Stmt::MemWrite { addr, data, .. } => {
            expr_area(design, ids, addr, tech) + expr_area(design, ids, data, tech)
        }
    }
}

fn expr_area(design: &Design, ids: IdOffsets, e: &Expr, tech: &TechModel) -> f64 {
    let w = |e: &Expr| design.expr_width(ids, e) as f64;
    match e {
        Expr::Read(_) | Expr::Const(_) => 0.0,
        Expr::Slice { expr, .. } => expr_area(design, ids, expr, tech),
        Expr::Concat(parts) => parts.iter().map(|p| expr_area(design, ids, p, tech)).sum(),
        Expr::Unary(op, a) => {
            let base = expr_area(design, ids, a, tech);
            base + match op {
                UnaryOp::Not | UnaryOp::Neg => w(a) * tech.logic_per_bit,
                _ => w(a) * tech.logic_per_bit * 0.5,
            }
        }
        Expr::Binary(op, a, b) => {
            let base = expr_area(design, ids, a, tech) + expr_area(design, ids, b, tech);
            base + match op {
                BinOp::Add | BinOp::Sub => w(a) * tech.add_per_bit,
                BinOp::Mul => w(a) * w(a) * tech.mul_sq_factor,
                BinOp::And | BinOp::Or | BinOp::Xor => w(a) * tech.logic_per_bit,
                BinOp::Shl | BinOp::Shr | BinOp::Sra => w(a) * tech.shift_per_bit,
                _ => w(a) * tech.cmp_per_bit,
            }
        }
        Expr::Mux { cond, then_, else_ } => {
            expr_area(design, ids, cond, tech)
                + expr_area(design, ids, then_, tech)
                + expr_area(design, ids, else_, tech)
                + w(then_) * tech.mux_per_bit
        }
        Expr::Select { sel, options } => {
            expr_area(design, ids, sel, tech)
                + options.iter().map(|o| expr_area(design, ids, o, tech)).sum::<f64>()
                + w(&options[0]) * tech.mux_per_bit * (options.len() as f64 - 1.0)
        }
        Expr::Zext(a, _) | Expr::Sext(a, _) | Expr::Trunc(a, _) => expr_area(design, ids, a, tech),
        Expr::MemRead { addr, .. } => expr_area(design, ids, addr, tech) + 8.0,
    }
}

fn stmt_depth(s: &Stmt) -> f64 {
    match s {
        Stmt::Assign(_, e) => expr_depth(e),
        Stmt::If { cond, then_, else_ } => {
            expr_depth(cond) + 1.0 + then_.iter().chain(else_).map(stmt_depth).fold(0.0, f64::max)
        }
        Stmt::Switch { subject, arms, default } => {
            expr_depth(subject)
                + 2.0
                + arms
                    .iter()
                    .flat_map(|(_, body)| body.iter())
                    .chain(default.iter())
                    .map(stmt_depth)
                    .fold(0.0, f64::max)
        }
        Stmt::MemWrite { addr, data, .. } => expr_depth(addr).max(expr_depth(data)) + 1.0,
    }
}

fn expr_depth(e: &Expr) -> f64 {
    match e {
        Expr::Read(_) | Expr::Const(_) => 0.0,
        Expr::Slice { expr, .. } => expr_depth(expr),
        Expr::Concat(parts) => parts.iter().map(expr_depth).fold(0.0, f64::max),
        Expr::Unary(_, a) => expr_depth(a) + 1.0,
        Expr::Binary(op, a, b) => {
            let base = expr_depth(a).max(expr_depth(b));
            base + match op {
                BinOp::Add | BinOp::Sub => 6.0, // log-depth prefix adder
                BinOp::Mul => 12.0,             // wallace tree + final add
                BinOp::Shl | BinOp::Shr | BinOp::Sra => 5.0,
                BinOp::And | BinOp::Or | BinOp::Xor => 1.0,
                _ => 5.0, // comparators
            }
        }
        Expr::Mux { cond, then_, else_ } => {
            expr_depth(cond).max(expr_depth(then_)).max(expr_depth(else_)) + 1.0
        }
        Expr::Select { sel, options } => {
            let inner = options.iter().map(expr_depth).fold(expr_depth(sel), f64::max);
            inner + (options.len() as f64).log2().ceil().max(1.0)
        }
        Expr::Zext(a, _) | Expr::Sext(a, _) | Expr::Trunc(a, _) => expr_depth(a),
        Expr::MemRead { addr, .. } => expr_depth(addr) + 4.0,
    }
}

/// Simulation-driven dynamic energy: converts per-net toggle counts (from
/// [`Sim::net_activity`](../mtl_sim/struct.Sim.html#method.net_activity))
/// into an energy estimate, replacing the fixed activity factor of
/// [`analyze`] with measured switching.
///
/// `activity[net]` is the accumulated bit-toggle count; the result is
/// total energy units over the measured window. Registers are charged per
/// toggle; downstream combinational logic is charged proportionally to
/// the fan-out area it drives (approximated by the average logic area per
/// register bit in the design).
pub fn dynamic_energy(design: &Design, activity: &[u64], tech: &TechModel) -> f64 {
    let mut reg_bits = 0f64;
    let mut toggles = 0f64;
    for (ni, net) in design.nets().iter().enumerate() {
        if net.is_register {
            reg_bits += net.width as f64;
            toggles += activity.get(ni).copied().unwrap_or(0) as f64;
        }
    }
    if reg_bits == 0.0 {
        return 0.0;
    }
    // Total logic area amortized per register bit: each toggle ripples
    // into that logic on average.
    let mut logic_area = 0.0;
    for b in design.blocks() {
        if let BlockBody::Ir(body) = &b.body {
            logic_area += ir_area(design, body, tech);
        }
    }
    let area_per_bit = tech.reg_per_bit + logic_area / reg_bits;
    toggles * area_per_bit * tech.energy_per_ge
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_core::elaborate;
    use mtl_stdlib::{IntPipelinedMultiplier, MuxReg, NormalQueue, Register};

    #[test]
    fn register_area_scales_with_width() {
        let a8 = analyze(&elaborate(&Register::new(8)).unwrap()).unwrap();
        let a32 = analyze(&elaborate(&Register::new(32)).unwrap()).unwrap();
        assert!(a32.area > 3.0 * a8.area, "{} vs {}", a32.area, a8.area);
    }

    #[test]
    fn multiplier_dominates_muxreg() {
        let mux = analyze(&elaborate(&MuxReg::new(32, 4)).unwrap()).unwrap();
        let mul = analyze(&elaborate(&IntPipelinedMultiplier::new(32, 4)).unwrap()).unwrap();
        assert!(mul.area > mux.area);
        assert!(mul.cycle_time > mux.cycle_time, "multiply path is longer");
    }

    #[test]
    fn queue_memory_contributes_area() {
        let q2 = analyze(&elaborate(&NormalQueue::new(32, 2)).unwrap()).unwrap();
        let q16 = analyze(&elaborate(&NormalQueue::new(32, 16)).unwrap()).unwrap();
        assert!(q16.area > q2.area);
    }

    #[test]
    fn native_designs_are_rejected() {
        let harness = mtl_stdlib::SourceSinkHarness::new(
            Box::new(NormalQueue::new(8, 2)),
            8,
            mtl_stdlib::counting_msgs(8, 2),
        );
        let design = elaborate(&harness).unwrap();
        let err = analyze(&design).unwrap_err();
        assert!(err.to_string().contains("native"));
    }

    #[test]
    fn area_by_child_accounts_for_everything() {
        let report = analyze(&elaborate(&MuxReg::new(16, 4)).unwrap()).unwrap();
        let sum: f64 = report.area_by_child.iter().map(|(_, a)| a).sum();
        assert!((sum - report.area).abs() < 1e-9);
    }
}
