//! Per-design digest of the elaborated `Design` over the full design
//! registry plus the four designs `perf_ledger`'s `build_sweep` brings up.
//!
//! Elaboration is deterministic, so every table of a design is a stable
//! fact: an elaborator change that renumbers a signal, moves a net, splits
//! a block shape or changes an emitted Verilog byte shows up here as a diff
//! against the golden table, one line per design:
//!
//! * the length of every table;
//! * an FNV-1a hash of every module's path and component name;
//! * of every signal's path, kind, width and net;
//! * of every block's path, kind, shape, operand lists and parameter
//!   values, and of the memories and raw connections;
//! * of `translate()`'s output, where the design translates.
//!
//! Regenerate after an intentional change with:
//!
//!   MTL_BLESS=1 cargo test -p mtl-bench --test design_digest
//!
//! and review the diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use mtl_bench::{build_sweep_designs, design_registry};
use mtl_core::{BlockBody, BlockId, Design};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/design_digests.txt")
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn str(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl std::fmt::Display for Fnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn digest(design: &Design) -> String {
    let mut modules = Fnv::new();
    for (i, m) in design.modules().iter().enumerate() {
        modules.str(&design.module_path(mtl_core::ModuleId::from_index(i)));
        modules.str(&m.component);
    }
    let mut signals = Fnv::new();
    for (i, s) in design.signals().iter().enumerate() {
        let id = mtl_core::SignalId::from_index(i);
        signals.str(&format!(
            "{} {:?} {} {}",
            design.signal_path(id),
            s.kind,
            s.width,
            s.net.index()
        ));
    }
    let mut blocks = Fnv::new();
    for (i, b) in design.blocks().iter().enumerate() {
        let id = BlockId::from_index(i);
        let body = match &b.body {
            BlockBody::Native(level) => format!("native {level:?}"),
            BlockBody::Ir(_) => "ir".into(),
        };
        let shape = design.block_shape(id).map(|s| s.index());
        let params: Vec<String> = design.block_params(id).iter().map(|v| v.to_string()).collect();
        blocks.str(&format!(
            "{} {:?} {body} {shape:?} {:?} {params:?}",
            design.block_path(id),
            b.kind,
            design.block_operands(id)
        ));
    }
    for m in design.mems() {
        blocks.str(&format!("mem {} {} {} {}", m.name, m.module.index(), m.words, m.width));
    }
    for (a, b) in design.connections() {
        blocks.str(&format!("conn {} {}", a.index(), b.index()));
    }
    let verilog = match mtl_translate::translate(design) {
        Ok(v) => {
            let mut h = Fnv::new();
            h.str(&v);
            format!("{h} ({} bytes)", v.len())
        }
        Err(_) => "-".into(),
    };
    format!(
        "{} modules {} signals {} nets {} blocks {} mems {} connections {} shapes | modules {modules} | signals {signals} | blocks {blocks} | verilog {verilog}",
        design.modules().len(),
        design.signals().len(),
        design.nets().len(),
        design.blocks().len(),
        design.mems().len(),
        design.connections().len(),
        design.shapes().len(),
    )
}

fn current_table() -> String {
    let mut out = String::from(
        "# design | table lengths | module, signal and block hashes | verilog hash (bytes)\n",
    );
    for (name, top) in design_registry().into_iter().chain(build_sweep_designs(4)) {
        let design = mtl_core::elaborate(top.as_ref())
            .unwrap_or_else(|e| panic!("{name}: elaboration failed: {e:?}"));
        writeln!(out, "{name} | {}", digest(&design)).unwrap();
    }
    out
}

#[test]
fn per_design_digests_match_golden() {
    let table = current_table();
    let path = golden_path();
    if std::env::var_os("MTL_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &table).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with MTL_BLESS=1 to create it", path.display())
    });
    assert_eq!(
        table,
        golden,
        "elaborated designs drifted from {}; if intentional, regenerate \
         with MTL_BLESS=1 and review the diff",
        path.display()
    );
}
