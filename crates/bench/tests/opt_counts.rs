//! Per-design optimizer snapshot over the full design registry plus the
//! four designs `perf_ledger`'s `build_sweep` brings up.
//!
//! The pass pipeline is deterministic (`passes::tests::optimizer_is_
//! deterministic`), so the tape/op/register counts it produces for every
//! design, and the digest of every optimized tape (`OptReport::digest`),
//! are stable facts worth pinning: an accidental change to pass ordering,
//! a pass that stops firing, a pass change that keeps every count but
//! rewrites a tape, or a compiler change that alters emission all show up
//! here as a diff against the golden table.
//!
//! Regenerate after an intentional change with:
//!
//!   MTL_BLESS=1 cargo test -p mtl-bench --test opt_counts
//!
//! and review the diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use mtl_bench::{build_sweep_designs, design_registry};
use mtl_sim::{Engine, Sim};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/opt_counts.txt")
}

fn current_table() -> String {
    let mut out = String::from(
        "# design | tapes | ops before -> after | regs before -> after | tape digest\n",
    );
    for (name, design) in design_registry().into_iter().chain(build_sweep_designs(4)) {
        let sim = Sim::build(design.as_ref(), Engine::SpecializedOpt)
            .unwrap_or_else(|e| panic!("{name}: elaboration failed: {e:?}"));
        let rep = sim.opt_report().unwrap_or_else(|| panic!("{name}: no opt report"));
        // A tape stopped at the round cap would be pinned here
        // under-optimized; none may be.
        assert_eq!(rep.capped, 0, "{name}: a tape reached the round cap unconverged");
        writeln!(
            out,
            "{name} | {} | {} -> {} | {} -> {} | {:016x}",
            rep.tapes, rep.ops_before, rep.ops_after, rep.regs_before, rep.regs_after, rep.digest
        )
        .unwrap();
    }
    out
}

#[test]
fn per_design_op_counts_match_golden() {
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
        "optimizer op counts drifted from {}; if intentional, regenerate \
         with MTL_BLESS=1 and review the diff",
        path.display()
    );
}
