//! Lints every example/bench design in the repository.
//!
//! Elaborates each design in the registry (leniently, so defects survive
//! to diagnosis), runs `mtl_check::lint`, and prints every diagnostic
//! with its hierarchical signal paths. Exits non-zero if any design
//! produces an `Error`-severity diagnostic — the CI `lint_designs` stage
//! gates on that.
//!
//! Usage: `cargo run -p mtl-bench --bin lint_designs [--verbose]`
//! (`--verbose` also prints warning-severity diagnostics per design;
//! warnings are always counted in the summary).

use std::process::ExitCode;

use mtl_bench::{design_registry, Args};
use mtl_check::{elaborate_unchecked, lint, Severity};

fn main() -> ExitCode {
    let verbose = Args::parse(&["--verbose"], &[]).flag("--verbose");
    let designs = design_registry();
    println!("linting {} example/bench designs", designs.len());

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for (name, component) in designs {
        let design = elaborate_unchecked(component.as_ref());
        let diags = lint(&design);
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = diags.len() - errors;
        total_errors += errors;
        total_warnings += warnings;
        println!(
            "  {name:<40} {} blocks, {} nets: {errors} errors, {warnings} warnings",
            design.blocks().len(),
            design.nets().len()
        );
        for d in &diags {
            if d.severity == Severity::Error || verbose {
                println!("    {d}");
            }
        }
    }

    println!("lint_designs: {total_errors} errors, {total_warnings} warnings");
    if total_errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
