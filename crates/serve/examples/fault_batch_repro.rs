//! Quarantine reproducer for a `fault_batch_chunk` job that left the batch
//! rung of its engine ladder: rebuilds the same DUT, derives the same
//! seeded fault plans and re-runs the batch-vs-scalar comparison that
//! failed — everything an engine maintainer needs to chase the divergence.
//!
//! `mtl-serve` quarantines a copy of this file with the job block below
//! filled in from the failing job (`registry::batch_chunk_repro`). As
//! checked in it is that copy's template, and being an example of the
//! crate it is compiled by every `cargo test`, so what gets quarantined
//! builds. Drop a quarantined copy over this file and run it inside the
//! workspace (std-only, no extra deps):
//! `cargo run --release -p mtl-serve --example fault_batch_repro`.
//!
// >>> job
//! (template: the failing rung and its error go here)
const SEED: u64 = 0x0000000000000007;
const CHUNK: u64 = 0;
const TRIALS: u64 = 3;
const SAMPLE: usize = 1;
const ROUTERS: usize = 4;
const INJECTION: u32 = 200;
const FAULTS: usize = 1;
const CYCLES: u64 = 10;
// <<< job

use mtl_fault::{run_diffs, DiffConfig, FaultPlan, PlanSpec};
use mtl_net::MeshTrafficRtlHarness;
use mtl_sim::{Engine, Sim};

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let top = MeshTrafficRtlHarness::new(ROUTERS, INJECTION, 0xBEEF);
    let probe = Sim::build(&top, Engine::Interpreted).expect("the DUT elaborates");
    let window = PlanSpec::new(FAULTS, 2, 1 + CYCLES.max(1));
    let plans: Vec<FaultPlan> = (0..TRIALS)
        .map(|t| FaultPlan::random(mix(SEED, (CHUNK << 32) | t), probe.design(), &window))
        .collect();
    drop(probe);
    let run = |engine, plans: &[FaultPlan]| {
        run_diffs(&top, plans, &DiffConfig::new(engine, CYCLES), None, false).expect("diff run")
    };
    let batch = run(Engine::SpecializedBatch, &plans);
    let scalar = run(Engine::SpecializedOpt, &plans[..SAMPLE]);
    for (i, (lane, scalar)) in batch.iter().zip(&scalar).enumerate() {
        assert_eq!(lane, scalar, "batch lane {i} diverges from scalar");
    }
    println!("no divergence reproduced over {SAMPLE} plans");
}
