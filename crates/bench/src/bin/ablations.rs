//! Ablation studies over the design choices called out in DESIGN.md:
//! processor microarchitecture (multicycle FSM vs 5-stage pipeline),
//! router elastic-buffer depth, and cache capacity.
//!
//! Every ablation point is a job of the `mtl-serve` kind catalog
//! (DESIGN.md §10) with deterministic cycle/latency results: the kernel
//! runs are `tile_cycles` jobs, the buffer-depth windows `mesh_cycles`
//! jobs. The points run sharded across workers, results are cached
//! under `target/sweep-cache/`, and the full record lands in
//! `BENCH_ablations.json`.

use mtl_bench::{banner, job_metric, mesh_window, run_spec, spec_text, Args};
use mtl_sweep::Json;

const BUFFER_DEPTHS: [u64; 4] = [1, 2, 4, 8];
const CACHE_LINES: [u64; 4] = [4, 16, 64, 128];

/// The scalar 8×16 kernel on a uniform-level tile, `proc` aside.
fn tile_job(name: &str, proc: &str, level: &str, nlines: u64) -> String {
    format!(
        r#"{{"kind":"tile_cycles","name":"{name}","proc":"{proc}","cache":"{level}",
            "xcel":"{level}","kernel":"scalar","rows":8,"cols":16,"nlines":{nlines},
            "budget_ms":120000}}"#
    )
}

/// A 16-node CL mesh with `nentries`-deep router buffers: 300 warm-up
/// cycles, then a 1 500-cycle window.
fn buffer_job(nentries: u64, injection: u32) -> String {
    format!(
        r#"{{"kind":"mesh_cycles","name":"buffer/depth{nentries}/inj{injection:03}",
            "level":"CL","nrouters":16,"injection":{injection},"nentries":{nentries},
            "warmup":300,"cycles":1500,"seed":7,"budget_ms":60000}}"#
    )
}

fn spec() -> Json {
    let mut jobs = vec![
        tile_job("proc/multicycle", "RTL", "RTL", 32),
        tile_job("proc/pipelined", "RTL-pipe", "RTL", 32),
    ];
    for depth in BUFFER_DEPTHS {
        for injection in [100, 600] {
            jobs.push(buffer_job(depth, injection));
        }
    }
    for nlines in CACHE_LINES {
        jobs.push(tile_job(&format!("cache/nlines{nlines}"), "CL", "CL", nlines));
    }
    spec_text(r#""name":"ablations""#, &jobs)
}

fn main() {
    Args::parse(&[], &[]);
    banner("Ablations: processor pipeline, buffer depth, cache size", "design choices");
    let tables = |report: &Json| {
        proc_ablation(report);
        buffer_ablation(report);
        cache_ablation(report);
    };
    if let Err(e) = run_spec(&spec(), None, None, tables) {
        eprintln!("ablations: {e}");
        std::process::exit(1);
    }
}

fn proc_ablation(report: &Json) {
    println!("\n--- processor microarchitecture (scalar 8x16 kernel, RTL caches) ---");
    let multi = job_metric(report, "proc/multicycle", "cycles");
    let pipe = job_metric(report, "proc/pipelined", "cycles");
    match (multi, pipe) {
        (Some(multi), Some(pipe)) => {
            println!("  multicycle FSM core : {multi:>8} cycles");
            println!(
                "  5-stage pipelined   : {pipe:>8} cycles  ({:.2}x fewer)",
                multi as f64 / pipe as f64
            );
        }
        _ => println!("  failed (see BENCH_ablations.json)"),
    }
}

fn buffer_ablation(report: &Json) {
    println!("\n--- router elastic-buffer depth (16-node CL mesh) ---");
    println!("  {:>8} {:>18} {:>18}", "depth", "latency @ 10%", "accepted @ 60%");
    for depth in BUFFER_DEPTHS {
        let lat = mesh_window(report, &format!("buffer/depth{depth}/inj100"));
        let acc = mesh_window(report, &format!("buffer/depth{depth}/inj600"));
        match (lat, acc) {
            (Some((_, lat)), Some((acc, _))) => println!("  {depth:>8} {lat:>18.1} {acc:>18.1}"),
            _ => println!("  {depth:>8} {:>18} {:>18}", "failed", "-"),
        }
    }
    println!("  (depth 1 halves link throughput — the reason the routers use 2+)");
}

fn cache_ablation(report: &Json) {
    println!("\n--- cache capacity (scalar 8x16 kernel, CL tile) ---");
    println!("  {:>8} {:>12}", "lines", "cycles");
    for nlines in CACHE_LINES {
        match job_metric(report, &format!("cache/nlines{nlines}"), "cycles") {
            Some(cycles) => println!("  {nlines:>8} {cycles:>12}"),
            None => println!("  {nlines:>8} {:>12}", "failed"),
        }
    }
}
