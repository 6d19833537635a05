//! Extension experiment: mesh throughput under synthetic traffic
//! patterns (uniform random, tornado, transpose, nearest neighbor).
//!
//! A classic network-on-chip evaluation the framework makes one-line to
//! run: adversarial patterns saturate a minimally-routed mesh far below
//! uniform random, while neighbor traffic approaches link capacity.
//!
//! Every measurement here is a `mesh_cycles` job of the `mtl-serve` kind
//! catalog (DESIGN.md §10): a fixed-seed, fixed-window simulation — a
//! pure function of its parameters — so the jobs stay cacheable: a rerun
//! replays all 16 points from `target/sweep-cache/` instantly. Results
//! land in `BENCH_patterns.json`.

use mtl_bench::{banner, mesh_window, run_spec, spec_text, Args};
use mtl_net::TrafficPattern;
use mtl_sweep::Json;

const OFFERED: [u32; 4] = [100, 300, 600, 900];
const SEED: u64 = 0xC0FFEE;

fn job_name(pattern: TrafficPattern, offered: u32) -> String {
    format!("{pattern:?}/off{offered:03}")
}

fn spec() -> Json {
    let mut jobs = Vec::new();
    for pattern in TrafficPattern::ALL {
        for offered in OFFERED {
            let name = job_name(pattern, offered);
            jobs.push(format!(
                r#"{{"kind":"mesh_cycles","name":"{name}","level":"CL","nrouters":64,
                    "injection":{offered},"pattern":"{pattern}","warmup":400,"cycles":1600,
                    "seed":{SEED},"budget_ms":60000}}"#
            ));
        }
    }
    spec_text(r#""name":"patterns""#, &jobs)
}

fn print_table(report: &Json) {
    println!("{:<16} {:>12} {:>14} {:>14}", "pattern", "offered", "accepted", "avg latency");
    for pattern in TrafficPattern::ALL {
        for offered in OFFERED {
            match mesh_window(report, &job_name(pattern, offered)) {
                Some((accepted, latency)) => println!(
                    "{:<16} {:>12} {:>14.1} {:>14.1}",
                    format!("{pattern:?}"),
                    offered,
                    accepted,
                    latency,
                ),
                None => println!(
                    "{:<16} {:>12} {:>14} {:>14}",
                    format!("{pattern:?}"),
                    offered,
                    "failed",
                    "-"
                ),
            }
        }
        println!();
    }
}

fn main() {
    Args::parse(&[], &[]);
    banner("Extension: 8x8 mesh under synthetic traffic patterns", "NoC methodology");
    if let Err(e) = run_spec(&spec(), None, None, print_table) {
        eprintln!("patterns: {e}");
        std::process::exit(1);
    }
}
