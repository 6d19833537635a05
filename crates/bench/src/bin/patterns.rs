//! Extension experiment: mesh throughput under synthetic traffic
//! patterns (uniform random, tornado, transpose, nearest neighbor).
//!
//! A classic network-on-chip evaluation the framework makes one-line to
//! run: adversarial patterns saturate a minimally-routed mesh far below
//! uniform random, while neighbor traffic approaches link capacity.
//!
//! Every measurement here is a fixed-seed, fixed-window simulation — a
//! pure function of its parameters — so the campaign jobs stay cacheable
//! (the default): a rerun replays all 16 points from
//! `target/sweep-cache/` instantly. Results land in `BENCH_patterns.json`.

use mtl_bench::{banner, write_bench_report, Args};
use mtl_net::{measure_network_pattern, NetLevel, TrafficPattern};
use mtl_sim::Engine;
use mtl_sweep::{Campaign, CampaignReport, Job, JobMetrics};

const PATTERNS: [TrafficPattern; 4] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::Tornado,
    TrafficPattern::Transpose,
    TrafficPattern::Neighbor,
];
const OFFERED: [u32; 4] = [100, 300, 600, 900];

fn job_name(pattern: TrafficPattern, offered: u32) -> String {
    format!("{pattern:?}/off{offered:03}")
}

fn pattern_job(pattern: TrafficPattern, offered: u32) -> Job {
    Job::new(job_name(pattern, offered), move |_ctx| {
        let m = measure_network_pattern(
            NetLevel::Cl,
            64,
            pattern,
            offered,
            400,
            1600,
            Engine::SpecializedOpt,
        );
        Ok(JobMetrics::new()
            .det("injected", m.injected)
            .det("received", m.received)
            .det("accepted_permille", m.accepted_permille)
            .det("avg_latency", m.avg_latency))
    })
    .param("pattern", format!("{pattern:?}"))
    .param("offered_permille", offered)
    .param("level", NetLevel::Cl)
    .param("nrouters", 64)
    .param("engine", Engine::SpecializedOpt)
    .budget(std::time::Duration::from_secs(60))
}

fn print_table(report: &CampaignReport) {
    println!("{:<16} {:>12} {:>14} {:>14}", "pattern", "offered", "accepted", "avg latency");
    for pattern in PATTERNS {
        for offered in OFFERED {
            match report.get(&job_name(pattern, offered)) {
                Some(j) if j.outcome.is_done() => println!(
                    "{:<16} {:>12} {:>14.1} {:>14.1}",
                    format!("{pattern:?}"),
                    offered,
                    j.f64("accepted_permille").unwrap_or(f64::NAN),
                    j.f64("avg_latency").unwrap_or(f64::NAN),
                ),
                _ => println!(
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
    let mut campaign = Campaign::new("patterns");
    for pattern in PATTERNS {
        for offered in OFFERED {
            campaign = campaign.job(pattern_job(pattern, offered));
        }
    }
    let report = campaign.run();
    print_table(&report);
    write_bench_report(&report, "patterns");
}
