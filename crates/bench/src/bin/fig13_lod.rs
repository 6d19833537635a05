//! Figure 13: simulator performance vs. level of detail.
//!
//! Builds all 27 ⟨processor, cache, accelerator⟩ tile configurations,
//! runs the matrix-vector kernel to completion under the interpreted
//! (CPython-analog) and fully specialized (SimJIT+PyPy-analog) engines,
//! and reports performance normalized to the pure instruction-set
//! simulator running the same kernel — exactly the axes of the paper's
//! Figure 13 (LOD score vs. relative simulator performance).
//!
//! The 55 kernel runs (27 configs × 2 engines + the ISS reference) are
//! `tile_cycles` and `iss_kernel` jobs of the `mtl-serve` kind catalog
//! (DESIGN.md §10): this binary declares them as a spec, prints its
//! tables from the report `mtl_bench::run_spec` returns, and writes it to
//! `BENCH_fig13.json`. Simulated cycle counts are deterministic metrics;
//! kernel wall-times (and thus the relative-performance columns) are
//! timing metrics, so the campaign neither caches nor journals.
//!
//! Flags:
//!
//! * `--smoke` — a small kernel on three representative configurations
//!   (all-FL, all-CL, all-RTL), for CI; still writes `BENCH_fig13.json`.
//! * `--profile` — enable simulation profiling in every tile job and
//!   attach the hottest blocks to each job's `profile` report section.

use mtl_accel::{TileConfig, XcelLevel};
use mtl_bench::{banner, job_metric, job_timing, run_spec, spec_text, Args};
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_sim::Engine;
use mtl_sweep::Json;

const ENGINES: [Engine; 2] = [Engine::Interpreted, Engine::SpecializedOpt];

/// Kernel size, configuration list and cycle budget for one run.
struct Sweep {
    rows: u32,
    cols: u32,
    configs: Vec<TileConfig>,
    max_cycles: u64,
}

impl Sweep {
    fn full() -> Sweep {
        Sweep { rows: 8, cols: 16, configs: TileConfig::all(), max_cycles: 5_000_000 }
    }

    fn smoke() -> Sweep {
        let uniform = |p, c, x| TileConfig { proc: p, cache: c, xcel: x };
        Sweep {
            rows: 4,
            cols: 4,
            configs: vec![
                uniform(ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl),
                uniform(ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl),
                uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl),
            ],
            max_cycles: 2_000_000,
        }
    }

    /// The ISS reference and every configuration on both engines.
    fn spec(&self, profile: bool) -> Json {
        let Sweep { rows, cols, max_cycles, .. } = *self;
        let mut jobs = vec![format!(
            r#"{{"kind":"iss_kernel","name":"iss","rows":{rows},"cols":{cols},"budget_ms":30000}}"#
        )];
        for &config in &self.configs {
            let TileConfig { proc, cache, xcel } = config;
            for engine in ENGINES {
                let name = job_name(config, engine);
                jobs.push(format!(
                    r#"{{"kind":"tile_cycles","name":"{name}","proc":"{proc}","cache":"{cache}",
                        "xcel":"{xcel}","rows":{rows},"cols":{cols},"max_cycles":{max_cycles},
                        "engine":"{engine}","profile":{profile},"budget_ms":120000}}"#
                ));
            }
        }
        spec_text(r#""name":"fig13","no_cache":true"#, &jobs)
    }
}

fn job_name(config: TileConfig, engine: Engine) -> String {
    let short = match engine {
        Engine::Interpreted => "interp",
        _ => "spec",
    };
    format!("{config}/{short}")
}

fn main() {
    banner("Figure 13: simulator performance vs level of detail", "Fig. 13");
    let args = Args::parse(&["--profile", "--smoke"], &[]);
    let profile = args.flag("--profile");
    let sweep = if args.flag("--smoke") { Sweep::smoke() } else { Sweep::full() };
    if profile {
        println!("(profiling enabled: per-job `profile` sections in the report)");
    }
    if let Err(e) =
        run_spec(&sweep.spec(profile), None, None, |report| print_tables(report, &sweep))
    {
        eprintln!("fig13_lod: {e}");
        std::process::exit(1);
    }
}

/// One printed line of the LOD table.
struct Row {
    config: TileConfig,
    lod: u32,
    cycles: u64,
    interp: Option<f64>,
    spec: Option<f64>,
}

fn print_tables(report: &Json, sweep: &Sweep) {
    let Some(t_iss) = job_timing(report, "iss", "kernel_secs") else {
        println!("ISS reference failed; cannot normalize (see BENCH_fig13.json)");
        return;
    };
    println!("pure ISS reference: {:.3} ms per kernel (LOD 1, perf 1.0)\n", t_iss * 1e3);

    println!(
        "{:<16} {:>4} {:>12} {:>14} {:>14}",
        "config <P,C,A>", "LOD", "cycles", "interp perf", "specialized perf"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &config in &sweep.configs {
        let perf = |engine| {
            job_timing(report, &job_name(config, engine), "kernel_secs").map(|dt| t_iss / dt)
        };
        let cycles = job_metric(report, &job_name(config, Engine::SpecializedOpt), "cycles")
            .or_else(|| job_metric(report, &job_name(config, Engine::Interpreted), "cycles"))
            .unwrap_or(0);
        rows.push(Row {
            config,
            lod: config.lod(),
            cycles,
            interp: perf(Engine::Interpreted),
            spec: perf(Engine::SpecializedOpt),
        });
    }
    rows.sort_by_key(|r| r.lod);
    let fmt = |p: Option<f64>| match p {
        Some(v) => format!("{v:>14.4}"),
        None => format!("{:>14}", "failed"),
    };
    for row in &rows {
        println!(
            "{:<16} {:>4} {:>12} {} {}",
            row.config.to_string(),
            row.lod,
            row.cycles,
            fmt(row.interp),
            fmt(row.spec)
        );
    }

    // Shape summary: specialization lifts every configuration; detail
    // costs performance.
    let mean_at = |lod: u32, pick: fn(&Row) -> Option<f64>| {
        let vals: Vec<f64> = rows.iter().filter(|r| r.lod == lod).filter_map(pick).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    println!(
        "\nLOD 3 mean perf: interp {:.4}, specialized {:.4}",
        mean_at(3, |r| r.interp),
        mean_at(3, |r| r.spec)
    );
    println!(
        "LOD 9 mean perf: interp {:.4}, specialized {:.4}",
        mean_at(9, |r| r.interp),
        mean_at(9, |r| r.spec)
    );
    println!(
        "specialization lift across all configs: {:.1}x (geometric mean)",
        geomean(rows.iter().filter_map(|r| Some(r.spec? / r.interp?)))
    );
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0);
    for v in vals {
        sum += v.ln();
        n += 1;
    }
    (sum / n as f64).exp()
}
