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
//! independent sims, declared as an `mtl-sweep` campaign: sharded,
//! panic-isolated, and reported to `BENCH_fig13.json`. Simulated cycle
//! counts are deterministic metrics; kernel wall-times (and thus the
//! relative-performance columns) are timing metrics.
//!
//! Flags:
//!
//! * `--smoke` — a small kernel on three representative configurations
//!   (all-FL, all-CL, all-RTL), for CI; still writes `BENCH_fig13.json`.
//! * `--profile` — enable simulation profiling in every tile job and
//!   attach the hottest blocks to each job's `profile` report section.

use std::time::{Duration, Instant};

use mtl_accel::{mvmult_data, mvmult_xcel_program, run_tile_profiled, MvMultLayout, TileConfig};
use mtl_bench::{banner, write_bench_report, Args};
use mtl_proc::{CacheLevel, Iss, ProcLevel};
use mtl_serve::{profile_json, PROFILE_TOP_N};
use mtl_sim::Engine;
use mtl_sweep::{Campaign, CampaignReport, Job, JobMetrics};

/// Kernel size, configuration list, and profiling mode for one run.
#[derive(Clone)]
struct Spec {
    rows: u32,
    cols: u32,
    configs: Vec<TileConfig>,
    max_cycles: u64,
    profile: bool,
}

impl Spec {
    fn full(profile: bool) -> Spec {
        Spec { rows: 8, cols: 16, configs: TileConfig::all(), max_cycles: 5_000_000, profile }
    }

    fn smoke(profile: bool) -> Spec {
        use mtl_accel::XcelLevel;
        let uniform = |p, c, x| TileConfig { proc: p, cache: c, xcel: x };
        Spec {
            rows: 4,
            cols: 4,
            configs: vec![
                uniform(ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl),
                uniform(ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl),
                uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl),
            ],
            max_cycles: 2_000_000,
            profile,
        }
    }
}

fn iss_job(spec: &Spec) -> Job {
    let (rows, cols) = (spec.rows, spec.cols);
    Job::new("iss", move |_ctx| {
        let layout = MvMultLayout::default();
        let program = mvmult_xcel_program(rows, cols, layout);
        let (mat, vec) = mvmult_data(rows, cols);
        // Median of several runs; the ISS is very fast on this kernel.
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let mut iss = Iss::new(1 << 16);
            iss.load(0, &program);
            iss.load(layout.mat_base, &mat);
            iss.load(layout.vec_base, &vec);
            let t0 = Instant::now();
            let mut reps = 0;
            while t0.elapsed().as_millis() < 50 {
                let mut i = iss.clone();
                i.run(10_000_000);
                if !i.halted {
                    return Err("ISS did not halt on the kernel".to_string());
                }
                reps += 1;
            }
            best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
        }
        Ok(JobMetrics::new().timing("kernel_secs", best))
    })
    .param("kernel", format!("mvmult {rows}x{cols}"))
    .budget(Duration::from_secs(30))
    .uncacheable()
}

fn engine_short(engine: Engine) -> &'static str {
    match engine {
        Engine::Interpreted => "interp",
        _ => "spec",
    }
}

fn tile_job(spec: &Spec, config: TileConfig, engine: Engine) -> Job {
    let (rows, cols) = (spec.rows, spec.cols);
    let (max_cycles, profile) = (spec.max_cycles, spec.profile);
    Job::new(format!("{config}/{}", engine_short(engine)), move |_ctx| {
        let layout = MvMultLayout::default();
        let program = mvmult_xcel_program(rows, cols, layout);
        let (mat, vec) = mvmult_data(rows, cols);
        let data: Vec<(u32, &[u32])> = vec![(layout.mat_base, &mat), (layout.vec_base, &vec)];
        let t0 = Instant::now();
        let r = run_tile_profiled(config, &program, &data, max_cycles, engine, profile);
        let dt = t0.elapsed().as_secs_f64();
        let mut metrics = JobMetrics::new()
            .det("cycles", r.cycles)
            .det("lod", config.lod() as u64)
            .timing("kernel_secs", dt);
        if let Some(p) = &r.profile {
            metrics = metrics.with_profile(profile_json(p, PROFILE_TOP_N));
        }
        Ok(metrics)
    })
    .param("config", config)
    .param("lod", config.lod())
    .param("engine", engine)
    .budget(Duration::from_secs(120))
    .uncacheable() // kernel wall-time is the measurement
}

fn main() {
    banner("Figure 13: simulator performance vs level of detail", "Fig. 13");
    let args = Args::parse(&["--profile", "--smoke"], &[]);
    let profile = args.flag("--profile");
    let spec = if args.flag("--smoke") { Spec::smoke(profile) } else { Spec::full(profile) };
    if spec.profile {
        println!("(profiling enabled: per-job `profile` sections in the report)");
    }

    let mut campaign = Campaign::new("fig13").job(iss_job(&spec));
    for &config in &spec.configs {
        for engine in [Engine::Interpreted, Engine::SpecializedOpt] {
            campaign = campaign.job(tile_job(&spec, config, engine));
        }
    }
    let report = campaign.run();
    print_tables(&report, &spec);
    write_bench_report(&report, "fig13");
}

/// One printed line of the LOD table.
struct Row {
    config: TileConfig,
    lod: u32,
    cycles: u64,
    interp: Option<f64>,
    spec: Option<f64>,
}

fn print_tables(report: &CampaignReport, spec: &Spec) {
    let Some(t_iss) = report.metric("iss", "kernel_secs") else {
        println!("ISS reference failed; cannot normalize (see BENCH_fig13.json)");
        return;
    };
    println!("pure ISS reference: {:.3} ms per kernel (LOD 1, perf 1.0)\n", t_iss * 1e3);

    println!(
        "{:<16} {:>4} {:>12} {:>14} {:>14}",
        "config <P,C,A>", "LOD", "cycles", "interp perf", "specialized perf"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &config in &spec.configs {
        let perf = |engine| {
            report
                .metric(&format!("{config}/{}", engine_short(engine)), "kernel_secs")
                .map(|dt| t_iss / dt)
        };
        let cycles = report
            .get(&format!("{config}/spec"))
            .and_then(|j| j.u64("cycles"))
            .or_else(|| report.get(&format!("{config}/interp")).and_then(|j| j.u64("cycles")))
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
