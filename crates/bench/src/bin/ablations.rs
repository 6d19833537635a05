//! Ablation studies over the design choices called out in DESIGN.md:
//! processor microarchitecture (multicycle FSM vs 5-stage pipeline),
//! router elastic-buffer depth, and cache capacity.
//!
//! Every ablation point is a run-to-completion or fixed-window sim with
//! deterministic cycle/latency results, declared as one `mtl-sweep`
//! campaign: the points run sharded across workers, results are cached
//! under `target/sweep-cache/`, and the full record lands in
//! `BENCH_ablations.json`.

use std::time::Duration;

use mtl_accel::{mvmult_data, mvmult_scalar_program, MvMultLayout, Tile, TileConfig, XcelLevel};
use mtl_bench::{banner, write_bench_report, Args};
use mtl_core::{Component, Ctx};
use mtl_net::{MeshNetworkStructural, NetStats, TrafficGen};
use mtl_proc::{CacheLevel, MngrAdapter, ProcLevel, TestMemory};
use mtl_sim::{Engine, Sim};
use mtl_sweep::{Campaign, CampaignReport, Job, JobMetrics};

const BUFFER_DEPTHS: [usize; 4] = [1, 2, 4, 8];
const CACHE_LINES: [u64; 4] = [4, 16, 64, 128];

fn main() {
    Args::parse(&[], &[]);
    banner("Ablations: processor pipeline, buffer depth, cache size", "design choices");

    let mut campaign = Campaign::new("ablations")
        .job(tile_job(
            "proc/multicycle",
            TileConfig { proc: ProcLevel::Rtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl },
            32,
        ))
        .job(tile_job(
            "proc/pipelined",
            TileConfig { proc: ProcLevel::PipeRtl, cache: CacheLevel::Rtl, xcel: XcelLevel::Rtl },
            32,
        ));
    for depth in BUFFER_DEPTHS {
        for injection in [100u32, 600] {
            campaign = campaign.job(buffer_job(depth, injection));
        }
    }
    for nlines in CACHE_LINES {
        campaign = campaign.job(tile_job(
            format!("cache/nlines{nlines}"),
            TileConfig { proc: ProcLevel::Cl, cache: CacheLevel::Cl, xcel: XcelLevel::Cl },
            nlines,
        ));
    }

    let report = campaign.run();
    proc_ablation(&report);
    buffer_ablation(&report);
    cache_ablation(&report);
    write_bench_report(&report, "ablations");
}

// --- 1 & 3. Tile kernel runs (processor microarchitecture, cache size) ------

fn tile_job(name: impl Into<String>, config: TileConfig, nlines: u64) -> Job {
    Job::new(name, move |_ctx| {
        let cycles = run_tile_cycles(config, nlines)?;
        Ok(JobMetrics::new().det("cycles", cycles))
    })
    .param("config", config)
    .param("cache_nlines", nlines)
    .param("kernel", "scalar mvmult 8x16")
    .budget(Duration::from_secs(120))
}

fn run_tile_cycles(config: TileConfig, nlines: u64) -> Result<u64, String> {
    let layout = MvMultLayout::default();
    let (rows, cols) = (8u32, 16u32);
    let (mat, vec) = mvmult_data(rows, cols);
    let program = mvmult_scalar_program(rows, cols, layout);

    struct H {
        config: TileConfig,
        nlines: u64,
        mngr: MngrAdapter,
        mem: TestMemory,
    }
    impl Component for H {
        fn name(&self) -> String {
            format!("AblationTileHarness_{}_{}", self.config, self.nlines)
        }
        fn build(&self, c: &mut Ctx) {
            let halted = c.out_port("halted", 1);
            let tile =
                c.instantiate("tile", &Tile { config: self.config, cache_nlines: self.nlines });
            let mem = c.instantiate("mem", &self.mem);
            let mngr = c.instantiate("mngr", &self.mngr);
            c.connect_reqresp(
                c.parent_reqresp_of(&tile, "imem"),
                c.child_reqresp_of(&mem, "port0"),
            );
            c.connect_reqresp(
                c.parent_reqresp_of(&tile, "dmem"),
                c.child_reqresp_of(&mem, "port1"),
            );
            c.connect_valrdy(c.out_valrdy_of(&mngr, "to_proc"), c.in_valrdy_of(&tile, "mngr2proc"));
            c.connect_valrdy(
                c.out_valrdy_of(&tile, "proc2mngr"),
                c.in_valrdy_of(&mngr, "from_proc"),
            );
            c.connect(c.port_of(&tile, "halted"), halted);
        }
    }

    let h =
        H { config, nlines, mngr: MngrAdapter::new(vec![]), mem: TestMemory::new(2, 1 << 16, 2) };
    {
        let handle = h.mem.handle();
        let mut m = handle.lock().unwrap();
        m[..program.len()].copy_from_slice(&program);
        let base = (layout.mat_base / 4) as usize;
        m[base..base + mat.len()].copy_from_slice(&mat);
        let base = (layout.vec_base / 4) as usize;
        m[base..base + vec.len()].copy_from_slice(&vec);
    }
    let mut sim = Sim::build(&h, Engine::SpecializedOpt).map_err(|e| format!("{e:?}"))?;
    sim.reset();
    let mut cycles = 0u64;
    while sim.peek_port("halted").is_zero() {
        sim.cycle();
        cycles += 1;
        if cycles >= 20_000_000 {
            return Err("kernel did not halt within 20M cycles".to_string());
        }
    }
    Ok(cycles)
}

fn proc_ablation(report: &CampaignReport) {
    println!("\n--- processor microarchitecture (scalar 8x16 kernel, RTL caches) ---");
    let multi = report.get("proc/multicycle").and_then(|j| j.u64("cycles"));
    let pipe = report.get("proc/pipelined").and_then(|j| j.u64("cycles"));
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

// --- 2. Router elastic-buffer depth ------------------------------------------

fn buffer_job(nentries: usize, injection: u32) -> Job {
    Job::new(format!("buffer/depth{nentries}/inj{injection:03}"), move |_ctx| {
        let (avg_latency, accepted_permille) = mesh_latency(nentries, injection);
        Ok(JobMetrics::new()
            .det("avg_latency", avg_latency)
            .det("accepted_permille", accepted_permille))
    })
    .param("nentries", nentries)
    .param("injection_permille", injection)
    .budget(Duration::from_secs(60))
}

fn mesh_latency(nentries: usize, injection: u32) -> (f64, f64) {
    struct H {
        nentries: usize,
        injection: u32,
        stats: std::sync::Arc<std::sync::Mutex<NetStats>>,
    }
    impl Component for H {
        fn name(&self) -> String {
            format!("BufferAblation_{}_{}", self.nentries, self.injection)
        }
        fn build(&self, c: &mut Ctx) {
            let n = 16usize;
            let net = MeshNetworkStructural::cl(n, 32, self.nentries);
            let net = c.instantiate("net", &net);
            for i in 0..n {
                let gen =
                    TrafficGen::new(i, n, 32, self.injection, 7 + i as u64, self.stats.clone());
                let g = c.instantiate(&format!("gen_{i}"), &gen);
                c.connect_valrdy(
                    c.out_valrdy_of(&g, "out"),
                    c.in_valrdy_of(&net, &format!("in__{i}")),
                );
                c.connect_valrdy(
                    c.out_valrdy_of(&net, &format!("out_{i}")),
                    c.in_valrdy_of(&g, "in_"),
                );
            }
        }
    }
    let stats = std::sync::Arc::new(std::sync::Mutex::new(NetStats::default()));
    let h = H { nentries, injection, stats: stats.clone() };
    let mut sim = Sim::build(&h, Engine::SpecializedOpt).unwrap();
    sim.reset();
    sim.run(300);
    stats.lock().unwrap().clear();
    sim.run(1500);
    let st = stats.lock().unwrap();
    (st.avg_latency(), st.received as f64 * 1000.0 / (1500.0 * 16.0))
}

fn buffer_ablation(report: &CampaignReport) {
    println!("\n--- router elastic-buffer depth (16-node CL mesh) ---");
    println!("  {:>8} {:>18} {:>18}", "depth", "latency @ 10%", "accepted @ 60%");
    for depth in BUFFER_DEPTHS {
        let lat = report.metric(&format!("buffer/depth{depth}/inj100"), "avg_latency");
        let acc = report.metric(&format!("buffer/depth{depth}/inj600"), "accepted_permille");
        match (lat, acc) {
            (Some(lat), Some(acc)) => println!("  {depth:>8} {lat:>18.1} {acc:>18.1}"),
            _ => println!("  {depth:>8} {:>18} {:>18}", "failed", "-"),
        }
    }
    println!("  (depth 1 halves link throughput — the reason the routers use 2+)");
}

// --- 3. Cache capacity --------------------------------------------------------

fn cache_ablation(report: &CampaignReport) {
    println!("\n--- cache capacity (scalar 8x16 kernel, CL tile) ---");
    println!("  {:>8} {:>12}", "lines", "cycles");
    for nlines in CACHE_LINES {
        match report.get(&format!("cache/nlines{nlines}")).and_then(|j| j.u64("cycles")) {
            Some(cycles) => println!("  {nlines:>8} {cycles:>12}"),
            None => println!("  {nlines:>8} {:>12}", "failed"),
        }
    }
}
