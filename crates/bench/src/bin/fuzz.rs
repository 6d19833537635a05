//! Differential fuzzing front end.
//!
//! Runs the `mtl-check` differential fuzzer (six simulator configurations:
//! the four engines of `Engine::ALL`, plus specialized-par at 1 and 4
//! threads) over seed-derived random designs and exits non-zero on
//! the first minimized mismatch.
//!
//! Usage:
//!   cargo run -p mtl-bench --release --bin fuzz -- \
//!       [--iters N] [--seed S] [--cycles C] [--repro-dir DIR] [--fault] [--opt-diff]
//!
//! Defaults: 100 iterations, seed 7, 25 cycles per design. The run is
//! fully deterministic in (iters, seed, cycles); CI pins all three so a
//! red fuzz stage is reproducible locally with the same flags.
//!
//! With `--repro-dir`, a mismatch additionally writes the minimized
//! reproducer to `DIR/repro_seed_<seed>.rs` (directory created as needed,
//! temp-file + rename so a partial file is never left behind).
//!
//! With `--opt-diff`, runs the optimizer-differential engine set instead
//! of the default six: both interpreters plus every tape-compiling
//! configuration twice, tape optimizer pinned off and pinned on (ten
//! configurations), so a miscompiling optimizer pass fails the run.
//!
//! With `--fault`, runs the fault-differential mode instead: each
//! iteration draws a seeded fault plan over the random design and asserts
//! every engine produces the identical golden-vs-faulty divergence report
//! (first-divergence cycle, masked/silent/detected classification, blast
//! radius). Fault-mode defaults: 25 iterations, 20 cycles, 3 faults/plan.
//!
//! With `--batch`, runs the batch differential instead: two
//! `SpecializedBatch` simulators, tape optimizer off and on (`--lanes N`
//! lanes, default 64), against one scalar `Interpreted` reference per
//! lane, every lane driven with distinct stimulus, every signal of every
//! lane compared after every cycle. Mismatches shrink-minimize like the default mode.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mtl_bench::Args;
use mtl_check::{
    design_seed, fault_fuzz_one, fuzz_one, write_repro_atomic, FaultFuzzConfig, FuzzConfig,
};

fn fault_main(seed_arg: Option<u64>, iters_arg: Option<u64>, cycles_arg: Option<u64>) -> ExitCode {
    let mut cfg = FaultFuzzConfig::default();
    if let Some(v) = iters_arg {
        cfg.iters = v;
    }
    if let Some(v) = seed_arg {
        cfg.seed = v;
    }
    if let Some(v) = cycles_arg {
        cfg.cycles = v;
    }

    println!(
        "fault differential: {} designs, base seed {}, {} cycles/design, \
         {} faults/plan, {} engine configs",
        cfg.iters,
        cfg.seed,
        cfg.cycles,
        cfg.faults,
        mtl_fault::agreement_configs(cfg.cycles).len()
    );
    let t0 = Instant::now();
    let (mut masked, mut silent, mut detected) = (0u64, 0u64, 0u64);
    for iter in 0..cfg.iters {
        let seed = design_seed(cfg.seed, iter);
        match fault_fuzz_one(seed, &cfg) {
            Ok(mtl_fault::Outcome::Masked) => masked += 1,
            Ok(mtl_fault::Outcome::Silent) => silent += 1,
            Ok(mtl_fault::Outcome::Detected) => detected += 1,
            Err(e) => {
                eprintln!("fault differential mismatch at iteration {iter}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "fault fuzz: OK — {} faulted designs agreed ({masked} masked, {silent} silent, \
         {detected} detected) in {:.1}s",
        cfg.iters,
        t0.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = Args::parse(
        &["--fault", "--opt-diff", "--batch"],
        &["--seed", "--iters", "--cycles", "--lanes", "--repro-dir"],
    );
    let (seed_arg, iters_arg, cycles_arg) =
        (args.parsed("--seed"), args.parsed("--iters"), args.parsed("--cycles"));
    if args.flag("--fault") {
        return fault_main(seed_arg, iters_arg, cycles_arg);
    }

    let mut cfg = FuzzConfig::default();
    if let Some(v) = iters_arg {
        cfg.iters = v;
    }
    if let Some(v) = seed_arg {
        cfg.seed = v;
    }
    if let Some(v) = cycles_arg {
        cfg.cycles = v;
    }
    cfg.opt_diff = args.flag("--opt-diff");
    if args.flag("--batch") {
        cfg.batch_lanes = Some(args.parsed("--lanes").unwrap_or(mtl_sim::BATCH_LANES));
    }
    let repro_dir = args.value("--repro-dir").map(PathBuf::from);

    let nengines = if cfg.batch_lanes.is_some() {
        3
    } else if cfg.opt_diff {
        mtl_check::engines_under_test_opt_diff().len()
    } else {
        mtl_check::engines_under_test().len()
    };
    match cfg.batch_lanes {
        Some(lanes) => println!(
            "differential fuzz (batch lanes): {} iterations, base seed {}, \
             {} cycles/design, {lanes} lanes, optimizer off and on, vs interpreted references",
            cfg.iters, cfg.seed, cfg.cycles,
        ),
        None => println!(
            "differential fuzz{}: {} iterations, base seed {}, {} cycles/design, {} engine configs",
            if cfg.opt_diff { " (optimizer-differential)" } else { "" },
            cfg.iters,
            cfg.seed,
            cfg.cycles,
            nengines
        ),
    }
    let t0 = Instant::now();
    let progress_every = (cfg.iters / 10).max(1);
    for iter in 0..cfg.iters {
        let seed = design_seed(cfg.seed, iter);
        if let Some(mut failure) = fuzz_one(seed, &cfg) {
            failure.iter = iter;
            eprintln!("{failure}");
            if let Some(dir) = &repro_dir {
                let name = format!("repro_seed_{:#x}.rs", failure.design_seed);
                match write_repro_atomic(dir, &name, &failure.repro) {
                    Ok(path) => eprintln!("reproducer written to {}", path.display()),
                    Err(e) => eprintln!("failed to write reproducer to {}: {e}", dir.display()),
                }
            }
            return ExitCode::FAILURE;
        }
        if (iter + 1) % progress_every == 0 || iter + 1 == cfg.iters {
            println!(
                "  {}/{} designs clean ({:.1}s)",
                iter + 1,
                cfg.iters,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "fuzz: OK — {} designs x {} cycles x {} engine configs in {:.1}s",
        cfg.iters,
        cfg.cycles,
        nengines,
        t0.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
