//! The `mtl_serve` CLI: daemon and thin client in one binary.
//!
//! ```text
//! mtl_serve daemon   --socket PATH [--workers N] [--cache-dir D] [--journal-dir D]
//!                    [--orphan-grace-ms MS]
//! mtl_serve daemon   --stdio      [--workers N] [--cache-dir D] [--journal-dir D]
//! mtl_serve submit   --socket PATH --file SPEC.json [--report OUT.json] [--quiet]
//! mtl_serve stats    --socket PATH
//! mtl_serve shutdown --socket PATH
//! ```
//!
//! `submit` streams the server's event lines to stdout (JSONL), prints
//! a human summary, and exits nonzero if any job failed or timed out —
//! so shell scripts can gate on campaign health. `stats` prints flat
//! `key=value` lines for grep (see scripts/ci/55_serve.sh).

use std::path::PathBuf;
use std::process::ExitCode;

use mtl_serve::{Client, Server, ServerConfig};
use mtl_sweep::Json;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn socket_arg(args: &[String]) -> Result<PathBuf, String> {
    arg_value(args, "--socket").map(PathBuf::from).ok_or_else(|| "--socket PATH required".into())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mtl_serve daemon --socket PATH|--stdio [--workers N] \
         [--cache-dir D] [--journal-dir D] [--orphan-grace-ms MS]\n\
         \x20      mtl_serve submit --socket PATH --file SPEC.json [--report OUT.json] [--quiet]\n\
         \x20      mtl_serve stats --socket PATH\n\
         \x20      mtl_serve shutdown --socket PATH"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => daemon(&args),
        Some("submit") => submit(&args),
        Some("stats") => stats(&args),
        Some("shutdown") => shutdown(&args),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mtl_serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn daemon(args: &[String]) -> Result<ExitCode, String> {
    let cfg = ServerConfig {
        workers: arg_value(args, "--workers").map(|v| v.parse().unwrap_or(0)).unwrap_or(0),
        cache_dir: arg_value(args, "--cache-dir").map(PathBuf::from),
        journal_dir: arg_value(args, "--journal-dir").map(PathBuf::from),
        orphan_grace: arg_value(args, "--orphan-grace-ms")
            .and_then(|v| v.parse().ok())
            .map(std::time::Duration::from_millis)
            .unwrap_or(ServerConfig::default().orphan_grace),
    };
    let server = Server::new(cfg);
    if has_flag(args, "--stdio") {
        server.serve_stdio();
        return Ok(ExitCode::SUCCESS);
    }
    let socket = socket_arg(args)?;
    eprintln!(
        "mtl_serve: daemon on {} ({} workers)",
        socket.display(),
        server.scheduler().workers()
    );
    server.serve_unix(&socket).map_err(|e| format!("cannot serve {}: {e}", socket.display()))?;
    Ok(ExitCode::SUCCESS)
}

fn submit(args: &[String]) -> Result<ExitCode, String> {
    let socket = socket_arg(args)?;
    let file = arg_value(args, "--file").ok_or("--file SPEC.json required")?;
    let quiet = has_flag(args, "--quiet");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let spec = mtl_sweep::json::parse(&text).map_err(|e| format!("bad spec {file}: {e}"))?;
    let mut client = Client::connect(&socket).map_err(|e| format!("cannot connect: {e}"))?;
    client.hello()?;
    let report = client.submit(&spec, |event| {
        if !quiet {
            println!("{}", event.to_compact());
        }
    })?;
    if let Some(out) = arg_value(args, "--report") {
        std::fs::write(&out, report.to_pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    let summary = report.get("summary").ok_or("report without summary")?;
    let count = |k: &str| summary.get(k).and_then(Json::as_u64).unwrap_or(0);
    let name = report.get("campaign").and_then(Json::as_str).unwrap_or("?");
    println!(
        "campaign {name}: {} jobs, {} done, {} failed, {} timed out, \
         {} replayed, {} cached",
        count("jobs"),
        count("done"),
        count("failed"),
        count("timed_out"),
        count("replayed"),
        count("cached"),
    );
    if count("failed") + count("timed_out") > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn stats(args: &[String]) -> Result<ExitCode, String> {
    let socket = socket_arg(args)?;
    let mut client = Client::connect(&socket).map_err(|e| format!("cannot connect: {e}"))?;
    let stats = client.stats()?;
    let compile = stats.get("compile").ok_or("stats without compile section")?;
    let get = |doc: &Json, k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    // Flat key=value lines: stable grep surface for CI.
    println!("compile_tape_hits={}", get(compile, "tape_hits"));
    println!("compile_tape_misses={}", get(compile, "tape_misses"));
    println!("compile_shape_rejected={}", get(compile, "shape_rejected"));
    println!("compile_design_hits={}", get(compile, "design_hits"));
    println!("compile_evictions={}", get(compile, "evictions"));
    println!("compile_entries={}", get(compile, "entries"));
    println!("active_campaigns={}", get(&stats, "active_campaigns"));
    println!("completed_campaigns={}", get(&stats, "completed_campaigns"));
    Ok(ExitCode::SUCCESS)
}

fn shutdown(args: &[String]) -> Result<ExitCode, String> {
    let socket = socket_arg(args)?;
    let mut client = Client::connect(&socket).map_err(|e| format!("cannot connect: {e}"))?;
    client.shutdown()?;
    Ok(ExitCode::SUCCESS)
}
