//! Facts about the host a ledger was measured on, and hermetic set-up of
//! the process environment.

use std::path::PathBuf;

use mtl_sweep::Json;

/// A run that starts above this 1-minute load average is stamped
/// `noisy_host` instead of being reported as if the machine were idle.
pub const NOISY_LOAD: f64 = 1.0;

/// Environment variables that change what the crates do. They are removed
/// before any workload runs so a ledger never depends on the caller's
/// shell; progress output of `mtl-sweep` is silenced the same way.
pub fn scrub_env() {
    let scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            matches!(k.as_str(), "MTL_SIM_THREADS" | "MTL_TAPE_OPT" | "MTL_LINT")
                || k.starts_with("RUSTMTL_")
        })
        .collect();
    for key in scrubbed {
        std::env::remove_var(key);
    }
    std::env::set_var("RUSTMTL_SWEEP_QUIET", "1");
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// 1-minute load average, if the platform exposes it.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark also runs from exported trees, where it is `unknown`).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(PathBuf::from(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.to_string()
    }
}

/// The stamp written at the top of every ledger.
pub fn stamp(seed: u64, seconds: f64) -> Json {
    let load = load_average();
    let mut o = Json::obj();
    o.set("cores", cores())
        .set("rustc", rustc_version())
        .set("commit", commit())
        .set("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .set("seed", seed)
        .set("seconds", seconds)
        .set("load_average_at_start", load.map_or(Json::Null, Json::Num))
        .set("noisy_host", load.is_some_and(|l| l > NOISY_LOAD))
        // Two cores is the reference container: any thread count above
        // the core count measures contention, not scaling.
        .set("threads_above_cores_measure_contention", true);
    o
}
