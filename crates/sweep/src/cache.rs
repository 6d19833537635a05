//! Content-addressed result cache.
//!
//! Every job gets an FNV-1a fingerprint over the campaign name, job name,
//! ordered parameters, per-job seed, and a cache format version. Finished
//! results are persisted as one JSON file per fingerprint under
//! `target/sweep-cache/` (override with `RUSTMTL_SWEEP_CACHE=<dir>`,
//! disable with `RUSTMTL_SWEEP_CACHE=0`), so re-running a campaign skips
//! every measurement point whose identity is unchanged.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::chaos::{self, StoreFate};
use crate::job::{Job, JobMetrics};
use crate::record;

/// Bump when the cache entry format or fingerprint inputs change; the
/// version is folded into every fingerprint, so entries of another format
/// are never looked up.
/// (2: added the `check` integrity field; 3: an entry is one [`record`].)
const CACHE_FORMAT: u32 = 3;

/// 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn write_str(&mut self, s: &str) -> &mut Fnv1a {
        // Length-prefix so ("ab","c") and ("a","bc") hash differently.
        self.write(&(s.len() as u64).to_le_bytes()).write(s.as_bytes())
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Fnv1a {
        self.write(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Convenience: FNV-1a of one string.
pub fn fnv1a(s: &str) -> u64 {
    Fnv1a::new().write_str(s).finish()
}

/// The fingerprint identifying one measurement point's result.
pub fn job_fingerprint(campaign: &str, job: &Job, seed: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(CACHE_FORMAT as u64)
        .write_str(campaign)
        .write_str(&job.name)
        .write_u64(seed)
        .write_u64(job.params.len() as u64);
    for (k, v) in &job.params {
        h.write_str(k).write_str(v);
    }
    h.finish()
}

/// Where (and whether) results are persisted.
#[derive(Debug, Clone)]
pub enum CacheSetting {
    /// Resolve from `RUSTMTL_SWEEP_CACHE`, defaulting to
    /// `target/sweep-cache/`.
    Default,
    /// Use an explicit directory.
    Dir(PathBuf),
    /// Never read or write cached results.
    Disabled,
}

impl CacheSetting {
    pub(crate) fn resolve(&self) -> Option<PathBuf> {
        match self {
            CacheSetting::Disabled => None,
            CacheSetting::Dir(d) => Some(d.clone()),
            CacheSetting::Default => match std::env::var("RUSTMTL_SWEEP_CACHE") {
                Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => None,
                Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
                _ => Some(PathBuf::from("target/sweep-cache")),
            },
        }
    }
}

/// Probe counters for one cache handle. Clones of a [`ResultCache`]
/// share them, so a campaign's workers all feed one tally.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

/// A point-in-time snapshot of the probe counters ([`ResultCache::stats`]).
///
/// `hits + misses + corrupt_discarded` equals the number of probes:
/// an absent entry is a *miss*, a present-but-undecodable entry is a
/// *corrupt discard* (the probe still re-executes the job), and only a
/// verified decode is a *hit*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub corrupt_discarded: u64,
}

/// A resolved, ready-to-use cache directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    counters: Arc<Counters>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory; `None` if creation
    /// fails — caching then silently degrades to "always miss".
    pub fn open(dir: &Path) -> Option<ResultCache> {
        std::fs::create_dir_all(dir).ok()?;
        Some(ResultCache { dir: dir.to_path_buf(), counters: Arc::default() })
    }

    /// The directory this cache persists entries under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of this handle's probe counters (shared across clones).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            corrupt_discarded: self.counters.corrupt.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.json"))
    }

    /// Loads a cached result.
    ///
    /// A missing file is a silent miss (the normal cold-cache case). A
    /// file that is *present but does not decode* — unparseable,
    /// truncated, failing its integrity checksum (any bit flip, even one
    /// that still parses as JSON), or recording another fingerprint —
    /// is **corrupt**: it is discarded with a warning on stderr and the
    /// probe misses, so the job simply re-executes and rewrites the
    /// entry. Bad cached bytes must never become silent bad results.
    pub fn load(&self, fingerprint: u64) -> Option<JobMetrics> {
        let path = self.entry_path(fingerprint);
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let decoded =
            record::decode(&text).filter(|&(found, _)| found == fingerprint).map(|(_, m)| m);
        match &decoded {
            Some(_) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                eprintln!(
                    "mtl-sweep: discarding corrupt cache entry {} (job will re-execute)",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
        decoded
    }

    /// Persists a result. Failures are ignored: the cache is an
    /// optimization, never a correctness dependency.
    ///
    /// An installed [`chaos`] policy can corrupt the store after the
    /// fact (bit flip, truncation) or drop it (simulated ENOSPC); the
    /// record's integrity check in [`ResultCache::load`] is what turns those
    /// into harmless re-executions instead of silent bad results.
    pub fn store(&self, fingerprint: u64, job_name: &str, metrics: &JobMetrics) {
        let fate = match chaos::active() {
            Some(policy) => policy.cache_fate(job_name),
            None => StoreFate::Intact,
        };
        if fate == StoreFate::Enospc {
            return; // the write never lands; later probes simply miss
        }
        let doc = record::encode(fingerprint, job_name, metrics);
        let path = self.entry_path(fingerprint);
        // Write-then-rename so readers never observe a half-written
        // entry, with a tmp name unique per process *and* per write:
        // concurrent campaigns sharing one cache dir store the same
        // fingerprint at the same time, and a fixed tmp name would let
        // one writer rename another's half-written file into place.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{fingerprint:016x}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        if std::fs::write(&tmp, doc.to_pretty()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        } else {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        // Post-store chaos corruption: media faults strike *after* the
        // atomic rename — the entry landed intact, then rotted.
        match fate {
            StoreFate::Intact | StoreFate::Enospc => {}
            StoreFate::FlipBit => {
                if let Ok(mut bytes) = std::fs::read(&path) {
                    if !bytes.is_empty() {
                        // Deterministic position from the fingerprint, so
                        // seeded chaos runs corrupt reproducibly.
                        let pos = (fingerprint as usize) % bytes.len();
                        bytes[pos] ^= 1 << (fingerprint.rotate_right(8) % 8);
                        let _ = std::fs::write(&path, bytes);
                    }
                }
            }
            StoreFate::Truncate => {
                if let Ok(bytes) = std::fs::read(&path) {
                    let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Metric;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mtl-sweep-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprints_separate_distinct_points() {
        let mk = |name: &str, inj: u32, seed| {
            let job =
                Job::new(name, |_| Ok(JobMetrics::new())).param("inj", inj).param("level", "cl");
            job_fingerprint("fig15", &job, seed)
        };
        let base = mk("a", 20, 1);
        assert_eq!(base, mk("a", 20, 1), "fingerprints must be stable");
        assert_ne!(base, mk("b", 20, 1));
        assert_ne!(base, mk("a", 80, 1));
        assert_ne!(base, mk("a", 20, 2));
    }

    #[test]
    fn round_trips_metrics_through_disk() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let metrics = JobMetrics::new()
            .det("cycles", 600u64)
            .det("engine", "specialized-opt")
            .det("latency", 13.25)
            .timing("cycles_per_sec", 1.25e6);
        cache.store(42, "point", &metrics);
        let back = cache.load(42).unwrap();
        assert_eq!(back, metrics);
        assert_eq!(back.get("engine"), Some(Metric::Str("specialized-opt".into())));
        assert!(cache.load(43).is_none(), "unknown fingerprint must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses_and_are_discarded() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let path = dir.join(format!("{:016x}.json", 7u64));
        std::fs::write(&path, "{not json").unwrap();
        assert!(cache.load(7).is_none());
        assert!(!path.exists(), "corrupt entry must be removed, not left to warn forever");
        // A valid record filed under another job's fingerprint is not
        // that job's result.
        cache.store(8, "other", &JobMetrics::new().det("v", 1u64));
        std::fs::copy(dir.join(format!("{:016x}.json", 8u64)), &path).unwrap();
        assert!(cache.load(7).is_none());
        assert!(cache.load(8).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a bit-flipped cache entry must be rejected wherever
    /// the flip lands. Flips in structural bytes used to fail the parse
    /// (and were a miss), but a flip inside a *digit* or a *key name*
    /// still parsed cleanly and could replay wrong numbers or silently
    /// drop fields — the `check` integrity field catches those.
    #[test]
    fn bit_flipped_entries_are_rejected_at_every_position() {
        let dir = tmp_dir("bitflip");
        let cache = ResultCache::open(&dir).unwrap();
        let metrics = JobMetrics::new().det("cycles", 600u64).timing("rate", 1.25e6);
        cache.store(11, "point", &metrics);
        let path = dir.join(format!("{:016x}.json", 11u64));
        let pristine = std::fs::read(&path).unwrap();
        assert_eq!(cache.load(11), Some(metrics.clone()), "pristine entry loads");

        // Flip one bit at a spread of positions, including ones that
        // keep the document valid JSON (digits, key characters).
        for pos in (0..pristine.len()).step_by(7) {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0x01;
            if bytes == pristine {
                continue;
            }
            std::fs::write(&path, &bytes).unwrap();
            assert!(cache.load(11).is_none(), "flip at byte {pos} must invalidate the entry");
            assert!(!path.exists(), "flip at byte {pos}: entry must be discarded");
        }

        // Truncation (torn write, full disk) is likewise discarded.
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(cache.load(11).is_none());
        assert!(!path.exists());

        // And after discarding, a re-store works and loads again.
        cache.store(11, "point", &metrics);
        assert_eq!(cache.load(11), Some(metrics));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_counters_classify_hits_misses_and_corruption() {
        let dir = tmp_dir("counters");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.stats(), CacheStats::default());
        let metrics = JobMetrics::new().det("v", 1u64);
        cache.store(1, "a", &metrics);
        assert!(cache.load(1).is_some());
        assert!(cache.load(2).is_none(), "absent entry misses");
        std::fs::write(dir.join(format!("{:016x}.json", 3u64)), "{torn").unwrap();
        assert!(cache.load(3).is_none(), "torn entry discards");
        // Counters are shared across clones (one campaign, many workers).
        let stats = cache.clone().stats();
        assert_eq!(stats, CacheStats { hits: 1, misses: 1, corrupt_discarded: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the shared-cache-dir race: two writers storing the
    /// *same* fingerprint concurrently must never leave a torn entry —
    /// with a fixed tmp name, one writer could rename the other's
    /// half-written file into place.
    #[test]
    fn concurrent_stores_of_one_fingerprint_never_tear() {
        let dir = tmp_dir("concurrent-store");
        let metrics = JobMetrics::new().det("payload", "x".repeat(512).as_str());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = ResultCache::open(&dir).unwrap();
                let metrics = metrics.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        cache.store(99, "contended", &metrics);
                        // Either absent (mid-rename) or fully intact.
                        if let Some(seen) = cache.load(99) {
                            assert_eq!(seen, metrics);
                        }
                    }
                });
            }
        });
        let reader = ResultCache::open(&dir).unwrap();
        assert_eq!(reader.load(99), Some(metrics), "final entry intact");
        assert_eq!(reader.stats().corrupt_discarded, 0, "no torn entries ever observed");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "renames consumed every tmp file: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
