//! Checkpoint journal: incremental JSONL log of finished jobs.
//!
//! A campaign configured with [`Campaign::journal`](crate::Campaign)
//! appends one line per completed job as it finishes, so an interrupted
//! run (crash, Ctrl-C, watchdog-killed process, machine loss) can be
//! restarted and every already-finished job is *replayed* from the
//! journal instead of recomputed. The file is line-oriented on purpose:
//! appends are atomic enough at line granularity, and a kill mid-write
//! corrupts at most the final line, which resume skips with a warning.
//!
//! Layout: the first line is a header binding the journal to one
//! `(campaign, seed, engine config, format)` identity; each further
//! line is one completed job keyed by its fingerprint (the same
//! identity hash the result cache uses, covering campaign name, job
//! name, ordered parameters, and per-job seed). A journal whose header
//! does not match the resuming campaign is ignored and overwritten —
//! replaying results across a renamed, reseeded, or re-engined campaign
//! would silently mix experiments. The engine config is part of the
//! identity because per-engine timing metrics are journalled alongside
//! the deterministic ones: a resume under a different engine or thread
//! count must recompute, not replay stale numbers.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::chaos::{self, WriteFate};
use crate::job::JobMetrics;
use crate::json::{self, Json};
use crate::record;

/// Bump when the journal header or entry layout changes.
/// Format 2 added the `engine` identity field to the header; format 3
/// made every entry line a checked [`record`].
const JOURNAL_FORMAT: u32 = 3;

/// An open, append-mode checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    /// The file, and how many records this process has appended to it.
    file: Mutex<(File, usize)>,
    path: PathBuf,
    /// Crash hook for the resume smoke test: with
    /// `RUSTMTL_SWEEP_EXIT_AFTER=N` the process exits with status 99, as
    /// if killed, the moment its `N`th record is on disk — under the
    /// append lock, so exactly `N` records are.
    exit_after: Option<usize>,
}

/// Completed jobs recovered from an existing journal, keyed by job
/// fingerprint.
pub type Replay = HashMap<u64, JobMetrics>;

impl Journal {
    /// Opens `path` for the given campaign identity, recovering completed
    /// jobs from any compatible existing journal. `engine` is the
    /// campaign's engine configuration string (engine kind + thread/lane
    /// count, `""` if untracked) and is part of the identity.
    ///
    /// * No file: a fresh journal is created (header written) and the
    ///   replay map is empty.
    /// * Matching header: every well-formed entry line is recovered;
    ///   corrupt or truncated lines (a killed writer's torn final line,
    ///   bit rot — anything that fails the record's check) are skipped
    ///   with a warning on stderr. The file is kept
    ///   and further entries append to it.
    /// * Mismatched or unreadable header: the journal belongs to a
    ///   different campaign/seed/engine/format — it is discarded (with a
    ///   warning) and rewritten from scratch.
    ///
    /// Returns `None` (journalling disabled, campaign still runs) if the
    /// file cannot be created or opened.
    pub fn open(path: &Path, campaign: &str, seed: u64, engine: &str) -> Option<(Journal, Replay)> {
        let mut replay = Replay::new();
        let mut keep_existing = false;
        let mut needs_newline = false;
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut lines = text.lines();
            match lines.next().map(|h| header_matches(h, campaign, seed, engine)) {
                Some(true) => {
                    keep_existing = true;
                    // A killed writer can leave a torn final line with no
                    // newline; appending straight after it would weld the
                    // next record onto the torn one and lose both.
                    needs_newline = !text.is_empty() && !text.ends_with('\n');
                    for (i, line) in lines.enumerate() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        match record::decode(line) {
                            Some((fingerprint, metrics)) => {
                                replay.insert(fingerprint, metrics);
                            }
                            None => eprintln!(
                                "mtl-sweep: skipping corrupt journal line {} in {} \
                                 (job will be re-executed)",
                                i + 2,
                                path.display()
                            ),
                        }
                    }
                }
                Some(false) => {
                    eprintln!(
                        "mtl-sweep: journal {} belongs to a different campaign/seed/engine; \
                         starting it over",
                        path.display()
                    );
                }
                None => {}
            }
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut opts = OpenOptions::new();
        if keep_existing {
            opts.append(true);
        } else {
            opts.write(true).truncate(true);
        }
        let mut file = opts.create(true).open(path).ok()?;
        if keep_existing {
            if needs_newline {
                writeln!(file).ok()?;
            }
        } else {
            let mut header = Json::obj();
            header
                .set("journal", "mtl-sweep")
                .set("format", JOURNAL_FORMAT)
                .set("campaign", campaign)
                .set("seed", format!("{seed:016x}"))
                .set("engine", engine);
            writeln!(file, "{}", header.to_compact()).ok()?;
            file.flush().ok()?;
        }
        let exit_after =
            std::env::var("RUSTMTL_SWEEP_EXIT_AFTER").ok().and_then(|v| v.trim().parse().ok());
        Some((
            Journal { file: Mutex::new((file, 0)), path: path.to_path_buf(), exit_after },
            replay,
        ))
    }

    /// Appends one completed job. Flushed immediately — a checkpoint that
    /// only exists in a userspace buffer protects against nothing.
    ///
    /// An installed [`chaos`] policy can corrupt this append (torn line,
    /// duplicate, stale foreign entry, dropped write) to prove resume
    /// tolerates every failure a real filesystem can produce.
    pub fn record(&self, fingerprint: u64, name: &str, metrics: &JobMetrics) {
        let line = record::encode(fingerprint, name, metrics).to_compact();
        let fate = match chaos::active() {
            Some(policy) => policy.journal_fate(name),
            None => WriteFate::Intact,
        };
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let (file, appended) = &mut *guard;
        let wrote = match fate {
            WriteFate::Intact => writeln!(file, "{line}"),
            WriteFate::Torn => {
                // Half the bytes, no newline: what a kill mid-append
                // leaves behind. Resume must skip it and recompute.
                let torn = &line[..line.len() / 2];
                write!(file, "{torn}")
            }
            WriteFate::Duplicated => {
                writeln!(file, "{line}").and_then(|()| writeln!(file, "{line}"))
            }
            WriteFate::Stale => {
                // A well-formed record under a foreign fingerprint no job
                // in this campaign owns: resume must leave it unmatched,
                // not replay it.
                let stale = record::encode(
                    fingerprint ^ 0xDEAD_BEEF_DEAD_BEEF,
                    "stale-intruder",
                    &JobMetrics::new().det("v", 1u64),
                )
                .to_compact();
                writeln!(file, "{stale}").and_then(|()| writeln!(file, "{line}"))
            }
            WriteFate::Enospc => Err(std::io::Error::other("chaos: simulated ENOSPC")),
        };
        if wrote.and_then(|()| file.flush()).is_err() {
            eprintln!(
                "mtl-sweep: failed to append to journal {} (resume would recompute this job)",
                self.path.display()
            );
            return;
        }
        *appended += 1;
        if Some(*appended) == self.exit_after {
            // Simulated kill: the journalled state is on disk, the rest
            // of the campaign dies with the process.
            std::process::exit(99);
        }
    }
}

fn header_matches(line: &str, campaign: &str, seed: u64, engine: &str) -> bool {
    let Ok(h) = json::parse(line) else { return false };
    h.get("journal").and_then(Json::as_str) == Some("mtl-sweep")
        && h.get("format").and_then(Json::as_u64) == Some(JOURNAL_FORMAT as u64)
        && h.get("campaign").and_then(Json::as_str) == Some(campaign)
        && h.get("seed").and_then(Json::as_str) == Some(format!("{seed:016x}").as_str())
        && h.get("engine").and_then(Json::as_str) == Some(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mtl-sweep-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("campaign.jsonl")
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let path = tmp_journal("roundtrip");
        let (journal, replay) = Journal::open(&path, "camp", 7, "interpreted x2").unwrap();
        assert!(replay.is_empty());
        journal.record(0xAB, "a", &JobMetrics::new().det("v", 1u64));
        journal.record(0xCD, "b", &JobMetrics::new().det("v", 2u64).timing("t", 0.5));
        drop(journal);

        let (journal, replay) = Journal::open(&path, "camp", 7, "interpreted x2").unwrap();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[&0xAB].get("v").unwrap().as_u64(), Some(1));
        assert_eq!(replay[&0xCD].f64("t"), Some(0.5));
        // Appending after resume keeps earlier entries.
        journal.record(0xEF, "c", &JobMetrics::new());
        drop(journal);
        let (_, replay) = Journal::open(&path, "camp", 7, "interpreted x2").unwrap();
        assert_eq!(replay.len(), 3);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_final_line_is_skipped_not_fatal() {
        let path = tmp_journal("torn");
        let (journal, _) = Journal::open(&path, "camp", 7, "").unwrap();
        journal.record(0xAB, "a", &JobMetrics::new().det("v", 1u64));
        drop(journal);
        // Simulate a kill mid-append: a truncated trailing line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"fingerprint\":\"00cd\",\"name\":\"b\",\"met");
        std::fs::write(&path, text).unwrap();

        let (journal, replay) = Journal::open(&path, "camp", 7, "").unwrap();
        assert_eq!(replay.len(), 1, "intact entry survives, torn one is skipped");
        assert!(replay.contains_key(&0xAB));
        // Appending after a torn no-newline tail must not weld the new
        // record onto the torn fragment.
        journal.record(0xEF, "c", &JobMetrics::new().det("v", 3u64));
        drop(journal);
        let (_, replay) = Journal::open(&path, "camp", 7, "").unwrap();
        assert_eq!(replay.len(), 2, "record appended after torn tail is recovered");
        assert!(replay.contains_key(&0xEF));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Regression: a journal line used to be accepted whenever it parsed,
    /// so one flipped bit in a digit (`448` → `449`) replayed a wrong
    /// number into the resumed campaign's report. Wherever the flip
    /// lands, the line must be skipped — and only that line.
    #[test]
    fn bit_flipped_lines_are_skipped_at_every_position() {
        let path = tmp_journal("bitflip");
        let (journal, _) = Journal::open(&path, "camp", 7, "").unwrap();
        journal.record(0xAB, "a", &JobMetrics::new().det("cycles", 448u64).timing("rate", 1.25e6));
        journal.record(0xCD, "b", &JobMetrics::new().det("cycles", 600u64));
        drop(journal);
        let pristine = std::fs::read(&path).unwrap();
        let line_ends: Vec<usize> = (0..pristine.len()).filter(|&i| pristine[i] == b'\n').collect();
        assert_eq!(line_ends.len(), 3, "header and two entries");

        for pos in line_ends[0] + 1..line_ends[1] {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let (_, replay) = Journal::open(&path, "camp", 7, "").unwrap();
            assert!(!replay.contains_key(&0xAB), "flip at byte {pos} must drop the entry");
            assert_eq!(replay.len(), 1, "flip at byte {pos}: nothing else replays in its place");
            assert_eq!(replay[&0xCD].get("cycles").unwrap().as_u64(), Some(600));
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn mismatched_identity_starts_over() {
        let path = tmp_journal("identity");
        let (journal, _) = Journal::open(&path, "camp", 7, "").unwrap();
        journal.record(0xAB, "a", &JobMetrics::new().det("v", 1u64));
        drop(journal);

        // Same path, different seed: stale checkpoints must not replay.
        let (_, replay) = Journal::open(&path, "camp", 8, "").unwrap();
        assert!(replay.is_empty());
        // And the file was rewritten for the new identity.
        let (_, replay) = Journal::open(&path, "camp", 8, "").unwrap();
        assert!(replay.is_empty());
        let (_, replay) = Journal::open(&path, "camp", 7, "").unwrap();
        assert!(replay.is_empty(), "old-identity entries are gone for good");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn engine_config_is_part_of_the_identity() {
        let path = tmp_journal("engine");
        let (journal, _) = Journal::open(&path, "camp", 7, "specialized-batch x4").unwrap();
        journal.record(0xAB, "a", &JobMetrics::new().det("v", 1u64));
        drop(journal);

        // Same campaign and seed, different engine config: timing-bearing
        // checkpoints are stale — the journal starts over.
        let (_, replay) = Journal::open(&path, "camp", 7, "interpreted x1").unwrap();
        assert!(replay.is_empty(), "engine change invalidates the journal");
        let (_, replay) = Journal::open(&path, "camp", 7, "specialized-batch x4").unwrap();
        assert!(replay.is_empty(), "original-engine entries are gone after rewrite");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
