//! Shared compiled-artifact cache: elaborated designs and the staged
//! compile output of [`crate::compile`], keyed by a caller-supplied
//! fingerprint.
//!
//! A persistent process serving many simulation jobs (the `mtl-serve`
//! daemon) rebuilds the *same* design over and over: every fault-sweep
//! chunk of one design point, every trial batch of one mesh
//! configuration. Elaboration plus tape compilation dominate short jobs,
//! and both produce data that is reusable across simulator instances:
//!
//! * **Elaborated designs** (`Arc<Design>`) — shareable only when the
//!   design has *no native blocks*: native closures are stateful
//!   `FnMut`s drained once per design by [`Design::take_natives`], so a
//!   design carrying them can serve exactly one simulator. Pure-IR (RTL)
//!   designs are immutable data and shared freely.
//! * **Compiled stages** ([`Staged`]: block bodies, fused plans) — the
//!   construction phases `comp` (constant folding), `cgen` (tape codegen)
//!   and the plan-fusion part of `simc` produce pure data (`Tape`s are
//!   just op vectors). These are shared even for native-bearing designs:
//!   the per-instance state (packed nets, sensitivity lists, native
//!   closures) is rebuilt cheaply, the compilation is not. Each stage is
//!   built from the one below, so an entry holding only the block stage
//!   (from `Specialized`) still saves `SpecializedOpt`, `SpecializedPar`
//!   and `SpecializedBatch` their `comp`/`cgen`, and those three share the
//!   plan stage outright. Per-block tapes, which only engines that run
//!   blocks one at a time build, are shared the same way.
//!
//! The cache key is a caller-supplied 64-bit fingerprint (produced with
//! `mtl-sweep`'s FNV machinery from whatever parameters generate the
//! design). **The key must uniquely identify the elaborated design**;
//! as defense in depth every compiled lookup additionally validates a
//! structural [`shape_of`] digest of the design against the entry and
//! rejects (recompiles) on mismatch, so a colliding or misused key
//! degrades to a miss, never to executing tapes against the wrong
//! design. The cache holds at most [`ArtifactCache::CAPACITY`]
//! fingerprints and evicts whole entries least-recently-used first.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::compile::{BlockTapes, Plans};
use crate::tape::Tape;
use mtl_core::{BlockBody, BlockKind, Design};

/// The stages of one design's artifact, lowest first; an engine names the
/// highest one it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layer {
    /// The elaborated design.
    Design,
    /// Block bodies (`Specialized`).
    Blocks,
    /// Fused static schedules (`SpecializedOpt`, `SpecializedPar`,
    /// every lane of `SpecializedBatch`).
    Plans,
}

/// The layered slots of one cache entry — equally what a build starts
/// from and what it hands back. Each stage is a deterministic function of
/// the one below it; pure data, safe to execute from any number of
/// simulators.
#[derive(Clone, Default)]
pub(crate) struct Staged {
    pub(crate) design: Option<Arc<Design>>,
    pub(crate) blocks: Option<Arc<BlockTapes>>,
    /// Every block's own tape ([`BlockTapes::tapes`]), built from `blocks`
    /// by the first engine that runs blocks one at a time and shared from
    /// then on by every engine holding this artifact.
    pub(crate) singles: Arc<OnceLock<Vec<Tape>>>,
    pub(crate) plans: Option<Arc<Plans>>,
}

impl Staged {
    fn has(&self, layer: Layer) -> bool {
        match layer {
            Layer::Design => self.design.is_some(),
            Layer::Blocks => self.blocks.is_some(),
            Layer::Plans => self.plans.is_some(),
        }
    }
}

/// The identity of an entry's compiled stages, checked on every compiled
/// lookup and store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Guard {
    /// Structural digest of the design the stages were compiled from.
    shape: u64,
    /// Whether the tape optimizer ran. A lookup requesting the other
    /// setting is a miss, never a silent mismatch (optimized and
    /// unoptimized tapes are behaviorally equivalent but differ in
    /// ops/registers, and the fingerprint must cover what actually
    /// executes).
    optimized: bool,
}

impl Guard {
    pub(crate) fn of(design: &Design, optimized: bool) -> Guard {
        Guard { shape: shape_of(design), optimized }
    }
}

#[derive(Default)]
struct Entry {
    staged: Staged,
    /// Set by the first compiled stage stored (first writer wins).
    guard: Option<Guard>,
    /// Value of [`Entries::clock`] at the last lookup or store.
    last_used: u64,
}

#[derive(Default)]
struct Entries {
    map: HashMap<u64, Entry>,
    clock: u64,
}

/// Counter snapshot from [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStats {
    /// Tape-artifact lookups satisfied from the cache (compiles skipped).
    pub tape_hits: u64,
    /// Tape-artifact lookups that compiled fresh.
    pub tape_misses: u64,
    /// Lookups rejected by the structural shape check (key misuse; the
    /// build fell back to a fresh compile).
    pub shape_rejected: u64,
    /// Elaborations skipped by reusing a cached native-free design.
    pub design_hits: u64,
    /// Whole entries dropped, least recently used first, to keep the
    /// cache within [`ArtifactCache::CAPACITY`] fingerprints.
    pub evictions: u64,
    /// Distinct fingerprints currently cached.
    pub entries: u64,
}

impl ArtifactStats {
    /// Fraction of tape lookups served from the cache (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.tape_hits + self.tape_misses;
        if total == 0 {
            0.0
        } else {
            self.tape_hits as f64 / total as f64
        }
    }
}

/// The process-wide cache. Thread-safe; intended to live in an `Arc`
/// shared by every job a server executes. See the module docs for the
/// sharing rules and [`crate::Sim::build_shared`] for the entry point.
#[derive(Default)]
pub struct ArtifactCache {
    entries: Mutex<Entries>,
    tape_hits: AtomicU64,
    tape_misses: AtomicU64,
    shape_rejected: AtomicU64,
    design_hits: AtomicU64,
    evictions: AtomicU64,
}

impl ArtifactCache {
    /// Most fingerprints held at once. A daemon sees an open-ended stream
    /// of keys (every seed of a seeded design is its own design), each
    /// pinning a design plus its tapes; beyond this many the least
    /// recently used entry is dropped whole and recompiles on next use.
    pub const CAPACITY: usize = 64;

    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> ArtifactStats {
        ArtifactStats {
            tape_hits: self.tape_hits.load(Ordering::Relaxed),
            tape_misses: self.tape_misses.load(Ordering::Relaxed),
            shape_rejected: self.shape_rejected.load(Ordering::Relaxed),
            design_hits: self.design_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.lock().map.len() as u64,
        }
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Every update leaves the map valid at every step, so a panic in
    /// another holder does not invalidate it.
    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the stages cached under `key` if they contain `need`, else
    /// runs `build` on whatever usable stages there are (it fills in the
    /// rest) and publishes the result. `guard` is the identity of the
    /// compiled stages; design-only requests, made before there is a
    /// design to digest, pass `None`.
    pub(crate) fn get_or_build<E>(
        &self,
        key: u64,
        need: Layer,
        guard: Option<Guard>,
        build: impl FnOnce(Staged) -> Result<Staged, E>,
    ) -> Result<Staged, E> {
        let have = self.lookup(key, need, guard);
        if have.has(need) {
            return Ok(have);
        }
        let built = build(have)?;
        self.store(key, guard, &built);
        Ok(built)
    }

    /// The one lookup: fetches the entry, applies the guard, and counts
    /// the request against `need`. A shape mismatch (key collision or
    /// misuse) is counted and degrades to an empty result; so does an
    /// entry compiled under the other optimizer setting, as a plain miss
    /// — first-writer-wins keeps the cached one, so a process mixing
    /// settings under one key forgoes reuse for the minority setting.
    fn lookup(&self, key: u64, need: Layer, guard: Option<Guard>) -> Staged {
        let found = {
            let mut entries = self.lock();
            entries.clock += 1;
            let now = entries.clock;
            entries.map.get_mut(&key).map(|e| {
                e.last_used = now;
                (e.staged.clone(), e.guard)
            })
        };
        let have = match (found, guard) {
            (None, _) => Staged::default(),
            (Some((staged, cached)), Some(want)) => match cached {
                Some(c) if c.optimized != want.optimized => Staged::default(),
                Some(c) if c.shape != want.shape => {
                    self.shape_rejected.fetch_add(1, Ordering::Relaxed);
                    return Staged::default();
                }
                _ => staged,
            },
            (Some((staged, _)), None) => staged,
        };
        let counter = match need {
            Layer::Design if have.design.is_some() => &self.design_hits,
            Layer::Design => return have,
            _ if have.has(need) => &self.tape_hits,
            _ => &self.tape_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        have
    }

    /// The one store: merges freshly built stages into the entry, first
    /// writer winning slot by slot (a concurrent duplicate compile is
    /// discarded, not an error) and compiled stages only under a matching
    /// guard. A design is kept only if it is native-free (see the module
    /// docs; a native-bearing design can serve exactly one simulator).
    /// Creating an entry beyond [`ArtifactCache::CAPACITY`] evicts the
    /// least recently used one.
    fn store(&self, key: u64, guard: Option<Guard>, built: &Staged) {
        let design = built
            .design
            .as_ref()
            .filter(|d| !d.blocks().iter().any(|b| matches!(b.body, BlockBody::Native(..))));
        if design.is_none() && guard.is_none() {
            return;
        }
        let mut entries = self.lock();
        entries.clock += 1;
        let now = entries.clock;
        if !entries.map.contains_key(&key) && entries.map.len() >= Self::CAPACITY {
            let oldest = entries.map.iter().min_by_key(|(_, e)| e.last_used).map(|(&k, _)| k);
            entries.map.remove(&oldest.expect("a full cache has an oldest entry"));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let entry = entries.map.entry(key).or_default();
        entry.last_used = now;
        let slots = &mut entry.staged;
        if slots.design.is_none() {
            slots.design = design.cloned();
        }
        if guard.is_some_and(|g| *entry.guard.get_or_insert(g) == g) {
            if slots.blocks.is_none() {
                (slots.blocks, slots.singles) = (built.blocks.clone(), built.singles.clone());
            }
            slots.plans = slots.plans.take().or_else(|| built.plans.clone());
        }
    }
}

/// A cheap structural digest of an elaborated design: net count and
/// widths, memory geometry, and per-block (kind, body class, IR length,
/// read/write arity). Two designs with equal shape and equal cache key
/// are treated as the same design; the digest exists to catch key
/// collisions and misuse, not as the primary identity.
fn shape_of(design: &Design) -> u64 {
    // FNV-1a, matching mtl-sweep's fingerprint hash.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(design.nets().len() as u64);
    for net in design.nets() {
        mix(net.width as u64);
    }
    mix(design.mems().len() as u64);
    for mem in design.mems() {
        mix(mem.words);
        mix(mem.width as u64);
    }
    mix(design.blocks().len() as u64);
    for block in design.blocks() {
        mix(matches!(block.kind, BlockKind::Seq) as u64);
        match &block.body {
            BlockBody::Ir(body) => mix(body.stmts().len() as u64),
            BlockBody::Native(..) => mix(u64::MAX),
        }
        mix(block.reads.len() as u64);
        mix(block.writes.len() as u64);
        mix(block.mem_reads.len() as u64);
        mix(block.mem_writes.len() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Engine, Sim, SimConfig};
    use mtl_bits::b;
    use mtl_core::{Component, Ctx};

    /// A pure-IR counter: native-free, so both the design and the tapes
    /// are shareable.
    #[derive(Hash)]
    struct Counter {
        width: u32,
    }
    impl Component for Counter {
        fn build(&self, c: &mut Ctx) {
            let en = c.in_port("en", 1);
            let out = c.out_port("out", self.width);
            let nxt = c.wire("nxt", self.width);
            c.comb("calc", |b| b.assign(nxt, out + en.ex().zext(self.width)));
            c.seq("step", |b| b.assign(out, nxt));
        }
    }

    fn run_counter(sim: &mut Sim, cycles: u64) -> u128 {
        sim.reset();
        sim.poke_port("en", b(1, 1));
        for _ in 0..cycles {
            sim.cycle();
        }
        sim.peek_port("out").as_u128()
    }

    #[test]
    fn shared_builds_hit_the_cache_and_match_fresh_behavior() {
        let cache = ArtifactCache::new();
        let cfg = SimConfig::default();
        for engine in [Engine::Specialized, Engine::SpecializedOpt] {
            let fresh = run_counter(&mut Sim::build(&Counter { width: 8 }, engine).unwrap(), 37);
            let mut first =
                Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 7).unwrap();
            let mut second =
                Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 7).unwrap();
            assert_eq!(run_counter(&mut first, 37), fresh);
            assert_eq!(run_counter(&mut second, 37), fresh);
            // The reused build skipped the compile phases entirely.
            assert_eq!(second.overheads().comp, std::time::Duration::ZERO);
            assert_eq!(second.overheads().cgen, std::time::Duration::ZERO);
        }
        let stats = cache.stats();
        // Each engine mode: one miss then one hit; the second and later
        // builds also reuse the elaborated (native-free) design.
        assert_eq!(stats.tape_misses, 2, "{stats:?}");
        assert_eq!(stats.tape_hits, 2, "{stats:?}");
        assert_eq!(stats.design_hits, 3, "{stats:?}");
        assert_eq!(stats.shape_rejected, 0, "{stats:?}");
        assert_eq!(stats.entries, 1, "{stats:?}");
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    /// Per-block tapes exist only once an engine runs blocks one at a
    /// time: a plan-stage engine builds, resets and runs without them, and
    /// a profiled one, like the event-mode engine, builds them into the
    /// artifact's shared slot.
    #[test]
    fn only_engines_that_run_blocks_one_at_a_time_build_per_block_tapes() {
        let singles = |cache: &ArtifactCache| {
            let entries = cache.lock();
            entries.map[&1].staged.singles.get().map(Vec::len)
        };
        let cfg = SimConfig { threads: Some(2), ..SimConfig::default() };
        for engine in [Engine::SpecializedOpt, Engine::SpecializedPar, Engine::SpecializedBatch] {
            let cache = ArtifactCache::new();
            let mut sim =
                Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 1).unwrap();
            assert_eq!(run_counter(&mut sim, 5), 5, "{engine}");
            assert_eq!(singles(&cache), None, "{engine} runs plans only");
            sim.enable_profiling();
            run_counter(&mut sim, 5);
            assert_eq!(singles(&cache), Some(2), "{engine} profiled runs blocks one at a time");
        }
        let cache = ArtifactCache::new();
        let engine = Engine::Specialized;
        let mut sim = Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 1).unwrap();
        assert_eq!(run_counter(&mut sim, 5), 5);
        assert_eq!(singles(&cache), Some(2), "one tape per block");
    }

    #[test]
    fn a_misused_key_is_rejected_by_the_shape_check() {
        let cache = ArtifactCache::new();
        let cfg = SimConfig::default();
        let engine = Engine::SpecializedOpt;
        let a = run_counter(
            &mut Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 1).unwrap(),
            10,
        );
        // Same key, structurally different design: the cached design wins
        // the lookup and simulation proceeds on it — exactly why the key
        // must identify the design. Bypass design reuse with a fresh
        // cache per-mode... instead exercise the tape-level guard
        // directly: a fresh cache holding only the tape entry.
        let tapes_only = ArtifactCache::new();
        let mut first =
            Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &tapes_only, 1).unwrap();
        assert_eq!(run_counter(&mut first, 10), a);
        tapes_only.lock().map.get_mut(&1).unwrap().staged.design = None;
        let wide = run_counter(&mut Sim::build(&Counter { width: 16 }, engine).unwrap(), 300);
        let mut other =
            Sim::build_shared(&Counter { width: 16 }, engine, &cfg, &tapes_only, 1).unwrap();
        assert_eq!(run_counter(&mut other, 300), wide, "must recompile, not run 8-bit tapes");
        let stats = tapes_only.stats();
        assert_eq!(stats.shape_rejected, 1, "{stats:?}");
        assert_eq!(stats.tape_hits, 0, "{stats:?}");
    }

    #[test]
    fn concurrent_shared_builds_agree() {
        let cache = std::sync::Arc::new(ArtifactCache::new());
        let expected = run_counter(
            &mut Sim::build(&Counter { width: 8 }, Engine::SpecializedOpt).unwrap(),
            21,
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        let mut sim = Sim::build_shared(
                            &Counter { width: 8 },
                            Engine::SpecializedOpt,
                            &SimConfig::default(),
                            &cache,
                            42,
                        )
                        .unwrap();
                        assert_eq!(run_counter(&mut sim, 21), expected);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.tape_hits + stats.tape_misses, 32, "{stats:?}");
        assert!(stats.tape_hits >= 28, "at most one duplicate compile per thread: {stats:?}");
        assert_eq!(stats.shape_rejected, 0, "{stats:?}");
    }
}
