//! The shared compile cache (`ArtifactCache`) through the public API:
//! the parallel and batch engines reuse the plan stage `specialized-opt`
//! builds, and the cache stays bounded under an open-ended stream of
//! fingerprints.

use std::time::Duration;

use rustmtl::core::SignalId;
use rustmtl::net::NetLevel;
use rustmtl::prelude::*;
use rustmtl::sim::{ArtifactCache, SimConfig};
use rustmtl::soc::{Soc, SocConfig, SocTraffic};
use rustmtl::stdlib::Counter;

/// `SpecializedPar` builds through `build_shared` resolve the same plan
/// stage as `SpecializedOpt`: one counted tape lookup per build, no
/// `comp`/`cgen` on a hit, the same optimizer report and a trace that is
/// cycle-exact with an uncached build, whatever the thread count (which
/// no engine reads).
#[test]
fn par_builds_share_block_tapes_and_stay_cycle_exact() {
    let soc =
        Soc::new(SocConfig::synthetic(4, NetLevel::Rtl, SocTraffic::UniformRandom).with_limit(16));
    let cache = ArtifactCache::new();
    let engine = Engine::SpecializedPar;
    let par = |threads| SimConfig { threads: Some(threads), ..SimConfig::default() };
    let cold = Sim::build_shared(&soc, engine, &par(1), &cache, 7).expect("soc elaborates");
    assert!(cold.overheads().cgen > Duration::ZERO, "the first build compiles");
    assert_eq!((cache.stats().tape_misses, cache.stats().tape_hits), (1, 0));
    drop(cold);

    for (n, threads) in [1, 2].into_iter().enumerate() {
        let mut shared = Sim::build_shared(&soc, engine, &par(threads), &cache, 7).unwrap();
        assert_eq!(shared.overheads().comp, Duration::ZERO, "{threads} threads");
        assert_eq!(shared.overheads().cgen, Duration::ZERO, "{threads} threads");
        assert_eq!((cache.stats().tape_misses, cache.stats().tape_hits), (1, n as u64 + 1));

        let mut fresh = Sim::build_with_config(&soc, engine, &par(threads)).unwrap();
        assert_eq!(shared.opt_report(), fresh.opt_report(), "{threads} threads");
        shared.reset();
        fresh.reset();
        let signals = fresh.design().signals().len();
        for cycle in 0..400 {
            shared.cycle();
            fresh.cycle();
            for sig in (0..signals).map(SignalId::from_index) {
                assert_eq!(shared.peek(sig), fresh.peek(sig), "{threads} threads, cycle {cycle}");
            }
        }
    }
}

/// A batch simulator's lanes run the plan stage `specialized-opt` runs, so
/// the two engines share one cache entry: whichever builds second on a
/// key is a tape hit that skips `comp` and `cgen`, in either order.
#[test]
fn batch_and_opt_builds_share_one_plan_entry() {
    let cfg = SimConfig { lanes: Some(15), ..SimConfig::default() };
    for (first, second) in [
        (Engine::SpecializedOpt, Engine::SpecializedBatch),
        (Engine::SpecializedBatch, Engine::SpecializedOpt),
    ] {
        let cache = ArtifactCache::new();
        let build = |engine| Sim::build_shared(&Counter::new(9), engine, &cfg, &cache, 3).unwrap();
        let cold = build(first);
        assert!(cold.overheads().cgen > Duration::ZERO, "{first} compiles");
        assert_eq!((cache.stats().tape_misses, cache.stats().tape_hits), (1, 0), "{first}");
        let mut warm = build(second);
        assert_eq!((cache.stats().tape_misses, cache.stats().tape_hits), (1, 1), "{second}");
        assert_eq!(warm.overheads().comp, Duration::ZERO, "{second} after {first}");
        assert_eq!(warm.overheads().cgen, Duration::ZERO, "{second} after {first}");
        assert_eq!(warm.opt_report(), cold.opt_report(), "{second} after {first}");
        let expected =
            count_after(&mut Sim::build(&Counter::new(9), Engine::SpecializedOpt).unwrap(), 300);
        assert_eq!(count_after(&mut warm, 300), expected, "{second} after {first}");
    }
}

fn count_after(sim: &mut Sim, cycles: u64) -> u128 {
    sim.reset();
    sim.poke_port("en", b(1, 1));
    sim.poke_port("clear", b(1, 0));
    sim.run(cycles);
    sim.peek_port("count").as_u128()
}

/// A daemon sees a new fingerprint for every seed of a seeded design; the
/// cache must not pin them all. A key that keeps being used survives any
/// number of one-off keys, and an evicted key just compiles again.
#[test]
fn hot_key_survives_a_cold_sweep_and_evicted_keys_recompile() {
    const HOT: u64 = u64::MAX;
    let cache = ArtifactCache::new();
    let cfg = SimConfig::default();
    let build = |key: u64, nbits: u32| {
        Sim::build_shared(&Counter::new(nbits), Engine::SpecializedOpt, &cfg, &cache, key).unwrap()
    };
    let expected =
        count_after(&mut Sim::build(&Counter::new(9), Engine::SpecializedOpt).unwrap(), 300);
    assert_eq!(count_after(&mut build(0, 9), 300), expected);
    build(HOT, 12);

    let cold = ArtifactCache::CAPACITY as u64 + 8;
    for key in 1..=cold {
        build(key, 8);
        if key % 16 == 0 {
            build(HOT, 12);
        }
    }
    let swept = cache.stats();
    assert_eq!(swept.entries, ArtifactCache::CAPACITY as u64, "{swept:?}");
    assert_eq!(swept.evictions, cold + 2 - ArtifactCache::CAPACITY as u64, "{swept:?}");

    build(HOT, 12);
    let hot = cache.stats();
    assert_eq!(hot.tape_hits, swept.tape_hits + 1, "the hot key was evicted: {hot:?}");
    assert_eq!(hot.design_hits, swept.design_hits + 1, "{hot:?}");

    // Key 0 is the oldest untouched entry, long gone: it compiles afresh,
    // is cached again, and behaves exactly as it did before eviction.
    assert_eq!(count_after(&mut build(0, 9), 300), expected);
    let again = cache.stats();
    assert_eq!(again.tape_misses, hot.tape_misses + 1, "{again:?}");
    assert_eq!(again.shape_rejected, 0, "{again:?}");
    assert_eq!(count_after(&mut build(0, 9), 300), expected);
    assert_eq!(cache.stats().tape_hits, again.tape_hits + 1);
}
