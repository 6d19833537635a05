//! Opt-in simulation profiling: per-block execution counts and wall time,
//! fixpoint/queue-depth histograms, and per-net activity rollups.
//!
//! Enable with [`Sim::enable_profiling`](crate::Sim::enable_profiling) and
//! read the collected [`SimProfile`] back with
//! [`Sim::profile`](crate::Sim::profile). The profile splits into two
//! metric classes:
//!
//! * **Logical** metrics are pure functions of the simulated value trace
//!   and therefore identical across all four engines: `block_runs` counts,
//!   for each combinational block, the settle points (ends of `eval()` /
//!   `cycle()`) at which any net the block reads or writes changed settled
//!   value, and for each sequential block the clock edges; `settles` and
//!   `cycles` count settle points and clock edges. The engine-equivalence
//!   suite asserts these agree engine-to-engine.
//! * **Physical** metrics describe how *this* engine did the work and are
//!   deliberately engine-specific: `block_nanos` (cumulative wall time per
//!   block), `fixpoint_iters` (block executions per settle pass) and
//!   `queue_depth` (event-queue depth at each pop; empty for the static
//!   engine, which has no queue). Comparing them across engines is the
//!   whole point — they explain *why* one regime beats another.

use crate::sim::Engine;

/// A histogram over `u64` samples with power-of-two buckets.
///
/// Bucket 0 holds zero samples; bucket `i > 0` holds samples in
/// `[2^(i-1), 2^i)`. Total count, sum and max are tracked exactly so the
/// mean is not quantized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: Vec<u64>,
    samples: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist { buckets: vec![0; 65], samples: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[idx] += 1;
        self.samples += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Non-empty buckets as `(lo, hi, count)` ranges (inclusive bounds).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = if i == 0 {
                    (0, 0)
                } else {
                    (1u64 << (i - 1), (1u64 << (i - 1)).wrapping_mul(2).wrapping_sub(1))
                };
                (lo, hi, c)
            })
            .collect()
    }
}

/// Physical per-engine counters collected inside a backend.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineStats {
    /// Cumulative wall time per block, indexed by block.
    pub block_nanos: Vec<u64>,
    /// Settle passes the backend performed (engine-specific: the event
    /// engines settle twice per cycle, before and after register commit).
    pub settles: u64,
    /// Block executions per settle pass.
    pub fixpoint: Hist,
    /// Event-queue depth observed at each pop (empty for the static
    /// schedule, which has no queue).
    pub queue_depth: Hist,
}

impl EngineStats {
    pub(crate) fn new(nblocks: usize) -> EngineStats {
        EngineStats { block_nanos: vec![0; nblocks], ..EngineStats::default() }
    }
}

/// One ranked entry of [`SimProfile::hot_blocks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotBlock {
    /// Block index in [`Design::blocks`](mtl_core::Design::blocks) order.
    pub index: usize,
    /// Hierarchical block path, e.g. `top.mesh.router_0.route_logic`.
    pub path: String,
    /// Logical execution count (engine-independent).
    pub runs: u64,
    /// Cumulative wall time in nanoseconds (engine-specific).
    pub nanos: u64,
}

/// The data collected while profiling was enabled; see the module docs
/// for the logical/physical metric split.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// Engine that produced the physical metrics.
    pub engine: Engine,
    /// Clock edges simulated since construction.
    pub cycles: u64,
    /// Settle points observed (one per `eval()` or `cycle()` call since
    /// profiling was enabled). Logical: engine-independent.
    pub settles: u64,
    /// Bits disturbed by fault injection so far (one per masked bit per
    /// faulted cycle). Logical: engine-independent.
    pub injections: u64,
    /// Cycles on which at least one installed fault was active. Logical:
    /// engine-independent.
    pub faulted_cycles: u64,
    /// Logical execution count per block (engine-independent), indexed by
    /// block.
    pub block_runs: Vec<u64>,
    /// Cumulative wall time per block in nanoseconds (engine-specific),
    /// indexed like `block_runs`. Every simulator times each block on its
    /// own: a profiled static engine runs its schedule block by block.
    pub block_nanos: Vec<u64>,
    /// Hierarchical path per block, indexed like `block_runs`.
    pub block_paths: Vec<String>,
    /// Settle passes the backend performed (engine-specific).
    pub engine_settles: u64,
    /// Block executions per backend settle pass (engine-specific).
    pub fixpoint_iters: Hist,
    /// Event-queue depth at each pop (engine-specific; empty for
    /// [`Engine::SpecializedOpt`] and [`Engine::SpecializedPar`], which
    /// run without a queue).
    pub queue_depth: Hist,
    /// Always empty: every engine runs on the calling thread. It once
    /// held the busy time of each of [`Engine::SpecializedPar`]'s worker
    /// threads and is kept only so that the callers that still read it
    /// compile; it goes with that engine's name (ROADMAP item 2).
    pub partition_nanos: Vec<u64>,
    /// What the static plans execute as gangs and what as fused residual
    /// ([`OptReport::gang_line`](crate::OptReport::gang_line)); `None` for
    /// an engine without a plan stage, or with the optimizer's report off.
    pub gang_plan: Option<String>,
    /// Register bit-toggle counts per net (the `enable_activity`
    /// counters), indexed by net.
    pub net_activity: Vec<u64>,
    /// Representative hierarchical path per net, indexed like
    /// `net_activity`.
    pub net_paths: Vec<String>,
}

impl SimProfile {
    /// Total logical block executions across the design.
    pub fn total_block_runs(&self) -> u64 {
        self.block_runs.iter().sum()
    }

    /// The `n` hottest blocks, ranked by cumulative wall time, breaking
    /// ties by run count and then path (so the ranking is deterministic).
    pub fn hot_blocks(&self, n: usize) -> Vec<HotBlock> {
        let mut all: Vec<HotBlock> = (0..self.block_runs.len())
            .map(|i| HotBlock {
                index: i,
                path: self.block_paths[i].clone(),
                runs: self.block_runs[i],
                nanos: self.block_nanos.get(i).copied().unwrap_or(0),
            })
            .collect();
        all.sort_by(|a, b| {
            b.nanos.cmp(&a.nanos).then(b.runs.cmp(&a.runs)).then(a.path.cmp(&b.path))
        });
        all.truncate(n);
        all
    }

    /// The `n` most active nets as `(path, bit_toggles)`, ranked by toggle
    /// count (ties broken by path). Nets with zero toggles are omitted.
    pub fn active_nets(&self, n: usize) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = self
            .net_activity
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > 0)
            .map(|(i, &t)| (self.net_paths[i].clone(), t))
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// A human-readable profile report ranking the `top` hottest blocks.
    pub fn report(&self, top: usize) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "simulation profile ({} engine)", self.engine);
        let _ = writeln!(
            s,
            "  cycles {}   settle points {}   block executions {}",
            self.cycles,
            self.settles,
            self.total_block_runs()
        );
        let _ = writeln!(
            s,
            "  fixpoint iters/pass: mean {:.2} max {} over {} passes",
            self.fixpoint_iters.mean(),
            self.fixpoint_iters.max(),
            self.fixpoint_iters.samples()
        );
        if self.queue_depth.samples() > 0 {
            let _ = writeln!(
                s,
                "  event-queue depth:   mean {:.2} max {} over {} pops",
                self.queue_depth.mean(),
                self.queue_depth.max(),
                self.queue_depth.samples()
            );
        } else {
            let _ = writeln!(s, "  event-queue depth:   (static schedule, no queue)");
        }
        if let Some(line) = &self.gang_plan {
            let _ = writeln!(s, "  static plans:        {line}");
        }
        let hot = self.hot_blocks(top);
        if !hot.is_empty() {
            let path_w = hot.iter().map(|h| h.path.len()).max().unwrap_or(4).max(4);
            let _ = writeln!(s, "  {:<path_w$}  {:>12}  {:>12}", "hot blocks", "runs", "wall ns");
            for h in &hot {
                let _ = writeln!(s, "  {:<path_w$}  {:>12}  {:>12}", h.path, h.runs, h.nanos);
            }
        }
        let nets = self.active_nets(top);
        if !nets.is_empty() {
            let path_w = nets.iter().map(|(p, _)| p.len()).max().unwrap_or(4).max(4);
            let _ = writeln!(s, "  {:<path_w$}  {:>12}", "active nets", "bit toggles");
            for (p, t) in &nets {
                let _ = writeln!(s, "  {:<path_w$}  {:>12}", p, t);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_power_of_two_ranges() {
        let mut h = Hist::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.samples(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-9);
        let buckets = h.nonzero_buckets();
        assert_eq!(
            buckets,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 2), (8, 15, 1), (512, 1023, 1)]
        );
    }

    #[test]
    fn hist_mean_of_empty_is_zero() {
        assert_eq!(Hist::new().mean(), 0.0);
        assert_eq!(Hist::new().max(), 0);
    }

    #[test]
    fn hot_blocks_rank_deterministically() {
        let p = SimProfile {
            engine: Engine::Interpreted,
            cycles: 1,
            settles: 1,
            injections: 0,
            faulted_cycles: 0,
            block_runs: vec![5, 9, 9],
            block_nanos: vec![10, 30, 30],
            block_paths: vec!["top.c".into(), "top.b".into(), "top.a".into()],
            engine_settles: 1,
            fixpoint_iters: Hist::new(),
            queue_depth: Hist::new(),
            partition_nanos: Vec::new(),
            gang_plan: None,
            net_activity: vec![0, 4],
            net_paths: vec!["top.x".into(), "top.y".into()],
        };
        let hot = p.hot_blocks(2);
        // Equal nanos and runs: path breaks the tie.
        assert_eq!(hot[0].path, "top.a");
        assert_eq!(hot[1].path, "top.b");
        assert_eq!(p.total_block_runs(), 23);
        assert_eq!(p.active_nets(5), vec![("top.y".to_string(), 4)]);
        let report = p.report(3);
        assert!(report.contains("top.a"), "report lists hot blocks:\n{report}");
        assert!(report.contains("top.y"), "report lists active nets:\n{report}");
    }
}
