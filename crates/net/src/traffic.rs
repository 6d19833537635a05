//! Uniform-random traffic generation and network measurement.
//!
//! Each terminal gets an FL [`TrafficGen`] that injects timestamped
//! packets at a configurable rate and measures the latency of packets it
//! receives. All generators of a [`MeshTrafficHarness`] share one
//! [`NetStats`] record; the `mesh_cycles` job kind of `mtl-serve` runs
//! warmup + measurement windows over it to regenerate the paper's §III-D
//! numbers (zero-load latency ≈ 13 cycles, saturation ≈ 32% injection
//! for an 8×8 CL mesh).

use std::sync::{Arc, Mutex};

use crate::mesh::{network, NetLevel};
use crate::msg::net_msg_layout;
use mtl_bits::Bits;
use mtl_core::{Component, Ctx, Expr, Keyed};

/// Aggregate traffic statistics shared by all terminals of a harness.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    /// Packets pushed into source queues.
    pub injected: u64,
    /// Packets delivered to their destination terminal.
    pub received: u64,
    /// Sum of per-packet latencies (inject→eject cycles).
    pub total_latency: u64,
    /// Largest observed latency.
    pub max_latency: u64,
    /// Packets that arrived at the wrong terminal (always a bug).
    pub misrouted: u64,
}

impl NetStats {
    /// Resets all counters (used between warmup and measurement).
    pub fn clear(&mut self) {
        *self = NetStats::default();
    }

    /// Mean latency of received packets.
    pub fn avg_latency(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.received as f64
        }
    }
}

/// Synthetic traffic patterns for network evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficPattern {
    /// Uniform-random destinations.
    #[default]
    UniformRandom,
    /// Tornado: destination is half the ring away in x ((x + side/2 - 1) mod side, same y) —
    /// adversarial for minimal XY routing on a mesh.
    Tornado,
    /// Transpose: (x, y) sends to (y, x) — stresses the mesh diagonal.
    Transpose,
    /// Nearest neighbor: (x+1, y), wrapping — best case locality.
    Neighbor,
}

impl TrafficPattern {
    /// Every pattern, in sweep order.
    pub const ALL: [TrafficPattern; 4] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Tornado,
        TrafficPattern::Transpose,
        TrafficPattern::Neighbor,
    ];

    /// The destination terminal for a packet from `src` in a
    /// `side`×`side` mesh (random patterns draw from `draw`).
    pub fn dest(self, src: usize, side: usize, draw: u64) -> usize {
        let (x, y) = (src % side, src / side);
        match self {
            TrafficPattern::UniformRandom => (draw % (side * side) as u64) as usize,
            TrafficPattern::Tornado => {
                // dest x = (x + ceil(side/2) - 1) mod side, same row.
                let hop = (side / 2).max(1) - 1.min(side / 2);
                let dx = (x + hop.max(1)) % side;
                dx + y * side
            }
            TrafficPattern::Transpose => y + x * side,
            TrafficPattern::Neighbor => (x + 1) % side + y * side,
        }
    }
}

impl std::fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::Neighbor => "neighbor",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for TrafficPattern {
    type Err = String;

    /// Parses the exact [`Display`](std::fmt::Display) spelling (the
    /// lower-case name used by job specs).
    fn from_str(s: &str) -> Result<TrafficPattern, String> {
        let found = TrafficPattern::ALL.into_iter().find(|p| p.to_string() == s);
        found.ok_or_else(|| format!("unknown traffic pattern \"{s}\""))
    }
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// An FL traffic generator + sink for one mesh terminal.
pub struct TrafficGen {
    id: usize,
    nrouters: usize,
    payload_nbits: u32,
    injection_permille: u32,
    seed: u64,
    /// Stop injecting after this many packets (u64::MAX = unlimited).
    limit: u64,
    pattern: TrafficPattern,
    stats: Arc<Mutex<NetStats>>,
}

impl TrafficGen {
    /// Creates the generator for terminal `id`, injecting uniform-random
    /// traffic at `injection_permille`/1000 packets per cycle.
    pub fn new(
        id: usize,
        nrouters: usize,
        payload_nbits: u32,
        injection_permille: u32,
        seed: u64,
        stats: Arc<Mutex<NetStats>>,
    ) -> Self {
        assert!(injection_permille <= 1000);
        Self {
            id,
            nrouters,
            payload_nbits,
            injection_permille,
            seed,
            limit: u64::MAX,
            pattern: TrafficPattern::UniformRandom,
            stats,
        }
    }

    /// Selects the traffic pattern (default: uniform random).
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Limits this generator to `limit` injected packets (for
    /// conservation tests: run, drain, and check received == injected).
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = limit;
        self
    }
}

/// Keyless: it adds to a shared statistics record.
impl Keyed for TrafficGen {}

impl Component for TrafficGen {
    fn build(&self, c: &mut Ctx) {
        let layout = net_msg_layout(self.nrouters, self.payload_nbits);
        let w = layout.width();
        let out = c.out_valrdy("out", w);
        let in_ = c.in_valrdy("in_", w);
        let reset = c.reset();

        let (dlo, dhi) = layout.field_range("dest");
        let (plo, phi) = layout.field_range("payload");
        let (slo, shi) = layout.field_range("src");
        let pw = phi - plo;
        let id = self.id as u64;
        let n = self.nrouters as u64;
        let rate = self.injection_permille as u64;
        let limit = self.limit;
        let pattern = self.pattern;
        let side = (self.nrouters as f64).sqrt() as usize;
        let mut injected = 0u64;
        let stats = self.stats.clone();
        let mut rng = Lcg(self.seed.wrapping_add(0x9E3779B97F4A7C15).max(1));
        let mut src_q: std::collections::VecDeque<Bits> = std::collections::VecDeque::new();

        let reads = [out.val, out.rdy, in_.msg, in_.val, in_.rdy, reset];
        let writes = [out.msg, out.val, in_.rdy];
        c.tick_fl(&format!("gen_{}", self.id), &reads, &writes, move |s| {
            if s.read(reset.id()).reduce_or() {
                src_q.clear();
                s.write_next(out.val.id(), Bits::from_bool(false));
                s.write_next(in_.rdy.id(), Bits::from_bool(false));
                return;
            }
            let cyc = s.cycle();
            // Drain a completed injection handshake.
            if s.read(out.val.id()).reduce_or() && s.read(out.rdy.id()).reduce_or() {
                src_q.pop_front();
            }
            // Receive.
            if s.read(in_.val.id()).reduce_or() && s.read(in_.rdy.id()).reduce_or() {
                let msg = s.read(in_.msg.id());
                let ts = msg.slice(plo, phi).as_u64();
                let mask = if pw >= 64 { u64::MAX } else { (1u64 << pw) - 1 };
                let latency = (cyc.wrapping_sub(ts)) & mask;
                let mut st = stats.lock().unwrap();
                st.received += 1;
                st.total_latency += latency;
                st.max_latency = st.max_latency.max(latency);
                if msg.slice(dlo, dhi).as_u64() != id {
                    st.misrouted += 1;
                }
            }
            // Inject with probability rate/1000 while under the limit.
            if injected < limit && rng.next() % 1000 < rate {
                injected += 1;
                let _ = n;
                let dest = pattern.dest(id as usize, side, rng.next()) as u64;
                let msg = Bits::zero(w)
                    .with_slice(dlo, dhi, Bits::new(dhi - dlo, dest as u128))
                    .with_slice(slo, shi, Bits::new(shi - slo, id as u128))
                    .with_slice(plo, phi, Bits::new(pw, (cyc as u128) & ((1u128 << pw) - 1)));
                src_q.push_back(msg);
                stats.lock().unwrap().injected += 1;
            }
            // Publish next-cycle interface state.
            match src_q.front() {
                Some(&m) => {
                    s.write_next(out.msg.id(), m);
                    s.write_next(out.val.id(), Bits::from_bool(true));
                }
                None => s.write_next(out.val.id(), Bits::from_bool(false)),
            }
            s.write_next(in_.rdy.id(), Bits::from_bool(true));
        });
    }
}

/// A full measurement harness: a network of the chosen level with a
/// traffic generator on every terminal.
pub struct MeshTrafficHarness {
    /// Network abstraction level.
    pub level: NetLevel,
    /// Number of terminals (perfect square).
    pub nrouters: usize,
    /// Payload width (holds the injection timestamp).
    pub payload_nbits: u32,
    /// Injection rate in packets per 1000 cycles per terminal.
    pub injection_permille: u32,
    /// PRNG seed.
    pub seed: u64,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Entries per router queue (per output queue of the FL crossbar).
    pub nentries: usize,
    stats: Arc<Mutex<NetStats>>,
}

impl MeshTrafficHarness {
    /// Creates a harness; see the field docs for parameters.
    pub fn new(level: NetLevel, nrouters: usize, injection_permille: u32, seed: u64) -> Self {
        Self {
            level,
            nrouters,
            payload_nbits: 32,
            injection_permille,
            seed,
            pattern: TrafficPattern::UniformRandom,
            nentries: 2,
            stats: Arc::new(Mutex::new(NetStats::default())),
        }
    }

    /// Selects the traffic pattern (default: uniform random).
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the router buffer depth (default: 2).
    pub fn with_nentries(mut self, nentries: usize) -> Self {
        self.nentries = nentries;
        self
    }

    /// The shared statistics record.
    pub fn stats(&self) -> Arc<Mutex<NetStats>> {
        self.stats.clone()
    }
}

/// Keyless: it collects statistics in a shared record.
impl Keyed for MeshTrafficHarness {}

impl Component for MeshTrafficHarness {
    fn build(&self, c: &mut Ctx) {
        let net = network(self.level, self.nrouters, self.payload_nbits, self.nentries);
        let net_inst = c.instantiate("net", &*net);
        for i in 0..self.nrouters {
            let gen = TrafficGen::new(
                i,
                self.nrouters,
                self.payload_nbits,
                self.injection_permille,
                self.seed.wrapping_add(i as u64 * 0x1234_5678),
                self.stats.clone(),
            )
            .with_pattern(self.pattern);
            let gen_inst = c.instantiate(&format!("gen_{i}"), &gen);
            let gen_out = c.out_valrdy_of(&gen_inst, "out");
            let net_in = c.in_valrdy_of(&net_inst, &format!("in__{i}"));
            c.connect_valrdy(gen_out, net_in);
            let net_out = c.out_valrdy_of(&net_inst, &format!("out_{i}"));
            let gen_in = c.in_valrdy_of(&gen_inst, "in_");
            c.connect_valrdy(net_out, gen_in);
        }
    }
}

/// A fully-IR traffic generator: the RTL analog of [`TrafficGen`], with
/// a Galois LFSR replacing the host PRNG and a one-entry output buffer
/// replacing the host-side source queue. No native closure, no shared
/// stats — which makes it simulable on `Engine::SpecializedBatch`,
/// where one closure instance cannot stand in for 64 lanes.
///
/// Received packets fold into a 32-bit `sum` output register (payload ⊕
/// dest), so corruption anywhere on the delivery path eventually
/// surfaces at an observable port.
///
/// The mesh side must be a power of two (destinations are drawn as raw
/// LFSR bits).
///
/// What differs per terminal is two input ports the parent ties (see
/// [`RtlTrafficGen::terminal_ties`]): `seed`, the LFSR's reset value, and
/// `src`, the terminal's own index. Every generator of a harness is then
/// one component, built once and stamped.
#[derive(Hash)]
pub struct RtlTrafficGen {
    nrouters: usize,
    payload_nbits: u32,
    injection_permille: u32,
}

impl RtlTrafficGen {
    /// Creates a generator for a terminal of an `nrouters` mesh; see
    /// [`TrafficGen::new`].
    pub fn new(nrouters: usize, payload_nbits: u32, injection_permille: u32) -> Self {
        assert!(injection_permille <= 1000);
        assert!(nrouters.is_power_of_two(), "RTL generator draws destinations as LFSR bits");
        assert!(payload_nbits >= 1);
        Self { nrouters, payload_nbits, injection_permille }
    }

    /// The values of the `seed` and `src` ports of terminal `id` seeded
    /// with `seed`: the LFSR's nonzero reset state and the terminal index.
    pub fn terminal_ties(id: usize, seed: u64) -> [(&'static str, u128); 2] {
        let seed32 = ((seed ^ (seed >> 32)) as u32 as u128) | 1;
        [("seed", seed32), ("src", id as u128)]
    }
}

impl Component for RtlTrafficGen {
    fn build(&self, c: &mut Ctx) {
        let layout = net_msg_layout(self.nrouters, self.payload_nbits);
        let w = layout.width();
        let (dlo, dhi) = layout.field_range("dest");
        let (plo, phi) = layout.field_range("payload");
        let aw = dhi - dlo;
        let pw = phi - plo;
        let out = c.out_valrdy("out", w);
        let in_ = c.in_valrdy("in_", w);
        let reset = c.reset();

        let lfsr = c.wire("lfsr", 32);
        let cyc = c.wire("cyc", pw);
        let pend_msg = c.wire("pend_msg", w);
        let pend_val = c.wire("pend_val", 1);
        let sum = c.out_port("sum", 32);
        let (seed, src) = (c.in_port("seed", 32), c.in_port("src", aw));

        // Interface is pure register fanout; the sink side is always
        // ready (a constant-driven net, like the scalar generator).
        c.comb("drive", |b| {
            b.assign(out.msg, pend_msg);
            b.assign(out.val, pend_val);
            b.assign(in_.rdy, Expr::k(1, 1));
        });

        // x^32 + x^22 + x^2 + x + 1 Galois LFSR, shifting right.
        let taps = 0x8020_0003u128;
        // 10-bit threshold ~ permille/1000 of 1024.
        let thresh = u128::from(self.injection_permille) * 1024 / 1000;
        let thresh = thresh.min(1023);

        c.seq("step", |b| {
            let step = lfsr.ex().slice(1, 32).zext(32)
                ^ lfsr.ex().bit(0).mux(Expr::k(32, taps), Expr::k(32, 0));
            b.assign(lfsr, reset.ex().mux(seed, step));
            b.assign(cyc, reset.ex().mux(Expr::k(pw, 0), cyc + Expr::k(pw, 1)));

            // One-entry output buffer: a slot frees when it sends, and an
            // LFSR draw below the threshold refills it the same cycle.
            let sent = pend_val.ex() & out.rdy.ex();
            let free = !pend_val.ex() | sent.clone();
            let inject = lfsr.ex().slice(0, 10).lt(Expr::k(10, thresh));
            let take = free & inject;
            let msg = Expr::concat(vec![
                lfsr.ex().slice(10, 10 + aw), // dest: uniform over 2^aw terminals
                src.ex(),                     // src
                Expr::k(8, 0),                // opaque
                cyc.ex(),                     // payload: injection timestamp
            ]);
            b.assign(
                pend_val,
                reset
                    .ex()
                    .mux(Expr::k(1, 0), take.clone().mux(Expr::k(1, 1), pend_val.ex() & !sent)),
            );
            b.assign(pend_msg, take.mux(msg, pend_msg.ex()));

            // Fold deliveries into the observable checksum.
            let recv = in_.val.ex() & in_.rdy.ex();
            let pay32 = if pw >= 32 {
                in_.msg.ex().slice(plo, plo + 32)
            } else {
                in_.msg.ex().slice(plo, phi).zext(32)
            };
            let mix = pay32 ^ in_.msg.ex().slice(dlo, dhi).zext(32);
            b.assign(sum, reset.ex().mux(Expr::k(32, 0), recv.mux(sum ^ mix, sum.ex())));
        });
    }
}

/// A mesh traffic harness with **no native blocks**: the structural RTL
/// mesh wrapped in [`RtlTrafficGen`] terminals, with every generator's
/// delivery checksum XOR-folded into a top-level `checksum` output port
/// (the detection boundary for fault campaigns).
///
/// This is the batch fault campaign's design under test: the scalar
/// [`MeshTrafficHarness`] keeps its host-side generators (and its
/// latency/throughput statistics), while this harness trades the stats
/// machinery for lane-parallel simulability — `Engine::SpecializedBatch`
/// runs 64 independent fault trials of it per tape pass.
#[derive(Hash)]
pub struct MeshTrafficRtlHarness {
    /// Number of terminals (a perfect square with power-of-two side).
    pub nrouters: usize,
    /// Payload width (holds the injection timestamp).
    pub payload_nbits: u32,
    /// Injection rate in packets per 1000 cycles per terminal.
    pub injection_permille: u32,
    /// LFSR seed base (decorrelated per terminal).
    pub seed: u64,
}

impl MeshTrafficRtlHarness {
    /// Creates a harness; see the field docs for parameters.
    pub fn new(nrouters: usize, injection_permille: u32, seed: u64) -> Self {
        Self { nrouters, payload_nbits: 32, injection_permille, seed }
    }
}

impl Component for MeshTrafficRtlHarness {
    fn build(&self, c: &mut Ctx) {
        let net = network(NetLevel::Rtl, self.nrouters, self.payload_nbits, 2);
        let net_inst = c.instantiate("net", &*net);
        let checksum = c.out_port("checksum", 32);
        let mut sums = Vec::new();
        let gen = RtlTrafficGen::new(self.nrouters, self.payload_nbits, self.injection_permille);
        for i in 0..self.nrouters {
            let gen_inst = c.instantiate(&format!("gen_{i}"), &gen);
            let seed = self.seed.wrapping_add(i as u64 * 0x1234_5678);
            for (port, value) in RtlTrafficGen::terminal_ties(i, seed) {
                c.tie(c.port_of(&gen_inst, port), value);
            }
            let gen_out = c.out_valrdy_of(&gen_inst, "out");
            let net_in = c.in_valrdy_of(&net_inst, &format!("in__{i}"));
            c.connect_valrdy(gen_out, net_in);
            let net_out = c.out_valrdy_of(&net_inst, &format!("out_{i}"));
            let gen_in = c.in_valrdy_of(&gen_inst, "in_");
            c.connect_valrdy(net_out, gen_in);
            sums.push(c.port_of(&gen_inst, "sum"));
        }
        c.comb("checksum", |b| {
            let folded =
                sums.iter().map(|s| s.ex()).reduce(|a, b| a ^ b).expect("at least one terminal");
            b.assign(checksum, folded);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_sim::{Engine, Sim};

    /// What one measurement window saw: the statistics of `cycles` cycles
    /// after `warmup`, and the accepted throughput in packets per 1000
    /// cycles per terminal.
    #[derive(Debug)]
    struct Window {
        stats: NetStats,
        accepted_permille: f64,
    }

    /// Runs `harness` for `warmup` cycles, clears its statistics and
    /// measures `cycles` more, as the `mesh_cycles` job kind does.
    fn measure(harness: MeshTrafficHarness, warmup: u64, cycles: u64, engine: Engine) -> Window {
        let stats = harness.stats();
        let mut sim = Sim::build(&harness, engine).expect("harness elaboration");
        sim.reset();
        sim.run(warmup);
        stats.lock().unwrap().clear();
        sim.run(cycles);
        let stats = stats.lock().unwrap().clone();
        assert_eq!(stats.misrouted, 0, "misrouted packets detected");
        let accepted_permille =
            stats.received as f64 * 1000.0 / (cycles as f64 * harness.nrouters as f64);
        Window { stats, accepted_permille }
    }

    /// Uniform-random traffic on the §III-D sweep's seed.
    fn uniform(level: NetLevel, nrouters: usize, injection: u32) -> MeshTrafficHarness {
        MeshTrafficHarness::new(level, nrouters, injection, 0xC0FFEE)
    }

    #[test]
    fn patterns_compute_expected_destinations() {
        // 4x4 mesh.
        assert_eq!(TrafficPattern::Transpose.dest(1, 4, 0), 4); // (1,0) -> (0,1)
        assert_eq!(TrafficPattern::Transpose.dest(7, 4, 0), 13); // (3,1) -> (1,3)
        assert_eq!(TrafficPattern::Neighbor.dest(3, 4, 0), 0); // wraps in x
        let d = TrafficPattern::Tornado.dest(0, 4, 0);
        assert_eq!(d % 4, 1, "tornado moves side/2 - 1 in x");
        // Uniform random stays in range.
        for draw in 0..40 {
            assert!(TrafficPattern::UniformRandom.dest(5, 4, draw) < 16);
        }
        for pattern in TrafficPattern::ALL {
            assert_eq!(pattern.to_string().parse(), Ok(pattern));
        }
        assert!("Tornado".parse::<TrafficPattern>().is_err());
    }

    #[test]
    fn adversarial_patterns_saturate_earlier_than_neighbor() {
        // Classic NoC result: neighbor traffic sustains far more load than
        // transpose on a minimally-routed mesh.
        let window = |pattern| {
            let harness = uniform(NetLevel::Cl, 16, 700).with_pattern(pattern);
            measure(harness, 300, 1200, Engine::SpecializedOpt)
        };
        let neighbor = window(TrafficPattern::Neighbor);
        let transpose = window(TrafficPattern::Transpose);
        assert!(
            neighbor.accepted_permille > transpose.accepted_permille * 1.2,
            "neighbor {:?} should beat transpose {:?}",
            neighbor.accepted_permille,
            transpose.accepted_permille
        );
    }

    #[test]
    fn fl_network_delivers_all_traffic() {
        let m = measure(uniform(NetLevel::Fl, 16, 100), 200, 800, Engine::SpecializedOpt);
        assert!(m.stats.received > 0, "no packets delivered: {m:?}");
        // FL network is an ideal crossbar: latency is small and load-independent.
        assert!(m.stats.avg_latency() < 10.0, "FL latency too high: {m:?}");
    }

    #[test]
    fn cl_mesh_low_load_latency_is_moderate() {
        let m = measure(uniform(NetLevel::Cl, 16, 20), 300, 1500, Engine::SpecializedOpt);
        assert!(m.stats.received > 20, "too few packets: {m:?}");
        // 4x4 mesh, ~2 cycles/hop, avg ~2.7 hops: latency should land in
        // the 5-15 cycle band at low load.
        assert!((3.0..16.0).contains(&m.stats.avg_latency()), "{m:?}");
    }

    #[test]
    fn rtl_mesh_low_load_latency_matches_cl_band() {
        let m = measure(uniform(NetLevel::Rtl, 16, 20), 300, 1500, Engine::SpecializedOpt);
        assert!(m.stats.received > 20, "too few packets: {m:?}");
        assert!((3.0..16.0).contains(&m.stats.avg_latency()), "{m:?}");
    }

    #[test]
    fn cl_mesh_saturates_under_heavy_load() {
        let low = measure(uniform(NetLevel::Cl, 16, 50), 300, 1200, Engine::SpecializedOpt);
        let high = measure(uniform(NetLevel::Cl, 16, 900), 300, 1200, Engine::SpecializedOpt);
        // Offered 90% is far beyond saturation: accepted throughput must
        // flatten well below offered, and latency must blow up. (A 4x4
        // mesh saturates around 60-70% under uniform-random traffic.)
        assert!(high.accepted_permille < 800.0, "accepted should saturate: {high:?}");
        assert!(
            high.stats.avg_latency() > 2.0 * low.stats.avg_latency(),
            "latency should rise steeply: low={low:?} high={high:?}"
        );
    }

    #[test]
    fn all_engines_agree_on_cl_mesh_delivery_count() {
        let mut counts = Vec::new();
        for engine in Engine::ALL {
            let m = measure(uniform(NetLevel::Cl, 4, 100), 100, 400, engine);
            counts.push((m.stats.injected, m.stats.received));
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "engines disagree: {counts:?}");
    }

    /// The batch campaign's DUT: native-free by construction, self-driving
    /// (the checksum moves without external stimulus), and engine-agnostic.
    #[test]
    fn rtl_harness_is_native_free_and_delivers_traffic() {
        let top = MeshTrafficRtlHarness::new(4, 300, 7);
        let design = mtl_core::elaborate(&top).expect("elaborates");
        assert!(
            design.blocks().iter().all(|b| matches!(b.body, mtl_core::BlockBody::Ir(_))),
            "RTL harness must contain no native blocks"
        );
        drop(design);

        let mut checksums = Vec::new();
        for engine in [Engine::Interpreted, Engine::SpecializedOpt] {
            let mut sim = Sim::build(&top, engine).expect("elaborates");
            sim.reset();
            let checksum = sim.design().top_port("checksum");
            let mut trace = Vec::new();
            for _ in 0..200 {
                sim.cycle();
                trace.push(sim.peek(checksum).as_u128());
            }
            checksums.push(trace);
        }
        assert_eq!(checksums[0], checksums[1], "engines disagree on checksum trace");
        assert!(
            checksums[0].iter().any(|&v| v != 0),
            "traffic never reached a sink: checksum stayed zero"
        );
    }
}
