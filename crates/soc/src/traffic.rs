//! IR-native SoC traffic workloads.
//!
//! [`SocTrafficGen`] is the SoC analog of `mtl_net::RtlTrafficGen`: a
//! fully-IR terminal that injects a bounded stream of packets and folds
//! deliveries into an observable checksum. It differs in two ways that
//! make composed-system results reproducible across abstraction levels
//! and engines:
//!
//! * **Two LFSRs.** A free-running `rate` LFSR decides *when* to try an
//!   injection; a second `gen` LFSR that steps only when a packet is
//!   actually accepted decides *where it goes*. Destination and payload
//!   sequences therefore depend only on the packet index, never on
//!   network timing — so the delivery checksum of a finite workload is
//!   identical at FL, CL, and RTL, and [`golden_checksum`] can predict it
//!   on the host without simulating anything.
//! * **Bounded workloads.** Each terminal injects exactly `limit`
//!   packets; the composed SoC exposes `injected`/`delivered` totals so a
//!   runner can detect full drain.
//!
//! Patterns: uniform-random, hotspot (half of all traffic to terminal 0),
//! tornado (adversarial constant offset), bursty (uniform destinations in
//! bursts of 8), and trace (replay of a per-terminal 8-entry destination
//! ROM, standing in for captured traces).

use mtl_core::{Component, Ctx, Expr};
use mtl_net::{net_msg_layout, TrafficPattern};

/// Burst length (packets) for [`SocTraffic::Bursty`].
const BURST_LEN: u64 = 7;

/// Synthetic SoC traffic patterns (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SocTraffic {
    /// Uniform-random destinations.
    #[default]
    UniformRandom,
    /// Half of all packets target terminal 0; the rest are uniform.
    Hotspot,
    /// Constant near-half-ring offset in x (adversarial for XY routing).
    Tornado,
    /// Uniform destinations, injected in bursts of 8.
    Bursty,
    /// Replay of a per-terminal 8-entry destination ROM.
    Trace,
}

impl SocTraffic {
    /// Every pattern, in sweep order.
    pub const ALL: [SocTraffic; 5] = [
        SocTraffic::UniformRandom,
        SocTraffic::Hotspot,
        SocTraffic::Tornado,
        SocTraffic::Bursty,
        SocTraffic::Trace,
    ];
}

impl std::fmt::Display for SocTraffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SocTraffic::UniformRandom => "uniform",
            SocTraffic::Hotspot => "hotspot",
            SocTraffic::Tornado => "tornado",
            SocTraffic::Bursty => "bursty",
            SocTraffic::Trace => "trace",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for SocTraffic {
    type Err = String;

    /// Parses the exact [`Display`](std::fmt::Display) spelling (the
    /// lower-case name used by sweeps and job specs).
    fn from_str(s: &str) -> Result<SocTraffic, String> {
        let found = SocTraffic::ALL.into_iter().find(|p| p.to_string() == s);
        found.ok_or_else(|| format!("unknown traffic pattern \"{s}\""))
    }
}

/// One step of the x^32 + x^22 + x^2 + x + 1 Galois LFSR (host mirror of
/// the IR update in [`SocTrafficGen`]).
fn lfsr_step(x: u32) -> u32 {
    (x >> 1) ^ if x & 1 == 1 { 0x8020_0003 } else { 0 }
}

/// Folds a 64-bit seed into the nonzero 32-bit LFSR state.
fn lfsr_seed(seed: u64) -> u32 {
    ((seed ^ (seed >> 32)) as u32) | 1
}

pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-terminal seed derivation shared by the IR generators and the host
/// golden model.
pub fn terminal_seed(base: u64, id: usize) -> u64 {
    base.wrapping_add(id as u64 * 0x1234_5678)
}

/// The 8-entry destination ROM replayed by [`SocTraffic::Trace`].
pub fn trace_rom(seed: u64, id: usize, ntiles: usize) -> [usize; 8] {
    let mut rom = [0usize; 8];
    for (j, d) in rom.iter_mut().enumerate() {
        *d = (splitmix(seed ^ ((id as u64) << 32) ^ (j as u64 + 1)) % ntiles as u64) as usize;
    }
    rom
}

/// The destination of terminal `id`'s `k`-th packet given the generator
/// LFSR state `x` at injection time (host mirror of the IR mux tree).
fn host_dest(pattern: SocTraffic, base_seed: u64, id: usize, k: u32, x: u32, n: usize) -> usize {
    let side = (n as f64).sqrt() as usize;
    match pattern {
        SocTraffic::UniformRandom | SocTraffic::Bursty => (x >> 10) as usize % n,
        SocTraffic::Hotspot => {
            if (x >> 9) & 1 == 1 {
                0
            } else {
                (x >> 10) as usize % n
            }
        }
        SocTraffic::Tornado => TrafficPattern::Tornado.dest(id, side, 0),
        SocTraffic::Trace => trace_rom(base_seed, id, n)[k as usize % 8],
    }
}

/// The checksum every drained run of a synthetic SoC workload must
/// produce. Each terminal XOR-folds the packets *it receives* into its
/// `sum` register (`k ^ (dest << 24) ^ (src << 16)`); the SoC then adds
/// the per-terminal sums with wrapping addition. Summing (rather than
/// XOR-folding) the buckets keeps the checksum sensitive to which
/// terminal each packet landed on — a pure XOR over all packets would
/// cancel every field that appears an even number of times.
/// Timing-independent because the IR generators draw destinations from a
/// per-accepted-packet LFSR, so the partition of packets over receivers
/// is a pure function of the seed.
pub fn golden_checksum(ntiles: usize, seed: u64, limit: u32, pattern: SocTraffic) -> u32 {
    assert!(limit < 1 << 16, "payload sequence numbers are 16-bit");
    let mut bucket = vec![0u32; ntiles];
    for i in 0..ntiles {
        let mut x = lfsr_seed(terminal_seed(seed, i));
        for k in 0..limit {
            let dest = host_dest(pattern, seed, i, k, x, ntiles);
            bucket[dest] ^= k ^ ((dest as u32) << 24) ^ ((i as u32) << 16);
            x = lfsr_step(x);
        }
    }
    bucket.iter().fold(0u32, |acc, &b| acc.wrapping_add(b))
}

/// Re-positions a field expression of width `ew` at bit `shift` inside a
/// `total`-bit word (zero fill on both sides).
fn placed(e: Expr, ew: u32, shift: u32, total: u32) -> Expr {
    let mut parts = Vec::new();
    if shift + ew < total {
        parts.push(Expr::k(total - shift - ew, 0));
    }
    parts.push(e);
    if shift > 0 {
        parts.push(Expr::k(shift, 0));
    }
    Expr::concat(parts)
}

/// An IR-only SoC traffic terminal: injects `limit` packets according to
/// a [`SocTraffic`] pattern and folds deliveries into a `sum` output.
/// Exposes `sent` (packets accepted into the output buffer) and `recv`
/// (packets delivered) counters for drain detection.
///
/// What differs per terminal is input ports the parent ties (see
/// [`SocTrafficGen::terminal_ties`]): the two LFSRs' reset values
/// `rate_seed` and `gen_seed`, the terminal's own index `src`, and the
/// destinations of the fixed patterns — `tornado_dest`, or the trace ROM
/// `rom_0` .. `rom_7`. Every generator of a SoC is then one component,
/// built once and stamped.
#[derive(Hash)]
pub struct SocTrafficGen {
    ntiles: usize,
    injection_permille: u32,
    limit: u32,
    pattern: SocTraffic,
}

impl SocTrafficGen {
    /// Creates a generator for a terminal of an `ntiles`-endpoint mesh.
    pub fn new(ntiles: usize, injection_permille: u32, limit: u32, pattern: SocTraffic) -> Self {
        assert!(injection_permille <= 1000);
        assert!(ntiles.is_power_of_two(), "destinations are drawn as LFSR bits");
        assert!(limit > 0 && limit < 1 << 16, "sequence numbers are 16-bit");
        Self { ntiles, injection_permille, limit, pattern }
    }

    /// The values of terminal `id`'s per-terminal ports under the *base*
    /// SoC seed `seed` (decorrelated per terminal via [`terminal_seed`]),
    /// as (port, value) pairs for the parent to tie.
    pub fn terminal_ties(&self, id: usize, seed: u64) -> Vec<(String, u128)> {
        let tseed = terminal_seed(seed, id);
        let mut ties = vec![
            ("rate_seed".to_string(), lfsr_seed(tseed.wrapping_mul(0x2545_F491_4F6C_DD1D)).into()),
            ("gen_seed".to_string(), lfsr_seed(tseed).into()),
            ("src".to_string(), id as u128),
        ];
        let side = (self.ntiles as f64).sqrt() as usize;
        match self.pattern {
            SocTraffic::Tornado => {
                let dest = TrafficPattern::Tornado.dest(id, side, 0);
                ties.push(("tornado_dest".to_string(), dest as u128));
            }
            SocTraffic::Trace => {
                let rom = trace_rom(seed, id, self.ntiles).into_iter().enumerate();
                ties.extend(rom.map(|(j, dest)| (format!("rom_{j}"), dest as u128)));
            }
            SocTraffic::UniformRandom | SocTraffic::Hotspot | SocTraffic::Bursty => {}
        }
        ties
    }
}

impl Component for SocTrafficGen {
    fn build(&self, c: &mut Ctx) {
        let layout = net_msg_layout(self.ntiles, 32);
        let w = layout.width();
        let (dlo, dhi) = layout.field_range("dest");
        let (slo, shi) = layout.field_range("src");
        let (plo, _phi) = layout.field_range("payload");
        let aw = dhi - dlo;
        let out = c.out_valrdy("out", w);
        let in_ = c.in_valrdy("in_", w);
        let reset = c.reset();

        let rate_lfsr = c.wire("rate_lfsr", 32);
        let gen_lfsr = c.wire("gen_lfsr", 32);
        let pend_msg = c.wire("pend_msg", w);
        let pend_val = c.wire("pend_val", 1);
        let sum = c.out_port("sum", 32);
        let sent = c.out_port("sent", 16);
        let recv = c.out_port("recv", 16);
        let burst =
            if self.pattern == SocTraffic::Bursty { Some(c.wire("burst", 4)) } else { None };
        let rate_seed = c.in_port("rate_seed", 32);
        let gen_seed = c.in_port("gen_seed", 32);
        let src = c.in_port("src", aw);
        let tornado_dest =
            (self.pattern == SocTraffic::Tornado).then(|| c.in_port("tornado_dest", aw));
        let rom =
            if self.pattern == SocTraffic::Trace { c.in_ports("rom", 8, aw) } else { Vec::new() };

        c.comb("drive", |b| {
            b.assign(out.msg, pend_msg);
            b.assign(out.val, pend_val);
            b.assign(in_.rdy, Expr::k(1, 1));
        });

        let taps = 0x8020_0003u128;
        // 10-bit threshold ~ permille/1000 of 1024.
        let thresh = (u128::from(self.injection_permille) * 1024 / 1000).min(1023);
        let limit = u128::from(self.limit);
        let pattern = self.pattern;

        c.seq("step", |b| {
            let step = |l: mtl_core::SignalRef| {
                l.ex().slice(1, 32).zext(32) ^ l.ex().bit(0).mux(Expr::k(32, taps), Expr::k(32, 0))
            };
            // The rate LFSR runs every cycle: it only shapes timing.
            b.assign(rate_lfsr, reset.ex().mux(rate_seed, step(rate_lfsr)));
            let draw = rate_lfsr.ex().slice(0, 10).lt(Expr::k(10, thresh));

            // Injection attempt: direct rate draws, or (bursty) a burst
            // counter armed by rate draws and drained by accepted packets.
            let attempt = match burst {
                Some(bw) => {
                    let idle = bw.ex().eq(Expr::k(4, 0));
                    let armed = idle.clone() & draw;
                    let next = armed.clone().mux(
                        Expr::k(4, u128::from(BURST_LEN)),
                        // Decrement-on-take via +15 (mod 16).
                        (pend_val.ex() & out.rdy.ex() & !idle.clone())
                            .mux(bw.ex() + Expr::k(4, 15), bw.ex()),
                    );
                    b.assign(bw, reset.ex().mux(Expr::k(4, 0), next));
                    !idle | armed
                }
                None => draw,
            };

            let sent_hs = pend_val.ex() & out.rdy.ex();
            let free = !pend_val.ex() | sent_hs.clone();
            let more = sent.ex().lt(Expr::k(16, limit));
            let take = free & attempt & more;

            // The gen LFSR steps per accepted packet, making dest/payload
            // a pure function of the packet index.
            b.assign(
                gen_lfsr,
                reset.ex().mux(gen_seed, take.clone().mux(step(gen_lfsr), gen_lfsr.ex())),
            );
            let uniform = gen_lfsr.ex().slice(10, 10 + aw);
            let dest = match pattern {
                SocTraffic::UniformRandom | SocTraffic::Bursty => uniform,
                SocTraffic::Hotspot => gen_lfsr.ex().bit(9).mux(Expr::k(aw, 0), uniform),
                SocTraffic::Tornado => tornado_dest.expect("a tornado port").ex(),
                SocTraffic::Trace => {
                    let idx = sent.ex().slice(0, 3);
                    let mut acc = rom[7].ex();
                    for j in (0..7).rev() {
                        acc = idx.clone().eq(Expr::k(3, j as u128)).mux(rom[j], acc);
                    }
                    acc
                }
            };
            let msg = Expr::concat(vec![
                dest,
                src.ex(),           // src
                Expr::k(8, 0),      // opaque
                sent.ex().zext(32), // payload: packet sequence number
            ]);
            b.assign(
                pend_val,
                reset
                    .ex()
                    .mux(Expr::k(1, 0), take.clone().mux(Expr::k(1, 1), pend_val.ex() & !sent_hs)),
            );
            b.assign(pend_msg, take.clone().mux(msg, pend_msg.ex()));
            b.assign(
                sent,
                reset.ex().mux(Expr::k(16, 0), take.mux(sent.ex() + Expr::k(16, 1), sent.ex())),
            );

            // Deliveries fold payload ⊕ dest ⊕ src into the checksum,
            // mirroring `golden_checksum`'s `u32` arithmetic: seq < 2^16,
            // src at 16, dest at 24 — disjoint bit ranges up to 256 tiles;
            // beyond, src reaches into dest's and the dest bits that would
            // land past bit 31 are dropped, as `(dest as u32) << 24` does.
            let recv_hs = in_.val.ex() & in_.rdy.ex();
            let pay32 = in_.msg.ex().slice(plo, plo + 32);
            let dw = aw.min(8);
            let mix = pay32
                ^ placed(in_.msg.ex().slice(dlo, dlo + dw), dw, 24, 32)
                ^ placed(in_.msg.ex().slice(slo, shi), aw, 16, 32);
            b.assign(sum, reset.ex().mux(Expr::k(32, 0), recv_hs.clone().mux(sum ^ mix, sum.ex())));
            b.assign(
                recv,
                reset.ex().mux(Expr::k(16, 0), recv_hs.mux(recv.ex() + Expr::k(16, 1), recv.ex())),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_checksum_is_pattern_and_seed_sensitive() {
        let base = golden_checksum(4, 7, 16, SocTraffic::UniformRandom);
        assert_ne!(base, golden_checksum(4, 8, 16, SocTraffic::UniformRandom));
        assert_ne!(base, golden_checksum(4, 7, 16, SocTraffic::Hotspot));
        // Tornado dests are LFSR-independent, so only seq/src bits move.
        let t1 = golden_checksum(4, 1, 16, SocTraffic::Tornado);
        let t2 = golden_checksum(4, 2, 16, SocTraffic::Tornado);
        assert_eq!(t1, t2, "tornado checksum must not depend on the seed");
    }

    #[test]
    fn trace_rom_is_deterministic_and_in_range() {
        let a = trace_rom(42, 3, 16);
        let b = trace_rom(42, 3, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|&d| d < 16));
        assert_ne!(a, trace_rom(42, 4, 16), "terminals should replay distinct traces");
    }

    #[test]
    fn generator_is_ir_only() {
        let g = SocTrafficGen::new(16, 500, 32, SocTraffic::Bursty);
        let design = mtl_core::elaborate(&g).expect("elaborates");
        assert!(
            design.blocks().iter().all(|b| matches!(b.body, mtl_core::BlockBody::Ir(_))),
            "SocTrafficGen must contain no native blocks"
        );
    }

    /// Above 256 tiles the address fields outgrow the byte the checksum
    /// gives them: the generator must still elaborate (the fold used to be
    /// 34 bits wide against the 32-bit sum) and fold a delivery exactly as
    /// `golden_checksum` does, high dest bits dropped.
    #[test]
    fn checksum_fold_matches_the_golden_arithmetic_at_1024_tiles() {
        use mtl_sim::{Engine, Sim};
        let g = SocTrafficGen::new(1024, 0, 4, SocTraffic::UniformRandom);
        let mut sim =
            Sim::build(&g, Engine::SpecializedOpt).expect("1024-tile generator elaborates");
        sim.reset();
        let (dest, src, k) = (0x2A7u32, 0x3C1u32, 3u32);
        let layout = net_msg_layout(1024, 32);
        let msg = mtl_net::make_net_msg(&layout, dest.into(), src.into(), 0, k.into());
        sim.poke_port("in__msg", msg);
        sim.poke_port("in__val", mtl_bits::b(1, 1));
        sim.cycle();
        let golden = k ^ (dest << 24) ^ (src << 16);
        assert_eq!(sim.peek_port("sum").as_u64(), u64::from(golden));
        assert_eq!(sim.peek_port("recv").as_u64(), 1);
    }
}
