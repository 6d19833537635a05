//! How fast is the host right now?
//!
//! The reference container shares its machine: other tenants slow every
//! instruction by 5–40 % for seconds to minutes at a time, invisibly (no
//! steal time, no run-queue wait, the other core idle). Medians over
//! windows absorb the short bursts; nothing inside a ten-second run
//! absorbs a slow spell that outlasts it. So every run interleaves short
//! samples of one fixed loop with its windows and divides its timings by
//! the speed that loop ran at, relative to an unloaded reference core.
//! README.md ("Estimator") has the measurements this rests on.

use std::time::Instant;

/// Units of calibration work an unloaded core of the reference container
/// completes per second: host speed 1.0.
const NOMINAL_UNITS_PER_S: f64 = 28_000.0;
/// How long one sample runs, after its warm-up.
const SAMPLE_SECS: f64 = 0.03;
/// Units run before a sample is timed: the workload that ran in between
/// has evicted the table.
const WARMUP_UNITS: usize = 16;
/// Entries of the table the loop walks: 512 KiB, resident in L2 like the
/// simulators' tapes and slots.
const TABLE: usize = 1 << 16;
/// Loop iterations per unit of calibration work.
const UNIT_ITERS: usize = 4096;

/// One thread's calibration loop: a xorshift walk that mixes dependent
/// loads and stores over the table with integer arithmetic.
struct Loop {
    table: Vec<u64>,
    x: u64,
}

impl Loop {
    fn new() -> Loop {
        Loop { table: (0..TABLE as u64).collect(), x: 0x9E37_79B9_7F4A_7C15 }
    }

    fn unit(&mut self) {
        let mask = TABLE - 1;
        let mut x = self.x;
        for _ in 0..UNIT_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            self.table[i] = self.table[i].wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(x);
            x ^= self.table[(i * 31 + 7) & mask];
        }
        self.x = x | 1;
    }

    /// Units per second over one sample.
    fn sample(&mut self) -> f64 {
        for _ in 0..WARMUP_UNITS {
            self.unit();
        }
        let t0 = Instant::now();
        let mut units = 0.0;
        loop {
            for _ in 0..8 {
                self.unit();
            }
            units += 8.0;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= SAMPLE_SECS {
                return units / elapsed;
            }
        }
    }
}

/// Samples host speed on as many threads as the workload keeps busy.
pub struct Calibrator {
    loops: Vec<Loop>,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        Calibrator { loops: (0..threads.max(1)).map(|_| Loop::new()).collect() }
    }

    /// One sample: mean speed of the threads' loops, 1.0 being an unloaded
    /// reference core.
    pub fn host_speed(&mut self) -> f64 {
        let threads = self.loops.len() as f64;
        let (first, rest) = self.loops.split_first_mut().expect("at least one loop");
        let total: f64 = std::thread::scope(|scope| {
            let others: Vec<_> = rest.iter_mut().map(|l| scope.spawn(|| l.sample())).collect();
            first.sample()
                + others.into_iter().map(|h| h.join().expect("calibration thread")).sum::<f64>()
        });
        total / threads / NOMINAL_UNITS_PER_S
    }
}
