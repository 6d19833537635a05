//! What [`Engine::SpecializedPar`] adds to [`Engine::SpecializedOpt`]: a
//! worker count, a barrier and a pool of persistent worker threads.
//!
//! The two engines run the same static plans ([`crate::compile`]) through
//! the same [`TapeEngine`](crate::tape_engine::TapeEngine). The one step
//! that is dealt out is a gang: its lane blocks are independent of one
//! another (the plan stage's guard proves it), so the control thread
//! publishes the gang, every worker runs its [`deal`] of the lane blocks,
//! and a barrier before and after keeps the gang apart from everything
//! else — fused tapes, native blocks, the commit and the backdoors all
//! stay on the control thread. Every decision is static and a lane
//! computes the same values on any thread, so results are cycle-exact
//! with `specialized-opt` whatever the worker count or timing.
//!
//! [`Engine::SpecializedPar`]: crate::Engine::SpecializedPar
//! [`Engine::SpecializedOpt`]: crate::Engine::SpecializedOpt

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The most workers one simulator runs, whatever
/// [`SimConfig::threads`](crate::SimConfig::threads) asks for: a worker is
/// an OS thread, and 64 is several times any host this engine has been
/// measured on. A constant, not a knob.
const MAX_THREADS: usize = 64;

/// The one place a worker count is decided:
/// [`SimConfig::threads`](crate::SimConfig::threads) within
/// `1..=`[`MAX_THREADS`], and one (no pool) when it names none.
pub(crate) fn clamp_threads(requested: Option<usize>) -> usize {
    requested.unwrap_or(1).clamp(1, MAX_THREADS)
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Worker `w`'s share of `nb` items dealt to `n` workers: the shares are
/// contiguous, in worker order, tile `0..nb` and differ in size by at most
/// one (a worker's is empty when there are fewer items than workers).
pub(crate) fn deal(nb: usize, w: usize, n: usize) -> Range<usize> {
    nb * w / n..nb * (w + 1) / n
}

/// Sense-reversing hybrid barrier. A waiter spins for about a microsecond
/// (only when more than one core is available), then yields its time slice
/// in a loop — on a CPU it shares with the thread it is waiting for,
/// spinning would only delay that thread — and finally sleeps on a condvar.
/// The mutex holds the number of sleepers, so a release pays for a wake-up
/// call only when somebody sleeps.
struct Barrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    sleepers: Mutex<usize>,
    cv: Condvar,
    spin: u32,
}

/// Yields before a waiter goes to sleep: a few hundred microseconds of an
/// otherwise idle core, about what the spin-only barrier burnt.
const YIELDS: u32 = 1_000;

impl Barrier {
    fn new(n: usize) -> Barrier {
        Barrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: Mutex::new(0),
            cv: Condvar::new(),
            // On a single core spinning only delays the thread that must
            // run next; go straight to yielding. Otherwise keep it short: a
            // yield on an otherwise idle core is only a slower spin, and a
            // fresh worker can share the control thread's CPU for its first
            // half second, where every spin is wasted.
            spin: if available_cores() > 1 { 100 } else { 0 },
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            // Bump the generation under the lock so a waiter cannot
            // re-check and sleep across the bump; whoever sleeps has
            // counted itself in under the same lock.
            let sleepers = {
                let sleepers = self.sleepers.lock().expect("no waiter panics holding the lock");
                self.generation.store(gen.wrapping_add(1), Ordering::Release);
                *sleepers
            };
            if sleepers > 0 {
                self.cv.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != gen;
        for _ in 0..self.spin {
            if released() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if released() {
                return;
            }
            std::thread::yield_now();
        }
        let mut sleepers = self.sleepers.lock().expect("no waiter panics holding the lock");
        *sleepers += 1;
        while !released() {
            sleepers = self.cv.wait(sleepers).expect("no waiter panics holding the lock");
        }
        *sleepers -= 1;
    }
}

/// Sentinel command telling workers to exit.
const EXIT: usize = usize::MAX;

/// What the control thread and the workers of a [`Pool`] meet at.
struct Control {
    /// The command to execute, or [`EXIT`]. Stored before the barrier that
    /// starts a step and loaded after it (`Release`/`Acquire`).
    cmd: AtomicUsize,
    barrier: Barrier,
}

/// `n - 1` persistent worker threads next to the control thread (worker
/// 0). Workers sleep at the barrier between steps.
pub(crate) struct Pool {
    control: Arc<Control>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns workers `1..n`; worker `w` runs `job_of(w)` on every command
    /// [`Pool::run`] publishes.
    pub(crate) fn new<J>(n: usize, mut job_of: impl FnMut(usize) -> J) -> Pool
    where
        J: FnMut(usize) + Send + 'static,
    {
        let control = Arc::new(Control { cmd: AtomicUsize::new(EXIT), barrier: Barrier::new(n) });
        let spawn = |w: usize| {
            let (control, mut job) = (Arc::clone(&control), job_of(w));
            let work = move || loop {
                control.barrier.wait();
                match control.cmd.load(Ordering::Acquire) {
                    EXIT => break,
                    cmd => job(cmd),
                }
                control.barrier.wait();
            };
            let thread = std::thread::Builder::new().name(format!("mtl-sim-{w}"));
            thread.spawn(work).expect("spawn simulation worker")
        };
        let handles = (1..n).map(spawn).collect();
        Pool { control, handles }
    }

    /// How many workers there are, the control thread included.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// One step: every worker runs its job on `cmd` while the control
    /// thread runs `own`, between two barriers. Nothing a worker does
    /// overlaps anything before or after this call.
    pub(crate) fn run(&self, cmd: usize, own: impl FnOnce()) {
        debug_assert_ne!(cmd, EXIT);
        self.control.cmd.store(cmd, Ordering::Release);
        self.control.barrier.wait();
        own();
        self.control.barrier.wait();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.control.cmd.store(EXIT, Ordering::Release);
        self.control.barrier.wait();
        for h in self.handles.drain(..) {
            // A worker that panicked has already printed why.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deal tiles `0..nb` contiguously, in worker order, with sizes
    /// that differ by at most one — also with more workers than items.
    #[test]
    fn the_deal_tiles_its_items_in_contiguous_shares_a_size_apart() {
        for nb in 0..=40 {
            for n in 1..=8 {
                let shares: Vec<Range<usize>> = (0..n).map(|w| deal(nb, w, n)).collect();
                let mut at = 0;
                for share in &shares {
                    assert!(share.start == at && share.end >= at, "{nb} over {n}: {shares:?}");
                    at = share.end;
                }
                assert_eq!(at, nb, "{nb} over {n}: every item is dealt exactly once");
                let sizes = shares.iter().map(|s| s.len());
                let (min, max) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
                assert!(max - min <= 1, "{nb} over {n}: {shares:?}");
            }
        }
    }

    /// 4 threads × 20 000 generations on however many cores the host has:
    /// nobody leaves a generation before everybody entered it, and nobody
    /// sleeps through a release.
    #[test]
    fn barrier_holds_every_generation_on_any_core_count() {
        const THREADS: usize = 4;
        const GENERATIONS: usize = 20_000;
        let barrier = Barrier::new(THREADS);
        let (arrived, early) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for generation in 1..=GENERATIONS {
                        arrived.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Counted, not asserted: a panic here would leave
                        // the other threads waiting for this one forever.
                        let all = arrived.load(Ordering::Relaxed) == generation * THREADS;
                        early.fetch_add(usize::from(!all), Ordering::Relaxed);
                        // Nobody starts the next generation's count before
                        // everybody has checked this one.
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(early.into_inner(), 0, "a thread left a generation before all had entered");
        assert_eq!(arrived.into_inner(), GENERATIONS * THREADS);
        assert_eq!(*barrier.sleepers.lock().unwrap(), 0);
    }
}
