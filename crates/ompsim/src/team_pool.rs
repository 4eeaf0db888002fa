//! Hot teams: the OS threads behind team slots `1..span` are parked
//! between parallel regions instead of being spawned at every fork, the
//! way the LLVM OpenMP runtime this crate stands in for keeps its teams.
//!
//! A fork hands one borrowed closure to `span - 1` parked workers, runs
//! slot 0 on the forking thread, and waits on a join latch. Every wait a
//! region makes — a worker for its next job, the forker at the latch, a
//! member at the team barrier — goes through [`Parking::wait`]: poll an
//! atomic for a bounded time, then park on a `Condvar`.
//!
//! This module holds the only `unsafe` block of the workspace (in
//! [`TeamPool::fork`]) and every piece of state its argument rests on.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::lock;

/// How long a waiter polls before it parks. Bounded in time, not in
/// iterations: one `spin_loop` is 10 to 140 cycles depending on the part.
/// A small region of two members is over in about 20 µs, so this covers
/// the next hand-off of a program that forks back to back and is soon
/// given up by one that does not.
const SPIN_BUDGET: Duration = Duration::from_micros(40);

/// Polls between two reads of the clock, a microsecond or two apart.
const POLLS_PER_CLOCK_READ: u32 = 32;

/// Whether the members of a team of `span` fit the machine. A waiter
/// spins only then: with more members than cores every spinner holds a
/// core that a member with work to do is waiting for. The core count is a
/// property of the process, read once.
pub(crate) fn fits_machine(span: u64) -> bool {
    static CORES: OnceLock<u64> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64));
    span <= cores
}

/// The spin-then-park half of a rendezvous. The state waited for lives in
/// atomics beside it: whoever changes that state does so with a `SeqCst`
/// store or read-modify-write and then calls [`Parking::wake`]; `ready`
/// reads it with `SeqCst` loads. Under that pairing either the waiter's
/// check after it counted itself a sleeper sees the change, or `wake`
/// sees the sleeper — and then takes the lock the sleeper holds until it
/// is inside `Condvar::wait`, so the notification cannot fall between the
/// check and the wait.
#[derive(Default)]
pub(crate) struct Parking {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parking {
    /// Returns once `ready()` holds: at once, after polling it for at
    /// most [`SPIN_BUDGET`] if `spin`, or after parking. The poll is an
    /// atomic load and never a `try_lock`, which would push the other
    /// side's `lock()` into its slow path.
    ///
    /// Between clock reads the poller offers its core to whoever is
    /// runnable without one. Usually nobody is and the call returns at
    /// once. When somebody is, it is a thread this wait depends on or
    /// delays: the teammate waited for, when the kernel has both on one
    /// core (polling through that costs the whole budget at every
    /// rendezvous), or a tool's background thread — the collector's
    /// compression worker would otherwise wait out the poller's time
    /// slice while the application fills the buffers it has yet to drain.
    pub(crate) fn wait(&self, spin: bool, ready: impl Fn() -> bool) {
        if ready() {
            return;
        }
        if spin {
            let start = Instant::now();
            while start.elapsed() < SPIN_BUDGET {
                for _ in 0..POLLS_PER_CLOCK_READ {
                    std::hint::spin_loop();
                    if ready() {
                        #[cfg(test)]
                        probe::count(|w| w.spins += 1);
                        return;
                    }
                }
                std::thread::yield_now();
            }
        }
        #[cfg(test)]
        probe::count(|w| w.parks += 1);
        let guard = lock(&self.lock);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.cv.wait_while(guard, |_| !ready());
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
    }

    /// Wakes the parked waiters; costs one load when there are none.
    pub(crate) fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock(&self.lock));
            self.cv.notify_all();
        }
    }
}

/// What a panicking member unwound with.
type Payload = Box<dyn Any + Send + 'static>;

/// Counts the members of one fork that are out on pool workers, and keeps
/// the first panic among all members. Shared by `Arc`, not
/// borrowed from the fork's frame: the worker that brings the count to
/// zero is still inside `count_down` when the forker may already have
/// seen the zero and returned.
struct Latch {
    remaining: AtomicU64,
    parking: Parking,
    panic: Mutex<Option<Payload>>,
}

impl Latch {
    fn record(&self, payload: Payload) {
        lock(&self.panic).get_or_insert(payload);
    }

    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.parking.wake();
        }
    }

    fn wait(&self, spin: bool) {
        self.parking.wait(spin, || self.remaining.load(Ordering::SeqCst) == 0);
    }
}

/// One member's share of a fork, as a worker receives it.
struct Job {
    /// The fork's `run_slot`, its lifetime erased by [`TeamPool::fork`].
    run: &'static (dyn Fn(u64) + Sync),
    slot: u64,
    latch: Arc<Latch>,
    /// Whether the team fits the machine: how this worker waits for its
    /// next job.
    spin: bool,
}

/// A pool thread's mailbox. Between a check-out and the return that
/// follows the latch exactly one fork posts to it, at most once.
#[derive(Default)]
struct Worker {
    /// Posts so far; what the worker waits on.
    posted: AtomicU64,
    parking: Parking,
    /// The job of the latest post; empty when that post tells the worker
    /// to exit.
    mail: Mutex<Option<Job>>,
}

impl Worker {
    fn post(&self, job: Option<Job>) {
        *lock(&self.mail) = job;
        self.posted.fetch_add(1, Ordering::SeqCst);
        self.parking.wake();
    }

    /// The pool thread's life: wait for a post, run it, count down.
    fn serve(&self) {
        let mut seen = 0;
        let mut spin = false;
        loop {
            self.parking.wait(spin, || self.posted.load(Ordering::SeqCst) != seen);
            seen += 1;
            let Some(Job { run, slot, latch, spin: fits }) = lock(&self.mail).take() else {
                return;
            };
            spin = fits;
            // `run` moves into the closure and is gone when the call
            // returns: nothing borrowed from the fork outlives the
            // count-down below.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(move || run(slot))) {
                latch.record(payload);
            }
            latch.count_down();
        }
    }
}

/// The parked OS threads of one [`crate::OmpSim`]. It grows when a fork
/// finds too few idle workers (a wider team, a nested fork) and never
/// shrinks; dropping it tells every worker to exit and joins them.
#[derive(Default)]
pub(crate) struct TeamPool {
    idle: Mutex<Vec<Arc<Worker>>>,
    /// Every thread ever spawned, in spawn order.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TeamPool {
    /// Runs `run_slot(i)` once for every `i` in `0..span`: slot 0 on the
    /// calling thread, the rest on pool workers, all concurrently.
    /// Returns when every slot has returned. If a slot panicked, the
    /// panic that was caught first is raised again here, after the join.
    #[allow(unsafe_code)]
    pub(crate) fn fork(&self, span: u64, run_slot: &(dyn Fn(u64) + Sync)) {
        if span <= 1 {
            return run_slot(0);
        }
        let spin = fits_machine(span);
        let latch = Arc::new(Latch {
            remaining: AtomicU64::new(0),
            parking: Parking::default(),
            panic: Mutex::new(None),
        });
        let join = Join { pool: self, latch: &latch, workers: self.check_out(span - 1), spin };
        // SAFETY: only the lifetime of the reference changes, so that it
        // can sit in a worker's mailbox. What it erases is the borrow of
        // the caller's frame: `run_slot` itself and all it captures (in
        // `Ctx::parallel`: the body, `fork_label`, `tids`, the team and
        // the `&OmpSim`). That is sound as long as no worker uses its
        // copy after this call is over, whether by return or by unwind.
        // `remaining` counts the copies handed out and not yet dropped:
        // it goes up before each post below, and a worker uses its copy
        // for the one call in `Worker::serve` and drops it before it
        // counts down. This function cannot leave while `join` is alive
        // without running `Join::drop`, which blocks until `remaining` is
        // zero. The `SeqCst` count-down and the load that sees zero also
        // order everything the members did before everything the caller
        // does next.
        let erased: &'static (dyn Fn(u64) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(u64) + Sync), &'static (dyn Fn(u64) + Sync)>(run_slot)
        };
        for (worker, slot) in join.workers.iter().zip(1..) {
            latch.remaining.fetch_add(1, Ordering::SeqCst);
            worker.post(Some(Job { run: erased, slot, latch: Arc::clone(&latch), spin }));
        }
        // Caught, so that a teammate's earlier panic is the one raised.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_slot(0))) {
            latch.record(payload);
        }
        drop(join);
        let first_panic = lock(&latch.panic).take();
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }

    /// Takes `n` workers out of the idle list, the most recently returned
    /// first, and spawns what is missing.
    fn check_out(&self, n: u64) -> Vec<Arc<Worker>> {
        let n = n as usize;
        let mut team = {
            let mut idle = lock(&self.idle);
            let keep = idle.len().saturating_sub(n);
            idle.split_off(keep)
        };
        while team.len() < n {
            let worker = Arc::new(Worker::default());
            let mut threads = lock(&self.threads);
            let spawned =
                std::thread::Builder::new().name(format!("omp-worker-{}", threads.len())).spawn({
                    let worker = Arc::clone(&worker);
                    move || worker.serve()
                });
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(e) => {
                    // Nothing was posted yet: the others stay usable.
                    lock(&self.idle).append(&mut team);
                    panic!("cannot spawn an omp-sim worker thread: {e}");
                }
            }
            team.push(worker);
        }
        team
    }

    #[cfg(test)]
    pub(crate) fn threads_spawned(&self) -> usize {
        lock(&self.threads).len()
    }
}

impl Drop for TeamPool {
    fn drop(&mut self) {
        // `&mut self`: no fork is in flight, so every worker is idle.
        for worker in lock(&self.idle).drain(..) {
            worker.post(None);
        }
        for thread in lock(&self.threads).drain(..) {
            // A worker catches its members' panics; it has none of its own.
            let _ = thread.join();
        }
    }
}

/// The drop guard [`TeamPool::fork`]'s `unsafe` block cites: while it is
/// alive the fork's frame cannot be left, normally or by unwinding,
/// before every posted member has counted the latch down.
struct Join<'a> {
    pool: &'a TeamPool,
    latch: &'a Latch,
    workers: Vec<Arc<Worker>>,
    spin: bool,
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        self.latch.wait(self.spin);
        lock(&self.pool.idle).append(&mut self.workers);
    }
}

/// Test-only count of how the calling thread's waits ended, so the spin
/// rule can be observed. Per thread: a test sees its own teams only, and
/// a pool thread belongs to one `OmpSim`.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    #[derive(Clone, Copy, Default, Debug)]
    pub(crate) struct Waits {
        pub(crate) spins: u64,
        pub(crate) parks: u64,
    }

    thread_local! {
        static WAITS: Cell<Waits> = const { Cell::new(Waits { spins: 0, parks: 0 }) };
    }

    pub(super) fn count(f: impl FnOnce(&mut Waits)) {
        WAITS.with(|w| {
            let mut waits = w.get();
            f(&mut waits);
            w.set(waits);
        });
    }

    /// The calling thread's waits so far.
    pub(crate) fn waits() -> Waits {
        WAITS.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::{fits_machine, probe};
    use crate::{OmpSim, Sequencer};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Barrier, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Runs `f` on a thread of its own and fails, instead of hanging the
    /// suite, when it is not done within `limit`.
    fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
            // Done, or died before it could say so: join tells which.
            _ => runner.join().expect("the watched closure panicked"),
        }
    }

    #[test]
    fn every_member_reads_the_locals_of_its_own_fork() {
        const FORKS: u64 = 10_000;
        let sim = OmpSim::new();
        sim.run(|ctx| {
            let mut stamp = 0;
            for k in 0..FORKS {
                // One local rewritten in place and one box reallocated between
                // forks: a member still holding the previous fork's borrow
                // would read the wrong stamp, or freed memory.
                stamp = 3 * k + 1;
                let heap = Box::new([stamp; 4]);
                let sum = AtomicU64::new(0);
                ctx.parallel(4, |w| {
                    assert_eq!(stamp, 3 * k + 1);
                    sum.fetch_add(heap[w.team_index() as usize], Ordering::Relaxed);
                });
                assert_eq!(sum.into_inner(), 4 * stamp);
            }
            assert_eq!(stamp, 3 * (FORKS - 1) + 1);
        });
        // Workers are made for members, not for regions: four members
        // less the forker, however many forks.
        assert_eq!(sim.pool_threads(), 3);
    }

    #[test]
    fn a_nested_program_spawns_what_its_widest_moment_needs() {
        let sim = OmpSim::new();
        // All eight innermost members are alive at once: one is the
        // thread that called `run`, seven are pool threads.
        let widest = Barrier::new(8);
        for _ in 0..3 {
            sim.run(|ctx| {
                ctx.parallel(2, |a| {
                    a.parallel(2, |b| {
                        b.parallel(2, |_| {
                            widest.wait();
                        });
                    });
                });
            });
            assert_eq!(sim.pool_threads(), 7);
        }
    }

    #[test]
    fn slot_zero_runs_on_the_forking_thread_and_no_other_slot_does() {
        let sim = OmpSim::new();
        sim.run(|ctx| {
            let forker = thread::current().id();
            let seen = Mutex::new(Vec::new());
            let all_six = Barrier::new(6);
            ctx.parallel(3, |w| {
                let outer = thread::current().id();
                assert_eq!(outer == forker, w.team_index() == 0);
                // A member that forks is the master of the team it forks.
                w.parallel(2, |inner| {
                    assert_eq!(thread::current().id() == outer, inner.team_index() == 0);
                    seen.lock().unwrap().push(thread::current().id());
                    all_six.wait();
                });
            });
            let distinct: HashSet<ThreadId> = seen.into_inner().unwrap().into_iter().collect();
            assert_eq!(distinct.len(), 6, "six members at once, six OS threads");
        });
    }

    #[test]
    fn a_pinned_interleaving_still_pins_with_slot_zero_inline() {
        // Figure 1's shape: the other thread's access lands between two of
        // slot 0's. Slot 0 is the forker, so it can only wait for turn 1 if
        // slot 1 got its job before slot 0 started.
        let sim = OmpSim::new();
        sim.run(|ctx| {
            for _ in 0..200 {
                let seq = Sequencer::new();
                let order = Mutex::new(String::new());
                ctx.parallel(2, |w| {
                    let mark = |c| order.lock().unwrap().push(c);
                    if w.team_index() == 0 {
                        seq.turn(1, || mark('b'));
                        seq.turn(3, || mark('d'));
                    } else {
                        seq.turn(0, || mark('a'));
                        seq.turn(2, || mark('c'));
                    }
                });
                assert_eq!(order.into_inner().unwrap(), "abcd");
            }
        });
    }

    /// Runs forty barrier-heavy regions of `span` members and returns how
    /// each member's OS thread waited meanwhile.
    fn waits_of_a_team(span: usize) -> Vec<probe::Waits> {
        let sim = OmpSim::new();
        let before = probe::waits();
        let hits = AtomicU64::new(0);
        let waits = Mutex::new(Vec::new());
        sim.run(|ctx| {
            for _ in 0..40 {
                ctx.parallel(span, |w| {
                    w.barrier();
                    hits.fetch_add(1, Ordering::Relaxed);
                    w.barrier();
                });
            }
            ctx.parallel(span, |w| {
                let mut mine = probe::waits();
                if w.team_index() == 0 {
                    // The forker is this test's thread and has a past.
                    mine.spins -= before.spins;
                    mine.parks -= before.parks;
                }
                waits.lock().unwrap().push(mine);
            });
        });
        assert_eq!(hits.into_inner(), 40 * span as u64);
        assert_eq!(sim.pool_threads(), span - 1);
        waits.into_inner().unwrap()
    }

    #[test]
    fn teams_of_every_size_complete_and_only_those_that_fit_spin() {
        for span in [1, 2, 3, 8, 64] {
            let waits = waits_of_a_team(span);
            assert_eq!(waits.len(), span);
            let spins: u64 = waits.iter().map(|w| w.spins).sum();
            let parks: u64 = waits.iter().map(|w| w.parks).sum();
            if span == 1 {
                assert_eq!(spins + parks, 0, "a team of one meets nobody");
            } else if !fits_machine(span as u64) {
                assert_eq!(spins, 0, "span {span} does not fit and must not poll: {waits:?}");
                assert!(parks > 0);
            } else if span == 2 {
                // Two members on two or more cores, 120 rendezvous: some
                // wait ended while it was being polled.
                assert!(spins > 0, "span 2 fits and never saw a poll succeed: {waits:?}");
            }
        }
        assert!(!fits_machine(u64::MAX));
    }

    #[test]
    fn a_member_that_panics_releases_its_teammates_and_the_pool_survives() {
        for span in [2usize, 4, 8] {
            // The last slot dies while slot 0 waits, and the mirror.
            for victim in [span as u64 - 1, 0] {
                within(Duration::from_secs(5), move || {
                    let sim = OmpSim::new();
                    let died = catch_unwind(AssertUnwindSafe(|| {
                        sim.run(|ctx| {
                            ctx.parallel(span, |w| {
                                if w.team_index() == victim {
                                    panic!("boom");
                                }
                                w.barrier();
                            });
                        })
                    }));
                    let payload = died.expect_err("the member's panic reaches the forker");
                    // The first payload to reach the latch: the victim's,
                    // unless a released teammate's unwinding overtook it.
                    let message = payload.downcast_ref::<&str>().copied();
                    assert!(
                        matches!(
                            message,
                            Some("boom" | "a teammate panicked; leaving the barrier")
                        ),
                        "{message:?}"
                    );
                    assert_eq!(sim.pool_threads(), span - 1);
                    // The same workers serve the next region.
                    let hits = AtomicU64::new(0);
                    sim.run(|ctx| {
                        ctx.parallel(span, |w| {
                            w.barrier();
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                    assert_eq!(hits.into_inner(), span as u64);
                    assert_eq!(sim.pool_threads(), span - 1);
                });
            }
        }
    }

    #[test]
    fn pool_threads_are_named() {
        let sim = OmpSim::new();
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                let name = thread::current().name().map(str::to_owned);
                if w.team_index() > 0 {
                    let name = name.expect("pool threads are named");
                    assert!(name == "omp-worker-0" || name == "omp-worker-1", "{name}");
                }
            });
        });
    }
}
