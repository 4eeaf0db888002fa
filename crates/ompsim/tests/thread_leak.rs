//! The pool's OS threads live exactly as long as their `OmpSim`.
//!
//! This file holds one test on purpose: it counts the threads of the
//! whole process, and a second test running beside it would be counted.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use sword_ompsim::OmpSim;

/// The `Threads:` row of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let row = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: row");
    row.trim().parse().expect("a thread count")
}

/// The thread count once it reads `expect`, or the last reading after
/// about 2 s: a thread whose `join` has returned can stay listed for a
/// moment while the kernel reaps it.
fn threads_settling_at(expect: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let threads = process_threads();
        if threads == expect || Instant::now() >= deadline {
            return threads;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// The OS threads slots `1..4` of one span-4 region ran on.
fn workers_of_a_region(sim: &OmpSim) -> BTreeSet<String> {
    let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    sim.run(|ctx| {
        ctx.parallel(4, |w| {
            if w.team_index() > 0 {
                seen.lock().unwrap().push(thread::current().id());
            }
        });
    });
    seen.into_inner().unwrap().iter().map(|id| format!("{id:?}")).collect()
}

#[test]
fn workers_are_reused_across_runs_and_joined_on_drop() {
    let at_start = process_threads();
    let sim = OmpSim::new();
    assert_eq!(process_threads(), at_start, "no thread before the first fork");
    let first = workers_of_a_region(&sim);
    assert_eq!(first.len(), 3);
    assert_eq!(process_threads(), at_start + 3, "the workers stay, parked");
    let second = workers_of_a_region(&sim);
    assert_eq!(first, second, "a second run() is served by the same workers");
    assert_eq!(process_threads(), at_start + 3);
    drop(sim);
    assert_eq!(threads_settling_at(at_start), at_start, "every worker was joined");
}
