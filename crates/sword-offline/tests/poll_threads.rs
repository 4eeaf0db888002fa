//! A poll's worker threads live exactly as long as the poll, and an idle
//! poll has none.
//!
//! This file holds one test on purpose: it counts the threads of the
//! whole process, and a second test running beside it would be counted.

#![cfg(target_os = "linux")]

use sword_offline::{AnalysisConfig, LiveAnalyzer};
use sword_ompsim::SimConfig;
use sword_runtime::{run_collected, SwordConfig};
use sword_trace::SessionDir;

/// The `Threads:` row of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let row = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: row");
    row.trim().parse().expect("a thread count")
}

#[test]
fn polls_leave_no_thread_behind_and_idle_polls_start_none() {
    let dir = std::env::temp_dir().join(format!("sword-poll-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        // A few megabytes of log: enough for every worker asked for.
        let a = sim.alloc::<u64>(1 << 15, 0);
        sim.run(|ctx| {
            for _ in 0..8 {
                ctx.parallel(2, |w| w.for_static(0..1 << 15, |i| w.write(&a, i, i)));
            }
        });
    })
    .expect("collection");
    // `run_collected` joined the simulator's pool and the flush pipeline.
    let at_start = process_threads();

    let config = AnalysisConfig::default().with_workers(4);
    let mut live = LiveAnalyzer::new(&SessionDir::new(&dir), &config);
    assert_eq!(process_threads(), at_start, "no thread before the first poll");
    let delta = live.poll().expect("poll");
    assert!(delta.finished && delta.tree_pairs > 0, "the poll had work for the pool");
    assert_eq!(process_threads(), at_start, "a poll joins every worker it started");
    // A `watch` at its default interval polls five times a second for as
    // long as the run lasts; almost all of those polls are idle.
    for _ in 0..3 {
        assert_eq!(live.poll().expect("idle poll").new_intervals, 0);
        assert_eq!(process_threads(), at_start, "an idle poll starts nothing");
    }
    drop(live);
    assert_eq!(process_threads(), at_start);
    std::fs::remove_dir_all(&dir).unwrap();
}
