//! A poll's worker threads live exactly as long as the poll, an idle
//! poll has none, and a poll of one large task builds its two trees on
//! two workers.
//!
//! This file holds one test on purpose: it counts the threads of the
//! whole process, and a second test running beside it would be counted.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use sword_obs::Obs;
use sword_offline::{AnalysisConfig, LiveAnalyzer};
use sword_ompsim::SimConfig;
use sword_runtime::{run_collected, SwordConfig};
use sword_trace::{read_meta, SessionDir};

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
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `n` xorshift64 words from `seed`.
fn random_words(n: u64, seed: u64) -> impl Iterator<Item = u64> {
    let mut x = seed | 1;
    (0..n).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    })
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
    assert_eq!(threads_settling_at(at_start), at_start, "no thread before the first poll");
    let delta = live.poll().expect("poll");
    assert!(delta.finished && delta.tree_pairs > 0, "the poll had work for the pool");
    assert_eq!(threads_settling_at(at_start), at_start, "a poll joins every worker it started");
    // A `watch` at its default interval polls five times a second for as
    // long as the run lasts; almost all of those polls are idle.
    for _ in 0..3 {
        assert_eq!(live.poll().expect("idle poll").new_intervals, 0);
        assert_eq!(threads_settling_at(at_start), at_start, "an idle poll starts nothing");
    }
    drop(live);
    assert_eq!(threads_settling_at(at_start), at_start);
    std::fs::remove_dir_all(&dir).unwrap();

    // One region, one barrier interval per thread, each a gather that
    // does not summarise and carries far more than 256 KiB of log: the
    // poll is one task, and a task that large shares its two builds.
    let n = 1u64 << 16;
    let idx: Vec<u64> = random_words(2 * n, 0x9E37_79B9_7F4A_7C15).map(|x| x % (4 * n)).collect();
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        let src = sim.alloc::<u64>(4 * n, 1);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static_nowait(0..2 * n, |i| {
                    w.read(&src, idx[i as usize]);
                })
            });
        });
    })
    .expect("collection");
    let session = SessionDir::new(&dir);
    for tid in session.thread_ids().expect("thread ids") {
        let meta = std::fs::File::open(session.thread_meta(tid)).expect("meta file");
        let rows = read_meta(std::io::BufReader::new(meta)).expect("meta rows");
        let sizes: Vec<u64> = rows.iter().map(|r| r.size).filter(|&s| s > 0).collect();
        assert!(sizes.len() == 1 && sizes[0] >= 256 << 10, "tid {tid}: {sizes:?}");
    }
    let at_start = process_threads();
    let obs = Obs::new();
    let config = AnalysisConfig::default().with_workers(2).with_obs(obs.clone());
    let mut live = LiveAnalyzer::new(&session, &config);
    let delta = live.poll().expect("poll");
    assert!(delta.finished && delta.tree_pairs == 1, "one pair: {delta:?}");
    assert_eq!(
        threads_settling_at(at_start),
        at_start,
        "the second worker was joined inside the poll"
    );
    let events = obs.journal.drain();
    let builders: std::collections::BTreeSet<&str> =
        events.iter().filter(|e| e.name == "build").map(|e| &*e.thread).collect();
    let expect = ["oa-worker-0", "oa-worker-1"].into_iter().collect();
    assert_eq!(builders, expect, "each worker built one of the task's two trees");
    let snapshot = obs.registry.snapshot();
    let tasks = snapshot.iter().find(|(k, _)| k == "sword_analyzer_task_nanos_count").expect("row");
    assert_eq!(tasks.1, 1.0, "the poll ran one task");
    drop(live);
    assert_eq!(threads_settling_at(at_start), at_start);
    std::fs::remove_dir_all(&dir).unwrap();
}
