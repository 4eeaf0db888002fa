//! Incremental (live) analysis must equal one-shot batch analysis.
//!
//! The staged-replay harness makes this deterministic: a finished session
//! is copied into a replica directory whose metadata is then re-published
//! as growing watermarked prefixes — exactly what a live collector's
//! publish protocol produces — with a [`LiveAnalyzer`] polled between
//! steps. Whatever the publish cadence, the final result must match the
//! batch analyzer on the same data: same deduplicated race set with the
//! same occurrence counts, and the same comparison-effort counters
//! (`tree_pairs`, `candidate_pairs`, `solver_calls`). Batch is one round
//! of the analyzer the polls run, so these tests check cut-invariance end
//! to end. The tree-request counters (`trees_built`, `nodes`, `events`,
//! `bytes_read`) are exempt: they count one request per task per round,
//! so they depend on the cut — though never on the worker count.

use std::path::PathBuf;
use std::sync::Arc;

use sword_offline::{analyze, AnalysisConfig, AnalysisResult, LiveAnalyzer};
use sword_ompsim::{OmpSim, SimConfig};
use sword_runtime::{run_collected, SwordCollector, SwordConfig};
use sword_trace::{LiveStatus, SessionDir};

fn session_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sword-live-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Collects `program` into a fresh session and returns its directory.
fn record(tag: &str, program: impl FnOnce(&OmpSim)) -> PathBuf {
    let dir = session_dir(tag);
    run_collected(SwordConfig::new(&dir), SimConfig::default(), program).expect("collection");
    dir
}

/// Replays a finished session as a staged sequence of watermark
/// publishes: logs, regions, and PCs are present from the start (regions
/// may only run ahead of the rows that reference them), while each
/// thread's meta file grows by `step` rows per publish. The analyzer is
/// polled after every publish — including empty ones — and its final
/// result is returned.
fn staged_replay(
    src: &SessionDir,
    tag: &str,
    config: &AnalysisConfig,
    step: usize,
) -> AnalysisResult {
    let dir = session_dir(tag);
    let dst = SessionDir::new(&dir);
    dst.create().expect("replica dir");
    for tid in src.thread_ids().expect("thread ids") {
        std::fs::copy(src.thread_log(tid), dst.thread_log(tid)).expect("copy log");
    }
    for name in ["regions.meta", "pcs.meta"] {
        let from = src.path().join(name);
        if from.exists() {
            std::fs::copy(from, dst.path().join(name)).expect("copy table");
        }
    }
    let metas: Vec<(sword_trace::ThreadId, Vec<String>)> = src
        .thread_ids()
        .expect("thread ids")
        .into_iter()
        .map(|tid| {
            let text = std::fs::read_to_string(src.thread_meta(tid)).expect("read meta");
            (tid, text.lines().map(str::to_string).collect())
        })
        .collect();
    let max_rows = metas.iter().map(|(_, lines)| lines.len()).max().unwrap_or(0);

    let mut live = LiveAnalyzer::new(&dst, config);
    let mut revealed = 0usize;
    let mut generation = 0u64;
    loop {
        revealed = revealed.saturating_add(step).min(max_rows);
        for (tid, lines) in &metas {
            let n = revealed.min(lines.len());
            let mut body = lines[..n].join("\n");
            if n > 0 {
                body.push('\n');
            }
            dst.write_file_atomic(&dst.thread_meta(*tid), body.as_bytes())
                .expect("publish meta prefix");
        }
        generation += 1;
        dst.write_live(LiveStatus { generation, finished: revealed >= max_rows })
            .expect("publish watermark");
        let delta = live.poll().expect("poll");
        if delta.finished {
            break;
        }
    }
    // An idle poll after completion must be a no-op.
    let idle = live.poll().expect("idle poll");
    assert!(idle.new_intervals == 0 && idle.new_races.is_empty(), "idle poll changed state");
    let result = live.into_result().expect("live result");
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

/// The equivalence contract: identical race report and identical
/// comparison effort (tree requests are allowed to differ — a group that
/// grows over several polls asks for its older members' trees again).
fn assert_equivalent(live: &AnalysisResult, batch: &AnalysisResult) {
    let report = |r: &AnalysisResult| -> Vec<_> {
        r.races.iter().map(|x| (x.key, x.kind_a, x.kind_b, x.occurrences)).collect()
    };
    assert_eq!(report(live), report(batch), "race reports diverge");
    assert_eq!(live.stats.races, batch.stats.races);
    assert_eq!(live.stats.racy_node_pairs, batch.stats.racy_node_pairs);
    assert_eq!(live.stats.races_suppressed, batch.stats.races_suppressed);
    assert_eq!(live.stats.tree_pairs, batch.stats.tree_pairs, "tree pairs");
    assert_eq!(live.stats.candidate_pairs, batch.stats.candidate_pairs, "candidates");
    assert_eq!(live.stats.solver_calls, batch.stats.solver_calls, "solver calls");
    assert_eq!(live.stats.prescreened_pairs, batch.stats.prescreened_pairs, "prescreened");
    assert_eq!(live.stats.threads, batch.stats.threads);
    assert_eq!(live.stats.barrier_intervals, batch.stats.barrier_intervals);
    assert_eq!(live.stats.groups, batch.stats.groups);
    assert_eq!(live.stats.tasks, batch.stats.tasks);
    assert_eq!(live.stats.region_pairs_skipped, batch.stats.region_pairs_skipped);
    assert_eq!(live.stats.region_pairs_considered, batch.stats.region_pairs_considered);
}

/// Every race of `r` rendered with its full evidence chain, for
/// byte-for-byte comparison.
fn evidence_chains(src: &SessionDir, r: &AnalysisResult) -> Vec<String> {
    let pcs = sword_trace::PcTable::read_from(std::io::BufReader::new(
        std::fs::File::open(src.pcs_path()).expect("pcs"),
    ))
    .expect("pc table");
    r.races.iter().map(|x| format!("{}\n{}", x.render(&pcs), x.render_evidence(&pcs))).collect()
}

/// A workload with intra-group races, nested concurrent regions (cross
/// tasks of both kinds), and a sequential region pair to prune.
fn mixed_workload(sim: &OmpSim) {
    let a = sim.alloc::<i64>(600, 0);
    let c = sim.alloc::<u64>(1, 0);
    let y = sim.alloc::<u64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(3, |w| {
            w.for_static(1..600, |i| {
                let v = w.read(&a, i - 1);
                w.write(&a, i, v + 1);
            });
            let v = w.read(&c, 0);
            w.write(&c, 0, v + 1);
        });
        ctx.parallel(2, |w| {
            w.parallel(2, |inner| {
                inner.write(&y, 0, inner.team_index());
            });
        });
    });
}

/// A tasking workload: racy sibling tasks, a depend chain, taskwait,
/// taskgroup, and dynamic/guided/ordered loops — every construct the
/// tasking sequencer added, in one session.
fn tasking_workload(sim: &OmpSim) {
    use sword_ompsim::DepMode;
    let x = sim.alloc::<i64>(1, 0);
    let y = sim.alloc::<i64>(1, 0);
    let a = sim.alloc::<i64>(16, 0);
    let sum = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(2, |w| {
            if w.team_index() == 0 {
                // Racy siblings on x; dep-chain-ordered pair on y.
                w.task_depend(&[], |t| t.write(&x, 0, 1));
                w.task_depend(&[], |t| t.write(&x, 0, 2));
                w.task_depend(&[(0, DepMode::Out)], |t| t.write(&y, 0, 1));
                w.task_depend(&[(0, DepMode::InOut)], |t| {
                    let v = t.read(&y, 0);
                    t.write(&y, 0, v + 1);
                });
                w.taskwait();
                w.taskgroup(|g| {
                    g.task_depend(&[], |t| t.write(&y, 0, 9));
                });
                let _ = w.read(&y, 0);
            }
            w.barrier();
            // Dynamic and guided worksharing over disjoint elements, and
            // an ordered accumulation into one shared cell.
            w.for_dynamic_pinned(0..16, 2, |i| {
                let v = w.read(&a, i);
                w.write(&a, i, v + 1);
            });
            w.for_guided_pinned(0..16, 1, |i| {
                let v = w.read(&a, i);
                w.write(&a, i, v * 2);
            });
            w.for_static_ordered(0..8, |i, ol| {
                w.ordered(ol, i, || {
                    let s = w.read(&sum, 0);
                    w.write(&sum, 0, s + i as i64);
                });
            });
        });
    });
}

fn clean_workload(sim: &OmpSim) {
    let a = sim.alloc::<f64>(512, 1.0);
    sim.run(|ctx| {
        ctx.parallel(4, |w| {
            w.for_static(0..512, |i| {
                let v = w.read(&a, i);
                w.write(&a, i, v * 2.0);
            });
        });
    });
}

#[test]
fn live_equals_batch_on_racy_workload() {
    let dir = record("racy", mixed_workload);
    let src = SessionDir::new(&dir);
    let config = AnalysisConfig::sequential();
    let batch = analyze(&src, &config).expect("batch");
    assert!(batch.race_count() >= 2, "workload must race: {:?}", batch.races);
    let live = staged_replay(&src, "racy-replay", &config, 1);
    assert_equivalent(&live, &batch);
    assert_eq!(evidence_chains(&src, &live), evidence_chains(&src, &batch), "evidence diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_equals_batch_on_clean_workload() {
    let dir = record("clean", clean_workload);
    let src = SessionDir::new(&dir);
    let config = AnalysisConfig::sequential();
    let batch = analyze(&src, &config).expect("batch");
    assert_eq!(batch.race_count(), 0, "{:?}", batch.races);
    let live = staged_replay(&src, "clean-replay", &config, 2);
    assert_equivalent(&live, &batch);
    assert!(live.stats.events > 0, "log data was actually streamed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_equals_batch_on_tasking_workload() {
    // The tasking leg of the equivalence contract: a session full of
    // task-fork labels, dep edges, taskgroup scopes, and
    // dynamic/guided/ordered loop records must replay to the identical
    // report, with byte-identical evidence.
    let dir = record("tasking", tasking_workload);
    let src = SessionDir::new(&dir);
    let config = AnalysisConfig::sequential();
    let batch = analyze(&src, &config).expect("batch");
    assert!(batch.race_count() >= 1, "sibling tasks must race: {:?}", batch.races);
    assert!(batch.stats.tasks > 0, "session must carry task records");
    let live = staged_replay(&src, "tasking-replay", &config, 1);
    assert_equivalent(&live, &batch);
    assert_eq!(
        evidence_chains(&src, &live),
        evidence_chains(&src, &batch),
        "tasking evidence diverged"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poll_cadence_is_invariant() {
    // One row at a time, three at a time, or everything in one publish —
    // the result must not depend on how the watermark advanced.
    let dir = record("cadence", mixed_workload);
    let src = SessionDir::new(&dir);
    let config = AnalysisConfig::sequential();
    let batch = analyze(&src, &config).expect("batch");
    for (tag, step) in [("cadence-1", 1), ("cadence-3", 3), ("cadence-all", usize::MAX)] {
        let live = staged_replay(&src, tag, &config, step);
        assert_equivalent(&live, &batch);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Many sequential racy regions: one round over the whole session has
/// dozens of tasks, each with real trees to build.
fn many_tasks_workload(sim: &OmpSim) {
    let a = sim.alloc::<i64>(2048, 0);
    let c = sim.alloc::<u64>(1, 0);
    sim.run(|ctx| {
        for _ in 0..32 {
            ctx.parallel(3, |w| {
                w.for_static(1..2048, |i| {
                    let v = w.read(&a, i - 1);
                    w.write(&a, i, v + 1);
                });
                w.write(&c, 0, w.team_index());
            });
        }
    });
}

#[test]
fn worker_count_never_changes_a_live_result() {
    // `watch --workers N` runs every poll on N workers. One worker or
    // four, per-worker tree caches or one: races, evidence and every
    // count row — the logical tree requests included — must be equal.
    let counts = |r: &AnalysisResult| sword_offline::AnalysisStats {
        wall_secs: 0.0,
        max_task_secs: 0.0,
        ..r.stats
    };
    for (tag, program) in [
        ("w-mixed", mixed_workload as fn(&OmpSim)),
        ("w-tasking", tasking_workload),
        ("w-many", many_tasks_workload),
    ] {
        let dir = record(tag, program);
        let src = SessionDir::new(&dir);
        for step in [1, 3, usize::MAX] {
            let one = staged_replay(&src, &format!("{tag}-1"), &AnalysisConfig::sequential(), step);
            let four = staged_replay(
                &src,
                &format!("{tag}-4"),
                &AnalysisConfig::sequential().with_workers(4),
                step,
            );
            assert_eq!(counts(&four), counts(&one), "{tag}, {step} rows per publish");
            assert_eq!(evidence_chains(&src, &four), evidence_chains(&src, &one), "{tag}");
            assert_equivalent(&four, &one);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn live_polls_run_on_the_worker_pool() {
    // With two workers a poll starts a second thread, and each worker it
    // runs on journals its share of the round under its own name, with
    // the tasks it finished; an idle poll journals nothing on the pool at
    // all. Which worker finishes which task is the scheduler's call: the
    // tasks here take microseconds, and worker 0 may finish all of them
    // before worker 1 starts, so only the shares are counted on.
    use sword_obs::Obs;

    let dir = record("pool", many_tasks_workload);
    let src = SessionDir::new(&dir);
    let obs = Obs::new();
    let config = AnalysisConfig::sequential().with_workers(2).with_obs(obs.clone());
    let mut live = LiveAnalyzer::new(&src, &config);
    assert!(live.poll().expect("poll").finished, "a finished session is one poll");
    let events = obs.journal.drain();
    let shares: Vec<(&str, f64)> = events
        .iter()
        .filter(|e| e.name == "work")
        .map(|e| (&*e.thread, e.args.iter().find(|(k, _)| k == "tasks").expect("tasks arg").1))
        .collect();
    let mut workers: Vec<&str> = shares.iter().map(|(w, _)| *w).collect();
    workers.sort_unstable();
    assert_eq!(workers, ["oa-worker-0", "oa-worker-1"], "one share per worker, two workers");
    let tasks = events.iter().filter(|e| e.name == "task").count();
    assert!(tasks > 1, "the poll dealt {tasks} tasks");
    assert_eq!(
        shares.iter().map(|(_, n)| n).sum::<f64>(),
        tasks as f64,
        "the shares cover every task"
    );
    assert!(!events.iter().any(|e| &*e.thread == "oa-worker-2"), "workers = 2 means two");
    let tiny = record("pool-tiny", clean_workload);
    let mut small = LiveAnalyzer::new(&SessionDir::new(&tiny), &config);
    assert!(small.poll().expect("poll").tree_pairs > 0);
    let events = obs.journal.drain();
    assert!(
        events.iter().all(|e| !e.thread.starts_with("oa-worker-") || &*e.thread == "oa-worker-0"),
        "a few kilobytes of log are analyzed where the poll runs"
    );
    assert!(events.iter().any(|e| e.name == "work"), "on worker 0");
    std::fs::remove_dir_all(&tiny).unwrap();

    let idle = live.poll().expect("idle poll");
    assert_eq!(idle.new_intervals, 0);
    let events = obs.journal.drain();
    assert!(
        events.iter().all(|e| &*e.thread == "live-poller"),
        "an idle poll reached the pool: {:?}",
        events.iter().map(|e| (&*e.thread, &*e.name)).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn focus_and_suppressions_flow_through_live() {
    let dir = record("config", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        let b = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.write(&a, 0, w.team_index());
            });
            ctx.parallel(2, |w| {
                w.write(&b, 0, w.team_index());
            });
        });
    });
    let src = SessionDir::new(&dir);

    let focus = AnalysisConfig::sequential().with_focus_regions(vec![1]);
    let batch = analyze(&src, &focus).expect("batch focus");
    assert_eq!(batch.race_count(), 1);
    assert_equivalent(&staged_replay(&src, "config-focus", &focus, 1), &batch);

    let suppress = AnalysisConfig::sequential().with_suppression("live_equivalence.rs");
    let batch = analyze(&src, &suppress).expect("batch suppress");
    assert_eq!(batch.race_count(), 0);
    assert_eq!(batch.stats.races_suppressed, 2);
    assert_equivalent(&staged_replay(&src, "config-suppress", &suppress, 1), &batch);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_watermarks_only_cover_durable_bytes() {
    // With the async flush pipeline (pool → compression workers → ordered
    // writer), the published watermark is allowed to trail the buffers
    // still in flight but must never run ahead of the file: at every
    // publish point, each visible meta row's byte range has to be readable
    // back from the on-disk log, while the writer is still racing.
    use std::fs::File;
    use std::io::BufReader;
    use sword_trace::{read_meta, EventDecoder, LogReader};

    let dir = session_dir("durable");
    let collector = Arc::new(
        SwordCollector::new(SwordConfig::new(&dir).buffer_events(2).compress_workers(2).live())
            .expect("collector"),
    );
    let session = collector.session().clone();
    let sim = OmpSim::with_tool_and_config(collector.clone(), SimConfig::default());
    let a = sim.alloc::<u64>(256, 0);
    let mut checked_rows = 0usize;
    sim.run(|ctx| {
        for _round in 0..5 {
            ctx.parallel(4, |w| {
                w.for_static(0..256, |i| {
                    w.write(&a, i, i);
                });
            });
            collector.publish_progress().expect("publish");
            for tid in session.thread_ids().expect("tids") {
                let meta = session.thread_meta(tid);
                if !meta.exists() {
                    continue;
                }
                let rows = read_meta(BufReader::new(File::open(meta).unwrap())).expect("meta");
                let Some(last) = rows.last() else { continue };
                // One read over everything the watermark claims: EOF here
                // would mean the watermark covered bytes not yet on disk.
                let mut reader = LogReader::new(File::open(session.thread_log(tid)).unwrap());
                let mut bytes = Vec::new();
                reader
                    .read_range(0, last.data_begin + last.size, &mut bytes)
                    .expect("published bytes must be durably readable");
                for row in &rows {
                    let range =
                        &bytes[row.data_begin as usize..(row.data_begin + row.size) as usize];
                    EventDecoder::new().decode_all(range).expect("published interval decodes");
                    checked_rows += 1;
                }
            }
        }
    });
    collector.write_pcs(&sim.export_pcs()).expect("pcs");
    assert!(collector.take_error().is_none());
    assert!(checked_rows > 0, "mid-run publishes exposed at least one interval");
    // After finalize the watermark is final and complete.
    let status = session.read_live().expect("live").expect("status");
    assert!(status.finished);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_run_polling_reports_races_before_the_run_ends() {
    // The real collector, not the replay harness: a racy first region is
    // published mid-run (deterministically, via publish_progress) and the
    // analyzer polled inside the run must already report the race while
    // the session is still unfinished and later intervals don't exist yet.
    let dir = session_dir("midrun");
    let collector = Arc::new(
        SwordCollector::new(SwordConfig::new(&dir).sync_flush().buffer_events(1).live())
            .expect("collector"),
    );
    let session = collector.session().clone();
    let config = AnalysisConfig::sequential();
    let mut live = LiveAnalyzer::new(&session, &config);
    let sim = OmpSim::with_tool_and_config(collector.clone(), SimConfig::default());
    let a = sim.alloc::<u64>(1, 0);
    let b = sim.alloc::<f64>(128, 0.0);
    let mut mid = None;
    sim.run(|ctx| {
        ctx.parallel(2, |w| {
            w.write(&a, 0, w.team_index()); // the planted race
        });
        collector.publish_progress().expect("publish");
        let delta = live.poll().expect("mid-run poll");
        mid = Some((delta.total_races, delta.finished, live.race_count()));
        // More work after the mid-run observation: a clean region.
        ctx.parallel(2, |w| {
            w.for_static(0..128, |i| {
                w.write(&b, i, i as f64);
            });
        });
    });
    collector.write_pcs(&sim.export_pcs()).expect("pcs");
    assert!(collector.take_error().is_none());

    let (mid_races, mid_finished, mid_count) = mid.expect("mid-run observation");
    assert!(!mid_finished, "session must still be in flight at the mid-run poll");
    assert!(mid_races >= 1, "the race must surface before the run ends");
    assert_eq!(mid_races, mid_count);

    // Finish the watch and compare against batch on the final session.
    let final_delta = live.poll().expect("final poll");
    assert!(final_delta.finished, "finalize marks the watermark finished");
    let live_result = live.into_result().expect("live result");
    let batch = analyze(&session, &config).expect("batch");
    assert_equivalent(&live_result, &batch);
    assert_eq!(live_result.race_count(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
