//! Rounds whose largest task carries most of their work: such a task's
//! trees are built by several workers, and nothing a report or a
//! statistic says may depend on which worker built which tree.
//!
//! The session has the shape of the `stencil_live` benchmark: one region,
//! two threads, a run of barrier intervals that a staged replay reveals a
//! few at a time. Every fourth interval pair is a scattered gather that
//! does not summarise and carries far more than 256 KiB of log, so each
//! poll brings one task holding most of its work. Batch and the replay
//! run at 1, 2 and 4 workers; races, evidence chains and every logical
//! counter must be identical across worker counts, and the report and
//! comparison effort identical between batch and live.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sword::obs::Obs;
use sword::offline::{analyze, AnalysisConfig, AnalysisResult, LiveAnalyzer};
use sword::ompsim::SimConfig;
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::{LiveStatus, PcTable, SessionDir};

/// Barrier intervals per thread, and how many of them the replay reveals
/// per poll (one gather among them).
const PHASES: u64 = 12;
const ROWS_PER_POLL: usize = 4;

/// Random reads per thread of one gather interval.
const GATHER: u64 = 1 << 15;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sword-balance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

fn collect(dir: &Path) {
    let table = 8 * GATHER;
    let idx: Vec<u64> =
        random_words(2 * GATHER, 0x2545_F491_4F6C_DD1D).map(|x| x % table).collect();
    run_collected(SwordConfig::new(dir), SimConfig::default(), |sim| {
        let src = sim.alloc::<u64>(table, 1);
        let grid = sim.alloc::<u64>(512, 0);
        let norm = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                for phase in 0..PHASES {
                    if phase % ROWS_PER_POLL as u64 == 0 {
                        w.for_static_nowait(0..2 * GATHER, |i| {
                            w.read(&src, idx[i as usize]);
                        });
                    } else {
                        w.for_static_nowait(0..512, |i| {
                            let v = w.read(&grid, i);
                            w.write(&grid, i, v + phase);
                        });
                        // Every thread stores the norm: the race.
                        w.write(&norm, 0, phase);
                    }
                    w.barrier();
                }
            });
        });
    })
    .expect("collection");
}

/// Replays the finished session at `src` as polls that each reveal
/// [`ROWS_PER_POLL`] more meta rows per thread.
fn staged_replay(src: &SessionDir, tag: &str, config: &AnalysisConfig) -> AnalysisResult {
    let dir = tmp(tag);
    let dst = SessionDir::new(&dir);
    dst.create().expect("replica dir");
    let tids = src.thread_ids().expect("thread ids");
    for &tid in &tids {
        std::fs::copy(src.thread_log(tid), dst.thread_log(tid)).expect("copy log");
    }
    for (from, to) in [(src.regions_path(), dst.regions_path()), (src.pcs_path(), dst.pcs_path())] {
        std::fs::copy(from, to).expect("copy table");
    }
    let metas: Vec<(u32, Vec<String>)> = tids
        .iter()
        .map(|&tid| {
            let text = std::fs::read_to_string(src.thread_meta(tid)).expect("read meta");
            (tid, text.lines().map(str::to_string).collect())
        })
        .collect();
    let max_rows = metas.iter().map(|(_, lines)| lines.len()).max().unwrap_or(0);
    let mut live = LiveAnalyzer::new(&dst, config);
    let (mut revealed, mut generation) = (0, 0);
    loop {
        revealed = (revealed + ROWS_PER_POLL).min(max_rows);
        for (tid, lines) in &metas {
            let mut body = lines[..revealed.min(lines.len())].join("\n");
            body.push('\n');
            dst.write_file_atomic(&dst.thread_meta(*tid), body.as_bytes()).expect("publish");
        }
        generation += 1;
        dst.write_live(LiveStatus { generation, finished: revealed >= max_rows }).expect("live");
        if live.poll().expect("poll").finished {
            break;
        }
    }
    let result = live.into_result().expect("live result");
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

/// Every race with its full evidence chain, as `sword explain` prints it.
fn evidence(src: &SessionDir, r: &AnalysisResult) -> Vec<String> {
    let file = std::fs::File::open(src.pcs_path()).expect("pcs");
    let pcs = PcTable::read_from(std::io::BufReader::new(file)).expect("pc table");
    r.races.iter().map(|x| format!("{}\n{}", x.render(&pcs), x.render_evidence(&pcs))).collect()
}

/// The logical counters, none of which may depend on who built a tree;
/// the last is the task samples in `obs`'s registry.
fn counters(r: &AnalysisResult, obs: &Obs) -> [u64; 9] {
    let s = &r.stats;
    let snapshot = obs.registry.snapshot();
    let task_samples = snapshot.iter().find(|(k, _)| k == "sword_analyzer_task_nanos_count");
    [
        s.trees_built,
        s.nodes,
        s.events,
        s.tasks,
        s.tree_pairs,
        s.candidate_pairs,
        s.solver_calls,
        s.prescreened_pairs,
        task_samples.map_or(0, |(_, v)| *v as u64),
    ]
}

/// Worker tracks of `obs`'s journal that built a posted tree.
fn builders(obs: &Obs) -> BTreeSet<String> {
    let events = obs.journal.drain();
    events.iter().filter(|e| e.name == "build").map(|e| e.thread.to_string()).collect()
}

#[test]
fn a_round_whose_largest_task_is_most_of_its_work_is_worker_count_invariant() {
    let dir = tmp("session");
    collect(&dir);
    let session = SessionDir::new(&dir);

    let mut seen: Option<(Vec<String>, [u64; 9], [u64; 9])> = None;
    for workers in [1, 2, 4] {
        let (batch_obs, live_obs) = (Obs::new(), Obs::new());
        let config = AnalysisConfig::default().with_workers(workers);
        let batch = analyze(&session, &config.clone().with_obs(batch_obs.clone())).expect("batch");
        let tag = format!("replay-{workers}");
        let live = staged_replay(&session, &tag, &config.with_obs(live_obs.clone()));

        assert!(!batch.races.is_empty(), "the norm store races");
        let chains = evidence(&session, &batch);
        assert_eq!(evidence(&session, &live), chains, "live vs batch at {workers} workers");
        let (b, l) = (counters(&batch, &batch_obs), counters(&live, &live_obs));
        // The report and the comparison effort do not depend on the cut.
        assert_eq!(b[4..8], l[4..8], "compare counters, live vs batch at {workers} workers");
        assert_eq!(b[3], l[3], "tasks, live vs batch");
        match &seen {
            None => seen = Some((chains, b, l)),
            Some((chains1, b1, l1)) => {
                assert_eq!(&chains, chains1, "evidence at {workers} workers vs 1");
                assert_eq!(&b, b1, "batch counters at {workers} workers vs 1");
                assert_eq!(&l, l1, "live counters at {workers} workers vs 1");
            }
        }

        // Each poll's gather task, and batch's, took the shared path
        // whenever the round had a second worker.
        for (mode, obs) in [("batch", &batch_obs), ("live", &live_obs)] {
            let built = builders(obs);
            if workers == 1 {
                assert!(built.is_empty(), "{mode}: one worker posts nothing: {built:?}");
            } else {
                assert!(!built.is_empty(), "{mode} at {workers} workers posted no build");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
