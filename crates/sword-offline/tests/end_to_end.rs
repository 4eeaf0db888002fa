//! End-to-end pipeline tests: instrumented programs run under the SWORD
//! collector, then the offline analyzer must find exactly the planted
//! races — and nothing else.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use sword_obs::Obs;
use sword_offline::{analyze, AnalysisConfig, AnalysisResult, LiveAnalyzer};
use sword_ompsim::{DepMode, OmpSim, Sequencer, SimConfig};
use sword_runtime::{run_collected, SwordConfig};
use sword_trace::SessionDir;

fn session_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sword-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `program` collected, analyzes, cleans up, returns the result.
fn pipeline(tag: &str, program: impl FnOnce(&OmpSim)) -> AnalysisResult {
    pipeline_with(tag, AnalysisConfig::sequential(), program)
}

fn pipeline_with(
    tag: &str,
    config: AnalysisConfig,
    program: impl FnOnce(&OmpSim),
) -> AnalysisResult {
    let dir = session_dir(tag);
    run_collected(SwordConfig::new(&dir), SimConfig::default(), program).expect("collection");
    let result = analyze(&SessionDir::new(&dir), &config).expect("analysis");
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

#[test]
fn race_free_loop_is_clean() {
    let result = pipeline("clean", |sim| {
        let a = sim.alloc::<f64>(512, 1.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static(0..512, |i| {
                    let v = w.read(&a, i);
                    w.write(&a, i, v * 2.0);
                });
            });
        });
    });
    assert_eq!(result.race_count(), 0, "{:?}", result.races);
    assert!(result.stats.events > 0);
}

#[test]
fn paper_loop_carried_dependency_races() {
    // §III-B example: a[i] = a[i-1] with 2 threads — one read-write race
    // at the chunk boundary.
    let result = pipeline("loopdep", |sim| {
        let a = sim.alloc::<i64>(1000, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(1..1000, |i| {
                    let v = w.read(&a, i - 1);
                    w.write(&a, i, v);
                });
            });
        });
    });
    assert_eq!(result.race_count(), 1, "{:?}", result.races);
    let race = &result.races[0];
    assert_ne!(race.key.pc_lo, race.key.pc_hi, "read line vs write line");
}

#[test]
fn shared_counter_unprotected_races() {
    let result = pipeline("counter", |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                for _ in 0..32 {
                    let v = w.read(&c, 0);
                    w.write(&c, 0, v + 1);
                }
            });
        });
    });
    // read-write, write-write, and read/write-vs-same-line pairs collapse
    // to: (read,write) + (write,write) + (read,read is not a race) = 2.
    assert_eq!(result.race_count(), 2, "{:?}", result.races);
}

#[test]
fn critical_section_protects() {
    let result = pipeline("critical", |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                for _ in 0..32 {
                    w.critical("sum", || {
                        let v = w.read(&c, 0);
                        w.write(&c, 0, v + 1);
                    });
                }
            });
        });
    });
    assert_eq!(result.race_count(), 0, "{:?}", result.races);
}

#[test]
fn distinct_locks_do_not_protect() {
    // Classic bug: two threads protect the same variable with different
    // locks.
    let result = pipeline("two-locks", |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                let name = if w.team_index() == 0 { "lock_a" } else { "lock_b" };
                for _ in 0..16 {
                    w.critical(name, || {
                        let v = w.read(&c, 0);
                        w.write(&c, 0, v + 1);
                    });
                }
            });
        });
    });
    assert!(result.race_count() >= 1, "{:?}", result.races);
}

#[test]
fn atomics_do_not_race() {
    let result = pipeline("atomics", |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                for _ in 0..64 {
                    w.fetch_add(&c, 0, 1);
                }
            });
        });
    });
    assert_eq!(result.race_count(), 0, "{:?}", result.races);
}

#[test]
fn atomic_vs_plain_races() {
    let result = pipeline("atomic-plain", |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    for _ in 0..16 {
                        w.fetch_add(&c, 0, 1);
                    }
                } else {
                    for _ in 0..16 {
                        let v = w.read(&c, 0);
                        w.write(&c, 0, v + 1);
                    }
                }
            });
        });
    });
    // atomic-write vs plain-read and atomic-write vs plain-write (plus
    // plain read/write internal pair is same-thread → not reported).
    assert!(result.race_count() >= 2, "{:?}", result.races);
}

#[test]
fn barrier_separates_phases() {
    // Phase 1 writes a[i] by thread owner; phase 2 reads a[i+1] — without
    // the barrier this races, with it it does not.
    let racy = pipeline("phases-racy", |sim| {
        let a = sim.alloc::<f64>(256, 0.0);
        let b = sim.alloc::<f64>(256, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static_nowait(0..256, |i| {
                    w.write(&a, i, i as f64);
                });
                w.for_static_nowait(0..255, |i| {
                    let v = w.read(&a, i + 1);
                    w.write(&b, i, v);
                });
                w.barrier();
            });
        });
    });
    assert!(racy.race_count() >= 1, "nowait version must race: {:?}", racy.races);

    let clean = pipeline("phases-clean", |sim| {
        let a = sim.alloc::<f64>(256, 0.0);
        let b = sim.alloc::<f64>(256, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static(0..256, |i| {
                    w.write(&a, i, i as f64);
                });
                w.for_static(0..255, |i| {
                    let v = w.read(&a, i + 1);
                    w.write(&b, i, v);
                });
            });
        });
    });
    assert_eq!(clean.race_count(), 0, "{:?}", clean.races);
}

#[test]
fn disjoint_strided_accesses_do_not_race() {
    // Figure 4: even/odd element split — ranges overlap, addresses don't.
    let result = pipeline("strided", |sim| {
        let a = sim.alloc::<f64>(1024, 0.0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                let start = w.team_index(); // 0 or 1
                let mut i = start;
                while i < 1024 {
                    w.write(&a, i, i as f64);
                    i += 2;
                }
                w.barrier();
            });
        });
    });
    assert_eq!(result.race_count(), 0, "{:?}", result.races);
    assert!(result.stats.candidate_pairs > 0, "ranges must have collided coarsely");
    assert!(
        result.stats.solver_calls + result.stats.prescreened_pairs > 0,
        "the exact path must have decided"
    );
    assert!(
        result.stats.prescreened_pairs > 0,
        "even/odd strides occupy disjoint residues, so the fingerprint prescreen retires them"
    );
}

#[test]
fn nested_regions_race_across_teams() {
    // Figure 2's R2/R3: two inner regions under different outer threads
    // write the same location.
    let result = pipeline("nested", |sim| {
        let y = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.parallel(2, |inner| {
                    inner.write(&y, 0, inner.team_index());
                });
            });
        });
    });
    assert!(result.race_count() >= 1, "{:?}", result.races);
    assert!(result.stats.region_pairs_considered >= 1);
}

#[test]
fn nested_region_does_not_race_with_forker() {
    // A worker forks an inner team that writes x; after the join the
    // worker itself writes x. Fork/join orders these — no race, even
    // though they are in different regions.
    let result = pipeline("nested-seq", |sim| {
        let x = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(1, |w| {
                w.parallel(2, |inner| {
                    inner.master(|| {
                        inner.write(&x, 0, 1);
                    });
                });
                w.write(&x, 0, 2);
            });
        });
    });
    assert_eq!(result.race_count(), 0, "{:?}", result.races);
}

#[test]
fn hb_masked_schedule_is_still_caught() {
    // Figure 1(b): thread 0 writes `a` *before* taking the lock; thread 1
    // reads/writes `a` under the lock afterwards. The schedule creates a
    // happens-before path (lock release → acquire) that masks the race
    // from HB detectors; SWORD's offline analysis is schedule-insensitive
    // and must still flag it.
    let result = pipeline("hb-mask", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        let seq = Arc::new(Sequencer::new());
        sim.run(|ctx| {
            let seq = &seq;
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    seq.turn(0, || {
                        w.write(&a, 0, 1); // unprotected write
                    });
                    seq.turn(1, || {
                        w.critical("l", || {}); // release lock after write
                    });
                } else {
                    seq.wait_for(2);
                    w.critical("l", || {
                        let v = w.read(&a, 0);
                        w.write(&a, 0, v + 1);
                    });
                }
            });
        });
    });
    // write(a) vs read(a) and write(a) vs write(a): 2 distinct line pairs.
    assert_eq!(result.race_count(), 2, "{:?}", result.races);
}

#[test]
fn target_region_races_are_caught() {
    // The paper's future-work extension: a synchronous offload region.
    // Races *inside* the device team are caught; host work after the
    // offload is join-ordered against it.
    let result = pipeline("target", |sim| {
        let d = sim.alloc::<f64>(64, 0.0);
        let acc = sim.alloc::<f64>(1, 0.0);
        sim.run(|ctx| {
            ctx.parallel(2, |host| {
                host.single_nowait(|| {
                    host.target(4, |dev| {
                        // Device threads race on the accumulator.
                        dev.for_static(0..64, |i| {
                            let v = dev.read(&d, i);
                            dev.write(&d, i, v + 1.0);
                        });
                        let v = dev.read(&acc, 0);
                        dev.write(&acc, 0, v + 1.0);
                    });
                    // Host touches the same data after the offload joined:
                    // ordered, no race with the device team.
                    let _ = host.read(&acc, 0);
                });
                host.barrier();
            });
        });
    });
    // (R acc, W acc) and (W acc, W acc) inside the device team only.
    assert_eq!(result.race_count(), 2, "{:?}", result.races);
}

#[test]
fn racy_sibling_tasks_race() {
    // Two independent sibling tasks write the same cell: their labels
    // diverge at the task-fork pair and no depend edge orders them.
    let result = pipeline("task-sibling", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task(|t| {
                        t.write(&a, 0, 1);
                    });
                    w.task(|t| {
                        t.write(&a, 0, 2);
                    });
                    w.taskwait();
                });
                w.barrier();
            });
        });
    });
    assert!(result.race_count() >= 1, "{:?}", result.races);
}

#[test]
fn depend_chain_orders_tasks() {
    // out → in → inout on the same variable: the dependence graph is a
    // chain, so the bodies never race even though their labels diverge.
    let result = pipeline("task-depchain", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task_depend(&[(0, DepMode::Out)], |t| {
                        t.write(&a, 0, 1);
                    });
                    w.task_depend(&[(0, DepMode::In)], |t| {
                        let _ = t.read(&a, 0);
                    });
                    w.task_depend(&[(0, DepMode::InOut)], |t| {
                        let v = t.read(&a, 0);
                        t.write(&a, 0, v + 1);
                    });
                    w.taskwait();
                });
                w.barrier();
            });
        });
    });
    assert_eq!(result.race_count(), 0, "{:?}", result.races);
}

#[test]
fn taskwait_orders_task_against_continuation() {
    // Without taskwait the creator's continuation races with the task it
    // just spawned; with taskwait the write is ordered after the body.
    let racy = pipeline("task-nowait", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task(|t| {
                        t.write(&a, 0, 1);
                    });
                    w.write(&a, 0, 2); // continuation: concurrent with the task
                    w.taskwait();
                });
                w.barrier();
            });
        });
    });
    assert!(racy.race_count() >= 1, "{:?}", racy.races);

    let clean = pipeline("task-wait", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task(|t| {
                        t.write(&a, 0, 1);
                    });
                    w.taskwait();
                    w.write(&a, 0, 2); // ordered after the drained task
                });
                w.barrier();
            });
        });
    });
    assert_eq!(clean.race_count(), 0, "{:?}", clean.races);
}

#[test]
fn taskgroup_orders_group_but_not_outside_tasks() {
    // A write after taskgroup-end is ordered against the group's tasks,
    // but a task created *before* the group is still outstanding — the
    // group end does not wait for it.
    let clean = pipeline("taskgroup-clean", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.taskgroup(|w| {
                        w.task(|t| {
                            t.write(&a, 0, 1);
                        });
                    });
                    w.write(&a, 0, 2); // ordered after the group's task
                });
                w.barrier();
            });
        });
    });
    assert_eq!(clean.race_count(), 0, "{:?}", clean.races);

    let racy = pipeline("taskgroup-outside", |sim| {
        let a = sim.alloc::<u64>(1, 0);
        let b = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task(|t| {
                        t.write(&a, 0, 1); // outside the group
                    });
                    w.taskgroup(|w| {
                        w.task(|t| {
                            t.write(&b, 0, 1);
                        });
                    });
                    w.write(&a, 0, 2); // races with the pre-group task
                    w.taskwait();
                });
                w.barrier();
            });
        });
    });
    assert!(racy.race_count() >= 1, "{:?}", racy.races);
}

#[test]
fn dynamic_schedule_chunk_boundaries() {
    // Disjoint per-iteration accesses stay clean under dynamic
    // scheduling; a loop-carried dependency races at chunk boundaries
    // owned by different threads.
    let clean = pipeline("dyn-clean", |sim| {
        let a = sim.alloc::<f64>(256, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_dynamic_pinned(0..256, 16, |i| {
                    let v = w.read(&a, i);
                    w.write(&a, i, v + 1.0);
                });
            });
        });
    });
    assert_eq!(clean.race_count(), 0, "{:?}", clean.races);

    let racy = pipeline("dyn-carried", |sim| {
        let a = sim.alloc::<i64>(256, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_dynamic_pinned(1..256, 16, |i| {
                    let v = w.read(&a, i - 1);
                    w.write(&a, i, v + 1);
                });
            });
        });
    });
    assert!(racy.race_count() >= 1, "{:?}", racy.races);
}

#[test]
fn guided_schedule_disjoint_is_clean() {
    let result = pipeline("guided-clean", |sim| {
        let a = sim.alloc::<f64>(512, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_guided_pinned(0..512, 8, |i| {
                    w.write(&a, i, i as f64);
                });
            });
        });
    });
    assert_eq!(result.race_count(), 0, "{:?}", result.races);
}

#[test]
fn ordered_clause_serializes_the_shared_update() {
    // The same accumulator update races under a plain nowait dynamic
    // loop, and is serialized (lock-protected, turn-ordered) under an
    // `ordered` region.
    let racy = pipeline("ordered-without", |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_dynamic_pinned(0..64, 4, |_i| {
                    let v = w.read(&c, 0);
                    w.write(&c, 0, v + 1);
                });
            });
        });
    });
    assert!(racy.race_count() >= 1, "{:?}", racy.races);

    let clean = pipeline("ordered-with", |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static_ordered(0..64, |i, ol| {
                    w.ordered(ol, i, || {
                        let v = w.read(&c, 0);
                        w.write(&c, 0, v + 1);
                    });
                });
            });
        });
    });
    assert_eq!(clean.race_count(), 0, "{:?}", clean.races);
}

#[test]
fn parallel_analysis_matches_sequential() {
    let make = |tag: &str, cfg: AnalysisConfig| {
        pipeline_with(tag, cfg, |sim| {
            let a = sim.alloc::<i64>(2000, 0);
            let c = sim.alloc::<u64>(1, 0);
            sim.run(|ctx| {
                ctx.parallel(4, |w| {
                    w.for_static(1..2000, |i| {
                        let v = w.read(&a, i - 1);
                        w.write(&a, i, v + 1);
                    });
                    let v = w.read(&c, 0);
                    w.write(&c, 0, v + 1);
                });
            });
        })
    };
    let seq = make("par-seq", AnalysisConfig::sequential());
    let par = make("par-par", AnalysisConfig::default().with_workers(8));
    let keys = |r: &AnalysisResult| -> Vec<_> { r.races.iter().map(|x| x.key).collect() };
    assert_eq!(keys(&seq), keys(&par));
    assert_eq!(seq.stats.events, par.stats.events);
    assert_eq!(seq.stats.trees_built, par.stats.trees_built);
}

#[test]
fn suppressions_silence_triaged_races() {
    // Two distinct racy cells; suppressing this test file's path hides
    // both, suppressing a non-matching pattern hides none.
    let program = |sim: &OmpSim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.write(&a, 0, w.team_index());
            });
        });
    };
    let dir = session_dir("suppress");
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| program(sim)).unwrap();
    let session = SessionDir::new(&dir);

    let unsuppressed = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    assert_eq!(unsuppressed.race_count(), 1);

    let miss = analyze(&session, &AnalysisConfig::sequential().with_suppression("no_such_file.rs"))
        .unwrap();
    assert_eq!(miss.race_count(), 1);
    assert_eq!(miss.stats.races_suppressed, 0);

    let hit =
        analyze(&session, &AnalysisConfig::sequential().with_suppression("end_to_end.rs")).unwrap();
    assert_eq!(hit.race_count(), 0);
    assert_eq!(hit.stats.races_suppressed, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_sessions_error_instead_of_panicking() {
    // A valid session, then three kinds of damage: truncated log, log
    // bytes corrupted, meta pointing past the end. The analyzer must
    // return io::Error in each case — never panic, never fabricate races.
    let dir = session_dir("corrupt");
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<f64>(2000, 0.0);
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                w.for_static(0..2000, |i| {
                    w.write(&a, i, i as f64);
                });
            });
        });
    })
    .unwrap();
    let session = SessionDir::new(&dir);
    assert!(analyze(&session, &AnalysisConfig::sequential()).is_ok(), "sane before damage");

    let tid0_log = session.thread_log(0).exists().then(|| session.thread_log(0));
    let victim = tid0_log.unwrap_or_else(|| session.thread_log(1));

    // 1. Truncate the log mid-frame.
    let original = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &original[..original.len() / 2]).unwrap();
    assert!(analyze(&session, &AnalysisConfig::sequential()).is_err(), "truncated log");

    // 2. Flip bytes inside the compressed payload.
    let mut corrupted = original.clone();
    let mid = corrupted.len() / 2;
    for b in &mut corrupted[mid..mid + 8.min(original.len() - mid)] {
        *b ^= 0xA5;
    }
    std::fs::write(&victim, &corrupted).unwrap();
    assert!(analyze(&session, &AnalysisConfig::sequential()).is_err(), "corrupt payload");

    // 3. Restore the log but damage the metadata to reference beyond EOF.
    std::fs::write(&victim, &original).unwrap();
    let meta_path = victim.with_extension("meta");
    let meta_text = std::fs::read_to_string(&meta_path).unwrap();
    let inflated = meta_text
        .lines()
        .map(|line| {
            let mut cols: Vec<String> = line.split('\t').map(str::to_string).collect();
            let size_idx = cols.len() - 1;
            cols[size_idx] = "999999999".to_string();
            cols.join("\t")
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&meta_path, inflated).unwrap();
    assert!(analyze(&session, &AnalysisConfig::sequential()).is_err(), "meta past EOF");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bid_past_u32_is_an_error_not_a_race() {
    // Thread 0 writes before the barrier and thread 1 after it: no race.
    // Damaging thread 1's row to bid 2^32 + (thread 0's bid) must not file
    // it into thread 0's barrier interval, where the two would compare
    // as concurrent.
    let dir = session_dir("bid-past-u32");
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<f64>(1, 0.0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    w.write(&a, 0, 1.0);
                }
                w.barrier();
                if w.team_index() == 1 {
                    w.write(&a, 0, 2.0);
                }
            });
        });
    })
    .unwrap();
    let session = SessionDir::new(&dir);
    let sane = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    assert_eq!(sane.race_count(), 0);
    let tids = session.thread_ids().unwrap();
    assert_eq!(tids.len(), 2);
    let rows = |tid| std::fs::read_to_string(session.thread_meta(tid)).unwrap();
    // Columns: pid, ppid, bid, offset, span, level, data_begin, size.
    let writing_bid = |text: &str| -> u64 {
        let row = text.lines().map(|l| l.split('\t').collect::<Vec<_>>()).find(|c| c[7] != "0");
        row.expect("a row with accesses")[2].parse().unwrap()
    };
    let (first, second) = (rows(tids[0]), rows(tids[1]));
    let damaged_bid = (1u64 << 32) + writing_bid(&first);
    let damaged: Vec<String> = second
        .lines()
        .map(|line| {
            let mut cols: Vec<String> = line.split('\t').map(str::to_string).collect();
            if cols[7] != "0" {
                cols[2] = damaged_bid.to_string();
            }
            cols.join("\t")
        })
        .collect();
    std::fs::write(session.thread_meta(tids[1]), damaged.join("\n") + "\n").unwrap();
    let err = analyze(&session, &AnalysisConfig::sequential()).map(|r| r.races.len());
    assert!(err.is_err(), "a damaged bid analyzed as {err:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn focus_regions_restricts_analysis() {
    // Two racy regions; focusing on one must report only its races (and
    // do strictly less work).
    let dir = session_dir("focus");
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        let b = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.write(&a, 0, w.team_index()); // region 0 race
            });
            ctx.parallel(2, |w| {
                w.write(&b, 0, w.team_index()); // region 1 race
            });
        });
    })
    .unwrap();
    let session = SessionDir::new(&dir);
    let all = analyze(&session, &AnalysisConfig::sequential()).unwrap();
    assert_eq!(all.race_count(), 2);
    let only_r1 =
        analyze(&session, &AnalysisConfig::sequential().with_focus_regions(vec![1])).unwrap();
    assert_eq!(only_r1.race_count(), 1);
    assert!(only_r1.stats.events < all.stats.events, "less log data streamed");
    let none =
        analyze(&session, &AnalysisConfig::sequential().with_focus_regions(vec![99])).unwrap();
    assert_eq!(none.race_count(), 0);
    assert_eq!(none.stats.tasks, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Registry rows of `obs`, by name.
fn registry_rows(obs: &Obs) -> BTreeMap<String, f64> {
    obs.registry.snapshot().into_iter().collect()
}

/// `stage`'s `metric` row.
fn stage_row(rows: &BTreeMap<String, f64>, metric: &str, stage: &str) -> f64 {
    rows[&format!("{metric}{{stage=\"{stage}\"}}")]
}

#[test]
fn task_samples_cover_the_build_and_compare_work() {
    // A gather whose two trees carry far more than 256 KiB of log each:
    // at two workers its task's builds are shared, and the task's sample
    // is still the sum of its builds and compares, wherever they ran.
    let n = 1u64 << 16;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let idx: Vec<u64> = (0..2 * n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (4 * n)
        })
        .collect();
    let obs = Obs::new();
    let config = AnalysisConfig::sequential().with_workers(2).with_obs(obs.clone());
    let result = pipeline_with("task-split", config, |sim| {
        let src = sim.alloc::<u64>(4 * n, 1);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static_nowait(0..2 * n, |i| {
                    w.read(&src, idx[i as usize]);
                })
            });
        });
    });
    assert_eq!((result.stats.tasks, result.stats.trees_built), (1, 2));
    let rows = registry_rows(&obs);
    assert_eq!(rows["sword_analyzer_task_nanos_count"], 1.0);
    // Every build belongs to one task, so the task samples cover the
    // tree-build and compare stages, builds of another worker included.
    let busy = |stage| stage_row(&rows, "sword_stage_busy_nanos", stage);
    let work = busy("tree-build") + busy("compare");
    let tasks = rows["sword_analyzer_task_nanos_sum"];
    assert!(tasks >= work, "task work {tasks} ns < stage work {work} ns");
    assert!(rows["sword_analyzer_task_nanos_max"] * 1e-9 <= result.stats.max_task_secs + 1e-9);
}

/// Collects `program` into a fresh session directory.
fn collect(tag: &str, program: impl FnOnce(&OmpSim)) -> SessionDir {
    let dir = session_dir(tag);
    run_collected(SwordConfig::new(&dir), SimConfig::default(), program).expect("collection");
    SessionDir::new(&dir)
}

/// Four threads over six barrier-separated phases: many tasks and trees.
fn phases(sim: &OmpSim) {
    let a = sim.alloc::<f64>(500, 0.0);
    sim.run(|ctx| {
        ctx.parallel(4, |w| {
            for _phase in 0..6 {
                w.for_static(0..500, |i| {
                    let v = w.read(&a, i);
                    w.write(&a, i, v + 1.0);
                });
            }
        });
    });
}

#[test]
fn stage_rows_agree_with_analysis_stats() {
    let session = collect("stage-rows", phases);
    let check = |mode: &str, obs: &Obs, result: &AnalysisResult| {
        let rows = registry_rows(obs);
        let s = &result.stats;
        let items = |stage| stage_row(&rows, "sword_stage_items_total", stage);
        assert_eq!(items("tree-build"), s.trees_built as f64, "{mode}: trees");
        assert_eq!(items("compare"), s.tree_pairs as f64, "{mode}: tree pairs");
        let bytes = stage_row(&rows, "sword_stage_bytes_total", "tree-build");
        assert_eq!(bytes, s.bytes_read as f64, "{mode}: bytes");
        assert!(s.trees_built > 0 && s.tree_pairs > 0, "{mode}: no work");
    };
    for workers in [1, 2] {
        let obs = Obs::new();
        let config = AnalysisConfig::sequential().with_workers(workers).with_obs(obs.clone());
        let result = analyze(&session, &config).expect("batch");
        check(&format!("batch at {workers} workers"), &obs, &result);
        let rows = registry_rows(&obs);
        assert_eq!(stage_row(&rows, "sword_stage_items_total", "discover"), 4.0, "threads");
    }
    let obs = Obs::new();
    let mut live = LiveAnalyzer::new(&session, &AnalysisConfig::sequential().with_obs(obs.clone()));
    assert!(live.poll().expect("poll").finished);
    let result = live.into_result().expect("live");
    check("live", &obs, &result);
    std::fs::remove_dir_all(session.path()).unwrap();
}

#[test]
fn a_failed_round_charges_every_stage_it_ran() {
    // A log damaged mid-payload fails its tree build inside the round:
    // the round's stage spans and rows must still describe one round, so
    // a shared registry's rows keep counting the same rounds.
    let session = collect("failed-round", phases);
    let victim = session.thread_log(1);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xA5;
    }
    std::fs::write(&victim, &bytes).unwrap();
    for workers in [1, 2] {
        let obs = Obs::new();
        let config = AnalysisConfig::sequential().with_workers(workers).with_obs(obs.clone());
        assert!(analyze(&session, &config).is_err(), "{workers} workers: damaged log");
        let events = obs.journal.drain();
        let spans = |stage: &str| events.iter().filter(|e| e.name == stage).count();
        assert_eq!(spans("pair-schedule"), 1, "{workers} workers: the round ran");
        assert_eq!(spans("dedup-report"), spans("pair-schedule"), "{workers} workers");
    }
    std::fs::remove_dir_all(session.path()).unwrap();
}

/// Two sessions, each analyzed alone into its own `Obs` and both into a
/// shared one: the three registries' rows, and the sessions.
fn shared_analyses(tag: &str) -> ([BTreeMap<String, f64>; 3], [SessionDir; 2]) {
    let first = collect(&format!("{tag}-a"), |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                let v = w.read(&c, 0);
                w.write(&c, 0, v + 1);
            });
        });
    });
    let second = collect(&format!("{tag}-b"), |sim| {
        let a = sim.alloc::<i64>(1000, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(1..1000, |i| {
                    let v = w.read(&a, i - 1);
                    w.write(&a, i, v);
                });
            });
        });
    });
    let run = |session: &SessionDir, obs: &Obs| {
        analyze(session, &AnalysisConfig::sequential().with_obs(obs.clone())).expect("analysis");
    };
    let (solo_a, solo_b, shared) = (Obs::new(), Obs::new(), Obs::new());
    run(&first, &solo_a);
    run(&second, &solo_b);
    run(&first, &shared);
    run(&second, &shared);
    ([registry_rows(&solo_a), registry_rows(&solo_b), registry_rows(&shared)], [first, second])
}

#[test]
fn a_shared_registry_adds_up_its_analyses() {
    let ([a, b, both], sessions) = shared_analyses("shared");
    let mut summed =
        vec!["sword_log_read_bytes".to_string(), "sword_solver_call_nanos_count".into()];
    summed.extend(both.keys().filter(|k| k.starts_with("sword_solver_tier{")).cloned());
    assert_eq!(summed.len(), 2 + 6);
    for row in &summed {
        assert_eq!(both[row], a[row] + b[row], "{row}");
    }
    let solves = "sword_solver_call_nanos_count";
    assert!(a[solves] > 0.0 && b[solves] > 0.0, "both analyses solve");
    let peak = "sword_analyzer_tree_mem_peak_bytes";
    assert!(both[peak] >= a[peak].max(b[peak]) && a[peak] > 0.0 && b[peak] > 0.0);
    for session in sessions {
        std::fs::remove_dir_all(session.path()).unwrap();
    }
}

#[test]
fn a_shared_registry_adds_up_its_site_rows() {
    // Site attribution is registry counters: the shared registry's
    // per-site and total rows are the two analyses' sums, and each
    // analysis credits sites of its own.
    let ([a, b, both], sessions) = shared_analyses("shared-sites");
    let sites = |rows: &BTreeMap<String, f64>| {
        rows.keys().filter(|k| k.starts_with("sword_site_")).cloned().collect::<Vec<_>>()
    };
    let row = |rows: &BTreeMap<String, f64>, key: &str| rows.get(key).copied().unwrap_or(0.0);
    let (in_a, in_b, in_both) = (sites(&a), sites(&b), sites(&both));
    assert!(in_a.iter().chain(&in_b).all(|k| in_both.contains(k)), "{in_both:?}");
    for key in &in_both {
        assert_eq!(both[key], row(&a, key) + row(&b, key), "{key}");
    }
    let per_site = |keys: &[String]| keys.iter().filter(|k| k.contains("{site=")).count();
    assert!(per_site(&in_a) > 0 && per_site(&in_b) > 0, "{in_a:?} {in_b:?}");
    let totals = ["scanned", "pairs", "solver_calls", "races"];
    for total in totals.map(|m| format!("sword_site_{m}_total")) {
        assert!(in_both.contains(&total), "{total}");
    }
    assert!(a["sword_site_races_total"] > 0.0 && b["sword_site_races_total"] > 0.0);
    for session in sessions {
        std::fs::remove_dir_all(session.path()).unwrap();
    }
}

/// Region-count scaling stress (the LULESH blow-up at larger scale).
/// Ignored by default — run with `cargo test -- --ignored`.
#[test]
#[ignore = "several-minute stress run; exercises O(regions^2) region classification"]
fn region_heavy_session_scales() {
    let result = pipeline_with("stress-regions", AnalysisConfig::default(), |sim| {
        let a = sim.alloc::<f64>(64, 0.0);
        sim.run(|ctx| {
            for _step in 0..5_000 {
                ctx.parallel(2, |w| {
                    w.for_static_nowait(0..64, |i| {
                        let v = w.read(&a, i);
                        w.write(&a, i, v + 1.0);
                    });
                });
            }
        });
    });
    assert_eq!(result.race_count(), 0);
    assert_eq!(result.stats.groups, 5_000);
    // All 12.5M sequential region pairs pruned by the fork-label check.
    assert_eq!(result.stats.region_pairs_skipped, 5_000u64 * 4_999 / 2);
    assert_eq!(result.stats.region_pairs_considered, 0);
}

#[test]
fn stats_are_coherent() {
    let result = pipeline("stats", |sim| {
        let a = sim.alloc::<f64>(300, 0.0);
        sim.run(|ctx| {
            ctx.parallel(3, |w| {
                w.for_static(0..300, |i| {
                    w.write(&a, i, 0.0);
                });
                w.for_static(0..300, |i| {
                    let _ = w.read(&a, i);
                });
            });
        });
    });
    let s = result.stats;
    assert_eq!(s.threads, 3);
    assert_eq!(s.groups, 3, "three barrier intervals");
    assert_eq!(s.barrier_intervals, 9);
    assert_eq!(s.events, 600);
    assert!(s.nodes <= s.events);
    assert!(s.bytes_read > 0);
    assert!(s.wall_secs > 0.0);
    assert!(s.max_task_secs <= s.wall_secs);
}

#[test]
fn obs_journals_every_stage_and_gauges_tree_memory() {
    // An instrumented analysis must journal every pipeline stage with
    // Offline-layer attribution, record solver latencies, and measure a
    // non-zero tree-memory peak through the registry's gauge.
    use sword_obs::Layer;

    let obs = Obs::new();
    let config = AnalysisConfig::sequential().with_obs(obs.clone());
    let result = pipeline_with("obs-stages", config.clone(), |sim| {
        let a = sim.alloc::<i64>(1000, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(1..1000, |i| {
                    let prev = w.read(&a, i - 1);
                    w.write(&a, i, prev + 1);
                });
            });
        });
    });
    assert_eq!(result.race_count(), 1);

    let events = obs.journal.drain();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.layer == Layer::Offline), "analyzer spans are Offline-layer");
    for stage in ["discover", "load-meta", "build-structure", "pair-schedule", "dedup-report"] {
        assert!(
            events.iter().any(|e| e.name == stage && e.dur_us.is_some()),
            "missing stage span {stage:?}"
        );
    }
    let work_span = events.iter().find(|e| e.name == "work").expect("a worker's share span");
    assert!(work_span.thread.starts_with("oa-worker-"), "got {:?}", work_span.thread);

    let snapshot: std::collections::BTreeMap<String, f64> =
        obs.registry.snapshot().into_iter().collect();
    assert_eq!(
        snapshot["sword_analyzer_task_nanos_count"], result.stats.tasks as f64,
        "every task is one histogram sample"
    );
    assert_eq!(
        snapshot["sword_solver_call_nanos_count"], result.stats.solver_calls as f64,
        "every exact solve lands in the latency histogram"
    );
    assert!(snapshot["sword_analyzer_tree_mem_peak_bytes"] > 0.0);
    assert_eq!(
        snapshot["sword_analyzer_tree_mem_bytes"], 0.0,
        "all trees released once analysis finishes"
    );
    // Every node a log builds packs: the row exists and reads 0.
    assert_eq!(snapshot["sword_analyzer_wide_nodes"], 0.0);
}

#[test]
fn a_small_ring_holds_an_analysis_of_many_tasks() {
    // The analyzer journals stages and worker shares, not tasks: 1,200
    // tasks fit a 64-event ring with nothing dropped. Each calling-thread
    // stage span is the measurement its registry rows were charged with.
    let session = collect("small-ring", |sim| {
        let a = sim.alloc::<u64>(2, 0);
        sim.run(|ctx| {
            for _ in 0..1200 {
                ctx.parallel(2, |w| w.write(&a, w.team_index(), 1));
            }
        });
    });
    for workers in [1, 2] {
        let obs = Obs::with_ring_capacity(64);
        let config = AnalysisConfig::sequential().with_workers(workers).with_obs(obs.clone());
        let result = analyze(&session, &config).expect("analysis");
        assert_eq!(result.stats.tasks, 1200, "one task per region");
        assert_eq!(obs.journal.dropped_events(), 0, "{workers} workers");
        let events = obs.journal.drain();
        let rows = registry_rows(&obs);
        let shares: f64 = events
            .iter()
            .filter(|e| e.name == "work")
            .map(|e| e.args.iter().find(|(k, _)| k == "tasks").expect("tasks arg").1)
            .sum();
        assert_eq!(shares, rows["sword_analyzer_task_nanos_count"], "the shares cover every task");
        assert_eq!(shares, 1200.0);
        assert_eq!(rows["sword_task_queue_wait_us_count"], 1200.0, "every task left the deques");
        assert_eq!(rows["sword_task_queue_depth"], 0.0);
        for stage in ["discover", "load-meta", "build-structure", "pair-schedule", "dedup-report"] {
            let spans: Vec<_> = events.iter().filter(|e| e.name == stage).collect();
            assert_eq!(spans.len(), 1, "{stage}: one span per stage and round");
            let span = spans[0];
            assert_eq!(&*span.thread, "analyzer", "{stage}");
            let busy_us = stage_row(&rows, "sword_stage_busy_nanos", stage) / 1e3;
            let dur = span.dur_us.expect("a span") as f64;
            assert!((dur - busy_us).abs() <= 1.0, "{stage}: span {dur} µs, row {busy_us} µs");
            let items = span.args.iter().find(|(k, _)| k == "items").expect("items arg").1;
            assert_eq!(items, stage_row(&rows, "sword_stage_items_total", stage), "{stage}");
        }
    }
    std::fs::remove_dir_all(session.path()).unwrap();
}

#[test]
fn uninstrumented_analysis_records_nothing() {
    // The default config must stay observability-free: no journal, no
    // registry, no gauges.
    let config = AnalysisConfig::sequential();
    assert!(config.obs.is_none());
    let result = pipeline_with("obs-off", config, |sim| {
        let a = sim.alloc::<i64>(100, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(0..100, |i| {
                    w.write(&a, i, 1);
                });
            });
        });
    });
    assert_eq!(result.race_count(), 0);
}

#[test]
fn truncated_region_table_is_a_clean_error_live_and_batch() {
    // Two sequential regions, then the region table cut to its first
    // record: rows of the second region have no fork label. Substituting
    // an empty one would make them prefix-related to everything and could
    // invent races; both drivers must refuse instead.
    let dir = session_dir("truncated-regions");
    run_collected(SwordConfig::new(&dir), SimConfig::default(), |sim| {
        let a = sim.alloc::<u64>(64, 0);
        sim.run(|ctx| {
            for _ in 0..2 {
                ctx.parallel(2, |w| w.for_static(0..64, |i| w.write(&a, i, 1)));
            }
        });
    })
    .expect("collection");
    let session = SessionDir::new(&dir);
    let table = std::fs::read_to_string(session.regions_path()).unwrap();
    assert_eq!(table.lines().count(), 2, "one record per region");
    std::fs::write(session.regions_path(), format!("{}\n", table.lines().next().unwrap())).unwrap();

    let config = AnalysisConfig::sequential();
    let mut live = sword_offline::LiveAnalyzer::new(&session, &config);
    let err = live.poll().expect_err("live poll over a truncated region table");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("absent from the region table"), "{err}");
    let err = analyze(&session, &config).expect_err("batch over a truncated region table");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
