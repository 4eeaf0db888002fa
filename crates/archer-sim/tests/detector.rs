//! Behavioural tests of the ARCHER baseline: correct HB propagation, and
//! the three paper-documented failure modes emerging from the engine.

use std::sync::Arc;

use archer_sim::{ArcherConfig, ArcherTool, EvictionPolicy};
use sword_ompsim::{OmpSim, Sequencer};

fn run_archer(config: ArcherConfig, program: impl FnOnce(&OmpSim)) -> Arc<ArcherTool> {
    let tool = Arc::new(ArcherTool::new(config));
    let sim = OmpSim::with_tool(tool.clone());
    program(&sim);
    tool
}

#[test]
fn clean_loop_no_races() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<f64>(512, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static(0..512, |i| {
                    let v = w.read(&a, i);
                    w.write(&a, i, v + 1.0);
                });
            });
        });
    });
    assert!(tool.races().is_empty(), "{:?}", tool.races());
    assert!(tool.stats().accesses > 0);
}

#[test]
fn unprotected_counter_races() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let c = sim.alloc::<u64>(1, 0);
        let seq = Sequencer::new();
        sim.run(|ctx| {
            let seq = &seq;
            ctx.parallel(2, |w| {
                // Interleave the two threads' accesses so neither thread's
                // records are all stale before the other looks.
                let base = w.team_index();
                for round in 0..4 {
                    seq.turn(round * 2 + base, || {
                        let v = w.read(&c, 0);
                        w.write(&c, 0, v + 1);
                    });
                }
            });
        });
    });
    assert!(!tool.races().is_empty());
}

#[test]
fn critical_sections_suppress_races() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                for _ in 0..64 {
                    w.critical("sum", || {
                        let v = w.read(&c, 0);
                        w.write(&c, 0, v + 1);
                    });
                }
            });
        });
    });
    assert!(tool.races().is_empty(), "{:?}", tool.races());
}

#[test]
fn barrier_creates_happens_before() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<f64>(128, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static(0..128, |i| {
                    w.write(&a, i, 1.0);
                });
                // Reads of neighbours after the barrier: ordered.
                w.for_static(0..127, |i| {
                    let _ = w.read(&a, i + 1);
                });
            });
        });
    });
    assert!(tool.races().is_empty(), "{:?}", tool.races());
}

#[test]
fn fork_join_creates_happens_before() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(64, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static_nowait(0..64, |i| {
                    w.write(&a, i, 1);
                });
            });
            // Second region re-reads everything: ordered by join+fork.
            ctx.parallel(4, |w| {
                w.for_static_nowait(0..64, |i| {
                    let _ = w.read(&a, i);
                });
            });
        });
    });
    assert!(tool.races().is_empty(), "{:?}", tool.races());
}

#[test]
fn atomics_do_not_race() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let c = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                for _ in 0..64 {
                    w.fetch_add(&c, 0, 1);
                }
            });
        });
    });
    assert!(tool.races().is_empty(), "{:?}", tool.races());
}

#[test]
fn figure1_interleaving_a_detected() {
    // Interleaving (a): thread 1 runs its locked section first, thread 0's
    // unprotected write comes later — no HB edge covers the pair.
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        let seq = Sequencer::new();
        sim.run(|ctx| {
            let seq = &seq;
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    seq.wait_for(1);
                    w.write(&a, 0, 1); // unprotected write AFTER t1's section
                    w.critical("l", || {});
                } else {
                    seq.turn(0, || {
                        w.critical("l", || {
                            let v = w.read(&a, 0);
                            w.write(&a, 0, v + 1);
                        });
                    });
                }
            });
        });
    });
    assert!(
        !tool.races().is_empty(),
        "interleaving (a) has no masking HB edge; the race must be caught"
    );
}

#[test]
fn figure1_interleaving_b_masked() {
    // Interleaving (b): thread 0 writes, then releases lock L; thread 1
    // acquires L afterwards and touches the same location. The
    // release→acquire edge orders the accesses — the race is masked.
    // (SWORD catches this same execution: see sword-offline's
    // `hb_masked_schedule_is_still_caught`.)
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        let seq = Sequencer::new();
        sim.run(|ctx| {
            let seq = &seq;
            ctx.parallel(2, |w| {
                if w.team_index() == 0 {
                    seq.turn(0, || {
                        w.write(&a, 0, 1); // unprotected write
                    });
                    seq.turn(1, || {
                        w.critical("l", || {}); // then release L
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
    assert!(
        tool.races().is_empty(),
        "the schedule-artifact HB edge masks the race from ARCHER: {:?}",
        tool.races()
    );
}

/// §II's shadow-eviction scenario, word-packing flavour: `a` is a `u32`
/// array, so `a[0]` and `a[1]` share one 8-byte shadow word. Thread 1
/// reads `a[0]`; then eight other threads read `a[1]` — byte-disjoint, so
/// no conflict, but each distinct (tid, range) takes a cell and the word
/// only has four. Thread 1's `a[0]` record is evicted. When thread 0
/// finally writes `a[0]`, the record of the genuinely racing read is gone
/// and the race is missed. The companion `control` run (no filler reads)
/// proves the detector would otherwise have caught it.
fn eviction_scenario(with_filler_readers: bool) -> Arc<ArcherTool> {
    run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u32>(2, 0);
        let seq = Sequencer::new();
        sim.run(|ctx| {
            let seq = &seq;
            ctx.parallel(10, |w| {
                let t = w.team_index();
                match t {
                    0 => {
                        // Writer goes last.
                        seq.turn(9, || {
                            w.write(&a, 0, 7);
                        });
                    }
                    1 => {
                        // The racing read goes first.
                        seq.turn(0, || {
                            let _ = w.read(&a, 0);
                        });
                    }
                    _ => {
                        // Filler readers of the *other* element in the
                        // same word.
                        seq.turn(t - 1, || {
                            if with_filler_readers {
                                let _ = w.read(&a, 1);
                            }
                        });
                    }
                }
            });
        });
    })
}

#[test]
fn shadow_eviction_hides_racing_read_record() {
    let control = eviction_scenario(false);
    assert_eq!(
        control.races().len(),
        1,
        "without cell pressure the write/read race is caught: {:?}",
        control.races()
    );
    let evicted = eviction_scenario(true);
    let stats = evicted.stats();
    assert!(stats.evictions >= 4, "cells must have overflowed: {}", stats.evictions);
    assert!(
        evicted.races().is_empty(),
        "the racing read's record was evicted before the write arrived: {:?}",
        evicted.races()
    );
}

/// §II on the two DataRaceBench kernels the paper discusses: ARCHER's
/// miss is not an unlucky victim choice. Round-robin eviction loses the
/// racing records every time, and random victims lose them for some seeds
/// — the race "can be missed".
#[test]
fn eviction_misses_the_section_ii_races() {
    use sword_workloads::{find_workload, RunConfig};
    let races = |name: &str, eviction: EvictionPolicy| {
        let w = find_workload(name).expect("workload exists");
        let tool = run_archer(ArcherConfig { eviction, ..Default::default() }, |sim| {
            w.execute(sim, &RunConfig::small())
        });
        tool.races().len()
    };
    for name in ["nowait-orig-yes", "privatemissing-orig-yes"] {
        let truth = find_workload(name).expect("workload exists").spec().sword_races;
        assert_eq!(races(name, EvictionPolicy::RoundRobin), 0, "{name}: round-robin hides all");
        let missed = (0..8u64)
            .filter(|seed| races(name, EvictionPolicy::Random(seed * 7 + 1)) < truth)
            .count();
        assert!(missed >= 1, "{name}: random eviction found all {truth} races in 8 of 8 seeds");
    }
}

#[test]
fn flush_shadow_reduces_memory() {
    let program = |sim: &OmpSim| {
        let a = sim.alloc::<f64>(4096, 0.0);
        let b = sim.alloc::<f64>(4096, 0.0);
        sim.run(|ctx| {
            ctx.parallel(4, |w| {
                w.for_static(0..4096, |i| {
                    w.write(&a, i, 1.0);
                });
            });
            ctx.parallel(4, |w| {
                w.for_static(0..4096, |i| {
                    w.write(&b, i, 1.0);
                });
            });
        });
    };
    let default = run_archer(ArcherConfig::default(), program);
    let low = run_archer(ArcherConfig { flush_shadow: true, ..Default::default() }, program);
    let d = default.stats();
    let l = low.stats();
    assert_eq!(l.flushes, 2);
    assert!(d.races == l.races);
    assert!(
        l.shadow_words < d.shadow_words,
        "flushing between regions must shrink live shadow: {} vs {}",
        l.shadow_words,
        d.shadow_words
    );
}

#[test]
fn shadow_grows_with_footprint_sword_like_bound_does_not() {
    // The core memory claim: ARCHER's modeled bytes scale with the
    // application's touched footprint.
    let run_with_len = |len: u64| {
        let tool = run_archer(ArcherConfig::default(), |sim| {
            let a = sim.alloc::<f64>(len, 0.0);
            sim.run(|ctx| {
                ctx.parallel(4, |w| {
                    w.for_static(0..len, |i| {
                        w.write(&a, i, 1.0);
                    });
                });
            });
        });
        tool.stats().modeled_tool_bytes
    };
    let small = run_with_len(1024);
    let big = run_with_len(8192);
    assert!(big > small * 6, "shadow must scale with footprint: {small} vs {big}");
    // 8192 f64 = 8192 words → modeled ≈ 8192 × 32.
    assert!(big >= 8192 * 32);
}

#[test]
fn node_budget_kills_run() {
    let tool =
        run_archer(ArcherConfig { node_budget: Some(1 << 20), ..Default::default() }, |sim| {
            // Baseline 512 KB; shadow pushes past 1 MB quickly.
            let a = sim.alloc::<f64>(65_536, 0.0);
            sim.run(|ctx| {
                ctx.sim();
                ctx.parallel(2, |w| {
                    w.for_static(0..65_536, |i| {
                        w.write(&a, i, 1.0);
                    });
                });
            });
        });
    // Tell it the baseline after the fact is too late for this test; the
    // budget is tight enough that shadow alone exceeds it.
    assert!(tool.is_oom(), "1 MB node cannot hold 2 MB of shadow cells");
    let stats = tool.stats();
    assert!(stats.accesses < 65_536 * 2, "detection stopped at the kill point");
}

#[test]
fn nested_regions_inherit_clocks() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(8, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                let t = w.team_index();
                w.write(&a, t, 1);
                w.parallel(2, |inner| {
                    // Each inner team only touches its forker's slot:
                    // ordered by the nested fork.
                    let _ = inner.read(&a, t);
                });
            });
        });
    });
    assert!(tool.races().is_empty(), "{:?}", tool.races());
}

#[test]
fn sibling_tasks_race_and_taskwait_orders() {
    // Two independent sibling tasks write the same cell: no HB edge
    // covers the pair even though the inline schedule serializes them.
    let racy = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task(|t| t.write(&a, 0, 1));
                    w.task(|t| t.write(&a, 0, 2));
                    w.taskwait();
                });
                w.barrier();
            });
        });
    });
    assert!(!racy.races().is_empty(), "sibling tasks have no ordering edge");

    // With a taskwait between them the second task's floor includes the
    // creator's post-sync clock, which has adopted the first body.
    let clean = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task(|t| t.write(&a, 0, 1));
                    w.taskwait();
                    w.task(|t| t.write(&a, 0, 2));
                    w.taskwait();
                });
                w.barrier();
            });
        });
    });
    assert!(clean.races().is_empty(), "{:?}", clean.races());
}

#[test]
fn depend_edges_create_happens_before() {
    use sword_ompsim::DepMode;
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task_depend(&[(0, DepMode::Out)], |t| t.write(&a, 0, 1));
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
    assert!(tool.races().is_empty(), "{:?}", tool.races());
}

#[test]
fn continuation_races_until_synced() {
    // The creator's continuation write is unordered against the task it
    // just spawned (no adoption at task_end) — caught. After a taskgroup
    // end the creator has adopted the body — clean.
    let racy = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.task(|t| t.write(&a, 0, 1));
                    w.write(&a, 0, 2);
                    w.taskwait();
                });
                w.barrier();
            });
        });
    });
    assert!(!racy.races().is_empty(), "continuation is concurrent with the task");

    let clean = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<u64>(1, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.master(|| {
                    w.taskgroup(|w| {
                        w.task(|t| t.write(&a, 0, 1));
                    });
                    w.write(&a, 0, 2);
                });
                w.barrier();
            });
        });
    });
    assert!(clean.races().is_empty(), "{:?}", clean.races());
}

#[test]
fn ordered_region_creates_happens_before() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
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
    assert!(tool.races().is_empty(), "turn order + lock VCs order the updates");
}

#[test]
fn stats_shape() {
    let tool = run_archer(ArcherConfig::default(), |sim| {
        let a = sim.alloc::<f64>(64, 0.0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(0..64, |i| {
                    w.write(&a, i, 0.0);
                });
            });
        });
    });
    let s = tool.stats();
    assert_eq!(s.accesses, 64);
    assert_eq!(s.shadow_words, 64);
    assert_eq!(s.peak_shadow_words, 64);
    assert_eq!(s.evictions, 0);
    assert!(!s.oom);
    assert!(s.modeled_tool_bytes >= 64 * 32);
}

#[test]
fn mem_gauge_tracks_modeled_memory_live_and_peak() {
    // The config's gauge must report exactly what the figures plot: its
    // peak equals modeled_total_bytes(), and a shadow flush (archer-low)
    // pulls the live value back down while the peak survives.
    let gauge = sword_obs::MemGauge::new();
    let config =
        ArcherConfig { flush_shadow: true, mem_gauge: gauge.clone(), ..Default::default() };
    let tool = run_archer(config, |sim| {
        let a = sim.alloc::<u64>(4096, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(0..4096, |i| {
                    w.write(&a, i, i);
                });
            });
        });
        // Second independent region: the flush between regions must have
        // dropped the live shadow charge before it refills.
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(0..8, |i| {
                    w.write(&a, i, i);
                });
            });
        });
    });
    let stats = tool.stats();
    assert!(stats.flushes >= 1, "archer-low flushed between regions");
    assert_eq!(gauge.peak(), stats.modeled_total_bytes(), "gauge peak is the figures' quantity");
    assert!(
        gauge.live() < gauge.peak(),
        "post-flush refill stays below the big region's peak ({} vs {})",
        gauge.live(),
        gauge.peak()
    );
}
