//! DataRaceBench-style tasking and rich-scheduling kernels.
//!
//! The tasking rows of the evaluation: explicit-task kernels in the style
//! of DataRaceBench's `taskdep*`/`taskdependmissing` family, plus
//! schedule-clause controls (`ordered`, guided) the loop suites don't
//! cover. Every kernel gates task creation to the master thread — the
//! idiom of the originals' `#pragma omp single` — so the ground truth is
//! creator-scoped and independent of team size.
//!
//! `-yes` kernels carry exactly one documented race (a missing depend
//! clause, taskwait, or taskgroup boundary); `-no` kernels restore the
//! synchronization and must stay silent under both detectors.

use sword_ompsim::{DepMode, OmpSim};

use crate::{Kernel, RunConfig, Suite, Workload, WorkloadSpec};

fn spec(
    name: &'static str,
    documented: usize,
    sword: usize,
    archer: Option<usize>,
    notes: &'static str,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        suite: Suite::DataRaceBench,
        documented_races: documented,
        sword_races: sword,
        archer_races: archer,
        notes,
    }
}

// ---- racy kernels ----------------------------------------------------------

fn taskdependmissing_yes(sim: &OmpSim, cfg: &RunConfig) {
    // Two sibling tasks update the shared scalar with no depend clauses:
    // nothing orders them, write-write race.
    let x = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            if w.team_index() == 0 {
                w.task_depend(&[], |t| {
                    t.write(&x, 0, 1);
                });
                w.task_depend(&[], |t| {
                    t.write(&x, 0, 2);
                });
                w.taskwait();
            }
        });
    });
}

fn taskwaitmissing_yes(sim: &OmpSim, cfg: &RunConfig) {
    // The producing task's result is consumed by the continuation with no
    // taskwait in between: write-read race.
    let x = sim.alloc::<i64>(1, 0);
    let out = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            if w.team_index() == 0 {
                w.task_depend(&[], |t| {
                    t.write(&x, 0, 42);
                });
                let v = w.read(&x, 0); // missing taskwait
                w.write(&out, 0, v);
                w.taskwait();
            }
        });
    });
}

fn taskgroupscope_yes(sim: &OmpSim, cfg: &RunConfig) {
    // taskgroup awaits only tasks created inside it: the sibling created
    // before the group is still in flight and races the group's task.
    let x = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            if w.team_index() == 0 {
                w.task_depend(&[], |t| {
                    t.write(&x, 0, 1);
                });
                w.taskgroup(|g| {
                    g.task_depend(&[], |t| {
                        t.write(&x, 0, 2);
                    });
                });
                w.taskwait();
            }
        });
    });
}

// ---- race-free controls ----------------------------------------------------

fn taskdep1_no(sim: &OmpSim, cfg: &RunConfig) {
    // depend(out: x) -> depend(in: x): the dependence edge orders the
    // producer before the consumer; taskwait covers the final read.
    let x = sim.alloc::<i64>(1, 0);
    let out = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            if w.team_index() == 0 {
                w.task_depend(&[(0, DepMode::Out)], |t| {
                    t.write(&x, 0, 42);
                });
                w.task_depend(&[(0, DepMode::In)], |t| {
                    let v = t.read(&x, 0);
                    t.write(&out, 0, v + 1);
                });
                w.taskwait();
                let _ = w.read(&out, 0);
            }
        });
    });
}

fn taskdepchain_no(sim: &OmpSim, cfg: &RunConfig) {
    // An out -> inout -> in chain over one dependence variable: every
    // conflicting pair is transitively ordered.
    let x = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            if w.team_index() == 0 {
                w.task_depend(&[(0, DepMode::Out)], |t| {
                    t.write(&x, 0, 1);
                });
                w.task_depend(&[(0, DepMode::InOut)], |t| {
                    let v = t.read(&x, 0);
                    t.write(&x, 0, v + 1);
                });
                w.task_depend(&[(0, DepMode::In)], |t| {
                    let _ = t.read(&x, 0);
                });
                w.taskwait();
            }
        });
    });
}

fn taskwait_no(sim: &OmpSim, cfg: &RunConfig) {
    // The taskwait the `-yes` variant is missing: producer task completes
    // before the continuation reads.
    let x = sim.alloc::<i64>(1, 0);
    let out = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            if w.team_index() == 0 {
                w.task_depend(&[], |t| {
                    t.write(&x, 0, 42);
                });
                w.taskwait();
                let v = w.read(&x, 0);
                w.write(&out, 0, v);
            }
        });
    });
}

fn taskgroup_no(sim: &OmpSim, cfg: &RunConfig) {
    // Fan-out inside a taskgroup over disjoint slots; the group end
    // awaits every child before the reduction read.
    let n = 4u64;
    let a = sim.alloc::<i64>(n, 0);
    let sum = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            if w.team_index() == 0 {
                w.taskgroup(|g| {
                    for i in 0..n {
                        g.task_depend(&[], |t| {
                            t.write(&a, i, i as i64 + 1);
                        });
                    }
                });
                let mut acc = 0;
                for i in 0..n {
                    acc += w.read(&a, i);
                }
                w.write(&sum, 0, acc);
            }
        });
    });
}

fn ordered_no(sim: &OmpSim, cfg: &RunConfig) {
    // An ordered static loop accumulating into one shared cell: the
    // ordered construct admits one iteration at a time, in order.
    let n = cfg.size_or(16);
    let a = sim.alloc::<i64>(n, 3);
    let sum = sim.alloc::<i64>(1, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            w.for_static_ordered(0..n, |i, ol| {
                let v = w.read(&a, i);
                w.ordered(ol, i, || {
                    let s = w.read(&sum, 0);
                    w.write(&sum, 0, s + v);
                });
            });
        });
    });
}

fn dynamicordered_no(sim: &OmpSim, cfg: &RunConfig) {
    // schedule(dynamic, 1) plus ordered: chunks land on arbitrary
    // threads, but the ordered region still serializes the shared update.
    let n = cfg.size_or(12);
    let hist = sim.alloc::<i64>(2, 0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            w.for_dynamic_pinned_ordered(0..n, 1, |i, ol| {
                w.ordered(ol, i, || {
                    let slot = i % 2;
                    let v = w.read(&hist, slot);
                    w.write(&hist, slot, v + 1);
                });
            });
        });
    });
}

fn guidedschedule_no(sim: &OmpSim, cfg: &RunConfig) {
    // Guided worksharing over disjoint elements: shrinking chunks never
    // overlap, so per-element updates are race-free.
    let n = cfg.size_or(64);
    let a = sim.alloc::<f64>(n, 1.0);
    sim.run(|ctx| {
        ctx.parallel(cfg.threads, |w| {
            w.for_guided_pinned(0..n, 2, |i| {
                let v = w.read(&a, i);
                w.write(&a, i, v * 0.5);
            });
        });
    });
}

/// The tasking/scheduling suite, `-yes` kernels first.
pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Kernel {
            spec: spec(
                "taskdependmissing-orig-yes",
                1,
                1,
                Some(1),
                "sibling tasks update a shared scalar with no depend clauses",
            ),
            run: taskdependmissing_yes,
        }),
        Box::new(Kernel {
            spec: spec(
                "taskwaitmissing-orig-yes",
                1,
                1,
                Some(1),
                "continuation consumes a task's result without taskwait",
            ),
            run: taskwaitmissing_yes,
        }),
        Box::new(Kernel {
            spec: spec(
                "taskgroupscope-orig-yes",
                1,
                1,
                Some(1),
                "pre-group sibling races the group's task: taskgroup only \
                 awaits tasks created inside it",
            ),
            run: taskgroupscope_yes,
        }),
        Box::new(Kernel {
            spec: spec(
                "taskdep1-orig-no",
                0,
                0,
                Some(0),
                "depend(out) -> depend(in) producer/consumer chain",
            ),
            run: taskdep1_no,
        }),
        Box::new(Kernel {
            spec: spec(
                "taskdepchain-orig-no",
                0,
                0,
                Some(0),
                "out -> inout -> in chain over one dependence variable",
            ),
            run: taskdepchain_no,
        }),
        Box::new(Kernel {
            spec: spec(
                "taskwait-orig-no",
                0,
                0,
                Some(0),
                "the taskwait restored before the consuming read",
            ),
            run: taskwait_no,
        }),
        Box::new(Kernel {
            spec: spec(
                "taskgroup-orig-no",
                0,
                0,
                Some(0),
                "taskgroup fan-out over disjoint slots, reduced after the group",
            ),
            run: taskgroup_no,
        }),
        Box::new(Kernel {
            spec: spec(
                "ordered-orig-no",
                0,
                0,
                Some(0),
                "ordered static loop accumulating into one shared cell",
            ),
            run: ordered_no,
        }),
        Box::new(Kernel {
            spec: spec(
                "dynamicordered-orig-no",
                0,
                0,
                Some(0),
                "schedule(dynamic,1) + ordered still serializes the shared update",
            ),
            run: dynamicordered_no,
        }),
        Box::new(Kernel {
            spec: spec(
                "guidedschedule-orig-no",
                0,
                0,
                Some(0),
                "guided worksharing over disjoint elements",
            ),
            run: guidedschedule_no,
        }),
    ]
}
