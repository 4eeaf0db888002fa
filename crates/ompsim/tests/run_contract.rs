//! The run contract of `Tool::access`: holding a context's accesses back
//! and delivering them as runs changes *when* a tool hears of an access,
//! never what it hears, in which order within the context, or under
//! which context.
//!
//! A recording tool runs each program twice, once asking for runs of 64
//! and once for the default of 1 (every access delivered alone, at the
//! moment it happens). Per thread id the two recordings must be the same
//! sequence of callbacks, accesses and `ThreadContext` snapshots. Thread
//! and region ids are a function of the program in every program below
//! (at most one thread at a time forks or creates tasks), so recordings
//! compare verbatim once site ids are replaced by source lines.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use sword_ompsim::{
    DepMode, MemAccess, MutexId, OmpSim, ParallelBeginInfo, RegionId, Sequencer, TaskCreateInfo,
    TaskUid, ThreadContext, ThreadId, Tool,
};

/// Everything a callback can read off a [`ThreadContext`], flattened.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Snapshot {
    tid: ThreadId,
    region: RegionId,
    parent_region: Option<RegionId>,
    level: u32,
    team_index: u64,
    span: u64,
    bid: u32,
    label: String,
}

impl Snapshot {
    fn of(ctx: &ThreadContext<'_>) -> Self {
        Snapshot {
            tid: ctx.tid,
            region: ctx.region,
            parent_region: ctx.parent_region,
            level: ctx.level,
            team_index: ctx.team_index,
            span: ctx.span,
            bid: ctx.bid,
            label: ctx.label.to_string(),
        }
    }
}

/// One entry of a thread's recording.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Heard {
    /// One access and the context its run was delivered under.
    Access(MemAccess, Snapshot),
    /// Any other per-context callback: its name (with its payload) and
    /// the context it carried for this thread.
    Callback(String, Snapshot),
    /// A fork-side callback, which carries no `ThreadContext`.
    Fork(String),
}

#[derive(Default)]
struct Recording {
    /// What each thread id heard, in order.
    heard: BTreeMap<ThreadId, Vec<Heard>>,
    /// Lengths of the runs each thread id was handed (not compared
    /// between the two recordings: it is what differs).
    run_lengths: BTreeMap<ThreadId, Vec<usize>>,
}

struct Recorder {
    max_run: usize,
    recording: Mutex<Recording>,
}

impl Recorder {
    fn note(&self, name: impl Into<String>, ctx: &ThreadContext<'_>) {
        let entry = Heard::Callback(name.into(), Snapshot::of(ctx));
        self.recording.lock().unwrap().heard.entry(ctx.tid).or_default().push(entry);
    }
}

impl Tool for Recorder {
    fn max_run(&self) -> usize {
        self.max_run
    }
    fn parallel_begin(&self, info: &ParallelBeginInfo<'_>) {
        let entry = Heard::Fork(format!(
            "parallel_begin region={} span={} fork_label={}",
            info.region, info.span, info.fork_label
        ));
        self.recording.lock().unwrap().heard.entry(info.fork_tid).or_default().push(entry);
    }
    fn parallel_end(&self, region: RegionId, fork_tid: ThreadId) {
        let entry = Heard::Fork(format!("parallel_end region={region}"));
        self.recording.lock().unwrap().heard.entry(fork_tid).or_default().push(entry);
    }
    fn thread_begin(&self, ctx: &ThreadContext<'_>) {
        self.note("thread_begin", ctx);
    }
    fn thread_end(&self, ctx: &ThreadContext<'_>) {
        self.note("thread_end", ctx);
    }
    fn barrier_begin(&self, ctx: &ThreadContext<'_>) {
        self.note("barrier_begin", ctx);
    }
    fn barrier_end(&self, ctx: &ThreadContext<'_>) {
        self.note("barrier_end", ctx);
    }
    fn task_create(&self, outer: &ThreadContext<'_>, info: &TaskCreateInfo<'_>) {
        self.note(format!("task_create uid={} preds={:?}", info.uid, info.preds), outer);
    }
    fn task_begin(&self, outer: &ThreadContext<'_>, task: &ThreadContext<'_>, uid: TaskUid) {
        self.note(format!("task_begin(outer) uid={uid}"), outer);
        self.note(format!("task_begin(task) uid={uid}"), task);
    }
    fn task_end(&self, task: &ThreadContext<'_>, outer: &ThreadContext<'_>, uid: TaskUid) {
        self.note(format!("task_end(task) uid={uid}"), task);
        self.note(format!("task_end(outer) uid={uid}"), outer);
    }
    fn task_sync(&self, restored: &ThreadContext<'_>, synced: &[TaskUid]) {
        self.note(format!("task_sync {synced:?}"), restored);
    }
    fn mutex_acquired(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
        self.note(format!("mutex_acquired {mutex}"), ctx);
    }
    fn mutex_released(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {
        self.note(format!("mutex_released {mutex}"), ctx);
    }
    fn access(&self, ctx: &ThreadContext<'_>, run: &[MemAccess]) {
        assert!(!run.is_empty() && run.len() <= self.max_run, "run of {}", run.len());
        let snapshot = Snapshot::of(ctx);
        let mut recording = self.recording.lock().unwrap();
        recording.run_lengths.entry(ctx.tid).or_default().push(run.len());
        let heard = recording.heard.entry(ctx.tid).or_default();
        heard.extend(run.iter().map(|a| Heard::Access(*a, snapshot.clone())));
    }
}

fn record(max_run: usize, program: impl Fn(&OmpSim)) -> Recording {
    let tool = Arc::new(Recorder { max_run, recording: Mutex::default() });
    let sim = OmpSim::with_tool(tool.clone());
    program(&sim);
    let mut recording = std::mem::take(&mut *tool.recording.lock().unwrap());
    // Site ids are handed out in order of first sight, which two threads
    // reaching two new sites at once decide between them: compare sites
    // by the line they stand for.
    let sites = sim.export_pcs();
    for entry in recording.heard.values_mut().flatten() {
        if let Heard::Access(access, _) = entry {
            access.pc = sites.resolve(access.pc).expect("interned site").line;
        }
    }
    recording
}

/// Records `program` under runs of 64 and of 1, checks the recordings
/// agree, and returns the run lengths the 64-run tool saw per thread.
fn same_either_way(program: impl Fn(&OmpSim)) -> BTreeMap<ThreadId, Vec<usize>> {
    let (runs, ones) = (record(64, &program), record(1, &program));
    assert!(ones.run_lengths.values().flatten().all(|&n| n == 1));
    assert_eq!(runs.heard.keys().collect::<Vec<_>>(), ones.heard.keys().collect::<Vec<_>>());
    for (tid, heard) in &runs.heard {
        let other = &ones.heard[tid];
        for (i, (a, b)) in heard.iter().zip(other).enumerate() {
            assert_eq!(a, b, "tid {tid}, entry {i}");
        }
        assert_eq!(heard.len(), other.len(), "tid {tid}");
    }
    runs.run_lengths
}

#[test]
fn static_loop_and_barrier() {
    let runs = same_either_way(|sim| {
        let a = sim.alloc::<u64>(400, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                w.for_static(0..400, |i| {
                    let v = w.read(&a, i);
                    w.write(&a, i, v + 1);
                });
                w.write(&a, w.team_index(), 7);
            });
        });
    });
    // 400 accesses per member, then the barrier cuts the run short; one
    // more before `thread_end`.
    assert_eq!(runs[&1], [64, 64, 64, 64, 64, 64, 16, 1]);
    assert_eq!(runs[&1], runs[&2]);
}

#[test]
fn critical_sections_inside_a_loop() {
    let runs = same_either_way(|sim| {
        let a = sim.alloc::<u64>(64, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                for i in 0..5 {
                    w.write(&a, 8 * w.team_index() + i, i);
                    w.critical("sum", || {
                        let v = w.read(&a, 63);
                        w.write(&a, 63, v + i);
                    });
                    w.read(&a, 8 * w.team_index() + i);
                }
            });
        });
    });
    // A mutex event ends the run on either side of it: the accesses
    // before the lock, inside it, and after it never share a run.
    assert_eq!(runs[&1], [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1]);
}

#[test]
fn tasks_with_accesses_in_creator_body_and_continuation() {
    let runs = same_either_way(|sim| {
        let a = sim.alloc::<u64>(1024, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                if w.team_index() != 0 {
                    return;
                }
                w.write(&a, 0, 1); // before the chain opens
                w.task(|t| (0..70).for_each(|i| t.write(&a, 100 + i, i)));
                w.write(&a, 1, 2); // continuation of the first task
                w.task_depend(&[(0, DepMode::Out)], |t| {
                    t.write(&a, 200, 1);
                    // Through the creator's context, from inside the body:
                    // still the creator's event, under the label it had.
                    w.write(&a, 2, 3);
                });
                w.task_depend(&[(0, DepMode::In)], |t| {
                    t.read(&a, 200);
                });
                w.write(&a, 3, 4);
                w.taskwait();
                w.write(&a, 4, 5); // restored label
                w.taskgroup(|g| {
                    g.write(&a, 5, 6);
                    g.task(|t| t.write(&a, 300, 1));
                    g.write(&a, 6, 7); // continuation inside the group
                });
                w.write(&a, 7, 8); // group-entry label again
                w.taskgroup(|g| g.write(&a, 8, 9)); // a group with no task
                w.write(&a, 9, 10);
            });
        });
    });
    // Worker 1 created every task; the first body (tid 3) outgrew a run.
    assert_eq!(runs[&3], [64, 6]);
    // The creator's runs end wherever its label is about to change: at
    // each creation, after a body that used its context, at the taskwait
    // and at either group's end — so the writes of elements 4 and 5
    // share a run (entering a group changes nothing), as do 7 and 8.
    assert_eq!(runs[&1], [1, 1, 1, 1, 2, 1, 2, 1]);
}

#[test]
fn nested_fork_inside_an_open_interval() {
    let runs = same_either_way(|sim| {
        let a = sim.alloc::<u64>(512, 0);
        sim.run(|ctx| {
            ctx.parallel(2, |w| {
                (0..3).for_each(|i| w.write(&a, 10 * w.team_index() + i, i));
                if w.team_index() == 0 {
                    w.parallel(2, |inner| {
                        (0..65)
                            .for_each(|i| inner.write(&a, 100 * (1 + inner.team_index()) + i, i));
                    });
                }
                (0..2).for_each(|i| w.write(&a, 10 * w.team_index() + 5 + i, i));
            });
        });
    });
    // The forking member's run goes out before `parallel_begin`; its
    // sibling's interval is never interrupted.
    assert_eq!(runs[&1], [3, 2]);
    assert_eq!(runs[&2], [5]);
    assert_eq!(runs[&3], [64, 1]);
}

#[test]
fn tails_of_fewer_exactly_and_one_more_than_a_run() {
    for (n, expected) in [(3u64, vec![3]), (64, vec![64]), (65, vec![64, 1]), (128, vec![64, 64])] {
        let runs = same_either_way(|sim| {
            let a = sim.alloc::<u64>(512, 0);
            sim.run(|ctx| {
                ctx.parallel(2, |w| (0..n).for_each(|i| w.write(&a, 256 * w.team_index() + i, i)));
            });
        });
        assert_eq!(runs[&1], expected, "{n} accesses before thread_end");
        assert_eq!(runs[&2], expected);
    }
}

#[test]
fn a_tool_that_keeps_the_default_hears_each_access_when_it_happens() {
    // Two threads take turns on a sequencer, one write per turn. A tool
    // whose state is order-sensitive across threads (ARCHER's shadow
    // cells; Figure 1's masking depends on it) must hear the writes in
    // the order they happened: delivery order = issue order.
    #[derive(Default)]
    struct Order(Mutex<Vec<u64>>);
    impl Tool for Order {
        fn access(&self, _: &ThreadContext<'_>, run: &[MemAccess]) {
            assert_eq!(run.len(), 1);
            self.0.lock().unwrap().push(run[0].addr);
        }
    }
    const TURNS: u64 = 40;
    let tool = Arc::new(Order::default());
    assert_eq!(tool.max_run(), 1);
    let sim = OmpSim::with_tool(tool.clone());
    let a = sim.alloc::<u64>(TURNS, 0);
    let turn = Sequencer::new();
    sim.run(|ctx| {
        ctx.parallel(2, |w| {
            for ticket in (w.team_index()..TURNS).step_by(2) {
                turn.wait_for(ticket);
                w.write(&a, ticket, ticket);
                turn.advance();
            }
        });
    });
    let heard = tool.0.lock().unwrap().clone();
    assert_eq!(heard, (0..TURNS).map(|i| a.addr_of(i)).collect::<Vec<_>>());
}
