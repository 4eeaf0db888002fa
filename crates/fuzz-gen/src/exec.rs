//! The schedule-pinned interpreter: replays a generated program on an
//! `ompsim` runtime, attributing every access to its statement's virtual
//! PC and taking sequencer turns in the oracle plan's ticket order.
//!
//! Each thread pops its vid's op list as it walks the AST, asserting that
//! the statement and element it is about to touch match what the oracle
//! planned — so a walk disagreement between oracle and runtime (chunking,
//! sections mapping, slot identity) fails loudly instead of silently
//! skewing verdicts.

use sword_ompsim::{Ctx, DepMode, OmpSim, OrderedLoop, Sequencer, TrackedBuf};
use sword_trace::{AccessKind, PcId};

use crate::oracle::{Plan, PlannedAccess, ThreadOp};
use crate::program::{Access, DepKind, Program, Region, Sched, Stmt, TaskBlock, SITE_FILE};

/// The `ompsim` named-lock name for generated lock id `lock`.
pub fn lock_name(lock: u32) -> String {
    format!("L{lock}")
}

/// Runs `prog` on `sim` (with whatever tool is attached) under `plan`'s
/// pinned schedule. Panics on any oracle/runtime walk disagreement.
pub fn run_program(sim: &OmpSim, prog: &Program, plan: &Plan) {
    let sites = prog.max_id().map_or(0, |m| m + 1);
    let pcs: Vec<PcId> = (0..sites).map(|id| sim.intern_site(SITE_FILE, id + 1)).collect();
    // Pre-register locks in id order so `MutexId` assignment does not
    // depend on which critical section runs first.
    for lock in prog.locks() {
        let _ = sim.named_lock(&lock_name(lock));
    }
    let bufs: Vec<TrackedBuf<u64>> =
        prog.buffers.iter().map(|&len| sim.alloc::<u64>(len.max(1), 0)).collect();
    let seq = Sequencer::new();
    let env = Env { plan, pcs: &pcs, bufs: &bufs, seq: &seq };
    sim.run(|ctx| {
        let mut master = Cursor::new(0, &plan.per_vid[0]);
        for region in &prog.regions {
            exec_fork(ctx, region, &mut master, &env);
        }
        master.assert_done();
    });
    assert_eq!(seq.current(), plan.total_tickets, "sequencer did not drain the plan");
}

struct PoisonOnPanic<'a>(&'a Sequencer);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

struct Env<'a> {
    plan: &'a Plan,
    pcs: &'a [PcId],
    bufs: &'a [TrackedBuf<u64>],
    seq: &'a Sequencer,
}

/// One thread's position in its planned op list.
struct Cursor<'p> {
    vid: usize,
    ops: &'p [ThreadOp],
    pos: usize,
}

impl<'p> Cursor<'p> {
    fn new(vid: usize, ops: &'p [ThreadOp]) -> Self {
        Cursor { vid, ops, pos: 0 }
    }

    fn next_access(&mut self, a: &Access) -> PlannedAccess {
        match self.ops.get(self.pos) {
            Some(ThreadOp::Access(p)) if p.stmt == a.id => {
                self.pos += 1;
                *p
            }
            other => panic!(
                "vid {} op {}: runtime reached access s{} but the plan has {:?}",
                self.vid, self.pos, a.id, other
            ),
        }
    }

    fn next_task_create(&mut self) -> u64 {
        match self.ops.get(self.pos) {
            Some(&ThreadOp::TaskCreate { create_ticket }) => {
                self.pos += 1;
                create_ticket
            }
            other => panic!(
                "vid {} op {}: runtime reached a task creation but the plan has {:?}",
                self.vid, self.pos, other
            ),
        }
    }

    fn next_fork(&mut self) -> (usize, u64, u64) {
        match self.ops.get(self.pos) {
            Some(&ThreadOp::Fork { base_vid, fork_ticket, join_ticket }) => {
                self.pos += 1;
                (base_vid, fork_ticket, join_ticket)
            }
            other => panic!(
                "vid {} op {}: runtime reached a fork but the plan has {:?}",
                self.vid, self.pos, other
            ),
        }
    }

    fn assert_done(&self) {
        assert_eq!(
            self.pos,
            self.ops.len(),
            "vid {}: {} planned ops never executed",
            self.vid,
            self.ops.len() - self.pos
        );
    }
}

fn exec_fork(w: &Ctx<'_>, region: &Region, cur: &mut Cursor<'_>, env: &Env<'_>) {
    let (base_vid, fork_ticket, join_ticket) = cur.next_fork();
    // Hold the fork turn across tid acquisition: the new team's slot 0
    // advances it once the team exists, and the join turn is claimed only
    // after `parallel` returns (tids released). Sibling fork/join
    // lifecycles are thereby serialized, making pooled tid assignment the
    // deterministic function the oracle replays.
    env.seq.wait_for(fork_ticket);
    w.parallel(region.threads as usize, |c| {
        // If this thread dies mid-plan (walk assertion), poison the
        // turnstile so siblings blocked on later tickets drain and the
        // region's join can propagate the original panic instead of hanging.
        let _guard = PoisonOnPanic(env.seq);
        if c.team_index() == 0 {
            env.seq.advance();
        }
        let vid = base_vid + c.team_index() as usize;
        let mut cursor = Cursor::new(vid, &env.plan.per_vid[vid]);
        exec_body(c, &region.body, &mut cursor, env);
        cursor.assert_done();
    });
    env.seq.turn(join_ticket, || {});
}

fn exec_body(w: &Ctx<'_>, body: &[Stmt], cur: &mut Cursor<'_>, env: &Env<'_>) {
    for stmt in body {
        match stmt {
            Stmt::Access(a) => turn_access(w, a, 0, cur, env),
            Stmt::Barrier => w.barrier(),
            Stmt::For { n, nowait, sched, ordered, body } => {
                if *ordered {
                    // Body accesses run inside the ordered block: the
                    // runtime holds the loop's mutex around them, which
                    // is exactly what the oracle's synthetic ordered lock
                    // models. Ticket waits inside the turn are safe: the
                    // global ticket order is iteration order, which is
                    // the order the ordered protocol admits threads.
                    let run = &mut |i: u64, ol: &OrderedLoop, cur: &mut Cursor<'_>| {
                        w.ordered(ol, i, || {
                            for a in body {
                                turn_access(w, a, i, cur, env);
                            }
                        });
                    };
                    match sched {
                        Sched::Static => w.for_static_ordered(0..*n, |i, ol| run(i, ol, cur)),
                        Sched::Dynamic { chunk } => {
                            w.for_dynamic_pinned_ordered(0..*n, *chunk, |i, ol| run(i, ol, cur))
                        }
                        Sched::Guided { .. } => unreachable!("parser rejects guided ordered"),
                    }
                } else {
                    let run = &mut |i: u64, cur: &mut Cursor<'_>| {
                        for a in body {
                            turn_access(w, a, i, cur, env);
                        }
                    };
                    match sched {
                        Sched::Static if *nowait => w.for_static_nowait(0..*n, |i| run(i, cur)),
                        Sched::Static => w.for_static(0..*n, |i| run(i, cur)),
                        Sched::Dynamic { chunk } => {
                            w.for_dynamic_pinned(0..*n, *chunk, |i| run(i, cur))
                        }
                        Sched::Guided { min } => w.for_guided_pinned(0..*n, *min, |i| run(i, cur)),
                    }
                }
            }
            Stmt::Task(tb) => exec_task(w, tb, cur, env),
            Stmt::Taskwait => w.taskwait(),
            Stmt::Taskgroup { tasks } => w.taskgroup(|g| {
                for tb in tasks {
                    exec_task(g, tb, cur, env);
                }
            }),
            Stmt::Sections { count, body } => w.sections(*count as usize, |s| {
                for a in body {
                    turn_access(w, a, s as u64, cur, env);
                }
            }),
            Stmt::Master { body } => w.master(|| {
                for a in body {
                    turn_access(w, a, 0, cur, env);
                }
            }),
            Stmt::Single { nowait, body } => {
                let run = |cur: &mut Cursor<'_>| {
                    for a in body {
                        turn_access(w, a, 0, cur, env);
                    }
                };
                if *nowait {
                    w.single_nowait(|| run(cur));
                } else {
                    w.single(|| run(cur));
                }
            }
            Stmt::Critical { lock, body } => exec_critical(w, *lock, body, cur, env),
            Stmt::Nested(r) => exec_fork(w, r, cur, env),
        }
    }
}

fn exec_task(w: &Ctx<'_>, tb: &TaskBlock, cur: &mut Cursor<'_>, env: &Env<'_>) {
    let create_ticket = cur.next_task_create();
    let planned: Vec<PlannedAccess> = tb.body.iter().map(|a| cur.next_access(a)).collect();
    let deps: Vec<(u64, DepMode)> = tb
        .deps
        .iter()
        .map(|d| {
            let mode = match d.kind {
                DepKind::In => DepMode::In,
                DepKind::Out => DepMode::Out,
                DepKind::InOut => DepMode::InOut,
            };
            (d.var, mode)
        })
        .collect();
    // Hold the creation turn across the fresh-tid allocation inside
    // `task_depend`, releasing it at body entry — task tids then come off
    // the monotone counter in global ticket order, which is what the
    // oracle's pool simulation replays.
    env.seq.wait_for(create_ticket);
    w.task_depend(&deps, |t| {
        env.seq.advance();
        for (a, p) in tb.body.iter().zip(&planned) {
            let elem = checked_elem(t, a, 0, p, env);
            env.seq.turn(p.ticket, || raw_access(t, a, elem, env));
        }
    });
}

fn turn_access(w: &Ctx<'_>, a: &Access, var: u64, cur: &mut Cursor<'_>, env: &Env<'_>) {
    let p = cur.next_access(a);
    let elem = checked_elem(w, a, var, &p, env);
    env.seq.turn(p.ticket, || raw_access(w, a, elem, env));
}

fn exec_critical(w: &Ctx<'_>, lock: u32, body: &[Access], cur: &mut Cursor<'_>, env: &Env<'_>) {
    let planned: Vec<PlannedAccess> = body.iter().map(|a| cur.next_access(a)).collect();
    let name = lock_name(lock);
    let Some(first) = planned.first() else {
        w.critical(&name, || {});
        return;
    };
    // Wait for this thread's turn window BEFORE taking the lock: an
    // earlier-ticketed thread may still need the same lock, and taking it
    // while blocked on a later ticket would deadlock the turnstile.
    env.seq.wait_for(first.ticket);
    w.critical(&name, || {
        for (a, p) in body.iter().zip(&planned) {
            let elem = checked_elem(w, a, 0, p, env);
            raw_access(w, a, elem, env);
            env.seq.advance();
        }
    });
}

fn checked_elem(w: &Ctx<'_>, a: &Access, var: u64, p: &PlannedAccess, env: &Env<'_>) -> u64 {
    let len = env.bufs[a.buf as usize].len();
    let elem = a.index.eval(w.team_index(), var, len);
    assert_eq!(
        elem,
        p.elem,
        "s{} slot {}: runtime evaluated element {elem}, oracle planned {}",
        a.id,
        w.team_index(),
        p.elem
    );
    elem
}

fn raw_access(w: &Ctx<'_>, a: &Access, elem: u64, env: &Env<'_>) {
    let buf = &env.bufs[a.buf as usize];
    let pc = env.pcs[a.id as usize];
    match a.kind {
        AccessKind::Read => {
            let _ = w.read_pc(buf, elem, pc);
        }
        AccessKind::Write => w.write_pc(buf, elem, 1, pc),
        AccessKind::AtomicRead => {
            let _ = w.atomic_read_pc(buf, elem, pc);
        }
        AccessKind::AtomicWrite => w.atomic_write_pc(buf, elem, 1, pc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::gen::{generate, GenConfig};
    use crate::oracle;

    #[test]
    fn generated_programs_replay_cleanly_untooled() {
        for seed in 0..10u64 {
            let p = generate(seed, &GenConfig::default());
            let o = oracle::analyze(&p);
            let sim = OmpSim::new();
            run_program(&sim, &p, &o.plan);
        }
    }

    #[test]
    fn archer_verdicts_are_schedule_stable() {
        use archer_sim::{ArcherConfig, ArcherTool};
        let p = generate(23, &GenConfig::default());
        let o = oracle::analyze(&p);
        let run = || {
            let tool = Arc::new(ArcherTool::new(ArcherConfig::default()));
            let sim = OmpSim::with_tool(tool.clone());
            run_program(&sim, &p, &o.plan);
            let mut races: Vec<(u32, u32)> =
                tool.races().iter().map(|r| (r.pc_lo, r.pc_hi)).collect();
            races.sort_unstable();
            races
        };
        assert_eq!(run(), run(), "same plan must yield identical archer verdicts");
    }
}
