//! Differential testing of the happens-before engine.
//!
//! Random well-formed two-thread schedules (reads, writes, lock
//! acquire/release) are fed to the detector through its callback
//! interface in a fixed global order, and compared against an
//! independently-written oracle: a textbook vector-clock simulation for
//! the happens-before relation, plus the record-retention rule for which
//! prior access the engine can still see (two threads on one 8-byte word
//! never exceed the four shadow cells, so eviction plays no part).
//!
//! The engine must report a racy source pair **iff** the oracle finds a
//! conflicting, non-HB-ordered pair whose earlier access is still
//! recorded.

use std::collections::BTreeSet;
use std::sync::Arc;

use archer_sim::{ArcherConfig, ArcherTool};
use proptest::prelude::*;
use sword_ompsim::{ThreadContext, Tool, ToolLocal};
use sword_osl::Label;
use sword_trace::{AccessKind, MemAccess};

const WORD_ADDR: u64 = 0x1000;
const THREADS: u32 = 2;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Read,
    Write,
    Acquire(u32),
    Release(u32),
}

/// A feasibility-aware schedule generator: locks are acquired/released in
/// a globally consistent order (a lock is held by at most one thread).
fn arb_schedule() -> impl Strategy<Value = Vec<(u32, Op)>> {
    prop::collection::vec((0u32..THREADS, 0u8..8, 0u32..2), 0..40).prop_map(|raw| {
        let mut held: Vec<Option<u32>> = vec![None; 2]; // lock -> owner
        let mut schedule = Vec::new();
        for (tid, action, lock) in raw {
            let op = match action {
                0..=2 => Some(Op::Read),
                3 | 4 => Some(Op::Write),
                5 | 6 => {
                    // Acquire if the lock is free and not already held by us.
                    if held[lock as usize].is_none() {
                        held[lock as usize] = Some(tid);
                        Some(Op::Acquire(lock))
                    } else {
                        None
                    }
                }
                _ => {
                    if held[lock as usize] == Some(tid) {
                        held[lock as usize] = None;
                        Some(Op::Release(lock))
                    } else {
                        None
                    }
                }
            };
            if let Some(op) = op {
                schedule.push((tid, op));
            }
        }
        // Release any still-held locks so the schedule is well-formed.
        for (lock, owner) in held.iter().enumerate() {
            if let Some(tid) = owner {
                schedule.push((*tid, Op::Release(lock as u32)));
            }
        }
        schedule
    })
}

/// Distinct PC per (tid, op-kind) so pairs carry which sides raced.
fn pc_of(tid: u32, op: Op) -> u32 {
    match op {
        Op::Read => tid * 2,
        Op::Write => tid * 2 + 1,
        _ => unreachable!(),
    }
}

/// The oracle: textbook vector clocks + the retention rule.
fn oracle(schedule: &[(u32, Op)]) -> BTreeSet<(u32, u32)> {
    #[derive(Clone)]
    struct Rec {
        tid: u32,
        is_write: bool,
        epoch: u64,
        pc: u32,
    }
    let mut vc = vec![vec![0u64; THREADS as usize]; THREADS as usize];
    // Each thread's own component starts at 1 (thread birth).
    for (t, v) in vc.iter_mut().enumerate() {
        v[t] = 1;
    }
    let mut lock_vc: Vec<Option<Vec<u64>>> = vec![None; 2];
    let mut records: Vec<Rec> = Vec::new();
    let mut races = BTreeSet::new();

    let join = |a: &mut Vec<u64>, b: &[u64]| {
        for (x, y) in a.iter_mut().zip(b) {
            *x = (*x).max(*y);
        }
    };

    for &(tid, op) in schedule {
        let t = tid as usize;
        match op {
            Op::Acquire(l) => {
                if let Some(lvc) = &lock_vc[l as usize] {
                    let lvc = lvc.clone();
                    join(&mut vc[t], &lvc);
                }
                vc[t][t] += 1;
            }
            Op::Release(l) => {
                let cur = vc[t].clone();
                match &mut lock_vc[l as usize] {
                    Some(lvc) => join(lvc, &cur),
                    None => lock_vc[l as usize] = Some(cur),
                }
                vc[t][t] += 1;
            }
            Op::Read | Op::Write => {
                let is_write = op == Op::Write;
                let epoch = vc[t][t];
                let pc = pc_of(tid, op);
                // Check against retained records.
                for rec in &records {
                    if rec.tid != tid
                        && (rec.is_write || is_write)
                        && rec.epoch > vc[t][rec.tid as usize]
                    {
                        races.insert((pc.min(rec.pc), pc.max(rec.pc)));
                    }
                }
                // Retention mirrors the shadow word's slot rule: the
                // *first* same-thread slot the new access may replace (a
                // write replaces either kind, a read only a read) is
                // overwritten in place; otherwise a new slot is taken.
                let new_rec = Rec { tid, is_write, epoch, pc };
                match records.iter().position(|rec| rec.tid == tid && (is_write || !rec.is_write)) {
                    Some(i) => records[i] = new_rec,
                    None => records.push(new_rec),
                }
            }
        }
    }
    races
}

/// Feeds the same schedule to the real engine.
fn engine(schedule: &[(u32, Op)]) -> BTreeSet<(u32, u32)> {
    let tool = Arc::new(ArcherTool::new(ArcherConfig::default()));
    let labels: Vec<Label> =
        (0..THREADS).map(|i| Label::root().fork(i as u64, THREADS as u64)).collect();
    let tool_data: Vec<ToolLocal> = (0..THREADS).map(|_| ToolLocal::new()).collect();
    let ctx = |tid: u32| ThreadContext {
        tid,
        region: 0,
        parent_region: None,
        level: 1,
        team_index: tid as u64,
        span: THREADS as u64,
        bid: 0,
        label: &labels[tid as usize],
        tool_data: &tool_data[tid as usize],
    };
    for &(tid, op) in schedule {
        match op {
            Op::Acquire(l) => tool.mutex_acquired(&ctx(tid), l),
            Op::Release(l) => tool.mutex_released(&ctx(tid), l),
            Op::Read => tool
                .access(&ctx(tid), MemAccess::new(WORD_ADDR, 8, AccessKind::Read, pc_of(tid, op))),
            Op::Write => tool
                .access(&ctx(tid), MemAccess::new(WORD_ADDR, 8, AccessKind::Write, pc_of(tid, op))),
        }
    }
    tool.races().iter().map(|r| (r.pc_lo, r.pc_hi)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_vector_clock_oracle(schedule in arb_schedule()) {
        let expect = oracle(&schedule);
        let got = engine(&schedule);
        prop_assert_eq!(got, expect, "schedule: {:?}", schedule);
    }
}

#[test]
fn oracle_sanity_lock_edge_masks() {
    // t0: W, release L; t1: acquire L, W — HB-ordered, no race.
    let masked = vec![
        (0, Op::Write),
        (0, Op::Acquire(0)),
        (0, Op::Release(0)),
        (1, Op::Acquire(0)),
        (1, Op::Release(0)),
        (1, Op::Write),
    ];
    assert!(oracle(&masked).is_empty());
    assert!(engine(&masked).is_empty());

    // Without the lock hand-off, the same writes race.
    let racy = vec![(0, Op::Write), (1, Op::Write)];
    assert_eq!(oracle(&racy).len(), 1);
    assert_eq!(engine(&racy).len(), 1);
}
