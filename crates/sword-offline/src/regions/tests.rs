//! The region index against the all-pairs enumeration it replaced, kept
//! here as the slow, obviously-correct reference.

use std::collections::HashMap;

use proptest::prelude::*;
use sword_osl::{Label, Ordering, TASK_SPAN};
use sword_trace::{MetaRecord, PcTable, RegionRecord, SessionDir};

use super::RegionIndex;
use crate::intervals::{build_structure_with, Group, Structure, Task};
use crate::load::LoadedSession;
use crate::verdicts::VerdictCache;

/// Reference verdict of one region pair: `Some(true)` concurrent,
/// `Some(false)` prefix-related, `None` ordered.
fn classify(a: &Label, b: &Label) -> Option<bool> {
    let (short, long) =
        if a.depth() <= b.depth() { (a.pairs(), b.pairs()) } else { (b.pairs(), a.pairs()) };
    match a.compare_barrier_aware(b) {
        Ordering::Concurrent => Some(true),
        _ if long[..short.len()] == *short => Some(false),
        _ => None,
    }
}

/// Reference enumerator: the pre-index double loop over every region
/// pair. Returns `(tasks, skipped, considered)` for already-built groups.
fn enumerate_all_pairs(session: &LoadedSession, groups: &[Group]) -> (Vec<Task>, u64, u64) {
    let mut tasks: Vec<Task> = (0..groups.len())
        .filter(|&i| groups[i].members.len() > 1)
        .map(|group| Task::Intra { group })
        .collect();
    let mut region_groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, g) in groups.iter().enumerate() {
        region_groups.entry(g.pid).or_default().push(i);
    }
    let mut pids: Vec<u64> = region_groups.keys().copied().collect();
    pids.sort_unstable();
    let (mut skipped, mut considered) = (0, 0);
    for (pi, &p) in pids.iter().enumerate() {
        for &q in &pids[pi + 1..] {
            let (fp, fq) = (session.regions[&p].fork_label(), session.regions[&q].fork_label());
            let Some(all_concurrent) = classify(&fp, &fq) else {
                skipped += 1;
                continue;
            };
            considered += 1;
            for &a in &region_groups[&p] {
                for &b in &region_groups[&q] {
                    tasks.push(Task::Cross { a, b, all_concurrent });
                }
            }
        }
    }
    (tasks, skipped, considered)
}

/// `tasks` as a sorted multiset.
fn sorted(tasks: &[Task]) -> Vec<(usize, usize, Option<bool>)> {
    let mut rows: Vec<_> = tasks
        .iter()
        .map(|t| match *t {
            Task::Intra { group } => (group, group, None),
            Task::Cross { a, b, all_concurrent } => (a, b, Some(all_concurrent)),
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// A session of regions `0..forks.len()`: region `p` has fork label
/// `forks[p]`, a team of `shape[p].0` threads and `shape[p].1` barrier
/// intervals.
fn session_of(forks: &[Label], shape: impl Fn(usize) -> (u64, u32)) -> LoadedSession {
    let mut regions = HashMap::new();
    let mut threads: Vec<(u32, Vec<MetaRecord>)> = Vec::new();
    for (p, fork) in forks.iter().enumerate() {
        let (pid, (team, bids)) = (p as u64, shape(p));
        let record = RegionRecord {
            pid,
            ppid: None,
            level: 1,
            span: team,
            fork_label: fork.to_flat(),
            deps: vec![],
        };
        regions.insert(pid, record);
        for t in 0..team {
            if threads.len() <= t as usize {
                threads.push((t as u32, Vec::new()));
            }
            for bid in 0..bids {
                let offset = t + bid as u64 * team;
                let row = MetaRecord {
                    pid,
                    ppid: None,
                    bid,
                    offset,
                    span: team,
                    level: 1,
                    data_begin: 0,
                    size: 0,
                };
                threads[t as usize].1.push(row);
            }
        }
    }
    LoadedSession { dir: SessionDir::new("/nonexistent"), threads, regions, pcs: PcTable::new() }
}

/// One label pair from a small alphabet, so random labels collide:
/// fork points, team slots with bumped generations, task pairs.
fn arb_pair() -> impl Strategy<Value = (u64, u64)> {
    prop_oneof![
        (0u64..3).prop_map(|seq| (seq, 1)),
        (2u64..4, 0u64..3, 0u64..3).prop_map(|(span, slot, gen)| (slot % span + gen * span, span)),
        (0u64..2).prop_map(|side| (side, TASK_SPAN)),
    ]
}

/// A forest of fork labels: each extends an earlier one (or the empty
/// label) by 0..3 pairs, giving nesting, siblings and duplicates.
fn arb_forest() -> impl Strategy<Value = Vec<Label>> {
    let region = (any::<prop::sample::Index>(), prop::collection::vec(arb_pair(), 0..3));
    prop::collection::vec(region, 1..24).prop_map(|regions| {
        let mut forks: Vec<Label> = Vec::new();
        for (base, extra) in regions {
            let base = base.index(forks.len() + 1);
            let mut chain: Vec<(u64, u64)> = forks
                .get(base)
                .map(|l| l.pairs().iter().map(|p| (p.offset, p.span)).collect())
                .unwrap_or_default();
            chain.extend(extra);
            forks.push(Label::from_chain(chain));
        }
        forks
    })
}

proptest! {
    #[test]
    fn index_matches_the_all_pairs_enumeration(forks in arb_forest(), seed in 0usize..7) {
        let cache = VerdictCache::default();
        let mut index = RegionIndex::new(&cache);
        for (p, fork) in forks.iter().enumerate() {
            index.insert(p as u64, fork);
        }
        for (p, fork) in forks.iter().enumerate() {
            let mut got = index.partners(p as u64);
            got.sort_unstable();
            let want: Vec<(u64, bool)> = (0..forks.len())
                .filter(|&q| q != p)
                .filter_map(|q| classify(fork, &forks[q]).map(|c| (q as u64, c)))
                .collect();
            prop_assert_eq!(got, want, "partners of region {} in {:?}", p, forks);
        }

        let shape = |p| (1 + ((p + seed) % 3) as u64, 1 + ((p * seed) % 2) as u32);
        let session = session_of(&forks, shape);
        let built = build_structure_with(&session, &cache).unwrap();
        let (tasks, skipped, considered) = enumerate_all_pairs(&session, &built.groups);
        // A round emits per touched region, the reference per region
        // pair: same tasks, another order (the scheduler re-sorts by file
        // position either way).
        prop_assert_eq!(sorted(&built.tasks), sorted(&tasks));
        prop_assert_eq!(built.region_pairs_skipped, skipped);
        prop_assert_eq!(built.region_pairs_considered, considered);
        prop_assert_eq!(cache.region_hits(), 0);
    }
}

/// What `rounds` — the session's rows, dealt into rounds — leave behind:
/// every member pair the rounds owed as `(tid, pid, bid)` identities
/// (sorted), the tasks counted in their first round, and the structure.
#[allow(clippy::type_complexity)]
fn owed_over_rounds(
    session: &LoadedSession,
    rounds: Vec<Vec<(u32, MetaRecord)>>,
) -> (Vec<[(u32, u64, u32); 2]>, usize, Structure) {
    let mut structure = Structure::new(&VerdictCache::default());
    let (mut pairs, mut tasks) = (Vec::new(), 0);
    for rows in rounds {
        let rows: Vec<_> = rows.into_iter().map(|(tid, row)| (tid, vec![row])).collect();
        structure.extend(&session.regions, &rows).unwrap();
        for task in &structure.tasks {
            tasks += structure.first_round_of(task) as usize;
            pairs.extend(structure.owed(task).into_iter().map(|(a, b)| {
                let mut pair = [a, b].map(|m| (m.tid, m.meta.pid, m.meta.bid));
                pair.sort_unstable();
                pair
            }));
        }
    }
    pairs.sort_unstable();
    (pairs, tasks, structure)
}

proptest! {
    #[test]
    fn any_cut_into_rounds_owes_each_pair_once(
        forks in arb_forest(),
        seed in 0usize..7,
        deal in prop::collection::vec(0usize..6, 1..64),
        rounds in 2usize..7,
    ) {
        let shape = |p| (1 + ((p + seed) % 3) as u64, 1 + ((p * seed) % 2) as u32);
        let session = session_of(&forks, shape);
        let rows: Vec<_> = session
            .threads
            .iter()
            .flat_map(|(tid, rows)| rows.iter().map(|row| (*tid, row.clone())))
            .collect();
        let (want, want_tasks, one) = owed_over_rounds(&session, vec![rows.clone()]);
        prop_assert_eq!(want_tasks, one.tasks.len(), "one round: every task is in its first");

        // Row `i` goes to round `deal[i % len] % rounds`: any subset, not
        // only prefixes, and some rounds stay empty.
        let mut cut = vec![Vec::new(); rounds];
        for (i, row) in rows.into_iter().enumerate() {
            cut[deal[i % deal.len()] % rounds].push(row);
        }
        let (got, got_tasks, many) = owed_over_rounds(&session, cut);
        let mut distinct = got.clone();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), got.len(), "a pair was owed twice");
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_tasks, want_tasks);
        prop_assert_eq!(many.groups.len(), one.groups.len());
        prop_assert_eq!(many.region_pairs_considered, one.region_pairs_considered);
        prop_assert_eq!(many.region_pairs_skipped, one.region_pairs_skipped);
    }
}

/// `R` sequential top-level regions (LULESH's shape): the index orders
/// all `R(R−1)/2` pairs without enumerating them.
fn sequential_regions_scale(r: u64) {
    let forks: Vec<Label> = (0..r).map(|k| Label::from_chain([(0, 1), (k, 1)])).collect();
    let session = session_of(&forks, |_| (2, 1));
    let cache = VerdictCache::default();
    let built = build_structure_with(&session, &cache).unwrap();
    assert_eq!(built.region_pairs_skipped, r * (r - 1) / 2);
    assert_eq!(built.region_pairs_considered, 0);
    assert_eq!(built.tasks.len() as u64, r, "one intra task per region, no cross task");
    assert!(
        cache.region_misses() <= 8 * r,
        "{} classifications for {r} regions",
        cache.region_misses()
    );
}

#[test]
fn sequential_regions_are_ordered_in_linear_work() {
    sequential_regions_scale(1_000);
    sequential_regions_scale(10_000);
    // The paper's LULESH scale; the debug profile stops at 10⁴.
    if !cfg!(debug_assertions) {
        sequential_regions_scale(100_000);
        sequential_regions_scale(300_000);
    }
}

#[test]
fn verdict_classes_at_one_node() {
    // Under [0,1]: team slots [0,2] / [1,2] (same generation), the
    // post-barrier slot [2,2], a 3-wide team slot, and a nested region.
    let forks = [
        Label::from_chain([(0, 1), (0, 2)]),
        Label::from_chain([(0, 1), (1, 2)]),
        Label::from_chain([(0, 1), (2, 2)]),
        Label::from_chain([(0, 1), (0, 3)]),
        Label::from_chain([(0, 1), (0, 2), (0, 1)]),
        Label::from_chain([(0, 1)]),
    ];
    let mut index = RegionIndex::new(&VerdictCache::default());
    for (p, fork) in forks.iter().enumerate() {
        index.insert(p as u64, fork);
    }
    let mut of_zero = index.partners(0);
    of_zero.sort_unstable();
    // 1: other slot, same generation; 2: next generation → ordered, absent;
    // 3: other span; 4: descendant; 5: ancestor.
    assert_eq!(of_zero, [(1, true), (3, true), (4, false), (5, false)]);
    let partner_rows: usize = (0..forks.len() as u64).map(|p| index.partners(p).len()).sum();
    assert_eq!(partner_rows, 2 * 12, "of 15 pairs, 0–2, 1–2 and 4–2 are ordered");
    assert_eq!(index.pair_count(), 15);
}
