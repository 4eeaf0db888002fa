//! Concurrency reconstruction: barrier intervals, full offset-span
//! labels, interval groups, and the enumeration of comparison tasks.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io;

use sword_osl::{compare_chains_barrier_aware, Label, Ordering as OslOrdering, Pair};
use sword_trace::{MetaRecord, ThreadId};

use crate::load::LoadedSession;
use crate::regions::RegionIndex;
use crate::verdicts::VerdictCache;

/// One barrier interval of one thread. Its full label is derived from
/// the region table when needed ([`full_label_from`]), never stored: a
/// session holds one interval per meta row, and only cross-region pairs
/// and race evidence read a label.
#[derive(Clone, Debug)]
pub struct Interval {
    /// Owning thread (log file).
    pub tid: ThreadId,
    /// The Table-I row.
    pub meta: MetaRecord,
}

/// All barrier intervals of one `(pid, bid)` — the members are pairwise
/// concurrent (same region generation, different threads).
#[derive(Clone, Debug)]
pub struct Group {
    /// Region id.
    pub pid: u64,
    /// Barrier-interval id within the region.
    pub bid: u32,
    /// Its member count before the latest round (it shares the word
    /// `bid` leaves free).
    mark: u32,
    /// Member intervals, one per participating thread, each round's
    /// allocated at its exact count.
    pub members: Vec<Interval>,
}

/// A unit of comparison work for the analyzer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Task {
    /// Compare all member pairs within one group (same region & bid).
    Intra {
        /// Group index.
        group: usize,
    },
    /// Compare members across two groups of *different* regions.
    Cross {
        /// First group index.
        a: usize,
        /// Second group index.
        b: usize,
        /// When `true`, every cross pair is concurrent (the regions' fork
        /// labels already diverge); when `false`, each member pair must be
        /// checked with the barrier-aware label comparison (ancestor
        /// nesting).
        all_concurrent: bool,
    },
}

/// The reconstructed concurrency structure, grown by rounds.
///
/// [`Structure::extend`] files a round's barrier intervals into groups and
/// leaves in [`Structure::tasks`] exactly the tasks with a side the round
/// touched. A member pair is *owed* by the round its later interval
/// arrives in, so however a session is cut into rounds — all of it at
/// once, or one poll's worth at a time — every unordered pair is owed
/// exactly once. Whether two intervals may race is a property of their
/// labels, never of when their rows became durable.
#[derive(Debug)]
pub struct Structure {
    /// Interval groups, in order of first appearance (`(pid, bid)` order
    /// within a round).
    pub groups: Vec<Group>,
    /// Comparison tasks (group-level) of the latest round; after a single
    /// round over a whole session, every task.
    pub tasks: Vec<Task>,
    /// Region pairs skipped because their fork labels proved them
    /// sequential (whole cross products pruned).
    pub region_pairs_skipped: u64,
    /// Region pairs considered (tasks emitted).
    pub region_pairs_considered: u64,
    /// Per group: the lowest `data_begin` among its members.
    positions: Vec<u64>,
    /// Groups the latest round added a member to, in `(pid, bid)` order.
    touched: Vec<usize>,
    group_index: HashMap<(u64, u32), usize>,
    /// Group indices per region, in order of first appearance.
    region_groups: HashMap<u64, Vec<usize>>,
    /// Fork-label index over the regions that have a group.
    regions: RegionIndex,
}

/// Reconstructs one interval's full label from its meta row and the
/// region table.
///
/// A row whose region record is missing is `InvalidData`: without the
/// fork label the interval cannot be placed in the concurrency
/// structure, and guessing (an empty prefix) would make it look
/// root-level and falsely concurrent with everything — a truncated
/// region table must degrade to a clean error, never to invented races.
pub fn full_label(session: &LoadedSession, row: &MetaRecord) -> io::Result<Label> {
    full_label_from(&session.regions, row)
}

/// [`full_label`] against a bare region table (the live analyzer grows
/// its table incrementally, without a [`LoadedSession`]).
pub fn full_label_from(
    regions: &HashMap<u64, sword_trace::RegionRecord>,
    row: &MetaRecord,
) -> io::Result<Label> {
    // The region table's parser refuses odd-length labels and zero spans.
    let fork = &region_of(regions, row.pid)?.fork_label;
    let pairs = fork.chunks_exact(2).map(|pair| (pair[0], pair[1]));
    Ok(Label::from_chain(pairs.chain([(row.offset, row.span)])))
}

/// Region `pid`'s record, or `InvalidData` when it is absent (see
/// [`full_label`] for why nothing is substituted).
pub(crate) fn region_of(
    regions: &HashMap<u64, sword_trace::RegionRecord>,
    pid: u64,
) -> io::Result<&sword_trace::RegionRecord> {
    regions.get(&pid).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "meta row references region {pid} absent from the region table (truncated session?)"
            ),
        )
    })
}

/// Builds groups and comparison tasks from loaded meta-data: one round
/// of [`Structure::extend`] holding every interval.
pub fn build_structure(session: &LoadedSession) -> io::Result<Structure> {
    build_structure_with(session, &VerdictCache::default())
}

/// [`build_structure`] charging the region index's classification count
/// to `cache` ([`VerdictCache::region_misses`]).
pub fn build_structure_with(
    session: &LoadedSession,
    cache: &VerdictCache,
) -> io::Result<Structure> {
    let mut structure = Structure::new(cache);
    structure.extend(&session.regions, &session.threads)?;
    Ok(structure)
}

/// Every meta row of `rows` with its thread, thread by thread.
fn each_row(
    rows: &[(ThreadId, Vec<MetaRecord>)],
) -> impl Iterator<Item = (ThreadId, &MetaRecord)> + '_ {
    rows.iter().flat_map(|(tid, rows)| rows.iter().map(move |row| (*tid, row)))
}

impl Structure {
    /// An empty structure charging its region index's classification
    /// count to `cache`.
    pub(crate) fn new(cache: &VerdictCache) -> Structure {
        Structure {
            groups: Vec::new(),
            tasks: Vec::new(),
            region_pairs_skipped: 0,
            region_pairs_considered: 0,
            positions: Vec::new(),
            touched: Vec::new(),
            group_index: HashMap::new(),
            region_groups: HashMap::new(),
            regions: RegionIndex::new(cache),
        }
    }

    /// Opens a round: files `rows` (thread by thread, as a session or a
    /// poll lists them) into their `(pid, bid)` groups, and replaces
    /// [`Structure::tasks`] with the tasks that have a touched side — an
    /// `Intra` for every touched group of two or more members, a `Cross`
    /// for every group pair of two non-ordered regions with either group
    /// touched. A row whose region `regions` lacks ([`full_label`]) files
    /// nothing and leaves no tasks.
    ///
    /// The rows are read three times and never copied as a whole: once to
    /// check their regions, once to open and count their groups, once to
    /// file them, each group's new members into an allocation of exactly
    /// their count. New groups are numbered in `(pid, bid)` order and each
    /// group's new members sorted by `(tid, data_begin)`, so the structure
    /// does not depend on the order the rows were listed in.
    ///
    /// Region-pair pruning: for two distinct regions `P`, `Q`, all member
    /// labels share the regions' fork labels as prefixes, so
    ///
    /// * if the fork labels diverge (compare concurrent), *every* member
    ///   pair diverges identically → `Cross { all_concurrent: true }`
    ///   tasks, one per group pair;
    /// * if one fork label is a proper prefix of the other (ancestor
    ///   nesting), member verdicts vary → `Cross { all_concurrent: false }`
    ///   tasks with per-pair label checks;
    /// * otherwise the fork labels are barrier/join-ordered and so is
    ///   every member pair → the whole region pair is skipped.
    ///
    /// The first two classes come out of the `RegionIndex`, asked once
    /// per touched region; ordered pairs are never enumerated, only
    /// counted as the remainder.
    pub fn extend(
        &mut self,
        regions: &HashMap<u64, sword_trace::RegionRecord>,
        rows: &[(ThreadId, Vec<MetaRecord>)],
    ) -> io::Result<()> {
        for group in self.touched.drain(..) {
            let group = &mut self.groups[group];
            group.mark = group.members.len() as u32;
        }
        self.tasks.clear();
        for (_, row) in each_row(rows) {
            region_of(regions, row.pid)?;
        }

        // Open and count: `mark` runs ahead of `members.len()` by the
        // round's rows of the group until the members are reserved.
        let before = self.groups.len();
        for (_, row) in each_row(rows) {
            let next = self.groups.len();
            let group = *self.group_index.entry((row.pid, row.bid)).or_insert(next);
            if group == next {
                self.groups.push(Group {
                    pid: row.pid,
                    bid: row.bid,
                    mark: 0,
                    members: Vec::new(),
                });
            }
            let group_ref = &mut self.groups[group];
            if group < before && group_ref.mark as usize == group_ref.members.len() {
                self.touched.push(group);
            }
            group_ref.mark += 1;
        }
        // Number the new groups in `(pid, bid)` order; each region's new
        // groups are then one run.
        self.groups[before..].sort_unstable_by_key(|g| (g.pid, g.bid));
        self.positions.resize(self.groups.len(), u64::MAX);
        let mut run = before;
        while run < self.groups.len() {
            let pid = self.groups[run].pid;
            let end = run + self.groups[run..].iter().take_while(|g| g.pid == pid).count();
            let of_region = match self.region_groups.entry(pid) {
                Entry::Occupied(of_region) => of_region.into_mut(),
                Entry::Vacant(of_region) => {
                    self.regions.insert(pid, &region_of(regions, pid)?.fork_label());
                    of_region.insert(Vec::new())
                }
            };
            of_region.reserve_exact(end - run);
            for group in run..end {
                let g = &self.groups[group];
                self.group_index.insert((g.pid, g.bid), group);
                of_region.push(group);
            }
            run = end;
        }
        self.touched.extend(before..self.groups.len());
        let groups = &mut self.groups;
        self.touched.sort_unstable_by_key(|&group| (groups[group].pid, groups[group].bid));
        for &group in &self.touched {
            let group = &mut groups[group];
            let fresh = group.mark as usize - group.members.len();
            group.members.reserve_exact(fresh);
            group.mark = group.members.len() as u32;
        }

        // File.
        for (tid, row) in each_row(rows) {
            let group = self.group_index[&(row.pid, row.bid)];
            self.positions[group] = self.positions[group].min(row.data_begin);
            groups[group].members.push(Interval { tid, meta: row.clone() });
        }
        for &group in &self.touched {
            let group = &mut groups[group];
            group.members[group.mark as usize..].sort_by_key(|m| (m.tid, m.meta.data_begin));
        }

        // Members of one (pid, bid) are concurrent whenever the group has
        // more than one thread.
        let mut tasks: Vec<Task> = self
            .touched
            .iter()
            .filter(|&&group| self.groups[group].members.len() > 1)
            .map(|&group| Task::Intra { group })
            .collect();
        let touched = |group: usize| {
            let group = &self.groups[group];
            group.members.len() > group.mark as usize
        };
        // A region is new when its first group is; touched when any is.
        let new_region = |pid: u64| self.region_groups[&pid][0] >= before;
        let touched_region = |pid: u64| self.region_groups[&pid].iter().any(|&g| touched(g));
        let mut last = None;
        for &group in &self.touched {
            let p = self.groups[group].pid;
            if last.replace(p) == Some(p) {
                continue;
            }
            let p_new = new_region(p);
            for (q, all_concurrent) in self.regions.partners(p) {
                // A region pair is considered when its later region is
                // indexed (by the lower pid when both are new).
                if p_new && (p < q || !new_region(q)) {
                    self.region_pairs_considered += 1;
                }
                // Two touched regions meet once, from the lower pid.
                if q < p && touched_region(q) {
                    continue;
                }
                for &a in &self.region_groups[&p.min(q)] {
                    for &b in &self.region_groups[&p.max(q)] {
                        if touched(a) || touched(b) {
                            tasks.push(Task::Cross { a, b, all_concurrent });
                        }
                    }
                }
            }
        }
        self.tasks = tasks;
        self.region_pairs_skipped = self.regions.pair_count() - self.region_pairs_considered;
        Ok(())
    }

    /// The member pairs of `task` that the latest round owes: those with a
    /// side at or past its group's mark (the member count before the
    /// round), so each unordered pair is owed by exactly the round that
    /// brought its later interval. Label, thread and size filters are the
    /// caller's.
    pub(crate) fn owed(&self, task: &Task) -> Vec<(&Interval, &Interval)> {
        match *task {
            Task::Intra { group } => {
                let group = &self.groups[group];
                let members = &group.members;
                (group.mark as usize..members.len())
                    .flat_map(|j| members[..j].iter().map(move |ma| (ma, &members[j])))
                    .collect()
            }
            Task::Cross { a, b, .. } => {
                let (ga, gb) = (&self.groups[a], &self.groups[b]);
                let (old_a, new_a) = ga.members.split_at(ga.mark as usize);
                let (gb, new_b) = (&gb.members, &gb.members[gb.mark as usize..]);
                let new_side = new_a.iter().flat_map(|ma| gb.iter().map(move |mb| (ma, mb)));
                let old_side = old_a.iter().flat_map(|ma| new_b.iter().map(move |mb| (ma, mb)));
                new_side.chain(old_side).collect()
            }
        }
    }

    /// Log bytes of the intervals the latest round filed.
    pub(crate) fn fresh_bytes(&self) -> u64 {
        let fresh = |&group: &usize| {
            let group = &self.groups[group];
            &group.members[group.mark as usize..]
        };
        self.touched.iter().flat_map(fresh).map(|m| m.meta.size).sum()
    }

    /// The lowest `data_begin` among `group`'s members (the scheduler's
    /// file-position sort key).
    pub(crate) fn position(&self, group: usize) -> u64 {
        self.positions[group]
    }

    /// `true` when `task` exists for the first time in the latest round
    /// (`Intra`: its group just reached two members; `Cross`: the round
    /// created a group of it), so a sum over rounds counts each task once.
    pub(crate) fn first_round_of(&self, task: &Task) -> bool {
        match *task {
            Task::Intra { group } => self.groups[group].mark < 2,
            Task::Cross { a, b, .. } => self.groups[a].mark == 0 || self.groups[b].mark == 0,
        }
    }
}

/// Decides whether two intervals may race, per the barrier-aware
/// offset-span rule on their full labels (read in place from `regions`,
/// never built).
pub fn intervals_concurrent(
    regions: &HashMap<u64, sword_trace::RegionRecord>,
    a: &Interval,
    b: &Interval,
) -> io::Result<bool> {
    if a.tid == b.tid {
        return Ok(false);
    }
    let fork = |row: &MetaRecord| region_of(regions, row.pid).map(|r| &r.fork_label[..]);
    Ok(labels_concurrent(fork(&a.meta)?, a, fork(&b.meta)?, b))
}

/// [`intervals_concurrent`] for intervals of the regions whose flat fork
/// labels are `fa` and `fb` (or what [`unshared`] leaves of them): each
/// full label is that fork label followed by the row's own `(offset,
/// span)`, compared pair by pair in place.
pub(crate) fn labels_concurrent(fa: &[u64], a: &Interval, fb: &[u64], b: &Interval) -> bool {
    fn chain<'f>(fork: &'f [u64], row: &MetaRecord) -> impl Iterator<Item = Pair> + 'f {
        let own = Pair::new(row.offset, row.span);
        fork.chunks_exact(2).map(|pair| Pair::new(pair[0], pair[1])).chain([own])
    }
    a.tid != b.tid
        && compare_chains_barrier_aware(chain(fa, &a.meta), chain(fb, &b.meta))
            == OslOrdering::Concurrent
}

/// Two flat fork labels without the leading pairs they share: the labels
/// that extend them compare as they would whole, so a task comparing
/// many member pairs under the same two forks skips the shared prefix
/// once.
pub(crate) fn unshared<'f>(fa: &'f [u64], fb: &'f [u64]) -> (&'f [u64], &'f [u64]) {
    let shared = fa.chunks_exact(2).zip(fb.chunks_exact(2)).take_while(|(x, y)| x == y).count();
    (&fa[2 * shared..], &fb[2 * shared..])
}

/// `true` when `row` is an explicit task's body interval: the single row
/// a task pseudo-region's executing thread emits, labeled
/// `fork_label · [1, TASK_SPAN]`. Continuation rows carry offset 0 under
/// the same pseudo-region and are *not* task rows.
pub fn is_task_row(row: &MetaRecord) -> bool {
    row.span == sword_osl::TASK_SPAN && row.offset == 1
}

/// `true` when `a` and `b` are task-body intervals ordered by the task
/// dependence graph: one task's pseudo-region is reachable from the
/// other's over `depend` predecessor edges (in either direction).
///
/// Sibling tasks' labels diverge at their `[0/1, TASK_SPAN]` pairs and
/// compare concurrent — the dependence partial order layers *above* the
/// labels, exactly as the sequencer enforces it at run time. A task's
/// body cannot span a barrier, so ordering the two body rows is the
/// whole ordering.
pub fn dep_ordered(
    regions: &HashMap<u64, sword_trace::RegionRecord>,
    a: &Interval,
    b: &Interval,
) -> bool {
    if !is_task_row(&a.meta) || !is_task_row(&b.meta) {
        return false;
    }
    dep_search(regions, a.meta.pid, b.meta.pid).0 || dep_search(regions, b.meta.pid, a.meta.pid).0
}

/// DFS over `depend` predecessor edges: whether `to` is in `from`'s
/// dependence closure (i.e. `to`'s task completes before `from` starts),
/// and how many regions the search expanded — at most one expansion per
/// region of the closure.
fn dep_search(
    regions: &HashMap<u64, sword_trace::RegionRecord>,
    from: u64,
    to: u64,
) -> (bool, usize) {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack = vec![from];
    let mut expanded = 0;
    while let Some(pid) = stack.pop() {
        expanded += 1;
        for &dep in regions.get(&pid).map_or(&[][..], |r| &r.deps) {
            if dep == to {
                return (true, expanded);
            }
            if seen.insert(dep) {
                stack.push(dep);
            }
        }
    }
    (false, expanded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_trace::{PcTable, RegionRecord, SessionDir};

    fn meta_row(
        pid: u64,
        ppid: Option<u64>,
        bid: u32,
        offset: u64,
        span: u64,
        level: u32,
    ) -> MetaRecord {
        MetaRecord { pid, ppid, bid, offset, span, level, data_begin: 0, size: 0 }
    }

    fn session_with(
        threads: Vec<(ThreadId, Vec<MetaRecord>)>,
        regions: Vec<RegionRecord>,
    ) -> LoadedSession {
        let mut map = HashMap::new();
        for r in regions {
            map.insert(r.pid, r);
        }
        LoadedSession {
            dir: SessionDir::new("/nonexistent"),
            threads,
            regions: map,
            pcs: PcTable::new(),
        }
    }

    #[test]
    fn same_region_same_bid_grouped() {
        // One region, 2 threads, 2 barrier intervals each.
        let region = RegionRecord {
            pid: 0,
            ppid: None,
            level: 1,
            span: 2,
            fork_label: vec![0, 1],
            deps: vec![],
        };
        let s = session_with(
            vec![
                (0, vec![meta_row(0, None, 0, 0, 2, 1), meta_row(0, None, 1, 2, 2, 1)]),
                (1, vec![meta_row(0, None, 0, 1, 2, 1), meta_row(0, None, 1, 3, 2, 1)]),
            ],
            vec![region],
        );
        let st = build_structure(&s).unwrap();
        assert_eq!(st.groups.len(), 2);
        assert!(st.groups.iter().all(|g| g.members.len() == 2));
        // Two intra tasks, no cross tasks (single region).
        assert_eq!(st.tasks.len(), 2);
        assert!(st.tasks.iter().all(|t| matches!(t, Task::Intra { .. })));
    }

    #[test]
    fn sequential_regions_pruned() {
        // Two top-level regions forked one after the other: fork labels
        // [0,1] and [1,1].
        let r0 = RegionRecord {
            pid: 0,
            ppid: None,
            level: 1,
            span: 2,
            fork_label: vec![0, 1],
            deps: vec![],
        };
        let r1 = RegionRecord {
            pid: 1,
            ppid: None,
            level: 1,
            span: 2,
            fork_label: vec![1, 1],
            deps: vec![],
        };
        let s = session_with(
            vec![
                (0, vec![meta_row(0, None, 0, 0, 2, 1), meta_row(1, None, 0, 0, 2, 1)]),
                (1, vec![meta_row(0, None, 0, 1, 2, 1), meta_row(1, None, 0, 1, 2, 1)]),
            ],
            vec![r0, r1],
        );
        let st = build_structure(&s).unwrap();
        assert_eq!(st.groups.len(), 2);
        assert_eq!(st.region_pairs_skipped, 1);
        assert_eq!(st.region_pairs_considered, 0);
        assert_eq!(st.tasks.len(), 2, "only the intra tasks remain");
    }

    #[test]
    fn nested_concurrent_regions_cross_all() {
        // Outer region 0 forks threads [0,1][i,2]; each forks an inner
        // region. Inner fork labels [0,1][0,2] and [0,1][1,2] diverge →
        // concurrent.
        let outer = RegionRecord {
            pid: 0,
            ppid: None,
            level: 1,
            span: 2,
            fork_label: vec![0, 1],
            deps: vec![],
        };
        let inner_a = RegionRecord {
            pid: 1,
            ppid: Some(0),
            level: 2,
            span: 2,
            fork_label: vec![0, 1, 0, 2],
            deps: vec![],
        };
        let inner_b = RegionRecord {
            pid: 2,
            ppid: Some(0),
            level: 2,
            span: 2,
            fork_label: vec![0, 1, 1, 2],
            deps: vec![],
        };
        let s = session_with(
            vec![
                (0, vec![meta_row(0, None, 0, 0, 2, 1)]),
                (1, vec![meta_row(0, None, 0, 1, 2, 1)]),
                (2, vec![meta_row(1, Some(0), 0, 0, 2, 2)]),
                (3, vec![meta_row(1, Some(0), 0, 1, 2, 2)]),
                (4, vec![meta_row(2, Some(0), 0, 0, 2, 2)]),
                (5, vec![meta_row(2, Some(0), 0, 1, 2, 2)]),
            ],
            vec![outer, inner_a, inner_b],
        );
        let st = build_structure(&s).unwrap();
        // inner_a vs inner_b: fork labels concurrent → all_concurrent.
        let cross_ab = st
            .tasks
            .iter()
            .filter(|t| matches!(t, Task::Cross { all_concurrent: true, .. }))
            .count();
        assert_eq!(cross_ab, 1);
        // outer vs inner_a and outer vs inner_b: prefix-related → filtered
        // cross tasks.
        let cross_filtered = st
            .tasks
            .iter()
            .filter(|t| matches!(t, Task::Cross { all_concurrent: false, .. }))
            .count();
        assert_eq!(cross_filtered, 2);
    }

    #[test]
    fn prefix_related_member_filtering() {
        // Outer thread 0's interval vs its own nested region's threads:
        // sequential (ancestor). Outer thread 1's interval vs that nested
        // region: concurrent (R3 of Figure 2).
        let outer = RegionRecord {
            pid: 0,
            ppid: None,
            level: 1,
            span: 2,
            fork_label: vec![0, 1],
            deps: vec![],
        };
        let inner = RegionRecord {
            pid: 1,
            ppid: Some(0),
            level: 2,
            span: 2,
            fork_label: vec![0, 1, 0, 2],
            deps: vec![],
        };
        let s = session_with(
            vec![
                (0, vec![meta_row(0, None, 0, 0, 2, 1)]),
                (1, vec![meta_row(0, None, 0, 1, 2, 1)]),
                (2, vec![meta_row(1, Some(0), 0, 0, 2, 2)]),
            ],
            vec![outer, inner],
        );
        let st = build_structure(&s).unwrap();
        let outer_group = st.groups.iter().find(|g| g.pid == 0).unwrap();
        let inner_group = st.groups.iter().find(|g| g.pid == 1).unwrap();
        let outer0 = outer_group.members.iter().find(|m| m.tid == 0).unwrap();
        let outer1 = outer_group.members.iter().find(|m| m.tid == 1).unwrap();
        let inner0 = &inner_group.members[0];
        assert!(
            !intervals_concurrent(&s.regions, outer0, inner0).unwrap(),
            "forker's interval is ordered against its nested region"
        );
        assert!(
            intervals_concurrent(&s.regions, outer1, inner0).unwrap(),
            "sibling outer thread races with the nested region"
        );
    }

    #[test]
    fn missing_region_record_is_invalid_data() {
        // A meta row whose region record is gone (truncated region
        // table) must fail cleanly: an empty-prefix fallback would make
        // the interval look root-level and invent races. Found by the
        // fuzzer's truncate-regions fault injection.
        let s = session_with(vec![(0, vec![meta_row(7, None, 0, 0, 2, 1)])], vec![]);
        let err = build_structure(&s).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("region 7"), "{err}");
        let err = full_label(&s, &meta_row(7, None, 0, 0, 2, 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn long_depend_chain_expands_each_task_once() {
        // 10k tasks, each depending on the two before it: the closure
        // walk must expand every task at most once (without visited
        // state the two-deep chain is Fibonacci).
        const N: u64 = 10_000;
        let task = |pid: u64| RegionRecord {
            pid,
            ppid: None,
            level: 1,
            span: 1,
            fork_label: vec![0, 1, pid, 1],
            deps: [pid.checked_sub(1), pid.checked_sub(2)].into_iter().flatten().collect(),
        };
        let regions: HashMap<u64, RegionRecord> = (0..N).map(|pid| (pid, task(pid))).collect();
        let (found, expanded) = dep_search(&regions, N - 1, 0);
        assert!(found && expanded as u64 <= N, "expanded {expanded}");
        let (found, expanded) = dep_search(&regions, N - 1, N);
        assert!(!found, "a task outside the chain is never reached");
        assert_eq!(expanded as u64, N, "the whole closure, each task once");
        let row = |pid| Interval {
            tid: pid as ThreadId,
            meta: meta_row(pid, None, 0, 1, sword_osl::TASK_SPAN, 1),
        };
        assert!(dep_ordered(&regions, &row(0), &row(N - 1)), "either direction orders the pair");
    }

    #[test]
    fn same_tid_never_concurrent() {
        let region = |pid| RegionRecord {
            pid,
            ppid: None,
            level: 1,
            span: 2,
            fork_label: vec![0, 1],
            deps: vec![],
        };
        let regions: HashMap<u64, RegionRecord> = (0..2).map(|pid| (pid, region(pid))).collect();
        let a = Interval { tid: 3, meta: meta_row(0, None, 0, 0, 2, 1) };
        let b = Interval { tid: 3, meta: meta_row(1, None, 0, 1, 2, 1) };
        assert!(!intervals_concurrent(&regions, &a, &b).unwrap());
        let b = Interval { tid: 4, ..b };
        assert!(intervals_concurrent(&regions, &a, &b).unwrap(), "[0,1][0,2] ∥ [0,1][1,2]");
    }

    #[test]
    fn labels_compared_in_place_agree_with_built_labels() {
        // Fork labels of a nesting: a root region, regions it forks
        // nested at two slots and two barrier generations, and a task
        // pseudo-region, paired with every row pair of every span.
        let forks: [&[u64]; 6] = [
            &[0, 1],
            &[0, 1, 0, 4, 0, 1],
            &[0, 1, 1, 4, 0, 1],
            &[0, 1, 5, 4, 0, 1],
            &[0, 1, 0, 4, 1, 1],
            &[0, 1, 0, 4, 0, 1, 1, 2, 0, 1],
        ];
        let own = [(0, 4), (1, 4), (4, 4), (0, 2), (1, 2), (2, 2), (1, sword_osl::TASK_SPAN)];
        let region = |pid: usize| RegionRecord {
            pid: pid as u64,
            ppid: None,
            level: 1,
            span: 2,
            fork_label: forks[pid].to_vec(),
            deps: vec![],
        };
        let regions: HashMap<u64, RegionRecord> =
            (0..forks.len()).map(|pid| (pid as u64, region(pid))).collect();
        let mut concurrent = 0;
        for (pa, pb) in (0..forks.len()).flat_map(|a| (0..forks.len()).map(move |b| (a, b))) {
            for (&(oa, sa), &(ob, sb)) in own.iter().flat_map(|x| own.iter().map(move |y| (x, y))) {
                let a = Interval { tid: 1, meta: meta_row(pa as u64, None, 0, oa, sa, 1) };
                let b = Interval { tid: 2, meta: meta_row(pb as u64, None, 0, ob, sb, 1) };
                let (la, lb) =
                    (full_label_from(&regions, &a.meta), full_label_from(&regions, &b.meta));
                let built =
                    la.unwrap().compare_barrier_aware(&lb.unwrap()) == OslOrdering::Concurrent;
                let (fa, fb) = unshared(forks[pa], forks[pb]);
                assert_eq!(intervals_concurrent(&regions, &a, &b).unwrap(), built, "{pa}/{pb}");
                assert_eq!(labels_concurrent(fa, &a, fb, &b), built, "{pa}/{pb} unshared");
                concurrent += built as usize;
            }
        }
        assert!(concurrent > 0 && concurrent < forks.len().pow(2) * own.len().pow(2));
    }
}
