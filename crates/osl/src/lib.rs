//! Offset-span labels for concurrency discovery in nested fork-join programs.
//!
//! SWORD's offline phase must decide whether two accesses collected by two
//! different threads *could* have raced, without relying on the
//! happens-before relation of the particular schedule (which can mask
//! races, Fig. 1 of the paper). It does so with *offset-span labels*
//! (Mellor-Crummey, "On-the-fly detection of data races for programs with
//! nested fork-join parallelism", 1991): every execution point of every
//! thread is tagged with a sequence of `[offset, span]` pairs describing its
//! lineage in the fork-join tree, and a purely syntactic comparison of two
//! labels decides whether the points are sequentially ordered or concurrent.
//!
//! The rules implemented here are exactly the ones the paper states (§II):
//! two labels are **sequential** when either
//!
//! * **case 1**: one is a proper prefix of the other, or
//! * **case 2**: they share a (possibly empty) prefix `P` and continue with
//!   pairs `[o_x, s]` / `[o_y, s]` of the *same span* such that
//!   `o_x < o_y` and `o_x ≡ o_y (mod s)`;
//!
//! otherwise they are **concurrent**.
//!
//! Label construction mirrors the runtime events:
//!
//! * the initial thread has label `[0, 1]`;
//! * a thread's `k`-th fork (0-based) of `s` threads from label `L` gives
//!   child `i` the label `L · [k, 1] · [i, s]` — the span-1
//!   [`Label::fork_point`] pair makes the join ordering between the
//!   thread's successive teams a case-2 ordering (`[k,1]` before
//!   `[k+1,1]`, same slot) without touching the thread's own pair;
//! * a barrier inside a team bumps each member's last pair by the span, so
//!   successive *barrier intervals* of the same thread slot are case-2
//!   sequential (and cross-slot intervals are ordered by
//!   [`Label::compare_barrier_aware`]).
//!
//! Note (also §II of the paper and [`Label::sequential`] docs): OSL alone
//! deliberately does *not* order different thread slots across a barrier —
//! within one parallel region that ordering comes from comparing barrier
//! ids, which the offline analyzer does before ever consulting OSL (or,
//! equivalently, from [`Label::compare_barrier_aware`]).
//!
//! # Example
//!
//! ```
//! use sword_osl::{Label, Ordering};
//!
//! // Figure 2 of the paper: a 2-thread outer region whose workers each
//! // fork a 2-thread inner region.
//! let root = Label::root();                 // [0,1]
//! let outer0 = root.fork(0, 2);             // [0,1][0,2]
//! let outer1 = root.fork(1, 2);             // [0,1][1,2]
//! let inner_a = outer0.fork(1, 2);          // [0,1][0,2][1,2]
//!
//! // Sibling outer threads may race; the inner region races with the
//! // *other* outer thread (the paper's R3) but is ordered against its
//! // own forker.
//! assert_eq!(outer0.compare(&outer1), Ordering::Concurrent);
//! assert_eq!(inner_a.compare(&outer1), Ordering::Concurrent);
//! assert_eq!(outer0.compare(&inner_a), Ordering::Before);
//!
//! // Barrier crossings bump the innermost offset by the span; the
//! // barrier-aware comparison orders all slots across it.
//! let after_barrier = outer1.bump();        // [0,1][3,2]
//! assert_eq!(outer0.compare_barrier_aware(&after_barrier), Ordering::Before);
//! ```

#![forbid(unsafe_code)]

use std::fmt;

/// Span sentinel marking a pair as one side of an explicit-task creation
/// fork (rather than a real team fork of that width).
///
/// An OpenMP `task` construct creates work that runs concurrently with the
/// creating thread's continuation. We encode **each creation** as a binary
/// pseudo-fork of the creator's current label `L`: the creator's
/// continuation relabels to `L · [e, 1] · [0, TASK_SPAN]`
/// ([`Label::task_continuation`]) and the new task becomes
/// `L · [e, 1] · [1, TASK_SPAN]` ([`Label::task_label`]), where `e` is the
/// creator's fork sequence (shared with nested-parallel
/// [`Label::fork_point`]s).
///
/// Chaining creations — the next task forks off the *continuation* label —
/// makes `concurrent(a, b)` exact for task segments:
///
/// * continuation code after a creation diverges from the task at the
///   `[0, TASK_SPAN]` / `[1, TASK_SPAN]` pair (same span, generation 0):
///   concurrent;
/// * creator code *before* a creation is a proper label prefix of the
///   task: ordered (the staircase "earlier continuation chunks precede
///   later tasks" falls out of nesting depth);
/// * a task-scheduling point that waits on children (`taskwait`,
///   `taskgroup` end, any barrier) simply *restores* the label from which
///   the synced chain grew, so post-sync code is again a prefix of every
///   synced task — and `taskgroup` scoping is exactly a partial restore:
///   tasks created before the group keep diverging at their own creation
///   pair and stay concurrent with post-group code.
///
/// Only slots 0 and 1 of the pseudo-team are ever occupied and no barrier
/// bumps these pairs, so the huge span never meets the generation rule; it
/// exists purely so task forks are distinguishable from real two-thread
/// teams (for [`explain_concurrency`] derivations and the analyzer's
/// structural classification).
///
/// Task *dependences* (`depend(in/out/inout)`) are deliberately **not**
/// encoded in labels: they induce arbitrary partial orders over siblings
/// (e.g. `t1 out(x); t2 in(y); t3 in(x)` leaves `t2 ∥ t3` with `t1 ≺ t3`
/// only), which label comparison cannot express. They travel as explicit
/// edges in the trace's region table instead, and the analyzer consults
/// them only for task-segment pairs.
pub const TASK_SPAN: u64 = 1 << 32;

/// One `[offset, span]` pair of an offset-span label.
///
/// `span` is the number of threads spawned by the fork this pair originates
/// from; `offset` distinguishes siblings and grows by `span` at each
/// barrier/join crossing, so `offset % span` recovers the thread slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair {
    /// Offset within (and across barrier generations of) the fork.
    pub offset: u64,
    /// Number of threads spawned by the originating fork. Always ≥ 1.
    pub span: u64,
}

impl Pair {
    /// Creates a pair; `span` must be non-zero.
    #[inline]
    pub fn new(offset: u64, span: u64) -> Self {
        assert!(span > 0, "offset-span pair with zero span");
        Pair { offset, span }
    }

    /// The thread slot this pair denotes within its fork (`offset % span`).
    #[inline]
    pub fn slot(&self) -> u64 {
        self.offset % self.span
    }

    /// How many barrier/join boundaries this pair has crossed
    /// (`offset / span`).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.offset / self.span
    }
}

impl fmt::Debug for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.offset, self.span)
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.offset, self.span)
    }
}

/// Result of comparing two offset-span labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ordering {
    /// The labels denote the same execution point.
    Equal,
    /// The left label's point is sequentially ordered before the right's.
    Before,
    /// The left label's point is sequentially ordered after the right's.
    After,
    /// Neither is ordered before the other: the points may race.
    Concurrent,
}

impl Ordering {
    /// `true` when the two points cannot run at the same time.
    #[inline]
    pub fn is_sequential(self) -> bool {
        !matches!(self, Ordering::Concurrent)
    }
}

/// An offset-span label: a sequence of [`Pair`]s from the root fork to the
/// innermost enclosing fork of an execution point.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Label {
    pairs: Vec<Pair>,
}

impl Label {
    /// The label of the initial (master) thread: `[0, 1]`.
    pub fn root() -> Self {
        Label { pairs: vec![Pair::new(0, 1)] }
    }

    /// An empty label. Only useful as a building block for
    /// [`Label::from_chain`]; an empty label compares as a prefix of every
    /// other label (hence sequential-before everything).
    pub fn empty() -> Self {
        Label { pairs: Vec::new() }
    }

    /// Builds a label from an explicit chain of `(offset, span)` pairs,
    /// outermost first. This is how the offline analyzer reconstructs
    /// labels from the per-barrier-interval metadata rows chained through
    /// parent-region ids.
    pub fn from_chain<I: IntoIterator<Item = (u64, u64)>>(chain: I) -> Self {
        Label { pairs: chain.into_iter().map(|(o, s)| Pair::new(o, s)).collect() }
    }

    /// The pairs of this label, outermost fork first.
    #[inline]
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// Number of pairs, i.e. the nesting depth of forks.
    #[inline]
    pub fn depth(&self) -> usize {
        self.pairs.len()
    }

    /// `true` for labels with no pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The innermost pair, if any.
    #[inline]
    pub fn last(&self) -> Option<Pair> {
        self.pairs.last().copied()
    }

    /// Label of child `index` when this thread forks a team of `span`
    /// threads: `self · [index, span]`.
    ///
    /// `index` must be `< span`.
    pub fn fork(&self, index: u64, span: u64) -> Label {
        assert!(span > 0, "fork with zero span");
        assert!(index < span, "fork child index {index} out of span {span}");
        let mut pairs = Vec::with_capacity(self.pairs.len() + 1);
        pairs.extend_from_slice(&self.pairs);
        pairs.push(Pair::new(index, span));
        Label { pairs }
    }

    /// Label of the fork *point* of this thread's `seq`-th fork (0-based):
    /// `self · [seq, 1]`. Children of that fork are labeled
    /// `self.fork_point(seq).fork(i, span)`.
    ///
    /// The span-1 pair keeps sequential forks by the same thread ordered —
    /// `[k, 1]` and `[k+1, 1]` share slot 0, so case 2 orders the whole
    /// earlier subtree before the later one (the join between them is real
    /// program order) — while subtrees forked by *different* threads still
    /// diverge at the forkers' own pairs and stay concurrent. Encoding the
    /// join as a bump of the forker's own pair instead (the pre-fix
    /// construction) made a join look like a barrier generation to
    /// [`Label::compare_barrier_aware`], wrongly ordering a member's later
    /// forks against *sibling* members' accesses.
    pub fn fork_point(&self, seq: u64) -> Label {
        let mut pairs = Vec::with_capacity(self.pairs.len() + 1);
        pairs.extend_from_slice(&self.pairs);
        pairs.push(Pair::new(seq, 1));
        Label { pairs }
    }

    /// The fork label of this thread's `seq`-th fork when that fork is an
    /// explicit-task creation: `self · [seq, 1]`. The creator's
    /// continuation and the task are the two children of this pseudo-fork
    /// (see [`TASK_SPAN`]); it is also the label stored in the task's
    /// pseudo-region record, from which the offline analyzer reconstructs
    /// both children.
    pub fn task_fork(&self, seq: u64) -> Label {
        self.fork_point(seq)
    }

    /// The creator's continuation label after creating a task at this
    /// thread's `seq`-th fork point: `self · [seq, 1] · [0, TASK_SPAN]`.
    /// The next creation (or nested fork) chains off this label.
    pub fn task_continuation(&self, seq: u64) -> Label {
        self.task_fork(seq).fork(0, TASK_SPAN)
    }

    /// The label of the task created at this thread's `seq`-th fork
    /// point: `self · [seq, 1] · [1, TASK_SPAN]`.
    pub fn task_label(&self, seq: u64) -> Label {
        self.task_fork(seq).fork(1, TASK_SPAN)
    }

    /// Label of the continuing thread after a team barrier: the last
    /// pair's offset is bumped by its span, ordering the new point
    /// case-2-after every point of the previous generation in the same
    /// slot. (Joins are *not* bumps — see [`Label::fork_point`].)
    pub fn bump(&self) -> Label {
        let mut pairs = self.pairs.clone();
        let last = pairs.last_mut().expect("bump on empty label");
        last.offset =
            last.offset.checked_add(last.span).expect("offset-span label offset overflow");
        Label { pairs }
    }

    /// In-place version of [`Label::bump`], used by the runtime on the hot
    /// barrier path to avoid reallocating the pair vector.
    pub fn bump_in_place(&mut self) {
        let last = self.pairs.last_mut().expect("bump on empty label");
        last.offset =
            last.offset.checked_add(last.span).expect("offset-span label offset overflow");
    }

    /// Compares two labels per the paper's sequentiality rules.
    ///
    /// Returns [`Ordering::Before`]/[`Ordering::After`] for case-1/case-2
    /// sequential labels, [`Ordering::Equal`] for identical labels, and
    /// [`Ordering::Concurrent`] otherwise.
    pub fn compare(&self, other: &Label) -> Ordering {
        let a = &self.pairs;
        let b = &other.pairs;
        let common = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();

        match (a.len() == common, b.len() == common) {
            (true, true) => Ordering::Equal,
            // case 1: one label is a proper prefix of the other. The prefix
            // denotes the parent's execution point before the fork, which is
            // sequentially ordered before every descendant's point.
            (true, false) => Ordering::Before,
            (false, true) => Ordering::After,
            (false, false) => {
                // case 2: first divergent pairs share a span, offsets agree
                // modulo the span (same thread slot across barrier/join
                // generations), and the smaller offset comes first.
                let x = a[common];
                let y = b[common];
                if x.span == y.span && x.slot() == y.slot() {
                    if x.offset < y.offset {
                        Ordering::Before
                    } else {
                        debug_assert!(x.offset > y.offset);
                        Ordering::After
                    }
                } else {
                    Ordering::Concurrent
                }
            }
        }
    }

    /// Barrier-aware label comparison used by the offline analyzer.
    ///
    /// The paper's analysis combines two orderings: within one parallel
    /// region, barrier-interval ids order intervals (a barrier orders *all*
    /// team slots of generation `g` before all slots of `g+1`); across
    /// regions, offset-span labels do. Since a barrier crossing adds
    /// `span` to the pair's offset, both collapse into one rule on labels:
    /// at the first divergent pair with equal span, compare *generations*
    /// (`offset / span`) — different generations are barrier-ordered
    /// regardless of slot; the same generation with different slots is
    /// concurrent.
    ///
    /// Soundness of the cross-slot rule relies on offsets growing **only**
    /// at barriers: a barrier genuinely synchronizes every slot of the
    /// team, so `generation` differences are real orderings. Joins must
    /// therefore never bump a member's pair — they are encoded as span-1
    /// [`Label::fork_point`] components instead, which this rule orders
    /// only within one forker's own sequence (slot 0 vs slot 0), exactly
    /// the ordering a join provides.
    ///
    /// This strictly extends [`Label::compare`]'s case 2 (which orders only
    /// same-slot pairs): every pair `compare` calls sequential stays
    /// sequential here, and in addition cross-slot pairs separated by a
    /// barrier become sequential, exactly as the paper's bid pairing makes
    /// them.
    pub fn compare_barrier_aware(&self, other: &Label) -> Ordering {
        compare_chains_barrier_aware(self.pairs.iter().copied(), other.pairs.iter().copied())
    }

    /// `true` when the two labels are sequentially ordered (or equal).
    #[inline]
    pub fn sequential(&self, other: &Label) -> bool {
        self.compare(other).is_sequential()
    }

    /// `true` when the two execution points may run at the same time.
    #[inline]
    pub fn concurrent(&self, other: &Label) -> bool {
        !self.sequential(other)
    }

    /// Serializes the label as a flat `(offset, span)` stream for the trace
    /// substrate.
    pub fn to_flat(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.pairs.len() * 2);
        for p in &self.pairs {
            out.push(p.offset);
            out.push(p.span);
        }
        out
    }

    /// Inverse of [`Label::to_flat`]. Returns `None` on odd-length input or
    /// zero spans.
    pub fn from_flat(flat: &[u64]) -> Option<Label> {
        if !flat.len().is_multiple_of(2) {
            return None;
        }
        let mut pairs = Vec::with_capacity(flat.len() / 2);
        for chunk in flat.chunks_exact(2) {
            if chunk[1] == 0 {
                return None;
            }
            pairs.push(Pair::new(chunk[0], chunk[1]));
        }
        Some(Label { pairs })
    }
}

/// Renders the step-by-step derivation of
/// [`Label::compare_barrier_aware`] as human-readable lines — the
/// "why are these two intervals concurrent (or ordered)" part of a race
/// evidence chain. The last line always states the verdict, which by
/// construction matches `a.compare_barrier_aware(b)`.
pub fn explain_concurrency(a: &Label, b: &Label) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!("label A = {a}"));
    out.push(format!("label B = {b}"));
    let pa = a.pairs();
    let pb = b.pairs();
    let common = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count();
    if common == 0 {
        out.push("no common prefix".to_string());
    } else {
        let prefix: String = pa[..common].iter().map(|p| p.to_string()).collect();
        out.push(format!("common prefix ({common} pair{}) = {prefix}", plural(common)));
    }
    match (pa.len() == common, pb.len() == common) {
        (true, true) => {
            out.push("labels are identical => same execution point (EQUAL)".to_string())
        }
        (true, false) => out.push(
            "A is a proper prefix of B: A is the forker's point before the fork \
             => ordered BEFORE (case 1)"
                .to_string(),
        ),
        (false, true) => out.push(
            "B is a proper prefix of A: B is the forker's point before the fork \
             => ordered AFTER (case 1)"
                .to_string(),
        ),
        (false, false) => {
            let x = pa[common];
            let y = pb[common];
            out.push(format!("first divergent pair: {x} vs {y}"));
            if x.span == y.span {
                if x.span == TASK_SPAN {
                    let role = |p: &Pair| {
                        if p.offset == 0 {
                            "the creator's continuation"
                        } else {
                            "the created task"
                        }
                    };
                    out.push(format!(
                        "span {TASK_SPAN} marks a task-creation fork: \
                         A is {}, B is {}",
                        role(&x),
                        role(&y)
                    ));
                }
                let (gx, gy) = (x.generation(), y.generation());
                out.push(format!(
                    "same span {}: compare barrier generations {gx} = {}/{} vs {gy} = {}/{}",
                    x.span, x.offset, x.span, y.offset, y.span
                ));
                match gx.cmp(&gy) {
                    std::cmp::Ordering::Less => out.push(format!(
                        "generation {gx} < {gy}: a barrier synchronized every team slot \
                         between them => ordered BEFORE"
                    )),
                    std::cmp::Ordering::Greater => out.push(format!(
                        "generation {gx} > {gy}: a barrier synchronized every team slot \
                         between them => ordered AFTER"
                    )),
                    std::cmp::Ordering::Equal => out.push(format!(
                        "equal generation {gx}, different slots {} vs {}: \
                         no barrier or join orders them => CONCURRENT",
                        x.slot(),
                        y.slot()
                    )),
                }
            } else {
                out.push(format!(
                    "different spans {} vs {}: the points sit in sibling fork subtrees \
                     with no ordering fork point => CONCURRENT",
                    x.span, y.span
                ));
            }
        }
    }
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// [`Label::compare_barrier_aware`] over two pair chains, outermost pair
/// first, so a label held in pieces (a region's flat fork label and a
/// row's own pair) is compared without being built.
pub fn compare_chains_barrier_aware(
    a: impl IntoIterator<Item = Pair>,
    b: impl IntoIterator<Item = Pair>,
) -> Ordering {
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    loop {
        match (a.next(), b.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Before,
            (Some(_), None) => return Ordering::After,
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) if x.span == y.span => {
                return match x.generation().cmp(&y.generation()) {
                    std::cmp::Ordering::Less => Ordering::Before,
                    std::cmp::Ordering::Greater => Ordering::After,
                    std::cmp::Ordering::Equal => Ordering::Concurrent,
                }
            }
            (Some(_), Some(_)) => return Ordering::Concurrent,
        }
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.pairs {
            write!(f, "{p:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.pairs {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl FromIterator<(u64, u64)> for Label {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        Label::from_chain(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_label_shape() {
        let r = Label::root();
        assert_eq!(r.pairs(), &[Pair::new(0, 1)]);
        assert_eq!(r.depth(), 1);
        assert_eq!(format!("{r}"), "[0,1]");
    }

    #[test]
    fn paper_example_thread3_label() {
        // Figure 2 of the paper: Thread 3 carries [0,1][0,2][0,2].
        let t3 = Label::root().fork(0, 2).fork(0, 2);
        assert_eq!(format!("{t3}"), "[0,1][0,2][0,2]");
    }

    #[test]
    fn equal_labels_are_sequential() {
        let a = Label::root().fork(1, 4);
        assert_eq!(a.compare(&a.clone()), Ordering::Equal);
        assert!(a.sequential(&a.clone()));
    }

    #[test]
    fn case1_prefix_is_sequential() {
        let parent = Label::root();
        let child = parent.fork(3, 4);
        assert_eq!(parent.compare(&child), Ordering::Before);
        assert_eq!(child.compare(&parent), Ordering::After);
        assert!(parent.sequential(&child));
    }

    #[test]
    fn fork_siblings_are_concurrent() {
        let parent = Label::root();
        let c0 = parent.fork(0, 2);
        let c1 = parent.fork(1, 2);
        assert_eq!(c0.compare(&c1), Ordering::Concurrent);
        assert_eq!(c1.compare(&c0), Ordering::Concurrent);
    }

    #[test]
    fn continuing_master_after_join_is_sequential_after_children() {
        let parent = Label::root();
        let children: Vec<_> = (0..4).map(|i| parent.fork(i, 4)).collect();
        // After the join the master continues; its *next* fork's children
        // must be ordered after the previous team. The continuation label of
        // the master is parent.bump() only when the fork pair was pushed on
        // the master's own label; model the OpenMP pattern: master label L,
        // team pairs L·[i,s], post-join master label L.bump().
        let after = parent.bump();
        for c in &children {
            assert_eq!(c.compare(&after), Ordering::Before, "{c} vs {after}");
            assert_eq!(after.compare(c), Ordering::After);
        }
    }

    #[test]
    fn sequential_sibling_regions_are_ordered() {
        // Two parallel regions executed one after the other by the same
        // master: every thread of region 1 is before every thread of
        // region 2, regardless of slot.
        let master = Label::root();
        let r1: Vec<_> = (0..3).map(|i| master.fork(i, 3)).collect();
        let master2 = master.bump();
        let r2: Vec<_> = (0..3).map(|i| master2.fork(i, 3)).collect();
        for a in &r1 {
            for b in &r2 {
                assert_eq!(a.compare(b), Ordering::Before, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn nested_regions_under_different_parents_are_concurrent() {
        // Figure 2: races R2/R3 cross barrier intervals of *different*
        // concurrent inner regions.
        let root = Label::root();
        let outer0 = root.fork(0, 2);
        let outer1 = root.fork(1, 2);
        let inner_a = outer0.fork(1, 2); // Thread 4-ish
        let inner_b = outer1.fork(0, 2); // Thread 5-ish
        assert_eq!(inner_a.compare(&inner_b), Ordering::Concurrent);
        // ... and the inner thread is concurrent with the *other* outer
        // thread as well.
        assert_eq!(inner_a.compare(&outer1), Ordering::Concurrent);
    }

    #[test]
    fn barrier_bump_orders_same_slot_generations() {
        let t = Label::root().fork(2, 4);
        let t_next = t.bump(); // crossed one barrier
        assert_eq!(t.compare(&t_next), Ordering::Before);
        assert_eq!(t_next.compare(&t), Ordering::After);
        // Two barriers later still ordered.
        let t_nn = t_next.bump();
        assert_eq!(t.compare(&t_nn), Ordering::Before);
        assert_eq!(t_nn.last().unwrap(), Pair::new(10, 4));
        assert_eq!(t_nn.last().unwrap().slot(), 2);
        assert_eq!(t_nn.last().unwrap().generation(), 2);
    }

    #[test]
    fn barrier_bump_keeps_different_slots_concurrent() {
        // OSL alone does not order different slots across a barrier; the
        // analyzer resolves that with barrier-interval ids. Pin the
        // behaviour so the analyzer's assumption stays true.
        let a = Label::root().fork(0, 2); // slot 0, generation 0
        let b = Label::root().fork(1, 2).bump(); // slot 1, generation 1
        assert_eq!(a.compare(&b), Ordering::Concurrent);
    }

    #[test]
    fn barrier_aware_orders_cross_slot_generations() {
        // Thread 0 interval 0 vs thread 1 interval 1 of the same team:
        // plain OSL calls them concurrent, the barrier-aware rule orders
        // them (the barrier synchronized every slot).
        let a = Label::root().fork(0, 2);
        let b = Label::root().fork(1, 2).bump();
        assert_eq!(a.compare(&b), Ordering::Concurrent);
        assert_eq!(a.compare_barrier_aware(&b), Ordering::Before);
        assert_eq!(b.compare_barrier_aware(&a), Ordering::After);
    }

    #[test]
    fn barrier_aware_same_generation_still_concurrent() {
        let a = Label::root().fork(0, 4).bump();
        let b = Label::root().fork(2, 4).bump();
        assert_eq!(a.compare_barrier_aware(&b), Ordering::Concurrent);
    }

    #[test]
    fn barrier_aware_nested_inner_region_vs_later_interval() {
        // Inner region forked during interval 0 of outer slot 0; its
        // threads are ordered before outer slot 1's interval-5 accesses.
        let outer0 = Label::root().fork(0, 2);
        let inner = outer0.fork(1, 3);
        let outer1_bid5 = {
            let mut l = Label::root().fork(1, 2);
            for _ in 0..5 {
                l = l.bump();
            }
            l
        };
        assert_eq!(inner.compare_barrier_aware(&outer1_bid5), Ordering::Before);
        // But it stays concurrent with the same-generation interval of the
        // other slot (R3 of Figure 2).
        let outer1_bid0 = Label::root().fork(1, 2);
        assert_eq!(inner.compare_barrier_aware(&outer1_bid0), Ordering::Concurrent);
    }

    #[test]
    fn fork_point_orders_one_threads_sequential_teams() {
        // Thread [0,1][1,2] forks two teams back to back; every access of
        // the first is ordered before every access of the second by plain
        // case 2 on the span-1 fork-point pair.
        let member = Label::root().fork(1, 2);
        let team_a: Vec<_> = (0..2).map(|i| member.fork_point(0).fork(i, 2)).collect();
        let team_b: Vec<_> = (0..2).map(|i| member.fork_point(1).fork(i, 2)).collect();
        for a in &team_a {
            for b in &team_b {
                assert_eq!(a.compare(b), Ordering::Before, "{a} vs {b}");
                assert_eq!(a.compare_barrier_aware(b), Ordering::Before);
            }
        }
        // The forker itself is ordered against both teams (prefix rule).
        assert_eq!(member.compare(&team_b[0]), Ordering::Before);
    }

    #[test]
    fn fork_point_keeps_sibling_subtrees_concurrent() {
        // The unsoundness the fuzzer caught: member 1's *second* nested
        // team must stay concurrent with member 0's accesses — the joins
        // member 1 performed do not synchronize member 0. Under the old
        // join-bumps-the-member-pair construction, member 1's label became
        // [0,1][3,2] (generation 1), and the barrier-aware rule read that
        // join as a barrier, wrongly ordering the pair.
        let member0 = Label::root().fork(0, 2);
        let member1 = Label::root().fork(1, 2);
        let m1_second_team = member1.fork_point(1).fork(0, 2);
        assert_eq!(member0.compare(&m1_second_team), Ordering::Concurrent);
        assert_eq!(member0.compare_barrier_aware(&m1_second_team), Ordering::Concurrent);
        // Cross-forker teams with different fork counts: also concurrent.
        let m0_first_team = member0.fork_point(0).fork(1, 2);
        assert_eq!(m0_first_team.compare_barrier_aware(&m1_second_team), Ordering::Concurrent);
        // A real barrier still orders: member 0's post-barrier fork vs
        // member 1's pre-barrier team.
        let m0_post_barrier_team = member0.bump().fork_point(1).fork(0, 2);
        let m1_pre_barrier_team = member1.fork_point(0).fork(0, 2);
        assert_eq!(
            m1_pre_barrier_team.compare_barrier_aware(&m0_post_barrier_team),
            Ordering::Before
        );
    }

    #[test]
    fn bump_in_place_matches_bump() {
        let a = Label::root().fork(1, 3);
        let mut b = a.clone();
        b.bump_in_place();
        assert_eq!(a.bump(), b);
    }

    #[test]
    fn flat_roundtrip() {
        let a = Label::root().fork(1, 3).bump().fork(0, 2);
        let flat = a.to_flat();
        assert_eq!(Label::from_flat(&flat), Some(a));
    }

    #[test]
    fn from_flat_rejects_bad_input() {
        assert!(Label::from_flat(&[1]).is_none(), "odd length");
        assert!(Label::from_flat(&[1, 0]).is_none(), "zero span");
        assert_eq!(Label::from_flat(&[]), Some(Label::empty()));
    }

    #[test]
    fn empty_label_is_prefix_of_everything() {
        let e = Label::empty();
        let x = Label::root().fork(0, 2);
        assert_eq!(e.compare(&x), Ordering::Before);
        assert_eq!(x.compare(&e), Ordering::After);
        assert_eq!(e.compare(&Label::empty()), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "out of span")]
    fn fork_index_out_of_span_panics() {
        let _ = Label::root().fork(2, 2);
    }

    #[test]
    #[should_panic(expected = "zero span")]
    fn zero_span_panics() {
        let _ = Pair::new(0, 0);
    }

    #[test]
    fn explanation_names_the_divergence() {
        let a = Label::root().fork(0, 2);
        let b = Label::root().fork(1, 2);
        let lines = explain_concurrency(&a, &b);
        assert_eq!(lines[0], "label A = [0,1][0,2]");
        assert_eq!(lines[1], "label B = [0,1][1,2]");
        assert!(lines[2].contains("common prefix (1 pair) = [0,1]"));
        assert!(lines[3].contains("[0,2] vs [1,2]"));
        assert!(lines.last().unwrap().contains("CONCURRENT"));
    }

    #[test]
    fn explanation_covers_prefix_and_barrier_cases() {
        let parent = Label::root();
        let child = parent.fork(1, 2);
        assert!(explain_concurrency(&parent, &child).last().unwrap().contains("BEFORE"));
        assert!(explain_concurrency(&child, &parent).last().unwrap().contains("AFTER"));
        let a = Label::root().fork(0, 2);
        let b = Label::root().fork(1, 2).bump();
        let lines = explain_concurrency(&a, &b);
        assert!(lines.iter().any(|l| l.contains("generation")));
        assert!(lines.last().unwrap().contains("BEFORE"));
    }

    #[test]
    fn deep_nesting_chain() {
        // A chain of single-thread nested regions is totally ordered.
        let mut labels = vec![Label::root()];
        for _ in 0..16 {
            let next = labels.last().unwrap().fork(0, 1);
            labels.push(next);
        }
        for i in 0..labels.len() {
            for j in i + 1..labels.len() {
                assert_eq!(labels[i].compare(&labels[j]), Ordering::Before);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: random small fork trees expressed as labels.
    fn arb_label() -> impl Strategy<Value = Label> {
        // Sequence of (slot-ish offset, span, generations) triples.
        prop::collection::vec((0u64..6, 1u64..5, 0u64..4), 0..5).prop_map(|v| {
            let mut label = Label::root();
            for (idx, span, gens) in v {
                label = label.fork(idx % span, span);
                for _ in 0..gens {
                    label = label.bump();
                }
            }
            label
        })
    }

    proptest! {
        #[test]
        fn compare_is_antisymmetric(a in arb_label(), b in arb_label()) {
            let ab = a.compare(&b);
            let ba = b.compare(&a);
            let expected = match ab {
                Ordering::Equal => Ordering::Equal,
                Ordering::Before => Ordering::After,
                Ordering::After => Ordering::Before,
                Ordering::Concurrent => Ordering::Concurrent,
            };
            prop_assert_eq!(ba, expected);
        }

        #[test]
        fn equal_iff_same_pairs(a in arb_label(), b in arb_label()) {
            prop_assert_eq!(a.compare(&b) == Ordering::Equal, a == b);
        }

        #[test]
        fn fork_children_pairwise_concurrent(a in arb_label(), span in 2u64..6) {
            let kids: Vec<_> = (0..span).map(|i| a.fork(i, span)).collect();
            for i in 0..kids.len() {
                for j in 0..kids.len() {
                    if i != j {
                        prop_assert_eq!(kids[i].compare(&kids[j]), Ordering::Concurrent);
                    }
                }
            }
        }

        #[test]
        fn parent_before_descendants(a in arb_label(), idx in 0u64..4, span in 4u64..8) {
            let child = a.fork(idx, span);
            prop_assert_eq!(a.compare(&child), Ordering::Before);
            let grandchild = child.fork(0, 2);
            prop_assert_eq!(a.compare(&grandchild), Ordering::Before);
        }

        #[test]
        fn bump_chain_totally_ordered(a in arb_label(), n in 1usize..8) {
            let mut cur = a.clone();
            for _ in 0..n {
                let next = cur.bump();
                prop_assert_eq!(cur.compare(&next), Ordering::Before);
                prop_assert_eq!(a.compare(&next), if a == cur { Ordering::Before } else { a.compare(&cur) });
                cur = next;
            }
        }

        #[test]
        fn barrier_aware_refines_paper_rule(a in arb_label(), b in arb_label()) {
            // Everything the paper's case 1/2 orders, the barrier-aware
            // rule orders identically; it may additionally order pairs the
            // paper handles via bid comparison.
            let paper = a.compare(&b);
            let aware = a.compare_barrier_aware(&b);
            if paper != Ordering::Concurrent {
                prop_assert_eq!(aware, paper);
            }
            // Antisymmetry holds for the aware rule too.
            let flipped = match aware {
                Ordering::Equal => Ordering::Equal,
                Ordering::Before => Ordering::After,
                Ordering::After => Ordering::Before,
                Ordering::Concurrent => Ordering::Concurrent,
            };
            prop_assert_eq!(b.compare_barrier_aware(&a), flipped);
        }

        #[test]
        fn flat_roundtrip_prop(a in arb_label()) {
            prop_assert_eq!(Label::from_flat(&a.to_flat()), Some(a));
        }

        #[test]
        fn explanation_verdict_matches_comparison(a in arb_label(), b in arb_label()) {
            let verdict = match a.compare_barrier_aware(&b) {
                Ordering::Equal => "EQUAL",
                Ordering::Before => "BEFORE",
                Ordering::After => "AFTER",
                Ordering::Concurrent => "CONCURRENT",
            };
            let lines = explain_concurrency(&a, &b);
            prop_assert!(lines.last().unwrap().contains(verdict),
                "{:?} vs {:?}: expected {} in {:?}", a, b, verdict, lines);
        }

        #[test]
        fn sequential_regions_fully_ordered(
            spans in prop::collection::vec(1u64..5, 1..4),
        ) {
            // Master runs several regions back to back; all accesses of
            // region k precede all accesses of region k+1.
            let mut master = Label::root();
            let mut regions: Vec<Vec<Label>> = Vec::new();
            for &s in &spans {
                regions.push((0..s).map(|i| master.fork(i, s)).collect());
                master = master.bump();
            }
            for k in 0..regions.len() {
                for m in k + 1..regions.len() {
                    for a in &regions[k] {
                        for b in &regions[m] {
                            prop_assert_eq!(a.compare(b), Ordering::Before);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod task_tests {
    use super::*;

    /// The worked example from DESIGN.md §16: a 2-wide team; member 1
    /// (the creator) creates two chained tasks, works in its continuation,
    /// syncs, and works again.
    struct Fixture {
        creator: Label, // member 1's interval label M (pre-creation / post-sync)
        sibling: Label, // member 0, same barrier interval
        cont0: Label,   // continuation after creating t0
        cont1: Label,   // continuation after creating t1
        t0: Label,
        t1: Label,
    }

    fn fixture() -> Fixture {
        let team = Label::root().fork_point(0);
        let creator = team.fork(1, 2);
        let sibling = team.fork(0, 2);
        let cont0 = creator.task_continuation(0);
        let t0 = creator.task_label(0);
        let cont1 = cont0.task_continuation(1);
        let t1 = cont0.task_label(1);
        Fixture { creator, sibling, cont0, cont1, t0, t1 }
    }

    #[test]
    fn tasks_race_with_siblings_and_continuation() {
        let f = fixture();
        // Sibling tasks of one chain are mutually concurrent.
        assert_eq!(f.t0.compare_barrier_aware(&f.t1), Ordering::Concurrent);
        // Tasks run concurrently with the creator's continuation after
        // their creation...
        assert_eq!(f.cont0.compare_barrier_aware(&f.t0), Ordering::Concurrent);
        assert_eq!(f.cont1.compare_barrier_aware(&f.t0), Ordering::Concurrent);
        // ...and with other team members' same-interval code.
        assert_eq!(f.sibling.compare_barrier_aware(&f.t0), Ordering::Concurrent);
        assert_eq!(f.sibling.compare_barrier_aware(&f.cont1), Ordering::Concurrent);
    }

    #[test]
    fn creation_order_is_exact_within_the_continuation() {
        let f = fixture();
        // Continuation code between the two creations precedes t1 (the
        // staircase): cont0 is a proper prefix of t1's label.
        assert!(f.cont0.compare_barrier_aware(&f.t1).is_sequential());
        // But the same chunk is concurrent with the already-created t0
        // (checked above) — one flat episode label could not express both.
        assert_eq!(f.cont0.compare_barrier_aware(&f.t0), Ordering::Concurrent);
    }

    #[test]
    fn tasks_are_ordered_against_pre_creation_and_post_sync_code() {
        let f = fixture();
        // Before any creation and after a taskwait the creator carries M,
        // a proper prefix of every task label: sequential.
        assert!(f.creator.compare_barrier_aware(&f.t0).is_sequential());
        assert!(f.creator.compare_barrier_aware(&f.t1).is_sequential());
        // After a team barrier (which waits for outstanding tasks), the
        // creator's bumped label is generation-ordered after the tasks.
        let after_barrier = f.creator.bump();
        assert_eq!(after_barrier.compare_barrier_aware(&f.t0), Ordering::After);
        // Other members' post-barrier intervals are ordered too.
        assert_eq!(f.sibling.bump().compare_barrier_aware(&f.t1), Ordering::After);
    }

    #[test]
    fn tasks_across_a_taskwait_are_ordered() {
        let f = fixture();
        // taskwait restores M; the next creation uses a later fork seq,
        // so the [e,1] fork-point pairs order the chains case-2.
        let t_late = f.creator.task_label(2);
        assert_eq!(f.t0.compare_barrier_aware(&t_late), Ordering::Before);
        assert_eq!(f.t1.compare_barrier_aware(&t_late), Ordering::Before);
    }

    #[test]
    fn taskgroup_scope_is_a_partial_restore() {
        let f = fixture();
        // taskgroup opens with t0 outstanding; group tasks chain off the
        // current continuation. Group end restores cont0: post-group code
        // is ordered after the group's tasks but still concurrent with t0.
        let g0 = f.cont0.task_label(1);
        let post_group = &f.cont0;
        assert!(post_group.compare_barrier_aware(&g0).is_sequential());
        assert_eq!(post_group.compare_barrier_aware(&f.t0), Ordering::Concurrent);
        assert_eq!(g0.compare_barrier_aware(&f.t0), Ordering::Concurrent);
    }

    #[test]
    fn nested_parallel_inside_a_chain_stays_concurrent_with_tasks() {
        let f = fixture();
        // A nested team forked while t0 is outstanding chains off the
        // continuation; its members stay concurrent with t0.
        let inner = f.cont0.fork_point(1).fork(0, 2);
        assert_eq!(inner.compare_barrier_aware(&f.t0), Ordering::Concurrent);
        assert!(inner.compare_barrier_aware(&f.cont0).is_sequential());
    }

    #[test]
    fn explain_names_task_roles() {
        let f = fixture();
        let lines = explain_concurrency(&f.cont0, &f.t0).join("\n");
        assert!(lines.contains("task-creation fork"), "{lines}");
        assert!(lines.contains("A is the creator's continuation"), "{lines}");
        assert!(lines.contains("B is the created task"), "{lines}");
        assert!(lines.contains("CONCURRENT"), "{lines}");
    }
}
