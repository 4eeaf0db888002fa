//! What the analyzer's concurrency structure costs per meta row, counted
//! by a global allocator over `System` rather than read from `/proc`.
//!
//! LULESH makes six sequential regions per step, each row one barrier
//! interval; at 10³ and 10⁴ regions the check is the same:
//!
//! * (a) the bytes `build_structure` leaves live, per meta row, stay at
//!   or below [`BYTES_PER_ROW`];
//! * (b) its peak exceeds those final bytes by at most [`PEAK_SLACK`],
//!   whatever the row count: no copy of the whole round is held while
//!   it is filed.
//!
//! The ignored `the_measured_sizes_hold_the_same_bounds` runs the same
//! checks at every size EXPERIMENTS.md's table reports (`cargo test
//! --release --test analyzer_memory -- --ignored --nocapture`: ≈ 15 s in
//! release, and the 3 × 10⁵-region session holds ≈ 0.45 GB).

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use sword::offline::intervals::{build_structure, Group, Interval};
use sword::offline::LoadedSession;
use sword::ompsim::SimConfig;
use sword::runtime::{run_collected, SwordConfig};
use sword::trace::SessionDir;
use sword::workloads::{find_workload, RunConfig};

/// Live-bytes bound per meta row. 2-thread LULESH measures 214 B at 10³
/// regions and 201 B at 10⁴ (72 B of them the row itself, as a group
/// member; the rest the group, its index entries, its task and the
/// region index). The slack over the larger figure, 26 B, is what
/// power-of-two growth of the group and task vectors moves between
/// sizes; the loop before this bound kept 414 and 397 B.
const BYTES_PER_ROW: usize = 240;

/// Room for what a round allocates besides its result and frees again:
/// a region's fork label while it is indexed, the partner list of the
/// region being paired. Measured: 72 B at both sizes; a round copied
/// whole held 0.7 and 5.6 MB more than it kept.
const PEAK_SLACK: usize = 64 << 10;

/// Counts the live and peak bytes of every allocation in this binary.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged to the system allocator.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, forwarded.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Collects 2-thread LULESH at `size` steps (6 regions each).
fn collect(size: u64) -> SessionDir {
    let path: PathBuf =
        std::env::temp_dir().join(format!("sword-memory-{size}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let lulesh = find_workload("LULESH").expect("LULESH is a workload");
    let cfg = RunConfig { threads: 2, size };
    run_collected(SwordConfig::new(&path), SimConfig::default(), |sim| lulesh.execute(sim, &cfg))
        .expect("collect LULESH");
    SessionDir::new(path)
}

/// Builds the structure of a LULESH session of `size` steps and checks
/// (a) and (b) against the allocator's counts.
fn check(size: u64) {
    let dir = collect(size);
    let session = LoadedSession::load(&dir).expect("load the session");
    let rows = session.interval_count();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let structure = build_structure(&session).expect("build the structure");
    let (live, peak) =
        (LIVE.load(Ordering::Relaxed) - before, PEAK.load(Ordering::Relaxed) - before);

    let groups = &structure.groups;
    let members: usize = groups.iter().map(|g| g.members.capacity()).sum();
    eprintln!(
        "{} regions, {rows} rows: {live} B live ({} B/row: members {}, groups {}, \
         the rest {}), peak {peak} B (+{} B over live)",
        session.regions.len(),
        live / rows,
        members * size_of::<Interval>() / rows,
        groups.capacity() * size_of::<Group>() / rows,
        (live - members * size_of::<Interval>() - groups.capacity() * size_of::<Group>()) / rows,
        peak - live,
    );
    assert_eq!(members, rows, "each group's members are allocated at their exact count");
    assert!(live <= BYTES_PER_ROW * rows, "(a) {live} B for {rows} rows");
    assert!(peak - live <= PEAK_SLACK, "(b) peak {peak} B against {live} B live");
    drop(structure);
    std::fs::remove_dir_all(dir.path()).expect("remove the session");
}

#[test]
fn structure_bytes_per_row_are_bounded_and_filing_copies_no_round() {
    // 10³ and 10⁴ regions.
    for size in [167, 1_667] {
        check(size);
    }
}

#[test]
#[ignore = "≈ 0.45 GB, minutes in debug: the sizes of EXPERIMENTS.md's bytes-per-row table"]
fn the_measured_sizes_hold_the_same_bounds() {
    // `many_regions`, then 6 × 10³, 6 × 10⁴ and 3 × 10⁵ regions.
    for size in [240, 1_000, 10_000, 50_000] {
        check(size);
    }
}
