//! The SWORD offline race analyzer (§III-B of the paper).
//!
//! Consumes a session directory written by `sword-runtime` and reports
//! data races:
//!
//! 1. **Load** the per-thread meta-data files (Table I rows), the region
//!    table, and the PC table ([`load::LoadedSession`]).
//! 2. **Reconstruct concurrency**: each barrier interval's full
//!    offset-span label is its region's fork label extended by the row's
//!    `[offset, span]` pair; two intervals may race iff their labels
//!    compare concurrent under the barrier-aware offset-span rule
//!    ([`sword_osl::Label::compare_barrier_aware`] — case 1/2 of the
//!    paper plus the bid ordering the paper applies within a region).
//!    Interval pairs are enumerated region-pair-wise so that sequential
//!    region pairs are skipped wholesale ([`intervals`]).
//! 3. **Stream** each interval's events out of the compressed log image
//!    frame by frame (never materializing an uncompressed log) and
//!    summarize them into an augmented red-black interval tree of strided
//!    intervals with access metadata — operation, size, PC, held-mutex
//!    set ([`build`]).
//! 4. **Compare** trees of concurrent intervals: coarse range overlap via
//!    the tree's `max_end` augmentation, then the exact strided-overlap
//!    constraint (the tiered Diophantine solve, [`sword_solver::solve_tiered`]),
//!    plus the write/atomic/mutex side conditions ([`race`]).
//!
//! Races are deduplicated by unordered source-location pair, which is how
//! the paper's tables count them.
//!
//! Steps 2–4 are one incremental analyzer (the private `pipeline`
//! module) that runs in rounds on one worker pool: [`analyze()`] is a single
//! round holding every interval of a finished session, and each
//! [`LiveAnalyzer::poll`] of a session still being written is another.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod build;
pub mod intervals;
pub mod live;
pub mod load;
mod pipeline;
pub mod race;
mod regions;
pub mod report;
mod stages;
pub mod verdicts;

pub use analyze::{analyze, analyze_loaded, AnalysisConfig, AnalysisResult, AnalysisStats};
pub use live::{LiveAnalyzer, PollDelta};
pub use load::LoadedSession;
pub use race::{AccessSite, Evidence, Race, RaceKey};
pub use report::{render_explain, render_json, render_text};
pub use verdicts::VerdictCache;
