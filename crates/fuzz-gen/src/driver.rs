//! The differential driver: one generated program through every detector,
//! all verdicts reduced to statement pairs and diffed against the oracle.
//!
//! Contract checked per program:
//!
//! - SWORD batch analysis reports **exactly** the oracle's racy statement
//!   pairs (the oracle replays SWORD's semantics — same-thread skips,
//!   barrier-aware label comparison — so equality is sound, not just
//!   soundness/completeness bounds).
//! - SWORD live (incremental) analysis reports exactly what batch does.
//! - ARCHER reports a **subset** of the oracle (FastTrack-style shadow
//!   cells keep at most two access slots per element, so it may miss
//!   pairs, but must never invent one).
//! - Nothing panics, and no verdict ever names a PC outside the generated
//!   program's interned sites.
//!
//! Any violation is a [`CheckReport`] failure; [`run_fuzz`] then shrinks
//! the offending program to a minimal reproducer and persists it.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::{fs, process};

use archer_sim::{ArcherConfig, ArcherTool};
use sword_obs::Obs;
use sword_offline::{analyze, AnalysisConfig, LiveAnalyzer};
use sword_ompsim::{OmpSim, SimConfig};
use sword_runtime::{run_collected, SwordConfig};
use sword_trace::{PcId, PcTable, SessionDir};

use crate::exec::run_program;
use crate::gen::{generate, GenConfig};
use crate::oracle::{self, Oracle};
use crate::program::{Program, SITE_FILE};

/// A race verdict reduced to the unordered pair of statement ids.
pub type StmtPair = (u32, u32);

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

/// A scratch directory under the system temp dir that is unique across
/// processes (pid) *and* within one (process-wide counter) — pid-only
/// names collide when one test binary checks many programs.
pub fn unique_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sword-fuzz-{tag}-{}-{n}", process::id()))
}

/// Every detector's verdict set for one program, as statement pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdicts {
    /// Ground truth from program structure.
    pub oracle: BTreeSet<StmtPair>,
    /// SWORD batch offline analysis.
    pub sword_batch: BTreeSet<StmtPair>,
    /// SWORD incremental (live) analysis of the same session.
    pub sword_live: BTreeSet<StmtPair>,
    /// ARCHER's shadow-cell verdicts.
    pub archer: BTreeSet<StmtPair>,
}

/// Outcome of one full differential check.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All verdict sets (best-effort: a stage that failed leaves its set
    /// empty).
    pub verdicts: Verdicts,
    /// Human-readable contract violations; empty means the program passed.
    pub failures: Vec<String>,
    /// Dynamic access instances the oracle planned.
    pub instances: usize,
}

impl CheckReport {
    /// `true` when every detector honored the contract.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How a SWORD pipeline stage failed.
pub(crate) enum PipelineError {
    /// A clean `io::Error` — under fault injection this is acceptable
    /// degradation, on a pristine session it is a failure.
    Io(io::Error),
    /// A verdict named a PC that does not resolve to a generated site.
    /// Never acceptable: it means the analyzer fabricated evidence.
    BadPc(String),
}

impl PipelineError {
    fn describe(&self) -> String {
        match self {
            PipelineError::Io(e) => format!("i/o error: {e}"),
            PipelineError::BadPc(m) => format!("bad pc in verdict: {m}"),
        }
    }
}

impl From<io::Error> for PipelineError {
    fn from(e: io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// Runs `prog` through oracle, SWORD (batch + live) and ARCHER, diffing
/// all verdicts. With `fault_inject`, additionally re-analyzes corrupted
/// copies of the session (see [`crate::fault`]) asserting graceful
/// degradation. Always removes its scratch session directory.
pub fn check_program(prog: &Program, fault_inject: bool) -> CheckReport {
    check(prog, fault_inject, None)
}

/// [`check_program`], with every analysis recording into `obs`.
fn check(prog: &Program, fault_inject: bool, obs: Option<&Obs>) -> CheckReport {
    let mut report = CheckReport::default();
    let oracle = match catch(|| oracle::analyze(prog)) {
        Ok(o) => o,
        Err(e) => {
            report.failures.push(format!("oracle panicked: {e}"));
            return report;
        }
    };
    report.instances = oracle.instances;
    report.verdicts.oracle.clone_from(&oracle.pairs);

    let dir = unique_dir("check");
    match catch(|| run_sword(prog, &oracle, &dir, obs)) {
        Ok(Ok(out)) => {
            report.verdicts.sword_batch = out.batch;
            report.verdicts.sword_live = out.live;
            if report.verdicts.sword_batch != oracle.pairs {
                report.failures.push(diff_failure(
                    "sword batch != oracle",
                    &report.verdicts.sword_batch,
                    &oracle.pairs,
                ));
            }
            if report.verdicts.sword_live != report.verdicts.sword_batch {
                report.failures.push(diff_failure(
                    "sword live != sword batch",
                    &report.verdicts.sword_live,
                    &report.verdicts.sword_batch,
                ));
            }
            // Provenance must not depend on how the analysis was driven:
            // every race's full evidence chain (coordinates, label
            // derivation, solver witness, log byte ranges) is required to
            // be byte-identical between batch and live ingestion.
            if out.live_evidence != out.batch_evidence {
                report.failures.push(format!(
                    "sword live evidence != batch evidence\nbatch:\n{}\nlive:\n{}",
                    out.batch_evidence.join("---\n"),
                    out.live_evidence.join("---\n")
                ));
            }
            if fault_inject {
                crate::fault::inject(
                    &oracle,
                    &SessionDir::new(&dir),
                    &report.verdicts.sword_batch.clone(),
                    &mut report,
                    obs,
                );
            }
        }
        Ok(Err(e)) => report.failures.push(format!("sword pipeline: {}", e.describe())),
        Err(e) => report.failures.push(format!("sword pipeline panicked: {e}")),
    }
    let _ = fs::remove_dir_all(&dir);

    match catch(|| run_archer(prog, &oracle)) {
        Ok(Ok(archer)) => {
            report.verdicts.archer = archer;
            let extra: Vec<&StmtPair> = report.verdicts.archer.difference(&oracle.pairs).collect();
            if !extra.is_empty() {
                report
                    .failures
                    .push(format!("archer reported pairs outside the oracle: {extra:?}"));
            }
        }
        Ok(Err(e)) => report.failures.push(format!("archer: {}", e.describe())),
        Err(e) => report.failures.push(format!("archer panicked: {e}")),
    }
    report
}

/// SWORD's verdicts plus the fully rendered evidence chain of every race,
/// in sorted race order, from both analysis modes.
struct SwordOutcome {
    batch: BTreeSet<StmtPair>,
    live: BTreeSet<StmtPair>,
    /// `render` + `render_evidence` per race — the exact text `sword
    /// explain` would print, used for batch/live byte-identity.
    batch_evidence: Vec<String>,
    live_evidence: Vec<String>,
}

/// `config`, recording into `obs` when there is one.
pub(crate) fn observed(config: AnalysisConfig, obs: Option<&Obs>) -> AnalysisConfig {
    match obs {
        Some(obs) => config.with_obs(obs.clone()),
        None => config,
    }
}

/// Collects a session for `prog` in `dir`, then analyzes it both in batch
/// and incrementally.
fn run_sword(
    prog: &Program,
    oracle: &Oracle,
    dir: &std::path::Path,
    obs: Option<&Obs>,
) -> Result<SwordOutcome, PipelineError> {
    let cfg = SwordConfig::new(dir).buffer_events(128).live();
    let ((), _stats) =
        run_collected(cfg, SimConfig::default(), |sim| run_program(sim, prog, &oracle.plan))?;
    let session = SessionDir::new(dir);
    let batch = analyze(&session, &observed(AnalysisConfig::default(), obs))?;
    let batch_pairs = stmt_pairs(&session, batch.races.iter().map(|r| (r.key.pc_lo, r.key.pc_hi)))?;

    let live_cfg = observed(AnalysisConfig::sequential(), obs);
    let mut live = LiveAnalyzer::new(&session, &live_cfg);
    let mut polls = 0u32;
    loop {
        let delta = live.poll()?;
        if delta.finished {
            break;
        }
        polls += 1;
        if polls > 64 {
            return Err(PipelineError::Io(io::Error::other(
                "live analyzer did not reach `finished` after 64 polls of a closed session",
            )));
        }
    }
    let live_result = live.into_result()?;
    let live_pairs =
        stmt_pairs(&session, live_result.races.iter().map(|r| (r.key.pc_lo, r.key.pc_hi)))?;
    let pcs = PcTable::read_from(BufReader::new(fs::File::open(session.pcs_path())?))?;
    let chain =
        |r: &sword_offline::Race| format!("{}\n{}", r.render(&pcs), r.render_evidence(&pcs));
    Ok(SwordOutcome {
        batch: batch_pairs,
        live: live_pairs,
        batch_evidence: batch.races.iter().map(chain).collect(),
        live_evidence: live_result.races.iter().map(chain).collect(),
    })
}

/// Runs `prog` under ARCHER and returns its verdicts as statement pairs.
fn run_archer(prog: &Program, oracle: &Oracle) -> Result<BTreeSet<StmtPair>, PipelineError> {
    let tool = Arc::new(ArcherTool::new(ArcherConfig::default()));
    let sim = OmpSim::with_tool(tool.clone());
    run_program(&sim, prog, &oracle.plan);
    let pcs = sim.export_pcs();
    let mut out = BTreeSet::new();
    for r in tool.races() {
        let a = stmt_of(&pcs, r.pc_lo).map_err(PipelineError::BadPc)?;
        let b = stmt_of(&pcs, r.pc_hi).map_err(PipelineError::BadPc)?;
        out.insert((a.min(b), a.max(b)));
    }
    Ok(out)
}

/// Maps `(pc_lo, pc_hi)` race keys to normalized statement pairs using
/// the session's PC table.
pub(crate) fn stmt_pairs(
    session: &SessionDir,
    pairs: impl IntoIterator<Item = (PcId, PcId)>,
) -> Result<BTreeSet<StmtPair>, PipelineError> {
    let pcs = PcTable::read_from(BufReader::new(fs::File::open(session.pcs_path())?))?;
    let mut out = BTreeSet::new();
    for (lo, hi) in pairs {
        let a = stmt_of(&pcs, lo).map_err(PipelineError::BadPc)?;
        let b = stmt_of(&pcs, hi).map_err(PipelineError::BadPc)?;
        out.insert((a.min(b), a.max(b)));
    }
    Ok(out)
}

/// Resolves a verdict PC to its generated statement id (`SITE_FILE` line
/// minus one). Unknown or foreign PCs are errors: a generated program
/// touches nothing outside its own sites.
fn stmt_of(pcs: &PcTable, pc: PcId) -> Result<u32, String> {
    let loc = pcs.resolve(pc).ok_or_else(|| format!("verdict names unknown pc {pc}"))?;
    if loc.file != SITE_FILE || loc.line == 0 {
        return Err(format!("verdict names foreign site {}:{}", loc.file, loc.line));
    }
    Ok(loc.line - 1)
}

fn diff_failure(name: &str, got: &BTreeSet<StmtPair>, want: &BTreeSet<StmtPair>) -> String {
    let missing: Vec<&StmtPair> = want.difference(got).collect();
    let extra: Vec<&StmtPair> = got.difference(want).collect();
    format!("{name}: missing {missing:?}, unexpected {extra:?}")
}

/// Runs `f`, converting a panic into its message.
pub(crate) fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Fuzzing campaign options.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Base seed; iteration `i` uses `seed.wrapping_add(i)`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Top-level team sizes, cycled per iteration.
    pub teams: Vec<u64>,
    /// Also run session fault injection on every program.
    pub fault_inject: bool,
    /// Generate with the tasking-heavy profile
    /// ([`GenConfig::tasking_with_team`]): mostly tasks, depend chains,
    /// taskwait/taskgroup, and dynamic/guided/ordered loops.
    pub tasking: bool,
    /// Where to persist shrunk reproducers of failures.
    pub corpus_dir: Option<PathBuf>,
    /// Observability sink (`--obs`): every analysis of the campaign,
    /// fault injection's and the shrinker's included, journals its
    /// stages and records its rows here.
    pub obs: Option<Obs>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            iters: 100,
            teams: vec![2, 4, 8],
            fault_inject: false,
            tasking: false,
            corpus_dir: None,
            obs: None,
        }
    }
}

/// One contract violation found by a campaign, shrunk.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Seed of the original failing program.
    pub seed: u64,
    /// Top-level team size it ran with.
    pub team: u64,
    /// The violations, re-derived from the shrunk reproducer.
    pub failures: Vec<String>,
    /// Minimal reproducer.
    pub program: Program,
    /// Corpus file it was saved to, if a corpus dir was given.
    pub saved: Option<PathBuf>,
}

/// Campaign totals.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Programs checked.
    pub iters: u64,
    /// Programs whose oracle found at least one racy pair.
    pub programs_with_races: u64,
    /// Total oracle pairs across all programs.
    pub oracle_pairs: u64,
    /// Shrunk contract violations (empty = clean campaign).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzSummary {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} programs checked, {} racy ({} oracle pairs), {} failure(s)",
            self.iters,
            self.programs_with_races,
            self.oracle_pairs,
            self.failures.len()
        );
        for f in &self.failures {
            let _ = write!(s, "\n  seed {} team {}: {}", f.seed, f.team, f.failures.join("; "));
            if let Some(p) = &f.saved {
                let _ = write!(s, " (saved to {})", p.display());
            }
        }
        s
    }
}

/// Runs a fuzzing campaign. `progress` is called after every iteration
/// with the 0-based index and the summary so far.
pub fn run_fuzz(opts: &FuzzOptions, mut progress: impl FnMut(u64, &FuzzSummary)) -> FuzzSummary {
    let teams = if opts.teams.is_empty() { vec![2, 4, 8] } else { opts.teams.clone() };
    let mut summary = FuzzSummary::default();
    for i in 0..opts.iters {
        let seed = opts.seed.wrapping_add(i);
        let team = teams[(i % teams.len() as u64) as usize];
        let cfg = if opts.tasking {
            GenConfig::tasking_with_team(team)
        } else {
            GenConfig::with_team(team)
        };
        let prog = generate(seed, &cfg);
        let obs = opts.obs.as_ref();
        let report = check(&prog, opts.fault_inject, obs);
        summary.iters += 1;
        if !report.verdicts.oracle.is_empty() {
            summary.programs_with_races += 1;
        }
        summary.oracle_pairs += report.verdicts.oracle.len() as u64;
        if !report.ok() {
            let shrunk = crate::shrink::shrink(&prog, |p| !check(p, opts.fault_inject, obs).ok());
            let shrunk_report = check(&shrunk, opts.fault_inject, obs);
            let failures = if shrunk_report.ok() {
                // Shrinking raced the failure away (flaky repro) — keep
                // the original evidence.
                report.failures.clone()
            } else {
                shrunk_report.failures.clone()
            };
            let saved = opts.corpus_dir.as_ref().and_then(|dir| {
                let mut notes = vec![format!(
                    "fuzz failure: seed {seed}, team {team} ({} violation(s))",
                    failures.len()
                )];
                notes.extend(failures.iter().cloned());
                notes.push("rust reproducer:".to_string());
                notes.extend(shrunk.to_rust().lines().map(str::to_string));
                crate::corpus::save(dir, &format!("failure-seed{seed}-team{team}"), &shrunk, &notes)
                    .ok()
            });
            summary.failures.push(FuzzFailure { seed, team, failures, program: shrunk, saved });
        }
        progress(i, &summary);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Access, IndexExpr, Region, Stmt};
    use sword_trace::AccessKind;

    fn prog(regions: Vec<Region>) -> Program {
        Program { buffers: vec![4], regions }
    }

    fn write(id: u32, index: IndexExpr) -> Stmt {
        Stmt::Access(Access { id, buf: 0, kind: AccessKind::Write, index })
    }

    #[test]
    fn known_racy_program_agrees_across_detectors() {
        // Two threads both write element 0 with no synchronization.
        let p = prog(vec![Region { threads: 2, body: vec![write(0, IndexExpr::Const(0))] }]);
        let r = check_program(&p, false);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.verdicts.oracle.iter().copied().collect::<Vec<_>>(), vec![(0, 0)]);
        assert_eq!(r.verdicts.sword_batch, r.verdicts.oracle);
        assert_eq!(r.verdicts.sword_live, r.verdicts.oracle);
        // ARCHER sees this one too: both accesses hit the same shadow cell.
        assert_eq!(r.verdicts.archer, r.verdicts.oracle);
    }

    #[test]
    fn known_race_free_program_is_silent_everywhere() {
        // Tid-strided writes partition the buffer; a barrier then a read
        // of a neighbor element is ordered.
        let p = prog(vec![Region {
            threads: 4,
            body: vec![
                write(0, IndexExpr::Tid { stride: 1, off: 0 }),
                Stmt::Barrier,
                Stmt::Access(Access {
                    id: 1,
                    buf: 0,
                    kind: AccessKind::Read,
                    index: IndexExpr::Tid { stride: 1, off: 1 },
                }),
            ],
        }]);
        let r = check_program(&p, false);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert!(r.verdicts.oracle.is_empty());
        assert!(r.verdicts.sword_batch.is_empty());
        assert!(r.verdicts.sword_live.is_empty());
        assert!(r.verdicts.archer.is_empty());
    }

    #[test]
    fn known_racy_tasking_program_agrees_across_detectors() {
        use crate::program::TaskBlock;
        // Two dependence-free sibling tasks of one creator write the same
        // element: a task-vs-task race every detector must see.
        let task = |id| {
            Stmt::Task(TaskBlock {
                deps: vec![],
                body: vec![Access {
                    id,
                    buf: 0,
                    kind: AccessKind::Write,
                    index: IndexExpr::Const(0),
                }],
            })
        };
        let p = prog(vec![Region { threads: 1, body: vec![task(0), task(1)] }]);
        let r = check_program(&p, false);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.verdicts.oracle.iter().copied().collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(r.verdicts.sword_batch, r.verdicts.oracle);
        assert_eq!(r.verdicts.sword_live, r.verdicts.oracle);
    }

    #[test]
    fn known_race_free_tasking_program_is_silent_everywhere() {
        use crate::program::{DepKind, TaskBlock, TaskDep};
        // out → inout dependence chain, then a taskwait before the
        // continuation reads: fully ordered.
        let task = |id, kind| {
            Stmt::Task(TaskBlock {
                deps: vec![TaskDep { var: 0, kind }],
                body: vec![Access {
                    id,
                    buf: 0,
                    kind: AccessKind::Write,
                    index: IndexExpr::Const(0),
                }],
            })
        };
        let p = prog(vec![Region {
            threads: 2,
            body: vec![
                task(0, DepKind::Out),
                task(1, DepKind::InOut),
                Stmt::Taskwait,
                Stmt::Access(Access {
                    id: 2,
                    buf: 0,
                    kind: AccessKind::Read,
                    index: IndexExpr::Const(0),
                }),
            ],
        }]);
        let r = check_program(&p, false);
        assert!(r.ok(), "failures: {:?}", r.failures);
        // With two creators, dependence and taskwait only order *within*
        // a creator: cross-creator task pairs race, and each creator's
        // read — ordered against its own tasks — races the other's.
        assert_eq!(
            r.verdicts.oracle.iter().copied().collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]
        );
        assert_eq!(r.verdicts.sword_batch, r.verdicts.oracle);
        assert_eq!(r.verdicts.sword_live, r.verdicts.oracle);
        assert!(r.verdicts.archer.is_subset(&r.verdicts.oracle));

        // The genuinely quiet version: one creator.
        let p = prog(vec![Region {
            threads: 1,
            body: vec![
                task(0, DepKind::Out),
                task(1, DepKind::InOut),
                Stmt::Taskwait,
                Stmt::Access(Access {
                    id: 2,
                    buf: 0,
                    kind: AccessKind::Read,
                    index: IndexExpr::Const(0),
                }),
            ],
        }]);
        let r = check_program(&p, false);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert!(r.verdicts.oracle.is_empty(), "{:?}", r.verdicts.oracle);
        assert!(r.verdicts.sword_batch.is_empty());
        assert!(r.verdicts.sword_live.is_empty());
        assert!(r.verdicts.archer.is_empty());
    }

    #[test]
    fn ordered_dynamic_loop_is_silent_under_every_detector() {
        use crate::program::Sched;
        let p = prog(vec![Region {
            threads: 2,
            body: vec![Stmt::For {
                n: 4,
                nowait: false,
                sched: Sched::Dynamic { chunk: 1 },
                ordered: true,
                body: vec![Access {
                    id: 0,
                    buf: 0,
                    kind: AccessKind::Write,
                    index: IndexExpr::Const(0),
                }],
            }],
        }]);
        let r = check_program(&p, false);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert!(r.verdicts.oracle.is_empty());
        assert!(r.verdicts.sword_batch.is_empty());
        assert!(r.verdicts.archer.is_empty());
        // Drop the ordered clause and the same loop races everywhere.
        let Stmt::For { body, .. } = &p.regions[0].body[0] else { unreachable!() };
        let racy = prog(vec![Region {
            threads: 2,
            body: vec![Stmt::For {
                n: 4,
                nowait: false,
                sched: Sched::Dynamic { chunk: 1 },
                ordered: false,
                body: body.clone(),
            }],
        }]);
        let r = check_program(&racy, false);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert_eq!(r.verdicts.oracle.iter().copied().collect::<Vec<_>>(), vec![(0, 0)]);
        assert_eq!(r.verdicts.sword_batch, r.verdicts.oracle);
    }

    #[test]
    fn check_is_deterministic_for_generated_programs() {
        let p = generate(5, &GenConfig::default());
        let a = check_program(&p, false);
        let b = check_program(&p, false);
        assert!(a.ok(), "failures: {:?}", a.failures);
        assert_eq!(a.verdicts, b.verdicts);
    }

    #[test]
    fn fuzz_smoke_campaign_is_clean() {
        let opts = FuzzOptions { seed: 100, iters: 6, teams: vec![2, 4], ..Default::default() };
        let summary = run_fuzz(&opts, |_, _| {});
        assert_eq!(summary.iters, 6);
        assert!(summary.failures.is_empty(), "{}", summary.render());
    }

    #[test]
    fn tasking_fuzz_smoke_campaign_is_clean() {
        let opts = FuzzOptions {
            seed: 300,
            iters: 6,
            teams: vec![2, 4],
            tasking: true,
            ..Default::default()
        };
        let summary = run_fuzz(&opts, |_, _| {});
        assert_eq!(summary.iters, 6);
        assert!(summary.failures.is_empty(), "{}", summary.render());
    }

    #[test]
    fn unique_dirs_never_collide() {
        let a = unique_dir("t");
        let b = unique_dir("t");
        assert_ne!(a, b);
    }
}
