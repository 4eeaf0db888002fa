//! Session fault injection: re-analyze deliberately corrupted copies of a
//! collected session and assert graceful degradation.
//!
//! The contract (ISSUE §fault-injection): a truncated, bit-flipped or
//! reordered session file may produce a **clean error** or a **partial
//! report**, but never a wrong verdict (a statement pair outside the
//! oracle's set, or a PC that resolves outside the generated program) and
//! never a panic.
//!
//! Fault catalogue — all deterministic, no RNG:
//!
//! - `truncate-log`: byte-truncate the largest thread log to half.
//! - `truncate-meta`: keep only the first half of the largest thread
//!   meta's lines.
//! - `truncate-regions`: keep only the first half of the region table.
//! - `reverse-meta`: reverse the largest thread meta's lines. Metadata
//!   records carry absolute byte ranges, so grouping is order-insensitive
//!   and this fault must yield **exactly** the pristine verdicts.
//! - `flip-header-N`: XOR one byte of the first frame header of the
//!   largest log (magic / raw_len / payload_len low byte — never the high
//!   payload-length bytes, which would merely force a huge bounded
//!   allocation instead of exercising a validation path).

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

use sword_obs::Obs;
use sword_offline::{analyze, AnalysisConfig, LiveAnalyzer};
use sword_trace::SessionDir;

use crate::driver::{catch, observed, stmt_pairs, CheckReport, PipelineError, StmtPair};
use crate::oracle::Oracle;

/// How a fault's verdicts must relate to the pristine run's.
enum Expect {
    /// Partial report: pairs must be a subset of the oracle's.
    SubsetOfOracle,
    /// Content-preserving permutation: pairs must equal the pristine
    /// batch verdicts exactly.
    EqualToPristine,
}

/// Applies a corruption to a session copy rooted at the given path.
type ApplyFn = Box<dyn Fn(&SessionDir) -> io::Result<()>>;

struct Fault {
    name: String,
    expect: Expect,
    apply: ApplyFn,
}

/// Runs the whole fault catalogue against `pristine`, appending any
/// contract violation to `report.failures`. Every analysis records into
/// `obs` when there is one.
pub fn inject(
    oracle: &Oracle,
    pristine: &SessionDir,
    pristine_batch: &BTreeSet<StmtPair>,
    report: &mut CheckReport,
    obs: Option<&Obs>,
) {
    let faults = match catalogue(pristine) {
        Ok(f) => f,
        Err(e) => {
            report.failures.push(format!("fault setup: could not inspect session: {e}"));
            return;
        }
    };
    for fault in faults {
        if let Err(e) = run_fault(oracle, pristine, pristine_batch, &fault, report, obs) {
            report.failures.push(format!("fault {}: harness i/o error: {e}", fault.name));
        }
    }
}

fn run_fault(
    oracle: &Oracle,
    pristine: &SessionDir,
    pristine_batch: &BTreeSet<StmtPair>,
    fault: &Fault,
    report: &mut CheckReport,
    obs: Option<&Obs>,
) -> io::Result<()> {
    let copy_root = crate::driver::unique_dir("fault");
    copy_session(pristine.path(), &copy_root)?;
    let copy = SessionDir::new(&copy_root);
    (fault.apply)(&copy)?;

    for (stage, outcome) in
        [("batch", catch(|| batch_pairs(&copy, obs))), ("live", catch(|| live_pairs(&copy, obs)))]
    {
        match outcome {
            Err(panic_msg) => report
                .failures
                .push(format!("fault {}: {stage} analyzer panicked: {panic_msg}", fault.name)),
            Ok(Err(PipelineError::Io(_))) => {} // clean refusal — graceful
            Ok(Err(PipelineError::BadPc(m))) => report.failures.push(format!(
                "fault {}: {stage} verdict resolved outside the program: {m}",
                fault.name
            )),
            Ok(Ok(pairs)) => {
                let bad = match fault.expect {
                    Expect::SubsetOfOracle => !pairs.is_subset(&oracle.pairs),
                    Expect::EqualToPristine => &pairs != pristine_batch,
                };
                if bad {
                    report.failures.push(format!(
                        "fault {}: {stage} produced wrong verdicts {:?} (oracle {:?}, pristine {:?})",
                        fault.name, pairs, oracle.pairs, pristine_batch
                    ));
                }
            }
        }
    }
    fs::remove_dir_all(&copy_root)
}

fn batch_pairs(
    session: &SessionDir,
    obs: Option<&Obs>,
) -> Result<BTreeSet<StmtPair>, PipelineError> {
    let result = analyze(session, &observed(AnalysisConfig::sequential(), obs))?;
    stmt_pairs(session, result.races.iter().map(|r| (r.key.pc_lo, r.key.pc_hi)))
}

fn live_pairs(
    session: &SessionDir,
    obs: Option<&Obs>,
) -> Result<BTreeSet<StmtPair>, PipelineError> {
    let cfg = observed(AnalysisConfig::sequential(), obs);
    let mut live = LiveAnalyzer::new(session, &cfg);
    let mut polls = 0u32;
    loop {
        let delta = live.poll()?;
        if delta.finished {
            break;
        }
        polls += 1;
        if polls > 64 {
            // The session is closed; a live analyzer that never converges
            // on it is refusing, not looping — treat as a clean error.
            return Err(PipelineError::Io(io::Error::other("live analyzer never finished")));
        }
    }
    let result = live.into_result()?;
    stmt_pairs(session, result.races.iter().map(|r| (r.key.pc_lo, r.key.pc_hi)))
}

/// Builds the fault list for this session. Targets are the *largest* log
/// and meta files (ties broken by smaller tid) so the corruption lands on
/// real content.
fn catalogue(session: &SessionDir) -> io::Result<Vec<Fault>> {
    let mut faults = Vec::new();
    let Some(log_tid) = largest(session, |s, t| s.thread_log(t))? else {
        return Ok(faults);
    };
    let meta_tid = largest(session, |s, t| s.thread_meta(t))?.unwrap_or(log_tid);

    faults.push(Fault {
        name: "truncate-log".into(),
        expect: Expect::SubsetOfOracle,
        apply: Box::new(move |s| truncate_file(&s.thread_log(log_tid))),
    });
    faults.push(Fault {
        name: "truncate-meta".into(),
        expect: Expect::SubsetOfOracle,
        apply: Box::new(move |s| keep_first_half_lines(&s.thread_meta(meta_tid))),
    });
    faults.push(Fault {
        name: "truncate-regions".into(),
        expect: Expect::SubsetOfOracle,
        apply: Box::new(|s| keep_first_half_lines(&s.regions_path())),
    });
    faults.push(Fault {
        name: "reverse-meta".into(),
        expect: Expect::EqualToPristine,
        apply: Box::new(move |s| reverse_lines(&s.thread_meta(meta_tid))),
    });
    // Frame-header bit flips: magic, raw_len, payload_len low byte.
    for (byte, mask) in [(0usize, 0xFFu8), (5, 0xFF), (8, 0x55)] {
        faults.push(Fault {
            name: format!("flip-header-{byte}"),
            expect: Expect::SubsetOfOracle,
            apply: Box::new(move |s| flip_byte(&s.thread_log(log_tid), byte, mask)),
        });
    }
    Ok(faults)
}

/// The tid whose file (per `path_of`) is largest; `None` if the session
/// has no threads or only empty files.
fn largest(
    session: &SessionDir,
    path_of: impl Fn(&SessionDir, u32) -> std::path::PathBuf,
) -> io::Result<Option<u32>> {
    let mut best: Option<(u64, u32)> = None;
    for tid in session.thread_ids()? {
        let len = fs::metadata(path_of(session, tid)).map(|m| m.len()).unwrap_or(0);
        if len > 0 && best.is_none_or(|(blen, btid)| len > blen || (len == blen && tid < btid)) {
            best = Some((len, tid));
        }
    }
    Ok(best.map(|(_, tid)| tid))
}

fn copy_session(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn truncate_file(path: &Path) -> io::Result<()> {
    let len = fs::metadata(path)?.len();
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len / 2)
}

fn keep_first_half_lines(path: &Path) -> io::Result<()> {
    let text = fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();
    let keep = &lines[..lines.len() / 2];
    let mut out = keep.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    fs::write(path, out)
}

fn reverse_lines(path: &Path) -> io::Result<()> {
    let text = fs::read_to_string(path)?;
    let mut lines: Vec<&str> = text.lines().collect();
    lines.reverse();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    fs::write(path, out)
}

fn flip_byte(path: &Path, byte: usize, mask: u8) -> io::Result<()> {
    let mut data = fs::read(path)?;
    if let Some(b) = data.get_mut(byte) {
        *b ^= mask;
    }
    fs::write(path, data)
}

#[cfg(test)]
mod tests {
    use crate::driver::check_program;
    use crate::gen::{generate, GenConfig};
    use crate::program::{Access, IndexExpr, Program, Region, Stmt};
    use sword_trace::AccessKind;

    #[test]
    fn fault_injection_is_clean_on_a_racy_program() {
        let p = Program {
            buffers: vec![2],
            regions: vec![Region {
                threads: 4,
                body: vec![
                    Stmt::Access(Access {
                        id: 0,
                        buf: 0,
                        kind: AccessKind::Write,
                        index: IndexExpr::Const(0),
                    }),
                    Stmt::Barrier,
                    Stmt::Access(Access {
                        id: 1,
                        buf: 0,
                        kind: AccessKind::Write,
                        index: IndexExpr::Const(1),
                    }),
                ],
            }],
        };
        let r = check_program(&p, true);
        assert!(r.ok(), "failures: {:?}", r.failures);
        assert!(!r.verdicts.oracle.is_empty());
    }

    #[test]
    fn fault_injection_is_clean_on_generated_programs() {
        for seed in [2u64, 11, 29] {
            let p = generate(seed, &GenConfig::with_team(2));
            let r = check_program(&p, true);
            assert!(r.ok(), "seed {seed} failures: {:?}", r.failures);
        }
    }

    #[test]
    fn fault_injection_is_clean_on_a_tasking_session() {
        use crate::program::{DepKind, Sched, TaskBlock, TaskDep};
        // A session whose logs and metadata carry task-fork records, dep
        // edges, and dynamic/ordered loop regions — corruption must land
        // on those record kinds too. The sibling tasks race (same
        // element, concurrent task labels), so `SubsetOfOracle` faults
        // have a non-trivial verdict to shrink from; the dep chain and
        // the ordered loop contribute race-free task/loop records that a
        // truncation may cut mid-record without inventing races.
        let w = |id, elem| Access {
            id,
            buf: 0,
            kind: AccessKind::Write,
            index: IndexExpr::Const(elem),
        };
        let p = Program {
            buffers: vec![4],
            regions: vec![Region {
                threads: 2,
                body: vec![
                    Stmt::Task(TaskBlock { deps: vec![], body: vec![w(0, 0)] }),
                    Stmt::Task(TaskBlock { deps: vec![], body: vec![w(1, 0)] }),
                    Stmt::Taskwait,
                    Stmt::Task(TaskBlock {
                        deps: vec![TaskDep { var: 0, kind: DepKind::Out }],
                        body: vec![w(2, 1)],
                    }),
                    Stmt::Task(TaskBlock {
                        deps: vec![TaskDep { var: 0, kind: DepKind::InOut }],
                        body: vec![w(3, 1)],
                    }),
                    Stmt::Taskgroup {
                        tasks: vec![TaskBlock { deps: vec![], body: vec![w(4, 2)] }],
                    },
                    Stmt::Barrier,
                    Stmt::For {
                        n: 4,
                        nowait: false,
                        sched: Sched::Dynamic { chunk: 1 },
                        ordered: true,
                        body: vec![w(5, 3)],
                    },
                ],
            }],
        };
        let r = check_program(&p, true);
        assert!(r.ok(), "failures: {:?}", r.failures);
        // Depend clauses and taskgroup scope are per-creator, so with two
        // creators every task statement races its cross-creator twin; the
        // dep chain and taskgroup silence only the same-creator pairs.
        // The ordered loop and the barrier-separated accesses stay
        // race-free.
        assert_eq!(
            r.verdicts.oracle,
            std::collections::BTreeSet::from([
                (0, 0),
                (0, 1),
                (1, 1),
                (2, 2),
                (2, 3),
                (3, 3),
                (4, 4)
            ]),
        );
    }
}
