//! `sword-e2e`: one end-to-end + per-layer cost ledger for sword-rs.
//!
//! Four workloads run through `collect -> analyze` with tracing off for
//! the end-to-end metrics (`--trace 0`), or through one serial, traced
//! replay of every layer for the per-layer ledger (`--trace 1`). See
//! `README.md` beside this package for what each workload proves and
//! which end-to-end number each layer metric should move.
//!
//! Closed loop, one run at a time, load generated in-process: a sample
//! starts only when the previous one has ended.

mod ledger;
mod manifest;
mod phases;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use manifest::{json_string, END_TO_END, EXACT_REPEAT, PER_LAYER, RUN_SECONDS};
use phases::{Phase, PhaseOutput, PhaseSpec};
use stats::{agreement, Agreement, Summary};
use workloads::{Fingerprint, Workload, THREADS, WORKLOADS};

/// Set-ups per end-to-end run; `setup_s` summarises them.
const SETUPS: usize = 5;

const USAGE: &str = "\
usage:
  sword-e2e [--workload NAME | --filter SUBSTR] [--trace 0|1] [--seed N]
            [--seconds S | --samples N] [--warmup N] [--smoke] [--aa]
  sword-e2e --list | --emit-manifest

  --workload NAME   run one workload; its result is the last line, as JSON
  --filter SUBSTR   run the workloads whose name contains SUBSTR (default: all)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer ledger
                    (default: both, one after the other)
  --seed N          workload-generator seed (default 1)
  --seconds S       keep sampling for S seconds (default: run_seconds of BENCHMARK.json)
  --samples N       take exactly N samples instead
  --warmup N        discarded full-size samples before anything is timed (default 1)
  --smoke           tiny sizes, same code path, a few seconds in all
  --aa              run two end-to-end sets back to back and compare them
  --list            print workloads and metrics
  --emit-manifest   print BENCHMARK.json";

struct Opts {
    workloads: Vec<&'static Workload>,
    traces: Vec<bool>,
    seed: u64,
    seconds: f64,
    samples: Option<usize>,
    warmup: usize,
    smoke: bool,
    aa: bool,
}

enum Cli {
    Run(Opts),
    List,
    EmitManifest,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut opts = Opts {
        workloads: WORKLOADS.iter().collect(),
        traces: vec![false, true],
        seed: 1,
        seconds: RUN_SECONDS as f64,
        samples: None,
        warmup: 1,
        smoke: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot use `{v}`");
        match flag.as_str() {
            "--list" => return Ok(Cli::List),
            "--emit-manifest" => return Ok(Cli::EmitManifest),
            "--workload" => {
                let name = value()?;
                let w =
                    workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                opts.workloads = vec![w];
            }
            "--filter" => {
                let pattern = value()?;
                opts.workloads.retain(|w| w.name.contains(pattern.as_str()));
                if opts.workloads.is_empty() {
                    return Err(format!("no workload matches `{pattern}`"));
                }
            }
            "--trace" => {
                opts.traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    v => return Err(bad(v)),
                }
            }
            "--seed" => opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                opts.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--samples" => {
                let n: usize = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if n == 0 {
                    return Err("--samples must be at least 1".to_string());
                }
                opts.samples = Some(n);
            }
            "--warmup" => opts.warmup = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--smoke" => opts.smoke = true,
            "--aa" => opts.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.aa {
        opts.traces = vec![false];
    }
    Ok(Cli::Run(opts))
}

/// Every child run, replay and cross-sample check is an op; a failed op
/// counts as missing every bound.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn attempt<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        self.attempted += 1;
        let result = f();
        if result.is_err() {
            self.failed += 1;
        }
        result
    }
}

type Sample = Vec<(&'static str, f64)>;

/// The outcome of one run of one workload in one mode.
struct Report {
    workload: &'static Workload,
    traced: bool,
    /// One summary per metric of the mode's table, in table order.
    metrics: Vec<(&'static str, Summary)>,
    /// The exact-repeat counts the samples agreed on.
    counts: Vec<(&'static str, f64)>,
    ops: Ops,
}

fn collect_checked(w: &Workload, spec: &PhaseSpec) -> Result<PhaseOutput, String> {
    let out = phases::spawn(Phase::Collect, spec)?;
    let seen = Fingerprint {
        accesses: out.get("events")? as u64,
        regions: out.get("regions")? as u64,
        intervals: out.get("intervals")? as u64,
    };
    let pinned = w.fingerprint_for(spec.smoke);
    if seen != pinned {
        return Err(format!(
            "workload fingerprint drifted: {} now generates {seen:?}, pinned {pinned:?}; \
             the kernel changed, so earlier numbers no longer describe this load",
            w.name
        ));
    }
    Ok(out)
}

fn analyze_checked(w: &Workload, spec: &PhaseSpec) -> Result<PhaseOutput, String> {
    let out = phases::spawn(Phase::Analyze, spec)?;
    let mut reported: Vec<(String, String)> =
        out.races.iter().cloned().map(|(a, b)| if a <= b { (a, b) } else { (b, a) }).collect();
    reported.sort();
    let matches = reported.len() == w.expected_races.len()
        && reported
            .iter()
            .zip(w.expected_races)
            .all(|((a, b), (ea, eb))| a.ends_with(ea) && b.ends_with(eb));
    if !matches {
        return Err(format!(
            "verdict differs from the reference: reported {reported:?}, expected {:?}",
            w.expected_races
        ));
    }
    if let Some(documented) = w.suite_race_count() {
        if documented != reported.len() {
            return Err(format!(
                "sword-workloads documents {documented} races for this kernel, reported {}",
                reported.len()
            ));
        }
    }
    Ok(out)
}

fn end_to_end_sample(w: &Workload, spec: &PhaseSpec, ops: &mut Ops) -> Result<Sample, String> {
    let collect = ops.attempt(|| collect_checked(w, spec))?;
    let analyze = ops.attempt(|| analyze_checked(w, spec))?;
    let accesses = collect.get("events")?;
    Ok(vec![
        ("collect_wall_s", collect.get("wall_s")?),
        (
            "collect_mem_bytes_per_thread",
            collect.get("tool_memory_bytes")? / collect.get("threads")?,
        ),
        ("log_bytes_per_access", collect.get("session_bytes")? / accesses),
        ("analyze_wall_s", analyze.get("wall_s")?),
        ("analyze_peak_rss_bytes", analyze.get("vm_hwm_bytes")?),
        ("ompsim.accesses", accesses),
        ("ompsim.regions", collect.get("regions")?),
        ("sword-offline.intervals", analyze.get("intervals")?),
        ("sword-offline.nodes", analyze.get("nodes")?),
        ("sword-offline.candidate_pairs", analyze.get("candidate_pairs")?),
        ("sword-offline.solver_calls", analyze.get("solver_calls")?),
        ("sword-offline.races", analyze.get("races")?),
    ])
}

fn traced_sample(
    w: &'static Workload,
    spec: &PhaseSpec,
    ops: &mut Ops,
    trace_path: &Path,
) -> Result<Sample, String> {
    let baseline = ops.attempt(|| phases::spawn(Phase::Baseline, spec))?;
    let collect = ops.attempt(|| collect_checked(w, spec))?;
    let analyze = ops.attempt(|| analyze_checked(w, spec))?;
    let serial = PhaseSpec { workers: 1, ..spec.clone() };
    let workers1 = ops.attempt(|| analyze_checked(w, &serial))?;
    let children = ledger::ChildReports { baseline, collect, analyze, workers1 };
    let mut rec = spans::Recorder::new(w.name);
    let session = sword_trace::SessionDir::new(&spec.session);
    let metrics = ops.attempt(|| ledger::replay(&mut rec, &session, &children))?;
    rec.write_chrome_trace(trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(metrics)
}

/// Where sessions and traces go: `sword-e2e/` beside the profile
/// directory of the running binary (`target/sword-e2e/` in a default
/// build), so everything stays inside the checkout and out of git.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe.parent().ok_or("the binary has no parent directory")?;
    Ok(profile_dir.parent().unwrap_or(profile_dir).join("sword-e2e"))
}

fn run_workload(w: &'static Workload, opts: &Opts, traced: bool) -> Result<Report, String> {
    let root = work_root()?;
    let work = root.join(format!("{}-{}", w.name, std::process::id()));
    let trace_path = root.join(format!("{}.trace.json", w.name));
    let mut ops = Ops::default();
    let mut sessions = 0;
    let mut next_spec = || {
        sessions += 1;
        PhaseSpec {
            workload: w,
            seed: opts.seed,
            smoke: opts.smoke,
            session: work.join(format!("s{sessions}")),
            workers: THREADS,
        }
    };
    let one_sample = |ops: &mut Ops, spec: PhaseSpec| {
        let result = if traced {
            traced_sample(w, &spec, ops, &trace_path)
        } else {
            end_to_end_sample(w, &spec, ops)
        };
        match result {
            // A passing sample's session is deleted, a failing one kept.
            Ok(sample) => {
                let _ = std::fs::remove_dir_all(&spec.session);
                Some(sample)
            }
            Err(e) => {
                eprintln!("sword-e2e: {}: failed op: {e}", w.name);
                eprintln!("sword-e2e: session kept at {}", spec.session.display());
                None
            }
        }
    };

    // Warm-up: discarded full-size samples, so that the host's cores are
    // out of their post-idle ramp before anything is timed (set-ups timed
    // after five idle seconds read a third slower than back to back).
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    if !traced {
        for _ in 0..opts.warmup {
            one_sample(&mut ops, next_spec());
        }
    }
    // Set-up, several times over so that `setup_s` is summarised like
    // everything else: a fresh work directory and one pass through every
    // phase at smoke size. No state survives a child process, so the
    // binary's pages are all a set-up leaves behind. The traced pass sets
    // up once: its numbers carry no bound.
    let mut setup_s = Vec::new();
    for _ in 0..if traced { 1 } else { SETUPS } {
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        if !traced {
            one_sample(&mut ops, PhaseSpec { smoke: true, ..next_spec() });
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let measuring = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut taken = 0;
    while match opts.samples {
        Some(n) => taken < n,
        None => taken == 0 || measuring.elapsed().as_secs_f64() < opts.seconds,
    } {
        taken += 1;
        samples.extend(one_sample(&mut ops, next_spec()));
    }
    if samples.is_empty() {
        return Err(format!("{}: no sample succeeded", w.name));
    }

    let column = |name: &str| -> Vec<f64> {
        samples.iter().flat_map(|s| s.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v)).collect()
    };
    let mut counts = Vec::new();
    let repeat_check = ops.attempt(|| {
        for name in EXACT_REPEAT {
            let values = column(name);
            if values.iter().any(|v| *v != values[0]) {
                return Err(format!("`{name}` must repeat exactly, saw {values:?}"));
            }
            counts.push((name, values[0]));
        }
        Ok(())
    });
    if let Err(e) = repeat_check {
        eprintln!("sword-e2e: {}: failed op: {e}", w.name);
    }

    let names: Vec<&'static str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics = names
        .into_iter()
        .map(|name| {
            let values = if name == "setup_s" { setup_s.clone() } else { column(name) };
            let summary = Summary::of(&values).ok_or_else(|| format!("no value for `{name}`"))?;
            Ok((name, summary))
        })
        .collect::<Result<_, String>>()?;
    if ops.failed == 0 {
        let _ = std::fs::remove_dir_all(&work);
    }
    Ok(Report { workload: w, traced, metrics, counts, ops })
}

fn print_report(r: &Report, opts: &Opts) {
    println!(
        "== {} | {} | seed {} | {} cores{}",
        r.workload.name,
        if r.traced { "per-layer ledger (traced, serial)" } else { "end to end (tracing off)" },
        opts.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if opts.smoke { " | smoke sizes" } else { "" },
    );
    println!(
        "{:<46} {:>6} {:>15} {:>15} {:>15} {:>15} {:>15} {:>3}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    for (name, s) in &r.metrics {
        println!(
            "{:<46} {:>6} {:>15.6} {:>15.6} {:>15.6} {:>15.6} {:>15.6} {:>3}",
            name,
            manifest::unit_of(name).unwrap_or("?"),
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n
        );
    }
    println!("ops {} failed_ops {}", r.ops.attempted, r.ops.failed);
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                if r.traced { s.median } else { s.steady() },
                json_string(manifest::unit_of(name).unwrap_or("?"))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.ops.failed == 0,
        r.ops.attempted,
        r.ops.failed,
        metrics.join(", ")
    );
}

/// Prints two sets of runs of the same code side by side and judges each
/// end-to-end metric — its reported value, the first quartile — against
/// its bound. Returns how many pairs differ.
fn print_aa(a: &Report, b: &Report) -> u64 {
    println!("== A/A {}", a.workload.name);
    println!(
        "{:<30} {:>5} {:>40} {:>40} {:>6}  verdict",
        "metric", "unit", "q1 / median / q3 of set A", "q1 / median / q3 of set B", "bound"
    );
    let quartiles = |s: &Summary| format!("{:.6} / {:.6} / {:.6}", s.q1, s.median, s.q3);
    let mut differing = 0;
    for (m, ((_, sa), (_, sb))) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
        let verdict = agreement(sa, sb, m.bound);
        if verdict == Agreement::Differs {
            differing += 1;
        }
        println!(
            "{:<30} {:>5} {:>40} {:>40} {:>6}  {}",
            m.name,
            m.unit,
            quartiles(sa),
            quartiles(sb),
            m.bound,
            verdict.as_str()
        );
    }
    if a.counts != b.counts {
        println!("exact-repeat counts differ between the sets: {:?} vs {:?}", a.counts, b.counts);
        differing += 1;
    } else {
        println!("exact-repeat counts identical across both sets");
    }
    differing
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (lower is better; bound = allowed worsening of the median):");
    for m in &END_TO_END {
        println!("  {:<46} {:>6}  bound {}", m.name, m.unit, m.bound);
    }
    println!("per-layer metrics:");
    for m in &PER_LAYER {
        let better = if m.higher_is_better { "higher" } else { "lower" };
        println!("  {:<46} {:>6}  {better} is better", m.name, m.unit);
    }
}

fn run(opts: &Opts) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < THREADS {
        return Err(format!(
            "needs at least {THREADS} cores for a team of {THREADS}, found {cores}"
        ));
    }
    let mut clean = true;
    for &w in &opts.workloads {
        if opts.aa {
            let (a, b) = (run_workload(w, opts, false)?, run_workload(w, opts, false)?);
            let differing = print_aa(&a, &b);
            clean &= a.ops.failed + b.ops.failed + differing == 0;
            continue;
        }
        for &traced in &opts.traces {
            let report = run_workload(w, opts, traced)?;
            print_report(&report, opts);
            clean &= report.ops.failed == 0;
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "phase") {
        return match phases::child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sword-e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match parse_cli(&args) {
        Ok(Cli::List) => {
            list();
            Ok(true)
        }
        Ok(Cli::EmitManifest) => {
            print!("{}", manifest::render());
            Ok(true)
        }
        Ok(Cli::Run(opts)) => run(&opts),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sword-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
