//! The three phases of a sample, each run in a child process of the
//! harness itself so that it has its own peak RSS.
//!
//! The parent re-executes `current_exe()` as
//! `sword-e2e phase <baseline|collect|analyze> ...`; the child times only
//! the library call (never process start-up), reads its own `VmHWM`, and
//! prints `key=value` lines the parent parses.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sword_offline::{analyze, AnalysisConfig, AnalysisStats, LiveAnalyzer, Race};
use sword_ompsim::{OmpSim, SimConfig};
use sword_runtime::{paper_model_bytes, run_collected, SwordConfig};
use sword_trace::{LiveStatus, PcTable, SessionDir, ThreadId};

use crate::workloads::{self, Workload};

/// A child that has not finished by then is killed and counts as a
/// failed op.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Meta rows per thread revealed per watermark publish of the live
/// replay.
const LIVE_ROWS_PER_PUBLISH: usize = 8;

/// Which phase a child runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The program on an untooled runtime.
    Baseline,
    /// The program under the collector, leaving a session directory.
    Collect,
    /// Offline analysis of that session (batch, or live replay).
    Analyze,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Baseline => "baseline",
            Phase::Collect => "collect",
            Phase::Analyze => "analyze",
        }
    }

    fn parse(s: &str) -> Option<Phase> {
        [Phase::Baseline, Phase::Collect, Phase::Analyze].into_iter().find(|p| p.as_str() == s)
    }
}

/// What a child needs to know.
#[derive(Clone, Debug)]
pub struct PhaseSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// Feeds the workload generator only.
    pub seed: u64,
    /// Smoke sizes.
    pub smoke: bool,
    /// Session directory written by `collect`, read by `analyze`.
    pub session: PathBuf,
    /// Analysis workers.
    pub workers: usize,
}

/// What a child reported: numeric values by key, and the race list as
/// ascending `(site, site)` pairs.
#[derive(Clone, Debug, Default)]
pub struct PhaseOutput {
    values: BTreeMap<String, f64>,
    /// Reported races as rendered source-location pairs.
    pub races: Vec<(String, String)>,
}

impl PhaseOutput {
    /// The value reported under `key`.
    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.values.get(key).copied().ok_or_else(|| format!("child did not report `{key}`"))
    }
}

/// Runs `phase` in a child process and parses its report. Any failure —
/// spawn error, non-zero exit, timeout, unparsable line — is an `Err`
/// and counts as a failed op.
pub fn spawn(phase: Phase, spec: &PhaseSpec) -> Result<PhaseOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("phase")
        .arg(phase.as_str())
        .args(["--workload", spec.workload.name])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--workers", &spec.workers.to_string()])
        .arg("--session")
        .arg(&spec.session)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if spec.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", phase.as_str()))?;
    let started = Instant::now();
    // A report is a few hundred bytes, far below the pipe buffer, so the
    // child never blocks on a parent that reads only after it exits.
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait {}: {e}", phase.as_str()))? {
            Some(status) => break status,
            None if started.elapsed() > PHASE_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} timed out after {PHASE_TIMEOUT:?}", phase.as_str()));
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let mut text = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut text)
        .map_err(|e| format!("read {} report: {e}", phase.as_str()))?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", phase.as_str()));
    }
    parse_report(&text)
}

fn parse_report(text: &str) -> Result<PhaseOutput, String> {
    let mut out = PhaseOutput::default();
    for line in text.lines() {
        let (key, value) =
            line.split_once('=').ok_or_else(|| format!("unparsable report line `{line}`"))?;
        if key == "race" {
            let (a, b) = value.split_once('|').ok_or_else(|| format!("bad race line `{line}`"))?;
            out.races.push((a.to_string(), b.to_string()));
        } else {
            let v: f64 = value.parse().map_err(|_| format!("bad number in `{line}`"))?;
            out.values.insert(key.to_string(), v);
        }
    }
    Ok(out)
}

/// Entry point of the child: `args` are the words after `phase`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let phase = args.first().and_then(|s| Phase::parse(s)).ok_or("phase: unknown phase")?;
    let mut spec = PhaseSpec {
        workload: &workloads::WORKLOADS[0],
        seed: 1,
        smoke: false,
        session: PathBuf::new(),
        workers: workloads::THREADS,
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("phase: {flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                spec.workload =
                    workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
            }
            "--seed" => spec.seed = value()?.parse().map_err(|_| "phase: bad --seed")?,
            "--workers" => spec.workers = value()?.parse().map_err(|_| "phase: bad --workers")?,
            "--session" => spec.session = PathBuf::from(value()?),
            "--smoke" => spec.smoke = true,
            other => return Err(format!("phase: unknown flag {other}")),
        }
    }
    let mut report = Vec::new();
    match phase {
        Phase::Baseline => baseline(&spec, &mut report),
        Phase::Collect => collect(&spec, &mut report)?,
        Phase::Analyze => analyze_phase(&spec, &mut report)?,
    }
    report.push(("vm_hwm_bytes", vm_hwm_bytes()? as f64));
    for (key, value) in report {
        println!("{key}={value}");
    }
    Ok(())
}

type Report = Vec<(&'static str, f64)>;

/// Peak resident set of this process, from `/proc/self/status`.
fn vm_hwm_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM row in /proc/self/status".to_string())
}

fn baseline(spec: &PhaseSpec, report: &mut Report) {
    let t = Instant::now();
    let sim = OmpSim::new();
    spec.workload.execute(&sim, spec.seed, spec.smoke);
    report.push(("wall_s", t.elapsed().as_secs_f64()));
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn collect(spec: &PhaseSpec, report: &mut Report) -> Result<(), String> {
    let w = spec.workload;
    let mut config = SwordConfig::new(&spec.session);
    if w.live {
        config = config.live();
    }
    let t = Instant::now();
    let ((), stats) =
        run_collected(config, SimConfig::default(), |sim| w.execute(sim, spec.seed, spec.smoke))
            .map_err(|e| format!("collect: {e}"))?;
    report.push(("wall_s", t.elapsed().as_secs_f64()));

    if stats.tool_memory_bytes > paper_model_bytes(stats.threads) {
        return Err(format!(
            "collector memory {} B exceeds the paper's N x (B + C) = {} B for {} threads",
            stats.tool_memory_bytes,
            paper_model_bytes(stats.threads),
            stats.threads
        ));
    }
    let session_bytes = dir_bytes(&spec.session).map_err(|e| format!("session size: {e}"))?;
    for (key, value) in [
        ("events", stats.events),
        ("regions", stats.regions),
        ("threads", stats.threads),
        ("intervals", stats.barrier_intervals),
        ("flushes", stats.flushes),
        ("raw_bytes", stats.raw_bytes),
        ("compressed_bytes", stats.compressed_bytes),
        ("tool_memory_bytes", stats.tool_memory_bytes),
        ("session_bytes", session_bytes),
    ] {
        report.push((key, value as f64));
    }
    report.push(("app_stall_s", stats.flush.stall_nanos as f64 / 1e9));
    report.push(("compress_busy_s", stats.flush.compress_nanos as f64 / 1e9));
    report.push(("write_busy_s", stats.flush.write_nanos as f64 / 1e9));
    Ok(())
}

fn analyze_phase(spec: &PhaseSpec, report: &mut Report) -> Result<(), String> {
    let dir = SessionDir::new(&spec.session);
    let config = AnalysisConfig::default().with_workers(spec.workers);
    let (wall_s, stats, races) = if spec.workload.live {
        let live = replay_live(&dir, &config).map_err(|e| format!("live analyze: {e}"))?;
        report.push(("live_polls", live.polls as f64));
        report.push(("live_first_race_s", live.first_race_s));
        (live.wall_s, live.stats, live.races)
    } else {
        // Time-to-verdict runs through the drop of the result: tearing
        // down what the analysis built is part of what the user waits for.
        let t = Instant::now();
        let result = analyze(&dir, &config).map_err(|e| format!("analyze: {e}"))?;
        let (stats, races) = (result.stats, result.races.clone());
        drop(result);
        (t.elapsed().as_secs_f64(), stats, races)
    };
    report.push(("wall_s", wall_s));
    for (key, value) in [
        ("intervals", stats.barrier_intervals),
        ("trees_built", stats.trees_built),
        ("nodes", stats.nodes),
        ("candidate_pairs", stats.candidate_pairs),
        ("solver_calls", stats.solver_calls),
        ("prescreened_pairs", stats.prescreened_pairs),
        ("races", stats.races),
    ] {
        report.push((key, value as f64));
    }
    // Race lines go straight out; numeric rows follow from `child_main`.
    let pcs = std::fs::File::open(dir.pcs_path())
        .and_then(|f| PcTable::read_from(std::io::BufReader::new(f)))
        .map_err(|e| format!("pcs table: {e}"))?;
    for race in &races {
        println!("race={}|{}", pcs.display(race.key.pc_lo), pcs.display(race.key.pc_hi));
    }
    Ok(())
}

struct LiveRun {
    wall_s: f64,
    first_race_s: f64,
    polls: usize,
    stats: AnalysisStats,
    races: Vec<Race>,
}

/// Replays the finished session at `src` as a staged sequence of
/// watermark publishes into a replica beside it — logs, region and PC
/// tables present from the start, each thread's meta file growing by
/// [`LIVE_ROWS_PER_PUBLISH`] rows per publish — and drives a
/// [`LiveAnalyzer`] over the replica. Only `poll()` calls are timed.
fn replay_live(src: &SessionDir, config: &AnalysisConfig) -> std::io::Result<LiveRun> {
    let replica = src.path().with_extension("replica");
    let _ = std::fs::remove_dir_all(&replica);
    let dst = SessionDir::new(&replica);
    dst.create()?;
    let tids = src.thread_ids()?;
    for &tid in &tids {
        std::fs::copy(src.thread_log(tid), dst.thread_log(tid))?;
    }
    for (from, to) in [(src.regions_path(), dst.regions_path()), (src.pcs_path(), dst.pcs_path())] {
        std::fs::copy(from, to)?;
    }
    let metas: Vec<(ThreadId, Vec<String>)> = tids
        .iter()
        .map(|&tid| {
            let text = std::fs::read_to_string(src.thread_meta(tid))?;
            Ok((tid, text.lines().map(str::to_string).collect()))
        })
        .collect::<std::io::Result<_>>()?;
    let max_rows = metas.iter().map(|(_, lines)| lines.len()).max().unwrap_or(0);

    let mut live = LiveAnalyzer::new(&dst, config);
    let mut run = LiveRun {
        wall_s: 0.0,
        first_race_s: 0.0,
        polls: 0,
        stats: AnalysisStats::default(),
        races: Vec::new(),
    };
    let mut revealed = 0;
    let mut generation = 0;
    loop {
        revealed = (revealed + LIVE_ROWS_PER_PUBLISH).min(max_rows);
        for (tid, lines) in &metas {
            let mut body = lines[..revealed.min(lines.len())].join("\n");
            if !body.is_empty() {
                body.push('\n');
            }
            dst.write_file_atomic(&dst.thread_meta(*tid), body.as_bytes())?;
        }
        generation += 1;
        dst.write_live(LiveStatus { generation, finished: revealed >= max_rows })?;
        let t = Instant::now();
        let delta = live.poll()?;
        run.wall_s += t.elapsed().as_secs_f64();
        run.polls += 1;
        if run.first_race_s == 0.0 && delta.total_races > 0 {
            run.first_race_s = run.wall_s;
        }
        if delta.finished {
            break;
        }
    }
    let result = live.into_result()?;
    run.stats = result.stats;
    run.races = result.races;
    std::fs::remove_dir_all(&replica)?;
    Ok(run)
}
