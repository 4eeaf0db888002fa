//! `sword` — command-line front end for the SWORD reproduction.
//!
//! ```text
//! sword run <workload> [--threads N] [--size S] [--session DIR] [--live]
//!     Execute a workload under the SWORD collector. `--obs` journals
//!     spans/metrics to `<session>/obs.jsonl`; `--stats` prints the
//!     metrics-registry snapshot (flush counters, pool gauges, memory).
//!     `--listen ADDR` additionally serves the live registry over HTTP
//!     (`/metrics`, `/status`, `/races`, `/healthz`) for the whole
//!     command; see `sword top`.
//! sword analyze <session-dir> [--workers N] [--stats] [--obs]
//!     Offline race analysis of a collected session. `--stats` adds the
//!     registry snapshot's sections (stages, queue depths, latency
//!     quantiles, memory, hot sites — what `sword report` prints), the
//!     run's flush path when recorded, and every registry row;
//!     `--obs` appends pipeline spans and the final snapshot to the
//!     session's journal; `--listen ADDR` serves the analyzer's registry
//!     while it runs.
//! sword watch <session-dir> [--interval-ms N] [--timeout-secs N] [--obs]
//!                           [--workers N]
//!     Incrementally analyze an in-progress session, reporting races as
//!     their barrier intervals are published. Each poll runs on up to
//!     `--workers` threads, like `analyze` (the polling thread is one of
//!     them; a small or idle poll starts none).
//!     `--listen ADDR` serves races-so-far and poll progress over HTTP
//!     alongside the registry.
//! sword top <addr|session-dir> [--iters N] [--interval-ms N]
//!     Polling terminal view of a telemetry endpoint started with
//!     `--listen` (`/status`'s fields and flat metrics) — or of a session
//!     directory's `live.meta` and the last registry snapshot in its
//!     `obs.jsonl`, which a running `--obs` collection appends every
//!     250 ms. Both targets render their snapshot as `sword report` does.
//! sword trace export <session-dir> [--out FILE]
//!     Convert the session's observability journal to a Chrome
//!     `trace_event` file (chrome://tracing, ui.perfetto.dev).
//! sword report <session-dir> [--top N] [--html [FILE]]
//!     Consolidated run report: flush path, the journaled registry
//!     snapshot (pipeline stages, queue depths, latency quantiles, memory
//!     vs the paper's 3.3 MB/thread bound, per-site compare attribution),
//!     hottest spans, and the race table. `--html` writes a single
//!     self-contained dashboard instead.
//! sword explain <session-dir> <race-id>
//!     Full evidence chain for one reported race: the two accesses with
//!     their barrier-interval coordinates, the offset-span label
//!     derivation of why the intervals are concurrent, the solver's
//!     concrete index witness, and the byte ranges in the per-thread
//!     logs. Race ids are the positions in `sword analyze` output.
//! sword check <workload> [--threads N] [--size S]
//!     run + analyze in one step, printing races with source locations.
//! sword compare <workload> [--threads N] [--size S]
//!     Run baseline, ARCHER (both configs), and SWORD; print a summary.
//! sword meta <session-dir>
//!     Pretty-print a session's Table-I metadata and region table.
//! sword fuzz [--seed N] [--iters N] [--team N] [--fault-inject]
//!            [--tasking] [--corpus DIR]
//!     Differential-testing campaign: generated programs through SWORD
//!     (batch + live), ARCHER, and the ground-truth oracle; failures are
//!     shrunk to minimal reproducers. Nonzero exit on any divergence.
//!     `--tasking` reweights generation toward tasks, depend chains,
//!     taskwait/taskgroup, and dynamic/guided/ordered loops.
//! sword list
//!     List available workloads with their ground truth.
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use archer_sim::{ArcherConfig, ArcherTool};
use sword_fuzz_gen::{run_fuzz, FuzzOptions};
use sword_obs::json::Value;
use sword_obs::{
    format_bytes, render_html, render_snapshot, HtmlInput, HtmlRace, JournalSink, Layer, Obs,
    ReportInput, Table,
};
use sword_obs_http::{http_get, JsonFn, TelemetryHandles, TelemetryServer};
use sword_offline::{analyze, AnalysisConfig, LiveAnalyzer};
use sword_ompsim::{OmpSim, SimConfig};
use sword_runtime::{run_collected, SwordConfig};
use sword_trace::{PcTable, SessionDir};
use sword_workloads::{all_workloads, find_workload, RunConfig, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sword list
  sword run <workload> [--threads N] [--size S] [--session DIR] [--live]
                        [--stats] [--obs] [--listen ADDR]
  sword analyze <session-dir> [--workers N] [--json] [--stats]
                               [--obs] [--listen ADDR] [--region id,...]
                               [--suppress pat,...]
  sword watch <session-dir> [--interval-ms N] [--timeout-secs N] [--json]
                             [--stats] [--obs] [--listen ADDR] [--workers N]
                             [--region id,...] [--suppress pat,...]
  sword top <addr|session-dir> [--iters N] [--interval-ms N]
  sword trace export <session-dir> [--out FILE]
  sword report <session-dir> [--top N] [--html [FILE]]
  sword explain <session-dir> <race-id> [--workers N] [--region id,...]
                                        [--suppress pat,...]
  sword check <workload> [--threads N] [--size S] [--workers N] [--json]
                         [--stats] [--region id,...] [--suppress pat,...]
  sword compare <workload> [--threads N] [--size S]
  sword meta <session-dir>
  sword fuzz [--seed N] [--iters N] [--team N] [--fault-inject]
             [--tasking] [--corpus DIR] [--obs]";

/// Flags every analyzing subcommand reads through [`analysis_config`].
const ANALYSIS_FLAGS: [&str; 3] = ["workers", "region", "suppress"];

/// Hot sites `--stats` and `sword top` list (`sword report`'s default).
const TOP_SITES: usize = 10;

/// Minimal flag parser: `--key value` pairs after positional args.
struct Flags {
    map: BTreeMap<String, String>,
    bools: Vec<String>,
}

impl Flags {
    /// Parses the flags of subcommand `cmd`, which reads exactly the keys
    /// in `known`: anything else is rejected rather than ignored, so a
    /// typo or a removed flag never silently runs the default.
    fn parse(cmd: &str, known: &[&str], args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut bools = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if !known.contains(&key) {
                return Err(format!("unknown flag --{key} for {cmd}"));
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    map.insert(key.to_string(), it.next().unwrap().clone());
                }
                _ => bools.push(key.to_string()),
            }
        }
        Ok(Flags { map, bools })
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.bools.iter().any(|b| b == key)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    match cmd.as_str() {
        "list" => Flags::parse("list", &[], &args[1..]).and_then(|_| cmd_list()),
        "run" => cmd_run(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "watch" => cmd_watch(&args[1..], Obs::new),
        "top" => cmd_top(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "meta" => cmd_meta(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses `<workload> [flags]` of subcommand `cmd`; `--threads` and
/// `--size` are read here, `extra` names the flags `cmd` reads itself.
fn workload_arg(
    cmd: &str,
    extra: &[&str],
    args: &[String],
) -> Result<(Box<dyn Workload>, RunConfig, Flags), String> {
    let Some(name) = args.first() else {
        return Err("missing workload name (try `sword list`)".into());
    };
    let w = find_workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let flags = Flags::parse(cmd, &[extra, &["threads", "size"]].concat(), &args[1..])?;
    let cfg =
        RunConfig { threads: flags.get_usize("threads", 4)?, size: flags.get_u64("size", 0)? };
    Ok((w, cfg, flags))
}

fn cmd_list() -> Result<(), String> {
    let mut table =
        Table::new("available workloads", &["name", "suite", "documented", "sword races", "notes"]);
    for w in all_workloads() {
        let s = w.spec();
        table.row(&[
            s.name.to_string(),
            format!("{:?}", s.suite),
            s.documented_races.to_string(),
            s.sword_races.to_string(),
            s.notes.chars().take(60).collect(),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

/// Renders the metrics-registry snapshot as a table (the `--stats` view).
fn render_registry(obs: &Obs) -> String {
    let mut table = Table::new("metrics registry", &["metric", "value"]);
    for (name, value) in obs.registry.snapshot() {
        table.row(&[name, format!("{value}")]);
    }
    table.render()
}

/// A session's `session.meta` and its thread count (empty and 0 before
/// the collector finalized it).
fn session_info(session: &SessionDir) -> (BTreeMap<String, String>, u64) {
    let info = session.read_info().unwrap_or_default();
    let threads = info.get("threads").and_then(|v| v.parse().ok()).unwrap_or(0);
    (info, threads)
}

/// The `--stats` view of an analysis: its registry snapshot's sections,
/// as `sword report` renders them, the run's flush path when the
/// collector recorded one, then every registry row.
fn print_stats(session: &SessionDir, obs: &Obs) {
    let (info, threads) = session_info(session);
    print!("{}", render_snapshot(&obs.registry.snapshot(), threads, TOP_SITES));
    if let Some(flush) = sword_obs::render_flush(&info) {
        println!("{flush}");
    }
    println!("{}", render_registry(obs));
}

/// Appends the drained journal (plus a final metrics snapshot) to the
/// session's `obs.jsonl`, creating it when the collection ran without
/// `--obs`.
fn append_journal(session: &SessionDir, obs: &Obs) -> Result<(), String> {
    JournalFile::open(session)?.finish(obs)
}

/// A journal file — a session's `obs.jsonl`, open for appending (created
/// when absent), or the fuzzer's own — with the journal's drop count at
/// the last drain and the first drain failure.
struct JournalFile {
    sink: JournalSink,
    dropped: u64,
    error: Option<String>,
}

impl JournalFile {
    fn open(session: &SessionDir) -> Result<JournalFile, String> {
        let sink = JournalSink::append(session.obs_path()).map_err(|e| e.to_string())?;
        Ok(JournalFile { sink, dropped: 0, error: None })
    }

    /// A new (or truncated) journal file at `path`.
    fn create(path: PathBuf) -> Result<JournalFile, String> {
        let sink = JournalSink::create(path).map_err(|e| e.to_string())?;
        Ok(JournalFile { sink, dropped: 0, error: None })
    }

    /// Moves every event the rings hold to the file, so they never fill.
    /// A failed write is kept for [`JournalFile::finish`] to report: it
    /// does not stop the analysis.
    fn drain(&mut self, obs: &Obs) {
        if let Err(e) = self.sink.drain_from(&obs.journal, &mut self.dropped) {
            self.error.get_or_insert_with(|| format!("{}: {e}", self.sink.path().display()));
        }
    }

    /// Appends a final registry snapshot, drains, and names the file, or
    /// returns the first write that failed.
    fn finish(mut self, obs: &Obs) -> Result<(), String> {
        obs.snapshot_to_journal();
        self.drain(obs);
        match self.error {
            Some(e) => Err(format!("observability journal: {e}")),
            None => {
                println!("observability journal: {}", self.sink.path().display());
                Ok(())
            }
        }
    }
}

/// Starts the embedded telemetry exporter when `--listen ADDR` was given.
/// The server reads the same live registry and journal the command is
/// writing; it serves until the command finishes and is shut down by the
/// caller (dropping the returned guard).
fn start_listener(
    flags: &Flags,
    handles: TelemetryHandles,
) -> Result<Option<TelemetryServer>, String> {
    let Some(addr) = flags.map.get("listen") else {
        return Ok(None);
    };
    let server =
        TelemetryServer::start(addr, handles).map_err(|e| format!("--listen {addr}: {e}"))?;
    println!(
        "telemetry: http://{0}/status  (also /metrics /races /healthz; try `sword top {0}`)",
        server.local_addr()
    );
    Ok(Some(server))
}

/// A `/status` provider over a session directory: path plus the live
/// watermark protocol's generation/finished, refreshed per request.
fn session_status_provider(session: &SessionDir) -> JsonFn {
    let session = session.clone();
    Arc::new(move || {
        let mut fields =
            vec![("session".to_string(), Value::Str(session.path().display().to_string()))];
        if let Ok(Some(live)) = session.read_live() {
            fields.push(("generation".to_string(), Value::Num(live.generation as f64)));
            fields.push(("finished".to_string(), Value::Bool(live.finished)));
        }
        Value::Obj(fields)
    })
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (w, cfg, flags) =
        workload_arg("run", &["session", "live", "stats", "obs", "listen"], args)?;
    let session: PathBuf = flags
        .map
        .get("session")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("sword-session"));
    let mut sword_cfg = SwordConfig::new(&session);
    if flags.has("live") {
        // Publish watermarked metadata while running, so a concurrent
        // `sword watch` can analyze the session as it grows.
        sword_cfg = sword_cfg.live();
    }
    // `--stats` reads the metrics registry, so it needs the obs handles
    // attached even when the journal itself was not asked for; the HTTP
    // exporter needs them for the same reason.
    let obs =
        (flags.has("obs") || flags.has("stats") || flags.map.contains_key("listen")).then(Obs::new);
    if let Some(o) = &obs {
        sword_cfg = sword_cfg.with_obs(o.clone());
    }
    let server = match &obs {
        Some(o) => start_listener(
            &flags,
            TelemetryHandles::new(o.clone())
                .with_status(session_status_provider(&SessionDir::new(&session))),
        )?,
        None => None,
    };
    let cli_journal = obs.as_ref().map(|o| o.journal.for_thread(Layer::Cli, "cli"));
    let sw = Instant::now();
    let (_, stats) = run_collected(sword_cfg, SimConfig::default(), |sim| {
        // Scoped so the workload span closes (and is journaled) before
        // the collector finalizes and drains the rings to obs.jsonl.
        let _span =
            cli_journal.as_ref().map(|j| j.span("workload").arg("threads", cfg.threads as f64));
        w.execute(sim, &cfg);
    })
    .map_err(|e| e.to_string())?;
    println!("collected {} in {:.2}s", w.spec().name, sw.elapsed().as_secs_f64());
    println!("  session:           {}", session.display());
    println!("  threads:           {}", stats.threads);
    println!("  parallel regions:  {}", stats.regions);
    println!("  barrier intervals: {}", stats.barrier_intervals);
    println!("  events:            {}", stats.events);
    println!(
        "  log volume:        {} raw -> {} on disk ({:.1}x)",
        format_bytes(stats.raw_bytes),
        format_bytes(stats.compressed_bytes),
        stats.compression_ratio()
    );
    println!("  bounded tool mem:  {}", format_bytes(stats.tool_memory_bytes));
    if let Some(o) = &obs {
        if flags.has("stats") {
            println!("\n{}", render_registry(o));
        }
        if flags.has("obs") {
            // The collector's final drain ran at program end, before the
            // CLI workload span closed — append the leftover ring
            // contents (and a post-run snapshot) to the journal.
            append_journal(&SessionDir::new(&session), o)?;
            println!("next: sword trace export {0}  |  sword report {0}", session.display());
        }
    }
    if let Some(server) = server {
        server.shutdown();
    }
    println!("\nnext: sword analyze {}", session.display());
    Ok(())
}

fn analysis_config(flags: &Flags) -> Result<AnalysisConfig, String> {
    let mut config = AnalysisConfig::default();
    config.workers = flags.get_usize("workers", config.workers)?;
    if let Some(regions) = flags.map.get("region") {
        let parsed: Result<Vec<u64>, _> =
            regions.split(',').map(|r| r.trim().parse::<u64>()).collect();
        config.focus_regions =
            Some(parsed.map_err(|_| format!("--region expects ids, got `{regions}`"))?);
    }
    if let Some(patterns) = flags.map.get("suppress") {
        config.suppressions = patterns.split(',').map(|p| p.trim().to_string()).collect();
    }
    Ok(config)
}

/// Renders a race list as the `/races` endpoint's JSON: one object per
/// race with its id (the position in `sword analyze` output, matching
/// `sword explain`), title, occurrence count, and evidence chain.
fn races_json(races: &[sword_offline::Race], pcs: &PcTable) -> Vec<Value> {
    races
        .iter()
        .enumerate()
        .map(|(id, race)| {
            Value::Obj(vec![
                ("id".to_string(), Value::Num(id as f64)),
                ("title".to_string(), Value::Str(race.render(pcs))),
                ("occurrences".to_string(), Value::Num(race.occurrences as f64)),
                ("evidence".to_string(), Value::Str(race.render_evidence(pcs))),
            ])
        })
        .collect()
}

fn print_analysis(
    session: &SessionDir,
    config: &AnalysisConfig,
    json: bool,
    stats: bool,
) -> Result<sword_offline::AnalysisResult, String> {
    // `analyze` (not `analyze_loaded`) so the discover and load-meta
    // stages are timed too.
    let result = analyze(session, config).map_err(|e| e.to_string())?;
    let pcs = read_pcs(session)?;
    if json {
        print!("{}", sword_offline::render_json(&result, &pcs));
    } else {
        print!("{}", sword_offline::render_text(&result, &pcs));
    }
    // `--stats` attaches an `Obs`: the view is its registry's.
    if let Some(o) = config.obs.as_ref().filter(|_| stats) {
        print_stats(session, o);
    }
    Ok(result)
}

/// Loads the session's PC table (empty when the run never wrote one).
fn read_pcs(session: &SessionDir) -> Result<PcTable, String> {
    if session.pcs_path().exists() {
        let f = std::fs::File::open(session.pcs_path()).map_err(|e| e.to_string())?;
        PcTable::read_from(std::io::BufReader::new(f)).map_err(|e| e.to_string())
    } else {
        Ok(PcTable::new())
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else {
        return Err("missing session directory".into());
    };
    let flags = Flags::parse(
        "analyze",
        &[&ANALYSIS_FLAGS[..], &["json", "stats", "obs", "listen"]].concat(),
        &args[1..],
    )?;
    let mut config = analysis_config(&flags)?;
    // With an `Obs` attached the analysis also attributes its compare
    // work to source sites: registry rows the final snapshot carries
    // into obs.jsonl for `sword report`.
    let obs =
        (flags.has("obs") || flags.has("stats") || flags.map.contains_key("listen")).then(Obs::new);
    if let Some(o) = &obs {
        config = config.with_obs(o.clone());
    }
    let session = SessionDir::new(dir);
    // The /races list fills in when the analysis completes; until then
    // the endpoint serves an empty list while /metrics tracks progress.
    let shared_races: Arc<std::sync::Mutex<Vec<Value>>> = Arc::default();
    let server = match &obs {
        Some(o) => {
            let list = Arc::clone(&shared_races);
            start_listener(
                &flags,
                TelemetryHandles::new(o.clone())
                    .with_status(session_status_provider(&session))
                    .with_races(Arc::new(move || {
                        Value::Arr(list.lock().expect("races lock").clone())
                    })),
            )?
        }
        None => None,
    };
    let result = print_analysis(&session, &config, flags.has("json"), flags.has("stats"))?;
    if server.is_some() {
        let pcs = read_pcs(&session)?;
        *shared_races.lock().expect("races lock") = races_json(&result.races, &pcs);
    }
    if let Some(o) = obs.as_ref().filter(|_| flags.has("obs")) {
        append_journal(&session, o)?;
    }
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

/// `sword watch`; `new_obs` makes the observability context when `--obs`
/// or `--listen` asks for one.
fn cmd_watch(args: &[String], new_obs: fn() -> Obs) -> Result<(), String> {
    let Some(dir) = args.first() else {
        return Err("missing session directory".into());
    };
    let flags = Flags::parse(
        "watch",
        &[&ANALYSIS_FLAGS[..], &["interval-ms", "timeout-secs", "json", "stats", "obs", "listen"]]
            .concat(),
        &args[1..],
    )?;
    let mut config = analysis_config(&flags)?;
    let obs =
        (flags.has("obs") || flags.has("stats") || flags.map.contains_key("listen")).then(new_obs);
    if let Some(o) = &obs {
        config = config.with_obs(o.clone());
    }
    let json = flags.has("json");
    let show_stats = flags.has("stats");
    let interval = std::time::Duration::from_millis(flags.get_u64("interval-ms", 200)?);
    let timeout_secs = flags.get_u64("timeout-secs", 0)?; // 0 = no timeout
    let session = SessionDir::new(dir);
    if !session.path().exists() {
        return Err(format!("no such session directory: {dir}"));
    }

    // Shared with the telemetry endpoints: poll progress for /status and
    // the races found so far for /races, refreshed after every poll.
    let shared_progress: Arc<std::sync::Mutex<(u64, u64)>> = Arc::default(); // (polls, races)
    let shared_races: Arc<std::sync::Mutex<Vec<Value>>> = Arc::default();
    let server = match &obs {
        Some(o) => {
            let base = session_status_provider(&session);
            let progress = Arc::clone(&shared_progress);
            let list = Arc::clone(&shared_races);
            start_listener(
                &flags,
                TelemetryHandles::new(o.clone())
                    .with_status(Arc::new(move || {
                        let (polls, races) = *progress.lock().expect("progress lock");
                        let mut fields = match base() {
                            Value::Obj(fields) => fields,
                            other => vec![("session".to_string(), other)],
                        };
                        fields.push(("polls".to_string(), Value::Num(polls as f64)));
                        fields.push(("races".to_string(), Value::Num(races as f64)));
                        Value::Obj(fields)
                    }))
                    .with_races(Arc::new(move || {
                        Value::Arr(list.lock().expect("races lock").clone())
                    })),
            )?
        }
        None => None,
    };

    // A long watch makes more events than a ring holds: `--obs` drains
    // them to the session's journal after every poll.
    let mut journal = obs
        .as_ref()
        .filter(|_| flags.has("obs"))
        .map(|_| JournalFile::open(&session))
        .transpose()?;
    let mut live = LiveAnalyzer::new(&session, &config);
    let sw = Instant::now();
    let mut polls = 0u64;
    let timed_out = loop {
        let delta = live.poll().map_err(|e| e.to_string())?;
        polls += 1;
        if let (Some(j), Some(o)) = (&mut journal, &obs) {
            j.drain(o);
        }
        if server.is_some() {
            *shared_progress.lock().expect("progress lock") = (polls, delta.total_races as u64);
            if !delta.new_races.is_empty() {
                let mut list = shared_races.lock().expect("races lock");
                for race in &delta.new_races {
                    let id = list.len();
                    list.push(Value::Obj(vec![
                        ("id".to_string(), Value::Num(id as f64)),
                        ("title".to_string(), Value::Str(race.render(live.pcs()))),
                        ("occurrences".to_string(), Value::Num(race.occurrences as f64)),
                        ("evidence".to_string(), Value::Str(race.render_evidence(live.pcs()))),
                    ]));
                }
            }
        }
        if json {
            println!(
                "{{\"poll\": {}, \"generation\": {}, \"new_intervals\": {}, \
                 \"new_regions\": {}, \"tree_pairs\": {}, \"new_races\": {}, \
                 \"total_races\": {}, \"finished\": {}}}",
                polls,
                delta.generation.map_or("null".into(), |g| g.to_string()),
                delta.new_intervals,
                delta.new_regions,
                delta.tree_pairs,
                delta.new_races.len(),
                delta.total_races,
                delta.finished
            );
        } else if delta.new_intervals > 0 || delta.new_regions > 0 || delta.finished {
            println!(
                "[watch {:6.1}s] +{} intervals, {} tree pairs, {} race(s) so far{}",
                sw.elapsed().as_secs_f64(),
                delta.new_intervals,
                delta.tree_pairs,
                delta.total_races,
                if delta.finished { " — session finished" } else { "" }
            );
            for race in &delta.new_races {
                println!("  NEW {}", race.render(live.pcs()));
            }
        }
        if delta.finished {
            break false;
        }
        if timeout_secs > 0 && sw.elapsed().as_secs_f64() >= timeout_secs as f64 {
            break true;
        }
        std::thread::sleep(interval);
    };

    if timed_out && !json {
        println!(
            "[watch] timeout after {:.1}s; session still in flight — partial results:",
            sw.elapsed().as_secs_f64()
        );
    }
    let result = live.into_result().map_err(|e| e.to_string())?;
    let pcs = read_pcs(&session)?;
    if json {
        print!("{}", sword_offline::render_json(&result, &pcs));
    } else {
        print!("{}", sword_offline::render_text(&result, &pcs));
    }
    if let Some(o) = obs.as_ref().filter(|_| show_stats) {
        print_stats(&session, o);
    }
    let journaled = match (journal, &obs) {
        (Some(j), Some(o)) => j.finish(o),
        _ => Ok(()),
    };
    if let Some(server) = server {
        server.shutdown();
    }
    journaled
}

/// One rendered `sword top` frame plus whether the target reported a
/// finished session (which ends an unbounded polling loop).
fn top_frame_http(addr: &str) -> Result<(String, bool), String> {
    let body = http_get(addr, "/status", std::time::Duration::from_secs(5))
        .map_err(|e| format!("GET http://{addr}/status: {e}"))?;
    let doc = sword_obs::json::parse(&body).map_err(|e| format!("bad /status JSON: {e}"))?;
    let mut out = format!("sword top — http://{addr}\n");
    for key in ["session", "generation", "finished", "races", "polls", "uptime_us"] {
        if let Some(v) = doc.get(key) {
            let v = match v {
                Value::Str(s) => s.clone(),
                other => other.render(),
            };
            out.push_str(&format!("  {key:<12} {v}\n"));
        }
    }
    let metrics: Vec<(String, f64)> = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
        .collect();
    out.push_str(&render_snapshot(&metrics, 0, TOP_SITES));
    let finished = doc.get("finished") == Some(&Value::Bool(true));
    Ok((out, finished))
}

/// `sword top` against a session directory: its `live.meta` status and
/// the registry snapshot its journal holds so far, as `sword report`
/// merges it, so a running `--obs` collection (which appends a snapshot
/// every 250 ms) can be watched with no exporter. `tail` carries the
/// journal between frames: each frame parses only the lines appended
/// since the last.
fn top_frame_session(
    session: &SessionDir,
    tail: &mut sword_obs::JournalTail,
) -> Result<(String, bool), String> {
    let mut out = format!("sword top — {}\n", session.path().display());
    let mut finished = false;
    if let Ok(Some(live)) = session.read_live() {
        finished = live.finished;
        out.push_str(&format!("  generation   {}\n", live.generation));
        out.push_str(&format!("  finished     {}\n", live.finished));
    }
    let journal = session.obs_path();
    if !journal.exists() {
        out.push_str("  (no obs.jsonl yet — collect with --obs, or poll a --listen address)\n");
        return Ok((out, finished));
    }
    tail.update(&journal).map_err(|e| e.to_string())?;
    out.push_str(&render_snapshot(&tail.snapshot(), session_info(session).1, TOP_SITES));
    Ok((out, finished))
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let Some(target) = args.first() else {
        return Err("missing telemetry address or session directory".into());
    };
    let flags = Flags::parse("top", &["iters", "interval-ms"], &args[1..])?;
    // 0 iterations = poll until the session reports finished.
    let iters = flags.get_u64("iters", 0)?;
    let interval = std::time::Duration::from_millis(flags.get_u64("interval-ms", 1000)?);
    let http = target.parse::<std::net::SocketAddr>().is_ok();
    let session = (!http).then(|| SessionDir::new(target));
    if let Some(s) = &session {
        if !s.path().exists() {
            return Err(format!(
                "`{target}` is neither a host:port address nor a session directory"
            ));
        }
    }
    let mut n = 0u64;
    let mut tail = sword_obs::JournalTail::default();
    loop {
        n += 1;
        let (frame, finished) = match &session {
            None => top_frame_http(target)?,
            Some(s) => top_frame_session(s, &mut tail)?,
        };
        print!("{frame}");
        if (iters > 0 && n >= iters) || (iters == 0 && finished) {
            break;
        }
        std::thread::sleep(interval);
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("missing trace subcommand (try `sword trace export <session-dir>`)".into());
    };
    if sub != "export" {
        return Err(format!("unknown trace subcommand `{sub}` (supported: export)"));
    }
    let Some(dir) = args.get(1) else {
        return Err("missing session directory".into());
    };
    let flags = Flags::parse("trace export", &["out"], &args[2..])?;
    let session = SessionDir::new(dir);
    let journal_path = session.obs_path();
    if !journal_path.exists() {
        return Err(format!(
            "no observability journal at {} — collect with `sword run --obs` or add one with \
             `sword analyze --obs`",
            journal_path.display()
        ));
    }
    let read = sword_obs::read_journal(&journal_path).map_err(|e| e.to_string())?;
    if read.truncated_tail {
        eprintln!("warning: torn final journal line (run ended abruptly); exporting intact prefix");
    }
    let out = flags
        .map
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| session.path().join("trace.json"));
    sword_obs::write_chrome_trace(&out, &read.events).map_err(|e| e.to_string())?;
    println!("exported {} journal event(s) to {}", read.events.len(), out.display());
    println!("open in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else {
        return Err("missing session directory".into());
    };
    let flags = Flags::parse("report", &["top", "html"], &args[1..])?;
    let top_n = flags.get_usize("top", 10)?;
    let html = flags.has("html") || flags.map.contains_key("html");
    let session = SessionDir::new(dir);
    let journal_path = session.obs_path();
    // A session without a journal still gets the skeleton (session info
    // plus the race table) — only the stage/memory/hot-site sections
    // need journaled events.
    let (events, truncated_tail) = if journal_path.exists() {
        let read = sword_obs::read_journal(&journal_path).map_err(|e| e.to_string())?;
        (read.events, read.truncated_tail)
    } else {
        eprintln!(
            "warning: no observability journal at {} — stage, memory, and hot-site sections \
             will be empty; collect with `sword run --obs` or add one with `sword analyze --obs`",
            journal_path.display()
        );
        (Vec::new(), false)
    };
    let info = session.read_info().unwrap_or_default();
    // The race table and evidence cards come from a fresh sequential
    // analysis of the session's logs (cheap relative to collection, and
    // deterministic — race ids match `sword explain`).
    let race_config = AnalysisConfig::sequential();
    let (analysis, pcs) = match analyze(&session, &race_config) {
        Ok(result) => (Some(result), read_pcs(&session)?),
        Err(e) => {
            eprintln!("warning: race analysis unavailable ({e}); omitting the race section");
            (None, PcTable::new())
        }
    };
    let report = ReportInput { events, info, truncated_tail, top_n };
    if html {
        let races: Vec<HtmlRace> = analysis
            .as_ref()
            .map(|result| {
                result
                    .races
                    .iter()
                    .enumerate()
                    .map(|(id, race)| HtmlRace {
                        id,
                        title: race.render(&pcs),
                        occurrences: race.occurrences,
                        detail: race.render_evidence(&pcs),
                    })
                    .collect()
            })
            .unwrap_or_default();
        let input = HtmlInput {
            title: format!("SWORD session report — {}", session.path().display()),
            report,
            races,
        };
        let out = flags
            .map
            .get("html")
            .map(PathBuf::from)
            .unwrap_or_else(|| session.path().join("report.html"));
        std::fs::write(&out, render_html(&input)).map_err(|e| e.to_string())?;
        println!("wrote HTML dashboard to {}", out.display());
        return Ok(());
    }
    print!("{}", sword_obs::render_report(&report));
    if let Some(result) = &analysis {
        if result.races.is_empty() {
            println!("data races: none detected");
        } else {
            println!("data races ({}):", result.races.len());
            for (id, race) in result.races.iter().enumerate() {
                println!("  #{id}  {}", race.render(&pcs));
            }
            println!(
                "  (full evidence chains: sword explain {} <race-id>)",
                session.path().display()
            );
        }
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else {
        return Err("missing session directory".into());
    };
    let Some(id_arg) = args.get(1) else {
        return Err("missing race id (ids are the positions in `sword analyze` output)".into());
    };
    let id: usize =
        id_arg.parse().map_err(|_| format!("race id must be a number, got `{id_arg}`"))?;
    let flags = Flags::parse("explain", &ANALYSIS_FLAGS, &args[2..])?;
    let config = analysis_config(&flags)?;
    let session = SessionDir::new(dir);
    let result = analyze(&session, &config).map_err(|e| e.to_string())?;
    let pcs = read_pcs(&session)?;
    match sword_offline::render_explain(&result, &pcs, id) {
        Some(text) => {
            print!("{text}");
            Ok(())
        }
        None => Err(format!(
            "race id {id} out of range — the analysis found {} race(s)",
            result.races.len()
        )),
    }
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let (w, cfg, flags) =
        workload_arg("check", &[&ANALYSIS_FLAGS[..], &["json", "stats"]].concat(), args)?;
    let session = std::env::temp_dir().join(format!("sword-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session);
    run_collected(SwordConfig::new(&session), SimConfig::default(), |sim| {
        w.execute(sim, &cfg);
    })
    .map_err(|e| e.to_string())?;
    let mut config = analysis_config(&flags)?;
    if flags.has("stats") {
        config = config.with_obs(Obs::new());
    }
    let found =
        print_analysis(&SessionDir::new(&session), &config, flags.has("json"), flags.has("stats"))?
            .races
            .len();
    let _ = std::fs::remove_dir_all(&session);
    let expected = w.spec().sword_races;
    println!(
        "\nground truth for {}: {} race(s) — {}",
        w.spec().name,
        expected,
        if found == expected { "MATCH" } else { "MISMATCH" }
    );
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let (w, cfg, _flags) = workload_arg("compare", &[], args)?;
    let name = w.spec().name;

    let sim = OmpSim::new();
    let sw = Instant::now();
    w.execute(&sim, &cfg);
    let base_secs = sw.elapsed().as_secs_f64();
    let footprint = sim.peak_footprint();

    let mut table =
        Table::new(format!("{name} under each tool"), &["tool", "time", "tool memory", "races"]);
    table.row(&["baseline".into(), format!("{base_secs:.3}s"), "-".into(), "-".into()]);

    for (label, flush) in [("archer", false), ("archer-low", true)] {
        let tool =
            Arc::new(ArcherTool::new(ArcherConfig { flush_shadow: flush, ..Default::default() }));
        let sim = OmpSim::with_tool(tool.clone());
        tool.attach_baseline_source(sim.footprint_handle());
        let sw = Instant::now();
        w.execute(&sim, &cfg);
        let stats = tool.stats();
        table.row(&[
            label.into(),
            format!("{:.3}s", sw.elapsed().as_secs_f64()),
            format_bytes(stats.modeled_total_bytes()),
            tool.races().len().to_string(),
        ]);
    }

    let session = std::env::temp_dir().join(format!("sword-cmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session);
    let sw = Instant::now();
    let (_, stats) = run_collected(SwordConfig::new(&session), SimConfig::default(), |sim| {
        w.execute(sim, &cfg);
    })
    .map_err(|e| e.to_string())?;
    let da = sw.elapsed().as_secs_f64();
    let result = analyze(&SessionDir::new(&session), &AnalysisConfig::default())
        .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&session);
    table.row(&[
        "sword".into(),
        format!("{:.3}s DA + {:.3}s OA", da, result.stats.wall_secs),
        format_bytes(stats.tool_memory_bytes),
        result.races.len().to_string(),
    ]);
    println!("application footprint: {}", format_bytes(footprint));
    println!("{}", table.render());
    Ok(())
}

fn cmd_meta(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else {
        return Err("missing session directory".into());
    };
    Flags::parse("meta", &[], &args[1..])?;
    let session = SessionDir::new(dir);
    let loaded = sword_offline::LoadedSession::load(&session).map_err(|e| e.to_string())?;
    let mut regions = Table::new("regions.meta", &["pid", "ppid", "level", "span", "fork label"]);
    let mut sorted: Vec<_> = loaded.regions.values().collect();
    sorted.sort_by_key(|r| r.pid);
    for r in sorted {
        regions.row(&[
            r.pid.to_string(),
            r.ppid.map_or("-".into(), |p| p.to_string()),
            r.level.to_string(),
            r.span.to_string(),
            format!("{}", r.fork_label()),
        ]);
    }
    println!("{}", regions.render());
    for (tid, rows) in &loaded.threads {
        let mut t = Table::new(
            format!("thread_{tid}.meta (Table I)"),
            &["pid", "ppid", "bid", "offset", "span", "level", "data_begin", "size"],
        );
        for r in rows {
            t.row(&[
                r.pid.to_string(),
                r.ppid.map_or("-".into(), |p| p.to_string()),
                r.bid.to_string(),
                r.offset.to_string(),
                r.span.to_string(),
                r.level.to_string(),
                r.data_begin.to_string(),
                r.size.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "fuzz",
        &["seed", "iters", "team", "fault-inject", "tasking", "corpus", "obs"],
        args,
    )?;
    let defaults = FuzzOptions::default();
    let obs = flags.has("obs").then(Obs::new);
    let opts = FuzzOptions {
        seed: flags.get_u64("seed", defaults.seed)?,
        iters: flags.get_u64("iters", defaults.iters)?,
        teams: match flags.map.get("team") {
            None => defaults.teams,
            Some(v) => {
                vec![v.parse().map_err(|_| format!("--team expects a number, got `{v}`"))?]
            }
        },
        fault_inject: flags.has("fault-inject"),
        tasking: flags.has("tasking"),
        corpus_dir: flags.map.get("corpus").map(PathBuf::from),
        obs: obs.clone(),
    };
    println!(
        "fuzzing: {} iterations from seed {}, teams {:?}{}{}",
        opts.iters,
        opts.seed,
        opts.teams,
        if opts.tasking { ", tasking profile" } else { "" },
        if opts.fault_inject { ", with fault injection" } else { "" }
    );
    // The fuzzer has no session directory: its journal goes to a
    // standalone file next to the corpus (or in the temp dir), drained
    // after every program so the rings never hold more than one program's
    // analyses.
    let mut journal = match &obs {
        Some(_) => {
            let out_dir = opts.corpus_dir.clone().unwrap_or_else(std::env::temp_dir);
            std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
            Some(JournalFile::create(out_dir.join("fuzz-obs.jsonl"))?)
        }
        None => None,
    };
    let fuzz_journal = obs.as_ref().map(|o| o.journal.for_thread(Layer::Cli, "fuzz"));
    let campaign_start = fuzz_journal.as_ref().map(|j| j.now_us());
    let sw = Instant::now();
    let every = (opts.iters / 10).max(25);
    let summary = run_fuzz(&opts, |i, so_far| {
        if let (Some(o), Some(file)) = (&obs, &mut journal) {
            file.drain(o);
        }
        if (i + 1) % every == 0 {
            println!(
                "  [{:5}/{}] {} racy, {} oracle pairs, {} failure(s), {:.1}s",
                i + 1,
                opts.iters,
                so_far.programs_with_races,
                so_far.oracle_pairs,
                so_far.failures.len(),
                sw.elapsed().as_secs_f64()
            );
            if let Some(j) = &fuzz_journal {
                j.instant(
                    "fuzz-progress",
                    vec![
                        ("iter".into(), (i + 1) as f64),
                        ("failures".into(), so_far.failures.len() as f64),
                    ],
                );
            }
        }
    });
    println!("{}", summary.render());
    if let (Some(o), Some(file), Some(j), Some(start)) =
        (&obs, journal, &fuzz_journal, campaign_start)
    {
        let dur = j.now_us().saturating_sub(start);
        j.span_closed(
            "fuzz-campaign",
            start,
            dur,
            vec![
                ("iters".into(), opts.iters as f64),
                ("failures".into(), summary.failures.len() as f64),
            ],
        );
        file.finish(o)?;
    }
    if summary.failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} detector divergence(s) — see reproducers above", summary.failures.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_bools() {
        let known = ["threads", "size", "live", "json", "workers"];
        let f =
            Flags::parse("t", &known, &s(&["--threads", "8", "--live", "--size", "100"])).unwrap();
        assert_eq!(f.get_usize("threads", 4).unwrap(), 8);
        assert_eq!(f.get_u64("size", 0).unwrap(), 100);
        assert!(f.has("live"));
        assert!(!f.has("json"));
        assert_eq!(f.get_usize("workers", 3).unwrap(), 3, "default when absent");
    }

    #[test]
    fn flags_reject_garbage() {
        assert!(Flags::parse("t", &["threads"], &s(&["positional"])).is_err());
        let f = Flags::parse("t", &["threads"], &s(&["--threads", "many"])).unwrap();
        assert!(f.get_usize("threads", 4).is_err());
        let err = Flags::parse("t", &["threads"], &s(&["--thread", "2"])).err().unwrap();
        assert_eq!(err, "unknown flag --thread for t");
    }

    #[test]
    fn removed_and_misspelled_flags_are_rejected() {
        // A script still passing a deleted analysis switch, or a typo,
        // must fail loudly instead of silently running the default. The
        // flags are checked before the session or workload is touched.
        let cases: [(&str, &[&str]); 4] = [
            ("analyze", &["analyze", "/no/such/session"]),
            ("watch", &["watch", "/no/such/session"]),
            ("explain", &["explain", "/no/such/session", "0"]),
            ("check", &["check", "c_pi"]),
        ];
        let bad: [(&[&str], &str); 5] = [
            (&["--read-mode", "buffered"], "read-mode"),
            (&["--ilp"], "ilp"),
            (&["--no-verdict-cache"], "no-verdict-cache"),
            (&["--solver-tiers", "none"], "solver-tiers"),
            (&["--worker", "1"], "worker"),
        ];
        for (cmd, prefix) in cases {
            for (flag, key) in bad {
                let err = run(&s(&[prefix, flag].concat())).expect_err(key);
                assert_eq!(err, format!("unknown flag --{key} for {cmd}"));
            }
        }
        for args in [
            &["run", "c_pi", "--sesion", "/tmp/x"][..],
            &["compare", "c_pi", "--workers", "2"],
            &["top", "/no/such/session", "--iter", "1"],
            &["report", "/no/such/session", "--htm"],
            &["trace", "export", "/no/such/session", "--fmt", "chrome"],
            &["fuzz", "--iter", "1"],
            &["meta", "/no/such/session", "--json"],
            &["list", "--json"],
        ] {
            let err = run(&s(args)).expect_err("typo");
            assert!(err.starts_with("unknown flag --"), "{args:?}: {err}");
        }
    }

    #[test]
    fn dispatcher_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["check", "no-such-workload"])).is_err());
        assert!(run(&s(&["analyze"])).is_err());
        assert!(run(&s(&["watch"])).is_err());
        assert!(run(&s(&["watch", "/no/such/session-dir"])).is_err());
        assert!(run(&s(&["explain"])).is_err());
        assert!(run(&s(&["explain", "/tmp/whatever"])).is_err(), "missing race id");
        assert!(run(&s(&["explain", "/tmp/whatever", "zero"])).is_err(), "non-numeric id");
    }

    #[test]
    fn list_and_check_work_end_to_end() {
        run(&s(&["list"])).expect("list");
        // `check` runs collection + analysis on a tiny pinned kernel.
        run(&s(&["check", "plusplus-orig-yes", "--threads", "4"])).expect("check");
        run(&s(&["check", "c_pi", "--json"])).expect("check --json");
    }

    #[test]
    fn run_then_meta_then_analyze() {
        let session = std::env::temp_dir().join(format!("sword-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&session);
        run(&s(&["run", "sections1-orig-yes", "--session", session.to_str().unwrap(), "--stats"]))
            .expect("run --stats");
        // The collector persisted its flush counters for `analyze --stats`.
        let info = SessionDir::new(&session).read_info().expect("info");
        assert!(sword_obs::render_flush(&info).is_some());
        run(&s(&["meta", session.to_str().unwrap()])).expect("meta");
        run(&s(&["analyze", session.to_str().unwrap(), "--workers", "1"])).expect("analyze");
        run(&s(&["analyze", session.to_str().unwrap(), "--json"])).expect("analyze --json");
        run(&s(&["analyze", session.to_str().unwrap(), "--stats"])).expect("analyze --stats");
        std::fs::remove_dir_all(&session).unwrap();
    }

    #[test]
    fn fuzz_smoke_is_clean_and_deterministic() {
        run(&s(&["fuzz", "--seed", "7", "--iters", "4", "--team", "2"])).expect("fuzz");
        // Bad flag values fail up front, before any iteration runs.
        assert!(run(&s(&["fuzz", "--iters", "many"])).is_err());
        assert!(run(&s(&["fuzz", "--team", "x"])).is_err());
    }

    #[test]
    fn compare_runs_all_tools() {
        run(&s(&["compare", "c_pi", "--threads", "2"])).expect("compare");
    }

    #[test]
    fn watch_pre_written_session() {
        // A finished live-mode session: watch ingests it in one poll,
        // reports its race, and exits.
        let session = std::env::temp_dir().join(format!("sword-cli-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&session);
        run(&s(&["run", "plusplus-orig-yes", "--session", session.to_str().unwrap(), "--live"]))
            .expect("run --live");
        run(&s(&["watch", session.to_str().unwrap(), "--stats"])).expect("watch");
        run(&s(&["watch", session.to_str().unwrap(), "--json"])).expect("watch --json");
        std::fs::remove_dir_all(&session).unwrap();
    }

    #[test]
    fn obs_run_analyze_export_report_end_to_end() {
        use sword_obs::json::Value;

        let session = std::env::temp_dir().join(format!("sword-cli-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&session);
        let dir = session.to_str().unwrap();
        run(&s(&["run", "plusplus-orig-yes", "--session", dir, "--obs", "--stats"]))
            .expect("run --obs");
        run(&s(&["analyze", dir, "--obs", "--stats"])).expect("analyze --obs");
        run(&s(&["trace", "export", dir])).expect("trace export");
        run(&s(&["report", dir, "--top", "5"])).expect("report");
        run(&s(&["explain", dir, "0"])).expect("explain race 0");
        assert!(run(&s(&["explain", dir, "99"])).is_err(), "out-of-range race id");

        // The HTML dashboard is self-contained and carries one card per
        // reported race plus hot-site rows sourced from the journaled
        // site counters.
        run(&s(&["report", dir, "--html"])).expect("report --html");
        let html = std::fs::read_to_string(session.join("report.html")).expect("report.html");
        assert!(html.starts_with("<!DOCTYPE html>"));
        // plusplus-orig-yes dedups to two source pairs (read-write and
        // write-write on the shared counter) — one card each.
        assert_eq!(html.matches("<details class=\"race\"").count(), 2, "one card per race");
        assert!(html.contains("hot sites"), "hot-site section present");
        let journal = std::fs::read_to_string(SessionDir::new(&session).obs_path()).unwrap();
        assert!(journal.contains("sword_site_pairs{site="), "site counters journaled");

        // The exported trace carries spans from all three layers, with
        // proper nesting per (pid, tid) lane.
        let text = std::fs::read_to_string(session.join("trace.json")).expect("trace.json");
        let doc = sword_obs::json::parse(&text).expect("valid chrome trace JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
        let spans: Vec<(u64, u64, u64, u64)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .map(|e| {
                (
                    e.get("pid").and_then(Value::as_u64).unwrap(),
                    e.get("tid").and_then(Value::as_u64).unwrap(),
                    e.get("ts").and_then(Value::as_u64).unwrap(),
                    e.get("dur").and_then(Value::as_u64).unwrap(),
                )
            })
            .collect();
        for pid in [Layer::Runtime.pid(), Layer::Offline.pid(), Layer::Cli.pid()] {
            assert!(
                spans.iter().any(|(p, ..)| *p == pid),
                "expected complete spans from layer pid {pid}"
            );
        }
        // Nesting: two spans on the same lane either nest or are
        // disjoint — partial overlap would mean corrupt span bounds.
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                if (a.0, a.1) != (b.0, b.1) {
                    continue;
                }
                let (a0, a1) = (a.2, a.2 + a.3);
                let (b0, b1) = (b.2, b.2 + b.3);
                let disjoint = a1 <= b0 || b1 <= a0;
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                assert!(
                    disjoint || nested,
                    "partially overlapping spans on pid {} tid {}: [{a0},{a1}) vs [{b0},{b1})",
                    a.0,
                    a.1
                );
            }
        }
        // Per-thread ordering: each lane's instant events appear in
        // nondecreasing timestamp order (ring drains preserve program
        // order within a thread).
        let mut last_instant: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
        for e in events {
            if e.get("ph").and_then(Value::as_str) != Some("i") {
                continue;
            }
            let key = (
                e.get("pid").and_then(Value::as_u64).unwrap(),
                e.get("tid").and_then(Value::as_u64).unwrap(),
            );
            let ts = e.get("ts").and_then(Value::as_u64).unwrap();
            if let Some(prev) = last_instant.insert(key, ts) {
                assert!(prev <= ts, "instants out of order on lane {key:?}");
            }
        }

        // The report sources its memory section from the journaled
        // registry snapshots (collector gauge + analyzer tree gauges)
        // and checks them against the paper's per-thread bound.
        let read = sword_obs::read_journal(&SessionDir::new(&session).obs_path()).unwrap();
        let info = SessionDir::new(&session).read_info().unwrap();
        let report = sword_obs::render_report(&ReportInput {
            events: read.events,
            info,
            truncated_tail: read.truncated_tail,
            top_n: 10,
        });
        assert!(report.contains("sword_collector_tool_mem_bytes"), "collector gauge:\n{report}");
        assert!(report.contains("sword_analyzer_tree_mem_peak_bytes"), "tree gauge:\n{report}");
        assert!(report.contains("within"), "memory must sit within the paper bound:\n{report}");
        assert!(report.contains("3.30 MB"), "per-thread bound quoted:\n{report}");

        // Error paths: a format flag (Chrome is the one format), journal-less session.
        let err = run(&s(&["trace", "export", dir, "--format", "chrome"])).expect_err("--format");
        assert_eq!(err, "unknown flag --format for trace export");
        let bare = std::env::temp_dir().join(format!("sword-cli-bare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&bare);
        SessionDir::new(&bare).create().unwrap();
        // A journal-less session still reports a skeleton (warning only);
        // trace export has nothing to convert and stays an error.
        run(&s(&["report", bare.to_str().unwrap()])).expect("bare report skeleton");
        assert!(run(&s(&["trace", "export", bare.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&bare).unwrap();
        std::fs::remove_dir_all(&session).unwrap();
    }

    #[test]
    fn fuzz_obs_writes_standalone_journal() {
        let corpus = std::env::temp_dir().join(format!("sword-fuzz-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&corpus);
        run(&s(&[
            "fuzz",
            "--seed",
            "3",
            "--iters",
            "2",
            "--team",
            "2",
            "--corpus",
            corpus.to_str().unwrap(),
            "--obs",
        ]))
        .expect("fuzz --obs");
        let read = sword_obs::read_journal(&corpus.join("fuzz-obs.jsonl")).expect("fuzz journal");
        assert!(
            read.events.iter().any(|e| e.layer == Layer::Cli && e.name == "fuzz-campaign"),
            "campaign span journaled"
        );
        // The campaign's analyses record into the same sink: their stage
        // spans, and the solver rows in the final registry snapshot.
        assert!(read
            .events
            .iter()
            .any(|e| e.layer == Layer::Offline && e.name == "build-structure"));
        let metrics = read.events.iter().rev().find(|e| e.name == "metrics").expect("a snapshot");
        for row in ["sword_solver_tier{", "sword_solver_call_nanos_count"] {
            assert!(metrics.args.iter().any(|(k, _)| k.starts_with(row)), "{row} recorded");
        }
        // Every analysis adds into the same rows: each solve has one
        // deciding tier, so the tier rows (less the prescreen, which
        // retires pairs before the solver) add up to the solves.
        let row = |name: &str| metrics.args.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        let solves = row("sword_solver_call_nanos_count").expect("solve count");
        let decided: f64 = metrics
            .args
            .iter()
            .filter(|(k, _)| k.starts_with("sword_solver_tier{") && !k.contains("prescreen"))
            .map(|(_, v)| v)
            .sum();
        assert!(solves > 0.0, "the campaign solved nothing");
        assert_eq!(decided, solves, "tier rows against solves");
        std::fs::remove_dir_all(&corpus).unwrap();
    }

    /// Reserves an ephemeral port by binding and immediately releasing it.
    /// A tiny race window remains, but nothing else in the test process
    /// binds ports concurrently.
    fn free_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    #[test]
    fn listen_serves_status_metrics_and_events_during_watch() {
        use std::time::{Duration, Instant};

        // A live-mode session that never finishes: watch polls it for a
        // few seconds, giving a deterministic window to exercise every
        // telemetry endpoint against the in-flight command.
        let dir = std::env::temp_dir().join(format!("sword-cli-listen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SessionDir::new(&dir);
        session.create().unwrap();
        std::fs::write(session.thread_meta(0), "").unwrap();
        session.write_live(sword_trace::LiveStatus { generation: 1, finished: false }).unwrap();
        let addr = free_addr();
        let watcher = {
            let dir = dir.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                run(&s(&[
                    "watch",
                    dir.to_str().unwrap(),
                    "--interval-ms",
                    "20",
                    "--timeout-secs",
                    "4",
                    "--listen",
                    &addr,
                ]))
            })
        };
        // Wait for the exporter to come up, then hit each endpoint.
        let deadline = Instant::now() + Duration::from_secs(3);
        let status = loop {
            match http_get(&addr, "/status", Duration::from_secs(1)) {
                Ok(body) => break body,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Err(e) => panic!("telemetry endpoint never came up: {e}"),
            }
        };
        let doc = sword_obs::json::parse(&status).expect("status JSON");
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("session").and_then(Value::as_str),
            Some(dir.to_str().unwrap()),
            "{status}"
        );
        assert!(doc.get("races").is_some(), "{status}");
        assert!(doc.get("polls").is_some(), "{status}");
        let metrics = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert!(metrics.contains("sword_exporter_requests_total"), "{metrics}");
        let health = http_get(&addr, "/healthz", Duration::from_secs(2)).unwrap();
        assert_eq!(sword_obs::json::parse(&health).unwrap().get("ok"), Some(&Value::Bool(true)));
        let races = http_get(&addr, "/races", Duration::from_secs(2)).unwrap();
        assert!(sword_obs::json::parse(&races).unwrap().as_arr().is_some());
        // `sword top` renders frames from the same live endpoint.
        run(&s(&["top", &addr, "--iters", "2", "--interval-ms", "10"])).expect("top vs http");
        watcher.join().unwrap().expect("watch --listen");
        // After the command ends, the exporter is down.
        assert!(http_get(&addr, "/healthz", Duration::from_secs(1)).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_with_listen_attaches_exporter_and_top_reads_session() {
        let dir = std::env::temp_dir().join(format!("sword-cli-rls-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let addr = free_addr();
        run(&s(&[
            "run",
            "plusplus-orig-yes",
            "--session",
            dir.to_str().unwrap(),
            "--live",
            "--listen",
            &addr,
        ]))
        .expect("run --live --listen");
        // The exporter shared the collector's registry: its self-metering
        // rows landed in the finalize-time Prometheus exposition.
        let prom = std::fs::read_to_string(SessionDir::new(&dir).metrics_path()).unwrap();
        assert!(prom.contains("sword_exporter_requests_total"), "{prom}");
        assert!(prom.contains("sword_flush_queue_wait_us"), "{prom}");
        assert!(prom.contains("{quantile=\"0.95\"}"), "{prom}");
        // Session-directory `sword top`: finished session renders one
        // frame (queue depths + quantiles) and exits on its own.
        run(&s(&["top", dir.to_str().unwrap()])).expect("top vs session dir");
        assert!(run(&s(&["top", "/no/such/target"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_renders_the_same_tables_from_status_and_the_journal() {
        // One registry, read both ways `sword top` reads: `/status`'s flat
        // `metrics` object and the last snapshot in a session's obs.jsonl.
        let dir = std::env::temp_dir().join(format!("sword-cli-top-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SessionDir::new(&dir);
        session.create().unwrap();
        let obs = Obs::new();
        obs.registry.gauge("sword_flush_queue_depth", "depth").set(5);
        obs.registry.gauge("sword_task_queue_depth", "depth").set(0);
        obs.registry.counter("sword_flushes_total", "flushes").add(7);
        let wait = obs.registry.histogram("sword_flush_queue_wait_us", "wait");
        for v in [3, 40, 40, 900, 12_000] {
            wait.record(v);
        }
        obs.registry.histogram("sword_solver_call_nanos", "no samples: no row");
        // The provider runs inside the `/status` request, just before the
        // snapshot, so the snapshot it journals holds the registry state
        // `/status` reads (exporter self-metering included).
        let (journaled, path) = (obs.clone(), session.obs_path());
        let status: JsonFn = Arc::new(move || {
            journaled.snapshot_to_journal();
            let mut sink = JournalSink::append(&path).unwrap();
            sink.drain_from(&journaled.journal, &mut 0).unwrap();
            Value::Obj(vec![])
        });
        let server = TelemetryServer::start(
            "127.0.0.1:0",
            TelemetryHandles::new(obs.clone()).with_status(status),
        )
        .unwrap();
        let (http_frame, _) = top_frame_http(&server.local_addr().to_string()).unwrap();
        server.shutdown();
        let mut tail = sword_obs::JournalTail::default();
        let (session_frame, _) = top_frame_session(&session, &mut tail).unwrap();

        let tables =
            |frame: &str| frame[frame.find("== ").expect("frame has tables")..].to_string();
        assert_eq!(tables(&http_frame), tables(&session_frame));
        let tables = tables(&http_frame);
        assert!(tables.starts_with("== queue depths =="), "{tables}");
        assert!(tables.contains("sword_flush_queue_depth  5"), "{tables}");
        assert!(tables.contains("sword_task_queue_depth   0"), "{tables}");
        assert!(tables.contains("== latency quantiles =="), "{tables}");
        assert!(tables.contains("sword_flush_queue_wait_us  5"), "{tables}");
        assert!(!tables.contains("sword_solver_call_nanos"), "{tables}");
        assert!(!tables.contains("sword_flushes_total"), "{tables}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_shows_a_running_sessions_journal() {
        use std::time::{Duration, Instant};

        // A collection held open until its journal holds a registry
        // snapshot: the collector appends one every 250 ms while it writes
        // blocks, and `metrics.prom` only at finalize. `sword top` on the
        // session shows the collector's queue depth before then.
        let dir = std::env::temp_dir().join(format!("sword-cli-top-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SessionDir::new(&dir);
        let config = SwordConfig::new(&dir).with_obs(Obs::new()).buffer_events(256);
        let (frame, _) = run_collected(config, SimConfig::default(), |sim| {
            let a = sim.alloc::<u64>(1 << 14, 0);
            let deadline = Instant::now() + Duration::from_secs(60);
            sim.run(|ctx| {
                let snapshotted = || {
                    let read = sword_obs::read_journal(&session.obs_path());
                    read.is_ok_and(|r| r.events.iter().any(|e| e.name == "metrics"))
                };
                // Regions whose buffers fill keep the writer receiving
                // blocks, which is when it journals a due snapshot.
                while !snapshotted() {
                    assert!(Instant::now() < deadline, "no snapshot journaled mid-run");
                    ctx.parallel(2, |w| w.for_static(0..1 << 14, |i| w.write(&a, i, i)));
                }
                assert!(!session.metrics_path().exists(), "finalize has not run");
                let mut tail = sword_obs::JournalTail::default();
                top_frame_session(&session, &mut tail).expect("top frame").0
            })
        })
        .expect("collection");
        let depth = frame.lines().find(|l| l.starts_with("sword_flush_queue_depth"));
        assert!(depth.is_some(), "{frame}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdicts_identical_with_and_without_exporter() {
        use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

        // One session, analyzed twice: bare, and with the exporter
        // scraping the live registry throughout. The verdicts and
        // evidence must render byte-identically — telemetry reads must
        // never perturb analysis results.
        let dir = std::env::temp_dir().join(format!("sword-cli-ident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run(&s(&["run", "plusplus-orig-yes", "--session", dir.to_str().unwrap()])).expect("run");
        let session = SessionDir::new(&dir);
        let pcs = read_pcs(&session).unwrap();

        // Wall-clock fields differ between any two runs; everything up to
        // the stats block (all races + evidence) must match exactly.
        fn verdict_bytes(text: &str) -> &str {
            text.split("\"stats\"").next().unwrap()
        }

        let bare = analyze(&session, &AnalysisConfig::default()).unwrap();
        let bare_text = sword_offline::render_json(&bare, &pcs);

        let obs = Obs::new();
        let config = AnalysisConfig::default().with_obs(obs.clone());
        let server = TelemetryServer::start("127.0.0.1:0", TelemetryHandles::new(obs)).unwrap();
        let addr = server.local_addr().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let hits = Arc::new(AtomicU32::new(0));
        let scraper = {
            let (stop, hits) = (Arc::clone(&stop), Arc::clone(&hits));
            let addr = addr.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if http_get(&addr, "/metrics", std::time::Duration::from_secs(1)).is_ok() {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        // A session this small is analyzed faster than one HTTP round
        // trip: keep analyzing until a scrape has landed among the runs.
        let mut watched = analyze(&session, &config).unwrap();
        while hits.load(Ordering::Relaxed) == 0 {
            watched = analyze(&session, &config).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        scraper.join().unwrap();
        server.shutdown();
        let watched_text = sword_offline::render_json(&watched, &pcs);
        assert_eq!(
            verdict_bytes(&bare_text),
            verdict_bytes(&watched_text),
            "exporter must not perturb verdicts"
        );
        assert!(bare_text.contains("\"races\""), "guard: split kept the verdict section");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watch_obs_journals_every_poll_of_a_long_watch() {
        // A stalled session polled every 5 ms for a second, with rings of
        // 8 events: far more `poll` spans than one ring holds. Each must
        // land in obs.jsonl; a drain only at exit would keep the first 8
        // and write a `dropped_events` marker.
        const RING: usize = 8;
        let dir = std::env::temp_dir().join(format!("sword-cli-watch-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SessionDir::new(&dir);
        session.create().unwrap();
        std::fs::write(session.thread_meta(0), "").unwrap();
        session.write_live(sword_trace::LiveStatus { generation: 1, finished: false }).unwrap();
        let args =
            s(&[dir.to_str().unwrap(), "--obs", "--interval-ms", "5", "--timeout-secs", "1"]);
        cmd_watch(&args, || Obs::with_ring_capacity(RING)).expect("watch --obs");
        let read = sword_obs::read_journal(&session.obs_path()).expect("obs.jsonl");
        let count = |name: &str| read.events.iter().filter(|e| e.name == name).count();
        assert!(count("poll") > 4 * RING, "{} poll spans", count("poll"));
        assert_eq!(count("dropped_events"), 0);
        // The final snapshot agrees: the journal dropped nothing at all.
        let last = read.events.iter().rev().find(|e| e.name == "metrics").expect("final snapshot");
        let dropped = last.args.iter().find(|(k, _)| k == "sword_journal_dropped_events_total");
        assert_eq!(dropped.map(|(_, v)| *v), Some(0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watch_obs_and_a_collector_sink_share_obs_jsonl_without_tearing() {
        // `run --live --obs` and `watch --obs` on one session both write
        // obs.jsonl for the whole run. The collector's sink, opened first
        // as the run opens it, drains a batch every 2 ms while the watch
        // drains after every poll: every line must parse, and every event
        // of both must be there.
        let dir =
            std::env::temp_dir().join(format!("sword-cli-watch-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SessionDir::new(&dir);
        session.create().unwrap();
        std::fs::write(session.thread_meta(0), "").unwrap();
        session.write_live(sword_trace::LiveStatus { generation: 1, finished: false }).unwrap();
        let mut sink = JournalSink::create(session.obs_path()).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let collector = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let obs = Obs::new();
                let flush = obs.journal.for_thread(Layer::Runtime, "flush");
                let (mut written, mut dropped) = (0usize, 0u64);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for _ in 0..40 {
                        flush.instant("flush", vec![("seq".into(), written as f64)]);
                        written += 1;
                    }
                    sink.drain_from(&obs.journal, &mut dropped).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                written
            })
        };
        let args =
            s(&[dir.to_str().unwrap(), "--obs", "--interval-ms", "2", "--timeout-secs", "1"]);
        cmd_watch(&args, Obs::new).expect("watch --obs");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let written = collector.join().unwrap();
        let read = sword_obs::read_journal(&session.obs_path()).expect("every line parses");
        assert!(!read.truncated_tail);
        let count = |name: &str| read.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("flush"), written);
        assert!(count("poll") > 20, "{} poll spans", count("poll"));
        assert_eq!(read.events.iter().filter(|e| e.name == "metrics").count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watch_times_out_on_a_stalled_session() {
        // A session that claims to be in flight but never progresses:
        // watch must give up at the timeout and report partial results.
        let dir = std::env::temp_dir().join(format!("sword-cli-stall-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SessionDir::new(&dir);
        session.create().unwrap();
        std::fs::write(session.thread_meta(0), "").unwrap();
        session.write_live(sword_trace::LiveStatus { generation: 1, finished: false }).unwrap();
        run(&s(&["watch", dir.to_str().unwrap(), "--interval-ms", "10", "--timeout-secs", "1"]))
            .expect("watch --timeout-secs");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
