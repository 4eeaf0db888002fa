//! One analysis, one view: `analyze --stats` renders the analyzer's
//! registry, and `sword report` and `report --html` render the registry
//! snapshot that analysis appended to `obs.jsonl`, through one function:
//! the same stage table and the same hot sites.

use std::process::Command;

/// Runs the `sword` binary and returns its stdout, failing on a non-zero
/// exit.
fn sword(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sword")).args(args).output().expect("sword runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sword {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The rows of the first table in `text` whose title starts with
/// `title`, each split into its cells.
fn table_rows(text: &str, title: &str) -> Vec<Vec<String>> {
    text.lines()
        .skip_while(|l| !l.starts_with(&format!("== {title}")))
        .skip(3)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// The `(stage, items)` rows of the first `pipeline stages` table in
/// `text`.
fn stage_rows(text: &str) -> Vec<(String, String)> {
    let rows = table_rows(text, "pipeline stages ==");
    rows.into_iter().map(|cells| (cells[0].clone(), cells[2].clone())).collect()
}

/// Collects the canonical racy workload into a fresh session directory.
fn collect(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sword-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sword(&["run", "plusplus-orig-yes", "--session", dir.to_str().expect("UTF-8 path")]);
    dir
}

#[test]
fn report_and_stats_print_the_same_stage_table() {
    let dir = collect("stage-table");
    let session = dir.to_str().expect("UTF-8 path");
    let stats = sword(&["analyze", session, "--obs", "--stats", "--workers", "2"]);
    let report = sword(&["report", session]);

    let rows = stage_rows(&stats);
    let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, sword_obs::STAGES, "--stats lists every stage in pipeline order");
    assert!(rows.iter().all(|(_, items)| items.parse::<u64>().is_ok()), "{rows:?}");
    assert_eq!(stage_rows(&report), rows, "sword report:\n{report}");

    let html = dir.join("dashboard.html");
    sword(&["report", session, "--html", html.to_str().expect("UTF-8 path")]);
    let html = std::fs::read_to_string(&html).expect("dashboard written");
    let html = html.replace("<pre>", "\n").replace("</pre>", "\n");
    assert_eq!(stage_rows(&html), rows, "report --html");
    std::fs::remove_dir_all(&dir).expect("session removed");
}

#[test]
fn report_and_stats_print_the_same_hot_sites() {
    let dir = collect("hot-sites");
    let session = dir.to_str().expect("UTF-8 path");
    let stats = sword(&["analyze", session, "--obs", "--stats", "--workers", "2"]);
    let report = sword(&["report", session]);
    let rows = table_rows(&stats, "hot sites");
    // plusplus-orig-yes races the read and the write of one counter
    // (`drb.rs:237` and `:240`), hottest first.
    let racy: Vec<&str> =
        rows.iter().filter(|cells| cells[4] != "0").map(|cells| cells[0].as_str()).collect();
    assert_eq!(racy.len(), 2, "{stats}");
    assert!(racy[0].ends_with("drb.rs:240") && racy[1].ends_with("drb.rs:237"), "{racy:?}");
    assert_eq!(table_rows(&report, "hot sites"), rows, "sword report:\n{report}");
    std::fs::remove_dir_all(&dir).expect("session removed");
}
