//! One analysis, one stage table: `analyze --stats` prints it from the
//! analyzer's registry, and `sword report` and `report --html` print it
//! from the registry snapshot that analysis appended to `obs.jsonl`.

use std::process::Command;

/// Runs the `sword` binary and returns its stdout, failing on a non-zero
/// exit.
fn sword(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sword")).args(args).output().expect("sword runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sword {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The `(stage, items)` rows of the first `pipeline stages` table in
/// `text`.
fn stage_rows(text: &str) -> Vec<(String, String)> {
    let table: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "== pipeline stages ==")
        .skip(3)
        .take_while(|l| !l.trim().is_empty())
        .collect();
    table
        .iter()
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            (cells[0].to_string(), cells[2].to_string())
        })
        .collect()
}

#[test]
fn report_and_stats_print_the_same_stage_table() {
    let dir = std::env::temp_dir().join(format!("sword-stage-table-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = dir.to_str().expect("UTF-8 path");
    sword(&["run", "plusplus-orig-yes", "--session", session]);
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
