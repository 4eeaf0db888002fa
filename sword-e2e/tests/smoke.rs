//! Drives the built `sword-e2e` binary: `BENCHMARK.json` must be what the
//! binary emits, and a `--smoke` run must report exactly the workloads
//! and metrics it declares, each once.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_sword-e2e");
const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(EXE).args(args).output().expect("spawn sword-e2e");
    assert!(
        out.status.success(),
        "sword-e2e {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn declared(manifest: &str, key: &str) -> Vec<String> {
    let open = format!("\"{key}\": [");
    let body = &manifest[manifest.find(&open).expect("section present") + open.len()..];
    let body = &body[..body.find("\n  ]").expect("section closed")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

/// The metric names of one result line, in the order printed.
fn reported(result_line: &str) -> Vec<String> {
    let metrics = &result_line[result_line.find("\"metrics\": {").expect("metrics object")..];
    let mut names = Vec::new();
    let mut chunks = metrics.split(": {\"value\":").peekable();
    while let Some(chunk) = chunks.next() {
        if chunks.peek().is_some() {
            let chunk = chunk.strip_suffix('"').expect("a quoted name precedes each value");
            names.push(chunk[chunk.rfind('"').unwrap() + 1..].to_string());
        }
    }
    names
}

#[test]
fn committed_manifest_is_the_emitted_one() {
    let committed =
        std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json at the repository root");
    assert_eq!(stdout_of(&["--emit-manifest"]), committed, "regenerate with --emit-manifest");
}

#[test]
fn smoke_run_reports_what_the_manifest_declares() {
    let manifest =
        std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json at the repository root");
    let workloads = declared(&manifest, "workloads");
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name `{name}`"
        );
    }

    // Every workload, end to end and then traced, in manifest order.
    let out = stdout_of(&["--smoke", "--samples", "2"]);
    let mut expected = Vec::new();
    for w in &workloads {
        expected.push((w.clone(), &end_to_end));
        expected.push((w.clone(), &per_layer));
    }
    let mut seen = Vec::new();
    let mut header = None;
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            header = Some(rest.split(" | ").next().unwrap().to_string());
        } else if line.starts_with("{\"correct\"") {
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
            assert!(line.contains("\"failed\": 0, "), "{line}");
            seen.push((header.take().expect("a header precedes each result"), reported(line)));
        }
    }
    assert_eq!(seen.len(), expected.len(), "one result per workload and mode");
    for ((workload, names), (want_workload, want_names)) in seen.iter().zip(&expected) {
        assert_eq!(workload, want_workload);
        assert_eq!(&names, want_names, "{workload}");
    }
}
