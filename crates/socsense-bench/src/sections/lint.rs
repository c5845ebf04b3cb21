//! `lint` → `BENCH_lint.json`: detlint's full workspace scan — lexing,
//! brace-tree parsing, the per-file rules, and the workspace-aware
//! P/C/F flow pass — over the live tree, behind the `lint-throughput`
//! gate.
//!
//! The scan runs [`REPS`] times and the median wall-clock is reported
//! alongside files/s and MB/s derived from the bytes lexed. The section
//! also re-reports the live tree's unsuppressed-finding count: the
//! checked-in `BENCH_lint.json` doubles as a record that the tree was
//! lint-clean when the numbers were taken, and the `lint-clean` gate
//! holds it at zero.

use serde_json::Value;
use socsense_core::Obs;
use socsense_lint::{scan_workspace, workspace_root};

const REPS: usize = 5;

pub(crate) fn run(obs: &Obs) -> Result<Value, String> {
    let root = workspace_root();
    // One untimed scan establishes the corpus shape (and warms the page
    // cache so the timed reps measure the analysis, not cold IO).
    let report = scan_workspace(&root)?;
    let source_bytes: u64 = report.graph.iter().map(|g| g.source_bytes as u64).sum();

    let mut last_files = 0usize;
    let median_secs = socsense_obs::median_timed(obs, "bench.lint.seconds", REPS, || {
        let r = scan_workspace(&root).expect("workspace root scans");
        last_files = r.files_scanned;
    });
    let files_per_sec = last_files as f64 / median_secs;
    let mb_per_sec = source_bytes as f64 / 1e6 / median_secs;
    eprintln!(
        "scan: {} files, {} crates, {} finding(s) ({} unsuppressed) in \
         {:.4}s median ({:.0} files/s, {:.1} MB/s)",
        report.files_scanned,
        report.crates.len(),
        report.findings.len(),
        report.unsuppressed(),
        median_secs,
        files_per_sec,
        mb_per_sec
    );

    Ok(serde_json::json!({
        "scan": serde_json::json!({
            "files_scanned": report.files_scanned,
            "crates": report.crates.len(),
            "source_bytes": source_bytes,
            "findings": report.findings.len(),
            "unsuppressed": report.unsuppressed(),
            "timed_runs": REPS,
            "median_secs": median_secs,
            "files_per_sec": files_per_sec,
            "mb_per_sec": mb_per_sec,
        }),
    }))
}
