//! CI perf-regression gate: checks the numbers in freshly emitted
//! `BENCH_*.json` files against the floors/ceilings declared in
//! `scripts/perf_gates.toml`.
//!
//! ```text
//! cargo run --release -p socsense-bench --bin perf_gate -- \
//!     [GATES.toml] [RESULTS_DIR]
//! ```
//!
//! Defaults: `scripts/perf_gates.toml` and the workspace root (both
//! resolved via [`socsense_lint::workspace_root`], so invoking the
//! binary from a crate subdirectory checks the same files). Exits
//! non-zero when any gate fails *or* any gated measurement is missing —
//! a bench that silently stopped emitting a number must not pass.

use std::process::ExitCode;

use socsense_bench::gate::{evaluate, parse_gates, render};
use socsense_lint::workspace_root;

fn run() -> Result<bool, String> {
    let root = workspace_root();
    let mut args = std::env::args().skip(1);
    let gates_path = args
        .next()
        .unwrap_or_else(|| root.join("scripts/perf_gates.toml").display().to_string());
    let results_dir = args.next().unwrap_or_else(|| root.display().to_string());

    let text =
        std::fs::read_to_string(&gates_path).map_err(|e| format!("reading {gates_path}: {e}"))?;
    let gates = parse_gates(&text).map_err(|e| format!("{gates_path}: {e}"))?;
    if gates.is_empty() {
        return Err(format!("{gates_path}: no gates declared"));
    }
    let outcomes = evaluate(&gates, |file| {
        let path = format!("{results_dir}/{file}");
        std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))
    })?;
    print!("{}", render(&outcomes));
    let failed = outcomes.iter().filter(|o| !o.pass).count();
    if failed > 0 {
        eprintln!("{failed} of {} gates failed", outcomes.len());
    } else {
        eprintln!("all {} gates passed", outcomes.len());
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
