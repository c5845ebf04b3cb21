//! The workspace bench harness: runs bench sections and writes one
//! `BENCH_<section>.json` per section.
//!
//! ```text
//! cargo run --release -p socsense-bench --bin bench -- [OUT_DIR] [SECTION...]
//! ```
//!
//! `OUT_DIR` defaults to the workspace root; no `SECTION` runs them
//! all (see the `socsense_bench` crate docs for the table). Prints a
//! markdown host summary on stdout and progress on stderr; exits
//! non-zero when a section fails or a file cannot be written.

use std::process::ExitCode;

use socsense_bench::{emit, host_cores, parse_args, summary};
use socsense_lint::workspace_root;

fn run() -> Result<String, String> {
    let (out_dir, sections) = parse_args(std::env::args().skip(1).collect(), workspace_root())?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let cores = host_cores();
    let mut warnings = Vec::new();
    for section in sections {
        eprintln!("== {}", section.name);
        if let Some(w) = emit(section, &out_dir, cores)? {
            warnings.push((section.file_name(), w));
        }
    }
    Ok(summary(cores, &warnings))
}

fn main() -> ExitCode {
    match run() {
        Ok(markdown) => {
            print!("{markdown}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
