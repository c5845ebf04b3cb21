//! `socsense-lint` — the `detlint` static-analysis pass.
//!
//! Every estimate this workspace ships is contractually bit-identical
//! across worker counts, warm/cold refits, and recorder on/off — and
//! the serving tier must not wedge on a panic or drift out of protocol
//! with its shards. The runtime `f64::to_bits` tests check the first
//! contract *after the fact*; `detlint` promotes both to
//! machine-checked properties of the source. The analyzer is
//! dependency-free (no `syn` — the workspace vendors none) and layers:
//!
//! * [`lexer`] — comments and literals stripped; every token carries
//!   its line and byte offset (fuzz-pinned span soundness);
//! * [`tree`] — a brace-tree pass recovering `fn` items, `enum`
//!   variants, `match` arms, and `#[cfg(test)]` ranges;
//! * [`rules`] — the per-file token-shape catalogue (`D1`–`D5`):
//!   hash-order iteration, wall-clock/env/RNG reads, same-statement
//!   parallel float reductions, NaN-poisoned comparators, headers;
//! * [`flow`] — the workspace-aware families over a whole-crate model
//!   with a crate-local call graph: panic paths reachable from the
//!   serve/persist seed set (`P1`), protocol-enum exhaustiveness and
//!   erosion (`C2`), spawn-join and reply-channel discipline (`C3`),
//!   and cross-statement float-accumulation dataflow (`F1`).
//!
//! Each crate declares its contract in its root file:
//!
//! ```text
//! # detlint: contract = deterministic   (written with `//`)
//! ```
//!
//! protocol message enums are marked `// detlint: protocol`, and
//! individual findings are silenced, one line at a time, with a
//! justified suppression:
//!
//! ```text
//! # detlint: allow(D2) -- observation-only: feeds latency histograms
//! ```
//!
//! An empty justification is itself an error. See `DESIGN.md` §9 for
//! the rule catalogue and the relation to the runtime bit-identity
//! tests and to the Miri/loom CI lanes, and [`rules`]/[`flow`] for
//! the per-rule details. The `lint` section of `socsense-bench`'s
//! `bench` binary times the full scan for the `lint-throughput` perf
//! gate.
//!
//! The `detlint` binary exits nonzero on any unsuppressed finding:
//!
//! ```text
//! cargo run -p socsense-lint --bin detlint -- --workspace
//! cargo run -p socsense-lint --bin detlint -- --workspace --format json
//! ```

// detlint: contract = tooling

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod tree;

pub use rules::{check_file, declared_contract, Contract, FileInput, Finding};
pub use scan::{scan_workspace, workspace_root, Report};
