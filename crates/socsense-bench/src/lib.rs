//! The workspace's bench harness and perf-regression gates.
//!
//! One `bench` binary writes every checked-in `BENCH_<section>.json`:
//!
//! ```text
//! cargo run --release -p socsense-bench --bin bench -- [OUT_DIR] [SECTION...]
//! ```
//!
//! `OUT_DIR` defaults to the workspace root and no `SECTION` runs every
//! entry of [`SECTIONS`] in table order. A first argument that names a
//! section is a section, not a directory (write `./lint` for a
//! directory called `lint`). Each section is a function that measures
//! and returns its JSON payload; the shared path ([`emit`]) adds the
//! `host` block (detected `available_parallelism` plus the section's
//! note), the `bench.*` recorder snapshot under `metrics` and, on a
//! host with fewer cores than the section needs for a representative
//! number, a top-level `warning`. The binary prints a GitHub-flavoured
//! markdown summary of the host and its warnings on stdout (CI appends
//! it to the job summary); progress goes to stderr.
//!
//! | section | measures | gates |
//! |---|---|---|
//! | `parallel` | EM-Ext fit and Gibbs bound sweep, serial vs 2/4/8 threads | — |
//! | `ingest` | naive vs inverted-index text clustering; chunked JSONL parse | `ingest-*` |
//! | `serve` | per-request serve latency; Shards(1) overhead; shard-count rows | `serve-*`, `shard-overhead` |
//! | `delta` | full vs delta refit latency across history sizes | `delta-*` |
//! | `wal` | WAL + fsync ingest overhead; cold recovery | `wal-overhead` |
//! | `discover` | planted-world edge recovery; discovery throughput | `discover-*` |
//! | `lint` | detlint whole-workspace scan throughput | `lint-*` |
//! | `ablations` | EM-variant fit scaling; smoothing, init, Gibbs-variant and exact-pruning ablations | — |
//!
//! [`gate`] holds the declarative floors/ceilings of
//! `scripts/perf_gates.toml`, which the `perf_gate` binary checks over
//! the emitted files.

// detlint: contract = tooling
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

mod sections {
    pub(crate) mod ablations;
    pub(crate) mod delta;
    pub(crate) mod discover;
    pub(crate) mod ingest;
    pub(crate) mod lint;
    pub(crate) mod parallel;
    pub(crate) mod serve;
    pub(crate) mod wal;
}

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use socsense_core::{ClaimData, Obs, Theta};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_synth::{empirical_theta, GeneratorConfig, SyntheticDataset};

/// One entry of the `bench` section table.
#[derive(Debug)]
pub struct Section {
    /// Section name; the section writes `BENCH_<name>.json`.
    pub name: &'static str,
    /// Measures and returns the payload, timing through the given
    /// recorder-backed [`Obs`].
    pub run: fn(&Obs) -> Result<Value, String>,
    /// `host.note`: what the numbers do and do not depend on.
    pub note: &'static str,
    /// Below this many cores the file carries a `warning`; `0` never
    /// warns.
    pub min_cores: usize,
    /// The warning text after its `LOW-CORE HOST` prefix.
    pub warning: &'static str,
}

impl Section {
    /// The file this section writes, relative to the output directory.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// Every section, in the order a bare `bench` runs them.
pub const SECTIONS: &[Section] = &[
    Section {
        name: "parallel",
        run: sections::parallel::run,
        note: "results are bit-identical at every level; only wall-clock varies",
        min_cores: 4,
        warning: "threaded rows measure queue/spawn overhead, not speedup — re-run on a \
                  >=4-core machine for the scaling curve.",
    },
    Section {
        name: "ingest",
        run: sections::ingest::run,
        note: "clustering output and parse errors are bit-identical at every \
               parallelism level; only wall-clock varies",
        min_cores: 4,
        warning: "threaded rows measure queue/spawn overhead, not speedup — re-run on a \
                  >=4-core machine for the sharding curve. The single-core numbers that \
                  matter (naive vs indexed serial) are valid.",
    },
    Section {
        name: "serve",
        run: sections::serve::run,
        note: "latencies come from the service's own serve.request.<type>.seconds \
               histograms; every served number is bit-identical with or without the \
               recorder",
        min_cores: 4,
        warning: "multi-shard rows measure contention, not scaling; the latency \
                  quantiles and the shard-overhead ratio (both sides on the same host) \
                  remain meaningful.",
    },
    Section {
        name: "delta",
        run: sections::delta::run,
        note: "single-process medians over identical seeded batches; delta and full \
               modes serve bit-identical numbers at every fallback point (see \
               DESIGN.md \u{00a7}10)",
        min_cores: 4,
        warning: "absolute refit latencies are inflated by oversubscription; the \
                  full-vs-delta speedup ratio remains meaningful, but re-run on a \
                  >=4-core machine for representative numbers.",
    },
    Section {
        name: "wal",
        run: sections::wal::run,
        note: "single-process medians over identical seeded batches; durability is \
               observation-equivalent — served numbers are bit-identical with the WAL \
               on or off (see DESIGN.md \u{00a7}12)",
        min_cores: 4,
        warning: "absolute ingest latencies are inflated by oversubscription; the \
                  WAL-overhead ratio remains meaningful, but re-run on a >=4-core \
                  machine for representative numbers.",
    },
    Section {
        name: "discover",
        run: sections::discover::run,
        note: "edge quality is seed-pinned and host-independent; throughput is a \
               single-process median",
        min_cores: 4,
        warning: "discovery throughput is inflated by oversubscription; the \
                  edge-quality numbers are seed-pinned and remain meaningful, but \
                  re-run on a >=4-core machine for representative claims/sec.",
    },
    Section {
        name: "lint",
        run: sections::lint::run,
        note: "the scan is single-threaded; files/s depends on single-core speed, not \
               core count",
        min_cores: 2,
        warning: "the scan shares its core with the OS; files/s may read low.",
    },
    Section {
        name: "ablations",
        run: sections::ablations::run,
        note: "single-process medians at each estimator's default parallelism; compare \
               rows within one file, not across hosts",
        min_cores: 0,
        warning: "",
    },
];

/// The table entry called `name`.
fn find_section(name: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.name == name)
}

/// Splits `bench`'s arguments into the output directory and the
/// sections to run: an optional leading directory (anything that is
/// not a section name; default `default_dir`), then section names
/// (default: all of [`SECTIONS`]).
///
/// # Errors
///
/// An unknown section name, with the list of known ones.
pub fn parse_args(
    mut args: Vec<String>,
    default_dir: PathBuf,
) -> Result<(PathBuf, Vec<&'static Section>), String> {
    let out_dir = match args.first() {
        Some(first) if find_section(first).is_none() => PathBuf::from(args.remove(0)),
        _ => default_dir,
    };
    if args.is_empty() {
        return Ok((out_dir, SECTIONS.iter().collect()));
    }
    let picked = args
        .iter()
        .map(|name| {
            find_section(name).ok_or_else(|| {
                let known: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
                format!("unknown section `{name}` (known: {})", known.join(", "))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((out_dir, picked))
}

/// Detected core count (`available_parallelism`, 1 when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The low-core warning `section` carries on a `cores`-core host.
fn low_core_warning(section: &Section, cores: usize) -> Option<String> {
    (cores < section.min_cores).then(|| {
        format!(
            "LOW-CORE HOST ({cores} < {} cores): {}",
            section.min_cores, section.warning
        )
    })
}

/// Runs one section and writes `out_dir/BENCH_<name>.json`: the
/// payload plus `host`, `metrics` (unless the section reports its own)
/// and, on a small host, `warning`. Returns the warning, if any.
///
/// # Errors
///
/// The section's own error, or an unwritable output file.
pub fn emit(section: &Section, out_dir: &Path, cores: usize) -> Result<Option<String>, String> {
    let (obs, rec) = Obs::recorder();
    let mut payload = (section.run)(&obs).map_err(|e| format!("{}: {e}", section.name))?;
    let Value::Object(map) = &mut payload else {
        return Err(format!("{}: payload is not a JSON object", section.name));
    };
    map.insert(
        "host".into(),
        serde_json::json!({
            "available_parallelism": cores,
            "note": section.note,
        }),
    );
    map.entry("metrics".to_string())
        .or_insert_with(|| serde_json::json!(rec.snapshot()));
    let warning = low_core_warning(section, cores);
    if let Some(w) = &warning {
        map.insert("warning".into(), serde_json::json!(w));
    }
    let path = out_dir.join(section.file_name());
    let json = serde_json::to_string_pretty(&payload).expect("serializes") + "\n";
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(warning)
}

/// The markdown job summary: detected cores plus each written file's
/// low-core warning.
pub fn summary(cores: usize, warnings: &[(String, String)]) -> String {
    let mut out = format!("### Bench host\ndetected cores: `{cores}`\n");
    for (file, warning) in warnings {
        out.push_str(&format!("\n> :warning: **{file}**: {warning}\n"));
    }
    out
}

/// A paper-defaults synthetic dataset with `n` sources (seeded).
pub(crate) fn synth_fixture(n: u32, seed: u64) -> SyntheticDataset {
    let cfg = GeneratorConfig {
        n,
        ..GeneratorConfig::paper_defaults()
    };
    SyntheticDataset::generate(&cfg, seed).expect("paper defaults validate")
}

/// `(data, θ)` for bound timings: the measured θ of a synthetic run.
pub(crate) fn bound_fixture(n: u32, seed: u64) -> (ClaimData, Theta) {
    let ds = synth_fixture(n, seed);
    let theta = empirical_theta(&ds);
    (ds.data, theta)
}

/// A reliable/unreliable two-camp claim stream of `count` claims over
/// `n` sources and `m` assertions: the first three quarters of the
/// sources claim only true assertions (the first half), the rest only
/// false ones. Timestamps run `t0 + 1, t0 + 2, …`.
pub(crate) fn two_camp_stream(n: u32, m: u32, count: usize, seed: u64, t0: u64) -> Vec<TimedClaim> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=count as u64)
        .map(|t| {
            let s = rng.gen_range(0..n);
            let honest = s < (n * 3) / 4;
            let j = loop {
                let j = rng.gen_range(0..m);
                if (j < m / 2) == honest {
                    break j;
                }
            };
            TimedClaim::new(s, j, t0 + t)
        })
        .collect()
}

/// `two_camp_stream` from `t0 = 0`, split into `count` batches of
/// `batch` claims.
pub(crate) fn two_camp_batches(
    n: u32,
    m: u32,
    count: usize,
    batch: usize,
    seed: u64,
) -> Vec<Vec<TimedClaim>> {
    two_camp_stream(n, m, count * batch, seed, 0)
        .chunks(batch)
        .map(<[TimedClaim]>::to_vec)
        .collect()
}

/// A sparse follow relation (every 7th source follows its predecessor)
/// so the dependency matrix is non-trivial.
pub(crate) fn sparse_follow_graph(n: u32) -> FollowerGraph {
    let mut g = FollowerGraph::new(n);
    for i in (7..n).step_by(7) {
        g.add_follow(i, i - 1);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::parse_gates;

    #[test]
    fn every_gated_file_is_written_by_a_section() {
        let path = socsense_lint::workspace_root().join("scripts/perf_gates.toml");
        let text = std::fs::read_to_string(&path).expect("gates file is checked in");
        let gates = parse_gates(&text).expect("gates file parses");
        assert!(!gates.is_empty());
        let written: Vec<String> = SECTIONS.iter().map(Section::file_name).collect();
        for gate in &gates {
            assert!(
                written.contains(&gate.file),
                "gate `{}` reads {}, which no bench section writes",
                gate.name,
                gate.file
            );
        }
    }

    #[test]
    fn section_names_are_unique() {
        for (i, s) in SECTIONS.iter().enumerate() {
            assert!(SECTIONS[..i].iter().all(|t| t.name != s.name), "{}", s.name);
        }
    }

    #[test]
    fn args_split_into_dir_and_sections() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let root = PathBuf::from("root");

        let (dir, picked) = parse_args(args(&[]), root.clone()).unwrap();
        assert_eq!(dir, root);
        assert_eq!(picked.len(), SECTIONS.len());

        let (dir, picked) = parse_args(args(&["lint", "wal"]), root.clone()).unwrap();
        assert_eq!(dir, root);
        assert_eq!(
            picked.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["lint", "wal"]
        );

        let (dir, picked) = parse_args(args(&["out", "serve"]), root.clone()).unwrap();
        assert_eq!(dir, PathBuf::from("out"));
        assert_eq!(picked[0].name, "serve");

        let err = parse_args(args(&["out", "nope"]), root).unwrap_err();
        assert!(err.contains("unknown section `nope`"), "{err}");
    }

    #[test]
    fn low_core_warning_and_summary() {
        let parallel = find_section("parallel").unwrap();
        assert_eq!(low_core_warning(parallel, 4), None);
        let w = low_core_warning(parallel, 2).unwrap();
        assert!(w.starts_with("LOW-CORE HOST (2 < 4 cores): "), "{w}");
        assert_eq!(
            low_core_warning(find_section("ablations").unwrap(), 1),
            None
        );

        let md = summary(2, &[("BENCH_parallel.json".into(), w.clone())]);
        assert!(
            md.starts_with("### Bench host\ndetected cores: `2`\n"),
            "{md}"
        );
        assert!(md.contains(&format!("> :warning: **BENCH_parallel.json**: {w}")));
    }

    #[test]
    fn fixtures_build() {
        let ds = synth_fixture(10, 1);
        assert_eq!(ds.source_count(), 10);
        let (data, theta) = bound_fixture(8, 2);
        assert_eq!(data.source_count(), theta.source_count());
    }
}
