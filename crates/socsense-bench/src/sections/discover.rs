//! `discover` → `BENCH_discover.json`: edge-recovery quality on the
//! fixed planted copy world behind the `discover-edge-f1` gate, plus
//! scoring throughput on a larger world.
//!
//! The quality half regenerates the planted default world at a fixed
//! seed, runs [`discover_dependencies`] at the default
//! [`DiscoverConfig`], and reports precision/recall/F1 against the
//! planted edges. The throughput half times discovery end to end
//! (profile build, candidate enumeration, the permutation-null scoring
//! pass, and acceptance) on a ~20k-claim world and reports claims per
//! second.

use serde_json::Value;
use socsense_core::Obs;
use socsense_discover::{discover_dependencies, edge_quality, DiscoverConfig};
use socsense_synth::{PlantedConfig, PlantedDataset};

const SEED: u64 = 2016;
const REPS: usize = 5;

pub(crate) fn run(obs: &Obs) -> Result<Value, String> {
    let cfg = DiscoverConfig::default();

    // --- Quality: the CI gate's substrate ----------------------------
    let gate_world = PlantedConfig::default_world();
    let ds = PlantedDataset::generate(&gate_world, SEED).expect("planted config validates");
    let discovery = discover_dependencies(ds.n, ds.m, &ds.claims, &cfg).expect("discovery runs");
    let quality = edge_quality(discovery.edge_pairs(), ds.true_edges());
    eprintln!(
        "quality: {} planted edges, {} discovered, p={:.3} r={:.3} f1={:.3}",
        quality.true_edges,
        quality.discovered_edges,
        quality.precision,
        quality.recall,
        quality.f1()
    );

    // --- Throughput: a larger world ----------------------------------
    let big_world = PlantedConfig {
        roots: 24,
        assertions: 2000,
        ..PlantedConfig::default_world()
    };
    let big = PlantedDataset::generate(&big_world, SEED).expect("planted config validates");
    let mut last_edges = 0usize;
    let median_secs = socsense_obs::median_timed(obs, "bench.discover.seconds", REPS, || {
        let d = discover_dependencies(big.n, big.m, &big.claims, &cfg).expect("discovery runs");
        last_edges = d.edges.len();
    });
    let claims_per_sec = big.claims.len() as f64 / median_secs;
    eprintln!(
        "throughput: {} claims, {} sources -> {} edges in {:.4}s median ({:.0} claims/s)",
        big.claims.len(),
        big.n,
        last_edges,
        median_secs,
        claims_per_sec
    );

    Ok(serde_json::json!({
        "quality": serde_json::json!({
            "world": "planted default_world",
            "seed": SEED,
            "sources": ds.n,
            "assertions": ds.m,
            "claims": ds.claims.len(),
            "true_edges": quality.true_edges,
            "discovered_edges": quality.discovered_edges,
            "true_positives": quality.true_positives,
            "precision": quality.precision,
            "recall": quality.recall,
            "f1": quality.f1(),
        }),
        "throughput": serde_json::json!({
            "world": "planted 24-root world",
            "seed": SEED,
            "sources": big.n,
            "assertions": big.m,
            "claims": big.claims.len(),
            "edges": last_edges,
            "timed_runs": REPS,
            "median_secs": median_secs,
            "claims_per_sec": claims_per_sec,
        }),
    }))
}
