//! `parallel` → `BENCH_parallel.json`: the deterministic parallel
//! layer's two hot paths — an EM-Ext fit and a Gibbs bound sweep — at
//! `Serial` vs 2/4/8 worker threads.
//!
//! The expected scaling depends entirely on the host's core count: on
//! a small host the threaded rows pay queue/spawn overhead and a
//! speedup cannot materialise, while the numbers stay bit-identical by
//! the `socsense_matrix::parallel` contract.

use serde_json::Value;
use socsense_core::{
    bound_for_assertions_with, BoundMethod, EmConfig, EmExt, GibbsConfig, Obs, Parallelism,
};
use socsense_obs::median_timed;

use crate::{bound_fixture, synth_fixture};

/// The worker-count ladder every parallel row sweeps.
pub(crate) const LEVELS: [(&str, Parallelism); 4] = [
    ("serial", Parallelism::Serial),
    ("threads-2", Parallelism::Threads(2)),
    ("threads-4", Parallelism::Threads(4)),
    ("threads-8", Parallelism::Threads(8)),
];

const REPS: usize = 5;

pub(crate) fn run(obs: &Obs) -> Result<Value, String> {
    // EM-Ext fit on a paper-defaults synthetic problem.
    let ds = synth_fixture(150, 11);
    let em_times: Vec<(&str, f64)> = LEVELS
        .iter()
        .map(|&(name, par)| {
            let em = EmExt::new(EmConfig {
                parallelism: par,
                ..EmConfig::default()
            });
            let secs = median_timed(
                obs,
                &format!("bench.em_ext_fit.{name}.seconds"),
                REPS,
                || {
                    em.fit(&ds.data).expect("fit succeeds");
                },
            );
            eprintln!("em-ext/{name}: {secs:.4}s");
            (name, secs)
        })
        .collect();

    // Gibbs bound sweep across every assertion of a smaller problem.
    let (data, theta) = bound_fixture(40, 7);
    let assertions: Vec<u32> = (0..data.assertion_count() as u32).collect();
    let method = BoundMethod::Gibbs(GibbsConfig {
        min_samples: 1000,
        max_samples: 4000,
        ..GibbsConfig::default()
    });
    let gibbs_times: Vec<(&str, f64)> = LEVELS
        .iter()
        .map(|&(name, par)| {
            let secs = median_timed(
                obs,
                &format!("bench.gibbs_bound.{name}.seconds"),
                REPS,
                || {
                    bound_for_assertions_with(&data, &theta, &method, &assertions, par)
                        .expect("bound succeeds");
                },
            );
            eprintln!("gibbs-bound/{name}: {secs:.4}s");
            (name, secs)
        })
        .collect();

    let rows = |times: &[(&str, f64)]| -> Vec<Value> {
        times
            .iter()
            .map(|&(name, secs)| serde_json::json!({ "parallelism": name, "median_secs": secs }))
            .collect()
    };
    Ok(serde_json::json!({
        "reps_per_row": REPS,
        "em_ext_fit": serde_json::json!({
            "fixture": serde_json::json!({
                "sources": 150,
                "generator": "paper_defaults",
                "seed": 11,
            }),
            "serial_secs": em_times[0].1,
            "rows": rows(&em_times),
        }),
        "gibbs_bound_sweep": serde_json::json!({
            "fixture": serde_json::json!({
                "sources": 40,
                "assertions": assertions.len(),
                "min_samples": 1000,
                "max_samples": 4000,
            }),
            "serial_secs": gibbs_times[0].1,
            "rows": rows(&gibbs_times),
        }),
    }))
}
