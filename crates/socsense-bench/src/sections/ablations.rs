//! `ablations` → `BENCH_ablations.json`: what the estimator design
//! choices cost in time. Their accuracy counterparts live in the
//! `repro` harness (`repro ablations`) and the integration tests.
//!
//! * `estimators` — EM-Ext / EM / EM-Social fit time from the paper's
//!   synthetic sizes up to a Twitter-shaped sparse matrix;
//! * `smoothing` — the paper-exact M-step (`s = 0`) vs hierarchical
//!   shrinkage (one extra accumulation pass);
//! * `init` — `Auto` runs two deterministic EMs and keeps the better
//!   likelihood, nominally twice a single init;
//! * `gibbs_estimator` — the self-normalised average vs the paper's
//!   literal Eq. 6 ratio (same chain, different accumulators);
//! * `exact_pruning` — the exact bound's decision pruning on
//!   informative sources vs near-uninformative ones at equal `n`, which
//!   defeat the bounds and force the full `2^n` walk.
//!
//! No gate reads this file.

use serde_json::Value;
use socsense_baselines::{EmExtFinder, EmIndependent, EmSocial, FactFinder};
use socsense_core::{
    bound_for_assertions, exact_bound, BoundMethod, ClaimData, EmConfig, EmExt, GibbsConfig,
    GibbsEstimator, InitStrategy, Obs,
};
use socsense_obs::median_timed;
use socsense_twitter::{ScenarioConfig, TwitterDataset};

use crate::{bound_fixture, synth_fixture};

const REPS: usize = 5;

/// Times `f` under `bench.ablation.<group>.<label>.seconds`; returns
/// the median seconds.
fn timed<T>(obs: &Obs, group: &str, label: &str, f: impl FnMut() -> T) -> f64 {
    let secs = median_timed(
        obs,
        &format!("bench.ablation.{group}.{label}.seconds"),
        REPS,
        f,
    );
    eprintln!("{group}/{label}: {secs:.6}s");
    secs
}

/// The `{label, median_secs}` row of [`timed`].
fn timed_row<T>(obs: &Obs, group: &str, label: &str, f: impl FnMut() -> T) -> Value {
    let secs = timed(obs, group, label, f);
    serde_json::json!({ "label": label, "median_secs": secs })
}

pub(crate) fn run(obs: &Obs) -> Result<Value, String> {
    Ok(serde_json::json!({
        "reps_per_row": REPS,
        "estimators": estimators(obs),
        "smoothing": smoothing(obs),
        "init": init(obs),
        "gibbs_estimator": gibbs_estimator(obs),
        "exact_pruning": exact_pruning(obs),
    }))
}

fn estimators(obs: &Obs) -> Value {
    let finders: [(&str, Box<dyn FactFinder>); 3] = [
        ("em-ext", Box::new(EmExtFinder::default())),
        ("em", Box::new(EmIndependent::default())),
        ("em-social", Box::new(EmSocial::default())),
    ];
    let mut fixtures: Vec<(String, ClaimData)> = [50u32, 100, 200]
        .into_iter()
        .map(|n| (format!("synth-n{n}"), synth_fixture(n, 11).data))
        .collect();
    // Twitter-shaped sparsity: hundreds of sources, ~1 claim each.
    let tw = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.1), 5)
        .expect("preset validates");
    fixtures.push(("twitter-ukraine-0.1".into(), tw.claim_data()));

    let mut rows = Vec::new();
    for (fixture, data) in &fixtures {
        for (name, finder) in &finders {
            let secs = timed(obs, "estimators", &format!("{name}.{fixture}"), || {
                finder.scores(data).expect("fit succeeds")
            });
            rows.push(serde_json::json!({
                "finder": name,
                "fixture": fixture,
                "sources": data.source_count(),
                "assertions": data.assertion_count(),
                "median_secs": secs,
            }));
        }
    }
    serde_json::json!({ "rows": rows })
}

fn smoothing(obs: &Obs) -> Value {
    let ds = synth_fixture(100, 21);
    let rows: Vec<Value> = [0.0f64, 2.0, 10.0]
        .into_iter()
        .map(|s| {
            let em = EmExt::new(EmConfig {
                smoothing: s,
                ..EmConfig::default()
            });
            timed_row(obs, "smoothing", &format!("s{s}"), || {
                em.fit(&ds.data).expect("fit succeeds")
            })
        })
        .collect();
    serde_json::json!({
        "fixture": serde_json::json!({ "sources": 100, "seed": 21 }),
        "rows": rows,
    })
}

fn init(obs: &Obs) -> Value {
    let ds = synth_fixture(100, 22);
    let rows: Vec<Value> = [
        ("auto", InitStrategy::Auto),
        ("claim-rate", InitStrategy::ClaimRateBiased),
        ("dep-biased", InitStrategy::DepBiased),
        ("random", InitStrategy::Random { seed: 4 }),
    ]
    .into_iter()
    .map(|(name, init)| {
        let em = EmExt::new(EmConfig {
            init,
            ..EmConfig::default()
        });
        timed_row(obs, "init", name, || {
            em.fit(&ds.data).expect("fit succeeds")
        })
    })
    .collect();
    serde_json::json!({
        "fixture": serde_json::json!({ "sources": 100, "seed": 22 }),
        "rows": rows,
    })
}

fn gibbs_estimator(obs: &Obs) -> Value {
    let (data, theta) = bound_fixture(20, 23);
    let cols: Vec<u32> = (0..8).collect();
    let rows: Vec<Value> = [
        ("self-normalized", GibbsEstimator::SelfNormalized),
        ("paper-ratio", GibbsEstimator::PaperRatio),
    ]
    .into_iter()
    .map(|(name, estimator)| {
        let method = BoundMethod::Gibbs(GibbsConfig {
            estimator,
            min_samples: 400,
            max_samples: 800,
            seed: 5,
            ..GibbsConfig::default()
        });
        timed_row(obs, "gibbs_estimator", name, || {
            bound_for_assertions(&data, &theta, &method, &cols).expect("bound runs")
        })
    })
    .collect();
    serde_json::json!({
        "fixture": serde_json::json!({
            "sources": 20,
            "seed": 23,
            "assertions": cols.len(),
            "min_samples": 400,
            "max_samples": 800,
        }),
        "rows": rows,
    })
}

fn exact_pruning(obs: &Obs) -> Value {
    let n = 22usize;
    let informative: Vec<(f64, f64)> = (0..n)
        .map(|i| (0.7 + 0.01 * (i % 5) as f64, 0.2 + 0.01 * (i % 7) as f64))
        .collect();
    let adversarial: Vec<(f64, f64)> = (0..n)
        .map(|i| (0.501 + 1e-4 * (i % 5) as f64, 0.499 - 1e-4 * (i % 7) as f64))
        .collect();
    let rows: Vec<Value> = [
        ("informative-sources", &informative),
        ("near-uninformative-sources", &adversarial),
    ]
    .into_iter()
    .map(|(name, sources)| {
        timed_row(obs, "exact_pruning", name, || {
            exact_bound(sources, 0.5).expect("in range")
        })
    })
    .collect();
    serde_json::json!({ "sources": n, "prior": 0.5, "rows": rows })
}
