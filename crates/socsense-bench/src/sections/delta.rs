//! `delta` → `BENCH_delta.json`: full warm refits vs delta-scoped
//! E-steps on the streaming path.
//!
//! For each history size, a seeded claim stream is ingested into two
//! [`StreamingEstimator`]s — one in [`RefitMode::Full`], one in
//! [`RefitMode::Delta`] — both primed with one refit over the whole
//! history. The section then ingests identical small batches into each
//! and times the per-batch refit with `median_timed`. Full mode re-runs
//! warm EM over the entire log every batch; delta mode re-evaluates only
//! the assertions the batch touched, so its latency should stay roughly
//! flat as the history grows while the full path scales linearly. The
//! `delta-*` gates check the 50k-history speedup and that the measured
//! window saw no fallback storm.

use serde_json::Value;
use socsense_core::{DeltaConfig, EmConfig, Obs, RefitMode, RefitOutcome, StreamingEstimator};
use socsense_graph::TimedClaim;

use crate::{sparse_follow_graph, two_camp_stream};

const N: u32 = 800;
const M: u32 = 8000;
const HISTORIES: [usize; 3] = [5_000, 15_000, 50_000];
const BATCH: usize = 8;
const REPS: usize = 5;
const SEED: u64 = 2016;

struct ModeRun {
    median_secs: f64,
    prime_iterations: usize,
    refits: Vec<RefitOutcome>,
    last_touched_assertions: usize,
    last_touched_sources: usize,
}

/// Primes one estimator over `prefix`, then times `REPS` batch refits
/// (plus one untimed warm-up batch, consumed by `median_timed`).
fn run_mode(
    obs: &Obs,
    timer_name: &str,
    mode: RefitMode,
    prefix: &[TimedClaim],
    measured: &[Vec<TimedClaim>],
) -> ModeRun {
    let mut est = StreamingEstimator::new(N, M, sparse_follow_graph(N), EmConfig::default())
        .expect("estimator spawns");
    est.set_refit_mode(mode).expect("valid refit mode");
    est.ingest(prefix).expect("prefix ingests");
    let (_, prime) = est.estimate_with_stats().expect("priming refit");
    let mut batches = measured.iter();
    let mut stats = Vec::new();
    let median_secs = socsense_obs::median_timed(obs, timer_name, REPS, || {
        let batch = batches.next().expect("enough measured batches");
        est.ingest(batch).expect("batch ingests");
        let (_, s) = est.estimate_with_stats().expect("batch refit");
        stats.push(s);
    });
    let last = stats.last().expect("at least one refit");
    ModeRun {
        median_secs,
        prime_iterations: prime.iterations,
        refits: stats.iter().map(|s| s.mode).collect(),
        last_touched_assertions: last.touched_assertions,
        last_touched_sources: last.touched_sources,
    }
}

pub(crate) fn run(obs: &Obs) -> Result<Value, String> {
    let biggest = HISTORIES[HISTORIES.len() - 1];
    // Long enough to cover the largest history plus every measured batch
    // (and the warm-up one).
    let stream = two_camp_stream(N, M, biggest + (REPS + 1) * BATCH, SEED, 0);
    let mut rows = Vec::new();
    let mut delta_medians = Vec::new();
    for history in HISTORIES {
        let prefix = &stream[..history];
        // Both modes see the exact same post-history batches.
        let measured: Vec<Vec<TimedClaim>> = stream[history..history + (REPS + 1) * BATCH]
            .chunks(BATCH)
            .map(<[TimedClaim]>::to_vec)
            .collect();
        let full = run_mode(
            obs,
            &format!("bench.delta.full.{history}.seconds"),
            RefitMode::Full,
            prefix,
            &measured,
        );
        let delta = run_mode(
            obs,
            &format!("bench.delta.delta.{history}.seconds"),
            RefitMode::Delta(DeltaConfig::default()),
            prefix,
            &measured,
        );
        let fallbacks = delta
            .refits
            .iter()
            .filter(|&&m| m == RefitOutcome::Fallback)
            .count();
        let scoped = delta
            .refits
            .iter()
            .filter(|&&m| m == RefitOutcome::Delta)
            .count();
        let speedup = full.median_secs / delta.median_secs;
        eprintln!(
            "history {history}: full {:.6}s, delta {:.6}s ({speedup:.1}x, \
             {scoped} scoped / {fallbacks} fallback refits, touched {}/{})",
            full.median_secs,
            delta.median_secs,
            delta.last_touched_assertions,
            delta.last_touched_sources,
        );
        delta_medians.push(delta.median_secs);
        rows.push(serde_json::json!({
            "history_claims": history,
            "batch_claims": BATCH,
            "full_median_secs": full.median_secs,
            "delta_median_secs": delta.median_secs,
            "speedup": speedup,
            "delta_refits": scoped,
            "fallback_refits": fallbacks,
            "prime_iterations_full": full.prime_iterations,
            "prime_iterations_delta": delta.prime_iterations,
            "touched_assertions": delta.last_touched_assertions,
            "touched_sources": delta.last_touched_sources,
        }));
    }

    let delta_small = delta_medians[0];
    let delta_big = delta_medians[delta_medians.len() - 1];
    Ok(serde_json::json!({
        "workload": serde_json::json!({
            "sources": N,
            "assertions": M,
            "histories": HISTORIES,
            "claims_per_batch": BATCH,
            "timed_refits_per_row": REPS,
            "seed": SEED,
        }),
        "delta": serde_json::json!({
            "rows": rows,
            // History grows 10x between the first and last row; a
            // sub-linear delta path keeps this ratio well under 10.
            "scaling": serde_json::json!({
                "history_ratio": HISTORIES[HISTORIES.len() - 1] as f64 / HISTORIES[0] as f64,
                "delta_time_ratio": delta_big / delta_small,
            }),
        }),
    }))
}
