//! `ingest` → `BENCH_ingest.json`: the sharded, index-accelerated
//! ingest stage on a synthetic 10k-tweet corpus.
//!
//! 1. `cluster_texts` — the naive all-pairs scan vs the inverted-index
//!    fast path, recording wall-clock *and* the exact-Jaccard
//!    comparison counts before/after candidate pruning (the algorithmic
//!    win, visible even on one core);
//! 2. the fast path across the worker-count ladder (the sharding win,
//!    host-dependent);
//! 3. chunked JSONL parsing throughput in tweets/sec per worker count.
//!
//! Every row is bit-identical in output by the
//! `socsense_matrix::parallel` contract. The recorder snapshot carries
//! the `ingest.cluster.*` / `ingest.parse.*` counters the traced stages
//! emit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use socsense_apollo::{
    cluster_texts_naive, cluster_texts_traced, cluster_texts_with_stats, parse_tweets_jsonl_traced,
    ClusterConfig, IngestConfig,
};
use socsense_core::{Obs, Parallelism};
use socsense_obs::median_timed;

use super::parallel::LEVELS;

const CORPUS_SIZE: usize = 10_000;
const SEED: u64 = 42;
const REPS: usize = 3;

pub(crate) fn run(obs: &Obs) -> Result<Value, String> {
    let cfg = ClusterConfig::default();
    let texts = tweet_corpus(CORPUS_SIZE, SEED);

    // Naive all-pairs baseline (wall-clock + implied comparison count).
    let naive_secs = median_timed(obs, "bench.cluster_naive.seconds", REPS, || {
        cluster_texts_naive(&texts, &cfg);
    });
    let naive_clusters = cluster_texts_naive(&texts, &cfg);
    eprintln!("cluster-naive: {naive_secs:.4}s");

    // Indexed fast path, serial first (the algorithmic win), then the
    // worker ladder (the sharding win).
    let (indexed_clusters, stats) = cluster_texts_with_stats(&texts, &cfg, Parallelism::Serial);
    if naive_clusters != indexed_clusters {
        return Err("fast path diverged from the naive oracle".into());
    }
    let cluster_times: Vec<(&str, f64)> = LEVELS
        .iter()
        .map(|&(name, par)| {
            let secs = median_timed(
                obs,
                &format!("bench.cluster_indexed.{name}.seconds"),
                REPS,
                || {
                    let (clustering, _) = cluster_texts_traced(&texts, &cfg, par, obs);
                    assert_eq!(clustering, indexed_clusters, "levels must agree");
                },
            );
            eprintln!("cluster-indexed/{name}: {secs:.4}s");
            (name, secs)
        })
        .collect();
    let cluster_rows: Vec<Value> = cluster_times
        .iter()
        .map(|&(name, secs)| serde_json::json!({ "parallelism": name, "median_secs": secs }))
        .collect();
    let indexed_serial_secs = cluster_times[0].1;
    let pruning_factor = stats.naive_comparisons as f64 / stats.jaccard_comparisons.max(1) as f64;

    // Chunked JSONL parsing throughput.
    let jsonl = jsonl_corpus(CORPUS_SIZE, SEED);
    let parse_rows: Vec<Value> = LEVELS
        .iter()
        .map(|&(name, par)| {
            let ingest = IngestConfig { parallelism: par };
            let secs = median_timed(
                obs,
                &format!("bench.parse_jsonl.{name}.seconds"),
                REPS,
                || {
                    parse_tweets_jsonl_traced(&jsonl, &ingest, obs).expect("fixture parses");
                },
            );
            let tweets_per_sec = CORPUS_SIZE as f64 / secs;
            eprintln!("parse-jsonl/{name}: {secs:.4}s ({tweets_per_sec:.0} tweets/s)");
            serde_json::json!({
                "parallelism": name,
                "median_secs": secs,
                "tweets_per_sec": tweets_per_sec,
            })
        })
        .collect();

    Ok(serde_json::json!({
        "reps_per_row": REPS,
        "corpus": serde_json::json!({
            "tweets": CORPUS_SIZE,
            "generator": "tweet_corpus",
            "seed": SEED,
            "jaccard_threshold": cfg.jaccard_threshold,
            "max_token_df": cfg.max_token_df,
        }),
        "cluster_texts": serde_json::json!({
            "clusters": indexed_clusters.cluster_count,
            "naive_comparisons": stats.naive_comparisons,
            "candidate_pairs": stats.candidate_pairs,
            "jaccard_comparisons": stats.jaccard_comparisons,
            "comparison_pruning_factor": pruning_factor,
            "naive_serial_secs": naive_secs,
            "indexed_serial_secs": indexed_serial_secs,
            "single_core_speedup": naive_secs / indexed_serial_secs,
            "rows": cluster_rows,
        }),
        "parse_tweets_jsonl": serde_json::json!({
            "rows": parse_rows,
        }),
    }))
}

/// A synthetic tweet-text corpus shaped like the Apollo ingest input:
/// `n` tweets over `n/12` assertions, each assertion a 6–9-token
/// template emitting near-duplicate variants (token dropout, inserted
/// noise, `RT` prefixes) plus an everywhere hashtag that candidate
/// generation must learn to ignore. Deterministic in `(n, seed)`.
fn tweet_corpus(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let assertions = (n / 12).max(1);
    let vocab: Vec<String> = (0..600).map(|i| format!("w{i:03}")).collect();
    let templates: Vec<Vec<String>> = (0..assertions)
        .map(|a| {
            let len = rng.gen_range(6..10);
            let mut t: Vec<String> = (0..len)
                .map(|_| vocab[rng.gen_range(0..vocab.len())].clone())
                .collect();
            // A unique entity token anchors within-assertion similarity.
            t.push(format!("e{a:05}"));
            t
        })
        .collect();
    (0..n)
        .map(|_| {
            let template = &templates[rng.gen_range(0..assertions)];
            let mut tokens: Vec<String> = template.clone();
            if tokens.len() > 4 && rng.gen_bool(0.3) {
                let drop = rng.gen_range(0..tokens.len());
                tokens.remove(drop);
            }
            if rng.gen_bool(0.2) {
                tokens.push(vocab[rng.gen_range(0..vocab.len())].clone());
            }
            if rng.gen_bool(0.25) {
                tokens.insert(0, "RT".to_string());
            }
            tokens.push("#ev".to_string());
            tokens.join(" ")
        })
        .collect()
}

/// `tweet_corpus` rendered as the JSON-Lines dump `parse_tweets_jsonl`
/// consumes (one tweet object per line, users cycling over `n/10`
/// handles).
fn jsonl_corpus(n: usize, seed: u64) -> String {
    let users = (n / 10).max(1);
    tweet_corpus(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, text)| {
            let value = serde_json::json!({
                "id": i as u64,
                "user": format!("u{:05}", i % users),
                "time": i as u64,
                "text": text,
            });
            serde_json::to_string(&value).expect("fixture serializes") + "\n"
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tweet_corpus_is_deterministic_and_parses() {
        let a = tweet_corpus(120, 7);
        assert_eq!(a.len(), 120);
        assert_eq!(a, tweet_corpus(120, 7));
        let jsonl = jsonl_corpus(120, 7);
        let parsed = socsense_apollo::parse_tweets_jsonl(&jsonl).expect("fixture parses");
        assert_eq!(parsed.len(), 120);
        assert_eq!(parsed[5].text, a[5]);
    }
}
