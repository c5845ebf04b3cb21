//! `wal` → `BENCH_wal.json`: ingest overhead of the write-ahead log
//! and checkpoint cadence on the serving path, plus crash-recovery
//! latency.
//!
//! Three [`QueryService`]s ingest the identical seeded batch stream:
//! one without persistence (the baseline), one logging with an `fsync`
//! per batch (`fsync_every = 1`, the ack-after-log default), and one
//! with batched syncs (`fsync_every = 8`). Per-batch ingest latency is
//! the `median_timed` median; the headline number is the
//! every-batch-fsync overhead ratio, which the `wal-overhead` gate
//! bounds. The section then kills the durable service and times a cold
//! recovery — snapshot restore plus WAL-tail replay — and verifies the
//! recovered worker still holds every claim.

use std::path::Path;

use serde_json::Value;
use socsense_core::Obs;
use socsense_graph::TimedClaim;
use socsense_serve::{PersistConfig, QueryService, ServeConfig};

use crate::{sparse_follow_graph, two_camp_batches};

const N: u32 = 400;
const M: u32 = 2000;
const BATCH: usize = 100;
const PRIME: usize = 10;
const REPS: usize = 9;
const SEED: u64 = 2016;

fn config(persist: Option<PersistConfig>) -> ServeConfig {
    ServeConfig {
        refit_pending_claims: 1,
        persist,
        ..ServeConfig::default()
    }
}

/// Ingests the identical stream into one service: `PRIME` untimed
/// warm-up batches, then `REPS` timed ones (plus `median_timed`'s own
/// warm-up). Returns the median per-batch ingest latency.
fn run_mode(
    obs: &Obs,
    timer_name: &str,
    persist: Option<PersistConfig>,
    batches: &[Vec<TimedClaim>],
) -> f64 {
    let svc =
        QueryService::spawn(N, M, sparse_follow_graph(N), config(persist)).expect("service spawns");
    let client = svc.handle();
    let (prime, measured) = batches.split_at(PRIME);
    for batch in prime {
        client.ingest(batch.clone()).expect("prime batch ingests");
    }
    let mut measured = measured.iter();
    let median = socsense_obs::median_timed(obs, timer_name, REPS, || {
        let batch = measured.next().expect("enough measured batches");
        client.ingest(batch.clone()).expect("batch ingests");
    });
    svc.shutdown().expect("clean shutdown");
    median
}

/// Times a cold recovery over `dir` (snapshot restore + WAL-tail
/// replay) and checks the recovered worker holds every ingested claim.
fn time_recovery(obs: &Obs, dir: &Path, want_claims: usize) -> f64 {
    socsense_obs::median_timed(obs, "bench.wal.recovery.seconds", 3, || {
        let svc = QueryService::spawn(
            N,
            M,
            sparse_follow_graph(N),
            config(Some(PersistConfig::at(dir))),
        )
        .expect("recovery spawns");
        let stats = svc.handle().stats().expect("recovered stats");
        assert_eq!(
            stats.total_claims, want_claims,
            "recovery lost or duplicated claims"
        );
        svc.shutdown().expect("clean shutdown");
    })
}

pub(crate) fn run(obs: &Obs) -> Result<Value, String> {
    let batches = two_camp_batches(N, M, PRIME + REPS + 1, BATCH, SEED);
    let total_claims = batches.len() * BATCH;
    let dir = std::env::temp_dir().join(format!("socsense-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base = run_mode(obs, "bench.wal.off.seconds", None, &batches);
    let every = run_mode(
        obs,
        "bench.wal.fsync1.seconds",
        Some(PersistConfig {
            data_dir: dir.clone(),
            fsync_every: 1,
            snapshot_every: 8,
        }),
        &batches,
    );
    // The durable directory now holds the full stream; recovery below
    // replays it. The batched-fsync run uses its own directory so it
    // does not disturb that state.
    let batched_dir = dir.join("batched");
    let batched = run_mode(
        obs,
        "bench.wal.fsync8.seconds",
        Some(PersistConfig {
            data_dir: batched_dir,
            fsync_every: 8,
            snapshot_every: 8,
        }),
        &batches,
    );

    let overhead = every / base;
    let overhead_batched = batched / base;
    let recovery_secs = time_recovery(obs, &dir, total_claims);
    eprintln!(
        "ingest median: off {base:.6}s, fsync-every-batch {every:.6}s ({overhead:.2}x), \
         fsync-every-8 {batched:.6}s ({overhead_batched:.2}x); \
         cold recovery of {total_claims} claims: {recovery_secs:.6}s"
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(serde_json::json!({
        "workload": serde_json::json!({
            "sources": N,
            "assertions": M,
            "claims_per_batch": BATCH,
            "prime_batches": PRIME,
            "timed_batches": REPS,
            "snapshot_every": 8,
            "seed": SEED,
        }),
        "wal": serde_json::json!({
            "off_median_secs": base,
            "fsync_every_batch_median_secs": every,
            "fsync_every_8_median_secs": batched,
            // The gated number: WAL + fsync-per-batch + checkpoint
            // cadence, as a multiple of the persistence-free ingest.
            "overhead_ratio": overhead,
            "overhead_ratio_batched": overhead_batched,
            "recovery_secs": recovery_secs,
            "recovered_claims": total_claims,
        }),
    }))
}
