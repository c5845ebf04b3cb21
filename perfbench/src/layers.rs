//! Per-layer numbers for the traced run: direct timings of each layer's
//! public functions on the pass's own inputs, plus the counters the
//! program emits through its `Recorder`.

use std::path::Path;
use std::time::Instant;

use serde::Serialize;
use socsense_core::{
    assertion_posteriors_with, data_log_likelihood_with, ClaimData, ClusterTracker, EmConfig,
    EmExt, LikelihoodTables, Parallelism,
};
use socsense_graph::TimedClaim;
use socsense_obs::MetricsSnapshot;
use socsense_persist::WalWriter;

use crate::pass::{Answer, StreamOut};
use crate::stats::median;
use crate::world::{Stream, Tier, World};

/// EM iterations per `fit_warm` timing.
const EM_ITERS: usize = 10;

/// Median seconds of `f` over at least three calls, repeated until
/// `budget_s` is spent (at most 50 calls).
fn timed<T>(budget_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed().as_secs_f64() < budget_s && samples.len() < 50) {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn hist_sum(s: &MetricsSnapshot, name: &str) -> f64 {
    s.histogram(name).map_or(0.0, |h| h.sum)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The tier's WAL record shape: one acked batch under its sequence number.
#[derive(Serialize)]
struct WalRecord {
    seq: u64,
    claims: Vec<TimedClaim>,
}

/// Layer costs measured by replaying the pass's batches through the
/// layer alone: total seconds over the prime batch and over the tail.
struct Replay {
    prime_s: f64,
    tail_s: f64,
}

/// `ClusterTracker::ingest` over the stream's batches (the router's
/// partition step); returns the replay and the final cluster count.
fn partition(tier: &Tier) -> Result<(Replay, usize), String> {
    let stream = &tier.stream;
    let mut tracker = ClusterTracker::new(tier.n, tier.m, tier.graph.clone())
        .map_err(|e| format!("tracker: {e}"))?;
    let mut step = |batch: &[TimedClaim]| -> Result<f64, String> {
        let t = Instant::now();
        tracker
            .ingest(batch)
            .map_err(|e| format!("partition: {e}"))?;
        Ok(t.elapsed().as_secs_f64())
    };
    let prime_s = step(&stream.prime)?;
    let mut tail_s = 0.0;
    for batch in &stream.tail {
        tail_s += step(batch)?;
    }
    Ok((Replay { prime_s, tail_s }, tracker.cluster_count()))
}

/// `WalWriter::append` and `sync` on the tier's records, into a scratch
/// log under `dir`: (append, fsync, bytes written).
fn wal(stream: &Stream, dir: &Path) -> Result<(Replay, Replay, u64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let path = dir.join("wal-replay.jsonl");
    let mut writer = WalWriter::open(&path, 0).map_err(|e| format!("wal: {e}"))?;
    let mut append = Replay {
        prime_s: 0.0,
        tail_s: 0.0,
    };
    let mut fsync = Replay {
        prime_s: 0.0,
        tail_s: 0.0,
    };
    let batches = std::iter::once(&stream.prime).chain(&stream.tail);
    for (seq, batch) in batches.enumerate() {
        let record = WalRecord {
            seq: seq as u64 + 1,
            claims: batch.clone(),
        };
        let t = Instant::now();
        writer
            .append(&record)
            .map_err(|e| format!("wal append: {e}"))?;
        let a = t.elapsed().as_secs_f64();
        let t = Instant::now();
        writer.sync().map_err(|e| format!("wal sync: {e}"))?;
        let s = t.elapsed().as_secs_f64();
        if seq == 0 {
            append.prime_s = a;
            fsync.prime_s = s;
        } else {
            append.tail_s += a;
            fsync.tail_s += s;
        }
    }
    let bytes = writer.bytes_total();
    drop(writer);
    let _ = std::fs::remove_dir_all(dir);
    Ok((append, fsync, bytes))
}

/// Everything the traced run reports, in `BENCHMARK.json` order.
pub struct Traced<'a> {
    pub world: &'a World,
    pub answer: &'a Answer,
    /// The batch phase's recorder snapshot (`em.*`, `bound.*`).
    pub batch_metrics: &'a MetricsSnapshot,
    /// The tier input the traced pass streamed, and what it measured.
    pub tier: &'a Tier,
    pub stream: &'a StreamOut,
    /// Wall time of the traced pass (answer, bound, stream), its bound
    /// time, and the tracing overhead.
    pub pass_s: f64,
    pub bound_s: f64,
    pub overhead_s: f64,
    pub simulate_s: f64,
    pub bound_k: usize,
}

pub fn measure(
    t: &Traced,
    par: Parallelism,
    dir: &Path,
    budget_s: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (world, stream) = (t.world, t.stream);
    let data = &t.answer.data;
    let theta = &t.answer.fit.theta;
    let each = budget_s / 6.0;

    let table_s = timed(each, || LikelihoodTables::new(theta));
    let estep_s = timed(each, || assertion_posteriors_with(data, theta, par));
    let ll_s = timed(each, || data_log_likelihood_with(data, theta, par));
    let em = EmExt::new(EmConfig {
        max_iters: EM_ITERS,
        tol: f64::MIN_POSITIVE,
        parallelism: par,
        ..EmConfig::default()
    });
    let mut iters = EM_ITERS;
    let fit_warm_s = timed(each, || {
        if let Ok(fit) = em.fit_warm(data, theta.clone()) {
            iters = fit.iterations.max(1);
        }
    });
    let iter_s = fit_warm_s / iters as f64;
    let claim_data_s = timed(each, || {
        ClaimData::from_claims(world.n, world.m, &world.claims, &world.graph)
    });
    let (part, clusters) = partition(t.tier)?;
    let (append, fsync, wal_bytes) = wal(&t.tier.stream, dir)?;

    let bm = t.batch_metrics;
    let runs = bm.counter("em.runs_total") as f64;
    let gibbs_evals = bm.counter("bound.gibbs_evals_total") as f64;

    let empty = MetricsSnapshot::default();
    let live = stream.live.as_ref().unwrap_or(&empty);
    let after_prime = stream.after_prime.as_ref().unwrap_or(&empty);
    let recovered = stream.recovered.as_ref().unwrap_or(&empty);
    let batches = (t.tier.stream.tail.len() + 1) as f64;
    let delta = live.counter("serve.refit.delta_total") as f64;
    let fallback = live.counter("serve.refit.fallback_total") as f64;
    let refit_all_s = hist_sum(live, "stream.refit.seconds");
    let refit_tail_s = refit_all_s - hist_sum(after_prime, "stream.refit.seconds");
    let tail_ingest_s: f64 = stream.ingest_s.iter().sum();
    let wait = live.histogram("serve.queue.wait_seconds");

    let attributed = hist_sum(bm, "em.fit.seconds")
        + claim_data_s
        + hist_sum(bm, "bound.eval.seconds")
        + refit_all_s
        + hist_sum(recovered, "stream.refit.seconds")
        + part.prime_s
        + part.tail_s
        + append.prime_s
        + append.tail_s
        + fsync.prime_s
        + fsync.tail_s;

    Ok(vec![
        ("core.likelihood.table_ms", table_s * 1e3, "ms"),
        ("core.likelihood.estep_ms", estep_s * 1e3, "ms"),
        ("core.likelihood.ll_ms", ll_s * 1e3, "ms"),
        ("core.em.iter_ms", iter_s * 1e3, "ms"),
        ("core.em.mstep_ms", (iter_s - estep_s - ll_s) * 1e3, "ms"),
        (
            "core.em.iterations",
            ratio(bm.counter("em.iterations_total") as f64, runs),
            "count",
        ),
        (
            "core.em.converged_frac",
            ratio(bm.counter("em.runs_converged_total") as f64, runs),
            "frac",
        ),
        ("core.data.claim_data_s", claim_data_s, "s"),
        ("twitter.simulate_s", t.simulate_s, "s"),
        ("core.bound.assertion_s", t.bound_s / t.bound_k as f64, "s"),
        (
            "core.bound.gibbs_samples",
            ratio(bm.counter("bound.gibbs.samples_total") as f64, gibbs_evals),
            "count",
        ),
        (
            "serve.rebuilds",
            live.counter("serve.router.rebuilds_total") as f64,
            "count",
        ),
        (
            "serve.refits_per_batch",
            live.counter("stream.refits_total") as f64 / batches,
            "count",
        ),
        (
            "core.delta.hit_frac",
            ratio(delta, delta + fallback),
            "frac",
        ),
        ("core.streaming.refit_s", refit_tail_s, "s"),
        (
            "core.cluster.partition_ms",
            (part.prime_s + part.tail_s) / batches * 1e3,
            "ms",
        ),
        ("core.cluster.clusters", clusters as f64, "count"),
        (
            "persist.wal.append_ms",
            (append.prime_s + append.tail_s) / batches * 1e3,
            "ms",
        ),
        (
            "persist.wal.fsync_ms",
            (fsync.prime_s + fsync.tail_s) / batches * 1e3,
            "ms",
        ),
        (
            "persist.wal.bytes_per_batch",
            wal_bytes as f64 / batches,
            "B",
        ),
        (
            "serve.queue_wait_ms",
            wait.map_or(0.0, |h| h.mean()) * 1e3,
            "ms",
        ),
        (
            "serve.unattributed_s",
            tail_ingest_s - part.tail_s - refit_tail_s - append.tail_s - fsync.tail_s,
            "s",
        ),
        ("attributed_frac", attributed / t.pass_s, "frac"),
        ("trace_overhead_s", t.overhead_s, "s"),
    ])
}
