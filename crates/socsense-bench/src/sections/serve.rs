//! `serve` → `BENCH_serve.json`: latency of the `socsense-serve` query
//! service, unsharded and sharded.
//!
//! Spawns a [`QueryService`], replays a seeded claim stream in batches,
//! fires a fixed query mix (posterior / posteriors / top-sources /
//! stats), and reports per-request-type latency quantiles straight from
//! the service's own `serve.request.<type>.seconds` histograms — the
//! same numbers a live `Metrics` request returns. Then exercises the
//! sharded tier: a single-cluster workload pits `Shards(1)` against the
//! unsharded worker (the `sharded.shard_overhead_ratio` behind the
//! `shard-overhead` gate), and a four-camp workload walks shard counts
//! {1, 2, 4}.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use socsense_core::Obs;
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_serve::{MetricsSnapshot, QueryService, ServeConfig, ServeStats, ShardedService};

use crate::{two_camp_batches, two_camp_stream};

const N: u32 = 30;
const M: u32 = 40;
const BATCHES: usize = 8;
const PER_BATCH: usize = 50;
const QUERY_ROUNDS: usize = 100;
const SEED: u64 = 2016;

/// Overhead-pair repetitions; each side keeps its best wall-clock so
/// the ratio compares steady-state work, not scheduler noise.
const OVERHEAD_REPS: usize = 7;

/// Query rounds in the overhead pair: enough to exercise the query
/// path, few enough that the ratio measures the ingest/refit path
/// rather than per-request channel round trips (which the latency
/// histograms already report per request type).
const OVERHEAD_QUERIES: usize = 25;

/// Overhead-pair world: big enough that each pass spends tens of
/// milliseconds in refits, so the wall-clock ratio is estimator-bound
/// (shared work) rather than scheduler noise.
const ON: u32 = 200;
const OM: u32 = 240;
const OBATCHES: usize = 24;
const OPER_BATCH: usize = 600;

/// Four-camp workload shape: `CAMPS` disjoint clusters over `SN`
/// sources and `SM` assertions.
const CAMPS: u32 = 4;
const SN: u32 = 32;
const SM: u32 = 40;

/// A two-camp stream with a connecting bootstrap batch in front:
/// source 0 claims every assertion and every source claims once, so the
/// whole world is ONE cluster from the first batch on. On this workload
/// `Shards(1)` runs exactly the unsharded estimator (identity id remap)
/// plus routing overhead — which is what the overhead gate measures.
/// Sized (`ON`×`OM`, `OBATCHES`×`OPER_BATCH`) so estimator work — the
/// shared part — dominates the fixed per-request channel hops.
fn single_cluster_batches() -> Vec<Vec<TimedClaim>> {
    let bootstrap: Vec<TimedClaim> = (0..OM)
        .map(|j| (0, j))
        .chain((1..ON).map(|s| (s, s % OM)))
        .zip(1..)
        .map(|((s, j), t)| TimedClaim::new(s, j, t))
        .collect();
    let t0 = bootstrap.len() as u64;
    let tail = two_camp_stream(ON, OM, OBATCHES * OPER_BATCH, SEED ^ 0x51C7, t0);
    let mut batches = vec![bootstrap];
    batches.extend(tail.chunks(OPER_BATCH).map(<[TimedClaim]>::to_vec));
    batches
}

/// Four disjoint camps (cluster c: sources `8c..8c+8`, assertions
/// `10c..10c+10`), each bootstrapped in batch one so membership is
/// pinned early and later batches are pure appends — the shape a
/// sharded deployment scales on.
fn four_camp_batches() -> Vec<Vec<TimedClaim>> {
    let spc = SN / CAMPS; // sources per camp
    let apc = SM / CAMPS; // assertions per camp
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xCA3F);
    let mut t = 0u64;
    let mut bootstrap = Vec::new();
    for c in 0..CAMPS {
        for j in 0..apc {
            t += 1;
            bootstrap.push(TimedClaim::new(c * spc, c * apc + j, t));
        }
        for s in 1..spc {
            t += 1;
            bootstrap.push(TimedClaim::new(c * spc + s, c * apc + s % apc, t));
        }
    }
    let mut batches = vec![bootstrap];
    for _ in 0..BATCHES {
        batches.push(
            (0..PER_BATCH)
                .map(|_| {
                    let c = rng.gen_range(0..CAMPS);
                    t += 1;
                    TimedClaim::new(
                        c * spc + rng.gen_range(0..spc),
                        c * apc + rng.gen_range(0..apc),
                        t,
                    )
                })
                .collect(),
        );
    }
    batches
}

/// What one workload pass measured: the wall-clock seconds of the whole
/// pass plus the service's own numbers and the final posterior bits
/// (for the cross-backend equality check).
struct PassResult {
    wall_secs: f64,
    metrics: MetricsSnapshot,
    stats: ServeStats,
    posterior_bits: Vec<u64>,
}

/// One full workload pass against the service `$spawn` creates (a
/// `QueryService` or a `ShardedService`, whose handles share one request
/// surface): ingest every batch, fire the query mix, snapshot metrics,
/// shut down.
macro_rules! pass {
    ($spawn:expr, $m:expr, $batches:expr, $query_rounds:expr) => {{
        let started = Instant::now();
        let svc = $spawn.expect("spawns");
        let client = svc.handle();
        for batch in $batches {
            client.ingest(batch.clone()).expect("ingest succeeds");
        }
        for round in 0..$query_rounds {
            client
                .posterior(round as u32 % $m)
                .expect("posterior succeeds");
            if round % 10 == 0 {
                client.posteriors().expect("posteriors succeeds");
                client.top_sources(5).expect("top-sources succeeds");
                client.stats().expect("stats succeeds");
            }
        }
        let posteriors = client.posteriors().expect("posteriors succeeds");
        let metrics = client.metrics().expect("metrics snapshot");
        let stats = svc.shutdown().expect("clean shutdown");
        PassResult {
            wall_secs: started.elapsed().as_secs_f64(),
            metrics,
            stats,
            posterior_bits: posteriors.iter().map(|p| p.to_bits()).collect(),
        }
    }};
}

/// Refit on every batch, to tight convergence: the heaviest-estimator
/// setting, which both overhead-pair sides share so the wall-clock
/// ratio reflects routing overhead on top of real refit work.
fn eager_config() -> ServeConfig {
    let mut cfg = ServeConfig {
        refit_pending_claims: 1,
        ..ServeConfig::default()
    };
    cfg.em.tol = 1e-10;
    cfg.em.max_iters = 200;
    cfg
}

// Clippy twin of detlint's D2: a bench binary's whole job is reading
// the wall clock; served numbers never depend on it.
#[allow(clippy::disallowed_methods)]
fn run_unsharded(
    n: u32,
    m: u32,
    config: ServeConfig,
    batches: &[Vec<TimedClaim>],
    query_rounds: usize,
) -> PassResult {
    pass!(
        QueryService::spawn(n, m, FollowerGraph::new(n), config),
        m,
        batches,
        query_rounds
    )
}

// Clippy twin of detlint's D2 (see `run_unsharded`).
#[allow(clippy::disallowed_methods)]
fn run_sharded(
    n: u32,
    m: u32,
    config: ServeConfig,
    shards: usize,
    batches: &[Vec<TimedClaim>],
    query_rounds: usize,
) -> PassResult {
    pass!(
        ShardedService::spawn(n, m, FollowerGraph::new(n), config, shards),
        m,
        batches,
        query_rounds
    )
}

/// `{count, p50_secs, p99_secs, mean_secs}` for one request type, from
/// the service's own histogram.
fn latency_row(metrics: &MetricsSnapshot, request: &str) -> serde_json::Value {
    let h = metrics
        .histogram(&format!("serve.request.{request}.seconds"))
        .unwrap_or_else(|| panic!("the harness issued {request} requests"));
    serde_json::json!({
        "count": h.count,
        "p50_secs": h.quantile(0.5),
        "p99_secs": h.quantile(0.99),
        "mean_secs": h.mean(),
    })
}

pub(crate) fn run(_obs: &Obs) -> Result<Value, String> {
    // ---- Unsharded baseline. ----
    let batches = two_camp_batches(N, M, BATCHES, PER_BATCH, SEED);
    let base = run_unsharded(N, M, ServeConfig::default(), &batches, QUERY_ROUNDS);
    let metrics = &base.metrics;
    let stats = &base.stats;

    // ---- Shard-overhead pair: single-cluster world, Shards(1) vs the
    // unsharded worker doing identical estimator work. Best-of-reps on
    // each side keeps the ratio a routing-overhead measure.
    let overhead_batches = single_cluster_batches();
    let mut unsharded_secs = f64::INFINITY;
    let mut sharded1_secs = f64::INFINITY;
    for _ in 0..OVERHEAD_REPS {
        let u = run_unsharded(ON, OM, eager_config(), &overhead_batches, OVERHEAD_QUERIES);
        let s = run_sharded(
            ON,
            OM,
            eager_config(),
            1,
            &overhead_batches,
            OVERHEAD_QUERIES,
        );
        if u.posterior_bits != s.posterior_bits {
            return Err("Shards(1) diverged from the unsharded service on a \
                        single-cluster world"
                .into());
        }
        unsharded_secs = unsharded_secs.min(u.wall_secs);
        sharded1_secs = sharded1_secs.min(s.wall_secs);
    }
    let shard_overhead_ratio = sharded1_secs / unsharded_secs;

    // ---- Shard-count rows: four-camp world at shards {1, 2, 4}. ----
    let camp_batches = four_camp_batches();
    let mut rows = Vec::new();
    let mut reference_bits: Option<Vec<u64>> = None;
    for shards in [1usize, 2, 4] {
        let pass = run_sharded(
            SN,
            SM,
            ServeConfig::default(),
            shards,
            &camp_batches,
            QUERY_ROUNDS,
        );
        match &reference_bits {
            None => reference_bits = Some(pass.posterior_bits.clone()),
            Some(want) => {
                if want != &pass.posterior_bits {
                    return Err(format!("shard count {shards} changed served bits"));
                }
            }
        }
        rows.push(serde_json::json!({
            "shards": shards,
            "wall_secs": pass.wall_secs,
            "posterior": latency_row(&pass.metrics, "posterior"),
            "ingest": latency_row(&pass.metrics, "ingest"),
            "chain_refits": pass.stats.chain_refits,
        }));
    }

    let posterior = metrics
        .histogram("serve.request.posterior.seconds")
        .expect("posterior histogram");
    eprintln!(
        "posterior p50 {:.6}s, p99 {:.6}s over {QUERY_ROUNDS} queries; \
         shard overhead x{shard_overhead_ratio:.3}",
        posterior.quantile(0.5),
        posterior.quantile(0.99),
    );
    Ok(serde_json::json!({
        "workload": serde_json::json!({
            "sources": N,
            "assertions": M,
            "batches": BATCHES,
            "claims_per_batch": PER_BATCH,
            "posterior_queries": QUERY_ROUNDS,
            "seed": SEED,
        }),
        "latency": serde_json::json!({
            "ingest": latency_row(metrics, "ingest"),
            "posterior": latency_row(metrics, "posterior"),
            "posteriors": latency_row(metrics, "posteriors"),
            "top_sources": latency_row(metrics, "top_sources"),
            "stats": latency_row(metrics, "stats"),
        }),
        "service": serde_json::json!({
            "requests_total": metrics.counter("serve.requests_total"),
            "chain_refits": metrics.counter("serve.refit.chain_total"),
            "warm_refits": metrics.counter("serve.refit.warm_total"),
            "probe_refits": metrics.counter("serve.refit.probe_total"),
            "probe_cache_hits": metrics.counter("serve.cache.probe_hits_total"),
            "failed_refits": metrics.counter("serve.refit.failed_total"),
            "claims_ingested": metrics.counter("stream.ingest.claims_total"),
            "requests_served": stats.requests_served,
        }),
        "sharded": serde_json::json!({
            "shard_overhead_ratio": shard_overhead_ratio,
            "overhead": serde_json::json!({
                "unsharded_secs": unsharded_secs,
                "sharded1_secs": sharded1_secs,
                "reps": OVERHEAD_REPS,
                "note": "single-cluster workload: Shards(1) runs the identical \
                         estimator trajectory, so the ratio isolates routing \
                         overhead",
            }),
            "workload": serde_json::json!({
                "camps": CAMPS,
                "sources": SN,
                "assertions": SM,
                "batches": BATCHES + 1,
                "claims_per_batch": PER_BATCH,
            }),
            "rows": rows,
        }),
        "metrics": metrics,
    }))
}
