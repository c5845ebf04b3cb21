//! One measured pass of a workload: the batch answer, the served
//! stream, and the restart — each timed from outside through the
//! program's public entry points.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use socsense_apollo::{Apollo, ApolloConfig};
use socsense_baselines::FactFinder;
use socsense_core::{
    bound_for_assertions_traced, BoundMethod, ClaimData, DeltaConfig, EmConfig, EmExt, EmFit, Obs,
    Parallelism, RefitMode, SenseError,
};
use socsense_obs::{MetricsSnapshot, Recorder};
use socsense_serve::{
    PersistConfig, ServeConfig, ServeError, ShardedHandle, ShardedService, SourceRank,
};

use crate::world::{Spec, Tier, World};

/// Assertions kept in the ranked answer (Apollo's top-100).
pub const TOP: usize = 100;

/// Sources in every `top_sources` read.
const TOP_SOURCES: usize = 10;

/// A read round issues one `top_sources` after every this many
/// `posterior` reads, so the read mix is the same on every workload.
pub const POSTERIORS_PER_TOP_SOURCES: usize = 16;

/// The `EmExtFinder` behaviour (ranking by EM-Ext posterior log-odds),
/// additionally keeping the fit so the bound can run under `θ̂` without
/// fitting twice.
struct CapturingEmExt {
    em: EmExt,
    fit: Mutex<Option<EmFit>>,
}

impl CapturingEmExt {
    fn fit(&self, data: &ClaimData) -> Result<EmFit, SenseError> {
        let fit = self.em.fit(data)?;
        *self.fit.lock().expect("capture lock is never poisoned") = Some(fit.clone());
        Ok(fit)
    }
}

impl FactFinder for CapturingEmExt {
    fn name(&self) -> &'static str {
        "EM-Ext"
    }

    fn scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.posterior)
    }

    fn ranking_scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.log_odds)
    }
}

/// The batch answer: ranked top-100 plus what the bound and the layer
/// timings run on.
pub struct Answer {
    pub fit_s: f64,
    pub accuracy: f64,
    /// `(assertion, score bits)` of the ranked top-100, best first.
    pub ranked: Vec<(u32, u64)>,
    pub data: ClaimData,
    pub fit: EmFit,
}

/// Claim log → `ClaimData` → EM-Ext → ranked top-100, through
/// `Apollo::run` when the world is a Twitter dataset.
pub fn answer(world: &World, par: Parallelism, obs: &Obs) -> Result<Answer, String> {
    let em = EmConfig {
        parallelism: par,
        ..EmConfig::default()
    };
    let finder = CapturingEmExt {
        em: EmExt::new(em).with_obs(obs.clone()),
        fit: Mutex::new(None),
    };
    let started = Instant::now();
    let (ranked, data) = match &world.dataset {
        Some(ds) => {
            let out = Apollo::new(ApolloConfig {
                parallelism: par,
                ..ApolloConfig::default()
            })
            .with_obs(obs.clone())
            .run(ds, &finder)
            .map_err(|e| format!("Apollo::run: {e}"))?;
            let ranked = out
                .ranked
                .iter()
                .map(|r| (r.assertion, r.score.to_bits()))
                .collect();
            (ranked, out.claim_data)
        }
        None => {
            let data = ClaimData::from_claims(world.n, world.m, &world.claims, &world.graph);
            let ids = finder
                .top_k(&data, TOP)
                .map_err(|e| format!("EM-Ext top-k: {e}"))?;
            let guard = finder.fit.lock().expect("capture lock is never poisoned");
            let scores = &guard.as_ref().expect("top_k ran a fit").log_odds;
            let ranked = ids
                .iter()
                .map(|&j| (j, scores[j as usize].to_bits()))
                .collect();
            drop(guard);
            (ranked, data)
        }
    };
    let fit_s = started.elapsed().as_secs_f64();
    let fit = finder
        .fit
        .into_inner()
        .expect("capture lock is never poisoned")
        .ok_or("the fact-finder never ran a fit")?;
    let ranked: Vec<(u32, u64)> = ranked;
    let accuracy = ranked
        .iter()
        .filter(|&&(j, _)| world.truth[j as usize])
        .count() as f64
        / ranked.len().max(1) as f64;
    Ok(Answer {
        fit_s,
        accuracy,
        ranked,
        data,
        fit,
    })
}

/// The default Bayes-risk bound over the answer's top `k` under `θ̂`:
/// seconds taken and the bits of `(error, false_positive, false_negative)`.
pub fn bound(
    answer: &Answer,
    k: usize,
    par: Parallelism,
    obs: &Obs,
) -> Result<(f64, [u64; 3]), String> {
    let top_k: Vec<u32> = answer.ranked.iter().take(k).map(|r| r.0).collect();
    let started = Instant::now();
    let b = bound_for_assertions_traced(
        &answer.data,
        &answer.fit.theta,
        &BoundMethod::default(),
        &top_k,
        par,
        obs,
    )
    .map_err(|e| format!("bound: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    if !(0.0..=1.0).contains(&b.error) {
        return Err(format!("bound error {} outside [0, 1]", b.error));
    }
    Ok((
        secs,
        [
            b.error.to_bits(),
            b.false_positive.to_bits(),
            b.false_negative.to_bits(),
        ],
    ))
}

/// The tier under test: `shards` router shards, WAL on (fsync every
/// batch), delta refits. EM and bound work inside a shard run serially,
/// so the tier's compute threads are the shards.
fn tier_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        em: EmConfig {
            parallelism: Parallelism::Serial,
            ..EmConfig::default()
        },
        parallelism: Parallelism::Serial,
        refit_mode: RefitMode::Delta(DeltaConfig::default()),
        persist: Some(PersistConfig::at(dir)),
        ..ServeConfig::default()
    }
}

pub fn spawn(tier: &Tier, dir: &Path, shards: usize, obs: Obs) -> Result<ShardedService, String> {
    ShardedService::spawn_with_obs(
        tier.n,
        tier.m,
        tier.graph.clone(),
        tier_config(dir),
        shards,
        obs,
    )
    .map_err(|e| format!("spawn: {e}"))
}

/// The served stream of one pass.
#[derive(Default)]
pub struct StreamOut {
    /// Ack latency of every tail batch.
    pub ingest_s: Vec<f64>,
    /// Latency of every interleaved read.
    pub query_s: Vec<f64>,
    pub tail_claims: usize,
    /// Wall time of the tail replay, reads included.
    pub tail_s: f64,
    /// Restart until the first answered request.
    pub recovery_s: f64,
    /// The whole stream phase: prime, tail, shutdown, restart, checks.
    pub wall_s: f64,
    /// Requests issued.
    pub ops: u64,
    /// Recorder snapshots of the live tier after the prime batch and at
    /// the end, and of the restarted tier (traced passes only).
    pub after_prime: Option<MetricsSnapshot>,
    pub live: Option<MetricsSnapshot>,
    pub recovered: Option<MetricsSnapshot>,
}

fn served<T>(out: &mut StreamOut, what: &str, r: Result<T, ServeError>) -> Result<T, String> {
    out.ops += 1;
    r.map_err(|e| format!("{what}: {e}"))
}

fn bits(ranks: &[SourceRank]) -> Vec<[u64; 6]> {
    ranks
        .iter()
        .map(|r| {
            let p = r.params;
            [
                r.source as u64,
                r.precision.to_bits(),
                p.a.to_bits(),
                p.b.to_bits(),
                p.f.to_bits(),
                p.g.to_bits(),
            ]
        })
        .collect()
}

/// Primes a fresh tier in `dir`, replays the tail with a read round
/// after every batch (`posterior` reads cycling through the batch's
/// touched assertions, one `top_sources` per 16 of them), shuts down,
/// restarts on the same data dir, and checks that the restarted tier
/// answers `f64::to_bits`-identically.
pub fn stream(
    tier: &Tier,
    spec: &Spec,
    dir: &Path,
    shards: usize,
    traced: bool,
) -> Result<StreamOut, String> {
    let mut out = StreamOut::default();
    let phase_started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let recorder = |on: bool| {
        if on {
            let (obs, rec) = Obs::recorder();
            (obs, Some(rec))
        } else {
            (Obs::none(), None)
        }
    };
    let snap = |rec: &Option<std::sync::Arc<Recorder>>| rec.as_ref().map(|r| r.snapshot());

    let (obs, rec) = recorder(traced);
    let svc = spawn(tier, dir, shards, obs)?;
    let h: ShardedHandle = svc.handle();
    let stream = &tier.stream;
    let mut total = stream.prime.len();
    let ack = served(&mut out, "prime ingest", h.ingest(stream.prime.clone()))?;
    if ack.total_claims != total {
        return Err(format!(
            "prime ack {} claims, sent {total}",
            ack.total_claims
        ));
    }
    out.after_prime = snap(&rec);

    let tail_started = Instant::now();
    for batch in &stream.tail {
        let started = Instant::now();
        let ack = served(&mut out, "ingest", h.ingest(batch.clone()))?;
        out.ingest_s.push(started.elapsed().as_secs_f64());
        total += batch.len();
        out.tail_claims += batch.len();
        if ack.total_claims != total {
            return Err(format!("ack {} claims, sent {total}", ack.total_claims));
        }
        let mut touched: Vec<u32> = batch.iter().map(|c| c.assertion).collect();
        touched.sort_unstable();
        touched.dedup();
        let reads: Vec<u32> = touched
            .iter()
            .copied()
            .cycle()
            .take(spec.reads_per_batch)
            .collect();
        for reads in reads.chunks(POSTERIORS_PER_TOP_SOURCES) {
            for &j in reads {
                let started = Instant::now();
                let p = served(&mut out, "posterior", h.posterior(j))?;
                out.query_s.push(started.elapsed().as_secs_f64());
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("posterior {p} of assertion {j} outside [0, 1]"));
                }
            }
            let started = Instant::now();
            served(&mut out, "top_sources", h.top_sources(TOP_SOURCES))?;
            out.query_s.push(started.elapsed().as_secs_f64());
        }
    }
    out.tail_s = tail_started.elapsed().as_secs_f64();

    let before = served(&mut out, "posteriors", h.posteriors())?;
    let before_top = served(&mut out, "top_sources", h.top_sources(TOP_SOURCES))?;
    out.live = snap(&rec);
    drop(h);
    served(&mut out, "shutdown", svc.shutdown())?;

    let (obs, rec) = recorder(traced);
    let started = Instant::now();
    let svc = spawn(tier, dir, shards, obs)?;
    let h = svc.handle();
    let after = served(&mut out, "posteriors after restart", h.posteriors())?;
    out.recovery_s = started.elapsed().as_secs_f64();
    let after_top = served(
        &mut out,
        "top_sources after restart",
        h.top_sources(TOP_SOURCES),
    )?;
    let stats = served(&mut out, "stats after restart", h.stats())?;
    out.recovered = snap(&rec);
    drop(h);
    served(&mut out, "shutdown after restart", svc.shutdown())?;
    let _ = std::fs::remove_dir_all(dir);

    if stats.total_claims != stream.claims() {
        return Err(format!(
            "restarted tier holds {} claims, {} were acked",
            stats.total_claims,
            stream.claims()
        ));
    }
    let same = before.len() == after.len()
        && before
            .iter()
            .zip(&after)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err("posteriors differ after restart".into());
    }
    if bits(&before_top) != bits(&after_top) {
        return Err("top_sources differ after restart".into());
    }
    out.wall_s = phase_started.elapsed().as_secs_f64();
    Ok(out)
}
