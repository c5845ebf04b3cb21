//! One worker shard of the sharded serving tier: a FIFO of cluster
//! operations and queries over per-cluster [`StreamingEstimator`]s.
//!
//! A shard owns the clusters the router's rendezvous hash assigned to
//! it, each as an independent compacted sub-problem
//! ([`ClusterWorld`]). All per-cluster serving state — the warm-start
//! chain fit, the query-driven probe fit and its cache, the delta
//! engine inside the estimator — mirrors the single-worker
//! `QueryService` exactly, so a cluster's answers are a pure function
//! of its membership and its batch history, never of which shard hosts
//! it or when it was (re)built.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use socsense_core::{
    bound_for_assertions_traced, BoundMethod, BoundResult, ClusterWorld, EmFit, EmFitBits,
    RefitOutcome, RefitStats, SenseError, StreamingEstimator,
};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_obs::Obs;

use crate::api::{ServeConfig, ServeError, SourceRank};
use crate::durable::ClusterSnapshot;

/// A message from the router to one shard. FIFO delivery per shard is
/// the consistency mechanism: an epoch marker or ingest enqueued before
/// a query is always applied before it.
// detlint: protocol
pub(crate) enum ShardMsg {
    /// Epoch advance with no work for this shard.
    Epoch(u64),
    /// Apply cluster operations for one ingest batch, then ack.
    Ingest {
        epoch: u64,
        ops: Vec<ClusterOp>,
        reply: Sender<ShardReturn<Vec<ClusterAck>>>,
    },
    /// Answer a query at the given expected epoch.
    Query {
        epoch: u64,
        query: ShardQuery,
        reply: Sender<ShardReturn<ShardReply>>,
    },
    /// Exit the worker loop.
    Shutdown,
}

/// A shard's reply, stamped with its identity and current epoch.
pub(crate) struct ShardReturn<T> {
    pub shard: usize,
    pub epoch: u64,
    pub payload: Result<T, ServeError>,
}

/// One cluster operation within an ingest batch.
// detlint: protocol
pub(crate) enum ClusterOp {
    /// Create — or rebuild after membership growth / a merge — the
    /// cluster's full state by replaying its batch history (global-id
    /// claims; the final batch is the one just ingested).
    Build {
        key: u32,
        sources: Vec<u32>,
        assertions: Vec<u32>,
        batches: Vec<Vec<TimedClaim>>,
    },
    /// Append one sub-batch to an existing cluster whose membership did
    /// not change.
    Append { key: u32, claims: Vec<TimedClaim> },
    /// Remove a cluster merged away to another key.
    Drop { key: u32 },
    /// Install a cluster from a checkpoint (recovery): rebuild the
    /// compacted world and restore the estimator, cached chain fit, and
    /// counters bit-identically — no history replay.
    Restore(Box<ClusterSnapshot>),
}

/// Per-cluster acknowledgement of one ingest operation.
pub(crate) struct ClusterAck {
    pub key: u32,
    /// Claims not yet covered by the cluster's chain refit.
    pub pending: usize,
    /// Whether the final (current) batch advanced the chain.
    pub refitted: bool,
    /// First refit error hit while applying the operation; the claims
    /// stay ingested either way.
    pub error: Option<SenseError>,
}

/// A query forwarded to one shard.
// detlint: protocol
pub(crate) enum ShardQuery {
    /// Posterior of one global assertion owned by cluster `key`.
    Posterior { key: u32, assertion: u32 },
    /// Posteriors of every assertion owned by this shard.
    Posteriors,
    /// Precision ranks of every source owned by this shard.
    TopSources,
    /// Per-cluster bounds: `(key, global assertion ids)` groups.
    Bound {
        groups: Vec<(u32, Vec<u32>)>,
        method: BoundMethod,
    },
    /// Counter partials of every cluster on this shard.
    Stats,
    /// Checkpoint export: every hosted cluster's full state.
    Export,
}

/// A shard's answer to one [`ShardQuery`].
pub(crate) enum ShardReply {
    Posterior(f64),
    /// `(global assertion, posterior)` pairs for owned assertions.
    Posteriors(Vec<(u32, f64)>),
    /// Per-source entries (global ids), unranked; the router sorts.
    TopSources(Vec<SourceRank>),
    /// `(key, bound, assertion count)` per requested group.
    Bound(Vec<(u32, BoundResult, usize)>),
    Stats(ShardStatsPartial),
    /// Checkpoint slices of every hosted cluster, ascending by key.
    Export(Vec<ClusterSnapshot>),
}

/// The most recent successful refit on a shard, ordered by
/// `(epoch, key)` — within one ingest epoch clusters refit in key
/// order, so the lexicographic maximum is "most recent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct LastRefit {
    pub epoch: u64,
    pub key: u32,
    pub iterations: usize,
    pub touched_assertions: usize,
    pub touched_sources: usize,
    /// Whether the refit reported an exact log-likelihood. Last field
    /// so the `(epoch, key)`-first lexicographic order is untouched.
    pub ll_exact: bool,
}

/// Summable per-shard counter partials; the router folds them in shard
/// order into one [`ServeStats`](crate::ServeStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardStatsPartial {
    pub pending: usize,
    pub chain_refits: u64,
    pub probe_refits: u64,
    pub probe_cache_hits: u64,
    pub failed_refits: u64,
    pub warm_refits: u64,
    pub delta_refits: u64,
    pub fallback_refits: u64,
    pub last_refit: Option<LastRefit>,
}

/// Refit counters of one cluster. The replay-scoped half is reset by a
/// `Build` (replaying history reconstructs it, keeping every counter a
/// pure function of the cluster's batch history); the query-scoped half
/// survives rebuilds, because queries are not replayed.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct SlotCounters {
    chain_refits: u64,
    warm_refits: u64,
    delta_refits: u64,
    fallback_refits: u64,
    failed_refits: u64,
    probe_refits: u64,
    probe_cache_hits: u64,
}

/// One hosted cluster: compacted world, estimator, and cached fits.
struct ClusterSlot {
    world: ClusterWorld,
    est: StreamingEstimator,
    /// Fit of the last warm-start-chain refit.
    chain_fit: Option<Arc<EmFit>>,
    /// Query-driven probe fit, keyed on the claim count it covered.
    probe_fit: Option<(usize, Arc<EmFit>)>,
    counters: SlotCounters,
    last_refit: Option<LastRefit>,
}

/// The single-threaded owner of one shard's clusters.
pub(crate) struct ShardWorker {
    idx: usize,
    cfg: ServeConfig,
    /// The full follow relation; cluster worlds induce their subgraphs
    /// from it.
    graph: FollowerGraph,
    clusters: BTreeMap<u32, ClusterSlot>,
    epoch: u64,
    obs: Obs,
    /// Messages sent but not yet picked up (router increments).
    depth: Arc<AtomicUsize>,
}

impl ShardWorker {
    pub(crate) fn new(
        idx: usize,
        cfg: ServeConfig,
        graph: FollowerGraph,
        obs: Obs,
        depth: Arc<AtomicUsize>,
    ) -> Self {
        Self {
            idx,
            cfg,
            graph,
            clusters: BTreeMap::new(),
            epoch: 0,
            obs,
            depth,
        }
    }

    pub(crate) fn run(mut self, rx: Receiver<ShardMsg>) {
        while let Ok(msg) = rx.recv() {
            let waiting = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
            self.obs.gauge(
                &format!("serve.shard.{}.queue.depth", self.idx),
                waiting as f64,
            );
            match msg {
                ShardMsg::Epoch(e) => self.epoch = e,
                ShardMsg::Ingest { epoch, ops, reply } => {
                    self.epoch = epoch;
                    self.obs
                        .counter(&format!("serve.shard.{}.requests_total", self.idx), 1);
                    let acks = self.apply_ops(ops);
                    let _ = reply.send(ShardReturn {
                        shard: self.idx,
                        epoch: self.epoch,
                        payload: Ok(acks),
                    });
                }
                ShardMsg::Query {
                    epoch,
                    query,
                    reply,
                } => {
                    self.obs
                        .counter(&format!("serve.shard.{}.requests_total", self.idx), 1);
                    let payload = if epoch == self.epoch {
                        self.answer(query)
                    } else {
                        // FIFO delivery makes this unreachable: every
                        // epoch advance is enqueued before any query
                        // stamped with it.
                        Err(ServeError::Protocol("shard epoch behind query epoch"))
                    };
                    let _ = reply.send(ShardReturn {
                        shard: self.idx,
                        epoch: self.epoch,
                        payload,
                    });
                }
                ShardMsg::Shutdown => return,
            }
        }
    }

    fn apply_ops(&mut self, ops: Vec<ClusterOp>) -> Vec<ClusterAck> {
        let mut acks = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                ClusterOp::Drop { key } => {
                    self.clusters.remove(&key);
                }
                ClusterOp::Append { key, claims } => acks.push(self.append(key, &claims)),
                ClusterOp::Build {
                    key,
                    sources,
                    assertions,
                    batches,
                } => acks.push(self.build(key, &sources, &assertions, &batches)),
                ClusterOp::Restore(snap) => acks.push(self.restore(*snap)),
            }
        }
        acks
    }

    /// An empty slot over the compacted world of a cluster with the
    /// given members, its estimator configured like every other slot.
    fn fresh_slot(
        &self,
        sources: &[u32],
        assertions: &[u32],
        counters: SlotCounters,
    ) -> Result<ClusterSlot, SenseError> {
        let world = ClusterWorld::new(sources, assertions, &self.graph)?;
        let mut est = world.estimator(self.cfg.em)?;
        est.set_warm_blend(self.cfg.warm_blend)?;
        est.set_refit_mode(self.cfg.refit_mode)?;
        est.set_obs(self.obs.clone());
        Ok(ClusterSlot {
            world,
            est,
            chain_fit: None,
            probe_fit: None,
            counters,
            last_refit: None,
        })
    }

    /// Installs a cluster from its checkpoint slice: same construction
    /// path as [`build`](Self::build), but the estimator state, chain
    /// fit, and counters come bit-exact from the snapshot instead of a
    /// history replay.
    fn restore(&mut self, snap: ClusterSnapshot) -> ClusterAck {
        let key = snap.key;
        let installed = self
            .fresh_slot(&snap.sources, &snap.assertions, snap.counters)
            .and_then(|mut slot| {
                slot.est.restore_state(&snap.stream)?;
                slot.chain_fit = snap
                    .chain_fit
                    .as_ref()
                    .map(EmFitBits::to_fit)
                    .transpose()?
                    .map(Arc::new);
                slot.last_refit = snap.last_refit;
                Ok(slot)
            });
        let slot = match installed {
            Ok(slot) => slot,
            Err(e) => return failed_ack(key, e),
        };
        let pending = slot.est.pending();
        self.clusters.insert(key, slot);
        ClusterAck {
            key,
            pending,
            refitted: false,
            error: None,
        }
    }

    /// Creates or rebuilds a cluster by replaying its batch history
    /// under the live refit policy, making the resulting state — fits,
    /// warm-start chain, pending count, and replay-scoped counters — a
    /// pure function of `(membership, batch history)` regardless of
    /// when the cluster landed on this shard.
    fn build(
        &mut self,
        key: u32,
        sources: &[u32],
        assertions: &[u32],
        batches: &[Vec<TimedClaim>],
    ) -> ClusterAck {
        let preserved = self.clusters.remove(&key).map(|s| s.counters);
        let counters = SlotCounters {
            probe_refits: preserved.map_or(0, |c| c.probe_refits),
            probe_cache_hits: preserved.map_or(0, |c| c.probe_cache_hits),
            ..SlotCounters::default()
        };
        let mut slot = match self.fresh_slot(sources, assertions, counters) {
            Ok(slot) => slot,
            Err(e) => return failed_ack(key, e),
        };
        let mut first_error = None;
        let mut last_refitted = false;
        for batch in batches {
            let (refitted, err) = ingest_batch(
                &mut slot,
                batch,
                self.cfg.refit_pending_claims,
                key,
                self.epoch,
                &self.obs,
            );
            last_refitted = refitted;
            if first_error.is_none() {
                first_error = err;
            }
        }
        let pending = slot.est.pending();
        self.clusters.insert(key, slot);
        ClusterAck {
            key,
            pending,
            refitted: last_refitted,
            error: first_error,
        }
    }

    fn append(&mut self, key: u32, claims: &[TimedClaim]) -> ClusterAck {
        let epoch = self.epoch;
        let Some(slot) = self.clusters.get_mut(&key) else {
            return failed_ack(key, SenseError::EmptyData);
        };
        let (refitted, error) = ingest_batch(
            slot,
            claims,
            self.cfg.refit_pending_claims,
            key,
            epoch,
            &self.obs,
        );
        ClusterAck {
            key,
            pending: slot.est.pending(),
            refitted,
            error,
        }
    }

    fn answer(&mut self, query: ShardQuery) -> Result<ShardReply, ServeError> {
        match query {
            ShardQuery::Posterior { key, assertion } => {
                let epoch = self.epoch;
                let slot = self
                    .clusters
                    .get_mut(&key)
                    .ok_or(ServeError::Protocol("cluster not hosted on this shard"))?;
                let local = slot
                    .world
                    .local_assertion(assertion)
                    .ok_or(ServeError::Protocol("assertion not in routed cluster"))?;
                let fit = fresh_fit(slot, key, epoch, &self.obs)?;
                Ok(ShardReply::Posterior(fit.posterior[local as usize]))
            }
            ShardQuery::Posteriors => {
                let epoch = self.epoch;
                let mut out = Vec::new();
                for (&key, slot) in &mut self.clusters {
                    let fit = fresh_fit(slot, key, epoch, &self.obs)?;
                    for (local, p) in fit.posterior.iter().enumerate() {
                        out.push((slot.world.global_assertion(local as u32), *p));
                    }
                }
                Ok(ShardReply::Posteriors(out))
            }
            ShardQuery::TopSources => {
                let epoch = self.epoch;
                let mut out = Vec::new();
                for (&key, slot) in &mut self.clusters {
                    let fit = fresh_fit(slot, key, epoch, &self.obs)?;
                    let z = fit.theta.z();
                    for (local, s) in fit.theta.sources().iter().enumerate() {
                        out.push(SourceRank {
                            source: slot.world.global_sources()[local],
                            precision: z * s.a / (z * s.a + (1.0 - z) * s.b),
                            params: *s,
                        });
                    }
                }
                Ok(ShardReply::TopSources(out))
            }
            ShardQuery::Bound { groups, method } => {
                let epoch = self.epoch;
                let mut out = Vec::with_capacity(groups.len());
                for (key, assertions) in groups {
                    let slot = self
                        .clusters
                        .get_mut(&key)
                        .ok_or(ServeError::Protocol("cluster not hosted on this shard"))?;
                    let locals: Vec<u32> = assertions
                        .iter()
                        .map(|&j| {
                            slot.world
                                .local_assertion(j)
                                .ok_or(ServeError::Protocol("assertion not in routed cluster"))
                        })
                        .collect::<Result<_, _>>()?;
                    let fit = fresh_fit(slot, key, epoch, &self.obs)?;
                    let data = slot.est.snapshot();
                    let bound = bound_for_assertions_traced(
                        &data,
                        &fit.theta,
                        &method,
                        &locals,
                        self.cfg.parallelism,
                        &self.obs,
                    )?;
                    out.push((key, bound, locals.len()));
                }
                Ok(ShardReply::Bound(out))
            }
            ShardQuery::Stats => {
                let mut p = ShardStatsPartial::default();
                for slot in self.clusters.values() {
                    p.pending += slot.est.pending();
                    p.chain_refits += slot.counters.chain_refits;
                    p.probe_refits += slot.counters.probe_refits;
                    p.probe_cache_hits += slot.counters.probe_cache_hits;
                    p.failed_refits += slot.counters.failed_refits;
                    p.warm_refits += slot.counters.warm_refits;
                    p.delta_refits += slot.counters.delta_refits;
                    p.fallback_refits += slot.counters.fallback_refits;
                    p.last_refit = p.last_refit.max(slot.last_refit);
                }
                Ok(ShardReply::Stats(p))
            }
            ShardQuery::Export => {
                let mut out = Vec::with_capacity(self.clusters.len());
                for (&key, slot) in &self.clusters {
                    out.push(ClusterSnapshot {
                        key,
                        sources: slot.world.global_sources().to_vec(),
                        assertions: slot.world.global_assertions().to_vec(),
                        pending: slot.est.pending(),
                        // The router owns the history; it stamps the
                        // slice before writing it.
                        stamps: Vec::new(),
                        stream: slot.est.export_state(),
                        chain_fit: slot.chain_fit.as_deref().map(EmFitBits::from_fit),
                        counters: slot.counters,
                        last_refit: slot.last_refit,
                    });
                }
                Ok(ShardReply::Export(out))
            }
        }
    }
}

/// The ack of a cluster operation that failed before any claim landed.
fn failed_ack(key: u32, error: SenseError) -> ClusterAck {
    ClusterAck {
        key,
        pending: 0,
        refitted: false,
        error: Some(error),
    }
}

/// Ingests one sub-batch into a cluster and applies the ingest-time
/// refit policy — the exact `QueryService` worker behaviour scoped to
/// one cluster (the pending-claims debounce counts this cluster's
/// pending claims only).
fn ingest_batch(
    slot: &mut ClusterSlot,
    claims: &[TimedClaim],
    refit_pending_claims: usize,
    key: u32,
    epoch: u64,
    obs: &Obs,
) -> (bool, Option<SenseError>) {
    let local = match slot.world.localize_batch(claims) {
        Ok(l) => l,
        Err(e) => return (false, Some(e)),
    };
    if let Err(e) = slot.est.ingest(&local) {
        return (false, Some(e));
    }
    // The log changed: any cached probe is stale.
    slot.probe_fit = None;
    if refit_pending_claims > 0 && slot.est.pending() >= refit_pending_claims {
        match slot.est.estimate_with_stats() {
            Ok((fit, stats)) => {
                slot.counters.chain_refits += 1;
                obs.counter("serve.refit.chain_total", 1);
                note_refit(slot, &stats, key, epoch, obs);
                slot.chain_fit = Some(Arc::new(fit));
                (true, None)
            }
            Err(e) => {
                slot.counters.failed_refits += 1;
                obs.counter("serve.refit.failed_total", 1);
                (false, Some(e))
            }
        }
    } else {
        (false, None)
    }
}

/// Per-refit bookkeeping shared by chain and probe refits.
fn note_refit(slot: &mut ClusterSlot, stats: &RefitStats, key: u32, epoch: u64, obs: &Obs) {
    if stats.warm {
        slot.counters.warm_refits += 1;
        obs.counter("serve.refit.warm_total", 1);
    }
    match stats.mode {
        RefitOutcome::Full => {}
        RefitOutcome::Delta => {
            slot.counters.delta_refits += 1;
            obs.counter("serve.refit.delta_total", 1);
        }
        RefitOutcome::Fallback => {
            slot.counters.fallback_refits += 1;
            obs.counter("serve.refit.fallback_total", 1);
        }
    }
    slot.last_refit = Some(LastRefit {
        epoch,
        key,
        iterations: stats.iterations,
        touched_assertions: stats.touched_assertions,
        touched_sources: stats.touched_sources,
        ll_exact: stats.ll_exact,
    });
}

/// The fit covering the cluster's full current log: the chain fit when
/// nothing is pending, else a cached probe refit.
fn fresh_fit(
    slot: &mut ClusterSlot,
    key: u32,
    epoch: u64,
    obs: &Obs,
) -> Result<Arc<EmFit>, ServeError> {
    if slot.est.pending() == 0 {
        if let Some(fit) = &slot.chain_fit {
            return Ok(Arc::clone(fit));
        }
    }
    if let Some((at, fit)) = &slot.probe_fit {
        if *at == slot.est.claim_count() {
            slot.counters.probe_cache_hits += 1;
            obs.counter("serve.cache.probe_hits_total", 1);
            return Ok(Arc::clone(fit));
        }
    }
    match slot.est.peek_estimate() {
        Ok((fit, stats)) => {
            slot.counters.probe_refits += 1;
            obs.counter("serve.refit.probe_total", 1);
            note_refit(slot, &stats, key, epoch, obs);
            let fit = Arc::new(fit);
            slot.probe_fit = Some((slot.est.claim_count(), Arc::clone(&fit)));
            Ok(fit)
        }
        Err(e) => {
            slot.counters.failed_refits += 1;
            obs.counter("serve.refit.failed_total", 1);
            Err(ServeError::Sense(e))
        }
    }
}
