//! The channel-based query service: one owned worker thread, many
//! concurrent client handles.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use socsense_core::{
    bound_for_assertions_traced, BoundMethod, BoundResult, EmFit, EmFitBits, RefitOutcome,
    RefitStats, SenseError, StreamingEstimator,
};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_obs::{MetricsSnapshot, Obs, Recorder, Tee};

use crate::api::{
    IngestAck, PersistConfig, ServeConfig, ServeError, ServeStats, ShardTopology, SourceRank,
};
use crate::durable::{DurableLog, WorkerSnapshot};

/// Renders a worker thread's panic payload for
/// [`ServeError::WorkerPanicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A typed request, one per client call. Shared verbatim by the
/// unsharded worker and the sharded router, so both backends present
/// the same client surface.
// detlint: protocol
pub(crate) enum Request {
    Ingest(Vec<TimedClaim>),
    Posterior(u32),
    Posteriors,
    TopSources(usize),
    Bound {
        assertions: Vec<u32>,
        method: Option<BoundMethod>,
    },
    Stats,
    Metrics,
    /// Partition map of the sharded tier; the unsharded worker has none.
    Topology,
    Shutdown,
    /// Test hook: panic inside the worker (exercises panic surfacing).
    #[cfg(test)]
    InjectPanic,
    /// Test hook: ack on `ack`, then block until `release` yields —
    /// turns the worker into a deterministic "slow worker" so queue
    /// backpressure can be tested without timing races.
    #[cfg(test)]
    Park {
        ack: Sender<()>,
        release: Receiver<()>,
    },
    /// Test hook: make the sharded router's next ingest fail right after
    /// its WAL append (exercises the wedge).
    #[cfg(test)]
    FailNextCommit,
}

impl Request {
    /// Stable label used in `serve.request.<label>.seconds` metrics.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Request::Ingest(_) => "ingest",
            Request::Posterior(_) => "posterior",
            Request::Posteriors => "posteriors",
            Request::TopSources(_) => "top_sources",
            Request::Bound { .. } => "bound",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Topology => "topology",
            Request::Shutdown => "shutdown",
            #[cfg(test)]
            Request::InjectPanic => "inject_panic",
            #[cfg(test)]
            Request::Park { .. } => "park",
            #[cfg(test)]
            Request::FailNextCommit => "fail_next_commit",
        }
    }
}

/// The worker's reply to one request.
pub(crate) enum Response {
    Ingested(IngestAck),
    Posterior(f64),
    Posteriors(Vec<f64>),
    TopSources(Vec<SourceRank>),
    Bound(BoundResult),
    Stats(ServeStats),
    Metrics(Box<MetricsSnapshot>),
    Topology(Box<ShardTopology>),
    ShuttingDown(ServeStats),
}

pub(crate) struct Envelope {
    pub(crate) req: Request,
    pub(crate) reply: Sender<Result<Response, ServeError>>,
    /// When the client enqueued the request (feeds
    /// `serve.queue.wait_seconds`).
    pub(crate) queued: Instant,
}

/// A cheap, cloneable client of a [`QueryService`].
///
/// Every method is a synchronous request/response round trip over the
/// service channel; handles can be cloned freely and moved to other
/// threads. After the service shuts down, every call returns
/// [`ServeError::Closed`].
#[derive(Debug, Clone)]
pub struct ServeHandle {
    tx: Sender<Envelope>,
    /// Requests sent but not yet picked up by the worker, shared by
    /// every handle of one service (feeds `serve.queue.depth`).
    depth: Arc<AtomicUsize>,
    /// Backpressure limit ([`ServeConfig::max_queue_depth`]; `0` =
    /// unlimited). Checked at the handle, so a shed request never even
    /// enters the queue.
    max_depth: usize,
}

impl ServeHandle {
    /// A handle over an already-running request channel (the sharded
    /// router speaks the same envelope protocol as the unsharded
    /// worker).
    pub(crate) fn internal(
        tx: Sender<Envelope>,
        depth: Arc<AtomicUsize>,
        max_depth: usize,
    ) -> Self {
        Self {
            tx,
            depth,
            max_depth,
        }
    }

    // Clippy twin of the detlint allow(D2) below: the queue-entry
    // timestamp is observation-only.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn call(&self, req: Request) -> Result<Response, ServeError> {
        let (reply, rx) = mpsc::channel();
        let queued_depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        // Shed at the door when the queue is full. Shutdown is always
        // admitted — a client must be able to stop an overloaded
        // service.
        if self.max_depth > 0 && queued_depth > self.max_depth && !matches!(req, Request::Shutdown)
        {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        let sent = self.tx.send(Envelope {
            req,
            reply,
            // detlint: allow(D2) -- observation-only: feeds the queue-wait latency histogram; responses never read this clock
            queued: Instant::now(),
        });
        if sent.is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::Closed);
        }
        // A dropped reply sender means the worker exited (shutdown drain
        // finished, or it died) before answering.
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Test-only: enqueue a request without waiting for the reply (and
    /// without the backpressure shed), returning the raw reply
    /// receiver. Used to fill the queue while the worker is parked —
    /// `call` would block on the answer.
    #[cfg(test)]
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn raw_send(&self, req: Request) -> Receiver<Result<Response, ServeError>> {
        let (reply, rx) = mpsc::channel();
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(Envelope {
                req,
                reply,
                // detlint: allow(D2) -- observation-only queue timestamp (test helper)
                queued: Instant::now(),
            })
            // detlint: allow(P1) -- test-only helper: a refused send is a broken test setup, so panicking is the honest failure
            .expect("service accepts the raw envelope");
        rx
    }

    /// Appends a batch of claims to the service's log.
    ///
    /// The warm-start chain advances immediately when the batch leaves at
    /// least [`ServeConfig::refit_pending_claims`] claims pending;
    /// otherwise the refit is deferred until a query needs it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sense`] when a claim is out of range (the batch is
    /// rejected atomically) or an eager refit fails — the claims stay
    /// ingested and the warm-start state survives; [`ServeError::Closed`]
    /// when the service is gone.
    pub fn ingest(&self, batch: Vec<TimedClaim>) -> Result<IngestAck, ServeError> {
        match self.call(Request::Ingest(batch))? {
            Response::Ingested(ack) => Ok(ack),
            _ => Err(ServeError::Protocol("expected Ingested")),
        }
    }

    /// The current truth posterior `P(C_j = 1 | ·)` of one assertion.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sense`] for an out-of-range assertion id or a failed
    /// refit; [`ServeError::Closed`] when the service is gone.
    pub fn posterior(&self, assertion: u32) -> Result<f64, ServeError> {
        match self.call(Request::Posterior(assertion))? {
            Response::Posterior(p) => Ok(p),
            _ => Err(ServeError::Protocol("expected Posterior")),
        }
    }

    /// The current truth posterior of every assertion, in assertion
    /// order.
    ///
    /// # Errors
    ///
    /// As [`posterior`](Self::posterior).
    pub fn posteriors(&self) -> Result<Vec<f64>, ServeError> {
        match self.call(Request::Posteriors)? {
            Response::Posteriors(p) => Ok(p),
            _ => Err(ServeError::Protocol("expected Posteriors")),
        }
    }

    /// The `k` most reliable sources under the current fit, best first
    /// (ties broken toward the lower source id).
    ///
    /// # Errors
    ///
    /// As [`posterior`](Self::posterior).
    pub fn top_sources(&self, k: usize) -> Result<Vec<SourceRank>, ServeError> {
        match self.call(Request::TopSources(k))? {
            Response::TopSources(r) => Ok(r),
            _ => Err(ServeError::Protocol("expected TopSources")),
        }
    }

    /// Mean Bayes-risk bound over `assertions` (every assertion when
    /// empty) under the current fit, using `method` or the service's
    /// configured default.
    ///
    /// # Errors
    ///
    /// As [`posterior`](Self::posterior), plus whatever the bound
    /// evaluation reports (e.g. too many sources for an exact bound).
    pub fn bound(
        &self,
        assertions: Vec<u32>,
        method: Option<BoundMethod>,
    ) -> Result<BoundResult, ServeError> {
        match self.call(Request::Bound { assertions, method })? {
            Response::Bound(b) => Ok(b),
            _ => Err(ServeError::Protocol("expected Bound")),
        }
    }

    /// Current operating statistics. Never triggers a refit.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the service is gone.
    pub fn stats(&self) -> Result<ServeStats, ServeError> {
        match self.call(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ServeError::Protocol("expected Stats")),
        }
    }

    /// A snapshot of the service's metrics recorder: per-request-type
    /// latency histograms (`serve.request.<type>.seconds`), queue
    /// wait/depth, refit and cache counters, plus the `em.*`,
    /// `stream.*`, and `bound.*` metrics of the work the service ran.
    /// Never triggers a refit.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the service is gone.
    pub fn metrics(&self) -> Result<MetricsSnapshot, ServeError> {
        match self.call(Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            _ => Err(ServeError::Protocol("expected Metrics")),
        }
    }
}

/// A long-lived query service owning one warm
/// [`StreamingEstimator`] on a dedicated worker thread.
///
/// See the crate docs for the ownership model and refit policy. Dropping
/// the service without calling [`shutdown`](Self::shutdown) still drains
/// the queue and joins the worker.
#[derive(Debug)]
pub struct QueryService {
    tx: Sender<Envelope>,
    depth: Arc<AtomicUsize>,
    max_depth: usize,
    worker: Option<JoinHandle<()>>,
}

impl QueryService {
    /// Spawns the worker thread over `n` sources and `m` assertions with
    /// the given follow relation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sense`] for an invalid shape (`n == 0`, `m == 0`, a
    /// graph over a different source count) or a `warm_blend` outside
    /// `[0, 1]`.
    pub fn spawn(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::spawn_with_obs(n, m, graph, config, Obs::none())
    }

    /// As [`spawn`](Self::spawn), additionally teeing every metric the
    /// worker emits into `extra` (e.g. a caller-owned exporter). The
    /// worker always keeps its own in-memory recorder — the source of
    /// [`ServeHandle::metrics`] snapshots — whether or not an extra
    /// sink is attached; metrics are observation-only and never change
    /// served numbers.
    ///
    /// # Errors
    ///
    /// See [`spawn`](Self::spawn); additionally
    /// [`ServeError::Persist`] when [`ServeConfig::persist`] is set and
    /// the durable state cannot be opened or recovered. Recovery — the
    /// newest snapshot plus a WAL-tail replay — happens here, before
    /// the worker thread serves its first request.
    pub fn spawn_with_obs(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        config: ServeConfig,
        extra: Obs,
    ) -> Result<Self, ServeError> {
        let rec = Arc::new(Recorder::new());
        let obs = match extra.sink() {
            Some(sink) => Obs::new(Arc::new(Tee::new(rec.clone(), sink))),
            None => Obs::new(rec.clone()),
        };
        let mut est = StreamingEstimator::new(n, m, graph, config.em)?;
        est.set_warm_blend(config.warm_blend)?;
        est.set_refit_mode(config.refit_mode)?;
        est.set_obs(obs.clone());
        let depth = Arc::new(AtomicUsize::new(0));
        let max_depth = config.max_queue_depth;
        let persist = config.persist.clone();
        let mut worker = Worker {
            est,
            cfg: config,
            chain_fit: None,
            probe_fit: None,
            stats: ServeStats::default(),
            rec,
            obs,
            depth: Arc::clone(&depth),
            durable: None,
            seq: 0,
        };
        if let Some(pcfg) = &persist {
            worker.recover(pcfg)?;
        }
        let (tx, rx) = mpsc::channel::<Envelope>();
        let worker = std::thread::Builder::new()
            .name("socsense-serve".into())
            .spawn(move || worker.run(rx))
            // detlint: allow(P1) -- construction-time: no client exists yet, so a failed spawn panics the caller, not a worker others wait on
            .expect("spawning the service worker thread");
        Ok(Self {
            tx,
            depth,
            max_depth,
            worker: Some(worker),
        })
    }

    /// A new client handle. Handles stay valid until shutdown.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            max_depth: self.max_depth,
        }
    }

    /// Shuts the service down gracefully: requests already queued are
    /// still answered (requests arriving later get
    /// [`ServeError::Closed`]), then the worker exits and is joined.
    ///
    /// Returns the final operating statistics, taken at the moment the
    /// shutdown request was processed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the worker was already gone;
    /// [`ServeError::WorkerPanicked`] when the worker thread died by
    /// panic (with its payload) instead of exiting cleanly.
    pub fn shutdown(mut self) -> Result<ServeStats, ServeError> {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> Result<ServeStats, ServeError> {
        let stats = match self.handle().call(Request::Shutdown) {
            Ok(Response::ShuttingDown(stats)) => Ok(stats),
            Ok(_) => Err(ServeError::Protocol("expected ShuttingDown")),
            Err(e) => Err(e),
        };
        if let Some(worker) = self.worker.take() {
            // A panicked worker must not be swallowed: it outranks
            // whatever the (necessarily failed) shutdown call returned.
            if let Err(payload) = worker.join() {
                return Err(ServeError::WorkerPanicked(panic_message(payload)));
            }
        }
        stats
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        if self.worker.is_some() {
            // Nobody is left to receive the error; a panic still gets
            // reported rather than vanishing with the service.
            if let Err(ServeError::WorkerPanicked(what)) = self.shutdown_impl() {
                eprintln!("socsense-serve: worker thread panicked: {what}");
            }
        }
    }
}

/// The single-threaded owner of the estimator and its cached fits.
struct Worker {
    est: StreamingEstimator,
    cfg: ServeConfig,
    /// Fit of the last warm-start-chain refit (covers the log up to the
    /// last chain advance; exactly current while nothing is pending).
    chain_fit: Option<Arc<EmFit>>,
    /// Query-driven probe fit, keyed on the claim count it covered.
    probe_fit: Option<(usize, Arc<EmFit>)>,
    stats: ServeStats,
    /// The service's own recorder; `Metrics` requests snapshot it.
    rec: Arc<Recorder>,
    /// Emission handle: the recorder, possibly teed with a caller sink.
    obs: Obs,
    /// Shared with every [`ServeHandle`]; decremented on pickup.
    depth: Arc<AtomicUsize>,
    /// Durability engine, when [`ServeConfig::persist`] is set.
    durable: Option<DurableLog>,
    /// Ingest batches accepted over the service's *durable* lifetime
    /// (monotonic across restarts; stays 0 without persistence).
    seq: u64,
}

impl Worker {
    /// Restores whatever a previous service left under the data
    /// directory: install the newest snapshot, then replay the WAL tail
    /// through the normal ingest path. Runs before the worker thread
    /// exists, so the first client request already sees the recovered
    /// state.
    fn recover(&mut self, pcfg: &PersistConfig) -> Result<(), ServeError> {
        let (log, recovered) = DurableLog::open::<WorkerSnapshot>(pcfg, &self.obs)?;
        if let Some((seq, snap)) = recovered.snapshot {
            self.est.restore_state(&snap.stream)?;
            self.chain_fit = match &snap.chain_fit {
                Some(bits) => Some(Arc::new(bits.to_fit()?)),
                None => None,
            };
            self.stats = snap.stats;
            self.seq = seq;
        }
        for record in recovered.tail {
            self.seq = record.seq;
            self.est.ingest(&record.claims)?;
            // Refit errors during replay mirror the live path: the
            // original run surfaced them to the client and kept the
            // claims ingested, so replay keeps the claims and moves on.
            let _ = self.post_ingest();
        }
        self.durable = Some(log);
        Ok(())
    }
    fn run(mut self, rx: Receiver<Envelope>) {
        while let Ok(env) = rx.recv() {
            let shutting_down = matches!(env.req, Request::Shutdown);
            self.answer(env);
            if shutting_down {
                // Graceful drain: everything already queued is answered;
                // senders arriving after the channel closes get `Closed`.
                while let Ok(env) = rx.try_recv() {
                    self.answer(env);
                }
                return;
            }
        }
        // All handles (and the service) dropped without a shutdown
        // request: nothing left to answer.
    }

    fn answer(&mut self, env: Envelope) {
        // The request leaves the queue: record how long it sat and how
        // many are still behind it.
        let waiting = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        self.obs.gauge("serve.queue.depth", waiting as f64);
        self.obs.observe(
            "serve.queue.wait_seconds",
            env.queued.elapsed().as_secs_f64(),
        );
        self.stats.requests_served += 1;
        self.obs.counter("serve.requests_total", 1);
        let label = env.req.label();
        let timer = self.obs.timer(&format!("serve.request.{label}.seconds"));
        let result = self.dispatch(env.req);
        timer.stop();
        if result.is_err() {
            self.obs.counter("serve.request_errors_total", 1);
        }
        // A client that gave up on its reply is not an error.
        let _ = env.reply.send(result);
    }

    fn dispatch(&mut self, req: Request) -> Result<Response, ServeError> {
        match req {
            Request::Ingest(batch) => {
                self.est.ingest(&batch)?;
                // Log the accepted batch before the refit work and the
                // ack — with `fsync_every = 1`, an acked batch is on
                // disk. A rejected batch (the `?` above) logs nothing.
                if self.durable.is_some() {
                    self.seq += 1;
                    let seq = self.seq;
                    let obs = self.obs.clone();
                    if let Some(d) = &mut self.durable {
                        d.append(seq, &batch, &obs)?;
                    }
                }
                let ack = self.post_ingest()?;
                self.maybe_snapshot()?;
                Ok(Response::Ingested(ack))
            }
            Request::Posterior(j) => {
                if j >= self.est.assertion_count() {
                    return Err(ServeError::Sense(SenseError::DimensionMismatch {
                        what: "query assertion id vs m",
                        expected: self.est.assertion_count() as usize,
                        actual: j as usize,
                    }));
                }
                let fit = self.fresh_fit()?;
                Ok(Response::Posterior(fit.posterior[j as usize]))
            }
            Request::Posteriors => {
                let fit = self.fresh_fit()?;
                Ok(Response::Posteriors(fit.posterior.clone()))
            }
            Request::TopSources(k) => {
                let fit = self.fresh_fit()?;
                Ok(Response::TopSources(rank_sources(&fit, k)))
            }
            Request::Bound { assertions, method } => {
                let fit = self.fresh_fit()?;
                let data = self.est.snapshot();
                let assertions = if assertions.is_empty() {
                    (0..self.est.assertion_count()).collect()
                } else {
                    assertions
                };
                let method = method.unwrap_or_else(|| self.cfg.bound.clone());
                let bound = bound_for_assertions_traced(
                    &data,
                    &fit.theta,
                    &method,
                    &assertions,
                    self.cfg.parallelism,
                    &self.obs,
                )?;
                Ok(Response::Bound(bound))
            }
            Request::Stats => Ok(Response::Stats(self.stats_snapshot())),
            Request::Metrics => Ok(Response::Metrics(Box::new(self.rec.snapshot()))),
            // Only the sharded router keeps a partition map; the
            // unsharded worker cannot answer this (and no public
            // `ServeHandle` method sends it).
            Request::Topology => Err(ServeError::Protocol(
                "topology is only served by the sharded tier",
            )),
            Request::Shutdown => Ok(Response::ShuttingDown(self.stats_snapshot())),
            #[cfg(test)]
            Request::InjectPanic => panic!("injected worker panic"),
            #[cfg(test)]
            Request::Park { ack, release } => {
                let _ = ack.send(());
                let _ = release.recv();
                Ok(Response::Stats(self.stats_snapshot()))
            }
            #[cfg(test)]
            Request::FailNextCommit => Err(ServeError::Protocol(
                "commit faults are only injected into the sharded tier",
            )),
        }
    }

    /// The post-ingest half of the ingest path, shared by live requests
    /// and WAL-tail replay: invalidate the probe cache, apply the
    /// chain-refit policy, refresh the claim counters, and build the
    /// ack.
    fn post_ingest(&mut self) -> Result<IngestAck, ServeError> {
        // The log changed: any cached probe is stale.
        self.probe_fit = None;
        let mut refitted = false;
        if self.cfg.refit_pending_claims > 0 && self.est.pending() >= self.cfg.refit_pending_claims
        {
            self.chain_refit()?;
            refitted = true;
        }
        self.stats.total_claims = self.est.claim_count();
        self.stats.pending_claims = self.est.pending();
        Ok(IngestAck {
            total_claims: self.est.claim_count(),
            pending_claims: self.est.pending(),
            refitted,
        })
    }

    /// Writes a checkpoint when the configured cadence is due. The WAL
    /// is truncated afterwards: the snapshot absorbed it, so recovery
    /// replays only the tail since this point.
    fn maybe_snapshot(&mut self) -> Result<(), ServeError> {
        let due = self
            .durable
            .as_ref()
            .is_some_and(|d| d.should_snapshot(self.seq));
        if !due {
            return Ok(());
        }
        let snap = WorkerSnapshot {
            seq: self.seq,
            stream: self.est.export_state(),
            chain_fit: self.chain_fit.as_deref().map(EmFitBits::from_fit),
            stats: self.stats_snapshot(),
        };
        let seq = self.seq;
        let obs = self.obs.clone();
        if let Some(d) = &mut self.durable {
            d.write_snapshot(seq, &snap, &obs)?;
        }
        Ok(())
    }

    /// Advances the warm-start chain: a full refit whose `θ̂` seeds the
    /// next one. Only ingest processing calls this, so the chain — and
    /// with it every served number — is a pure function of the ingest
    /// sequence, never of query timing.
    fn chain_refit(&mut self) -> Result<(), ServeError> {
        match self.est.estimate_with_stats() {
            Ok((fit, stats)) => {
                self.stats.chain_refits += 1;
                self.obs.counter("serve.refit.chain_total", 1);
                self.note_refit(&stats);
                self.chain_fit = Some(Arc::new(fit));
                Ok(())
            }
            Err(e) => {
                self.stats.failed_refits += 1;
                self.obs.counter("serve.refit.failed_total", 1);
                Err(ServeError::Sense(e))
            }
        }
    }

    /// The fit covering the full current log: the chain fit when nothing
    /// is pending, else a cached *probe* refit — fresh, but leaving the
    /// warm-start chain untouched (see [`StreamingEstimator::peek_estimate`]).
    fn fresh_fit(&mut self) -> Result<Arc<EmFit>, ServeError> {
        if self.est.pending() == 0 {
            if let Some(fit) = &self.chain_fit {
                return Ok(Arc::clone(fit));
            }
        }
        if let Some((at, fit)) = &self.probe_fit {
            if *at == self.est.claim_count() {
                self.stats.probe_cache_hits += 1;
                self.obs.counter("serve.cache.probe_hits_total", 1);
                return Ok(Arc::clone(fit));
            }
        }
        match self.est.peek_estimate() {
            Ok((fit, stats)) => {
                self.stats.probe_refits += 1;
                self.obs.counter("serve.refit.probe_total", 1);
                self.note_refit(&stats);
                let fit = Arc::new(fit);
                self.probe_fit = Some((self.est.claim_count(), Arc::clone(&fit)));
                Ok(fit)
            }
            Err(e) => {
                self.stats.failed_refits += 1;
                self.obs.counter("serve.refit.failed_total", 1);
                Err(ServeError::Sense(e))
            }
        }
    }

    /// Per-refit bookkeeping shared by chain and probe refits: warm and
    /// delta-mode counters, plus the last refit's shape.
    fn note_refit(&mut self, stats: &RefitStats) {
        if stats.warm {
            self.stats.warm_refits += 1;
            self.obs.counter("serve.refit.warm_total", 1);
        }
        match stats.mode {
            RefitOutcome::Full => {}
            RefitOutcome::Delta => {
                self.stats.delta_refits += 1;
                self.obs.counter("serve.refit.delta_total", 1);
            }
            RefitOutcome::Fallback => {
                self.stats.fallback_refits += 1;
                self.obs.counter("serve.refit.fallback_total", 1);
            }
        }
        self.stats.last_refit_iterations = Some(stats.iterations);
        self.stats.last_touched_assertions = Some(stats.touched_assertions);
        self.stats.last_touched_sources = Some(stats.touched_sources);
        self.stats.last_ll_exact = Some(stats.ll_exact);
    }

    fn stats_snapshot(&self) -> ServeStats {
        ServeStats {
            total_claims: self.est.claim_count(),
            pending_claims: self.est.pending(),
            ..self.stats
        }
    }
}

/// Ranks every source by independent-claim precision, best first, and
/// keeps the top `k`.
fn rank_sources(fit: &EmFit, k: usize) -> Vec<SourceRank> {
    let z = fit.theta.z();
    let mut ranks: Vec<SourceRank> = fit
        .theta
        .sources()
        .iter()
        .enumerate()
        .map(|(i, s)| SourceRank {
            source: i as u32,
            precision: z * s.a / (z * s.a + (1.0 - z) * s.b),
            params: *s,
        })
        .collect();
    ranks.sort_by(|x, y| {
        y.precision
            .partial_cmp(&x.precision)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.source.cmp(&y.source))
    });
    ranks.truncate(k);
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use socsense_core::Theta;

    fn service_over(n: u32, m: u32) -> QueryService {
        QueryService::spawn(n, m, FollowerGraph::new(n), ServeConfig::default()).unwrap()
    }

    #[test]
    fn spawn_validates_shape() {
        assert!(matches!(
            QueryService::spawn(0, 2, FollowerGraph::new(0), ServeConfig::default()),
            Err(ServeError::Sense(SenseError::EmptyData))
        ));
        assert!(matches!(
            QueryService::spawn(
                3,
                2,
                FollowerGraph::new(3),
                ServeConfig {
                    warm_blend: 1.5,
                    ..ServeConfig::default()
                }
            ),
            Err(ServeError::Sense(SenseError::BadConfig { .. }))
        ));
    }

    #[test]
    fn bad_batch_is_rejected_atomically() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        let err = client
            .ingest(vec![TimedClaim::new(0, 0, 1), TimedClaim::new(7, 0, 2)])
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Sense(SenseError::DimensionMismatch { .. })
        ));
        let ack = client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        assert_eq!(ack.total_claims, 1, "bad batch must not have landed");
        svc.shutdown().unwrap();
    }

    #[test]
    fn out_of_range_posterior_query_is_rejected() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        assert!(matches!(
            client.posterior(5),
            Err(ServeError::Sense(SenseError::DimensionMismatch { .. }))
        ));
        svc.shutdown().unwrap();
    }

    #[test]
    fn calls_after_shutdown_report_closed() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        svc.shutdown().unwrap();
        assert!(matches!(client.stats(), Err(ServeError::Closed)));
        assert!(matches!(client.posterior(0), Err(ServeError::Closed)));
    }

    #[test]
    fn top_sources_ranks_by_precision_and_clamps_k() {
        let mut fit_theta = Theta::neutral(3);
        fit_theta.set_source(
            0,
            socsense_core::SourceParams {
                a: 0.9,
                b: 0.1,
                f: 0.5,
                g: 0.5,
            },
        );
        fit_theta.set_source(
            2,
            socsense_core::SourceParams {
                a: 0.8,
                b: 0.1,
                f: 0.5,
                g: 0.5,
            },
        );
        let fit = EmFit {
            theta: fit_theta,
            posterior: vec![],
            log_likelihood: 0.0,
            iterations: 0,
            converged: true,
            ll_history: vec![],
            log_odds: vec![],
        };
        let ranks = rank_sources(&fit, 10);
        assert_eq!(ranks.len(), 3, "k larger than n is clamped");
        assert_eq!(ranks[0].source, 0);
        assert_eq!(ranks[1].source, 2);
        assert!(ranks[0].precision > ranks[1].precision);
        assert_eq!(rank_sources(&fit, 2).len(), 2);
    }

    #[test]
    fn probe_cache_serves_repeat_queries_between_batches() {
        let svc = QueryService::spawn(
            3,
            2,
            FollowerGraph::new(3),
            ServeConfig {
                // Debounced: the threshold never trips, so queries probe.
                refit_pending_claims: 100,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = svc.handle();
        let ack = client
            .ingest(vec![TimedClaim::new(0, 0, 1), TimedClaim::new(1, 1, 2)])
            .unwrap();
        assert!(!ack.refitted);
        client.posterior(0).unwrap();
        client.posterior(1).unwrap();
        client.posteriors().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.chain_refits, 0);
        assert_eq!(stats.probe_refits, 1, "one probe covers all three queries");
        assert_eq!(stats.probe_cache_hits, 2);
        svc.shutdown().unwrap();
    }

    #[test]
    fn delta_mode_counts_scoped_refits_and_surfaces_metrics() {
        use socsense_core::{DeltaConfig, RefitMode};
        let svc = QueryService::spawn(
            4,
            6,
            FollowerGraph::new(4),
            ServeConfig {
                // Thresholds out of reach: after the seeding full refit,
                // every ingest-driven refit must run scoped.
                refit_mode: RefitMode::Delta(DeltaConfig {
                    max_drift: 1e9,
                    max_batch_fraction: 1e9,
                    max_divergence: 1e9,
                    ..DeltaConfig::default()
                }),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = svc.handle();
        for t in 0..6u64 {
            client
                .ingest(vec![TimedClaim::new((t % 4) as u32, (t % 6) as u32, t + 1)])
                .unwrap();
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.chain_refits, 6);
        assert_eq!(
            stats.delta_refits, 5,
            "first refit seeds, the rest are scoped"
        );
        assert_eq!(stats.fallback_refits, 0);
        assert!(stats.last_touched_assertions.unwrap_or(usize::MAX) <= 6);
        assert!(stats.last_touched_sources.unwrap_or(usize::MAX) <= 4);
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.counter("serve.refit.delta_total"), 5);
        assert_eq!(metrics.counter("stream.refit.delta_total"), 5);
        assert!(metrics
            .histogram("stream.delta.touched_assertions")
            .is_some());
        svc.shutdown().unwrap();
    }

    #[test]
    fn spawn_rejects_invalid_delta_config() {
        use socsense_core::{DeltaConfig, RefitMode};
        assert!(matches!(
            QueryService::spawn(
                2,
                2,
                FollowerGraph::new(2),
                ServeConfig {
                    refit_mode: RefitMode::Delta(DeltaConfig {
                        max_drift: -1.0,
                        ..DeltaConfig::default()
                    }),
                    ..ServeConfig::default()
                }
            ),
            Err(ServeError::Sense(SenseError::BadConfig { .. }))
        ));
    }

    #[test]
    fn drop_without_shutdown_joins_the_worker() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        client.ingest(vec![TimedClaim::new(0, 0, 1)]).unwrap();
        drop(svc);
        assert!(matches!(client.stats(), Err(ServeError::Closed)));
    }

    #[test]
    fn over_limit_requests_are_shed_with_overloaded() {
        let svc = QueryService::spawn(
            2,
            2,
            FollowerGraph::new(2),
            ServeConfig {
                max_queue_depth: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = svc.handle();
        // Park the worker so queued requests stay queued.
        let (ack_tx, ack_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let parked = client.raw_send(Request::Park {
            ack: ack_tx,
            release: release_rx,
        });
        ack_rx.recv().unwrap();
        // Fill the queue to the limit; the reply receivers stay alive so
        // the worker's answers have somewhere to go.
        let queued: Vec<_> = (0..2).map(|_| client.raw_send(Request::Stats)).collect();
        assert!(matches!(client.stats(), Err(ServeError::Overloaded)));
        release_tx.send(()).unwrap();
        for rx in queued {
            assert!(matches!(rx.recv().unwrap(), Ok(Response::Stats(_))));
        }
        assert!(matches!(parked.recv().unwrap(), Ok(Response::Stats(_))));
        // Once the queue drained, the same request is admitted again.
        client.stats().unwrap();
        svc.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_admitted_past_a_full_queue() {
        let svc = QueryService::spawn(
            2,
            2,
            FollowerGraph::new(2),
            ServeConfig {
                max_queue_depth: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = svc.handle();
        // Inflate the shared depth gauge past the limit without queueing
        // anything: ordinary requests shed, shutdown still goes through.
        client.depth.store(5, Ordering::Relaxed);
        assert!(matches!(client.stats(), Err(ServeError::Overloaded)));
        svc.shutdown().unwrap();
    }

    #[test]
    fn worker_panic_surfaces_from_shutdown() {
        let svc = service_over(2, 2);
        let client = svc.handle();
        let rx = client.raw_send(Request::InjectPanic);
        // The worker died mid-request: the reply channel just closes.
        assert!(rx.recv().is_err());
        match svc.shutdown() {
            Err(ServeError::WorkerPanicked(what)) => {
                assert!(what.contains("injected worker panic"), "payload: {what}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
