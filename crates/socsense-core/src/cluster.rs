//! Assertion-cluster extraction and per-cluster estimator handoff.
//!
//! Two sources are *coupled* when some claim column carries cells of
//! both; two assertions are coupled when some source has cells on both
//! columns. The connected components of this relation — **assertion
//! clusters** — partition the claim log: every `SC`/`D` cell of a
//! cluster's assertions belongs to one of the cluster's sources, and
//! (because the dependency rule of
//! [`build_matrices`](socsense_graph::build_matrices) looks only at
//! *direct* followees) the follow edges that matter to a cluster run
//! between its own sources. Restricting the log, the graph, and the
//! estimator to one cluster therefore reproduces the cluster's `SC`/`D`
//! sub-matrices exactly.
//!
//! This module provides the three pieces the sharded serving tier
//! builds on:
//!
//! * [`cluster_partition`] — batch extraction of the clusters of a
//!   [`ClaimData`];
//! * [`ClusterTracker`] — an incremental union-find over the claim
//!   stream (cluster key = smallest member assertion id), reporting
//!   which clusters each batch touched and which keys merged away;
//! * [`ClusterWorld`] — the compacted sub-problem of one cluster
//!   (sorted id remaps + induced follow graph) and the
//!   [`StreamingEstimator`] handoff over it.

use std::collections::BTreeMap;

use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_matrix::UnionFind;

use crate::data::ClaimData;
use crate::em::EmConfig;
use crate::error::SenseError;
use crate::streaming::StreamingEstimator;

/// One assertion cluster: its key and sorted member id sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMembers {
    key: u32,
    assertions: Vec<u32>,
    sources: Vec<u32>,
}

impl ClusterMembers {
    /// The cluster's identity: its smallest member assertion id. Stable
    /// under membership growth; a merge keeps the smaller key.
    pub fn key(&self) -> u32 {
        self.key
    }

    /// Sorted global ids of the member assertions.
    pub fn assertions(&self) -> &[u32] {
        &self.assertions
    }

    /// Sorted global ids of the member sources (every source with at
    /// least one `SC` or `D` cell on a member column).
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }
}

/// Inserts `v` into a sorted vector, keeping it sorted and duplicate
/// free.
fn insert_sorted(xs: &mut Vec<u32>, v: u32) {
    if let Err(pos) = xs.binary_search(&v) {
        xs.insert(pos, v);
    }
}

/// Merges two sorted, duplicate-free vectors.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The assertion clusters of `data`, sorted by key.
///
/// A source belongs to the cluster of every column it has a cell on;
/// since its columns are all unioned together, that is exactly one
/// cluster. Sources with no cells belong to no cluster.
pub fn cluster_partition(data: &ClaimData) -> Vec<ClusterMembers> {
    let n = data.source_count();
    let m = data.assertion_count();
    let mut uf = UnionFind::new(m);
    let mut tracked = vec![false; m];
    let mut row_anchor: Vec<Option<u32>> = vec![None; n];
    for i in 0..n as u32 {
        let cols = merge_sorted(data.sc().row(i), data.d().row(i));
        for &j in &cols {
            tracked[j as usize] = true;
            match row_anchor[i as usize] {
                None => row_anchor[i as usize] = Some(j),
                Some(a) => uf.union(a, j),
            }
        }
    }
    let mut by_root: BTreeMap<u32, ClusterMembers> = BTreeMap::new();
    for j in 0..m as u32 {
        if tracked[j as usize] {
            let r = uf.find(j);
            let c = by_root.entry(r).or_insert_with(|| ClusterMembers {
                key: j,
                assertions: Vec::new(),
                sources: Vec::new(),
            });
            c.key = c.key.min(j);
            c.assertions.push(j);
        }
    }
    for (i, anchor) in row_anchor.iter().enumerate() {
        if let Some(a) = anchor {
            let r = uf.find(*a);
            by_root
                .get_mut(&r)
                .expect("anchored column is tracked")
                .sources
                .push(i as u32);
        }
    }
    let mut clusters: Vec<ClusterMembers> = by_root.into_values().collect();
    clusters.sort_by_key(|c| c.key);
    clusters
}

/// What one ingested batch did to the cluster structure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterUpdate {
    /// Post-batch keys (sorted) of every cluster whose cell set or
    /// membership changed — exactly the clusters that received claims
    /// or absorbed another cluster.
    pub touched: Vec<u32>,
    /// Keys (sorted) that no longer exist: clusters absorbed by a merge
    /// (the survivor keeps the smaller key and appears in `touched`).
    pub removed: Vec<u32>,
}

/// Incrementally maintained assertion clusters over a claim stream.
///
/// A [`UnionFind`] over assertions driven by cell events: a claim on
/// `(i, j)` activates cell `(i, j)` plus cell `(f, j)` for every
/// follower `f` of `i`, and each event unions `j` with the first
/// column its source ever touched, so columns sharing a source always
/// share a cluster. Every operation is idempotent — re-activating a
/// cell re-unions already-united columns — so the tracker processes
/// raw events without any per-cell bookkeeping (the per-cell time maps
/// a full [`ClaimLogIndex`](socsense_graph::ClaimLogIndex) maintains
/// only matter for `SC`/`D` *timing*, which membership never reads).
/// That keeps the router's per-claim overhead on the serve ingest hot
/// path to a couple of near-constant union-find probes.
#[derive(Debug, Clone)]
pub struct ClusterTracker {
    graph: FollowerGraph,
    uf: UnionFind,
    /// Per source: the first column it got a cell on (its cluster
    /// representative), `None` while it has no cells.
    anchor: Vec<Option<u32>>,
    /// Per assertion: whether it has any cell yet.
    tracked: Vec<bool>,
    /// Live clusters by key.
    members: BTreeMap<u32, ClusterMembers>,
    /// Union-find root → cluster key.
    root_key: BTreeMap<u32, u32>,
}

impl ClusterTracker {
    /// An empty tracker over `n` sources and `m` assertions.
    ///
    /// # Errors
    ///
    /// [`SenseError::EmptyData`] when `n == 0` or `m == 0`, or when the
    /// graph covers a different source count
    /// ([`SenseError::DimensionMismatch`]).
    pub fn new(n: u32, m: u32, graph: FollowerGraph) -> Result<Self, SenseError> {
        if n == 0 || m == 0 {
            return Err(SenseError::EmptyData);
        }
        if graph.node_count() != n {
            return Err(SenseError::DimensionMismatch {
                what: "follower graph node count vs n",
                expected: n as usize,
                actual: graph.node_count() as usize,
            });
        }
        Ok(Self {
            graph,
            uf: UnionFind::new(m as usize),
            anchor: vec![None; n as usize],
            tracked: vec![false; m as usize],
            members: BTreeMap::new(),
            root_key: BTreeMap::new(),
        })
    }

    /// A tracker holding exactly the given clusters, each as `(sources,
    /// assertions)` member lists — the inverse of
    /// [`clusters`](Self::clusters). Its answers on further batches are
    /// those of the tracker the lists came from: which union-find root
    /// represents a cluster is never observable, only its key (the
    /// smallest member assertion) and its members are.
    ///
    /// # Errors
    ///
    /// Those of [`new`](Self::new); [`SenseError::BadConfig`] when a
    /// member list is empty or not strictly ascending, or when two
    /// clusters share a source or an assertion;
    /// [`SenseError::DimensionMismatch`] for an out-of-range id.
    pub fn from_clusters<'a>(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        clusters: impl IntoIterator<Item = (&'a [u32], &'a [u32])>,
    ) -> Result<Self, SenseError> {
        let mut tracker = Self::new(n, m, graph)?;
        for (sources, assertions) in clusters {
            let ascending = |xs: &[u32]| !xs.is_empty() && xs.windows(2).all(|w| w[0] < w[1]);
            if !ascending(sources) || !ascending(assertions) {
                return Err(SenseError::BadConfig {
                    what: "cluster member lists must be non-empty and strictly ascending",
                });
            }
            for (ids, bound, what) in [
                (sources, n, "cluster source id vs n"),
                (assertions, m, "cluster assertion id vs m"),
            ] {
                if let Some(&last) = ids.last().filter(|&&id| id >= bound) {
                    return Err(SenseError::DimensionMismatch {
                        what,
                        expected: bound as usize,
                        actual: last as usize,
                    });
                }
            }
            let key = assertions[0];
            for &j in assertions {
                if std::mem::replace(&mut tracker.tracked[j as usize], true) {
                    return Err(SenseError::BadConfig {
                        what: "two clusters share an assertion",
                    });
                }
                tracker.uf.union(key, j);
            }
            for &s in sources {
                if tracker.anchor[s as usize].replace(key).is_some() {
                    return Err(SenseError::BadConfig {
                        what: "two clusters share a source",
                    });
                }
            }
            tracker.root_key.insert(tracker.uf.find(key), key);
            tracker.members.insert(
                key,
                ClusterMembers {
                    key,
                    assertions: assertions.to_vec(),
                    sources: sources.to_vec(),
                },
            );
        }
        Ok(tracker)
    }

    /// Number of sources.
    pub fn source_count(&self) -> u32 {
        self.anchor.len() as u32
    }

    /// Number of assertions.
    pub fn assertion_count(&self) -> u32 {
        self.tracked.len() as u32
    }

    /// The follow relation the tracker derives dependencies from.
    pub fn graph(&self) -> &FollowerGraph {
        &self.graph
    }

    /// Live clusters in key order.
    pub fn clusters(&self) -> impl Iterator<Item = &ClusterMembers> {
        self.members.values()
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// The cluster of one assertion, `None` while it has no cells.
    pub fn cluster_key_of(&mut self, assertion: u32) -> Option<u32> {
        if !*self.tracked.get(assertion as usize)? {
            return None;
        }
        let r = self.uf.find(assertion);
        self.root_key.get(&r).copied()
    }

    /// The members of the cluster with the given key.
    pub fn members(&self, key: u32) -> Option<&ClusterMembers> {
        self.members.get(&key)
    }

    /// Whether a source has any cell (and therefore a cluster).
    pub fn is_active_source(&self, source: u32) -> bool {
        self.anchor
            .get(source as usize)
            .is_some_and(|a| a.is_some())
    }

    /// Folds a batch of claims into the cluster structure.
    ///
    /// Validation is atomic: an out-of-range claim rejects the whole
    /// batch before any state changes.
    ///
    /// # Errors
    ///
    /// [`SenseError::DimensionMismatch`] for an out-of-range source or
    /// assertion id.
    pub fn ingest(&mut self, batch: &[TimedClaim]) -> Result<ClusterUpdate, SenseError> {
        let (n, m) = (self.source_count(), self.assertion_count());
        for c in batch {
            if c.source >= n {
                return Err(SenseError::DimensionMismatch {
                    what: "claim source id vs n",
                    expected: n as usize,
                    actual: c.source as usize,
                });
            }
            if c.assertion >= m {
                return Err(SenseError::DimensionMismatch {
                    what: "claim assertion id vs m",
                    expected: m as usize,
                    actual: c.assertion as usize,
                });
            }
        }
        // Raw cell events, repeats included: a repeat only re-unions
        // already-united columns, which the processing loop below makes
        // a couple of find()s — cheaper than deduplicating up front.
        let mut events: Vec<(u32, u32)> = Vec::with_capacity(batch.len());
        for c in batch {
            events.push((c.source, c.assertion));
            for &f in self.graph.followers(c.source) {
                events.push((f, c.assertion));
            }
        }
        let mut touched_assertions: Vec<u32> = Vec::with_capacity(events.len());
        let mut removed: Vec<u32> = Vec::new();
        for &(src, j) in &events {
            touched_assertions.push(j);
            if !self.tracked[j as usize] {
                self.tracked[j as usize] = true;
                // A fresh column is its own union-find root.
                self.members.insert(
                    j,
                    ClusterMembers {
                        key: j,
                        assertions: vec![j],
                        sources: Vec::new(),
                    },
                );
                self.root_key.insert(j, j);
            }
            match self.anchor[src as usize] {
                None => {
                    self.anchor[src as usize] = Some(j);
                    let key = self.root_key[&self.uf.find(j)];
                    insert_sorted(
                        // detlint: allow(P1) -- map invariant: every key in root_key has a members entry; a miss is a union-find bug worth a loud panic
                        &mut self.members.get_mut(&key).expect("live key").sources,
                        src,
                    );
                }
                Some(a) => {
                    if let Some(gone) = self.union_clusters(a, j) {
                        removed.push(gone);
                    }
                }
            }
        }
        touched_assertions.sort_unstable();
        touched_assertions.dedup();
        let mut touched: Vec<u32> = touched_assertions
            .into_iter()
            .map(|j| self.root_key[&self.uf.find(j)])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        removed.sort_unstable();
        removed.dedup();
        Ok(ClusterUpdate { touched, removed })
    }

    /// Unions the clusters of two tracked assertions; returns the key
    /// that disappeared, if the union actually merged two clusters.
    fn union_clusters(&mut self, a: u32, b: u32) -> Option<u32> {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return None;
        }
        let ka = self.root_key.remove(&ra).expect("tracked root has a key"); // detlint: allow(P1) -- map invariant: both roots were just found for tracked assertions
        let kb = self.root_key.remove(&rb).expect("tracked root has a key"); // detlint: allow(P1) -- map invariant: both roots were just found for tracked assertions
        self.uf.union(ra, rb);
        let r = self.uf.find(ra);
        let (keep, gone) = if ka < kb { (ka, kb) } else { (kb, ka) };
        let lost = self.members.remove(&gone).expect("live key"); // detlint: allow(P1) -- map invariant: every key in root_key has a members entry
        let w = self.members.get_mut(&keep).expect("live key"); // detlint: allow(P1) -- map invariant: every key in root_key has a members entry
        w.assertions = merge_sorted(&w.assertions, &lost.assertions);
        w.sources = merge_sorted(&w.sources, &lost.sources);
        self.root_key.insert(r, keep);
        Some(gone)
    }
}

/// The compacted sub-problem of one cluster: sorted global→local id
/// remaps plus the induced follow graph over the member sources.
///
/// Localization is exact: because a dependency can only come from a
/// *direct* followee that claimed the column first, and any such
/// followee is itself a member source, the induced graph reproduces
/// every ancestor time the full graph would — the cluster's local
/// `SC`/`D` matrices equal the global ones restricted to its rows and
/// columns.
#[derive(Debug, Clone)]
pub struct ClusterWorld {
    sources: Vec<u32>,
    assertions: Vec<u32>,
    graph: FollowerGraph,
}

impl ClusterWorld {
    /// Builds the sub-problem of a cluster with the given sorted member
    /// sets, inducing the follow subgraph from `graph`.
    ///
    /// # Errors
    ///
    /// [`SenseError::EmptyData`] when either member set is empty;
    /// [`SenseError::DimensionMismatch`] when a member id is outside
    /// `graph` / the implied id space.
    pub fn new(
        sources: &[u32],
        assertions: &[u32],
        graph: &FollowerGraph,
    ) -> Result<Self, SenseError> {
        if sources.is_empty() || assertions.is_empty() {
            return Err(SenseError::EmptyData);
        }
        for &s in sources {
            if s >= graph.node_count() {
                return Err(SenseError::DimensionMismatch {
                    what: "cluster source id vs graph",
                    expected: graph.node_count() as usize,
                    actual: s as usize,
                });
            }
        }
        let mut induced = FollowerGraph::new(sources.len() as u32);
        for (li, &gi) in sources.iter().enumerate() {
            for &ga in graph.ancestors(gi) {
                if let Ok(ls) = sources.binary_search(&ga) {
                    induced.add_follow(li as u32, ls as u32);
                }
            }
        }
        Ok(Self {
            sources: sources.to_vec(),
            assertions: assertions.to_vec(),
            graph: induced,
        })
    }

    /// Local source count.
    pub fn source_count(&self) -> u32 {
        self.sources.len() as u32
    }

    /// Local assertion count.
    pub fn assertion_count(&self) -> u32 {
        self.assertions.len() as u32
    }

    /// Sorted global ids of the member sources; index = local id.
    pub fn global_sources(&self) -> &[u32] {
        &self.sources
    }

    /// Sorted global ids of the member assertions; index = local id.
    pub fn global_assertions(&self) -> &[u32] {
        &self.assertions
    }

    /// The induced follow graph over local source ids.
    pub fn graph(&self) -> &FollowerGraph {
        &self.graph
    }

    /// Local id of a global source, if it is a member.
    pub fn local_source(&self, global: u32) -> Option<u32> {
        self.sources.binary_search(&global).ok().map(|i| i as u32)
    }

    /// Local id of a global assertion, if it is a member.
    pub fn local_assertion(&self, global: u32) -> Option<u32> {
        self.assertions
            .binary_search(&global)
            .ok()
            .map(|i| i as u32)
    }

    /// Global id of a local assertion.
    pub fn global_assertion(&self, local: u32) -> u32 {
        self.assertions[local as usize]
    }

    /// Remaps a batch of global-id claims into local ids.
    ///
    /// # Errors
    ///
    /// [`SenseError::DimensionMismatch`] when a claim's source or
    /// assertion is not a member — the caller routed it to the wrong
    /// cluster.
    pub fn localize_batch(&self, claims: &[TimedClaim]) -> Result<Vec<TimedClaim>, SenseError> {
        claims
            .iter()
            .map(|c| {
                let s = self
                    .local_source(c.source)
                    .ok_or(SenseError::DimensionMismatch {
                        what: "claim source vs cluster members",
                        expected: self.sources.len(),
                        actual: c.source as usize,
                    })?;
                let j = self
                    .local_assertion(c.assertion)
                    .ok_or(SenseError::DimensionMismatch {
                        what: "claim assertion vs cluster members",
                        expected: self.assertions.len(),
                        actual: c.assertion as usize,
                    })?;
                Ok(TimedClaim::new(s, j, c.time))
            })
            .collect()
    }

    /// Hands off a fresh [`StreamingEstimator`] over the compacted
    /// sub-problem (local ids, induced graph).
    ///
    /// # Errors
    ///
    /// Propagates estimator construction errors.
    pub fn estimator(&self, config: EmConfig) -> Result<StreamingEstimator, SenseError> {
        StreamingEstimator::new(
            self.source_count(),
            self.assertion_count(),
            self.graph.clone(),
            config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claims(raw: &[(u32, u32, u64)]) -> Vec<TimedClaim> {
        raw.iter()
            .map(|&(s, j, t)| TimedClaim::new(s, j, t))
            .collect()
    }

    #[test]
    fn partition_splits_independent_camps() {
        // Sources {0,1} on assertions {0,1}; sources {2,3} on {2,3}.
        let g = FollowerGraph::new(4);
        let cs = claims(&[
            (0, 0, 1),
            (0, 1, 2),
            (1, 1, 3),
            (2, 2, 4),
            (3, 2, 5),
            (3, 3, 6),
        ]);
        let data = ClaimData::from_claims(4, 4, &cs, &g);
        let parts = cluster_partition(&data);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].key(), 0);
        assert_eq!(parts[0].assertions(), &[0, 1]);
        assert_eq!(parts[0].sources(), &[0, 1]);
        assert_eq!(parts[1].key(), 2);
        assert_eq!(parts[1].assertions(), &[2, 3]);
        assert_eq!(parts[1].sources(), &[2, 3]);
    }

    #[test]
    fn silent_followers_join_and_link_clusters() {
        // Source 2 never claims but follows both claimants, so its D
        // cells link assertions 0 and 1 into one cluster.
        let mut g = FollowerGraph::new(3);
        g.add_follow(2, 0);
        g.add_follow(2, 1);
        let cs = claims(&[(0, 0, 1), (1, 1, 2)]);
        let data = ClaimData::from_claims(3, 2, &cs, &g);
        let parts = cluster_partition(&data);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].sources(), &[0, 1, 2]);
        assert_eq!(parts[0].assertions(), &[0, 1]);
    }

    #[test]
    fn tracker_matches_batch_partition_at_every_prefix() {
        let mut g = FollowerGraph::new(5);
        g.add_follow(1, 0);
        g.add_follow(4, 3);
        let stream = claims(&[
            (0, 0, 1),
            (2, 3, 2),
            (1, 0, 3), // dependent repeat
            (3, 3, 4),
            (0, 1, 5), // links assertion 1 into cluster 0
            (2, 0, 6), // merges the two clusters
        ]);
        let mut tracker = ClusterTracker::new(5, 4, g.clone()).unwrap();
        for end in 1..=stream.len() {
            tracker.ingest(&stream[end - 1..end]).unwrap();
            let data = ClaimData::from_claims(5, 4, &stream[..end], &g);
            let batch: Vec<ClusterMembers> = cluster_partition(&data);
            let live: Vec<ClusterMembers> = tracker.clusters().cloned().collect();
            assert_eq!(live, batch, "prefix of {end} claims");
        }
    }

    #[test]
    fn tracker_reports_touched_and_removed_keys() {
        let g = FollowerGraph::new(4);
        let mut tracker = ClusterTracker::new(4, 6, g).unwrap();
        let up = tracker.ingest(&claims(&[(0, 0, 1), (1, 4, 2)])).unwrap();
        assert_eq!(up.touched, vec![0, 4]);
        assert!(up.removed.is_empty());
        // Source 0 claims column 4: clusters 0 and 4 merge, key 4 dies.
        let up = tracker.ingest(&claims(&[(0, 4, 3)])).unwrap();
        assert_eq!(up.touched, vec![0]);
        assert_eq!(up.removed, vec![4]);
        assert_eq!(tracker.cluster_key_of(4), Some(0));
        assert_eq!(tracker.members(0).unwrap().sources(), &[0, 1]);
        assert_eq!(tracker.cluster_count(), 1);
    }

    #[test]
    fn tracker_rejects_out_of_range_batches_atomically() {
        let g = FollowerGraph::new(2);
        let mut tracker = ClusterTracker::new(2, 2, g).unwrap();
        let err = tracker
            .ingest(&claims(&[(0, 0, 1), (0, 9, 2)]))
            .unwrap_err();
        assert!(matches!(err, SenseError::DimensionMismatch { .. }));
        assert_eq!(tracker.cluster_count(), 0, "bad batch must not land");
    }

    #[test]
    fn tracker_from_clusters_rejects_malformed_member_lists() {
        let build = |lists: &[(&[u32], &[u32])]| {
            ClusterTracker::from_clusters(4, 6, FollowerGraph::new(4), lists.iter().copied())
        };
        let ok = build(&[(&[0, 1], &[0, 3]), (&[2], &[4])]).unwrap();
        assert_eq!(ok.cluster_count(), 2);
        assert_eq!(ok.members(4).unwrap().sources(), &[2]);
        for bad in [
            &[(&[0u32][..], &[][..])][..],
            &[(&[1, 0], &[0])],
            &[(&[0], &[2, 2])],
            &[(&[0], &[0]), (&[0], &[1])],
            &[(&[0], &[0]), (&[1], &[0])],
        ] {
            assert!(
                matches!(build(bad), Err(SenseError::BadConfig { .. })),
                "{bad:?}"
            );
        }
        assert!(matches!(
            build(&[(&[4], &[0])]),
            Err(SenseError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            build(&[(&[0], &[6])]),
            Err(SenseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn world_localizes_and_reproduces_submatrices() {
        // Global world: follower edge 1 -> 0 inside the cluster, plus an
        // out-of-cluster source 2 that must not affect the sub-problem.
        let mut g = FollowerGraph::new(3);
        g.add_follow(1, 0);
        let cs = claims(&[(0, 1, 1), (1, 1, 2), (2, 0, 3)]);
        let world = ClusterWorld::new(&[0, 1], &[1], &g).unwrap();
        assert_eq!(world.source_count(), 2);
        assert_eq!(world.assertion_count(), 1);
        assert!(world.graph().follows(1, 0));
        let local = world.localize_batch(&cs[..2]).unwrap();
        assert_eq!(local, claims(&[(0, 0, 1), (1, 0, 2)]));
        let global = ClaimData::from_claims(3, 2, &cs, &g);
        let sub = ClaimData::from_claims(2, 1, &local, world.graph());
        // Column 1 globally == column 0 locally, rows remapped 0->0, 1->1.
        assert_eq!(global.sc().col(1), sub.sc().col(0));
        assert_eq!(global.d().col(1), sub.d().col(0));
        assert!(world.localize_batch(&cs[2..]).is_err());
    }

    #[test]
    fn world_estimator_matches_global_on_identity_remap() {
        let g = FollowerGraph::new(2);
        let cs = claims(&[(0, 0, 1), (1, 0, 2), (0, 1, 3)]);
        let world = ClusterWorld::new(&[0, 1], &[0, 1], &g).unwrap();
        let mut global = StreamingEstimator::new(2, 2, g, EmConfig::default()).unwrap();
        let mut local = world.estimator(EmConfig::default()).unwrap();
        global.ingest(&cs).unwrap();
        local.ingest(&world.localize_batch(&cs).unwrap()).unwrap();
        let fg = global.estimate().unwrap();
        let fl = local.estimate().unwrap();
        assert_eq!(
            fg.posterior.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            fl.posterior.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        );
    }
}
