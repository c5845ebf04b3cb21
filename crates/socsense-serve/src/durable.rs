//! Durable serve state: the WAL record and snapshot payload types and
//! the append/checkpoint engine shared by both tiers (see DESIGN.md
//! §12).
//!
//! Every float inside a payload travels as `f64::to_bits` (via
//! [`StreamingState`] / [`EmFitBits`]), so a restored worker is
//! bit-identical to the one that wrote the checkpoint — recovery is
//! *restore the newest snapshot, then replay the WAL tail through the
//! normal ingest path*, and both steps are pure functions of the logged
//! ingest sequence. Every snapshot truncates the WAL, so the log only
//! ever holds the batches after the newest checkpoint.

use serde::{Deserialize, Serialize};

use socsense_core::{EmFitBits, StreamingState};
use socsense_graph::TimedClaim;
use socsense_obs::Obs;
use socsense_persist::{recover, SnapshotStore, WalWriter};

use crate::api::{PersistConfig, ServeError, ServeStats};
use crate::shard::{LastRefit, SlotCounters};

/// One WAL record: an accepted ingest batch stamped with its position
/// in the ingest sequence (the unsharded worker's batch number, or the
/// sharded router's epoch). Sequence numbers are dense: record `k + 1`
/// always follows record `k`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct WalRecord {
    /// 1-based position in the ingest sequence.
    pub seq: u64,
    /// The batch, verbatim (global ids).
    pub claims: Vec<TimedClaim>,
}

/// The unsharded worker's checkpoint: the estimator's full streaming
/// state, the cached chain fit, and the operating counters — everything
/// the worker needs to answer queries bit-identically after a restart.
#[derive(Serialize, Deserialize)]
pub(crate) struct WorkerSnapshot {
    /// The ingest sequence position this checkpoint covers.
    pub seq: u64,
    pub stream: StreamingState,
    pub chain_fit: Option<EmFitBits>,
    /// Counters at checkpoint time. Chain-refit counters are advanced
    /// exactly by tail replay; query-driven counters (probe refits,
    /// cache hits, requests served) resume from their checkpoint values
    /// and are not replayed.
    pub stats: ServeStats,
}

/// One cluster's slice of a router checkpoint: global membership, the
/// compacted estimator's streaming state (local ids), the cached chain
/// fit, and the cluster's counters. Shipping this to whichever shard
/// the rendezvous hash picks *after* restart is what makes a cluster
/// move equal to snapshot ship + tail replay.
///
/// The slice is self-contained: the membership lists rebuild the
/// router's cluster tracker, and `stamps` plus `stream.claims` rebuild
/// the cluster's claim history, so recovery never reads the WAL before
/// the checkpoint.
#[derive(Serialize, Deserialize)]
pub(crate) struct ClusterSnapshot {
    pub key: u32,
    pub sources: Vec<u32>,
    pub assertions: Vec<u32>,
    pub pending: usize,
    /// The `(epoch, position)` stamp of each claim in `stream.claims`,
    /// index for index: the history order a rebuild replays by.
    pub stamps: Vec<(u64, u32)>,
    pub stream: StreamingState,
    pub chain_fit: Option<EmFitBits>,
    pub counters: SlotCounters,
    pub last_refit: Option<LastRefit>,
}

/// The sharded router's checkpoint: router counters plus every live
/// cluster's state, in ascending key order.
#[derive(Serialize, Deserialize)]
pub(crate) struct RouterSnapshot {
    pub epoch: u64,
    pub total_claims: usize,
    pub requests_served: u64,
    pub clusters: Vec<ClusterSnapshot>,
}

/// What [`DurableLog::open`] found on disk.
pub(crate) struct Recovered<S> {
    /// The newest valid snapshot, if any: `(sequence, payload)`.
    pub snapshot: Option<(u64, S)>,
    /// The WAL records after the snapshot, dense from its sequence
    /// number on — the tail to replay.
    pub tail: Vec<WalRecord>,
}

/// The records after `since`, checked to continue it densely (`since +
/// 1`, `since + 2`, …). Records at or before `since` are ones a
/// checkpoint already absorbed (a crash between writing it and
/// truncating the WAL leaves them behind) and are skipped.
///
/// # Errors
///
/// [`ServeError::Persist`] naming the first missing batch.
fn dense_tail(records: Vec<WalRecord>, since: u64) -> Result<Vec<WalRecord>, ServeError> {
    let tail: Vec<WalRecord> = records.into_iter().filter(|r| r.seq > since).collect();
    for (expected, record) in (since + 1..).zip(&tail) {
        if record.seq != expected {
            return Err(ServeError::Persist(format!(
                "WAL gap: expected batch {expected}, found {}",
                record.seq
            )));
        }
    }
    Ok(tail)
}

/// The durability engine shared by the unsharded worker and the sharded
/// router: one WAL of ingest batches plus a snapshot directory.
pub(crate) struct DurableLog {
    wal: WalWriter,
    snaps: SnapshotStore,
    snapshot_every: usize,
}

impl DurableLog {
    /// Opens (creating as needed) the durable state under
    /// `cfg.data_dir` and recovers whatever a previous service left
    /// there: the newest valid snapshot and the WAL tail after it. A
    /// torn final WAL line — the signature of a crash mid-append — is
    /// truncated away and counted on `serve.wal.truncated_tail_total`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] on filesystem failures, interior WAL
    /// corruption, or a gap in the tail's sequence numbers.
    pub fn open<S: Deserialize>(
        cfg: &PersistConfig,
        obs: &Obs,
    ) -> Result<(Self, Recovered<S>), ServeError> {
        let wal_path = cfg.data_dir.join("wal.jsonl");
        let rx = recover::<WalRecord>(&wal_path)?;
        if rx.truncated_tail {
            obs.counter("serve.wal.truncated_tail_total", 1);
        }
        let snaps = SnapshotStore::open(&cfg.data_dir.join("snapshots"))?;
        let snapshot = snaps.latest::<S>()?;
        if snapshot.is_some() {
            obs.counter("serve.snapshot.restores_total", 1);
        }
        let since = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let tail = dense_tail(rx.records, since)?;
        obs.counter("serve.wal.recovered_batches_total", tail.len() as u64);
        let wal = WalWriter::open(&wal_path, cfg.fsync_every)?;
        Ok((
            Self {
                wal,
                snaps,
                snapshot_every: cfg.snapshot_every,
            },
            Recovered { snapshot, tail },
        ))
    }

    /// Appends one accepted batch to the WAL (write-ahead of the ack:
    /// with `fsync_every = 1`, a batch the client saw acknowledged is on
    /// disk).
    pub fn append(&mut self, seq: u64, claims: &[TimedClaim], obs: &Obs) -> Result<(), ServeError> {
        let bytes_before = self.wal.bytes_total();
        let fsyncs_before = self.wal.fsyncs_total();
        self.wal.append(&WalRecord {
            seq,
            claims: claims.to_vec(),
        })?;
        obs.counter("serve.wal.appends_total", 1);
        obs.counter(
            "serve.wal.bytes_total",
            self.wal.bytes_total() - bytes_before,
        );
        obs.counter(
            "serve.wal.fsyncs_total",
            self.wal.fsyncs_total() - fsyncs_before,
        );
        Ok(())
    }

    /// Whether the configured checkpoint cadence is due at `seq`.
    pub fn should_snapshot(&self, seq: u64) -> bool {
        self.snapshot_every > 0 && seq.is_multiple_of(self.snapshot_every as u64)
    }

    /// Writes checkpoint `seq` atomically, keeps the two newest
    /// snapshots, and empties the WAL, whose records the checkpoint has
    /// fully absorbed. A crash between the two steps leaves records the
    /// checkpoint covers; recovery skips them.
    pub fn write_snapshot<S: Serialize>(
        &mut self,
        seq: u64,
        payload: &S,
        obs: &Obs,
    ) -> Result<(), ServeError> {
        let bytes_before = self.snaps.bytes_total();
        self.snaps.write(seq, payload)?;
        self.snaps.prune(2)?;
        obs.counter("serve.snapshot.writes_total", 1);
        obs.counter(
            "serve.snapshot.bytes_total",
            self.snaps.bytes_total() - bytes_before,
        );
        self.wal.truncate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(seqs: &[u64]) -> Vec<WalRecord> {
        seqs.iter()
            .map(|&seq| WalRecord {
                seq,
                claims: Vec::new(),
            })
            .collect()
    }

    fn seqs(tail: &[WalRecord]) -> Vec<u64> {
        tail.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn dense_tail_skips_absorbed_records_and_refuses_gaps() {
        assert_eq!(
            seqs(&dense_tail(records(&[1, 2, 3]), 0).unwrap()),
            [1, 2, 3]
        );
        // Records a checkpoint absorbed before the WAL was truncated.
        assert_eq!(
            seqs(&dense_tail(records(&[7, 8, 9, 10]), 8).unwrap()),
            [9, 10]
        );
        assert!(dense_tail(records(&[7, 8]), 8).unwrap().is_empty());
        for (log, since, missing) in [(&[2, 3][..], 0, 1), (&[1, 3], 0, 2), (&[9, 11], 8, 10)] {
            let err = dense_tail(records(log), since).unwrap_err().to_string();
            assert!(
                err.contains(&format!("expected batch {missing},")),
                "{log:?} after {since}: {err}"
            );
        }
    }
}
