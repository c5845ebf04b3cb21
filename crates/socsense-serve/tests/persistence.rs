//! Crash-recovery torture tests: a killed-and-restarted service must
//! answer every query type `f64::to_bits`-identically to a control
//! service that never died — including after a torn WAL tail, in delta
//! refit mode, and across a shard-count change (cluster handoff).
//!
//! Probe/request counters are deliberately *not* compared: a recovered
//! service resumes them from the checkpoint, not from the control's
//! full query history. Served numbers are the contract.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use socsense_core::{DeltaConfig, RefitMode};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_serve::{
    PersistConfig, QueryService, ServeConfig, ServeHandle, ShardedService, SourceRank,
};

const N: u32 = 6;
const M: u32 = 8;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("socsense-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A follow relation with a few dependency chains, so `D` cells and
/// silent-follower cluster links are exercised.
fn follow_graph() -> FollowerGraph {
    let mut g = FollowerGraph::new(N);
    g.add_follow(1, 0);
    g.add_follow(2, 0);
    g.add_follow(3, 1);
    g.add_follow(5, 4);
    g
}

/// Source 0 claims every assertion and every source claims something:
/// one cluster covering the whole world from batch one on.
fn bootstrap_batch() -> Vec<TimedClaim> {
    let mut t = 0u64;
    let mut batch = Vec::new();
    for j in 0..M {
        t += 1;
        batch.push(TimedClaim::new(0, j, t));
    }
    for s in 1..N {
        t += 1;
        batch.push(TimedClaim::new(s, s % M, t));
    }
    batch
}

fn random_batches(
    batches: usize,
    per_batch: usize,
    seed: u64,
    start_t: u64,
) -> Vec<Vec<TimedClaim>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = start_t;
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    t += 1;
                    TimedClaim::new(rng.gen_range(0..N), rng.gen_range(0..M), t)
                })
                .collect()
        })
        .collect()
}

fn bits(posterior: &[f64]) -> Vec<u64> {
    posterior.iter().map(|p| p.to_bits()).collect()
}

fn rank_bits(ranks: &[SourceRank]) -> Vec<(u32, u64, [u64; 4])> {
    ranks
        .iter()
        .map(|r| {
            (
                r.source,
                r.precision.to_bits(),
                [
                    r.params.a.to_bits(),
                    r.params.b.to_bits(),
                    r.params.f.to_bits(),
                    r.params.g.to_bits(),
                ],
            )
        })
        .collect()
}

/// Every query type's answer, as bits.
type Fingerprint = (Vec<u64>, Vec<(u32, u64, [u64; 4])>, [u64; 3], u64);

fn fingerprint(client: &ServeHandle) -> Fingerprint {
    let posteriors = bits(&client.posteriors().unwrap());
    let top = rank_bits(&client.top_sources(N as usize).unwrap());
    let b = client.bound(vec![], None).unwrap();
    let bound = [
        b.error.to_bits(),
        b.false_positive.to_bits(),
        b.false_negative.to_bits(),
    ];
    let one = client.posterior(3).unwrap().to_bits();
    (posteriors, top, bound, one)
}

fn persisted(cfg: &ServeConfig, dir: &Path, snapshot_every: usize) -> ServeConfig {
    ServeConfig {
        persist: Some(PersistConfig {
            data_dir: dir.to_path_buf(),
            fsync_every: 1,
            snapshot_every,
        }),
        ..cfg.clone()
    }
}

/// The core torture loop, shared by the full- and delta-mode variants:
/// run service A over `dir`, kill it, restart as B, and check B against
/// a never-persisted control — both right after recovery and after both
/// ingest further batches (the recovered warm-start chain must keep
/// advancing identically).
fn restart_round_trip(base: ServeConfig, tag: &str) {
    let dir = tmp_dir(tag);
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(5, 12, 42, 1000));
    let more = random_batches(2, 12, 43, 5000);

    // Snapshot cadence 4 over 6 batches: recovery exercises both the
    // checkpoint (seq 4) and a non-empty WAL tail (batches 5, 6).
    let a = QueryService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4)).unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    a.shutdown().unwrap();

    let control = QueryService::spawn(N, M, follow_graph(), base.clone()).unwrap();
    let control_client = control.handle();
    for batch in &batches {
        control_client.ingest(batch.clone()).unwrap();
    }

    let b = QueryService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4)).unwrap();
    let b_client = b.handle();
    assert_eq!(
        fingerprint(&b_client),
        fingerprint(&control_client),
        "recovered service must answer like one that never died"
    );

    for batch in &more {
        let want = control_client.ingest(batch.clone()).unwrap();
        let got = b_client.ingest(batch.clone()).unwrap();
        assert_eq!(want, got, "post-recovery ingest acks must match");
        assert_eq!(fingerprint(&b_client), fingerprint(&control_client));
    }

    // One more death: B's own appends and checkpoints must recover too.
    b.shutdown().unwrap();
    let c = QueryService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4)).unwrap();
    assert_eq!(fingerprint(&c.handle()), fingerprint(&control_client));
    c.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serial_restart_is_bit_identical() {
    restart_round_trip(ServeConfig::default(), "serial");
}

#[test]
fn delta_mode_restart_is_bit_identical() {
    restart_round_trip(
        ServeConfig {
            refit_mode: RefitMode::Delta(DeltaConfig::default()),
            ..ServeConfig::default()
        },
        "delta",
    );
}

/// A crash mid-append leaves a torn final WAL line. Recovery must drop
/// exactly the torn record (the client never got its ack) and serve the
/// surviving prefix; re-ingesting the lost batch reconverges with the
/// control.
#[test]
fn torn_wal_tail_recovers_the_acked_prefix() {
    use std::io::Write;

    let dir = tmp_dir("torn");
    let mut batches = vec![bootstrap_batch()];
    batches.extend(random_batches(2, 10, 7, 1000));

    // Snapshot cadence 0: the WAL alone is the recovery source, so the
    // torn record is guaranteed to sit in the replayed region.
    let a = QueryService::spawn(
        N,
        M,
        follow_graph(),
        persisted(&ServeConfig::default(), &dir, 0),
    )
    .unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    a.shutdown().unwrap();

    // Tear the final record mid-line, as a crash between `write` and
    // the blocks reaching disk would.
    let wal = dir.join("wal.jsonl");
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);
    // And a few garbage bytes after it, as a partially flushed block.
    let mut file = OpenOptions::new().append(true).open(&wal).unwrap();
    file.write_all(b"\x00\xffgarbage").unwrap();
    drop(file);

    let control = QueryService::spawn(N, M, follow_graph(), ServeConfig::default()).unwrap();
    let control_client = control.handle();
    for batch in &batches[..batches.len() - 1] {
        control_client.ingest(batch.clone()).unwrap();
    }

    let b = QueryService::spawn(
        N,
        M,
        follow_graph(),
        persisted(&ServeConfig::default(), &dir, 0),
    )
    .unwrap();
    let b_client = b.handle();
    assert_eq!(
        fingerprint(&b_client),
        fingerprint(&control_client),
        "torn tail must roll back to the last intact record"
    );

    // The lost batch is re-ingested (the client retries an un-acked
    // send) and both worlds reconverge.
    let last = batches.last().unwrap().clone();
    control_client.ingest(last.clone()).unwrap();
    b_client.ingest(last).unwrap();
    assert_eq!(fingerprint(&b_client), fingerprint(&control_client));

    b.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharded tier: kill a 2-shard service, restart it as a 3-shard
/// service over the same data directory (every cluster re-placed by the
/// new rendezvous hash = cluster handoff via snapshot ship + tail
/// replay), and compare against an unsharded-layout 1-shard control.
#[test]
fn sharded_restart_with_different_shard_count_is_bit_identical() {
    let base = ServeConfig::default();
    let dir = tmp_dir("sharded");
    // No bootstrap batch: the world stays multi-cluster, so recovery
    // moves several independent clusters, not one.
    let batches = random_batches(6, 10, 11, 0);
    let more = random_batches(2, 10, 13, 5000);

    let a = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 2).unwrap();
    let client = a.handle();
    for batch in &batches {
        client.ingest(batch.clone()).unwrap();
    }
    a.shutdown().unwrap();

    let control = ShardedService::spawn(N, M, follow_graph(), base.clone(), 1).unwrap();
    let control_client = control.handle();
    for batch in &batches {
        control_client.ingest(batch.clone()).unwrap();
    }

    let b = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 3).unwrap();
    let b_client = b.handle();
    assert_eq!(
        fingerprint(&b_client),
        fingerprint(&control_client),
        "recovery across a shard-count change must not move a bit"
    );

    for batch in &more {
        let want = control_client.ingest(batch.clone()).unwrap();
        let got = b_client.ingest(batch.clone()).unwrap();
        assert_eq!(want, got, "post-recovery ingest acks must match");
        assert_eq!(fingerprint(&b_client), fingerprint(&control_client));
    }
    let topo = b_client.topology().unwrap();
    assert_eq!(topo.shards, 3, "the restart re-partitioned the clusters");

    b.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One claim per batch, chosen so the clusters grow and merge: batches
/// 1–3 form clusters 0 (sources 0, 1, 2), 5 (sources 4, 5) and 3
/// (source 3); batch 4 grows cluster 0, batch 5 grows cluster 5, and
/// batch 6 merges cluster 3 into cluster 0.
fn growth_batches() -> Vec<Vec<TimedClaim>> {
    [(0, 0), (4, 5), (3, 3), (0, 1), (4, 6), (3, 0)]
        .iter()
        .enumerate()
        .map(|(t, &(s, j))| vec![TimedClaim::new(s, j, t as u64 + 1)])
        .collect()
}

/// The `seq` of every record in the WAL under `dir`.
fn wal_seqs(dir: &Path) -> Vec<u64> {
    let text = std::fs::read_to_string(dir.join("wal.jsonl")).unwrap();
    text.lines()
        .map(|line| {
            let json = line.split_once(' ').unwrap().1;
            let seq = json.split("\"seq\":").nth(1).unwrap();
            seq.trim_end_matches('}').parse().unwrap()
        })
        .collect()
}

/// The router's checkpoint carries everything a rebuild replays: after
/// a restart, batches that grow and merge restored clusters rebuild
/// them from the restored histories, bit-identically to a service that
/// never stopped — with a WAL that holds only the post-checkpoint tail
/// and no history files beside it.
#[test]
fn sharded_rebuild_after_restart_replays_the_restored_history() {
    let base = ServeConfig::default();
    let dir = tmp_dir("rebuild");
    let batches = growth_batches();
    let (before, after) = batches.split_at(5);

    let a = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 2).unwrap();
    let client = a.handle();
    for batch in before {
        client.ingest(batch.clone()).unwrap();
    }
    a.shutdown().unwrap();
    assert_eq!(wal_seqs(&dir), [5], "the checkpoint at 4 truncated the WAL");
    assert!(!dir.join("clusters").exists(), "no history spill on disk");

    let control = ShardedService::spawn(N, M, follow_graph(), base.clone(), 1).unwrap();
    let control_client = control.handle();
    for batch in before {
        control_client.ingest(batch.clone()).unwrap();
    }
    let b = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 2).unwrap();
    let b_client = b.handle();
    let recovered = b_client.metrics().unwrap();
    assert_eq!(recovered.counter("serve.snapshot.restores_total"), 1);
    assert_eq!(recovered.counter("serve.wal.recovered_batches_total"), 1);
    assert_eq!(fingerprint(&b_client), fingerprint(&control_client));

    let rebuilds_before = b_client
        .metrics()
        .unwrap()
        .counter("serve.router.rebuilds_total");
    for batch in after {
        let want = control_client.ingest(batch.clone()).unwrap();
        assert_eq!(b_client.ingest(batch.clone()).unwrap(), want);
    }
    let rebuilds = b_client
        .metrics()
        .unwrap()
        .counter("serve.router.rebuilds_total");
    assert!(
        rebuilds > rebuilds_before,
        "the merge batch rebuilds a restored cluster ({rebuilds_before} -> {rebuilds})"
    );
    assert_eq!(fingerprint(&b_client), fingerprint(&control_client));
    assert_eq!(b_client.topology().unwrap().clusters.len(), 2);

    b.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash after a checkpoint is written but before the WAL is
/// truncated leaves records the checkpoint already covers. Recovery
/// skips them and replays only the tail.
#[test]
fn sharded_restart_skips_wal_records_a_checkpoint_absorbed() {
    let base = ServeConfig::default();
    let dir = tmp_dir("untruncated");
    let full_wal = tmp_dir("untruncated-wal");
    let batches = random_batches(6, 10, 17, 0);
    let more = random_batches(2, 10, 19, 5000);

    // The same batches with and without checkpoints: the first leaves
    // snapshot 4 and the tail [5, 6], the second a WAL of all six.
    for (data_dir, snapshot_every) in [(&dir, 4), (&full_wal, 0)] {
        let svc = ShardedService::spawn(
            N,
            M,
            follow_graph(),
            persisted(&base, data_dir, snapshot_every),
            2,
        )
        .unwrap();
        let client = svc.handle();
        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        svc.shutdown().unwrap();
    }
    assert_eq!(wal_seqs(&dir), [5, 6]);
    std::fs::copy(full_wal.join("wal.jsonl"), dir.join("wal.jsonl")).unwrap();
    assert_eq!(wal_seqs(&dir), [1, 2, 3, 4, 5, 6]);

    let control = ShardedService::spawn(N, M, follow_graph(), base.clone(), 1).unwrap();
    let control_client = control.handle();
    for batch in &batches {
        control_client.ingest(batch.clone()).unwrap();
    }
    let b = ShardedService::spawn(N, M, follow_graph(), persisted(&base, &dir, 4), 3).unwrap();
    let b_client = b.handle();
    let recovered = b_client.metrics().unwrap();
    assert_eq!(recovered.counter("serve.snapshot.restores_total"), 1);
    assert_eq!(recovered.counter("serve.wal.recovered_batches_total"), 2);
    assert_eq!(fingerprint(&b_client), fingerprint(&control_client));
    for batch in &more {
        let want = control_client.ingest(batch.clone()).unwrap();
        assert_eq!(b_client.ingest(batch.clone()).unwrap(), want);
        assert_eq!(fingerprint(&b_client), fingerprint(&control_client));
    }

    b.shutdown().unwrap();
    control.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&full_wal);
}
