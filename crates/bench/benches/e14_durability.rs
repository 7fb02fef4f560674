//! E14: durability costs.
//!
//! Two claims from the write-ahead-log tentpole, measured:
//!
//! * **Fsync policy cost model** — per-batch commit latency through a
//!   [`DurableSession`] under `Never` / `EveryN` / `Interval` / `Always`,
//!   against the no-WAL in-memory baseline. On the in-memory fault disk
//!   the gap is pure framing + CRC bookkeeping; on a real directory the
//!   `Always` column adds the physical fsync — the number a deployment
//!   trades acknowledged-durability against. The in-memory disk runs
//!   each policy over a single-writer and a sharded session, which share
//!   one commit path.
//! * **Recovery time vs log length** — rebuilding a session from a log
//!   of N updates, tail-replay only versus recovering from a checkpoint
//!   (load the pinned state, skip the covered tail). Checkpointing turns
//!   recovery from O(history) into O(result + tail).

use cq_updates::prelude::*;
use cq_updates::storage::workload::{churn_updates, rng, ChurnConfig};
use cqu_testutil::SimDisk;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

const QUERY: (&str, &str) = ("q", "Q(x, y) :- E(x, y), T(y).");
const BATCH: usize = 64;

fn workload(schema: &Schema, steps: usize) -> Vec<Update> {
    let mut r = rng(0xD00D);
    churn_updates(
        &mut r,
        schema,
        steps,
        ChurnConfig {
            domain: 300,
            insert_bias: 0.6,
        },
    )
}

fn durable_on(disk: SimDisk, fsync: FsyncPolicy) -> DurableSession {
    let sess = DurableSession::create(Box::new(disk), opts(fsync)).unwrap();
    sess.register(QUERY.0, QUERY.1).unwrap();
    sess
}

fn opts(fsync: FsyncPolicy) -> DurableOptions {
    DurableOptions {
        fsync,
        segment_bytes: 32 << 20, // no rotation mid-measurement
        ..DurableOptions::default()
    }
}

fn schema_of(sess: &DurableSession) -> Schema {
    match sess.sharded() {
        Some(s) => s.schema().clone(),
        None => sess
            .shared()
            .expect("single-writer mode")
            .read(|s| s.schema().clone())
            .unwrap(),
    }
}

/// Commit-path latency per `BATCH`-update batch under each fsync
/// policy, on the in-memory disk (isolates WAL bookkeeping) and on a
/// real temp directory (adds the physical fsync).
fn bench_fsync_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_fsync_policy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(600));
    group.throughput(Throughput::Elements(BATCH as u64));

    // The no-WAL baseline: the same batches into a bare SharedSession.
    {
        let mut session = Session::new();
        session.register(QUERY.0, QUERY.1).unwrap();
        let schema = session.schema().clone();
        let shared = SharedSession::new(session);
        let script = workload(&schema, 1 << 16);
        let mut at = 0;
        group.bench_function(BenchmarkId::new("memory", "no_wal"), |b| {
            b.iter(|| {
                let chunk = &script[at..at + BATCH];
                at = (at + BATCH) % (script.len() - BATCH);
                shared.apply_batch(chunk).unwrap().applied
            })
        });
    }

    let policies: [(&str, FsyncPolicy); 4] = [
        ("never", FsyncPolicy::Never),
        (
            "interval_5ms",
            FsyncPolicy::Interval(Duration::from_millis(5)),
        ),
        ("every_64", FsyncPolicy::EveryN(64)),
        ("always", FsyncPolicy::Always),
    ];

    for (name, fsync) in policies {
        let single = durable_on(SimDisk::new(), fsync);
        let sharded =
            DurableSession::create_sharded(Box::new(SimDisk::new()), opts(fsync), &[QUERY])
                .unwrap();
        for (arm, sess) in [("simdisk", single), ("simdisk_sharded", sharded)] {
            let script = workload(&schema_of(&sess), 1 << 16);
            let mut at = 0;
            group.bench_function(BenchmarkId::new(arm, name), |b| {
                b.iter(|| {
                    let chunk = &script[at..at + BATCH];
                    at = (at + BATCH) % (script.len() - BATCH);
                    sess.apply_batch(chunk).unwrap().applied
                })
            });
        }
    }

    for (name, fsync) in policies {
        let dir = std::env::temp_dir().join(format!("cqu_e14_{}_{}", std::process::id(), name));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let sess = DurableSession::create_at(&dir, opts(fsync)).unwrap();
        sess.register(QUERY.0, QUERY.1).unwrap();
        let script = workload(&schema_of(&sess), 1 << 16);
        let mut at = 0;
        group.bench_function(BenchmarkId::new("fsdir", name), |b| {
            b.iter(|| {
                let chunk = &script[at..at + BATCH];
                at = (at + BATCH) % (script.len() - BATCH);
                sess.apply_batch(chunk).unwrap().applied
            })
        });
        drop(sess);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// Recovery latency from logs of growing length, with and without a
/// final checkpoint. Each iteration recovers from an independent copy
/// of the fully-synced survivor disk.
fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_recovery");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(600));

    for steps in [1_000usize, 4_000, 16_000] {
        group.throughput(Throughput::Elements(steps as u64));
        for checkpointed in [false, true] {
            let disk = SimDisk::new();
            let sess = durable_on(disk.clone(), FsyncPolicy::EveryN(256));
            let script = workload(&schema_of(&sess), steps);
            for chunk in script.chunks(BATCH) {
                sess.apply_batch(chunk).unwrap();
            }
            if checkpointed {
                sess.checkpoint().unwrap();
            }
            sess.sync().unwrap();
            let kind = if checkpointed {
                "checkpointed"
            } else {
                "tail_replay"
            };
            let opts = DurableOptions {
                fsync: FsyncPolicy::Never, // recovery itself writes nothing hot
                segment_bytes: 32 << 20,
                ..DurableOptions::default()
            };
            group.bench_function(BenchmarkId::new(kind, steps), |b| {
                b.iter(|| {
                    let back = DurableSession::recover(Box::new(disk.strict_view()), opts.clone())
                        .unwrap();
                    back.seq().unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(e14, bench_fsync_policies, bench_recovery);
criterion_main!(e14);
