//! `durable-repl`: fsynced commits, each awaited on a follower.
//!
//! `DurableSession::create_sharded_at` on a directory of the local
//! filesystem (`FsyncPolicy::Always`, 8 MiB segments — the defaults)
//! holds two footprint-disjoint queries, so the sharded backend runs two
//! shards. The leader is preloaded with effective churn in batches of
//! 4,096 and checkpointed; then a `ReplicationServer` ships to one
//! `ReplicaSession` follower, which bootstraps from the checkpoint. The
//! loop commits one update and waits for `wait_for_seq(head)` before the
//! next: a read-your-writes-on-replica client.
//!
//! The WAL (append, fsync, rotation), the sharded commit and replication
//! (ship, follower apply) do the work; serving and pins do none.

use crate::gen::PingPong;
use crate::harness::{self, Measured, QuerySpec, RateWindows, RegSnap, ScratchDir, PROBE_SAMPLES};
use crate::oracle;
use crate::report::Report;
use crate::stats::{bucket_quantile, Samples};
use crate::trace::{Tracer, ROOT};
use crate::{Config, Scale};
use cq_updates::obs::Registry;
use cq_updates::query::{Query, Schema};
use cq_updates::repl::LeaderConfig;
use cq_updates::storage::{Database, Update};
use cq_updates::{
    DurableOptions, DurableSession, ReplicaOptions, ReplicaSession, ReplicationServer,
};
use cqu_testutil::{effective_churn, WorkloadConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two queries; their footprints are disjoint, so two shards.
pub const QUERIES: [QuerySpec; 2] = [
    QuerySpec {
        name: "pairs",
        src: "Q(x, y) :- E(x, y), T(y).",
        root: "y",
        qh: true,
    },
    QuerySpec {
        name: "star",
        src: "Q(x, y, z) :- R(x, y), S(x, z), U(x).",
        root: "x",
        qh: true,
    },
];

/// How long one `wait_for_seq` may take before it counts as failed.
const WAIT: Duration = Duration::from_secs(10);

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Preloaded effective-churn updates.
    pub preload: usize,
    /// Value domain of the churn.
    pub domain: u64,
    /// Preload batch size.
    pub batch: usize,
    /// Length of the timed stream replayed back and forth.
    pub stream: usize,
    /// Untimed commits before the timed phase.
    pub warm: u64,
}

impl Sizes {
    /// The benchmark's sizes, or the smoke test's.
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                preload: 200_000,
                domain: 20_000,
                batch: 4096,
                stream: 1 << 14,
                warm: 16,
            },
            Scale::Smoke => Sizes {
                preload: 3_000,
                domain: 300,
                batch: 512,
                stream: 1 << 10,
                warm: 4,
            },
        }
    }
}

/// Generated inputs: one effective-churn stream, its prefix preloaded,
/// its suffix replayed by the loop.
pub struct Inputs {
    schema: Schema,
    queries: Vec<(QuerySpec, Query)>,
    preload: Vec<Update>,
    stream: PingPong,
}

/// Draws the inputs from `seed`.
pub fn generate(seed: u64, sizes: Sizes) -> Inputs {
    let (schema, queries) = harness::queries_of(&QUERIES);
    let mut all = effective_churn(
        &schema,
        seed,
        WorkloadConfig {
            steps: sizes.preload + sizes.stream,
            domain: sizes.domain,
            insert_permille: 600,
        },
    );
    let stream = all.split_off(sizes.preload);
    Inputs {
        schema,
        queries,
        preload: all,
        stream: PingPong::new(stream),
    }
}

/// A checkpointed leader with one bootstrapped follower.
struct Deployed {
    leader: Arc<DurableSession>,
    server: ReplicationServer,
    replica: ReplicaSession,
    /// Seconds from follower connect until its watermark reached head.
    bootstrap_s: f64,
    _dir: ScratchDir,
}

impl Deployed {
    fn shutdown(mut self) {
        self.replica.shutdown();
        self.server.shutdown();
    }
}

/// Log creation, preload, checkpoint, replication listener, follower
/// bootstrap and warm-up: `setup_s`.
fn setup(
    cfg: &Config,
    inp: &Inputs,
    sizes: Sizes,
    registry: Option<Arc<Registry>>,
) -> Result<Deployed, String> {
    let err = |e: cq_updates::DurableError| format!("durable-repl setup: {e}");
    let dir = ScratchDir::new(&cfg.work_dir, "wal")?;
    let opts = DurableOptions {
        registry: registry.clone(),
        ..DurableOptions::default()
    };
    let regs: Vec<(&str, &str)> = inp.queries.iter().map(|(s, _)| (s.name, s.src)).collect();
    let leader = DurableSession::create_sharded_at(dir.path(), opts, &regs).map_err(err)?;
    for rel in inp.schema.relations() {
        let name = inp.schema.name(rel);
        if leader.relation(name).map_err(err)? != rel {
            return Err(format!("relation {name} has another id in the session"));
        }
    }
    for chunk in inp.preload.chunks(sizes.batch) {
        leader.apply_batch(chunk).map_err(err)?;
    }
    leader.checkpoint().map_err(err)?;
    let leader = Arc::new(leader);
    let server =
        ReplicationServer::bind("127.0.0.1:0", Arc::clone(&leader), LeaderConfig::default())
            .map_err(|e| format!("replication listener: {e}"))?;
    let t0 = Instant::now();
    let replica = ReplicaSession::connect(
        server.local_addr(),
        ReplicaOptions {
            // A registry of its own: the follower's session applies must
            // not count as the leader's commits.
            registry: registry.map(|_| Arc::new(Registry::new())),
            ..ReplicaOptions::default()
        },
    )
    .map_err(|e| format!("follower connect: {e}"))?;
    let head = leader.seq().map_err(err)?;
    if !replica.wait_for_seq(head, Duration::from_secs(60)) {
        return Err("follower did not bootstrap within 60 s".into());
    }
    let bootstrap_s = t0.elapsed().as_secs_f64();
    for n in 0..sizes.warm {
        leader.apply(&inp.stream.get(n)).map_err(err)?;
    }
    let head = leader.seq().map_err(err)?;
    if !replica.wait_for_seq(head, WAIT) {
        return Err("follower did not catch up with the warm-up".into());
    }
    Ok(Deployed {
        leader,
        server,
        replica,
        bootstrap_s,
        _dir: dir,
    })
}

/// What the timed phase measured.
#[derive(Debug)]
struct Phase {
    commits: Samples,
    lag: Samples,
    ship_apply: Samples,
    rate: RateWindows,
    ok: u64,
    end: u64,
    /// Stream positions whose commit failed or changed nothing.
    refused: Vec<u64>,
    ended: Instant,
    attempted: u64,
    failed: u64,
}

/// The closed loop: commit, then wait for the follower to apply it.
fn timed(d: &Deployed, inp: &Inputs, sizes: Sizes, seconds: f64, tracer: &mut Tracer) -> Phase {
    let start = Instant::now();
    let mut p = Phase {
        commits: Samples::default(),
        lag: Samples::default(),
        ship_apply: Samples::default(),
        rate: RateWindows::new(start),
        ok: 0,
        end: 0,
        refused: Vec::new(),
        ended: start,
        attempted: 0,
        failed: 0,
    };
    let mut n = sizes.warm;
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let u = inp.stream.get(n);
        let t0 = Instant::now();
        let res = d.leader.apply(&u);
        let t1 = Instant::now();
        let head = d.leader.seq();
        let t2 = Instant::now();
        n += 1;
        p.attempted += 2;
        if !matches!(res, Ok(true)) {
            // The wait for it fails with it.
            p.failed += 2;
            p.refused.push(n - 1);
            p.commits.push_failed();
            p.lag.push_failed();
            p.ship_apply.push_failed();
            continue;
        }
        p.ok += 1;
        p.commits.push(harness::us(t0, t1));
        p.rate.hit(t1);
        let head = head.ok();
        let caught_up = head.is_some_and(|head| d.replica.wait_for_seq(head, WAIT));
        let t3 = Instant::now();
        let head = head.unwrap_or(0);
        if caught_up {
            p.lag.push(harness::us(t0, t3));
            p.ship_apply.push(harness::us(t1, t3));
        } else {
            p.failed += 1;
            p.lag.push_failed();
            p.ship_apply.push_failed();
        }
        tracer.op(
            "iter",
            head,
            t0,
            t3,
            &[
                ("commit", ROOT, t0, t1),
                ("seq", "wal", t1, t2),
                ("wait_for_seq", "repl", t2, t3),
            ],
        );
    }
    p.ended = Instant::now();
    p.end = n;
    p
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let sizes = Sizes::of(cfg.scale);
    let inp = generate(cfg.seed, sizes);
    let mut m = Measured::new(cfg.trace);
    let mut notes = vec![harness::inputs_rss_note()?];
    let mut tracer = Tracer::new(cfg.trace);

    let mut regs = None;
    let d = if cfg.trace {
        let cal = setup(cfg, &inp, sizes, None)?;
        let secs = harness::calibration_seconds(cfg.seconds);
        let phase = timed(&cal, &inp, sizes, secs, &mut Tracer::new(false));
        cal.shutdown();
        let cal_p50 = phase
            .commits
            .quantile(0.5)
            .map_err(|e| format!("calibration: {e}"))?;
        let reg = Arc::new(Registry::new());
        let d = setup(cfg, &inp, sizes, Some(Arc::clone(&reg)))?;
        regs = Some((reg, cal_p50));
        d
    } else {
        let (d, setup_s, n) =
            harness::repeat_setup(|| setup(cfg, &inp, sizes, None), Deployed::shutdown)?;
        m.set("setup_s", setup_s, n);
        d
    };
    let leader_stats0 = d.server.stats();
    let follower_stats0 = d.replica.stats();
    let before = regs.as_ref().map(|(r, _)| RegSnap::take(r));
    let phase = timed(&d, &inp, sizes, cfg.seconds, &mut tracer);
    let after = regs.as_ref().map(|(r, _)| RegSnap::take(r));
    let mut attempted = phase.attempted;
    // Queue overflows and follower disconnects are failures even when the
    // follower recovered from them in time.
    let mut failed = phase.failed
        + (d.server.stats().queue_overflows - leader_stats0.queue_overflows)
        + (d.replica.stats().disconnects - follower_stats0.disconnects);

    m.p50_p99("commit_us_p50", "commit_us_p99", &phase.commits)?;
    m.p50_p99("delta_us_p50", "delta_us_p99", &phase.lag)?;
    m.p50_p99("repl_lag_us_p50", "repl_lag_us_p99", &phase.lag)?;
    let (rate, windows) = phase.rate.median_rate(phase.ended);
    m.set("updates_per_s", rate, windows);
    // Reads on the follower once the writer has stopped: a pin held
    // during the loop would make the follower's apply clone.
    let reads = harness::read_probe(PROBE_SAMPLES, |i| {
        d.replica.snapshot(inp.queries[i % 2].0.name)
    })?;
    attempted += reads.len() as u64;
    m.p50_p99("read_us_p50", "read_us_p99", &reads)?;
    m.set("peak_rss_mb", harness::peak_rss_mib()?, 1);

    if let (Some((_, cal_p50)), Some(before), Some(after)) = (&regs, &before, &after) {
        let commits = phase.ok.max(1) as f64;
        let p50 = m.get("commit_us_p50").expect("just measured");
        m.set(
            "trace.overhead_pct",
            harness::overhead_pct(p50, *cal_p50),
            phase.ok,
        );
        m.quantile("session.commit_clean_us_p50", &phase.commits, 0.5)?;
        m.p50_p99(
            "repl.ship_apply_us_p50",
            "repl.ship_apply_us_p99",
            &phase.ship_apply,
        )?;
        m.set("repl.bootstrap_s", d.bootstrap_s, 1);
        let acks = after.counter(before, "repl_leader_acks_total");
        m.set("repl.acks_per_commit", acks as f64 / commits, phase.ok);
        let pubs = after.counter(before, "session_epoch_publications_total");
        m.set(
            "session.epoch_publications_per_commit",
            pubs as f64 / commits,
            phase.ok,
        );
        let (count, session_sum, _) = after.hist(before, "session_commit_latency_ns");
        m.set(
            "session.commit_busy_ns_per_commit",
            session_sum as f64 / count.max(1) as f64,
            count,
        );
        let (count, lock_sum, _) = after.hist(before, "session_shard_lock_wait_ns");
        m.set(
            "shard.lock_wait_ns_per_commit",
            lock_sum as f64 / commits,
            count,
        );
        let (count, append_sum, buckets) = after.hist(before, "wal_append_latency_ns");
        m.set(
            "wal.append_us_p50",
            bucket_quantile(&buckets, 0.5) / 1e3,
            count,
        );
        let (count, fsync_sum, buckets) = after.hist(before, "wal_fsync_latency_ns");
        m.set(
            "wal.fsync_us_p50",
            bucket_quantile(&buckets, 0.5) / 1e3,
            count,
        );
        let fsyncs = after.counter(before, "wal_fsyncs_total");
        m.set("wal.fsyncs_per_commit", fsyncs as f64 / commits, phase.ok);
        let bytes = after.counter(before, "wal_append_bytes_total");
        m.set("wal.bytes_per_update", bytes as f64 / commits, phase.ok);
        // A durable commit span belongs to no one layer: the registry's
        // stage sums hand its WAL append and fsync, session commit and
        // shard lock wait to those layers; the rest stays unattributed.
        tracer.attribute(ROOT, "wal", append_sum + fsync_sum);
        tracer.attribute(ROOT, "session", session_sum);
        tracer.attribute(ROOT, "shard", lock_sum);
        harness::finish_trace(cfg, &tracer, &mut m, &mut notes)?;
        let mut db0 = Database::new(inp.schema.clone());
        db0.apply_all(&inp.preload);
        let warm: Vec<Update> = (0..sizes.warm)
            .map(|i| inp.stream.get(i).into_owned())
            .collect();
        let timed_updates: Vec<Update> = (sizes.warm..phase.end)
            .filter(|i| phase.refused.binary_search(i).is_err())
            .map(|i| inp.stream.get(i).into_owned())
            .collect();
        harness::engine_replay(&inp.queries, &db0, &warm, &timed_updates, &mut m);
        drop(db0);
        harness::session_ladder(
            &inp.schema,
            &inp.queries,
            &inp.preload,
            &warm,
            &timed_updates,
            &mut m,
        )?;
        harness::count_enum_probe(
            PROBE_SAMPLES / 4,
            |i| d.replica.snapshot(inp.queries[i % 2].0.name),
            &mut m,
        )?;
    }

    // Oracle gate: the leader at head, and the follower at its watermark,
    // equal brute force on the commits the leader accepted. A follower
    // that did not reach head by the deadline is a failed wait, not a
    // wrong result: it is stopped and checked where it stands.
    let mut d = d;
    let head = d.leader.seq().map_err(|e| e.to_string())?;
    attempted += 1;
    if !d.replica.wait_for_seq(head, WAIT) {
        failed += 1;
        d.replica.shutdown();
    }
    let mut db = Database::new(inp.schema.clone());
    db.apply_all(&inp.preload);
    inp.stream.apply_prefix(&mut db, phase.end, &phase.refused);
    // Each accepted commit took one seq.
    let behind = head.saturating_sub(d.replica.applied_seq());
    let follower_db = (behind > 0).then(|| {
        let accepted = phase.end - phase.refused.len() as u64;
        let end = position_of(accepted.saturating_sub(behind), &phase.refused);
        let mut db = Database::new(inp.schema.clone());
        db.apply_all(&inp.preload);
        inp.stream.apply_prefix(&mut db, end, &phase.refused);
        db
    });
    let mut correct = true;
    for (spec, q) in &inp.queries {
        let want = oracle::answers(q, &db, spec.root);
        let want_follower = follower_db
            .as_ref()
            .map(|db| oracle::answers(q, db, spec.root));
        let leader = d
            .leader
            .snapshot(spec.name)
            .map_err(|e| e.to_string())?
            .results_sorted();
        let follower = d
            .replica
            .snapshot(spec.name)
            .map_err(|e| e.to_string())?
            .results_sorted();
        for (what, got, want) in [
            ("leader", leader, &want),
            (
                "follower",
                follower,
                want_follower.as_ref().unwrap_or(&want),
            ),
        ] {
            if let Err(e) = oracle::check(&format!("{} {what}", spec.name), &got, want) {
                notes.push(format!("ORACLE MISMATCH {e}"));
                correct = false;
            }
        }
    }
    d.shutdown();
    harness::report(cfg, correct, attempted, failed, m, notes)
}

/// The stream position before which `count` accepted commits lie, given
/// the refused positions (ascending).
fn position_of(count: u64, refused: &[u64]) -> u64 {
    let mut pos = count;
    for &r in refused {
        if r >= pos {
            break;
        }
        pos += 1;
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::position_of;

    #[test]
    fn positions_skip_the_refused_commits() {
        assert_eq!(position_of(3, &[]), 3);
        assert_eq!(position_of(3, &[1]), 4);
        assert_eq!(position_of(3, &[1, 3]), 5);
        assert_eq!(position_of(3, &[5]), 3);
    }
}
