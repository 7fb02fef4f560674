//! `serve-feed`: an open loop of commits fanned out over TCP.
//!
//! An in-memory `SharedSession` (no WAL) holds
//! `Feed(u, v, p) :- Follows(u, v), Posts(v, p)` over a preloaded follow
//! graph, served by `ServerHandle` over `SessionSource` on loopback. One
//! thread commits an effective update at each due time — alternately a
//! new post and the deletion of the previous one — and a second thread
//! is a `Client` subscribed to the feed, folding deltas into a `Mirror`.
//! The loop is open because independent writers do not wait for
//! subscribers; every commit is timed from when it was due.
//!
//! The serve layer (pump wake-up, encode, per-connection queue, socket)
//! does almost all the work; the engine does about a microsecond per
//! commit, the WAL and pins nothing.

use crate::harness::{self, Measured, QuerySpec, RateWindows, RegSnap, PROBE_SAMPLES};
use crate::oracle;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};
use crate::{Config, Scale};
use cq_updates::obs::Registry;
use cq_updates::query::{Query, Schema};
use cq_updates::serve::{Client, Frame, Mirror, ServerHandle, SessionSource};
use cq_updates::serving::ServeConfig;
use cq_updates::storage::{Database, Update};
use cq_updates::{Session, SharedSession};
use cqu_testutil::Lcg;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served query.
pub const FEED: QuerySpec = QuerySpec {
    name: "feed",
    src: "Feed(u, v, p) :- Follows(u, v), Posts(v, p).",
    root: "v",
    qh: true,
};

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Users, each following `follows` distinct authors.
    pub users: u64,
    /// Follows per user.
    pub follows: usize,
    /// Authors (ids `1..=authors`).
    pub authors: u64,
    /// Preloaded posts per author.
    pub posts: u64,
    /// Offered load, commits per second.
    pub rate: f64,
    /// Delta retention ring per query (`SessionSource`).
    pub ring: usize,
    /// Untimed commits after subscribing, before the timed phase.
    pub warm: usize,
}

impl Sizes {
    /// The benchmark's sizes, or the smoke test's.
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                users: 10_000,
                follows: 10,
                authors: 1_000,
                posts: 4,
                rate: 2_000.0,
                ring: 8192,
                warm: 256,
            },
            Scale::Smoke => Sizes {
                users: 300,
                follows: 4,
                authors: 40,
                posts: 2,
                rate: 2_000.0,
                ring: 8192,
                warm: 16,
            },
        }
    }
}

/// Generated inputs.
pub struct Inputs {
    schema: Schema,
    queries: Vec<(QuerySpec, Query)>,
    preload: Vec<Update>,
    /// Commit `i` inserts a post when `i` is even and deletes that post
    /// when `i` is odd.
    stream: Vec<Update>,
}

/// Draws the follow graph and the post stream from `seed`; `commits`
/// bounds the stream (warm-up included).
pub fn generate(seed: u64, sizes: Sizes, commits: usize) -> Inputs {
    let (schema, queries) = harness::queries_of(&[FEED]);
    let follows = schema.relation("Follows").expect("interned");
    let posts = schema.relation("Posts").expect("interned");
    let mut rng = Lcg::new(seed);
    let mut preload = Vec::new();
    let mut followed = vec![false; sizes.authors as usize + 1];
    for u in 1..=sizes.users {
        let mut mine: Vec<u64> = Vec::with_capacity(sizes.follows);
        while mine.len() < sizes.follows {
            let v = 1 + rng.below(sizes.authors as usize) as u64;
            if !mine.contains(&v) {
                mine.push(v);
            }
        }
        for v in mine {
            followed[v as usize] = true;
            preload.push(Update::Insert(follows, vec![u, v]));
        }
    }
    let mut next_post = 1u64;
    for v in 1..=sizes.authors {
        for _ in 0..sizes.posts {
            preload.push(Update::Insert(posts, vec![v, next_post]));
            next_post += 1;
        }
    }
    // Only followed authors post, so every commit changes the feed and
    // the subscriber sees one delta per commit.
    let authors: Vec<u64> = (1..=sizes.authors)
        .filter(|&v| followed[v as usize])
        .collect();
    let mut stream = Vec::with_capacity(commits + 1);
    while stream.len() < commits {
        let v = authors[rng.below(authors.len())];
        let post = Update::Insert(posts, vec![v, next_post]);
        next_post += 1;
        stream.push(post.clone());
        stream.push(post.inverse());
    }
    stream.truncate(commits);
    Inputs {
        schema,
        queries,
        preload,
        stream,
    }
}

/// How long the subscriber may take to drain after the last commit.
const DRAIN: Duration = Duration::from_secs(5);

/// A served session with one subscribed client, warmed up.
struct Served {
    shared: SharedSession,
    server: ServerHandle,
    client: Client,
    mirror: Mirror,
}

/// Preload, registration, server bind, client connect and subscribe, the
/// initial snapshot transfer, and warm-up commits: `setup_s`.
fn setup(inp: &Inputs, sizes: Sizes, registry: Option<Arc<Registry>>) -> Result<Served, String> {
    let err = |e: cq_updates::CqError| format!("serve-feed setup: {e}");
    let cerr = |e: cq_updates::serve::ClientError| format!("serve-feed client: {e}");
    let mut s = Session::open(inp.schema.clone());
    if let Some(r) = &registry {
        s.share_registry(Arc::clone(r));
    }
    s.apply_batch(&inp.preload).map_err(err)?;
    s.register(FEED.name, FEED.src).map_err(err)?;
    let shared = SharedSession::new(s);
    let source = Arc::new(SessionSource::new(shared.clone(), sizes.ring).map_err(err)?);
    let config = ServeConfig {
        registry,
        ..ServeConfig::default()
    };
    let server = ServerHandle::bind_with("127.0.0.1:0", source, config)
        .map_err(|e| format!("serve-feed bind: {e}"))?;
    // Auto-resubscribe stays on, so a `Lagged` detach heals the mirror;
    // each resubscription counts as a failure.
    let mut client = Client::connect(server.local_addr()).map_err(cerr)?;
    client.subscribe(FEED.name, None).map_err(cerr)?;
    let mut mirror = Mirror::new();
    for u in &inp.stream[..sizes.warm] {
        shared.apply(u).map_err(err)?;
    }
    let head = shared.read(|s| s.seq()).map_err(err)?;
    mirror
        .catch_up(&mut client, FEED.name, head, Duration::from_secs(60))
        .map_err(cerr)?;
    Ok(Served {
        shared,
        server,
        client,
        mirror,
    })
}

/// `(seq, arrival, folded, is_delta)` of a `Delta` frame or of a
/// (re-subscription) snapshot.
type StreamFrame = (u64, Instant, Instant, bool);

/// When a commit's change arrived, and when the mirror had folded it.
type Delivery = Option<(Instant, Instant)>;

/// What the subscriber thread saw.
struct Seen {
    client: Client,
    mirror: Mirror,
    frames: Vec<StreamFrame>,
    /// `Lagged` detaches: auto-resubscriptions, plus any `Lagged` frame
    /// that reached the caller.
    lagged: u64,
    disconnected: bool,
    /// Largest `serve_queue_depth` sampled while draining.
    queue_depth_max: u64,
}

/// What the timed phase measured.
struct Phase {
    /// Due time, commit start and end, and whether it was accepted, per
    /// commit.
    commits: Vec<(Instant, Instant, Instant, bool)>,
    /// Seq of the session before the first timed commit.
    base: u64,
    seen: Seen,
    /// When the first commit was due.
    start: Instant,
}

/// The open loop on this thread, the subscriber on a second one.
fn timed(
    served: Served,
    inp: &Inputs,
    sizes: Sizes,
    seconds: f64,
    queue_depth: Option<Arc<cq_updates::obs::Gauge>>,
) -> Result<(SharedSession, ServerHandle, Phase), String> {
    let Served {
        shared,
        server,
        client,
        mirror,
    } = served;
    let base = shared.read(|s| s.seq()).map_err(|e| e.to_string())?;
    let n = ((seconds * sizes.rate) as usize).min(inp.stream.len() - sizes.warm);
    let period = Duration::from_secs_f64(1.0 / sizes.rate);
    // The seq the subscriber must reach, published once the writer is done.
    let target = AtomicU64::new(u64::MAX);
    let writer_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let (commits, seen) = std::thread::scope(|scope| {
        let sub = scope.spawn(|| {
            let mut client = client;
            let mut mirror = mirror;
            let mut frames = Vec::with_capacity(n);
            let resubscribed = client.resubscribes();
            let (mut lagged, mut disconnected, mut queue_depth_max) = (0, false, 0);
            let mut drain_deadline: Option<Instant> = None;
            while mirror.seq() < target.load(Ordering::Acquire) {
                if writer_done.load(Ordering::Acquire) {
                    let d = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() >= d {
                        break;
                    }
                }
                match client.next(Duration::from_millis(20)) {
                    Ok(Some(frame)) => {
                        let arrival = Instant::now();
                        if let Some(g) = &queue_depth {
                            queue_depth_max = queue_depth_max.max(g.get());
                        }
                        mirror.apply(FEED.name, &frame);
                        let folded = Instant::now();
                        match frame {
                            Frame::Delta { seq, .. } => frames.push((seq, arrival, folded, true)),
                            Frame::Snapshot { seq, .. }
                            | Frame::SnapshotChunk {
                                seq, last: true, ..
                            } => frames.push((seq, arrival, folded, false)),
                            Frame::Lagged { .. } => lagged += 1,
                            _ => {}
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            lagged += client.resubscribes() - resubscribed;
            Seen {
                client,
                mirror,
                frames,
                lagged,
                disconnected,
                queue_depth_max,
            }
        });
        let mut commits = Vec::with_capacity(n);
        for (i, u) in inp.stream[sizes.warm..sizes.warm + n].iter().enumerate() {
            let due = start + period.mul_f64(i as f64);
            harness::wait_until(due);
            let t0 = Instant::now();
            let ok = matches!(shared.apply(u), Ok(true));
            let t1 = Instant::now();
            commits.push((due, t0, t1, ok));
        }
        let head = shared.read(|s| s.seq()).unwrap_or(0);
        target.store(head, Ordering::Release);
        writer_done.store(true, Ordering::Release);
        let seen = sub.join().expect("subscriber thread panicked");
        (commits, seen)
    });
    Ok((
        shared,
        server,
        Phase {
            commits,
            base,
            seen,
            start,
        },
    ))
}

/// When each seq in `base + 1..=head` was delivered: `(arrival, folded)`
/// of the first `Delta` whose seq covers it — normally its own; after a
/// stall, the server's coalesced catch-up delta, which carries the
/// skipped commits' changes too. A seq that a re-subscription snapshot
/// covered, or that nothing covered by the drain deadline, has none.
/// Stream seqs must not go back, `Delta` seqs must strictly increase, and
/// none may pass `head`; each frame that breaks this is a mismatch line.
fn deliveries(base: u64, head: u64, frames: &[StreamFrame]) -> (Vec<Delivery>, Vec<String>) {
    let mut arrival = vec![None; (head - base) as usize];
    let mut mismatches = Vec::new();
    let mut last = base;
    for &(seq, at, folded, is_delta) in frames {
        if seq < last || (is_delta && seq == last) || seq > head {
            mismatches.push(format!("ORACLE MISMATCH stream seq {seq} after {last}"));
            continue;
        }
        if is_delta {
            for slot in &mut arrival[(last - base) as usize..(seq - base) as usize] {
                *slot = Some((at, folded));
            }
        }
        last = seq;
    }
    (arrival, mismatches)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let sizes = Sizes::of(cfg.scale);
    let commits = sizes.warm + (cfg.seconds * sizes.rate) as usize + 2;
    let inp = generate(cfg.seed, sizes, commits);
    let mut m = Measured::new(cfg.trace);
    let mut notes = vec![harness::inputs_rss_note()?];
    let mut tracer = Tracer::new(cfg.trace);

    let mut regs = None;
    let served = if cfg.trace {
        let cal = setup(&inp, sizes, None)?;
        let secs = harness::calibration_seconds(cfg.seconds);
        let (_, server, phase) = timed(cal, &inp, sizes, secs, None)?;
        server.shutdown();
        let mut s = Samples::default();
        for &(due, _, t1, _) in &phase.commits {
            s.push(harness::us(due, t1));
        }
        let cal_p50 = s.quantile(0.5).map_err(|e| format!("calibration: {e}"))?;
        let reg = Arc::new(Registry::new());
        let served = setup(&inp, sizes, Some(Arc::clone(&reg)))?;
        regs = Some((reg, cal_p50));
        served
    } else {
        let (served, setup_s, n) = harness::repeat_setup(
            || setup(&inp, sizes, None),
            |old: Served| old.server.shutdown(),
        )?;
        m.set("setup_s", setup_s, n);
        served
    };
    let before = regs.as_ref().map(|(r, _)| RegSnap::take(r));
    let depth = regs.as_ref().map(|(r, _)| r.gauge("serve_queue_depth"));
    let (shared, server, phase) = timed(served, &inp, sizes, cfg.seconds, depth)?;
    let after = regs.as_ref().map(|(r, _)| RegSnap::take(r));
    let ran = phase.commits.len() as u64;

    // Each accepted commit took the next seq.
    let mut seqs = Vec::with_capacity(phase.commits.len());
    let mut head = phase.base;
    for c in &phase.commits {
        head += u64::from(c.3);
        seqs.push(c.3.then_some(head));
    }
    // Each commit is two operations, the commit and its delivery; a
    // refused commit fails both.
    let mut attempted = 2 * ran;
    let mut failed = 2 * phase.commits.iter().filter(|c| !c.3).count() as u64;
    let (arrival, mismatches) = deliveries(phase.base, head, &phase.seen.frames);
    let mut correct = mismatches.is_empty();
    notes.extend(mismatches);
    let missing = arrival.iter().filter(|a| a.is_none()).count() as u64;
    failed += missing + phase.seen.lagged + u64::from(phase.seen.disconnected);

    let mut commit = Samples::with_capacity(phase.commits.len());
    let mut delta = Samples::with_capacity(phase.commits.len());
    let mut late = Samples::with_capacity(phase.commits.len());
    let mut deliver = Samples::with_capacity(phase.commits.len());
    let mut rate = RateWindows::new(phase.start);
    for (&(due, t0, t1, _), seq) in phase.commits.iter().zip(&seqs) {
        late.push(harness::us(due, t0));
        let Some(seq) = *seq else {
            commit.push_failed();
            delta.push_failed();
            deliver.push_failed();
            continue;
        };
        commit.push(harness::us(due, t1));
        rate.hit(t1);
        match arrival[(seq - phase.base - 1) as usize] {
            Some((at, folded)) => {
                delta.push(harness::us(due, at));
                deliver.push(harness::us(t1, at));
                tracer.op(
                    "delta",
                    seq,
                    due,
                    folded,
                    &[
                        ("commit", ROOT, t0, t1),
                        ("client.next", "serve", t1, at),
                        ("mirror.apply", "serve", at, folded),
                    ],
                );
            }
            None => {
                delta.push_failed();
                deliver.push_failed();
            }
        }
    }
    m.p50_p99("commit_us_p50", "commit_us_p99", &commit)?;
    m.p50_p99("delta_us_p50", "delta_us_p99", &delta)?;
    let end = phase.commits.last().map_or(phase.start, |c| c.2);
    let (per_s, windows) = rate.median_rate(end);
    m.set("updates_per_s", per_s, windows);
    // Reads of the served session once the writer has stopped: a pin
    // during the loop would make the next commit clone the feed's
    // structure, and serving is the mechanism measured here.
    let reads = harness::read_probe(PROBE_SAMPLES, |_| shared.snapshot(FEED.name))?;
    attempted += reads.len() as u64;
    m.p50_p99("read_us_p50", "read_us_p99", &reads)?;
    m.set("peak_rss_mb", harness::peak_rss_mib()?, 1);

    if let (Some((_, cal_p50)), Some(before), Some(after)) = (&regs, &before, &after) {
        let p50 = m.get("commit_us_p50").expect("just measured");
        m.set(
            "trace.overhead_pct",
            harness::overhead_pct(p50, *cal_p50),
            commit.len() as u64,
        );
        m.quantile("gen.late_us_p99", &late, 0.99)?;
        m.quantile("session.commit_clean_us_p50", &commit, 0.5)?;
        m.p50_p99("serve.deliver_us_p50", "serve.deliver_us_p99", &deliver)?;
        let pubs = after.counter(before, "session_epoch_publications_total");
        m.set(
            "session.epoch_publications_per_commit",
            pubs as f64 / ran.max(1) as f64,
            ran,
        );
        let (count, sum, _) = after.hist(before, "session_commit_latency_ns");
        m.set(
            "session.commit_busy_ns_per_commit",
            sum as f64 / count.max(1) as f64,
            count,
        );
        tracer.attribute(ROOT, "session", sum);
        let sent = after.counter(before, "serve_deltas_sent_total");
        let bytes = after.counter(before, "serve_bytes_out_total");
        let coalesced = after.counter(before, "serve_coalesced_total");
        m.set(
            "serve.bytes_per_delta",
            bytes as f64 / sent.max(1) as f64,
            sent,
        );
        m.set(
            "serve.coalesced_ratio",
            coalesced as f64 / sent.max(1) as f64,
            sent,
        );
        m.set(
            "serve.queue_depth_max",
            phase.seen.queue_depth_max as f64,
            phase.seen.frames.len() as u64,
        );
        harness::finish_trace(cfg, &tracer, &mut m, &mut notes)?;
        let mut db0 = Database::new(inp.schema.clone());
        db0.apply_all(&inp.preload);
        let warm = &inp.stream[..sizes.warm];
        let timed_updates: Vec<Update> = inp.stream[sizes.warm..]
            .iter()
            .zip(&seqs)
            .filter(|(_, seq)| seq.is_some())
            .map(|(u, _)| u.clone())
            .collect();
        harness::engine_replay(&inp.queries, &db0, warm, &timed_updates, &mut m);
        drop(db0);
        harness::session_ladder(
            &inp.schema,
            &inp.queries,
            &inp.preload,
            warm,
            &timed_updates,
            &mut m,
        )?;
        if let Some(sub) = m.get("session.apply_subscribed_us_p50") {
            m.set(
                "serve.commit_overhead_us_p50",
                p50 - sub,
                commit.len() as u64,
            );
        }
        harness::count_enum_probe(PROBE_SAMPLES / 4, |_| shared.snapshot(FEED.name), &mut m)?;
    }

    // Oracle gate: the session at head, and the mirror at its own seq,
    // equal brute force on the commits the session accepted. A mirror
    // that did not reach head by the drain deadline has failed
    // deliveries, counted above, not wrong rows.
    let accepted = |upto: u64| {
        let mut db = Database::new(inp.schema.clone());
        db.apply_all(&inp.preload);
        db.apply_all(&inp.stream[..sizes.warm]);
        let timed = inp.stream[sizes.warm..].iter().zip(&seqs);
        db.apply_all(
            timed
                .filter(|(_, seq)| seq.is_some_and(|s| s <= upto))
                .map(|(u, _)| u),
        );
        oracle::answers(&inp.queries[0].1, &db, FEED.root)
    };
    let at = phase.seen.mirror.seq();
    if shared.read(|s| s.seq()).map_err(|e| e.to_string())? != head || at > head || at < phase.base
    {
        notes.push(format!(
            "ORACLE MISMATCH session or mirror seq off: mirror at {at}, head {head}"
        ));
        correct = false;
    }
    let want = accepted(head);
    let got = shared
        .snapshot(FEED.name)
        .map_err(|e| format!("final snapshot: {e}"))?
        .results_sorted();
    let want_mirror = if at < head {
        accepted(at)
    } else {
        want.clone()
    };
    for (what, rows, want) in [
        ("session", got, &want),
        ("mirror", phase.seen.mirror.rows_sorted(), &want_mirror),
    ] {
        if let Err(e) = oracle::check(what, &rows, want) {
            notes.push(format!("ORACLE MISMATCH {e}"));
            correct = false;
        }
    }
    drop(phase.seen.client);
    server.shutdown();
    harness::report(cfg, correct, attempted, failed, m, notes)
}

#[cfg(test)]
mod tests {
    use super::deliveries;
    use std::time::{Duration, Instant};

    #[test]
    fn a_coalesced_delta_delivers_its_span_and_a_snapshot_delivers_nothing() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let frames = [
            (11, at(1), at(1), true),
            // Coalesced after a stall: carries 12 and 13.
            (13, at(3), at(3), true),
            // Re-subscription snapshot: 14 and 15 were never delivered.
            (15, at(5), at(5), false),
            (16, at(6), at(6), true),
        ];
        let (arrival, bad) = deliveries(10, 17, &frames);
        assert!(bad.is_empty(), "{bad:?}");
        let got: Vec<Option<Instant>> = arrival.iter().map(|a| a.map(|x| x.0)).collect();
        let want = [
            Some(at(1)),
            Some(at(3)),
            Some(at(3)),
            None,
            None,
            Some(at(6)),
            None,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn a_repeated_or_backward_seq_is_a_mismatch() {
        let t = Instant::now();
        let frames = [
            (2, t, t, true),
            (2, t, t, true),
            (1, t, t, false),
            (9, t, t, true),
        ];
        let (arrival, bad) = deliveries(0, 3, &frames);
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert_eq!(arrival.iter().filter(|a| a.is_some()).count(), 2);
    }
}
