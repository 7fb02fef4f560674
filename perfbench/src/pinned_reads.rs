//! `pinned-reads`: reads beside writes on one in-memory session.
//!
//! A `SharedSession` holds the q-hierarchical star
//! `Q(x, y, z) :- R(x, y), S(x, z), T(x)` (`QhEngine`) and the hard
//! `Q(x, y) :- A(x), E(x, y), B(y)` (delta-IVM) over a preload past one
//! core's L2 cache. One thread commits single effective updates; after
//! every `read_every`-th commit it reads the next query in rotation and
//! holds that pin until its next read. The schedule is fixed rather than
//! timer-driven so runs repeat: a pin makes the writer's next touching
//! commit clone the query's structure (copy-on-write), and a timer-driven
//! reader made that cost land at random.
//!
//! Engine and session layers do all the work here; TCP and the WAL are
//! not involved.

use crate::gen::{churn_from, PingPong};
use crate::harness::{self, Measured, QuerySpec, RateWindows, RegSnap, PROBE_SAMPLES};
use crate::oracle;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{Call, Tracer, ROOT};
use crate::{Config, Scale};
use cq_updates::obs::Registry;
use cq_updates::query::{Query, Schema};
use cq_updates::storage::{Database, Update};
use cq_updates::{QuerySnapshot, Session, SharedSession};
use cqu_testutil::{effective_churn, WorkloadConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two queries, in registration order.
pub const QUERIES: [QuerySpec; 2] = [
    QuerySpec {
        name: "star",
        src: "Q(x, y, z) :- R(x, y), S(x, z), T(x).",
        root: "x",
        qh: true,
    },
    QuerySpec {
        name: "hard",
        src: "Q(x, y) :- A(x), E(x, y), B(y).",
        root: "x",
        qh: false,
    },
];

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Value domain of the preload ("hubs").
    pub hubs: usize,
    /// Preloaded tuples (distinct inserts over the six relations).
    pub preload: usize,
    /// Length of the update stream replayed back and forth.
    pub stream: usize,
    /// Commits between reads.
    pub read_every: u64,
    /// Untimed commits (and one read) before the timed phase.
    pub warm: u64,
}

impl Sizes {
    /// The benchmark's sizes, or the smoke test's.
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                hubs: 4_000,
                preload: 12_000,
                stream: 1 << 14,
                read_every: 256,
                warm: 512,
            },
            Scale::Smoke => Sizes {
                hubs: 400,
                preload: 2_000,
                stream: 4_000,
                read_every: 16,
                warm: 32,
            },
        }
    }
}

/// Generated inputs.
pub struct Inputs {
    schema: Schema,
    queries: Vec<(QuerySpec, Query)>,
    preload: Vec<Update>,
    stream: PingPong,
}

/// Draws the preload (distinct inserts over values `1..=hubs`) and the
/// stream (half inserts, half deletes of live tuples, preloaded ones
/// included, so the database keeps its size) from `seed`.
pub fn generate(seed: u64, sizes: Sizes) -> Inputs {
    let (schema, queries) = harness::queries_of(&QUERIES);
    let preload = effective_churn(
        &schema,
        seed,
        WorkloadConfig {
            steps: sizes.preload,
            domain: sizes.hubs as u64,
            insert_permille: 1000,
        },
    );
    let stream = churn_from(
        &schema,
        &preload,
        seed ^ 0x9e37_79b9_7f4a_7c15,
        sizes.stream,
        sizes.hubs as u64,
        500,
    );
    Inputs {
        schema,
        queries,
        preload,
        stream: PingPong::new(stream),
    }
}

/// Preload, registration (classification and engine build) and warm-up:
/// everything `setup_s` covers.
fn setup(
    inp: &Inputs,
    sizes: Sizes,
    registry: Option<Arc<Registry>>,
) -> Result<SharedSession, String> {
    let err = |e: cq_updates::CqError| format!("pinned-reads setup: {e}");
    let mut s = Session::open(inp.schema.clone());
    if let Some(r) = registry {
        s.share_registry(r);
    }
    for chunk in inp.preload.chunks(1 << 16) {
        s.apply_batch(chunk).map_err(err)?;
    }
    for (spec, _) in &inp.queries {
        s.register(spec.name, spec.src).map_err(err)?;
        let kind = s.query(spec.name).map_err(err)?.kind();
        if (kind == cq_updates::baseline::EngineKind::QHierarchical) != spec.qh {
            return Err(format!("{} was routed to {kind:?}", spec.name));
        }
    }
    let shared = SharedSession::new(s);
    // Warm-up: the first commits after registration clone each structure
    // once (the registration epoch shares it); one read per query primes
    // the pin path.
    for n in 0..sizes.warm {
        shared.apply(&inp.stream.get(n)).map_err(err)?;
    }
    for (spec, _) in &inp.queries {
        drop(shared.snapshot(spec.name).map_err(err)?);
    }
    Ok(shared)
}

/// What the timed phase measured.
#[derive(Debug)]
struct Phase {
    commits: Samples,
    clean: Samples,
    after_pin: Samples,
    deltas: Samples,
    reads: Samples,
    pin_qh: Samples,
    pin_ivm: Samples,
    rate: RateWindows,
    /// Stream position after the phase.
    end: u64,
    /// Stream positions whose commit failed or changed nothing.
    refused: Vec<u64>,
    ended: Instant,
    attempted: u64,
    failed: u64,
}

/// The closed loop: commit, and every `read_every` commits drop the held
/// pin and take the next one. An in-process `Subscription` on each query
/// is the change observer: `delta_us` runs from a commit's start until
/// its event is in hand.
fn timed(
    shared: &SharedSession,
    inp: &Inputs,
    sizes: Sizes,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let subs = inp
        .queries
        .iter()
        .map(|(spec, _)| shared.subscribe(spec.name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("subscribe: {e}"))?;
    let start = Instant::now();
    let mut p = Phase {
        commits: Samples::default(),
        clean: Samples::default(),
        after_pin: Samples::default(),
        deltas: Samples::default(),
        reads: Samples::default(),
        pin_qh: Samples::default(),
        pin_ivm: Samples::default(),
        rate: RateWindows::new(start),
        end: 0,
        refused: Vec::new(),
        ended: start,
        attempted: 0,
        failed: 0,
    };
    let mut held: Option<QuerySnapshot> = None;
    // The q-hierarchical query pinned last, until a commit touches its
    // relations: that commit is where the copy-on-write clone lands.
    let mut pending: Option<usize> = None;
    let mut n = sizes.warm;
    let mut k = 0u64;
    // Each effective commit takes the next seq.
    let mut seq = shared.read(|s| s.seq()).map_err(|e| e.to_string())?;
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let u = inp.stream.get(n);
        let t0 = Instant::now();
        let res = shared.apply(&u);
        let t1 = Instant::now();
        n += 1;
        k += 1;
        p.attempted += 1;
        if let Ok(true) = res {
            seq += 1;
            let c = harness::us(t0, t1);
            p.commits.push(c);
            p.rate.hit(t1);
            let touches = |qi: usize| {
                inp.queries[qi]
                    .1
                    .atoms()
                    .iter()
                    .any(|a| a.relation == u.relation())
            };
            match pending {
                Some(qi) if touches(qi) => {
                    p.after_pin.push(c);
                    pending = None;
                }
                _ => p.clean.push(c),
            }
            let mut seen = false;
            for sub in &subs {
                while let Some(ev) = sub.poll() {
                    seen |= ev.seq == seq;
                }
            }
            if seen {
                p.deltas.push(harness::us(t0, Instant::now()));
            }
        } else {
            p.failed += 1;
            p.refused.push(n - 1);
            p.commits.push_failed();
            p.deltas.push_failed();
        }
        let mut end = t1;
        let mut calls: [Call; 5] = [("commit", ROOT, t0, t1); 5];
        let mut made = 1;
        if k.is_multiple_of(sizes.read_every) {
            let r0 = Instant::now();
            drop(held.take());
            let r1 = Instant::now();
            let qi = ((k / sizes.read_every) % 2) as usize;
            let spec = &inp.queries[qi].0;
            p.attempted += 1;
            match harness::read(|| shared.snapshot(spec.name), None) {
                Ok((snap, m)) => {
                    p.reads.push(harness::us(m[0], m[3]));
                    let pin = harness::us(m[0], m[1]);
                    if spec.qh {
                        p.pin_qh.push(pin);
                        pending = Some(qi);
                    } else {
                        // A delta-IVM pin materializes its view in the
                        // pin itself; the writer clones nothing after it.
                        p.pin_ivm.push(pin);
                    }
                    calls[1..].copy_from_slice(&[
                        ("unpin", "session", r0, r1),
                        ("pin", "session", m[0], m[1]),
                        ("count", "engine", m[1], m[2]),
                        ("enumerate", "engine", m[2], m[3]),
                    ]);
                    made = 5;
                    end = m[3];
                    held = Some(snap);
                }
                Err(_) => {
                    p.failed += 1;
                    p.reads.push_failed();
                }
            }
        }
        tracer.op("iter", seq, t0, end, &calls[..made]);
    }
    p.ended = Instant::now();
    p.end = n;
    Ok(p)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let sizes = Sizes::of(cfg.scale);
    let inp = generate(cfg.seed, sizes);
    let mut m = Measured::new(cfg.trace);
    let mut notes = vec![harness::inputs_rss_note()?];
    let mut tracer = Tracer::new(cfg.trace);

    let mut regs = None;
    let shared = if cfg.trace {
        let cal = setup(&inp, sizes, None)?;
        let secs = harness::calibration_seconds(cfg.seconds);
        let cal = timed(&cal, &inp, sizes, secs, &mut Tracer::new(false))?;
        let cal_p50 = cal
            .commits
            .quantile(0.5)
            .map_err(|e| format!("calibration: {e}"))?;
        let reg = Arc::new(Registry::new());
        let shared = setup(&inp, sizes, Some(Arc::clone(&reg)))?;
        regs = Some((reg, cal_p50));
        shared
    } else {
        let (shared, setup_s, n) = harness::repeat_setup(|| setup(&inp, sizes, None), drop)?;
        m.set("setup_s", setup_s, n);
        shared
    };
    let before = regs.as_ref().map(|(r, _)| RegSnap::take(r));
    let phase = timed(&shared, &inp, sizes, cfg.seconds, &mut tracer)?;
    let after = regs.as_ref().map(|(r, _)| RegSnap::take(r));

    m.p50_p99("commit_us_p50", "commit_us_p99", &phase.commits)?;
    m.p50_p99("delta_us_p50", "delta_us_p99", &phase.deltas)?;
    m.p50_p99("read_us_p50", "read_us_p99", &phase.reads)?;
    let (rate, windows) = phase.rate.median_rate(phase.ended);
    m.set("updates_per_s", rate, windows);
    m.set("peak_rss_mb", harness::peak_rss_mib()?, 1);

    if let (Some((_, cal_p50)), Some(before), Some(after)) = (&regs, &before, &after) {
        let commits = phase.commits.len().max(1) as f64;
        let p50 = m.get("commit_us_p50").expect("just measured");
        m.set(
            "trace.overhead_pct",
            harness::overhead_pct(p50, *cal_p50),
            phase.commits.len() as u64,
        );
        m.p50_p99(
            "session.pin_ivm_us_p50",
            "session.pin_ivm_us_p99",
            &phase.pin_ivm,
        )?;
        m.quantile("session.pin_qh_us_p50", &phase.pin_qh, 0.5)?;
        m.quantile("session.commit_clean_us_p50", &phase.clean, 0.5)?;
        m.quantile("session.commit_after_pin_us_p50", &phase.after_pin, 0.5)?;
        let pubs = after.counter(before, "session_epoch_publications_total");
        m.set(
            "session.epoch_publications_per_commit",
            pubs as f64 / commits,
            phase.commits.len() as u64,
        );
        let (count, sum, _) = after.hist(before, "session_commit_latency_ns");
        m.set(
            "session.commit_busy_ns_per_commit",
            sum as f64 / count.max(1) as f64,
            count,
        );
        tracer.attribute(ROOT, "session", sum);
        harness::finish_trace(cfg, &tracer, &mut m, &mut notes)?;
        drop(tracer);
        // Layer probes on the same inputs, after the measured phase.
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
            |i| shared.snapshot(inp.queries[i % 2].0.name),
            &mut m,
        )?;
    }

    // Oracle gate: each query's final result equals brute force on the
    // final database, which holds the commits the session accepted.
    let mut db = Database::new(inp.schema.clone());
    db.apply_all(&inp.preload);
    inp.stream.apply_prefix(&mut db, phase.end, &phase.refused);
    let mut correct = true;
    for (spec, q) in &inp.queries {
        let got = shared
            .snapshot(spec.name)
            .map_err(|e| format!("final snapshot: {e}"))?
            .results_sorted();
        if let Err(e) = oracle::check(spec.name, &got, &oracle::answers(q, &db, spec.root)) {
            notes.push(format!("ORACLE MISMATCH {e}"));
            correct = false;
        }
    }
    harness::report(cfg, correct, phase.attempted, phase.failed, m, notes)
}
