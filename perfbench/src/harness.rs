//! Pieces every workload shares: the metric catalogue, process memory,
//! the scratch directory, registry deltas, the read operation, and the
//! layer probes of the traced run (standalone engine replay, the session
//! ladder, count and enumeration delay).

use crate::report::{Metric, Report};
use crate::stats::Samples;
use crate::trace::Tracer;
use cq_updates::baseline::DeltaIvmEngine;
use cq_updates::dynamic::{DynamicEngine, QhEngine};
use cq_updates::obs::Registry;
use cq_updates::query::{Query, Schema};
use cq_updates::storage::{Database, Update};
use cq_updates::{CqError, QuerySnapshot, Session};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run, at least; `setup_s` is their median.
pub const SETUP_MIN_REPEATS: usize = 5;

/// Set-ups continue past the minimum until they have taken this long, so
/// a set-up of milliseconds is repeated often enough for a steady median.
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// Tuples each read enumerates after its count.
pub const READ_TUPLES: usize = 100;

/// Reads, and commits observed by a change feed, that a probe after the
/// timed phase collects. Each takes microseconds; this many spread a
/// probe over a few hundred milliseconds, so one scheduling hiccup does
/// not move its median.
pub const PROBE_SAMPLES: usize = 20_000;

/// The end-to-end metrics, in print order, with their units. Every
/// untraced run of every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("delta_us_p50", "us"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end quantities too unsteady from run to run on the reference
/// machine to carry a bound (see the README). Every run measures them;
/// the untraced run prints them in its table only, and the traced run
/// reports them as per-layer metrics.
pub const UNBOUNDED: [(&str, &str); 5] = [
    ("commit_us_p50", "us"),
    ("commit_us_p99", "us"),
    ("delta_us_p99", "us"),
    ("read_us_p50", "us"),
    ("read_us_p99", "us"),
];

/// The per-layer metrics of the traced run, in print order: the
/// [`UNBOUNDED`] ones, the replication lag under its own name (on
/// durable-repl it is that workload's `delta_us`), then the layers'. A
/// layer a workload bypasses reports 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("commit_us_p50", "us"),
    ("commit_us_p99", "us"),
    ("delta_us_p99", "us"),
    ("read_us_p50", "us"),
    ("read_us_p99", "us"),
    ("repl_lag_us_p50", "us"),
    ("repl_lag_us_p99", "us"),
    ("gen.late_us_p99", "us"),
    ("engine.qh.apply_ns_p50", "ns"),
    ("engine.qh.work_items_mean", "count"),
    ("engine.ivm.apply_ns_p50", "ns"),
    ("engine.count_ns_p50", "ns"),
    ("engine.enum_delay_ns_p50", "ns"),
    ("session.commit_clean_us_p50", "us"),
    ("session.commit_after_pin_us_p50", "us"),
    ("session.pin_qh_us_p50", "us"),
    ("session.pin_ivm_us_p50", "us"),
    ("session.pin_ivm_us_p99", "us"),
    ("session.epoch_publications_per_commit", "count"),
    ("session.commit_busy_ns_per_commit", "ns"),
    ("session.apply_bare_us_p50", "us"),
    ("session.apply_retained_us_p50", "us"),
    ("session.apply_subscribed_us_p50", "us"),
    ("shard.lock_wait_ns_per_commit", "ns"),
    ("wal.append_us_p50", "us"),
    ("wal.fsync_us_p50", "us"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.bytes_per_update", "B"),
    ("serve.commit_overhead_us_p50", "us"),
    ("serve.deliver_us_p50", "us"),
    ("serve.deliver_us_p99", "us"),
    ("serve.bytes_per_delta", "B"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("repl.ship_apply_us_p50", "us"),
    ("repl.ship_apply_us_p99", "us"),
    ("repl.acks_per_commit", "count"),
    ("repl.bootstrap_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Metric values as a workload measures them, before they are put in
/// catalogue order.
#[derive(Debug, Default)]
pub struct Measured {
    values: HashMap<&'static str, (f64, u64)>,
    /// Traced run: every percentile short of samples fails it.
    trace: bool,
    /// Percentiles an untraced run left out for want of samples, with
    /// the samples they had.
    short: HashMap<&'static str, u64>,
}

impl Measured {
    /// Values of one run mode: `trace` for the traced run.
    pub fn new(trace: bool) -> Measured {
        Measured {
            trace,
            ..Measured::default()
        }
    }

    /// Sets `name` to `value`, resting on `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, samples));
    }

    /// Sets `name` to the `q`-quantile of `s`. An empty `s` is a bypassed
    /// layer and sets nothing. When `s` is too small for the quantile, a
    /// metric of the run's result line fails the run; any other metric of
    /// an untraced run is only printed as `n/a`.
    pub fn quantile(&mut self, name: &'static str, s: &Samples, q: f64) -> Result<(), String> {
        if s.is_empty() {
            return Ok(());
        }
        match s.quantile(q) {
            Ok(v) => self.set(name, v, s.len() as u64),
            Err(_) if !self.trace && !END_TO_END.iter().any(|&(n, _)| n == name) => {
                self.short.insert(name, s.len() as u64);
            }
            Err(e) => return Err(format!("{name}: {e}")),
        }
        Ok(())
    }

    /// Sets the p50 and p99 metrics of `s`.
    pub fn p50_p99(
        &mut self,
        p50: &'static str,
        p99: &'static str,
        s: &Samples,
    ) -> Result<(), String> {
        self.quantile(p50, s, 0.5)?;
        self.quantile(p99, s, 0.99)
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// The metrics of the run's mode in catalogue order. Every end-to-end
    /// metric must have been measured; a missing per-layer metric is a
    /// bypassed layer and reads 0.
    pub fn into_metrics(self) -> Result<Vec<Metric>, String> {
        if self.trace {
            Ok(PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
                    Metric::new(name, v, unit, n)
                })
                .collect())
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let (v, n) = self
                        .values
                        .get(name)
                        .copied()
                        .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
                    Ok(Metric::new(name, v, unit, n))
                })
                .collect()
        }
    }

    /// The [`UNBOUNDED`] metrics for the untraced table; one left out for
    /// want of samples reads NaN (printed `n/a`) with the samples it had.
    pub fn unbounded(&self) -> Result<Vec<Metric>, String> {
        UNBOUNDED
            .iter()
            .map(|&(name, unit)| {
                let (v, n) = match (self.values.get(name), self.short.get(name)) {
                    (Some(&v), _) => v,
                    (None, Some(&n)) => (f64::NAN, n),
                    (None, None) => return Err(format!("metric {name} was not measured")),
                };
                Ok(Metric::new(name, v, unit, n))
            })
            .collect()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in process status".to_string())
}

/// The note that tells how much of `peak_rss_mb` the benchmark holds
/// before the program starts: process baseline plus generated inputs.
pub fn inputs_rss_note() -> Result<String, String> {
    Ok(format!(
        "harness VmHWM {:.1} MiB after generating inputs, before set-up",
        peak_rss_mib()?
    ))
}

/// A scratch directory under the run's work directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh directory `<work_dir>/<name>-<pid>-<n>`.
    pub fn new(work_dir: &Path, name: &str) -> Result<ScratchDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = work_dir.join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Counter values and histogram states of a registry at one instant,
/// for differencing across the timed phase.
#[derive(Debug, Clone, Default)]
pub struct RegSnap {
    counters: HashMap<&'static str, u64>,
    hists: HashMap<&'static str, (u64, u64, Vec<u64>)>,
}

/// Counters the traced run reads.
pub const COUNTERS: [&str; 7] = [
    "session_epoch_publications_total",
    "wal_fsyncs_total",
    "wal_append_bytes_total",
    "serve_bytes_out_total",
    "serve_deltas_sent_total",
    "serve_coalesced_total",
    "repl_leader_acks_total",
];

/// Histograms the traced run reads.
pub const HISTOGRAMS: [&str; 4] = [
    "session_commit_latency_ns",
    "session_shard_lock_wait_ns",
    "wal_append_latency_ns",
    "wal_fsync_latency_ns",
];

impl RegSnap {
    /// Reads every series of [`COUNTERS`] and [`HISTOGRAMS`].
    pub fn take(reg: &Registry) -> RegSnap {
        let counters = COUNTERS
            .iter()
            .map(|&n| (n, reg.counter(n).get()))
            .collect();
        let hists = HISTOGRAMS
            .iter()
            .map(|&n| {
                let s = reg.histogram(n).snapshot();
                (n, (s.count, s.sum, s.buckets.to_vec()))
            })
            .collect();
        RegSnap { counters, hists }
    }

    /// Counter growth since `before`.
    pub fn counter(&self, before: &RegSnap, name: &str) -> u64 {
        self.counters[name] - before.counters[name]
    }

    /// Histogram growth since `before`: `(count, sum, buckets)`.
    pub fn hist(&self, before: &RegSnap, name: &str) -> (u64, u64, Vec<u64>) {
        let (c1, s1, b1) = &self.hists[name];
        let (c0, s0, b0) = &before.hists[name];
        let buckets = b1.iter().zip(b0).map(|(a, b)| a - b).collect();
        (c1 - c0, s1 - s0, buckets)
    }
}

/// The instants of one read: before the pin, after the pin, after
/// `count()`, after the first [`READ_TUPLES`] tuples.
pub type ReadMarks = [Instant; 4];

/// One read: pin, `count()`, then the first [`READ_TUPLES`] tuples of
/// `enumerate()`. When `delays` is given, each `next()` is timed into it
/// (ns). Returns the pinned snapshot so the caller decides how long the
/// pin is held.
pub fn read(
    pin: impl FnOnce() -> Result<QuerySnapshot, CqError>,
    delays: Option<&mut Samples>,
) -> Result<(QuerySnapshot, ReadMarks), CqError> {
    let t0 = Instant::now();
    let snap = pin()?;
    let t1 = Instant::now();
    let count = std::hint::black_box(snap.count());
    let t2 = Instant::now();
    let mut taken = 0usize;
    let mut it = snap.enumerate();
    match delays {
        None => {
            for tuple in it.by_ref().take(READ_TUPLES) {
                std::hint::black_box(tuple);
                taken += 1;
            }
        }
        Some(d) => {
            let mut prev = t2;
            while taken < READ_TUPLES {
                let Some(tuple) = it.next() else { break };
                std::hint::black_box(tuple);
                let now = Instant::now();
                d.push((now - prev).as_nanos() as f64);
                prev = now;
                taken += 1;
            }
        }
    }
    drop(it);
    let t3 = Instant::now();
    assert_eq!(
        taken as u64,
        count.min(READ_TUPLES as u64),
        "enumeration disagrees with count"
    );
    Ok((snap, [t0, t1, t2, t3]))
}

/// Microseconds between two instants.
pub fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64 / 1e3
}

/// Reads `n` times, rotating over `pin`'s queries, and returns each
/// read's time in µs. Pins are dropped at once: no writer runs.
pub fn read_probe(
    n: usize,
    mut pin: impl FnMut(usize) -> Result<QuerySnapshot, CqError>,
) -> Result<Samples, String> {
    let mut s = Samples::with_capacity(n);
    for i in 0..n {
        let (snap, m) = read(|| pin(i), None).map_err(|e| format!("read: {e}"))?;
        drop(snap);
        s.push(us(m[0], m[3]));
    }
    Ok(s)
}

/// The count and per-tuple enumeration delay of [`read_probe`]-style
/// reads, in ns: `engine.count_ns_p50` and `engine.enum_delay_ns_p50`.
pub fn count_enum_probe(
    n: usize,
    mut pin: impl FnMut(usize) -> Result<QuerySnapshot, CqError>,
    m: &mut Measured,
) -> Result<(), String> {
    let mut counts = Samples::with_capacity(n);
    let mut delays = Samples::with_capacity(n * READ_TUPLES);
    for i in 0..n {
        let (snap, marks) = read(|| pin(i), Some(&mut delays)).map_err(|e| format!("read: {e}"))?;
        drop(snap);
        counts.push((marks[2] - marks[1]).as_nanos() as f64);
    }
    m.quantile("engine.count_ns_p50", &counts, 0.5)?;
    m.quantile("engine.enum_delay_ns_p50", &delays, 0.5)
}

/// A query of a workload, with how the session routes it.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Registered name.
    pub name: &'static str,
    /// Datalog source.
    pub src: &'static str,
    /// Oracle partition variable (see [`crate::oracle`]).
    pub root: &'static str,
    /// Whether the classifier routes it to the q-hierarchical engine.
    pub qh: bool,
}

/// The schema of a workload's queries, and each query remapped onto all
/// of it: engines built from a query copy the database over the query's
/// schema, so every query must know every relation of the database.
pub fn queries_of(specs: &[QuerySpec]) -> (Schema, Vec<(QuerySpec, Query)>) {
    let mut schema = Schema::new();
    for spec in specs {
        crate::gen::adopt(&mut schema, spec.src);
    }
    let queries = specs
        .iter()
        .map(|spec| (spec.clone(), crate::gen::adopt(&mut schema, spec.src)))
        .collect();
    (schema, queries)
}

/// Replays the timed phase's updates into standalone engines built on
/// the preloaded database (one engine at a time, so memory stays near
/// one engine's): `QhEngine` for each q-hierarchical query, and
/// `DeltaIvmEngine` for each query the session routes to delta-IVM — or,
/// on workloads with none, for every query, as the comparator the
/// classifier avoided. Only updates on a query's own relations are fed
/// to its engine.
pub fn engine_replay(
    queries: &[(QuerySpec, Query)],
    db0: &Database,
    warm: &[Update],
    timed: &[Update],
    m: &mut Measured,
) {
    let mut qh_ns = Samples::default();
    let mut qh_work = Samples::default();
    let mut ivm_ns = Samples::default();
    let any_ivm = queries.iter().any(|(s, _)| !s.qh);
    for (spec, q) in queries {
        let mine = |u: &&Update| q.atoms().iter().any(|a| a.relation == u.relation());
        if spec.qh {
            let mut e = QhEngine::new(q, db0).expect("q-hierarchical query builds");
            for u in warm.iter().filter(mine) {
                e.apply(u);
            }
            for u in timed.iter().filter(mine) {
                let t0 = Instant::now();
                e.apply(std::hint::black_box(u));
                qh_ns.push(t0.elapsed().as_nanos() as f64);
                qh_work.push(e.last_update_work() as f64);
            }
        }
        if !spec.qh || !any_ivm {
            let mut e = DeltaIvmEngine::new(q, db0);
            for u in warm.iter().filter(mine) {
                e.apply(u);
            }
            for u in timed.iter().filter(mine) {
                let t0 = Instant::now();
                e.apply(std::hint::black_box(u));
                ivm_ns.push(t0.elapsed().as_nanos() as f64);
            }
        }
    }
    m.set(
        "engine.qh.apply_ns_p50",
        qh_ns.p50_or_zero(),
        qh_ns.len() as u64,
    );
    m.set(
        "engine.qh.work_items_mean",
        qh_work.mean(),
        qh_work.len() as u64,
    );
    m.set(
        "engine.ivm.apply_ns_p50",
        ivm_ns.p50_or_zero(),
        ivm_ns.len() as u64,
    );
}

/// The session ladder on the workload's own stream: a standalone
/// `Session` on the preloaded database replays the timed updates, the
/// first third bare, the second with `retain_deltas(8192)` on every
/// query, the last with an in-process `Subscription` on every query too.
/// Each rung's `Session::apply` p50 isolates what retention and fan-out
/// add to a commit.
pub fn session_ladder(
    schema: &Schema,
    queries: &[(QuerySpec, Query)],
    preload: &[Update],
    warm: &[Update],
    timed: &[Update],
    m: &mut Measured,
) -> Result<(), String> {
    let err = |e: CqError| format!("ladder session: {e}");
    let mut s = Session::open(schema.clone());
    for chunk in preload.chunks(1 << 16) {
        s.apply_batch(chunk).map_err(err)?;
    }
    for (spec, _) in queries {
        s.register(spec.name, spec.src).map_err(err)?;
    }
    for u in warm {
        s.apply(u).map_err(err)?;
    }
    let third = timed.len() / 3;
    let mut rungs = [Samples::default(), Samples::default(), Samples::default()];
    let mut subs = Vec::new();
    for (rung, part) in timed.chunks(third.max(1)).take(3).enumerate() {
        if rung == 1 {
            for (spec, _) in queries {
                s.query(spec.name).map_err(err)?.retain_deltas(8192);
            }
        }
        if rung == 2 {
            for (spec, _) in queries {
                subs.push(s.query(spec.name).map_err(err)?.subscribe());
            }
        }
        for (i, u) in part.iter().enumerate() {
            let t0 = Instant::now();
            s.apply(u).map_err(err)?;
            rungs[rung].push(us(t0, Instant::now()));
            if i % 1024 == 1023 {
                for sub in &subs {
                    sub.drain();
                }
            }
        }
    }
    m.set(
        "session.apply_bare_us_p50",
        rungs[0].p50_or_zero(),
        rungs[0].len() as u64,
    );
    m.set(
        "session.apply_retained_us_p50",
        rungs[1].p50_or_zero(),
        rungs[1].len() as u64,
    );
    m.set(
        "session.apply_subscribed_us_p50",
        rungs[2].p50_or_zero(),
        rungs[2].len() as u64,
    );
    Ok(())
}

/// `trace.overhead_pct`: the traced run's commit p50 against the
/// untraced calibration phase's, in percent.
pub fn overhead_pct(traced_p50: f64, untraced_p50: f64) -> f64 {
    100.0 * (traced_p50 / untraced_p50 - 1.0)
}

/// Finishes a traced run's report: span summary lines, the remainder
/// metric, and the span dump under the work directory.
pub fn finish_trace(
    cfg: &crate::Config,
    tracer: &Tracer,
    m: &mut Measured,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    notes.extend(tracer.summary(&cfg.workload));
    m.set(
        "trace.unattributed_pct",
        tracer.unattributed_pct(),
        tracer.roots(),
    );
    let path = cfg
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    Ok(())
}

/// Assembles the report of a run.
pub fn report(
    cfg: &crate::Config,
    correct: bool,
    attempted: u64,
    failed: u64,
    m: Measured,
    notes: Vec<String>,
) -> Result<Report, String> {
    let unbounded = if cfg.trace {
        Vec::new()
    } else {
        m.unbounded()?
    };
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics: m.into_metrics()?,
        unbounded,
        notes,
    })
}

/// Sleeps until shortly before `due`, then spins until it passes: sleep
/// alone overshoots by tens of µs, and a longer spin would take a core
/// from the program's own threads on a small machine.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// How long [`wait_until`] spins before a due time.
const SPIN: Duration = Duration::from_micros(80);

/// Builds a deployment at least [`SETUP_MIN_REPEATS`] times and until
/// [`SETUP_MIN_SECONDS`] have passed, tearing down all but the last.
/// Returns the last one and the median set-up time in seconds, with the
/// number of set-ups.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64, u64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let began = Instant::now();
    while times.len() < SETUP_MIN_REPEATS
        || (began.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && times.len() < 200)
    {
        if let Some(old) = kept.take() {
            teardown(old);
            release_freed_memory();
        }
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let kept = kept.expect("at least one set-up");
    Ok((kept, crate::stats::median(&times), times.len() as u64))
}

/// Hands the memory a torn-down set-up freed back to the kernel. The
/// allocator keeps freed memory in its per-thread arenas, so without
/// this the set-ups that time `setup_s` leave their garbage resident and
/// inflate `peak_rss_mb` by an amount that varies from run to run (see
/// the README).
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns free
        // heap pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Completed operations per fixed one-second window `[k, k + 1)` of the
/// timed phase. `updates_per_s` is the median window: a moment the
/// machine stalled the run is one outlier among many, yet a window with
/// no completions counts as 0, so a writer that stalls often moves it.
/// The count at each window edge is read off the cumulative completions
/// interpolated linearly between the completions on either side of the
/// edge, so a window's count carries the measured timing instead of
/// snapping to a whole number (an open loop would otherwise report its
/// schedule).
#[derive(Debug)]
pub struct RateWindows {
    start: Instant,
    /// Completions so far, and when the last one was.
    done: u64,
    last: Instant,
    /// Cumulative completions at `start + (k + 1)` s, for each edge `k`
    /// the completions have passed.
    edges: Vec<f64>,
}

impl RateWindows {
    /// Windows counted from `start`.
    pub fn new(start: Instant) -> RateWindows {
        RateWindows {
            start,
            done: 0,
            last: start,
            edges: Vec::new(),
        }
    }

    /// The instant of window edge `k`.
    fn edge(&self, k: usize) -> Instant {
        self.start + Duration::from_secs(k as u64 + 1)
    }

    /// Counts one operation completed at `at` (completions come in order).
    pub fn hit(&mut self, at: Instant) {
        let passed = at.saturating_duration_since(self.start).as_secs() as usize;
        while self.edges.len() < passed {
            let edge = self.edge(self.edges.len());
            let span = at.saturating_duration_since(self.last).as_secs_f64();
            let part = edge.saturating_duration_since(self.last).as_secs_f64();
            let frac = if span > 0.0 { part / span } else { 0.0 };
            self.edges.push(self.done as f64 + frac);
        }
        self.done += 1;
        self.last = at;
    }

    /// The median count over the whole windows from `start` to `end`, and
    /// the number of windows. Edges after the last completion read the
    /// final count: those windows stalled. With no whole window: the
    /// average rate from `start` to `end`.
    pub fn median_rate(&self, end: Instant) -> (f64, u64) {
        let whole = end.saturating_duration_since(self.start).as_secs() as usize;
        if whole == 0 {
            let secs = end.saturating_duration_since(self.start).as_secs_f64();
            return (self.done as f64 / secs.max(1e-9), 1);
        }
        let mut edges = self.edges.clone();
        edges.resize(edges.len().max(whole), self.done as f64);
        let counts: Vec<f64> = std::iter::once(0.0)
            .chain(edges.iter().copied())
            .zip(edges.iter().take(whole))
            .map(|(from, to)| to - from)
            .collect();
        (crate::stats::median(&counts), counts.len() as u64)
    }
}

/// The calibration phase's length in a traced run: long enough for a
/// steady commit p50, short beside the traced phase.
pub fn calibration_seconds(seconds: f64) -> f64 {
    (seconds / 3.0).max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(crate::report::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} twice");
        }
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_and_bypassed_layers_read_zero() {
        assert!(Measured::new(false).into_metrics().is_err());
        let metrics = Measured::new(true).into_metrics().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|x| x.value == 0.0 && x.samples == 0));
    }

    /// Windows of `per_s[k]` operations spread evenly over second `k`.
    fn windows(per_s: &[u32]) -> (Instant, RateWindows) {
        let t0 = Instant::now();
        let mut w = RateWindows::new(t0);
        for (sec, &n) in per_s.iter().enumerate() {
            for i in 0..n {
                let offset = (f64::from(i) + 0.5) / f64::from(n);
                w.hit(t0 + Duration::from_secs_f64(sec as f64 + offset));
            }
        }
        (t0, w)
    }

    #[test]
    fn window_rates_take_the_median_and_count_a_stalled_window_as_zero() {
        let (t0, w) = windows(&[100, 100, 0, 100]);
        let (rate, n) = w.median_rate(t0 + Duration::from_secs(4));
        assert_eq!(n, 4);
        assert!((rate - 100.0).abs() < 1.0, "{rate}");
        // Every other second stalled: half the operations, half the rate.
        let (t0, w) = windows(&[100, 0, 100, 0, 100, 0]);
        let (rate, n) = w.median_rate(t0 + Duration::from_secs(6));
        assert_eq!(n, 6);
        assert!((rate - 50.0).abs() < 1.0, "{rate}");
        // Stalled from second 2 on: those windows read 0.
        let (t0, w) = windows(&[100, 100]);
        let (rate, n) = w.median_rate(t0 + Duration::from_secs(5));
        assert_eq!(n, 5);
        assert!(rate < 1.0, "{rate}");
    }

    #[test]
    fn window_counts_interpolate_at_the_edges_and_drop_the_partial_window() {
        let (t0, w) = windows(&[100, 100, 100]);
        // The last window is not whole: it is left out. Each edge falls
        // halfway between two completions: the first window gets the half
        // before its first completion too, so it reads 100.5, the second 100.
        let (rate, n) = w.median_rate(t0 + Duration::from_millis(2_999));
        assert_eq!(n, 2);
        assert!((rate - 100.25).abs() < 1e-6, "{rate}");
        // 0.5 s between completions: half of each gap falls on either side
        // of an edge.
        let t0 = Instant::now();
        let mut w = RateWindows::new(t0);
        for k in 0..4u64 {
            w.hit(t0 + Duration::from_millis(250 + 500 * k));
        }
        let (rate, _) = w.median_rate(t0 + Duration::from_secs(2));
        assert!((rate - 2.0).abs() < 1e-9, "{rate}");
        let mut short = RateWindows::new(t0);
        short.hit(t0 + Duration::from_millis(100));
        short.hit(t0 + Duration::from_millis(200));
        let (rate, _) = short.median_rate(t0 + Duration::from_millis(500));
        assert!((rate - 4.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn setups_repeat_until_the_minimum_count_and_time() {
        let mut built = 0;
        let mut torn = 0;
        let (last, median, n) = repeat_setup(
            || {
                built += 1;
                Ok(built)
            },
            |_| torn += 1,
        )
        .unwrap();
        assert!(n as usize >= SETUP_MIN_REPEATS);
        assert_eq!(last, n as i32);
        assert_eq!(torn, n - 1);
        assert!(median >= 0.0);
    }

    #[test]
    fn a_p99_on_too_few_samples_fails_loudly_where_it_is_reported() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(i as f64);
        }
        // Traced: every percentile is a reported per-layer metric.
        let mut m = Measured::new(true);
        let err = m.p50_p99("read_us_p50", "read_us_p99", &s).unwrap_err();
        assert!(err.contains("read_us_p99"), "{err}");
        // Untraced: a result-line metric fails too...
        let mut m = Measured::new(false);
        let err = m.quantile("delta_us_p50", &Samples::default(), 0.5);
        assert!(err.is_ok(), "an empty set is a bypassed layer");
        let few = {
            let mut f = Samples::default();
            f.push(1.0);
            f
        };
        assert!(m.quantile("delta_us_p50", &few, 0.5).is_err());
        // ...while an unbounded one, out of the result line, reads n/a.
        m.p50_p99("read_us_p50", "read_us_p99", &s).unwrap();
        for name in [
            "commit_us_p50",
            "commit_us_p99",
            "delta_us_p99",
            "read_us_p50",
        ] {
            m.set(name, 1.0, 1000);
        }
        let table = m.unbounded().unwrap();
        let p99 = table.iter().find(|x| x.name == "read_us_p99").unwrap();
        assert!(p99.value.is_nan() && p99.samples == 100, "{p99:?}");
    }
}
