//! Lock-free runtime observability: a metrics [`Registry`] of atomic
//! [`Counter`]s, [`Gauge`]s, and fixed log2-bucket [`Histogram`]s, plus
//! a bounded in-memory [`EventJournal`] of timestamped structural
//! events.
//!
//! The design contract, enforced by construction:
//!
//! * **The record path is lock-free and allocation-free.** A metric
//!   handle is an `Arc` around plain `AtomicU64`s; `inc`, `set`, and
//!   `record` are a handful of relaxed atomic ops. Hot paths (commit
//!   loops, fan-out pumps, WAL appends) may record unconditionally.
//! * **Registration is the cold path.** Creating or looking up a handle
//!   takes the registry mutex once; callers hold the returned `Arc` for
//!   the lifetime of the instrumented object.
//! * **Reads are advisory.** [`Registry::render`] and multi-field stats
//!   snapshots read each atom independently — individually exact,
//!   collectively not one atomic cut (a commit may land between two
//!   loads). Anything needing a consistent multi-metric cut must read
//!   under the subsystem's own lock.
//!
//! The exposition format is Prometheus-style text, one
//! `name{label="v"} value` line per sample, rendered deterministically
//! (sorted by name, then labels) so tests can pin it. Histograms render
//! cumulative `_bucket{le="..."}` lines for non-empty buckets plus
//! `+Inf`, `_sum`, and `_count`.
//!
//! ```
//! use cqu_obs::Registry;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(Registry::new());
//! let commits = reg.counter("wal_commits_total");
//! let lat = reg.histogram("commit_latency_ns");
//! commits.inc();
//! lat.record(1_500);
//! reg.journal().record("checkpoint", "seq=42");
//! assert!(reg.render().contains("wal_commits_total 1"));
//! ```

use cqu_common::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// A monotone event counter. All operations are single relaxed atomic
/// ops — safe on any hot path.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (queue depth, lag, connection count).
/// All operations are single relaxed atomic ops.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero against racing decrements.
    pub fn sub(&self, n: u64) {
        let mut cur = self.v.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .v
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: one per possible position of a `u64`'s
/// leading bit, so every value maps to exactly one bucket with no
/// configuration.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed log2-bucket histogram. Bucket `b` counts values whose
/// highest set bit is `b` (bucket 0 additionally holds zero), i.e.
/// values in `[2^b, 2^(b+1))`; the rendered `le` boundary of bucket `b`
/// is `2^(b+1) - 1`. `record` is three relaxed atomic adds — no locks,
/// no allocation, no configuration.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket index a value lands in: the position of its highest set
/// bit (zero lands in bucket 0).
pub fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `b` (`2^(b+1) - 1`, saturating
/// to `u64::MAX` for the last bucket).
pub fn bucket_bound(b: usize) -> u64 {
    if b >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Times `f` and records the elapsed nanoseconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let out = f();
        self.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// An advisory point-in-time copy of the bucket counts (each bucket
    /// read independently).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An advisory copy of a [`Histogram`]'s state, with quantile
/// estimation (upper-bounded by log2 bucket resolution: an estimate is
/// at most 2× the true value).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// The upper bound of the bucket containing the `q`-quantile
    /// observation (`q` in `[0, 1]`), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(b);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One structural event (WAL repair, segment rotation, checkpoint,
/// follower bootstrap, promotion, lag-disconnect, …) recorded in an
/// [`EventJournal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-journal sequence number — total events ever
    /// recorded when this one landed, so wraparound is observable.
    pub id: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub at_unix_ms: u64,
    /// Event kind, a static tag (`"wal_repair"`, `"promotion"`, …).
    pub kind: &'static str,
    /// Free-form detail (`"seq=42"`, an address, an error string).
    pub detail: String,
}

struct JournalInner {
    next_id: u64,
    ring: VecDeque<Event>,
}

/// A bounded in-memory ring of timestamped structural [`Event`]s.
/// Recording is mutex-guarded (structural events are rare — never on a
/// per-commit path); once full, the oldest event is dropped. Event ids
/// are monotone, so a reader can tell how many events wrapped away.
pub struct EventJournal {
    cap: usize,
    inner: Mutex<JournalInner>,
}

impl EventJournal {
    /// A journal retaining at most `cap` events (`cap` is clamped to at
    /// least 1).
    pub fn new(cap: usize) -> EventJournal {
        EventJournal {
            cap: cap.max(1),
            inner: Mutex::new(JournalInner {
                next_id: 0,
                ring: VecDeque::new(),
            }),
        }
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&self, kind: &'static str, detail: impl Into<String>) {
        let at_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut inner = lock(&self.inner);
        let id = inner.next_id;
        inner.next_id += 1;
        if inner.ring.len() == self.cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(Event {
            id,
            at_unix_ms,
            kind,
            detail: detail.into(),
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.inner).ring.iter().cloned().collect()
    }

    /// Total events ever recorded (including ones that wrapped away).
    pub fn total_recorded(&self) -> u64 {
        lock(&self.inner).next_id
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("cap", &self.cap)
            .field("len", &lock(&self.inner).ring.len())
            .finish()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct RegistryEntry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// The default [`EventJournal`] capacity of a [`Registry`].
pub const DEFAULT_JOURNAL_CAP: usize = 256;

/// A named collection of metrics plus a structural [`EventJournal`].
///
/// Registration (`counter`/`gauge`/`histogram`) is idempotent: the same
/// `(name, labels)` pair always returns the same handle, so independent
/// subsystems — and tests reading what a subsystem wrote — can resolve
/// a metric without coordinating. Registering an existing name with a
/// different metric type panics (a programming error, caught early).
pub struct Registry {
    entries: Mutex<Vec<RegistryEntry>>,
    journal: EventJournal,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with the default journal capacity.
    pub fn new() -> Registry {
        Registry::with_journal_capacity(DEFAULT_JOURNAL_CAP)
    }

    /// An empty registry retaining at most `cap` journal events.
    pub fn with_journal_capacity(cap: usize) -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
            journal: EventJournal::new(cap),
        }
    }

    /// The structural event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut entries = lock(&self.entries);
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && labels_eq(&e.labels, labels))
        {
            let metric = e.metric.clone();
            let want = make();
            assert!(
                std::mem::discriminant(&metric) == std::mem::discriminant(&want),
                "metric {name:?} already registered as a {}, requested as a {}",
                metric.kind(),
                want.kind()
            );
            return metric;
        }
        let metric = make();
        entries.push(RegistryEntry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// The counter named `name` (no labels), created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter named `name` with `labels`, created on first use.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => unreachable!("type checked in get_or_insert"),
        }
    }

    /// The gauge named `name` (no labels), created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge named `name` with `labels`, created on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => unreachable!("type checked in get_or_insert"),
        }
    }

    /// The histogram named `name` (no labels), created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram named `name` with `labels`, created on first use.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => unreachable!("type checked in get_or_insert"),
        }
    }

    /// Unregisters the metric with exactly `(name, labels)` (for
    /// per-entity labeled series whose entity departed, e.g. a detached
    /// follower's lag gauge). Existing handles keep working; the series
    /// just stops rendering. Returns whether a metric was removed.
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let mut entries = lock(&self.entries);
        let before = entries.len();
        entries.retain(|e| !(e.name == name && labels_eq(&e.labels, labels)));
        entries.len() != before
    }

    /// Distinct registered series count (one histogram is one series).
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        lock(&self.entries).is_empty()
    }

    /// The distinct registered metric names, sorted and deduplicated
    /// (label variants collapse to one name).
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.entries).iter().map(|e| e.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Renders every metric in Prometheus-style text exposition format:
    /// one `name{label="v"} value` line per sample, sorted by name then
    /// labels (deterministic for a given state). Histograms emit
    /// cumulative `name_bucket{le="..."}` lines for each non-empty
    /// bucket plus `+Inf`, then `name_sum` and `name_count`. The output
    /// is an advisory read: each atom is loaded independently.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        {
            let entries = lock(&self.entries);
            for e in entries.iter() {
                match &e.metric {
                    Metric::Counter(c) => {
                        lines.push(sample_line(&e.name, &e.labels, None, c.get()));
                    }
                    Metric::Gauge(g) => {
                        lines.push(sample_line(&e.name, &e.labels, None, g.get()));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (b, &n) in snap.buckets.iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            cum += n;
                            lines.push(sample_line(
                                &format!("{}_bucket", e.name),
                                &e.labels,
                                Some(("le", &bucket_bound(b).to_string())),
                                cum,
                            ));
                        }
                        lines.push(sample_line(
                            &format!("{}_bucket", e.name),
                            &e.labels,
                            Some(("le", "+Inf")),
                            snap.count,
                        ));
                        lines.push(sample_line(
                            &format!("{}_sum", e.name),
                            &e.labels,
                            None,
                            snap.sum,
                        ));
                        lines.push(sample_line(
                            &format!("{}_count", e.name),
                            &e.labels,
                            None,
                            snap.count,
                        ));
                    }
                }
            }
        }
        lines.sort();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("series", &self.len())
            .field("journal", &self.journal)
            .finish()
    }
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn sample_line(
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: u64,
) -> String {
    let mut line = String::with_capacity(name.len() + 24);
    line.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        line.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(k);
            line.push_str("=\"");
            line.push_str(&escape_label(v));
            line.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                line.push(',');
            }
            line.push_str(k);
            line.push_str("=\"");
            line.push_str(&escape_label(v));
            line.push('"');
        }
        line.push('}');
    }
    line.push(' ');
    line.push_str(&value.to_string());
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_are_exact_under_concurrency() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("hits_total");
        let g = reg.gauge("depth");
        const THREADS: usize = 8;
        const OPS: usize = 10_000;
        thread::scope(|s| {
            for _ in 0..THREADS {
                let c = Arc::clone(&c);
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for _ in 0..OPS {
                        c.inc();
                        g.add(2);
                        g.sub(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), (THREADS * OPS) as u64);
        assert_eq!(g.get(), (THREADS * OPS) as u64);
    }

    #[test]
    fn histogram_totals_are_exact_under_concurrency() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ns");
        const THREADS: u64 = 8;
        const OPS: u64 = 10_000;
        thread::scope(|s| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..OPS {
                        h.record(t * OPS + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * OPS);
        assert_eq!(snap.sum, (0..THREADS * OPS).sum::<u64>());
        assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * OPS);
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(9), 1023);
        assert_eq!(bucket_bound(63), u64::MAX);
        // Every boundary value lands in the bucket whose bound names it.
        for b in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_bound(b)), b, "bound of bucket {b}");
            assert_eq!(bucket_index(bucket_bound(b) + 1), b + 1);
        }
    }

    #[test]
    fn histogram_quantiles_upper_bound_the_samples() {
        let reg = Registry::new();
        let h = reg.histogram("q");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        // p50 of {1,2,3,100,1000} is 3 → bucket bound ≥ 3, < 2×3+1.
        assert!(snap.quantile(0.5) >= 3 && snap.quantile(0.5) <= 7);
        assert!(snap.quantile(1.0) >= 1000);
        assert_eq!(snap.quantile(0.0), 1, "rank clamps to the first sample");
    }

    #[test]
    fn journal_wraps_in_order_with_monotone_ids() {
        let j = EventJournal::new(4);
        for i in 0..10 {
            j.record("tick", format!("n={i}"));
        }
        let events = j.events();
        assert_eq!(events.len(), 4);
        assert_eq!(j.total_recorded(), 10);
        // Oldest→newest, ids monotone and dense, the last 4 of 10.
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(events[0].detail, "n=6");
        assert_eq!(events[3].detail, "n=9");
        assert!(events
            .windows(2)
            .all(|w| w[0].at_unix_ms <= w[1].at_unix_ms));
    }

    #[test]
    fn registration_is_idempotent_and_type_checked() {
        let reg = Registry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.inc();
        assert_eq!(b.get(), 1, "same (name, labels) is the same atom");
        let l1 = reg.gauge_with("g", &[("shard", "0")]);
        let l2 = reg.gauge_with("g", &[("shard", "1")]);
        l1.set(5);
        assert_eq!(l2.get(), 0, "label variants are distinct series");
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.metric_names(), vec!["c".to_string(), "g".to_string()]);
        assert!(reg.remove("g", &[("shard", "1")]));
        assert!(!reg.remove("g", &[("shard", "1")]));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    /// Golden test pinning the exposition format: line shapes, label
    /// quoting, histogram bucket/sum/count naming, and sort order.
    #[test]
    fn render_golden() {
        let reg = Registry::new();
        reg.counter("b_total").add(7);
        reg.gauge_with("a_depth", &[("shard", "0")]).set(3);
        let h = reg.histogram("lat_ns");
        h.record(1); // bucket 0, le="1"
        h.record(3); // bucket 1, le="3"
        h.record(3);
        let got = reg.render();
        let want = "\
a_depth{shard=\"0\"} 3
b_total 7
lat_ns_bucket{le=\"+Inf\"} 3
lat_ns_bucket{le=\"1\"} 1
lat_ns_bucket{le=\"3\"} 3
lat_ns_count 3
lat_ns_sum 7
";
        assert_eq!(got, want);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("c", &[("k", "a\"b\\c\nd")]).inc();
        assert_eq!(reg.render(), "c{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }
}
