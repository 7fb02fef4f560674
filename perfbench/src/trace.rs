//! Spans for the traced run.
//!
//! The benchmark records a span around each public call it makes into
//! the program — commit, pin, count, enumerate, `Client::next`,
//! `wait_for_seq` — with a name, the layer it enters, start, end and
//! parent. Each operation on the measured path is a root span whose
//! children are those calls; the spans of one commit share that commit's
//! seq as their id. Spans stay in memory until the run ends and are then
//! written out (the first [`KEPT_ROOTS`] operations' spans, so a dump
//! stays a few MiB; the self times below cover every operation).
//!
//! A span's self time is its duration minus its children's. A commit
//! passes through layers the benchmark cannot time from outside, so its
//! span belongs to no layer; the program's registry sums per stage (WAL
//! append and fsync, session commit, shard lock wait) move their time to
//! those layers. What is left — commit time no stage accounts for, and
//! time on the measured path inside no call at all — is the
//! *unattributed remainder*.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer of root spans, and of calls no single layer owns: what is
/// left of it is the unattributed remainder.
pub const ROOT: &str = "unattributed";

/// Operations whose spans are kept for the dump.
pub const KEPT_ROOTS: u64 = 10_000;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, e.g. `commit`.
    pub name: &'static str,
    /// The layer the call enters (`session`, `wal`, `serve`, …).
    pub layer: &'static str,
    /// The seq of the commit this span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the dump.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    /// Nanoseconds since the tracer's origin.
    pub end: u64,
}

/// A call inside an operation: name, layer, start, end.
pub type Call = (&'static str, &'static str, Instant, Instant);

/// Span recorder with running per-layer self times. When off, recording
/// is a branch and nothing more.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    self_ns: BTreeMap<&'static str, i128>,
    root_ns: u64,
    roots: u64,
    kept: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            self_ns: BTreeMap::new(),
            root_ns: 0,
            roots: 0,
            kept: Vec::new(),
        }
    }

    /// `(start, end)` in ns since the origin; an end before the start —
    /// another thread's clock read racing this one's — gives an empty span.
    fn ns(&self, start: Instant, end: Instant) -> (u64, u64) {
        let s = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let e = end.saturating_duration_since(self.origin).as_nanos() as u64;
        (s, e.max(s))
    }

    /// Records one operation: a root span `name` from `start` to `end`
    /// and the calls it made.
    pub fn op(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        calls: &[Call],
    ) {
        if !self.on {
            return;
        }
        let (s, e) = self.ns(start, end);
        let mut root_self = (e - s) as i128;
        let keep = self.roots < KEPT_ROOTS;
        let parent = self.kept.len();
        if keep {
            self.kept.push(Span {
                name,
                layer: ROOT,
                id,
                parent: None,
                start: s,
                end: e,
            });
        }
        for &(cname, layer, a, b) in calls {
            let (cs, ce) = self.ns(a, b);
            root_self -= (ce - cs) as i128;
            *self.self_ns.entry(layer).or_default() += (ce - cs) as i128;
            if keep {
                self.kept.push(Span {
                    name: cname,
                    layer,
                    id,
                    parent: Some(parent),
                    start: cs,
                    end: ce,
                });
            }
        }
        *self.self_ns.entry(ROOT).or_default() += root_self;
        self.root_ns += e - s;
        self.roots += 1;
    }

    /// Moves `ns` of `from`'s self time to layer `to`, as the program's
    /// registry measured it inside `from`'s calls.
    pub fn attribute(&mut self, from: &'static str, to: &'static str, ns: u64) {
        if self.on && ns > 0 {
            *self.self_ns.entry(from).or_default() -= ns as i128;
            *self.self_ns.entry(to).or_default() += ns as i128;
        }
    }

    /// The spans kept for the dump.
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// Self time per layer, in ns; the [`ROOT`] entry is the remainder.
    pub fn self_times(&self) -> &BTreeMap<&'static str, i128> {
        &self.self_ns
    }

    /// Total duration of the operations (the measured path), in ns.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Number of operations recorded.
    pub fn roots(&self) -> u64 {
        self.roots
    }

    /// The self-time lines: one per layer, then the remainder line.
    pub fn summary(&self, workload: &str) -> Vec<String> {
        let total = self.root_ns.max(1) as f64;
        let ops = self.roots.max(1) as f64;
        let line = |what: String, ns: i128| {
            format!(
                "trace {workload} {what} self_ms={:>12.3} per_op_us={:>10.3} share={:>6.2}%",
                ns as f64 / 1e6,
                ns as f64 / 1e3 / ops,
                100.0 * ns as f64 / total
            )
        };
        let mut lines: Vec<String> = self
            .self_ns
            .iter()
            .filter(|(l, _)| **l != ROOT)
            .map(|(layer, &ns)| line(format!("layer={layer:<8}"), ns))
            .collect();
        let rest = self.self_ns.get(ROOT).copied().unwrap_or(0);
        lines.push(line("unattributed_remainder".to_string(), rest));
        lines
    }

    /// The remainder's share of the measured path, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        let rest = self.self_ns.get(ROOT).copied().unwrap_or(0);
        100.0 * rest as f64 / self.root_ns.max(1) as f64
    }

    /// Writes the kept spans, one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.layer, s.id, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_calls_and_moves_attributed_time() {
        let mut t = Tracer::new(true);
        let at = |us: u64| t.origin + Duration::from_micros(us);
        let calls = [
            ("commit", ROOT, at(10), at(70)),
            ("wait_for_seq", "repl", at(70), at(95)),
        ];
        t.op("iter", 7, at(0), at(100), &calls);
        t.attribute(ROOT, "wal", 40_000);
        t.attribute(ROOT, "session", 5_000);
        let times = t.self_times();
        // 15 µs outside both calls + 60 − 40 − 5 µs of the commit.
        assert_eq!(times[ROOT], 30_000);
        assert_eq!(times["wal"], 40_000);
        assert_eq!(times["session"], 5_000);
        assert_eq!(times["repl"], 25_000);
        assert_eq!(t.root_ns(), 100_000);
        assert!((t.unattributed_pct() - 30.0).abs() < 1e-9);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert!(t
            .summary("w")
            .last()
            .unwrap()
            .contains("unattributed_remainder"));
    }

    #[test]
    fn a_racing_end_gives_an_empty_span() {
        let mut t = Tracer::new(true);
        let at = |us: u64| t.origin + Duration::from_micros(us);
        t.op(
            "delta",
            1,
            at(0),
            at(10),
            &[("client.next", "serve", at(8), at(5))],
        );
        assert_eq!(t.self_times()["serve"], 0);
        assert_eq!(t.self_times()[ROOT], 10_000);
    }

    #[test]
    fn the_dump_is_bounded_but_the_totals_are_not() {
        let mut t = Tracer::new(true);
        let now = t.origin;
        for i in 0..KEPT_ROOTS + 5 {
            t.op("iter", i, now, now + Duration::from_nanos(10), &[]);
        }
        assert_eq!(t.spans().len() as u64, KEPT_ROOTS);
        assert_eq!(t.roots(), KEPT_ROOTS + 5);
        assert_eq!(t.root_ns(), 10 * (KEPT_ROOTS + 5));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        t.op("iter", 1, now, now, &[("commit", ROOT, now, now)]);
        t.attribute(ROOT, "wal", 5);
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
