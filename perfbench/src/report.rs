//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, printed last on standard output, after a
//! human-readable table that also gives each metric's sample count.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `1/s`, `MiB`, `count`.
    pub unit: &'static str,
    /// How many samples the value rests on.
    pub samples: u64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every oracle check passed.
    pub correct: bool,
    /// Operations attempted (commits, reads, deliveries, waits).
    pub attempted: u64,
    /// Operations that failed (see the README's failure accounting).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// End-to-end quantities printed in the table but kept out of the
    /// result line (too unsteady to carry a bound); NaN when a run had
    /// too few samples for the percentile, printed `n/a`.
    pub unbounded: Vec<Metric>,
    /// Extra lines printed before the table (trace self times, notes).
    pub notes: Vec<String>,
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit string.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A JSON number for `v`. Rust's `{}` prints the shortest string that
/// reads back to the same `f64`, so every measured digit is kept.
/// Infinite values (a percentile landing on a failed operation) have no
/// JSON form and print as `1e300`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "1e300".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    /// The result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table: one line per metric with its sample
    /// count, then the failure ratio.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<38} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for m in &self.unbounded {
            let value = if m.value.is_nan() {
                "n/a".to_string()
            } else {
                format!("{:.4}", m.value)
            };
            let _ = writeln!(
                out,
                "metric {:<38} {:>16} {:<6} n={} (unbounded: not in the result line)",
                m.name, value, m.unit, m.samples
            );
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "metric {:<38} {:>16.6} {:<6} n={}",
            "failed_ops_ratio", ratio, "ratio", self.attempted
        );
        out
    }

    /// Checks every name and unit, and that no name repeats.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for m in &self.metrics {
            if !valid_name(m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("invalid unit {:?} on {}", m.unit, m.name));
            }
            if !seen.insert(m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if m.value.is_nan() {
                return Err(format!("metric {} is NaN", m.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_benchmark_alphabet() {
        for ok in ["setup_s", "engine.qh.apply_ns_p50", "a", "0x", "serve-feed"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "lat(ms)", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("per second"));
    }

    #[test]
    fn json_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: vec![
                Metric::new("latency_ms", 1.25, "ms", 9),
                Metric::new("setup_s", 2.0, "s", 3),
            ],
            unbounded: vec![
                Metric::new("commit_us_p99", 9.0, "us", 1000),
                Metric::new("read_us_p99", f64::NAN, "us", 300),
            ],
            notes: vec![],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert!(r.validate().is_ok());
        let table = r.table();
        assert!(table.contains("failed_ops_ratio"));
        assert!(table.contains("commit_us_p99") && !r.json().contains("commit_us_p99"));
        assert!(table.contains("n/a") && !table.contains("NaN"), "{table}");
    }

    #[test]
    fn validation_rejects_duplicates_and_bad_names() {
        let mut r = Report::default();
        r.metrics.push(Metric::new("a", 1.0, "s", 1));
        r.metrics.push(Metric::new("a", 2.0, "s", 1));
        assert!(r.validate().is_err());
        r.metrics.pop();
        r.metrics.push(Metric::new("b c", 1.0, "s", 1));
        assert!(r.validate().is_err());
    }

    #[test]
    fn numbers_keep_every_digit_and_stay_json() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::INFINITY), "1e300");
    }
}
