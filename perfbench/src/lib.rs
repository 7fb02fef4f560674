//! One service benchmark for `cq-updates`.
//!
//! Three workloads drive the public API end to end, each stressing a
//! different layer and bypassing the others:
//!
//! * [`serve_feed`] — an open loop of commits fanned out over TCP to a
//!   subscriber (serve layer; no WAL, no pins).
//! * [`pinned_reads`] — a closed loop of commits with a held pin every
//!   256 commits (engine and session layers; no TCP, no WAL).
//! * [`durable_repl`] — a closed loop of fsynced commits, each awaited on
//!   a follower (WAL, shard and replication layers; no serving, no pins).
//!
//! Every run checks the program's final results against the brute-force
//! oracle ([`oracle`]) and prints one JSON result line ([`report`]). The
//! untraced run (`--trace 0`) gives the end-to-end metrics; the traced
//! run (`--trace 1`) attaches the program's metrics registry, records
//! spans ([`trace`]) and gives the per-layer metrics. See `README.md`.

pub mod durable_repl;
pub mod gen;
pub mod harness;
pub mod oracle;
pub mod pinned_reads;
pub mod report;
pub mod serve_feed;
pub mod stats;
pub mod trace;

use report::Report;

/// The workloads, by name. `BENCHMARK.json` gates `serve-feed` and
/// `durable-repl`; `pinned-reads` is a diagnostic (see the README).
pub const WORKLOADS: [&str; 3] = ["serve-feed", "pinned-reads", "durable-repl"];

/// Input sizes: the benchmark's own, or a small set for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the command line runs.
    Full,
    /// Small inputs that exercise every code path in about a second.
    Smoke,
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: registry attached, spans recorded, per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where temporary files (WAL directories) and span dumps go.
    pub work_dir: std::path::PathBuf,
}

/// Runs one workload and returns its report; `Err` on a setup failure
/// or a metric that lacks the samples its percentile needs.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let report = match cfg.workload.as_str() {
        "serve-feed" => serve_feed::run(cfg)?,
        "pinned-reads" => pinned_reads::run(cfg)?,
        "durable-repl" => durable_repl::run(cfg)?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    report.validate()?;
    Ok(report)
}
