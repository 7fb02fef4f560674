//! A seconds-long pass of every workload, untraced and traced, on the
//! small inputs: each must pass its oracle gate and report exactly the
//! catalogue's metrics, with valid names, in a well-formed result line.

use cqu_perfbench::harness::{END_TO_END, PER_LAYER};
use cqu_perfbench::report::valid_name;
use cqu_perfbench::{run, Config, Scale, WORKLOADS};

fn config(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 7,
        // serve-feed needs 1,000 commits at 2,000/s for its p99; the
        // fsynced loop needs the same count at a few thousand per second.
        seconds: 1.5,
        trace,
        scale: Scale::Smoke,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

#[test]
fn every_workload_passes_its_oracle_and_reports_its_catalogue() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = run(&config(workload, trace))
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(
                report.correct,
                "{workload} trace={trace}: {:?}",
                report.notes
            );
            assert!(report.attempted >= 1);
            let catalogue = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{workload} trace={trace}");
            for m in &report.metrics {
                assert!(valid_name(m.name));
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{workload}: end-to-end {} is 0", m.name);
                }
            }
            let json = report.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
            assert!(json.ends_with("}}"), "{json}");
            assert_eq!(json.lines().count(), 1);
            if trace {
                assert!(
                    report
                        .notes
                        .iter()
                        .any(|n| n.contains("unattributed_remainder")),
                    "{workload}: no remainder line in {:?}",
                    report.notes
                );
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    assert!(run(&config("no-such-workload", false)).is_err());
}
