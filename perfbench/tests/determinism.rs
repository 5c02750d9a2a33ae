//! Determinism self-test at reduced size: the engine counters of a
//! workload (candidate pairs, plan-cache hits and misses, outcome-cache
//! hits, misses and evictions, parts interned, view delta rows) must
//! repeat exactly for two processes running the same seed and the same
//! number of operations.

use std::process::Command;

/// Runs the benchmark binary for a fixed operation count and returns the
/// `counters` object of its result line.
fn counters(workload: &str, seed: u64, ops: u64) -> Vec<(String, u64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--ops", &ops.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let start = line.find("\"counters\":{").expect("counters object") + "\"counters\":{".len();
    let body = &line[start..start + line[start..].find('}').expect("closed object")];
    body.split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').expect("key:value");
            (
                k.trim_matches('"').to_owned(),
                v.parse().expect("integer counter"),
            )
        })
        .collect()
}

fn assert_repeats(workload: &str, ops: u64) {
    let first = counters(workload, 7, ops);
    let second = counters(workload, 7, ops);
    assert!(
        first.iter().any(|(_, v)| *v > 0),
        "{workload} counted nothing"
    );
    assert_eq!(first, second, "{workload} counters differ between runs");
}

#[test]
fn serve_repeat_counters_repeat() {
    assert_repeats("serve_repeat", 400);
}

#[test]
fn ingest_views_counters_repeat() {
    assert_repeats("ingest_views", 40);
}

#[test]
fn analytic_adhoc_counters_repeat() {
    assert_repeats("analytic_adhoc", 24);
}
