//! One benchmark run: set up a workload from a seed, drive it closed-loop
//! for a time (or a fixed number of operations), check its answers, and
//! print one JSON line with the end-to-end metrics, the per-layer
//! metrics of a traced run, and the engine counters. The properties the
//! workload was chosen for go to standard error.
//!
//! ```text
//! perfbench --workload <serve_repeat|analytic_adhoc|ingest_views> --seed <n>
//!           (--seconds <s> | --ops <n>) [--trace 0|1] [--trace-out <file>]
//! ```
//!
//! Each run is its own process: the engine's interning arenas, outcome
//! cache, plan cache and CRT memo are process-global, so no run may
//! inherit another's cache state.

mod adhoc;
mod ingest;
mod measure;
mod serve;

use std::fmt::Write as _;
use std::time::Duration;

use measure::{median, percentile, ratio, Budget, Report};

/// The percentile `query_tail_ms` reports. A 30-second run completes
/// over a thousand queries on every workload, so well over fifty lie
/// beyond it. Higher percentiles with only tens of samples beyond them
/// moved by a fifth to a half between runs (see README.md).
const TAIL_QUANTILE: f64 = 0.95;

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    budget: Budget,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut budget) = (None, None, None);
    let (mut trace, mut trace_out) = (false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                budget = Some(Budget::Seconds(Duration::from_secs_f64(s)));
            }
            "--ops" => budget = Some(Budget::Ops(number()?)),
            "--trace" => trace = number()? != 0,
            "--trace-out" => trace_out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: budget.ok_or("--seconds or --ops is required")?,
        trace,
        trace_out,
    })
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide CPU ticks since boot from `/proc/stat`: all of them, and
/// those the hypervisor stole. The share stolen during a run explains a
/// slow run on a shared host; it is reported, never corrected for.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_default();
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (busy0, steal0) = cpu_ticks();
    let report: Report = match args.workload.as_str() {
        "serve_repeat" => serve::run(args.seed, args.budget, args.trace, SETUPS, nproc),
        "analytic_adhoc" => adhoc::run(args.seed, args.budget, args.trace, SETUPS),
        "ingest_views" => ingest::run(args.seed, args.budget, args.trace, SETUPS),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let rss = peak_rss_mb();

    let completed = (report.queries.len() + report.txns.len()) as f64;
    let throughput = ratio(completed, report.elapsed_s);
    let mut e2e: Vec<(&str, f64)> = vec![
        ("setup_s", median(&report.setup_s)),
        ("throughput_ops_s", throughput),
        ("query_p50_ms", median(&report.queries)),
        ("query_tail_ms", percentile(&report.queries, TAIL_QUANTILE)),
        ("peak_rss_mb", rss),
    ];
    let mut layers = report.layers.clone();
    layers.push(("txn_p50_ms".into(), median(&report.txns), "ms"));
    layers.push(("txn_tail_ms".into(), percentile(&report.txns, 0.9), "ms"));
    layers.push((
        "failed_fraction".into(),
        ratio(report.failed as f64, report.attempted as f64),
        "fraction",
    ));
    if !args.trace {
        layers.clear();
    } else {
        e2e.retain(|(name, _)| *name == "throughput_ops_s");
    }

    if let Some(path) = &args.trace_out {
        let mut out = String::new();
        for (i, t) in report.traces.iter().enumerate() {
            t.write_jsonl(i, &mut out);
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }

    for (name, held, detail) in &report.properties {
        eprintln!(
            "property {:<52} {} ({detail})",
            name,
            if *held { "held" } else { "NOT held" }
        );
    }
    for m in &report.mismatches {
        eprintln!("WRONG ANSWER: {m}");
    }

    let beyond =
        report.queries.len() - (TAIL_QUANTILE * report.queries.len() as f64).ceil() as usize;
    let (busy, stolen) = cpu_ticks();
    println!(
        "{} seed {}: {} queries, {} txns in {:.2} s; query_tail_ms is p{} with {beyond} samples beyond it; the hypervisor stole {:.1}% of CPU time",
        args.workload,
        args.seed,
        report.queries.len(),
        report.txns.len(),
        report.elapsed_s,
        TAIL_QUANTILE * 100.0,
        100.0 * ratio((stolen - steal0) as f64, (busy - busy0) as f64),
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{},\"correct\":{},\"attempted\":{},\"failed\":{},",
        json_str(&args.workload),
        args.seed,
        report.mismatches.is_empty(),
        report.attempted,
        report.failed,
    );
    let e2e: Vec<String> = e2e
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
        .collect();
    let _ = write!(out, "\"e2e\":{{{}}},", e2e.join(","));
    let layers: Vec<String> = layers
        .iter()
        .map(|(k, v, u)| format!("{}:[{},{}]", json_str(k), json_num(*v), json_str(u)))
        .collect();
    let _ = write!(out, "\"layers\":{{{}}},", layers.join(","));
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let _ = write!(out, "\"counters\":{{{}}}}}", counters.join(","));
    println!("{out}");
    if !report.mismatches.is_empty() {
        std::process::exit(1);
    }
}
