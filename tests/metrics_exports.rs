//! Golden registry and storage exports. A `MetricsRegistry` is fed fixed
//! inputs — three query observations with fixed wall times, counters and
//! resource reports, two view refreshes (one full), every service counter
//! and both queue gauges, and one registered view — and a `StorageStats`
//! is built from fixed values. Every exporter of both is pinned
//! byte-for-byte: the registry's Prometheus text, `\top` summary,
//! slow-log table and JSON lines and ASCII histograms, and the storage
//! Prometheus text and `\storage` display. A diff here means an exporter's
//! format or a metric's name, help text or value changed; update the
//! golden deliberately, in the same change.

use itd_core::{
    ExecContext, GenRelation, GenTuple, Lrp, MetricsRegistry, QueryObservation,
    QueryResourceReport, RegistryCounter, RegistryGauge, Schema, StatsSnapshot, StorageStats,
};
use itd_query::{run_src, MemoryCatalog, QueryOpts};

/// Per-op counters of one fixed serial query, timings scrubbed: the
/// counters are deterministic, so they stand in for fixed values.
fn stats_of(cat: &MemoryCatalog, src: &str) -> StatsSnapshot {
    let ctx = ExecContext::serial();
    run_src(cat, src, QueryOpts::new().ctx(&ctx)).expect("query");
    ctx.stats().without_timing()
}

fn catalog() -> MemoryCatalog {
    let lrp = |c, k| Lrp::new(c, k).expect("valid lrp");
    let mut p = GenRelation::empty(Schema::new(1, 0));
    for i in 0..6i64 {
        p.push(GenTuple::unconstrained(vec![lrp(i % 3, 3)], vec![]))
            .expect("schema");
    }
    let mut q = GenRelation::empty(Schema::new(1, 0));
    q.push(GenTuple::unconstrained(vec![lrp(0, 6)], vec![]))
        .expect("schema");
    let mut cat = MemoryCatalog::new();
    cat.insert("p", p);
    cat.insert("q", q);
    cat
}

/// Every service counter and both queue gauges, each at a distinct value.
fn feed_service(reg: &MetricsRegistry) {
    for (counter, n) in [
        (RegistryCounter::ServerConnections, 3),
        (RegistryCounter::ServerRequests, 11),
        (RegistryCounter::ServerAdmitted, 6),
        (RegistryCounter::ServerRejectedOverBudget, 3),
        (RegistryCounter::ServerRejectedQueueFull, 2),
        (RegistryCounter::ServerTimeouts, 1),
        (RegistryCounter::ServerBatches, 2),
        (RegistryCounter::ServerBatchQueries, 6),
    ] {
        reg.count(counter, n);
    }
    reg.gauge(RegistryGauge::ServerQueueDepth, 5);
    reg.gauge(RegistryGauge::ServerQueueDepth, -2);
    reg.gauge(RegistryGauge::ViewsRegistered, 1);
}

fn render() -> String {
    let cat = catalog();
    let reg = MetricsRegistry::new();
    let observations = [
        (
            "p(t) and q(t)",
            1_500u64,
            QueryResourceReport {
                peak_live_rows: 7,
                tuples_allocated: 9,
                storage: StorageStats {
                    value_lookups: 11,
                    value_hits: 4,
                    part_lookups: 23,
                    part_hits: 19,
                    value_bytes: 128,
                    part_bytes: 512,
                    index_builds: 1,
                    index_reuses: 2,
                    ..StorageStats::default()
                },
            },
        ),
        (
            "p(t) and not q(t)",
            250_000,
            QueryResourceReport {
                peak_live_rows: 12,
                tuples_allocated: 30,
                storage: StorageStats {
                    value_lookups: 0,
                    value_hits: 0,
                    part_lookups: 48,
                    part_hits: 40,
                    value_bytes: 1024,
                    index_builds: 0,
                    index_reuses: 3,
                    ..StorageStats::default()
                },
            },
        ),
        (
            "(p(t) or q(t)) and p(t)",
            40_000_000,
            QueryResourceReport {
                peak_live_rows: 3,
                tuples_allocated: 5,
                storage: StorageStats {
                    value_lookups: 2,
                    value_hits: 2,
                    part_lookups: 6,
                    part_hits: 6,
                    value_bytes: 0,
                    index_builds: 0,
                    index_reuses: 0,
                    ..StorageStats::default()
                },
            },
        ),
    ];
    for (src, wall_nanos, resources) in &observations {
        let stats = stats_of(&cat, src);
        let render = || (src.to_string(), format!("plan of {src}"));
        reg.observe_query(QueryObservation {
            render: &render,
            wall_nanos: *wall_nanos,
            stats: &stats,
            resources,
        });
    }
    let refresh = stats_of(&cat, "p(t) and q(t)");
    reg.observe_view_refresh(false, 3, &refresh);
    reg.observe_view_refresh(true, 4, &refresh);
    feed_service(&reg);
    let snap = reg.snapshot();
    let storage = StorageStats {
        value_lookups: 101,
        value_hits: 57,
        value_distinct: 44,
        value_bytes: 2048,
        part_lookups: 303,
        part_hits: 211,
        part_distinct: 92,
        part_bytes: 8192,
        index_builds: 5,
        index_reuses: 17,
        outcome_hits: 640,
        outcome_misses: 128,
        outcome_evictions: 64,
    };
    let mut text = String::new();
    for (title, body) in [
        ("RegistrySnapshot::to_prometheus", snap.to_prometheus()),
        ("RegistrySnapshot::render_top", snap.render_top() + "\n"),
        (
            "RegistrySnapshot::render_slowlog",
            snap.render_slowlog() + "\n",
        ),
        ("RegistrySnapshot::slow_json_lines", snap.slow_json_lines()),
        (
            "RegistrySnapshot::render_histograms",
            snap.render_histograms() + "\n",
        ),
        ("StorageStats::to_prometheus", storage.to_prometheus()),
        ("StorageStats Display", storage.to_string() + "\n"),
    ] {
        text.push_str(&format!("=== {title} ===\n{body}\n"));
    }
    text
}

/// Compares against the golden, or rewrites it when `BLESS` is set in
/// the environment (`BLESS=1 cargo test -p itd-db --test metrics_exports`,
/// then rebuild — the golden is compiled in via `include_str!`).
#[test]
fn golden_metrics_exports() {
    let actual = render();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write("../../tests/goldens/metrics_exports.txt", &actual).expect("write golden");
        return;
    }
    let golden = include_str!("goldens/metrics_exports.txt");
    assert_eq!(
        actual, golden,
        "registry or storage exports drifted from tests/goldens/metrics_exports.txt \
         (rerun with BLESS=1 if the change is deliberate)"
    );
}
