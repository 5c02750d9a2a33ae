//! The cross-query metrics registry: exact counter-sum invariants,
//! thread-count invariance of every aggregated counter and histogram
//! bucket, slow-query-log replay determinism, resource accounting on
//! `QueryOutput`, and storage-counter measurement windows.
//!
//! Tests in this file serialize on a local mutex: they read the
//! process-global storage counters (arenas, outcome cache) over
//! measurement windows, and another test interning in the middle of a
//! window would change that window's deltas. The lock can go once the
//! storage state is owned per engine instead of per process.

use std::sync::Mutex;

use itd_core::{
    Atom, ExecContext, GenRelation, GenTuple, Lrp, MetricsRegistry, RegistrySnapshot, Schema,
    SlowQueryEntry, StatsSnapshot, Value,
};
use itd_db::{Database, TupleSpec};
use itd_query::{parse, run, MemoryCatalog, QueryOpts, QueryOutput};

static LOCK: Mutex<()> = Mutex::new(());

/// The compaction-bench family: `p` holds periodic tuples over the six
/// residues mod 6 (half carrying a lower bound), `q` one coarse tuple mod
/// 12 — enough to exercise joins, complements, compaction and the index.
fn catalog() -> MemoryCatalog {
    let mut p = GenRelation::empty(Schema::new(1, 0));
    for i in 0..24i64 {
        let l = Lrp::new(i % 6, 6).expect("valid");
        let t = if i % 2 == 0 {
            GenTuple::unconstrained(vec![l], vec![])
        } else {
            GenTuple::builder()
                .lrps(vec![l])
                .atoms([Atom::ge(0, -i)])
                .build()
                .expect("valid")
        };
        p.push(t).expect("schema");
    }
    let q = GenRelation::new(
        Schema::new(1, 0),
        vec![GenTuple::unconstrained(
            vec![Lrp::new(0, 12).expect("valid")],
            vec![],
        )],
    )
    .expect("schema");
    let mut cat = MemoryCatalog::new();
    cat.insert("p", p);
    cat.insert("q", q);
    cat
}

const QUERIES: [&str; 5] = [
    "p(t) and q(t)",
    "p(t) and not q(t)",
    "(p(t) or q(t)) and p(t)",
    "p(t) and t >= 0",
    "exists t. p(t) and q(t)",
];

/// Runs the workload, one fresh context per query (so each context's
/// stats are exactly that query's delta), reporting every query to `reg`.
/// Returns the by-hand sum of the per-query deltas plus the outputs.
fn run_workload(threads: usize, reg: &MetricsRegistry) -> (StatsSnapshot, Vec<QueryOutput>) {
    let cat = catalog();
    let mut merged = StatsSnapshot::default();
    let mut outs = Vec::new();
    for src in QUERIES {
        let f = parse(src).expect("parses");
        let ctx = ExecContext::with_threads(threads);
        let out = run(&cat, &f, QueryOpts::new().ctx(&ctx).metrics(reg)).expect("query");
        merged.merge(&ctx.stats());
        outs.push(out);
    }
    (merged, outs)
}

#[test]
fn registry_totals_equal_sum_of_per_query_snapshots() {
    let _g = LOCK.lock().unwrap();
    let reg = MetricsRegistry::new();
    let (merged, outs) = run_workload(1, &reg);
    let snap = reg.snapshot();
    assert_eq!(snap.queries, QUERIES.len() as u64);
    // The acceptance invariant: registry totals are exactly the sum of
    // the per-query OpSnapshots — every field, wall time included.
    assert_eq!(snap.totals, merged);
    assert_eq!(
        snap.tuples_allocated,
        merged.iter().map(|(_, o)| o.tuples_out).sum::<u64>()
    );
    // Histograms saw one observation per query and extract monotone
    // percentiles.
    for h in [&snap.query_wall, &snap.query_pairs, &snap.query_rows] {
        assert_eq!(h.count(), QUERIES.len() as u64);
        let (p50, p90, p99) = (h.percentile(0.50), h.percentile(0.90), h.percentile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "percentiles must be monotone");
    }
    assert_eq!(snap.query_pairs.sum, merged.total_pairs());
    // Per-op histograms: one observation per query that invoked the op,
    // and nothing for ops no query invoked.
    for (kind, h) in &snap.op_wall {
        assert!(
            h.count() <= QUERIES.len() as u64,
            "{kind:?} observed more often than queries ran"
        );
        if merged.op(*kind).calls == 0 {
            assert_eq!(h.count(), 0, "{kind:?} was never invoked");
        } else {
            assert!(h.count() > 0, "{kind:?} was invoked but not observed");
        }
    }
    // The slow-query log is populated and ranked worst-first.
    assert_eq!(snap.slow_by_time.len(), QUERIES.len());
    assert_eq!(snap.slow_by_pairs.len(), QUERIES.len());
    assert!(snap
        .slow_by_pairs
        .windows(2)
        .all(|w| w[0].pairs >= w[1].pairs));
    assert!(snap
        .slow_by_time
        .windows(2)
        .all(|w| w[0].wall_nanos >= w[1].wall_nanos));
    // Resource accounting rides on every QueryOutput: tuples allocated
    // match the query's own counters, and the peak covers the answer.
    for out in &outs {
        let produced: u64 = out.result.stats().iter().map(|(_, o)| o.tuples_out).sum();
        assert_eq!(out.resources.tuples_allocated, produced);
        assert!(out.resources.peak_live_rows >= out.result.relation.tuple_count() as u64);
    }
}

#[test]
fn registry_counters_are_thread_count_invariant() {
    let _g = LOCK.lock().unwrap();
    let snaps: Vec<RegistrySnapshot> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let reg = MetricsRegistry::new();
            run_workload(threads, &reg);
            reg.snapshot()
        })
        .collect();
    let base = &snaps[0];
    for (i, s) in snaps.iter().enumerate().skip(1) {
        let threads = [1, 2, 8][i];
        assert_eq!(s.queries, base.queries);
        // Every counter except wall time is bit-identical.
        assert_eq!(
            s.totals.without_timing(),
            base.totals.without_timing(),
            "registry totals must not depend on thread count ({threads} threads)"
        );
        // Pairs/rows histograms are bucket-exact (sums included); the
        // wall-time histograms vary in *values* but never in observation
        // count.
        assert_eq!(s.query_pairs, base.query_pairs, "{threads} threads");
        assert_eq!(s.query_rows, base.query_rows, "{threads} threads");
        assert_eq!(s.query_wall.count(), base.query_wall.count());
        for ((k, h), (bk, bh)) in s.op_wall.iter().zip(&base.op_wall) {
            assert_eq!(k, bk);
            assert_eq!(
                h.count(),
                bh.count(),
                "{k:?} observation count at {threads} threads"
            );
        }
        assert_eq!(s.tuples_allocated, base.tuples_allocated);
        assert_eq!(s.peak_rows, base.peak_rows);
    }
}

#[test]
fn slow_query_log_is_deterministic_under_replay() {
    let _g = LOCK.lock().unwrap();
    let replay = || {
        let reg = MetricsRegistry::new();
        run_workload(2, &reg);
        reg.snapshot()
    };
    let (first, second) = (replay(), replay());
    // Scrub wall-time and process-history fields, then compare in
    // observation order — with ≤ SLOW_LOG_CAP queries both rankings
    // retain every query, so the scrubbed entries must match exactly:
    // query text, plan, pairs, per-op counters, deterministic resources.
    let scrub = |entries: &[SlowQueryEntry]| {
        let mut v: Vec<SlowQueryEntry> =
            entries.iter().map(SlowQueryEntry::without_timing).collect();
        v.sort_by_key(|e| e.seq);
        v
    };
    assert_eq!(scrub(&first.slow_by_pairs), scrub(&second.slow_by_pairs));
    assert_eq!(scrub(&first.slow_by_time), scrub(&second.slow_by_time));
    // The by-pairs *ranking* itself is deterministic (its sort key is).
    let order =
        |entries: &[SlowQueryEntry]| -> Vec<u64> { entries.iter().map(|e| e.seq).collect() };
    assert_eq!(order(&first.slow_by_pairs), order(&second.slow_by_pairs));
}

#[test]
fn storage_stats_delta_since_measures_window_deltas() {
    let _g = LOCK.lock().unwrap();
    let s0 = itd_core::storage_stats();
    // An empty window is all zeros.
    assert_eq!(
        itd_core::storage_stats().delta_since(&s0),
        itd_core::StorageStats::default()
    );
    // Intern fresh, never-before-seen payload.
    let mut r = GenRelation::empty(Schema::new(1, 1));
    for i in 0..5i64 {
        r.push(GenTuple::unconstrained(
            vec![Lrp::new(i, 97).expect("valid")],
            vec![Value::Str(format!("reset-probe-{i}"))],
        ))
        .expect("schema");
    }
    let s1 = itd_core::storage_stats().delta_since(&s0);
    assert!(s1.part_lookups >= 5);
    assert!(s1.value_distinct >= 5, "five fresh strings were interned");
    assert!(s1.value_bytes > 0);
    assert!(s1.part_bytes > 0);
    // The per-arena invariant holds inside the measurement window.
    assert_eq!(s1.value_lookups - s1.value_hits, s1.value_distinct);
    assert_eq!(s1.part_lookups - s1.part_hits, s1.part_distinct);
}

#[test]
fn database_owns_and_auto_attaches_a_registry() {
    let _g = LOCK.lock().unwrap();
    let mut db = Database::new();
    db.create_table("ev", &["t"], &[]).unwrap();
    db.table_mut("ev")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 0, 2))
        .unwrap();
    db.run("ev(4)", QueryOpts::new()).unwrap();
    db.run("ev(t) and t >= 0", QueryOpts::new()).unwrap();
    assert_eq!(db.metrics().queries(), 2);
    assert_eq!(db.metrics().snapshot().slow_by_time.len(), 2);
    // An explicitly attached registry wins over the database's own.
    let other = MetricsRegistry::new();
    db.run("ev(4)", QueryOpts::new().metrics(&other)).unwrap();
    assert_eq!(other.queries(), 1);
    assert_eq!(db.metrics().queries(), 2);
    // Clones share the registry (measurement state, not data)...
    let clone = db.clone();
    clone.run("ev(4)", QueryOpts::new()).unwrap();
    assert_eq!(db.metrics().queries(), 3);
    // ...but persistence does not carry it: a reloaded database starts
    // counting from zero.
    let json = db.to_json().unwrap();
    let reloaded = Database::from_json(&json).unwrap();
    assert_eq!(reloaded.metrics().queries(), 0);
    assert_eq!(reloaded.table_names(), db.table_names());
}

/// A database's metrics rendering covers that database only: interning
/// fresh values and running a query on another database leaves it
/// byte-identical. (Process-wide storage gauges are rendered separately,
/// by `StorageStats::to_prometheus`.)
#[test]
fn metrics_render_is_scoped_to_its_database() {
    let db = |name: &str| {
        let mut db = Database::new();
        db.create_table("ev", &["t"], &["who"]).unwrap();
        db.table_mut("ev")
            .unwrap()
            .insert(TupleSpec::new().lrp("t", 0, 2).datum("who", name))
            .unwrap();
        db.run("exists w. ev(t; w) and t >= 0", QueryOpts::new())
            .unwrap();
        db
    };
    let a = db("scoped-a");
    let before = a.metrics().snapshot().to_prometheus();
    let b = db("scoped-b");
    for i in 0..5 {
        b.run(format!("ev(4; \"scoped-fresh-{i}\")"), QueryOpts::new())
            .unwrap();
    }
    assert_eq!(b.metrics().queries(), 6);
    assert_eq!(a.metrics().snapshot().to_prometheus(), before);
}

#[test]
fn folded_trace_follows_collapsed_stack_conventions() {
    let _g = LOCK.lock().unwrap();
    let cat = catalog();
    let f = parse("p(t) and not q(t)").expect("parses");
    let out = run(&cat, &f, QueryOpts::new().trace(true)).expect("query");
    let trace = out.trace.expect("tracing was on");
    let folded = trace.to_folded();
    assert!(!folded.is_empty(), "a traced query must yield stacks");
    let mut total = 0u64;
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("`frames value` shape");
        assert!(!stack.is_empty());
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
        }
        total += value.parse::<u64>().expect("numeric sample value");
    }
    // Self times sum back to (at most, under clock granularity) the
    // roots' wall time, and never to zero for a real evaluation.
    let root_nanos: u64 = trace.roots().map(|s| s.counters.nanos).sum();
    assert!(total > 0);
    assert!(total <= root_nanos, "self times exceed the root wall time");
}
