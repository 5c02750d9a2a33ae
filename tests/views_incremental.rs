//! Incrementally maintained views behind the `Txn`/`apply` mutation API:
//! randomized signed mutation streams keep every registered view
//! semantically identical to recomputing its query from scratch, with a
//! **bit-identical** maintained representation and identical maintenance
//! counters at 1, 2 and 8 threads; plus the `Txn` atomicity contract,
//! the view registry lifecycle, the stale-catalog fallback, and the
//! `itd_view_*` metrics counters.

use itd_core::{ExecContext, GenRelation, OpKind, Value};
use itd_db::{Database, QueryOpts, TupleSpec, Txn, ViewId};
use proptest::prelude::*;

/// The views every scenario registers: a join, a negation, and a
/// projection — together they exercise the Scan, Conjoin, Difference (as
/// an antijoin: the optimizer subtracts `vr` from `vs`) and ProjectOut
/// delta rules end to end.
const VIEWS: &[(&str, &str)] = &[
    ("joined", "vs(t; k) and vr(t)"),
    ("lone", "vs(t; k) and not vr(t)"),
    ("anytime", "exists k. vs(t; k)"),
];

fn fresh_db() -> (Database, Vec<ViewId>) {
    let mut db = Database::new();
    db.create_table("vs", &["t"], &["k"]).unwrap();
    db.create_table("vr", &["t"], &[]).unwrap();
    // Seed rows so registration starts from non-empty caches.
    db.table_mut("vs")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 0, 3).datum("k", 1))
        .unwrap();
    db.table_mut("vr")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 0, 6))
        .unwrap();
    let ids = VIEWS
        .iter()
        .map(|(name, src)| db.register_view(name, *src).unwrap())
        .collect();
    (db, ids)
}

/// One randomized signed mutation. Retractions pick (by index) an
/// earlier insertion into the same table, so streams mix hits, misses
/// and duplicate-row round-trips.
#[derive(Debug, Clone)]
struct Op {
    retract: bool,
    table: bool, // false = vs, true = vr
    offset: u8,
    period_sel: u8,
    datum: u8,
    pick: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..2, 0u8..2, 0u8..12, 0u8..5, 0u8..3, 0u8..=255).prop_map(
        |(retract, table, offset, period_sel, datum, pick)| Op {
            retract: retract == 1,
            table: table == 1,
            offset,
            period_sel,
            datum,
            pick,
        },
    )
}

fn spec_of(op: &Op) -> (&'static str, TupleSpec) {
    const PERIODS: [i64; 5] = [1, 2, 3, 4, 6];
    let period = PERIODS[op.period_sel as usize];
    let offset = i64::from(op.offset) % period;
    if op.table {
        ("vr", TupleSpec::new().lrp("t", offset, period))
    } else {
        (
            "vs",
            TupleSpec::new()
                .lrp("t", offset, period)
                .datum("k", i64::from(op.datum)),
        )
    }
}

/// The stream's opening transactions: `vr` gains a row `R` while `vs`
/// gains the same times under the seeded datum (so the active domain, and
/// with it the incremental path, holds), then `vr` loses `R` again. The
/// `lone` view must regain `R`'s points through the `L_new ∧ del_R` term
/// of the Difference delta rule; random streams alone almost never
/// retract a negated row whose points `vs` still holds.
fn regain_script(offset: u8, period_sel: u8) -> Vec<Vec<Op>> {
    let op = |retract, table, datum| Op {
        retract,
        table,
        offset,
        period_sel,
        datum,
        pick: 0,
    };
    vec![
        vec![op(false, true, 0), op(false, false, 1)],
        // `R` is the only logged `vr` row, so the retraction picks it.
        vec![op(true, true, 0)],
    ]
}

/// Replays `txns` against a fresh database under `threads` threads,
/// checking every view against a from-scratch `run()` after each commit.
/// Returns, per view, the final maintained relation and its
/// `(refreshes, full, delta_rows)` counters.
fn replay(txns: &[Vec<Op>], threads: usize) -> Vec<(GenRelation, u64, u64, u64)> {
    let ctx = ExecContext::with_threads(threads);
    let (mut db, ids) = fresh_db();
    // Log of insert specs per table, so retractions can target rows that
    // really exist (as well as ones that never did).
    let mut log: Vec<(&'static str, TupleSpec)> = Vec::new();
    for chunk in txns {
        let mut txn = Txn::new();
        for op in chunk {
            let (table, spec) = spec_of(op);
            if op.retract {
                let same_table: Vec<&TupleSpec> = log
                    .iter()
                    .filter(|(t, _)| *t == table)
                    .map(|(_, s)| s)
                    .collect();
                let spec = if same_table.is_empty() {
                    spec // retract a row that may not exist
                } else {
                    same_table[op.pick as usize % same_table.len()].clone()
                };
                txn = txn.retract(table, spec);
            } else {
                log.push((table, spec.clone()));
                txn = txn.insert(table, spec);
            }
        }
        db.apply_with(txn, &ctx).unwrap();
        for (id, (_, src)) in ids.iter().zip(VIEWS) {
            let snap = db.view(*id).unwrap();
            let rerun = db.run(*src, QueryOpts::new().ctx(&ctx)).unwrap();
            assert_same_set(&snap.relation, &rerun.result.relation, &ctx);
        }
    }
    ids.iter()
        .map(|id| {
            let info = db
                .views()
                .into_iter()
                .find(|v| v.id == *id)
                .expect("registered");
            let snap = db.view(*id).unwrap();
            (
                snap.relation.clone(),
                info.refreshes,
                info.full_refreshes,
                info.delta_rows,
            )
        })
        .collect()
}

fn assert_same_set(a: &GenRelation, b: &GenRelation, ctx: &ExecContext) {
    let ab = a.difference_in(b, ctx).unwrap();
    let ba = b.difference_in(a, ctx).unwrap();
    assert!(
        ab.denotes_empty().unwrap() && ba.denotes_empty().unwrap(),
        "maintained view and from-scratch run denote different sets\n\
         maintained: {a:?}\nrerun: {b:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: under randomized insert/retract streams
    /// (chunked into multi-op transactions, after the regain script)
    /// every maintained view stays semantically identical to a full
    /// recomputation, and the maintained representation *and counters*
    /// are bit-identical at 1, 2 and 8 threads.
    #[test]
    fn maintained_views_match_recomputation_at_any_thread_count(
        ops in proptest::collection::vec(op_strategy(), 0..14),
        (offset, period_sel) in (0u8..12, 0u8..5),
    ) {
        let mut txns = regain_script(offset, period_sel);
        txns.extend(ops.chunks(3).map(<[Op]>::to_vec));
        let serial = replay(&txns, 1);
        for threads in [2usize, 8] {
            let parallel = replay(&txns, threads);
            prop_assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                prop_assert_eq!(&s.0, &p.0, "representation diverged at {} threads", threads);
                prop_assert_eq!(
                    (s.1, s.2, s.3),
                    (p.1, p.2, p.3),
                    "maintenance counters diverged at {} threads",
                    threads
                );
            }
        }
    }
}

#[test]
fn txn_validates_everything_before_mutating() {
    let (mut db, ids) = fresh_db();
    let token = db.plan_token();
    let before: Vec<_> = db.views().into_iter().map(|v| v.refreshes).collect();

    // Unknown table: the valid first op must not land.
    let err = db.apply_with(
        Txn::new()
            .insert("vs", TupleSpec::new().lrp("t", 1, 3).datum("k", 2))
            .insert("nosuch", TupleSpec::new().lrp("t", 0, 2)),
        &ExecContext::new(),
    );
    assert!(err.is_err());

    // Incomplete spec (missing datum for the data attribute).
    let err = db.apply_with(
        Txn::new()
            .insert("vs", TupleSpec::new().lrp("t", 1, 3).datum("k", 2))
            .insert("vs", TupleSpec::new().lrp("t", 2, 3)),
        &ExecContext::new(),
    );
    assert!(err.is_err());

    assert_eq!(db.plan_token(), token, "failed batches rotate nothing");
    assert!(!db
        .table("vs")
        .unwrap()
        .relation()
        .contains(&[1], &[Value::Int(2)]));
    let after: Vec<_> = db.views().into_iter().map(|v| v.refreshes).collect();
    assert_eq!(before, after, "failed batches refresh no views");
    drop(ids);
}

#[test]
fn empty_txn_is_a_noop() {
    let (mut db, _ids) = fresh_db();
    let token = db.plan_token();
    let summary = db.apply_with(Txn::new(), &ExecContext::new()).unwrap();
    assert_eq!(summary, itd_db::TxnSummary::default());
    assert_eq!(db.plan_token(), token);
}

#[test]
fn retract_of_absent_row_is_not_an_error() {
    let (mut db, _ids) = fresh_db();
    let summary = db
        .apply_with(
            Txn::new().retract("vr", TupleSpec::new().lrp("t", 5, 7)),
            &ExecContext::new(),
        )
        .unwrap();
    assert_eq!(summary.retracted, 0);
    // Views are still refreshed (with empty deltas).
    assert_eq!(summary.views_refreshed, VIEWS.len());
    assert_eq!(summary.views_recomputed, 0);
}

#[test]
fn view_registry_lifecycle() {
    let (mut db, ids) = fresh_db();
    assert_eq!(db.views().len(), VIEWS.len());
    assert!(
        db.register_view("joined", "vr(t)").is_err(),
        "duplicate name"
    );
    assert!(db.register_view("bad", "nosuch(t)").is_err());

    let snap = db.view_named("joined").unwrap();
    assert_eq!(snap.name, "joined");
    assert_eq!(snap.temporal_vars, vec!["t".to_owned()]);
    assert_eq!(snap.data_vars, vec!["k".to_owned()]);
    assert!(snap.relation.contains(&[0], &[Value::Int(1)]));

    // Snapshots are cheap handles: an old Arc survives deregistration.
    assert!(db.deregister_view(ids[0]));
    assert!(!db.deregister_view(ids[0]), "second deregister is false");
    assert!(db.view(ids[0]).is_none());
    assert!(db.view_named("joined").is_none());
    assert_eq!(db.views().len(), VIEWS.len() - 1);
    assert_eq!(snap.name, "joined");

    // The freed name can be reused.
    let again = db.register_view("joined", "vr(t)").unwrap();
    assert_ne!(again, ids[0], "view ids are never reused");
}

#[test]
fn out_of_band_mutations_force_a_counted_recompute() {
    let (mut db, ids) = fresh_db();
    // Mutate behind the delta path: `table_mut` marks views stale.
    db.table_mut("vr")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 1, 6))
        .unwrap();

    let summary = db
        .apply_with(
            Txn::new().insert("vr", TupleSpec::new().lrp("t", 2, 6)),
            &ExecContext::new(),
        )
        .unwrap();
    assert_eq!(summary.views_refreshed, VIEWS.len());
    assert_eq!(
        summary.views_recomputed,
        VIEWS.len(),
        "stale views must fall back to full recomputation"
    );

    // The recompute saw both the out-of-band and the applied row.
    let ctx = ExecContext::new();
    for (id, (_, src)) in ids.iter().zip(VIEWS) {
        let snap = db.view(*id).unwrap();
        let rerun = db.run(*src, QueryOpts::new().ctx(&ctx)).unwrap();
        assert_same_set(&snap.relation, &rerun.result.relation, &ctx);
    }

    // The next apply is incremental again.
    let summary = db
        .apply_with(
            Txn::new().retract("vr", TupleSpec::new().lrp("t", 2, 6)),
            &ExecContext::new(),
        )
        .unwrap();
    assert_eq!(summary.views_recomputed, 0);
}

/// Regression: the full recompute a stale catalog forces counts the
/// applied transaction's signed rows in all three places the incremental
/// path does — the view's own counter, the `ViewRefresh` op's `in`
/// column, and the registry.
#[test]
fn stale_recompute_counts_its_delta_rows() {
    let mut db = Database::new();
    db.create_table("ev", &["t"], &[]).unwrap();
    let id = db.register_view("w", "ev(t)").unwrap();
    db.table_mut("ev")
        .unwrap()
        .insert(TupleSpec::new().lrp("t", 0, 2))
        .unwrap();

    let before = db.metrics().snapshot();
    let ctx = ExecContext::new();
    let summary = db
        .apply_with(
            Txn::new().insert("ev", TupleSpec::new().lrp("t", 1, 2)),
            &ctx,
        )
        .unwrap();
    assert_eq!(summary.views_recomputed, 1);

    let info = db.views().into_iter().find(|v| v.id == id).unwrap();
    assert_eq!(info.full_refreshes, 1);
    assert_eq!(info.delta_rows, 1);
    assert_eq!(ctx.stats().op(OpKind::ViewRefresh).tuples_in, 1);
    let after = db.metrics().snapshot();
    assert_eq!(after.view_delta_rows - before.view_delta_rows, 1);
}

#[test]
fn metrics_count_view_maintenance() {
    let (mut db, ids) = fresh_db();
    let before = db.metrics().snapshot();
    assert_eq!(before.views_registered, VIEWS.len() as u64);
    // Registration evaluates each view once but is not a refresh.
    assert_eq!(before.view_refreshes, 0);

    db.apply_with(
        Txn::new().insert("vr", TupleSpec::new().lrp("t", 3, 6)),
        &ExecContext::new(),
    )
    .unwrap();
    let after = db.metrics().snapshot();
    assert_eq!(
        after.view_refreshes,
        before.view_refreshes + VIEWS.len() as u64
    );
    assert_eq!(after.view_full_refreshes, before.view_full_refreshes);
    assert!(
        after.view_delta_rows > before.view_delta_rows,
        "the inserted row must be counted as a consumed delta row"
    );

    db.deregister_view(ids[0]);
    assert_eq!(
        db.metrics().snapshot().views_registered,
        VIEWS.len() as u64 - 1
    );

    let prom = db.metrics().snapshot().to_prometheus();
    for name in [
        "itd_view_refreshes_total",
        "itd_view_full_refreshes_total",
        "itd_view_delta_rows_total",
        "itd_views_registered",
    ] {
        assert!(prom.contains(name), "{name} missing from {prom}");
    }
}

#[test]
fn view_info_reports_the_query_and_counters() {
    let (mut db, _ids) = fresh_db();
    db.apply_with(
        Txn::new().insert("vs", TupleSpec::new().lrp("t", 2, 3).datum("k", 0)),
        &ExecContext::new(),
    )
    .unwrap();
    let infos = db.views();
    let joined = infos.iter().find(|v| v.name == "joined").unwrap();
    // `query` is the parsed formula's rendering, not the source string.
    assert!(
        joined.query.contains("vs(t; k) and vr(t)"),
        "{}",
        joined.query
    );
    assert_eq!(joined.refreshes, 1);
    assert!(joined.tuples > 0);
}

/// Regression: a view registered while its base tables are still empty
/// must pick up later inserts. The optimizer's empty-scan short-circuit
/// is sound for the token-invalidated plan cache but not for a pinned
/// view plan — view preparation must keep the scan in the tree.
#[test]
fn view_registered_over_empty_table_sees_later_inserts() {
    let mut db = Database::new();
    db.create_table("ev", &["t"], &[]).unwrap();
    let id = db.register_view("wit", "ev(t) and t >= 0").unwrap();
    assert_eq!(db.view(id).unwrap().relation.tuple_count(), 0);

    let summary = db
        .apply_with(
            Txn::new().insert("ev", TupleSpec::new().lrp("t", 0, 2)),
            &ExecContext::new(),
        )
        .unwrap();
    assert_eq!(summary.views_refreshed, 1);

    let snap = db.view(id).unwrap();
    assert!(snap.relation.contains(&[4], &[]));
    assert!(!snap.relation.contains(&[3], &[]));

    // Draining the table again keeps the pinned plan live: the next
    // insert is still seen.
    db.apply_with(
        Txn::new().retract("ev", TupleSpec::new().lrp("t", 0, 2)),
        &ExecContext::new(),
    )
    .unwrap();
    assert_eq!(db.view(id).unwrap().relation.tuple_count(), 0);
    db.apply_with(
        Txn::new().insert("ev", TupleSpec::new().lrp("t", 1, 2)),
        &ExecContext::new(),
    )
    .unwrap();
    assert!(db.view(id).unwrap().relation.contains(&[5], &[]));
}
