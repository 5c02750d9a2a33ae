//! The prepared-plan cache: warm `run()` calls reuse the parsed,
//! sort-checked, optimized plan (observable through
//! [`QueryOutput::plan_cached`] and [`itd_query::plan_cache_stats`]),
//! and every catalog mutation rotates the plan token so stale plans can
//! never be replayed against a changed schema.
//!
//! The cache is process-global and these tests share one binary with
//! other integration tests, so assertions use per-query `plan_cached`
//! flags and monotone `>=` deltas rather than exact global counts.

use itd_db::{Database, QueryOpts, TupleSpec};
use itd_query::{Catalog, MemoryCatalog};
use itd_workload::{random_relation, RelationSpec};

fn sample_db(table: &str) -> Database {
    let mut db = Database::new();
    db.create_table(table, &["dep", "arr"], &[]).unwrap();
    db.table_mut(table)
        .unwrap()
        .insert(TupleSpec::new().lrp("dep", 2, 5).lrp("arr", 4, 5))
        .unwrap();
    db
}

#[test]
fn warm_database_run_reuses_the_prepared_plan() {
    let db = sample_db("pc_trains");
    let src = "exists d. exists a. pc_trains(d, a)";

    let before = itd_query::plan_cache_stats();
    let cold = db.run(src, QueryOpts::new()).unwrap();
    let warm = db.run(src, QueryOpts::new()).unwrap();
    let after = itd_query::plan_cache_stats();

    assert!(!cold.plan_cached, "first run must prepare the plan");
    assert!(warm.plan_cached, "second run must be served from the cache");
    assert_eq!(cold.result.relation, warm.result.relation);
    assert!(after.hits > before.hits);
    assert!(after.misses > before.misses);
    assert!(after.insertions > before.insertions);
}

/// The key includes every knob that changes preparation, so flipping
/// `optimize`/`compact` is a miss, not a wrong plan. Tracing does not
/// change preparation (every prepared plan carries its estimates), so a
/// traced run reuses the plain run's plan.
#[test]
fn query_knobs_key_separate_plans() {
    let db = sample_db("pc_knobs");
    let src = "exists d. exists a. pc_knobs(d, a)";

    let plain = db.run(src, QueryOpts::new()).unwrap();
    assert!(!plain.plan_cached);
    let unopt = db.run(src, QueryOpts::new().optimize(false)).unwrap();
    assert!(!unopt.plan_cached, "optimize=false keys a distinct plan");
    let warm = db.run(src, QueryOpts::new().optimize(false)).unwrap();
    assert!(warm.plan_cached);
    assert_eq!(plain.result.relation, unopt.result.relation);
    assert_eq!(unopt.result.relation, warm.result.relation);

    let traced = db.run(src, QueryOpts::new().trace(true)).unwrap();
    assert!(traced.plan_cached, "tracing does not key a distinct plan");
    assert!(traced.trace.is_some());
    assert_eq!(traced.plan, plain.plan);

    // The admission estimate is the prepared root's annotation, whichever
    // way it is read.
    let estimate = db.estimate(src, QueryOpts::new()).unwrap();
    let root = plain.plan.root().est.expect("prepared plans are annotated");
    assert_eq!(estimate, plain.est_total_pairs);
    assert_eq!(estimate, root.total_pairs);
    let root = unopt.plan.root().est.expect("prepared plans are annotated");
    assert_eq!(unopt.est_total_pairs, root.total_pairs);
}

#[test]
fn catalog_mutation_invalidates_cached_plans() {
    let mut db = sample_db("pc_bump");
    let src = "exists d. exists a. pc_bump(d, a)";

    let cold = db.run(src, QueryOpts::new()).unwrap();
    assert!(!cold.plan_cached);
    assert!(db.run(src, QueryOpts::new()).unwrap().plan_cached);

    let token = db.plan_token();
    let before = itd_query::plan_cache_stats();
    db.table_mut("pc_bump")
        .unwrap()
        .insert(TupleSpec::new().lrp("dep", 0, 7).lrp("arr", 1, 7))
        .unwrap();
    let after = itd_query::plan_cache_stats();
    assert_ne!(
        db.plan_token(),
        token,
        "mutation must rotate the plan token"
    );
    assert!(
        after.invalidations > before.invalidations,
        "the cached plan under the old token must be dropped"
    );

    let recold = db.run(src, QueryOpts::new()).unwrap();
    assert!(!recold.plan_cached, "post-mutation run must re-prepare");
    assert!(db.run(src, QueryOpts::new()).unwrap().plan_cached);
}

#[test]
fn create_and_drop_table_rotate_the_token() {
    let mut db = sample_db("pc_ddl");
    let t0 = db.plan_token();
    db.create_table("pc_ddl_extra", &["t"], &[]).unwrap();
    let t1 = db.plan_token();
    assert_ne!(t0, t1);
    db.drop_table("pc_ddl_extra").unwrap();
    let t2 = db.plan_token();
    assert_ne!(t1, t2);
    // A failing DDL statement leaves the token alone.
    assert!(db.drop_table("pc_ddl_extra").is_err());
    assert_eq!(db.plan_token(), t2);
}

#[test]
fn memory_catalog_runs_warm_and_invalidates_on_insert() {
    let spec = RelationSpec {
        tuples: 4,
        temporal_arity: 2,
        period: 6,
        data_arity: 0,
        constraint_density: 0.5,
        bound_steps: 4,
    };
    let mut cat = MemoryCatalog::default();
    cat.insert("pc_mem", random_relation(&spec, 7));
    let token = cat.plan_token().expect("MemoryCatalog opts into the cache");
    let src = "exists x. exists y. pc_mem(x, y)";

    let cold = itd_query::run_src(&cat, src, itd_query::QueryOpts::new()).unwrap();
    let warm = itd_query::run_src(&cat, src, itd_query::QueryOpts::new()).unwrap();
    assert!(!cold.plan_cached);
    assert!(warm.plan_cached);
    assert_eq!(cold.result.relation, warm.result.relation);

    // `run` on a parsed formula keys by its rendered text: repeated
    // calls with the same formula warm each other.
    let f = itd_query::parse(src).unwrap();
    let by_formula = itd_query::run(&cat, &f, itd_query::QueryOpts::new()).unwrap();
    assert_eq!(by_formula.result.relation, cold.result.relation);
    assert!(
        itd_query::run(&cat, &f, itd_query::QueryOpts::new())
            .unwrap()
            .plan_cached
    );

    cat.insert("pc_mem", random_relation(&spec, 8));
    assert_ne!(cat.plan_token(), Some(token));
    let recold = itd_query::run_src(&cat, src, itd_query::QueryOpts::new()).unwrap();
    assert!(!recold.plan_cached, "insert must invalidate cached plans");
}
