//! The columnar interned store behind `GenRelation`: every construction
//! path must produce the same relation, every operator must stay
//! bit-identical (results *and* counters) across storage paths, thread
//! counts, and warm persistent indexes, snapshots must alias safely, and
//! the global interner invariants must hold.

use itd_core::{storage_stats, Atom, ExecContext, GenRelation, GenTuple, Lrp, Schema, Value};
use itd_workload::{random_relation, RelationSpec};
use proptest::prelude::*;

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

fn spec(tuples: usize, period: i64, data_arity: usize) -> RelationSpec {
    RelationSpec {
        tuples,
        temporal_arity: 2,
        period,
        data_arity,
        constraint_density: 0.5,
        bound_steps: 4,
    }
}

/// Rebuilds `rel` through every construction path: bulk `new`, the
/// builder's `push_row` append path, and incremental `push` onto an
/// empty relation (in-place), plus `push` onto a shared store (the
/// copy-on-write path).
fn rebuilt_paths(rel: &GenRelation) -> Vec<GenRelation> {
    let tuples: Vec<GenTuple> = rel.rows().map(|r| r.to_tuple()).collect();
    let bulk = GenRelation::new(rel.schema(), tuples.clone()).unwrap();
    let built = tuples
        .iter()
        .cloned()
        .fold(GenRelation::builder(rel.schema()), |b, t| b.push_row(t))
        .build()
        .unwrap();
    let mut pushed = GenRelation::empty(rel.schema());
    for t in &tuples {
        pushed.push(t.clone()).unwrap();
    }
    let mut cow = GenRelation::empty(rel.schema());
    let mut snapshots = Vec::new();
    for t in &tuples {
        snapshots.push(cow.clone()); // force the copy-on-write path
        cow.push(t.clone()).unwrap();
    }
    vec![bulk, built, pushed, cow]
}

/// Every counter of every op except wall time (which is never
/// deterministic across runs).
type Counters = Vec<[u64; 11]>;

/// Runs `op` under a fresh context and returns the result with the full
/// counter snapshot (timing excluded).
fn run_counted<F>(threads: usize, op: F) -> (GenRelation, Counters)
where
    F: FnOnce(&ExecContext) -> GenRelation,
{
    let ctx = ExecContext::with_threads(threads);
    let out = op(&ctx);
    let counters = ctx
        .stats()
        .iter()
        .map(|(_, op)| {
            [
                op.calls,
                op.tuples_in,
                op.tuples_out,
                op.pairs,
                op.empties_pruned,
                op.index_probes,
                op.index_pruned,
                op.atoms_simplified,
                op.tuples_subsumed,
                op.coalesce_merges,
                op.max_period,
            ]
        })
        .collect();
    (out, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every construction path — bulk, builder, in-place append,
    /// copy-on-write append — yields the same relation, structurally and
    /// semantically.
    #[test]
    fn construction_paths_agree(seed in 0u64..500, n in 1usize..10) {
        let rel = random_relation(&spec(n, 6, 1), seed);
        for (i, other) in rebuilt_paths(&rel).into_iter().enumerate() {
            prop_assert_eq!(&other, &rel, "construction path {} diverged", i);
            prop_assert_eq!(
                other.materialize(-8, 8),
                rel.materialize(-8, 8),
                "construction path {} changed the denotation", i
            );
        }
    }

    /// Interned ids are canonical and deterministic: building the same
    /// rows twice produces identical part-id and value-id columns.
    #[test]
    fn interned_ids_are_deterministic(seed in 0u64..500, n in 1usize..10) {
        let a = random_relation(&spec(n, 6, 2), seed);
        let tuples: Vec<GenTuple> = a.rows().map(|r| r.to_tuple()).collect();
        let b = GenRelation::new(a.schema(), tuples).unwrap();
        prop_assert_eq!(a.columns().part_ids(), b.columns().part_ids());
        for c in 0..a.schema().data() {
            prop_assert_eq!(a.columns().data(c).ids(), b.columns().data(c).ids());
        }
    }

    /// Every operator is bit-identical — same output rows in the same
    /// order *and* the same exact counters — across storage construction
    /// paths and across 1/2/8 threads.
    #[test]
    fn ops_bit_identical_across_paths_and_threads(seed in 0u64..200, n in 2usize..9) {
        let a = random_relation(&spec(n, 6, 0), seed);
        let b = random_relation(&spec(n, 4, 0), seed.wrapping_add(1));
        let a_paths = rebuilt_paths(&a);
        let b_paths = rebuilt_paths(&b);
        type Op = fn(&GenRelation, &GenRelation, &ExecContext) -> GenRelation;
        let ops: Vec<(&str, Op)> = vec![
            ("union", |x, y, ctx| x.union_in(y, ctx).unwrap()),
            ("intersect", |x, y, ctx| x.intersect_in(y, ctx).unwrap()),
            ("difference", |x, y, ctx| x.difference_in(y, ctx).unwrap()),
            ("cross", |x, y, ctx| x.cross_product_in(y, ctx).unwrap()),
            ("join", |x, y, ctx| x.join_on_in(y, &[(0, 0)], &[], ctx).unwrap()),
            ("project", |x, _, ctx| x.project_in(&[1, 0], &[], ctx).unwrap()),
            ("select", |x, _, ctx| {
                x.select_temporal_in(Atom::ge(0, 2), ctx).unwrap()
            }),
            ("shift", |x, _, ctx| x.shift_temporal_in(0, 3, ctx).unwrap()),
            ("normalize", |x, _, ctx| x.normalize_in(ctx).unwrap()),
            ("compact", |x, _, ctx| x.compact_in(ctx).unwrap()),
        ];
        for (name, op) in ops {
            let (base_out, base_stats) = run_counted(1, |ctx| op(&a, &b, ctx));
            for threads in [1usize, 2, 8] {
                for (pi, (ap, bp)) in a_paths.iter().zip(&b_paths).enumerate() {
                    let (out, stats) = run_counted(threads, |ctx| op(ap, bp, ctx));
                    prop_assert_eq!(
                        &out, &base_out,
                        "{} diverged on path {} at {} threads", name, pi, threads
                    );
                    prop_assert_eq!(
                        &stats, &base_stats,
                        "{} counters diverged on path {} at {} threads", name, pi, threads
                    );
                }
            }
        }
    }

    /// A warm persistent index (reused from the store's cache) must not
    /// change results or counters relative to the first, cold call.
    #[test]
    fn warm_persistent_index_keeps_counters_identical(seed in 0u64..200) {
        let a = random_relation(&spec(8, 12, 0), seed);
        let b = random_relation(&spec(8, 12, 0), seed.wrapping_add(7));
        let (cold_out, cold_stats) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
        for _ in 0..3 {
            let (warm_out, warm_stats) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
            prop_assert_eq!(&warm_out, &cold_out);
            prop_assert_eq!(&warm_stats, &cold_stats);
        }
    }
}

/// `clone` is a snapshot: appending to the original afterwards must not be
/// visible through the clone (copy-on-write), and the clone stays equal to
/// a fresh copy of the original rows.
#[test]
fn arc_snapshot_aliasing() {
    let schema = Schema::new(1, 1);
    let row = |c: i64, v: &str| {
        GenTuple::builder()
            .lrp(lrp(c, 5))
            .datum(Value::from(v))
            .build()
            .unwrap()
    };
    let mut rel = GenRelation::new(schema, vec![row(0, "a"), row(1, "b")]).unwrap();
    let snapshot = rel.clone();
    let frozen = GenRelation::new(schema, vec![row(0, "a"), row(1, "b")]).unwrap();

    rel.push(row(2, "c")).unwrap();
    rel.push(row(3, "d")).unwrap();

    assert_eq!(snapshot.tuple_count(), 2, "snapshot must not see appends");
    assert_eq!(snapshot, frozen, "snapshot must keep the original rows");
    assert_eq!(rel.tuple_count(), 4);
    assert!(rel.contains(&[7], &[Value::from("c")]));
    assert!(!snapshot.contains(&[7], &[Value::from("c")]));
    assert_eq!(
        snapshot.materialize(-6, 6),
        frozen.materialize(-6, 6),
        "snapshot denotation unchanged"
    );
}

/// In-place append: with a sole owner, `push` keeps the same store
/// allocation (the `Arc` is not replaced wholesale each time), and the
/// row becomes visible through the view API.
#[test]
fn push_appends_through_view_api() {
    let mut rel = GenRelation::empty(Schema::new(2, 0));
    for i in 0..5 {
        rel.push(GenTuple::unconstrained(
            vec![lrp(i, 7), lrp(i + 1, 7)],
            vec![],
        ))
        .unwrap();
    }
    assert_eq!(rel.tuple_count(), 5);
    let cols = rel.columns();
    assert_eq!(cols.temporal(0).offsets(), &[0, 1, 2, 3, 4]);
    assert_eq!(cols.temporal(1).offsets(), &[1, 2, 3, 4, 5]);
    assert_eq!(cols.temporal(0).periods(), &[7; 5]);
    let last = rel.row(4).unwrap();
    assert_eq!(last.lrps(), &[lrp(4, 7), lrp(5, 7)]);
    assert!(rel.rows().all(|r| r.constraints().is_unconstrained()));
}

/// The global interner bookkeeping: `hits == lookups − distinct` for both
/// the value arena and the temporal-part arena, at any point in time, and
/// re-interning existing keys only produces hits.
#[test]
fn global_interner_invariant_holds() {
    // Do some interning work first so the arenas are non-trivial.
    let rel = random_relation(&spec(6, 6, 2), 42);
    let again = GenRelation::new(rel.schema(), rel.rows().map(|r| r.to_tuple()).collect()).unwrap();
    assert_eq!(rel, again);

    let stats = storage_stats();
    assert!(stats.value_lookups >= stats.value_hits);
    assert_eq!(
        stats.value_lookups - stats.value_hits,
        stats.value_distinct,
        "value arena: every miss creates exactly one distinct entry\n{stats}"
    );
    assert!(stats.part_lookups >= stats.part_hits);
    assert_eq!(
        stats.part_lookups - stats.part_hits,
        stats.part_distinct,
        "part arena: every miss creates exactly one distinct entry\n{stats}"
    );
}

/// Re-interning a relation's rows is pure hits: the distinct counts do
/// not move, while lookups and hits advance in lockstep.
#[test]
fn reinterning_is_pure_hits() {
    let rel = random_relation(&spec(5, 8, 1), 7);
    let tuples: Vec<GenTuple> = rel.rows().map(|r| r.to_tuple()).collect();
    // Warm: every part and value is already in the global arenas. Other
    // tests run concurrently, so only assert deltas on *our* keys via the
    // invariant, not absolute counts: distinct must not grow from re-use.
    let before = storage_stats();
    let rebuilt = GenRelation::new(rel.schema(), tuples).unwrap();
    let after = storage_stats();
    assert_eq!(rebuilt, rel);
    assert!(
        after.value_distinct >= before.value_distinct
            && after.part_distinct >= before.part_distinct,
        "distinct counts are monotone"
    );
    assert!(
        after.value_hits > before.value_hits || rel.schema().data() == 0,
        "re-interning known values must register hits"
    );
    assert!(
        after.part_hits > before.part_hits,
        "re-interning known parts must register hits"
    );
}
