//! The compaction pass's soundness contract, property-tested: for random
//! formulas over a catalog bulky enough that the cost model actually
//! inserts compaction, (1) the compacted evaluation computes the same
//! query as the uncompacted one (same columns, same denotation, same
//! emptiness verdict), (2) each mode is bit-identical at 1, 2, and 8
//! threads — results AND counters — and (3) every compaction call obeys
//! its exact counter budget `subsumed + merged + kept == seen`.

use itd_core::{Atom, ExecContext, GenRelation, GenTuple, Lrp, OpKind, Schema, Value};
use itd_query::{run, CmpOp, Formula, MemoryCatalog, QueryOpts, TemporalTerm};
use proptest::prelude::*;

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

/// Small-period relations so complements (∀, ¬) stay tractable, plus a
/// deliberately redundant `big` relation — duplicate residues and
/// constraint-weakened copies — whose scan estimate clears the cost
/// model's compaction threshold.
fn catalog() -> MemoryCatalog {
    let mut cat = MemoryCatalog::new();
    cat.insert(
        "p",
        GenRelation::builder(Schema::new(1, 0))
            .push_row(GenTuple::unconstrained(vec![lrp(0, 2)], vec![]))
            .build()
            .unwrap(),
    );
    cat.insert(
        "q",
        GenRelation::builder(Schema::new(1, 0))
            .push_row(
                GenTuple::builder()
                    .lrps(vec![lrp(1, 3)])
                    .atoms([Atom::ge(0, -6)])
                    .build()
                    .unwrap(),
            )
            .push_row(GenTuple::unconstrained(vec![lrp(2, 6)], vec![]))
            .build()
            .unwrap(),
    );
    let mut big = GenRelation::empty(Schema::new(1, 0));
    for i in 0..12i64 {
        let l = lrp(i % 6, 6);
        let t = if i % 2 == 0 {
            GenTuple::unconstrained(vec![l], vec![])
        } else {
            // Subsumed by the unconstrained tuple of the same residue.
            GenTuple::builder()
                .lrps(vec![l])
                .atoms([Atom::ge(0, -6 - i)])
                .build()
                .unwrap()
        };
        big.push(t).unwrap();
    }
    cat.insert("big", big);
    cat.insert(
        "r",
        GenRelation::builder(Schema::new(1, 1))
            .push_row(GenTuple::unconstrained(
                vec![lrp(0, 4)],
                vec![Value::str("a")],
            ))
            .push_row(GenTuple::unconstrained(
                vec![lrp(3, 4)],
                vec![Value::str("b")],
            ))
            .build()
            .unwrap(),
    );
    cat.insert("never", GenRelation::empty(Schema::new(1, 0)));
    cat
}

fn temporal_term() -> impl Strategy<Value = TemporalTerm> {
    prop_oneof![
        (-3i64..4).prop_map(TemporalTerm::Const),
        (prop_oneof![Just("t"), Just("u")], -2i64..3)
            .prop_map(|(v, s)| TemporalTerm::var_plus(v, s)),
    ]
}

fn leaf() -> impl Strategy<Value = Formula> {
    prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        (
            prop_oneof![Just("p"), Just("q"), Just("big"), Just("never")],
            temporal_term()
        )
            .prop_map(|(name, term)| Formula::Pred {
                name: name.to_string(),
                temporal: vec![term],
                data: vec![],
            }),
        (temporal_term(),).prop_map(|(term,)| Formula::Pred {
            name: "r".to_string(),
            temporal: vec![term],
            data: vec![itd_query::DataTerm::var("x")],
        }),
        (
            temporal_term(),
            prop_oneof![
                Just(CmpOp::Le),
                Just(CmpOp::Lt),
                Just(CmpOp::Ge),
                Just(CmpOp::Eq),
                Just(CmpOp::Ne)
            ],
            temporal_term()
        )
            .prop_map(|(left, op, right)| Formula::TempCmp { left, op, right }),
    ]
}

fn formula_strategy() -> impl Strategy<Value = Formula> {
    leaf().prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            inner.clone().prop_map(Formula::not),
            inner
                .clone()
                .prop_map(|b| Formula::exists("t", Formula::and(b, tether("t")))),
            inner
                .clone()
                .prop_map(|b| Formula::forall("u", Formula::implies(tether("u"), b))),
            inner.prop_map(|b| Formula::exists("x", b)),
        ]
    })
}

/// Keeps a quantified temporal variable inside a periodic relation so
/// universal quantification stays a small-grid complement.
fn tether(v: &str) -> Formula {
    Formula::Pred {
        name: "p".to_string(),
        temporal: vec![TemporalTerm::var(v)],
        data: vec![],
    }
}

/// Per-operator `(kind, tuples_in, tuples_out, pairs, subsumed, merged)`
/// counter rows.
type CounterRows = Vec<(OpKind, u64, u64, u64, u64, u64)>;

/// Evaluates `f` with compaction on or off; errors from oversized
/// intermediate relations (complement limits) discard the case.
fn eval(
    cat: &MemoryCatalog,
    f: &Formula,
    compact: bool,
    threads: usize,
) -> Result<Option<(itd_query::QueryResult, CounterRows)>, TestCaseError> {
    let ctx = ExecContext::with_threads(threads);
    match run(cat, f, QueryOpts::new().ctx(&ctx).compact(compact)) {
        Ok(out) => {
            let compact_op = *ctx.stats().op(OpKind::Compact);
            if compact {
                prop_assert_eq!(
                    compact_op.tuples_subsumed + compact_op.coalesce_merges + compact_op.tuples_out,
                    compact_op.tuples_in,
                    "compaction counter budget violated on {:?}",
                    f
                );
            } else {
                prop_assert_eq!(
                    compact_op.calls,
                    0,
                    "compaction off must execute no compact pass on {:?}",
                    f
                );
            }
            let counters = ctx
                .stats()
                .iter()
                .map(|(kind, op)| {
                    (
                        kind,
                        op.tuples_in,
                        op.tuples_out,
                        op.pairs,
                        op.tuples_subsumed,
                        op.coalesce_merges,
                    )
                })
                .collect();
            Ok(Some((out.result, counters)))
        }
        Err(itd_query::QueryError::Core(itd_core::CoreError::TooManyExtensions { .. })) => Ok(None),
        Err(itd_query::QueryError::SortConflict { .. }) => Ok(None),
        Err(other) => Err(TestCaseError::fail(format!("{other}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both modes are deterministic in the thread count: same relation
    /// (tuple-for-tuple) and same operator counters — compaction's
    /// subsumed/merged tallies included — at 1, 2, 8 threads.
    #[test]
    fn each_mode_bit_identical_across_thread_counts(f in formula_strategy()) {
        let cat = catalog();
        for compact in [false, true] {
            let Some(base) = eval(&cat, &f, compact, 1)? else { return Ok(()) };
            for threads in [2usize, 8] {
                let Some(got) = eval(&cat, &f, compact, threads)? else { return Ok(()) };
                prop_assert_eq!(
                    &got.0.relation, &base.0.relation,
                    "compact={} at {} threads changed the result of {:?}",
                    compact, threads, f
                );
                prop_assert_eq!(
                    &got.1, &base.1,
                    "compact={} at {} threads changed the counters of {:?}",
                    compact, threads, f
                );
            }
        }
    }

    /// The pass is sound: a compacted evaluation answers exactly the
    /// uncompacted query — same columns, same denotation on a window,
    /// same emptiness verdict.
    #[test]
    fn compacted_equals_uncompacted(f in formula_strategy()) {
        let cat = catalog();
        let Some((plain, _)) = eval(&cat, &f, false, 1)? else { return Ok(()) };
        let Some((compacted, _)) = eval(&cat, &f, true, 1)? else { return Ok(()) };
        prop_assert_eq!(&compacted.temporal_vars, &plain.temporal_vars);
        prop_assert_eq!(&compacted.data_vars, &plain.data_vars);
        prop_assert_eq!(
            compacted.relation.denotes_empty().map_err(|e| TestCaseError::fail(format!("{e}")))?,
            plain.relation.denotes_empty().map_err(|e| TestCaseError::fail(format!("{e}")))?,
            "emptiness diverged on {:?}", f
        );
        prop_assert_eq!(
            compacted.relation.materialize(-24, 24),
            plain.relation.materialize(-24, 24),
            "denotation diverged on {:?}", f
        );
    }

    /// Compacting a random relation directly never changes what it
    /// denotes, and the per-call counter budget is exact.
    #[test]
    fn compact_preserves_denotation(seed in 0u64..512) {
        use itd_workload::{random_relation, RelationSpec};
        let rel = random_relation(
            &RelationSpec {
                tuples: 12,
                temporal_arity: 2,
                period: 6,
                data_arity: 0,
                constraint_density: 0.5,
                bound_steps: 5,
            },
            seed,
        );
        let ctx = ExecContext::serial();
        let compacted = rel.compact_in(&ctx).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let op = *ctx.stats().op(OpKind::Compact);
        prop_assert_eq!(
            op.tuples_subsumed + op.coalesce_merges + op.tuples_out,
            op.tuples_in
        );
        prop_assert_eq!(op.tuples_in, rel.tuple_count() as u64);
        prop_assert_eq!(op.tuples_out, compacted.tuple_count() as u64);
        prop_assert!(compacted.tuple_count() <= rel.tuple_count());
        prop_assert_eq!(
            compacted.materialize(-24, 24),
            rel.materialize(-24, 24),
            "compaction changed the denotation of seed {}", seed
        );
    }
}

/// Every counter of the `Compact` op except wall time, in `OpCounters`
/// field order.
fn compact_counters(ctx: &ExecContext) -> [u64; 11] {
    let op = *ctx.stats().op(OpKind::Compact);
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
}

/// The fixed compaction grid: `(case name, input)` over data arity 0–2
/// and periods 2/3/4/6/9/12. Each seeded relation gets a complete
/// residue family (coalescible), duplicate rows and an unsatisfiable
/// row; complement outputs of a one-tuple relation close the grid.
fn compaction_grid() -> Vec<(String, GenRelation)> {
    use itd_workload::{random_relation, RelationSpec};
    let mut cases = Vec::new();
    for data_arity in 0..=2usize {
        for period in [2i64, 3, 4, 6, 9, 12] {
            for seed in [1u64, 2] {
                let spec = RelationSpec {
                    tuples: 6,
                    temporal_arity: 2,
                    period,
                    data_arity,
                    constraint_density: 0.4,
                    bound_steps: 4,
                };
                let mut rel = random_relation(&spec, seed * 1000 + period as u64);
                let data = vec![Value::str("a"); data_arity];
                for c in 0..period {
                    rel.push(GenTuple::unconstrained(
                        vec![lrp(c, period), lrp(seed as i64 % period, period)],
                        data.clone(),
                    ))
                    .unwrap();
                }
                let dups: Vec<GenTuple> = rel.rows().take(2).map(|r| r.to_tuple()).collect();
                for t in dups {
                    rel.push(t).unwrap();
                }
                rel.push(
                    GenTuple::builder()
                        .lrps(vec![lrp(1 % period, period), lrp(0, period)])
                        .atoms([Atom::le(0, 0), Atom::ge(0, 5)])
                        .data(data)
                        .build()
                        .unwrap(),
                )
                .unwrap();
                cases.push((format!("d{data_arity} k{period} s{seed}"), rel));
            }
        }
    }
    for period in [2i64, 3, 4, 6, 9, 12] {
        let rel = GenRelation::builder(Schema::new(1, 0))
            .push_row(
                GenTuple::builder()
                    .lrps(vec![lrp(0, period)])
                    .atoms([Atom::ge(0, 0)])
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let comp = rel.complement_temporal_in(&ExecContext::serial()).unwrap();
        cases.push((format!("complement k{period}"), comp));
    }
    cases
}

/// Renders every grid case: its `Compact` counter vector, then its kept
/// tuples in output order.
fn render_compaction_grid(threads: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (name, rel) in compaction_grid() {
        let ctx = ExecContext::with_threads(threads);
        let kept = rel.compact_in(&ctx).unwrap();
        writeln!(out, "{name}: {:?}", compact_counters(&ctx)).unwrap();
        for row in kept.rows() {
            writeln!(out, "  {}", row.to_tuple()).unwrap();
        }
    }
    out
}

/// The kept tuples and counters of the fixed compaction grid, pinned at
/// 1/2/8 threads against `tests/goldens/compaction_grid.txt`. Regenerate
/// on a deliberate change with
/// `BLESS=1 cargo test -p itd-db --test compaction_equivalence`, then
/// rebuild (the golden is compiled in via `include_str!`).
#[test]
fn compaction_grid_is_pinned() {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(
            "../../tests/goldens/compaction_grid.txt",
            render_compaction_grid(1),
        )
        .expect("write golden");
        return;
    }
    let golden = include_str!("goldens/compaction_grid.txt");
    for threads in [1usize, 2, 8] {
        assert_eq!(
            render_compaction_grid(threads),
            golden,
            "compaction at {threads} threads drifted from tests/goldens/compaction_grid.txt \
             (rerun with BLESS=1 if the change is deliberate)"
        );
    }
}
