//! The instrumented parallel executor: results must be bit-identical at
//! every thread count, and the per-operator counters must match the
//! paper's own worked examples exactly.

use itd_core::{Atom, ExecContext, GenRelation, GenTuple, Lrp, OpKind, Schema};
use proptest::prelude::*;

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

/// Small-period base relations (stress_random_algebra's family) so that
/// complements stay tractable inside deep expressions.
fn bases() -> Vec<GenRelation> {
    let schema = Schema::new(2, 0);
    vec![
        GenRelation::builder(schema)
            .push_row(
                GenTuple::builder()
                    .lrps(vec![lrp(0, 2), lrp(1, 2)])
                    .atoms([Atom::diff_le(0, 1, 3)])
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap(),
        GenRelation::builder(schema)
            .push_row(
                GenTuple::builder()
                    .lrps(vec![lrp(1, 3), lrp(0, 3)])
                    .atoms([Atom::ge(0, -4)])
                    .build()
                    .unwrap(),
            )
            .push_row(GenTuple::unconstrained(vec![lrp(2, 3), lrp(2, 3)], vec![]))
            .build()
            .unwrap(),
        GenRelation::builder(schema)
            .push_row(
                GenTuple::builder()
                    .lrps(vec![lrp(0, 1), lrp(0, 2)])
                    .atoms([Atom::diff_eq(0, 1, -1), Atom::le(0, 6)])
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap(),
    ]
}

/// Random algebra expression over the base relations.
#[derive(Debug, Clone)]
enum Expr {
    Base(usize),
    Union(Box<Expr>, Box<Expr>),
    Intersect(Box<Expr>, Box<Expr>),
    Difference(Box<Expr>, Box<Expr>),
    SelectGe(usize, i64, Box<Expr>),
    Swap(Box<Expr>),
    Shift(usize, i64, Box<Expr>),
    Complement(Box<Expr>),
    Normalize(Box<Expr>),
}

/// Symbolic evaluation entirely through the `_in` operators of `ctx`.
fn eval_in(e: &Expr, bases: &[GenRelation], ctx: &ExecContext) -> itd_core::Result<GenRelation> {
    Ok(match e {
        Expr::Base(i) => bases[*i].clone(),
        Expr::Union(a, b) => eval_in(a, bases, ctx)?.union_in(&eval_in(b, bases, ctx)?, ctx)?,
        Expr::Intersect(a, b) => {
            eval_in(a, bases, ctx)?.intersect_in(&eval_in(b, bases, ctx)?, ctx)?
        }
        Expr::Difference(a, b) => {
            eval_in(a, bases, ctx)?.difference_in(&eval_in(b, bases, ctx)?, ctx)?
        }
        Expr::SelectGe(col, c, a) => {
            eval_in(a, bases, ctx)?.select_temporal_in(Atom::ge(*col, *c), ctx)?
        }
        Expr::Swap(a) => eval_in(a, bases, ctx)?.project_in(&[1, 0], &[], ctx)?,
        Expr::Shift(col, d, a) => eval_in(a, bases, ctx)?.shift_temporal_in(*col, *d, ctx)?,
        Expr::Complement(a) => {
            eval_in(a, bases, ctx)?.complement_temporal_with_limit_in(1 << 16, ctx)?
        }
        Expr::Normalize(a) => eval_in(a, bases, ctx)?.normalize_in(ctx)?,
    })
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (0usize..3).prop_map(Expr::Base);
    leaf.prop_recursive(3, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Intersect(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Difference(Box::new(a), Box::new(b))),
            (0usize..2, -5i64..5, inner.clone()).prop_map(|(col, c, a)| Expr::SelectGe(
                col,
                c,
                Box::new(a)
            )),
            inner.clone().prop_map(|a| Expr::Swap(Box::new(a))),
            (0usize..2, -3i64..3, inner.clone()).prop_map(|(col, d, a)| Expr::Shift(
                col,
                d,
                Box::new(a)
            )),
            inner.clone().prop_map(|a| Expr::Complement(Box::new(a))),
            inner.prop_map(|a| Expr::Normalize(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole guarantee: evaluating any expression at 1, 2, or 8
    /// threads yields *bit-identical* relations — same tuples, same order.
    #[test]
    fn results_bit_identical_across_thread_counts(e in expr_strategy()) {
        let bases = bases();
        let serial = match eval_in(&e, &bases, &ExecContext::serial()) {
            Ok(r) => r,
            Err(itd_core::CoreError::TooManyExtensions { .. }) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        };
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let got = eval_in(&e, &bases, &ctx)
                .map_err(|err| TestCaseError::fail(format!("{err}")))?;
            prop_assert_eq!(
                &got, &serial,
                "thread count {} changed the result of {:?}", threads, e
            );
        }
    }

    /// Span trees are deterministic: tracing any expression at 1, 2, or 8
    /// threads records the same tree — same span ids, parents, labels,
    /// and per-span counters — once timing is stripped. (Span ids come
    /// from the context-local begin-order counter, not thread identity.)
    #[test]
    fn span_tree_identical_across_thread_counts(e in expr_strategy()) {
        let bases = bases();
        let traced = |threads: usize| -> Result<Option<itd_core::Trace>, TestCaseError> {
            let ctx = ExecContext::with_threads(threads).traced();
            match eval_in(&e, &bases, &ctx) {
                Ok(_) => Ok(ctx.take_trace().map(|t| t.without_timing())),
                Err(itd_core::CoreError::TooManyExtensions { .. }) => Ok(None),
                Err(other) => Err(TestCaseError::fail(format!("{other}"))),
            }
        };
        let one = traced(1)?;
        prop_assert_eq!(traced(2)?, one.clone(), "2 threads changed the span tree of {:?}", &e);
        prop_assert_eq!(traced(8)?, one, "8 threads changed the span tree of {:?}", &e);
    }

    /// No operator work escapes the span tree: summing the operator spans
    /// of a trace reproduces the context's aggregate counters exactly —
    /// wall time included, at any thread count.
    #[test]
    fn span_totals_match_aggregate_counters(e in expr_strategy(), threads in 1usize..5) {
        let bases = bases();
        let ctx = ExecContext::with_threads(threads).traced();
        match eval_in(&e, &bases, &ctx) {
            Ok(_) | Err(itd_core::CoreError::TooManyExtensions { .. }) => {}
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        }
        let stats = ctx.stats();
        let trace = ctx.take_trace().expect("tracing is on");
        prop_assert_eq!(trace.op_totals(), stats);
        prop_assert_eq!(trace.spans().len() as u64, stats.total_calls());
    }

    /// Counters are deterministic too (they tally work items, not
    /// scheduling): the same expression produces the same `pairs`,
    /// `tuples_in`/`out`, and `empties_pruned` at any thread count.
    #[test]
    fn counters_identical_across_thread_counts(e in expr_strategy()) {
        let bases = bases();
        let count = |threads: usize| -> Result<Vec<(u64, u64, u64, u64)>, TestCaseError> {
            let ctx = ExecContext::with_threads(threads);
            match eval_in(&e, &bases, &ctx) {
                Ok(_) => {}
                Err(itd_core::CoreError::TooManyExtensions { .. }) => {}
                Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
            }
            Ok(ctx
                .stats()
                .iter()
                .map(|(_, op)| (op.tuples_in, op.tuples_out, op.pairs, op.empties_pruned))
                .collect())
        };
        let one = count(1)?;
        prop_assert_eq!(count(2)?, one.clone());
        prop_assert_eq!(count(8)?, one);
    }
}

/// Example 3.2 of the paper: normalizing `[4n₁+3, 8n₂+1]` with
/// `X₁ ≥ X₂ ∧ X₁ ≤ X₂+5 ∧ X₂ ≥ 2` refines to common period `k = 8`,
/// enumerates `(8/4)·(8/8) = 2` residue combinations, and drops one of
/// them as grid-unsatisfiable.
#[test]
fn normalize_counters_match_paper_example_3_2() {
    let rel = GenRelation::builder(Schema::new(2, 0))
        .push_row(
            GenTuple::builder()
                .lrps(vec![lrp(3, 4), lrp(1, 8)])
                .atoms([
                    Atom::diff_ge(0, 1, 0).unwrap(),
                    Atom::diff_le(0, 1, 5),
                    Atom::ge(1, 2),
                ])
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let ctx = ExecContext::serial();
    let norm = rel.normalize_in(&ctx).unwrap();
    assert_eq!(norm.tuple_count(), 1);
    let op = *ctx.stats().op(OpKind::Normalize);
    assert_eq!(op.calls, 1);
    assert_eq!(op.tuples_in, 1);
    assert_eq!(op.pairs, 2, "Π k/kᵢ = (8/4)(8/8)");
    assert_eq!(op.empties_pruned, 1, "the contradictory second combination");
    assert_eq!(op.tuples_out, 1);
    assert_eq!(op.max_period, 8);
    assert!(op.atoms_simplified > 0, "the tuple was rewritten");
}

/// The Π k/kᵢ counting formula on an unconstrained tuple: `[2n₁, 3n₂+1]`
/// refines to `k = 6` with `(6/2)·(6/3) = 6` combinations, all satisfiable.
#[test]
fn normalize_counters_match_counting_formula() {
    let rel = GenRelation::builder(Schema::new(2, 0))
        .push_row(GenTuple::unconstrained(vec![lrp(0, 2), lrp(1, 3)], vec![]))
        .build()
        .unwrap();
    let ctx = ExecContext::serial();
    let norm = rel.normalize_in(&ctx).unwrap();
    assert_eq!(norm.tuple_count(), 6);
    let op = *ctx.stats().op(OpKind::Normalize);
    assert_eq!(op.pairs, 6, "Π k/kᵢ = (6/2)(6/3)");
    assert_eq!(op.empties_pruned, 0);
    assert_eq!(op.tuples_out, 6);
    assert_eq!(op.max_period, 6);
}

/// Intersection counts every candidate pair (§3.2.2's N₁·N₂ bound).
#[test]
fn intersect_counters_count_pairs() {
    let b = bases();
    let (two, three) = (&b[0], &b[1]);
    let both = two.union_in(three, &ExecContext::serial()).unwrap(); // 3 tuples
    let ctx = ExecContext::serial();
    let out = both.intersect_in(&b[2], &ctx).unwrap();
    let op = *ctx.stats().op(OpKind::Intersect);
    assert_eq!(op.calls, 1);
    assert_eq!(op.tuples_in, 3 + 1);
    assert_eq!(op.pairs, 3, "N₁·N₂ candidate pairs");
    assert_eq!(op.tuples_out as usize, out.tuple_count());
    assert_eq!(
        op.tuples_out + op.empties_pruned,
        op.pairs,
        "every pair either survives or is pruned"
    );
}

/// Complement's `pairs` counter is the free-extension count `k^m`
/// (Appendix A.6), and the parallel fan-out preserves the serial output
/// exactly.
#[test]
fn complement_counters_count_free_extensions() {
    let rel = GenRelation::builder(Schema::new(2, 0))
        .push_row(
            GenTuple::builder()
                .lrps(vec![lrp(0, 3), lrp(1, 3)])
                .atom(Atom::ge(0, 0))
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let ctx = ExecContext::serial();
    let comp = rel.complement_temporal_in(&ctx).unwrap();
    let op = *ctx.stats().op(OpKind::Complement);
    assert_eq!(op.calls, 1);
    assert_eq!(op.pairs, 9, "k^m = 3² free extensions");
    assert_eq!(op.max_period, 3);

    let par = ExecContext::with_threads(8);
    let comp8 = rel.complement_temporal_in(&par).unwrap();
    assert_eq!(comp8, comp, "parallel complement must be bit-identical");
    assert_eq!(par.stats().op(OpKind::Complement).pairs, 9);
}

/// End-to-end: counters flow through query evaluation into
/// `QueryResult::stats`, and a context reused across queries accumulates.
#[test]
fn query_evaluation_reports_nonzero_stats() {
    use itd_query::{parse, run, MemoryCatalog, QueryOpts};
    let mut cat = MemoryCatalog::new();
    cat.insert(
        "even",
        GenRelation::builder(Schema::new(1, 0))
            .push_row(GenTuple::unconstrained(vec![lrp(0, 2)], vec![]))
            .build()
            .unwrap(),
    );
    let ctx = ExecContext::new();
    let f = parse("exists t. even(t) and even(t + 2) and even(0) and t >= 4").unwrap();
    let r = run(&cat, &f, QueryOpts::new().ctx(&ctx).optimize(false))
        .unwrap()
        .result;
    let stats = r.stats();
    assert!(!stats.is_zero());
    assert!(stats.op(OpKind::Join).calls > 0, "conjunction joins");
    assert!(stats.op(OpKind::Project).calls > 0, "∃ projects");
    assert!(stats.op(OpKind::Select).calls > 0, "even(0) selects");
    assert!(stats.op(OpKind::Shift).calls > 0, "t + 2 shifts");
    assert!(stats.total_calls() >= 4);

    // Reusing the context accumulates across evaluations.
    let before = stats.total_calls();
    let _ = run(&cat, &f, QueryOpts::new().ctx(&ctx).optimize(false)).unwrap();
    assert_eq!(ctx.stats().total_calls(), before * 2);
}

/// EXPLAIN ANALYZE acceptance: on a join+negation query, `explain`
/// renders the plan without executing, `run` with tracing yields a span
/// tree whose operator spans sum back to the aggregate counters, and the
/// tree is bit-identical across thread counts (up to timing).
#[test]
fn traced_query_spans_sum_to_stats_and_are_thread_invariant() {
    use itd_query::{explain, parse, run, MemoryCatalog, QueryOpts};
    let mut cat = MemoryCatalog::new();
    cat.insert(
        "even",
        GenRelation::builder(Schema::new(1, 0))
            .push_row(GenTuple::unconstrained(vec![lrp(0, 2)], vec![]))
            .build()
            .unwrap(),
    );
    let f = parse("even(t) and not even(t + 1)").unwrap();

    // EXPLAIN compiles the join + difference without touching a relation.
    let plan = explain(&cat, &f, QueryOpts::new()).unwrap().logical;
    let rendered = plan.render();
    assert!(rendered.contains("join on t"), "{rendered}");
    assert!(rendered.contains("difference from Z^1"), "{rendered}");

    let run_at = |threads: usize| {
        let ctx = ExecContext::with_threads(threads).traced();
        let out = run(
            &cat,
            &f,
            QueryOpts::new().ctx(&ctx).trace(true).optimize(false),
        )
        .unwrap();
        struct Traced {
            result: itd_query::QueryResult,
            plan: itd_query::Plan,
            trace: itd_core::Trace,
        }
        let traced = Traced {
            result: out.result,
            plan: out.plan,
            trace: out.trace.expect("tracing requested"),
        };
        (traced, ctx.stats())
    };
    let (baseline, stats1) = run_at(1);
    assert!(baseline.result.relation.contains(&[0], &[]));
    assert!(!baseline.result.relation.contains(&[1], &[]));

    // Operator spans reproduce the aggregate counters exactly (node spans
    // contribute nothing), and the plan root label matches the root span.
    assert_eq!(baseline.trace.op_totals(), stats1);
    assert_eq!(stats1, *baseline.result.stats());
    let root = baseline.trace.roots().next().unwrap();
    assert_eq!(root.label.name(), baseline.plan.root().label);
    assert!(
        baseline.trace.len() as u64 > stats1.total_calls(),
        "node spans present"
    );

    for threads in [2usize, 8] {
        let (traced, stats) = run_at(threads);
        assert_eq!(
            traced.trace.without_timing(),
            baseline.trace.without_timing(),
            "thread count {threads} changed the span tree"
        );
        assert_eq!(traced.trace.op_totals(), stats);
        assert_eq!(traced.result.relation, baseline.result.relation);
    }
}
