//! Golden EXPLAIN snapshots: the rendered pre/post-rewrite plan trees
//! for representative queries are pinned byte-for-byte. A diff here
//! means the lowering, the cost model's printed estimates, or a rewrite
//! rule changed behavior — update the golden deliberately, in the same
//! change that altered the optimizer. Also checks that EXPLAIN shows the
//! plan execution runs, under every optimizer and compaction setting.

use itd_core::{GenRelation, GenTuple, Lrp, Schema, Value};
use itd_db::{Database, TupleSpec};
use itd_query::{explain, parse, MemoryCatalog, Plan, PlanNode, PlanOp, QueryOpts};

/// A fixed catalog (no randomness) so estimates — and therefore the
/// rendered goldens — are stable.
fn catalog() -> MemoryCatalog {
    let mut cat = MemoryCatalog::new();
    let unary = |residues: &[i64], k: i64| {
        let mut rel = GenRelation::empty(Schema::new(1, 0));
        for &r in residues {
            rel.push(GenTuple::unconstrained(
                vec![Lrp::new(r, k).unwrap()],
                vec![],
            ))
            .unwrap();
        }
        rel
    };
    cat.insert("p", unary(&[0, 1, 2, 3, 4, 5, 0, 2, 4, 1, 3, 5], 6));
    cat.insert("q", unary(&[0, 3, 1, 4, 2, 5, 0, 1, 2, 3, 4, 5], 6));
    cat.insert("r", unary(&[0, 3], 6));
    cat.insert("never", GenRelation::empty(Schema::new(1, 0)));
    cat.insert(
        "perform",
        GenRelation::builder(Schema::new(1, 1))
            .push_row(GenTuple::unconstrained(
                vec![Lrp::new(0, 4).unwrap()],
                vec![Value::str("robot1")],
            ))
            .push_row(GenTuple::unconstrained(
                vec![Lrp::new(2, 4).unwrap()],
                vec![Value::str("robot2")],
            ))
            .build()
            .unwrap(),
    );
    cat.insert(
        "task",
        GenRelation::builder(Schema::new(2, 1))
            .push_row(GenTuple::unconstrained(
                vec![Lrp::new(0, 4).unwrap(), Lrp::new(1, 4).unwrap()],
                vec![Value::str("robot1")],
            ))
            .build()
            .unwrap(),
    );
    cat
}

/// Compares the EXPLAIN renderings of `srcs`, one after the other,
/// against the golden, or rewrites it when `BLESS` is set in the
/// environment (`BLESS=1 cargo test -p itd-db --test plan_snapshots`,
/// then rebuild — goldens are compiled in via `include_str!`).
#[track_caller]
fn check(srcs: &[&str], name: &str, golden: &str) {
    let cat = catalog();
    let actual: String = srcs
        .iter()
        .map(|src| {
            explain(&cat, &parse(src).unwrap(), QueryOpts::new())
                .unwrap()
                .render()
        })
        .collect();
    let src = srcs.join("`, `");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(format!("../../tests/goldens/{name}"), &actual).unwrap();
        return;
    }
    assert_eq!(
        actual, golden,
        "\nEXPLAIN golden mismatch for `{src}`.\nActual output:\n\
         ---8<---\n{actual}--->8---\n"
    );
}

/// Greedy join reordering: the parse order pairs the two 12-row
/// relations first; the optimizer starts from the 2-row `r`.
#[test]
fn golden_join_reorder() {
    check(
        &["p(t) and q(t) and r(t)"],
        "join_reorder.explain.txt",
        include_str!("goldens/join_reorder.explain.txt"),
    );
}

/// Empty short-circuits: the empty scan collapses the whole tree before
/// any join runs.
#[test]
fn golden_empty_short_circuit() {
    check(
        &["exists t. (p(t) and q(t)) and never(t)"],
        "empty_short_circuit.explain.txt",
        include_str!("goldens/empty_short_circuit.explain.txt"),
    );
}

/// Selection pushdown plus negation: the constraint sinks below the
/// join, and the negated predicate is subtracted from the join instead of
/// differenced from `Z` and joined.
#[test]
fn golden_pushdown_with_negation() {
    check(
        &[r#"exists t. (p(t) and perform(t; "robot1")) and t >= 4 and not q(t)"#],
        "pushdown_negation.explain.txt",
        include_str!("goldens/pushdown_negation.explain.txt"),
    );
}

/// The antijoin rewrite on its three shapes: a negated atom with the same
/// variables as the join under a selection (a plain difference), one on a
/// strict subset with a data column (an antijoin), and one with a
/// variable no positive conjunct binds, where the rule must not fire.
#[test]
fn golden_antijoin() {
    check(
        &[
            "p(t) and not q(t) and t >= 4",
            "task(t1, t2; x) and not perform(t1; x)",
            "p(t) and not q(u)",
        ],
        "antijoin.explain.txt",
        include_str!("goldens/antijoin.explain.txt"),
    );
}

/// The plan as (node id, operation) pairs in pre-order.
fn shape(plan: &Plan) -> Vec<(u64, PlanOp)> {
    fn walk(node: &PlanNode, out: &mut Vec<(u64, PlanOp)>) {
        out.push((node.id, node.op.clone()));
        for child in &node.children {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    walk(plan.root(), &mut out);
    out
}

/// EXPLAIN's executed plan is the plan `run` executes, node for node,
/// with the optimizer and compaction each on or off. Twelve rows per
/// table put both scans over the compaction threshold, so compaction
/// passes appear whenever compaction is on — with the optimizer off too.
#[test]
fn explain_shows_the_executed_plan() {
    let mut db = Database::new();
    for (name, period) in [("p", 12), ("q", 16)] {
        db.create_table(name, &["t"], &[]).unwrap();
        let table = db.table_mut(name).unwrap();
        for offset in 0..12 {
            table
                .insert(TupleSpec::new().lrp("t", offset, period))
                .unwrap();
        }
    }
    let src = "p(t) and q(t)";
    for optimize in [true, false] {
        for compact in [true, false] {
            let opts = QueryOpts::new().optimize(optimize).compact(compact);
            let explained = shape(&db.explain(src, opts).unwrap().executed);
            let executed = shape(&db.run(src, opts).unwrap().plan);
            let case = format!("optimize {optimize}, compact {compact}");
            assert_eq!(explained, executed, "{case}");
            assert_eq!(
                executed.iter().any(|(_, op)| *op == PlanOp::Compact),
                compact,
                "{case}: compaction passes present exactly when on"
            );
        }
    }
}
