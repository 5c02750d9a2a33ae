//! Randomized stress test: arbitrary compositions of the §3 algebra are
//! compared **pointwise** against a direct semantic evaluator. Because
//! every operator has compositional point semantics, no finite-window
//! approximation is involved — each check is exact at the sampled point.

use itd_core::{Atom, ExecContext, GenRelation, GenTuple, Lrp, Schema};
use proptest::prelude::*;

/// Expression over binary (temporal-arity-2, data-free) relations.
#[derive(Debug, Clone)]
enum Expr {
    Base(usize),
    Union(Box<Expr>, Box<Expr>),
    Intersect(Box<Expr>, Box<Expr>),
    Difference(Box<Expr>, Box<Expr>),
    SelectGe(usize, i64, Box<Expr>),
    SelectDiffLe(i64, Box<Expr>),
    Swap(Box<Expr>),
    Shift(usize, i64, Box<Expr>),
    Complement(Box<Expr>),
}

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

/// Three fixed base relations with small periods (2, 3) so complements stay
/// tractable inside deep expressions.
fn bases() -> Vec<GenRelation> {
    let schema = Schema::new(2, 0);
    vec![
        GenRelation::new(
            schema,
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 2), lrp(1, 2)])
                .atoms([Atom::diff_le(0, 1, 3)])
                .build()
                .unwrap()],
        )
        .unwrap(),
        GenRelation::new(
            schema,
            vec![
                GenTuple::builder()
                    .lrps(vec![lrp(1, 3), lrp(0, 3)])
                    .atoms([Atom::ge(0, -4)])
                    .build()
                    .unwrap(),
                GenTuple::unconstrained(vec![lrp(2, 3), lrp(2, 3)], vec![]).clone(),
            ],
        )
        .unwrap(),
        GenRelation::new(
            schema,
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 1), lrp(0, 2)])
                .atoms([Atom::diff_eq(0, 1, -1), Atom::le(0, 6)])
                .build()
                .unwrap()],
        )
        .unwrap(),
    ]
}

/// Direct (reference) point semantics.
fn member(e: &Expr, bases: &[GenRelation], x: i64, y: i64) -> bool {
    match e {
        Expr::Base(i) => bases[*i].contains(&[x, y], &[]),
        Expr::Union(a, b) => member(a, bases, x, y) || member(b, bases, x, y),
        Expr::Intersect(a, b) => member(a, bases, x, y) && member(b, bases, x, y),
        Expr::Difference(a, b) => member(a, bases, x, y) && !member(b, bases, x, y),
        Expr::SelectGe(col, c, a) => {
            member(a, bases, x, y) && (if *col == 0 { x } else { y }) >= *c
        }
        Expr::SelectDiffLe(c, a) => member(a, bases, x, y) && x <= y + c,
        Expr::Swap(a) => member(a, bases, y, x),
        Expr::Shift(col, d, a) => {
            if *col == 0 {
                member(a, bases, x - d, y)
            } else {
                member(a, bases, x, y - d)
            }
        }
        Expr::Complement(a) => !member(a, bases, x, y),
    }
}

/// Symbolic evaluation through the real algebra.
fn eval(e: &Expr, bases: &[GenRelation]) -> itd_core::Result<GenRelation> {
    Ok(match e {
        Expr::Base(i) => bases[*i].clone(),
        Expr::Union(a, b) => eval(a, bases)?.union_in(&eval(b, bases)?, &ExecContext::serial())?,
        Expr::Intersect(a, b) => {
            eval(a, bases)?.intersect_in(&eval(b, bases)?, &ExecContext::serial())?
        }
        Expr::Difference(a, b) => {
            eval(a, bases)?.difference_in(&eval(b, bases)?, &ExecContext::serial())?
        }
        Expr::SelectGe(col, c, a) => {
            eval(a, bases)?.select_temporal_in(Atom::ge(*col, *c), &ExecContext::serial())?
        }
        Expr::SelectDiffLe(c, a) => {
            eval(a, bases)?.select_temporal_in(Atom::diff_le(0, 1, *c), &ExecContext::serial())?
        }
        Expr::Swap(a) => eval(a, bases)?.project_in(&[1, 0], &[], &ExecContext::serial())?,
        Expr::Shift(col, d, a) => {
            eval(a, bases)?.shift_temporal_in(*col, *d, &ExecContext::serial())?
        }
        Expr::Complement(a) => {
            eval(a, bases)?.complement_temporal_with_limit_in(1 << 16, &ExecContext::serial())?
        }
    })
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (0usize..3).prop_map(Expr::Base);
    leaf.prop_recursive(3, 12, 2, |inner| {
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
            (-4i64..4, inner.clone()).prop_map(|(c, a)| Expr::SelectDiffLe(c, Box::new(a))),
            inner.clone().prop_map(|a| Expr::Swap(Box::new(a))),
            (0usize..2, -3i64..3, inner.clone()).prop_map(|(col, d, a)| Expr::Shift(
                col,
                d,
                Box::new(a)
            )),
            inner.prop_map(|a| Expr::Complement(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn symbolic_algebra_matches_point_semantics(
        e in expr_strategy(),
        points in proptest::collection::vec((-12i64..12, -12i64..12), 6),
    ) {
        let bases = bases();
        let rel = match eval(&e, &bases) {
            Ok(r) => r,
            // Complement blow-up guards are legitimate outcomes for
            // adversarial expressions; skip those cases.
            Err(itd_core::CoreError::TooManyExtensions { .. }) => return Ok(()),
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        };
        for (x, y) in points {
            let expect = member(&e, &bases, x, y);
            prop_assert_eq!(
                rel.contains(&[x, y], &[]),
                expect,
                "expr {:?} at ({}, {})", e, x, y
            );
        }
    }

    /// Compaction never changes semantics, on the same random
    /// expressions.
    #[test]
    fn compaction_preserves_random_expressions(
        e in expr_strategy(),
        points in proptest::collection::vec((-10i64..10, -10i64..10), 4),
    ) {
        let bases = bases();
        let rel = match eval(&e, &bases) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        let compacted = rel
            .compact_in(&ExecContext::serial())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        for (x, y) in points {
            let expect = rel.contains(&[x, y], &[]);
            prop_assert_eq!(compacted.contains(&[x, y], &[]), expect);
        }
    }
}
