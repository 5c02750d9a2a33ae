//! Tuple difference (§3.3.3, Figure 1).

use itd_constraint::Atom;
use itd_lrp::Lrp;

use crate::normalize::{ResidueWalk, DEFAULT_NORMALIZE_LIMIT};
use crate::tuple::GenTuple;
use crate::Result;

/// Difference of two generalized tuples, per the paper's decomposition
/// (Figure 1):
///
/// ```text
/// t1 − t2 = (t1 − t2*) ∪ (t̄2 ∩ t1)
/// ```
///
/// where `t2*` is the free extension of `t2` (its lrps without constraints)
/// and `t̄2 = t2* − t2` is the part of the free extension excluded by `t2`'s
/// constraints.
///
/// * `t1 − t2*` removes, for each column `i`, the meet `l1ᵢ ∩ l2ᵢ` from
///   `l1ᵢ` (§3.3.1), with the other columns and `t1`'s constraints
///   unchanged. An infinite meet leaves the other `lcm/k₁ − 1` residue
///   classes of `l1ᵢ` at the meet's period, walked lazily by the one
///   residue enumerator (Lemma 3.1). A removed *single point* inside an
///   infinite column is expressed by splitting into `Xᵢ ≤ p−1` and
///   `Xᵢ ≥ p+1` — the paper's own negated-constraint device.
/// * `t̄2 ∩ t1` adds, for each negated atom `d` of `t2`'s constraints, the
///   tuple with columnwise-intersected lrps and constraints `C1 ∧ d`
///   (disjunctions are eliminated by splitting, as prescribed).
///
/// The result may contain syntactically nonempty but grid-empty tuples;
/// relation-level difference prunes them.
///
/// # Errors
/// [`CoreError::TooManyExtensions`](crate::CoreError::TooManyExtensions)
/// when a column's `lcm/k₁` residue classes exceed 2²⁰ (coprime periods —
/// the exponential difference of Table 2), checked before any class is
/// built; arithmetic overflow in the meet or in constraint negation.
///
/// # Panics
/// If the schemas differ.
pub fn difference_tuples(t1: &GenTuple, t2: &GenTuple) -> Result<Vec<GenTuple>> {
    assert_eq!(t1.schema(), t2.schema(), "schema mismatch in difference");
    // Different data values ⇒ disjoint denotations.
    if t1.data() != t2.data() {
        return Ok(vec![t1.clone()]);
    }
    if !t2.constraints().is_satisfiable() {
        return Ok(vec![t1.clone()]); // t2 is empty
    }
    // Columnwise intersections; any empty column ⇒ t1 ∩ t2* = ∅ ⇒ t1 − t2 = t1.
    let mut meets: Vec<Lrp> = Vec::with_capacity(t1.lrps().len());
    for (a, b) in t1.lrps().iter().zip(t2.lrps()) {
        match a.intersect(b)? {
            Some(l) => meets.push(l),
            None => return Ok(vec![t1.clone()]),
        }
    }

    let mut out = Vec::new();

    // Part 1: t1 − t2* — per column, what is left of `l1` once its meet
    // (a nonempty subset of `l1`) is removed.
    for (i, (l1, meet)) in t1.lrps().iter().zip(&meets).enumerate() {
        if meet == l1 {
            continue; // t2* covers the column: nothing is left.
        }
        if meet.is_point() {
            // `l1` is infinite (a point would equal its meet): split it
            // around the removed point.
            let p = meet.offset();
            for atom in [
                Atom::lt(i, p).ok_or(itd_numth::NumthError::Overflow)?,
                Atom::gt(i, p).ok_or(itd_numth::NumthError::Overflow)?,
            ] {
                let mut cons = t1.constraints().clone();
                cons.add(atom)?;
                if cons.is_satisfiable() {
                    out.push(GenTuple::from_parts(
                        t1.lrps().to_vec(),
                        cons,
                        t1.data().to_vec(),
                    )?);
                }
            }
            continue;
        }
        // Both infinite: every class of `l1` at the meet's period but the
        // meet itself.
        let mut walk = ResidueWalk::new(
            std::slice::from_ref(l1),
            meet.period(),
            DEFAULT_NORMALIZE_LIMIT,
        )?;
        if walk.combos() > DEFAULT_NORMALIZE_LIMIT {
            return Err(walk.too_many());
        }
        while let Some(class) = walk.next()? {
            if class[0] != *meet {
                let mut lrps = t1.lrps().to_vec();
                lrps[i] = class[0];
                out.push(GenTuple::from_parts(
                    lrps,
                    t1.constraints().clone(),
                    t1.data().to_vec(),
                )?);
            }
        }
    }

    // Part 2: t̄2 ∩ t1 — the intersected free extension restricted to the
    // negation of t2's constraints (one tuple per negated atom).
    if let Some(disjuncts) = t2.constraints().negation()? {
        for d in disjuncts {
            let mut cons = t1.constraints().clone();
            cons.add(d)?;
            if cons.is_satisfiable() {
                out.push(GenTuple::from_parts(
                    meets.clone(),
                    cons,
                    t1.data().to_vec(),
                )?);
            }
        }
    }
    // negation() == None would mean t2's constraints are unsatisfiable,
    // which was handled above.

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize_tuples;
    use crate::error::CoreError;
    use crate::value::Value;
    use proptest::prelude::*;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    /// Window check: does the symbolic difference match set difference?
    fn check_window(t1: &GenTuple, t2: &GenTuple, lo: i64, hi: i64) {
        let diff = difference_tuples(t1, t2).unwrap();
        let a = materialize_tuples(std::slice::from_ref(t1), lo, hi);
        let b = materialize_tuples(std::slice::from_ref(t2), lo, hi);
        let expect: Vec<_> = a.difference(&b).cloned().collect();
        let got = materialize_tuples(&diff, lo, hi);
        let got: Vec<_> = got.into_iter().collect();
        assert_eq!(expect, got, "t1 = {t1}, t2 = {t2}");
    }

    #[test]
    fn residue_class_removal() {
        // (2n) − (6n + 4) = {6n, 6n + 2}
        let t1 = GenTuple::unconstrained(vec![lrp(0, 2)], vec![]);
        let t2 = GenTuple::unconstrained(vec![lrp(4, 6)], vec![]);
        check_window(&t1, &t2, -20, 20);
    }

    /// The one-column tuple `{l}`.
    fn column(l: Lrp) -> GenTuple {
        GenTuple::unconstrained(vec![l], vec![])
    }

    #[test]
    fn column_difference_cases() {
        // Disjoint → unchanged.
        assert_eq!(
            difference_tuples(&column(lrp(0, 2)), &column(lrp(1, 2))).unwrap(),
            vec![column(lrp(0, 2))]
        );
        // Covering subtrahend → nothing left.
        for (a, b) in [
            (lrp(1, 4), lrp(1, 2)),
            (lrp(1, 2), Lrp::all()),
            (Lrp::point(5), lrp(1, 2)),
        ] {
            assert_eq!(difference_tuples(&column(a), &column(b)).unwrap(), vec![]);
        }
        // Point minus a progression missing it → unchanged.
        assert_eq!(
            difference_tuples(&column(Lrp::point(4)), &column(lrp(1, 2))).unwrap(),
            vec![column(Lrp::point(4))]
        );
        // Infinite minus an interior point → split around it.
        let split = difference_tuples(&column(lrp(1, 2)), &column(Lrp::point(5))).unwrap();
        assert_eq!(split.len(), 2);
        for x in -9..=15 {
            let expect = x % 2 != 0 && x != 5;
            assert_eq!(split.iter().any(|t| t.contains(&[x], &[])), expect, "{x}");
        }
        // The paper's §3.3.1 class case: (2n) − (6n + 4) = {6n, 6n + 2},
        // the surviving classes in the walk's order.
        let lrps: Vec<Vec<Lrp>> = difference_tuples(&column(lrp(0, 2)), &column(lrp(4, 6)))
            .unwrap()
            .iter()
            .map(|t| t.lrps().to_vec())
            .collect();
        assert_eq!(lrps, vec![vec![lrp(0, 6)], vec![lrp(2, 6)]]);
    }

    #[test]
    fn huge_coprime_difference_fails_fast_without_allocating() {
        // (2³¹n) − ((2³¹−1)n) keeps 2³¹ − 2 classes at period
        // 2³¹·(2³¹−1): the limit fires on the class count alone, before
        // any class is built.
        let t1 = GenTuple::unconstrained(vec![lrp(0, 1 << 31)], vec![]);
        let t2 = GenTuple::unconstrained(vec![lrp(0, (1 << 31) - 1)], vec![]);
        assert_eq!(
            difference_tuples(&t1, &t2),
            Err(CoreError::TooManyExtensions {
                period: (1 << 31) * ((1 << 31) - 1),
                arity: 1,
                limit: DEFAULT_NORMALIZE_LIMIT,
            })
        );
    }

    #[test]
    fn constrained_subtrahend_leaves_complement_part() {
        // Remove only the positive part of the same lrp.
        let t1 = GenTuple::unconstrained(vec![lrp(0, 2)], vec![]);
        let t2 = GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::ge(0, 0)])
            .build()
            .unwrap();
        check_window(&t1, &t2, -20, 20);
        let diff = difference_tuples(&t1, &t2).unwrap();
        // Expect exactly the negative evens.
        assert!(diff.iter().any(|t| t.contains(&[-2], &[])));
        assert!(!diff.iter().any(|t| t.contains(&[0], &[])));
    }

    #[test]
    fn puncture_single_point() {
        let t1 = GenTuple::unconstrained(vec![lrp(1, 2)], vec![]);
        let t2 = GenTuple::unconstrained(vec![Lrp::point(5)], vec![]);
        check_window(&t1, &t2, -10, 15);
    }

    #[test]
    fn disjoint_subtrahend_is_noop() {
        let t1 = GenTuple::unconstrained(vec![lrp(0, 2)], vec![]);
        let t2 = GenTuple::unconstrained(vec![lrp(1, 2)], vec![]);
        let diff = difference_tuples(&t1, &t2).unwrap();
        assert_eq!(diff, vec![t1.clone()]);
    }

    #[test]
    fn identical_tuples_cancel() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 3)])
            .atoms([Atom::ge(0, 0)])
            .build()
            .unwrap();
        let diff = difference_tuples(&t, &t).unwrap();
        let got = materialize_tuples(&diff, -30, 30);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn different_data_is_noop() {
        let t1 = GenTuple::unconstrained(vec![lrp(0, 2)], vec![Value::str("a")]);
        let t2 = GenTuple::unconstrained(vec![lrp(0, 2)], vec![Value::str("b")]);
        assert_eq!(difference_tuples(&t1, &t2).unwrap(), vec![t1.clone()]);
    }

    #[test]
    fn empty_subtrahend_is_noop() {
        let t1 = GenTuple::unconstrained(vec![lrp(0, 2)], vec![]);
        let t2 = GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::le(0, 0), Atom::ge(0, 2)])
            .build()
            .unwrap();
        assert_eq!(difference_tuples(&t1, &t2).unwrap(), vec![t1.clone()]);
    }

    #[test]
    fn two_dimensional_figure_1_shape() {
        // A constrained t2 inside t1's free extension: both parts of the
        // decomposition contribute.
        let t1 = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(0, 2)])
            .atoms([Atom::ge(0, -10)])
            .build()
            .unwrap();
        let t2 = GenTuple::builder()
            .lrps(vec![lrp(0, 4), lrp(0, 2)])
            .atoms([Atom::diff_le(0, 1, 0), Atom::ge(1, 0)])
            .build()
            .unwrap();
        check_window(&t1, &t2, -8, 12);
    }

    proptest! {
        #[test]
        fn prop_difference_matches_set_semantics(
            c1 in 0i64..4, k1 in 1i64..5,
            c2 in 0i64..4, k2 in 1i64..5,
            lo1 in -6i64..6,
            hi2 in -6i64..6,
        ) {
            let t1 = GenTuple::builder().lrps(vec![lrp(c1, k1)]).atoms([Atom::ge(0, lo1)]).build().unwrap();
            let t2 = GenTuple::builder().lrps(vec![lrp(c2, k2)]).atoms([Atom::le(0, hi2)]).build().unwrap();
            let diff = difference_tuples(&t1, &t2).unwrap();
            for x in -25i64..25 {
                let expect = t1.contains(&[x], &[]) && !t2.contains(&[x], &[]);
                let got = diff.iter().any(|t| t.contains(&[x], &[]));
                prop_assert_eq!(expect, got, "x = {}", x);
            }
        }

        #[test]
        fn prop_column_difference_matches_membership(
            c1 in -20i64..20, k1 in 0i64..15,
            c2 in -20i64..20, k2 in 0i64..15,
            x in -200i64..200,
        ) {
            let (a, b) = (Lrp::new(c1, k1).unwrap(), Lrp::new(c2, k2).unwrap());
            let diff = difference_tuples(&column(a), &column(b)).unwrap();
            let expect = a.contains(x) && !b.contains(x);
            prop_assert_eq!(expect, diff.iter().any(|t| t.contains(&[x], &[])));
        }

        #[test]
        fn prop_difference_2d(
            k1 in 1i64..4, k2 in 1i64..4,
            a in -4i64..4,
            b in -4i64..4,
        ) {
            let t1 = GenTuple::builder().lrps(vec![lrp(0, k1), lrp(1, k2)]).atoms([Atom::diff_le(0, 1, 3)]).build().unwrap();
            let t2 = GenTuple::builder().lrps(vec![lrp(0, 2), lrp(1, 2)]).atoms([Atom::diff_le(0, 1, a), Atom::ge(0, b)]).build().unwrap();
            let diff = difference_tuples(&t1, &t2).unwrap();
            for x in -8i64..8 {
                for y in -8i64..8 {
                    let expect = t1.contains(&[x, y], &[]) && !t2.contains(&[x, y], &[]);
                    let got = diff.iter().any(|t| t.contains(&[x, y], &[]));
                    prop_assert_eq!(expect, got, "({}, {})", x, y);
                }
            }
        }
    }
}
