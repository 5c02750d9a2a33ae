//! Figure 1 / §3.3: tuple and relation difference, with seeded randomized
//! cross-checks of the decomposition `t1 − t2 = (t1 − t2*) ∪ (t̄2 ∩ t1)`.

use itd_core::{ExecContext, GenRelation, Value};
use itd_workload::{random_relation, RelationSpec};

const WINDOW: (i64, i64) = (-15, 15);

fn mat(r: &GenRelation) -> std::collections::BTreeSet<(Vec<i64>, Vec<Value>)> {
    r.materialize(WINDOW.0, WINDOW.1)
}

fn spec(arity: usize, period: i64, density: f64) -> RelationSpec {
    RelationSpec {
        tuples: 1,
        temporal_arity: arity,
        period,
        data_arity: 0,
        constraint_density: density,
        bound_steps: 3,
    }
}

/// The Figure 1 identity at the tuple level: difference of singleton
/// relations equals window set-difference, across many seeded shapes.
#[test]
fn single_tuple_difference_matches_sets() {
    for seed in 0..30 {
        // Vary periods so the lcm/residue machinery is exercised.
        let p1 = 2 + (seed % 4);
        let p2 = 2 + ((seed / 4) % 5);
        let a = random_relation(&spec(2, p1 as i64, 0.5), seed);
        let b = random_relation(&spec(2, p2 as i64, 0.5), seed + 1234);
        let d = a.difference_in(&b, &ExecContext::serial()).unwrap();
        let expect: std::collections::BTreeSet<_> = mat(&a).difference(&mat(&b)).cloned().collect();
        assert_eq!(mat(&d), expect, "seed {seed} (p1={p1}, p2={p2})");
    }
}

/// Both parts of the decomposition are needed: build a case where the
/// subtrahend's free extension covers the minuend but its constraints do
/// not.
#[test]
fn constrained_subtrahend_exercises_both_parts() {
    use itd_core::{Atom, GenTuple, Lrp, Schema};
    let lrp = |c, k| Lrp::new(c, k).unwrap();
    // t1: all even pairs with X1 ≤ X2.
    let t1 = GenTuple::builder()
        .lrps(vec![lrp(0, 2), lrp(0, 2)])
        .atoms([Atom::diff_le(0, 1, 0)])
        .build()
        .unwrap();
    // t2: the sub-grid multiples of 4 on X1 (free-extension part) AND only
    // where X2 ≥ 4 (constraint part).
    let t2 = GenTuple::builder()
        .lrps(vec![lrp(0, 4), lrp(0, 2)])
        .atoms([Atom::ge(1, 4)])
        .build()
        .unwrap();
    let a = GenRelation::new(Schema::new(2, 0), vec![t1]).unwrap();
    let b = GenRelation::new(Schema::new(2, 0), vec![t2]).unwrap();
    let d = a.difference_in(&b, &ExecContext::serial()).unwrap();
    // Survivors: X1 ≡ 2 (mod 4) — removed residue class complement — and
    // multiples of 4 with X2 < 4 — the negated-constraint part.
    assert!(d.contains(&[2, 2], &[])); // removed-class complement
    assert!(d.contains(&[-4, 2], &[])); // ≡ 0 (mod 4) but X2 = 2 < 4: part 2
    assert!(d.contains(&[0, 2], &[]));
    assert!(!d.contains(&[0, 4], &[])); // fully inside t2
    assert!(!d.contains(&[3, 5], &[])); // never in t1 (odd)
    let expect: std::collections::BTreeSet<_> = mat(&a).difference(&mat(&b)).cloned().collect();
    assert_eq!(mat(&d), expect);
}

/// Relation-level fold: subtracting several relations one tuple at a time
/// (§3.3.2) matches set semantics, and intermediate pruning keeps sizes
/// sane.
#[test]
fn multi_tuple_fold() {
    for seed in 0..10 {
        let a = random_relation(
            &RelationSpec {
                tuples: 4,
                ..spec(2, 4, 0.4)
            },
            seed,
        );
        let b = random_relation(
            &RelationSpec {
                tuples: 3,
                ..spec(2, 6, 0.4)
            },
            seed + 50,
        );
        let d = a.difference_in(&b, &ExecContext::serial()).unwrap();
        let expect: std::collections::BTreeSet<_> = mat(&a).difference(&mat(&b)).cloned().collect();
        assert_eq!(mat(&d), expect, "seed {seed}");
        // A − B − B = A − B.
        let d2 = d.difference_in(&b, &ExecContext::serial()).unwrap();
        assert_eq!(mat(&d2), mat(&d), "seed {seed}");
    }
}

/// Subtracting single points (Punctured case) composes with everything
/// else.
#[test]
fn point_subtraction_chains() {
    use itd_core::{GenTuple, Lrp, Schema};
    let evens = GenRelation::new(
        Schema::new(1, 0),
        vec![GenTuple::unconstrained(
            vec![Lrp::new(0, 2).unwrap()],
            vec![],
        )],
    )
    .unwrap();
    let mut holes = GenRelation::empty(Schema::new(1, 0));
    for p in [0, 4, 10] {
        holes
            .push(GenTuple::unconstrained(vec![Lrp::point(p)], vec![]))
            .unwrap();
    }
    let d = evens.difference_in(&holes, &ExecContext::serial()).unwrap();
    for x in -12..14 {
        let expect = x % 2 == 0 && ![0, 4, 10].contains(&x);
        assert_eq!(d.contains(&[x], &[]), expect, "x = {x}");
    }
    // Punch the same holes again: no change.
    let d2 = d.difference_in(&holes, &ExecContext::serial()).unwrap();
    assert_eq!(mat(&d2), mat(&d));
}

/// Difference with data attributes: tuples with different data are
/// untouched.
#[test]
fn data_attributes_partition_difference() {
    use itd_core::{GenTuple, Lrp, Schema};
    let mk =
        |who: &str| GenTuple::unconstrained(vec![Lrp::new(0, 2).unwrap()], vec![Value::str(who)]);
    let a = GenRelation::new(Schema::new(1, 1), vec![mk("x"), mk("y")]).unwrap();
    let b = GenRelation::new(Schema::new(1, 1), vec![mk("x")]).unwrap();
    let d = a.difference_in(&b, &ExecContext::serial()).unwrap();
    assert!(!d.contains(&[2], &[Value::str("x")]));
    assert!(d.contains(&[2], &[Value::str("y")]));
}
