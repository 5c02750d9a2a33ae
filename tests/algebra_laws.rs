//! Property-based integration tests: the §3 algebra obeys set-theoretic
//! laws, checked against the brute-force materialization oracle on finite
//! windows with randomized, seeded workloads.

use itd_core::{ExecContext, GenRelation, Schema};
use itd_workload::{random_relation, RelationSpec};

const WINDOW: (i64, i64) = (-18, 18);

fn spec(tuples: usize, seed_arity: usize, period: i64) -> RelationSpec {
    RelationSpec {
        tuples,
        temporal_arity: seed_arity,
        period,
        data_arity: 0,
        constraint_density: 0.5,
        bound_steps: 3,
    }
}

fn mat(r: &GenRelation) -> std::collections::BTreeSet<(Vec<i64>, Vec<itd_core::Value>)> {
    r.materialize(WINDOW.0, WINDOW.1)
}

/// Checks one seed triple for all the binary-op laws.
fn check_seed(seed: u64) {
    let s = spec(5, 2, 4);
    let a = random_relation(&s, seed);
    let b = random_relation(&s, seed.wrapping_add(1000));
    let (ma, mb) = (mat(&a), mat(&b));

    // Union = set union.
    let u = a.union_in(&b, &ExecContext::serial()).unwrap();
    let expect: std::collections::BTreeSet<_> = ma.union(&mb).cloned().collect();
    assert_eq!(mat(&u), expect, "union seed {seed}");

    // Intersection = set intersection.
    let i = a.intersect_in(&b, &ExecContext::serial()).unwrap();
    let expect: std::collections::BTreeSet<_> = ma.intersection(&mb).cloned().collect();
    assert_eq!(mat(&i), expect, "intersection seed {seed}");

    // Commutativity of ∪ and ∩ (semantically).
    assert_eq!(
        mat(&b.union_in(&a, &ExecContext::serial()).unwrap()),
        mat(&u),
        "∪ commutes seed {seed}"
    );
    assert_eq!(
        mat(&b.intersect_in(&a, &ExecContext::serial()).unwrap()),
        mat(&i),
        "∩ commutes seed {seed}"
    );

    // Difference = set difference; A − B ⊆ A; (A − B) ∩ B = ∅.
    let d = a.difference_in(&b, &ExecContext::serial()).unwrap();
    let expect: std::collections::BTreeSet<_> = ma.difference(&mb).cloned().collect();
    assert_eq!(mat(&d), expect, "difference seed {seed}");
    let dd = d.intersect_in(&b, &ExecContext::serial()).unwrap();
    assert!(mat(&dd).is_empty(), "(A−B)∩B seed {seed}");

    // A = (A − B) ∪ (A ∩ B).
    let rebuilt = d.union_in(&i, &ExecContext::serial()).unwrap();
    assert_eq!(mat(&rebuilt), ma, "partition law seed {seed}");

    // Idempotence: A ∩ A = A, A ∪ A = A, A − A = ∅.
    assert_eq!(
        mat(&a.intersect_in(&a, &ExecContext::serial()).unwrap()),
        ma,
        "∩ idempotent {seed}"
    );
    assert_eq!(
        mat(&a.union_in(&a, &ExecContext::serial()).unwrap()),
        ma,
        "∪ idempotent {seed}"
    );
    assert!(
        mat(&a.difference_in(&a, &ExecContext::serial()).unwrap()).is_empty(),
        "A−A empty {seed}"
    );
}

#[test]
fn binary_op_laws_across_seeds() {
    for seed in 0..8 {
        check_seed(seed);
    }
}

#[test]
fn distributivity_on_window() {
    let s = spec(4, 2, 3);
    let a = random_relation(&s, 11);
    let b = random_relation(&s, 22);
    let c = random_relation(&s, 33);
    // A ∩ (B ∪ C) = (A ∩ B) ∪ (A ∩ C)
    let lhs = a
        .intersect_in(
            &b.union_in(&c, &ExecContext::serial()).unwrap(),
            &ExecContext::serial(),
        )
        .unwrap();
    let rhs = a
        .intersect_in(&b, &ExecContext::serial())
        .unwrap()
        .union_in(
            &a.intersect_in(&c, &ExecContext::serial()).unwrap(),
            &ExecContext::serial(),
        )
        .unwrap();
    assert_eq!(mat(&lhs), mat(&rhs));
    // A − (B ∪ C) = (A − B) − C
    let lhs = a
        .difference_in(
            &b.union_in(&c, &ExecContext::serial()).unwrap(),
            &ExecContext::serial(),
        )
        .unwrap();
    let rhs = a
        .difference_in(&b, &ExecContext::serial())
        .unwrap()
        .difference_in(&c, &ExecContext::serial())
        .unwrap();
    assert_eq!(mat(&lhs), mat(&rhs));
}

#[test]
fn complement_laws() {
    for seed in 0..6 {
        let s = spec(3, 1, 4);
        let a = random_relation(&s, seed);
        let comp = a.complement_temporal_in(&ExecContext::serial()).unwrap();
        let ma = mat(&a);
        let mc = mat(&comp);
        // Partition of the window.
        for x in WINDOW.0..=WINDOW.1 {
            let key = (vec![x], vec![]);
            assert!(
                ma.contains(&key) != mc.contains(&key),
                "seed {seed}, x = {x}"
            );
        }
        // Double complement (De Morgan's fixed point).
        let back = comp.complement_temporal_in(&ExecContext::serial()).unwrap();
        assert_eq!(mat(&back), ma, "double complement seed {seed}");
        // De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B.
        let b = random_relation(&s, seed + 77);
        let lhs = a
            .union_in(&b, &ExecContext::serial())
            .unwrap()
            .complement_temporal_in(&ExecContext::serial())
            .unwrap();
        let rhs = comp
            .intersect_in(
                &b.complement_temporal_in(&ExecContext::serial()).unwrap(),
                &ExecContext::serial(),
            )
            .unwrap();
        assert_eq!(mat(&lhs), mat(&rhs), "De Morgan seed {seed}");
    }
}

#[test]
fn projection_commutes_with_union() {
    for seed in 0..6 {
        let s = spec(4, 3, 3);
        let a = random_relation(&s, seed);
        let b = random_relation(&s, seed + 500);
        let lhs = a
            .union_in(&b, &ExecContext::serial())
            .unwrap()
            .project_in(&[0, 2], &[], &ExecContext::serial())
            .unwrap();
        let rhs = a
            .project_in(&[0, 2], &[], &ExecContext::serial())
            .unwrap()
            .union_in(
                &b.project_in(&[0, 2], &[], &ExecContext::serial()).unwrap(),
                &ExecContext::serial(),
            )
            .unwrap();
        assert_eq!(mat(&lhs), mat(&rhs), "seed {seed}");
    }
}

#[test]
fn projection_is_exact_existential() {
    // ∃-semantics: x ∈ π₀(A) iff some y pairs with it. The eliminated
    // column's witness window is padded beyond the comparison window by
    // the largest constants in play (period 4 × bound_steps 3 + slack).
    for seed in 0..6 {
        let s = spec(5, 2, 4);
        let a = random_relation(&s, seed);
        let p = a.project_in(&[0], &[], &ExecContext::serial()).unwrap();
        for x in -10..=10 {
            let witness = (-80..=80).any(|y| a.contains(&[x, y], &[]));
            assert_eq!(p.contains(&[x], &[]), witness, "seed {seed}, x = {x}");
        }
    }
}

#[test]
fn cross_product_and_join_semantics() {
    let s1 = spec(3, 1, 3);
    let s2 = spec(3, 1, 4);
    for seed in 0..5 {
        let a = random_relation(&s1, seed);
        let b = random_relation(&s2, seed + 99);
        let cp = a.cross_product_in(&b, &ExecContext::serial()).unwrap();
        for x in -8..8 {
            for y in -8..8 {
                assert_eq!(
                    cp.contains(&[x, y], &[]),
                    a.contains(&[x], &[]) && b.contains(&[y], &[]),
                    "seed {seed} ({x},{y})"
                );
            }
        }
        // Join on the single column = intersection seen through 2 columns.
        let j = a
            .join_on_in(&b, &[(0, 0)], &[], &ExecContext::serial())
            .unwrap();
        for x in -8..8 {
            assert_eq!(
                j.contains(&[x, x], &[]),
                a.contains(&[x], &[]) && b.contains(&[x], &[]),
                "seed {seed} x = {x}"
            );
            assert!(!j.contains(&[x, x + 1], &[]), "off-diagonal seed {seed}");
        }
    }
}

#[test]
fn emptiness_agrees_with_materialization() {
    // Thm 3.5's exact emptiness versus a wide-window scan. The generator
    // only makes nonempty tuples, so build edge cases by algebra.
    let s = spec(4, 2, 3);
    let a = random_relation(&s, 5);
    assert!(!a.denotes_empty().unwrap());
    let d = a.difference_in(&a, &ExecContext::serial()).unwrap();
    assert!(d.denotes_empty().unwrap());
    assert!(GenRelation::empty(Schema::new(2, 0))
        .denotes_empty()
        .unwrap());
    let i = a
        .intersect_in(
            &a.complement_temporal_in(&ExecContext::serial()).unwrap(),
            &ExecContext::serial(),
        )
        .unwrap();
    assert!(i.denotes_empty().unwrap());
}

/// Compaction simplifies the representation, never the denotation.
#[test]
fn simplify_preserves_semantics() {
    for seed in 0..6 {
        let s = spec(6, 2, 4);
        let a = random_relation(&s, seed);
        // Duplicate the relation against itself to create redundancy.
        let doubled = a.union_in(&a, &ExecContext::serial()).unwrap();
        let simplified = doubled.compact_in(&ExecContext::serial()).unwrap();
        assert!(simplified.tuple_count() <= doubled.tuple_count());
        assert_eq!(mat(&simplified), mat(&a), "seed {seed}");
    }
}

#[test]
fn normalize_preserves_semantics_with_mixed_periods() {
    use itd_core::{Atom, GenTuple, Lrp};
    let t1 = GenTuple::builder()
        .lrps(vec![Lrp::new(1, 3).unwrap(), Lrp::new(0, 2).unwrap()])
        .atoms([Atom::diff_le(0, 1, 2)])
        .build()
        .unwrap();
    let t2 = GenTuple::builder()
        .lrps(vec![Lrp::new(0, 4).unwrap(), Lrp::point(6)])
        .atoms([Atom::ge(0, -6)])
        .build()
        .unwrap();
    let r = GenRelation::new(Schema::new(2, 0), vec![t1, t2]).unwrap();
    let n = r.normalize_in(&ExecContext::serial()).unwrap();
    for row in n.rows() {
        let t = row.to_tuple();
        assert!(t.is_normal_form().unwrap(), "{t}");
    }
    assert_eq!(mat(&n), mat(&r));
}
