//! Additional cross-crate coverage: multi-pair joins, shifted repeated
//! variables in queries, serde details, and API corners that the focused
//! suites do not reach.

use itd_core::{Atom, ExecContext, GenRelation, GenTuple, Lrp, Schema, Value};

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

#[test]
fn join_on_multiple_temporal_pairs() {
    // r(a, b), s(c, d): join on a = c AND b = d — effectively intersection
    // through a 4-column join.
    let r = GenRelation::new(
        Schema::new(2, 0),
        vec![GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(1, 2)])
            .atoms([Atom::diff_le(0, 1, 5)])
            .build()
            .unwrap()],
    )
    .unwrap();
    let s = GenRelation::new(
        Schema::new(2, 0),
        vec![GenTuple::builder()
            .lrps(vec![lrp(0, 3), lrp(1, 3)])
            .atoms([Atom::ge(0, 0)])
            .build()
            .unwrap()],
    )
    .unwrap();
    let j = r
        .join_on_in(&s, &[(0, 0), (1, 1)], &[], &ExecContext::serial())
        .unwrap();
    for a in -6..12 {
        for b in -6..12 {
            let expect = r.contains(&[a, b], &[]) && s.contains(&[a, b], &[]);
            assert_eq!(j.contains(&[a, b, a, b], &[]), expect, "({a},{b})");
        }
    }
}

#[test]
fn join_on_mixed_temporal_and_data_pairs() {
    let mk = |k: i64, who: &str| {
        GenRelation::new(
            Schema::new(1, 1),
            vec![GenTuple::unconstrained(
                vec![lrp(0, k)],
                vec![Value::str(who)],
            )],
        )
        .unwrap()
    };
    let r = mk(2, "x")
        .union_in(&mk(3, "y"), &ExecContext::serial())
        .unwrap();
    let s = mk(4, "x")
        .union_in(&mk(5, "y"), &ExecContext::serial())
        .unwrap();
    let j = r
        .join_on_in(&s, &[(0, 0)], &[(0, 0)], &ExecContext::serial())
        .unwrap();
    // x-lane: multiples of lcm(2,4) = 4; y-lane: multiples of 15.
    assert!(j.contains(&[4, 4], &[Value::str("x"), Value::str("x")]));
    assert!(!j.contains(&[2, 2], &[Value::str("x"), Value::str("x")]));
    assert!(j.contains(&[15, 15], &[Value::str("y"), Value::str("y")]));
    // Cross-data pairs are filtered by the data join.
    assert!(!j.contains(&[0, 0], &[Value::str("x"), Value::str("y")]));
}

#[test]
fn query_shifted_repeated_variable() {
    use itd_query::{parse, run, MemoryCatalog, QueryOpts};
    let ask = |cat: &MemoryCatalog, src: &str| {
        run(cat, &parse(src).unwrap(), QueryOpts::new())
            .unwrap()
            .truth_in(&ExecContext::new())
            .unwrap()
    };
    let mut cat = MemoryCatalog::new();
    // p(a, b) holds for b = a + 2 on the even grid.
    cat.insert(
        "p",
        GenRelation::new(
            Schema::new(2, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 2), lrp(0, 2)])
                .atoms([Atom::diff_eq(1, 0, 2)])
                .build()
                .unwrap()],
        )
        .unwrap(),
    );
    // p(t, t + 2): holds for every even t.
    assert!(ask(&cat, "exists t. p(t, t + 2)"));
    assert!(ask(&cat, "forall t. p(t, t + 2) or p(t + 1, t + 3)"));
    // p(t + 2, t) (reversed shift): never.
    assert!(!ask(&cat, "exists t. p(t + 2, t)"));
    // p(t, t): never (length-2 gap is mandatory).
    assert!(!ask(&cat, "exists t. p(t, t)"));
}

#[test]
fn tl_satisfiable_entry_point() {
    use itd_query::MemoryCatalog;
    use itd_tl::{satisfiable, Tl};
    let mut cat = MemoryCatalog::new();
    cat.insert(
        "burst",
        GenRelation::new(
            Schema::new(1, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 5)])
                .atoms([Atom::ge(0, 10)])
                .build()
                .unwrap()],
        )
        .unwrap(),
    );
    assert!(satisfiable(&cat, &Tl::prop("burst")).unwrap());
    assert!(satisfiable(&cat, &Tl::historically(Tl::not(Tl::prop("burst")))).unwrap());
    // Unsatisfiable: burst ∧ ¬burst.
    assert!(!satisfiable(
        &cat,
        &Tl::and(Tl::prop("burst"), Tl::not(Tl::prop("burst")))
    )
    .unwrap());
    // F ¬burst is valid (non-multiples of 5 exist after any point).
    assert!(itd_tl::valid(&cat, &Tl::eventually(Tl::not(Tl::prop("burst")))).unwrap());
}

#[test]
fn allen_select_agrees_with_holds_for_all_relations() {
    use itd_interval::{allen_select, ALL_RELATIONS};
    let windows = GenRelation::new(
        Schema::new(2, 0),
        vec![GenTuple::builder()
            .lrps(vec![lrp(0, 7), lrp(3, 7)])
            .atoms([Atom::diff_eq(1, 0, 3)])
            .build()
            .unwrap()],
    )
    .unwrap();
    let (b1, b2) = (10, 12);
    for rel in ALL_RELATIONS {
        let selected = allen_select(&windows, rel, b1, b2).unwrap();
        for a1 in (-7..29).step_by(7) {
            let a2 = a1 + 3;
            assert_eq!(
                selected.contains(&[a1, a2], &[]),
                rel.holds(a1, a2, b1, b2),
                "{rel} at ({a1},{a2}) vs ({b1},{b2})"
            );
        }
    }
}

#[test]
fn serde_value_and_schema_roundtrip() {
    let v = vec![Value::Int(-3), Value::str("α-β")];
    let json = serde_json::to_string(&v).unwrap();
    let back: Vec<Value> = serde_json::from_str(&json).unwrap();
    assert_eq!(v, back);
    let s = Schema::new(3, 2);
    let json = serde_json::to_string(&s).unwrap();
    let back: Schema = serde_json::from_str(&json).unwrap();
    assert_eq!(s, back);
}

#[test]
fn serde_relation_with_unsat_constraints() {
    // The unsat flag must survive serialization (it is semantic state).
    let t = GenTuple::builder()
        .lrps(vec![lrp(0, 2)])
        .atoms([Atom::le(0, 0), Atom::ge(0, 2)])
        .build()
        .unwrap();
    assert!(t.is_trivially_empty());
    let rel = GenRelation::new(Schema::new(1, 0), vec![t]).unwrap();
    let json = serde_json::to_string(&rel).unwrap();
    let back: GenRelation = serde_json::from_str(&json).unwrap();
    assert!(back.row(0).unwrap().to_tuple().is_trivially_empty());
    assert!(back.denotes_empty().unwrap());
}

#[test]
fn lin_congruence_negative_modulus() {
    use itd_numth::solve_lin_congruence;
    // Modulus sign must not matter.
    let pos = solve_lin_congruence(3, 2, 5).unwrap().unwrap();
    let neg = solve_lin_congruence(3, 2, -5).unwrap().unwrap();
    assert_eq!(
        (pos.residue(), pos.modulus()),
        (neg.residue(), neg.modulus())
    );
}

#[test]
fn next_occurrence_on_interval_table() {
    // "When is the next train after minute t?" via the db layer.
    let mut db = itd_db::Database::new();
    db.create_table("train", &["dep", "arr"], &[]).unwrap();
    db.table_mut("train")
        .unwrap()
        .insert(
            itd_db::TupleSpec::new()
                .lrp("dep", 2, 60)
                .lrp("arr", 80, 60)
                .diff_eq("dep", "arr", -78),
        )
        .unwrap();
    let rel = db.table("train").unwrap().relation();
    assert_eq!(rel.next_occurrence(0, 0).unwrap(), Some(2));
    assert_eq!(rel.next_occurrence(0, 3).unwrap(), Some(62));
    assert_eq!(rel.next_occurrence(0, 62).unwrap(), Some(62));
    assert_eq!(rel.next_occurrence(0, 1_000_000).unwrap(), Some(1_000_022));
}

#[test]
fn compact_after_union_of_refinements() {
    // Algebra producing refined output, tidied by compaction: complement of
    // odd numbers = evens, recovered as one tuple.
    let odds = GenRelation::new(
        Schema::new(1, 0),
        vec![GenTuple::unconstrained(vec![lrp(1, 2)], vec![])],
    )
    .unwrap();
    let evens = odds
        .complement_temporal_in(&ExecContext::serial())
        .unwrap()
        .compact_in(&ExecContext::serial())
        .unwrap();
    assert_eq!(evens.tuple_count(), 1);
    assert_eq!(evens.row(0).unwrap().lrps()[0], lrp(0, 2));
}
