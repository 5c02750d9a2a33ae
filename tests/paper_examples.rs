//! Integration tests reproducing every worked example in the paper,
//! through the public API only.

use itd_db::{
    Atom, Database, DbError, ExecContext, GenRelation, GenTuple, Lrp, QueryOpts, Schema, TupleSpec,
    Value,
};

fn ask(db: &Database, src: &str) -> itd_db::Result<bool> {
    let ctx = ExecContext::new();
    db.run(src, QueryOpts::new().ctx(&ctx))?
        .truth_in(&ctx)
        .map_err(DbError::Query)
}

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

/// Example 2.1: the lrp 3 + 5n.
#[test]
fn example_2_1_lrp_membership() {
    let l = lrp(3, 5);
    for x in [-17, -12, 3, 8, 13, 18, 23] {
        assert!(l.contains(x));
    }
    assert_eq!(l.in_window(-17, 23).len(), 9);
}

/// Example 2.2: both generalized tuples and their denotations.
#[test]
fn example_2_2_tuple_denotations() {
    let t1 = GenTuple::builder()
        .lrps(vec![Lrp::point(1), lrp(1, 2)])
        .atoms([Atom::ge(1, 0)])
        .build()
        .unwrap();
    let rel = GenRelation::new(Schema::new(2, 0), vec![t1]).unwrap();
    let m = rel.materialize(-3, 7);
    let times: Vec<Vec<i64>> = m.into_iter().map(|(t, _)| t).collect();
    assert_eq!(
        times,
        vec![vec![1, 1], vec![1, 3], vec![1, 5], vec![1, 7]],
        "first tuple of Example 2.2"
    );

    let t2 = GenTuple::builder()
        .lrps(vec![lrp(3, 2), lrp(5, 2)])
        .atoms([Atom::diff_eq(0, 1, -2)])
        .build()
        .unwrap();
    let rel = GenRelation::new(Schema::new(2, 0), vec![t2]).unwrap();
    for (a, b) in [(3, 5), (5, 7), (7, 9), (1, 3), (-3, -1)] {
        assert!(rel.contains(&[a, b], &[]), "({a},{b})");
    }
    assert!(!rel.contains(&[3, 7], &[]));
    assert!(!rel.contains(&[4, 6], &[]));
}

/// Table 1 as a database table; every row denotes what the paper says.
#[test]
fn table_1_robot_relation() {
    let mut db = Database::new();
    db.create_table("perform", &["from", "to"], &["robot", "task"])
        .unwrap();
    let t = db.table_mut("perform").unwrap();
    t.insert(
        TupleSpec::new()
            .lrp("from", 2, 2)
            .lrp("to", 4, 2)
            .diff_eq("from", "to", -2)
            .ge("from", -1)
            .datum("robot", "robot1")
            .datum("task", "task1"),
    )
    .unwrap();
    t.insert(
        TupleSpec::new()
            .lrp("from", 6, 10)
            .lrp("to", 7, 10)
            .diff_eq("from", "to", -1)
            .ge("from", 10)
            .datum("robot", "robot2")
            .datum("task", "task1"),
    )
    .unwrap();
    t.insert(
        TupleSpec::new()
            .lrp("from", 0, 10)
            .lrp("to", 3, 10)
            .diff_eq("from", "to", -3)
            .datum("robot", "robot2")
            .datum("task", "task2"),
    )
    .unwrap();

    let r1 = [Value::str("robot1"), Value::str("task1")];
    let r2a = [Value::str("robot2"), Value::str("task1")];
    let r2b = [Value::str("robot2"), Value::str("task2")];
    let rel = db.table("perform").unwrap().relation();

    // Row 1: even intervals of length 2 from −1 on, i.e. starting at 0.
    assert!(rel.contains(&[0, 2], &r1));
    assert!(rel.contains(&[2, 4], &r1));
    assert!(!rel.contains(&[-2, 0], &r1)); // X1 ≥ −1 cuts it
                                           // Row 2: [6+10n, 7+10n] with X1 ≥ 10 → starts at 16.
    assert!(rel.contains(&[16, 17], &r2a));
    assert!(!rel.contains(&[6, 7], &r2a));
    // Row 3: unbounded in both directions.
    assert!(rel.contains(&[-20, -17], &r2b));
    assert!(rel.contains(&[40, 43], &r2b));
}

/// Example 3.1: intersection of the two constrained tuples.
#[test]
fn example_3_1_intersection() {
    let a = GenRelation::new(
        Schema::new(2, 0),
        vec![GenTuple::builder()
            .lrps(vec![lrp(1, 2), lrp(-4, 3)])
            .atoms([Atom::diff_le(0, 1, 0), Atom::ge(0, 3)])
            .build()
            .unwrap()],
    )
    .unwrap();
    let b = GenRelation::new(
        Schema::new(2, 0),
        vec![GenTuple::builder()
            .lrps(vec![lrp(0, 5), lrp(2, 5)])
            .atoms([Atom::diff_eq(0, 1, -2)])
            .build()
            .unwrap()],
    )
    .unwrap();
    let i = a.intersect_in(&b, &ExecContext::serial()).unwrap();
    assert_eq!(i.tuple_count(), 1);
    let t = i.row(0).unwrap();
    assert_eq!(t.lrps()[0], lrp(5, 10));
    assert_eq!(t.lrps()[1], lrp(2, 15));
    // Semantics: x1 ∈ 10n+5, x2 ∈ 15n+2, x1 = x2 − 2, x1 ≥ 3.
    // x1 = x2 − 2 with the residues: x1 ≡ 5 (10), x2 ≡ 2 (15) →
    // x2 = x1 + 2 ≡ 7 (10) and ≡ 2 (15) → x2 ≡ 17 (30), x1 ≡ 15 (30).
    assert!(i.contains(&[15, 17], &[]));
    assert!(i.contains(&[45, 47], &[]));
    assert!(!i.contains(&[5, 7], &[])); // 7 ∉ 15n+2
                                        // Window cross-check against the two inputs.
    for x in -5..60 {
        for y in -5..60 {
            assert_eq!(
                i.contains(&[x, y], &[]),
                a.contains(&[x, y], &[]) && b.contains(&[x, y], &[]),
                "({x},{y})"
            );
        }
    }
}

/// Example 3.2 / Figures 2–3: normalization and the exact projection.
#[test]
fn example_3_2_normalization_and_projection() {
    let t = GenTuple::builder()
        .lrps(vec![lrp(3, 4), lrp(1, 8)])
        .atoms([
            Atom::diff_ge(0, 1, 0).unwrap(),
            Atom::diff_le(0, 1, 5),
            Atom::ge(1, 2),
        ])
        .build()
        .unwrap();
    let rel = GenRelation::new(Schema::new(2, 0), vec![t]).unwrap();

    // Normalized: the surviving tuple is [8n+3, 8n+1] X1 = X2+2 ∧ X2 ≥ 9.
    let norm = rel.normalize_in(&ExecContext::serial()).unwrap();
    assert_eq!(norm.tuple_count(), 1);
    assert!(norm.row(0).unwrap().to_tuple().is_normal_form().unwrap());

    // Projection on X1: the paper's answer is 8n+3 with X1 ≥ 11.
    let p = rel.project_in(&[0], &[], &ExecContext::serial()).unwrap();
    let present: Vec<i64> = (0..50).filter(|&x| p.contains(&[x], &[])).collect();
    assert_eq!(present, vec![11, 19, 27, 35, 43]);
}

/// Example 2.4: the train schedule in all three designs.
#[test]
fn example_2_4_train_schedule() {
    const HOUR: i64 = 60;
    let mut db = Database::new();
    db.create_table("train", &["dep", "arr"], &["kind"])
        .unwrap();
    let t = db.table_mut("train").unwrap();
    t.insert(
        TupleSpec::new()
            .lrp("dep", 2, HOUR)
            .lrp("arr", 80, HOUR)
            .diff_eq("dep", "arr", -78)
            .datum("kind", "slow"),
    )
    .unwrap();
    t.insert(
        TupleSpec::new()
            .lrp("dep", 46, HOUR)
            .lrp("arr", 110, HOUR)
            .diff_eq("dep", "arr", -64)
            .datum("kind", "express"),
    )
    .unwrap();

    // 7:02 → 8:20 and 7:46 → 8:50 trains exist…
    assert!(ask(&db, r#"train(422, 500; "slow")"#).unwrap());
    assert!(ask(&db, r#"train(466, 530; "express")"#).unwrap());
    // …but the bogus 7:46 → 7:50 from the broken unary design does not.
    assert!(!ask(&db, "exists k. train(466, 470; k)").unwrap());
    // Durations are uniform over the whole infinite schedule.
    assert!(ask(
        &db,
        r#"forall d. forall a. train(d, a; "express") implies a = d + 64"#
    )
    .unwrap());
}
