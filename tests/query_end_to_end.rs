//! End-to-end query tests over a database, including the paper's
//! Example 4.1 in both outcomes and a data-complexity sanity check
//! (Theorem 4.1: the same query over growing databases keeps working and
//! answers consistently).

use itd_db::{Database, DbError, ExecContext, QueryOpts, TupleSpec};

/// `db.run` + closed-formula truth, the post-`QueryOpts` idiom for what
/// used to be `db.ask`.
fn ask(db: &Database, src: &str) -> itd_db::Result<bool> {
    let ctx = ExecContext::new();
    db.run(src, QueryOpts::new().ctx(&ctx))?
        .truth_in(&ctx)
        .map_err(DbError::Query)
}

/// Builds the Table 1 database, optionally with a long task2 interval that
/// flips Example 4.1's answer machinery into the non-vacuous case.
fn robot_db(with_long_task2: bool) -> Database {
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
    if with_long_task2 {
        // robot3 does task2 during [100, 107] once.
        t.insert(
            TupleSpec::new()
                .at("from", 100)
                .at("to", 107)
                .datum("robot", "robot3")
                .datum("task", "task2"),
        )
        .unwrap();
    }
    db
}

const EXAMPLE_4_1: &str = r#"
    exists x. exists y. exists t1. exists t2. forall t3. forall t4. forall z.
        (perform(t1, t2; x, "task2")
           and t1 <= t3 and t3 <= t4 and t4 <= t2 and t1 + 5 <= t2)
        implies not perform(t3, t4; y, z)
"#;

#[test]
fn example_4_1_vacuous_case() {
    // All task2 intervals have length 3 < 5: antecedent vacuous → true.
    let db = robot_db(false);
    assert!(ask(&db, EXAMPLE_4_1).unwrap());
}

#[test]
fn example_4_1_witnessed_case() {
    // robot3's [100, 107] has length 7 ≥ 5. During it, robot1 works (e.g.
    // [102, 104]), robot2 works [106, 107] and [100, 103] — but does any
    // SINGLE y avoid the whole interval? robot3 itself only has the one
    // interval [100, 107], and perform(t3, t4; robot3, task2) with
    // 100 ≤ t3 ≤ t4 ≤ 107 matches (t3, t4) = (100, 107) itself → robot3
    // is not a valid y. robot1 and robot2 both work inside. So with
    // x = robot3 the property fails; with x = robot2 the antecedent is
    // vacuous (all its task2 intervals are short) → property still true!
    let db = robot_db(true);
    assert!(ask(&db, EXAMPLE_4_1).unwrap());

    // Force x to robot3: now no y works — every robot performs something
    // inside [100, 107]. (Active-domain subtlety: y must be constrained to
    // actually BE a robot; otherwise y = "task1" satisfies the property
    // vacuously, since no interval has "task1" in the robot column.)
    // A second subtlety, in the paper's own formula: t1, t2 are
    // existential and the interval atom sits inside the implication, so
    // choosing a non-interval (t1, t2) makes the antecedent false and the
    // whole formula true. The intended reading asserts the interval
    // outside the implication:
    let pinned = r#"
        exists y. (exists a. exists b. exists w. perform(a, b; y, w))
          and exists t1. exists t2.
            perform(t1, t2; "robot3", "task2") and t1 + 5 <= t2
            and forall t3. forall t4. forall z.
              (t1 <= t3 and t3 <= t4 and t4 <= t2)
              implies not perform(t3, t4; y, z)
    "#;
    assert!(!ask(&db, pinned).unwrap());
    // Sanity for the vacuity explanation: with y unconstrained the formula
    // is true via a non-robot binding.
    let unconstrained_y = r#"
        exists y. exists t1. exists t2. forall t3. forall t4. forall z.
            (perform(t1, t2; "robot3", "task2")
               and t1 <= t3 and t3 <= t4 and t4 <= t2 and t1 + 5 <= t2)
            implies not perform(t3, t4; y, z)
    "#;
    assert!(ask(&db, unconstrained_y).unwrap());
}

#[test]
fn open_query_interval_containment() {
    let db = robot_db(false);
    // Which robots have an interval containing time 22?
    let r = db
        .run(
            "perform(a, b; who, task) and a <= 22 and 22 <= b",
            QueryOpts::new(),
        )
        .unwrap()
        .result;
    assert_eq!(r.temporal_vars, vec!["a", "b"]);
    assert_eq!(r.data_vars, vec!["who", "task"]);
    let rows = r.relation.materialize(15, 25);
    let whos: std::collections::BTreeSet<String> =
        rows.iter().map(|(_, d)| d[0].to_string()).collect();
    assert!(whos.contains("robot1"));
    assert!(whos.contains("robot2"));
}

#[test]
fn data_complexity_consistency() {
    // Theorem 4.1 flavor: a FIXED query evaluated over databases of
    // growing size must answer consistently (the new tuples don't affect
    // this query's truth).
    let q = r#"exists t1. exists t2. perform(t1, t2; "robot1", "task1") and t1 >= 1000"#;
    for extra in [0usize, 4, 16, 48] {
        let mut db = robot_db(false);
        let t = db.table_mut("perform").unwrap();
        for i in 0..extra {
            // Irrelevant decoy tuples: other robots, far-away periods.
            t.insert(
                TupleSpec::new()
                    .lrp("from", (i % 7) as i64, 14)
                    .lrp("to", (i % 7) as i64 + 1, 14)
                    .diff_eq("from", "to", -1)
                    .datum("robot", format!("decoy{i}"))
                    .datum("task", "task9"),
            )
            .unwrap();
        }
        assert!(ask(&db, q).unwrap(), "extra = {extra}");
    }
}

#[test]
fn quantifier_alternation_over_infinite_domain() {
    let db = robot_db(false);
    // ∀t ∃a,b: robot2 task2 interval starting at or after t (recurrence).
    assert!(ask(
        &db,
        r#"forall t. exists a. exists b. perform(a, b; "robot2", "task2") and t <= a"#
    )
    .unwrap());
    // ∃t ∀a,b: a time after all robot1 activity — false (periodic forever).
    assert!(!ask(
        &db,
        r#"exists t. forall a. forall b. perform(a, b; "robot1", "task1") implies b <= t"#
    )
    .unwrap());
    // But robot2's task1 activity has a start: ∃t before all of it.
    assert!(ask(
        &db,
        r#"exists t. forall a. forall b. perform(a, b; "robot2", "task1") implies t <= a"#
    )
    .unwrap());
}

#[test]
fn sort_errors_surface() {
    let db = robot_db(false);
    assert!(ask(&db, "nosuchtable(1, 2; x, y)").is_err());
    assert!(ask(&db, r#"perform(1; "robot1")"#).is_err()); // arity
    assert!(ask(&db, r#"exists t. perform(t, t; t, "task1")"#).is_err()); // t at both sorts
}

#[test]
fn parse_error_offsets() {
    let db = robot_db(false);
    let err = ask(&db, "perform(1, 2; ").unwrap_err();
    let text = err.to_string();
    assert!(text.contains("parse error"), "{text}");
}

/// The optimizer's antijoin (`φ ∧ ¬ψ` as `φ` minus what `ψ` matches in it,
/// when φ binds ψ's variables) against the complement path the
/// unoptimized plan takes, over relations with two temporal columns and
/// one data column: a negated atom with the join's variables under a
/// selection, one on a strict subset with a data column, and one with a
/// variable no positive conjunct binds, where the rule must not fire.
/// Answers agree on a window at 1, 2 and 8 threads.
#[test]
fn antijoin_agrees_with_the_complement_path() {
    use itd_workload::{random_relation, RelationSpec};
    let mut db = Database::new();
    for (name, tcols, tuples, seed) in [
        ("p", &["t1", "t2"][..], 12, 7),
        ("q", &["t1", "t2"][..], 12, 8),
        ("m", &["t"][..], 4, 9),
    ] {
        let spec = RelationSpec {
            tuples,
            temporal_arity: tcols.len(),
            period: 4,
            data_arity: 1,
            ..RelationSpec::default()
        };
        let table = db.create_table(name, tcols, &["x"]).unwrap();
        for row in random_relation(&spec, seed).rows() {
            table.insert_tuple(row.to_tuple()).unwrap();
        }
    }
    for (src, fires) in [
        ("p(t1, t2; x) and not q(t1, t2; x) and t2 <= 3", true),
        ("p(t1, t2; x) and not m(t1; x)", true),
        ("p(t1, t2; x) and not m(u; x)", false),
    ] {
        let serial = ExecContext::serial();
        let unopt = QueryOpts::new().optimize(false).ctx(&serial);
        let reference = db.run(src, unopt).unwrap().result;
        let want = reference.relation.materialize(-6, 6);
        assert!(!want.is_empty(), "{src}: the window must see the answer");
        for threads in [1, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let out = db.run(src, QueryOpts::new().ctx(&ctx)).unwrap();
            let fired = out
                .plan
                .rewrites()
                .iter()
                .any(|r| r.starts_with("antijoin"));
            assert_eq!(fired, fires, "{src}: {:?}", out.plan.rewrites());
            assert_eq!(out.result.temporal_vars, reference.temporal_vars);
            assert_eq!(out.result.data_vars, reference.data_vars);
            assert_eq!(
                out.result.relation.materialize(-6, 6),
                want,
                "{src} at {threads} threads"
            );
        }
    }
}
