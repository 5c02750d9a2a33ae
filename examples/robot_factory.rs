//! The paper's running robot example: Table 1 (the `Perform` relation) and
//! the Example 4.1 query.
//!
//! Table 1:
//!
//! | robot  | task  | from     | to       | constraints                 |
//! |--------|-------|----------|----------|-----------------------------|
//! | robot1 | task1 | 2 + 2n   | 4 + 2n   | X1 = X2 − 2 ∧ X1 ≥ −1       |
//! | robot2 | task1 | 6 + 10n  | 7 + 10n  | X1 = X2 − 1 ∧ X1 ≥ 10       |
//! | robot2 | task2 | 10n      | 3 + 10n  | X1 = X2 − 3                 |
//!
//! Run with: `cargo run --example robot_factory`

use itd_db::{Database, ExecContext, QueryOpts, TupleSpec};

/// Closed-formula truth through the unified `run` entry point.
fn ask(db: &Database, src: &str) -> bool {
    let ctx = ExecContext::new();
    db.run(src, QueryOpts::new().ctx(&ctx))
        .expect("query")
        .truth_in(&ctx)
        .expect("truth")
}

fn main() {
    let mut db = Database::new();
    db.create_table("perform", &["from", "to"], &["robot", "task"])
        .expect("fresh table");
    let perform = db.table_mut("perform").expect("exists");
    perform
        .insert(
            TupleSpec::new()
                .lrp("from", 2, 2)
                .lrp("to", 4, 2)
                .diff_eq("from", "to", -2)
                .ge("from", -1)
                .datum("robot", "robot1")
                .datum("task", "task1"),
        )
        .expect("valid");
    perform
        .insert(
            TupleSpec::new()
                .lrp("from", 6, 10)
                .lrp("to", 7, 10)
                .diff_eq("from", "to", -1)
                .ge("from", 10)
                .datum("robot", "robot2")
                .datum("task", "task1"),
        )
        .expect("valid");
    perform
        .insert(
            TupleSpec::new()
                .lrp("from", 0, 10)
                .lrp("to", 3, 10)
                .diff_eq("from", "to", -3)
                .datum("robot", "robot2")
                .datum("task", "task2"),
        )
        .expect("valid");

    println!("{}", db.table("perform").expect("exists").render());

    // Sanity: robot2 performs task2 during [10, 13], [20, 23], … and also
    // at negative times (no lower bound on that row).
    assert!(ask(&db, r#"perform(10, 13; "robot2", "task2")"#));
    assert!(ask(&db, r#"perform(-10, -7; "robot2", "task2")"#));
    assert!(!ask(&db, r#"perform(-10, -7; "robot2", "task1")"#));

    // Example 4.1: is there a robot x and a robot y such that whenever x
    // performs task2 for an interval of length ≥ 5, y performs nothing
    // during any part of that interval?
    //
    // In Table 1 every task2 interval has length 3 < 5, so the antecedent
    // is vacuously false and the property holds.
    let example_4_1 = r#"
        exists x. exists y. exists t1. exists t2. forall t3. forall t4. forall z.
            (perform(t1, t2; x, "task2")
               and t1 <= t3 and t3 <= t4 and t4 <= t2 and t1 + 5 <= t2)
            implies not perform(t3, t4; y, z)
    "#;
    // Note: the paper's formula needs SOME witness interval for x; with a
    // vacuous antecedent the inner implication is true for any t1, t2.
    let holds = ask(&db, example_4_1);
    println!("Example 4.1 property: {holds}");
    assert!(holds);

    // A sharper variant: does robot1 ever work while robot2 performs
    // task2? robot1's intervals are [even, even+2] with from ≥ −1; robot2
    // task2 intervals are [10n, 10n+3]. At t = 10: robot1 works [10, 12],
    // robot2 works [10, 13] — yes.
    let busy_overlap = r#"
        exists t1. exists t2. exists s1. exists s2.
            perform(t1, t2; "robot1", "task1")
            and perform(s1, s2; "robot2", "task2")
            and s1 <= t1 and t1 <= s2
    "#;
    assert!(ask(&db, busy_overlap));
    println!("robot1 sometimes starts while robot2 is on task2: true");

    // And a universal: robot2's task1 work never starts before time 10
    // (the X1 ≥ 10 constraint), over the entire infinite future.
    assert!(ask(
        &db,
        r#"forall t1. forall t2. perform(t1, t2; "robot2", "task1") implies t1 >= 10"#
    ));
    println!("robot2 never performs task1 before t = 10: true");

    // Algebra flavor: who is ever working at time point 22?
    // σ(from ≤ 22 ≤ to) then project the robot column.
    // Each algebra call names the context its work is counted against.
    let ctx = ExecContext::serial();
    let rel = db.table("perform").expect("exists").relation();
    let at_22 = rel
        .select_temporal_in(itd_db::Atom::le(0, 22), &ctx)
        .expect("selection")
        .select_temporal_in(itd_db::Atom::ge(1, 22), &ctx)
        .expect("selection")
        .project_in(&[], &[0], &ctx)
        .expect("projection");
    let workers: Vec<String> = at_22
        .materialize(0, 0)
        .into_iter()
        .map(|(_, d)| d[0].to_string())
        .collect();
    println!("robots active at t = 22: {workers:?}");
    assert!(workers.contains(&"robot1".to_owned()));
    assert!(workers.contains(&"robot2".to_owned()));
}
