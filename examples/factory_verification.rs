//! Verification by query evaluation — the "model checking as database
//! querying" view the paper takes from concurrent-program verification
//! (§1: "model-checking is essentially a form of query evaluation on a
//! special type of database").
//!
//! A workcell has two machines sharing one crane. Each machine's crane
//! usage is periodic and infinite; we verify safety (mutual exclusion) and
//! liveness-like (recurrence) properties over ALL of infinite time —
//! something finite materialization can never do.
//!
//! Run with: `cargo run --example factory_verification`

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

    // Crane reservations [start, end] per machine. The cycle is 30 time
    // units long: press uses the crane during [0, 9] of each cycle, the
    // lathe during [12, 20], a maintenance sweep during [24, 27].
    db.create_table("holds", &["from", "to"], &["who"])
        .expect("fresh");
    let holds = db.table_mut("holds").expect("exists");
    holds
        .insert(
            TupleSpec::new()
                .lrp("from", 0, 30)
                .lrp("to", 9, 30)
                .diff_eq("from", "to", -9)
                .datum("who", "press"),
        )
        .expect("valid");
    holds
        .insert(
            TupleSpec::new()
                .lrp("from", 12, 30)
                .lrp("to", 20, 30)
                .diff_eq("from", "to", -8)
                .datum("who", "lathe"),
        )
        .expect("valid");
    holds
        .insert(
            TupleSpec::new()
                .lrp("from", 24, 30)
                .lrp("to", 27, 30)
                .diff_eq("from", "to", -3)
                .datum("who", "maintenance"),
        )
        .expect("valid");
    println!("{}", db.table("holds").expect("exists").render());

    // SAFETY: no two different holders' intervals ever overlap — checked
    // symbolically for every point of Z, not on a sampled window.
    let mutual_exclusion = r#"
        forall a1. forall b1. forall a2. forall b2. forall x. forall y.
            (holds(a1, b1; x) and holds(a2, b2; y) and x != y
               and a1 <= a2 and a2 < b1)
            implies false
    "#;
    let safe = ask(&db, mutual_exclusion);
    println!("mutual exclusion holds over all time: {safe}");
    assert!(safe);

    // RECURRENCE: the press holds the crane "infinitely often" — for every
    // time t there is a later press interval. (This is the temporal-logic
    // `GF press` rendered in first-order form; it is where infinite
    // representations earn their keep.)
    let press_infinitely_often = r#"
        forall t. exists a. exists b. holds(a, b; "press") and t <= a
    "#;
    let recurrent = ask(&db, press_infinitely_often);
    println!("press acquires the crane infinitely often: {recurrent}");
    assert!(recurrent);

    // BOUNDED RESPONSE: after every lathe release, the press re-acquires
    // within 15 time units.
    let bounded_response = r#"
        forall a. forall b. holds(a, b; "lathe") implies
            exists c. exists d. holds(c, d; "press") and b <= c and c <= b + 15
    "#;
    let responsive = ask(&db, bounded_response);
    println!("press re-acquires within 15 after each lathe release: {responsive}");
    assert!(responsive);

    // Now inject a faulty reservation overlapping the lathe and watch the
    // safety check fail — the verifier really is exercising the data.
    db.table_mut("holds")
        .expect("exists")
        .insert(
            TupleSpec::new()
                .lrp("from", 15, 30)
                .lrp("to", 18, 30)
                .diff_eq("from", "to", -3)
                .datum("who", "forklift"),
        )
        .expect("valid");
    let still_safe = ask(&db, mutual_exclusion);
    println!("after adding the forklift reservation, safety: {still_safe}");
    assert!(!still_safe);

    // Diagnose: which pairs conflict? An open query returns the witnesses.
    let witnesses = db
        .run(
            r#"holds(a1, b1; x) and holds(a2, b2; y) and x != y
               and a1 <= a2 and a2 < b1 and a1 >= 0 and b2 <= 30"#,
            QueryOpts::new(),
        )
        .expect("query")
        .result;
    let rows = witnesses.relation.materialize(0, 30);
    println!("conflicts within the first cycle:");
    for (times, data) in &rows {
        println!("  {data:?} at {times:?}");
    }
    assert!(!rows.is_empty());
}
