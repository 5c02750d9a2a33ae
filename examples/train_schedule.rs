//! The paper's Example 2.4: the Liège → Brussels train schedule, and why
//! intervals (temporal arity 2) beat unary "Leaving"/"Arriving" predicates.
//!
//! Every hour `h` there is a slow train leaving at `h:02` arriving `h+1:20`
//! and an express leaving at `h:46` arriving `h+1:50`. Times are minutes
//! since midnight; one hour = 60.
//!
//! Run with: `cargo run --example train_schedule`

use itd_db::{Database, ExecContext, QueryOpts, TupleSpec};

const HOUR: i64 = 60;

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

    // ---- The correct, interval-based design (paper's final table) ----
    //   [02 + 60n, 80 + 60n]   X1 = X2 − 78   (slow)
    //   [46 + 60n, 110 + 60n]  X1 = X2 − 64   (express)
    db.create_table("train", &["dep", "arr"], &["kind"])
        .expect("fresh table");
    let trains = db.table_mut("train").expect("table exists");
    trains
        .insert(
            TupleSpec::new()
                .lrp("dep", 2, HOUR)
                .lrp("arr", 80, HOUR)
                .diff_eq("dep", "arr", -78)
                .datum("kind", "slow"),
        )
        .expect("valid tuple");
    trains
        .insert(
            TupleSpec::new()
                .lrp("dep", 46, HOUR)
                .lrp("arr", 110, HOUR)
                .diff_eq("dep", "arr", -64)
                .datum("kind", "express"),
        )
        .expect("valid tuple");
    println!("{}", db.table("train").expect("exists").render());

    // The 7:02 train arrives 8:20.
    let t0702 = 7 * HOUR + 2;
    let t0820 = 8 * HOUR + 20;
    assert!(ask(&db, &format!(r#"train({t0702}, {t0820}; "slow")"#)));
    println!("7:02 → 8:20 slow train exists: true");

    // The paper's broken inference — "a train leaving at h+1:46 arriving at
    // h+1:50" — is NOT derivable here: the express from 7:46 arrives 8:50,
    // never 7:50.
    let t0746 = 7 * HOUR + 46;
    let t0750 = 7 * HOUR + 50;
    assert!(!ask(&db, &format!("exists k. train({t0746}, {t0750}; k)")));
    println!("bogus 7:46 → 7:50 train: correctly absent");

    // Every slow train takes exactly 78 minutes — over the whole infinite
    // schedule.
    assert!(ask(
        &db,
        r#"forall d. forall a. train(d, a; "slow") implies a = d + 78"#
    ));
    println!("every slow train takes 78 minutes: true");

    // Between 7:46 and 8:20 two trains are under way simultaneously.
    let q = format!(
        "exists d1. exists a1. exists d2. exists a2. exists k1. exists k2.
            train(d1, a1; k1) and train(d2, a2; k2)
            and d1 < d2 and d2 < a1 and k1 != k2
            and d1 = {t0702}"
    );
    assert!(ask(&db, &q));
    println!("overlapping slow+express service around 8:00: true");

    // ---- The paper's cautionary unary design ----
    // With separate Leaving/Arriving unary predicates the association
    // between departure and arrival is lost: the bogus pair becomes
    // derivable.
    db.create_table("leaving", &["t"], &[]).expect("fresh");
    db.table_mut("leaving")
        .expect("exists")
        .insert(TupleSpec::new().lrp("t", 46, HOUR))
        .expect("valid");
    db.create_table("arriving", &["t"], &[]).expect("fresh");
    db.table_mut("arriving")
        .expect("exists")
        .insert(TupleSpec::new().lrp("t", 50, HOUR))
        .expect("valid");
    // "some train leaves at 7:46 and arrives at 7:50" — wrongly true in the
    // unary design:
    let bogus = format!("leaving({t0746}) and arriving({t0750})");
    assert!(ask(&db, &bogus));
    println!("unary design wrongly admits the 7:46 → 7:50 pair: true (as the paper warns)");

    // ---- Algebra: the departures timetable ----
    let departures = db
        .table("train")
        .expect("exists")
        .relation()
        .project_in(&[0], &[0], &ExecContext::serial())
        .expect("projection");
    // 9:46 express and 9:02 slow are in the projection; 9:03 is not.
    assert!(departures.contains(&[9 * HOUR + 46], &[itd_db::Value::str("express")]));
    assert!(departures.contains(&[9 * HOUR + 2], &[itd_db::Value::str("slow")]));
    assert!(!departures.contains(&[9 * HOUR + 3], &[itd_db::Value::str("slow")]));
    println!("projected departure timetable checks out");
}
