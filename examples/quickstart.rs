//! Quickstart: define a temporal database with infinite (periodic)
//! information, run relational algebra, and ask first-order queries.
//!
//! Run with: `cargo run --example quickstart`

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

    // A backup job runs every 12 hours starting at hour 3, forever —
    // one generalized tuple stands for infinitely many facts.
    db.create_table("backup", &["start", "end"], &["host"])
        .expect("fresh table");
    let backups = db.table_mut("backup").expect("table exists");
    backups
        .insert(
            TupleSpec::new()
                .lrp("start", 3, 12)
                .lrp("end", 5, 12)
                .diff_eq("start", "end", -2) // each run takes 2 hours
                .datum("host", "db-primary"),
        )
        .expect("valid tuple");
    backups
        .insert(
            TupleSpec::new()
                .lrp("start", 9, 24)
                .lrp("end", 10, 24)
                .diff_eq("start", "end", -1)
                .ge("start", 9) // replica backups only started at hour 9
                .datum("host", "db-replica"),
        )
        .expect("valid tuple");

    println!("{}", db.table("backup").expect("table exists").render());

    // Membership is exact over infinite time: hour 999_999_999?
    let far_future = 999_999_996 + 3; // ≡ 3 (mod 12)
    let q = format!(r#"exists e. backup({far_future}, e; "db-primary")"#);
    println!("primary backup starts at {far_future}: {}", ask(&db, &q));
    assert!(ask(&db, &q));

    // First-order reasoning over all of Z: every primary backup finishes
    // two hours after it starts.
    let always_two_hours = r#"
        forall s. forall e. backup(s, e; "db-primary") implies e = s + 2
    "#;
    assert!(ask(&db, always_two_hours));
    println!("every primary backup lasts exactly 2h: true");

    // Do the two hosts ever back up at overlapping times?
    let overlap = r#"
        exists s1. exists e1. exists s2. exists e2.
            backup(s1, e1; "db-primary") and backup(s2, e2; "db-replica")
            and s1 <= s2 and s2 <= e1
    "#;
    let overlapping = ask(&db, overlap);
    println!("primary and replica backups ever overlap: {overlapping}");

    // Algebra directly on the relation: project to start times.
    // Each algebra call names the context its work is counted against.
    let ctx = ExecContext::serial();
    let rel = db.table("backup").expect("table exists").relation();
    let starts = rel.project_in(&[0], &[], &ctx).expect("projection");
    println!(
        "start times form {} generalized tuple(s); contains t=27? {}",
        starts.tuple_count(),
        starts.contains(&[27], &[])
    );
    assert!(starts.contains(&[27], &[])); // 27 ≡ 3 (mod 12)
    assert!(!starts.contains(&[4], &[]));

    // Persistence round trip.
    let json = db.to_json().expect("serialize");
    let restored = Database::from_json(&json).expect("deserialize");
    assert!(ask(&restored, &q));
    println!("database JSON round trip: ok ({} bytes)", json.len());
}
