//! Serde persistence: databases round-trip through JSON (and files)
//! without semantic change, across randomized contents.

use itd_db::{Database, DbError, ExecContext, QueryOpts, TupleSpec};

fn ask(db: &Database, src: &str) -> itd_db::Result<bool> {
    let ctx = ExecContext::new();
    db.run(src, QueryOpts::new().ctx(&ctx))?
        .truth_in(&ctx)
        .map_err(DbError::Query)
}
use itd_workload::{random_relation, RelationSpec};

#[test]
fn database_json_roundtrip_semantics() {
    for seed in 0..6 {
        let mut db = Database::new();
        db.create_table("r", &["x", "y"], &[]).unwrap();
        let rel = random_relation(
            &RelationSpec {
                tuples: 8,
                temporal_arity: 2,
                period: 5,
                data_arity: 0,
                constraint_density: 0.6,
                bound_steps: 4,
            },
            seed,
        );
        db.table_mut("r")
            .unwrap()
            .set_relation(rel.clone())
            .unwrap();

        let json = db.to_json().unwrap();
        let back = Database::from_json(&json).unwrap();
        let rel2 = back.table("r").unwrap().relation().clone();
        assert_eq!(
            rel, rel2,
            "structural equality after roundtrip, seed {seed}"
        );
        assert_eq!(
            rel.materialize(-20, 20),
            rel2.materialize(-20, 20),
            "semantic equality, seed {seed}"
        );
    }
}

#[test]
fn file_roundtrip() {
    let mut db = Database::new();
    db.create_table("sched", &["dep", "arr"], &["kind"])
        .unwrap();
    db.table_mut("sched")
        .unwrap()
        .insert(
            TupleSpec::new()
                .lrp("dep", 2, 60)
                .lrp("arr", 80, 60)
                .diff_eq("dep", "arr", -78)
                .datum("kind", "slow"),
        )
        .unwrap();
    let dir = std::env::temp_dir().join("itd_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.json");
    db.save(&path).unwrap();
    let back = Database::load(&path).unwrap();
    assert!(ask(&back, r#"sched(62, 140; "slow")"#).unwrap());
    assert!(!ask(&back, r#"sched(63, 140; "slow")"#).unwrap());
    std::fs::remove_file(&path).ok();
}

#[test]
fn legacy_row_oriented_files_stay_readable() {
    // Files written before the columnar storage encoded relations as
    // `{schema, tuples: [{lrps, cons, data}, ...]}`. The tuple encoding is
    // unchanged, so a legacy relation body can be reassembled from
    // serialized tuples and must decode to the same relation.
    use itd_core::{GenRelation, GenTuple, Lrp, Schema, Value};
    let t1 = GenTuple::builder()
        .lrp(Lrp::new(0, 10).unwrap())
        .datum(Value::from("a"))
        .build()
        .unwrap();
    let t2 = GenTuple::builder()
        .lrp(Lrp::new(3, 10).unwrap())
        .datum(Value::from("a"))
        .build()
        .unwrap();
    let expected = GenRelation::new(Schema::new(1, 1), vec![t1.clone(), t2.clone()]).unwrap();
    let legacy = format!(
        r#"{{"schema":{},"tuples":[{},{}]}}"#,
        serde_json::to_string(&Schema::new(1, 1)).unwrap(),
        serde_json::to_string(&t1).unwrap(),
        serde_json::to_string(&t2).unwrap(),
    );
    let back: GenRelation = serde_json::from_str(&legacy).unwrap();
    assert_eq!(back, expected, "legacy row-oriented format must decode");
}

#[test]
fn columnar_format_writes_id_tables_once() {
    // The new format stores the distinct temporal parts and data values
    // once and refers to them by local id: two rows sharing a part and a
    // value must serialize with single-entry tables.
    use itd_core::{GenRelation, GenTuple, Lrp, Schema, Value};
    let part = |offset| {
        GenTuple::builder()
            .lrp(Lrp::new(offset, 7).unwrap())
            .datum(Value::from("shared"))
            .build()
            .unwrap()
    };
    let rel = GenRelation::new(Schema::new(1, 1), vec![part(1), part(1), part(1)]).unwrap();
    let json = serde_json::to_string(&rel).unwrap();
    for key in ["\"parts\"", "\"values\"", "\"rows\"", "\"data\""] {
        assert!(json.contains(key), "columnar field {key} missing: {json}");
    }
    // One distinct part, one distinct value, three rows.
    assert_eq!(json.matches("shared").count(), 1, "value written once");
    assert_eq!(json.matches("\"cons\"").count(), 1, "part written once");
    let back: GenRelation = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rel);
}

#[test]
fn malformed_input_rejected() {
    assert!(Database::from_json("{").is_err());
    assert!(Database::from_json(r#"{"tables": 3}"#).is_err());
    assert!(Database::load("/nonexistent/path/db.json").is_err());
}

#[test]
fn names_and_schemas_survive() {
    let mut db = Database::new();
    db.create_table("a", &["t"], &["d1", "d2"]).unwrap();
    db.create_table("b", &[], &["only_data"]).unwrap();
    let json = db.to_json().unwrap();
    let back = Database::from_json(&json).unwrap();
    assert_eq!(back.table_names(), vec!["a", "b"]);
    let a = back.table("a").unwrap();
    assert_eq!(a.temporal_names(), &["t".to_string()]);
    assert_eq!(a.data_names(), &["d1".to_string(), "d2".to_string()]);
    assert!(a.is_empty());
}
