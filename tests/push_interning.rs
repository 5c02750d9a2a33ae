//! Appending a row interns each of its data values exactly once, whether
//! or not the relation caches a data-keyed residue index that the append
//! extends in place.
//!
//! This binary holds one test on purpose: it measures the process-global
//! value-arena counters over a window, and a concurrent test interning
//! inside that window would change the deltas.

use itd_core::{storage_stats, GenRelation, GenTuple, Lrp, Schema, Value};

fn row(offset: i64, data: usize) -> GenTuple {
    GenTuple::unconstrained(
        vec![Lrp::new(offset, 4).expect("valid lrp")],
        (0..data as i64).map(Value::Int).collect(),
    )
}

/// Value lookups spent pushing one more row onto a relation of `data`
/// data columns, with or without a cached index keyed on all of them.
fn lookups_per_push(data: usize, indexed: bool) -> u64 {
    let mut r = GenRelation::empty(Schema::new(1, data));
    r.push(row(0, data)).expect("schema");
    if indexed {
        let cols: Vec<usize> = (0..data).collect();
        // Same period as every pushed row: the append keeps the index.
        r.residue_index(&[0], &cols);
    }
    let before = storage_stats();
    r.push(row(1, data)).expect("schema");
    storage_stats().delta_since(&before).value_lookups
}

#[test]
fn push_interns_each_data_value_once() {
    for data in 1..=3 {
        assert_eq!(lookups_per_push(data, false), data as u64, "no index");
        assert_eq!(
            lookups_per_push(data, true),
            data as u64,
            "a cached data-keyed index must reuse the ids the push interned"
        );
    }
}
