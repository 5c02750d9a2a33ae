//! Theorem 4.1: yes/no query evaluation is PTIME in data complexity — a
//! fixed query over databases of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itd_core::{Atom, GenRelation, GenTuple, Lrp, Schema, Value};
use itd_query::{parse, run, ExecContext, Formula, MemoryCatalog, QueryOpts};

fn truth(cat: &MemoryCatalog, f: &Formula) -> bool {
    let ctx = ExecContext::new();
    run(cat, f, QueryOpts::new().ctx(&ctx))
        .unwrap()
        .truth_in(&ctx)
        .unwrap()
}

/// Builds a `perform`-style catalog with `n` periodic interval tuples.
fn catalog(n: usize) -> MemoryCatalog {
    let mut rel = GenRelation::empty(Schema::new(2, 1));
    for i in 0..n {
        let period = 6 + (i % 5) as i64;
        let start = (i % period as usize) as i64;
        let len = 1 + (i % 3) as i64;
        rel.push(
            GenTuple::builder()
                .lrps(vec![
                    Lrp::new(start, period).unwrap(),
                    Lrp::new(start + len, period).unwrap(),
                ])
                .atoms([Atom::diff_eq(1, 0, len)])
                .data(vec![Value::str(format!("robot{}", i % 4))])
                .build()
                .unwrap(),
        )
        .unwrap();
    }
    let mut cat = MemoryCatalog::new();
    cat.insert("perform", rel);
    cat
}

fn bench_fixed_queries(c: &mut Criterion) {
    let membership =
        parse(r#"exists a. exists b. perform(a, b; "robot1") and a >= 100"#).expect("parses");
    let universal =
        parse(r#"forall a. forall b. perform(a, b; "robot2") implies b <= a + 3"#).expect("parses");
    let mut group = c.benchmark_group("query_data_complexity");
    group.sample_size(10);
    for &n in &[4usize, 8, 16, 32, 64] {
        let cat = catalog(n);
        group.bench_with_input(BenchmarkId::new("existential", n), &n, |bch, _| {
            bch.iter(|| truth(&cat, &membership))
        });
        group.bench_with_input(BenchmarkId::new("universal", n), &n, |bch, _| {
            bch.iter(|| truth(&cat, &universal))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fixed_queries);
criterion_main!(benches);
