//! Table 2, general-complexity column: operation cost as a function of the
//! temporal arity `m`, with the tuple count fixed.
//!
//! Paper bounds (N fixed): union O(m²), projection O(m²),
//! cross-product/intersection/join O(m²), emptiness O(m³) — all PTIME.
//! (Negation's k^m exponential lives in the `negation_complement` bench.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itd_core::ExecContext;
use itd_workload::{random_relation, RelationSpec};

fn spec(m: usize) -> RelationSpec {
    RelationSpec {
        tuples: 12,
        temporal_arity: m,
        period: 4,
        data_arity: 0,
        constraint_density: 0.4,
        bound_steps: 5,
    }
}

fn bench_ops(c: &mut Criterion) {
    let serial = ExecContext::serial();
    let arities = [1usize, 2, 3, 4, 5, 6];
    let mut group = c.benchmark_group("table2_general");
    for &m in &arities {
        let a = random_relation(&spec(m), 7);
        let b = random_relation(&spec(m), 77);
        group.bench_with_input(BenchmarkId::new("union", m), &m, |bch, _| {
            bch.iter(|| a.union_in(&b, &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("intersection", m), &m, |bch, _| {
            bch.iter(|| a.intersect_in(&b, &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("cross_product", m), &m, |bch, _| {
            bch.iter(|| a.cross_product_in(&b, &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("join", m), &m, |bch, _| {
            bch.iter(|| a.join_on_in(&b, &[(0, 0)], &[], &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("projection", m), &m, |bch, _| {
            bch.iter(|| a.project_in(&[0], &[], &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("emptiness", m), &m, |bch, _| {
            bch.iter(|| a.denotes_empty().unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
