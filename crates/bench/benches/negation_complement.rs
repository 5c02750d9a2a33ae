//! Table 2/3, negation rows: complement is polynomial in `N` under fixed
//! schema but exponential (`k^m` free extensions) under general
//! complexity; nonemptiness-of-complement tracks the same costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itd_core::ExecContext;
use itd_workload::{random_relation, RelationSpec};

fn spec(n: usize, m: usize, k: i64) -> RelationSpec {
    RelationSpec {
        tuples: n,
        temporal_arity: m,
        period: k,
        data_arity: 0,
        constraint_density: 0.5,
        bound_steps: 4,
    }
}

/// Fixed schema (m = 1, k = 4): negation cost versus N — polynomial.
fn bench_fixed_schema_negation(c: &mut Criterion) {
    let serial = ExecContext::serial();
    let mut group = c.benchmark_group("negation_fixed_schema");
    for &n in &[2usize, 4, 8, 16, 32] {
        let a = random_relation(&spec(n, 1, 4), 3);
        group.bench_with_input(BenchmarkId::new("complement", n), &n, |bch, _| {
            bch.iter(|| a.complement_temporal_in(&serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("complement_nonempty", n), &n, |bch, _| {
            bch.iter(|| {
                a.complement_temporal_in(&serial)
                    .unwrap()
                    .denotes_empty()
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// General complexity (N = 4 fixed, k = 3): negation cost versus m —
/// exponential in m through the k^m extension enumeration.
fn bench_general_negation(c: &mut Criterion) {
    let serial = ExecContext::serial();
    let mut group = c.benchmark_group("negation_general");
    group.sample_size(10);
    for &m in &[1usize, 2, 3, 4] {
        let a = random_relation(&spec(4, m, 3), 5);
        group.bench_with_input(BenchmarkId::new("complement", m), &m, |bch, _| {
            bch.iter(|| a.complement_temporal_in(&serial).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fixed_schema_negation, bench_general_negation);
criterion_main!(benches);
