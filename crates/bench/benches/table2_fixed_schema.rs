//! Table 2, fixed-schema column: operation cost as a function of the tuple
//! count `N`, with the schema (m = 2 temporal attributes, period k = 6)
//! held constant.
//!
//! Paper bounds: union O(N), projection O(N), emptiness O(N);
//! cross-product, intersection, join O(N²).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use itd_core::ExecContext;
use itd_workload::{random_relation, RelationSpec};

fn spec(n: usize) -> RelationSpec {
    RelationSpec {
        tuples: n,
        temporal_arity: 2,
        period: 6,
        data_arity: 0,
        constraint_density: 0.5,
        bound_steps: 6,
    }
}

fn bench_ops(c: &mut Criterion) {
    let serial = ExecContext::serial();
    let sizes = [8usize, 16, 32, 64, 128];
    let mut group = c.benchmark_group("table2_fixed_schema");
    for &n in &sizes {
        let a = random_relation(&spec(n), 42);
        let b = random_relation(&spec(n), 4242);
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("union", n), &n, |bch, _| {
            bch.iter(|| a.union_in(&b, &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("intersection", n), &n, |bch, _| {
            bch.iter(|| a.intersect_in(&b, &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("cross_product", n), &n, |bch, _| {
            bch.iter(|| a.cross_product_in(&b, &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("join", n), &n, |bch, _| {
            bch.iter(|| a.join_on_in(&b, &[(0, 0)], &[], &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("projection", n), &n, |bch, _| {
            bch.iter(|| a.project_in(&[0], &[], &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("emptiness", n), &n, |bch, _| {
            bch.iter(|| a.denotes_empty().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("selection", n), &n, |bch, _| {
            bch.iter(|| {
                a.select_temporal_in(itd_core::Atom::ge(0, 0), &serial)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
