//! Figures 1–3 and Appendix A.1: normalization blow-up (`Π k/kᵢ`), the
//! Figure 2 exact projection, and the Figure 1 difference decomposition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itd_core::ExecContext;
use itd_core::{Atom, GenRelation, GenTuple, Lrp, Schema};

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

/// Appendix A.1: normalizing a tuple of unrelated periods costs Π (k/kᵢ).
fn bench_normalization_blowup(c: &mut Criterion) {
    let mut group = c.benchmark_group("normalization_blowup");
    group.sample_size(10);
    // Pairs of coprime-ish periods with growing lcm.
    for &(k1, k2) in &[(2i64, 3i64), (4, 6), (6, 8), (8, 12), (12, 18)] {
        let t = GenTuple::builder()
            .lrps(vec![lrp(1, k1), lrp(0, k2)])
            .atoms([Atom::diff_le(0, 1, 3), Atom::ge(0, 0)])
            .build()
            .unwrap();
        let label = format!("{k1}x{k2}");
        group.bench_with_input(BenchmarkId::new("normalize", label), &t, |bch, t| {
            bch.iter(|| t.normalize().unwrap())
        });
    }
    group.finish();
}

/// Figure 2 / Theorem 3.1: the exact (normalize-then-eliminate) projection.
fn bench_projection_figure2(c: &mut Criterion) {
    let serial = ExecContext::serial();
    let mut group = c.benchmark_group("figure2_projection");
    for &scale in &[1i64, 2, 4, 8] {
        // Scale the paper's tuple: periods 4·s and 8·s.
        let rel = GenRelation::new(
            Schema::new(2, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(3, 4 * scale), lrp(1, 8 * scale)])
                .atoms([
                    Atom::diff_ge(0, 1, 0).unwrap(),
                    Atom::diff_le(0, 1, 5 * scale),
                    Atom::ge(1, 2),
                ])
                .build()
                .unwrap()],
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("project_x1", scale), &rel, |bch, rel| {
            bch.iter(|| rel.project_in(&[0], &[], &serial).unwrap())
        });
    }
    group.finish();
}

/// Figure 1: tuple difference through the two-part decomposition.
fn bench_difference_figure1(c: &mut Criterion) {
    let serial = ExecContext::serial();
    let mut group = c.benchmark_group("figure1_difference");
    for &k in &[4i64, 8, 16, 32] {
        let a = GenRelation::new(
            Schema::new(2, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 2), lrp(0, 2)])
                .atoms([Atom::diff_le(0, 1, 0)])
                .build()
                .unwrap()],
        )
        .unwrap();
        let b = GenRelation::new(
            Schema::new(2, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, k), lrp(0, 2)])
                .atoms([Atom::ge(1, 4), Atom::le(1, 40)])
                .build()
                .unwrap()],
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::new("difference", k), &k, |bch, _| {
            bch.iter(|| a.difference_in(&b, &serial).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_normalization_blowup,
    bench_projection_figure2,
    bench_difference_figure1
);
criterion_main!(benches);
