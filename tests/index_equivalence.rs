//! The residue-class index is a pure accelerator: every indexed operator
//! must produce *bit-identical* output (same tuples, same order) to the
//! naive all-pairs oracle (`itd_workload::oracle`), at every thread
//! count, and its probe counters must partition the candidate-pair space
//! exactly.

use itd_core::{ExecContext, GenRelation, GenTuple, Lrp, OpKind, Schema};
use itd_workload::{oracle, random_relation, RelationSpec};
use proptest::prelude::*;

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

fn spec(tuples: usize, temporal_arity: usize, period: i64, data_arity: usize) -> RelationSpec {
    RelationSpec {
        tuples,
        temporal_arity,
        period,
        data_arity,
        ..RelationSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Indexed intersection == oracle intersection, tuple for tuple, at
    /// 1, 2, and 8 threads. Periods vary per relation so the residue
    /// moduli exercise gcd refinement, and sizes straddle the
    /// `INDEX_MIN_PAIRS` threshold.
    #[test]
    fn intersect_indexed_matches_naive(
        seed1 in 0u64..500, seed2 in 500u64..1000,
        n1 in 2usize..10, n2 in 2usize..10,
        k1 in 1i64..13, k2 in 1i64..13,
        data in 0usize..2,
    ) {
        let r1 = random_relation(&spec(n1, 2, k1, data), seed1);
        let r2 = random_relation(&spec(n2, 2, k2, data), seed2);
        let naive = oracle::intersect(&r1, &r2).unwrap();
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let got = r1.intersect_in(&r2, &ctx).unwrap();
            prop_assert_eq!(&got, &naive, "threads = {}", threads);
            let op = *ctx.stats().op(OpKind::Intersect);
            // The probe counters partition the candidate space whenever
            // the index was consulted; both stay 0 when it was not.
            if op.index_probes + op.index_pruned > 0 {
                prop_assert_eq!(op.index_probes + op.index_pruned, op.pairs);
            }
            prop_assert_eq!(op.tuples_out + op.empties_pruned, op.pairs);
        }
    }

    /// Indexed difference == oracle difference. The index only skips
    /// subtrahend tuples that are disjoint from the minuend tuple, which
    /// leaves the incremental fold untouched.
    #[test]
    fn difference_indexed_matches_naive(
        seed1 in 0u64..500, seed2 in 500u64..1000,
        n1 in 2usize..10, n2 in 2usize..10,
        k1 in 1i64..13, k2 in 1i64..13,
    ) {
        let r1 = random_relation(&spec(n1, 2, k1, 0), seed1);
        let r2 = random_relation(&spec(n2, 2, k2, 0), seed2);
        let naive = oracle::difference(&r1, &r2).unwrap();
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let got = r1.difference_in(&r2, &ctx).unwrap();
            prop_assert_eq!(&got, &naive, "threads = {}", threads);
        }
    }

    /// Indexed join == oracle join on a shared temporal column (and the
    /// data column when present).
    #[test]
    fn join_indexed_matches_naive(
        seed1 in 0u64..500, seed2 in 500u64..1000,
        n1 in 2usize..10, n2 in 2usize..10,
        k1 in 1i64..13, k2 in 1i64..13,
        data in 0usize..2,
    ) {
        let r1 = random_relation(&spec(n1, 2, k1, data), seed1);
        let r2 = random_relation(&spec(n2, 2, k2, data), seed2);
        let tpairs = [(0usize, 1usize)];
        let dpairs: Vec<(usize, usize)> = if data > 0 { vec![(0, 0)] } else { vec![] };
        let naive = oracle::join_on(&r1, &r2, &tpairs, &dpairs).unwrap();
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let got = r1.join_on_in(&r2, &tpairs, &dpairs, &ctx).unwrap();
            prop_assert_eq!(&got, &naive, "threads = {}", threads);
            let op = *ctx.stats().op(OpKind::Join);
            if op.index_probes + op.index_pruned > 0 {
                prop_assert_eq!(op.index_probes + op.index_pruned, op.pairs);
            }
        }
    }

    /// Index counters are scheduling-independent: the same operation
    /// reports the same probes/skips at any thread count.
    #[test]
    fn index_counters_identical_across_thread_counts(
        seed1 in 0u64..500, seed2 in 500u64..1000,
        n1 in 4usize..10, n2 in 4usize..10,
        k1 in 1i64..13, k2 in 1i64..13,
    ) {
        let r1 = random_relation(&spec(n1, 2, k1, 0), seed1);
        let r2 = random_relation(&spec(n2, 2, k2, 0), seed2);
        let count = |threads: usize| {
            let ctx = ExecContext::with_threads(threads);
            r1.intersect_in(&r2, &ctx).unwrap();
            let op = *ctx.stats().op(OpKind::Intersect);
            (op.index_probes, op.index_pruned, op.pairs, op.empties_pruned)
        };
        let one = count(1);
        prop_assert_eq!(count(2), one);
        prop_assert_eq!(count(8), one);
    }
}

/// Exact counters on a paper-style example (the train schedules of §1:
/// departures repeating within the hour). R₁ holds eight hourly
/// schedules at offsets {0, 5, …, 35} past the hour, R₂ four at
/// {0, 15, 30, 45}; all share period 60, so the per-column modulus is 60
/// (60 = 2²·3·5 is 13-smooth and ≤ the cap) and residue buckets resolve
/// intersection membership exactly: only the three shared offsets
/// {0, 15, 30} are ever probed.
#[test]
fn intersect_counters_partition_pairs_exactly() {
    let sched = |offsets: &[i64]| {
        let mut b = GenRelation::builder(Schema::new(1, 0));
        for &c in offsets {
            b = b.push_row(GenTuple::unconstrained(vec![lrp(c, 60)], vec![]));
        }
        b.build().unwrap()
    };
    let r1 = sched(&[0, 5, 10, 15, 20, 25, 30, 35]);
    let r2 = sched(&[0, 15, 30, 45]);
    let ctx = ExecContext::serial();
    let out = r1.intersect_in(&r2, &ctx).unwrap();
    assert_eq!(out.tuple_count(), 3, "shared offsets 0, 15, 30");

    let op = *ctx.stats().op(OpKind::Intersect);
    assert_eq!(op.pairs, 32, "N₁·N₂ = 8·4 candidate pairs");
    assert_eq!(
        op.index_probes + op.index_pruned,
        op.pairs,
        "probed + pruned == n·m: the index partitions the pair space"
    );
    assert_eq!(op.index_probes, 3, "only residue-compatible pairs probed");
    assert_eq!(op.index_pruned, 29);
    assert!(
        op.index_pruned * 2 >= op.pairs,
        "the index prunes at least half the candidate pairs"
    );
    assert_eq!(
        op.tuples_out + op.empties_pruned,
        op.pairs,
        "skipped pairs still count as pruned empties"
    );

    // The all-pairs oracle agrees bit for bit.
    let naive = oracle::intersect(&r1, &r2).unwrap();
    assert_eq!(naive, out);
}

/// Below `INDEX_MIN_PAIRS` the kernels skip the index: no probe counters
/// move.
#[test]
fn small_inputs_skip_the_index() {
    let r1 = GenRelation::builder(Schema::new(1, 0))
        .push_row(GenTuple::unconstrained(vec![lrp(0, 6)], vec![]))
        .push_row(GenTuple::unconstrained(vec![lrp(3, 6)], vec![]))
        .build()
        .unwrap();
    let ctx = ExecContext::serial();
    r1.intersect_in(&r1, &ctx).unwrap();
    let op = *ctx.stats().op(OpKind::Intersect);
    assert_eq!(op.pairs, 4);
    assert_eq!(op.index_probes, 0);
    assert_eq!(op.index_pruned, 0);
}
