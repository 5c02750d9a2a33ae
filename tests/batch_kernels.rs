//! The columnar batch kernels behind `intersect_in` / `difference_in` /
//! `join_on_in`: results identical to the naive all-pairs oracle
//! (`itd_workload::oracle`) at 1/2/8 threads, every counter pinned to the
//! values the former row-at-a-time implementation recorded on a fixed
//! grid of inputs, and the global pairwise-outcome cache's warm-run
//! transparency.
//!
//! Tests in this file serialize on a local mutex: the outcome-cache tests
//! read the process-global cache counters over measurement windows, and
//! every kernel run in another test adds hits and misses to them. The
//! lock can go once the cache is owned per engine instead of per process.

use std::sync::{Mutex, MutexGuard, PoisonError};

use itd_core::{storage_stats, ExecContext, GenRelation, OpKind};
use itd_workload::{oracle, random_relation, RelationSpec};
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spec(tuples: usize, period: i64, data_arity: usize) -> RelationSpec {
    RelationSpec {
        tuples,
        temporal_arity: 2,
        period,
        data_arity,
        constraint_density: 0.5,
        bound_steps: 4,
    }
}

/// Every counter of every op except wall time (never deterministic).
type Counters = Vec<[u64; 11]>;

fn run_counted<F>(threads: usize, op: F) -> (GenRelation, Counters)
where
    F: FnOnce(&ExecContext) -> GenRelation,
{
    let ctx = ExecContext::with_threads(threads);
    let out = op(&ctx);
    let counters = ctx
        .stats()
        .iter()
        .map(|(_, op)| {
            [
                op.calls,
                op.tuples_in,
                op.tuples_out,
                op.pairs,
                op.empties_pruned,
                op.index_probes,
                op.index_pruned,
                op.atoms_simplified,
                op.tuples_subsumed,
                op.coalesce_merges,
                op.max_period,
            ]
        })
        .collect();
    (out, counters)
}

type Kernel = fn(&GenRelation, &GenRelation, &ExecContext) -> GenRelation;
type Oracle = fn(&GenRelation, &GenRelation) -> GenRelation;

/// The three hot paths, each as (name, op kind, kernel, oracle).
fn ops() -> [(&'static str, OpKind, Kernel, Oracle); 3] {
    [
        (
            "intersect",
            OpKind::Intersect,
            |x, y, ctx| x.intersect_in(y, ctx).unwrap(),
            |x, y| oracle::intersect(x, y).unwrap(),
        ),
        (
            "difference",
            OpKind::Difference,
            |x, y, ctx| x.difference_in(y, ctx).unwrap(),
            |x, y| oracle::difference(x, y).unwrap(),
        ),
        (
            "join",
            OpKind::Join,
            |x, y, ctx| x.join_on_in(y, &[(0, 0)], &[], ctx).unwrap(),
            |x, y| oracle::join_on(x, y, &[(0, 0)], &[]).unwrap(),
        ),
    ]
}

/// The operand pair of one case: `n` tuples each, periods 6 and 4.
fn operands(seed: u64, n: usize, data_arity: usize) -> (GenRelation, GenRelation) {
    (
        random_relation(&spec(n, 6, data_arity), seed),
        random_relation(&spec(n, 4, data_arity), seed.wrapping_add(1)),
    )
}

/// One pinned input: `(seed, n, data_arity)`.
type Case = (u64, usize, usize);

/// `(seed, n, data_arity)` and the intersect / difference / join counter
/// vectors recorded from the former row-at-a-time implementation, in
/// `Counters` order. `n·n` runs from 4 to 81, so the grid spans the
/// `INDEX_MIN_PAIRS = 32` gate (index and outcome cache off below 6).
#[rustfmt::skip]
const PINNED: [(Case, [[u64; 11]; 3]); 12] = [
    ((1, 2, 0), [[1, 4, 1, 4, 3, 0, 0, 0, 0, 0, 0], [1, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0], [1, 4, 2, 4, 2, 0, 0, 0, 0, 0, 0]]),
    ((17, 3, 1), [[1, 6, 0, 9, 9, 0, 0, 0, 0, 0, 0], [1, 6, 3, 9, 0, 0, 0, 0, 0, 0, 0], [1, 6, 0, 9, 9, 0, 0, 0, 0, 0, 0]]),
    ((42, 4, 2), [[1, 8, 0, 16, 16, 0, 0, 0, 0, 0, 0], [1, 8, 4, 16, 0, 0, 0, 0, 0, 0, 0], [1, 8, 8, 16, 8, 0, 0, 0, 0, 0, 0]]),
    ((99, 5, 0), [[1, 10, 6, 25, 19, 0, 0, 0, 0, 0, 0], [1, 10, 21, 61, 5, 0, 0, 0, 0, 0, 0], [1, 10, 17, 25, 8, 0, 0, 0, 0, 0, 0]]),
    ((7, 5, 1), [[1, 10, 0, 25, 25, 0, 0, 0, 0, 0, 0], [1, 10, 5, 25, 0, 0, 0, 0, 0, 0, 0], [1, 10, 14, 25, 11, 0, 0, 0, 0, 0, 0]]),
    ((123, 6, 0), [[1, 12, 9, 36, 27, 9, 27, 0, 0, 0, 0], [1, 12, 32, 18, 11, 9, 27, 0, 0, 0, 0], [1, 12, 18, 36, 18, 18, 18, 0, 0, 0, 0]]),
    ((256, 6, 2), [[1, 12, 1, 36, 35, 1, 35, 0, 0, 0, 0], [1, 12, 10, 1, 0, 1, 35, 0, 0, 0, 0], [1, 12, 20, 36, 16, 20, 16, 0, 0, 0, 0]]),
    ((5, 7, 1), [[1, 14, 1, 49, 48, 1, 48, 0, 0, 0, 0], [1, 14, 10, 1, 0, 1, 48, 0, 0, 0, 0], [1, 14, 26, 49, 23, 26, 23, 0, 0, 0, 0]]),
    ((77, 8, 0), [[1, 16, 14, 64, 50, 14, 50, 0, 0, 0, 0], [1, 16, 36, 48, 18, 14, 50, 0, 0, 0, 0], [1, 16, 34, 64, 30, 34, 30, 0, 0, 0, 0]]),
    ((200, 8, 2), [[1, 16, 0, 64, 64, 0, 64, 0, 0, 0, 0], [1, 16, 8, 0, 0, 0, 64, 0, 0, 0, 0], [1, 16, 30, 64, 34, 30, 34, 0, 0, 0, 0]]),
    ((31, 9, 1), [[1, 18, 7, 81, 74, 7, 74, 0, 0, 0, 0], [1, 18, 34, 12, 3, 7, 74, 0, 0, 0, 0], [1, 18, 41, 81, 40, 41, 40, 0, 0, 0, 0]]),
    ((299, 9, 0), [[1, 18, 23, 81, 58, 24, 57, 0, 0, 0, 0], [1, 18, 50, 128, 12, 24, 57, 0, 0, 0, 0], [1, 18, 42, 81, 39, 43, 38, 0, 0, 0, 0]]),
];

/// On the pinned grid, at 1/2/8 threads: the kernel's result equals the
/// oracle's, its own op's counters equal the recorded row-path vector,
/// and no other op records anything.
#[test]
fn kernel_matches_rowpath_bit_for_bit() {
    let _g = serialize();
    for ((seed, n, data_arity), vectors) in PINNED {
        let (a, b) = operands(seed, n, data_arity);
        for ((name, kind, kernel, reference), pinned) in ops().into_iter().zip(vectors) {
            let expected_out = reference(&a, &b);
            let expected: Counters = OpKind::ALL
                .iter()
                .map(|k| if *k == kind { pinned } else { [0; 11] })
                .collect();
            for threads in [1usize, 2, 8] {
                let (out, stats) = run_counted(threads, |ctx| kernel(&a, &b, ctx));
                let case = format!("{name} on {:?} at {threads} threads", (seed, n, data_arity));
                assert_eq!(out, expected_out, "{case}: result differs from the oracle");
                assert_eq!(
                    stats, expected,
                    "{case}: counters differ from the pinned vector"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel ≡ oracle on results, tuple for tuple and in order, for all
    /// three ops at 1/2/8 threads — across the index gate (`n*m` from 4
    /// to 81 spans `INDEX_MIN_PAIRS = 32`) and with data columns engaged.
    #[test]
    fn kernel_matches_oracle(
        seed in 0u64..300,
        n in 2usize..10,
        data_arity in 0usize..3,
    ) {
        let _g = serialize();
        let (a, b) = operands(seed, n, data_arity);
        for (name, _, kernel, reference) in ops() {
            let expected = reference(&a, &b);
            for threads in [1usize, 2, 8] {
                let (out, _) = run_counted(threads, |ctx| kernel(&a, &b, ctx));
                prop_assert_eq!(
                    &out, &expected,
                    "{} kernel result diverged from the oracle at {} threads", name, threads
                );
            }
        }
    }

    /// Self-intersection keeps the diagonal alive through the batch
    /// filter, so a repeat run must be answered from the global outcome
    /// cache — with results and counters identical to the first run.
    #[test]
    fn warm_outcome_cache_is_transparent(seed in 0u64..100) {
        let _g = serialize();
        let a = random_relation(&spec(8, 6, 1), seed);
        let b = a.clone();
        let (cold_out, cold_stats) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
        let before = storage_stats();
        let (warm_out, warm_stats) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
        let delta = storage_stats().delta_since(&before);
        prop_assert_eq!(&warm_out, &cold_out, "warm outcome cache changed the result");
        prop_assert_eq!(&warm_stats, &cold_stats, "warm outcome cache changed counters");
        // Every diagonal pair survives the filter (identical offsets and
        // data ids), was cached by the cold run, and must now hit.
        prop_assert!(
            delta.outcome_hits >= 8,
            "expected >= 8 outcome-cache hits on the warm run, got {} ({} misses)",
            delta.outcome_hits,
            delta.outcome_misses
        );
    }
}

/// The outcome cache only ever short-circuits derivations it has seen:
/// a fresh pair of relations (no shared temporal parts with earlier
/// runs in this process would be unusual, but misses are the general
/// case) records misses, never wrong outcomes.
#[test]
fn outcome_cache_counts_misses_then_hits() {
    let _g = serialize();
    let a = random_relation(&spec(12, 30, 0), 20_260_807);
    let b = random_relation(&spec(12, 30, 0), 20_260_808);
    let before = storage_stats();
    let (first, _) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
    let mid = storage_stats();
    let (second, _) = run_counted(1, |ctx| a.intersect_in(&b, ctx).unwrap());
    let after = storage_stats();
    assert_eq!(first, second);
    let d1 = mid.delta_since(&before);
    let d2 = after.delta_since(&mid);
    // Whatever survived the batch filter was derived (missed) once and
    // served from cache afterwards: the warm run adds no new misses
    // beyond what a racing test could contribute, and hits at least
    // what the cold run missed.
    assert!(
        d2.outcome_hits >= d1.outcome_misses,
        "warm run should hit every pair the cold run derived: {d1:?} then {d2:?}"
    );
}
