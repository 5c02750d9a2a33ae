//! Adaptive intermediate compaction: subsumption pruning plus residue
//! coalescing, the representation-minimization pass run *between* plan
//! nodes.
//!
//! The paper's complexity bounds (§3.8) are stated in `N`, the number of
//! generalized tuples, yet the algebra lets `N` balloon between
//! operators: normalization and complement refine one tuple into `k/kᵢ`
//! residue classes, difference splits tuples around punctured points, and
//! every redundant tuple is carried into the next quadratic operator.
//! [`GenRelation::compact_in`](crate::GenRelation::compact_in) shrinks an
//! intermediate relation without changing its denotation, in three
//! sub-steps:
//!
//! 1. tuples with an unsatisfiable constraint system are dropped;
//! 2. **subsumption pruning**: a tuple whose denotation is certainly
//!    contained in another's (same data, columnwise lrp inclusion,
//!    constraint entailment — a sound, incomplete check) is
//!    dropped. Candidates are pre-filtered by the residue index
//!    ([`crate::index`]) over all columns: if `big ⊇ small` then the
//!    data ids are equal and, per column, the index modulus `m` divides
//!    `big`'s period, so the offsets are congruent mod `m` — tuples in
//!    different buckets cannot subsume each other in either direction,
//!    and the quadratic check runs only inside (typically tiny) buckets;
//! 3. **coalescing** ([`crate::minimize`]): complete residue-class groups
//!    `c, c+g, …, c+(k/g−1)·g` are merged back into the coarser tuple
//!    `c + g·n` — the inverse of Lemma 3.1 — and the survivors are
//!    subsumption-pruned once more (a coarser class may now cover tuples
//!    the first pass kept).
//!
//! The pass costs only what it removes. Kept rows are selected from the
//! input store (their interned ids are copied, nothing is re-interned),
//! and a pass that removes nothing returns an `O(1)` snapshot of its
//! input. Coalescing copies no tuple when a pass over every column merges
//! nothing. Each store is compacted at most once:
//! [`GenRelation::compact_in`] memoizes the result on the store and
//! replays its counters on later calls.
//!
//! The pass is deliberately serial: it is near-linear thanks to the
//! bucketing, and a serial pass is trivially bit-identical at any thread
//! budget. Per call, `tuples_subsumed + coalesce_merges + tuples_out ==
//! tuples_in` — the counter invariant the bench report asserts.

use crate::index::RelationIndex;
use crate::relation::{tuple_subsumes, GenRelation};
use crate::Result;

/// What one compaction pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CompactReport {
    /// Tuples dropped as unsatisfiable or subsumed by another tuple.
    pub subsumed: u64,
    /// Tuples eliminated by coalescing (group size minus one per merge).
    pub merges: u64,
}

/// Compacts `rel` without changing its denotation; returns the smaller
/// relation and the removal tally. `report.subsumed + report.merges +
/// result.tuple_count() == rel.tuple_count()` always holds. Kept rows are
/// selected from their input store, never re-interned, and when nothing is
/// removed the result is an `O(1)` snapshot of `rel`.
pub(crate) fn compact_relation(rel: &GenRelation) -> Result<(GenRelation, CompactReport)> {
    let mut report = CompactReport::default();
    let lone_satisfiable = || rel.row(0).is_some_and(|r| r.constraints().is_satisfiable());
    if rel.has_no_tuples() || (rel.tuple_count() == 1 && lone_satisfiable()) {
        return Ok((rel.clone(), report));
    }
    let pruned = subsume(rel, &mut report.subsumed);

    let Some(coalesced) = crate::minimize::coalesce(&pruned)? else {
        // Nothing merged: the first subsumption pass already reached a
        // fixpoint, so a second pass would keep everything.
        return Ok((pruned, report));
    };
    report.merges = (pruned.tuple_count() - coalesced.tuple_count()) as u64;
    let out = subsume(&coalesced, &mut report.subsumed);
    Ok((out, report))
}

/// One subsumption pass: the kept rows in input order (`rel` itself when
/// none drop); `removed` is incremented by the number of dropped tuples.
fn subsume(rel: &GenRelation, removed: &mut u64) -> GenRelation {
    let tuples = rel.rows_slice();
    let schema = rel.schema();
    let tcols: Vec<usize> = (0..schema.temporal()).collect();
    let dcols: Vec<usize> = (0..schema.data()).collect();
    // Built uncached: a store is compacted at most once (the memo in
    // `GenRelation::compact_in`), so a cached index would never be reused.
    let index = RelationIndex::build(rel.store(), &tcols, &dcols);
    let mut drop: Vec<bool> = tuples
        .iter()
        .map(|t| !t.constraints().is_satisfiable())
        .collect();
    for members in index.buckets() {
        for &i in members {
            if drop[i] {
                continue;
            }
            let t = &tuples[i];
            let subsumed = members.iter().any(|&j| {
                if i == j || drop[j] {
                    return false;
                }
                let other = &tuples[j];
                // Break ties so mutually-subsuming duplicates keep one
                // copy: the later index falls to the earlier one.
                let tie_break = j < i;
                (tie_break || !tuple_subsumes(t, other)) && tuple_subsumes(other, t)
            });
            if subsumed {
                // Transitivity keeps this sound under eager marking: if
                // `i` falls to cover `j`, anything `i` covers is also
                // covered by `j` (with a consistent tie-break), and the
                // least member of a duplicate class can never fall.
                drop[i] = true;
            }
        }
    }
    let keep: Vec<usize> = (0..tuples.len()).filter(|&i| !drop[i]).collect();
    *removed += (tuples.len() - keep.len()) as u64;
    if keep.len() == tuples.len() {
        rel.clone()
    } else {
        rel.subset(&keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::GenTuple;
    use crate::value::Value;
    use itd_constraint::Atom;
    use itd_lrp::Lrp;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    fn rel(tuples: Vec<GenTuple>) -> GenRelation {
        GenRelation::new(Schema::new(1, 0), tuples).unwrap()
    }

    #[test]
    fn invariant_holds_and_denotation_is_preserved() {
        // Mix: a subsumed refinement, a full residue group, an unsat tuple.
        let r = rel(vec![
            GenTuple::unconstrained(vec![lrp(0, 4)], vec![]), // ⊆ evens
            GenTuple::unconstrained(vec![lrp(0, 2)], vec![]),
            GenTuple::unconstrained(vec![lrp(1, 2)], vec![]), // with evens: all Z... after coalesce
            GenTuple::builder()
                .lrps(vec![lrp(1, 4)])
                .atoms([Atom::le(0, 0), Atom::ge(0, 5)])
                .build()
                .unwrap(), // unsatisfiable
        ]);
        let (c, rep) = compact_relation(&r).unwrap();
        assert_eq!(
            rep.subsumed + rep.merges + c.tuple_count() as u64,
            r.tuple_count() as u64
        );
        assert_eq!(c.materialize(-12, 12), r.materialize(-12, 12));
        // evens+odds coalesce to Z; the refinement and the unsat tuple go.
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(c.rows_slice()[0].lrps()[0], Lrp::all());
    }

    #[test]
    fn coarser_class_from_coalescing_subsumes_leftovers() {
        // 1+12n, 7+12n coalesce to 1+6n, which then subsumes 7+24n — a
        // drop only the second subsumption pass can see.
        let r = rel(vec![
            GenTuple::unconstrained(vec![lrp(1, 12)], vec![]),
            GenTuple::unconstrained(vec![lrp(7, 12)], vec![]),
            GenTuple::unconstrained(vec![lrp(7, 24)], vec![]),
        ]);
        let (c, rep) = compact_relation(&r).unwrap();
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(c.rows_slice()[0].lrps()[0], lrp(1, 6));
        assert_eq!(rep.merges, 1);
        assert_eq!(rep.subsumed, 1);
        assert_eq!(c.materialize(-40, 40), r.materialize(-40, 40));
    }

    #[test]
    fn incomparable_tuples_survive() {
        let r = rel(vec![
            GenTuple::unconstrained(vec![lrp(0, 4)], vec![]),
            GenTuple::unconstrained(vec![lrp(1, 6)], vec![]),
        ]);
        let (c, rep) = compact_relation(&r).unwrap();
        assert_eq!(c.tuple_count(), 2);
        assert_eq!(rep, CompactReport::default());
        assert_eq!(c.rows_slice(), r.rows_slice());
    }

    #[test]
    fn data_columns_block_subsumption() {
        let r = GenRelation::new(
            Schema::new(1, 1),
            vec![
                GenTuple::unconstrained(vec![lrp(0, 4)], vec![Value::str("a")]),
                GenTuple::unconstrained(vec![lrp(0, 2)], vec![Value::str("b")]),
            ],
        )
        .unwrap();
        let (c, rep) = compact_relation(&r).unwrap();
        assert_eq!(c.tuple_count(), 2);
        assert_eq!(rep.subsumed, 0);
    }

    #[test]
    fn duplicates_keep_exactly_one_copy() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(2, 6)])
            .atoms([Atom::ge(0, -3)])
            .build()
            .unwrap();
        let r = rel(vec![t.clone(), t.clone(), t]);
        let (c, rep) = compact_relation(&r).unwrap();
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(rep.subsumed, 2);
    }

    #[test]
    fn points_are_subsumed_by_their_class() {
        let r = rel(vec![
            GenTuple::unconstrained(vec![Lrp::point(6)], vec![]),
            GenTuple::unconstrained(vec![lrp(0, 2)], vec![]),
        ]);
        let (c, rep) = compact_relation(&r).unwrap();
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(rep.subsumed, 1);
        assert_eq!(c.rows_slice()[0].lrps()[0], lrp(0, 2));
    }

    #[test]
    fn complement_output_shrinks_substantially() {
        // Complement of a sparse constrained relation: many redundant
        // unconstrained extensions; compaction folds them back.
        let r = rel(vec![GenTuple::builder()
            .lrps(vec![lrp(0, 6)])
            .atoms([Atom::ge(0, 0)])
            .build()
            .unwrap()]);
        let comp = r
            .complement_temporal_in(&crate::ExecContext::serial())
            .unwrap();
        let (c, rep) = compact_relation(&comp).unwrap();
        assert!(
            c.tuple_count() < comp.tuple_count(),
            "{} < {}",
            c.tuple_count(),
            comp.tuple_count()
        );
        assert_eq!(
            rep.subsumed + rep.merges + c.tuple_count() as u64,
            comp.tuple_count() as u64
        );
        assert_eq!(c.materialize(-24, 24), comp.materialize(-24, 24));
    }

    #[test]
    fn lone_unsatisfiable_tuple_is_dropped() {
        let r = rel(vec![GenTuple::builder()
            .lrps(vec![lrp(1, 4)])
            .atoms([Atom::le(0, 0), Atom::ge(0, 5)])
            .build()
            .unwrap()]);
        let ctx = crate::ExecContext::serial();
        let c = r.compact_in(&ctx).unwrap();
        assert_eq!(c.tuple_count(), 0);
        let op = *ctx.stats().op(crate::OpKind::Compact);
        assert_eq!((op.tuples_subsumed, op.tuples_out), (1, 0));
    }

    /// The `Compact` counters of `ctx`, wall time scrubbed.
    fn compact_op(ctx: &crate::ExecContext) -> crate::OpSnapshot {
        let mut op = *ctx.stats().op(crate::OpKind::Compact);
        op.nanos = 0;
        op
    }

    /// Classes 0, 1, 2 mod 6 and a refinement of 0 mod 6: compaction drops
    /// the refinement and merges nothing.
    fn three_classes_and_a_refinement() -> GenRelation {
        rel(vec![
            GenTuple::unconstrained(vec![lrp(0, 6)], vec![]),
            GenTuple::unconstrained(vec![lrp(1, 6)], vec![]),
            GenTuple::unconstrained(vec![lrp(0, 12)], vec![]),
            GenTuple::unconstrained(vec![lrp(2, 6)], vec![]),
        ])
    }

    #[test]
    fn memo_hit_shares_the_output_and_replays_counters() {
        let r = three_classes_and_a_refinement();
        let cold_ctx = crate::ExecContext::serial();
        let cold = r.compact_in(&cold_ctx).unwrap();
        let cold_op = compact_op(&cold_ctx);
        assert_eq!(
            (cold_op.calls, cold_op.tuples_in, cold_op.tuples_subsumed),
            (1, 4, 1)
        );
        for threads in [1, 2, 8] {
            let ctx = crate::ExecContext::with_threads(threads);
            let warm = r.clone().compact_in(&ctx).unwrap();
            assert!(std::ptr::eq(warm.store(), cold.store()), "shares the store");
            assert_eq!(compact_op(&ctx), cold_op, "at {threads} threads");
        }
    }

    #[test]
    fn push_clears_the_memo() {
        let completing = GenTuple::unconstrained(vec![lrp(3, 6)], vec![]);
        let ctx = crate::ExecContext::serial();
        let fresh = |r: &GenRelation| {
            let ctx = crate::ExecContext::serial();
            let rebuilt = GenRelation::new(r.schema(), r.rows_slice().to_vec()).unwrap();
            (rebuilt.compact_in(&ctx).unwrap(), compact_op(&ctx))
        };

        // Sole owner: the append happens in place and must clear the memo.
        let mut r = three_classes_and_a_refinement();
        let before = r.compact_in(&ctx).unwrap();
        assert_eq!(r.store_strong_count(), 1, "the append is in place");
        r.push(completing.clone()).unwrap();
        let after_ctx = crate::ExecContext::serial();
        let after = r.compact_in(&after_ctx).unwrap();
        // 0 and 3 mod 6 now complete the family 0 mod 3.
        assert_eq!(compact_op(&after_ctx).coalesce_merges, 1);
        assert_ne!(after, before);
        assert_eq!((after.clone(), compact_op(&after_ctx)), fresh(&r));

        // A copy-on-write clone starts with no memo; the original keeps its.
        let original = three_classes_and_a_refinement();
        let first = original.compact_in(&ctx).unwrap();
        let mut snapshot = original.clone();
        snapshot.push(completing).unwrap();
        let cow_ctx = crate::ExecContext::serial();
        let cow = snapshot.compact_in(&cow_ctx).unwrap();
        assert_eq!((cow, compact_op(&cow_ctx)), fresh(&snapshot));
        let again = original.compact_in(&ctx).unwrap();
        assert!(std::ptr::eq(again.store(), first.store()));
    }

    #[test]
    fn already_compact_keeps_no_self_reference() {
        let r = rel(vec![
            GenTuple::unconstrained(vec![lrp(0, 4)], vec![]),
            GenTuple::unconstrained(vec![lrp(1, 6)], vec![]),
        ]);
        let ctx = crate::ExecContext::serial();
        let count = r.store_strong_count();
        for _ in 0..2 {
            let c = r.compact_in(&ctx).unwrap();
            assert!(std::ptr::eq(c.store(), r.store()), "an O(1) snapshot");
        }
        assert_eq!(r.store_strong_count(), count, "the memo holds no self-Arc");
        assert_eq!(compact_op(&ctx).calls, 2);
    }

    #[test]
    fn empty_and_singleton_are_untouched() {
        let empty = GenRelation::empty(Schema::new(1, 0));
        let (c, rep) = compact_relation(&empty).unwrap();
        assert!(c.has_no_tuples());
        assert_eq!(rep, CompactReport::default());
        let one = rel(vec![GenTuple::unconstrained(vec![lrp(3, 5)], vec![])]);
        let (c, rep) = compact_relation(&one).unwrap();
        assert_eq!(c.rows_slice(), one.rows_slice());
        assert_eq!(rep, CompactReport::default());
    }
}
