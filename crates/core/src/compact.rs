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
//! The pass is deliberately serial: it is near-linear thanks to the
//! bucketing, and a serial pass is trivially bit-identical at any thread
//! budget. Per call, `tuples_subsumed + coalesce_merges + tuples_out ==
//! tuples_in` — the counter invariant the bench report asserts.

use crate::index::RelationIndex;
use crate::relation::{tuple_subsumes, GenRelation};
use crate::tuple::GenTuple;
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
/// result.tuple_count() == rel.tuple_count()` always holds.
pub(crate) fn compact_relation(rel: &GenRelation) -> Result<(GenRelation, CompactReport)> {
    let mut report = CompactReport::default();
    if rel.tuple_count() <= 1 {
        return Ok((rel.clone(), report));
    }
    let kept = subsume(rel, &mut report.subsumed);
    let pruned = GenRelation::new(rel.schema(), kept)?;

    let coalesced = crate::minimize::coalesce(&pruned)?;
    report.merges = (pruned.tuple_count() - coalesced.tuple_count()) as u64;
    if report.merges == 0 {
        // Nothing merged: the first subsumption pass already reached a
        // fixpoint, so a second pass would keep everything.
        return Ok((pruned, report));
    }

    let kept = subsume(&coalesced, &mut report.subsumed);
    let out = GenRelation::new(rel.schema(), kept)?;
    Ok((out, report))
}

/// One subsumption pass. Keeps input order; `removed` is incremented by
/// the number of dropped tuples.
fn subsume(rel: &GenRelation, removed: &mut u64) -> Vec<GenTuple> {
    let tuples = rel.rows_slice();
    let schema = rel.schema();
    let tcols: Vec<usize> = (0..schema.temporal()).collect();
    let dcols: Vec<usize> = (0..schema.data()).collect();
    // Built uncached: compaction outputs are intermediates, so their
    // stores keep no index and the index build/reuse counters stay put.
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
    let mut kept = Vec::with_capacity(tuples.len());
    for (i, t) in tuples.iter().enumerate() {
        if drop[i] {
            *removed += 1;
        } else {
            kept.push(t.clone());
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
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
