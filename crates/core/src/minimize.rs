//! Relation minimization: coalescing refined residue classes.
//!
//! The paper's union "would in practice also eliminate the redundancies
//! that might appear" (§3.1) but leaves the problem open. Two practical
//! pieces are implemented in this crate:
//!
//! * subsumption pruning, in the compaction pass
//!   ([`crate::GenRelation::compact_in`]);
//! * **coalescing** (this module): the inverse of Lemma 3.1 — when a group
//!   of tuples is identical except for one temporal column whose lrps are
//!   *all* the residue classes `c, c+g, …, c+(k/g−1)·g` of a coarser lrp
//!   `c + g·n`, the group is replaced by the single coarser tuple.
//!   Normalization and complement systematically produce such groups, so
//!   coalescing after them often shrinks relations by the full `k/kᵢ`
//!   refinement factor. The search is bounded by the group, not the
//!   period: a complete group has `k/g` members, so only cofactors `k/g`
//!   up to the member count and only residues some member occupies are
//!   tried — two classes mod `2⁴⁰` cost as little as two classes mod 4.

use std::collections::{BTreeMap, BTreeSet};

use itd_lrp::Lrp;

use crate::relation::GenRelation;
use crate::tuple::GenTuple;
use crate::Result;

/// One coalescing pass over one column; returns `true` if anything merged.
fn coalesce_column(tuples: &mut Vec<GenTuple>, col: usize) -> Result<bool> {
    // Group by everything except the lrp at `col`.
    type Key = (
        Vec<Lrp>,
        itd_constraint::ConstraintSystem,
        Vec<crate::Value>,
    );
    /// Offset, period and tuple index of one group member.
    type Member = (i64, i64, usize);
    let mut groups: BTreeMap<Key, Vec<Member>> = BTreeMap::new();
    for (idx, t) in tuples.iter().enumerate() {
        let l = t.lrps()[col];
        if l.is_point() {
            continue;
        }
        let mut rest = t.lrps().to_vec();
        rest.remove(col);
        let key: Key = (rest, t.constraints().clone(), t.data().to_vec());
        groups
            .entry(key)
            .or_default()
            .push((l.offset(), l.period(), idx));
    }

    let mut to_remove: Vec<usize> = Vec::new();
    let mut to_add: Vec<GenTuple> = Vec::new();
    for (_, members) in groups {
        // Only merge among members with one common period.
        let mut by_period: BTreeMap<i64, Vec<(i64, usize)>> = BTreeMap::new();
        for (offset, period, idx) in members {
            by_period.entry(period).or_default().push((offset, idx));
        }
        for (k, offs) in by_period {
            let mut available: BTreeMap<i64, usize> =
                offs.iter().map(|&(o, idx)| (o, idx)).collect();
            // A complete group `c, c+g, …, c+(k/g−1)·g` has `k/g` members,
            // so only cofactors `k/g` up to the member count can merge;
            // the coarsest `g` (largest cofactor) is tried first.
            let most = available.len() as i64;
            for classes in (2..=most).rev().filter(|q| k % q == 0) {
                let g = k / classes;
                // A group holds its residue `c` itself: only residues
                // some member occupies can complete, in ascending order.
                let residues: BTreeSet<i64> = available.keys().map(|o| o.rem_euclid(g)).collect();
                for c in residues {
                    let wanted: Vec<i64> = (0..classes).map(|j| c + j * g).collect();
                    if wanted.iter().all(|o| available.contains_key(o)) {
                        let mut removed_idxs = Vec::with_capacity(wanted.len());
                        for o in &wanted {
                            removed_idxs.push(available.remove(o).expect("checked"));
                        }
                        // Build the coarser tuple from the first member.
                        let template = &tuples[removed_idxs[0]];
                        let mut lrps = template.lrps().to_vec();
                        lrps[col] = Lrp::new(c, g)?;
                        to_add.push(GenTuple::from_parts(
                            lrps,
                            template.constraints().clone(),
                            template.data().to_vec(),
                        )?);
                        to_remove.extend(removed_idxs);
                    }
                }
            }
        }
    }
    if to_remove.is_empty() {
        return Ok(false);
    }
    to_remove.sort_unstable();
    for idx in to_remove.into_iter().rev() {
        tuples.remove(idx);
    }
    tuples.extend(to_add);
    Ok(true)
}

/// Coalesces complete groups of residue classes into coarser tuples, across
/// all columns, to a fixpoint. Returns a semantically equal relation with
/// at most as many tuples.
pub(crate) fn coalesce(rel: &GenRelation) -> Result<GenRelation> {
    let mut tuples = rel.rows_slice().to_vec();
    let cols = rel.schema().temporal();
    loop {
        let mut changed = false;
        for col in 0..cols {
            changed |= coalesce_column(&mut tuples, col)?;
        }
        if !changed {
            break;
        }
    }
    GenRelation::new(rel.schema(), tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use itd_constraint::Atom;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    #[test]
    fn refine_then_coalesce_roundtrips() {
        let original = GenTuple::builder()
            .lrps(vec![lrp(1, 3)])
            .atoms([Atom::ge(0, 0)])
            .build()
            .unwrap();
        // Refine to period 12 (Lemma 3.1) → 4 tuples.
        let refined: Vec<GenTuple> = lrp(1, 3)
            .refine_to_period(12)
            .unwrap()
            .into_iter()
            .map(|l| {
                GenTuple::builder()
                    .lrps(vec![l])
                    .atoms([Atom::ge(0, 0)])
                    .build()
                    .unwrap()
            })
            .collect();
        let rel = GenRelation::new(Schema::new(1, 0), refined).unwrap();
        let coalesced = coalesce(&rel).unwrap();
        assert_eq!(coalesced.tuple_count(), 1);
        assert_eq!(coalesced.rows_slice()[0], original);
    }

    #[test]
    fn partial_groups_do_not_merge() {
        // Only 3 of the 4 period-12 classes of 1+3n: no merge possible to
        // period 3, but 1+12n and 7+12n merge to 1+6n.
        let rel = GenRelation::new(
            Schema::new(1, 0),
            vec![
                GenTuple::unconstrained(vec![lrp(1, 12)], vec![]),
                GenTuple::unconstrained(vec![lrp(4, 12)], vec![]),
                GenTuple::unconstrained(vec![lrp(7, 12)], vec![]),
            ],
        )
        .unwrap();
        let c = coalesce(&rel).unwrap();
        assert_eq!(c.tuple_count(), 2);
        assert_eq!(c.materialize(-30, 30), rel.materialize(-30, 30));
        assert!(c.rows_slice().iter().any(|t| t.lrps()[0] == lrp(1, 6)));
        assert!(c.rows_slice().iter().any(|t| t.lrps()[0] == lrp(4, 12)));
    }

    #[test]
    fn different_constraints_block_merging() {
        let rel = GenRelation::new(
            Schema::new(1, 0),
            vec![
                GenTuple::builder()
                    .lrps(vec![lrp(0, 2)])
                    .atoms([Atom::ge(0, 0)])
                    .build()
                    .unwrap(),
                GenTuple::builder()
                    .lrps(vec![lrp(1, 2)])
                    .atoms([Atom::ge(0, 5)])
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        let c = coalesce(&rel).unwrap();
        assert_eq!(c.tuple_count(), 2);
    }

    #[test]
    fn multi_column_fixpoint() {
        // 2-column: refine column 0 of [2n, 3n+1] into period 4, column 1
        // into period 6 — coalescing must undo both, across passes.
        let mut tuples = Vec::new();
        for l0 in lrp(0, 2).refine_to_period(4).unwrap() {
            for l1 in lrp(1, 3).refine_to_period(6).unwrap() {
                tuples.push(GenTuple::unconstrained(vec![l0, l1], vec![]));
            }
        }
        let rel = GenRelation::new(Schema::new(2, 0), tuples).unwrap();
        assert_eq!(rel.tuple_count(), 4);
        let c = coalesce(&rel).unwrap();
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(c.rows_slice()[0].lrps(), &[lrp(0, 2), lrp(1, 3)]);
    }

    #[test]
    fn full_cover_collapses_to_z() {
        // All residues mod 3 → 1 + 1·n = Z.
        let rel = GenRelation::new(
            Schema::new(1, 0),
            vec![
                GenTuple::unconstrained(vec![lrp(0, 3)], vec![]),
                GenTuple::unconstrained(vec![lrp(1, 3)], vec![]),
                GenTuple::unconstrained(vec![lrp(2, 3)], vec![]),
            ],
        )
        .unwrap();
        let c = coalesce(&rel).unwrap();
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(c.rows_slice()[0].lrps()[0], Lrp::all());
    }

    #[test]
    fn complement_output_shrinks() {
        // Complement of a sparse relation produces many unconstrained
        // extensions; coalescing collapses them.
        let r = GenRelation::new(
            Schema::new(1, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 6)])
                .atoms([Atom::ge(0, 0)])
                .build()
                .unwrap()],
        )
        .unwrap();
        let comp = r
            .complement_temporal_in(&crate::ExecContext::serial())
            .unwrap();
        let c = coalesce(&comp).unwrap();
        assert!(
            c.tuple_count() < comp.tuple_count(),
            "{} < {}",
            c.tuple_count(),
            comp.tuple_count()
        );
        assert_eq!(c.materialize(-20, 20), comp.materialize(-20, 20));
    }

    #[test]
    fn points_and_data_untouched() {
        let rel = GenRelation::new(
            Schema::new(1, 1),
            vec![
                GenTuple::unconstrained(vec![Lrp::point(3)], vec![crate::Value::str("a")]),
                GenTuple::unconstrained(vec![lrp(0, 2)], vec![crate::Value::str("a")]),
                GenTuple::unconstrained(vec![lrp(1, 2)], vec![crate::Value::str("b")]),
            ],
        )
        .unwrap();
        let c = coalesce(&rel).unwrap();
        assert_eq!(c.tuple_count(), 3); // data values differ; the point is skipped
    }

    #[test]
    fn huge_period_pair_costs_nothing() {
        // Two of the 2^40 residue classes mod 2^40: no complete group, and
        // the search must not visit (or allocate) per residue or class.
        let k = 1i64 << 40;
        let rel = GenRelation::new(
            Schema::new(1, 0),
            vec![
                GenTuple::unconstrained(vec![lrp(0, k)], vec![]),
                GenTuple::unconstrained(vec![lrp(1, k)], vec![]),
            ],
        )
        .unwrap();
        let (c, report) = crate::compact::compact_relation(&rel).unwrap();
        assert_eq!(c.tuple_count(), 2);
        assert_eq!(report.merges, 0);
    }
}
