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
//!
//! Groups are keyed by the row's other lrps, constraint system and data,
//! all borrowed from the input rows, and there is one search. Most
//! relations hold no complete group; then a pass over every column merges
//! nothing, and [`coalesce`] returns `None` having copied no tuple.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use itd_constraint::ConstraintSystem;
use itd_lrp::Lrp;

use crate::relation::GenRelation;
use crate::tuple::GenTuple;
use crate::value::Value;
use crate::Result;

/// One coalescing pass over one column: the tuples with every complete
/// family replaced by its coarser tuple (survivors in order, merged tuples
/// appended), or `None` when nothing merges.
fn coalesce_column(tuples: &[GenTuple], col: usize) -> Result<Option<Vec<GenTuple>>> {
    // Group by everything except the lrp at `col`: the lrps before and
    // after it, the constraints and the data.
    type Key<'a> = (&'a [Lrp], &'a [Lrp], &'a ConstraintSystem, &'a [Value]);
    /// Offset, period and tuple index of one group member.
    type Member = (i64, i64, usize);
    let mut groups: BTreeMap<Key<'_>, Vec<Member>> = BTreeMap::new();
    for (idx, t) in tuples.iter().enumerate() {
        let l = t.lrps()[col];
        if l.is_point() {
            continue;
        }
        let key = (
            &t.lrps()[..col],
            &t.lrps()[col + 1..],
            t.constraints(),
            t.data(),
        );
        groups
            .entry(key)
            .or_default()
            .push((l.offset(), l.period(), idx));
    }

    let mut removed = vec![false; tuples.len()];
    let mut added: Vec<GenTuple> = Vec::new();
    for (_, members) in groups {
        // Only merge among members with one common period.
        let mut by_period: BTreeMap<i64, Vec<(i64, usize)>> = BTreeMap::new();
        for (offset, period, idx) in members {
            by_period.entry(period).or_default().push((offset, idx));
        }
        for (k, offs) in by_period {
            let mut available: BTreeMap<i64, usize> = offs.into_iter().collect();
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
                    if !(0..classes).all(|j| available.contains_key(&(c + j * g))) {
                        continue;
                    }
                    let family: Vec<usize> = (0..classes)
                        .map(|j| available.remove(&(c + j * g)).expect("checked"))
                        .collect();
                    // Build the coarser tuple from the first member.
                    let template = &tuples[family[0]];
                    let mut lrps = template.lrps().to_vec();
                    lrps[col] = Lrp::new(c, g)?;
                    added.push(GenTuple::from_parts(
                        lrps,
                        template.constraints().clone(),
                        template.data().to_vec(),
                    )?);
                    for idx in family {
                        removed[idx] = true;
                    }
                }
            }
        }
    }
    if added.is_empty() {
        return Ok(None);
    }
    let mut out: Vec<GenTuple> = tuples
        .iter()
        .zip(&removed)
        .filter(|(_, &gone)| !gone)
        .map(|(t, _)| t.clone())
        .collect();
    out.extend(added);
    Ok(Some(out))
}

/// Coalesces complete groups of residue classes into coarser tuples, across
/// all columns, to a fixpoint. Returns a semantically equal relation with
/// fewer tuples, or `None` when nothing merges.
pub(crate) fn coalesce(rel: &GenRelation) -> Result<Option<GenRelation>> {
    let mut tuples = Cow::Borrowed(rel.rows_slice());
    loop {
        let mut changed = false;
        for col in 0..rel.schema().temporal() {
            if let Some(merged) = coalesce_column(&tuples, col)? {
                tuples = Cow::Owned(merged);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    match tuples {
        Cow::Borrowed(_) => Ok(None),
        Cow::Owned(tuples) => GenRelation::new(rel.schema(), tuples).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use itd_constraint::Atom;
    use proptest::prelude::*;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    /// The classes of `l` at period `to`, a multiple of its period
    /// (Lemma 3.1), in offset order.
    fn refined(l: Lrp, to: i64) -> Vec<Lrp> {
        let k = l.period();
        (0..to / k).map(|j| lrp(l.offset() + j * k, to)).collect()
    }

    /// `coalesce`'s result on a relation that holds a complete family.
    fn coalesced(rel: &GenRelation) -> GenRelation {
        coalesce(rel).unwrap().expect("a complete family merges")
    }

    #[test]
    fn refine_then_coalesce_roundtrips() {
        let original = GenTuple::builder()
            .lrps(vec![lrp(1, 3)])
            .atoms([Atom::ge(0, 0)])
            .build()
            .unwrap();
        // Refine to period 12 (Lemma 3.1) → 4 tuples.
        let refined: Vec<GenTuple> = refined(lrp(1, 3), 12)
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
        let coalesced = coalesced(&rel);
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
        let c = coalesced(&rel);
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
        assert!(coalesce(&rel).unwrap().is_none());
    }

    #[test]
    fn multi_column_fixpoint() {
        // 2-column: refine column 0 of [2n, 3n+1] into period 4, column 1
        // into period 6 — coalescing must undo both, across passes.
        let mut tuples = Vec::new();
        for l0 in refined(lrp(0, 2), 4) {
            for l1 in refined(lrp(1, 3), 6) {
                tuples.push(GenTuple::unconstrained(vec![l0, l1], vec![]));
            }
        }
        let rel = GenRelation::new(Schema::new(2, 0), tuples).unwrap();
        assert_eq!(rel.tuple_count(), 4);
        let c = coalesced(&rel);
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
        let c = coalesced(&rel);
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
        let c = coalesced(&comp);
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
        // Data values differ; the point is skipped.
        assert!(coalesce(&rel).unwrap().is_none());
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

    /// One seed of a random relation: a base lrp `c + g·n` on one of two
    /// columns, refined by `factor` (Lemma 3.1) with possibly one class
    /// left out, next to a shared other-column lrp (or point), a datum and
    /// a constraint choice.
    type Seed = ((i64, i64), (usize, i64, u8), (i64, i64, u8), u8);

    fn seed() -> impl Strategy<Value = Seed> {
        (
            (0i64..12, 1i64..=6),
            (0usize..2, 1i64..=4, 0u8..2),
            (0i64..6, 0i64..=3, 0u8..2),
            0u8..3,
        )
    }

    fn seeded_rows(seeds: &[Seed]) -> Vec<GenTuple> {
        let mut rows = Vec::new();
        for &((c, g), (col, factor, leave_out), (oc, ok, datum), cons) in seeds {
            let mut classes = refined(lrp(c, g), g * factor);
            if leave_out == 1 && classes.len() > 1 {
                classes.pop();
            }
            let other = if ok == 0 { Lrp::point(oc) } else { lrp(oc, ok) };
            for class in classes {
                let mut lrps = vec![other, other];
                lrps[col] = class;
                let atoms = match cons {
                    0 => vec![],
                    1 => vec![Atom::ge(0, -3)],
                    _ => vec![Atom::diff_le(0, 1, 2)],
                };
                rows.push(
                    GenTuple::builder()
                        .lrps(lrps)
                        .atoms(atoms)
                        .data(vec![crate::Value::Int(i64::from(datum))])
                        .build()
                        .unwrap(),
                );
            }
        }
        rows
    }

    /// Do the offsets (of lrps of period `k`) include every class
    /// `c, c+g, …, c+(k/g−1)·g` of some coarser lrp `c + g·n`?
    fn holds_complete_family(k: i64, offsets: &[i64]) -> bool {
        if offsets.len() < 2 {
            return false;
        }
        let available: BTreeSet<i64> = offsets.iter().copied().collect();
        let most = available.len() as i64;
        (2..=most).filter(|q| k % q == 0).any(|classes| {
            let g = k / classes;
            let residues: BTreeSet<i64> = available.iter().map(|o| o.rem_euclid(g)).collect();
            residues
                .into_iter()
                .any(|c| (0..classes).all(|j| available.contains(&(c + j * g))))
        })
    }

    /// Brute-force oracle: do the rows that agree with some row on
    /// everything but one column's offset hold a complete family there?
    fn has_complete_family(rows: &[GenTuple]) -> bool {
        let cols = rows.first().map_or(0, |t| t.lrps().len());
        (0..cols).any(|col| {
            let others = |t: &GenTuple| {
                let lrps = t.lrps();
                (
                    lrps[col].period(),
                    lrps[..col].to_vec(),
                    lrps[col + 1..].to_vec(),
                    t.constraints().clone(),
                    t.data().to_vec(),
                )
            };
            rows.iter().filter(|t| !t.lrps()[col].is_point()).any(|t| {
                let offsets: Vec<i64> = rows
                    .iter()
                    .filter(|u| others(u) == others(t))
                    .map(|u| u.lrps()[col].offset())
                    .collect();
                holds_complete_family(t.lrps()[col].period(), &offsets)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Coalescing merges exactly when the oracle finds a complete
        /// family, and then leaves none and keeps the denotation.
        #[test]
        fn family_test_agrees_with_coalescing(seeds in proptest::collection::vec(seed(), 1..6)) {
            let rel = GenRelation::new(Schema::new(2, 1), seeded_rows(&seeds)).unwrap();
            match coalesce(&rel).unwrap() {
                None => prop_assert!(!has_complete_family(rel.rows_slice())),
                Some(c) => {
                    prop_assert!(has_complete_family(rel.rows_slice()));
                    prop_assert!(!has_complete_family(c.rows_slice()));
                    prop_assert_eq!(c.materialize(-12, 12), rel.materialize(-12, 12));
                }
            }
        }
    }
}
