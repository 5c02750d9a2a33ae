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
//! Most relations hold no complete group, so [`coalesce`] first looks for
//! one directly on the columnar store, grouping row positions by borrowed
//! keys. Only when a group exists does it copy the tuples and merge; a
//! relation with nothing to merge costs no clone and no interning.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use itd_lrp::Lrp;

use crate::relation::GenRelation;
use crate::store::{RelStore, ValueId};
use crate::tuple::{GenTuple, TemporalPart};
use crate::Result;

/// One row seen as a member of a column-`col` group: rows are equal keys
/// when they agree on everything but the offset at `col` — the other lrps,
/// the period at `col`, the constraint system and the data ids (the key
/// `coalesce_column` builds by cloning, borrowed here from the store).
struct GroupKey<'a> {
    part: &'a TemporalPart,
    data: &'a [Vec<ValueId>],
    col: usize,
    row: usize,
}

impl GroupKey<'_> {
    fn period(&self) -> i64 {
        self.part.lrps[self.col].period()
    }

    fn others(&self) -> (&[Lrp], &[Lrp]) {
        let lrps = &self.part.lrps;
        (&lrps[..self.col], &lrps[self.col + 1..])
    }
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &GroupKey<'_>) -> bool {
        self.period() == other.period()
            && self.others() == other.others()
            && self.data.iter().all(|ids| ids[self.row] == ids[other.row])
            && self.part.cons == other.part.cons
    }
}

impl Eq for GroupKey<'_> {}

impl Hash for GroupKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.period().hash(state);
        self.others().hash(state);
        for ids in self.data {
            ids[self.row].hash(state);
        }
        self.part.cons.hash(state);
    }
}

/// Does some group of `store`'s rows hold a complete residue family on some
/// column? Exactly when this holds does the first `coalesce_column` pass
/// merge: before any merge every member is available, so its search (the
/// same cofactors and residues as here) reaches a complete family unless
/// an earlier one already merged.
fn has_complete_family(store: &RelStore) -> bool {
    let data = store.data_columns();
    (0..store.schema().temporal()).any(|col| {
        let mut groups: HashMap<GroupKey<'_>, Vec<i64>> = HashMap::new();
        for row in 0..store.len() {
            let part = &**store.part(row);
            let l = part.lrps[col];
            if !l.is_point() {
                groups
                    .entry(GroupKey {
                        part,
                        data,
                        col,
                        row,
                    })
                    .or_default()
                    .push(l.offset());
            }
        }
        groups
            .iter()
            .any(|(key, offsets)| holds_complete_family(key.period(), offsets))
    })
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
/// fewer tuples, or `None` when nothing merges.
pub(crate) fn coalesce(rel: &GenRelation) -> Result<Option<GenRelation>> {
    if !has_complete_family(rel.store()) {
        return Ok(None);
    }
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
    debug_assert!(tuples.len() < rel.tuple_count(), "a complete family merges");
    GenRelation::new(rel.schema(), tuples).map(Some)
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
        for l0 in lrp(0, 2).refine_to_period(4).unwrap() {
            for l1 in lrp(1, 3).refine_to_period(6).unwrap() {
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
            let mut classes = lrp(c, g).refine_to_period(g * factor).unwrap();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The columnar family test is exact: it holds iff the first pass
        /// of `coalesce_column` over the columns merges something.
        #[test]
        fn family_test_agrees_with_coalescing(seeds in proptest::collection::vec(seed(), 1..6)) {
            let rows = seeded_rows(&seeds);
            let rel = GenRelation::new(Schema::new(2, 1), rows.clone()).unwrap();
            let mut tuples = rows;
            let merges = (0..2).any(|col| coalesce_column(&mut tuples, col).unwrap());
            prop_assert_eq!(has_complete_family(rel.store()), merges);
            prop_assert_eq!(coalesce(&rel).unwrap().is_some(), merges);
        }
    }
}
