//! Naive all-pairs reference implementations of the pairwise algebra.
//!
//! Each function is the textbook form of its paper definition — no
//! residue index, no batch pre-filter, no outcome cache — written only
//! against the public API of `itd-core` (`GenRelation::rows`, the per-pair
//! derivations in [`itd_core::ops`], [`GenTuple::is_empty`]). They are the
//! references the production kernels are tested and benchmarked against:
//! the kernel's output must equal the oracle's tuple for tuple, in the same
//! order, at every thread count. The oracles return results only; they
//! record no execution counters.

use itd_core::ops::{difference_tuples, intersect_tuples, join_tuples};
use itd_core::{GenRelation, GenTuple, Result};

fn tuples(r: &GenRelation) -> Vec<GenTuple> {
    r.rows().map(|row| row.to_tuple()).collect()
}

/// Intersection (§3.2): every pair `(t1, t2)` in `left × right`, in
/// row-major order, keeping the nonempty pairwise intersections.
///
/// # Errors
/// Arithmetic failures of the per-pair derivation.
pub fn intersect(left: &GenRelation, right: &GenRelation) -> Result<GenRelation> {
    let rt = tuples(right);
    let mut out = Vec::new();
    for t1 in tuples(left) {
        for t2 in &rt {
            out.extend(intersect_tuples(&t1, t2)?);
        }
    }
    GenRelation::new(left.schema(), out)
}

/// Difference (§3.3): per minuend `t1`, the fold
/// `((t1 − t21) − …) − t2m` over every subtrahend, dropping grid-empty
/// and duplicate members after each step and stopping once nothing is
/// left.
///
/// # Errors
/// Arithmetic failures of the per-pair derivation or emptiness test.
pub fn difference(left: &GenRelation, right: &GenRelation) -> Result<GenRelation> {
    let rt = tuples(right);
    let mut out = Vec::new();
    for t1 in tuples(left) {
        let mut acc = vec![t1];
        for t2 in &rt {
            let mut next: Vec<GenTuple> = Vec::new();
            for t in &acc {
                for d in difference_tuples(t, t2)? {
                    if !d.is_empty()? && !next.contains(&d) {
                        next.push(d);
                    }
                }
            }
            acc = next;
            if acc.is_empty() {
                break;
            }
        }
        out.extend(acc);
    }
    GenRelation::new(left.schema(), out)
}

/// Equi-join (§3.7) on the given `(left, right)` temporal and data column
/// pairs: every pair in `left × right`, in row-major order, keeping the
/// nonempty joined tuples.
///
/// # Errors
/// Arithmetic failures of the per-pair derivation; out-of-range pairs.
pub fn join_on(
    left: &GenRelation,
    right: &GenRelation,
    temporal_pairs: &[(usize, usize)],
    data_pairs: &[(usize, usize)],
) -> Result<GenRelation> {
    let rt = tuples(right);
    let mut out = Vec::new();
    for t1 in tuples(left) {
        for t2 in &rt {
            out.extend(join_tuples(&t1, t2, temporal_pairs, data_pairs)?);
        }
    }
    GenRelation::new(left.schema().concat(&right.schema()), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_core::{Lrp, Schema};

    fn rel(classes: &[(i64, i64)]) -> GenRelation {
        let rows = classes
            .iter()
            .map(|&(c, k)| GenTuple::unconstrained(vec![Lrp::new(c, k).unwrap()], vec![]));
        GenRelation::builder(Schema::new(1, 0))
            .push_rows(rows)
            .build()
            .unwrap()
    }

    #[test]
    fn oracles_match_pointwise_semantics() {
        let a = rel(&[(0, 2), (0, 3)]);
        let b = rel(&[(0, 5), (1, 4)]);
        let (lo, hi) = (-40, 40);
        let (ma, mb) = (a.materialize(lo, hi), b.materialize(lo, hi));
        let i = intersect(&a, &b).unwrap().materialize(lo, hi);
        assert_eq!(i, ma.intersection(&mb).cloned().collect());
        let d = difference(&a, &b).unwrap().materialize(lo, hi);
        assert_eq!(d, ma.difference(&mb).cloned().collect());
        let j = join_on(&a, &b, &[(0, 0)], &[]).unwrap();
        assert_eq!(j.schema(), Schema::new(2, 0));
        for x in lo..=hi {
            assert_eq!(
                j.contains(&[x, x], &[]),
                a.contains(&[x], &[]) && b.contains(&[x], &[])
            );
        }
    }
}
