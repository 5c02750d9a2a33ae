//! Normal form and the normalization algorithm (Definition 3.2,
//! Theorem 3.2).
//!
//! A tuple is *in normal form* when one period `k` governs every infinite
//! lrp and all constraint constants are aligned with the attribute offsets
//! modulo `k`. On a normal-form tuple, real-valued (Fourier–Motzkin /
//! DBM-closure) projection is exact over the lrp grid — Theorem 3.1; the
//! tests reproduce Figure 2's counterexample showing it is *not* exact
//! without normalization.
//!
//! Normalization follows the paper's five steps:
//! 1. refine every infinite lrp to the common period `k = lcm(kᵢ)`
//!    (Lemma 3.1: the `k/kᵢ` classes `offset + j·kᵢ`, walked by
//!    [`ResidueWalk`]);
//! 2. take the cross product of the refined classes, copying constraints;
//! 3. substitute the lrp anchors into the constraints (here: the
//!    [`ConstraintSystem::to_grid`] transform);
//! 4. drop combinations with unsatisfiable residue equations (the grid
//!    system detects them as negative cycles);
//! 5. round remaining constants onto the grid (`to_grid`'s floor division,
//!    mapped back by [`ConstraintSystem::from_grid`]).
//!
//! Steps 1–2 are one enumeration, [`ResidueWalk`]: it computes each
//! combination of refined classes when it reaches it and never collects a
//! column's `k/kᵢ` classes. It serves normalization, exact emptiness
//! ([`is_nonempty`], which stops at the first grid-satisfiable combination),
//! the complement's refinement to the database period and tuple
//! difference's surviving classes (`lcm/k₁ − 1` of them, §3.3.1).
//! Normalization, emptiness and difference are bounded by
//! [`DEFAULT_NORMALIZE_LIMIT`] combinations: normalization and difference
//! check the class count before they start, emptiness gives up after that
//! many combinations without a hit, and each ends in
//! [`CoreError::TooManyExtensions`] rather than an unbounded walk.

use itd_constraint::{Atom, ConstraintSystem};
use itd_lrp::Lrp;

use crate::error::CoreError;
use crate::tuple::GenTuple;
use crate::Result;

/// Default ceiling on the refined combinations normalization and exact
/// emptiness may enumerate (`Π k/kᵢ` can explode when periods are
/// unrelated — Appendix A.1).
pub const DEFAULT_NORMALIZE_LIMIT: u64 = 1 << 20;

/// If all infinite lrps share one period, returns it (`1` when every
/// attribute is a point); otherwise `None`.
pub(crate) fn single_period(lrps: &[Lrp]) -> Option<i64> {
    let mut k = None;
    for l in lrps {
        if l.is_point() {
            continue;
        }
        match k {
            None => k = Some(l.period()),
            Some(p) if p == l.period() => {}
            Some(_) => return None,
        }
    }
    Some(k.unwrap_or(1))
}

/// Anchor of each attribute: the canonical offset for an infinite lrp, the
/// value itself for a point.
pub(crate) fn anchors(lrps: &[Lrp]) -> Vec<i64> {
    lrps.iter().map(Lrp::offset).collect()
}

/// The tuple's constraints augmented with `Xi = c` for each point attribute
/// (pinning the grid coordinate of constants so that grid reasoning sees
/// them).
pub(crate) fn augmented_cons(t: &GenTuple) -> Result<ConstraintSystem> {
    let mut cons = t.constraints().clone();
    for (i, l) in t.lrps().iter().enumerate() {
        if l.is_point() {
            cons.add(Atom::eq(i, l.offset()))?;
        }
    }
    Ok(cons)
}

/// Lazy walk over the refined residue classes of a row of lrps at a
/// common period `k` (Lemma 3.1): an infinite column of period `kᵢ` ranges
/// over its `k/kᵢ` classes `offset + j·kᵢ (mod k)`, a point stays itself,
/// and the combinations come in mixed-radix order with the last column
/// fastest. Each class is computed when the counter reaches it, so the
/// walk holds one combination, never a column's classes.
pub(crate) struct ResidueWalk {
    k: i64,
    limit: u64,
    visited: u64,
    /// Per column: the first class, the step between classes (the lrp's
    /// period) and the number of classes (`1` for a point).
    first: Vec<Lrp>,
    radix: Vec<(i64, i64)>,
    idx: Vec<i64>,
    current: Vec<Lrp>,
}

impl ResidueWalk {
    /// A walk of `lrps` at period `k`, a multiple of every infinite
    /// period, that errs instead of visiting more than `limit`
    /// combinations.
    pub(crate) fn new(lrps: &[Lrp], k: i64, limit: u64) -> Result<ResidueWalk> {
        let mut first = Vec::with_capacity(lrps.len());
        let mut radix = Vec::with_capacity(lrps.len());
        for l in lrps {
            if l.is_point() {
                first.push(*l);
                radix.push((0, 1));
            } else {
                debug_assert_eq!(k % l.period(), 0, "k is a common period");
                first.push(Lrp::new(l.offset(), k)?);
                radix.push((l.period(), k / l.period()));
            }
        }
        Ok(ResidueWalk {
            k,
            limit,
            visited: 0,
            idx: vec![0; lrps.len()],
            current: first.clone(),
            first,
            radix,
        })
    }

    /// The number of combinations, `Π k/kᵢ` (saturating).
    pub(crate) fn combos(&self) -> u64 {
        self.radix
            .iter()
            .fold(1, |n, &(_, count)| n.saturating_mul(count as u64))
    }

    /// The error for a walk longer than its limit.
    pub(crate) fn too_many(&self) -> CoreError {
        CoreError::TooManyExtensions {
            period: self.k,
            arity: self.current.len(),
            limit: self.limit,
        }
    }

    /// The next combination, or `None` after the last.
    ///
    /// # Errors
    /// [`CoreError::TooManyExtensions`] in place of combination
    /// `limit + 1`; arithmetic errors.
    pub(crate) fn next(&mut self) -> Result<Option<&[Lrp]>> {
        if self.visited > 0 {
            let mut pos = self.current.len();
            loop {
                if pos == 0 {
                    return Ok(None);
                }
                pos -= 1;
                let (step, count) = self.radix[pos];
                self.idx[pos] += 1;
                if self.idx[pos] < count {
                    self.current[pos] = Lrp::new(self.current[pos].offset() + step, self.k)?;
                    break;
                }
                self.idx[pos] = 0;
                self.current[pos] = self.first[pos];
            }
        }
        if self.visited == self.limit {
            return Err(self.too_many());
        }
        self.visited += 1;
        Ok(Some(&self.current))
    }
}

/// Grid view of a single-period tuple: the common period `k`, the anchor of
/// each attribute, and the constraint system over the grid coordinates
/// `nᵢ` (where `Xᵢ = anchorᵢ + k·nᵢ`; point attributes are pinned to
/// `nᵢ = 0`).
///
/// The grid system reasons over *free* integer variables, so DBM closure,
/// satisfiability, and elimination are all exact on it — this is the form
/// in which projection, difference, and emptiness are computed.
///
/// # Errors
/// [`CoreError::NotSinglePeriod`] if the tuple mixes different periods
/// (normalize first); arithmetic errors from the grid transform.
pub fn grid_view(t: &GenTuple) -> Result<(i64, Vec<i64>, ConstraintSystem)> {
    let Some(k) = single_period(t.lrps()) else {
        return Err(CoreError::NotSinglePeriod);
    };
    let anchors = anchors(t.lrps());
    let grid = augmented_cons(t)?.to_grid(&anchors, k)?;
    Ok((k, anchors, grid))
}

/// Is the tuple in normal form? See [`GenTuple::is_normal_form`].
pub(crate) fn is_normal_form(t: &GenTuple) -> Result<bool> {
    if !t.constraints().is_satisfiable() {
        return Ok(false);
    }
    let Some(k) = single_period(t.lrps()) else {
        return Ok(false);
    };
    let anchors = anchors(t.lrps());
    let aug = augmented_cons(t)?;
    let grid = aug.to_grid(&anchors, k)?;
    if !grid.is_satisfiable() {
        return Ok(false);
    }
    let back = grid.from_grid(&anchors, k)?;
    Ok(back == aug)
}

/// Theorem 3.2 normalization with the default output-size limit.
pub(crate) fn normalize(t: &GenTuple) -> Result<Vec<GenTuple>> {
    normalize_with_limit_report(t, DEFAULT_NORMALIZE_LIMIT).map(|(out, _)| out)
}

/// Exact emptiness with early exit: walks the refined residue combinations
/// and stops at the first satisfiable grid system.
///
/// Equivalent to `!normalize(t)?.is_empty()` but without materializing the
/// cross-product — on nonempty tuples (the common case in difference and
/// query pipelines) this usually returns after the first combination.
///
/// # Errors
/// [`CoreError::TooManyExtensions`] after `limit` combinations without a
/// satisfiable one; arithmetic errors.
pub(crate) fn is_nonempty(t: &GenTuple, limit: u64) -> Result<bool> {
    if !t.constraints().is_satisfiable() {
        return Ok(false);
    }
    let k = Lrp::common_period(t.lrps().iter())?;
    let aug = augmented_cons(t)?;
    let mut walk = ResidueWalk::new(t.lrps(), k, limit)?;
    while let Some(lrps) = walk.next()? {
        if aug.to_grid(&anchors(lrps), k)?.is_satisfiable() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// What one tuple's normalization did, for the executor's counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NormalizeReport {
    /// The common period `k` the tuple was refined to.
    pub period: i64,
    /// Refined residue combinations enumerated (`Π k/kᵢ`).
    pub combos: u64,
    /// Combinations dropped as grid-unsatisfiable (step 4).
    pub dropped: u64,
}

/// Theorem 3.2 normalization with an explicit ceiling on the number of
/// refined combinations, plus a [`NormalizeReport`] of what it did.
///
/// # Errors
/// [`CoreError::TooManyExtensions`] when `Π k/kᵢ > limit`, checked before
/// any combination is built; arithmetic errors from `lcm`/grid transforms.
pub(crate) fn normalize_with_limit_report(
    t: &GenTuple,
    limit: u64,
) -> Result<(Vec<GenTuple>, NormalizeReport)> {
    if !t.constraints().is_satisfiable() {
        return Ok((
            vec![],
            NormalizeReport {
                period: 1,
                combos: 0,
                dropped: 0,
            },
        ));
    }
    let k = Lrp::common_period(t.lrps().iter())?;
    let mut walk = ResidueWalk::new(t.lrps(), k, limit)?;
    let combos = walk.combos();
    if combos > limit {
        return Err(walk.too_many());
    }
    // Per combination: transform the constraints to the grid, discard
    // unsatisfiable residues, and round back.
    let aug = augmented_cons(t)?;
    let mut out = Vec::new();
    while let Some(lrps) = walk.next()? {
        let anchors = anchors(lrps);
        let grid = aug.to_grid(&anchors, k)?;
        if grid.is_satisfiable() {
            let aligned = grid.from_grid(&anchors, k)?;
            out.push(GenTuple::from_parts(
                lrps.to_vec(),
                aligned,
                t.data().to_vec(),
            )?);
        }
    }
    let dropped = combos - out.len() as u64;
    Ok((
        out,
        NormalizeReport {
            period: k,
            combos,
            dropped,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_constraint::Atom;
    use proptest::prelude::*;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    /// Brute-force window membership of a tuple.
    fn member(t: &GenTuple, xs: &[i64]) -> bool {
        t.contains(xs, t.data())
    }

    #[test]
    fn single_period_detection() {
        assert_eq!(single_period(&[lrp(1, 4), lrp(3, 4)]), Some(4));
        assert_eq!(single_period(&[lrp(1, 4), lrp(3, 8)]), None);
        assert_eq!(single_period(&[Lrp::point(5)]), Some(1));
        assert_eq!(single_period(&[]), Some(1));
        assert_eq!(single_period(&[Lrp::point(5), lrp(0, 6)]), Some(6));
    }

    #[test]
    fn paper_example_3_2_normalization() {
        // [4n1+3, 8n2+1] ∧ X1 ≥ X2 ∧ X1 ≤ X2+5 ∧ X2 ≥ 2
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 4), lrp(1, 8)])
            .atoms([
                Atom::diff_ge(0, 1, 0).unwrap(),
                Atom::diff_le(0, 1, 5),
                Atom::ge(1, 2),
            ])
            .build()
            .unwrap();
        let norm = t.normalize().unwrap();
        // The paper's Example 3.2 table lists two normalized tuples, but its
        // second ([8n1+7, 8n2+1] with X1 ≥ X2 + 6 ∧ X1 ≤ X2 − 2) is
        // contradictory — the rounded constraints cannot both hold — so our
        // step-4 satisfiability filter drops it. Only the first survives:
        //   [8n1+3, 8n2+1]  X1 = X2 + 2 ∧ X2 ≥ 9
        assert_eq!(norm.len(), 1, "{norm:?}");
        let first = &norm[0];
        assert!(first.is_normal_form().unwrap(), "{first}");
        assert_eq!(first.lrps()[0], lrp(3, 8));
        assert_eq!(first.lrps()[1], lrp(1, 8));
        assert_eq!(first.constraints().lower(1), Some(9));
        assert_eq!(
            first.constraints().diff_bound(0, 1),
            itd_constraint::Bound::Finite(2)
        );
        assert_eq!(
            first.constraints().diff_bound(1, 0),
            itd_constraint::Bound::Finite(-2)
        );
    }

    #[test]
    fn normalization_preserves_semantics_on_window() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 4), lrp(1, 8)])
            .atoms([
                Atom::diff_ge(0, 1, 0).unwrap(),
                Atom::diff_le(0, 1, 5),
                Atom::ge(1, 2),
            ])
            .build()
            .unwrap();
        let norm = t.normalize().unwrap();
        for x1 in -10..40 {
            for x2 in -10..40 {
                let original = member(&t, &[x1, x2]);
                let normalized = norm.iter().any(|nt| member(nt, &[x1, x2]));
                assert_eq!(original, normalized, "({x1},{x2})");
            }
        }
    }

    #[test]
    fn unsat_tuple_normalizes_to_nothing() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::ge(0, 5), Atom::le(0, 0)])
            .build()
            .unwrap();
        assert!(t.normalize().unwrap().is_empty());
    }

    #[test]
    fn grid_empty_residue_dropped() {
        // X1 = X2 + 1 over two even lrps: no residue combination works.
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(0, 2)])
            .atoms([Atom::diff_eq(0, 1, 1)])
            .build()
            .unwrap();
        assert!(t.normalize().unwrap().is_empty());
    }

    #[test]
    fn points_are_preserved() {
        let t = GenTuple::builder()
            .lrps(vec![Lrp::point(7), lrp(1, 3)])
            .atoms([Atom::diff_ge(1, 0, 0).unwrap()])
            .build()
            .unwrap();
        let norm = t.normalize().unwrap();
        assert_eq!(norm.len(), 1);
        assert!(norm[0].lrps()[0].is_point());
        assert!(norm[0].is_normal_form().unwrap());
        for x2 in 0..20 {
            assert_eq!(member(&t, &[7, x2]), member(&norm[0], &[7, x2]), "{x2}");
        }
    }

    #[test]
    fn limit_guard_triggers() {
        // Periods 3, 5, 7, 11 → lcm 1155; Π k/kᵢ = 385·231·165·105 ≫ 1000.
        let t = GenTuple::unconstrained(vec![lrp(0, 3), lrp(0, 5), lrp(0, 7), lrp(0, 11)], vec![]);
        let err = normalize_with_limit_report(&t, 1000).unwrap_err();
        assert!(matches!(err, CoreError::TooManyExtensions { .. }));
    }

    #[test]
    fn huge_coprime_periods_fail_fast_without_allocating() {
        // lcm(2³¹, 2³¹−1) ≈ 4.6·10¹⁸: refining either attribute would
        // materialize a ~2-billion-element vector, so the guard must fire
        // on the k/kᵢ ratios alone, before any refinement is built.
        let t = GenTuple::unconstrained(vec![lrp(0, 1 << 31), lrp(0, (1 << 31) - 1)], vec![]);
        let err = normalize_with_limit_report(&t, DEFAULT_NORMALIZE_LIMIT).unwrap_err();
        assert!(matches!(err, CoreError::TooManyExtensions { .. }));
        // And an overflowing lcm itself is a typed error, not a panic.
        let t = GenTuple::unconstrained(vec![lrp(0, i64::MAX - 1), lrp(0, i64::MAX - 2)], vec![]);
        assert!(t.normalize().is_err());
    }

    #[test]
    fn emptiness_on_huge_coprime_periods_walks_lazily() {
        // lcm(2³¹, 2³¹−1) ≈ 4.6·10¹⁸ combinations; the first is
        // grid-satisfiable, and the walk never holds a column's classes.
        let t = GenTuple::unconstrained(vec![lrp(0, 1 << 31), lrp(0, (1 << 31) - 1)], vec![]);
        assert_eq!(t.is_empty(), Ok(false));
    }

    #[test]
    fn emptiness_gives_up_after_its_limit() {
        // X1 = X2 + 1 with X1 ≡ 0 (mod 4) and X2 ≡ 0 (mod 6): satisfiable
        // over the reals, empty on every one of the 3·2 refined
        // combinations.
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 4), lrp(0, 6)])
            .atoms([Atom::diff_eq(0, 1, 1)])
            .build()
            .unwrap();
        assert!(matches!(
            is_nonempty(&t, 3),
            Err(CoreError::TooManyExtensions { limit: 3, .. })
        ));
        assert_eq!(is_nonempty(&t, 6), Ok(false));
        assert_eq!(t.is_empty(), Ok(true));
    }

    /// The classes a one-column walk of `l` at period `k` visits.
    fn walk_classes(l: Lrp, k: i64) -> Vec<Lrp> {
        let mut walk = ResidueWalk::new(&[l], k, DEFAULT_NORMALIZE_LIMIT).unwrap();
        let mut classes = Vec::new();
        while let Some(c) = walk.next().unwrap() {
            classes.push(c[0]);
        }
        classes
    }

    #[test]
    fn walk_refines_per_lemma_3_1() {
        // 3 + 2n (canonically 1 + 2n) at period 8 → 1, 3, 5, 7 (+ 8n).
        let classes = walk_classes(lrp(3, 2), 8);
        assert_eq!(classes, vec![lrp(1, 8), lrp(3, 8), lrp(5, 8), lrp(7, 8)]);
        // Union of the refined classes = original, spot-checked on a window.
        for x in -30..30 {
            assert_eq!(
                lrp(3, 2).contains(x),
                classes.iter().any(|c| c.contains(x)),
                "x = {x}"
            );
        }
    }

    #[test]
    fn normalize_walks_last_column_fastest() {
        // k = 6: column 0 refines to 0, 2, 4 (mod 6), column 1 to 0, 3.
        let t = GenTuple::unconstrained(vec![lrp(0, 2), lrp(0, 3)], vec![]);
        let order: Vec<(i64, i64)> = t
            .normalize()
            .unwrap()
            .iter()
            .map(|nt| (nt.lrps()[0].offset(), nt.lrps()[1].offset()))
            .collect();
        assert_eq!(order, [(0, 0), (0, 3), (2, 0), (2, 3), (4, 0), (4, 3)]);
    }

    #[test]
    fn grid_view_requires_single_period() {
        let t = GenTuple::unconstrained(vec![lrp(0, 2), lrp(0, 3)], vec![]);
        assert!(matches!(grid_view(&t), Err(CoreError::NotSinglePeriod)));
        let t = GenTuple::unconstrained(vec![lrp(0, 6), lrp(1, 6)], vec![]);
        let (k, anchors, grid) = grid_view(&t).unwrap();
        assert_eq!(k, 6);
        assert_eq!(anchors, vec![0, 1]);
        assert!(grid.is_unconstrained());
    }

    #[test]
    fn normal_form_detection() {
        // Already normal: same periods, aligned constraint.
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 8), lrp(1, 8)])
            .atoms([Atom::diff_eq(0, 1, 2)])
            .build()
            .unwrap();
        assert!(t.is_normal_form().unwrap());
        // Misaligned bound: X1 ≤ X2 + 5 over the same grid is not aligned
        // (5 is not ≡ 3−1 mod 8).
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 8), lrp(1, 8)])
            .atoms([Atom::diff_le(0, 1, 5)])
            .build()
            .unwrap();
        assert!(!t.is_normal_form().unwrap());
        // Mixed periods are never normal.
        let t = GenTuple::unconstrained(vec![lrp(0, 2), lrp(0, 4)], vec![]);
        assert!(!t.is_normal_form().unwrap());
    }

    #[test]
    fn normalize_count_matches_paper_formula() {
        // Appendix A.1: each tuple becomes Π (k / kᵢ) tuples (before
        // unsatisfiable residues are dropped).
        let t = GenTuple::unconstrained(vec![lrp(0, 2), lrp(1, 3)], vec![]);
        let norm = t.normalize().unwrap();
        // k = 6 → 3 · 2 = 6 combinations, all satisfiable (no constraints).
        assert_eq!(norm.len(), 6);
        for nt in &norm {
            assert!(nt.is_normal_form().unwrap());
        }
    }

    proptest! {
        #[test]
        fn prop_walk_partitions_a_column(c in -20i64..20, k in 1i64..10, mult in 1i64..6, x in -100i64..100) {
            let l = lrp(c, k);
            let classes = walk_classes(l, k * mult);
            prop_assert_eq!(classes.len() as i64, mult);
            let covering = classes.iter().filter(|cl| cl.contains(x)).count();
            prop_assert_eq!(covering, usize::from(l.contains(x)));
        }

        #[test]
        fn prop_normalization_preserves_membership(
            c1 in 0i64..6, k1 in 1i64..5,
            c2 in 0i64..6, k2 in 1i64..5,
            a in -6i64..6,
            lob in -6i64..6,
            x1 in -25i64..25, x2 in -25i64..25,
        ) {
            let t = GenTuple::builder().lrps(vec![lrp(c1, k1), lrp(c2, k2)]).atoms([Atom::diff_le(0, 1, a), Atom::ge(1, lob)]).build().unwrap();
            let norm = t.normalize().unwrap();
            let original = member(&t, &[x1, x2]);
            let via_norm = norm.iter().any(|nt| member(nt, &[x1, x2]));
            prop_assert_eq!(original, via_norm);
            for nt in &norm {
                prop_assert!(nt.is_normal_form().unwrap(), "{} not normal", nt);
            }
        }
    }
}
