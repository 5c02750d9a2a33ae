//! The [`Lrp`] type and its core algebra.

use std::fmt;

use itd_numth::{checked_abs, crt_pair, mod_euclid, Congruence, NumthError, Result};

use crate::iter::LrpAscending;

/// A linear repeating point `{offset + period·n | n ∈ Z}` (Definition 2.1).
///
/// # Examples
/// ```
/// use itd_lrp::Lrp;
/// // The paper's Example 2.1: 3 + 5n.
/// let l = Lrp::new(3, 5).unwrap();
/// assert!(l.contains(-17) && l.contains(23));
/// assert!(!l.contains(0));
/// // Intersection is Chinese remaindering (§3.2.1):
/// let meet = l.intersect(&Lrp::new(0, 2).unwrap()).unwrap().unwrap();
/// assert_eq!((meet.offset(), meet.period()), (8, 10));
/// ```
///
/// Canonical form invariants:
/// * `period >= 0`;
/// * if `period > 0` then `0 <= offset < period` (the set is the residue
///   class `offset mod period`);
/// * if `period == 0` the set is the single point `{offset}`.
///
/// Two `Lrp`s are equal (`==`) iff they denote the same set of integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Lrp {
    offset: i64,
    period: i64,
}

impl Lrp {
    /// Builds the lrp `offset + period·n`, canonicalizing the representation.
    ///
    /// Any `(offset, period)` pair is accepted (negative periods denote the
    /// same set as their absolute value, since `n` ranges over all of `Z`).
    ///
    /// # Errors
    /// [`NumthError::Overflow`] only for `period == i64::MIN`.
    pub fn new(offset: i64, period: i64) -> Result<Self> {
        if period == 0 {
            return Ok(Self { offset, period: 0 });
        }
        let period = checked_abs(period)?;
        Ok(Self {
            offset: mod_euclid(offset, period)?,
            period,
        })
    }

    /// The single point `{value}` (an lrp with period 0).
    #[inline]
    pub fn point(value: i64) -> Self {
        Self {
            offset: value,
            period: 0,
        }
    }

    /// The lrp `0 + 1·n` — all of `Z`.
    #[inline]
    pub fn all() -> Self {
        Self {
            offset: 0,
            period: 1,
        }
    }

    /// Canonical offset: the point itself if finite, else the residue in
    /// `[0, period)`.
    #[inline]
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Canonical period (`0` for a single point, positive otherwise).
    #[inline]
    pub fn period(&self) -> i64 {
        self.period
    }

    /// Is this lrp a single point?
    #[inline]
    pub fn is_point(&self) -> bool {
        self.period == 0
    }

    /// Set membership test.
    #[inline]
    pub fn contains(&self, x: i64) -> bool {
        if self.period == 0 {
            x == self.offset
        } else {
            x.rem_euclid(self.period) == self.offset
        }
    }

    /// Is `self` a superset of `other`?
    pub fn includes(&self, other: &Lrp) -> bool {
        match (self.period, other.period) {
            (0, 0) => self.offset == other.offset,
            (0, _) => false, // a point never includes an infinite progression
            (_, 0) => self.contains(other.offset),
            (k1, k2) => k2 % k1 == 0 && self.contains(other.offset),
        }
    }

    /// Intersection of two lrps (§3.2.1 of the paper).
    ///
    /// For two infinite lrps this is Chinese remaindering: the result is
    /// empty or a single lrp whose period is `lcm(k1, k2)`; the offset is
    /// found through the modular inverse computed by the extended Euclidean
    /// algorithm, exactly as in the paper.
    ///
    /// # Errors
    /// [`NumthError::Overflow`] if `lcm(k1, k2)` overflows `i64`.
    pub fn intersect(&self, other: &Lrp) -> Result<Option<Lrp>> {
        match (self.period, other.period) {
            (0, _) => Ok(other.contains(self.offset).then_some(*self)),
            (_, 0) => Ok(self.contains(other.offset).then_some(*other)),
            _ => {
                let c1 = Congruence::new(self.offset, self.period)?;
                let c2 = Congruence::new(other.offset, other.period)?;
                match crt_pair(c1, c2)? {
                    None => Ok(None),
                    Some(c) => Ok(Some(Lrp::new(c.residue(), c.modulus())?)),
                }
            }
        }
    }

    /// Coarsest common refinement period of a set of lrps: the lcm of the
    /// nonzero periods (`1` if all are points or the set is empty).
    ///
    /// This is the `k` of Theorem 3.2.
    pub fn common_period<'a, I: IntoIterator<Item = &'a Lrp>>(lrps: I) -> Result<i64> {
        itd_numth::lcm_many(lrps.into_iter().map(|l| l.period))
    }

    /// The smallest element `>= bound`, or `None` for a point below `bound`.
    pub fn first_at_least(&self, bound: i64) -> Option<i64> {
        if self.period == 0 {
            return (self.offset >= bound).then_some(self.offset);
        }
        // smallest x ≡ offset (mod period) with x >= bound
        let r = (bound - self.offset).rem_euclid(self.period);
        bound.checked_add((self.period - r) % self.period)
    }

    /// Ascending iterator over elements `>= start`.
    pub fn iter_from(&self, start: i64) -> LrpAscending {
        LrpAscending::new(*self, start)
    }

    /// All elements in the closed window `[lo, hi]`, ascending.
    pub fn in_window(&self, lo: i64, hi: i64) -> Vec<i64> {
        self.iter_from(lo).take_while(|&x| x <= hi).collect()
    }

    /// Applies an integer shift: `{x + delta | x ∈ self}`.
    pub fn shift(&self, delta: i64) -> Result<Lrp> {
        let offset = self.offset.checked_add(delta).ok_or(NumthError::Overflow)?;
        Lrp::new(offset, self.period)
    }
}

impl fmt::Display for Lrp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.period == 0 {
            write!(f, "{}", self.offset)
        } else if self.offset == 0 {
            write!(f, "{}n", self.period)
        } else {
            write!(f, "{} + {}n", self.offset, self.period)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    #[test]
    fn canonical_form() {
        assert_eq!(lrp(3, 5), lrp(8, 5));
        assert_eq!(lrp(3, 5), lrp(-2, 5));
        assert_eq!(lrp(3, -5), lrp(3, 5));
        assert_eq!(lrp(7, 0), Lrp::point(7));
        assert_eq!(lrp(-17, 5).offset(), 3);
    }

    #[test]
    fn paper_example_2_1() {
        // 3 + 5n = {…, -17, -12, 3, 8, 13, 18, 23, …}
        let l = lrp(3, 5);
        for x in [-17, -12, 3, 8, 13, 18, 23] {
            assert!(l.contains(x), "{x}");
        }
        for x in [-16, 0, 1, 2, 4, 5] {
            assert!(!l.contains(x), "{x}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(lrp(3, 5).to_string(), "3 + 5n");
        assert_eq!(lrp(0, 5).to_string(), "5n");
        assert_eq!(Lrp::point(42).to_string(), "42");
    }

    #[test]
    fn includes_cases() {
        assert!(lrp(1, 2).includes(&lrp(1, 4)));
        assert!(lrp(1, 2).includes(&lrp(3, 4)));
        assert!(!lrp(1, 2).includes(&lrp(0, 4)));
        assert!(!lrp(1, 4).includes(&lrp(1, 2)));
        assert!(lrp(1, 2).includes(&Lrp::point(5)));
        assert!(!lrp(1, 2).includes(&Lrp::point(4)));
        assert!(Lrp::point(4).includes(&Lrp::point(4)));
        assert!(!Lrp::point(4).includes(&lrp(0, 2)));
        assert!(Lrp::all().includes(&lrp(17, 123)));
    }

    #[test]
    fn intersect_paper_example_3_1() {
        // (2n+1) ∩ 5n = 10n + 5
        assert_eq!(lrp(1, 2).intersect(&lrp(0, 5)).unwrap(), Some(lrp(5, 10)));
        // (3n−4) ∩ (5n+2) = 15n + 2
        assert_eq!(lrp(-4, 3).intersect(&lrp(2, 5)).unwrap(), Some(lrp(2, 15)));
    }

    #[test]
    fn intersect_with_points() {
        assert_eq!(
            Lrp::point(5).intersect(&lrp(1, 2)).unwrap(),
            Some(Lrp::point(5))
        );
        assert_eq!(Lrp::point(4).intersect(&lrp(1, 2)).unwrap(), None);
        assert_eq!(
            lrp(1, 2).intersect(&Lrp::point(5)).unwrap(),
            Some(Lrp::point(5))
        );
        assert_eq!(
            Lrp::point(5).intersect(&Lrp::point(5)).unwrap(),
            Some(Lrp::point(5))
        );
        assert_eq!(Lrp::point(5).intersect(&Lrp::point(6)).unwrap(), None);
    }

    #[test]
    fn overflow_propagates_like_crt_pair() {
        let big = i64::MAX / 2;
        // Compatible residues but lcm overflows → same error as crt_pair.
        let err = lrp(0, big).intersect(&lrp(0, big - 1)).unwrap_err();
        assert_eq!(err, NumthError::Overflow);
        // Disjoint residues short-circuit before the lcm, like crt_pair:
        // gcd(m1, m2) = 2 separates 0 from 1 although lcm(m1, m2) overflows.
        let (m1, m2) = ((1i64 << 41) + 2, (1i64 << 41) + 6);
        let (c1, c2) = (
            Congruence::new(0, m1).unwrap(),
            Congruence::new(1, m2).unwrap(),
        );
        assert_eq!(crt_pair(c1, c2).unwrap(), None);
        assert_eq!(lrp(0, m1).intersect(&lrp(1, m2)).unwrap(), None);
        assert_eq!(lrp(0, 2).intersect(&lrp(1, 4)).unwrap(), None);
    }

    #[test]
    fn bounds_and_windows() {
        let l = lrp(3, 5);
        assert_eq!(l.first_at_least(4), Some(8));
        assert_eq!(l.first_at_least(8), Some(8));
        assert_eq!(l.first_at_least(-100), Some(-97));
        assert_eq!(l.in_window(0, 20), vec![3, 8, 13, 18]);
        assert_eq!(Lrp::point(5).in_window(0, 10), vec![5]);
        assert_eq!(Lrp::point(5).first_at_least(6), None);
    }

    #[test]
    fn shift_scale_unscale() {
        assert_eq!(lrp(3, 5).shift(2).unwrap(), lrp(5, 5));
    }

    #[test]
    fn common_period_of_mixed_set() {
        let ls = [lrp(1, 4), lrp(0, 6), Lrp::point(3)];
        assert_eq!(Lrp::common_period(ls.iter()).unwrap(), 12);
        assert_eq!(Lrp::common_period([].iter()).unwrap(), 1);
    }

    proptest! {
        #[test]
        fn prop_intersect_matches_membership(
            c1 in -20i64..20, k1 in 0i64..15,
            c2 in -20i64..20, k2 in 0i64..15,
            x in -200i64..200,
        ) {
            let a = Lrp::new(c1, k1).unwrap();
            let b = Lrp::new(c2, k2).unwrap();
            let i = a.intersect(&b).unwrap();
            let expect = a.contains(x) && b.contains(x);
            let got = i.map(|l| l.contains(x)).unwrap_or(false);
            prop_assert_eq!(expect, got);
        }

        #[test]
        fn prop_first_last_consistent(c in -20i64..20, k in 0i64..10, b in -50i64..50) {
            let l = Lrp::new(c, k).unwrap();
            if let Some(f) = l.first_at_least(b) {
                prop_assert!(f >= b && l.contains(f));
                if k > 0 {
                    prop_assert!(!l.contains(f - k) || f - k < b);
                }
            }
        }

    }
}
