//! Enumeration iterators over lrps.
//!
//! These power the finite-window "materialization" oracle that tests,
//! examples, and the benchmark correctness checks use to compare symbolic
//! results against brute-force enumeration.

use crate::point::Lrp;

/// Ascending iterator over the elements of an lrp that are `>= start`.
///
/// Terminates when `i64` is exhausted (or immediately, for a point below
/// `start`).
#[derive(Debug, Clone)]
pub struct LrpAscending {
    next: Option<i64>,
    period: i64,
}

impl LrpAscending {
    pub(crate) fn new(lrp: Lrp, start: i64) -> Self {
        Self {
            next: lrp.first_at_least(start),
            period: lrp.period(),
        }
    }
}

impl Iterator for LrpAscending {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        let cur = self.next?;
        self.next = if self.period == 0 {
            None
        } else {
            cur.checked_add(self.period)
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_enumerates() {
        let l = Lrp::new(3, 5).unwrap();
        let v: Vec<i64> = l.iter_from(0).take(4).collect();
        assert_eq!(v, vec![3, 8, 13, 18]);
        let v: Vec<i64> = l.iter_from(3).take(2).collect();
        assert_eq!(v, vec![3, 8]);
        let v: Vec<i64> = l.iter_from(4).take(2).collect();
        assert_eq!(v, vec![8, 13]);
    }

    #[test]
    fn ascending_point() {
        let p = Lrp::point(7);
        assert_eq!(p.iter_from(0).collect::<Vec<_>>(), vec![7]);
        assert_eq!(p.iter_from(8).count(), 0);
    }

    #[test]
    fn ascending_steps_by_period() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(&((-20i64..20), (1i64..9), (-30i64..30)), |(c, k, start)| {
                let l = Lrp::new(c, k).unwrap();
                let up: Vec<i64> = l.iter_from(start).take(5).collect();
                for w in up.windows(2) {
                    prop_assert_eq!(w[1] - w[0], k);
                }
                prop_assert!(up.iter().all(|&x| l.contains(x) && x >= start));
                // A member start is the first element.
                if l.contains(start) {
                    prop_assert_eq!(up[0], start);
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn ascending_stops_at_i64_edge() {
        let l = Lrp::new(i64::MAX, 0).unwrap();
        assert_eq!(l.iter_from(0).collect::<Vec<_>>(), vec![i64::MAX]);
    }
}
