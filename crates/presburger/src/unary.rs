//! Unary Presburger predicates (Theorem 2.1).

use itd_core::{ExecContext, GenRelation, GenTuple, Lrp, Schema};
use itd_numth::{div_ceil, div_floor, solve_lin_congruence};

use crate::Result;

/// A basic unary Presburger formula over one integer variable `v`
/// (the four shapes of the proof of Theorem 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryAtom {
    /// `k·v = c`
    Eq {
        /// Coefficient `k`.
        k: i64,
        /// Constant `c`.
        c: i64,
    },
    /// `k·v < c`
    Lt {
        /// Coefficient `k`.
        k: i64,
        /// Constant `c`.
        c: i64,
    },
    /// `k·v > c`
    Gt {
        /// Coefficient `k`.
        k: i64,
        /// Constant `c`.
        c: i64,
    },
    /// `k1·v ≡ c (mod k2)`
    ModEq {
        /// Coefficient `k1`.
        k1: i64,
        /// Modulus `k2` (nonzero).
        k2: i64,
        /// Constant `c`.
        c: i64,
    },
}

impl UnaryAtom {
    /// Direct evaluation at `v`.
    pub fn eval(&self, v: i64) -> bool {
        match *self {
            UnaryAtom::Eq { k, c } => k as i128 * v as i128 == c as i128,
            UnaryAtom::Lt { k, c } => (k as i128 * v as i128) < c as i128,
            UnaryAtom::Gt { k, c } => (k as i128 * v as i128) > c as i128,
            UnaryAtom::ModEq { k1, k2, c } => {
                if k2 == 0 {
                    k1 as i128 * v as i128 == c as i128
                } else {
                    (k1 as i128 * v as i128 - c as i128).rem_euclid(k2.unsigned_abs() as i128) == 0
                }
            }
        }
    }

    /// The Theorem 2.1 translation of one basic formula to a generalized
    /// relation with one temporal attribute and restricted constraints.
    ///
    /// # Errors
    /// Arithmetic overflow.
    pub fn to_relation(&self) -> Result<GenRelation> {
        let schema = Schema::new(1, 0);
        let mut rel = GenRelation::empty(schema);
        match *self {
            // Case 1: k·v = c — the point c/k when integral, else empty.
            UnaryAtom::Eq { k, c } => {
                if k == 0 {
                    if c == 0 {
                        rel.push(GenTuple::unconstrained(vec![Lrp::all()], vec![]))?;
                    }
                } else if c % k == 0 {
                    rel.push(GenTuple::unconstrained(vec![Lrp::point(c / k)], vec![]))?;
                }
            }
            // Case 2: k·v < c ⇔ k·v ≤ c − 1 ⇔ v ≤ ⌊(c−1)/k⌋ (k > 0)
            //                                  v ≥ ⌈(c−1)/k⌉ (k < 0).
            UnaryAtom::Lt { k, c } => {
                let c1 = c.checked_sub(1).ok_or(itd_numth::NumthError::Overflow)?;
                match k.cmp(&0) {
                    std::cmp::Ordering::Greater => rel.push(
                        GenTuple::builder()
                            .lrps(vec![Lrp::all()])
                            .atoms([itd_core::Atom::le(0, div_floor(c1, k)?)])
                            .build()?,
                    )?,
                    std::cmp::Ordering::Less => rel.push(
                        GenTuple::builder()
                            .lrps(vec![Lrp::all()])
                            .atoms([itd_core::Atom::ge(0, div_ceil(c1, k)?)])
                            .build()?,
                    )?,
                    std::cmp::Ordering::Equal => {
                        if 0 < c {
                            rel.push(GenTuple::unconstrained(vec![Lrp::all()], vec![]))?;
                        }
                    }
                }
            }
            // Case 3: symmetric.
            UnaryAtom::Gt { k, c } => {
                let c1 = c.checked_add(1).ok_or(itd_numth::NumthError::Overflow)?;
                match k.cmp(&0) {
                    std::cmp::Ordering::Greater => rel.push(
                        GenTuple::builder()
                            .lrps(vec![Lrp::all()])
                            .atoms([itd_core::Atom::ge(0, div_ceil(c1, k)?)])
                            .build()?,
                    )?,
                    std::cmp::Ordering::Less => rel.push(
                        GenTuple::builder()
                            .lrps(vec![Lrp::all()])
                            .atoms([itd_core::Atom::le(0, div_floor(c1, k)?)])
                            .build()?,
                    )?,
                    std::cmp::Ordering::Equal => {
                        if 0 > c {
                            rel.push(GenTuple::unconstrained(vec![Lrp::all()], vec![]))?;
                        }
                    }
                }
            }
            // Case 4: k1·v ≡ c (mod k2) — a single lrp (the paper's lrp
            // intersection argument, realized as a linear congruence).
            UnaryAtom::ModEq { k1, k2, c } => {
                if k2 == 0 {
                    return UnaryAtom::Eq { k: k1, c }.to_relation();
                }
                if let Some(cong) = solve_lin_congruence(k1, c, k2)? {
                    let lrp = if cong.modulus() == 1 {
                        Lrp::all()
                    } else {
                        Lrp::new(cong.residue(), cong.modulus())?
                    };
                    rel.push(GenTuple::unconstrained(vec![lrp], vec![]))?;
                }
            }
        }
        Ok(rel)
    }
}

/// A quantifier-free unary Presburger formula: boolean combinations of
/// [`UnaryAtom`]s.
///
/// # Examples
/// ```
/// use itd_presburger::{UnaryAtom, UnaryFormula};
/// // "multiples of 3 that are not multiples of 6"
/// let f = UnaryFormula::and(
///     UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 3, c: 0 }),
///     UnaryFormula::not(UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 6, c: 0 })),
/// );
/// let rel = f.to_relation().unwrap(); // Theorem 2.1, constructively
/// assert!(rel.contains(&[9], &[]) && !rel.contains(&[12], &[]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnaryFormula {
    /// A basic formula.
    Atom(UnaryAtom),
    /// Negation.
    Not(Box<UnaryFormula>),
    /// Conjunction.
    And(Box<UnaryFormula>, Box<UnaryFormula>),
    /// Disjunction.
    Or(Box<UnaryFormula>, Box<UnaryFormula>),
}

impl UnaryFormula {
    /// Wraps an atom.
    pub fn atom(a: UnaryAtom) -> UnaryFormula {
        UnaryFormula::Atom(a)
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: UnaryFormula) -> UnaryFormula {
        UnaryFormula::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(a: UnaryFormula, b: UnaryFormula) -> UnaryFormula {
        UnaryFormula::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    pub fn or(a: UnaryFormula, b: UnaryFormula) -> UnaryFormula {
        UnaryFormula::Or(Box::new(a), Box::new(b))
    }

    /// Direct evaluation at `v` (the oracle the translation is tested
    /// against).
    pub fn eval(&self, v: i64) -> bool {
        match self {
            UnaryFormula::Atom(a) => a.eval(v),
            UnaryFormula::Not(f) => !f.eval(v),
            UnaryFormula::And(a, b) => a.eval(v) && b.eval(v),
            UnaryFormula::Or(a, b) => a.eval(v) || b.eval(v),
        }
    }

    /// Theorem 2.1, constructive direction: the equivalent generalized
    /// relation, built through the core algebra (∨ → union, ∧ →
    /// intersection, ¬ → complement).
    ///
    /// # Errors
    /// Arithmetic overflow; complement extension limits for enormous
    /// moduli.
    pub fn to_relation(&self) -> Result<GenRelation> {
        let ctx = ExecContext::serial();
        match self {
            UnaryFormula::Atom(a) => a.to_relation(),
            UnaryFormula::Not(f) => f.to_relation()?.complement_temporal_in(&ctx),
            UnaryFormula::And(a, b) => a.to_relation()?.intersect_in(&b.to_relation()?, &ctx),
            UnaryFormula::Or(a, b) => a.to_relation()?.union_in(&b.to_relation()?, &ctx),
        }
    }

    /// Decides `∃v. φ(v)` — satisfiability over `Z` — by compiling to a
    /// generalized relation and checking nonemptiness (Theorem 3.5). A
    /// complete decision procedure for the quantifier-free unary fragment.
    ///
    /// # Errors
    /// Arithmetic overflow; complement extension limits.
    pub fn satisfiable(&self) -> Result<bool> {
        Ok(!self.to_relation()?.denotes_empty()?)
    }

    /// Decides `∀v. φ(v)` — validity over `Z` — as unsatisfiability of the
    /// negation.
    ///
    /// # Errors
    /// See [`UnaryFormula::satisfiable`].
    pub fn valid(&self) -> Result<bool> {
        Ok(!UnaryFormula::not(self.clone()).satisfiable()?)
    }

    /// Decides whether two formulas denote the same subset of `Z`
    /// (emptiness of the symmetric difference, computed with the actual
    /// §3.3 difference operation).
    ///
    /// # Errors
    /// See [`UnaryFormula::satisfiable`].
    pub fn equivalent(&self, other: &UnaryFormula) -> Result<bool> {
        let a = self.to_relation()?;
        let b = other.to_relation()?;
        Ok(a.difference_in(&b, &ExecContext::serial())?
            .denotes_empty()?
            && b.difference_in(&a, &ExecContext::serial())?
                .denotes_empty()?)
    }

    /// Produces a witness `v` with `φ(v)`, if one exists.
    ///
    /// # Errors
    /// See [`UnaryFormula::satisfiable`].
    pub fn witness(&self) -> Result<Option<i64>> {
        let rel = self.to_relation()?;
        for row in rel.rows() {
            let t = row.to_tuple();
            if t.is_empty()? {
                continue;
            }
            for nt in t.normalize()? {
                let (k, anchors, grid) = itd_core::grid_view(&nt)?;
                if let Some(sol) = grid.solution().map_err(itd_core::CoreError::Numth)? {
                    let v = anchors[0] + k * sol[0];
                    debug_assert!(self.eval(v));
                    return Ok(Some(v));
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check(f: &UnaryFormula, lo: i64, hi: i64) {
        let rel = f.to_relation().unwrap();
        for v in lo..=hi {
            assert_eq!(
                rel.contains(&[v], &[]),
                f.eval(v),
                "{f:?} disagrees at v = {v}"
            );
        }
    }

    #[test]
    fn atom_eq() {
        check(&UnaryFormula::atom(UnaryAtom::Eq { k: 3, c: 9 }), -20, 20);
        check(&UnaryFormula::atom(UnaryAtom::Eq { k: 3, c: 10 }), -20, 20); // empty
        check(&UnaryFormula::atom(UnaryAtom::Eq { k: -2, c: 6 }), -20, 20);
        check(&UnaryFormula::atom(UnaryAtom::Eq { k: 0, c: 0 }), -20, 20); // full
        check(&UnaryFormula::atom(UnaryAtom::Eq { k: 0, c: 5 }), -20, 20); // empty
    }

    #[test]
    fn atom_lt_gt_with_signs() {
        for k in [-3, -1, 1, 2, 3] {
            for c in [-7, -1, 0, 1, 7] {
                check(&UnaryFormula::atom(UnaryAtom::Lt { k, c }), -30, 30);
                check(&UnaryFormula::atom(UnaryAtom::Gt { k, c }), -30, 30);
            }
        }
        check(&UnaryFormula::atom(UnaryAtom::Lt { k: 0, c: 5 }), -5, 5); // full
        check(&UnaryFormula::atom(UnaryAtom::Lt { k: 0, c: -5 }), -5, 5); // empty
        check(&UnaryFormula::atom(UnaryAtom::Gt { k: 0, c: -5 }), -5, 5); // full
    }

    #[test]
    fn atom_modeq() {
        // 2v ≡ 1 (mod 4): no solution (gcd 2 ∤ 1).
        check(
            &UnaryFormula::atom(UnaryAtom::ModEq { k1: 2, k2: 4, c: 1 }),
            -20,
            20,
        );
        // 2v ≡ 2 (mod 4): v odd.
        check(
            &UnaryFormula::atom(UnaryAtom::ModEq { k1: 2, k2: 4, c: 2 }),
            -20,
            20,
        );
        // 3v ≡ 2 (mod 5): v ≡ 4 (mod 5).
        check(
            &UnaryFormula::atom(UnaryAtom::ModEq { k1: 3, k2: 5, c: 2 }),
            -20,
            20,
        );
        // modulus 0 falls back to equality.
        check(
            &UnaryFormula::atom(UnaryAtom::ModEq { k1: 3, k2: 0, c: 9 }),
            -20,
            20,
        );
        // every v: 1·v ≡ 0 (mod 1).
        check(
            &UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 1, c: 0 }),
            -20,
            20,
        );
    }

    #[test]
    fn boolean_combinations_via_algebra() {
        // (v ≡ 0 mod 2) ∧ ¬(v ≡ 0 mod 3) ∨ v > 10
        let f = UnaryFormula::or(
            UnaryFormula::and(
                UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 2, c: 0 }),
                UnaryFormula::not(UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 3, c: 0 })),
            ),
            UnaryFormula::atom(UnaryAtom::Gt { k: 1, c: 10 }),
        );
        check(&f, -30, 30);
    }

    #[test]
    fn double_negation() {
        let f = UnaryFormula::not(UnaryFormula::not(UnaryFormula::atom(UnaryAtom::ModEq {
            k1: 1,
            k2: 3,
            c: 1,
        })));
        check(&f, -15, 15);
    }

    #[test]
    fn negated_bound() {
        let f = UnaryFormula::not(UnaryFormula::atom(UnaryAtom::Lt { k: 2, c: 7 }));
        check(&f, -15, 15);
    }

    #[test]
    fn decision_procedures() {
        // 2v = 7 is unsatisfiable; 2v = 8 has witness 4.
        let f = UnaryFormula::atom(UnaryAtom::Eq { k: 2, c: 7 });
        assert!(!f.satisfiable().unwrap());
        assert_eq!(f.witness().unwrap(), None);
        let f = UnaryFormula::atom(UnaryAtom::Eq { k: 2, c: 8 });
        assert_eq!(f.witness().unwrap(), Some(4));
        // v ≡ 0 (2) ∨ v ≡ 1 (2) is valid; v ≡ 0 (2) is not.
        let even = UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 2, c: 0 });
        let odd = UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 2, c: 1 });
        assert!(UnaryFormula::or(even.clone(), odd.clone()).valid().unwrap());
        assert!(!even.valid().unwrap());
        // ¬odd ≡ even.
        assert!(UnaryFormula::not(odd.clone()).equivalent(&even).unwrap());
        assert!(!odd.equivalent(&even).unwrap());
        // De Morgan as an equivalence over Z.
        let lt = UnaryFormula::atom(UnaryAtom::Lt { k: 1, c: 5 });
        let lhs = UnaryFormula::not(UnaryFormula::and(even.clone(), lt.clone()));
        let rhs = UnaryFormula::or(UnaryFormula::not(even), UnaryFormula::not(lt));
        assert!(lhs.equivalent(&rhs).unwrap());
    }

    proptest! {
        #[test]
        fn prop_witness_satisfies(f in formula_strategy()) {
            match f.witness().unwrap() {
                Some(v) => prop_assert!(f.eval(v), "{:?} at witness {}", f, v),
                None => {
                    // No witness: no value in a generous window satisfies.
                    for v in -60i64..60 {
                        prop_assert!(!f.eval(v), "{:?} claimed unsat but holds at {}", f, v);
                    }
                }
            }
        }
    }

    fn atom_strategy() -> impl Strategy<Value = UnaryAtom> {
        prop_oneof![
            (-5i64..5, -10i64..10).prop_map(|(k, c)| UnaryAtom::Eq { k, c }),
            (-5i64..5, -10i64..10).prop_map(|(k, c)| UnaryAtom::Lt { k, c }),
            (-5i64..5, -10i64..10).prop_map(|(k, c)| UnaryAtom::Gt { k, c }),
            (-5i64..5, 1i64..7, -10i64..10).prop_map(|(k1, k2, c)| UnaryAtom::ModEq { k1, k2, c }),
        ]
    }

    fn formula_strategy() -> impl Strategy<Value = UnaryFormula> {
        let leaf = atom_strategy().prop_map(UnaryFormula::Atom);
        leaf.prop_recursive(3, 8, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(UnaryFormula::not),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| UnaryFormula::and(a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| UnaryFormula::or(a, b)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_translation_agrees_with_eval(f in formula_strategy(), v in -25i64..25) {
            let rel = f.to_relation().unwrap();
            prop_assert_eq!(rel.contains(&[v], &[]), f.eval(v), "{:?} at {}", f, v);
        }
    }
}
