//! Theorems 2.1 / 2.2 end-to-end: Presburger formulas, their lrp-relation
//! translations, and agreement with direct evaluation — including the
//! paper's own proof-case formulas.

use itd_core::ExecContext;
use itd_presburger::{BinaryAtom, BinaryFormula, UnaryAtom, UnaryFormula};

/// All four unary basic-formula shapes, with the coefficient signs the
/// paper glosses over.
#[test]
fn unary_basic_formulas_paper_cases() {
    // Case 1: k·v = c with c/k ∈ Z and with c/k ∉ Z.
    for (k, c) in [(3, 9), (3, 10), (-3, 9), (1, 0), (5, -10)] {
        let f = UnaryFormula::atom(UnaryAtom::Eq { k, c });
        let r = f.to_relation().unwrap();
        for v in -30..30 {
            assert_eq!(r.contains(&[v], &[]), f.eval(v), "Eq k={k} c={c} v={v}");
        }
    }
    // Cases 2–3: strict comparisons with floor/ceil rounding.
    for (k, c) in [(2, 7), (2, -7), (-2, 7), (3, 0), (-1, 1)] {
        for mk in [
            |k, c| UnaryFormula::atom(UnaryAtom::Lt { k, c }),
            |k, c| UnaryFormula::atom(UnaryAtom::Gt { k, c }),
        ] {
            let f = mk(k, c);
            let r = f.to_relation().unwrap();
            for v in -30..30 {
                assert_eq!(r.contains(&[v], &[]), f.eval(v), "{f:?} v={v}");
            }
        }
    }
    // Case 4: k1·v ≡ c (mod k2) — the lrp-intersection construction.
    for (k1, k2, c) in [(3, 5, 2), (2, 4, 1), (2, 4, 2), (6, 9, 3), (4, 6, 2)] {
        let f = UnaryFormula::atom(UnaryAtom::ModEq { k1, k2, c });
        let r = f.to_relation().unwrap();
        for v in -30..30 {
            assert_eq!(
                r.contains(&[v], &[]),
                f.eval(v),
                "ModEq k1={k1} k2={k2} c={c} v={v}"
            );
        }
    }
}

/// Boolean closure of unary predicates runs through the real §3 algebra:
/// ∧ = intersection, ∨ = union, ¬ = Appendix A.6 complement.
#[test]
fn unary_boolean_closure_via_algebra() {
    let f = UnaryFormula::and(
        UnaryFormula::or(
            UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 6, c: 1 }),
            UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 6, c: 5 }),
        ),
        UnaryFormula::not(UnaryFormula::atom(UnaryAtom::Lt { k: 1, c: -20 })),
    );
    let r = f.to_relation().unwrap();
    for v in -40..40 {
        assert_eq!(r.contains(&[v], &[]), f.eval(v), "v = {v}");
    }
    // "units modulo 6 that are ≥ −20": −19 is 5 mod 6 → in; −25 → out.
    assert!(r.contains(&[-19], &[]));
    assert!(!r.contains(&[-25], &[]));
    assert!(r.contains(&[1_000_001], &[])); // 1000001 ≡ 5 (mod 6)
}

/// The binary proof cases of Theorem 2.2.
#[test]
fn binary_basic_formulas_paper_cases() {
    // k1·v1 = / < / > k2·v2 + c with assorted signs.
    let shapes: Vec<BinaryAtom> = vec![
        BinaryAtom::eq(2, 3, 1),
        BinaryAtom::eq(-2, 3, 0),
        BinaryAtom::lt(1, 2, -3).unwrap(),
        BinaryAtom::lt(-3, -2, 4).unwrap(),
        BinaryAtom::gt(4, 1, 2).unwrap(),
        BinaryAtom::gt(0, 5, 0).unwrap(),
        // k1·v1 ≡ k2·v2 + c (mod k3) — the residue-grid construction.
        BinaryAtom::mod_eq(2, 3, 4, 1),
        BinaryAtom::mod_eq(1, 1, 2, 0),
        BinaryAtom::mod_eq(6, 4, 3, 2),
    ];
    for atom in shapes {
        let f = BinaryFormula::atom(atom);
        let r = f.to_relation().unwrap();
        for v1 in -12..12 {
            for v2 in -12..12 {
                assert_eq!(
                    r.contains(v1, v2),
                    f.eval(v1, v2),
                    "{atom:?} at ({v1},{v2})"
                );
            }
        }
    }
}

/// Deep boolean nesting over binary atoms (negation pushed to atoms).
#[test]
fn binary_nested_negations() {
    let f = BinaryFormula::not(BinaryFormula::or(
        BinaryFormula::and(
            BinaryFormula::atom(BinaryAtom::lt(2, 1, 0).unwrap()),
            BinaryFormula::not(BinaryFormula::atom(BinaryAtom::mod_eq(1, 1, 3, 0))),
        ),
        BinaryFormula::not(BinaryFormula::atom(BinaryAtom::gt(1, -1, 2).unwrap())),
    ));
    let r = f.to_relation().unwrap();
    for v1 in -9..9 {
        for v2 in -9..9 {
            assert_eq!(r.contains(v1, v2), f.eval(v1, v2), "({v1},{v2})");
        }
    }
}

/// The unary fragment round-trips through the core algebra and stays
/// closed: intersecting two compiled predicates equals compiling the
/// conjunction.
#[test]
fn compilation_is_homomorphic() {
    let a = UnaryFormula::atom(UnaryAtom::ModEq { k1: 1, k2: 4, c: 1 });
    let b = UnaryFormula::atom(UnaryAtom::Gt { k: 2, c: 5 });
    let compiled_conj = UnaryFormula::and(a.clone(), b.clone())
        .to_relation()
        .unwrap();
    let conj_compiled = a
        .to_relation()
        .unwrap()
        .intersect_in(&b.to_relation().unwrap(), &ExecContext::serial())
        .unwrap();
    for v in -20..40 {
        assert_eq!(
            compiled_conj.contains(&[v], &[]),
            conj_compiled.contains(&[v], &[]),
            "v = {v}"
        );
    }
}

/// Weak-lrp vs general-lrp boundary: non-unit binary comparisons do not
/// downgrade to restricted constraints; congruences do.
#[test]
fn restricted_versus_general_boundary() {
    let halfplane = BinaryFormula::atom(BinaryAtom::lt(2, 3, 0).unwrap());
    assert!(halfplane
        .to_relation()
        .unwrap()
        .to_core_relation()
        .unwrap()
        .is_none());
    let unit = BinaryFormula::atom(BinaryAtom::lt(1, 1, 5).unwrap());
    assert!(unit
        .to_relation()
        .unwrap()
        .to_core_relation()
        .unwrap()
        .is_some());
    let cong = BinaryFormula::atom(BinaryAtom::mod_eq(2, 3, 5, 1));
    let core = cong
        .to_relation()
        .unwrap()
        .to_core_relation()
        .unwrap()
        .expect("congruences are residue-pair unions");
    for v1 in -10..10 {
        for v2 in -10..10 {
            assert_eq!(
                core.contains(&[v1, v2], &[]),
                (2 * v1 - 3 * v2 - 1).rem_euclid(5) == 0,
                "({v1},{v2})"
            );
        }
    }
}
