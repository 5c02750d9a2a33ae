//! Linear temporal logic over infinite temporal databases.
//!
//! The paper's introduction takes from concurrent-program verification the
//! concern with infinite, repeating behaviors and observes that
//! *"model-checking is essentially a form of query evaluation on a special
//! type of database"*. This crate makes that remark executable: a
//! point-based LTL dialect (with both unbounded and metric/bounded
//! operators) is compiled to the two-sorted first-order language of §4 and
//! evaluated by the generalized-relation algebra — so `G F p` really
//! quantifies over all of `Z`, not over a finite unrolling.
//!
//! Propositions are unary (temporal arity 1, data arity 0) predicates of a
//! [`itd_query::Catalog`]; time is `Z` (bi-infinite, like the paper's
//! model). Operators:
//!
//! | syntax | semantics at `t` |
//! |---|---|
//! | `Prop(p)` | `p(t)` |
//! | `X φ` | `φ` at `t + 1` |
//! | `F φ` / `G φ` | ∃/∀ `t' ≥ t`: `φ(t')` |
//! | `F_within(d, φ)` / `G_within(d, φ)` | ∃/∀ `t' ∈ [t, t+d]` |
//! | `U(φ, ψ)` | ∃ `t' ≥ t`: `ψ(t')` ∧ ∀ `s ∈ [t, t'−1]`: `φ(s)` |
//! | `P φ` (previously), `O φ` (once), `H φ` (historically) | past mirrors |
//!
//! Entry points: [`Tl::compile`] (to an open formula with one free time
//! variable), [`holds_at`], [`valid`] (all `t`), [`satisfiable`]
//! (some `t`).

mod parse;

pub use parse::{parse, TlParseError};

use itd_query::{Catalog, CmpOp, Formula, QueryError, TemporalTerm};

/// A temporal-logic formula over named unary propositions.
///
/// # Examples
/// ```
/// use itd_core::{GenRelation, GenTuple, Lrp, Schema};
/// use itd_query::MemoryCatalog;
/// use itd_tl::{valid, Tl};
///
/// let mut cat = MemoryCatalog::new();
/// cat.insert("tick", GenRelation::new(
///     Schema::new(1, 0),
///     vec![GenTuple::unconstrained(vec![Lrp::new(0, 4).unwrap()], vec![])],
/// ).unwrap());
/// // Ticks recur forever: G F tick — over all of Z, not a finite prefix.
/// assert!(valid(&cat, &Tl::always(Tl::eventually(Tl::prop("tick")))).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tl {
    /// Atomic proposition `p(t)`.
    Prop(String),
    /// Negation.
    Not(Box<Tl>),
    /// Conjunction.
    And(Box<Tl>, Box<Tl>),
    /// Disjunction.
    Or(Box<Tl>, Box<Tl>),
    /// Implication.
    Implies(Box<Tl>, Box<Tl>),
    /// Next: `φ` at `t + 1`.
    Next(Box<Tl>),
    /// Previously: `φ` at `t − 1`.
    Prev(Box<Tl>),
    /// Eventually (`F φ`): at some `t' ≥ t`.
    Eventually(Box<Tl>),
    /// Always (`G φ`): at every `t' ≥ t`.
    Always(Box<Tl>),
    /// Once (`O φ`): at some `t' ≤ t`.
    Once(Box<Tl>),
    /// Historically (`H φ`): at every `t' ≤ t`.
    Historically(Box<Tl>),
    /// Bounded eventually: at some `t' ∈ [t, t + d]`.
    EventuallyWithin(u32, Box<Tl>),
    /// Bounded always: at every `t' ∈ [t, t + d]`.
    AlwaysWithin(u32, Box<Tl>),
    /// Until: `φ U ψ`.
    Until(Box<Tl>, Box<Tl>),
}

impl Tl {
    /// Atomic proposition.
    pub fn prop(name: impl Into<String>) -> Tl {
        Tl::Prop(name.into())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Tl) -> Tl {
        Tl::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(a: Tl, b: Tl) -> Tl {
        Tl::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    pub fn or(a: Tl, b: Tl) -> Tl {
        Tl::Or(Box::new(a), Box::new(b))
    }

    /// Implication.
    pub fn implies(a: Tl, b: Tl) -> Tl {
        Tl::Implies(Box::new(a), Box::new(b))
    }

    /// `X φ`.
    pub fn next(f: Tl) -> Tl {
        Tl::Next(Box::new(f))
    }

    /// `Y φ` (previous instant).
    pub fn prev(f: Tl) -> Tl {
        Tl::Prev(Box::new(f))
    }

    /// `F φ`.
    pub fn eventually(f: Tl) -> Tl {
        Tl::Eventually(Box::new(f))
    }

    /// `G φ`.
    pub fn always(f: Tl) -> Tl {
        Tl::Always(Box::new(f))
    }

    /// `O φ` (once, in the past).
    pub fn once(f: Tl) -> Tl {
        Tl::Once(Box::new(f))
    }

    /// `H φ` (historically).
    pub fn historically(f: Tl) -> Tl {
        Tl::Historically(Box::new(f))
    }

    /// `F_{≤d} φ`.
    pub fn eventually_within(d: u32, f: Tl) -> Tl {
        Tl::EventuallyWithin(d, Box::new(f))
    }

    /// `G_{≤d} φ`.
    pub fn always_within(d: u32, f: Tl) -> Tl {
        Tl::AlwaysWithin(d, Box::new(f))
    }

    /// `φ U ψ`.
    pub fn until(a: Tl, b: Tl) -> Tl {
        Tl::Until(Box::new(a), Box::new(b))
    }

    /// Compiles to a first-order formula with the single free temporal
    /// variable `var`.
    ///
    /// Quantified time variables are generated fresh (`var`, `var_1`,
    /// `var_1_1`, …) so nesting cannot capture.
    pub fn compile(&self, var: &str) -> Formula {
        let mut counter = 0usize;
        self.compile_inner(var, &mut counter)
    }

    fn compile_inner(&self, t: &str, counter: &mut usize) -> Formula {
        let fresh = |counter: &mut usize| {
            *counter += 1;
            format!("{t}_{counter}")
        };
        let var = |name: &str| TemporalTerm::var(name);
        let cmp = |l: TemporalTerm, op: CmpOp, r: TemporalTerm| Formula::TempCmp {
            left: l,
            op,
            right: r,
        };
        match self {
            Tl::Prop(p) => Formula::Pred {
                name: p.clone(),
                temporal: vec![var(t)],
                data: vec![],
            },
            Tl::Not(f) => Formula::not(f.compile_inner(t, counter)),
            Tl::And(a, b) => Formula::and(a.compile_inner(t, counter), b.compile_inner(t, counter)),
            Tl::Or(a, b) => Formula::or(a.compile_inner(t, counter), b.compile_inner(t, counter)),
            Tl::Implies(a, b) => {
                Formula::implies(a.compile_inner(t, counter), b.compile_inner(t, counter))
            }
            Tl::Next(f) | Tl::Prev(f) => {
                // φ at t ± 1:  ∃u. u = t ± 1 ∧ φ(u)
                let delta = if matches!(self, Tl::Next(_)) { 1 } else { -1 };
                let u = fresh(counter);
                Formula::exists(
                    u.clone(),
                    Formula::and(
                        cmp(var(&u), CmpOp::Eq, TemporalTerm::var_plus(t, delta)),
                        f.compile_inner(&u, counter),
                    ),
                )
            }
            Tl::Eventually(f) | Tl::Once(f) => {
                let future = matches!(self, Tl::Eventually(_));
                let u = fresh(counter);
                let order = if future { CmpOp::Le } else { CmpOp::Ge };
                Formula::exists(
                    u.clone(),
                    Formula::and(cmp(var(t), order, var(&u)), f.compile_inner(&u, counter)),
                )
            }
            Tl::Always(f) | Tl::Historically(f) => {
                let future = matches!(self, Tl::Always(_));
                let u = fresh(counter);
                let order = if future { CmpOp::Le } else { CmpOp::Ge };
                Formula::forall(
                    u.clone(),
                    Formula::implies(cmp(var(t), order, var(&u)), f.compile_inner(&u, counter)),
                )
            }
            Tl::EventuallyWithin(d, f) => {
                let u = fresh(counter);
                Formula::exists(
                    u.clone(),
                    Formula::and(
                        Formula::and(
                            cmp(var(t), CmpOp::Le, var(&u)),
                            cmp(var(&u), CmpOp::Le, TemporalTerm::var_plus(t, i64::from(*d))),
                        ),
                        f.compile_inner(&u, counter),
                    ),
                )
            }
            Tl::AlwaysWithin(d, f) => {
                let u = fresh(counter);
                Formula::forall(
                    u.clone(),
                    Formula::implies(
                        Formula::and(
                            cmp(var(t), CmpOp::Le, var(&u)),
                            cmp(var(&u), CmpOp::Le, TemporalTerm::var_plus(t, i64::from(*d))),
                        ),
                        f.compile_inner(&u, counter),
                    ),
                )
            }
            Tl::Until(a, b) => {
                // ∃u ≥ t: ψ(u) ∧ ∀s: t ≤ s < u → φ(s)
                let u = fresh(counter);
                let s = fresh(counter);
                Formula::exists(
                    u.clone(),
                    Formula::and(
                        Formula::and(
                            cmp(var(t), CmpOp::Le, var(&u)),
                            b.compile_inner(&u, counter),
                        ),
                        Formula::forall(
                            s.clone(),
                            Formula::implies(
                                Formula::and(
                                    cmp(var(t), CmpOp::Le, var(&s)),
                                    cmp(var(&s), CmpOp::Lt, var(&u)),
                                ),
                                a.compile_inner(&s, counter),
                            ),
                        ),
                    ),
                )
            }
        }
    }
}

/// Does the formula hold at the given time point?
///
/// # Errors
/// Unknown propositions, arity mismatches, algebra failures.
pub fn holds_at(catalog: &impl Catalog, f: &Tl, t: i64) -> Result<bool, QueryError> {
    let body = f.compile("t0");
    let closed = Formula::exists(
        "t0",
        Formula::and(
            Formula::TempCmp {
                left: TemporalTerm::var("t0"),
                op: CmpOp::Eq,
                right: TemporalTerm::Const(t),
            },
            body,
        ),
    );
    truth(catalog, &closed)
}

/// Is the formula true at *every* time point (validity over `Z`)?
///
/// # Errors
/// See [`holds_at`].
pub fn valid(catalog: &impl Catalog, f: &Tl) -> Result<bool, QueryError> {
    let closed = Formula::forall("t0", f.compile("t0"));
    truth(catalog, &closed)
}

/// Is the formula true at *some* time point?
///
/// # Errors
/// See [`holds_at`].
pub fn satisfiable(catalog: &impl Catalog, f: &Tl) -> Result<bool, QueryError> {
    let closed = Formula::exists("t0", f.compile("t0"));
    truth(catalog, &closed)
}

/// Evaluates a closed compiled formula through the unified query entry
/// point (the optimizer stays on — TL compilation produces deep
/// conjunction chains that benefit from the rewrites).
fn truth(catalog: &impl Catalog, closed: &Formula) -> Result<bool, QueryError> {
    let ctx = itd_query::ExecContext::new();
    itd_query::run(catalog, closed, itd_query::QueryOpts::new().ctx(&ctx))?.truth_in(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_core::{GenRelation, GenTuple, Lrp, Schema};
    use itd_query::MemoryCatalog;

    fn unary(period: i64, offset: i64) -> GenRelation {
        GenRelation::new(
            Schema::new(1, 0),
            vec![GenTuple::unconstrained(
                vec![Lrp::new(offset, period).unwrap()],
                vec![],
            )],
        )
        .unwrap()
    }

    /// green at 3k, yellow at 3k+1, red at 3k+2 — a periodic traffic light.
    fn light() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.insert("green", unary(3, 0));
        cat.insert("yellow", unary(3, 1));
        cat.insert("red", unary(3, 2));
        cat
    }

    #[test]
    fn atomic_and_boolean() {
        let cat = light();
        assert!(holds_at(&cat, &Tl::prop("green"), 0).unwrap());
        assert!(holds_at(&cat, &Tl::prop("green"), 3_000_000).unwrap());
        assert!(!holds_at(&cat, &Tl::prop("green"), 1).unwrap());
        assert!(holds_at(&cat, &Tl::or(Tl::prop("green"), Tl::prop("yellow")), 1).unwrap());
        assert!(!holds_at(&cat, &Tl::and(Tl::prop("green"), Tl::prop("yellow")), 1).unwrap());
    }

    #[test]
    fn next_and_prev() {
        let cat = light();
        // green → X yellow, everywhere.
        assert!(valid(
            &cat,
            &Tl::implies(Tl::prop("green"), Tl::next(Tl::prop("yellow")))
        )
        .unwrap());
        // green → X red is wrong.
        assert!(!valid(
            &cat,
            &Tl::implies(Tl::prop("green"), Tl::next(Tl::prop("red")))
        )
        .unwrap());
        // yellow → Y green.
        assert!(valid(
            &cat,
            &Tl::implies(Tl::prop("yellow"), Tl::prev(Tl::prop("green")))
        )
        .unwrap());
    }

    #[test]
    fn unbounded_future_and_past() {
        let cat = light();
        // GF green: from every point, green recurs.
        assert!(valid(&cat, &Tl::eventually(Tl::prop("green"))).unwrap());
        // G green is false; F green true at any point.
        assert!(!valid(&cat, &Tl::prop("green")).unwrap());
        assert!(holds_at(&cat, &Tl::eventually(Tl::prop("green")), 17).unwrap());
        // O green (once in the past) also always true on Z.
        assert!(valid(&cat, &Tl::once(Tl::prop("green"))).unwrap());
        // H (green ∨ yellow ∨ red) — the phases cover all time.
        let any = Tl::or(
            Tl::prop("green"),
            Tl::or(Tl::prop("yellow"), Tl::prop("red")),
        );
        assert!(valid(&cat, &Tl::historically(any.clone())).unwrap());
        assert!(valid(&cat, &Tl::always(any)).unwrap());
    }

    #[test]
    fn bounded_operators() {
        let cat = light();
        // Within any window of length 2 starting anywhere, some phase is
        // green... false (period 3, window 3 needed).
        assert!(!valid(&cat, &Tl::eventually_within(1, Tl::prop("green"))).unwrap());
        assert!(valid(&cat, &Tl::eventually_within(2, Tl::prop("green"))).unwrap());
        // G_{≤1} of (not yellow) at a red point: red then green — true.
        assert!(holds_at(&cat, &Tl::always_within(1, Tl::not(Tl::prop("yellow"))), 2).unwrap());
        assert!(!holds_at(&cat, &Tl::always_within(2, Tl::not(Tl::prop("yellow"))), 2).unwrap());
    }

    #[test]
    fn until() {
        let cat = light();
        // At a green point: ¬red U yellow (yellow arrives at +1 with no red
        // before).
        assert!(holds_at(
            &cat,
            &Tl::until(Tl::not(Tl::prop("red")), Tl::prop("yellow")),
            0
        )
        .unwrap());
        // At a yellow point: green U red is false (current instant is not
        // green and red needs one yellow step first... actually U requires
        // φ at every s in [t, t'): s = t itself is yellow, not green —
        // unless t' = t, but red(t) is false at yellow).
        assert!(!holds_at(&cat, &Tl::until(Tl::prop("green"), Tl::prop("red")), 1).unwrap());
        // ψ now satisfies U immediately regardless of φ.
        assert!(holds_at(&cat, &Tl::until(Tl::prop("red"), Tl::prop("yellow")), 1).unwrap());
    }

    #[test]
    fn classic_equivalences_on_this_model() {
        let cat = light();
        let p = Tl::prop("green");
        // ¬F¬p ≡ Gp.
        let lhs = Tl::not(Tl::eventually(Tl::not(p.clone())));
        let rhs = Tl::always(p.clone());
        for t in [-4, 0, 5] {
            assert_eq!(
                holds_at(&cat, &lhs, t).unwrap(),
                holds_at(&cat, &rhs, t).unwrap(),
                "t = {t}"
            );
        }
        // true U p ≡ F p.
        let tru = Tl::or(p.clone(), Tl::not(p.clone()));
        let lhs = Tl::until(tru, p.clone());
        let rhs = Tl::eventually(p);
        for t in [-2, 1, 2] {
            assert_eq!(
                holds_at(&cat, &lhs, t).unwrap(),
                holds_at(&cat, &rhs, t).unwrap(),
                "t = {t}"
            );
        }
    }

    #[test]
    fn bounded_agrees_with_window_semantics() {
        // Brute-force oracle for bounded operators on the light model.
        let cat = light();
        let is_green = |t: i64| t.rem_euclid(3) == 0;
        for t in -5..5 {
            for d in 0..4u32 {
                let expect_f = (t..=t + i64::from(d)).any(is_green);
                let expect_g = (t..=t + i64::from(d)).all(is_green);
                assert_eq!(
                    holds_at(&cat, &Tl::eventually_within(d, Tl::prop("green")), t).unwrap(),
                    expect_f,
                    "F≤{d} at {t}"
                );
                assert_eq!(
                    holds_at(&cat, &Tl::always_within(d, Tl::prop("green")), t).unwrap(),
                    expect_g,
                    "G≤{d} at {t}"
                );
            }
        }
    }

    #[test]
    fn unknown_prop_errors() {
        let cat = light();
        assert!(holds_at(&cat, &Tl::prop("nosuch"), 0).is_err());
    }
}
