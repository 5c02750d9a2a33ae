//! Robustness: no panics on adversarial input; arithmetic overflow
//! surfaces as typed errors, never as wraparound or aborts.

use itd_core::{Atom, CoreError, ExecContext, GenRelation, GenTuple, Lrp, Schema};
use proptest::prelude::*;

proptest! {
    /// The query parser returns Ok or Err on arbitrary input — never
    /// panics.
    #[test]
    fn query_parser_total(src in "\\PC{0,60}") {
        let _ = itd_query::parse(&src);
    }

    /// Same for inputs biased toward the query grammar's alphabet.
    #[test]
    fn query_parser_total_on_grammarish_input(
        src in "[a-z0-9 ().;,+<>=!\"]{0,40}"
    ) {
        let _ = itd_query::parse(&src);
    }

    /// The TL parser is total too.
    #[test]
    fn tl_parser_total(src in "[a-zXYFGOHU!&|()<=0-9 -]{0,40}") {
        let _ = itd_tl::parse(&src);
    }

    /// REPL commands never panic the session.
    #[test]
    fn repl_total(lines in proptest::collection::vec("[a-z0-9 (),;]{0,30}", 1..5)) {
        let mut session = itd_db::repl::ReplSession::new();
        for line in lines {
            let _ = session.execute(&line);
        }
    }
}

#[test]
fn lcm_overflow_is_an_error() {
    // Two huge coprime-ish periods whose lcm exceeds i64.
    let p1 = 3_037_000_499i64; // ≈ √(i64::MAX)
    let p2 = 3_037_000_507i64;
    let t = GenTuple::unconstrained(
        vec![Lrp::new(0, p1).unwrap(), Lrp::new(1, p2).unwrap()],
        vec![],
    );
    match t.normalize() {
        Err(CoreError::Numth(itd_numth::NumthError::Overflow))
        | Err(CoreError::TooManyExtensions { .. }) => {}
        other => panic!("expected overflow/limit error, got {other:?}"),
    }
    // Emptiness takes the same guarded path.
    assert!(t.is_empty().is_err());
}

#[test]
fn refinement_limit_is_an_error_not_oom() {
    // lcm fits in i64 but the cross-product count exceeds the limit.
    let t = GenTuple::unconstrained(
        vec![
            Lrp::new(0, 1_000_003).unwrap(),
            Lrp::new(0, 1_000_033).unwrap(),
        ],
        vec![],
    );
    match t.normalize() {
        Err(CoreError::TooManyExtensions { .. }) => {}
        other => panic!("expected TooManyExtensions, got {other:?}"),
    }
}

/// `p(t) and not q(t)` over `p = {0 + 2³¹·n}` and `q = {0 + (2³¹−1)·n}`:
/// the difference keeps 2³¹ − 2 residue classes at period 2³¹·(2³¹−1),
/// the exponential difference of Table 2. The budget must stop it with a
/// typed error before any class is built — materializing them is a
/// 32 GiB allocation, which aborts the process instead of unwinding.
#[test]
fn negation_at_huge_coprime_periods_is_an_error_not_an_abort() {
    let mut db = itd_db::Database::new();
    for (name, period) in [("p", 1i64 << 31), ("q", (1 << 31) - 1)] {
        db.create_table(name, &["t"], &[]).unwrap();
        db.table_mut(name)
            .unwrap()
            .insert(itd_db::TupleSpec::new().lrp("t", 0, period))
            .unwrap();
    }
    // Optimizer on, the `antijoin` plan computes `p − q`: one column at
    // period 2³¹·(2³¹−1). Off, the complement plan computes `Z − q`: one
    // column at period 2³¹−1. Either difference is over the budget.
    for (optimize, meet_period) in [(true, (1 << 31) * ((1 << 31) - 1)), (false, (1 << 31) - 1)] {
        for threads in [1, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let opts = itd_db::QueryOpts::new().ctx(&ctx).optimize(optimize);
            match db.run("p(t) and not q(t)", opts) {
                Err(itd_db::DbError::Query(itd_query::QueryError::Core(
                    CoreError::TooManyExtensions { period, arity, .. },
                ))) => assert_eq!((period, arity), (meet_period, 1), "optimize {optimize}"),
                other => panic!(
                    "optimize {optimize}, {threads} threads: expected TooManyExtensions, \
                     got {other:?}"
                ),
            }
        }
    }
}

#[test]
fn complement_limit_is_an_error() {
    let r = GenRelation::new(
        Schema::new(3, 0),
        vec![GenTuple::unconstrained(
            vec![
                Lrp::new(0, 1009).unwrap(),
                Lrp::new(0, 1009).unwrap(),
                Lrp::new(0, 1009).unwrap(),
            ],
            vec![],
        )],
    )
    .unwrap();
    match r.complement_temporal_in(&ExecContext::serial()) {
        Err(CoreError::TooManyExtensions { period, arity, .. }) => {
            assert_eq!(period, 1009);
            assert_eq!(arity, 3);
        }
        other => panic!("expected TooManyExtensions, got {other:?}"),
    }
}

#[test]
fn extreme_offsets_stay_exact() {
    // Offsets near the i64 edges: membership and shifting behave, overflow
    // in shifting errors.
    let big = i64::MAX - 10;
    let t = GenTuple::unconstrained(vec![Lrp::point(big)], vec![]);
    assert!(t.contains(&[big], &[]));
    let r = GenRelation::new(Schema::new(1, 0), vec![t]).unwrap();
    assert!(r.shift_temporal_in(0, 5, &ExecContext::serial()).is_ok());
    assert!(matches!(
        r.shift_temporal_in(0, 100, &ExecContext::serial()),
        Err(CoreError::Numth(itd_numth::NumthError::Overflow))
    ));
}

#[test]
fn constraint_constant_extremes() {
    // Bounds near i64 extremes: closure arithmetic must error, not wrap.
    let mut sys = itd_constraint::ConstraintSystem::unconstrained(2);
    sys.add(Atom::le(0, i64::MAX - 1)).unwrap();
    // Combining a near-MAX upper bound with a near-MIN lower bound would
    // need a derived difference beyond i64: closure reports overflow at
    // whichever add makes it derivable.
    let second = sys.add(Atom::ge(1, i64::MIN + 1));
    let third = sys.add(Atom::diff_le(1, 0, 0));
    assert!(
        second.is_err() || third.is_err(),
        "an overflow error must surface instead of wrapping"
    );
}

#[test]
fn deep_query_nesting_does_not_stack_overflow() {
    // 200 nested negations parse and evaluate.
    let mut src = String::new();
    for _ in 0..200 {
        src.push_str("not (");
    }
    src.push_str("even(0)");
    for _ in 0..200 {
        src.push(')');
    }
    let mut cat = itd_query::MemoryCatalog::new();
    cat.insert(
        "even",
        GenRelation::new(
            Schema::new(1, 0),
            vec![GenTuple::unconstrained(
                vec![Lrp::new(0, 2).unwrap()],
                vec![],
            )],
        )
        .unwrap(),
    );
    let f = itd_query::parse(&src).unwrap();
    // even(0) under an even number of negations: true.
    assert!(itd_query::run(&cat, &f, itd_query::QueryOpts::new())
        .unwrap()
        .truth_in(&itd_core::ExecContext::new())
        .unwrap());
}

#[test]
fn materialize_handles_inverted_and_huge_windows_gracefully() {
    let r = GenRelation::new(
        Schema::new(1, 0),
        vec![GenTuple::unconstrained(
            vec![Lrp::new(0, 2).unwrap()],
            vec![],
        )],
    )
    .unwrap();
    assert!(r.materialize(10, -10).is_empty());
    assert_eq!(r.materialize(0, 0).len(), 1);
}
