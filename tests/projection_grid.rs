//! Figure 2 / Figure 3 / Theorem 3.1: real-valued projection is unsound on
//! lrp grids, and normalization repairs it exactly.

use itd_core::{Atom, ConstraintSystem, ExecContext, GenRelation, GenTuple, Lrp, Schema};

fn lrp(c: i64, k: i64) -> Lrp {
    Lrp::new(c, k).unwrap()
}

/// The paper's Figure 2 tuple.
fn figure_2_tuple() -> GenTuple {
    GenTuple::builder()
        .lrps(vec![lrp(3, 4), lrp(1, 8)])
        .atoms([
            Atom::diff_ge(0, 1, 0).unwrap(),
            Atom::diff_le(0, 1, 5),
            Atom::ge(1, 2),
        ])
        .build()
        .unwrap()
}

/// The *naive* projection the paper warns against: eliminate X2 with
/// real-valued (closure-based) reasoning directly on the unnormalized
/// constraints, keeping the original lrp 4n+3.
fn naive_projection_contains(x1: i64) -> bool {
    let cons = ConstraintSystem::from_atoms(
        2,
        &[
            Atom::diff_ge(0, 1, 0).unwrap(),
            Atom::diff_le(0, 1, 5),
            Atom::ge(1, 2),
        ],
    )
    .unwrap();
    let projected = cons.eliminate(1); // sound over R (and over free Z) only
    lrp(3, 4).contains(x1) && projected.satisfied_by(&[x1])
}

#[test]
fn naive_projection_overapproximates() {
    // The paper lists 3, 7, 15, 23 as false witnesses of the real
    // projection. (3 is actually excluded even naively by X1 ≥ X2 ≥ 2;
    // the others are the instructive ones.)
    for bogus in [7, 15, 23] {
        assert!(
            naive_projection_contains(bogus),
            "naive method should (wrongly) admit {bogus}"
        );
    }
}

#[test]
fn exact_projection_rejects_false_witnesses() {
    let rel = GenRelation::new(Schema::new(2, 0), vec![figure_2_tuple()]).unwrap();
    let p = rel.project_in(&[0], &[], &ExecContext::serial()).unwrap();
    for bogus in [3, 7, 15, 23] {
        assert!(!p.contains(&[bogus], &[]), "{bogus} has no witness");
        // Confirm by brute force that x2 really cannot exist.
        let witness = (-100..200).any(|x2| rel.contains(&[bogus, x2], &[]));
        assert!(!witness);
    }
}

#[test]
fn exact_projection_matches_brute_force_everywhere() {
    let rel = GenRelation::new(Schema::new(2, 0), vec![figure_2_tuple()]).unwrap();
    let p = rel.project_in(&[0], &[], &ExecContext::serial()).unwrap();
    for x1 in -40..80 {
        let brute = (-100..200).any(|x2| rel.contains(&[x1, x2], &[]));
        assert_eq!(p.contains(&[x1], &[]), brute, "x1 = {x1}");
    }
}

#[test]
fn figure_3_grid_alignment() {
    // Normalization step 5 "shifts the constraint lines to go through the
    // repeating points": after normalization all bounds are grid-aligned.
    let norm = figure_2_tuple().normalize().unwrap();
    assert_eq!(norm.len(), 1);
    let t = &norm[0];
    assert!(t.is_normal_form().unwrap());
    // X2 ≥ 2 became X2 ≥ 9 (the smallest grid point satisfying both the
    // bound and the equality chain).
    assert_eq!(t.constraints().lower(1), Some(9));
    // And X1 is pinned to X2 + 2 exactly.
    assert_eq!(t.constraints().diff_bound(0, 1), itd_core::Bound::Finite(2));
}

#[test]
fn projection_of_multi_tuple_relations() {
    // Projection distributes over tuples; mixed periods force per-tuple
    // normalization fan-out.
    let rel = GenRelation::new(
        Schema::new(2, 0),
        vec![
            figure_2_tuple(),
            GenTuple::builder()
                .lrps(vec![lrp(0, 6), lrp(0, 2)])
                .atoms([Atom::diff_eq(0, 1, -2), Atom::le(0, 30)])
                .build()
                .unwrap(),
        ],
    )
    .unwrap();
    let p = rel.project_in(&[1], &[], &ExecContext::serial()).unwrap();
    for x2 in -30..60 {
        let brute = (-100..150).any(|x1| rel.contains(&[x1, x2], &[]));
        assert_eq!(p.contains(&[x2], &[]), brute, "x2 = {x2}");
    }
}

#[test]
fn projecting_out_everything_is_emptiness() {
    let rel = GenRelation::new(Schema::new(2, 0), vec![figure_2_tuple()]).unwrap();
    let zero = rel.project_in(&[], &[], &ExecContext::serial()).unwrap();
    assert!(!zero.denotes_empty().unwrap());
    // An unsatisfiable-on-grid tuple projects to the empty 0-ary relation.
    let ghost = GenRelation::new(
        Schema::new(2, 0),
        vec![GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(0, 2)])
            .atoms([Atom::diff_eq(0, 1, 3)])
            .build()
            .unwrap()],
    )
    .unwrap();
    assert!(ghost
        .project_in(&[], &[], &ExecContext::serial())
        .unwrap()
        .denotes_empty()
        .unwrap());
}
