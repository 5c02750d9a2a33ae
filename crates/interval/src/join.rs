//! Interval-relation joins and selections on generalized relations.

use itd_constraint::Atom;
use itd_core::{CoreError, ExecContext, GenRelation, Schema};

use crate::relation::AllenRel;
use crate::Result;

/// Joins two interval relations (temporal arity 2 each, any data arity) on
/// an Allen relation: the result contains
/// `(a1, a2, b1, b2, data_r, data_s)` for every pair of denoted intervals
/// with `[a1,a2] REL [b1,b2]`.
///
/// Implemented entirely inside the §3 algebra: cross product, then one
/// temporal selection per endpoint atom. The output is a generalized
/// relation like any other — project it, complement it, query it.
///
/// # Errors
/// [`CoreError::SchemaMismatch`] if either input does not have temporal
/// arity 2; algebra failures.
pub fn allen_join(r: &GenRelation, s: &GenRelation, rel: AllenRel) -> Result<GenRelation> {
    check_interval_schema(r)?;
    check_interval_schema(s)?;
    let ctx = ExecContext::serial();
    let mut out = r.cross_product_in(s, &ctx)?;
    for atom in rel.endpoint_atoms(0, 1, 2, 3) {
        out = out.select_temporal_in(atom, &ctx)?;
    }
    Ok(out)
}

/// Selects the intervals of `r` standing in `rel` to one fixed interval
/// `[b1, b2]`.
///
/// # Errors
/// Schema/algebra failures as in [`allen_join`].
///
/// # Panics
/// If `b1 >= b2` (Allen relations need proper intervals).
pub fn allen_select(r: &GenRelation, rel: AllenRel, b1: i64, b2: i64) -> Result<GenRelation> {
    assert!(b1 < b2, "Allen relations require proper intervals");
    check_interval_schema(r)?;
    // Constrain against constants by re-expressing the endpoint atoms with
    // the fixed interval folded in: build the 4-column atoms, then
    // substitute columns 2 and 3.
    let ctx = ExecContext::serial();
    let mut out = r.clone();
    for atom in rel.endpoint_atoms(0, 1, 2, 3) {
        for substituted in substitute_constants(atom, b1, b2) {
            out = out.select_temporal_in(substituted, &ctx)?;
        }
    }
    Ok(out)
}

/// Restricts an interval relation to its *proper* intervals
/// (`start < end`) — the fragment Allen's algebra speaks about.
///
/// # Errors
/// Schema/algebra failures.
pub fn proper_intervals(r: &GenRelation) -> Result<GenRelation> {
    check_interval_schema(r)?;
    r.select_temporal_in(Atom::diff_le(0, 1, -1), &ExecContext::serial())
}

fn check_interval_schema(r: &GenRelation) -> Result<()> {
    if r.schema().temporal() != 2 {
        return Err(CoreError::SchemaMismatch {
            expected: Schema::new(2, r.schema().data()),
            found: r.schema(),
        });
    }
    Ok(())
}

/// Rewrites an atom over columns {0,1,2,3} into atoms over columns {0,1}
/// with columns 2 → `b1`, 3 → `b2` turned into constants.
fn substitute_constants(atom: Atom, b1: i64, b2: i64) -> Vec<Atom> {
    let val = |col: usize| if col == 2 { b1 } else { b2 };
    match atom {
        Atom::DiffLe { i, j, a } => match (i < 2, j < 2) {
            (true, true) => vec![Atom::diff_le(i, j, a)],
            // Xi ≤ b + a
            (true, false) => vec![Atom::le(i, val(j).saturating_add(a))],
            // b ≤ Xj + a ⇔ Xj ≥ b − a
            (false, true) => vec![Atom::ge(j, val(i).saturating_sub(a))],
            (false, false) => {
                // Constant comparison: true → no constraint, false →
                // contradiction.
                if val(i) <= val(j).saturating_add(a) {
                    vec![]
                } else {
                    vec![Atom::le(0, -1), Atom::ge(0, 0)]
                }
            }
        },
        Atom::DiffEq { i, j, a } => match (i < 2, j < 2) {
            (true, true) => vec![Atom::diff_eq(i, j, a)],
            (true, false) => vec![Atom::eq(i, val(j).saturating_add(a))],
            (false, true) => vec![Atom::eq(j, val(i).saturating_sub(a))],
            (false, false) => {
                if val(i) == val(j).saturating_add(a) {
                    vec![]
                } else {
                    vec![Atom::le(0, -1), Atom::ge(0, 0)]
                }
            }
        },
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_core::{GenTuple, Lrp, Value};

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    /// Periodic maintenance windows [10n, 10n+4] and short probes
    /// [5n+1, 5n+2].
    fn fixtures() -> (GenRelation, GenRelation) {
        let windows = GenRelation::new(
            Schema::new(2, 1),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 10), lrp(4, 10)])
                .atoms([Atom::diff_eq(1, 0, 4)])
                .data(vec![Value::str("window")])
                .build()
                .unwrap()],
        )
        .unwrap();
        let probes = GenRelation::new(
            Schema::new(2, 1),
            vec![GenTuple::builder()
                .lrps(vec![lrp(1, 5), lrp(2, 5)])
                .atoms([Atom::diff_eq(1, 0, 1)])
                .data(vec![Value::str("probe")])
                .build()
                .unwrap()],
        )
        .unwrap();
        (windows, probes)
    }

    #[test]
    fn join_matches_pointwise_semantics() {
        let (w, p) = fixtures();
        for rel in crate::ALL_RELATIONS {
            let joined = allen_join(&w, &p, rel).unwrap();
            for a1 in (0..30).step_by(10) {
                let a2 = a1 + 4;
                for b1 in (1..32).step_by(5) {
                    let b2 = b1 + 1;
                    let expect = rel.holds(a1, a2, b1, b2);
                    let got = joined.contains(
                        &[a1, a2, b1, b2],
                        &[Value::str("window"), Value::str("probe")],
                    );
                    assert_eq!(expect, got, "{rel} at ({a1},{a2})({b1},{b2})");
                }
            }
        }
    }

    #[test]
    fn probes_during_windows() {
        let (w, p) = fixtures();
        // probe [1,2] during window [0,4]; probe [11,12] during [10,14];
        // probe [6,7] falls between windows.
        let during = allen_join(&p, &w, AllenRel::During).unwrap();
        assert!(during.contains(&[1, 2, 0, 4], &[Value::str("probe"), Value::str("window")]));
        assert!(during.contains(
            &[11, 12, 10, 14],
            &[Value::str("probe"), Value::str("window")]
        ));
        assert!(!during.contains(
            &[6, 7, 10, 14],
            &[Value::str("probe"), Value::str("window")]
        ));
        // Projection: the probes that are inside SOME window.
        let covered = during
            .project_in(&[0, 1], &[0], &ExecContext::serial())
            .unwrap();
        assert!(covered.contains(&[21, 22], &[Value::str("probe")]));
        assert!(!covered.contains(&[6, 7], &[Value::str("probe")]));
    }

    #[test]
    fn select_against_fixed_interval() {
        let (w, _) = fixtures();
        // Windows entirely before [17, 25]: [0,4] and [10,14] qualify,
        // [20, 24] does not.
        let before = allen_select(&w, AllenRel::Before, 17, 25).unwrap();
        assert!(before.contains(&[0, 4], &[Value::str("window")]));
        assert!(before.contains(&[10, 14], &[Value::str("window")]));
        assert!(!before.contains(&[20, 24], &[Value::str("window")]));
        // Windows containing [11, 13]: exactly [10, 14].
        let containing = allen_select(&w, AllenRel::Contains, 11, 13).unwrap();
        assert!(containing.contains(&[10, 14], &[Value::str("window")]));
        assert!(!containing.contains(&[0, 4], &[Value::str("window")]));
        assert!(!containing.contains(&[20, 24], &[Value::str("window")]));
    }

    #[test]
    fn select_with_equality_relations() {
        let (w, _) = fixtures();
        let equals = allen_select(&w, AllenRel::Equals, 20, 24).unwrap();
        assert!(equals.contains(&[20, 24], &[Value::str("window")]));
        assert!(!equals.contains(&[10, 14], &[Value::str("window")]));
        let met_by = allen_select(&w, AllenRel::MetBy, 5, 10).unwrap();
        assert!(met_by.contains(&[10, 14], &[Value::str("window")]));
        assert!(!met_by.contains(&[20, 24], &[Value::str("window")]));
    }

    #[test]
    fn proper_interval_filter() {
        let rel = GenRelation::new(
            Schema::new(2, 0),
            vec![
                // Degenerate: start = end.
                GenTuple::builder()
                    .lrps(vec![lrp(0, 5), lrp(0, 5)])
                    .atoms([Atom::diff_eq(0, 1, 0)])
                    .build()
                    .unwrap(),
                GenTuple::builder()
                    .lrps(vec![lrp(0, 5), lrp(2, 5)])
                    .atoms([Atom::diff_eq(1, 0, 2)])
                    .build()
                    .unwrap(),
            ],
        )
        .unwrap();
        let proper = proper_intervals(&rel).unwrap();
        assert!(!proper.contains(&[5, 5], &[]));
        assert!(proper.contains(&[5, 7], &[]));
    }

    #[test]
    fn schema_validation() {
        let bad = GenRelation::empty(Schema::new(1, 0));
        assert!(allen_join(&bad, &bad, AllenRel::Before).is_err());
        assert!(proper_intervals(&bad).is_err());
        assert!(allen_select(&bad, AllenRel::Before, 0, 1).is_err());
    }
}
