//! Projection (§3.4) — the operation that makes normalization necessary.

use itd_constraint::{Atom, Bound, ConstraintSystem};

use crate::normalize::{GridWalk, DEFAULT_NORMALIZE_LIMIT};
use crate::tuple::GenTuple;
use crate::Result;

/// Union-find over temporal columns, linked by difference atoms.
struct Components {
    parent: Vec<usize>,
}

impl Components {
    fn new(n: usize) -> Self {
        Components {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// The columns in the component of some seed, ascending.
    fn touching(&mut self, seeds: &[usize]) -> Vec<usize> {
        let roots: Vec<usize> = seeds.iter().map(|&s| self.find(s)).collect();
        let mut out = Vec::new();
        for c in 0..self.parent.len() {
            if roots.contains(&self.find(c)) {
                out.push(c);
            }
        }
        out
    }
}

/// The constraint-graph components of a minimal generating atom set
/// ([`ConstraintSystem::reduced_atoms`]): columns linked by a kept
/// difference atom.
fn reduced_atom_components(cons: &ConstraintSystem) -> Result<Components> {
    let mut uf = Components::new(cons.arity());
    for atom in cons.reduced_atoms()? {
        if let Atom::DiffLe { i, j, .. } | Atom::DiffEq { i, j, .. } = atom {
            uf.union(i, j);
        }
    }
    Ok(uf)
}

/// The columns that must be normalized to eliminate the seed columns
/// exactly: the union of the constraint-graph components that touch a
/// seed, over the minimal generating atom set of
/// [`ConstraintSystem::reduced_atoms`].
///
/// This is the paper's §3.4 remark — "only column i and columns sharing a
/// constraint with column i have to be normalized" — extended transitively.
///
/// The components are read off the closed matrix `d` when two bounds
/// agree, because `reduced_atoms` re-closes the system once per atom:
/// * *Lower bound*: `i` and `j` are linked when `d(i,j)` is finite and
///   strictly shorter than the path through the origin,
///   `upper(i) − lower(j)` (or that path is infinite). Every generating atom set, the greedy
///   `reduced_atoms` included, then derives `d(i,j)` along a path of
///   difference atoms, which links `i` and `j` through columns.
/// * *Upper bound*: `i` and `j` are linked by any finite `d(i,j)`, since
///   every atom of `reduced_atoms` is a finite entry of the closed matrix.
///   (These components alone over-couple: every two bounded columns have
///   a finite entry.)
///
/// When both give the seeds the same columns, so does `reduced_atoms`.
/// Otherwise — a tie with the path through the origin, where the greedy
/// reduction decides which atom survives, or an unsatisfiable system — the
/// components come from `reduced_atoms` itself.
fn columns_needing_normalization(t: &GenTuple, seeds: &[usize]) -> Result<Vec<usize>> {
    let cons = t.constraints();
    match components_from_closure(cons, seeds) {
        Some(needed) => Ok(needed),
        None => Ok(reduced_atom_components(cons)?.touching(seeds)),
    }
}

/// The seeds' columns under the two closed-matrix bounds of
/// [`columns_needing_normalization`], or `None` when the bounds disagree
/// or the system is unsatisfiable.
fn components_from_closure(cons: &ConstraintSystem, seeds: &[usize]) -> Option<Vec<usize>> {
    if !cons.is_satisfiable() {
        return None;
    }
    let m = cons.arity();
    let (mut lower, mut upper) = (Components::new(m), Components::new(m));
    for i in 0..m {
        let up = cons.upper(i).finite();
        for j in (0..m).filter(|&j| j != i) {
            let Bound::Finite(d) = cons.diff_bound(i, j) else {
                continue;
            };
            upper.union(i, j);
            let via_origin = up
                .zip(cons.lower(j))
                .map(|(u, l)| i128::from(u) - i128::from(l));
            if via_origin.is_none_or(|o| i128::from(d) < o) {
                lower.union(i, j);
            }
        }
    }
    let needed = lower.touching(seeds);
    (needed == upper.touching(seeds)).then_some(needed)
}

/// Projects a tuple onto the given temporal and data columns (in the listed
/// order, which may permute).
///
/// Per §3.4, naive variable elimination over the reals is **unsound** on lrp
/// grids (Figure 2: real projection of `[4n₁+3, 8n₂+1]` with
/// `X₁ ≥ X₂ ∧ X₁ ≤ X₂+5 ∧ X₂ ≥ 2` contains 3, 7, 15, … which have no
/// witnesses). So: normalize first (Theorem 3.2), then eliminate in grid
/// coordinates, where closure-based elimination is exact (Theorem 3.1).
///
/// Following the paper's own §3.4 remark, normalization is **partial**:
/// only the constraint-graph component(s) of the eliminated columns are
/// refined; unrelated columns pass through untouched. This bounds the
/// `Π k/kᵢ` fan-out to the columns that actually need it. Use
/// [`project_tuple_full`] to force whole-tuple normalization (the ablation
/// benchmark compares the two).
///
/// The work done depends on what is dropped; all three paths return the
/// same tuples in the same order:
/// * **Nothing dropped** (a permutation, or a data-only projection): no
///   column needs normalization, so the constraint graph is not examined
///   and the matrix is only permuted.
/// * **Join duplicates.** A dropped column is a *twin* of a kept one when
///   the closed matrix pins the two equal and their lrps are identical —
///   exactly the column pairs [`crate::ops::join_tuples`] builds (a column
///   its bounds pin to one value never counts as a twin). When
///   every dropped column has a twin, the twins are eliminated by
///   substitution (restricting the closed matrix is exact, since each
///   solution extends by copying the twin's value), and the component
///   logic runs on the smaller tuple, seeded with the twins' kept columns.
///   That second step must not be skipped: the substituted bounds can sit
///   off the grid (`[2n]` with `X₁ ≥ 3` where the normal form says
///   `X₁ ≥ 4`), and an off-grid bound is a different interned part for
///   every constant, which defeats the part arenas and the pairwise
///   outcome cache downstream. Only the twins' component is renormalized,
///   as the general path would: a kept column outside it stays as it was.
/// * **General**: normalize the components of the dropped columns and
///   eliminate them on the grid.
///
/// One input tuple can project to several output tuples (one per normal
/// form component).
///
/// # Errors
/// Arithmetic overflow during normalization.
///
/// # Panics
/// If an index is out of range or repeated.
pub fn project_tuple(
    t: &GenTuple,
    temporal_keep: &[usize],
    data_keep: &[usize],
) -> Result<Vec<GenTuple>> {
    let m = t.lrps().len();
    let dropped: Vec<usize> = (0..m).filter(|c| !temporal_keep.contains(c)).collect();
    if dropped.is_empty() {
        return project_components(t, temporal_keep, data_keep, &[]);
    }
    let Some(twins) = twins(t, temporal_keep, &dropped) else {
        return project_components(t, temporal_keep, data_keep, &dropped);
    };
    // Substitute: keep the kept columns in the input's column order, so the
    // normalization below enumerates residue combinations in the order
    // the general path would.
    let mut kept = temporal_keep.to_vec();
    kept.sort_unstable();
    let at = |c: usize| kept.binary_search(&c).expect("kept column");
    let s = GenTuple::from_parts(
        kept.iter().map(|&c| t.lrps()[c]).collect(),
        t.constraints().project_onto(&kept),
        data_keep.iter().map(|&i| t.data()[i].clone()).collect(),
    )?;
    let keep: Vec<usize> = temporal_keep.iter().map(|&c| at(c)).collect();
    let seeds: Vec<usize> = twins.into_iter().map(at).collect();
    let identity_data: Vec<usize> = (0..data_keep.len()).collect();
    project_components(&s, &keep, &identity_data, &seeds)
}

/// The kept twin of every dropped column (see [`project_tuple`]), or
/// `None` when some dropped column has none.
///
/// A column pinned to one value by its bounds has no twin: its equality to
/// another column is implied through the origin, so the general path
/// treats it as a component of its own — one that can empty the tuple or
/// raise the common period its component is normalized to — and
/// substitution would skip that.
fn twins(t: &GenTuple, temporal_keep: &[usize], dropped: &[usize]) -> Option<Vec<usize>> {
    let (lrps, cons) = (t.lrps(), t.constraints());
    dropped
        .iter()
        .map(|&d| {
            if pinned(cons, d) {
                return None;
            }
            temporal_keep.iter().copied().find(|&c| {
                lrps[c] == lrps[d]
                    && cons.diff_bound(c, d) == Bound::ZERO
                    && cons.diff_bound(d, c) == Bound::ZERO
            })
        })
        .collect()
}

/// Do the bounds of column `c` admit one value only?
fn pinned(cons: &ConstraintSystem, c: usize) -> bool {
    cons.lower(c).is_some() && cons.upper(c).finite() == cons.lower(c)
}

/// Projection that normalizes the constraint-graph components of `seeds`
/// (the dropped columns, or the kept twins of substituted ones) and leaves
/// every other column untouched.
fn project_components(
    t: &GenTuple,
    temporal_keep: &[usize],
    data_keep: &[usize],
    seeds: &[usize],
) -> Result<Vec<GenTuple>> {
    let hot = if seeds.is_empty() {
        Vec::new()
    } else {
        columns_needing_normalization(t, seeds)?
    };
    if hot.len() == t.lrps().len() {
        return project_tuple_full(t, temporal_keep, data_keep);
    }
    let data: Vec<_> = data_keep.iter().map(|&i| t.data()[i].clone()).collect();
    // Split kept columns into the hot component(s) and the cold rest.
    let hot_kept: Vec<usize> = temporal_keep
        .iter()
        .copied()
        .filter(|c| hot.contains(c))
        .collect();
    let cold_kept: Vec<usize> = temporal_keep
        .iter()
        .copied()
        .filter(|c| !hot.contains(c))
        .collect();

    // Mini-tuple over the hot columns; project it with full normalization.
    let mini = GenTuple::from_parts(
        hot.iter().map(|&c| t.lrps()[c]).collect(),
        t.constraints().project_onto(&hot),
        vec![],
    )?;
    let mini_keep: Vec<usize> = hot_kept
        .iter()
        .map(|&c| hot.iter().position(|&h| h == c).expect("hot_kept ⊆ hot"))
        .collect();
    let minis = project_tuple_full(&mini, &mini_keep, &[])?;

    // Cold part: kept untouched (no elimination there, so no grid issue).
    let cold_cons = t.constraints().project_onto(&cold_kept);

    // Output positions of each part within `temporal_keep` order.
    let out_arity = temporal_keep.len();
    let hot_positions: Vec<usize> = (0..out_arity)
        .filter(|&p| hot.contains(&temporal_keep[p]))
        .collect();
    let cold_positions: Vec<usize> = (0..out_arity)
        .filter(|&p| !hot.contains(&temporal_keep[p]))
        .collect();

    let mut out = Vec::new();
    for mt in minis {
        let mut lrps = Vec::with_capacity(out_arity);
        let mut hot_cursor = 0usize;
        for &col in temporal_keep {
            if hot.contains(&col) {
                lrps.push(mt.lrps()[hot_cursor]);
                hot_cursor += 1;
            } else {
                lrps.push(t.lrps()[col]);
            }
        }
        let cons = mt
            .constraints()
            .embed(out_arity, &hot_positions)
            .conjoin(&cold_cons.embed(out_arity, &cold_positions))?;
        out.push(GenTuple::from_parts(lrps, cons, data.clone())?);
    }
    Ok(out)
}

/// Projection with **whole-tuple** normalization — the unoptimized §3.4
/// algorithm. Semantically identical to [`project_tuple`]; kept public for
/// the partial-normalization ablation.
///
/// Each tuple's normal form is built once: the grid system of every
/// grid-satisfiable residue combination is restricted to the kept columns
/// — exact on the grid (Theorem 3.1) — and only those columns are mapped
/// back to X-space. The result is the same as normalizing the whole tuple
/// and re-deriving each output's grid system with [`crate::grid_view`]:
/// on a closed, satisfiable grid system that round trip is the identity.
///
/// # Errors
/// [`crate::CoreError::TooManyExtensions`] past the normalization limit;
/// arithmetic overflow during normalization.
///
/// # Panics
/// If an index is out of range or repeated.
pub fn project_tuple_full(
    t: &GenTuple,
    temporal_keep: &[usize],
    data_keep: &[usize],
) -> Result<Vec<GenTuple>> {
    let data: Vec<_> = data_keep.iter().map(|&i| t.data()[i].clone()).collect();
    let mut walk = GridWalk::new(t, DEFAULT_NORMALIZE_LIMIT)?;
    let k = walk.period();
    let mut out = Vec::new();
    while let Some((lrps, grid)) = walk.next()? {
        let kept_anchors: Vec<i64> = temporal_keep.iter().map(|&i| lrps[i].offset()).collect();
        let cons = grid
            .project_onto(temporal_keep)
            .from_grid(&kept_anchors, k)?;
        let kept_lrps = temporal_keep.iter().map(|&i| lrps[i]).collect();
        out.push(GenTuple::from_parts(kept_lrps, cons, data.clone())?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize_tuples;
    use crate::value::Value;
    use itd_constraint::Atom;
    use itd_lrp::Lrp;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    #[test]
    fn paper_figure_2_projection_is_exact() {
        // Figure 2 / Example 3.2: projecting out X2 must give 8n+3 with
        // X1 ≥ 11 — NOT the naive real projection (4n+3 with X1 ≥ 2-ish),
        // whose extra points 3, 7, 15, 23… have no witnesses.
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 4), lrp(1, 8)])
            .atoms([
                Atom::diff_ge(0, 1, 0).unwrap(),
                Atom::diff_le(0, 1, 5),
                Atom::ge(1, 2),
            ])
            .build()
            .unwrap();
        let p = project_tuple(&t, &[0], &[]).unwrap();
        assert_eq!(p.len(), 1, "{p:?}");
        assert_eq!(p[0].lrps()[0], lrp(3, 8));
        assert_eq!(p[0].constraints().lower(0), Some(11));
        // The false witnesses of the naive method are excluded:
        for bogus in [3, 7, 15, 23] {
            assert!(!p[0].contains(&[bogus], &[]), "{bogus} wrongly included");
        }
        // And the real ones are present: 11, 19, 27, …
        for real in [11, 19, 27, 35] {
            assert!(p[0].contains(&[real], &[]), "{real} missing");
        }
    }

    #[test]
    fn projection_matches_brute_force() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 4), lrp(1, 8)])
            .atoms([
                Atom::diff_ge(0, 1, 0).unwrap(),
                Atom::diff_le(0, 1, 5),
                Atom::ge(1, 2),
            ])
            .build()
            .unwrap();
        let p = project_tuple(&t, &[0], &[]).unwrap();
        // Brute force: x1 appears iff some x2 in a wide window pairs with it.
        let wide = materialize_tuples(&[t], -50, 120);
        let expect: BTreeSet<i64> = wide.iter().map(|(ts, _)| ts[0]).collect();
        for x1 in -20..60 {
            let symbolic = p.iter().any(|pt| pt.contains(&[x1], &[]));
            // Only compare where the wide window is authoritative.
            let brute = expect.contains(&x1);
            assert_eq!(symbolic, brute, "x1 = {x1}");
        }
    }

    #[test]
    fn projection_keeps_and_permutes_columns() {
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(1, 2), Lrp::point(5)])
            .atoms([Atom::diff_le(0, 1, 0)])
            .data(vec![Value::str("a"), Value::Int(1)])
            .build()
            .unwrap();
        let p = project_tuple(&t, &[2, 0], &[1]).unwrap();
        assert!(!p.is_empty());
        for pt in &p {
            assert_eq!(pt.schema(), crate::Schema::new(2, 1));
            assert!(pt.lrps()[0].is_point());
            assert_eq!(pt.data(), &[Value::Int(1)]);
        }
    }

    #[test]
    fn project_to_nothing_checks_emptiness() {
        // Projecting all columns away leaves the 0-ary tuple iff nonempty.
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::ge(0, 100)])
            .build()
            .unwrap();
        let p = project_tuple(&t, &[], &[]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].schema(), crate::Schema::new(0, 0));
        // Unsatisfiable tuple projects to nothing.
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(0, 2)])
            .atoms([Atom::diff_eq(0, 1, 1)])
            .build()
            .unwrap();
        assert!(project_tuple(&t, &[], &[]).unwrap().is_empty());
    }

    #[test]
    fn partial_normalization_matches_full() {
        // Column 2 (period 7) is unrelated to the eliminated column 1:
        // the partial path must not refine it.
        let t = GenTuple::builder()
            .lrps(vec![lrp(3, 4), lrp(1, 8), lrp(2, 7)])
            .atoms([
                Atom::diff_ge(0, 1, 0).unwrap(),
                Atom::diff_le(0, 1, 5),
                Atom::ge(1, 2),
                Atom::le(2, 100),
            ])
            .build()
            .unwrap();
        let partial = project_tuple(&t, &[0, 2], &[]).unwrap();
        let full = project_tuple_full(&t, &[0, 2], &[]).unwrap();
        // The unrelated column keeps its original period in the partial
        // result (no fan-out through lcm(8,7) = 56).
        assert!(partial.iter().all(|pt| pt.lrps()[1].period() == 7));
        assert!(partial.len() <= full.len());
        for x in -10..60 {
            for z in -10..60 {
                let a = partial.iter().any(|pt| pt.contains(&[x, z], &[]));
                let b = full.iter().any(|pt| pt.contains(&[x, z], &[]));
                assert_eq!(a, b, "({x},{z})");
            }
        }
    }

    #[test]
    fn partial_pure_permutation_keeps_everything() {
        // No column dropped: projection is a permutation; nothing is
        // normalized at all.
        let t = GenTuple::builder()
            .lrps(vec![lrp(1, 6), lrp(0, 10)])
            .atoms([Atom::diff_le(0, 1, 3)])
            .build()
            .unwrap();
        let p = project_tuple(&t, &[1, 0], &[]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].lrps(), &[lrp(0, 10), lrp(1, 6)]);
        for x in -12..12 {
            for y in -12..12 {
                assert_eq!(
                    p[0].contains(&[y, x], &[]),
                    t.contains(&[x, y], &[]),
                    "({x},{y})"
                );
            }
        }
    }

    /// The general path of [`project_tuple`]: eliminate the dropped
    /// columns through their components, with no twin substitution.
    fn project_general(
        t: &GenTuple,
        temporal_keep: &[usize],
        data_keep: &[usize],
    ) -> Vec<GenTuple> {
        let dropped: Vec<usize> = (0..t.lrps().len())
            .filter(|c| !temporal_keep.contains(c))
            .collect();
        project_components(t, temporal_keep, data_keep, &dropped).unwrap()
    }

    #[test]
    fn twin_path_leaves_unrelated_mixed_period_column_alone() {
        // [0+2n, 2+6n, 2+6n] keep [0, 1]: columns 1 and 2 are join twins
        // and column 0 shares no constraint with them, so it keeps period 2
        // (normalizing the whole substituted tuple would refine it three
        // ways, to period 6).
        let left = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(2, 6)])
            .atoms([Atom::le(0, 20)])
            .build()
            .unwrap();
        let right = GenTuple::builder()
            .lrps(vec![lrp(2, 6)])
            .atoms([Atom::ge(0, 1)])
            .build()
            .unwrap();
        let t = crate::ops::join_tuples(&left, &right, &[(1, 0)], &[])
            .unwrap()
            .unwrap();
        assert_eq!(twins(&t, &[0, 1], &[2]), Some(vec![1]));
        let p = project_tuple(&t, &[0, 1], &[]).unwrap();
        assert_eq!(p, project_general(&t, &[0, 1], &[]));
        assert_eq!(p.len(), 1, "{p:?}");
        assert_eq!(p[0].lrps(), &[lrp(0, 2), lrp(2, 6)]);
        // The twin's component was renormalized: X1 ≥ 1 rounds up to 2.
        assert_eq!(p[0].constraints().lower(1), Some(2));
        // Once column 0 is coupled to the twins, both paths refine it.
        let coupled = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(2, 6), lrp(2, 6)])
            .atoms([Atom::diff_eq(1, 2, 0), Atom::diff_le(0, 1, 0)])
            .build()
            .unwrap();
        let p = project_tuple(&coupled, &[0, 1], &[]).unwrap();
        assert_eq!(p, project_general(&coupled, &[0, 1], &[]));
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|pt| pt.lrps()[0].period() == 6));
    }

    #[test]
    fn twin_path_leaves_kept_column_outside_the_component_unaligned() {
        // Column 0's bound X0 ≥ 2 is off its grid 1+3n (the normal form
        // says X0 ≥ 4), but column 0 is not in the twins' component, so
        // the general path leaves it as it is — and so must the twin path.
        let left = GenTuple::builder()
            .lrps(vec![lrp(1, 3), lrp(0, 2)])
            .atoms([Atom::ge(0, 2)])
            .data(vec![Value::str("a")])
            .build()
            .unwrap();
        let right = GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::ge(0, 3)])
            .data(vec![Value::str("a"), Value::Int(7)])
            .build()
            .unwrap();
        let t = crate::ops::join_tuples(&left, &right, &[(1, 0)], &[(0, 0)])
            .unwrap()
            .unwrap();
        let p = project_tuple(&t, &[0, 1], &[0, 2]).unwrap();
        assert_eq!(p, project_general(&t, &[0, 1], &[0, 2]));
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].constraints().lower(0), Some(2));
        // Substituting without renormalizing would leave X1 ≥ 3 here.
        assert_eq!(p[0].constraints().lower(1), Some(4));
        assert_eq!(p[0].data(), &[Value::str("a"), Value::Int(7)]);
    }

    #[test]
    fn project_in_identity_is_a_snapshot() {
        use crate::{ExecContext, GenRelation, OpKind, Schema};
        let rows: Vec<GenTuple> = (0..12)
            .map(|i| {
                GenTuple::builder()
                    .lrps(vec![lrp(i % 3, 3), lrp(i % 4, 4)])
                    .atoms([Atom::diff_le(0, 1, i)])
                    .data(vec![Value::Int(i)])
                    .build()
                    .unwrap()
            })
            .collect();
        let rel = GenRelation::new(Schema::new(2, 1), rows).unwrap();
        for threads in [1, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let p = rel.project_in(&[0, 1], &[0], &ctx).unwrap();
            assert_eq!(p, rel);
            assert!(std::ptr::eq(p.store(), rel.store()), "shares the store");
            let op = *ctx.stats().op(OpKind::Project);
            assert_eq!((op.calls, op.tuples_in, op.tuples_out), (1, 12, 12));
        }
        // A permutation is not the identity: it takes the per-tuple path,
        // with the same counters.
        let ctx = ExecContext::serial();
        let p = rel.project_in(&[1, 0], &[0], &ctx).unwrap();
        assert!(!std::ptr::eq(p.store(), rel.store()));
        let op = *ctx.stats().op(OpKind::Project);
        assert_eq!((op.calls, op.tuples_in, op.tuples_out), (1, 12, 12));
    }

    #[test]
    fn project_in_rejects_repeated_columns() {
        use crate::{CoreError, ExecContext, GenRelation, Schema};
        let t = GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(1, 2)])
            .data(vec![Value::Int(1)])
            .build()
            .unwrap();
        let rel = GenRelation::new(Schema::new(2, 1), vec![t]).unwrap();
        let ctx = ExecContext::serial();
        assert_eq!(
            rel.project_in(&[0, 0], &[], &ctx),
            Err(CoreError::RepeatedAttribute { index: 0 })
        );
        assert_eq!(
            rel.project_in(&[1], &[0, 0], &ctx),
            Err(CoreError::RepeatedAttribute { index: 0 })
        );
        assert_eq!(
            rel.project_in(&[2], &[], &ctx),
            Err(CoreError::AttributeOutOfRange { index: 2, arity: 2 })
        );
    }

    /// Raw material for one random tuple: a base period, up to two
    /// columns, up to three atoms and one datum.
    type TupleSpec = (i64, Vec<(i64, i64, u8)>, Vec<(u8, usize, usize, i64)>, u8);

    fn arb_spec() -> impl Strategy<Value = TupleSpec> {
        (
            1i64..=12,
            proptest::collection::vec((0i64..12, 1i64..=12, 0u8..8), 2),
            proptest::collection::vec((0u8..4, 0usize..2, 0usize..2, -6i64..6), 0..=3),
            0u8..2,
        )
    }

    /// A tuple with `m` temporal and `d` data columns from `spec`: column
    /// periods divide the base period (so columns mix periods while
    /// normalization stays small), and one column in eight is a point.
    fn spec_tuple((base, cols, atoms, datum): TupleSpec, m: usize, d: usize) -> GenTuple {
        let lrps = cols[..m].iter().map(|&(c, div, kind)| {
            if kind == 0 {
                Lrp::point(c - 6)
            } else {
                // The largest divisor of `base` not above `div`.
                let k = (1..=div).rev().find(|k| base % k == 0).unwrap();
                lrp(c, k)
            }
        });
        let atoms = atoms.into_iter().map(|(kind, i, j, a)| {
            let (i, j) = (i % m, j % m);
            match kind {
                0 => Atom::ge(i, a),
                1 => Atom::le(i, a),
                _ if i == j => Atom::le(i, a + 6),
                2 => Atom::diff_le(i, j, a),
                _ => Atom::diff_eq(i, j, a),
            }
        });
        GenTuple::builder()
            .lrps(lrps)
            .atoms(atoms)
            .data((0..d).map(|_| Value::str(["x", "y"][datum as usize])))
            .build()
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On `join_tuples` outputs with the right side's join columns
        /// dropped (the query layer's conjunction), the twin path is
        /// bit-identical to the general path — lrps, constraint systems,
        /// data and order — and denotes the projected join on a window.
        #[test]
        fn prop_twin_path_equals_general(
            (m1, m2, d1, d2) in (1usize..=2, 1usize..=2, 0usize..=1, 0usize..=1),
            spec1 in arb_spec(),
            spec2 in arb_spec(),
            (pairs, reverse) in (1usize..=2, 0u8..2),
        ) {
            let (t1, t2) = (spec_tuple(spec1, m1, d1), spec_tuple(spec2, m2, d2));
            let pairs = pairs.min(m1).min(m2);
            let temporal_pairs: Vec<(usize, usize)> = (0..pairs).map(|i| (i, i)).collect();
            let data_pairs: Vec<(usize, usize)> = if d1 == 1 && d2 == 1 { vec![(0, 0)] } else { vec![] };
            let Some(j) = crate::ops::join_tuples(&t1, &t2, &temporal_pairs, &data_pairs).unwrap() else {
                return Ok(());
            };
            let mut tkeep: Vec<usize> = (0..m1).chain(m1 + pairs..m1 + m2).collect();
            let mut dkeep: Vec<usize> = (0..d1).chain(d1 + data_pairs.len()..d1 + d2).collect();
            if reverse == 1 {
                tkeep.reverse();
                dkeep.reverse();
            }
            let dropped: Vec<usize> = (m1..m1 + pairs).collect();
            let pinned_drop = dropped.iter().any(|&d| pinned(j.constraints(), d));
            prop_assert_eq!(twins(&j, &tkeep, &dropped).is_some(), !pinned_drop);
            let fast = project_tuple(&j, &tkeep, &dkeep).unwrap();
            prop_assert_eq!(&fast, &project_general(&j, &tkeep, &dkeep));
            // Dropped columns copy kept ones, so every witness of a kept
            // point in the window lies in the window too.
            let expect: BTreeSet<_> = materialize_tuples(&[j], -7, 7)
                .into_iter()
                .map(|(ts, ds)| {
                    (
                        tkeep.iter().map(|&c| ts[c]).collect::<Vec<_>>(),
                        dkeep.iter().map(|&c| ds[c].clone()).collect::<Vec<_>>(),
                    )
                })
                .collect();
            prop_assert_eq!(materialize_tuples(&fast, -7, 7), expect);
        }
    }

    proptest! {
        #[test]
        fn prop_partial_equals_full(
            k1 in 1i64..5, k2 in 1i64..5, k3 in 1i64..5,
            a in -4i64..4, lob in -4i64..4, hib in 0i64..6,
        ) {
            // Constraint couples columns 0 and 1; column 2 is independent.
            let t = GenTuple::builder().lrps(vec![lrp(0, k1), lrp(1, k2), lrp(2, k3)]).atoms([Atom::diff_le(0, 1, a), Atom::ge(0, lob), Atom::le(2, hib)]).build().unwrap();
            let partial = project_tuple(&t, &[0, 2], &[]).unwrap();
            let full = project_tuple_full(&t, &[0, 2], &[]).unwrap();
            for x in -8i64..8 {
                for z in -8i64..8 {
                    let pa = partial.iter().any(|pt| pt.contains(&[x, z], &[]));
                    let fa = full.iter().any(|pt| pt.contains(&[x, z], &[]));
                    prop_assert_eq!(pa, fa, "({}, {})", x, z);
                }
            }
        }

        /// Projection agrees with brute-force ∃-elimination on a window.
        /// The window for the eliminated variable is padded so that any
        /// witness for an x1 in the comparison range is visible.
        #[test]
        fn prop_projection_exact(
            c1 in 0i64..4, k1 in 1i64..5,
            c2 in 0i64..4, k2 in 1i64..5,
            a in -5i64..5,
            b in -5i64..5,
            lob in -5i64..5,
        ) {
            let t = GenTuple::builder().lrps(vec![lrp(c1, k1), lrp(c2, k2)]).atoms([
                    Atom::diff_ge(0, 1, a).unwrap(),
                    Atom::diff_le(0, 1, b),
                    Atom::ge(1, lob),
                ]).build().unwrap();
            let p = project_tuple(&t, &[0], &[]).unwrap();
            for x1 in -12i64..12 {
                let symbolic = p.iter().any(|pt| pt.contains(&[x1], &[]));
                // witness range: x2 within |a|,|b| ≤ 5 of x1, or bounded by lob
                let brute = (-40..=40).any(|x2| t.contains(&[x1, x2], &[]));
                prop_assert_eq!(symbolic, brute, "x1 = {}", x1);
            }
        }
    }

    /// Oracle: the component search over `reduced_atoms` alone, as it was
    /// before the closed-matrix bounds.
    fn columns_by_reduced_atoms(t: &GenTuple, seeds: &[usize]) -> Vec<usize> {
        let m = t.lrps().len();
        let mut uf = Components::new(m);
        for atom in t.constraints().reduced_atoms().unwrap() {
            if let Atom::DiffLe { i, j, .. } | Atom::DiffEq { i, j, .. } = atom {
                uf.union(i, j);
            }
        }
        let mut needed = vec![false; m];
        for &d in seeds {
            let root = uf.find(d);
            for (c, flag) in needed.iter_mut().enumerate() {
                if uf.find(c) == root {
                    *flag = true;
                }
            }
        }
        (0..m).filter(|&c| needed[c]).collect()
    }

    /// Oracle: whole-tuple projection as normalize-then-[`crate::grid_view`]
    /// of every normalized tuple, as it was before the fused walk.
    fn project_full_via_grid_view(
        t: &GenTuple,
        temporal_keep: &[usize],
        data_keep: &[usize],
    ) -> Vec<GenTuple> {
        let data: Vec<_> = data_keep.iter().map(|&i| t.data()[i].clone()).collect();
        let mut out = Vec::new();
        for nt in t.normalize().unwrap() {
            let (k, anchors, grid) = crate::normalize::grid_view(&nt).unwrap();
            let projected_grid = grid.project_onto(temporal_keep);
            let kept_anchors: Vec<i64> = temporal_keep.iter().map(|&i| anchors[i]).collect();
            let cons = projected_grid.from_grid(&kept_anchors, k).unwrap();
            let lrps: Vec<_> = temporal_keep.iter().map(|&i| nt.lrps()[i]).collect();
            out.push(GenTuple::from_parts(lrps, cons, data.clone()).unwrap());
        }
        out
    }

    #[test]
    fn tie_with_the_origin_falls_back_to_reduced_atoms() {
        // X0 ≤ 101, X1 ≥ 39 and X0 − X1 ≤ 62 = 101 − 39: the difference
        // atom is implied through the origin, so `reduced_atoms` drops it
        // and column 1 is not in column 0's component — but the closed
        // matrix alone cannot tell, so the bounds disagree.
        let tie = GenTuple::builder()
            .lrps(vec![lrp(1, 4), lrp(3, 4)])
            .atoms([Atom::le(0, 101), Atom::ge(1, 39), Atom::diff_le(0, 1, 62)])
            .build()
            .unwrap();
        assert_eq!(components_from_closure(tie.constraints(), &[0]), None);
        assert_eq!(columns_needing_normalization(&tie, &[0]).unwrap(), [0]);
        // One less, and only a path through the columns derives it.
        let strict = GenTuple::builder()
            .lrps(vec![lrp(1, 4), lrp(3, 4)])
            .atoms([Atom::le(0, 101), Atom::ge(1, 39), Atom::diff_le(0, 1, 61)])
            .build()
            .unwrap();
        assert_eq!(
            components_from_closure(strict.constraints(), &[0]),
            Some(vec![0, 1])
        );
        assert_eq!(columns_by_reduced_atoms(&strict, &[0]), [0, 1]);
    }

    /// Raw material for one tuple of the oracle tests: a base period, the
    /// arity, four column recipes, up to six atom recipes, a column mask
    /// (the seeds, or the kept columns) and a data/order selector.
    type OracleSpec = (
        i64,
        usize,
        Vec<(i64, i64, u8)>,
        Vec<(u8, usize, usize, i64, i64)>,
        u8,
        u8,
    );

    fn arb_oracle_spec() -> impl Strategy<Value = OracleSpec> {
        (
            1i64..=12,
            1usize..=4,
            proptest::collection::vec((-6i64..6, 1i64..=12, 0u8..6), 4),
            proptest::collection::vec((0u8..12, 0usize..4, 0usize..4, -8i64..8, -8i64..8), 0..=6),
            0u8..16,
            0u8..4,
        )
    }

    /// A tuple from `spec` with one datum. Column periods divide the base
    /// period (mixed periods, small normalizations) and one column in six
    /// is a point. The atom recipes include pinned columns (`Xi = a`),
    /// origin ties (`Xi ≤ a`, `Xj ≥ b` and `Xi − Xj ≤ a − b`, so the
    /// difference is implied through the origin) and contradictions.
    fn oracle_tuple(spec: &OracleSpec) -> GenTuple {
        let (base, m, cols, atoms, _, _) = spec;
        let lrps = cols[..*m].iter().map(|&(c, div, kind)| {
            if kind == 0 {
                Lrp::point(c)
            } else {
                let k = (1..=div).rev().find(|k| base % k == 0).unwrap();
                lrp(c, k)
            }
        });
        let atoms = atoms.iter().flat_map(|&(kind, i, j, a, b)| {
            let (i, j) = (i % m, j % m);
            match kind {
                0 => vec![Atom::ge(i, a - 8)],
                1 => vec![Atom::le(i, a + 8)],
                2 | 3 if i == j => vec![Atom::le(i, a + 8)],
                2 => vec![Atom::diff_le(i, j, a)],
                3 => vec![Atom::diff_eq(i, j, a)],
                4 => vec![Atom::eq(i, a)],
                5 => vec![Atom::le(i, a), Atom::ge(i, a - b.abs() % 2)],
                11 if b >= 4 => vec![Atom::le(i, a), Atom::ge(i, a + 1)],
                _ if i == j => vec![Atom::ge(i, b)],
                _ => vec![Atom::le(i, a), Atom::ge(j, b), Atom::diff_le(i, j, a - b)],
            }
        });
        GenTuple::builder()
            .lrps(lrps)
            .atoms(atoms)
            .data(vec![Value::Int(spec.5.into())])
            .build()
            .unwrap()
    }

    /// The columns set in the low `m` bits of `mask`.
    fn mask_columns(mask: u8, m: usize) -> Vec<usize> {
        (0..m).filter(|&c| mask & (1 << c) != 0).collect()
    }

    /// The closed-matrix component search returns exactly the columns of
    /// the `reduced_atoms` search it replaces, on 512 tuples built to hit
    /// origin ties, pinned columns, points, mixed periods and
    /// unsatisfiable systems — each of which the run must meet.
    #[test]
    fn prop_component_search_equals_reduced_atoms_oracle() {
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(512));
        let (mut fallbacks, mut unsat, mut pinned_cols, mut points, mut mixed) = (0, 0, 0, 0, 0);
        runner
            .run(&arb_oracle_spec(), |spec| {
                let t = oracle_tuple(&spec);
                let m = t.lrps().len();
                let seeds = mask_columns(spec.4, m);
                prop_assert_eq!(
                    columns_needing_normalization(&t, &seeds).unwrap(),
                    columns_by_reduced_atoms(&t, &seeds)
                );
                let cons = t.constraints();
                if !cons.is_satisfiable() {
                    unsat += 1;
                } else if components_from_closure(cons, &seeds).is_none() {
                    fallbacks += 1;
                }
                if cons.is_satisfiable() && (0..m).any(|c| pinned(cons, c)) {
                    pinned_cols += 1;
                }
                points += usize::from(t.lrps().iter().any(|l| l.is_point()));
                mixed += usize::from(crate::normalize::single_period(t.lrps()).is_none());
                Ok(())
            })
            .unwrap();
        for (what, n) in [
            ("origin-tie fallbacks", fallbacks),
            ("unsatisfiable systems", unsat),
            ("pinned columns", pinned_cols),
            ("points", points),
            ("mixed periods", mixed),
        ] {
            assert!(n >= 16, "only {n} cases with {what}");
        }
    }

    /// The fused walk projects exactly as normalize-then-`grid_view` did:
    /// the same tuples in the same order, on the same 512 tuples, with
    /// random (sometimes reversed) kept columns and the datum kept or
    /// dropped.
    #[test]
    fn prop_fused_projection_equals_grid_view_oracle() {
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(512));
        let mut nonempty = 0;
        runner
            .run(&arb_oracle_spec(), |spec| {
                let t = oracle_tuple(&spec);
                let mut keep = mask_columns(spec.4, t.lrps().len());
                if spec.5 & 1 == 1 {
                    keep.reverse();
                }
                let dkeep: &[usize] = if spec.5 & 2 == 0 { &[0] } else { &[] };
                let fused = project_tuple_full(&t, &keep, dkeep).unwrap();
                prop_assert_eq!(&fused, &project_full_via_grid_view(&t, &keep, dkeep));
                nonempty += usize::from(!fused.is_empty());
                Ok(())
            })
            .unwrap();
        assert!(nonempty >= 128, "only {nonempty} nonempty projections");
    }
}
