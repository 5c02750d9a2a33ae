//! Relation complement / negation (Appendix A.6).

use std::collections::HashMap;

use itd_constraint::ConstraintSystem;
use itd_lrp::Lrp;

use crate::error::CoreError;
use crate::exec::{self, ExecContext, OpCounters};
use crate::normalize::{anchors, augmented_cons, ResidueWalk};
use crate::tuple::GenTuple;
use crate::Result;

/// Default ceiling on the `k^m` free extensions the complement may
/// enumerate.
pub const DEFAULT_COMPLEMENT_LIMIT: u64 = 1 << 22;

/// Complement of a purely temporal set of tuples within `Z^m`:
/// `[n₁, …, n_m] − r` in the paper's notation.
///
/// Algorithm (Appendix A.6):
/// 1. normalize every tuple and refine all of them to the database-wide
///    period `k` (lcm of all tuple periods);
/// 2. group tuples by **free extension** (their vector of residues mod `k`);
/// 3. for each of the `k^m` possible free extensions: if no tuple has it,
///    emit it unconstrained; otherwise negate the disjunction of the
///    attached constraint systems — incrementally, converting
///    `∧ᵢ (∨ⱼ ¬aᵢⱼ)` to DNF one conjunct at a time and reducing after every
///    step (keeping only the strongest constraint of each type is exactly
///    what the DBM closure does), which keeps each intermediate within the
///    `(N+1)^{m(m+1)}` bound of Theorem A.1.
///
/// The `k^m` enumeration is the intrinsic exponential of general-complexity
/// negation (Table 2); `limit` guards against accidental blow-ups. It runs
/// on the executor's chunked fan-out (contiguous index ranges, outputs
/// concatenated in range order, so the result is identical at any thread
/// count, and the cancellation token is polled once per extension), and
/// `counters`, the calling complement's record, get
/// the period, the extensions enumerated, the grid-empty disjuncts pruned,
/// and — via the probe counters — how many extensions hit a stored residue
/// group versus bypassed the negation machinery entirely.
///
/// # Errors
/// [`CoreError::TooManyExtensions`] when `k^m > limit`; arithmetic errors
/// otherwise.
///
/// # Panics
/// If tuples disagree on schema or have data attributes (the relation layer
/// checks this).
pub(crate) fn complement_tuples_in(
    tuples: &[GenTuple],
    temporal_arity: usize,
    limit: u64,
    ctx: &ExecContext,
    counters: &OpCounters,
) -> Result<Vec<GenTuple>> {
    let m = temporal_arity;
    // 0-ary relations: the space is a single empty tuple.
    if m == 0 {
        let nonempty = tuples.iter().any(|t| t.constraints().is_satisfiable());
        return Ok(if nonempty {
            vec![]
        } else {
            vec![GenTuple::unconstrained(vec![], vec![])]
        });
    }

    // Step 1: normalize and find the database period.
    let mut normal: Vec<GenTuple> = Vec::new();
    for t in tuples {
        assert!(
            t.data().is_empty(),
            "complement requires purely temporal tuples"
        );
        assert_eq!(t.lrps().len(), m, "schema mismatch in complement");
        normal.extend(t.normalize()?);
    }
    let k = Lrp::common_period(normal.iter().flat_map(|t| t.lrps().iter()))?;
    counters.record_period(k);

    let extensions = (k as u64).checked_pow(m as u32).unwrap_or(u64::MAX);
    if extensions > limit {
        return Err(CoreError::TooManyExtensions {
            period: k,
            arity: m,
            limit,
        });
    }
    counters.add_pairs(extensions);

    // Refine every normal tuple to the global period and group by residues.
    // A point becomes the period-`k` class of its value, and the augmented
    // constraints pin `Xi = c`, so the complement excludes only the pinned
    // members of that class.
    let mut groups: HashMap<Vec<i64>, Vec<ConstraintSystem>> = HashMap::new();
    for t in &normal {
        let cons = augmented_cons(t)?;
        let pinned = t
            .lrps()
            .iter()
            .map(|l| {
                if l.is_point() {
                    Lrp::new(l.offset(), k)
                } else {
                    Ok(*l)
                }
            })
            .collect::<std::result::Result<Vec<Lrp>, _>>()?;
        let mut walk = ResidueWalk::new(&pinned, k, limit)?;
        while let Some(lrps) = walk.next()? {
            groups.entry(anchors(lrps)).or_default().push(cons.clone());
        }
    }

    // Step 3: enumerate all k^m residue vectors. A linear index in
    // [0, k^m) maps to one vector (big-endian base-k digits), so the
    // executor can hand a contiguous index range to each worker.
    exec::run_chunked_range(ctx, extensions as usize, |i| {
        let residues = residue_digits(i, k, m);
        let lrps: Vec<Lrp> = residues
            .iter()
            .map(|&r| Lrp::new(r, k).expect("k > 0"))
            .collect();
        let mut out = Vec::new();
        match groups.get(&residues) {
            // The residue-vector grouping is itself an index: a missed
            // extension skips the negation machinery entirely.
            None => {
                counters.add_index_pruned(1);
                out.push(GenTuple::unconstrained(lrps, vec![]));
            }
            Some(systems) => {
                counters.add_probes(1);
                for d in negate_disjunction(systems, m)? {
                    let t = GenTuple::from_parts(lrps.clone(), d, vec![])?;
                    // Prune grid-empty disjuncts (misaligned bounds).
                    if !t.is_empty()? {
                        out.push(t);
                    } else {
                        counters.add_pruned(1);
                    }
                }
            }
        }
        Ok(out)
    })
}

/// The `i`-th residue vector of `[0, k)^m` in mixed-radix order (the last
/// coordinate varies fastest).
fn residue_digits(i: usize, k: i64, m: usize) -> Vec<i64> {
    let mut residues = vec![0i64; m];
    let mut rem = i;
    for pos in (0..m).rev() {
        residues[pos] = (rem % k as usize) as i64;
        rem /= k as usize;
    }
    residues
}

/// `¬(C₁ ∨ … ∨ C_N)` as a reduced list of conjunctive systems.
fn negate_disjunction(systems: &[ConstraintSystem], arity: usize) -> Result<Vec<ConstraintSystem>> {
    let mut disjuncts = vec![ConstraintSystem::unconstrained(arity)];
    for c in systems {
        let Some(neg_atoms) = c.negation()? else {
            continue; // c unsatisfiable: covers nothing, negation is ⊤
        };
        let mut next: Vec<ConstraintSystem> = Vec::new();
        for d in &disjuncts {
            for atom in &neg_atoms {
                let mut nd = d.clone();
                nd.add(*atom)?;
                if !nd.is_satisfiable() {
                    continue;
                }
                // Reduction: drop duplicates and entailed disjuncts.
                if next.iter().any(|kept| nd.entails(kept)) {
                    continue;
                }
                next.retain(|kept| !kept.entails(&nd));
                next.push(nd);
            }
        }
        disjuncts = next;
        if disjuncts.is_empty() {
            break;
        }
    }
    Ok(disjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::materialize_tuples;
    use crate::exec::OpKind;
    use itd_constraint::Atom;
    use proptest::prelude::*;

    fn complement_tuples(tuples: &[GenTuple], m: usize, limit: u64) -> Result<Vec<GenTuple>> {
        let ctx = ExecContext::serial();
        let timer = ctx.timed(OpKind::Complement);
        complement_tuples_in(tuples, m, limit, &ctx, &timer)
    }

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    /// Compare `complement` with brute-force set complement on a window.
    fn check_window(tuples: &[GenTuple], m: usize, lo: i64, hi: i64) {
        let comp = complement_tuples(tuples, m, DEFAULT_COMPLEMENT_LIMIT).unwrap();
        let inside = materialize_tuples(tuples, lo, hi);
        let comp_set = materialize_tuples(&comp, lo, hi);
        // Every point in the window is in exactly one of the two.
        let mut point = vec![lo; m];
        loop {
            let key = (point.clone(), vec![]);
            let in_r = inside.contains(&key);
            let in_c = comp_set.contains(&key);
            assert!(in_r != in_c, "point {point:?}: in_r={in_r} in_c={in_c}");
            let mut pos = m;
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                point[pos] += 1;
                if point[pos] <= hi {
                    break;
                }
                point[pos] = lo;
            }
        }
    }

    #[test]
    fn complement_of_empty_is_everything() {
        let comp = complement_tuples(&[], 1, 1000).unwrap();
        assert_eq!(comp.len(), 1);
        assert!(comp[0].contains(&[12345], &[]));
        assert!(comp[0].contains(&[-999], &[]));
    }

    #[test]
    fn complement_of_residue_class() {
        // ¬(even) = odd
        let r = vec![GenTuple::unconstrained(vec![lrp(0, 2)], vec![])];
        check_window(&r, 1, -10, 10);
    }

    #[test]
    fn complement_of_bounded_piece() {
        // ¬(even ∧ X ≥ 0) = odd ∪ (even ∧ X < 0)
        let r = vec![GenTuple::builder()
            .lrps(vec![lrp(0, 2)])
            .atoms([Atom::ge(0, 0)])
            .build()
            .unwrap()];
        check_window(&r, 1, -10, 10);
    }

    #[test]
    fn complement_of_union() {
        let r = vec![
            GenTuple::builder()
                .lrps(vec![lrp(0, 3)])
                .atoms([Atom::ge(0, 0)])
                .build()
                .unwrap(),
            GenTuple::builder()
                .lrps(vec![lrp(1, 3)])
                .atoms([Atom::le(0, 6)])
                .build()
                .unwrap(),
        ];
        check_window(&r, 1, -10, 12);
    }

    #[test]
    fn complement_two_dimensional() {
        let r = vec![GenTuple::builder()
            .lrps(vec![lrp(0, 2), lrp(1, 2)])
            .atoms([Atom::diff_le(0, 1, 0)])
            .build()
            .unwrap()];
        check_window(&r, 2, -5, 6);
    }

    #[test]
    fn complement_with_points() {
        let r = vec![GenTuple::unconstrained(vec![Lrp::point(4)], vec![])];
        check_window(&r, 1, -6, 10);
    }

    #[test]
    fn double_complement_is_identity_on_window() {
        let r = vec![GenTuple::builder()
            .lrps(vec![lrp(1, 4)])
            .atoms([Atom::ge(0, -3)])
            .build()
            .unwrap()];
        let c1 = complement_tuples(&r, 1, 10_000).unwrap();
        let c2 = complement_tuples(&c1, 1, 10_000).unwrap();
        let original = materialize_tuples(&r, -15, 15);
        let roundtrip = materialize_tuples(&c2, -15, 15);
        assert_eq!(original, roundtrip);
    }

    #[test]
    fn zero_arity() {
        let full = complement_tuples(&[], 0, 10).unwrap();
        assert_eq!(full.len(), 1);
        let empty = complement_tuples(&[GenTuple::unconstrained(vec![], vec![])], 0, 10).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn limit_guard() {
        let r = vec![GenTuple::unconstrained(
            vec![lrp(0, 30), lrp(0, 30), lrp(0, 30), lrp(0, 30)],
            vec![],
        )];
        let err = complement_tuples(&r, 4, 1000).unwrap_err();
        assert!(matches!(err, CoreError::TooManyExtensions { .. }));
    }

    #[test]
    fn pre_cancelled_complement_stops_at_any_thread_count() {
        // k = 48, m = 3: 110,592 extensions, all but one emitted
        // unconstrained unless the token is polled.
        let r = crate::GenRelation::new(
            crate::Schema::new(3, 0),
            vec![GenTuple::unconstrained(vec![lrp(0, 48); 3], vec![])],
        )
        .unwrap();
        for threads in [1, 2, 8] {
            let token = crate::CancelToken::new();
            token.cancel();
            let ctx = ExecContext::with_threads(threads).cancellable(token);
            let err = r.complement_temporal_in(&ctx).unwrap_err();
            assert_eq!(err, CoreError::Cancelled, "{threads} threads");
        }
    }

    #[test]
    fn theorem_a1_size_bound() {
        // Negating N single-extension tuples yields at most
        // (N+1)^(m(m+1)) tuples (Theorem A.1). All tuples share the free
        // extension Z^m so the bound applies directly.
        for (m, n) in [(1usize, 4usize), (2, 3), (2, 5)] {
            let mut tuples = Vec::new();
            for i in 0..n {
                let mut atoms = vec![Atom::ge(0, i as i64 * 3 - 4)];
                if m > 1 {
                    atoms.push(Atom::diff_le(0, 1, i as i64 - 2));
                }
                tuples.push(
                    GenTuple::builder()
                        .lrps(vec![Lrp::all(); m])
                        .atoms(atoms.iter().copied())
                        .build()
                        .unwrap(),
                );
            }
            let comp = complement_tuples(&tuples, m, 1 << 20).unwrap();
            let bound = ((n + 1) as u64).pow((m * (m + 1)) as u32);
            assert!(
                (comp.len() as u64) <= bound,
                "m={m}, N={n}: {} > bound {bound}",
                comp.len()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_complement_partitions_space(
            c1 in 0i64..3, k1 in 1i64..4,
            a in -4i64..4,
            c2 in 0i64..3, k2 in 1i64..4,
            b in -4i64..4,
            x in -10i64..10,
        ) {
            let r = vec![
                GenTuple::builder().lrps(vec![lrp(c1, k1)]).atoms([Atom::ge(0, a)]).build().unwrap(),
                GenTuple::builder().lrps(vec![lrp(c2, k2)]).atoms([Atom::le(0, b)]).build().unwrap(),
            ];
            let comp = complement_tuples(&r, 1, 100_000).unwrap();
            let in_r = r.iter().any(|t| t.contains(&[x], &[]));
            let in_c = comp.iter().any(|t| t.contains(&[x], &[]));
            prop_assert!(in_r != in_c, "x = {}", x);
        }
    }
}
