//! The 3-SAT ↔ complement-nonemptiness reduction of Theorem 3.6.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use itd_core::{Atom, GenRelation, GenTuple, Lrp, Schema};

/// A literal: variable index plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lit {
    /// Variable index (0-based).
    pub var: usize,
    /// `true` for the positive literal `uᵢ`, `false` for `¬uᵢ`.
    pub positive: bool,
}

/// A 3-CNF formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (`m` — becomes the temporal arity).
    pub num_vars: usize,
    /// Clauses of exactly three literals (`l` — becomes the tuple count).
    pub clauses: Vec<[Lit; 3]>,
}

impl Cnf {
    /// Evaluates under an assignment.
    ///
    /// # Panics
    /// If the assignment is shorter than `num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars);
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|lit| assignment[lit.var] == lit.positive))
    }

    /// The Theorem 3.6 reduction: a purely temporal generalized relation
    /// `r` with one column per variable and one tuple per clause, such that
    /// `¬r` is nonempty iff the formula is satisfiable.
    ///
    /// Truth encoding: `uᵢ` is true iff `Xᵢ ≥ 0`. Each clause contributes
    /// the tuple whose constraints are the **negations** of its literals
    /// (`Xᵢ < 0` for a positive literal, `Xᵢ ≥ 0` for a negative one), so
    /// `r` covers exactly the assignments falsifying some clause.
    ///
    /// # Panics
    /// On arithmetic overflow (impossible: all constants are 0/−1).
    pub fn to_relation(&self) -> GenRelation {
        let schema = Schema::new(self.num_vars, 0);
        let mut rel = GenRelation::empty(schema);
        for clause in &self.clauses {
            let mut atoms = Vec::with_capacity(3);
            for lit in clause {
                atoms.push(if lit.positive {
                    Atom::le(lit.var, -1) // Xᵢ < 0
                } else {
                    Atom::ge(lit.var, 0)
                });
            }
            let lrps = vec![Lrp::all(); self.num_vars];
            let tuple = GenTuple::builder()
                .lrps(lrps)
                .atoms(atoms.iter().copied())
                .build()
                .expect("small constants");
            rel.push(tuple).expect("schema matches");
        }
        rel
    }
}

/// Exhaustive SAT check (the oracle the reduction is validated against).
/// Returns a satisfying assignment if one exists.
pub fn brute_force_sat(cnf: &Cnf) -> Option<Vec<bool>> {
    assert!(cnf.num_vars < 26, "brute force limited to small instances");
    let n = cnf.num_vars;
    for bits in 0u64..(1 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
        if cnf.eval(&assignment) {
            return Some(assignment);
        }
    }
    None
}

/// Solves 3-SAT through the paper's machinery: build the reduction
/// relation, take its complement (Appendix A.6), and check nonemptiness
/// (Theorem 3.5). A witness tuple of the complement is decoded back into a
/// satisfying assignment.
///
/// # Examples
/// ```
/// use itd_workload::{random_3cnf, solve_via_complement};
/// let cnf = random_3cnf(4, 10, 7);
/// if let Some(assignment) = solve_via_complement(&cnf).unwrap() {
///     assert!(cnf.eval(&assignment));
/// }
/// ```
///
/// # Errors
/// Arithmetic/limit failures from the complement computation.
pub fn solve_via_complement(cnf: &Cnf) -> itd_core::Result<Option<Vec<bool>>> {
    let r = cnf.to_relation();
    let complement = r.complement_temporal_in(&itd_core::ExecContext::serial())?;
    for row in complement.rows() {
        let tuple = row.to_tuple();
        if tuple.is_empty()? {
            continue;
        }
        // A concrete point of the tuple gives the assignment.
        let (_, _, grid) = itd_core::grid_view(&tuple.normalize()?[0])?;
        let Some(point) = grid.solution().map_err(itd_core::CoreError::Numth)? else {
            continue;
        };
        // Grid coordinates equal the actual values here (period 1,
        // offsets 0): uᵢ = (Xᵢ >= 0).
        let assignment: Vec<bool> = point.iter().map(|&x| x >= 0).collect();
        debug_assert!(cnf.eval(&assignment));
        return Ok(Some(assignment));
    }
    Ok(None)
}

/// Deterministic random 3-CNF with distinct variables per clause.
///
/// # Panics
/// If `num_vars < 3`.
pub fn random_3cnf(num_vars: usize, num_clauses: usize, seed: u64) -> Cnf {
    assert!(num_vars >= 3, "need at least 3 variables");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let mut vars = [0usize; 3];
        vars[0] = rng.gen_range(0..num_vars);
        loop {
            vars[1] = rng.gen_range(0..num_vars);
            if vars[1] != vars[0] {
                break;
            }
        }
        loop {
            vars[2] = rng.gen_range(0..num_vars);
            if vars[2] != vars[0] && vars[2] != vars[1] {
                break;
            }
        }
        let clause = [
            Lit {
                var: vars[0],
                positive: rng.gen_bool(0.5),
            },
            Lit {
                var: vars[1],
                positive: rng.gen_bool(0.5),
            },
            Lit {
                var: vars[2],
                positive: rng.gen_bool(0.5),
            },
        ];
        clauses.push(clause);
    }
    Cnf { num_vars, clauses }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(var: usize, positive: bool) -> Lit {
        Lit { var, positive }
    }

    #[test]
    fn eval_cnf() {
        // (u0 ∨ ¬u1 ∨ u2)
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![[lit(0, true), lit(1, false), lit(2, true)]],
        };
        assert!(cnf.eval(&[true, true, false]));
        assert!(cnf.eval(&[false, false, false]));
        assert!(!cnf.eval(&[false, true, false]));
    }

    #[test]
    fn reduction_relation_covers_falsifying_assignments() {
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![[lit(0, true), lit(1, true), lit(2, true)]],
        };
        let r = cnf.to_relation();
        // The only falsifying assignments have all three negative.
        assert!(r.contains(&[-1, -5, -2], &[]));
        assert!(!r.contains(&[0, -5, -2], &[]));
    }

    #[test]
    fn satisfiable_instance() {
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![
                [lit(0, true), lit(1, true), lit(2, true)],
                [lit(0, false), lit(1, false), lit(2, false)],
            ],
        };
        let sol = solve_via_complement(&cnf).unwrap().expect("satisfiable");
        assert!(cnf.eval(&sol));
        assert!(brute_force_sat(&cnf).is_some());
    }

    #[test]
    fn unsatisfiable_instance() {
        // All 8 sign patterns over 3 variables: unsatisfiable.
        let mut clauses = Vec::new();
        for bits in 0..8u8 {
            clauses.push([
                lit(0, bits & 1 != 0),
                lit(1, bits & 2 != 0),
                lit(2, bits & 4 != 0),
            ]);
        }
        let cnf = Cnf {
            num_vars: 3,
            clauses,
        };
        assert!(brute_force_sat(&cnf).is_none());
        assert!(solve_via_complement(&cnf).unwrap().is_none());
    }

    #[test]
    fn random_instances_agree_with_brute_force() {
        for seed in 0..12 {
            let cnf = random_3cnf(4, 10, seed);
            let expected = brute_force_sat(&cnf).is_some();
            let got = solve_via_complement(&cnf).unwrap();
            assert_eq!(got.is_some(), expected, "seed {seed}: {cnf:?}");
            if let Some(sol) = got {
                assert!(cnf.eval(&sol), "seed {seed}");
            }
        }
    }

    #[test]
    fn random_3cnf_is_deterministic_and_wellformed() {
        let a = random_3cnf(5, 7, 3);
        let b = random_3cnf(5, 7, 3);
        assert_eq!(a, b);
        assert_eq!(a.clauses.len(), 7);
        for clause in &a.clauses {
            assert!(clause[0].var != clause[1].var);
            assert!(clause[0].var != clause[2].var);
            assert!(clause[1].var != clause[2].var);
            for l in clause {
                assert!(l.var < 5);
            }
        }
    }
}
