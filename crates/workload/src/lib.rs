//! Workload generation for the benchmark harness and the stress tests.
//!
//! Three parts:
//!
//! * [`gen`] — deterministic, seeded generators of normalized generalized
//!   relations with controlled parameters (`N` tuples, `m` temporal
//!   attributes, period `k`, constraint density). These drive the Table 2 /
//!   Table 3 scaling benchmarks: the paper's complexity results are stated
//!   for normalized databases, so the generator emits tuples already in
//!   normal form (grid-aligned constraints via
//!   [`itd_constraint::ConstraintSystem::from_grid`]).
//! * [`satred`] — the 3-SAT machinery of Theorem 3.6: random 3-CNF
//!   instances, a brute-force SAT oracle, the reduction of a formula to a
//!   generalized relation whose **complement is nonempty iff the formula is
//!   satisfiable**, and a solver that runs the reduction through the actual
//!   complement machinery (Appendix A.6) and extracts a satisfying
//!   assignment from a witness tuple.
//! * [`oracle`] — naive all-pairs reference implementations of
//!   intersection, difference and join, against which the production
//!   kernels of `itd-core` are tested and benchmarked.

pub mod gen;
pub mod oracle;
pub mod satred;

pub use gen::{random_relation, RelationSpec};
pub use satred::{brute_force_sat, random_3cnf, solve_via_complement, Cnf, Lit};
