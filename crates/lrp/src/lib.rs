//! Linear repeating points — the temporal values of *Handling Infinite
//! Temporal Data* (Kabanza, Stevenne, Wolper).
//!
//! A linear repeating point (Definition 2.1 of the paper) is the set
//! `{c + k·n | n ∈ Z}`: either a single integer (`k = 0`) or an infinite
//! arithmetic progression extending in both directions (`k ≠ 0`). Because
//! `n` ranges over all of `Z`, an infinite lrp is exactly a residue class
//! `c mod |k|`, which is the canonical form used by [`Lrp`].
//!
//! The crate provides the lrp-level primitives the paper's relational
//! algebra is built on:
//!
//! * **intersection** (§3.2.1) via the extended Euclidean algorithm /
//!   Chinese remaindering ([`Lrp::intersect`]);
//! * **inclusion** ([`Lrp::includes`]) and the **common period** of a set
//!   of lrps ([`Lrp::common_period`], the `k` of Theorem 3.2).
//!
//! Refinement to a common period (Lemma 3.1) and subtraction (§3.3.1)
//! enumerate residue classes whose number can be exponential; they live
//! in `itd-core`, as one lazy, budgeted walk over `offset + j·k`.
//!
//! Plus enumeration utilities ([`Lrp::iter_from`], [`Lrp::in_window`], …)
//! used by the finite-window semantics oracle in tests and examples.

mod iter;
mod point;

pub use iter::LrpAscending;
pub use point::Lrp;

/// Result alias re-exported from the number-theory layer.
pub type Result<T> = itd_numth::Result<T>;
pub use itd_numth::NumthError;
