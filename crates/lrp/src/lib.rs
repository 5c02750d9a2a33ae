//! Linear repeating points — the temporal values of *Handling Infinite
//! Temporal Data* (Kabanza, Stevenne, Wolper).
//!
//! A linear repeating point (Definition 2.1 of the paper) is the set
//! `{c + k·n | n ∈ Z}`: either a single integer (`k = 0`) or an infinite
//! arithmetic progression extending in both directions (`k ≠ 0`). Because
//! `n` ranges over all of `Z`, an infinite lrp is exactly a residue class
//! `c mod |k|`, which is the canonical form used by [`Lrp`].
//!
//! The module provides the three lrp-level algorithms the paper's relational
//! algebra is built on:
//!
//! * **intersection** (§3.2.1) via the extended Euclidean algorithm /
//!   Chinese remaindering ([`Lrp::intersect`]);
//! * **refinement** to a coarser common period (Lemma 3.1,
//!   [`Lrp::refine_to_period`]), the engine of normalization;
//! * **subtraction** (§3.3.1, [`Lrp::subtract`]) producing residue classes,
//!   with the finite/infinite corner cases the paper leaves implicit made
//!   explicit by [`LrpDiff`].
//!
//! Plus enumeration utilities ([`Lrp::iter_from`], [`Lrp::in_window`], …)
//! used by the finite-window semantics oracle in tests and examples.

mod diff;
mod iter;
mod point;

pub use diff::LrpDiff;
pub use iter::{LrpAscending, LrpDescending};
pub use point::Lrp;

/// Result alias re-exported from the number-theory layer.
pub type Result<T> = itd_numth::Result<T>;
pub use itd_numth::NumthError;
