//! Tuple-level implementations of the relational algebra (§3).
//!
//! Relation-level operations in [`crate::GenRelation`] are thin folds over
//! these: e.g. intersection of relations is the union of pairwise tuple
//! intersections (§3.2.2), difference is the left fold of tuple differences
//! (§3.3.2), and complement iterates the free-extension construction of
//! Appendix A.6.

mod complement;
mod difference;
mod intersect;
mod product;
mod project;

pub(crate) use complement::complement_tuples_in;
pub use complement::DEFAULT_COMPLEMENT_LIMIT;
pub use difference::difference_tuples;
pub use intersect::intersect_tuples;
pub use product::{cross_product_tuples, join_tuples};
pub use project::{project_tuple, project_tuple_full};
