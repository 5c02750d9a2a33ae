//! Generalized temporal relations — the core data model and relational
//! algebra of *Handling Infinite Temporal Data* (Kabanza, Stevenne, Wolper,
//! PODS 1990).
//!
//! # The model
//!
//! A [`GenTuple`] (Definition 2.2) assigns to each of `k` temporal
//! attributes a linear repeating point (an [`itd_lrp::Lrp`], i.e. a set
//! `{c + kn | n ∈ Z}`), to each of `l` data attributes a concrete
//! [`Value`], and attaches a conjunction of restricted constraints
//! (an [`itd_constraint::ConstraintSystem`]) on the temporal attributes.
//! It denotes the — generally infinite — set of ordinary tuples obtained by
//! picking one element from every lrp such that the constraints hold.
//!
//! A [`GenRelation`] (Definition 2.3) is a finite set of generalized tuples
//! of the same [`Schema`]; its denotation is the union of its tuples'.
//!
//! # The algebra
//!
//! Every operation of relational algebra is closed on generalized relations
//! (§3 of the paper) and implemented here:
//!
//! | paper §  | operation                  | entry point                            |
//! |----------|----------------------------|----------------------------------------|
//! | 3.1      | union                      | [`GenRelation::union_in`]              |
//! | 3.2      | intersection               | [`GenRelation::intersect_in`]          |
//! | 3.3      | difference                 | [`GenRelation::difference_in`]         |
//! | 3.4      | projection                 | [`GenRelation::project_in`]            |
//! | 3.5      | selection                  | [`GenRelation::select_temporal_in`], [`GenRelation::select_data_in`] |
//! | 3.6      | cross product              | [`GenRelation::cross_product_in`]      |
//! | 3.7      | join                       | [`GenRelation::join_on_in`]            |
//! | A.6      | complement (temporal)      | [`GenRelation::complement_temporal_in`]|
//! | Thm 3.5  | nonemptiness               | [`GenRelation::denotes_empty`]         |
//!
//! Projection, difference, emptiness and complement rely on **normal form**
//! (Definition 3.2): all lrps of a tuple share one period `k` and all
//! constraint constants are congruent to the attribute offsets modulo `k`.
//! [`GenTuple::normalize`] implements the five-step algorithm of
//! Theorem 3.2; Figure 2's counterexample — where real-valued projection is
//! wrong on the integer grid — is covered in this crate's tests.
//!
//! # Finite-window oracle
//!
//! [`GenRelation::materialize`] enumerates the concrete tuples whose
//! temporal values fall in a finite window. It is deliberately brute-force:
//! tests and benchmarks use it as an independent semantics oracle against
//! which every symbolic operation is checked.
//!
//! # Columnar storage
//!
//! Relations are `Arc`-backed snapshots over a columnar, globally interned
//! store: cloning is `O(1)`, rows are read through the [`GenRelation::rows`]
//! cursor or typed [`GenRelation::columns`] slices, and residue indexes
//! persist on the store across operator calls. See [`storage_stats`] for
//! the process-wide arena and index-reuse counters.

mod compact;
mod enumerate;
mod error;
mod kernel;
mod minimize;
mod normalize;
mod relation;
mod schema;
mod store;
mod tuple;
mod value;

pub mod exec;
pub mod index;
pub mod metrics;
pub mod ops;
pub mod trace;

pub use enumerate::ConcreteTuple;
pub use error::CoreError;
pub use exec::ViewRefreshScope;
pub use exec::{CancelToken, ExecContext, OpKind, OpSnapshot, StatsSnapshot};
pub use index::RelationIndex;
pub use metrics::{
    Histogram, HistogramSnapshot, MetricsRegistry, QueryObservation, QueryResourceReport,
    RegistryCounter, RegistryGauge, RegistrySnapshot, ResourceCollector, SlowQueryEntry,
};
pub use normalize::grid_view;
pub use relation::{GenRelation, RelationBuilder};
pub use schema::Schema;
pub use store::{
    resolve_value, storage_stats, Columns, DataColumn, RowRef, Rows, StorageStats, TemporalColumn,
    TemporalPartId, ValueId, OUTCOME_CACHE_CAP,
};
pub use trace::{NodeSpan, Span, SpanLabel, Trace};
pub use tuple::{GenTuple, GenTupleBuilder};
pub use value::Value;

// Re-export the building blocks so that downstream crates only need
// `itd-core` for most tasks.
pub use itd_constraint::{Atom, Bound, ConstraintSystem};
pub use itd_lrp::Lrp;

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
