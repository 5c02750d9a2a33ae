//! Atomic signed mutations: the [`Txn`] builder.
//!
//! A `Txn` describes a batch of inserts and retracts across any number of
//! tables. [`Database::apply_with`](crate::Database::apply_with) validates the whole
//! batch first (unknown tables, schema mismatches, incomplete specs fail
//! before anything changes), then applies it — retractions before
//! insertions — rotates the plan token once, and incrementally refreshes
//! every registered view with the batch's signed deltas.
//!
//! ```
//! use itd_db::{Database, ExecContext, Txn, TupleSpec};
//! let mut db = Database::new();
//! db.create_table("even", &["t"], &[]).unwrap();
//! let txn = Txn::new().insert("even", TupleSpec::new().lrp("t", 0, 2));
//! let summary = db.apply_with(txn, &ExecContext::new()).unwrap();
//! assert_eq!(summary.inserted, 1);
//! ```

use itd_core::GenTuple;

use crate::table::TupleSpec;

/// One signed change: which table, which direction, which row.
#[derive(Debug, Clone)]
pub(crate) struct TxnOp {
    pub(crate) table: String,
    pub(crate) retract: bool,
    pub(crate) row: RowSpec,
}

/// A row given either by the named-attribute builder or as a raw tuple.
#[derive(Debug, Clone)]
pub(crate) enum RowSpec {
    Spec(TupleSpec),
    Tuple(GenTuple),
}

/// A batch of signed mutations, applied atomically by
/// [`Database::apply_with`](crate::Database::apply_with).
///
/// Builder-style: each call moves and returns the transaction. Within one
/// transaction all retractions are applied before all insertions, so
/// retract-then-insert of the same row is a replace and the insertions
/// are always rows of the post-transaction tables.
#[derive(Debug, Clone, Default)]
pub struct Txn {
    pub(crate) ops: Vec<TxnOp>,
}

impl Txn {
    /// An empty transaction (applying it is a no-op).
    pub fn new() -> Txn {
        Txn::default()
    }

    /// Adds an insertion described by a [`TupleSpec`].
    pub fn insert(mut self, table: &str, spec: TupleSpec) -> Txn {
        self.ops.push(TxnOp {
            table: table.to_owned(),
            retract: false,
            row: RowSpec::Spec(spec),
        });
        self
    }

    /// Adds an insertion of a raw generalized tuple.
    pub fn insert_tuple(mut self, table: &str, tuple: GenTuple) -> Txn {
        self.ops.push(TxnOp {
            table: table.to_owned(),
            retract: false,
            row: RowSpec::Tuple(tuple),
        });
        self
    }

    /// Adds a retraction: every row structurally equal to the described
    /// tuple is removed (removing zero rows is not an error).
    pub fn retract(mut self, table: &str, spec: TupleSpec) -> Txn {
        self.ops.push(TxnOp {
            table: table.to_owned(),
            retract: true,
            row: RowSpec::Spec(spec),
        });
        self
    }

    /// Adds a retraction of a raw generalized tuple.
    pub fn retract_tuple(mut self, table: &str, tuple: GenTuple) -> Txn {
        self.ops.push(TxnOp {
            table: table.to_owned(),
            retract: true,
            row: RowSpec::Tuple(tuple),
        });
        self
    }

    /// Number of signed changes in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the batch holds no changes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What one [`Database::apply_with`](crate::Database::apply_with) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnSummary {
    /// Rows appended across all tables.
    pub inserted: usize,
    /// Rows removed across all tables (every structural match counts).
    pub retracted: usize,
    /// Registered views brought up to date.
    pub views_refreshed: usize,
    /// Of those, views that fell back to a full recomputation (active
    /// domain changed, or the catalog had mutated outside the delta
    /// path since the last refresh).
    pub views_recomputed: usize,
}
