//! User-facing temporal database built on generalized lrp relations.
//!
//! This crate ties the reproduction together: a [`Database`] is a catalog of
//! named [`Table`]s, each a generalized relation with named attributes. It
//! offers:
//!
//! * schema definition and tuple insertion with **named-column** constraint
//!   builders ([`Table::col`], [`TupleSpec`]);
//! * the full relational algebra, inherited from
//!   [`itd_core::GenRelation`];
//! * first-order querying ([`Database::run`] with [`QueryOpts`]) through
//!   `itd-query` — the database implements [`itd_query::Catalog`];
//! * JSON persistence ([`Database::to_json`] / [`Database::from_json`]);
//! * paper-style pretty printing ([`Table::render`]) that shows each
//!   generalized tuple as a row of lrps plus its constraint column, like
//!   Table 1 of the paper.
//!
//! # Example
//!
//! ```
//! use itd_db::{Database, ExecContext, QueryOpts, TupleSpec};
//!
//! let mut db = Database::new();
//! // The paper's Example 2.4: hourly trains Liège → Brussels.
//! db.create_table("train", &["dep", "arr"], &["kind"]).unwrap();
//! let table = db.table_mut("train").unwrap();
//! table
//!     .insert(
//!         TupleSpec::new()
//!             .lrp("dep", 2, 60)
//!             .lrp("arr", 80, 60)
//!             .diff_eq("dep", "arr", -78)
//!             .datum("kind", "slow"),
//!     )
//!     .unwrap();
//!
//! // Is there a train departing at minute 62 (= 1:02)?
//! let ctx = ExecContext::new();
//! let out = db.run(r#"exists a. train(62, a; "slow")"#, QueryOpts::new().ctx(&ctx)).unwrap();
//! assert!(out.truth_in(&ctx).unwrap());
//! ```

mod database;
mod error;
mod render;
pub mod repl;
mod table;
mod txn;

pub use database::{Database, ViewId, ViewInfo, ViewSnapshot};
pub use error::{render_error_chain, DbError};
pub use table::{Table, TupleSpec};
pub use txn::{Txn, TxnSummary};

pub use itd_core::{Atom, CancelToken, ExecContext, GenRelation, GenTuple, Lrp, Schema, Value};
pub use itd_query::{
    ExplainReport, Formula, MaintainedView, QueryOpts, QueryOutput, QueryResult, RefreshOutcome,
    RelationDelta,
};

/// Result alias for database operations.
pub type Result<T> = std::result::Result<T, DbError>;
