//! The temporal query language of §4: a two-sorted first-order logic.
//!
//! One sort is temporal (interpreted over `Z`, with the interpreted
//! predicate `≤` and the successor function, written `t + c`); the other is
//! the generic data sort. Uninterpreted predicates name generalized
//! relations of a [`Catalog`]; quantification is allowed over both sorts.
//!
//! # Semantics and evaluation
//!
//! Per §4.2 the temporal sort ranges over **all** of `Z` — queries really do
//! quantify over infinitely many time points, and evaluation stays effective
//! because every connective maps to a closed operation of the generalized
//! relational algebra (§4.3):
//!
//! * predicate atoms → base relations, with successor terms handled by
//!   column shifts, constants by selection, and repeated variables by
//!   equality selection;
//! * `∧` → join, `∨` → union (after padding to a common free-variable
//!   schema), `¬` → difference from the free space;
//! * `∃` → projection, `∀` → `¬∃¬`.
//!
//! The data sort is interpreted over the **active domain** (all data values
//! occurring in the database or the query) — the classical safety condition;
//! the temporal sort needs no such restriction precisely because generalized
//! relations are closed under complement (Appendix A.6).
//!
//! Yes/no queries (sentences) evaluate in PTIME data complexity
//! (Theorem 4.1); the benchmark crate measures this.
//!
//! # Syntax
//!
//! ```text
//! formula  := quantified | implies
//! quantified := ("exists" | "forall") ident "." formula
//! implies  := or ("implies" or)*            (right associative)
//! or       := and ("or" and)*
//! and      := unary ("and" unary)*
//! unary    := "not" unary | atom | "(" formula ")" | "true" | "false"
//! atom     := ident "(" tterm,* [";" dterm,*] ")"     predicate
//!           | tterm cmp tterm                         cmp ∈ <=,<,=,!=,>=,>
//!           | dterm ("=" | "!=") dterm                data comparison
//! tterm    := ident ["+" int | "-" int] | int
//! dterm    := ident | quoted string | int             (by position)
//! ```
//!
//! Example (the paper's Example 4.1, see `examples/robot_factory.rs`):
//!
//! ```text
//! exists x. exists y. exists t1. exists t2. forall t3. forall t4. forall z.
//!   (Perform(t1, t2; x, "task2") and t1 <= t3 and t3 <= t4 and t4 <= t2
//!      and t1 + 5 <= t2)
//!   implies not Perform(t3, t4; y, z)
//! ```

mod ast;
mod catalog;
mod error;
mod eval;
mod lexer;
mod opt;
mod parser;
mod plan;
mod plancache;
mod sortcheck;
mod views;

pub use ast::{CmpOp, DataTerm, Formula, Sort, TemporalTerm};
pub use catalog::{Catalog, MemoryCatalog};
pub use error::QueryError;
pub use eval::{estimate_src, run, run_src, QueryOpts, QueryOutput, QueryResult};
pub use itd_core::{
    CancelToken, ExecContext, MetricsRegistry, OpKind, OpSnapshot, QueryResourceReport,
    RegistrySnapshot, SlowQueryEntry, Span, SpanLabel, StatsSnapshot, Trace,
};
pub use parser::parse;
pub use plan::{explain, CostEstimate, ExplainReport, Plan, PlanNode, PlanOp};
pub use plancache::{
    next_plan_token, plan_cache_invalidate, plan_cache_len, plan_cache_stats, PlanCacheStats,
    PLAN_CACHE_CAP,
};
pub use sortcheck::check_sorts;
pub use views::{MaintainedView, RefreshOutcome, RelationDelta};

/// Result alias for query operations.
pub type Result<T> = std::result::Result<T, QueryError>;
