//! The database: a catalog of named tables.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use itd_core::{ExecContext, GenRelation, GenTuple, MetricsRegistry, RegistryGauge, Value};
use itd_query::{Catalog, MaintainedView, QueryOpts, QueryOutput, RelationDelta};
use serde::{Deserialize, Serialize};

use crate::error::DbError;
use crate::table::Table;
use crate::txn::{RowSpec, Txn, TxnSummary};
use crate::Result;

/// A temporal database: named tables of generalized relations, queryable
/// with the two-sorted first-order language.
///
/// Every database owns a cross-query [`MetricsRegistry`]
/// ([`Database::metrics`]): [`Database::run`] reports each query to it
/// unless the caller attached a different registry via
/// [`QueryOpts::metrics`]. Clones share the registry (it is measurement
/// state, not data), and persistence ignores it — a loaded database
/// starts with a fresh one.
///
/// Databases carry a plan token ([`Catalog::plan_token`]), so repeated
/// [`Database::run`] calls of the same source text are served by the
/// process-wide prepared-plan cache — parse, sort-check and the
/// optimizer are skipped on a warm hit. Every schema or content
/// mutation (`create_table`, `drop_table`, `table_mut`,
/// `materialize_view`) invalidates this database's cached plans and
/// rotates the token; the token is runtime state and is never
/// persisted.
#[derive(Debug, Clone)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    metrics: Arc<MetricsRegistry>,
    /// Current prepared-plan-cache token; rotated on every mutation.
    plan_token: u64,
    /// Registered incrementally maintained views, in registration order.
    views: Vec<RegisteredView>,
    /// Next [`ViewId`] to hand out (per database, never reused).
    next_view_id: u64,
    /// Set when a mutation happened outside [`Database::apply_with`] (no
    /// signed deltas available): the next `apply_with` recomputes every
    /// registered view instead of propagating deltas.
    views_stale: bool,
}

impl Default for Database {
    fn default() -> Database {
        Database {
            tables: BTreeMap::new(),
            metrics: Arc::default(),
            plan_token: itd_query::next_plan_token(),
            views: Vec::new(),
            next_view_id: 1,
            views_stale: false,
        }
    }
}

/// Handle to a registered view; returned by [`Database::register_view`]
/// and never reused within one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(u64);

/// An immutable snapshot of a registered view's answer, cheap to hand
/// out (`Arc`, and the relation itself is an `Arc`-backed snapshot).
/// Rebuilt by every refresh; a handle obtained earlier keeps observing
/// the state it was taken at.
#[derive(Debug, Clone)]
pub struct ViewSnapshot {
    /// The view's registered name.
    pub name: String,
    /// The maintained answer relation.
    pub relation: GenRelation,
    /// Names of the answer's temporal columns.
    pub temporal_vars: Vec<String>,
    /// Names of the answer's data columns.
    pub data_vars: Vec<String>,
}

impl ViewSnapshot {
    fn of(name: &str, view: &MaintainedView) -> ViewSnapshot {
        ViewSnapshot {
            name: name.to_owned(),
            relation: view.relation().clone(),
            temporal_vars: view.temporal_vars().to_vec(),
            data_vars: view.data_vars().to_vec(),
        }
    }
}

/// Counters and identity of one registered view, for listings
/// ([`Database::views`], the REPL's `\views`).
#[derive(Debug, Clone)]
pub struct ViewInfo {
    /// The view's handle.
    pub id: ViewId,
    /// The view's registered name.
    pub name: String,
    /// The maintained query's source rendering.
    pub query: String,
    /// Generalized tuples in the current answer representation.
    pub tuples: usize,
    /// Refreshes applied since registration.
    pub refreshes: u64,
    /// Of those, full recomputations (adom change or stale catalog).
    pub full_refreshes: u64,
    /// Cumulative signed delta rows propagated into this view.
    pub delta_rows: u64,
}

#[derive(Debug, Clone)]
struct RegisteredView {
    id: ViewId,
    name: String,
    view: MaintainedView,
    snapshot: Arc<ViewSnapshot>,
    refreshes: u64,
}

// Hand-written (de)serialization: byte-compatible with what
// `#[derive(Serialize, Deserialize)]` produced before the registry field
// existed — the registry is runtime measurement state and is never
// persisted.
impl Serialize for Database {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![("tables".to_owned(), self.tables.to_content())])
    }
}

impl Deserialize for Database {
    fn from_content(c: &serde::Content) -> std::result::Result<Self, serde::de::DeError> {
        let entries = serde::de::as_struct_map(c, "Database")?;
        Ok(Database {
            tables: serde::de::field(entries, "tables", "Database")?,
            metrics: Arc::default(),
            plan_token: itd_query::next_plan_token(),
            // Registered views are runtime subscriptions, never persisted.
            views: Vec::new(),
            next_view_id: 1,
            views_stale: false,
        })
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table with the given temporal and data attribute names.
    ///
    /// # Errors
    /// [`DbError::DuplicateTable`], [`DbError::DuplicateAttribute`].
    pub fn create_table(
        &mut self,
        name: &str,
        temporal: &[&str],
        data: &[&str],
    ) -> Result<&mut Table> {
        if self.tables.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_owned()));
        }
        let table = Table::new(name, temporal, data)?;
        self.bump_plan_token();
        self.views_stale = !self.views.is_empty();
        Ok(self.tables.entry(name.to_owned()).or_insert(table))
    }

    /// Removes a table.
    ///
    /// # Errors
    /// [`DbError::UnknownTable`].
    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        let table = self
            .tables
            .remove(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))?;
        self.bump_plan_token();
        self.views_stale = !self.views.is_empty();
        Ok(table)
    }

    /// Immutable access to a table.
    ///
    /// # Errors
    /// [`DbError::UnknownTable`].
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Mutable access to a table.
    ///
    /// # Errors
    /// [`DbError::UnknownTable`].
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        if !self.tables.contains_key(name) {
            return Err(DbError::UnknownTable(name.to_owned()));
        }
        // Handing out `&mut Table` is a mutation from the plan cache's
        // point of view: contents (statistics) may change before the
        // borrow ends, so rotate the token conservatively up front. It is
        // also a mutation the view-maintenance delta path cannot see, so
        // registered views go stale until the next `apply_with` recomputes
        // them.
        self.bump_plan_token();
        self.views_stale = !self.views.is_empty();
        Ok(self.tables.get_mut(name).expect("checked above"))
    }

    /// The database's current plan token (see [`Catalog::plan_token`]).
    pub fn plan_token(&self) -> u64 {
        self.plan_token
    }

    /// Invalidates this database's prepared plans and issues a fresh
    /// plan token — called by every mutating entry point.
    fn bump_plan_token(&mut self) {
        itd_query::plan_cache_invalidate(self.plan_token);
        self.plan_token = itd_query::next_plan_token();
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// The database's cross-query metrics registry. Every query run
    /// through [`Database::run`] lands here
    /// (unless the caller attached another registry); snapshot it for
    /// latency percentiles, cumulative counters, resource gauges, and the
    /// slow-query log.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// An owning handle on the same registry, for components that outlive
    /// any one borrow of the database (the query service's metrics
    /// listener reads it from another thread).
    pub fn metrics_handle(&self) -> std::sync::Arc<MetricsRegistry> {
        std::sync::Arc::clone(&self.metrics)
    }

    /// Parses and evaluates a query under [`QueryOpts`] — the single
    /// entry point behind the old `query*`/`ask` family. The returned
    /// [`QueryOutput`] carries the answer relation, the executed plan,
    /// and (when requested) the recorded span tree.
    ///
    /// # Errors
    /// Parse/sort/evaluation errors ([`DbError::Query`]).
    ///
    /// # Examples
    /// ```
    /// use itd_db::{Database, ExecContext, QueryOpts, TupleSpec};
    /// let mut db = Database::new();
    /// db.create_table("even", &["t"], &[]).unwrap();
    /// db.table_mut("even").unwrap().insert(TupleSpec::new().lrp("t", 0, 2)).unwrap();
    /// let ctx = ExecContext::new();
    /// let out = db.run("even(4)", QueryOpts::new().ctx(&ctx)).unwrap();
    /// assert!(out.truth_in(&ctx).unwrap());
    /// ```
    pub fn run(&self, src: impl AsRef<str>, opts: QueryOpts<'_>) -> Result<QueryOutput> {
        // Text-level entry: a warm prepared-plan cache answers on the raw
        // source and skips the parser too (`QueryOutput::plan_cached`).
        itd_query::run_src(self, src.as_ref(), opts.metrics_default(&self.metrics))
            .map_err(DbError::Query)
    }

    /// The cost model's pre-execution total-pairs estimate for `src` —
    /// the admission-control number — without executing anything. Shares
    /// [`Database::run`]'s prepared-plan cache, so the preparation an
    /// estimate performs is reused verbatim by the run that follows the
    /// admission decision.
    ///
    /// # Errors
    /// Parse/sort errors ([`DbError::Query`]); estimation never touches
    /// relation data.
    ///
    /// # Examples
    /// ```
    /// use itd_db::{Database, QueryOpts, TupleSpec};
    /// let mut db = Database::new();
    /// db.create_table("even", &["t"], &[]).unwrap();
    /// db.table_mut("even").unwrap().insert(TupleSpec::new().lrp("t", 0, 2)).unwrap();
    /// let est = db.estimate("even(t) and even(t + 1)", QueryOpts::new()).unwrap();
    /// assert!(est.is_finite());
    /// ```
    pub fn estimate(&self, src: impl AsRef<str>, opts: QueryOpts<'_>) -> Result<f64> {
        itd_query::estimate_src(self, src.as_ref(), opts.metrics_default(&self.metrics))
            .map_err(DbError::Query)
    }

    /// Applies a batch of signed mutations atomically — the write path
    /// registered views are maintained under — on `ctx` (thread budget;
    /// view-maintenance operator counters land in `ctx`'s stats).
    ///
    /// The whole batch is validated first (unknown tables, incomplete
    /// specs, schema mismatches fail before anything changes), then all
    /// retractions are applied, then all insertions, the plan token is
    /// rotated once, and every registered view is brought up to date by
    /// propagating the batch's per-table signed deltas through its plan
    /// (see [`MaintainedView::refresh`]). Each view refresh is reported
    /// to [`Database::metrics`].
    ///
    /// # Errors
    /// [`DbError::UnknownTable`], [`DbError::IncompleteTuple`],
    /// [`DbError::Core`] on schema mismatch — all before mutating; view
    /// refresh failures ([`DbError::Query`]) after (the mutation itself
    /// stays applied, and the affected views recompute on the next
    /// `apply_with`).
    ///
    /// # Examples
    /// ```
    /// use itd_db::{Database, ExecContext, Txn, TupleSpec};
    /// let mut db = Database::new();
    /// db.create_table("even", &["t"], &[]).unwrap();
    /// let v = db.register_view("wit", "even(t) and t >= 0").unwrap();
    /// let txn = Txn::new().insert("even", TupleSpec::new().lrp("t", 0, 2));
    /// db.apply_with(txn, &ExecContext::new()).unwrap();
    /// assert!(db.view(v).unwrap().relation.contains(&[4], &[]));
    /// ```
    pub fn apply_with(&mut self, txn: Txn, ctx: &ExecContext) -> Result<TxnSummary> {
        // Validate everything up front so a failing batch changes nothing.
        let mut resolved: Vec<(String, bool, GenTuple)> = Vec::with_capacity(txn.ops.len());
        for op in txn.ops {
            let table = self.table(&op.table)?;
            let tuple = match op.row {
                RowSpec::Spec(spec) => spec.build(table)?,
                RowSpec::Tuple(t) => {
                    if t.schema() != table.relation().schema() {
                        return Err(DbError::Core(itd_core::CoreError::SchemaMismatch {
                            expected: table.relation().schema(),
                            found: t.schema(),
                        }));
                    }
                    t
                }
            };
            resolved.push((op.table, op.retract, tuple));
        }

        let mut summary = TxnSummary::default();
        if resolved.is_empty() && (self.views.is_empty() || !self.views_stale) {
            return Ok(summary);
        }

        // Apply: all retractions, then all insertions, collecting the
        // *actual* signed deltas — rows really removed and rows really
        // appended — per table.
        let mut removed: BTreeMap<String, Vec<GenTuple>> = BTreeMap::new();
        let mut added: BTreeMap<String, Vec<GenTuple>> = BTreeMap::new();
        for (name, retract, tuple) in &resolved {
            if *retract {
                let table = self.tables.get_mut(name).expect("validated above");
                let n = table.retract_tuple(tuple)?;
                if n > 0 {
                    summary.retracted += n;
                    removed.entry(name.clone()).or_default().push(tuple.clone());
                }
            }
        }
        for (name, retract, tuple) in resolved {
            if !retract {
                let table = self.tables.get_mut(&name).expect("validated above");
                table.insert_tuple(tuple.clone())?;
                summary.inserted += 1;
                added.entry(name).or_default().push(tuple);
            }
        }
        if summary.inserted > 0 || summary.retracted > 0 {
            self.bump_plan_token();
        }

        // Bring every registered view up to date.
        if !self.views.is_empty() {
            let mut deltas: Vec<RelationDelta> = Vec::new();
            let mut names: BTreeSet<&String> = removed.keys().collect();
            names.extend(added.keys());
            for name in names {
                let schema = self.tables[name.as_str()].relation().schema();
                deltas.push(RelationDelta {
                    name: name.clone(),
                    inserted: GenRelation::new(
                        schema,
                        added.get(name).cloned().unwrap_or_default(),
                    )
                    .map_err(DbError::Core)?,
                    retracted: GenRelation::new(
                        schema,
                        removed.get(name).cloned().unwrap_or_default(),
                    )
                    .map_err(DbError::Core)?,
                });
            }
            self.refresh_views(&deltas, ctx, &mut summary)?;
        } else {
            self.views_stale = false;
        }
        Ok(summary)
    }

    /// Refreshes every registered view: incrementally from `deltas`, or
    /// by full recomputation when the catalog mutated outside the delta
    /// path. Reports each refresh to the metrics registry.
    fn refresh_views(
        &mut self,
        deltas: &[RelationDelta],
        ctx: &ExecContext,
        summary: &mut TxnSummary,
    ) -> Result<()> {
        // Move the views aside so `self` can serve as the catalog.
        let mut views = std::mem::take(&mut self.views);
        let stale = std::mem::take(&mut self.views_stale);
        let mut failed = None;
        for rv in &mut views {
            let before = ctx.stats();
            let outcome = if stale {
                rv.view.recompute(&*self, deltas, ctx)
            } else {
                rv.view.refresh(&*self, deltas, ctx)
            };
            match outcome {
                Ok(outcome) => {
                    let stats = ctx.stats().delta_since(&before);
                    self.metrics
                        .observe_view_refresh(outcome.full, outcome.delta_rows, &stats);
                    rv.refreshes += 1;
                    rv.snapshot = Arc::new(ViewSnapshot::of(&rv.name, &rv.view));
                    summary.views_refreshed += 1;
                    if outcome.full {
                        summary.views_recomputed += 1;
                    }
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.views = views;
        if let Some(e) = failed {
            // Some views may not have been refreshed: recompute all on
            // the next `apply_with` rather than trusting half-updated caches.
            self.views_stale = true;
            return Err(DbError::Query(e));
        }
        Ok(())
    }

    /// Registers an incrementally maintained view: the query is prepared
    /// and evaluated once, and every subsequent [`Database::apply_with`]
    /// keeps it up to date by delta propagation. The name is a handle
    /// for listings and [`Database::view_named`]; it does **not** enter
    /// the table namespace (use [`Database::materialize_view`] for a
    /// queryable one-shot snapshot).
    ///
    /// Views are runtime subscriptions: they are not persisted by
    /// [`Database::save`] and clones of the database carry independent
    /// copies.
    ///
    /// # Errors
    /// [`DbError::DuplicateView`]; parse/sort/evaluation errors
    /// ([`DbError::Query`]).
    pub fn register_view(&mut self, name: &str, src: impl AsRef<str>) -> Result<ViewId> {
        self.register_view_opts(name, src, QueryOpts::new())
    }

    /// [`Database::register_view`] under explicit [`QueryOpts`]
    /// (execution context, optimizer and compaction knobs — the plan
    /// shaped here is the one deltas propagate through for the view's
    /// lifetime).
    ///
    /// # Errors
    /// See [`Database::register_view`].
    pub fn register_view_opts(
        &mut self,
        name: &str,
        src: impl AsRef<str>,
        opts: QueryOpts<'_>,
    ) -> Result<ViewId> {
        if self.views.iter().any(|v| v.name == name) {
            return Err(DbError::DuplicateView(name.to_owned()));
        }
        let f = itd_query::parse(src.as_ref())?;
        let view = MaintainedView::new(self, &f, opts).map_err(DbError::Query)?;
        let id = ViewId(self.next_view_id);
        self.next_view_id += 1;
        let snapshot = Arc::new(ViewSnapshot::of(name, &view));
        self.views.push(RegisteredView {
            id,
            name: name.to_owned(),
            view,
            snapshot,
            refreshes: 0,
        });
        self.metrics.gauge(RegistryGauge::ViewsRegistered, 1);
        Ok(id)
    }

    /// The current snapshot of a registered view, or `None` for an
    /// unknown (e.g. deregistered) handle. The snapshot reflects the
    /// last [`Database::apply_with`]; mutations made outside `apply_with` are
    /// visible only after the next one.
    pub fn view(&self, id: ViewId) -> Option<Arc<ViewSnapshot>> {
        self.views
            .iter()
            .find(|v| v.id == id)
            .map(|v| Arc::clone(&v.snapshot))
    }

    /// [`Database::view`] by registered name.
    pub fn view_named(&self, name: &str) -> Option<Arc<ViewSnapshot>> {
        self.views
            .iter()
            .find(|v| v.name == name)
            .map(|v| Arc::clone(&v.snapshot))
    }

    /// Identity and counters of every registered view, in registration
    /// order.
    pub fn views(&self) -> Vec<ViewInfo> {
        self.views
            .iter()
            .map(|rv| ViewInfo {
                id: rv.id,
                name: rv.name.clone(),
                query: rv.view.formula().to_string(),
                tuples: rv.view.relation().tuple_count(),
                refreshes: rv.refreshes,
                full_refreshes: rv.view.full_refreshes(),
                delta_rows: rv.view.delta_rows(),
            })
            .collect()
    }

    /// Removes a registered view, dropping its maintained state.
    /// Returns `false` for an unknown handle.
    pub fn deregister_view(&mut self, id: ViewId) -> bool {
        let before = self.views.len();
        self.views.retain(|v| v.id != id);
        if self.views.len() < before {
            self.metrics.gauge(RegistryGauge::ViewsRegistered, -1);
            true
        } else {
            false
        }
    }

    /// Compiles a query *without executing it* (EXPLAIN): the logical
    /// plan next to the plan [`Database::run`] executes under the same
    /// `opts`, both cost-annotated (see [`itd_query::explain`]). Parse
    /// and sort errors are reported exactly as `run` would report them,
    /// but no relation is touched.
    ///
    /// # Errors
    /// Parse/sort errors ([`DbError::Query`]).
    pub fn explain(
        &self,
        src: impl AsRef<str>,
        opts: QueryOpts<'_>,
    ) -> Result<itd_query::ExplainReport> {
        let f = itd_query::parse(src.as_ref())?;
        itd_query::explain(self, &f, opts).map_err(DbError::Query)
    }

    /// Materializes an open query as a new table: the answer relation
    /// becomes the table's contents and the query's free variables its
    /// attribute names.
    ///
    /// Because query answers are themselves generalized relations, the view
    /// is exact over infinite time — it is a snapshot of the *symbolic*
    /// result, not of a window. The query runs under `opts`, as in
    /// [`Database::run`].
    ///
    /// # Errors
    /// [`DbError::DuplicateTable`]; query errors.
    pub fn materialize_view(
        &mut self,
        name: &str,
        src: impl AsRef<str>,
        opts: QueryOpts<'_>,
    ) -> Result<&Table> {
        if self.tables.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_owned()));
        }
        let result = self.run(src, opts)?.result;
        let tnames: Vec<&str> = result.temporal_vars.iter().map(String::as_str).collect();
        let dnames: Vec<&str> = result.data_vars.iter().map(String::as_str).collect();
        let table = self.create_table(name, &tnames, &dnames)?;
        table.set_relation(result.relation)?;
        self.table(name)
    }

    /// Serializes the database to pretty JSON.
    ///
    /// # Errors
    /// [`DbError::Serde`].
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| DbError::serde_caused_by("cannot encode database as JSON", e))
    }

    /// Restores a database from JSON.
    ///
    /// # Errors
    /// [`DbError::Serde`].
    pub fn from_json(json: &str) -> Result<Database> {
        serde_json::from_str(json)
            .map_err(|e| DbError::serde_caused_by("cannot decode database from JSON", e))
    }

    /// Saves to a file.
    ///
    /// # Errors
    /// [`DbError::Serde`] on I/O or encoding failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let json = self.to_json()?;
        let path = path.as_ref();
        std::fs::write(path, json)
            .map_err(|e| DbError::serde_caused_by(format!("cannot write {}", path.display()), e))
    }

    /// Loads from a file.
    ///
    /// # Errors
    /// [`DbError::Serde`] on I/O or decoding failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Database> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| DbError::serde_caused_by(format!("cannot read {}", path.display()), e))?;
        Database::from_json(&json)
    }
}

impl Catalog for Database {
    fn relation(&self, name: &str) -> Option<&GenRelation> {
        self.tables.get(name).map(Table::relation)
    }

    fn plan_token(&self) -> Option<u64> {
        Some(self.plan_token)
    }

    fn active_domain(&self) -> BTreeSet<Value> {
        itd_query::active_domain_of(self.tables.values().map(Table::relation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TupleSpec;

    fn ask(db: &Database, src: &str) -> Result<bool> {
        let ctx = ExecContext::new();
        db.run(src, QueryOpts::new().ctx(&ctx))?
            .truth_in(&ctx)
            .map_err(DbError::Query)
    }

    fn sample() -> Database {
        let mut db = Database::new();
        db.create_table("even", &["t"], &[]).unwrap();
        db.table_mut("even")
            .unwrap()
            .insert(TupleSpec::new().lrp("t", 0, 2))
            .unwrap();
        db
    }

    #[test]
    fn create_drop_lookup() {
        let mut db = sample();
        assert_eq!(db.table_names(), vec!["even"]);
        assert!(matches!(
            db.create_table("even", &["t"], &[]),
            Err(DbError::DuplicateTable(_))
        ));
        assert!(db.table("missing").is_err());
        db.drop_table("even").unwrap();
        assert!(db.drop_table("even").is_err());
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn ask_and_query() {
        let db = sample();
        assert!(ask(&db, "even(4)").unwrap());
        assert!(!ask(&db, "even(5)").unwrap());
        let r = db
            .run("even(t) and t >= 10", QueryOpts::new())
            .unwrap()
            .result;
        assert_eq!(r.temporal_vars, vec!["t"]);
        assert!(r.relation.contains(&[10], &[]));
        assert!(!r.relation.contains(&[8], &[]));
        assert!(matches!(ask(&db, "nosuch(3)"), Err(DbError::Query(_))));
    }

    #[test]
    fn materialized_views() {
        let mut db = sample();
        let view = db
            .materialize_view("late_even", "even(t) and t >= 100", QueryOpts::new())
            .unwrap();
        assert_eq!(view.temporal_names(), &["t".to_string()]);
        assert!(ask(&db, "late_even(100)").unwrap());
        assert!(!ask(&db, "late_even(98)").unwrap());
        assert!(ask(&db, "late_even(1000000)").unwrap());
        // Views can feed further views.
        db.materialize_view("very_late", "late_even(t) and t >= 200", QueryOpts::new())
            .unwrap();
        assert!(ask(&db, "very_late(200)").unwrap());
        assert!(!ask(&db, "very_late(100)").unwrap());
        // Name clashes rejected.
        assert!(matches!(
            db.materialize_view("even", "even(t)", QueryOpts::new()),
            Err(DbError::DuplicateTable(_))
        ));
        // Query errors propagate without creating the table.
        assert!(db
            .materialize_view("bad", "nosuch(t)", QueryOpts::new())
            .is_err());
        assert!(db.table("bad").is_err());
    }

    #[test]
    fn json_roundtrip() {
        let db = sample();
        let json = db.to_json().unwrap();
        let back = Database::from_json(&json).unwrap();
        assert!(ask(&back, "even(4)").unwrap());
        assert!(!ask(&back, "even(5)").unwrap());
        assert!(Database::from_json("not json").is_err());
    }

    #[test]
    fn active_domain_collects_values() {
        let mut db = sample();
        db.create_table("tagged", &["t"], &["who"]).unwrap();
        db.table_mut("tagged")
            .unwrap()
            .insert(TupleSpec::new().lrp("t", 0, 3).datum("who", "alice"))
            .unwrap();
        let adom = db.active_domain();
        assert!(adom.contains(&Value::str("alice")));
        assert_eq!(adom.len(), 1);
    }
}
