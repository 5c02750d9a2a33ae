//! Query evaluation by translation to the generalized relational algebra
//! (§4.2–4.3).
//!
//! Evaluation is plan-driven: the formula is lowered to a [`Plan`] (a tree
//! of [`PlanOp`](crate::PlanOp) nodes), prepared once (optionally
//! rewritten, compaction passes inserted, cost-annotated), and the plan
//! tree is then interpreted by [`Env::exec`]. Each node's output is a bare
//! [`GenRelation`] whose columns are the node's
//! [`temporal_vars`](PlanNode::temporal_vars) and
//! [`data_vars`](PlanNode::data_vars); the executor reads every column
//! name and position from the plan and works out none itself.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use itd_core::{
    Atom, CoreError, ExecContext, GenRelation, GenTuple, Lrp, MetricsRegistry, QueryObservation,
    QueryResourceReport, ResourceCollector, Schema, StatsSnapshot, Trace, Value,
};

use crate::ast::{CmpOp, DataTerm, Formula, TemporalTerm};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::opt::CatalogStats;
use crate::plan::{Plan, PlanNode, PlanOp};
use crate::sortcheck::check_sorts;
use crate::Result;

/// Result of evaluating an open formula: a generalized relation whose
/// temporal columns are named by `temporal_vars` and data columns by
/// `data_vars` (in column order).
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The answer relation.
    pub relation: GenRelation,
    /// Names of the temporal columns.
    pub temporal_vars: Vec<String>,
    /// Names of the data columns.
    pub data_vars: Vec<String>,
    stats: StatsSnapshot,
}

impl QueryResult {
    /// Per-operator execution counters recorded while evaluating this
    /// query (plus whatever the supplied [`ExecContext`] had already
    /// accumulated, when sharing a context across queries).
    pub fn stats(&self) -> &StatsSnapshot {
        &self.stats
    }

    /// Aggregate residue-index effectiveness over the whole evaluation:
    /// `(probed, skipped)` candidate pairs summed across all operators.
    /// `skipped / (probed + skipped)` is the fraction of pairwise work the
    /// index eliminated; both are 0 when no operator consulted an index
    /// (small inputs skip the index).
    pub fn index_effectiveness(&self) -> (u64, u64) {
        self.stats
            .iter()
            .fold((0, 0), |(probed, skipped), (_, op)| {
                (probed + op.index_probes, skipped + op.index_pruned)
            })
    }
}

/// Options for [`run`]: execution context, tracing, and optimization.
///
/// The default runs on a fresh machine-sized context, without tracing,
/// with the cost-guided optimizer **on**:
///
/// ```
/// use itd_query::{run, parse, MemoryCatalog, QueryOpts};
/// use itd_core::{ExecContext, GenRelation, Schema};
/// let mut cat = MemoryCatalog::new();
/// cat.insert("P", GenRelation::empty(Schema::new(1, 0)));
/// let ctx = ExecContext::serial();
/// let out = run(
///     &cat,
///     &parse("exists t. P(t)")?,
///     QueryOpts::new().ctx(&ctx).optimize(false),
/// )?;
/// assert!(!out.truth_in(&ctx)?);
/// # Ok::<(), itd_query::QueryError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QueryOpts<'a> {
    pub(crate) ctx: Option<&'a ExecContext>,
    pub(crate) metrics: Option<&'a MetricsRegistry>,
    pub(crate) trace: bool,
    pub(crate) optimize: bool,
    pub(crate) compact: bool,
}

impl Default for QueryOpts<'_> {
    fn default() -> Self {
        QueryOpts {
            ctx: None,
            metrics: None,
            trace: false,
            optimize: true,
            compact: true,
        }
    }
}

impl<'a> QueryOpts<'a> {
    /// The defaults: fresh context, no tracing, optimizer on, adaptive
    /// compaction on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluate under this execution context (thread budget, accumulated
    /// counters) instead of a fresh one.
    pub fn ctx(mut self, ctx: &'a ExecContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Report this query to a cross-query [`MetricsRegistry`] when it
    /// finishes: wall time, per-op counters (this query's delta only, even
    /// on a shared context), and its [`QueryResourceReport`].
    pub fn metrics(mut self, registry: &'a MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach `registry` only if no registry is attached yet — how
    /// `Database::run` injects its own registry without overriding an
    /// explicit caller choice.
    pub fn metrics_default(mut self, registry: &'a MetricsRegistry) -> Self {
        if self.metrics.is_none() {
            self.metrics = Some(registry);
        }
        self
    }

    /// Record a span tree (EXPLAIN ANALYZE). With a caller-supplied
    /// context the context must be traced ([`ExecContext::traced`]) for
    /// spans to be captured; a fresh context is created traced
    /// automatically.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Run the cost-guided plan rewriter before executing (default
    /// `true`). Off executes the direct lowering of the formula —
    /// operator for operator what the pre-plan evaluator did.
    pub fn optimize(mut self, on: bool) -> Self {
        self.optimize = on;
        self
    }

    /// Insert adaptive compaction passes — subsumption pruning plus
    /// residue coalescing — between plan nodes where the cost model
    /// predicts a quadratic consumer will pay for them (default `true`).
    /// Works with or without the optimizer; the inserted
    /// [`PlanOp::Compact`](crate::PlanOp) nodes appear in the returned
    /// plan, so EXPLAIN shows exactly the passes that ran. The answer
    /// denotes the same set either way — compaction may leave it in a
    /// coarser (smaller) representation — and each mode separately is
    /// bit-identical, results and counters, at any thread count.
    pub fn compact(mut self, on: bool) -> Self {
        self.compact = on;
        self
    }
}

/// Everything one query run produces: the answer, the plan that was
/// executed, and (when requested) the recorded span tree.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The answer relation plus aggregate statistics.
    pub result: QueryResult,
    /// The plan that was executed — the direct lowering, or the rewritten
    /// plan when [`QueryOpts::optimize`] was on (its
    /// [`rewrites`](Plan::rewrites) then lists the fired rules).
    pub plan: Plan,
    /// The recorded span tree; `Some` exactly when [`QueryOpts::trace`]
    /// was on and the context captured spans.
    pub trace: Option<Trace>,
    /// Resource accounting for this evaluation: peak live intermediate
    /// rows, tuples allocated, and arena/cache deltas over the query's
    /// execution window.
    pub resources: QueryResourceReport,
    /// `true` when this run was served by the prepared-plan cache —
    /// parse (for [`run_src`]), sort-check, lowering and the optimizer
    /// were all skipped and the cached plan executed directly.
    pub plan_cached: bool,
    /// The cost model's whole-plan total-pairs estimate computed at
    /// preparation time (see [`estimate_src`]): the executed plan root's
    /// `est.total_pairs`, which admission control compared against its
    /// budget before this run.
    pub est_total_pairs: f64,
}

impl QueryOutput {
    /// The yes/no reading of the answer (Theorem 4.1): project to the
    /// nullary relation and test non-emptiness, closing any free
    /// variables existentially. Runs the projection on `ctx` so its
    /// counters land with the query's (pass the query's own context, or
    /// `&ExecContext::new()` for a throwaway one).
    ///
    /// # Errors
    /// Algebra failures; see [`QueryError`].
    pub fn truth_in(&self, ctx: &ExecContext) -> Result<bool> {
        let closed = self
            .result
            .relation
            .project_in(&[], &[], ctx)
            .map_err(QueryError::Core)?;
        Ok(!closed.denotes_empty().map_err(QueryError::Core)?)
    }
}

/// Evaluates a formula: the single entry point behind the old `evaluate*`
/// family. Lowers to a [`Plan`], optionally optimizes it, and interprets
/// the plan tree over the catalog.
///
/// # Errors
/// Sort/arity errors and algebra failures; see [`QueryError`].
///
/// # Examples
/// ```
/// use itd_query::{run, parse, MemoryCatalog, QueryOpts};
/// use itd_core::{ExecContext, GenRelation, GenTuple, Lrp, Schema};
/// let mut cat = MemoryCatalog::new();
/// let mut even = GenRelation::empty(Schema::new(1, 0));
/// even.push(GenTuple::unconstrained(vec![Lrp::new(0, 2).unwrap()], vec![])).unwrap();
/// cat.insert("Even", even);
/// let ctx = ExecContext::new();
/// let out = run(&cat, &parse("exists t. Even(t)")?, QueryOpts::new().ctx(&ctx))?;
/// assert!(out.truth_in(&ctx)?);
/// # Ok::<(), itd_query::QueryError>(())
/// ```
pub fn run(catalog: &impl Catalog, formula: &Formula, opts: QueryOpts<'_>) -> Result<QueryOutput> {
    run_keyed(catalog, &formula.to_string(), || Ok(formula.clone()), opts)
}

/// [`run`] from source text. With a plan-token catalog and a warm
/// prepared-plan cache, the parser is skipped too: the raw source is the
/// cache key, so a repeated `run_src` goes straight from text to plan
/// execution.
///
/// # Errors
/// Parse errors in addition to everything [`run`] reports.
pub fn run_src(catalog: &impl Catalog, src: &str, opts: QueryOpts<'_>) -> Result<QueryOutput> {
    run_keyed(catalog, src, || crate::parser::parse(src), opts)
}

/// The shared entry path: consult the prepared-plan cache under `text`
/// (when the catalog carries a plan token), fall back to full
/// preparation — `make_formula` (a parse or a clone), sort-check,
/// lowering, optimizer — on a miss, then execute.
fn run_keyed(
    catalog: &impl Catalog,
    text: &str,
    make_formula: impl FnOnce() -> Result<Formula>,
    opts: QueryOpts<'_>,
) -> Result<QueryOutput> {
    let (prepared, plan_cached) = prepare_keyed(catalog, text, make_formula, &opts)?;
    exec_prepared(catalog, &prepared, plan_cached, opts)
}

/// Cache-aware preparation: returns the prepared plan for `text` and
/// whether it came from the cache, inserting on a miss.
fn prepare_keyed(
    catalog: &impl Catalog,
    text: &str,
    make_formula: impl FnOnce() -> Result<Formula>,
    opts: &QueryOpts<'_>,
) -> Result<(Arc<crate::plancache::PreparedPlan>, bool)> {
    if let Some(token) = catalog.plan_token() {
        if let Some(prepared) = crate::plancache::lookup(token, text, opts.optimize, opts.compact) {
            return Ok((prepared, true));
        }
        let prepared = Arc::new(prepare(catalog, &make_formula()?, opts)?);
        crate::plancache::insert(
            token,
            text.to_owned(),
            opts.optimize,
            opts.compact,
            Arc::clone(&prepared),
        );
        return Ok((prepared, false));
    }
    // `plan_token() == None` opts out of the prepared-plan cache entirely;
    // count the bypass so the silent opt-out is observable in
    // `plan_cache_stats()`.
    crate::plancache::count_bypass();
    let prepared = Arc::new(prepare(catalog, &make_formula()?, opts)?);
    Ok((prepared, false))
}

/// The cost model's whole-plan total-pairs estimate for `src` — the
/// pre-execution admission-control number — without executing anything.
///
/// Shares [`run_src`]'s prepared-plan cache path: on a warm cache the
/// estimate is one lookup, and the preparation an estimate performs is
/// reused verbatim by the `run_src` that follows an admission decision.
/// Estimates are computed against the catalog statistics current at
/// preparation time; catalogs that rotate their plan token on mutation
/// keep them fresh automatically.
///
/// # Errors
/// Parse and sort/arity errors; see [`QueryError`]. Estimation never
/// touches relation data, so algebra failures cannot occur here.
pub fn estimate_src(catalog: &impl Catalog, src: &str, opts: QueryOpts<'_>) -> Result<f64> {
    let (prepared, _) = prepare_keyed(catalog, src, || crate::parser::parse(src), &opts)?;
    Ok(prepared.plan.est_total_pairs())
}

/// The pure preparation pipeline: sort-check, lower to a [`Plan`], and
/// shape it under the given options (optimizer, compaction passes,
/// cost annotations) — everything a warm plan-cache hit skips.
pub(crate) fn prepare(
    catalog: &impl Catalog,
    formula: &Formula,
    opts: &QueryOpts<'_>,
) -> Result<crate::plancache::PreparedPlan> {
    Ok(prepare_inner(catalog, formula, opts, false)?.0)
}

/// [`prepare`] for plans that must stay valid as the catalog's
/// *contents* change (registered views pin their plan for life): the
/// optimizer runs in dynamic mode, never folding a currently-empty
/// scan to [`crate::PlanOp::Empty`]. The prepared-plan cache needs no
/// such mode — its entries are invalidated by token rotation on every
/// mutation.
pub(crate) fn prepare_dynamic(
    catalog: &impl Catalog,
    formula: &Formula,
    opts: &QueryOpts<'_>,
) -> Result<crate::plancache::PreparedPlan> {
    Ok(prepare_inner(catalog, formula, opts, true)?.0)
}

/// The preparation behind [`prepare`] and [`prepare_dynamic`], also
/// handing back the catalog statistics it gathered over the lowered plan
/// (EXPLAIN annotates the logical plan from them).
pub(crate) fn prepare_inner(
    catalog: &impl Catalog,
    formula: &Formula,
    opts: &QueryOpts<'_>,
    dynamic: bool,
) -> Result<(crate::plancache::PreparedPlan, CatalogStats)> {
    let (f, _sorts) = check_sorts(catalog, formula)?;
    let plan = Plan::of(&f);
    let stats = CatalogStats::gather(catalog, &plan);
    let plan = crate::opt::prepare(&stats, plan, opts.optimize, opts.compact, dynamic);
    Ok((crate::plancache::PreparedPlan { formula: f, plan }, stats))
}

/// Executes a prepared plan: context setup, resource accounting, plan
/// interpretation, metrics observation.
fn exec_prepared(
    catalog: &impl Catalog,
    prepared: &crate::plancache::PreparedPlan,
    plan_cached: bool,
    opts: QueryOpts<'_>,
) -> Result<QueryOutput> {
    let f = &prepared.formula;
    let plan = &prepared.plan;
    let fresh;
    let ctx = match opts.ctx {
        Some(ctx) => ctx,
        None => {
            fresh = if opts.trace {
                ExecContext::new().traced()
            } else {
                ExecContext::new()
            };
            &fresh
        }
    };
    let before = ctx.stats();
    let collector = ResourceCollector::start();
    let started = Instant::now();
    let (result, peak_rows) = exec_plan(catalog, f, plan, ctx)?;
    let wall_nanos = started.elapsed().as_nanos() as u64;
    let delta = ctx.stats().delta_since(&before);
    let resources = collector.finish(peak_rows, &delta);
    if let Some(registry) = opts.metrics {
        // Rendering is deferred: the registry calls back only if this
        // query actually enters the slow-query log.
        let render = || (f.to_string(), plan.render());
        registry.observe_query(QueryObservation {
            render: &render,
            wall_nanos,
            stats: &delta,
            resources: &resources,
        });
    }
    let trace = if opts.trace { ctx.take_trace() } else { None };
    Ok(QueryOutput {
        result,
        plan: plan.clone(),
        trace,
        resources,
        plan_cached,
        est_total_pairs: plan.est_total_pairs(),
    })
}

/// Executes a plan over the catalog. The active domain comes from the
/// catalog and the *formula* (not the plan), so optimized and unoptimized
/// runs of the same query agree on it even when rewrites drop subtrees.
fn exec_plan(
    catalog: &impl Catalog,
    f: &Formula,
    plan: &Plan,
    ctx: &ExecContext,
) -> Result<(QueryResult, u64)> {
    // An already-expired deadline aborts before any work, even for plans
    // too small to reach a chunked loop.
    ctx.check_cancelled().map_err(QueryError::Core)?;
    let env = Env::new(catalog, adom_for(catalog, f), ctx, false);
    let result = QueryResult {
        relation: env.exec(plan.root())?,
        temporal_vars: plan.root().temporal_vars.clone(),
        data_vars: plan.root().data_vars.clone(),
        stats: ctx.stats(),
    };
    Ok((result, env.peak_rows.get()))
}

/// The active domain a formula evaluates under: every data value in the
/// catalog plus every data constant in the formula, deduplicated and in
/// `Value` order. Shared with view maintenance, which compares it across
/// refreshes to decide whether cached adom-dependent subplans survive.
pub(crate) fn adom_for(catalog: &impl Catalog, f: &Formula) -> Vec<Value> {
    let mut adom: BTreeSet<Value> = catalog.active_domain();
    collect_constants(f, &mut adom);
    adom.into_iter().collect()
}

/// Adds data constants appearing in the formula to the active domain.
fn collect_constants(f: &Formula, adom: &mut BTreeSet<Value>) {
    match f {
        Formula::Pred { data, .. } => {
            for d in data {
                if let DataTerm::Const(v) = d {
                    adom.insert(v.clone());
                }
            }
        }
        Formula::DataCmp { left, right, .. } => {
            for d in [left, right] {
                if let DataTerm::Const(v) = d {
                    adom.insert(v.clone());
                }
            }
        }
        Formula::Not(inner) => collect_constants(inner, adom),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            collect_constants(a, adom);
            collect_constants(b, adom);
        }
        Formula::Exists { body, .. } | Formula::Forall { body, .. } => {
            collect_constants(body, adom)
        }
        _ => {}
    }
}

pub(crate) struct Env<'a, C: Catalog> {
    catalog: &'a C,
    pub(crate) adom: Vec<Value>,
    ctx: &'a ExecContext,
    /// Rows of plan-node outputs currently alive (the driver walks the
    /// plan single-threaded, so plain `Cell`s suffice).
    live_rows: Cell<u64>,
    /// High-water mark of `live_rows`; tuple counts are bit-identical at
    /// any thread count, so this is deterministic too.
    peak_rows: Cell<u64>,
    /// When present, [`Env::exec`] deposits a clone of every plan node's
    /// output (an `Arc` snapshot, so cheap) keyed by node id — the
    /// per-node cache view maintenance propagates deltas against.
    record: Option<RefCell<HashMap<u64, GenRelation>>>,
}

impl<'a, C: Catalog> Env<'a, C> {
    pub(crate) fn new(
        catalog: &'a C,
        adom: Vec<Value>,
        ctx: &'a ExecContext,
        recording: bool,
    ) -> Env<'a, C> {
        Env {
            catalog,
            adom,
            ctx,
            live_rows: Cell::new(0),
            peak_rows: Cell::new(0),
            record: recording.then(|| RefCell::new(HashMap::new())),
        }
    }

    /// The execution context this environment runs operators under.
    pub(crate) fn ctx(&self) -> &ExecContext {
        self.ctx
    }

    /// Drains the recorded per-node outputs (empty unless constructed with
    /// `recording = true`).
    pub(crate) fn take_record(&self) -> HashMap<u64, GenRelation> {
        self.record
            .as_ref()
            .map(|r| std::mem::take(&mut *r.borrow_mut()))
            .unwrap_or_default()
    }
}

/// The position of `var`'s first occurrence in the column list `cols`.
/// Every column a plan node outputs comes from its input, so the lookup
/// cannot miss.
fn column<'v>(mut cols: impl Iterator<Item = &'v String>, var: &str) -> usize {
    cols.position(|c| c == var)
        .expect("a node's column comes from its input")
}

/// `have`'s columns followed by `want`'s variables missing from them, in
/// `want`'s order: the columns [`Env::pad`] builds before permuting.
fn padded<'v>(have: &'v [String], want: &'v [String]) -> impl Iterator<Item = &'v String> + Clone {
    have.iter()
        .chain(want.iter().filter(move |v| !have.contains(v)))
}

/// [`column`] for each of `vars`, in order: the keep/permutation list
/// that projects `cols` onto `vars`.
fn columns<'v>(vars: &[String], cols: impl Iterator<Item = &'v String> + Clone) -> Vec<usize> {
    vars.iter().map(|v| column(cols.clone(), v)).collect()
}

impl<C: Catalog> Env<'_, C> {
    /// The 0-ary relation denoting `truth`.
    fn unit(truth: bool) -> GenRelation {
        let mut rel = GenRelation::empty(Schema::new(0, 0));
        if truth {
            rel.push(GenTuple::unconstrained(vec![], vec![]))
                .expect("schema matches");
        }
        rel
    }

    /// The one-data-column relation enumerating the active domain.
    pub(crate) fn adom_relation(&self) -> GenRelation {
        let mut rel = GenRelation::empty(Schema::new(0, 1));
        for v in &self.adom {
            rel.push(GenTuple::unconstrained(vec![], vec![v.clone()]))
                .expect("schema matches");
        }
        rel
    }

    /// The full space `Z^t × adom^d` over `schema`'s columns.
    pub(crate) fn full_for(&self, schema: Schema) -> Result<GenRelation> {
        let mut rel = GenRelation::full_temporal(Schema::new(schema.temporal(), 0))
            .map_err(QueryError::Core)?;
        for _ in 0..schema.data() {
            rel = rel
                .cross_product_in(&self.adom_relation(), self.ctx)
                .map_err(QueryError::Core)?;
        }
        Ok(rel)
    }

    /// Interprets one plan node, recording a node span carrying the
    /// node's stable id when the context is traced — the id is what
    /// EXPLAIN ANALYZE joins plan and trace on. The output's columns are
    /// the node's [`temporal_vars`](PlanNode::temporal_vars) and
    /// [`data_vars`](PlanNode::data_vars).
    pub(crate) fn exec(&self, n: &PlanNode) -> Result<GenRelation> {
        let span = self.ctx.plan_span(n.id, || n.label.clone());
        let before = self.live_rows.get();
        let rel = self.exec_arm(n)?;
        debug_assert_eq!(rel.schema(), n.schema(), "node {} output columns", n.id);
        let out = rel.tuple_count() as u64;
        // While the operator ran, its children's outputs were still live
        // (`live_rows` is now `before` + their row counts); this node's
        // output coexists with them for a moment before they are dropped,
        // so that sum is the node's contribution to the high-water mark.
        let high = self.live_rows.get() + out;
        self.peak_rows.set(self.peak_rows.get().max(high));
        self.live_rows.set(before + out);
        span.set_tuples_out(out);
        if let Some(rec) = &self.record {
            rec.borrow_mut().insert(n.id, rel.clone());
        }
        Ok(rel)
    }

    fn exec_arm(&self, n: &PlanNode) -> Result<GenRelation> {
        let child = |i: usize| self.exec(&n.children[i]);
        match &n.op {
            PlanOp::Unit(truth) => Ok(Self::unit(*truth)),
            PlanOp::Scan { .. } => self.scan(n),
            PlanOp::TempCmp { left, op, right } => self.eval_temp_cmp(left, *op, right),
            PlanOp::DataCmp { left, eq, right } => self.eval_data_cmp(left, *eq, right),
            PlanOp::Conjoin => {
                let (a, b) = (child(0)?, child(1)?);
                self.conjoin(n, a, b)
            }
            PlanOp::Disjoin => {
                let (a, b) = (child(0)?, child(1)?);
                self.disjoin(n, a, b)
            }
            PlanOp::ProjectOut { .. } => self.project_out(n, child(0)?),
            PlanOp::Difference => {
                let (l, r) = (child(0)?, child(1)?);
                self.difference(n, l, r)
            }
            PlanOp::Full => self.full_for(n.schema()),
            PlanOp::Pass => child(0),
            PlanOp::Empty => Ok(GenRelation::empty(n.schema())),
            PlanOp::Arrange => self.pad(child(0)?, &n.children[0], n),
            PlanOp::Compact => child(0)?.compact_in(self.ctx).map_err(QueryError::Core),
        }
    }

    /// The scan node `n` over its base relation's current contents.
    pub(crate) fn scan(&self, n: &PlanNode) -> Result<GenRelation> {
        let PlanOp::Scan { name, .. } = &n.op else {
            unreachable!("scan runs a scan node");
        };
        let base = self
            .catalog
            .relation(name)
            .ok_or_else(|| QueryError::UnknownPredicate(name.to_owned()))?;
        self.eval_pred_on(n, base.clone())
    }

    /// The scan pipeline of node `n` (selections for constants and
    /// repeated variables, shifts for successor terms, final projection
    /// onto the node's columns) applied to an explicit base relation. The
    /// pipeline is per-row, so view maintenance runs it over
    /// mini-relations holding just a delta's inserted or retracted rows
    /// and gets exactly the delta of the scan's output.
    pub(crate) fn eval_pred_on(&self, n: &PlanNode, base: GenRelation) -> Result<GenRelation> {
        let PlanOp::Scan { temporal, data, .. } = &n.op else {
            unreachable!("eval_pred_on runs a scan node");
        };
        let mut rel = base;

        // Temporal arguments: column i currently holds the term value. The
        // first column bound to each of the node's variables is kept; later
        // ones are selected equal to it.
        let mut tkeep: Vec<Option<usize>> = vec![None; n.temporal_vars.len()];
        for (col, term) in temporal.iter().enumerate() {
            match term {
                TemporalTerm::Const(c) => {
                    rel = rel
                        .select_temporal_in(Atom::eq(col, *c), self.ctx)
                        .map_err(QueryError::Core)?;
                }
                TemporalTerm::Var { name, shift } => {
                    if *shift != 0 {
                        // column = var + shift ⇒ shift the column by −shift
                        // so it equals the variable.
                        let delta =
                            shift
                                .checked_neg()
                                .ok_or(QueryError::Core(CoreError::Numth(
                                    itd_numth::NumthError::Overflow,
                                )))?;
                        rel = rel
                            .shift_temporal_in(col, delta, self.ctx)
                            .map_err(QueryError::Core)?;
                    }
                    let slot = &mut tkeep[column(n.temporal_vars.iter(), name)];
                    match *slot {
                        Some(first) => {
                            rel = rel
                                .select_temporal_in(Atom::diff_eq(first, col, 0), self.ctx)
                                .map_err(QueryError::Core)?;
                        }
                        None => *slot = Some(col),
                    }
                }
            }
        }

        // Data arguments.
        let mut dkeep: Vec<Option<usize>> = vec![None; n.data_vars.len()];
        for (col, term) in data.iter().enumerate() {
            match term {
                DataTerm::Const(v) => {
                    let v = v.clone();
                    rel = rel.select_data_in(move |d| d[col] == v, self.ctx);
                }
                DataTerm::Var(name) => {
                    let slot = &mut dkeep[column(n.data_vars.iter(), name)];
                    match *slot {
                        Some(first) => {
                            rel = rel.select_data_in(move |d| d[first] == d[col], self.ctx);
                        }
                        None => *slot = Some(col),
                    }
                }
            }
        }

        let tkeep: Vec<usize> = tkeep.into_iter().flatten().collect();
        let dkeep: Vec<usize> = dkeep.into_iter().flatten().collect();
        rel.project_in(&tkeep, &dkeep, self.ctx)
            .map_err(QueryError::Core)
    }

    fn eval_temp_cmp(
        &self,
        left: &TemporalTerm,
        op: CmpOp,
        right: &TemporalTerm,
    ) -> Result<GenRelation> {
        let overflow = || QueryError::Core(CoreError::Numth(itd_numth::NumthError::Overflow));
        // Atoms for `X(col_l) op X(col_r) + c` or `X op c`, split for `!=`.
        fn diff_atoms(op: CmpOp, i: usize, j: usize, c: i64) -> Option<Vec<Atom>> {
            Some(match op {
                CmpOp::Le => vec![Atom::diff_le(i, j, c)],
                CmpOp::Lt => vec![Atom::diff_le(i, j, c.checked_sub(1)?)],
                CmpOp::Eq => vec![Atom::diff_eq(i, j, c)],
                CmpOp::Ge => vec![Atom::diff_ge(i, j, c)?],
                CmpOp::Gt => vec![Atom::diff_ge(i, j, c.checked_add(1)?)?],
                CmpOp::Ne => vec![
                    Atom::diff_le(i, j, c.checked_sub(1)?),
                    Atom::diff_ge(i, j, c.checked_add(1)?)?,
                ],
            })
        }
        fn const_atoms(op: CmpOp, i: usize, c: i64) -> Option<Vec<Atom>> {
            Some(match op {
                CmpOp::Le => vec![Atom::le(i, c)],
                CmpOp::Lt => vec![Atom::lt(i, c)?],
                CmpOp::Eq => vec![Atom::eq(i, c)],
                CmpOp::Ge => vec![Atom::ge(i, c)],
                CmpOp::Gt => vec![Atom::gt(i, c)?],
                CmpOp::Ne => vec![Atom::lt(i, c)?, Atom::gt(i, c)?],
            })
        }
        // Each atom in the list is one tuple over `arity` unconstrained
        // temporal columns (their union is the relation).
        let constrained = |arity: usize, atoms: Vec<Atom>| -> Result<GenRelation> {
            let mut rel = GenRelation::empty(Schema::new(arity, 0));
            for a in atoms {
                rel.push(
                    GenTuple::builder()
                        .lrps(vec![Lrp::all(); arity])
                        .atoms([a])
                        .build()
                        .map_err(QueryError::Core)?,
                )
                .map_err(QueryError::Core)?;
            }
            Ok(rel)
        };
        match (left, right) {
            (TemporalTerm::Const(a), TemporalTerm::Const(b)) => Ok(Self::unit(op.eval(*a, *b))),
            (TemporalTerm::Var { shift, .. }, TemporalTerm::Const(c)) => {
                // v + s op c ⇔ v op c − s
                let c = c.checked_sub(*shift).ok_or_else(overflow)?;
                constrained(1, const_atoms(op, 0, c).ok_or_else(overflow)?)
            }
            (TemporalTerm::Const(c), TemporalTerm::Var { shift, .. }) => {
                // c op v + s ⇔ v op' c − s with the operator mirrored.
                let c = c.checked_sub(*shift).ok_or_else(overflow)?;
                constrained(1, const_atoms(op.mirrored(), 0, c).ok_or_else(overflow)?)
            }
            (
                TemporalTerm::Var {
                    name: n1,
                    shift: s1,
                },
                TemporalTerm::Var {
                    name: n2,
                    shift: s2,
                },
            ) => {
                if n1 == n2 {
                    // v + s1 op v + s2 ⇔ s1 op s2, but v stays free.
                    return if op.eval(*s1, *s2) {
                        GenRelation::full_temporal(Schema::new(1, 0)).map_err(QueryError::Core)
                    } else {
                        Ok(GenRelation::empty(Schema::new(1, 0)))
                    };
                }
                // v1 + s1 op v2 + s2 ⇔ v1 op v2 + (s2 − s1)
                let c = s2.checked_sub(*s1).ok_or_else(overflow)?;
                constrained(2, diff_atoms(op, 0, 1, c).ok_or_else(overflow)?)
            }
        }
    }

    fn eval_data_cmp(&self, left: &DataTerm, eq: bool, right: &DataTerm) -> Result<GenRelation> {
        let mk = |arity: usize, tuples: Vec<Vec<Value>>| -> Result<GenRelation> {
            let mut rel = GenRelation::empty(Schema::new(0, arity));
            for data in tuples {
                rel.push(GenTuple::unconstrained(vec![], data))
                    .map_err(QueryError::Core)?;
            }
            Ok(rel)
        };
        match (left, right) {
            (DataTerm::Const(a), DataTerm::Const(b)) => Ok(Self::unit((a == b) == eq)),
            (DataTerm::Var(_), DataTerm::Const(v)) | (DataTerm::Const(v), DataTerm::Var(_)) => {
                let tuples: Vec<Vec<Value>> = if eq {
                    vec![vec![v.clone()]]
                } else {
                    self.adom
                        .iter()
                        .filter(|d| *d != v)
                        .map(|d| vec![d.clone()])
                        .collect()
                };
                mk(1, tuples)
            }
            (DataTerm::Var(x), DataTerm::Var(y)) => {
                if x == y {
                    let tuples: Vec<Vec<Value>> = if eq {
                        self.adom.iter().map(|d| vec![d.clone()]).collect()
                    } else {
                        vec![]
                    };
                    return mk(1, tuples);
                }
                let mut tuples = Vec::new();
                for a in &self.adom {
                    for b in &self.adom {
                        if (a == b) == eq {
                            tuples.push(vec![a.clone(), b.clone()]);
                        }
                    }
                }
                mk(2, tuples)
            }
        }
    }

    /// `φ ∧ ¬ψ` (difference node `n` over `l` and `r`, which have its
    /// children's columns) = `l` minus what [`Env::matched`] finds of `r`
    /// in it.
    pub(crate) fn difference(
        &self,
        n: &PlanNode,
        l: GenRelation,
        r: GenRelation,
    ) -> Result<GenRelation> {
        let matched = self.matched(n, &l, r)?;
        l.difference_in(&matched, self.ctx)
            .map_err(QueryError::Core)
    }

    /// What difference node `n` subtracts from `l` for `r`, over `n`'s
    /// columns: `r` itself when it has `l`'s variables (permuted only when
    /// the order differs), else `π(l ⋈ r)`, the part of `l` that `r`
    /// matches on its fewer variables.
    pub(crate) fn matched(
        &self,
        n: &PlanNode,
        l: &GenRelation,
        r: GenRelation,
    ) -> Result<GenRelation> {
        let right = &n.children[1];
        if right.temporal_vars == n.temporal_vars && right.data_vars == n.data_vars {
            Ok(r)
        } else if right.schema() == n.schema() {
            self.pad(r, right, n)
        } else {
            self.conjoin(n, l.clone(), r)
        }
    }

    /// `φ ∧ ψ` (conjoin node `n` over `a` and `b`, which have its
    /// children's columns) = join on shared variables, then project onto
    /// `n`'s columns, which keep each variable once.
    pub(crate) fn conjoin(
        &self,
        n: &PlanNode,
        a: GenRelation,
        b: GenRelation,
    ) -> Result<GenRelation> {
        let (l, r) = (&n.children[0], &n.children[1]);
        let shared = |lv: &[String], rv: &[String]| -> Vec<(usize, usize)> {
            rv.iter()
                .enumerate()
                .filter_map(|(j, v)| Some((lv.iter().position(|w| w == v)?, j)))
                .collect()
        };
        let joined = a
            .join_on_in(
                &b,
                &shared(&l.temporal_vars, &r.temporal_vars),
                &shared(&l.data_vars, &r.data_vars),
                self.ctx,
            )
            .map_err(QueryError::Core)?;
        // The joined columns are `a`'s then `b`'s: a shared variable's
        // first occurrence is its `a` column.
        let tkeep = columns(
            &n.temporal_vars,
            l.temporal_vars.iter().chain(&r.temporal_vars),
        );
        let dkeep = columns(&n.data_vars, l.data_vars.iter().chain(&r.data_vars));
        joined
            .project_in(&tkeep, &dkeep, self.ctx)
            .map_err(QueryError::Core)
    }

    /// `φ ∨ ψ` (disjoin node `n`) = union after padding both sides to
    /// `n`'s columns.
    pub(crate) fn disjoin(
        &self,
        n: &PlanNode,
        a: GenRelation,
        b: GenRelation,
    ) -> Result<GenRelation> {
        let pa = self.pad(a, &n.children[0], n)?;
        let pb = self.pad(b, &n.children[1], n)?;
        pa.union_in(&pb, self.ctx).map_err(QueryError::Core)
    }

    /// Extends `rel` (with `from`'s columns) by unconstrained columns for
    /// the variables of `to` it lacks, then permutes to `to`'s columns.
    pub(crate) fn pad(
        &self,
        rel: GenRelation,
        from: &PlanNode,
        to: &PlanNode,
    ) -> Result<GenRelation> {
        let tcols = padded(&from.temporal_vars, &to.temporal_vars);
        let dcols = padded(&from.data_vars, &to.data_vars);
        let mut rel = rel;
        for _ in from.temporal_vars.len()..tcols.clone().count() {
            rel = rel
                .cross_product_in(
                    &GenRelation::full_temporal(Schema::new(1, 0)).map_err(QueryError::Core)?,
                    self.ctx,
                )
                .map_err(QueryError::Core)?;
        }
        for _ in from.data_vars.len()..dcols.clone().count() {
            rel = rel
                .cross_product_in(&self.adom_relation(), self.ctx)
                .map_err(QueryError::Core)?;
        }
        let tperm = columns(&to.temporal_vars, tcols);
        let dperm = columns(&to.data_vars, dcols);
        rel.project_in(&tperm, &dperm, self.ctx)
            .map_err(QueryError::Core)
    }

    /// `∃var` (projection node `n` over `rel`, which has its child's
    /// columns) = keep `n`'s columns. A no-op when the child has no column
    /// for the variable — then `∃v.φ ≡ φ` since both sorts are nonempty...
    /// except the data sort with an empty active domain, which correctly
    /// yields an empty padding anyway because `φ` cannot mention data
    /// either.
    ///
    /// The child's column lists are authoritative for where the variable
    /// lives — a variable may acquire its data sort only through atom
    /// reclassification, in which case the global sort map does not
    /// record it.
    pub(crate) fn project_out(&self, n: &PlanNode, rel: GenRelation) -> Result<GenRelation> {
        let child = &n.children[0];
        if child.schema() == n.schema() {
            return Ok(rel);
        }
        let tkeep = columns(&n.temporal_vars, child.temporal_vars.iter());
        let dkeep = columns(&n.data_vars, child.data_vars.iter());
        rel.project_in(&tkeep, &dkeep, self.ctx)
            .map_err(QueryError::Core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use crate::parser::parse;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    /// A catalog with:
    /// * `Even(t)` — even time points,
    /// * `Blink(t1, t2; name)` — intervals [t, t+2] starting at even t for
    ///   "fast", [t, t+5] at multiples of 10 for "slow".
    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.insert(
            "Even",
            GenRelation::new(
                Schema::new(1, 0),
                vec![GenTuple::unconstrained(vec![lrp(0, 2)], vec![])],
            )
            .unwrap(),
        );
        cat.insert(
            "Blink",
            GenRelation::new(
                Schema::new(2, 1),
                vec![
                    GenTuple::builder()
                        .lrps(vec![lrp(0, 2), lrp(0, 2)])
                        .atoms([Atom::diff_eq(1, 0, 2)])
                        .data(vec![Value::str("fast")])
                        .build()
                        .unwrap(),
                    GenTuple::builder()
                        .lrps(vec![lrp(0, 10), lrp(5, 10)])
                        .atoms([Atom::diff_eq(1, 0, 5)])
                        .data(vec![Value::str("slow")])
                        .build()
                        .unwrap(),
                ],
            )
            .unwrap(),
        );
        cat
    }

    /// Yes/no through the default (optimizing) pipeline.
    fn ask(src: &str) -> bool {
        run(&catalog(), &parse(src).unwrap(), QueryOpts::new())
            .unwrap()
            .truth_in(&ExecContext::new())
            .unwrap()
    }

    /// Same query with the optimizer off; used to cross-check.
    fn ask_unopt(src: &str) -> bool {
        run(
            &catalog(),
            &parse(src).unwrap(),
            QueryOpts::new().optimize(false),
        )
        .unwrap()
        .truth_in(&ExecContext::new())
        .unwrap()
    }

    fn eval_open(src: &str) -> QueryResult {
        run(&catalog(), &parse(src).unwrap(), QueryOpts::new())
            .unwrap()
            .result
    }

    #[test]
    fn atoms_and_constants() {
        assert!(ask("Even(0)"));
        assert!(ask("Even(42)"));
        assert!(!ask("Even(3)"));
        assert!(ask("Even(-100)"));
    }

    #[test]
    fn exists_over_infinite_time() {
        assert!(ask("exists t. Even(t) and t >= 1000000"));
        assert!(ask("exists t. Even(t) and t <= -1000000"));
        assert!(!ask("exists t. Even(t) and Even(t + 1)"));
        assert!(ask("exists t. Even(t) and Even(t + 2)"));
    }

    #[test]
    fn forall_over_infinite_time() {
        // Every even t has an even successor's successor.
        assert!(ask("forall t. Even(t) implies Even(t + 2)"));
        assert!(!ask("forall t. Even(t)"));
        // Everything is even or odd.
        assert!(ask("forall t. Even(t) or Even(t + 1)"));
    }

    #[test]
    fn successor_terms() {
        assert!(ask("exists t. Even(t) and t + 1 = 7"));
        assert!(!ask("exists t. Even(t) and t + 1 = 8"));
        assert!(ask("exists t. Even(t - 6) and t = 0"));
    }

    #[test]
    fn data_arguments_and_quantifiers() {
        assert!(ask(r#"exists t1. exists t2. Blink(t1, t2; "fast")"#));
        assert!(ask(r#"exists x. exists t1. exists t2. Blink(t1, t2; x)"#));
        assert!(!ask(r#"exists t1. exists t2. Blink(t1, t2; "absent")"#));
        // slow blinks last exactly 5.
        assert!(ask(
            r#"forall t1. forall t2. Blink(t1, t2; "slow") implies t2 = t1 + 5"#
        ));
        assert!(!ask(
            r#"forall t1. forall t2. Blink(t1, t2; "slow") implies t2 = t1 + 2"#
        ));
        // There is a kind of blink active at time 0..2: fast.
        assert!(ask("exists x. Blink(0, 2; x)"));
        assert!(!ask("exists x. Blink(1, 3; x)"));
    }

    #[test]
    fn data_equality() {
        assert!(ask(
            r#"exists x. exists t1. exists t2. Blink(t1, t2; x) and x = "slow""#
        ));
        assert!(ask(
            r#"exists x. exists y. exists t1. exists t2. exists s1. exists s2.
               Blink(t1, t2; x) and Blink(s1, s2; y) and x != y"#
        ));
        // All blink kinds with duration 2 are "fast".
        assert!(ask(
            r#"forall x. (exists t1. exists t2. Blink(t1, t2; x) and t2 = t1 + 2)
               implies x = "fast""#
        ));
    }

    #[test]
    fn open_queries_return_columns() {
        let r = eval_open("Even(t) and t >= 0");
        assert_eq!(r.temporal_vars, vec!["t"]);
        assert!(r.data_vars.is_empty());
        assert!(r.relation.contains(&[4], &[]));
        assert!(!r.relation.contains(&[5], &[]));
        assert!(!r.relation.contains(&[-2], &[]));
        let r = eval_open(r#"exists t2. Blink(t1, t2; x)"#);
        assert_eq!(r.temporal_vars, vec!["t1"]);
        assert_eq!(r.data_vars, vec!["x"]);
        assert!(r.relation.contains(&[10], &[Value::str("slow")]));
        assert!(!r.relation.contains(&[5], &[Value::str("slow")]));
    }

    #[test]
    fn repeated_variables_in_predicate() {
        // Blink(t, t; x) — intervals of length 0: none.
        assert!(!ask("exists t. exists x. Blink(t, t; x)"));
        // But shifted: Blink(t, t + 2; x) — fast ones.
        assert!(ask("exists t. exists x. Blink(t, t + 2; x)"));
    }

    #[test]
    fn negation_and_difference() {
        // Some non-even time point exists.
        assert!(ask("exists t. not Even(t)"));
        // No even time is odd: ¬∃t (Even(t) ∧ ¬Even(t)).
        assert!(!ask("exists t. Even(t) and not Even(t)"));
    }

    #[test]
    fn temporal_comparisons_between_vars() {
        assert!(ask(
            "exists t1. exists t2. Even(t1) and Even(t2) and t1 < t2"
        ));
        assert!(ask("forall t1. forall t2. t1 <= t2 or t2 <= t1"));
        assert!(ask("forall t. t < t + 1"));
        assert!(!ask("exists t. t < t"));
        assert!(ask("exists t1. exists t2. t1 != t2"));
        assert!(!ask("forall t1. forall t2. t1 != t2"));
    }

    #[test]
    fn true_false_literals() {
        assert!(ask("true"));
        assert!(!ask("false"));
        assert!(ask("false implies false"));
        assert!(ask("not false"));
    }

    #[test]
    fn unused_quantifier_is_noop() {
        assert!(ask("exists t. true"));
        assert!(ask("forall t. true"));
        assert!(!ask("forall t. false"));
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        for src in [
            "exists t. Even(t) and t >= 1000000",
            "forall t. Even(t) implies Even(t + 2)",
            r#"forall t1. forall t2. Blink(t1, t2; "slow") implies t2 = t1 + 5"#,
            "exists t. Even(t) and not Even(t)",
            "exists t. (Even(t) or Even(t + 1)) and t = 3",
        ] {
            assert_eq!(ask(src), ask_unopt(src), "{src}");
        }
    }

    #[test]
    fn run_with_trace_reports_plan_and_spans() {
        let cat = catalog();
        let f = parse("exists t. Even(t) and Even(t + 2)").unwrap();
        let out = run(&cat, &f, QueryOpts::new().trace(true)).unwrap();
        let trace = out.trace.expect("trace requested");
        assert!(!trace.is_empty());
        // Every node of the executed plan has a span joined by id, and
        // estimates were annotated for the ANALYZE rendering.
        let root = out.plan.root();
        assert!(trace.span_for_plan_node(root.id).is_some());
        assert!(root.est.is_some());
        let text = out.plan.render_analyze(&trace);
        assert!(text.contains("[est "), "{text}");
        assert!(text.contains("[actual rows="), "{text}");
    }

    #[test]
    fn rewritten_data_variable_projects_out() {
        // y gains its Data sort only through `x = y` reclassification; the
        // quantifier must still remove its column.
        let r = eval_open(r#"exists y. exists t1. exists t2. Blink(t1, t2; x) and x = y"#);
        assert_eq!(r.data_vars, vec!["x"]);
        assert!(r.temporal_vars.is_empty());
        assert!(r
            .relation
            .materialize(0, 0)
            .iter()
            .all(|(_, d)| d.len() == 1));
    }

    #[test]
    fn index_effectiveness_reports_pruning() {
        // 8×8 = 64 candidate pairs puts the conjunction's join above the
        // index threshold; periods are all 6 so residue buckets
        // discriminate and most pairs are skipped without being examined.
        let mut cat = MemoryCatalog::new();
        let tuples: Vec<GenTuple> = (0..8)
            .map(|i| {
                GenTuple::builder()
                    .lrps(vec![lrp(i % 6, 6)])
                    .atoms([Atom::ge(0, i - 20)])
                    .build()
                    .unwrap()
            })
            .collect();
        cat.insert("P", GenRelation::new(Schema::new(1, 0), tuples).unwrap());
        let f = parse("exists t. P(t) and P(t)").unwrap();
        let ctx = ExecContext::serial();
        let r = run(
            &cat,
            &f,
            // Compaction off: it would subsume two of the eight tuples and
            // change the pinned pair count below.
            QueryOpts::new().ctx(&ctx).optimize(false).compact(false),
        )
        .unwrap()
        .result;
        let (probed, skipped) = r.index_effectiveness();
        assert_eq!(probed + skipped, 64, "join consulted the index once");
        assert!(
            skipped > probed,
            "residue buckets should prune most pairs: probed={probed} skipped={skipped}"
        );
    }

    #[test]
    fn empty_adom_data_quantifier() {
        // A catalog whose only data-bearing relation is empty: the active
        // domain is empty, so data-sorted existentials are false.
        let mut cat = MemoryCatalog::new();
        cat.insert("Q", GenRelation::empty(Schema::new(0, 1)));
        let f = parse("exists x. not Q(; x)").unwrap();
        assert!(!run(&cat, &f, QueryOpts::new())
            .unwrap()
            .truth_in(&ExecContext::new())
            .unwrap());
        // A variable with no sort evidence defaults to temporal, where the
        // domain (Z) is never empty.
        let f = parse("exists x. x = x").unwrap();
        assert!(run(&cat, &f, QueryOpts::new())
            .unwrap()
            .truth_in(&ExecContext::new())
            .unwrap());
    }
}
