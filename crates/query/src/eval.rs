//! Query evaluation by translation to the generalized relational algebra
//! (§4.2–4.3).
//!
//! Evaluation is plan-driven: the formula is lowered to a [`Plan`] (a tree
//! of [`PlanOp`](crate::PlanOp) nodes), optionally rewritten by the
//! optimizer, and the plan tree is then interpreted by [`Env::exec`]. The
//! unoptimized plan mirrors the formula node for node, so executing it
//! performs exactly the algebra operations the direct recursive evaluator
//! used to — same operators, same order, same traced spans.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use itd_core::{
    Atom, CoreError, ExecContext, GenRelation, GenTuple, Lrp, MetricsRegistry, QueryObservation,
    QueryResourceReport, ResourceCollector, Schema, StatsSnapshot, Trace, Value,
};

use crate::ast::{CmpOp, DataTerm, Formula, TemporalTerm};
use crate::catalog::Catalog;
use crate::error::QueryError;
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
    /// preparation time (see [`estimate_src`]) — what admission control
    /// compared against its budget before this run.
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
        if let Some(prepared) =
            crate::plancache::lookup(token, text, opts.optimize, opts.compact, opts.trace)
        {
            return Ok((prepared, true));
        }
        let prepared = Arc::new(prepare(catalog, &make_formula()?, opts)?);
        crate::plancache::insert(
            token,
            text.to_owned(),
            opts.optimize,
            opts.compact,
            opts.trace,
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
    Ok(prepared.est_total_pairs)
}

/// The pure preparation pipeline: sort-check, lower to a [`Plan`], and
/// shape it under the given options (optimizer, compaction passes,
/// cost annotations) — everything a warm plan-cache hit skips.
pub(crate) fn prepare(
    catalog: &impl Catalog,
    formula: &Formula,
    opts: &QueryOpts<'_>,
) -> Result<crate::plancache::PreparedPlan> {
    prepare_inner(catalog, formula, opts, false)
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
    prepare_inner(catalog, formula, opts, true)
}

fn prepare_inner(
    catalog: &impl Catalog,
    formula: &Formula,
    opts: &QueryOpts<'_>,
    dynamic: bool,
) -> Result<crate::plancache::PreparedPlan> {
    let (f, _sorts) = check_sorts(catalog, formula)?;
    let mut plan = Plan::of(&f);
    if opts.optimize {
        plan = if dynamic {
            crate::opt::optimize_dynamic(catalog, plan, opts.compact)
        } else {
            crate::opt::optimize(catalog, plan, opts.compact)
        };
    } else {
        if opts.compact {
            // Compaction is independent of the rewriter: insert the
            // passes into the direct lowering too, so the executed plan
            // (which `QueryOutput::plan` returns) shows them.
            crate::opt::insert_compaction(catalog, &mut plan);
        }
        if opts.trace {
            // The optimizer annotates its output; annotate the direct
            // lowering too so EXPLAIN ANALYZE has an `est` column.
            crate::opt::annotate(catalog, &mut plan);
        }
    }
    let est_total_pairs = crate::opt::total_pairs(catalog, &plan);
    Ok(crate::plancache::PreparedPlan {
        formula: f,
        plan,
        est_total_pairs,
    })
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
        est_total_pairs: prepared.est_total_pairs,
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
    let ev = env.exec(plan.root())?;
    let result = QueryResult {
        relation: ev.rel,
        temporal_vars: ev.tvars,
        data_vars: ev.dvars,
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

/// An evaluated subplan: relation plus column naming. Cloning is cheap —
/// the relation is an `Arc` snapshot — which is what lets view maintenance
/// cache every plan node's output.
#[derive(Debug, Clone)]
pub(crate) struct Ev {
    pub(crate) rel: GenRelation,
    pub(crate) tvars: Vec<String>,
    pub(crate) dvars: Vec<String>,
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
    /// output keyed by node id — the per-node cache view maintenance
    /// propagates deltas against.
    record: Option<std::cell::RefCell<std::collections::HashMap<u64, Ev>>>,
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
            record: recording.then(|| std::cell::RefCell::new(std::collections::HashMap::new())),
        }
    }

    /// The execution context this environment runs operators under.
    pub(crate) fn ctx(&self) -> &ExecContext {
        self.ctx
    }

    /// The catalog relation under `name`, cloned (an `Arc` snapshot, so
    /// this is cheap).
    pub(crate) fn catalog_relation(&self, name: &str) -> Option<GenRelation> {
        self.catalog.relation(name).cloned()
    }

    /// Drains the recorded per-node outputs (empty unless constructed with
    /// `recording = true`).
    pub(crate) fn take_record(&self) -> std::collections::HashMap<u64, Ev> {
        self.record
            .as_ref()
            .map(|r| std::mem::take(&mut *r.borrow_mut()))
            .unwrap_or_default()
    }
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

    /// The full space `Z^t × adom^d`.
    pub(crate) fn full_for(&self, tvars: usize, dvars: usize) -> Result<GenRelation> {
        let mut rel =
            GenRelation::full_temporal(Schema::new(tvars, 0)).map_err(QueryError::Core)?;
        for _ in 0..dvars {
            rel = rel
                .cross_product_in(&self.adom_relation(), self.ctx)
                .map_err(QueryError::Core)?;
        }
        Ok(rel)
    }

    /// Interprets one plan node, recording a node span carrying the
    /// node's stable id when the context is traced — the id is what
    /// EXPLAIN ANALYZE joins plan and trace on.
    pub(crate) fn exec(&self, n: &PlanNode) -> Result<Ev> {
        let span = self.ctx.plan_span(n.id, || n.label.clone());
        let before = self.live_rows.get();
        let ev = self.exec_arm(n)?;
        let out = ev.rel.tuple_count() as u64;
        // While the operator ran, its children's outputs were still live
        // (`live_rows` is now `before` + their row counts); this node's
        // output coexists with them for a moment before they are dropped,
        // so that sum is the node's contribution to the high-water mark.
        let high = self.live_rows.get() + out;
        self.peak_rows.set(self.peak_rows.get().max(high));
        self.live_rows.set(before + out);
        span.set_tuples_out(out);
        if let Some(rec) = &self.record {
            rec.borrow_mut().insert(n.id, ev.clone());
        }
        Ok(ev)
    }

    fn exec_arm(&self, n: &PlanNode) -> Result<Ev> {
        match &n.op {
            PlanOp::Unit(truth) => Ok(Ev {
                rel: Self::unit(*truth),
                tvars: vec![],
                dvars: vec![],
            }),
            PlanOp::Scan {
                name,
                temporal,
                data,
            } => self.eval_pred(name, temporal, data),
            PlanOp::TempCmp { left, op, right } => self.eval_temp_cmp(left, *op, right),
            PlanOp::DataCmp { left, eq, right } => self.eval_data_cmp(left, *eq, right),
            PlanOp::Conjoin => {
                let (a, b) = (self.exec(&n.children[0])?, self.exec(&n.children[1])?);
                self.conjoin(a, b)
            }
            PlanOp::Disjoin => {
                let (a, b) = (self.exec(&n.children[0])?, self.exec(&n.children[1])?);
                self.disjoin(a, b)
            }
            PlanOp::ProjectOut { var, negate } => {
                let ev = self.exec(&n.children[0])?;
                let proj = self.project_out(ev, var)?;
                if *negate {
                    self.negate(proj)
                } else {
                    Ok(proj)
                }
            }
            PlanOp::Negate => {
                let ev = self.exec(&n.children[0])?;
                self.negate(ev)
            }
            PlanOp::Pass => self.exec(&n.children[0]),
            PlanOp::Empty => Ok(Ev {
                rel: GenRelation::empty(Schema::new(n.temporal_vars.len(), n.data_vars.len())),
                tvars: n.temporal_vars.clone(),
                dvars: n.data_vars.clone(),
            }),
            PlanOp::Arrange => {
                let ev = self.exec(&n.children[0])?;
                let rel = self.pad(ev, &n.temporal_vars, &n.data_vars)?;
                Ok(Ev {
                    rel,
                    tvars: n.temporal_vars.clone(),
                    dvars: n.data_vars.clone(),
                })
            }
            PlanOp::Compact => {
                let ev = self.exec(&n.children[0])?;
                let rel = ev.rel.compact_in(self.ctx).map_err(QueryError::Core)?;
                Ok(Ev {
                    rel,
                    tvars: ev.tvars,
                    dvars: ev.dvars,
                })
            }
        }
    }

    fn eval_pred(&self, name: &str, temporal: &[TemporalTerm], data: &[DataTerm]) -> Result<Ev> {
        let base = self
            .catalog
            .relation(name)
            .ok_or_else(|| QueryError::UnknownPredicate(name.to_owned()))?;
        self.eval_pred_on(base.clone(), temporal, data)
    }

    /// The scan pipeline (selections for constants and repeated variables,
    /// shifts for successor terms, final projection) applied to an explicit
    /// base relation. The pipeline is per-row, so view maintenance runs it
    /// over mini-relations holding just a delta's inserted or retracted
    /// rows and gets exactly the delta of the scan's output.
    pub(crate) fn eval_pred_on(
        &self,
        base: GenRelation,
        temporal: &[TemporalTerm],
        data: &[DataTerm],
    ) -> Result<Ev> {
        let mut rel = base;

        // Temporal arguments: column i currently holds the term value.
        let mut tvars: Vec<String> = Vec::new();
        let mut tkeep: Vec<usize> = Vec::new();
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
                    if let Some(first) = tvars.iter().position(|v| v == name) {
                        rel = rel
                            .select_temporal_in(Atom::diff_eq(tkeep[first], col, 0), self.ctx)
                            .map_err(QueryError::Core)?;
                    } else {
                        tvars.push(name.clone());
                        tkeep.push(col);
                    }
                }
            }
        }

        // Data arguments.
        let mut dvars: Vec<String> = Vec::new();
        let mut dkeep: Vec<usize> = Vec::new();
        for (col, term) in data.iter().enumerate() {
            match term {
                DataTerm::Const(v) => {
                    let v = v.clone();
                    rel = rel.select_data_in(move |d| d[col] == v, self.ctx);
                }
                DataTerm::Var(name) => {
                    if let Some(first) = dvars.iter().position(|v| v == name) {
                        let fc = dkeep[first];
                        rel = rel.select_data_in(move |d| d[fc] == d[col], self.ctx);
                    } else {
                        dvars.push(name.clone());
                        dkeep.push(col);
                    }
                }
            }
        }

        let rel = rel
            .project_in(&tkeep, &dkeep, self.ctx)
            .map_err(QueryError::Core)?;
        Ok(Ev { rel, tvars, dvars })
    }

    fn eval_temp_cmp(&self, left: &TemporalTerm, op: CmpOp, right: &TemporalTerm) -> Result<Ev> {
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
        // Each atom in the returned list is one tuple (their union is the
        // relation).
        let one_var = |var: &str, atoms: Vec<Atom>| -> Result<Ev> {
            let mut rel = GenRelation::empty(Schema::new(1, 0));
            for a in atoms {
                rel.push(
                    GenTuple::builder()
                        .lrps(vec![Lrp::all()])
                        .atoms([a])
                        .build()
                        .map_err(QueryError::Core)?,
                )
                .map_err(QueryError::Core)?;
            }
            Ok(Ev {
                rel,
                tvars: vec![var.to_owned()],
                dvars: vec![],
            })
        };
        match (left, right) {
            (TemporalTerm::Const(a), TemporalTerm::Const(b)) => Ok(Ev {
                rel: Self::unit(op.eval(*a, *b)),
                tvars: vec![],
                dvars: vec![],
            }),
            (TemporalTerm::Var { name, shift }, TemporalTerm::Const(c)) => {
                // v + s op c ⇔ v op c − s
                let c = c.checked_sub(*shift).ok_or_else(overflow)?;
                one_var(name, const_atoms(op, 0, c).ok_or_else(overflow)?)
            }
            (TemporalTerm::Const(c), TemporalTerm::Var { name, shift }) => {
                // c op v + s ⇔ v op' c − s with the operator mirrored.
                let mirrored = match op {
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Ge => CmpOp::Le,
                    CmpOp::Gt => CmpOp::Lt,
                    other => other,
                };
                let c = c.checked_sub(*shift).ok_or_else(overflow)?;
                one_var(name, const_atoms(mirrored, 0, c).ok_or_else(overflow)?)
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
                    let truth = op.eval(*s1, *s2);
                    let rel = if truth {
                        GenRelation::full_temporal(Schema::new(1, 0)).map_err(QueryError::Core)?
                    } else {
                        GenRelation::empty(Schema::new(1, 0))
                    };
                    return Ok(Ev {
                        rel,
                        tvars: vec![n1.clone()],
                        dvars: vec![],
                    });
                }
                // v1 + s1 op v2 + s2 ⇔ v1 op v2 + (s2 − s1)
                let c = s2.checked_sub(*s1).ok_or_else(overflow)?;
                let atoms = diff_atoms(op, 0, 1, c).ok_or_else(overflow)?;
                let mut rel = GenRelation::empty(Schema::new(2, 0));
                for a in atoms {
                    rel.push(
                        GenTuple::builder()
                            .lrps(vec![Lrp::all(), Lrp::all()])
                            .atoms([a])
                            .build()
                            .map_err(QueryError::Core)?,
                    )
                    .map_err(QueryError::Core)?;
                }
                Ok(Ev {
                    rel,
                    tvars: vec![n1.clone(), n2.clone()],
                    dvars: vec![],
                })
            }
        }
    }

    fn eval_data_cmp(&self, left: &DataTerm, eq: bool, right: &DataTerm) -> Result<Ev> {
        let mk = |tuples: Vec<Vec<Value>>, dvars: Vec<String>| -> Result<Ev> {
            let mut rel = GenRelation::empty(Schema::new(0, dvars.len()));
            for data in tuples {
                rel.push(GenTuple::unconstrained(vec![], data))
                    .map_err(QueryError::Core)?;
            }
            Ok(Ev {
                rel,
                tvars: vec![],
                dvars,
            })
        };
        match (left, right) {
            (DataTerm::Const(a), DataTerm::Const(b)) => Ok(Ev {
                rel: Self::unit((a == b) == eq),
                tvars: vec![],
                dvars: vec![],
            }),
            (DataTerm::Var(x), DataTerm::Const(v)) | (DataTerm::Const(v), DataTerm::Var(x)) => {
                let tuples: Vec<Vec<Value>> = if eq {
                    vec![vec![v.clone()]]
                } else {
                    self.adom
                        .iter()
                        .filter(|d| *d != v)
                        .map(|d| vec![d.clone()])
                        .collect()
                };
                mk(tuples, vec![x.clone()])
            }
            (DataTerm::Var(x), DataTerm::Var(y)) => {
                if x == y {
                    let tuples: Vec<Vec<Value>> = if eq {
                        self.adom.iter().map(|d| vec![d.clone()]).collect()
                    } else {
                        vec![]
                    };
                    return mk(tuples, vec![x.clone()]);
                }
                let mut tuples = Vec::new();
                for a in &self.adom {
                    for b in &self.adom {
                        if (a == b) == eq {
                            tuples.push(vec![a.clone(), b.clone()]);
                        }
                    }
                }
                mk(tuples, vec![x.clone(), y.clone()])
            }
        }
    }

    /// `¬φ` = free space over φ's variables minus φ.
    pub(crate) fn negate(&self, ev: Ev) -> Result<Ev> {
        let full = self.full_for(ev.tvars.len(), ev.dvars.len())?;
        let rel = full
            .difference_in(&ev.rel, self.ctx)
            .map_err(QueryError::Core)?;
        Ok(Ev {
            rel,
            tvars: ev.tvars,
            dvars: ev.dvars,
        })
    }

    /// `φ ∧ ψ` = join on shared variables, keeping each variable once.
    pub(crate) fn conjoin(&self, a: Ev, b: Ev) -> Result<Ev> {
        let mut tpairs = Vec::new();
        for (j, var) in b.tvars.iter().enumerate() {
            if let Some(i) = a.tvars.iter().position(|v| v == var) {
                tpairs.push((i, j));
            }
        }
        let mut dpairs = Vec::new();
        for (j, var) in b.dvars.iter().enumerate() {
            if let Some(i) = a.dvars.iter().position(|v| v == var) {
                dpairs.push((i, j));
            }
        }
        let joined = a
            .rel
            .join_on_in(&b.rel, &tpairs, &dpairs, self.ctx)
            .map_err(QueryError::Core)?;
        // Keep a's columns plus b's non-shared columns.
        let mut tkeep: Vec<usize> = (0..a.tvars.len()).collect();
        let mut tvars = a.tvars.clone();
        for (j, var) in b.tvars.iter().enumerate() {
            if !a.tvars.contains(var) {
                tkeep.push(a.tvars.len() + j);
                tvars.push(var.clone());
            }
        }
        let mut dkeep: Vec<usize> = (0..a.dvars.len()).collect();
        let mut dvars = a.dvars.clone();
        for (j, var) in b.dvars.iter().enumerate() {
            if !a.dvars.contains(var) {
                dkeep.push(a.dvars.len() + j);
                dvars.push(var.clone());
            }
        }
        let rel = joined
            .project_in(&tkeep, &dkeep, self.ctx)
            .map_err(QueryError::Core)?;
        Ok(Ev { rel, tvars, dvars })
    }

    /// `φ ∨ ψ` = union after padding both to the merged variable set.
    pub(crate) fn disjoin(&self, a: Ev, b: Ev) -> Result<Ev> {
        let mut tvars = a.tvars.clone();
        for v in &b.tvars {
            if !tvars.contains(v) {
                tvars.push(v.clone());
            }
        }
        let mut dvars = a.dvars.clone();
        for v in &b.dvars {
            if !dvars.contains(v) {
                dvars.push(v.clone());
            }
        }
        let pa = self.pad(a, &tvars, &dvars)?;
        let pb = self.pad(b, &tvars, &dvars)?;
        let rel = pa.union_in(&pb, self.ctx).map_err(QueryError::Core)?;
        Ok(Ev { rel, tvars, dvars })
    }

    /// Extends `ev` with unconstrained columns for missing variables, then
    /// permutes columns to the target order.
    pub(crate) fn pad(&self, ev: Ev, tt: &[String], dd: &[String]) -> Result<GenRelation> {
        let mut rel = ev.rel;
        let mut tvars = ev.tvars;
        let mut dvars = ev.dvars;
        for v in tt {
            if !tvars.contains(v) {
                rel = rel
                    .cross_product_in(
                        &GenRelation::full_temporal(Schema::new(1, 0)).map_err(QueryError::Core)?,
                        self.ctx,
                    )
                    .map_err(QueryError::Core)?;
                tvars.push(v.clone());
            }
        }
        for v in dd {
            if !dvars.contains(v) {
                rel = rel
                    .cross_product_in(&self.adom_relation(), self.ctx)
                    .map_err(QueryError::Core)?;
                dvars.push(v.clone());
            }
        }
        let tperm: Vec<usize> = tt
            .iter()
            .map(|v| tvars.iter().position(|w| w == v).expect("padded"))
            .collect();
        let dperm: Vec<usize> = dd
            .iter()
            .map(|v| dvars.iter().position(|w| w == v).expect("padded"))
            .collect();
        rel.project_in(&tperm, &dperm, self.ctx)
            .map_err(QueryError::Core)
    }

    /// `∃var` = drop the variable's column (no-op if the variable does not
    /// occur — then `∃v.φ ≡ φ` since both sorts are nonempty... except the
    /// data sort with an empty active domain, which correctly yields an
    /// empty padding anyway because `φ` cannot mention data either).
    ///
    /// The subplan's own column lists are authoritative for where the
    /// variable lives — a variable may acquire its data sort only through
    /// atom reclassification, in which case the global sort map does not
    /// record it.
    pub(crate) fn project_out(&self, ev: Ev, var: &str) -> Result<Ev> {
        if let Some(i) = ev.tvars.iter().position(|v| v == var) {
            let tkeep: Vec<usize> = (0..ev.tvars.len()).filter(|&j| j != i).collect();
            let dkeep: Vec<usize> = (0..ev.dvars.len()).collect();
            let rel = ev
                .rel
                .project_in(&tkeep, &dkeep, self.ctx)
                .map_err(QueryError::Core)?;
            let tvars = tkeep.iter().map(|&j| ev.tvars[j].clone()).collect();
            return Ok(Ev {
                rel,
                tvars,
                dvars: ev.dvars,
            });
        }
        if let Some(i) = ev.dvars.iter().position(|v| v == var) {
            let tkeep: Vec<usize> = (0..ev.tvars.len()).collect();
            let dkeep: Vec<usize> = (0..ev.dvars.len()).filter(|&j| j != i).collect();
            let rel = ev
                .rel
                .project_in(&tkeep, &dkeep, self.ctx)
                .map_err(QueryError::Core)?;
            let dvars = dkeep.iter().map(|&j| ev.dvars[j].clone()).collect();
            return Ok(Ev {
                rel,
                tvars: ev.tvars,
                dvars,
            });
        }
        Ok(ev)
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
