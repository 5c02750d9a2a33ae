//! Incrementally maintained materialized queries.
//!
//! A [`MaintainedView`] is a prepared query whose answer is kept up to
//! date under *signed deltas* — per-relation batches of inserted and
//! retracted generalized tuples ([`RelationDelta`]) — without re-running
//! the query from scratch. It caches every plan node's output from the
//! initial evaluation and, on [`MaintainedView::refresh`], propagates the
//! deltas bottom-up through the plan tree. Cached outputs and deltas are
//! bare [`GenRelation`]s: their columns are the plan node's, and the
//! operator helpers the executor uses (join, pad, projection) read the
//! column lists from the node, so deltas need no naming of their own.
//!
//! # Delta propagation
//!
//! Each node yields, besides its refreshed output `new`, a signed pair
//! `(ins, del)` of generalized relations over the node's columns with the
//! invariants
//!
//! * `new ≡ (old ∖ del) ∪ ins` (denotationally),
//! * `ins ⊆ new` and `del ∩ new ≡ ∅`.
//!
//! The rules per operator:
//!
//! * **Scan** — the scan pipeline (selections, shifts, final projection)
//!   is per-row, so it is run over mini-relations holding just the
//!   inserted / retracted rows. Without retractions the cached output is
//!   patched by appending the inserted rows' images (no pass over the
//!   base at all); a retraction forces a linear recompute of this one
//!   scan, because a retracted row's points may still be derivable from
//!   surviving rows (duplicates, overlapping periodic sets) and set
//!   semantics keeps no support counts to consult.
//! * **Conjoin** — the classical join delta: with `A`'s deltas against
//!   the *old* cached `B`, then `B`'s deltas against the *new* `A`. The
//!   cached output is patched (`∖`/`∪`), never re-joined.
//! * **Disjoin** — outputs are recomputed by unioning the (cached) child
//!   outputs; the upward `del` is intersected away from the new output so
//!   an element still produced by the other branch is not over-deleted.
//! * **ProjectOut** — projection of the child deltas, with the projected
//!   `del` trimmed by the recomputed output (a witness may survive).
//! * **Difference** (`N = L ∧ ¬R`) — from `new ≡ (old ∖ del) ∪ ins`:
//!   `del = del_L ∪ (old ∧ ins_R)`, `ins = (ins_L ∧ ¬R_new) ∪ (L_new ∧
//!   del_R)`, each term through the executor's own join and difference
//!   helpers; the cached output is patched, never recomputed. A negation
//!   is the case whose left child is the clean free-space leaf: `R`'s
//!   inserts delete from the cached complement and its deletes insert.
//! * **Pass / Arrange / Compact** — forwarded (padding is exact on
//!   deltas; compaction changes representation, not denotation).
//!
//! A subtree that scans none of the changed relations is **clean**: its
//! cached output is returned as-is with empty deltas, skipping the
//! subtree entirely. A refreshed output with more tuples than its cached
//! predecessor is compacted before it is cached, so a view's
//! representation tracks its denotation rather than the length of its
//! mutation history.
//!
//! # Active-domain fallback
//!
//! `DataCmp` nodes, data-column padding and the `Full` leaf of negation
//! all depend on the query's active domain. The view snapshots the adom
//! it was built under; a refresh whose deltas change the adom falls back
//! to one counted **full recompute** ([`RefreshOutcome::full`]) instead
//! of attempting (unsound) delta propagation through adom-dependent
//! operators. Small mutations over a stable value universe — the common
//! case — keep the incremental path. A caller whose catalog also changed
//! outside the delta path forces the same recompute with
//! [`MaintainedView::recompute`]. Registration, the fallback and the
//! forced recompute share one evaluate-everything path, and both refresh
//! entry points count signed rows the same way.
//!
//! # Cache coherence
//!
//! The view pins its own prepared plan (an [`Arc`]-free clone, immune to
//! plan-cache eviction) and its per-node output cache. The process-wide
//! prepared-plan and pairwise-outcome caches are unaffected: maintenance
//! runs the same algebra kernels as evaluation, so outcome-cache entries
//! stay valid (they are keyed by tuple content, not by relation
//! identity), and plan-token rotation by the owning catalog only
//! invalidates the *prepared-plan* cache, not this view's pinned plan.

use std::collections::{BTreeSet, HashMap};

use itd_core::{ExecContext, GenRelation, Value};

use crate::ast::Formula;
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::eval::{adom_for, prepare_dynamic, Env, QueryOpts};
use crate::plan::{Plan, PlanNode, PlanOp};
use crate::Result;

/// A signed batch of changes to one named relation: the generalized
/// tuples added and the generalized tuples removed, as mini-relations of
/// the relation's schema.
///
/// Produced by the storage layer (e.g. `itd-db`'s transactional `apply_with`)
/// *after* the mutation, so `inserted` rows are present in — and
/// `retracted` rows absent from — the relation the catalog now serves.
#[derive(Debug, Clone)]
pub struct RelationDelta {
    /// The mutated relation's catalog name.
    pub name: String,
    /// Rows added (must be rows of the post-mutation relation).
    pub inserted: GenRelation,
    /// Rows removed (no structurally equal row remains; the *denoted*
    /// points may of course still be covered by surviving rows).
    pub retracted: GenRelation,
}

impl RelationDelta {
    /// Number of signed rows this delta carries.
    pub fn rows(&self) -> u64 {
        (self.inserted.tuple_count() + self.retracted.tuple_count()) as u64
    }

    /// `true` when the delta carries no rows at all.
    pub fn is_empty(&self) -> bool {
        self.inserted.has_no_tuples() && self.retracted.has_no_tuples()
    }
}

/// What one [`MaintainedView::refresh`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// `true` when the refresh fell back to a full recomputation (the
    /// deltas changed the active domain).
    pub full: bool,
    /// Signed rows across all deltas that were applied.
    pub delta_rows: u64,
}

/// The signed delta of one plan node's output.
struct NodeDelta {
    ins: GenRelation,
    del: GenRelation,
}

impl NodeDelta {
    fn empty_like(rel: &GenRelation) -> NodeDelta {
        NodeDelta {
            ins: GenRelation::empty(rel.schema()),
            del: GenRelation::empty(rel.schema()),
        }
    }
}

/// A materialized query maintained incrementally under signed deltas.
///
/// Built by evaluating the query once with per-node output recording;
/// thereafter [`refresh`](MaintainedView::refresh) patches the cached
/// outputs bottom-up. The maintained representation is a deterministic
/// function of the mutation history — bit-identical at any thread
/// count — and denotes exactly what re-running the query from scratch
/// would.
#[derive(Debug, Clone)]
pub struct MaintainedView {
    formula: Formula,
    plan: Plan,
    /// Every plan node's output from the last refresh, keyed by
    /// [`PlanNode::id`]; its columns are the node's.
    cache: HashMap<u64, GenRelation>,
    /// Per node: the relation names scanned anywhere in its subtree —
    /// the clean-subtree test.
    scans: HashMap<u64, BTreeSet<String>>,
    /// The active domain the cached outputs were computed under.
    adom: Vec<Value>,
    /// Cumulative signed rows applied over this view's lifetime.
    delta_rows: u64,
    /// Refreshes that fell back to a full recomputation.
    full_refreshes: u64,
}

impl MaintainedView {
    /// Prepares the query (sort-check, lowering, optimizer per `opts`)
    /// and evaluates it once, recording every plan node's output.
    ///
    /// The plan is prepared in *dynamic* mode: rewrites that fold the
    /// catalog's current contents into the structure (a currently-empty
    /// scan becoming [`PlanOp::Empty`]) are disabled, because this plan
    /// is pinned for the view's lifetime and must stay valid for every
    /// later catalog state.
    ///
    /// # Errors
    /// Sort/arity errors and algebra failures; see [`QueryError`].
    pub fn new(catalog: &impl Catalog, formula: &Formula, opts: QueryOpts<'_>) -> Result<Self> {
        let prepared = prepare_dynamic(catalog, formula, &opts)?;
        let fresh;
        let ctx = match opts.ctx {
            Some(ctx) => ctx,
            None => {
                fresh = ExecContext::new();
                &fresh
            }
        };
        let mut scans = HashMap::new();
        collect_scans(prepared.plan.root(), &mut scans);
        let mut view = MaintainedView {
            formula: prepared.formula,
            plan: prepared.plan,
            cache: HashMap::new(),
            scans,
            adom: Vec::new(),
            delta_rows: 0,
            full_refreshes: 0,
        };
        view.evaluate_all(catalog, adom_for(catalog, &view.formula), ctx)?;
        Ok(view)
    }

    /// The maintained answer relation.
    pub fn relation(&self) -> &GenRelation {
        self.cache
            .get(&self.plan.root().id)
            .expect("root output cached at construction")
    }

    /// Names of the answer's temporal columns.
    pub fn temporal_vars(&self) -> &[String] {
        &self.plan.root().temporal_vars
    }

    /// Names of the answer's data columns.
    pub fn data_vars(&self) -> &[String] {
        &self.plan.root().data_vars
    }

    /// The query this view maintains.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The plan deltas are propagated through (pinned at registration;
    /// plan-cache eviction or token rotation cannot change it).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Cumulative signed rows applied over this view's lifetime.
    pub fn delta_rows(&self) -> u64 {
        self.delta_rows
    }

    /// Refreshes that fell back to a full recomputation.
    pub fn full_refreshes(&self) -> u64 {
        self.full_refreshes
    }

    /// Brings the view up to date with a catalog that has already applied
    /// `deltas` by recomputing every cached output from scratch, counted
    /// as a full refresh. For callers whose catalog *also* mutated
    /// outside the delta path, so the signed rows do not describe the
    /// whole change and cannot be propagated; they are still counted
    /// exactly as [`refresh`](Self::refresh) counts them.
    ///
    /// # Errors
    /// Algebra failures; see [`QueryError`].
    pub fn recompute(
        &mut self,
        catalog: &impl Catalog,
        deltas: &[RelationDelta],
        ctx: &ExecContext,
    ) -> Result<RefreshOutcome> {
        self.apply(catalog, deltas, ctx, true)
    }

    /// Brings the view up to date with a catalog that has already applied
    /// `deltas`. Propagates the signed rows through the plan tree,
    /// skipping clean subtrees; falls back to a counted full
    /// recomputation when the deltas changed the active domain.
    ///
    /// # Errors
    /// Algebra failures; see [`QueryError`]. On error the cache is left
    /// unchanged (the refresh is all-or-nothing).
    pub fn refresh(
        &mut self,
        catalog: &impl Catalog,
        deltas: &[RelationDelta],
        ctx: &ExecContext,
    ) -> Result<RefreshOutcome> {
        self.apply(catalog, deltas, ctx, false)
    }

    /// The one refresh path behind [`refresh`](Self::refresh) and
    /// [`recompute`](Self::recompute): counts the signed rows, then
    /// either recomputes everything (`full`, or an active-domain change)
    /// or propagates the deltas.
    fn apply(
        &mut self,
        catalog: &impl Catalog,
        deltas: &[RelationDelta],
        ctx: &ExecContext,
        full: bool,
    ) -> Result<RefreshOutcome> {
        let scope = ctx.view_refresh_scope();
        let delta_rows: u64 = deltas.iter().map(RelationDelta::rows).sum();
        scope.add_delta_rows(delta_rows as usize);
        self.delta_rows += delta_rows;

        let adom = adom_for(catalog, &self.formula);
        // Adom-dependent operators (DataCmp enumerations, data-column
        // padding, the full space of negation) baked the old domain into
        // every cached output; a changed domain recomputes rather than
        // patches.
        let full = full || adom != self.adom;
        if full {
            self.evaluate_all(catalog, adom, ctx)?;
            self.full_refreshes += 1;
        } else {
            let changed: BTreeSet<&str> = deltas
                .iter()
                .filter(|d| !d.is_empty())
                .map(|d| d.name.as_str())
                .collect();
            if !changed.is_empty() {
                let env = Env::new(catalog, adom, ctx, false);
                // Build the refreshed cache aside and swap on success, so
                // a failed refresh cannot leave a half-patched view.
                let mut next = self.cache.clone();
                self.step(self.plan.root(), &env, deltas, &changed, &mut next)?;
                self.cache = next;
            }
        }
        scope.add_result_rows(self.relation().tuple_count());
        Ok(RefreshOutcome { full, delta_rows })
    }

    /// Evaluates the whole plan on the current catalog under its active
    /// domain `adom`, replacing every cached output and the adom snapshot.
    fn evaluate_all(
        &mut self,
        catalog: &impl Catalog,
        adom: Vec<Value>,
        ctx: &ExecContext,
    ) -> Result<()> {
        let env = Env::new(catalog, adom, ctx, true);
        env.exec(self.plan.root())?;
        self.cache = env.take_record();
        self.adom = env.adom;
        Ok(())
    }

    /// Propagates deltas through `n`'s subtree: updates `next[n.id]` to
    /// the refreshed output and returns the node's signed delta.
    fn step(
        &self,
        n: &PlanNode,
        env: &Env<'_, impl Catalog>,
        deltas: &[RelationDelta],
        changed: &BTreeSet<&str>,
        next: &mut HashMap<u64, GenRelation>,
    ) -> Result<(GenRelation, NodeDelta)> {
        let old = next
            .get(&n.id)
            .expect("every node cached at construction")
            .clone();
        // Clean subtree: no scanned relation changed, so every cached
        // output below is still exact.
        if self.scans[&n.id]
            .iter()
            .all(|s| !changed.contains(s.as_str()))
        {
            let delta = NodeDelta::empty_like(&old);
            return Ok((old, delta));
        }
        let ctx = env.ctx();
        let (new, delta) = match &n.op {
            PlanOp::Scan { name, .. } => {
                let d = deltas
                    .iter()
                    .find(|d| d.name == *name)
                    .expect("changed scan has a delta");
                let ins = env.eval_pred_on(n, d.inserted.clone())?;
                if d.retracted.tuple_count() == 0 {
                    // Monotone fast path: without retractions the cached
                    // output is still exact, and the scan pipeline is
                    // per-row, so appending the inserted rows' images is
                    // the whole update — no pass over the base relation.
                    let del = GenRelation::empty(ins.schema());
                    (plus(&old, &ins, ctx)?, NodeDelta { ins, del })
                } else {
                    // Retractions force a linear recompute: a retracted
                    // row's points may still be derivable from surviving
                    // rows (duplicates, overlapping periodic sets), so
                    // the old output cannot be patched by subtraction.
                    let new = env.scan(n)?;
                    let del_raw = env.eval_pred_on(n, d.retracted.clone())?;
                    // A retracted row's output may still be produced by
                    // surviving rows (e.g. a duplicate re-inserted in
                    // the same batch): trim by the recomputed output.
                    let del = minus(&del_raw, &new, ctx)?;
                    (new, NodeDelta { ins, del })
                }
            }
            PlanOp::Conjoin => {
                // Read B's *old* output before recursing overwrites it.
                let b_old = next[&n.children[1].id].clone();
                let (a_new, da) = self.step(&n.children[0], env, deltas, changed, next)?;
                let (_, db) = self.step(&n.children[1], env, deltas, changed, next)?;
                // ΔA against old B, then ΔB against new A — the standard
                // two-sided join delta; each output point determines its
                // antecedents, so the four parts patch exactly.
                let d1 = env.conjoin(n, da.del, b_old.clone())?;
                let i1 = env.conjoin(n, da.ins, b_old)?;
                let d2 = env.conjoin(n, a_new.clone(), db.del)?;
                let i2 = env.conjoin(n, a_new, db.ins)?;
                let rel = minus(&old, &d1, ctx)?;
                let rel = plus(&rel, &i1, ctx)?;
                let rel = minus(&rel, &d2, ctx)?;
                let rel = plus(&rel, &i2, ctx)?;
                let del = plus(&d1, &d2, ctx)?;
                let ins = plus(&minus(&i1, &d2, ctx)?, &i2, ctx)?;
                (rel, NodeDelta { ins, del })
            }
            PlanOp::Disjoin => {
                let (a_new, da) = self.step(&n.children[0], env, deltas, changed, next)?;
                let (b_new, db) = self.step(&n.children[1], env, deltas, changed, next)?;
                let ins = env.disjoin(n, da.ins, db.ins)?;
                let del_raw = env.disjoin(n, da.del, db.del)?;
                let new = env.disjoin(n, a_new, b_new)?;
                // An element deleted from one branch may survive via the
                // other: trim by the refreshed union.
                let del = minus(&del_raw, &new, ctx)?;
                (new, NodeDelta { ins, del })
            }
            PlanOp::ProjectOut { .. } => {
                let (c_new, dc) = self.step(&n.children[0], env, deltas, changed, next)?;
                let new = env.project_out(n, c_new)?;
                let ins = env.project_out(n, dc.ins)?;
                // A deleted witness may not be the last one: trim by the
                // recomputed projection.
                let del = minus(&env.project_out(n, dc.del)?, &new, ctx)?;
                (new, NodeDelta { ins, del })
            }
            PlanOp::Difference => {
                let (l_new, dl) = self.step(&n.children[0], env, deltas, changed, next)?;
                let (r_new, dr) = self.step(&n.children[1], env, deltas, changed, next)?;
                // N = L ∧ ¬R. A point leaves N when it leaves L or R gains
                // it, and enters N when L gains it outside R, or R loses
                // it while L still holds it (`del_R` is disjoint from
                // `R_new`, so that part needs no second subtraction).
                let gained_r = through(n, dr.ins, |d| env.matched(n, &old, d))?;
                let del = plus(&dl.del, &gained_r, ctx)?;
                let gained_l = through(n, dl.ins, |d| env.difference(n, d, r_new))?;
                let lost_r = through(n, dr.del, |d| env.conjoin(n, l_new, d))?;
                let ins = plus(&gained_l, &lost_r, ctx)?;
                let new = plus(&minus(&old, &del, ctx)?, &ins, ctx)?;
                (new, NodeDelta { ins, del })
            }
            PlanOp::Pass => self.step(&n.children[0], env, deltas, changed, next)?,
            PlanOp::Arrange => {
                let (c_new, dc) = self.step(&n.children[0], env, deltas, changed, next)?;
                // Padding is a cross product with a fixed space plus a
                // column permutation — exact on signed deltas.
                let child = &n.children[0];
                let ins = env.pad(dc.ins, child, n)?;
                let del = env.pad(dc.del, child, n)?;
                (env.pad(c_new, child, n)?, NodeDelta { ins, del })
            }
            PlanOp::Compact => {
                let (c_new, dc) = self.step(&n.children[0], env, deltas, changed, next)?;
                // Compaction changes representation, not denotation: the
                // child's deltas describe this output too.
                (c_new.compact_in(ctx).map_err(QueryError::Core)?, dc)
            }
            // Leaves without scans (Unit, Empty, TempCmp, DataCmp) have
            // empty scan sets and were handled by the clean-subtree test.
            PlanOp::Unit(_)
            | PlanOp::Empty
            | PlanOp::Full
            | PlanOp::TempCmp { .. }
            | PlanOp::DataCmp { .. } => {
                unreachable!("scanless leaf reached the dirty path")
            }
        };
        // Every `∖` in a patch splits tuples: compact what a refresh grew,
        // so the cache tracks its denotation, not the transaction count.
        let new = if new.tuple_count() > old.tuple_count() {
            new.compact_in(ctx).map_err(QueryError::Core)?
        } else {
            new
        };
        next.insert(n.id, new.clone());
        Ok((new, delta))
    }
}

/// `op(delta)`, a relation over node `n`'s columns, with the work skipped
/// for an empty delta.
fn through(
    n: &PlanNode,
    delta: GenRelation,
    op: impl FnOnce(GenRelation) -> Result<GenRelation>,
) -> Result<GenRelation> {
    if delta.has_no_tuples() {
        Ok(GenRelation::empty(n.schema()))
    } else {
        op(delta)
    }
}

/// `a ∖ b` with the empty sides the delta algebra hits constantly
/// (insert-only batches, clean siblings) short-circuited: subtracting
/// nothing — or from nothing — keeps `a`'s representation untouched
/// instead of re-deriving per-row emptiness across the whole cache.
/// The shortcut is size-based, hence thread-count invariant.
fn minus(a: &GenRelation, b: &GenRelation, ctx: &ExecContext) -> Result<GenRelation> {
    if a.tuple_count() == 0 || b.tuple_count() == 0 {
        return Ok(a.clone());
    }
    a.difference_in(b, ctx).map_err(QueryError::Core)
}

/// `a ∪ b` with empty sides short-circuited; see [`minus`].
fn plus(a: &GenRelation, b: &GenRelation, ctx: &ExecContext) -> Result<GenRelation> {
    if b.tuple_count() == 0 {
        return Ok(a.clone());
    }
    if a.tuple_count() == 0 {
        return Ok(b.clone());
    }
    a.union_in(b, ctx).map_err(QueryError::Core)
}

/// Computes, for every node in `n`'s subtree, the set of relation names
/// its subtree scans, and returns `n`'s own set.
fn collect_scans(n: &PlanNode, out: &mut HashMap<u64, BTreeSet<String>>) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    if let PlanOp::Scan { name, .. } = &n.op {
        set.insert(name.clone());
    }
    for c in &n.children {
        set.extend(collect_scans(c, out));
    }
    out.insert(n.id, set.clone());
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;
    use crate::parser::parse;
    use crate::{run, QueryOpts};
    use itd_core::{Atom, GenTuple, Lrp, Schema, Value};

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    fn interval(start: i64, len: i64, period: i64, who: &str) -> GenTuple {
        GenTuple::builder()
            .lrps(vec![lrp(start, period), lrp(start + len, period)])
            .atoms([Atom::diff_eq(1, 0, len)])
            .data(vec![Value::str(who)])
            .build()
            .unwrap()
    }

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.insert(
            "Perform",
            GenRelation::new(
                Schema::new(2, 1),
                vec![interval(0, 2, 10, "fast"), interval(5, 3, 10, "slow")],
            )
            .unwrap(),
        );
        cat.insert(
            "Idle",
            GenRelation::new(
                Schema::new(1, 0),
                vec![GenTuple::unconstrained(vec![lrp(4, 10)], vec![])],
            )
            .unwrap(),
        );
        cat
    }

    /// Applies `delta` to the catalog the way a transactional store
    /// would: retract structurally equal rows, then append inserts.
    fn apply(cat: &mut MemoryCatalog, delta: &RelationDelta) {
        let cur = cat.relation(&delta.name).unwrap().clone();
        let mut rows: Vec<GenTuple> = cur.rows().map(|r| r.to_tuple()).collect();
        for t in delta.retracted.rows().map(|r| r.to_tuple()) {
            rows.retain(|r| *r != t);
        }
        rows.extend(delta.inserted.rows().map(|r| r.to_tuple()));
        cat.insert(&delta.name, GenRelation::new(cur.schema(), rows).unwrap());
    }

    fn delta(name: &str, schema: Schema, ins: Vec<GenTuple>, del: Vec<GenTuple>) -> RelationDelta {
        RelationDelta {
            name: name.to_owned(),
            inserted: GenRelation::new(schema, ins).unwrap(),
            retracted: GenRelation::new(schema, del).unwrap(),
        }
    }

    /// Symmetric difference is empty in both directions.
    fn assert_same_set(a: &GenRelation, b: &GenRelation, ctx: &ExecContext) {
        let ab = a.difference_in(b, ctx).unwrap();
        let ba = b.difference_in(a, ctx).unwrap();
        assert!(ab.denotes_empty().unwrap(), "maintained ⊄ recomputed");
        assert!(ba.denotes_empty().unwrap(), "recomputed ⊄ maintained");
    }

    /// Applies each delta, checks the view against a fresh run, and
    /// returns whether each refresh fell back to a full recompute.
    fn check_against_rerun(src: &str, deltas: Vec<RelationDelta>) -> Vec<bool> {
        let ctx = ExecContext::serial();
        let mut cat = catalog();
        let f = parse(src).unwrap();
        let mut view = MaintainedView::new(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
        let mut full = Vec::new();
        for d in deltas {
            apply(&mut cat, &d);
            let outcome = view.refresh(&cat, std::slice::from_ref(&d), &ctx).unwrap();
            full.push(outcome.full);
            let fresh = run(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
            assert_eq!(view.temporal_vars(), &fresh.result.temporal_vars[..]);
            assert_eq!(view.data_vars(), &fresh.result.data_vars[..]);
            assert_same_set(view.relation(), &fresh.result.relation, &ctx);
        }
        full
    }

    #[test]
    fn scan_and_join_deltas() {
        check_against_rerun(
            "exists t2. Perform(t1, t2; x) and Idle(t1 + 1)",
            vec![
                delta(
                    "Perform",
                    Schema::new(2, 1),
                    vec![interval(3, 4, 10, "mid")],
                    vec![],
                ),
                delta(
                    "Perform",
                    Schema::new(2, 1),
                    vec![],
                    vec![interval(0, 2, 10, "fast")],
                ),
            ],
        );
    }

    #[test]
    fn negation_deltas() {
        check_against_rerun(
            "not (exists t2. exists x. Perform(t, t2; x)) and Idle(t)",
            vec![
                delta(
                    "Perform",
                    Schema::new(2, 1),
                    vec![interval(4, 1, 10, "late")],
                    vec![],
                ),
                delta(
                    "Perform",
                    Schema::new(2, 1),
                    vec![],
                    vec![interval(4, 1, 10, "late")],
                ),
            ],
        );
    }

    /// Both sides of a difference change over a stable active domain, so
    /// every refresh takes the incremental path: a row is inserted and
    /// retracted on each side, once where it covers the other side's
    /// points and once where it does not. One query negates on the same
    /// variables, one on a strict subset.
    #[test]
    fn difference_deltas_on_a_stable_domain() {
        let perform = |row: &GenTuple| {
            [
                delta("Perform", Schema::new(2, 1), vec![row.clone()], vec![]),
                delta("Perform", Schema::new(2, 1), vec![], vec![row.clone()]),
            ]
        };
        let idle = |row: GenTuple| {
            [
                delta("Idle", Schema::new(1, 0), vec![row.clone()], vec![]),
                delta("Idle", Schema::new(1, 0), vec![], vec![row]),
            ]
        };
        for src in [
            "Idle(t) and not (exists t2. exists x. Perform(t, t2; x))",
            "Perform(t1, t2; x) and not Idle(t1)",
        ] {
            let deltas: Vec<RelationDelta> = [
                perform(&interval(4, 1, 10, "fast")),
                idle(GenTuple::unconstrained(vec![lrp(0, 10)], vec![])),
                idle(GenTuple::unconstrained(vec![lrp(2, 10)], vec![])),
                perform(&interval(2, 1, 10, "slow")),
            ]
            .into_iter()
            .flatten()
            .collect();
            let full = check_against_rerun(src, deltas);
            assert_eq!(full, [false; 8], "{src}");
        }
    }

    #[test]
    fn disjunction_and_duplicate_rows() {
        check_against_rerun(
            "(exists t2. exists x. Perform(t, t2; x)) or Idle(t)",
            vec![
                // Insert a duplicate of an existing row, then retract it:
                // the denotation never changes, and the view must agree.
                delta(
                    "Idle",
                    Schema::new(1, 0),
                    vec![GenTuple::unconstrained(vec![lrp(4, 10)], vec![])],
                    vec![],
                ),
                delta(
                    "Idle",
                    Schema::new(1, 0),
                    vec![],
                    vec![GenTuple::unconstrained(vec![lrp(4, 10)], vec![])],
                ),
            ],
        );
    }

    #[test]
    fn adom_change_forces_counted_full_refresh() {
        let ctx = ExecContext::serial();
        let mut cat = catalog();
        let f = parse("exists t1. exists t2. Perform(t1, t2; x) and x != \"fast\"").unwrap();
        let mut view = MaintainedView::new(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
        // A new data value enters the active domain: incremental
        // propagation through `x != "fast"` would be unsound.
        let d = delta(
            "Perform",
            Schema::new(2, 1),
            vec![interval(1, 1, 10, "newcomer")],
            vec![],
        );
        apply(&mut cat, &d);
        let outcome = view.refresh(&cat, &[d], &ctx).unwrap();
        assert!(outcome.full);
        assert_eq!(view.full_refreshes(), 1);
        let fresh = run(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
        assert_same_set(view.relation(), &fresh.result.relation, &ctx);
    }

    #[test]
    fn clean_refresh_touches_nothing_and_counts_rows() {
        let ctx = ExecContext::serial();
        let cat = catalog();
        let f = parse("exists t2. exists x. Perform(t, t2; x)").unwrap();
        let mut view = MaintainedView::new(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
        let before = view.relation().clone();
        let d = delta("Idle", Schema::new(1, 0), vec![], vec![]);
        let outcome = view.refresh(&cat, &[d], &ctx).unwrap();
        assert!(!outcome.full);
        assert_eq!(outcome.delta_rows, 0);
        assert_eq!(view.delta_rows(), 0);
        assert_eq!(*view.relation(), before);
    }

    #[test]
    fn maintained_representation_is_thread_invariant() {
        let f = parse("exists t2. Perform(t1, t2; x) and Idle(t1 + 1)").unwrap();
        let d = delta(
            "Perform",
            Schema::new(2, 1),
            vec![interval(3, 4, 10, "mid")],
            vec![interval(5, 3, 10, "slow")],
        );
        let mut reprs = Vec::new();
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let mut cat = catalog();
            let mut view = MaintainedView::new(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
            apply(&mut cat, &d);
            view.refresh(&cat, std::slice::from_ref(&d), &ctx).unwrap();
            reprs.push(view.relation().clone());
        }
        assert_eq!(reprs[0], reprs[1]);
        assert_eq!(reprs[0], reprs[2]);
    }
}
