//! Incrementally maintained materialized queries.
//!
//! A [`MaintainedView`] is a prepared query whose answer is kept up to
//! date under *signed deltas* — per-relation batches of inserted and
//! retracted generalized tuples ([`RelationDelta`]) — without re-running
//! the query from scratch. It caches every plan node's output from the
//! initial evaluation and, on [`MaintainedView::refresh`], propagates the
//! deltas bottom-up through the plan tree.
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
//! * **Negate** (and the negating projection) — deltas swap sign:
//!   `del' = ins_child`, `ins' = (del_child ∩ full) ∖ ins_child`, and the
//!   cached complement is patched without materializing `full ∖ new`.
//! * **Pass / Arrange / Compact** — forwarded (padding is exact on
//!   deltas; compaction changes representation, not denotation).
//!
//! A subtree that scans none of the changed relations is **clean**: its
//! cached output is returned as-is with empty deltas, skipping the
//! subtree entirely.
//!
//! # Active-domain fallback
//!
//! `DataCmp` nodes, data-column padding and the `full` space of negation
//! all depend on the query's active domain. The view snapshots the adom
//! it was built under; a refresh whose deltas change the adom falls back
//! to one counted **full recompute** ([`RefreshOutcome::full`]) instead
//! of attempting (unsound) delta propagation through adom-dependent
//! operators. Small mutations over a stable value universe — the common
//! case — keep the incremental path.
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

use itd_core::{ExecContext, GenRelation, Schema, Value};

use crate::ast::Formula;
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::eval::{adom_for, prepare_dynamic, Env, Ev, QueryOpts};
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
    fn empty_like(ev: &Ev) -> NodeDelta {
        let schema = Schema::new(ev.tvars.len(), ev.dvars.len());
        NodeDelta {
            ins: GenRelation::empty(schema),
            del: GenRelation::empty(schema),
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
    /// [`PlanNode::id`].
    cache: HashMap<u64, Ev>,
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
        let adom = adom_for(catalog, &prepared.formula);
        let fresh;
        let ctx = match opts.ctx {
            Some(ctx) => ctx,
            None => {
                fresh = ExecContext::new();
                &fresh
            }
        };
        let env = Env::new(catalog, adom.clone(), ctx, true);
        env.exec(prepared.plan.root())?;
        let cache = env.take_record();
        let mut scans = HashMap::new();
        collect_scans(prepared.plan.root(), &mut scans);
        Ok(MaintainedView {
            formula: prepared.formula,
            plan: prepared.plan,
            cache,
            scans,
            adom,
            delta_rows: 0,
            full_refreshes: 0,
        })
    }

    /// The maintained answer relation.
    pub fn relation(&self) -> &GenRelation {
        &self.root_ev().rel
    }

    /// Names of the answer's temporal columns.
    pub fn temporal_vars(&self) -> &[String] {
        &self.root_ev().tvars
    }

    /// Names of the answer's data columns.
    pub fn data_vars(&self) -> &[String] {
        &self.root_ev().dvars
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

    /// Recomputes every cached output from scratch on the current
    /// catalog, counted as a full refresh. For callers whose catalog
    /// mutated *outside* the delta path (no signed rows available), so
    /// incremental propagation has nothing to propagate.
    ///
    /// # Errors
    /// Algebra failures; see [`QueryError`].
    pub fn recompute(&mut self, catalog: &impl Catalog, ctx: &ExecContext) -> Result<()> {
        let scope = ctx.view_refresh_scope();
        let adom = adom_for(catalog, &self.formula);
        let env = Env::new(catalog, adom.clone(), ctx, true);
        env.exec(self.plan.root())?;
        self.cache = env.take_record();
        self.adom = adom;
        self.full_refreshes += 1;
        scope.add_result_rows(self.root_ev().rel.tuple_count());
        Ok(())
    }

    fn root_ev(&self) -> &Ev {
        self.cache
            .get(&self.plan.root().id)
            .expect("root output cached at construction")
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
        let scope = ctx.view_refresh_scope();
        let delta_rows: u64 = deltas.iter().map(RelationDelta::rows).sum();
        scope.add_delta_rows(delta_rows as usize);
        self.delta_rows += delta_rows;

        let adom = adom_for(catalog, &self.formula);
        let full = adom != self.adom;
        if full {
            // Adom-dependent operators (DataCmp enumerations, data-column
            // padding, the full space of negation) baked the old domain
            // into every cached output; recompute rather than patch.
            let env = Env::new(catalog, adom.clone(), ctx, true);
            env.exec(self.plan.root())?;
            self.cache = env.take_record();
            self.adom = adom;
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
        scope.add_result_rows(self.root_ev().rel.tuple_count());
        Ok(RefreshOutcome { full, delta_rows })
    }

    /// Propagates deltas through `n`'s subtree: updates `next[n.id]` to
    /// the refreshed output and returns the node's signed delta.
    fn step(
        &self,
        n: &PlanNode,
        env: &Env<'_, impl Catalog>,
        deltas: &[RelationDelta],
        changed: &BTreeSet<&str>,
        next: &mut HashMap<u64, Ev>,
    ) -> Result<(Ev, NodeDelta)> {
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
            PlanOp::Scan {
                name,
                temporal,
                data,
            } => {
                let d = deltas
                    .iter()
                    .find(|d| d.name == *name)
                    .expect("changed scan has a delta");
                let ins = env.eval_pred_on(d.inserted.clone(), temporal, data)?.rel;
                if d.retracted.tuple_count() == 0 {
                    // Monotone fast path: without retractions the cached
                    // output is still exact, and the scan pipeline is
                    // per-row, so appending the inserted rows' images is
                    // the whole update — no pass over the base relation.
                    let del = GenRelation::empty(ins.schema());
                    let rel = plus(&old.rel, &ins, ctx)?;
                    let new = Ev {
                        rel,
                        tvars: old.tvars.clone(),
                        dvars: old.dvars.clone(),
                    };
                    (new, NodeDelta { ins, del })
                } else {
                    // Retractions force a linear recompute: a retracted
                    // row's points may still be derivable from surviving
                    // rows (duplicates, overlapping periodic sets), so
                    // the old output cannot be patched by subtraction.
                    let base = env
                        .catalog_relation(name)
                        .ok_or_else(|| QueryError::UnknownPredicate(name.to_owned()))?;
                    let new = env.eval_pred_on(base, temporal, data)?;
                    let del_raw = env.eval_pred_on(d.retracted.clone(), temporal, data)?.rel;
                    // A retracted row's output may still be produced by
                    // surviving rows (e.g. a duplicate re-inserted in
                    // the same batch): trim by the recomputed output.
                    let del = minus(&del_raw, &new.rel, ctx)?;
                    (new, NodeDelta { ins, del })
                }
            }
            PlanOp::Conjoin => {
                // Read B's *old* output before recursing overwrites it.
                let b_old = next[&n.children[1].id].clone();
                let (a_new, da) = self.step(&n.children[0], env, deltas, changed, next)?;
                let (b_new, db) = self.step(&n.children[1], env, deltas, changed, next)?;
                let with = |rel: GenRelation, of: &Ev| Ev {
                    rel,
                    tvars: of.tvars.clone(),
                    dvars: of.dvars.clone(),
                };
                // ΔA against old B, then ΔB against new A — the standard
                // two-sided join delta; each output point determines its
                // antecedents, so the four parts patch exactly.
                let d1 = env.conjoin(with(da.del, &a_new), b_old.clone())?.rel;
                let i1 = env.conjoin(with(da.ins, &a_new), b_old)?.rel;
                let d2 = env.conjoin(a_new.clone(), with(db.del, &b_new))?.rel;
                let i2 = env.conjoin(a_new, with(db.ins, &b_new))?.rel;
                let rel = minus(&old.rel, &d1, ctx)?;
                let rel = plus(&rel, &i1, ctx)?;
                let rel = minus(&rel, &d2, ctx)?;
                let rel = plus(&rel, &i2, ctx)?;
                let del = plus(&d1, &d2, ctx)?;
                let ins = plus(&minus(&i1, &d2, ctx)?, &i2, ctx)?;
                let new = Ev {
                    rel,
                    tvars: old.tvars.clone(),
                    dvars: old.dvars.clone(),
                };
                (new, NodeDelta { ins, del })
            }
            PlanOp::Disjoin => {
                let (a_new, da) = self.step(&n.children[0], env, deltas, changed, next)?;
                let (b_new, db) = self.step(&n.children[1], env, deltas, changed, next)?;
                let shape = |rel: GenRelation, of: &Ev| Ev {
                    rel,
                    tvars: of.tvars.clone(),
                    dvars: of.dvars.clone(),
                };
                let ins = env
                    .disjoin(shape(da.ins, &a_new), shape(db.ins, &b_new))?
                    .rel;
                let del_raw = env
                    .disjoin(shape(da.del, &a_new), shape(db.del, &b_new))?
                    .rel;
                let new = env.disjoin(a_new, b_new)?;
                // An element deleted from one branch may survive via the
                // other: trim by the refreshed union.
                let del = minus(&del_raw, &new.rel, ctx)?;
                (new, NodeDelta { ins, del })
            }
            PlanOp::ProjectOut { var, negate } => {
                let (c_new, dc) = self.step(&n.children[0], env, deltas, changed, next)?;
                let shape = |rel: GenRelation| Ev {
                    rel,
                    tvars: c_new.tvars.clone(),
                    dvars: c_new.dvars.clone(),
                };
                let proj_new = env.project_out(c_new.clone(), var)?;
                let ins_p = env.project_out(shape(dc.ins), var)?.rel;
                // A deleted witness may not be the last one: trim by the
                // recomputed projection.
                let del_p = minus(
                    &env.project_out(shape(dc.del), var)?.rel,
                    &proj_new.rel,
                    ctx,
                )?;
                if *negate {
                    self.negate_delta(env, &old, proj_new, ins_p, del_p)?
                } else {
                    (
                        proj_new,
                        NodeDelta {
                            ins: ins_p,
                            del: del_p,
                        },
                    )
                }
            }
            PlanOp::Negate => {
                let (c_new, dc) = self.step(&n.children[0], env, deltas, changed, next)?;
                self.negate_delta(env, &old, c_new, dc.ins, dc.del)?
            }
            PlanOp::Pass => {
                let (new, delta) = self.step(&n.children[0], env, deltas, changed, next)?;
                (new, delta)
            }
            PlanOp::Arrange => {
                let (c_new, dc) = self.step(&n.children[0], env, deltas, changed, next)?;
                let shape = |rel: GenRelation| Ev {
                    rel,
                    tvars: c_new.tvars.clone(),
                    dvars: c_new.dvars.clone(),
                };
                // Padding is a cross product with a fixed space plus a
                // column permutation — exact on signed deltas.
                let ins = env.pad(shape(dc.ins), &n.temporal_vars, &n.data_vars)?;
                let del = env.pad(shape(dc.del), &n.temporal_vars, &n.data_vars)?;
                let rel = env.pad(c_new, &n.temporal_vars, &n.data_vars)?;
                let new = Ev {
                    rel,
                    tvars: n.temporal_vars.clone(),
                    dvars: n.data_vars.clone(),
                };
                (new, NodeDelta { ins, del })
            }
            PlanOp::Compact => {
                let (c_new, dc) = self.step(&n.children[0], env, deltas, changed, next)?;
                let rel = c_new.rel.compact_in(ctx).map_err(QueryError::Core)?;
                let new = Ev {
                    rel,
                    tvars: c_new.tvars,
                    dvars: c_new.dvars,
                };
                // Compaction changes representation, not denotation: the
                // child's deltas describe this output too.
                (new, dc)
            }
            // Leaves without scans (Unit, Empty, TempCmp, DataCmp) have
            // empty scan sets and were handled by the clean-subtree test.
            PlanOp::Unit(_) | PlanOp::Empty | PlanOp::TempCmp { .. } | PlanOp::DataCmp { .. } => {
                unreachable!("scanless leaf reached the dirty path")
            }
        };
        next.insert(n.id, new.clone());
        Ok((new, delta))
    }

    /// The negation delta rule: for `N = full ∖ C`, inserts into `C`
    /// delete from `N` and deletes from `C` insert into `N` (clipped to
    /// the free space). Patches the cached complement `old` without
    /// recomputing `full ∖ C_new`.
    fn negate_delta(
        &self,
        env: &Env<'_, impl Catalog>,
        old: &Ev,
        c_new: Ev,
        ins_c: GenRelation,
        del_c: GenRelation,
    ) -> Result<(Ev, NodeDelta)> {
        let ctx = env.ctx();
        let ins = if del_c.tuple_count() == 0 {
            GenRelation::empty(del_c.schema())
        } else {
            let full = env.full_for(c_new.tvars.len(), c_new.dvars.len())?;
            minus(
                &del_c.intersect_in(&full, ctx).map_err(QueryError::Core)?,
                &ins_c,
                ctx,
            )?
        };
        let rel = minus(&plus(&old.rel, &ins, ctx)?, &ins_c, ctx)?;
        let new = Ev {
            rel,
            tvars: c_new.tvars,
            dvars: c_new.dvars,
        };
        Ok((new, NodeDelta { ins, del: ins_c }))
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

    fn check_against_rerun(src: &str, deltas: Vec<RelationDelta>) {
        let ctx = ExecContext::serial();
        let mut cat = catalog();
        let f = parse(src).unwrap();
        let mut view = MaintainedView::new(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
        for d in deltas {
            apply(&mut cat, &d);
            view.refresh(&cat, std::slice::from_ref(&d), &ctx).unwrap();
            let fresh = run(&cat, &f, QueryOpts::new().ctx(&ctx)).unwrap();
            assert_eq!(view.temporal_vars(), &fresh.result.temporal_vars[..]);
            assert_eq!(view.data_vars(), &fresh.result.data_vars[..]);
            assert_same_set(view.relation(), &fresh.result.relation, &ctx);
        }
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
