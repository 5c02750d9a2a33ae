//! Generalized relations (Definition 2.3) and the relation-level algebra.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use itd_constraint::Atom;

use crate::enumerate::{materialize_tuples, ConcreteTuple};
use crate::error::CoreError;
use crate::exec::{self, ExecContext, OpKind};
use crate::index::RelationIndex;
use crate::normalize::{GridWalk, DEFAULT_NORMALIZE_LIMIT};
use crate::ops;
use crate::schema::Schema;
use crate::store::{Columns, RelStore, RowRef, Rows};
use crate::tuple::GenTuple;
use crate::value::Value;
use crate::Result;

/// A finite set of generalized tuples of one schema — the finite
/// representation of a (usually infinite) set of concrete tuples.
///
/// # Examples
/// ```
/// use itd_core::{Atom, ExecContext, GenRelation, GenTuple, Lrp, Schema};
/// // "Every 10 ticks, a 3-tick task runs": one tuple, infinitely many facts.
/// let task = GenTuple::builder()
///     .lrp(Lrp::new(0, 10).unwrap())
///     .lrp(Lrp::new(3, 10).unwrap())
///     .atom(Atom::diff_eq(1, 0, 3))
///     .build()
///     .unwrap();
/// let rel = GenRelation::builder(Schema::new(2, 0)).push_row(task).build().unwrap();
/// assert!(rel.contains(&[1_000_000, 1_000_003], &[]));
/// // The full algebra is closed: complement, intersect, project, …
/// let ctx = ExecContext::serial();
/// let busy_starts = rel.project_in(&[0], &[], &ctx).unwrap();
/// assert!(busy_starts.contains(&[50], &[]));
/// assert!(!busy_starts.contains(&[51], &[]));
/// let idle = busy_starts.complement_temporal_in(&ctx).unwrap();
/// assert!(idle.contains(&[51], &[]));
/// ```
///
/// # Storage and snapshots
///
/// Relations are `Arc`-backed views of a columnar, interned
/// columnar store: [`GenRelation::clone`] is `O(1)` and shares
/// storage with the original (copy-on-write on
/// [`GenRelation::push`]), residue indexes persist on the store across
/// operator calls, and row access goes through the [`GenRelation::rows`] /
/// [`GenRelation::columns`] view API.
#[derive(Debug, Clone)]
pub struct GenRelation {
    schema: Schema,
    store: Arc<RelStore>,
}

impl PartialEq for GenRelation {
    fn eq(&self, other: &GenRelation) -> bool {
        if self.schema != other.schema {
            return false;
        }
        if Arc::ptr_eq(&self.store, &other.store) {
            return true;
        }
        // Interned ids are canonical: equal id sequences ⟺ equal rows
        // (order-sensitive, like the old derived `Vec<GenTuple>` equality).
        self.store.part_ids() == other.store.part_ids()
            && self.store.data_columns() == other.store.data_columns()
    }
}

impl Eq for GenRelation {}

impl GenRelation {
    /// Starts building a relation of the given schema; see
    /// [`RelationBuilder`].
    pub fn builder(schema: Schema) -> RelationBuilder {
        RelationBuilder {
            schema,
            rows: Vec::new(),
        }
    }

    /// The empty relation of the given schema.
    pub fn empty(schema: Schema) -> GenRelation {
        GenRelation {
            schema,
            store: Arc::new(RelStore::empty(schema)),
        }
    }

    /// Builds a relation from rows.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] if a tuple disagrees with `schema`.
    pub fn new(schema: Schema, tuples: Vec<GenTuple>) -> Result<GenRelation> {
        for t in &tuples {
            if t.schema() != schema {
                return Err(CoreError::SchemaMismatch {
                    expected: schema,
                    found: t.schema(),
                });
            }
        }
        Ok(GenRelation::from_vec(schema, tuples))
    }

    /// Internal constructor for operator outputs: every tuple is already
    /// known to match the schema.
    pub(crate) fn from_vec(schema: Schema, tuples: Vec<GenTuple>) -> GenRelation {
        GenRelation {
            schema,
            store: Arc::new(RelStore::from_tuples(schema, tuples)),
        }
    }

    /// The full space `Z^temporal × (any data)` is not representable with
    /// data attributes; for purely temporal schemas this returns the
    /// relation denoting all of `Z^temporal`.
    ///
    /// # Errors
    /// [`CoreError::ComplementHasData`] for schemas with data attributes.
    pub fn full_temporal(schema: Schema) -> Result<GenRelation> {
        if !schema.is_purely_temporal() {
            return Err(CoreError::ComplementHasData);
        }
        let lrps = vec![itd_lrp::Lrp::all(); schema.temporal()];
        Ok(GenRelation::from_vec(
            schema,
            vec![GenTuple::unconstrained(lrps, vec![])],
        ))
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> Schema {
        self.schema
    }

    /// The stored rows, shared by the row-oriented operator loops.
    pub(crate) fn rows_slice(&self) -> &[GenTuple] {
        self.store.rows()
    }

    /// The columnar store behind the rows.
    pub(crate) fn store(&self) -> &RelStore {
        &self.store
    }

    /// How many relations and memos share this relation's store.
    #[cfg(test)]
    pub(crate) fn store_strong_count(&self) -> usize {
        Arc::strong_count(&self.store)
    }

    /// Cursor iteration over the rows as [`RowRef`] views.
    pub fn rows(&self) -> Rows<'_> {
        Rows::new(&self.store)
    }

    /// The row at `idx`, if in range.
    #[must_use]
    pub fn row(&self, idx: usize) -> Option<RowRef<'_>> {
        (idx < self.store.len()).then(|| RowRef::new(&self.store, idx))
    }

    /// Typed access to the columnar storage (flat temporal offset/period
    /// slices, interned data id slices).
    pub fn columns(&self) -> Columns<'_> {
        Columns::new(&self.store)
    }

    /// The persistent residue index of this relation over the given
    /// column sets: built on first use, cached on the store, reused by
    /// every later call (including the algebra's own indexed paths) and
    /// maintained across [`GenRelation::push`] appends.
    pub fn residue_index(
        &self,
        temporal_cols: &[usize],
        data_cols: &[usize],
    ) -> Arc<RelationIndex> {
        self.store.index_for(temporal_cols, data_cols)
    }

    /// Number of generalized tuples (the paper's `N`).
    ///
    /// This counts the *representation*, not the denotation — a relation
    /// with many tuples can still denote the empty set
    /// ([`GenRelation::denotes_empty`]) and one tuple usually denotes
    /// infinitely many facts.
    #[must_use]
    pub fn tuple_count(&self) -> usize {
        self.store.len()
    }

    /// Is the representation empty (no tuples at all)?
    ///
    /// Note: a relation with tuples can still *denote* the empty set; that
    /// exact test is [`GenRelation::denotes_empty`].
    #[must_use]
    pub fn has_no_tuples(&self) -> bool {
        self.store.len() == 0
    }

    /// Adds one tuple — the unified append path.
    ///
    /// Appends in place when this relation is the sole owner of its store;
    /// when snapshots share the store, the columns are copied first
    /// (copy-on-write), so existing clones never observe the append.
    /// Either way, cached residue indexes are extended incrementally when
    /// the new row preserves their moduli and precisely invalidated when
    /// it does not.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] on schema disagreement.
    pub fn push(&mut self, t: GenTuple) -> Result<()> {
        if t.schema() != self.schema {
            return Err(CoreError::SchemaMismatch {
                expected: self.schema,
                found: t.schema(),
            });
        }
        match Arc::get_mut(&mut self.store) {
            Some(store) => store.push_row(t),
            None => {
                let mut store = self.store.cloned();
                store.push_row(t);
                self.store = Arc::new(store);
            }
        }
        Ok(())
    }

    /// Removes every row structurally equal to `t` — the signed counterpart
    /// of [`GenRelation::push`] used by delta mutation. Returns how many
    /// rows were removed (0 when `t` is absent: retraction of a missing
    /// row is a no-op, not an error).
    ///
    /// Equality is representational (same lrp vector, constraint system,
    /// and data values), matching how deltas are produced: a retract names
    /// the exact generalized tuple that was inserted, never a denotation.
    /// Surviving rows keep their positional order and the store is rebuilt
    /// as a positional subset, so clones sharing the old store never
    /// observe the removal.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] on schema disagreement.
    pub fn retract(&mut self, t: &GenTuple) -> Result<usize> {
        if t.schema() != self.schema {
            return Err(CoreError::SchemaMismatch {
                expected: self.schema,
                found: t.schema(),
            });
        }
        let rows = self.rows_slice();
        let keep: Vec<usize> = (0..rows.len()).filter(|&i| &rows[i] != t).collect();
        let removed = rows.len() - keep.len();
        if removed > 0 {
            self.store = Arc::new(self.store.select(&keep));
        }
        Ok(removed)
    }

    /// Membership of a concrete tuple (each row compares its data before
    /// any temporal arithmetic runs).
    #[must_use]
    pub fn contains(&self, times: &[i64], data: &[Value]) -> bool {
        self.rows().any(|r| r.contains(times, data))
    }

    /// Exact emptiness (Theorem 3.5): does the relation denote no tuple?
    ///
    /// # Errors
    /// Arithmetic overflow during normalization.
    pub fn denotes_empty(&self) -> Result<bool> {
        for t in self.rows_slice() {
            if !t.is_empty()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Union (§3.1): merge the tuple sets. Instrumentation only — union
    /// is a concatenation and never worth fanning out.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`].
    pub fn union_in(&self, other: &GenRelation, ctx: &ExecContext) -> Result<GenRelation> {
        self.check_schema(other)?;
        let timer = ctx.timed(OpKind::Union);
        timer.add_in(self.store.len() + other.store.len());
        // Columnar concatenation: id and Arc copies, no re-hashing.
        let store = RelStore::concat(&self.store, &other.store);
        timer.add_out(store.len());
        Ok(GenRelation {
            schema: self.schema,
            store: Arc::new(store),
        })
    }

    /// Intersection (§3.2): union of pairwise tuple intersections, served
    /// by the columnar batch kernel (`crate::kernel`): candidate pairs are
    /// probed through the persistent residue index, then batch-filtered
    /// by gcd-congruence and data-id equality straight off the flat
    /// columns — only survivors derive, from the borrowed stored rows,
    /// through the process-wide pairwise outcome cache. The result and every
    /// [`OpKind::Intersect`] counter are identical at any thread count.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`]; arithmetic failures.
    pub fn intersect_in(&self, other: &GenRelation, ctx: &ExecContext) -> Result<GenRelation> {
        self.check_schema(other)?;
        let timer = ctx.timed(OpKind::Intersect);
        let tuples = crate::kernel::intersect(&self.store, &other.store, ctx, &timer)?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(self.schema, tuples))
    }

    /// [`GenRelation::difference_in`] on a fresh serial context.
    ///
    /// The one context-free operator left: the benchmark harness in
    /// `perfbench/` calls it, and it goes when that harness next changes.
    ///
    /// # Errors
    /// See [`GenRelation::difference_in`].
    pub fn difference(&self, other: &GenRelation) -> Result<GenRelation> {
        self.difference_in(other, &ExecContext::serial())
    }

    /// Difference (§3.3): fold of tuple differences,
    /// `r1 − r2 = ∪ᵢ ((t1ᵢ − t21) − … − t2m)`.
    ///
    /// Grid-empty intermediate tuples are pruned after every step — the
    /// "suppress redundant tuples at each intersection" device that keeps
    /// fixed-schema difference polynomial (Appendix A.7). Served by the
    /// columnar batch kernel (`crate::kernel`): per fold, the subtrahends
    /// are probed through the persistent residue index and batch-filtered
    /// over the flat columns (a rejected `t2` is columnwise disjoint from
    /// `t1` or differs in data, so its step is a provable no-op), and
    /// only the steps that run derive, from the borrowed stored rows. The
    /// fold polls the cancel token once per member. The result and every
    /// [`OpKind::Difference`] counter are identical at any thread count.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`]; [`CoreError::TooManyExtensions`] when
    /// a tuple difference would walk more than 2²⁰ residue classes of a
    /// column (see [`ops::difference_tuples`]) or an intermediate's
    /// emptiness test gives up after 2²⁰ combinations; arithmetic failures.
    pub fn difference_in(&self, other: &GenRelation, ctx: &ExecContext) -> Result<GenRelation> {
        self.check_schema(other)?;
        let timer = ctx.timed(OpKind::Difference);
        let tuples = crate::kernel::difference(&self.store, &other.store, ctx, &timer)?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(self.schema, tuples))
    }

    /// Projection (§3.4) onto the listed temporal and data columns
    /// (order given; may permute). Per-tuple projection (which normalizes
    /// internally and is the costly part) is fanned over the context's
    /// threads; [`OpKind::Project`] counters are updated.
    ///
    /// Each tuple takes the cheapest of [`ops::project_tuple`]'s three
    /// paths — nothing dropped, join duplicates substituted, or general
    /// elimination — and every path returns the same tuples. Identity
    /// keep lists (every column, in order) skip the tuples altogether:
    /// the result is an `O(1)` snapshot sharing this relation's store,
    /// recorded as one [`OpKind::Project`] call with `in == out`. (A
    /// relation holding a tuple whose constraints are unsatisfiable still
    /// takes the per-tuple path, which drops that tuple.)
    ///
    /// # Errors
    /// [`CoreError::AttributeOutOfRange`]; [`CoreError::RepeatedAttribute`]
    /// when a keep list names a column twice; arithmetic failures.
    pub fn project_in(
        &self,
        temporal_keep: &[usize],
        data_keep: &[usize],
        ctx: &ExecContext,
    ) -> Result<GenRelation> {
        check_keep(temporal_keep, self.schema.temporal())?;
        check_keep(data_keep, self.schema.data())?;
        let timer = ctx.timed(OpKind::Project);
        let n = self.store.len();
        timer.add_in(n);
        let identity = |keep: &[usize], arity: usize| keep.iter().copied().eq(0..arity);
        if identity(temporal_keep, self.schema.temporal())
            && identity(data_keep, self.schema.data())
            && self.rows().all(|r| r.constraints().is_satisfiable())
        {
            if n > 0 {
                ctx.check_cancelled()?;
            }
            timer.add_out(n);
            return Ok(self.clone());
        }
        let tuples = exec::run_chunked(ctx, self.rows_slice(), |t| {
            ops::project_tuple(t, temporal_keep, data_keep)
        })?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(
            Schema::new(temporal_keep.len(), data_keep.len()),
            tuples,
        ))
    }

    /// Temporal selection (§3.5): conjoins the constraint atom to every
    /// tuple and prunes the contradictory ones ([`OpKind::Select`]).
    ///
    /// # Errors
    /// [`CoreError::AttributeOutOfRange`]; arithmetic failures.
    pub fn select_temporal_in(&self, atom: Atom, ctx: &ExecContext) -> Result<GenRelation> {
        if atom.max_var() >= self.schema.temporal() {
            return Err(CoreError::AttributeOutOfRange {
                index: atom.max_var(),
                arity: self.schema.temporal(),
            });
        }
        let timer = ctx.timed(OpKind::Select);
        let lt = self.rows_slice();
        timer.add_in(lt.len());
        let tuples = exec::run_chunked(ctx, lt, |t| {
            let mut cons = t.constraints().clone();
            cons.add(atom)?;
            timer.add_atoms(1);
            if cons.is_satisfiable() {
                Ok(vec![t.with_constraints(cons)])
            } else {
                timer.add_pruned(1);
                Ok(vec![])
            }
        })?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(self.schema, tuples))
    }

    /// Data selection: keeps the tuples whose data vector satisfies the
    /// predicate (data attributes are concrete, so this is classical
    /// relational selection). Instrumentation only — the predicate need
    /// not be thread-safe.
    pub fn select_data_in(
        &self,
        pred: impl Fn(&[Value]) -> bool,
        ctx: &ExecContext,
    ) -> GenRelation {
        let timer = ctx.timed(OpKind::Select);
        let lt = self.rows_slice();
        timer.add_in(lt.len());
        let keep: Vec<usize> = lt
            .iter()
            .enumerate()
            .filter(|(_, t)| pred(t.data()))
            .map(|(i, _)| i)
            .collect();
        timer.add_pruned((lt.len() - keep.len()) as u64);
        timer.add_out(keep.len());
        self.subset(&keep)
    }

    /// The rows at positions `keep`, in that order: a positional column
    /// copy in which the rows keep their interned ids and nothing is
    /// re-hashed.
    pub(crate) fn subset(&self, keep: &[usize]) -> GenRelation {
        GenRelation {
            schema: self.schema,
            store: Arc::new(self.store.select(keep)),
        }
    }

    /// Cross product (§3.6): pairwise tuple products fanned over the
    /// context's threads ([`OpKind::Product`]).
    ///
    /// # Errors
    /// Arithmetic failures.
    pub fn cross_product_in(&self, other: &GenRelation, ctx: &ExecContext) -> Result<GenRelation> {
        let timer = ctx.timed(OpKind::Product);
        let lt = self.rows_slice();
        let rt = other.rows_slice();
        timer.add_in(lt.len() + rt.len());
        timer.add_pairs(lt.len() as u64 * rt.len() as u64);
        let tuples = exec::run_chunked(ctx, lt, |t1| {
            let mut out = Vec::with_capacity(rt.len());
            for t2 in rt {
                out.push(ops::cross_product_tuples(t1, t2)?);
            }
            Ok(out)
        })?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(
            self.schema.concat(&other.schema),
            tuples,
        ))
    }

    /// Equi-join (§3.7) on the listed temporal / data attribute pairs.
    ///
    /// Keeps all columns of both sides (joined temporal columns are pinned
    /// equal); project afterwards to drop duplicates — the paper's "common
    /// column" join is `join_on_in(...)` followed by such a projection.
    ///
    /// Served by the columnar batch kernel (`crate::kernel`): `other` is
    /// residue-indexed on the *right* columns of the join pairs, each
    /// left row probes with its *left* columns, and candidates are
    /// batch-filtered by gcd-congruence / data-id equality on exactly the
    /// paired columns before any pair derives. The result and every
    /// [`OpKind::Join`] counter are identical at any thread count.
    ///
    /// # Errors
    /// [`CoreError::AttributeOutOfRange`]; arithmetic failures.
    pub fn join_on_in(
        &self,
        other: &GenRelation,
        temporal_pairs: &[(usize, usize)],
        data_pairs: &[(usize, usize)],
        ctx: &ExecContext,
    ) -> Result<GenRelation> {
        self.check_join_pairs(other, temporal_pairs, data_pairs)?;
        let timer = ctx.timed(OpKind::Join);
        let tuples = crate::kernel::join_on(
            &self.store,
            &other.store,
            temporal_pairs,
            data_pairs,
            ctx,
            &timer,
        )?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(
            self.schema.concat(&other.schema),
            tuples,
        ))
    }

    /// Validates join pair indices against both schemas.
    fn check_join_pairs(
        &self,
        other: &GenRelation,
        temporal_pairs: &[(usize, usize)],
        data_pairs: &[(usize, usize)],
    ) -> Result<()> {
        for &(i, j) in temporal_pairs {
            if i >= self.schema.temporal() || j >= other.schema.temporal() {
                return Err(CoreError::AttributeOutOfRange {
                    index: i.max(j),
                    arity: self.schema.temporal().min(other.schema.temporal()),
                });
            }
        }
        for &(i, j) in data_pairs {
            if i >= self.schema.data() || j >= other.schema.data() {
                return Err(CoreError::AttributeOutOfRange {
                    index: i.max(j),
                    arity: self.schema.data().min(other.schema.data()),
                });
            }
        }
        Ok(())
    }

    /// Complement within `Z^temporal` (Appendix A.6), purely temporal
    /// schemas only, with the default extension limit; see
    /// [`GenRelation::complement_temporal_with_limit_in`].
    ///
    /// # Errors
    /// [`CoreError::ComplementHasData`]; [`CoreError::TooManyExtensions`].
    pub fn complement_temporal_in(&self, ctx: &ExecContext) -> Result<GenRelation> {
        self.complement_temporal_with_limit_in(ops::DEFAULT_COMPLEMENT_LIMIT, ctx)
    }

    /// Complement with an explicit `k^m` ceiling: the free-extension
    /// enumeration (Appendix A.6) is fanned over the context's threads and
    /// [`OpKind::Complement`] counters record the database period and
    /// pruned disjuncts.
    ///
    /// # Errors
    /// See [`GenRelation::complement_temporal_in`].
    pub fn complement_temporal_with_limit_in(
        &self,
        limit: u64,
        ctx: &ExecContext,
    ) -> Result<GenRelation> {
        if !self.schema.is_purely_temporal() {
            return Err(CoreError::ComplementHasData);
        }
        let timer = ctx.timed(OpKind::Complement);
        let lt = self.rows_slice();
        timer.add_in(lt.len());
        let tuples = ops::complement_tuples_in(lt, self.schema.temporal(), limit, ctx, &timer)?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(self.schema, tuples))
    }

    /// Translates one temporal column: the result denotes
    /// `{(…, xᵢ + delta, …) | (…, xᵢ, …) ∈ self}`.
    ///
    /// Used by the query layer to interpret successor terms `t + c`
    /// ([`OpKind::Shift`]).
    ///
    /// # Errors
    /// [`CoreError::AttributeOutOfRange`]; arithmetic overflow.
    pub fn shift_temporal_in(
        &self,
        col: usize,
        delta: i64,
        ctx: &ExecContext,
    ) -> Result<GenRelation> {
        if col >= self.schema.temporal() {
            return Err(CoreError::AttributeOutOfRange {
                index: col,
                arity: self.schema.temporal(),
            });
        }
        let timer = ctx.timed(OpKind::Shift);
        let lt = self.rows_slice();
        timer.add_in(lt.len());
        let tuples = exec::run_chunked(ctx, lt, |t| {
            let mut lrps = t.lrps().to_vec();
            lrps[col] = lrps[col].shift(delta)?;
            let cons = t.constraints().shift_var(col, delta)?;
            Ok(vec![GenTuple::from_parts(lrps, cons, t.data().to_vec())?])
        })?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(self.schema, tuples))
    }

    /// Normalizes every tuple (Theorem 3.2); the result denotes the same
    /// set with every tuple in normal form. Per-tuple normalization
    /// (refinement cross product and grid transforms) is fanned over the
    /// context's threads. The [`OpKind::Normalize`]
    /// counters record the refinement combinations examined (`pairs`, the
    /// paper's `Π k/kᵢ`), grid-unsatisfiable combinations dropped
    /// (`empties_pruned`), constraint atoms of rewritten tuples
    /// (`atoms_simplified`), and the largest common period (`max_period`).
    ///
    /// # Errors
    /// Arithmetic failures; the per-tuple refinement limit.
    pub fn normalize_in(&self, ctx: &ExecContext) -> Result<GenRelation> {
        let timer = ctx.timed(OpKind::Normalize);
        let lt = self.rows_slice();
        timer.add_in(lt.len());
        let tuples = exec::run_chunked(ctx, lt, |t| {
            let (out, report) = crate::normalize::normalize_with_limit_report(
                t,
                crate::normalize::DEFAULT_NORMALIZE_LIMIT,
            )?;
            timer.record_period(report.period);
            timer.add_pairs(report.combos);
            timer.add_pruned(report.dropped);
            let unchanged = out.len() == 1 && out[0] == *t;
            if !unchanged {
                timer.add_atoms(t.constraints().atoms().len() as u64);
            }
            Ok(out)
        })?;
        timer.add_out(tuples.len());
        Ok(GenRelation::from_vec(self.schema, tuples))
    }

    /// Adaptive compaction: drops unsatisfiable and subsumed tuples, then
    /// coalesces complete residue-class groups back into coarser tuples
    /// (the `compact` module). The result denotes the same set with at
    /// most as many tuples; the pass is near-linear thanks to a residue
    /// pre-filter and is what the query executor runs between plan nodes.
    ///
    /// The pass is deliberately serial (it is near-linear, and a serial
    /// pass is trivially bit-identical at any thread count); the
    /// [`OpKind::Compact`] counters record tuples dropped as subsumed and
    /// eliminated by coalescing, with
    /// `tuples_subsumed + coalesce_merges + tuples_out == tuples_in`
    /// per call.
    ///
    /// A store is compacted at most once: the result and its counters are
    /// memoized on the store, and a later call on any snapshot of it
    /// returns a relation sharing the first output's store and replays the
    /// same counters (only the wall time differs). An already-compact
    /// relation compacts to an `O(1)` snapshot of itself.
    ///
    /// # Errors
    /// Arithmetic failures while rebuilding lrps.
    pub fn compact_in(&self, ctx: &ExecContext) -> Result<GenRelation> {
        let timer = ctx.timed(OpKind::Compact);
        timer.add_in(self.store.len());
        let (store, report) = self.store.compacted(|| {
            let (out, report) = crate::compact::compact_relation(self)?;
            let changed = !Arc::ptr_eq(&out.store, &self.store);
            Ok((changed.then_some(out.store), report))
        })?;
        let out = GenRelation {
            schema: self.schema,
            store: Arc::clone(store.as_ref().unwrap_or(&self.store)),
        };
        timer.add_subsumed(report.subsumed);
        timer.add_merges(report.merges);
        timer.add_out(out.tuple_count());
        Ok(out)
    }

    /// The minimum value taken by temporal column `col` over the whole
    /// denotation: `Some(v)` if the column is bounded below and nonempty,
    /// `None` if the relation is empty on that column or unbounded below.
    ///
    /// Computed symbolically: per normalized tuple, the column's smallest
    /// grid point satisfying the (exact) grid bounds.
    ///
    /// # Errors
    /// [`CoreError::AttributeOutOfRange`]; arithmetic failures.
    pub fn min_temporal(&self, col: usize) -> Result<Option<i64>> {
        self.extremum(col, true)
    }

    /// The maximum value of temporal column `col`, if bounded above; see
    /// [`GenRelation::min_temporal`].
    ///
    /// # Errors
    /// [`CoreError::AttributeOutOfRange`]; arithmetic failures.
    pub fn max_temporal(&self, col: usize) -> Result<Option<i64>> {
        self.extremum(col, false)
    }

    fn extremum(&self, col: usize, minimum: bool) -> Result<Option<i64>> {
        if col >= self.schema.temporal() {
            return Err(CoreError::AttributeOutOfRange {
                index: col,
                arity: self.schema.temporal(),
            });
        }
        let overflow = || CoreError::Numth(itd_numth::NumthError::Overflow);
        // Project onto the column first (exact), then read the grid bounds
        // of each tuple's normal form.
        let projected = self.project_in(&[col], &[], &ExecContext::serial())?;
        let mut best: Option<i64> = None;
        for t in projected.rows_slice() {
            let mut walk = GridWalk::new(t, DEFAULT_NORMALIZE_LIMIT)?;
            let k = walk.period();
            while let Some((lrps, grid)) = walk.next()? {
                let n = if minimum {
                    match grid.lower(0) {
                        Some(n) => n,
                        None => return Ok(None), // unbounded below
                    }
                } else {
                    match grid.upper(0).finite() {
                        Some(n) => n,
                        None => return Ok(None), // unbounded above
                    }
                };
                let value = lrps[0]
                    .offset()
                    .checked_add(k.checked_mul(n).ok_or_else(overflow)?)
                    .ok_or_else(overflow)?;
                best = Some(match best {
                    None => value,
                    Some(b) if minimum => b.min(value),
                    Some(b) => b.max(value),
                });
            }
        }
        Ok(best)
    }

    /// The smallest value of temporal column `col` that is `>= bound` — the
    /// "next occurrence" query for periodic data.
    ///
    /// Returns `None` when no such value exists (empty relation, or the
    /// whole column lies below `bound`).
    ///
    /// # Errors
    /// [`CoreError::AttributeOutOfRange`]; arithmetic failures.
    pub fn next_occurrence(&self, col: usize, bound: i64) -> Result<Option<i64>> {
        self.select_temporal_in(Atom::ge(col, bound), &ExecContext::serial())?
            .min_temporal(col)
    }

    /// Brute-force materialization of every concrete tuple whose temporal
    /// values all lie in `[lo, hi]` — the semantics oracle.
    pub fn materialize(&self, lo: i64, hi: i64) -> BTreeSet<ConcreteTuple> {
        materialize_tuples(self.rows_slice(), lo, hi)
    }

    fn check_schema(&self, other: &GenRelation) -> Result<()> {
        if self.schema != other.schema {
            return Err(CoreError::SchemaMismatch {
                expected: self.schema,
                found: other.schema,
            });
        }
        Ok(())
    }
}

/// Sound subsumption check: is `small ⊆ big` certain?
pub(crate) fn tuple_subsumes(big: &GenTuple, small: &GenTuple) -> bool {
    small.data() == big.data()
        && small
            .lrps()
            .iter()
            .zip(big.lrps())
            .all(|(s, b)| b.includes(s))
        && small.constraints().entails(big.constraints())
}

/// Validates a projection keep list against an arity: every index in
/// range, none repeated.
fn check_keep(keep: &[usize], arity: usize) -> Result<()> {
    let mut seen = vec![false; arity];
    for &index in keep {
        if index >= arity {
            return Err(CoreError::AttributeOutOfRange { index, arity });
        }
        if std::mem::replace(&mut seen[index], true) {
            return Err(CoreError::RepeatedAttribute { index });
        }
    }
    Ok(())
}

/// Incremental constructor for [`GenRelation`], obtained from
/// [`GenRelation::builder`] — the unified append path of the columnar
/// storage API.
///
/// Rows are accumulated with [`push_row`](RelationBuilder::push_row) /
/// [`push_rows`](RelationBuilder::push_rows); the schema check for every
/// accumulated row happens once in [`build`](RelationBuilder::build),
/// which interns all temporal parts and data values in one pass.
///
/// ```
/// use itd_core::{GenRelation, GenTuple, Schema};
/// use itd_lrp::Lrp;
///
/// let r = GenRelation::builder(Schema::new(1, 0))
///     .push_row(
///         GenTuple::builder()
///             .lrp(Lrp::new(0, 2).unwrap())
///             .build()
///             .unwrap(),
///     )
///     .build()
///     .unwrap();
/// assert_eq!(r.tuple_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RelationBuilder {
    pub(crate) schema: Schema,
    pub(crate) rows: Vec<GenTuple>,
}

impl RelationBuilder {
    /// Appends one row.
    #[must_use]
    pub fn push_row(mut self, t: GenTuple) -> Self {
        self.rows.push(t);
        self
    }

    /// Appends every row from an iterator.
    #[must_use]
    pub fn push_rows(mut self, ts: impl IntoIterator<Item = GenTuple>) -> Self {
        self.rows.extend(ts);
        self
    }

    /// Finishes the relation, verifying that every row matches the schema.
    ///
    /// # Errors
    /// [`CoreError::SchemaMismatch`] if any row disagrees with the schema.
    pub fn build(self) -> Result<GenRelation> {
        GenRelation::new(self.schema, self.rows)
    }
}

/// Columnar serde for [`GenRelation`]: the distinct temporal parts and
/// data values are written once as local id tables, rows as id arrays —
/// mirroring the in-memory interned layout. Deserialization also accepts
/// the legacy row-oriented `{schema, tuples}` format, so files written
/// before the columnar storage stay readable.
#[cfg(feature = "serde")]
mod relation_serde {
    use std::collections::HashMap;

    use serde::{de, Content, Deserialize, Serialize};

    use super::GenRelation;
    use crate::schema::Schema;
    use crate::store;
    use crate::tuple::GenTuple;
    use crate::value::Value;
    use itd_constraint::ConstraintSystem;
    use itd_lrp::Lrp;

    /// One distinct temporal part in the file's local id table.
    #[derive(Serialize, Deserialize)]
    struct PartRepr {
        lrps: Vec<Lrp>,
        cons: ConstraintSystem,
    }

    /// The columnar file format: id tables written once, rows and data
    /// columns as local-id arrays.
    #[derive(Serialize, Deserialize)]
    struct ColumnarRepr {
        schema: Schema,
        parts: Vec<PartRepr>,
        values: Vec<Value>,
        rows: Vec<u32>,
        data: Vec<Vec<u32>>,
    }

    impl Serialize for GenRelation {
        fn to_content(&self) -> Content {
            // Local-id tables in first-seen order: global interned ids are
            // canonical within the process but not across files, so the
            // written ids are file-local and deterministic.
            let mut part_local: HashMap<store::TemporalPartId, u32> = HashMap::new();
            let mut parts: Vec<PartRepr> = Vec::new();
            let mut rows = Vec::with_capacity(self.store.len());
            for (row, &pid) in self.store.part_ids().iter().enumerate() {
                let local = *part_local.entry(pid).or_insert_with(|| {
                    let part = self.store.part(row);
                    parts.push(PartRepr {
                        lrps: part.lrps.clone(),
                        cons: part.cons.clone(),
                    });
                    (parts.len() - 1) as u32
                });
                rows.push(local);
            }
            let mut value_local: HashMap<store::ValueId, u32> = HashMap::new();
            let mut values: Vec<Value> = Vec::new();
            let data = self
                .store
                .data_columns()
                .iter()
                .map(|col| {
                    col.iter()
                        .map(|&vid| {
                            *value_local.entry(vid).or_insert_with(|| {
                                values.push(store::resolve_value(vid));
                                (values.len() - 1) as u32
                            })
                        })
                        .collect()
                })
                .collect();
            ColumnarRepr {
                schema: self.schema,
                parts,
                values,
                rows,
                data,
            }
            .to_content()
        }
    }

    impl Deserialize for GenRelation {
        fn from_content(content: &Content) -> Result<GenRelation, de::DeError> {
            let entries = de::as_struct_map(content, "GenRelation")?;
            if entries.iter().any(|(k, _)| k == "tuples") {
                // Legacy row-oriented format: `{schema, tuples}`.
                let schema: Schema = de::field(entries, "schema", "GenRelation")?;
                let tuples: Vec<GenTuple> = de::field(entries, "tuples", "GenRelation")?;
                return GenRelation::new(schema, tuples)
                    .map_err(|e| de::DeError::msg(e.to_string()));
            }
            let ColumnarRepr {
                schema,
                parts,
                values,
                rows,
                data,
            } = ColumnarRepr::from_content(content)?;
            if data.len() != schema.data() {
                return Err(de::DeError::msg(format!(
                    "GenRelation: expected {} data columns, found {}",
                    schema.data(),
                    data.len()
                )));
            }
            for col in &data {
                if col.len() != rows.len() {
                    return Err(de::DeError::msg(format!(
                        "GenRelation: data column has {} rows, expected {}",
                        col.len(),
                        rows.len()
                    )));
                }
            }
            let mut tuples = Vec::with_capacity(rows.len());
            for (row, &local) in rows.iter().enumerate() {
                let part = parts.get(local as usize).ok_or_else(|| {
                    de::DeError::msg(format!("GenRelation: part id {local} out of range"))
                })?;
                let mut row_data = Vec::with_capacity(data.len());
                for col in &data {
                    let vid = col[row];
                    let v = values.get(vid as usize).ok_or_else(|| {
                        de::DeError::msg(format!("GenRelation: value id {vid} out of range"))
                    })?;
                    row_data.push(v.clone());
                }
                tuples.push(
                    GenTuple::from_parts(part.lrps.clone(), part.cons.clone(), row_data)
                        .map_err(|e| de::DeError::msg(e.to_string()))?,
                );
            }
            GenRelation::new(schema, tuples).map_err(|e| de::DeError::msg(e.to_string()))
        }
    }
}

impl fmt::Display for GenRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "relation {} with {} tuple(s):",
            self.schema,
            self.tuple_count()
        )?;
        for t in self.rows_slice() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_lrp::Lrp;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    fn rel1(tuples: Vec<GenTuple>) -> GenRelation {
        GenRelation::new(Schema::new(1, 0), tuples).unwrap()
    }

    #[test]
    fn schema_checked_on_build_and_push() {
        let t = GenTuple::unconstrained(vec![lrp(0, 2)], vec![]);
        let err = GenRelation::new(Schema::new(2, 0), vec![t.clone()]).unwrap_err();
        assert!(matches!(err, CoreError::SchemaMismatch { .. }));
        let mut r = GenRelation::empty(Schema::new(1, 0));
        r.push(t).unwrap();
        assert_eq!(r.tuple_count(), 1);
        let bad = GenTuple::unconstrained(vec![], vec![Value::Int(1)]);
        assert!(r.push(bad).is_err());
    }

    #[test]
    fn union_merges() {
        let a = rel1(vec![GenTuple::unconstrained(vec![lrp(0, 2)], vec![])]);
        let b = rel1(vec![GenTuple::unconstrained(vec![lrp(1, 2)], vec![])]);
        let u = a.union_in(&b, &ExecContext::serial()).unwrap();
        assert_eq!(u.tuple_count(), 2);
        assert!(u.contains(&[0], &[]));
        assert!(u.contains(&[1], &[]));
        // Everything is covered: union of evens and odds.
        let m = u.materialize(-5, 5);
        assert_eq!(m.len(), 11);
    }

    #[test]
    fn intersect_pairs() {
        let a = rel1(vec![
            GenTuple::unconstrained(vec![lrp(0, 2)], vec![]),
            GenTuple::unconstrained(vec![lrp(0, 3)], vec![]),
        ]);
        let b = rel1(vec![GenTuple::unconstrained(vec![lrp(0, 5)], vec![])]);
        let i = a.intersect_in(&b, &ExecContext::serial()).unwrap();
        // evens ∩ 5Z = 10Z; 3Z ∩ 5Z = 15Z
        assert!(i.contains(&[10], &[]));
        assert!(i.contains(&[15], &[]));
        assert!(i.contains(&[30], &[]));
        assert!(!i.contains(&[5], &[]));
        assert!(!i.contains(&[6], &[]));
    }

    #[test]
    fn difference_fold() {
        // Z − evens − (3Z+1) on a window.
        let z = rel1(vec![GenTuple::unconstrained(vec![Lrp::all()], vec![])]);
        let evens = rel1(vec![GenTuple::unconstrained(vec![lrp(0, 2)], vec![])]);
        let threes = rel1(vec![GenTuple::unconstrained(vec![lrp(1, 3)], vec![])]);
        let d = z
            .difference_in(&evens, &ExecContext::serial())
            .unwrap()
            .difference_in(&threes, &ExecContext::serial())
            .unwrap();
        for x in -20i64..20 {
            let expect = x % 2 != 0 && (x - 1).rem_euclid(3) != 0;
            assert_eq!(d.contains(&[x], &[]), expect, "x = {x}");
        }
    }

    #[test]
    fn emptiness_thm_3_5() {
        assert!(GenRelation::empty(Schema::new(1, 0))
            .denotes_empty()
            .unwrap());
        let nonempty = rel1(vec![GenTuple::unconstrained(vec![lrp(0, 2)], vec![])]);
        assert!(!nonempty.denotes_empty().unwrap());
        // A relation whose only tuple is grid-empty.
        let ghost = GenRelation::new(
            Schema::new(2, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 2), lrp(0, 2)])
                .atoms([Atom::diff_eq(0, 1, 1)])
                .build()
                .unwrap()],
        )
        .unwrap();
        assert!(ghost.denotes_empty().unwrap());
    }

    #[test]
    fn select_temporal_prunes_contradictions() {
        let r = rel1(vec![
            GenTuple::builder()
                .lrps(vec![lrp(0, 2)])
                .atoms([Atom::ge(0, 10)])
                .build()
                .unwrap(),
            GenTuple::builder()
                .lrps(vec![lrp(1, 2)])
                .atoms([Atom::le(0, 5)])
                .build()
                .unwrap(),
        ]);
        let s = r
            .select_temporal_in(Atom::ge(0, 8), &ExecContext::serial())
            .unwrap();
        assert_eq!(s.tuple_count(), 1);
        assert!(s.contains(&[10], &[]));
        assert!(!s.contains(&[3], &[]));
    }

    #[test]
    fn select_data_filters() {
        let r = GenRelation::new(
            Schema::new(1, 1),
            vec![
                GenTuple::unconstrained(vec![lrp(0, 2)], vec![Value::str("a")]),
                GenTuple::unconstrained(vec![lrp(1, 2)], vec![Value::str("b")]),
            ],
        )
        .unwrap();
        let s = r.select_data_in(|d| d[0] == Value::str("a"), &ExecContext::serial());
        assert_eq!(s.tuple_count(), 1);
        assert!(s.contains(&[0], &[Value::str("a")]));
    }

    #[test]
    fn complement_requires_temporal_only() {
        let r = GenRelation::new(
            Schema::new(1, 1),
            vec![GenTuple::unconstrained(
                vec![lrp(0, 2)],
                vec![Value::Int(1)],
            )],
        )
        .unwrap();
        assert!(matches!(
            r.complement_temporal_in(&ExecContext::serial()),
            Err(CoreError::ComplementHasData)
        ));
    }

    #[test]
    fn shift_temporal_translates() {
        let r = GenRelation::new(
            Schema::new(2, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 3), lrp(1, 3)])
                .atoms([Atom::diff_le(0, 1, 0), Atom::ge(0, 0)])
                .build()
                .unwrap()],
        )
        .unwrap();
        let ctx = ExecContext::serial();
        let s = r.shift_temporal_in(0, 5, &ctx).unwrap();
        for x in -10i64..20 {
            for y in -10i64..20 {
                assert_eq!(
                    s.contains(&[x, y], &[]),
                    r.contains(&[x - 5, y], &[]),
                    "({x},{y})"
                );
            }
        }
        assert!(r.shift_temporal_in(2, 1, &ctx).is_err());
    }

    #[test]
    fn full_temporal_covers_everything() {
        let full = GenRelation::full_temporal(Schema::new(2, 0)).unwrap();
        assert!(full.contains(&[123, -456], &[]));
        assert!(GenRelation::full_temporal(Schema::new(1, 1)).is_err());
    }

    #[test]
    fn extrema_and_next_occurrence() {
        // Column: {3 + 12n | n ≥ 0} ∪ {5} → min 3 (select gives 3, 15, …).
        let r = GenRelation::new(
            Schema::new(1, 0),
            vec![
                GenTuple::builder()
                    .lrps(vec![lrp(3, 12)])
                    .atoms([Atom::ge(0, 0)])
                    .build()
                    .unwrap(),
                GenTuple::unconstrained(vec![Lrp::point(5)], vec![]),
            ],
        )
        .unwrap();
        assert_eq!(r.min_temporal(0).unwrap(), Some(3));
        assert_eq!(r.max_temporal(0).unwrap(), None); // unbounded above
        assert_eq!(r.next_occurrence(0, 4).unwrap(), Some(5));
        assert_eq!(r.next_occurrence(0, 6).unwrap(), Some(15));
        assert_eq!(r.next_occurrence(0, 15).unwrap(), Some(15));
        assert_eq!(r.next_occurrence(0, 16).unwrap(), Some(27));
        // Empty relation: no occurrence.
        let empty = GenRelation::empty(Schema::new(1, 0));
        assert_eq!(empty.min_temporal(0).unwrap(), None);
        assert_eq!(empty.next_occurrence(0, 0).unwrap(), None);
        // Bounded above.
        let r = GenRelation::new(
            Schema::new(1, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(1, 4)])
                .atoms([Atom::le(0, 20), Atom::ge(0, -7)])
                .build()
                .unwrap()],
        )
        .unwrap();
        assert_eq!(r.min_temporal(0).unwrap(), Some(-7));
        assert_eq!(r.max_temporal(0).unwrap(), Some(17)); // 17 ≡ 1 (mod 4), ≤ 20
                                                          // Out of range.
        assert!(r.min_temporal(1).is_err());
        // 4n with 21 ≤ X ≤ 25 raises the maximum to its one grid point,
        // 24; 4n with −11 ≤ X ≤ −9 has no grid point, so its bounds do
        // not lower the minimum.
        let mut r = r;
        r.push(
            GenTuple::builder()
                .lrps(vec![lrp(0, 4)])
                .atoms([Atom::le(0, 25), Atom::ge(0, 21)])
                .build()
                .unwrap(),
        )
        .unwrap();
        r.push(
            GenTuple::builder()
                .lrps(vec![lrp(0, 4)])
                .atoms([Atom::le(0, -9), Atom::ge(0, -11)])
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(r.min_temporal(0).unwrap(), Some(-7));
        assert_eq!(r.max_temporal(0).unwrap(), Some(24));
    }

    #[test]
    fn extrema_respect_cross_column_constraints() {
        // X0 ∈ 2n, X1 ∈ 2n, X0 = X1 − 4, X1 ≥ 10 ⟹ min X0 = 6.
        let r = GenRelation::new(
            Schema::new(2, 0),
            vec![GenTuple::builder()
                .lrps(vec![lrp(0, 2), lrp(0, 2)])
                .atoms([Atom::diff_eq(0, 1, -4), Atom::ge(1, 10)])
                .build()
                .unwrap()],
        )
        .unwrap();
        assert_eq!(r.min_temporal(0).unwrap(), Some(6));
        assert_eq!(r.min_temporal(1).unwrap(), Some(10));
    }

    #[test]
    fn display_lists_tuples() {
        let r = rel1(vec![GenTuple::unconstrained(vec![lrp(0, 2)], vec![])]);
        let text = r.to_string();
        assert!(text.contains("1 tuple"), "{text}");
        assert!(text.contains("2n"), "{text}");
    }
}
