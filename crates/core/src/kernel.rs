//! Columnar batch kernels: the one production path of the pairwise
//! algebra (intersection §3.2, difference §3.3, join §3.7).
//!
//! Intersection and join are one candidate loop (`pairwise`), told
//! apart only by their column pairing (the identity pairing for
//! intersection) and their outcome-cache key, which also fixes the
//! output's data. All three kernels draw their candidates from one helper
//! (`candidates`), filter them on the store's flat key columns, and
//! borrow the stored rows of the pairs that survive:
//!
//! 1. **Probe** candidates through the persistent residue index, feeding
//!    it the probe row's `(offset, period)` pairs and interned
//!    [`ValueId`]s, or take every right row when the index is not
//!    consulted.
//! 2. **Batch pre-filter** every candidate pair over the contiguous
//!    `t_offsets`/`t_periods` arrays and `ValueId` columns: a pair dies
//!    when some relevant data column's ids differ (ids are canonical, so
//!    this is exact data inequality) or some relevant temporal column
//!    fails the gcd-congruence solvability test
//!    `o₁ ≡ o₂ (mod gcd(k₁, k₂))` (§3.2.1) — **exactly** the condition
//!    under which [`Lrp::intersect`](itd_lrp::Lrp::intersect) is empty,
//!    so a rejected pair is precisely a pair whose derivation would be
//!    empty. The rejection is pure integer arithmetic over slices: no
//!    locks, no allocation.
//! 3. **Derive survivors** through the process-wide pairwise outcome
//!    cache (`crate::store`): the two temporal parts are globally
//!    hash-consed, so `(part, part, op)` outcomes survive across
//!    operator calls *and* queries. Misses fall into the per-pair
//!    derivation (`crate::ops`).
//!
//! Both the residue index and the outcome cache engage only once
//! `|left| · |right|` reaches [`INDEX_MIN_PAIRS`].
//!
//! # Counter contract
//!
//! The counters are exact functions of the inputs, independent of the
//! outcome-cache state and of the thread count; the pre-filter and the
//! cache never show in them:
//!
//! - `tuples_in` is `|left| + |right|`.
//! - For intersect and join, `pairs` is `|left| · |right|`, and
//!   `tuples_out + empties_pruned == pairs`: every pair either yields a
//!   tuple or counts as pruned, whether it was skipped by the index,
//!   rejected by the pre-filter, or derived to nothing.
//! - For difference, `pairs` counts one per fold member per subtrahend
//!   step of §3.3's `(t1 − t21) − … − t2m`, and `empties_pruned` counts
//!   the grid-empty or duplicate members dropped after each step. With
//!   the index consulted, only the probed subtrahends are steps (the
//!   others are disjoint from `t1`), and a grid-empty `t1` counts as one
//!   pruned member before any step.
//! - When the index is consulted, `index_probes + index_pruned` is
//!   `|right|` per outer row; both stay 0 otherwise.
//!
//! Chunked execution over row indices ([`run_chunked_range`](crate::exec))
//! splits exactly like chunking the row slice, so results and counters
//! are identical at any thread count.
//!
//! For the difference fold, a batch-rejected subtrahend `t2` is
//! columnwise disjoint from `t1` (or differs in data); every fold member
//! is a columnwise subset of `t1` carrying `t1`'s data, so the entire
//! step is a no-op: it would add `acc.len()` pairs, pass every member
//! through unchanged, and prune nothing. The kernel adds the same
//! `acc.len()` pairs and skips the derivation. The fold-initial member
//! `t1` itself is the one member that might be grid-empty (a no-op step
//! still prunes it): with the index consulted it is pruned upfront,
//! without it the first step runs literally (see `difference`).

use std::sync::Arc;

use itd_numth::gcd;

use crate::exec::{self, ExecContext, OpTimer};
use crate::index::{RelationIndex, INDEX_MIN_PAIRS};
use crate::ops;
use crate::store::{
    outcome_cache_empty, outcome_cache_pair, outcome_cached_empty, outcome_cached_pair, PairOpKey,
    RelStore, TemporalPartId, ValueId,
};
use crate::tuple::GenTuple;
use crate::Result;

/// Is the columnwise meet of `c1 + k1·Z` and `c2 + k2·Z` empty?
///
/// Exact (§3.2.1 solvability): for `g = gcd(k1, k2) > 0` the meet is
/// nonempty iff `c1 ≡ c2 (mod g)`; `gcd(0, k) = k` makes a point's
/// offset binding, and two points meet iff equal (`g = 0`). The offset
/// difference is widened to `i128` so extreme offsets cannot overflow.
#[inline]
fn lrp_disjoint(o1: i64, k1: i64, o2: i64, k2: i64) -> bool {
    let g = gcd(k1, k2);
    if g == 0 {
        return o1 != o2;
    }
    (o1 as i128 - o2 as i128).rem_euclid(g as i128) != 0
}

/// The batched residue pre-filter over one candidate pair `(i, j)`:
/// `true` when the pair is provably dead — some paired data column's ids
/// differ, or some paired temporal column is congruence-disjoint.
///
/// `tpairs`/`dpairs` name (left column, right column) pairs; intersect
/// and difference pass the identity pairing over all columns.
#[inline]
fn pair_rejected(
    left: &RelStore,
    right: &RelStore,
    i: usize,
    j: usize,
    tpairs: &[(usize, usize)],
    dpairs: &[(usize, usize)],
) -> bool {
    for &(dc1, dc2) in dpairs {
        if left.data_columns()[dc1][i] != right.data_columns()[dc2][j] {
            return true;
        }
    }
    for &(tc1, tc2) in tpairs {
        if lrp_disjoint(
            left.t_offsets(tc1)[i],
            left.t_periods(tc1)[i],
            right.t_offsets(tc2)[j],
            right.t_periods(tc2)[j],
        ) {
            return true;
        }
    }
    false
}

/// Grid-emptiness of an interned part through the global verdict cache.
fn part_is_empty(id: TemporalPartId, t: &GenTuple) -> Result<bool> {
    if let Some(empty) = outcome_cached_empty(id) {
        return Ok(empty);
    }
    let empty = t.is_empty()?;
    outcome_cache_empty(id, empty);
    Ok(empty)
}

/// The persistent index over `right`, gated on the pair count reaching
/// [`INDEX_MIN_PAIRS`] and on a discriminating key.
fn gated_index(
    right: &RelStore,
    pairs: usize,
    tcols: &[usize],
    dcols: &[usize],
) -> Option<Arc<RelationIndex>> {
    (pairs >= INDEX_MIN_PAIRS)
        .then(|| right.index_for(tcols, dcols))
        .filter(|idx| idx.is_discriminating())
}

/// The candidate right rows of left row `i`, ascending, and how many of
/// the `m` right rows the index skipped. With an index, the probe on the
/// left row's columns `tcols`/`dcols` (counting its probes and skips);
/// without one, every right row.
fn candidates(
    left: &RelStore,
    i: usize,
    index: Option<&RelationIndex>,
    m: usize,
    tcols: &[usize],
    dcols: &[usize],
    timer: &OpTimer<'_>,
) -> (u64, impl Iterator<Item = usize>) {
    let probed = index.map(|idx| {
        let lrps: Vec<(i64, i64)> = tcols
            .iter()
            .map(|&c| (left.t_offsets(c)[i], left.t_periods(c)[i]))
            .collect();
        let ids: Vec<ValueId> = dcols.iter().map(|&c| left.data_columns()[c][i]).collect();
        let cands = idx.probe_cols(&ids, &lrps);
        timer.add_probes(cands.len() as u64);
        timer.add_index_pruned((m - cands.len()) as u64);
        cands
    });
    let skipped = probed.as_ref().map_or(0, |c| (m - c.len()) as u64);
    let all = if probed.is_some() { 0..0 } else { 0..m };
    (skipped, probed.into_iter().flatten().chain(all))
}

/// What tells intersection and join apart in [`pairwise`].
struct PairOp<'a> {
    /// `(left column, right column)` temporal pairs.
    tpairs: &'a [(usize, usize)],
    /// `(left column, right column)` data pairs.
    dpairs: &'a [(usize, usize)],
    /// The outcome-cache key; it also picks the per-pair derivation and
    /// the data of an output rebuilt from a cached part.
    key: PairOpKey,
}

/// The candidate loop of intersection and join: every left row probes
/// (or scans) the right rows, the batch pre-filter rejects dead pairs,
/// and survivors derive through the outcome cache. Counts under the
/// contract of the module docs.
fn pairwise(
    left: &RelStore,
    right: &RelStore,
    op: PairOp<'_>,
    ctx: &ExecContext,
    timer: &OpTimer<'_>,
) -> Result<Vec<GenTuple>> {
    let (n, m) = (left.len(), right.len());
    timer.add_in(n + m);
    timer.add_pairs(n as u64 * m as u64);
    let (left_t, right_t): (Vec<usize>, Vec<usize>) = op.tpairs.iter().copied().unzip();
    let (left_d, right_d): (Vec<usize>, Vec<usize>) = op.dpairs.iter().copied().unzip();
    let index = gated_index(right, n * m, &right_t, &right_d);
    let use_cache = n * m >= INDEX_MIN_PAIRS;
    exec::run_chunked_range(ctx, n, |i| {
        let mut out = Vec::new();
        let t1 = &left.rows()[i];
        let (skipped, cands) = candidates(left, i, index.as_deref(), m, &left_t, &left_d, timer);
        timer.add_pruned(skipped);
        for j in cands {
            if pair_rejected(left, right, i, j, op.tpairs, op.dpairs) {
                // Exactly the pairs whose derivation would be `None`.
                timer.add_pruned(1);
                continue;
            }
            let t2 = &right.rows()[j];
            let (p1, p2) = (left.part_ids()[i], right.part_ids()[j]);
            let cached = if use_cache {
                outcome_cached_pair(p1, p2, &op.key)
            } else {
                None
            };
            let res = match cached {
                Some(outcome) => outcome.map(|part| {
                    // Intersection matched every data id, so the left
                    // row's data is the output's; a join concatenates.
                    let data = match &op.key {
                        PairOpKey::Intersect => t1.data().to_vec(),
                        PairOpKey::Join(_) => [t1.data(), t2.data()].concat(),
                    };
                    GenTuple::from_part(part, data)
                }),
                None => {
                    let res = match &op.key {
                        PairOpKey::Intersect => ops::intersect_tuples(t1, t2)?,
                        PairOpKey::Join(_) => ops::join_tuples(t1, t2, op.tpairs, op.dpairs)?,
                    };
                    if use_cache {
                        let part = res.as_ref().map(|t| Arc::clone(t.part_arc()));
                        outcome_cache_pair(p1, p2, op.key.clone(), part);
                    }
                    res
                }
            };
            match res {
                Some(t) => out.push(t),
                None => timer.add_pruned(1),
            }
        }
        Ok(out)
    })
}

/// Batched intersection: returns the output tuples of `left ∩ right`
/// under the counter contract of the module docs.
pub(crate) fn intersect(
    left: &RelStore,
    right: &RelStore,
    ctx: &ExecContext,
    timer: &OpTimer<'_>,
) -> Result<Vec<GenTuple>> {
    let schema = left.schema();
    let tpairs: Vec<(usize, usize)> = (0..schema.temporal()).map(|c| (c, c)).collect();
    let dpairs: Vec<(usize, usize)> = (0..schema.data()).map(|c| (c, c)).collect();
    let op = PairOp {
        tpairs: &tpairs,
        dpairs: &dpairs,
        key: PairOpKey::Intersect,
    };
    pairwise(left, right, op, ctx, timer)
}

/// Batched equi-join on the given column pairs: returns the output
/// tuples under the counter contract of the module docs. Pair validation
/// is the caller's job (`relation.rs` checks before dispatching).
pub(crate) fn join_on(
    left: &RelStore,
    right: &RelStore,
    temporal_pairs: &[(usize, usize)],
    data_pairs: &[(usize, usize)],
    ctx: &ExecContext,
    timer: &OpTimer<'_>,
) -> Result<Vec<GenTuple>> {
    let op = PairOp {
        tpairs: temporal_pairs,
        dpairs: data_pairs,
        // With the join columns fixed for the whole invocation, the
        // temporal outcome of a pair depends only on the two parts and
        // the temporal pairing.
        key: PairOpKey::Join(temporal_pairs.into()),
    };
    pairwise(left, right, op, ctx, timer)
}

/// Batched difference fold: returns the output tuples under the counter
/// contract of the module docs (which also explains why skipping a
/// batch-rejected subtrahend is counter-neutral).
pub(crate) fn difference(
    left: &RelStore,
    right: &RelStore,
    ctx: &ExecContext,
    timer: &OpTimer<'_>,
) -> Result<Vec<GenTuple>> {
    let (n, m) = (left.len(), right.len());
    timer.add_in(n + m);
    let schema = left.schema();
    let tcols: Vec<usize> = (0..schema.temporal()).collect();
    let dcols: Vec<usize> = (0..schema.data()).collect();
    let tpairs: Vec<(usize, usize)> = tcols.iter().map(|&c| (c, c)).collect();
    let dpairs: Vec<(usize, usize)> = dcols.iter().map(|&c| (c, c)).collect();
    let index = gated_index(right, n * m, &tcols, &dcols);
    // Fold intermediates are ephemeral (never interned globally), so
    // their emptiness is decided directly; the fold-initial parts are
    // interned, so those verdicts use the global cache (`part_is_empty`).
    exec::run_chunked_range(ctx, n, |i| {
        let t1 = &left.rows()[i];
        // One fold step: subtract `t2` from every member, prune
        // grid-empty results, deduplicate. Both loops poll the cancel
        // token per member: a single row's fold can grow large.
        let step = |acc: Vec<GenTuple>, t2: &GenTuple| -> Result<Vec<GenTuple>> {
            let mut next = Vec::new();
            for t in &acc {
                ctx.check_cancelled()?;
                timer.add_pairs(1);
                next.extend(ops::difference_tuples(t, t2)?);
            }
            let candidates = next.len();
            let mut pruned: Vec<GenTuple> = Vec::with_capacity(next.len());
            for t in next {
                ctx.check_cancelled()?;
                if !t.is_empty()? && !pruned.contains(&t) {
                    pruned.push(t);
                }
            }
            timer.add_pruned((candidates - pruned.len()) as u64);
            Ok(pruned)
        };
        let (_, cands) = candidates(left, i, index.as_deref(), m, &tcols, &dcols, timer);
        // The batch filter may only skip steps whose members are known
        // non-grid-empty. That holds after any executed step (members
        // are prune-survivors) — and from the start iff `t1` itself is
        // non-empty. A grid-empty `t1` falls to the first all-pairs step
        // whatever `t2` is: with the index consulted it is dropped
        // upfront (`right` is nonempty whenever the index gate passed);
        // without it that first step runs literally, reproducing its
        // exact pair/prune counts.
        let mut literal_first = m > 0 && part_is_empty(left.part_ids()[i], t1)?;
        if literal_first && index.is_some() {
            timer.add_pruned(1);
            return Ok(vec![]);
        }
        let mut acc = vec![t1.clone()];
        for j in cands {
            if !literal_first && pair_rejected(left, right, i, j, &tpairs, &dpairs) {
                // No-op step: every member would pass through unchanged
                // and survive the prune (members are prune-survivors,
                // hence non-grid-empty).
                timer.add_pairs(acc.len() as u64);
                continue;
            }
            // A grid-empty initial member runs its first step verbatim;
            // that step prunes every member, so the loop ends there.
            literal_first = false;
            acc = step(acc, &right.rows()[j])?;
            if acc.is_empty() {
                break;
            }
        }
        Ok(acc)
    })
}
