//! Residue-class indexing for the binary algebra operators.
//!
//! # Why residues prune pairs
//!
//! Every binary operator of the algebra (§3.2–§3.5) examines `O(n·m)`
//! candidate tuple pairs, but most pairs are doomed before any arithmetic
//! runs:
//!
//! * two infinite lrps `c1 + k1·n` and `c2 + k2·n` intersect **only if**
//!   `c1 ≡ c2 (mod gcd(k1, k2))` (§3.2.1 — the solvability condition of
//!   the linear congruence). For any modulus `g` dividing both periods,
//!   `g | gcd(k1, k2)`, so *equal residues mod `g` are a necessary
//!   condition* for intersection. A point (`k = 0`) behaves as
//!   `gcd(0, k) = k`: its value's residue is binding mod anything;
//! * generalized tuples with unequal data columns never intersect, join,
//!   or interact under difference at all.
//!
//! A [`RelationIndex`] buckets the tuples of one operand by (a) the
//! interned [`ValueId`]s of the relevant data columns and (b) a
//! per-temporal-column residue signature `offset mod mᵢ`, where `mᵢ` is a
//! *small-prime-power smooth* divisor (capped at [`MAX_MODULUS`]) of the
//! gcd of the column's nonzero periods. Since `mᵢ` divides every indexed
//! period, every indexed tuple has a well-defined residue — there is no
//! wildcard bucket — and a probe tuple with period `k` is compatible
//! exactly with the residues congruent to its own modulo
//! `dᵢ = gcd(mᵢ, k)` (with `dᵢ = mᵢ` for probe points).
//!
//! Pruning on interned data ids is **exact**, not merely sound: two ids
//! are equal iff the values are (the arena hash-conses process-wide), so
//! a data mismatch prunes with no collision leak-through. A probe value
//! that was never interned anywhere cannot equal any stored value, so
//! the probe returns no candidates for it.
//!
//! # Determinism
//!
//! [`RelationIndex::probe`] returns candidate positions **sorted
//! ascending**, so an outer loop that replaces "all inner tuples" with
//! "probed inner tuples" visits survivors in exactly the naive inner-loop
//! order; combined with the chunk-order concatenation of
//! [`run_chunked`](crate::exec), indexed results are bit-identical to the
//! naive pairwise path at any thread count.

use std::collections::HashMap;

use itd_numth::gcd;

use crate::store::{intern_value_global, lookup_value, RelStore, ValueId};
use crate::tuple::GenTuple;

/// Cap on a column's index modulus (and thus on the residue fan-out of a
/// single column).
pub const MAX_MODULUS: i64 = 64;

/// Binary operators consult the index — and the pairwise-outcome cache —
/// only when the pair count `|left| · |right|` reaches this threshold;
/// below it the build and bookkeeping cost outweighs the pruning.
pub const INDEX_MIN_PAIRS: usize = 32;

/// The largest divisor of `g` of the form `2^a·3^b·5^c·7^d·11^e·13^f` that
/// fits under [`MAX_MODULUS`], chosen greedily smallest-prime-first (`1`
/// when `g` has no small prime factors). Shared with the compaction
/// pass's residue pre-filter ([`crate::compact`]).
pub(crate) fn smooth_cap(g: i64) -> i64 {
    debug_assert!(g > 0);
    let mut m = 1i64;
    let mut rest = g;
    for p in [2i64, 3, 5, 7, 11, 13] {
        while rest % p == 0 && m * p <= MAX_MODULUS {
            m *= p;
            rest /= p;
        }
    }
    m
}

/// Interned ids of the build-side data key (inserting: stored values
/// become part of the arena, which store-backed rows already are).
fn intern_data_key<'a>(values: impl Iterator<Item = &'a crate::Value>) -> Vec<ValueId> {
    values.map(intern_value_global).collect()
}

/// Interned ids of a probe-side data key; `None` as soon as one value
/// was never interned (it then cannot equal any stored value).
fn lookup_data_key<'a>(values: impl Iterator<Item = &'a crate::Value>) -> Option<Vec<ValueId>> {
    values.map(lookup_value).collect()
}

/// A residue-signature + data-hash bucket index over one relation operand.
///
/// Since the columnar storage refactor, relation stores keep these
/// indexes **persistently** (one per column set, see `crate::store`):
/// built at most once, reused by every operator call over the same
/// operand, and maintained incrementally on append via
/// `RelationIndex::try_insert`. [`INDEX_MIN_PAIRS`] still gates *use*,
/// so small inputs skip the index and the counters stay identical to the
/// per-call-build era.
#[derive(Debug, Clone)]
pub struct RelationIndex {
    /// Temporal columns of the indexed side participating in the key.
    temporal_cols: Vec<usize>,
    /// Data columns of the indexed side participating in the key.
    data_cols: Vec<usize>,
    /// Per-`temporal_cols` modulus `mᵢ ≥ 1`; divides every nonzero period
    /// occurring in that column.
    moduli: Vec<i64>,
    /// Per-`temporal_cols` exact gcd of the nonzero periods seen so far
    /// (`0` while the column has held only points / no tuples). Tracked so
    /// appends can prove the modulus unchanged — `moduli` alone is lossy.
    gcds: Vec<i64>,
    /// `(data value ids, per-column residues) → ascending tuple positions`.
    buckets: HashMap<(Vec<ValueId>, Vec<i64>), Vec<usize>>,
    /// Number of indexed tuples.
    len: usize,
}

impl RelationIndex {
    /// Indexes `tuples` on the given temporal and data columns.
    ///
    /// The column modulus is the gcd of the column's nonzero periods,
    /// reduced to its capped smooth part; a column holding only points
    /// keys directly on `offset mod MAX_MODULUS` (a point's residue is
    /// binding modulo anything).
    pub fn build(tuples: &[GenTuple], temporal_cols: &[usize], data_cols: &[usize]) -> Self {
        let gcds: Vec<i64> = temporal_cols
            .iter()
            .map(|&c| {
                tuples
                    .iter()
                    .fold(0i64, |acc, t| gcd(acc, t.lrps()[c].period()))
            })
            .collect();
        let moduli: Vec<i64> = gcds
            .iter()
            .map(|&g| if g == 0 { MAX_MODULUS } else { smooth_cap(g) })
            .collect();
        let mut buckets: HashMap<(Vec<ValueId>, Vec<i64>), Vec<usize>> = HashMap::new();
        for (pos, t) in tuples.iter().enumerate() {
            let residues: Vec<i64> = temporal_cols
                .iter()
                .zip(&moduli)
                .map(|(&c, &m)| t.lrps()[c].offset().rem_euclid(m))
                .collect();
            let key = intern_data_key(data_cols.iter().map(|&c| &t.data()[c]));
            buckets.entry((key, residues)).or_default().push(pos);
        }
        RelationIndex {
            temporal_cols: temporal_cols.to_vec(),
            data_cols: data_cols.to_vec(),
            moduli,
            gcds,
            buckets,
            len: tuples.len(),
        }
    }

    /// Columnar twin of [`RelationIndex::build`]: indexes a store
    /// straight from its flat `(offset, period)` and [`ValueId`] columns,
    /// without materializing (or force-populating) the row cache. The
    /// result is field-for-field identical to `build` over the store's
    /// rows — offsets, periods and data ids are the same numbers either
    /// way.
    pub(crate) fn build_from_store(
        store: &RelStore,
        temporal_cols: &[usize],
        data_cols: &[usize],
    ) -> Self {
        let n = store.len();
        let gcds: Vec<i64> = temporal_cols
            .iter()
            .map(|&c| store.t_periods(c).iter().fold(0i64, |acc, &k| gcd(acc, k)))
            .collect();
        let moduli: Vec<i64> = gcds
            .iter()
            .map(|&g| if g == 0 { MAX_MODULUS } else { smooth_cap(g) })
            .collect();
        let mut buckets: HashMap<(Vec<ValueId>, Vec<i64>), Vec<usize>> = HashMap::new();
        let data = store.data_columns();
        // `pos` strides several parallel column arrays at once; an
        // iterator over any single one of them would not be clearer.
        #[allow(clippy::needless_range_loop)]
        for pos in 0..n {
            let residues: Vec<i64> = temporal_cols
                .iter()
                .zip(&moduli)
                .map(|(&c, &m)| store.t_offsets(c)[pos].rem_euclid(m))
                .collect();
            let key: Vec<ValueId> = data_cols.iter().map(|&c| data[c][pos]).collect();
            buckets.entry((key, residues)).or_default().push(pos);
        }
        RelationIndex {
            temporal_cols: temporal_cols.to_vec(),
            data_cols: data_cols.to_vec(),
            moduli,
            gcds,
            buckets,
            len: n,
        }
    }

    /// Incrementally indexes one appended tuple at position `pos`
    /// (`pos == len`). Returns `false` — leaving the index unusable, the
    /// caller must drop it — when the new tuple's periods change some
    /// column's modulus; in that case only a rebuild can produce an index
    /// equivalent to a fresh [`RelationIndex::build`] over the extended
    /// relation.
    ///
    /// When it returns `true`, the index is **exactly** the one `build`
    /// would produce over the extended tuple slice: the moduli are
    /// unchanged (so every existing residue is still correct), the new
    /// position lands at the tail of its bucket (positions are appended in
    /// ascending order), and the per-column gcd is refolded.
    pub(crate) fn try_insert(&mut self, t: &GenTuple, pos: usize) -> bool {
        debug_assert_eq!(pos, self.len);
        let mut new_gcds = Vec::with_capacity(self.gcds.len());
        for (i, &c) in self.temporal_cols.iter().enumerate() {
            let g = gcd(self.gcds[i], t.lrps()[c].period());
            let m = if g == 0 { MAX_MODULUS } else { smooth_cap(g) };
            if m != self.moduli[i] {
                return false;
            }
            new_gcds.push(g);
        }
        self.gcds = new_gcds;
        let residues: Vec<i64> = self
            .temporal_cols
            .iter()
            .zip(&self.moduli)
            .map(|(&c, &m)| t.lrps()[c].offset().rem_euclid(m))
            .collect();
        let key = intern_data_key(self.data_cols.iter().map(|&c| &t.data()[c]));
        self.buckets.entry((key, residues)).or_default().push(pos);
        self.len += 1;
        true
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the index can prune anything at all (some data column keyed
    /// or some modulus above 1). A non-discriminating index would probe
    /// every tuple; callers fall back to the naive loop instead.
    pub fn is_discriminating(&self) -> bool {
        !self.data_cols.is_empty() || self.moduli.iter().any(|&m| m > 1)
    }

    /// The residue moduli, parallel to the temporal columns the index was
    /// built on. A modulus of 1 means the column cannot discriminate; the
    /// query planner reads these to estimate join selectivity.
    pub fn moduli(&self) -> &[i64] {
        &self.moduli
    }

    /// Positions (ascending) of the indexed tuples not provably disjoint
    /// from `probe`. `probe_temporal` / `probe_data` name the probe-side
    /// columns parallel to the build-side columns (identical for
    /// intersection and difference; the left sides of the join's column
    /// pairs for join).
    ///
    /// Soundness: a position is omitted only if some data id differs
    /// (data unequal — ids are exact) or some column residue violates the
    /// necessary congruence `r1 ≡ r2 (mod gcd(mᵢ, k_probe))`.
    pub fn probe(
        &self,
        probe: &GenTuple,
        probe_temporal: &[usize],
        probe_data: &[usize],
    ) -> Vec<usize> {
        debug_assert_eq!(probe_temporal.len(), self.temporal_cols.len());
        debug_assert_eq!(probe_data.len(), self.data_cols.len());
        let Some(key) = lookup_data_key(probe_data.iter().map(|&c| &probe.data()[c])) else {
            // Some probe value was never interned: it differs from every
            // stored value, so no candidate can survive.
            return Vec::new();
        };
        let lrps: Vec<(i64, i64)> = probe_temporal
            .iter()
            .map(|&c| {
                let l = &probe.lrps()[c];
                (l.offset(), l.period())
            })
            .collect();
        self.probe_cols(&key, &lrps)
    }

    /// Columnar twin of [`RelationIndex::probe`]: the probe row is given
    /// as per-column `(offset, period)` pairs (period `0` = point,
    /// parallel to the build-side temporal columns) and already-interned
    /// data ids (parallel to the build-side data columns).
    pub(crate) fn probe_cols(&self, data_key: &[ValueId], lrps: &[(i64, i64)]) -> Vec<usize> {
        debug_assert_eq!(lrps.len(), self.temporal_cols.len());
        debug_assert_eq!(data_key.len(), self.data_cols.len());
        // Per column: the probe's binding modulus dᵢ and residue class.
        let mut d = Vec::with_capacity(self.moduli.len());
        let mut r = Vec::with_capacity(self.moduli.len());
        let mut combinations: u128 = 1;
        for (&(offset, period), &m) in lrps.iter().zip(&self.moduli) {
            let di = if period == 0 { m } else { gcd(m, period) };
            d.push(di);
            r.push(offset.rem_euclid(di));
            combinations *= (m / di) as u128;
        }
        let mut out = if combinations <= self.buckets.len() as u128 {
            self.probe_enumerate(data_key, &r, &d)
        } else {
            self.probe_scan(data_key, &r, &d)
        };
        out.sort_unstable();
        out
    }

    /// Few compatible keys: enumerate them (mixed-radix counter over the
    /// per-column residue choices `rᵢ + t·dᵢ`, `t < mᵢ/dᵢ`) and look each
    /// one up.
    fn probe_enumerate(&self, data_key: &[ValueId], r: &[i64], d: &[i64]) -> Vec<usize> {
        let cols = self.moduli.len();
        let mut out = Vec::new();
        let mut choice = vec![0i64; cols];
        let mut key_res = vec![0i64; cols];
        loop {
            for i in 0..cols {
                key_res[i] = r[i] + choice[i] * d[i];
            }
            if let Some(positions) = self.buckets.get(&(data_key.to_vec(), key_res.clone())) {
                out.extend_from_slice(positions);
            }
            let mut i = cols;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                choice[i] += 1;
                if choice[i] < self.moduli[i] / d[i] {
                    break;
                }
                choice[i] = 0;
            }
        }
    }

    /// More compatible keys than buckets: scan every bucket with a
    /// per-bucket compatibility check instead.
    fn probe_scan(&self, data_key: &[ValueId], r: &[i64], d: &[i64]) -> Vec<usize> {
        let mut out = Vec::new();
        for ((bkey, res), positions) in &self.buckets {
            if bkey == data_key
                && res
                    .iter()
                    .zip(d)
                    .zip(r)
                    .all(|((&br, &di), &ri)| br % di == ri)
            {
                out.extend_from_slice(positions);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::intersect_tuples;
    use crate::Value;
    use itd_constraint::Atom;
    use itd_lrp::Lrp;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    fn tup(lrps: Vec<Lrp>) -> GenTuple {
        GenTuple::unconstrained(lrps, vec![])
    }

    #[test]
    fn smooth_cap_divides_and_respects_cap() {
        assert_eq!(smooth_cap(6), 6);
        assert_eq!(smooth_cap(64), 64);
        assert_eq!(smooth_cap(128), 64);
        assert_eq!(smooth_cap(97), 1); // prime above every small factor
        assert_eq!(smooth_cap(60), 60);
        assert_eq!(smooth_cap(1), 1);
        for g in 1..500 {
            let m = smooth_cap(g);
            assert!((1..=MAX_MODULUS).contains(&m) && g % m == 0, "g={g} m={m}");
        }
    }

    #[test]
    fn probe_never_misses_an_intersecting_pair() {
        // Exhaustive over small residue grids: every pair the naive loop
        // would keep must appear among the probed candidates.
        let mut inner = Vec::new();
        for c in 0..6 {
            inner.push(tup(vec![lrp(c, 6)]));
        }
        inner.push(tup(vec![Lrp::point(3)]));
        inner.push(tup(vec![lrp(5, 12)]));
        let idx = RelationIndex::build(&inner, &[0], &[]);
        assert!(idx.is_discriminating());
        let mut probes = Vec::new();
        for k in [0i64, 1, 2, 3, 4, 6, 9, 10] {
            let span = if k == 0 { 7 } else { k };
            for c in 0..span {
                probes.push(tup(vec![if k == 0 { Lrp::point(c) } else { lrp(c, k) }]));
            }
        }
        for p in &probes {
            let cands = idx.probe(p, &[0], &[]);
            assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            for (pos, t) in inner.iter().enumerate() {
                let meets = intersect_tuples(p, t).unwrap().is_some();
                if meets {
                    assert!(
                        cands.contains(&pos),
                        "index dropped a live pair: probe {p} vs {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn data_ids_separate_buckets() {
        let mk = |v: i64| {
            GenTuple::builder()
                .lrps(vec![Lrp::all()])
                .data(vec![Value::Int(v)])
                .build()
                .unwrap()
        };
        let tuples: Vec<GenTuple> = (0..8).map(mk).collect();
        let idx = RelationIndex::build(&tuples, &[0], &[0]);
        assert!(idx.is_discriminating());
        for v in 0..8 {
            let cands = idx.probe(&mk(v), &[0], &[0]);
            assert_eq!(cands, vec![v as usize], "equal data must survive");
        }
    }

    #[test]
    fn all_point_column_keys_on_value() {
        let tuples: Vec<GenTuple> = (0..10).map(|v| tup(vec![Lrp::point(v)])).collect();
        let idx = RelationIndex::build(&tuples, &[0], &[]);
        assert!(idx.is_discriminating());
        // A point probe is compatible only with points sharing its residue
        // mod MAX_MODULUS — here, just itself.
        let cands = idx.probe(&tup(vec![Lrp::point(4)]), &[0], &[]);
        assert_eq!(cands, vec![4]);
        // An infinite probe keeps exactly the residue-compatible points.
        let cands = idx.probe(&tup(vec![lrp(1, 4)]), &[0], &[]);
        assert_eq!(cands, vec![1, 5, 9]);
    }

    #[test]
    fn mixed_period_column_falls_back_to_gcd() {
        // Periods 6 and 9 → gcd 3: classes mod 3 discriminate.
        let tuples = vec![
            tup(vec![lrp(0, 6)]),
            tup(vec![lrp(1, 6)]),
            tup(vec![lrp(2, 9)]),
            tup(vec![lrp(5, 9)]),
        ];
        let idx = RelationIndex::build(&tuples, &[0], &[]);
        let cands = idx.probe(&tup(vec![lrp(2, 3)]), &[0], &[]);
        // Residue 2 mod 3: 2+9n and 5+9n qualify; 0+6n and 1+6n cannot.
        assert_eq!(cands, vec![2, 3]);
    }

    #[test]
    fn non_discriminating_when_gcd_is_one() {
        let tuples = vec![tup(vec![lrp(0, 2)]), tup(vec![lrp(0, 3)])];
        let idx = RelationIndex::build(&tuples, &[0], &[]);
        // gcd(2, 3) = 1 and no data columns: nothing to prune on.
        assert!(!idx.is_discriminating());
        let cands = idx.probe(&tup(vec![lrp(0, 5)]), &[0], &[]);
        assert_eq!(cands, vec![0, 1]);
    }

    #[test]
    fn try_insert_matches_fresh_build() {
        let mut tuples: Vec<GenTuple> = (0..6).map(|i| tup(vec![lrp(i, 12)])).collect();
        let mut idx = RelationIndex::build(&tuples, &[0], &[]);
        // Period 24 keeps gcd 12 → the modulus survives, and the extended
        // index must equal a fresh build field for field.
        for i in 6..10 {
            let t = tup(vec![lrp(i, 24)]);
            assert!(idx.try_insert(&t, tuples.len()));
            tuples.push(t);
            let fresh = RelationIndex::build(&tuples, &[0], &[]);
            assert_eq!(idx.moduli, fresh.moduli);
            assert_eq!(idx.gcds, fresh.gcds);
            assert_eq!(idx.len, fresh.len);
            assert_eq!(idx.buckets, fresh.buckets);
        }
        // Period 5 drops the gcd to 1 → modulus change → rejected.
        assert!(!idx.try_insert(&tup(vec![lrp(0, 5)]), tuples.len()));
    }

    #[test]
    fn columnar_build_matches_row_build() {
        let tuples: Vec<GenTuple> = (0..12)
            .map(|i| {
                GenTuple::builder()
                    .lrps(vec![lrp(i % 6, 6), Lrp::point(i)])
                    .data(vec![Value::Int(i % 3)])
                    .build()
                    .unwrap()
            })
            .collect();
        let store = RelStore::from_tuples(crate::Schema::new(2, 1), tuples.clone());
        let from_rows = RelationIndex::build(&tuples, &[0, 1], &[0]);
        let from_cols = RelationIndex::build_from_store(&store, &[0, 1], &[0]);
        assert_eq!(from_rows.moduli, from_cols.moduli);
        assert_eq!(from_rows.gcds, from_cols.gcds);
        assert_eq!(from_rows.len, from_cols.len);
        assert_eq!(from_rows.buckets, from_cols.buckets);
        // probe_cols with the store's own ids matches row-level probe.
        for (pos, t) in tuples.iter().enumerate() {
            let ids: Vec<ValueId> = vec![store.data_columns()[0][pos]];
            let lrps: Vec<(i64, i64)> = t.lrps().iter().map(|l| (l.offset(), l.period())).collect();
            assert_eq!(
                from_cols.probe_cols(&ids, &lrps),
                from_rows.probe(t, &[0, 1], &[0])
            );
        }
    }

    #[test]
    fn constraints_do_not_affect_bucketing() {
        // The index keys on lrps and data only; constraints are checked by
        // the full operator on the surviving pairs.
        let a = GenTuple::builder()
            .lrps(vec![lrp(0, 4)])
            .atoms([Atom::ge(0, 100)])
            .build()
            .unwrap();
        let idx = RelationIndex::build(&[a], &[0], &[]);
        let cands = idx.probe(&tup(vec![lrp(0, 4)]), &[0], &[]);
        assert_eq!(cands, vec![0]);
    }
}
