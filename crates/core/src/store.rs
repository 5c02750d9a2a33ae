//! Interned relation storage with columnar keys.
//!
//! A [`GenRelation`](crate::GenRelation) holds an [`Arc`] to a
//! [`RelStore`], which keeps the relation's rows (Definition 2.3's finite
//! set of generalized tuples) as one `Vec<GenTuple>` — the only row
//! representation — each row's temporal part aliasing the canonical
//! hash-consed [`TemporalPart`] allocation. Next to the rows it keeps
//! keys derived from them, column-major, for the batch pre-filter, the
//! residue index and relation equality:
//!
//! * per-row hash-consed [`TemporalPart`] ids;
//! * **temporal columns** as flat `(offset, period)` arrays (one pair of
//!   `Vec<i64>` per temporal attribute);
//! * **data columns** as flat [`ValueId`] arrays — `NonZeroU32` ids into a
//!   process-wide [`Value`] arena, so `Option<ValueId>` is pointer-free
//!   and equal values compare as integers;
//! * the PR 3 residue-bucket [`RelationIndex`] **persistently**, keyed by
//!   the column sets it was built over: an index is built at most once per
//!   relation/column-set, reused across operator calls, extended in place
//!   on append when the moduli survive, and invalidated precisely (only
//!   the appends that change a column's modulus drop it).
//!
//! Both arenas are global hash-consing interners (a mutex around a `Vec`
//! arena plus a reverse map). They are append-only and process-wide,
//! which is exactly what makes `O(1)` snapshots safe: a cloned relation
//! shares the store `Arc`, and ids never dangle or get reused.
//! [`storage_stats`] surfaces the arena sizes, hit rates and index reuse
//! counts (the REPL's `\storage` command); per arena the determinism
//! invariant `hits == lookups − distinct` holds at every snapshot.
//!
//! Row-oriented access goes through the [`Rows`] cursor / [`RowRef`]
//! view API, which borrows the stored rows.
//!
//! Compaction follows the same one-cache-per-fact rule: a store memoizes
//! what compacting it produced (see
//! [`GenRelation::compact_in`](crate::GenRelation::compact_in)), so a
//! store is compacted at most once. Only an in-place append changes a
//! store's rows, and it clears the memo.

use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use itd_constraint::ConstraintSystem;
use itd_lrp::Lrp;

use crate::compact::CompactReport;
use crate::index::RelationIndex;
use crate::metrics::{Family, Kind};
use crate::schema::Schema;
use crate::tuple::{GenTuple, TemporalPart};
use crate::value::Value;

/// Id of a data [`Value`] in the process-wide value arena.
///
/// Ids are dense, start at the arena's first insertion and are never
/// reused, so two ids are equal **iff** the values they intern are equal —
/// columns can be compared, hashed and deduplicated without touching the
/// arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(NonZeroU32);

impl ValueId {
    fn from_index(index: usize) -> ValueId {
        let raw = u32::try_from(index + 1).expect("value arena exceeds u32 ids");
        ValueId(NonZeroU32::new(raw).expect("index + 1 is nonzero"))
    }

    fn index(self) -> usize {
        self.0.get() as usize - 1
    }

    /// The raw nonzero id (stable within the process, for diagnostics).
    pub fn get(self) -> u32 {
        self.0.get()
    }
}

/// Id of a hash-consed temporal part (lrp vector + constraint system) in
/// the process-wide part arena. Same id ⟺ equal part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemporalPartId(NonZeroU32);

impl TemporalPartId {
    fn from_index(index: usize) -> TemporalPartId {
        let raw = u32::try_from(index + 1).expect("part arena exceeds u32 ids");
        TemporalPartId(NonZeroU32::new(raw).expect("index + 1 is nonzero"))
    }

    fn index(self) -> usize {
        self.0.get() as usize - 1
    }

    /// The raw nonzero id (stable within the process, for diagnostics).
    pub fn get(self) -> u32 {
        self.0.get()
    }
}

/// One hash-consing arena: canonical entries plus the reverse map and the
/// lookup/hit tally read by [`storage_stats`].
struct ArenaInner<T> {
    arena: Vec<T>,
    ids: HashMap<T, u32>,
    lookups: u64,
    hits: u64,
    /// Estimated bytes of distinct interned payload (see
    /// [`StorageStats::value_bytes`] / [`StorageStats::part_bytes`]).
    bytes: u64,
}

impl<T> ArenaInner<T> {
    fn new() -> Self {
        ArenaInner {
            arena: Vec::new(),
            ids: HashMap::new(),
            lookups: 0,
            hits: 0,
            bytes: 0,
        }
    }
}

static VALUES: OnceLock<Mutex<ArenaInner<Value>>> = OnceLock::new();
static PARTS: OnceLock<Mutex<ArenaInner<Arc<TemporalPart>>>> = OnceLock::new();
static INDEX_BUILDS: AtomicU64 = AtomicU64::new(0);
static INDEX_REUSES: AtomicU64 = AtomicU64::new(0);
static OUTCOME_HITS: AtomicU64 = AtomicU64::new(0);
static OUTCOME_MISSES: AtomicU64 = AtomicU64::new(0);
static OUTCOME_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Entry bound of the global pairwise outcome cache
/// (`outcome_cached_pair`): pair outcomes plus emptiness verdicts
/// together never exceed it.
pub const OUTCOME_CACHE_CAP: usize = 1 << 16;

/// The algebra operation a cached pairwise outcome belongs to.
///
/// `Intersect` meets columns positionally; `Join` carries the exact
/// temporal column pairing, because the same two parts joined on
/// different column pairs produce different (and differently shaped)
/// results. The pairing is shared: a lookup's key and every entry one
/// join call caches hold the same allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum PairOpKey {
    Intersect,
    Join(Arc<[(usize, usize)]>),
}

/// The global pairwise-outcome cache: because temporal parts are
/// hash-consed process-wide, `(id, id, op)` keys survive across operator
/// calls *and* queries — a pair derived once is never derived again
/// until evicted.
struct OutcomeInner {
    /// `(left part, right part, op) →` derived result part (`None` =
    /// the pair is provably empty / prunable).
    pairs: HashMap<(TemporalPartId, TemporalPartId, PairOpKey), Option<Arc<TemporalPart>>>,
    /// Per-part grid-emptiness verdicts (difference fold pre-checks).
    empties: HashMap<TemporalPartId, bool>,
    /// Entry bound; reaching it triggers a full generational clear.
    cap: usize,
}

impl OutcomeInner {
    fn with_cap(cap: usize) -> Self {
        OutcomeInner {
            pairs: HashMap::new(),
            empties: HashMap::new(),
            cap,
        }
    }

    fn len(&self) -> usize {
        self.pairs.len() + self.empties.len()
    }

    /// Generational eviction: when the combined entry count reaches the
    /// cap, drop everything and return the number of casualties. A full
    /// clear (rather than LRU) keeps lookups lock-cheap and is
    /// deterministic in the number of evicted entries for a fixed
    /// insertion sequence.
    fn evict_if_full(&mut self) -> u64 {
        let len = self.len();
        if len < self.cap {
            return 0;
        }
        self.pairs.clear();
        self.empties.clear();
        len as u64
    }
}

static OUTCOMES: OnceLock<Mutex<OutcomeInner>> = OnceLock::new();

fn outcomes() -> &'static Mutex<OutcomeInner> {
    OUTCOMES.get_or_init(|| Mutex::new(OutcomeInner::with_cap(OUTCOME_CACHE_CAP)))
}

/// Looks up a cached pairwise outcome. The outer `Option` is the cache
/// verdict (`None` = miss); the inner one is the derivation's result
/// (`None` = the pair derives to nothing).
pub(crate) fn outcome_cached_pair(
    left: TemporalPartId,
    right: TemporalPartId,
    op: &PairOpKey,
) -> Option<Option<Arc<TemporalPart>>> {
    let inner = outcomes().lock().expect("outcome cache poisoned");
    match inner.pairs.get(&(left, right, op.clone())) {
        Some(outcome) => {
            OUTCOME_HITS.fetch_add(1, Ordering::Relaxed);
            Some(outcome.clone())
        }
        None => {
            OUTCOME_MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Records a derived pairwise outcome, evicting (full clear) at
/// capacity. Both sides of a race insert the same pure-function result,
/// so whichever write wins, later hits observe an identical value.
pub(crate) fn outcome_cache_pair(
    left: TemporalPartId,
    right: TemporalPartId,
    op: PairOpKey,
    outcome: Option<Arc<TemporalPart>>,
) {
    let mut inner = outcomes().lock().expect("outcome cache poisoned");
    OUTCOME_EVICTIONS.fetch_add(inner.evict_if_full(), Ordering::Relaxed);
    inner.pairs.insert((left, right, op), outcome);
}

/// Cached grid-emptiness verdict for one interned part, if known.
pub(crate) fn outcome_cached_empty(id: TemporalPartId) -> Option<bool> {
    let inner = outcomes().lock().expect("outcome cache poisoned");
    match inner.empties.get(&id) {
        Some(&empty) => {
            OUTCOME_HITS.fetch_add(1, Ordering::Relaxed);
            Some(empty)
        }
        None => {
            OUTCOME_MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Records a grid-emptiness verdict for one interned part.
pub(crate) fn outcome_cache_empty(id: TemporalPartId, empty: bool) {
    let mut inner = outcomes().lock().expect("outcome cache poisoned");
    OUTCOME_EVICTIONS.fetch_add(inner.evict_if_full(), Ordering::Relaxed);
    inner.empties.insert(id, empty);
}

fn values() -> &'static Mutex<ArenaInner<Value>> {
    VALUES.get_or_init(|| Mutex::new(ArenaInner::new()))
}

fn parts() -> &'static Mutex<ArenaInner<Arc<TemporalPart>>> {
    PARTS.get_or_init(|| Mutex::new(ArenaInner::new()))
}

/// Estimated payload bytes of one interned value: the inline enum plus
/// any owned string bytes.
fn value_payload_bytes(v: &Value) -> u64 {
    let owned = match v {
        Value::Str(s) => s.len(),
        _ => 0,
    };
    (std::mem::size_of::<Value>() + owned) as u64
}

/// Estimated payload bytes of one interned temporal part: the struct, its
/// lrp vector, and the `(arity + 1)²` difference-bound matrix.
fn part_payload_bytes(part: &TemporalPart) -> u64 {
    let dim = part.cons.arity() + 1;
    (std::mem::size_of::<TemporalPart>()
        + part.lrps.len() * std::mem::size_of::<Lrp>()
        + dim * dim * std::mem::size_of::<itd_constraint::Bound>()) as u64
}

/// Interns one value, returning its canonical id.
fn intern_value(inner: &mut ArenaInner<Value>, v: &Value) -> ValueId {
    inner.lookups += 1;
    if let Some(&raw) = inner.ids.get(v) {
        inner.hits += 1;
        return ValueId(NonZeroU32::new(raw).expect("stored ids are nonzero"));
    }
    let id = ValueId::from_index(inner.arena.len());
    inner.bytes += value_payload_bytes(v);
    inner.arena.push(v.clone());
    inner.ids.insert(v.clone(), id.get());
    id
}

/// Interns one temporal part, returning its id and the canonical shared
/// allocation (so callers can drop their copy and alias the arena's).
fn intern_part(
    inner: &mut ArenaInner<Arc<TemporalPart>>,
    part: &Arc<TemporalPart>,
) -> (TemporalPartId, Arc<TemporalPart>) {
    inner.lookups += 1;
    if let Some(&raw) = inner.ids.get(part) {
        inner.hits += 1;
        let id = TemporalPartId(NonZeroU32::new(raw).expect("stored ids are nonzero"));
        return (id, Arc::clone(&inner.arena[id.index()]));
    }
    let id = TemporalPartId::from_index(inner.arena.len());
    inner.bytes += part_payload_bytes(part);
    inner.arena.push(Arc::clone(part));
    inner.ids.insert(Arc::clone(part), id.get());
    (id, Arc::clone(part))
}

/// Resolves a [`ValueId`] back to its value (a clone of the arena entry).
///
/// # Panics
/// If the id did not come from this process's arena.
pub fn resolve_value(id: ValueId) -> Value {
    let inner = values().lock().expect("value arena poisoned");
    inner.arena[id.index()].clone()
}

/// Declares the storage counters once: the fields of [`StorageStats`],
/// [`StorageStats::delta_since`], and the Prometheus families that
/// [`StorageStats::to_prometheus`] renders. An entry's help text, when it
/// has a family, also opens the field's doc.
macro_rules! storage_counters {
    ($(
        $(#[doc = $doc:literal])*
        $name:ident $(: $kind:ident $family:literal, $help:literal)?;
    )+) => {
        /// A consistent snapshot of the global storage counters.
        ///
        /// Per arena, `lookups − hits == distinct` at any snapshot — misses
        /// and insertions happen under one lock, so the interner is
        /// deterministic: totals depend only on the multiset of interned
        /// keys, never on thread scheduling. Counters are process-lifetime
        /// totals; measure a window as [`StorageStats::delta_since`] of a
        /// snapshot taken at its start.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StorageStats {
            $($(#[doc = $help])? $(#[doc = $doc])* pub $name: u64,)+
        }

        impl StorageStats {
            /// The counters exported as a family of their own.
            pub(crate) const FAMILIES: &'static [Family<StorageStats>] = &[$($(
                Family { name: $family, kind: Kind::$kind, help: $help, read: |s| s.$name },
            )?)+];

            /// `self − before`, field by field (saturating). The per-arena
            /// invariant `lookups − hits == distinct` survives subtraction
            /// of an earlier snapshot because every counter is monotone.
            pub fn delta_since(&self, before: &StorageStats) -> StorageStats {
                StorageStats {
                    $($name: self.$name.saturating_sub(before.$name),)+
                }
            }
        }
    };
}

storage_counters! {
    value_lookups: Counter "itd_storage_value_lookups_total", "Value-arena interning attempts.";
    value_hits: Counter "itd_storage_value_hits_total",
        "Value-arena attempts answered by an existing entry.";
    value_distinct: Gauge "itd_storage_value_distinct", "Distinct values interned.";
    /// Estimated bytes of distinct value payload (inline enum + owned
    /// string bytes).
    value_bytes;
    part_lookups: Counter "itd_storage_part_lookups_total", "Part-arena interning attempts.";
    part_hits: Counter "itd_storage_part_hits_total",
        "Part-arena attempts answered by an existing entry.";
    part_distinct: Gauge "itd_storage_part_distinct", "Distinct temporal parts interned.";
    /// Estimated bytes of distinct part payload (struct + lrp vector +
    /// difference-bound matrix).
    part_bytes;
    index_builds: Counter "itd_storage_index_builds_total", "Residue indexes built from scratch.";
    index_reuses: Counter "itd_storage_index_reuses_total",
        "Operator calls served by a persistent index.";
    outcome_hits: Counter "itd_outcome_cache_hits_total",
        "Pairwise-outcome cache lookups answered by a cached outcome.";
    outcome_misses: Counter "itd_outcome_cache_misses_total",
        "Pairwise-outcome cache lookups that fell through to derivation.";
    outcome_evictions: Counter "itd_outcome_cache_evictions_total",
        "Pairwise-outcome cache entries dropped by the capacity bound.";
}

/// Reads the global storage counters (process-lifetime totals). Each
/// arena is snapshotted under its own lock, so the per-arena invariant
/// `lookups − hits == distinct` holds even while other threads keep
/// interning.
pub fn storage_stats() -> StorageStats {
    let (value_lookups, value_hits, value_distinct, value_bytes) = {
        let inner = values().lock().expect("value arena poisoned");
        (
            inner.lookups,
            inner.hits,
            inner.arena.len() as u64,
            inner.bytes,
        )
    };
    let (part_lookups, part_hits, part_distinct, part_bytes) = {
        let inner = parts().lock().expect("part arena poisoned");
        (
            inner.lookups,
            inner.hits,
            inner.arena.len() as u64,
            inner.bytes,
        )
    };
    StorageStats {
        value_lookups,
        value_hits,
        value_distinct,
        value_bytes,
        part_lookups,
        part_hits,
        part_distinct,
        part_bytes,
        index_builds: INDEX_BUILDS.load(Ordering::Relaxed),
        index_reuses: INDEX_REUSES.load(Ordering::Relaxed),
        outcome_hits: OUTCOME_HITS.load(Ordering::Relaxed),
        outcome_misses: OUTCOME_MISSES.load(Ordering::Relaxed),
        outcome_evictions: OUTCOME_EVICTIONS.load(Ordering::Relaxed),
    }
}

impl fmt::Display for StorageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "value arena: {} distinct / {} lookups ({} hits, ~{} bytes)",
            self.value_distinct, self.value_lookups, self.value_hits, self.value_bytes
        )?;
        writeln!(
            f,
            "part arena:  {} distinct / {} lookups ({} hits, ~{} bytes)",
            self.part_distinct, self.part_lookups, self.part_hits, self.part_bytes
        )?;
        writeln!(
            f,
            "indexes:     {} built, {} reused",
            self.index_builds, self.index_reuses
        )?;
        write!(
            f,
            "outcomes:    {} hits, {} misses, {} evicted",
            self.outcome_hits, self.outcome_misses, self.outcome_evictions
        )
    }
}

/// Cache key for a persistent index: the temporal and data column sets it
/// was built over.
type IndexKey = (Vec<usize>, Vec<usize>);

/// What compacting a store produced: the compacted store, or `None` when
/// compaction removes nothing (the output is the store itself, and an
/// `Arc` to itself would be a cycle that leaks it), plus what it removed.
pub(crate) type Compacted = (Option<Arc<RelStore>>, CompactReport);

/// The backing store of one relation: its rows plus the columnar keys
/// derived from them. Immutable once shared (relations append through
/// `Arc::get_mut` or copy-on-write).
pub(crate) struct RelStore {
    schema: Schema,
    /// The rows, each aliasing its canonical hash-consed part.
    rows: Vec<GenTuple>,
    /// Per-row id of the hash-consed temporal part.
    part_ids: Vec<TemporalPartId>,
    /// Per temporal column: each row's lrp offset.
    t_offsets: Vec<Vec<i64>>,
    /// Per temporal column: each row's lrp period (`0` for points).
    t_periods: Vec<Vec<i64>>,
    /// Per data column: each row's interned value id.
    data: Vec<Vec<ValueId>>,
    /// Persistent residue indexes by column set.
    indexes: Mutex<HashMap<IndexKey, Arc<RelationIndex>>>,
    /// The compaction result, memoized on first use.
    compacted: OnceLock<Compacted>,
}

impl fmt::Debug for RelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RelStore")
            .field("schema", &self.schema)
            .field("len", &self.part_ids.len())
            .field("compacted", &self.compacted.get().is_some())
            .finish()
    }
}

impl RelStore {
    /// An empty store of the given schema.
    pub(crate) fn empty(schema: Schema) -> RelStore {
        RelStore::from_tuples(schema, Vec::new())
    }

    /// Builds a store from already-schema-checked tuples. The input rows
    /// are canonicalized against the global arenas and kept as the rows.
    pub(crate) fn from_tuples(schema: Schema, mut tuples: Vec<GenTuple>) -> RelStore {
        debug_assert!(tuples.iter().all(|t| t.schema() == schema));
        let n = tuples.len();
        let mut part_ids = Vec::with_capacity(n);
        let mut canonical = Vec::with_capacity(n);
        {
            let mut inner = parts().lock().expect("part arena poisoned");
            for t in &tuples {
                let (id, part) = intern_part(&mut inner, t.part_arc());
                part_ids.push(id);
                canonical.push(part);
            }
        }
        // Swapped outside the lock: a replaced part may be freed here.
        for (t, part) in tuples.iter_mut().zip(canonical) {
            t.canonicalize_part(part);
        }
        let mut t_offsets = vec![Vec::with_capacity(n); schema.temporal()];
        let mut t_periods = vec![Vec::with_capacity(n); schema.temporal()];
        for t in &tuples {
            for (c, l) in t.lrps().iter().enumerate() {
                t_offsets[c].push(l.offset());
                t_periods[c].push(l.period());
            }
        }
        let mut data = vec![Vec::with_capacity(n); schema.data()];
        if schema.data() > 0 {
            let mut inner = values().lock().expect("value arena poisoned");
            for t in &tuples {
                for (c, v) in t.data().iter().enumerate() {
                    data[c].push(intern_value(&mut inner, v));
                }
            }
        }
        RelStore {
            schema,
            rows: tuples,
            part_ids,
            t_offsets,
            t_periods,
            data,
            indexes: Mutex::new(HashMap::new()),
            compacted: OnceLock::new(),
        }
    }

    /// Concatenation of two stores of one schema (union): pure row, id
    /// and column copies, no re-hashing. Indexes start empty.
    pub(crate) fn concat(a: &RelStore, b: &RelStore) -> RelStore {
        debug_assert_eq!(a.schema, b.schema);
        fn cat_cols<T: Clone>(x: &[Vec<T>], y: &[Vec<T>]) -> Vec<Vec<T>> {
            x.iter()
                .zip(y)
                .map(|(xa, xb)| [xa.as_slice(), xb.as_slice()].concat())
                .collect()
        }
        RelStore {
            schema: a.schema,
            rows: [a.rows.as_slice(), b.rows.as_slice()].concat(),
            part_ids: [a.part_ids.as_slice(), b.part_ids.as_slice()].concat(),
            t_offsets: cat_cols(&a.t_offsets, &b.t_offsets),
            t_periods: cat_cols(&a.t_periods, &b.t_periods),
            data: cat_cols(&a.data, &b.data),
            indexes: Mutex::new(HashMap::new()),
            compacted: OnceLock::new(),
        }
    }

    /// A positional row subset (data selection): rows and columns are
    /// copied entry by entry, nothing is re-interned.
    pub(crate) fn select(&self, keep: &[usize]) -> RelStore {
        fn pick<T: Clone>(col: &[T], keep: &[usize]) -> Vec<T> {
            keep.iter().map(|&i| col[i].clone()).collect()
        }
        fn pick_cols<T: Clone>(cols: &[Vec<T>], keep: &[usize]) -> Vec<Vec<T>> {
            cols.iter().map(|col| pick(col, keep)).collect()
        }
        RelStore {
            schema: self.schema,
            rows: pick(&self.rows, keep),
            part_ids: pick(&self.part_ids, keep),
            t_offsets: pick_cols(&self.t_offsets, keep),
            t_periods: pick_cols(&self.t_periods, keep),
            data: pick_cols(&self.data, keep),
            indexes: Mutex::new(HashMap::new()),
            compacted: OnceLock::new(),
        }
    }

    /// A deep copy used by copy-on-write append: rows and columns are
    /// cloned, the cached indexes are carried over as shared `Arc`s (the
    /// append will clone-on-extend them).
    pub(crate) fn cloned(&self) -> RelStore {
        let indexes = self.indexes.lock().expect("index cache poisoned").clone();
        RelStore {
            schema: self.schema,
            rows: self.rows.clone(),
            part_ids: self.part_ids.clone(),
            t_offsets: self.t_offsets.clone(),
            t_periods: self.t_periods.clone(),
            data: self.data.clone(),
            indexes: Mutex::new(indexes),
            compacted: OnceLock::new(),
        }
    }

    /// Appends one schema-checked row. Cached indexes are extended in
    /// place when the new row preserves their moduli and dropped (precise
    /// invalidation) when it does not; the compaction memo is cleared.
    pub(crate) fn push_row(&mut self, mut t: GenTuple) {
        debug_assert_eq!(t.schema(), self.schema);
        self.compacted.take();
        let (id, part) = {
            let mut inner = parts().lock().expect("part arena poisoned");
            intern_part(&mut inner, t.part_arc())
        };
        t.canonicalize_part(part);
        self.part_ids.push(id);
        for (c, l) in t.lrps().iter().enumerate() {
            self.t_offsets[c].push(l.offset());
            self.t_periods[c].push(l.period());
        }
        if self.schema.data() > 0 {
            let mut inner = values().lock().expect("value arena poisoned");
            for (c, v) in t.data().iter().enumerate() {
                self.data[c].push(intern_value(&mut inner, v));
            }
        }
        self.rows.push(t);
        let pos = self.part_ids.len() - 1;
        // Taken out of the lock so `try_insert` can read the extended
        // columns through `self`.
        let mut indexes = std::mem::take(self.indexes.get_mut().expect("index cache poisoned"));
        indexes.retain(|_, idx| Arc::make_mut(idx).try_insert(self, pos));
        *self.indexes.get_mut().expect("index cache poisoned") = indexes;
    }

    pub(crate) fn schema(&self) -> Schema {
        self.schema
    }

    pub(crate) fn len(&self) -> usize {
        self.part_ids.len()
    }

    pub(crate) fn part_ids(&self) -> &[TemporalPartId] {
        &self.part_ids
    }

    pub(crate) fn data_columns(&self) -> &[Vec<ValueId>] {
        &self.data
    }

    pub(crate) fn t_offsets(&self, col: usize) -> &[i64] {
        &self.t_offsets[col]
    }

    pub(crate) fn t_periods(&self, col: usize) -> &[i64] {
        &self.t_periods[col]
    }

    /// The rows, in order.
    pub(crate) fn rows(&self) -> &[GenTuple] {
        &self.rows
    }

    /// The memoized compaction result, computed by `compact` on first use.
    /// Concurrent first uses may both compute; they produce equal results
    /// and all callers see the one that was stored.
    pub(crate) fn compacted(
        &self,
        compact: impl FnOnce() -> crate::Result<Compacted>,
    ) -> crate::Result<&Compacted> {
        if let Some(memo) = self.compacted.get() {
            return Ok(memo);
        }
        let memo = compact()?;
        Ok(self.compacted.get_or_init(|| memo))
    }

    /// The persistent residue index over the given column sets: built on
    /// first use, shared (and counted as a reuse) afterwards.
    pub(crate) fn index_for(
        &self,
        temporal_cols: &[usize],
        data_cols: &[usize],
    ) -> Arc<RelationIndex> {
        let key = (temporal_cols.to_vec(), data_cols.to_vec());
        if let Some(idx) = self.indexes.lock().expect("index cache poisoned").get(&key) {
            INDEX_REUSES.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(idx);
        }
        // Build outside the cache lock, straight from the flat columns:
        // indexing needs only offsets, periods and value ids.
        let built = Arc::new(RelationIndex::build(self, temporal_cols, data_cols));
        let mut cache = self.indexes.lock().expect("index cache poisoned");
        if let Some(idx) = cache.get(&key) {
            INDEX_REUSES.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(idx);
        }
        INDEX_BUILDS.fetch_add(1, Ordering::Relaxed);
        cache.insert(key, Arc::clone(&built));
        built
    }
}

/// A cursor over the rows of a relation; yields [`RowRef`] views.
///
/// Obtained from [`GenRelation::rows`](crate::GenRelation::rows).
#[derive(Clone)]
pub struct Rows<'a> {
    store: &'a RelStore,
    front: usize,
    back: usize,
}

impl<'a> Rows<'a> {
    pub(crate) fn new(store: &'a RelStore) -> Rows<'a> {
        Rows {
            store,
            front: 0,
            back: store.len(),
        }
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rows")
            .field("remaining", &(self.back - self.front))
            .finish()
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        let row = RowRef {
            store: self.store,
            idx: self.front,
        };
        self.front += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> DoubleEndedIterator for Rows<'a> {
    fn next_back(&mut self) -> Option<RowRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(RowRef {
            store: self.store,
            idx: self.back,
        })
    }
}

/// A zero-copy view of one row of a relation.
///
/// Temporal access ([`RowRef::lrps`], [`RowRef::constraints`]) borrows the
/// row's hash-consed part and data access ([`RowRef::data`],
/// [`RowRef::datum`]) reads the stored row; [`RowRef::value_id`] reads the
/// interned id column.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    store: &'a RelStore,
    idx: usize,
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowRef").field("idx", &self.idx).finish()
    }
}

impl<'a> RowRef<'a> {
    pub(crate) fn new(store: &'a RelStore, idx: usize) -> RowRef<'a> {
        RowRef { store, idx }
    }

    /// The row's position in the relation.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// The row's schema.
    pub fn schema(&self) -> Schema {
        self.store.schema()
    }

    fn row(&self) -> &'a GenTuple {
        &self.store.rows()[self.idx]
    }

    /// Temporal attribute values (borrowed from the hash-consed part).
    pub fn lrps(&self) -> &'a [Lrp] {
        self.row().lrps()
    }

    /// The constraint system (borrowed from the hash-consed part).
    pub fn constraints(&self) -> &'a ConstraintSystem {
        self.row().constraints()
    }

    /// The id of the row's temporal part in the global arena.
    pub fn part_id(&self) -> TemporalPartId {
        self.store.part_ids()[self.idx]
    }

    /// The interned id of the value in data column `col`.
    ///
    /// # Panics
    /// If `col` is out of range.
    pub fn value_id(&self, col: usize) -> ValueId {
        self.store.data_columns()[col][self.idx]
    }

    /// The value in data column `col`.
    ///
    /// # Panics
    /// If `col` is out of range.
    pub fn datum(&self, col: usize) -> Value {
        self.data()[col].clone()
    }

    /// All data values of the row.
    pub fn data(&self) -> &'a [Value] {
        self.row().data()
    }

    /// The row as an owned [`GenTuple`] (shares the temporal part).
    pub fn to_tuple(&self) -> GenTuple {
        self.row().clone()
    }

    /// Does this row denote the concrete tuple `(times, data)`?
    ///
    /// # Panics
    /// If `times.len()` differs from the temporal arity.
    pub fn contains(&self, times: &[i64], data: &[Value]) -> bool {
        self.row().contains(times, data)
    }
}

/// Typed columnar access to a relation's storage.
///
/// Obtained from [`GenRelation::columns`](crate::GenRelation::columns).
#[derive(Clone, Copy)]
pub struct Columns<'a> {
    store: &'a RelStore,
}

impl fmt::Debug for Columns<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Columns")
            .field("schema", &self.store.schema())
            .field("rows", &self.store.len())
            .finish()
    }
}

impl<'a> Columns<'a> {
    pub(crate) fn new(store: &'a RelStore) -> Columns<'a> {
        Columns { store }
    }

    /// Number of rows in every column.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// The relation's schema.
    pub fn schema(&self) -> Schema {
        self.store.schema()
    }

    /// Temporal column `col` as flat offset/period slices.
    ///
    /// # Panics
    /// If `col` is out of range.
    pub fn temporal(&self, col: usize) -> TemporalColumn<'a> {
        TemporalColumn {
            offsets: self.store.t_offsets(col),
            periods: self.store.t_periods(col),
        }
    }

    /// Data column `col` as a flat slice of interned ids.
    ///
    /// # Panics
    /// If `col` is out of range.
    pub fn data(&self, col: usize) -> DataColumn<'a> {
        DataColumn {
            ids: &self.store.data_columns()[col],
        }
    }

    /// Per-row temporal part ids.
    pub fn part_ids(&self) -> &'a [TemporalPartId] {
        self.store.part_ids()
    }
}

/// One temporal column: each row's lrp as a flat `(offset, period)` pair,
/// period `0` marking a point.
#[derive(Debug, Clone, Copy)]
pub struct TemporalColumn<'a> {
    offsets: &'a [i64],
    periods: &'a [i64],
}

impl<'a> TemporalColumn<'a> {
    /// Each row's lrp offset.
    pub fn offsets(&self) -> &'a [i64] {
        self.offsets
    }

    /// Each row's lrp period (`0` for points).
    pub fn periods(&self) -> &'a [i64] {
        self.periods
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// One data column: each row's value as an interned [`ValueId`].
#[derive(Debug, Clone, Copy)]
pub struct DataColumn<'a> {
    ids: &'a [ValueId],
}

impl<'a> DataColumn<'a> {
    /// Each row's interned value id.
    pub fn ids(&self) -> &'a [ValueId] {
        self.ids
    }

    /// The id at `row`.
    ///
    /// # Panics
    /// If `row` is out of range.
    pub fn id(&self, row: usize) -> ValueId {
        self.ids[row]
    }

    /// The value at `row`, resolved from the arena.
    ///
    /// # Panics
    /// If `row` is out of range.
    pub fn resolve(&self, row: usize) -> Value {
        resolve_value(self.ids[row])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itd_lrp::Lrp;

    fn lrp(c: i64, k: i64) -> Lrp {
        Lrp::new(c, k).unwrap()
    }

    #[test]
    fn interned_ids_are_canonical() {
        let a = GenTuple::unconstrained(vec![lrp(0, 2)], vec![Value::str("store-test-a")]);
        let b = GenTuple::unconstrained(vec![lrp(0, 2)], vec![Value::str("store-test-a")]);
        let s1 = RelStore::from_tuples(Schema::new(1, 1), vec![a]);
        let s2 = RelStore::from_tuples(Schema::new(1, 1), vec![b]);
        assert_eq!(s1.part_ids(), s2.part_ids());
        assert_eq!(s1.data_columns(), s2.data_columns());
        // Canonicalization: both stores alias one part allocation.
        assert!(Arc::ptr_eq(
            s1.rows()[0].part_arc(),
            s2.rows()[0].part_arc()
        ));
        assert_eq!(
            resolve_value(s1.data_columns()[0][0]),
            Value::str("store-test-a")
        );
    }

    #[test]
    fn stats_invariant_holds() {
        // Intern through a store, then check the global invariant; other
        // tests may intern concurrently, but the snapshot is taken under
        // the arena locks, so the equality is exact at that instant.
        let t = GenTuple::unconstrained(vec![lrp(1, 3)], vec![Value::Int(41_417)]);
        let _s = RelStore::from_tuples(Schema::new(1, 1), vec![t.clone(), t]);
        let stats = storage_stats();
        assert_eq!(stats.value_lookups - stats.value_hits, stats.value_distinct);
        assert_eq!(stats.part_lookups - stats.part_hits, stats.part_distinct);
    }

    #[test]
    fn push_row_keeps_columns_in_sync() {
        let mut s = RelStore::empty(Schema::new(2, 1));
        for i in 0..5 {
            s.push_row(GenTuple::unconstrained(
                vec![lrp(i, 6), Lrp::point(i)],
                vec![Value::Int(i)],
            ));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.t_offsets(0), &[0, 1, 2, 3, 4]);
        assert_eq!(s.t_periods(0), &[6, 6, 6, 6, 6]);
        assert_eq!(s.t_periods(1), &[0, 0, 0, 0, 0]);
        let rows = s.rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[3].data(), &[Value::Int(3)]);
    }

    #[test]
    fn outcome_cache_evicts_at_cap() {
        // A local cache with a small cap: the shared one is never
        // shrunk under concurrently running tests.
        let tuples: Vec<GenTuple> = (0..12)
            .map(|i| GenTuple::unconstrained(vec![lrp(i, 17)], vec![]))
            .collect();
        let s = RelStore::from_tuples(Schema::new(1, 0), tuples);
        let mut cache = OutcomeInner::with_cap(4);
        let mut evicted = 0;
        for &id in s.part_ids() {
            evicted += cache.evict_if_full();
            cache.empties.insert(id, false);
            assert!(cache.len() <= 4);
        }
        assert_eq!(evicted, 8, "12 inserts into a cap-4 cache clear it twice");
    }

    #[test]
    fn outcome_cache_round_trips_pair_outcomes() {
        let t1 = GenTuple::unconstrained(vec![lrp(3, 9)], vec![]);
        let t2 = GenTuple::unconstrained(vec![lrp(5, 9)], vec![]);
        let s = RelStore::from_tuples(Schema::new(1, 0), vec![t1.clone(), t2]);
        let (a, b) = (s.part_ids()[0], s.part_ids()[1]);
        let hits0 = storage_stats().outcome_hits;
        outcome_cache_pair(
            a,
            b,
            PairOpKey::Intersect,
            Some(Arc::clone(s.rows()[0].part_arc())),
        );
        let got = outcome_cached_pair(a, b, &PairOpKey::Intersect)
            .expect("just-inserted outcome must hit");
        assert_eq!(got.as_deref(), Some(&**s.rows()[0].part_arc()));
        assert!(storage_stats().outcome_hits > hits0);
        // A different op key is a distinct outcome.
        let join_key = PairOpKey::Join(Arc::from([(0, 0)]));
        assert_eq!(outcome_cached_pair(a, b, &join_key), None);
    }

    #[test]
    fn index_is_built_once_and_reused() {
        let tuples: Vec<GenTuple> = (0..16)
            .map(|i| GenTuple::unconstrained(vec![lrp(i % 4, 4)], vec![]))
            .collect();
        let s = RelStore::from_tuples(Schema::new(1, 0), tuples);
        let before = storage_stats();
        let i1 = s.index_for(&[0], &[]);
        let i2 = s.index_for(&[0], &[]);
        assert!(Arc::ptr_eq(&i1, &i2));
        let after = storage_stats();
        assert_eq!(after.index_builds - before.index_builds, 1);
        assert!(after.index_reuses > before.index_reuses);
    }
}
