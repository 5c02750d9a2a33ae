//! Cross-query metrics: aggregation of what [`crate::trace`] only captures
//! per query.
//!
//! A [`MetricsRegistry`] is a lock-cheap sink that a query driver feeds one
//! [`QueryObservation`] per finished query. Each `Database` owns one and
//! feeds it that database's queries and view refreshes. It maintains:
//!
//! * **Latency histograms** — fixed power-of-two log buckets (no
//!   dependencies, no allocation on the record path) for per-query wall
//!   time, candidate pairs, and peak live rows, plus one wall-time
//!   histogram per [`OpKind`]. Percentiles (p50/p90/p99) come out of the
//!   bucket boundaries, so they are deterministic on synthetic inputs.
//! * **Counter totals** — a running [`StatsSnapshot`] that is, by
//!   construction, the exact sum of every observed query's per-op
//!   counters (asserted in the integration tests).
//! * **Resource gauges** — tuples allocated and the largest single-query
//!   peak of live rows.
//! * **A bounded slow-query log** — the [`SLOW_LOG_CAP`] worst queries by
//!   wall time *and* by candidate pairs, each entry carrying the rendered
//!   plan, the per-op counters, and the query's [`QueryResourceReport`];
//!   exportable as JSON lines.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a
//! [`RegistrySnapshot`], which renders to the Prometheus text exposition
//! format (subsuming the per-query [`StatsSnapshot::to_prometheus`]
//! exporter), a `\top`-style summary, slow-log tables, and ASCII
//! histograms. The interning arenas and the outcome cache are shared by
//! the whole process, so their gauges are not part of any registry:
//! [`StorageStats::to_prometheus`] renders them where the scope is the
//! process (a server's `/metrics`, the bench report).
//!
//! The record path takes no lock for histograms and counters (relaxed
//! atomics) and two short mutexes (totals merge, slow-log insert) per
//! query — not per operator — so concurrent queries contend only once per
//! query.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

use crate::exec::{OpKind, StatsSnapshot};
use crate::store::{storage_stats, StorageStats};
use crate::trace::escape_json;

/// Number of histogram buckets. Bucket `0` holds the value `0`; bucket
/// `i ∈ [1, 64]` holds values in `[2^(i−1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Entries retained per slow-query ranking (by wall time and by pairs).
pub const SLOW_LOG_CAP: usize = 8;

/// The bucket index of `v` under the power-of-two scheme.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: `2^i − 1` (saturating at the top).
fn bucket_le(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free histogram over `u64` values with fixed power-of-two
/// buckets. Recording is two relaxed `fetch_add`s; snapshots are plain
/// data.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Counts one observation of `v`.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// A plain-data copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            sum: self.sum.load(Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per bucket (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The inclusive upper bound of the bucket holding the `q`-quantile
    /// observation (`q ∈ (0, 1]`); `0` on an empty histogram. Because the
    /// result is a bucket boundary, it is an upper bound on the true
    /// quantile that is exact for values on bucket edges and
    /// deterministic for any input sequence.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_le(i);
            }
        }
        bucket_le(HISTOGRAM_BUCKETS - 1)
    }

    /// Index of the highest nonzero bucket, if any.
    fn max_bucket(&self) -> Option<usize> {
        (0..HISTOGRAM_BUCKETS).rev().find(|&i| self.buckets[i] > 0)
    }
}

/// Per-query resource accounting, attached to every
/// [`QueryOutput`](../../itd_query/struct.QueryOutput.html) and to slow-log
/// entries.
///
/// The storage/cache fields are *deltas* over the query's execution window
/// against the process-global counters, captured by a
/// [`ResourceCollector`]. They are exact when one query runs at a time;
/// under concurrency they attribute whatever the window saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryResourceReport {
    /// Largest sum of live intermediate result rows at any point of the
    /// plan walk (inputs excluded).
    pub peak_live_rows: u64,
    /// Generalized tuples produced across all operators (`Σ tuples_out`).
    pub tuples_allocated: u64,
    /// Value-arena interning attempts during the query.
    pub value_lookups: u64,
    /// Value-arena attempts answered by an existing entry.
    pub value_hits: u64,
    /// Part-arena interning attempts during the query.
    pub part_lookups: u64,
    /// Part-arena attempts answered by an existing entry.
    pub part_hits: u64,
    /// Estimated bytes of fresh arena payload interned by the query.
    pub arena_bytes: u64,
    /// Residue indexes built from scratch during the query.
    pub index_builds: u64,
    /// Operator calls served by an already-built persistent index.
    pub index_reuses: u64,
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl QueryResourceReport {
    /// Value-arena hit rate in `[0, 1]` (`0` when nothing was interned).
    pub fn value_hit_rate(&self) -> f64 {
        rate(self.value_hits, self.value_lookups)
    }

    /// Part-arena hit rate in `[0, 1]`.
    pub fn part_hit_rate(&self) -> f64 {
        rate(self.part_hits, self.part_lookups)
    }

    /// Fraction of index demands served by a persistent index.
    pub fn index_reuse_rate(&self) -> f64 {
        rate(self.index_reuses, self.index_builds + self.index_reuses)
    }

    /// Scrubs every field that depends on process history or shared
    /// caches (arena/index deltas), keeping only the replay-deterministic
    /// core: `peak_live_rows` and `tuples_allocated`. The slow-log
    /// determinism tests compare scrubbed reports.
    pub fn without_timing(&self) -> QueryResourceReport {
        QueryResourceReport {
            peak_live_rows: self.peak_live_rows,
            tuples_allocated: self.tuples_allocated,
            ..QueryResourceReport::default()
        }
    }

    fn json_fields(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"peak_live_rows\":{},\"tuples_allocated\":{},\
             \"value_lookups\":{},\"value_hits\":{},\"part_lookups\":{},\"part_hits\":{},\
             \"arena_bytes\":{},\"index_builds\":{},\"index_reuses\":{}",
            self.peak_live_rows,
            self.tuples_allocated,
            self.value_lookups,
            self.value_hits,
            self.part_lookups,
            self.part_hits,
            self.arena_bytes,
            self.index_builds,
            self.index_reuses,
        );
    }
}

/// Captures the global storage counters at query start so
/// [`ResourceCollector::finish`] can report the query's *deltas*.
#[derive(Debug, Clone, Copy)]
pub struct ResourceCollector {
    storage: StorageStats,
}

impl ResourceCollector {
    /// Snapshots the global counters; call before executing the plan.
    pub fn start() -> ResourceCollector {
        ResourceCollector {
            storage: storage_stats(),
        }
    }

    /// Builds the report from the post-execution counters: storage fields
    /// are deltas against [`ResourceCollector::start`];
    /// `tuples_allocated` comes out of the query's own per-op counter
    /// delta `stats`.
    pub fn finish(self, peak_live_rows: u64, stats: &StatsSnapshot) -> QueryResourceReport {
        let s = storage_stats();
        let before_bytes = self.storage.value_bytes + self.storage.part_bytes;
        QueryResourceReport {
            peak_live_rows,
            tuples_allocated: stats.iter().map(|(_, o)| o.tuples_out).sum(),
            value_lookups: s.value_lookups.saturating_sub(self.storage.value_lookups),
            value_hits: s.value_hits.saturating_sub(self.storage.value_hits),
            part_lookups: s.part_lookups.saturating_sub(self.storage.part_lookups),
            part_hits: s.part_hits.saturating_sub(self.storage.part_hits),
            arena_bytes: (s.value_bytes + s.part_bytes).saturating_sub(before_bytes),
            index_builds: s.index_builds.saturating_sub(self.storage.index_builds),
            index_reuses: s.index_reuses.saturating_sub(self.storage.index_reuses),
        }
    }
}

/// Everything the driver reports about one finished query.
pub struct QueryObservation<'a> {
    /// Renders `(query text, plan)`. Called at most once, and only when
    /// the observation actually enters the slow-query log — the common
    /// case (an unremarkable query against a full log) never pays for
    /// string rendering.
    pub render: &'a dyn Fn() -> (String, String),
    /// End-to-end wall time of the evaluation, in nanoseconds.
    pub wall_nanos: u64,
    /// The query's per-op counter delta (exactly what its own execution
    /// added to the context).
    pub stats: &'a StatsSnapshot,
    /// The query's resource report.
    pub resources: &'a QueryResourceReport,
}

/// One retained slow-query log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// Observation order (0-based; ties in the rankings break by it).
    pub seq: u64,
    /// The query text.
    pub query: String,
    /// The rendered plan.
    pub plan: String,
    /// End-to-end wall time, in nanoseconds.
    pub wall_nanos: u64,
    /// Total candidate pairs examined.
    pub pairs: u64,
    /// The query's per-op counters.
    pub stats: StatsSnapshot,
    /// The query's resource report.
    pub resources: QueryResourceReport,
}

impl SlowQueryEntry {
    /// Scrubs wall time and process-history fields so replayed workloads
    /// compare equal (`seq`, `pairs`, counters, and the deterministic
    /// resource core survive).
    pub fn without_timing(&self) -> SlowQueryEntry {
        SlowQueryEntry {
            seq: self.seq,
            query: self.query.clone(),
            plan: self.plan.clone(),
            wall_nanos: 0,
            pairs: self.pairs,
            stats: self.stats.without_timing(),
            resources: self.resources.without_timing(),
        }
    }

    fn to_json_line(&self) -> String {
        let mut out = String::from("{\"seq\":");
        let _ = write!(out, "{}", self.seq);
        out.push_str(",\"query\":");
        escape_json(&self.query, &mut out);
        out.push_str(",\"plan\":");
        escape_json(&self.plan, &mut out);
        let _ = write!(
            out,
            ",\"wall_nanos\":{},\"pairs\":{},",
            self.wall_nanos, self.pairs
        );
        self.resources.json_fields(&mut out);
        out.push_str(",\"stats\":");
        out.push_str(&self.stats.to_json());
        out.push('}');
        out
    }
}

/// The two bounded worst-query rankings.
#[derive(Debug, Default)]
struct SlowLog {
    seq: u64,
    by_time: Vec<SlowQueryEntry>,
    by_pairs: Vec<SlowQueryEntry>,
}

impl SlowLog {
    fn insert(&mut self, obs: &QueryObservation<'_>, resources: &QueryResourceReport) {
        let seq = self.seq;
        self.seq += 1;
        let wall_nanos = obs.wall_nanos;
        let pairs = obs.stats.total_pairs();
        // Admission check before rendering: a full ranking admits only a
        // strictly worse entry (ties break toward the older seq, which the
        // newcomer always loses), so equality means "would be truncated".
        let by_time_ok = self.by_time.len() < SLOW_LOG_CAP
            || self
                .by_time
                .last()
                .is_some_and(|e| wall_nanos > e.wall_nanos);
        let by_pairs_ok = self.by_pairs.len() < SLOW_LOG_CAP
            || self.by_pairs.last().is_some_and(|e| pairs > e.pairs);
        if !by_time_ok && !by_pairs_ok {
            return;
        }
        let (query, plan) = (obs.render)();
        let entry = SlowQueryEntry {
            seq,
            query,
            plan,
            wall_nanos,
            pairs,
            stats: obs.stats.clone(),
            resources: *resources,
        };
        if by_time_ok {
            self.by_time.push(entry.clone());
            self.by_time
                .sort_by(|a, b| b.wall_nanos.cmp(&a.wall_nanos).then(a.seq.cmp(&b.seq)));
            self.by_time.truncate(SLOW_LOG_CAP);
        }
        if by_pairs_ok {
            self.by_pairs.push(entry);
            self.by_pairs
                .sort_by(|a, b| b.pairs.cmp(&a.pairs).then(a.seq.cmp(&b.seq)));
            self.by_pairs.truncate(SLOW_LOG_CAP);
        }
    }
}

/// Lock-cheap cross-query metrics sink. Shareable by reference (all
/// interior mutability); each `Database` owns one in an `Arc`, shared by
/// its clones.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    queries: AtomicU64,
    query_wall: Histogram,
    query_pairs: Histogram,
    query_rows: Histogram,
    op_wall: [Histogram; OpKind::ALL.len()],
    totals: Mutex<StatsSnapshot>,
    tuples_allocated: AtomicU64,
    peak_rows: AtomicU64,
    slow: Mutex<SlowLog>,
    view_refreshes: AtomicU64,
    view_full_refreshes: AtomicU64,
    view_delta_rows: AtomicU64,
    views_registered: AtomicU64,
    server_connections: AtomicU64,
    server_requests: AtomicU64,
    server_admitted: AtomicU64,
    server_rejected_over_budget: AtomicU64,
    server_rejected_queue_full: AtomicU64,
    server_timeouts: AtomicU64,
    server_batches: AtomicU64,
    server_batch_queries: AtomicU64,
    server_queue_depth: AtomicU64,
    server_queue_depth_max: AtomicU64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one finished query. Histograms and gauges use relaxed
    /// atomics; the totals merge and slow-log insert each take one short
    /// lock.
    ///
    /// Per-op wall-time histograms record one observation per op kind the
    /// query actually invoked (`calls > 0`), so observation *counts* are
    /// thread-count invariant even though the recorded times are not.
    pub fn observe_query(&self, obs: QueryObservation<'_>) {
        self.queries.fetch_add(1, Relaxed);
        self.query_wall.record(obs.wall_nanos);
        self.query_pairs.record(obs.stats.total_pairs());
        self.query_rows.record(obs.resources.peak_live_rows);
        self.observe_ops(obs.stats);
        self.tuples_allocated
            .fetch_add(obs.resources.tuples_allocated, Relaxed);
        self.peak_rows
            .fetch_max(obs.resources.peak_live_rows, Relaxed);
        let resources = *obs.resources;
        self.slow
            .lock()
            .expect("slow log poisoned")
            .insert(&obs, &resources);
    }

    /// Number of queries observed so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Relaxed)
    }

    /// Records one finished refresh of a registered view: whether it fell
    /// back to a full recomputation, how many signed delta rows it
    /// consumed, and the operator counters the maintenance pass ran up
    /// (merged into the cross-query totals exactly like a query's).
    pub fn observe_view_refresh(&self, full: bool, delta_rows: u64, stats: &StatsSnapshot) {
        self.view_refreshes.fetch_add(1, Relaxed);
        if full {
            self.view_full_refreshes.fetch_add(1, Relaxed);
        }
        self.view_delta_rows.fetch_add(delta_rows, Relaxed);
        self.observe_ops(stats);
    }

    /// Records the per-op counters of one query or view refresh: one
    /// wall-time observation per op kind it invoked, and a merge into the
    /// cross-query totals.
    fn observe_ops(&self, stats: &StatsSnapshot) {
        for (kind, op) in stats.iter() {
            if op.calls > 0 {
                self.op_wall[kind.index()].record(op.nanos);
            }
        }
        self.totals
            .lock()
            .expect("metrics totals poisoned")
            .merge(stats);
    }

    /// Counts one accepted query-service connection.
    pub fn server_connection(&self) {
        self.server_connections.fetch_add(1, Relaxed);
    }

    /// Counts one query request submitted to the service (before
    /// admission). The admission invariant `admitted + rejected_over_budget
    /// + rejected_queue_full == requests` holds at every quiescent point.
    pub fn server_request(&self) {
        self.server_requests.fetch_add(1, Relaxed);
    }

    /// Counts one request admitted past the cost budget.
    pub fn server_admitted(&self) {
        self.server_admitted.fetch_add(1, Relaxed);
    }

    /// Counts one request rejected because its pre-execution total-pairs
    /// estimate exceeded the admission budget.
    pub fn server_rejected_over_budget(&self) {
        self.server_rejected_over_budget.fetch_add(1, Relaxed);
    }

    /// Counts one request rejected because the bounded admission queue was
    /// full (backpressure).
    pub fn server_rejected_queue_full(&self) {
        self.server_rejected_queue_full.fetch_add(1, Relaxed);
    }

    /// Counts one admitted request cancelled by its deadline.
    pub fn server_timeout(&self) {
        self.server_timeouts.fetch_add(1, Relaxed);
    }

    /// Records one dispatched batch of `queries` requests sharing a single
    /// database snapshot.
    pub fn observe_server_batch(&self, queries: u64) {
        self.server_batches.fetch_add(1, Relaxed);
        self.server_batch_queries.fetch_add(queries, Relaxed);
    }

    /// Publishes the current admission-queue depth (and raises the
    /// high-water mark).
    pub fn server_queue_depth_set(&self, depth: u64) {
        self.server_queue_depth.store(depth, Relaxed);
        self.server_queue_depth_max.fetch_max(depth, Relaxed);
    }

    /// Adjusts the registered-view gauge on register (`+1`) / deregister
    /// (`-1`).
    pub fn views_registered_add(&self, delta: i64) {
        if delta >= 0 {
            self.views_registered.fetch_add(delta as u64, Relaxed);
        } else {
            self.views_registered.fetch_sub((-delta) as u64, Relaxed);
        }
    }

    /// Freezes the registry into a plain-data snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let slow = self.slow.lock().expect("slow log poisoned");
        RegistrySnapshot {
            queries: self.queries.load(Relaxed),
            query_wall: self.query_wall.snapshot(),
            query_pairs: self.query_pairs.snapshot(),
            query_rows: self.query_rows.snapshot(),
            op_wall: OpKind::ALL
                .iter()
                .map(|k| (*k, self.op_wall[k.index()].snapshot()))
                .collect(),
            totals: self.totals.lock().expect("metrics totals poisoned").clone(),
            tuples_allocated: self.tuples_allocated.load(Relaxed),
            peak_rows: self.peak_rows.load(Relaxed),
            slow_by_time: slow.by_time.clone(),
            slow_by_pairs: slow.by_pairs.clone(),
            view_refreshes: self.view_refreshes.load(Relaxed),
            view_full_refreshes: self.view_full_refreshes.load(Relaxed),
            view_delta_rows: self.view_delta_rows.load(Relaxed),
            views_registered: self.views_registered.load(Relaxed),
            server_connections: self.server_connections.load(Relaxed),
            server_requests: self.server_requests.load(Relaxed),
            server_admitted: self.server_admitted.load(Relaxed),
            server_rejected_over_budget: self.server_rejected_over_budget.load(Relaxed),
            server_rejected_queue_full: self.server_rejected_queue_full.load(Relaxed),
            server_timeouts: self.server_timeouts.load(Relaxed),
            server_batches: self.server_batches.load(Relaxed),
            server_batch_queries: self.server_batch_queries.load(Relaxed),
            server_queue_depth: self.server_queue_depth.load(Relaxed),
            server_queue_depth_max: self.server_queue_depth_max.load(Relaxed),
        }
    }
}

/// Plain-data freeze of a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Queries observed.
    pub queries: u64,
    /// Per-query wall-time histogram (nanoseconds).
    pub query_wall: HistogramSnapshot,
    /// Per-query candidate-pair histogram.
    pub query_pairs: HistogramSnapshot,
    /// Per-query peak-live-row histogram.
    pub query_rows: HistogramSnapshot,
    /// Per-op wall-time histograms in display order (nanoseconds; one
    /// observation per query that invoked the op).
    pub op_wall: Vec<(OpKind, HistogramSnapshot)>,
    /// Exact sum of every observed query's per-op counters.
    pub totals: StatsSnapshot,
    /// Total tuples allocated across observed queries.
    pub tuples_allocated: u64,
    /// Largest single-query peak of live intermediate rows.
    pub peak_rows: u64,
    /// Worst queries by wall time, worst first.
    pub slow_by_time: Vec<SlowQueryEntry>,
    /// Worst queries by candidate pairs, worst first.
    pub slow_by_pairs: Vec<SlowQueryEntry>,
    /// Registered-view refreshes observed (incremental and full).
    pub view_refreshes: u64,
    /// Refreshes that fell back to full recomputation.
    pub view_full_refreshes: u64,
    /// Signed delta rows consumed by view refreshes.
    pub view_delta_rows: u64,
    /// Views currently registered across databases sharing this registry.
    pub views_registered: u64,
    /// Query-service connections accepted.
    pub server_connections: u64,
    /// Query-service requests submitted (before admission).
    pub server_requests: u64,
    /// Requests admitted past the cost budget.
    pub server_admitted: u64,
    /// Requests rejected for exceeding the admission budget.
    pub server_rejected_over_budget: u64,
    /// Requests rejected because the bounded queue was full.
    pub server_rejected_queue_full: u64,
    /// Admitted requests cancelled by their deadline.
    pub server_timeouts: u64,
    /// Batches dispatched against a shared snapshot.
    pub server_batches: u64,
    /// Requests carried by those batches.
    pub server_batch_queries: u64,
    /// Admission-queue depth at snapshot time.
    pub server_queue_depth: u64,
    /// High-water mark of the admission-queue depth.
    pub server_queue_depth_max: u64,
}

fn fmt_nanos(n: u64) -> String {
    format!("{:.1?}", Duration::from_nanos(n))
}

/// Appends one Prometheus classic histogram (cumulative `_bucket{le=}`
/// series, `_sum`, `_count`). `scale` divides both the `le` boundaries and
/// the sum (use `1e9` to render nanosecond buckets in seconds, `1.0` for
/// dimensionless values).
fn prom_histogram(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot, scale: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let last = h.max_bucket().unwrap_or(0);
    let mut cumulative = 0u64;
    for i in 0..=last {
        cumulative += h.buckets[i];
        let le = bucket_le(i);
        if scale == 1.0 {
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        } else {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{:.9}\"}} {cumulative}",
                le as f64 / scale
            );
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    if scale == 1.0 {
        let _ = writeln!(out, "{name}_sum {}", h.sum);
    } else {
        let _ = writeln!(out, "{name}_sum {:.9}", h.sum as f64 / scale);
    }
    let _ = writeln!(out, "{name}_count {}", h.count());
}

fn prom_scalar(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

impl StorageStats {
    /// Renders the process-wide storage gauges (interning arenas, residue
    /// indexes, pairwise-outcome cache) in the Prometheus text exposition
    /// format. Every `Database` in the process shares them, so append
    /// them only to a rendering whose scope is the whole process.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, v) in [
            (
                "itd_storage_value_lookups_total",
                "Value-arena interning attempts.",
                self.value_lookups,
            ),
            (
                "itd_storage_value_hits_total",
                "Value-arena attempts answered by an existing entry.",
                self.value_hits,
            ),
            (
                "itd_storage_part_lookups_total",
                "Part-arena interning attempts.",
                self.part_lookups,
            ),
            (
                "itd_storage_part_hits_total",
                "Part-arena attempts answered by an existing entry.",
                self.part_hits,
            ),
            (
                "itd_storage_index_builds_total",
                "Residue indexes built from scratch.",
                self.index_builds,
            ),
            (
                "itd_storage_index_reuses_total",
                "Operator calls served by a persistent index.",
                self.index_reuses,
            ),
            (
                "itd_outcome_cache_hits_total",
                "Pairwise-outcome cache lookups answered by a cached outcome.",
                self.outcome_hits,
            ),
            (
                "itd_outcome_cache_misses_total",
                "Pairwise-outcome cache lookups that fell through to derivation.",
                self.outcome_misses,
            ),
            (
                "itd_outcome_cache_evictions_total",
                "Pairwise-outcome cache entries dropped by the capacity bound.",
                self.outcome_evictions,
            ),
        ] {
            prom_scalar(&mut out, name, "counter", help, v);
        }
        for (name, help, v) in [
            (
                "itd_storage_value_distinct",
                "Distinct values interned.",
                self.value_distinct,
            ),
            (
                "itd_storage_part_distinct",
                "Distinct temporal parts interned.",
                self.part_distinct,
            ),
            (
                "itd_storage_arena_bytes",
                "Estimated bytes of interned arena payload.",
                self.value_bytes + self.part_bytes,
            ),
        ] {
            prom_scalar(&mut out, name, "gauge", help, v);
        }
        out
    }
}

impl RegistrySnapshot {
    /// Renders the whole snapshot in the Prometheus text exposition
    /// format: the per-op counter families of
    /// [`StatsSnapshot::to_prometheus`] (now fed by cross-query totals),
    /// the query-level histograms, per-op latency percentile gauges, and
    /// the view and service counters. The process-wide storage gauges are
    /// rendered separately, by [`StorageStats::to_prometheus`].
    pub fn to_prometheus(&self) -> String {
        let mut out = self.totals.to_prometheus();
        prom_scalar(
            &mut out,
            "itd_queries_total",
            "counter",
            "Queries observed by the metrics registry.",
            self.queries,
        );
        prom_histogram(
            &mut out,
            "itd_query_wall_seconds",
            "Per-query end-to-end wall time.",
            &self.query_wall,
            1e9,
        );
        prom_histogram(
            &mut out,
            "itd_query_pairs",
            "Per-query candidate tuple pairs examined.",
            &self.query_pairs,
            1.0,
        );
        prom_histogram(
            &mut out,
            "itd_query_rows",
            "Per-query peak live intermediate rows.",
            &self.query_rows,
            1.0,
        );
        for (p, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            let name = format!("itd_op_wall_{p}_seconds");
            let _ = writeln!(
                out,
                "# HELP {name} Per-op wall-time {p} across observed queries."
            );
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (kind, h) in &self.op_wall {
                if h.count() == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{name}{{op=\"{}\"}} {:.9}",
                    kind.name(),
                    h.percentile(q) as f64 / 1e9
                );
            }
        }
        prom_scalar(
            &mut out,
            "itd_query_tuples_allocated_total",
            "counter",
            "Generalized tuples produced across observed queries.",
            self.tuples_allocated,
        );
        prom_scalar(
            &mut out,
            "itd_query_peak_live_rows",
            "gauge",
            "Largest single-query peak of live intermediate rows.",
            self.peak_rows,
        );
        let _ = writeln!(
            out,
            "# HELP itd_slow_log_entries Entries retained per slow-query ranking."
        );
        let _ = writeln!(out, "# TYPE itd_slow_log_entries gauge");
        let _ = writeln!(
            out,
            "itd_slow_log_entries{{rank=\"time\"}} {}",
            self.slow_by_time.len()
        );
        let _ = writeln!(
            out,
            "itd_slow_log_entries{{rank=\"pairs\"}} {}",
            self.slow_by_pairs.len()
        );
        for (name, help, v) in [
            (
                "itd_view_refreshes_total",
                "Registered-view refreshes observed (incremental and full).",
                self.view_refreshes,
            ),
            (
                "itd_view_full_refreshes_total",
                "View refreshes that fell back to full recomputation.",
                self.view_full_refreshes,
            ),
            (
                "itd_view_delta_rows_total",
                "Signed delta rows consumed by view refreshes.",
                self.view_delta_rows,
            ),
            (
                "itd_server_connections_total",
                "Query-service connections accepted.",
                self.server_connections,
            ),
            (
                "itd_server_requests_total",
                "Query-service requests submitted (before admission).",
                self.server_requests,
            ),
            (
                "itd_server_admitted_total",
                "Requests admitted past the cost budget.",
                self.server_admitted,
            ),
            (
                "itd_server_rejected_over_budget_total",
                "Requests rejected for exceeding the admission budget.",
                self.server_rejected_over_budget,
            ),
            (
                "itd_server_rejected_queue_full_total",
                "Requests rejected because the bounded queue was full.",
                self.server_rejected_queue_full,
            ),
            (
                "itd_server_timeouts_total",
                "Admitted requests cancelled by their deadline.",
                self.server_timeouts,
            ),
            (
                "itd_server_batches_total",
                "Batches dispatched against a shared snapshot.",
                self.server_batches,
            ),
            (
                "itd_server_batch_queries_total",
                "Requests carried by shared-snapshot batches.",
                self.server_batch_queries,
            ),
        ] {
            prom_scalar(&mut out, name, "counter", help, v);
        }
        for (name, help, v) in [
            (
                "itd_views_registered",
                "Views currently registered.",
                self.views_registered,
            ),
            (
                "itd_server_queue_depth",
                "Admission-queue depth at snapshot time.",
                self.server_queue_depth,
            ),
            (
                "itd_server_queue_depth_max",
                "High-water mark of the admission-queue depth.",
                self.server_queue_depth_max,
            ),
        ] {
            prom_scalar(&mut out, name, "gauge", help, v);
        }
        out
    }

    /// A `\top`-style summary: query count, latency/pairs/rows
    /// percentiles, resource gauges, and the per-op wall-time percentile
    /// table.
    pub fn render_top(&self) -> String {
        let mut out = String::new();
        if self.queries == 0 {
            return "no queries observed".into();
        }
        let _ = writeln!(out, "{} queries observed", self.queries);
        for (label, h, time) in [
            ("wall time", &self.query_wall, true),
            ("pairs", &self.query_pairs, false),
            ("peak rows", &self.query_rows, false),
        ] {
            let render = |v: u64| {
                if time {
                    format!("{:>10}", fmt_nanos(v))
                } else {
                    format!("{v:>10}")
                }
            };
            let _ = writeln!(
                out,
                "{label:<10} p50 ≤ {}   p90 ≤ {}   p99 ≤ {}",
                render(h.percentile(0.50)),
                render(h.percentile(0.90)),
                render(h.percentile(0.99)),
            );
        }
        let _ = writeln!(
            out,
            "tuples allocated: {}; largest query peak live rows: {}",
            self.tuples_allocated, self.peak_rows
        );
        let _ = writeln!(out, "\nper-op wall time (one observation per querying op):");
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>12} {:>12}",
            "op", "queries", "p50 ≤", "p90 ≤", "p99 ≤"
        );
        for (kind, h) in &self.op_wall {
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12} {:>12} {:>12}",
                kind.name(),
                h.count(),
                fmt_nanos(h.percentile(0.50)),
                fmt_nanos(h.percentile(0.90)),
                fmt_nanos(h.percentile(0.99)),
            );
        }
        let _ = write!(out, "\ncumulative op counters:\n{}", self.totals);
        out
    }

    /// Renders both slow-query rankings as tables (worst first).
    pub fn render_slowlog(&self) -> String {
        if self.slow_by_time.is_empty() {
            return "slow-query log is empty".into();
        }
        let mut out = String::new();
        for (title, entries) in [
            ("worst by wall time", &self.slow_by_time),
            ("worst by pairs", &self.slow_by_pairs),
        ] {
            let _ = writeln!(out, "{title}:");
            let _ = writeln!(
                out,
                "{:<4} {:>12} {:>10} {:>10} {:>10}  query",
                "#", "wall", "pairs", "rows", "tuples"
            );
            for (i, e) in entries.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{:<4} {:>12} {:>10} {:>10} {:>10}  {}",
                    i + 1,
                    fmt_nanos(e.wall_nanos),
                    e.pairs,
                    e.resources.peak_live_rows,
                    e.resources.tuples_allocated,
                    e.query,
                );
            }
            let _ = writeln!(out);
        }
        out.pop();
        out
    }

    /// Exports both slow-query rankings as JSON lines (one object per
    /// entry, tagged with its ranking).
    pub fn slow_json_lines(&self) -> String {
        let mut out = String::new();
        for (rank, entries) in [("time", &self.slow_by_time), ("pairs", &self.slow_by_pairs)] {
            for e in entries.iter() {
                let line = e.to_json_line();
                // Tag the ranking without reserializing the entry.
                let _ = writeln!(
                    out,
                    "{{\"rank\":\"{rank}\",{}",
                    line.strip_prefix('{').unwrap_or(&line)
                );
            }
        }
        out
    }

    /// ASCII rendering of the three query-level histograms.
    pub fn render_histograms(&self) -> String {
        let mut out = String::new();
        for (label, h, time) in [
            ("query wall time", &self.query_wall, true),
            ("query pairs", &self.query_pairs, false),
            ("query peak rows", &self.query_rows, false),
        ] {
            let _ = writeln!(out, "{label} ({} observations):", h.count());
            let Some(last) = h.max_bucket() else {
                let _ = writeln!(out, "  (empty)\n");
                continue;
            };
            let peak = h.buckets.iter().copied().max().unwrap_or(1).max(1);
            for i in 0..=last {
                let c = h.buckets[i];
                if c == 0 {
                    continue;
                }
                let bound = if time {
                    fmt_nanos(bucket_le(i))
                } else {
                    bucket_le(i).to_string()
                };
                let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
                let _ = writeln!(out, "  ≤ {bound:>10} {c:>8} {bar}");
            }
            let _ = writeln!(out);
        }
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(10), 1023);
        assert_eq!(bucket_le(64), u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_le(b));
            if b > 0 {
                assert!(v > bucket_le(b - 1));
            }
        }
    }

    #[test]
    fn percentiles_are_exact_on_synthetic_input() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum, 10);
        // Ranks: p50 → rank 2 → value 2 → bucket le 3; p99 → rank 4 →
        // value 4 → bucket le 7.
        assert_eq!(s.percentile(0.50), 3);
        assert_eq!(s.percentile(0.99), 7);
        assert_eq!(s.percentile(1.0), 7);
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
        // Monotone in q.
        assert!(s.percentile(0.5) <= s.percentile(0.9));
        assert!(s.percentile(0.9) <= s.percentile(0.99));
    }

    fn fake_stats(calls: u64, pairs: u64, out: u64) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        s.ops[OpKind::Join.index()].calls = calls;
        s.ops[OpKind::Join.index()].pairs = pairs;
        s.ops[OpKind::Join.index()].tuples_out = out;
        s.ops[OpKind::Join.index()].nanos = 17;
        s
    }

    fn observe(reg: &MetricsRegistry, name: &str, wall: u64, pairs: u64, rows: u64) {
        let stats = fake_stats(1, pairs, rows);
        let resources = QueryResourceReport {
            peak_live_rows: rows,
            tuples_allocated: rows,
            ..QueryResourceReport::default()
        };
        let render = || (name.to_owned(), format!("plan of {name}"));
        reg.observe_query(QueryObservation {
            render: &render,
            wall_nanos: wall,
            stats: &stats,
            resources: &resources,
        });
    }

    #[test]
    fn registry_totals_are_exact_sums() {
        let reg = MetricsRegistry::new();
        observe(&reg, "a", 100, 7, 3);
        observe(&reg, "b", 50, 11, 9);
        let snap = reg.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.totals.op(OpKind::Join).calls, 2);
        assert_eq!(snap.totals.op(OpKind::Join).pairs, 18);
        assert_eq!(snap.totals.total_pairs(), 18);
        assert_eq!(snap.tuples_allocated, 12);
        assert_eq!(snap.peak_rows, 9);
        assert_eq!(snap.query_pairs.count(), 2);
        // One per-op observation per query that invoked the op.
        let join = snap
            .op_wall
            .iter()
            .find(|(k, _)| *k == OpKind::Join)
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(join.count(), 2);
        let select = snap
            .op_wall
            .iter()
            .find(|(k, _)| *k == OpKind::Select)
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(select.count(), 0);
    }

    #[test]
    fn slow_log_ranks_and_truncates() {
        let reg = MetricsRegistry::new();
        for i in 0..(SLOW_LOG_CAP as u64 + 4) {
            // Wall time descending, pairs ascending: the two rankings must
            // disagree about which queries to keep.
            observe(&reg, &format!("q{i}"), 1000 - i, i, 1);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.slow_by_time.len(), SLOW_LOG_CAP);
        assert_eq!(snap.slow_by_pairs.len(), SLOW_LOG_CAP);
        // Worst-by-time keeps the earliest (slowest) queries, worst first.
        assert_eq!(snap.slow_by_time[0].query, "q0");
        assert!(snap
            .slow_by_time
            .windows(2)
            .all(|w| w[0].wall_nanos >= w[1].wall_nanos));
        // Worst-by-pairs keeps the latest queries, worst first.
        assert_eq!(snap.slow_by_pairs[0].query, "q11");
        assert!(snap
            .slow_by_pairs
            .windows(2)
            .all(|w| w[0].pairs >= w[1].pairs));
    }

    #[test]
    fn without_timing_scrubs_nondeterminism() {
        let reg = MetricsRegistry::new();
        observe(&reg, "a", 123, 7, 3);
        let snap = reg.snapshot();
        let e = snap.slow_by_time[0].without_timing();
        assert_eq!(e.wall_nanos, 0);
        assert_eq!(e.stats.total_wall_time(), Duration::ZERO);
        assert_eq!(e.pairs, 7);
        assert_eq!(e.resources.peak_live_rows, 3);
        let r = QueryResourceReport {
            peak_live_rows: 5,
            tuples_allocated: 6,
            value_lookups: 100,
            index_builds: 3,
            arena_bytes: 4096,
            ..QueryResourceReport::default()
        };
        let scrubbed = r.without_timing();
        assert_eq!(scrubbed.peak_live_rows, 5);
        assert_eq!(scrubbed.tuples_allocated, 6);
        assert_eq!(scrubbed.value_lookups, 0);
        assert_eq!(scrubbed.index_builds, 0);
        assert_eq!(scrubbed.arena_bytes, 0);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = MetricsRegistry::new();
        observe(&reg, "a", 100, 7, 3);
        observe(&reg, "b", 50, 11, 9);
        let registry = reg.snapshot().to_prometheus();
        assert!(
            !registry.contains("itd_storage_") && !registry.contains("itd_outcome_cache_"),
            "process-wide storage gauges stay out of a registry's rendering"
        );
        // The process-scope rendering (a server's `/metrics`) appends them.
        let text = registry + &storage_stats().to_prometheus();
        let mut names = std::collections::BTreeSet::new();
        let mut typed = std::collections::BTreeSet::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition output");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap();
                let kind = it.next().unwrap();
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "unknown metric type {kind}"
                );
                typed.insert(name.to_string());
                continue;
            }
            if line.starts_with("# HELP ") {
                continue;
            }
            // Sample line: name{labels} value
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value {value:?} in {line:?}"
            );
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name:?}"
            );
            let family = name
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            names.insert(family.to_string());
        }
        // Every sample belongs to a declared family.
        for n in &names {
            assert!(typed.contains(n), "series {n} missing # TYPE declaration");
        }
        // The headline families are present.
        for expected in [
            "itd_op_pairs_total",
            "itd_queries_total",
            "itd_query_wall_seconds",
            "itd_query_pairs",
            "itd_op_wall_p99_seconds",
            "itd_storage_value_lookups_total",
            "itd_outcome_cache_hits_total",
        ] {
            assert!(typed.contains(expected), "missing family {expected}");
        }
        // Histogram buckets are cumulative and end at +Inf == _count.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("itd_query_pairs_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*buckets.last().unwrap(), 2);
    }

    #[test]
    fn renderings_cover_observed_queries() {
        let reg = MetricsRegistry::new();
        observe(&reg, "p(t) and q(t)", 100, 7, 3);
        let snap = reg.snapshot();
        assert!(snap.render_top().contains("1 queries observed"));
        assert!(snap.render_slowlog().contains("p(t) and q(t)"));
        assert!(snap.render_histograms().contains("query wall time"));
        let json = snap.slow_json_lines();
        assert_eq!(json.lines().count(), 2, "one line per ranking");
        assert!(json.contains("\"rank\":\"time\""));
        assert!(json.contains("\"query\":\"p(t) and q(t)\""));
        let empty = MetricsRegistry::new().snapshot();
        assert_eq!(empty.render_top(), "no queries observed");
        assert_eq!(empty.render_slowlog(), "slow-query log is empty");
    }
}
