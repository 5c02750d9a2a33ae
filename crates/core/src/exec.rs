//! Instrumented, optionally parallel execution of the algebra.
//!
//! An [`ExecContext`] carries two things through the relation-level
//! operators ([`GenRelation::intersect_in`] and friends):
//!
//! * a **thread budget** — the embarrassingly-parallel work of
//!   intersection, difference, product, join, projection, normalization
//!   and complement's `k^m` extension walk is fanned out over
//!   [`std::thread::scope`] workers by one function, `run_chunked_range`.
//!   Work is split into *contiguous chunks of an index space* (outer
//!   tuples, or complement's extensions) and the per-chunk outputs are
//!   concatenated in chunk order, so the result is **bit-identical at any
//!   thread count** (and identical to the serial path). The cancellation
//!   token is polled before every index;
//! * **per-operator counters** ([`OpSnapshot`]) — tuples in/out,
//!   candidate pairs examined, empty tuples pruned, constraint atoms
//!   rewritten, the largest common period encountered, and wall time.
//!   Each operator call counts into its own record, merged into the
//!   context's totals when the call returns. A cheap, clonable
//!   [`StatsSnapshot`] of the totals can be taken at any moment; the query
//!   layer surfaces it as `QueryResult::stats` and the REPL as `\stats`.
//!
//! The `*_in` operator methods are the one way to call the algebra: every
//! call site names the context its work is counted against, and fresh
//! counters come from a fresh context. (`GenRelation::difference` keeps a
//! context-free form for the benchmark harness only.)
//!
//! [`GenRelation::intersect_in`]: crate::GenRelation::intersect_in

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::trace::{NodeSpan, SpanLabel, Trace, TraceSink};
use crate::Result;

/// The relation-level operators distinguished by [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Union (§3.1).
    Union,
    /// Intersection (§3.2), including the bucketed variant.
    Intersect,
    /// Difference (§3.3).
    Difference,
    /// Complement within `Z^m` (Appendix A.6).
    Complement,
    /// Cross product (§3.6).
    Product,
    /// Equi-join (§3.7).
    Join,
    /// Projection (§3.4).
    Project,
    /// Temporal / data selection (§3.5).
    Select,
    /// Column translation for successor terms.
    Shift,
    /// Normalization (Theorem 3.2).
    Normalize,
    /// Adaptive intermediate compaction (subsumption pruning plus
    /// residue-class coalescing between plan nodes).
    Compact,
    /// Incremental refresh of a registered materialized view (signed-delta
    /// propagation through its cached plan outputs).
    ViewRefresh,
}

impl OpKind {
    /// Every operator kind, in display order.
    pub const ALL: [OpKind; 12] = [
        OpKind::Union,
        OpKind::Intersect,
        OpKind::Difference,
        OpKind::Complement,
        OpKind::Product,
        OpKind::Join,
        OpKind::Project,
        OpKind::Select,
        OpKind::Shift,
        OpKind::Normalize,
        OpKind::Compact,
        OpKind::ViewRefresh,
    ];

    /// Stable lower-case name (used by the REPL and bench reports).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Union => "union",
            OpKind::Intersect => "intersect",
            OpKind::Difference => "difference",
            OpKind::Complement => "complement",
            OpKind::Product => "product",
            OpKind::Join => "join",
            OpKind::Project => "project",
            OpKind::Select => "select",
            OpKind::Shift => "shift",
            OpKind::Normalize => "normalize",
            OpKind::Compact => "compact",
            OpKind::ViewRefresh => "view_refresh",
        }
    }

    pub(crate) fn index(self) -> usize {
        OpKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("OpKind::ALL is exhaustive")
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a counter combines across operator calls, and so how it merges,
/// differences, scrubs and exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Combine {
    /// A tally: calls add up, and a window is the end value minus the
    /// start value. Exported as a Prometheus `_total` counter.
    Sum,
    /// A high-water mark: calls take the maximum, and a window keeps the
    /// end value (maxima do not difference). Exported as a gauge.
    Max,
    /// Wall time in nanoseconds: a tally, and the one counter that varies
    /// run to run, so timing scrubs zero it. Exported in seconds.
    Nanos,
}

/// One per-operator counter, as listed in [`OpSnapshot::COUNTERS`].
#[derive(Debug)]
pub(crate) struct Counter {
    /// Field name: the key in every JSON export and the stem of the
    /// Prometheus family.
    pub(crate) name: &'static str,
    /// Column header in the `\stats` table, and the column's width.
    label: &'static str,
    width: usize,
    /// Prometheus help text.
    pub(crate) help: &'static str,
    pub(crate) combine: Combine,
    read: fn(&OpSnapshot) -> u64,
    field: fn(&mut OpSnapshot) -> &mut u64,
}

impl Counter {
    /// This counter's value in `op`.
    pub(crate) fn get(&self, op: &OpSnapshot) -> u64 {
        (self.read)(op)
    }

    /// Whether a single span exports this counter: a span is one call, so
    /// `calls` says nothing, and its wall time is exported as a duration.
    pub(crate) fn per_span(&self) -> bool {
        self.name != "calls" && self.combine != Combine::Nanos
    }
}

/// Declares the per-operator counters once: the fields of [`OpSnapshot`],
/// the live [`OpCounters`] of one call, and [`OpSnapshot::COUNTERS`], the
/// list that every merge, difference, scrub and exporter walks.
macro_rules! op_counters {
    ($(
        $(#[doc = $doc:literal])+
        $name:ident: $combine:ident, $label:literal / $width:literal, $help:literal;
    )+) => {
        /// Plain-data copy of one operator's counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        /// The live counters of one operator call, owned by its
        /// [`OpTimer`]. The operator and its scoped workers add into them;
        /// updates are `Relaxed` because the counters are tallies that
        /// publish no other data, and the workers join before the call
        /// ends and the record is read.
        #[derive(Debug, Default)]
        pub(crate) struct OpCounters {
            $($name: AtomicU64,)+
        }

        impl OpCounters {
            fn snapshot(&self) -> OpSnapshot {
                OpSnapshot { $($name: self.$name.load(Relaxed),)+ }
            }
        }

        impl OpSnapshot {
            /// Every counter, in export order.
            pub(crate) const COUNTERS: &'static [Counter] = &[$(Counter {
                name: stringify!($name),
                label: $label,
                width: $width,
                help: $help,
                combine: Combine::$combine,
                read: |o| o.$name,
                field: |o| &mut o.$name,
            },)+];
        }
    };
}

op_counters! {
    /// Operator invocations.
    calls: Sum, "calls" / 6, "Algebra operator invocations.";
    /// Generalized tuples consumed (both operands).
    tuples_in: Sum, "in" / 9, "Generalized tuples consumed.";
    /// Generalized tuples produced.
    tuples_out: Sum, "out" / 9, "Generalized tuples produced.";
    /// Candidate tuple pairs / refinement combinations examined.
    pairs: Sum, "pairs" / 9, "Candidate tuple pairs examined.";
    /// Candidates dropped as empty or unsatisfiable (including pairs the
    /// residue index proved empty without examining them).
    empties_pruned: Sum, "pruned" / 8, "Candidates dropped as empty.";
    /// Candidate pairs actually examined after residue-index filtering
    /// (zero when the operator ran without an index).
    index_probes: Sum, "probes" / 9, "Candidate pairs probed after index filtering.";
    /// Candidate pairs skipped by the residue index (data-hash or residue
    /// incompatibility); `index_probes + index_pruned == pairs` whenever an
    /// index was consulted.
    index_pruned: Sum, "skipped" / 9, "Candidate pairs skipped by the residue index.";
    /// Constraint atoms rewritten (added, conjoined, or grid-rounded).
    atoms_simplified: Sum, "atoms" / 7, "Constraint atoms rewritten.";
    /// Tuples dropped by compaction because another tuple's denotation
    /// contains theirs; `tuples_subsumed + coalesce_merges + tuples_out ==
    /// tuples_in` for every compact call.
    tuples_subsumed: Sum, "subsumed" / 9, "Tuples dropped by compaction as subsumed.";
    /// Tuples eliminated by coalescing complete residue-class groups into
    /// one coarser tuple (a group of `s` tuples contributes `s − 1`).
    coalesce_merges: Sum, "merged" / 7, "Tuples eliminated by coalescing residue classes.";
    /// Largest common period `k` encountered.
    max_period: Max, "max_k" / 7, "Largest common period k encountered.";
    /// Accumulated wall time, in nanoseconds.
    nanos: Nanos, "time" / 12, "Accumulated operator wall time.";
}

impl OpCounters {
    pub(crate) fn add_in(&self, n: usize) {
        self.tuples_in.fetch_add(n as u64, Relaxed);
    }

    pub(crate) fn add_out(&self, n: usize) {
        self.tuples_out.fetch_add(n as u64, Relaxed);
    }

    pub(crate) fn add_pairs(&self, n: u64) {
        self.pairs.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_pruned(&self, n: u64) {
        self.empties_pruned.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_probes(&self, n: u64) {
        self.index_probes.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_index_pruned(&self, n: u64) {
        self.index_pruned.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_atoms(&self, n: u64) {
        self.atoms_simplified.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_subsumed(&self, n: u64) {
        self.tuples_subsumed.fetch_add(n, Relaxed);
    }

    pub(crate) fn add_merges(&self, n: u64) {
        self.coalesce_merges.fetch_add(n, Relaxed);
    }

    pub(crate) fn record_period(&self, k: i64) {
        self.max_period.fetch_max(k.max(0) as u64, Relaxed);
    }
}

impl OpSnapshot {
    /// Accumulated wall time.
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.nanos)
    }

    /// Whether the operator was never invoked.
    pub fn is_zero(&self) -> bool {
        self.calls == 0
    }

    /// Adds `other` into `self`: tallies add, `max_period` takes the
    /// maximum.
    pub(crate) fn merge(&mut self, other: &OpSnapshot) {
        for c in OpSnapshot::COUNTERS {
            let theirs = c.get(other);
            let mine = (c.field)(self);
            *mine = match c.combine {
                Combine::Sum | Combine::Nanos => *mine + theirs,
                Combine::Max => (*mine).max(theirs),
            };
        }
    }

    /// `self − before` for the tallies (saturating); `max_period` keeps
    /// `self`'s value.
    fn delta_since(&self, before: &OpSnapshot) -> OpSnapshot {
        let mut out = *self;
        for c in OpSnapshot::COUNTERS {
            if c.combine != Combine::Max {
                let mine = (c.field)(&mut out);
                *mine = mine.saturating_sub(c.get(before));
            }
        }
        out
    }

    /// A copy with the wall time zeroed.
    pub(crate) fn without_timing(&self) -> OpSnapshot {
        let mut out = *self;
        for c in OpSnapshot::COUNTERS {
            if c.combine == Combine::Nanos {
                *(c.field)(&mut out) = 0;
            }
        }
        out
    }
}

/// Plain-data copy of a context's per-operator counters, cheap to clone
/// and safe to hold after the context is gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub(crate) ops: [OpSnapshot; OpKind::ALL.len()],
}

impl StatsSnapshot {
    /// The counters of one operator.
    pub fn op(&self, kind: OpKind) -> &OpSnapshot {
        &self.ops[kind.index()]
    }

    /// Iterates over `(kind, counters)` in display order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, &OpSnapshot)> {
        OpKind::ALL.iter().map(move |k| (*k, self.op(*k)))
    }

    /// Total operator invocations across all kinds.
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|o| o.calls).sum()
    }

    /// Total wall time across all kinds.
    pub fn total_wall_time(&self) -> Duration {
        Duration::from_nanos(self.ops.iter().map(|o| o.nanos).sum())
    }

    /// Total candidate pairs / refinement combinations examined across
    /// all kinds — the optimizer's figure of merit.
    pub fn total_pairs(&self) -> u64 {
        self.ops.iter().map(|o| o.pairs).sum()
    }

    /// Whether no operator was invoked at all.
    pub fn is_zero(&self) -> bool {
        self.total_calls() == 0
    }

    /// Adds every counter of `other` into `self` (`max_period` takes the
    /// maximum); used to aggregate across evaluations.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (mine, theirs) in self.ops.iter_mut().zip(&other.ops) {
            mine.merge(theirs);
        }
    }

    /// The counters this snapshot added on top of `before` (saturating,
    /// field by field) — what one evaluation contributed to a shared
    /// context. `max_period` keeps `self`'s value: maxima do not
    /// difference.
    pub fn delta_since(&self, before: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            ops: std::array::from_fn(|i| self.ops[i].delta_since(&before.ops[i])),
        }
    }

    /// A copy with every wall-time field zeroed — the only counters that
    /// vary run to run — for replay-determinism comparisons.
    pub fn without_timing(&self) -> StatsSnapshot {
        StatsSnapshot {
            ops: self.ops.map(|op| op.without_timing()),
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return writeln!(f, "no algebra operations recorded");
        }
        write!(f, "{:<12}", "op")?;
        for c in OpSnapshot::COUNTERS {
            write!(f, " {:>w$}", c.label, w = c.width)?;
        }
        writeln!(f)?;
        for (kind, op) in self.iter() {
            if op.is_zero() {
                continue;
            }
            write!(f, "{:<12}", kind.name())?;
            for c in OpSnapshot::COUNTERS {
                match c.combine {
                    Combine::Nanos => {
                        let time = format!("{:.1?}", op.wall_time());
                        write!(f, " {time:>w$}", w = c.width)?;
                    }
                    _ => write!(f, " {:>w$}", c.get(op), w = c.width)?,
                }
            }
            writeln!(f)?;
        }
        write!(
            f,
            "{:<12} {:>6} {:>96} {:>12}",
            "total",
            self.total_calls(),
            "",
            format!("{:.1?}", self.total_wall_time()),
        )
    }
}

/// Times one operator invocation and owns the counters of that one call:
/// the operator (and its scoped workers) add into the timer, which
/// dereferences to its [`OpCounters`].
///
/// On drop the elapsed wall time completes the call's record, which is
/// merged once into the context's totals and, when the context is traced,
/// stored on the call's [`Span`].
///
/// [`Span`]: crate::trace::Span
pub(crate) struct OpTimer<'a> {
    ctx: &'a ExecContext,
    kind: OpKind,
    counters: OpCounters,
    span: Option<u64>,
    start: Instant,
}

impl Deref for OpTimer<'_> {
    type Target = OpCounters;

    fn deref(&self) -> &OpCounters {
        &self.counters
    }
}

impl Drop for OpTimer<'_> {
    fn drop(&mut self) {
        let record = OpSnapshot {
            calls: 1,
            nanos: self.start.elapsed().as_nanos() as u64,
            ..self.counters.snapshot()
        };
        self.ctx.totals().ops[self.kind.index()].merge(&record);
        if let (Some(sink), Some(id)) = (&self.ctx.trace, self.span) {
            sink.end(id, |span| span.counters = record);
        }
    }
}

/// Cooperative cancellation token, checked at chunk boundaries of the
/// parallel executor.
///
/// A token is either triggered explicitly ([`CancelToken::cancel`]) or
/// implicitly by an attached deadline. Deadline expiry is latched into the
/// atomic flag on first observation, so repeated [`is_cancelled`] polls
/// after expiry cost one relaxed load, not a clock read.
///
/// Cancellation is *cooperative*: work already in flight finishes its
/// current item, the executor returns [`CoreError::Cancelled`], and no
/// partial results are published (the algebra only hands back fully
/// constructed relations).
///
/// # Examples
/// ```
/// use itd_core::CancelToken;
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
///
/// [`is_cancelled`]: CancelToken::is_cancelled
/// [`CoreError::Cancelled`]: crate::CoreError::Cancelled
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](CancelToken::cancel) is
    /// called.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
        })
    }

    /// A token that additionally cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Arc<CancelToken> {
        Arc::new(CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        })
    }

    /// A token that cancels `timeout` from now.
    pub fn after(timeout: Duration) -> Arc<CancelToken> {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Triggers the token; all subsequent polls observe cancellation.
    pub fn cancel(&self) {
        self.cancelled.store(true, Relaxed);
    }

    /// Whether the token has been triggered or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.cancelled.store(true, Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Execution context: a thread budget plus live per-operator statistics.
///
/// Contexts are cheap to create; the query evaluator makes one per
/// top-level evaluation and reads the counters back afterwards.
///
/// # Examples
/// ```
/// use itd_core::{ExecContext, GenRelation, GenTuple, Lrp, OpKind, Schema};
/// let evens = GenRelation::builder(Schema::new(1, 0))
///     .push_row(GenTuple::builder().lrp(Lrp::new(0, 2)?).build()?)
///     .build()?;
/// let fives = GenRelation::builder(Schema::new(1, 0))
///     .push_row(GenTuple::builder().lrp(Lrp::new(0, 5)?).build()?)
///     .build()?;
/// let ctx = ExecContext::with_threads(2);
/// let tens = evens.intersect_in(&fives, &ctx)?;
/// assert!(tens.contains(&[10], &[]));
/// let stats = ctx.stats();
/// assert_eq!(stats.op(OpKind::Intersect).calls, 1);
/// assert_eq!(stats.op(OpKind::Intersect).pairs, 1);
/// # Ok::<(), itd_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ExecContext {
    threads: usize,
    totals: Mutex<StatsSnapshot>,
    trace: Option<TraceSink>,
    cancel: Option<Arc<CancelToken>>,
}

impl Default for ExecContext {
    fn default() -> ExecContext {
        ExecContext::new()
    }
}

impl ExecContext {
    /// A context sized to the machine: `available_parallelism`, capped at 8
    /// (the pairwise loops stop scaling long before that on typical
    /// relation sizes).
    pub fn new() -> ExecContext {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        ExecContext::with_threads(threads.min(8))
    }

    /// A single-threaded context (the behavior of the plain operator
    /// methods).
    pub fn serial() -> ExecContext {
        ExecContext::with_threads(1)
    }

    /// A context with an explicit thread budget (`0` is treated as `1`).
    /// Results do not depend on the budget — only wall time does.
    pub fn with_threads(threads: usize) -> ExecContext {
        ExecContext {
            threads: threads.max(1),
            totals: Mutex::default(),
            trace: None,
            cancel: None,
        }
    }

    /// Attaches a [`CancelToken`]: the parallel executor polls it at chunk
    /// boundaries (once per item) and aborts the evaluation with
    /// [`CoreError::Cancelled`] when it trips. Used by the query service to
    /// enforce per-request deadlines without poisoning caches — the abort
    /// happens before any result is published.
    ///
    /// # Examples
    /// ```
    /// use itd_core::{CancelToken, ExecContext};
    /// let token = CancelToken::new();
    /// let ctx = ExecContext::serial().cancellable(token.clone());
    /// assert!(ctx.check_cancelled().is_ok());
    /// token.cancel();
    /// assert!(ctx.check_cancelled().is_err());
    /// ```
    ///
    /// [`CoreError::Cancelled`]: crate::CoreError::Cancelled
    pub fn cancellable(mut self, token: Arc<CancelToken>) -> ExecContext {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&Arc<CancelToken>> {
        self.cancel.as_ref()
    }

    /// Errs with [`CoreError::Cancelled`] if the attached token (if any)
    /// has tripped. Cheap when no token is attached.
    ///
    /// [`CoreError::Cancelled`]: crate::CoreError::Cancelled
    pub fn check_cancelled(&self) -> Result<()> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(crate::CoreError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Attaches a [`TraceSink`]: every operator invocation is recorded as
    /// a [`Span`](crate::trace::Span) until the trace is drained with
    /// [`take_trace`](ExecContext::take_trace).
    ///
    /// Span ids come from a context-local counter in begin order, so the
    /// recorded tree is identical at any thread budget (see the
    /// [`trace`](crate::trace) module docs).
    ///
    /// # Examples
    /// ```
    /// use itd_core::{ExecContext, GenRelation, GenTuple, Lrp, Schema};
    /// let evens = GenRelation::builder(Schema::new(1, 0))
    ///     .push_row(GenTuple::builder().lrp(Lrp::new(0, 2)?).build()?)
    ///     .build()?;
    /// let ctx = ExecContext::serial().traced();
    /// let _ = evens.intersect_in(&evens, &ctx)?;
    /// let trace = ctx.take_trace().expect("tracing is on");
    /// assert_eq!(trace.len(), 1);
    /// assert_eq!(trace.op_totals(), ctx.stats());
    /// # Ok::<(), itd_core::CoreError>(())
    /// ```
    pub fn traced(mut self) -> ExecContext {
        self.trace = Some(TraceSink::new());
        self
    }

    /// Whether a trace sink is attached.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Drains the recorded spans, or `None` if the context is untraced.
    /// The sink stays attached and continues recording (with fresh span
    /// ids), so one traced context can serve many queries.
    pub fn take_trace(&self) -> Option<Trace> {
        self.trace.as_ref().map(TraceSink::take)
    }

    /// Opens a caller-labelled span (a query plan node, say) that closes
    /// when the returned guard drops; operator spans begun in between
    /// become its children. On an untraced context the guard is inert and
    /// `label` is never called.
    pub fn node_span(&self, label: impl FnOnce() -> String) -> NodeSpan<'_> {
        NodeSpan::new(self.trace.as_ref(), label, None)
    }

    /// Like [`node_span`](ExecContext::node_span), but stamps the span
    /// with the stable id of the query-plan node it executes, so EXPLAIN
    /// ANALYZE can join plan and trace by id instead of by label text.
    pub fn plan_span(&self, plan_node: u64, label: impl FnOnce() -> String) -> NodeSpan<'_> {
        NodeSpan::new(self.trace.as_ref(), label, Some(plan_node))
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A point-in-time copy of the per-operator counters: the totals of
    /// every operator call that has returned.
    pub fn stats(&self) -> StatsSnapshot {
        self.totals().clone()
    }

    /// The totals, locked. Merging never panics, so a poisoned lock still
    /// holds valid totals.
    fn totals(&self) -> MutexGuard<'_, StatsSnapshot> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a [`OpKind::ViewRefresh`] timing scope: one registered-view
    /// maintenance pass. The guard counts the call and its elapsed wall
    /// time on drop (into a span too, when traced); the caller reports the
    /// delta rows consumed and the result rows produced.
    pub fn view_refresh_scope(&self) -> ViewRefreshScope<'_> {
        ViewRefreshScope {
            timer: self.timed(OpKind::ViewRefresh),
        }
    }

    pub(crate) fn timed(&self, kind: OpKind) -> OpTimer<'_> {
        OpTimer {
            ctx: self,
            kind,
            counters: OpCounters::default(),
            span: self
                .trace
                .as_ref()
                .map(|sink| sink.begin(SpanLabel::Op(kind), None)),
            start: Instant::now(),
        }
    }
}

/// Public guard over one [`OpKind::ViewRefresh`] invocation, handed out by
/// [`ExecContext::view_refresh_scope`] so crates outside the core can time
/// view maintenance through the same counter/span machinery as the algebra
/// operators without exposing the internal per-op timer.
pub struct ViewRefreshScope<'a> {
    timer: OpTimer<'a>,
}

impl ViewRefreshScope<'_> {
    /// Counts signed delta rows consumed by this refresh.
    pub fn add_delta_rows(&self, n: usize) {
        self.timer.add_in(n);
    }

    /// Counts result rows the refreshed view now holds.
    pub fn add_result_rows(&self, n: usize) {
        self.timer.add_out(n);
    }
}

/// Applies `f` to every index in `0..n`, concatenating the outputs **in
/// index order**, fanning the work over up to `threads` scoped workers.
/// This is the algebra's only fan-out.
///
/// Determinism: `0..n` is split into contiguous ranges of
/// `⌈n / workers⌉` indices, each worker processes its range left to
/// right, and range outputs are concatenated in range order — exactly the
/// serial output, at any thread count. The boundaries depend only on `n`
/// and the thread count. On failure the reported error is the one a
/// serial run would hit first (first failing index of the first failing
/// range; earlier ranges hold earlier indices, and within its range a
/// worker stops at its first error). The cancellation token is polled
/// before every index.
pub(crate) fn run_chunked_range<U, F>(ctx: &ExecContext, n: usize, f: F) -> Result<Vec<U>>
where
    U: Send,
    F: Fn(usize) -> Result<Vec<U>> + Sync,
{
    let run = |range: std::ops::Range<usize>| -> Result<Vec<U>> {
        let mut out = Vec::new();
        for i in range {
            ctx.check_cancelled()?;
            out.extend(f(i)?);
        }
        Ok(out)
    };
    let workers = ctx.threads.min(n);
    if workers <= 1 {
        return run(0..n);
    }
    let chunk_len = n.div_ceil(workers);
    let run = &run;
    let per_chunk: Vec<Result<Vec<U>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk_len)
            .map(|start| scope.spawn(move || run(start..n.min(start + chunk_len))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("algebra worker panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for r in per_chunk {
        out.extend(r?);
    }
    Ok(out)
}

/// [`run_chunked_range`] over the items of a slice.
pub(crate) fn run_chunked<T, U, F>(ctx: &ExecContext, items: &[T], f: F) -> Result<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Result<Vec<U>> + Sync,
{
    run_chunked_range(ctx, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_matches_serial_order_at_any_thread_count() {
        let items: Vec<i64> = (0..103).collect();
        let f = |x: &i64| Ok(vec![*x * 2, *x * 2 + 1]);
        let serial = run_chunked(&ExecContext::serial(), &items, f).unwrap();
        for threads in [2, 3, 8, 200] {
            let ctx = ExecContext::with_threads(threads);
            assert_eq!(run_chunked(&ctx, &items, f).unwrap(), serial);
        }
        assert_eq!(serial.len(), 206);
        assert!(serial.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunked_reports_first_error() {
        let items: Vec<i64> = (0..40).collect();
        let f = |x: &i64| {
            if *x >= 17 {
                Err(crate::CoreError::Numth(itd_numth::NumthError::Overflow))
            } else {
                Ok(vec![*x])
            }
        };
        for threads in [1, 4, 64] {
            let ctx = ExecContext::with_threads(threads);
            let err = run_chunked(&ctx, &items, f).unwrap_err();
            assert!(matches!(err, crate::CoreError::Numth(_)));
        }
    }

    #[test]
    fn pre_cancelled_token_aborts_at_any_thread_count() {
        let items: Vec<i64> = (0..50).collect();
        let f = |x: &i64| Ok(vec![*x]);
        for threads in [1, 2, 8] {
            let token = CancelToken::new();
            token.cancel();
            let ctx = ExecContext::with_threads(threads).cancellable(token);
            let err = run_chunked(&ctx, &items, f).unwrap_err();
            assert_eq!(err, crate::CoreError::Cancelled);
        }
    }

    #[test]
    fn mid_run_cancellation_stops_the_loop() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<i64> = (0..1000).collect();
        let token = CancelToken::new();
        let seen = AtomicUsize::new(0);
        let trip = token.clone();
        let f = move |x: &i64| {
            seen.fetch_add(1, Relaxed);
            if *x == 3 {
                trip.cancel();
            }
            Ok(vec![*x])
        };
        let ctx = ExecContext::serial().cancellable(token);
        let err = run_chunked(&ctx, &items, f).unwrap_err();
        assert_eq!(err, crate::CoreError::Cancelled);
    }

    #[test]
    fn deadline_token_latches_expiry() {
        let token = CancelToken::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "latched after first observation");
        assert!(token.deadline().is_some());
        let far = CancelToken::after(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        let ctx = ExecContext::serial();
        assert!(ctx.cancel_token().is_none());
        assert!(ctx.check_cancelled().is_ok());
    }

    #[test]
    fn snapshot_merge_and_display() {
        let ctx = ExecContext::with_threads(3);
        assert_eq!(ctx.threads(), 3);
        {
            let t = ctx.timed(OpKind::Intersect);
            t.add_in(4);
            t.add_out(2);
            t.add_pairs(4);
            t.add_pruned(2);
            t.record_period(6);
        }
        {
            let t = ctx.timed(OpKind::Compact);
            t.add_in(8);
            t.add_out(5);
            t.add_subsumed(2);
            t.add_merges(1);
        }
        let mut snap = ctx.stats();
        assert_eq!(snap.op(OpKind::Intersect).calls, 1);
        assert_eq!(snap.op(OpKind::Intersect).tuples_in, 4);
        assert_eq!(snap.op(OpKind::Intersect).max_period, 6);
        assert_eq!(snap.op(OpKind::Compact).tuples_subsumed, 2);
        assert_eq!(snap.op(OpKind::Compact).coalesce_merges, 1);
        assert!(!snap.is_zero());
        snap.merge(&ctx.stats());
        assert_eq!(snap.op(OpKind::Intersect).calls, 2);
        assert_eq!(snap.op(OpKind::Intersect).max_period, 6);
        assert_eq!(snap.op(OpKind::Compact).tuples_subsumed, 4);
        let text = snap.to_string();
        assert!(text.contains("intersect"), "{text}");
        assert!(text.contains("total"), "{text}");
        let fresh = ExecContext::with_threads(3);
        assert!(fresh.stats().is_zero());
        assert!(fresh.stats().to_string().contains("no algebra"));
    }

    #[test]
    fn thread_budget_is_clamped() {
        assert_eq!(ExecContext::with_threads(0).threads(), 1);
        assert!(ExecContext::new().threads() >= 1);
        assert_eq!(ExecContext::serial().threads(), 1);
    }
}
